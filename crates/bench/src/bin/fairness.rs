//! Figure 7: fairness stress — RW-LE (ROTs disabled) vs RW-LE_FAIR.
//!
//! The paper disables the ROT fallback so the non-speculative path (the
//! source of reader starvation) is exercised often, on the high-capacity
//! high-contention hashmap, at w ∈ {10, 50, 90}%.
//!
//! ```text
//! cargo run --release -p bench --bin fairness
//! ```

use bench::{grid_flags, Args, Output};
use workloads::driver::{run_sensitivity, Scenario, SensitivityParams};
use workloads::SchemeKind;

/// This binary's flags beyond `bench::GRID_FLAGS`; anything else exits 2.
const FLAGS: &[&str] = &["writes"];

const USAGE: &str = "\
usage: fairness [--threads 1,2,4,8] [--full] [--writes 10,50,90] [--ops N]
                [--runs N] [--seed N]

  RW-LE with the ROT path disabled vs RW-LE_FAIR on the hc-hc hashmap;
  under each row, reader retreats and fair-path waits per 1000 reads.";

fn main() {
    let args = Args::parse();
    args.expect_only(&grid_flags(FLAGS), USAGE);
    let threads = args.thread_list(&[1, 2, 4, 8]);
    let write_pcts = args.u32_list("writes", &[10, 50, 90]);
    let out = Output::from_args(&args, 300);

    out.section("Figure 7 — fairness stress (hc-hc hashmap, ROT path disabled)");
    out.note("");
    out.header();
    for &w in &write_pcts {
        for &t in &threads {
            for scheme in [SchemeKind::RwLeHtmOnly, SchemeKind::RwLeFair] {
                let (_, summary) = out.measure(scheme.label(), t, w, &|seed| {
                    run_sensitivity(&SensitivityParams {
                        scheme,
                        scenario: Scenario::HcHc,
                        write_pct: w,
                        threads: t,
                        ops_per_thread: out.ops,
                        seed,
                        smt_group_size: 1,
                    })
                });
                let reads = summary.commits(stats::CommitKind::Uninstrumented).max(1);
                println!(
                    "{:>46} reader retreats/1k reads: {:.2}  waits/1k reads: {:.2}",
                    "",
                    1000.0 * summary.reader_retreats as f64 / reads as f64,
                    1000.0 * summary.reader_waits as f64 / reads as f64
                );
            }
        }
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_names_every_accepted_flag() {
        assert_eq!(Args::undocumented(&grid_flags(FLAGS), USAGE), None);
    }
}
