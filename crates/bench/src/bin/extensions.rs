//! Extensions beyond the paper's figures: the HLE conflict-management
//! variants from its related-work section (§2) — SCM-managed HLE and
//! self-tuning adaptive HLE — compared against plain HLE and RW-LE on the
//! sensitivity workloads.
//!
//! ```text
//! cargo run --release -p bench --bin extensions
//! ```

use bench::{grid_flags, Args, Output};
use workloads::driver::{run_sensitivity, Scenario, SensitivityParams};
use workloads::SchemeKind;

/// This binary's flags beyond `bench::GRID_FLAGS`; anything else exits 2.
const FLAGS: &[&str] = &["writes"];

const USAGE: &str = "\
usage: extensions [--threads 2,4,8] [--full] [--writes PCT] [--ops N]
                  [--runs N] [--seed N]

  HLE, HLE-SCM, adaptive HLE and RW-LE_OPT on hc-hc and lc-hc at one
  write ratio (default 50%).";

fn main() {
    let args = Args::parse();
    args.expect_only(&grid_flags(FLAGS), USAGE);
    let threads = args.thread_list(&[2, 4, 8]);
    let w: u32 = args.get_or("writes", 50);
    let out = Output::from_args(&args, 300);
    let schemes = [
        SchemeKind::Hle,
        SchemeKind::ScmHle,
        SchemeKind::AdaptiveHle,
        SchemeKind::RwLeOpt,
    ];

    for scenario in [Scenario::HcHc, Scenario::LcHc] {
        out.section(format!(
            "HLE conflict-management extensions — {} ({} bucket(s) × {} items), w={w}%",
            scenario.name(),
            scenario.buckets(),
            scenario.items_per_bucket()
        ));
        out.header();
        for &t in &threads {
            for scheme in schemes {
                out.measure(scheme.label(), t, w, &|seed| {
                    run_sensitivity(&SensitivityParams {
                        scheme,
                        scenario,
                        write_pct: w,
                        threads: t,
                        ops_per_thread: out.ops,
                        seed,
                        smt_group_size: 1,
                    })
                });
            }
            println!();
        }
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
