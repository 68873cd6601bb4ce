//! Figures 3–6: the §4.1 sensitivity study.
//!
//! Sweeps scheme × thread count × write ratio over one (or all) of the
//! four capacity × contention scenarios and prints the three panels of
//! the corresponding figure (execution time, abort breakdown, commit
//! breakdown) as one table.
//!
//! ```text
//! cargo run --release -p bench --bin sensitivity -- --scenario hc-hc
//! cargo run --release -p bench --bin sensitivity -- --full --runs 3
//! ```
//!
//! Simulated HTM only: the panels *are* the abort/commit breakdown,
//! which the native store does not have (DESIGN.md §5).

use bench::{grid_flags, Args, Output};
use workloads::driver::{run_sensitivity, Scenario, SensitivityParams};
use workloads::SchemeKind;

/// This binary's flags beyond `bench::GRID_FLAGS`; anything else exits 2.
const FLAGS: &[&str] = &["scenario", "schemes", "writes", "smt"];

const USAGE: &str = "\
usage: sensitivity [--scenario hc-hc|hc-lc|lc-hc|lc-lc] [--threads 1,2,4,8]
                   [--full] [--schemes NAME,..] [--writes 1,10,90] [--ops N]
                   [--runs N] [--seed N] [--smt GROUP]

  Default: all four scenarios. --full sweeps the paper's thread grid (up
  to 80); --smt 8 models the paper's 8-way POWER8 cores.";

fn main() {
    let args = Args::parse();
    args.expect_only(&grid_flags(FLAGS), USAGE);
    let scenarios: Vec<Scenario> = match args.get("scenario") {
        Some(name) => vec![Scenario::parse(name).unwrap_or_else(|| {
            eprintln!("unknown scenario {name:?} (hc-hc, hc-lc, lc-hc, lc-lc)");
            std::process::exit(2);
        })],
        None => Scenario::ALL.to_vec(),
    };
    let threads = args.thread_list(&[1, 2, 4, 8]);
    let schemes = args.scheme_list(&SchemeKind::SENSITIVITY);
    let write_pcts = args.u32_list("writes", &[1, 10, 90]);
    // SMT resource sharing (paper footnote 4): --smt 8 models the
    // paper's 8-way POWER8 cores; default 1 (independent threads).
    let smt: u32 = args.get_or("smt", 1);
    let out = Output::from_args(&args, 300);

    for scenario in scenarios {
        out.section(format!(
            "{} — sensitivity {} ({} bucket(s) × {} items, page-fault p={})",
            scenario.figure(),
            scenario.name(),
            scenario.buckets(),
            scenario.items_per_bucket(),
            scenario.page_fault_prob()
        ));
        out.note(&format!("smt-group={smt}"));
        out.header();
        for &w in &write_pcts {
            for &t in &threads {
                for &scheme in &schemes {
                    out.measure(scheme.label(), t, w, &|seed| {
                        run_sensitivity(&SensitivityParams {
                            scheme,
                            scenario,
                            write_pct: w,
                            threads: t,
                            ops_per_thread: out.ops,
                            seed,
                            smt_group_size: smt,
                        })
                    });
                }
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
