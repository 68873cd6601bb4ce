//! Figure 7: fairness stress — RW-LE (ROTs disabled) vs RW-LE_FAIR.
//!
//! The paper disables the ROT fallback so the non-speculative path (the
//! source of reader starvation) is exercised often, on the high-capacity
//! high-contention hashmap, at w ∈ {10, 50, 90}%.
//!
//! ```text
//! cargo run --release -p bench --bin fairness
//! ```

use bench::{average, Args, Output, OutputMode};
use workloads::driver::{run_sensitivity, Scenario, SensitivityParams};
use workloads::SchemeKind;

fn main() {
    let args = Args::parse();
    let threads = args.thread_list(&[1, 2, 4, 8]);
    let write_pcts = args.u32_list("writes", &[10, 50, 90]);
    let ops: u64 = args.get_or("ops", 300);
    let runs: usize = args.get_or("runs", 1);
    let seed: u64 = args.get_or("seed", 42);
    let mut out = Output::from_args(&args);

    out.section("Figure 7 — fairness stress (hc-hc hashmap, ROT path disabled)");
    out.note(format_args!("ops/thread={ops} runs={runs} seed={seed}"));
    out.header();
    for &w in &write_pcts {
        for &t in &threads {
            for scheme in [SchemeKind::RwLeHtmOnly, SchemeKind::RwLeFair] {
                let results: Vec<_> = (0..runs)
                    .map(|r| {
                        run_sensitivity(&SensitivityParams {
                            scheme,
                            scenario: Scenario::HcHc,
                            write_pct: w,
                            threads: t,
                            ops_per_thread: ops,
                            seed: seed + r as u64,
                            smt_group_size: 1,
                        })
                    })
                    .collect();
                let (secs, tput, summary) = average(&results);
                out.row(scheme, t, w, secs, tput, &summary);
                if out.mode() == OutputMode::Text {
                    let reads = summary.commits(stats::CommitKind::Uninstrumented).max(1);
                    println!(
                        "{:>46} reader retreats/1k reads: {:.2}  waits/1k reads: {:.2}",
                        "",
                        1000.0 * summary.reader_retreats as f64 / reads as f64,
                        1000.0 * summary.reader_waits as f64 / reads as f64
                    );
                }
            }
        }
        out.gap();
    }
}
