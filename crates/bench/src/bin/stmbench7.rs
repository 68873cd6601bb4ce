//! Figure 8: STMBench7 with a read-write-lock interface.
//!
//! ```text
//! cargo run --release -p bench --bin stmbench7
//! ```

use bench::{average, Args, Output};
use workloads::driver::{run_stmbench7, Bench7Params};
use workloads::SchemeKind;

fn main() {
    let args = Args::parse();
    let threads = args.thread_list(&[1, 2, 4, 8]);
    let schemes = args.scheme_list(&SchemeKind::SENSITIVITY);
    let write_pcts = args.u32_list("writes", &[10, 50, 90]);
    let ops: u64 = args.get_or("ops", 100);
    let runs: usize = args.get_or("runs", 1);
    let seed: u64 = args.get_or("seed", 42);
    let n_composite: u32 = args.get_or("composites", 200);
    let parts: u32 = args.get_or("parts", 100);
    let mut out = Output::from_args(&args);

    out.section(format!(
        "Figure 8 — STMBench7 ({n_composite} composite parts × {parts} atomic parts)"
    ));
    out.note(format_args!("ops/thread={ops} runs={runs} seed={seed}"));
    out.header();
    for &w in &write_pcts {
        for &t in &threads {
            for &scheme in &schemes {
                let results: Vec<_> = (0..runs)
                    .map(|r| {
                        run_stmbench7(&Bench7Params {
                            scheme,
                            write_pct: w,
                            threads: t,
                            ops_per_thread: ops,
                            n_composite,
                            parts_per_composite: parts,
                            seed: seed + r as u64,
                        })
                    })
                    .collect();
                let (secs, tput, summary) = average(&results);
                out.row(scheme, t, w, secs, tput, &summary);
            }
        }
        out.gap();
    }
}
