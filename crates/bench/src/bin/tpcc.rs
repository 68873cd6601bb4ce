//! Figure 10: TPC-C on an in-memory store.
//!
//! Prints throughput plus, as in the paper, speedup relative to a
//! single-threaded SGL execution of the same configuration.
//!
//! ```text
//! cargo run --release -p bench --bin tpcc
//! ```

use bench::{average, Args, Output, OutputMode};
use workloads::driver::{run_tpcc, TpccParams};
use workloads::tpcc::TpccScale;
use workloads::SchemeKind;

fn main() {
    let args = Args::parse();
    let threads = args.thread_list(&[1, 2, 4, 8]);
    let schemes = args.scheme_list(&SchemeKind::SENSITIVITY);
    let write_pcts = args.u32_list("writes", &[1, 10, 50]);
    let ops: u64 = args.get_or("ops", 200);
    let runs: usize = args.get_or("runs", 1);
    let seed: u64 = args.get_or("seed", 42);
    let scale = TpccScale::default();
    let mut out = Output::from_args(&args);

    out.section(format!(
        "Figure 10 — TPC-C ({} warehouses, {} items); speedup vs SGL @ 1 thread",
        scale.warehouses, scale.items
    ));
    out.note(format_args!("ops/thread={ops} runs={runs} seed={seed}"));
    for &w in &write_pcts {
        // Paper baseline: single-threaded SGL.
        let base: Vec<_> = (0..runs)
            .map(|r| {
                run_tpcc(&TpccParams {
                    scheme: SchemeKind::Sgl,
                    write_pct: w,
                    threads: 1,
                    ops_per_thread: ops,
                    scale,
                    seed: seed + r as u64,
                })
            })
            .collect();
        let (_, base_tput, _) = average(&base);
        if out.mode() != OutputMode::Json {
            println!("\n## w={w}% — SGL@1thr baseline: {base_tput:.0} tx/s");
        }
        out.header();
        for &t in &threads {
            for &scheme in &schemes {
                let results: Vec<_> = (0..runs)
                    .map(|r| {
                        run_tpcc(&TpccParams {
                            scheme,
                            write_pct: w,
                            threads: t,
                            ops_per_thread: ops,
                            scale,
                            seed: seed + r as u64,
                        })
                    })
                    .collect();
                let (secs, tput, summary) = average(&results);
                out.row(scheme, t, w, secs, tput, &summary);
                if out.mode() == OutputMode::Text {
                    println!("{:>44} speedup vs SGL@1: {:.2}x", "", tput / base_tput);
                }
            }
        }
    }
}
