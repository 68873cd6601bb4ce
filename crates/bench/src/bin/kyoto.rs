//! Figure 9: Kyoto-Cabinet CacheDB with the wicked-style driver.
//!
//! RW-LE elides only the outer read-write lock; the inner per-slot
//! mutexes stay real locks (acquired speculatively inside write sections).
//!
//! ```text
//! cargo run --release -p bench --bin kyoto
//! ```

use bench::{average, Args, Output};
use workloads::driver::{run_kyoto, KyotoParams};
use workloads::SchemeKind;

fn main() {
    let args = Args::parse();
    let threads = args.thread_list(&[1, 2, 4, 8]);
    let schemes = args.scheme_list(&SchemeKind::SENSITIVITY);
    // The paper plots <1%, 5% and 10% outer write-lock acquisition rates.
    let write_permilles = args.u32_list("writes-permille", &[5, 50, 100]);
    let ops: u64 = args.get_or("ops", 300);
    let runs: usize = args.get_or("runs", 1);
    let seed: u64 = args.get_or("seed", 42);
    let n_slots: u32 = args.get_or("slots", 16);
    let mut out = Output::from_args(&args);

    out.section(format!(
        "Figure 9 — Kyoto CacheDB wicked ({n_slots} slots; w column is per-mille)"
    ));
    out.note(format_args!("ops/thread={ops} runs={runs} seed={seed}"));
    out.header();
    for &w in &write_permilles {
        for &t in &threads {
            for &scheme in &schemes {
                let results: Vec<_> = (0..runs)
                    .map(|r| {
                        run_kyoto(&KyotoParams {
                            scheme,
                            write_permille: w,
                            threads: t,
                            ops_per_thread: ops,
                            n_slots,
                            buckets_per_slot: 64,
                            initial_items: 4096,
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
