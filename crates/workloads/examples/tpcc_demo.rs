//! TPC-C under RW-LE vs the single global lock.
//!
//! Runs a read-dominated OLTP mix (1% updates, as in the paper's most
//! favourable Figure 10 workload) under both schemes and reports
//! throughput and the commit-path breakdown.
//!
//! ```text
//! cargo run --release -p workloads --example tpcc_demo
//! ```

use workloads::driver::{run_tpcc, TpccParams};
use workloads::tpcc::TpccScale;
use workloads::SchemeKind;

fn main() {
    println!("TPC-C, 1% update transactions, 4 threads\n");
    let mut base = 0.0;
    for scheme in [SchemeKind::Sgl, SchemeKind::Hle, SchemeKind::RwLeOpt] {
        let r = run_tpcc(&TpccParams {
            scheme,
            write_pct: 1,
            threads: 4,
            ops_per_thread: 2_000,
            scale: TpccScale::default(),
            seed: 99,
        });
        if scheme == SchemeKind::Sgl {
            base = r.throughput();
        }
        println!(
            "{:<11} {:>9.0} tx/s   ({:.2}x vs SGL)   abort%={:.1}",
            scheme.label(),
            r.throughput(),
            r.throughput() / base,
            r.summary.abort_rate_pct()
        );
    }
    println!(
        "\nStock-level scans (~100 cache lines) overflow HTM read capacity,\n\
         so HLE keeps falling back to the serial lock; RW-LE runs those\n\
         read-only transactions uninstrumented."
    );
}
