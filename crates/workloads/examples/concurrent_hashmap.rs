//! A concurrent hashmap under every synchronization scheme.
//!
//! Runs the paper's sensitivity workload (hashmap guarded by one
//! read-write lock, 10% updates) under RW-LE, HLE and the pessimistic
//! baselines, printing throughput and the abort/commit breakdowns — a
//! miniature of Figure 3.
//!
//! ```text
//! cargo run --release -p workloads --example concurrent_hashmap
//! ```

use workloads::driver::{run_sensitivity, Scenario, SensitivityParams};
use workloads::SchemeKind;

fn main() {
    println!("hashmap, 1 bucket x 200 items (capacity-hostile), w=10%, 4 threads\n");
    println!(
        "{:<11} {:>10} {:>8}  commit breakdown",
        "scheme", "ops/s", "abort%"
    );
    for scheme in SchemeKind::SENSITIVITY {
        let r = run_sensitivity(&SensitivityParams {
            scheme,
            scenario: Scenario::HcHc,
            write_pct: 10,
            threads: 4,
            ops_per_thread: 1_000,
            seed: 7,
            smt_group_size: 1,
        });
        println!(
            "{:<11} {:>10.0} {:>8.1}  {}",
            scheme.label(),
            r.throughput(),
            r.summary.abort_rate_pct(),
            r.summary
        );
    }
    println!(
        "\nNote the paper's signature: HLE drowns in capacity aborts and falls\n\
         back to the serial lock, while RW-LE runs readers uninstrumented and\n\
         absorbs capacity-hostile writers into rollback-only transactions."
    );
}
