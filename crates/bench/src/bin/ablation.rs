//! RW-LE ablations (not a paper figure): the §3.3 variants side by side,
//! what each POWER8 feature buys, and the retry-budget sweep behind the
//! paper's "5 is best on average" claim.
//!
//! ```text
//! cargo run --release -p bench --bin ablation
//! ```

use bench::{Args, Output};
use rwle::RwLeConfig;
use workloads::driver::{run_sensitivity_with, Scenario, SensitivityParams};
use workloads::{Scheme, SchemeKind};

/// Every flag this binary accepts; anything else exits 2.
const FLAGS: &[&str] = &["threads", "writes", "ops", "runs", "seed"];

const USAGE: &str = "\
usage: ablation [--threads N] [--writes PCT] [--ops N] [--runs N] [--seed N]

  The hc-hc hashmap under hand-built RW-LE configurations. Defaults: 4
  threads, 10% writes, 300 ops/thread, 1 run, seed 42.";

/// One table: under a `--- name` line, each `(name, config)` row is the
/// hc-hc sensitivity workload measured under that configuration.
fn table<N: std::fmt::Display>(out: &Output, base: &SensitivityParams, rows: &[(N, RwLeConfig)]) {
    out.header();
    for (name, cfg) in rows {
        println!("--- {name}");
        out.measure(base.scheme.label(), base.threads, base.write_pct, &|seed| {
            let p = SensitivityParams {
                seed,
                ..base.clone()
            };
            run_sensitivity_with(&p, &|alloc, max_threads| {
                Scheme::build_rwle(alloc, max_threads, *cfg).expect("lock allocation")
            })
        });
    }
}

fn main() {
    let args = Args::parse();
    args.expect_only(FLAGS, USAGE);
    let out = Output::from_args(&args, 300);
    let base = SensitivityParams {
        scheme: SchemeKind::RwLeOpt, // the row label; `table` builds the lock
        scenario: Scenario::HcHc,
        write_pct: args.get_or("writes", 10),
        threads: args.get_or("threads", 4),
        ops_per_thread: out.ops,
        seed: 0, // `table` sets it per run
        smt_group_size: 1,
    };

    // The §3.3 optimizations are the algorithm, not options (the last
    // rows measured with each one off are in EXPERIMENTS.md, "RW-LE
    // option space"); what §3.3 leaves to compare is fairness.
    out.section(format!(
        "§3.3 variants (hc-hc hashmap, w={}%, {} threads)",
        base.write_pct, base.threads
    ));
    let fair = RwLeConfig {
        fair: true,
        ..RwLeConfig::opt()
    };
    let variants = [("full-OPT", RwLeConfig::opt()), ("fair", fair)];
    table(&out, &base, &variants);

    // The paper's conclusion argues other vendors should adopt POWER8's
    // suspend/resume and ROTs. Quantify what each feature buys RW-LE:
    // without suspend/resume the delayed-commit trick is impossible for
    // regular transactions (writers lose the HTM path → PES); without
    // ROTs capacity-hostile writers land on the global lock; without
    // both, every writer serializes.
    println!();
    out.section("Hardware-feature ablation (what suspend/resume and ROTs buy)");
    let features = [
        ("both features (OPT)", RwLeConfig::opt()),
        ("no suspend/resume (→ROT only)", RwLeConfig::pes()),
        ("no ROTs (→HTM+NS)", RwLeConfig::htm_only()),
        ("neither (→NS only)", RwLeConfig::opt().with_retries(0, 0)),
    ];
    table(&out, &base, &features);

    println!();
    out.section("Retry-budget sweep (the paper settled on 5/5)");
    let sweep = [1u32, 2, 5, 10, 20]
        .map(|b| (format!("retries={b}"), RwLeConfig::opt().with_retries(b, b)));
    table(&out, &base, &sweep);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_names_every_accepted_flag() {
        assert_eq!(Args::undocumented(FLAGS, USAGE), None);
    }
}
