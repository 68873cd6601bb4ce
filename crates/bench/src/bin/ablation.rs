//! RW-LE ablations (not a paper figure): the §3.3 variants side by side,
//! what each POWER8 feature buys, and the retry-budget sweep behind the
//! paper's "5 is best on average" claim.
//!
//! ```text
//! cargo run --release -p bench --bin ablation
//! ```

use bench::{average, Args, Output, OutputMode};
use rwle::RwLeConfig;
use workloads::driver::{run_sensitivity_with, Scenario, SensitivityParams};
use workloads::{Scheme, SchemeKind};

/// Every flag this binary accepts; anything else exits 2.
const FLAGS: &[&str] = &["threads", "writes", "ops", "runs", "seed", "json"];

const USAGE: &str = "\
usage: ablation [--threads N] [--writes PCT] [--ops N] [--runs N] [--seed N]
                [--json]

  The hc-hc hashmap under hand-built RW-LE configurations. Defaults: 4
  threads, 10% writes, 300 ops/thread, 1 run, seed 42; --json prints one
  self-contained object per row instead of the text tables.";

/// One table: each `(name, config)` row runs the hc-hc sensitivity
/// workload `runs` times (seeds `base.seed`, `base.seed + 1`, ..) and
/// prints the average.
fn table<N: std::fmt::Display>(
    out: &mut Output,
    title: &str,
    base: &SensitivityParams,
    runs: u64,
    rows: &[(N, RwLeConfig)],
) {
    out.header();
    for (name, cfg) in rows {
        let results: Vec<_> = (0..runs)
            .map(|r| {
                let p = SensitivityParams {
                    seed: base.seed + r,
                    ..base.clone()
                };
                run_sensitivity_with(&p, &|alloc, max_threads| {
                    Scheme::build_rwle(alloc, max_threads, *cfg).expect("lock allocation")
                })
            })
            .collect();
        let (secs, tput, summary) = average(&results);
        if out.mode() == OutputMode::Text {
            println!("--- {name}");
        }
        out.tag(format!("{title} — {name}"));
        out.row(
            base.scheme,
            base.threads,
            base.write_pct,
            secs,
            tput,
            &summary,
        );
    }
}

fn main() {
    let args = Args::parse();
    args.expect_only(FLAGS, USAGE);
    let base = SensitivityParams {
        scheme: SchemeKind::RwLeOpt, // the row label; `table` builds the lock
        scenario: Scenario::HcHc,
        write_pct: args.get_or("writes", 10),
        threads: args.get_or("threads", 4),
        ops_per_thread: args.get_or("ops", 300),
        seed: args.get_or("seed", 42),
        smt_group_size: 1,
    };
    let runs: u64 = args.get_or("runs", 1);
    let mut out = Output::from_args(&args);

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
    table(&mut out, "§3.3 variants", &base, runs, &variants);

    // The paper's conclusion argues other vendors should adopt POWER8's
    // suspend/resume and ROTs. Quantify what each feature buys RW-LE:
    // without suspend/resume the delayed-commit trick is impossible for
    // regular transactions (writers lose the HTM path → PES); without
    // ROTs capacity-hostile writers land on the global lock; without
    // both, every writer serializes.
    out.gap();
    out.section("Hardware-feature ablation (what suspend/resume and ROTs buy)");
    let features = [
        ("both features (OPT)", RwLeConfig::opt()),
        ("no suspend/resume (→ROT only)", RwLeConfig::pes()),
        ("no ROTs (→HTM+NS)", RwLeConfig::htm_only()),
        ("neither (→NS only)", RwLeConfig::opt().with_retries(0, 0)),
    ];
    table(
        &mut out,
        "Hardware-feature ablation",
        &base,
        runs,
        &features,
    );

    out.gap();
    out.section("Retry-budget sweep (the paper settled on 5/5)");
    let sweep = [1u32, 2, 5, 10, 20]
        .map(|b| (format!("retries={b}"), RwLeConfig::opt().with_retries(b, b)));
    table(&mut out, "Retry-budget sweep", &base, runs, &sweep);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_names_every_accepted_flag() {
        assert_eq!(Args::undocumented(FLAGS, USAGE), None);
    }
}
