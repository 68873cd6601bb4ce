//! Cross-scheme integration tests: every synchronization scheme must
//! produce the same observable results on the same workload.

use workloads::driver::{
    run_kyoto, run_sensitivity, run_stmbench7, run_tpcc, Bench7Params, KyotoParams, Scenario,
    SensitivityParams, TpccParams,
};
use workloads::tpcc::TpccScale;
use workloads::SchemeKind;

const ALL_SCHEMES: [SchemeKind; 10] = [
    SchemeKind::RwLeOpt,
    SchemeKind::RwLePes,
    SchemeKind::RwLeHtmOnly,
    SchemeKind::RwLeFair,
    SchemeKind::Hle,
    SchemeKind::ScmHle,
    SchemeKind::AdaptiveHle,
    SchemeKind::BrLock,
    SchemeKind::Rwl,
    SchemeKind::Sgl,
];

#[test]
fn sensitivity_completes_under_all_schemes_and_scenarios() {
    for scenario in [Scenario::HcHc, Scenario::LcHc] {
        for scheme in ALL_SCHEMES {
            let r = run_sensitivity(&SensitivityParams {
                scheme,
                scenario,
                write_pct: 30,
                threads: 3,
                ops_per_thread: 40,
                seed: 21,
                smt_group_size: 1,
            });
            assert_eq!(r.summary.ops, 120, "ops lost under {scheme:?}/{scenario:?}");
            assert_eq!(r.threads, 3);
            assert!(r.throughput() > 0.0);
        }
    }
}

#[test]
fn stmbench7_completes_under_all_schemes() {
    for scheme in ALL_SCHEMES {
        let r = run_stmbench7(&Bench7Params {
            scheme,
            write_pct: 30,
            threads: 2,
            ops_per_thread: 25,
            n_composite: 10,
            parts_per_composite: 60,
            seed: 22,
        });
        assert_eq!(r.summary.ops, 50, "ops lost under {scheme:?}");
    }
}

#[test]
fn kyoto_completes_under_all_schemes() {
    for scheme in ALL_SCHEMES {
        let r = run_kyoto(&KyotoParams {
            scheme,
            write_permille: 100,
            threads: 2,
            ops_per_thread: 50,
            n_slots: 4,
            buckets_per_slot: 8,
            initial_items: 128,
            seed: 23,
        });
        assert_eq!(r.summary.ops, 100, "ops lost under {scheme:?}");
    }
}

#[test]
fn tpcc_completes_under_all_schemes() {
    for scheme in ALL_SCHEMES {
        let r = run_tpcc(&TpccParams {
            scheme,
            write_pct: 30,
            threads: 2,
            ops_per_thread: 40,
            scale: TpccScale {
                warehouses: 1,
                customers_per_district: 10,
                items: 100,
            },
            seed: 24,
        });
        assert_eq!(r.summary.ops, 80, "ops lost under {scheme:?}");
    }
}

#[test]
fn rwle_commit_paths_match_variant_semantics() {
    // OPT must use HTM and/or ROT; PES must never commit writers in HTM.
    let opt = run_sensitivity(&SensitivityParams {
        scheme: SchemeKind::RwLeOpt,
        scenario: Scenario::LcHc,
        write_pct: 50,
        threads: 2,
        ops_per_thread: 100,
        seed: 25,
        smt_group_size: 1,
    });
    assert!(opt.summary.commits(stats::CommitKind::Htm) > 0);

    let pes = run_sensitivity(&SensitivityParams {
        scheme: SchemeKind::RwLePes,
        scenario: Scenario::LcHc,
        write_pct: 50,
        threads: 2,
        ops_per_thread: 100,
        seed: 25,
        smt_group_size: 1,
    });
    assert_eq!(pes.summary.commits(stats::CommitKind::Htm), 0);
    assert!(pes.summary.commits(stats::CommitKind::Rot) > 0);

    // Both run all reads uninstrumented.
    for r in [&opt, &pes] {
        assert!(r.summary.commits(stats::CommitKind::Uninstrumented) > 0);
    }
}

#[test]
fn hle_never_reports_uninstrumented_commits() {
    let r = run_sensitivity(&SensitivityParams {
        scheme: SchemeKind::Hle,
        scenario: Scenario::LcHc,
        write_pct: 10,
        threads: 2,
        ops_per_thread: 100,
        seed: 26,
        smt_group_size: 1,
    });
    assert_eq!(
        r.summary.commits(stats::CommitKind::Uninstrumented),
        0,
        "classic HLE instruments every critical section"
    );
    assert_eq!(r.summary.commits(stats::CommitKind::Rot), 0);
}
