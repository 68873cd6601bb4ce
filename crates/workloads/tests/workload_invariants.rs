//! Application-level invariants under concurrency: each workload defines
//! a property that any correct synchronization scheme must preserve, and
//! we hammer it with readers and writers under the schemes that exercise
//! the most speculation (RW-LE OPT/PES and HLE).

use std::sync::Arc;

use htm::{HtmConfig, HtmRuntime};
use simmem::{SharedMem, SimAlloc};
use workloads::driver::run_threads;
use workloads::kyoto::CacheDb;
use workloads::stmbench7::Bench7;
use workloads::tpcc::{Tpcc, TpccScale};
use workloads::{Scheme, SchemeKind};

const SPECULATIVE_SCHEMES: [SchemeKind; 3] =
    [SchemeKind::RwLeOpt, SchemeKind::RwLePes, SchemeKind::Hle];

/// STMBench7: `swap_xy` must preserve each composite part's Σ(x+y); a
/// reader's checksum must always equal the initial one.
#[test]
fn stmbench7_swap_invariant_under_concurrency() {
    for scheme_kind in SPECULATIVE_SCHEMES {
        let mem = Arc::new(SharedMem::new_lines(16 * 1024));
        let rt = HtmRuntime::new(Arc::clone(&mem), HtmConfig::default());
        let alloc = SimAlloc::new(Arc::clone(&mem));
        let scheme = Scheme::build(scheme_kind, &alloc, 8).unwrap();
        let bench = Bench7::build(&alloc, 8, 40).unwrap();

        // Capture baseline checksums single-threadedly.
        let baseline: Vec<u64> = {
            let ctx = rt.register();
            let mut nt = ctx.non_tx();
            (0..8)
                .map(|c| bench.checksum_invariant(&mut nt, c).unwrap())
                .collect()
        };

        run_threads(&rt, 4, |t, ctx, st| {
            if t < 2 {
                for i in 0..80u64 {
                    let c = (t as u32 * 31 + i as u32) % 8;
                    scheme.write_cs(ctx, st, &mut |acc| bench.swap_xy(acc, c, i));
                }
            } else {
                for i in 0..160u64 {
                    let c = (i as u32) % 8;
                    let sum = scheme.read_cs(ctx, st, &mut |acc| bench.checksum_invariant(acc, c));
                    assert_eq!(
                        sum, baseline[c as usize],
                        "{scheme_kind:?}: composite {c} checksum drifted (torn swap)"
                    );
                }
            }
        });
    }
}

/// TPC-C: `payment` debits a customer exactly what it credits the
/// warehouse; per customer, `balance == -ytd_payment` at all times.
#[test]
fn tpcc_payment_conservation_under_concurrency() {
    for scheme_kind in SPECULATIVE_SCHEMES {
        let scale = TpccScale {
            warehouses: 1,
            customers_per_district: 4,
            items: 64,
        };
        let lines = Tpcc::lines_needed(&scale) + 2048;
        let mem = Arc::new(SharedMem::new_lines(lines as u32));
        let rt = HtmRuntime::new(Arc::clone(&mem), HtmConfig::default());
        let alloc = SimAlloc::new(Arc::clone(&mem));
        let scheme = Scheme::build(scheme_kind, &alloc, 8).unwrap();
        let db = Tpcc::build(&alloc, scale).unwrap();

        run_threads(&rt, 4, |t, ctx, st| {
            if t < 2 {
                for i in 0..100u64 {
                    let d = (i % 10) as u32;
                    let c = (i % 4) as u32;
                    let amount = i % 97 + 1;
                    scheme.write_cs(ctx, st, &mut |acc| db.payment(acc, 0, d, c, amount));
                }
            } else {
                for i in 0..200u64 {
                    let d = (i % 10) as u32;
                    let c = (i % 4) as u32;
                    // order_status returns (balance, qty); check the
                    // conservation pair through a dedicated read CS.
                    scheme.read_cs(ctx, st, &mut |acc| {
                        let (balance, _) = db.order_status(acc, 0, d, c)?;
                        // balance is 0 - ytd_payment in wrapping arithmetic;
                        // recompute ytd via a second read of the pair is
                        // not exposed, so check wrap-consistency instead:
                        // balances only ever decrease (wrapping), so the
                        // high bit pattern must be 0 or a wrapped debit.
                        let as_debit = 0u64.wrapping_sub(balance);
                        assert!(
                            as_debit < 1_000_000,
                            "{scheme_kind:?}: implausible balance {balance}"
                        );
                        Ok(())
                    });
                }
            }
        });

        // Quiescent check: every committed payment debited some customer,
        // and all 200 write operations completed exactly once, so the
        // total debit equals the deterministic sum of the amounts above.
        let ctx = rt.register();
        let mut nt = ctx.non_tx();
        let mut debit_sum = 0u64;
        for d in 0..10 {
            for c in 0..4 {
                let (balance, _) = db.order_status(&mut nt, 0, d, c).unwrap();
                debit_sum = debit_sum.wrapping_add(0u64.wrapping_sub(balance));
            }
        }
        let expected: u64 = 2 * (0..100u64).map(|i| i % 97 + 1).sum::<u64>();
        assert_eq!(
            debit_sum, expected,
            "lost or duplicated payments under {scheme_kind:?}"
        );
    }
}

/// Kyoto: values always equal their key; concurrent get/set/remove plus
/// whole-DB write operations must never surface a foreign value.
#[test]
fn kyoto_value_integrity_under_concurrency() {
    for scheme_kind in SPECULATIVE_SCHEMES {
        let mem = Arc::new(SharedMem::new_lines(32 * 1024));
        let rt = HtmRuntime::new(Arc::clone(&mem), HtmConfig::default());
        let alloc = SimAlloc::new(Arc::clone(&mem));
        let scheme = Scheme::build(scheme_kind, &alloc, 8).unwrap();
        let db = CacheDb::create(&alloc, 4, 16).unwrap();
        {
            let ctx = rt.register();
            let mut nt = ctx.non_tx();
            for k in 0..256u64 {
                let node = db.make_node(&alloc, k, k).unwrap();
                db.set(&mut nt, node).unwrap();
            }
        }

        run_threads(&rt, 4, |t, ctx, st| {
            if t == 0 {
                // Whole-DB maintenance under the outer write lock.
                for _ in 0..30 {
                    scheme.write_cs(ctx, st, &mut |acc| db.touch_all_slots(acc));
                }
            } else if t == 1 {
                let alloc = &alloc;
                for i in 0..120u64 {
                    let k = (i * 13) % 512;
                    if i % 3 == 0 {
                        let _ = scheme.read_cs(ctx, st, &mut |acc| db.remove(acc, k));
                    } else {
                        let node = db.make_node(alloc, k, k).unwrap();
                        let _ = scheme.read_cs(ctx, st, &mut |acc| db.set(acc, node));
                    }
                }
            } else {
                for i in 0..240u64 {
                    let k = (i * 7 + t as u64) % 512;
                    let v = scheme.read_cs(ctx, st, &mut |acc| db.get(acc, k));
                    if let Some(v) = v {
                        assert_eq!(v, k, "{scheme_kind:?}: key {k} maps to foreign value {v}");
                    }
                }
            }
        });

        let ctx = rt.register();
        let mut nt = ctx.non_tx();
        let n = db.count(&mut nt).unwrap();
        assert!(
            n >= 1,
            "database emptied unexpectedly under {scheme_kind:?}"
        );
    }
}
