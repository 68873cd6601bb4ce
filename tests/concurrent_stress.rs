//! Concurrency stress tests: invariants that must hold under every RW-LE
//! variant when readers and writers hammer shared structures.

use std::sync::Arc;

use hrwle::htm::{HtmConfig, HtmRuntime};
use hrwle::rwle::{RwLe, RwLeConfig};
use hrwle::simmem::{SharedMem, SimAlloc};
use hrwle::workloads::driver::run_threads;

/// Writers move value between two accounts; the total is invariant.
/// Readers must always observe the exact total — the canonical torn-read
/// detector for delayed-commit schemes.
fn bank_transfer_invariant(cfg: RwLeConfig, htm_cfg: HtmConfig) {
    const TOTAL: u64 = 1_000;
    const WRITERS: usize = 2;
    const READERS: usize = 3;
    const OPS: u64 = 150;

    let mem = Arc::new(SharedMem::new_lines(512));
    let rt = HtmRuntime::new(Arc::clone(&mem), htm_cfg);
    let alloc = SimAlloc::new(Arc::clone(&mem));
    let rwle = Arc::new(RwLe::new(&alloc, WRITERS + READERS + 1, cfg).unwrap());
    // Accounts on distinct cache lines.
    let a = alloc.alloc(1).unwrap();
    let b = alloc.alloc(1).unwrap();
    mem.store(a, TOTAL);

    run_threads(&rt, WRITERS + READERS, |t, ctx, st| {
        if t < WRITERS {
            for i in 0..OPS {
                let amount = (t as u64 * 13 + i) % 7 + 1;
                rwle.write_cs(ctx, st, &mut |acc| {
                    let va = acc.read(a)?;
                    let vb = acc.read(b)?;
                    if va >= amount {
                        acc.write(a, va - amount)?;
                        acc.write(b, vb + amount)?;
                    } else {
                        acc.write(b, vb - amount)?;
                        acc.write(a, va + amount)?;
                    }
                    Ok(())
                });
            }
        } else {
            for _ in 0..OPS * 2 {
                let total = rwle.read_cs(ctx, st, &mut |acc| Ok(acc.read(a)? + acc.read(b)?));
                assert_eq!(total, TOTAL, "reader saw money created/destroyed");
            }
        }
    });
    assert_eq!(mem.load(a) + mem.load(b), TOTAL);
}

#[test]
fn bank_invariant_opt() {
    bank_transfer_invariant(RwLeConfig::opt(), HtmConfig::default());
}

#[test]
fn bank_invariant_pes() {
    bank_transfer_invariant(RwLeConfig::pes(), HtmConfig::default());
}

#[test]
fn bank_invariant_htm_only() {
    bank_transfer_invariant(RwLeConfig::htm_only(), HtmConfig::default());
}

#[test]
fn bank_invariant_fair() {
    bank_transfer_invariant(RwLeConfig::fair_htm_only(), HtmConfig::default());
}

#[test]
fn bank_invariant_under_interrupt_pressure() {
    // Transient interrupts force heavy use of the fallback paths.
    bank_transfer_invariant(
        RwLeConfig::opt(),
        HtmConfig::default().with_page_faults(0.02),
    );
}

#[test]
fn bank_invariant_with_tiny_capacity() {
    // Write capacity of 1 line pushes everything through ROT/NS paths.
    bank_transfer_invariant(
        RwLeConfig::opt(),
        HtmConfig {
            htm_read_capacity: 2,
            htm_write_capacity: 1,
            rot_write_capacity: 1,
            ..HtmConfig::default()
        },
    );
}

/// Many threads, per-thread counters plus a shared counter: written totals
/// must add up exactly under the full PATH policy.
#[test]
fn sum_conservation_with_many_threads() {
    const THREADS: usize = 8;
    const OPS: u64 = 120;
    let mem = Arc::new(SharedMem::new_lines(1024));
    let rt = HtmRuntime::new(Arc::clone(&mem), HtmConfig::default());
    let alloc = SimAlloc::new(Arc::clone(&mem));
    let rwle = Arc::new(RwLe::new(&alloc, THREADS + 1, RwLeConfig::opt()).unwrap());
    let shared = alloc.alloc(1).unwrap();
    let per_thread = alloc.alloc(8 * THREADS as u32).unwrap();

    run_threads(&rt, THREADS, |t, ctx, st| {
        let mine = per_thread.offset(8 * t as u32);
        for _ in 0..OPS {
            rwle.write_cs(ctx, st, &mut |acc| {
                let v = acc.read(shared)?;
                acc.write(shared, v + 1)?;
                let m = acc.read(mine)?;
                acc.write(mine, m + 1)?;
                Ok(())
            });
        }
    });
    assert_eq!(mem.load(shared), THREADS as u64 * OPS);
    for t in 0..THREADS {
        assert_eq!(mem.load(per_thread.offset(8 * t as u32)), OPS);
    }
}
