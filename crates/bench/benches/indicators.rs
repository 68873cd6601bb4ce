//! Criterion micro-benchmarks of the read-side indicator layer.
//!
//! Two groups:
//!
//! * `fallback_read` — single-thread cost of one NS-only `read_cs` with
//!   and without the indicator.
//! * `brlock_padding` — the satellite check for the cache-line padding of
//!   `locks::BrLock`: contended per-slot read acquisition on the padded
//!   lock versus an unpadded `Box<[SpinMutex]>` that packs 64 one-byte
//!   slots into a single line, so every acquisition false-shares with its
//!   neighbours.
//!
//! Each timed `brlock_padding` iteration spawns a thread scope and runs a
//! fixed batch of acquisitions per thread; the batch amortizes the spawn
//! cost, and the same harness shape is used for both variants so the
//! comparison is fair even though the absolute numbers include scope
//! setup.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};

use htm::{HtmConfig, HtmRuntime};
use locks::{BrLock, SpinMutex};
use rind::IndicatorKind;
use rwle::{RwLe, RwLeConfig};
use simmem::{SharedMem, SimAlloc};
use stats::ThreadStats;

/// Read acquisitions per thread per timed iteration.
const OPS: usize = 64;

/// The pre-padding `BrLock` layout: one-byte spin slots packed densely,
/// so up to 64 of them share a cache line.
struct UnpaddedBrSlots {
    per_thread: Box<[SpinMutex]>,
}

impl UnpaddedBrSlots {
    fn new(n: usize) -> Self {
        UnpaddedBrSlots {
            per_thread: (0..n).map(|_| SpinMutex::new()).collect(),
        }
    }

    fn read_lock(&self, tid: usize) -> locks::SpinGuard<'_> {
        self.per_thread[tid].lock()
    }
}

/// Single-thread cost of one fallback (NS-only) `read_cs` with and
/// without the indicator: the per-acquisition price with zero
/// contention. The BRAVO row should sit well below the central row — it
/// replaces the epoch enter/exit pair and the lock-word check with one
/// slot CAS and a bias re-check.
fn bench_fallback_read(c: &mut Criterion) {
    let mut g = c.benchmark_group("fallback_read");
    for kind in [IndicatorKind::Central, IndicatorKind::Bravo] {
        let mem = Arc::new(SharedMem::new_lines(64));
        let rt = HtmRuntime::new(Arc::clone(&mem), HtmConfig::default());
        let alloc = SimAlloc::new(Arc::clone(&mem));
        let rwle = RwLe::new(&alloc, 4, RwLeConfig::fallback_only(kind)).unwrap();
        let data = alloc.alloc(1).unwrap();
        let mut ctx = rt.register();
        let mut st = ThreadStats::new();
        g.bench_function(format!("read_cs_{}", kind.label()), |b| {
            b.iter(|| rwle.read_cs(&mut ctx, &mut st, &mut |acc| acc.read(data)))
        });
    }
    g.finish();
}

fn bench_brlock_padding(c: &mut Criterion) {
    const THREADS: usize = 8;
    let mut g = c.benchmark_group("brlock_padding");

    let padded = BrLock::new(THREADS);
    g.bench_function(format!("padded_read_{THREADS}_threads"), |b| {
        b.iter(|| {
            std::thread::scope(|s| {
                for tid in 0..THREADS {
                    let padded = &padded;
                    s.spawn(move || {
                        for _ in 0..OPS {
                            criterion::black_box(padded.read_lock(tid));
                        }
                    });
                }
            })
        })
    });

    let packed = UnpaddedBrSlots::new(THREADS);
    g.bench_function(format!("unpadded_read_{THREADS}_threads"), |b| {
        b.iter(|| {
            std::thread::scope(|s| {
                for tid in 0..THREADS {
                    let packed = &packed;
                    s.spawn(move || {
                        for _ in 0..OPS {
                            criterion::black_box(packed.read_lock(tid));
                        }
                    });
                }
            })
        })
    });

    g.finish();
}

criterion_group!(benches, bench_fallback_read, bench_brlock_padding);
criterion_main!(benches);
