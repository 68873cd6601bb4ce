//! Criterion micro-benchmarks of the synchronization primitives.
//!
//! These quantify the paper's core cost argument: RW-LE's uninstrumented
//! read entry (two clock stores + one lock check) versus a full HTM
//! begin/commit pair, and the relative costs of the HTM, ROT and
//! non-speculative write paths.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};

use htm::{HtmConfig, HtmRuntime, TxMode};
use locks::{BrLock, PthreadRwLock, SpinMutex};
use rwle::{RwLe, RwLeConfig};
use simmem::{SharedMem, SimAlloc};
use stats::ThreadStats;

fn bench_read_side(c: &mut Criterion) {
    let mem = Arc::new(SharedMem::new_lines(1024));
    let rt = HtmRuntime::new(Arc::clone(&mem), HtmConfig::default());
    let alloc = SimAlloc::new(Arc::clone(&mem));
    let rwle = RwLe::new(&alloc, 4, RwLeConfig::opt()).unwrap();
    let hle = hle::Hle::new(alloc.alloc(1).unwrap());
    let data = alloc.alloc(1).unwrap();
    let mut ctx = rt.register();
    let mut st = ThreadStats::new();

    let mut g = c.benchmark_group("read_side");
    g.bench_function("rwle_uninstrumented_read_cs", |b| {
        b.iter(|| rwle.read_cs(&mut ctx, &mut st, &mut |acc| acc.read(data)))
    });
    g.bench_function("hle_htm_read_cs", |b| {
        b.iter(|| hle.execute(&mut ctx, &mut st, &mut |acc| acc.read(data)))
    });
    g.bench_function("raw_nt_read", |b| b.iter(|| ctx.read_nt(data)));
    g.finish();
}

fn bench_write_paths(c: &mut Criterion) {
    let mem = Arc::new(SharedMem::new_lines(1024));
    let rt = HtmRuntime::new(Arc::clone(&mem), HtmConfig::default());
    let alloc = SimAlloc::new(Arc::clone(&mem));
    let opt = RwLe::new(&alloc, 4, RwLeConfig::opt()).unwrap();
    let pes = RwLe::new(&alloc, 4, RwLeConfig::pes()).unwrap();
    let ns_only = RwLe::new(&alloc, 4, RwLeConfig::opt().with_retries(0, 0)).unwrap();
    let data = alloc.alloc(1).unwrap();
    let mut ctx = rt.register();
    let mut st = ThreadStats::new();

    let mut g = c.benchmark_group("write_paths");
    g.bench_function("rwle_htm_write_cs", |b| {
        b.iter(|| {
            opt.write_cs(&mut ctx, &mut st, &mut |acc| {
                let v = acc.read(data)?;
                acc.write(data, v + 1)
            })
        })
    });
    g.bench_function("rwle_rot_write_cs", |b| {
        b.iter(|| {
            pes.write_cs(&mut ctx, &mut st, &mut |acc| {
                let v = acc.read(data)?;
                acc.write(data, v + 1)
            })
        })
    });
    g.bench_function("rwle_ns_write_cs", |b| {
        b.iter(|| {
            ns_only.write_cs(&mut ctx, &mut st, &mut |acc| {
                let v = acc.read(data)?;
                acc.write(data, v + 1)
            })
        })
    });
    g.finish();
}

fn bench_htm_engine(c: &mut Criterion) {
    let mem = Arc::new(SharedMem::new_lines(4096));
    let rt = HtmRuntime::new(Arc::clone(&mem), HtmConfig::default());
    let mut ctx = rt.register();

    let mut g = c.benchmark_group("htm_engine");
    g.bench_function("htm_begin_commit_empty", |b| {
        b.iter(|| ctx.begin(TxMode::Htm).commit().unwrap())
    });
    g.bench_function("rot_begin_commit_empty", |b| {
        b.iter(|| ctx.begin(TxMode::Rot).commit().unwrap())
    });
    g.bench_function("htm_1r1w_commit", |b| {
        b.iter(|| {
            let mut tx = ctx.begin(TxMode::Htm);
            let v = tx.read(simmem::Addr(0)).unwrap();
            tx.write(simmem::Addr(0), v + 1).unwrap();
            tx.commit().unwrap();
        })
    });
    g.bench_function("htm_32line_read_commit", |b| {
        b.iter(|| {
            let mut tx = ctx.begin(TxMode::Htm);
            for i in 0..32u32 {
                tx.read(simmem::Addr(i * 8)).unwrap();
            }
            tx.commit().unwrap();
        })
    });
    g.finish();
}

fn bench_sched_gate(c: &mut Criterion) {
    // No schedule exploration runs in a bench process, so the gate is
    // closed: `step()` must reduce to one relaxed load and a not-taken
    // branch. `step_via_tls` is the pre-gate implementation (TLS lookup +
    // RefCell borrow on every call), kept public for this comparison —
    // the fast-path overhaul claims a ≥10× gap between the two.
    // `noop_baseline` measures the harness loop itself; subtract it from
    // both step variants before comparing their per-call costs.
    let mut g = c.benchmark_group("sched_gate");
    g.bench_function("noop_baseline", |b| b.iter(|| ()));
    g.bench_function("step_gated_inactive", |b| b.iter(sched::step));
    g.bench_function("step_tls_refcell", |b| b.iter(sched::step_via_tls));
    g.finish();
}

fn bench_tx_access_cache(c: &mut Criterion) {
    // The last-granule ownership cache: a repeat read of the line just
    // read skips the read-set probe, reader-bit republication and
    // writer resolution, paying only the relaxed doom pre-check. The
    // miss case alternates two lines so the cache never matches (both
    // lines stay tracked, so this isolates the cache itself, not
    // first-touch tracking).
    let mem = Arc::new(SharedMem::new_lines(1024));
    let rt = HtmRuntime::new(Arc::clone(&mem), HtmConfig::default());
    let mut ctx = rt.register();
    let line_a = simmem::Addr(0);
    let line_b = simmem::Addr(64);

    let mut g = c.benchmark_group("tx_access_cache");
    g.bench_function("read_hit_same_line", |b| {
        let mut tx = ctx.begin(TxMode::Htm);
        tx.read(line_a).unwrap();
        b.iter(|| tx.read(line_a).unwrap());
        drop(tx);
    });
    g.bench_function("read_miss_alternating_lines", |b| {
        let mut tx = ctx.begin(TxMode::Htm);
        tx.read(line_a).unwrap();
        tx.read(line_b).unwrap();
        let mut flip = false;
        b.iter(|| {
            flip = !flip;
            tx.read(if flip { line_b } else { line_a }).unwrap()
        });
        drop(tx);
    });
    g.bench_function("write_hit_same_line", |b| {
        let mut tx = ctx.begin(TxMode::Htm);
        tx.write(line_a, 1).unwrap();
        b.iter(|| tx.write(line_a, 2).unwrap());
        drop(tx);
    });
    g.finish();
}

fn bench_quiescence(c: &mut Criterion) {
    let mut g = c.benchmark_group("quiescence");
    for n in [8usize, 32, 128] {
        let epochs = epoch::EpochSet::new(n);
        g.bench_function(format!("synchronize_idle_{n}_threads"), |b| {
            b.iter(|| epochs.synchronize(Some(0)))
        });
        let mut snap = Vec::new();
        g.bench_function(format!("synchronize_in_idle_{n}_threads"), |b| {
            b.iter(|| epochs.synchronize_in(Some(0), &mut snap))
        });
    }
    let epochs = epoch::EpochSet::new(16);
    g.bench_function("enter_exit_pair", |b| {
        b.iter(|| {
            epochs.enter(3);
            epochs.exit(3);
        })
    });
    g.finish();
}

fn bench_barrier_scaling(c: &mut Criterion) {
    // The scalable-quiescence claim: barrier cost tracks *active
    // readers*, not registered threads. An idle barrier at any thread
    // count reduces to the root summary word (sticky-empty → one load)
    // plus grace-sequence bookkeeping, so the `total` series should be
    // ~flat from 8 to 1024 slots; the `active` series walks exactly the
    // k marked readers out of 1024 slots, so it should grow with k.
    let mut g = c.benchmark_group("barrier_scaling");
    for n in [8usize, 128, 1024] {
        let epochs = epoch::EpochSet::new(n);
        let mut snap = Vec::new();
        g.bench_function(format!("synchronize_idle_total_{n}"), |b| {
            b.iter(|| epochs.synchronize_in(Some(0), &mut snap))
        });
    }
    for k in [0usize, 4, 64, 512] {
        let epochs = epoch::EpochSet::new(1024);
        for tid in 1..=k {
            epochs.enter(tid);
        }
        // The summary scan alone (no waiting): the wait-set pass visits
        // exactly the k active readers.
        let mut buf = Vec::new();
        g.bench_function(format!("scan_active_{k}_of_1024"), |b| {
            b.iter(|| epochs.fair_wait_set_in(Some(0), 1, &mut buf))
        });
    }
    g.finish();
}

fn bench_locks(c: &mut Criterion) {
    let mut g = c.benchmark_group("locks_uncontended");
    let spin = SpinMutex::new();
    g.bench_function("spin_mutex", |b| b.iter(|| drop(spin.lock())));
    let rwl = PthreadRwLock::new();
    g.bench_function("pthread_rwlock_read", |b| b.iter(|| drop(rwl.read_lock())));
    g.bench_function("pthread_rwlock_write", |b| {
        b.iter(|| drop(rwl.write_lock()))
    });
    let br = BrLock::new(16);
    g.bench_function("brlock_read", |b| b.iter(|| drop(br.read_lock(0))));
    g.bench_function("brlock_write_16_slots", |b| {
        b.iter(|| drop(br.write_lock()))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_read_side,
    bench_write_paths,
    bench_htm_engine,
    bench_sched_gate,
    bench_tx_access_cache,
    bench_quiescence,
    bench_barrier_scaling,
    bench_locks
);
criterion_main!(benches);
