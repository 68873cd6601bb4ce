//! `apply_batch` without sockets: the native backend's publication
//! cycle against the single-global-lock canary, with nothing else in
//! the way (ROADMAP item 1's missing layer bench).
//!
//! Grid: threads {1, 2, 4} × batch {1, 8, 64} × {native, sgl}. Every
//! worker owns a session and alternates one `apply_batch` of `batch`
//! uniform PUT/DELs over 100k keys (16 shards, the service's layout)
//! with one `get`, so barriers always meet real readers.
//!
//! Harness: the two-barrier start/stop idiom (SNIPPETS.md snippet 3).
//! Workers are spawned once per cell, outside the timing, and park on
//! `start`; one timed iteration releases them, lets each publish
//! [`MUTATIONS`] mutations (`MUTATIONS / batch` batches) and meets them
//! again on `end`. So `ns/iter ÷ 65536` is wall time per mutation per
//! thread, and `threads × 65536 ÷ ns/iter` the aggregate rate; thread
//! start-up never enters a timing.
//!
//! An iteration is long on purpose (tens of milliseconds): whether two
//! writers fall into a lock convoy is decided over thousands of
//! batches, and a short round re-aligns the workers on `start` before
//! one can form — 2048-mutation rounds measured a store that holds
//! every touched shard across its barrier at the speed of one that
//! does not, where steady state has it 3× slower (EXPERIMENTS.md,
//! "Native publication, one shard at a time").

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use workloads::backend::{MutOp, StoreBackend};
use workloads::native::{NativeBackend, SglBackend};

const SHARDS: usize = 16;
const KEYS: u64 = 100_000;
/// Mutations each worker publishes per timed iteration.
const MUTATIONS: usize = 65536;

/// One worker: parks on `start`, publishes its share, meets `end`.
fn worker(
    backend: &dyn StoreBackend,
    seed: u64,
    batch: usize,
    (start, end): (&Barrier, &Barrier),
    stop: &AtomicBool,
) {
    let mut sess = backend.session();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut ops = Vec::with_capacity(batch);
    let mut replies = Vec::with_capacity(batch);
    loop {
        start.wait();
        if stop.load(Ordering::Acquire) {
            return;
        }
        for _ in 0..MUTATIONS / batch {
            ops.clear();
            for _ in 0..batch {
                let key = rng.gen_range(0..KEYS);
                ops.push(if rng.gen_bool(0.5) {
                    MutOp::Put { key, value: key }
                } else {
                    MutOp::Del { key }
                });
            }
            black_box(sess.apply_batch(&ops, &mut replies));
            black_box(sess.get(rng.gen_range(0..KEYS)));
        }
        end.wait();
    }
}

fn bench_native_publish(c: &mut Criterion) {
    let mut g = c.benchmark_group("native_publish");
    for threads in [1usize, 2, 4] {
        for batch in [1usize, 8, 64] {
            for store in ["native", "sgl"] {
                let backend: Box<dyn StoreBackend> = match store {
                    "native" => Box::new(NativeBackend::create(SHARDS, threads, KEYS)),
                    _ => Box::new(SglBackend::create(KEYS)),
                };
                let start = Barrier::new(threads + 1);
                let end = Barrier::new(threads + 1);
                let stop = AtomicBool::new(false);
                std::thread::scope(|s| {
                    for t in 0..threads {
                        let (backend, start, end, stop) = (&*backend, &start, &end, &stop);
                        s.spawn(move || worker(backend, t as u64 + 1, batch, (start, end), stop));
                    }
                    g.bench_function(format!("{store}_t{threads}_b{batch}"), |b| {
                        b.iter(|| {
                            start.wait();
                            end.wait();
                        })
                    });
                    // Release the parked workers into their exit.
                    stop.store(true, Ordering::Release);
                    start.wait();
                });
            }
        }
    }
    g.finish();
}

criterion_group!(benches, bench_native_publish);
criterion_main!(benches);
