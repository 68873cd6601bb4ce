//! The simulated store without sockets: what one session pays for a
//! `get`, a `scan` of 64 and a `put` on the `svc-sim` workload's store
//! (`native_read` is the native store's sibling).
//!
//! 100 k keys over 16 shards under RW-LE_OPT with `rwled`'s 400 k extra
//! capacity, one thread, uniform keys. Two bucket counts per shard:
//! `b1024` (the frozen `benchmark/` layer replay's count, ~6 keys per
//! chain at the prefill) and `derived` (`sharded::buckets_per_shard`,
//! what `rwled` builds: 8192, under one key per chain).
//!
//! One iteration is [`OPS`] keys, pairs or writes, so `ns/iter ÷ 65536`
//! is ns per looked-up key (`get`), per scanned key (`scan_64`: 1024
//! scans of 64, all present; × 64 for one scan) and per `put` (an
//! update of a present key: a one-op batch, so one write section, one
//! thread, so no reader to wait for; its node comes from the arena and
//! goes back to it).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use workloads::backend::{SimBackend, StoreBackend};
use workloads::sharded::buckets_per_shard;
use workloads::SchemeKind;

const SHARDS: usize = 16;
const KEYS: u64 = 100_000;
const EXTRA_CAPACITY: u64 = 400_000;
/// Keys, pairs or writes per timed iteration.
const OPS: usize = 65536;
const SCAN: u32 = 64;

fn bench_sim_store(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_store");
    for (name, buckets) in [
        ("b1024", 1024),
        ("derived", buckets_per_shard(KEYS, SHARDS)),
    ] {
        let backend = SimBackend::create(
            SchemeKind::RwLeOpt,
            SHARDS,
            buckets,
            KEYS,
            EXTRA_CAPACITY,
            1,
            1,
        )
        .expect("the svc-sim store fits the simulated address space");
        let mut sess = backend.session();
        let mut rng = SmallRng::seed_from_u64(1);

        g.bench_function(format!("{name}_get"), |b| {
            b.iter(|| {
                for _ in 0..OPS {
                    black_box(sess.get(rng.gen_range(0..KEYS)));
                }
            })
        });
        let mut pairs = Vec::with_capacity(SCAN as usize);
        g.bench_function(format!("{name}_scan_{SCAN}"), |b| {
            b.iter(|| {
                for _ in 0..OPS / SCAN as usize {
                    pairs.clear();
                    sess.scan(rng.gen_range(0..KEYS - u64::from(SCAN)), SCAN, &mut pairs);
                    black_box(&pairs);
                }
            })
        });
        g.bench_function(format!("{name}_put"), |b| {
            b.iter(|| {
                for _ in 0..OPS {
                    let key = rng.gen_range(0..KEYS);
                    black_box(sess.put(key, key)).expect("an update's node goes back");
                }
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_sim_store);
criterion_main!(benches);
