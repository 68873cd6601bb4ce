//! The store's read path without sockets: what one session pays for a
//! `get`, for a `get_many` run, for a `scan` and for one mutation when
//! the keys do not fit the cache (ROADMAP item 6's layer bench;
//! `native_publish` is its write-side sibling).
//!
//! 4 M keys, the `svc-read` workload's store, one thread, uniform keys.
//! Three stores: `native` (16 shards of one copy-on-write map each, the
//! service's layout), `sgl` (the canary: one map behind one mutex,
//! changed in place) and `native1` (one shard, so one 4 M-key map — the
//! canary's map under the native writer; its `apply` row against
//! `native`'s 250 k-key shards shows whether a mutation's cost grows
//! with the map).
//!
//! One iteration is [`OPS`] keys, pairs or mutations, so
//! `ns/iter ÷ 65536` is ns per looked-up key (`get`, `get_many_*`), per
//! returned pair (`scan_64`: 64 scans of 64; × 64 for one scan) and per
//! mutation (`apply`: `apply_batch` of one PUT or DEL — lock, path copy,
//! flip, barrier with no reader in the way, free).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use workloads::backend::{MutOp, StoreBackend};
use workloads::native::{NativeBackend, SglBackend};

const SHARDS: usize = 16;
const KEYS: u64 = 4_000_000;
/// Keys, pairs or mutations per timed iteration.
const OPS: usize = 65536;
const SCAN: u32 = 64;

fn bench_native_read(c: &mut Criterion) {
    let mut g = c.benchmark_group("native_read");
    for store in ["native", "sgl", "native1"] {
        // One store alive at a time: each is 70–150 MiB.
        let backend: Box<dyn StoreBackend> = match store {
            "native" => Box::new(NativeBackend::create(SHARDS, 1, KEYS)),
            "native1" => Box::new(NativeBackend::create(1, 1, KEYS)),
            _ => Box::new(SglBackend::create(KEYS)),
        };
        let mut sess = backend.session();
        let mut rng = SmallRng::seed_from_u64(1);

        g.bench_function(format!("{store}_get"), |b| {
            b.iter(|| {
                for _ in 0..OPS {
                    black_box(sess.get(rng.gen_range(0..KEYS)));
                }
            })
        });
        for run in [4usize, 8, 32] {
            let mut keys = vec![0; run];
            let mut found = Vec::with_capacity(run);
            g.bench_function(format!("{store}_get_many_{run}"), |b| {
                b.iter(|| {
                    for _ in 0..OPS / run {
                        keys.fill_with(|| rng.gen_range(0..KEYS));
                        found.clear();
                        sess.get_many(&keys, &mut found);
                        black_box(&found);
                    }
                })
            });
        }
        let mut pairs = Vec::with_capacity(SCAN as usize);
        g.bench_function(format!("{store}_scan_{SCAN}"), |b| {
            b.iter(|| {
                for _ in 0..OPS / SCAN as usize {
                    pairs.clear();
                    sess.scan(rng.gen_range(0..KEYS), SCAN, &mut pairs);
                    black_box(&pairs);
                }
            })
        });
        let mut replies = Vec::with_capacity(1);
        g.bench_function(format!("{store}_apply"), |b| {
            b.iter(|| {
                for _ in 0..OPS {
                    let key = rng.gen_range(0..KEYS);
                    let op = if rng.gen_bool(0.5) {
                        MutOp::Put { key, value: key }
                    } else {
                        MutOp::Del { key }
                    };
                    black_box(sess.apply_batch(&[op], &mut replies));
                }
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_native_read);
criterion_main!(benches);
