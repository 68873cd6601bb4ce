//! A sharded key-value store over [`SimHashMap`], one elided read-write
//! lock per shard.
//!
//! The service layer (`crates/svc`) routes every request through this
//! wrapper: sharding multiplies the number of independent RW-LE instances
//! so concurrent connections exercise many quiescence barriers at once
//! instead of serializing on a single lock's writer path, while each
//! shard individually still runs the full paper protocol (uninstrumented
//! readers, speculative writers, grace-period barriers). A batch's
//! mutations of one shard are one writer: one write section over the
//! group's write set, one quiescence barrier ([`ShardedKv::write_batch`]).
//!
//! Keys are laid out as on the native store (`backend::shard_index`):
//! blocks of 64 consecutive keys dealt round-robin over the shards, so a
//! SCAN of 64 reads one or two shards, a run of consecutive keys on
//! each. Inside its shard a key is filed under its rank among the
//! shard's keys (`rank`), so a shard's keys are dense from 0 and
//! [`SimHashMap`]'s `key % buckets` deals them round-robin over the
//! buckets. Filed under the key itself, a shard's 64 of every
//! `64 × shards` consecutive keys would crowd into one bucket in
//! `shards`.
//!
//! The service sizes each shard's bucket array from the prefill
//! ([`buckets_per_shard`]): about one key per chain, so a lookup reads
//! one or two nodes. The §4.1 figures, whose chain length *is* the
//! experiment, build their own [`SimHashMap`]s.

use htm::ThreadCtx;
use simmem::{Addr, AllocError, SimAlloc};
use stats::ThreadStats;

use crate::backend::{
    covered_shards, group_by_shard, scan_keys, shard_index, MutOp, MutReply, StoreFull, BLOCK_BITS,
};
use crate::hashmap::{SimHashMap, NODE_WORDS};
use crate::scheme::{Scheme, SchemeKind};

/// A key's offset in its block.
const BLOCK_MASK: u64 = (1 << BLOCK_BITS) - 1;

/// Buckets per shard for a store that starts with `prefill` keys over
/// `shards` (≥ 1) shards: each shard's share rounded up to a power of
/// two, so at the prefill a chain holds more than ½ and at most 1 key on
/// average, and one bucket when there are more shards than keys. A share
/// beyond 2^31 gets 2^31 buckets, which no simulated address space
/// holds, so the store build refuses it.
pub fn buckets_per_shard(prefill: u64, shards: usize) -> u32 {
    prefill
        .div_ceil(shards as u64)
        .checked_next_power_of_two()
        .and_then(|b| u32::try_from(b).ok())
        .unwrap_or(1 << 31)
}

/// The key that `key`'s shard (of `n_shards`) files it under: its
/// block's rank among the shard's blocks, then its offset in the block.
/// One shard's keys map one-to-one and in order onto `0..`.
#[inline]
fn rank(key: u64, n_shards: usize) -> u64 {
    (((key >> BLOCK_BITS) / n_shards as u64) << BLOCK_BITS) | (key & BLOCK_MASK)
}

/// A thread's scratch for [`ShardedKv::write_batch`], kept across
/// batches: the per-shard op-index groups, one group's `(op index, PUT
/// node)` pairs, and the nodes the batch's sections let go.
#[derive(Default)]
pub struct WriteScratch {
    groups: Vec<Vec<usize>>,
    work: Vec<(usize, Addr)>,
    freed: Vec<Addr>,
}

/// One shard: a hashmap plus the scheme instance that guards it.
struct Shard {
    map: SimHashMap,
    scheme: Scheme,
}

/// A sharded KV store, each shard guarded by its own [`Scheme`] lock.
pub struct ShardedKv {
    shards: Vec<Shard>,
}

/// Outcome of a PUT.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PutOutcome {
    /// The key was absent; a new node was linked in.
    Inserted,
    /// The key existed; its value was updated in place (the pre-built
    /// node goes back to the arena).
    Updated,
}

impl ShardedKv {
    /// Builds `n_shards` shards of `buckets_per_shard` buckets each, all
    /// using scheme `kind`, sized for `max_threads` worker threads.
    pub fn create(
        alloc: &SimAlloc,
        kind: SchemeKind,
        n_shards: usize,
        buckets_per_shard: u32,
        max_threads: usize,
    ) -> Result<Self, AllocError> {
        assert!(n_shards > 0, "need at least one shard");
        let mut shards = Vec::with_capacity(n_shards);
        for _ in 0..n_shards {
            let scheme = Scheme::build(kind, alloc, max_threads).map_err(|e| match e {
                rwle::RwLeError::Alloc(a) => a,
                // The fixed scheme presets never produce config errors.
                other => panic!("scheme build: {other}"),
            })?;
            shards.push(Shard {
                map: SimHashMap::create(alloc, buckets_per_shard)?,
                scheme,
            });
        }
        Ok(ShardedKv { shards })
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// `key`'s shard and the key its map files it under.
    #[inline]
    fn locate(&self, key: u64) -> (&Shard, u64) {
        let n = self.shards.len();
        (&self.shards[shard_index(key, n)], rank(key, n))
    }

    /// Looks `key` up (uninstrumented read under RW-LE).
    pub fn get(&self, ctx: &mut ThreadCtx, st: &mut ThreadStats, key: u64) -> Option<u64> {
        let (shard, at) = self.locate(key);
        shard
            .scheme
            .read_cs(ctx, st, &mut |acc| shard.map.lookup(acc, at))
    }

    /// Applies `ops` as one batch, filling `replies` index-aligned with
    /// them, and returns the write sections it ran: one per shard the
    /// batch touches, over that shard's ops in `ops` order.
    ///
    /// Each PUT takes its node before its section, so the allocator stays
    /// out of any speculative footprint; one that gets none is answered
    /// `StoreFull` and sits the section out. The nodes the sections
    /// unlinked or did not link go back to the arena after the last one,
    /// so no PUT takes a node its own batch let go: every PUT that
    /// succeeded took its own of the nodes free when the batch began, and
    /// replaying the batch's write-set op by op (the loader, which frees
    /// as it goes) never needs more of the arena than the batch found.
    ///
    /// Once a section returns, the nodes it let go are unreferenced:
    /// every scheme here is a read-write lock, elided or not, so a write
    /// section is over only when no read section that could have reached
    /// an unlinked node still runs. Under RW-LE that is the
    /// quiescence-before-commit rule (readers active during the
    /// speculative unlink are drained before the commit; one that starts
    /// later reads the predecessor's line, which is in the writer's
    /// write set, and dooms the writer instead), under HLE the reader is
    /// a transaction the commit aborts, under the locks it is mutual
    /// exclusion.
    pub fn write_batch(
        &self,
        ctx: &mut ThreadCtx,
        st: &mut ThreadStats,
        alloc: &SimAlloc,
        ops: &[MutOp],
        replies: &mut Vec<MutReply>,
        scratch: &mut WriteScratch,
    ) -> u64 {
        let WriteScratch {
            groups,
            work,
            freed,
        } = scratch;
        let n = self.shards.len();
        groups.resize_with(n, Vec::new);
        group_by_shard(ops, groups);
        replies.clear();
        replies.resize(ops.len(), MutReply::Del(false));
        let mut sections = 0;
        for (shard, group) in self.shards.iter().zip(groups.iter()) {
            work.clear();
            for &i in group {
                match ops[i] {
                    MutOp::Put { key, value } => {
                        match shard.map.make_node(alloc, rank(key, n), value) {
                            Ok(node) => work.push((i, node)),
                            Err(_) => replies[i] = MutReply::Put(Err(StoreFull)),
                        }
                    }
                    MutOp::Del { .. } => work.push((i, Addr::NULL)),
                }
            }
            if work.is_empty() {
                continue;
            }
            let mark = freed.len();
            shard.scheme.write_cs(ctx, st, &mut |acc| {
                // A speculating scheme re-runs this body after an abort,
                // which took the run's writes with it: each run starts its
                // record of nodes afresh.
                freed.truncate(mark);
                for &(i, node) in work.iter() {
                    replies[i] = match ops[i] {
                        MutOp::Put { .. } => MutReply::Put(Ok(if shard.map.insert(acc, node)? {
                            PutOutcome::Inserted
                        } else {
                            freed.push(node);
                            PutOutcome::Updated
                        })),
                        MutOp::Del { key } => {
                            let gone = shard.map.remove(acc, rank(key, n))?;
                            freed.extend(gone);
                            MutReply::Del(gone.is_some())
                        }
                    };
                }
                Ok(())
            });
            sections += 1;
        }
        // Back to the arena, as the loader's: PUT/DEL churn costs no
        // capacity, so a server never sheds writes for having served
        // long, or fast, enough.
        for node in freed.drain(..) {
            alloc.free_sized(node, NODE_WORDS);
        }
        sections
    }

    /// Appends the present pairs among the `count` keys from `start`
    /// (the range stops at `u64::MAX`) to `out` in key order. Each shard
    /// the range covers runs one read critical section over the range's
    /// blocks on it — one block, unless the range has more blocks than
    /// there are shards. Long scans are the read-capacity stressor:
    /// under RW-LE they stay uninstrumented (no HTM footprint), under
    /// HLE-style baselines they abort.
    pub fn scan(
        &self,
        ctx: &mut ThreadCtx,
        st: &mut ThreadStats,
        start: u64,
        count: u32,
        out: &mut Vec<(u64, u64)>,
    ) {
        let Some(keys) = scan_keys(start, count) else {
            return;
        };
        let n = self.shards.len();
        let tail = out.len();
        let (first, covered) = covered_shards(&keys, n);
        let (first_block, last_block) = (start >> BLOCK_BITS, keys.end() >> BLOCK_BITS);
        for i in 0..covered {
            let shard = &self.shards[(first + i) % n];
            let mark = out.len();
            shard.scheme.read_cs(ctx, st, &mut |acc| {
                // A speculating scheme (HLE) re-runs this body after an
                // abort; each run starts again from the same `out`.
                out.truncate(mark);
                for block in (first_block + i as u64..=last_block).step_by(n) {
                    let base = block << BLOCK_BITS;
                    let ranked = rank(base, n);
                    for key in base.max(start)..=(base | BLOCK_MASK).min(*keys.end()) {
                        if let Some(value) = shard.map.lookup(acc, ranked | (key & BLOCK_MASK))? {
                            out.push((key, value));
                        }
                    }
                }
                Ok(())
            });
        }
        // Each shard's pairs ascend, and the shards come in block order
        // unless the range has more blocks than there are shards.
        out[tail..].sort_unstable_by_key(|&(key, _)| key);
    }

    /// [`SimHashMap::load_put`] into `key`'s shard: plain stores, only
    /// for a store no other thread can reach yet (a redo-log load). An
    /// update hands back the unused node.
    pub fn load_put(
        &self,
        alloc: &SimAlloc,
        key: u64,
        value: u64,
    ) -> Result<Option<Addr>, AllocError> {
        let (shard, at) = self.locate(key);
        shard.map.load_put(alloc, at, value)
    }

    /// [`SimHashMap::load_del`] in `key`'s shard, returning its node for
    /// the arena.
    pub fn load_del(&self, alloc: &SimAlloc, key: u64) -> Option<Addr> {
        let (shard, at) = self.locate(key);
        shard.map.load_del(alloc.mem(), at)
    }

    /// Pre-loads keys `0..n` with `value = key`, single-threaded,
    /// bypassing the HTM layer (initialization precedes concurrency).
    /// The nodes are one [`SimAlloc::alloc_run`]: key `k`'s is the run's
    /// `k`-th, linked at the head of its bucket in its shard. On an
    /// allocator with no freed node that is word for word the image of
    /// pushing the keys one by one ([`SimHashMap::push_fresh`]), at the
    /// cost of one allocation.
    pub fn populate(&self, alloc: &SimAlloc, n: u64) -> Result<(), AllocError> {
        let mem = alloc.mem();
        for (key, node) in (0..n).zip(alloc.alloc_run(n, NODE_WORDS)?) {
            let (shard, at) = self.locate(key);
            shard.map.link_fresh(mem, node, at, key);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htm::{HtmConfig, HtmRuntime};
    use simmem::SharedMem;
    use std::sync::Arc;

    fn setup(lines: u32) -> (Arc<HtmRuntime>, SimAlloc) {
        let mem = Arc::new(SharedMem::new_lines(lines));
        let rt = HtmRuntime::new(Arc::clone(&mem), HtmConfig::default());
        let alloc = SimAlloc::new(mem);
        (rt, alloc)
    }

    fn put_op(key: u64, value: u64) -> MutOp {
        MutOp::Put { key, value }
    }

    #[test]
    fn basic_ops_roundtrip_across_shards() {
        let (rt, alloc) = setup(4096);
        let kv = ShardedKv::create(&alloc, SchemeKind::RwLeOpt, 4, 8, 2).unwrap();
        let mut ctx = rt.register();
        let mut st = ThreadStats::new();
        let (mut replies, mut scratch) = (Vec::new(), WriteScratch::default());
        // Four 64-key blocks, one on each shard.
        let puts: Vec<MutOp> = (0..256u64).map(|key| put_op(key, key * 3)).collect();
        let sections = kv.write_batch(&mut ctx, &mut st, &alloc, &puts, &mut replies, &mut scratch);
        assert_eq!(sections, 4, "one write section per shard");
        assert_eq!(replies, [MutReply::Put(Ok(PutOutcome::Inserted)); 256]);
        for key in 0..256u64 {
            assert_eq!(kv.get(&mut ctx, &mut st, key), Some(key * 3));
        }
        // An update in place hands its node back.
        let live = alloc.stats().live_blocks;
        let update = [put_op(7, 999)];
        kv.write_batch(
            &mut ctx,
            &mut st,
            &alloc,
            &update,
            &mut replies,
            &mut scratch,
        );
        assert_eq!(replies, [MutReply::Put(Ok(PutOutcome::Updated))]);
        assert_eq!(alloc.stats().live_blocks, live);
        assert_eq!(kv.get(&mut ctx, &mut st, 7), Some(999));
        let del = [MutOp::Del { key: 7 }];
        kv.write_batch(&mut ctx, &mut st, &alloc, &del, &mut replies, &mut scratch);
        assert_eq!(replies, [MutReply::Del(true)]);
        assert_eq!(alloc.stats().live_blocks, live - 1);
        kv.write_batch(&mut ctx, &mut st, &alloc, &del, &mut replies, &mut scratch);
        assert_eq!(replies, [MutReply::Del(false)]);
        assert_eq!(kv.get(&mut ctx, &mut st, 7), None);
    }

    /// A group is applied in `ops` order in one section, answered at
    /// each op's index, and lets go of exactly the nodes it unlinked or
    /// did not link.
    #[test]
    fn a_group_applies_in_ops_order_in_one_section() {
        let (rt, alloc) = setup(4096);
        let kv = ShardedKv::create(&alloc, SchemeKind::RwLeOpt, 1, 8, 1).unwrap();
        kv.populate(&alloc, 4).unwrap();
        let mut ctx = rt.register();
        let mut st = ThreadStats::new();
        let ops = [
            put_op(10, 1),
            MutOp::Del { key: 2 },
            put_op(10, 2),
            MutOp::Del { key: 10 },
            put_op(10, 3),
            MutOp::Del { key: 11 },
        ];
        let live = alloc.stats().live_blocks;
        let (mut replies, mut scratch) = (Vec::new(), WriteScratch::default());
        let sections = kv.write_batch(&mut ctx, &mut st, &alloc, &ops, &mut replies, &mut scratch);
        let inserted = MutReply::Put(Ok(PutOutcome::Inserted));
        let updated = MutReply::Put(Ok(PutOutcome::Updated));
        let (gone, absent) = (MutReply::Del(true), MutReply::Del(false));
        assert_eq!(replies, [inserted, gone, updated, gone, inserted, absent]);
        assert_eq!((sections, st.ops), (1, 1), "one write section");
        // Key 2's prefilled node, the update's unused one and the first
        // PUT's, unlinked by the DEL, went back; the last PUT's is in.
        assert_eq!(alloc.stats().live_blocks, live);
        assert_eq!(kv.get(&mut ctx, &mut st, 10), Some(3));
        assert_eq!(kv.get(&mut ctx, &mut st, 2), None);
    }

    #[test]
    fn scan_returns_sorted_present_range() {
        let (rt, alloc) = setup(4096);
        let kv = ShardedKv::create(&alloc, SchemeKind::RwLeOpt, 3, 8, 2).unwrap();
        kv.populate(&alloc, 50).unwrap();
        let mut ctx = rt.register();
        let mut st = ThreadStats::new();
        let mut out = Vec::new();
        kv.scan(&mut ctx, &mut st, 40, 20, &mut out);
        let expect: Vec<(u64, u64)> = (40..50).map(|k| (k, k)).collect();
        assert_eq!(out, expect);
    }

    /// HLE runs read sections as transactions and re-executes the body
    /// after an abort. A 400-key scan overflows the 96-line read
    /// capacity, so every shard's section aborts at least once whatever
    /// the concurrent writer's timing (its conflicts come on top); the
    /// result must still hold each key once.
    #[test]
    fn scan_is_duplicate_free_when_its_read_section_is_retried() {
        let (rt, alloc) = setup(16384);
        let kv = ShardedKv::create(&alloc, SchemeKind::Hle, 2, 16, 2).unwrap();
        kv.populate(&alloc, 400).unwrap();
        let (scans, aborts) = std::thread::scope(|s| {
            let scanner = s.spawn(|| {
                let mut ctx = rt.register();
                let mut st = ThreadStats::new();
                let scans: Vec<Vec<u64>> = (0..30)
                    .map(|_| {
                        let mut out = Vec::new();
                        kv.scan(&mut ctx, &mut st, 0, 400, &mut out);
                        out.iter().map(|&(k, _)| k).collect()
                    })
                    .collect();
                (
                    scans,
                    stats::StatsSummary::from_threads([&st]).total_aborts(),
                )
            });
            let mut ctx = rt.register();
            let mut st = ThreadStats::new();
            let (mut replies, mut scratch) = (Vec::new(), WriteScratch::default());
            let mut round = 0;
            while !scanner.is_finished() {
                round += 1;
                for key in (0..400).step_by(7) {
                    let put = [put_op(key, key + round % 2)];
                    kv.write_batch(&mut ctx, &mut st, &alloc, &put, &mut replies, &mut scratch);
                }
            }
            scanner.join().expect("scanner panicked")
        });
        for keys in scans {
            assert_eq!(keys, (0..400).collect::<Vec<_>>(), "not strictly ascending");
        }
        assert!(aborts > 0, "no read section was ever retried");
    }

    #[test]
    fn populate_then_concurrent_mixed_ops_keep_torn_free() {
        let (rt, alloc) = setup(16384);
        let kv = Arc::new(ShardedKv::create(&alloc, SchemeKind::RwLeOpt, 4, 16, 4).unwrap());
        kv.populate(&alloc, 200).unwrap();
        let alloc = &alloc;
        std::thread::scope(|s| {
            for t in 0..4usize {
                let rt = Arc::clone(&rt);
                let kv = Arc::clone(&kv);
                s.spawn(move || {
                    let mut ctx = rt.register();
                    let mut st = ThreadStats::new();
                    let (mut replies, mut scratch) = (Vec::new(), WriteScratch::default());
                    let mut scan_sections = 0;
                    for i in 0..200u64 {
                        let key = (t as u64 * 131 + i * 7) % 400;
                        match i % 4 {
                            0 | 2 => {
                                let op = if i % 4 == 0 {
                                    put_op(key, key + 1)
                                } else {
                                    MutOp::Del { key }
                                };
                                kv.write_batch(
                                    &mut ctx,
                                    &mut st,
                                    alloc,
                                    &[op],
                                    &mut replies,
                                    &mut scratch,
                                );
                            }
                            1 => {
                                if let Some(v) = kv.get(&mut ctx, &mut st, key) {
                                    // Values are always key or key+1.
                                    assert!(v == key || v == key + 1, "torn value {v} for {key}");
                                }
                            }
                            _ => {
                                let mut out = Vec::new();
                                kv.scan(&mut ctx, &mut st, key, 8, &mut out);
                                let mut shards: Vec<_> = (key..key + 8)
                                    .map(|k| shard_index(k, kv.n_shards()))
                                    .collect();
                                shards.sort_unstable();
                                shards.dedup();
                                scan_sections += shards.len() as u64;
                                for (k, v) in out {
                                    assert!(v == k || v == k + 1, "torn scan {v} for {k}");
                                }
                            }
                        }
                    }
                    // 150 single-shard ops + 50 scans × one read CS per
                    // shard the scan's keys live on.
                    assert_eq!(st.ops, 150 + scan_sections);
                });
            }
        });
    }

    /// The sizing rule: more than ½ and at most 1 key per bucket at the
    /// prefill whenever every shard gets a key, one bucket when some
    /// cannot, and no count past what a `u32` holds.
    #[test]
    fn buckets_hold_half_to_one_key_at_the_prefill() {
        for prefill in [0u64, 1, 1000, 100_000, 4_000_000] {
            for shards in [1usize, 3, 16, 20_000] {
                let b = buckets_per_shard(prefill, shards);
                let slots = shards as u64 * u64::from(b);
                assert!(b.is_power_of_two(), "{prefill} over {shards}: {b}");
                if prefill >= shards as u64 {
                    assert!(
                        2 * prefill > slots && prefill <= slots,
                        "{prefill} keys over {shards} × {b} buckets"
                    );
                } else {
                    assert_eq!(b, 1, "{prefill} keys over {shards} shards");
                }
            }
        }
        // `svc-sim`: 100 k keys over 16 shards.
        assert_eq!(buckets_per_shard(100_000, 16), 8192);
        for (prefill, shards) in [(u64::MAX, 1), (1 << 40, 16), ((1 << 31) + 1, 1)] {
            assert_eq!(buckets_per_shard(prefill, shards), 1 << 31);
        }
    }

    /// What each shard's map sees: the shard's keys of any prefix of the
    /// key space, ranked `0..` in key order with no gap, so the prefill
    /// puts at most one key in a bucket wherever a shard's blocks fit
    /// its buckets — on `svc-sim`, every shard.
    #[test]
    fn a_shard_files_its_keys_densely_in_key_order() {
        for n_shards in [1, 3, 16, 32] {
            let mut next = vec![0u64; n_shards];
            for key in 0..10_000 {
                let s = shard_index(key, n_shards);
                assert_eq!(rank(key, n_shards), next[s], "key {key}, {n_shards} shards");
                next[s] += 1;
            }
        }
        let svc_sim = u64::from(buckets_per_shard(100_000, 16));
        assert!((0..100_000).all(|key| rank(key, 16) < svc_sim));
        assert_eq!(rank(u64::MAX, 1), u64::MAX);
        let top_block = (u64::MAX >> BLOCK_BITS) / 3;
        assert_eq!(rank(u64::MAX, 3), (top_block << BLOCK_BITS) | BLOCK_MASK);
    }

    /// What the layout buys: a scan runs one read section per shard its
    /// blocks live on and no others — at most two for 64 pairs from any
    /// start, `min(17, n)` for 1024 pairs from mid-block (16 from a block
    /// edge). `ThreadStats::ops` counts one per section.
    #[test]
    fn a_scan_reads_only_the_shards_its_range_covers() {
        const TOP: u64 = u64::MAX;
        let (rt, alloc) = setup(16384);
        let mut ctx = rt.register();
        let mut st = ThreadStats::new();
        for n_shards in [1, 3, 16, 32] {
            let kv = ShardedKv::create(&alloc, SchemeKind::RwLeOpt, n_shards, 8, 1).unwrap();
            let mut sections = |start, count| {
                let before = st.ops;
                kv.scan(&mut ctx, &mut st, start, count, &mut Vec::new());
                st.ops - before
            };
            for start in [0, 1, 63, 64, 100, 1000, 4090, TOP - 64, TOP - 63, TOP] {
                let two = sections(start, 64);
                assert!(two <= 2, "{n_shards} shards: 64 from {start} read {two}");
            }
            let n = n_shards as u64;
            for start in [1, 63, 100, 1000] {
                assert_eq!(sections(start, 1024), n.min(17), "{n_shards} shards");
            }
            assert_eq!(sections(0, 1024), n.min(16), "{n_shards} shards");
            assert_eq!(sections(TOP - 100, 1024), n.min(2), "{n_shards} shards");
        }
    }

    /// `scan` is the SGL canary's `scan` at every shard count, with the
    /// bucket count the service derives: both stores take the same
    /// mutations — holes in the prefill, a sparse run beyond it, and a
    /// populated top of the key space — and then every count around a
    /// 64-key SCAN and the wire's limit (1024), from block edges,
    /// mid-range and up against `u64::MAX`, behind what `out` held.
    #[test]
    fn scan_equals_the_canary_on_every_shard_count() {
        use crate::backend::{MutOp, SimBackend, StoreBackend};
        const TOP: u64 = u64::MAX;
        const PREFILL: u64 = 3000;
        let ops: Vec<MutOp> = (0..PREFILL)
            .step_by(7)
            .map(|key| MutOp::Del { key })
            .chain((5000..6000).step_by(3).map(|key| MutOp::Put {
                key,
                value: key * 2,
            }))
            .chain((0..1500).step_by(2).map(|i| MutOp::Put {
                key: TOP - i,
                value: i,
            }))
            .collect();
        let canary = crate::native::SglBackend::create(PREFILL);
        let mut model = canary.session();
        model.apply_batch(&ops, &mut Vec::new());
        for n_shards in [1, 3, 16] {
            let buckets = buckets_per_shard(PREFILL, n_shards);
            let backend =
                SimBackend::create(SchemeKind::RwLeOpt, n_shards, buckets, PREFILL, 2000, 1, 1)
                    .unwrap();
            let mut s = backend.session();
            for batch in ops.chunks(100) {
                s.apply_batch(batch, &mut Vec::new());
            }
            for start in [
                0,
                320,
                337,
                1000,
                2990,
                4990,
                5950,
                TOP - 1023,
                TOP - 1000,
                TOP - 40,
                TOP,
            ] {
                for count in [0, 1, 63, 64, 65, 1024] {
                    let (mut got, mut want) = (vec![(7, 7)], vec![(7, 7)]);
                    s.scan(start, count, &mut got);
                    model.scan(start, count, &mut want);
                    assert_eq!(got, want, "{n_shards} shards, scan({start}, {count})");
                }
            }
        }
    }

    /// The prefill's one run leaves word for word the image, the
    /// statistics and the bump pointer of pushing each key into its
    /// shard one at a time, on the service's 16 shards and a key count
    /// that ends inside a block.
    #[test]
    fn populate_writes_the_per_key_image() {
        let n = 100 * 64 + 37;
        let build = |bulk: bool| {
            let (_rt, alloc) = setup(16384);
            let kv = ShardedKv::create(&alloc, SchemeKind::RwLeOpt, 16, 512, 4).unwrap();
            if bulk {
                kv.populate(&alloc, n).unwrap();
            } else {
                for key in 0..n {
                    let (shard, at) = kv.locate(key);
                    shard.map.push_fresh(&alloc, at, key).unwrap();
                }
            }
            crate::hashmap::tests::image(&alloc)
        };
        let bulk = build(true);
        assert!(bulk.1.live_blocks > n);
        assert!(bulk == build(false), "populate's image differs");
    }
}
