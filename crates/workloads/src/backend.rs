//! Execution backends: the same KV surface over two substrates.
//!
//! [`StoreBackend`] abstracts *where* the RW-LE protocol runs:
//!
//! * [`SimBackend`] — the existing simulated-HTM pipeline
//!   (`simmem`/`htm`): every access goes through the simulated memory
//!   model, which keeps the paper-faithful abort/commit breakdowns and
//!   `sched` schedule exploration but pays the simulator on every load.
//! * [`NativeBackend`](crate::native::NativeBackend) — the same
//!   protocol over plain process memory: uninstrumented reads on the
//!   fast path, writer commit emulated as epoch-quiesced copy-on-write
//!   publication (see `crate::native` and DESIGN.md §9). No abort
//!   breakdowns, and schedule exploration only at the protocol's own
//!   steps — raw speed.
//!
//! A backend hands out per-thread [`StoreSession`]s; each session owns
//! whatever thread-affine state its substrate needs (an HTM thread
//! context, an epoch slot) plus its [`ThreadStats`]. Sessions must be
//! created on the thread that uses them and are not transferable.

use simmem::{SharedMem, SimAlloc, WORDS_PER_LINE};
use std::ops::{Range, RangeInclusive};
use std::sync::Arc;

use htm::{HtmConfig, HtmRuntime, ThreadCtx, MAX_SLOTS};
use stats::ThreadStats;

use crate::hashmap::NODE_WORDS;
use crate::scheme::{SchemeKind, MAX_LOCK_LINES};
use crate::sharded::{PutOutcome, ShardedKv, WriteScratch};

/// Which execution backend runs the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Simulated HTM over `simmem` (paper-faithful breakdowns).
    Sim,
    /// Plain process memory with epoch-quiesced copy-on-write
    /// publication.
    Native,
}

impl BackendKind {
    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Sim => "sim",
            BackendKind::Native => "native",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<BackendKind> {
        match s {
            "sim" => Some(BackendKind::Sim),
            "native" => Some(BackendKind::Native),
            _ => None,
        }
    }
}

/// The store's capacity is exhausted (simulated memory only: the native
/// backend allocates from the process heap and never reports this).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreFull;

/// One mutation in a batch handed to [`StoreSession::apply_batch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutOp {
    /// Insert or update `key`.
    Put {
        /// Key to write.
        key: u64,
        /// Value to store.
        value: u64,
    },
    /// Remove `key`.
    Del {
        /// Key to remove.
        key: u64,
    },
}

impl MutOp {
    /// The key the mutation targets (shard routing).
    pub fn key(&self) -> u64 {
        match *self {
            MutOp::Put { key, .. } | MutOp::Del { key } => key,
        }
    }
}

/// Per-mutation result of a batch, index-aligned with the input ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutReply {
    /// Result of a [`MutOp::Put`].
    Put(Result<PutOutcome, StoreFull>),
    /// Result of a [`MutOp::Del`]: whether the key was present.
    Del(bool),
}

/// The keys a SCAN of `count` from `start` covers, last one included —
/// an exclusive end could never name `u64::MAX` — or `None` when it
/// asks for nothing. The range stops at the top of the key space.
pub(crate) fn scan_keys(start: u64, count: u32) -> Option<RangeInclusive<u64>> {
    let span = u64::from(count.checked_sub(1)?);
    Some(start..=start.saturating_add(span))
}

/// Keys per block, as a shift: both sharded stores hold runs of 64
/// consecutive keys (about two full native leaves) and deal the blocks
/// round-robin over their shards, block `b` on shard `b % n`.
pub(crate) const BLOCK_BITS: u32 = 6;

/// The shard holding `key` among `n_shards`: its block's, so a range of
/// keys lives on as few shards as it has blocks. The price is locality
/// of heat: a hot range of keys is a hot shard.
#[inline]
pub(crate) fn shard_index(key: u64, n_shards: usize) -> usize {
    ((key >> BLOCK_BITS) % n_shards as u64) as usize
}

/// The keys below `end` that shard `shard` of `n_shards` holds, a
/// block at a time: the key ranges of its blocks `shard`, `shard + n`,
/// `shard + 2n`, …, ascending.
pub(crate) fn shard_blocks(
    shard: usize,
    n_shards: usize,
    end: u64,
) -> impl Iterator<Item = Range<u64>> + Clone {
    (shard as u64..)
        .step_by(n_shards)
        .map(|block| block << BLOCK_BITS)
        .take_while(move |&first| first < end)
        .map(move |first| first..first.saturating_add(1 << BLOCK_BITS).min(end))
}

/// The shards `keys` lives on, as `(first, covered)`: the `covered` =
/// `min(blocks, n_shards)` shards consecutive modulo `n_shards` from
/// `first`, in the order of their first blocks in the range.
pub(crate) fn covered_shards(keys: &RangeInclusive<u64>, n_shards: usize) -> (usize, usize) {
    let blocks = (keys.end() >> BLOCK_BITS) - (keys.start() >> BLOCK_BITS) + 1;
    let covered = blocks.min(n_shards as u64) as usize;
    (shard_index(*keys.start(), n_shards), covered)
}

/// Files each of `ops` under its shard: `groups[s]` ends holding the
/// indices of shard `s`'s ops in `ops` order, one group per shard.
pub(crate) fn group_by_shard(ops: &[MutOp], groups: &mut [Vec<usize>]) {
    for group in groups.iter_mut() {
        group.clear();
    }
    let n_shards = groups.len();
    for (i, op) in ops.iter().enumerate() {
        groups[shard_index(op.key(), n_shards)].push(i);
    }
}

/// Quiescence accounting for one [`StoreSession::apply_batch`] call:
/// one grace period per touched shard on the simulated store; on the
/// native store one per touched shard whose previous cycle deferred one
/// (every shard but on its first cycle); none on the SGL canary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Full grace periods this batch paid for itself (on the simulated
    /// store, one per write section it ran).
    pub barriers: u64,
    /// Barriers satisfied by a grace period another writer already
    /// completed (`GraceSeq` sharing).
    pub shared: u64,
}

/// Log sequence number handed out by a [`DurableSink`].
pub type Lsn = u64;

/// The LSN of "nothing appended" (an empty batch or an all-failed
/// write-set): always already durable, [`DurableSink::wait_durable`]
/// returns immediately for it. Real LSNs start at 1.
pub const NO_LSN: Lsn = 0;

/// Where a batch's write-set goes to become durable — implemented by
/// `wal::Wal`, mocked in tests. The contract that makes replay agree
/// with acked history: **log order must equal commit order** for every
/// pair of conflicting batches. Two ways to get that ordering:
///
/// * [`DurableSink::append`] trusts the caller to hold the store-side
///   serialization already (the native backend appends each shard's
///   group as a record of its own, under that shard's writer lock and
///   after its flip, so mutations of one key reach the log in commit
///   order and records of different shards commute);
/// * [`DurableSink::append_ordered`] serializes execute + append under
///   the sink's own global order lock, for backends whose `apply_batch`
///   has no lock window spanning the whole batch (the simulated store's
///   one write section per touched shard).
///
/// Only the *effective* write-set is appended: a PUT that failed with
/// [`StoreFull`] had no effect and must not be replayed as if it had.
///
/// An append fixes a record's place in the log and nothing else: the
/// sink may keep the record in memory, where a crash of the process
/// loses it. **Acknowledge a mutation only after
/// [`DurableSink::wait_durable`] returned for its LSN** — under every
/// policy of the sink, not only a synchronous one. One wait on the
/// highest LSN covers every record appended before it.
pub trait DurableSink: Send + Sync {
    /// Appends one effective write-set as a single record and returns
    /// its LSN (`NO_LSN` for an empty write-set). The caller must
    /// already hold whatever store-side serialization orders this
    /// record against conflicting ones — on the native backend, the
    /// writer lock of the one shard the record touches; see the trait
    /// docs. Cheap enough for that lock window: `wal::Wal` encodes into
    /// a buffer and leaves the system call to the wait.
    fn append(&self, ops: &[MutOp]) -> Lsn;

    /// Runs `exec` (which applies a batch and pushes its effective
    /// write-set into the provided scratch buffer) and appends the
    /// result, all under the sink's global order lock, so log order
    /// equals execution order. Returns `exec`'s outcome plus the LSN.
    fn append_ordered(
        &self,
        exec: &mut dyn FnMut(&mut Vec<MutOp>) -> BatchOutcome,
    ) -> (BatchOutcome, Lsn);

    /// Blocks until everything up to `lsn` may be acknowledged: handed
    /// to the operating system at the least (so it survives this
    /// process), and as durable as the sink's fsync policy promises —
    /// `wal::Wal` writes what is staged and, under its per-batch
    /// policy only, waits for the covering fsync (acked ⇒ durable).
    fn wait_durable(&self, lsn: Lsn);
}

/// A store being built, before anything can read it: it starts from
/// the prefill, and [`StoreLoader::apply`] hands it the redo log's
/// records, one at a time and in log order. The loader *owns* the
/// store, so no session exists until [`StoreLoader::finish`] hands it
/// over, and no reader can observe a write. Nothing is published: a
/// loader skips the writer protocol (native flips and grace periods,
/// sim write sections) that exists only to make writes safe for
/// concurrent readers. The simulated store applies each op once, in
/// place; the native stores buffer the ops and build each map once, at
/// `finish`, from the prefill merged with each key's last op.
pub trait StoreLoader {
    /// The store this loader builds.
    type Store: StoreBackend + 'static;

    /// Told once, before the first [`StoreLoader::apply`], about how
    /// many ops the log holds: an estimate (`wal::estimate_ops`), which
    /// a loader may size its buffers by and must not rely on. The
    /// default ignores it.
    fn expect(&mut self, _ops: usize) {}

    /// Takes one record's write-set, in order. `Err` means a PUT of a
    /// new key found the store full (the simulated store, on a smaller
    /// capacity than the log was written under). The ops before it are
    /// applied and the ones after it are not, so the caller must
    /// discard the loader rather than serve from it.
    fn apply(&mut self, ops: &[MutOp]) -> Result<(), StoreFull>;

    /// The loaded store, ready for sessions.
    fn finish(self) -> Self::Store;
}

/// A store plus the substrate it executes on. Shared across worker
/// threads; each thread gets its own [`StoreSession`].
pub trait StoreBackend: Send + Sync {
    /// Creates a per-thread session. Must be called on the thread that
    /// will use it; panics when more sessions are created than the
    /// backend was sized for.
    fn session(&self) -> Box<dyn StoreSession + '_>;

    /// Backend label for stats/bench rows (`"sim"` / `"native"`).
    fn label(&self) -> &'static str;
}

/// One thread's handle onto a [`StoreBackend`]'s store.
pub trait StoreSession {
    /// Looks `key` up (uninstrumented read under RW-LE).
    fn get(&mut self, key: u64) -> Option<u64>;

    /// Looks every key of `keys` up, appending one answer per key to
    /// `out` in `keys` order. Each answer is what a [`StoreSession::get`]
    /// at some moment of the call would have returned; keys of one run
    /// are not promised a common snapshot. The default is the per-key
    /// loop; the native backend answers a run from inside one read
    /// section per [`crate::native::GET_RUN`] keys with the lookups'
    /// cache misses overlapped.
    fn get_many(&mut self, keys: &[u64], out: &mut Vec<Option<u64>>) {
        for &key in keys {
            out.push(self.get(key));
        }
    }

    /// Inserts or updates `key`: a one-op [`StoreSession::apply_batch`].
    fn put(&mut self, key: u64, value: u64) -> Result<PutOutcome, StoreFull> {
        let mut reply = Vec::with_capacity(1);
        self.apply_batch(&[MutOp::Put { key, value }], &mut reply);
        let [MutReply::Put(outcome)] = reply[..] else {
            unreachable!("a PUT is answered as a PUT")
        };
        outcome
    }

    /// Removes `key`, returning whether it was present: a one-op
    /// [`StoreSession::apply_batch`].
    fn del(&mut self, key: u64) -> bool {
        let mut reply = Vec::with_capacity(1);
        self.apply_batch(&[MutOp::Del { key }], &mut reply);
        matches!(reply[..], [MutReply::Del(true)])
    }

    /// Appends all present pairs among the `count` keys from `start` up
    /// (the range ends at `u64::MAX`, it does not wrap) to `out`, sorted
    /// by key. What `out` already held stays in front, untouched.
    fn scan(&mut self, start: u64, count: u32, out: &mut Vec<(u64, u64)>);

    /// Applies a batch of mutations, filling `replies` index-aligned
    /// with `ops`, and reports how many quiescence barriers the batch
    /// actually paid. Every write a session makes goes through here.
    ///
    /// Semantics: per key, mutations apply in `ops` order, and every
    /// mutation is visible to every read that starts after the call
    /// returns — a caller may acknowledge all of them afterwards. Both
    /// sharded stores group the batch per shard and publish each touched
    /// shard's group at once, holding that shard and no other: the
    /// simulated store with one write section and its grace period
    /// (`barriers + shared` = touched shards), the native store with one
    /// flip, after first paying the grace period the shard's previous
    /// cycle deferred (`barriers + shared` = touched shards, less those
    /// on their first cycle). The SGL canary applies op by op under its
    /// lock and pays no grace period.
    fn apply_batch(&mut self, ops: &[MutOp], replies: &mut Vec<MutReply>) -> BatchOutcome;

    /// [`StoreSession::apply_batch`] with a redo-log stop: the batch's
    /// effective write-set is appended to `sink` ordered consistently
    /// with its commit, and the returned LSN names the record a caller
    /// must [`DurableSink::wait_durable`] on before acknowledging any of
    /// the batch's mutations (acked ⇒ durable).
    ///
    /// The default implementation serializes execute + append under the
    /// sink's order lock — sound on any backend, but it adds a global
    /// serialization point. The simulated store and the canary keep it.
    /// The native backend overrides it: each touched shard's cycle
    /// appends that shard's group as one record, after its flip and
    /// under its writer lock, and the returned LSN is the highest of
    /// them. The append is an encode into the sink's buffer, so no
    /// guard is held across a system call.
    fn apply_batch_durable(
        &mut self,
        ops: &[MutOp],
        replies: &mut Vec<MutReply>,
        sink: &dyn DurableSink,
    ) -> (BatchOutcome, Lsn) {
        let mut out_replies = std::mem::take(replies);
        let result = sink.append_ordered(&mut |wset| {
            let out = self.apply_batch(ops, &mut out_replies);
            for (op, rep) in ops.iter().zip(out_replies.iter()) {
                // Failed PUTs had no effect; replaying them would
                // resurrect a write the client was told was shed.
                if !matches!(rep, MutReply::Put(Err(_))) {
                    wset.push(*op);
                }
            }
            out
        });
        *replies = out_replies;
        result
    }

    /// Drains the accumulated per-thread statistics.
    fn take_stats(&mut self) -> ThreadStats;
}

/// The simulated-HTM backend: [`ShardedKv`] over `simmem`/`htm`.
pub struct SimBackend {
    rt: Arc<HtmRuntime>,
    alloc: SimAlloc,
    kv: ShardedKv,
}

impl SimBackend {
    /// Sizes simulated memory, builds and prefills the sharded store.
    /// `extra_capacity` bounds the keys the store can hold beyond the
    /// prefill (a deleted key's node returns to the arena). The server
    /// passes [`crate::sharded::buckets_per_shard`] of its prefill.
    #[allow(clippy::too_many_arguments)]
    pub fn create(
        scheme: SchemeKind,
        shards: usize,
        buckets_per_shard: u32,
        prefill: u64,
        extra_capacity: u64,
        max_threads: usize,
        seed: u64,
    ) -> Result<SimBackend, String> {
        Ok(SimBackend::loader(
            scheme,
            shards,
            buckets_per_shard,
            prefill,
            extra_capacity,
            max_threads,
            seed,
        )?
        .finish())
    }

    /// [`SimBackend::create`] stopped before the store is handed out, so
    /// a redo log can be loaded into it first.
    #[allow(clippy::too_many_arguments)]
    pub fn loader(
        scheme: SchemeKind,
        shards: usize,
        buckets_per_shard: u32,
        prefill: u64,
        extra_capacity: u64,
        max_threads: usize,
        seed: u64,
    ) -> Result<SimLoader, String> {
        if max_threads > MAX_SLOTS {
            return Err(format!(
                "{max_threads} sessions asked of a simulated store that serves \
                 at most {MAX_SLOTS} threads"
            ));
        }
        // One line per node, and per shard its bucket array (its own
        // block: a power of two of whole lines) and its lock's lines,
        // with the bench driver's slack on top. In u128 no argument can
        // wrap the sum, so every size past the address space (whose
        // words must stay below the all-ones null address) lands in the
        // error below.
        let node_lines = prefill as u128 + extra_capacity as u128;
        let shard_lines = u128::from(buckets_per_shard.div_ceil(WORDS_PER_LINE))
            .next_power_of_two()
            + u128::from(MAX_LOCK_LINES);
        let lines = (node_lines + shards as u128 * shard_lines + 4096) * 9 / 8;
        let lines = u32::try_from(lines)
            .ok()
            .filter(|&l| l <= u32::MAX / WORDS_PER_LINE)
            .ok_or_else(|| {
                String::from(
                    "store too large for the 32-bit simulated address space; \
                     lower the prefill/capacity",
                )
            })?;
        let mem = Arc::new(SharedMem::new_lines(lines));
        let rt = HtmRuntime::new(Arc::clone(&mem), HtmConfig::default().with_seed(seed));
        let alloc = SimAlloc::new(mem);
        let kv = ShardedKv::create(&alloc, scheme, shards, buckets_per_shard, max_threads)
            .map_err(|e| format!("store build: {e:?}"))?;
        kv.populate(&alloc, prefill)
            .map_err(|e| format!("prefill: {e:?}"))?;
        Ok(SimLoader(SimBackend { rt, alloc, kv }))
    }
}

/// The simulated store's [`StoreLoader`]: plain stores into simulated
/// memory, as the prefill does — no transaction begins, no write
/// section runs, and a deleted key's node, or an update's unused one,
/// goes back to the arena at once. It keeps no nodes aside, so it needs
/// no more of the arena than the server that wrote the log did.
pub struct SimLoader(SimBackend);

impl StoreLoader for SimLoader {
    type Store = SimBackend;

    fn apply(&mut self, ops: &[MutOp]) -> Result<(), StoreFull> {
        let SimBackend { alloc, kv, .. } = &self.0;
        for op in ops {
            let unused = match *op {
                MutOp::Put { key, value } => {
                    kv.load_put(alloc, key, value).map_err(|_| StoreFull)?
                }
                MutOp::Del { key } => kv.load_del(alloc, key),
            };
            if let Some(node) = unused {
                alloc.free_sized(node, NODE_WORDS);
            }
        }
        Ok(())
    }

    fn finish(self) -> SimBackend {
        self.0
    }
}

impl StoreBackend for SimBackend {
    fn session(&self) -> Box<dyn StoreSession + '_> {
        Box::new(SimSession {
            ctx: self.rt.register(),
            st: ThreadStats::new(),
            scratch: WriteScratch::default(),
            backend: self,
        })
    }

    fn label(&self) -> &'static str {
        "sim"
    }
}

/// Per-thread session over [`SimBackend`]: the HTM thread context and
/// the scratch a batch reuses.
struct SimSession<'a> {
    ctx: ThreadCtx,
    st: ThreadStats,
    scratch: WriteScratch,
    backend: &'a SimBackend,
}

impl StoreSession for SimSession<'_> {
    fn get(&mut self, key: u64) -> Option<u64> {
        self.backend.kv.get(&mut self.ctx, &mut self.st, key)
    }

    fn scan(&mut self, start: u64, count: u32, out: &mut Vec<(u64, u64)>) {
        self.backend
            .kv
            .scan(&mut self.ctx, &mut self.st, start, count, out);
    }

    /// One write section per touched shard ([`ShardedKv::write_batch`]).
    fn apply_batch(&mut self, ops: &[MutOp], replies: &mut Vec<MutReply>) -> BatchOutcome {
        let SimBackend { alloc, kv, .. } = self.backend;
        let (ctx, st) = (&mut self.ctx, &mut self.st);
        BatchOutcome {
            barriers: kv.write_batch(ctx, st, alloc, ops, replies, &mut self.scratch),
            shared: 0,
        }
    }

    fn take_stats(&mut self) -> ThreadStats {
        std::mem::take(&mut self.st)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::driver::run_backend_threads;
    use crate::native::NativeBackend;
    use stats::{CommitKind, StatsSummary};

    fn sim() -> SimBackend {
        SimBackend::create(SchemeKind::RwLeOpt, 4, 16, 200, 4000, 5, 1).unwrap()
    }

    fn native() -> NativeBackend {
        NativeBackend::create(4, 5, 200)
    }

    fn roundtrip(backend: &dyn StoreBackend) {
        let mut s = backend.session();
        // Prefilled keys read back as key = value.
        assert_eq!(s.get(7), Some(7));
        assert_eq!(s.get(5000), None);
        assert_eq!(s.put(5000, 42), Ok(PutOutcome::Inserted));
        assert_eq!(s.get(5000), Some(42));
        assert_eq!(s.put(5000, 43), Ok(PutOutcome::Updated));
        assert_eq!(s.get(5000), Some(43));
        assert!(s.del(5000));
        assert!(!s.del(5000));
        assert_eq!(s.get(5000), None);
        let mut out = Vec::new();
        s.scan(10, 5, &mut out);
        assert_eq!(out, (10..15).map(|k| (k, k)).collect::<Vec<_>>());
        assert!(s.take_stats().ops > 0);
    }

    /// SCAN at its edges: the range includes its last key even when
    /// that is `u64::MAX` and stops there instead of wrapping, a count of
    /// zero returns nothing, and what the caller already had in `out`
    /// stays in front, in the caller's order.
    fn scan_edges(backend: &dyn StoreBackend) {
        const TOP: u64 = u64::MAX;
        let mut s = backend.session();
        for key in [TOP, TOP - 2, TOP - 70] {
            s.put(key, key - 1).unwrap();
        }
        let kept = [(9, 9), (3, 3)];
        let mut out = kept.to_vec();
        s.scan(TOP - 3, 64, &mut out);
        assert_eq!(out[..2], kept);
        assert_eq!(out[2..], [(TOP - 2, TOP - 3), (TOP, TOP - 1)]);
        out.truncate(2);
        s.scan(TOP, 1, &mut out);
        assert_eq!(out[2..], [(TOP, TOP - 1)]);
        out.truncate(2);
        s.scan(TOP - 70, 70, &mut out);
        assert_eq!(out[2..], [(TOP - 70, TOP - 71), (TOP - 2, TOP - 3)]);
        out.truncate(2);
        for start in [0, 10, TOP] {
            s.scan(start, 0, &mut out);
            assert_eq!(out, kept, "a SCAN of nothing from {start}");
        }
    }

    /// `get_many` is the per-key `get` loop, on every backend and for
    /// every run length around the native section size (16) and the
    /// server's run cap (32): present, absent, deleted and repeated keys,
    /// answers appended behind what `out` held.
    fn get_many_is_get(backend: &dyn StoreBackend) {
        let mut s = backend.session();
        s.put(5000, 1).unwrap();
        assert!(s.del(7));
        for n in [0u64, 1, 2, 15, 16, 17, 32, 33, 70] {
            let keys: Vec<u64> = (0..n)
                .map(|i| match i % 4 {
                    0 => i * 37 % 200,
                    1 => 10_000 + i,
                    2 => 7,
                    _ => 5000,
                })
                .collect();
            let mut got = vec![Some(99)];
            s.get_many(&keys, &mut got);
            let want: Vec<Option<u64>> = keys.iter().map(|&k| s.get(k)).collect();
            assert_eq!(got[0], Some(99));
            assert_eq!(got[1..], want, "run of {n}");
        }
    }

    fn every_backend() -> [Box<dyn StoreBackend>; 3] {
        [
            Box::new(sim()),
            Box::new(native()),
            Box::new(crate::native::SglBackend::create(200)),
        ]
    }

    #[test]
    fn scan_includes_its_last_key_and_only_appends() {
        for backend in every_backend() {
            scan_edges(&*backend);
        }
    }

    #[test]
    fn get_many_is_get_on_every_backend() {
        for backend in every_backend() {
            get_many_is_get(&*backend);
        }
    }

    /// The simulated store's load path writes memory directly: it
    /// begins no transaction, yet reads back like the serving path, and
    /// a DEL's node goes back to the arena.
    #[test]
    fn sim_load_begins_no_transaction() {
        let mut loader = SimBackend::loader(SchemeKind::RwLeOpt, 4, 16, 200, 4000, 1, 1).unwrap();
        loader
            .apply(&[
                MutOp::Put {
                    key: 5000,
                    value: 1,
                },
                MutOp::Put { key: 7, value: 8 },
                MutOp::Del { key: 9 },
                MutOp::Put {
                    key: 5000,
                    value: 2,
                },
                MutOp::Del { key: 5000 },
            ])
            .unwrap();
        let fresh = loader.0.alloc.words_remaining();
        loader
            .apply(&[MutOp::Put {
                key: 6000,
                value: 3,
            }])
            .unwrap();
        assert_eq!(loader.0.alloc.words_remaining(), fresh, "node reused");
        let backend = loader.finish();
        assert_eq!(backend.rt.telemetry().snapshot().0, 0, "begins");
        let mut s = backend.session();
        assert_eq!((s.get(5000), s.get(7), s.get(9)), (None, Some(8), None));
        assert_eq!((s.get(6000), s.get(10)), (Some(3), Some(10)));
    }

    /// A PUT into a full arena is the loader's one failure, an update
    /// included (it takes a node first, as a session's put does); a DEL
    /// makes room again, and the update's unused node goes back.
    #[test]
    fn sim_load_reports_a_full_store() {
        let mut loader = SimBackend::loader(SchemeKind::RwLeOpt, 1, 16, 10, 0, 1, 1).unwrap();
        let fresh = (1000..).map(|key| MutOp::Put { key, value: key });
        let fits = fresh
            .take_while(|op| loader.apply(std::slice::from_ref(op)).is_ok())
            .count();
        assert!(fits > 0 && fits < 100_000, "{fits} fresh keys fit");
        let update = [MutOp::Put { key: 3, value: 9 }];
        assert_eq!(loader.apply(&update), Err(StoreFull));
        loader.apply(&[MutOp::Del { key: 4 }]).unwrap();
        assert_eq!(loader.apply(&update), Ok(()));
        assert_eq!(loader.apply(&[MutOp::Put { key: 4, value: 4 }]), Ok(()));
        let backend = loader.finish();
        let mut s = backend.session();
        assert_eq!((s.get(3), s.get(4)), (Some(9), Some(4)));
    }

    #[test]
    fn sim_sizes_past_the_address_space_are_refused_not_wrapped() {
        for (prefill, extra, buckets) in [
            (16, u64::MAX, 16),
            (u64::MAX, 0, 16),
            (u64::MAX, u64::MAX, u32::MAX),
            (16, u64::from(u32::MAX), 16),
            // Fits a u32 line count, but not its words: 2^29 lines.
            (1 << 29, 0, 16),
        ] {
            let Err(e) = SimBackend::loader(SchemeKind::RwLeOpt, 4, buckets, prefill, extra, 1, 1)
            else {
                panic!("sized a store for prefill {prefill} + capacity {extra}");
            };
            assert!(e.contains("too large"), "{e}");
        }
    }

    #[test]
    fn sim_backend_roundtrips() {
        roundtrip(&sim());
    }

    #[test]
    fn native_backend_roundtrips() {
        roundtrip(&native());
    }

    #[test]
    fn sgl_backend_roundtrips() {
        roundtrip(&crate::native::SglBackend::create(200));
    }

    const BATCH: [MutOp; 4] = [
        MutOp::Put {
            key: 1000,
            value: 5,
        },
        MutOp::Del { key: 1 },
        MutOp::Put {
            key: 1000,
            value: 6,
        },
        MutOp::Del { key: 4000 },
    ];

    /// `apply_batch` must agree with sequential put/del semantics on
    /// every backend, amortized or not, and report the grace periods
    /// (`barriers + shared`) its publication strategy pays: `graces`.
    fn batched_mutations(backend: &dyn StoreBackend, graces: u64) {
        let mut s = backend.session();
        let mut replies = Vec::new();
        let out = s.apply_batch(&BATCH, &mut replies);
        assert_eq!(
            replies,
            vec![
                MutReply::Put(Ok(PutOutcome::Inserted)),
                MutReply::Del(true),
                MutReply::Put(Ok(PutOutcome::Updated)),
                MutReply::Del(false),
            ]
        );
        assert_eq!(out.barriers + out.shared, graces);
        assert_eq!(s.get(1000), Some(6));
        assert_eq!(s.get(1), None);
    }

    /// Shards of `sim()` and `native()` (4 each) that `BATCH` touches.
    fn batch_shards() -> u64 {
        crate::native::tests::touched_shards(&BATCH, 4)
    }

    #[test]
    fn sim_backend_batches() {
        // One write section per touched shard.
        assert_eq!(batch_shards(), 3, "the batch must share a shard");
        batched_mutations(&sim(), batch_shards());
        // And the barriers it reports are the sections it ran (one op
        // each in `ThreadStats`).
        let backend = sim();
        let mut s = backend.session();
        let out = s.apply_batch(&BATCH, &mut Vec::new());
        assert_eq!(s.take_stats().ops, out.barriers);
    }

    #[test]
    fn native_backend_batches() {
        // One publication cycle per touched shard: a shard's first has
        // nothing retired to wait out, each later one pays the grace
        // period its predecessor deferred.
        assert!(batch_shards() > 1, "the batch must span shards");
        let backend = native();
        batched_mutations(&backend, 0);
        let out = backend.session().apply_batch(&BATCH, &mut Vec::new());
        assert_eq!(out.barriers + out.shared, batch_shards());
    }

    #[test]
    fn sgl_backend_batches() {
        // A lock waits out no readers.
        batched_mutations(&crate::native::SglBackend::create(200), 0);
    }

    /// The torn-read invariant of the sharded-store test, parameterized
    /// over the backend: values are always `key` or `key + 1`, never a
    /// mix of bytes from both.
    fn mixed_ops_torn_free(backend: &dyn StoreBackend) -> StatsSummary {
        let (_wall, stats) = run_backend_threads(backend, 4, |t, sess| {
            for i in 0..200u64 {
                let key = (t as u64 * 131 + i * 7) % 400;
                match i % 4 {
                    0 => {
                        sess.put(key, key + 1).unwrap();
                    }
                    1 => {
                        if let Some(v) = sess.get(key) {
                            assert!(v == key || v == key + 1, "torn value {v} for {key}");
                        }
                    }
                    2 => {
                        sess.del(key);
                    }
                    _ => {
                        let mut out = Vec::new();
                        sess.scan(key, 8, &mut out);
                        for (k, v) in out {
                            assert!(v == k || v == k + 1, "torn scan {v} for {k}");
                        }
                    }
                }
            }
        });
        StatsSummary::from_threads(&stats)
    }

    /// PUT/DEL churn costs no capacity: a deleted key's node returns to
    /// the arena, so a store far smaller than the number of inserts it
    /// serves never sheds one. (When DELs leaked their nodes, a server
    /// that had inserted `--capacity` keys answered ServerFull for the
    /// rest of its life, however few were live.)
    #[test]
    fn sim_churn_recycles_deleted_nodes() {
        let backend = SimBackend::create(SchemeKind::RwLeOpt, 2, 16, 10, 100, 1, 1).unwrap();
        let before = backend.alloc.words_remaining();
        let mut s = backend.session();
        // An order of magnitude more inserts than the arena has lines.
        for i in 0..60_000u64 {
            let key = 1000 + i % 64;
            assert_eq!(s.put(key, i), Ok(PutOutcome::Inserted), "insert {i}");
            assert_eq!(s.get(key), Some(i));
            assert!(s.del(key));
            assert_eq!(s.get(key), None);
        }
        // One node serves the whole churn.
        assert!(before - backend.alloc.words_remaining() <= 8);
    }

    /// Recycling must not be visible to readers: writers churn their own
    /// keys through a single shard of two buckets (long chains, every
    /// unlinked node re-linked under another key moments later) while
    /// readers look up and scan. A value carries its key in the upper
    /// half, so a reader that found a node by one key and read the value
    /// another key had since stored into it — or walked into a re-linked
    /// node and lost the rest of its chain, missing a key that is never
    /// deleted — fails here.
    fn recycling_is_invisible_to_readers(scheme: SchemeKind) {
        const STABLE: u64 = 16;
        let tag = |key: u64, n: u64| key << 32 | n;
        // Four workers and the checking session below.
        let backend = SimBackend::create(scheme, 1, 2, STABLE, 64, 5, 7).unwrap();
        run_backend_threads(&backend, 4, |t, sess| {
            let mut out = Vec::new();
            for i in 0..1500u64 {
                if t < 2 {
                    // Writers: four keys each, inserted and deleted in
                    // turn so that some are always absent.
                    let key = 100 + t as u64 * 4 + i % 4;
                    sess.put(key, tag(key, i)).unwrap();
                    let victim = 100 + t as u64 * 4 + (i + 2) % 4;
                    sess.del(victim);
                } else {
                    let key = 100 + i % 8;
                    if let Some(v) = sess.get(key) {
                        assert_eq!(v >> 32, key, "{scheme:?}: value {v:#x} under key {key}");
                    }
                    let stable = i % STABLE;
                    assert_eq!(sess.get(stable), Some(stable), "{scheme:?}: lost a key");
                    out.clear();
                    sess.scan(96, 16, &mut out);
                    for &(k, v) in &out {
                        assert_eq!(v >> 32, k, "{scheme:?}: scanned {v:#x} under key {k}");
                    }
                }
            }
        });
        let mut s = backend.session();
        for key in 0..STABLE {
            assert_eq!(s.get(key), Some(key));
        }
    }

    #[test]
    fn recycled_nodes_stay_invisible_under_every_scheme_family() {
        for scheme in [
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
        ] {
            recycling_is_invisible_to_readers(scheme);
        }
    }

    #[test]
    fn sim_backend_mixed_ops_torn_free() {
        let s = mixed_ops_torn_free(&sim());
        // Reads are uninstrumented under RW-LE.
        assert!(s.commits(CommitKind::Uninstrumented) > 0);
    }

    #[test]
    fn native_backend_mixed_ops_torn_free() {
        let s = mixed_ops_torn_free(&native());
        assert!(s.commits(CommitKind::Uninstrumented) > 0);
        // Writer commits are ROT-emulated publications.
        assert!(s.commits(CommitKind::Rot) > 0);
        // The native path has no speculation to abort.
        assert_eq!(s.total_aborts(), 0);
    }

    #[test]
    fn backend_kind_parse_roundtrip() {
        for k in [BackendKind::Sim, BackendKind::Native] {
            assert_eq!(BackendKind::parse(k.name()), Some(k));
        }
        assert_eq!(BackendKind::parse("bogus"), None);
    }

    /// In-memory [`DurableSink`] recording every appended write-set.
    #[derive(Default)]
    pub(crate) struct MockSink {
        records: std::sync::Mutex<Vec<Vec<MutOp>>>,
    }

    impl DurableSink for MockSink {
        fn append(&self, ops: &[MutOp]) -> Lsn {
            let mut g = self.records.lock().unwrap();
            g.push(ops.to_vec());
            g.len() as Lsn
        }

        fn append_ordered(
            &self,
            exec: &mut dyn FnMut(&mut Vec<MutOp>) -> BatchOutcome,
        ) -> (BatchOutcome, Lsn) {
            let mut wset = Vec::new();
            let out = exec(&mut wset);
            let lsn = if wset.is_empty() {
                NO_LSN
            } else {
                self.append(&wset)
            };
            (out, lsn)
        }

        fn wait_durable(&self, _lsn: Lsn) {}
    }

    /// The native durable batch logs each touched shard's group, in
    /// `ops` order, as one record of its own — from that shard's cycle,
    /// so in shard order here — with the volatile path's replies and
    /// final state. Its LSN is the last record's.
    #[test]
    fn native_durable_batch_logs_one_record_per_touched_shard() {
        assert!(batch_shards() > 1, "the batch must span shards");
        let backend = native();
        let sink = MockSink::default();
        let mut s = backend.session();
        let mut replies = Vec::new();
        let (out, lsn) = s.apply_batch_durable(&BATCH, &mut replies, &sink);
        assert_eq!(out, BatchOutcome::default(), "first cycles pay nothing");
        assert_eq!(lsn, batch_shards());
        let mut groups = vec![Vec::new(); 4];
        group_by_shard(&BATCH, &mut groups);
        let per_shard: Vec<Vec<MutOp>> = (groups.iter().filter(|g| !g.is_empty()))
            .map(|g| g.iter().map(|&i| BATCH[i]).collect())
            .collect();
        assert_eq!(*sink.records.lock().unwrap(), per_shard);
        assert_eq!(
            replies,
            vec![
                MutReply::Put(Ok(PutOutcome::Inserted)),
                MutReply::Del(true),
                MutReply::Put(Ok(PutOutcome::Updated)),
                MutReply::Del(false),
            ]
        );
        assert_eq!(s.get(1000), Some(6));
        assert_eq!(s.get(1), None);
    }

    /// An empty batch is a no-op on every backend and every path:
    /// stale reply contents are cleared, no barrier is paid, and the
    /// durable path appends nothing (`NO_LSN`).
    fn empty_batch(backend: &dyn StoreBackend) {
        let mut s = backend.session();
        let mut replies = vec![MutReply::Del(true)]; // stale, must clear
        let out = s.apply_batch(&[], &mut replies);
        assert!(replies.is_empty());
        assert_eq!(out, BatchOutcome::default());
        let sink = MockSink::default();
        let (out, lsn) = s.apply_batch_durable(&[], &mut replies, &sink);
        assert_eq!(out, BatchOutcome::default());
        assert_eq!(lsn, NO_LSN);
        assert!(replies.is_empty());
        assert!(sink.records.lock().unwrap().is_empty());
    }

    #[test]
    fn sim_backend_empty_batch() {
        empty_batch(&sim());
    }

    #[test]
    fn native_backend_empty_batch() {
        empty_batch(&native());
    }

    #[test]
    fn sgl_backend_empty_batch() {
        empty_batch(&crate::native::SglBackend::create(200));
    }

    /// Replies are index-aligned with ops for every batch shape —
    /// including duplicate keys and batches larger than the shard count.
    fn replies_align(backend: &dyn StoreBackend) {
        let mut s = backend.session();
        for n in [1usize, 2, 7, 33] {
            let ops: Vec<MutOp> = (0..n)
                .map(|i| {
                    if i % 3 == 2 {
                        MutOp::Del {
                            key: (i / 3) as u64,
                        }
                    } else {
                        MutOp::Put {
                            key: 10_000 + (i % 5) as u64,
                            value: i as u64,
                        }
                    }
                })
                .collect();
            let mut replies = Vec::new();
            s.apply_batch(&ops, &mut replies);
            assert_eq!(replies.len(), ops.len(), "batch of {n}");
        }
    }

    #[test]
    fn sim_backend_replies_align() {
        replies_align(&sim());
    }

    #[test]
    fn native_backend_replies_align() {
        replies_align(&native());
    }

    /// A PUT that hits `StoreFull` mid-batch sheds only itself: the
    /// batch keeps going, replies stay index-aligned, and the durable
    /// filter drops the failed PUT from the logged write-set while
    /// keeping the ops after it.
    #[test]
    fn sim_store_full_mid_batch_sheds_only_the_failed_put() {
        // Tiny arena so fresh-key PUTs exhaust it quickly (the allocator
        // adds fixed slack, so shedding starts after some number of
        // batches rather than immediately).
        let backend = SimBackend::create(SchemeKind::RwLeOpt, 1, 16, 10, 0, 1, 1).unwrap();
        let sink = MockSink::default();
        let mut s = backend.session();
        let mut replies = Vec::new();
        let mut fresh = 1_000_000u64;
        for _ in 0..10_000 {
            let a = fresh;
            let b = fresh + 1;
            fresh += 2;
            let ops = [
                MutOp::Put { key: a, value: 1 },
                MutOp::Put { key: b, value: 2 },
                MutOp::Del { key: a },
            ];
            let (_out, lsn) = s.apply_batch_durable(&ops, &mut replies, &sink);
            assert_eq!(replies.len(), ops.len());
            let failed: Vec<usize> = replies
                .iter()
                .enumerate()
                .filter(|(_, r)| matches!(r, MutReply::Put(Err(_))))
                .map(|(i, _)| i)
                .collect();
            if failed.is_empty() {
                assert_ne!(lsn, NO_LSN, "effective writes must be logged");
                continue;
            }
            // The batch survived the failure: the trailing DEL was
            // still executed and answered.
            assert!(matches!(replies[2], MutReply::Del(_)));
            // The logged record holds exactly the effective write-set.
            let records = sink.records.lock().unwrap();
            let logged = records.last().expect("record for the shedding batch");
            assert_eq!(logged.len(), ops.len() - failed.len());
            for (i, op) in ops.iter().enumerate() {
                assert_eq!(
                    logged.contains(op),
                    !failed.contains(&i),
                    "op {i} in batch {ops:?} vs logged {logged:?}"
                );
            }
            return;
        }
        panic!("arena never filled — no StoreFull to exercise");
    }

    /// A log written by a full simulated store replays at the capacity
    /// it was written under. The last batch frees a node on shard 0 and
    /// wants one for a fresh key on shard 1: were that node free before
    /// the PUT's section, the PUT would commit live, but its replay, which
    /// comes before the DEL in `ops` order, would find the arena full.
    #[test]
    fn a_full_sim_store_logs_what_replays_at_its_capacity() {
        let store = || SimBackend::loader(SchemeKind::RwLeOpt, 2, 16, 10, 0, 1, 1).unwrap();
        let backend = store().finish();
        let sink = MockSink::default();
        let mut s = backend.session();
        let mut replies = Vec::new();
        let shed = MutReply::Put(Err(StoreFull));
        for key in 1_000_000.. {
            s.apply_batch_durable(&[MutOp::Put { key, value: key }], &mut replies, &sink);
            if replies == [shed] {
                break;
            }
        }
        let (fresh, held) = (64, 0);
        assert_eq!((shard_index(fresh, 2), shard_index(held, 2)), (1, 0));
        let ops = [
            MutOp::Put {
                key: fresh,
                value: 1,
            },
            MutOp::Del { key: held },
        ];
        s.apply_batch_durable(&ops, &mut replies, &sink);
        assert_eq!(replies, [shed, MutReply::Del(true)]);
        let mut loader = store();
        for (lsn, record) in sink.records.lock().unwrap().iter().enumerate() {
            assert_eq!(loader.apply(record), Ok(()), "record {}", lsn + 1);
        }
        let replayed = loader.finish();
        let mut r = replayed.session();
        assert_eq!((r.get(fresh), r.get(held)), (s.get(fresh), s.get(held)));
    }
}
