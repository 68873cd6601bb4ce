//! The native execution backend: the RW-LE protocol over plain process
//! memory.
//!
//! Readers are truly uninstrumented — `enter` the epoch set, load the
//! shard's root word, read one version of a plain [`LeafMap`], `exit`.
//! Writer commit is emulated as **epoch-quiesced copy-on-write
//! publication** (RCU's synchronize-then-free): each shard holds one
//! copy-on-write map. A writer applies its mutations under the shard's
//! writer mutex — each copies the nodes on its path that readers can see,
//! the leaf and its ancestors, unless an earlier mutation of the group
//! already did — then flips the root word to the new root (the commit
//! point — one aggregate store, the native stand-in for a ROT's
//! all-or-nothing store burst), waits one grace period on the existing
//! scalable summary-tree barrier so no reader can still hold the old
//! root, frees the nodes only the old root reached, and unlocks. That
//! lock → path copy → flip → barrier → free → unlock sequence is the
//! **cycle**, the backend's one unit of publication
//! (`NativeSession::cycle`): every shard group of a batch runs through
//! it, one shard at a time, so a writer waiting out its grace period
//! holds one shard mutex and nothing else. Each mutation is applied
//! once. Outside a cycle a shard's published root reaches its whole map
//! and no node waits to be freed.
//!
//! ## Read sections
//!
//! With the reader-side synchronisation this cheap, a read costs what
//! sits inside the section — the cache misses of the lookup — plus the
//! section's own three fenced operations. Both are shared where the
//! caller has more than one thing to read. `get_many` answers up to
//! [`GET_RUN`] keys per section: for each key the cached part of the
//! descent ([`Snapshot::locate`], which also asks the cache for the
//! leaf), and only then the searches inside the leaves, whose misses now
//! overlap. `scan` is one section over the shards its range covers, each
//! shard's first leaf located before any is walked.
//!
//! ## Shard layout
//!
//! Keys are sharded in blocks of 64 consecutive keys (about two full
//! leaves), striped round-robin over the shards: block `b` lives on
//! shard `b % n` (`backend::shard_index`, the layout the simulated store
//! shares). A range of `k` blocks therefore lives on
//! `min(k, n)` shards, consecutive modulo `n` — a 64-pair SCAN reads one
//! or two shards, not all of them. The price is locality of heat: a hot
//! range of keys is a hot shard (EXPERIMENTS.md, "A SCAN reads the
//! shards it covers", measures it on the Zipf mixes).
//!
//! A section picks a shard's root once — the SeqCst root-word load, the
//! first time the section asks for that shard (`Section::pick`) — and
//! reads that version until it ends, so everything one section reads of
//! one shard is a snapshot of it (two loads could straddle a flip and
//! show a batch's group half applied). Every root is picked, located
//! *and* read inside the one section whose `enter` preceded the load —
//! the borrow of the `Section` makes anything else a compile error — so
//! the ordering argument below is the single-key one, unchanged. What
//! does change is what a concurrent writer's barrier may have to wait
//! out: [`GET_RUN`] lookups, or one SCAN (at most the wire's `MAX_SCAN`
//! = 1024 pairs, 17 blocks, over at most 17 shards), instead of one
//! lookup or one shard's slice of a SCAN.
//!
//! What this keeps from the simulated backend: linearizable single-key
//! operations, torn-free reads, the quiescence-barrier structure (and
//! its `barrier_stalls`/`barriers_shared` accounting, including grace
//! sharing across shards through the one shared [`EpochSet`]). What it
//! drops: abort/commit breakdowns (nothing speculates, nothing aborts).
//! Plain memory has no access hooks, so schedule exploration steps at
//! the protocol's own points instead: the reader's root pick and each
//! step of the cycle (`sched::step`), with the shard mutex taken through
//! `try_lock` and `sched::Backoff` while a schedule runs, and every node
//! a cycle frees poisoned so that a reader reaching one panics
//! (`tests/native_schedules.rs`).
//!
//! ## Memory ordering
//!
//! A Release flip read by an Acquire load is *not* sufficient:
//! reader entry (clock store, then root-word load) races the writer's
//! commit (root-word store, then clock scan) in the classic
//! store-buffering shape, and with Release/Acquire both sides can miss
//! each other — the writer would free nodes a reader still traverses.
//! Exactly the lazy-subscription unsafety Dice et al. (arXiv:1407.6968)
//! catalog. Both the flip ([`LeafMap::publish`]) and the reader's root
//! load ([`Tree::pick`]) are therefore `SeqCst`, joining the protocol's
//! SeqCst commit-point discipline: in the single total order, either the
//! reader's clock store precedes the writer's scan (the barrier waits
//! for it) or the reader sees the new root (and never reaches a node the
//! cycle frees).

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, TryLockError};

use epoch::{sched, EpochSet};
use stats::{CommitKind, ThreadStats};

use crate::backend::{
    covered_shards, group_by_shard, scan_keys, shard_index, shard_keys, BatchOutcome, DurableSink,
    Lsn, MutOp, MutReply, StoreBackend, StoreFull, StoreLoader, StoreSession, NO_LSN,
};
use crate::leafmap::{LeafMap, Snapshot, Tree};
use crate::sharded::PutOutcome;

/// Lookups one read section serves: how many leaves `get_many` (keys)
/// and `scan` (shards) have in flight before the first is searched, and
/// so the longest run of lookups a writer's barrier waits behind.
pub const GET_RUN: usize = 16;

/// A read section in progress: made by [`NativeBackend::read`] for the
/// duration of its closure and by nothing else, so a version picked
/// through it cannot outlive the section that protects it.
struct Section<'p, 'a> {
    shards: &'a [NativeShard],
    /// Per shard, the version this section reads (`None` until asked).
    picked: &'p [Cell<Option<Snapshot<'a>>>],
}

impl Section<'_, '_> {
    /// Shard `s`'s version for this section: the one that was published
    /// when the section first asked.
    #[inline]
    fn pick(&self, s: usize) -> Snapshot<'_> {
        if let Some(version) = self.picked[s].get() {
            return version;
        }
        // SAFETY: this section's epoch entry precedes the pick, so a
        // writer that retires a node of this version frees it only
        // after a grace period that includes us — not while the section
        // (and with it this borrow) lasts.
        let version = unsafe { self.shards[s].tree.pick() };
        self.picked[s].set(Some(version));
        // A schedule may run a whole cycle between the pick and the
        // reads of this version.
        sched::step();
        version
    }
}

/// One shard: one copy-on-write map, whose nodes and root word readers
/// share and whose writer the mutex holds.
struct NativeShard {
    /// What readers descend: the map's nodes and its published root.
    tree: Arc<Tree>,
    /// The map's one writer, behind the mutex that serializes this
    /// shard's publications.
    writer: Mutex<LeafMap>,
}

impl NativeShard {
    /// A shard over `map`, which the loader changed in place: published
    /// here, before any reader exists, so readers start at the loaded
    /// root and the first cycle copies what it changes.
    fn new(mut map: LeafMap) -> NativeShard {
        map.publish();
        NativeShard {
            tree: map.tree(),
            writer: Mutex::new(map),
        }
    }

    /// Takes the writer mutex. Under a `sched` schedule a blocked lock
    /// would stall the one thread that runs while the holder waits for
    /// the baton, so it is a `try_lock` that hands the baton on instead.
    fn lock(&self) -> MutexGuard<'_, LeafMap> {
        if sched::is_scheduled() {
            let mut backoff = sched::Backoff::new();
            loop {
                match self.writer.try_lock() {
                    Ok(map) => return map,
                    Err(TryLockError::WouldBlock) => backoff.snooze(),
                    Err(TryLockError::Poisoned(_)) => {
                        panic!("a writer panicked inside its publication cycle")
                    }
                }
            }
        }
        self.writer
            .lock()
            .expect("a writer panicked inside its publication cycle")
    }
}

/// The native backend: plain-memory shards plus the shared epoch set
/// whose grace periods writers on *any* shard can share.
pub struct NativeBackend {
    shards: Vec<NativeShard>,
    epochs: EpochSet,
    next_tid: AtomicUsize,
    capacity: usize,
}

impl NativeBackend {
    /// Builds `n_shards` shards sized for `max_threads` sessions, with
    /// keys `0..prefill` pre-loaded as `value = key` (single-threaded,
    /// before any sharing).
    pub fn create(n_shards: usize, max_threads: usize, prefill: u64) -> NativeBackend {
        NativeBackend::loader(n_shards, max_threads, prefill).finish()
    }

    /// [`NativeBackend::create`] stopped before the store is handed out,
    /// so a redo log can be loaded into it first. Each shard's map is
    /// built bottom-up from its own keys, which its blocks give in
    /// ascending order ([`LeafMap::from_ascending`]).
    pub fn loader(n_shards: usize, max_threads: usize, prefill: u64) -> NativeLoader {
        assert!(n_shards > 0, "need at least one shard");
        assert!(max_threads > 0, "need at least one session slot");
        let maps = (0..n_shards)
            .map(|s| LeafMap::from_ascending(shard_keys(s, n_shards, prefill).map(|k| (k, k))))
            .collect();
        NativeLoader { maps, max_threads }
    }

    /// Runs `f` inside one epoch read section of slot `tid`, with
    /// `picked` (one cell per shard) as the section's memory of the
    /// versions it chose.
    #[inline]
    fn read<'a, R>(
        &'a self,
        tid: usize,
        picked: &[Cell<Option<Snapshot<'a>>>],
        f: impl FnOnce(&Section<'_, 'a>) -> R,
    ) -> R {
        for pick in picked {
            pick.set(None);
        }
        self.epochs.enter(tid);
        let out = f(&Section {
            shards: &self.shards,
            picked,
        });
        self.epochs.exit(tid);
        out
    }

    /// Claims the next epoch slot. Relaxed: the counter only hands out
    /// distinct indices; slot ownership is published by the thread
    /// itself through the epoch clock, not through this counter.
    fn register(&self) -> usize {
        let tid = self.next_tid.fetch_add(1, Ordering::Relaxed);
        assert!(
            tid < self.capacity,
            "native backend sized for {} sessions, session {} requested",
            self.capacity,
            tid + 1
        );
        tid
    }
}

/// The native store's [`StoreLoader`]: one [`LeafMap`] per shard and
/// nothing else — no mutex, flip or grace period, each op applied once
/// and in place. [`StoreLoader::finish`] publishes each map as its
/// shard's first version.
pub struct NativeLoader {
    maps: Vec<LeafMap>,
    max_threads: usize,
}

impl StoreLoader for NativeLoader {
    type Store = NativeBackend;

    fn apply(&mut self, ops: &[MutOp]) -> Result<(), StoreFull> {
        let n_shards = self.maps.len();
        for op in ops {
            apply_one(&mut self.maps[shard_index(op.key(), n_shards)], op);
        }
        Ok(())
    }

    fn finish(self) -> NativeBackend {
        NativeBackend {
            shards: self.maps.into_iter().map(NativeShard::new).collect(),
            epochs: EpochSet::new(self.max_threads),
            next_tid: AtomicUsize::new(0),
            capacity: self.max_threads,
        }
    }
}

impl StoreBackend for NativeBackend {
    fn session(&self) -> Box<dyn StoreSession + '_> {
        Box::new(NativeSession::new(self))
    }

    fn label(&self) -> &'static str {
        "native"
    }
}

/// Per-thread session over [`NativeBackend`]: an epoch slot plus the
/// scratch a publication cycle reuses across calls — the barrier
/// snapshot buffer, the per-shard op-index groups, and the writers of
/// the shards the running cycle has flipped but not yet freed (empty
/// between cycles) — and the per-shard picks of a read section.
struct NativeSession<'a> {
    backend: &'a NativeBackend,
    tid: usize,
    st: ThreadStats,
    snap: Vec<u64>,
    groups: Vec<Vec<usize>>,
    held: Vec<MutexGuard<'a, LeafMap>>,
    picked: Vec<Cell<Option<Snapshot<'a>>>>,
}

/// Applies one mutation to a map.
fn apply_one(map: &mut LeafMap, op: &MutOp) -> MutReply {
    match *op {
        MutOp::Put { key, value } => MutReply::Put(Ok(match map.insert(key, value) {
            None => PutOutcome::Inserted,
            Some(_) => PutOutcome::Updated,
        })),
        MutOp::Del { key } => MutReply::Del(map.remove(key).is_some()),
    }
}

impl StoreSession for NativeSession<'_> {
    fn get(&mut self, key: u64) -> Option<u64> {
        let n_shards = self.backend.shards.len();
        let out = self.backend.read(self.tid, &self.picked, |sec| {
            sec.pick(shard_index(key, n_shards)).get(key)
        });
        // Reads are uninstrumented, exactly as under simulated RW-LE.
        self.st.commit(CommitKind::Uninstrumented);
        out
    }

    fn get_many(&mut self, keys: &[u64], out: &mut Vec<Option<u64>>) {
        let n_shards = self.backend.shards.len();
        out.reserve(keys.len());
        for run in keys.chunks(GET_RUN) {
            self.backend.read(self.tid, &self.picked, |sec| {
                // Every leaf is asked for before any is searched, so the
                // run pays about one miss latency, not one per key.
                let mut spots = [None; GET_RUN];
                for (spot, &key) in spots.iter_mut().zip(run) {
                    let version = sec.pick(shard_index(key, n_shards));
                    *spot = Some((version, version.locate(key)));
                }
                for ((version, spot), &key) in spots.into_iter().flatten().zip(run) {
                    out.push(version.get_at(spot, key));
                }
            });
            for _ in run {
                self.st.commit(CommitKind::Uninstrumented);
            }
        }
    }

    fn scan(&mut self, start: u64, count: u32, out: &mut Vec<(u64, u64)>) {
        // One read section over the shards the range covers: those of
        // its blocks, consecutive modulo the shard count from the first
        // block's. Each shard holds only its own keys, so the ordered
        // map's range walk yields exactly this shard's slice — no
        // per-key shard filtering — and the slices, each already
        // ascending (and in order, unless the blocks wrapped around the
        // shards), only need merging behind what the caller had in `out`.
        let tail = out.len();
        if let Some(keys) = scan_keys(start, count) {
            let n_shards = self.backend.shards.len();
            let (first, covered) = covered_shards(&keys, n_shards);
            self.backend.read(self.tid, &self.picked, |sec| {
                for lo in (0..covered).step_by(GET_RUN) {
                    let mut spots = [None; GET_RUN];
                    for (spot, i) in spots.iter_mut().zip(lo..covered) {
                        let version = sec.pick((first + i) % n_shards);
                        *spot = Some((version, version.locate(start)));
                    }
                    for (version, spot) in spots.into_iter().flatten() {
                        version.range_at(spot, keys.clone(), out);
                    }
                }
            });
        }
        out[tail..].sort_unstable_by_key(|&(key, _)| key);
        self.st.commit(CommitKind::Uninstrumented);
    }

    /// The batch path: group per shard, then one [`NativeSession::cycle`]
    /// per touched shard — its whole group rides one flip and one grace
    /// period, and its writer lock is released before the next shard's
    /// is taken, so a batch never makes another worker wait on a shard
    /// it is not publishing right now.
    fn apply_batch(&mut self, ops: &[MutOp], replies: &mut Vec<MutReply>) -> BatchOutcome {
        let (out, _lsn) = self.apply_batch_inner(ops, replies, None);
        out
    }

    /// The durable override: the log needs the batch's commit order
    /// pinned while its one record is appended, so every touched shard
    /// goes through a *single* cycle that keeps each guard until after
    /// the append (flips → append → one barrier → frees → unlock).
    /// Two batches that conflict on any shard serialize their appends
    /// through that shard's lock, so log order equals commit order
    /// without a global order lock — and the group-commit fsync the
    /// append kicks off runs concurrently with the grace period.
    fn apply_batch_durable(
        &mut self,
        ops: &[MutOp],
        replies: &mut Vec<MutReply>,
        sink: &dyn DurableSink,
    ) -> (BatchOutcome, Lsn) {
        self.apply_batch_inner(ops, replies, Some(sink))
    }

    fn take_stats(&mut self) -> ThreadStats {
        std::mem::take(&mut self.st)
    }
}

impl<'a> NativeSession<'a> {
    fn new(backend: &'a NativeBackend) -> NativeSession<'a> {
        NativeSession {
            backend,
            tid: backend.register(),
            st: ThreadStats::new(),
            snap: Vec::new(),
            groups: vec![Vec::new(); backend.shards.len()],
            held: Vec::new(),
            picked: vec![Cell::new(None); backend.shards.len()],
        }
    }

    /// The unit of publication, and the only place a node is retired or
    /// freed: for each shard of `span` with a non-empty group — lock,
    /// apply the group (each op copying what of its path the published
    /// version still reaches), SeqCst flip; then the log append (if
    /// any), one grace period, and per shard the free of the nodes the
    /// old root alone reached, followed by its unlock.
    ///
    /// A shard flips once per cycle, after its group's last op, so
    /// readers see the whole group or none of it. The barrier takes its
    /// grace snapshot at entry, i.e. after the span's last flip, which
    /// is what lets one grace period cover every root the span retired:
    /// a reader still on any of them has an odd clock at the scan
    /// (module docs). Volatile callers pass one-shard spans and so hold
    /// one mutex at a time. Only a durable batch spans several shards;
    /// it takes them in ascending order, which cannot deadlock against
    /// another ascending span or a holder of a single lock.
    fn cycle(
        &mut self,
        span: Range<usize>,
        ops: &[MutOp],
        replies: &mut [MutReply],
        sink: Option<&dyn DurableSink>,
        out: &mut BatchOutcome,
    ) -> Lsn {
        let backend = self.backend;
        for s in span {
            if self.groups[s].is_empty() {
                continue;
            }
            let mut map = backend.shards[s].lock();
            for &i in &self.groups[s] {
                // The path copy: this op's leaf and its ancestors, those
                // the group has not copied yet.
                sched::step();
                replies[i] = apply_one(&mut map, &ops[i]);
                // The publication flip stands in for a ROT's aggregate
                // store: one ROT commit per mutation.
                self.st.commit(CommitKind::Rot);
            }
            sched::step();
            map.publish();
            self.held.push(map);
        }
        if self.held.is_empty() {
            return NO_LSN;
        }
        // Commit order is pinned by the guards in `held`, so this is
        // where the write-set is logged; the flush then rides the grace
        // period below. Native PUTs are infallible (process heap), so
        // `ops` *is* the effective write-set. The wal lock nests
        // strictly inside the shard locks, so lock order is acyclic.
        let lsn = sink.map_or(NO_LSN, |sink| sink.append(ops));
        sched::step();
        let barrier = backend
            .epochs
            .synchronize_in(Some(self.tid), &mut self.snap);
        self.st.barrier_stalls += barrier.stalls;
        self.st.barriers_shared += barrier.shared as u64;
        out.barriers += !barrier.shared as u64;
        out.shared += barrier.shared as u64;
        // Under a schedule, freed nodes are poisoned: a reader that
        // reaches one panics instead of reading a reused node.
        let poison = sched::is_scheduled();
        for mut map in self.held.drain(..) {
            // The grace period drained every reader that could have
            // picked a root older than this cycle's flip.
            sched::step();
            map.reclaim(poison);
        }
        lsn
    }

    /// The batch path shared by the volatile and durable entry points.
    fn apply_batch_inner(
        &mut self,
        ops: &[MutOp],
        replies: &mut Vec<MutReply>,
        sink: Option<&dyn DurableSink>,
    ) -> (BatchOutcome, Lsn) {
        replies.clear();
        let n_shards = self.backend.shards.len();
        group_by_shard(ops, &mut self.groups);
        replies.resize(ops.len(), MutReply::Del(false));
        // One cycle per shard, unless a sink needs the guards kept
        // until after its append: then one cycle spans every shard.
        let width = if sink.is_some() { n_shards } else { 1 };
        let (mut out, mut lsn) = (BatchOutcome::default(), NO_LSN);
        for lo in (0..n_shards).step_by(width) {
            lsn = lsn.max(self.cycle(lo..lo + width, ops, replies, sink, &mut out));
        }
        (out, lsn)
    }
}

/// Single-global-lock canary over plain process memory: one mutex around
/// one [`LeafMap`] (the container the RW-LE store uses, so the pair
/// differs in synchronisation only), none of the elision machinery. It
/// never publishes, so every write changes the map in place. This is the
/// `--scheme SGL --backend native` baseline the CI batching gate
/// normalizes against — it reports the `"native"` backend label so
/// `regress --relative-to SGL` can match it to the RW-LE native rows at
/// the same configuration (the drift key includes the backend tag).
pub struct SglBackend {
    map: Mutex<LeafMap>,
}

impl SglBackend {
    /// Builds the locked map with keys `0..prefill` pre-loaded as
    /// `value = key`.
    pub fn create(prefill: u64) -> SglBackend {
        SglBackend::loader(prefill).finish()
    }

    /// [`SglBackend::create`] stopped before the store is handed out, so
    /// a redo log can be loaded into it first. The map is built
    /// bottom-up ([`LeafMap::from_ascending`]).
    pub fn loader(prefill: u64) -> SglLoader {
        SglLoader(SglBackend {
            map: Mutex::new(LeafMap::from_ascending((0..prefill).map(|k| (k, k)))),
        })
    }
}

/// The canary's [`StoreLoader`]: the map behind the lock, reached
/// through `Mutex::get_mut` because the loader owns it.
pub struct SglLoader(SglBackend);

impl StoreLoader for SglLoader {
    type Store = SglBackend;

    fn apply(&mut self, ops: &[MutOp]) -> Result<(), StoreFull> {
        let map = self
            .0
            .map
            .get_mut()
            .expect("nothing else can hold the lock");
        for op in ops {
            apply_one(map, op);
        }
        Ok(())
    }

    fn finish(self) -> SglBackend {
        self.0
    }
}

impl StoreBackend for SglBackend {
    fn session(&self) -> Box<dyn StoreSession + '_> {
        Box::new(SglSession {
            backend: self,
            st: ThreadStats::new(),
        })
    }

    fn label(&self) -> &'static str {
        "native"
    }
}

/// Per-thread session over [`SglBackend`]: every operation takes the
/// global lock. `apply_batch` takes it once per op and `get_many` keeps
/// the default per-key loop — the canary must not benefit from the
/// batching machinery it exists to baseline.
struct SglSession<'a> {
    backend: &'a SglBackend,
    st: ThreadStats,
}

impl StoreSession for SglSession<'_> {
    fn get(&mut self, key: u64) -> Option<u64> {
        let out = self.backend.map.lock().unwrap().snapshot().get(key);
        self.st.commit(CommitKind::Sgl);
        out
    }

    fn scan(&mut self, start: u64, count: u32, out: &mut Vec<(u64, u64)>) {
        if let Some(keys) = scan_keys(start, count) {
            self.backend.map.lock().unwrap().snapshot().range(keys, out);
        }
        self.st.commit(CommitKind::Sgl);
    }

    /// The deliberate per-op loop: a lock waits out no readers, so the
    /// batch pays no grace period.
    fn apply_batch(&mut self, ops: &[MutOp], replies: &mut Vec<MutReply>) -> BatchOutcome {
        replies.clear();
        for op in ops {
            let reply = apply_one(&mut self.backend.map.lock().expect("canary poisoned"), op);
            replies.push(reply);
            self.st.commit(CommitKind::Sgl);
        }
        BatchOutcome::default()
    }

    fn take_stats(&mut self) -> ThreadStats {
        std::mem::take(&mut self.st)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::driver::run_backend_threads;
    use std::sync::TryLockError;

    /// How many of `n_shards` shards `ops` touch: the grace periods
    /// (`barriers + shared`) a volatile batch of them pays.
    pub(crate) fn touched_shards(ops: &[MutOp], n_shards: usize) -> u64 {
        let mut groups = vec![Vec::new(); n_shards];
        group_by_shard(ops, &mut groups);
        groups.iter().filter(|g| !g.is_empty()).count() as u64
    }

    /// The one image of each shard, checked once nothing is running:
    /// the published root reaches the whole map, and every node the map
    /// handed out is reachable from it or free — none retired and left
    /// behind, none lost.
    fn assert_one_image(backend: &mut NativeBackend) {
        for shard in &mut backend.shards {
            shard.writer.get_mut().unwrap().audit_published();
        }
    }

    /// The load path applies each op once, in place, and `finish`
    /// publishes each map as it is. (That the loaded store equals the
    /// published one is `wal`'s `native_backend_replay_equals_store`.)
    #[test]
    fn a_loaded_store_is_one_whole_image() {
        let records: [&[MutOp]; 4] = [
            &[MutOp::Put { key: 3, value: 1 }, MutOp::Del { key: 5 }],
            &[],
            &[
                MutOp::Put {
                    key: u64::MAX,
                    value: 2,
                },
                MutOp::Put { key: 3, value: 4 },
                MutOp::Del { key: 1000 },
            ],
            &[MutOp::Put { key: 0, value: 6 }, MutOp::Del { key: 3 }],
        ];
        let mut loader = NativeBackend::loader(4, 1, 20);
        for ops in records {
            loader.apply(ops).unwrap();
        }
        assert_one_image(&mut loader.finish());
    }

    #[test]
    fn the_image_stays_whole_after_writes() {
        let mut backend = NativeBackend::create(2, 2, 20);
        {
            let mut s = backend.session();
            s.put(100, 7).unwrap();
            s.del(5);
            s.put(3, 99).unwrap();
        }
        assert_one_image(&mut backend);
    }

    /// The bulk-built prefill on every shard layout, and the canary's:
    /// each key below the prefill reads back as itself, the prefill's
    /// own key is absent, and one scan past the end returns exactly the
    /// prefill, ascending. Sizes around a block (64) and around a round
    /// of 16 blocks, and one of 200 to 3 200 leaves per shard.
    #[test]
    fn the_prefill_reads_back_on_every_shard_layout() {
        let check = |store: &dyn StoreBackend, prefill: u64, what: &str| {
            let mut s = store.session();
            for key in 0..prefill {
                assert_eq!(s.get(key), Some(key), "{what}: key {key}");
            }
            assert_eq!(s.get(prefill), None, "{what}: key {prefill}");
            let mut out = Vec::new();
            s.scan(0, prefill as u32 + 1, &mut out);
            assert!(
                out.iter().copied().eq((0..prefill).map(|k| (k, k))),
                "{what}: scan"
            );
        };
        for prefill in [0, 1, 63, 64, 65, 64 * 16 + 1, 100_003] {
            for n_shards in [1, 3, 16] {
                let mut backend = NativeBackend::create(n_shards, 1, prefill);
                check(
                    &backend,
                    prefill,
                    &format!("{n_shards} shards, prefill {prefill}"),
                );
                assert_one_image(&mut backend);
            }
            check(
                &SglBackend::create(prefill),
                prefill,
                &format!("canary, prefill {prefill}"),
            );
        }
    }

    #[test]
    fn writer_barrier_accounting_flows_into_stats() {
        let backend = NativeBackend::create(1, 2, 0);
        let mut s = backend.session();
        for k in 0..50 {
            s.put(k, k).unwrap();
        }
        let st = s.take_stats();
        assert_eq!(st.commits(CommitKind::Rot), 50);
        assert_eq!(st.ops, 50);
    }

    #[test]
    #[should_panic(expected = "sized for 1 sessions")]
    fn oversubscribed_sessions_panic() {
        let backend = NativeBackend::create(1, 1, 0);
        let _a = backend.session();
        let _b = backend.session();
    }

    #[test]
    fn batched_apply_matches_sequential_semantics() {
        let mut backend = NativeBackend::create(4, 2, 10);
        let mut s = backend.session();
        let ops = [
            MutOp::Put { key: 100, value: 1 },
            MutOp::Del { key: 3 },
            // Same key twice in one batch: ops order must hold.
            MutOp::Put { key: 100, value: 2 },
            MutOp::Del { key: 100 },
            MutOp::Put { key: 7, value: 9 },
        ];
        let mut replies = Vec::new();
        let out = s.apply_batch(&ops, &mut replies);
        // One cycle, hence one grace period (own or shared), per touched
        // shard — however many of the batch's ops landed on it.
        assert_eq!(out.barriers + out.shared, touched_shards(&ops, 4));
        assert_eq!(
            replies,
            vec![
                MutReply::Put(Ok(PutOutcome::Inserted)),
                MutReply::Del(true),
                MutReply::Put(Ok(PutOutcome::Updated)),
                MutReply::Del(true),
                // Key 7 was prefilled.
                MutReply::Put(Ok(PutOutcome::Updated)),
            ]
        );
        assert_eq!(s.get(100), None);
        assert_eq!(s.get(7), Some(9));
        let st = s.take_stats();
        assert_eq!(st.commits(CommitKind::Rot), 5);
        drop(s);
        assert_one_image(&mut backend);
    }

    /// `want` disjoint key pairs `(k, k + d)` from `from` upwards whose
    /// two keys live in the same shard (and within one short scan).
    fn same_shard_pairs(n_shards: usize, want: usize, from: u64) -> Vec<(u64, u64)> {
        (from..)
            .step_by(8)
            .filter_map(|k| {
                let d =
                    (1..8).find(|d| shard_index(k + d, n_shards) == shard_index(k, n_shards))?;
                Some((k, k + d))
            })
            .take(want)
            .collect()
    }

    /// A shard's group is published by one flip: two keys of one shard
    /// written with equal values in one batch never differ to a reader
    /// that looks at both inside one read section (a scan, or both keys
    /// in one `get_many`), and never run backwards across two (a get of
    /// each). Real threads, so this also drives frees-vs-reader on
    /// plain memory.
    #[test]
    fn shard_groups_are_never_seen_torn() {
        const WRITERS: usize = 2;
        const READERS: usize = 3;
        const PAIRS: usize = 6;
        // Not a multiple of 4: the last round puts every pair.
        const ROUNDS: u64 = 1501;
        for n_shards in [1, 3, 16] {
            // One more slot for the final check: slots are not recycled.
            let mut backend = NativeBackend::create(n_shards, WRITERS + READERS + 1, 0);
            let pairs = same_shard_pairs(n_shards, WRITERS * PAIRS, 1000);
            run_backend_threads(&backend, WRITERS + READERS, |t, sess| {
                if t < WRITERS {
                    let own = &pairs[t * PAIRS..(t + 1) * PAIRS];
                    let mut replies = Vec::new();
                    for v in 1..=ROUNDS {
                        let ops: Vec<MutOp> = own
                            .iter()
                            .enumerate()
                            .flat_map(|(p, &(a, b))| {
                                // Every few rounds one pair is deleted
                                // (and rewritten the round after).
                                if v % 4 == 0 && (v / 4) as usize % PAIRS == p {
                                    [MutOp::Del { key: a }, MutOp::Del { key: b }]
                                } else {
                                    [
                                        MutOp::Put { key: a, value: v },
                                        MutOp::Put { key: b, value: v },
                                    ]
                                }
                            })
                            .collect();
                        sess.apply_batch(&ops, &mut replies);
                    }
                    return;
                }
                let (mut out, mut both) = (Vec::new(), Vec::new());
                for i in 0..2 * ROUNDS as usize {
                    let (a, b) = pairs[(t + i) % pairs.len()];
                    out.clear();
                    sess.scan(a, (b - a + 1) as u32, &mut out);
                    let at = |key| out.iter().find(|&&(k, _)| k == key).map(|&(_, v)| v);
                    assert_eq!(
                        at(a),
                        at(b),
                        "torn group on keys {a}/{b}, {n_shards} shards"
                    );
                    both.clear();
                    sess.get_many(&[a, b], &mut both);
                    assert_eq!(
                        both[0], both[1],
                        "torn run on keys {a}/{b}, {n_shards} shards"
                    );
                    if let (Some(first), Some(second)) = (sess.get(a), sess.get(b)) {
                        assert!(
                            second >= first,
                            "key {b} ran backwards: {first} then {second}"
                        );
                    }
                }
            });
            let mut s = backend.session();
            for &(a, b) in &pairs {
                assert_eq!(s.get(a), Some(ROUNDS));
                assert_eq!(s.get(b), Some(ROUNDS));
            }
            drop(s);
            assert_one_image(&mut backend);
        }
    }

    /// The property the one-shard cycle exists for: a volatile batch
    /// that touches every shard never holds two shard mutexes at once.
    ///
    /// The main thread sits in a read section, so whichever cycle the
    /// batch is in cannot get past its barrier — it is *parked* holding
    /// what it holds — until the probe has looked 50 times; then the
    /// reader steps out and back in, which lets the batch advance a
    /// cycle or a few. The batch takes its shards in ascending order;
    /// the probe sweeps them in *descending* order with `try_lock` and
    /// keeps what it gets until the sweep ends, so the writer cannot
    /// step onto a shard the probe has already passed: two misses in
    /// one sweep mean the batch held both of those mutexes at once.
    #[test]
    fn volatile_batch_holds_one_shard_lock_at_a_time() {
        const SHARDS: usize = 32;
        let backend = NativeBackend::create(SHARDS, 2, 0);
        let ops: Vec<MutOp> = (0..2048).map(|k| MutOp::Put { key: k, value: k }).collect();
        assert_eq!(
            touched_shards(&ops, SHARDS),
            SHARDS as u64,
            "the batch must span every shard"
        );
        let reader = backend.register();
        let (mut misses, mut worst) = (0, 0);
        // Entered before the batch starts: its first barrier meets us.
        backend.epochs.enter(reader);
        std::thread::scope(|sc| {
            let batch = sc.spawn(|| backend.session().apply_batch(&ops, &mut Vec::new()));
            while worst <= 1 && !batch.is_finished() {
                let mut caught = 0;
                while caught < 50 && worst <= 1 && !batch.is_finished() {
                    let mut kept = Vec::with_capacity(SHARDS);
                    let mut busy = 0;
                    for shard in backend.shards.iter().rev() {
                        match shard.writer.try_lock() {
                            Ok(guard) => kept.push(guard),
                            Err(TryLockError::WouldBlock) => busy += 1,
                            Err(TryLockError::Poisoned(_)) => panic!("the writer panicked"),
                        }
                    }
                    drop(kept);
                    worst = worst.max(busy);
                    caught += busy;
                    // All mutexes are free here: let a blocked writer in.
                    std::thread::yield_now();
                }
                misses += caught;
                backend.epochs.exit(reader);
                backend.epochs.enter(reader);
            }
            // Step out before the scope joins the writer, which may
            // still be parked behind this section.
            backend.epochs.exit(reader);
        });
        assert!(
            worst <= 1,
            "{worst} shard mutexes held at once by one volatile batch"
        );
        assert!(misses >= 50, "the first cycle was parked behind the reader");
    }

    /// `scan` is the canary's `scan` on every shard layout: both stores
    /// take the same mutations — holes in the prefill, a sparse run
    /// beyond it, and a populated top of the key space — and then every
    /// count around a block (64) and the wire's limit (1024), from block
    /// edges, mid-block and up against `u64::MAX`. The 32-shard scan of
    /// 1024 pairs from mid-block covers 17 blocks, one more than a
    /// section locates at once ([`GET_RUN`]).
    #[test]
    fn scan_equals_the_canary_on_every_shard_layout() {
        const TOP: u64 = u64::MAX;
        let ops: Vec<MutOp> = (0..3000)
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
        let canary = SglBackend::create(3000);
        let mut model = canary.session();
        model.apply_batch(&ops, &mut Vec::new());
        for n_shards in [1, 3, 16, 32] {
            let backend = NativeBackend::create(n_shards, 1, 3000);
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

    /// What the shard layout buys: a scan's section picks the roots of
    /// the shards its blocks live on and no others — at most two for 64
    /// pairs from any start, `min(17, n)` for 1024 pairs from mid-block
    /// (16 from a block edge). A section resets its cells when it starts,
    /// not when it ends, so after `scan` returns they still show what
    /// its section picked.
    #[test]
    fn a_scan_picks_only_the_shards_its_range_covers() {
        const TOP: u64 = u64::MAX;
        for n_shards in [1, 3, 16, 32] {
            let backend = NativeBackend::create(n_shards, 1, 4096);
            let mut s = NativeSession::new(&backend);
            let mut picks = |start, count| {
                s.scan(start, count, &mut Vec::new());
                s.picked.iter().filter(|p| p.get().is_some()).count()
            };
            for start in [0, 1, 63, 64, 100, 1000, 4090, TOP - 64, TOP - 63, TOP] {
                let two = picks(start, 64);
                assert!(two <= 2, "{n_shards} shards: 64 from {start} picked {two}");
            }
            for start in [1, 63, 100, 1000] {
                assert_eq!(picks(start, 1024), n_shards.min(17), "{n_shards} shards");
            }
            assert_eq!(picks(0, 1024), n_shards.min(16), "{n_shards} shards");
            assert_eq!(picks(TOP - 100, 1024), n_shards.min(2), "{n_shards} shards");
        }
    }

    #[test]
    fn empty_batch_pays_no_barrier() {
        let backend = NativeBackend::create(2, 1, 0);
        let mut s = backend.session();
        let mut replies = vec![MutReply::Del(true)];
        let out = s.apply_batch(&[], &mut replies);
        assert_eq!(out, BatchOutcome::default());
        assert!(replies.is_empty());
    }

    #[test]
    fn sgl_canary_reports_native_label_and_sgl_commits() {
        let backend = SglBackend::create(20);
        assert_eq!(backend.label(), "native");
        let mut s = backend.session();
        assert_eq!(s.get(7), Some(7));
        assert_eq!(s.put(100, 1), Ok(PutOutcome::Inserted));
        assert!(s.del(100));
        let mut out = Vec::new();
        s.scan(0, 5, &mut out);
        assert_eq!(out.len(), 5);
        assert_eq!(s.take_stats().commits(CommitKind::Sgl), 4);
    }
}
