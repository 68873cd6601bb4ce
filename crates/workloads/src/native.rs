//! The native execution backend: the RW-LE protocol over plain process
//! memory.
//!
//! Readers are truly uninstrumented — `enter` the epoch set, load the
//! shard's version word, read that version of a plain [`LeafMap`],
//! `exit`. Writer commit is emulated as **epoch-quiesced versioned
//! publication** (RCU's synchronize-then-free): each shard holds one
//! map whose child references are two-version child words (`leafmap`
//! module docs, "Versions"). A writer applies its mutations under the
//! shard's writer mutex into the version being built — a leaf-only
//! write copies its leaf and swaps the one child word above it in place,
//! a split or an unlink also copies the routing nodes whose children
//! change, unless an earlier mutation of the group already did — then
//! stores the new version number into the version word (the commit
//! point — one aggregate store, the native stand-in for a ROT's
//! all-or-nothing store burst), notes the grace ticket of that flip and
//! unlocks. The nodes only the old version reached, and the `prev`
//! halves of the words it swapped, wait for the shard's next cycle,
//! which frees the nodes and may overwrite the words, once a grace
//! period on the existing scalable summary-tree barrier has passed since
//! the flip, so no reader can still hold the version before it. That
//! lock → pass the last flip's grace period and free what it retired →
//! copy and swap → flip → (append) → ticket → unlock sequence is the
//! **cycle**, the backend's one unit of publication
//! (`NativeSession::cycle`): every shard group of a batch runs through
//! it, one shard at a time, so a writer waiting out a grace period holds
//! one shard mutex and nothing else. Each mutation is applied once.
//! Between cycles a shard's published version reaches its whole map,
//! and at most its last cycle's retired nodes wait to be freed.
//!
//! ## Read sections
//!
//! With the reader-side synchronisation this cheap, a read costs what
//! sits inside the section — the cache misses of the lookup — plus the
//! section's own three fenced operations. Both are shared where the
//! caller has more than one thing to read. `get_many` answers up to
//! [`GET_RUN`] keys per section as one staged lookup (`leafmap::find`):
//! every key's pick first, then each routing level for every key of the
//! run, then the leaves' searches, then the values, each stage asking
//! the cache for the nodes the next one reads, whole — so the run pays
//! about one miss latency per stage, not one per key and level. A run
//! of one is a lone `get`. `scan` is one section over the shards its
//! range covers: their first leaves found as one staged group
//! (`leafmap::descend`), then each shard walked leaf to leaf through the
//! parent's child words, the next leaf asked for while the current one
//! is read.
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
//! A section picks a shard's version once — the SeqCst version-word
//! load, the first time the section asks for that shard
//! (`Section::pick`) — and reads that version until it ends, so
//! everything one section reads of one shard is a snapshot of it (two
//! loads could straddle a flip and show a batch's group half applied).
//! Every version is picked, descended *and* read inside the one section
//! whose `enter` preceded the load —
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
//! the protocol's own points instead: the reader's version pick, each
//! step of the cycle and each child word a cycle swaps
//! (`sched::step`), with the shard mutex taken through
//! `try_lock` and `sched::Backoff` while a schedule runs, and every node
//! a cycle frees poisoned so that a reader reaching one panics
//! (`tests/native_schedules.rs`).
//!
//! ## Durability
//!
//! With a [`DurableSink`] each cycle appends its own group, in `ops`
//! order, as one record, after its flip and under its shard's lock: the
//! records of one shard are in commit order, records of different
//! shards touch different keys and commute, and a batch's ack waits
//! for its highest LSN. No cycle holds more than one lock, so there is
//! no lock order to keep.
//!
//! ## Memory ordering
//!
//! A Release flip read by an Acquire load is *not* sufficient:
//! reader entry (clock store, then version-word load) races the
//! writer's commit (version-word store, then clock scan) in the classic
//! store-buffering shape, and with Release/Acquire both sides can miss
//! each other — the writer would overwrite the words and free the nodes
//! of a version a reader still traverses. Exactly the lazy-subscription
//! unsafety Dice et al. (arXiv:1407.6968) catalog. Both the flip
//! ([`LeafMap::publish`]) and the reader's version load ([`Tree::pick`])
//! are therefore `SeqCst`, joining the protocol's SeqCst commit-point
//! discipline. The grace ticket a cycle notes
//! ([`EpochSet::grace_snapshot`], SeqCst) is taken *after* its flip, so
//! the barrier that covers it — the next cycle's own, or any other
//! writer's that began after the ticket — scans the clocks after the
//! flip: in the single total order, either the reader's clock store
//! precedes that scan (the barrier waits for it) or the reader sees the
//! new version (and never takes a word's `prev` half, nor reaches a node,
//! that the next cycle overwrites or frees). A ticket taken before the
//! flip could be covered by a grace period whose scan ran before it, and
//! missed a reader that picked the old version in between.
//!
//! Inside a version, each child word is message passing: the writer
//! writes a copy whole, then stores the word that names it (Release); a
//! reader loads the word (Acquire) and reads the copy's `born` to decide
//! between its halves. A reader that picked version `v` while cycle
//! `v + 1` swaps words sees each word before or after its swap, and
//! takes `v`'s child either way.

use std::alloc::{dealloc, Layout};
use std::cell::Cell;
use std::collections::HashSet;
use std::ops::Range;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, TryLockError};

use epoch::{sched, EpochSet};
use stats::{CommitKind, ThreadStats};

use crate::backend::{
    covered_shards, group_by_shard, scan_keys, shard_blocks, shard_index, BatchOutcome,
    DurableSink, Lsn, MutOp, MutReply, StoreBackend, StoreFull, StoreLoader, StoreSession, NO_LSN,
};
use crate::leafmap::{
    self, alloc_advised, huge_bytes, Builder, Group, LeafMap, Leaves, Probe, Snapshot, Tree,
};
use crate::sharded::PutOutcome;

/// Lookups one read section serves: how many keys `get_many` and how
/// many shards `scan` descend to in one staged group, and so the longest
/// run of lookups a writer's barrier waits behind.
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

/// One shard: one versioned map, whose nodes and version and root
/// words readers share and whose writer the mutex holds.
struct NativeShard {
    /// What readers descend: the map's nodes and its published version.
    tree: Arc<Tree>,
    /// The map's one writer, and the grace ticket its last cycle noted
    /// after its flip (`None` before the first), behind the mutex that
    /// serializes this shard's publications. The map's retired nodes are
    /// that cycle's, free once a grace period has covered the ticket.
    writer: Mutex<(LeafMap, Option<u64>)>,
}

impl NativeShard {
    /// A shard over `map`, which the loader changed in place: published
    /// here, before any reader exists, so readers start at the loaded
    /// version and the first cycle copies what it changes. Every child
    /// word of a loaded map is settled, so that cycle may swap them
    /// without a grace period before it.
    fn new(mut map: LeafMap) -> NativeShard {
        map.publish();
        NativeShard {
            tree: map.tree(),
            writer: Mutex::new((map, None)),
        }
    }

    /// Takes the writer mutex. Under a `sched` schedule a blocked lock
    /// would stall the one thread that runs while the holder waits for
    /// the baton, so it is a `try_lock` that hands the baton on instead.
    fn lock(&self) -> MutexGuard<'_, (LeafMap, Option<u64>)> {
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
    /// keys `0..prefill` pre-loaded as `value = key`, before any
    /// sharing: each shard's map is one bulk build, and a large store's
    /// builds run on the host's cores ([`StoreLoader::finish`]).
    pub fn create(n_shards: usize, max_threads: usize, prefill: u64) -> NativeBackend {
        NativeBackend::loader(n_shards, max_threads, prefill).finish()
    }

    /// [`NativeBackend::create`] stopped before the store is handed out,
    /// so a redo log can be loaded into it first. It builds nothing yet:
    /// [`StoreLoader::finish`] builds each shard's map once, from its
    /// prefill keys merged with the sorted log.
    pub fn loader(n_shards: usize, max_threads: usize, prefill: u64) -> NativeLoader {
        assert!(n_shards > 0, "need at least one shard");
        assert!(max_threads > 0, "need at least one session slot");
        NativeLoader {
            merge: LogMerge::new(n_shards, prefill),
            max_threads,
        }
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

/// The native store's [`StoreLoader`]: the log buffered per shard and
/// merged into each shard's map at [`StoreLoader::finish`], which then
/// publishes each map as its shard's first version. No mutex, flip or
/// grace period: nothing can read the store yet.
pub struct NativeLoader {
    merge: LogMerge,
    max_threads: usize,
}

impl StoreLoader for NativeLoader {
    type Store = NativeBackend;

    fn expect(&mut self, ops: usize) {
        self.merge.expect(ops);
    }

    fn apply(&mut self, ops: &[MutOp]) -> Result<(), StoreFull> {
        self.merge.buffer(ops);
        Ok(())
    }

    fn finish(self) -> NativeBackend {
        NativeBackend {
            shards: self
                .merge
                .finish()
                .into_iter()
                .map(NativeShard::new)
                .collect(),
            epochs: EpochSet::new(self.max_threads),
            next_tid: AtomicUsize::new(0),
            capacity: self.max_threads,
        }
    }
}

/// Log ops both native loaders buffer before they fold them into their
/// maps: 4 Mi ops, 64 MiB at 16 B an op. A longer log is merged in
/// rounds of this many ops, each streaming the maps the round before
/// built.
const FOLD_OPS: usize = 4 << 20;

/// The fewest pairs and ops, base and run together, a fold hands each
/// of its threads: a smaller fold runs on fewer threads, or inline. A
/// fold thread costs about 200 KiB of resident memory, mostly its stack
/// and allocator arena and the code that starts it — 5 % of a 100 k-key
/// store's — and saved at most 0.5 ms of a 100 k-key prefill's 1.6 ms
/// merge (2 vCPUs). A 4 M-key prefill is three shares.
const FOLD_SHARE: usize = 1 << 20;

/// The value a buffered DEL holds. A PUT of this value is buffered the
/// same way and told apart by [`LogMerge::tombstone_puts`].
const TOMBSTONE: u64 = u64::MAX;

/// Start-up as one sorted merge, what both native loaders do with a
/// redo log. [`LogMerge::buffer`] appends each op to its shard's run as
/// `(key, value)`, a DEL as `(key, TOMBSTONE)`; a fold sorts each run by
/// key, stably, so log order decides among a key's ops, keeps each
/// key's last op, and builds the shard's map once, bottom-up, from the
/// run merged with the shard's previous contents ([`merge`]). Until the
/// first fold those are the shard's prefill keys, after it the map the
/// fold built. No `insert` or `remove` runs: the cost is the final
/// state's size plus a sort, not a descent per logged op. A large
/// fold spreads its shards over threads ([`LogMerge::fold`]); the ops
/// are buffered on the loader's thread, into runs sized from the log's
/// length before the first push ([`LogMerge::expect`]).
struct LogMerge {
    prefill: u64,
    /// Each shard's map, once a fold has built it.
    maps: Option<Vec<LeafMap>>,
    /// Each shard's buffered ops, in log order.
    runs: Runs,
    /// The keys whose last buffered op is a PUT of [`TOMBSTONE`]'s value.
    tombstone_puts: HashSet<u64>,
    buffered: usize,
    /// The sort's second buffer, shared by the runs a fold merges on
    /// this thread (a fold thread has its own).
    spare: Vec<(u64, u64)>,
}

impl LogMerge {
    fn new(n_shards: usize, prefill: u64) -> LogMerge {
        LogMerge {
            prefill,
            maps: None,
            runs: Runs::with_slots(n_shards, 0, 0),
            tombstone_puts: HashSet::new(),
            buffered: 0,
            spare: Vec::new(),
        }
    }

    /// Sizes the runs for a log of about `ops` ops (at most
    /// [`FOLD_OPS`] of them are buffered at once), before the first
    /// push: each shard's slot holds its share and a sixteenth more, so
    /// a shard rarely outgrows it and the runs touch no page twice
    /// (regrowing costs a copy of every run). Ignored once an op is
    /// buffered, and for an empty log.
    fn expect(&mut self, ops: usize) {
        if ops == 0 || self.buffered > 0 || self.maps.is_some() {
            return;
        }
        let n_shards = self.runs.lens.len();
        let ops = ops.min(FOLD_OPS);
        let share = ops.div_ceil(n_shards);
        self.runs = Runs::with_slots(n_shards, share + share / 16 + 64, ops);
    }

    /// Buffers one record's ops, folding past [`FOLD_OPS`].
    fn buffer(&mut self, ops: &[MutOp]) {
        let n_shards = self.runs.lens.len();
        for op in ops {
            let (key, value) = match *op {
                MutOp::Put { key, value } => (key, value),
                MutOp::Del { key } => (key, TOMBSTONE),
            };
            if matches!(op, MutOp::Put { .. }) && value == TOMBSTONE {
                self.tombstone_puts.insert(key);
            } else if !self.tombstone_puts.is_empty() {
                self.tombstone_puts.remove(&key);
            }
            self.runs.push(shard_index(key, n_shards), (key, value));
        }
        self.buffered += ops.len();
        if self.buffered >= FOLD_OPS {
            self.fold();
        }
    }

    /// Merges every run into its shard's map and empties it, on as many
    /// threads as the host runs at once, as long as each gets at least
    /// [`FOLD_SHARE`] pairs and ops to merge ([`LogMerge::fold_on`]).
    fn fold(&mut self) {
        let pairs = match &self.maps {
            Some(maps) => maps.iter().map(LeafMap::len).sum(),
            None => usize::try_from(self.prefill).unwrap_or(usize::MAX),
        };
        let shares = pairs.saturating_add(self.buffered) / FOLD_SHARE;
        // Under two shares the fold is inline on any host, so it does
        // not ask for the core count (which reads the cgroup files).
        let workers = match shares {
            0 | 1 => 1,
            _ => std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .min(shares),
        };
        self.fold_on(workers);
    }

    /// Merges every run into its shard's map and empties it, spread
    /// over at most `workers` scoped threads, each folding a
    /// consecutive range of shards with its own sort buffer; with one
    /// worker (or one shard) on this thread, spawning nothing. A shard
    /// whose run is empty keeps its map; before the first fold there is
    /// none, and the merge of an empty run builds its prefill. Map `s`
    /// lands at index `s`, so the maps do not depend on `workers`.
    fn fold_on(&mut self, workers: usize) {
        let (n_shards, prefill) = (self.runs.lens.len(), self.prefill);
        let tombstone_puts = &self.tombstone_puts;
        let mut bases: Vec<Option<LeafMap>> = match self.maps.take() {
            Some(maps) => maps.into_iter().map(Some).collect(),
            None => (0..n_shards).map(|_| None).collect(),
        };
        // Shards `first..` of the runs, each merged into its base.
        let fold = |first: usize,
                    runs: &mut [Run<'_>],
                    bases: &mut [Option<LeafMap>],
                    spare: &mut Vec<(u64, u64)>| {
            (first..)
                .zip(runs.iter_mut().zip(bases))
                .map(|(s, (run, base))| match base.take() {
                    None => {
                        let blocks = shard_blocks(s, n_shards, prefill);
                        merge(Prefill::new(blocks), run, spare, tombstone_puts)
                    }
                    Some(map) if run.ops.is_empty() => map,
                    Some(map) => merge(Built::new(&map), run, spare, tombstone_puts),
                })
                .collect::<Vec<_>>()
        };
        let workers = workers.clamp(1, n_shards);
        let mut runs = self.runs.runs_mut();
        let maps = if workers == 1 {
            fold(0, &mut runs, &mut bases, &mut self.spare)
        } else {
            let per = n_shards.div_ceil(workers);
            std::thread::scope(|scope| {
                let threads: Vec<_> = runs
                    .chunks_mut(per)
                    .zip(bases.chunks_mut(per))
                    .enumerate()
                    .map(|(c, (runs, bases))| {
                        let fold = &fold;
                        scope.spawn(move || fold(c * per, runs, bases, &mut Vec::new()))
                    })
                    .collect();
                // Joined in spawn order, which is shard order.
                threads
                    .into_iter()
                    .flat_map(|t| t.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                    .collect()
            })
        };
        self.maps = Some(maps);
        self.runs.clear();
        self.tombstone_puts.clear();
        self.buffered = 0;
    }

    /// Each shard's map, with every buffered op folded in.
    fn finish(mut self) -> Vec<LeafMap> {
        self.fold();
        self.maps.expect("a fold builds every map")
    }
}

/// Every shard's buffered ops, in one block: shard `s`'s run is the
/// first `lens[s]` pairs of the slot of `per` pairs at `s * per`, filled
/// from its start, so a slot's pages are touched only as far as it is
/// filled. [`LogMerge::expect`] sizes the slots from the log's length;
/// unsized, or once a shard fills its slot anyway, every run moves into
/// a block of slots twice as long ([`Runs::grow`]).
struct Runs {
    block: NonNull<(u64, u64)>,
    /// The block's layout; size 0 while there is none.
    layout: Layout,
    per: usize,
    lens: Vec<usize>,
    /// The pairs of each run that hold [`TOMBSTONE`]: its DELs, and any
    /// PUT of that value.
    dels: Vec<usize>,
}

// SAFETY: `Runs` owns its block alone, as a `Vec` owns its buffer; the
// pairs in it are plain data.
unsafe impl Send for Runs {}

/// One shard's run, as a fold merges it.
struct Run<'r> {
    ops: &'r mut [(u64, u64)],
    /// [`Runs::dels`] of the shard.
    dels: usize,
}

/// The fewest pairs a slot of [`Runs::grow`] holds.
const MIN_SLOT: usize = 256;

impl Runs {
    /// Empty runs in slots of `per` pairs, one block for all of them,
    /// uninitialised and untouched. The block asks for huge pages over
    /// the 2 MiB regions `expected` pairs fill to 7/8
    /// (`leafmap::HUGE_FILL`), as if they lay packed: a sized slot is at
    /// most a sixteenth larger than its expected run.
    fn with_slots(n_shards: usize, per: usize, expected: usize) -> Runs {
        let mut runs = Runs {
            block: NonNull::dangling(),
            layout: Layout::new::<()>(),
            per,
            lens: vec![0; n_shards],
            dels: vec![0; n_shards],
        };
        if per > 0 {
            let layout = Layout::array::<(u64, u64)>(n_shards * per).expect("runs fit in memory");
            let huge = huge_bytes(expected * size_of::<(u64, u64)>());
            let (base, layout) = alloc_advised(layout, huge);
            runs.block = NonNull::new(base.cast()).expect("alloc_advised never returns null");
            runs.layout = layout;
        }
        runs
    }

    /// Appends `pair` to shard `s`'s run.
    #[inline]
    fn push(&mut self, s: usize, pair: (u64, u64)) {
        if self.lens[s] == self.per {
            self.grow();
        }
        // SAFETY: `lens[s] < per` (grown above if not), so the slot
        // lies inside the block of `lens.len() * per` pairs.
        unsafe {
            self.block
                .as_ptr()
                .add(s * self.per + self.lens[s])
                .write(pair);
        }
        self.lens[s] += 1;
        self.dels[s] += usize::from(pair.1 == TOMBSTONE);
    }

    /// Moves every run into a block of slots twice as long.
    #[cold]
    fn grow(&mut self) {
        let mut next = Runs::with_slots(self.lens.len(), (self.per * 2).max(MIN_SLOT), 0);
        for (s, &len) in self.lens.iter().enumerate() {
            // SAFETY: the first `len` pairs of slot `s` are written, and
            // the new slot, `next.per > per` pairs long, does not
            // overlap the old block.
            unsafe {
                std::ptr::copy_nonoverlapping(
                    self.block.as_ptr().add(s * self.per),
                    next.block.as_ptr().add(s * next.per),
                    len,
                );
            }
        }
        next.lens = std::mem::take(&mut self.lens);
        next.dels = std::mem::take(&mut self.dels);
        *self = next;
    }

    /// Each shard's run, in shard order.
    fn runs_mut(&mut self) -> Vec<Run<'_>> {
        let base = self.block.as_ptr();
        self.lens
            .iter()
            .zip(&self.dels)
            .enumerate()
            .map(|(s, (&len, &dels))| Run {
                // SAFETY: slot `s` is `per` pairs at `s * per`, disjoint
                // from every other slot, and its first `len` pairs are
                // written; the block lives as long as `&mut self`.
                ops: unsafe { std::slice::from_raw_parts_mut(base.add(s * self.per), len) },
                dels,
            })
            .collect()
    }

    /// Empties every run, keeping the block.
    fn clear(&mut self) {
        self.lens.fill(0);
        self.dels.fill(0);
    }
}

impl Drop for Runs {
    fn drop(&mut self) {
        if self.layout.size() > 0 {
            // SAFETY: `with_slots` allocated the block with this layout;
            // the pairs need no drop.
            unsafe { dealloc(self.block.as_ptr().cast(), self.layout) };
        }
    }
}

/// One ascending input of [`merge`]: a shard's contents before its run.
trait Ascending {
    /// The pairs it held before the merge began.
    fn len(&self) -> usize;

    /// Hands `out` every remaining pair with a key below `key`, and
    /// drops the pair at `key`, if there is one.
    fn copy_to(&mut self, key: u64, out: &mut Builder);

    /// Hands `out` every remaining pair.
    fn copy_rest(&mut self, out: &mut Builder);
}

/// Sorts `run` by key, stably ([`sort_run`]), and builds the map of
/// `base` with each key's last op of the run applied: a PUT adds or
/// overrides its key, a DEL drops it (a no-op if it is absent). Between
/// two op keys the base is copied a stretch at a time. The build is
/// sized by [`fewest_merged`].
fn merge(
    mut base: impl Ascending,
    run: &mut Run<'_>,
    spare: &mut Vec<(u64, u64)>,
    tombstone_puts: &HashSet<u64>,
) -> LeafMap {
    let least = fewest_merged(base.len(), run.dels);
    let run = sort_run(run.ops, spare);
    let mut out = Builder::with_capacity(least);
    for ops in run.chunk_by(|a, b| a.0 == b.0) {
        let (key, value) = ops[ops.len() - 1];
        base.copy_to(key, &mut out);
        if value != TOMBSTONE || (!tombstone_puts.is_empty() && tombstone_puts.contains(&key)) {
            out.push(key, value);
        }
    }
    base.copy_rest(&mut out);
    let map = out.finish();
    debug_assert!(
        map.len() >= least,
        "{} pairs, fewer than {least}",
        map.len()
    );
    map
}

/// The fewest pairs a merge of a base of `base` pairs with a run that
/// holds `dels` DELs can end with: a PUT never drops a pair, and a DEL
/// drops at most one. (The run's distinct deleted keys give a tighter
/// bound, but counting them is a pass over the sorted run; on
/// `svc-read`'s 200 k-op log this bound already fills every shard's
/// second 2 MiB region past 7/8, where subtracting every op left it
/// at 87.1 % and on 4 KiB pages.)
fn fewest_merged(base: usize, dels: usize) -> usize {
    base.saturating_sub(dels)
}

/// Bits per pass of [`sort_run`]: two passes order keys below 4 Mi.
const RADIX_BITS: u32 = 11;

/// Sorts `run` by key, stably: a least-significant-digit radix sort,
/// one counting pass and one scatter per digit, over the bits where the
/// run's keys differ, with `spare` as the scatter's target. On the log
/// `benchmark/` replays it takes a quarter of a stable comparison sort's
/// time (EXPERIMENTS.md, "Start-up as one sorted merge"). The passes
/// alternate between `run` and `spare`; the sorted run is in whichever
/// the last one wrote, which it returns.
fn sort_run<'a>(run: &'a mut [(u64, u64)], spare: &'a mut Vec<(u64, u64)>) -> &'a [(u64, u64)] {
    if run.len() < 2 {
        // Nothing to order: one op, or a prefill-only merge's empty run.
        return run;
    }
    let (any, all) = run.iter().fold((0, u64::MAX), |(any, all), &(key, _)| {
        (any | key, all & key)
    });
    let width = u64::BITS - (any ^ all).leading_zeros();
    spare.clear();
    spare.resize(run.len(), (0, 0));
    let (mut from, mut to) = (run, &mut spare[..]);
    for shift in (0..width).step_by(RADIX_BITS as usize) {
        let digit = |key: u64| (key >> shift) as usize & ((1 << RADIX_BITS) - 1);
        // Per digit, first its count, then where its next op goes.
        let mut at = [0; 1 << RADIX_BITS];
        for &(key, _) in from.iter() {
            at[digit(key)] += 1;
        }
        let mut sum = 0;
        for slot in &mut at {
            sum += std::mem::replace(slot, sum);
        }
        for &op in from.iter() {
            let slot = &mut at[digit(op.0)];
            to[*slot] = op;
            *slot += 1;
        }
        std::mem::swap(&mut from, &mut to);
    }
    from
}

/// A shard's prefill as a merge input: its blocks' key ranges, each
/// pair `(key, key)`.
struct Prefill<I> {
    blocks: I,
    /// What is left of the current block.
    at: Range<u64>,
    len: usize,
}

impl<I: Iterator<Item = Range<u64>> + Clone> Prefill<I> {
    fn new(blocks: I) -> Prefill<I> {
        let len = blocks.clone().map(|b| (b.end - b.start) as usize).sum();
        Prefill {
            blocks,
            at: 0..0,
            len,
        }
    }
}

impl<I: Iterator<Item = Range<u64>>> Ascending for Prefill<I> {
    fn len(&self) -> usize {
        self.len
    }

    fn copy_to(&mut self, key: u64, out: &mut Builder) {
        loop {
            let stop = self.at.end.min(key);
            for k in self.at.start..stop {
                out.push(k, k);
            }
            self.at.start = self.at.start.max(stop);
            if !self.at.is_empty() {
                // `key` lies in this block or before it.
                if self.at.start == key {
                    self.at.start += 1;
                }
                return;
            }
            match self.blocks.next() {
                Some(block) => self.at = block,
                None => return,
            }
        }
    }

    fn copy_rest(&mut self, out: &mut Builder) {
        for k in std::iter::once(self.at.clone())
            .chain(&mut self.blocks)
            .flatten()
        {
            out.push(k, k);
        }
    }
}

/// A built map as a merge input, streamed a leaf at a time.
struct Built<'m> {
    leaves: Leaves<'m>,
    /// What is left of the current leaf.
    keys: &'m [u64],
    vals: &'m [u64],
    len: usize,
}

impl<'m> Built<'m> {
    fn new(map: &'m LeafMap) -> Built<'m> {
        Built {
            leaves: map.snapshot().leaves(),
            keys: &[],
            vals: &[],
            len: map.len(),
        }
    }
}

impl Ascending for Built<'_> {
    fn len(&self) -> usize {
        self.len
    }

    fn copy_to(&mut self, key: u64, out: &mut Builder) {
        loop {
            let stop = self.keys.partition_point(|&k| k < key);
            for (&k, &v) in self.keys[..stop].iter().zip(self.vals) {
                out.push(k, v);
            }
            if stop < self.keys.len() {
                let next = stop + usize::from(self.keys[stop] == key);
                (self.keys, self.vals) = (&self.keys[next..], &self.vals[next..]);
                return;
            }
            match self.leaves.next() {
                Some(leaf) => (self.keys, self.vals) = leaf,
                None => {
                    (self.keys, self.vals) = (&[], &[]);
                    return;
                }
            }
        }
    }

    fn copy_rest(&mut self, out: &mut Builder) {
        for (keys, vals) in std::iter::once((self.keys, self.vals)).chain(&mut self.leaves) {
            for (&k, &v) in keys.iter().zip(vals) {
                out.push(k, v);
            }
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
/// snapshot buffer, the per-shard op-index groups and the record of the
/// group being logged — and the per-shard picks of a read section.
struct NativeSession<'a> {
    backend: &'a NativeBackend,
    tid: usize,
    st: ThreadStats,
    snap: Vec<u64>,
    groups: Vec<Vec<usize>>,
    record: Vec<MutOp>,
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
                // The staged lookup: every key's pick first, then each
                // stage of the descent across the whole run, so the run
                // pays about one miss latency per stage, not one per key.
                let pick = |key| sec.pick(shard_index(key, n_shards));
                if let [key] = *run {
                    // A run of one is a lone GET.
                    out.push(pick(key).get(key));
                    return;
                }
                let mut probes = Group::<GET_RUN>::new();
                for &key in run {
                    probes.push(pick(key).probe(key));
                }
                let probes = probes.probes();
                leafmap::find(probes);
                out.extend(probes.iter().map(Probe::value));
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
            let last = *keys.end();
            self.backend.read(self.tid, &self.picked, |sec| {
                // The covered shards' first leaves are found as one staged
                // group (all picks first), then each shard is walked.
                for lo in (0..covered).step_by(GET_RUN) {
                    let mut probes = Group::<GET_RUN>::new();
                    for i in lo..covered.min(lo + GET_RUN) {
                        probes.push(sec.pick((first + i) % n_shards).probe(start));
                    }
                    let probes = probes.probes();
                    leafmap::descend(probes);
                    for probe in probes {
                        probe.range(last, out);
                    }
                }
            });
        }
        out[tail..].sort_unstable_by_key(|&(key, _)| key);
        self.st.commit(CommitKind::Uninstrumented);
    }

    /// The batch path: group per shard, then one [`NativeSession::cycle`]
    /// per touched shard — its whole group rides one flip, and its writer
    /// lock is released before the next shard's is taken, so a batch
    /// never makes another worker wait on a shard it is not publishing
    /// right now. Each cycle first pays the grace period its shard's
    /// previous cycle deferred (none on a shard's first cycle).
    fn apply_batch(&mut self, ops: &[MutOp], replies: &mut Vec<MutReply>) -> BatchOutcome {
        self.apply_batch_inner(ops, replies, None).0
    }

    /// The durable override: the same cycles, each of which appends its
    /// shard's group as one record under that shard's lock, after its
    /// flip — so records of one shard are in commit order, and two
    /// batches that conflict on a key serialize their records through
    /// its shard's lock without a global order lock. Returns the highest
    /// LSN, which covers every record of the batch.
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
            record: Vec::new(),
            picked: vec![Cell::new(None); backend.shards.len()],
        }
    }

    /// The unit of publication, and the only place a node is retired or
    /// freed or a child word swapped, on shard `s`: lock; once a grace
    /// period has passed since the shard's previous flip, free the nodes
    /// that cycle retired ([`LeafMap::reclaim`], which also frees the
    /// words' spare halves for the swaps to come); apply the group (each
    /// op copying what the published version still reaches of what it
    /// changes — for a leaf-only write, its leaf — and swapping the
    /// child word above each copy in place); SeqCst flip of the version
    /// word; append the group as one record (if there is a sink); note
    /// the grace ticket; unlock.
    ///
    /// A shard flips once per cycle, after its group's last op, so
    /// readers see the whole group or none of it. The ticket is taken
    /// after the flip, so a grace period that covers it drained every
    /// reader that could still hold the version before it (module docs).
    /// The
    /// deferred barrier returns at once when another writer's grace
    /// period already covered the ticket, and otherwise waits only for
    /// the readers still inside a section.
    fn cycle(
        &mut self,
        s: usize,
        ops: &[MutOp],
        replies: &mut [MutReply],
        sink: Option<&dyn DurableSink>,
        out: &mut BatchOutcome,
    ) -> Lsn {
        let epochs = &self.backend.epochs;
        let mut writer = self.backend.shards[s].lock();
        let (map, retired_at) = &mut *writer;
        if let Some(ticket) = retired_at.take() {
            sched::step();
            let barrier = epochs.synchronize_from(Some(self.tid), ticket, &mut self.snap);
            self.st.barrier_stalls += barrier.stalls;
            self.st.barriers_shared += barrier.shared as u64;
            out.barriers += !barrier.shared as u64;
            out.shared += barrier.shared as u64;
            // Under a schedule, freed nodes are poisoned: a reader that
            // reaches one panics instead of reading a reused node.
            sched::step();
            map.reclaim(sched::is_scheduled());
        }
        for &i in &self.groups[s] {
            // The copies: this op's leaf, and on a split or an unlink
            // the routing nodes whose children change, those the group
            // has not copied yet.
            sched::step();
            replies[i] = apply_one(map, &ops[i]);
            // The publication flip stands in for a ROT's aggregate
            // store: one ROT commit per mutation.
            self.st.commit(CommitKind::Rot);
        }
        sched::step();
        map.publish();
        // Native PUTs are infallible (process heap), so the group *is*
        // its effective write-set. The wal lock nests inside this one.
        let lsn = sink.map_or(NO_LSN, |sink| {
            self.record.clear();
            self.record.extend(self.groups[s].iter().map(|&i| ops[i]));
            sink.append(&self.record)
        });
        *retired_at = Some(epochs.grace_snapshot());
        lsn
    }

    /// The batch path of both entry points: one cycle per touched
    /// shard, and the highest LSN they appended.
    fn apply_batch_inner(
        &mut self,
        ops: &[MutOp],
        replies: &mut Vec<MutReply>,
        sink: Option<&dyn DurableSink>,
    ) -> (BatchOutcome, Lsn) {
        replies.clear();
        group_by_shard(ops, &mut self.groups);
        replies.resize(ops.len(), MutReply::Del(false));
        let (mut out, mut lsn) = (BatchOutcome::default(), NO_LSN);
        for s in 0..self.groups.len() {
            if !self.groups[s].is_empty() {
                lsn = lsn.max(self.cycle(s, ops, replies, sink, &mut out));
            }
        }
        (out, lsn)
    }
}

/// Single-global-lock canary over plain process memory: one mutex around
/// one [`LeafMap`], none of the elision machinery. It never publishes,
/// so every write changes the map in place. The pair differs in more
/// than synchronisation: the canary's one map is a routing level deeper
/// than a native shard's, its reads still check each edge's `born`
/// (which only a published map needs), and it answers a GET run key by
/// key, unstaged. This is the
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
    /// a redo log can be loaded into it first. Like the native store's,
    /// it builds the map once, at [`StoreLoader::finish`], from one
    /// sorted merge of the prefill and the log.
    pub fn loader(prefill: u64) -> SglLoader {
        SglLoader(LogMerge::new(1, prefill))
    }
}

/// The canary's [`StoreLoader`]: the native store's merge over one map.
pub struct SglLoader(LogMerge);

impl StoreLoader for SglLoader {
    type Store = SglBackend;

    fn expect(&mut self, ops: usize) {
        self.0.expect(ops);
    }

    fn apply(&mut self, ops: &[MutOp]) -> Result<(), StoreFull> {
        self.0.buffer(ops);
        Ok(())
    }

    fn finish(self) -> SglBackend {
        SglBackend {
            map: Mutex::new(self.0.finish().pop().expect("one map")),
        }
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
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::sync::TryLockError;

    /// How many of `n_shards` shards `ops` touch: the grace periods
    /// (`barriers + shared`) a volatile batch of them pays.
    pub(crate) fn touched_shards(ops: &[MutOp], n_shards: usize) -> u64 {
        let mut groups = vec![Vec::new(); n_shards];
        group_by_shard(ops, &mut groups);
        groups.iter().filter(|g| !g.is_empty()).count() as u64
    }

    /// The one image of each shard, checked once nothing is running:
    /// the published version reaches the whole map, and once the last
    /// cycle's retired nodes are reclaimed (no reader is left to hold
    /// them), every node the map handed out is reachable from it or
    /// free — none retired and left behind, none lost.
    fn assert_one_image(backend: &mut NativeBackend) {
        for shard in &mut backend.shards {
            let (map, retired_at) = shard.writer.get_mut().unwrap();
            if retired_at.take().is_some() {
                map.reclaim(false);
            }
            map.audit_published();
        }
    }

    /// The load path builds each map once, from the merge, and `finish`
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

    /// What a loaded store holds, checked shard by shard: each map is
    /// one published image holding only its own shard's keys. All the
    /// pairs, ascending.
    fn loaded_pairs(maps: &mut [&mut LeafMap]) -> Vec<(u64, u64)> {
        let n_shards = maps.len();
        let mut pairs = Vec::new();
        for (s, map) in maps.iter_mut().enumerate() {
            map.audit_published();
            let from = pairs.len();
            map.snapshot().range(0..=u64::MAX, &mut pairs);
            assert!(
                pairs[from..]
                    .iter()
                    .all(|&(k, _)| shard_index(k, n_shards) == s),
                "shard {s} of {n_shards} holds another shard's key"
            );
        }
        pairs.sort_unstable();
        pairs
    }

    /// The per-op load the merge replaces, as the oracle: the prefill,
    /// then every op `insert`ed or `remove`d in log order.
    fn replayed(prefill: u64, log: &[Vec<MutOp>]) -> Vec<(u64, u64)> {
        let mut map = LeafMap::from_ascending((0..prefill).map(|k| (k, k)));
        for op in log.iter().flatten() {
            apply_one(&mut map, op);
        }
        let mut pairs = Vec::new();
        map.snapshot().range(0..=u64::MAX, &mut pairs);
        pairs
    }

    /// Loads `log` over `prefill` into the native store at `n_shards`
    /// (the canary with `None`), folding after each record `folds`
    /// names, and returns the loaded pairs.
    fn merged(
        n_shards: Option<usize>,
        prefill: u64,
        log: &[Vec<MutOp>],
        folds: &[usize],
    ) -> Vec<(u64, u64)> {
        let load = |merge: &mut LogMerge| {
            for (i, ops) in log.iter().enumerate() {
                merge.buffer(ops);
                if folds.contains(&i) {
                    merge.fold();
                }
            }
        };
        match n_shards {
            Some(n) => {
                let mut loader = NativeBackend::loader(n, 1, prefill);
                load(&mut loader.merge);
                let mut backend = loader.finish();
                let mut maps: Vec<_> = backend
                    .shards
                    .iter_mut()
                    .map(|s| &mut s.writer.get_mut().unwrap().0)
                    .collect();
                loaded_pairs(&mut maps)
            }
            None => {
                let mut loader = SglBackend::loader(prefill);
                load(&mut loader.0);
                loaded_pairs(&mut [loader.finish().map.get_mut().unwrap()])
            }
        }
    }

    /// A log over `prefill` keys: records of one to eight ops, PUT and
    /// DEL at even odds, and keys that make every branch of the merge
    /// likely — prefilled ones, a few hot keys written again and again
    /// (re-puts, deletes of absent keys, dozens of ops per key in one
    /// run), keys just past the prefill, `u64::MAX` and its neighbours,
    /// and any key. One PUT in eight writes [`TOMBSTONE`]'s value.
    fn log(prefill: u64, seed: u64, ops: usize) -> Vec<Vec<MutOp>> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut log = Vec::new();
        let mut left = ops;
        while left > 0 {
            let record: Vec<MutOp> = (0..rng.gen_range(1..=8).min(left))
                .map(|_| {
                    let key = match rng.gen_range(0..10) {
                        0..=2 if prefill > 0 => rng.gen_range(0..prefill),
                        0..=4 => prefill.saturating_sub(4) + rng.gen_range(0..12),
                        5 | 6 => prefill + rng.gen_range(0..200),
                        7 => u64::MAX - rng.gen_range(0..3),
                        _ => rng.gen(),
                    };
                    match rng.gen_range(0..16) {
                        0..=7 => MutOp::Del { key },
                        8 => MutOp::Put {
                            key,
                            value: TOMBSTONE,
                        },
                        _ => MutOp::Put {
                            key,
                            value: rng.gen(),
                        },
                    }
                })
                .collect();
            left -= record.len();
            log.push(record);
        }
        log
    }

    /// Prefill sizes around a block (64), then any up to 48 blocks.
    const PREFILLS: [u64; 5] = [0, 1, 63, 64, 65];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Start-up as one sorted merge equals the per-op replay it
        /// replaces, on every shard layout and on the canary, with and
        /// without folds part-way through the log: the same pairs, each
        /// map one published image of its own shard's keys.
        #[test]
        fn the_merged_load_equals_per_op_replay(
            prefill in prop_oneof![
                (0..PREFILLS.len()).prop_map(|i| PREFILLS[i]),
                0u64..3072,
            ],
            seed in any::<u64>(),
            ops in 0usize..1500,
            folds in prop::collection::vec(0usize..400, 0..3),
        ) {
            let log = log(prefill, seed, ops);
            let want = replayed(prefill, &log);
            for n_shards in [Some(1), Some(3), Some(16), None] {
                for folds in [&[][..], &folds] {
                    prop_assert_eq!(
                        merged(n_shards, prefill, &log, folds),
                        want.clone(),
                        "{:?} shards, prefill {}, folds after records {:?}",
                        n_shards,
                        prefill,
                        folds
                    );
                }
            }
        }
    }

    /// A fold part-way through the log — what crossing [`FOLD_OPS`]
    /// does — keeps log order: every op buffered after it wins over the
    /// map it built, whichever op each side holds for a key.
    #[test]
    fn ops_after_a_fold_win_over_the_folded_map() {
        let put = |key, value| MutOp::Put { key, value };
        let del = |key| MutOp::Del { key };
        let log = vec![
            vec![put(5, 1), del(7), put(300, 3), put(301, 4), del(9)],
            vec![put(5, 2), put(7, 8), del(300), del(301), put(9, TOMBSTONE)],
        ];
        let mut want: Vec<(u64, u64)> = (0..200).map(|k| (k, k)).collect();
        want[5].1 = 2;
        want[7].1 = 8;
        want[9].1 = TOMBSTONE;
        assert_eq!(replayed(200, &log), want);
        for n_shards in [Some(1), Some(3), Some(16), None] {
            assert_eq!(merged(n_shards, 200, &log, &[0]), want, "{n_shards:?}");
        }
    }

    /// The fold's worker count changes nothing: inline (1), uneven
    /// ranges of shards (2, 3), a shard each (16) and more workers than
    /// shards (17) build the same 16 maps, each one published image of
    /// its own shard's keys at its own index, from a log folded part-way
    /// through and ending in PUTs of `u64::MAX`. The runs are long
    /// enough (about 25 k ops a shard) that the threads' sorts overlap.
    #[test]
    fn the_maps_do_not_depend_on_the_fold_workers() {
        const SHARDS: usize = 16;
        const PREFILL: u64 = 50_000;
        let log = log(PREFILL, 44, 400_000);
        let (head, tail) = log.split_at(log.len() / 3);
        let built = |workers: usize| {
            let mut merge = LogMerge::new(SHARDS, PREFILL);
            for ops in head {
                merge.buffer(ops);
            }
            merge.fold_on(workers);
            for ops in tail {
                merge.buffer(ops);
            }
            merge.buffer(&[
                MutOp::Put {
                    key: 7,
                    value: TOMBSTONE,
                },
                MutOp::Put {
                    key: u64::MAX,
                    value: 3,
                },
            ]);
            merge.fold_on(workers);
            let maps = merge.maps.expect("a fold builds every map");
            maps.iter()
                .enumerate()
                .map(|(s, map)| {
                    map.audit_published();
                    let mut pairs = Vec::new();
                    map.snapshot().range(0..=u64::MAX, &mut pairs);
                    assert!(
                        pairs.iter().all(|&(k, _)| shard_index(k, SHARDS) == s),
                        "{workers} workers: map {s} holds another shard's key"
                    );
                    pairs
                })
                .collect::<Vec<_>>()
        };
        let inline = built(1);
        assert!(inline[shard_index(7, SHARDS)].contains(&(7, TOMBSTONE)));
        assert!(inline[shard_index(u64::MAX, SHARDS)].contains(&(u64::MAX, 3)));
        for workers in [2, 3, 16, 17] {
            assert!(built(workers) == inline, "{workers} workers");
        }
    }

    /// Runs sized from an estimate build the maps unsized runs build,
    /// whether the estimate is exact, far too small (every slot
    /// regrows) or far too large, on the store's and the canary's
    /// shard counts.
    #[test]
    fn the_maps_do_not_depend_on_the_runs_size() {
        let log = log(3_000, 45, 20_000);
        let ops: usize = log.iter().map(Vec::len).sum();
        for shards in [1, 3, 16] {
            let built = |estimate: Option<usize>| {
                let mut merge = LogMerge::new(shards, 3_000);
                if let Some(estimate) = estimate {
                    merge.expect(estimate);
                }
                for ops in &log {
                    merge.buffer(ops);
                }
                let mut maps = merge.finish();
                loaded_pairs(&mut maps.iter_mut().collect::<Vec<_>>())
            };
            let grown = built(None);
            for estimate in [ops, 10, ops * 5, 0] {
                assert!(
                    built(Some(estimate)) == grown,
                    "{shards} shards, estimate {estimate} of {ops} ops"
                );
            }
        }
    }

    /// A merge's lower bound: each op drops at most one base pair, so a
    /// run of DELs of distinct base keys ends exactly at it, and one
    /// whose ops repeat keys or add them ends above it.
    #[test]
    fn a_merge_ends_at_or_above_its_lower_bound() {
        assert_eq!(fewest_merged(250_000, 9_000), 241_000);
        assert_eq!(fewest_merged(5, 9), 0);
        assert_eq!(fewest_merged(0, 0), 0);
        let (mut spare, none) = (Vec::new(), HashSet::new());
        let mut merged = |ops: &[(u64, u64)]| {
            let base = Prefill::new(shard_blocks(0, 1, 256));
            let mut ops = ops.to_vec();
            let dels = ops.iter().filter(|op| op.1 == TOMBSTONE).count();
            let run = &mut Run {
                ops: &mut ops,
                dels,
            };
            let least = fewest_merged(256, dels);
            let len = merge(base, run, &mut spare, &none).len();
            assert!(len >= least, "{len} pairs, under the bound {least}");
            len
        };
        let dels: Vec<(u64, u64)> = (0..10).map(|i| (i * 7, TOMBSTONE)).collect();
        assert_eq!(merged(&dels), fewest_merged(256, 10));
        // A PUT drops nothing: a run of PUTs alone is bounded by the base.
        let puts: Vec<(u64, u64)> = (0..10).map(|i| (1000 + i, i)).collect();
        assert_eq!(merged(&puts), 266);
        let overrides: Vec<(u64, u64)> = (0..10).map(|i| (i, i + 1)).collect();
        assert_eq!(merged(&overrides), fewest_merged(256, 0));
        let repeated: Vec<(u64, u64)> =
            dels.iter().chain(&puts).cycle().take(60).copied().collect();
        assert_eq!(merged(&repeated), 256);
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
        // A shard's first cycle has nothing retired to wait out.
        assert_eq!(out, BatchOutcome::default());
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
        // The second pays, per touched shard, the one grace period (own
        // or shared) the first deferred — however many of the batch's
        // ops landed on it.
        let out = s.apply_batch(&ops, &mut replies);
        assert_eq!(out.barriers + out.shared, touched_shards(&ops, 4));
        assert_eq!(s.get(100), None);
        let st = s.take_stats();
        assert_eq!(st.commits(CommitKind::Rot), 10);
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

    /// The property the one-shard cycle exists for: a batch that touches
    /// every shard, volatile or durable, never holds two shard mutexes at
    /// once.
    ///
    /// A first batch leaves each shard a grace period to wait out. Then
    /// the main thread sits in a read section, so the second batch's
    /// first cycle cannot get past that deferred barrier — it is
    /// *parked* holding what it holds — until the probe has looked 50
    /// times; then the reader steps out and back in, which lets the
    /// batch advance. The batch takes its shards in ascending order; the
    /// probe sweeps them in *descending* order with `try_lock` and keeps
    /// what it gets until the sweep ends, so the writer cannot step onto
    /// a shard the probe has already passed: two misses in one sweep
    /// mean the batch held both of those mutexes at once.
    #[test]
    fn a_batch_holds_one_shard_lock_at_a_time() {
        const SHARDS: usize = 32;
        let ops: Vec<MutOp> = (0..2048).map(|k| MutOp::Put { key: k, value: k }).collect();
        assert_eq!(
            touched_shards(&ops, SHARDS),
            SHARDS as u64,
            "the batch must span every shard"
        );
        let sink = crate::backend::tests::MockSink::default();
        for durable in [false, true] {
            let apply = |s: &mut dyn StoreSession| {
                if durable {
                    s.apply_batch_durable(&ops, &mut Vec::new(), &sink);
                } else {
                    s.apply_batch(&ops, &mut Vec::new());
                }
            };
            // Slots are not recycled: the first batch's, the reader's and
            // the second batch's.
            let backend = NativeBackend::create(SHARDS, 3, 0);
            apply(&mut *backend.session());
            let reader = backend.register();
            let (mut misses, mut worst) = (0, 0);
            // Entered before the second batch starts: its first deferred
            // barrier meets us.
            backend.epochs.enter(reader);
            std::thread::scope(|sc| {
                let batch = sc.spawn(|| apply(&mut *backend.session()));
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
                "{worst} shard mutexes held at once by one batch, durable: {durable}"
            );
            assert!(
                misses >= 50,
                "the second batch's first cycle was not parked behind the reader, \
                 durable: {durable}"
            );
        }
    }

    /// The first `n` keys of shard `s` of three, block by block.
    fn shard_keys(s: usize, n: usize) -> impl Iterator<Item = u64> {
        (0u64..)
            .flat_map(move |b| (3 * b + s as u64) * 64..(3 * b + s as u64 + 1) * 64)
            .take(n)
    }

    /// The staged lookup answers what per-key lookups answer, at every
    /// run length from one to past two sections' worth, over shards of
    /// every height — three routing levels, one, and a root that is the
    /// one leaf — with keys that visit the shards in turn, present and
    /// absent. Then with versions in flight: a section holds the
    /// versions it picked while a batch publishes the next one on every
    /// shard (leaf-only writes, leaf and routing splits, a root leaf's
    /// split and a delete), and every run it looks up still reads the
    /// versions it picked.
    #[test]
    fn staged_runs_answer_as_lone_gets_on_every_shard_height() {
        const SIZES: [usize; 3] = [25_000, 500, 20];
        let value = |key: u64| key ^ 0xabcd;
        let mut load = NativeBackend::loader(3, 2, 0);
        let ops: Vec<MutOp> = (0..3)
            .flat_map(|s| shard_keys(s, SIZES[s]))
            .map(|key| MutOp::Put {
                key,
                value: value(key),
            })
            .collect();
        load.apply(&ops).unwrap();
        let backend = load.finish();
        let heights: Vec<u32> = (backend.shards.iter())
            // SAFETY: nothing writes the store yet.
            .map(|shard| unsafe { shard.tree.pick() }.height())
            .collect();
        assert_eq!(heights, [3, 1, 0]);
        let mut rng = SmallRng::seed_from_u64(52);
        let keys: Vec<u64> = (0..2 * GET_RUN + 1)
            .map(|i| {
                let s = i % 3;
                // Keys 3..6 are each shard's last absent key that the
                // batch below writes, into a leaf the batch opens.
                let at = match i {
                    3..6 => SIZES[s] + 63,
                    _ => rng.gen_range(0..SIZES[s] + 64),
                };
                shard_keys(s, SIZES[s] + 64).nth(at).unwrap()
            })
            .collect();
        let loaded: HashSet<u64> = ops.iter().map(MutOp::key).collect();
        let want: Vec<Option<u64>> = (keys.iter())
            .map(|&k| loaded.contains(&k).then(|| value(k)))
            .collect();
        let mut sess = backend.session();
        for n in 1..=keys.len() {
            let mut got = Vec::new();
            sess.get_many(&keys[..n], &mut got);
            let one: Vec<Option<u64>> = keys[..n].iter().map(|&k| sess.get(k)).collect();
            assert_eq!(
                (&got, &one),
                (&want[..n].to_vec(), &want[..n].to_vec()),
                "run of {n}"
            );
        }

        // Every looked-up key and the 64 keys past each shard's last are
        // put, and the first looked-up key then deleted.
        let past = (0..3).flat_map(|s| shard_keys(s, SIZES[s] + 64).skip(SIZES[s]));
        let batch: Vec<MutOp> = (keys.iter().copied().chain(past))
            .map(|key| MutOp::Put { key, value: 1 })
            .chain([MutOp::Del { key: keys[0] }])
            .collect();
        let reader = backend.register();
        let picked = vec![Cell::new(None); 3];
        backend.read(reader, &picked, |sec| {
            let pick = |key| sec.pick(shard_index(key, 3));
            for &key in &keys {
                pick(key);
            }
            sess.apply_batch(&batch, &mut Vec::new());
            for n in 1..=keys.len() {
                let mut run = Group::<{ 2 * GET_RUN + 1 }>::new();
                for &key in &keys[..n] {
                    run.push(pick(key).probe(key));
                }
                let run = run.probes();
                leafmap::find(run);
                let got: Vec<Option<u64>> = run.iter().map(Probe::value).collect();
                let one: Vec<Option<u64>> = keys[..n].iter().map(|&k| pick(k).get(k)).collect();
                assert_eq!(
                    (&got, &one),
                    (&want[..n].to_vec(), &want[..n].to_vec()),
                    "held run of {n}"
                );
            }
        });
        let heights: Vec<u32> = (backend.shards.iter())
            // SAFETY: no writer runs any more.
            .map(|shard| unsafe { shard.tree.pick() }.height())
            .collect();
        assert_eq!(heights, [3, 1, 1], "the batch split the root leaf");
        let mut got = Vec::new();
        sess.get_many(&keys, &mut got);
        let after: Vec<Option<u64>> = keys.iter().map(|&k| (k != keys[0]).then_some(1)).collect();
        assert_eq!(got, after);
    }

    /// `scan` is the canary's `scan` on every shard layout: both stores
    /// take the same mutations — holes in the prefill, a sparse run
    /// beyond it, and a populated top of the key space — and then every
    /// count around a block (64) and the wire's limit (1024), from block
    /// edges, mid-block and up against `u64::MAX`. The 32-shard scan of
    /// 1024 pairs from mid-block covers 17 blocks, one more than a
    /// section descends to at once ([`GET_RUN`]).
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
