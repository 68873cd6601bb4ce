//! **RW-LE** — hardware read-write lock elision (EuroSys 2016).
//!
//! RW-LE replaces a read-write lock with a speculative scheme in which:
//!
//! * **Readers run uninstrumented** — no hardware transaction at all. A
//!   reader flips a per-thread epoch clock on entry/exit and checks that
//!   no non-speculative writer holds the lock. That is the entire
//!   read-side overhead.
//! * **Writers run speculatively** and hide their stores until commit.
//!   Before committing, a writer *suspends* its transaction and runs an
//!   RCU-like quiescence barrier, draining every reader that might have
//!   observed pre-commit state. Readers that arrive later and touch the
//!   writer's store set abort the writer through plain cache coherence.
//! * Writers fall back along the paper's `PATH` policy: regular HTM
//!   transactions (concurrent writers, eager lock subscription), then
//!   rollback-only transactions (serialized writers, unbounded read
//!   footprint), then a non-speculative global lock.
//!
//! See [`RwLe`] for the complete algorithm (paper Algorithm 2 plus the
//! §3.3 fairness variant) and [`basic::BasicRwLe`] for the pedagogical
//! Algorithm 1. The §3.3 optimizations are not options: enter-first read
//! entry is the unfair entry, and the split ROT/NS lock words are laid
//! out exactly when both speculative budgets are non-zero (an HTM writer
//! then has a ROT writer to overlap) and the lock is not fair (see
//! [`RwLe::new`]).
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use htm::{HtmConfig, HtmRuntime};
//! use simmem::{SharedMem, SimAlloc, Addr};
//! use stats::ThreadStats;
//! use rwle::{RwLe, RwLeConfig};
//!
//! let mem = Arc::new(SharedMem::new_lines(128));
//! let rt = HtmRuntime::new(Arc::clone(&mem), HtmConfig::default());
//! let alloc = SimAlloc::new(Arc::clone(&mem));
//! let rwle = RwLe::new(&alloc, 8, RwLeConfig::opt()).unwrap();
//! let data = alloc.alloc(1).unwrap();
//!
//! let mut ctx = rt.register();
//! let mut st = ThreadStats::new();
//! rwle.write_cs(&mut ctx, &mut st, &mut |acc| acc.write(data, 7));
//! let v = rwle.read_cs(&mut ctx, &mut st, &mut |acc| acc.read(data));
//! assert_eq!(v, 7);
//! ```

#![warn(missing_docs)]

pub mod basic;
mod guard;

pub use guard::ReadGuard;

use std::sync::Arc;

use epoch::EpochSet;
use htm::{AbortCause, MemAccess, ThreadCtx, TxMode, ABORT_LOCK_BUSY};
use rind::{BravoIndicator, IndicatorKind, Publish};
use simmem::{Addr, AllocError, SimAlloc};
use stats::{CommitKind, ThreadStats};

/// Lock-word state: free.
const ST_FREE: u64 = 0;
/// Lock-word state: held by the non-speculative fallback path.
const ST_NS: u64 = 1;
/// Lock-word state: held by a ROT writer.
const ST_ROT: u64 = 2;

#[inline]
fn state(word: u64) -> u64 {
    word & 0xFF
}

#[inline]
fn version(word: u64) -> u64 {
    word >> 8
}

#[inline]
fn pack(version: u64, state: u64) -> u64 {
    (version << 8) | state
}

/// Errors constructing an [`RwLe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RwLeError {
    /// Lock-word allocation failed.
    Alloc(AllocError),
    /// The requested configuration combination is not implemented.
    UnsupportedConfig(&'static str),
}

impl From<AllocError> for RwLeError {
    fn from(e: AllocError) -> Self {
        RwLeError::Alloc(e)
    }
}

impl std::fmt::Display for RwLeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RwLeError::Alloc(e) => write!(f, "lock-word allocation failed: {e}"),
            RwLeError::UnsupportedConfig(why) => write!(f, "unsupported configuration: {why}"),
        }
    }
}

impl std::error::Error for RwLeError {}

/// Which speculative path a write critical section is attempting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Path {
    Htm,
    Rot,
    Ns,
}

/// Configuration of an [`RwLe`] lock: the paper's variants are points in
/// the two retry budgets plus `fair`; `indicator` is the fallback path's
/// read-side extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RwLeConfig {
    /// Attempts on the HTM path before falling to ROT (paper: 5; the
    /// pessimistic variant uses 0).
    pub max_htm_retries: u32,
    /// Attempts on the ROT path before falling to the global lock
    /// (paper: 5; 0 disables ROTs, as in the fairness experiment).
    pub max_rot_retries: u32,
    /// Fair variant (§3.3): version-stamped lock; NS/ROT writers wait only
    /// for readers that entered before them, and readers wait in place
    /// instead of retreating, so they cannot be overtaken indefinitely.
    pub fair: bool,
    /// Read-side indicator for the fallback path (BRAVO-style, see
    /// `rind`). With a non-[`Central`](IndicatorKind::Central) indicator,
    /// readers first try to publish into a distributed table — a
    /// bias-certified publication admits the read with *no* epoch flip
    /// and *no* lock check — and NS writers revoke the bias and wait the
    /// table out before their quiescence barrier. Requires the NS-only
    /// configuration (both retry budgets zero): HTM/ROT writers quiesce
    /// via the epoch clocks alone and would never see an
    /// indicator-published reader (see [`RwLe::new`]).
    pub indicator: IndicatorKind,
}

impl RwLeConfig {
    /// RW-LE_OPT: 5 × HTM, then 5 × ROT, then the global lock.
    pub fn opt() -> Self {
        RwLeConfig {
            max_htm_retries: 5,
            max_rot_retries: 5,
            fair: false,
            indicator: IndicatorKind::Central,
        }
    }

    /// RW-LE_PES: writers serialized, 5 × ROT, then the global lock. No
    /// HTM writer exists to overlap a ROT, so PES has one lock word.
    pub fn pes() -> Self {
        RwLeConfig {
            max_htm_retries: 0,
            max_rot_retries: 5,
            ..Self::opt()
        }
    }

    /// The configuration of the paper's fairness experiment: ROTs
    /// disabled (stressing the NS path), unfair baseline.
    pub fn htm_only() -> Self {
        RwLeConfig {
            max_htm_retries: 5,
            max_rot_retries: 0,
            ..Self::opt()
        }
    }

    /// RW-LE_FAIR with ROTs disabled (the paper's Figure 7 contender).
    pub fn fair_htm_only() -> Self {
        RwLeConfig {
            fair: true,
            ..Self::htm_only()
        }
    }

    /// Elision disabled entirely (both retry budgets zero): every write
    /// takes the NS path, every read the fallback entry — the regime the
    /// reader indicators exist for. `kind` selects the indicator.
    pub fn fallback_only(kind: IndicatorKind) -> Self {
        RwLeConfig {
            max_htm_retries: 0,
            max_rot_retries: 0,
            indicator: kind,
            ..Self::opt()
        }
    }

    /// Returns this configuration with custom retry budgets.
    pub fn with_retries(mut self, htm: u32, rot: u32) -> Self {
        self.max_htm_retries = htm;
        self.max_rot_retries = rot;
        self
    }
}

impl Default for RwLeConfig {
    fn default() -> Self {
        Self::opt()
    }
}

/// An elided read-write lock (the paper's complete Algorithm 2).
///
/// One `RwLe` instance guards one logical read-write lock. The lock words
/// live in simulated memory so that lock *subscription* flows through the
/// HTM conflict machinery: a fallback acquirer's compare-and-swap dooms
/// every transaction that subscribed the word.
pub struct RwLe {
    /// Global lock word (the NS lock when the words are split).
    wlock: Addr,
    /// ROT lock word; `== wlock` unless the words are split (see
    /// [`RwLe::new`] for when they are).
    rot_lock: Addr,
    epochs: Arc<EpochSet>,
    nesting: guard::NestingDepths,
    /// Read-side indicator; `None` for [`IndicatorKind::Central`] so the
    /// default configuration pays nothing (not even a publish attempt).
    ind: Option<BravoIndicator>,
    cfg: RwLeConfig,
}

impl RwLe {
    /// Creates an elided read-write lock for up to `max_threads` threads.
    ///
    /// Allocates one cache line per lock word from `alloc` so that no
    /// workload data shares a line with the locks.
    ///
    /// The ROT and NS locks are separate words (§3.3) exactly when
    /// `max_htm_retries > 0 && max_rot_retries > 0 && !fair`: the split
    /// exists so that HTM writers — eager NS subscription, lazy ROT
    /// subscription at commit — can run alongside a ROT writer's body, so
    /// it needs both kinds of writer. `!fair` is conservative: the fair
    /// variant has only ever been explored and measured on one word, and
    /// no recorded row says splitting it pays. Of the presets only
    /// [`RwLeConfig::opt`] (and `with_retries(h, r)` for non-zero `h`,
    /// `r`) is split.
    ///
    /// # Errors
    ///
    /// Rejects a non-`Central` indicator outside the NS-only
    /// configuration: a bias-certified reader is visible only through its
    /// table slot, which only the NS write path scans. An HTM or ROT
    /// writer quiesces via the epoch clocks alone, so it would commit
    /// straight past a certified reader — a lost reader by construction.
    pub fn new(alloc: &SimAlloc, max_threads: usize, cfg: RwLeConfig) -> Result<Self, RwLeError> {
        if cfg.indicator != IndicatorKind::Central
            && (cfg.max_htm_retries > 0 || cfg.max_rot_retries > 0)
        {
            return Err(RwLeError::UnsupportedConfig(
                "indicator != Central requires the NS-only configuration \
                 (max_htm_retries == 0 && max_rot_retries == 0): speculative \
                 writers quiesce via the epoch clocks only and would never \
                 see an indicator-published reader",
            ));
        }
        let wlock = alloc.alloc(1)?;
        let split = cfg.max_htm_retries > 0 && cfg.max_rot_retries > 0 && !cfg.fair;
        let rot_lock = if split { alloc.alloc(1)? } else { wlock };
        let ind = match cfg.indicator {
            IndicatorKind::Central => None,
            IndicatorKind::Bravo => Some(BravoIndicator::sized(max_threads)),
        };
        Ok(RwLe {
            wlock,
            rot_lock,
            epochs: Arc::new(EpochSet::new(max_threads)),
            nesting: guard::NestingDepths::new(max_threads),
            ind,
            cfg,
        })
    }

    /// The reader indicator, if one is configured (tests/benches).
    pub fn indicator(&self) -> Option<&BravoIndicator> {
        self.ind.as_ref()
    }

    /// The configuration this lock was built with.
    pub fn config(&self) -> &RwLeConfig {
        &self.cfg
    }

    /// The epoch set used for quiescence (exposed for tests/benches).
    pub fn epochs(&self) -> &Arc<EpochSet> {
        &self.epochs
    }

    /// Address of the global (NS) lock word.
    pub fn wlock_addr(&self) -> Addr {
        self.wlock
    }

    pub(crate) fn nesting(&self) -> &guard::NestingDepths {
        &self.nesting
    }

    /// Whether the ROT lock is its own word (decided once, in
    /// [`RwLe::new`]).
    #[inline]
    fn is_split(&self) -> bool {
        self.rot_lock != self.wlock
    }

    // ------------------------------------------------------------------
    // Read side (Algorithm 2 lines 11–19 + §3.3 variants)
    // ------------------------------------------------------------------

    /// Executes `body` as a read-side critical section.
    ///
    /// Readers are **uninstrumented**: the body runs with plain
    /// non-transactional accesses, so it can never abort. The only
    /// synchronization is the epoch-clock flip and the NS-lock check —
    /// or, with a configured indicator, a single table-slot publication:
    /// a bias-certified read skips the epoch *and* the lock check
    /// entirely (the certified fast path the indicators exist for).
    pub fn read_cs<R, F>(&self, ctx: &mut ThreadCtx, stats: &mut ThreadStats, body: &mut F) -> R
    where
        F: FnMut(&mut dyn MemAccess) -> Result<R, AbortCause> + ?Sized,
    {
        let tid = ctx.slot();
        if let Some(ind) = &self.ind {
            match ind.publish(tid) {
                Publish::Certified(slot) => {
                    // Certified: any writer must revoke the bias and wait
                    // this slot out before mutating (bias-word dichotomy),
                    // so reads are safe with no epoch flip and no lock
                    // check. The claim-filtered accessor is sound here for
                    // the same reason it is for epoch readers: an
                    // indicator requires the NS-only configuration, and
                    // the NS writer waits published slots out after taking
                    // the lock and before its first store — the slot CAS
                    // plays the epoch entry's MEM_FENCE role.
                    stats.bias_reads += 1;
                    let mut acc = ctx.epoch_reader();
                    let r = body(&mut acc).expect("uninstrumented read cannot abort");
                    ind.retire(tid, slot);
                    stats.commit(CommitKind::Uninstrumented);
                    return r;
                }
                Publish::Declined => {
                    stats.bias_slowpath += 1;
                }
            }
        }
        if self.cfg.fair {
            stats.reader_waits += self.fair_read_enter(ctx, tid);
        } else {
            stats.reader_retreats += self.read_enter(ctx, tid);
        }
        if let Some(ind) = &self.ind {
            // Deferred rebias, gated here and only here: we are inside our
            // epoch and both entry protocols returned only after observing
            // the NS lock word not-NS *after* the epoch flip. Any NS
            // writer whose lock CAS our observation preceded must drain us
            // through its quiescence barrier, and its post-quiescence
            // `revoke_serialized` re-check then sees this rebias (the CAS
            // below is program-ordered before our epoch exit). That gating
            // is the drain protocol `revoke_serialized` asks of its
            // caller — see `write_ns`.
            if ind.note_slow_read_deferred() {
                ind.try_rebias();
            }
        }
        // Epoch-protected accessor: loads consult the engine's claim
        // filter and skip the per-line conflict metadata when no writer
        // can hold a claim nearby — sound here because every RW-LE writer
        // quiesces on our epoch between claiming and writing back.
        let mut acc = ctx.epoch_reader();
        let r = body(&mut acc).expect("uninstrumented read cannot abort");
        self.epochs.exit(tid);
        stats.commit(CommitKind::Uninstrumented);
        r
    }

    /// Unfair entry (Algorithm 2 lines 11–17, in §3.3's enter-first
    /// form): flip the epoch, check the lock once, and only if an NS
    /// writer holds it retreat, wait it out and retry. Returns the number
    /// of retreats — the starvation signal the fair variant eliminates.
    pub(crate) fn read_enter(&self, ctx: &ThreadCtx, tid: usize) -> u64 {
        let mut retreats = 0;
        loop {
            self.epochs.enter(tid);
            if state(ctx.read_nt(self.wlock)) != ST_NS {
                return retreats;
            }
            self.epochs.exit(tid);
            retreats += 1;
            let mut bo = sched::Backoff::new();
            while state(ctx.read_nt(self.wlock)) == ST_NS {
                bo.snooze();
            }
        }
    }

    /// Fair entry (§3.3): record the lock version; if a writer holds the
    /// lock, wait for that owner to release — without retreating, so the
    /// reader cannot be overtaken by an endless stream of writers.
    /// Returns 1 if the entry had to wait, 0 otherwise (the fair
    /// counterpart of the unfair path's retreat count).
    pub(crate) fn fair_read_enter(&self, ctx: &ThreadCtx, tid: usize) -> u64 {
        self.epochs.enter(tid);
        let mut w = ctx.read_nt(self.wlock);
        self.epochs.record_version(tid, version(w));
        if state(w) != ST_NS {
            return 0;
        }
        // Wait for the current owner in place. The owner's quiescence
        // skips us (our recorded version is its own). If a *successor*
        // NS writer takes the lock before we observe it free, record the
        // new version too — otherwise the successor would wait for our
        // clock while we wait for its release. Recording is safe here:
        // we have read no data since entering and will not until the
        // lock is free.
        let mut bo = sched::Backoff::new();
        loop {
            bo.snooze();
            let now = ctx.read_nt(self.wlock);
            if state(now) != ST_NS {
                return 1;
            }
            if version(now) != version(w) {
                w = now;
                self.epochs.record_version(tid, version(now));
            }
        }
    }

    // ------------------------------------------------------------------
    // Write side (Algorithm 2 lines 20–72)
    // ------------------------------------------------------------------

    /// Executes `body` as a write-side critical section, driving the
    /// paper's `PATH` retry policy (HTM → ROT → non-speculative).
    pub fn write_cs<R>(
        &self,
        ctx: &mut ThreadCtx,
        stats: &mut ThreadStats,
        body: &mut dyn FnMut(&mut dyn MemAccess) -> Result<R, AbortCause>,
    ) -> R {
        // Quiescence snapshots reuse the context's scratch buffer, so the
        // commit path allocates only on a thread's first write CS.
        let mut snap = ctx.take_scratch();
        let r = self.write_cs_in(ctx, stats, body, &mut snap);
        ctx.restore_scratch(snap);
        r
    }

    fn write_cs_in<R>(
        &self,
        ctx: &mut ThreadCtx,
        stats: &mut ThreadStats,
        body: &mut dyn FnMut(&mut dyn MemAccess) -> Result<R, AbortCause>,
        snap: &mut Vec<u64>,
    ) -> R {
        let mut path = if self.cfg.max_htm_retries > 0 {
            Path::Htm
        } else if self.cfg.max_rot_retries > 0 {
            Path::Rot
        } else {
            Path::Ns
        };
        let mut trials = match path {
            Path::Htm => self.cfg.max_htm_retries,
            Path::Rot => self.cfg.max_rot_retries,
            Path::Ns => 0,
        };
        loop {
            let result = match path {
                Path::Htm => self.write_htm(ctx, stats, body, snap, true),
                Path::Rot => self.write_rot(ctx, stats, body, snap),
                Path::Ns => {
                    let r = self.write_ns(ctx, stats, body, snap);
                    stats.commit(CommitKind::Sgl);
                    return r;
                }
            };
            match result {
                Ok(r) => {
                    stats.commit(match path {
                        Path::Htm => CommitKind::Htm,
                        Path::Rot => CommitKind::Rot,
                        Path::Ns => unreachable!(),
                    });
                    return r;
                }
                Err(cause) => {
                    let mode = match path {
                        Path::Htm => TxMode::Htm,
                        _ => TxMode::Rot,
                    };
                    stats.abort(mode, cause);
                    trials = if cause.is_persistent() {
                        0
                    } else {
                        trials.saturating_sub(1)
                    };
                    if trials == 0 {
                        (path, trials) = match path {
                            Path::Htm if self.cfg.max_rot_retries > 0 => {
                                (Path::Rot, self.cfg.max_rot_retries)
                            }
                            _ => (Path::Ns, 0),
                        };
                    }
                    sched::yield_point();
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Litmus entry points (wmm harness)
    // ------------------------------------------------------------------

    /// Drives `body` through exactly one HTM write attempt — no retry
    /// policy, no fallback. Exists so the wmm litmus harness
    /// (`crates/wmm/tests/lazy_sub.rs`) can pit a bare HTM writer against
    /// a bare ROT writer and machine-check the lazy ROT-subscription
    /// placement. Not part of the protocol surface.
    ///
    /// `subscribe_rot = false` is **deliberately unsound**: the attempt
    /// skips the commit-time ROT-lock subscription, so it can commit in
    /// the middle of a ROT writer's critical section — the unsafe end of
    /// the lazy-subscription spectrum analyzed by Dice et al. (arXiv
    /// 1407.6968). It exists so the harness can show the documented
    /// placement is load-bearing (seed exploration then finds a lost
    /// update); [`RwLe::write_cs`] always subscribes.
    #[doc(hidden)]
    pub fn litmus_write_htm<R>(
        &self,
        ctx: &mut ThreadCtx,
        stats: &mut ThreadStats,
        body: &mut dyn FnMut(&mut dyn MemAccess) -> Result<R, AbortCause>,
        subscribe_rot: bool,
    ) -> Result<R, AbortCause> {
        let mut snap = ctx.take_scratch();
        let r = self.write_htm(ctx, stats, body, &mut snap, subscribe_rot);
        ctx.restore_scratch(snap);
        r
    }

    /// Single ROT write attempt, litmus counterpart of
    /// [`RwLe::litmus_write_htm`].
    #[doc(hidden)]
    pub fn litmus_write_rot<R>(
        &self,
        ctx: &mut ThreadCtx,
        stats: &mut ThreadStats,
        body: &mut dyn FnMut(&mut dyn MemAccess) -> Result<R, AbortCause>,
    ) -> Result<R, AbortCause> {
        let mut snap = ctx.take_scratch();
        let r = self.write_rot(ctx, stats, body, &mut snap);
        ctx.restore_scratch(snap);
        r
    }

    /// HTM write path: concurrent writers via eager lock subscription
    /// (Algorithm 2 lines 41–46), suspend/quiesce/resume commit
    /// (lines 68–72).
    fn write_htm<R>(
        &self,
        ctx: &mut ThreadCtx,
        stats: &mut ThreadStats,
        body: &mut dyn FnMut(&mut dyn MemAccess) -> Result<R, AbortCause>,
        snap: &mut Vec<u64>,
        subscribe_rot: bool,
    ) -> Result<R, AbortCause> {
        let tid = ctx.slot();
        // Let non-HTM writers finish before starting (line 42).
        let mut bo = sched::Backoff::new();
        while state(ctx.read_nt(self.wlock)) != ST_FREE {
            bo.snooze();
        }
        let mut tx = ctx.begin(TxMode::Htm);
        // Eager subscription (lines 43–45): adds the lock to the read set,
        // so a fallback acquirer dooms this transaction instantly.
        if state(tx.read(self.wlock)?) != ST_FREE {
            drop(tx);
            return Err(AbortCause::Explicit(ABORT_LOCK_BUSY));
        }
        let r = body(&mut tx)?;
        if self.is_split() && subscribe_rot {
            // Lazy ROT-lock subscription (§3.3): only at commit must no
            // ROT writer be active — their bodies may overlap with ours.
            // Subscribing here (not earlier) is safe because a ROT holder
            // that appears *after* this read dooms us through the read-set
            // conflict on the lock word; skipping it (only
            // `litmus_write_htm` can) lets us commit inside a ROT critical
            // section — see `wmm`'s lazy-subscription litmus.
            if state(tx.read(self.rot_lock)?) != ST_FREE {
                drop(tx);
                return Err(AbortCause::Explicit(ABORT_LOCK_BUSY));
            }
        }
        // Commit point for quiescence sharing: every claim this
        // transaction will publish is published (claims go up as the body
        // writes), so any full grace period whose scan starts after this
        // snapshot drains every reader we must wait for.
        let gp = self.epochs.grace_snapshot();
        // Delayed commit (lines 69–72): suspend, drain readers, resume.
        let o = tx.suspend(|_nt| self.epochs.synchronize_from(Some(tid), gp, snap));
        self.note_barrier(stats, o);
        tx.commit()?;
        Ok(r)
    }

    /// Folds a quiescence barrier's outcome into the thread's counters.
    #[inline]
    fn note_barrier(&self, stats: &mut ThreadStats, o: epoch::BarrierOutcome) {
        stats.barrier_stalls += o.stalls;
        if o.shared {
            stats.barriers_shared += 1;
        }
    }

    /// ROT write path (Algorithm 2 lines 47–54 and 64–67): writers are
    /// serialized by the ROT lock; loads are untracked, so no suspension
    /// is needed around the quiescence barrier.
    fn write_rot<R>(
        &self,
        ctx: &mut ThreadCtx,
        stats: &mut ThreadStats,
        body: &mut dyn FnMut(&mut dyn MemAccess) -> Result<R, AbortCause>,
        snap: &mut Vec<u64>,
    ) -> Result<R, AbortCause> {
        let tid = ctx.slot();
        self.acquire_rot_lock(ctx);
        let result = (|| -> Result<R, AbortCause> {
            let mut rot = ctx.begin(TxMode::Rot);
            let r = body(&mut rot)?;
            // Commit point for quiescence sharing: the body's claims are
            // published, so a later-starting grace period covers us.
            let gp = self.epochs.grace_snapshot();
            // Drain readers that may have observed pre-commit state; new
            // readers conflicting with our store set abort us instead.
            // The general barrier under `fair` too: version skipping is
            // for NS writers, whose held lock parks every reader that
            // recorded their version. Nobody waits on a ROT holder, so a
            // reader that entered after our lock CAS may have read ahead
            // of our claims and must be drained like any other.
            let o = self.epochs.synchronize_from(Some(tid), gp, snap);
            self.note_barrier(stats, o);
            rot.commit()?;
            Ok(r)
        })();
        self.release_word(ctx, self.rot_lock);
        result
    }

    /// Non-speculative write path (Algorithm 2 lines 55–60 and 62–63).
    fn write_ns<R>(
        &self,
        ctx: &mut ThreadCtx,
        stats: &mut ThreadStats,
        body: &mut dyn FnMut(&mut dyn MemAccess) -> Result<R, AbortCause>,
        snap: &mut Vec<u64>,
    ) -> R {
        let tid = ctx.slot();
        let my_version = self.acquire_word(ctx, self.wlock, ST_NS);
        // NS writers are mutually exclusive on the lock word, which is
        // the serialization `revoke_serialized` asks for; it costs one
        // load in the bias-down steady state. First call: catch a bias
        // set before our lock CAS.
        let early = self.ind.as_ref().is_some_and(|ind| ind.revoke_serialized());
        if self.is_split() {
            // Writers must be mutually exclusive: wait for any ROT holder
            // (new ROTs check the NS lock before acquiring).
            let mut bo = sched::Backoff::new();
            while state(ctx.read_nt(self.rot_lock)) != ST_FREE {
                bo.snooze();
            }
        }
        // Commit point for quiescence sharing: the NS path's "claim" is
        // the lock CAS itself — readers entering after it observe ST_NS
        // and retreat/wait, so a grace period starting after this
        // snapshot drains every reader that slipped in before the CAS.
        let gp = self.epochs.grace_snapshot();
        // Let readers drain (line 59). The general barrier: its summary
        // scan visits only active readers, which is all §3.3's single-pass
        // variant saved on top of it.
        let o = if self.cfg.fair {
            self.epochs
                .synchronize_fair_from(Some(tid), my_version, gp, snap)
        } else {
            self.epochs.synchronize_from(Some(tid), gp, snap)
        };
        self.note_barrier(stats, o);
        if let Some(ind) = &self.ind {
            // Second revocation, after the quiescence barrier. A reader
            // rebias can only land from inside an epoch entered before our
            // lock CAS (see `read_cs`), and the barrier above drained
            // every such reader — so a rebias that raced the first
            // `revoke_serialized` is visible here, and after this point
            // none can land until we release the lock. Then wait every
            // certified slot out: past here, and before our first store,
            // no indicator-published reader is live.
            let late = ind.revoke_serialized();
            if early || late {
                stats.revocations += 1;
                stats.barrier_stalls += rind::collect_wait(ind, Some(tid));
            }
        }
        let mut nt = ctx.non_tx();
        let r = body(&mut nt).expect("non-speculative execution cannot abort");
        self.release_word(ctx, self.wlock);
        r
    }

    /// Acquires the ROT lock, respecting NS-lock priority in split mode.
    fn acquire_rot_lock(&self, ctx: &ThreadCtx) {
        if !self.is_split() {
            self.acquire_word(ctx, self.wlock, ST_ROT);
            return;
        }
        loop {
            let mut bo = sched::Backoff::new();
            while state(ctx.read_nt(self.wlock)) != ST_FREE {
                bo.snooze();
            }
            self.acquire_word(ctx, self.rot_lock, ST_ROT);
            if state(ctx.read_nt(self.wlock)) == ST_FREE {
                return;
            }
            // An NS writer arrived while we acquired; defer to it.
            self.release_word(ctx, self.rot_lock);
        }
    }

    /// Spin-acquires `addr` into `target_state`, bumping the version.
    /// Returns the new version.
    fn acquire_word(&self, ctx: &ThreadCtx, addr: Addr, target_state: u64) -> u64 {
        let mut bo = sched::Backoff::new();
        loop {
            let w = ctx.read_nt(addr);
            if state(w) != ST_FREE {
                bo.snooze();
                continue;
            }
            let new_version = version(w) + 1;
            if ctx.cas_nt(addr, w, pack(new_version, target_state)).is_ok() {
                return new_version;
            }
        }
    }

    /// Releases `addr` back to `ST_FREE`, preserving the version.
    fn release_word(&self, ctx: &ThreadCtx, addr: Addr) {
        let w = ctx.read_nt(addr);
        debug_assert_ne!(state(w), ST_FREE, "releasing a free lock");
        ctx.write_nt(addr, pack(version(w), ST_FREE));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htm::{HtmConfig, HtmRuntime};
    use simmem::SharedMem;
    use stats::AbortBucket;

    fn setup(
        lines: u32,
        htm_cfg: HtmConfig,
        cfg: RwLeConfig,
    ) -> (Arc<HtmRuntime>, SimAlloc, Arc<RwLe>) {
        let mem = Arc::new(SharedMem::new_lines(lines));
        let rt = HtmRuntime::new(Arc::clone(&mem), htm_cfg);
        let alloc = SimAlloc::new(Arc::clone(&mem));
        let rwle = Arc::new(RwLe::new(&alloc, 16, cfg).unwrap());
        (rt, alloc, rwle)
    }

    #[test]
    fn lock_word_layout_is_derived_from_the_budgets() {
        // Every preset is constructible; the ROT lock is its own word
        // exactly when both budgets are non-zero and the lock is not fair.
        let mem = Arc::new(SharedMem::new_lines(64));
        let alloc = SimAlloc::new(Arc::clone(&mem));
        let fair_opt = RwLeConfig {
            fair: true,
            ..RwLeConfig::opt()
        };
        for (cfg, split) in [
            (RwLeConfig::opt(), true),
            (RwLeConfig::opt().with_retries(1, 1), true),
            (RwLeConfig::opt().with_retries(20, 20), true),
            (RwLeConfig::pes(), false),
            (RwLeConfig::htm_only(), false),
            (RwLeConfig::fair_htm_only(), false),
            (RwLeConfig::fallback_only(IndicatorKind::Central), false),
            (RwLeConfig::fallback_only(IndicatorKind::Bravo), false),
            (RwLeConfig::opt().with_retries(0, 0), false),
            (fair_opt, false),
        ] {
            let rwle = RwLe::new(&alloc, 4, cfg).unwrap_or_else(|e| panic!("{cfg:?}: {e}"));
            assert_eq!(rwle.is_split(), split, "lock words of {cfg:?}");
        }
    }

    #[test]
    fn indicator_outside_ns_only_is_rejected() {
        let mem = Arc::new(SharedMem::new_lines(16));
        let alloc = SimAlloc::new(Arc::clone(&mem));
        for cfg in [
            RwLeConfig {
                indicator: IndicatorKind::Bravo,
                ..RwLeConfig::opt()
            },
            RwLeConfig {
                indicator: IndicatorKind::Bravo,
                ..RwLeConfig::pes()
            },
        ] {
            match RwLe::new(&alloc, 4, cfg)
                .err()
                .expect("indicator with speculation must be rejected")
            {
                RwLeError::UnsupportedConfig(why) => {
                    assert!(why.contains("NS-only"), "unexpected reason: {why}")
                }
                e => panic!("wrong error kind: {e}"),
            }
        }
        // The NS-only configuration accepts both indicator kinds.
        for kind in [IndicatorKind::Central, IndicatorKind::Bravo] {
            assert!(
                RwLe::new(&alloc, 4, RwLeConfig::fallback_only(kind)).is_ok(),
                "fallback_only({kind:?}) rejected"
            );
        }
    }

    #[test]
    fn bravo_certified_reads_skip_the_epoch() {
        let (rt, alloc, rwle) = setup(
            64,
            HtmConfig::default(),
            RwLeConfig::fallback_only(IndicatorKind::Bravo),
        );
        let data = alloc.alloc(1).unwrap();
        let mut ctx = rt.register();
        let tid = ctx.slot();
        let mut st = ThreadStats::new();
        // The indicator starts biased: the very first read certifies.
        assert_eq!(
            rwle.read_cs(&mut ctx, &mut st, &mut |acc| acc.read(data)),
            0
        );
        assert_eq!(st.bias_reads, 1);
        assert_eq!(
            rwle.epochs().read_clock(tid),
            0,
            "certified read flipped the clock"
        );
        // The first NS write revokes the bias...
        rwle.write_cs(&mut ctx, &mut st, &mut |acc| acc.write(data, 9));
        assert_eq!(st.revocations, 1);
        assert!(!rwle.indicator().unwrap().bias_enabled());
        // ...so subsequent reads decline to the slow (epoch + lock check)
        // path until enough of them re-arm the bias per the rebias policy.
        let before = st.bias_slowpath;
        let mut rearmed = false;
        for _ in 0..1000 {
            assert_eq!(
                rwle.read_cs(&mut ctx, &mut st, &mut |acc| acc.read(data)),
                9
            );
            if rwle.indicator().unwrap().bias_enabled() {
                rearmed = true;
                break;
            }
        }
        assert!(rearmed, "rebias policy never restored the bias");
        assert!(st.bias_slowpath > before);
        // Certified again after the rebias.
        let fast_before = st.bias_reads;
        assert_eq!(
            rwle.read_cs(&mut ctx, &mut st, &mut |acc| acc.read(data)),
            9
        );
        assert_eq!(st.bias_reads, fast_before + 1);
        assert!(!rwle.epochs().is_active(tid));
    }

    #[test]
    fn indicator_maintains_invariant_real_threads() {
        // The indicator twin of `concurrent_readers_and_writers_maintain_
        // invariant`: certified readers must never see a torn NS update.
        let (rt, alloc, rwle) = setup(
            256,
            HtmConfig::default(),
            RwLeConfig::fallback_only(IndicatorKind::Bravo),
        );
        let data = alloc.alloc(2).unwrap();
        std::thread::scope(|s| {
            for _ in 0..2 {
                let rt = Arc::clone(&rt);
                let rwle = Arc::clone(&rwle);
                s.spawn(move || {
                    let mut ctx = rt.register();
                    let mut st = ThreadStats::new();
                    for _ in 0..200 {
                        rwle.read_cs(&mut ctx, &mut st, &mut |acc| {
                            let a = acc.read(data)?;
                            let b = acc.read(data.offset(1))?;
                            assert_eq!(a, b, "reader saw a torn writer update");
                            Ok(())
                        });
                    }
                });
            }
            for _ in 0..2 {
                let rt = Arc::clone(&rt);
                let rwle = Arc::clone(&rwle);
                s.spawn(move || {
                    let mut ctx = rt.register();
                    let mut st = ThreadStats::new();
                    for _ in 0..100 {
                        rwle.write_cs(&mut ctx, &mut st, &mut |acc| {
                            let v = acc.read(data)?;
                            acc.write(data, v + 1)?;
                            acc.write(data.offset(1), v + 1)?;
                            Ok(())
                        });
                    }
                });
            }
        });
        assert_eq!(rt.mem().load(data), 200);
        assert_eq!(rt.mem().load(data.offset(1)), 200);
    }

    #[test]
    fn single_thread_reads_and_writes() {
        let (rt, alloc, rwle) = setup(128, HtmConfig::default(), RwLeConfig::opt());
        let data = alloc.alloc(1).unwrap();
        let mut ctx = rt.register();
        let mut st = ThreadStats::new();
        rwle.write_cs(&mut ctx, &mut st, &mut |acc| acc.write(data, 5));
        let v = rwle.read_cs(&mut ctx, &mut st, &mut |acc| acc.read(data));
        assert_eq!(v, 5);
        assert_eq!(st.commits(CommitKind::Htm), 1);
        assert_eq!(st.commits(CommitKind::Uninstrumented), 1);
    }

    #[test]
    fn pes_variant_uses_rot() {
        let (rt, alloc, rwle) = setup(128, HtmConfig::default(), RwLeConfig::pes());
        let data = alloc.alloc(1).unwrap();
        let mut ctx = rt.register();
        let mut st = ThreadStats::new();
        rwle.write_cs(&mut ctx, &mut st, &mut |acc| acc.write(data, 5));
        assert_eq!(st.commits(CommitKind::Rot), 1);
        assert_eq!(st.commits(CommitKind::Htm), 0);
    }

    #[test]
    fn capacity_overflow_falls_through_to_rot() {
        // A write CS whose *reads* exceed HTM capacity must land on the
        // ROT path (which does not track reads), not the global lock.
        let htm_cfg = HtmConfig {
            htm_read_capacity: 8,
            ..HtmConfig::default()
        };
        let (rt, alloc, rwle) = setup(512, htm_cfg, RwLeConfig::opt());
        let base = alloc.alloc(8 * 32).unwrap();
        let mut ctx = rt.register();
        let mut st = ThreadStats::new();
        let sum = rwle.write_cs(&mut ctx, &mut st, &mut |acc| {
            let mut sum = 0;
            for i in 0..32u32 {
                sum += acc.read(base.offset(i * 8))?;
            }
            acc.write(base, sum + 1)?;
            Ok(sum)
        });
        assert_eq!(sum, 0);
        assert_eq!(st.commits(CommitKind::Rot), 1, "ROT absorbs the overflow");
        assert_eq!(st.commits(CommitKind::Sgl), 0);
        assert_eq!(st.aborts(AbortBucket::HtmCapacity), 1);
    }

    #[test]
    fn rot_capacity_overflow_lands_on_global_lock() {
        let htm_cfg = HtmConfig {
            htm_write_capacity: 4,
            rot_write_capacity: 8,
            ..HtmConfig::default()
        };
        let (rt, alloc, rwle) = setup(512, htm_cfg, RwLeConfig::opt());
        let base = alloc.alloc(8 * 16).unwrap();
        let mut ctx = rt.register();
        let mut st = ThreadStats::new();
        rwle.write_cs(&mut ctx, &mut st, &mut |acc| {
            for i in 0..16u32 {
                acc.write(base.offset(i * 8), 1)?;
            }
            Ok(())
        });
        assert_eq!(st.commits(CommitKind::Sgl), 1);
        assert_eq!(st.aborts(AbortBucket::HtmCapacity), 1);
        assert_eq!(st.aborts(AbortBucket::RotCapacity), 1);
        // All 16 stores visible after the NS path.
        for i in 0..16u32 {
            assert_eq!(rt.mem().load(base.offset(i * 8)), 1);
        }
    }

    #[test]
    fn writer_waits_for_active_reader_before_commit() {
        // The Figure 1 scenario: the writer's commit must be delayed until
        // the overlapping reader exits. Explored as deterministic seeded
        // schedules — each seed is one interleaving of the reader's two
        // loads against the writer's delayed commit, so the "writer parked
        // in quiescence" window is pinned by the scheduler, not by timing.
        use std::sync::atomic::{AtomicBool, Ordering};
        sched::explore("rwle-fig1-unit", 0..200, |seed| {
            let (rt, alloc, rwle) = setup(128, HtmConfig::default(), RwLeConfig::opt());
            let data = alloc.alloc(2).unwrap();
            let reader_in = Arc::new(AtomicBool::new(false));
            let reader_done = Arc::new(AtomicBool::new(false));

            let mut s = sched::Scheduler::new(seed);
            {
                let rt = Arc::clone(&rt);
                let rwle = Arc::clone(&rwle);
                let reader_in = Arc::clone(&reader_in);
                let reader_done = Arc::clone(&reader_done);
                s.spawn(move || {
                    let rctx = rt.register();
                    let rtid = rctx.slot();
                    // Reader enters (uninstrumented) and reads x...
                    rwle.epochs().enter(rtid);
                    assert_eq!(rctx.read_nt(data), 0);
                    reader_in.store(true, Ordering::SeqCst);
                    sched::yield_point();
                    // ...then reads y: still the old value, on every
                    // schedule, because the writer is parked in quiescence.
                    assert_eq!(
                        rctx.read_nt(data.offset(1)),
                        0,
                        "reader observed a mixed snapshot"
                    );
                    reader_done.store(true, Ordering::SeqCst);
                    rwle.epochs().exit(rtid);
                });
            }
            {
                let rt = Arc::clone(&rt);
                let rwle = Arc::clone(&rwle);
                s.spawn(move || {
                    // Start strictly inside the reader's critical section.
                    while !reader_in.load(Ordering::SeqCst) {
                        sched::yield_point();
                    }
                    let mut wctx = rt.register();
                    let mut st = ThreadStats::new();
                    rwle.write_cs(&mut wctx, &mut st, &mut |acc| {
                        acc.write(data, 1)?;
                        acc.write(data.offset(1), 1)?;
                        Ok(())
                    });
                    assert!(
                        reader_done.load(Ordering::SeqCst),
                        "writer committed before the overlapping reader exited"
                    );
                });
            }
            s.run();
            // After the reader drained, both updates became visible.
            assert_eq!(rt.mem().load(data), 1);
            assert_eq!(rt.mem().load(data.offset(1)), 1);
        });
    }

    #[test]
    fn writer_waits_for_active_reader_real_threads_smoke() {
        // Real-thread smoke for the schedule-explored Figure 1 test above:
        // one preemptive run with an actual sleep in the reader's window.
        use std::sync::atomic::{AtomicBool, Ordering};
        let (rt, alloc, rwle) = setup(128, HtmConfig::default(), RwLeConfig::opt());
        let data = alloc.alloc(2).unwrap();
        let mut wctx = rt.register();
        let rctx = rt.register();
        let reader_done = AtomicBool::new(false);

        let rtid = rctx.slot();
        rwle.epochs().enter(rtid);
        assert_eq!(rctx.read_nt(data), 0);

        std::thread::scope(|s| {
            let rwle2 = Arc::clone(&rwle);
            let reader_done = &reader_done;
            let handle = s.spawn(move || {
                let mut st = ThreadStats::new();
                rwle2.write_cs(&mut wctx, &mut st, &mut |acc| {
                    acc.write(data, 1)?;
                    acc.write(data.offset(1), 1)?;
                    Ok(())
                });
                assert!(
                    reader_done.load(Ordering::SeqCst),
                    "writer committed before the overlapping reader exited"
                );
            });
            std::thread::sleep(std::time::Duration::from_millis(10));
            let y0 = rctx.read_nt(data.offset(1));
            assert_eq!(y0, 0, "reader observed a mixed snapshot");
            reader_done.store(true, Ordering::SeqCst);
            rwle.epochs().exit(rtid);
            handle.join().unwrap();
        });
    }

    #[test]
    fn new_reader_aborts_suspended_writer() {
        // The Figure 2 scenario, driven deterministically via the raw HTM
        // API the write path uses.
        let (rt, alloc, rwle) = setup(128, HtmConfig::default(), RwLeConfig::opt());
        let data = alloc.alloc(1).unwrap();
        let mut wctx = rt.register();
        let rctx = rt.register();
        let mut tx = wctx.begin(TxMode::Htm);
        tx.read(rwle.wlock_addr()).unwrap();
        tx.write(data, 9).unwrap();
        tx.suspend(|_nt| {
            // Quiescence found no readers; a brand-new reader now arrives
            // and loads the speculatively-written line.
            rwle.epochs().enter(rctx.slot());
            assert_eq!(rctx.read_nt(data), 0);
            rwle.epochs().exit(rctx.slot());
        });
        assert_eq!(tx.commit(), Err(AbortCause::ConflictNonTx));
        assert_eq!(rt.mem().load(data), 0);
    }

    #[test]
    fn concurrent_readers_and_writers_maintain_invariant() {
        // Writers keep data[0] == data[1]; readers must never see a split.
        let (rt, alloc, rwle) = setup(256, HtmConfig::default(), RwLeConfig::opt());
        let data = alloc.alloc(2).unwrap();
        std::thread::scope(|s| {
            for _ in 0..2 {
                let rt = Arc::clone(&rt);
                let rwle = Arc::clone(&rwle);
                s.spawn(move || {
                    let mut ctx = rt.register();
                    let mut st = ThreadStats::new();
                    for _ in 0..200 {
                        rwle.read_cs(&mut ctx, &mut st, &mut |acc| {
                            let a = acc.read(data)?;
                            let b = acc.read(data.offset(1))?;
                            assert_eq!(a, b, "reader saw a torn writer update");
                            Ok(())
                        });
                    }
                });
            }
            for _ in 0..2 {
                let rt = Arc::clone(&rt);
                let rwle = Arc::clone(&rwle);
                s.spawn(move || {
                    let mut ctx = rt.register();
                    let mut st = ThreadStats::new();
                    for _ in 0..100 {
                        rwle.write_cs(&mut ctx, &mut st, &mut |acc| {
                            let v = acc.read(data)?;
                            acc.write(data, v + 1)?;
                            acc.write(data.offset(1), v + 1)?;
                            Ok(())
                        });
                    }
                });
            }
        });
        assert_eq!(rt.mem().load(data), 200);
        assert_eq!(rt.mem().load(data.offset(1)), 200);
    }

    #[test]
    fn fair_variant_maintains_invariant_too() {
        let (rt, alloc, rwle) = setup(256, HtmConfig::default(), RwLeConfig::fair_htm_only());
        let data = alloc.alloc(2).unwrap();
        std::thread::scope(|s| {
            for _ in 0..2 {
                let rt = Arc::clone(&rt);
                let rwle = Arc::clone(&rwle);
                s.spawn(move || {
                    let mut ctx = rt.register();
                    let mut st = ThreadStats::new();
                    for _ in 0..150 {
                        rwle.read_cs(&mut ctx, &mut st, &mut |acc| {
                            let a = acc.read(data)?;
                            let b = acc.read(data.offset(1))?;
                            assert_eq!(a, b);
                            Ok(())
                        });
                    }
                });
            }
            let rt2 = Arc::clone(&rt);
            let rwle2 = Arc::clone(&rwle);
            s.spawn(move || {
                let mut ctx = rt2.register();
                let mut st = ThreadStats::new();
                for _ in 0..100 {
                    rwle2.write_cs(&mut ctx, &mut st, &mut |acc| {
                        let v = acc.read(data)?;
                        acc.write(data, v + 1)?;
                        acc.write(data.offset(1), v + 1)?;
                        Ok(())
                    });
                }
            });
        });
        assert_eq!(rt.mem().load(data), 100);
    }

    #[test]
    fn ns_path_blocks_new_readers() {
        // Force the NS path (no speculation) and verify mutual exclusion
        // with readers.
        let cfg = RwLeConfig {
            max_htm_retries: 0,
            max_rot_retries: 0,
            ..RwLeConfig::opt()
        };
        let (rt, alloc, rwle) = setup(256, HtmConfig::default(), cfg);
        let data = alloc.alloc(2).unwrap();
        std::thread::scope(|s| {
            let rt2 = Arc::clone(&rt);
            let rwle2 = Arc::clone(&rwle);
            s.spawn(move || {
                let mut ctx = rt2.register();
                let mut st = ThreadStats::new();
                for _ in 0..100 {
                    rwle2.write_cs(&mut ctx, &mut st, &mut |acc| {
                        let v = acc.read(data)?;
                        acc.write(data, v + 1)?;
                        std::thread::yield_now();
                        acc.write(data.offset(1), v + 1)?;
                        Ok(())
                    });
                }
                assert_eq!(st.commits(CommitKind::Sgl), 100);
            });
            for _ in 0..2 {
                let rt = Arc::clone(&rt);
                let rwle = Arc::clone(&rwle);
                s.spawn(move || {
                    let mut ctx = rt.register();
                    let mut st = ThreadStats::new();
                    for _ in 0..200 {
                        rwle.read_cs(&mut ctx, &mut st, &mut |acc| {
                            let a = acc.read(data)?;
                            let b = acc.read(data.offset(1))?;
                            assert_eq!(a, b);
                            Ok(())
                        });
                    }
                });
            }
        });
        assert_eq!(rt.mem().load(data), 100);
    }

    #[test]
    fn split_words_allow_htm_alongside_rot_bodies() {
        // With split locks, an HTM writer whose body overlaps a ROT
        // writer's body (disjoint data) can commit after the ROT releases.
        let (rt, alloc, rwle) = setup(256, HtmConfig::default(), RwLeConfig::opt());
        assert_ne!(rwle.wlock, rwle.rot_lock, "split lock words");
        let a = alloc.alloc(1).unwrap();
        let b = alloc.alloc(1).unwrap();
        let mut c1 = rt.register();
        let c2 = rt.register();
        // Simulate a ROT writer holding the ROT lock mid-body.
        let v = rwle.acquire_word(&c2, rwle.rot_lock, ST_ROT);
        assert_eq!(v, 1);
        // HTM writer body executes concurrently...
        let mut tx = c1.begin(TxMode::Htm);
        tx.read(rwle.wlock).unwrap();
        tx.write(a, 1).unwrap();
        // ...but at commit the lazy subscription sees the ROT lock busy.
        assert_ne!(state(c2.read_nt(rwle.rot_lock)), ST_FREE);
        drop(tx);
        rwle.release_word(&c2, rwle.rot_lock);
        // Now the full write path succeeds in HTM mode.
        let mut st = ThreadStats::new();
        rwle.write_cs(&mut c1, &mut st, &mut |acc| acc.write(b, 2));
        assert_eq!(st.commits(CommitKind::Htm), 1);
    }

    #[test]
    fn reader_retreats_are_counted_under_ns_writer() {
        // Explored as deterministic seeded schedules. The holder only
        // releases the NS word once the reader's epoch clock reaches 2:
        // the reader enters (clock 1), necessarily observes ST_NS (the
        // lock is still held), and retreats (exit -> clock 2) — so
        // exactly one retreat is guaranteed on EVERY schedule, with no
        // timing window.
        use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
        sched::explore("rwle-retreat-unit", 0..200, |seed| {
            let (rt, alloc, rwle) = setup(128, HtmConfig::default(), RwLeConfig::opt());
            let data = alloc.alloc(1).unwrap();
            let held = Arc::new(AtomicBool::new(false));
            let reader_tid = Arc::new(AtomicUsize::new(usize::MAX));

            let mut s = sched::Scheduler::new(seed);
            {
                let rt = Arc::clone(&rt);
                let rwle = Arc::clone(&rwle);
                let held = Arc::clone(&held);
                let reader_tid = Arc::clone(&reader_tid);
                s.spawn(move || {
                    let holder = rt.register();
                    // Occupy the NS lock by hand: version 1, state NS.
                    let ns_word = (1 << 8) | 1;
                    assert!(holder.cas_nt(rwle.wlock_addr(), 0, ns_word).is_ok());
                    held.store(true, Ordering::SeqCst);
                    // Hold until the reader has entered AND retreated
                    // (enter -> clock 1, retreat exit -> clock 2).
                    loop {
                        let tid = reader_tid.load(Ordering::SeqCst);
                        if tid != usize::MAX && rwle.epochs().read_clock(tid) >= 2 {
                            break;
                        }
                        sched::yield_point();
                    }
                    // Release: state FREE, version preserved.
                    holder.write_nt(rwle.wlock_addr(), 1 << 8);
                });
            }
            {
                let rt = Arc::clone(&rt);
                let rwle = Arc::clone(&rwle);
                let held = Arc::clone(&held);
                let reader_tid = Arc::clone(&reader_tid);
                s.spawn(move || {
                    while !held.load(Ordering::SeqCst) {
                        sched::yield_point();
                    }
                    let mut reader = rt.register();
                    reader_tid.store(reader.slot(), Ordering::SeqCst);
                    let mut st = ThreadStats::new();
                    rwle.read_cs(&mut reader, &mut st, &mut |acc| acc.read(data));
                    assert_eq!(
                        st.reader_retreats, 1,
                        "reader must record exactly one retreat behind the NS writer"
                    );
                    assert_eq!(st.commits(CommitKind::Uninstrumented), 1);
                });
            }
            s.run();
        });
    }

    #[test]
    fn reader_retreats_real_threads_smoke() {
        // Real-thread smoke for the schedule-explored retreat test above.
        let (rt, alloc, rwle) = setup(128, HtmConfig::default(), RwLeConfig::opt());
        let data = alloc.alloc(1).unwrap();
        let holder = rt.register();
        let mut reader = rt.register();
        let ns_word = (1 << 8) | 1;
        assert!(holder.cas_nt(rwle.wlock_addr(), 0, ns_word).is_ok());
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(std::time::Duration::from_millis(5));
                holder.write_nt(rwle.wlock_addr(), 1 << 8);
            });
            let mut st = ThreadStats::new();
            rwle.read_cs(&mut reader, &mut st, &mut |acc| acc.read(data));
            assert!(
                st.reader_retreats >= 1,
                "reader must record its retreat behind the NS writer"
            );
            assert_eq!(st.commits(CommitKind::Uninstrumented), 1);
        });
    }

    #[test]
    fn write_cs_returns_body_value() {
        let (rt, alloc, rwle) = setup(128, HtmConfig::default(), RwLeConfig::opt());
        let data = alloc.alloc(1).unwrap();
        let mut ctx = rt.register();
        let mut st = ThreadStats::new();
        let old = rwle.write_cs(&mut ctx, &mut st, &mut |acc| {
            let old = acc.read(data)?;
            acc.write(data, 42)?;
            Ok(old)
        });
        assert_eq!(old, 0);
        let v = rwle.read_cs(&mut ctx, &mut st, &mut |acc| acc.read(data));
        assert_eq!(v, 42);
    }
}
