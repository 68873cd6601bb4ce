//! Scalable-quiescence building blocks: the active-reader summary tree,
//! the global grace-period sequence, and the adaptive barrier waiter.
//!
//! PR-2 made the per-access fast path cheap; the remaining commit-path
//! cost was the barrier itself, which walked one padded cache line per
//! *registered* thread regardless of how many were actually reading, and
//! re-ran in full for every committing writer. The three pieces here
//! attack both axes (BRAVO-style reader visibility for the scan, RCU
//! `gp_seq`-style sharing for the repeat barriers, bounded spin→yield→park
//! for the wait):
//!
//! * [`Summary`] — a two-level bitmap (one bit per thread in per-64-thread
//!   leaf words, one bit per leaf word in a root word) maintained by
//!   reader entry/exit, so a barrier visits only threads whose clocks can
//!   be odd instead of scanning every clock line.
//! * [`GraceSeq`] — start/done grace-period counters. A completed barrier
//!   whose scan *started* after a writer's commit point drains every
//!   reader that writer must wait for, so the writer skips its own walk.
//! * [`AdaptiveWaiter`] + [`Parking`] — barrier waits spin briefly, yield,
//!   and finally park on a condvar that reader exits notify, instead of
//!   yield-storming against the very reader being waited for.
//!
//! The memory-ordering soundness argument (the enter-vs-scan dichotomy)
//! lives with the per-site table in `docs/PROTOCOL.md` §5.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// A cache-line-padded atomic word (same shape as the clock lines).
#[repr(align(64))]
pub(crate) struct PaddedAtomic(pub(crate) AtomicU64);

/// Threads per summary leaf word.
const GROUP: usize = 64;

/// Hierarchical active-reader summary.
///
/// Leaf bit `tid % 64` of word `tid / 64` is set while thread `tid` is
/// inside a read-side critical section; root bit `w` is set once leaf
/// word `w` has ever held a reader. Root bits are *sticky*: clearing them
/// safely would need a clear-then-revalidate dance whose window a
/// concurrent scan could observe, and a stale root bit only costs one
/// extra (zero) leaf-word load per barrier.
pub(crate) struct Summary {
    leaves: Box<[PaddedAtomic]>,
    root: PaddedAtomic,
}

impl Summary {
    /// A summary for `n` threads (at most 64 × 64 = 4096).
    pub(crate) fn new(n: usize) -> Self {
        assert!(
            n <= GROUP * GROUP,
            "summary tree supports at most {} threads",
            GROUP * GROUP
        );
        Summary {
            leaves: (0..n.div_ceil(GROUP))
                .map(|_| PaddedAtomic(AtomicU64::new(0)))
                .collect(),
            root: PaddedAtomic(AtomicU64::new(0)),
        }
    }

    /// Publishes thread `tid` as active. Called *before* the clock store
    /// of the reader's `enter`, so both SeqCst stores precede the clock
    /// in the total order: any barrier scan that could have observed the
    /// odd clock observes the summary bits (the enter-vs-scan dichotomy,
    /// same discipline as the HTM engine's claim filter). Machine-checked
    /// by `wmm::proto`'s `summary_enter_vs_scan` litmus.
    #[inline]
    pub(crate) fn mark_enter(&self, tid: usize) {
        let bit = 1u64 << (tid % GROUP);
        let prev = self.leaves[tid / GROUP].0.fetch_or(bit, Ordering::SeqCst);
        debug_assert_eq!(prev & bit, 0, "summary bit already set: nested enter");
        let rbit = 1u64 << (tid / GROUP);
        // The root bit is sticky, so the conditional set races nothing:
        // once observed set it stays set, and the common case (the group
        // has been active before) skips the contended RMW entirely.
        if self.root.0.load(Ordering::SeqCst) & rbit == 0 {
            self.root.0.fetch_or(rbit, Ordering::SeqCst);
        }
    }

    /// Retracts thread `tid`. Called *after* the clock store of `exit`:
    /// the bit covers the clock's entire odd window, so a scan that finds
    /// the bit clear either ran before the enter (the reader entered
    /// after the writer's commit point — conflict detection covers it) or
    /// after this clear (the reader already drained).
    #[inline]
    pub(crate) fn mark_exit(&self, tid: usize) {
        let bit = 1u64 << (tid % GROUP);
        let prev = self.leaves[tid / GROUP]
            .0
            .fetch_and(!bit, Ordering::Release);
        debug_assert_ne!(prev & bit, 0, "summary bit clear on exit");
    }

    /// Visits every thread whose summary bit is set, in ascending order.
    ///
    /// The root and leaf loads are SeqCst so they order after the
    /// caller's commit-point RMW and see the bits of every reader whose
    /// enter precedes that point (see `docs/PROTOCOL.md` §5; litmus:
    /// `summary_enter_vs_scan` in `wmm::proto`).
    #[inline]
    pub(crate) fn scan(&self, mut visit: impl FnMut(usize)) {
        let mut root = self.root.0.load(Ordering::SeqCst);
        while root != 0 {
            let w = root.trailing_zeros() as usize;
            root &= root - 1;
            let mut word = self.leaves[w].0.load(Ordering::SeqCst);
            while word != 0 {
                let i = word.trailing_zeros() as usize;
                word &= word - 1;
                visit(w * GROUP + i);
            }
        }
    }

    /// Raw leaf word (tests and benches).
    pub(crate) fn leaf_word(&self, group: usize) -> u64 {
        self.leaves[group].0.load(Ordering::SeqCst)
    }
}

/// Global grace-period sequence: `start` counts barriers that have begun
/// their scan, `done` the highest ticket whose barrier completed.
///
/// A writer snapshots `start` at its commit point (all of its claims are
/// published by then). If `done` later exceeds that snapshot, some full
/// barrier *started its scan* after the snapshot — so after the writer's
/// claims — and completed: every reader that entered before the writer's
/// commit point either had drained or was caught by that scan and has
/// drained since. Readers entering after the commit point are the
/// conflict-detection side of the dichotomy. The writer's own clock walk
/// is therefore redundant and is skipped (quiescence sharing).
pub(crate) struct GraceSeq {
    start: PaddedAtomic,
    done: PaddedAtomic,
}

impl GraceSeq {
    pub(crate) fn new() -> Self {
        GraceSeq {
            start: PaddedAtomic(AtomicU64::new(0)),
            done: PaddedAtomic(AtomicU64::new(0)),
        }
    }

    /// The snapshot a prospective skipper takes at its commit point.
    /// SeqCst: must order after the writer's claim publications.
    #[inline]
    pub(crate) fn snapshot(&self) -> u64 {
        self.start.0.load(Ordering::SeqCst)
    }

    /// Has a full grace period started *and* completed since `snap`?
    #[inline]
    pub(crate) fn covered(&self, snap: u64) -> bool {
        self.done.0.load(Ordering::SeqCst) > snap
    }

    /// Takes a ticket for a barrier about to scan. SeqCst RMW: orders
    /// the subsequent scan after any snapshot that returned a smaller
    /// value, which is exactly what `covered` relies on.
    #[inline]
    pub(crate) fn begin(&self) -> u64 {
        self.start.0.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Publishes a *completed* full barrier. Must not be called by
    /// barriers that waited for only a subset of readers (the fair
    /// variant) or that skipped an active reader (`skip` with an odd
    /// clock), and not by barriers that bailed out early via `covered`.
    #[inline]
    pub(crate) fn publish(&self, ticket: u64) {
        self.done.0.fetch_max(ticket, Ordering::SeqCst);
    }

    /// Completed-grace-period counter (tests and stats).
    pub(crate) fn completed(&self) -> u64 {
        self.done.0.load(Ordering::SeqCst)
    }
}

/// Rendezvous for parked barrier waiters: reader exits notify the
/// condvar when (and only when) the waiter count is non-zero, so the
/// reader fast path pays one load.
pub(crate) struct Parking {
    waiters: AtomicU64,
    lock: Mutex<()>,
    cv: Condvar,
}

/// How long a parked barrier sleeps before re-checking on its own.
///
/// The park/notify handshake is deliberately best-effort (the reader's
/// clock store is Release, not SeqCst, so a notify can in principle be
/// missed); the timeout — not the notification — is what bounds the wait,
/// and a missed wakeup costs at most one timeout of extra latency.
const PARK_TIMEOUT: Duration = Duration::from_micros(100);

/// Spin iterations before a barrier wait starts yielding.
const WAIT_SPIN_LIMIT: u32 = 16;
/// Yield iterations before a barrier wait parks.
const WAIT_YIELD_LIMIT: u32 = 32;

impl Parking {
    pub(crate) fn new() -> Self {
        Parking {
            waiters: AtomicU64::new(0),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// Reader-exit hook: wake parked barriers, if any.
    #[inline]
    pub(crate) fn wake_all(&self) {
        if self.waiters.load(Ordering::SeqCst) == 0 {
            return;
        }
        // Taking (and dropping) the lock orders this wakeup after any
        // in-flight parker's registered-but-not-yet-waiting window.
        drop(self.lock.lock().expect("epoch parking poisoned"));
        self.cv.notify_all();
    }

    /// Parks until notified or timed out, unless `still_blocked` turns
    /// false after registration (the standard lost-wakeup re-check).
    fn park(&self, still_blocked: impl Fn() -> bool) {
        self.waiters.fetch_add(1, Ordering::SeqCst);
        {
            let guard = self.lock.lock().expect("epoch parking poisoned");
            if still_blocked() {
                let _ = self
                    .cv
                    .wait_timeout(guard, PARK_TIMEOUT)
                    .expect("epoch parking poisoned");
            }
        }
        self.waiters.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Per-barrier adaptive wait state: bounded spin, then yield, then park,
/// counting every stalled iteration for `ThreadStats::barrier_stalls`.
pub(crate) struct AdaptiveWaiter<'a> {
    parking: &'a Parking,
    iters: u32,
    /// Stalled iterations this barrier performed (all phases).
    pub(crate) stalls: u64,
}

impl<'a> AdaptiveWaiter<'a> {
    pub(crate) fn new(parking: &'a Parking) -> Self {
        AdaptiveWaiter {
            parking,
            iters: 0,
            stalls: 0,
        }
    }

    /// One stalled iteration of a barrier wait loop. `still_blocked` is
    /// re-evaluated after park registration to close the lost-wakeup
    /// window; the spin/yield phases ignore it (the caller's loop
    /// re-checks the condition anyway).
    #[inline]
    pub(crate) fn stall(&mut self, still_blocked: impl Fn() -> bool) {
        self.stalls += 1;
        if sched::is_scheduled() {
            // Deterministic exploration: every stall is exactly one baton
            // step; never park (the scheduler runs one thread at a time).
            sched::yield_point();
            return;
        }
        self.iters += 1;
        if self.iters <= WAIT_SPIN_LIMIT {
            std::hint::spin_loop();
        } else if self.iters <= WAIT_SPIN_LIMIT + WAIT_YIELD_LIMIT {
            std::thread::yield_now();
        } else {
            self.parking.park(still_blocked);
        }
    }
}

/// What a quiescence barrier did, for stats plumbing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BarrierOutcome {
    /// Stalled wait iterations (spin, yield, or park) the barrier spent.
    pub stalls: u64,
    /// `true` when the barrier was satisfied by another writer's
    /// completed grace period instead of (or part-way through) its own
    /// clock walk.
    pub shared: bool,
}
