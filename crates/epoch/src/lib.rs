//! RCU-like per-thread epoch clocks and quiescence barriers.
//!
//! RW-LE readers do not execute inside hardware transactions; instead each
//! reader maintains a per-thread logical clock that is incremented when
//! entering and leaving a read-side critical section — odd means "inside".
//! A writer about to commit runs a *quiescence barrier*: it snapshots all
//! clocks and waits for every odd clock to change, guaranteeing that every
//! reader that might have observed pre-commit state has left its critical
//! section (paper §3.1, `RWLE_SYNCHRONIZE`).
//!
//! The crate provides:
//!
//! * [`EpochSet`] — the clock array with [`EpochSet::synchronize`], the
//!   general snapshot-then-wait barrier. (The paper's §3.3 single-pass
//!   variant for the lock-holding NS writer is not a separate loop: the
//!   summary scan already visits only active readers, which is all the
//!   single pass saved.)
//! * Per-thread *lock-version snapshots* used by the fair variant of RW-LE
//!   (§3.3): [`EpochSet::record_version`] /
//!   [`EpochSet::synchronize_fair_from`], which only waits for readers
//!   that entered before a given writer version.
//! * An active-reader summary tree and a grace-period sequence, so a
//!   barrier visits only active readers and concurrently committing
//!   writers share one grace period.
//!
//! # Examples
//!
//! ```
//! use epoch::EpochSet;
//!
//! let epochs = EpochSet::new(4);
//! epochs.enter(2);
//! assert!(epochs.is_active(2));
//! epochs.exit(2);
//! epochs.synchronize(None); // no active readers: returns immediately
//! ```

#![warn(missing_docs)]

mod reclaim;
mod scalable;

pub use reclaim::Reclaimer;
pub use scalable::BarrierOutcome;

use scalable::{AdaptiveWaiter, GraceSeq, Parking, Summary};

use std::sync::atomic::{AtomicU64, Ordering};

/// A cache-line-padded atomic counter.
///
/// Each reader clock gets its own line so reader entry/exit (the paper's
/// "almost free" fast path) never false-shares with other threads.
#[repr(align(64))]
struct PaddedU64(AtomicU64);

/// Per-thread epoch clocks plus fair-variant version snapshots.
pub struct EpochSet {
    clocks: Box<[PaddedU64]>,
    /// Fair variant: version of the global lock observed at reader entry.
    versions: Box<[PaddedU64]>,
    /// Active-reader summary tree: barriers scan this instead of every
    /// clock line, so a barrier costs O(active readers) not O(threads).
    summary: Summary,
    /// Grace-period start/done sequence for quiescence sharing between
    /// concurrently committing writers.
    grace: GraceSeq,
    /// Condvar rendezvous for parked barrier waiters.
    parking: Parking,
    /// Debug builds only: token of the OS thread currently updating the
    /// slot's clock (0 = none), used to detect two OS threads racing the
    /// non-atomic load-then-store clock update.
    #[cfg(debug_assertions)]
    owners: Box<[PaddedU64]>,
}

/// A unique, never-zero token per OS thread (debug builds only).
#[cfg(debug_assertions)]
fn thread_token() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TOKEN: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TOKEN.with(|t| *t)
}

impl EpochSet {
    /// Creates a set of `n` clocks, all initially even (outside).
    pub fn new(n: usize) -> Self {
        let mk = |_| PaddedU64(AtomicU64::new(0));
        EpochSet {
            clocks: (0..n).map(mk).collect(),
            versions: (0..n).map(mk).collect(),
            summary: Summary::new(n),
            grace: GraceSeq::new(),
            parking: Parking::new(),
            #[cfg(debug_assertions)]
            owners: (0..n).map(mk).collect(),
        }
    }

    /// Number of tracked threads.
    #[inline]
    pub fn len(&self) -> usize {
        self.clocks.len()
    }

    /// Returns `true` if no threads are tracked.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.clocks.is_empty()
    }

    /// Marks thread `tid` as inside a read-side critical section.
    ///
    /// Uses sequentially-consistent ordering: the paper's `MEM_FENCE`
    /// after the increment, making the odd clock visible to writers before
    /// any data read.
    ///
    /// The load-then-store clock update is deliberately *not* atomic: each
    /// slot's clock has a single writer at a time — the thread currently
    /// driving the slot — so no increment can be lost. A slot may be handed
    /// off to another OS thread *between* operations (with external
    /// synchronization), but two updates of the same slot must never
    /// overlap; debug builds assert this with a per-slot update token.
    ///
    /// Litmus: the SeqCst clock store + lock load are `wmm::proto`'s
    /// `epoch_enter_dekker` suite — forbidden outcome unreachable at
    /// these strengths, every one-notch weakening killed with a seed.
    #[inline]
    pub fn enter(&self, tid: usize) {
        sched::step();
        // The summary bits go up first: both are SeqCst, so they precede
        // the clock store in the SeqCst total order and any barrier scan
        // that could observe the odd clock observes the bits (the
        // enter-vs-scan dichotomy; see docs/PROTOCOL.md §5).
        self.summary.mark_enter(tid);
        // SeqCst (load-bearing, the paper's MEM_FENCE): the odd clock must
        // be totally ordered against the reader's subsequent lock-word
        // check — store clock, then load lock, racing a writer's lock CAS
        // then clock scan. This is the one clock store that must not be
        // weakened; see docs/PROTOCOL.md §5.
        self.update_clock(tid, 0, "nested enter", Ordering::SeqCst);
    }

    /// Marks thread `tid` as outside its read-side critical section.
    ///
    /// Release store: a writer that observes the even clock (Acquire)
    /// synchronizes with every load this critical section performed —
    /// exit needs no total-order fence, unlike [`EpochSet::enter`].
    /// Litmus: the `epoch_exit_grace` suite in `wmm::proto` pins this
    /// release/acquire pair as a message-passing test.
    #[inline]
    pub fn exit(&self, tid: usize) {
        sched::step();
        self.update_clock(tid, 1, "exit without enter", Ordering::Release);
        // Retract the summary bit only after the clock is even, so it
        // covers the clock's entire odd window, then wake any barrier
        // parked on this reader (one load when nobody is parked).
        self.summary.mark_exit(tid);
        self.parking.wake_all();
    }

    /// The shared non-atomic clock increment (see [`EpochSet::enter`] for
    /// the single-writer discipline that makes it sound).
    #[inline]
    fn update_clock(&self, tid: usize, expect_parity: u64, parity_msg: &str, order: Ordering) {
        #[cfg(debug_assertions)]
        {
            let prev = self.owners[tid].0.swap(thread_token(), Ordering::AcqRel);
            debug_assert_eq!(
                prev, 0,
                "slot {tid}: overlapping clock updates from two OS threads"
            );
        }
        let c = &self.clocks[tid].0;
        let v = c.load(Ordering::Relaxed);
        debug_assert_eq!(v % 2, expect_parity, "{}", parity_msg);
        c.store(v + 1, order);
        #[cfg(debug_assertions)]
        self.owners[tid].0.store(0, Ordering::Release);
    }

    /// Returns `true` if thread `tid` is inside a critical section.
    #[inline]
    pub fn is_active(&self, tid: usize) -> bool {
        self.clocks[tid].0.load(Ordering::Acquire) % 2 == 1
    }

    /// Reads thread `tid`'s clock.
    #[inline]
    pub fn read_clock(&self, tid: usize) -> u64 {
        self.clocks[tid].0.load(Ordering::Acquire)
    }

    /// The grace-period sequence value at this instant — the snapshot a
    /// committing writer takes once all of its speculative claims are
    /// published (SeqCst, so it orders after those claims). Feed it to
    /// the `*_from` barrier variants: if another writer's barrier starts
    /// and completes after this snapshot, the barrier is skipped.
    #[inline]
    pub fn grace_snapshot(&self) -> u64 {
        self.grace.snapshot()
    }

    /// Completed full grace periods so far (monotone; tests and stats).
    pub fn graces_completed(&self) -> u64 {
        self.grace.completed()
    }

    /// Whether the summary tree currently marks `tid` active. Always set
    /// while `tid`'s clock is odd. May be transiently set just before
    /// entry or just after exit (the conservative direction).
    pub fn summary_active(&self, tid: usize) -> bool {
        self.summary.leaf_word(tid / 64) & (1 << (tid % 64)) != 0
    }

    /// The general quiescence barrier (`RWLE_SYNCHRONIZE`, Algorithm 1).
    ///
    /// Waits until every thread that was inside a critical section at the
    /// scan (odd clock) has moved past that epoch. `skip` names the
    /// caller's own slot, which must not be waited on.
    ///
    /// New readers entering *after* the scan are not waited for — they
    /// are handled by conflict detection (they abort the suspended writer
    /// if they touch its write set).
    ///
    /// Allocates a fresh snapshot; hot paths should pass a reusable buffer
    /// to [`EpochSet::synchronize_in`] instead.
    pub fn synchronize(&self, skip: Option<usize>) -> BarrierOutcome {
        self.synchronize_in(skip, &mut Vec::new())
    }

    /// [`EpochSet::synchronize`] with a caller-owned scratch buffer:
    /// the snapshot reuses `snap`'s capacity, so a buffer threaded through
    /// repeated barriers makes quiescence allocation-free after warm-up.
    /// Takes the grace snapshot at barrier entry — so one call retires
    /// every publication the caller made before it, and a snapshot from
    /// before the *last* of them would not; callers that buffered their
    /// stores earlier should take it themselves and use
    /// [`EpochSet::synchronize_from`] for a wider sharing window.
    pub fn synchronize_in(&self, skip: Option<usize>, snap: &mut Vec<u64>) -> BarrierOutcome {
        self.synchronize_from(skip, self.grace.snapshot(), snap)
    }

    /// The scalable quiescence barrier.
    ///
    /// Three mechanisms replace the old full clock walk:
    ///
    /// 1. **Quiescence sharing**: if a full grace period started and
    ///    completed after `grace_snap` (taken at the caller's commit
    ///    point, after its claims were published), every reader the
    ///    caller must drain has already been drained — return `shared`
    ///    without scanning. The same check runs inside the wait loop, so
    ///    a barrier already parked on a reader bails as soon as another
    ///    writer's grace period covers it.
    /// 2. **Summary scan**: only threads whose active-reader summary bit
    ///    is set are visited; the snapshot holds `(tid, clock)` pairs for
    ///    the odd ones, O(active readers) instead of O(threads).
    /// 3. **Adaptive waiting**: each stalled iteration spins briefly,
    ///    then yields, then parks on the exit-notified condvar; the stall
    ///    count is returned for `ThreadStats::barrier_stalls`.
    ///
    /// Clock loads are Acquire: observing a clock move past the snapshot
    /// synchronizes with that reader's critical-section loads (its exit
    /// is a Release store). The summary loads are SeqCst — the scan side
    /// of the enter-vs-scan dichotomy (docs/PROTOCOL.md §5). Both halves
    /// are machine-checked: `wmm::proto`'s `epoch_exit_grace` models the
    /// acquire against `exit`'s release, `summary_enter_vs_scan` the
    /// SeqCst scan.
    pub fn synchronize_from(
        &self,
        skip: Option<usize>,
        grace_snap: u64,
        snap: &mut Vec<u64>,
    ) -> BarrierOutcome {
        if self.grace.covered(grace_snap) {
            return BarrierOutcome {
                stalls: 0,
                shared: true,
            };
        }
        let ticket = self.grace.begin();
        snap.clear();
        let mut skip_active = false;
        self.summary.scan(|tid| {
            let c = self.clocks[tid].0.load(Ordering::Acquire);
            if c % 2 != 1 {
                return;
            }
            if Some(tid) == skip {
                // The caller's own read-side section (nesting): this
                // barrier does not drain it, so it must not be published
                // as a full grace period for other writers to share.
                skip_active = true;
                return;
            }
            snap.push(tid as u64);
            snap.push(c);
        });
        let mut waiter = AdaptiveWaiter::new(&self.parking);
        let mut i = 0;
        while i < snap.len() {
            // Re-checked per entry, not only while blocked: once another
            // writer's grace period covers us, the rest of the walk is
            // redundant too (common when several writers were parked on
            // the same reader — the first to finish publishes, the rest
            // bail here).
            if self.grace.covered(grace_snap) {
                return BarrierOutcome {
                    stalls: waiter.stalls,
                    shared: true,
                };
            }
            let (tid, snapped) = (snap[i] as usize, snap[i + 1]);
            if self.clocks[tid].0.load(Ordering::Acquire) != snapped {
                i += 2;
                continue;
            }
            waiter.stall(|| self.clocks[tid].0.load(Ordering::Acquire) == snapped);
        }
        if !skip_active {
            self.grace.publish(ticket);
        }
        BarrierOutcome {
            stalls: waiter.stalls,
            shared: false,
        }
    }

    /// Records the lock version a reader observed at entry (fair variant).
    ///
    /// Release: pairs with the barrier's Acquire version check; the fair
    /// barrier re-checks versions while waiting, so a briefly stale value
    /// only delays the skip decision, never breaks it.
    #[inline]
    pub fn record_version(&self, tid: usize, version: u64) {
        self.versions[tid].0.store(version, Ordering::Release);
    }

    /// Fair quiescence: waits only for active readers whose recorded
    /// version is older than `writer_version` (§3.3).
    ///
    /// Readers that observed the writer's own (or a newer) version are
    /// serialized after it by construction and need not be waited for.
    /// The wait rule is the one specified (and tested) by
    /// [`EpochSet::fair_wait_set_in`]; `snap` is a caller-owned scratch
    /// buffer (same contract as [`EpochSet::synchronize_in`]) and
    /// `grace_snap` a caller-taken grace snapshot (see
    /// [`EpochSet::synchronize_from`]).
    ///
    /// Grace sharing *consumes* here but never *publishes*: a completed
    /// full grace period drains a superset of the fair wait set (everyone
    /// active at the scan, regardless of recorded version), so `covered`
    /// satisfies this barrier too — but a completed fair barrier waited
    /// only for a subset and must not advance the shared sequence.
    pub fn synchronize_fair_from(
        &self,
        skip: Option<usize>,
        writer_version: u64,
        grace_snap: u64,
        snap: &mut Vec<u64>,
    ) -> BarrierOutcome {
        if self.grace.covered(grace_snap) {
            return BarrierOutcome {
                stalls: 0,
                shared: true,
            };
        }
        self.fair_wait_set_in(skip, writer_version, snap);
        let mut waiter = AdaptiveWaiter::new(&self.parking);
        let mut i = 0;
        while i < snap.len() {
            // Per-entry sharing check (see `synchronize_from`): a full
            // grace period drains a superset of this wait set.
            if self.grace.covered(grace_snap) {
                return BarrierOutcome {
                    stalls: waiter.stalls,
                    shared: true,
                };
            }
            let (tid, snapped) = (snap[i] as usize, snap[i + 1]);
            // The recorded version is re-checked *while* waiting, not only
            // in the initial pass: a reader flips its clock before
            // recording the version it observed, so the scan can catch a
            // reader between the two steps with a stale (older) version.
            // If that reader then observes the writer's lock and records
            // its version, it waits for the lock in place — waiting for
            // its clock here would deadlock.
            if self.clocks[tid].0.load(Ordering::Acquire) != snapped
                || self.versions[tid].0.load(Ordering::Acquire) >= writer_version
            {
                i += 2;
                continue;
            }
            waiter.stall(|| {
                self.clocks[tid].0.load(Ordering::Acquire) == snapped
                    && self.versions[tid].0.load(Ordering::Acquire) < writer_version
            });
        }
        BarrierOutcome {
            stalls: waiter.stalls,
            shared: false,
        }
    }

    /// The wait-set decision of [`EpochSet::synchronize_fair_from`],
    /// separated out so the rule is directly testable: the barrier waits
    /// on exactly the threads that are inside a critical section (odd
    /// snapshot clock) *and* recorded a version older than
    /// `writer_version`.
    ///
    /// Fills `buf` with flattened `(tid, snapshot_clock)` pairs (`tid` at
    /// even indices), visiting only summary-marked threads in ascending
    /// tid order; the barrier waits for each listed clock to move past its
    /// snapshot value. Allocation-free once `buf` has its capacity.
    pub fn fair_wait_set_in(&self, skip: Option<usize>, writer_version: u64, buf: &mut Vec<u64>) {
        buf.clear();
        self.summary.scan(|tid| {
            if Some(tid) == skip {
                return;
            }
            let c = self.clocks[tid].0.load(Ordering::Acquire);
            if c % 2 == 1 && self.versions[tid].0.load(Ordering::Acquire) < writer_version {
                buf.push(tid as u64);
                buf.push(c);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// [`EpochSet::fair_wait_set_in`]'s flattened pairs, unflattened.
    fn fair_wait_set(e: &EpochSet, skip: Option<usize>, writer_version: u64) -> Vec<(usize, u64)> {
        let mut buf = Vec::new();
        e.fair_wait_set_in(skip, writer_version, &mut buf);
        buf.chunks(2).map(|p| (p[0] as usize, p[1])).collect()
    }

    #[test]
    fn enter_exit_toggles_activity() {
        let e = EpochSet::new(2);
        assert!(!e.is_active(0));
        e.enter(0);
        assert!(e.is_active(0));
        assert!(!e.is_active(1));
        e.exit(0);
        assert!(!e.is_active(0));
        assert_eq!(e.read_clock(0), 2);
    }

    #[test]
    fn synchronize_with_no_readers_returns() {
        let e = EpochSet::new(8);
        e.synchronize(None);
        e.synchronize_fair_from(None, 1, e.grace_snapshot(), &mut Vec::new());
    }

    #[test]
    fn synchronize_skips_self() {
        let e = EpochSet::new(2);
        e.enter(0);
        // Would deadlock if slot 0 were waited on.
        e.synchronize(Some(0));
        e.exit(0);
    }

    #[test]
    fn synchronize_waits_for_active_reader() {
        let e = Arc::new(EpochSet::new(2));
        e.enter(1);
        // The flag is set strictly before the reader exits, so if the
        // barrier really waits for the reader it must observe the flag —
        // a determinized version of the old elapsed-time assertion.
        let exiting = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let e2 = Arc::clone(&e);
        let x2 = Arc::clone(&exiting);
        let h = std::thread::spawn(move || {
            x2.store(true, Ordering::SeqCst);
            e2.exit(1);
        });
        e.synchronize(Some(0));
        assert!(
            exiting.load(Ordering::SeqCst),
            "barrier returned before the reader started draining"
        );
        h.join().unwrap();
    }

    #[test]
    fn synchronize_does_not_wait_for_new_readers() {
        // Deterministic half of the property: the barrier needs exactly
        // one clock movement per scanned reader, so it completes off a
        // single exit and a section beginning afterwards is invisible to
        // it. The racy half — a reader re-entering while the barrier is
        // mid-wait — cannot be staged with real threads without timing
        // (a pre-scan re-enter is a section the barrier must wait for);
        // it is explored seed-by-seed in tests/schedules.rs
        // (grace_period_schedules), where the step budget catches a
        // barrier that waits for evenness instead of a clock change.
        let e = Arc::new(EpochSet::new(2));
        e.enter(1);
        let e2 = Arc::clone(&e);
        let h = std::thread::spawn(move || e2.exit(1));
        e.synchronize(Some(0));
        h.join().unwrap();
        e.enter(1); // new section; the completed barrier never waited on it
        assert!(e.is_active(1), "new critical section still running");
    }

    #[test]
    fn fair_synchronize_ignores_newer_readers() {
        let e = EpochSet::new(2);
        e.enter(1);
        e.record_version(1, 5);
        // Writer at version 5: reader recorded version 5 (>= 5) → no wait.
        e.synchronize_fair_from(Some(0), 5, e.grace_snapshot(), &mut Vec::new());
        // Writer at version 6: reader version 5 < 6 → must wait.
        let waited = Arc::new(std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|s| {
            let e = &e;
            let w = Arc::clone(&waited);
            s.spawn(move || {
                // Flag-before-exit: the barrier can only return after
                // exit(1), so observing the flag is guaranteed, not timed.
                w.store(true, Ordering::SeqCst);
                e.exit(1);
            });
            e.synchronize_fair_from(Some(0), 6, e.grace_snapshot(), &mut Vec::new());
            assert!(waited.load(Ordering::SeqCst), "waited for older reader");
        });
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "nested enter")]
    fn nested_enter_panics_in_debug() {
        let e = EpochSet::new(1);
        e.enter(0);
        e.enter(0);
    }

    #[test]
    fn clock_handoff_between_operations_is_allowed() {
        // The single-writer discipline forbids *overlapping* updates, not
        // handing a slot to another OS thread between operations.
        let e = Arc::new(EpochSet::new(1));
        e.enter(0);
        let e2 = Arc::clone(&e);
        std::thread::spawn(move || e2.exit(0)).join().unwrap();
        assert_eq!(e.read_clock(0), 2);
    }

    #[test]
    fn fair_wait_set_matches_rule() {
        let e = EpochSet::new(4);
        e.enter(0); // odd, version 0 -> waited on for wv > 0
        e.enter(1);
        e.record_version(1, 7); // odd, version 7 -> skipped for wv <= 7
        e.record_version(3, 1); // even clock -> never waited on
        let ws = fair_wait_set(&e, None, 5);
        assert_eq!(ws, vec![(0, 1)]);
        let ws = fair_wait_set(&e, None, 8);
        assert_eq!(ws, vec![(0, 1), (1, 1)]);
        let ws = fair_wait_set(&e, Some(0), 8);
        assert_eq!(ws, vec![(1, 1)]);
    }
}
