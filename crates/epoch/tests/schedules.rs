//! Deterministic schedule exploration of the quiescence barriers.
//!
//! Each test runs real readers and writers over an [`EpochSet`] under
//! `sched::Scheduler`: one logical thread proceeds at a time and a
//! seeded RNG picks who moves at every instrumented step, so one seed IS
//! one interleaving. A barrier that waits when it must not shows up as a
//! step-budget panic carrying the seed; a barrier that returns when it
//! must not shows up as an assertion failure. [`sched::explore`] prints
//! the reproducing seed either way.
//!
//! The property tests at the bottom pin the fair barrier's wait-set rule
//! itself (via [`EpochSet::fair_wait_set_in`]): wait on exactly the readers
//! that are inside a critical section *and* recorded a version older
//! than the writer's.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use epoch::EpochSet;
use proptest::prelude::*;

/// RCU grace periods: a writer may only reclaim (poison) a buffer after
/// `synchronize` — no schedule may let a reader observe poisoned memory.
fn grace_period_schedule(seed: u64) {
    const READERS: usize = 3;
    const WRITER: usize = READERS;
    const POISON: u64 = u64::MAX;
    let epochs = Arc::new(EpochSet::new(READERS + 1));
    let bufs: Arc<[AtomicU64; 2]> = Arc::new([AtomicU64::new(50), AtomicU64::new(0)]);
    let current = Arc::new(AtomicUsize::new(0));

    let mut s = sched::Scheduler::new(seed);
    for tid in 0..READERS {
        let epochs = Arc::clone(&epochs);
        let bufs = Arc::clone(&bufs);
        let current = Arc::clone(&current);
        s.spawn(move || {
            for _ in 0..3 {
                epochs.enter(tid);
                sched::yield_point();
                let idx = current.load(Ordering::SeqCst);
                sched::yield_point();
                let v = bufs[idx].load(Ordering::SeqCst);
                assert_ne!(v, POISON, "reader observed a reclaimed buffer");
                epochs.exit(tid);
                sched::yield_point();
            }
        });
    }
    {
        let epochs = Arc::clone(&epochs);
        let bufs = Arc::clone(&bufs);
        let current = Arc::clone(&current);
        s.spawn(move || {
            for round in 0..3u64 {
                let old = current.load(Ordering::SeqCst);
                let new = 1 - old;
                bufs[new].store(100 + round, Ordering::SeqCst);
                current.store(new, Ordering::SeqCst);
                // Readers snapshotted inside may still hold `old`; only
                // after the grace period may it be reclaimed.
                epochs.synchronize(Some(WRITER));
                bufs[old].store(POISON, Ordering::SeqCst);
            }
        });
    }
    s.run();
}

#[test]
fn grace_period_schedules() {
    sched::explore("epoch-grace-period", 0..400, grace_period_schedule);
}

/// A reader whose recorded version is the writer's own (or newer) must
/// NOT be waited for: the reader stays inside until the writer's barrier
/// completes, so over-waiting is a deadlock (caught by the step budget).
fn fair_skips_newer_schedule(seed: u64) {
    let epochs = Arc::new(EpochSet::new(2));
    let inside = Arc::new(AtomicBool::new(false));
    let done = Arc::new(AtomicBool::new(false));

    let mut s = sched::Scheduler::new(seed);
    {
        let epochs = Arc::clone(&epochs);
        let inside = Arc::clone(&inside);
        let done = Arc::clone(&done);
        s.spawn(move || {
            epochs.enter(0);
            epochs.record_version(0, 7);
            inside.store(true, Ordering::SeqCst);
            while !done.load(Ordering::SeqCst) {
                sched::yield_point();
            }
            epochs.exit(0);
        });
    }
    {
        let epochs = Arc::clone(&epochs);
        let inside = Arc::clone(&inside);
        let done = Arc::clone(&done);
        s.spawn(move || {
            while !inside.load(Ordering::SeqCst) {
                sched::yield_point();
            }
            epochs.synchronize_fair_from(Some(1), 7, epochs.grace_snapshot(), &mut Vec::new());
            done.store(true, Ordering::SeqCst);
        });
    }
    s.run();
    assert!(done.load(Ordering::SeqCst));
}

#[test]
fn fair_skips_newer_readers_schedules() {
    sched::explore("epoch-fair-skips-newer", 0..300, fair_skips_newer_schedule);
}

/// A reader inside with an *older* recorded version must always be
/// waited for: the barrier may not complete before that reader exits.
fn fair_waits_for_older_schedule(seed: u64) {
    let epochs = Arc::new(EpochSet::new(2));
    let entered = Arc::new(AtomicBool::new(false));
    let log: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));

    let mut s = sched::Scheduler::new(seed);
    {
        let epochs = Arc::clone(&epochs);
        let entered = Arc::clone(&entered);
        let log = Arc::clone(&log);
        s.spawn(move || {
            epochs.enter(0);
            epochs.record_version(0, 3);
            entered.store(true, Ordering::SeqCst);
            sched::yield_point();
            sched::yield_point();
            log.lock().unwrap().push("reader-exiting");
            epochs.exit(0);
        });
    }
    {
        let epochs = Arc::clone(&epochs);
        let entered = Arc::clone(&entered);
        let log = Arc::clone(&log);
        s.spawn(move || {
            while !entered.load(Ordering::SeqCst) {
                sched::yield_point();
            }
            epochs.synchronize_fair_from(Some(1), 7, epochs.grace_snapshot(), &mut Vec::new());
            log.lock().unwrap().push("writer-synced");
        });
    }
    s.run();
    let log = log.lock().unwrap();
    assert_eq!(
        *log,
        vec!["reader-exiting", "writer-synced"],
        "barrier returned before the older reader exited"
    );
}

#[test]
fn fair_waits_for_older_readers_schedules() {
    sched::explore(
        "epoch-fair-waits-older",
        0..300,
        fair_waits_for_older_schedule,
    );
}

/// Regression for a deadlock found by `rwle` schedule exploration
/// (suite `rwle-fair-ns`, seed 0): a reader flips its clock, and only
/// then records the version it observed. A barrier that snapshots in
/// that window sees an odd clock with a stale (older) version and
/// starts waiting; if the reader then records the writer's own version
/// and waits for the writer in place, only the barrier's in-loop
/// version re-check prevents a deadlock.
fn fair_release_by_record_schedule(seed: u64) {
    let epochs = Arc::new(EpochSet::new(2));
    let released = Arc::new(AtomicBool::new(false));

    let mut s = sched::Scheduler::new(seed);
    {
        let epochs = Arc::clone(&epochs);
        let released = Arc::clone(&released);
        s.spawn(move || {
            epochs.enter(0);
            sched::yield_point();
            // The reader observed the writer's lock word: record its
            // version and wait for the writer, like a fair RW-LE reader.
            epochs.record_version(0, 9);
            while !released.load(Ordering::SeqCst) {
                sched::yield_point();
            }
            epochs.exit(0);
        });
    }
    {
        let epochs = Arc::clone(&epochs);
        let released = Arc::clone(&released);
        s.spawn(move || {
            epochs.synchronize_fair_from(Some(1), 9, epochs.grace_snapshot(), &mut Vec::new());
            released.store(true, Ordering::SeqCst);
        });
    }
    s.run();
}

#[test]
fn fair_release_by_record_schedules() {
    sched::explore(
        "epoch-fair-release-by-record",
        0..300,
        fair_release_by_record_schedule,
    );
}

/// Summary-bitmap maintenance under reader enter/exit races with a
/// quiescing writer. Two invariants at every scheduler pause point:
///
/// * **Safety direction of the bitmap**: a thread whose clock is odd has
///   its summary bit set — a barrier scanning the summary can never miss
///   an active reader (the bit goes up before the clock on enter and
///   comes down after it on exit).
/// * **Barrier contract**: after `synchronize` returns, every reader
///   that was inside its critical section at the call has moved past the
///   snapshotted epoch — whether the barrier walked clocks itself or was
///   satisfied by another grace period.
fn summary_bitmap_schedule(seed: u64) {
    const READERS: usize = 3;
    const WRITER: usize = READERS;
    let epochs = Arc::new(EpochSet::new(READERS + 1));

    let mut s = sched::Scheduler::new(seed);
    for tid in 0..READERS {
        let epochs = Arc::clone(&epochs);
        s.spawn(move || {
            for _ in 0..3 {
                epochs.enter(tid);
                assert!(
                    epochs.summary_active(tid),
                    "own summary bit clear inside the critical section"
                );
                sched::yield_point();
                epochs.exit(tid);
                sched::yield_point();
            }
        });
    }
    {
        let epochs = Arc::clone(&epochs);
        s.spawn(move || {
            for _ in 0..2 {
                // Clocks frozen relative to the barrier call: no pause
                // point between this snapshot and entering the barrier.
                let before: Vec<u64> = (0..READERS).map(|t| epochs.read_clock(t)).collect();
                epochs.synchronize(Some(WRITER));
                for (t, &c) in before.iter().enumerate() {
                    if c % 2 == 1 {
                        assert_ne!(
                            epochs.read_clock(t),
                            c,
                            "barrier returned with reader {t} still in its snapshotted CS"
                        );
                    }
                }
            }
        });
    }
    {
        // Dedicated invariant checker: both loads run inside one
        // scheduler turn (neither is an instrumented step), so they see
        // a single pause-point state.
        let epochs = Arc::clone(&epochs);
        s.spawn(move || {
            for _ in 0..12 {
                for t in 0..READERS {
                    if epochs.is_active(t) {
                        assert!(
                            epochs.summary_active(t),
                            "active reader {t} missing from the summary bitmap"
                        );
                    }
                }
                sched::yield_point();
            }
        });
    }
    s.run();
}

#[test]
fn summary_bitmap_schedules() {
    sched::explore("epoch-summary-bitmap", 0..400, summary_bitmap_schedule);
}

/// Grace-period sharing at the `EpochSet` level: two writers snapshot
/// the grace sequence and run `synchronize_from` concurrently against
/// racing readers. The barrier contract (every reader active at the
/// snapshot has drained on return) must hold on every schedule whether
/// the barrier walked clocks itself or consumed another writer's grace
/// period; across the exploration, at least one schedule must actually
/// take the shared path.
fn grace_sharing_schedule(seed: u64, shared_seen: &Arc<AtomicU64>) {
    const READERS: usize = 2;
    let epochs = Arc::new(EpochSet::new(READERS + 2));

    let mut s = sched::Scheduler::new(seed);
    for tid in 0..READERS {
        let epochs = Arc::clone(&epochs);
        s.spawn(move || {
            for _ in 0..2 {
                epochs.enter(tid);
                sched::yield_point();
                epochs.exit(tid);
                sched::yield_point();
            }
        });
    }
    for w in [READERS, READERS + 1] {
        let epochs = Arc::clone(&epochs);
        let shared_seen = Arc::clone(shared_seen);
        s.spawn(move || {
            let mut buf = Vec::new();
            // Snapshot and reference clocks in one turn (frozen).
            let gp = epochs.grace_snapshot();
            let before: Vec<u64> = (0..READERS).map(|t| epochs.read_clock(t)).collect();
            sched::yield_point();
            let o = epochs.synchronize_from(Some(w), gp, &mut buf);
            for (t, &c) in before.iter().enumerate() {
                if c % 2 == 1 {
                    assert_ne!(
                        epochs.read_clock(t),
                        c,
                        "shared={}: reader {t} not drained past its snapshot",
                        o.shared
                    );
                }
            }
            if o.shared {
                shared_seen.fetch_add(1, Ordering::SeqCst);
            }
        });
    }
    s.run();
}

#[test]
fn grace_sharing_schedules() {
    let shared = Arc::new(AtomicU64::new(0));
    let counter = Arc::clone(&shared);
    sched::explore("epoch-grace-sharing", 0..400, move |seed| {
        grace_sharing_schedule(seed, &counter)
    });
    assert!(
        shared.load(Ordering::SeqCst) > 0,
        "no schedule exercised quiescence sharing"
    );
}

/// The sharing skip is reachable without any scheduler: a completed full
/// barrier advances the sequence past an earlier snapshot, a fair
/// barrier does not (it waits for only a subset of readers).
#[test]
fn grace_sharing_publish_rules() {
    let e = EpochSet::new(4);
    let before = e.grace_snapshot();
    assert!(!e.synchronize(None).shared, "nothing to share yet");
    assert_eq!(e.graces_completed(), 1);
    let mut buf = Vec::new();
    let o = e.synchronize_from(None, before, &mut buf);
    assert!(o.shared, "completed barrier must cover the older snapshot");
    assert_eq!(o.stalls, 0);

    // A fair barrier consumes but never publishes.
    let snap = e.grace_snapshot();
    e.synchronize_fair_from(None, 7, e.grace_snapshot(), &mut buf);
    assert_eq!(
        e.graces_completed(),
        1,
        "fair barrier must not publish a grace period"
    );
    let o = e.synchronize_from(None, snap, &mut buf);
    assert!(!o.shared, "nothing completed since the snapshot");
}

/// [`EpochSet::fair_wait_set_in`]'s flattened pairs, unflattened.
fn fair_wait_set(e: &EpochSet, skip: Option<usize>, writer_version: u64) -> Vec<(usize, u64)> {
    let mut buf = Vec::new();
    e.fair_wait_set_in(skip, writer_version, &mut buf);
    buf.chunks(2).map(|p| (p[0] as usize, p[1])).collect()
}

proptest! {
    /// The fair wait-set rule, over arbitrary clock/version states:
    /// `synchronize_fair_from` waits on a reader iff its clock is odd AND its
    /// recorded version is older than the writer's — never on readers
    /// with version >= the writer's, always on older odd-clock readers.
    #[test]
    fn fair_wait_set_is_exactly_older_active_readers(
        threads in proptest::collection::vec((0u64..6, 0u64..6), 1..8),
        writer_version in 0u64..6,
    ) {
        let e = EpochSet::new(threads.len());
        for (tid, &(clock, ver)) in threads.iter().enumerate() {
            for _ in 0..clock / 2 {
                e.enter(tid);
                e.exit(tid);
            }
            if clock % 2 == 1 {
                e.enter(tid);
            }
            e.record_version(tid, ver);
        }
        let ws = fair_wait_set(&e, None, writer_version);
        for (tid, &(clock, ver)) in threads.iter().enumerate() {
            let entry = ws.iter().find(|&&(t, _)| t == tid);
            let must_wait = clock % 2 == 1 && ver < writer_version;
            prop_assert_eq!(
                entry.is_some(),
                must_wait,
                "tid {} clock {} version {} writer_version {}",
                tid, clock, ver, writer_version
            );
            if let Some(&(_, snap)) = entry {
                prop_assert_eq!(snap, clock, "snapshot must be the entry clock");
            }
        }
    }

    /// `skip` removes exactly the writer's own slot from the wait set.
    #[test]
    fn fair_wait_set_skip_removes_own_slot(
        n in 1usize..6,
        writer_version in 1u64..6,
    ) {
        let e = EpochSet::new(n);
        for tid in 0..n {
            e.enter(tid); // all inside, version 0 < writer_version
        }
        for skip in 0..n {
            let ws = fair_wait_set(&e, Some(skip), writer_version);
            prop_assert_eq!(ws.len(), n - 1);
            prop_assert!(ws.iter().all(|&(t, _)| t != skip));
        }
    }
}
