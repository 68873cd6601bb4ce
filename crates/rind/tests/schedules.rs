//! Deterministic schedule exploration of the indicator revocation
//! protocol.
//!
//! The property under attack is **no lost reader**: a reader publishing
//! into the table concurrently with a writer revoking the bias and
//! scanning must either be seen by the scan (and waited out) or observe
//! the revocation and decline to the slow path. A lost reader —
//! certified yet invisible to the writer — would let the writer's
//! non-atomic two-word update overlap the read and shows up here as a
//! torn-pair assertion carrying the reproducing seed.
//!
//! The model is a minimal lock built from nothing but an optional
//! indicator, a writer flag, and a centralized slow-reader count — the
//! shape of the rwle NS fallback (`writer` is the NS lock word, `slow`
//! the epoch clocks, the drain of `slow` the quiescence barrier), with
//! every protocol step under `sched::step()`. Writers are serialized by
//! the `writer` CAS, so they run `RwLe::write_ns`'s protocol:
//! `revoke_serialized`, drain, `revoke_serialized` again, scan; slow
//! readers rebias from inside their slow section, as `RwLe::read_cs`
//! does. Without an indicator it is a plain writer-preference lock: the
//! baseline that shows a torn pair under BRAVO is the indicator's fault,
//! not the harness's.
//!
//! Non-vacuity — both halves of `revoke_serialized`'s caller contract
//! are load-bearing here, each mutation of the *model* ending in the
//! torn-pair assertion:
//!
//! * drop the post-drain re-call in [`Model::write`] (`let late =
//!   false`: a rebias that raced the first call survives into the write):
//!   `rind-bravo-revocation` fails at seed 67, `rind-bravo-rebias` at
//!   seed 53;
//! * move the rebias in [`Model::slow_read`] below the `slow` decrement
//!   (nothing drains it before the writer's re-call, so it can land
//!   mid-write): `rind-bravo-revocation` fails at seed 311
//!   (`rind-bravo-rebias` first at seed 665, outside its 320).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rind::{collect_wait, BravoIndicator, Publish};

const READERS: usize = 2;
const WRITERS: usize = 2;
const READS: usize = 3;
const WRITES: usize = 2;

struct Model {
    ind: Option<BravoIndicator>,
    writer: AtomicU64,
    slow: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
    fast_reads: AtomicU64,
    slow_reads: AtomicU64,
}

impl Model {
    fn new(ind: Option<BravoIndicator>) -> Self {
        Model {
            ind,
            writer: AtomicU64::new(0),
            slow: AtomicU64::new(0),
            a: AtomicU64::new(0),
            b: AtomicU64::new(0),
            fast_reads: AtomicU64::new(0),
            slow_reads: AtomicU64::new(0),
        }
    }

    /// The pair must never tear: writers update `a` then `b` with a yield
    /// between, so any reader admitted during a write observes `a != b`.
    fn read_pair(&self) {
        let x = self.a.load(Ordering::SeqCst);
        sched::yield_point();
        let y = self.b.load(Ordering::SeqCst);
        assert_eq!(x, y, "torn pair: a reader was admitted during a write");
    }

    fn slow_read(&self) {
        loop {
            self.slow.fetch_add(1, Ordering::SeqCst);
            sched::yield_point();
            if self.writer.load(Ordering::SeqCst) == 0 {
                break;
            }
            self.slow.fetch_sub(1, Ordering::SeqCst);
            let mut bo = sched::Backoff::new();
            while self.writer.load(Ordering::SeqCst) != 0 {
                bo.snooze();
            }
        }
        // Rebias only from inside the slow section, after seeing no
        // writer: a writer whose CAS we preceded drains us before its
        // second `revoke_serialized`, which then sees this rebias.
        if let Some(ind) = &self.ind {
            if ind.note_slow_read_deferred() {
                ind.try_rebias();
            }
        }
        self.read_pair();
        self.slow.fetch_sub(1, Ordering::SeqCst);
        self.slow_reads.fetch_add(1, Ordering::SeqCst);
    }

    fn read(&self, tid: usize) {
        let Some(ind) = &self.ind else {
            return self.slow_read();
        };
        match ind.publish(tid) {
            Publish::Certified(slot) => {
                // Certified: no writer check at all — the revocation
                // protocol alone must exclude us from write sections.
                self.read_pair();
                ind.retire(tid, slot);
                self.fast_reads.fetch_add(1, Ordering::SeqCst);
            }
            Publish::Declined => self.slow_read(),
        }
    }

    fn write(&self) {
        let mut bo = sched::Backoff::new();
        while self
            .writer
            .compare_exchange(0, 1, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            bo.snooze();
        }
        // First call: catch a bias set before our CAS.
        let early = self.ind.as_ref().is_some_and(|ind| ind.revoke_serialized());
        let mut bo = sched::Backoff::new();
        while self.slow.load(Ordering::SeqCst) != 0 {
            bo.snooze();
        }
        if let Some(ind) = &self.ind {
            // Second call, after the drain: catch a rebias that raced the
            // first. Past the scan no certified reader is live.
            let late = ind.revoke_serialized();
            if early || late {
                collect_wait(ind, None);
            }
        }
        let v = self.a.load(Ordering::SeqCst) + 1;
        self.a.store(v, Ordering::SeqCst);
        sched::yield_point();
        self.b.store(v, Ordering::SeqCst);
        self.writer.store(0, Ordering::SeqCst);
    }
}

fn revocation_schedule(ind: Option<BravoIndicator>, seed: u64) {
    let m = Arc::new(Model::new(ind));
    let mut s = sched::Scheduler::new(seed);
    for tid in 0..READERS {
        let m = Arc::clone(&m);
        s.spawn(move || {
            for _ in 0..READS {
                m.read(tid);
            }
        });
    }
    for _ in 0..WRITERS {
        let m = Arc::clone(&m);
        s.spawn(move || {
            for _ in 0..WRITES {
                m.write();
                sched::yield_point();
            }
        });
    }
    s.run();
    // Accounting: every read completed exactly once, on one of the paths.
    let fast = m.fast_reads.load(Ordering::SeqCst);
    let slow = m.slow_reads.load(Ordering::SeqCst);
    assert_eq!(fast + slow, (READERS * READS) as u64);
    assert_eq!(m.a.load(Ordering::SeqCst), (WRITERS * WRITES) as u64);
    assert_eq!(m.slow.load(Ordering::SeqCst), 0);
}

/// BRAVO publish/revoke race: the bias re-check against the writer's
/// revoke + scan. 320 seeds.
#[test]
fn bravo_revocation_schedules() {
    sched::explore("rind-bravo-revocation", 0..320, |seed| {
        revocation_schedule(Some(BravoIndicator::sized(READERS + WRITERS)), seed)
    });
}

/// No indicator: everything funnels through the slow path; the model
/// degenerates to a plain writer-preference lock. 150 seeds.
#[test]
fn central_revocation_schedules() {
    sched::explore("rind-central-revocation", 0..150, |seed| {
        revocation_schedule(None, seed)
    });
}

/// The rebias policy itself raced against revocations: a reader forced
/// onto the slow path keeps nudging the policy from inside its slow
/// sections while a writer revokes; a rebias must never survive into a
/// write section (the torn-pair assertion in every reader), and the run
/// must terminate with consistent data. 320 seeds.
#[test]
fn bravo_rebias_vs_collect_schedules() {
    sched::explore("rind-bravo-rebias", 0..320, |seed| {
        let m = Arc::new(Model::new(Some(BravoIndicator::sized(READERS + WRITERS))));
        let mut s = sched::Scheduler::new(seed);
        {
            let m = Arc::clone(&m);
            s.spawn(move || {
                for _ in 0..8 {
                    m.slow_read();
                    sched::yield_point();
                }
            });
        }
        {
            let m = Arc::clone(&m);
            s.spawn(move || {
                for _ in 0..READS {
                    m.read(0);
                }
            });
        }
        {
            let m = Arc::clone(&m);
            s.spawn(move || {
                for _ in 0..WRITES {
                    m.write();
                    sched::yield_point();
                }
            });
        }
        s.run();
        assert_eq!(m.a.load(Ordering::SeqCst), WRITES as u64);
        assert_eq!(m.a.load(Ordering::SeqCst), m.b.load(Ordering::SeqCst));
    });
}
