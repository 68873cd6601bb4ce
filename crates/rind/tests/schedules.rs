//! Deterministic schedule exploration of the indicator revocation
//! protocol.
//!
//! The property under attack is **no lost reader**: a reader publishing
//! into the table concurrently with a writer revoking the bias and
//! collecting must either be seen by the collection scan (and waited out)
//! or observe the revocation and decline to the slow path. A lost reader
//! — certified yet invisible to the collector — would let the writer's
//! non-atomic two-word update overlap the read and shows up here as a
//! torn-pair assertion carrying the reproducing seed.
//!
//! The model is a minimal lock built from nothing but an optional
//! indicator, a writer flag, and a centralized slow-reader count — the
//! same shape `locks::IndicatedRwLock` and the rwle NS fallback use, with
//! every protocol step under `sched::step()`. Without an indicator it is
//! a plain writer-preference lock: the baseline that shows a torn pair
//! under BRAVO is the indicator's fault, not the harness's.

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
        self.read_pair();
        self.slow.fetch_sub(1, Ordering::SeqCst);
        if let Some(ind) = &self.ind {
            ind.note_slow_read();
        }
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
        if let Some(ind) = &self.ind {
            let rev = ind.begin_collect();
            collect_wait(ind, &rev, None);
        }
        let mut bo = sched::Backoff::new();
        while self.slow.load(Ordering::SeqCst) != 0 {
            bo.snooze();
        }
        let v = self.a.load(Ordering::SeqCst) + 1;
        self.a.store(v, Ordering::SeqCst);
        sched::yield_point();
        self.b.store(v, Ordering::SeqCst);
        self.writer.store(0, Ordering::SeqCst);
        if let Some(ind) = &self.ind {
            ind.end_collect();
        }
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

/// BRAVO publish/revoke race: the bias re-check against the collector's
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

/// The rebias policy itself raced against collectors: slow readers keep
/// nudging `note_slow_read` while writers collect; the bias must never be
/// observed set by `begin_collect` without the collection scan running
/// (that is what `rev.revoked => rev.must_scan` encodes), and the run must
/// terminate with consistent data. 320 seeds.
#[test]
fn bravo_rebias_vs_collect_schedules() {
    sched::explore("rind-bravo-rebias", 0..320, |seed| {
        let m = Arc::new(Model::new(Some(BravoIndicator::sized(READERS + WRITERS))));
        let mut s = sched::Scheduler::new(seed);
        {
            let m = Arc::clone(&m);
            s.spawn(move || {
                for _ in 0..8 {
                    m.ind.as_ref().unwrap().note_slow_read();
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
                }
            });
        }
        s.run();
        assert_eq!(m.a.load(Ordering::SeqCst), WRITES as u64);
        assert_eq!(m.a.load(Ordering::SeqCst), m.b.load(Ordering::SeqCst));
    });
}
