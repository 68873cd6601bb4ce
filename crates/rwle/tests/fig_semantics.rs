//! Deterministic reproductions of the paper's Figures 1 and 2 — the two
//! interleavings that motivate RW-LE's design — driven through the public
//! API of `rwle`, `htm` and `sched`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use htm::{AbortCause, HtmConfig, HtmRuntime, TxMode};
use rwle::{RwLe, RwLeConfig};
use simmem::{SharedMem, SimAlloc};
use stats::ThreadStats;

fn setup() -> (Arc<HtmRuntime>, SimAlloc) {
    let mem = Arc::new(SharedMem::new_lines(256));
    let rt = HtmRuntime::new(Arc::clone(&mem), HtmConfig::default());
    let alloc = SimAlloc::new(mem);
    (rt, alloc)
}

/// Figure 1: a writer whose critical section falls entirely between two
/// reads of an overlapping reader must delay its commit until the reader
/// finishes — otherwise the reader observes a mix of old and new values.
///
/// Explored as deterministic seeded schedules: each seed pins one
/// interleaving of the reader's `r(x) .. r(y)` against the writer's
/// `w-lock .. w(x) w(y) .. w-unlock`, so the quiescence window is driven
/// by the scheduler rather than by a sleep. A failure prints the
/// reproducing seed.
#[test]
fn fig1_writer_commit_is_delayed_past_overlapping_readers() {
    sched::explore("fig1", 0..200, |seed| {
        let (rt, alloc) = setup();
        let rwle = Arc::new(RwLe::new(&alloc, 8, RwLeConfig::opt()).unwrap());
        // x and y on different cache lines.
        let x = alloc.alloc(1).unwrap();
        let y = alloc.alloc(1).unwrap();
        rt.mem().store(x, 10);
        rt.mem().store(y, 10);

        let reader_in = Arc::new(AtomicBool::new(false));
        let reader_exited = Arc::new(AtomicBool::new(false));

        let mut s = sched::Scheduler::new(seed);
        {
            let rt = Arc::clone(&rt);
            let rwle = Arc::clone(&rwle);
            let reader_in = Arc::clone(&reader_in);
            let reader_exited = Arc::clone(&reader_exited);
            s.spawn(move || {
                let reader_ctx = rt.register();
                let reader_tid = reader_ctx.slot();
                // Reader enters its critical section and reads x.
                rwle.epochs().enter(reader_tid);
                assert_eq!(reader_ctx.read_nt(x), 10);
                reader_in.store(true, Ordering::SeqCst);
                sched::yield_point();
                // The reader's second read — r(y) in the figure — must
                // still see the old value on EVERY schedule: the writer
                // is parked in quiescence until the reader exits.
                let ry = reader_ctx.read_nt(y);
                assert_eq!(ry, 10, "reader saw a mixed snapshot (x old, y new)");
                reader_exited.store(true, Ordering::SeqCst);
                rwle.epochs().exit(reader_tid);
            });
        }
        {
            let rt = Arc::clone(&rt);
            let rwle = Arc::clone(&rwle);
            let reader_exited = Arc::clone(&reader_exited);
            s.spawn(move || {
                // w-lock .. w(x) w(y) .. w-unlock, entirely within the
                // reader's critical section.
                while !reader_in.load(Ordering::SeqCst) {
                    sched::yield_point();
                }
                let mut writer_ctx = rt.register();
                let mut st = ThreadStats::new();
                rwle.write_cs(&mut writer_ctx, &mut st, &mut |acc| {
                    acc.write(x, 20)?;
                    acc.write(y, 20)?;
                    Ok(())
                });
                // The delayed commit must not complete before the reader
                // left.
                assert!(
                    reader_exited.load(Ordering::SeqCst),
                    "writer committed while the overlapping reader was active"
                );
            });
        }
        s.run();

        // After the writer drained the reader, both updates are visible.
        assert_eq!(rt.mem().load(x), 20);
        assert_eq!(rt.mem().load(y), 20);
    });
}

/// One real-thread preemptive run of the Figure 1 scenario, as a smoke
/// test alongside the schedule exploration above.
#[test]
fn fig1_real_threads_smoke() {
    let (rt, alloc) = setup();
    let rwle = Arc::new(RwLe::new(&alloc, 8, RwLeConfig::opt()).unwrap());
    let x = alloc.alloc(1).unwrap();
    let y = alloc.alloc(1).unwrap();
    rt.mem().store(x, 10);
    rt.mem().store(y, 10);

    let mut writer_ctx = rt.register();
    let reader_ctx = rt.register();
    let reader_tid = reader_ctx.slot();

    rwle.epochs().enter(reader_tid);
    assert_eq!(reader_ctx.read_nt(x), 10);

    let reader_exited = AtomicBool::new(false);
    std::thread::scope(|s| {
        let rwle2 = Arc::clone(&rwle);
        let reader_exited = &reader_exited;
        let writer = s.spawn(move || {
            let mut st = ThreadStats::new();
            rwle2.write_cs(&mut writer_ctx, &mut st, &mut |acc| {
                acc.write(x, 20)?;
                acc.write(y, 20)?;
                Ok(())
            });
            assert!(
                reader_exited.load(Ordering::SeqCst),
                "writer committed while the overlapping reader was active"
            );
        });

        // Give the writer time to reach its quiescence barrier.
        std::thread::sleep(std::time::Duration::from_millis(10));
        let ry = reader_ctx.read_nt(y);
        assert_eq!(ry, 10, "reader saw a mixed snapshot (x old, y new)");
        reader_exited.store(true, Ordering::SeqCst);
        rwle.epochs().exit(reader_tid);
        writer.join().unwrap();
    });

    assert_eq!(rt.mem().load(x), 20);
    assert_eq!(rt.mem().load(y), 20);
}

/// Figure 2: a *new* reader that starts during the writer's suspended
/// quiescence and touches a speculatively-written line aborts the writer
/// at resume.
#[test]
fn fig2_new_reader_aborts_suspended_writer() {
    let (rt, alloc) = setup();
    let rwle = Arc::new(RwLe::new(&alloc, 8, RwLeConfig::opt()).unwrap());
    let x = alloc.alloc(1).unwrap();
    rt.mem().store(x, 10);

    let mut writer_ctx = rt.register();
    let reader_ctx = rt.register();
    let reader_tid = reader_ctx.slot();

    // Drive the HTM write path by hand so the interleaving is exact.
    let mut tx = writer_ctx.begin(TxMode::Htm);
    tx.read(rwle.wlock_addr()).unwrap(); // eager lock subscription
    tx.write(x, 20).unwrap(); // w(x)
    tx.suspend(|_nt| {
        // Quiescence would find no readers. Now the Figure 2 reader
        // arrives and reads the speculatively-written location.
        rwle.epochs().enter(reader_tid);
        assert_eq!(reader_ctx.read_nt(x), 10, "speculative state leaked");
        rwle.epochs().exit(reader_tid);
    });
    // Resume + commit: the suspended speculation was killed.
    assert_eq!(tx.commit(), Err(AbortCause::ConflictNonTx));
    assert_eq!(rt.mem().load(x), 10, "aborted writer must leave no trace");
}

/// The complement of Figure 2: a new reader that touches *unrelated*
/// lines does not hurt the suspended writer.
#[test]
fn fig2_unrelated_reader_does_not_abort_writer() {
    let (rt, alloc) = setup();
    let rwle = Arc::new(RwLe::new(&alloc, 8, RwLeConfig::opt()).unwrap());
    let x = alloc.alloc(1).unwrap();
    let z = alloc.alloc(1).unwrap();

    let mut writer_ctx = rt.register();
    let reader_ctx = rt.register();
    let reader_tid = reader_ctx.slot();

    let mut tx = writer_ctx.begin(TxMode::Htm);
    tx.read(rwle.wlock_addr()).unwrap();
    tx.write(x, 20).unwrap();
    tx.suspend(|_nt| {
        rwle.epochs().enter(reader_tid);
        let _ = reader_ctx.read_nt(z); // disjoint line
        rwle.epochs().exit(reader_tid);
    });
    assert_eq!(tx.commit(), Ok(()));
    assert_eq!(rt.mem().load(x), 20);
}
