//! Lazy ROT-lock subscription litmus over the *real* protocol stack.
//!
//! The split ROT/NS lock words (§3.3) let HTM writers run concurrently
//! with a ROT writer's body and subscribe the ROT lock only at commit.
//! Dice et al. (arXiv 1407.6968) showed that lazy lock subscription is a
//! spectrum with an unsafe end: subscribe too late — or not at all — and
//! a transaction can commit *inside* the lock holder's critical section.
//! For RW-LE the fatal interleaving is
//!
//! ```text
//! ROT writer                    HTM writer
//! acquire rot_lock
//! begin ROT, read x (untracked)
//!                               begin HTM, read x, write x+1, y+1
//!                               commit          <- no rot_lock check!
//! write x+1, y+1 (stale x)
//! commit                        -> one increment lost, forever
//! ```
//!
//! The ROT read is untracked (that is the point of ROTs), so nothing
//! dooms either transaction; only the commit-time subscription makes the
//! HTM writer observe the held ROT lock and abort. These tests drive the
//! real `RwLe` paths under seeded schedule exploration and show the
//! dichotomy both ways:
//!
//! * at the documented placement the lost update is unreachable, and
//! * with the subscription skipped (`litmus_write_htm(.., false)`, an
//!   argument only this harness can pass — `write_cs` always subscribes)
//!   exploration *finds* the lost update and prints the reproducing seed.

use std::sync::Arc;

use htm::{HtmConfig, HtmRuntime};
use rwle::{RwLe, RwLeConfig};
use simmem::{SharedMem, SimAlloc};
use stats::ThreadStats;

/// Offset of the record's second word (`x` lives at the base address,
/// `y` one cache line later); invariant `x == y`, final value = one
/// increment per committed writer.
const Y: u32 = 8;

/// Runs one seeded schedule: one bare-HTM writer vs one bare-ROT writer,
/// each incrementing the two-word record exactly once (retrying its own
/// path until it commits); `subscribe_rot` is the HTM writer's commit-time
/// ROT-lock subscription. Returns the final `(x, y)`.
fn run_schedule(subscribe_rot: bool, seed: u64) -> (u64, u64) {
    let mem = Arc::new(SharedMem::new_lines(16));
    let rt = HtmRuntime::new(Arc::clone(&mem), HtmConfig::default());
    let alloc = SimAlloc::new(Arc::clone(&mem));
    let rwle = Arc::new(RwLe::new(&alloc, 2, RwLeConfig::opt()).unwrap());
    let data = alloc.alloc(Y + 1).unwrap();

    let mut s = sched::Scheduler::new(seed);
    for htm_path in [true, false] {
        let rt = Arc::clone(&rt);
        let rwle = Arc::clone(&rwle);
        s.spawn(move || {
            let mut ctx = rt.register();
            let mut st = ThreadStats::new();
            loop {
                let body = &mut |acc: &mut dyn htm::MemAccess| {
                    let v = acc.read(data)?;
                    acc.write(data, v + 1)?;
                    acc.write(data.offset(Y), v + 1)?;
                    Ok(())
                };
                let r = if htm_path {
                    rwle.litmus_write_htm(&mut ctx, &mut st, body, subscribe_rot)
                } else {
                    rwle.litmus_write_rot(&mut ctx, &mut st, body)
                };
                match r {
                    Ok(()) => break,
                    Err(_) => sched::yield_point(),
                }
            }
        });
    }
    s.run();
    (mem.load(data), mem.load(data.offset(Y)))
}

#[test]
fn commit_time_subscription_makes_htm_and_rot_writers_atomic() {
    // Documented placement: no schedule loses an increment or tears the
    // two-word record.
    sched::explore("lazy-sub-documented", 0..200, |seed| {
        let (x, y) = run_schedule(true, seed);
        assert_eq!((x, y), (2, 2), "lost or torn increment at seed {seed}");
    });
}

#[test]
fn skipping_the_subscription_reproduces_the_lazy_subscription_unsafety() {
    // The unsafe end of the lazy-subscription spectrum: the HTM writer
    // never reads the ROT lock, so nothing stops it committing inside
    // the ROT writer's critical section. Exploration must find a lost
    // update — if it cannot, the subscription is not load-bearing and
    // the split-word justification in orderings.toml is untested.
    let witness = (0..200).find(|&seed| run_schedule(false, seed) != (2, 2));
    let seed = witness.expect(
        "no schedule lost an update with the ROT subscription skipped; \
         the commit-time subscription litmus has no teeth",
    );
    // The witness seed must reproduce: one whole-protocol interleaving
    // is one seed.
    let (x, y) = run_schedule(false, seed);
    assert_ne!((x, y), (2, 2), "witness seed {seed} did not reproduce");
    println!("lazy-subscription lost update at seed {seed}: x={x} y={y}");
}
