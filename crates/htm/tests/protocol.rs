//! Protocol edge cases of the simulated HTM: high slot indices, claim
//! stealing chains, aggregate-store visibility, sequence fencing, and
//! randomized serializability stress.

use std::sync::Arc;

use htm::{AbortCause, HtmConfig, HtmRuntime, TxMode};
use simmem::{Addr, SharedMem};

fn setup(lines: u32) -> (Arc<SharedMem>, Arc<HtmRuntime>) {
    let mem = Arc::new(SharedMem::new_lines(lines));
    let rt = HtmRuntime::new(Arc::clone(&mem), HtmConfig::default());
    (mem, rt)
}

#[test]
fn reader_tracking_works_beyond_slot_64() {
    // The reader bitmap spans two u64 words; exercise the high half.
    let (_mem, rt) = setup(64);
    let mut ctxs: Vec<_> = (0..70).map(|_| rt.register()).collect();
    assert_eq!(ctxs[69].slot(), 69);
    // Slot 69 reads a line transactionally...
    let mut high = ctxs.pop().unwrap(); // slot 69
    let mut tx = high.begin(TxMode::Htm);
    assert_eq!(tx.read(Addr(0)).unwrap(), 0);
    // ...and slot 0's write dooms it through the high bitmap word.
    let mut low = ctxs.remove(0);
    let mut wtx = low.begin(TxMode::Htm);
    wtx.write(Addr(0), 1).unwrap();
    assert_eq!(tx.read(Addr(8)), Err(AbortCause::ConflictTx));
    wtx.commit().unwrap();
}

#[test]
fn claim_steal_chain_leaves_single_owner() {
    // A line stolen through a chain of writers must end with exactly the
    // last writer's value committed.
    let (mem, rt) = setup(64);
    let mut a = rt.register();
    let mut b = rt.register();
    let mut c = rt.register();
    let mut ta = a.begin(TxMode::Htm);
    ta.write(Addr(0), 1).unwrap();
    let mut tb = b.begin(TxMode::Htm);
    tb.write(Addr(0), 2).unwrap(); // steals from a
    let mut tc = c.begin(TxMode::Htm);
    tc.write(Addr(0), 3).unwrap(); // steals from b
    assert!(ta.commit().is_err());
    assert!(tb.commit().is_err());
    tc.commit().unwrap();
    assert_eq!(mem.load(Addr(0)), 3);
    assert_eq!(rt.probe_line_writer(0), None, "claim fully released");
}

#[test]
fn same_line_multi_word_commit_is_atomic_to_nt_readers() {
    // Two words of ONE line written transactionally: a non-transactional
    // reader either dooms the writer (sees both old) or waits out the
    // write-back (sees both new) — never a mix.
    let (mem, rt) = setup(16);
    let rt2 = Arc::clone(&rt);
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        let stop_ref = &stop;
        let writer = s.spawn(move || {
            let mut ctx = rt2.register();
            let mut committed = 0u64;
            while committed < 50 {
                let mut tx = ctx.begin(TxMode::Htm);
                let ok = (|| -> Result<(), AbortCause> {
                    let v = tx.read(Addr(0))?;
                    tx.write(Addr(0), v + 1)?;
                    tx.write(Addr(1), v + 1)?; // same line
                    Ok(())
                })()
                .is_ok()
                    && tx.commit().is_ok();
                if ok {
                    committed += 1;
                }
                std::thread::yield_now();
            }
            stop_ref.store(true, std::sync::atomic::Ordering::SeqCst);
        });
        let reader = s.spawn(|| {
            let ctx = rt.register();
            // xlint: allow(a3) -- a work loop, not a wait loop: every
            // iteration makes progress (two read_nt probes per pass), the
            // stop flag merely bounds the run.
            while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                // Read word1 first, word0 second. Each load either
                // observes a fully-committed pair (it waits out any
                // write-back in progress) or the pre-commit pair, and the
                // values only grow — so the later load can never be
                // behind the earlier one. A torn (non-aggregate) store
                // would let word0 lag word1.
                let b = ctx.read_nt(Addr(1));
                let a = ctx.read_nt(Addr(0));
                assert!(a >= b, "torn same-line commit: word0={a} word1={b}");
            }
        });
        writer.join().unwrap();
        reader.join().unwrap();
    });
    assert_eq!(mem.load(Addr(0)), 50);
    assert_eq!(mem.load(Addr(1)), 50);
}

#[test]
fn sequence_fencing_ignores_stale_dooms() {
    // A transaction that finished cannot be doomed retroactively; the
    // slot's next transaction is unaffected by references to the old one.
    let (_mem, rt) = setup(16);
    let mut ctx = rt.register();
    let slot = ctx.slot();
    let mut tx1 = ctx.begin(TxMode::Htm);
    tx1.write(Addr(0), 1).unwrap();
    let (seq1, _) = rt.probe_slot(slot);
    tx1.commit().unwrap();
    // Stale doom attempt against the finished transaction: no effect.
    use htm::AbortCause as C;
    // (doom is crate-internal; emulate via a conflicting access pattern:
    //  nothing to conflict with — instead verify the next tx commits.)
    let mut tx2 = ctx.begin(TxMode::Htm);
    let (seq2, phase2) = rt.probe_slot(slot);
    assert_eq!(seq2, seq1 + 1);
    assert_eq!(phase2, 1, "active");
    tx2.write(Addr(8), 2).unwrap();
    tx2.commit().unwrap();
    let _ = C::ConflictTx;
}

#[test]
fn two_nt_writers_to_one_line_serialize() {
    // NT store claims are exclusive; hammer one line from many threads
    // with read-modify-write via cas_nt and verify no lost updates.
    let (mem, rt) = setup(16);
    std::thread::scope(|s| {
        for _ in 0..4 {
            let rt = Arc::clone(&rt);
            s.spawn(move || {
                let ctx = rt.register();
                for _ in 0..500 {
                    loop {
                        let v = ctx.read_nt(Addr(0));
                        if ctx.cas_nt(Addr(0), v, v + 1).is_ok() {
                            break;
                        }
                    }
                }
            });
        }
    });
    assert_eq!(mem.load(Addr(0)), 2000);
}

#[test]
fn suspended_tx_sees_concurrent_nt_stores() {
    let (_mem, rt) = setup(16);
    let mut w = rt.register();
    let other = rt.register();
    let mut tx = w.begin(TxMode::Htm);
    tx.write(Addr(0), 1).unwrap();
    other.write_nt(Addr(8), 42);
    tx.suspend(|nt| {
        assert_eq!(nt.read(Addr(8)), 42, "suspended loads are real loads");
    });
    tx.commit().unwrap();
}

#[test]
fn rot_commit_survives_readers_of_untracked_lines() {
    // ROT read 10 lines, wrote 1; nt traffic on the read lines must not
    // hurt it (loads untracked), traffic on the written line must.
    let (_mem, rt) = setup(64);
    let mut a = rt.register();
    let r = rt.register();
    let mut rot = a.begin(TxMode::Rot);
    for i in 1..11u32 {
        rot.read(Addr(i * 8)).unwrap();
    }
    rot.write(Addr(0), 5).unwrap();
    for i in 1..11u32 {
        r.write_nt(Addr(i * 8), 9); // stores to lines the ROT only read
    }
    rot.commit().unwrap();

    let mut rot2 = a.begin(TxMode::Rot);
    rot2.write(Addr(0), 6).unwrap();
    let _ = r.read_nt(Addr(0)); // load of the ROT's written line
    assert_eq!(rot2.commit(), Err(AbortCause::ConflictNonTx));
}

/// A ROT's loads are untracked (PAPER.md), so a read-modify-write in a
/// ROT loses an NT increment that lands between its read and its
/// write, and still commits. That is the design, not a bug — it is why
/// the counter stress below runs no ROT arm — and the same interleaving
/// under HTM dooms the transaction instead.
#[test]
fn rot_read_modify_write_loses_a_concurrent_nt_increment() {
    let (mem, rt) = setup(16);
    let mut a = rt.register();
    let b = rt.register();
    let mut rot = a.begin(TxMode::Rot);
    let v = rot.read(Addr(0)).unwrap();
    assert_eq!(b.cas_nt(Addr(0), v, v + 1), Ok(v));
    rot.write(Addr(0), v + 1).unwrap();
    rot.commit().unwrap();
    assert_eq!(mem.load(Addr(0)), 1, "two increments, one left");
    let mut htm = a.begin(TxMode::Htm);
    let v = htm.read(Addr(0)).unwrap();
    assert_eq!(b.cas_nt(Addr(0), v, v + 1), Ok(v));
    assert_eq!(htm.write(Addr(0), v + 1), Err(AbortCause::ConflictNonTx));
    assert_eq!(mem.load(Addr(0)), 2);
}

#[test]
fn randomized_counter_serializability_stress() {
    // 4 threads × random per-op choice of HTM/nt-CAS incrementing a
    // shared counter: the total must be exact. Exercises the HTM and NT
    // conflict paths against each other (ROT increments lose updates by
    // design; see above).
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let (mem, rt) = setup(16);
    const PER_THREAD: u64 = 300;
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let rt = Arc::clone(&rt);
            s.spawn(move || {
                let mut ctx = rt.register();
                let mut rng = SmallRng::seed_from_u64(t);
                let mut done = 0;
                while done < PER_THREAD {
                    match rng.gen_range(0..2) {
                        0 => {
                            let mut tx = ctx.begin(TxMode::Htm);
                            let ok = (|| -> Result<(), AbortCause> {
                                let v = tx.read(Addr(0))?;
                                tx.write(Addr(0), v + 1)?;
                                Ok(())
                            })()
                            .is_ok()
                                && tx.commit().is_ok();
                            if ok {
                                done += 1;
                            }
                        }
                        _ => {
                            let v = ctx.read_nt(Addr(0));
                            if ctx.cas_nt(Addr(0), v, v + 1).is_ok() {
                                done += 1;
                            }
                        }
                    }
                    std::thread::yield_now();
                }
            });
        }
    });
    assert_eq!(mem.load(Addr(0)), 4 * PER_THREAD);
}

#[test]
fn line_granularity_false_sharing_dooms_the_first_writer() {
    // Two counters share one cache line, the conflict granule: the
    // second writer's claim dooms the first, as on real HTM.
    let (_mem, rt) = setup(16);
    let mut a = rt.register();
    let mut b = rt.register();
    let mut ta = a.begin(TxMode::Htm);
    ta.write(Addr(0), 1).unwrap(); // word 0
    let mut tb = b.begin(TxMode::Htm);
    tb.write(Addr(1), 2).unwrap(); // word 1, same line
    assert!(ta.commit().is_err() && tb.commit().is_ok());
}

#[test]
fn smt_group_sharing_halves_capacity() {
    // Two slots in one SMT group: with both transactions active, each
    // gets half the 16-line budget; alone, the full budget.
    let mem = Arc::new(SharedMem::new_lines(256));
    let cfg = HtmConfig {
        htm_read_capacity: 16,
        smt_group_size: 8,
        ..HtmConfig::default()
    };
    let rt = HtmRuntime::new(Arc::clone(&mem), cfg);
    let mut a = rt.register(); // slot 0
    let mut b = rt.register(); // slot 1, same group

    // Alone: 16 lines fit.
    let mut tx = a.begin(TxMode::Htm);
    for i in 0..16u32 {
        tx.read(Addr(i * 8)).unwrap();
    }
    tx.commit().unwrap();

    // Concurrently: 9 distinct lines overflow the shared half-budget.
    let mut ta = a.begin(TxMode::Htm);
    let mut tb = b.begin(TxMode::Htm);
    tb.read(Addr(200 * 8 / 8)).unwrap(); // keep b active
    let mut res = Ok(0);
    for i in 0..9u32 {
        res = ta.read(Addr(i * 8));
        if res.is_err() {
            break;
        }
    }
    assert_eq!(res, Err(AbortCause::Capacity), "shared budget must shrink");
    drop(ta);
    tb.commit().unwrap();
}

#[test]
fn smt_groups_are_independent() {
    let mem = Arc::new(SharedMem::new_lines(256));
    let cfg = HtmConfig {
        htm_read_capacity: 16,
        smt_group_size: 2,
        ..HtmConfig::default()
    };
    let rt = HtmRuntime::new(Arc::clone(&mem), cfg);
    let mut a = rt.register(); // slot 0, group 0
    let mut b = rt.register(); // slot 1, group 0
    let mut c = rt.register(); // slot 2, group 1

    // c active in ANOTHER group: a keeps its full budget.
    let mut tc = c.begin(TxMode::Htm);
    tc.read(Addr(200)).unwrap();
    let mut ta = a.begin(TxMode::Htm);
    for i in 0..16u32 {
        ta.read(Addr(i * 8)).unwrap();
    }
    ta.commit().unwrap();
    tc.commit().unwrap();
    let _ = &mut b;
}

#[test]
fn telemetry_counts_protocol_events() {
    let (_mem, rt) = setup(64);
    let mut a = rt.register();
    let mut b = rt.register();
    let (b0, d0, s0, _) = rt.telemetry().snapshot();
    // Two conflicting writers: one doom + one steal.
    let mut ta = a.begin(TxMode::Htm);
    ta.write(Addr(0), 1).unwrap();
    let mut tb = b.begin(TxMode::Htm);
    tb.write(Addr(0), 2).unwrap();
    assert!(ta.commit().is_err());
    tb.commit().unwrap();
    let (b1, d1, s1, _) = rt.telemetry().snapshot();
    assert_eq!(b1 - b0, 2, "two begins");
    assert!(d1 > d0, "conflict recorded a doom");
    assert!(s1 > s0, "requester-wins recorded a steal");
}

#[test]
fn write_heavy_disjoint_transactions_scale_without_aborts() {
    // Fully disjoint per-thread lines: zero conflicts expected even with
    // many concurrent transactions in flight.
    let (mem, rt) = setup(512);
    std::thread::scope(|s| {
        for t in 0..6u32 {
            let rt = Arc::clone(&rt);
            s.spawn(move || {
                let mut ctx = rt.register();
                for i in 0..60u32 {
                    let mut tx = ctx.begin(TxMode::Htm);
                    for j in 0..8u32 {
                        // Thread t exclusively owns lines [t*64, t*64+63].
                        let line = t * 64 + j;
                        tx.write(Addr(line * 8), i as u64)
                            .unwrap_or_else(|e| panic!("unexpected abort {e:?}"));
                    }
                    tx.commit().expect("disjoint tx must commit");
                }
            });
        }
    });
    // Sanity: memory contains the last iteration's value somewhere.
    let mut saw = false;
    for w in 0..mem.num_words() {
        if mem.load(Addr(w)) == 59 {
            saw = true;
            break;
        }
    }
    assert!(saw);
}
