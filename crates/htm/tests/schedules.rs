//! Deterministic schedule exploration — a lightweight model checker for
//! the conflict protocol.
//!
//! Because every engine operation is an explicit call, multiple *logical*
//! threads (contexts) can be interleaved on one OS thread under a seeded
//! scheduler, exploring thousands of interleavings reproducibly. Each
//! *episode* keeps several transactions live simultaneously and weaves
//! their operations with non-transactional traffic in random order.
//! Seed iteration and failing-seed reporting come from [`sched::explore`];
//! whole-protocol OS-thread interleaving lives in the `sched` crate and
//! the `rwle`/`epoch` schedule suites built on it — and, for the one
//! window an episode cannot split (inside an NT store), in
//! `htm_increment_never_loses_a_cas_nt_increment` below.
//!
//! No step can block: engine waits only occur while another context is
//! inside `commit()` write-back or an NT store, both of which complete
//! within a single scheduler step, so cooperative interleaving at
//! operation granularity cannot deadlock.
//!
//! Invariants checked continuously against a reference model:
//!
//! * a transactional read returns its own buffered value or the latest
//!   committed value (eager conflict detection ⇒ never stale);
//! * a non-transactional read always returns the latest committed value
//!   (speculative state is invisible);
//! * after every episode, memory equals the model exactly: committed
//!   transactions applied in commit order, aborted ones traceless.

use std::collections::HashMap;
use std::sync::Arc;

use sched::{Rng, SeedableRng, SmallRng};

use htm::{HtmConfig, HtmRuntime, ThreadCtx, Tx, TxMode};
use simmem::{Addr, SharedMem};

/// A live transaction under the scheduler, with its staged writes.
struct LiveTx<'c> {
    tx: Tx<'c>,
    staged: HashMap<u32, u64>,
}

/// Runs one episode: `k` overlapping transactions plus NT traffic.
#[allow(clippy::too_many_arguments)]
fn episode(
    rng: &mut SmallRng,
    mem: &SharedMem,
    model: &mut HashMap<u32, u64>,
    ctxs: &mut [ThreadCtx],
    addr_space: u32,
    seed: u64,
    committed: &mut u32,
    aborted: &mut u32,
) {
    let k = rng.gen_range(1..=ctxs.len().min(4));
    let (tx_ctxs, nt_ctxs) = ctxs.split_at_mut(k);
    let mut live: Vec<Option<LiveTx<'_>>> = tx_ctxs
        .iter_mut()
        .map(|c| {
            let mode = if rng.gen_bool(0.5) {
                TxMode::Htm
            } else {
                TxMode::Rot
            };
            Some(LiveTx {
                tx: c.begin(mode),
                staged: HashMap::new(),
            })
        })
        .collect();
    let mut remaining = k;

    while remaining > 0 {
        match rng.gen_range(0..6) {
            // Transactional write on a random live transaction.
            0 | 1 => {
                let i = rng.gen_range(0..live.len());
                if let Some(l) = live[i].as_mut() {
                    let a = rng.gen_range(0..addr_space);
                    let v = rng.gen::<u64>() >> 1;
                    match l.tx.write(Addr(a), v) {
                        Ok(()) => {
                            l.staged.insert(a, v);
                        }
                        Err(_) => {
                            live[i] = None; // rolled back
                            *aborted += 1;
                            remaining -= 1;
                        }
                    }
                }
            }
            // Transactional read: own write or latest committed value.
            2 => {
                let i = rng.gen_range(0..live.len());
                if let Some(l) = live[i].as_mut() {
                    let a = rng.gen_range(0..addr_space);
                    match l.tx.read(Addr(a)) {
                        Ok(v) => {
                            let expect = l
                                .staged
                                .get(&a)
                                .or_else(|| model.get(&a))
                                .copied()
                                .unwrap_or(0);
                            assert_eq!(v, expect, "seed {seed}: stale tx read at {a}");
                        }
                        Err(_) => {
                            live[i] = None;
                            *aborted += 1;
                            remaining -= 1;
                        }
                    }
                }
            }
            // Commit a random live transaction.
            3 => {
                let i = rng.gen_range(0..live.len());
                if let Some(l) = live[i].take() {
                    if l.tx.commit().is_ok() {
                        model.extend(l.staged);
                        *committed += 1;
                    } else {
                        *aborted += 1;
                    }
                    remaining -= 1;
                }
            }
            // Non-transactional write from a bystander context.
            4 if !nt_ctxs.is_empty() => {
                let c = &nt_ctxs[rng.gen_range(0..nt_ctxs.len())];
                let a = rng.gen_range(0..addr_space);
                let v = rng.gen::<u64>() >> 1;
                c.write_nt(Addr(a), v);
                model.insert(a, v);
            }
            // Non-transactional read: speculation must be invisible.
            _ if !nt_ctxs.is_empty() => {
                let c = &nt_ctxs[rng.gen_range(0..nt_ctxs.len())];
                let a = rng.gen_range(0..addr_space);
                let v = c.read_nt(Addr(a));
                assert_eq!(
                    v,
                    model.get(&a).copied().unwrap_or(0),
                    "seed {seed}: speculative state leaked at {a}"
                );
            }
            _ => {}
        }
    }

    // Episode over: memory must equal the model exactly.
    for a in 0..addr_space {
        assert_eq!(
            mem.load(Addr(a)),
            model.get(&a).copied().unwrap_or(0),
            "seed {seed}: post-episode divergence at address {a}"
        );
    }
}

fn run_schedule(seed: u64, logical_threads: usize, episodes: usize, addr_space: u32) {
    let mem = Arc::new(SharedMem::new_lines(addr_space.div_ceil(8).max(1)));
    let rt = HtmRuntime::new(Arc::clone(&mem), HtmConfig::default());
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut ctxs: Vec<ThreadCtx> = (0..logical_threads).map(|_| rt.register()).collect();
    let mut model: HashMap<u32, u64> = HashMap::new();
    let mut committed = 0;
    let mut aborted = 0;
    for _ in 0..episodes {
        // Rotate which contexts get to run transactions.
        let pivot = rng.gen_range(0..ctxs.len());
        ctxs.rotate_left(pivot);
        episode(
            &mut rng,
            &mem,
            &mut model,
            &mut ctxs,
            addr_space,
            seed,
            &mut committed,
            &mut aborted,
        );
    }
    assert!(
        committed > 0,
        "seed {seed}: vacuous schedule (nothing committed)"
    );
}

#[test]
fn thousand_random_schedules_preserve_serializability() {
    sched::explore("htm-episodes", 0..1000, |seed| {
        run_schedule(seed, 5, 10, 64)
    });
}

#[test]
fn tight_address_space_maximizes_conflicts() {
    // 8 addresses in a single line: every transaction collides.
    sched::explore("htm-episodes-tight", 0x2000..0x2300, |seed| {
        run_schedule(seed, 6, 12, 8)
    });
}

#[test]
fn many_threads_long_episodes() {
    sched::explore("htm-episodes-long", 0x9000..0x9064, |seed| {
        run_schedule(seed, 10, 25, 24)
    });
}

#[test]
fn two_line_space_stresses_granule_cache_transitions() {
    // 16 addresses across exactly two lines: accesses constantly
    // alternate between hitting the last-granule cache (same line as the
    // previous access) and missing it (the other line), interleaved with
    // dooming NT traffic — the transition matrix the cache must survive.
    sched::explore("htm-episodes-cache", 0x7000..0x7200, |seed| {
        run_schedule(seed, 6, 12, 16)
    });
}

/// An HTM increment against a `cas_nt` increment on two logical
/// threads, switched by the seeded scheduler at every engine step —
/// including the one an NT store takes while it holds the line's claim.
/// Every increment must survive. Both halves of the NT store's
/// protocol are needed: scan for readers only after releasing the claim
/// (with a step between) and a transaction that read the old value
/// claims the line in that window and commits a stale increment (seed
/// 2); let transactional loads ignore the claim and one that starts
/// after the scan loads the old value (seed 3).
#[test]
fn htm_increment_never_loses_a_cas_nt_increment() {
    const EACH: u64 = 4;
    sched::explore("htm-vs-cas-nt", 0..600, |seed| {
        let mem = Arc::new(SharedMem::new_lines(1));
        let rt = HtmRuntime::new(Arc::clone(&mem), HtmConfig::default());
        let (mut htm, nt) = (rt.register(), rt.register());
        let mut s = sched::Scheduler::new(seed);
        s.spawn(move || {
            let mut done = 0;
            while done < EACH {
                let mut tx = htm.begin(TxMode::Htm);
                let run = (|| {
                    let v = tx.read(Addr(0))?;
                    tx.write(Addr(0), v + 1)
                })();
                if run.is_ok() && tx.commit().is_ok() {
                    done += 1;
                }
            }
        });
        s.spawn(move || {
            let mut done = 0;
            while done < EACH {
                let v = nt.read_nt(Addr(0));
                if nt.cas_nt(Addr(0), v, v + 1).is_ok() {
                    done += 1;
                }
            }
        });
        s.run();
        assert_eq!(
            mem.load(Addr(0)),
            2 * EACH,
            "seed {seed}: an increment was lost"
        );
    });
}

/// The last-granule cache must never outlive a doom: once a transaction
/// is doomed, its next access — even one that hits the cache — returns
/// the abort.
mod doomed_while_cached {
    use super::*;
    use htm::AbortCause;

    fn setup() -> (Arc<SharedMem>, Arc<HtmRuntime>) {
        let mem = Arc::new(SharedMem::new_lines(16));
        let rt = HtmRuntime::new(Arc::clone(&mem), HtmConfig::default());
        (mem, rt)
    }

    #[test]
    fn nt_store_dooms_read_cached_line() {
        let (mem, rt) = setup();
        let mut a = rt.register();
        let b = rt.register();
        let mut tx = a.begin(TxMode::Htm);
        assert_eq!(tx.read(Addr(0)), Ok(0)); // caches granule 0
                                             // Bystander NT store to another word of the same line dooms the
                                             // reader through plain conflict detection...
        b.write_nt(Addr(1), 7);
        // ...and the cache-hit repeat read must still observe the doom.
        assert_eq!(tx.read(Addr(0)), Err(AbortCause::ConflictNonTx));
        drop(tx);
        assert_eq!(mem.load(Addr(1)), 7);
    }

    #[test]
    fn writer_steal_dooms_write_cached_line() {
        let (mem, rt) = setup();
        let mut a = rt.register();
        let mut b = rt.register();
        let mut tx_a = a.begin(TxMode::Htm);
        tx_a.write(Addr(0), 1).unwrap(); // claims + caches line 0
                                         // A second speculative writer steals the line (requester wins),
                                         // dooming the first...
        let mut tx_b = b.begin(TxMode::Htm);
        tx_b.write(Addr(0), 2).unwrap();
        // ...so the cache-hit repeat write must return the conflict.
        assert_eq!(tx_a.write(Addr(0), 3), Err(AbortCause::ConflictTx));
        drop(tx_a);
        tx_b.commit().unwrap();
        assert_eq!(mem.load(Addr(0)), 2);
    }

    #[test]
    fn committing_writer_dooms_read_cached_line() {
        let (mem, rt) = setup();
        let mut a = rt.register();
        let mut b = rt.register();
        let mut tx_a = a.begin(TxMode::Htm);
        assert_eq!(tx_a.read(Addr(0)), Ok(0)); // reader bit + cache
                                               // A conflicting writer claims the line, dooming the tracked
                                               // reader at claim time (requester wins)...
        let mut tx_b = b.begin(TxMode::Htm);
        tx_b.write(Addr(0), 9).unwrap();
        tx_b.commit().unwrap();
        // ...and the repeat read must abort rather than return 9 (or 0).
        assert!(tx_a.read(Addr(0)).is_err());
        drop(tx_a);
        assert_eq!(mem.load(Addr(0)), 9);
    }

    #[test]
    fn cache_is_rebuilt_after_rollback() {
        // A doomed transaction's cache must not leak into the context's
        // next transaction: the fresh transaction re-tracks the line and
        // commits normally.
        let (mem, rt) = setup();
        let mut a = rt.register();
        let b = rt.register();
        let mut tx = a.begin(TxMode::Htm);
        tx.write(Addr(0), 1).unwrap();
        b.write_nt(Addr(0), 5); // dooms the writer
        assert!(tx.write(Addr(0), 2).is_err());
        drop(tx);
        let mut tx = a.begin(TxMode::Htm);
        assert_eq!(tx.read(Addr(0)), Ok(5));
        tx.write(Addr(0), 6).unwrap();
        tx.write(Addr(0), 7).unwrap(); // cache-hit write
        tx.commit().unwrap();
        assert_eq!(mem.load(Addr(0)), 7);
    }

    #[test]
    fn rot_reads_bypass_the_read_cache() {
        // ROT loads carry no reader bit, so a repeat ROT read must NOT
        // be served from the cache's skip-resolve path: a foreign writer
        // claiming the line between two ROT reads of the same granule
        // must still be resolved (here: the second read aborts on the
        // writer conflict rather than returning a stale value).
        let (_mem, rt) = setup();
        let mut a = rt.register();
        let mut b = rt.register();
        let mut rot = a.begin(TxMode::Rot);
        assert_eq!(rot.read(Addr(0)), Ok(0));
        // Foreign speculative writer claims the line; an untracked ROT
        // reader must wait out or conflict with it on the next read.
        let mut tx_b = b.begin(TxMode::Htm);
        tx_b.write(Addr(0), 3).unwrap();
        tx_b.commit().unwrap();
        // The line's writer claim was released at commit; the repeat ROT
        // read now resolves the committed value — never a stale cached 0.
        assert_eq!(rot.read(Addr(0)), Ok(3));
        rot.commit().unwrap();
    }
}
