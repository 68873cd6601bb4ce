//! Deterministic schedule exploration of the full RW-LE protocol stack.
//!
//! Each test drives real `RwLe` critical sections — uninstrumented
//! readers against HTM/ROT/NS writers — under `sched::Scheduler`: every
//! logical thread runs on its own OS thread, but the baton protocol lets
//! exactly one proceed at a time and a seeded RNG picks who moves at
//! every instrumented step (simulated memory accesses, epoch flips, spin
//! iterations). One seed therefore IS one whole-protocol interleaving,
//! reproducible forever; a failure prints the seed via [`sched::explore`].
//!
//! Invariants checked on every schedule, against a sequential reference
//! model (writers increment a multi-word record by one per committed
//! write critical section):
//!
//! * **Reader-snapshot atomicity** — a reader sees all record words
//!   equal; a mixed snapshot means a writer became visible mid-read,
//!   i.e. quiescence-before-commit was violated.
//! * **Reader monotonicity** — successive reads of one thread observe
//!   non-decreasing record values, each no larger than the total number
//!   of writes.
//! * **Writer mutual exclusion** — the final record value equals the
//!   total number of write critical sections: no increment is lost.
//! * **Commit-path / abort-cause accounting** — merged [`ThreadStats`]
//!   match the reference model exactly (reader commits all
//!   uninstrumented, writer commits summing across HTM/ROT/SGL) and
//!   respect the configuration (no HTM commits under PES, no ROT
//!   commits or ROT aborts when ROTs are disabled, no retreats under
//!   the fair variant, no fair waits under the unfair one).

use std::sync::{Arc, Mutex};

use htm::{HtmConfig, HtmRuntime};
use rwle::{RwLe, RwLeConfig};
use simmem::{SharedMem, SimAlloc};
use stats::{AbortBucket, CommitKind, StatsSummary, ThreadStats};

/// Record width in words. Spread over distinct cache lines (8 words
/// apart) so a torn commit would be observable word by word.
const WORDS: u32 = 3;
const WORD_STRIDE: u32 = 8;

const READERS: usize = 2;
const WRITERS: usize = 2;
const READS_PER_READER: u64 = 3;
const WRITES_PER_WRITER: u64 = 2;

/// Runs one seeded whole-protocol schedule and checks every invariant.
fn run_schedule(cfg: RwLeConfig, seed: u64) {
    let mem = Arc::new(SharedMem::new_lines(64));
    let rt = HtmRuntime::new(Arc::clone(&mem), HtmConfig::default());
    let alloc = SimAlloc::new(Arc::clone(&mem));
    let rwle = Arc::new(RwLe::new(&alloc, READERS + WRITERS, cfg).unwrap());
    let data = alloc.alloc(WORDS * WORD_STRIDE).unwrap();

    let total_writes = WRITERS as u64 * WRITES_PER_WRITER;
    let all_stats: Arc<Mutex<Vec<ThreadStats>>> = Arc::new(Mutex::new(Vec::new()));

    let mut s = sched::Scheduler::new(seed);
    for _ in 0..READERS {
        let rt = Arc::clone(&rt);
        let rwle = Arc::clone(&rwle);
        let all_stats = Arc::clone(&all_stats);
        s.spawn(move || {
            let mut ctx = rt.register();
            let mut st = ThreadStats::new();
            let mut last = 0;
            for _ in 0..READS_PER_READER {
                let v = rwle.read_cs(&mut ctx, &mut st, &mut |acc| {
                    let v0 = acc.read(data)?;
                    for w in 1..WORDS {
                        let vw = acc.read(data.offset(w * WORD_STRIDE))?;
                        assert_eq!(v0, vw, "torn reader snapshot at word {w}");
                    }
                    Ok(v0)
                });
                assert!(v >= last, "reader observed the record go backwards");
                assert!(v <= total_writes, "reader observed an impossible value");
                last = v;
            }
            all_stats.lock().unwrap().push(st);
        });
    }
    for _ in 0..WRITERS {
        let rt = Arc::clone(&rt);
        let rwle = Arc::clone(&rwle);
        let all_stats = Arc::clone(&all_stats);
        s.spawn(move || {
            let mut ctx = rt.register();
            let mut st = ThreadStats::new();
            for _ in 0..WRITES_PER_WRITER {
                rwle.write_cs(&mut ctx, &mut st, &mut |acc| {
                    let v = acc.read(data)?;
                    for w in 0..WORDS {
                        acc.write(data.offset(w * WORD_STRIDE), v + 1)?;
                    }
                    Ok(())
                });
            }
            all_stats.lock().unwrap().push(st);
        });
    }
    s.run();

    // Writer mutual exclusion: no lost increments.
    for w in 0..WORDS {
        assert_eq!(
            mem.load(data.offset(w * WORD_STRIDE)),
            total_writes,
            "lost writer increment in word {w}"
        );
    }

    // Commit-path and abort-cause accounting against the model.
    let stats = all_stats.lock().unwrap();
    let sum = StatsSummary::from_threads(stats.iter());
    assert_eq!(
        sum.commits(CommitKind::Uninstrumented),
        READERS as u64 * READS_PER_READER,
        "every read CS commits exactly once, uninstrumented"
    );
    let writer_commits =
        sum.commits(CommitKind::Htm) + sum.commits(CommitKind::Rot) + sum.commits(CommitKind::Sgl);
    assert_eq!(
        writer_commits, total_writes,
        "every write CS commits exactly once across HTM/ROT/SGL"
    );
    assert_eq!(sum.ops, sum.total_commits(), "ops counts committed CSs");
    if cfg.max_htm_retries == 0 {
        assert_eq!(sum.commits(CommitKind::Htm), 0, "HTM disabled by config");
        for b in [
            AbortBucket::HtmTx,
            AbortBucket::HtmNonTx,
            AbortBucket::HtmCapacity,
        ] {
            assert_eq!(sum.aborts(b), 0, "HTM abort bucket {b:?} without HTM");
        }
    }
    if cfg.max_rot_retries == 0 {
        assert_eq!(sum.commits(CommitKind::Rot), 0, "ROTs disabled by config");
        for b in [AbortBucket::RotConflicts, AbortBucket::RotCapacity] {
            assert_eq!(sum.aborts(b), 0, "ROT abort bucket {b:?} without ROTs");
        }
    }
    if cfg.fair {
        assert_eq!(sum.reader_retreats, 0, "fair readers never retreat");
    } else {
        assert_eq!(sum.reader_waits, 0, "unfair readers never wait in place");
    }
    if cfg.indicator == rind::IndicatorKind::Central {
        assert_eq!(sum.bias_reads, 0, "no indicator, no certified reads");
        assert_eq!(sum.revocations, 0, "no indicator, no revocations");
        assert_eq!(sum.bias_slowpath, 0, "no indicator, no fall-throughs");
    } else {
        // With an indicator every read either certifies or falls through,
        // exactly once.
        assert_eq!(
            sum.bias_reads + sum.bias_slowpath,
            READERS as u64 * READS_PER_READER,
            "indicator accounting must cover every read exactly once"
        );
        assert!(
            sum.revocations <= total_writes,
            "at most one revocation per write CS"
        );
    }
}

/// Variant schedule whose bodies hammer one word: readers load it three
/// times per critical section (all loads must agree — the record cannot
/// change under a reader's feet), writers read-modify-write it twice per
/// critical section with an own-write readback in between. Every repeat
/// access after the first hits the transaction's last-granule cache on
/// the HTM/ROT paths, so these schedules interleave cache hits with
/// dooming conflicts at every instrumented step.
fn run_same_word_schedule(cfg: RwLeConfig, seed: u64) {
    let mem = Arc::new(SharedMem::new_lines(64));
    let rt = HtmRuntime::new(Arc::clone(&mem), HtmConfig::default());
    let alloc = SimAlloc::new(Arc::clone(&mem));
    let rwle = Arc::new(RwLe::new(&alloc, READERS + WRITERS, cfg).unwrap());
    let data = alloc.alloc(1).unwrap();

    let total_writes = WRITERS as u64 * WRITES_PER_WRITER;
    let mut s = sched::Scheduler::new(seed);
    for _ in 0..READERS {
        let rt = Arc::clone(&rt);
        let rwle = Arc::clone(&rwle);
        s.spawn(move || {
            let mut ctx = rt.register();
            let mut st = ThreadStats::new();
            let mut last = 0;
            for _ in 0..READS_PER_READER {
                let v = rwle.read_cs(&mut ctx, &mut st, &mut |acc| {
                    let v0 = acc.read(data)?;
                    for _ in 0..2 {
                        let again = acc.read(data)?;
                        assert_eq!(v0, again, "seed {seed}: word changed under a reader");
                    }
                    Ok(v0)
                });
                assert!(
                    v >= last,
                    "seed {seed}: reader observed the word go backwards"
                );
                assert!(v <= total_writes, "seed {seed}: impossible reader value");
                last = v;
            }
        });
    }
    for _ in 0..WRITERS {
        let rt = Arc::clone(&rt);
        let rwle = Arc::clone(&rwle);
        s.spawn(move || {
            let mut ctx = rt.register();
            let mut st = ThreadStats::new();
            for _ in 0..WRITES_PER_WRITER {
                rwle.write_cs(&mut ctx, &mut st, &mut |acc| {
                    let v = acc.read(data)?;
                    acc.write(data, v + 1)?;
                    let own = acc.read(data)?;
                    assert_eq!(own, v + 1, "seed {seed}: own write not read back");
                    acc.write(data, own)?;
                    Ok(())
                });
            }
        });
    }
    s.run();

    assert_eq!(
        mem.load(data),
        total_writes,
        "seed {seed}: lost writer increment"
    );
}

#[test]
fn same_word_opt_schedules() {
    sched::explore("rwle-same-word-opt", 0x5000..0x5100, |seed| {
        run_same_word_schedule(RwLeConfig::opt(), seed)
    });
}

#[test]
fn same_word_pes_schedules() {
    // PES sends every writer through ROT first: repeat accesses exercise
    // the cache's ROT write path (and the no-reader-bit ROT read rule).
    sched::explore("rwle-same-word-pes", 0x5800..0x58c8, |seed| {
        run_same_word_schedule(RwLeConfig::pes(), seed)
    });
}

#[test]
fn opt_schedules() {
    sched::explore("rwle-opt", 0..300, |seed| {
        run_schedule(RwLeConfig::opt(), seed)
    });
}

#[test]
fn pes_schedules() {
    sched::explore("rwle-pes", 0..250, |seed| {
        run_schedule(RwLeConfig::pes(), seed)
    });
}

#[test]
fn htm_only_schedules() {
    sched::explore("rwle-htm-only", 0..250, |seed| {
        run_schedule(RwLeConfig::htm_only(), seed)
    });
}

#[test]
fn fair_htm_only_schedules() {
    sched::explore("rwle-fair-htm-only", 0..250, |seed| {
        run_schedule(RwLeConfig::fair_htm_only(), seed)
    });
}

#[test]
fn ns_schedules() {
    // Retries zeroed: every write lands on the NS path — lock CAS, grace
    // snapshot, the general barrier, plain stores under the held lock.
    sched::explore("rwle-ns", 0..150, |seed| {
        run_schedule(RwLeConfig::opt().with_retries(0, 0), seed)
    });
}

#[test]
fn fair_ns_schedules() {
    // Fair writers forced onto the NS path: every commit runs the fair
    // version-skipping barrier against in-place-waiting readers.
    sched::explore("rwle-fair-ns", 0..100, |seed| {
        run_schedule(RwLeConfig::fair_htm_only().with_retries(0, 0), seed)
    });
}

/// Grace-period sharing across concurrent writers, with a writer doomed
/// mid-barrier. Three HTM writers increment three *disjoint* lines, so
/// their speculative bodies overlap and their commit barriers race: on
/// many schedules one writer's completed grace period covers another's
/// (surfaced as `ThreadStats::barriers_shared`). A reader hammers the
/// third writer's line, so on some schedules that writer's suspended
/// transaction is doomed mid-barrier by the reader's claim conflict and
/// must retry — sharing must never let a doomed writer's stores become
/// visible, and no increment may be lost or doubled.
fn sharing_doomed_schedule(seed: u64, shared_seen: &Arc<std::sync::atomic::AtomicU64>) {
    use std::sync::atomic::Ordering;
    const W: usize = 3;
    const WRITES: u64 = 2;
    let mem = Arc::new(SharedMem::new_lines(64));
    let rt = HtmRuntime::new(Arc::clone(&mem), HtmConfig::default());
    let alloc = SimAlloc::new(Arc::clone(&mem));
    let rwle = Arc::new(RwLe::new(&alloc, W + 1, RwLeConfig::opt()).unwrap());
    let data = alloc.alloc(W as u32 * WORD_STRIDE).unwrap();

    let all_stats: Arc<Mutex<Vec<ThreadStats>>> = Arc::new(Mutex::new(Vec::new()));
    let mut s = sched::Scheduler::new(seed);
    for w in 0..W {
        let rt = Arc::clone(&rt);
        let rwle = Arc::clone(&rwle);
        let all_stats = Arc::clone(&all_stats);
        let line = data.offset(w as u32 * WORD_STRIDE);
        s.spawn(move || {
            let mut ctx = rt.register();
            let mut st = ThreadStats::new();
            for _ in 0..WRITES {
                rwle.write_cs(&mut ctx, &mut st, &mut |acc| {
                    let v = acc.read(line)?;
                    acc.write(line, v + 1)?;
                    Ok(())
                });
            }
            all_stats.lock().unwrap().push(st);
        });
    }
    {
        // The reader targets writer 2's line: a read while that writer
        // sits suspended in its barrier dooms the writer (claim
        // conflict), forcing the retry path under an in-flight grace
        // period.
        let rt = Arc::clone(&rt);
        let rwle = Arc::clone(&rwle);
        let line = data.offset(2 * WORD_STRIDE);
        s.spawn(move || {
            let mut ctx = rt.register();
            let mut st = ThreadStats::new();
            let mut last = 0;
            for _ in 0..4 {
                let v = rwle.read_cs(&mut ctx, &mut st, &mut |acc| acc.read(line));
                assert!(v >= last, "reader observed the line go backwards");
                assert!(v <= WRITES, "reader observed a lost or doubled increment");
                last = v;
            }
        });
    }
    s.run();

    for w in 0..W {
        assert_eq!(
            mem.load(data.offset(w as u32 * WORD_STRIDE)),
            WRITES,
            "writer {w}: increments lost or doubled"
        );
    }
    let stats = all_stats.lock().unwrap();
    let sum = StatsSummary::from_threads(stats.iter());
    shared_seen.fetch_add(sum.barriers_shared, Ordering::SeqCst);
}

#[test]
fn sharing_doomed_schedules() {
    let shared = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let counter = Arc::clone(&shared);
    sched::explore("rwle-sharing-doomed", 0x6000..0x6120, move |seed| {
        sharing_doomed_schedule(seed, &counter)
    });
    assert!(
        shared.load(std::sync::atomic::Ordering::SeqCst) > 0,
        "no schedule exercised writer-to-writer quiescence sharing"
    );
}

#[test]
fn bravo_indicator_ns_schedules() {
    // Bias revocation vs concurrent reader entry over the real fallback
    // stack: certified readers (no epoch flip, no lock check) racing NS
    // writers that revoke + scan before their quiescence barrier. A lost
    // reader shows up as a torn snapshot or a backwards read.
    sched::explore("rwle-bravo-ns", 0..320, |seed| {
        run_schedule(RwLeConfig::fallback_only(rind::IndicatorKind::Bravo), seed)
    });
}

#[test]
fn fair_bravo_indicator_schedules() {
    // Fair slow readers (wait in place, version-skipping barrier)
    // combined with certified fast readers that bypass the version
    // protocol entirely — sound because writers drain the table before
    // the fair barrier runs.
    let cfg = RwLeConfig {
        fair: true,
        ..RwLeConfig::fallback_only(rind::IndicatorKind::Bravo)
    };
    sched::explore("rwle-fair-bravo", 0..160, |seed| run_schedule(cfg, seed));
}

#[test]
fn fair_rot_schedules() {
    // Fair *with* ROTs enabled — in-place-waiting readers against ROT
    // writers on the one shared lock word — under the HTM → ROT → NS
    // policy and under PES's ROT-first one, on distinct lines and on one
    // repeatedly accessed word. (`pes` seed 3 is the torn snapshot that
    // took version skipping off the ROT path: nobody waits on a ROT
    // holder, so a reader carrying its version can have read ahead.)
    for (name, base) in [("opt", RwLeConfig::opt()), ("pes", RwLeConfig::pes())] {
        let cfg = RwLeConfig { fair: true, ..base };
        sched::explore(&format!("rwle-fair-rot-{name}"), 0..150, |seed| {
            run_schedule(cfg, seed)
        });
        sched::explore(
            &format!("rwle-fair-rot-{name}-same-word"),
            0x5000..0x5096,
            |seed| run_same_word_schedule(cfg, seed),
        );
    }
}
