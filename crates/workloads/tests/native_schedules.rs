//! The native store's publication cycle, explored as seeded
//! interleavings ([`sched::explore`]). Plain memory has no access hooks,
//! so a schedule steps at the protocol's own points: a read section's
//! epoch entry and exit and each root it picks, and each step of a
//! writer's cycle — every op's path copy, the flip, the barrier's wait
//! and every shard's free. The shard mutexes are taken through
//! `try_lock` while a schedule runs, and every node a cycle frees is
//! poisoned, so a reader that reaches one panics.
//!
//! Two writers and two readers run against shards {1, 3, 16}, each with
//! volatile batches (one cycle per touched shard) and durable ones (one
//! cycle over every touched shard, guards kept across the log append).
//! On every explored schedule:
//!
//! * no reader sees a torn group: two keys of one shard that a batch
//!   writes alike are alike to any one `scan` or `get_many` section, and
//!   no section sees the stale value a group writes first and then
//!   overwrites;
//! * no reader reaches a freed node (the poison);
//! * a section reads one root per shard: a `get_many` whose keys visit
//!   every shard before they come back to the first sees each pair
//!   whole;
//! * the final state equals the SGL canary fed the same ops — each
//!   writer's batches in turn, or, durable, the log's records in LSN
//!   order;
//! * durable records come in flip order: the values a reader sees of a
//!   key that both writers write in every batch follow the log's order;
//! * durable batches whose shard sets overlap all finish (a deadlock
//!   would exhaust the scheduler's step budget).

use std::sync::{Arc, Mutex};

use workloads::backend::{BatchOutcome, DurableSink, Lsn, MutOp, MutReply, StoreBackend};
use workloads::native::{NativeBackend, SglBackend};
use workloads::sharded::PutOutcome;

/// Keys `0..STABLE` of block 0 are prefilled and never written.
const STABLE: u64 = 3;

/// Rounds per writer. Round `r % 3 == 2` deletes; the last one writes,
/// so every key ends present.
const ROUNDS: u64 = 5;

/// Set in the value a group writes first and then overwrites: a reader
/// that sees it saw the group half applied.
const STALE: u64 = 1 << 31;

/// A key of block 3 that every durable batch of both writers writes:
/// the order in which readers see its values is the flip order.
const SHARED: u64 = 3 * 64 + 5;

/// Writer `w`'s three pairs, one in each of blocks 0, 1 and 2 — three
/// shards, unless there are fewer.
fn keys(w: u64) -> [u64; 6] {
    [0, 1, 64, 65, 128, 129].map(|k| k + 10 + 2 * w)
}

/// What writer `w` stores in round `round`: its own id in the upper half.
fn tag(w: u64, round: u64) -> u64 {
    (w + 1) << 32 | round
}

/// Writer `w`'s batch in `round`: the first and third pair each get a
/// stale value first, and the shards' groups are interleaved in the
/// batch; every third round, all six keys are deleted instead. A durable
/// batch also writes [`SHARED`].
fn round_ops(w: u64, round: u64, durable: bool) -> Vec<MutOp> {
    let [a, b, c, d, e, f] = keys(w);
    let v = tag(w, round);
    let put = |key, value| MutOp::Put { key, value };
    let mut ops = if round % 3 == 2 {
        [a, c, e, b, d, f].map(|key| MutOp::Del { key }).to_vec()
    } else {
        vec![
            put(a, v | STALE),
            put(c, v),
            put(e, v | STALE),
            put(b, v),
            put(a, v),
            put(d, v),
            put(f, v),
            put(e, v),
        ]
    };
    if durable {
        ops.push(put(SHARED, v));
    }
    ops
}

/// The replies writer `w`'s own keys must get in `round`.
fn want_replies(round: u64) -> Vec<MutReply> {
    if round % 3 == 2 {
        return vec![MutReply::Del(true); 6];
    }
    let fresh = round.is_multiple_of(3);
    let put = |first: bool| {
        MutReply::Put(Ok(if first {
            PutOutcome::Inserted
        } else {
            PutOutcome::Updated
        }))
    };
    // The group's second write of `a` and of `e` finds its first.
    [fresh, fresh, fresh, fresh, false, fresh, fresh, false]
        .map(put)
        .to_vec()
}

/// A redo log in memory: record `i` has LSN `i + 1`.
#[derive(Default)]
struct Log(Mutex<Vec<Vec<MutOp>>>);

impl DurableSink for Log {
    fn append(&self, ops: &[MutOp]) -> Lsn {
        let mut log = self.0.lock().unwrap();
        log.push(ops.to_vec());
        log.len() as Lsn
    }

    fn append_ordered(
        &self,
        exec: &mut dyn FnMut(&mut Vec<MutOp>) -> BatchOutcome,
    ) -> (BatchOutcome, Lsn) {
        let mut log = self.0.lock().unwrap();
        let mut ops = Vec::new();
        let out = exec(&mut ops);
        log.push(ops);
        (out, log.len() as Lsn)
    }

    fn wait_durable(&self, _lsn: Lsn) {}
}

/// `key`'s value in `out`.
fn at(out: &[(u64, u64)], key: u64) -> Option<u64> {
    out.iter().find(|&&(k, _)| k == key).map(|&(_, v)| v)
}

/// Both of writer `w`'s keys `pair` read alike, as `w` wrote them last.
fn assert_whole(x: Option<u64>, y: Option<u64>, w: u64, pair: [u64; 2], what: &str) {
    assert_eq!(x, y, "{what} saw a torn group on {pair:?}");
    if let Some(v) = x {
        assert_eq!(v >> 32, w + 1, "{what}: {v:#x} under {pair:?}");
        assert_eq!(v & STALE, 0, "{what}: stale {v:#x} under {pair:?}");
    }
}

fn schedule(n_shards: usize, durable: bool, seed: u64) {
    let backend = Arc::new(NativeBackend::create(n_shards, 5, STABLE));
    let log = Arc::new(Log::default());
    let seen: Arc<Mutex<Vec<Vec<u64>>>> = Arc::default();
    let mut s = sched::Scheduler::new(seed);
    for w in 0..2u64 {
        let (backend, log) = (Arc::clone(&backend), Arc::clone(&log));
        s.spawn(move || {
            let mut sess = backend.session();
            let mut replies = Vec::new();
            for round in 0..ROUNDS {
                let ops = round_ops(w, round, durable);
                if durable {
                    let (_, lsn) = sess.apply_batch_durable(&ops, &mut replies, &*log);
                    assert!(lsn > 0, "writer {w}, round {round}: nothing logged");
                } else {
                    sess.apply_batch(&ops, &mut replies);
                }
                let want = want_replies(round);
                assert_eq!(replies[..want.len()], want, "writer {w}, round {round}");
            }
        });
    }
    for r in 0..2u64 {
        let (backend, seen) = (Arc::clone(&backend), Arc::clone(&seen));
        s.spawn(move || {
            let mut sess = backend.session();
            let (mut out, mut found, mut shared) = (Vec::new(), Vec::new(), Vec::new());
            for _ in 0..3 {
                // One section per block (one shard), then one over all
                // three blocks.
                for (start, count) in [(0, 16), (64, 16), (128, 16), (0, 192)] {
                    out.clear();
                    sess.scan(start, count, &mut out);
                    for w in 0..2 {
                        for pair in keys(w).chunks(2) {
                            if (start..start + u64::from(count)).contains(&pair[0]) {
                                let what = format!("reader {r}'s scan({start}, {count})");
                                let pair = [pair[0], pair[1]];
                                assert_whole(at(&out, pair[0]), at(&out, pair[1]), w, pair, &what);
                            }
                        }
                    }
                }
                for w in 0..2 {
                    // Each shard's second key comes after every other
                    // shard's first: a second pick of its root would
                    // come after the cycles those picks let run.
                    let [a, b, c, d, e, f] = keys(w);
                    found.clear();
                    sess.get_many(&[a, c, e, b, d, f], &mut found);
                    for (i, pair) in [[a, b], [c, d], [e, f]].into_iter().enumerate() {
                        let what = format!("reader {r}'s get_many");
                        assert_whole(found[i], found[i + 3], w, pair, &what);
                    }
                }
                if durable {
                    shared.extend(sess.get(SHARED));
                }
                for key in 0..STABLE {
                    assert_eq!(sess.get(key), Some(key), "reader {r} lost key {key}");
                }
            }
            seen.lock().unwrap().push(shared);
        });
    }
    s.run();

    let log = log.0.lock().unwrap();
    let canary = SglBackend::create(STABLE);
    let mut model = canary.session();
    if durable {
        assert_eq!(log.len() as u64, 2 * ROUNDS, "one record per batch");
        for ops in log.iter() {
            model.apply_batch(ops, &mut Vec::new());
        }
        // The log position of each value of `SHARED`: what a reader saw
        // of it must never go back in the log.
        let lsn_of = |v: u64| {
            log.iter()
                .position(|ops| {
                    ops.contains(&MutOp::Put {
                        key: SHARED,
                        value: v,
                    })
                })
                .expect("every value seen was logged")
        };
        for (r, values) in seen.lock().unwrap().iter().enumerate() {
            let lsns: Vec<usize> = values.iter().map(|&v| lsn_of(v)).collect();
            assert!(
                lsns.windows(2).all(|p| p[0] <= p[1]),
                "reader {r} saw {SHARED} at log positions {lsns:?}: flips and records disagree"
            );
        }
    } else {
        for w in 0..2 {
            for round in 0..ROUNDS {
                model.apply_batch(&round_ops(w, round, false), &mut Vec::new());
            }
        }
    }
    let mut sess = backend.session();
    let (mut got, mut want) = (Vec::new(), Vec::new());
    sess.scan(0, 256, &mut got);
    model.scan(0, 256, &mut want);
    assert_eq!(got, want, "the store and the canary fed its ops differ");
}

fn explore(durable: bool) {
    let mode = if durable { "durable" } else { "volatile" };
    for n_shards in [1, 3, 16] {
        sched::explore(&format!("native-{mode}-{n_shards}"), 0..170, |seed| {
            schedule(n_shards, durable, seed)
        });
    }
}

#[test]
fn volatile_cycle_schedules() {
    explore(false);
}

#[test]
fn durable_cycle_schedules() {
    explore(true);
}
