//! The native store's publication cycle, explored as seeded
//! interleavings ([`sched::explore`]). Plain memory has no access hooks,
//! so a schedule steps at the protocol's own points: a read section's
//! epoch entry and exit and each root it picks, and each step of a
//! writer's cycle — the barrier it deferred from the shard's previous
//! cycle, the free after it, every op's path copy and the flip. The
//! shard mutexes are taken through `try_lock` while a schedule runs, and
//! every node a cycle frees is poisoned, so a reader that reaches one
//! panics.
//!
//! Two writers and two readers run against shards {1, 3, 16}, each with
//! volatile batches and durable ones (the same one-shard cycles, each
//! appending its shard's group as one record). On every explored
//! schedule:
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
//!   order, one record per touched shard group;
//! * durable records come in flip order: the values a reader sees of a
//!   key that both writers write in every batch follow the log's order.
//!
//! One more case aims at the grace ticket a cycle notes: one writer per
//! shard of two, each a PUT per batch, so the other shard's deferred
//! barriers are grace periods that can begin and end anywhere in a
//! cycle, and a reader whose sections keep picking the first shard's
//! root. A ticket taken before the flip is covered by such a grace
//! period that scanned before the flip, and the next cycle frees a leaf
//! the reader still holds.
//!
//! A third aims at the two-version child words: one writer and one
//! reader on one shard, the reader's sections each looking up three keys
//! of two leaves, the writer's cycles copying those very leaves. A
//! section may pick version `v` and then sit while cycle `v + 1` copies
//! its leaves and swaps their words, or runs whole, and the next cycle
//! waits at its barrier: the section must read `v` throughout. A reader
//! that always takes a word's `cur`, a word swapped before the copy it
//! names is written, a word overwritten before the deferred barrier, or
//! a leaf's length read before the choice between its versions each
//! show a section an image no version had, or a poisoned node. A fourth
//! runs the same race one routing level down, in a staged run: there a
//! cycle copies a routing node and swaps the word that names it in
//! place, and a routing stage that enters the word's `cur` without
//! choosing shows a section a key its version does not hold.

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
/// batch also writes [`SHARED`], last.
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

/// How many of `n_shards` shards `ops` touches (the store deals 64-key
/// blocks round-robin): the records a durable batch of them logs.
fn touched(ops: &[MutOp], n_shards: usize) -> usize {
    let mut shards: Vec<u64> = ops
        .iter()
        .map(|op| (op.key() >> 6) % n_shards as u64)
        .collect();
    shards.sort_unstable();
    shards.dedup();
    shards.len()
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
                let own: Vec<MutReply> = (ops.iter().zip(&replies))
                    .filter(|(op, _)| op.key() != SHARED)
                    .map(|(_, &reply)| reply)
                    .collect();
                assert_eq!(own, want_replies(round), "writer {w}, round {round}");
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
        let groups: usize = (0..2)
            .flat_map(|w| (0..ROUNDS).map(move |round| round_ops(w, round, true)))
            .map(|ops| touched(&ops, n_shards))
            .sum();
        assert_eq!(log.len(), groups, "one record per touched shard group");
        for ops in log.iter() {
            assert_eq!(touched(ops, n_shards), 1, "a record spans shards: {ops:?}");
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

/// The grace-ticket case (module docs): writer `w` puts one of three
/// keys of block `w`, so of shard `w`, per batch, and the reader's
/// `get_many` runs look up shard 0's keys, each run one section.
fn ticket_schedule(seed: u64) {
    const PUTS: u64 = 6;
    let backend = Arc::new(NativeBackend::create(2, 3, STABLE));
    let mut s = sched::Scheduler::new(seed);
    for w in 0..2u64 {
        let backend = Arc::clone(&backend);
        s.spawn(move || {
            let mut sess = backend.session();
            for round in 0..PUTS {
                sess.put(64 * w + 10 + round % 3, tag(w, round)).unwrap();
            }
        });
    }
    s.spawn(move || {
        let mut sess = backend.session();
        let mut found = Vec::new();
        for _ in 0..PUTS {
            found.clear();
            sess.get_many(&[0, 10, 11, 12, 128], &mut found);
            assert_eq!(found[0], Some(0), "lost a prefilled key");
            for v in found[1..].iter().flatten() {
                assert_eq!(v >> 32, 1, "{v:#x} on shard 0");
            }
        }
    });
    s.run();
}

/// The in-flight case (module docs): 64 prefilled keys on one shard,
/// so leaf `A` holds keys `0..=30` and leaf `B` keys `31..=61`. Cycle 1
/// writes `A` twice (a PUT, and a DEL of its last key, which shortens
/// it) and `B` once, cycle 2 writes only `A`, cycle 3 both again; the
/// reader's sections each look up one key of `B` and two of `A`.
fn inflight_schedule(seed: u64) {
    const KEYS: [u64; 3] = [5, 30, 40];
    let put = |key, value| MutOp::Put { key, value };
    let rounds = [
        vec![put(5, 1), MutOp::Del { key: 30 }, put(40, 1)],
        vec![put(5, 2)],
        vec![put(40, 3), put(30, 3)],
    ];
    // What each version holds of `KEYS`.
    let versions = [
        [Some(5), Some(30), Some(40)],
        [Some(1), None, Some(1)],
        [Some(2), None, Some(1)],
        [Some(2), Some(3), Some(3)],
    ];
    let backend = Arc::new(NativeBackend::create(1, 2, 64));
    let mut s = sched::Scheduler::new(seed);
    let writer = Arc::clone(&backend);
    s.spawn(move || {
        let mut sess = writer.session();
        for ops in &rounds {
            sess.apply_batch(ops, &mut Vec::new());
        }
    });
    s.spawn(move || {
        let mut sess = backend.session();
        let mut found = Vec::new();
        let mut last = 0;
        for _ in 0..6 {
            found.clear();
            sess.get_many(&KEYS, &mut found);
            let version = versions.iter().position(|v| v[..] == found[..]);
            let version = version.unwrap_or_else(|| panic!("a section read {found:?}"));
            assert!(version >= last, "version {version} after {last}");
            last = version;
        }
    });
    s.run();
}

/// The in-flight case one routing level down (module docs): 899
/// prefilled keys on one shard, so 29 full leaves under a root over two
/// routing nodes, the first full, the second over one leaf (keys
/// `868..=898`). A key past the last one opens a new leaf under the
/// second routing node, which is copied and linked by a word the root
/// swaps in place; the reader's runs look up keys of the first leaf, of
/// the last one and of the new one.
fn deep_inflight_schedule(seed: u64) {
    const KEYS: [u64; 3] = [5, 880, 900];
    let put = |key, value| MutOp::Put { key, value };
    let rounds = [
        vec![put(900, 1), put(5, 1)],
        vec![put(901, 2), put(880, 2)],
        vec![MutOp::Del { key: 900 }, MutOp::Del { key: 901 }, put(5, 3)],
    ];
    // What each version holds of the keys.
    let versions = [
        [Some(5), Some(880), None],
        [Some(1), Some(880), Some(1)],
        [Some(1), Some(2), Some(1)],
        [Some(3), Some(2), None],
    ];
    let backend = Arc::new(NativeBackend::create(1, 2, 899));
    let mut s = sched::Scheduler::new(seed);
    let writer = Arc::clone(&backend);
    s.spawn(move || {
        let mut sess = writer.session();
        for ops in &rounds {
            sess.apply_batch(ops, &mut Vec::new());
        }
    });
    s.spawn(move || {
        let mut sess = backend.session();
        let mut found = Vec::new();
        let mut last = 0;
        for _ in 0..6 {
            found.clear();
            sess.get_many(&KEYS, &mut found);
            let version = versions.iter().position(|v| v[..] == found[..]);
            let version = version.unwrap_or_else(|| panic!("a section read {found:?}"));
            assert!(version >= last, "version {version} after {last}");
            last = version;
        }
    });
    s.run();
}

#[test]
fn deep_inflight_schedules() {
    sched::explore("native-inflight-deep", 0..1000, deep_inflight_schedule);
}

#[test]
fn inflight_schedules() {
    sched::explore("native-inflight", 0..1000, inflight_schedule);
}

#[test]
fn ticket_schedules() {
    sched::explore("native-ticket", 0..1000, ticket_schedule);
}

#[test]
fn volatile_cycle_schedules() {
    explore(false);
}

#[test]
fn durable_cycle_schedules() {
    explore(true);
}
