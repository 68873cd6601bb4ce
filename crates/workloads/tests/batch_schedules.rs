//! Batched write sections on the simulated store, explored as seeded
//! interleavings ([`sched::explore`]): one seed is one schedule of every
//! simulated-memory access and protocol spin of the threads below.
//!
//! `SimSession::apply_batch` groups a batch per shard and runs each group
//! as one write section (`ShardedKv::write_batch`). Three things follow,
//! and each is checked here on every explored schedule:
//!
//! * a reader that looks at two keys of one group inside one read
//!   section sees all of the group or none of it;
//! * per key, the group applies in `ops` order;
//! * a section a speculating scheme re-runs after an abort hands the
//!   nodes it unlinked or left unused back to the arena once, so the
//!   arena never gives one node to two keys.
//!
//! The store has two shards of one bucket each, so a shard's keys share
//! one chain and a node that comes free goes straight back into the
//! chain a reader may be walking.

use std::sync::Arc;

use workloads::backend::{MutOp, MutReply, SimBackend, StoreBackend, StoreSession};
use workloads::sharded::PutOutcome;
use workloads::SchemeKind;

/// Keys `0..STABLE` of shard 0 are never written: every walk finds them.
const STABLE: u64 = 3;

/// Rounds per writer; the last one writes, so every key ends present.
const ROUNDS: u64 = 7;

/// Set in the value a group writes first and then overwrites: a reader
/// that sees it saw the group half applied, or applied out of order.
const STALE: u64 = 1 << 31;

/// Writer `w`'s two pairs: `(a, b)` in block 0 (shard 0), `(c, d)` in
/// block 1 (shard 1).
fn keys(w: u64) -> [u64; 4] {
    [10 + 2 * w, 11 + 2 * w, 74 + 2 * w, 75 + 2 * w]
}

/// What writer `w` stores in round `round`: its own id in the upper half.
fn tag(w: u64, round: u64) -> u64 {
    (w + 1) << 32 | round
}

/// Writer `w`'s round: a stale write of `a`, then both pairs at `v` with
/// the shards interleaved, so each group is picked out of the batch; or,
/// every third round, all four keys deleted.
fn round_ops(w: u64, round: u64) -> Vec<MutOp> {
    let [a, b, c, d] = keys(w);
    let v = tag(w, round);
    if round % 3 == 2 {
        return [a, c, b, d].map(|key| MutOp::Del { key }).to_vec();
    }
    vec![
        MutOp::Put {
            key: a,
            value: v | STALE,
        },
        MutOp::Put { key: c, value: v },
        MutOp::Put { key: b, value: v },
        MutOp::Put { key: a, value: v },
        MutOp::Put { key: d, value: v },
    ]
}

/// `key`'s value in `out`.
fn at(out: &[(u64, u64)], key: u64) -> Option<u64> {
    out.iter().find(|&&(k, _)| k == key).map(|&(_, v)| v)
}

fn batch_schedule(scheme: SchemeKind, seed: u64) {
    let backend = Arc::new(SimBackend::create(scheme, 2, 1, STABLE, 16, 5, seed).unwrap());
    let mut s = sched::Scheduler::new(seed);
    for w in 0..2u64 {
        let backend = Arc::clone(&backend);
        s.spawn(move || {
            let mut sess = backend.session();
            let mut replies = Vec::new();
            for round in 0..ROUNDS {
                let ops = round_ops(w, round);
                let out = sess.apply_batch(&ops, &mut replies);
                assert_eq!(out.barriers, 2, "{scheme:?}: one section per shard");
                let fresh = round % 3 == 0;
                let want = if ops.len() == 4 {
                    vec![MutReply::Del(true); 4]
                } else {
                    let put = |first: bool| {
                        MutReply::Put(Ok(if first {
                            PutOutcome::Inserted
                        } else {
                            PutOutcome::Updated
                        }))
                    };
                    // The group's second write of `a` finds its first.
                    vec![put(fresh), put(fresh), put(fresh), put(false), put(fresh)]
                };
                assert_eq!(replies, want, "{scheme:?}: writer {w}, round {round}");
            }
        });
    }
    for r in 0..2u64 {
        let backend = Arc::clone(&backend);
        s.spawn(move || {
            let mut sess = backend.session();
            let mut out = Vec::new();
            for _ in 0..4 {
                for (block, first) in [(0, 0), (64, 2)] {
                    // One read section: the range lies in one block.
                    out.clear();
                    sess.scan(block, 16, &mut out);
                    for w in 0..2 {
                        let pair = &keys(w)[first..first + 2];
                        let (x, y) = (at(&out, pair[0]), at(&out, pair[1]));
                        assert_eq!(x, y, "{scheme:?}: reader {r} saw a torn group on {pair:?}");
                        if let Some(v) = x {
                            assert_eq!(v >> 32, w + 1, "{scheme:?}: {v:#x} under {pair:?}");
                            assert_eq!(v & STALE, 0, "{scheme:?}: stale {v:#x} under {pair:?}");
                        }
                    }
                }
                for key in 0..STABLE {
                    assert_eq!(sess.get(key), Some(key), "{scheme:?}: lost key {key}");
                }
            }
        });
    }
    s.run();
    // Every key holds its writer's last round; then fresh keys, one
    // batch and one at a time, each get a node of their own.
    let mut sess = backend.session();
    for w in 0..2 {
        for key in keys(w) {
            assert_eq!(
                sess.get(key),
                Some(tag(w, ROUNDS - 1)),
                "{scheme:?}: key {key}"
            );
        }
    }
    fresh_keys_get_nodes_of_their_own(&mut *sess, scheme);
}

/// A node on the arena's free list twice would be handed to two of
/// these keys, and the second PUT would take it from the first.
fn fresh_keys_get_nodes_of_their_own(sess: &mut dyn StoreSession, scheme: SchemeKind) {
    let batch: Vec<MutOp> = (0..8)
        .map(|i| MutOp::Put {
            key: 100 + i,
            value: i,
        })
        .collect();
    sess.apply_batch(&batch, &mut Vec::new());
    for i in 8..16 {
        sess.put(100 + i, i).unwrap();
    }
    for i in 0..16 {
        assert_eq!(
            sess.get(100 + i),
            Some(i),
            "{scheme:?}: fresh key {}",
            100 + i
        );
    }
    for key in 0..STABLE {
        assert_eq!(sess.get(key), Some(key), "{scheme:?}: lost key {key}");
    }
}

#[test]
fn rwle_opt_batch_schedules() {
    sched::explore("batch-rwle-opt", 0..200, |seed| {
        batch_schedule(SchemeKind::RwLeOpt, seed)
    });
}

#[test]
fn rwle_pes_batch_schedules() {
    sched::explore("batch-rwle-pes", 0..150, |seed| {
        batch_schedule(SchemeKind::RwLePes, seed)
    });
}

#[test]
fn hle_batch_schedules() {
    sched::explore("batch-hle", 0..200, |seed| {
        batch_schedule(SchemeKind::Hle, seed)
    });
}
