//! Node recycling on the simulated backend, explored as deterministic
//! seeded interleavings ([`sched::explore`]): one seed is one schedule of
//! every simulated-memory access and every protocol spin of the threads
//! below, so "a reader is inside the chain while the writer unlinks,
//! frees and re-links a node" is pinned by the scheduler, not left to
//! timing.
//!
//! A DEL (a one-op batch) hands the unlinked node back to the arena as
//! soon as its write section is over, and the next insert re-keys and
//! re-links it. That is only sound if the scheme really is a read-write
//! lock — no read section that could have reached the node outlives the
//! write section that unlinked it. The stores below have one shard of
//! one bucket, so every key shares one chain and a recycled node goes
//! straight back into the chain a reader may be walking.

use std::sync::Arc;

use workloads::backend::{SimBackend, StoreBackend};
use workloads::SchemeKind;

/// Keys that are never deleted: a reader must find each on every walk.
const STABLE: u64 = 3;

fn tag(key: u64, n: u64) -> u64 {
    key << 32 | n
}

/// Two writers churn two keys each (delete one, insert the other into
/// the node that just came free) while two readers walk the chain.
fn recycle_schedule(scheme: SchemeKind, seed: u64) {
    let backend = Arc::new(SimBackend::create(scheme, 1, 1, STABLE, 8, 5, seed).unwrap());
    let mut s = sched::Scheduler::new(seed);
    for w in 0..2u64 {
        let backend = Arc::clone(&backend);
        s.spawn(move || {
            let mut sess = backend.session();
            let (a, b) = (10 + 2 * w, 11 + 2 * w);
            sess.put(a, tag(a, 0)).unwrap();
            for i in 1..6u64 {
                let (gone, fresh) = if i % 2 == 1 { (a, b) } else { (b, a) };
                assert!(sess.del(gone), "{scheme:?}: own key {gone} vanished");
                sess.put(fresh, tag(fresh, i)).unwrap();
            }
        });
    }
    for r in 0..2u64 {
        let backend = Arc::clone(&backend);
        s.spawn(move || {
            let mut sess = backend.session();
            let mut out = Vec::new();
            for i in 0..8u64 {
                let key = 10 + (i + r) % 4;
                if let Some(v) = sess.get(key) {
                    assert_eq!(v >> 32, key, "{scheme:?}: value {v:#x} under key {key}");
                }
                let stable = (i + r) % STABLE;
                assert_eq!(
                    sess.get(stable),
                    Some(stable),
                    "{scheme:?}: lost key {stable}"
                );
                out.clear();
                sess.scan(0, 16, &mut out);
                assert!(
                    out.len() >= STABLE as usize,
                    "{scheme:?}: scan lost part of the chain: {out:?}"
                );
                for &(k, v) in &out {
                    assert!(
                        (k < STABLE && v == k) || v >> 32 == k,
                        "{scheme:?}: scanned {v:#x} under key {k}"
                    );
                }
            }
        });
    }
    s.run();
    // Each writer ends with exactly one of its two keys, holding what it
    // stored last; the arena holds the chain and nothing else was lost.
    let mut sess = backend.session();
    for w in 0..2u64 {
        let (a, b) = (10 + 2 * w, 11 + 2 * w);
        assert_eq!(sess.get(a), None);
        assert_eq!(sess.get(b), Some(tag(b, 5)));
    }
    for key in 0..STABLE {
        assert_eq!(sess.get(key), Some(key));
    }
}

#[test]
fn rwle_opt_recycle_schedules() {
    sched::explore("recycle-rwle-opt", 0..300, |seed| {
        recycle_schedule(SchemeKind::RwLeOpt, seed)
    });
}

#[test]
fn rwle_pes_recycle_schedules() {
    sched::explore("recycle-rwle-pes", 0..150, |seed| {
        recycle_schedule(SchemeKind::RwLePes, seed)
    });
}

#[test]
fn rwle_fair_recycle_schedules() {
    sched::explore("recycle-rwle-fair", 0..150, |seed| {
        recycle_schedule(SchemeKind::RwLeFair, seed)
    });
}

#[test]
fn hle_recycle_schedules() {
    sched::explore("recycle-hle", 0..150, |seed| {
        recycle_schedule(SchemeKind::Hle, seed)
    });
}

#[test]
fn brlock_recycle_schedules() {
    sched::explore("recycle-brlock", 0..100, |seed| {
        recycle_schedule(SchemeKind::BrLock, seed)
    });
}
