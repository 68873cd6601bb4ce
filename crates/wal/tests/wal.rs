//! End-to-end WAL behavior: append → replay roundtrips, torn-tail
//! truncation, segment rotation, reopen continuity, fsync policies, and
//! replay-equals-store on the native backend.

use std::path::PathBuf;
use std::sync::Arc;

use wal::{replay, FsyncPolicy, Wal, WalError};
use workloads::backend::{DurableSink, MutOp, MutReply, StoreBackend, NO_LSN};
use workloads::native::NativeBackend;

/// Fresh per-test scratch directory (the container has no tempfile
/// crate; process id + test name keeps parallel test binaries apart).
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wal-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn put(key: u64, value: u64) -> MutOp {
    MutOp::Put { key, value }
}

fn del(key: u64) -> MutOp {
    MutOp::Del { key }
}

fn collect(dir: &std::path::Path) -> (wal::Replay, Vec<(u64, Vec<MutOp>)>) {
    let mut got = Vec::new();
    let report = replay(dir, |lsn, ops| got.push((lsn, ops.to_vec()))).expect("replay");
    (report, got)
}

#[test]
fn append_then_replay_roundtrips() {
    let dir = scratch("roundtrip");
    let w = Wal::open(&dir, FsyncPolicy::Batch, 1).unwrap();
    let a = w.append(&[put(1, 10), del(2)]);
    let b = w.append(&[put(3, 30)]);
    w.wait_durable(b);
    assert_eq!((a, b), (1, 2));
    assert!(w.durable_frontier() >= b);
    let stats = w.stats();
    assert_eq!(stats.appends, 2);
    assert!(stats.fsyncs >= 1, "group commit must have synced");
    drop(w);

    let (report, got) = collect(&dir);
    assert_eq!(report.records, 2);
    assert_eq!(report.ops, 3);
    assert_eq!(report.truncated_bytes, 0);
    assert_eq!(report.next_lsn, 3);
    assert_eq!(
        got,
        vec![(1, vec![put(1, 10), del(2)]), (2, vec![put(3, 30)])]
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_tail_is_truncated_and_replay_continues_after() {
    let dir = scratch("torn");
    // A valid two-record segment with garbage appended — the shape a
    // SIGKILL mid-append leaves behind.
    wal::recover::write_segment(
        &dir,
        1,
        &[vec![put(1, 1)], vec![put(2, 2)]],
        &[0xde, 0xad, 0xbe, 0xef, 0x11],
    )
    .unwrap();
    let (report, got) = collect(&dir);
    assert_eq!(report.records, 2);
    assert_eq!(report.truncated_bytes, 5);
    assert_eq!(report.next_lsn, 3);
    assert_eq!(got.len(), 2);

    // Second replay sees a clean log: the torn bytes are gone from
    // disk, not just skipped.
    let (report2, _) = collect(&dir);
    assert_eq!(report2.truncated_bytes, 0);
    assert_eq!(report2.records, 2);

    // And a new Wal opened at next_lsn extends the history seamlessly.
    let w = Wal::open(&dir, FsyncPolicy::Batch, report2.next_lsn).unwrap();
    let lsn = w.append(&[put(9, 9)]);
    w.wait_durable(lsn);
    drop(w);
    let (report3, got3) = collect(&dir);
    assert_eq!(report3.records, 3);
    assert_eq!(got3.last().unwrap(), &(3, vec![put(9, 9)]));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn half_torn_record_prefix_is_truncated() {
    let dir = scratch("torn-prefix");
    // Fabricate a record, then keep only a prefix of it after a whole
    // record — a partially-flushed page.
    let mut torn = Vec::new();
    wal::record::encode_record(&mut torn, 2, &[put(5, 5), put(6, 6)]);
    torn.truncate(torn.len() - 3);
    wal::recover::write_segment(&dir, 1, &[vec![put(1, 1)]], &torn).unwrap();
    let (report, got) = collect(&dir);
    assert_eq!(report.records, 1);
    assert_eq!(report.truncated_bytes, torn.len() as u64);
    assert_eq!(got, vec![(1, vec![put(1, 1)])]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corruption_in_non_final_segment_is_a_hard_error() {
    let dir = scratch("interior");
    wal::recover::write_segment(&dir, 1, &[vec![put(1, 1)]], &[0xff; 7]).unwrap();
    wal::recover::write_segment(&dir, 2, &[vec![put(2, 2)]], &[]).unwrap();
    match replay(&dir, |_, _| {}) {
        Err(WalError::CorruptInterior(..)) => {}
        other => panic!("expected CorruptInterior, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn lsn_gap_between_segments_is_a_hard_error() {
    let dir = scratch("gap");
    wal::recover::write_segment(&dir, 1, &[vec![put(1, 1)]], &[]).unwrap();
    // Next segment claims to start at 5: records 2–4 went missing.
    wal::recover::write_segment(&dir, 5, &[vec![put(5, 5)]], &[]).unwrap();
    match replay(&dir, |_, _| {}) {
        Err(WalError::LsnGap {
            expected: 2,
            found: 5,
        }) => {}
        other => panic!("expected LsnGap, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rotation_splits_segments_and_replay_stitches_them() {
    let dir = scratch("rotate");
    // Tiny threshold: every record after the first in a segment
    // triggers rotation, so we get many segments.
    let w = Wal::open_with_segment_bytes(&dir, FsyncPolicy::Batch, 1, 64).unwrap();
    let mut last = NO_LSN;
    for i in 0..50u64 {
        last = w.append(&[put(i, i * 2), del(i + 1000)]);
    }
    w.wait_durable(last);
    drop(w);
    let (report, got) = collect(&dir);
    assert!(report.segments > 1, "expected rotation, got 1 segment");
    assert_eq!(report.records, 50);
    assert_eq!(report.next_lsn, 51);
    assert_eq!(got[49], (50, vec![put(49, 98), del(1049)]));
    let _ = std::fs::remove_dir_all(&dir);
}

/// `off` promises no fsync, so rotation must not sneak one in: sealing
/// a 64 MiB segment stalled every appender for 140–170 ms, once per
/// segment. The unsealed segments still replay (page cache) and a clean
/// shutdown still syncs them.
#[test]
fn off_policy_rotates_without_an_fsync() {
    let dir = scratch("rotate-off");
    let w = Wal::open_with_segment_bytes(&dir, FsyncPolicy::Off, 1, 64).unwrap();
    for i in 0..50u64 {
        w.append(&[put(i, i * 2), del(i + 1000)]);
    }
    assert_eq!(w.stats().appends, 50);
    assert_eq!(w.stats().fsyncs, 0, "rotation fsynced under --fsync off");
    drop(w);
    let (report, got) = collect(&dir);
    assert!(report.segments > 1, "expected rotation, got 1 segment");
    assert_eq!(report.records, 50);
    assert_eq!(got[49], (50, vec![put(49, 98), del(1049)]));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reopen_appends_in_a_new_segment() {
    let dir = scratch("reopen");
    for round in 0..3u64 {
        let (report, _) = collect(&dir);
        let w = Wal::open(&dir, FsyncPolicy::Batch, report.next_lsn).unwrap();
        let lsn = w.append(&[put(round, round)]);
        w.wait_durable(lsn);
    }
    let (report, got) = collect(&dir);
    assert_eq!(report.records, 3);
    assert_eq!(report.segments, 3);
    assert_eq!(
        got.iter().map(|(l, _)| *l).collect::<Vec<_>>(),
        vec![1, 2, 3]
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn interval_and_off_policies_do_not_block_acks() {
    for policy in [
        FsyncPolicy::Interval(std::time::Duration::from_millis(5)),
        FsyncPolicy::Off,
    ] {
        let dir = scratch(&format!("policy-{}", policy.label().replace(':', "-")));
        let w = Wal::open(&dir, policy, 1).unwrap();
        let lsn = w.append(&[put(1, 1)]);
        // Must return immediately even though no fsync may have
        // happened yet — that is the policy's contract.
        w.wait_durable(lsn);
        drop(w);
        // Clean shutdown still leaves a complete log.
        let (report, _) = collect(&dir);
        assert_eq!(report.records, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// `interval:<ms>` is a cadence, not a floor: appends that keep the
/// flusher's queue non-empty for N intervals still get about N fsyncs
/// (one per interval, one in flight at the edges), not one per wake-up.
#[test]
fn interval_policy_keeps_its_cadence_under_continuous_appends() {
    let interval = std::time::Duration::from_millis(20);
    let dir = scratch("interval-cadence");
    let w = Wal::open(&dir, FsyncPolicy::Interval(interval), 1).unwrap();
    let t0 = std::time::Instant::now();
    let mut appended = 0u64;
    while t0.elapsed() < 10 * interval {
        appended += 1;
        w.append(&[put(appended, appended)]);
    }
    let fsyncs = w.stats().fsyncs;
    // Counted against the time that actually passed, so a stalled host
    // only loosens the bound.
    let intervals = (t0.elapsed().as_micros() / interval.as_micros()) as u64;
    assert!(
        (1..=intervals + 2).contains(&fsyncs),
        "{fsyncs} fsyncs in {intervals} intervals of continuous appends"
    );
    drop(w);
    assert_eq!(collect(&dir).0.records, appended);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fsync_policy_parse_roundtrips() {
    for s in ["batch", "off", "interval:25"] {
        assert_eq!(FsyncPolicy::parse(s).unwrap().label(), s);
    }
    assert!(FsyncPolicy::parse("interval:0").is_err());
    assert!(FsyncPolicy::parse("sometimes").is_err());
}

#[test]
fn append_ordered_skips_empty_write_sets() {
    let dir = scratch("ordered-empty");
    let w = Wal::open(&dir, FsyncPolicy::Batch, 1).unwrap();
    let (_, lsn) = w.append_ordered(&mut |_wset| Default::default());
    assert_eq!(lsn, NO_LSN);
    w.wait_durable(lsn); // NO_LSN never blocks
    let (_, lsn2) = w.append_ordered(&mut |wset| {
        wset.push(put(1, 1));
        Default::default()
    });
    assert_eq!(lsn2, 1);
    drop(w);
    let (report, _) = collect(&dir);
    assert_eq!(report.records, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The headline invariant: concurrent durable batches on the native
/// backend replay to exactly the state the store held, because the
/// append happens inside the shard-lock window (log order = commit
/// order).
#[test]
fn native_backend_replay_equals_store() {
    let dir = scratch("native-replay");
    let threads = 4usize;
    let backend = Arc::new(NativeBackend::create(4, threads + 1, 0));
    let w = Arc::new(Wal::open(&dir, FsyncPolicy::Batch, 1).unwrap());

    std::thread::scope(|s| {
        for t in 0..threads as u64 {
            let backend = Arc::clone(&backend);
            let w = Arc::clone(&w);
            s.spawn(move || {
                let mut sess = backend.session();
                let mut replies = Vec::new();
                // Overlapping key ranges so batches genuinely conflict
                // and commit order matters.
                for i in 0..200u64 {
                    let k = (t * 37 + i) % 64;
                    let ops = [put(k, t * 1_000_000 + i), del((k + 1) % 64), put(k + 64, i)];
                    let (_, lsn) = sess.apply_batch_durable(&ops, &mut replies, &*w);
                    w.wait_durable(lsn);
                }
            });
        }
    });

    // Snapshot the live store.
    let mut live = Vec::new();
    let mut snap = backend.session();
    snap.scan(0, 10_000, &mut live);
    drop(snap);
    drop(w);

    // Rebuild from the log on a fresh backend.
    let rebuilt = NativeBackend::create(4, 1, 0);
    let mut sess = rebuilt.session();
    let mut replies = Vec::new();
    let report = replay(&dir, |_lsn, ops| {
        replies.clear();
        sess.apply_batch(ops, &mut replies);
    })
    .expect("replay");
    assert_eq!(report.records, (threads * 200) as u64);
    let mut recovered = Vec::new();
    sess.scan(0, 10_000, &mut recovered);

    assert_eq!(live, recovered, "replayed state diverged from the store");
    let _ = std::fs::remove_dir_all(&dir);
}

/// StoreFull'd puts are filtered from the write-set by
/// `apply_batch_durable`'s default implementation, so replay cannot
/// resurrect a shed write. Exercised with the sim backend (the only
/// one whose puts can fail).
#[test]
fn shed_puts_never_reach_the_log() {
    use workloads::backend::SimBackend;
    use workloads::scheme::SchemeKind;
    let dir = scratch("shed");
    let w = Wal::open(&dir, FsyncPolicy::Batch, 1).unwrap();
    // extra_capacity 0: the store is at capacity from the start, every
    // insert of a fresh key sheds.
    let backend = SimBackend::create(SchemeKind::RwLeOpt, 1, 16, 8, 0, 1, 7).unwrap();
    let mut sess = backend.session();
    let mut replies = Vec::new();
    // Fresh keys allocate; keep batching until the allocator's slack
    // runs out and puts start shedding (each batch also carries a del
    // of an absent key, which must be logged regardless).
    let mut shed_keys = Vec::new();
    let mut last_lsn = NO_LSN;
    for round in 0..10_000u64 {
        let base = 100_000 + round * 2;
        let ops = [put(base, round), del(base + 1)];
        let (_, lsn) = sess.apply_batch_durable(&ops, &mut replies, &w);
        if lsn != NO_LSN {
            last_lsn = lsn;
        }
        if matches!(replies[0], MutReply::Put(Err(_))) {
            shed_keys.push(base);
            if shed_keys.len() >= 3 {
                break;
            }
        }
    }
    assert!(!shed_keys.is_empty(), "store never shed a put");
    w.wait_durable(last_lsn);
    drop(w);
    let (_, got) = collect(&dir);
    let logged: Vec<MutOp> = got.into_iter().flat_map(|(_, ops)| ops).collect();
    for &k in &shed_keys {
        assert!(
            !logged
                .iter()
                .any(|op| matches!(op, MutOp::Put { key, .. } if *key == k)),
            "shed put {k} leaked into the log"
        );
        assert!(
            logged.contains(&del(k + 1)),
            "del {} missing from the log",
            k + 1
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
