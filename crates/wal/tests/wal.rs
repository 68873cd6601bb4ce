//! End-to-end WAL behavior: append → replay roundtrips, torn-tail
//! truncation, segment rotation, reopen continuity, fsync policies, the
//! staged / written frontiers seen from the directory, and
//! replay-equals-store: the native backend's live state, rebuilt by
//! every store's load path.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use wal::{replay, FsyncPolicy, Wal, WalError};
use workloads::backend::{
    DurableSink, MutOp, MutReply, SimBackend, StoreBackend, StoreLoader, NO_LSN,
};
use workloads::native::{NativeBackend, SglBackend};
use workloads::SchemeKind;

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

/// Replays `dir`. Also used on the directory of a `Wal` that is still
/// open — what recovery would find if the process died now; the log
/// only ever writes whole records, so there is no torn tail for the
/// replay to truncate under the live appender.
fn collect(dir: &Path) -> (wal::Replay, Vec<(u64, Vec<MutOp>)>) {
    let mut got = Vec::new();
    let report = replay(dir, |lsn, ops| got.push((lsn, ops.to_vec()))).expect("replay");
    (report, got)
}

/// Segment files in LSN order (the fixed-width hex name sorts as such).
fn segment_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("read wal dir")
        .map(|e| e.expect("dir entry").path())
        .collect();
    files.sort();
    files
}

/// Never reached within a test: an `interval` log whose ticker stays
/// out of the way until the drop.
const NEVER: Duration = Duration::from_secs(3600);

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

/// A crash between a segment's creation and its header write (at open
/// or at a rotation) leaves a final segment shorter than the header. No
/// record was ever written behind it, so recovery drops it as torn and
/// the next incarnation recreates it under the same name.
/// Records of `n` ops each, keys from `from`, PUT and DEL alternating.
fn records(count: usize, n: u64, from: u64) -> Vec<Vec<MutOp>> {
    (0..count as u64)
        .map(|r| {
            (0..n)
                .map(|i| match (r + i) % 2 {
                    0 => put(from + r * n + i, r),
                    _ => del(from + r * n + i),
                })
                .collect()
        })
        .collect()
}

/// The file offsets at which the records of a segment of `batches`
/// from LSN 1 start, and the segment's length.
fn record_starts(batches: &[Vec<MutOp>]) -> (Vec<u64>, u64) {
    let mut buf = Vec::new();
    wal::record::encode_segment_header(&mut buf, 1);
    let mut starts = Vec::new();
    for (i, ops) in batches.iter().enumerate() {
        starts.push(buf.len() as u64);
        wal::record::encode_record(&mut buf, 1 + i as u64, ops);
    }
    (starts, buf.len() as u64)
}

/// Replay reads a segment a chunk at a time: a record that straddles a
/// chunk boundary, and one longer than a whole chunk, replay whole.
#[test]
fn records_that_straddle_a_read_chunk_replay_whole() {
    let dir = scratch("straddle");
    let chunk = wal::READ_CHUNK as u64;
    // 64-op records (852 B) past two chunks, then one of 80 000 PUTs
    // (1.36 MB) that spans the third chunk whole, then a small one.
    let mut batches = records(2600, 64, 0);
    batches.push((0..80_000).map(|k| put(1 << 40 | k, k)).collect());
    batches.push(vec![del(3)]);
    let (starts, len) = record_starts(&batches);
    assert!(
        starts.windows(2).any(|w| w[0] < chunk && w[1] > chunk),
        "no record crosses the first chunk boundary"
    );
    assert!(
        starts[2601] - starts[2600] > chunk,
        "the long record fits a chunk"
    );
    wal::recover::write_segment(&dir, 1, &batches, &[]).unwrap();
    let (report, got) = collect(&dir);
    assert_eq!(report.records, batches.len() as u64);
    assert_eq!(report.truncated_bytes, 0);
    assert_eq!(
        std::fs::metadata(dir.join(wal::recover::segment_name(1)))
            .unwrap()
            .len(),
        len
    );
    let want: Vec<(u64, Vec<MutOp>)> = (1..).zip(batches).collect();
    assert!(got == want, "the replay differs from the log");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A torn tail inside a record that straddles a chunk boundary, or
/// inside one longer than a chunk, truncates to that record's start,
/// as any torn tail does; a bit flip in such a record past the boundary
/// fails its CRC.
#[test]
fn a_torn_record_across_a_read_chunk_truncates_to_its_start() {
    let dir = scratch("straddle-torn");
    let chunk = wal::READ_CHUNK as u64;
    let mut batches = records(1300, 64, 0);
    batches.push((0..80_000).map(|k| put(1 << 40 | k, k)).collect());
    let (starts, len) = record_starts(&batches);
    let crossing = starts
        .windows(2)
        .position(|w| w[0] < chunk && w[1] > chunk)
        .expect("a record crosses the first chunk boundary");
    let path = wal::recover::write_segment(&dir, 1, &batches, &[]).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let long = batches.len() - 1;
    // Cut inside the crossing record past the boundary; cut inside the
    // long record past the chunk after its start.
    for (torn, cut) in [
        (crossing, chunk + 5),
        (long, starts[long] + chunk + 100),
        (long, len - 1),
    ] {
        std::fs::write(&path, &bytes[..cut as usize]).unwrap();
        let (report, got) = collect(&dir);
        assert_eq!(report.records, torn as u64, "cut at {cut}");
        assert_eq!(report.truncated_bytes, cut - starts[torn], "cut at {cut}");
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            starts[torn],
            "cut at {cut}"
        );
        assert_eq!(report.next_lsn, 1 + torn as u64);
        assert_eq!(got.last().map(|(lsn, _)| *lsn), Some(torn as u64));
    }
    let mut bad = bytes.clone();
    bad[(chunk + 5) as usize] ^= 0x40;
    std::fs::write(&path, &bad).unwrap();
    let (report, _) = collect(&dir);
    assert_eq!(
        report.records, crossing as u64,
        "a flip past the boundary decoded"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The op estimate a loader sizes by: exact on a log of one record
/// shape, near on an even mix, 0 on no log.
#[test]
fn the_op_estimate_follows_the_log() {
    let dir = scratch("estimate");
    assert_eq!(wal::estimate_ops(&dir).unwrap(), 0);
    let batches = records(3000, 64, 0);
    wal::recover::write_segment(&dir, 1, &batches, &[]).unwrap();
    let estimate = wal::estimate_ops(&dir).unwrap();
    let ops = 3000 * 64;
    assert!(
        estimate.abs_diff(ops) <= ops / 100,
        "{estimate} for {ops} ops"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_final_segment_header_is_dropped_and_the_log_continues() {
    for torn in [0, 7, 15] {
        let dir = scratch(&format!("torn-header-{torn}"));
        wal::recover::write_segment(&dir, 1, &[vec![put(1, 1)]], &[]).unwrap();
        let mut header = Vec::new();
        wal::record::encode_segment_header(&mut header, 2);
        let path = dir.join(wal::recover::segment_name(2));
        std::fs::write(&path, &header[..torn]).unwrap();
        let mut got = Vec::new();
        let report = replay(&dir, |lsn, ops| got.push((lsn, ops.to_vec())))
            .unwrap_or_else(|e| panic!("{torn}-byte header: {e}"));
        assert_eq!(report.truncated_bytes, torn as u64);
        assert_eq!(report.next_lsn, 2);
        assert_eq!(got, vec![(1, vec![put(1, 1)])]);

        let w = Wal::open(&dir, FsyncPolicy::Batch, report.next_lsn).unwrap();
        assert_eq!(w.append(&[put(2, 2)]), 2);
        w.wait_durable(2);
        drop(w);
        let (report, got) = collect(&dir);
        assert_eq!(report.truncated_bytes, 0);
        assert_eq!(
            got,
            vec![(1, vec![put(1, 1)]), (2, vec![put(2, 2)])],
            "{torn}-byte header"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A short header anywhere but the final segment, and a wrong magic
/// anywhere, is damage, not a crash artifact.
#[test]
fn short_interior_or_wrong_magic_header_is_a_hard_error() {
    let mut header = Vec::new();
    wal::record::encode_segment_header(&mut header, 2);
    let mut bad_magic = header.clone();
    bad_magic[0] ^= 1;
    for (name, seg2, seg3) in [
        ("short", &header[..7], true),
        ("magic", &bad_magic[..], false),
        ("magic-interior", &bad_magic[..], true),
    ] {
        let dir = scratch(&format!("bad-header-{name}"));
        wal::recover::write_segment(&dir, 1, &[vec![put(1, 1)]], &[]).unwrap();
        std::fs::write(dir.join(wal::recover::segment_name(2)), seg2).unwrap();
        if seg3 {
            wal::recover::write_segment(&dir, 3, &[], &[]).unwrap();
        }
        match replay(&dir, |_, _| {}) {
            Err(WalError::BadHeader(_)) => {}
            other => panic!("{name}: expected BadHeader, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
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

/// The written frontier, seen from the directory while the log is
/// open: an appended record is in memory only, the wait on its LSN puts
/// it (and everything before it) in the file — under every policy, and
/// under `off` and `interval` without waiting for an fsync. Under
/// `batch` the waiter leads the one fsync itself: nothing syncs or
/// writes before somebody waits.
#[test]
fn records_reach_the_file_at_the_wait_under_every_policy() {
    for policy in [
        FsyncPolicy::Off,
        FsyncPolicy::Interval(NEVER),
        FsyncPolicy::Batch,
    ] {
        let dir = scratch(&format!("written-{}", policy.label().replace(':', "-")));
        let w = Wal::open(&dir, policy, 1).unwrap();
        w.append(&[put(1, 1)]);
        let b = w.append(&[put(2, 2), del(1)]);
        assert_eq!(collect(&dir).0.records, 0, "{policy:?}: unwaited record");
        assert_eq!(w.stats().writes, 0, "{policy:?}");
        w.wait_durable(b);
        let c = w.append(&[put(3, 3)]);
        let lsns: Vec<u64> = collect(&dir).1.iter().map(|(lsn, _)| *lsn).collect();
        assert_eq!(lsns, [1, 2], "{policy:?}");
        let batch = policy == FsyncPolicy::Batch;
        let stats = w.stats();
        assert_eq!(
            (stats.writes, stats.fsyncs),
            (1, batch as u64),
            "{policy:?}"
        );
        assert_eq!(
            w.durable_frontier(),
            if batch { b } else { 0 },
            "{policy:?}"
        );
        // A clean shutdown writes what nobody waited for.
        drop(w);
        let (report, got) = collect(&dir);
        assert_eq!(report.records, 3, "{policy:?}");
        assert_eq!(got[2], (c, vec![put(3, 3)]));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Under `batch` the waiters share fsyncs: a waiter that finds one in
/// flight follows it and, if its record came too late for it, one of
/// the followers leads the next. Every wait returns with its record
/// durable, and the fsyncs stay at most one per wait.
#[test]
fn batch_waiters_lead_and_follow_the_group_commits() {
    let dir = scratch("leaders");
    let w = Wal::open(&dir, FsyncPolicy::Batch, 1).unwrap();
    let (threads, rounds) = (4u64, 100u64);
    std::thread::scope(|s| {
        for t in 0..threads {
            let w = &w;
            s.spawn(move || {
                for i in 0..rounds {
                    let lsn = w.append(&[put(t, i)]);
                    w.wait_durable(lsn);
                    assert!(w.durable_frontier() >= lsn, "returned before its fsync");
                }
            });
        }
    });
    let stats = w.stats();
    assert_eq!(stats.appends, threads * rounds);
    assert!((1..=stats.appends).contains(&stats.fsyncs), "{stats:?}");
    assert_eq!(w.durable_frontier(), threads * rounds);
    drop(w);
    assert_eq!(collect(&dir).0.records, threads * rounds);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Whoever hands staged bytes to the kernel — a waiter, another
/// thread's waiter, an fsync's leader — hands over all of them, in LSN
/// order: the file never holds a gap or an inversion, and every waited
/// record is in it before the log is dropped.
#[test]
fn concurrent_append_and_wait_leave_the_file_in_lsn_order() {
    for policy in [FsyncPolicy::Off, FsyncPolicy::Batch] {
        let dir = scratch(&format!("order-{}", policy.label()));
        let w = Wal::open(&dir, policy, 1).unwrap();
        let (threads, rounds) = (4u64, 200u64);
        std::thread::scope(|s| {
            for t in 0..threads {
                let w = &w;
                s.spawn(move || {
                    for i in 0..rounds {
                        let lsn = w.append(&[put(t, i), del(t + 100)]);
                        w.wait_durable(lsn);
                    }
                });
            }
        });
        // `replay` itself refuses a gap; spell the order out anyway.
        let lsns: Vec<u64> = collect(&dir).1.iter().map(|(lsn, _)| *lsn).collect();
        assert_eq!(
            lsns,
            (1..=threads * rounds).collect::<Vec<_>>(),
            "{policy:?}"
        );
        let stats = w.stats();
        assert_eq!(stats.appends, threads * rounds);
        assert!((1..=stats.appends).contains(&stats.writes), "{stats:?}");
        drop(w);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A record staged when its segment fills belongs to that segment: the
/// rotation writes it there before it opens the next one, so every
/// segment's header base is its first record's LSN.
#[test]
fn rotation_writes_staged_records_into_the_old_segment() {
    for policy in [FsyncPolicy::Off, FsyncPolicy::Batch] {
        let dir = scratch(&format!("rotate-staged-{}", policy.label()));
        let w = Wal::open_with_segment_bytes(&dir, policy, 1, 200).unwrap();
        let mut last = NO_LSN;
        for i in 0..50u64 {
            // Never waited for: only rotation moves these records out
            // of memory.
            last = w.append(&[put(i, i * 2), del(i + 1000)]);
        }
        w.wait_durable(last);
        let files = segment_files(&dir);
        assert!(files.len() > 5, "{policy:?}: {} segments", files.len());
        let mut next = 1;
        for path in &files {
            let bytes = std::fs::read(path).unwrap();
            let base = wal::record::decode_segment_header(&bytes).expect("header");
            assert_eq!(base, next, "{policy:?}: {} starts late", path.display());
            let mut at = wal::record::SEGMENT_HEADER;
            let mut ops = Vec::new();
            while at < bytes.len() {
                let rec = wal::record::decode_record(&bytes[at..], &mut ops).expect("whole record");
                assert_eq!(rec.lsn, next, "{policy:?}: {}", path.display());
                next += 1;
                at += rec.size;
            }
            assert!(next > base, "{policy:?}: {} is empty", path.display());
        }
        assert_eq!(next, last + 1);
        drop(w);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// An appender that never waits (the benchmark's synthetic log) does
/// not grow the staging buffer without bound: past a fixed cap of at
/// most 64 KiB the append writes inline.
#[test]
fn unwaited_appends_stage_at_most_the_cap() {
    const CAP_CEILING: u64 = 64 << 10;
    let dir = scratch("stage-cap");
    let w = Wal::open(&dir, FsyncPolicy::Off, 1).unwrap();
    let record: Vec<MutOp> = (0..64).map(|k| put(k, k)).collect();
    let segment = dir.join(wal::recover::segment_name(1));
    for _ in 0..1000 {
        w.append(&record);
        let in_file = std::fs::metadata(&segment).unwrap().len();
        let staged = wal::record::SEGMENT_HEADER as u64 + w.stats().bytes - in_file;
        assert!(staged <= CAP_CEILING, "{staged} bytes staged");
    }
    let stats = w.stats();
    assert!(stats.bytes > 8 * CAP_CEILING, "{stats:?}");
    assert!(
        stats.writes >= stats.bytes / CAP_CEILING && stats.writes < stats.appends / 8,
        "{stats:?}"
    );
    drop(w);
    assert_eq!(collect(&dir).0.records, 1000);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A wake-up's write carries several records, so a crash inside it can
/// tear the log anywhere in them: cut one three-record write at every
/// byte and recovery keeps the whole records before the cut, drops the
/// rest, and leaves the file ending on a record boundary.
#[test]
fn multi_record_write_torn_at_every_byte_replays_a_gap_free_prefix() {
    let dir = scratch("torn-write");
    let w = Wal::open(&dir, FsyncPolicy::Off, 1).unwrap();
    let first = w.append(&[put(1, 1)]);
    w.wait_durable(first);
    w.append(&[put(2, 2), del(1)]);
    w.append(&[del(7)]);
    let last = w.append(&[put(3, 3), put(4, 4), put(5, 5)]);
    w.wait_durable(last);
    assert_eq!(w.stats().writes, 2, "three records, one write");
    drop(w);
    let name = wal::recover::segment_name(1);
    let bytes = std::fs::read(dir.join(&name)).unwrap();
    // Offsets at which a record ends (the header's end stands for
    // "no record").
    let mut ends = vec![wal::record::SEGMENT_HEADER];
    let mut ops = Vec::new();
    while *ends.last().unwrap() < bytes.len() {
        let at = *ends.last().unwrap();
        ends.push(
            at + wal::record::decode_record(&bytes[at..], &mut ops)
                .unwrap()
                .size,
        );
    }
    assert_eq!(ends.len(), 5);

    let cut_dir = scratch("torn-write-cut");
    for cut in ends[1]..=bytes.len() {
        std::fs::create_dir_all(&cut_dir).unwrap();
        std::fs::write(cut_dir.join(&name), &bytes[..cut]).unwrap();
        let whole = ends.iter().rposition(|&end| end <= cut).unwrap();
        let (report, got) = collect(&cut_dir);
        let lsns: Vec<u64> = got.iter().map(|(lsn, _)| *lsn).collect();
        assert_eq!(lsns, (1..=whole as u64).collect::<Vec<_>>(), "cut {cut}");
        assert_eq!(
            report.truncated_bytes,
            (cut - ends[whole]) as u64,
            "cut {cut}"
        );
        assert_eq!(report.next_lsn, whole as u64 + 1, "cut {cut}");
        let left = std::fs::metadata(cut_dir.join(&name)).unwrap().len();
        assert_eq!(left, ends[whole] as u64, "cut {cut}: not a record boundary");
        std::fs::remove_dir_all(&cut_dir).unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `interval:<ms>` is a cadence, not a floor: appends that keep records
/// pending for N intervals still get about N fsyncs
/// (one per interval, one in flight at the edges), not one per wake-up.
#[test]
fn interval_policy_keeps_its_cadence_under_continuous_appends() {
    let interval = Duration::from_millis(20);
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

/// Prefilled keys of the stores [`native_backend_replay_equals_store`]
/// builds: the logged PUTs below this update a key, the DELs remove one.
const PREFILL: u64 = 100;

/// Everything a store holds among the keys the replay test writes
/// (those below 4096, and the top of the key space), by scan.
fn contents(store: &dyn StoreBackend) -> Vec<(u64, u64)> {
    let mut s = store.session();
    let mut out = Vec::new();
    s.scan(0, 4096, &mut out);
    s.scan(u64::MAX - 4095, 4096, &mut out);
    out
}

/// The server's start-up: every record of `dir` through the store's
/// load path.
fn loaded<L: StoreLoader>(mut loader: L, dir: &Path) -> L::Store {
    replay(dir, |lsn, ops| {
        loader
            .apply(ops)
            .unwrap_or_else(|_| panic!("record {lsn} fits"))
    })
    .expect("replay");
    loader.finish()
}

/// The worker's path: every record of `dir` as one `apply_batch`.
fn applied<B: StoreBackend>(store: B, dir: &Path) -> B {
    let mut sess = store.session();
    let mut replies = Vec::new();
    replay(dir, |_lsn, ops| {
        sess.apply_batch(ops, &mut replies);
    })
    .expect("replay");
    drop(sess);
    store
}

/// Each store's load path and its `apply_batch` rebuild the same
/// contents from the log in `dir`; returns them.
fn every_store_loads_what_it_replays(dir: &Path) -> Vec<(u64, u64)> {
    let sim = || SimBackend::loader(SchemeKind::RwLeOpt, 4, 16, PREFILL, 4000, 2, 1).unwrap();
    let native = loaded(NativeBackend::loader(4, 1, PREFILL), dir);
    let want = contents(&applied(NativeBackend::create(4, 2, PREFILL), dir));
    assert_eq!(contents(&native), want, "native load path");
    assert_eq!(
        contents(&loaded(sim(), dir)),
        contents(&applied(sim().finish(), dir)),
        "sim load path"
    );
    assert_eq!(contents(&loaded(sim(), dir)), want, "sim vs native");
    let sgl = loaded(SglBackend::loader(PREFILL), dir);
    assert_eq!(
        contents(&sgl),
        contents(&applied(SglBackend::create(PREFILL), dir)),
        "SGL load path"
    );
    assert_eq!(contents(&sgl), want, "SGL vs native");
    want
}

/// The headline invariant: concurrent durable batches on the native
/// backend replay to exactly the state the store held, because each
/// shard's group is appended as its own record inside that shard's
/// lock window (log order = commit order, per shard). Replayed the way a server starts — each store's load path,
/// which applies each op once and publishes nothing — the log gives
/// every store the same contents as the worker path (`apply_batch`)
/// does, for this log and for an empty one. The log holds PUT updates,
/// DELs of absent keys, a key written several times in one record, an
/// empty record, and the keys `0` and `u64::MAX`.
#[test]
fn native_backend_replay_equals_store() {
    let dir = scratch("native-replay");
    let threads = 4usize;
    let backend = Arc::new(NativeBackend::create(4, threads + 2, PREFILL));
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

    // The last one leaves ten keys deleted for good.
    let edges = [
        vec![put(7, 1), del(7), put(7, 2), put(7, 3)],
        vec![put(0, 5), put(u64::MAX, 6), del(1_000_000)],
        vec![del(u64::MAX), put(u64::MAX, 8), del(3), put(3, 9), del(3)],
        (90..PREFILL).map(del).collect(),
    ];
    let mut sess = backend.session();
    let mut replies = Vec::new();
    for ops in &edges {
        let (_, lsn) = sess.apply_batch_durable(ops, &mut replies, &*w);
        w.wait_durable(lsn);
    }
    drop(sess);
    w.wait_durable(w.append(&[]));
    let live = contents(&*backend);
    drop(w);
    let (report, records) = collect(&dir);
    // One record per touched shard of a batch: the store deals 64-key
    // blocks over its 4 shards, so each thread's batch touches blocks
    // 0 and 1, and the edges 1 + 3 + 2 + 1 shards.
    assert_eq!(report.records, (threads * 200 * 2 + 7 + 1) as u64);
    assert!(records.last().is_some_and(|(_, ops)| ops.is_empty()));
    assert!(live.contains(&(u64::MAX, 8)) && live.contains(&(7, 3)) && live.contains(&(0, 5)));
    assert!(!live
        .iter()
        .any(|&(k, _)| k == 3 || (90..PREFILL).contains(&k)));

    assert_eq!(
        every_store_loads_what_it_replays(&dir),
        live,
        "replayed state diverged from the store"
    );
    let _ = std::fs::remove_dir_all(&dir);
    let empty = scratch("native-replay-empty");
    Wal::open(&empty, FsyncPolicy::Batch, 1).unwrap();
    let prefill: Vec<(u64, u64)> = (0..PREFILL).map(|k| (k, k)).collect();
    assert_eq!(every_store_loads_what_it_replays(&empty), prefill);
    let _ = std::fs::remove_dir_all(&empty);
}

/// StoreFull'd puts are filtered from the write-set by
/// `apply_batch_durable`'s default implementation, so replay cannot
/// resurrect a shed write. Exercised with the sim backend (the only
/// one whose puts can fail).
#[test]
fn shed_puts_never_reach_the_log() {
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
