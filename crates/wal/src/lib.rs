//! Group-commit redo log behind the quiescence barrier.
//!
//! RW-LE writers already pay epoch-quiescence barriers for every batch;
//! this crate rides that wait for durability. The appender write()s
//! the batch's effective write-set into the current segment while the
//! batch's commit order is still pinned (under the shard writer locks
//! on the native backend, whose durable batch keeps them until after
//! the append and then pays one barrier; under the sink's order mutex
//! elsewhere), and a background group-commit thread turns many appends
//! into one `fdatasync`. Replies wait on the **durable frontier** —
//! the highest LSN covered by a completed fsync — so under
//! [`FsyncPolicy::Batch`] an acked write is a durable write.
//!
//! Log order equals commit order by construction (see
//! [`workloads::backend::DurableSink`]), so replaying the log from the
//! start rebuilds exactly the acked store state; a torn final record
//! (the only artifact a crash mid-append can leave) is truncated on
//! recovery.

use std::fs::{self, File};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use workloads::backend::{BatchOutcome, DurableSink, Lsn, MutOp, NO_LSN};

pub mod record;
pub mod recover;

pub use recover::{replay, Replay, WalError};

/// Default segment rotation threshold (64 MiB).
pub const DEFAULT_SEGMENT_BYTES: u64 = 64 << 20;

/// When the log becomes durable relative to the ack.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Group-commit per batch: a reply waits until an fsync covers its
    /// LSN. Acked ⇒ durable; one fsync absorbs every append that
    /// landed while the previous fsync was in flight.
    Batch,
    /// fsync on a fixed cadence; replies do not wait. Bounded loss
    /// window (at most the interval), no fsync on the ack path.
    Interval(Duration),
    /// Never fsync (write-through to the page cache only). Survives
    /// process crashes but not power loss; useful for measuring the
    /// pure logging overhead.
    Off,
}

impl FsyncPolicy {
    /// Parses the CLI spelling: `batch`, `off`, or `interval:<ms>`.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "batch" => Ok(FsyncPolicy::Batch),
            "off" => Ok(FsyncPolicy::Off),
            _ => {
                let ms = s
                    .strip_prefix("interval:")
                    .and_then(|ms| ms.parse::<u64>().ok())
                    .filter(|&ms| ms > 0)
                    .ok_or_else(|| {
                        format!("bad fsync policy {s:?} (want batch, off, or interval:<ms>)")
                    })?;
                Ok(FsyncPolicy::Interval(Duration::from_millis(ms)))
            }
        }
    }

    /// Stable label for stats/output rows.
    pub fn label(&self) -> String {
        match self {
            FsyncPolicy::Batch => "batch".into(),
            FsyncPolicy::Interval(d) => format!("interval:{}", d.as_millis()),
            FsyncPolicy::Off => "off".into(),
        }
    }
}

/// Counters for the STATS wire reply and drain reports.
#[derive(Clone, Copy, Debug, Default)]
pub struct WalStats {
    /// Records appended (one per non-empty batch write-set).
    pub appends: u64,
    /// Completed fsync calls (group commits + rotations).
    pub fsyncs: u64,
    /// Bytes appended (record headers + payloads).
    pub bytes: u64,
}

struct WalInner {
    file: File,
    /// Bytes written to the current segment (header included).
    seg_bytes: u64,
    next_lsn: Lsn,
    /// Highest LSN written into a segment (durable frontier chases it).
    appended: Lsn,
    stop: bool,
    stats: WalStats,
    /// Record encode buffer, reused across appends (the lock is held).
    record: Vec<u8>,
}

/// State shared between appenders and the group-commit thread. The
/// flusher owns an `Arc<WalShared>` (never the outer [`Wal`], which
/// would cycle and leak the thread).
struct WalShared {
    dir: PathBuf,
    policy: FsyncPolicy,
    segment_bytes: u64,
    inner: Mutex<WalInner>,
    /// Wakes the flusher when there is new work (Batch policy).
    work: Condvar,
    /// Wakes `wait_durable` callers when the frontier advances.
    durable_cv: Condvar,
    /// Highest LSN covered by a completed fsync. Written by the
    /// flusher, read lock-free on the reply fast path.
    durable: AtomicU64,
    /// Serializes execute+append for backends that cannot pin commit
    /// order themselves; doubles as the write-set scratch buffer.
    order: Mutex<Vec<MutOp>>,
}

impl WalShared {
    /// Highest LSN covered by a completed fsync.
    fn durable_frontier(&self) -> Lsn {
        // Acquire pairs with the flusher's Release store: a frontier
        // observation carries visibility of every write()/fsync that
        // produced it, so a reply released by `wait_durable` can never
        // outrun its own record reaching the disk.
        self.durable.load(Ordering::Acquire)
    }

    /// Publishes a new durable frontier and wakes waiters. Takes the
    /// inner lock around store+notify so a waiter cannot check the
    /// predicate and park in between (the classic lost-wakeup race).
    fn publish_durable(&self, target: Lsn) {
        let _inner = self.inner.lock().unwrap();
        // Release pairs with the Acquire in `durable_frontier`; see
        // there.
        self.durable.store(target, Ordering::Release);
        self.durable_cv.notify_all();
    }

    fn flusher_loop(&self) {
        let mut last_sync = Instant::now();
        loop {
            let (file, target, stop);
            {
                let mut inner = self.inner.lock().unwrap();
                while !inner.stop {
                    let pending = inner.appended > self.durable_frontier();
                    inner = match self.policy {
                        // The cadence holds under load too: with appends
                        // pending, what is left of `d` since the last
                        // sync is still slept out.
                        FsyncPolicy::Interval(d) => {
                            let left = d.saturating_sub(last_sync.elapsed());
                            if pending && left.is_zero() {
                                break;
                            }
                            let nap = if left.is_zero() { d } else { left };
                            self.work.wait_timeout(inner, nap).unwrap().0
                        }
                        _ if pending => break,
                        _ => self.work.wait(inner).unwrap(),
                    };
                }
                stop = inner.stop;
                target = inner.appended;
                if target <= self.durable_frontier() {
                    // Only a stop leaves the wait with nothing pending.
                    return;
                }
                // Clone the fd so the (possibly slow) fsync runs
                // outside the append lock. Everything ≤ target is in
                // this file or in an older segment already synced at
                // rotation, so one sync_data covers the whole range.
                file = match inner.file.try_clone() {
                    Ok(f) => f,
                    Err(_) => continue,
                };
                inner.stats.fsyncs += 1;
            }
            // A failed fsync must not ack: the frontier below would
            // release replies for records that may not be on disk, so
            // this fails stop like a failed append does.
            file.sync_data().expect("wal fsync failed");
            last_sync = Instant::now();
            self.publish_durable(target);
            if stop {
                return;
            }
        }
    }

    /// Appends one record under the inner lock; rotates first if the
    /// current segment is full. Returns the record's LSN.
    fn append_locked(&self, ops: &[MutOp]) -> Lsn {
        let mut inner = self.inner.lock().unwrap();
        if inner.seg_bytes >= self.segment_bytes {
            self.rotate(&mut inner);
        }
        let lsn = inner.next_lsn;
        let WalInner { file, record, .. } = &mut *inner;
        record.clear();
        record::encode_record(record, lsn, ops);
        // A failed append must not ack: panicking here tears the
        // process down rather than letting replies outrun the log.
        file.write_all(record).expect("wal append failed");
        let len = record.len() as u64;
        inner.seg_bytes += len;
        inner.next_lsn = lsn + 1;
        inner.appended = lsn;
        inner.stats.appends += 1;
        inner.stats.bytes += len;
        drop(inner);
        if matches!(self.policy, FsyncPolicy::Batch) {
            self.work.notify_one();
        }
        lsn
    }

    /// Seals the current segment (fsync) and opens the next one. Runs
    /// synchronously in the appender: rotation is rare (once per
    /// `segment_bytes`) and keeping old segments fully durable before
    /// any new-segment append means the flusher only ever needs to
    /// sync the *current* file.
    ///
    /// [`FsyncPolicy::Off`] seals nothing: it promises no fsync, there
    /// is no flusher to rely on the sealed segments, and syncing a whole
    /// segment here would stall every appender behind the log's lock
    /// for as long as the device takes (measured 140–170 ms per 64 MiB),
    /// once per segment — i.e. the more often the faster the server
    /// appends.
    fn rotate(&self, inner: &mut WalInner) {
        let seal = !matches!(self.policy, FsyncPolicy::Off);
        if seal {
            inner.file.sync_data().expect("wal fsync failed");
            inner.stats.fsyncs += 1;
        }
        let (file, seg_bytes) =
            new_segment(&self.dir, inner.next_lsn, seal).expect("wal segment rotation failed");
        inner.file = file;
        inner.seg_bytes = seg_bytes;
    }
}

/// A writable redo log rooted at one directory.
///
/// `Wal` is `Sync`: many sessions append concurrently (each append is
/// one short critical section), one background thread group-commits.
/// Dropping the `Wal` stops and joins the flusher.
pub struct Wal {
    shared: Arc<WalShared>,
    flusher: Option<JoinHandle<()>>,
}

impl Wal {
    /// Opens the log for appending with records starting at `next_lsn`
    /// (use [`replay`]'s `next_lsn` after recovery, or 1 for a fresh
    /// log). Always starts a new segment — existing segments are never
    /// appended to, so recovery's torn-tail rule stays confined to the
    /// final segment of the *previous* incarnation.
    pub fn open(dir: &Path, policy: FsyncPolicy, next_lsn: Lsn) -> Result<Wal, WalError> {
        Self::open_with_segment_bytes(dir, policy, next_lsn, DEFAULT_SEGMENT_BYTES)
    }

    /// [`Wal::open`] with an explicit rotation threshold (tests use a
    /// tiny one to exercise rotation cheaply).
    pub fn open_with_segment_bytes(
        dir: &Path,
        policy: FsyncPolicy,
        next_lsn: Lsn,
        segment_bytes: u64,
    ) -> Result<Wal, WalError> {
        fs::create_dir_all(dir)?;
        let next_lsn = next_lsn.max(1);
        let (file, seg_bytes) = new_segment(dir, next_lsn, true)?;
        let shared = Arc::new(WalShared {
            dir: dir.to_path_buf(),
            policy,
            segment_bytes: segment_bytes.max(record::SEGMENT_HEADER as u64 + 1),
            inner: Mutex::new(WalInner {
                file,
                seg_bytes,
                next_lsn,
                appended: next_lsn - 1,
                stop: false,
                stats: WalStats::default(),
                record: Vec::new(),
            }),
            work: Condvar::new(),
            durable_cv: Condvar::new(),
            durable: AtomicU64::new(next_lsn - 1),
            order: Mutex::new(Vec::new()),
        });
        let flusher = if matches!(policy, FsyncPolicy::Off) {
            None
        } else {
            let for_thread = Arc::clone(&shared);
            Some(
                std::thread::Builder::new()
                    .name("wal-flusher".into())
                    .spawn(move || for_thread.flusher_loop())
                    .map_err(WalError::Io)?,
            )
        };
        Ok(Wal { shared, flusher })
    }

    /// The fsync policy this log was opened with.
    pub fn policy(&self) -> FsyncPolicy {
        self.shared.policy
    }

    /// Snapshot of the append/fsync counters.
    pub fn stats(&self) -> WalStats {
        self.shared.inner.lock().unwrap().stats
    }

    /// Highest LSN covered by a completed fsync.
    pub fn durable_frontier(&self) -> Lsn {
        self.shared.durable_frontier()
    }
}

impl DurableSink for Wal {
    fn append(&self, ops: &[MutOp]) -> Lsn {
        self.shared.append_locked(ops)
    }

    fn append_ordered(
        &self,
        exec: &mut dyn FnMut(&mut Vec<MutOp>) -> BatchOutcome,
    ) -> (BatchOutcome, Lsn) {
        // One global critical section pins commit order = log order
        // for backends whose apply_batch cannot host the append inside
        // its own serialization (sim HTM runs, single-global-lock).
        let mut wset = self.shared.order.lock().unwrap();
        wset.clear();
        let outcome = exec(&mut wset);
        let lsn = if wset.is_empty() {
            NO_LSN
        } else {
            self.shared.append_locked(&wset)
        };
        (outcome, lsn)
    }

    fn wait_durable(&self, lsn: Lsn) {
        if lsn == NO_LSN || !matches!(self.shared.policy, FsyncPolicy::Batch) {
            // Interval/Off trade the wait away: acked-but-lost windows
            // are bounded by the interval (or unbounded for Off).
            return;
        }
        if self.shared.durable_frontier() >= lsn {
            return;
        }
        let mut inner = self.shared.inner.lock().unwrap();
        while self.shared.durable_frontier() < lsn && !inner.stop {
            inner = self.shared.durable_cv.wait(inner).unwrap();
        }
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        {
            let mut inner = self.shared.inner.lock().unwrap();
            inner.stop = true;
        }
        self.shared.work.notify_all();
        self.shared.durable_cv.notify_all();
        if let Some(handle) = self.flusher.take() {
            let _ = handle.join();
        } else if let Ok(inner) = self.shared.inner.lock() {
            // Off policy: best-effort final sync so a clean shutdown
            // still leaves a complete log on disk — the current
            // segment, the ones rotation left unsealed, and their
            // directory entries.
            let _ = inner.file.sync_data();
            for (_, path) in recover::list_segments(&self.shared.dir).unwrap_or_default() {
                let _ = File::open(path).and_then(|f| f.sync_data());
            }
            let _ = File::open(&self.shared.dir).and_then(|d| d.sync_all());
        }
    }
}

fn new_segment(dir: &Path, base: Lsn, durable: bool) -> Result<(File, u64), std::io::Error> {
    let path = dir.join(recover::segment_name(base));
    let mut file = File::create(&path)?;
    let mut header = Vec::new();
    record::encode_segment_header(&mut header, base);
    file.write_all(&header)?;
    if durable {
        file.sync_data()?;
        // Make the new directory entry itself durable: a recovered log
        // must see the segment that the crashed process was appending
        // to.
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok((file, header.len() as u64))
}
