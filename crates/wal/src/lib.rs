//! Group-commit redo log behind the quiescence barrier.
//!
//! RW-LE writers already pay epoch-quiescence barriers for every batch;
//! this crate rides that wait for durability. An append is a memory
//! operation: the batch's effective write-set is encoded onto the log's
//! staging buffer, and given its LSN, while the batch's commit order is
//! still pinned (under the shard writer locks on the native backend,
//! whose durable batch keeps them until after the append and then pays
//! one barrier; under the sink's order mutex elsewhere). The staged
//! bytes reach the file in one `write` when somebody needs them there —
//! the ack gate ([`DurableSink::wait_durable`], once per server
//! wake-up), the group-commit thread before an `fdatasync`, a segment
//! rotation, the drop — so no lock that pins commit order is ever held
//! across a system call, and a wake-up that appended many records pays
//! for one.
//!
//! Three frontiers, each chasing the one before it: **staged** (the
//! highest LSN encoded, `appended`), **written** (the highest LSN
//! handed to the kernel, which a process crash can no longer lose) and
//! **durable** (the highest LSN covered by a completed fsync). Replies
//! wait for *written* under every policy and additionally for *durable*
//! under [`FsyncPolicy::Batch`], where an acked write is a durable
//! write.
//!
//! Log order equals commit order by construction (see
//! [`workloads::backend::DurableSink`]), so replaying the log from the
//! start rebuilds exactly the acked store state; a torn tail (what a
//! crash mid-write leaves — part of one wake-up's records) is truncated
//! to the last whole record on recovery, and a final segment torn inside
//! its header (a crash while opening it) is removed. Every record is
//! checked by a CRC-32 computed slicing-by-8 ([`record`]), so reading
//! and checking a log costs less than applying it; a server applies the
//! replayed records through its store's load path
//! ([`workloads::StoreLoader`]), before anything can read the store.

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
    /// fsync on a fixed cadence; a reply waits for its record's write
    /// into the page cache, never for an fsync. Survives process
    /// crashes; a power cut loses at most the interval.
    Interval(Duration),
    /// Never fsync: a reply waits for the write into the page cache
    /// only. Survives process crashes but not power loss; useful for
    /// measuring the pure logging overhead.
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
    /// `write` calls that handed staged records to the kernel.
    pub writes: u64,
}

/// Most bytes the staging buffer holds once an append has returned: an
/// appender that never waits (a log being generated, a backlog behind a
/// slow flusher) writes inline at this mark instead of growing it.
const STAGE_CAP: usize = 32 << 10;

/// A failed log write must not ack. Every site that writes holds the
/// log's mutex, so the panic also poisons it: the next appender or
/// waiter on any worker fails too instead of acking past the hole.
const WRITE_FAILED: &str = "wal write failed";

struct WalInner {
    file: File,
    /// Bytes of the current segment, staged ones included (header too).
    seg_bytes: u64,
    next_lsn: Lsn,
    /// Highest LSN encoded — the staged frontier.
    appended: Lsn,
    /// Highest LSN handed to the kernel (`written <= appended`); the
    /// records in between are exactly `stage`.
    written: Lsn,
    /// Encoded records not yet written, in LSN order.
    stage: Vec<u8>,
    stop: bool,
    stats: WalStats,
}

impl WalInner {
    /// Hands every staged record to the kernel with one `write`, in LSN
    /// order (the caller holds the log's mutex, as every appender did).
    fn write_staged(&mut self) -> std::io::Result<()> {
        if !self.stage.is_empty() {
            self.file.write_all(&self.stage)?;
            self.stage.clear();
            self.stats.writes += 1;
        }
        self.written = self.appended;
        Ok(())
    }
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
                // What the sync is to cover has to be in the file first.
                inner.write_staged().expect(WRITE_FAILED);
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
            // this fails stop like a failed write does.
            file.sync_data().expect("wal fsync failed");
            last_sync = Instant::now();
            self.publish_durable(target);
            if stop {
                return;
            }
        }
    }

    /// Stages one record under the inner lock — LSN, segment and stats
    /// accounting, no system call; rotates first if the current segment
    /// is full. Returns the record's LSN.
    fn append_locked(&self, ops: &[MutOp]) -> Lsn {
        let mut inner = self.inner.lock().unwrap();
        if inner.seg_bytes >= self.segment_bytes {
            self.rotate(&mut inner);
        }
        let lsn = inner.next_lsn;
        let staged = inner.stage.len();
        record::encode_record(&mut inner.stage, lsn, ops);
        let len = (inner.stage.len() - staged) as u64;
        inner.seg_bytes += len;
        inner.next_lsn = lsn + 1;
        inner.appended = lsn;
        inner.stats.appends += 1;
        inner.stats.bytes += len;
        if inner.stage.len() >= STAGE_CAP {
            inner.write_staged().expect(WRITE_FAILED);
        }
        drop(inner);
        if matches!(self.policy, FsyncPolicy::Batch) {
            self.work.notify_one();
        }
        lsn
    }

    /// Writes what is staged into the current segment — those records
    /// were counted into it — then seals it (fsync) and opens the next
    /// one. Runs synchronously in the appender: rotation is rare (once
    /// per `segment_bytes`) and keeping old segments fully durable
    /// before any new-segment append means the flusher only ever needs
    /// to sync the *current* file.
    ///
    /// [`FsyncPolicy::Off`] seals nothing: it promises no fsync, there
    /// is no flusher to rely on the sealed segments, and syncing a whole
    /// segment here would stall every appender behind the log's lock
    /// for as long as the device takes (measured 140–170 ms per 64 MiB),
    /// once per segment — i.e. the more often the faster the server
    /// appends.
    fn rotate(&self, inner: &mut WalInner) {
        inner.write_staged().expect(WRITE_FAILED);
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
                written: next_lsn - 1,
                stage: Vec::new(),
                stop: false,
                stats: WalStats::default(),
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

    /// The ack gate. Whatever the policy, `lsn` is first written: a
    /// record still in the staging buffer dies with the process, and an
    /// ack must not. One call covers every record staged so far, so a
    /// wake-up that waits once on its highest LSN pays one `write`.
    /// [`FsyncPolicy::Batch`] then waits for the covering fsync.
    fn wait_durable(&self, lsn: Lsn) {
        if lsn == NO_LSN || self.shared.durable_frontier() >= lsn {
            return;
        }
        let mut inner = self.shared.inner.lock().unwrap();
        if inner.written < lsn {
            // A failed write must not ack: panicking here, with the
            // lock held, tears this worker down before any reply of its
            // wake-up is flushed and poisons the log for the others.
            inner.write_staged().expect(WRITE_FAILED);
        }
        if matches!(self.shared.policy, FsyncPolicy::Batch) {
            while self.shared.durable_frontier() < lsn && !inner.stop {
                inner = self.shared.durable_cv.wait(inner).unwrap();
            }
        }
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        // A poisoned lock means a write or fsync already failed and the
        // process is failing stop: nothing more is written, and the
        // flusher finds the same poison on its own.
        if let Ok(mut inner) = self.shared.inner.lock() {
            inner.stop = true;
            // Records nobody waited for (a log being generated): every
            // acked one was written by its `wait_durable`.
            if let Err(e) = inner.write_staged() {
                eprintln!("wal: staged records lost at close: {e}");
            }
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
