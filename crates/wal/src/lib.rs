//! Group-commit redo log behind the quiescence barrier.
//!
//! RW-LE writers already pay epoch-quiescence barriers for every batch;
//! this crate rides that wait for durability. An append is a memory
//! operation: the batch's effective write-set is encoded onto the log's
//! staging buffer, and given its LSN, while the batch's commit order is
//! still pinned (on the native backend each touched shard's group is a
//! record of its own, appended after that shard's flip under its writer
//! lock; under the sink's order mutex elsewhere). The staged
//! bytes reach the file in one `write` when somebody needs them there —
//! the ack gate ([`DurableSink::wait_durable`], once per server
//! wake-up), whoever leads an `fdatasync`, a segment rotation, the drop
//! — so no lock that pins commit order is ever held across a system
//! call, and a wake-up that appended many records pays for one.
//!
//! Group commit needs no thread of its own. Under
//! [`FsyncPolicy::Batch`] a waiter whose record is not yet durable
//! leads the next fsync itself when none is in flight: it writes what
//! is staged, syncs outside the lock and publishes the frontier; the
//! waiters that found a sync in flight follow it, and the records
//! staged meanwhile ride the next leader's sync. Only
//! [`FsyncPolicy::Interval`] runs a thread, a ticker that syncs every
//! interval while records are pending, since nobody waits for those
//! syncs.
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
//! checked by a CRC-32, a carry-less-multiply fold where the CPU has
//! one and slicing-by-8 where not ([`record`]); replay streams each
//! segment through one reused 1 MiB buffer. A server tells its store's
//! load path ([`workloads::StoreLoader`]) about how many ops the log
//! holds ([`estimate_ops`]), then hands it the replayed records, before
//! anything can read the store:
//! the native stores sort them by key and build each shard once from
//! the prefill merged with each key's last op, the simulated store
//! applies each op in place.

use std::fs::{self, File};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use workloads::backend::{BatchOutcome, DurableSink, Lsn, MutOp, NO_LSN};

pub mod record;
pub mod recover;

pub use recover::{estimate_ops, replay, Replay, WalError, READ_CHUNK};

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
/// slow fsync) writes inline at this mark instead of growing it.
const STAGE_CAP: usize = 32 << 10;

/// A failed log write must not ack. Every site that writes holds the
/// log's mutex, so the panic also poisons it: the next appender or
/// waiter on any worker fails too instead of acking past the hole.
const WRITE_FAILED: &str = "wal write failed";

/// A failed fsync must not ack either, and panics the same way.
const FSYNC_FAILED: &str = "wal fsync failed";

/// What the next locker of a poisoned log reports: it fails stop too.
const POISONED: &str = "wal poisoned by a failed write or fsync";

struct WalInner {
    /// The current segment; a sync runs on a clone of the `Arc`, outside
    /// the lock, so no file handle is ever duplicated.
    file: Arc<File>,
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
    /// An fsync runs outside the lock; the next one waits for it.
    syncing: bool,
    /// Set by the drop: the ticker returns.
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

/// State shared between appenders, waiters and the interval ticker,
/// which owns an `Arc<WalShared>` (never the outer [`Wal`], which would
/// cycle and leak the thread).
struct WalShared {
    dir: PathBuf,
    policy: FsyncPolicy,
    segment_bytes: u64,
    inner: Mutex<WalInner>,
    /// Wakes the followers of an fsync when it completes, and the
    /// ticker at the drop.
    durable_cv: Condvar,
    /// Highest LSN covered by a completed fsync. Published by whoever
    /// led that fsync, read lock-free on the reply fast path.
    durable: AtomicU64,
    /// Serializes execute+append for backends that cannot pin commit
    /// order themselves; doubles as the write-set scratch buffer.
    order: Mutex<Vec<MutOp>>,
}

impl WalShared {
    /// Highest LSN covered by a completed fsync.
    fn durable_frontier(&self) -> Lsn {
        // Acquire pairs with the Release store in `sync`: a frontier
        // observation carries visibility of every write()/fsync that
        // produced it, so a reply released by `wait_durable` can never
        // outrun its own record reaching the disk.
        self.durable.load(Ordering::Acquire)
    }

    /// Leads one fsync (the caller holds the lock and no sync is in
    /// flight): writes what is staged — what the sync is to cover has to
    /// be in the file first — syncs with the lock released, publishes
    /// the frontier and wakes the followers. Everything up to the target
    /// is in the current segment or in an older one sealed at rotation,
    /// so one `sync_data` covers the whole range. Returns the re-taken
    /// lock.
    fn sync<'a>(&'a self, mut inner: MutexGuard<'a, WalInner>) -> MutexGuard<'a, WalInner> {
        inner.write_staged().expect(WRITE_FAILED);
        let (file, target) = (Arc::clone(&inner.file), inner.appended);
        inner.syncing = true;
        inner.stats.fsyncs += 1;
        drop(inner);
        let synced = file.sync_data();
        let mut inner = self.inner.lock().expect(POISONED);
        inner.syncing = false;
        self.durable_cv.notify_all();
        // A failed fsync must not ack: panicking with the lock held
        // poisons it, so the followers just woken, and every later
        // appender or waiter, fail stop instead of parking for good.
        synced.expect(FSYNC_FAILED);
        // Release pairs with the Acquire in `durable_frontier`. The store
        // is made under the lock, and the followers woken above re-check
        // only once they hold it, so none can check the frontier and
        // park in between (the classic lost-wakeup race).
        self.durable.store(target, Ordering::Release);
        inner
    }

    /// The interval ticker: every `every`, syncs what is pending. The
    /// cadence holds under load too — a wake-up before the deadline
    /// sleeps out what is left of it.
    fn tick(&self, every: Duration) {
        let mut inner = self.inner.lock().expect(POISONED);
        let mut due = Instant::now() + every;
        while !inner.stop {
            let left = due.saturating_duration_since(Instant::now());
            if !left.is_zero() {
                inner = self.durable_cv.wait_timeout(inner, left).expect(POISONED).0;
                continue;
            }
            if inner.appended > self.durable_frontier() {
                inner = self.sync(inner);
            }
            due = Instant::now() + every;
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
        lsn
    }

    /// Writes what is staged into the current segment — those records
    /// were counted into it — then seals it (fsync) and opens the next
    /// one. Runs synchronously in the appender: rotation is rare (once
    /// per `segment_bytes`) and keeping old segments fully durable
    /// before any new-segment append means a sync only ever needs to
    /// cover the *current* file. A sync in flight on the old file covers
    /// what it targeted all the same.
    ///
    /// [`FsyncPolicy::Off`] seals nothing: it promises no fsync, no sync
    /// relies on the sealed segments, and syncing a whole
    /// segment here would stall every appender behind the log's lock
    /// for as long as the device takes (measured 140–170 ms per 64 MiB),
    /// once per segment — i.e. the more often the faster the server
    /// appends.
    fn rotate(&self, inner: &mut WalInner) {
        inner.write_staged().expect(WRITE_FAILED);
        let seal = !matches!(self.policy, FsyncPolicy::Off);
        if seal {
            inner.file.sync_data().expect(FSYNC_FAILED);
            inner.stats.fsyncs += 1;
        }
        let (file, seg_bytes) =
            new_segment(&self.dir, inner.next_lsn, seal).expect("wal segment rotation failed");
        inner.file = Arc::new(file);
        inner.seg_bytes = seg_bytes;
    }
}

/// A writable redo log rooted at one directory.
///
/// `Wal` is `Sync`: many sessions append concurrently (each append is
/// one short critical section), and under `batch` their waits lead and
/// follow the group commits. Dropping the `Wal` stops and joins the
/// `interval` ticker.
pub struct Wal {
    shared: Arc<WalShared>,
    ticker: Option<JoinHandle<()>>,
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
                file: Arc::new(file),
                seg_bytes,
                next_lsn,
                appended: next_lsn - 1,
                written: next_lsn - 1,
                stage: Vec::new(),
                syncing: false,
                stop: false,
                stats: WalStats::default(),
            }),
            durable_cv: Condvar::new(),
            durable: AtomicU64::new(next_lsn - 1),
            order: Mutex::new(Vec::new()),
        });
        let ticker = match policy {
            FsyncPolicy::Interval(every) => {
                let for_thread = Arc::clone(&shared);
                Some(
                    std::thread::Builder::new()
                        .name("wal-ticker".into())
                        .spawn(move || for_thread.tick(every))
                        .map_err(WalError::Io)?,
                )
            }
            FsyncPolicy::Batch | FsyncPolicy::Off => None,
        };
        Ok(Wal { shared, ticker })
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
    /// [`FsyncPolicy::Batch`] then waits for the covering fsync: it
    /// follows the one in flight, or leads the next.
    fn wait_durable(&self, lsn: Lsn) {
        let shared = &*self.shared;
        if lsn == NO_LSN || shared.durable_frontier() >= lsn {
            return;
        }
        let mut inner = shared.inner.lock().expect(POISONED);
        if inner.written < lsn {
            // A failed write must not ack: panicking here, with the
            // lock held, tears this worker down before any reply of its
            // wake-up is flushed and poisons the log for the others.
            inner.write_staged().expect(WRITE_FAILED);
        }
        if matches!(shared.policy, FsyncPolicy::Batch) {
            while shared.durable_frontier() < lsn {
                inner = if inner.syncing {
                    shared.durable_cv.wait(inner).expect(POISONED)
                } else {
                    shared.sync(inner)
                };
            }
        }
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        // A poisoned lock means a write or fsync already failed and the
        // process is failing stop: nothing more is written or synced,
        // and the ticker finds the same poison on its own.
        let clean = self.shared.inner.lock().map(|mut inner| {
            inner.stop = true;
            // Records nobody waited for (a log being generated): every
            // acked one was written by its `wait_durable`.
            if let Err(e) = inner.write_staged() {
                eprintln!("wal: staged records lost at close: {e}");
            }
        });
        self.shared.durable_cv.notify_all();
        if let Some(handle) = self.ticker.take() {
            let _ = handle.join();
        }
        if clean.is_ok() {
            // Best effort, so a clean shutdown leaves a complete log on
            // disk under every policy: the segments (`off` seals none at
            // rotation) and their directory entries.
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
