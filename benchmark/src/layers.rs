//! The one module that calls into the repository's crates.
//!
//! The end-to-end run sees `rwled` only through its command line and the
//! wire; everything the layer trace needs from inside — sessions, the
//! codec, the poller, the barrier, the log — is reached from here, so an
//! API refactor breaks this file and no other.
//!
//! The traced replay is a model of the server's batch loop, not the
//! loop: per batch it calls, in the server's order, the same public
//! functions `svc::server` calls (decode → reads → one `apply_batch` →
//! durable wait → encode), on `nproc` threads with one session each so
//! barriers meet real readers. `svc.server.residual_ns_per_op` says how
//! far the model is from the process.

use std::io::IoSlice;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::time::{Duration, Instant};

use epoch::EpochSet;
use htm::{HtmConfig, HtmRuntime};
use rwle::{RwLe, RwLeConfig};
use simmem::{SharedMem, SimAlloc};
use stats::ThreadStats;
use svc::poll::{Poller, Waker};
use svc::proto::{FrameReader, Outbox, Request, Response};
use wal::{FsyncPolicy, Wal};
use workloads::backend::{
    BatchOutcome, DurableSink, Lsn, MutOp, MutReply, SimBackend, StoreBackend, StoreSession, NO_LSN,
};
use workloads::native::NativeBackend;
use workloads::SchemeKind;

use crate::gen::{key_dist, Backend, Gen, Workload, SCAN_COUNT, SHARDS};
use crate::trace::{self, Span};

/// Root span of one batch.
pub const SPAN_BATCH: &str = "batch";
/// `FrameReader::extend/next_frame` + `Request::decode`.
pub const SPAN_DECODE: &str = "svc.proto.decode";
/// The batch's GETs and SCANs on a session.
pub const SPAN_READ: &str = "workloads.read";
/// The batch's one `apply_batch` store pass.
pub const SPAN_APPLY: &str = "workloads.apply_batch";
/// `DurableSink::append` inside the store pass.
pub const SPAN_WAL_APPEND: &str = "wal.append";
/// `DurableSink::wait_durable` before the replies may leave.
pub const SPAN_WAL_WAIT: &str = "wal.wait_durable";
/// `Response::to_frame` + `Outbox::push/chunks/advance`.
pub const SPAN_ENCODE: &str = "svc.proto.encode";

/// Spans one batch can record (root, five layers, and the append).
const SPANS_PER_BATCH: usize = 7;

/// `rwled`'s defaults the replay's store mirrors.
const BUCKETS_PER_SHARD: u32 = 1024;
const EXTRA_CAPACITY: u64 = 400_000;

/// A store built the way `rwled` builds it for a workload, optionally
/// with a redo log attached.
pub struct Store {
    backend: Box<dyn StoreBackend>,
    wal: Option<TimedSink>,
}

impl Store {
    /// Builds and prefills the workload's store sized for `sessions`
    /// threads; `wal_dir` attaches a fresh log under the server's
    /// `--fsync off`.
    pub fn open(w: &Workload, sessions: usize, wal_dir: Option<&Path>) -> Result<Store, String> {
        let backend: Box<dyn StoreBackend> = match w.backend {
            Backend::Native => Box::new(NativeBackend::create(SHARDS, sessions, w.prefill)),
            Backend::Sim => Box::new(SimBackend::create(
                SchemeKind::RwLeOpt,
                SHARDS,
                BUCKETS_PER_SHARD,
                w.prefill,
                EXTRA_CAPACITY,
                sessions,
                1,
            )?),
        };
        let wal = match wal_dir {
            Some(dir) => Some(TimedSink(
                Wal::open(dir, FsyncPolicy::Off, 1).map_err(|e| e.to_string())?,
            )),
            None => None,
        };
        Ok(Store { backend, wal })
    }
}

/// The real log behind a timing decorator: appends become child spans
/// of the store pass that issues them.
struct TimedSink(Wal);

impl DurableSink for TimedSink {
    fn append(&self, ops: &[MutOp]) -> Lsn {
        trace::span(SPAN_WAL_APPEND, || self.0.append(ops))
    }

    fn append_ordered(
        &self,
        exec: &mut dyn FnMut(&mut Vec<MutOp>) -> BatchOutcome,
    ) -> (BatchOutcome, Lsn) {
        self.0.append_ordered(exec)
    }

    fn wait_durable(&self, lsn: Lsn) {
        self.0.wait_durable(lsn)
    }
}

/// What a replay did.
pub struct Replayed {
    /// Requests executed over all threads.
    pub ops: u64,
    /// PUT/DEL among them.
    pub mutations: u64,
    /// Batches executed.
    pub batches: u64,
    /// Log records appended.
    pub records: u64,
    /// Wall time of the replay in seconds.
    pub secs: f64,
    /// Recorded spans per thread (empty when not tracing).
    pub spans: Vec<Vec<Span>>,
}

/// Replays the workload's generated request streams through the layers
/// for `duration` in batches of `batch` requests, on `threads` threads.
/// With `span_capacity > 0` every thread records spans until its buffer
/// is full, which also ends its replay.
pub fn replay(
    store: &Store,
    w: &Workload,
    seed: u64,
    threads: usize,
    batch: usize,
    duration: Duration,
    span_capacity: usize,
) -> Replayed {
    let zipf = key_dist(w);
    let gate = Barrier::new(threads);
    let epoch = Instant::now();
    let t0 = Instant::now();
    let per_thread: Vec<(u64, u64, u64, u64, Vec<Span>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (gate, zipf) = (&gate, zipf.clone());
                s.spawn(move || {
                    let mut sess = store.backend.session();
                    let mut gen = Gen::new(w, zipf, seed, t as u64, threads as u64);
                    if span_capacity > 0 {
                        trace::install(span_capacity, epoch);
                    }
                    gate.wait();
                    let deadline = Instant::now() + duration;
                    let mut loop_ = BatchLoop::default();
                    let (mut ops, mut muts, mut batches, mut records) = (0u64, 0u64, 0u64, 0u64);
                    while Instant::now() < deadline && trace::has_room(SPANS_PER_BATCH) {
                        // The client's work — generating and framing the
                        // requests — stays outside the batch span.
                        loop_.wire.clear();
                        for _ in 0..batch {
                            gen.next_request().encode_frame(&mut loop_.wire);
                        }
                        trace::set_batch(batches as u32);
                        let (m, appended) = loop_.run(&mut *sess, store.wal.as_ref());
                        ops += batch as u64;
                        muts += m;
                        records += appended as u64;
                        batches += 1;
                    }
                    (ops, muts, batches, records, trace::take())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect()
    });
    let secs = t0.elapsed().as_secs_f64();
    let mut out = Replayed {
        ops: 0,
        mutations: 0,
        batches: 0,
        records: 0,
        secs,
        spans: Vec::new(),
    };
    for (ops, muts, batches, records, spans) in per_thread {
        out.ops += ops;
        out.mutations += muts;
        out.batches += batches;
        out.records += records;
        if span_capacity > 0 {
            out.spans.push(spans);
        }
    }
    out
}

/// Scratch of one replay thread's batch loop (the server's per-worker
/// scratch, reused across batches the same way).
#[derive(Default)]
struct BatchLoop {
    wire: Vec<u8>,
    fr: FrameReader,
    work: Vec<Request>,
    replies: Vec<Option<Response>>,
    mut_ops: Vec<MutOp>,
    mut_at: Vec<usize>,
    mut_replies: Vec<MutReply>,
    scratch: Vec<(u64, u64)>,
    outbox: Outbox,
}

impl BatchLoop {
    /// One batch through the layers. Returns the number of mutations
    /// and whether a log record was appended.
    fn run(&mut self, sess: &mut dyn StoreSession, wal: Option<&TimedSink>) -> (u64, bool) {
        trace::span(SPAN_BATCH, || {
            trace::span(SPAN_DECODE, || {
                self.work.clear();
                self.fr.extend(&self.wire);
                while let Ok(Some(body)) = self.fr.next_frame() {
                    self.work
                        .push(Request::decode(&body).expect("generated requests decode"));
                }
            });
            self.replies.clear();
            self.replies.resize(self.work.len(), None);
            self.mut_ops.clear();
            self.mut_at.clear();
            trace::span(SPAN_READ, || {
                for (i, req) in self.work.iter().enumerate() {
                    match *req {
                        Request::Get { key } => {
                            self.replies[i] = Some(match sess.get(key) {
                                Some(v) => Response::Value(v),
                                None => Response::NotFound,
                            });
                        }
                        Request::Scan { start, count } => {
                            self.scratch.clear();
                            sess.scan(start, count, &mut self.scratch);
                            self.replies[i] = Some(Response::Pairs(self.scratch.clone()));
                        }
                        Request::Put { key, value } => {
                            self.mut_ops.push(MutOp::Put { key, value });
                            self.mut_at.push(i);
                        }
                        Request::Del { key } => {
                            self.mut_ops.push(MutOp::Del { key });
                            self.mut_at.push(i);
                        }
                        Request::Stats | Request::Shutdown => {
                            unreachable!("the generator emits neither")
                        }
                    }
                }
            });
            let lsn = trace::span(SPAN_APPLY, || match wal {
                Some(w) => {
                    sess.apply_batch_durable(&self.mut_ops, &mut self.mut_replies, w)
                        .1
                }
                None => {
                    sess.apply_batch(&self.mut_ops, &mut self.mut_replies);
                    NO_LSN
                }
            });
            if let Some(w) = wal {
                trace::span(SPAN_WAL_WAIT, || w.wait_durable(lsn));
            }
            for (&i, reply) in self.mut_at.iter().zip(&self.mut_replies) {
                self.replies[i] = Some(match *reply {
                    MutReply::Put(Ok(_)) | MutReply::Del(true) => Response::Ok,
                    MutReply::Put(Err(_)) => Response::ServerFull,
                    MutReply::Del(false) => Response::NotFound,
                });
            }
            trace::span(SPAN_ENCODE, || {
                for resp in self.replies.drain(..) {
                    self.outbox
                        .push(resp.expect("every request got a reply").to_frame());
                }
                // The flush, minus the socket: gather, then consume what
                // a writev would have taken.
                while !self.outbox.is_empty() {
                    let mut iovs: Vec<IoSlice<'_>> = Vec::with_capacity(8);
                    self.outbox.chunks(&mut iovs, 64);
                    let taken: usize = iovs.iter().map(|s| s.len()).sum();
                    self.outbox.advance(std::hint::black_box(taken));
                }
            });
            (self.mut_ops.len() as u64, lsn != NO_LSN)
        })
    }
}

/// Runs `op` `iters` times after a tenth as many warm-up calls and
/// returns nanoseconds per call.
fn ns_per_call(iters: u64, mut op: impl FnMut(u64)) -> f64 {
    for i in 0..iters / 10 {
        op(i);
    }
    let t0 = Instant::now();
    for i in 0..iters {
        op(i);
    }
    t0.elapsed().as_nanos() as f64 / iters as f64
}

/// Cost of the store's point and range reads (and, on the simulated
/// backend, a PUT) on one session over the workload's key range.
pub struct StoreCosts {
    /// `StoreSession::get`, ns.
    pub get_ns: f64,
    /// `StoreSession::scan(_, 64, _)`, ns.
    pub scan_ns: f64,
    /// `StoreSession::put` of a present key, ns (simulated backend only).
    pub put_ns: Option<f64>,
}

/// Times the store's session calls over uniformly drawn keys.
pub fn store_costs(store: &Store, w: &Workload, seed: u64) -> StoreCosts {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    let keys: Vec<u64> = (0..1 << 16).map(|_| rng.gen_range(0..w.prefill)).collect();
    let key = |i: u64| keys[i as usize & (keys.len() - 1)];
    let mut sess = store.backend.session();
    let mut found = 0u64;
    let get_ns = ns_per_call(400_000, |i| found += sess.get(key(i)).is_some() as u64);
    let mut out = Vec::with_capacity(SCAN_COUNT as usize);
    let scan_ns = ns_per_call(40_000, |i| {
        out.clear();
        sess.scan(key(i), SCAN_COUNT, &mut out);
        found += out.len() as u64;
    });
    // An update of a present key allocates nothing, so the arena's
    // `--capacity` is not spent here.
    let put_ns = (w.backend == Backend::Sim).then(|| {
        ns_per_call(100_000, |i| {
            found += sess.put(key(i), i).is_ok() as u64;
        })
    });
    std::hint::black_box(found);
    StoreCosts {
        get_ns,
        scan_ns,
        put_ns,
    }
}

/// Bare `EpochSet::synchronize` in ns, with `readers` threads cycling
/// `enter`/`exit` so the barrier has clocks to wait out.
pub fn epoch_synchronize_ns(readers: usize) -> f64 {
    let epochs = EpochSet::new(readers + 1);
    let stop = AtomicBool::new(false);
    let gate = Barrier::new(readers + 1);
    std::thread::scope(|s| {
        for tid in 0..readers {
            let (epochs, stop, gate) = (&epochs, &stop, &gate);
            s.spawn(move || {
                gate.wait();
                // Relaxed: an advisory stop flag, no data rides on it.
                while !stop.load(Ordering::Relaxed) {
                    epochs.enter(tid);
                    std::hint::spin_loop();
                    epochs.exit(tid);
                }
            });
        }
        gate.wait();
        let mut snap = Vec::new();
        let ns = ns_per_call(200_000, |_| {
            epochs.synchronize_in(Some(readers), &mut snap);
        });
        stop.store(true, Ordering::Relaxed);
        ns
    })
}

/// Median `Waker::wake` → `Poller::wait` return on a second thread, µs.
pub fn poll_wake_rtt_us() -> std::io::Result<f64> {
    const ROUNDS: usize = 2000;
    const TOKEN: u64 = 1;
    let mut poller = Poller::new()?;
    let waker = Waker::new(&poller, TOKEN)?;
    let (woke_tx, woke_rx) = mpsc::channel::<Instant>();
    let mut rtts: Vec<u32> = Vec::with_capacity(ROUNDS);
    std::thread::scope(|s| {
        let waker = &waker;
        s.spawn(move || {
            let mut events = Vec::new();
            for _ in 0..ROUNDS {
                events.clear();
                if poller.wait(&mut events, None).is_err() {
                    return;
                }
                let woke = Instant::now();
                waker.drain();
                if woke_tx.send(woke).is_err() {
                    return;
                }
            }
        });
        for _ in 0..ROUNDS {
            // Let the waiter get back into `wait` so the wake finds it
            // blocked, as it finds an idle worker.
            std::thread::sleep(Duration::from_micros(50));
            let rang = Instant::now();
            waker.wake();
            match woke_rx.recv() {
                Ok(woke) => rtts.push((woke.saturating_duration_since(rang)).as_nanos() as u32),
                Err(_) => break,
            }
        }
    });
    crate::mathx::quantile(&mut rtts, 0.5)
        .map(|ns| ns as f64 / 1000.0)
        .ok_or_else(|| std::io::Error::other("poller thread failed"))
}

/// `RwLe::read_cs` and `RwLe::write_cs` around a one-word section on
/// the simulated HTM, uncontended: `(read_ns, write_ns)`.
pub fn rwle_cs_ns() -> Result<(f64, f64), String> {
    let mem = Arc::new(SharedMem::new_lines(64));
    let rt = HtmRuntime::new(Arc::clone(&mem), HtmConfig::default());
    let alloc = SimAlloc::new(mem);
    let lock = RwLe::new(&alloc, 1, RwLeConfig::opt()).map_err(|e| e.to_string())?;
    let word = alloc.alloc(1).map_err(|e| format!("{e:?}"))?;
    let mut ctx = rt.register();
    let mut st = ThreadStats::new();
    let mut sum = 0u64;
    let read_ns = ns_per_call(200_000, |_| {
        sum += lock.read_cs(&mut ctx, &mut st, &mut |acc| acc.read(word));
    });
    let write_ns = ns_per_call(200_000, |i| {
        lock.write_cs(&mut ctx, &mut st, &mut |acc| acc.write(word, i));
    });
    std::hint::black_box(sum);
    Ok((read_ns, write_ns))
}

/// Writes the synthetic log `recover_s` replays: `ops` mutations of keys
/// below the prefill in records of 64, deterministic from `seed`, built
/// through `Wal::open` + `DurableSink::append`.
pub fn write_synthetic_log(dir: &Path, seed: u64, prefill: u64, ops: u64) -> Result<(), String> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed ^ 0x10c);
    // No fsync per append: the log is input, made durable once by the
    // drop below.
    let wal = Wal::open(dir, FsyncPolicy::Off, 1).map_err(|e| e.to_string())?;
    let mut record = Vec::with_capacity(64);
    let mut left = ops;
    while left > 0 {
        record.clear();
        for i in 0..left.min(64) {
            let key = rng.gen_range(0..prefill);
            record.push(if rng.gen_bool(0.5) {
                MutOp::Put {
                    key,
                    value: left - i,
                }
            } else {
                MutOp::Del { key }
            });
        }
        left -= record.len() as u64;
        wal.append(&record);
    }
    Ok(())
}

/// The group-commit path the `--fsync off` server leaves out: appends
/// of a small record under `--fsync batch`, each followed by the wait on
/// the durable frontier, for at most half a second. Returns the mean
/// wait in µs and the fsyncs per append. On a block device this is the
/// device's flush time plus the hand-off to the flusher thread.
pub fn wal_group_commit(dir: &Path) -> Result<(f64, f64), String> {
    let wal = Wal::open(dir, FsyncPolicy::Batch, 1).map_err(|e| e.to_string())?;
    let record: Vec<MutOp> = (0..4).map(|key| MutOp::Put { key, value: key }).collect();
    let deadline = Instant::now() + Duration::from_millis(500);
    let mut waited = Duration::ZERO;
    let mut appends = 0u32;
    while appends < 2000 && Instant::now() < deadline {
        let lsn = wal.append(&record);
        let t0 = Instant::now();
        wal.wait_durable(lsn);
        waited += t0.elapsed();
        appends += 1;
    }
    let stats = wal.stats();
    Ok((
        waited.as_secs_f64() * 1e6 / appends.max(1) as f64,
        stats.fsyncs as f64 / stats.appends.max(1) as f64,
    ))
}

/// `wal::replay` over `dir` into a fresh store of the workload, in
/// million mutations per second.
pub fn wal_replay_mops(w: &Workload, dir: &Path) -> Result<f64, String> {
    let store = Store::open(w, 1, None)?;
    let mut sess = store.backend.session();
    let mut replies = Vec::new();
    let t0 = Instant::now();
    let report = wal::replay(dir, |_lsn, ops| {
        sess.apply_batch(ops, &mut replies);
    })
    .map_err(|e| e.to_string())?;
    Ok(report.ops as f64 / t0.elapsed().as_secs_f64() / 1e6)
}
