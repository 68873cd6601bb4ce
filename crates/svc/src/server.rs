//! The `rwled` server: event-driven workers over the sharded elided
//! store.
//!
//! Each worker thread owns one epoll instance ([`crate::poll`]), a slab
//! of nonblocking connection state machines, and one backend session
//! (HTM thread contexts and epoch slots are not transferable between OS
//! threads). The acceptor hands new connections to workers round-robin
//! through a mailbox + waker; from then on the connection never changes
//! threads, so replies on a pipelined connection come back in request
//! order.
//!
//! ## One wake-up, many rounds, one flush
//!
//! One loop iteration — one wake-up — serves everything it has in hand:
//!
//! 1. **Wait** for readiness (or a zero timeout if input was left
//!    behind by the previous iteration). The wait spins, then blocks:
//!    for `SPIN_WINDOW` after a wake-up that found work, the worker
//!    polls with a zero timeout and yields between polls, so a request
//!    that arrives in that window is picked up without the wake-up of a
//!    blocked poller; only then does it block. A server that times out
//!    idle, or has started its drain, does not spin.
//! 2. **Read** ready sockets into per-connection [`FrameReader`]s, one
//!    chunk each.
//! 3. **Rounds**, while any pumped connection still has a complete
//!    frame buffered and the iteration's `ITERATION_BUDGET` lasts. A
//!    round walks each connection's buffered frames in place (no copy,
//!    no per-request allocation): reads are answered as they are
//!    decoded — a connection's consecutive GETs as one `get_many` run,
//!    so the store can share read sections and overlap the lookups'
//!    cache misses — mutations are collected, and the walk of a
//!    connection stops at its first read behind a mutation (see below).
//!    The round then runs every collected mutation, from every
//!    connection, in **one** `apply_batch` store pass — per touched
//!    shard one flip and at most one quiescence barrier cover however
//!    many of the round's mutations landed there (the paper's
//!    amortization argument turned into served-traffic throughput), and
//!    the pass holds one shard's writer lock at a time. On the native
//!    store the barrier is the one the shard's previous cycle deferred,
//!    paid before the flip, and a durable pass appends each shard's
//!    group as one record under that shard's lock — an encode into the
//!    log's staging buffer, no system call. A mutation's reply is
//!    encoded into its connection's [`Outbox`] only after the pass
//!    returned, i.e. after every flip of the round: a read that starts
//!    after the reply sees the write. The next round
//!    starts at the frames the boundaries left behind. Once a SHUTDOWN
//!    was seen, the round in progress is the last.
//! 4. **Durable wait**, once, on the highest LSN any of the iteration's
//!    rounds appended: the one `write` that hands the wake-up's staged
//!    records to the kernel, under every fsync policy, and under
//!    `batch` the block on the fsync covering them.
//! 5. **Flush**: one `write` per connection carries every reply the
//!    iteration's rounds queued for it. Nothing is written before this
//!    phase, so no client ever observes an acked but unpublished (or,
//!    durable, unlogged) write — and a 64-deep pipeline with a boundary
//!    every few requests costs one `epoll_wait`, one `read`, one log
//!    `write` and one reply `write`, not one of each per boundary.
//!
//! `batches` and `ops_per_batch` in STATS count store passes — rounds —
//! not iterations; `writev_calls` counts the flush phase's writes.
//!
//! ## Per-connection ordering
//!
//! Answering reads before the round's mutations are applied must not
//! reorder one connection's pipelined requests: a GET pipelined *after*
//! a PUT has to see it. Within one round a connection therefore
//! contributes a prefix of the form `reads*, mutations*`, which the
//! reads-first execution order preserves exactly; whatever would be
//! answered outside the store pass behind a mutation — a read, a
//! rejection of a malformed frame — stays un-consumed in the reader and
//! opens the connection's next round, after the previous round's
//! mutations are applied and published. Replies are appended to the
//! outbox in that same order. Closed-loop clients (one outstanding
//! request) never reach a second round.
//!
//! ## Backpressure
//!
//! `ITERATION_BUDGET` bounds the *iteration*, across all its rounds, not
//! a queue: frames beyond the budget stay buffered in their connection
//! (which also stops being read), so a worker that falls behind pushes
//! backpressure into TCP instead of growing memory. The same holds for
//! replies: a connection with `OUTBOX_HIGH_WATER` reply bytes pending is
//! neither read nor decoded until its client has taken them, so a
//! client that sends without reading fills its own socket buffers, not
//! the server's heap. `Busy` is the connection-limit shed reply only.
//!
//! All cross-thread coordination flows through the mailboxes, wakers
//! and the sockets themselves; the atomics here are monotonic counters
//! and advisory flags (see `docs/orderings.toml`).

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use stats::{StatsSummary, ThreadStats};
use wal::{FsyncPolicy, Wal};
use workloads::backend::{MutOp, MutReply, SimBackend, NO_LSN};
use workloads::native::{NativeBackend, SglBackend};
use workloads::sharded::buckets_per_shard;
use workloads::{BackendKind, SchemeKind, StoreBackend, StoreLoader, StoreSession};

use crate::poll::{Interest, Poller, Waker};
use crate::proto::{FrameReader, Outbox, Request, Response, ServerStats};

/// Server configuration. `Default` gives the smoke-test setup: four
/// workers, RW-LE optimistic, 16 shards, ephemeral port.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// TCP port on 127.0.0.1 (0 = ephemeral).
    pub port: u16,
    /// Worker threads (each owns one backend session and event loop).
    pub threads: usize,
    /// Synchronization scheme guarding every shard. On the simulated
    /// backend any scheme runs; the native backend has two stores,
    /// `RW-LE_OPT` (the RW-LE publication protocol) and `SGL` (the
    /// plain-mutex canary), and [`Server::bind`] rejects the rest.
    pub scheme: SchemeKind,
    /// Execution backend: simulated HTM or plain memory.
    pub backend: BackendKind,
    /// Independent store shards (each its own elided lock). The
    /// simulated store gives each shard the hash buckets
    /// [`workloads::sharded::buckets_per_shard`] derives from `prefill`.
    pub shards: usize,
    /// Keys `0..prefill` loaded before serving.
    pub prefill: u64,
    /// Extra node capacity beyond the prefill: how many more keys the
    /// simulated store can hold (a deleted key's node is reused).
    pub extra_capacity: u64,
    /// Connection limit; beyond it a new connection is answered a
    /// best-effort `Busy` and closed.
    pub max_conns: usize,
    /// A connection silent for this long is dropped (workers sweep
    /// every `REAP_TICK`, or every `idle_timeout` if that is shorter).
    pub idle_timeout: Duration,
    /// Redo-log directory. `Some` makes every acked mutation durable:
    /// existing segments are replayed into the store at bind (torn
    /// final record truncated), and each batch's write-set is appended
    /// inside the store pass's commit window. Restarts must keep the
    /// same `prefill` — the log records mutations *over* the prefilled
    /// state, not the prefill itself — and an `extra_capacity` the log
    /// fits in: a record the store cannot hold fails the bind.
    pub wal_dir: Option<std::path::PathBuf>,
    /// When the log is fsynced relative to the ack (ignored without
    /// `wal_dir`); the ack waits for the log *write* under every policy.
    /// `Batch` is the acked-⇒-durable mode.
    pub fsync: FsyncPolicy,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            port: 0,
            threads: 4,
            scheme: SchemeKind::RwLeOpt,
            backend: BackendKind::Sim,
            shards: 16,
            prefill: 100_000,
            extra_capacity: 400_000,
            max_conns: 1024,
            idle_timeout: Duration::from_secs(10),
            wal_dir: None,
            fsync: FsyncPolicy::Batch,
        }
    }
}

/// Final accounting returned by [`Server::run`] after a clean drain.
#[derive(Debug, Clone, Default)]
pub struct DrainReport {
    /// The server's counters at exit — what a last STATS would have
    /// answered.
    pub stats: ServerStats,
    /// Merged worker-side protocol statistics (commit/abort mix).
    pub summary: StatsSummary,
    /// `write` calls that carried `stats.wal_appends` records into the
    /// log (0 when volatile). Here and not in [`ServerStats`]: the
    /// STATS wire layout is frozen until it is versioned.
    pub wal_writes: u64,
    /// Waits the workers' spin answered: zero-timeout polls, in the
    /// `SPIN_WINDOW` after a wake-up that found work, that returned an
    /// event. Beside `wal_writes` for the same reason.
    pub spun_waits: u64,
    /// Blocking waits that an event ended (a wait that timed out idle
    /// counts in neither tally).
    pub slept_waits: u64,
}

impl DrainReport {
    /// True when every admitted request was replied to.
    pub fn drained(&self) -> bool {
        self.stats.enqueued == self.stats.replied
    }
}

/// Where a durable server's start-up time went, and what its log held:
/// the report [`Server::recovery`] carries and `rwled` prints.
#[derive(Debug)]
pub struct Recovery {
    /// What the replay read: records, ops, segments, torn bytes, the
    /// next LSN.
    pub replay: wal::Replay,
    /// Reading the segments and checking and decoding their records:
    /// the replay's own time, the loader's share of it not included.
    /// Each segment streams through one reused 1 MiB buffer, each
    /// record's CRC is a carry-less-multiply fold where the CPU has one
    /// (slicing-by-8 where not), and its ops decode into one reused
    /// buffer.
    pub read: Duration,
    /// The loader's wall time, prefill included: for the native stores,
    /// sizing the per-shard runs from the log's estimated length (one
    /// block, on huge pages over the 2 MiB regions they fill), buffering
    /// the records and then one sort and merge per shard, the shards
    /// spread over the host's cores; for the simulated store, the
    /// prefill and each op applied once.
    pub build: Duration,
}

/// A bound, configured server ready to [`run`](Server::run).
pub struct Server {
    cfg: ServerConfig,
    listener: TcpListener,
    backend: Box<dyn StoreBackend>,
    wal: Option<Arc<Wal>>,
    recovery: Option<Recovery>,
}

impl Server {
    /// Builds and prefills the store on the configured backend, replays
    /// the redo log into it when there is one, and binds the listener.
    /// Bind and sizing failures, and a log that does not load, surface
    /// as `io::Error` so the binary can exit 2 with a hint.
    pub fn bind(cfg: ServerConfig) -> io::Result<Server> {
        if cfg.threads == 0 || cfg.shards == 0 || cfg.max_conns == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "threads, shards and connection limit must all be at least 1",
            ));
        }
        let started = Instant::now();
        let (backend, recovery) = match (cfg.backend, cfg.scheme) {
            (BackendKind::Sim, scheme) => load(
                SimBackend::loader(
                    scheme,
                    cfg.shards,
                    buckets_per_shard(cfg.prefill, cfg.shards),
                    cfg.prefill,
                    cfg.extra_capacity,
                    cfg.threads,
                    // Seeds only the page-fault RNG, which the server's
                    // HTM configuration never consults.
                    1,
                )
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?,
                &cfg,
                started,
            )?,
            // The native SGL canary: one mutex, no elision machinery —
            // the baseline CI normalizes the batching gate against.
            (BackendKind::Native, SchemeKind::Sgl) => {
                load(SglBackend::loader(cfg.prefill), &cfg, started)?
            }
            // Plain memory needs no sizing: capacity is the process
            // heap, so extra_capacity has nothing to govern.
            (BackendKind::Native, SchemeKind::RwLeOpt) => load(
                NativeBackend::loader(cfg.shards, cfg.threads, cfg.prefill),
                &cfg,
                started,
            )?,
            // Native has those two stores only; any other scheme would
            // run the publication store under its own label in STATS and
            // in every recorded row.
            (BackendKind::Native, other) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "scheme {} does not run on the native backend (rw-le_opt or sgl only)",
                        other.label()
                    ),
                ));
            }
        };
        // This incarnation appends to a fresh segment after what the
        // previous ones left.
        let wal = match (&cfg.wal_dir, &recovery) {
            (Some(dir), Some(r)) => Some(Arc::new(
                Wal::open(dir, cfg.fsync, r.replay.next_lsn).map_err(bad_log)?,
            )),
            _ => None,
        };
        let listener = TcpListener::bind(("127.0.0.1", cfg.port))?;
        // std hardwires a backlog of 128; a load generator opening
        // thousands of connections back to back overflows that and eats
        // ~1 s SYN-retransmit stalls. Size the backlog to the connection
        // budget instead (best-effort; see poll::widen_backlog).
        crate::poll::widen_backlog(listener.as_raw_fd(), cfg.max_conns.max(128));
        Ok(Server {
            cfg,
            listener,
            backend,
            wal,
            recovery,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The recovery report, when this server was bound with a WAL
    /// directory (present even for an empty log).
    pub fn recovery(&self) -> Option<&Recovery> {
        self.recovery.as_ref()
    }

    /// Serves until a SHUTDOWN request arrives, then drains: stop
    /// accepting, let every worker flush its pending replies, join the
    /// workers, and finally ack the SHUTDOWN.
    pub fn run(self) -> io::Result<DrainReport> {
        let Server {
            cfg,
            listener,
            backend,
            wal,
            recovery: _,
        } = self;
        // Pollers and wakers are created up front so the waker handles
        // can live in `Shared` (any thread wakes any worker) while each
        // poller moves into its owning worker.
        let mut pollers = Vec::with_capacity(cfg.threads);
        let mut wakers = Vec::with_capacity(cfg.threads);
        for _ in 0..cfg.threads {
            let poller = Poller::new()?;
            wakers.push(Waker::new(&poller, WAKE_TOKEN)?);
            pollers.push(poller);
        }
        let shared = Arc::new(Shared {
            counters: Counters::default(),
            shutdown: AtomicBool::new(false),
            active_conns: AtomicUsize::new(0),
            mailboxes: (0..cfg.threads).map(|_| Mutex::new(Vec::new())).collect(),
            wakers,
            shutdown_reply: Mutex::new(None),
            scheme_label: cfg.scheme.label(),
            backend_label: backend.label(),
            durability_label: match &wal {
                Some(w) => w.policy().label(),
                None => "volatile".to_string(),
            },
            wal,
            idle_timeout: cfg.idle_timeout,
        });
        let backend = &*backend;
        let cfg_ref = &cfg;
        let mut worker_stats: Vec<ThreadStats> = Vec::new();
        let mut waits = Waits::default();
        std::thread::scope(|s| {
            let mut workers = Vec::with_capacity(cfg.threads);
            for (w, poller) in pollers.into_iter().enumerate() {
                let shared = Arc::clone(&shared);
                workers.push(s.spawn(move || worker_loop(w, poller, backend, cfg_ref, &shared)));
            }
            let mut next_conn = 0usize;
            for conn in listener.incoming() {
                if shared.shutting_down() {
                    break;
                }
                let stream = match conn {
                    Ok(c) => c,
                    Err(_) => {
                        // At the fd limit `accept` fails at once for as
                        // long as the backlog holds a connection; back
                        // off instead of spinning, and go round to the
                        // shutdown check.
                        // xlint: allow(a5) -- a retry delay, not a test
                        // window: no event says a descriptor was freed.
                        std::thread::sleep(ACCEPT_BACKOFF);
                        continue;
                    }
                };
                Counters::inc(&shared.counters.conns);
                // The slot guard releases on every exit path — worker
                // slab drops and worker panics included (a leaked slot
                // would silently shrink max_conns forever).
                let Some(guard) = ConnGuard::enter(&shared, cfg.max_conns) else {
                    // Best-effort Busy, then close.
                    let mut stream = stream;
                    let _ = stream.write_all(&Response::Busy.to_frame());
                    Counters::inc(&shared.counters.shed);
                    continue;
                };
                let w = next_conn % cfg.threads;
                next_conn += 1;
                shared.mailboxes[w]
                    .lock()
                    .unwrap()
                    .push(NewConn { stream, guard });
                shared.wakers[w].wake();
            }
            // The SHUTDOWN worker set the flag and self-connected to
            // unblock the accept above; wake everyone so the drain
            // starts immediately.
            for waker in &shared.wakers {
                waker.wake();
            }
            for w in workers {
                let (stats, w) = w.join().expect("worker panicked");
                worker_stats.push(stats);
                waits.spun += w.spun;
                waits.slept += w.slept;
            }
            // Everything admitted is now answered and flushed: ack the
            // SHUTDOWN on the connection that requested it.
            if let Some(mut out) = shared.shutdown_reply.lock().unwrap().take() {
                let _ = out.set_nonblocking(false);
                let _ = out.write_all(&Response::Ok.to_frame());
            }
            // Connections still parked in mailboxes were never served;
            // dropping them closes the sockets and releases their slots
            // (and breaks the guard→Shared Arc cycle).
            for mb in &shared.mailboxes {
                mb.lock().unwrap().clear();
            }
        });
        Ok(DrainReport {
            stats: shared.snapshot(),
            summary: StatsSummary::from_threads(&worker_stats),
            wal_writes: shared.wal.as_ref().map_or(0, |w| w.stats().writes),
            spun_waits: waits.spun,
            slept_waits: waits.slept,
        })
    }
}

/// The starting store, built through `loader`, made since `started`
/// (the simulated store's prefill is in it already; the native loaders
/// build theirs at `finish`). On a durable server every logged record
/// goes to the loader in LSN order first, and the report says where the
/// time went. Log order is commit order, so this rebuilds exactly what
/// the previous incarnations acked — unless a record does not fit, and
/// then the server refuses to start rather than serve without a write
/// it acked.
fn load<L: StoreLoader>(
    mut loader: L,
    cfg: &ServerConfig,
    started: Instant,
) -> io::Result<(Box<dyn StoreBackend>, Option<Recovery>)> {
    let Some(dir) = &cfg.wal_dir else {
        return Ok((Box::new(loader.finish()), None));
    };
    let made = started.elapsed();
    let replay_started = Instant::now();
    let estimate = wal::estimate_ops(dir).map_err(bad_log)?;
    let t0 = Instant::now();
    loader.expect(estimate);
    let mut apply = t0.elapsed();
    let mut full = None;
    let replay = wal::replay(dir, |lsn, ops| {
        if full.is_none() {
            let t0 = Instant::now();
            if loader.apply(ops).is_err() {
                full = Some(lsn);
            }
            apply += t0.elapsed();
        }
    })
    .map_err(bad_log)?;
    if let Some(lsn) = full {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "wal: the record at lsn {lsn} does not fit the store: a capacity of {} keys \
                 beyond the prefill is less than the log needs (restart with the capacity \
                 it was written under)",
                cfg.extra_capacity
            ),
        ));
    }
    let read = replay_started.elapsed().saturating_sub(apply);
    let finish_started = Instant::now();
    let store = loader.finish();
    let recovery = Recovery {
        replay,
        read,
        build: made + apply + finish_started.elapsed(),
    };
    Ok((Box::new(store), Some(recovery)))
}

fn bad_log(e: wal::WalError) -> io::Error {
    io::Error::other(format!("wal: {e}"))
}

/// How long the acceptor waits after a failed `accept` (EMFILE at the
/// fd limit, a connection reset before it was taken) before it tries
/// again.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// Poller token reserved for the worker's waker eventfd.
const WAKE_TOKEN: u64 = u64::MAX;

/// Per-connection socket read cap per iteration; frames beyond it stay
/// in the kernel buffer (level-triggered epoll re-reports them).
const READ_CHUNK: usize = 16 * 1024;

/// Per-worker admission budget: at most this many requests are decoded
/// and executed per event-loop iteration, across all its rounds; frames
/// beyond it stay in their connection's buffer (TCP backpressure). A
/// constant because no gate, script or recorded row ever ran another
/// value (ROADMAP item 8 decides from a load sweep whether it is a knob).
const ITERATION_BUDGET: usize = 1024;

/// Outbox cap: a connection with this many reply bytes pending is
/// neither read nor decoded until it drains below the mark, so a client
/// that sends without reading makes the server hold this much plus one
/// reply (and the acks of the mutations already decoded), not whatever
/// it manages to send.
const OUTBOX_HIGH_WATER: usize = 256 * 1024;

/// How long the drain waits for backpressured reply bytes before
/// force-closing the stragglers.
const DRAIN_GRACE: Duration = Duration::from_secs(1);

/// How often each worker sweeps its connections for idle-timeout
/// reaping — also the longest an idle event loop sleeps in one wait,
/// once its `SPIN_WINDOW` has passed.
const REAP_TICK: Duration = Duration::from_millis(100);

/// How long a worker keeps polling after a wake-up that found work
/// before it blocks. Waking a blocked poller costs about 5 µs on a
/// 2-vCPU host, and an open-loop request gap is tens of µs; 50 µs is
/// the smallest of a {25, 50, 100, 200} µs sweep whose median
/// `svc-paced` p50 lay inside the best's quartiles (EXPERIMENTS.md,
/// "Spin, then block"),
/// and it is far below the milliseconds an idle server is left alone.
const SPIN_WINDOW: Duration = Duration::from_micros(50);

/// A connection handed from the acceptor to a worker.
struct NewConn {
    stream: TcpStream,
    guard: ConnGuard,
}

/// Monotonic counters. Each is an independent tally read for reporting
/// and no data is published through them (see `docs/orderings.toml`),
/// so they are `Relaxed` but for `replied`, which orders a snapshot's
/// reads (`Counters::reply`).
#[derive(Default)]
struct Counters {
    enqueued: AtomicU64,
    replied: AtomicU64,
    shed: AtomicU64,
    malformed: AtomicU64,
    timeouts: AtomicU64,
    gets: AtomicU64,
    puts: AtomicU64,
    dels: AtomicU64,
    scans: AtomicU64,
    conns: AtomicU64,
    batches: AtomicU64,
    batch_ops: AtomicU64,
    barriers: AtomicU64,
    barriers_shared: AtomicU64,
    writev_calls: AtomicU64,
    batch_hist: [AtomicU64; 8],
}

impl Counters {
    #[inline]
    fn inc(c: &AtomicU64) {
        c.fetch_add(1, Ordering::Relaxed);
    }

    /// Bulk add for per-round tallies (one RMW per round, not per op,
    /// and none for a tally that stayed at zero).
    #[inline]
    fn add(c: &AtomicU64, n: u64) {
        if n != 0 {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    #[inline]
    fn get(c: &AtomicU64) -> u64 {
        c.load(Ordering::Relaxed)
    }

    /// Counts `n` replies of requests already counted as enqueued.
    /// Release, so that a snapshot that reads `replied` (Acquire)
    /// before `enqueued` sees those requests counted.
    #[inline]
    fn reply(&self, n: u64) {
        if n != 0 {
            self.replied.fetch_add(n, Ordering::Release);
        }
    }
}

/// State shared between the acceptor and the workers.
struct Shared {
    counters: Counters,
    shutdown: AtomicBool,
    active_conns: AtomicUsize,
    /// Accepted connections awaiting pickup, one box per worker.
    mailboxes: Vec<Mutex<Vec<NewConn>>>,
    /// One waker per worker; any thread may ring any of them.
    wakers: Vec<Waker>,
    /// Connection that requested SHUTDOWN; acked after the drain.
    shutdown_reply: Mutex<Option<TcpStream>>,
    scheme_label: &'static str,
    backend_label: &'static str,
    /// `"volatile"`, or the attached WAL's fsync-policy label.
    durability_label: String,
    /// The redo log every worker's store pass appends through, when
    /// the server runs durable.
    wal: Option<Arc<Wal>>,
    idle_timeout: Duration,
}

/// RAII ticket for one claimed connection slot: dropping it releases
/// the slot. It travels with the connection into the worker's slab, so
/// every retirement path — EOF, timeout, framing error, worker panic —
/// gives the slot back.
struct ConnGuard {
    shared: Arc<Shared>,
}

impl ConnGuard {
    /// Claims a slot, or `None` over the limit (nothing to release).
    fn enter(shared: &Arc<Shared>, max: usize) -> Option<ConnGuard> {
        if !shared.conn_enter(max) {
            return None;
        }
        Some(ConnGuard {
            shared: Arc::clone(shared),
        })
    }
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.shared.conn_exit();
    }
}

impl Shared {
    /// Begins the drain. Release pairs with the Acquire in
    /// [`Shared::shutting_down`]; the flag is advisory (loops poll it),
    /// no data is transferred through it.
    fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
    }

    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Claims a connection slot; backs out and refuses over `max`.
    fn conn_enter(&self, max: usize) -> bool {
        let prev = self.active_conns.fetch_add(1, Ordering::Relaxed);
        if prev >= max {
            self.active_conns.fetch_sub(1, Ordering::Relaxed);
            return false;
        }
        true
    }

    fn conn_exit(&self) {
        self.active_conns.fetch_sub(1, Ordering::Relaxed);
    }

    /// `replied` is read first, with an Acquire load, and `enqueued`
    /// after: a worker counts a round's requests as enqueued before it
    /// counts their replies, so a snapshot never shows more replies than
    /// requests.
    fn snapshot(&self) -> ServerStats {
        let c = &self.counters;
        let replied = c.replied.load(Ordering::Acquire);
        #[cfg(test)]
        tests::between_snapshot_loads(self);
        let mut batch_hist = [0u64; 8];
        for (out, bucket) in batch_hist.iter_mut().zip(&c.batch_hist) {
            *out = Counters::get(bucket);
        }
        let ws = self.wal.as_ref().map(|w| w.stats()).unwrap_or_default();
        ServerStats {
            enqueued: Counters::get(&c.enqueued),
            replied,
            shed: Counters::get(&c.shed),
            malformed: Counters::get(&c.malformed),
            timeouts: Counters::get(&c.timeouts),
            gets: Counters::get(&c.gets),
            puts: Counters::get(&c.puts),
            dels: Counters::get(&c.dels),
            scans: Counters::get(&c.scans),
            conns: Counters::get(&c.conns),
            batches: Counters::get(&c.batches),
            batch_ops: Counters::get(&c.batch_ops),
            barriers: Counters::get(&c.barriers),
            barriers_shared: Counters::get(&c.barriers_shared),
            writev_calls: Counters::get(&c.writev_calls),
            wal_appends: ws.appends,
            wal_fsyncs: ws.fsyncs,
            wal_bytes: ws.bytes,
            batch_hist,
            scheme: self.scheme_label.to_string(),
            backend: self.backend_label.to_string(),
            durability: self.durability_label.clone(),
        }
    }
}

/// One nonblocking connection state machine.
struct Conn {
    stream: TcpStream,
    fr: FrameReader,
    outbox: Outbox,
    last_activity: Instant,
    /// Peer sent FIN (or the socket errored): no more reads, but
    /// buffered requests are still served and flushed (half-close).
    read_closed: bool,
    /// Flush the outbox, then retire (framing error or post-EOF drain).
    closing: bool,
    /// Socket is dead: retire without flushing.
    dead: bool,
    /// What the poller currently reports for this socket: writability
    /// while a flush is backpressured, readability unless the outbox is
    /// over [`OUTBOX_HIGH_WATER`].
    armed: Interest,
    /// This connection sent SHUTDOWN; its stream is handed back for the
    /// post-drain ack instead of being closed.
    is_shutdown_conn: bool,
    /// Iteration stamp deduplicating membership in the pump list (a
    /// slot can surface from both the carry list and an epoll event).
    pump_gen: u64,
    /// Slot ticket; dropping the Conn releases it.
    _guard: ConnGuard,
}

/// What one round answered, summed in locals and added to the shared
/// counters once per round rather than once per request.
#[derive(Default)]
struct RoundTally {
    /// Everything answered, rejections included.
    ops: u64,
    /// Rejections (`BadRequest`): answered in FIFO position, but never
    /// counted as enqueued or replied.
    malformed: u64,
    gets: u64,
    puts: u64,
    dels: u64,
    scans: u64,
}

/// What one worker's waits were: answered by the spin, or ended by an
/// event while blocked ([`DrainReport::spun_waits`], `slept_waits`).
#[derive(Default)]
struct Waits {
    spun: u64,
    slept: u64,
}

/// The per-worker event loop. See the module docs for the phase
/// structure; returns the session's merged stats and the worker's wait
/// tallies after the drain.
fn worker_loop(
    idx: usize,
    mut poller: Poller,
    backend: &dyn StoreBackend,
    cfg: &ServerConfig,
    shared: &Arc<Shared>,
) -> (ThreadStats, Waits) {
    let mut sess = backend.session();
    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut events: Vec<crate::poll::Event> = Vec::new();
    let mut buf = [0u8; READ_CHUNK];
    // Round scratch, reused across rounds and iterations: the slots
    // this round walks, the slots left at a boundary for the next one,
    // and the round's mutations with the slot each reply goes to.
    let mut round: Vec<usize> = Vec::new();
    let mut again: Vec<usize> = Vec::new();
    let mut mut_ops: Vec<MutOp> = Vec::new();
    let mut mut_slots: Vec<usize> = Vec::new();
    let mut mut_replies: Vec<MutReply> = Vec::new();
    let mut scratch: Vec<(u64, u64)> = Vec::new();
    // The run of GETs being gathered from the connection under the walk.
    let mut gets = GetRun::default();
    // Slots with decodable input left behind, carried across iterations.
    let mut carry: Vec<usize> = Vec::new();
    let mut retire: Vec<usize> = Vec::new();
    let mut gen: u64 = 0;
    let tick = REAP_TICK
        .min(cfg.idle_timeout)
        .max(Duration::from_millis(1));
    let mut last_reap = Instant::now();
    let mut drain_deadline: Option<Instant> = None;
    // End of the spin window; `None` after a wake-up that found work,
    // until the next wait opens a window of `SPIN_WINDOW` from then.
    let mut spin_until = Some(Instant::now());
    let mut waits = Waits::default();

    loop {
        // Phase 1: wait. Deferred work or an active drain keeps the
        // loop hot; in the spin window after a wake-up that found work
        // the wait is a poll; otherwise sleep one reap tick.
        let spin = carry.is_empty()
            && drain_deadline.is_none()
            && Instant::now() < *spin_until.get_or_insert_with(|| Instant::now() + SPIN_WINDOW);
        let timeout = if !carry.is_empty() || spin {
            Duration::ZERO
        } else if drain_deadline.is_some() {
            Duration::from_millis(5)
        } else {
            tick
        };
        events.clear();
        if poller.wait(&mut events, Some(timeout)).is_err() {
            break;
        }
        if events.is_empty() {
            if spin {
                std::thread::yield_now();
                continue;
            }
        } else {
            if spin {
                waits.spun += 1;
            } else if !timeout.is_zero() {
                waits.slept += 1;
            }
            spin_until = None;
        }

        // Phase 2: pick up new connections and read ready sockets.
        gen += 1;
        let mut pump = std::mem::take(&mut carry);
        for &slot in &pump {
            if let Some(conn) = conns.get_mut(slot).and_then(|c| c.as_mut()) {
                conn.pump_gen = gen;
            }
        }
        for ev in &events {
            if ev.token == WAKE_TOKEN {
                shared.wakers[idx].drain();
                if !shared.shutting_down() {
                    let mut mb = shared.mailboxes[idx].lock().unwrap();
                    for nc in mb.drain(..) {
                        if let Some(slot) = admit_conn(&mut conns, &mut free, &poller, nc) {
                            // A connection can arrive with data already
                            // in flight; treat it as readable once.
                            conns[slot].as_mut().expect("just admitted").pump_gen = gen;
                            pump.push(slot);
                        }
                    }
                }
                continue;
            }
            let slot = ev.token as usize;
            let Some(conn) = conns.get_mut(slot).and_then(|c| c.as_mut()) else {
                continue;
            };
            if ev.readable || ev.hangup {
                read_socket(conn, &mut buf);
            }
            if (ev.readable || ev.hangup || ev.writable) && conn.pump_gen != gen {
                conn.pump_gen = gen;
                pump.push(slot);
            }
        }

        // Phases 3-4: rounds, until the pumped connections' input is
        // used up, the iteration's budget is spent or a SHUTDOWN was
        // seen. Skipped during the drain — frames never admitted are
        // never counted, so the drain invariant (enqueued == replied) is
        // unaffected.
        let mut budget = ITERATION_BUDGET;
        let mut durable_to = NO_LSN;
        round.clear();
        if drain_deadline.is_none() {
            round.extend_from_slice(&pump);
        }
        while !round.is_empty() {
            // Walk each connection's buffered frames in place: reads
            // are answered as they are decoded — consecutive GETs as one
            // run — and each sees the state as of the previous round;
            // mutations are collected for the round's one store pass.
            let mut tally = RoundTally::default();
            again.clear();
            mut_ops.clear();
            mut_slots.clear();
            'conns: for &slot in &round {
                let Some(conn) = conns.get_mut(slot).and_then(|c| c.as_mut()) else {
                    continue;
                };
                if conn.closing || conn.dead {
                    continue;
                }
                // Reads-then-mutations phase rule (module docs).
                let mut saw_mutation = false;
                loop {
                    if budget == 0 {
                        gets.answer(&mut *sess, &mut conn.outbox);
                        break 'conns;
                    }
                    if conn.outbox.pending_bytes() >= OUTBOX_HIGH_WATER {
                        break;
                    }
                    // An error is a bad body behind a valid header, which
                    // keeps the connection, or a bad header, which ends it
                    // (`ProtoError::is_framing`).
                    let req = match conn.fr.peek_frame() {
                        Ok(Some(body)) => Request::decode(body),
                        Ok(None) => break,
                        Err(e) => Err(e),
                    };
                    let is_mutation = matches!(req, Ok(Request::Put { .. } | Request::Del { .. }));
                    if saw_mutation && !is_mutation {
                        // Answered outside the store pass, so it may not
                        // overtake the mutation ahead of it: the frame
                        // stays in the reader for the next round.
                        again.push(slot);
                        break;
                    }
                    saw_mutation = is_mutation;
                    conn.fr.consume_frame();
                    // A GET joins the run; anything else is answered (or
                    // collected) behind the run's replies.
                    if !matches!(req, Ok(Request::Get { .. })) {
                        gets.answer(&mut *sess, &mut conn.outbox);
                    }
                    let resp = match req {
                        Ok(Request::Put { key, value }) => {
                            tally.puts += 1;
                            mut_ops.push(MutOp::Put { key, value });
                            mut_slots.push(slot);
                            None
                        }
                        Ok(Request::Del { key }) => {
                            tally.dels += 1;
                            mut_ops.push(MutOp::Del { key });
                            mut_slots.push(slot);
                            None
                        }
                        Ok(Request::Get { key }) => {
                            tally.gets += 1;
                            gets.keys.push(key);
                            None
                        }
                        Ok(Request::Scan { start, count }) => {
                            tally.scans += 1;
                            scratch.clear();
                            sess.scan(start, count, &mut scratch);
                            Some(Response::Pairs(std::mem::take(&mut scratch)))
                        }
                        Ok(Request::Stats) => Some(Response::Stats(Box::new(shared.snapshot()))),
                        Ok(Request::Shutdown) => {
                            conn.is_shutdown_conn = true;
                            shared.request_shutdown();
                            for waker in &shared.wakers {
                                waker.wake();
                            }
                            // Unblock the acceptor so it observes the flag.
                            if let Ok(addr) = conn.stream.local_addr() {
                                let _ = TcpStream::connect(addr);
                            }
                            break;
                        }
                        Err(e) => {
                            tally.malformed += 1;
                            conn.closing = e.is_framing();
                            Some(Response::BadRequest)
                        }
                    };
                    if let Some(resp) = resp {
                        conn.outbox.encode(&resp);
                        // The pairs buffer is lent to the reply, not given.
                        if let Response::Pairs(pairs) = resp {
                            scratch = pairs;
                        }
                    }
                    tally.ops += 1;
                    budget -= 1;
                    if conn.closing {
                        break;
                    }
                }
                // The walk of this connection ended on a GET.
                gets.answer(&mut *sess, &mut conn.outbox);
            }
            if tally.ops > 0 {
                let c = &shared.counters;
                let enqueued = tally.ops - tally.malformed;
                // `enqueued` before the pass and `replied` after it: a
                // STATS snapshot never shows more replies than requests.
                Counters::add(&c.enqueued, enqueued);
                Counters::add(&c.malformed, tally.malformed);
                Counters::add(&c.gets, tally.gets);
                Counters::add(&c.scans, tally.scans);
                Counters::add(&c.puts, tally.puts);
                Counters::add(&c.dels, tally.dels);

                // Every mutation of the round in one amortized store
                // pass. Durable servers stage the round's write-set in
                // the log inside the pass's commit window (shard locks
                // on native, the sink's order section elsewhere), which
                // fixes its place in the log; the bytes go out below.
                let (outcome, lsn) = match shared.wal.as_deref() {
                    Some(w) => sess.apply_batch_durable(&mut_ops, &mut mut_replies, w),
                    None => (sess.apply_batch(&mut_ops, &mut mut_replies), NO_LSN),
                };
                // Log order is commit order: a later round's records have
                // the higher LSNs.
                durable_to = durable_to.max(lsn);
                // Every one of the round's flips (write sections on the
                // simulated store) happened inside the pass above, so no
                // reply queued here can reach a client before its
                // mutation is published.
                for (&slot, reply) in mut_slots.iter().zip(&mut_replies) {
                    let Some(conn) = conns.get_mut(slot).and_then(|c| c.as_mut()) else {
                        continue;
                    };
                    conn.outbox.encode(&match *reply {
                        MutReply::Put(Ok(_)) | MutReply::Del(true) => Response::Ok,
                        // Capacity exhausted (extra_capacity spent):
                        // shed the write rather than crash the store.
                        MutReply::Put(Err(_)) => Response::ServerFull,
                        MutReply::Del(false) => Response::NotFound,
                    });
                }
                c.reply(enqueued);
                Counters::inc(&c.batches);
                Counters::add(&c.batch_ops, tally.ops);
                Counters::add(&c.barriers, outcome.barriers);
                Counters::add(&c.barriers_shared, outcome.shared);
                let bucket = (tally.ops.ilog2() as usize).min(7);
                Counters::inc(&c.batch_hist[bucket]);
            }
            if budget == 0 || shared.shutting_down() {
                break;
            }
            std::mem::swap(&mut round, &mut again);
        }

        // Durability gate, once per wake-up: no ack leaves before the
        // last record any of its rounds appended — and so all of them —
        // is written to the log, this call being the wake-up's one log
        // write; FsyncPolicy::Batch also blocks here on the group
        // commit covering it.
        if let Some(w) = shared.wal.as_deref() {
            use workloads::backend::DurableSink;
            w.wait_durable(durable_to);
        }

        // Phase 5: flush. One write carries everything the wake-up's
        // rounds queued for a connection; WouldBlock arms EPOLLOUT for
        // resumption.
        retire.clear();
        for &slot in &pump {
            let Some(conn) = conns.get_mut(slot).and_then(|c| c.as_mut()) else {
                continue;
            };
            if !conn.dead && !conn.outbox.is_empty() {
                flush_conn(conn, slot, &poller, shared);
            }
            let more_input = conn.fr.has_complete_frame();
            if conn.dead
                || (conn.closing && conn.outbox.is_empty())
                || (conn.read_closed && !more_input && conn.outbox.is_empty())
            {
                retire.push(slot);
            } else if more_input && !conn.closing && conn.outbox.pending_bytes() < OUTBOX_HIGH_WATER
            {
                // Left behind by the budget or the outbox cap. (Over the
                // cap, the socket's writability brings the slot back.)
                carry.push(slot);
            }
        }
        for &slot in &retire {
            retire_conn(&mut conns, &mut free, &poller, shared, slot);
        }

        // Idle reaping, at most once per tick.
        if last_reap.elapsed() >= tick {
            last_reap = Instant::now();
            for slot in 0..conns.len() {
                let reap = conns[slot].as_ref().is_some_and(|c| {
                    !c.is_shutdown_conn && c.last_activity.elapsed() >= shared.idle_timeout
                });
                if reap {
                    Counters::inc(&shared.counters.timeouts);
                    retire_conn(&mut conns, &mut free, &poller, shared, slot);
                    carry.retain(|&s| s != slot);
                }
            }
        }

        // Drain: after shutdown, keep iterating only to flush pending
        // reply bytes, with a grace bound against stuck clients.
        if shared.shutting_down() {
            let deadline = *drain_deadline.get_or_insert_with(|| Instant::now() + DRAIN_GRACE);
            carry.clear();
            let mut pending = false;
            for (slot, conn) in conns.iter_mut().enumerate() {
                let Some(conn) = conn.as_mut() else {
                    continue;
                };
                if conn.dead || conn.outbox.is_empty() || Instant::now() >= deadline {
                    continue;
                }
                flush_conn(conn, slot, &poller, shared);
                if !conn.outbox.is_empty() && !conn.dead {
                    pending = true;
                }
            }
            if !pending || Instant::now() >= deadline {
                break;
            }
        }
    }

    // Hand the SHUTDOWN connection's stream back for the post-drain ack.
    for conn in conns.into_iter().flatten() {
        if conn.is_shutdown_conn {
            let _ = poller.remove_stream(&conn.stream);
            *shared.shutdown_reply.lock().unwrap() = Some(conn.stream);
        }
    }
    (sess.take_stats(), waits)
}

/// The consecutive GETs gathered from one connection and not answered
/// yet, with the buffer their answers land in. A run ends at the
/// connection's first other frame or at the iteration's budget; the
/// store bounds the read sections it answers the run in (the native
/// store splits it into sections of `workloads::native::GET_RUN`
/// lookups, which is what a writer's barrier may wait behind).
#[derive(Default)]
struct GetRun {
    keys: Vec<u64>,
    vals: Vec<Option<u64>>,
}

impl GetRun {
    /// Answers the run with one `get_many` and queues the replies, in
    /// request order, on the connection the keys came from. The run is
    /// left empty.
    fn answer(&mut self, sess: &mut dyn StoreSession, outbox: &mut Outbox) {
        if self.keys.is_empty() {
            return;
        }
        self.vals.clear();
        sess.get_many(&self.keys, &mut self.vals);
        for val in &self.vals {
            outbox.encode(&match *val {
                Some(v) => Response::Value(v),
                None => Response::NotFound,
            });
        }
        self.keys.clear();
    }
}

/// Registers a newly accepted connection in the slab; returns its slot.
fn admit_conn(
    conns: &mut Vec<Option<Conn>>,
    free: &mut Vec<usize>,
    poller: &Poller,
    nc: NewConn,
) -> Option<usize> {
    let NewConn { stream, guard } = nc;
    if stream.set_nonblocking(true).is_err() {
        return None;
    }
    let _ = stream.set_nodelay(true);
    let slot = free.pop().unwrap_or_else(|| {
        conns.push(None);
        conns.len() - 1
    });
    if poller
        .add(stream.as_raw_fd(), slot as u64, Interest::READ)
        .is_err()
    {
        free.push(slot);
        return None;
    }
    conns[slot] = Some(Conn {
        stream,
        fr: FrameReader::new(),
        outbox: Outbox::new(),
        last_activity: Instant::now(),
        read_closed: false,
        closing: false,
        dead: false,
        armed: Interest::READ,
        is_shutdown_conn: false,
        pump_gen: 0,
        _guard: guard,
    });
    Some(slot)
}

/// Drops a connection and recycles its slot.
fn retire_conn(
    conns: &mut [Option<Conn>],
    free: &mut Vec<usize>,
    poller: &Poller,
    shared: &Shared,
    slot: usize,
) {
    if let Some(conn) = conns[slot].take() {
        if conn.is_shutdown_conn {
            // Never close the ack path; hand the stream back instead.
            let _ = poller.remove_stream(&conn.stream);
            *shared.shutdown_reply.lock().unwrap() = Some(conn.stream);
        } else {
            let _ = poller.remove_stream(&conn.stream);
        }
        free.push(slot);
    }
}

/// Reads up to one chunk into the connection's frame buffer. Reading
/// stops while decodable input is already buffered — that throttles a
/// pipelining blaster to the decode budget (TCP backpressure) instead
/// of growing the buffer — and while the outbox is over its cap, which
/// does the same to a client that does not read its replies.
fn read_socket(conn: &mut Conn, buf: &mut [u8; READ_CHUNK]) {
    if conn.read_closed
        || conn.fr.has_complete_frame()
        || conn.outbox.pending_bytes() >= OUTBOX_HIGH_WATER
    {
        return;
    }
    match conn.stream.read(buf) {
        Ok(0) => conn.read_closed = true,
        Ok(n) => {
            conn.last_activity = Instant::now();
            conn.fr.extend(&buf[..n]);
        }
        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
        Err(_) => conn.dead = true,
    }
}

/// Writes the outbox's pending bytes until empty or WouldBlock, then
/// re-arms the poller for what the connection now waits on.
fn flush_conn(conn: &mut Conn, slot: usize, poller: &Poller, shared: &Shared) {
    while !conn.outbox.is_empty() {
        match conn.stream.write(conn.outbox.pending()) {
            Ok(0) => conn.dead = true,
            Ok(n) => {
                Counters::inc(&shared.counters.writev_calls);
                conn.outbox.advance(n);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => conn.dead = true,
        }
        if conn.dead {
            return;
        }
    }
    // Over the cap the socket's readability is not acted on, so it is
    // not asked for either (level-triggered epoll would report it on
    // every wait).
    let want = Interest {
        read: conn.outbox.pending_bytes() < OUTBOX_HIGH_WATER,
        write: !conn.outbox.is_empty(),
    };
    if want != conn.armed {
        conn.armed = want;
        let _ = poller.modify(conn.stream.as_raw_fd(), slot as u64, want);
    }
}

impl Poller {
    /// Convenience: deregister a stream by descriptor.
    fn remove_stream(&self, stream: &TcpStream) -> io::Result<()> {
        self.remove(stream.as_raw_fd())
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use super::*;

    thread_local! {
        /// Run by [`Shared::snapshot`] on this thread after it loads
        /// `replied` and before it loads `enqueued`.
        static BETWEEN_LOADS: Cell<Option<fn(&Shared)>> = const { Cell::new(None) };
    }

    pub(super) fn between_snapshot_loads(shared: &Shared) {
        if let Some(hook) = BETWEEN_LOADS.get() {
            hook(shared);
        }
    }

    fn test_shared() -> Arc<Shared> {
        Arc::new(Shared {
            counters: Counters::default(),
            shutdown: AtomicBool::new(false),
            active_conns: AtomicUsize::new(0),
            mailboxes: Vec::new(),
            wakers: Vec::new(),
            shutdown_reply: Mutex::new(None),
            scheme_label: "TEST",
            backend_label: "test",
            durability_label: "volatile".to_string(),
            wal: None,
            idle_timeout: Duration::from_secs(1),
        })
    }

    #[test]
    fn conn_slots_back_out_over_limit() {
        let shared = test_shared();
        assert!(shared.conn_enter(2));
        assert!(shared.conn_enter(2));
        // The shed path: a refused enter must back out its own
        // increment, leaving the count at the limit, not above it.
        assert!(!shared.conn_enter(2));
        // xlint: allow(a1) -- single-threaded test assertion on the
        // slot counter, not a protocol publication site.
        assert_eq!(shared.active_conns.load(Ordering::Relaxed), 2);
        shared.conn_exit();
        assert!(shared.conn_enter(2));
    }

    #[test]
    fn conn_guard_releases_on_drop_and_declines_over_limit() {
        let shared = test_shared();
        let a = ConnGuard::enter(&shared, 1).expect("first slot");
        // Shed path through the guard: no slot claimed, nothing leaked.
        assert!(ConnGuard::enter(&shared, 1).is_none());
        // xlint: allow(a1) -- single-threaded test assertion on the
        // slot counter, not a protocol publication site.
        assert_eq!(shared.active_conns.load(Ordering::Relaxed), 1);
        drop(a);
        // xlint: allow(a1) -- as above.
        assert_eq!(shared.active_conns.load(Ordering::Relaxed), 0);
        assert!(ConnGuard::enter(&shared, 1).is_some());
    }

    #[test]
    fn conn_guard_releases_when_its_thread_panics() {
        let shared = test_shared();
        let slot = ConnGuard::enter(&shared, 1).expect("slot");
        let h = std::thread::spawn(move || {
            let _slot = slot;
            panic!("reader died");
        });
        assert!(h.join().is_err());
        // The panic unwound through the guard: the slot is free again
        // (the join above orders the worker's drop before this load).
        // xlint: allow(a1) -- test assertion on the slot counter.
        assert_eq!(shared.active_conns.load(Ordering::Relaxed), 0);
    }

    /// A worker's whole round (count enqueued, then replied) lands
    /// between the snapshot's two loads. Loading `enqueued` first would
    /// miss the request and count its reply.
    #[test]
    fn a_round_between_the_snapshot_loads_never_shows_more_replies_than_enqueued() {
        let shared = test_shared();
        BETWEEN_LOADS.set(Some(|s: &Shared| {
            Counters::add(&s.counters.enqueued, 1);
            s.counters.reply(1);
        }));
        let st = shared.snapshot();
        BETWEEN_LOADS.set(None);
        assert!(
            st.replied <= st.enqueued,
            "snapshot shows {} replies of {} enqueued",
            st.replied,
            st.enqueued
        );
    }

    #[test]
    fn native_backend_binds_only_the_two_stores_it_has() {
        let native = |scheme| {
            Server::bind(ServerConfig {
                backend: BackendKind::Native,
                scheme,
                prefill: 16,
                ..ServerConfig::default()
            })
        };
        for scheme in [SchemeKind::Hle, SchemeKind::RwLePes, SchemeKind::BrLock] {
            let Err(e) = native(scheme) else {
                panic!("native bound {scheme:?}, which it would serve as RW-LE_OPT");
            };
            assert_eq!(e.kind(), io::ErrorKind::InvalidInput);
            assert!(e.to_string().contains(scheme.label()), "{e}");
        }
        for scheme in [SchemeKind::RwLeOpt, SchemeKind::Sgl] {
            assert!(native(scheme).is_ok(), "{scheme:?} must bind");
        }
    }

    /// An empty simulated store of many shards is small, and binds: each
    /// shard's one-bucket array and its lock words take lines of their
    /// own, so an arena sized as `shards × buckets ÷ 8` lines plus a
    /// flat slack runs out while the shards are built.
    #[test]
    fn a_sim_store_of_many_empty_shards_binds() {
        let server = Server::bind(ServerConfig {
            shards: 20_000,
            prefill: 0,
            extra_capacity: 0,
            ..ServerConfig::default()
        });
        if let Err(e) = server {
            panic!("20000 empty shards did not bind: {e}");
        }
    }

    /// The simulated HTM registers at most `htm::MAX_SLOTS` threads, so
    /// a simulated store with more workers is refused at bind. Bound, it
    /// printed `listening` and then lost a worker to the registration
    /// panic, leaving its connections unanswered.
    #[test]
    fn a_sim_store_with_more_workers_than_htm_slots_is_refused() {
        let cfg = |threads| ServerConfig {
            threads,
            shards: 1,
            prefill: 0,
            extra_capacity: 0,
            ..ServerConfig::default()
        };
        let Err(e) = Server::bind(cfg(htm::MAX_SLOTS + 1)) else {
            panic!("bound {} sim workers", htm::MAX_SLOTS + 1);
        };
        assert_eq!(e.kind(), io::ErrorKind::InvalidInput);
        let limit = format!("at most {} threads", htm::MAX_SLOTS);
        assert!(e.to_string().contains(&limit), "{e}");
        if let Err(e) = Server::bind(cfg(htm::MAX_SLOTS)) {
            panic!("{} sim workers did not bind: {e}", htm::MAX_SLOTS);
        }
    }
}
