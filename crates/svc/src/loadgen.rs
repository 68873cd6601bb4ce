//! The load generator behind the `loadgen` binary.
//!
//! Two pacing modes:
//!
//! * **Closed loop** (default): each connection keeps a bounded window
//!   of requests outstanding — `pipeline = 1` is the classic
//!   send-wait-record loop; deeper windows measure pipelined
//!   throughput. Throughput adapts to the server; latency excludes
//!   queueing the client itself causes (at depth 1).
//! * **Shared-pacing open loop** (`total_rate > 0`): ONE sender thread
//!   round-robins a single global arrival schedule across all
//!   connections, injecting at a fixed rate regardless of replies, and
//!   one readiness-driven receiver matches replies, so a single process
//!   can hold thousands of mostly-idle connections open for SLO runs
//!   without thousands of client threads. (`R` ops/s per connection is
//!   `total_rate = R × conns`.)
//!
//! ## Coordinated omission at high connection counts
//!
//! In the open loop latency runs from the *intended* arrival instant
//! of the global schedule, so server-side queueing delay is charged to
//! the request. If the sender falls behind — a backpressured `write`
//! blocking it, or simple CPU starvation at very high `conns` — the
//! delay is charged to every affected request rather than silently
//! stretching the schedule, so percentiles stay honest under overload.
//! The one residual artifact:
//! requests that were never sent by the deadline are dropped from the
//! histogram entirely (they count in neither sent nor latency), so a
//! grossly overloaded run under-reports its own tail; compare `sent`
//! against `total_rate * secs` to detect that.
//!
//! Latency is recorded in nanoseconds per op class (GET / PUT / DEL /
//! SCAN) into [`LatencyHist`]; histograms merge across connections.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use stats::LatencyHist;

use crate::journal::{journal_value, partition_key, JStatus, JournalEntry, JournalOp};
use crate::poll::{Interest, Poller};
use crate::proto::{read_frame, FrameReader, Request, Response, ServerStats};

/// Per-connection seed spreader (same constant as the bench driver).
const SPREAD: u64 = 0x9e37_79b9_7f4a_7c15;

/// Op-class indices into the histogram arrays.
pub const CLASS_GET: usize = 0;
/// See [`CLASS_GET`].
pub const CLASS_PUT: usize = 1;
/// See [`CLASS_GET`].
pub const CLASS_DEL: usize = 2;
/// See [`CLASS_GET`].
pub const CLASS_SCAN: usize = 3;
/// Class labels, indexed by `CLASS_*`.
pub const CLASS_NAMES: [&str; 4] = ["get", "put", "del", "scan"];

/// Load-generator configuration. `Default` matches the README
/// quickstart: 8 closed-loop connections, 10% writes, 2 seconds.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server address, e.g. `127.0.0.1:7878`.
    pub addr: String,
    /// Concurrent connections.
    pub conns: usize,
    /// Percent of (non-scan) ops that are writes, split evenly PUT/DEL.
    pub write_pct: u32,
    /// Percent of ops that are SCANs (carved out before the write roll).
    pub scan_pct: u32,
    /// Range length per SCAN.
    pub scan_count: u32,
    /// Run duration in seconds (wall clock per connection).
    pub secs: f64,
    /// Op cap per connection (0 = until the deadline only).
    pub ops_per_conn: u64,
    /// Keys are drawn from `0..key_range`.
    pub key_range: u64,
    /// Zipf skew exponent (0 = uniform). Hot keys are the low ones.
    pub zipf_theta: f64,
    /// Aggregate open-loop rate in ops/s shared across all connections
    /// by one paced sender (0 = closed loop).
    pub total_rate: u64,
    /// Closed-loop window: requests kept outstanding per connection.
    /// 1 (default) is the classic closed loop; deeper windows pipeline.
    pub pipeline: usize,
    /// Base RNG seed (per-connection streams are decorrelated).
    pub seed: u64,
    /// Send SHUTDOWN after the run and wait for the drain ack.
    pub shutdown: bool,
    /// Record every mutation (with its ack status) into
    /// [`LoadResult::journal`]. Journal runs partition the key space
    /// per connection and write journal-unique PUT values so the
    /// crash-recovery verifier can reason about each key from one
    /// connection's FIFO history alone. Closed loop only.
    pub journal: bool,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            addr: String::from("127.0.0.1:7878"),
            conns: 8,
            write_pct: 10,
            scan_pct: 2,
            scan_count: 64,
            secs: 2.0,
            ops_per_conn: 0,
            key_range: 100_000,
            zipf_theta: 0.0,
            total_rate: 0,
            pipeline: 1,
            seed: 1,
            shutdown: false,
            journal: false,
        }
    }
}

/// Merged outcome of one load run.
#[derive(Debug)]
pub struct LoadResult {
    /// Wall-clock seconds of the load phase.
    pub elapsed: f64,
    /// Requests sent (excluding the control connection).
    pub sent: u64,
    /// Replies received.
    pub received: u64,
    /// Latency per op class, indexed by `CLASS_*`.
    pub hists: [LatencyHist; 4],
    /// All classes merged.
    pub all: LatencyHist,
    /// Unexpected responses or broken connections.
    pub errors: u64,
    /// Busy replies (server shed load).
    pub shed: u64,
    /// NotFound replies (normal for random keys; counted, not errors).
    pub not_found: u64,
    /// Server counters fetched over a fresh connection after the run.
    pub server: Option<ServerStats>,
    /// Every journaled mutation (empty unless
    /// [`LoadgenConfig::journal`] was set).
    pub journal: Vec<JournalEntry>,
}

impl LoadResult {
    /// Completed (replied) operations per second.
    pub fn ops_per_s(&self) -> f64 {
        self.received as f64 / self.elapsed.max(1e-9)
    }
}

/// Key distribution: uniform, or Zipf via a precomputed CDF shared
/// across connections.
pub struct KeyDist {
    range: u64,
    cdf: Option<Arc<Vec<f64>>>,
}

impl KeyDist {
    /// Builds the distribution; `theta <= 0` is uniform. The CDF table
    /// is capped at 2^20 entries (skew beyond that is indistinguishable
    /// at our run lengths), so `range` may exceed the table.
    pub fn new(range: u64, theta: f64) -> KeyDist {
        assert!(range > 0, "key range must be non-empty");
        if theta <= 0.0 {
            return KeyDist { range, cdf: None };
        }
        let n = range.min(1 << 20) as usize;
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(theta);
            cdf.push(acc);
        }
        for c in cdf.iter_mut() {
            *c /= acc;
        }
        KeyDist {
            range,
            cdf: Some(Arc::new(cdf)),
        }
    }

    /// Draws one key.
    pub fn sample(&self, rng: &mut SmallRng) -> u64 {
        match &self.cdf {
            None => rng.gen_range(0..self.range),
            Some(cdf) => {
                // 53 uniform bits → [0, 1).
                let u = rng.gen_range(0..(1u64 << 53)) as f64 / (1u64 << 53) as f64;
                cdf.partition_point(|&c| c < u) as u64
            }
        }
    }
}

impl Clone for KeyDist {
    fn clone(&self) -> Self {
        KeyDist {
            range: self.range,
            cdf: self.cdf.clone(),
        }
    }
}

/// Draws the next request and its class index.
fn gen_op(rng: &mut SmallRng, dist: &KeyDist, cfg: &LoadgenConfig) -> (Request, usize) {
    let roll: u32 = rng.gen_range(0..100);
    if roll < cfg.scan_pct {
        return (
            Request::Scan {
                start: dist.sample(rng),
                count: cfg.scan_count,
            },
            CLASS_SCAN,
        );
    }
    if roll < cfg.scan_pct + cfg.write_pct {
        let key = dist.sample(rng);
        return if rng.gen_bool(0.5) {
            (
                Request::Put {
                    key,
                    value: key.wrapping_add(1),
                },
                CLASS_PUT,
            )
        } else {
            (Request::Del { key }, CLASS_DEL)
        };
    }
    (
        Request::Get {
            key: dist.sample(rng),
        },
        CLASS_GET,
    )
}

/// Per-connection tallies, merged by [`run`].
struct ConnResult {
    sent: u64,
    received: u64,
    hists: [LatencyHist; 4],
    errors: u64,
    shed: u64,
    not_found: u64,
    journal: Vec<JournalEntry>,
}

impl ConnResult {
    fn new() -> ConnResult {
        ConnResult {
            sent: 0,
            received: 0,
            hists: [
                LatencyHist::new(),
                LatencyHist::new(),
                LatencyHist::new(),
                LatencyHist::new(),
            ],
            errors: 0,
            shed: 0,
            not_found: 0,
            journal: Vec::new(),
        }
    }

    /// Classifies one reply, recording latency for answered ops and the
    /// ack status for journaled mutations. NotFound counts as acked —
    /// a DEL of an absent key executed; it just had nothing to remove.
    fn account(&mut self, body: &[u8], class: usize, nanos: u64, jidx: Option<usize>) {
        self.received += 1;
        let status = match Response::decode(body) {
            Ok(Response::Ok | Response::Value(_) | Response::Pairs(_)) => {
                self.hists[class].record(nanos);
                JStatus::Acked
            }
            Ok(Response::NotFound) => {
                self.not_found += 1;
                self.hists[class].record(nanos);
                JStatus::Acked
            }
            Ok(Response::Busy | Response::ServerFull) => {
                self.shed += 1;
                JStatus::Failed
            }
            Ok(_) | Err(_) => {
                self.errors += 1;
                JStatus::Failed
            }
        };
        if let Some(i) = jidx {
            self.journal[i].status = status;
        }
    }
}

/// One closed-loop connection: a window of `cfg.pipeline` requests kept
/// outstanding, replies drained through a buffered frame reader (at
/// depth 1 this is the classic one-outstanding loop, minus the separate
/// header-read syscall).
///
/// Mid-run failures (the crash-recovery harness SIGKILLs the server
/// under this loop) are tallied into `errors` rather than returned, so
/// the journal and partial counts survive: sent-but-unanswered
/// mutations keep their `Sent` status, which is exactly what the
/// verifier needs.
fn closed_loop(cfg: &LoadgenConfig, dist: &KeyDist, conn_id: usize) -> ConnResult {
    let mut res = ConnResult::new();
    let mut stream = match TcpStream::connect(&cfg.addr).and_then(|s| {
        s.set_nodelay(true)?;
        Ok(s)
    }) {
        Ok(s) => s,
        Err(_) => {
            res.errors += 1;
            return res;
        }
    };
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ (conn_id as u64 + 1).wrapping_mul(SPREAD));
    let depth = cfg.pipeline.max(1);
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.secs);
    let mut fr = FrameReader::new();
    // Intended instant, op class, and (journal runs) the index of the
    // mutation's journal entry awaiting its ack status.
    let mut pending: VecDeque<(Instant, usize, Option<usize>)> = VecDeque::new();
    let mut wbuf: Vec<u8> = Vec::new();
    let mut rbuf = [0u8; 16 * 1024];
    loop {
        let stop_sending =
            Instant::now() >= deadline || (cfg.ops_per_conn > 0 && res.sent >= cfg.ops_per_conn);
        if stop_sending && pending.is_empty() {
            break;
        }
        if !stop_sending && pending.len() < depth {
            // Top the window up with one gathered write.
            wbuf.clear();
            while pending.len() < depth {
                let (req, class) = gen_op(&mut rng, dist, cfg);
                let (req, jidx) = if cfg.journal {
                    journalize(req, conn_id as u64, cfg.conns as u64, &mut res.journal)
                } else {
                    (req, None)
                };
                pending.push_back((Instant::now(), class, jidx));
                req.encode_frame(&mut wbuf);
                res.sent += 1;
                if cfg.ops_per_conn > 0 && res.sent >= cfg.ops_per_conn {
                    break;
                }
            }
            if stream.write_all(&wbuf).is_err() {
                res.errors += 1;
                break;
            }
        }
        // Drain at least one reply (blocking read, then whatever else
        // arrived with it). A dead server (EOF, reset) ends the run
        // with the outstanding window left as journal `Sent` entries.
        let n = match stream.read(&mut rbuf) {
            Ok(0) | Err(_) => {
                res.errors += 1;
                break;
            }
            Ok(n) => n,
        };
        fr.extend(&rbuf[..n]);
        loop {
            let body = match fr.next_frame() {
                Ok(Some(body)) => body,
                Ok(None) => break,
                Err(_) => {
                    res.errors += 1;
                    return res;
                }
            };
            let Some((t0, class, jidx)) = pending.pop_front() else {
                res.errors += 1;
                return res;
            };
            res.account(&body, class, t0.elapsed().as_nanos() as u64, jidx);
        }
    }
    res
}

/// Rewrites a generated request for a journal run — mutations move onto
/// this connection's key partition and PUTs get journal-unique values —
/// and records the mutation as `Sent`. Reads are repartitioned too so
/// the offered mix still touches the keys being mutated.
fn journalize(
    req: Request,
    conn: u64,
    conns: u64,
    journal: &mut Vec<JournalEntry>,
) -> (Request, Option<usize>) {
    let seq = journal.len() as u64;
    match req {
        Request::Put { key, .. } => {
            let key = partition_key(key, conn, conns);
            let value = journal_value(conn, seq);
            journal.push(JournalEntry {
                conn,
                seq,
                op: JournalOp::Put { key, value },
                status: JStatus::Sent,
            });
            (Request::Put { key, value }, Some(journal.len() - 1))
        }
        Request::Del { key } => {
            let key = partition_key(key, conn, conns);
            journal.push(JournalEntry {
                conn,
                seq,
                op: JournalOp::Del { key },
                status: JStatus::Sent,
            });
            (Request::Del { key }, Some(journal.len() - 1))
        }
        Request::Get { key } => (
            Request::Get {
                key: partition_key(key, conn, conns),
            },
            None,
        ),
        other => (other, None),
    }
}

/// Where the k-th open-loop send belongs relative to the start of the
/// run: `k / rate` seconds, computed in one shot so fractional-period
/// rates do not accumulate truncation error send over send.
fn intended_send_offset(k: u64, rate: u64) -> Duration {
    Duration::from_nanos((k as u128 * 1_000_000_000 / rate.max(1) as u128) as u64)
}

/// How long the shared-pacing receiver keeps draining replies after the
/// sender finishes; whatever is still unanswered then counts as errors.
const SHARED_DRAIN_GRACE: Duration = Duration::from_secs(3);

/// Shared-pacing open loop (`total_rate > 0`): one paced sender
/// round-robins the global schedule across every connection, one
/// readiness-driven receiver matches replies per connection in FIFO
/// order. Two threads total, any number of connections — this is the
/// mode that holds thousands of mostly-idle connections for SLO runs.
/// See the module docs for the coordinated-omission discussion.
fn shared_open_loop(cfg: &LoadgenConfig, dist: &KeyDist) -> Vec<io::Result<ConnResult>> {
    let n = cfg.conns;
    let mut streams = Vec::with_capacity(n);
    for _ in 0..n {
        match TcpStream::connect(&cfg.addr).and_then(|s| {
            s.set_nodelay(true)?;
            Ok(s)
        }) {
            Ok(s) => streams.push(s),
            Err(e) => {
                // Connection setup failed (fd limit, conn shed, ...):
                // report one error per unopened connection.
                let mut out: Vec<io::Result<ConnResult>> = streams
                    .into_iter()
                    .map(|_| Err(io::Error::from(e.kind())))
                    .collect();
                out.push(Err(e));
                return out;
            }
        }
    }
    let readers: Vec<TcpStream> = match streams.iter().map(|s| s.try_clone()).collect() {
        Ok(r) => r,
        Err(e) => return vec![Err(e)],
    };
    let queues: Vec<Mutex<VecDeque<(Instant, usize)>>> =
        (0..n).map(|_| Mutex::new(VecDeque::new())).collect();
    let done = AtomicBool::new(false);
    let mut sent = vec![0u64; n];
    let mut send_errors = vec![0u64; n];

    let mut received = Vec::new();
    std::thread::scope(|s| {
        let recv = s.spawn(|| shared_receiver(readers, &queues, &done));

        // The sender runs inline. The schedule is absolute: send k
        // belongs at start + k/rate, and a late sender catches up with
        // a burst rather than stretching the schedule.
        let mut rng = SmallRng::seed_from_u64(cfg.seed ^ SPREAD);
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(cfg.secs);
        let cap = cfg.ops_per_conn.saturating_mul(n as u64);
        let mut wbuf = Vec::with_capacity(32);
        let mut alive = vec![true; n];
        let mut alive_left = n;
        let mut k = 0u64;
        loop {
            if cap > 0 && k >= cap {
                break;
            }
            let next = start + intended_send_offset(k, cfg.total_rate);
            if next >= deadline || alive_left == 0 {
                break;
            }
            let now = Instant::now();
            if now < next {
                // xlint: allow(a5) -- open-loop pacing sleeps real
                // wall-clock time between injections on live sockets;
                // this is client think time, not a simulated-HTM wait.
                std::thread::sleep(next - now);
            }
            let conn = (k % n as u64) as usize;
            k += 1;
            if !alive[conn] {
                continue;
            }
            let (req, class) = gen_op(&mut rng, dist, cfg);
            wbuf.clear();
            req.encode_frame(&mut wbuf);
            // Enqueue the intended instant first; the reply cannot beat
            // the write that hasn't happened yet.
            queues[conn].lock().unwrap().push_back((next, class));
            if (&streams[conn]).write_all(&wbuf).is_err() {
                queues[conn].lock().unwrap().pop_back();
                send_errors[conn] += 1;
                alive[conn] = false;
                alive_left -= 1;
                continue;
            }
            sent[conn] += 1;
        }
        done.store(true, Ordering::Release);
        received = recv.join().expect("shared receiver panicked");
    });

    received
        .into_iter()
        .zip(sent)
        .zip(send_errors)
        .map(|((mut res, sent), errs)| {
            res.sent = sent;
            res.errors += errs;
            Ok(res)
        })
        .collect()
}

/// The shared-pacing receiver: readiness loop over every connection,
/// accounting replies against each connection's FIFO of intended send
/// instants. Returns one [`ConnResult`] per connection (sent counts are
/// filled in by the sender afterwards).
fn shared_receiver(
    streams: Vec<TcpStream>,
    queues: &[Mutex<VecDeque<(Instant, usize)>>],
    done: &AtomicBool,
) -> Vec<ConnResult> {
    let n = streams.len();
    let mut per: Vec<ConnResult> = (0..n).map(|_| ConnResult::new()).collect();
    let mut frs: Vec<FrameReader> = (0..n).map(|_| FrameReader::new()).collect();
    let mut alive = vec![true; n];
    let mut poller = match Poller::new() {
        Ok(p) => p,
        Err(_) => {
            for r in per.iter_mut() {
                r.errors += 1;
            }
            return per;
        }
    };
    for (i, s) in streams.iter().enumerate() {
        let registered = s
            .set_nonblocking(true)
            .and_then(|()| poller.add(s.as_raw_fd(), i as u64, Interest::READ));
        if registered.is_err() {
            alive[i] = false;
            per[i].errors += 1;
        }
    }
    let mut events = Vec::new();
    let mut buf = [0u8; 16 * 1024];
    let mut drain_deadline: Option<Instant> = None;
    loop {
        events.clear();
        if poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .is_err()
        {
            break;
        }
        for ev in &events {
            let i = ev.token as usize;
            if i >= n || !alive[i] {
                continue;
            }
            loop {
                match (&streams[i]).read(&mut buf) {
                    Ok(0) => {
                        alive[i] = false;
                        break;
                    }
                    Ok(got) => {
                        frs[i].extend(&buf[..got]);
                        let mut ok = true;
                        loop {
                            match frs[i].next_frame() {
                                Ok(Some(body)) => {
                                    if let Some((t, class)) = queues[i].lock().unwrap().pop_front()
                                    {
                                        per[i].account(
                                            &body,
                                            class,
                                            t.elapsed().as_nanos() as u64,
                                            None,
                                        );
                                    } else {
                                        per[i].errors += 1;
                                    }
                                }
                                Ok(None) => break,
                                Err(_) => {
                                    per[i].errors += 1;
                                    alive[i] = false;
                                    ok = false;
                                    break;
                                }
                            }
                        }
                        if !ok {
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        alive[i] = false;
                        break;
                    }
                }
            }
        }
        if done.load(Ordering::Acquire) {
            let deadline =
                *drain_deadline.get_or_insert_with(|| Instant::now() + SHARED_DRAIN_GRACE);
            let outstanding = queues
                .iter()
                .zip(&alive)
                .any(|(q, &a)| a && !q.lock().unwrap().is_empty());
            if !outstanding || Instant::now() >= deadline {
                break;
            }
        }
    }
    // Whatever never got an answer is an error, not a latency sample.
    for (i, q) in queues.iter().enumerate() {
        per[i].errors += q.lock().unwrap().len() as u64;
    }
    per
}

/// Fetches server counters over a fresh connection.
fn fetch_stats(addr: &str) -> io::Result<ServerStats> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.write_all(&Request::Stats.to_frame())?;
    let body = read_frame(&mut stream)?;
    match Response::decode(&body) {
        Ok(Response::Stats(s)) => Ok(*s),
        other => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unexpected STATS reply: {other:?}"),
        )),
    }
}

/// Sends SHUTDOWN and waits for the drain ack.
fn send_shutdown(addr: &str) -> io::Result<()> {
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(&Request::Shutdown.to_frame())?;
    let body = read_frame(&mut stream)?;
    match Response::decode(&body) {
        Ok(Response::Ok) => Ok(()),
        other => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unexpected SHUTDOWN reply: {other:?}"),
        )),
    }
}

/// Runs the configured load and returns merged results. Fails fast if
/// the server is unreachable; per-connection mid-run failures are
/// tallied as errors instead.
pub fn run(cfg: &LoadgenConfig) -> io::Result<LoadResult> {
    assert!(cfg.conns > 0, "need at least one connection");
    // The journal's soundness argument leans on the closed loop's
    // strict per-connection FIFO; the open loop drops replies on the
    // floor after its drain grace, which would fake lost acks.
    assert!(
        !cfg.journal || cfg.total_rate == 0,
        "journaling requires the closed loop"
    );
    // Probe before spawning so "server not running" is one clean error.
    drop(TcpStream::connect(&cfg.addr)?);
    let dist = KeyDist::new(cfg.key_range, cfg.zipf_theta);
    let t0 = Instant::now();
    let mut conn_results: Vec<io::Result<ConnResult>> = Vec::with_capacity(cfg.conns);
    if cfg.total_rate > 0 {
        conn_results = shared_open_loop(cfg, &dist);
    } else {
        std::thread::scope(|s| {
            let mut handles = Vec::with_capacity(cfg.conns);
            for conn_id in 0..cfg.conns {
                let dist = dist.clone();
                handles.push(s.spawn(move || Ok(closed_loop(cfg, &dist, conn_id))));
            }
            for h in handles {
                conn_results.push(h.join().expect("connection thread panicked"));
            }
        });
    }
    let elapsed = t0.elapsed().as_secs_f64();

    let mut out = LoadResult {
        elapsed,
        sent: 0,
        received: 0,
        hists: [
            LatencyHist::new(),
            LatencyHist::new(),
            LatencyHist::new(),
            LatencyHist::new(),
        ],
        all: LatencyHist::new(),
        errors: 0,
        shed: 0,
        not_found: 0,
        server: None,
        journal: Vec::new(),
    };
    for r in conn_results {
        match r {
            Ok(c) => {
                out.sent += c.sent;
                out.received += c.received;
                out.errors += c.errors;
                out.shed += c.shed;
                out.not_found += c.not_found;
                out.journal.extend(c.journal);
                for (merged, h) in out.hists.iter_mut().zip(c.hists.iter()) {
                    merged.merge(h);
                }
            }
            Err(_) => out.errors += 1,
        }
    }
    for h in &out.hists {
        out.all.merge(h);
    }
    out.server = fetch_stats(&cfg.addr).ok();
    if cfg.shutdown {
        send_shutdown(&cfg.addr)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_offsets_do_not_drift() {
        // Rates with a fractional nanosecond period are the ones the old
        // accumulated-interval pacing under-sent: 1e9/3000 truncates to
        // 333_333ns, and the lost thirds of a nanosecond compound. The
        // absolute schedule must land within 1% of rate * secs sends in
        // any window, fractional period or not.
        for rate in [3_000u64, 7_919, 1_000_003] {
            let window = Duration::from_secs(2);
            let expected = rate * 2;
            let mut sends = 0u64;
            while intended_send_offset(sends, rate) < window {
                sends += 1;
            }
            let lo = expected - expected / 100;
            let hi = expected + expected / 100;
            assert!(
                (lo..=hi).contains(&sends),
                "rate {rate}: {sends} sends in 2s, expected ~{expected}"
            );
        }
    }

    #[test]
    fn uniform_dist_covers_range() {
        let dist = KeyDist::new(10, 0.0);
        let mut rng = SmallRng::seed_from_u64(7);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            seen[dist.sample(&mut rng) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn zipf_dist_skews_low() {
        let dist = KeyDist::new(1000, 0.99);
        let mut rng = SmallRng::seed_from_u64(7);
        let mut low = 0u32;
        for _ in 0..10_000 {
            if dist.sample(&mut rng) < 100 {
                low += 1;
            }
        }
        // Under uniform, ~10% of draws land below 100; Zipf(0.99) puts
        // well over half there.
        assert!(low > 5000, "zipf skew too weak: {low}/10000 low keys");
    }

    #[test]
    fn op_mix_matches_percentages() {
        let cfg = LoadgenConfig {
            write_pct: 30,
            scan_pct: 10,
            ..LoadgenConfig::default()
        };
        let dist = KeyDist::new(100, 0.0);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut counts = [0u32; 4];
        for _ in 0..20_000 {
            let (_, class) = gen_op(&mut rng, &dist, &cfg);
            counts[class] += 1;
        }
        let frac = |c: u32| c as f64 / 20_000.0;
        assert!((frac(counts[CLASS_SCAN]) - 0.10).abs() < 0.02);
        assert!((frac(counts[CLASS_PUT] + counts[CLASS_DEL]) - 0.30).abs() < 0.02);
        assert!((frac(counts[CLASS_GET]) - 0.60).abs() < 0.02);
    }
}
