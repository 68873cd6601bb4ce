//! The load generator: pipelined closed loop and paced open loop over
//! loopback, per-window latency samples, and reply verification against
//! a client-side shadow of each connection's own key partition.
//!
//! It is the measuring instrument, so it lives with the benchmark and
//! touches the repository only through the wire protocol (`svc::proto`)
//! and the ack-journal format (`svc::journal`).

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use svc::journal::{JStatus, JournalEntry, JournalOp};
use svc::proto::{FrameReader, Request, Response};

use crate::calib::{self, PathProbe, Speeds};
use crate::gen::{class_of, key_dist, paced_offset_ns, Class, Gen, Workload, Zipf, PIPELINE};
use crate::mathx::{median, quantile, OverWindows, Window};
use crate::proc::CpuTimes;

/// A reply that does not arrive within this long counts as unanswered.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// Keys each connection re-reads from its own partition after the last
/// window.
const VERIFY_SAMPLE: usize = 10_000;

/// One load run against a listening server.
pub struct Plan<'a> {
    /// Workload whose traffic is generated.
    pub w: &'a Workload,
    /// Server address.
    pub addr: &'a str,
    /// Server process, whose CPU clocks are read at both edges of the
    /// measured windows.
    pub server_pid: u32,
    /// Generator seed.
    pub seed: u64,
    /// Connections (`min(nproc, 4)`).
    pub conns: usize,
    /// The run's timeline.
    pub cycles: Cycles,
    /// Crash-drill mode: journal every mutation and treat a dying
    /// server as the expected end of the run, not as failures.
    pub journal: bool,
}

/// The timeline of a run: cycles of `active` load, each followed by a
/// `gap` in which the connections drain, the server idles and the host's
/// speed is calibrated on every CPU (see [`crate::calib`]). The first
/// `warm` cycles are the warm-up; the `windows` after them are measured,
/// window `i` bracketed by calibrations `i` and `i + 1`.
#[derive(Debug, Clone, Copy)]
pub struct Cycles {
    /// Load phase of a cycle.
    pub active: Duration,
    /// Drain-and-calibrate phase of a cycle (zero: no calibration).
    pub gap: Duration,
    /// Unmeasured leading cycles (at least 1 when `gap` is not zero).
    pub warm: usize,
    /// Measured cycles.
    pub windows: usize,
}

/// Where an instant falls on the timeline.
enum Phase {
    /// Load is offered.
    Active,
    /// No new requests until the instant given.
    Gap(Instant),
    /// The last measured cycle has ended.
    Done,
}

/// [`Cycles`] anchored at the run's start.
#[derive(Clone, Copy)]
struct Timeline {
    t0: Instant,
    active_ns: u64,
    cycle_ns: u64,
    warm: u64,
    cycles: u64,
}

impl Timeline {
    fn new(c: &Cycles, t0: Instant) -> Timeline {
        let active_ns = (c.active.as_nanos() as u64).max(1);
        Timeline {
            t0,
            active_ns,
            cycle_ns: active_ns + c.gap.as_nanos() as u64,
            warm: c.warm as u64,
            cycles: (c.warm + c.windows) as u64,
        }
    }

    fn at(&self, ns: u64) -> Instant {
        self.t0 + Duration::from_nanos(ns)
    }

    fn phase(&self, now: Instant) -> Phase {
        let ns = (now - self.t0).as_nanos() as u64;
        let cycle = ns / self.cycle_ns;
        if cycle >= self.cycles {
            Phase::Done
        } else if ns % self.cycle_ns < self.active_ns {
            Phase::Active
        } else {
            Phase::Gap(self.at((cycle + 1) * self.cycle_ns))
        }
    }

    /// The measured window a reply read at `at` counts for — the cycle it
    /// falls in (a reply drained in a gap still belongs to its cycle) —
    /// and the throughput bin within it (past the last one in a gap).
    fn window_of(&self, at: Instant) -> Option<(usize, usize)> {
        let ns = at.checked_duration_since(self.t0)?.as_nanos() as u64;
        let cycle = ns / self.cycle_ns;
        (self.warm..self.cycles).contains(&cycle).then(|| {
            (
                (cycle - self.warm) as usize,
                (ns % self.cycle_ns / BIN.as_nanos() as u64) as usize,
            )
        })
    }

    /// Whole throughput bins in a cycle's active phase.
    fn bins(&self) -> usize {
        (self.active_ns / BIN.as_nanos() as u64) as usize
    }

    /// Start of the first measured cycle.
    fn measure_start(&self) -> Instant {
        self.at(self.warm * self.cycle_ns)
    }

    /// End of the last measured cycle.
    fn end(&self) -> Instant {
        self.at(self.cycles * self.cycle_ns)
    }

    /// The gap calibration `k` runs in: the one that closes cycle
    /// `warm - 1 + k`.
    fn calibration_gap(&self, k: usize) -> (Instant, Instant) {
        let cycle = self.warm - 1 + k as u64;
        (
            self.at(cycle * self.cycle_ns + self.active_ns),
            self.at((cycle + 1) * self.cycle_ns),
        )
    }

    /// Wall time of an open-loop request due `active_ns` into the
    /// offered load: the gaps are not part of the schedule.
    fn wall_of_active(&self, active_ns: u64) -> Instant {
        self.at(active_ns / self.active_ns * self.cycle_ns + active_ns % self.active_ns)
    }
}

/// Operations that did not complete correctly, by cause.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Failures {
    /// Connect, read, write or framing errors.
    pub transport: u64,
    /// `Busy` or `ServerFull` replies.
    pub refused: u64,
    /// Requests still unanswered when the drain gave up.
    pub unanswered: u64,
    /// Replies of the wrong class, malformed SCANs, or values that
    /// contradict the shadow map.
    pub mismatch: u64,
}

impl Failures {
    /// All failed operations.
    pub fn total(&self) -> u64 {
        self.transport + self.refused + self.unanswered + self.mismatch
    }

    fn add(&mut self, other: &Failures) {
        self.transport += other.transport;
        self.refused += other.refused;
        self.unanswered += other.unanswered;
        self.mismatch += other.mismatch;
    }
}

/// State of a connection's own key partition after its acked mutations.
/// Exact because the partition has a single writer and the server
/// answers one connection in request order.
pub struct Shadow {
    conn: u64,
    conns: u64,
    prefill: u64,
    /// Indexed by `key / conns`.
    state: Vec<u64>,
}

const UNTOUCHED: u64 = u64::MAX;
const DELETED: u64 = u64::MAX - 1;

impl Shadow {
    fn new(conn: u64, conns: u64, prefill: u64) -> Shadow {
        Shadow {
            conn,
            conns,
            prefill,
            state: vec![UNTOUCHED; (prefill / conns + 2) as usize],
        }
    }

    fn owns(&self, key: u64) -> bool {
        key % self.conns == self.conn
    }

    /// What an owned key must read as now.
    fn expected(&self, key: u64) -> Option<u64> {
        match self.state.get((key / self.conns) as usize) {
            Some(&UNTOUCHED) | None => (key < self.prefill).then_some(key),
            Some(&DELETED) => None,
            Some(&v) => Some(v),
        }
    }

    fn set(&mut self, key: u64, state: u64) {
        if let Some(slot) = self.state.get_mut((key / self.conns) as usize) {
            *slot = state;
        }
    }
}

/// Why a reply was not accepted.
enum Bad {
    Refused,
    Mismatch,
}

/// Checks one reply against its request and the shadow, then applies an
/// acked mutation to the shadow.
fn check_reply(req: &Request, resp: &Response, shadow: &mut Shadow) -> Result<(), Bad> {
    if matches!(resp, Response::Busy | Response::ServerFull) {
        return Err(Bad::Refused);
    }
    match (req.clone(), resp) {
        (Request::Get { key }, Response::Value(_) | Response::NotFound) => {
            let got = match resp {
                Response::Value(v) => Some(*v),
                _ => None,
            };
            if shadow.owns(key) && got != shadow.expected(key) {
                return Err(Bad::Mismatch);
            }
            Ok(())
        }
        (Request::Put { key, value }, Response::Ok) => {
            shadow.set(key, value);
            Ok(())
        }
        (Request::Del { key }, Response::Ok | Response::NotFound) => {
            let was_present = shadow.expected(key).is_some();
            shadow.set(key, DELETED);
            if was_present == matches!(resp, Response::Ok) {
                Ok(())
            } else {
                Err(Bad::Mismatch)
            }
        }
        (Request::Scan { start, count }, Response::Pairs(pairs)) => {
            let end = start.saturating_add(count as u64);
            let sorted = pairs.windows(2).all(|p| p[0].0 < p[1].0);
            let in_range = pairs.iter().all(|&(k, _)| (start..end).contains(&k));
            if pairs.len() > count as usize || !sorted || !in_range {
                return Err(Bad::Mismatch);
            }
            for key in (start..end).filter(|&k| shadow.owns(k)) {
                let got = pairs
                    .binary_search_by_key(&key, |&(k, _)| k)
                    .ok()
                    .map(|i| pairs[i].1);
                if got != shadow.expected(key) {
                    return Err(Bad::Mismatch);
                }
            }
            Ok(())
        }
        _ => Err(Bad::Mismatch),
    }
}

/// Latencies of one window, in nanoseconds, by request class, and the
/// replies counted per [`BIN`] of its active phase.
#[derive(Default)]
struct WindowSamples {
    get: Vec<u32>,
    scan: Vec<u32>,
    mutation: Vec<u32>,
    bins: Vec<u32>,
    /// When the window's first and last replies were read, in ns after
    /// the run's start.
    span_ns: Option<(u64, u64)>,
}

/// Throughput is read off bins this long: a window's rate is the median
/// of its bins' rates, which a stall of the host (it empties a bin or
/// two) moves as little as it moves the median latency. The mean over
/// the window would charge every stall in full.
const BIN: Duration = Duration::from_millis(10);

/// What one connection saw.
struct ConnOutcome {
    windows: Vec<WindowSamples>,
    sent: u64,
    failures: Failures,
    shadow: Shadow,
    journal: Vec<JournalEntry>,
    /// The first few rejected replies, for the report.
    examples: Vec<String>,
}

/// A request awaiting its reply.
struct Pending {
    /// When latency starts: the write (closed loop) or the intended send
    /// time (open loop).
    at: Instant,
    req: Request,
    /// Index of the mutation's journal entry, `u32::MAX` when none.
    jidx: u32,
}

/// The receiving half of a connection: matches replies to requests in
/// order, checks them, and files latencies under their window.
struct Receiver {
    out: ConnOutcome,
    timeline: Timeline,
}

impl Receiver {
    fn new(plan: &Plan, conn: usize, timeline: Timeline) -> Receiver {
        Receiver {
            out: ConnOutcome {
                windows: (0..plan.cycles.windows)
                    .map(|_| WindowSamples {
                        bins: vec![0; timeline.bins()],
                        ..WindowSamples::default()
                    })
                    .collect(),
                sent: 0,
                failures: Failures::default(),
                shadow: Shadow::new(conn as u64, plan.conns as u64, plan.w.prefill),
                journal: Vec::new(),
                examples: Vec::new(),
            },
            timeline,
        }
    }

    /// Accounts one reply frame that was read at `read_at`.
    fn account(&mut self, body: &[u8], p: &Pending, read_at: Instant) {
        let decoded = Response::decode(body);
        let verdict = match &decoded {
            Ok(resp) => check_reply(&p.req, resp, &mut self.out.shadow),
            Err(_) => Err(Bad::Mismatch),
        };
        if verdict.is_err() && self.out.examples.len() < 3 {
            self.out
                .examples
                .push(format!("{:?} answered {decoded:?}", p.req));
        }
        let status = match verdict {
            Ok(()) => JStatus::Acked,
            Err(Bad::Refused) => {
                self.out.failures.refused += 1;
                JStatus::Failed
            }
            Err(Bad::Mismatch) => {
                self.out.failures.mismatch += 1;
                JStatus::Failed
            }
        };
        if let Some(e) = self.out.journal.get_mut(p.jidx as usize) {
            e.status = status;
        }
        if verdict.is_err() {
            return;
        }
        if let Some((w, bin)) = self
            .timeline
            .window_of(read_at)
            .and_then(|(i, bin)| Some((self.out.windows.get_mut(i)?, bin)))
        {
            if let Some(count) = w.bins.get_mut(bin) {
                *count += 1;
            }
            let at_ns = (read_at - self.timeline.t0).as_nanos() as u64;
            w.span_ns = Some(match w.span_ns {
                Some((first, _)) => (first, at_ns),
                None => (at_ns, at_ns),
            });
            let nanos = u32::try_from((read_at - p.at).as_nanos()).unwrap_or(u32::MAX);
            match class_of(&p.req) {
                Class::Get => w.get.push(nanos),
                Class::Scan => w.scan.push(nanos),
                Class::Mutation => w.mutation.push(nanos),
            }
        }
    }

    /// Records a mutation as sent and returns its journal index.
    fn journal(&mut self, conn: usize, req: &Request) -> u32 {
        let op = match *req {
            Request::Put { key, value } => JournalOp::Put { key, value },
            Request::Del { key } => JournalOp::Del { key },
            _ => return u32::MAX,
        };
        self.out.journal.push(JournalEntry {
            conn: conn as u64,
            seq: self.out.journal.len() as u64,
            op,
            status: JStatus::Sent,
        });
        (self.out.journal.len() - 1) as u32
    }
}

fn connect(addr: &str) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
    Ok(stream)
}

fn sleep_until(at: Instant) {
    if let Some(wait) = at.checked_duration_since(Instant::now()) {
        std::thread::sleep(wait);
    }
}

/// One closed-loop connection: `PIPELINE` requests kept outstanding
/// while the timeline is active, topped up with one gathered write per
/// round of replies; in a gap the window drains and the thread sleeps.
fn closed_loop(
    plan: &Plan,
    conn: usize,
    mut stream: TcpStream,
    zipf: Option<Arc<Zipf>>,
    timeline: Timeline,
) -> ConnOutcome {
    let mut rx = Receiver::new(plan, conn, timeline);
    let mut gen = Gen::new(plan.w, zipf, plan.seed, conn as u64, plan.conns as u64);
    let mut pending: VecDeque<Pending> = VecDeque::with_capacity(PIPELINE);
    let mut fr = FrameReader::new();
    let mut wbuf: Vec<u8> = Vec::new();
    let mut rbuf = vec![0u8; 64 * 1024];
    // A transport error ends the run: what is outstanding stays `Sent`
    // in the journal, which is what the crash drill's verifier needs.
    let mut lost = false;
    'run: loop {
        let now = Instant::now();
        match timeline.phase(now) {
            Phase::Active if pending.len() < PIPELINE => {
                wbuf.clear();
                while pending.len() < PIPELINE {
                    let req = gen.next_request();
                    req.encode_frame(&mut wbuf);
                    let jidx = if plan.journal {
                        rx.journal(conn, &req)
                    } else {
                        u32::MAX
                    };
                    pending.push_back(Pending { at: now, req, jidx });
                    rx.out.sent += 1;
                }
                if stream.write_all(&wbuf).is_err() {
                    lost = true;
                    break;
                }
            }
            Phase::Active => {}
            Phase::Gap(resume) if pending.is_empty() => {
                sleep_until(resume);
                continue;
            }
            Phase::Done if pending.is_empty() => break,
            Phase::Gap(_) | Phase::Done => {}
        }
        let n = match stream.read(&mut rbuf) {
            Ok(0) | Err(_) => {
                lost = true;
                break;
            }
            Ok(n) => n,
        };
        let read_at = Instant::now();
        fr.extend(&rbuf[..n]);
        loop {
            match fr.next_frame() {
                Ok(Some(body)) => match pending.pop_front() {
                    Some(p) => rx.account(&body, &p, read_at),
                    None => {
                        lost = true;
                        break 'run;
                    }
                },
                Ok(None) => break,
                Err(_) => {
                    lost = true;
                    break 'run;
                }
            }
        }
    }
    if lost && !plan.journal {
        rx.out.failures.transport += 1;
        rx.out.failures.unanswered += pending.len() as u64;
    }
    rx.out
}

/// Lets this thread's sleeps end on time: the default 50 µs timer slack
/// is 2.5 periods of the paced schedule.
pub fn tighten_timer_slack() {
    extern "C" {
        fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    }
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument (nanoseconds)
    // and only changes how the kernel rounds this thread's timer expiries;
    // it reads or writes no memory of ours. Failure is harmless (sleeps
    // stay coarse, which `bench.send_lag_p99_us` reports).
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
    }
}

/// How close to the next due request the generator stops sleeping and
/// starts to spin. It only sleeps when nothing is outstanding, which at
/// 50 000 req/s means in the gaps.
const SPIN_AHEAD: Duration = Duration::from_micros(500);

/// One connection of the open loop.
struct PacedConn {
    stream: TcpStream,
    gen: Gen,
    rx: Receiver,
    fr: FrameReader,
    /// Encoded requests not yet accepted by the socket.
    wbuf: Vec<u8>,
    pending: VecDeque<Pending>,
    lost: bool,
}

impl PacedConn {
    /// The connection is gone: everything outstanding stays unanswered.
    fn lose(&mut self) {
        if !self.lost {
            self.lost = true;
            self.rx.out.failures.transport += 1;
        }
        self.rx.out.failures.unanswered += self.pending.len() as u64;
        self.pending.clear();
        self.wbuf.clear();
    }

    /// Writes what the socket takes of `wbuf` without blocking.
    fn flush(&mut self) {
        while !self.wbuf.is_empty() {
            match self.stream.write(&self.wbuf) {
                Ok(0) => return self.lose(),
                Ok(n) => drop(self.wbuf.drain(..n)),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return self.lose(),
            }
        }
    }

    /// Reads what has arrived without blocking and accounts every whole
    /// reply. Returns whether anything arrived.
    fn poll(&mut self, rbuf: &mut [u8]) -> bool {
        let n = match self.stream.read(rbuf) {
            Ok(0) => {
                self.lose();
                return false;
            }
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                ) =>
            {
                return false
            }
            Err(_) => {
                self.lose();
                return false;
            }
        };
        let read_at = Instant::now();
        self.fr.extend(&rbuf[..n]);
        loop {
            // Replies come back in request order.
            match (self.fr.next_frame(), self.pending.front()) {
                (Ok(Some(body)), Some(p)) => {
                    self.rx.account(&body, p, read_at);
                    self.pending.pop_front();
                }
                (Ok(None), _) => return true,
                _ => {
                    self.lose();
                    return true;
                }
            }
        }
    }
}

/// The open loop, on this one thread: request `k` is sent when `k/rate`
/// seconds of active time have passed, on connection `k mod C`, and the
/// replies are polled off non-blocking sockets in between. The thread
/// spins while anything is outstanding or due soon: a generator that
/// sleeps between requests 20 µs apart wakes late, in batches, and with
/// its receivers puts five threads on the CPUs where the server's two
/// should be — the latency then measures the scheduler's placement of
/// them (median windows of one run ranged 63–133 µs) rather than the
/// server. Latency runs from the intended send time, so a stall of the
/// server (or of this generator) is charged to every request it delays.
/// Returns the outcomes and the send lags (actual minus intended write
/// time, ns) of the measured windows.
fn paced_loop(
    plan: &Plan,
    rate: u64,
    streams: Vec<TcpStream>,
    zipf: Option<Arc<Zipf>>,
    timeline: Timeline,
) -> (Vec<ConnOutcome>, Vec<u32>) {
    let n = streams.len();
    let mut conns: Vec<PacedConn> = streams
        .into_iter()
        .enumerate()
        .map(|(c, stream)| {
            stream
                .set_nonblocking(true)
                .expect("non-blocking loopback socket");
            PacedConn {
                stream,
                gen: Gen::new(plan.w, zipf.clone(), plan.seed, c as u64, n as u64),
                rx: Receiver::new(plan, c, timeline),
                fr: FrameReader::new(),
                wbuf: Vec::new(),
                pending: VecDeque::new(),
                lost: false,
            }
        })
        .collect();
    if let Some((_, cpu)) = crate::proc::paced_placement() {
        // Failure leaves the thread where the scheduler puts it.
        let _ = crate::proc::pin(0, &[cpu]);
    }
    tighten_timer_slack();
    let mut lags: Vec<u32> = Vec::new();
    let mut due: Vec<Instant> = Vec::new();
    let mut rbuf = vec![0u8; 64 * 1024];
    let end = timeline.end();
    let mut k = 0u64;
    let mut next = timeline.wall_of_active(0);
    let mut last_reply = Instant::now();
    loop {
        let now = Instant::now();
        due.clear();
        while next <= now && next < end {
            let c = &mut conns[(k % n as u64) as usize];
            let req = c.gen.next_request();
            c.rx.out.sent += 1;
            if c.lost {
                c.rx.out.failures.unanswered += 1;
            } else {
                req.encode_frame(&mut c.wbuf);
                c.pending.push_back(Pending {
                    at: next,
                    req,
                    jidx: u32::MAX,
                });
            }
            due.push(next);
            k += 1;
            next = timeline.wall_of_active(paced_offset_ns(k, rate));
        }
        for c in conns.iter_mut() {
            c.flush();
        }
        if !due.is_empty() {
            let wrote_at = Instant::now();
            if timeline.window_of(wrote_at).is_some() {
                for at in &due {
                    lags.push(u32::try_from((wrote_at - *at).as_nanos()).unwrap_or(u32::MAX));
                }
            }
        }
        let mut outstanding = false;
        for c in conns.iter_mut() {
            if !c.pending.is_empty() {
                if c.poll(&mut rbuf) {
                    last_reply = Instant::now();
                }
                outstanding |= !c.pending.is_empty();
            }
        }
        if !outstanding {
            if next >= end {
                break;
            }
            last_reply = Instant::now();
            // Nothing to wait for: sleep through a gap, so the
            // calibrators have the CPUs to themselves.
            if let Some(idle) = next.checked_duration_since(last_reply + SPIN_AHEAD) {
                std::thread::sleep(idle);
            }
        } else if last_reply.elapsed() > REPLY_TIMEOUT {
            for c in conns.iter_mut() {
                c.lose();
            }
        }
    }
    (conns.into_iter().map(|c| c.rx.out).collect(), lags)
}

/// Re-reads a seeded sample of one connection's partition and compares
/// it with the shadow. Returns `(keys read, failures)`.
fn verify_shadow(addr: &str, shadow: &Shadow, seed: u64) -> (u64, Failures) {
    use rand::{Rng, SeedableRng};
    let mut failures = Failures::default();
    let mut answered = 0u64;
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed ^ shadow.conn.wrapping_add(0x5eed));
    let keys: Vec<u64> = (0..VERIFY_SAMPLE)
        .map(|_| {
            svc::journal::partition_key(rng.gen_range(0..shadow.prefill), shadow.conn, shadow.conns)
        })
        .collect();
    // One connection, the sample pipelined in chunks of 256. A transport
    // error leaves the rest of the sample unanswered.
    let mut check = || -> io::Result<()> {
        let mut stream = connect(addr)?;
        let mut wbuf = Vec::new();
        for chunk in keys.chunks(256) {
            wbuf.clear();
            for &key in chunk {
                Request::Get { key }.encode_frame(&mut wbuf);
            }
            stream.write_all(&wbuf)?;
            for &key in chunk {
                let body = svc::proto::read_frame(&mut stream)?;
                let got = match Response::decode(&body) {
                    Ok(Response::Value(v)) => Some(Some(v)),
                    Ok(Response::NotFound) => Some(None),
                    _ => None,
                };
                if got != Some(shadow.expected(key)) {
                    failures.mismatch += 1;
                }
                answered += 1;
            }
        }
        Ok(())
    };
    if check().is_err() {
        failures.transport += 1;
        failures.unanswered += keys.len() as u64 - answered;
    }
    (keys.len() as u64, failures)
}

/// The result of one load run. Window values are host-normalised (see
/// [`crate::calib`]), with the raw medians beside them.
pub struct Measured {
    /// Replies per second, per window.
    pub ops_per_s: OverWindows,
    /// All-class median latency (µs), per window.
    pub p50_us: OverWindows,
    /// All-class 99th percentile latency (µs), per window.
    pub p99_us: OverWindows,
    /// GET median latency (µs), per window.
    pub read_p50_us: OverWindows,
    /// PUT+DEL median latency (µs), per window.
    pub write_p50_us: OverWindows,
    /// Host speed relative to nominal, per window: the two kernels'
    /// speeds mixed by `sys_share`.
    pub host_speed: OverWindows,
    /// The server's system share of its CPU time over the measured
    /// windows.
    pub sys_share: f64,
    /// 99th percentile of actual-minus-intended send time (µs); open
    /// loop only.
    pub send_lag_p99_us: Option<f64>,
    /// Requests sent, verification reads included.
    pub attempted: u64,
    /// Failed operations by cause.
    pub failures: Failures,
    /// The first few rejected replies of each connection.
    pub examples: Vec<String>,
}

/// What [`drive`] brings back.
struct Driven {
    outcomes: Vec<ConnOutcome>,
    /// The open loop's send lags (ns).
    lags: Vec<u32>,
    /// The host's speeds at each of the `windows + 1` calibrations.
    speeds: Vec<Speeds>,
    /// The server's CPU clocks at the edges of the measured windows that
    /// the load lived to see.
    server_cpu: Vec<CpuTimes>,
}

/// Generates the plan's traffic on its connections, calibrates the host
/// in the gaps, and at both edges of the measured windows reads the
/// server's CPU clocks and calls `probe`, while the load runs.
fn drive(plan: &Plan, probe: &mut dyn FnMut()) -> io::Result<Driven> {
    let zipf = key_dist(plan.w);
    let streams = (0..plan.conns)
        .map(|_| connect(plan.addr))
        .collect::<io::Result<Vec<_>>>()?;
    let mut probes = (0..crate::proc::nproc())
        .map(|_| PathProbe::open())
        .collect::<io::Result<Vec<_>>>()?;
    let timeline = Timeline::new(&plan.cycles, Instant::now());
    let calibrations = match plan.cycles.gap.is_zero() {
        true => 0,
        false => plan.cycles.windows + 1,
    };
    std::thread::scope(|s| {
        let load = s.spawn(move || match plan.w.paced_rate {
            Some(rate) => paced_loop(plan, rate, streams, zipf, timeline),
            None => {
                let outcomes = std::thread::scope(|s| {
                    let handles: Vec<_> = streams
                        .into_iter()
                        .enumerate()
                        .map(|(conn, stream)| {
                            let zipf = zipf.clone();
                            s.spawn(move || closed_loop(plan, conn, stream, zipf, timeline))
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("client thread panicked"))
                        .collect::<Vec<_>>()
                });
                (outcomes, Vec::new())
            }
        });
        // One calibrator pinned to each CPU, so the speed read is the
        // speed of the CPUs the server and the client run on. Left to
        // the scheduler, both have been seen to share one CPU for a
        // whole run and read half the host's speed.
        let calibrators: Vec<_> = probes
            .iter_mut()
            .enumerate()
            .map(|(cpu, probe)| {
                s.spawn(move || {
                    crate::proc::pin_to_nth_cpu(cpu);
                    tighten_timer_slack();
                    (0..calibrations)
                        .map(|k| {
                            let (start, end) = timeline.calibration_gap(k);
                            calib::speeds_between(start + calib::DRAIN, end - calib::MARGIN, probe)
                        })
                        .collect::<io::Result<Vec<Speeds>>>()
                })
            })
            .collect();
        let mut server_cpu = Vec::new();
        for edge in [timeline.measure_start(), timeline.end()] {
            // A load that ended early (the crash drill's server died)
            // has no edges left to probe.
            if load.is_finished() {
                break;
            }
            sleep_until(edge);
            server_cpu.extend(crate::proc::cpu_times(plan.server_pid));
            probe();
        }
        let per_cpu = calibrators
            .into_iter()
            .map(|h| h.join().expect("calibrator panicked"))
            .collect::<io::Result<Vec<_>>>();
        let (outcomes, lags) = load.join().expect("load thread panicked");
        let per_cpu = per_cpu?;
        let speeds = (0..calibrations)
            .map(|k| Speeds::mean(&per_cpu.iter().map(|c| c[k]).collect::<Vec<_>>()))
            .collect();
        Ok(Driven {
            outcomes,
            lags,
            speeds,
            server_cpu,
        })
    })
}

/// The crash drill's load: journaled closed loop until the server dies
/// (or the plan's cycles end). Returns the ack journal of every
/// mutation sent.
pub fn run_until_killed(plan: &Plan) -> io::Result<Vec<JournalEntry>> {
    let driven = drive(plan, &mut || {})?;
    Ok(driven
        .outcomes
        .into_iter()
        .flat_map(|o| o.journal)
        .collect())
}

/// Runs the plan's traffic: warm-up cycles, then the measured windows on
/// the same connections, then the shadow re-read. `probe` is called at
/// the start and at the end of the measured windows (the end-to-end run
/// passes a no-op).
pub fn run(plan: &Plan, probe: &mut dyn FnMut()) -> io::Result<Measured> {
    let Driven {
        mut outcomes,
        mut lags,
        speeds,
        server_cpu,
    } = drive(plan, probe)?;
    // What the server is made of decides which of the host's two speeds
    // its numbers follow (see [`crate::calib`]).
    let sys_share = match server_cpu[..] {
        [before, after] if after.total_s() > before.total_s() => {
            (after.sys_s - before.sys_s) / (after.total_s() - before.total_s())
        }
        _ => {
            return Err(io::Error::other(
                "the server's CPU clocks did not advance over the measured windows",
            ))
        }
    };

    let mut attempted = 0;
    let mut failures = Failures::default();
    let mut examples = Vec::new();
    for o in &mut outcomes {
        examples.append(&mut o.examples);
        attempted += o.sent;
        failures.add(&o.failures);
        let (read, bad) = verify_shadow(plan.addr, &o.shadow, plan.seed);
        attempted += read;
        failures.add(&bad);
    }

    let mut series: [Vec<Window>; 6] = Default::default();
    let [ops, p50, p99, rd, wr, host] = &mut series;
    for i in 0..plan.cycles.windows {
        let mut gets: Vec<u32> = Vec::new();
        let mut muts: Vec<u32> = Vec::new();
        let mut all: Vec<u32> = Vec::new();
        let mut bins: Vec<f64> = Vec::new();
        let mut span_ns: Option<(u64, u64)> = None;
        for o in outcomes.iter_mut() {
            let w = std::mem::take(&mut o.windows[i]);
            span_ns = match (span_ns, w.span_ns) {
                (Some((a, b)), Some((c, d))) => Some((a.min(c), b.max(d))),
                (a, b) => a.or(b),
            };
            all.extend_from_slice(&w.scan);
            gets.extend(w.get);
            muts.extend(w.mutation);
            bins.resize(w.bins.len(), 0.0);
            for (total, n) in bins.iter_mut().zip(&w.bins) {
                *total += *n as f64;
            }
        }
        all.extend_from_slice(&gets);
        all.extend_from_slice(&muts);
        // The window sits between calibrations i and i + 1. A faster
        // host serves more and answers sooner, so throughput is divided
        // by its speed and latency multiplied.
        let speed = match (speeds.get(i), speeds.get(i + 1)) {
            (Some(&before), Some(&after)) => Speeds::mean(&[before, after]).mixed(sys_share),
            // A timeline without gaps has no calibrations.
            _ => 1.0,
        };
        // An open loop's throughput is the offered rate whatever the
        // host's speed: read it from the window's first reply to its
        // last, un-normalised.
        let (rate, rate_at_nominal) = match plan.w.paced_rate {
            Some(_) => {
                let rate = match span_ns {
                    Some((first, last)) if last > first => {
                        (all.len() - 1) as f64 * 1e9 / (last - first) as f64
                    }
                    _ => 0.0,
                };
                (rate, rate)
            }
            None => {
                let rate = median(&bins).unwrap_or(0.0) / BIN.as_secs_f64();
                (rate, rate / speed)
            }
        };
        let us = |ns: Option<u32>, n: usize| {
            ns.map(|ns| Window {
                raw: ns as f64 / 1000.0,
                value: ns as f64 / 1000.0 * speed,
                samples: n,
            })
        };
        ops.push(Window {
            raw: rate,
            value: rate_at_nominal,
            samples: all.len(),
        });
        host.push(Window {
            raw: speed,
            value: speed,
            samples: crate::proc::nproc(),
        });
        p50.extend(us(quantile(&mut all, 0.50), all.len()));
        p99.extend(us(quantile(&mut all, 0.99), all.len()));
        rd.extend(us(quantile(&mut gets, 0.50), gets.len()));
        wr.extend(us(quantile(&mut muts, 0.50), muts.len()));
    }
    let over = |windows: &[Window], what: &str| {
        OverWindows::of(windows)
            .ok_or_else(|| io::Error::other(format!("no {what} samples in any window")))
    };
    Ok(Measured {
        ops_per_s: over(ops, "reply")?,
        p50_us: over(p50, "latency")?,
        p99_us: over(p99, "latency")?,
        read_p50_us: over(rd, "GET")?,
        write_p50_us: over(wr, "PUT/DEL")?,
        host_speed: over(host, "calibration")?,
        sys_share,
        send_lag_p99_us: quantile(&mut lags, 0.99).map(|ns| ns as f64 / 1000.0),
        attempted,
        failures,
        examples,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timeline() -> Timeline {
        let cycles = Cycles {
            active: Duration::from_millis(200),
            gap: Duration::from_millis(50),
            warm: 4,
            windows: 100,
        };
        Timeline::new(&cycles, Instant::now())
    }

    #[test]
    fn cycles_alternate_load_and_gap_and_end() {
        let t = timeline();
        let ms = |ms: u64| t.t0 + Duration::from_millis(ms);
        assert!(matches!(t.phase(ms(0)), Phase::Active));
        assert!(matches!(t.phase(ms(199)), Phase::Active));
        assert!(matches!(t.phase(ms(200)), Phase::Gap(resume) if resume == ms(250)));
        assert!(matches!(t.phase(ms(250)), Phase::Active));
        assert!(matches!(t.phase(ms(104 * 250 - 1)), Phase::Gap(_)));
        assert!(matches!(t.phase(ms(104 * 250)), Phase::Done));
        // Warm-up cycles are no window; a reply drained in a gap still
        // counts for its cycle, past the last throughput bin.
        assert_eq!(t.window_of(ms(999)), None);
        assert_eq!(t.window_of(ms(1000)), Some((0, 0)));
        assert_eq!(t.window_of(ms(1000 + 195)), Some((0, 19)));
        assert_eq!(t.window_of(ms(1000 + 249)), Some((0, 24)));
        assert_eq!(t.window_of(ms(1250)), Some((1, 0)));
        assert_eq!(t.window_of(ms(104 * 250)), None);
        assert_eq!(t.bins(), 20);
        assert_eq!(t.measure_start(), ms(1000));
        assert_eq!(t.end(), ms(104 * 250));
        // Calibration k closes cycle warm - 1 + k: window i sits between
        // calibrations i and i + 1.
        assert_eq!(t.calibration_gap(0), (ms(950), ms(1000)));
        assert_eq!(t.calibration_gap(1), (ms(1200), ms(1250)));
    }

    #[test]
    fn paced_schedule_skips_the_gaps_without_drift() {
        let t = timeline();
        let rate = 50_000;
        // Exactly 10 000 requests fall into every cycle's load phase.
        let at = |k: u64| t.wall_of_active(paced_offset_ns(k, rate));
        assert_eq!(at(0), t.t0);
        assert_eq!(at(9_999), t.t0 + Duration::from_nanos(9_999 * 20_000));
        assert_eq!(at(10_000), t.t0 + Duration::from_millis(250));
        // 25 s of offered load later the schedule is still on the
        // nanosecond: cycle 125 starts at 125 × 250 ms.
        assert_eq!(at(25 * rate), t.t0 + Duration::from_millis(125 * 250));
        for k in (0..25 * rate).step_by(997) {
            assert!(matches!(t.phase(at(k)), Phase::Active | Phase::Done));
        }
    }

    fn shadow() -> Shadow {
        Shadow::new(1, 2, 100)
    }

    fn ok(req: Request, resp: Response, sh: &mut Shadow) -> bool {
        check_reply(&req, &resp, sh).is_ok()
    }

    #[test]
    fn shadow_tracks_the_own_partition_exactly() {
        let mut sh = shadow();
        // Prefilled keys read as themselves; other partitions are not
        // judged.
        assert!(ok(Request::Get { key: 7 }, Response::Value(7), &mut sh));
        assert!(!ok(Request::Get { key: 7 }, Response::NotFound, &mut sh));
        assert!(ok(Request::Get { key: 8 }, Response::Value(12345), &mut sh));
        // Beyond the prefill an untouched key is absent.
        assert!(ok(Request::Get { key: 101 }, Response::NotFound, &mut sh));

        assert!(ok(
            Request::Put { key: 7, value: 99 },
            Response::Ok,
            &mut sh
        ));
        assert!(ok(Request::Get { key: 7 }, Response::Value(99), &mut sh));
        assert!(!ok(Request::Get { key: 7 }, Response::Value(7), &mut sh));
        assert!(ok(Request::Del { key: 7 }, Response::Ok, &mut sh));
        assert!(ok(Request::Get { key: 7 }, Response::NotFound, &mut sh));
        // A second DEL must say NotFound, and a DEL of a present key Ok.
        assert!(!ok(Request::Del { key: 7 }, Response::Ok, &mut sh));
        assert!(!ok(Request::Del { key: 9 }, Response::NotFound, &mut sh));
    }

    #[test]
    fn replies_of_the_wrong_class_are_rejected() {
        let mut sh = shadow();
        assert!(!ok(Request::Get { key: 8 }, Response::Ok, &mut sh));
        assert!(!ok(
            Request::Put { key: 1, value: 2 },
            Response::Value(2),
            &mut sh
        ));
        assert!(!ok(
            Request::Scan { start: 0, count: 4 },
            Response::NotFound,
            &mut sh
        ));
        assert!(matches!(
            check_reply(&Request::Get { key: 8 }, &Response::Busy, &mut sh),
            Err(Bad::Refused)
        ));
    }

    #[test]
    fn scans_must_be_sorted_bounded_and_agree_with_the_shadow() {
        let mut sh = shadow();
        let scan = Request::Scan {
            start: 10,
            count: 4,
        };
        let full = vec![(10, 10), (11, 11), (12, 12), (13, 13)];
        assert!(ok(scan.clone(), Response::Pairs(full.clone()), &mut sh));
        // Unsorted, out of range, too many.
        assert!(!ok(
            scan.clone(),
            Response::Pairs(vec![(11, 11), (10, 10), (13, 13)]),
            &mut sh
        ));
        assert!(!ok(
            scan.clone(),
            Response::Pairs(vec![(11, 11), (13, 13), (14, 14)]),
            &mut sh
        ));
        let mut many = full.clone();
        many.push((13, 13));
        assert!(!ok(scan.clone(), Response::Pairs(many), &mut sh));
        // Own keys (odd) must be present with the shadow's value; the
        // other partition's (even) may be anything.
        assert!(!ok(
            scan.clone(),
            Response::Pairs(vec![(10, 10), (12, 12), (13, 13)]),
            &mut sh
        ));
        assert!(ok(
            scan.clone(),
            Response::Pairs(vec![(11, 11), (12, 777), (13, 13)]),
            &mut sh
        ));
        sh.set(11, DELETED);
        assert!(ok(
            scan,
            Response::Pairs(vec![(10, 10), (12, 12), (13, 13)]),
            &mut sh
        ));
    }
}
