//! One workload, start to finish: the end-to-end run (cold starts,
//! measured windows, verification, recovery timing, crash drill) and the
//! layer run (STATS and `/proc` deltas, same-run canary, traced replay,
//! layer microbenchmarks).

use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use rand::{Rng, SeedableRng};

use crate::calib;
use crate::client::{self, Cycles, Measured, Plan};
use crate::gen::{Backend, Canary, Workload};
use crate::layers;
use crate::mathx::OverWindows;
use crate::metrics::Values;
use crate::proc::{self, nproc, Server};
use crate::trace;

/// Connections the client opens: `min(nproc, 4)`.
pub fn conns() -> usize {
    nproc().min(4)
}

/// How long each phase of a run lasts.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Cycles of the end-to-end run.
    pub cycles: Cycles,
    /// Measured cycles of the canary server (0 skips the canaries).
    pub canary_windows: usize,
}

/// Load phase of a cycle.
const ACTIVE: Duration = Duration::from_millis(200);

/// Drain-and-calibrate phase of a cycle.
const GAP: Duration = Duration::from_millis(50);

impl Timing {
    /// Cycles of 200 ms load + 50 ms calibration filling `seconds`,
    /// after a warm-up of 1 s (4 cycles); the canary gets two fifths as
    /// many.
    pub fn over(seconds: f64) -> Timing {
        let windows = ((seconds / (ACTIVE + GAP).as_secs_f64()).round() as usize).max(4);
        Timing {
            cycles: Cycles {
                active: ACTIVE,
                gap: GAP,
                warm: 4,
                windows,
            },
            canary_windows: windows * 2 / 5,
        }
    }

    /// The harness's own smoke setting: 1 s warm-up, 2 s measured, no
    /// canaries.
    pub fn quick() -> Timing {
        Timing {
            canary_windows: 0,
            ..Timing::over(2.0)
        }
    }
}

/// What every run of a session shares.
pub struct Ctx {
    /// The built `rwled` binary.
    pub rwled: PathBuf,
    /// Wall time of `cargo build --release -p svc`.
    pub build_s: f64,
    /// Generator seed.
    pub seed: u64,
    /// Phase lengths.
    pub timing: Timing,
}

/// The outcome of one run of one workload.
#[derive(Default)]
pub struct Outcome {
    /// Metric values by name.
    pub values: Values,
    /// Requests sent.
    pub attempted: u64,
    /// Operations that failed (see [`client::Failures`]), lost acks and
    /// unclean server exits.
    pub failed: u64,
}

impl Outcome {
    fn absorb(&mut self, m: &Measured, what: &str) {
        self.attempted += m.attempted;
        self.failed += m.failures.total();
        if m.failures.total() > 0 {
            println!("  FAILED ops in {what}: {:?}", m.failures);
            for example in &m.examples {
                println!("    {example:.400}");
            }
        }
    }

    /// Shuts a server down; an unclean drain or exit counts as a failed
    /// operation.
    fn shutdown(&mut self, server: Server, what: &str) -> Option<proc::DrainReport> {
        self.attempted += 1;
        match server.shutdown() {
            Ok(report) => Some(report),
            Err(e) => {
                println!("  FAILED shutdown of {what}: {e}");
                self.failed += 1;
                None
            }
        }
    }
}

fn other(e: String) -> io::Error {
    io::Error::other(e)
}

/// A fresh, empty directory under `out/`.
fn scratch_dir(name: &str) -> io::Result<PathBuf> {
    let dir = proc::out_dir().join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Adds the redo log to a server's flags. The log has to live inside
/// the checkout, which is a block device: under `--fsync batch` the run
/// measures that device (8k-34k replies/s within minutes on the sizing
/// host), so the server logs with `--fsync off` — the append inside the
/// barrier window is all there, the group-commit wait is not
/// (`layers::wal_group_commit` times that path on its own).
fn with_wal(mut flags: Vec<String>, dir: &Path) -> Vec<String> {
    flags.push("--wal-dir".to_string());
    flags.push(dir.display().to_string());
    flags.push("--fsync".to_string());
    flags.push("off".to_string());
    flags
}

/// The workload's server flags; a durable workload logs into a fresh
/// directory under `out/`.
fn server_flags(w: &Workload) -> io::Result<Vec<String>> {
    let flags = w.server_flags();
    if w.durable {
        Ok(with_wal(flags, &scratch_dir(&format!("{}-wal", w.name))?))
    } else {
        Ok(flags)
    }
}

/// Spawns a server that a load run will drive. An open loop's server is
/// kept off the CPU its generator spins on (see
/// [`proc::paced_placement`]); a closed loop's threads are all left to
/// the scheduler.
fn spawn_for_load(w: &Workload, ctx: &Ctx, flags: &[String]) -> io::Result<Server> {
    let server = Server::spawn(&ctx.rwled, flags)?;
    if let (Some(_), Some((cpus, _))) = (w.paced_rate, proc::paced_placement()) {
        server.pin(&cpus)?;
    }
    Ok(server)
}

fn plan<'a>(w: &'a Workload, ctx: &Ctx, server: (&'a str, u32), windows: usize) -> Plan<'a> {
    Plan {
        w,
        addr: server.0,
        server_pid: server.1,
        seed: ctx.seed,
        conns: conns(),
        cycles: Cycles {
            windows,
            ..ctx.timing.cycles
        },
        journal: false,
    }
}

fn show(name: &str, unit: &str, o: &OverWindows) {
    println!(
        "  {name:<14} {:>12.3} {unit:<9} (raw {:.3}; windows {:.3} to {:.3}, >= {} samples each)",
        o.median, o.raw_median, o.min, o.max, o.samples
    );
}

/// Prints and returns a start-up metric: the **fastest** of `times`
/// (spawn to first reply, seconds), at the nominal host speed. A start
/// has a floor — the work it has to do — and everything the host adds
/// sits on top of it: the 290 MB server of `svc-read` came up in 1.0 s
/// or in 2–3 s at random (the hypervisor faulting its pages back in),
/// which moved the median of three by 43 % between two sets of ten runs
/// of one binary. `speed` is the host's compute speed read right before
/// and after the starts, the fastest reading like the fastest start:
/// across the host's moods the fastest start follows that kernel (quartile spread over a dozen runs 11–16 % raw,
/// 3–10 % normalised) and not the path kernel (17–35 %).
fn fastest(name: &str, what: &str, times: &[f64], speed: f64) -> f64 {
    let raw = times.iter().copied().fold(f64::MAX, f64::min);
    let value = raw * speed;
    println!(
        "  {name:<14} {value:>12.4} {:<9} (raw {raw:.4}; fastest of {} {what}, host at {speed:.3} x nominal)",
        "s",
        times.len()
    );
    value
}

/// Spawns servers with `flags()` and shuts them down again, at least
/// `at_least` times and up to `at_most` while `budget` lasts; returns
/// their `setup_s`.
fn timed_starts(
    ctx: &Ctx,
    out: &mut Outcome,
    mut flags: impl FnMut() -> io::Result<Vec<String>>,
    (at_least, at_most, budget): (usize, usize, Duration),
) -> io::Result<Vec<f64>> {
    let mut times = Vec::new();
    let t0 = Instant::now();
    while times.len() < at_least || (times.len() < at_most && t0.elapsed() < budget) {
        let server = Server::spawn(&ctx.rwled, &flags()?)?;
        times.push(server.setup_s);
        out.shutdown(server, "timed start");
    }
    Ok(times)
}

/// The end-to-end run: every metric a user of the service would see,
/// measured with nothing of the benchmark inside the server's process
/// and no probe on the wire during the windows.
pub fn end_to_end(w: &Workload, ctx: &Ctx) -> io::Result<Outcome> {
    let mut out = Outcome::default();

    // Cold starts: spawn to first reply, prefill and WAL open included.
    // At least three, the measured server's being the last; cheap ones
    // are repeated (up to 16, within 1.5 s).
    let (started, setup_speed) = calib::with_fastest_speed(|| -> io::Result<_> {
        let mut setups = timed_starts(
            ctx,
            &mut out,
            || server_flags(w),
            (2, 15, Duration::from_millis(1500)),
        )?;
        let server = spawn_for_load(w, ctx, &server_flags(w)?)?;
        setups.push(server.setup_s);
        Ok((setups, server))
    });
    let (setups, server) = started?;
    let m = client::run(
        &plan(w, ctx, server.at(), ctx.timing.cycles.windows),
        &mut || {},
    )?;
    out.absorb(&m, "measured run");
    let rss_mb = server.rss_mb()?;
    out.shutdown(server, "measured server");

    let (recoveries, recover_speed) = recover(w, ctx, &mut out)?;
    if w.durable {
        crash_drill(w, ctx, &mut out)?;
    }

    let setup_s = fastest("setup_s", "cold starts", &setups, setup_speed);
    show("ops_per_s", "replies/s", &m.ops_per_s);
    show("p50_us", "us", &m.p50_us);
    show("read_p50_us", "us", &m.read_p50_us);
    show("write_p50_us", "us", &m.write_p50_us);
    println!(
        "  {:<14} {rss_mb:>12.3} {:<9} (server VmHWM)",
        "rss_mb", "MiB"
    );
    let recover_s = fastest(
        "recover_s",
        &format!("starts on a {}-mutation log", w.recover_ops),
        &recoveries,
        recover_speed,
    );
    println!("  context, not gated:");
    show("p99_us", "us", &m.p99_us);
    show("host speed", "x nominal", &m.host_speed);
    println!(
        "  {:<14} {:>12.3} {:<9} (of the server's CPU time; weighs the path kernel in the host speed)",
        "system share", m.sys_share, "ratio"
    );
    println!("  failed/attempted {}/{}", out.failed, out.attempted);

    out.values.set("setup_s", setup_s);
    out.values.set("ops_per_s", m.ops_per_s.median);
    out.values.set("p50_us", m.p50_us.median);
    out.values.set("read_p50_us", m.read_p50_us.median);
    out.values.set("write_p50_us", m.write_p50_us.median);
    out.values.set("rss_mb", rss_mb);
    out.values.set("recover_s", recover_s);
    Ok(out)
}

/// Writes the workload's synthetic log (deterministic from the seed)
/// and returns its directory.
fn synthetic_log(w: &Workload, ctx: &Ctx) -> io::Result<PathBuf> {
    let dir = scratch_dir(&format!("{}-recover-wal", w.name))?;
    layers::write_synthetic_log(&dir, ctx.seed, w.prefill, w.recover_ops).map_err(other)?;
    Ok(dir)
}

/// `recover_s`: `rwled --wal-dir` on the synthetic log, spawn to first
/// reply (prefill + replay + bind); at least four starts, up to twelve
/// while they fit in 2.5 s. Returns their times and the host's compute
/// speed around them (see [`fastest`]).
fn recover(w: &Workload, ctx: &Ctx, out: &mut Outcome) -> io::Result<(Vec<f64>, f64)> {
    let dir = synthetic_log(w, ctx)?;
    let flags = with_wal(w.server_flags(), &dir);
    let (times, speed) = calib::with_fastest_speed(|| {
        timed_starts(
            ctx,
            out,
            || Ok(flags.clone()),
            (4, 12, Duration::from_millis(2500)),
        )
    });
    std::fs::remove_dir_all(&dir)?;
    Ok((times?, speed))
}

/// The crash drill: journaled closed-loop load, SIGKILL at a
/// seed-chosen instant, restart on the same log, and every acked write
/// must still be readable. SIGKILL leaves the page cache intact, so
/// this checks the order of ack and log write, not the device.
fn crash_drill(w: &Workload, ctx: &Ctx, out: &mut Outcome) -> io::Result<()> {
    let dir = scratch_dir(&format!("{}-drill-wal", w.name))?;
    let flags = with_wal(w.server_flags(), &dir);
    let mut server = Server::spawn(&ctx.rwled, &flags)?;
    let (addr, pid) = (server.addr.clone(), server.pid());
    let kill_after = Duration::from_millis(
        rand::rngs::SmallRng::seed_from_u64(ctx.seed ^ 0xd411).gen_range(300..900),
    );
    let drill = Plan {
        cycles: Cycles {
            active: Duration::from_secs(5),
            gap: Duration::ZERO,
            warm: 0,
            windows: 1,
        },
        journal: true,
        ..plan(w, ctx, (&addr, pid), 1)
    };
    let journal = std::thread::scope(|s| {
        let load = s.spawn(|| client::run_until_killed(&drill));
        std::thread::sleep(kill_after);
        server.kill();
        load.join().expect("drill client panicked")
    })?;
    svc::journal::write(&proc::out_dir().join("drill-journal.txt"), &journal)?;

    let server = Server::spawn(&ctx.rwled, &flags)?;
    let report = svc::journal::verify_against(&server.addr, &journal)?;
    let acked = journal
        .iter()
        .filter(|e| e.status == svc::journal::JStatus::Acked)
        .count();
    println!(
        "  crash drill: SIGKILL after {} ms, {} mutations journaled ({acked} acked), \
         {} keys checked after restart, {} lost acks (SIGKILL keeps the page cache: \
         this checks ack/log ordering, not the device)",
        kill_after.as_millis(),
        journal.len(),
        report.keys_checked,
        report.lost_acks
    );
    for example in &report.examples {
        println!("    {example}");
    }
    out.attempted += journal.len() as u64 + report.keys_checked;
    out.failed += report.lost_acks;
    out.shutdown(server, "restarted server");
    std::fs::remove_dir_all(&dir)?;
    Ok(())
}

/// How long each of the two replays runs at most.
const REPLAY: Duration = Duration::from_millis(1200);

/// Spans each replay thread may record; a full buffer ends its replay.
const SPAN_CAPACITY: usize = 70_000;

/// Server-side counters and CPU clocks at one edge of the measured
/// windows.
struct Probe {
    stats: svc::proto::ServerStats,
    server_cpu_s: f64,
    client_cpu_s: f64,
}

fn probe(server: &Server) -> io::Result<Probe> {
    Ok(Probe {
        stats: server.stats()?,
        server_cpu_s: server.cpu_s()?,
        client_cpu_s: proc::self_cpu_s()?,
    })
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The layer run: the same traffic again, this time with STATS and
/// `/proc` read at the edges of the windows, then the canary, the traced
/// replay and the layer microbenchmarks.
pub fn per_layer(w: &Workload, ctx: &Ctx) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let mut v = Values::default();
    let (ops_per_s, ops_per_batch) = counters(w, ctx, &mut out, &mut v)?;
    if let (Some(canary), true) = (w.canary, ctx.timing.canary_windows > 0) {
        canary_run(w, ctx, canary, ops_per_s, &mut out, &mut v)?;
    }
    let batch = (ops_per_batch.round() as usize).max(1);
    traced_replay(w, ctx, ops_per_s, batch, &mut v)?;
    microbenchmarks(w, ctx, &mut v)?;

    for def in &crate::metrics::PER_LAYER {
        if let Some(value) = v.get(def.name) {
            println!(
                "  {:<46} {value:>14.3} {:<9} ({} is better)",
                def.name,
                def.unit,
                def.better.word()
            );
        }
    }
    println!("  failed/attempted {}/{}", out.failed, out.attempted);
    out.values = v;
    Ok(out)
}

/// Measured windows with the server's counters and both processes' CPU
/// clocks read before and after them. Returns the normalised
/// `ops_per_s` and the mean batch size.
fn counters(w: &Workload, ctx: &Ctx, out: &mut Outcome, v: &mut Values) -> io::Result<(f64, f64)> {
    let windows = (ctx.timing.cycles.windows / 2).max(2);
    let server = spawn_for_load(w, ctx, &server_flags(w)?)?;
    let mut edges: Vec<io::Result<Probe>> = Vec::new();
    let m = client::run(&plan(w, ctx, server.at(), windows), &mut || {
        edges.push(probe(&server))
    })?;
    out.absorb(&m, "measured run");
    let drain = out.shutdown(server, "measured server");
    let mut edges = edges.into_iter();
    let (before, after) = match (edges.next(), edges.next()) {
        (Some(a), Some(b)) => (a?, b?),
        _ => return Err(io::Error::other("the load run did not probe both edges")),
    };
    let (a, b) = (&before.stats, &after.stats);
    let replied = b.replied - a.replied;
    let mutations = (b.puts + b.dels) - (a.puts + a.dels);
    let ops_per_batch = ratio(b.batch_ops - a.batch_ops, b.batches - a.batches);
    let server_cpu = after.server_cpu_s - before.server_cpu_s;
    let client_cpu = after.client_cpu_s - before.client_cpu_s;
    v.set("svc.server.p99_us", m.p99_us.median);
    v.set("svc.server.ops_per_batch", ops_per_batch);
    v.set(
        "svc.server.barriers_per_mutation",
        ratio(b.barriers - a.barriers, mutations),
    );
    v.set(
        "svc.server.writev_per_op",
        ratio(b.writev_calls - a.writev_calls, replied),
    );
    v.set(
        "svc.server.cpu_us_per_op",
        1e6 * server_cpu / replied.max(1) as f64,
    );
    v.set(
        "wal.bytes_per_mutation",
        ratio(b.wal_bytes - a.wal_bytes, mutations),
    );
    v.set("bench.host_speed", m.host_speed.median);
    v.set(
        "bench.client_cpu_frac",
        client_cpu / (client_cpu + server_cpu).max(1e-9),
    );
    v.set("bench.send_lag_p99_us", m.send_lag_p99_us.unwrap_or(0.0));
    v.set(
        "bench.window_spread_pct",
        100.0 * (m.ops_per_s.max - m.ops_per_s.min) / m.ops_per_s.median,
    );
    v.set("bench.build_s", ctx.build_s);
    if let (Some(d), Backend::Sim) = (&drain, w.backend) {
        v.set("rwle.abort_pct", d.abort_pct);
        v.set("rwle.commit_htm_pct", d.commit_pct[0]);
        v.set("rwle.commit_rot_pct", d.commit_pct[1]);
        v.set("rwle.commit_ns_pct", d.commit_pct[2]);
        v.set("rwle.uninstr_pct", d.commit_pct[3]);
    }
    let ops_per_s = m.ops_per_s.median;
    println!(
        "  measured {ops_per_s:.0} replies/s over {windows} windows; {ops_per_batch:.2} ops/batch"
    );
    Ok((ops_per_s, ops_per_batch))
}

/// The same-run comparison server. It sees the same host weather: it
/// runs right after the measured windows, on the same traffic.
fn canary_run(
    w: &Workload,
    ctx: &Ctx,
    canary: Canary,
    ops_per_s: f64,
    out: &mut Outcome,
    v: &mut Values,
) -> io::Result<()> {
    let server = spawn_for_load(w, ctx, &w.canary_flags(canary))?;
    let c = client::run(
        &plan(w, ctx, server.at(), ctx.timing.canary_windows),
        &mut || {},
    )?;
    // The canary is context for `ops_per_s`, not the system under test:
    // what it gets wrong is reported, not counted as this workload's
    // failures.
    out.attempted += c.attempted;
    if c.failures.total() > 0 {
        println!(
            "  canary {canary:?} failed verification on {} ops (reported, not counted): {:?}",
            c.failures.total(),
            c.failures
        );
        if let Some(example) = c.examples.first() {
            println!("    {example:.400}");
        }
    }
    out.shutdown(server, "canary server");
    let (rate, vs) = match canary {
        Canary::Sgl => (
            Some("workloads.native.sgl_ops_per_s"),
            "workloads.native.vs_sgl",
        ),
        Canary::Hle => (Some("hle.ops_per_s"), "rwle.vs_hle"),
        Canary::Volatile => (None, "wal.vs_volatile"),
    };
    if let Some(rate) = rate {
        v.set(rate, c.ops_per_s.median);
    }
    v.set(vs, ops_per_s / c.ops_per_s.median);
    println!(
        "  canary {canary:?}: {:.0} replies/s, {vs} = {:.3} (base: the canary)",
        c.ops_per_s.median,
        ops_per_s / c.ops_per_s.median
    );
    Ok(())
}

/// Traced replay of the same generated streams through the layers, in
/// batches of `batch`, once without spans (which also warms the store)
/// and once with; prints where the time went against the budget
/// `nproc·1e9/ops_per_s`.
fn traced_replay(
    w: &Workload,
    ctx: &Ctx,
    ops_per_s: f64,
    batch: usize,
    v: &mut Values,
) -> io::Result<()> {
    let threads = nproc();
    let native = w.backend == Backend::Native;
    let wal_dir = match w.durable {
        true => Some(scratch_dir(&format!("{}-trace-wal", w.name))?),
        false => None,
    };
    let store = layers::Store::open(w, 2 * threads, wal_dir.as_deref()).map_err(other)?;
    let (plain, plain_speed) =
        calib::with_speed(|| layers::replay(&store, w, ctx.seed, threads, batch, REPLAY, 0));
    let (traced, replay_speed) = calib::with_speed(|| {
        layers::replay(&store, w, ctx.seed, threads, batch, REPLAY, SPAN_CAPACITY)
    });
    drop(store);
    if let Some(dir) = wal_dir {
        std::fs::remove_dir_all(dir)?;
    }
    let trace_path = proc::out_dir().join(format!("trace-{}.jsonl", w.name));
    trace::write_jsonl(&trace_path, &traced.spans)?;
    let rate = |r: &layers::Replayed, speed: f64| r.ops as f64 / r.secs / speed;
    let (off, on) = (rate(&plain, plain_speed), rate(&traced, replay_speed));
    v.set("bench.trace_overhead_pct", 100.0 * (off - on) / off);

    // Self times at the nominal host speed, like the latencies the
    // budget is made of.
    let at_nominal = |ns: u64| ns as f64 * replay_speed;
    let per_op = |ns: u64| at_nominal(ns) / traced.ops.max(1) as f64;
    let budget = threads as f64 * 1e9 / ops_per_s;
    let by_name = trace::self_time_by_name(&traced.spans);
    let own = |name: &str| by_name.iter().find(|(n, _)| *n == name).map_or(0, |x| x.1);
    let traced_ns: f64 = by_name.iter().map(|&(_, ns)| per_op(ns)).sum();
    println!(
        "  where the time went ({} batches of {batch}, {} spans, {}):",
        traced.batches,
        traced.spans.iter().map(Vec::len).sum::<usize>(),
        trace_path.display()
    );
    println!("    {:<28} {:>12} {:>8}", "layer", "self ns/op", "share");
    let row = |name: &str, ns: f64| {
        println!("    {name:<28} {ns:>12.1} {:>7.1}%", 100.0 * ns / budget);
    };
    for &(name, ns) in &by_name {
        let name = match name {
            layers::SPAN_READ if native => "workloads.native.read",
            layers::SPAN_READ => "workloads.sim.read",
            layers::SPAN_APPLY if native => "workloads.native.apply_batch",
            layers::SPAN_APPLY => "workloads.sim.apply_batch",
            other => other,
        };
        row(name, per_op(ns));
    }
    row("svc.server.residual", budget - traced_ns);
    row("total (= nproc*1e9/ops_per_s)", budget);
    v.set("svc.server.residual_ns_per_op", budget - traced_ns);
    v.set(
        "svc.proto.decode_ns_per_op",
        per_op(own(layers::SPAN_DECODE)),
    );
    v.set(
        "svc.proto.encode_ns_per_op",
        per_op(own(layers::SPAN_ENCODE)),
    );
    if native {
        v.set(
            "workloads.native.apply_batch_ns_per_mutation",
            at_nominal(own(layers::SPAN_APPLY)) / traced.mutations.max(1) as f64,
        );
    }
    if w.durable {
        v.set(
            "wal.append_ns_per_record",
            at_nominal(own(layers::SPAN_WAL_APPEND)) / traced.records.max(1) as f64,
        );
    }
    Ok(())
}

/// Layer microbenchmarks, each around one public call and between two
/// readings of the host's speed.
fn microbenchmarks(w: &Workload, ctx: &Ctx, v: &mut Values) -> io::Result<()> {
    let store = layers::Store::open(w, 1, None).map_err(other)?;
    let (costs, speed) = calib::with_speed(|| layers::store_costs(&store, w, ctx.seed));
    drop(store);
    match w.backend {
        Backend::Native => {
            v.set("workloads.native.get_ns", costs.get_ns * speed);
            v.set("workloads.native.scan_ns", costs.scan_ns * speed);
        }
        Backend::Sim => v.set("workloads.sim.get_ns", costs.get_ns * speed),
    }
    if let Some(put_ns) = costs.put_ns {
        v.set("workloads.sim.put_ns", put_ns * speed);
        let (cs, speed) = calib::with_speed(layers::rwle_cs_ns);
        let (read_ns, write_ns) = cs.map_err(other)?;
        v.set("rwle.read_cs_ns", read_ns * speed);
        v.set("rwle.write_cs_ns", write_ns * speed);
    }
    if w.durable {
        // Device-bound, so not normalised by the host's compute speed.
        let dir = scratch_dir(&format!("{}-commit-wal", w.name))?;
        let (wait_us, fsyncs_per_append) = layers::wal_group_commit(&dir).map_err(other)?;
        v.set("wal.wait_durable_us", wait_us);
        v.set("wal.fsyncs_per_append", fsyncs_per_append);
        std::fs::remove_dir_all(&dir)?;
        let log = synthetic_log(w, ctx)?;
        let (mops, speed) = calib::with_speed(|| layers::wal_replay_mops(w, &log));
        v.set("wal.replay_mops", mops.map_err(other)? / speed);
        std::fs::remove_dir_all(log)?;
    }
    let (sync_ns, speed) =
        calib::with_speed(|| layers::epoch_synchronize_ns(nproc().saturating_sub(1).max(1)));
    v.set("epoch.synchronize_ns", sync_ns * speed);
    let (rtt_us, speed) = calib::with_speed(layers::poll_wake_rtt_us);
    v.set("svc.poll.wake_rtt_us", rtt_us? * speed);
    Ok(())
}
