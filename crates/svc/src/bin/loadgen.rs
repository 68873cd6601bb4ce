//! `loadgen` — drives traffic at a running `rwled` and reports latency.
//!
//! ```text
//! loadgen [--addr HOST:PORT | --port P] [--conns N] [--writes PCT]
//!         [--scans PCT] [--scan-count N] [--secs S] [--ops N]
//!         [--keys N] [--theta F] [--total-rate OPS_PER_S]
//!         [--pipeline D] [--seed N] [--json] [--shutdown]
//!         [--journal PATH] [--verify PATH]
//! ```
//!
//! Closed loop by default (`--pipeline D` keeps D requests outstanding
//! per connection); `--total-rate R` switches to the shared-pacing open
//! loop (one sender, one epoll receiver, any number of connections —
//! the SLO-gate mode). `--json` emits one JSON-lines row compatible
//! with `summarize` (commit-mix keys are zero placeholders — the
//! service measures latency, not the commit path; see DESIGN.md §11).
//!
//! `--journal PATH` records every mutation this run sent with its ack
//! status (see `svc::journal` for the format and soundness argument);
//! `--verify PATH` skips load generation entirely and instead replays a
//! previously written journal against the server, checking that every
//! acked write is still readable — the crash-recovery gate. Exit codes:
//! 0 clean, 1 errors, lost replies or lost acks, 2 bad input or
//! unreachable server.

use std::process::exit;
use std::time::{Duration, Instant};

use bench::{json_string, Args};
use svc::loadgen::{self, LoadgenConfig, CLASS_NAMES};

/// Every flag this binary accepts; anything else exits 2.
const FLAGS: &[&str] = &[
    "help",
    "addr",
    "port",
    "conns",
    "writes",
    "scans",
    "scan-count",
    "secs",
    "ops",
    "keys",
    "theta",
    "total-rate",
    "pipeline",
    "seed",
    "json",
    "shutdown",
    "journal",
    "verify",
];

const USAGE: &str = "\
usage: loadgen [--addr HOST:PORT | --port P] [--conns N] [--writes PCT]
               [--scans PCT] [--scan-count N] [--secs S] [--ops N]
               [--keys N] [--theta F] [--total-rate R] [--pipeline D]
               [--seed N] [--json] [--shutdown] [--journal PATH]
               [--verify PATH] [--help]

  Closed loop by default; --pipeline D keeps D requests outstanding per
  connection (default 1). --total-rate R paces R ops/s aggregate across
  all connections from a single sender with an epoll receiver, however
  many connections there are; R ops/s per connection is --total-rate
  R x conns (the one open loop). --shutdown drains the server at the
  end. --journal PATH writes an ack journal of every mutation sent
  (closed loop only); --verify PATH replays such a journal against the
  server instead of generating load — exit 1 if any acked write is
  missing.";

/// Nanoseconds to microseconds for reporting.
fn us(nanos: u64) -> f64 {
    nanos as f64 / 1000.0
}

fn main() {
    let args = Args::parse();
    args.expect_only(FLAGS, USAGE);
    if args.flag("help") {
        println!("{USAGE}");
        return;
    }
    let addr = match args.get("addr") {
        Some(a) => a.to_string(),
        None => format!("127.0.0.1:{}", args.get_or("port", 7878u16)),
    };
    if let Some(path) = args.get("verify") {
        let entries = match svc::journal::load(std::path::Path::new(path)) {
            Ok(e) => e,
            Err(e) => {
                eprintln!("loadgen: cannot load journal {path}: {e}");
                exit(2);
            }
        };
        let report = match svc::journal::verify_against(&addr, &entries) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("loadgen: verify against {addr} failed: {e}");
                eprintln!("hint: is rwled running with the same --wal-dir and --prefill?");
                exit(2);
            }
        };
        println!(
            "loadgen verify: {} keys checked, {} skipped (never acked), {} lost acks",
            report.keys_checked, report.keys_skipped, report.lost_acks
        );
        for ex in &report.examples {
            eprintln!("  lost: {ex}");
        }
        exit(if report.ok() { 0 } else { 1 });
    }
    let journal_path = args.get("journal").map(|p| p.to_string());
    let cfg = LoadgenConfig {
        addr,
        conns: args.get_or("conns", 8usize),
        write_pct: args.get_or("writes", 10u32),
        scan_pct: args.get_or("scans", 2u32),
        scan_count: args.get_or("scan-count", 64u32),
        secs: args.get_or("secs", 2.0f64),
        ops_per_conn: args.get_or("ops", 0u64),
        key_range: args.get_or("keys", 100_000u64),
        zipf_theta: args.get_or("theta", 0.0f64),
        total_rate: args.get_or("total-rate", 0u64),
        pipeline: args.get_or("pipeline", 1usize),
        seed: args.get_or("seed", 1u64),
        shutdown: args.flag("shutdown"),
        journal: journal_path.is_some(),
    };
    if cfg.journal && cfg.total_rate > 0 {
        eprintln!("loadgen: --journal requires the closed loop");
        eprintln!("hint: the open-loop drain grace drops late replies, which would fake lost acks");
        exit(2);
    }
    if cfg.conns == 0 {
        eprintln!("loadgen: --conns must be at least 1");
        exit(2);
    }
    if cfg.pipeline == 0 {
        eprintln!("loadgen: --pipeline must be at least 1");
        eprintln!("hint: 1 is the classic closed loop; deeper windows pipeline");
        exit(2);
    }
    if cfg.total_rate > 0 && cfg.pipeline > 1 {
        eprintln!("loadgen: --pipeline only applies to the closed loop");
        eprintln!("hint: open-loop depth is set by the arrival rate, not a window");
        exit(2);
    }
    if cfg.write_pct + cfg.scan_pct > 100 {
        eprintln!(
            "loadgen: --writes {} plus --scans {} exceeds 100%",
            cfg.write_pct, cfg.scan_pct
        );
        eprintln!("hint: the scan share is carved out first; lower one of them");
        exit(2);
    }
    if cfg.key_range == 0 {
        eprintln!("loadgen: --keys must be at least 1");
        exit(2);
    }
    if cfg.scan_count > svc::proto::MAX_SCAN {
        eprintln!(
            "loadgen: --scan-count {} exceeds the protocol limit {}",
            cfg.scan_count,
            svc::proto::MAX_SCAN
        );
        exit(2);
    }
    // Every run sets its deadline `--secs` from now.
    let deadline = Duration::try_from_secs_f64(cfg.secs)
        .ok()
        .and_then(|d| Instant::now().checked_add(d));
    if deadline.is_none() {
        eprintln!("loadgen: --secs {} is not a run length", cfg.secs);
        eprintln!("hint: give a finite, non-negative number of seconds");
        exit(2);
    }
    if !cfg.zipf_theta.is_finite() {
        eprintln!("loadgen: --theta {} is not a Zipf exponent", cfg.zipf_theta);
        eprintln!("hint: 0 is uniform, 0.99 the usual skew; give a finite number");
        exit(2);
    }
    if cfg.secs <= 0.0 && cfg.ops_per_conn == 0 {
        eprintln!("loadgen: give a positive --secs or a positive --ops");
        exit(2);
    }

    let res = match loadgen::run(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("loadgen: {e}");
            eprintln!("hint: is rwled running? start it with: rwled --threads 4");
            exit(2);
        }
    };
    if let Some(path) = &journal_path {
        if let Err(e) = svc::journal::write(std::path::Path::new(path), &res.journal) {
            eprintln!("loadgen: cannot write journal {path}: {e}");
            exit(2);
        }
    }

    let scheme = res
        .server
        .as_ref()
        .map(|s| s.scheme.clone())
        .unwrap_or_else(|| String::from("UNKNOWN"));
    let backend = res
        .server
        .as_ref()
        .map(|s| s.backend.clone())
        .unwrap_or_else(|| String::from("UNKNOWN"));
    if args.flag("json") {
        // Shared-pacing rows are the SLO-gate dialect: regress compares
        // their p99 instead of ops/s (an open loop at a fixed arrival
        // rate always "achieves" its rate unless it collapses), keyed by
        // the "svc slo" section prefix.
        let section = if cfg.total_rate > 0 {
            format!(
                "svc slo open total-rate={} conns={}",
                cfg.total_rate, cfg.conns
            )
        } else {
            let mode = if cfg.pipeline > 1 {
                format!("closed pipeline={}", cfg.pipeline)
            } else {
                String::from("closed")
            };
            // Durable runs get their own section so regress compares
            // durable against durable, never against volatile baselines.
            let durable = res
                .server
                .as_ref()
                .is_some_and(|s| !s.durability.is_empty() && s.durability != "volatile");
            let kind = if durable {
                "durable loopback"
            } else {
                "loopback"
            };
            format!("svc {kind} {mode} conns={}", cfg.conns)
        };
        let mut per_class = String::new();
        for (i, name) in CLASS_NAMES.iter().enumerate() {
            per_class.push_str(&format!(
                ", \"{name}_p99_us\": {:.1}, \"{name}_ops\": {}",
                us(res.hists[i].p99()),
                res.hists[i].count()
            ));
        }
        // The server's flush amortization, when its STATS were fetched.
        let writev = res
            .server
            .as_ref()
            .map(|s| format!(", \"writev_per_op\": {:.4}", s.writev_per_op()))
            .unwrap_or_default();
        // Keys through `c_uninstr` make the row parseable by
        // bench::parse_json_result_row; the latency keys extend it
        // (schema "svc-loadgen", see DESIGN.md §11).
        println!(
            "{{\"section\": {}, \"scheme\": {}, \"backend\": {}, \"threads\": {}, \
             \"w\": {}, \
             \"time_s\": {:.6}, \"ops_per_s\": {:.1}, \"abort_pct\": 0.00, \
             \"c_htm\": 0.00, \"c_rot\": 0.00, \"c_sgl\": 0.00, \"c_uninstr\": 0.00, \
             \"p50_us\": {:.1}, \"p90_us\": {:.1}, \"p99_us\": {:.1}, \
             \"p999_us\": {:.1}, \"max_us\": {:.1}, \"sent\": {}, \
             \"received\": {}, \"errors\": {}, \"shed\": {}{writev}{per_class}}}",
            json_string(&section),
            json_string(&scheme),
            json_string(&backend),
            cfg.conns,
            cfg.write_pct,
            res.elapsed,
            res.ops_per_s(),
            us(res.all.p50()),
            us(res.all.p90()),
            us(res.all.p99()),
            us(res.all.p999()),
            us(res.all.max()),
            res.sent,
            res.received,
            res.errors,
            res.shed,
        );
    } else {
        let mode = if cfg.total_rate > 0 {
            format!("open loop @ {} ops/s aggregate", cfg.total_rate)
        } else if cfg.pipeline > 1 {
            format!("closed loop, pipeline {}", cfg.pipeline)
        } else {
            String::from("closed loop")
        };
        println!(
            "loadgen: {} conns, {}% writes, {}% scans, {mode}, scheme {scheme}, \
             backend {backend}",
            cfg.conns, cfg.write_pct, cfg.scan_pct
        );
        println!(
            "  elapsed {:.3} s, sent {}, received {} ({:.0} ops/s)",
            res.elapsed,
            res.sent,
            res.received,
            res.ops_per_s()
        );
        println!(
            "  latency p50 {:.1} us, p90 {:.1} us, p99 {:.1} us, p99.9 {:.1} us, max {:.1} us",
            us(res.all.p50()),
            us(res.all.p90()),
            us(res.all.p99()),
            us(res.all.p999()),
            us(res.all.max())
        );
        for (i, name) in CLASS_NAMES.iter().enumerate() {
            if res.hists[i].count() > 0 {
                println!(
                    "  {name:>5}: {} ops, p50 {:.1} us, p99 {:.1} us",
                    res.hists[i].count(),
                    us(res.hists[i].p50()),
                    us(res.hists[i].p99())
                );
            }
        }
        println!(
            "  busy (shed) {}, not-found {}, errors {}",
            res.shed, res.not_found, res.errors
        );
        if let Some(s) = &res.server {
            println!(
                "  server: {} enqueued, {} replied, {} shed, {} malformed, \
                 {} timeouts, {} conns",
                s.enqueued, s.replied, s.shed, s.malformed, s.timeouts, s.conns
            );
            if s.batches > 0 {
                println!(
                    "  amortization: {:.2} ops/batch, {:.4} barriers/mutation \
                     ({} full + {} shared; at most one per touched shard), {} writev",
                    s.mean_batch(),
                    s.barriers_per_mutation(),
                    s.barriers,
                    s.barriers_shared,
                    s.writev_calls
                );
            }
        }
    }
    if res.errors > 0 {
        eprintln!("loadgen: {} errors", res.errors);
        exit(1);
    }
    if res.sent != res.received {
        eprintln!(
            "loadgen: sent {} but received {} replies",
            res.sent, res.received
        );
        exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_names_every_accepted_flag() {
        assert_eq!(Args::undocumented(FLAGS, USAGE), None);
    }
}
