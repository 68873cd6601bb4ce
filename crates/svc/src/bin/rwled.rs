//! `rwled` — the loopback KV server.
//!
//! ```text
//! rwled [--port P] [--threads N] [--scheme NAME] [--backend NAME]
//!       [--shards N] [--prefill N] [--capacity N]
//!       [--max-conns N] [--idle-ms MS]
//!       [--port-file PATH] [--wal-dir DIR]
//!       [--fsync batch|interval:<ms>|off]
//! ```
//!
//! Prints the bound address on stdout, serves until a SHUTDOWN request,
//! then drains and prints the final report (including batch/barrier
//! amortization counters). A durable start prints what recovery read and
//! where its time went first; every start prints what building the store
//! cost in minor page faults, and the huge pages the process then holds,
//! where `/proc` tells. Exit codes: 0 clean drain, 1 runtime
//! failure or drain mismatch, 2 bad configuration or a redo log that
//! does not load.

use std::process::exit;
use std::time::Duration;

use bench::Args;
use svc::procstat;
use svc::server::{Server, ServerConfig};
use workloads::{BackendKind, SchemeKind};

/// Every flag this binary accepts; anything else exits 2.
const FLAGS: &[&str] = &[
    "help",
    "port",
    "threads",
    "scheme",
    "backend",
    "shards",
    "prefill",
    "capacity",
    "max-conns",
    "idle-ms",
    "port-file",
    "wal-dir",
    "fsync",
];

const USAGE: &str = "\
usage: rwled [--port P] [--threads N] [--scheme NAME] [--backend NAME]
             [--shards N] [--prefill N] [--capacity N]
             [--max-conns N] [--idle-ms MS]
             [--port-file PATH] [--wal-dir DIR]
             [--fsync batch|interval:<ms>|off] [--help]

  --port 0 binds an ephemeral port; --port-file writes the bound port
  there for scripts. Schemes: rw-le_opt (default), rw-le_pes, hle, sgl,
  rwl, brlock, ... Backends: sim (default, simulated-HTM pipeline, any
  scheme) or native (plain process memory: rw-le_opt is the RW-LE
  publication store, sgl the single-mutex canary, nothing else runs).
  --max-conns bounds concurrent connections; one over the limit is
  answered Busy and closed.
  --idle-ms drops silent connections (workers sweep every 100 ms, or
  every --idle-ms if that is shorter).
  --wal-dir makes acked mutations durable: the directory's redo log is
  replayed at startup (a torn tail is truncated) and every batch's
  write-set is logged inside its store pass. An ack always waits for
  its record's write into the page cache (a process crash loses no
  acked write); --fsync picks what else it waits for: batch (default,
  group commit — acked means on disk), interval:<ms> (fsync on a
  cadence, a power cut loses at most that), off (never fsync).
  Restarts must reuse the same --prefill, and a --capacity the log fits
  in: a record that does not fit stops the start (exit 2).";

fn main() {
    let args = Args::parse();
    args.expect_only(FLAGS, USAGE);
    if args.flag("help") {
        println!("{USAGE}");
        return;
    }
    let scheme_name = args.get("scheme").unwrap_or("rw-le_opt").to_string();
    let Some(scheme) = SchemeKind::parse(&scheme_name) else {
        eprintln!("unknown scheme {scheme_name:?}");
        eprintln!("hint: try --scheme rw-le_opt, rw-le_pes, hle, or sgl");
        exit(2);
    };
    let backend_name = args.get("backend").unwrap_or("sim").to_string();
    let Some(backend) = BackendKind::parse(&backend_name) else {
        eprintln!("unknown backend {backend_name:?}");
        eprintln!("hint: try --backend sim or --backend native");
        exit(2);
    };
    let fsync = match wal::FsyncPolicy::parse(args.get("fsync").unwrap_or("batch")) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("rwled: {e}");
            eprintln!("hint: --fsync batch (acked = durable), interval:<ms>, or off");
            exit(2);
        }
    };
    let wal_dir = args.get("wal-dir").map(std::path::PathBuf::from);
    let cfg = ServerConfig {
        port: args.get_or("port", 7878u16),
        threads: args.get_or("threads", 4usize),
        scheme,
        backend,
        shards: args.get_or("shards", 16usize),
        prefill: args.get_or("prefill", 100_000u64),
        extra_capacity: args.get_or("capacity", 400_000u64),
        max_conns: args.get_or("max-conns", 1024usize),
        idle_timeout: Duration::from_millis(args.get_or("idle-ms", 10_000u64)),
        wal_dir,
        fsync,
    };
    let durability = match cfg.wal_dir {
        Some(_) => format!("durable fsync={}", cfg.fsync.label()),
        None => "volatile".to_string(),
    };
    let threads = cfg.threads;
    let faults_before = procstat::minor_faults("self");
    let server = match Server::bind(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("rwled: cannot start: {e}");
            eprintln!(
                "hint: pass --port 0 for an ephemeral port if the address is \
                 taken, lower --prefill/--capacity if memory sizing failed, \
                 raise --capacity if the log does not fit, lower --threads \
                 to the simulated store's limit, \
                 or pick --scheme rw-le_opt or sgl with --backend native"
            );
            exit(2);
        }
    };
    let addr = match server.local_addr() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rwled: cannot read bound address: {e}");
            exit(2);
        }
    };
    // What the load cost the memory system, where /proc tells.
    let faults = faults_before
        .zip(procstat::minor_faults("self"))
        .map(|(before, after)| format!("minor faults {}", after - before));
    let huge = procstat::huge_page_kib("self").map(|kib| format!("huge pages {kib} KiB"));
    let memory: Vec<String> = faults.into_iter().chain(huge).collect();
    // Before the port file: a script that waits for the port finds
    // these lines already written.
    match server.recovery() {
        Some(r) => {
            let ms = |d: Duration| d.as_secs_f64() * 1e3;
            let log = &r.replay;
            println!(
                "rwled recovered: {} records ({} ops) from {} segments, \
                 {} torn bytes truncated, next lsn {}; read+check {:.1} ms, \
                 build {:.1} ms{}",
                log.records,
                log.ops,
                log.segments,
                log.truncated_bytes,
                log.next_lsn,
                ms(r.read),
                ms(r.build),
                memory.iter().map(|m| format!(", {m}")).collect::<String>()
            );
        }
        None if !memory.is_empty() => println!("rwled built: {}", memory.join(", ")),
        None => {}
    }
    if let Some(path) = args.get("port-file") {
        if let Err(e) = std::fs::write(path, addr.port().to_string()) {
            eprintln!("rwled: cannot write --port-file {path}: {e}");
            exit(2);
        }
    }
    println!(
        "rwled listening on {addr} ({threads} workers, scheme {scheme_name}, \
         backend {backend_name}, {durability})"
    );
    match server.run() {
        Ok(report) => {
            let s = &report.stats;
            println!(
                "rwled drained: {} enqueued, {} replied, {} shed, {} malformed, \
                 {} timeouts, {} conns",
                s.enqueued, s.replied, s.shed, s.malformed, s.timeouts, s.conns
            );
            println!(
                "  batches: {} ({:.2} ops/batch), barriers: {} full + {} shared \
                 (at most one per touched shard), writev: {}",
                s.batches,
                s.mean_batch(),
                s.barriers,
                s.barriers_shared,
                s.writev_calls
            );
            if s.wal_appends > 0 {
                println!(
                    "  wal: {} appends in {} writes, {} fsyncs ({:.2} appends/fsync), {} bytes",
                    s.wal_appends,
                    report.wal_writes,
                    s.wal_fsyncs,
                    s.wal_appends as f64 / s.wal_fsyncs.max(1) as f64,
                    s.wal_bytes
                );
            }
            println!("  {}", report.summary);
            if !report.drained() {
                eprintln!(
                    "rwled: drain mismatch: {} enqueued but {} replied",
                    s.enqueued, s.replied
                );
                exit(1);
            }
        }
        Err(e) => {
            eprintln!("rwled: server error: {e}");
            exit(1);
        }
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
