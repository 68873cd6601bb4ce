//! Start-to-first-reply of a durable `rwled` against the length of its
//! redo log: the rows of `results/recovery.txt`.
//!
//! ```text
//! cargo run --release -p svc --example recovery_time -- \
//!     --rwled target/release/rwled --ops 150000,600000,2400000 \
//!     [--prefill N] [--label NAME]
//! ```
//!
//! For each log length it writes one log — records of 64 mutations of
//! keys below the prefill (`--prefill`, default 100 000), PUT or DEL
//! with even odds, the shape of the log `benchmark/` replays for
//! `recover_s` — then starts `rwled --backend native --shards 16
//! --threads 2 --prefill N --wal-dir D --fsync off` eight times. Each
//! start is timed from spawn to the first reply (a STATS exchange) and
//! then killed. One row per length:
//! the median, fastest and slowest start, the median of each phase
//! the `rwled recovered:` line reports, and the medians of the minor
//! page faults the server had taken and the KiB of huge pages it held
//! at its first reply, read from its `/proc` entry. Builds before the
//! one-merge start-up report prefill, read+check and apply; later ones
//! read+check and build (sort and merge, prefill included). A phase the
//! binary does not report prints `-`, so `--rwled` may name any build,
//! and two revisions are compared by alternating runs with each binary.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

use bench::Args;
use rand::{Rng, SeedableRng};
use svc::procstat;
use svc::proto::{read_frame, Request, Response};
use wal::{FsyncPolicy, Wal};
use workloads::backend::{DurableSink, MutOp};

const FLAGS: &[&str] = &["help", "rwled", "ops", "prefill", "label"];

const USAGE: &str = "\
usage: recovery_time --rwled PATH --ops N[,N...] [--prefill N] [--label NAME] [--help]

  Writes a synthetic redo log of each --ops length and times eight
  starts of the --rwled binary on it, spawn to first reply. Keys
  0..--prefill (default 100000) are in the store before the log, and
  the log's keys are drawn from the same range.";

/// Starts timed per log length.
const STARTS: usize = 8;

/// The phases `rwled recovered:` reports, in ms, old and new names.
const PHASES: [&str; 4] = ["prefill ", "read+check ", "apply ", "build "];

/// What a start reports: each phase's ms, then the server's minor faults
/// and KiB of huge pages.
const COLUMNS: usize = PHASES.len() + 2;

fn main() {
    let args = Args::parse();
    args.expect_only(FLAGS, USAGE);
    if args.flag("help") {
        println!("{USAGE}");
        return;
    }
    let (Some(rwled), Some(lengths)) = (args.get("rwled"), args.list::<u64>("ops")) else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    let prefill: u64 = args.get_or("prefill", 100_000);
    if prefill == 0 {
        eprintln!("--prefill must be positive: the log's keys are drawn below it");
        std::process::exit(2);
    }
    let label = args.get("label").unwrap_or("rwled");
    let dir = std::env::temp_dir().join(format!("recovery-time-{}", std::process::id()));
    println!(
        "# {label}: native, prefill {prefill}, {STARTS} starts per log; ms: start = spawn to \
         first reply (median min max), then the median phase split rwled reports; then the \
         median minor faults and KiB of huge pages of the server at its first reply"
    );
    println!(
        "label log_ops records start_ms min_ms max_ms prefill_ms read_ms apply_ms build_ms \
         faults huge_kib"
    );
    for ops in lengths {
        let _ = std::fs::remove_dir_all(&dir);
        let records = write_log(&dir, ops, prefill);
        let mut times = Vec::new();
        let mut columns: [Vec<f64>; COLUMNS] = Default::default();
        for _ in 0..STARTS {
            let (ms, row) = start(rwled, &dir, prefill);
            times.push(ms);
            for (all, one) in columns.iter_mut().zip(row) {
                all.extend(one);
            }
        }
        let split: Vec<String> = columns
            .iter_mut()
            .enumerate()
            .map(|(i, column)| match median(column) {
                Some(ms) if i < PHASES.len() => format!("{ms:.1}"),
                Some(count) => format!("{count:.0}"),
                None => "-".into(),
            })
            .collect();
        // Sorts `times`, so the extremes are its ends.
        let start_ms = median(&mut times).expect("at least one start");
        let (lo, hi) = (times[0], times[times.len() - 1]);
        println!(
            "{label} {ops} {records} {start_ms:.1} {lo:.1} {hi:.1} {}",
            split.join(" ")
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn median(v: &mut [f64]) -> Option<f64> {
    v.sort_by(f64::total_cmp);
    v.get(v.len() / 2).copied()
}

/// Writes `ops` mutations of keys below `prefill` in records of 64;
/// returns the record count.
fn write_log(dir: &Path, ops: u64, prefill: u64) -> u64 {
    let mut rng = rand::rngs::SmallRng::seed_from_u64(0x10d);
    let wal = Wal::open(dir, FsyncPolicy::Off, 1).expect("open the log");
    let (mut left, mut records, mut record) = (ops, 0, Vec::with_capacity(64));
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
        records += 1;
    }
    records
}

/// One start: spawn to the first STATS reply, in ms, and its
/// [`COLUMNS`]: the phases of the recovery line, each when the binary
/// reports it, and the server's minor faults and KiB of huge pages at
/// that reply, where `/proc` has them.
fn start(rwled: &str, dir: &Path, prefill: u64) -> (f64, [Option<f64>; COLUMNS]) {
    let t0 = Instant::now();
    let mut child = Command::new(rwled)
        .args([
            "--port",
            "0",
            "--threads",
            "2",
            "--shards",
            "16",
            "--fsync",
            "off",
        ])
        .args(["--backend", "native", "--prefill", &prefill.to_string()])
        .arg("--wal-dir")
        .arg(dir)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn rwled");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped"));
    let (mut line, mut row) = (String::new(), [None; COLUMNS]);
    let addr = loop {
        line.clear();
        assert!(
            stdout.read_line(&mut line).expect("read") > 0,
            "rwled exited"
        );
        if line.starts_with("rwled recovered:") {
            row[..PHASES.len()].copy_from_slice(&phase_split(&line));
        }
        if let Some(rest) = line.strip_prefix("rwled listening on ") {
            break rest.split_whitespace().next().expect("address").to_string();
        }
    };
    let mut c = TcpStream::connect(&addr).expect("connect");
    c.write_all(&Request::Stats.to_frame()).expect("send");
    let reply = Response::decode(&read_frame(&mut c).expect("reply")).expect("decode");
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    assert!(matches!(reply, Response::Stats(_)), "first reply {reply:?}");
    let pid = child.id().to_string();
    row[PHASES.len()] = procstat::minor_faults(&pid).map(|n| n as f64);
    row[PHASES.len() + 1] = procstat::huge_page_kib(&pid).map(|kib| kib as f64);
    child.kill().expect("kill rwled");
    child.wait().expect("reap rwled");
    (ms, row)
}

/// Each phase's `NAME T ms` from the recovery line, `None` where it
/// has none.
fn phase_split(line: &str) -> [Option<f64>; PHASES.len()] {
    PHASES.map(|phase| {
        let at = line.find(phase)? + phase.len();
        line[at..].split_whitespace().next()?.parse().ok()
    })
}
