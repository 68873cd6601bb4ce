//! `rwled-bench` — end-to-end and per-layer benchmark of the `rwled` KV
//! service. See `README.md` for the metric glossary and the workloads.
//!
//! ```text
//! rwled-bench [--seed N] [--seconds S] [--repeat 2] [--quick]
//! rwled-bench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Without `--workload` it is the suite: it builds `rwled`, runs every
//! workload end to end and layer by layer, verifies the outputs and
//! prints every metric by name with its unit. With `--workload` it is
//! one run in the driver's dialect: `--trace 0` measures the end-to-end
//! metrics, `--trace 1` the per-layer ones, and the last line of stdout
//! is the result as one JSON object. Exit code 0 means every output was
//! correct (and, with `--repeat 2`, that both sets agree within the
//! metrics' bounds).

mod calib;
mod client;
mod gen;
mod layers;
mod mathx;
mod metrics;
mod proc;
mod run;
mod trace;

use std::process::ExitCode;

use gen::{Workload, WORKLOADS};
use metrics::{Better, Values, END_TO_END, PER_LAYER};
use run::{Ctx, Outcome, Timing};

const USAGE: &str = "\
usage: rwled-bench [--seed N] [--seconds S] [--repeat 2] [--quick]
       rwled-bench --workload NAME --seed N --seconds S --trace 0|1

  --workload NAME  run one workload and end with a JSON result line:
                   svc-read, svc-write, svc-paced, svc-durable, svc-sim
  --trace 0|1      0: end-to-end metrics (default); 1: per-layer metrics
  --seed N         generator seed (default 1)
  --seconds S      measured seconds per run, in cycles of 200 ms load
                   and 50 ms host calibration
                   (default 16)
  --repeat 2       run the suite twice and check that every workload's
                   end-to-end metrics agree within their bounds
  --quick          1 s warm-up, 2 windows of 1 s, no canaries (smoke runs)";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    quick: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 16.0,
        trace: false,
        repeat: 1,
        quick: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: &str| format!("bad value {v:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                args.seed = v.parse().map_err(|_| bad(&v))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v.parse().map_err(|_| bad(&v))?;
                if !(args.seconds >= 1.0 && args.seconds <= 600.0) {
                    return Err(bad(&v));
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--repeat" => {
                let v = value()?;
                args.repeat = v.parse().map_err(|_| bad(&v))?;
                if !(1..=2).contains(&args.repeat) {
                    return Err(bad(&v));
                }
            }
            "--quick" => args.quick = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// What the numbers depend on besides the code: printed with every run.
fn stamp(seed: u64, timing: &Timing) {
    let uname = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    println!(
        "rwled-bench: nproc {}, {} connections, git {}, {}, kernel {}, WAL and traces under {} ({})",
        proc::nproc(),
        run::conns(),
        proc::command_line_output("git", &["rev-parse", "--short", "HEAD"]),
        proc::command_line_output("rustc", &["--version"]),
        uname.trim(),
        proc::out_dir().display(),
        proc::filesystem_of(&proc::out_dir()),
    );
    let c = &timing.cycles;
    println!(
        "  seed {seed}, {} warm-up + {} measured cycles of {} ms load and {} ms host calibration; \
         every value is the median of its windows, normalised to the nominal host speed",
        c.warm,
        c.windows,
        c.active.as_millis(),
        c.gap.as_millis()
    );
}

fn finish(defs: &[(&str, &str)], outcome: &Outcome) -> ExitCode {
    let correct = outcome.failed == 0;
    println!(
        "{}",
        metrics::result_json(
            correct,
            outcome.attempted.max(1),
            outcome.failed,
            defs.iter().copied(),
            &outcome.values
        )
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One run in the driver's dialect.
fn single(w: &Workload, trace: bool, ctx: &Ctx) -> std::io::Result<ExitCode> {
    println!(
        "{} ({}): {}",
        w.name,
        if trace { "per layer" } else { "end to end" },
        w.why
    );
    if trace {
        let defs: Vec<_> = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
        Ok(finish(&defs, &run::per_layer(w, ctx)?))
    } else {
        let defs: Vec<_> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
        Ok(finish(&defs, &run::end_to_end(w, ctx)?))
    }
}

/// Every workload, end to end and per layer. Returns the end-to-end
/// values per workload and the failed/attempted totals.
fn suite(ctx: &Ctx) -> std::io::Result<(Vec<Values>, u64, u64)> {
    let mut values = Vec::new();
    let (mut failed, mut attempted) = (0, 0);
    for w in &WORKLOADS {
        println!("\n== {} — {}", w.name, w.why);
        println!(" end to end:");
        let e2e = run::end_to_end(w, ctx)?;
        println!(" per layer:");
        let layers = run::per_layer(w, ctx)?;
        failed += e2e.failed + layers.failed;
        attempted += e2e.attempted + layers.attempted;
        values.push(e2e.values);
    }
    Ok((values, failed, attempted))
}

/// Prints both sets side by side; returns how many workload × metric
/// pairs differ by more than the metric's bound.
fn agreement(first: &[Values], second: &[Values]) -> usize {
    println!("\n== agreement of two sets of runs (difference of the second from the first)");
    println!(
        "  {:<12} {:<13} {:>14} {:>14} {:>8} {:>7}",
        "workload", "metric", "first", "second", "worse", "bound"
    );
    let mut over = 0;
    for ((w, a), b) in WORKLOADS.iter().zip(first).zip(second) {
        for def in &END_TO_END {
            let (Some(a), Some(b)) = (a.get(def.name), b.get(def.name)) else {
                continue;
            };
            // Positive when the second set is worse than the first.
            let worse = match def.better {
                Better::Higher => (a - b) / a,
                Better::Lower => (b - a) / a,
            };
            let verdict = if worse.abs() > def.bound {
                over += 1;
                "  DISAGREE"
            } else {
                ""
            };
            println!(
                "  {:<12} {:<13} {a:>14.4} {b:>14.4} {:>7.1}% {:>6.0}%{verdict}",
                w.name,
                def.name,
                100.0 * worse,
                100.0 * def.bound
            );
        }
    }
    over
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("rwled-bench: {e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let workload = match args.workload.as_deref().map(gen::workload) {
        Some(None) => {
            eprintln!("rwled-bench: unknown workload; the workloads are:");
            for w in &WORKLOADS {
                eprintln!("  {:<12} {}", w.name, w.why);
            }
            return ExitCode::from(2);
        }
        Some(Some(w)) => Some(w),
        None => None,
    };
    let result = (|| -> std::io::Result<ExitCode> {
        let (rwled, build_s) = proc::build_rwled()?;
        std::fs::create_dir_all(proc::out_dir())?;
        let timing = if args.quick {
            Timing::quick()
        } else {
            Timing::over(args.seconds)
        };
        let ctx = Ctx {
            rwled,
            build_s,
            seed: args.seed,
            timing,
        };
        stamp(ctx.seed, &ctx.timing);
        println!("  cargo build --release -p svc took {build_s:.2} s (excluded from setup_s)");
        if let Some(w) = workload {
            return single(w, args.trace, &ctx);
        }
        let (first, mut failed, mut attempted) = suite(&ctx)?;
        let mut disagreements = 0;
        if args.repeat == 2 {
            let (second, f, a) = suite(&ctx)?;
            failed += f;
            attempted += a;
            disagreements = agreement(&first, &second);
        }
        println!("\nfailed/attempted over all runs: {failed}/{attempted}");
        Ok(if failed == 0 && disagreements == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        })
    })();
    result.unwrap_or_else(|e| {
        eprintln!("rwled-bench: {e}");
        ExitCode::FAILURE
    })
}
