//! Benchmark-regression gate for CI.
//!
//! Compares a freshly measured harness result file against the committed
//! benchmark record (`BENCH_rwle.json`): every fresh row whose
//! (section, scheme, backend, threads, w) configuration appears among the
//! record's rows must reach at least `(100 - tolerance)%` of the recorded
//! throughput. The backend is part of the key, so sim and native rows
//! gate independently and are never compared against each other. Rows only present on one side — a fresh
//! row with no record, or a recorded row of a measured
//! (section, backend, threads, w) cell with no fresh counterpart — are
//! reported but do not fail the gate; zero matched rows does.
//!
//! The default tolerance is deliberately generous (30%): CI runners are
//! noisy and the goal is to catch order-of-magnitude fast-path
//! regressions, not single-digit drift.
//!
//! `--relative-to <scheme>` additionally divides every ratio by the
//! named canary scheme's fresh/recorded ratio at the same
//! (section, threads, w). Host-speed drift (a slower CI runner, a busy
//! neighbour on a shared box) moves every scheme's absolute throughput
//! together, so normalising by a scheme that uses none of the machinery
//! under test (SGL — a single global lock) cancels the drift while a
//! genuine fast-path regression still shows up as the instrumented
//! schemes falling *relative to* the canary. The canary's own row always
//! passes by construction and is reported as `canary` — so every section
//! the canary matched in must also match at least one other row, or the
//! gate fails: a renamed label or a dropped scheme must not leave the
//! canary comparing itself to itself.
//!
//! ## The SLO row dialect
//!
//! Rows whose section starts with `svc slo` come from the load
//! generator's shared-pacing open loop (`loadgen --total-rate`), where
//! throughput is pinned to the arrival rate by construction — comparing
//! ops/s would gate nothing. These rows gate the p99 latency instead:
//! the fresh p99 must stay within `--slo-factor` (default 4x) of the
//! recorded one. The factor is wide because tail latency on shared CI
//! runners is far noisier than throughput; the gate exists to catch the
//! pathological regime (a batching or readiness bug pushing the tail
//! from milliseconds to hundreds of milliseconds), not scheduler jitter.
//!
//! ```text
//! cargo run --release -p bench --bin sensitivity -- --scenario hc-lc > fresh.txt
//! cargo run --release -p bench --bin regress -- --file fresh.txt --against BENCH_rwle.json
//! ```

use std::collections::{BTreeMap, BTreeSet};

use bench::{parse_results, Args, ResultRow};

/// Every flag this binary accepts; anything else exits 2.
const FLAGS: &[&str] = &["file", "against", "tolerance", "slo-factor", "relative-to"];

const USAGE: &str = "\
usage: regress --file <fresh-results> --against <BENCH_rwle.json>
               [--tolerance 30] [--slo-factor 4] [--relative-to SGL]

  Exit 1 if a fresh row falls more than --tolerance percent below its
  recorded throughput (svc slo rows: p99 above --slo-factor times the
  recorded one), or if nothing but the canary matched the record.
  --relative-to SCHEME divides every ratio by that scheme's own
  fresh/recorded drift at the same configuration.";

fn main() {
    let args = Args::parse();
    args.expect_only(FLAGS, USAGE);
    let (Some(file), Some(against)) = (args.get("file"), args.get("against")) else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    let tolerance: f64 = args.get_or("tolerance", 30.0);
    let slo_factor: f64 = args.get_or("slo-factor", 4.0);
    let canary = args.get("relative-to").map(str::to_owned);
    let fresh = parse_results(file);
    // Every row of the record: `summarize --json-out` writes one per line.
    let record = parse_results(against);
    if record.is_empty() {
        eprintln!("no rows found in {against}");
        std::process::exit(2);
    }

    let mut recorded: BTreeMap<(&str, &str, &str, u32, u32), &ResultRow> = BTreeMap::new();
    for (section, r) in &record {
        recorded.insert((section, &r.scheme, &r.backend, r.threads, r.w), r);
    }
    // The canary's fresh/recorded drift per (section, backend, threads,
    // w): only configurations where the canary appears on both sides
    // normalise; the rest fall back to the absolute ratio.
    let mut drift: BTreeMap<(&str, &str, u32, u32), f64> = BTreeMap::new();
    if let Some(canary) = &canary {
        for (section, r) in &fresh {
            if &r.scheme != canary {
                continue;
            }
            let Some(base) = recorded.get(&(
                section.as_str(),
                canary.as_str(),
                r.backend.as_str(),
                r.threads,
                r.w,
            )) else {
                continue;
            };
            if base.ops_per_s > 0.0 && r.ops_per_s > 0.0 {
                drift.insert(
                    (section.as_str(), r.backend.as_str(), r.threads, r.w),
                    r.ops_per_s / base.ops_per_s,
                );
            }
        }
        if drift.is_empty() {
            eprintln!("--relative-to {canary}: no canary row present on both sides");
            std::process::exit(2);
        }
    }

    let floor = 1.0 - tolerance / 100.0;
    let mut matched = 0usize;
    let mut failures = 0usize;
    // Sections in which a row other than the canary's was compared.
    let mut gated: BTreeSet<&str> = BTreeSet::new();
    // Cells the fresh file measured, and the recorded rows it has not
    // matched yet.
    let mut measured: BTreeSet<(&str, &str, u32, u32)> = BTreeSet::new();
    let mut unmatched = recorded.clone();
    println!("# Regression check: {file} vs {against} (tolerance {tolerance}%)");
    if let Some(canary) = &canary {
        println!("# ratios normalised by the {canary} fresh/recorded drift per configuration");
    }
    println!(
        "{:<11} {:<7} {:>3} {:>4} {:>12} {:>12} {:>7}  verdict",
        "scheme", "backend", "thr", "w", "recorded", "fresh", "ratio"
    );
    for (section, r) in &fresh {
        measured.insert((section, &r.backend, r.threads, r.w));
        let key = (
            section.as_str(),
            r.scheme.as_str(),
            r.backend.as_str(),
            r.threads,
            r.w,
        );
        unmatched.remove(&key);
        let Some(&base) = recorded.get(&key) else {
            println!(
                "{:<11} {:<7} {:>3} {:>4} {:>12} {:>12.0} {:>7}  fresh only (no recorded row)",
                r.scheme, r.backend, r.threads, r.w, "-", r.ops_per_s, "-"
            );
            continue;
        };
        matched += 1;
        let is_canary = canary.as_deref() == Some(r.scheme.as_str());
        if !is_canary {
            gated.insert(section);
        }
        // SLO rows (shared-pacing open loop) gate tail latency, not
        // throughput: the arrival rate fixes ops/s by construction.
        if section.starts_with("svc slo") {
            let (rec_p99, fresh_p99) = match (base.latency_us, r.latency_us) {
                (Some(b), Some(f)) => (b[2], f[2]),
                _ => {
                    failures += 1;
                    println!(
                        "{:<11} {:<7} {:>3} {:>4} {:>12} {:>12} {:>7}  SLO row missing p99",
                        r.scheme, r.backend, r.threads, r.w, "-", "-", "-"
                    );
                    continue;
                }
            };
            let ok = rec_p99 > 0.0 && fresh_p99 <= rec_p99 * slo_factor;
            if !ok {
                failures += 1;
            }
            println!(
                "{:<11} {:<7} {:>3} {:>4} {:>10.0}us {:>10.0}us {:>6.2}x  {}",
                r.scheme,
                r.backend,
                r.threads,
                r.w,
                rec_p99,
                fresh_p99,
                fresh_p99 / rec_p99.max(1e-9),
                if ok { "slo ok" } else { "SLO REGRESSION (p99)" }
            );
            continue;
        }
        let mut ratio = if base.ops_per_s > 0.0 {
            r.ops_per_s / base.ops_per_s
        } else {
            1.0
        };
        if !is_canary {
            if let Some(d) = drift.get(&(section.as_str(), r.backend.as_str(), r.threads, r.w)) {
                ratio /= d;
            }
        }
        let ok = is_canary || ratio >= floor;
        if !ok {
            failures += 1;
        }
        println!(
            "{:<11} {:<7} {:>3} {:>4} {:>12.0} {:>12.0} {:>6.2}x  {}",
            r.scheme,
            r.backend,
            r.threads,
            r.w,
            base.ops_per_s,
            r.ops_per_s,
            ratio,
            if is_canary {
                "canary"
            } else if ok {
                "ok"
            } else {
                "REGRESSION"
            }
        );
    }
    // Recorded rows of a cell the fresh file measured, whose scheme it
    // did not: reported, so a dropped scheme is visible in the gate's log.
    for (&(section, _, backend, threads, w), base) in &unmatched {
        if measured.contains(&(section, backend, threads, w)) {
            println!(
                "{:<11} {:<7} {:>3} {:>4} {:>12.0} {:>12} {:>7}  recorded only (not measured)",
                base.scheme, base.backend, base.threads, base.w, base.ops_per_s, "-", "-"
            );
        }
    }
    if matched == 0 {
        eprintln!(
            "no fresh row matched the record — section/scheme/backend/threads/w \
             keys must line up with the committed BENCH_rwle.json"
        );
        std::process::exit(1);
    }
    if let Some(canary) = &canary {
        if let Some((section, ..)) = drift.keys().find(|(s, ..)| !gated.contains(s)) {
            eprintln!(
                "--relative-to {canary}: only the canary's own rows matched the record in \
                 section {section:?} — nothing is gated there (renamed label? dropped scheme?)"
            );
            std::process::exit(1);
        }
    }
    println!("# {matched} row(s) compared, {failures} regression(s)");
    if failures > 0 {
        std::process::exit(1);
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
