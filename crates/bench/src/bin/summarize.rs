//! Post-processes figure-harness output into paper-style comparisons.
//!
//! Reads one or more result files produced by the other binaries (text
//! table or `--json` format) and prints, per (section, w, threads), each
//! scheme's speedup over the baselines the paper compares against (HLE
//! and SGL). With `--json-out PATH` it also writes the machine-readable
//! benchmark record (`BENCH_rwle.json` at the repo root by convention):
//! every row of `--file` tagged `"set": "current"`, every row of the
//! optional `--prev` file tagged `"set": "baseline"`, plus per-row
//! speedup comparisons wherever the two sets share a configuration.
//!
//! ```text
//! cargo run --release -p bench --bin summarize -- --file results/sensitivity_full.txt
//! cargo run --release -p bench --bin summarize -- \
//!     --file results/sensitivity_pr3.txt --prev results/sensitivity_post.txt \
//!     --json-out BENCH_rwle.json
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;

use bench::{json_string, parse_results as parse, Args, ResultRow as Row};

/// One `"set": ...` row object of the benchmark-record JSON.
fn json_row(set: &str, section: &str, r: &Row) -> String {
    // Service-layer rows (loadgen --json) carry latency quantiles;
    // forward them so BENCH_rwle.json keeps them. `regress` ignores
    // keys it does not know.
    let latency = match r.latency_us {
        Some([p50, p90, p99, p999, max]) => format!(
            ", \"p50_us\": {p50:.1}, \"p90_us\": {p90:.1}, \"p99_us\": {p99:.1}, \
             \"p999_us\": {p999:.1}, \"max_us\": {max:.1}"
        ),
        None => String::new(),
    };
    format!(
        "{{\"set\": {}, \"section\": {}, \"scheme\": {}, \"backend\": {}, \
         \"threads\": {}, \"w\": {}, \
         \"time_s\": {:.6}, \"ops_per_s\": {:.1}, \"abort_pct\": {:.2}, \
         \"c_htm\": {:.2}, \"c_rot\": {:.2}, \"c_sgl\": {:.2}, \"c_uninstr\": {:.2}{latency}}}",
        json_string(set),
        json_string(section),
        json_string(&r.scheme),
        json_string(&r.backend),
        r.threads,
        r.w,
        r.time_s,
        r.ops_per_s,
        r.abort_pct,
        r.commit_mix[0],
        r.commit_mix[1],
        r.commit_mix[2],
        r.commit_mix[3],
    )
}

/// Writes the benchmark-record JSON: current rows, baseline rows, and a
/// speedup comparison per configuration present in both sets.
fn write_json_record(
    path: &str,
    current: &[(String, Row)],
    current_src: &str,
    baseline: &[(String, Row)],
    baseline_src: Option<&str>,
) {
    let mut doc = String::new();
    doc.push_str("{\n");
    let _ = writeln!(doc, "  \"schema\": \"hrwle-bench-v1\",");
    let _ = writeln!(doc, "  \"current_source\": {},", json_string(current_src));
    if let Some(src) = baseline_src {
        let _ = writeln!(doc, "  \"baseline_source\": {},", json_string(src));
    }
    doc.push_str("  \"rows\": [\n");
    let mut first = true;
    for (section, row) in baseline {
        if !first {
            doc.push_str(",\n");
        }
        first = false;
        let _ = write!(doc, "    {}", json_row("baseline", section, row));
    }
    for (section, row) in current {
        if !first {
            doc.push_str(",\n");
        }
        first = false;
        let _ = write!(doc, "    {}", json_row("current", section, row));
    }
    doc.push_str("\n  ],\n  \"comparisons\": [\n");
    // The backend is part of the key: a native row only ever compares
    // against a native baseline, never against a sim one.
    let mut index: BTreeMap<(&str, &str, &str, u32, u32), f64> = BTreeMap::new();
    for (section, r) in baseline {
        index.insert(
            (section, &r.scheme, &r.backend, r.threads, r.w),
            r.ops_per_s,
        );
    }
    first = true;
    for (section, r) in current {
        let Some(&base) = index.get(&(
            section.as_str(),
            r.scheme.as_str(),
            r.backend.as_str(),
            r.threads,
            r.w,
        )) else {
            continue;
        };
        if base <= 0.0 {
            continue;
        }
        if !first {
            doc.push_str(",\n");
        }
        first = false;
        let _ = write!(
            doc,
            "    {{\"section\": {}, \"scheme\": {}, \"backend\": {}, \"threads\": {}, \
             \"w\": {}, \
             \"baseline_ops_per_s\": {:.1}, \"current_ops_per_s\": {:.1}, \"speedup\": {:.3}}}",
            json_string(section),
            json_string(&r.scheme),
            json_string(&r.backend),
            r.threads,
            r.w,
            base,
            r.ops_per_s,
            r.ops_per_s / base,
        );
    }
    doc.push_str("\n  ]\n}\n");
    if let Err(e) = std::fs::write(path, &doc) {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(2);
    }
    eprintln!("wrote {path}");
}

fn main() {
    let args = Args::parse();
    let Some(path) = args.get("file") else {
        eprintln!(
            "usage: summarize --file <results.txt> [--baseline HLE] \
             [--prev <old-results.txt>] [--json-out <BENCH_rwle.json>]"
        );
        std::process::exit(2);
    };
    let baseline = args.get("baseline").unwrap_or("HLE").to_string();
    let rows = parse(path);
    if rows.is_empty() {
        eprintln!("no result rows found in {path}");
        std::process::exit(1);
    }

    if let Some(json_out) = args.get("json-out") {
        let prev_rows = args.get("prev").map(|p| (parse(p), p));
        let (baseline_rows, baseline_src) = match &prev_rows {
            Some((rows, src)) => (rows.as_slice(), Some(*src)),
            None => (&[][..], None),
        };
        write_json_record(json_out, &rows, path, baseline_rows, baseline_src);
    }

    // Group by (section, backend, w, threads) — speedups are only
    // meaningful between rows measured on the same backend.
    let mut groups: BTreeMap<(String, String, u32, u32), Vec<Row>> = BTreeMap::new();
    for (section, row) in rows {
        groups
            .entry((section, row.backend.clone(), row.w, row.threads))
            .or_default()
            .push(row);
    }

    println!("# Speedups vs {baseline} (from {path})");
    println!(
        "{:<55} {:>4} {:>4}  scheme:speedup(abort%)",
        "section", "w", "thr"
    );
    for ((section, _backend, w, threads), rows) in &groups {
        let Some(base) = rows.iter().find(|r| r.scheme == baseline) else {
            continue;
        };
        if base.ops_per_s <= 0.0 {
            continue;
        }
        let mut cells: Vec<String> = rows
            .iter()
            .filter(|r| r.scheme != baseline)
            .map(|r| {
                format!(
                    "{}:{:.2}x({:.0}%)",
                    r.scheme,
                    r.ops_per_s / base.ops_per_s,
                    r.abort_pct
                )
            })
            .collect();
        cells.sort();
        let short: String = section.chars().take(55).collect();
        println!("{short:<55} {w:>4} {threads:>4}  {}", cells.join(" "));
    }
}
