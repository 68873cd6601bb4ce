//! Post-processes harness output: paper-style speedup tables, and the
//! benchmark record.
//!
//! Reads the result files named by `--file a,b,c` (text tables or
//! `loadgen --json` lines) and prints, per (section, w, threads), each
//! scheme's speedup over the baseline the paper compares against
//! (`--baseline`, default HLE). With `--json-out PATH` it also writes the
//! machine-readable benchmark record, `BENCH_rwle.json` at the repo root:
//! every row of every file in the order given, and per file the
//! `# recorded at <rev>, nproc=<n>, with: <command>` line it must open
//! with. The record is a pure function of the files named — nothing else
//! writes it, so CI rebuilds it and `cmp`s:
//!
//! ```text
//! cargo run --release -p bench --bin summarize -- --file results/sensitivity_full.txt
//! cargo run --release -p bench --bin summarize -- --json-out BENCH_rwle.json \
//!     --file results/sensitivity.txt,results/indicators.txt,results/svc_gates.txt
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;

use bench::{json_string, parse_results, Args, ResultRow as Row, RECORDED_AT};

/// Every flag this binary accepts; anything else exits 2.
const FLAGS: &[&str] = &["file", "baseline", "json-out"];

const USAGE: &str = "\
usage: summarize --file <results.txt>[,<more.txt>..] [--baseline HLE]
                 [--json-out <BENCH_rwle.json>]

  Prints each scheme's speedup over --baseline per (section, w, threads).
  --json-out writes the benchmark record: every row of every --file, in
  order; each file must open with its '# recorded at ...' line.";

/// One `"rows"` entry of the benchmark record.
fn json_row(section: &str, r: &Row) -> String {
    // Service rows (`loadgen --json`) carry latency quantiles, which the
    // SLO gate reads.
    let latency = match r.latency_us {
        Some([p50, p90, p99, p999, max]) => format!(
            ", \"p50_us\": {p50:.1}, \"p90_us\": {p90:.1}, \"p99_us\": {p99:.1}, \
             \"p999_us\": {p999:.1}, \"max_us\": {max:.1}"
        ),
        None => String::new(),
    };
    format!(
        "{{\"section\": {}, \"scheme\": {}, \"backend\": {}, \
         \"threads\": {}, \"w\": {}, \
         \"time_s\": {:.6}, \"ops_per_s\": {:.1}, \"abort_pct\": {:.2}, \
         \"c_htm\": {:.2}, \"c_rot\": {:.2}, \"c_sgl\": {:.2}, \"c_uninstr\": {:.2}{latency}}}",
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

/// The provenance of `path`: what follows `# recorded at ` on its first
/// line. Exits 2 if the file does not open with one — a record row must
/// be traceable to a revision, a host and a command.
fn recorded_at(path: &str) -> String {
    // `parse_results` has read `path` already, so it is readable.
    let text = std::fs::read_to_string(path).unwrap_or_default();
    let first = text.lines().next().unwrap_or_default();
    match first
        .strip_prefix("# ")
        .and_then(|l| l.strip_prefix(RECORDED_AT))
    {
        Some(provenance) => provenance.to_string(),
        None => {
            eprintln!(
                "{path} does not open with '# {RECORDED_AT}<rev>, nproc=<n>, with: <command>'"
            );
            std::process::exit(2);
        }
    }
}

/// Writes the benchmark record: one `sources` entry per file, then every
/// row, one object per line (`regress` and `parse_results` read lines).
fn write_record(path: &str, files: &[String], parsed: &[Vec<(String, Row)>]) {
    let mut doc = String::from("{\n  \"schema\": \"hrwle-bench-v2\",\n  \"sources\": [\n");
    for (i, (file, rows)) in files.iter().zip(parsed).enumerate() {
        let sep = if i + 1 < files.len() { "," } else { "" };
        let _ = writeln!(
            doc,
            "    {{\"file\": {}, \"recorded\": {}, \"rows\": {}}}{sep}",
            json_string(file),
            json_string(&recorded_at(file)),
            rows.len(),
        );
    }
    doc.push_str("  ],\n  \"rows\": [\n");
    let rows: Vec<_> = parsed.iter().flatten().collect();
    for (i, (section, row)) in rows.iter().enumerate() {
        let sep = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(doc, "    {}{sep}", json_row(section, row));
    }
    doc.push_str("  ]\n}\n");
    if let Err(e) = std::fs::write(path, &doc) {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(2);
    }
    eprintln!("wrote {path}");
}

fn main() {
    let args = Args::parse();
    args.expect_only(FLAGS, USAGE);
    let Some(files) = args.list::<String>("file") else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    let baseline = args.get("baseline").unwrap_or("HLE").to_string();
    let parsed: Vec<_> = files.iter().map(|file| parse_results(file)).collect();
    if let Some(empty) = files.iter().zip(&parsed).find(|(_, rows)| rows.is_empty()) {
        eprintln!("no result rows found in {}", empty.0);
        std::process::exit(1);
    }

    if let Some(json_out) = args.get("json-out") {
        write_record(json_out, &files, &parsed);
    }

    // Group by (section, backend, w, threads) — speedups are only
    // meaningful between rows measured on the same backend.
    let mut groups: BTreeMap<(String, String, u32, u32), Vec<Row>> = BTreeMap::new();
    for (section, row) in parsed.into_iter().flatten() {
        groups
            .entry((section, row.backend.clone(), row.w, row.threads))
            .or_default()
            .push(row);
    }

    println!("# Speedups vs {baseline} (from {})", files.join(","));
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_names_every_accepted_flag() {
        assert_eq!(Args::undocumented(FLAGS, USAGE), None);
    }
}
