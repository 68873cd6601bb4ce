//! Shared infrastructure for the figure-regeneration binaries.
//!
//! Each binary in `src/bin/` regenerates one figure (or figure family) of
//! the paper, printing the same three panels per configuration — execution
//! time/throughput, abort-cause breakdown, commit-type breakdown — as
//! one aligned text table. JSON rows have two producers only: `summarize
//! --json-out` (the benchmark record) and `loadgen --json` (service rows);
//! [`parse_results`] reads the table and both.
//!
//! Every grid binary takes [`GRID_FLAGS`]:
//!
//! * `--threads 1,2,4,8` — thread counts to sweep;
//! * `--full` — the paper's full grid (thread counts up to 80);
//! * `--ops N` — operations per thread;
//! * `--runs N` — repetitions averaged per configuration;
//! * `--seed N` — base RNG seed.
//!
//! Every binary exits 2, naming the offender, on a flag it does not know
//! or a stray positional argument.

#![warn(missing_docs)]

use std::collections::HashMap;

use stats::{AbortBucket, CommitKind, StatsSummary};
use workloads::driver::RunResult;
use workloads::SchemeKind;

/// A minimal `--flag value` / `--flag` / `--flag=value` argument parser.
pub struct Args {
    named: HashMap<String, String>,
    flags: Vec<String>,
    strays: Vec<String>,
}

impl Args {
    /// Parses `std::env::args()` (skipping the binary name).
    ///
    /// A flag followed by a non-`--` token consumes it as its value; a
    /// value that itself starts with `--` must be attached with
    /// `--flag=value` (the parser cannot tell it from the next flag).
    pub fn parse() -> Args {
        Self::parse_from(std::env::args().skip(1))
    }

    /// [`Args::parse`] over an explicit token stream (testable).
    pub fn parse_from(args: impl IntoIterator<Item = String>) -> Args {
        let mut named = HashMap::new();
        let mut flags = Vec::new();
        let mut strays = Vec::new();
        let mut it = args.into_iter().peekable();
        while let Some(arg) = it.next() {
            if let Some(name) = arg.strip_prefix("--") {
                if let Some((name, value)) = name.split_once('=') {
                    named.insert(name.to_string(), value.to_string());
                    continue;
                }
                match it.peek() {
                    Some(v) if !v.starts_with("--") => {
                        named.insert(name.to_string(), it.next().unwrap());
                    }
                    _ => flags.push(name.to_string()),
                }
            } else {
                strays.push(arg);
            }
        }
        Args {
            named,
            flags,
            strays,
        }
    }

    /// Named value, if present.
    ///
    /// Exits with an error if `name` was given as a bare flag: the
    /// intended value started with `--` and was parsed as the next flag,
    /// which `--{name}=value` disambiguates.
    pub fn get(&self, name: &str) -> Option<&str> {
        let v = self.named.get(name).map(|s| s.as_str());
        if v.is_none() && self.flags.iter().any(|f| f == name) {
            eprintln!(
                "--{name} expects a value; if the value starts with \"--\", \
                 write --{name}=VALUE"
            );
            std::process::exit(2);
        }
        v
    }

    /// Bare flag presence.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name) || self.named.contains_key(name)
    }

    /// Named value parsed, with a default.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        match self.get(name) {
            Some(v) => v.parse().unwrap_or_else(|_| {
                eprintln!("bad value for --{name}: {v:?}");
                std::process::exit(2);
            }),
            None => default,
        }
    }

    /// Exits 2, naming the offender and printing `usage`, if a positional
    /// argument or a flag outside `known` was given: a misspelt or removed
    /// flag, or a value missing its flag, must not silently run the
    /// default configuration.
    pub fn expect_only(&self, known: &[&str], usage: &str) {
        if let Some(bad) = self.offender(known) {
            eprintln!("{bad}");
            eprintln!("{usage}");
            std::process::exit(2);
        }
    }

    /// What [`Args::expect_only`] reports: the first stray argument, else
    /// an unknown flag.
    fn offender(&self, known: &[&str]) -> Option<String> {
        match self.strays.first() {
            Some(stray) => Some(format!("unexpected argument {stray:?}")),
            None => self.unknown(known).map(|f| format!("unknown flag --{f}")),
        }
    }

    /// A flag in `known` that `usage` does not mention — what each
    /// binary's unit test holds to `None`, so the list `expect_only`
    /// enforces and the text it prints cannot drift apart.
    pub fn undocumented<'a>(known: &[&'a str], usage: &str) -> Option<&'a str> {
        let missing = |flag: &&str| !usage.contains(&format!("--{flag}"));
        known.iter().copied().find(missing)
    }

    /// A flag given that is not in `known` (the alphabetically first, so
    /// the report does not depend on hash order).
    fn unknown(&self, known: &[&str]) -> Option<&str> {
        let given = self.named.keys().chain(&self.flags).map(String::as_str);
        given.filter(|name| !known.contains(name)).min()
    }

    /// Comma-separated list value of `--name`, if given; exits 2 naming
    /// the item that does not parse.
    pub fn list<T: std::str::FromStr>(&self, name: &str) -> Option<Vec<T>> {
        self.get(name).map(|v| {
            parse_list(v).unwrap_or_else(|bad| {
                eprintln!("bad value in --{name}: {bad:?}");
                std::process::exit(2);
            })
        })
    }

    /// Comma-separated list of integers (`--writes 1,10,90`), with a
    /// default.
    pub fn u32_list(&self, name: &str, default: &[u32]) -> Vec<u32> {
        self.list(name).unwrap_or_else(|| default.to_vec())
    }

    /// Comma-separated list of thread counts (`--threads`), with a
    /// default, capped by `--full`'s paper grid.
    pub fn thread_list(&self, default: &[usize]) -> Vec<usize> {
        if let Some(threads) = self.list("threads") {
            return threads;
        }
        if self.flag("full") {
            // The paper's grid (80-way POWER8).
            vec![1, 2, 4, 8, 16, 32, 64, 80]
        } else {
            default.to_vec()
        }
    }

    /// Comma-separated scheme list (`--schemes`), defaulting to the
    /// sensitivity set.
    pub fn scheme_list(&self, default: &[SchemeKind]) -> Vec<SchemeKind> {
        match self.get("schemes") {
            Some(v) => v
                .split(',')
                .map(|s| {
                    SchemeKind::parse(s.trim()).unwrap_or_else(|| {
                        eprintln!("unknown scheme {s:?}");
                        std::process::exit(2);
                    })
                })
                .collect(),
            None => default.to_vec(),
        }
    }
}

/// Parses a comma-separated list; the error is the item that does not
/// parse.
fn parse_list<T: std::str::FromStr>(v: &str) -> Result<Vec<T>, &str> {
    v.split(',')
        .map(|item| item.trim().parse().map_err(|_| item))
        .collect()
}

/// The flags every grid binary accepts; each extends the list with its
/// own through [`grid_flags`].
pub const GRID_FLAGS: [&str; 5] = ["threads", "full", "ops", "runs", "seed"];

/// [`GRID_FLAGS`] followed by a binary's `own` flags — the list its
/// [`Args::expect_only`] call and its usage test share.
pub fn grid_flags<'a>(own: &[&'a str]) -> Vec<&'a str> {
    [&GRID_FLAGS[..], own].concat()
}

/// Cell runner and row writer shared by the figure binaries: holds the
/// `--ops` / `--runs` / `--seed` every cell is measured with and prints
/// the one text-table format [`parse_results`] reads back.
pub struct Output {
    /// Operations per thread (`--ops`).
    pub ops: u64,
    runs: u64,
    seed: u64,
}

impl Output {
    /// Reads `--ops` (default `default_ops`, which differs per binary),
    /// `--runs` (1) and `--seed` (42).
    pub fn from_args(args: &Args, default_ops: u64) -> Output {
        Output {
            ops: args.get_or("ops", default_ops),
            runs: args.get_or("runs", 1),
            seed: args.get_or("seed", 42),
        }
    }

    /// Starts a new section: a `# ...` header line, the key recorded rows
    /// are matched by.
    pub fn section(&self, text: impl std::fmt::Display) {
        println!("# {text}");
    }

    /// The `# ops/thread=...` line under a section header: how its rows
    /// were measured (`extra` carries a binary's own parameters) and on
    /// how many CPUs. [`parse_results`] skips it by that prefix.
    pub fn note(&self, extra: &str) {
        let sep = if extra.is_empty() { "" } else { " " };
        let nproc = std::thread::available_parallelism().map_or(0, usize::from);
        println!(
            "# ops/thread={} runs={} seed={}{sep}{extra} nproc={nproc}",
            self.ops, self.runs, self.seed
        );
    }

    /// Prints the table header for one figure panel set.
    pub fn header(&self) {
        println!(
            "{:<11} {:>3} {:>4} {:>9} {:>12} {:>7} | {:>6} {:>7} {:>7} {:>6} {:>6} {:>7} | {:>6} {:>6} {:>6} {:>8}",
            "scheme", "thr", "w%", "time(s)", "ops/s", "abort%",
            "HTMtx", "HTMntx", "HTMcap", "Lock", "ROTcf", "ROTcap",
            "HTM%", "ROT%", "SGL%", "Uninstr%"
        );
    }

    /// Runs one configuration once per `--runs` seed (`--seed`,
    /// `--seed + 1`, ..) and averages: mean wall-clock, mean throughput,
    /// breakdown counters summed across runs.
    pub fn average(&self, run: &dyn Fn(u64) -> RunResult) -> (f64, f64, StatsSummary) {
        let results: Vec<_> = (0..self.runs).map(|r| run(self.seed + r)).collect();
        assert!(!results.is_empty(), "--runs must be at least 1");
        let n = results.len() as f64;
        let mean_secs = results.iter().map(|r| r.wall.as_secs_f64()).sum::<f64>() / n;
        let mean_tput = results.iter().map(|r| r.throughput()).sum::<f64>() / n;
        let mut commits = [0u64; 4];
        let mut aborts = [0u64; 6];
        let (mut ops, mut retreats, mut waits) = (0, 0, 0);
        for r in &results {
            for (i, k) in CommitKind::ALL.iter().enumerate() {
                commits[i] += r.summary.commits(*k);
            }
            for (i, b) in AbortBucket::ALL.iter().enumerate() {
                aborts[i] += r.summary.aborts(*b);
            }
            ops += r.summary.ops;
            retreats += r.summary.reader_retreats;
            waits += r.summary.reader_waits;
        }
        let mut summary = StatsSummary::from_raw(commits, aborts, ops);
        summary.reader_retreats = retreats;
        summary.reader_waits = waits;
        (mean_secs, mean_tput, summary)
    }

    /// Measures one grid cell ([`Output::average`]) and prints its row;
    /// returns the throughput and summary for binaries that print a
    /// derived line under it.
    pub fn measure(
        &self,
        label: &str,
        threads: usize,
        w: u32,
        run: &dyn Fn(u64) -> RunResult,
    ) -> (f64, StatsSummary) {
        use AbortBucket as B;
        use CommitKind as C;
        let (secs, tput, s) = self.average(run);
        println!(
            "{:<11} {:>3} {:>4} {:>9.4} {:>12.0} {:>7.1} | {:>6.1} {:>7.1} {:>7.1} {:>6.1} {:>6.1} {:>7.1} | {:>6.1} {:>6.1} {:>6.1} {:>8.1}",
            label,
            threads,
            w,
            secs,
            tput,
            s.abort_rate_pct(),
            s.abort_share_pct(B::HtmTx),
            s.abort_share_pct(B::HtmNonTx),
            s.abort_share_pct(B::HtmCapacity),
            s.abort_share_pct(B::LockAborts),
            s.abort_share_pct(B::RotConflicts),
            s.abort_share_pct(B::RotCapacity),
            s.commit_share_pct(C::Htm),
            s.commit_share_pct(C::Rot),
            s.commit_share_pct(C::Sgl),
            s.commit_share_pct(C::Uninstrumented),
        );
        (tput, s)
    }
}

/// Serializes `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Extracts the value of `"key": <value>` from one line of JSON emitted
/// by this crate's writers (one object per line, no nested objects with
/// colliding keys). Returns the raw value token (string values keep
/// their quotes).
pub fn json_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = line[start..].trim_start();
    if let Some(stripped) = rest.strip_prefix('"') {
        let mut escaped = false;
        for (i, c) in stripped.char_indices() {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => return Some(&rest[..i + 2]),
                _ => {}
            }
        }
        None
    } else {
        let end = rest.find([',', '}', ']']).unwrap_or(rest.len());
        Some(rest[..end].trim_end())
    }
}

/// [`json_field`] parsed as `f64` (string quotes stripped first).
pub fn json_f64(line: &str, key: &str) -> Option<f64> {
    json_field(line, key)?.trim_matches('"').parse().ok()
}

/// One parsed result row from a harness output file.
#[derive(Debug, Clone)]
pub struct ResultRow {
    /// Scheme label (e.g. `RW-LE_OPT`).
    pub scheme: String,
    /// Execution backend the row was measured on (`sim` or `native`).
    /// Rows predating the backend split default to `sim`; rows from
    /// different backends are never compared against each other.
    pub backend: String,
    /// Thread count.
    pub threads: u32,
    /// Write percentage (or per-mille for the Kyoto harness).
    pub w: u32,
    /// Mean wall-clock seconds.
    pub time_s: f64,
    /// Mean throughput.
    pub ops_per_s: f64,
    /// Abort rate (percent of attempts).
    pub abort_pct: f64,
    /// Commit mix: HTM / ROT / SGL / uninstrumented shares (percent).
    pub commit_mix: [f64; 4],
    /// Latency quantiles `[p50, p90, p99, p99.9, max]` in microseconds —
    /// present only on rows from the service load generator (`loadgen
    /// --json`), which measures end-to-end request latency; the closed
    /// critical-section harnesses have no per-op latency to report.
    pub latency_us: Option<[f64; 5]>,
}

/// How the first line of a recorded `results/` file starts, after `# `:
/// `recorded at <rev>, nproc=<n>, with: <command>`.
pub const RECORDED_AT: &str = "recorded at ";

/// Parses a harness result file — text tables (tracking `# ...` section
/// headers; the `# recorded at ...` and `# ops/thread=...` provenance
/// lines are not sections) or JSON lines (`loadgen --json`, the
/// benchmark record) — into `(section, row)` pairs. Exits with an error
/// if the file cannot be read.
pub fn parse_results(path: &str) -> Vec<(String, ResultRow)> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(2);
    });
    let mut section = String::from("(top)");
    let mut rows = Vec::new();
    for line in text.lines() {
        if line.trim_start().starts_with('{') {
            if let Some(row) = parse_json_result_row(line) {
                rows.push(row);
            }
            continue;
        }
        if let Some(h) = line.strip_prefix("# ") {
            if !h.starts_with("ops/thread") && !h.starts_with(RECORDED_AT) {
                section = h.to_string();
            }
            continue;
        }
        let cols: Vec<&str> = line.split_whitespace().collect();
        // scheme thr w time ops/s abort% | 6 abort shares | 4 commit
        // shares — rows start with a scheme label followed by at least
        // five numeric fields.
        if cols.len() < 6 || cols[0] == "scheme" {
            continue;
        }
        let (Ok(threads), Ok(w)) = (cols[1].parse(), cols[2].parse()) else {
            continue;
        };
        let (Ok(time_s), Ok(ops_per_s), Ok(abort_pct)) = (
            cols[3].parse::<f64>(),
            cols[4].parse::<f64>(),
            cols[5].parse::<f64>(),
        ) else {
            continue;
        };
        // Text rows carry the commit mix in the trailing panel (after the
        // second `|`).
        let commit_mix = if cols.len() >= 18 && cols[6] == "|" && cols[13] == "|" {
            let mut m = [0.0; 4];
            for (i, c) in cols[14..18].iter().enumerate() {
                m[i] = c.parse().unwrap_or(0.0);
            }
            m
        } else {
            [0.0; 4]
        };
        rows.push((
            section.clone(),
            ResultRow {
                scheme: cols[0].to_string(),
                // Text tables come from the simulated-HTM harnesses only.
                backend: String::from("sim"),
                threads,
                w,
                time_s,
                ops_per_s,
                abort_pct,
                commit_mix,
                latency_us: None,
            },
        ));
    }
    rows
}

/// Parses one JSON row: a `loadgen --json` line or a `"rows"` entry of
/// the benchmark record, which has the same keys.
pub fn parse_json_result_row(line: &str) -> Option<(String, ResultRow)> {
    Some((
        json_str(line, "section")?,
        ResultRow {
            scheme: json_str(line, "scheme")?,
            backend: json_str(line, "backend").unwrap_or_else(|| String::from("sim")),
            threads: json_f64(line, "threads")? as u32,
            w: json_f64(line, "w")? as u32,
            time_s: json_f64(line, "time_s")?,
            ops_per_s: json_f64(line, "ops_per_s")?,
            abort_pct: json_f64(line, "abort_pct")?,
            commit_mix: [
                json_f64(line, "c_htm")?,
                json_f64(line, "c_rot")?,
                json_f64(line, "c_sgl")?,
                json_f64(line, "c_uninstr")?,
            ],
            latency_us: parse_latency_keys(line),
        },
    ))
}

/// The optional latency quantile keys of a `loadgen --json` row,
/// all-or-nothing: a row either carries the full set or none.
fn parse_latency_keys(line: &str) -> Option<[f64; 5]> {
    Some([
        json_f64(line, "p50_us")?,
        json_f64(line, "p90_us")?,
        json_f64(line, "p99_us")?,
        json_f64(line, "p999_us")?,
        json_f64(line, "max_us")?,
    ])
}

/// [`json_field`] decoded as an unescaped string value.
pub fn json_str(line: &str, key: &str) -> Option<String> {
    let raw = json_field(line, key)?;
    let inner = raw.strip_prefix('"')?.strip_suffix('"')?;
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some(e) => out.push(e),
                None => break,
            }
        } else {
            out.push(c);
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(tokens: &[&str]) -> Args {
        Args::parse_from(tokens.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parse_named_and_bare_flags() {
        let a = args(&["--ops", "500", "--full", "--threads", "1,2"]);
        assert_eq!(a.get("ops"), Some("500"));
        assert!(a.flag("full"));
        assert_eq!(a.thread_list(&[4]), vec![1, 2]);
        assert_eq!(a.get_or("seed", 42u64), 42);
    }

    #[test]
    fn equals_form_allows_values_starting_with_dashes() {
        let a = args(&["--filter=--weird", "--ops=7"]);
        assert_eq!(a.get("filter"), Some("--weird"));
        assert_eq!(a.get_or("ops", 0u64), 7);
    }

    #[test]
    fn unknown_flags_are_found_in_either_form() {
        let a = args(&["--ops", "500", "--json", "--rate=7"]);
        assert_eq!(a.unknown(&["ops", "json", "rate"]), None);
        assert_eq!(a.unknown(&["ops", "json"]), Some("rate"));
        assert_eq!(a.unknown(&["ops", "rate"]), Some("json"));
        let usage = "usage: x [--ops N] [--json]";
        assert_eq!(Args::undocumented(&["ops", "json"], usage), None);
        assert_eq!(Args::undocumented(&["ops", "rate"], usage), Some("rate"));
    }

    #[test]
    fn stray_arguments_are_rejected() {
        let known = ["scenario", "port"];
        let offender = |tokens: &[&str]| args(tokens).offender(&known);
        assert_eq!(offender(&["--scenario", "hc-lc", "--port=1"]), None);
        // A value without its flag, in any position, is named — before
        // any unknown flag, and never taken for the previous flag's value.
        let stray = Some(String::from("unexpected argument \"hc-lc\""));
        assert_eq!(offender(&["hc-lc"]), stray);
        assert_eq!(offender(&["--port", "1", "hc-lc", "--nope"]), stray);
        assert_eq!(
            offender(&["--nope"]),
            Some(String::from("unknown flag --nope"))
        );
    }

    #[test]
    fn list_parsing_names_the_bad_item() {
        assert_eq!(parse_list::<u32>("1, 10,90"), Ok(vec![1, 10, 90]));
        assert_eq!(parse_list::<u32>("1,ten,90"), Err("ten"));
        assert_eq!(parse_list::<u32>("1,,90"), Err(""));
        assert_eq!(parse_list::<u32>("-1"), Err("-1"));
        let a = args(&["--writes", "5,50"]);
        assert_eq!(a.u32_list("writes", &[1]), vec![5, 50]);
        assert_eq!(a.u32_list("writes-permille", &[1]), vec![1]);
    }

    #[test]
    fn average_sums_every_counter_across_runs() {
        let out = Output {
            ops: 10,
            runs: 2,
            seed: 7,
        };
        let (secs, tput, summary) = out.average(&|seed| {
            let mut summary = StatsSummary::from_raw([seed, 0, 0, 0], [0; 6], 10);
            summary.reader_retreats = 3;
            summary.reader_waits = 1;
            RunResult {
                wall: std::time::Duration::from_secs(seed - 6),
                summary,
                threads: 1,
            }
        });
        // Seeds 7 and 8: walls 1 s and 2 s, 10 ops each.
        assert_eq!((secs, tput), (1.5, 7.5));
        assert_eq!(summary.commits(CommitKind::ALL[0]), 15);
        assert_eq!(
            (summary.ops, summary.reader_retreats, summary.reader_waits),
            (20, 6, 2)
        );
    }

    #[test]
    fn json_roundtrip_helpers() {
        let line = format!(
            "{{\"section\": {}, \"ops_per_s\": 123.4, \"threads\": 8}}",
            json_string("Figure \"4\" — hc-lc")
        );
        assert_eq!(json_str(&line, "section").unwrap(), "Figure \"4\" — hc-lc");
        assert_eq!(json_f64(&line, "ops_per_s"), Some(123.4));
        assert_eq!(json_f64(&line, "threads"), Some(8.0));
        assert_eq!(json_field(&line, "missing"), None);
    }
}
