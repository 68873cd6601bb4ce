//! Shared infrastructure for the figure-regeneration binaries.
//!
//! Each binary in `src/bin/` regenerates one figure (or figure family) of
//! the paper, printing the same three panels per configuration — execution
//! time/throughput, abort-cause breakdown, commit-type breakdown — as
//! aligned text tables (or JSON lines with `--json`).
//!
//! Common flags:
//!
//! * `--threads 1,2,4,8` — thread counts to sweep;
//! * `--ops N` — operations per thread;
//! * `--runs N` — repetitions averaged per configuration;
//! * `--seed N` — base RNG seed;
//! * `--json` — machine-readable JSON-lines output (one object per row);
//! * `--full` — the paper's full grid (thread counts up to 80).

#![warn(missing_docs)]

use std::collections::HashMap;

use stats::{AbortBucket, CommitKind, StatsSummary};
use workloads::driver::RunResult;
use workloads::SchemeKind;

/// A minimal `--flag value` / `--flag` / `--flag=value` argument parser.
pub struct Args {
    named: HashMap<String, String>,
    flags: Vec<String>,
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
                eprintln!("ignoring stray argument {arg:?}");
            }
        }
        Args { named, flags }
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

    /// Exits 2, naming the flag and printing `usage`, if a flag outside
    /// `known` was given: a misspelt or removed flag must not silently
    /// run the default configuration.
    pub fn expect_only(&self, known: &[&str], usage: &str) {
        if let Some(bad) = self.unknown(known) {
            eprintln!("unknown flag --{bad}");
            eprintln!("{usage}");
            std::process::exit(2);
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
    fn list<T: std::str::FromStr>(&self, name: &str) -> Option<Vec<T>> {
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

/// Averages repeated runs of one configuration: mean wall-clock and
/// throughput, breakdown counters summed across runs.
pub fn average(results: &[RunResult]) -> (f64, f64, StatsSummary) {
    assert!(!results.is_empty());
    let mean_secs =
        results.iter().map(|r| r.wall.as_secs_f64()).sum::<f64>() / results.len() as f64;
    let mean_tput = results.iter().map(|r| r.throughput()).sum::<f64>() / results.len() as f64;
    let mut commits = [0u64; 4];
    let mut aborts = [0u64; 6];
    let mut ops = 0;
    for r in results {
        for (i, k) in CommitKind::ALL.iter().enumerate() {
            commits[i] += r.summary.commits(*k);
        }
        for (i, b) in AbortBucket::ALL.iter().enumerate() {
            aborts[i] += r.summary.aborts(*b);
        }
        ops += r.summary.ops;
    }
    (
        mean_secs,
        mean_tput,
        StatsSummary::from_raw(commits, aborts, ops),
    )
}

/// Row output format, selected by `--json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputMode {
    /// Aligned human-readable tables (the default).
    Text,
    /// JSON lines: one self-contained object per result row. Section
    /// headers are carried inside each object, so the stream needs no
    /// surrounding context to parse.
    Json,
}

/// Row sink shared by the figure binaries: tracks the current `# ...`
/// section so JSON rows can be self-contained.
pub struct Output {
    mode: OutputMode,
    section: String,
}

impl Output {
    /// Builds the sink from `--json`.
    pub fn from_args(args: &Args) -> Output {
        let mode = if args.flag("json") {
            OutputMode::Json
        } else {
            OutputMode::Text
        };
        Output {
            mode,
            section: String::from("(top)"),
        }
    }

    /// The selected format.
    pub fn mode(&self) -> OutputMode {
        self.mode
    }

    /// Starts a new section: printed as a `# ...` header line in
    /// text mode, attached to each subsequent row in JSON mode.
    pub fn section(&mut self, text: impl Into<String>) {
        self.section = text.into();
        if self.mode != OutputMode::Json {
            println!("# {}", self.section);
        }
    }

    /// A free-form comment line (text only; JSON streams stay pure).
    pub fn note(&self, text: impl std::fmt::Display) {
        if self.mode != OutputMode::Json {
            println!("# {text}");
        }
    }

    /// Updates the section carried by JSON rows without printing a header
    /// line — for sub-labels that text mode renders its own way.
    pub fn tag(&mut self, text: impl Into<String>) {
        self.section = text.into();
    }

    /// Prints the table header for one figure panel set.
    pub fn header(&self) {
        match self.mode {
            OutputMode::Text => println!(
                "{:<11} {:>3} {:>4} {:>9} {:>12} {:>7} | {:>6} {:>7} {:>7} {:>6} {:>6} {:>7} | {:>6} {:>6} {:>6} {:>8}",
                "scheme", "thr", "w%", "time(s)", "ops/s", "abort%",
                "HTMtx", "HTMntx", "HTMcap", "Lock", "ROTcf", "ROTcap",
                "HTM%", "ROT%", "SGL%", "Uninstr%"
            ),
            OutputMode::Json => {}
        }
    }

    /// Prints one result row.
    pub fn row(
        &self,
        scheme: SchemeKind,
        threads: usize,
        w: u32,
        secs: f64,
        tput: f64,
        s: &StatsSummary,
    ) {
        self.row_labeled(scheme.label(), threads, w, secs, tput, s);
    }

    /// [`Output::row`] with a free-form scheme label — for harnesses
    /// whose schemes are not [`SchemeKind`]s (e.g. the reader-indicator
    /// sweep). JSON rows carry `"backend": "sim"`: the figure harnesses
    /// run on the simulated HTM only (DESIGN.md §5), and recorded rows
    /// compare only against rows measured the same way
    /// ([`ResultRow::backend`]).
    pub fn row_labeled(
        &self,
        label: &str,
        threads: usize,
        w: u32,
        secs: f64,
        tput: f64,
        s: &StatsSummary,
    ) {
        use AbortBucket as B;
        use CommitKind as C;
        match self.mode {
            OutputMode::Text => println!(
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
            ),
            OutputMode::Json => println!(
                "{{\"section\": {}, \"scheme\": {}, \"backend\": \"sim\", \"threads\": {threads}, \
                 \"w\": {w}, \
                 \"time_s\": {secs:.6}, \"ops_per_s\": {tput:.1}, \"abort_pct\": {:.2}, \
                 \"c_htm\": {:.2}, \"c_rot\": {:.2}, \"c_sgl\": {:.2}, \"c_uninstr\": {:.2}}}",
                json_string(&self.section),
                json_string(label),
                s.abort_rate_pct(),
                s.commit_share_pct(C::Htm),
                s.commit_share_pct(C::Rot),
                s.commit_share_pct(C::Sgl),
                s.commit_share_pct(C::Uninstrumented),
            ),
        }
    }

    /// A visual blank between row groups (text mode only).
    pub fn gap(&self) {
        if self.mode == OutputMode::Text {
            println!();
        }
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

/// Parses a harness result file — text tables (tracking `# ...` section
/// headers) or `--json` JSON-lines output — into `(section, row)`
/// pairs. Exits with an error if the file cannot be read.
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
            if !h.starts_with("ops/thread") {
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

/// Parses one JSON-lines row emitted by a bin's `--json` mode (or a
/// `"rows"` entry of the benchmark-record JSON, which has the same keys).
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
        let a = args(&["--ops", "500", "--json", "--threads", "1,2"]);
        assert_eq!(a.get("ops"), Some("500"));
        assert!(a.flag("json"));
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
