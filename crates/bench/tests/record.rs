//! The benchmark record is a fixed point of its one writer: `summarize
//! --file a,b --json-out` over a text table and a `loadgen --json` file
//! yields rows that parse back to what went in, carry no generation tag, and
//! are byte-identical when written twice. Drives the built binary (the
//! `regress_cli.rs` pattern); no network, no timing.

use std::path::{Path, PathBuf};
use std::process::Command;

use bench::parse_results;

const TABLE: &str = "\
# recorded at abc1234, nproc=2, with: sensitivity --threads 8
# Figure 3 — sensitivity hc-hc (1 bucket(s) × 200 items, page-fault p=0)
# ops/thread=300 runs=3 seed=42 smt-group=1 nproc=2
scheme      thr   w%   time(s)        ops/s  abort% |  HTMtx  HTMntx  HTMcap   Lock  ROTcf  ROTcap |   HTM%   ROT%   SGL% Uninstr%
RW-LE_OPT     8   10    0.0041       585366     4.1 |    0.0     0.0     4.1    0.0    0.0     0.0 |    5.9    4.2    0.0     89.9
SGL           8   10    0.0050       480000     0.0 |    0.0     0.0     0.0    0.0    0.0     0.0 |    0.0    0.0  100.0      0.0

# Figure 4 — sensitivity hc-lc (10000 bucket(s) × 200 items, page-fault p=0)
# ops/thread=300 runs=3 seed=42 smt-group=1 nproc=2
RW-LE_OPT     8   10    0.0030       800000     3.0 |    0.0     0.0     3.0    0.0    0.0     0.0 |    6.0    4.0    0.0     90.0
# Reader indicators — NS fallback read path
# ops/thread=5000 runs=1 seed=42 (elision disabled: fallback_only) nproc=2
IND-BRAVO    32    1    0.0402     39840237     0.0 |    0.0     0.0     0.0    0.0    0.0     0.0 |    0.0    0.0    1.0     99.0
";

const SVC: &str = "\
# recorded at abc1234, nproc=2, with: loadgen --total-rate 10000 --json
{\"section\": \"svc slo open total-rate=10000 conns=1024\", \"scheme\": \"RW-LE_OPT\", \
\"backend\": \"native\", \"threads\": 1024, \"w\": 50, \"time_s\": 4.043478, \
\"ops_per_s\": 9892.5, \"abort_pct\": 0.00, \"c_htm\": 0.00, \"c_rot\": 0.00, \
\"c_sgl\": 0.00, \"c_uninstr\": 0.00, \"p50_us\": 89.1, \"p90_us\": 117.8, \
\"p99_us\": 11403.3, \"p999_us\": 15000.2, \"max_us\": 20000.9, \"sent\": 40000, \
\"received\": 40000, \"errors\": 0, \"shed\": 0}
";

/// (section, scheme, backend, threads, w), ops/s, p99 — what `regress`
/// keys and gates on.
type Cell = ((String, String, String, u32, u32), f64, Option<f64>);

fn cells(path: &Path) -> Vec<Cell> {
    parse_results(path.to_str().unwrap())
        .into_iter()
        .map(|(section, r)| {
            let p99 = r.latency_us.map(|l| l[2]);
            (
                (section, r.scheme, r.backend, r.threads, r.w),
                r.ops_per_s,
                p99,
            )
        })
        .collect()
}

fn write_record(sources: &str, out: &Path) {
    let status = Command::new(env!("CARGO_BIN_EXE_summarize"))
        .args(["--file", sources, "--json-out"])
        .arg(out)
        .output()
        .expect("spawn");
    assert!(
        status.status.success(),
        "{}",
        String::from_utf8_lossy(&status.stderr)
    );
}

#[test]
fn the_record_is_a_fixed_point_of_its_sources() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("record_fixed_point");
    std::fs::create_dir_all(&dir).unwrap();
    let (table, svc) = (dir.join("table.txt"), dir.join("svc.txt"));
    std::fs::write(&table, TABLE).unwrap();
    std::fs::write(&svc, SVC).unwrap();
    let sources = format!("{},{}", table.display(), svc.display());
    let (first, second) = (dir.join("first.json"), dir.join("second.json"));
    write_record(&sources, &first);
    write_record(&sources, &second);

    // (a) The record parses back to the rows of its sources, in order.
    let mut want = cells(&table);
    want.extend(cells(&svc));
    assert_eq!(want.len(), 5);
    assert_eq!(
        (want[3].0 .1.as_str(), want[3].0 .3, want[3].1),
        ("IND-BRAVO", 32, 39840237.0)
    );
    assert_eq!(
        (want[4].0 .2.as_str(), want[4].2),
        ("native", Some(11403.3))
    );
    assert_eq!(cells(&first), want);

    // (b) Rows carry no generation tag, and both sources are named with
    // their provenance line and row count.
    let text = std::fs::read_to_string(&first).unwrap();
    assert!(!text.contains("\"set\""), "{text}");
    assert!(text.contains("\"schema\": \"hrwle-bench-v2\""), "{text}");
    for (name, rows) in [("table.txt", 4), ("svc.txt", 1)] {
        let source = text.lines().find(|l| l.contains(name)).expect(name);
        assert!(source.contains("\"recorded\": \"abc1234, nproc=2, with: "));
        assert!(source.contains(&format!("\"rows\": {rows}}}")), "{source}");
    }

    // (c) Writing it twice is byte-identical.
    assert_eq!(text, std::fs::read_to_string(&second).unwrap());
}
