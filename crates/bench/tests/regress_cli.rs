//! The regression gate as CI invokes it: real `regress` (and
//! `indicators`) child processes over tiny fixture files (the
//! `svc/tests/cli.rs` pattern). A gate that compared nothing, or that
//! ran with a misspelt or removed flag's default, must not exit 0.

use std::path::PathBuf;
use std::process::Command;

const SECTION: &str = "fixture section";

/// One record row.
fn recorded(scheme: &str, ops_per_s: f64) -> String {
    format!(
        "{{\"section\": \"{SECTION}\", \"scheme\": \"{scheme}\", \
         \"backend\": \"sim\", \"threads\": 8, \"w\": 1, \"time_s\": 1.0, \
         \"ops_per_s\": {ops_per_s}, \"abort_pct\": 0.0, \"c_htm\": 0.0, \"c_rot\": 0.0, \
         \"c_sgl\": 0.0, \"c_uninstr\": 0.0}}\n"
    )
}

/// One fresh text-table row (scheme thr w time ops/s abort%).
fn fresh(scheme: &str, ops_per_s: f64) -> String {
    format!("{scheme} 8 1 1.0 {ops_per_s} 0.0\n")
}

/// Writes the record (canary 1000, instrumented 500 ops/s) and the given
/// fresh rows under names unique to `test`, runs `regress` with
/// `extra_flags`, and returns its exit code, stdout and stderr.
fn regress(test: &str, fresh_rows: &str, extra_flags: &[&str]) -> (Option<i32>, String, String) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let record = dir.join(format!("{test}.record.json"));
    let file = dir.join(format!("{test}.fresh.txt"));
    std::fs::write(
        &record,
        recorded("SGL", 1000.0) + &recorded("IND-BRAVO", 500.0),
    )
    .unwrap();
    std::fs::write(&file, format!("# {SECTION}\n{fresh_rows}")).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_regress"))
        .arg("--file")
        .arg(&file)
        .arg("--against")
        .arg(&record)
        .args(extra_flags)
        .output()
        .expect("spawn");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn canary_only_fresh_file_fails_the_relative_gate() {
    // The canary alone, at 0.4x: nothing instrumented was compared.
    let (code, stdout, stderr) = regress(
        "canary_only",
        &fresh("SGL", 400.0),
        &["--relative-to", "SGL"],
    );
    assert_eq!(code, Some(1), "{stdout}{stderr}");
    assert!(stderr.contains(SECTION), "{stderr}");
    // The dropped scheme is reported, not silently skipped.
    assert!(
        stdout.contains("IND-BRAVO") && stdout.contains("recorded only"),
        "{stdout}"
    );
}

#[test]
fn misspelt_flag_exits_2_naming_it() {
    let rows = fresh("SGL", 1000.0) + &fresh("IND-BRAVO", 500.0);
    let (code, _, stderr) = regress("misspelt", &rows, &["--relative_to", "SGL"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("--relative_to"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn instrumented_row_gates_relative_to_the_canary() {
    // Host at half speed (canary 0.5x): 0.4x absolute is 0.8x relative,
    // inside the 30 % tolerance; 0.3x absolute is 0.6x relative, outside.
    for (bravo, want) in [(200.0, 0), (150.0, 1)] {
        let rows = fresh("SGL", 500.0) + &fresh("IND-BRAVO", bravo) + &fresh("IND-NEW", 1.0);
        let (code, stdout, stderr) = regress(
            &format!("relative_{want}"),
            &rows,
            &["--relative-to", "SGL"],
        );
        assert_eq!(code, Some(want), "{stdout}{stderr}");
        // A fresh row with no record is reported and never fails the gate.
        assert!(
            stdout.contains("IND-NEW") && stdout.contains("fresh only"),
            "{stdout}"
        );
    }
}

#[test]
fn indicators_rejects_the_removed_schemes_filter() {
    let out = Command::new(env!("CARGO_BIN_EXE_indicators"))
        .args(["--schemes", "SGL", "--threads", "1", "--ops", "1"])
        .output()
        .expect("spawn");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("--schemes"), "{stderr}");
}
