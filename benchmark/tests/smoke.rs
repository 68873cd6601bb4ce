//! Drives the built binary once on the `--quick` setting: `rwled` is
//! built and started, traffic flows, every reply verifies, and the result
//! line carries every end-to-end metric.

use std::process::Command;

#[test]
fn quick_run_ends_in_a_complete_correct_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_rwled-bench"))
        .args(["--quick", "--workload", "svc-write", "--seed", "3"])
        .output()
        .expect("run rwled-bench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "exit {:?}\n{stdout}\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    assert!(last.starts_with("{\"correct\": true, "), "{last}");
    assert!(last.contains("\"failed\": 0,"), "{last}");
    for metric in [
        "setup_s",
        "ops_per_s",
        "p50_us",
        "read_p50_us",
        "write_p50_us",
        "rss_mb",
        "recover_s",
    ] {
        let at = last
            .find(&format!("\"{metric}\": {{\"value\": "))
            .unwrap_or_else(|| panic!("{metric} missing from {last}"));
        let value: f64 = last[at..]
            .split("\"value\": ")
            .nth(1)
            .and_then(|rest| rest.split(',').next())
            .and_then(|v| v.parse().ok())
            .expect("a number");
        assert!(value > 0.0, "{metric} = {value}");
    }
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--trace", "7"],
        &["--frobnicate"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_rwled-bench"))
            .args(args)
            .output()
            .expect("run rwled-bench");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
