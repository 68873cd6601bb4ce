//! Command-line rejection: a flag the binaries no longer (or never)
//! accepted, and a backend/scheme pair the server has no store for,
//! exit 2 and name the offender on stderr instead of silently running
//! some other configuration. Real child processes, as in `crash.rs`.

use std::process::Command;

/// Runs `bin` with `args`; returns its exit code and stderr.
fn run(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(bin).args(args).output().expect("spawn");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn removed_and_unknown_flags_exit_2_naming_the_flag() {
    let rwled = env!("CARGO_BIN_EXE_rwled");
    let loadgen = env!("CARGO_BIN_EXE_loadgen");
    for (bin, args, offender) in [
        (rwled, &["--port", "0", "--shed", "drop"][..], "--shed"),
        (rwled, &["--port", "0", "--reap-ms", "5"][..], "--reap-ms"),
        (loadgen, &["--rate", "100"][..], "--rate"),
        (loadgen, &["--secs", "1", "--shutdwon"][..], "--shutdwon"),
    ] {
        let (code, stderr) = run(bin, args);
        assert_eq!(code, Some(2), "{bin} {args:?}: {stderr}");
        assert!(stderr.contains(offender), "{bin} {args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{bin} {args:?}: {stderr}");
    }
}

#[test]
fn native_backend_with_a_scheme_it_cannot_run_exits_2() {
    let (code, stderr) = run(
        env!("CARGO_BIN_EXE_rwled"),
        &["--port", "0", "--backend", "native", "--scheme", "hle"],
    );
    assert_eq!(code, Some(2), "{stderr}");
    assert!(
        stderr.contains("HLE") && stderr.contains("native"),
        "{stderr}"
    );
}
