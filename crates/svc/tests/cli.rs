//! Command-line rejection: a flag the binaries no longer (or never)
//! accepted, a backend/scheme pair the server has no store for, and a
//! store shape it cannot build exit 2 and name the offender on stderr
//! instead of silently running some other configuration (or panicking).
//! Real child processes, as in `crash.rs`.

use std::io::Read;
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::Duration;

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
        (rwled, &["--port", "0", "--buckets", "8"][..], "--buckets"),
        (loadgen, &["--rate", "100"][..], "--rate"),
        (loadgen, &["--secs", "1", "--shutdwon"][..], "--shutdwon"),
    ] {
        let (code, stderr) = run(bin, args);
        assert_eq!(code, Some(2), "{bin} {args:?}: {stderr}");
        assert!(stderr.contains(offender), "{bin} {args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{bin} {args:?}: {stderr}");
    }
}

/// A run length or Zipf exponent that is not a finite number, or a run
/// length the clock cannot add, is refused before any connection is
/// made (`--port 1`: a server is never reached). Let through, a run
/// length panics in `Duration::from_secs_f64` (exit 101) and a `nan`
/// exponent sends every request to key 0.
#[test]
fn non_finite_or_unbounded_run_parameters_exit_2() {
    for (args, offender) in [
        (&["--secs", "nan"][..], "--secs"),
        (&["--secs", "inf"][..], "--secs"),
        (&["--secs", "1e30"][..], "--secs"),
        (&["--secs", "-1", "--ops", "10"][..], "--secs"),
        (&["--theta", "nan"][..], "--theta"),
        (&["--theta", "inf"][..], "--theta"),
    ] {
        let all = [&["--port", "1"][..], args].concat();
        let (code, stderr) = run(env!("CARGO_BIN_EXE_loadgen"), &all);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(offender), "{args:?}: {stderr}");
        assert!(stderr.contains("hint:"), "{args:?}: {stderr}");
    }
}

#[test]
fn a_store_that_cannot_be_built_exits_2() {
    const MAX: &str = "18446744073709551615";
    for (args, reason) in [
        (&["--prefill", "16", "--capacity", MAX][..], "too large"),
        (&["--prefill", MAX, "--capacity", "0"][..], "too large"),
        // A line count a u32 holds, but not its words.
        (
            &["--prefill", "600000000", "--capacity", "0"][..],
            "too large",
        ),
    ] {
        let all = [&["--port", "0"][..], args].concat();
        let (code, stderr) = run(env!("CARGO_BIN_EXE_rwled"), &all);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(reason), "{args:?}: {stderr}");
        assert!(stderr.contains("hint:"), "{args:?}: {stderr}");
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

/// More workers than the simulated HTM has thread slots is refused at
/// start. Let through, the server printed `listening`, lost a worker to
/// the registration panic and served until killed, so the wait is
/// bounded: its stderr still open after 30 s fails the test.
#[test]
fn more_sim_workers_than_htm_slots_exit_2() {
    let threads = (htm::MAX_SLOTS + 2).to_string();
    let mut child = Command::new(env!("CARGO_BIN_EXE_rwled"))
        .args(["--port", "0", "--backend", "sim", "--threads", &threads])
        .args(["--prefill", "0", "--capacity", "0"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn");
    let mut pipe = child.stderr.take().expect("piped stderr");
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        pipe.read_to_string(&mut text).expect("read stderr");
        tx.send(text).expect("the test waits for stderr");
    });
    let Ok(stderr) = rx.recv_timeout(Duration::from_secs(30)) else {
        child.kill().expect("kill");
        child.wait().expect("reap");
        panic!("rwled --threads {threads} was still running after 30 s");
    };
    reader.join().expect("stderr reader");
    let status = child.wait().expect("wait");
    assert_eq!(status.code(), Some(2), "{stderr}");
    assert!(stderr.contains(&threads), "{stderr}");
    assert!(stderr.contains("--threads"), "{stderr}");
}
