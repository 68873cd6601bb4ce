//! Crash-recovery suite: SIGKILL a durable `rwled` mid-load, restart it
//! on the same WAL directory, and verify that every write the load
//! generator saw acknowledged is still readable — the contract from
//! DESIGN.md §13, which against a process crash holds under every
//! `--fsync` policy: no ack leaves before its record is written. The
//! drills run `batch` at pipeline 4 and `off` and `interval:50` at
//! pipeline 64, where one wake-up's log write carries many records.
//!
//! The server runs as a real child process (`CARGO_BIN_EXE_rwled`) so
//! the kill is a genuine SIGKILL of the whole address space, not a
//! cooperative shutdown: page-cache state, an fsync in flight and any
//! half-written record die exactly the way a power-cut leaves them.
//! The load generator runs in-process (the `loadgen` library) with
//! journaling on, so the ack journal survives in our memory when the
//! server vanishes. Kill points are drawn from a seeded LCG — ten
//! distinct delays per store, the same ten for every drill,
//! deterministic per suite revision but spread over the whole load
//! window.

use std::io::Write as _;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use svc::journal;
use svc::loadgen::{self, LoadgenConfig};
use svc::proto::{read_frame, Request, Response};

/// Fresh scratch directory under the system temp dir.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("svc-crash-{}-{name}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear scratch");
    }
    std::fs::create_dir_all(&dir).expect("create scratch");
    dir
}

const PREFILL: u64 = 2_000;

/// A store a durable `rwled` runs: its name (for messages and scratch
/// directories) and its flags.
type Store = (&'static str, &'static [&'static str]);

const SIM: Store = ("sim", &["--backend", "sim"]);
const NATIVE: Store = ("native", &["--backend", "native"]);
/// The single-mutex canary, which recovers through a load path of its
/// own.
const SGL: Store = ("sgl", &["--backend", "native", "--scheme", "sgl"]);

/// A durable `rwled` on `store` and an ephemeral port; `extra` flags
/// come last and override the defaults here.
fn rwled(wal_dir: &Path, store: Store, fsync: &str, port_file: &Path, extra: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_rwled"));
    cmd.args([
        "--port",
        "0",
        "--port-file",
        &port_file.display().to_string(),
        "--threads",
        "2",
        "--shards",
        "4",
        "--prefill",
        &PREFILL.to_string(),
        "--capacity",
        "20000",
        "--wal-dir",
        &wal_dir.display().to_string(),
        "--fsync",
        fsync,
    ])
    .args(store.1)
    .args(extra);
    cmd
}

/// Starts a durable `rwled` child on an ephemeral port and waits until
/// its port file appears; returns the child and the resolved address.
fn start_rwled(wal_dir: &Path, store: Store, fsync: &str, port_file: &Path) -> (Child, String) {
    let _ = std::fs::remove_file(port_file);
    let child = rwled(wal_dir, store, fsync, port_file, &[])
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn rwled");
    let deadline = Instant::now() + Duration::from_secs(20);
    let port = loop {
        if let Ok(s) = std::fs::read_to_string(port_file) {
            if let Ok(p) = s.trim().parse::<u16>() {
                break p;
            }
        }
        assert!(Instant::now() < deadline, "rwled never wrote its port file");
        // xlint: allow(a5) -- polling a child process's startup file;
        // there is no in-process event to wait on across the exec
        // boundary.
        std::thread::sleep(Duration::from_millis(5));
    };
    (child, format!("127.0.0.1:{port}"))
}

/// Asks the server to drain and waits for the child to exit cleanly.
fn shutdown_rwled(addr: &str, mut child: Child) {
    let mut c = TcpStream::connect(addr).expect("connect for shutdown");
    c.write_all(&Request::Shutdown.to_frame()).expect("send");
    let body = read_frame(&mut c).expect("shutdown reply");
    assert_eq!(Response::decode(&body).unwrap(), Response::Ok);
    let status = child.wait().expect("wait rwled");
    assert!(status.success(), "rwled exited with {status}");
}

/// One kill point: load with journaling until `kill_after`, SIGKILL the
/// server, restart it on the same WAL directory, verify the journal.
fn crash_once(store: Store, fsync: &str, pipeline: usize, round: u32, kill_after: Duration) {
    let backend = store.0;
    let dir = scratch(&format!("{backend}-{}-{round}", fsync.replace(':', "-")));
    let wal_dir = dir.join("wal");
    let port_file = dir.join("port");
    let (child, addr) = start_rwled(&wal_dir, store, fsync, &port_file);

    let cfg = LoadgenConfig {
        addr: addr.clone(),
        conns: 4,
        write_pct: 60,
        scan_pct: 0,
        scan_count: 0,
        secs: 30.0, // the kill, not the clock, ends the run
        ops_per_conn: 0,
        key_range: 512,
        zipf_theta: 0.0,
        total_rate: 0,
        pipeline,
        seed: 0xC0FFEE ^ round as u64,
        shutdown: false,
        journal: true,
    };
    let load = std::thread::spawn(move || loadgen::run(&cfg).expect("loadgen run"));

    // xlint: allow(a5) -- the sleep IS the test input: the kill point
    // inside the load window that this round exercises.
    std::thread::sleep(kill_after);
    let mut child = child;
    child.kill().expect("SIGKILL rwled"); // SIGKILL on unix
    child.wait().expect("reap rwled");

    let res = load.join().expect("loadgen thread");
    let acked = res
        .journal
        .iter()
        .filter(|e| e.status == journal::JStatus::Acked)
        .count();
    assert!(
        !res.journal.is_empty(),
        "{backend} {fsync} round {round}: journal is empty — kill landed before any mutation was sent"
    );

    // Restart on the same WAL directory and prefill; recovery replays
    // the log (truncating any torn tail) before the socket opens.
    let (child2, addr2) = start_rwled(&wal_dir, store, fsync, &port_file);
    let report = journal::verify_against(&addr2, &res.journal).expect("verify");
    assert!(
        report.ok(),
        "{backend} {fsync} round {round} (kill after {kill_after:?}): {} lost acks out of {acked} acked \
         mutations over {} keys\n{}",
        report.lost_acks,
        report.keys_checked,
        report.examples.join("\n")
    );
    assert!(
        report.keys_checked > 0,
        "{backend} {fsync} round {round}: vacuous pass — {acked} acked mutations, no keys verified"
    );
    shutdown_rwled(&addr2, child2);
    std::fs::remove_dir_all(&dir).ok();
}

/// Ten kill points spread over the load window, seeded per store name.
fn crash_suite(store: Store, fsync: &str, pipeline: usize) {
    let mut state: u64 = 0x9E3779B97F4A7C15 ^ store.0.len() as u64;
    for round in 0..10u32 {
        // LCG: deterministic "random" kill delays in 20..=420 ms.
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let kill_after = Duration::from_millis(20 + (state >> 33) % 400);
        crash_once(store, fsync, pipeline, round, kill_after);
    }
}

/// Group commit at a shallow pipeline: acked ⇒ fsynced.
#[test]
fn sigkill_recovery_loses_no_acked_writes_sim() {
    crash_suite(SIM, "batch", 4);
}

#[test]
fn sigkill_recovery_loses_no_acked_writes_native() {
    crash_suite(NATIVE, "batch", 4);
}

#[test]
fn sigkill_recovery_loses_no_acked_writes_sgl() {
    crash_suite(SGL, "batch", 4);
}

/// No fsync on the ack path and 64-deep pipelines — what `benchmark/`'s
/// own crash drill runs: a wake-up stages a dozen records, and the one
/// write at its durable wait is all that stands between them and the
/// kill.
#[test]
fn sigkill_recovery_loses_no_acked_writes_sim_fsync_off() {
    crash_suite(SIM, "off", 64);
}

#[test]
fn sigkill_recovery_loses_no_acked_writes_native_fsync_off() {
    crash_suite(NATIVE, "off", 64);
}

#[test]
fn sigkill_recovery_loses_no_acked_writes_sgl_fsync_off() {
    crash_suite(SGL, "off", 64);
}

#[test]
fn sigkill_recovery_loses_no_acked_writes_sim_fsync_interval() {
    crash_suite(SIM, "interval:50", 64);
}

#[test]
fn sigkill_recovery_loses_no_acked_writes_native_fsync_interval() {
    crash_suite(NATIVE, "interval:50", 64);
}

#[test]
fn sigkill_recovery_loses_no_acked_writes_sgl_fsync_interval() {
    crash_suite(SGL, "interval:50", 64);
}

/// A restart whose `--capacity` is smaller than the log needs: the
/// record that does not fit stops the start — exit 2, naming its LSN
/// and the capacity — instead of a server that comes up without a
/// write it acked.
#[test]
fn restart_refuses_a_log_the_store_cannot_hold() {
    const KEYS: u64 = 12_000;
    let dir = scratch("capacity");
    let wal_dir = dir.join("wal");
    let port_file = dir.join("port");
    let (child, addr) = start_rwled(&wal_dir, SIM, "off", &port_file);
    let mut c = TcpStream::connect(&addr).expect("connect");
    for chunk in (0..KEYS).collect::<Vec<_>>().chunks(1000) {
        let mut wire = Vec::new();
        for &key in chunk {
            let req = Request::Put {
                key: 1_000_000 + key,
                value: key,
            };
            wire.extend_from_slice(&req.to_frame());
        }
        c.write_all(&wire).expect("send");
        for _ in chunk {
            let body = read_frame(&mut c).expect("reply");
            assert_eq!(Response::decode(&body).unwrap(), Response::Ok);
        }
    }
    drop(c);
    shutdown_rwled(&addr, child);

    // The store without `--capacity 20000` holds about 5 000 new keys.
    let mut child = rwled(&wal_dir, SIM, "off", &port_file, &["--capacity", "0"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn rwled");
    let deadline = Instant::now() + Duration::from_secs(20);
    let status = loop {
        if let Some(status) = child.try_wait().expect("wait rwled") {
            break status;
        }
        if Instant::now() > deadline {
            child.kill().expect("kill rwled");
            child.wait().expect("reap rwled");
            panic!("rwled started on a log its store cannot hold");
        }
        // xlint: allow(a5) -- polling a child process for its exit;
        // there is no in-process event to wait on across the exec
        // boundary.
        std::thread::sleep(Duration::from_millis(5));
    };
    let mut stderr = String::new();
    std::io::Read::read_to_string(&mut child.stderr.take().unwrap(), &mut stderr).unwrap();
    assert_eq!(status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("the record at lsn ") && stderr.contains("a capacity of 0 keys"),
        "{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A clean (non-crash) durable restart must also replay exactly: run a
/// short journaled load, drain the server, restart, verify. Catches
/// bugs the SIGKILL path can hide (e.g. recovery depending on the torn
/// tail that a clean drain never leaves behind).
#[test]
fn clean_restart_replays_the_full_log() {
    let dir = scratch("clean");
    let wal_dir = dir.join("wal");
    let port_file = dir.join("port");
    let (child, addr) = start_rwled(&wal_dir, SIM, "batch", &port_file);
    let cfg = LoadgenConfig {
        addr: addr.clone(),
        conns: 2,
        write_pct: 50,
        scan_pct: 0,
        scan_count: 0,
        secs: 30.0, // generous timeout; the op cap ends the run
        ops_per_conn: 500,
        key_range: 256,
        zipf_theta: 0.0,
        total_rate: 0,
        pipeline: 2,
        seed: 7,
        shutdown: false,
        journal: true,
    };
    let res = loadgen::run(&cfg).expect("loadgen");
    assert_eq!(res.errors, 0, "clean run must not error");
    shutdown_rwled(&addr, child);

    let (child2, addr2) = start_rwled(&wal_dir, SIM, "batch", &port_file);
    let report = journal::verify_against(&addr2, &res.journal).expect("verify");
    assert!(
        report.ok(),
        "clean restart lost acks: {}",
        report.examples.join("\n")
    );
    assert!(report.keys_checked > 0, "nothing verified");
    shutdown_rwled(&addr2, child2);
    std::fs::remove_dir_all(&dir).ok();
}
