//! A durable `rwled` at the edge of its process limits: the threads it
//! runs, and what it does once its descriptor table is full. Real child
//! processes, as in `crash.rs`; the fd limit is set by the shell that
//! execs the server (`sh -c 'ulimit -n 64; exec rwled …'`), so it binds
//! the server alone and the pid the test holds is the server's.
//!
//! At the limit `accept` fails with EMFILE for as long as the backlog
//! holds a connection. The server must neither spin on that (the
//! acceptor backs off) nor stop acking the connections it already has
//! (under `--fsync batch` an ack needs an fsync, which must not need a
//! descriptor).

use std::io::Write as _;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use svc::proto::{read_frame, Request, Response};

/// The descriptor limit the fd-limit tests give the server.
const FD_LIMIT: usize = 64;

/// Connections the fd-limit tests open on top of the first one: enough
/// to fill the server's table and leave the rest in its backlog.
const FLOOD: usize = 120;

/// How long a reply may take before the server counts as hung.
const REPLY_TIMEOUT: Duration = Duration::from_secs(3);

/// Fresh scratch directory under the system temp dir.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("svc-limits-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch");
    dir
}

/// A running `rwled` child; killed and reaped on drop, so a failing
/// test leaks no server.
struct Rwled {
    child: Child,
    addr: String,
}

impl Rwled {
    /// Starts a durable native-store `rwled` with `threads` workers
    /// under `fsync` in `dir`, under an fd limit if one is given, and
    /// waits for its port file.
    fn start(dir: &Path, threads: usize, fsync: &str, fd_limit: Option<usize>) -> Rwled {
        let port_file = dir.join("port");
        let limit = fd_limit.map(|n| format!("ulimit -n {n}; "));
        let script = format!("{}exec \"$0\" \"$@\"", limit.unwrap_or_default());
        let mut cmd = Command::new("sh");
        cmd.args(["-c", &script, env!("CARGO_BIN_EXE_rwled")])
            .args(["--port", "0", "--backend", "native", "--prefill", "1000"])
            .args(["--threads", &threads.to_string(), "--fsync", fsync])
            .arg("--port-file")
            .arg(&port_file)
            .arg("--wal-dir")
            .arg(dir.join("wal"))
            .stdout(Stdio::null())
            .stderr(Stdio::inherit());
        let mut server = Rwled {
            child: cmd.spawn().expect("spawn rwled"),
            addr: String::new(),
        };
        let deadline = Instant::now() + Duration::from_secs(20);
        let port = loop {
            if let Ok(s) = std::fs::read_to_string(&port_file) {
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
        server.addr = format!("127.0.0.1:{port}");
        server
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Entries of `/proc/<pid>/<what>` (its threads, its descriptors).
    fn count(&self, what: &str) -> usize {
        std::fs::read_dir(format!("/proc/{}/{what}", self.pid()))
            .expect("read /proc")
            .count()
    }

    /// User plus system CPU time so far, from `/proc/<pid>/stat` (fields
    /// 14 and 15, in clock ticks of the kernel's fixed 100 Hz USER_HZ).
    fn cpu(&self) -> Duration {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid())).expect("stat");
        // Fields from the state on; the command name before it may
        // contain spaces.
        let fields: Vec<u64> = stat[stat.rfind(')').expect("comm") + 2..]
            .split(' ')
            .skip(1)
            .map(|f| f.parse().unwrap_or(0))
            .collect();
        Duration::from_millis(10 * (fields[10] + fields[11]))
    }

    /// Opens a connection the server has accepted: it answered a PUT.
    fn accepted(&self) -> TcpStream {
        let mut c = TcpStream::connect(&self.addr).expect("connect");
        c.set_read_timeout(Some(REPLY_TIMEOUT)).unwrap();
        assert_eq!(put(&mut c, 1), Response::Ok);
        c
    }

    /// Opens `FLOOD` more connections and waits until the server's
    /// descriptor table is full; returns them, to be held open.
    fn fill_fd_table(&self) -> Vec<TcpStream> {
        let flood: Vec<TcpStream> = (0..FLOOD)
            .map(|_| TcpStream::connect(&self.addr).expect("connect (backlog)"))
            .collect();
        let deadline = Instant::now() + Duration::from_secs(10);
        while self.count("fd") < FD_LIMIT {
            assert!(
                Instant::now() < deadline,
                "the server holds {} descriptors, never reaching its limit of {FD_LIMIT}",
                self.count("fd")
            );
            // xlint: allow(a5) -- polling another process's descriptor
            // table; nothing in this process is told when it grows.
            std::thread::sleep(Duration::from_millis(5));
        }
        flood
    }

    /// SHUTDOWN over `c`, then the drained exit.
    fn shutdown(mut self, mut c: TcpStream) {
        c.write_all(&Request::Shutdown.to_frame()).expect("send");
        let body = read_frame(&mut c).expect("shutdown reply");
        assert_eq!(Response::decode(&body).unwrap(), Response::Ok);
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Some(status) = self.child.try_wait().expect("wait rwled") {
                assert!(status.success(), "rwled exited with {status}");
                return;
            }
            assert!(
                Instant::now() < deadline,
                "rwled never exited after SHUTDOWN"
            );
            // xlint: allow(a5) -- polling a child process for its exit;
            // there is no in-process event to wait on across the exec
            // boundary.
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Rwled {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A PUT of `key` over `c`, and its reply.
fn put(c: &mut TcpStream, key: u64) -> Response {
    c.write_all(&Request::Put { key, value: key }.to_frame())
        .expect("send");
    let body = read_frame(c).expect("reply within the read timeout");
    Response::decode(&body).expect("decode reply")
}

/// The ack of a PUT needs an fsync under `batch`, and at the fd limit
/// that fsync must not need a new descriptor: a connection accepted
/// before the table filled still gets its ack, and SHUTDOWN still
/// drains the server.
#[test]
fn a_batch_server_at_its_fd_limit_acks_an_accepted_connection() {
    let dir = scratch("ack");
    let server = Rwled::start(&dir, 2, "batch", Some(FD_LIMIT));
    let mut c = server.accepted();
    let _flood = server.fill_fd_table();
    assert_eq!(put(&mut c, 2), Response::Ok);
    server.shutdown(c);
    let _ = std::fs::remove_dir_all(&dir);
}

/// With a full descriptor table and a backlog that holds connections,
/// an idle server stays idle: no thread retries a failing `accept` (or
/// anything else that needs a descriptor) in a loop.
#[test]
fn a_batch_server_at_its_fd_limit_does_not_spin() {
    let dir = scratch("spin");
    let server = Rwled::start(&dir, 2, "batch", Some(FD_LIMIT));
    let c = server.accepted();
    let _flood = server.fill_fd_table();
    let (cpu0, t0) = (server.cpu(), Instant::now());
    // xlint: allow(a5) -- the sleep IS the measurement window: the
    // server's CPU time is read across it.
    std::thread::sleep(Duration::from_secs(1));
    let per_s = (server.cpu() - cpu0).as_secs_f64() / t0.elapsed().as_secs_f64();
    assert!(per_s < 0.25, "{per_s:.2} CPU-s per second at the fd limit");
    server.shutdown(c);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The log spawns no thread of its own under `batch` and `off` — a
/// waiter leads the group commit — and one ticker under `interval`: the
/// server runs its workers, the acceptor (the main thread) and nothing
/// else.
#[test]
fn a_durable_server_runs_its_workers_and_the_acceptor() {
    const THREADS: usize = 3;
    for (fsync, log_threads) in [("batch", 0), ("off", 0), ("interval:50", 1)] {
        let dir = scratch(&format!("threads-{}", fsync.replace(':', "-")));
        let server = Rwled::start(&dir, THREADS, fsync, None);
        // A reply means the accept loop runs, so every worker is up.
        let c = server.accepted();
        assert_eq!(
            server.count("task"),
            THREADS + 1 + log_threads,
            "--fsync {fsync} --threads {THREADS}"
        );
        server.shutdown(c);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
