//! Building and driving the `rwled` binary: spawn, first reply, STATS,
//! `/proc` readings, SHUTDOWN and SIGKILL.
//!
//! End-to-end numbers depend only on this surface: the command line, the
//! lines `rwled` prints, and the wire protocol.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use svc::proto::{read_frame, Request, Response, ServerStats};

/// How long any single control exchange (first reply, STATS, SHUTDOWN
/// ack, exit) may take before the run is declared failed.
const CONTROL_TIMEOUT: Duration = Duration::from_secs(30);

/// Repository root: the parent of this package.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf()
}

/// Scratch directory for traces, journals and WAL directories.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Builds `rwled` from source (`cargo build --release -p svc`) and
/// returns the binary's path and the build's wall time in seconds.
pub fn build_rwled() -> io::Result<(PathBuf, f64)> {
    let root = repo_root();
    let t0 = Instant::now();
    // Cargo's progress goes to stderr; its stdout is kept off ours, whose
    // last line is the result.
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "-p",
            "svc",
            "--bin",
            "rwled",
        ])
        .current_dir(&root)
        .stdout(Stdio::null())
        .status()?;
    if !status.success() {
        return Err(io::Error::other(format!("cargo build -p svc: {status}")));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    let bin = root.join(target).join("release").join("rwled");
    if !bin.is_file() {
        return Err(io::Error::other(format!(
            "built rwled not found at {}",
            bin.display()
        )));
    }
    Ok((bin, t0.elapsed().as_secs_f64()))
}

/// What `rwled` printed after draining.
#[derive(Debug, Default, Clone)]
pub struct DrainReport {
    /// `N enqueued` of the drain line.
    pub enqueued: u64,
    /// `N replied` of the drain line.
    pub replied: u64,
    /// Commit mix in percent: HTM, ROT, SGL, Uninstr.
    pub commit_pct: [f64; 4],
    /// Aborts per hundred attempts.
    pub abort_pct: f64,
}

/// Parses the number that follows `key` (`"HTM="` → `12.5`) or precedes
/// it (`" enqueued"` → `1234`).
fn number_near(text: &str, key: &str, before: bool) -> Option<f64> {
    let at = text.find(key)?;
    let is_num = |c: char| c.is_ascii_digit() || c == '.';
    let token: String = if before {
        let head = &text[..at];
        let start = head.rfind(|c: char| !is_num(c)).map_or(0, |i| i + 1);
        head[start..].to_string()
    } else {
        text[at + key.len()..]
            .chars()
            .take_while(|&c| is_num(c))
            .collect()
    };
    token.parse().ok()
}

/// Parses `rwled`'s stdout after SHUTDOWN.
pub fn parse_drain(stdout: &str) -> Option<DrainReport> {
    let drained = stdout.lines().find(|l| l.starts_with("rwled drained:"))?;
    let mix = stdout.lines().find(|l| l.contains("commits[HTM="))?;
    let aborts = &mix[mix.find("aborts[")? + "aborts[".len()..];
    Some(DrainReport {
        enqueued: number_near(drained, " enqueued", true)? as u64,
        replied: number_near(drained, " replied", true)? as u64,
        commit_pct: [
            number_near(mix, "HTM=", false)?,
            number_near(mix, "ROT=", false)?,
            number_near(mix, "SGL=", false)?,
            number_near(mix, "Uninstr=", false)?,
        ],
        abort_pct: number_near(aborts, "%", true)?,
    })
}

/// A running `rwled` child.
pub struct Server {
    child: Child,
    stdout: BufReader<ChildStdout>,
    /// `127.0.0.1:<port>` the server listens on.
    pub addr: String,
    /// Spawn to first successful reply, in seconds.
    pub setup_s: f64,
}

/// One request/response exchange on a fresh connection.
fn exchange(addr: &str, req: &Request) -> io::Result<Response> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(CONTROL_TIMEOUT))?;
    stream.write_all(&req.to_frame())?;
    let body = read_frame(&mut stream)?;
    Response::decode(&body).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

impl Server {
    /// Spawns `rwled` with `flags` on an ephemeral port and waits for its
    /// first successful reply (a STATS exchange): prefill, WAL replay and
    /// bind are all inside `setup_s`.
    pub fn spawn(rwled: &Path, flags: &[String]) -> io::Result<Server> {
        let threads = nproc();
        let t0 = Instant::now();
        let mut child = Command::new(rwled)
            .args(["--port", "0", "--threads", &threads.to_string()])
            .args(flags)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        // rwled prints the bound address once it is ready to serve.
        let mut addr = None;
        let mut line = String::new();
        while addr.is_none() {
            line.clear();
            if stdout.read_line(&mut line)? == 0 {
                let status = child.wait()?;
                return Err(io::Error::other(format!(
                    "rwled exited before listening: {status}"
                )));
            }
            addr = line
                .strip_prefix("rwled listening on ")
                .and_then(|rest| rest.split_whitespace().next())
                .map(str::to_string);
        }
        let addr = addr.expect("loop ends with an address");
        let mut server = Server {
            child,
            stdout,
            addr,
            setup_s: 0.0,
        };
        match exchange(&server.addr, &Request::Stats) {
            Ok(Response::Stats(_)) => {
                server.setup_s = t0.elapsed().as_secs_f64();
                Ok(server)
            }
            other => {
                server.kill();
                Err(io::Error::other(format!("first reply was {other:?}")))
            }
        }
    }

    /// Process id of the child.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Where a load run finds the server: its address and process id.
    pub fn at(&self) -> (&str, u32) {
        (&self.addr, self.pid())
    }

    /// The server's counters.
    pub fn stats(&self) -> io::Result<ServerStats> {
        match exchange(&self.addr, &Request::Stats)? {
            Response::Stats(s) => Ok(*s),
            other => Err(io::Error::other(format!("STATS answered {other:?}"))),
        }
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn rss_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
    }

    /// Restricts every thread the server has now to `cpus`. Called after
    /// the first reply, when the workers exist: `setup_s` is not touched.
    pub fn pin(&self, cpus: &[usize]) -> io::Result<()> {
        for task in std::fs::read_dir(format!("/proc/{}/task", self.pid()))? {
            let tid = task?.file_name().to_string_lossy().parse::<i32>();
            pin(tid.map_err(io::Error::other)?, cpus)?;
        }
        Ok(())
    }

    /// CPU seconds (user + system) the server has used.
    pub fn cpu_s(&self) -> io::Result<f64> {
        Ok(cpu_times(self.pid())?.total_s())
    }

    /// Sends SHUTDOWN, waits for the drain and the exit, and returns the
    /// drain report. An exit code other than 0 (`enqueued != replied`)
    /// or a missing report is an error.
    pub fn shutdown(mut self) -> io::Result<DrainReport> {
        match exchange(&self.addr, &Request::Shutdown) {
            Ok(Response::Ok) => {}
            other => {
                self.kill();
                return Err(io::Error::other(format!("SHUTDOWN answered {other:?}")));
            }
        }
        let deadline = Instant::now() + CONTROL_TIMEOUT;
        let status = loop {
            match self.child.try_wait()? {
                Some(status) => break status,
                None if Instant::now() >= deadline => {
                    self.kill();
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "rwled did not exit after SHUTDOWN",
                    ));
                }
                None => std::thread::sleep(Duration::from_millis(2)),
            }
        };
        let mut rest = String::new();
        self.stdout.read_to_string(&mut rest)?;
        if !status.success() {
            return Err(io::Error::other(format!("rwled exited with {status}")));
        }
        let report = parse_drain(&rest)
            .ok_or_else(|| io::Error::other(format!("no drain report in {rest:?}")))?;
        if report.enqueued != report.replied {
            return Err(io::Error::other(format!(
                "drain mismatch: {} enqueued, {} replied",
                report.enqueued, report.replied
            )));
        }
        Ok(report)
    }

    /// SIGKILLs the server and reaps it.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Every exit path stops the child and waits for it to end
        // (a no-op after `shutdown` or `kill`).
        self.kill();
    }
}

/// Online CPUs: the server's `--threads` and the cap on connections.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Words of the CPU masks passed to the kernel: 1024 CPUs.
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The CPUs this thread may run on, ascending; empty where the kernel
/// does not say.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: the kernel writes at most the `size` bytes it is given,
    // into a buffer of exactly that size that lives across the call.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..64 * MASK_WORDS)
        .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Restricts thread `tid` (0: the calling thread) to `cpus`.
pub fn pin(tid: i32, cpus: &[usize]) -> io::Result<()> {
    let mut mask = [0u64; MASK_WORDS];
    for &cpu in cpus.iter().filter(|&&cpu| cpu < 64 * MASK_WORDS) {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: the kernel reads `size` bytes from a buffer of exactly
    // that size and keeps no pointer to it.
    match unsafe { sched_setaffinity(tid, std::mem::size_of_val(&mask), mask.as_ptr()) } {
        0 => Ok(()),
        _ => Err(io::Error::last_os_error()),
    }
}

/// Pins the calling thread to the `i`-th CPU it may run on (wrapping):
/// threads that are to load every CPU at once must not be left to share
/// one. Without effect where the mask cannot be read or set.
pub fn pin_to_nth_cpu(i: usize) {
    let cpus = allowed_cpus();
    if !cpus.is_empty() {
        let _ = pin(0, &[cpus[i % cpus.len()]]);
    }
}

/// Where an open-loop run puts its two sides on two or more CPUs: the
/// server's threads on all but the last, the generator's one spinning
/// thread on the last. `None` on a single CPU (nothing to separate).
pub fn paced_placement() -> Option<(Vec<usize>, usize)> {
    let cpus = allowed_cpus();
    let (&generator, server) = cpus.split_last()?;
    (!server.is_empty()).then(|| (server.to_vec(), generator))
}

/// CPU seconds a process has used, by mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuTimes {
    /// In user mode.
    pub user_s: f64,
    /// In the kernel.
    pub sys_s: f64,
}

impl CpuTimes {
    /// Both modes together.
    pub fn total_s(&self) -> f64 {
        self.user_s + self.sys_s
    }
}

/// `utime` and `stime` of the line of a `/proc/<pid>/stat` file.
fn parse_cpu_times(stat: &str) -> Option<CpuTimes> {
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, 12 and 13 after the `)`.
    let (_, rest) = stat.rsplit_once(')')?;
    let mut ticks = rest
        .split_whitespace()
        .skip(11)
        .map(|f| f.parse::<u64>().ok());
    // USER_HZ is 100 on every Linux ABI.
    Some(CpuTimes {
        user_s: ticks.next()?? as f64 / 100.0,
        sys_s: ticks.next()?? as f64 / 100.0,
    })
}

/// CPU seconds process `pid` (all its threads) has used.
pub fn cpu_times(pid: u32) -> io::Result<CpuTimes> {
    parse_cpu_times(&std::fs::read_to_string(format!("/proc/{pid}/stat"))?)
        .ok_or_else(|| io::Error::other("malformed /proc stat"))
}

/// CPU seconds this process (all its threads) has used.
pub fn self_cpu_s() -> io::Result<f64> {
    Ok(cpu_times(std::process::id())?.total_s())
}

/// Filesystem type holding `path`, from the longest matching mount point.
pub fn filesystem_of(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, mount, fstype) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, fstype)| fstype)
}

/// First line of a command's stdout, or `"unknown"`.
pub fn command_line_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(repo_root())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drain_report_parses_rwled_output() {
        let out = "rwled drained: 135251 enqueued, 135251 replied, 0 shed, 0 malformed, 0 timeouts, 5 conns\n  \
                   batches: 35415 (3.82 ops/batch), barriers: 34307 full + 1 shared, writev: 35415\n  \
                   commits[HTM=1.5% ROT=38.1% SGL=0.0% Uninstr=60.4%] aborts[2.5%: HTM tx=0.0% HTM non-tx=0.0%]\n";
        let r = parse_drain(out).unwrap();
        assert_eq!((r.enqueued, r.replied), (135251, 135251));
        assert_eq!(r.commit_pct, [1.5, 38.1, 0.0, 60.4]);
        assert_eq!(r.abort_pct, 2.5);
        assert!(parse_drain("rwled listening on 127.0.0.1:1\n").is_none());
    }

    #[test]
    fn cpu_times_are_read_past_a_command_name_with_spaces() {
        let stat = "4242 (rw led) worker) S 1 4242 4242 0 -1 4194560 291 0 0 0 \
                    1234 567 0 0 20 0 3 0 100 1 2 3";
        let t = parse_cpu_times(stat).unwrap();
        assert_eq!((t.user_s, t.sys_s), (12.34, 5.67));
        assert!((t.total_s() - 18.01).abs() < 1e-9);
        assert!(parse_cpu_times("4242 (rwled) S 1 2").is_none());
    }

    #[test]
    fn own_cpu_time_is_readable() {
        assert!(self_cpu_s().unwrap() >= 0.0);
        assert!(nproc() >= 1);
    }

    #[test]
    fn a_thread_can_be_pinned_within_its_mask() {
        std::thread::spawn(|| {
            let cpus = allowed_cpus();
            assert!(!cpus.is_empty() && cpus.windows(2).all(|c| c[0] < c[1]));
            pin_to_nth_cpu(cpus.len());
            assert_eq!(allowed_cpus(), [cpus[0]]);
            // From a single CPU there is nothing to split.
            assert!(paced_placement().is_none());
            pin(0, &cpus).unwrap();
            match paced_placement() {
                Some((server, generator)) => {
                    assert_eq!(generator, *cpus.last().unwrap());
                    assert_eq!(server, cpus[..cpus.len() - 1]);
                }
                None => assert_eq!(cpus.len(), 1),
            }
        })
        .join()
        .unwrap();
    }
}
