//! Host-speed calibration.
//!
//! The sizing host's vCPUs do not run at a steady speed: a fixed
//! single-threaded loop completes 17.7k–27.6k units per second within
//! one minute, and the noise is slow (the coefficient of variation is
//! 17 % over 0.1 s slices, still 11 % over 10 s and 9 % over 20 s), so a
//! longer run does not average it away and every time-based metric
//! inherits it. Two slices taken right after one another, though, agree:
//! the ratio of interleaved 250 ms slices of that loop varies by 1–2 %.
//!
//! So every cycle of load ends in a short gap in which the connections
//! drain, the server idles, and one thread pinned to each CPU times two
//! fixed kernels in alternating 1 ms slices:
//!
//! * **compute** — a dependent chain of multiply, add and a load from a
//!   32 KiB table: the CPU's clock and the share of it the thread gets;
//! * **path** — a 64-byte message written to and read back from a
//!   loopback TCP pair the thread owns both ends of: system-call entry
//!   and exit and the kernel's socket path, with all the memory they
//!   touch, and no wake-up.
//!
//! One kernel is not enough. When the host turns noisy (a neighbour on
//! the same core or cache) the compute kernel loses 15–20 % and the path
//! kernel 35 %, and the workloads follow whichever they are made of: over
//! two dozen runs spanning both moods of the host, `svc-paced` latency
//! rose 1.63× while compute fell 1.22× and path 1.59×; `svc-write`
//! rose 1.41×, the geometric mean of the two. The server says which it is
//! made of: its own system share of CPU time over the measured cycles
//! (`stime / (utime + stime)` from `/proc`, 0.77 on `svc-paced`, 0.45 on
//! `svc-write`, 0.21 on `svc-read`). A window's speed is the mean of the
//! two kernels' speeds weighted by that share ([`Speeds::mixed`]), i.e.
//! time per request = user part ÷ compute speed + system part ÷ path
//! speed; throughput is divided by it and latencies multiplied. On those
//! runs that took the quartile spread of `svc-paced/p50_us` from 20 %
//! (compute alone) to 5 % and of `svc-write` from 11 % to 4 %, with no
//! constant fitted. The raw readings are printed beside the normalised
//! ones.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Time after the start of a gap left to the connections to drain.
pub const DRAIN: Duration = Duration::from_millis(5);

/// Time before the end of a gap the calibrators stop, so the next
/// cycle's first requests find the CPUs free.
pub const MARGIN: Duration = Duration::from_millis(2);

/// Compute-kernel iterations per second that count as speed 1.0: what
/// one CPU of the sizing host reaches when undisturbed. Only a unit —
/// the same constant divides the parent's numbers and the change's.
pub const NOMINAL_ITERS_PER_S: f64 = 400e6;

/// Path-kernel round trips per second that count as speed 1.0, likewise.
pub const NOMINAL_ROUND_TRIPS_PER_S: f64 = 240e3;

/// How long one kernel runs before the other takes over.
const SLICE: Duration = Duration::from_millis(1);

/// Iterations between two looks at the clock (a few microseconds).
const CHUNK: u64 = 2048;

/// Round trips between two looks at the clock (a few dozen microseconds).
const TRIPS: u64 = 8;

/// Work done and the time it took.
#[derive(Default, Clone, Copy)]
struct Tally {
    units: u64,
    secs: f64,
}

impl Tally {
    fn add(&mut self, units: u64, took: Duration) {
        self.units += units;
        self.secs += took.as_secs_f64();
    }

    /// Units per second relative to `nominal`. A kernel that never ran
    /// (the gap was over before it began: a stalled thread) has no
    /// reading; nominal is assumed rather than divide by zero.
    fn speed(&self, nominal: f64) -> f64 {
        if self.units == 0 {
            1.0
        } else {
            self.units as f64 / self.secs / nominal
        }
    }
}

/// The compute kernel. It stays in the L1 cache, so it disturbs nothing
/// it shares the host with.
struct Compute {
    table: Vec<u64>,
    x: u64,
}

impl Compute {
    fn new() -> Compute {
        Compute {
            table: (0..4096u64)
                .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
                .collect(),
            x: 0x2545_f491_4f6c_dd1d,
        }
    }

    /// Runs until `until` and adds the iterations to `tally`.
    fn run(&mut self, until: Instant, tally: &mut Tally) {
        let began = Instant::now();
        let mut iters = 0u64;
        let mut now = began;
        let mut x = self.x;
        while now < until {
            for _ in 0..CHUNK {
                x = x
                    .wrapping_mul(0x5851_f42d_4c95_7f2d)
                    .wrapping_add(self.table[(x >> 52) as usize]);
            }
            iters += CHUNK;
            now = Instant::now();
        }
        self.x = std::hint::black_box(x);
        tally.add(iters, now - began);
    }
}

/// The path kernel: a connected loopback TCP pair held by one thread.
pub struct PathProbe {
    tx: TcpStream,
    rx: TcpStream,
}

impl PathProbe {
    /// Opens the pair on an ephemeral loopback port.
    pub fn open() -> io::Result<PathProbe> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let tx = TcpStream::connect(listener.local_addr()?)?;
        let (rx, _) = listener.accept()?;
        tx.set_nodelay(true)?;
        Ok(PathProbe { tx, rx })
    }

    /// Sends a message and reads it back until `until`, and adds the
    /// round trips to `tally`. Loopback delivers within the `write`, so
    /// the `read` finds the bytes there: two system calls and the socket
    /// path in between, no sleep.
    fn run(&mut self, until: Instant, tally: &mut Tally) -> io::Result<()> {
        let mut msg = [0x5au8; 64];
        let began = Instant::now();
        let mut trips = 0u64;
        let mut now = began;
        while now < until {
            for _ in 0..TRIPS {
                self.tx.write_all(&msg)?;
                self.rx.read_exact(&mut msg)?;
            }
            trips += TRIPS;
            now = Instant::now();
        }
        tally.add(trips, now - began);
        Ok(())
    }
}

/// The host's speed on both kernels, each relative to its nominal rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Speeds {
    /// Compute kernel.
    pub compute: f64,
    /// Path kernel.
    pub path: f64,
}

impl Speeds {
    /// The speed of work that spends `sys_share` of its CPU time in the
    /// kernel: its time is the user part over the compute speed plus the
    /// system part over the path speed, with the shares as observed, so
    /// the speeds are averaged by them.
    pub fn mixed(&self, sys_share: f64) -> f64 {
        (1.0 - sys_share) * self.compute + sys_share * self.path
    }

    /// Component-wise mean.
    pub fn mean(all: &[Speeds]) -> Speeds {
        let n = all.len().max(1) as f64;
        Speeds {
            compute: all.iter().map(|s| s.compute).sum::<f64>() / n,
            path: all.iter().map(|s| s.path).sum::<f64>() / n,
        }
    }
}

fn sleep_until(at: Instant) {
    if let Some(wait) = at.checked_duration_since(Instant::now()) {
        std::thread::sleep(wait);
    }
}

/// Runs both kernels in alternating slices from `start` (sleeping until
/// then) to `end` and returns their speeds.
pub fn speeds_between(start: Instant, end: Instant, probe: &mut PathProbe) -> io::Result<Speeds> {
    let mut compute = Compute::new();
    let (mut iters, mut trips) = (Tally::default(), Tally::default());
    sleep_until(start);
    let mut now = Instant::now();
    while now < end {
        compute.run((now + SLICE).min(end), &mut iters);
        probe.run((Instant::now() + SLICE).min(end), &mut trips)?;
        now = Instant::now();
    }
    Ok(Speeds {
        compute: iters.speed(NOMINAL_ITERS_PER_S),
        path: trips.speed(NOMINAL_ROUND_TRIPS_PER_S),
    })
}

/// Runs the compute kernel from `start` (sleeping until then) to `end`
/// and returns its speed relative to nominal.
pub fn speed_between(start: Instant, end: Instant) -> f64 {
    let mut iters = Tally::default();
    sleep_until(start);
    Compute::new().run(end, &mut iters);
    iters.speed(NOMINAL_ITERS_PER_S)
}

/// How long the host's speed is read around a single timing.
const BRACKET: Duration = Duration::from_millis(40);

/// Runs `timed` between two readings of the host's compute speed and
/// returns its result with their mean: what the layer microbenchmarks
/// (user-level code, all of them) are normalised by.
pub fn with_speed<T>(timed: impl FnOnce() -> T) -> (T, f64) {
    let mut readings = cpu_speeds();
    let out = timed();
    readings.extend(cpu_speeds());
    let mean = readings.iter().sum::<f64>() / readings.len() as f64;
    (out, mean)
}

/// Like [`with_speed`], but returns the fastest reading of any CPU: the
/// speed that goes with a timing that is itself the fastest of several
/// (a stall only ever lowers a reading, as it only ever lengthens a
/// start, and the minimum of the starts dodged it).
pub fn with_fastest_speed<T>(timed: impl FnOnce() -> T) -> (T, f64) {
    let mut readings = cpu_speeds();
    let out = timed();
    readings.extend(cpu_speeds());
    (out, readings.into_iter().fold(f64::MIN, f64::max))
}

/// The host's compute speed right now: the kernel on every CPU at once
/// for 40 ms, one reading per CPU.
fn cpu_speeds() -> Vec<f64> {
    let d = BRACKET;
    let start = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..crate::proc::nproc())
            .map(|cpu| {
                s.spawn(move || {
                    crate::proc::pin_to_nth_cpu(cpu);
                    speed_between(start, start + d)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("calibrator panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_is_positive_and_grows_with_nothing_but_time() {
        let t = Instant::now();
        let a = speed_between(t, t + Duration::from_millis(20));
        let t = Instant::now();
        let b = speed_between(t, t + Duration::from_millis(40));
        // Twice the time is twice the iterations, not twice the speed.
        assert!(a > 0.0 && b > 0.0);
        assert!(b / a > 0.5 && b / a < 2.0, "{a} vs {b}");
        // A gap that is already over reads as nominal.
        assert_eq!(speed_between(t, t), 1.0);
    }

    #[test]
    fn both_kernels_get_their_slices() {
        let mut probe = PathProbe::open().unwrap();
        let t = Instant::now();
        let s = speeds_between(t, t + Duration::from_millis(20), &mut probe).unwrap();
        assert!(s.compute > 0.0 && s.path > 0.0, "{s:?}");
        // Neither ran: both read as nominal.
        let none = speeds_between(t, t, &mut probe).unwrap();
        assert_eq!((none.compute, none.path), (1.0, 1.0));
    }

    #[test]
    fn speeds_mix_by_the_system_share() {
        let s = Speeds {
            compute: 0.8,
            path: 0.6,
        };
        assert_eq!(s.mixed(0.0), 0.8);
        assert_eq!(s.mixed(1.0), 0.6);
        assert!((s.mixed(0.25) - 0.75).abs() < 1e-12);
        let fast = Speeds {
            compute: 1.0,
            path: 1.0,
        };
        let mean = Speeds::mean(&[s, fast]);
        assert!((mean.compute - 0.9).abs() < 1e-12 && (mean.path - 0.8).abs() < 1e-12);
    }
}
