//! Thin readiness-notification shim over `epoll`.
//!
//! `rwled`'s event loop needs exactly four kernel facilities: create an
//! interest set, add/modify/remove file descriptors, block until some are
//! ready, and wake a blocked waiter from another thread. The std library
//! exposes none of them, and the repo's no-external-deps discipline rules
//! out `libc`/`mio`, so — like the `madvise` call in `simmem::mem` — the
//! Linux build talks to the kernel with raw `syscall` instructions
//! (x86-64 and aarch64). Everything else in the server sticks to std:
//! sockets stay `TcpStream`s flipped to nonblocking mode, read and
//! written through `Read::read` and `Write::write`.
//!
//! Linux on those two architectures is the only target: anything else
//! is a compile error, not a degraded mode no CI job would ever run.
//!
//! Level-triggered semantics on purpose: a connection whose buffered
//! request frames were deferred by the batch budget is re-reported by the
//! kernel until its socket drains, which keeps the loop's backpressure
//! logic trivial (no readiness bookkeeping beyond the carry list).

/// What readiness a registration wants to hear about.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest {
    /// Report when the descriptor is readable.
    pub read: bool,
    /// Report when the descriptor is writable.
    pub write: bool,
}

impl Interest {
    /// Read readiness only — the steady state of an idle connection.
    pub const READ: Interest = Interest {
        read: true,
        write: false,
    };
    /// Read and write readiness — armed while reply bytes are
    /// backpressured.
    pub const BOTH: Interest = Interest {
        read: true,
        write: true,
    };
}

/// One readiness report. `hangup` folds `EPOLLERR | EPOLLHUP | EPOLLRDHUP`:
/// the loop's response to all three is the same (drain what's readable,
/// then retire the connection).
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// The token the descriptor was registered under.
    pub token: u64,
    /// Readable now (level-triggered: stays set until drained).
    pub readable: bool,
    /// Writable now.
    pub writable: bool,
    /// Peer hung up or the descriptor errored.
    pub hangup: bool,
}

pub use sys::{widen_backlog, Poller, Waker};

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod sys {
    use super::{Event, Interest};
    use std::io;
    use std::os::fd::RawFd;
    use std::time::Duration;

    #[cfg(target_arch = "x86_64")]
    mod nr {
        pub const READ: usize = 0;
        pub const WRITE: usize = 1;
        pub const CLOSE: usize = 3;
        pub const LISTEN: usize = 50;
        pub const EPOLL_CTL: usize = 233;
        pub const EPOLL_PWAIT: usize = 281;
        pub const EVENTFD2: usize = 290;
        pub const EPOLL_CREATE1: usize = 291;
    }
    #[cfg(target_arch = "aarch64")]
    mod nr {
        pub const READ: usize = 63;
        pub const WRITE: usize = 64;
        pub const CLOSE: usize = 57;
        pub const LISTEN: usize = 201;
        pub const EPOLL_CTL: usize = 21;
        pub const EPOLL_PWAIT: usize = 22;
        pub const EVENTFD2: usize = 19;
        pub const EPOLL_CREATE1: usize = 20;
    }

    /// Raw five-argument syscall. Returns the kernel's raw result:
    /// negative values are `-errno`.
    ///
    /// # Safety
    ///
    /// The caller must pass arguments valid for syscall `n` (live, correctly
    /// sized pointers where the kernel expects them).
    // SAFETY: declared unsafe to forward exactly that caller obligation.
    #[cfg(target_arch = "x86_64")]
    unsafe fn sys5(n: usize, a: usize, b: usize, c: usize, d: usize, e: usize) -> isize {
        let ret: isize;
        // SAFETY: per contract; rcx/r11 are clobbered by the `syscall`
        // instruction itself (same idiom as simmem's madvise call).
        unsafe {
            core::arch::asm!(
                "syscall",
                inlateout("rax") n => ret,
                in("rdi") a,
                in("rsi") b,
                in("rdx") c,
                in("r10") d,
                in("r8") e,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack, preserves_flags)
            );
        }
        ret
    }

    /// Raw five-argument syscall (aarch64 `svc #0` convention).
    ///
    /// # Safety
    ///
    /// As for the x86-64 variant: arguments must be valid for syscall `n`.
    // SAFETY: declared unsafe to forward exactly that caller obligation.
    #[cfg(target_arch = "aarch64")]
    unsafe fn sys5(n: usize, a: usize, b: usize, c: usize, d: usize, e: usize) -> isize {
        let ret: isize;
        // SAFETY: per contract; aarch64 passes the number in x8 and
        // arguments in x0..x4, result in x0.
        unsafe {
            core::arch::asm!(
                "svc #0",
                in("x8") n,
                inlateout("x0") a => ret,
                in("x1") b,
                in("x2") c,
                in("x3") d,
                in("x4") e,
                options(nostack)
            );
        }
        ret
    }

    /// # Safety
    ///
    /// As for [`sys5`].
    // SAFETY: declared unsafe to forward sys5's caller obligation.
    unsafe fn sys3(n: usize, a: usize, b: usize, c: usize) -> isize {
        // SAFETY: unused trailing argument registers are ignored by the
        // kernel for 3-argument syscalls.
        unsafe { sys5(n, a, b, c, 0, 0) }
    }

    fn check(ret: isize) -> io::Result<isize> {
        if ret < 0 {
            Err(io::Error::from_raw_os_error(-ret as i32))
        } else {
            Ok(ret)
        }
    }

    /// Re-issues `listen(2)` on an already-listening socket to widen its
    /// accept backlog. std's `TcpListener` hardwires a backlog of 128,
    /// which a burst of connections (a load generator opening thousands
    /// of sockets back to back) overflows — dropped SYNs then stall each
    /// affected client for a full retransmission timeout (~1 s). Linux
    /// allows `listen` to be repeated on a live socket purely to update
    /// the backlog; the kernel clamps it to `net.core.somaxconn`.
    /// Best-effort by contract: failure leaves the original backlog.
    pub fn widen_backlog(fd: RawFd, backlog: usize) {
        // SAFETY: listen takes a descriptor and an integer; no pointers.
        let _ = unsafe { sys3(nr::LISTEN, fd as usize, backlog.min(i32::MAX as usize), 0) };
    }

    const EPOLL_CTL_ADD: usize = 1;
    const EPOLL_CTL_DEL: usize = 2;
    const EPOLL_CTL_MOD: usize = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;
    const O_CLOEXEC: usize = 0o2000000;
    const EFD_NONBLOCK: usize = 0o4000;

    /// Kernel `struct epoll_event`. x86-64 uniquely packs it to 12 bytes
    /// (a fossil of the 32-bit ABI); every other architecture uses natural
    /// alignment.
    #[cfg(target_arch = "x86_64")]
    #[repr(C, packed)]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }
    #[cfg(not(target_arch = "x86_64"))]
    #[repr(C)]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        _pad: u32,
        data: u64,
    }

    impl EpollEvent {
        fn new(events: u32, data: u64) -> Self {
            #[cfg(target_arch = "x86_64")]
            {
                EpollEvent { events, data }
            }
            #[cfg(not(target_arch = "x86_64"))]
            {
                EpollEvent {
                    events,
                    _pad: 0,
                    data,
                }
            }
        }
    }

    fn interest_bits(interest: Interest) -> u32 {
        let mut ev = EPOLLRDHUP;
        if interest.read {
            ev |= EPOLLIN;
        }
        if interest.write {
            ev |= EPOLLOUT;
        }
        ev
    }

    /// An epoll instance plus a reusable kernel event buffer. One per
    /// worker; only the owning worker calls [`Poller::wait`].
    pub struct Poller {
        epfd: RawFd,
        buf: Vec<EpollEvent>,
    }

    impl Poller {
        /// Creates an empty interest set.
        pub fn new() -> io::Result<Poller> {
            // SAFETY: epoll_create1 takes a flags word and no pointers.
            let epfd = check(unsafe { sys3(nr::EPOLL_CREATE1, O_CLOEXEC, 0, 0) })? as RawFd;
            Ok(Poller {
                epfd,
                buf: vec![EpollEvent::new(0, 0); 256],
            })
        }

        fn ctl(&self, op: usize, fd: RawFd, ev: Option<EpollEvent>) -> io::Result<()> {
            let ptr = ev
                .as_ref()
                .map_or(core::ptr::null(), |e| e as *const EpollEvent);
            // SAFETY: `ptr` is null (DEL) or points at a live EpollEvent
            // for the duration of the call; epoll_ctl only reads it.
            check(unsafe {
                sys5(
                    nr::EPOLL_CTL,
                    self.epfd as usize,
                    op,
                    fd as usize,
                    ptr as usize,
                    0,
                )
            })?;
            Ok(())
        }

        /// Registers `fd` with `token`; readiness reports carry the token
        /// back, so callers can use slab slot indices directly.
        pub fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(
                EPOLL_CTL_ADD,
                fd,
                Some(EpollEvent::new(interest_bits(interest), token)),
            )
        }

        /// Rewrites the interest set for an already-registered `fd`.
        pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(
                EPOLL_CTL_MOD,
                fd,
                Some(EpollEvent::new(interest_bits(interest), token)),
            )
        }

        /// Drops `fd` from the interest set. Closing the descriptor does
        /// this implicitly, but the loop deregisters explicitly so the
        /// epoll set never holds a dangling registration across the close.
        pub fn remove(&self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, None)
        }

        /// Blocks until readiness or `timeout` (None = forever), appending
        /// reports to `out`. EINTR retries internally.
        pub fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
            let ms: isize = match timeout {
                None => -1,
                // Round up so a nonzero timeout never busy-spins as 0 ms.
                Some(t) => {
                    t.as_millis().min(isize::MAX as u128 / 2) as isize
                        + isize::from(t.subsec_nanos() % 1_000_000 != 0)
                }
            };
            let n = loop {
                // SAFETY: `buf` is a live, writable array of `buf.len()`
                // epoll_event structs; the null sigmask means the final
                // sigsetsize argument is ignored by the kernel.
                let ret = unsafe {
                    sys5(
                        nr::EPOLL_PWAIT,
                        self.epfd as usize,
                        self.buf.as_mut_ptr() as usize,
                        self.buf.len(),
                        ms as usize,
                        0,
                    )
                };
                if ret == -EINTR {
                    continue;
                }
                break check(ret)? as usize;
            };
            for ev in &self.buf[..n] {
                let bits = ev.events;
                out.push(Event {
                    token: ev.data,
                    readable: bits & EPOLLIN != 0,
                    writable: bits & EPOLLOUT != 0,
                    hangup: bits & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
                });
            }
            if n == self.buf.len() {
                // Saturated the kernel buffer: grow so a 10k-connection
                // stampede doesn't take buf.len()-sized bites per wait.
                let len = self.buf.len() * 2;
                self.buf.resize(len, EpollEvent::new(0, 0));
            }
            Ok(())
        }
    }

    /// `errno` value for an interrupted syscall (retried internally).
    const EINTR: isize = 4;

    impl Drop for Poller {
        fn drop(&mut self) {
            // SAFETY: closing a descriptor this struct owns.
            let _ = unsafe { sys3(nr::CLOSE, self.epfd as usize, 0, 0) };
        }
    }

    /// Cross-thread wakeup for a blocked [`Poller::wait`], backed by an
    /// eventfd registered in the poller. `wake` may be called from any
    /// thread; the owning worker calls `drain` when the wake token fires.
    pub struct Waker {
        efd: RawFd,
    }

    impl Waker {
        /// Creates the eventfd and registers it under `token`.
        pub fn new(poller: &Poller, token: u64) -> io::Result<Waker> {
            // SAFETY: eventfd2 takes an initial count and a flags word.
            let raw = unsafe { sys3(nr::EVENTFD2, 0, O_CLOEXEC | EFD_NONBLOCK, 0) };
            let efd = check(raw)? as RawFd;
            let w = Waker { efd };
            poller.add(efd, token, Interest::READ)?;
            Ok(w)
        }

        /// Makes the paired poller's next (or current) `wait` return.
        pub fn wake(&self) {
            let one: u64 = 1;
            // SAFETY: writes 8 bytes from a live stack u64 to an eventfd;
            // failure (e.g. a saturated counter) still leaves the eventfd
            // readable, which is all a wakeup needs.
            let _ = unsafe {
                sys3(
                    nr::WRITE,
                    self.efd as usize,
                    (&one as *const u64) as usize,
                    8,
                )
            };
        }

        /// Consumes pending wakeups so level-triggered epoll stops
        /// reporting the eventfd readable.
        pub fn drain(&self) {
            let mut count: u64 = 0;
            // SAFETY: reads 8 bytes into a live stack u64; EFD_NONBLOCK
            // means an empty counter returns EAGAIN instead of blocking.
            let _ = unsafe {
                sys3(
                    nr::READ,
                    self.efd as usize,
                    (&mut count as *mut u64) as usize,
                    8,
                )
            };
        }
    }

    impl Drop for Waker {
        fn drop(&mut self) {
            // SAFETY: closing a descriptor this struct owns.
            let _ = unsafe { sys3(nr::CLOSE, self.efd as usize, 0, 0) };
        }
    }

    // SAFETY: Waker only carries a descriptor; eventfd writes are
    // thread-safe kernel-side.
    unsafe impl Send for Waker {}
    // SAFETY: as above — `wake` takes `&self` and is a single syscall.
    unsafe impl Sync for Waker {}
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
compile_error!(
    "svc::poll talks to epoll through raw syscalls: supported targets are x86_64 and aarch64 Linux"
);

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::time::{Duration, Instant};

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    fn raw_fd(s: &TcpStream) -> std::os::fd::RawFd {
        use std::os::fd::AsRawFd;
        s.as_raw_fd()
    }

    #[test]
    fn timeout_elapses_without_events() {
        let mut poller = Poller::new().unwrap();
        let mut out = Vec::new();
        let start = Instant::now();
        poller
            .wait(&mut out, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(start.elapsed() >= Duration::from_millis(10));
        assert!(out.is_empty());
    }

    #[test]
    fn waker_interrupts_wait() {
        let mut poller = Poller::new().unwrap();
        let waker = Waker::new(&poller, u64::MAX).unwrap();
        waker.wake();
        let mut out = Vec::new();
        poller.wait(&mut out, Some(Duration::from_secs(5))).unwrap();
        waker.drain();
        assert!(out.iter().any(|e| e.token == u64::MAX && e.readable));
    }

    #[test]
    fn socket_readable_after_peer_write() {
        let (mut a, b) = pair();
        let mut poller = Poller::new().unwrap();
        poller.add(raw_fd(&b), 7, Interest::READ).unwrap();
        let mut out = Vec::new();
        // Nothing to read yet.
        poller.wait(&mut out, Some(Duration::ZERO)).unwrap();
        assert!(out.is_empty());
        a.write_all(b"x").unwrap();
        poller.wait(&mut out, Some(Duration::from_secs(5))).unwrap();
        assert!(out.iter().any(|e| e.token == 7 && e.readable));
        // Peer close flips the hangup bit (EPOLLRDHUP).
        drop(a);
        out.clear();
        poller.wait(&mut out, Some(Duration::from_secs(5))).unwrap();
        assert!(out.iter().any(|e| e.token == 7 && e.hangup));
        poller.remove(raw_fd(&b)).unwrap();
    }

    #[test]
    fn modify_arms_and_disarms_write_interest() {
        let (_a, b) = pair();
        let mut poller = Poller::new().unwrap();
        poller.add(raw_fd(&b), 3, Interest::READ).unwrap();
        let mut out = Vec::new();
        poller.wait(&mut out, Some(Duration::ZERO)).unwrap();
        assert!(out.is_empty(), "read-only interest on idle socket");
        poller.modify(raw_fd(&b), 3, Interest::BOTH).unwrap();
        poller.wait(&mut out, Some(Duration::from_secs(5))).unwrap();
        assert!(out.iter().any(|e| e.token == 3 && e.writable));
    }
}
