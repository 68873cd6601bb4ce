//! The big-reader lock (BRLock).

use crate::spin::{SpinGuard, SpinMutex};

/// A [`SpinMutex`] padded out to its own cache line. [`SpinMutex`] is one
/// byte, so a plain `Box<[SpinMutex]>` packs 64 per-thread slots into a
/// single line and every read acquisition false-shares with 63 neighbours
/// — exactly the coherence traffic a big-reader lock exists to avoid. The
/// `benches/indicators.rs` `brlock_padding` group measures the before vs
/// after.
#[repr(align(64))]
struct PaddedSpin(SpinMutex);

/// The paper's **BRLock** baseline (once part of the Linux kernel).
///
/// Each thread owns a private mutex on its own cache line. Acquiring in
/// read mode locks only the caller's own mutex — cheap and
/// contention-free. Acquiring in write mode locks *every* private mutex
/// (in index order, so writers do not deadlock), trading write throughput
/// for read throughput. The paper's variant uses compare-and-swap
/// acquisition, which [`SpinMutex`] does.
pub struct BrLock {
    per_thread: Box<[PaddedSpin]>,
}

impl BrLock {
    /// Creates a BRLock for up to `n` threads (thread ids `0..n`).
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "BRLock needs at least one slot");
        BrLock {
            per_thread: (0..n).map(|_| PaddedSpin(SpinMutex::new())).collect(),
        }
    }

    /// Acquires in read mode: locks only `tid`'s private mutex.
    ///
    /// # Panics
    ///
    /// Panics if `tid` is out of range.
    pub fn read_lock(&self, tid: usize) -> BrReadGuard<'_> {
        BrReadGuard {
            _guard: self.per_thread[tid].0.lock(),
        }
    }

    /// Acquires in write mode: locks all private mutexes in index order.
    pub fn write_lock(&self) -> BrWriteGuard<'_> {
        let guards = self.per_thread.iter().map(|m| m.0.lock()).collect();
        BrWriteGuard { _guards: guards }
    }
}

/// Read-mode RAII guard for [`BrLock`].
pub struct BrReadGuard<'a> {
    _guard: SpinGuard<'a>,
}

/// Write-mode RAII guard for [`BrLock`]; holds every private mutex.
pub struct BrWriteGuard<'a> {
    _guards: Vec<SpinGuard<'a>>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn distinct_readers_do_not_block_each_other() {
        let l = BrLock::new(4);
        let g0 = l.read_lock(0);
        let g1 = l.read_lock(1);
        drop(g0);
        drop(g1);
    }

    #[test]
    fn writer_excludes_all_readers() {
        let l = Arc::new(BrLock::new(4));
        let data = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            // Readers check the invariant (value is even outside writes).
            for tid in 0..3usize {
                let l = Arc::clone(&l);
                let data = Arc::clone(&data);
                s.spawn(move || {
                    for _ in 0..200 {
                        let _g = l.read_lock(tid);
                        assert_eq!(data.load(Ordering::Relaxed) % 2, 0);
                    }
                });
            }
            let l = Arc::clone(&l);
            let data = Arc::clone(&data);
            s.spawn(move || {
                for _ in 0..100 {
                    let _g = l.write_lock();
                    data.fetch_add(1, Ordering::Relaxed); // odd: "mid-update"
                    std::thread::yield_now();
                    data.fetch_add(1, Ordering::Relaxed); // even again
                }
            });
        });
        assert_eq!(data.load(Ordering::Relaxed), 200);
    }

    #[test]
    fn writers_serialize() {
        let l = Arc::new(BrLock::new(2));
        let data = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for _ in 0..2 {
                let l = Arc::clone(&l);
                let data = Arc::clone(&data);
                s.spawn(move || {
                    for _ in 0..500 {
                        let _g = l.write_lock();
                        let v = data.load(Ordering::Relaxed);
                        data.store(v + 1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(data.load(Ordering::Relaxed), 1000);
    }

    #[test]
    #[should_panic]
    fn out_of_range_tid_panics() {
        let l = BrLock::new(2);
        let _ = l.read_lock(2);
    }
}
