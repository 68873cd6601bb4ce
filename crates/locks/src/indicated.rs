//! A read-write lock with a BRAVO reader indicator.
//!
//! [`IndicatedRwLock`] bolts a [`rind::BravoIndicator`] onto the
//! [`PthreadRwLock`](crate::PthreadRwLock) baseline, exactly the way BRAVO
//! (arXiv:1810.01553) retrofits an existing rwlock: readers first try to
//! publish into the indicator — a bias-certified publication admits the
//! read without touching the underlying lock at all — and only fall back
//! to the centralized `read_lock` when the indicator declines. Writers
//! take the underlying lock in write mode, revoke the bias, and wait
//! published readers out before proceeding.
//!
//! Soundness is the bias-word dichotomy (see `rind` and
//! docs/PROTOCOL.md): a certified reader's slot is provably visible to
//! any collecting writer's scan.

use rind::{collect_wait, BravoIndicator, Publish};

use crate::rwlock::{PthreadRwLock, RwReadGuard, RwWriteGuard};

/// A [`PthreadRwLock`] with distributed read-side accounting.
pub struct IndicatedRwLock {
    inner: PthreadRwLock,
    ind: BravoIndicator,
}

impl IndicatedRwLock {
    /// Creates an unlocked lock, sized for thread ids `0..max_threads`.
    pub fn new(max_threads: usize) -> Self {
        IndicatedRwLock {
            inner: PthreadRwLock::new(),
            ind: BravoIndicator::sized(max_threads),
        }
    }

    /// The indicator itself (tests and benches).
    pub fn indicator(&self) -> &BravoIndicator {
        &self.ind
    }

    /// Acquires in shared mode. `tid` is the caller's thread id (only
    /// used by the indicator; any id below `max_threads` works, but
    /// concurrent readers sharing an id would collide on their slot).
    pub fn read_lock(&self, tid: usize) -> IndReadGuard<'_> {
        if let Publish::Certified(slot) = self.ind.publish(tid) {
            // Certified: the publication alone excludes writers (any
            // writer must revoke the bias and scan us out first).
            return IndReadGuard {
                lock: self,
                mode: ReadMode::Fast { tid, slot },
            };
        }
        let guard = self.inner.read_lock();
        self.ind.note_slow_read();
        IndReadGuard {
            lock: self,
            mode: ReadMode::Slow(guard),
        }
    }

    /// Acquires in exclusive mode: underlying write lock, bias
    /// revocation, then a scan waiting published readers out.
    pub fn write_lock(&self) -> IndWriteGuard<'_> {
        let inner = self.inner.write_lock();
        let rev = self.ind.begin_collect();
        collect_wait(&self.ind, &rev, None);
        IndWriteGuard {
            lock: self,
            revoked: rev.revoked,
            _inner: inner,
        }
    }
}

enum ReadMode<'a> {
    /// Admitted via the indicator; the underlying lock was never touched.
    Fast { tid: usize, slot: u32 },
    /// Fell through to the underlying centralized lock.
    Slow(#[expect(dead_code)] RwReadGuard<'a>),
}

/// Shared-mode RAII guard for [`IndicatedRwLock`].
pub struct IndReadGuard<'a> {
    lock: &'a IndicatedRwLock,
    mode: ReadMode<'a>,
}

impl IndReadGuard<'_> {
    /// Whether this acquisition took the indicator fast path.
    pub fn is_fast(&self) -> bool {
        matches!(self.mode, ReadMode::Fast { .. })
    }
}

impl Drop for IndReadGuard<'_> {
    fn drop(&mut self) {
        if let ReadMode::Fast { tid, slot } = self.mode {
            self.lock.ind.retire(tid, slot);
        }
    }
}

/// Exclusive-mode RAII guard for [`IndicatedRwLock`].
pub struct IndWriteGuard<'a> {
    lock: &'a IndicatedRwLock,
    revoked: bool,
    _inner: RwWriteGuard<'a>,
}

impl IndWriteGuard<'_> {
    /// Whether this acquisition revoked the read bias (benches/stats).
    pub fn revoked(&self) -> bool {
        self.revoked
    }
}

impl Drop for IndWriteGuard<'_> {
    fn drop(&mut self) {
        self.lock.ind.end_collect();
        // _inner drops last, releasing the underlying lock.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn bravo_reads_certify_until_revoked() {
        let l = IndicatedRwLock::new(4);
        assert!(l.indicator().bias_enabled());
        {
            let g = l.read_lock(0);
            assert!(g.is_fast());
        }
        {
            let w = l.write_lock();
            assert!(w.revoked());
        }
        // Bias is down until the rebias policy restores it.
        assert!(!l.indicator().bias_enabled());
        let g = l.read_lock(0);
        assert!(!g.is_fast());
    }

    #[test]
    fn writer_excludes_all_reader_paths() {
        let l = Arc::new(IndicatedRwLock::new(4));
        let data = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            // Readers check the invariant (value is even outside
            // writes) on whatever path the indicator admits them.
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
}
