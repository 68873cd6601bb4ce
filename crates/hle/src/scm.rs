//! Software-assisted conflict management for HLE (Afek, Levy & Morrison,
//! PODC '14 — paper §2).
//!
//! Plain HLE wastes its retry budget when transactions keep colliding
//! with each other and then falls back to the serial lock, killing *all*
//! concurrency. SCM inserts an **auxiliary lock**: a transaction that
//! aborts due to a *conflict* retries while holding the auxiliary lock —
//! still as a hardware transaction subscribed to the main lock, so it
//! runs concurrently with non-conflicting transactions, but serialized
//! against the other conflictors. The policy over the crate's shared
//! loop: up to [`DEFAULT_MAX_RETRIES`] attempts that stop at the first
//! conflict, then as many again behind the auxiliary lock. A persistent
//! failure (capacity), a run of non-conflict aborts or a second spent
//! budget still takes the pessimistic fallback, with the auxiliary lock
//! released.

use locks::SpinMutex;
use simmem::Addr;

use htm::{AbortCause, MemAccess, ThreadCtx};
use stats::ThreadStats;

use crate::{serial, speculate, DEFAULT_MAX_RETRIES};

/// HLE with software-assisted conflict management.
pub struct ScmHle {
    lock: Addr,
    /// Auxiliary serialization lock — software-side only, never elided.
    aux: SpinMutex,
}

impl ScmHle {
    /// Creates an SCM-managed HLE around the lock word at `lock`.
    pub fn new(lock: Addr) -> Self {
        ScmHle {
            lock,
            aux: SpinMutex::new(),
        }
    }

    /// Address of the elided lock word.
    pub fn lock_addr(&self) -> Addr {
        self.lock
    }

    /// Executes `body` as an elided critical section under SCM.
    pub fn execute<R>(
        &self,
        ctx: &mut ThreadCtx,
        stats: &mut ThreadStats,
        body: &mut dyn FnMut(&mut dyn MemAccess) -> Result<R, AbortCause>,
    ) -> R {
        let lock = self.lock;
        // Optimistic attempts until the first conflict.
        let spec = match speculate(lock, DEFAULT_MAX_RETRIES, is_conflict, ctx, stats, body) {
            // Serialize conflictors behind the auxiliary lock while still
            // running in hardware; it is free again before the fallback.
            Err(cause) if is_conflict(cause) => {
                let _aux = self.aux.lock();
                speculate(lock, DEFAULT_MAX_RETRIES, |_| false, ctx, stats, body)
            }
            spec => spec,
        };
        spec.unwrap_or_else(|_| serial(lock, ctx, stats, body))
    }
}

fn is_conflict(cause: AbortCause) -> bool {
    matches!(cause, AbortCause::ConflictTx | AbortCause::ConflictNonTx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use htm::{HtmConfig, HtmRuntime};
    use simmem::{SharedMem, SimAlloc};
    use stats::CommitKind;
    use std::sync::Arc;

    #[test]
    fn a_conflict_retries_behind_the_auxiliary_lock() {
        let scm = ScmHle::new(Addr(0));
        let mut aux_held = Vec::new();
        crate::tests::one_injected_conflict(&|c, s, b| scm.execute(c, s, b), &mut |_| {
            aux_held.push(scm.aux.is_locked())
        });
        assert_eq!(aux_held, [false, true], "only the retry holds aux");
    }

    #[test]
    fn single_thread_commits_in_htm() {
        let mem = Arc::new(SharedMem::new_lines(64));
        let rt = HtmRuntime::new(Arc::clone(&mem), HtmConfig::default());
        let alloc = SimAlloc::with_base(Arc::clone(&mem), Addr(8));
        let scm = ScmHle::new(Addr(0));
        let data = alloc.alloc(1).unwrap();
        let mut ctx = rt.register();
        let mut st = ThreadStats::new();
        for _ in 0..5 {
            scm.execute(&mut ctx, &mut st, &mut |acc| {
                let v = acc.read(data)?;
                acc.write(data, v + 1)
            });
        }
        assert_eq!(st.commits(CommitKind::Htm), 5);
        assert_eq!(rt.mem().load(data), 5);
    }

    #[test]
    fn contended_counter_is_exact() {
        let mem = Arc::new(SharedMem::new_lines(64));
        let rt = HtmRuntime::new(Arc::clone(&mem), HtmConfig::default());
        let scm = Arc::new(ScmHle::new(Addr(0)));
        let data = Addr(8);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let rt = Arc::clone(&rt);
                let scm = Arc::clone(&scm);
                s.spawn(move || {
                    let mut ctx = rt.register();
                    let mut st = ThreadStats::new();
                    for _ in 0..200 {
                        scm.execute(&mut ctx, &mut st, &mut |acc| {
                            let v = acc.read(data)?;
                            acc.write(data, v + 1)
                        });
                    }
                });
            }
        });
        assert_eq!(mem.load(Addr(8)), 800);
    }

    #[test]
    fn capacity_still_falls_back_to_lock() {
        let cfg = HtmConfig {
            htm_read_capacity: 4,
            ..HtmConfig::default()
        };
        let mem = Arc::new(SharedMem::new_lines(256));
        let rt = HtmRuntime::new(Arc::clone(&mem), cfg);
        let alloc = SimAlloc::with_base(Arc::clone(&mem), Addr(8));
        let scm = ScmHle::new(Addr(0));
        let base = alloc.alloc(8 * 16).unwrap();
        let mut ctx = rt.register();
        let mut st = ThreadStats::new();
        let mut aux_held = false;
        scm.execute(&mut ctx, &mut st, &mut |acc| {
            aux_held |= scm.aux.is_locked();
            let mut sum = 0;
            for i in 0..16u32 {
                sum += acc.read(base.offset(i * 8))?;
            }
            Ok(sum)
        });
        assert_eq!(st.commits(CommitKind::Sgl), 1);
        assert!(!aux_held, "a capacity abort never escalates to aux");
    }
}
