//! The synchronization schemes compared in the paper's evaluation, behind
//! one dispatcher so every workload drives identical critical-section
//! bodies.

use std::sync::Arc;

use hle::{AdaptiveHle, Hle, ScmHle};
use htm::{AbortCause, MemAccess, ThreadCtx};
use locks::{BrLock, PthreadRwLock, SpinMutex};
use rwle::{RwLe, RwLeConfig, RwLeError};
use simmem::SimAlloc;
use stats::{CommitKind, ThreadStats};

/// Which synchronization scheme to build (the paper's legend names).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// RW-LE optimistic: 5 × HTM → 5 × ROT → global lock.
    RwLeOpt,
    /// RW-LE pessimistic: 5 × ROT → global lock (writers serialized).
    RwLePes,
    /// RW-LE with ROTs disabled (fairness experiment baseline).
    RwLeHtmOnly,
    /// Fair RW-LE with ROTs disabled (the Figure 7 contender).
    RwLeFair,
    /// Classic single-lock hardware lock elision.
    Hle,
    /// HLE with software-assisted conflict management (Afek et al.).
    ScmHle,
    /// HLE with a self-tuning retry budget (Diegues & Romano).
    AdaptiveHle,
    /// Big-reader lock.
    BrLock,
    /// pthread-style read-write lock.
    Rwl,
    /// Single global (spin) lock.
    Sgl,
}

impl SchemeKind {
    /// All schemes plotted in the sensitivity figures.
    pub const SENSITIVITY: [SchemeKind; 6] = [
        SchemeKind::RwLeOpt,
        SchemeKind::RwLePes,
        SchemeKind::Hle,
        SchemeKind::BrLock,
        SchemeKind::Rwl,
        SchemeKind::Sgl,
    ];

    /// Figure-legend label.
    pub fn label(self) -> &'static str {
        match self {
            SchemeKind::RwLeOpt => "RW-LE_OPT",
            SchemeKind::RwLePes => "RW-LE_PES",
            SchemeKind::RwLeHtmOnly => "RW-LE",
            SchemeKind::RwLeFair => "RW-LE_FAIR",
            SchemeKind::Hle => "HLE",
            SchemeKind::ScmHle => "HLE-SCM",
            SchemeKind::AdaptiveHle => "HLE-AD",
            SchemeKind::BrLock => "BRLock",
            SchemeKind::Rwl => "RWL",
            SchemeKind::Sgl => "SGL",
        }
    }

    /// Parses a command-line name (case-insensitive).
    pub fn parse(s: &str) -> Option<SchemeKind> {
        Some(match s.to_ascii_lowercase().as_str() {
            "rw-le_opt" | "rwle-opt" | "opt" => SchemeKind::RwLeOpt,
            "rw-le_pes" | "rwle-pes" | "pes" => SchemeKind::RwLePes,
            "rw-le" | "rwle-htm" => SchemeKind::RwLeHtmOnly,
            "rw-le_fair" | "rwle-fair" | "fair" => SchemeKind::RwLeFair,
            "hle" => SchemeKind::Hle,
            "hle-scm" | "scm" => SchemeKind::ScmHle,
            "hle-ad" | "adaptive" => SchemeKind::AdaptiveHle,
            "brlock" => SchemeKind::BrLock,
            "rwl" => SchemeKind::Rwl,
            "sgl" => SchemeKind::Sgl,
            _ => return None,
        })
    }
}

/// The most simulated-memory lines [`Scheme::build`] allocates for one
/// lock, whatever the scheme: RW-LE's writer lock word and, when HTM and
/// ROT writers both run, its separate ROT lock word.
pub const MAX_LOCK_LINES: u32 = 2;

/// A built synchronization scheme guarding one logical read-write lock.
///
/// `Arc`-cheap to clone into worker threads.
#[derive(Clone)]
pub enum Scheme {
    /// Any RW-LE variant (configuration decides which).
    RwLe(Arc<RwLe>),
    /// Classic HLE (readers and writers both elide the same lock).
    Hle(Arc<Hle>),
    /// HLE + software-assisted conflict management.
    ScmHle(Arc<ScmHle>),
    /// HLE + self-tuning retry budget.
    AdaptiveHle(Arc<AdaptiveHle>),
    /// Big-reader lock.
    BrLock(Arc<BrLock>),
    /// pthread-style read-write lock.
    Rwl(Arc<PthreadRwLock>),
    /// Single global spin lock.
    Sgl(Arc<SpinMutex>),
}

impl Scheme {
    /// Builds `kind` with lock words allocated from `alloc` and room for
    /// `max_threads` threads.
    pub fn build(
        kind: SchemeKind,
        alloc: &SimAlloc,
        max_threads: usize,
    ) -> Result<Self, RwLeError> {
        Ok(match kind {
            SchemeKind::RwLeOpt => {
                Scheme::RwLe(Arc::new(RwLe::new(alloc, max_threads, RwLeConfig::opt())?))
            }
            SchemeKind::RwLePes => {
                Scheme::RwLe(Arc::new(RwLe::new(alloc, max_threads, RwLeConfig::pes())?))
            }
            SchemeKind::RwLeHtmOnly => Scheme::RwLe(Arc::new(RwLe::new(
                alloc,
                max_threads,
                RwLeConfig::htm_only(),
            )?)),
            SchemeKind::RwLeFair => Scheme::RwLe(Arc::new(RwLe::new(
                alloc,
                max_threads,
                RwLeConfig::fair_htm_only(),
            )?)),
            SchemeKind::Hle => Scheme::Hle(Arc::new(Hle::new(alloc.alloc(1)?))),
            SchemeKind::ScmHle => Scheme::ScmHle(Arc::new(ScmHle::new(alloc.alloc(1)?))),
            SchemeKind::AdaptiveHle => {
                Scheme::AdaptiveHle(Arc::new(AdaptiveHle::new(alloc.alloc(1)?)))
            }
            SchemeKind::BrLock => Scheme::BrLock(Arc::new(BrLock::new(max_threads))),
            SchemeKind::Rwl => Scheme::Rwl(Arc::new(PthreadRwLock::new())),
            SchemeKind::Sgl => Scheme::Sgl(Arc::new(SpinMutex::new())),
        })
    }

    /// Builds an RW-LE scheme with a custom configuration (for ablations).
    pub fn build_rwle(
        alloc: &SimAlloc,
        max_threads: usize,
        cfg: RwLeConfig,
    ) -> Result<Self, RwLeError> {
        Ok(Scheme::RwLe(Arc::new(RwLe::new(alloc, max_threads, cfg)?)))
    }

    /// Executes `body` as a read-side critical section.
    pub fn read_cs<R>(
        &self,
        ctx: &mut ThreadCtx,
        stats: &mut ThreadStats,
        body: &mut dyn FnMut(&mut dyn MemAccess) -> Result<R, AbortCause>,
    ) -> R {
        match self {
            Scheme::RwLe(l) => l.read_cs(ctx, stats, body),
            Scheme::Hle(l) => l.execute(ctx, stats, body),
            Scheme::ScmHle(l) => l.execute(ctx, stats, body),
            Scheme::AdaptiveHle(l) => l.execute(ctx, stats, body),
            Scheme::BrLock(l) => locked(
                l.read_lock(ctx.slot()),
                ctx,
                stats,
                CommitKind::Uninstrumented,
                body,
            ),
            Scheme::Rwl(l) => locked(l.read_lock(), ctx, stats, CommitKind::Uninstrumented, body),
            Scheme::Sgl(l) => locked(l.lock(), ctx, stats, CommitKind::Sgl, body),
        }
    }

    /// Executes `body` as a write-side critical section.
    pub fn write_cs<R>(
        &self,
        ctx: &mut ThreadCtx,
        stats: &mut ThreadStats,
        body: &mut dyn FnMut(&mut dyn MemAccess) -> Result<R, AbortCause>,
    ) -> R {
        match self {
            Scheme::RwLe(l) => l.write_cs(ctx, stats, body),
            Scheme::Hle(l) => l.execute(ctx, stats, body),
            Scheme::ScmHle(l) => l.execute(ctx, stats, body),
            Scheme::AdaptiveHle(l) => l.execute(ctx, stats, body),
            Scheme::BrLock(l) => locked(l.write_lock(), ctx, stats, CommitKind::Sgl, body),
            Scheme::Rwl(l) => locked(l.write_lock(), ctx, stats, CommitKind::Sgl, body),
            Scheme::Sgl(l) => locked(l.lock(), ctx, stats, CommitKind::Sgl, body),
        }
    }
}

/// A lock baseline's section: `body` runs non-transactionally while
/// `_guard` holds the lock, then counts as a `kind` commit. The guard
/// drops after the count.
fn locked<G, R>(
    _guard: G,
    ctx: &ThreadCtx,
    stats: &mut ThreadStats,
    kind: CommitKind,
    body: &mut dyn FnMut(&mut dyn MemAccess) -> Result<R, AbortCause>,
) -> R {
    let r = body(&mut ctx.non_tx()).expect("non-transactional execution cannot abort");
    stats.commit(kind);
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use htm::{HtmConfig, HtmRuntime};
    use simmem::{SharedMem, WORDS_PER_LINE};

    #[test]
    fn parse_roundtrips_labels() {
        for k in [
            SchemeKind::RwLeOpt,
            SchemeKind::RwLePes,
            SchemeKind::RwLeHtmOnly,
            SchemeKind::RwLeFair,
            SchemeKind::Hle,
            SchemeKind::ScmHle,
            SchemeKind::AdaptiveHle,
            SchemeKind::BrLock,
            SchemeKind::Rwl,
            SchemeKind::Sgl,
        ] {
            assert_eq!(SchemeKind::parse(k.label()), Some(k), "label {}", k.label());
        }
        assert_eq!(SchemeKind::parse("nonsense"), None);
    }

    #[test]
    fn every_scheme_runs_a_counter_correctly() {
        for kind in [
            SchemeKind::RwLeOpt,
            SchemeKind::RwLePes,
            SchemeKind::RwLeHtmOnly,
            SchemeKind::RwLeFair,
            SchemeKind::Hle,
            SchemeKind::ScmHle,
            SchemeKind::AdaptiveHle,
            SchemeKind::BrLock,
            SchemeKind::Rwl,
            SchemeKind::Sgl,
        ] {
            let mem = Arc::new(SharedMem::new_lines(256));
            let rt = HtmRuntime::new(Arc::clone(&mem), HtmConfig::default());
            let alloc = SimAlloc::new(Arc::clone(&mem));
            let scheme = Scheme::build(kind, &alloc, 8).unwrap();
            assert!(
                alloc.stats().words_allocated <= u64::from(MAX_LOCK_LINES * WORDS_PER_LINE),
                "{kind:?} takes more lock lines than the store sizes for"
            );
            let data = alloc.alloc(2).unwrap();
            std::thread::scope(|s| {
                for _ in 0..3 {
                    let rt = Arc::clone(&rt);
                    let scheme = scheme.clone();
                    s.spawn(move || {
                        let mut ctx = rt.register();
                        let mut st = ThreadStats::new();
                        for i in 0..60 {
                            if i % 3 == 0 {
                                scheme.write_cs(&mut ctx, &mut st, &mut |acc| {
                                    let v = acc.read(data)?;
                                    acc.write(data, v + 1)?;
                                    acc.write(data.offset(1), v + 1)?;
                                    Ok(())
                                });
                            } else {
                                scheme.read_cs(&mut ctx, &mut st, &mut |acc| {
                                    let a = acc.read(data)?;
                                    let b = acc.read(data.offset(1))?;
                                    assert_eq!(a, b, "torn read under {kind:?}");
                                    Ok(())
                                });
                            }
                        }
                        assert_eq!(st.ops, 60);
                    });
                }
            });
            assert_eq!(mem.load(data), 60, "lost update under {kind:?}");
        }
    }
}
