//! Commit-path and abort-cause accounting.
//!
//! Every figure in the paper's evaluation has two breakdown panels:
//!
//! * **Commits** by path: `HTM`, `ROT`, `SGL` (the non-speculative global
//!   lock) and `Uninstrumented` (RW-LE's bare-metal readers).
//! * **Aborts** by cause: `HTM tx`, `HTM non-tx`, `HTM capacity`,
//!   `Lock aborts`, `ROT conflicts`, `ROT capacity`.
//!
//! [`ThreadStats`] collects those counters per thread with no
//! synchronization; [`StatsSummary`] merges and renders them.

#![warn(missing_docs)]

pub mod hist;

pub use hist::LatencyHist;

use std::fmt;

use htm::{AbortCause, TxMode, ABORT_LOCK_BUSY};

/// How a critical section ultimately committed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommitKind {
    /// Committed as a regular hardware transaction.
    Htm,
    /// Committed as a rollback-only transaction.
    Rot,
    /// Executed under the non-speculative global lock.
    Sgl,
    /// Executed uninstrumented (RW-LE read-side critical section).
    Uninstrumented,
}

impl CommitKind {
    /// All kinds, in the paper's legend order.
    pub const ALL: [CommitKind; 4] = [
        CommitKind::Htm,
        CommitKind::Rot,
        CommitKind::Sgl,
        CommitKind::Uninstrumented,
    ];

    /// Legend label used by the paper.
    pub fn label(self) -> &'static str {
        match self {
            CommitKind::Htm => "HTM",
            CommitKind::Rot => "ROT",
            CommitKind::Sgl => "SGL",
            CommitKind::Uninstrumented => "Uninstr",
        }
    }

    fn index(self) -> usize {
        match self {
            CommitKind::Htm => 0,
            CommitKind::Rot => 1,
            CommitKind::Sgl => 2,
            CommitKind::Uninstrumented => 3,
        }
    }
}

/// Abort buckets as plotted by the paper (§4, Figure 3 onwards).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AbortBucket {
    /// Hardware transaction aborted by another transaction's access.
    HtmTx,
    /// Hardware transaction aborted by non-transactional code (including
    /// VM-subsystem interrupts such as paging).
    HtmNonTx,
    /// Hardware transaction exceeded tracking capacity.
    HtmCapacity,
    /// Explicit abort after subscribing a busy lock.
    LockAborts,
    /// Rollback-only transaction aborted by a conflict.
    RotConflicts,
    /// Rollback-only transaction exceeded store-tracking capacity.
    RotCapacity,
}

impl AbortBucket {
    /// All buckets, in the paper's legend order.
    pub const ALL: [AbortBucket; 6] = [
        AbortBucket::HtmTx,
        AbortBucket::HtmNonTx,
        AbortBucket::HtmCapacity,
        AbortBucket::LockAborts,
        AbortBucket::RotConflicts,
        AbortBucket::RotCapacity,
    ];

    /// Legend label used by the paper.
    pub fn label(self) -> &'static str {
        match self {
            AbortBucket::HtmTx => "HTM tx",
            AbortBucket::HtmNonTx => "HTM non-tx",
            AbortBucket::HtmCapacity => "HTM capacity",
            AbortBucket::LockAborts => "Lock aborts",
            AbortBucket::RotConflicts => "ROT conflicts",
            AbortBucket::RotCapacity => "ROT capacity",
        }
    }

    fn index(self) -> usize {
        match self {
            AbortBucket::HtmTx => 0,
            AbortBucket::HtmNonTx => 1,
            AbortBucket::HtmCapacity => 2,
            AbortBucket::LockAborts => 3,
            AbortBucket::RotConflicts => 4,
            AbortBucket::RotCapacity => 5,
        }
    }

    /// Classifies an abort by transaction mode and cause.
    pub fn classify(mode: TxMode, cause: AbortCause) -> AbortBucket {
        match (mode, cause) {
            (TxMode::Htm, AbortCause::ConflictTx) => AbortBucket::HtmTx,
            (TxMode::Htm, AbortCause::ConflictNonTx) => AbortBucket::HtmNonTx,
            // The paper attributes paging/interrupt aborts to the non-tx
            // bucket: they come from outside the transactional system.
            (TxMode::Htm, AbortCause::TransientInterrupt) => AbortBucket::HtmNonTx,
            (TxMode::Htm, AbortCause::Capacity) => AbortBucket::HtmCapacity,
            (_, AbortCause::Explicit(code)) if code == ABORT_LOCK_BUSY => AbortBucket::LockAborts,
            (TxMode::Htm, AbortCause::Explicit(_)) => AbortBucket::HtmTx,
            (TxMode::Rot, AbortCause::Capacity) => AbortBucket::RotCapacity,
            (TxMode::Rot, _) => AbortBucket::RotConflicts,
        }
    }
}

/// Per-thread counters; merge with [`StatsSummary::from_threads`].
#[derive(Debug, Clone, Default)]
pub struct ThreadStats {
    commits: [u64; 4],
    aborts: [u64; 6],
    /// Completed critical sections (operations).
    pub ops: u64,
    /// Times a reader was turned away at entry by a non-speculative
    /// writer (RW-LE's lines 14–16 retreat) — the starvation signal the
    /// fair variant (§3.3) exists to eliminate.
    pub reader_retreats: u64,
    /// Times a fair-variant reader found the lock held at entry and
    /// waited in place for the current owner (§3.3). The fair counterpart
    /// of [`ThreadStats::reader_retreats`]: bounded at one wait per
    /// entry, because a fair reader can never be overtaken.
    pub reader_waits: u64,
    /// Stalled iterations (spin, yield, or park) this thread's commit
    /// barriers spent waiting for active readers to drain.
    pub barrier_stalls: u64,
    /// Commit barriers satisfied by another writer's completed grace
    /// period instead of a full clock walk (quiescence sharing).
    pub barriers_shared: u64,
    /// Reads admitted by a bias-certified indicator publication (BRAVO
    /// fast path): one slot store plus a bias re-check, no centralized
    /// accounting, no writer check.
    pub bias_reads: u64,
    /// Writer-side bias revocations: collections that found the read bias
    /// set, cleared it, and scanned the visible-readers table.
    pub revocations: u64,
    /// Reads that attempted the indicator fast path but fell through to
    /// the centralized slow path (bias revoked, slot collision, or a
    /// writer present). The rebias policy bounds revocation scan cost
    /// against this count.
    pub bias_slowpath: u64,
}

impl ThreadStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a committed critical section.
    #[inline]
    pub fn commit(&mut self, kind: CommitKind) {
        self.commits[kind.index()] += 1;
        self.ops += 1;
    }

    /// Records an abort of a `mode` transaction with `cause`.
    #[inline]
    pub fn abort(&mut self, mode: TxMode, cause: AbortCause) {
        self.aborts[AbortBucket::classify(mode, cause).index()] += 1;
    }

    /// Commits recorded for `kind`.
    pub fn commits(&self, kind: CommitKind) -> u64 {
        self.commits[kind.index()]
    }

    /// Aborts recorded for `bucket`.
    pub fn aborts(&self, bucket: AbortBucket) -> u64 {
        self.aborts[bucket.index()]
    }
}

/// Aggregated statistics over all threads of a run.
#[derive(Debug, Clone, Default)]
pub struct StatsSummary {
    commits: [u64; 4],
    aborts: [u64; 6],
    /// Total completed operations.
    pub ops: u64,
    /// Total reader retreats (see [`ThreadStats::reader_retreats`]).
    pub reader_retreats: u64,
    /// Total fair-path reader waits (see [`ThreadStats::reader_waits`]).
    pub reader_waits: u64,
    /// Total barrier stall iterations (see [`ThreadStats::barrier_stalls`]).
    pub barrier_stalls: u64,
    /// Total shared (skipped) barriers (see [`ThreadStats::barriers_shared`]).
    pub barriers_shared: u64,
    /// Total bias-certified fast reads (see [`ThreadStats::bias_reads`]).
    pub bias_reads: u64,
    /// Total bias revocations (see [`ThreadStats::revocations`]).
    pub revocations: u64,
    /// Total indicator fast-path fall-throughs (see
    /// [`ThreadStats::bias_slowpath`]).
    pub bias_slowpath: u64,
}

impl StatsSummary {
    /// Builds a summary from raw counter arrays (in [`CommitKind::ALL`] /
    /// [`AbortBucket::ALL`] order). Used to merge summaries across runs.
    pub fn from_raw(commits: [u64; 4], aborts: [u64; 6], ops: u64) -> Self {
        StatsSummary {
            commits,
            aborts,
            ops,
            reader_retreats: 0,
            reader_waits: 0,
            barrier_stalls: 0,
            barriers_shared: 0,
            bias_reads: 0,
            revocations: 0,
            bias_slowpath: 0,
        }
    }

    /// Merges per-thread counters.
    pub fn from_threads<'a>(threads: impl IntoIterator<Item = &'a ThreadStats>) -> Self {
        let mut s = StatsSummary::default();
        for t in threads {
            for i in 0..4 {
                s.commits[i] += t.commits[i];
            }
            for i in 0..6 {
                s.aborts[i] += t.aborts[i];
            }
            s.ops += t.ops;
            s.reader_retreats += t.reader_retreats;
            s.reader_waits += t.reader_waits;
            s.barrier_stalls += t.barrier_stalls;
            s.barriers_shared += t.barriers_shared;
            s.bias_reads += t.bias_reads;
            s.revocations += t.revocations;
            s.bias_slowpath += t.bias_slowpath;
        }
        s
    }

    /// Total commits across paths.
    pub fn total_commits(&self) -> u64 {
        self.commits.iter().sum()
    }

    /// Total aborts across buckets.
    pub fn total_aborts(&self) -> u64 {
        self.aborts.iter().sum()
    }

    /// Commits recorded for `kind`.
    pub fn commits(&self, kind: CommitKind) -> u64 {
        self.commits[kind.index()]
    }

    /// Aborts recorded for `bucket`.
    pub fn aborts(&self, bucket: AbortBucket) -> u64 {
        self.aborts[bucket.index()]
    }

    /// Abort rate: aborts / (aborts + commits), in percent.
    ///
    /// This is the quantity the paper's middle panels plot.
    pub fn abort_rate_pct(&self) -> f64 {
        let a = self.total_aborts() as f64;
        let c = self.total_commits() as f64;
        if a + c == 0.0 {
            0.0
        } else {
            100.0 * a / (a + c)
        }
    }

    /// Share of `bucket` among all attempts (commits + aborts), percent —
    /// the stacked-bar segments of the paper's abort panels.
    pub fn abort_share_pct(&self, bucket: AbortBucket) -> f64 {
        let total = (self.total_aborts() + self.total_commits()) as f64;
        if total == 0.0 {
            0.0
        } else {
            100.0 * self.aborts(bucket) as f64 / total
        }
    }

    /// Share of `kind` among commits, percent — the stacked-bar segments
    /// of the paper's commit panels.
    pub fn commit_share_pct(&self, kind: CommitKind) -> f64 {
        let total = self.total_commits() as f64;
        if total == 0.0 {
            0.0
        } else {
            100.0 * self.commits(kind) as f64 / total
        }
    }
}

impl fmt::Display for StatsSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "commits[")?;
        for (i, k) in CommitKind::ALL.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{}={:.1}%", k.label(), self.commit_share_pct(*k))?;
        }
        write!(f, "] aborts[{:.1}%: ", self.abort_rate_pct())?;
        for (i, b) in AbortBucket::ALL.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{}={:.1}%", b.label(), self.abort_share_pct(*b))?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_matches_paper_buckets() {
        use AbortBucket as B;
        use AbortCause as C;
        use TxMode as M;
        assert_eq!(B::classify(M::Htm, C::ConflictTx), B::HtmTx);
        assert_eq!(B::classify(M::Htm, C::ConflictNonTx), B::HtmNonTx);
        assert_eq!(B::classify(M::Htm, C::TransientInterrupt), B::HtmNonTx);
        assert_eq!(B::classify(M::Htm, C::Capacity), B::HtmCapacity);
        assert_eq!(
            B::classify(M::Htm, C::Explicit(ABORT_LOCK_BUSY)),
            B::LockAborts
        );
        assert_eq!(
            B::classify(M::Rot, C::Explicit(ABORT_LOCK_BUSY)),
            B::LockAborts
        );
        assert_eq!(B::classify(M::Rot, C::ConflictTx), B::RotConflicts);
        assert_eq!(B::classify(M::Rot, C::ConflictNonTx), B::RotConflicts);
        assert_eq!(B::classify(M::Rot, C::Capacity), B::RotCapacity);
        assert_eq!(B::classify(M::Rot, C::TransientInterrupt), B::RotConflicts);
    }

    #[test]
    fn thread_stats_accumulate() {
        let mut t = ThreadStats::new();
        t.commit(CommitKind::Htm);
        t.commit(CommitKind::Uninstrumented);
        t.abort(TxMode::Htm, AbortCause::Capacity);
        assert_eq!(t.ops, 2);
        assert_eq!(t.commits(CommitKind::Htm), 1);
        assert_eq!(t.aborts(AbortBucket::HtmCapacity), 1);
    }

    #[test]
    fn summary_merges_and_computes_rates() {
        let mut a = ThreadStats::new();
        let mut b = ThreadStats::new();
        a.commit(CommitKind::Htm);
        a.commit(CommitKind::Rot);
        b.commit(CommitKind::Sgl);
        b.abort(TxMode::Htm, AbortCause::ConflictTx);
        let s = StatsSummary::from_threads([&a, &b]);
        assert_eq!(s.total_commits(), 3);
        assert_eq!(s.total_aborts(), 1);
        assert_eq!(s.ops, 3);
        assert!((s.abort_rate_pct() - 25.0).abs() < 1e-9);
        assert!((s.commit_share_pct(CommitKind::Htm) - 100.0 / 3.0).abs() < 1e-9);
        assert!((s.abort_share_pct(AbortBucket::HtmTx) - 25.0).abs() < 1e-9);
    }

    #[test]
    fn empty_summary_has_zero_rates() {
        let s = StatsSummary::default();
        assert_eq!(s.abort_rate_pct(), 0.0);
        assert_eq!(s.commit_share_pct(CommitKind::Htm), 0.0);
        assert_eq!(s.abort_share_pct(AbortBucket::HtmTx), 0.0);
    }

    #[test]
    fn display_renders_all_labels() {
        let mut t = ThreadStats::new();
        t.commit(CommitKind::Htm);
        t.abort(TxMode::Rot, AbortCause::Capacity);
        let s = StatsSummary::from_threads([&t]);
        let text = s.to_string();
        for k in CommitKind::ALL {
            assert!(text.contains(k.label()), "missing {}", k.label());
        }
        for b in AbortBucket::ALL {
            assert!(text.contains(b.label()), "missing {}", b.label());
        }
    }
}
