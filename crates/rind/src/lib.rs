//! Read-side **reader indicator** — BRAVO's revocable-bias table under
//! the fallback (non-elided) read paths.
//!
//! The paper's elision fast path gives readers a free ride through the
//! hardware, but the moment elision is disabled or exhausted every reader
//! funnels through centralized state: a shared counter, a lock word, or an
//! epoch slot that writers must scan. A *reader indicator* answers "which
//! readers are inside?" distributedly instead — one private store per
//! reader, a bounded scan for writers.
//!
//! There is one indicator, [`BravoIndicator`] — BRAVO (Dice & Kogan,
//! arXiv:1810.01553): a process-global, cache-line-padded
//! *visible-readers table*. A reader hashes `(indicator id, thread id)`
//! to a slot, publishes with one compare-and-swap, and re-checks the
//! indicator's **bias** word; while the bias is set the publication alone
//! certifies the read (no writer check needed). A writer *revokes* the
//! bias and scans the table, waiting out published readers. An adaptive
//! rebias policy bounds the scan cost against the slow-path fraction (see
//! [`BravoIndicator`]).
//!
//! There is one holder, the `rwle` NS fallback, and it either has an
//! indicator or has none: [`IndicatorKind::Central`] means *no
//! indicator* — `rwle` spells it `None` and keeps its epoch clock and
//! lock-word check, paying not even a publish attempt. [`IndicatorKind`]
//! survives only as that configuration choice.
//!
//! There is one writer protocol too: BRAVO puts the table in front of a
//! lock whose writer *already holds the underlying lock* when it revokes
//! the bias, so revocations are serialized by that lock and the
//! indicator's whole state is one bit
//! ([`BravoIndicator::revoke_serialized`]).
//!
//! # The bias-word dichotomy
//!
//! The soundness argument is the *enter-vs-scan dichotomy* from the epoch
//! layer, extended to the bias word (docs/PROTOCOL.md): a reader's slot
//! CAS and bias re-check are `SeqCst`, a writer's bias revocation and slot
//! scan are `SeqCst`. In the single total order, if the reader's re-check
//! observed the bias set, it precedes the writer's revocation, so the
//! reader's earlier slot publication precedes the writer's later scan —
//! the scan *must* see the slot and wait the reader out. Otherwise the
//! reader observes the revocation and declines to the slow path. There is
//! no interleaving in which a certified reader is invisible to a
//! revoking writer: no lost reader.
//!
//! All protocol steps run under `sched::step()` so the schedule-exploration
//! suites (`tests/schedules.rs`) can drive every interleaving of the
//! publish/revoke race.

#![warn(missing_docs)]

use std::sync::atomic::{AtomicU64, Ordering};

/// Whether a lock carries a reader indicator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IndicatorKind {
    /// Centralized accounting (the seed behaviour) — no indicator.
    #[default]
    Central,
    /// BRAVO-style global visible-readers table with a revocable bias.
    Bravo,
}

impl IndicatorKind {
    /// Short scheme label used by benches.
    pub fn label(self) -> &'static str {
        match self {
            IndicatorKind::Central => "central",
            IndicatorKind::Bravo => "bravo",
        }
    }
}

/// Outcome of a reader's publication attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Publish {
    /// Published *and* bias-certified: the publication alone admits the
    /// read. The caller may skip its writer check entirely — any writer
    /// must revoke the bias and scan the table before mutating, and the
    /// dichotomy guarantees the scan sees this slot.
    Certified(u32),
    /// Not published — take the centralized slow path.
    Declined,
}

/// Waits out every reader published in the indicator (lock-style
/// collection): enumerates occupied slots and spins (with backoff) until
/// each is vacated. `skip` exempts the collector's own thread id, so a
/// writer that is itself inside a read-side nest cannot deadlock on its
/// own slot. Returns the number of stall iterations and reports it to the
/// rebias policy.
pub fn collect_wait(ind: &BravoIndicator, skip: Option<usize>) -> u64 {
    let mut stalls = 0u64;
    ind.collect(|slot, tid| {
        if skip == Some(tid) {
            return;
        }
        let mut bo = sched::Backoff::new();
        while !ind.vacated(slot, tid) {
            stalls += 1;
            bo.snooze();
        }
    });
    ind.note_collect_cost(stalls);
    stalls
}

/// A cache-line-padded table slot (avoids false sharing between adjacent
/// readers — the whole point of distributing the indicator).
#[repr(align(64))]
struct PaddedSlot(AtomicU64);

/// Slots in the process-global visible-readers table. Power of two so the
/// hash reduces with a mask. 1024 padded slots = 64 KiB of static data,
/// shared by every [`BravoIndicator`] in the process (BRAVO's design: the
/// table is global, slots are claimed per `(lock, thread)` pair, and
/// collisions simply decline to the slow path).
const TABLE_SLOTS: usize = 1024;

/// The global visible-readers table. A slot holds `0` when free, otherwise
/// `(indicator id << 32) | (tid + 1)`.
static TABLE: [PaddedSlot; TABLE_SLOTS] = [const { PaddedSlot(AtomicU64::new(0)) }; TABLE_SLOTS];

/// Allocator for indicator instance ids (nonzero, so a packed slot value
/// is never 0).
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// The state word's one bit: set while published readers are certified.
const BIAS: u64 = 1;

/// SplitMix64 finalizer: cheap avalanche for slot and region hashing.
fn splitmix(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    x ^= x >> 29;
    x
}

/// Rebias policy: after a revocation the bias stays off until
/// `rebias_threshold` reads have taken the slow path. The threshold is
/// adaptive — the deterministic (operation-counted, not timed) analogue of
/// BRAVO's `N × revocation-time` inhibition window:
///
/// * it starts at [`REBIAS_BASE`];
/// * a collection that *stalled* waiting certified readers out ratchets it
///   up to at least `REBIAS_BASE + stalls × REBIAS_STALL_MULT` (an
///   expensive revocation must be amortized by more slow reads before the
///   next one is enabled);
/// * a collection arriving while the bias is already down bumps it by one,
///   capped at [`REBIAS_MAX`] — evidence that writes outpace the rebias
///   policy. Under a write-heavy mix many such bumps land between
///   consecutive rebias events, so the threshold compounds and revocation
///   scans become vanishingly rare; under a read-heavy mix at most a
///   couple do, and the threshold stays at the base;
/// * each successful rebias halves it (floored at the base), so the bias
///   recovers quickly once reads dominate again.
///
/// Operation counts keep the policy reproducible under schedule
/// exploration.
const REBIAS_BASE: u64 = 2;
/// Per-stall multiplier of the rebias threshold (see [`REBIAS_BASE`]).
const REBIAS_STALL_MULT: u64 = 4;
/// Upper bound of the rebias threshold (see [`REBIAS_BASE`]): caps how
/// long a read-heavy phase pays centralized costs before the first rebias
/// after a long write-heavy phase.
const REBIAS_MAX: u64 = 4096;

/// BRAVO-style distributed reader indicator.
///
/// Reader fast path (three shared-memory operations, all on lines no other
/// thread writes in steady state): load the bias word, CAS the private
/// slot, re-load the bias word. If the re-check still sees the
/// bias, the read is certified — no writer check, no centralized counter.
///
/// Writer path: a writer that holds the lock the indicator fronts calls
/// [`revoke_serialized`](BravoIndicator::revoke_serialized), which clears
/// the bias, and — when that call found the bias set — scans this
/// indicator's region of the global table (sized for its thread count —
/// see [`BravoIndicator::sized`]) filtering on its id, either with
/// [`collect_wait`] to wait published readers out or with
/// [`collect`](BravoIndicator::collect) to enumerate them. Writers are
/// serialized by that lock, so the state word is the bias bit alone; the
/// rebias-during-scan race is closed by the caller's drain protocol (see
/// `revoke_serialized`).
///
/// Reader protocol: [`publish`](BravoIndicator::publish) on entry; on
/// exit, [`retire`](BravoIndicator::retire) the slot returned by a
/// `Certified` outcome. A reader that fell through to the centralized
/// slow path reports it from inside its slow section via
/// [`note_slow_read_deferred`](BravoIndicator::note_slow_read_deferred)
/// and, when that asks for one,
/// [`try_rebias`](BravoIndicator::try_rebias) (which drive the rebias
/// policy).
pub struct BravoIndicator {
    /// This instance's nonzero id (the high half of its slot values).
    id: u64,
    /// First slot of this instance's region of the global table.
    base: usize,
    /// Region size minus one (region sizes are powers of two).
    mask: usize,
    /// [`BIAS`] or zero.
    state: AtomicU64,
    /// Slow-path reads since the last revocation (rebias policy input).
    slow_reads: AtomicU64,
    /// Current rebias threshold (rebias policy output).
    rebias_threshold: AtomicU64,
}

impl BravoIndicator {
    /// Creates a biased indicator whose readers occupy a region of the
    /// global table sized for `max_threads` (rounded up to a power of
    /// two). Slots are dense by thread id within the region — no
    /// intra-indicator collisions, no hash on the publish path — and a
    /// revocation scan visits only this region, so its cost is
    /// `O(max_threads)`, not `O(TABLE_SLOTS)` — the bound the rebias
    /// policy amortizes against. The region's *placement* is hashed from
    /// the instance id; distinct indicators may overlap, which at worst
    /// declines a colliding publish.
    pub fn sized(max_threads: usize) -> Self {
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed) & 0xFFFF_FFFF;
        let region = max_threads.max(1).next_power_of_two().min(TABLE_SLOTS);
        // Region-aligned base so `base | (tid & mask)` stays in range.
        let base = (splitmix(id) as usize) & (TABLE_SLOTS - 1) & !(region - 1);
        BravoIndicator {
            id,
            base,
            mask: region - 1,
            state: AtomicU64::new(BIAS),
            slow_reads: AtomicU64::new(0),
            rebias_threshold: AtomicU64::new(REBIAS_BASE),
        }
    }

    /// This thread's slot index in the global table: dense by thread id.
    /// The mask only matters for a `tid` beyond `max_threads`, which
    /// degrades to a collision (declined publish), never an out-of-range
    /// index.
    fn slot_of(&self, tid: usize) -> usize {
        self.base | (tid & self.mask)
    }

    /// The packed value this `(indicator, tid)` pair publishes.
    fn slot_value(&self, tid: usize) -> u64 {
        (self.id << 32) | (tid as u64 + 1)
    }

    /// A revocation arrived while the bias was already down: writes are
    /// outpacing the rebias policy, so defer the next rebias by one more
    /// slow read (see [`REBIAS_BASE`]). Plain load+store: a lost update
    /// under a race only under-counts a heuristic.
    fn defer_rebias(&self) {
        let t = self.rebias_threshold.load(Ordering::Relaxed);
        if t < REBIAS_MAX {
            self.rebias_threshold.store(t + 1, Ordering::Relaxed);
        }
    }

    /// Attempts to publish thread `tid` as an active reader.
    #[inline]
    pub fn publish(&self, tid: usize) -> Publish {
        // Advisory pre-check: unbiased means the CAS would be wasted work.
        // No yield point of its own — the races that matter interleave
        // around the slot CAS and the certify re-check below.
        if self.state.load(Ordering::Relaxed) & BIAS == 0 {
            return Publish::Declined;
        }
        let slot = self.slot_of(tid);
        // No yield point before the CAS: a revocation interleaved here is
        // observationally the same as one interleaved before the advisory
        // pre-check (decline) or before the re-check below (withdraw),
        // both of which the schedule suites explore.
        if TABLE[slot]
            .0
            .compare_exchange(0, self.slot_value(tid), Ordering::SeqCst, Ordering::Relaxed)
            .is_err()
        {
            // Hash collision with a live reader (possibly of another
            // indicator): decline rather than probe.
            return Publish::Declined;
        }
        sched::step();
        // The load-bearing re-check (enter-vs-scan dichotomy on the bias
        // word): seeing the bias set here orders this publication before
        // any revoking writer's scan. Machine-checked by `wmm::proto`'s
        // `rind_bias_revocation` litmus: the certified-but-unseen outcome
        // is unreachable at these strengths, and every one-notch
        // weakening is killed with a seed.
        if self.state.load(Ordering::SeqCst) & BIAS != 0 {
            return Publish::Certified(slot as u32);
        }
        // Revoked between the pre-check and here: withdraw and go slow.
        TABLE[slot].0.store(0, Ordering::Release);
        Publish::Declined
    }

    /// Withdraws a publication made by `publish` (same `tid`, the slot it
    /// returned).
    #[inline]
    pub fn retire(&self, tid: usize, slot: u32) {
        // No yield point of its own: the reader-holds-slot-while-writer-
        // scans window is explored via the yield points inside the
        // critical section's reads and the collector's `vacated` loop.
        debug_assert_eq!(
            TABLE[slot as usize].0.load(Ordering::Relaxed),
            self.slot_value(tid),
            "retire of a slot this reader does not hold"
        );
        TABLE[slot as usize].0.store(0, Ordering::Release);
    }

    /// Revokes the bias on behalf of a writer that holds the lock this
    /// indicator fronts. Returns whether the bias was set (a *revocation*
    /// in BRAVO's sense, feeding `ThreadStats::revocations`): if so the
    /// table may hold certified readers and the caller must scan it
    /// ([`collect`](BravoIndicator::collect) / [`collect_wait`]) before
    /// its first store.
    ///
    /// The caller must guarantee **(a)** its revocations are mutually
    /// exclusive (serialized by that writer lock) and **(b)** every
    /// rebias attempt is gated by
    /// [`note_slow_read_deferred`](BravoIndicator::note_slow_read_deferred)
    /// +[`try_rebias`](BravoIndicator::try_rebias) placed so that the
    /// caller's own reader-drain protocol flushes any rebias racing a
    /// revocation — and it must call this method *again* after that drain
    /// to catch one that slipped in (see `rwle`'s NS write path). Under
    /// those guarantees, observing the bias already clear proves no
    /// certified reader is live, so there is nothing to scan.
    pub fn revoke_serialized(&self) -> bool {
        if self.state.load(Ordering::SeqCst) & BIAS == 0 {
            // Bias already down and — by the contract — no rebias can
            // have survived the previous serialized revocation, so no
            // certified reader is live. This is the write-heavy steady
            // state, and it costs one load.
            self.defer_rebias();
            return false;
        }
        sched::step();
        // The revocation proper: a reader whose certify re-check (SeqCst)
        // precedes this clear is certified, and the caller's scan after
        // this clear must see its slot (writer side of the
        // `rind_bias_revocation` litmus in `wmm::proto`).
        self.state.fetch_and(!BIAS, Ordering::SeqCst);
        true
    }

    /// Enumerates currently published readers of *this* indicator as
    /// `(slot, tid)` pairs.
    pub fn collect(&self, mut each: impl FnMut(u32, usize)) {
        sched::step();
        // Only this instance's region can hold its publications (`slot_of`
        // masks into it), so the scan is O(region), not O(TABLE_SLOTS).
        // The slot loads are SeqCst so a publication whose certify
        // re-check saw the bias is visible here — the scan side of the
        // `rind_bias_revocation` litmus in `wmm::proto`.
        for (i, slot) in TABLE.iter().enumerate().skip(self.base).take(self.mask + 1) {
            let v = slot.0.load(Ordering::SeqCst);
            if v != 0 && v >> 32 == self.id {
                sched::step();
                each(i as u32, (v & 0xFFFF_FFFF) as usize - 1);
            }
        }
    }

    /// Whether a previously observed `(slot, tid)` publication has been
    /// withdrawn (or the slot reused by an unrelated reader).
    pub fn vacated(&self, slot: u32, tid: usize) -> bool {
        sched::step();
        TABLE[slot as usize].0.load(Ordering::SeqCst) != self.slot_value(tid)
    }

    /// Records a slow read **without** attempting a rebias; returns `true`
    /// when the rebias policy wants one. The caller must then invoke
    /// [`try_rebias`](BravoIndicator::try_rebias) from a context where no
    /// [revocation](BravoIndicator::revoke_serialized) can be in progress
    /// — e.g. `rwle` calls it from inside the reader's epoch after
    /// observing the NS lock free, so a concurrent NS writer's quiescence
    /// barrier is guaranteed to drain the rebias before the writer's
    /// post-quiescence re-check.
    #[inline]
    pub fn note_slow_read_deferred(&self) -> bool {
        if self.state.load(Ordering::Relaxed) & BIAS != 0 {
            return false;
        }
        let n = self.slow_reads.fetch_add(1, Ordering::Relaxed) + 1;
        n >= self.rebias_threshold.load(Ordering::Relaxed)
    }

    /// Attempts to re-enable the bias (the deferred half of
    /// [`note_slow_read_deferred`](BravoIndicator::note_slow_read_deferred)).
    pub fn try_rebias(&self) {
        sched::step();
        // Failure just means another reader already rebias-ed.
        if self
            .state
            .compare_exchange(0, BIAS, Ordering::SeqCst, Ordering::Relaxed)
            .is_ok()
        {
            self.slow_reads.store(0, Ordering::Relaxed);
            // Decay: each successful rebias halves the threshold (floored
            // at the base), so a one-off expensive collection does not
            // keep the bias suppressed forever once reads flow again.
            let t = self.rebias_threshold.load(Ordering::Relaxed);
            self.rebias_threshold
                .store((t / 2).max(REBIAS_BASE), Ordering::Relaxed);
        }
    }

    /// Reports the measured cost (stall iterations) of a completed
    /// collection so the rebias policy can bound scan cost against the
    /// slow-path fraction.
    pub fn note_collect_cost(&self, stalls: u64) {
        // Ratchet, don't overwrite: most collections are cheap (zero
        // stalls) and must not erase what an expensive one taught us.
        // The rebias decay above is the only way down.
        // Checked with a plain load first so the common no-op costs no
        // RMW on the write path.
        let want = REBIAS_BASE + stalls.saturating_mul(REBIAS_STALL_MULT);
        if want > self.rebias_threshold.load(Ordering::Relaxed) {
            self.rebias_threshold.fetch_max(want, Ordering::Relaxed);
        }
    }

    /// Whether the read bias is currently enabled (tests/benches).
    pub fn bias_enabled(&self) -> bool {
        self.state.load(Ordering::Relaxed) & BIAS != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Publishes with retries: the global table is shared by every test in
    /// the process, so an unlucky transient collision with another test's
    /// live reader may decline a publish that this test needs to succeed.
    fn publish_certified(ind: &BravoIndicator, tid: usize) -> u32 {
        let mut bo = sched::Backoff::new();
        for _ in 0..1_000_000 {
            match ind.publish(tid) {
                Publish::Certified(slot) => return slot,
                Publish::Declined => {
                    assert!(
                        ind.bias_enabled(),
                        "declined with bias set and no collision"
                    );
                    bo.snooze();
                }
            }
        }
        panic!("slot collision never cleared");
    }

    /// A slow read as `rwle::read_cs` performs it: count it, and rebias
    /// when the policy asks.
    fn slow_read(ind: &BravoIndicator) {
        if ind.note_slow_read_deferred() {
            ind.try_rebias();
        }
    }

    #[test]
    fn bravo_publish_certifies_while_biased() {
        let ind = BravoIndicator::sized(TABLE_SLOTS);
        assert!(ind.bias_enabled());
        let slot = publish_certified(&ind, 3);
        // The revoking writer's scan must see the published reader.
        assert!(ind.revoke_serialized());
        let mut seen = Vec::new();
        ind.collect(|s, tid| seen.push((s, tid)));
        assert_eq!(seen, vec![(slot, 3)]);
        assert!(!ind.vacated(slot, 3));
        ind.retire(3, slot);
        assert!(ind.vacated(slot, 3));
    }

    #[test]
    fn bravo_declines_after_revocation() {
        let ind = BravoIndicator::sized(TABLE_SLOTS);
        assert!(ind.revoke_serialized());
        // Bias is down: no publication possible, and only the rebias
        // policy re-enables it.
        assert_eq!(ind.publish(1), Publish::Declined);
        assert_eq!(ind.publish(1), Publish::Declined);
    }

    #[test]
    fn revoke_on_clear_bias_reports_not_revoked_and_defers_rebias_by_one() {
        let ind = BravoIndicator::sized(TABLE_SLOTS);
        assert!(ind.revoke_serialized());
        assert_eq!(ind.rebias_threshold.load(Ordering::Relaxed), REBIAS_BASE);
        assert!(!ind.revoke_serialized());
        assert_eq!(
            ind.rebias_threshold.load(Ordering::Relaxed),
            REBIAS_BASE + 1
        );
        assert!(!ind.bias_enabled());
    }

    #[test]
    fn bravo_rebias_policy_counts_slow_reads() {
        let ind = BravoIndicator::sized(TABLE_SLOTS);
        assert!(ind.revoke_serialized());
        collect_wait(&ind, None);
        assert!(!ind.bias_enabled());
        // An idle collection saw zero stalls: threshold is REBIAS_BASE.
        for _ in 0..REBIAS_BASE - 1 {
            slow_read(&ind);
            assert!(!ind.bias_enabled());
        }
        slow_read(&ind);
        assert!(ind.bias_enabled(), "threshold reached, bias restored");
        // Reads certify again.
        let slot = publish_certified(&ind, 0);
        ind.retire(0, slot);
    }

    #[test]
    fn bravo_collect_cost_raises_threshold() {
        let ind = BravoIndicator::sized(TABLE_SLOTS);
        ind.note_collect_cost(10);
        let raised = REBIAS_BASE + 10 * REBIAS_STALL_MULT;
        assert_eq!(ind.rebias_threshold.load(Ordering::Relaxed), raised);
        // A later cheap collection must not erase the lesson: the
        // threshold ratchets up and only rebias decays it.
        ind.note_collect_cost(0);
        assert_eq!(ind.rebias_threshold.load(Ordering::Relaxed), raised);
    }

    #[test]
    fn bravo_rebias_halves_threshold() {
        let ind = BravoIndicator::sized(TABLE_SLOTS);
        ind.note_collect_cost(10);
        let raised = REBIAS_BASE + 10 * REBIAS_STALL_MULT;
        // Knock the bias down, then feed slow reads until rebias fires.
        assert!(ind.revoke_serialized());
        while !ind.bias_enabled() {
            slow_read(&ind);
        }
        assert_eq!(ind.rebias_threshold.load(Ordering::Relaxed), raised / 2);
        // Repeated rebias cycles decay all the way back to the base; the
        // threshold halves per cycle, so 64 cycles is far more than enough.
        for _ in 0..64 {
            if ind.rebias_threshold.load(Ordering::Relaxed) == REBIAS_BASE {
                break;
            }
            assert!(ind.revoke_serialized());
            while !ind.bias_enabled() {
                slow_read(&ind);
            }
        }
        assert_eq!(ind.rebias_threshold.load(Ordering::Relaxed), REBIAS_BASE);
    }

    #[test]
    fn collect_wait_skips_own_slot() {
        let ind = BravoIndicator::sized(TABLE_SLOTS);
        let slot = publish_certified(&ind, 1);
        assert!(ind.revoke_serialized());
        // Without skip this would spin forever on tid 1's live slot.
        assert_eq!(collect_wait(&ind, Some(1)), 0);
        ind.retire(1, slot);
    }

    #[test]
    fn bravo_ids_are_distinct_and_slots_disjoint_in_value() {
        let a = BravoIndicator::sized(TABLE_SLOTS);
        let b = BravoIndicator::sized(TABLE_SLOTS);
        assert_ne!(a.id, b.id);
        // Even on a hash collision the packed values differ, so a scan
        // never mistakes b's reader for a's.
        assert_ne!(a.slot_value(0), b.slot_value(0));
    }
}
