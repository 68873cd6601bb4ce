//! Per-thread contexts, transactions, and the [`MemAccess`] veneer.
//!
//! A simulated transaction cannot roll back CPU registers the way hardware
//! does, so aborts surface as `Err(AbortCause)` from every transactional
//! operation. Critical-section bodies propagate them with `?`; the elision
//! layers catch them and drive retry policies. Dropping a [`Tx`] without
//! committing rolls it back, so early returns are always safe.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

use simmem::Addr;

use crate::cause::{AbortCause, TxMode};
use crate::intmap::{IntMap, IntSet};
use crate::runtime::HtmRuntime;

/// Abort code recorded when a [`Tx`] is dropped without commit or abort.
pub const ABORT_CANCELLED: u8 = 0;

/// Uniform memory-access interface implemented by transactional and
/// non-transactional handles.
///
/// Critical-section bodies are written once against `&mut dyn MemAccess`
/// and can then be executed speculatively (HTM or ROT) or pessimistically
/// without change — the property lock elision depends on.
pub trait MemAccess {
    /// Loads a word.
    fn read(&mut self, addr: Addr) -> Result<u64, AbortCause>;

    /// Stores a word.
    fn write(&mut self, addr: Addr, val: u64) -> Result<(), AbortCause>;

    /// Compare-exchange. The outer `Result` is the abort channel; the
    /// inner one mirrors [`simmem::SharedMem::compare_exchange`].
    fn cas(&mut self, addr: Addr, cur: u64, new: u64) -> Result<Result<u64, u64>, AbortCause>;

    /// Whether accesses are speculative (buffered, abortable).
    fn is_speculative(&self) -> bool;
}

/// A registered thread's handle to the HTM runtime.
///
/// Obtained from [`HtmRuntime::register`]; owned by exactly one thread
/// (`Send`, not `Sync`). At most one transaction is live per context.
pub struct ThreadCtx {
    rt: Arc<HtmRuntime>,
    slot: usize,
    seq: u64,
    write_buf: IntMap,
    write_lines: IntSet,
    read_lines: IntSet,
    rng: SmallRng,
    /// Hoisted `page_fault_prob > 0` so the per-access interrupt hook is a
    /// plain branch when injection is off (the config is immutable).
    interrupts: bool,
    /// Reusable scratch words for callers (e.g. quiescence snapshots);
    /// lent out via [`ThreadCtx::take_scratch`] so barriers stay
    /// allocation-free across critical sections.
    scratch: Vec<u64>,
}

impl ThreadCtx {
    pub(crate) fn new(rt: Arc<HtmRuntime>, slot: usize) -> Self {
        let seed = rt.config().seed ^ ((slot as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let interrupts = rt.config().page_fault_prob > 0.0;
        ThreadCtx {
            rt,
            slot,
            seq: 0,
            write_buf: IntMap::with_capacity(64),
            write_lines: IntSet::with_capacity(64),
            read_lines: IntSet::with_capacity(128),
            rng: SmallRng::seed_from_u64(seed),
            interrupts,
            scratch: Vec::new(),
        }
    }

    /// Lends out this thread's scratch buffer (cleared). Pair with
    /// [`ThreadCtx::restore_scratch`] so its capacity is reused by the
    /// next borrower instead of reallocated.
    #[inline]
    pub fn take_scratch(&mut self) -> Vec<u64> {
        let mut s = std::mem::take(&mut self.scratch);
        s.clear();
        s
    }

    /// Returns a buffer obtained from [`ThreadCtx::take_scratch`].
    #[inline]
    pub fn restore_scratch(&mut self, scratch: Vec<u64>) {
        self.scratch = scratch;
    }

    /// This thread's slot index (usable as a dense thread id).
    #[inline]
    pub fn slot(&self) -> usize {
        self.slot
    }

    /// The runtime this context belongs to.
    #[inline]
    pub fn runtime(&self) -> &Arc<HtmRuntime> {
        &self.rt
    }

    /// Begins a transaction of the given mode.
    ///
    /// Simulated transactions always begin successfully; failures surface
    /// at the first access or at commit.
    pub fn begin(&mut self, mode: TxMode) -> Tx<'_> {
        self.seq = self.rt.slot_begin(self.slot);
        self.write_buf.clear();
        self.write_lines.clear();
        self.read_lines.clear();
        Tx {
            ctx: self,
            mode,
            finished: false,
            last_read_granule: NO_GRANULE,
            last_write_granule: NO_GRANULE,
            prefetch: simmem::StridePrefetcher::new(),
        }
    }

    /// Returns a non-transactional access handle for this thread.
    pub fn non_tx(&self) -> NonTx<'_> {
        NonTx {
            rt: &self.rt,
            slot: self.slot,
        }
    }

    /// Returns an access handle for an **epoch-protected read-side
    /// critical section** (see [`EpochReader`] for the contract).
    pub fn epoch_reader(&self) -> EpochReader<'_> {
        EpochReader {
            rt: &self.rt,
            slot: self.slot,
            prefetch: simmem::StridePrefetcher::new(),
        }
    }

    /// Non-transactional load (see [`NonTx::read`]).
    #[inline]
    pub fn read_nt(&self, addr: Addr) -> u64 {
        self.rt
            .read_nt_as(self.slot, addr, AbortCause::ConflictNonTx)
    }

    /// Non-transactional store (see [`NonTx::write`]).
    #[inline]
    pub fn write_nt(&self, addr: Addr, val: u64) {
        self.rt
            .write_nt_as(self.slot, addr, val, AbortCause::ConflictNonTx);
    }

    /// Non-transactional compare-exchange (see [`NonTx::cas_nt`]).
    #[inline]
    pub fn cas_nt(&self, addr: Addr, cur: u64, new: u64) -> Result<u64, u64> {
        self.rt
            .cas_nt_as(self.slot, addr, cur, new, AbortCause::ConflictNonTx)
    }
}

// SAFETY-relevant note (no unsafe involved): ThreadCtx is Send (moves into
// a worker thread) but deliberately !Sync — all methods take &mut self or
// access only the Sync runtime.

/// Sentinel for the last-granule caches: no granule tracked yet.
const NO_GRANULE: u32 = u32::MAX;

/// A live transaction (regular HTM or ROT).
///
/// All operations return `Err(AbortCause)` once the transaction is doomed;
/// the transaction has already rolled back by the time the error is
/// returned. Dropping a `Tx` without calling [`Tx::commit`] or
/// [`Tx::abort`] rolls it back.
pub struct Tx<'c> {
    ctx: &'c mut ThreadCtx,
    mode: TxMode,
    finished: bool,
    /// Last granule this transaction read-tracked (HTM mode only): its
    /// reader bit is published and any foreign writer was resolved, and
    /// both facts outlive the transaction (the bit is only cleared at
    /// commit/rollback; a new conflicting writer dooms us through the
    /// slot-state word). Repeat reads can therefore skip the read-set
    /// probe, `add_reader`, and `resolve_writer` — only doom must still
    /// be observed on every access.
    last_read_granule: u32,
    /// Last granule this transaction write-claimed; same reasoning via
    /// the line's writer claim (a steal dooms us first).
    last_write_granule: u32,
    /// Stride prefetcher fed by this transaction's loads (a latency hint
    /// only — see [`simmem::StridePrefetcher`]).
    prefetch: simmem::StridePrefetcher,
}

impl<'c> Tx<'c> {
    /// The transaction's mode.
    #[inline]
    pub fn mode(&self) -> TxMode {
        self.mode
    }

    #[inline]
    fn rt(&self) -> &HtmRuntime {
        &self.ctx.rt
    }

    /// Rolls back local and shared state; returns the final cause.
    fn rollback(&mut self, cause: AbortCause) -> AbortCause {
        debug_assert!(!self.finished);
        let slot = self.ctx.slot;
        let seq = self.ctx.seq;
        for line in self.ctx.write_lines.iter() {
            self.rt().release_line(line as usize, slot, seq);
        }
        for line in self.ctx.read_lines.iter() {
            self.rt().remove_reader(line as usize, slot);
        }
        self.rt().slot_finish(slot, seq);
        self.ctx.write_buf.clear();
        self.ctx.write_lines.clear();
        self.ctx.read_lines.clear();
        self.finished = true;
        cause
    }

    /// Dooms ourselves with `cause` (a concurrent conflictor's earlier
    /// cause wins) and rolls back.
    fn self_abort(&mut self, cause: AbortCause) -> AbortCause {
        let cause = self.rt().slot_self_doom(self.ctx.slot, self.ctx.seq, cause);
        self.rollback(cause)
    }

    /// Checks the doom flag; rolls back and errors if set.
    #[inline]
    fn check_doom(&mut self) -> Result<(), AbortCause> {
        if let Some(cause) = self.rt().slot_doomed(self.ctx.slot, self.ctx.seq) {
            return Err(self.rollback(cause));
        }
        Ok(())
    }

    /// Simulated transient interrupt (page fault etc.), per access.
    ///
    /// When injection is configured off (the common case) this is a
    /// single branch on a hoisted flag — no config load, no RNG draw.
    #[inline]
    fn maybe_interrupt(&mut self) -> Result<(), AbortCause> {
        if self.ctx.interrupts && self.ctx.rng.gen::<f64>() < self.rt().config().page_fault_prob {
            return Err(self.self_abort(AbortCause::TransientInterrupt));
        }
        Ok(())
    }

    /// Cheap doom observation for the last-granule fast path: a relaxed
    /// pre-check of the slot-state word, escalating to the Acquire confirm
    /// (and rollback) only when it indicates doom. Callers that return a
    /// memory value must still run [`Tx::check_doom`] *after* the load —
    /// that check is what makes the value sound (see `docs/PROTOCOL.md`).
    #[inline]
    fn precheck_doom(&mut self) -> Result<(), AbortCause> {
        if self.rt().slot_doomed_relaxed(self.ctx.slot, self.ctx.seq) {
            self.check_doom()?;
        }
        Ok(())
    }

    /// Transactional load.
    ///
    /// Regular HTM transactions track the line in their read set (subject
    /// to capacity); ROTs do not. Both observe their own buffered stores.
    pub fn read(&mut self, addr: Addr) -> Result<u64, AbortCause> {
        debug_assert!(!self.finished, "access after commit/abort");
        sched::step();
        self.prefetch.touch(self.ctx.rt.mem(), addr);
        self.maybe_interrupt()?;
        let granule = self.rt().granule_of(addr) as u32;
        if granule == self.last_read_granule {
            // Fast path: our reader bit on this line is already published
            // and its writer already resolved, so republication is
            // redundant — any conflicting writer arriving since then must
            // doom us through the slot-state word, which the pre-check and
            // the post-load confirm still observe.
            self.precheck_doom()?;
            if let Some(v) = self.ctx.write_buf.get(addr.0) {
                return Ok(v);
            }
            let v = self.rt().mem().load(addr);
            self.check_doom()?;
            return Ok(v);
        }
        self.check_doom()?;
        if let Some(v) = self.ctx.write_buf.get(addr.0) {
            return Ok(v);
        }
        if self.mode == TxMode::Htm && !self.ctx.read_lines.contains(granule) {
            self.ctx.read_lines.insert(granule);
            let cap = self
                .rt()
                .effective_capacity(self.ctx.slot, self.rt().config().htm_read_capacity);
            if self.ctx.read_lines.len() as u32 > cap {
                return Err(self.self_abort(AbortCause::Capacity));
            }
            self.rt().add_reader(granule as usize, self.ctx.slot);
        }
        self.rt().resolve_writer(
            granule as usize,
            self.ctx.slot,
            AbortCause::ConflictTx,
            true,
        );
        let v = self.rt().mem().load(addr);
        // The load is only valid if nobody doomed us up to this point
        // (e.g. a writer claimed the line after our reader bit was set).
        self.check_doom()?;
        if self.mode == TxMode::Htm {
            // Only tracked (HTM) reads may skip republication: ROT reads
            // carry no reader bit, so they must resolve the writer anew on
            // every access.
            self.last_read_granule = granule;
        }
        Ok(v)
    }

    /// Transactional (speculative, buffered) store.
    pub fn write(&mut self, addr: Addr, val: u64) -> Result<(), AbortCause> {
        debug_assert!(!self.finished, "access after commit/abort");
        sched::step();
        self.maybe_interrupt()?;
        let granule = self.rt().granule_of(addr) as u32;
        if granule == self.last_write_granule {
            // Fast path: we still hold (or were doomed losing) this line's
            // writer claim; a steal dooms us first, so the relaxed
            // pre-check — and, failing that, the commit-point CAS —
            // observes it. The store itself is local buffering.
            self.precheck_doom()?;
            self.ctx.write_buf.insert(addr.0, val);
            return Ok(());
        }
        self.check_doom()?;
        if !self.ctx.write_lines.contains(granule) {
            let budget = match self.mode {
                TxMode::Htm => self.rt().config().htm_write_capacity,
                TxMode::Rot => self.rt().config().rot_write_capacity,
            };
            let cap = self.rt().effective_capacity(self.ctx.slot, budget);
            self.ctx.write_lines.insert(granule);
            if self.ctx.write_lines.len() as u32 > cap {
                return Err(self.self_abort(AbortCause::Capacity));
            }
            self.rt().claim_line(
                granule as usize,
                self.ctx.slot,
                self.ctx.seq,
                AbortCause::ConflictTx,
            );
            // Claiming may have raced with a conflictor dooming us.
            self.check_doom()?;
        }
        self.last_write_granule = granule;
        self.ctx.write_buf.insert(addr.0, val);
        Ok(())
    }

    /// Transactional compare-exchange (a tracked load plus, on match, a
    /// speculative store).
    pub fn cas(&mut self, addr: Addr, cur: u64, new: u64) -> Result<Result<u64, u64>, AbortCause> {
        let v = self.read(addr)?;
        if v == cur {
            self.write(addr, new)?;
            Ok(Ok(v))
        } else {
            Ok(Err(v))
        }
    }

    /// Suspends the transaction, runs `f` with non-transactional access,
    /// and resumes.
    ///
    /// Models POWER8 `tsuspend.`/`tresume.`: accesses inside `f` escape
    /// speculation entirely, while conflicts hitting the suspended
    /// footprint still doom the transaction (observed at the next access
    /// or at commit). Only meaningful for regular HTM transactions, but
    /// harmless on ROTs.
    pub fn suspend<R>(&mut self, f: impl FnOnce(&NonTx<'_>) -> R) -> R {
        let nt = NonTx {
            rt: &self.ctx.rt,
            slot: self.ctx.slot,
        };
        f(&nt)
    }

    /// Explicitly aborts with a user code (e.g. lock-busy).
    pub fn abort(mut self, code: u8) -> AbortCause {
        self.self_abort(AbortCause::Explicit(code))
    }

    /// Attempts to commit, writing buffered stores back to memory.
    ///
    /// On success the stores become visible with aggregate-store
    /// appearance (concurrent accessors of a committing line wait for the
    /// write-back to finish).
    pub fn commit(mut self) -> Result<(), AbortCause> {
        debug_assert!(!self.finished, "double commit");
        sched::step();
        let slot = self.ctx.slot;
        let seq = self.ctx.seq;
        if let Err(cause) = self.rt().slot_try_commit(slot, seq) {
            return Err(self.rollback(cause));
        }
        for (addr, val) in self.ctx.write_buf.iter() {
            self.rt().mem().store(Addr(addr), val);
        }
        for line in self.ctx.write_lines.iter() {
            self.rt().release_line(line as usize, slot, seq);
        }
        for line in self.ctx.read_lines.iter() {
            self.rt().remove_reader(line as usize, slot);
        }
        self.rt().slot_finish(slot, seq);
        self.ctx.write_buf.clear();
        self.ctx.write_lines.clear();
        self.ctx.read_lines.clear();
        self.finished = true;
        Ok(())
    }
}

impl Drop for Tx<'_> {
    fn drop(&mut self) {
        if !self.finished {
            self.self_abort(AbortCause::Explicit(ABORT_CANCELLED));
        }
    }
}

impl MemAccess for Tx<'_> {
    #[inline]
    fn read(&mut self, addr: Addr) -> Result<u64, AbortCause> {
        Tx::read(self, addr)
    }

    #[inline]
    fn write(&mut self, addr: Addr, val: u64) -> Result<(), AbortCause> {
        Tx::write(self, addr, val)
    }

    #[inline]
    fn cas(&mut self, addr: Addr, cur: u64, new: u64) -> Result<Result<u64, u64>, AbortCause> {
        Tx::cas(self, addr, cur, new)
    }

    #[inline]
    fn is_speculative(&self) -> bool {
        true
    }
}

/// Non-transactional access handle (plain coherence-level accesses).
///
/// Used for uninstrumented read critical sections, pessimistic fallback
/// paths, and code running while a transaction is suspended. Loads doom
/// foreign speculative writers; stores additionally doom tracked readers —
/// exactly what cache coherence does to transactions on real hardware.
pub struct NonTx<'a> {
    rt: &'a HtmRuntime,
    slot: usize,
}

impl NonTx<'_> {
    /// Non-transactional load.
    #[inline]
    pub fn read(&self, addr: Addr) -> u64 {
        self.rt
            .read_nt_as(self.slot, addr, AbortCause::ConflictNonTx)
    }

    /// Non-transactional store.
    #[inline]
    pub fn write(&self, addr: Addr, val: u64) {
        self.rt
            .write_nt_as(self.slot, addr, val, AbortCause::ConflictNonTx);
    }

    /// Non-transactional compare-exchange.
    #[inline]
    pub fn cas_nt(&self, addr: Addr, cur: u64, new: u64) -> Result<u64, u64> {
        self.rt
            .cas_nt_as(self.slot, addr, cur, new, AbortCause::ConflictNonTx)
    }
}

impl MemAccess for NonTx<'_> {
    #[inline]
    fn read(&mut self, addr: Addr) -> Result<u64, AbortCause> {
        Ok(NonTx::read(self, addr))
    }

    #[inline]
    fn write(&mut self, addr: Addr, val: u64) -> Result<(), AbortCause> {
        NonTx::write(self, addr, val);
        Ok(())
    }

    #[inline]
    fn cas(&mut self, addr: Addr, cur: u64, new: u64) -> Result<Result<u64, u64>, AbortCause> {
        Ok(NonTx::cas_nt(self, addr, cur, new))
    }

    #[inline]
    fn is_speculative(&self) -> bool {
        false
    }
}

/// Access handle for epoch-protected read-side critical sections.
///
/// Behaves like [`NonTx`] but routes loads through the engine's claim
/// filter: when no transactional claim can exist near the touched line
/// (one L1-resident counter word proves it), the load skips the per-line
/// conflict metadata entirely — the common case for RW-LE readers, whose
/// working set rarely intersects an in-flight writer. Stores and CASes
/// fall back to the fully instrumented non-transactional operations.
///
/// # Contract
///
/// Only sound for threads inside an epoch-protected read-side section
/// whose writers quiesce on the epoch set *after* claiming their write
/// set and *before* writing back (the RW-LE write path does exactly
/// this). The `SeqCst` epoch entry plays the role of the paper's
/// `MEM_FENCE`; see `HtmRuntime::read_epoch_as` for the full dichotomy
/// argument. An indicator-certified reader (see `rind`) satisfies the
/// same contract under the NS-only configuration: its `SeqCst` slot CAS
/// is the fence, and the NS writer waits published slots out between
/// taking the lock and its first store — and NS-only means no writer of
/// this lock ever holds a transactional claim at all. Generic code
/// racing with non-quiescing transactions must use [`NonTx`] instead.
pub struct EpochReader<'a> {
    rt: &'a HtmRuntime,
    slot: usize,
    prefetch: simmem::StridePrefetcher,
}

impl EpochReader<'_> {
    /// Filtered epoch-protected load.
    #[inline]
    pub fn read(&mut self, addr: Addr) -> u64 {
        self.prefetch.touch(self.rt.mem(), addr);
        self.rt
            .read_epoch_as(self.slot, addr, AbortCause::ConflictNonTx)
    }

    /// Non-transactional store (identical to [`NonTx::write`]).
    #[inline]
    pub fn write(&self, addr: Addr, val: u64) {
        self.rt
            .write_nt_as(self.slot, addr, val, AbortCause::ConflictNonTx);
    }

    /// Non-transactional compare-exchange (identical to [`NonTx::cas_nt`]).
    #[inline]
    pub fn cas_nt(&self, addr: Addr, cur: u64, new: u64) -> Result<u64, u64> {
        self.rt
            .cas_nt_as(self.slot, addr, cur, new, AbortCause::ConflictNonTx)
    }
}

impl MemAccess for EpochReader<'_> {
    #[inline]
    fn read(&mut self, addr: Addr) -> Result<u64, AbortCause> {
        Ok(EpochReader::read(self, addr))
    }

    #[inline]
    fn write(&mut self, addr: Addr, val: u64) -> Result<(), AbortCause> {
        EpochReader::write(self, addr, val);
        Ok(())
    }

    #[inline]
    fn cas(&mut self, addr: Addr, cur: u64, new: u64) -> Result<Result<u64, u64>, AbortCause> {
        Ok(EpochReader::cas_nt(self, addr, cur, new))
    }

    #[inline]
    fn is_speculative(&self) -> bool {
        false
    }
}
