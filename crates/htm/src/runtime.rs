//! The HTM runtime: slot states, the per-line conflict table, and the
//! doom/claim/release protocol that models POWER8 cache-coherence-based
//! conflict detection.
//!
//! # Protocol overview
//!
//! Every registered thread owns a *slot*. A slot's lifecycle word packs
//! `(seq, phase, abort-cause)` into one `u64`:
//!
//! * `Idle` — no transaction.
//! * `Active` — a transaction (HTM or ROT) is running or suspended.
//! * `Committing` — the commit point has been passed; the store buffer is
//!   being written back to memory.
//! * `Doomed` — a conflicting access killed the transaction; the owner
//!   discovers this at its next access or at commit.
//!
//! The *commit point* is a single compare-and-swap from `(seq, Active)` to
//! `(seq, Committing)`. Conflictors race with that CAS by trying to move
//! the word to `(seq, Doomed)`; whichever CAS wins decides whether the
//! transaction commits or aborts — exactly the atomicity a real HTM commit
//! instruction provides.
//!
//! Per cache line, the table tracks one speculative *writer* (packed slot +
//! transaction sequence) and a 128-bit bitmap of HTM *readers*. Conflict
//! resolution is requester-wins, matching coherence behaviour: any load
//! that touches a foreign speculatively-written line dooms the writer, and
//! any store dooms the writer and every tracked reader.
//!
//! # Memory-ordering discipline
//!
//! Only four access kinds need `SeqCst` — the two publications and two
//! checks of the store-buffering race R1 (reader: `add_reader` fetch_or
//! then `resolve_writer` load; writer: claim CAS then `doom_readers`
//! scan), where the single total order guarantees at least one side sees
//! the other. Everything that races on a *single* word (doom vs commit
//! CASes on a slot's lifecycle word, claim steal vs cleanup on a line's
//! writer word) is already decided by modification order and runs
//! AcqRel/Acquire; releases of claims and slots are `Release` so waiters
//! synchronize with the protected stores; pure-retry probe loads are
//! `Acquire`; counters and ID allocation are `Relaxed`. The per-site
//! table lives in `docs/PROTOCOL.md` §5.

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use simmem::{Addr, SharedMem};

use crate::cause::AbortCause;
use crate::config::{HtmConfig, MAX_SLOTS};
use crate::tx::ThreadCtx;

const PHASE_IDLE: u64 = 0;
const PHASE_ACTIVE: u64 = 1;
const PHASE_COMMITTING: u64 = 2;
const PHASE_DOOMED: u64 = 3;

const SEQ_MASK: u64 = (1 << 48) - 1;

#[inline]
fn pack_state(seq: u64, phase: u64, tag: u8, code: u8) -> u64 {
    (seq << 16) | ((code as u64) << 8) | ((tag as u64) << 4) | phase
}

#[inline]
fn unpack_state(st: u64) -> (u64, u64, u8, u8) {
    (
        st >> 16,
        st & 0xF,
        ((st >> 4) & 0xF) as u8,
        ((st >> 8) & 0xFF) as u8,
    )
}

/// High bit distinguishing a short-lived non-transactional store claim
/// from a transactional one. Transactional claims pack `slot + 1 ≤ 128`
/// into bits 48..63, so bit 63 is always clear for them.
const NT_CLAIM_BIT: u64 = 1 << 63;

/// Ownership state of a line's writer word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Claim {
    /// No speculative or in-flight writer.
    Free,
    /// Speculatively written by transaction `(slot, seq)`.
    Tx(usize, u64),
    /// Momentarily held by a non-transactional store from `slot`
    /// (coherence-exclusive ownership for the duration of one store).
    Nt(usize),
}

#[inline]
fn pack_writer(slot: usize, seq: u64) -> u64 {
    (((slot + 1) as u64) << 48) | (seq & SEQ_MASK)
}

#[inline]
fn pack_nt_claim(slot: usize) -> u64 {
    NT_CLAIM_BIT | (((slot + 1) as u64) << 48)
}

#[inline]
fn unpack_writer(w: u64) -> Claim {
    if w == 0 {
        Claim::Free
    } else if w & NT_CLAIM_BIT != 0 {
        Claim::Nt(((w & !NT_CLAIM_BIT) >> 48) as usize - 1)
    } else {
        Claim::Tx((w >> 48) as usize - 1, w & SEQ_MASK)
    }
}

/// Per-slot lifecycle state, padded to avoid false sharing.
#[repr(align(64))]
struct SlotState {
    state: AtomicU64,
}

/// Per-line conflict-tracking metadata: a view of the line's three
/// adjacent words in [`HtmRuntime`]'s table, all zero for a line no
/// transaction has touched.
#[derive(Clone, Copy)]
struct LineMeta<'a> {
    /// Packed speculative writer (`pack_writer`), or 0 when unowned.
    writer: &'a AtomicU64,
    /// HTM reader bitmap for slots 0–63.
    readers0: &'a AtomicU64,
    /// HTM reader bitmap for slots 64–127.
    readers1: &'a AtomicU64,
}

/// Words per [`LineMeta`] in the table: writer, readers0, readers1.
const META_WORDS: usize = 3;

/// Conflict-detection granularity in words: one 64-byte cache line, as on
/// real HTM — false-sharing conflicts included — and the unit capacity
/// budgets count. A power of two, so [`HtmRuntime::granule_of`] is a shift.
const GRANULE_WORDS: u32 = 8;

/// Counters in the transactional-claim filter: a power of two, 4 KiB of
/// `AtomicU32` total, small enough to stay L1-resident. Lines hash in by
/// `line & CLAIM_FILTER_MASK`; collisions only cost a spurious slow path.
const CLAIM_FILTER_SLOTS: usize = 1024;
const CLAIM_FILTER_MASK: usize = CLAIM_FILTER_SLOTS - 1;

/// Outcome of a doom attempt against another slot's transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DoomOutcome {
    /// The victim transaction is (now) doomed, or was already.
    Doomed,
    /// The victim transaction no longer exists (committed or cleaned up).
    Gone,
    /// The victim passed its commit point; its write-back must be waited
    /// out (on the line word) instead.
    Committing,
}

/// Engine-level event counters (all `Relaxed`; approximate under load).
///
/// These measure the *conflict machinery itself* — how often transactions
/// were doomed, claims stolen, or accessors made to wait on a committing
/// write-back — independent of how the elision layers classify aborts.
#[derive(Debug, Default)]
pub struct Telemetry {
    /// Successful doom CASes performed against other transactions.
    pub dooms: AtomicU64,
    /// Line claims stolen from doomed transactions (requester-wins).
    pub steals: AtomicU64,
    /// Times an accessor waited out a committing transaction's write-back.
    pub commit_waits: AtomicU64,
    /// Transactions begun.
    pub begins: AtomicU64,
}

impl Telemetry {
    /// Snapshot as plain integers `(begins, dooms, steals, commit_waits)`.
    pub fn snapshot(&self) -> (u64, u64, u64, u64) {
        (
            self.begins.load(Ordering::Relaxed),
            self.dooms.load(Ordering::Relaxed),
            self.steals.load(Ordering::Relaxed),
            self.commit_waits.load(Ordering::Relaxed),
        )
    }
}

/// The simulated HTM, shared by every thread operating on one [`SharedMem`].
pub struct HtmRuntime {
    mem: Arc<SharedMem>,
    cfg: HtmConfig,
    slots: Box<[SlotState]>,
    /// Per-granule [`LineMeta`], [`META_WORDS`] adjacent words each.
    lines: Box<[AtomicU64]>,
    /// Counting filter of in-flight transactional claims, hashed by line.
    /// A zero counter proves no granule hashing to it is claimed, letting
    /// epoch-protected readers skip the (cache-cold) per-line metadata —
    /// see [`HtmRuntime::read_epoch_as`] for the soundness argument.
    claim_filter: Box<[AtomicU32]>,
    next_slot: AtomicUsize,
    telemetry: Telemetry,
    /// Concurrently active transactions per SMT group (see
    /// [`HtmConfig::smt_group_size`]).
    group_active: Box<[AtomicUsize]>,
}

impl HtmRuntime {
    /// Creates a runtime over `mem` with the given configuration.
    ///
    /// The per-line conflict table (24 B per line of `mem`) starts
    /// all-zero — no writer, no readers — and comes from
    /// [`simmem::zeroed_words`], so creating it writes none of it: a
    /// line's entry costs a page fault only once a transaction touches a
    /// line near it.
    pub fn new(mem: Arc<SharedMem>, cfg: HtmConfig) -> Arc<Self> {
        // One metadata entry per conflict granule.
        let n_lines = (mem.num_words() as usize).div_ceil(GRANULE_WORDS as usize);
        let mut slots = Vec::with_capacity(MAX_SLOTS);
        slots.resize_with(MAX_SLOTS, || SlotState {
            state: AtomicU64::new(pack_state(0, PHASE_IDLE, 0, 0)),
        });
        let n_groups = MAX_SLOTS.div_ceil(cfg.smt_group_size.max(1) as usize);
        Arc::new(HtmRuntime {
            mem,
            cfg,
            slots: slots.into_boxed_slice(),
            lines: simmem::zeroed_words(n_lines * META_WORDS),
            claim_filter: (0..CLAIM_FILTER_SLOTS).map(|_| AtomicU32::new(0)).collect(),
            next_slot: AtomicUsize::new(0),
            telemetry: Telemetry::default(),
            group_active: (0..n_groups).map(|_| AtomicUsize::new(0)).collect(),
        })
    }

    /// The underlying simulated memory.
    #[inline]
    pub fn mem(&self) -> &Arc<SharedMem> {
        &self.mem
    }

    /// The engine configuration.
    #[inline]
    pub fn config(&self) -> &HtmConfig {
        &self.cfg
    }

    /// Engine-level event counters.
    #[inline]
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Registers the calling thread, returning its per-thread context.
    ///
    /// # Panics
    ///
    /// Panics if more than [`MAX_SLOTS`] threads register.
    pub fn register(self: &Arc<Self>) -> ThreadCtx {
        // Relaxed: a pure ID allocator; the returned context is handed to
        // its thread through normal synchronization (move/channel/join).
        let slot = self.next_slot.fetch_add(1, Ordering::Relaxed);
        assert!(slot < MAX_SLOTS, "too many threads registered");
        ThreadCtx::new(Arc::clone(self), slot)
    }

    /// Number of threads registered so far.
    pub fn registered(&self) -> usize {
        self.next_slot.load(Ordering::Relaxed).min(MAX_SLOTS)
    }

    #[inline]
    fn line(&self, line: usize) -> LineMeta<'_> {
        let at = line * META_WORDS;
        let [writer, readers0, readers1] =
            <&[AtomicU64; META_WORDS]>::try_from(&self.lines[at..at + META_WORDS])
                .expect("a line's entry is META_WORDS words");
        LineMeta {
            writer,
            readers0,
            readers1,
        }
    }

    #[inline]
    fn slot_state(&self, slot: usize) -> &AtomicU64 {
        &self.slots[slot].state
    }

    // ------------------------------------------------------------------
    // Slot lifecycle (called from `tx.rs`)
    // ------------------------------------------------------------------

    /// Conflict granule containing `addr`.
    #[inline]
    pub(crate) fn granule_of(&self, addr: Addr) -> usize {
        (addr.0 / GRANULE_WORDS) as usize
    }

    #[inline]
    fn group_of(&self, slot: usize) -> usize {
        slot / self.cfg.smt_group_size.max(1) as usize
    }

    /// Effective capacity for a transaction on `slot`: the configured
    /// budget shared among the concurrently active transactions of its
    /// SMT group (paper footnote 4 — tracking resources are per core, not
    /// per hardware thread).
    #[inline]
    pub(crate) fn effective_capacity(&self, slot: usize, budget: u32) -> u32 {
        if self.cfg.smt_group_size <= 1 {
            return budget;
        }
        let active = self.group_active[self.group_of(slot)]
            .load(Ordering::Relaxed)
            .max(1) as u32;
        (budget / active).max(1)
    }

    /// Starts a new transaction on `slot`; returns the new sequence number.
    pub(crate) fn slot_begin(&self, slot: usize) -> u64 {
        // Relaxed load: only the owner moves the slot out of Idle, so the
        // previous value is this thread's own store. Release store:
        // doomers CAS the same word (an RMW always sees the latest value
        // in modification order), and Release keeps the new seq's
        // publication ordered before the transaction's accesses as
        // observed through it.
        let st = self.slot_state(slot).load(Ordering::Relaxed);
        let (seq, phase, _, _) = unpack_state(st);
        debug_assert_eq!(phase, PHASE_IDLE, "begin while a transaction is live");
        let new_seq = (seq + 1) & SEQ_MASK;
        self.slot_state(slot)
            .store(pack_state(new_seq, PHASE_ACTIVE, 0, 0), Ordering::Release);
        self.telemetry.begins.fetch_add(1, Ordering::Relaxed);
        if self.cfg.smt_group_size > 1 {
            self.group_active[self.group_of(slot)].fetch_add(1, Ordering::Relaxed);
        }
        new_seq
    }

    /// Returns the doom cause if `slot`'s transaction `seq` has been doomed.
    ///
    /// Acquire: reading our own slot as `Doomed` must also make visible
    /// whatever the doomer published before its doom CAS (AcqRel), and the
    /// post-load confirm in `Tx::read` relies on the chain
    /// doom-CAS → committed store (Release) → our load (Acquire) → this
    /// check, which coherence then forbids from missing the doom.
    #[inline]
    pub(crate) fn slot_doomed(&self, slot: usize, seq: u64) -> Option<AbortCause> {
        let st = self.slot_state(slot).load(Ordering::Acquire);
        let (s, phase, tag, code) = unpack_state(st);
        if s == seq && phase == PHASE_DOOMED {
            Some(AbortCause::decode(tag, code))
        } else {
            None
        }
    }

    /// Relaxed doom pre-check for the last-granule fast path: may lag the
    /// doomer briefly (callers escalate to [`HtmRuntime::slot_doomed`] on
    /// a hit, and the commit-point CAS can never miss a doom), but costs
    /// no ordering on the per-access hot path.
    #[inline]
    pub(crate) fn slot_doomed_relaxed(&self, slot: usize, seq: u64) -> bool {
        let st = self.slot_state(slot).load(Ordering::Relaxed);
        let (s, phase, _, _) = unpack_state(st);
        s == seq && phase == PHASE_DOOMED
    }

    /// Tries to doom our own transaction (capacity, interrupt, explicit).
    ///
    /// Returns the cause that actually stuck: if a concurrent conflictor
    /// doomed us first, their cause wins — matching hardware, which reports
    /// the first failure it recorded.
    pub(crate) fn slot_self_doom(&self, slot: usize, seq: u64, cause: AbortCause) -> AbortCause {
        let (tag, code) = cause.encode();
        let cur = pack_state(seq, PHASE_ACTIVE, 0, 0);
        let new = pack_state(seq, PHASE_DOOMED, tag, code);
        // AcqRel: same-word atomicity with conflicting doom/commit CASes
        // comes from modification order; no cross-location ordering needed.
        match self
            .slot_state(slot)
            .compare_exchange(cur, new, Ordering::AcqRel, Ordering::Acquire)
        {
            Ok(_) => cause,
            Err(actual) => {
                let (s, phase, tag, code) = unpack_state(actual);
                debug_assert_eq!(s, seq);
                debug_assert_eq!(phase, PHASE_DOOMED);
                AbortCause::decode(tag, code)
            }
        }
    }

    /// Attempts to pass the commit point: `(seq, Active) → (seq, Committing)`.
    ///
    /// On failure returns the cause the conflictor recorded.
    pub(crate) fn slot_try_commit(&self, slot: usize, seq: u64) -> Result<(), AbortCause> {
        let cur = pack_state(seq, PHASE_ACTIVE, 0, 0);
        let new = pack_state(seq, PHASE_COMMITTING, 0, 0);
        // AcqRel: commit/doom atomicity is same-word (whichever CAS lands
        // first in modification order wins); Release orders the buffered
        // write-back after the commit point for accessors that observe
        // `Committing`, Acquire makes a winning doomer's cause readable.
        match self
            .slot_state(slot)
            .compare_exchange(cur, new, Ordering::AcqRel, Ordering::Acquire)
        {
            Ok(_) => Ok(()),
            Err(actual) => {
                let (_, phase, tag, code) = unpack_state(actual);
                debug_assert_eq!(phase, PHASE_DOOMED);
                Err(AbortCause::decode(tag, code))
            }
        }
    }

    /// Moves the slot back to `Idle` after commit write-back or rollback.
    pub(crate) fn slot_finish(&self, slot: usize, seq: u64) {
        // Release: waiters polling past `Committing` must see the
        // completed write-back and line releases that precede this store.
        self.slot_state(slot)
            .store(pack_state(seq, PHASE_IDLE, 0, 0), Ordering::Release);
        if self.cfg.smt_group_size > 1 {
            self.group_active[self.group_of(slot)].fetch_sub(1, Ordering::Relaxed);
        }
    }

    // ------------------------------------------------------------------
    // Doom protocol
    // ------------------------------------------------------------------

    /// Tries to doom the transaction `(victim_slot, victim_seq)`.
    pub(crate) fn doom(
        &self,
        victim_slot: usize,
        victim_seq: u64,
        cause: AbortCause,
    ) -> DoomOutcome {
        let (tag, code) = cause.encode();
        let state = self.slot_state(victim_slot);
        loop {
            // Acquire load / AcqRel CAS: the doom race is decided on this
            // one word by modification order; Release in the CAS keeps
            // anything we published (e.g. a prior store) visible to the
            // victim's Acquire doom check.
            let st = state.load(Ordering::Acquire);
            let (seq, phase, _, _) = unpack_state(st);
            if seq != victim_seq {
                return DoomOutcome::Gone;
            }
            match phase {
                PHASE_ACTIVE => {
                    let new = pack_state(seq, PHASE_DOOMED, tag, code);
                    if state
                        .compare_exchange(st, new, Ordering::AcqRel, Ordering::Relaxed)
                        .is_ok()
                    {
                        self.telemetry.dooms.fetch_add(1, Ordering::Relaxed);
                        return DoomOutcome::Doomed;
                    }
                    // Lost a race with a commit or another doomer; retry.
                }
                PHASE_DOOMED => return DoomOutcome::Doomed,
                PHASE_COMMITTING => return DoomOutcome::Committing,
                _ => return DoomOutcome::Gone,
            }
        }
    }

    /// Dooms the *current* transaction of `victim_slot`, whatever its
    /// sequence number, if it is `Active`.
    ///
    /// Used when a store hits a line whose reader bitmap names the victim:
    /// reader bits do not carry sequence numbers, so in a narrow window a
    /// freshly started transaction can be doomed spuriously — a conservative
    /// behaviour real best-effort HTM exhibits too.
    fn doom_current(&self, victim_slot: usize, cause: AbortCause) {
        let (tag, code) = cause.encode();
        let state = self.slot_state(victim_slot);
        loop {
            // Same discipline as `doom`: one-word race, AcqRel suffices.
            let st = state.load(Ordering::Acquire);
            let (seq, phase, _, _) = unpack_state(st);
            if phase != PHASE_ACTIVE {
                return;
            }
            let new = pack_state(seq, PHASE_DOOMED, tag, code);
            if state
                .compare_exchange(st, new, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                self.telemetry.dooms.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
    }

    /// Dooms every tracked HTM reader of `line` except `me`.
    ///
    /// Litmus: writer side of the `r1_commit_quartet` suite in
    /// `wmm::proto` (the scan load after `claim_line`'s CAS) and of
    /// `r1_nt_store` (after `acquire_nt_claim`'s CAS, before the NT store).
    pub(crate) fn doom_readers(&self, line: usize, me: usize, cause: AbortCause) {
        let meta = self.line(line);
        // SeqCst (load-bearing): writer side of the store-buffering race
        // R1 — claim CAS (SeqCst) then this reader scan, against a
        // reader's `add_reader` fetch_or (SeqCst) then writer-word load
        // (SeqCst). The single total order guarantees at least one side
        // sees the other; weaken any of the four and a reader could slip
        // in unseen while the writer misses its bit.
        let words = [
            meta.readers0.load(Ordering::SeqCst),
            meta.readers1.load(Ordering::SeqCst),
        ];
        for (word_idx, mut bits) in words.into_iter().enumerate() {
            while bits != 0 {
                let bit = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let slot = word_idx * 64 + bit;
                if slot != me {
                    self.doom_current(slot, cause);
                }
            }
        }
    }

    /// Resolves a foreign speculative writer of `line` before a *load*.
    ///
    /// On return, any speculative transactional writer that existed has
    /// either been doomed (its buffered stores will never reach memory) or
    /// has finished its write-back (the line is released), so a subsequent
    /// plain load of memory is sound.
    ///
    /// A non-transactional claim is ignored by a non-transactional load:
    /// its single store is word-atomic, so the load sees either the old or
    /// the new value. A `transactional` load waits it out instead. The NT
    /// store dooms the line's readers *before* it stores (see
    /// [`HtmRuntime::write_nt_as`]), so a transaction that published its
    /// reader bit after that scan and loaded the old value would commit a
    /// result computed from it; waiting, it loads the new value. The
    /// holder never blocks, so the wait is short.
    ///
    /// Litmus: reader side of `wmm::proto`'s `r1_commit_quartet` and
    /// `r1_nt_store` (writer-word load after `add_reader`'s publication).
    pub(crate) fn resolve_writer(
        &self,
        line: usize,
        me: usize,
        cause: AbortCause,
        transactional: bool,
    ) {
        let meta = self.line(line);
        loop {
            // SeqCst (load-bearing): reader side of race R1 — this load
            // follows the reader's SeqCst `add_reader` publication; see
            // `doom_readers` for the pairing argument.
            let w = meta.writer.load(Ordering::SeqCst);
            match unpack_writer(w) {
                Claim::Free => return,
                Claim::Nt(_) if !transactional => return,
                Claim::Nt(_) => {
                    // Acquire: the release CAS that ends the wait carries
                    // the NT store this load must then see.
                    let mut bo = sched::Backoff::new();
                    while meta.writer.load(Ordering::Acquire) == w {
                        bo.snooze();
                    }
                }
                Claim::Tx(oslot, _) if oslot == me => return,
                Claim::Tx(oslot, oseq) => match self.doom(oslot, oseq, cause) {
                    DoomOutcome::Doomed | DoomOutcome::Gone => return,
                    DoomOutcome::Committing => {
                        // Wait out the write-back so we never observe a
                        // torn aggregate store. Acquire: reading the
                        // release (a Release CAS) synchronizes with the
                        // completed write-back.
                        self.telemetry.commit_waits.fetch_add(1, Ordering::Relaxed);
                        let mut bo = sched::Backoff::new();
                        while meta.writer.load(Ordering::Acquire) == w {
                            bo.snooze();
                        }
                    }
                },
            }
        }
    }

    /// Takes momentary exclusive ownership of `line` for a
    /// non-transactional store, dooming or waiting out any transactional
    /// writer. Must be released with [`HtmRuntime::release_nt_claim`].
    ///
    /// Holders never block while owning a claim (a reader scan, one
    /// store, then release), so waiting on an NT claim is deadlock-free.
    fn acquire_nt_claim(&self, line: usize, me: usize, cause: AbortCause) {
        let meta = self.line(line);
        let mine = pack_nt_claim(me);
        loop {
            // The claim CASes stay SeqCst (load-bearing): an NT store is
            // the writer side of race R1 — publish the claim, then scan
            // reader bits in `doom_readers` — so the publication must
            // participate in the single total order. The probe load and
            // the wait loops only feed retries: Acquire suffices there.
            let w = meta.writer.load(Ordering::Acquire);
            match unpack_writer(w) {
                Claim::Free => {
                    if meta
                        .writer
                        .compare_exchange(0, mine, Ordering::SeqCst, Ordering::Relaxed)
                        .is_ok()
                    {
                        return;
                    }
                }
                Claim::Nt(_) => {
                    // Another in-flight non-transactional store; brief.
                    let mut bo = sched::Backoff::new();
                    while meta.writer.load(Ordering::Acquire) == w {
                        bo.snooze();
                    }
                }
                Claim::Tx(oslot, oseq) => {
                    debug_assert_ne!(
                        oslot, me,
                        "non-transactional store to a line speculatively \
                         written by the same thread's live transaction"
                    );
                    match self.doom(oslot, oseq, cause) {
                        DoomOutcome::Doomed | DoomOutcome::Gone => {
                            // Steal: the doomed owner's cleanup CAS will fail.
                            if meta
                                .writer
                                .compare_exchange(w, mine, Ordering::SeqCst, Ordering::Relaxed)
                                .is_ok()
                            {
                                // The transactional claim this replaced is
                                // gone and its owner's release CAS will fail
                                // (skipping the decrement), so retire its
                                // filter count here. NT claims themselves are
                                // never counted: their single store is
                                // word-atomic, so unfiltered readers see the
                                // old or the new value either way.
                                self.claim_filter[line & CLAIM_FILTER_MASK]
                                    .fetch_sub(1, Ordering::SeqCst);
                                return;
                            }
                        }
                        DoomOutcome::Committing => {
                            let mut bo = sched::Backoff::new();
                            while meta.writer.load(Ordering::Acquire) == w {
                                bo.snooze();
                            }
                        }
                    }
                }
            }
        }
    }

    fn release_nt_claim(&self, line: usize, me: usize) {
        // Release: waiters that observe the line free synchronize with the
        // store this claim covered.
        let res = self.line(line).writer.compare_exchange(
            pack_nt_claim(me),
            0,
            Ordering::Release,
            Ordering::Relaxed,
        );
        debug_assert!(res.is_ok(), "NT claims are never stolen");
    }

    // ------------------------------------------------------------------
    // Line claim / release (transactional stores)
    // ------------------------------------------------------------------

    /// Claims `line` for the transaction `(me, my_seq)`, dooming any
    /// conflicting writer and every foreign tracked reader.
    ///
    /// Litmus: the claim CAS anchors the writer side of *two* `wmm::proto`
    /// suites — `r1_commit_quartet` (against HTM readers) and
    /// `claim_filter_accounting` (the filter increment against
    /// `read_epoch_as`'s filter load); `xlint mutate` kills every
    /// one-notch weakening of either.
    pub(crate) fn claim_line(&self, line: usize, me: usize, my_seq: u64, cause: AbortCause) {
        let meta = self.line(line);
        let mine = pack_writer(me, my_seq);
        loop {
            // The claim CASes stay SeqCst (load-bearing): writer side of
            // race R1 — the claim publication must be totally ordered
            // against reader-bit publication so the `doom_readers` scan
            // below cannot miss a concurrent reader (see `doom_readers`).
            // Probe and wait-loop loads only feed retries: Acquire.
            let w = meta.writer.load(Ordering::Acquire);
            match unpack_writer(w) {
                Claim::Free => {
                    if meta
                        .writer
                        .compare_exchange(0, mine, Ordering::SeqCst, Ordering::Relaxed)
                        .is_ok()
                    {
                        // SeqCst (load-bearing): epoch readers' filter check
                        // orders against this increment in the single total
                        // order — see `read_epoch_as`. A steal inherits the
                        // victim's count instead (the victim's failed release
                        // CAS skips the decrement), so the counter stays ≥ 1
                        // for as long as *anyone* holds the claim.
                        self.claim_filter[line & CLAIM_FILTER_MASK].fetch_add(1, Ordering::SeqCst);
                        break;
                    }
                }
                Claim::Tx(oslot, _) if oslot == me => {
                    debug_assert_eq!(w, mine, "stale claim from an earlier transaction");
                    break;
                }
                Claim::Tx(oslot, oseq) => match self.doom(oslot, oseq, cause) {
                    DoomOutcome::Doomed | DoomOutcome::Gone => {
                        // Steal the claim; the victim's cleanup CAS will
                        // simply fail and skip the line.
                        if meta
                            .writer
                            .compare_exchange(w, mine, Ordering::SeqCst, Ordering::Relaxed)
                            .is_ok()
                        {
                            self.telemetry.steals.fetch_add(1, Ordering::Relaxed);
                            break;
                        }
                    }
                    DoomOutcome::Committing => {
                        self.telemetry.commit_waits.fetch_add(1, Ordering::Relaxed);
                        let mut bo = sched::Backoff::new();
                        while meta.writer.load(Ordering::Acquire) == w {
                            bo.snooze();
                        }
                    }
                },
                Claim::Nt(_) => {
                    // In-flight non-transactional store; wait it out.
                    let mut bo = sched::Backoff::new();
                    while meta.writer.load(Ordering::Acquire) == w {
                        bo.snooze();
                    }
                }
            }
        }
        self.doom_readers(line, me, cause);
    }

    /// Releases a claim if the transaction still holds it.
    pub(crate) fn release_line(&self, line: usize, me: usize, my_seq: u64) {
        let mine = pack_writer(me, my_seq);
        // A failed CAS means a requester-wins steal took the line; nothing
        // to release then. Release: accessors observing the line free
        // synchronize with the committed write-back that preceded this.
        if self
            .line(line)
            .writer
            .compare_exchange(mine, 0, Ordering::Release, Ordering::Relaxed)
            .is_ok()
        {
            // Decrement only on a successful release: a stolen claim's
            // filter count now belongs to the stealer, who decrements it
            // when *its* release CAS succeeds. Exactly one decrement per
            // fresh-claim increment, so the filter drains back to zero.
            self.claim_filter[line & CLAIM_FILTER_MASK].fetch_sub(1, Ordering::SeqCst);
        }
    }

    // ------------------------------------------------------------------
    // HTM read tracking
    // ------------------------------------------------------------------

    /// Sets `me`'s reader bit on `line`.
    ///
    /// SeqCst (load-bearing): reader side of race R1 — publish the bit,
    /// then load the writer word in `resolve_writer`; paired with the
    /// writer's SeqCst claim CAS + reader scan (see `doom_readers`).
    /// Machine-checked by `wmm::proto`'s `r1_commit_quartet` litmus:
    /// the forbidden both-miss outcome is unreachable at these
    /// strengths, and every one-notch weakening is killed with a seed.
    pub(crate) fn add_reader(&self, line: usize, me: usize) {
        let meta = self.line(line);
        let bit = 1u64 << (me % 64);
        if me < 64 {
            meta.readers0.fetch_or(bit, Ordering::SeqCst);
        } else {
            meta.readers1.fetch_or(bit, Ordering::SeqCst);
        }
    }

    /// Clears `me`'s reader bit on `line`.
    ///
    /// Release only: a writer that still sees a stale set bit merely dooms
    /// the slot's *next* transaction spuriously (conservative, and real
    /// best-effort HTM behaves the same); a missed clear cannot hide a
    /// reader. Release keeps the finished transaction's loads ordered
    /// before the bit disappears.
    pub(crate) fn remove_reader(&self, line: usize, me: usize) {
        let meta = self.line(line);
        let bit = 1u64 << (me % 64);
        if me < 64 {
            meta.readers0.fetch_and(!bit, Ordering::Release);
        } else {
            meta.readers1.fetch_and(!bit, Ordering::Release);
        }
    }

    // ------------------------------------------------------------------
    // Non-transactional accesses
    // ------------------------------------------------------------------

    /// Non-transactional load of `addr` on behalf of `slot`.
    ///
    /// Dooms any foreign speculative writer of the line (a coherence read
    /// request invalidates exclusive speculative state) and waits out
    /// committing writers, so the returned value is never torn.
    pub(crate) fn read_nt_as(&self, slot: usize, addr: Addr, cause: AbortCause) -> u64 {
        sched::step();
        self.resolve_writer(self.granule_of(addr), slot, cause, false);
        self.mem.load(addr)
    }

    /// Load of `addr` for an **epoch-protected** reader (RW-LE read-side
    /// critical sections).
    ///
    /// Identical to [`HtmRuntime::read_nt_as`] except that the per-line
    /// metadata is consulted only when the claim filter admits a possible
    /// transactional claim near the line. In the common no-conflict case
    /// the read touches one L1-resident filter word plus the data itself —
    /// no cache-cold `LineMeta` load.
    ///
    /// # Soundness
    ///
    /// Sound **only** for readers that (a) published their epoch entry
    /// with a `SeqCst` RMW (`EpochSet::enter`, the paper's `MEM_FENCE`)
    /// before any access, and (b) race exclusively against writers that
    /// claim their whole write set, then quiesce on the epoch set, and
    /// only then write back. For such pairs the `SeqCst` total order
    /// yields a dichotomy per (reader load, writer claim increment):
    ///
    /// * the increment precedes the filter load — the reader observes a
    ///   non-zero counter and takes the full resolve path (dooming the
    ///   writer or waiting out its write-back), exactly as before; or
    /// * the filter load precedes the increment — then the reader's epoch
    ///   `enter` (program-order before the load, also `SeqCst`) precedes
    ///   the writer's quiescence scan (program-order after the increment),
    ///   so the writer sees the reader in its epoch and delays write-back
    ///   until the reader exits. The skipped metadata check could only
    ///   have found buffered state that will not reach memory during this
    ///   reader's critical section.
    ///
    /// Generic (non-quiescing) transactions get no such guarantee, which
    /// is why this is a separate entry point and not a change to
    /// `read_nt_as`.
    pub(crate) fn read_epoch_as(&self, slot: usize, addr: Addr, cause: AbortCause) -> u64 {
        sched::step();
        let line = self.granule_of(addr);
        // SeqCst (load-bearing): the reader side of the dichotomy above.
        if self.claim_filter[line & CLAIM_FILTER_MASK].load(Ordering::SeqCst) != 0 {
            self.resolve_writer(line, slot, cause, false);
        }
        self.mem.load(addr)
    }

    /// Non-transactional store to `addr` on behalf of `slot`.
    ///
    /// Takes momentary exclusive ownership of the line (dooming any
    /// transactional writer, waiting out committers), dooms every tracked
    /// HTM reader, performs the store and releases. Both happen inside the
    /// claim, which is what makes the store atomic against transactions:
    /// a reader that loaded the old value is doomed before the store
    /// exists, so it cannot commit a result computed from that value, and
    /// a reader whose bit appears after the scan finds the claim in
    /// [`HtmRuntime::resolve_writer`] and waits for the new value. (Scan
    /// after release, and a transaction that read the old value can claim
    /// the line and commit in between: a lost update.)
    pub(crate) fn write_nt_as(&self, slot: usize, addr: Addr, val: u64, cause: AbortCause) {
        sched::step();
        let line = self.granule_of(addr);
        self.acquire_nt_claim(line, slot, cause);
        self.doom_readers(line, slot, cause);
        // The store's latency: a scheduling point inside the claim.
        sched::step();
        self.mem.store(addr, val);
        self.release_nt_claim(line, slot);
    }

    /// Non-transactional compare-exchange on behalf of `slot`.
    ///
    /// A successful exchange behaves like a store (dooms writers and,
    /// before storing, readers — see [`HtmRuntime::write_nt_as`]); a failed
    /// one behaves like a load (it still dooms the transactional writer,
    /// since acquiring coherence ownership is part of the attempt, but
    /// leaves readers alone — a failed `stcx.` performs no store). The
    /// claim keeps the word unchanged between the compare and the store.
    pub(crate) fn cas_nt_as(
        &self,
        slot: usize,
        addr: Addr,
        cur: u64,
        new: u64,
        cause: AbortCause,
    ) -> Result<u64, u64> {
        sched::step();
        let line = self.granule_of(addr);
        self.acquire_nt_claim(line, slot, cause);
        let old = self.mem.load(addr);
        let res = if old == cur {
            self.doom_readers(line, slot, cause);
            sched::step();
            self.mem.store(addr, new);
            Ok(old)
        } else {
            Err(old)
        };
        self.release_nt_claim(line, slot);
        res
    }

    // ------------------------------------------------------------------
    // Test / debugging probes
    // ------------------------------------------------------------------

    /// Returns the speculative transactional writer of `line`, if any
    /// (probe for tests).
    #[doc(hidden)]
    pub fn probe_line_writer(&self, line: usize) -> Option<(usize, u64)> {
        match unpack_writer(self.line(line).writer.load(Ordering::Acquire)) {
            Claim::Tx(slot, seq) => Some((slot, seq)),
            _ => None,
        }
    }

    /// Returns `(seq, phase)` of a slot (probe for tests). Phases:
    /// 0 idle, 1 active, 2 committing, 3 doomed.
    #[doc(hidden)]
    pub fn probe_slot(&self, slot: usize) -> (u64, u64) {
        let (seq, phase, _, _) = unpack_state(self.slot_state(slot).load(Ordering::Acquire));
        (seq, phase)
    }

    /// Sum of all claim-filter counters (probe for tests): zero exactly
    /// when no transactional claim is in flight anywhere.
    #[doc(hidden)]
    pub fn probe_claim_filter_sum(&self) -> u64 {
        self.claim_filter
            .iter()
            .map(|c| u64::from(c.load(Ordering::SeqCst)))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_packing_roundtrip() {
        for seq in [0u64, 1, 12345, SEQ_MASK] {
            for phase in [PHASE_IDLE, PHASE_ACTIVE, PHASE_COMMITTING, PHASE_DOOMED] {
                for (tag, code) in [(0u8, 0u8), (3, 0), (5, 255)] {
                    let st = pack_state(seq, phase, tag, code);
                    assert_eq!(unpack_state(st), (seq, phase, tag, code));
                }
            }
        }
    }

    #[test]
    fn writer_packing_roundtrip() {
        assert_eq!(unpack_writer(0), Claim::Free);
        for slot in [0usize, 1, 63, 64, 127] {
            for seq in [0u64, 7, SEQ_MASK] {
                let w = pack_writer(slot, seq);
                assert_eq!(unpack_writer(w), Claim::Tx(slot, seq));
                assert_ne!(w, 0, "a claim never encodes to the free value");
            }
            let nt = pack_nt_claim(slot);
            assert_eq!(unpack_writer(nt), Claim::Nt(slot));
            assert_ne!(nt, 0);
        }
    }

    #[test]
    fn doom_respects_sequence() {
        let mem = Arc::new(SharedMem::new_lines(4));
        let rt = HtmRuntime::new(mem, HtmConfig::default());
        let seq = rt.slot_begin(0);
        // Dooming a stale sequence does nothing.
        assert_eq!(
            rt.doom(0, seq + 1, AbortCause::ConflictTx),
            DoomOutcome::Gone
        );
        assert_eq!(rt.slot_doomed(0, seq), None);
        // Dooming the live sequence works and is idempotent.
        assert_eq!(rt.doom(0, seq, AbortCause::ConflictTx), DoomOutcome::Doomed);
        assert_eq!(
            rt.doom(0, seq, AbortCause::ConflictNonTx),
            DoomOutcome::Doomed
        );
        assert_eq!(rt.slot_doomed(0, seq), Some(AbortCause::ConflictTx));
    }

    #[test]
    fn commit_point_race_is_atomic() {
        let mem = Arc::new(SharedMem::new_lines(4));
        let rt = HtmRuntime::new(mem, HtmConfig::default());
        let seq = rt.slot_begin(0);
        assert!(rt.slot_try_commit(0, seq).is_ok());
        // After the commit point, dooming fails with `Committing`.
        assert_eq!(
            rt.doom(0, seq, AbortCause::ConflictNonTx),
            DoomOutcome::Committing
        );
        rt.slot_finish(0, seq);
        assert_eq!(rt.doom(0, seq, AbortCause::ConflictTx), DoomOutcome::Gone);
    }

    #[test]
    fn doomed_transaction_cannot_commit() {
        let mem = Arc::new(SharedMem::new_lines(4));
        let rt = HtmRuntime::new(mem, HtmConfig::default());
        let seq = rt.slot_begin(0);
        assert_eq!(rt.doom(0, seq, AbortCause::Capacity), DoomOutcome::Doomed);
        assert_eq!(rt.slot_try_commit(0, seq), Err(AbortCause::Capacity));
    }

    #[test]
    fn self_doom_loses_to_earlier_conflictor() {
        let mem = Arc::new(SharedMem::new_lines(4));
        let rt = HtmRuntime::new(mem, HtmConfig::default());
        let seq = rt.slot_begin(0);
        assert_eq!(
            rt.doom(0, seq, AbortCause::ConflictNonTx),
            DoomOutcome::Doomed
        );
        // Our own capacity doom arrives late: the conflictor's cause wins.
        assert_eq!(
            rt.slot_self_doom(0, seq, AbortCause::Capacity),
            AbortCause::ConflictNonTx
        );
    }

    #[test]
    fn claim_and_release() {
        let mem = Arc::new(SharedMem::new_lines(4));
        let rt = HtmRuntime::new(mem, HtmConfig::default());
        let seq = rt.slot_begin(0);
        rt.claim_line(2, 0, seq, AbortCause::ConflictTx);
        assert_eq!(rt.probe_line_writer(2), Some((0, seq)));
        rt.release_line(2, 0, seq);
        assert_eq!(rt.probe_line_writer(2), None);
        // Releasing again is harmless.
        rt.release_line(2, 0, seq);
    }

    #[test]
    fn claim_steals_from_doomed_writer() {
        let mem = Arc::new(SharedMem::new_lines(4));
        let rt = HtmRuntime::new(mem, HtmConfig::default());
        let seq_a = rt.slot_begin(0);
        let seq_b = rt.slot_begin(1);
        rt.claim_line(1, 0, seq_a, AbortCause::ConflictTx);
        // Slot 1 claims the same line: requester wins, slot 0 is doomed.
        rt.claim_line(1, 1, seq_b, AbortCause::ConflictTx);
        assert_eq!(rt.probe_line_writer(1), Some((1, seq_b)));
        assert_eq!(rt.slot_doomed(0, seq_a), Some(AbortCause::ConflictTx));
    }

    #[test]
    fn reader_bits_set_and_cleared() {
        let mem = Arc::new(SharedMem::new_lines(4));
        let rt = HtmRuntime::new(mem, HtmConfig::default());
        rt.add_reader(0, 3);
        rt.add_reader(0, 70);
        let _ = rt.slot_begin(3);
        let _ = rt.slot_begin(70);
        // A claim by slot 5 dooms both readers.
        let seq5 = rt.slot_begin(5);
        rt.claim_line(0, 5, seq5, AbortCause::ConflictTx);
        assert_eq!(rt.probe_slot(3).1, PHASE_DOOMED);
        assert_eq!(rt.probe_slot(70).1, PHASE_DOOMED);
        rt.remove_reader(0, 3);
        rt.remove_reader(0, 70);
    }

    #[test]
    fn nt_write_dooms_writer_and_readers() {
        let mem = Arc::new(SharedMem::new_lines(4));
        let rt = HtmRuntime::new(Arc::clone(&mem), HtmConfig::default());
        let seq_w = rt.slot_begin(0);
        rt.claim_line(0, 0, seq_w, AbortCause::ConflictTx);
        rt.add_reader(0, 2);
        let _ = rt.slot_begin(2);
        rt.write_nt_as(9, Addr(0), 42, AbortCause::ConflictNonTx);
        assert_eq!(mem.load(Addr(0)), 42);
        assert_eq!(rt.slot_doomed(0, seq_w), Some(AbortCause::ConflictNonTx));
        assert_eq!(rt.probe_slot(2).1, PHASE_DOOMED);
    }

    #[test]
    fn nt_read_dooms_writer_but_not_readers() {
        let mem = Arc::new(SharedMem::new_lines(4));
        let rt = HtmRuntime::new(Arc::clone(&mem), HtmConfig::default());
        mem.store(Addr(0), 7);
        let seq_w = rt.slot_begin(0);
        rt.claim_line(0, 0, seq_w, AbortCause::ConflictTx);
        rt.add_reader(0, 2);
        let seq_r = rt.slot_begin(2);
        assert_eq!(rt.read_nt_as(9, Addr(0), AbortCause::ConflictNonTx), 7);
        assert_eq!(rt.slot_doomed(0, seq_w), Some(AbortCause::ConflictNonTx));
        assert_eq!(
            rt.slot_doomed(2, seq_r),
            None,
            "readers untouched by a load"
        );
    }

    #[test]
    fn nt_accesses_skip_own_slot() {
        let mem = Arc::new(SharedMem::new_lines(4));
        let rt = HtmRuntime::new(Arc::clone(&mem), HtmConfig::default());
        let seq = rt.slot_begin(0);
        rt.claim_line(0, 0, seq, AbortCause::ConflictTx);
        // A suspended transaction's own non-transactional load must not
        // doom itself.
        let _ = rt.read_nt_as(0, Addr(1), AbortCause::ConflictNonTx);
        assert_eq!(rt.slot_doomed(0, seq), None);
    }

    #[test]
    fn claim_filter_counts_claims_and_transfers_on_steal() {
        let mem = Arc::new(SharedMem::new_lines(4));
        let rt = HtmRuntime::new(mem, HtmConfig::default());
        assert_eq!(rt.probe_claim_filter_sum(), 0);
        let seq_a = rt.slot_begin(0);
        rt.claim_line(1, 0, seq_a, AbortCause::ConflictTx);
        assert_eq!(rt.probe_claim_filter_sum(), 1);
        // A requester-wins steal inherits the victim's count: still 1.
        let seq_b = rt.slot_begin(1);
        rt.claim_line(1, 1, seq_b, AbortCause::ConflictTx);
        assert_eq!(rt.probe_claim_filter_sum(), 1);
        // The victim's release CAS fails and must not decrement.
        rt.release_line(1, 0, seq_a);
        assert_eq!(rt.probe_claim_filter_sum(), 1);
        // The stealer's release drains the filter back to zero.
        rt.release_line(1, 1, seq_b);
        assert_eq!(rt.probe_claim_filter_sum(), 0);
        // Double release stays balanced.
        rt.release_line(1, 1, seq_b);
        assert_eq!(rt.probe_claim_filter_sum(), 0);
    }

    #[test]
    fn claim_filter_drains_when_nt_store_steals() {
        let mem = Arc::new(SharedMem::new_lines(4));
        let rt = HtmRuntime::new(Arc::clone(&mem), HtmConfig::default());
        let seq = rt.slot_begin(0);
        rt.claim_line(0, 0, seq, AbortCause::ConflictTx);
        assert_eq!(rt.probe_claim_filter_sum(), 1);
        // The NT store dooms the writer and steals its claim (a Tx→NT
        // transition); the victim's count must retire with the steal.
        rt.write_nt_as(9, Addr(0), 42, AbortCause::ConflictNonTx);
        assert_eq!(rt.probe_claim_filter_sum(), 0);
        rt.release_line(0, 0, seq);
        assert_eq!(rt.probe_claim_filter_sum(), 0);
    }

    #[test]
    fn epoch_read_still_dooms_a_claimed_writer() {
        let mem = Arc::new(SharedMem::new_lines(4));
        let rt = HtmRuntime::new(Arc::clone(&mem), HtmConfig::default());
        mem.store(Addr(0), 7);
        let seq_w = rt.slot_begin(0);
        rt.claim_line(0, 0, seq_w, AbortCause::ConflictTx);
        // The filter counter is non-zero, so the epoch read must take the
        // full resolve path and doom the speculative writer.
        assert_eq!(rt.read_epoch_as(9, Addr(0), AbortCause::ConflictNonTx), 7);
        assert_eq!(rt.slot_doomed(0, seq_w), Some(AbortCause::ConflictNonTx));
    }

    #[test]
    fn epoch_read_of_unclaimed_line_dooms_nobody() {
        let mem = Arc::new(SharedMem::new_lines(4));
        let rt = HtmRuntime::new(Arc::clone(&mem), HtmConfig::default());
        mem.store(Addr(8), 5);
        let seq = rt.slot_begin(0);
        rt.claim_line(0, 0, seq, AbortCause::ConflictTx);
        // Addr(8) lives in line 1: unclaimed, and hashing to a different
        // filter slot than line 0, so the read skips the metadata and the
        // claimed writer survives.
        assert_eq!(rt.read_epoch_as(9, Addr(8), AbortCause::ConflictNonTx), 5);
        assert_eq!(rt.slot_doomed(0, seq), None);
    }

    #[test]
    fn cas_nt_success_dooms_failure_does_not_doom_readers() {
        let mem = Arc::new(SharedMem::new_lines(4));
        let rt = HtmRuntime::new(Arc::clone(&mem), HtmConfig::default());
        rt.add_reader(0, 2);
        let seq_r = rt.slot_begin(2);
        // Failed CAS: acts as a load, readers survive.
        assert_eq!(
            rt.cas_nt_as(9, Addr(0), 5, 6, AbortCause::ConflictNonTx),
            Err(0)
        );
        assert_eq!(rt.slot_doomed(2, seq_r), None);
        // Successful CAS: acts as a store, readers doomed.
        assert_eq!(
            rt.cas_nt_as(9, Addr(0), 0, 6, AbortCause::ConflictNonTx),
            Ok(0)
        );
        assert_eq!(rt.slot_doomed(2, seq_r), Some(AbortCause::ConflictNonTx));
    }
}
