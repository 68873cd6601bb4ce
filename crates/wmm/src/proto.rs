//! Protocol litmus suites — one or more per documented dichotomy group
//! in `docs/orderings.toml`.
//!
//! Each suite abstracts one documented two-sided ordering argument into
//! a litmus shape whose *sites* are named exactly as the manifest names
//! them (file + symbol + strength), so:
//!
//! - xlint's A6 can cross-check that every dichotomy group is covered
//!   and every suite site resolves to a manifest entry of matching
//!   strength;
//! - `xlint mutate` (and `cargo run -p wmm --bin litmus -- mutate`)
//!   can weaken each site one notch and demand the suite kill the
//!   mutant with a reproducing seed.
//!
//! Ops at *documented-elsewhere* strengths (e.g. the writer's lock CAS
//! inside an epoch suite, which the manifest documents under its own
//! group) are modeled at fixed `SeqCst` and are not mutation targets
//! here — each site is attacked by the suite of its own group.

use crate::dsl::{cas, fetch_add, fetch_or, ld, st, Litmus, Outcome, SiteSpec, Suite};
use crate::model::MemOrder::{self, Relaxed, SeqCst};
use crate::model::OpKind;

/// Groups in `docs/orderings.toml` that document a two-sided ordering
/// dichotomy and therefore must be covered by a litmus suite (lint A6).
/// The remaining groups are single-sided (telemetry, test probes,
/// mutex-protected state) and carry no cross-thread ordering argument
/// to attack.
pub const DICHOTOMY_GROUPS: &[&str] = &[
    "R1 commit-point quartet",
    "Epoch clock and quiescence",
    "Summary tree and grace sharing",
    "Claim filter and release",
    "Native backend publication",
    "Reader indicators",
];

const SEEDS: u64 = 400;

// --- R1 commit-point quartet -------------------------------------------

// Reader: publish the reader bit, then resolve the writer word.
// Writer: claim the writer word, then doom-scan the reader bitmap.
// Forbidden: both sides miss each other — an elided reader keeps
// running against a line a writer believes it owns exclusively.
fn r1_shape(name: &str, o: &[MemOrder]) -> Litmus {
    const BITMAP: usize = 0;
    const WWORD: usize = 1;
    Litmus::new(name, &["readers_bitmap", "writer_word"])
        .thread(vec![fetch_or(BITMAP, 1, 0, o[0]), ld(WWORD, 1, o[1])])
        .thread(vec![cas(WWORD, 0, 1, 0, o[2]), ld(BITMAP, 1, o[3])])
}

fn r1_build(o: &[MemOrder]) -> Litmus {
    r1_shape("r1_commit_quartet", o)
}

// The same race with a non-transactional store as the writer: its
// claim, then the doom scan, both before the store. A transactional
// reader that sees the claim waits for the store; one whose bit the
// scan sees is doomed. If both miss, the reader loads the old value
// and commits a result computed from it after the store (a lost
// update when it writes the word back).
fn r1_nt_build(o: &[MemOrder]) -> Litmus {
    r1_shape("r1_nt_store", o)
}

fn r1_forbidden(o: &Outcome) -> bool {
    o.r(0, 1) == 0 && o.r(1, 1) == 0
}

fn r1_sane(o: &Outcome) -> bool {
    o.r(0, 1) == 0 && o.r(1, 1) == 1
}

// --- Epoch clock and quiescence ----------------------------------------

// The paper's MEM_FENCE in READ_LOCK: odd clock store, then lock-word
// check, against a writer's lock CAS + clock scan (both fixed SeqCst —
// the CAS is documented under the lock's own group, and the scan's
// Acquire is justified by the CAS's x86 full fence, which the scan
// inherits here by staying at the fixed strong strength).
fn epoch_enter_build(o: &[MemOrder]) -> Litmus {
    const CLOCK: usize = 0;
    const WLOCK: usize = 1;
    Litmus::new("epoch_enter_dekker", &["clock", "wlock"])
        .thread(vec![st(CLOCK, 1, o[0]), ld(WLOCK, 0, o[1])])
        .thread(vec![cas(WLOCK, 0, 1, 0, SeqCst), ld(CLOCK, 1, SeqCst)])
}

fn epoch_enter_forbidden(o: &Outcome) -> bool {
    o.r(0, 0) == 0 && o.r(1, 1) == 0
}

fn epoch_enter_sane(o: &Outcome) -> bool {
    o.r(0, 0) == 0 && o.r(1, 1) == 1
}

// Exit/grace message passing: everything a reader's critical section
// read must be visible to a barrier that observes its even clock.
fn epoch_exit_build(o: &[MemOrder]) -> Litmus {
    const OBJ: usize = 0;
    const CLOCK: usize = 1;
    Litmus::new("epoch_exit_grace", &["obj", "clock"])
        .thread(vec![st(OBJ, 1, Relaxed), st(CLOCK, 2, o[0])])
        .thread(vec![ld(CLOCK, 0, o[1]), ld(OBJ, 1, Relaxed)])
}

fn epoch_exit_forbidden(o: &Outcome) -> bool {
    o.r(1, 0) == 2 && o.r(1, 1) == 0
}

fn epoch_exit_sane(o: &Outcome) -> bool {
    o.r(1, 0) == 2 && o.r(1, 1) == 1
}

// --- Summary tree and grace sharing ------------------------------------

// Enter-vs-scan: the reader marks its summary leaf before publishing
// its odd clock; a barrier publishes its commit point before scanning
// the leaves. Both cross-checks are fixed SeqCst stand-ins for sites
// documented in other groups.
fn summary_build(o: &[MemOrder]) -> Litmus {
    const LEAF: usize = 0;
    const WWORD: usize = 1;
    Litmus::new("summary_enter_vs_scan", &["leaf", "writer_word"])
        .thread(vec![fetch_or(LEAF, 1, 0, o[0]), ld(WWORD, 1, SeqCst)])
        .thread(vec![cas(WWORD, 0, 1, 0, SeqCst), ld(LEAF, 1, o[1])])
}

fn summary_forbidden(o: &Outcome) -> bool {
    o.r(0, 1) == 0 && o.r(1, 1) == 0
}

fn summary_sane(o: &Outcome) -> bool {
    o.r(0, 1) == 0 && o.r(1, 1) == 1
}

// --- Claim filter and release ------------------------------------------

// Increment-side accounting: an epoch reader publishes its reader bit
// (fixed SeqCst — add_reader's fetch_or, documented in the R1 group),
// then loads the claim-filter sum; seeing 0 it skips the writer-word
// probe entirely. A claiming writer increments the filter (the SeqCst
// fetch_add inside claim_line) before its doom scan. If the reader's
// load and the writer's increment don't cross in the total order, the
// reader skips the probe for a claim whose doom scan missed its bit.
// (The decrement side of the accounting is plain message passing —
// release_line's Release CAS plus acquire-or-stronger reloads — which
// the MP self-test shape already pins; it is not a Dekker dichotomy.)
fn claim_filter_build(o: &[MemOrder]) -> Litmus {
    const RBIT: usize = 0;
    const FILTER: usize = 1;
    Litmus::new("claim_filter_accounting", &["reader_bit", "filter"])
        .thread(vec![fetch_or(RBIT, 1, 0, SeqCst), ld(FILTER, 1, o[0])])
        .thread(vec![fetch_add(FILTER, 1, 0, o[1]), ld(RBIT, 1, SeqCst)])
}

fn claim_filter_forbidden(o: &Outcome) -> bool {
    o.r(0, 1) == 0 && o.r(1, 1) == 0
}

fn claim_filter_sane(o: &Outcome) -> bool {
    o.r(0, 1) == 0 && o.r(1, 1) == 1
}

// --- Native backend publication ----------------------------------------

// DESIGN.md §9 flip/version-load Dekker: the reader publishes its epoch
// clock then loads the version word; the writer flips the version word
// then scans the clocks. Forbidden: the reader reads the old version
// while the writer believes nobody can still hold it, and its next
// cycle overwrites the words and frees the nodes that version reads.
fn native_build(o: &[MemOrder]) -> Litmus {
    const CLOCK: usize = 0;
    const VERSION: usize = 1;
    Litmus::new("native_flip_dekker", &["clock", "version_word"])
        .thread(vec![st(CLOCK, 1, SeqCst), ld(VERSION, 0, o[1])])
        .thread(vec![st(VERSION, 1, o[0]), ld(CLOCK, 0, SeqCst)])
}

fn native_forbidden(o: &Outcome) -> bool {
    o.r(0, 0) == 0 && o.r(1, 0) == 0
}

fn native_sane(o: &Outcome) -> bool {
    o.r(0, 0) == 0 && o.r(1, 0) == 1
}

// Two-version child words, message passing: the writer writes a node's
// copy whole (`born` stands for all of it), then stores the child word
// that names it; a reader loads the word, then reads the copy's `born`
// to choose between the word's halves. Forbidden: the reader sees the
// new word but not the copy — it decides by a stale `born`, or enters
// a half-written node. The same shape twice: a routing node's child
// word, and the root word.
fn child_word_shape(name: &str, o: &[MemOrder]) -> Litmus {
    const BORN: usize = 0;
    const WORD: usize = 1;
    Litmus::new(name, &["born", "child_word"])
        .thread(vec![st(BORN, 1, Relaxed), st(WORD, 1, o[0])])
        .thread(vec![ld(WORD, 0, o[1]), ld(BORN, 1, Relaxed)])
}

fn child_word_build(o: &[MemOrder]) -> Litmus {
    child_word_shape("native_child_word", o)
}

fn root_word_build(o: &[MemOrder]) -> Litmus {
    child_word_shape("native_root_word", o)
}

fn child_word_forbidden(o: &Outcome) -> bool {
    o.r(1, 0) == 1 && o.r(1, 1) == 0
}

fn child_word_sane(o: &Outcome) -> bool {
    o.r(1, 0) == 0 && o.r(1, 1) == 1
}

// --- Reader indicators --------------------------------------------------

// BRAVO bias-word revocation: a certifying reader publishes its slot
// (CAS) then re-checks the bias word; a serialized writer revokes the
// bias (fetch_and, modeled as a 1→0 CAS) then scans the slots.
// Forbidden: the reader certifies against a bias the writer already
// revoked while the writer's scan sees no reader. Starts biased.
fn rind_build(o: &[MemOrder]) -> Litmus {
    const SLOT: usize = 0;
    const BIAS: usize = 1;
    Litmus::new("rind_bias_revocation", &["slot", "bias"])
        .init(BIAS, 1)
        .thread(vec![cas(SLOT, 0, 1, 0, o[0]), ld(BIAS, 1, o[1])])
        .thread(vec![cas(BIAS, 1, 0, 0, o[2]), ld(SLOT, 1, o[3])])
}

fn rind_forbidden(o: &Outcome) -> bool {
    o.r(0, 1) == 1 && o.r(1, 1) == 0
}

fn rind_sane(o: &Outcome) -> bool {
    o.r(0, 1) == 1 && o.r(1, 1) == 1
}

// ------------------------------------------------------------------------

/// All protocol suites. Ordering mirrors `DICHOTOMY_GROUPS`.
pub static SUITES: &[Suite] = &[
    Suite {
        name: "r1_commit_quartet",
        group: "R1 commit-point quartet",
        about: "add_reader's bitmap fetch_or + resolve_writer's writer-word load race \
                claim_line's CAS + doom_readers' bitmap scan; if both sides miss, an \
                elided reader survives a claim it should have been doomed by",
        sites: &[
            SiteSpec {
                file: "crates/htm/src/runtime.rs",
                symbol: "HtmRuntime::add_reader",
                label: "reader bitmap fetch_or",
                strength: "SeqCst",
                kind: OpKind::Rmw,
            },
            SiteSpec {
                file: "crates/htm/src/runtime.rs",
                symbol: "HtmRuntime::resolve_writer",
                label: "reader writer-word load",
                strength: "SeqCst",
                kind: OpKind::Load,
            },
            SiteSpec {
                file: "crates/htm/src/runtime.rs",
                symbol: "HtmRuntime::claim_line",
                label: "writer claim CAS",
                strength: "SeqCst",
                kind: OpKind::Rmw,
            },
            SiteSpec {
                file: "crates/htm/src/runtime.rs",
                symbol: "HtmRuntime::doom_readers",
                label: "writer bitmap scan load",
                strength: "SeqCst",
                kind: OpKind::Load,
            },
        ],
        seeds: SEEDS,
        build: r1_build,
        forbidden: "reader misses the claim AND the doom scan misses the reader bit",
        is_forbidden: r1_forbidden,
        sane: "reader races ahead of the claim but the doom scan catches its bit",
        is_sane: r1_sane,
    },
    Suite {
        name: "r1_nt_store",
        group: "R1 commit-point quartet",
        about: "a transactional load's bitmap fetch_or + writer-word load race a \
                non-transactional store's claim CAS + the doom scan it runs inside \
                the claim, before storing; if both sides miss, a transaction commits \
                on the value the store replaced",
        sites: &[
            SiteSpec {
                file: "crates/htm/src/runtime.rs",
                symbol: "HtmRuntime::add_reader",
                label: "reader bitmap fetch_or",
                strength: "SeqCst",
                kind: OpKind::Rmw,
            },
            SiteSpec {
                file: "crates/htm/src/runtime.rs",
                symbol: "HtmRuntime::resolve_writer",
                label: "reader writer-word load",
                strength: "SeqCst",
                kind: OpKind::Load,
            },
            SiteSpec {
                file: "crates/htm/src/runtime.rs",
                symbol: "HtmRuntime::acquire_nt_claim",
                label: "NT store claim CAS",
                strength: "SeqCst",
                kind: OpKind::Rmw,
            },
            SiteSpec {
                file: "crates/htm/src/runtime.rs",
                symbol: "HtmRuntime::doom_readers",
                label: "NT store bitmap scan load",
                strength: "SeqCst",
                kind: OpKind::Load,
            },
        ],
        seeds: SEEDS,
        build: r1_nt_build,
        forbidden: "reader misses the NT claim AND the doom scan misses the reader bit",
        is_forbidden: r1_forbidden,
        sane: "reader races ahead of the NT claim but the doom scan catches its bit",
        is_sane: r1_sane,
    },
    Suite {
        name: "epoch_enter_dekker",
        group: "Epoch clock and quiescence",
        about: "the paper's MEM_FENCE in READ_LOCK: enter's odd clock store and \
                lock-word check against a writer's lock CAS + clock scan (fixed \
                SeqCst stand-ins documented under their own groups)",
        sites: &[
            SiteSpec {
                file: "crates/epoch/src/lib.rs",
                symbol: "EpochSet::enter",
                label: "odd clock store",
                strength: "SeqCst",
                kind: OpKind::Store,
            },
            SiteSpec {
                file: "crates/epoch/src/lib.rs",
                symbol: "EpochSet::enter",
                label: "lock-word check load",
                strength: "SeqCst",
                kind: OpKind::Load,
            },
        ],
        seeds: SEEDS,
        build: epoch_enter_build,
        forbidden: "reader enters seeing no writer AND the barrier's scan misses the odd clock",
        is_forbidden: epoch_enter_forbidden,
        sane: "reader enters seeing no writer but the scan waits on its odd clock",
        is_sane: epoch_enter_sane,
    },
    Suite {
        name: "epoch_exit_grace",
        group: "Epoch clock and quiescence",
        about: "exit's even-clock Release store vs synchronize_from's Acquire clock \
                load: a barrier observing the even clock must also observe every \
                read the critical section made",
        sites: &[
            SiteSpec {
                file: "crates/epoch/src/lib.rs",
                symbol: "EpochSet::exit",
                label: "even clock store",
                strength: "Release",
                kind: OpKind::Store,
            },
            SiteSpec {
                file: "crates/epoch/src/lib.rs",
                symbol: "EpochSet::synchronize_from",
                label: "quiescence clock load",
                strength: "Acquire",
                kind: OpKind::Load,
            },
        ],
        seeds: SEEDS,
        build: epoch_exit_build,
        forbidden: "barrier sees the even clock but not the section's reads",
        is_forbidden: epoch_exit_forbidden,
        sane: "barrier sees the even clock and everything before it",
        is_sane: epoch_exit_sane,
    },
    Suite {
        name: "summary_enter_vs_scan",
        group: "Summary tree and grace sharing",
        about: "mark_enter's leaf fetch_or vs a barrier's scan: a barrier that \
                misses the leaf bit skips the reader's clock entirely, so the bit \
                and the commit point must cross in the single total order",
        sites: &[
            SiteSpec {
                file: "crates/epoch/src/scalable.rs",
                symbol: "Summary::mark_enter",
                label: "leaf bit fetch_or",
                strength: "SeqCst",
                kind: OpKind::Rmw,
            },
            SiteSpec {
                file: "crates/epoch/src/scalable.rs",
                symbol: "Summary::scan",
                label: "barrier leaf scan load",
                strength: "SeqCst",
                kind: OpKind::Load,
            },
        ],
        seeds: SEEDS,
        build: summary_build,
        forbidden: "reader misses the commit point AND the scan misses its leaf bit",
        is_forbidden: summary_forbidden,
        sane: "reader races ahead of the commit point but the scan sees its leaf",
        is_sane: summary_sane,
    },
    Suite {
        name: "claim_filter_accounting",
        group: "Claim filter and release",
        about: "read_epoch_as's SeqCst filter-sum load lets a reader skip the \
                writer-word probe when it sees zero; it races the SeqCst filter \
                fetch_add inside claim_line (the increment lives in the R1 group — \
                the accounting dichotomy spans both) ahead of the doom scan",
        sites: &[
            SiteSpec {
                file: "crates/htm/src/runtime.rs",
                symbol: "HtmRuntime::read_epoch_as",
                label: "reader filter-sum load",
                strength: "SeqCst",
                kind: OpKind::Load,
            },
            SiteSpec {
                file: "crates/htm/src/runtime.rs",
                symbol: "HtmRuntime::claim_line",
                label: "writer filter increment fetch_add",
                strength: "SeqCst",
                kind: OpKind::Rmw,
            },
        ],
        seeds: SEEDS,
        build: claim_filter_build,
        forbidden: "reader skips the probe on a zero filter AND the doom scan misses its bit",
        is_forbidden: claim_filter_forbidden,
        sane: "reader skips the probe before the claim but the doom scan catches its bit",
        is_sane: claim_filter_sane,
    },
    Suite {
        name: "native_flip_dekker",
        group: "Native backend publication",
        about: "DESIGN.md \u{a7}9: LeafMap::publish's version-word flip races Tree::pick's \
                load against the reader's clock publication and the writer's \
                quiescence scan (fixed SeqCst, documented under the epoch groups)",
        sites: &[
            SiteSpec {
                file: "crates/workloads/src/leafmap.rs",
                symbol: "LeafMap::publish",
                label: "writer version-word flip store",
                strength: "SeqCst",
                kind: OpKind::Store,
            },
            SiteSpec {
                file: "crates/workloads/src/leafmap.rs",
                symbol: "Tree::pick",
                label: "reader version-word load",
                strength: "SeqCst",
                kind: OpKind::Load,
            },
        ],
        seeds: SEEDS,
        build: native_build,
        forbidden: "reader reads the retired version AND the writer's scan misses its clock",
        is_forbidden: native_forbidden,
        sane: "reader reads the retired version but the scan waits for it",
        is_sane: native_sane,
    },
    Suite {
        name: "native_child_word",
        group: "Native backend publication",
        about: "DESIGN.md \u{a7}9: relink's Release store of a child word after the copy it \
                names is written, against Inner::kid's Acquire load before the reader \
                reads the copy's born",
        sites: &[
            SiteSpec {
                file: "crates/workloads/src/leafmap.rs",
                symbol: "relink",
                label: "writer child-word store",
                strength: "Release",
                kind: OpKind::Store,
            },
            SiteSpec {
                file: "crates/workloads/src/leafmap.rs",
                symbol: "Inner::kid",
                label: "reader child-word load",
                strength: "Acquire",
                kind: OpKind::Load,
            },
        ],
        seeds: SEEDS,
        build: child_word_build,
        forbidden: "reader loads the new child word AND reads the copy's born unwritten",
        is_forbidden: child_word_forbidden,
        sane: "reader loads the old child word after the copy is written",
        is_sane: child_word_sane,
    },
    Suite {
        name: "native_root_word",
        group: "Native backend publication",
        about: "DESIGN.md \u{a7}9: set_root's Release store of the root word after the new \
                root is written, against Tree::pick's Acquire load before the reader \
                reads the root's born",
        sites: &[
            SiteSpec {
                file: "crates/workloads/src/leafmap.rs",
                symbol: "LeafMap::set_root",
                label: "writer root-word store",
                strength: "Release",
                kind: OpKind::Store,
            },
            SiteSpec {
                file: "crates/workloads/src/leafmap.rs",
                symbol: "Tree::pick",
                label: "reader root-word load",
                strength: "Acquire",
                kind: OpKind::Load,
            },
        ],
        seeds: SEEDS,
        build: root_word_build,
        forbidden: "reader loads the new root word AND reads the root's born unwritten",
        is_forbidden: child_word_forbidden,
        sane: "reader loads the old root word after the new root is written",
        is_sane: child_word_sane,
    },
    Suite {
        name: "rind_bias_revocation",
        group: "Reader indicators",
        about: "BRAVO bias word: publish's slot CAS + bias re-check vs \
                revoke_serialized's fetch_and + collect's slot scan; if both miss, \
                a certified reader runs under a bias the writer already revoked",
        sites: &[
            SiteSpec {
                file: "crates/rind/src/lib.rs",
                symbol: "BravoIndicator::publish",
                label: "reader slot CAS",
                strength: "SeqCst",
                kind: OpKind::Rmw,
            },
            SiteSpec {
                file: "crates/rind/src/lib.rs",
                symbol: "BravoIndicator::publish",
                label: "reader bias re-check load",
                strength: "SeqCst",
                kind: OpKind::Load,
            },
            SiteSpec {
                file: "crates/rind/src/lib.rs",
                symbol: "BravoIndicator::revoke_serialized",
                label: "writer bias revocation fetch_and",
                strength: "SeqCst",
                kind: OpKind::Rmw,
            },
            SiteSpec {
                file: "crates/rind/src/lib.rs",
                symbol: "BravoIndicator::collect",
                label: "writer slot scan load",
                strength: "SeqCst",
                kind: OpKind::Load,
            },
        ],
        seeds: SEEDS,
        build: rind_build,
        forbidden: "reader certifies under a revoked bias AND the scan sees no reader",
        is_forbidden: rind_forbidden,
        sane: "reader certifies in time and the scan waits on its slot",
        is_sane: rind_sane,
    },
];

/// Looks up a suite by name.
pub fn find(name: &str) -> Option<&'static Suite> {
    SUITES.iter().find(|s| s.name == name)
}

/// All suites validating `group`.
pub fn for_group(group: &str) -> Vec<&'static Suite> {
    SUITES.iter().filter(|s| s.group == group).collect()
}
