//! Every store's read path is allocation-free once warm: `get`,
//! `get_many` and `scan` touch the heap only to grow the caller's output
//! buffer (the `epoch/tests/alloc_free.rs` pattern, one level up — a read
//! section that allocated would hold a writer's barrier behind the
//! allocator's lock). So is the native store's write path: a cycle's
//! path copies take the nodes an earlier cycle freed.
//!
//! A counting global allocator tallies this thread's allocations in a
//! const-initialised `thread_local!` `Cell` (no lazy initialisation, so
//! reading it from inside `alloc` cannot itself allocate), which also
//! keeps the libtest harness's own threads out of the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use workloads::backend::{MutOp, SimBackend};
use workloads::native::{NativeBackend, SglBackend};
use workloads::sharded::buckets_per_shard;
use workloads::{SchemeKind, StoreBackend};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Blocks and bytes this thread allocated and has not freed (a
    /// block another thread frees counts there, below zero).
    static LIVE: Cell<(i64, i64)> = const { Cell::new((0, 0)) };
}

/// Adds `blocks` and `bytes` to this thread's [`LIVE`] tally.
fn live(blocks: i64, bytes: i64) {
    LIVE.with(|l| {
        let (b, n) = l.get();
        l.set((b + blocks, n + bytes));
    });
}

struct Counting;

// SAFETY: every method forwards its arguments to `System` unchanged, so
// `System`'s guarantees are this allocator's; the tally is a plain
// thread-local `Cell` with no destructor, valid to touch from any
// allocation on a live thread.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller's contract is `System.alloc`'s.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        live(1, layout.size() as i64);
        System.alloc(layout)
    }

    // SAFETY: `ptr` came from `System` with this layout.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live(-1, -(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    // SAFETY: the caller's contract is `System.realloc`'s.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        live(0, new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const KEYS: u64 = 20_000;

/// Allocations this thread makes over 500 rounds of every read call,
/// after one warm-up round has grown the output buffers.
fn allocs_over_warm_reads(backend: &dyn StoreBackend) -> u64 {
    let mut sess = backend.session();
    // Longer than a read section (16) and than the server's run cap (32).
    let mut keys = [0u64; 40];
    let (mut found, mut pairs) = (Vec::new(), Vec::new());
    let mut round = |r: u64| {
        for (i, key) in keys.iter_mut().enumerate() {
            // Every other key is absent.
            *key = (r * 7919 + i as u64 * 613) % (2 * KEYS);
        }
        found.clear();
        sess.get_many(&keys, &mut found);
        assert_eq!(found.len(), keys.len());
        assert_eq!(sess.get(keys[0]), found[0]);
        pairs.clear();
        sess.scan(keys[1] % KEYS, 64, &mut pairs);
        assert!(!pairs.is_empty());
    };
    round(0);
    let before = ALLOCS.with(Cell::get);
    assert!(before > 0, "growing the buffers was not counted");
    for r in 1..=500 {
        round(r);
    }
    ALLOCS.with(Cell::get) - before
}

#[test]
fn native_reads_are_allocation_free_when_warm() {
    let backend = NativeBackend::create(16, 1, KEYS);
    assert_eq!(
        allocs_over_warm_reads(&backend),
        0,
        "a native read allocated"
    );
}

#[test]
fn sgl_reads_are_allocation_free_when_warm() {
    let backend = SglBackend::create(KEYS);
    assert_eq!(allocs_over_warm_reads(&backend), 0, "an SGL read allocated");
}

#[test]
fn sim_reads_are_allocation_free_when_warm() {
    let buckets = buckets_per_shard(KEYS, 16);
    let backend = SimBackend::create(SchemeKind::RwLeOpt, 16, buckets, KEYS, 0, 1, 1).unwrap();
    assert_eq!(allocs_over_warm_reads(&backend), 0, "a sim read allocated");
}

/// A warm native `apply_batch` allocates nothing: each cycle copies the
/// nodes its group's paths reach and retires the originals, and after
/// its grace period hands them back for the next cycle's copies, while
/// the session's scratch (groups, held writers, barrier snapshot) and
/// each map's descent path keep their capacity. The keys are the same
/// every round, so every round retires as many nodes per shard as the
/// warm-up round did.
#[test]
fn native_batches_are_allocation_free_when_warm() {
    let backend = NativeBackend::create(16, 1, KEYS);
    let mut sess = backend.session();
    let mut replies = Vec::new();
    let mut round = |r: u64| {
        let ops: Vec<MutOp> = (0..24u64)
            .flat_map(|i| {
                let key = i * 613 % KEYS;
                // An update, and a delete and re-insert of a second key.
                [
                    MutOp::Put { key, value: r },
                    MutOp::Del { key: key + 1 },
                    MutOp::Put {
                        key: key + 1,
                        value: r,
                    },
                ]
            })
            .collect();
        let before = ALLOCS.with(Cell::get);
        let out = sess.apply_batch(&ops, &mut replies);
        assert!(out.barriers + out.shared > 0);
        ALLOCS.with(Cell::get) - before
    };
    round(0);
    round(1);
    let allocs: u64 = (2..=500).map(&mut round).sum();
    assert_eq!(allocs, 0, "a warm native batch allocated");
}

/// A sized bulk build and its drop balance: every block the stores
/// allocate is freed once — the leaf block of each sized build whole,
/// the chunks past it one by one — with maps whose blocks span huge
/// pages and one that run-time writes grew past its block.
#[test]
fn a_build_and_its_drop_balance() {
    let scenario = || {
        drop(NativeBackend::create(4, 1, 600_000));
        drop(SglBackend::create(300_000));
        let backend = NativeBackend::create(1, 1, 3_000);
        let mut sess = backend.session();
        for key in 3_000..40_000 {
            sess.put(key, key).unwrap();
        }
        drop(sess);
        drop(backend);
    };
    // The first round also makes what this thread keeps for good.
    scenario();
    let before = LIVE.with(Cell::get);
    scenario();
    assert_eq!(LIVE.with(Cell::get), before, "(blocks, bytes) left live");
}
