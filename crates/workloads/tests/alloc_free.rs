//! Every store's read path is allocation-free once warm: `get`,
//! `get_many` and `scan` touch the heap only to grow the caller's output
//! buffer (the `epoch/tests/alloc_free.rs` pattern, one level up — a read
//! section that allocated would hold a writer's barrier behind the
//! allocator's lock).
//!
//! A counting global allocator tallies this thread's allocations in a
//! const-initialised `thread_local!` `Cell` (no lazy initialisation, so
//! reading it from inside `alloc` cannot itself allocate), which also
//! keeps the libtest harness's own threads out of the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use workloads::backend::SimBackend;
use workloads::native::{NativeBackend, SglBackend};
use workloads::sharded::buckets_per_shard;
use workloads::{SchemeKind, StoreBackend};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
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
        System.alloc(layout)
    }

    // SAFETY: `ptr` came from `System` with this layout.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: the caller's contract is `System.realloc`'s.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
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
