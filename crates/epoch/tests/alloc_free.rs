//! Quiescence is allocation-free: the barriers the commit paths call
//! (the `_from` forms from `NativeSession::cycle` and every `rwle` write
//! path, `synchronize_in` their shorthand) must not touch the heap
//! beyond growing the caller's scratch buffer.
//!
//! A counting global allocator tallies this thread's allocations in a
//! const-initialised `thread_local!` `Cell` (no lazy initialisation, so
//! reading it from inside `alloc` cannot itself allocate), which also
//! keeps the libtest harness's own threads out of the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use epoch::EpochSet;

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

/// The reader slot the barriers find marked in the summary; this thread
/// drives it, so every barrier names it as `skip`.
const READER: usize = 70;

/// Allocations made on this thread by 1 000 calls of `barrier`, each with
/// [`READER`] inside a section, after one warm-up call.
fn allocs_over_warm_calls(mut barrier: impl FnMut(&EpochSet, &mut Vec<u64>)) -> u64 {
    let e = EpochSet::new(130);
    let mut snap = Vec::new();
    let mut cycle = || {
        e.enter(READER);
        barrier(&e, &mut snap);
        e.exit(READER);
    };
    cycle();
    let before = ALLOCS.with(Cell::get);
    for _ in 0..1_000 {
        cycle();
    }
    ALLOCS.with(Cell::get) - before
}

#[test]
fn synchronize_in_is_allocation_free_when_warm() {
    let n = allocs_over_warm_calls(|e, snap| {
        e.synchronize_in(Some(READER), snap);
    });
    assert_eq!(n, 0, "synchronize_in allocated");
}

#[test]
fn fair_barrier_is_allocation_free_when_warm() {
    let n = allocs_over_warm_calls(|e, snap| {
        e.synchronize_fair_from(Some(READER), 1, e.grace_snapshot(), snap);
    });
    assert_eq!(n, 0, "synchronize_fair_from allocated");
}
