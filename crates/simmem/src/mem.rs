//! The simulated memory storage.

use core::sync::atomic::{AtomicU64, Ordering};

use crate::addr::{Addr, WORDS_PER_LINE};

/// A transparent huge page: 2 MiB. A memory at least this large starts
/// on a 2 MiB boundary and is advised onto transparent huge pages.
/// Benchmark-scale memories span hundreds of megabytes that workloads
/// pointer-chase at random; with 4 KiB pages almost every simulated
/// access also pays a dTLB miss and page walk, which has nothing to do
/// with the memory system being modelled. Its pages come zeroed from
/// the kernel at their first touch, so a memory costs faults and
/// resident memory only for the 2 MiB regions it fills. Small
/// (test-scale) memories keep the allocator's natural alignment.
pub const HUGE_PAGE: usize = 2 * 1024 * 1024;

/// Owner of the word array: a manually allocated block so that the
/// words of a large store can start on a 2 MiB boundary inside it (a
/// `Box<[AtomicU64]>` cannot carry an alignment beyond the element's
/// own, and asking the allocator for 2 MiB alignment makes its zeroed
/// path write the whole block).
struct WordStore {
    /// The first word: 2 MiB-aligned when the store is at least
    /// [`HUGE_PAGE`].
    ptr: core::ptr::NonNull<AtomicU64>,
    len: usize,
    /// The block as the allocator returned it, with its layout.
    block: core::ptr::NonNull<u8>,
    layout: std::alloc::Layout,
}

// SAFETY: the store is an owned, immovable allocation of atomics; sharing
// references across threads is exactly as safe as for `[AtomicU64]`.
unsafe impl Send for WordStore {}
unsafe impl Sync for WordStore {}

impl WordStore {
    /// Allocates `len` (> 0) zeroed words, huge-page-backed when large.
    ///
    /// The words come from the allocator's zeroed path at word
    /// alignment, so nothing writes them here. A store of at least
    /// [`HUGE_PAGE`] asks for one huge page more and starts at the
    /// first 2 MiB boundary inside the block: a block that large is
    /// fresh mapped memory, which `calloc` hands out unwritten, and the
    /// kernel zeroes each page at its first touch.
    fn new_zeroed(len: usize) -> WordStore {
        let bytes = len
            .checked_mul(core::mem::size_of::<AtomicU64>())
            .expect("word array too large");
        let slack = if bytes >= HUGE_PAGE { HUGE_PAGE } else { 0 };
        let layout = bytes
            .checked_add(slack)
            .and_then(|size| {
                std::alloc::Layout::from_size_align(size, core::mem::align_of::<AtomicU64>()).ok()
            })
            .expect("word array too large");
        // SAFETY: `layout` has non-zero size (callers guarantee len > 0).
        let raw = unsafe { std::alloc::alloc_zeroed(layout) };
        let Some(block) = core::ptr::NonNull::new(raw) else {
            std::alloc::handle_alloc_error(layout);
        };
        let start = if slack > 0 {
            raw.addr().next_multiple_of(HUGE_PAGE) - raw.addr()
        } else {
            0
        };
        // SAFETY: `start` < `slack`, so the `bytes` from it lie inside
        // the block.
        let first = unsafe { raw.add(start) };
        if slack > 0 {
            // Advise *before* first touch so the first fault in each
            // 2 MiB region can be served a huge page directly. Best
            // effort: if the kernel refuses, the store stays on 4 KiB
            // pages.
            madvise_hugepage(first, bytes);
        }
        WordStore {
            ptr: core::ptr::NonNull::new(first.cast::<AtomicU64>()).expect("inside the block"),
            len,
            block,
            layout,
        }
    }

    #[inline]
    fn words(&self) -> &[AtomicU64] {
        // SAFETY: `ptr` is word-aligned (a word-aligned block plus a
        // multiple of 2 MiB) and owns `len` words for `self`'s lifetime,
        // zeroed at allocation; the all-zero bit pattern is a valid
        // `AtomicU64` (same in-memory representation as `u64`).
        unsafe { core::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl Drop for WordStore {
    fn drop(&mut self) {
        // SAFETY: `block` was allocated in `new_zeroed` with exactly this
        // layout; `AtomicU64` needs no drop.
        unsafe { std::alloc::dealloc(self.block.as_ptr(), self.layout) };
    }
}

/// `len` zero words from the allocator's zeroed path (`calloc`), for a
/// table that must start all-zero and of which most may never be
/// touched: a large one arrives as fresh pages that the kernel zeroes at
/// their first touch, so building it writes nothing and an untouched
/// page costs neither a fault nor resident memory. (Filling a `Vec`
/// instead writes, and faults in, every page up front.)
pub fn zeroed_words(len: usize) -> Box<[AtomicU64]> {
    let words = Box::<[AtomicU64]>::new_zeroed_slice(len);
    // SAFETY: the all-zero bit pattern is a valid `AtomicU64` (same
    // in-memory representation as `u64`).
    unsafe { words.assume_init() }
}

/// Advises the kernel to back `[addr, addr + len)` with transparent huge
/// pages (`madvise(MADV_HUGEPAGE)`). Best effort; errors are ignored.
/// Only whole 2 MiB-aligned pages inside the range can be huge, and the
/// kernel backs one whole page at its first touch, so advise only what
/// will be filled. The one `madvise` in the tree: the simulated memory
/// and the native store's bulk builds (`workloads::leafmap`) share it.
/// Advice never changes what the range holds, so any address is safe to
/// pass; one the process does not map makes the call fail, ignored.
/// A no-op off Linux/x86-64.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
pub fn madvise_hugepage(addr: *mut u8, len: usize) {
    const SYS_MADVISE: usize = 28;
    const MADV_HUGEPAGE: usize = 14;
    // SAFETY: madvise(MADV_HUGEPAGE) reads and writes no memory and
    // leaves the range's contents as they are; a raw syscall avoids a
    // libc dependency. rcx/r11 are clobbered by the
    // `syscall` instruction itself.
    unsafe {
        let _ret: isize;
        core::arch::asm!(
            "syscall",
            inlateout("rax") SYS_MADVISE => _ret,
            in("rdi") addr,
            in("rsi") len,
            in("rdx") MADV_HUGEPAGE,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack, preserves_flags)
        );
    }
}

/// [`madvise_hugepage`] where there is no such call: nothing.
#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
pub fn madvise_hugepage(_addr: *mut u8, _len: usize) {}

/// A flat, word-addressable simulated shared memory.
///
/// Storage is an array of `AtomicU64` words so that plain loads and stores
/// are data-race free at the Rust level; the *transactional* semantics
/// (speculation, conflict detection, capacity) are layered on top by the
/// `htm` crate. Code that bypasses the HTM runtime (e.g. single-threaded
/// initialization) may use [`SharedMem::load`] / [`SharedMem::store`]
/// directly.
///
/// Benchmark-scale memories are huge-page-backed (2 MiB alignment plus
/// `madvise(MADV_HUGEPAGE)` on Linux/x86-64), so
/// simulated accesses measure the protocol plus ordinary cache behaviour,
/// not host TLB thrash. Creating one writes none of it: its pages come
/// zeroed from the kernel when first touched, so a memory occupies only
/// the pages its users have written or read (see [`HUGE_PAGE`]).
pub struct SharedMem {
    words: WordStore,
}

impl SharedMem {
    /// Creates a memory of `lines` cache lines, zero-initialized.
    ///
    /// # Panics
    ///
    /// Panics if `lines` is 0 or the word count would overflow `u32`
    /// address space (minus the null sentinel).
    pub fn new_lines(lines: u32) -> Self {
        assert!(lines > 0, "memory must have at least one line");
        let words = lines
            .checked_mul(WORDS_PER_LINE)
            .expect("line count overflows address space");
        assert!(words < u32::MAX, "word count overflows address space");
        SharedMem {
            words: WordStore::new_zeroed(words as usize),
        }
    }

    /// Number of words in the memory.
    #[inline]
    pub fn num_words(&self) -> u32 {
        self.words.len as u32
    }

    /// Number of cache lines in the memory.
    #[inline]
    pub fn num_lines(&self) -> u32 {
        self.num_words() / WORDS_PER_LINE
    }

    /// Returns `true` if `addr` names a word inside this memory.
    #[inline]
    pub fn contains(&self, addr: Addr) -> bool {
        !addr.is_null() && addr.0 < self.num_words()
    }

    #[inline]
    fn word(&self, addr: Addr) -> &AtomicU64 {
        debug_assert!(self.contains(addr), "address {addr:?} out of bounds");
        &self.words.words()[addr.0 as usize]
    }

    /// Plain (non-speculative) load with acquire ordering.
    #[inline]
    pub fn load(&self, addr: Addr) -> u64 {
        self.word(addr).load(Ordering::Acquire)
    }

    /// Plain (non-speculative) store with release ordering.
    #[inline]
    pub fn store(&self, addr: Addr, value: u64) {
        self.word(addr).store(value, Ordering::Release);
    }

    /// Atomic compare-exchange on a word (sequentially consistent).
    ///
    /// Returns `Ok(previous)` on success and `Err(actual)` on failure,
    /// mirroring [`AtomicU64::compare_exchange`].
    #[inline]
    pub fn compare_exchange(&self, addr: Addr, current: u64, new: u64) -> Result<u64, u64> {
        self.word(addr)
            .compare_exchange(current, new, Ordering::SeqCst, Ordering::SeqCst)
    }

    /// Atomic fetch-add on a word (sequentially consistent).
    #[inline]
    pub fn fetch_add(&self, addr: Addr, delta: u64) -> u64 {
        self.word(addr).fetch_add(delta, Ordering::SeqCst)
    }

    /// Hints the host CPU to prefetch the cache line holding `addr`.
    ///
    /// Purely a performance hint for access-pipeline prefetchers (models
    /// the hardware stream prefetcher a real machine would bring to bear
    /// on these access patterns): no simulated-memory semantics — no
    /// conflict detection, no value observed. Out-of-range addresses are
    /// ignored.
    #[inline]
    pub fn prefetch(&self, addr: Addr) {
        if (addr.0 as usize) < self.words.len {
            let p: *const AtomicU64 = &self.words.words()[addr.0 as usize];
            #[cfg(target_arch = "x86_64")]
            // SAFETY: prefetch reads no memory and has no side effects
            // beyond cache warming; `p` is a valid in-bounds pointer.
            unsafe {
                core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(p.cast());
            }
            #[cfg(not(target_arch = "x86_64"))]
            let _ = p;
        }
    }
}

/// A software model of a per-thread stride prefetcher.
///
/// Real machines run pointer traversals behind a hardware stream/stride
/// engine; the simulation would otherwise serialize one full host memory
/// latency per simulated line. Feeding each *data* access through
/// [`StridePrefetcher::touch`] detects constant inter-line strides (the
/// dominant pattern for bump-allocated linked structures) and prefetches
/// one and two lines ahead, overlapping consecutive host misses.
///
/// Purely a latency hint: no simulated-memory semantics are affected.
/// Mispredictions merely warm an irrelevant host line.
#[derive(Debug, Clone, Copy)]
pub struct StridePrefetcher {
    last_line: u32,
}

impl StridePrefetcher {
    /// A prefetcher with no history (first touch predicts nothing).
    pub const fn new() -> StridePrefetcher {
        StridePrefetcher {
            last_line: u32::MAX,
        }
    }

    /// Records a touched address; on an inter-line stride, prefetches one
    /// and two strides ahead.
    #[inline]
    pub fn touch(&mut self, mem: &SharedMem, addr: Addr) {
        let line = addr.0 / WORDS_PER_LINE;
        if line == self.last_line {
            return;
        }
        let delta = i64::from(line) - i64::from(self.last_line);
        self.last_line = line;
        let ahead = i64::from(line) + delta;
        if let Ok(l) = u32::try_from(ahead) {
            mem.prefetch(Addr(l.saturating_mul(WORDS_PER_LINE)));
        }
        if let Ok(l) = u32::try_from(ahead + delta) {
            mem.prefetch(Addr(l.saturating_mul(WORDS_PER_LINE)));
        }
    }
}

impl Default for StridePrefetcher {
    fn default() -> StridePrefetcher {
        StridePrefetcher::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{LineId, LINE_BYTES};
    use std::sync::Arc;

    #[test]
    fn zero_initialized() {
        let mem = SharedMem::new_lines(4);
        for w in 0..mem.num_words() {
            assert_eq!(mem.load(Addr(w)), 0);
        }
    }

    #[test]
    fn store_load_roundtrip() {
        let mem = SharedMem::new_lines(2);
        mem.store(Addr(3), 0xdead_beef_cafe_babe);
        assert_eq!(mem.load(Addr(3)), 0xdead_beef_cafe_babe);
        assert_eq!(mem.load(Addr(4)), 0);
    }

    #[test]
    fn geometry_accessors() {
        let mem = SharedMem::new_lines(16);
        assert_eq!(mem.num_lines(), 16);
        assert_eq!(mem.num_words(), 16 * WORDS_PER_LINE);
        assert!(mem.contains(Addr(0)));
        assert!(mem.contains(LineId(15).first_word().offset(7)));
        assert!(!mem.contains(Addr(16 * WORDS_PER_LINE)));
        assert!(!mem.contains(Addr::NULL));
    }

    #[test]
    fn compare_exchange_and_fetch_add() {
        let mem = SharedMem::new_lines(1);
        assert_eq!(mem.compare_exchange(Addr(0), 0, 7), Ok(0));
        assert_eq!(mem.compare_exchange(Addr(0), 0, 9), Err(7));
        assert_eq!(mem.fetch_add(Addr(0), 5), 7);
        assert_eq!(mem.load(Addr(0)), 12);
    }

    #[test]
    fn concurrent_counter_is_atomic() {
        let mem = Arc::new(SharedMem::new_lines(1));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let mem = Arc::clone(&mem);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    mem.fetch_add(Addr(0), 1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(mem.load(Addr(0)), 4000);
    }

    /// A memory of at least [`HUGE_PAGE`] starts on a 2 MiB boundary
    /// inside its over-sized block and reads zero across its whole
    /// range, first and last word included.
    #[test]
    fn a_large_memory_is_huge_page_aligned_and_reads_zero() {
        let lines = (HUGE_PAGE / LINE_BYTES as usize) as u32 * 3 + 5;
        let mem = SharedMem::new_lines(lines);
        assert_eq!(mem.words.ptr.as_ptr().addr() % HUGE_PAGE, 0);
        let last = mem.num_words() - 1;
        let sampled = (0..mem.num_words()).step_by(4093).chain([last]);
        for w in sampled {
            assert_eq!(mem.load(Addr(w)), 0, "word {w}");
        }
        mem.store(Addr(last), 7);
        assert_eq!(mem.load(Addr(last)), 7);
    }

    #[test]
    fn a_small_memory_reads_zero() {
        let mem = SharedMem::new_lines(3);
        assert!(mem.words.layout.size() < HUGE_PAGE);
        assert!((0..mem.num_words()).all(|w| mem.load(Addr(w)) == 0));
    }

    #[test]
    fn zeroed_words_are_zero_and_atomic() {
        assert!(zeroed_words(0).is_empty());
        let words = zeroed_words(HUGE_PAGE / 8 + 3);
        assert!(words
            .iter()
            .step_by(511)
            .all(|w| w.load(Ordering::Relaxed) == 0));
        assert_eq!(words[HUGE_PAGE / 8 + 2].fetch_add(3, Ordering::Relaxed), 0);
        assert_eq!(words[HUGE_PAGE / 8 + 2].load(Ordering::Relaxed), 3);
    }

    #[test]
    #[should_panic(expected = "at least one line")]
    fn zero_lines_panics() {
        let _ = SharedMem::new_lines(0);
    }
}
