//! The simulated memory storage.

use core::sync::atomic::{AtomicU64, Ordering};

use crate::addr::{Addr, WORDS_PER_LINE};

/// Allocations at least this large are 2 MiB-aligned and advised onto
/// transparent huge pages. Benchmark-scale memories span hundreds of
/// megabytes that workloads pointer-chase at random; with 4 KiB pages
/// almost every simulated access also pays a dTLB miss and page walk,
/// which has nothing to do with the memory system being modelled. Small
/// (test-scale) memories keep the allocator's natural alignment.
const HUGE_PAGE: usize = 2 * 1024 * 1024;

/// Owner of the word array: a manually allocated block so the backing
/// store can be over-aligned to 2 MiB (a `Box<[AtomicU64]>` cannot carry
/// an alignment beyond the element's own).
struct WordStore {
    ptr: core::ptr::NonNull<AtomicU64>,
    len: usize,
    layout: std::alloc::Layout,
}

// SAFETY: the store is an owned, immovable allocation of atomics; sharing
// references across threads is exactly as safe as for `[AtomicU64]`.
unsafe impl Send for WordStore {}
unsafe impl Sync for WordStore {}

impl WordStore {
    /// Allocates `len` zeroed words, huge-page-backed when large.
    fn new_zeroed(len: usize) -> WordStore {
        let layout = std::alloc::Layout::array::<AtomicU64>(len).expect("word array too large");
        let layout = if layout.size() >= HUGE_PAGE {
            layout.align_to(HUGE_PAGE).expect("huge-page alignment")
        } else {
            layout
        };
        // SAFETY: `layout` has non-zero size (callers guarantee len > 0).
        let raw = unsafe { std::alloc::alloc(layout) };
        let Some(ptr) = core::ptr::NonNull::new(raw.cast::<AtomicU64>()) else {
            std::alloc::handle_alloc_error(layout);
        };
        if layout.size() >= HUGE_PAGE {
            // Advise *before* first touch so the zeroing faults below can
            // be satisfied with huge pages directly. Best effort: if the
            // kernel refuses, the store just stays on 4 KiB pages.
            madvise_hugepage(raw, layout.size());
        }
        // SAFETY: `raw` is a fresh allocation of `layout.size()` bytes;
        // the all-zero bit pattern is a valid `AtomicU64` (same in-memory
        // representation as `u64`).
        unsafe { core::ptr::write_bytes(raw, 0, layout.size()) };
        WordStore { ptr, len, layout }
    }

    #[inline]
    fn words(&self) -> &[AtomicU64] {
        // SAFETY: `ptr` owns `len` initialized words for `self`'s lifetime.
        unsafe { core::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl Drop for WordStore {
    fn drop(&mut self) {
        // SAFETY: allocated in `new_zeroed` with exactly this layout;
        // `AtomicU64` needs no drop.
        unsafe { std::alloc::dealloc(self.ptr.as_ptr().cast(), self.layout) };
    }
}

/// Advises the kernel to back `[addr, addr + len)` with transparent huge
/// pages (`madvise(MADV_HUGEPAGE)`). Best effort; errors are ignored.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn madvise_hugepage(addr: *mut u8, len: usize) {
    const SYS_MADVISE: usize = 28;
    const MADV_HUGEPAGE: usize = 14;
    // SAFETY: madvise on an owned mapping reads/writes no memory; a raw
    // syscall avoids a libc dependency. rcx/r11 are clobbered by the
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

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn madvise_hugepage(_addr: *mut u8, _len: usize) {}

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
/// not host TLB thrash.
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
    use crate::addr::LineId;
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

    #[test]
    #[should_panic(expected = "at least one line")]
    fn zero_lines_panics() {
        let _ = SharedMem::new_lines(0);
    }
}
