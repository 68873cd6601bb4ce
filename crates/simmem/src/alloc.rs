//! A thread-safe segregated free-list allocator for simulated memory.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::addr::{Addr, WORDS_PER_LINE};
use crate::mem::SharedMem;

/// Number of power-of-two size classes. Class `i` holds blocks of
/// `WORDS_PER_LINE << i` words (1, 2, 4, ... lines), up to 2^31 words:
/// half of the largest address space, and the largest power of two a
/// `u32` size holds.
const NUM_CLASSES: usize = 29;

/// Error returned when the simulated memory is exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocError {
    /// Words requested by the failing allocation.
    pub requested_words: u32,
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "simulated memory exhausted (requested {} words)",
            self.requested_words
        )
    }
}

impl std::error::Error for AllocError {}

/// Allocation statistics, useful in tests and benchmarks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Total words handed out by `alloc` (including rounding).
    pub words_allocated: u64,
    /// Total words returned through `free`.
    pub words_freed: u64,
    /// Number of live allocations.
    pub live_blocks: u64,
}

/// A segregated free-list allocator over a [`SharedMem`].
///
/// All blocks are whole cache lines (sizes round up to a power-of-two
/// number of lines) and are line-aligned, so every allocated node occupies
/// its own line(s). This matches how the paper's workloads behave under
/// real HTM: one list node touched means one cache line in the
/// transactional footprint.
///
/// Freed blocks are recycled per size class. Blocks are *not* split or
/// coalesced — workloads in this repository allocate a small number of
/// distinct shapes, so a simple design is both sufficient and easy to
/// reason about.
pub struct SimAlloc {
    mem: Arc<SharedMem>,
    /// Bump pointer: next free word (always line-aligned).
    next: AtomicU32,
    /// Per-class free lists of recycled block addresses.
    free_lists: [Mutex<Vec<Addr>>; NUM_CLASSES],
    words_allocated: AtomicU64,
    words_freed: AtomicU64,
    live_blocks: AtomicU64,
}

impl SimAlloc {
    /// Creates an allocator managing all of `mem` starting at word 0.
    pub fn new(mem: Arc<SharedMem>) -> Self {
        Self::with_base(mem, Addr(0))
    }

    /// Creates an allocator managing `mem` starting at `base`.
    ///
    /// Words below `base` are left to the caller (e.g. for statically laid
    /// out roots). `base` is rounded up to a line boundary.
    ///
    /// # Panics
    ///
    /// Panics if `base` lies outside the memory.
    pub fn with_base(mem: Arc<SharedMem>, base: Addr) -> Self {
        assert!(
            base.0 <= mem.num_words(),
            "allocator base outside memory bounds"
        );
        let aligned = base.0.div_ceil(WORDS_PER_LINE) * WORDS_PER_LINE;
        SimAlloc {
            mem,
            next: AtomicU32::new(aligned),
            free_lists: std::array::from_fn(|_| Mutex::new(Vec::new())),
            words_allocated: AtomicU64::new(0),
            words_freed: AtomicU64::new(0),
            live_blocks: AtomicU64::new(0),
        }
    }

    /// Size class for a request of `words` words.
    fn class_of(words: u32) -> Option<(usize, u32)> {
        let lines = words.div_ceil(WORDS_PER_LINE).next_power_of_two();
        let class = lines.trailing_zeros() as usize;
        (class < NUM_CLASSES).then(|| (class, WORDS_PER_LINE << class))
    }

    /// Allocates a block of at least `words` words, zeroed.
    ///
    /// The returned address is line-aligned and the block spans a
    /// power-of-two number of whole lines.
    pub fn alloc(&self, words: u32) -> Result<Addr, AllocError> {
        let (class, size) = Self::class_of(words.max(1)).ok_or(AllocError {
            requested_words: words,
        })?;
        let addr = if let Some(addr) = self.free_lists[class]
            .lock()
            .expect("free list poisoned")
            .pop()
        {
            // Recycled blocks must be re-zeroed: simulated programs expect
            // fresh allocations to read as 0 (like the initial memory).
            for i in 0..size {
                self.mem.store(addr.offset(i), 0);
            }
            addr
        } else {
            Addr(self.bump(size).ok_or(AllocError {
                requested_words: words,
            })?)
        };
        self.words_allocated
            .fetch_add(size as u64, Ordering::Relaxed);
        self.live_blocks.fetch_add(1, Ordering::Relaxed);
        Ok(addr)
    }

    /// Allocates `count` fresh blocks of at least `words` words each,
    /// zeroed, with one bump of the fresh-memory pointer and one stats
    /// update: a bulk load's nodes at the cost of one [`SimAlloc::alloc`].
    ///
    /// The blocks are the next `count` ones of `words`' size class past
    /// the bump pointer, in address order: block `i` starts at the first
    /// block's address plus `i` times the block size, which is where `count`
    /// calls of `alloc` on an allocator with no freed block of that
    /// class would put them. Freed blocks are not reused. Each block is
    /// later freed on its own, like one from `alloc`.
    ///
    /// # Errors
    ///
    /// When the run does not fit in the fresh memory, nothing is taken:
    /// the bump pointer and the statistics stay as they were.
    pub fn alloc_run(
        &self,
        count: u64,
        words: u32,
    ) -> Result<impl ExactSizeIterator<Item = Addr>, AllocError> {
        let err = AllocError {
            requested_words: words,
        };
        let (_, size) = Self::class_of(words.max(1)).ok_or(err)?;
        let total = count
            .checked_mul(u64::from(size))
            .and_then(|t| u32::try_from(t).ok())
            .ok_or(err)?;
        let start = self.bump(total).ok_or(err)?;
        self.words_allocated
            .fetch_add(u64::from(total), Ordering::Relaxed);
        self.live_blocks.fetch_add(count, Ordering::Relaxed);
        Ok((start..start + total).step_by(size as usize).map(Addr))
    }

    /// Takes `words` words of fresh memory from the bump pointer,
    /// returning the first, or `None` (and takes nothing) when they do
    /// not fit.
    fn bump(&self, words: u32) -> Option<u32> {
        let start = self.next.fetch_add(words, Ordering::Relaxed);
        if start
            .checked_add(words)
            .is_none_or(|end| end > self.mem.num_words())
        {
            // Roll back so repeated failures don't wrap the bump pointer.
            self.next.fetch_sub(words, Ordering::Relaxed);
            return None;
        }
        Some(start)
    }

    /// Returns a block to its size-class free list.
    ///
    /// `addr` must have been returned by [`SimAlloc::alloc`] on this
    /// allocator and not freed since; the block size is recovered from the
    /// allocation size recorded at allocation time by the caller — because
    /// blocks are power-of-two lines, callers that know their request size
    /// may simply pass the same `words` value they allocated with via
    /// [`SimAlloc::free_sized`]. `free` assumes a single-line block.
    pub fn free(&self, addr: Addr) {
        self.free_sized(addr, 1);
    }

    /// Returns a block of `words` words (as requested at allocation time).
    pub fn free_sized(&self, addr: Addr, words: u32) {
        let (class, size) =
            Self::class_of(words.max(1)).expect("freed block larger than any size class");
        debug_assert_eq!(addr.0 % WORDS_PER_LINE, 0, "freed address not line-aligned");
        self.free_lists[class]
            .lock()
            .expect("free list poisoned")
            .push(addr);
        self.words_freed.fetch_add(size as u64, Ordering::Relaxed);
        self.live_blocks.fetch_sub(1, Ordering::Relaxed);
    }

    /// The memory this allocator manages.
    pub fn mem(&self) -> &Arc<SharedMem> {
        &self.mem
    }

    /// Current allocation statistics.
    pub fn stats(&self) -> AllocStats {
        AllocStats {
            words_allocated: self.words_allocated.load(Ordering::Relaxed),
            words_freed: self.words_freed.load(Ordering::Relaxed),
            live_blocks: self.live_blocks.load(Ordering::Relaxed),
        }
    }

    /// Words of fresh (never-allocated) memory still available.
    pub fn words_remaining(&self) -> u32 {
        self.mem
            .num_words()
            .saturating_sub(self.next.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_are_line_aligned_and_disjoint() {
        let mem = Arc::new(SharedMem::new_lines(64));
        let alloc = SimAlloc::new(Arc::clone(&mem));
        let a = alloc.alloc(3).unwrap();
        let b = alloc.alloc(8).unwrap();
        let c = alloc.alloc(9).unwrap(); // two lines
        assert_eq!(a.0 % WORDS_PER_LINE, 0);
        assert_eq!(b.0 % WORDS_PER_LINE, 0);
        assert_eq!(c.0 % WORDS_PER_LINE, 0);
        assert_ne!(a.line(), b.line());
        assert_ne!(b.line(), c.line());
        // Two-line block: c spans lines c.line() and c.line()+1, and the
        // next allocation must not land inside it.
        let d = alloc.alloc(1).unwrap();
        assert!(d.0 >= c.0 + 16);
    }

    #[test]
    fn recycling_reuses_and_rezeroes() {
        let mem = Arc::new(SharedMem::new_lines(8));
        let alloc = SimAlloc::new(Arc::clone(&mem));
        let a = alloc.alloc(4).unwrap();
        mem.store(a, 99);
        mem.store(a.offset(3), 77);
        alloc.free_sized(a, 4);
        let b = alloc.alloc(2).unwrap();
        assert_eq!(a, b, "same size class should recycle the block");
        assert_eq!(mem.load(b), 0, "recycled block must be zeroed");
        assert_eq!(mem.load(b.offset(3)), 0);
    }

    #[test]
    fn exhaustion_is_an_error_not_a_panic() {
        let mem = Arc::new(SharedMem::new_lines(2));
        let alloc = SimAlloc::new(Arc::clone(&mem));
        assert!(alloc.alloc(8).is_ok());
        assert!(alloc.alloc(8).is_ok());
        assert_eq!(alloc.alloc(8), Err(AllocError { requested_words: 8 }));
        // Freeing makes the block available again.
        let a = alloc.alloc(1); // still exhausted (fresh memory gone, nothing freed)
        assert!(a.is_err());
    }

    /// A block may be as large as the memory: a 2^20-word bucket array
    /// (a 4 M-key store on one shard) is one allocation. A request no
    /// class holds is an error, not a panic or a wrapped size.
    #[test]
    fn blocks_up_to_any_memory_size_are_served() {
        let mem = Arc::new(SharedMem::new_lines(1 << 17));
        let alloc = SimAlloc::new(Arc::clone(&mem));
        let big = alloc.alloc(1 << 20).unwrap();
        assert_eq!(alloc.words_remaining(), 0);
        alloc.free_sized(big, 1 << 20);
        assert_eq!(alloc.alloc((1 << 19) + 1), Ok(big), "same class recycles");
        for words in [(1 << 31) + 1, u32::MAX] {
            assert_eq!(
                alloc.alloc(words),
                Err(AllocError {
                    requested_words: words
                })
            );
        }
    }

    /// A run is the blocks `count` calls of `alloc` would return on a
    /// fresh allocator, with the same statistics.
    #[test]
    fn a_run_is_the_blocks_alloc_would_hand_out() {
        let mem = Arc::new(SharedMem::new_lines(64));
        let (bulk, one_by_one) = (
            SimAlloc::with_base(Arc::clone(&mem), Addr(8)),
            SimAlloc::with_base(Arc::clone(&mem), Addr(8)),
        );
        for words in [3, 9] {
            let run: Vec<Addr> = bulk.alloc_run(5, words).unwrap().collect();
            let each: Vec<Addr> = (0..5).map(|_| one_by_one.alloc(words).unwrap()).collect();
            assert_eq!(run, each);
        }
        assert_eq!(bulk.stats(), one_by_one.stats());
        assert_eq!(bulk.words_remaining(), one_by_one.words_remaining());
        // Each block of a run is freed on its own.
        let run: Vec<Addr> = bulk.alloc_run(2, 8).unwrap().collect();
        bulk.free_sized(run[1], 8);
        assert_eq!(bulk.alloc(8), Ok(run[1]));
    }

    #[test]
    fn an_empty_run_takes_nothing() {
        let mem = Arc::new(SharedMem::new_lines(4));
        let alloc = SimAlloc::new(Arc::clone(&mem));
        assert_eq!(alloc.alloc_run(0, 3).unwrap().len(), 0);
        assert_eq!(alloc.stats(), AllocStats::default());
        assert_eq!(alloc.alloc(3), Ok(Addr(0)));
    }

    /// A run that does not fit leaves the bump pointer and the
    /// statistics as they were, and the next `alloc` gets the next line.
    #[test]
    fn a_run_that_does_not_fit_takes_nothing() {
        let mem = Arc::new(SharedMem::new_lines(8));
        let alloc = SimAlloc::new(Arc::clone(&mem));
        let first = alloc.alloc(1).unwrap();
        let (stats, remaining) = (alloc.stats(), alloc.words_remaining());
        for (count, words) in [(8, 3), (4, 9), (u64::MAX, 1), (1, u32::MAX)] {
            assert_eq!(
                alloc.alloc_run(count, words).err(),
                Some(AllocError {
                    requested_words: words
                })
            );
            assert_eq!((alloc.stats(), alloc.words_remaining()), (stats, remaining));
        }
        assert_eq!(alloc.alloc(1), Ok(first.offset(WORDS_PER_LINE)));
        assert_eq!(alloc.alloc_run(6, 1).unwrap().len(), 6);
        assert_eq!(alloc.words_remaining(), 0);
    }

    #[test]
    fn with_base_skips_reserved_prefix() {
        let mem = Arc::new(SharedMem::new_lines(8));
        let alloc = SimAlloc::with_base(Arc::clone(&mem), Addr(5)); // rounds to word 8
        let a = alloc.alloc(1).unwrap();
        assert_eq!(a, Addr(8));
    }

    #[test]
    fn stats_track_live_blocks() {
        let mem = Arc::new(SharedMem::new_lines(32));
        let alloc = SimAlloc::new(Arc::clone(&mem));
        let a = alloc.alloc(8).unwrap();
        let _b = alloc.alloc(8).unwrap();
        assert_eq!(alloc.stats().live_blocks, 2);
        alloc.free_sized(a, 8);
        let s = alloc.stats();
        assert_eq!(s.live_blocks, 1);
        assert_eq!(s.words_freed, 8);
        assert_eq!(s.words_allocated, 16);
    }

    #[test]
    fn concurrent_allocs_do_not_overlap() {
        use std::collections::HashSet;
        use std::sync::Arc;
        let mem = Arc::new(SharedMem::new_lines(4096));
        let alloc = SimAlloc::new(Arc::clone(&mem));
        std::thread::scope(|s| {
            let alloc = &alloc;
            let mut handles = Vec::new();
            for _ in 0..4 {
                handles.push(s.spawn(move || {
                    let mut got = Vec::new();
                    for _ in 0..100 {
                        got.push(alloc.alloc(8).unwrap());
                    }
                    got
                }));
            }
            let mut all = HashSet::new();
            for h in handles {
                for a in h.join().unwrap() {
                    assert!(all.insert(a), "duplicate block {a:?}");
                }
            }
            assert_eq!(all.len(), 400);
        });
    }
}
