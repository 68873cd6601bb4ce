//! Simulated shared memory substrate.
//!
//! Every data structure used by the RW-LE reproduction lives inside a
//! [`SharedMem`]: a flat, word-addressable (64-bit words) memory with a
//! fixed 64-byte cache-line geometry. Modelling memory explicitly — rather
//! than using ordinary Rust objects — is what lets the HTM simulator in the
//! `htm` crate detect conflicts at cache-line granularity and account for
//! transactional capacity the way POWER8 hardware does.
//!
//! The crate provides:
//!
//! * [`Addr`] / [`LineId`] — word addresses and the line geometry
//!   ([`WORDS_PER_LINE`], [`LINE_BYTES`]).
//! * [`SharedMem`] — the storage itself, with plain (non-speculative)
//!   atomic loads and stores. Conflict detection lives in the `htm` crate;
//!   this crate is deliberately policy-free.
//! * [`SimAlloc`] — a thread-safe segregated free-list allocator handing
//!   out line-aligned blocks, so one allocated node maps to one (or more)
//!   whole cache lines.
//! * [`madvise_hugepage`] — the process's one `madvise`, which asks for
//!   transparent huge pages over a range about to be filled; the
//!   native store's bulk builds use it too.
//! * [`zeroed_words`] — an all-zero `Box<[AtomicU64]>` whose pages the
//!   kernel zeroes at first touch (the `htm` crate's conflict table), so
//!   the crate's `unsafe` stays here.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use simmem::{SharedMem, SimAlloc};
//!
//! let mem = Arc::new(SharedMem::new_lines(1024));
//! let alloc = SimAlloc::new(Arc::clone(&mem));
//! let node = alloc.alloc(3).unwrap(); // rounds up to one full line
//! mem.store(node, 42);
//! assert_eq!(mem.load(node), 42);
//! alloc.free(node);
//! ```

#![warn(missing_docs)]

mod addr;
mod alloc;
mod mem;

pub use addr::{Addr, LineId, LINE_BYTES, WORDS_PER_LINE};
pub use alloc::{AllocError, AllocStats, SimAlloc};
pub use mem::{madvise_hugepage, zeroed_words, SharedMem, StridePrefetcher, HUGE_PAGE};
