//! Evaluation workloads over simulated memory.
//!
//! The RW-LE paper evaluates four applications; this crate implements all
//! of them against the `simmem`/`htm` substrate, parameterized by the
//! synchronization [`Scheme`] so every baseline drives identical code:
//!
//! * [`hashmap`] — the synthetic hashmap of the §4.1 sensitivity study
//!   (capacity × contention × update-ratio grid).
//! * [`stmbench7`] — a scaled STMBench7-like CAD object graph with large,
//!   heterogeneous critical sections.
//! * [`kyoto`] — a Kyoto-Cabinet-CacheDB-like slotted store: an outer
//!   read-write lock (elided) over per-slot mutexes (kept), driven by a
//!   `wicked`-style random mix.
//! * [`tpcc`] — a TPC-C port on an in-memory store; read-only transactions
//!   become read critical sections, updates become write sections.
//!
//! [`driver`] contains the multi-threaded measurement harness shared by
//! the figure-regeneration binaries in the `bench` crate.
//!
//! [`backend`] abstracts the execution substrate: the simulated-HTM
//! pipeline above, or [`native`] — the same RW-LE protocol over plain
//! process memory with epoch-quiesced copy-on-write writer commits
//! (DESIGN.md §9), each shard one [`leafmap::LeafMap`].

#![warn(missing_docs)]

pub mod backend;
pub mod driver;
pub mod hashmap;
pub mod kyoto;
pub mod leafmap;
pub mod native;
pub mod scheme;
pub mod sharded;
pub mod sortedlist;
pub mod stmbench7;
pub mod tpcc;

pub use backend::{BackendKind, StoreBackend, StoreLoader, StoreSession};
pub use scheme::{Scheme, SchemeKind};
