//! Baseline synchronization schemes used by the paper's evaluation (§4):
//!
//! * [`SpinMutex`] — a test-and-test-and-set spin lock; one instance is
//!   the **SGL** (single global lock) baseline.
//! * [`PthreadRwLock`] — a counter-based read-write lock modelled on the
//!   pthread implementation: an internal mutex protects reader/writer
//!   counters, and writers are preferred once waiting so they cannot
//!   starve ("the values of the counters are used to ensure fairness").
//! * [`BrLock`] — the big-reader lock once used in the Linux kernel:
//!   readers lock only a private per-thread mutex; writers lock all of
//!   them, trading write throughput for read throughput.
//!
//! All spin loops yield to the scheduler: the reproduction hosts may have
//! a single hardware CPU, where busy-waiting would starve the lock holder.

#![warn(missing_docs)]

mod brlock;
mod rwlock;
mod spin;

pub use brlock::{BrLock, BrReadGuard, BrWriteGuard};
pub use rwlock::{PthreadRwLock, RwReadGuard, RwWriteGuard};
pub use spin::{SpinGuard, SpinMutex};
