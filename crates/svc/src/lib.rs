//! A loopback KV service front-end for the elided store, plus the load
//! generator that drives it.
//!
//! The benchmark harness (`crates/bench`) measures closed critical
//! sections back to back; this crate measures the protocol stack the way
//! a deployment would see it — behind a network service with queueing,
//! timeouts and load shedding:
//!
//! * [`proto`] — the length-prefixed binary wire protocol (GET / PUT /
//!   DEL / SCAN / STATS / SHUTDOWN) and its incremental frame parser;
//! * [`poll`] — a thin epoll/eventfd readiness shim over raw syscalls
//!   (no external crates; x86-64 and aarch64 Linux only);
//! * [`server`] — the `rwled` server: event-driven workers, each owning
//!   an epoll loop, a slab of nonblocking connections and one session
//!   into the sharded elided store (`workloads::sharded`); a wake-up
//!   serves its buffered pipelines in rounds, each batching its
//!   mutations into one store pass that pays at most one quiescence
//!   barrier per shard it touches, and flushes every reply with one write per
//!   connection;
//! * [`loadgen`] — the client: closed-loop (optionally pipelined) or
//!   shared-pacing open-loop traffic with configurable skew and write
//!   fraction, latency recorded per op class in [`stats::LatencyHist`];
//! * [`procstat`] — a process's minor page faults and huge pages, as
//!   `/proc` reports them, for `rwled`'s start report;
//! * [`journal`] — the ack journal loadgen writes in `--journal` runs
//!   and the verifier the crash-recovery harness replays it with
//!   (every acked write must be readable after recovery).
//!
//! See DESIGN.md §11 and §13 for the architecture rationale.

#![warn(missing_docs)]

pub mod journal;
pub mod loadgen;
pub mod poll;
pub mod procstat;
pub mod proto;
pub mod server;
