//! Multi-threaded measurement harness shared by tests and the
//! figure-regeneration binaries.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use htm::{HtmConfig, HtmRuntime, ThreadCtx};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use simmem::{Addr, SharedMem, SimAlloc};
use stats::{StatsSummary, ThreadStats};

use crate::backend::{StoreBackend, StoreSession};
use crate::hashmap::SimHashMap;
use crate::scheme::{Scheme, SchemeKind};

/// Outcome of one measured run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Wall-clock time of the parallel phase.
    pub wall: Duration,
    /// Merged per-thread statistics.
    pub summary: StatsSummary,
    /// Worker threads used.
    pub threads: usize,
}

impl RunResult {
    /// Completed operations per second.
    pub fn throughput(&self) -> f64 {
        self.summary.ops as f64 / self.wall.as_secs_f64().max(1e-9)
    }
}

/// Spawns `threads` workers, each registered with `rt`, released together
/// by a barrier; returns the parallel phase's wall time and per-thread
/// stats.
pub fn run_threads<F>(rt: &Arc<HtmRuntime>, threads: usize, f: F) -> (Duration, Vec<ThreadStats>)
where
    F: Fn(usize, &mut ThreadCtx, &mut ThreadStats) + Sync,
{
    let barrier = Barrier::new(threads + 1);
    let mut stats = Vec::new();
    let mut wall = Duration::ZERO;
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for t in 0..threads {
            let rt = Arc::clone(rt);
            let barrier = &barrier;
            let f = &f;
            handles.push(s.spawn(move || {
                let mut ctx = rt.register();
                let mut st = ThreadStats::new();
                barrier.wait();
                f(t, &mut ctx, &mut st);
                st
            }));
        }
        // Timestamp *before* releasing the barrier: the main thread may
        // not be rescheduled until workers finish (single-CPU hosts), so
        // stamping after the wait would undercount the parallel phase.
        let t0 = Instant::now();
        barrier.wait();
        for h in handles {
            stats.push(h.join().expect("worker panicked"));
        }
        wall = t0.elapsed();
    });
    (wall, stats)
}

/// Spawns `threads` workers over `backend`, each with its own
/// [`StoreSession`], released together by a barrier; returns the
/// parallel phase's wall time and per-session stats. The
/// backend-generic sibling of [`run_threads`] — correctness tests and
/// benches drive both substrates through it.
pub fn run_backend_threads<F>(
    backend: &dyn StoreBackend,
    threads: usize,
    f: F,
) -> (Duration, Vec<ThreadStats>)
where
    F: Fn(usize, &mut dyn StoreSession) + Sync,
{
    let barrier = Barrier::new(threads + 1);
    let mut stats = Vec::new();
    let mut wall = Duration::ZERO;
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for t in 0..threads {
            let barrier = &barrier;
            let f = &f;
            handles.push(s.spawn(move || {
                // Sessions are created on the thread that uses them
                // (HTM contexts are not transferable between threads).
                let mut sess = backend.session();
                barrier.wait();
                f(t, &mut *sess);
                sess.take_stats()
            }));
        }
        // Same stamping rule as run_threads: before the release, not
        // after the wait.
        let t0 = Instant::now();
        barrier.wait();
        for h in handles {
            stats.push(h.join().expect("worker panicked"));
        }
        wall = t0.elapsed();
    });
    (wall, stats)
}

/// The four capacity × contention scenarios of §4.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scenario {
    /// High capacity pressure (200 items/bucket), high contention (1 bucket).
    HcHc,
    /// High capacity pressure, low contention (many buckets).
    HcLc,
    /// Low capacity pressure (50 items/bucket), high contention.
    LcHc,
    /// Low capacity pressure, low contention — plus simulated paging
    /// pressure, which dominates this scenario in the paper.
    LcLc,
}

impl Scenario {
    /// All four scenarios, figure order (Figures 3–6).
    pub const ALL: [Scenario; 4] = [
        Scenario::HcHc,
        Scenario::HcLc,
        Scenario::LcHc,
        Scenario::LcLc,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Scenario::HcHc => "hc-hc",
            Scenario::HcLc => "hc-lc",
            Scenario::LcHc => "lc-hc",
            Scenario::LcLc => "lc-lc",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Scenario> {
        Scenario::ALL.into_iter().find(|sc| sc.name() == s)
    }

    /// Paper figure reproduced by this scenario.
    pub fn figure(self) -> &'static str {
        match self {
            Scenario::HcHc => "Figure 3",
            Scenario::HcLc => "Figure 4",
            Scenario::LcHc => "Figure 5",
            Scenario::LcLc => "Figure 6",
        }
    }

    /// Bucket count. The paper's low-contention scenarios use 100 000
    /// buckets; we scale to 10 000 (conflict probability stays negligible)
    /// to bound simulated-memory footprint — recorded in EXPERIMENTS.md.
    pub fn buckets(self) -> u32 {
        match self {
            Scenario::HcHc | Scenario::LcHc => 1,
            Scenario::HcLc | Scenario::LcLc => 10_000,
        }
    }

    /// Items per bucket: 200 gives ≈50% HTM read-capacity aborts on a
    /// full traversal, 50 gives ≈2% (paper §4.1).
    pub fn items_per_bucket(self) -> u32 {
        match self {
            Scenario::HcHc | Scenario::HcLc => 200,
            Scenario::LcHc | Scenario::LcLc => 50,
        }
    }

    /// Per-access transient-interrupt probability, modelling the paging
    /// pressure the paper's sparse low-capacity/low-contention hashmap
    /// puts on the VM subsystem.
    pub fn page_fault_prob(self) -> f64 {
        match self {
            Scenario::LcLc => 2e-3,
            _ => 0.0,
        }
    }
}

/// Parameters of one sensitivity-benchmark run.
#[derive(Debug, Clone)]
pub struct SensitivityParams {
    /// Synchronization scheme under test.
    pub scheme: SchemeKind,
    /// Workload scenario (capacity × contention).
    pub scenario: Scenario,
    /// Percentage of write critical sections (the paper's `w`).
    pub write_pct: u32,
    /// Worker threads.
    pub threads: usize,
    /// Operations per thread.
    pub ops_per_thread: u64,
    /// RNG seed.
    pub seed: u64,
    /// SMT group size for the HTM engine (1 = no resource sharing; 8 =
    /// the paper's POWER8 cores).
    pub smt_group_size: u32,
}

impl SensitivityParams {
    /// Total initial items.
    pub fn n_items(&self) -> u64 {
        self.scenario.buckets() as u64 * self.scenario.items_per_bucket() as u64
    }
}

/// Runs one sensitivity-benchmark configuration end to end: build memory,
/// populate the hashmap, run the mixed workload, merge statistics.
pub fn run_sensitivity(p: &SensitivityParams) -> RunResult {
    run_sensitivity_with(p, &|alloc, max_threads| {
        Scheme::build(p.scheme, alloc, max_threads).expect("lock allocation")
    })
}

/// [`run_sensitivity`] over a scheme the caller builds from the run's
/// allocator and thread count (`p.scheme` is then unused) — how the
/// ablation harness runs RW-LE configurations that are not a
/// [`SchemeKind`]. The builder is a trait object so that the measured
/// loop below is compiled once, here, for every caller: as a type
/// parameter it cost the hc-hc w=10 rows 6–8 % through different
/// inlining (EXPERIMENTS.md, "RW-LE option space").
pub fn run_sensitivity_with(
    p: &SensitivityParams,
    build: &dyn Fn(&SimAlloc, usize) -> Scheme,
) -> RunResult {
    let n_items = p.n_items();
    let total_writes = p.threads as u64 * p.ops_per_thread * p.write_pct as u64 / 100;
    // One line per node; removed nodes are reclaimed only after the run
    // (deferred reclamation), so size for the worst case.
    let node_lines = n_items + total_writes + p.threads as u64 * 2;
    let bucket_lines = (p.scenario.buckets() as u64)
        .div_ceil(8)
        .next_power_of_two();
    let lines = (node_lines + bucket_lines + 4096) * 9 / 8;
    let mem = Arc::new(SharedMem::new_lines(
        u32::try_from(lines).expect("workload too large for 32-bit address space"),
    ));
    let htm_cfg = HtmConfig::default()
        .with_page_faults(p.scenario.page_fault_prob())
        .with_seed(p.seed)
        .with_smt_group(p.smt_group_size.max(1));
    let rt = HtmRuntime::new(Arc::clone(&mem), htm_cfg);
    let alloc = SimAlloc::new(Arc::clone(&mem));
    let scheme = build(&alloc, p.threads);
    let map = SimHashMap::create(&alloc, p.scenario.buckets()).expect("bucket allocation");
    map.populate(&alloc, n_items).expect("population");

    let key_range = n_items * 2;
    let (wall, stats) = run_threads(&rt, p.threads, |t, ctx, st| {
        let mut rng =
            SmallRng::seed_from_u64(p.seed ^ (t as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        // Spare node reused across failed inserts; never a removed node
        // (in-flight uninstrumented readers may still traverse those).
        let mut spare: Option<Addr> = None;
        for _ in 0..p.ops_per_thread {
            let key = rng.gen_range(0..key_range);
            let is_write = rng.gen_range(0..100) < p.write_pct;
            if !is_write {
                scheme.read_cs(ctx, st, &mut |acc| map.lookup(acc, key));
            } else if rng.gen_bool(0.5) {
                let node = match spare.take() {
                    Some(n) => {
                        // Re-initialize the detached (private) node.
                        mem.store(n, key);
                        mem.store(n.offset(1), key);
                        mem.store(n.offset(2), Addr::NULL.to_word());
                        n
                    }
                    None => map.make_node(&alloc, key, key).expect("node allocation"),
                };
                let linked = scheme.write_cs(ctx, st, &mut |acc| map.insert(acc, node));
                if !linked {
                    spare = Some(node);
                }
            } else {
                // Removed nodes leak until the end of the run (deferred
                // reclamation; see DESIGN.md).
                let _removed = scheme.write_cs(ctx, st, &mut |acc| map.remove(acc, key));
            }
        }
    });
    RunResult {
        wall,
        summary: StatsSummary::from_threads(&stats),
        threads: p.threads,
    }
}

// ----------------------------------------------------------------------
// STMBench7 (Figure 8)
// ----------------------------------------------------------------------

/// Parameters of one STMBench7-like run.
#[derive(Debug, Clone)]
pub struct Bench7Params {
    /// Synchronization scheme under test.
    pub scheme: SchemeKind,
    /// Percentage of update operations (the paper plots 10/50/90).
    pub write_pct: u32,
    /// Worker threads.
    pub threads: usize,
    /// Operations per thread.
    pub ops_per_thread: u64,
    /// Composite parts in the database ("medium" ≈ 200 at our scale).
    pub n_composite: u32,
    /// Atomic parts per composite part (100, as in STMBench7).
    pub parts_per_composite: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Bench7Params {
    fn default() -> Self {
        Bench7Params {
            scheme: SchemeKind::RwLeOpt,
            write_pct: 10,
            threads: 2,
            ops_per_thread: 100,
            n_composite: 200,
            parts_per_composite: 100,
            seed: 1,
        }
    }
}

/// Runs one STMBench7-like configuration.
pub fn run_stmbench7(p: &Bench7Params) -> RunResult {
    use crate::stmbench7::{Bench7, Hierarchy};
    let lines = Bench7::lines_needed(p.n_composite, p.parts_per_composite)
        + Hierarchy::lines_needed(3, 3)
        + 4096;
    let mem = Arc::new(SharedMem::new_lines(lines as u32));
    let rt = HtmRuntime::new(Arc::clone(&mem), HtmConfig::default().with_seed(p.seed));
    let alloc = SimAlloc::new(Arc::clone(&mem));
    let scheme = Scheme::build(p.scheme, &alloc, p.threads).expect("lock allocation");
    let bench = Bench7::build(&alloc, p.n_composite, p.parts_per_composite).expect("graph build");
    let hier = Hierarchy::build(&alloc, 3, 3, p.n_composite).expect("hierarchy build");

    let (wall, stats) = run_threads(&rt, p.threads, |t, ctx, st| {
        let mut rng =
            SmallRng::seed_from_u64(p.seed ^ (t as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        for op in 0..p.ops_per_thread {
            let c = rng.gen_range(0..p.n_composite);
            if rng.gen_range(0..100) < p.write_pct {
                let date = (t as u64) << 32 | op;
                // Mix of update operations: full x/y swaps (OP6-like),
                // short date updates (OP15-like), and assembly-path
                // updates through the hierarchy (OP9/OP10-like).
                let kind = rng.gen_range(0..100);
                if kind < 60 {
                    scheme.write_cs(ctx, st, &mut |acc| bench.swap_xy(acc, c, date));
                } else if kind < 90 {
                    scheme.write_cs(ctx, st, &mut |acc| bench.touch_dates(acc, c, 10, date));
                } else {
                    let leaf = rng.gen_range(0..1000);
                    scheme.write_cs(ctx, st, &mut |acc| hier.touch_path(acc, &bench, leaf, date));
                }
            } else {
                scheme.read_cs(ctx, st, &mut |acc| bench.traverse(acc, c));
            }
        }
    });
    RunResult {
        wall,
        summary: StatsSummary::from_threads(&stats),
        threads: p.threads,
    }
}

// ----------------------------------------------------------------------
// Kyoto CacheDB wicked (Figure 9)
// ----------------------------------------------------------------------

/// Parameters of one Kyoto-CacheDB wicked run.
#[derive(Debug, Clone)]
pub struct KyotoParams {
    /// Synchronization scheme under test.
    pub scheme: SchemeKind,
    /// Outer-lock write acquisitions per mille (the paper plots <1%, 5%,
    /// 10% → 5‰, 50‰, 100‰).
    pub write_permille: u32,
    /// Worker threads.
    pub threads: usize,
    /// Operations per thread.
    pub ops_per_thread: u64,
    /// Database slots (each with its own inner mutex).
    pub n_slots: u32,
    /// Buckets per slot.
    pub buckets_per_slot: u32,
    /// Records loaded before the run.
    pub initial_items: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for KyotoParams {
    fn default() -> Self {
        KyotoParams {
            scheme: SchemeKind::RwLeOpt,
            write_permille: 50,
            threads: 2,
            ops_per_thread: 200,
            n_slots: 16,
            buckets_per_slot: 64,
            initial_items: 4096,
            seed: 2,
        }
    }
}

/// Runs one Kyoto-CacheDB wicked configuration.
pub fn run_kyoto(p: &KyotoParams) -> RunResult {
    use crate::kyoto::CacheDb;
    let total_sets = p.threads as u64 * p.ops_per_thread; // upper bound
    let lines =
        CacheDb::lines_needed(p.n_slots, p.buckets_per_slot, p.initial_items) + total_sets + 4096;
    let mem = Arc::new(SharedMem::new_lines(lines as u32));
    let rt = HtmRuntime::new(Arc::clone(&mem), HtmConfig::default().with_seed(p.seed));
    let alloc = SimAlloc::new(Arc::clone(&mem));
    // One extra slot: the setup context below registers before workers.
    let scheme = Scheme::build(p.scheme, &alloc, p.threads + 1).expect("lock allocation");
    let db = CacheDb::create(&alloc, p.n_slots, p.buckets_per_slot).expect("db build");
    {
        // Initial load, single-threaded.
        let ctx = rt.register();
        let mut nt = ctx.non_tx();
        for k in 0..p.initial_items {
            let node = db.make_node(&alloc, k, k).expect("node");
            db.set(&mut nt, node).expect("initial set");
        }
    }
    let key_range = p.initial_items * 2;

    let (wall, stats) = run_threads(&rt, p.threads, |t, ctx, st| {
        let mut rng =
            SmallRng::seed_from_u64(p.seed ^ (t as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mut spare: Option<Addr> = None;
        for _ in 0..p.ops_per_thread {
            if rng.gen_range(0..1000) < p.write_permille {
                // Database-wide operation: outer lock in write mode.
                scheme.write_cs(ctx, st, &mut |acc| db.touch_all_slots(acc));
                continue;
            }
            // Record operations: outer lock in read mode + inner mutex.
            let key = rng.gen_range(0..key_range);
            let kind = rng.gen_range(0..100);
            if kind < 70 {
                scheme.read_cs(ctx, st, &mut |acc| db.get(acc, key));
            } else if kind < 90 {
                let node = match spare.take() {
                    Some(n) => {
                        mem.store(n, key);
                        mem.store(n.offset(1), key);
                        mem.store(n.offset(2), Addr::NULL.to_word());
                        mem.store(n.offset(3), Addr::NULL.to_word());
                        n
                    }
                    None => db.make_node(&alloc, key, key).expect("node"),
                };
                let linked = scheme.read_cs(ctx, st, &mut |acc| db.set(acc, node));
                if !linked {
                    spare = Some(node);
                }
            } else {
                let _removed = scheme.read_cs(ctx, st, &mut |acc| db.remove(acc, key));
            }
        }
    });
    RunResult {
        wall,
        summary: StatsSummary::from_threads(&stats),
        threads: p.threads,
    }
}

// ----------------------------------------------------------------------
// TPC-C (Figure 10)
// ----------------------------------------------------------------------

/// Parameters of one TPC-C run.
#[derive(Debug, Clone)]
pub struct TpccParams {
    /// Synchronization scheme under test.
    pub scheme: SchemeKind,
    /// Percentage of update transactions (the paper plots 1/10/50).
    pub write_pct: u32,
    /// Worker threads.
    pub threads: usize,
    /// Transactions per thread.
    pub ops_per_thread: u64,
    /// Database scale.
    pub scale: crate::tpcc::TpccScale,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TpccParams {
    fn default() -> Self {
        TpccParams {
            scheme: SchemeKind::RwLeOpt,
            write_pct: 10,
            threads: 2,
            ops_per_thread: 200,
            scale: crate::tpcc::TpccScale::default(),
            seed: 3,
        }
    }
}

/// Runs one TPC-C configuration.
pub fn run_tpcc(p: &TpccParams) -> RunResult {
    use crate::tpcc::{Tpcc, DISTRICTS_PER_WH};
    let lines = Tpcc::lines_needed(&p.scale) + 4096;
    let mem = Arc::new(SharedMem::new_lines(lines as u32));
    let rt = HtmRuntime::new(Arc::clone(&mem), HtmConfig::default().with_seed(p.seed));
    let alloc = SimAlloc::new(Arc::clone(&mem));
    // One extra slot: the setup context below registers before workers.
    let scheme = Scheme::build(p.scheme, &alloc, p.threads + 1).expect("lock allocation");
    let db = Tpcc::build(&alloc, p.scale).expect("db build");
    {
        // Seed each district with enough orders that stock-level scans a
        // full 20-order window from the first operation (the capacity
        // profile the paper reports for TPC-C read sections).
        let ctx = rt.register();
        let mut nt = ctx.non_tx();
        let mut rng = SmallRng::seed_from_u64(p.seed);
        for _ in 0..(p.scale.warehouses * DISTRICTS_PER_WH * 24) {
            let op = db.gen_new_order(&mut rng);
            db.new_order(&mut nt, &op).expect("seed order");
        }
    }

    let (wall, stats) = run_threads(&rt, p.threads, |t, ctx, st| {
        let mut rng =
            SmallRng::seed_from_u64(p.seed ^ (t as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        for _ in 0..p.ops_per_thread {
            if rng.gen_range(0..100) < p.write_pct {
                let kind = rng.gen_range(0..100);
                if kind < 45 {
                    let op = db.gen_new_order(&mut rng);
                    scheme.write_cs(ctx, st, &mut |acc| db.new_order(acc, &op));
                } else if kind < 90 {
                    let w = rng.gen_range(0..p.scale.warehouses);
                    let d = rng.gen_range(0..DISTRICTS_PER_WH);
                    let c = rng.gen_range(0..p.scale.customers_per_district);
                    let amount = rng.gen_range(1..5000);
                    scheme.write_cs(ctx, st, &mut |acc| db.payment(acc, w, d, c, amount));
                } else {
                    let w = rng.gen_range(0..p.scale.warehouses);
                    scheme.write_cs(ctx, st, &mut |acc| db.delivery(acc, w));
                }
            } else if rng.gen_bool(0.5) {
                let w = rng.gen_range(0..p.scale.warehouses);
                let d = rng.gen_range(0..DISTRICTS_PER_WH);
                let c = rng.gen_range(0..p.scale.customers_per_district);
                scheme.read_cs(ctx, st, &mut |acc| db.order_status(acc, w, d, c));
            } else {
                let w = rng.gen_range(0..p.scale.warehouses);
                let d = rng.gen_range(0..DISTRICTS_PER_WH);
                scheme.read_cs(ctx, st, &mut |acc| db.stock_level(acc, w, d, 60));
            }
        }
    });
    RunResult {
        wall,
        summary: StatsSummary::from_threads(&stats),
        threads: p.threads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(scheme: SchemeKind, scenario: Scenario, write_pct: u32, threads: usize) -> RunResult {
        run_sensitivity(&SensitivityParams {
            scheme,
            scenario,
            write_pct,
            threads,
            ops_per_thread: 50,
            seed: 42,
            smt_group_size: 1,
        })
    }

    #[test]
    fn every_scheme_completes_lc_hc() {
        for scheme in SchemeKind::SENSITIVITY {
            let r = quick(scheme, Scenario::LcHc, 10, 3);
            assert_eq!(r.summary.ops, 150, "lost ops under {scheme:?}");
        }
    }

    #[test]
    fn rwle_opt_survives_high_capacity() {
        let r = quick(SchemeKind::RwLeOpt, Scenario::HcHc, 10, 2);
        assert_eq!(r.summary.ops, 100);
        // Reads are uninstrumented under RW-LE.
        assert!(r.summary.commits(stats::CommitKind::Uninstrumented) > 0);
    }

    #[test]
    fn hle_sees_capacity_aborts_in_hc() {
        let r = quick(SchemeKind::Hle, Scenario::HcHc, 10, 2);
        assert_eq!(r.summary.ops, 100);
        assert!(
            r.summary.aborts(stats::AbortBucket::HtmCapacity) > 0,
            "200-item buckets must overflow HTM read capacity"
        );
    }

    #[test]
    fn scenario_parse_roundtrip() {
        for sc in Scenario::ALL {
            assert_eq!(Scenario::parse(sc.name()), Some(sc));
        }
        assert_eq!(Scenario::parse("bogus"), None);
    }

    #[test]
    fn stmbench7_runs_under_rwle_and_hle() {
        for scheme in [SchemeKind::RwLeOpt, SchemeKind::Hle] {
            let r = run_stmbench7(&Bench7Params {
                scheme,
                write_pct: 50,
                threads: 2,
                ops_per_thread: 30,
                n_composite: 20,
                parts_per_composite: 100,
                seed: 11,
            });
            assert_eq!(r.summary.ops, 60, "lost ops under {scheme:?}");
        }
    }

    #[test]
    fn kyoto_runs_under_every_scheme() {
        for scheme in SchemeKind::SENSITIVITY {
            let r = run_kyoto(&KyotoParams {
                scheme,
                write_permille: 100,
                threads: 2,
                ops_per_thread: 60,
                n_slots: 4,
                buckets_per_slot: 16,
                initial_items: 256,
                seed: 12,
            });
            assert_eq!(r.summary.ops, 120, "lost ops under {scheme:?}");
        }
    }

    #[test]
    fn tpcc_conserves_order_count() {
        // Under any scheme, district next_o_id totals must equal seeded
        // orders plus committed new-order transactions. We can't observe
        // the new-order count directly here, but totals must be identical
        // across schemes given the same seed (determinism of the op mix is
        // per-thread, and ops complete exactly once).
        for scheme in [SchemeKind::RwLeOpt, SchemeKind::Sgl] {
            let r = run_tpcc(&TpccParams {
                scheme,
                write_pct: 50,
                threads: 2,
                ops_per_thread: 50,
                scale: crate::tpcc::TpccScale::default(),
                seed: 13,
            });
            assert_eq!(r.summary.ops, 100, "lost ops under {scheme:?}");
        }
    }

    #[test]
    fn lc_lc_injects_transient_interrupts() {
        let r = quick(SchemeKind::Hle, Scenario::LcLc, 10, 2);
        assert_eq!(r.summary.ops, 100);
        // With p=2e-3 per access and ~25-line read sets, some aborts in
        // the HTM non-tx bucket (where interrupts are classified) are
        // overwhelmingly likely across 100 ops.
        assert!(r.summary.total_aborts() > 0);
    }
}
