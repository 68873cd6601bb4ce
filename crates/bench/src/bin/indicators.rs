//! Reader-indicator sweep over the NS fallback read path.
//!
//! Measures what the BRAVO-style distributed indicator buys when elision
//! is *disabled* (`RwLeConfig::fallback_only`: `max_htm_retries = 0`,
//! `max_rot_retries = 0`) and every read takes the software path. Two
//! schemes run the same read-mostly critical sections over the same
//! RW-LE lock:
//!
//! * `IND-C` — centralized accounting, no indicator (the seed fallback:
//!   epoch registration plus a lock-word check per read);
//! * `IND-BRAVO` — bias-certified slot publication (one private CAS and
//!   a bias re-check per read in steady state).
//!
//! `SGL` — a test-and-test-and-set spin lock around the same bodies — is
//! the machine-speed canary: the regression gate compares every scheme
//! *relative to* SGL so host drift cancels out (`regress --relative-to`).
//!
//! ```text
//! cargo run --release -p bench --bin indicators -- --threads 1,8,32 --writes 1,90
//! ```

use std::sync::Arc;
use std::time::Instant;

use bench::{grid_flags, Args, Output};
use htm::{HtmConfig, HtmRuntime};
use locks::SpinMutex;
use rwle::{RwLe, RwLeConfig};
use simmem::{SharedMem, SimAlloc};
use stats::{CommitKind, StatsSummary, ThreadStats};
use workloads::driver::RunResult;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Words of shared data touched by the critical sections. Small on
/// purpose: the sweep measures entry/exit cost, not body cost.
const DATA_WORDS: u32 = 8;

/// Length of each thread's pre-drawn op plan (power of two; reused
/// cyclically when `--ops` exceeds it).
const PLAN_LEN: usize = 1024;

/// One scheme of the sweep: a label plus the indicator kind behind it
/// (`None` marks the SGL canary).
struct Scheme {
    label: &'static str,
    kind: Option<rind::IndicatorKind>,
}

const SCHEMES: [Scheme; 3] = [
    Scheme {
        label: "SGL",
        kind: None,
    },
    Scheme {
        label: "IND-C",
        kind: Some(rind::IndicatorKind::Central),
    },
    Scheme {
        label: "IND-BRAVO",
        kind: Some(rind::IndicatorKind::Bravo),
    },
];

struct Params {
    threads: usize,
    write_pct: u32,
    ops_per_thread: u64,
    seed: u64,
}

/// Runs one (scheme, threads, w) cell. Every op commits exactly once, so
/// the summary's op count is `threads × ops_per_thread`.
fn run_cell(scheme: &Scheme, p: &Params) -> RunResult {
    let mem = Arc::new(SharedMem::new_lines(64));
    let rt = HtmRuntime::new(Arc::clone(&mem), HtmConfig::default());
    let alloc = SimAlloc::new(Arc::clone(&mem));

    let rwle = scheme.kind.map(|kind| {
        Arc::new(
            RwLe::new(&alloc, p.threads, RwLeConfig::fallback_only(kind))
                .expect("fallback_only is NS-only, either kind is accepted"),
        )
    });
    let sgl = Arc::new(SpinMutex::new());
    let data = alloc.alloc(DATA_WORDS).unwrap();

    let start = Instant::now();
    let stats: Vec<ThreadStats> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..p.threads)
            .map(|tid| {
                let rt = Arc::clone(&rt);
                let rwle = rwle.clone();
                let sgl = Arc::clone(&sgl);
                s.spawn(move || {
                    let mut ctx = rt.register();
                    let mut st = ThreadStats::new();
                    // Pre-draw the op plan so the timed loop pays no RNG
                    // cost: the sweep measures entry/exit cost, and the
                    // harness stays as thin as possible. One draw decides
                    // both the op kind and the slot.
                    let mut rng = SmallRng::seed_from_u64(p.seed ^ (tid as u64) << 32);
                    let mut plan = [0u32; PLAN_LEN];
                    for r in plan.iter_mut() {
                        *r = rng.gen_range(0..100u32);
                    }
                    for i in 0..p.ops_per_thread {
                        let r = plan[i as usize & (PLAN_LEN - 1)];
                        let write = r < p.write_pct;
                        let slot = r & (DATA_WORDS - 1);
                        match (&rwle, write) {
                            (Some(l), false) => {
                                l.read_cs(&mut ctx, &mut st, &mut |acc| {
                                    std::hint::black_box(acc.read(data.offset(slot))?);
                                    Ok(())
                                });
                            }
                            (Some(l), true) => {
                                l.write_cs(&mut ctx, &mut st, &mut |acc| {
                                    let v = acc.read(data.offset(slot))?;
                                    acc.write(data.offset(slot), v + 1)
                                });
                            }
                            (None, false) => {
                                let _g = sgl.lock();
                                std::hint::black_box(ctx.non_tx().read(data.offset(slot)));
                                st.commit(CommitKind::Sgl);
                            }
                            (None, true) => {
                                let _g = sgl.lock();
                                let nt = ctx.non_tx();
                                let v = nt.read(data.offset(slot));
                                nt.write(data.offset(slot), v + 1);
                                st.commit(CommitKind::Sgl);
                            }
                        }
                    }
                    st
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    RunResult {
        wall: start.elapsed(),
        summary: StatsSummary::from_threads(&stats),
        threads: p.threads,
    }
}

/// This binary's flags beyond `bench::GRID_FLAGS`; anything else exits 2.
const FLAGS: &[&str] = &["writes"];

const USAGE: &str = "\
usage: indicators [--threads 1,8,32] [--full] [--writes 1,90] [--ops N]
                  [--runs N] [--seed N]

  Sweeps SGL (the canary), IND-C and IND-BRAVO over every (threads, w)
  cell; the regression gate needs all three rows of a cell. --full sweeps
  the paper's thread grid (up to 80).";

fn main() {
    let args = Args::parse();
    args.expect_only(&grid_flags(FLAGS), USAGE);
    let threads = args.thread_list(&[1, 8, 32]);
    let write_pcts = args.u32_list("writes", &[1, 90]);
    let out = Output::from_args(&args, 2000);

    out.section("Reader indicators — NS fallback read path");
    out.note("(elision disabled: fallback_only)");
    out.header();
    for &w in &write_pcts {
        for &t in &threads {
            for scheme in &SCHEMES {
                out.measure(scheme.label, t, w, &|seed| {
                    let p = Params {
                        threads: t,
                        write_pct: w,
                        ops_per_thread: out.ops,
                        seed,
                    };
                    run_cell(scheme, &p)
                });
            }
        }
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_names_every_accepted_flag() {
        assert_eq!(Args::undocumented(&grid_flags(FLAGS), USAGE), None);
    }
}
