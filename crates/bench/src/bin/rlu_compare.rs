//! RLU vs. lock elision on the canonical sorted-list set (§2 extension).
//!
//! The paper argues RW-LE gets RCU/RLU-class read performance *without*
//! tailored data-structure code. This harness runs the same sorted-list
//! workload (identical node layout, identical op mix) three ways:
//!
//! * **RLU** — the tailored implementation (`rlu::RluList`);
//! * **RW-LE** — plain list code under an elided read-write lock;
//! * **HLE / SGL** — the same plain code under classic elision / a lock.
//!
//! ```text
//! cargo run --release -p bench --bin rlu_compare
//! ```

use std::sync::{Arc, Mutex};
use std::time::Instant;

use bench::Args;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rlu::{RluList, RluRuntime};
use simmem::{Addr, SharedMem, SimAlloc};
use stats::ThreadStats;
use workloads::driver::run_threads;
use workloads::sortedlist::SortedList;
use workloads::{Scheme, SchemeKind};

use htm::{HtmConfig, HtmRuntime};

struct Config {
    threads: usize,
    ops: u64,
    write_pct: u32,
    initial: u64,
    key_range: u64,
    seed: u64,
    /// Fine-grained RLU (concurrent writers) instead of coarse.
    fine: bool,
}

/// Records the first allocation failure seen by any worker so the run
/// can report it instead of tearing the process down mid-benchmark.
struct FirstFailure(Mutex<Option<String>>);

impl FirstFailure {
    fn new() -> Self {
        FirstFailure(Mutex::new(None))
    }

    fn record(&self, what: impl std::fmt::Display) {
        let mut slot = self.0.lock().unwrap();
        if slot.is_none() {
            *slot = Some(what.to_string());
        }
    }

    fn tripped(&self) -> bool {
        self.0.lock().unwrap().is_some()
    }

    fn into_result(self) -> Result<(), String> {
        match self.0.into_inner().unwrap() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

fn run_rlu(cfg: &Config) -> Result<f64, String> {
    let mem = Arc::new(SharedMem::new_lines(1 << 18));
    let alloc = Arc::new(SimAlloc::new(Arc::clone(&mem)));
    let rt = RluRuntime::new(mem, alloc);
    let list = Arc::new(RluList::new(&rt).map_err(|e| format!("RLU list setup: {e}"))?);
    {
        let mut t = rt.register();
        let mut w = t.writer();
        for k in (1..=cfg.initial).map(|i| i * 2) {
            list.add(&mut w, k)
                .map_err(|e| format!("RLU initial population (key {k}): {e}"))?;
        }
        w.commit();
    }
    let barrier = std::sync::Barrier::new(cfg.threads);
    let failure = FirstFailure::new();
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for t in 0..cfg.threads {
            let rt = Arc::clone(&rt);
            let list = Arc::clone(&list);
            let barrier = &barrier;
            let cfg = &cfg;
            let failure = &failure;
            s.spawn(move || {
                let mut th = rt.register();
                let mut rng = SmallRng::seed_from_u64(cfg.seed ^ ((t as u64 + 1) * 0x9e37));
                barrier.wait();
                'ops: for _ in 0..cfg.ops {
                    let key = rng.gen_range(1..cfg.key_range);
                    if rng.gen_range(0..100) < cfg.write_pct {
                        loop {
                            let mut w = if cfg.fine {
                                th.writer_fine()
                            } else {
                                th.writer()
                            };
                            let res = if rng.gen_bool(0.5) {
                                list.add(&mut w, key)
                            } else {
                                list.remove(&mut w, key)
                            };
                            match res {
                                Ok(_) => {
                                    w.commit();
                                    break;
                                }
                                Err(rlu::RluError::Conflict) => {
                                    w.abort();
                                    std::thread::yield_now();
                                }
                                Err(e) => {
                                    w.abort();
                                    failure.record(format_args!("RLU worker {t}: {e}"));
                                    break 'ops;
                                }
                            }
                        }
                    } else {
                        let r = th.reader();
                        let _ = list.contains(&r, key);
                    }
                }
            });
        }
    });
    let tput = (cfg.threads as u64 * cfg.ops) as f64 / t0.elapsed().as_secs_f64();
    failure.into_result().map(|()| tput)
}

fn run_elision(kind: SchemeKind, cfg: &Config) -> Result<f64, String> {
    let mem = Arc::new(SharedMem::new_lines(1 << 18));
    let rt = HtmRuntime::new(Arc::clone(&mem), HtmConfig::default().with_seed(cfg.seed));
    let alloc = SimAlloc::new(Arc::clone(&mem));
    // One extra slot: the setup context below registers before workers.
    let scheme = Scheme::build(kind, &alloc, cfg.threads + 1)
        .map_err(|e| format!("{} scheme setup: {e}", kind.label()))?;
    let list = SortedList::new(&alloc).map_err(|e| format!("{} list setup: {e}", kind.label()))?;
    {
        let ctx = rt.register();
        let mut nt = ctx.non_tx();
        for k in (1..=cfg.initial).map(|i| i * 2) {
            let n = list
                .make_node(&alloc, k)
                .map_err(|e| format!("{} initial population (key {k}): {e}", kind.label()))?;
            list.add(&mut nt, n)
                .map_err(|e| format!("{} initial population (key {k}): {e:?}", kind.label()))?;
        }
    }
    let failure = FirstFailure::new();
    let (wall, _stats) = run_threads(&rt, cfg.threads, |t, ctx, st| {
        let mut rng = SmallRng::seed_from_u64(cfg.seed ^ ((t as u64 + 1) * 0x9e37));
        let mut spare: Option<Addr> = None;
        let mut local = ThreadStats::new();
        for _ in 0..cfg.ops {
            let key = rng.gen_range(1..cfg.key_range);
            if rng.gen_range(0..100) < cfg.write_pct {
                if rng.gen_bool(0.5) {
                    let node = match spare.take() {
                        Some(n) => {
                            mem.store(n, key);
                            mem.store(n.offset(1), Addr::NULL.to_word());
                            n
                        }
                        None => match list.make_node(&alloc, key) {
                            Ok(n) => n,
                            Err(e) => {
                                failure.record(format_args!("{} worker {t}: {e}", kind.label()));
                                break;
                            }
                        },
                    };
                    if !scheme.write_cs(ctx, &mut local, &mut |acc| list.add(acc, node)) {
                        spare = Some(node);
                    }
                } else {
                    // Removed nodes leak until run end (deferred).
                    let _ = scheme.write_cs(ctx, &mut local, &mut |acc| list.remove(acc, key));
                }
            } else if failure.tripped() {
                // Another worker hit an allocation failure: finish fast so
                // the run can surface it. Read-only ops allocate nothing.
                break;
            } else {
                scheme.read_cs(ctx, &mut local, &mut |acc| list.contains(acc, key));
            }
        }
        *st = local;
    });
    let tput = (cfg.threads as u64 * cfg.ops) as f64 / wall.as_secs_f64();
    failure.into_result().map(|()| tput)
}

/// Every flag this binary accepts; anything else exits 2.
const FLAGS: &[&str] = &["threads", "full", "ops", "initial", "seed", "fine"];

const USAGE: &str = "\
usage: rlu_compare [--threads 1,2,4] [--full] [--ops N] [--initial KEYS]
                   [--seed N] [--fine]

  RLU, RW-LE_OPT, HLE and SGL on one sorted-list set at w = 2, 20, 50%.
  --fine runs RLU with concurrent (fine-grained) writers.";

fn main() {
    let args = Args::parse();
    args.expect_only(FLAGS, USAGE);
    let threads_list = args.thread_list(&[1, 2, 4]);
    let ops: u64 = args.get_or("ops", 500);
    let initial: u64 = args.get_or("initial", 128);
    let seed: u64 = args.get_or("seed", 42);
    let fine = args.flag("fine");
    println!(
        "# RLU vs lock elision — sorted-list set ({initial} initial keys, RLU mode: {})",
        if fine { "fine-grained" } else { "coarse" }
    );
    println!("{:<10} {:>4} {:>4} {:>12}", "scheme", "thr", "w%", "ops/s");
    for &threads in &threads_list {
        for write_pct in [2u32, 20, 50] {
            let cfg = Config {
                threads,
                ops,
                write_pct,
                initial,
                key_range: initial * 4,
                seed,
                fine,
            };
            let rlu_tput = match run_rlu(&cfg) {
                Ok(t) => t,
                Err(e) => fail(&e),
            };
            println!(
                "{:<10} {:>4} {:>4} {:>12.0}",
                if fine { "RLU-fine" } else { "RLU" },
                threads,
                write_pct,
                rlu_tput
            );
            for kind in [SchemeKind::RwLeOpt, SchemeKind::Hle, SchemeKind::Sgl] {
                let tput = match run_elision(kind, &cfg) {
                    Ok(t) => t,
                    Err(e) => fail(&e),
                };
                println!(
                    "{:<10} {:>4} {:>4} {:>12.0}",
                    kind.label(),
                    threads,
                    write_pct,
                    tput
                );
            }
        }
        println!();
    }
}

fn fail(msg: &str) -> ! {
    eprintln!(
        "rlu_compare: {msg} (simulated heap exhausted — lower ops/initial or raise the line count)"
    );
    std::process::exit(1);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_names_every_accepted_flag() {
        assert_eq!(Args::undocumented(FLAGS, USAGE), None);
    }
}
