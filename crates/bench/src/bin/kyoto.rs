//! Figure 9: Kyoto-Cabinet CacheDB with the wicked-style driver.
//!
//! RW-LE elides only the outer read-write lock; the inner per-slot
//! mutexes stay real locks (acquired speculatively inside write sections).
//!
//! ```text
//! cargo run --release -p bench --bin kyoto
//! ```

use bench::{grid_flags, Args, Output};
use workloads::driver::{run_kyoto, KyotoParams};
use workloads::SchemeKind;

/// This binary's flags beyond `bench::GRID_FLAGS`; anything else exits 2.
const FLAGS: &[&str] = &["schemes", "writes-permille", "slots"];

const USAGE: &str = "\
usage: kyoto [--threads 1,2,4,8] [--full] [--schemes NAME,..]
             [--writes-permille 5,50,100] [--slots N] [--ops N] [--runs N]
             [--seed N]

  The outer write-lock rate is per mille (the paper plots <1%, 5%, 10%),
  hence --writes-permille, not --writes; the w column prints it as given.";

fn main() {
    let args = Args::parse();
    args.expect_only(&grid_flags(FLAGS), USAGE);
    let threads = args.thread_list(&[1, 2, 4, 8]);
    let schemes = args.scheme_list(&SchemeKind::SENSITIVITY);
    // The paper plots <1%, 5% and 10% outer write-lock acquisition rates.
    let write_permilles = args.u32_list("writes-permille", &[5, 50, 100]);
    let n_slots: u32 = args.get_or("slots", 16);
    let out = Output::from_args(&args, 300);

    out.section(format!(
        "Figure 9 — Kyoto CacheDB wicked ({n_slots} slots; w column is per-mille)"
    ));
    out.note("");
    out.header();
    for &w in &write_permilles {
        for &t in &threads {
            for &scheme in &schemes {
                out.measure(scheme.label(), t, w, &|seed| {
                    run_kyoto(&KyotoParams {
                        scheme,
                        write_permille: w,
                        threads: t,
                        ops_per_thread: out.ops,
                        n_slots,
                        buckets_per_slot: 64,
                        initial_items: 4096,
                        seed,
                    })
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
