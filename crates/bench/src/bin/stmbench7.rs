//! Figure 8: STMBench7 with a read-write-lock interface.
//!
//! ```text
//! cargo run --release -p bench --bin stmbench7
//! ```

use bench::{grid_flags, Args, Output};
use workloads::driver::{run_stmbench7, Bench7Params};
use workloads::SchemeKind;

/// This binary's flags beyond `bench::GRID_FLAGS`; anything else exits 2.
const FLAGS: &[&str] = &["schemes", "writes", "composites", "parts"];

const USAGE: &str = "\
usage: stmbench7 [--threads 1,2,4,8] [--full] [--schemes NAME,..]
                 [--writes 10,50,90] [--composites N] [--parts N] [--ops N]
                 [--runs N] [--seed N]

  Defaults: 200 composite parts of 100 atomic parts, 100 ops/thread.";

fn main() {
    let args = Args::parse();
    args.expect_only(&grid_flags(FLAGS), USAGE);
    let threads = args.thread_list(&[1, 2, 4, 8]);
    let schemes = args.scheme_list(&SchemeKind::SENSITIVITY);
    let write_pcts = args.u32_list("writes", &[10, 50, 90]);
    let n_composite: u32 = args.get_or("composites", 200);
    let parts: u32 = args.get_or("parts", 100);
    let out = Output::from_args(&args, 100);

    out.section(format!(
        "Figure 8 — STMBench7 ({n_composite} composite parts × {parts} atomic parts)"
    ));
    out.note("");
    out.header();
    for &w in &write_pcts {
        for &t in &threads {
            for &scheme in &schemes {
                out.measure(scheme.label(), t, w, &|seed| {
                    run_stmbench7(&Bench7Params {
                        scheme,
                        write_pct: w,
                        threads: t,
                        ops_per_thread: out.ops,
                        n_composite,
                        parts_per_composite: parts,
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
