//! Figure 10: TPC-C on an in-memory store.
//!
//! Prints throughput plus, as in the paper, speedup relative to a
//! single-threaded SGL execution of the same configuration.
//!
//! ```text
//! cargo run --release -p bench --bin tpcc
//! ```

use bench::{grid_flags, Args, Output};
use workloads::driver::{run_tpcc, TpccParams};
use workloads::tpcc::TpccScale;
use workloads::SchemeKind;

/// This binary's flags beyond `bench::GRID_FLAGS`; anything else exits 2.
const FLAGS: &[&str] = &["schemes", "writes"];

const USAGE: &str = "\
usage: tpcc [--threads 1,2,4,8] [--full] [--schemes NAME,..]
            [--writes 1,10,50] [--ops N] [--runs N] [--seed N]

  Under each row, its speedup over single-threaded SGL at the same w
  (the paper's baseline), measured first. Default 200 ops/thread.";

fn main() {
    let args = Args::parse();
    args.expect_only(&grid_flags(FLAGS), USAGE);
    let threads = args.thread_list(&[1, 2, 4, 8]);
    let schemes = args.scheme_list(&SchemeKind::SENSITIVITY);
    let write_pcts = args.u32_list("writes", &[1, 10, 50]);
    let scale = TpccScale::default();
    let out = Output::from_args(&args, 200);
    let ops = out.ops;
    let run = |scheme, w, t| {
        move |seed| {
            run_tpcc(&TpccParams {
                scheme,
                write_pct: w,
                threads: t,
                ops_per_thread: ops,
                scale,
                seed,
            })
        }
    };

    out.section(format!(
        "Figure 10 — TPC-C ({} warehouses, {} items); speedup vs SGL @ 1 thread",
        scale.warehouses, scale.items
    ));
    out.note("");
    for &w in &write_pcts {
        // Paper baseline: single-threaded SGL.
        let (_, base_tput, _) = out.average(&run(SchemeKind::Sgl, w, 1));
        println!("\n## w={w}% — SGL@1thr baseline: {base_tput:.0} tx/s");
        out.header();
        for &t in &threads {
            for &scheme in &schemes {
                let (tput, _) = out.measure(scheme.label(), t, w, &run(scheme, w, t));
                println!("{:>44} speedup vs SGL@1: {:.2}x", "", tput / base_tput);
            }
        }
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
