//! Quickstart: elide a read-write lock with RW-LE.
//!
//! Builds a simulated memory, an HTM runtime, and one RW-LE lock guarding
//! a two-word data structure with the invariant `data[0] == data[1]`.
//! Four writers keep incrementing both words while four readers verify
//! the invariant — concurrently, with readers running uninstrumented.
//!
//! ```text
//! cargo run --release -p rwle --example quickstart
//! ```

use std::sync::Arc;

use htm::{HtmConfig, HtmRuntime};
use rwle::{RwLe, RwLeConfig};
use simmem::{SharedMem, SimAlloc};
use stats::{StatsSummary, ThreadStats};

fn main() {
    // 1. A simulated shared memory (the HTM detects conflicts on its
    //    64-byte cache lines) and the POWER8-like HTM runtime on top.
    let mem = Arc::new(SharedMem::new_lines(1024));
    let rt = HtmRuntime::new(Arc::clone(&mem), HtmConfig::default());

    // 2. An allocator and the RW-LE elided lock (optimistic variant:
    //    5 × HTM, then 5 × ROT, then the non-speculative global lock).
    let alloc = SimAlloc::new(Arc::clone(&mem));
    let rwle = Arc::new(RwLe::new(&alloc, 16, RwLeConfig::opt()).unwrap());
    let data = alloc.alloc(2).unwrap();

    // 3. Readers and writers. Critical-section bodies are written against
    //    `&mut dyn MemAccess`, so the same code runs speculatively or
    //    pessimistically as the PATH policy decides.
    let mut all_stats = Vec::new();
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for _ in 0..4 {
            let rt = Arc::clone(&rt);
            let rwle = Arc::clone(&rwle);
            handles.push(s.spawn(move || {
                let mut ctx = rt.register();
                let mut st = ThreadStats::new();
                for _ in 0..1_000 {
                    rwle.write_cs(&mut ctx, &mut st, &mut |acc| {
                        let v = acc.read(data)?;
                        acc.write(data, v + 1)?;
                        acc.write(data.offset(1), v + 1)?;
                        Ok(())
                    });
                }
                st
            }));
        }
        for _ in 0..4 {
            let rt = Arc::clone(&rt);
            let rwle = Arc::clone(&rwle);
            handles.push(s.spawn(move || {
                let mut ctx = rt.register();
                let mut st = ThreadStats::new();
                for _ in 0..2_000 {
                    rwle.read_cs(&mut ctx, &mut st, &mut |acc| {
                        let a = acc.read(data)?;
                        let b = acc.read(data.offset(1))?;
                        assert_eq!(a, b, "readers must never see a torn update");
                        Ok(())
                    });
                }
                st
            }));
        }
        for h in handles {
            all_stats.push(h.join().unwrap());
        }
    });

    let summary = StatsSummary::from_threads(&all_stats);
    println!("final value: {} (expected 4000)", mem.load(data));
    println!("stats: {summary}");
    assert_eq!(mem.load(data), 4000);
    assert_eq!(mem.load(data.offset(1)), 4000);
}
