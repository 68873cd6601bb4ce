//! A Kyoto-CacheDB-style key-value store with an elided outer lock.
//!
//! Demonstrates the paper's §4.2 Kyoto setup: record operations take the
//! outer read-write lock in *read* mode plus a per-slot mutex; a
//! database-wide maintenance operation takes it in *write* mode. RW-LE
//! elides only the outer lock — it can, because unlike plain HLE it
//! understands read-write semantics.
//!
//! ```text
//! cargo run --release -p workloads --example kv_store
//! ```

use std::sync::Arc;

use htm::{HtmConfig, HtmRuntime};
use simmem::{SharedMem, SimAlloc};
use stats::{StatsSummary, ThreadStats};
use workloads::kyoto::CacheDb;
use workloads::{Scheme, SchemeKind};

fn main() {
    let mem = Arc::new(SharedMem::new_lines(64 * 1024));
    let rt = HtmRuntime::new(Arc::clone(&mem), HtmConfig::default());
    let alloc = SimAlloc::new(Arc::clone(&mem));
    let scheme = Scheme::build(SchemeKind::RwLeOpt, &alloc, 16).unwrap();
    let db = Arc::new(CacheDb::create(&alloc, 8, 32).unwrap());

    // Load 1000 records.
    {
        let ctx = rt.register();
        let mut nt = ctx.non_tx();
        for k in 0..1000u64 {
            let node = db.make_node(&alloc, k, k * k).unwrap();
            db.set(&mut nt, node).unwrap();
        }
    }

    let mut all_stats = Vec::new();
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let rt = Arc::clone(&rt);
            let db = Arc::clone(&db);
            let scheme = scheme.clone();
            let alloc = &alloc;
            handles.push(s.spawn(move || {
                let mut ctx = rt.register();
                let mut st = ThreadStats::new();
                for i in 0..2_000u64 {
                    let key = (t * 2_000 + i) % 2_000;
                    match i % 20 {
                        // Rare database-wide op: outer lock in write mode.
                        0 => {
                            scheme.write_cs(&mut ctx, &mut st, &mut |acc| db.touch_all_slots(acc));
                        }
                        // Updates: outer lock in READ mode + slot mutex.
                        1..=5 => {
                            let node = db.make_node(alloc, key, key + i).unwrap();
                            scheme.read_cs(&mut ctx, &mut st, &mut |acc| db.set(acc, node));
                        }
                        // Lookups.
                        _ => {
                            scheme.read_cs(&mut ctx, &mut st, &mut |acc| db.get(acc, key));
                        }
                    }
                }
                st
            }));
        }
        for h in handles {
            all_stats.push(h.join().unwrap());
        }
    });

    let summary = StatsSummary::from_threads(&all_stats);
    let ctx = rt.register();
    let mut nt = ctx.non_tx();
    println!("records in store: {}", db.count(&mut nt).unwrap());
    println!("operations:       {}", summary.ops);
    println!("stats:            {summary}");
}
