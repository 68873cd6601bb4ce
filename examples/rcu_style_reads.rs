//! RAII read guards, nesting, and grace-period memory reclamation.
//!
//! Shows the two RW-LE read-side APIs (closure and guard, including
//! nested guards — paper Algorithm 1, footnote 3) and how unlinked nodes
//! flow through an RCU-style [`Reclaimer`] back into the allocator once
//! all concurrent readers have drained.
//!
//! ```text
//! cargo run --release --example rcu_style_reads
//! ```

use std::sync::Arc;

use hrwle::epoch::Reclaimer;
use hrwle::htm::{HtmConfig, HtmRuntime};
use hrwle::rwle::{RwLe, RwLeConfig};
use hrwle::simmem::{Addr, SharedMem, SimAlloc};
use hrwle::stats::ThreadStats;
use hrwle::workloads::hashmap::{SimHashMap, NODE_WORDS};

fn main() {
    let mem = Arc::new(SharedMem::new_lines(8 * 1024));
    let rt = HtmRuntime::new(Arc::clone(&mem), HtmConfig::default());
    let alloc = SimAlloc::new(Arc::clone(&mem));
    // Reclamation requires serialized writers: PES has one lock word; see
    // tests/reclamation.rs for the safety argument.
    let rwle = Arc::new(RwLe::new(&alloc, 8, RwLeConfig::pes()).unwrap());
    let map = SimHashMap::create(&alloc, 8).unwrap();
    map.populate(&alloc, 64).unwrap();
    let reclaimer = Reclaimer::new();

    // --- Guard-based reads, with nesting -------------------------------
    let ctx = rt.register();
    {
        let outer = rwle.read_lock(&ctx);
        assert!(outer.is_outermost());
        let v = map.lookup(&mut outer.access(), 7).unwrap();
        println!("guard read: key 7 -> {v:?}");
        {
            // Nested acquisition is free: only the outermost guard flips
            // the epoch clock.
            let inner = rwle.read_lock(&ctx);
            assert!(!inner.is_outermost());
            let v2 = map.lookup(&mut inner.access(), 8).unwrap();
            println!("nested read: key 8 -> {v2:?}");
        }
    } // epoch exited here

    // --- Writer removes nodes; reclaimer recycles them ------------------
    let mut wctx = rt.register();
    let mut st = ThreadStats::new();
    let before = alloc.stats().live_blocks;
    for key in 0..32u64 {
        let removed = rwle.write_cs(&mut wctx, &mut st, &mut |acc| map.remove(acc, key));
        if let Some(node) = removed {
            reclaimer.retire(node.to_word());
        }
    }
    println!("retired 32 nodes; pending = {}", reclaimer.pending());

    // After a grace period (no readers active), everything is freeable.
    for word in reclaimer.drain(rwle.epochs(), None) {
        alloc.free_sized(Addr::from_word(word), NODE_WORDS);
    }
    let after = alloc.stats().live_blocks;
    println!(
        "live blocks: {before} -> {after} (recycled {} nodes)",
        before - after
    );
    assert_eq!(before - after, 32);
}
