//! End-to-end epoch-based reclamation: removed hashmap nodes are retired
//! to an [`epoch::Reclaimer`] and recycled through the allocator once a
//! grace period has drained every uninstrumented reader.
//!
//! Safety argument for this configuration (PES has one lock word): epoch
//! clocks cover every uninstrumented reader, and ROT writers are
//! serialized with all other writers by the single lock word. Hence
//! after one grace period nobody can hold a retired pointer. (OPT lays
//! the ROT and NS locks out as two words so that ROT and HTM write
//! *bodies* may overlap; frees would then additionally need to wait for
//! a ROT-lock turnover — which is why the benchmarks defer reclamation
//! to the end of the run instead.)

use std::sync::Arc;

use hrwle::epoch::Reclaimer;
use hrwle::htm::{HtmConfig, HtmRuntime};
use hrwle::rwle::{RwLe, RwLeConfig};
use hrwle::simmem::{Addr, SharedMem, SimAlloc};
use hrwle::stats::ThreadStats;
use hrwle::workloads::hashmap::{SimHashMap, NODE_WORDS};

#[test]
fn removed_nodes_are_recycled_safely() {
    const WRITERS: usize = 2;
    const READERS: usize = 2;
    const OPS: u64 = 400;
    const KEYS: u64 = 32;

    let mem = Arc::new(SharedMem::new_lines(64 * 1024));
    let rt = HtmRuntime::new(Arc::clone(&mem), HtmConfig::default());
    let alloc = SimAlloc::new(Arc::clone(&mem));
    // PES: one lock word — required for safe reclamation, see header.
    let rwle = Arc::new(RwLe::new(&alloc, WRITERS + READERS, RwLeConfig::pes()).unwrap());
    let map = SimHashMap::create(&alloc, 4).unwrap();
    map.populate(&alloc, KEYS).unwrap();
    let reclaimer = Arc::new(Reclaimer::new());

    let baseline_live = alloc.stats().live_blocks;

    std::thread::scope(|s| {
        for _ in 0..WRITERS {
            let rt = Arc::clone(&rt);
            let rwle = Arc::clone(&rwle);
            let reclaimer = Arc::clone(&reclaimer);
            let (alloc, map) = (&alloc, &map);
            s.spawn(move || {
                let mut ctx = rt.register();
                let mut st = ThreadStats::new();
                let tid = ctx.slot();
                let mut spare: Option<Addr> = None;
                for i in 0..OPS {
                    let key = (i * 7 + tid as u64) % KEYS;
                    if i % 2 == 0 {
                        let node = match spare.take() {
                            Some(n) => {
                                rt.mem().store(n, key);
                                rt.mem().store(n.offset(1), key);
                                rt.mem().store(n.offset(2), Addr::NULL.to_word());
                                n
                            }
                            None => map.make_node(alloc, key, key).unwrap(),
                        };
                        if !rwle.write_cs(&mut ctx, &mut st, &mut |acc| map.insert(acc, node)) {
                            spare = Some(node);
                        }
                    } else {
                        let removed =
                            rwle.write_cs(&mut ctx, &mut st, &mut |acc| map.remove(acc, key));
                        if let Some(node) = removed {
                            // Retire; a grace period later it is freed and
                            // recycled by the allocator.
                            reclaimer.retire(node.to_word());
                        }
                    }
                    // Opportunistically free anything past its grace period.
                    for word in reclaimer.try_flush(rwle.epochs()) {
                        alloc.free_sized(Addr::from_word(word), NODE_WORDS);
                    }
                }
            });
        }
        for r in 0..READERS {
            let rt = Arc::clone(&rt);
            let rwle = Arc::clone(&rwle);
            let map = &map;
            s.spawn(move || {
                let mut ctx = rt.register();
                let mut st = ThreadStats::new();
                for i in 0..OPS * 2 {
                    let key = (i * 3 + r as u64) % KEYS;
                    let v = rwle.read_cs(&mut ctx, &mut st, &mut |acc| map.lookup(acc, key));
                    if let Some(v) = v {
                        assert_eq!(v, key, "reader observed a recycled/torn node");
                    }
                }
            });
        }
    });

    // Drain everything still pending; the allocator must balance.
    let ctx = rt.register();
    let _ = ctx; // (not strictly needed; drain only reads clocks)
    for word in reclaimer.drain(rwle.epochs(), None) {
        alloc.free_sized(Addr::from_word(word), NODE_WORDS);
    }
    assert_eq!(reclaimer.pending(), 0);

    // Every key present maps to itself and the structure is consistent.
    let ctx2 = rt.register();
    let mut nt = ctx2.non_tx();
    let len = map.len(&mut nt).unwrap();
    assert!(len <= KEYS);
    // live_blocks = initial population ± net inserts/removes; it must at
    // least never exceed what an unreclaimed run would hold.
    let live = alloc.stats().live_blocks;
    assert!(
        live <= baseline_live + WRITERS as u64 * 2,
        "reclamation failed to recycle nodes: live={live} baseline={baseline_live}"
    );
}
