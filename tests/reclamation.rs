//! Reclamation without a deferred-free queue: a hashmap node removed
//! inside `write_cs` goes back to the allocator the moment `write_cs`
//! returns, and the next insert may reuse it while readers keep running.
//!
//! The one rule (`workloads::sharded::ShardedKv::unlink`): a write section
//! returns only when no read section that could have reached the node it
//! unlinked still runs, so the node is unreferenced from then on.

use std::sync::Arc;

use hrwle::htm::{HtmConfig, HtmRuntime};
use hrwle::rwle::{RwLe, RwLeConfig};
use hrwle::sched;
use hrwle::simmem::{Addr, SharedMem, SimAlloc};
use hrwle::stats::ThreadStats;
use hrwle::workloads::hashmap::{SimHashMap, NODE_WORDS};

#[test]
fn removed_nodes_are_recycled_safely() {
    for cfg in [
        RwLeConfig::opt(),
        RwLeConfig::pes(),
        RwLeConfig::htm_only(),
        RwLeConfig::fair_htm_only(),
    ] {
        recycle_under(cfg);
    }
}

fn recycle_under(cfg: RwLeConfig) {
    const WRITERS: usize = 2;
    const READERS: usize = 2;
    const OPS: u64 = 400;
    const KEYS: u64 = 32;

    let mem = Arc::new(SharedMem::new_lines(64 * 1024));
    let rt = HtmRuntime::new(Arc::clone(&mem), HtmConfig::default());
    let alloc = SimAlloc::new(Arc::clone(&mem));
    let rwle = Arc::new(RwLe::new(&alloc, WRITERS + READERS, cfg).unwrap());
    let map = SimHashMap::create(&alloc, 4).unwrap();
    map.populate(&alloc, KEYS).unwrap();

    let baseline_live = alloc.stats().live_blocks;

    std::thread::scope(|s| {
        for _ in 0..WRITERS {
            let rt = Arc::clone(&rt);
            let rwle = Arc::clone(&rwle);
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
                    } else if let Some(node) =
                        rwle.write_cs(&mut ctx, &mut st, &mut |acc| map.remove(acc, key))
                    {
                        alloc.free_sized(node, NODE_WORDS);
                    }
                }
                if let Some(n) = spare {
                    alloc.free_sized(n, NODE_WORDS);
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
                        assert_eq!(v, key, "{cfg:?}: reader observed a recycled/torn node");
                    }
                }
            });
        }
    });

    // Every removed node was freed exactly once: the live blocks are the
    // starting ones less the keys that are gone.
    let ctx = rt.register();
    let len = map.len(&mut ctx.non_tx()).unwrap();
    assert!(len <= KEYS);
    assert_eq!(
        alloc.stats().live_blocks,
        baseline_live - KEYS + len,
        "{cfg:?}: nodes leaked or double-freed"
    );
}

/// The same rule on explored schedules, where a violation fails with its
/// seed instead of needing a lucky preemption. One bucket, so a lookup
/// walks the whole chain: the churned keys sit at its head, and the keys
/// that are never removed sit at its tail. The writer frees each removed
/// node at once and re-makes it under the same key with a new tag. The
/// re-made node's `next` is null until the insert links it, so a reader
/// still standing on it loses a tail key.
#[test]
fn recycled_nodes_are_invisible_on_every_explored_schedule() {
    for (name, cfg) in [
        ("reclaim-opt", RwLeConfig::opt()),
        ("reclaim-pes", RwLeConfig::pes()),
        ("reclaim-htm-only", RwLeConfig::htm_only()),
        ("reclaim-fair-htm-only", RwLeConfig::fair_htm_only()),
    ] {
        sched::explore(name, 0..150, |seed| recycle_on_schedule(cfg, seed));
    }
}

fn recycle_on_schedule(cfg: RwLeConfig, seed: u64) {
    const STABLE: u64 = 2;
    const CHURN: [u64; 3] = [100, 101, 102];
    let tag = |key: u64, n: u64| key << 32 | n;

    let mem = Arc::new(SharedMem::new_lines(256));
    let rt = HtmRuntime::new(Arc::clone(&mem), HtmConfig::default());
    let alloc = Arc::new(SimAlloc::new(Arc::clone(&mem)));
    let rwle = Arc::new(RwLe::new(&alloc, 3, cfg).unwrap());
    let map = Arc::new(SimHashMap::create(&alloc, 1).unwrap());
    map.populate(&alloc, STABLE).unwrap();
    for key in CHURN {
        map.push_fresh(&alloc, key, tag(key, 0)).unwrap();
    }

    let mut s = sched::Scheduler::new(seed);
    {
        let (rt, rwle) = (Arc::clone(&rt), Arc::clone(&rwle));
        let (alloc, map) = (Arc::clone(&alloc), Arc::clone(&map));
        s.spawn(move || {
            let mut ctx = rt.register();
            let mut st = ThreadStats::new();
            for n in 1..=4 {
                let key = CHURN[n as usize % CHURN.len()];
                let old = rwle
                    .write_cs(&mut ctx, &mut st, &mut |acc| map.remove(acc, key))
                    .expect("the only writer's key is present");
                alloc.free_sized(old, NODE_WORDS);
                let node = map.make_node(&alloc, key, tag(key, n)).unwrap();
                assert!(rwle.write_cs(&mut ctx, &mut st, &mut |acc| map.insert(acc, node)));
            }
        });
    }
    for _ in 0..2 {
        let (rt, rwle, map) = (Arc::clone(&rt), Arc::clone(&rwle), Arc::clone(&map));
        s.spawn(move || {
            let mut ctx = rt.register();
            let mut st = ThreadStats::new();
            for key in (0..STABLE).chain(CHURN) {
                let v = rwle.read_cs(&mut ctx, &mut st, &mut |acc| map.lookup(acc, key));
                if key < STABLE {
                    assert_eq!(v, Some(key), "lost key {key}: a reader held a freed node");
                } else if let Some(v) = v {
                    assert_eq!(v >> 32, key, "value {v:#x} under key {key}");
                }
            }
        });
    }
    s.run();
}
