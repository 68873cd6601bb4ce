//! Property-based tests: the simulated-memory data structures must match
//! reference models from `std::collections` under arbitrary operation
//! sequences.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;

use htm::{HtmConfig, HtmRuntime};
use simmem::{SharedMem, SimAlloc};
use workloads::hashmap::SimHashMap;
use workloads::kyoto::CacheDb;

#[derive(Debug, Clone)]
enum Op {
    Insert(u64, u64),
    Remove(u64),
    Lookup(u64),
}

fn op_strategy(key_space: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..key_space, any::<u64>()).prop_map(|(k, v)| Op::Insert(k, v)),
        (0..key_space).prop_map(Op::Remove),
        (0..key_space).prop_map(Op::Lookup),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hashmap_matches_btreemap_model(
        ops in prop::collection::vec(op_strategy(64), 1..200),
        buckets in 1u32..8,
    ) {
        let mem = Arc::new(SharedMem::new_lines(16 * 1024));
        let rt = HtmRuntime::new(Arc::clone(&mem), HtmConfig::default());
        let alloc = SimAlloc::new(mem);
        let map = SimHashMap::create(&alloc, buckets).unwrap();
        let ctx = rt.register();
        let mut nt = ctx.non_tx();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();

        for op in &ops {
            match *op {
                Op::Insert(k, v) => {
                    let node = map.make_node(&alloc, k, v).unwrap();
                    let linked = map.insert(&mut nt, node).unwrap();
                    let was_new = model.insert(k, v).is_none();
                    prop_assert_eq!(linked, was_new);
                }
                Op::Remove(k) => {
                    let removed = map.remove(&mut nt, k).unwrap();
                    prop_assert_eq!(removed.is_some(), model.remove(&k).is_some());
                }
                Op::Lookup(k) => {
                    prop_assert_eq!(map.lookup(&mut nt, k).unwrap(), model.get(&k).copied());
                }
            }
        }
        prop_assert_eq!(map.len(&mut nt).unwrap(), model.len() as u64);
        for (&k, &v) in &model {
            prop_assert_eq!(map.lookup(&mut nt, k).unwrap(), Some(v));
        }
    }

    #[test]
    fn kyoto_bst_matches_btreemap_model(
        ops in prop::collection::vec(op_strategy(48), 1..150),
    ) {
        let mem = Arc::new(SharedMem::new_lines(16 * 1024));
        let rt = HtmRuntime::new(Arc::clone(&mem), HtmConfig::default());
        let alloc = SimAlloc::new(mem);
        let db = CacheDb::create(&alloc, 3, 4).unwrap();
        let ctx = rt.register();
        let mut nt = ctx.non_tx();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();

        for op in &ops {
            match *op {
                Op::Insert(k, v) => {
                    let node = db.make_node(&alloc, k, v).unwrap();
                    let linked = db.set(&mut nt, node).unwrap();
                    let was_new = model.insert(k, v).is_none();
                    prop_assert_eq!(linked, was_new);
                }
                Op::Remove(k) => {
                    let removed = db.remove(&mut nt, k).unwrap();
                    prop_assert_eq!(removed.is_some(), model.remove(&k).is_some());
                }
                Op::Lookup(k) => {
                    prop_assert_eq!(db.get(&mut nt, k).unwrap(), model.get(&k).copied());
                }
            }
        }
        prop_assert_eq!(db.count(&mut nt).unwrap(), model.len() as u64);
        for (&k, &v) in &model {
            prop_assert_eq!(db.get(&mut nt, k).unwrap(), Some(v));
        }
    }

    #[test]
    fn htm_transactions_apply_ops_atomically_or_not_at_all(
        ops in prop::collection::vec(op_strategy(32), 1..60),
        commit in any::<bool>(),
    ) {
        // Run the whole op sequence inside one HTM transaction; on commit
        // the model must match, on abort the memory must be untouched.
        let mem = Arc::new(SharedMem::new_lines(16 * 1024));
        let cfg = HtmConfig { htm_read_capacity: 100_000, htm_write_capacity: 100_000, ..HtmConfig::default() };
        let rt = HtmRuntime::new(Arc::clone(&mem), cfg);
        let alloc = SimAlloc::new(mem);
        let map = SimHashMap::create(&alloc, 4).unwrap();
        // Pre-allocate nodes outside the transaction.
        let nodes: Vec<_> = ops
            .iter()
            .map(|op| match *op {
                Op::Insert(k, v) => Some(map.make_node(&alloc, k, v).unwrap()),
                _ => None,
            })
            .collect();
        let mut ctx = rt.register();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut tx = ctx.begin(htm::TxMode::Htm);
        for (op, node) in ops.iter().zip(&nodes) {
            match *op {
                Op::Insert(k, v) => {
                    map.insert(&mut tx, node.unwrap()).unwrap();
                    model.insert(k, v);
                }
                Op::Remove(k) => {
                    map.remove(&mut tx, k).unwrap();
                    model.remove(&k);
                }
                Op::Lookup(k) => {
                    prop_assert_eq!(map.lookup(&mut tx, k).unwrap(), model.get(&k).copied());
                }
            }
        }
        if commit {
            tx.commit().unwrap();
            let mut nt = ctx.non_tx();
            prop_assert_eq!(map.len(&mut nt).unwrap(), model.len() as u64);
            for (&k, &v) in &model {
                prop_assert_eq!(map.lookup(&mut nt, k).unwrap(), Some(v));
            }
        } else {
            drop(tx); // rollback
            let mut nt = ctx.non_tx();
            prop_assert!(map.is_empty(&mut nt).unwrap(), "rollback left residue");
        }
    }
}
