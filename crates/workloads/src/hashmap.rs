//! The sensitivity-study hashmap (§4.1): `l` buckets, each a singly
//! linked list, synchronized by one elided read-write lock.
//!
//! Layout in simulated memory:
//!
//! * the bucket array — `l` words, each the head pointer of a list
//!   (encoded with [`Addr::to_word`]; null = empty);
//! * nodes — one cache line each, words `[key, value, next]`.
//!
//! One node per line means a lookup traversing `k` nodes puts `k` lines in
//! an HTM read set, which is exactly how the paper provokes capacity
//! aborts with 200-element buckets and avoids them with 50-element ones.

use htm::{AbortCause, MemAccess};
use simmem::{Addr, AllocError, SharedMem, SimAlloc};

/// Node field offsets.
const KEY: u32 = 0;
const VAL: u32 = 1;
const NEXT: u32 = 2;
/// Words allocated per node (rounds to one line).
pub const NODE_WORDS: u32 = 3;

/// A hashmap of singly linked buckets in simulated memory.
pub struct SimHashMap {
    buckets: Addr,
    num_buckets: u32,
}

impl SimHashMap {
    /// Creates a map with `num_buckets` empty buckets.
    pub fn create(alloc: &SimAlloc, num_buckets: u32) -> Result<Self, AllocError> {
        assert!(num_buckets > 0, "need at least one bucket");
        let buckets = alloc.alloc(num_buckets)?;
        // Bucket array must read as null, not zero (zero is a valid Addr).
        let mem = alloc_mem(alloc);
        for i in 0..num_buckets {
            mem.store(buckets.offset(i), Addr::NULL.to_word());
        }
        Ok(SimHashMap {
            buckets,
            num_buckets,
        })
    }

    /// Number of buckets.
    pub fn num_buckets(&self) -> u32 {
        self.num_buckets
    }

    #[inline]
    fn bucket_of(&self, key: u64) -> Addr {
        self.buckets.offset((key % self.num_buckets as u64) as u32)
    }

    /// Allocates and initializes a detached node (outside any critical
    /// section — the standard pre-allocation pattern under lock elision,
    /// since allocator metadata must not join the transaction footprint).
    pub fn make_node(&self, alloc: &SimAlloc, key: u64, value: u64) -> Result<Addr, AllocError> {
        let node = alloc.alloc(NODE_WORDS)?;
        let mem = alloc_mem(alloc);
        mem.store(node.offset(KEY), key);
        mem.store(node.offset(VAL), value);
        mem.store(node.offset(NEXT), Addr::NULL.to_word());
        Ok(node)
    }

    /// Looks `key` up, returning its value if present.
    pub fn lookup(&self, acc: &mut dyn MemAccess, key: u64) -> Result<Option<u64>, AbortCause> {
        let mut cur = Addr::from_word(acc.read(self.bucket_of(key))?);
        while !cur.is_null() {
            if acc.read(cur.offset(KEY))? == key {
                return Ok(Some(acc.read(cur.offset(VAL))?));
            }
            cur = Addr::from_word(acc.read(cur.offset(NEXT))?);
        }
        Ok(None)
    }

    /// Inserts the pre-built `node` at the bucket head, unless its key is
    /// already present (then the existing value is updated in place).
    ///
    /// Returns `true` if `node` was linked in (consumed), `false` if the
    /// key existed and `node` remains free for reuse by the caller.
    pub fn insert(&self, acc: &mut dyn MemAccess, node: Addr) -> Result<bool, AbortCause> {
        let key = acc.read(node.offset(KEY))?;
        let bucket = self.bucket_of(key);
        let head = acc.read(bucket)?;
        let mut cur = Addr::from_word(head);
        while !cur.is_null() {
            if acc.read(cur.offset(KEY))? == key {
                let new_val = acc.read(node.offset(VAL))?;
                acc.write(cur.offset(VAL), new_val)?;
                return Ok(false);
            }
            cur = Addr::from_word(acc.read(cur.offset(NEXT))?);
        }
        acc.write(node.offset(NEXT), head)?;
        acc.write(bucket, node.to_word())?;
        Ok(true)
    }

    /// Unlinks `key`, returning the removed node. Concurrent
    /// uninstrumented readers may still traverse it until the write
    /// section that ran this returns; after that it may be freed (see
    /// `ShardedKv::write_batch`). The figure benchmarks keep it until the run
    /// ends instead.
    pub fn remove(&self, acc: &mut dyn MemAccess, key: u64) -> Result<Option<Addr>, AbortCause> {
        let bucket = self.bucket_of(key);
        let mut prev: Option<Addr> = None;
        let mut cur = Addr::from_word(acc.read(bucket)?);
        while !cur.is_null() {
            let next = acc.read(cur.offset(NEXT))?;
            if acc.read(cur.offset(KEY))? == key {
                match prev {
                    Some(p) => acc.write(p.offset(NEXT), next)?,
                    None => acc.write(bucket, next)?,
                }
                return Ok(Some(cur));
            }
            prev = Some(cur);
            cur = Addr::from_word(next);
        }
        Ok(None)
    }

    /// Counts every element (test helper; large footprint).
    pub fn len(&self, acc: &mut dyn MemAccess) -> Result<u64, AbortCause> {
        let mut n = 0;
        for b in 0..self.num_buckets {
            let mut cur = Addr::from_word(acc.read(self.buckets.offset(b))?);
            while !cur.is_null() {
                n += 1;
                cur = Addr::from_word(acc.read(cur.offset(NEXT))?);
            }
        }
        Ok(n)
    }

    /// Returns `true` if the map holds no elements (test helper).
    pub fn is_empty(&self, acc: &mut dyn MemAccess) -> Result<bool, AbortCause> {
        Ok(self.len(acc)? == 0)
    }

    /// [`SimHashMap::insert`] with plain stores, bypassing the HTM layer
    /// like [`SimHashMap::populate`]: only for a map no other thread can
    /// reach yet. Like a session's put it takes a node first, so it needs
    /// a free one even to update; the node comes back as `Some` when the
    /// key was present and only its value changed.
    pub fn load_put(
        &self,
        alloc: &SimAlloc,
        key: u64,
        value: u64,
    ) -> Result<Option<Addr>, AllocError> {
        let node = self.make_node(alloc, key, value)?;
        let linked = self
            .insert(&mut Exclusive(alloc_mem(alloc)), node)
            .expect(NEVER_ABORTS);
        Ok((!linked).then_some(node))
    }

    /// [`SimHashMap::remove`] with plain stores (see
    /// [`SimHashMap::load_put`]); nothing can still reference the node.
    pub fn load_del(&self, mem: &SharedMem, key: u64) -> Option<Addr> {
        self.remove(&mut Exclusive(mem), key).expect(NEVER_ABORTS)
    }

    /// Links a new node for `key`, which must be absent, at its bucket
    /// head with plain stores: [`SimHashMap::populate`]'s step, which
    /// skips [`SimHashMap::insert`]'s walk of the chain.
    pub fn push_fresh(&self, alloc: &SimAlloc, key: u64, value: u64) -> Result<(), AllocError> {
        let node = self.make_node(alloc, key, value)?;
        let mem = alloc_mem(alloc);
        let bucket = self.bucket_of(key);
        mem.store(node.offset(NEXT), mem.load(bucket));
        mem.store(bucket, node.to_word());
        Ok(())
    }

    /// Populates the map single-threadedly with keys `0..n` (value =
    /// `key`), bypassing the HTM layer (initialization happens before any
    /// concurrency).
    pub fn populate(&self, alloc: &SimAlloc, n: u64) -> Result<(), AllocError> {
        (0..n).try_for_each(|key| self.push_fresh(alloc, key, key))
    }
}

const NEVER_ABORTS: &str = "plain memory access never aborts";

/// Plain loads and stores: the [`MemAccess`] of a map no other thread
/// can reach yet, so there is nothing to conflict with.
struct Exclusive<'a>(&'a SharedMem);

impl MemAccess for Exclusive<'_> {
    fn read(&mut self, addr: Addr) -> Result<u64, AbortCause> {
        Ok(self.0.load(addr))
    }

    fn write(&mut self, addr: Addr, val: u64) -> Result<(), AbortCause> {
        self.0.store(addr, val);
        Ok(())
    }

    fn cas(&mut self, addr: Addr, cur: u64, new: u64) -> Result<Result<u64, u64>, AbortCause> {
        Ok(self.0.compare_exchange(addr, cur, new))
    }

    fn is_speculative(&self) -> bool {
        false
    }
}

/// The allocator's backing memory.
///
/// Init-time helpers write directly to memory: single-threaded setup needs
/// no conflict tracking.
fn alloc_mem(alloc: &SimAlloc) -> &SharedMem {
    alloc.mem()
}

#[cfg(test)]
mod tests {
    use super::*;
    use htm::{HtmConfig, HtmRuntime, TxMode};
    use std::sync::Arc;

    fn setup(lines: u32) -> (Arc<HtmRuntime>, SimAlloc) {
        let mem = Arc::new(simmem::SharedMem::new_lines(lines));
        let rt = HtmRuntime::new(Arc::clone(&mem), HtmConfig::default());
        let alloc = SimAlloc::new(mem);
        (rt, alloc)
    }

    #[test]
    fn insert_lookup_remove_roundtrip() {
        let (rt, alloc) = setup(1024);
        let map = SimHashMap::create(&alloc, 8).unwrap();
        let ctx = rt.register();
        let mut nt = ctx.non_tx();
        for key in [0u64, 1, 7, 8, 15, 100] {
            let node = map.make_node(&alloc, key, key * 10).unwrap();
            assert!(map.insert(&mut nt, node).unwrap());
        }
        assert_eq!(map.lookup(&mut nt, 7).unwrap(), Some(70));
        assert_eq!(map.lookup(&mut nt, 8).unwrap(), Some(80));
        assert_eq!(map.lookup(&mut nt, 9).unwrap(), None);
        assert_eq!(map.len(&mut nt).unwrap(), 6);
        let removed = map.remove(&mut nt, 7).unwrap();
        assert!(removed.is_some());
        assert_eq!(map.lookup(&mut nt, 7).unwrap(), None);
        // Key 15 shares bucket 7 (15 % 8) and must survive.
        assert_eq!(map.lookup(&mut nt, 15).unwrap(), Some(150));
        assert_eq!(map.len(&mut nt).unwrap(), 5);
    }

    #[test]
    fn insert_existing_updates_in_place() {
        let (rt, alloc) = setup(512);
        let map = SimHashMap::create(&alloc, 4).unwrap();
        let ctx = rt.register();
        let mut nt = ctx.non_tx();
        let n1 = map.make_node(&alloc, 5, 50).unwrap();
        assert!(map.insert(&mut nt, n1).unwrap());
        let n2 = map.make_node(&alloc, 5, 99).unwrap();
        assert!(!map.insert(&mut nt, n2).unwrap(), "duplicate key: update");
        assert_eq!(map.lookup(&mut nt, 5).unwrap(), Some(99));
        assert_eq!(map.len(&mut nt).unwrap(), 1);
    }

    #[test]
    fn remove_middle_of_chain() {
        let (rt, alloc) = setup(512);
        let map = SimHashMap::create(&alloc, 1).unwrap(); // one chain
        let ctx = rt.register();
        let mut nt = ctx.non_tx();
        for key in 0..5u64 {
            let n = map.make_node(&alloc, key, key).unwrap();
            map.insert(&mut nt, n).unwrap();
        }
        map.remove(&mut nt, 2).unwrap().unwrap();
        for key in [0u64, 1, 3, 4] {
            assert_eq!(map.lookup(&mut nt, key).unwrap(), Some(key));
        }
        assert_eq!(map.lookup(&mut nt, 2).unwrap(), None);
    }

    #[test]
    fn populate_builds_exact_bucket_lengths() {
        let (rt, alloc) = setup(4096);
        let map = SimHashMap::create(&alloc, 4).unwrap();
        map.populate(&alloc, 4 * 50).unwrap();
        let ctx = rt.register();
        let mut nt = ctx.non_tx();
        assert_eq!(map.len(&mut nt).unwrap(), 200);
        // Keys are round-robin over buckets: every bucket holds 50.
        for key in 0..200u64 {
            assert_eq!(map.lookup(&mut nt, key).unwrap(), Some(key));
        }
    }

    #[test]
    fn long_chain_lookup_overflows_htm_capacity() {
        // 200-node chain, ~96-line budget: looking up the deep end must
        // abort with Capacity, the effect the paper's "high capacity"
        // scenario is built on.
        let (rt, alloc) = setup(8192);
        let map = SimHashMap::create(&alloc, 1).unwrap();
        map.populate(&alloc, 200).unwrap();
        let mut ctx = rt.register();
        let mut tx = ctx.begin(TxMode::Htm);
        // populate() pushes at the head, so key 0 is deepest.
        let res = map.lookup(&mut tx, 0);
        assert_eq!(res, Err(htm::AbortCause::Capacity));
        drop(tx);
        // The same lookup in a ROT succeeds (untracked reads).
        let mut rot = ctx.begin(TxMode::Rot);
        assert_eq!(map.lookup(&mut rot, 0).unwrap(), Some(0));
        rot.commit().unwrap();
    }

    #[test]
    fn empty_map_behaviour() {
        let (rt, alloc) = setup(256);
        let map = SimHashMap::create(&alloc, 4).unwrap();
        let ctx = rt.register();
        let mut nt = ctx.non_tx();
        assert!(map.is_empty(&mut nt).unwrap());
        assert_eq!(map.lookup(&mut nt, 1).unwrap(), None);
        assert_eq!(map.remove(&mut nt, 1).unwrap(), None);
    }
}
