//! An ordered `u64 → u64` map laid out for the native store's traffic:
//! point lookups over a key set far larger than the cache, short range
//! walks, and every mutation applied twice.
//!
//! The shape is a B+-tree with **fat leaves**. A leaf is eight cache
//! lines — a length word and 31 keys (`LEAF_CAP`) in the first four, the
//! values in the last four — so a lookup that misses the cache misses on
//! one leaf, not on one node per level as `BTreeMap`'s six-deep descent
//! over a 250 k-key shard does. Everything above the leaves (12 bytes
//! per leaf, ~100 KB for such a shard) is small enough to stay cached.
//! Nodes live in two arenas and name each other by `u32` index, so the
//! map is two allocations however large it grows, and grows them only
//! as keys arrive.
//!
//! Every node is **asked for whole before it is searched**: one
//! prefetch per cache line, so the lines of a routing node (mostly in
//! the outer cache levels) or of a leaf (mostly in memory) arrive
//! together rather than one per step of the binary search, and a
//! leaf's value lines are on their way before the key is found.
//!
//! A lookup is two steps, [`LeafMap::locate`] (the descent, ending with
//! the request for the leaf) and [`LeafMap::get_at`] (the search inside
//! the leaf), so a caller with several independent keys in hand can
//! locate them all before it searches any and have the leaf misses
//! overlap. [`LeafMap::get`] is the two back to back.
//!
//! **Splits** move half of a full node to a new right sibling, except at
//! the two ends of the key space: an insert beyond the last key opens a
//! fresh right leaf and leaves the full one full, an insert before the
//! first key moves the full leaf's contents right and keeps the new key
//! alone on the left. Ascending and descending loads therefore fill
//! leaves completely (a half split would leave them at 50 % and double
//! the map's memory). **Removal** never merges: a node is unlinked and
//! recycled when it holds nothing (free-at-empty), and the tree loses
//! its routing levels only when it empties altogether. Split and unlink
//! work is one node per level, so neither grows with the map.
//!
//! Separators are real keys and routing only ever asks "is this
//! separator `<=` the key", so `0` and `u64::MAX` are ordinary keys.

use std::fmt;
use std::ops::RangeInclusive;

/// Pairs per leaf: with the length word, four cache lines of keys and
/// four of values.
const LEAF_CAP: usize = 31;

/// Children per inner node.
const INNER_CAP: usize = 64;

/// Eight cache lines of pairs, sorted by key in `keys[..len]`.
#[derive(Clone, Copy)]
#[repr(C, align(64))]
struct Leaf {
    len: u32,
    keys: [u64; LEAF_CAP],
    vals: [u64; LEAF_CAP],
}

impl Leaf {
    const EMPTY: Leaf = Leaf {
        len: 0,
        keys: [0; LEAF_CAP],
        vals: [0; LEAF_CAP],
    };

    #[inline]
    fn keys(&self) -> &[u64] {
        &self.keys[..self.len as usize]
    }

    fn insert_at(&mut self, pos: usize, key: u64, value: u64) {
        let len = self.len as usize;
        self.keys.copy_within(pos..len, pos + 1);
        self.vals.copy_within(pos..len, pos + 1);
        self.keys[pos] = key;
        self.vals[pos] = value;
        self.len += 1;
    }

    fn remove_at(&mut self, pos: usize) {
        let len = self.len as usize;
        self.keys.copy_within(pos + 1..len, pos);
        self.vals.copy_within(pos + 1..len, pos);
        self.len -= 1;
    }

    /// Moves the pairs from `at` on into a new leaf.
    fn split_off(&mut self, at: usize) -> Leaf {
        let len = self.len as usize;
        let mut right = Leaf::EMPTY;
        right.keys[..len - at].copy_from_slice(&self.keys[at..len]);
        right.vals[..len - at].copy_from_slice(&self.vals[at..len]);
        right.len = (len - at) as u32;
        self.len = at as u32;
        right
    }
}

/// One routing node: child `i` holds the keys `k` with
/// `keys[i] <= k < keys[i + 1]`; `keys[0]` is never consulted (child 0
/// takes everything below `keys[1]`), and the node's own bounds are its
/// ancestors' business.
#[derive(Clone, Copy)]
struct Inner {
    len: u32,
    kids: [u32; INNER_CAP],
    keys: [u64; INNER_CAP],
}

impl Inner {
    const EMPTY: Inner = Inner {
        len: 0,
        kids: [0; INNER_CAP],
        keys: [0; INNER_CAP],
    };

    /// Index of the child that `key` routes to.
    #[inline]
    fn child_of(&self, key: u64) -> usize {
        self.keys[1..self.len as usize].partition_point(|&sep| sep <= key)
    }

    fn insert_at(&mut self, pos: usize, sep: u64, kid: u32) {
        let len = self.len as usize;
        self.keys.copy_within(pos..len, pos + 1);
        self.kids.copy_within(pos..len, pos + 1);
        self.keys[pos] = sep;
        self.kids[pos] = kid;
        self.len += 1;
    }

    fn remove_at(&mut self, pos: usize) {
        let len = self.len as usize;
        self.keys.copy_within(pos + 1..len, pos);
        self.kids.copy_within(pos + 1..len, pos);
        self.len -= 1;
    }

    /// Moves the children from `at` on into a new node.
    fn split_off(&mut self, at: usize) -> Inner {
        let len = self.len as usize;
        let mut right = Inner::EMPTY;
        right.keys[..len - at].copy_from_slice(&self.keys[at..len]);
        right.kids[..len - at].copy_from_slice(&self.kids[at..len]);
        right.len = (len - at) as u32;
        self.len = at as u32;
        right
    }
}

/// Where a key lives if it is present: the result of
/// [`LeafMap::locate`], good for [`LeafMap::get_at`] and
/// [`LeafMap::range_at`] on the same map until its next mutation.
#[derive(Debug, Clone, Copy)]
pub struct Spot {
    leaf: u32,
    /// Lower bound of the next leaf in key order; `None` on the last.
    upper: Option<u64>,
}

/// The map. See the module docs for the layout.
///
/// A clone is two `memcpy`s of arenas sized exactly to the nodes in
/// use, and has the original's layout: the native store builds one copy
/// of a shard and clones it into the second.
#[derive(Clone)]
pub struct LeafMap {
    leaves: Vec<Leaf>,
    inners: Vec<Inner>,
    /// Unlinked nodes awaiting reuse.
    free_leaves: Vec<u32>,
    free_inners: Vec<u32>,
    /// The root: an inner node when `height > 0`, else the one leaf.
    root: u32,
    /// Inner levels above the leaves.
    height: u32,
    len: usize,
    /// Descent scratch of `insert`/`remove`: `(inner node, child taken)`
    /// from the root down. Kept here so neither allocates once warm.
    path: Vec<(u32, u32)>,
}

impl Default for LeafMap {
    fn default() -> LeafMap {
        LeafMap::new()
    }
}

impl LeafMap {
    /// An empty map: one empty leaf and nothing else.
    pub fn new() -> LeafMap {
        LeafMap {
            leaves: vec![Leaf::EMPTY],
            inners: Vec::new(),
            free_leaves: Vec::new(),
            free_inners: Vec::new(),
            root: 0,
            height: 0,
            len: 0,
            path: Vec::new(),
        }
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The descent both halves of the API share: from the root to the
    /// leaf `key` belongs to, every node asked for whole before it is
    /// searched, `step(node, its contents, child taken)` at each routing
    /// level. Returns the leaf, requested but not read.
    #[inline]
    fn walk(&self, key: u64, mut step: impl FnMut(u32, &Inner, usize)) -> u32 {
        let mut node = self.root;
        for _ in 0..self.height {
            let inner = &self.inners[node as usize];
            prefetch(inner);
            let i = inner.child_of(key);
            step(node, inner, i);
            node = inner.kids[i];
        }
        prefetch(&self.leaves[node as usize]);
        node
    }

    /// Descends to the leaf `key` belongs to and asks the cache for it,
    /// without reading it: the first half of a lookup.
    #[inline]
    pub fn locate(&self, key: u64) -> Spot {
        let mut upper = None;
        let leaf = self.walk(key, |_, inner, i| {
            if i + 1 < inner.len as usize {
                upper = Some(inner.keys[i + 1]);
            }
        });
        Spot { leaf, upper }
    }

    /// The second half of a lookup: searches the located leaf.
    #[inline]
    pub fn get_at(&self, spot: Spot, key: u64) -> Option<u64> {
        let leaf = &self.leaves[spot.leaf as usize];
        let i = leaf.keys().binary_search(&key).ok()?;
        Some(leaf.vals[i])
    }

    /// Looks `key` up.
    pub fn get(&self, key: u64) -> Option<u64> {
        self.get_at(self.locate(key), key)
    }

    /// Appends the pairs with keys in `keys`, ascending, to `out`.
    pub fn range(&self, keys: RangeInclusive<u64>, out: &mut Vec<(u64, u64)>) {
        self.range_at(self.locate(*keys.start()), keys, out);
    }

    /// [`LeafMap::range`] from an already located `keys.start()`.
    pub fn range_at(&self, mut spot: Spot, keys: RangeInclusive<u64>, out: &mut Vec<(u64, u64)>) {
        let (mut from, last) = keys.into_inner();
        loop {
            let leaf = &self.leaves[spot.leaf as usize];
            let ks = leaf.keys();
            let first = ks.partition_point(|&k| k < from);
            for (&key, &value) in ks[first..].iter().zip(&leaf.vals[first..]) {
                if key > last {
                    return;
                }
                out.push((key, value));
            }
            // The next leaf is the leftmost one of the subtree whose
            // separator is `upper`: every separator inside that subtree
            // is larger, so locating `upper` itself lands there.
            match spot.upper {
                Some(next) if next <= last => {
                    from = next;
                    spot = self.locate(next);
                }
                _ => return,
            }
        }
    }

    /// Descends to `key`'s leaf, recording the way in `self.path`.
    /// Returns the leaf and whether the descent hugged the left and the
    /// right edge of the tree all the way.
    fn descend(&mut self, key: u64) -> (u32, bool, bool) {
        let mut path = std::mem::take(&mut self.path);
        path.clear();
        let (mut leftmost, mut rightmost) = (true, true);
        let leaf = self.walk(key, |node, inner, i| {
            leftmost &= i == 0;
            rightmost &= i + 1 == inner.len as usize;
            path.push((node, i as u32));
        });
        self.path = path;
        (leaf, leftmost, rightmost)
    }

    /// Inserts or updates `key`, returning the value it replaced.
    pub fn insert(&mut self, key: u64, value: u64) -> Option<u64> {
        let (id, leftmost, rightmost) = self.descend(key);
        let leaf = &mut self.leaves[id as usize];
        let pos = match leaf.keys().binary_search(&key) {
            Ok(i) => return Some(std::mem::replace(&mut leaf.vals[i], value)),
            Err(pos) => pos,
        };
        self.len += 1;
        if (leaf.len as usize) < LEAF_CAP {
            leaf.insert_at(pos, key, value);
            return None;
        }
        // Full. At either end of the key space the full leaf stays full
        // (module docs); anywhere else it gives up its upper half.
        let at = if rightmost && pos == LEAF_CAP {
            LEAF_CAP
        } else if leftmost && pos == 0 {
            0
        } else {
            LEAF_CAP / 2
        };
        let mut right = leaf.split_off(at);
        if pos < at || at == 0 {
            leaf.insert_at(pos, key, value);
        } else {
            right.insert_at(pos - at, key, value);
        }
        let sep = right.keys[0];
        let right = alloc(&mut self.leaves, &mut self.free_leaves, right);
        self.add_child(sep, right, rightmost);
        None
    }

    /// Links `kid`, whose keys start at `sep`, to the right of the child
    /// the recorded path took, splitting full ancestors on the way up.
    fn add_child(&mut self, mut sep: u64, mut kid: u32, rightmost: bool) {
        while let Some((id, taken)) = self.path.pop() {
            let inner = &mut self.inners[id as usize];
            let pos = taken as usize + 1;
            if (inner.len as usize) < INNER_CAP {
                inner.insert_at(pos, sep, kid);
                return;
            }
            // The leaf rule one level up: an append leaves a full node
            // full, so an ascending load fills the routing levels too.
            let at = if rightmost && pos == INNER_CAP {
                INNER_CAP
            } else {
                INNER_CAP / 2
            };
            let mut right = inner.split_off(at);
            if pos < at {
                inner.insert_at(pos, sep, kid);
            } else {
                right.insert_at(pos - at, sep, kid);
            }
            sep = right.keys[0];
            kid = alloc(&mut self.inners, &mut self.free_inners, right);
        }
        // The root itself split: a new root over the two halves.
        let mut root = Inner::EMPTY;
        root.insert_at(0, 0, self.root);
        root.insert_at(1, sep, kid);
        self.root = alloc(&mut self.inners, &mut self.free_inners, root);
        self.height += 1;
    }

    /// Removes `key`, returning its value if it was present.
    pub fn remove(&mut self, key: u64) -> Option<u64> {
        let (id, ..) = self.descend(key);
        let leaf = &mut self.leaves[id as usize];
        let i = leaf.keys().binary_search(&key).ok()?;
        let old = leaf.vals[i];
        leaf.remove_at(i);
        self.len -= 1;
        if leaf.len == 0 && self.height > 0 {
            self.unlink(id);
        }
        Some(old)
    }

    /// Takes the emptied leaf `id` out of the tree along the recorded
    /// path, with every ancestor it was the last child of.
    fn unlink(&mut self, id: u32) {
        while let Some((parent, taken)) = self.path.pop() {
            let inner = &mut self.inners[parent as usize];
            inner.remove_at(taken as usize);
            if inner.len > 0 {
                self.free_leaves.push(id);
                return;
            }
            self.free_inners.push(parent);
        }
        // Every level emptied: the map is one empty leaf again.
        self.root = id;
        self.height = 0;
    }

    /// Every pair, ascending.
    fn pairs(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::with_capacity(self.len);
        self.range(0..=u64::MAX, &mut out);
        out
    }
}

/// Stores `node` in a recycled slot of `arena`, or a new one.
fn alloc<T>(arena: &mut Vec<T>, free: &mut Vec<u32>, node: T) -> u32 {
    match free.pop() {
        Some(id) => {
            arena[id as usize] = node;
            id
        }
        None => {
            let id = u32::try_from(arena.len()).expect("more than u32::MAX nodes in one map");
            arena.push(node);
            id
        }
    }
}

/// Asks the cache for all of `node`, one request per cache line, so the
/// lines arrive together instead of one per step of the search.
#[inline]
fn prefetch<T>(node: &T) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let base = std::ptr::from_ref(node).cast::<i8>();
        for offset in (0..size_of::<T>()).step_by(64) {
            // SAFETY: a prefetch is a hint with no architectural effect
            // — it neither faults nor reads — and the address lies
            // inside `*node` in any case.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(base.wrapping_add(offset)) };
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = node;
}

/// Contents, not layout: two maps holding the same pairs are equal
/// whatever order of inserts and removes built them.
impl PartialEq for LeafMap {
    fn eq(&self, other: &LeafMap) -> bool {
        self.len == other.len && self.pairs() == other.pairs()
    }
}

impl fmt::Debug for LeafMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.pairs()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    impl LeafMap {
        /// Walks the whole tree and checks what the module docs promise:
        /// sorted leaves, none empty below a routing level, every key
        /// inside the bounds its ancestors' separators give it, `len`
        /// right, and every arena slot either reachable or on a free
        /// list, never both.
        fn audit(&self) {
            let mut seen = (
                vec![false; self.leaves.len()],
                vec![false; self.inners.len()],
            );
            let pairs = self.audit_node(self.root, self.height, None, None, &mut seen);
            assert_eq!(pairs, self.len, "len");
            for (free, seen) in [
                (&self.free_leaves, &mut seen.0),
                (&self.free_inners, &mut seen.1),
            ] {
                for &id in free {
                    assert!(!seen[id as usize], "node {id} is linked and free");
                    seen[id as usize] = true;
                }
                assert!(seen.iter().all(|&s| s), "a node is neither linked nor free");
            }
        }

        fn audit_node(
            &self,
            id: u32,
            level: u32,
            lo: Option<u64>,
            hi: Option<u64>,
            seen: &mut (Vec<bool>, Vec<bool>),
        ) -> usize {
            let inside = |k: u64| lo.is_none_or(|lo| lo <= k) && hi.is_none_or(|hi| k < hi);
            if level == 0 {
                assert!(!std::mem::replace(&mut seen.0[id as usize], true));
                let leaf = &self.leaves[id as usize];
                assert!(leaf.len > 0 || self.height == 0, "empty leaf {id} linked");
                assert!(leaf.keys().windows(2).all(|w| w[0] < w[1]), "leaf {id}");
                assert!(leaf.keys().iter().all(|&k| inside(k)), "leaf {id} bounds");
                return leaf.len as usize;
            }
            assert!(!std::mem::replace(&mut seen.1[id as usize], true));
            let inner = &self.inners[id as usize];
            let len = inner.len as usize;
            assert!(len > 0, "empty inner {id} linked");
            let seps = &inner.keys[1..len];
            assert!(seps.windows(2).all(|w| w[0] < w[1]), "inner {id}");
            assert!(seps.iter().all(|&k| inside(k)), "inner {id} bounds");
            (0..len)
                .map(|i| {
                    let lo = if i == 0 { lo } else { Some(inner.keys[i]) };
                    let hi = if i + 1 == len {
                        hi
                    } else {
                        Some(inner.keys[i + 1])
                    };
                    self.audit_node(inner.kids[i], level - 1, lo, hi, seen)
                })
                .sum()
        }
    }

    /// Raw key material, projected onto one of the universes below.
    #[derive(Debug, Clone)]
    enum Op {
        Insert(u64, u64),
        Remove(u64),
        Get(u64),
        Located(u64),
        Range(u64, u64),
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            4 => (any::<u64>(), any::<u64>()).prop_map(|(k, v)| Op::Insert(k, v)),
            3 => any::<u64>().prop_map(Op::Remove),
            1 => any::<u64>().prop_map(Op::Get),
            1 => any::<u64>().prop_map(Op::Located),
            1 => (any::<u64>(), any::<u64>()).prop_map(|(a, b)| Op::Range(a, b)),
        ]
    }

    /// Three key universes: 40 keys (one or two leaves, emptied and
    /// refilled all the time), 5 000 (two routing levels), and 256 keys
    /// spread evenly over all of `u64`, `0` and `u64::MAX` among them.
    fn project(universe: usize, raw: u64) -> u64 {
        match universe {
            0 => raw % 40,
            1 => raw % 5000,
            _ => raw % 256 * (u64::MAX / 255),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn matches_btreemap_model(
            ops in prop::collection::vec(op(), 1..4000),
            universe in 0usize..3,
        ) {
            let key = |raw| project(universe, raw);
            let mut map = LeafMap::new();
            let mut model: BTreeMap<u64, u64> = BTreeMap::new();
            let mut out = Vec::new();
            if universe == 1 {
                // Start two routing levels deep with every node full, so
                // the first inserts split leaves *and* routing nodes.
                for k in (0..5000).step_by(2) {
                    map.insert(k, k);
                    model.insert(k, k);
                }
                prop_assert_eq!(map.height, 2);
            }
            for op in &ops {
                match *op {
                    Op::Insert(k, v) => {
                        prop_assert_eq!(map.insert(key(k), v), model.insert(key(k), v));
                    }
                    Op::Remove(k) => {
                        prop_assert_eq!(map.remove(key(k)), model.remove(&key(k)));
                    }
                    Op::Get(k) => {
                        prop_assert_eq!(map.get(key(k)), model.get(&key(k)).copied());
                    }
                    Op::Located(k) => {
                        // One located leaf answers for every key in it,
                        // and for the absent ones around them.
                        let spot = map.locate(key(k));
                        prop_assert_eq!(map.get_at(spot, key(k)), model.get(&key(k)).copied());
                    }
                    Op::Range(a, b) => {
                        // Half of these are empty (`a > b`).
                        let (a, b) = (key(a), key(b));
                        out.clear();
                        out.push((7, 7));
                        map.range(a..=b, &mut out);
                        let want: Vec<(u64, u64)> = if a <= b {
                            model.range(a..=b).map(|(&k, &v)| (k, v)).collect()
                        } else {
                            Vec::new()
                        };
                        prop_assert_eq!(out[0], (7, 7));
                        prop_assert_eq!(&out[1..], &want[..]);
                    }
                }
                prop_assert_eq!(map.len(), model.len());
            }
            map.audit();
            let all: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
            prop_assert_eq!(map.pairs(), all);
            // Draining it leaves one empty leaf and no routing level.
            for &k in model.keys() {
                prop_assert_eq!(map.remove(k), model.get(&k).copied());
            }
            map.audit();
            prop_assert!(map.is_empty() && map.height == 0);
            prop_assert_eq!(map.get(0), None);
        }
    }

    const FULL_LEAVES: usize = 200;

    /// The prefill's shape: ascending keys fill every leaf, and every
    /// routing node but the last of its level, to the brim.
    #[test]
    fn ascending_inserts_fill_leaves_completely() {
        let mut map = LeafMap::new();
        for k in 0..(FULL_LEAVES * LEAF_CAP) as u64 {
            map.insert(k, k);
        }
        map.audit();
        assert_eq!(map.leaves.len(), FULL_LEAVES);
        // 200 leaves under full 64-way nodes: 3 full, 1 partial, 1 root.
        assert_eq!(map.inners.len(), FULL_LEAVES.div_ceil(INNER_CAP) + 1);
        assert!(map.leaves.iter().all(|l| l.len as usize == LEAF_CAP));
    }

    #[test]
    fn descending_inserts_fill_leaves_completely() {
        let mut map = LeafMap::new();
        for k in (0..(FULL_LEAVES * LEAF_CAP) as u64).rev() {
            map.insert(k, k);
        }
        map.audit();
        assert_eq!(map.leaves.len(), FULL_LEAVES);
        assert!(map.leaves.iter().all(|l| l.len as usize == LEAF_CAP));
    }

    /// Free-at-empty gives memory back to the map: a window of live keys
    /// sliding upwards through the key space reuses the leaves it
    /// empties behind itself instead of growing the arena.
    #[test]
    fn a_sliding_window_recycles_its_leaves() {
        const WINDOW: u64 = 1000;
        let mut map = LeafMap::new();
        for k in 0..50 * WINDOW {
            map.insert(k, k);
            if k >= WINDOW {
                assert_eq!(map.remove(k - WINDOW), Some(k - WINDOW));
            }
        }
        map.audit();
        assert_eq!(map.len(), WINDOW as usize);
        let needed = (WINDOW as usize).div_ceil(LEAF_CAP);
        assert!(
            map.leaves.len() <= needed + 2,
            "{} leaves allocated for a window that fits {needed}",
            map.leaves.len()
        );
    }

    #[test]
    fn equality_is_by_contents() {
        let (mut up, mut down) = (LeafMap::new(), LeafMap::new());
        for k in 0..5000 {
            up.insert(k, k * 2);
            down.insert(4999 - k, (4999 - k) * 2);
        }
        // Different shapes (`down` has half-full routing nodes) ...
        assert_ne!(up.inners.len(), down.inners.len());
        // ... same pairs.
        assert_eq!(up, down);
        down.insert(77, 0);
        assert_ne!(up, down);
        down.insert(77, 154);
        down.insert(u64::MAX, 1);
        assert_ne!(up, down);
        down.remove(u64::MAX);
        assert_eq!(up, down);
    }
}
