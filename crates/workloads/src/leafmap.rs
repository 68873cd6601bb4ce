//! An ordered `u64 → u64` map laid out for the native store's traffic:
//! point lookups over a key set far larger than the cache, short range
//! walks, and one writer publishing versions to readers that never wait.
//!
//! The shape is a B+-tree with **fat leaves**. A leaf is eight cache
//! lines — a length word and 31 keys (`LEAF_CAP`) in the first four, the
//! values in the last four — so a lookup that misses the cache misses on
//! one leaf, not on one node per level as `BTreeMap`'s six-deep descent
//! over a 250 k-key shard does. Everything above the leaves (14 bytes
//! per leaf, ~115 KB for such a shard) is small enough to stay cached.
//! Nodes live in two arenas and name each other by `u32` index. An arena
//! is a directory of chunks, chunk `c` holding `8 << c` nodes: it grows
//! a chunk at a time as keys arrive and never moves a node. A chunk is
//! allocated, not zero-filled, so the pages of the part not yet handed
//! out are never touched and never made resident.
//!
//! **Sized builds.** A bulk build that knows how many pairs it will at
//! least hold ([`Builder::with_capacity`]) reserves the leaf chunks
//! `0..=k` that hold them as one block, aligned to 2 MiB once it spans
//! that much. The directory points into the block, so the chunk
//! geometry and the id to address arithmetic stay as they are, and
//! writes past the block grow the arena a chunk at a time. Before its
//! first write the build asks the kernel for transparent huge pages
//! over the block's whole 2 MiB regions that those pairs fill, so each
//! costs one page fault instead of 512. Only those: the kernel backs a
//! whole huge page at the first touch, so advising a region the build
//! fills in part would make up to 2 MiB resident that nothing uses, per
//! map, and a store has a map per shard. A `svc-read` shard (250 k pairs, 3.94 MiB of leaves)
//! gets one huge page for the first of its two regions; the 100 k-key
//! workloads' shards (100–200 KiB) get none. Where the kernel refuses
//! the advice, or the allocator hands back pages an earlier use already
//! touched, the block stays on 4 KiB pages.
//!
//! **Versions.** The map is copy-on-write. Its one writer changes a node
//! in place only if the node was allocated since the map's last
//! [`LeafMap::publish`]; any other node is first copied, together with
//! its ancestors up to the root (path copying), and the original is
//! *retired*. A published version is therefore never changed: a reader
//! that picked its root ([`Tree::pick`]) reads one image while the
//! writer builds the next. Retired nodes return to use at
//! [`LeafMap::reclaim`], which the writer calls once no reader can still
//! hold an older root — in the native store, after the grace period that
//! follows the flip. A map that is never published (the SGL canary's)
//! has only fresh nodes, so the same `insert` and `remove` change it in
//! place.
//!
//! Every node is **asked for whole before it is searched**: one
//! prefetch per cache line, so the lines of a routing node (mostly in
//! the outer cache levels) or of a leaf (mostly in memory) arrive
//! together rather than one per step of the binary search, and a
//! leaf's value lines are on their way before the key is found.
//!
//! A lookup is two steps, [`Snapshot::locate`] (the descent, ending with
//! the request for the leaf) and [`Snapshot::get_at`] (the search inside
//! the leaf), so a caller with several independent keys in hand can
//! locate them all before it searches any and have the leaf misses
//! overlap. [`Snapshot::get`] is the two back to back.
//!
//! **Splits** move half of a full node to a new right sibling, except at
//! the two ends of the key space: an insert beyond the last key opens a
//! fresh right leaf and leaves the full one full, an insert before the
//! first key moves the full leaf's contents right and keeps the new key
//! alone on the left. Ascending and descending loads therefore fill
//! leaves completely (a half split would leave them at 50 % and double
//! the map's memory). A sorted load does not take that path at all:
//! [`LeafMap::from_ascending`] builds the tree ascending inserts would,
//! bottom-up, each leaf written once and no descent per key, so the end
//! rules serve the appends that arrive at run time. **Removal** never
//! merges: a node is unlinked and recycled when it holds nothing
//! (free-at-empty), and the tree loses its routing levels only when it
//! empties altogether. Split, unlink and path-copy work is one node per
//! level, so none of them grows with the map.
//!
//! Separators are real keys and routing only ever asks "is this
//! separator `<=` the key", so `0` and `u64::MAX` are ordinary keys.

use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
use std::fmt;
use std::ops::RangeInclusive;
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::Arc;

use simmem::{madvise_hugepage, HUGE_PAGE};

/// Pairs per leaf: with the length word, four cache lines of keys and
/// four of values.
const LEAF_CAP: usize = 31;

/// Children per inner node: seven cache lines, so a path copy writes
/// about half of what 64 children cost, and a 250 k-key shard is still
/// three routing levels deep.
const INNER_CAP: usize = 32;

/// The length [`LeafMap::reclaim`] gives a node it frees when asked to
/// poison it: every search asserts that it never meets one.
const POISON: u32 = u32::MAX;

/// Eight cache lines of pairs, sorted by key in `keys[..len]`.
#[derive(Clone, Copy)]
#[repr(C, align(64))]
struct Leaf {
    len: u32,
    keys: [u64; LEAF_CAP],
    vals: [u64; LEAF_CAP],
    /// The version that allocated this node (see [`Node`]).
    born: u64,
}

impl Leaf {
    const EMPTY: Leaf = Leaf {
        len: 0,
        keys: [0; LEAF_CAP],
        vals: [0; LEAF_CAP],
        born: 0,
    };

    #[inline]
    fn keys(&self) -> &[u64] {
        let len = self.len as usize;
        assert!(len <= LEAF_CAP, "a reader reached a freed leaf");
        &self.keys[..len]
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
/// ancestors' business. Line-aligned, like a leaf, so a copy written
/// into one node never shares a line with a neighbour readers are on.
#[derive(Clone, Copy)]
#[repr(C, align(64))]
struct Inner {
    len: u32,
    kids: [u32; INNER_CAP],
    keys: [u64; INNER_CAP],
    /// The version that allocated this node (see [`Node`]).
    born: u64,
}

impl Inner {
    const EMPTY: Inner = Inner {
        len: 0,
        kids: [0; INNER_CAP],
        keys: [0; INNER_CAP],
        born: 0,
    };

    /// Index of the child that `key` routes to.
    #[inline]
    fn child_of(&self, key: u64) -> usize {
        let len = self.len as usize;
        assert!(len <= INNER_CAP, "a reader reached a freed node");
        self.keys[1..len].partition_point(|&sep| sep <= key)
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

/// What the arenas and the copy-on-write rule need of a node: the
/// version that allocated it — the writer may change it in place while
/// that version is the one being built — and a way to poison it.
trait Node: Copy {
    fn born(&self) -> u64;
    fn set_born(&mut self, version: u64);
    fn poison(&mut self);
}

impl Node for Leaf {
    fn born(&self) -> u64 {
        self.born
    }
    fn set_born(&mut self, version: u64) {
        self.born = version;
    }
    fn poison(&mut self) {
        self.len = POISON;
    }
}

impl Node for Inner {
    fn born(&self) -> u64 {
        self.born
    }
    fn set_born(&mut self, version: u64) {
        self.born = version;
    }
    fn poison(&mut self) {
        self.len = POISON;
    }
}

/// Nodes in an arena's first chunk; chunk `c` holds `CHUNK0 << c`.
const CHUNK0: u64 = 8;

/// Chunks enough for every `u32` id.
const CHUNKS: usize = 30;

/// Where node `id` lives: its chunk and its place there. Chunk `c` holds
/// the ids from `CHUNK0 * (2^c - 1)` on, so `id + CHUNK0` has its top bit
/// at `log2(CHUNK0) + c` and the bits below it are the place.
#[inline]
fn slot(id: u32) -> (usize, usize) {
    let x = u64::from(id) + CHUNK0;
    let top = 63 - x.leading_zeros();
    (
        (top - CHUNK0.trailing_zeros()) as usize,
        (x ^ (1 << top)) as usize,
    )
}

/// The first id of chunk `chunk`: the ids chunks `0..chunk` hold.
fn first_id(chunk: usize) -> usize {
    (CHUNK0 as usize) * ((1 << chunk) - 1)
}

/// One kind of node, in chunks that never move. Each directory entry
/// goes from null to its chunk once, when the writer first needs it, and
/// never changes after that — except those of a block, set before the
/// arena is shared.
struct Arena<T> {
    chunks: [AtomicPtr<T>; CHUNKS],
    /// The block a sized build reserved ([`Arena::with_block`]): its
    /// last chunk `k` and its layout. Chunks `0..=k` lie in it, back to
    /// back, from `chunks[0]` on.
    block: Option<(usize, Layout)>,
}

impl<T> Arena<T> {
    fn new() -> Arena<T> {
        Arena {
            chunks: std::array::from_fn(|_| AtomicPtr::new(ptr::null_mut())),
            block: None,
        }
    }

    /// An arena whose chunks `0..=last` are allocated now, as one block:
    /// aligned to a huge page when it spans one, so that each of its
    /// whole 2 MiB regions can be one. Like a chunk, the block is left
    /// uninitialised and untouched.
    fn with_block(last: usize) -> Arena<T> {
        let layout =
            Layout::array::<T>(first_id(last + 1)).expect("an arena block fits the address space");
        let layout = if layout.size() >= HUGE_PAGE {
            layout.align_to(HUGE_PAGE).expect("huge-page alignment")
        } else {
            layout
        };
        // SAFETY: `layout` has a non-zero size: chunk 0 alone holds
        // `CHUNK0` nodes. Uninitialised, as in `grow`.
        let base = unsafe { alloc(layout) }.cast::<T>();
        if base.is_null() {
            handle_alloc_error(layout);
        }
        let mut arena = Arena::new();
        for (chunk, mem) in arena.chunks[..=last].iter_mut().enumerate() {
            *mem.get_mut() = base.wrapping_add(first_id(chunk));
        }
        arena.block = Some((last, layout));
        arena
    }

    fn layout(chunk: usize) -> Layout {
        Layout::array::<T>((CHUNK0 as usize) << chunk)
            .expect("an arena chunk fits the address space")
    }

    /// Node `id`'s address. Relaxed: a reader meets `id` only through a
    /// root published after [`Arena::grow`] stored its chunk, so the root
    /// word's SeqCst store and load order the two; the writer reads its
    /// own stores.
    #[inline]
    fn at(&self, id: u32) -> *mut T {
        let (chunk, place) = slot(id);
        self.chunks[chunk]
            .load(Ordering::Relaxed)
            .wrapping_add(place)
    }

    /// Node `id`, which a live version or the writer's own reaches: ids
    /// come only from a root or from a node, never from outside the map.
    #[inline]
    fn node(&self, id: u32) -> &T {
        // SAFETY: `id` is reachable from a version that is not reclaimed
        // while it is read (the caller's snapshot, or the writer's own
        // with `&` access to the writer), so it was written before that
        // version was published and is not written again until no
        // reader of that version is left.
        unsafe { &*self.at(id) }
    }

    /// Allocates the chunk `id` opens, unless the block holds it. Writer
    /// only; Relaxed, because readers learn of the chunk through a later
    /// root flip (see [`Arena::at`]).
    #[cold]
    fn grow(&self, id: u32) {
        let (chunk, _) = slot(id);
        if self.block.is_some_and(|(last, _)| chunk <= last) {
            return;
        }
        let layout = Self::layout(chunk);
        // SAFETY: `layout` has a non-zero size: a chunk holds at least
        // `CHUNK0` nodes. The memory is left uninitialised; only the
        // slots the writer hands out are ever written or read.
        let mem = unsafe { alloc(layout) }.cast::<T>();
        if mem.is_null() {
            handle_alloc_error(layout);
        }
        self.chunks[chunk].store(mem, Ordering::Relaxed);
    }
}

impl<T> Drop for Arena<T> {
    fn drop(&mut self) {
        // The chunks the block holds go with it, not one by one.
        let mut in_block = 0;
        if let Some((last, layout)) = self.block {
            // SAFETY: `with_block` allocated the block at `chunks[0]`
            // with this layout, and nodes are `Copy`.
            unsafe { dealloc(self.chunks[0].get_mut().cast(), layout) };
            in_block = last + 1;
        }
        for (chunk, mem) in self.chunks.iter_mut().enumerate().skip(in_block) {
            let mem = *mem.get_mut();
            if !mem.is_null() {
                // SAFETY: `grow` allocated `mem` with this layout, and
                // nodes are `Copy`, so there is nothing to drop in it.
                unsafe { dealloc(mem.cast(), Self::layout(chunk)) };
            }
        }
    }
}

/// Everything a reader of a map touches: the two arenas and the root
/// word. Shared by the map's one writer ([`LeafMap`], which writes only
/// nodes no published version reaches) and its readers
/// ([`Tree::pick`]).
pub struct Tree {
    leaves: Arena<Leaf>,
    inners: Arena<Inner>,
    /// The published root: `height << 32 | node`.
    root: AtomicU64,
}

impl Tree {
    /// The published version, as a read section picks it: one SeqCst
    /// load of the root word. It races the writer's flip-then-scan in
    /// the store-buffering shape (`native.rs` module docs), so anything
    /// weaker lets both sides miss each other. Reader side of
    /// `wmm::proto`'s `native_flip_dekker` litmus.
    ///
    /// # Safety
    ///
    /// The map's writer must not [`LeafMap::reclaim`] a node of this
    /// version while the snapshot is in use. The native store's read
    /// section guarantees it: its epoch entry precedes this load, and
    /// the writer reclaims only after a grace period that waits the
    /// section out.
    // SAFETY: the load itself is an atomic read of the root word; the
    // contract above is what keeps the version's nodes alive.
    #[inline]
    pub unsafe fn pick(&self) -> Snapshot<'_> {
        let word = self.root.load(Ordering::SeqCst);
        Snapshot {
            tree: self,
            node: word as u32,
            height: (word >> 32) as u32,
        }
    }
}

/// One version of a map: a root, read against the tree's nodes. Nothing
/// a snapshot reaches changes while it is in use.
#[derive(Clone, Copy)]
pub struct Snapshot<'t> {
    tree: &'t Tree,
    /// An inner node when `height > 0`, else the one leaf.
    node: u32,
    /// Inner levels above the leaves.
    height: u32,
}

/// Where a key lives if it is present: the result of
/// [`Snapshot::locate`], good for [`Snapshot::get_at`] and
/// [`Snapshot::range_at`] on the same snapshot.
#[derive(Debug, Clone, Copy)]
pub struct Spot {
    leaf: u32,
    /// Lower bound of the next leaf in key order; `None` on the last.
    upper: Option<u64>,
}

impl Snapshot<'_> {
    /// The descent every lookup and every write shares: from the root to
    /// the leaf `key` belongs to, every node asked for whole before it is
    /// searched, `step(node, its contents, child taken)` at each routing
    /// level. Returns the leaf, requested but not read.
    #[inline]
    fn walk(&self, key: u64, mut step: impl FnMut(u32, &Inner, usize)) -> u32 {
        let mut node = self.node;
        for _ in 0..self.height {
            let inner = self.tree.inners.node(node);
            prefetch(inner);
            let i = inner.child_of(key);
            step(node, inner, i);
            node = inner.kids[i];
        }
        prefetch(self.tree.leaves.node(node));
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
        let leaf = self.tree.leaves.node(spot.leaf);
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

    /// [`Snapshot::range`] from an already located `keys.start()`.
    pub fn range_at(&self, mut spot: Spot, keys: RangeInclusive<u64>, out: &mut Vec<(u64, u64)>) {
        let (mut from, last) = keys.into_inner();
        loop {
            let leaf = self.tree.leaves.node(spot.leaf);
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

    /// Every pair, ascending.
    fn pairs(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        self.range(0..=u64::MAX, &mut out);
        out
    }
}

impl<'t> Snapshot<'t> {
    /// Every leaf of the version, in key order, as its keys and their
    /// values: the pairs streamed a leaf at a time, with no descent per
    /// leaf.
    pub fn leaves(&self) -> Leaves<'t> {
        let (first, stack) = match self.height {
            0 => (Some(self.node), Vec::new()),
            _ => (None, vec![(self.node, 0)]),
        };
        Leaves {
            tree: self.tree,
            height: self.height as usize,
            first,
            stack,
        }
    }
}

/// The iterator [`Snapshot::leaves`] returns: a depth-first walk of the
/// routing nodes.
pub struct Leaves<'t> {
    tree: &'t Tree,
    height: usize,
    /// The root, when it is the one leaf.
    first: Option<u32>,
    /// The routing nodes from the root down to the current leaf's
    /// parent, each with the next child to take.
    stack: Vec<(u32, usize)>,
}

impl<'t> Iterator for Leaves<'t> {
    type Item = (&'t [u64], &'t [u64]);

    fn next(&mut self) -> Option<Self::Item> {
        let id = match self.first.take() {
            Some(id) => id,
            None => loop {
                let (node, next) = self.stack.last_mut()?;
                let inner = self.tree.inners.node(*node);
                if *next == inner.len as usize {
                    self.stack.pop();
                    continue;
                }
                let kid = inner.kids[*next];
                *next += 1;
                if self.stack.len() == self.height {
                    break kid;
                }
                self.stack.push((kid, 0));
            },
        };
        let leaf = self.tree.leaves.node(id);
        let keys = leaf.keys();
        Some((keys, &leaf.vals[..keys.len()]))
    }
}

/// The writer's bookkeeping of one arena.
#[derive(Default)]
struct Pool {
    /// Slots handed out so far: ids `0..used`.
    used: u32,
    /// Nodes no version reaches, ready for reuse.
    free: Vec<u32>,
    /// Nodes that only published versions reach, no longer the one being
    /// built: free once no reader can hold those versions.
    retired: Vec<u32>,
}

impl Pool {
    /// A slot no version reaches: a free one, or a new one.
    fn take<T>(&mut self, arena: &Arena<T>) -> u32 {
        if let Some(id) = self.free.pop() {
            return id;
        }
        let id = self.used;
        self.used = id
            .checked_add(1)
            .expect("more than u32::MAX nodes in one map");
        if slot(id).1 == 0 {
            arena.grow(id);
        }
        id
    }

    /// Stores `node`, allocated in `version`, in a slot of its own.
    fn alloc<T: Node>(&mut self, arena: &Arena<T>, mut node: T, version: u64) -> u32 {
        node.set_born(version);
        let id = self.take(arena);
        // SAFETY: no version reaches the slot `take` returned, so no
        // reader holds it, and the writer has no reference into it.
        unsafe { arena.at(id).write(node) };
        id
    }

    /// `id` itself if `version` allocated it, else a copy allocated in
    /// `version`, with the original retired.
    fn own<T: Node>(&mut self, arena: &Arena<T>, id: u32, version: u64) -> u32 {
        if arena.node(id).born() == version {
            return id;
        }
        let copy = self.take(arena);
        // SAFETY: as in `alloc` for `copy`; `id` is another slot, which
        // published versions reach and nothing writes.
        unsafe {
            ptr::copy_nonoverlapping(arena.at(id), arena.at(copy), 1);
            (*arena.at(copy)).set_born(version);
        }
        self.retired.push(id);
        copy
    }

    /// Frees every retired node, poisoned first if asked.
    fn reclaim<T: Node>(&mut self, arena: &Arena<T>, poison: bool) {
        if poison {
            for &id in &self.retired {
                // SAFETY: the caller of `LeafMap::reclaim` promises that
                // no reader still holds a version that reaches a retired
                // node, and the version being built does not reach it.
                unsafe { (*arena.at(id)).poison() };
            }
        }
        self.free.append(&mut self.retired);
    }
}

/// The map and its one writer. See the module docs for the layout and
/// the versions.
pub struct LeafMap {
    tree: Arc<Tree>,
    /// The root being built, published by [`LeafMap::publish`].
    root: u32,
    /// Inner levels above the leaves, in the version being built.
    height: u32,
    /// The version being built: the writer changes nodes it allocated
    /// in place, and copies any other before changing it.
    version: u64,
    leaves: Pool,
    inners: Pool,
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
    /// An empty map: one empty leaf and nothing else, published as the
    /// root word's initial value.
    pub fn new() -> LeafMap {
        LeafMap::from_ascending([])
    }

    /// A map of `pairs`, whose keys must be strictly ascending, built
    /// bottom-up by a [`Builder`]: the tree ascending
    /// [`LeafMap::insert`]s build, without a descent per key.
    ///
    /// # Panics
    ///
    /// If a key is not greater than the one before it.
    pub fn from_ascending(pairs: impl IntoIterator<Item = (u64, u64)>) -> LeafMap {
        let mut build = Builder::new();
        for (key, value) in pairs {
            build.push(key, value);
        }
        build.finish()
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The nodes and the root word, for readers on other threads
    /// ([`Tree::pick`]).
    pub fn tree(&self) -> Arc<Tree> {
        Arc::clone(&self.tree)
    }

    /// The version being built, with every write so far: what the map's
    /// owner reads.
    pub fn snapshot(&self) -> Snapshot<'_> {
        Snapshot {
            tree: &self.tree,
            node: self.root,
            height: self.height,
        }
    }

    /// Publishes the version built so far and starts the next, so that
    /// whatever a later write changes is copied first. The native store's
    /// commit point: SeqCst, so the flip is ordered before the barrier's
    /// clock scan in the single total order (`native.rs` module docs; the
    /// paper's R1 commit-point discipline). Writer side of `wmm::proto`'s
    /// `native_flip_dekker` litmus.
    pub fn publish(&mut self) {
        let word = u64::from(self.height) << 32 | u64::from(self.root);
        self.tree.root.store(word, Ordering::SeqCst);
        self.version += 1;
    }

    /// Frees the nodes the published versions before the last one alone
    /// reach. Call it only once no reader can still hold such a version —
    /// in the native store, after the grace period that follows
    /// [`LeafMap::publish`]. With `poison`, each freed node is marked so
    /// that a reader which reaches it anyway panics (schedule exploration
    /// asks for it; a production writer reuses the nodes as they are).
    pub fn reclaim(&mut self, poison: bool) {
        self.leaves.reclaim(&self.tree.leaves, poison);
        self.inners.reclaim(&self.tree.inners, poison);
    }

    /// Leaf `id`, which the version being built allocated, to change in
    /// place.
    fn leaf_mut(&mut self, id: u32) -> &mut Leaf {
        let born = self.tree.leaves.node(id).born;
        assert_eq!(born, self.version, "leaf {id} is published");
        // SAFETY: `id` was allocated in the version being built (just
        // checked), so no published version reaches it and no reader
        // holds it; `&mut self` is the writer's one handle on it.
        unsafe { &mut *self.tree.leaves.at(id) }
    }

    /// [`LeafMap::leaf_mut`] for an inner node.
    fn inner_mut(&mut self, id: u32) -> &mut Inner {
        let born = self.tree.inners.node(id).born;
        assert_eq!(born, self.version, "inner {id} is published");
        // SAFETY: as in `leaf_mut`: a node of the version being built.
        unsafe { &mut *self.tree.inners.at(id) }
    }

    /// Descends to `key`'s leaf, recording the way in `self.path`.
    /// Returns the leaf and whether the descent hugged the left and the
    /// right edge of the tree all the way.
    fn descend(&mut self, key: u64) -> (u32, bool, bool) {
        let mut path = std::mem::take(&mut self.path);
        path.clear();
        let (mut leftmost, mut rightmost) = (true, true);
        let leaf = self.snapshot().walk(key, |node, inner, i| {
            leftmost &= i == 0;
            rightmost &= i + 1 == inner.len as usize;
            path.push((node, i as u32));
        });
        self.path = path;
        (leaf, leftmost, rightmost)
    }

    /// Makes the recorded path and its `leaf` the writer's to change:
    /// from the root down, each node a published version reaches is
    /// replaced by a copy, which its (already copied) parent, or the
    /// root, then names. Returns the leaf as the path now names it.
    ///
    /// The nodes of the version being built are closed upwards — a node
    /// becomes the writer's only by a path copy from the root, or by a
    /// split or a new root under or over nodes that already are — so a
    /// leaf of that version needs no walk: every write of a map that
    /// never publishes, and every write after the first to a leaf in a
    /// cycle, stops here.
    fn own_path(&mut self, leaf: u32) -> u32 {
        let (tree, version) = (&*self.tree, self.version);
        if tree.leaves.node(leaf).born() == version {
            return leaf;
        }
        let mut above: Option<(u32, u32)> = None;
        for step in &mut self.path {
            let own = self.inners.own(&tree.inners, step.0, version);
            if own != step.0 {
                relink(tree, above, own, &mut self.root);
                step.0 = own;
            }
            above = Some(*step);
        }
        let own = self.leaves.own(&tree.leaves, leaf, version);
        if own != leaf {
            relink(tree, above, own, &mut self.root);
        }
        own
    }

    /// Inserts or updates `key`, returning the value it replaced.
    pub fn insert(&mut self, key: u64, value: u64) -> Option<u64> {
        let (id, leftmost, rightmost) = self.descend(key);
        let id = self.own_path(id);
        let version = self.version;
        let leaf = self.leaf_mut(id);
        let pos = match leaf.keys().binary_search(&key) {
            Ok(i) => return Some(std::mem::replace(&mut leaf.vals[i], value)),
            Err(pos) => pos,
        };
        if (leaf.len as usize) < LEAF_CAP {
            leaf.insert_at(pos, key, value);
            self.len += 1;
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
        self.len += 1;
        let right = self.leaves.alloc(&self.tree.leaves, right, version);
        self.add_child(sep, right, rightmost);
        None
    }

    /// Links `kid`, whose keys start at `sep`, to the right of the child
    /// the recorded path took, splitting full ancestors on the way up.
    fn add_child(&mut self, mut sep: u64, mut kid: u32, rightmost: bool) {
        let version = self.version;
        while let Some((id, taken)) = self.path.pop() {
            let inner = self.inner_mut(id);
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
            kid = self.inners.alloc(&self.tree.inners, right, version);
        }
        // The root itself split: a new root over the two halves.
        let mut root = Inner::EMPTY;
        root.insert_at(0, 0, self.root);
        root.insert_at(1, sep, kid);
        self.root = self.inners.alloc(&self.tree.inners, root, version);
        self.height += 1;
    }

    /// Removes `key`, returning its value if it was present.
    pub fn remove(&mut self, key: u64) -> Option<u64> {
        let (id, ..) = self.descend(key);
        // An absent key changes nothing, so nothing is copied for it.
        let i = self.tree.leaves.node(id).keys().binary_search(&key).ok()?;
        let id = self.own_path(id);
        let leaf = self.leaf_mut(id);
        let old = leaf.vals[i];
        leaf.remove_at(i);
        let emptied = leaf.len == 0;
        self.len -= 1;
        if emptied && self.height > 0 {
            self.unlink(id);
        }
        Some(old)
    }

    /// Takes the emptied leaf `id` out of the tree along the recorded
    /// path, with every ancestor it was the last child of. The path is
    /// the writer's own (`own_path`), so what it unlinks is free at once.
    fn unlink(&mut self, id: u32) {
        while let Some((parent, taken)) = self.path.pop() {
            let inner = self.inner_mut(parent);
            inner.remove_at(taken as usize);
            if inner.len > 0 {
                self.leaves.free.push(id);
                return;
            }
            self.inners.free.push(parent);
        }
        // Every level emptied: the map is one empty leaf again.
        self.root = id;
        self.height = 0;
    }
}

/// Appends `kid`, whose keys start at `sep`, to the open routing node of
/// `level` in a bottom-up build ([`Builder`]), opening
/// the level if it has no node yet. A full node is first closed: stored
/// in its slot and appended to the level above.
fn append(
    arena: &Arena<Inner>,
    pool: &mut Pool,
    open: &mut Vec<Inner>,
    level: usize,
    sep: u64,
    kid: u32,
) {
    if level == open.len() {
        open.push(Inner::EMPTY);
    }
    if open[level].len as usize == INNER_CAP {
        let first = open[level].keys[0];
        let id = pool.alloc(arena, open[level], 0);
        append(arena, pool, open, level + 1, first, id);
        open[level].len = 0;
    }
    let node = &mut open[level];
    node.insert_at(node.len as usize, sep, kid);
}

/// Points `above` — an inner node the writer owns and the child it took
/// — or, with no node above, the root being built, at `id`.
fn relink(tree: &Tree, above: Option<(u32, u32)>, id: u32, root: &mut u32) {
    match above {
        // SAFETY: `own_path` copied `parent` into the version being
        // built before it came here, so no reader holds it.
        Some((parent, taken)) => unsafe { (*tree.inners.at(parent)).kids[taken as usize] = id },
        None => *root = id,
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

/// A map being built bottom-up from strictly ascending pairs, one
/// [`Builder::push`] at a time: leaves filled to the brim in key order,
/// each written once into its slot, and over each level routing nodes
/// filled the same way. Every level keeps one open node, which is closed
/// when the next child arrives and finds it full, so a level's last node
/// is never empty. That is the tree ascending [`LeafMap::insert`]s build
/// (the module docs' append rule), every node born in version 0.
pub struct Builder {
    leaf_arena: Arena<Leaf>,
    inner_arena: Arena<Inner>,
    leaves: Pool,
    inners: Pool,
    /// The open leaf.
    leaf: Leaf,
    /// The open routing node of each level, lowest first.
    open: Vec<Inner>,
    len: usize,
    last: Option<u64>,
}

impl Default for Builder {
    fn default() -> Builder {
        Builder::new()
    }
}

impl Builder {
    /// A build with no pairs yet.
    pub fn new() -> Builder {
        Builder {
            leaf_arena: Arena::new(),
            inner_arena: Arena::new(),
            leaves: Pool::default(),
            inners: Pool::default(),
            leaf: Leaf::EMPTY,
            open: Vec::new(),
            len: 0,
            last: None,
        }
    }

    /// A build that will push at least `pairs` pairs. It reserves their
    /// leaves up front: the leaf arena's chunks `0..=k` that hold
    /// `pairs` pairs, as one block (pairs past that grow the arena a
    /// chunk at a time, as [`LeafMap::insert`]s do). Before the first
    /// write it asks for huge pages (`simmem::madvise_hugepage`) over
    /// the whole 2 MiB regions of the block those pairs fill, so each
    /// region costs one page fault, not 512; a region they fill only in
    /// part stays on 4 KiB pages (module docs). `pairs` only sizes and
    /// advises: the tree is the one [`Builder::new`] builds, and a
    /// build that pushes fewer pairs is only slower or larger.
    pub fn with_capacity(pairs: usize) -> Builder {
        let last = u32::try_from(pairs.div_ceil(LEAF_CAP).max(1) - 1)
            .expect("more than u32::MAX nodes in one map");
        let mut leaf_arena = Arena::<Leaf>::with_block(slot(last).0);
        let span = huge_span(pairs);
        if span > 0 {
            madvise_hugepage(leaf_arena.chunks[0].get_mut().cast(), span);
        }
        Builder {
            leaf_arena,
            ..Builder::new()
        }
    }

    /// Appends a pair.
    ///
    /// # Panics
    ///
    /// If `key` is not greater than the key pushed before it.
    #[inline]
    pub fn push(&mut self, key: u64, value: u64) {
        assert!(
            self.last.is_none_or(|last| last < key),
            "from_ascending: key {key} after {:?}",
            self.last
        );
        self.last = Some(key);
        let leaf = &mut self.leaf;
        if leaf.len as usize == LEAF_CAP {
            let id = self.leaves.alloc(&self.leaf_arena, *leaf, 0);
            let sep = leaf.keys[0];
            append(
                &self.inner_arena,
                &mut self.inners,
                &mut self.open,
                0,
                sep,
                id,
            );
            leaf.len = 0;
        }
        leaf.insert_at(leaf.len as usize, key, value);
        self.len += 1;
    }

    /// The map of the pushed pairs. Its root is the root word's initial
    /// value; with no pairs, the one empty leaf.
    pub fn finish(self) -> LeafMap {
        let Builder {
            leaf_arena,
            inner_arena,
            mut leaves,
            mut inners,
            leaf,
            mut open,
            len,
            ..
        } = self;
        // Close the open nodes bottom-up, each into the level above; the
        // top level's, which has at least two children, is the root.
        let mut sep = leaf.keys[0];
        let mut root = leaves.alloc(&leaf_arena, leaf, 0);
        let mut height = 0;
        while height < open.len() {
            append(&inner_arena, &mut inners, &mut open, height, sep, root);
            sep = open[height].keys[0];
            root = inners.alloc(&inner_arena, open[height], 0);
            height += 1;
        }
        let height = height as u32;
        LeafMap {
            tree: Arc::new(Tree {
                leaves: leaf_arena,
                inners: inner_arena,
                root: AtomicU64::new(u64::from(height) << 32 | u64::from(root)),
            }),
            root,
            height,
            version: 0,
            leaves,
            inners,
            len,
            path: Vec::new(),
        }
    }
}

/// The bytes, from the start of a sized build's leaf block, to advise
/// onto huge pages when the build pushes at least `pairs` pairs: the
/// whole 2 MiB regions their leaves fill, each leaf written whole. The
/// kernel backs a whole huge page at its first touch, so a region the
/// build filled only in part would hold up to 2 MiB of resident memory
/// nothing uses; such a region stays on 4 KiB pages.
fn huge_span(pairs: usize) -> usize {
    let filled = pairs.div_ceil(LEAF_CAP) * size_of::<Leaf>();
    filled / HUGE_PAGE * HUGE_PAGE
}

/// Contents, not layout: two maps holding the same pairs are equal
/// whatever order of inserts and removes built them.
impl PartialEq for LeafMap {
    fn eq(&self, other: &LeafMap) -> bool {
        self.len == other.len && self.snapshot().pairs() == other.snapshot().pairs()
    }
}

impl fmt::Debug for LeafMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.snapshot().pairs()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    impl LeafMap {
        /// Walks the version being built and checks what the module docs
        /// promise: sorted leaves, none empty below a routing level,
        /// every key inside the bounds its ancestors' separators give it,
        /// `len` right, and every node handed out exactly one of:
        /// reachable from the root, retired, or free.
        pub(crate) fn audit(&self) {
            let mut seen = (
                vec![false; self.leaves.used as usize],
                vec![false; self.inners.used as usize],
            );
            let pairs = self.audit_node(self.root, self.height, None, None, &mut seen);
            assert_eq!(pairs, self.len, "len");
            for (pool, seen) in [(&self.leaves, &mut seen.0), (&self.inners, &mut seen.1)] {
                for &id in pool.retired.iter().chain(&pool.free) {
                    assert!(
                        !seen[id as usize],
                        "node {id} is reachable, retired or free twice"
                    );
                    seen[id as usize] = true;
                }
                assert!(
                    seen.iter().all(|&s| s),
                    "a node is neither reachable, retired nor free"
                );
            }
        }

        /// [`LeafMap::audit`] of a map whose readers see all of it: the
        /// root word names the root being built and nothing waits to be
        /// reclaimed, so every node is reachable or free.
        pub(crate) fn audit_published(&self) {
            self.audit();
            // SAFETY: `&self` keeps the writer from reclaiming anything.
            let published = unsafe { self.tree.pick() };
            assert_eq!(
                (published.node, published.height),
                (self.root, self.height),
                "the root being built is not the published one"
            );
            assert!(
                self.leaves.retired.is_empty() && self.inners.retired.is_empty(),
                "retired nodes were never reclaimed"
            );
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
                let leaf = self.tree.leaves.node(id);
                assert!(leaf.len > 0 || self.height == 0, "empty leaf {id} linked");
                assert!(leaf.keys().windows(2).all(|w| w[0] < w[1]), "leaf {id}");
                assert!(leaf.keys().iter().all(|&k| inside(k)), "leaf {id} bounds");
                return leaf.len as usize;
            }
            assert!(!std::mem::replace(&mut seen.1[id as usize], true));
            let inner = self.tree.inners.node(id);
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

        /// Every leaf handed out, free ones included.
        fn all_leaves(&self) -> impl Iterator<Item = &Leaf> {
            (0..self.leaves.used).map(|id| self.tree.leaves.node(id))
        }
    }

    /// The chunk layout: ids run through the chunks in order, each chunk
    /// twice the one before, and the last `u32` id still has a chunk.
    #[test]
    fn ids_fill_the_chunks_in_order() {
        let mut want = (0, 0);
        for id in 0..10_000u32 {
            assert_eq!(slot(id), want, "id {id}");
            want.1 += 1;
            if want.1 == (CHUNK0 as usize) << want.0 {
                want = (want.0 + 1, 0);
            }
        }
        assert!(slot(u32::MAX).0 < CHUNKS);
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

        /// Every op runs on two maps: one changed in place (never
        /// published) and one that publishes each write as its own
        /// version. Each published version is kept, with the pairs it
        /// held, until a `Get` retires them all: every one must still
        /// read its own pairs, although the writer has moved on, and
        /// reclaiming poisons what only they reached.
        #[test]
        fn matches_btreemap_model(
            ops in prop::collection::vec(op(), 1..4000),
            universe in 0usize..3,
        ) {
            let key = |raw| project(universe, raw);
            let (mut map, mut versioned) = (LeafMap::new(), LeafMap::new());
            let tree = versioned.tree();
            let mut live: Vec<(Snapshot, Vec<(u64, u64)>)> = Vec::new();
            let mut model: BTreeMap<u64, u64> = BTreeMap::new();
            let mut out = Vec::new();
            if universe == 1 {
                // Start two routing levels deep with every node full, so
                // the first inserts split leaves *and* routing nodes.
                for k in (0..5000).step_by(2) {
                    map.insert(k, k);
                    versioned.insert(k, k);
                    model.insert(k, k);
                }
                prop_assert_eq!(map.height, 2);
                versioned.publish();
            }
            for op in &ops {
                match *op {
                    Op::Insert(k, v) => {
                        let want = model.insert(key(k), v);
                        prop_assert_eq!(map.insert(key(k), v), want);
                        prop_assert_eq!(versioned.insert(key(k), v), want);
                    }
                    Op::Remove(k) => {
                        let want = model.remove(&key(k));
                        prop_assert_eq!(map.remove(key(k)), want);
                        prop_assert_eq!(versioned.remove(key(k)), want);
                    }
                    Op::Get(k) => {
                        prop_assert_eq!(map.snapshot().get(key(k)), model.get(&key(k)).copied());
                        for (version, pairs) in live.drain(..) {
                            prop_assert_eq!(version.pairs(), pairs);
                        }
                        versioned.reclaim(true);
                        versioned.audit();
                        continue;
                    }
                    Op::Located(k) => {
                        // One located leaf answers for every key in it,
                        // and for the absent ones around them.
                        let snap = map.snapshot();
                        let spot = snap.locate(key(k));
                        prop_assert_eq!(snap.get_at(spot, key(k)), model.get(&key(k)).copied());
                        continue;
                    }
                    Op::Range(a, b) => {
                        // Half of these are empty (`a > b`).
                        let (a, b) = (key(a), key(b));
                        out.clear();
                        out.push((7, 7));
                        map.snapshot().range(a..=b, &mut out);
                        let want: Vec<(u64, u64)> = if a <= b {
                            model.range(a..=b).map(|(&k, &v)| (k, v)).collect()
                        } else {
                            Vec::new()
                        };
                        prop_assert_eq!(out[0], (7, 7));
                        prop_assert_eq!(&out[1..], &want[..]);
                        continue;
                    }
                }
                prop_assert_eq!(map.len(), model.len());
                versioned.publish();
                // SAFETY: reclaim runs only after `live` is drained.
                live.push((unsafe { tree.pick() }, model.iter().map(|(&k, &v)| (k, v)).collect()));
            }
            map.audit();
            versioned.audit();
            let all: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
            prop_assert_eq!(map.snapshot().pairs(), all.clone());
            prop_assert_eq!(versioned.snapshot().pairs(), all);
            for (version, pairs) in live.drain(..) {
                prop_assert_eq!(version.pairs(), pairs);
            }
            versioned.reclaim(true);
            // Draining it leaves one empty leaf and no routing level.
            for &k in model.keys() {
                prop_assert_eq!(map.remove(k), model.get(&k).copied());
            }
            map.audit();
            prop_assert!(map.is_empty() && map.height == 0);
            prop_assert_eq!(map.snapshot().get(0), None);
        }
    }

    /// A write copies the nodes on its path once per version: the first
    /// write after a publication copies the leaf and every routing node
    /// above it and retires the originals; a second write to the same
    /// leaf changes the copies in place.
    #[test]
    fn a_write_copies_its_path_once_per_version() {
        let mut map = LeafMap::new();
        for k in 0..5000 {
            map.insert(k, k);
        }
        assert_eq!(map.height, 2);
        map.publish();
        let used = (map.leaves.used, map.inners.used);
        map.insert(100, 1);
        assert_eq!((map.leaves.retired.len(), map.inners.retired.len()), (1, 2));
        map.insert(101, 1);
        map.remove(102);
        assert_eq!((map.leaves.retired.len(), map.inners.retired.len()), (1, 2));
        assert_eq!((map.leaves.used, map.inners.used), (used.0 + 1, used.1 + 2));
        // An absent key copies nothing.
        map.publish();
        map.remove(1 << 40);
        assert_eq!((map.leaves.retired.len(), map.inners.retired.len()), (1, 2));
        map.audit();
        map.reclaim(false);
        map.audit_published();
    }

    const FULL_LEAVES: usize = 200;

    /// The append rule: ascending keys fill every leaf, and every
    /// routing node but the last of its level, to the brim — the shape
    /// [`LeafMap::from_ascending`] builds directly.
    #[test]
    fn ascending_inserts_fill_leaves_completely() {
        let mut map = LeafMap::new();
        for k in 0..(FULL_LEAVES * LEAF_CAP) as u64 {
            map.insert(k, k);
        }
        map.audit();
        assert_eq!(map.leaves.used as usize, FULL_LEAVES);
        // 200 leaves under full 32-way nodes: 6 full, 1 partial, 1 root.
        assert_eq!(
            map.inners.used as usize,
            FULL_LEAVES.div_ceil(INNER_CAP) + 1
        );
        assert!(map.all_leaves().all(|l| l.len as usize == LEAF_CAP));
    }

    #[test]
    fn descending_inserts_fill_leaves_completely() {
        let mut map = LeafMap::new();
        for k in (0..(FULL_LEAVES * LEAF_CAP) as u64).rev() {
            map.insert(k, k);
        }
        map.audit();
        assert_eq!(map.leaves.used as usize, FULL_LEAVES);
        assert!(map.all_leaves().all(|l| l.len as usize == LEAF_CAP));
    }

    /// The sizes where the shape changes: no key, one, a full leaf and
    /// one past it, a full one-level tree and one past it (a second
    /// routing level), and one past a full two-level tree.
    const BULK_EDGES: [usize; 7] = [
        0,
        1,
        LEAF_CAP,
        LEAF_CAP + 1,
        LEAF_CAP * INNER_CAP,
        LEAF_CAP * INNER_CAP + 1,
        LEAF_CAP * INNER_CAP * INNER_CAP + 1,
    ];

    /// Strictly ascending pairs: a dense run of keys (the prefill's
    /// shape) or keys spread over all of `u64`, from `0`, up to
    /// `u64::MAX` or from anywhere between, at an edge size or any size
    /// up to three routing levels.
    fn ascending_pairs() -> impl Strategy<Value = Vec<(u64, u64)>> {
        let len = prop_oneof![
            (0..BULK_EDGES.len()).prop_map(|i| BULK_EDGES[i]),
            0..LEAF_CAP * INNER_CAP * INNER_CAP + 2000,
        ];
        (len, any::<bool>(), 0u8..3, any::<u64>()).prop_map(|(len, dense, from, seed)| {
            let mut rng = SmallRng::seed_from_u64(seed);
            // The first key, then gaps of at most `max_gap`: the last
            // key is at most `room + (len - 1) * max_gap = u64::MAX`.
            let max_gap = if dense {
                1
            } else {
                u64::MAX / len.max(1) as u64
            };
            let room = u64::MAX - len.saturating_sub(1) as u64 * max_gap;
            let mut key = match from {
                0 => 0,
                1 => room,
                _ => rng.gen_range(0..=room),
            };
            (0..len)
                .map(|i| {
                    if i > 0 {
                        key += rng.gen_range(1..=max_gap);
                    }
                    (key, rng.gen())
                })
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The bulk build is the tree ascending inserts build — same
        /// pairs (also streamed a leaf at a time), height and node
        /// counts, every node born in version 0 —
        /// and afterwards an ordinary map: published, then written,
        /// published and reclaimed, it still follows the model, and its
        /// first version still reads the pairs it was built from until
        /// the first reclaim.
        #[test]
        fn bulk_build_is_the_ascending_insert_tree(
            pairs in ascending_pairs(),
            ops in prop::collection::vec(op(), 1..600),
        ) {
            let mut map = LeafMap::from_ascending(pairs.iter().copied());
            let mut inserted = LeafMap::new();
            for &(k, v) in &pairs {
                inserted.insert(k, v);
            }
            map.audit();
            prop_assert_eq!(map.snapshot().pairs(), pairs.clone());
            let leaves = map.snapshot().leaves();
            prop_assert!(leaves
                .flat_map(|(keys, vals)| keys.iter().copied().zip(vals.iter().copied()))
                .eq(pairs.iter().copied()));
            prop_assert_eq!(map.len(), pairs.len());
            prop_assert_eq!(map.height, inserted.height);
            prop_assert_eq!(map.leaves.used, inserted.leaves.used);
            prop_assert_eq!(map.inners.used, inserted.inners.used);
            prop_assert!(map.all_leaves().all(|l| l.born == 0));
            prop_assert!((0..map.inners.used).all(|id| map.tree.inners.node(id).born == 0));

            // Half the keys the ops name are built ones, half anywhere.
            let key = |raw: u64| match pairs.len() {
                0 => raw,
                n if raw & 1 == 0 => pairs[(raw >> 1) as usize % n].0,
                _ => raw,
            };
            let mut model: BTreeMap<u64, u64> = pairs.iter().copied().collect();
            map.publish();
            let tree = map.tree();
            // SAFETY: reclaim runs only after the built version's check.
            let built = unsafe { tree.pick() };
            for (i, op) in ops.iter().enumerate() {
                match *op {
                    Op::Insert(k, v) => prop_assert_eq!(map.insert(key(k), v), model.insert(key(k), v)),
                    Op::Remove(k) => prop_assert_eq!(map.remove(key(k)), model.remove(&key(k))),
                    Op::Get(k) | Op::Located(k) => {
                        prop_assert_eq!(map.snapshot().get(key(k)), model.get(&key(k)).copied());
                    }
                    Op::Range(a, b) => {
                        let (a, b) = (key(a).min(key(b)), key(a).max(key(b)));
                        let mut out = Vec::new();
                        map.snapshot().range(a..=b, &mut out);
                        let want: Vec<(u64, u64)> = model.range(a..=b).map(|(&k, &v)| (k, v)).collect();
                        prop_assert_eq!(out, want);
                    }
                }
                map.publish();
                if i == 0 {
                    prop_assert_eq!(built.pairs(), pairs.clone());
                }
                map.reclaim(true);
            }
            map.audit_published();
            let all: Vec<(u64, u64)> = model.into_iter().collect();
            prop_assert_eq!(map.snapshot().pairs(), all);
        }
    }

    #[test]
    #[should_panic(expected = "from_ascending: key 1 after Some(2)")]
    fn a_bulk_build_refuses_unsorted_keys() {
        LeafMap::from_ascending([(0, 0), (2, 0), (1, 0)]);
    }

    #[test]
    #[should_panic(expected = "from_ascending: key 5 after Some(5)")]
    fn a_bulk_build_refuses_a_duplicate_key() {
        LeafMap::from_ascending([(5, 0), (5, 1)]);
    }

    /// Leaves per 2 MiB region.
    const REGION_LEAVES: usize = HUGE_PAGE / size_of::<Leaf>();

    /// The fewest pairs whose leaves fill one 2 MiB region: one in the
    /// region's last leaf.
    const REGION_PAIRS: usize = (REGION_LEAVES - 1) * LEAF_CAP + 1;

    /// The sizes where a sized build's block changes: no key, one, a
    /// full leaf and one past it; either side of the end of chunk 0, of
    /// chunk 4 and of chunk 8 (past which the block spans a huge page
    /// and is aligned to one); and either side of filling one and two
    /// 2 MiB regions.
    fn sized_edges() -> Vec<usize> {
        let mut sizes = vec![0, 1, LEAF_CAP, LEAF_CAP + 1];
        for chunk in [1, 5, 9] {
            let pairs = first_id(chunk) * LEAF_CAP;
            sizes.extend([pairs - 1, pairs, pairs + 1]);
        }
        for pairs in [REGION_PAIRS, REGION_PAIRS + REGION_LEAVES * LEAF_CAP] {
            sizes.extend([pairs - 1, pairs]);
        }
        sizes
    }

    /// `n` strictly ascending pairs whose keys are not their ranks.
    fn spread(n: usize) -> impl Iterator<Item = (u64, u64)> {
        (0..n as u64).map(|i| (i * 3 + 1, i))
    }

    /// [`spread`]`(n)` through a build sized for `pairs`.
    fn sized(pairs: usize, n: usize) -> LeafMap {
        let mut build = Builder::with_capacity(pairs);
        for (key, value) in spread(n) {
            build.push(key, value);
        }
        build.finish()
    }

    /// A sized build is the unsized one — same pairs, height, node
    /// counts and audit — whether its size is exact, too small (the
    /// build itself then grows past the block) or too large. Its leaves
    /// lie in one block: chunks `0..=k`, `k` the fewest that hold the
    /// size, back to back from a base aligned to a huge page when the
    /// block spans one, and no chunk after it yet.
    #[test]
    fn a_sized_build_is_the_unsized_one() {
        for n in sized_edges() {
            let plain = LeafMap::from_ascending(spread(n));
            for (size, what) in [(n, "exact"), (n / 2, "small"), (2 * n + 1, "large")] {
                let map = sized(size, n);
                map.audit();
                assert_eq!(
                    map.snapshot().pairs(),
                    plain.snapshot().pairs(),
                    "{n} pairs, {what}"
                );
                assert_eq!(
                    (map.height, map.leaves.used, map.inners.used),
                    (plain.height, plain.leaves.used, plain.inners.used),
                    "{n} pairs, {what}"
                );
                let arena = &map.tree.leaves;
                let (last, layout) = arena.block.expect("a sized build has a block");
                let reserved = size.div_ceil(LEAF_CAP).max(1);
                assert!(
                    first_id(last + 1) >= reserved && (last == 0 || first_id(last) < reserved),
                    "{n} pairs, {what}: chunks 0..={last} for {reserved} leaves"
                );
                assert_eq!(layout.size(), first_id(last + 1) * size_of::<Leaf>());
                assert_eq!(layout.size() >= HUGE_PAGE, layout.align() == HUGE_PAGE);
                let base = arena.at(0);
                assert_eq!(base as usize % layout.align(), 0);
                for chunk in 0..=last {
                    assert_eq!(
                        arena.at(first_id(chunk) as u32),
                        base.wrapping_add(first_id(chunk))
                    );
                }
                if map.leaves.used as usize <= first_id(last + 1) {
                    assert!(arena.at(first_id(last + 1) as u32).is_null());
                }
            }
        }
    }

    /// A bulk-built map whose run-time writes outgrow its block: the
    /// arena grows past it a chunk at a time, and every version is
    /// still published and reclaimed whole.
    #[test]
    fn run_time_writes_grow_past_the_block() {
        // Leaves for exactly chunks 0..=2.
        let n = first_id(3) * LEAF_CAP;
        let mut map = sized(n, n);
        assert_eq!(map.tree.leaves.block.map(|(last, _)| last), Some(2));
        let mut model: BTreeMap<u64, u64> = spread(n).collect();
        map.publish();
        let mut rng = SmallRng::seed_from_u64(38);
        for round in 0..200 {
            for _ in 0..20 {
                let key = rng.gen_range(0..4 * n as u64);
                if rng.gen_bool(0.8) {
                    assert_eq!(map.insert(key, round), model.insert(key, round));
                } else {
                    assert_eq!(map.remove(key), model.remove(&key));
                }
            }
            map.publish();
            map.reclaim(true);
        }
        assert!(
            slot(map.leaves.used - 1).0 > 2,
            "the arena never grew past its block"
        );
        map.audit_published();
        assert_eq!(
            map.snapshot().pairs(),
            model.into_iter().collect::<Vec<_>>()
        );
    }

    /// The advice, as arithmetic: nothing below one whole 2 MiB region
    /// of filled leaves, then whole regions only — every one the leaves
    /// fill, none they fill in part.
    #[test]
    fn only_whole_filled_regions_are_advised() {
        assert_eq!(huge_span(0), 0);
        assert_eq!(huge_span(1), 0);
        assert_eq!(huge_span(REGION_PAIRS - 1), 0);
        assert_eq!(huge_span(REGION_PAIRS), HUGE_PAGE);
        let two = REGION_PAIRS + REGION_LEAVES * LEAF_CAP;
        assert_eq!(huge_span(two - 1), HUGE_PAGE);
        assert_eq!(huge_span(two), 2 * HUGE_PAGE);
        // A `svc-read` shard, 4 M keys over 16 shards, fills 3.94 MiB:
        // one of its two regions.
        assert_eq!(huge_span(250_000), HUGE_PAGE);
        for pairs in (0..5 * REGION_PAIRS).step_by(997) {
            let filled = pairs.div_ceil(LEAF_CAP) * size_of::<Leaf>();
            let span = huge_span(pairs);
            assert!(
                span.is_multiple_of(HUGE_PAGE) && span <= filled && filled - span < HUGE_PAGE,
                "{pairs} pairs: {span} of {filled} bytes advised"
            );
        }
    }

    /// Free-at-empty gives memory back to the map: a window of live keys
    /// sliding upwards through the key space reuses the leaves it
    /// empties behind itself instead of growing the arena — changed in
    /// place, and with every op its own published version, whose copies
    /// come back at each reclaim.
    #[test]
    fn a_sliding_window_recycles_its_leaves() {
        const WINDOW: u64 = 1000;
        for versioned in [false, true] {
            let mut map = LeafMap::new();
            let op = |map: &mut LeafMap| {
                if versioned {
                    map.publish();
                    map.reclaim(true);
                }
            };
            for k in 0..50 * WINDOW {
                map.insert(k, k);
                op(&mut map);
                if k >= WINDOW {
                    assert_eq!(map.remove(k - WINDOW), Some(k - WINDOW));
                    op(&mut map);
                }
            }
            if versioned {
                map.audit_published();
            } else {
                map.audit();
            }
            assert_eq!(map.len(), WINDOW as usize);
            let needed = (WINDOW as usize).div_ceil(LEAF_CAP);
            assert!(
                map.leaves.used as usize <= needed + 2,
                "{} leaves allocated for a window that fits {needed} (versioned: {versioned})",
                map.leaves.used
            );
        }
    }

    #[test]
    fn equality_is_by_contents() {
        let (mut up, mut down) = (LeafMap::new(), LeafMap::new());
        for k in 0..5000 {
            up.insert(k, k * 2);
            down.insert(4999 - k, (4999 - k) * 2);
        }
        // Different shapes (`down` has half-full routing nodes) ...
        assert_ne!(up.inners.used, down.inners.used);
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
