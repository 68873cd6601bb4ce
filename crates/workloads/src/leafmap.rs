//! An ordered `u64 → u64` map laid out for the native store's traffic:
//! point lookups over a key set far larger than the cache, short range
//! walks, and one writer publishing versions to readers that never wait.
//!
//! The shape is a B+-tree with **fat leaves**. A leaf is eight cache
//! lines — a header and 31 keys (`LEAF_CAP`) in the first four, the
//! values in the last four — so a lookup that misses the cache misses on
//! one leaf, not on one node per level as `BTreeMap`'s six-deep descent
//! over a 250 k-key shard does. Everything above the leaves (18 bytes
//! per leaf, ~150 KB for such a shard) is small enough to stay cached.
//! A routing node is the same size, so nodes of both kinds live in
//! **one arena** and name each other by `u32` index; a slot's header
//! says which kind it holds (`height`, 0 for a leaf). The arena is a
//! directory of chunks, chunk `c` holding `8 << c` nodes: it grows a
//! chunk at a time as keys arrive and never moves a node. A chunk is
//! allocated, not zero-filled, so the pages of the part not yet handed
//! out are never touched and never made resident.
//!
//! **Sized builds.** A bulk build that knows how many pairs it will at
//! least hold ([`Builder::with_capacity`]) reserves the chunks `0..=k`
//! that hold their leaves and the routing nodes over them as one block.
//! The directory points into the block, so the chunk geometry and the
//! id to address arithmetic stay as they are, and writes past the block
//! grow the arena a chunk at a time. Before its first write the build
//! asks the kernel for transparent huge pages over the 2 MiB regions of
//! the block that those nodes fill to at least 7/8 (`HUGE_FILL`), so
//! each costs one page fault instead of 512; a block with such regions
//! is rounded up to whole regions and aligned to one. The kernel backs a
//! whole huge page at the first touch, so a region the build fills only
//! in part holds memory nothing uses: at most 256 KiB per map, and a
//! store has a map per shard. A `svc-read` shard (250 k pairs: 8 065
//! leaves and 301 routing nodes, 4.08 MiB) fills two regions whole and
//! gets two huge pages; the 87 KiB it writes into a third stay on 4 KiB
//! pages, and the rest of the block is never touched. The 100 k-key
//! workloads' shards (100–200 KiB) get none. Where the kernel refuses
//! the advice, or the allocator hands back pages an earlier use already
//! touched, the block stays on 4 KiB pages.
//!
//! **Versions.** Every child reference — each routing node's children
//! and the map's root — is one 64-bit *child word* holding two node
//! ids, `cur` and `prev`: node copying with one spare version per edge
//! (Driscoll, Sarnak, Sleator & Tarjan, "Making data structures
//! persistent", JCSS 1989), the spare bounded by the grace period the
//! native store already waits. The root word is an ordinary child word,
//! stored and loaded as every other one; the tree's height is the root's
//! own. Every node records the version that allocated it (`born`). The
//! writer builds version `b`; it changes a node in place only if `b`
//! allocated it, and first copies any other node into `b`, *retiring*
//! the original. The copy is linked by storing `(copy, original)` into
//! the one child word that named the original, in place (Release). So a
//! leaf-only write copies its leaf and stores one word; a split or an
//! unlink also copies the routing nodes whose children change, and a new
//! root or the last level's collapse stores the root word, whose `prev`
//! is always the last published root. A published node's length, keys
//! and values never change, only its child words do, and only so; a
//! copy carries its words over unchanged. [`LeafMap::publish`] makes `b`
//! the published version with one SeqCst store of the version word.
//!
//! A reader picks a version `v` ([`Tree::pick`]) and at each edge takes
//! `cur` if `cur` was born in `v` or before, else `prev`. It decides
//! from `cur`'s `born` before it reads anything else of `cur`, because
//! a node born in the version being built may still be changing in
//! place. One spare id per edge is enough because the writer overwrites
//! a word only after [`LeafMap::reclaim`], which it calls once no reader
//! can hold a version older than the last published one — in the native
//! store, after the grace period that follows the previous flip. A
//! reader of `v` therefore meets only a `cur` born in `v` or before,
//! which is its own, or one born in `v + 1`, the version in progress or
//! just published, whose `prev` is `v`'s child and still allocated.
//! `reclaim` also returns the nodes retired before the last publication
//! to use. A map that is never published (the SGL canary's) has only
//! nodes of its one version, so the same `insert` and `remove` change
//! it in place.
//!
//! Every node is **asked for whole before it is searched**: one
//! prefetch per cache line, so the lines of a routing node (mostly in
//! the outer cache levels) or of a leaf (mostly in memory) arrive
//! together rather than one per step of the binary search, and a
//! leaf's value lines are on their way before the key is found. A
//! reader computes a routing edge's address once, for the prefetch, the
//! `born` check and the node, and a leaf edge's once for the prefetch
//! and once more for the rest ([`Snapshot::get_at`] runs apart from the
//! descent).
//!
//! A lookup is two steps, [`Snapshot::locate`] (the descent, ending with
//! the request for the leaf) and [`Snapshot::get_at`] (the choice between
//! the leaf's two versions and the search inside it), so a caller with
//! several independent keys in hand can locate them all before it
//! searches any and have the leaf misses overlap. [`Snapshot::get`] is
//! the two back to back.
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
//! empties altogether. Split, unlink and copy work is one node per
//! level, so none of them grows with the map.
//!
//! Separators are real keys and routing only ever asks "is this
//! separator `<=` the key", so `0` and `u64::MAX` are ordinary keys.

use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
use std::fmt;
use std::marker::PhantomData;
use std::ops::RangeInclusive;
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::Arc;

use epoch::sched;
use simmem::{madvise_hugepage, HUGE_PAGE};

/// Pairs per leaf: with the header, four cache lines of keys and four
/// of values.
const LEAF_CAP: usize = 31;

/// Children per inner node: a separator and a child word each, so with
/// the header eight cache lines, and a 250 k-key shard (8 065 leaves,
/// under 28³) is still three routing levels deep.
const INNER_CAP: usize = 28;

/// The length [`LeafMap::reclaim`] gives a node it frees when asked to
/// poison it: every search asserts that it never meets one.
const POISON: u32 = u32::MAX;

/// A child word: `cur` in the low half, `prev` in the high one.
#[inline]
fn word(cur: u32, prev: u32) -> u64 {
    u64::from(prev) << 32 | u64::from(cur)
}

/// A child word's `(cur, prev)`.
#[inline]
fn halves(word: u64) -> (u32, u32) {
    (word as u32, (word >> 32) as u32)
}

/// A child word as a reader loads it — a routing node's or the root
/// word: Acquire, so that it sees the node the word names written whole
/// (reader side of `wmm::proto`'s `native_child_word` litmus).
#[inline]
fn load_word(word: &AtomicU64) -> u64 {
    word.load(Ordering::Acquire)
}

/// An arena slot: a [`Leaf`] or a routing node ([`Inner`]). Both are
/// `repr(C)`, this size and alignment, and begin with this header, so
/// the header is read through the slot before the kind is known and a
/// node is a cast of its slot.
#[repr(C, align(64))]
struct Slot {
    /// The version that allocated the node: first, where
    /// [`Addr::born`] reads it.
    born: u64,
    len: u32,
    /// Routing levels from the node down to the leaves: 0 for a leaf, 1
    /// for a routing node over leaves. It never changes, and a copy
    /// keeps it.
    height: u32,
    _body: [u8; 512 - 16],
}

/// Whether `T` fills a [`Slot`] exactly: a node type.
const fn fills_slot<T>() -> bool {
    size_of::<T>() == size_of::<Slot>() && align_of::<T>() == align_of::<Slot>()
}

const _: () = assert!(fills_slot::<Leaf>() && fills_slot::<Inner>());

/// Eight cache lines of pairs, sorted by key in `keys[..len]`.
#[derive(Clone, Copy)]
#[repr(C, align(64))]
struct Leaf {
    /// The [`Slot`] header.
    born: u64,
    len: u32,
    height: u32,
    keys: [u64; LEAF_CAP],
    vals: [u64; LEAF_CAP],
}

impl Leaf {
    const EMPTY: Leaf = Leaf {
        born: 0,
        len: 0,
        height: 0,
        keys: [0; LEAF_CAP],
        vals: [0; LEAF_CAP],
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
/// ancestors' business. Each child is a child word (module docs).
/// Line-aligned, like a leaf, so a copy written into one node never
/// shares a line with a neighbour readers are on.
#[repr(C, align(64))]
struct Inner {
    /// The [`Slot`] header.
    born: u64,
    len: u32,
    height: u32,
    keys: [u64; INNER_CAP],
    kids: [AtomicU64; INNER_CAP],
}

impl Inner {
    /// A routing node with no children, `height` levels above the
    /// leaves.
    fn empty(height: u32) -> Inner {
        Inner {
            born: 0,
            len: 0,
            height,
            keys: [0; INNER_CAP],
            kids: [const { AtomicU64::new(0) }; INNER_CAP],
        }
    }

    /// Child word `i`, as a reader loads it ([`load_word`]).
    #[inline]
    fn kid(&self, i: usize) -> u64 {
        load_word(&self.kids[i])
    }

    /// Index of the child that `key` routes to.
    #[inline]
    fn child_of(&self, key: u64) -> usize {
        let len = self.len as usize;
        assert!(len <= INNER_CAP, "a reader reached a freed node");
        self.keys[1..len].partition_point(|&sep| sep <= key)
    }

    /// Child word `i`, through `&mut`: the node is the writer's alone.
    fn kid_mut(&mut self, i: usize) -> &mut u64 {
        self.kids[i].get_mut()
    }

    /// Inserts child `kid`, whose keys start at `sep`, at `pos`, as a
    /// settled word: `prev` = `cur`, because no reader of an older
    /// version enters a node of the version being built.
    fn insert_at(&mut self, pos: usize, sep: u64, kid: u32) {
        let len = self.len as usize;
        self.keys.copy_within(pos..len, pos + 1);
        for i in (pos..len).rev() {
            *self.kid_mut(i + 1) = *self.kid_mut(i);
        }
        self.keys[pos] = sep;
        *self.kid_mut(pos) = word(kid, kid);
        self.len += 1;
    }

    fn remove_at(&mut self, pos: usize) {
        let len = self.len as usize;
        self.keys.copy_within(pos + 1..len, pos);
        for i in pos + 1..len {
            *self.kid_mut(i - 1) = *self.kid_mut(i);
        }
        self.len -= 1;
    }

    /// Moves the children from `at` on, words unchanged, into a new
    /// node of the same height.
    fn split_off(&mut self, at: usize) -> Inner {
        let len = self.len as usize;
        let mut right = Inner::empty(self.height);
        right.keys[..len - at].copy_from_slice(&self.keys[at..len]);
        for i in at..len {
            *right.kid_mut(i - at) = *self.kid_mut(i);
        }
        right.len = (len - at) as u32;
        self.len = at as u32;
        right
    }
}

/// The address of a node's slot ([`Arena::at`]), used for the prefetch,
/// the `born` check and the node alike.
#[derive(Debug, Clone, Copy)]
struct Addr<'a>(*mut Slot, PhantomData<&'a Arena>);

impl<'a> Addr<'a> {
    /// The version that allocated the node, read without a reference to
    /// it: what a reader reads of a child before it decides whether to
    /// enter it, while the writer may hold that node to change it.
    #[inline]
    fn born(self) -> u64 {
        // SAFETY: the address came from a child word that the caller's
        // version reaches, so its slot was written (`born` included)
        // before the Release store or the publication that named it, and
        // it is not freed, so not rewritten, while that version can be
        // read. The writer changes other fields of a node of the version
        // being built in place, never `born`, so this read races no
        // write; it reads the field alone, through no reference.
        unsafe { (*self.0).born }
    }

    /// The node's height: 0 for a leaf, else routing levels to the
    /// leaves.
    #[inline]
    fn height(self) -> u32 {
        // SAFETY: as in `born`: a slot written before any word named it,
        // and a field no write to a reachable node changes.
        unsafe { (*self.0).height }
    }

    /// The leaf at this address, which a live version or the writer's
    /// own reaches and whose contents that version does not see change:
    /// ids come only from a root or from a node, never from outside the
    /// map.
    #[inline]
    fn leaf(self) -> &'a Leaf {
        debug_assert_eq!(self.height(), 0, "a routing node read as a leaf");
        // SAFETY: the node is reachable from a version that is not
        // reclaimed while it is read (the caller's snapshot, or the
        // writer's own with `&` access to the writer), and is a leaf (the
        // caller's descent counted the levels). A reader enters only
        // nodes born in its version or before ([`Arena::take`]), which
        // were written before that version was published and whose
        // non-atomic fields are not written again until no reader of it
        // is left.
        unsafe { &*self.0.cast::<Leaf>() }
    }

    /// [`Addr::leaf`] for a routing node.
    #[inline]
    fn inner(self) -> &'a Inner {
        debug_assert_ne!(self.height(), 0, "a leaf read as a routing node");
        // SAFETY: as in `leaf`; child words, the one part of a published
        // routing node that changes, are atomics.
        unsafe { &*self.0.cast::<Inner>() }
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

/// A map's nodes, in chunks that never move. Each directory entry goes
/// from null to its chunk once, when the writer first needs it, and
/// never changes after that — except those of a block, set before the
/// arena is shared.
struct Arena {
    chunks: [AtomicPtr<Slot>; CHUNKS],
    /// The block a sized build reserved ([`Arena::with_block`]): its
    /// last chunk `k` and its layout. Chunks `0..=k` lie in it, back to
    /// back, from `chunks[0]` on.
    block: Option<(usize, Layout)>,
}

impl Arena {
    fn new() -> Arena {
        Arena {
            chunks: std::array::from_fn(|_| AtomicPtr::new(ptr::null_mut())),
            block: None,
        }
    }

    /// An arena whose chunks `0..=last` are allocated now, as one block,
    /// with its first `huge` bytes (whole 2 MiB regions, [`huge_span`])
    /// advised onto huge pages. Advice decides the layout: a block with
    /// some is rounded up to whole regions, so the last advised one lies
    /// inside it even where it reaches past chunk `last`, and aligned to
    /// one, so each advised region can be a huge page. Like a chunk, the
    /// block is left uninitialised and untouched.
    fn with_block(last: usize, huge: usize) -> Arena {
        let layout = Layout::array::<Slot>(first_id(last + 1))
            .expect("an arena block fits the address space");
        let (base, layout) = alloc_advised(layout, huge);
        let base = base.cast::<Slot>();
        let mut arena = Arena::new();
        for (chunk, mem) in arena.chunks[..=last].iter_mut().enumerate() {
            *mem.get_mut() = base.wrapping_add(first_id(chunk));
        }
        arena.block = Some((last, layout));
        arena
    }

    fn layout(chunk: usize) -> Layout {
        Layout::array::<Slot>((CHUNK0 as usize) << chunk)
            .expect("an arena chunk fits the address space")
    }

    /// Node `id`'s address. Relaxed: a reader meets `id` only through a
    /// child word (the root word is one) the writer stored (Release)
    /// after [`Arena::grow`] stored its chunk, and loaded that word
    /// (Acquire) after picking a version (SeqCst), so those pairs order
    /// the two; the writer reads its own stores.
    #[inline]
    fn at(&self, id: u32) -> Addr<'_> {
        let (chunk, place) = slot(id);
        let mem = self.chunks[chunk].load(Ordering::Relaxed);
        Addr(mem.wrapping_add(place), PhantomData)
    }

    /// The child a reader of `version` takes at an edge whose word is
    /// `word`, with the address of its `cur`: `cur` if it was born in
    /// `version` or before, else `prev` (module docs). Reads nothing of
    /// `cur` but its `born`.
    #[inline]
    fn take<'a>(&'a self, word: u64, cur: Addr<'a>, version: u64) -> (u32, Addr<'a>) {
        let (id, prev) = halves(word);
        if cur.born() <= version {
            (id, cur)
        } else {
            (prev, self.at(prev))
        }
    }

    /// Allocates the chunk `id` opens, unless the block holds it. Writer
    /// only; Relaxed, because readers learn of the chunk through a later
    /// child word store (see [`Arena::at`]).
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
        let mem = unsafe { alloc(layout) }.cast::<Slot>();
        if mem.is_null() {
            handle_alloc_error(layout);
        }
        self.chunks[chunk].store(mem, Ordering::Relaxed);
    }
}

/// Allocates a block of `layout`, uninitialised and untouched, with its
/// first `huge` bytes (whole 2 MiB regions, [`huge_bytes`]) advised
/// onto huge pages, and returns it with the layout to free it by. A
/// block with advice is rounded up to whole regions, so the last
/// advised one lies inside it, and aligned to one, so each can be a
/// huge page.
pub(crate) fn alloc_advised(layout: Layout, huge: usize) -> (*mut u8, Layout) {
    let layout = if huge > 0 {
        let size = layout.size().max(huge).next_multiple_of(HUGE_PAGE);
        Layout::from_size_align(size, HUGE_PAGE).expect("a huge-page block fits")
    } else {
        layout
    };
    assert!(layout.size() > 0, "an empty block");
    // SAFETY: `layout` has a non-zero size (asserted). The memory is
    // left uninitialised; callers write a slot before they read it.
    let base = unsafe { alloc(layout) };
    if base.is_null() {
        handle_alloc_error(layout);
    }
    if huge > 0 {
        madvise_hugepage(base, huge);
    }
    (base, layout)
}

impl Drop for Arena {
    fn drop(&mut self) {
        // The chunks the block holds go with it, not one by one.
        let (in_block, block) = match self.block {
            Some((last, layout)) => (last + 1, Some((*self.chunks[0].get_mut(), layout))),
            None => (0, None),
        };
        let chunks = (self.chunks.iter_mut().enumerate().skip(in_block))
            .map(|(chunk, mem)| (*mem.get_mut(), Self::layout(chunk)));
        for (mem, layout) in block.into_iter().chain(chunks) {
            if !mem.is_null() {
                // SAFETY: `with_block` allocated the block at `chunks[0]`
                // with its layout and `grow` every later chunk with its
                // own, and the nodes need no drop (their atomics are
                // plain integers).
                unsafe { dealloc(mem.cast(), layout) };
            }
        }
    }
}

/// Everything a reader of a map touches: the version word, the root
/// word and the arena. Shared by the map's one writer ([`LeafMap`],
/// which changes in place only nodes of the version it builds, and
/// child words) and its readers ([`Tree::pick`]).
pub struct Tree {
    /// The published version.
    version: AtomicU64,
    /// The root's child word.
    root: AtomicU64,
    nodes: Arena,
}

impl Tree {
    /// The published version, as a read section picks it: one SeqCst
    /// load of the version word, then the root that version takes at the
    /// root word, loaded and chosen as any other child word is, and the
    /// root's height from its header. The version load races the
    /// writer's flip-then-scan in the store-buffering shape (`native.rs`
    /// module docs), so anything weaker lets both sides miss each other.
    /// Reader side of `wmm::proto`'s `native_flip_dekker` litmus.
    ///
    /// # Safety
    ///
    /// The map's writer must not [`LeafMap::reclaim`] while the snapshot
    /// is in use and a later version is published. The native store's
    /// read section guarantees it: its epoch entry precedes this load,
    /// and the writer reclaims only after a grace period that waits the
    /// section out.
    // SAFETY: the loads themselves are atomic reads of the two words;
    // the contract above is what keeps the version's nodes alive.
    #[inline]
    pub unsafe fn pick(&self) -> Snapshot<'_> {
        let version = self.version.load(Ordering::SeqCst);
        let root = load_word(&self.root);
        let nodes = &self.nodes;
        let (node, at) = nodes.take(root, nodes.at(halves(root).0), version);
        Snapshot {
            tree: self,
            version,
            node,
            height: at.height(),
        }
    }
}

/// One version of a map: a root and the version number that decides its
/// edges, read against the tree's nodes. Nothing a snapshot reads
/// changes while it is in use.
#[derive(Clone, Copy)]
pub struct Snapshot<'t> {
    tree: &'t Tree,
    version: u64,
    /// An inner node when `height > 0`, else the one leaf.
    node: u32,
    /// Inner levels above the leaves: the root's height.
    height: u32,
}

/// Where a key lives if it is present: the result of
/// [`Snapshot::locate`], good for [`Snapshot::get_at`] and
/// [`Snapshot::range_at`] on the same snapshot.
#[derive(Debug, Clone, Copy)]
pub struct Spot {
    /// The child word of the leaf, not yet decided.
    leaf: u64,
    /// Lower bound of the next leaf in key order; `None` on the last.
    upper: Option<u64>,
}

impl<'t> Snapshot<'t> {
    /// The descent every lookup and every write shares: from the root to
    /// the leaf `key` belongs to, every routing node asked for whole and
    /// chosen by its `born` before it is searched, and `step(node, its
    /// contents, child taken)` at each routing level. A child is asked
    /// for as the word's `cur`, which nearly every descent takes, before
    /// its `born` is read, so the choice waits for one line's arrival and
    /// the other lines are already on their way. Returns the leaf's child
    /// word, with its `cur` requested but not read.
    #[inline]
    fn walk(&self, key: u64, mut step: impl FnMut(u32, &Inner, usize)) -> u64 {
        let nodes = &self.tree.nodes;
        let mut node = self.node;
        let mut edge = word(node, node);
        let mut at = nodes.at(node);
        prefetch(at);
        for level in (0..self.height).rev() {
            let inner = at.inner();
            let i = inner.child_of(key);
            step(node, inner, i);
            edge = inner.kid(i);
            at = nodes.at(halves(edge).0);
            prefetch(at);
            if level > 0 {
                (node, at) = nodes.take(edge, at, self.version);
            }
        }
        edge
    }

    /// The leaf this version takes at the leaf edge `edge`. The leaf's
    /// address is computed again here rather than carried over from
    /// [`Snapshot::walk`]'s prefetch: carried in the [`Spot`], it made
    /// a native `get` about 30 ns slower on a 2-vCPU Sapphire Rapids
    /// guest, whatever the store's size.
    #[inline]
    fn leaf(&self, edge: u64) -> &'t Leaf {
        let nodes = &self.tree.nodes;
        let (_, at) = nodes.take(edge, nodes.at(halves(edge).0), self.version);
        at.leaf()
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

    /// The second half of a lookup: picks the located leaf's version and
    /// searches it.
    #[inline]
    pub fn get_at(&self, spot: Spot, key: u64) -> Option<u64> {
        let leaf = self.leaf(spot.leaf);
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
            let leaf = self.leaf(spot.leaf);
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

    /// Every leaf of the version, in key order, as its keys and their
    /// values: the pairs streamed a leaf at a time, with no descent per
    /// leaf.
    pub fn leaves(&self) -> Leaves<'t> {
        let root = self.tree.nodes.at(self.node);
        let (first, stack) = match self.height {
            0 => (Some(root.leaf()), Vec::new()),
            _ => (None, vec![(root.inner(), 0)]),
        };
        Leaves {
            tree: self.tree,
            version: self.version,
            first,
            stack,
        }
    }
}

/// The iterator [`Snapshot::leaves`] returns: a depth-first walk of the
/// routing nodes.
pub struct Leaves<'t> {
    tree: &'t Tree,
    version: u64,
    /// The root, when it is the one leaf.
    first: Option<&'t Leaf>,
    /// The routing nodes from the root down to the current leaf's
    /// parent, each with the next child to take.
    stack: Vec<(&'t Inner, usize)>,
}

impl<'t> Iterator for Leaves<'t> {
    type Item = (&'t [u64], &'t [u64]);

    fn next(&mut self) -> Option<Self::Item> {
        let leaf = match self.first.take() {
            Some(leaf) => leaf,
            None => loop {
                let (inner, next) = self.stack.last_mut()?;
                let inner: &'t Inner = inner;
                if *next == inner.len as usize {
                    self.stack.pop();
                    continue;
                }
                let edge = inner.kid(*next);
                *next += 1;
                let nodes = &self.tree.nodes;
                let (_, at) = nodes.take(edge, nodes.at(halves(edge).0), self.version);
                if inner.height == 1 {
                    break at.leaf();
                }
                self.stack.push((at.inner(), 0));
            },
        };
        let keys = leaf.keys();
        Some((keys, &leaf.vals[..keys.len()]))
    }
}

/// The writer's bookkeeping of the arena.
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
    fn take(&mut self, arena: &Arena) -> u32 {
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

    /// Stores `node`, a leaf or a routing node allocated in `version`,
    /// in a slot of its own.
    fn alloc<T>(&mut self, arena: &Arena, node: T, version: u64) -> u32 {
        const { assert!(fills_slot::<T>()) };
        let id = self.take(arena);
        let at = arena.at(id).0;
        // SAFETY: no version reaches the slot `take` returned, so no
        // reader holds it, and the writer has no reference into it; `T`
        // fills it exactly and begins with the slot's header.
        unsafe {
            at.cast::<T>().write(node);
            (*at).born = version;
        }
        id
    }

    /// A copy of the published node `id`, allocated in `version`, with
    /// the original retired. Its height and child words come along
    /// unchanged.
    fn copy(&mut self, arena: &Arena, id: u32, version: u64) -> u32 {
        let copy = self.take(arena);
        let (from, to) = (arena.at(id).0, arena.at(copy).0);
        // SAFETY: as in `alloc` for `copy`; `id` is another slot, whose
        // non-atomic fields nothing writes, and whose child words only
        // this writer stores.
        unsafe {
            ptr::copy_nonoverlapping(from, to, 1);
            (*to).born = version;
        }
        self.retired.push(id);
        copy
    }

    /// Frees every retired node, poisoned first if asked.
    fn reclaim(&mut self, arena: &Arena, poison: bool) {
        if poison {
            for &id in &self.retired {
                // SAFETY: the caller of `LeafMap::reclaim` promises that
                // no reader still holds a version that reaches a retired
                // node, and the version being built does not reach it.
                unsafe { (*arena.at(id).0).len = POISON };
            }
        }
        self.free.append(&mut self.retired);
    }
}

/// Stores `new` into the child word `edge`, routing node's or root, as
/// `(new, old)`, so that readers of the last published version still
/// take `old`, which is what that version takes there. Release, so a
/// reader that loads the word ([`load_word`], Acquire) sees `new`
/// written whole. Writer side of `wmm::proto`'s `native_child_word`
/// litmus, and the only store of a child word a reader can see.
fn relink(edge: &AtomicU64, new: u32, old: u32) {
    edge.store(word(new, old), Ordering::Release);
    // A schedule may run a reader between this store and the writer's
    // next step.
    sched::step();
}

/// The map and its one writer. See the module docs for the layout and
/// the versions.
pub struct LeafMap {
    tree: Arc<Tree>,
    /// The root being built.
    root: u32,
    /// The last published root: the root word's `prev` while the root
    /// being built differs from it.
    published: u32,
    /// The version being built: the writer changes nodes it allocated
    /// in place, and copies any other before changing it.
    version: u64,
    pool: Pool,
    len: usize,
    /// Descent scratch of `insert`/`remove`: `(node, child taken)` from
    /// the root down, the leaf last (its child unused). Kept here so
    /// neither allocates once warm.
    path: Vec<(u32, u32)>,
}

impl Default for LeafMap {
    fn default() -> LeafMap {
        LeafMap::new()
    }
}

impl LeafMap {
    /// An empty map: one empty leaf and nothing else, the root word's
    /// initial value.
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

    /// The nodes and the version and root words, for readers on other
    /// threads ([`Tree::pick`]).
    pub fn tree(&self) -> Arc<Tree> {
        Arc::clone(&self.tree)
    }

    /// Routing levels above the leaves in the version being built: the
    /// root's height.
    fn height(&self) -> u32 {
        self.tree.nodes.at(self.root).height()
    }

    /// The version being built, with every write so far: what the map's
    /// owner reads. Its every edge takes `cur`, born in it or before.
    pub fn snapshot(&self) -> Snapshot<'_> {
        Snapshot {
            tree: &self.tree,
            version: self.version,
            node: self.root,
            height: self.height(),
        }
    }

    /// Publishes the version built so far and starts the next, so that
    /// whatever a later write changes is copied first. The native store's
    /// commit point: one SeqCst store of the version word, so the flip is
    /// ordered before the barrier's clock scan in the single total order
    /// (`native.rs` module docs; the paper's R1 commit-point discipline).
    /// Writer side of `wmm::proto`'s `native_flip_dekker` litmus.
    pub fn publish(&mut self) {
        self.tree.version.store(self.version, Ordering::SeqCst);
        self.published = self.root;
        self.version += 1;
    }

    /// The map's grace point: frees the nodes the versions before the
    /// last published one alone reach, and lets the writer overwrite the
    /// words they still hold. Call it once no reader can still hold a
    /// version older than the last published one, and before writing
    /// again — in the native store, after the grace period that follows
    /// [`LeafMap::publish`]; a version older than that may read a later
    /// one's children after the next write. With `poison`, each freed
    /// node is marked so that a reader which reaches it anyway panics
    /// (schedule exploration asks for it; a production writer reuses the
    /// nodes as they are).
    pub fn reclaim(&mut self, poison: bool) {
        self.pool.reclaim(&self.tree.nodes, poison);
    }

    /// Node `id` — a [`Leaf`] or an [`Inner`], as `T` says — which the
    /// version being built allocated, to change in place.
    fn node_mut<T>(&mut self, id: u32) -> &mut T {
        const { assert!(fills_slot::<T>()) };
        let at = self.tree.nodes.at(id);
        assert_eq!(at.born(), self.version, "node {id} is published");
        // SAFETY: `id` was allocated in the version being built (just
        // checked), so no published version enters it: a reader may
        // read its `born` (through `Addr::born`, never through a
        // reference), nothing else. `&mut self` is the writer's one
        // handle on it, and the caller's descent says its kind.
        unsafe { &mut *at.0.cast::<T>() }
    }

    /// Descends to `key`'s leaf, recording the way, the leaf last, in
    /// `self.path`. Returns whether the descent hugged the left and the
    /// right edge of the tree all the way.
    fn descend(&mut self, key: u64) -> (bool, bool) {
        let mut path = std::mem::take(&mut self.path);
        path.clear();
        let (mut leftmost, mut rightmost) = (true, true);
        let edge = self.snapshot().walk(key, |node, inner, i| {
            leftmost &= i == 0;
            rightmost &= i + 1 == inner.len as usize;
            path.push((node, i as u32));
        });
        // The version being built takes every edge's `cur`.
        path.push((halves(edge).0, 0));
        self.path = path;
        (leftmost, rightmost)
    }

    /// Points the edge above node `depth` of the recorded path — the
    /// child word routing node `depth - 1` took, or the root word at
    /// depth 0 — at `new`, which replaces that node. The word keeps as
    /// `prev` what the last published version takes there: the replaced
    /// node, which is published (only [`LeafMap::own`] replaces a node
    /// below the root), or at the root the published root, whatever root
    /// this version had before.
    fn link(&mut self, depth: usize, new: u32) {
        match depth.checked_sub(1) {
            Some(up) => {
                let (parent, taken) = self.path[up];
                let edge = &self.tree.nodes.at(parent).inner().kids[taken as usize];
                relink(edge, new, self.path[depth].0);
            }
            None => {
                self.root = new;
                relink(&self.tree.root, new, self.published);
            }
        }
    }

    /// Makes node `depth` of the recorded path — a routing node, or the
    /// leaf at the end — the writer's to change: itself if the version
    /// being built allocated it, else a copy linked in its place, which
    /// the path then names. A leaf-only write copies its leaf this way
    /// and stores one word.
    fn own(&mut self, depth: usize) -> u32 {
        let id = self.path[depth].0;
        if self.tree.nodes.at(id).born() == self.version {
            return id;
        }
        let copy = self.pool.copy(&self.tree.nodes, id, self.version);
        self.link(depth, copy);
        self.path[depth].0 = copy;
        copy
    }

    /// Takes a node out of the version being built: free at once in a
    /// map that never published, else retired, because a reader of the
    /// published version may still read its `born` through a word this
    /// version no longer reaches.
    fn drop_node(&mut self, id: u32) {
        match self.version {
            0 => self.pool.free.push(id),
            _ => self.pool.retired.push(id),
        }
    }

    /// Inserts or updates `key`, returning the value it replaced.
    pub fn insert(&mut self, key: u64, value: u64) -> Option<u64> {
        let (leftmost, rightmost) = self.descend(key);
        let depth = self.path.len() - 1;
        let leaf = self.tree.nodes.at(self.path[depth].0).leaf();
        if leaf.len as usize == LEAF_CAP && leaf.keys().binary_search(&key).is_err() {
            // A split. The routing nodes that gain a child — the lowest
            // one with room and every full one below it, or all of them
            // when the root splits — are copied first, top down, so
            // that only the highest copy is linked by a store readers
            // can see.
            let nodes = &self.tree.nodes;
            let roomy = (self.path[..depth].iter())
                .rposition(|&(id, _)| (nodes.at(id).inner().len as usize) < INNER_CAP);
            for up in roomy.unwrap_or(0)..depth {
                self.own(up);
            }
        }
        let id = self.own(depth);
        let version = self.version;
        let leaf = self.node_mut::<Leaf>(id);
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
        let right = self.pool.alloc(&self.tree.nodes, right, version);
        self.add_child(sep, right, rightmost);
        None
    }

    /// Links `kid`, whose keys start at `sep`, to the right of the child
    /// the recorded path took, splitting full ancestors on the way up:
    /// [`LeafMap::insert`] already made each of them the writer's.
    fn add_child(&mut self, mut sep: u64, mut kid: u32, rightmost: bool) {
        let version = self.version;
        for depth in (0..self.path.len() - 1).rev() {
            let id = self.path[depth].0;
            let pos = self.path[depth].1 as usize + 1;
            let inner = self.node_mut::<Inner>(id);
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
            kid = self.pool.alloc(&self.tree.nodes, right, version);
        }
        // The root itself split: a new root over the two halves.
        let mut root = Inner::empty(self.height() + 1);
        root.insert_at(0, 0, self.root);
        root.insert_at(1, sep, kid);
        let root = self.pool.alloc(&self.tree.nodes, root, version);
        self.link(0, root);
    }

    /// Removes `key`, returning its value if it was present.
    pub fn remove(&mut self, key: u64) -> Option<u64> {
        self.descend(key);
        let depth = self.path.len() - 1;
        // An absent key changes nothing, so nothing is copied for it.
        let leaf = self.tree.nodes.at(self.path[depth].0).leaf();
        let i = leaf.keys().binary_search(&key).ok()?;
        let old = leaf.vals[i];
        self.len -= 1;
        if leaf.len == 1 && depth > 0 {
            self.unlink();
        } else {
            let id = self.own(depth);
            self.node_mut::<Leaf>(id).remove_at(i);
        }
        Some(old)
    }

    /// Takes the recorded path's leaf, whose last pair is being removed,
    /// out of the tree, with every ancestor it was the last child of, and
    /// copies none of them: the lowest ancestor that keeps other children
    /// is copied (if published) without it, and with none the map
    /// becomes one empty leaf again.
    fn unlink(&mut self) {
        let leaf = self.path.len() - 1;
        self.drop_node(self.path[leaf].0);
        for depth in (0..leaf).rev() {
            let (parent, taken) = self.path[depth];
            if self.tree.nodes.at(parent).inner().len > 1 {
                let parent = self.own(depth);
                self.node_mut::<Inner>(parent).remove_at(taken as usize);
                return;
            }
            self.drop_node(parent);
        }
        let empty = self.pool.alloc(&self.tree.nodes, Leaf::EMPTY, self.version);
        self.link(0, empty);
    }
}

/// Appends `kid`, whose keys start at `sep`, to the open routing node of
/// `level` (0 over the leaves) in a bottom-up build ([`Builder`]),
/// opening the level if it has no node yet. A full node is first
/// closed: stored in its slot and appended to the level above.
fn append(arena: &Arena, pool: &mut Pool, open: &mut Vec<Inner>, level: usize, sep: u64, kid: u32) {
    let height = level as u32 + 1;
    if level == open.len() {
        open.push(Inner::empty(height));
    }
    if open[level].len as usize == INNER_CAP {
        let full = std::mem::replace(&mut open[level], Inner::empty(height));
        let first = full.keys[0];
        let id = pool.alloc(arena, full, 0);
        append(arena, pool, open, level + 1, first, id);
    }
    let node = &mut open[level];
    node.insert_at(node.len as usize, sep, kid);
}

/// Asks the cache for all of the node at `node`, one request per cache
/// line, so the lines arrive together instead of one per step of the
/// search.
#[inline]
fn prefetch(node: Addr<'_>) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let base = node.0.cast::<i8>();
        for offset in (0..size_of::<Slot>()).step_by(64) {
            // SAFETY: a prefetch is a hint with no architectural effect
            // — it neither faults nor reads — so any address will do.
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
/// (the module docs' append rule), every node born in version 0 and
/// every child word settled (`cur` = `prev`).
pub struct Builder {
    arena: Arena,
    pool: Pool,
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
            arena: Arena::new(),
            pool: Pool::default(),
            leaf: Leaf::EMPTY,
            open: Vec::new(),
            len: 0,
            last: None,
        }
    }

    /// A build that will push at least `pairs` pairs. It reserves their
    /// nodes up front (`nodes_for`): the arena's chunks `0..=k` that
    /// hold the leaves and the routing nodes over them, as one block
    /// (nodes past that grow the arena a chunk at a time, as
    /// [`LeafMap::insert`]s do). Before the first write it asks for huge
    /// pages (`simmem::madvise_hugepage`) over the 2 MiB regions of the
    /// block those nodes fill to at least 7/8 (`HUGE_FILL`), so each
    /// region costs one page fault, not 512; a block with such regions
    /// is rounded up to whole regions and aligned to one, and a region
    /// they fill less stays on 4 KiB pages (module docs). `pairs` only
    /// sizes and advises: the tree is the one [`Builder::new`] builds,
    /// and a build that pushes fewer pairs is only slower or larger.
    pub fn with_capacity(pairs: usize) -> Builder {
        let last =
            u32::try_from(nodes_for(pairs) - 1).expect("more than u32::MAX nodes in one map");
        Builder {
            arena: Arena::with_block(slot(last).0, huge_span(pairs)),
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
            let id = self.pool.alloc(&self.arena, *leaf, 0);
            let sep = leaf.keys[0];
            append(&self.arena, &mut self.pool, &mut self.open, 0, sep, id);
            leaf.len = 0;
        }
        leaf.insert_at(leaf.len as usize, key, value);
        self.len += 1;
    }

    /// The map of the pushed pairs, as version 0. Its root is the root
    /// word's initial value; with no pairs, the one empty leaf.
    pub fn finish(self) -> LeafMap {
        let Builder {
            arena,
            mut pool,
            leaf,
            mut open,
            len,
            ..
        } = self;
        // Close the open nodes bottom-up, each into the level above; the
        // top level's, which has at least two children, is the root.
        let mut sep = leaf.keys[0];
        let mut root = pool.alloc(&arena, leaf, 0);
        let mut level = 0;
        while level < open.len() {
            append(&arena, &mut pool, &mut open, level, sep, root);
            let top = std::mem::replace(&mut open[level], Inner::empty(level as u32 + 1));
            sep = top.keys[0];
            root = pool.alloc(&arena, top, 0);
            level += 1;
        }
        LeafMap {
            tree: Arc::new(Tree {
                version: AtomicU64::new(0),
                root: AtomicU64::new(word(root, root)),
                nodes: arena,
            }),
            root,
            published: root,
            version: 0,
            pool,
            len,
            path: Vec::new(),
        }
    }
}

/// The nodes a bottom-up build of `pairs` pairs makes: its leaves, each
/// full but the last, and over them routing nodes filled the same way, a
/// level at a time until one node is left — Σ⌈L/28^k⌉ over `L` leaves,
/// about one routing node per 27 leaves.
fn nodes_for(pairs: usize) -> usize {
    let mut level = pairs.div_ceil(LEAF_CAP).max(1);
    let mut nodes = level;
    while level > 1 {
        level = level.div_ceil(INNER_CAP);
        nodes += level;
    }
    nodes
}

/// The least a sized build's nodes fill of a 2 MiB region for the
/// region to be advised onto a huge page: 7/8 of it. The kernel backs a
/// whole huge page at its first touch, and only the last advised region
/// can be filled in part, so a map holds at most `HUGE_PAGE -
/// HUGE_FILL` = 256 KiB of resident memory that nothing uses. A
/// `svc-read` shard fills two regions whole.
const HUGE_FILL: usize = HUGE_PAGE / 8 * 7;

/// The bytes, from the start of a block that `filled` bytes will fill
/// from its front, to advise onto huge pages: the 2 MiB regions they
/// fill to at least [`HUGE_FILL`].
pub(crate) fn huge_bytes(filled: usize) -> usize {
    (filled + HUGE_PAGE - HUGE_FILL) / HUGE_PAGE * HUGE_PAGE
}

/// The bytes, from the start of a sized build's block, to advise onto
/// huge pages when the build pushes at least `pairs` pairs: the 2 MiB
/// regions their nodes ([`nodes_for`]) fill to at least [`HUGE_FILL`],
/// each node written whole. The last of them can reach past the chunks
/// that hold the nodes ([`Arena::with_block`] rounds the block up to
/// it).
fn huge_span(pairs: usize) -> usize {
    huge_bytes(nodes_for(pairs) * size_of::<Slot>())
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
            let mut seen = vec![false; self.pool.used as usize];
            let pairs = self.audit_node(self.root, self.height(), None, None, &mut seen);
            assert_eq!(pairs, self.len, "len");
            for &id in self.pool.retired.iter().chain(&self.pool.free) {
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

        /// [`LeafMap::audit`] of a map whose readers see all of it: the
        /// root word names the root being built and nothing waits to be
        /// reclaimed, so every node is reachable or free.
        pub(crate) fn audit_published(&self) {
            self.audit();
            // SAFETY: `&self` keeps the writer from reclaiming anything.
            let published = unsafe { self.tree.pick() };
            assert_eq!(
                (published.node, published.height),
                (self.root, self.height()),
                "the root being built is not the published one"
            );
            assert!(
                self.pool.retired.is_empty(),
                "retired nodes were never reclaimed"
            );
        }

        fn audit_node(
            &self,
            id: u32,
            level: u32,
            lo: Option<u64>,
            hi: Option<u64>,
            seen: &mut [bool],
        ) -> usize {
            let inside = |k: u64| lo.is_none_or(|lo| lo <= k) && hi.is_none_or(|hi| k < hi);
            let at = self.tree.nodes.at(id);
            assert!(!std::mem::replace(&mut seen[id as usize], true));
            assert_eq!(at.height(), level, "node {id}'s height");
            if level == 0 {
                let leaf = at.leaf();
                assert!(leaf.len > 0 || self.height() == 0, "empty leaf {id} linked");
                assert!(leaf.keys().windows(2).all(|w| w[0] < w[1]), "leaf {id}");
                assert!(leaf.keys().iter().all(|&k| inside(k)), "leaf {id} bounds");
                return leaf.len as usize;
            }
            let inner = at.inner();
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
                    self.audit_node(halves(inner.kid(i)).0, level - 1, lo, hi, seen)
                })
                .sum()
        }

        /// Every leaf handed out, free ones included: the slots whose
        /// header says height 0.
        fn all_leaves(&self) -> impl Iterator<Item = &Leaf> {
            let nodes = &self.tree.nodes;
            (0..self.pool.used)
                .map(|id| nodes.at(id))
                .filter(|at| at.height() == 0)
                .map(|at| at.leaf())
        }

        /// How many of `ids` are leaves and how many routing nodes, by
        /// their headers' height.
        fn kinds_of(&self, ids: impl IntoIterator<Item = u32>) -> (usize, usize) {
            let leaves = ids
                .into_iter()
                .map(|id| self.tree.nodes.at(id).height() == 0);
            leaves.fold((0, 0), |(l, r), leaf| match leaf {
                true => (l + 1, r),
                false => (l, r + 1),
            })
        }

        /// Leaves and routing nodes handed out, free ones included.
        fn kinds(&self) -> (usize, usize) {
            self.kinds_of(0..self.pool.used)
        }

        /// Leaves and routing nodes retired.
        fn retired(&self) -> (usize, usize) {
            self.kinds_of(self.pool.retired.iter().copied())
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
        /// published) and one that publishes a version at every read
        /// op, so each of its cycles holds any number of writes. A
        /// snapshot of the last published version is held across the
        /// next cycle — splits, unlinks, root growth and collapse
        /// included — and must read its own pairs throughout: each
        /// written key while the cycle runs, and every pair once the
        /// cycle is published, when the new version must read the
        /// model. Then the map passes its grace point (`reclaim`,
        /// poisoning what it frees), is audited (every node reachable,
        /// retired or free exactly once) and holds the new version
        /// instead.
        #[test]
        fn matches_btreemap_model(
            ops in prop::collection::vec(op(), 1..4000),
            universe in 0usize..3,
        ) {
            let key = |raw| project(universe, raw);
            let (mut map, mut versioned) = (LeafMap::new(), LeafMap::new());
            let tree = versioned.tree();
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
                prop_assert_eq!(map.height(), 2);
            }
            let pairs = |model: &BTreeMap<u64, u64>| -> Vec<(u64, u64)> {
                model.iter().map(|(&k, &v)| (k, v)).collect()
            };
            versioned.publish();
            // SAFETY: the map reclaims only after `held` is replaced.
            let mut held = (unsafe { tree.pick() }, pairs(&model));
            for op in &ops {
                match *op {
                    Op::Insert(k, v) => {
                        let want = model.insert(key(k), v);
                        prop_assert_eq!(map.insert(key(k), v), want);
                        prop_assert_eq!(versioned.insert(key(k), v), want);
                        let (got, want) = held_get(&held, key(k));
                        prop_assert_eq!(got, want);
                        continue;
                    }
                    Op::Remove(k) => {
                        let want = model.remove(&key(k));
                        prop_assert_eq!(map.remove(key(k)), want);
                        prop_assert_eq!(versioned.remove(key(k)), want);
                        let (got, want) = held_get(&held, key(k));
                        prop_assert_eq!(got, want);
                        continue;
                    }
                    Op::Get(k) => {
                        prop_assert_eq!(map.snapshot().get(key(k)), model.get(&key(k)).copied());
                    }
                    Op::Located(k) => {
                        // One located leaf answers for every key in it,
                        // and for the absent ones around them.
                        let snap = map.snapshot();
                        let spot = snap.locate(key(k));
                        prop_assert_eq!(snap.get_at(spot, key(k)), model.get(&key(k)).copied());
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
                    }
                }
                // A read op ends the versioned map's cycle.
                prop_assert_eq!(map.len(), model.len());
                versioned.publish();
                prop_assert_eq!(held.0.pairs(), std::mem::take(&mut held.1));
                // SAFETY: as above.
                let new = unsafe { tree.pick() };
                held = (new, pairs(&model));
                prop_assert_eq!(new.pairs(), held.1.clone());
                versioned.reclaim(true);
                versioned.audit();
            }
            versioned.publish();
            prop_assert_eq!(held.0.pairs(), held.1);
            versioned.reclaim(true);
            map.audit();
            versioned.audit_published();
            let all = pairs(&model);
            prop_assert_eq!(map.snapshot().pairs(), all.clone());
            prop_assert_eq!(versioned.snapshot().pairs(), all);
            // Draining it leaves one empty leaf and no routing level.
            for &k in model.keys() {
                prop_assert_eq!(map.remove(k), model.get(&k).copied());
            }
            map.audit();
            prop_assert!(map.is_empty() && map.height() == 0);
            prop_assert_eq!(map.snapshot().get(0), None);
        }
    }

    /// What the held snapshot `held` reads of `k`, and what its pairs
    /// say it should.
    fn held_get(held: &(Snapshot<'_>, Vec<(u64, u64)>), k: u64) -> (Option<u64>, Option<u64>) {
        let want = held.1.binary_search_by_key(&k, |p| p.0).ok();
        (held.0.get(k), want.map(|i| held.1[i].1))
    }

    /// The root word, then every child word of every slot handed out:
    /// `None` where the slot holds a leaf.
    fn words(map: &LeafMap) -> Vec<Option<u64>> {
        let root = Some(load_word(&map.tree.root));
        let kids = (0..map.pool.used).flat_map(|id| {
            let at = map.tree.nodes.at(id);
            (0..INNER_CAP).map(move |i| (at.height() > 0).then(|| at.inner().kid(i)))
        });
        std::iter::once(root).chain(kids).collect()
    }

    /// How many words stored in place differ from `before`: the root
    /// word, and the child words of the slots that held routing nodes
    /// when `before` was taken and still do. A slot reused for another
    /// kind of node was written whole, not stored into.
    fn stored(map: &LeafMap, before: &[Option<u64>]) -> usize {
        let after = words(map);
        let both = |(a, b): &(&Option<u64>, &Option<u64>)| a.is_some() && b.is_some();
        before
            .iter()
            .zip(&after)
            .filter(both)
            .filter(|(a, b)| a != b)
            .count()
    }

    /// A leaf-only write copies one node, its leaf, and stores one child
    /// word, in place in the leaf's published parent; later writes to
    /// that leaf in the same version change the copy. A split also
    /// copies the routing node that gains a child, and links it by one
    /// word in its parent. An absent key copies nothing. None of them
    /// stores the root word, which is counted like any other word: a
    /// root split stores it, and so does the collapse of the last
    /// routing level, each as the one word it stores in place.
    #[test]
    fn a_leaf_only_write_copies_one_leaf_and_stores_one_word() {
        let mut map = LeafMap::from_ascending((0..10_000).step_by(2).map(|k| (k, k)));
        assert_eq!(map.height(), 2);
        map.publish();
        let used = map.kinds();
        // The root being built changes only with a root word store.
        let (before, root) = (words(&map), map.root);
        map.insert(100, 1);
        assert_eq!(map.retired(), (1, 0));
        assert_eq!(stored(&map, &before), 1);
        map.insert(102, 1);
        map.remove(104);
        assert_eq!(map.retired(), (1, 0));
        assert_eq!(map.kinds(), (used.0 + 1, used.1));
        assert_eq!(stored(&map, &before), 1);
        assert_eq!(words(&map)[0], before[0], "the root word was stored");
        assert_eq!(map.root, root);
        map.publish();
        map.reclaim(false);
        // A split in the middle of a full leaf under the last, part-full
        // routing node of its level (the bulk build fills the others):
        // the leaf and its parent are copied, the parent's copy linked by
        // one word in the root.
        let before = words(&map);
        map.insert(9001, 1);
        assert_eq!(map.retired(), (1, 1));
        assert_eq!(stored(&map, &before), 1);
        assert_eq!(words(&map)[0], before[0], "the root word was stored");
        assert_eq!(map.root, root);
        // An absent key copies nothing.
        map.publish();
        map.reclaim(false);
        map.remove(1 << 40);
        assert_eq!(map.retired(), (0, 0));
        map.audit();
        map.publish();
        map.reclaim(false);
        map.audit_published();

        // A root split: the one published leaf is copied and split, and
        // a new root over the two halves is linked by the root word.
        let cap = LEAF_CAP as u64;
        let mut map = LeafMap::from_ascending((0..cap).map(|k| (k, k)));
        map.publish();
        let before = words(&map);
        map.insert(cap, cap);
        assert_eq!((map.height(), map.retired()), (1, (1, 0)));
        assert_eq!(stored(&map, &before), 1);
        assert_ne!(words(&map)[0], before[0], "the root word was not stored");
        // The collapse: the last two pairs, one in each leaf, leave; the
        // root is copied without the first and then dropped, and the
        // root word names a new empty leaf.
        for k in 0..cap - 1 {
            map.remove(k);
        }
        map.publish();
        map.reclaim(false);
        let before = words(&map);
        map.remove(cap - 1);
        map.remove(cap);
        assert!(map.is_empty() && map.height() == 0);
        assert_eq!(stored(&map, &before), 1);
        assert_ne!(words(&map)[0], before[0], "the root word was not stored");
        map.publish();
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
        // 200 leaves under full 28-way nodes: 7 full, 1 partial, 1 root.
        assert_eq!(
            map.kinds(),
            (FULL_LEAVES, FULL_LEAVES.div_ceil(INNER_CAP) + 1)
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
        assert_eq!(map.kinds().0, FULL_LEAVES);
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
            prop_assert_eq!(map.height(), inserted.height());
            prop_assert_eq!(map.kinds(), inserted.kinds());
            prop_assert_eq!(map.pool.used as usize, nodes_for(pairs.len()));
            prop_assert!((0..map.pool.used).all(|id| map.tree.nodes.at(id).born() == 0));

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

    /// Nodes per 2 MiB region.
    const REGION_NODES: usize = HUGE_PAGE / size_of::<Slot>();

    /// Nodes that fill [`HUGE_FILL`] of a region.
    const FILL_NODES: usize = HUGE_FILL / size_of::<Slot>();

    /// The fewest pairs whose build makes at least `nodes` nodes.
    fn fewest(nodes: usize) -> usize {
        let (mut lo, mut hi) = (0, nodes * LEAF_CAP);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if nodes_for(mid) >= nodes {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }

    /// The sizes where a sized build's block changes: no key, one, a
    /// full leaf and one past it; either side of the end of chunk 0, of
    /// chunk 4 and of chunk 8, reached by the leaves alone and by the
    /// leaves and their routing nodes; and either side of filling 7/8
    /// of one and of two 2 MiB regions (past which the block is advised,
    /// then rounded up to whole regions and aligned to one) and of
    /// filling them whole.
    fn sized_edges() -> Vec<usize> {
        let mut sizes = vec![0, 1, LEAF_CAP, LEAF_CAP + 1];
        for chunk in [1, 5, 9] {
            for pairs in [first_id(chunk) * LEAF_CAP, fewest(first_id(chunk) + 1)] {
                sizes.extend([pairs - 1, pairs, pairs + 1]);
            }
        }
        for nodes in [FILL_NODES, REGION_NODES] {
            for pairs in [fewest(nodes), fewest(nodes + REGION_NODES)] {
                sizes.extend([pairs - 1, pairs]);
            }
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
    /// counts of each kind and audit — whether its size is exact, too
    /// small (the build itself then grows past the block) or too large.
    /// Its nodes lie in one block: chunks `0..=k`, `k` the fewest that
    /// hold the size's leaves and routing nodes, back to back, and no
    /// chunk after it yet. A block with advice holds the whole advised
    /// span, and is those chunks rounded up to whole 2 MiB regions from
    /// a base aligned to one; a block without is the chunks alone.
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
                    (map.height(), map.kinds()),
                    (plain.height(), plain.kinds()),
                    "{n} pairs, {what}"
                );
                let arena = &map.tree.nodes;
                let (last, layout) = arena.block.expect("a sized build has a block");
                let reserved = nodes_for(size);
                assert!(
                    first_id(last + 1) >= reserved && (last == 0 || first_id(last) < reserved),
                    "{n} pairs, {what}: chunks 0..={last} for {reserved} nodes"
                );
                let chunks = first_id(last + 1) * size_of::<Slot>();
                let span = huge_span(size);
                if span > 0 {
                    assert!(
                        span <= layout.size()
                            && layout.size() == chunks.max(span).next_multiple_of(HUGE_PAGE),
                        "{n} pairs, {what}: {span} B advised of {} B, chunks {chunks} B",
                        layout.size()
                    );
                    assert_eq!(layout.align(), HUGE_PAGE, "{n} pairs, {what}");
                } else {
                    assert_eq!(layout.size(), chunks, "{n} pairs, {what}");
                    assert!(layout.align() < HUGE_PAGE, "{n} pairs, {what}");
                }
                let base = arena.at(0).0;
                assert_eq!(base as usize % layout.align(), 0);
                for chunk in 0..=last {
                    assert_eq!(
                        arena.at(first_id(chunk) as u32).0,
                        base.wrapping_add(first_id(chunk))
                    );
                }
                if map.pool.used as usize <= first_id(last + 1) {
                    assert!(arena.at(first_id(last + 1) as u32).0.is_null());
                }
            }
        }
    }

    /// A build sized exactly holds every node it makes — its leaves and
    /// the routing nodes over them — in its block: at every edge size,
    /// `finish` leaves every chunk past the block unallocated. A block
    /// sized for the leaves alone fails this at the first size whose
    /// routing nodes spill into the next chunk (9 nodes, 8 leaves and
    /// their root, past chunk 0).
    #[test]
    fn an_exact_sized_build_allocates_no_chunk_past_its_block() {
        for n in sized_edges() {
            let map = sized(n, n);
            let arena = &map.tree.nodes;
            let (last, _) = arena.block.expect("a sized build has a block");
            assert!(
                map.pool.used as usize <= first_id(last + 1),
                "{n} pairs: {} nodes for chunks 0..={last}",
                map.pool.used
            );
            assert!(
                (last + 1..CHUNKS).all(|c| arena.at(first_id(c) as u32).0.is_null()),
                "{n} pairs: a chunk past 0..={last} was allocated"
            );
        }
    }

    /// A bulk-built map whose run-time writes outgrow its block: the
    /// arena grows past it a chunk at a time, and every version is
    /// still published and reclaimed whole.
    #[test]
    fn run_time_writes_grow_past_the_block() {
        // Nodes for exactly chunks 0..=2: the most pairs whose leaves and
        // routing nodes fit there.
        let n = fewest(first_id(3) + 1) - 1;
        let mut map = sized(n, n);
        assert_eq!(map.tree.nodes.block.map(|(last, _)| last), Some(2));
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
            slot(map.pool.used - 1).0 > 2,
            "the arena never grew past its block"
        );
        map.audit_published();
        assert_eq!(
            map.snapshot().pairs(),
            model.into_iter().collect::<Vec<_>>()
        );
    }

    /// The advice, as arithmetic: a region is advised once the nodes
    /// fill 7/8 of it — either side of that edge for the first and the
    /// second region — so at most 256 KiB of an advised span is unused,
    /// and less than 7/8 of a region filled is left unadvised. A
    /// `svc-read` shard fills two regions whole and is advised both. A
    /// build of 3 584 to 4 088 nodes, which chunks `0..=8` hold in less
    /// than 2 MiB, is advised one: its block is one whole region.
    #[test]
    fn regions_filled_to_seven_eighths_are_advised() {
        assert_eq!(huge_span(0), 0);
        assert_eq!(huge_span(1), 0);
        assert_eq!(huge_span(fewest(FILL_NODES) - 1), 0);
        assert_eq!(huge_span(fewest(FILL_NODES)), HUGE_PAGE);
        let second = FILL_NODES + REGION_NODES;
        assert_eq!(huge_span(fewest(second) - 1), HUGE_PAGE);
        assert_eq!(huge_span(fewest(second)), 2 * HUGE_PAGE);
        // 4 M keys over 16 shards: 8 065 leaves and 301 routing nodes,
        // 4.08 MiB.
        assert_eq!(nodes_for(250_000), 8_065 + 301);
        assert_eq!(huge_span(250_000), 2 * HUGE_PAGE);
        for pairs in (0..5 * fewest(REGION_NODES)).step_by(997) {
            let filled = nodes_for(pairs) * size_of::<Slot>();
            let span = huge_span(pairs);
            assert!(
                span.is_multiple_of(HUGE_PAGE)
                    && span.saturating_sub(filled) <= 256 << 10
                    && filled.saturating_sub(span) < HUGE_FILL,
                "{pairs} pairs: {span} of {filled} bytes advised"
            );
        }
        // The band where the advice, not the chunks, sizes the block:
        // its first build, one leaf more, and its last.
        assert_eq!((FILL_NODES, first_id(9)), (3584, 4088));
        assert!(first_id(9) * size_of::<Slot>() < HUGE_PAGE);
        let first = fewest(FILL_NODES);
        for pairs in [first, first + LEAF_CAP, fewest(first_id(9) + 1) - 1] {
            let nodes = nodes_for(pairs);
            assert_eq!(slot(nodes as u32 - 1).0, 8, "{nodes} nodes");
            assert_eq!(huge_span(pairs), HUGE_PAGE, "{nodes} nodes");
            let build = Builder::with_capacity(pairs);
            let (last, layout) = build.arena.block.expect("a sized build has a block");
            assert_eq!(last, 8, "{nodes} nodes");
            assert_eq!((layout.size(), layout.align()), (HUGE_PAGE, HUGE_PAGE));
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
                map.kinds().0 <= needed + 2,
                "{} leaves allocated for a window that fits {needed} (versioned: {versioned})",
                map.kinds().0
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
        assert_ne!(up.kinds().1, down.kinds().1);
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
