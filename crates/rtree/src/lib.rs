//! An arena-backed R-tree spatial index (Guttman 1984 insert/condense,
//! quadratic split, STR bulk loading), specialized to the integer cell
//! grid of a spreadsheet.
//!
//! TACO keeps one R-tree over the precedent vertices and one over the
//! dependent vertices of the compressed formula graph; every core
//! operation (candidate discovery during compression, the modified BFS,
//! visited-set subtraction, clearing cells) starts with "find all stored
//! ranges that overlap an input range", which is exactly the window query
//! this index answers.
//!
//! # Layout and allocation discipline
//!
//! Nodes live in a flat `Vec` pool addressed by `u32` ids — no `Box`, no
//! pointer chasing across allocations, no per-node heap traffic. Each
//! node inlines its child MBRs and slot ids in fixed arrays sized by the
//! `F` const parameter (the fanout, default [`DEFAULT_FANOUT`]). Leaf
//! slots point into a second flat arena of `(Range, T)` entries, which
//! doubles as the backing store for the lazy [`FanoutRTree::iter`].
//!
//! Hot-path contract:
//!
//! - [`FanoutRTree::for_each_overlapping`] is the one window walk and
//!   allocates **nothing**: the descent recurses, so there is no stack to
//!   own. Its hit order is part of its contract (see its docs).
//! - [`FanoutRTree::clear`] retains every buffer's capacity, so a tree reused
//!   as a per-query visited set stops allocating once warm.
//! - [`FanoutRTree::insert`] / [`FanoutRTree::remove`] reuse internal split/condense
//!   scratch buffers; steady-state mutation does not allocate either
//!   (only arena growth does).
//! - [`FanoutRTree::insert`] returns the entry's handle, its arena slot,
//!   which stays its own until the entry is removed (a condense moves an
//!   entry between leaves, never between slots). Every node records its
//!   parent and every entry its leaf, so [`FanoutRTree::update`] re-keys
//!   an entry by handle where it sits — from its leaf up, no descent, no
//!   split, no condense — for the caller whose rectangle moved or grew by
//!   a cell and who would otherwise pay a `remove` and an `insert`.
//! - [`FanoutRTree::bulk_load`] packs a full corpus bottom-up with
//!   Sort-Tile-Recursive tiling: every node (except the last of each
//!   level) is filled to `F`, which both shrinks the pool and minimizes
//!   overlap, so queries visit measurably fewer nodes than on an
//!   insertion-built tree.
//!
//! The tree stores `(Range, T)` entries; `T` is typically an edge id.
//! Duplicate ranges are allowed (several edges can share a vertex range);
//! a handle names one of them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use taco_grid::{Cell, Range};

/// Default node fanout. 16 won the 8-vs-16-vs-32 sweep on the combined
/// build + Fig. 10 / Fig. 14 query workload (numbers in DESIGN.md "Index
/// internals"): 8 visits ~1.7–2× more nodes per window query, while 32
/// pays O(F²) quadratic splits on the insert-heavy compression path
/// (~1.5–2× slower corpus builds) for only a marginal visit reduction.
pub const DEFAULT_FANOUT: usize = 16;

/// Minimum fill per node (Guttman's `m`, 40% of `F`); underflowing nodes
/// are condensed and their entries re-inserted.
#[must_use]
pub const fn min_fill(fanout: usize) -> usize {
    let m = fanout * 2 / 5;
    if m < 2 {
        2
    } else {
        m
    }
}

/// Sentinel for "no node"; also the filler for unused slot-array cells.
const NIL: u32 = u32::MAX;

/// Area of a range as `u64` (used by the least-enlargement heuristics).
#[inline]
fn area(r: Range) -> u64 {
    r.area()
}

/// Area growth needed for `mbr` to also cover `add`.
#[inline]
fn enlargement(mbr: Range, add: Range) -> u64 {
    area(mbr.bounding_union(&add)) - area(mbr)
}

/// One pool node: child MBRs and slot ids inline, nothing heap-allocated.
/// For internal nodes `slots[i]` is a node id; for leaves it indexes the
/// entry arena. Whether a node is a leaf is positional — every leaf sits
/// at depth `height`, so traversals carry the depth instead of a tag.
#[derive(Debug, Clone, Copy)]
struct Node<const F: usize> {
    mbrs: [Range; F],
    slots: [u32; F],
    /// The node whose slots hold this one; `NIL` at the root.
    parent: u32,
    count: u8,
}

impl<const F: usize> Node<F> {
    fn empty() -> Self {
        // Positions past `count` are never read; any `Range` value works
        // as the array filler (`Range` is `Copy`, no niche for `Option`).
        let filler = Range::cell(Cell::new(1, 1));
        Node { mbrs: [filler; F], slots: [NIL; F], parent: NIL, count: 0 }
    }

    #[inline]
    fn len(&self) -> usize {
        self.count as usize
    }

    #[inline]
    fn push(&mut self, mbr: Range, slot: u32) {
        let i = self.count as usize;
        self.mbrs[i] = mbr;
        self.slots[i] = slot;
        self.count += 1;
    }

    /// Removes position `i` by swapping the last child in.
    #[inline]
    fn swap_remove(&mut self, i: usize) {
        let last = self.count as usize - 1;
        self.mbrs[i] = self.mbrs[last];
        self.slots[i] = self.slots[last];
        self.count -= 1;
    }

    fn mbr(&self) -> Option<Range> {
        self.mbrs[..self.len()].iter().copied().reduce(|a, b| a.bounding_union(&b))
    }

    /// Position of the child `slot` (a node id, or an entry id in a leaf).
    #[inline]
    fn position(&self, slot: u32) -> usize {
        self.slots[..self.len()]
            .iter()
            .position(|&s| s == slot)
            .expect("a child sits in its parent")
    }
}

/// A spatial index over `(Range, T)` entries supporting overlap queries,
/// generic over the node fanout `F`; the test suites instantiate
/// 8/16/32 to keep the [`DEFAULT_FANOUT`] choice honest. Use the
/// [`RTree`] alias unless you are sweeping fanouts.
#[derive(Debug, Clone)]
pub struct FanoutRTree<T, const F: usize> {
    /// The node pool. Freed ids are recycled via `free_nodes`.
    nodes: Vec<Node<F>>,
    free_nodes: Vec<u32>,
    /// The entry arena: leaf slots index into it; `iter` walks it lazily.
    /// An entry's slot is its handle.
    entries: Vec<Option<(Range, T)>>,
    /// The leaf holding each entry, by entry slot.
    leaves: Vec<u32>,
    free_entries: Vec<u32>,
    root: u32,
    /// Levels in the tree; a lone root leaf has height 1.
    height: u32,
    len: usize,
    /// Reusable split scratch (`F + 1` pairs during overflow handling).
    split_buf: Vec<(Range, u32)>,
    /// Reusable condense scratch (orphaned entry ids awaiting re-insert).
    orphan_buf: Vec<u32>,
}

/// The workhorse instantiation: a [`FanoutRTree`] at [`DEFAULT_FANOUT`].
pub type RTree<T> = FanoutRTree<T, DEFAULT_FANOUT>;

impl<T, const F: usize> Default for FanoutRTree<T, F> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T, const F: usize> FanoutRTree<T, F> {
    /// Creates an empty tree.
    #[must_use]
    pub fn new() -> Self {
        assert!((4..=128).contains(&F), "fanout {F} outside the supported 4..=128");
        FanoutRTree {
            nodes: vec![Node::empty()],
            free_nodes: Vec::new(),
            entries: Vec::new(),
            leaves: Vec::new(),
            free_entries: Vec::new(),
            root: 0,
            height: 1,
            len: 0,
            split_buf: Vec::new(),
            orphan_buf: Vec::new(),
        }
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Height of the tree (a single leaf has height 1). Exposed for tests
    /// and diagnostics.
    pub fn height(&self) -> usize {
        self.height as usize
    }

    /// Number of live pool nodes (diagnostics: bulk-loaded trees pack
    /// tighter than insertion-built ones).
    pub fn node_count(&self) -> usize {
        self.nodes.len() - self.free_nodes.len()
    }

    /// Walks the whole tree and checks what every mutation must preserve
    /// (tests and diagnostics; O(n)): each child MBR an internal node
    /// stores is exactly the union of that child's own MBRs, each leaf MBR
    /// is its arena entry's range, every node names the node that holds it
    /// as its parent (the root none) and every entry the leaf that holds
    /// it, no node is empty (a lone root leaf aside), and the leaves hold
    /// `len` entries. Returns the number of non-root nodes holding fewer
    /// than [`min_fill`] children: zero for a tree grown by `insert` /
    /// `remove` / `update`, while STR packing may leave the last node of
    /// each level short.
    #[doc(hidden)]
    pub fn check_invariants(&self) -> Result<usize, String> {
        let (mut entries, mut underfull) = (0usize, 0usize);
        if self.nodes[self.root as usize].parent != NIL {
            return Err(format!("the root {} names a parent", self.root));
        }
        let mut stack = vec![(self.root, 1u32)];
        while let Some((id, depth)) = stack.pop() {
            let n = &self.nodes[id as usize];
            if n.len() == 0 && (id != self.root || self.height > 1) {
                return Err(format!("node {id} at depth {depth} is empty"));
            }
            if id != self.root && n.len() < min_fill(F) {
                underfull += 1;
            }
            for i in 0..n.len() {
                let slot = n.slots[i];
                let (want, up) = if depth == self.height {
                    entries += 1;
                    (
                        self.entries[slot as usize].as_ref().map(|(r, _)| *r),
                        self.leaves[slot as usize],
                    )
                } else {
                    stack.push((slot, depth + 1));
                    (self.nodes[slot as usize].mbr(), self.nodes[slot as usize].parent)
                };
                if up != id {
                    return Err(format!(
                        "child {i} of node {id} at depth {depth} names {up} as what holds it"
                    ));
                }
                if want != Some(n.mbrs[i]) {
                    return Err(format!(
                        "node {id} at depth {depth} stores {} for child {i}, which covers {want:?}",
                        n.mbrs[i]
                    ));
                }
            }
        }
        if entries != self.len {
            return Err(format!("leaves hold {entries} entries, len is {}", self.len));
        }
        Ok(underfull)
    }

    /// Removes all entries. Every internal buffer keeps its capacity, so
    /// a tree used as a reusable per-query visited set stops allocating
    /// once its high-water mark is reached.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.nodes.push(Node::empty());
        self.free_nodes.clear();
        self.entries.clear();
        self.leaves.clear();
        self.free_entries.clear();
        self.root = 0;
        self.height = 1;
        self.len = 0;
    }

    // ---- construction ----------------------------------------------------

    /// Builds a tree from a full entry set with Sort-Tile-Recursive
    /// packing: entries are sorted by column center, tiled into vertical
    /// slices, each slice sorted by row center and cut into full leaves;
    /// upper levels repeat the same tiling over node MBRs. The result has
    /// minimal node count and near-minimal overlap, which is what makes
    /// window queries on bulk-loaded graphs visit fewer nodes than on
    /// insertion-built ones. The `i`th item's handle is `i`.
    #[must_use]
    pub fn bulk_load(items: Vec<(Range, T)>) -> Self {
        let mut t = Self::new();
        if items.is_empty() {
            return t;
        }
        t.len = items.len();
        t.entries = items.into_iter().map(Some).collect();
        t.leaves = vec![NIL; t.len];
        t.nodes.clear();
        let mut level: Vec<(Range, u32)> = t
            .entries
            .iter()
            .enumerate()
            .map(|(i, e)| (e.as_ref().expect("fresh arena has no holes").0, i as u32))
            .collect();
        let mut height = 1;
        loop {
            level = t.str_pack(level, height == 1);
            if level.len() == 1 {
                t.root = level[0].1;
                t.height = height;
                return t;
            }
            height += 1;
        }
    }

    /// Packs one level's `(mbr, slot)` pairs into nodes (`leaf`: the
    /// slots are entries), returning the `(mbr, node id)` pairs of the
    /// level above.
    fn str_pack(&mut self, mut items: Vec<(Range, u32)>, leaf: bool) -> Vec<(Range, u32)> {
        // 2× the center coordinates (head + tail), avoiding division.
        #[inline]
        fn c2(r: &Range) -> (u64, u64) {
            (
                u64::from(r.head().col) + u64::from(r.tail().col),
                u64::from(r.head().row) + u64::from(r.tail().row),
            )
        }
        let leaves = items.len().div_ceil(F);
        let slices = (leaves as f64).sqrt().ceil() as usize;
        let slice_cap = slices.max(1) * F;
        items.sort_unstable_by_key(|(r, _)| {
            let (x, y) = c2(r);
            (x, y)
        });
        let mut out = Vec::with_capacity(leaves);
        for slice in items.chunks_mut(slice_cap) {
            slice.sort_unstable_by_key(|(r, _)| {
                let (x, y) = c2(r);
                (y, x)
            });
            for tile in slice.chunks(F) {
                let id = self.alloc_node();
                let node = &mut self.nodes[id as usize];
                for &(mbr, slot) in tile {
                    node.push(mbr, slot);
                }
                let mbr = node.mbr().expect("STR tiles are non-empty");
                self.adopt(id, leaf);
                out.push((mbr, id));
            }
        }
        out
    }

    // ---- queries ---------------------------------------------------------

    /// Calls `f` for every stored entry whose range overlaps `query`.
    /// Returns the number of tree nodes visited (the complexity metric
    /// the tests assert on). Allocation-free: the descent recurses.
    ///
    /// Hits come depth first, an internal node's children last to first
    /// and a leaf's entries first to last: the order an explicit LIFO
    /// stack descent reports, which the graph's query answers are pinned
    /// to (they cut ranges in hit order).
    pub fn for_each_overlapping<'a, G>(&'a self, query: Range, mut f: G) -> u64
    where
        G: FnMut(Range, &'a T),
    {
        let mut visited = 0;
        self.search_rec(self.root, 1, query, &mut f, &mut visited);
        visited
    }

    fn search_rec<'a, G>(
        &'a self,
        node: u32,
        depth: u32,
        query: Range,
        f: &mut G,
        visited: &mut u64,
    ) where
        G: FnMut(Range, &'a T),
    {
        *visited += 1;
        let n = &self.nodes[node as usize];
        if depth == self.height {
            for i in 0..n.len() {
                if n.mbrs[i].overlaps(&query) {
                    let (r, v) = self.entries[n.slots[i] as usize]
                        .as_ref()
                        .expect("leaf slots reference live entries");
                    f(*r, v);
                }
            }
        } else {
            for i in (0..n.len()).rev() {
                if n.mbrs[i].overlaps(&query) {
                    self.search_rec(n.slots[i], depth + 1, query, f, visited);
                }
            }
        }
    }

    /// Collects every `(range, &value)` overlapping `query`.
    pub fn overlapping(&self, query: Range) -> Vec<(Range, &T)> {
        let mut out = Vec::new();
        self.for_each_overlapping(query, |r, v| out.push((r, v)));
        out
    }

    /// Iterates over all entries (no particular order). Lazy: walks the
    /// entry arena directly, allocating nothing.
    pub fn iter(&self) -> impl Iterator<Item = (Range, &T)> {
        self.entries.iter().filter_map(|e| e.as_ref().map(|(r, v)| (*r, v)))
    }

    // ---- mutation --------------------------------------------------------

    /// Inserts an entry and returns its handle, for [`Self::update`].
    /// Duplicates (same range, same or different payload) are allowed and
    /// stored separately. The handle stays the entry's until it is
    /// removed; after that it may name a later entry.
    pub fn insert(&mut self, range: Range, value: T) -> u32 {
        let entry = self.alloc_entry(range, value);
        self.insert_slot(range, entry);
        self.len += 1;
        entry
    }

    /// Re-keys the entry `handle` names to the range `new`, where it sits.
    ///
    /// The entry's leaf MBR and arena range are overwritten, and the walk
    /// goes up parent by parent making the child MBR each ancestor stores
    /// exact again: the union with `new` when the entry only grew (exact,
    /// because the stored MBRs are tight), a recomputation over the child
    /// otherwise. It stops at the first ancestor whose stored MBR does
    /// not change, since nothing above it can. Entry count, leaf
    /// membership, height and every node's fill are untouched, so there is
    /// no descent, no split, no condense and no orphan re-insertion —
    /// where `remove` + `insert` pays two descents, ChooseSubtree, and now
    /// and then a quadratic split or a dissolved subtree. Every query
    /// answers exactly as if the entry had been removed and re-inserted;
    /// only the tree's shape may differ (the entry is not re-routed to the
    /// leaf ChooseSubtree would pick).
    ///
    /// # Panics
    ///
    /// If `handle` names no live entry.
    pub fn update(&mut self, handle: u32, new: Range) {
        let (range, _) =
            self.entries[handle as usize].as_mut().expect("update takes a live entry's handle");
        let grew = new.contains(range);
        *range = new;
        let (mut child, mut node, mut mbr) = (handle, self.leaves[handle as usize], new);
        loop {
            let n = &mut self.nodes[node as usize];
            let i = n.position(child);
            if n.mbrs[i] == mbr {
                return;
            }
            n.mbrs[i] = mbr;
            if node == self.root {
                return;
            }
            let parent = n.parent;
            mbr = if grew {
                let p = &self.nodes[parent as usize];
                p.mbrs[p.position(node)].bounding_union(&new)
            } else {
                n.mbr().expect("no node is empty")
            };
            (child, node) = (node, parent);
        }
    }

    /// Inserts an already-allocated entry arena slot (shared by `insert`
    /// and condense re-insertion; does not touch `len`).
    fn insert_slot(&mut self, range: Range, entry: u32) {
        if let Some((sib_mbr, sib_id)) = self.insert_rec(self.root, 1, range, entry) {
            // Root split: grow the tree by one level.
            let old_mbr = self.nodes[self.root as usize].mbr().expect("split root is non-empty");
            let new_root = self.alloc_node();
            let old_root = self.root;
            let n = &mut self.nodes[new_root as usize];
            n.push(old_mbr, old_root);
            n.push(sib_mbr, sib_id);
            self.adopt(new_root, false);
            self.root = new_root;
            self.height += 1;
        }
    }

    /// Inserts below `node` (at `depth`); returns the `(mbr, id)` of a
    /// new sibling when `node` split.
    fn insert_rec(
        &mut self,
        node: u32,
        depth: u32,
        range: Range,
        entry: u32,
    ) -> Option<(Range, u32)> {
        if depth == self.height {
            let n = &mut self.nodes[node as usize];
            if n.len() < F {
                n.push(range, entry);
                self.leaves[entry as usize] = node;
                None
            } else {
                Some(self.split_node(node, range, entry, true))
            }
        } else {
            // ChooseSubtree: least enlargement, ties by smallest area.
            let n = &self.nodes[node as usize];
            let best = (0..n.len())
                .min_by_key(|&i| (enlargement(n.mbrs[i], range), area(n.mbrs[i])))
                .expect("internal nodes are never empty");
            let child = n.slots[best];
            let split = self.insert_rec(child, depth + 1, range, entry);
            match split {
                None => {
                    let n = &mut self.nodes[node as usize];
                    n.mbrs[best] = n.mbrs[best].bounding_union(&range);
                    None
                }
                Some((new_mbr, new_id)) => {
                    // The split moved entries out of the child: recompute
                    // its MBR exactly.
                    let child_mbr =
                        self.nodes[child as usize].mbr().expect("child keeps min_fill entries");
                    let n = &mut self.nodes[node as usize];
                    n.mbrs[best] = child_mbr;
                    if n.len() < F {
                        n.push(new_mbr, new_id);
                        self.nodes[new_id as usize].parent = node;
                        None
                    } else {
                        Some(self.split_node(node, new_mbr, new_id, false))
                    }
                }
            }
        }
    }

    /// Guttman's quadratic split of `node`'s `F` children plus one
    /// overflow `(extra_mbr, extra_slot)`: picks the seed pair wasting the
    /// most area together, then assigns the rest to the group whose MBR
    /// grows least (respecting minimum fill). `node` keeps group A; the
    /// returned `(mbr, id)` is the freshly allocated group-B sibling, whose
    /// parent the caller sets. `leaf`: the slots are entries.
    fn split_node(
        &mut self,
        node: u32,
        extra_mbr: Range,
        extra_slot: u32,
        leaf: bool,
    ) -> (Range, u32) {
        let mut buf = std::mem::take(&mut self.split_buf);
        buf.clear();
        {
            let n = &self.nodes[node as usize];
            buf.extend((0..n.len()).map(|i| (n.mbrs[i], n.slots[i])));
        }
        buf.push((extra_mbr, extra_slot));

        // PickSeeds: the pair with maximal dead space.
        let (mut seed_a, mut seed_b, mut worst) = (0, 1, i64::MIN);
        for i in 0..buf.len() {
            for j in (i + 1)..buf.len() {
                let (ri, rj) = (buf[i].0, buf[j].0);
                let dead = area(ri.bounding_union(&rj)) as i64 - area(ri) as i64 - area(rj) as i64;
                if dead > worst {
                    (seed_a, seed_b, worst) = (i, j, dead);
                }
            }
        }
        // Group A reuses `node`; group B is the new sibling.
        let sibling = self.alloc_node();
        let a = &mut self.nodes[node as usize];
        a.count = 0;
        let (ra, sa) = buf[seed_a];
        a.push(ra, sa);
        let mut mbr_a = ra;
        let (rb, sb) = buf[seed_b];
        let b = &mut self.nodes[sibling as usize];
        b.push(rb, sb);
        let mut mbr_b = rb;
        // Drop the seeds (larger index first so the smaller stays valid).
        buf.swap_remove(seed_a.max(seed_b));
        buf.swap_remove(seed_a.min(seed_b));

        let min = min_fill(F);
        while let Some((r, slot)) = buf.pop() {
            let remaining = buf.len() + 1;
            let (len_a, len_b) =
                (self.nodes[node as usize].len(), self.nodes[sibling as usize].len());
            // Force assignment if a group must take all remaining entries
            // to reach minimum fill.
            let pick_a = if len_a + remaining <= min {
                true
            } else if len_b + remaining <= min {
                false
            } else {
                let grow_a = enlargement(mbr_a, r);
                let grow_b = enlargement(mbr_b, r);
                match grow_a.cmp(&grow_b) {
                    std::cmp::Ordering::Less => true,
                    std::cmp::Ordering::Greater => false,
                    // Ties: smaller area, then fewer entries.
                    std::cmp::Ordering::Equal => (area(mbr_a), len_a) <= (area(mbr_b), len_b),
                }
            };
            if pick_a {
                mbr_a = mbr_a.bounding_union(&r);
                self.nodes[node as usize].push(r, slot);
            } else {
                mbr_b = mbr_b.bounding_union(&r);
                self.nodes[sibling as usize].push(r, slot);
            }
        }
        self.split_buf = buf;
        self.adopt(node, leaf);
        self.adopt(sibling, leaf);
        (mbr_b, sibling)
    }

    /// Points every child of `node` (entries if `leaf`) back at it.
    fn adopt(&mut self, node: u32, leaf: bool) {
        let n = self.nodes[node as usize];
        for &slot in &n.slots[..n.len()] {
            if leaf {
                self.leaves[slot as usize] = node;
            } else {
                self.nodes[slot as usize].parent = node;
            }
        }
    }

    // ---- arena plumbing --------------------------------------------------

    fn alloc_node(&mut self) -> u32 {
        match self.free_nodes.pop() {
            Some(id) => {
                self.nodes[id as usize] = Node::empty();
                id
            }
            None => {
                self.nodes.push(Node::empty());
                (self.nodes.len() - 1) as u32
            }
        }
    }

    fn free_node(&mut self, id: u32) {
        self.free_nodes.push(id);
    }

    fn alloc_entry(&mut self, range: Range, value: T) -> u32 {
        match self.free_entries.pop() {
            Some(id) => {
                debug_assert!(self.entries[id as usize].is_none());
                self.entries[id as usize] = Some((range, value));
                id
            }
            None => {
                self.entries.push(Some((range, value)));
                self.leaves.push(NIL);
                (self.entries.len() - 1) as u32
            }
        }
    }
}

impl<T: PartialEq, const F: usize> FanoutRTree<T, F> {
    /// Position in leaf `node` of one entry matching `(range, value)`
    /// exactly.
    fn find_in_leaf(&self, node: u32, range: Range, value: &T) -> Option<usize> {
        let n = &self.nodes[node as usize];
        (0..n.len()).find(|&i| {
            n.mbrs[i] == range
                && self.entries[n.slots[i] as usize]
                    .as_ref()
                    .is_some_and(|(r, v)| *r == range && v == value)
        })
    }

    /// Removes one entry matching `(range, value)` exactly. Returns
    /// `true` if an entry was removed.
    ///
    /// Underflowing nodes are condensed Guttman-style: their surviving
    /// entries are re-inserted from the top (entry arena slots move
    /// between leaves without being reallocated).
    pub fn remove(&mut self, range: Range, value: &T) -> bool {
        let mut orphans = std::mem::take(&mut self.orphan_buf);
        orphans.clear();
        let removed = self.remove_rec(self.root, 1, range, value, &mut orphans);
        if removed {
            self.len -= 1;
            self.shrink_root();
            for entry in orphans.drain(..) {
                let r = self.entries[entry as usize]
                    .as_ref()
                    .expect("orphaned entries stay live in the arena")
                    .0;
                self.insert_slot(r, entry);
            }
        }
        self.orphan_buf = orphans;
        removed
    }

    /// Removes one matching entry below `node`; condenses underflowing
    /// descendants by pushing their surviving entry ids onto `orphans`.
    fn remove_rec(
        &mut self,
        node: u32,
        depth: u32,
        range: Range,
        value: &T,
        orphans: &mut Vec<u32>,
    ) -> bool {
        if depth == self.height {
            match self.find_in_leaf(node, range, value) {
                Some(i) => {
                    let slot = self.nodes[node as usize].slots[i];
                    self.entries[slot as usize] = None;
                    self.free_entries.push(slot);
                    self.nodes[node as usize].swap_remove(i);
                    true
                }
                None => false,
            }
        } else {
            let mut removed_at = None;
            for i in 0..self.nodes[node as usize].len() {
                let n = &self.nodes[node as usize];
                if n.mbrs[i].overlaps(&range) {
                    let child = n.slots[i];
                    if self.remove_rec(child, depth + 1, range, value, orphans) {
                        removed_at = Some(i);
                        break;
                    }
                }
            }
            let Some(i) = removed_at else { return false };
            let child = self.nodes[node as usize].slots[i];
            if self.nodes[child as usize].len() < min_fill(F) {
                // Condense: dissolve the child subtree into orphans.
                self.nodes[node as usize].swap_remove(i);
                self.dissolve(child, depth + 1, orphans);
            } else {
                let child_mbr =
                    self.nodes[child as usize].mbr().expect("non-underflowing node is non-empty");
                self.nodes[node as usize].mbrs[i] = child_mbr;
            }
            true
        }
    }

    /// Frees every node of the subtree, pushing its leaf entry ids onto
    /// `orphans` for re-insertion.
    fn dissolve(&mut self, node: u32, depth: u32, orphans: &mut Vec<u32>) {
        let n = self.nodes[node as usize];
        if depth == self.height {
            orphans.extend(n.slots[..n.len()].iter().copied());
        } else {
            for &child in &n.slots[..n.len()] {
                self.dissolve(child, depth + 1, orphans);
            }
        }
        self.free_node(node);
    }

    /// Collapses a root chain of single-child internal nodes; an empty
    /// internal root becomes a fresh leaf.
    fn shrink_root(&mut self) {
        while self.height > 1 {
            let root = &self.nodes[self.root as usize];
            match root.len() {
                1 => {
                    let only = root.slots[0];
                    self.free_node(self.root);
                    self.root = only;
                    self.nodes[only as usize].parent = NIL;
                    self.height -= 1;
                }
                0 => {
                    self.free_node(self.root);
                    self.root = self.alloc_node();
                    self.height = 1;
                    return;
                }
                _ => return,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(s: &str) -> Range {
        Range::parse_a1(s).unwrap()
    }

    #[test]
    fn empty_tree() {
        let t: RTree<u32> = RTree::new();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert!(t.overlapping(r("A1:Z100")).is_empty());
        assert!(t.overlapping(r("A1")).is_empty());
    }

    #[test]
    fn insert_and_query_basics() {
        let mut t = RTree::new();
        t.insert(r("A1:A3"), 1u32);
        t.insert(r("B1"), 2);
        t.insert(r("B2"), 3);
        t.insert(r("B2:B3"), 4);
        assert_eq!(t.len(), 4);

        let mut hits: Vec<u32> = t.overlapping(r("A1")).iter().map(|(_, v)| **v).collect();
        hits.sort_unstable();
        assert_eq!(hits, vec![1]);

        let mut hits: Vec<u32> = t.overlapping(r("B2")).iter().map(|(_, v)| **v).collect();
        hits.sort_unstable();
        assert_eq!(hits, vec![3, 4]);

        assert!(!t.overlapping(r("A2:B2")).is_empty());
        assert!(t.overlapping(r("D4:E9")).is_empty());
    }

    #[test]
    fn duplicate_ranges_are_kept_separately() {
        let mut t = RTree::new();
        t.insert(r("C1:C4"), 10u32);
        t.insert(r("C1:C4"), 11);
        assert_eq!(t.overlapping(r("C2")).len(), 2);
        assert!(t.remove(r("C1:C4"), &10));
        assert_eq!(t.overlapping(r("C2")).len(), 1);
        assert_eq!(*t.overlapping(r("C2"))[0].1, 11);
    }

    #[test]
    fn remove_missing_returns_false() {
        let mut t = RTree::new();
        t.insert(r("A1"), 1u32);
        assert!(!t.remove(r("A1"), &2));
        assert!(!t.remove(r("A2"), &1));
        assert_eq!(t.len(), 1);
        assert!(t.remove(r("A1"), &1));
        assert!(t.is_empty());
    }

    #[test]
    fn grows_and_answers_point_queries() {
        let mut t = RTree::new();
        // A 40x40 block of single cells.
        for col in 1..=40u32 {
            for row in 1..=40u32 {
                t.insert(Range::cell(Cell::new(col, row)), (col, row));
            }
        }
        assert_eq!(t.len(), 1600);
        assert!(t.height() > 1);
        for probe in [(1, 1), (40, 40), (17, 23)] {
            let hits = t.overlapping(Range::cell(Cell::new(probe.0, probe.1)));
            assert_eq!(hits.len(), 1);
            assert_eq!(*hits[0].1, probe);
        }
        // Window query.
        let hits = t.overlapping(Range::from_coords(3, 3, 5, 4));
        assert_eq!(hits.len(), 6);
    }

    #[test]
    fn mass_delete_shrinks_back() {
        let mut t = RTree::new();
        let mut keys = Vec::new();
        for col in 1..=25u32 {
            for row in 1..=25u32 {
                let range = Range::cell(Cell::new(col, row));
                t.insert(range, col * 100 + row);
                keys.push((range, col * 100 + row));
            }
        }
        for (range, v) in &keys {
            assert!(t.remove(*range, v), "missing {range}");
        }
        assert!(t.is_empty());
        assert_eq!(t.height(), 1);
        assert!(t.overlapping(r("A1:Z99")).is_empty());
    }

    #[test]
    fn overlapping_ranges_all_found() {
        let mut t = RTree::new();
        // Nested / overlapping ranges stress the MBR logic.
        t.insert(r("A1:J10"), 0u32);
        t.insert(r("C3:D4"), 1);
        t.insert(r("J10:K11"), 2);
        t.insert(r("K11"), 3);
        let mut hits: Vec<u32> = t.overlapping(r("J10")).iter().map(|(_, v)| **v).collect();
        hits.sort_unstable();
        assert_eq!(hits, vec![0, 2]);
    }

    #[test]
    fn iter_visits_everything_lazily() {
        let mut t = RTree::new();
        for i in 0..100u32 {
            t.insert(Range::cell(Cell::new(i % 10 + 1, i / 10 + 1)), i);
        }
        // Partial consumption is fine (true iterator, not a snapshot).
        let first_three: Vec<u32> = t.iter().take(3).map(|(_, v)| *v).collect();
        assert_eq!(first_three.len(), 3);
        let mut seen: Vec<u32> = t.iter().map(|(_, v)| *v).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clear_resets_and_reuses_capacity() {
        let mut t = RTree::new();
        for i in 0..50u32 {
            t.insert(Range::cell(Cell::new(i + 1, 1)), i);
        }
        let node_cap = t.nodes.capacity();
        t.clear();
        assert!(t.is_empty());
        assert!(t.overlapping(r("A1:XFD1")).is_empty());
        assert_eq!(t.nodes.capacity(), node_cap, "clear must keep the pool");
        for i in 0..50u32 {
            t.insert(Range::cell(Cell::new(i + 1, 1)), i);
        }
        assert_eq!(t.len(), 50);
    }

    #[test]
    fn bulk_load_matches_incremental() {
        let mut items = Vec::new();
        for col in 1..=30u32 {
            for row in 1..=20u32 {
                items.push((Range::from_coords(col, row, col + 2, row + 1), col * 100 + row));
            }
        }
        let bulk: RTree<u32> = RTree::bulk_load(items.clone());
        let mut inc: RTree<u32> = RTree::new();
        for (r, v) in &items {
            inc.insert(*r, *v);
        }
        assert_eq!(bulk.len(), inc.len());
        for probe in [r("A1"), r("C3:E9"), r("AA1:AB30"), r("Z99")] {
            let mut a: Vec<u32> = bulk.overlapping(probe).iter().map(|(_, v)| **v).collect();
            let mut b: Vec<u32> = inc.overlapping(probe).iter().map(|(_, v)| **v).collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "probe {probe}");
        }
        // STR packs at least as tight as incremental insertion.
        assert!(bulk.node_count() <= inc.node_count());
        assert!(bulk.height() <= inc.height());
    }

    #[test]
    fn bulk_load_small_and_empty() {
        let empty: RTree<u8> = RTree::bulk_load(Vec::new());
        assert!(empty.is_empty());
        assert_eq!(empty.height(), 1);
        let one: RTree<u8> = RTree::bulk_load(vec![(r("B2"), 7)]);
        assert_eq!(one.len(), 1);
        assert_eq!(one.height(), 1);
        assert_eq!(one.overlapping(r("A1:C3")).len(), 1);
    }

    #[test]
    fn bulk_loaded_tree_remains_mutable() {
        let items: Vec<(Range, u32)> =
            (1..=200u32).map(|i| (Range::cell(Cell::new(i % 20 + 1, i / 20 + 1)), i)).collect();
        let mut t: RTree<u32> = RTree::bulk_load(items.clone());
        t.insert(r("Z99"), 999);
        assert_eq!(t.len(), 201);
        assert!(t.remove(r("Z99"), &999));
        for (range, v) in &items {
            assert!(t.remove(*range, v), "missing {range}");
        }
        assert!(t.is_empty());
    }

    #[test]
    fn walk_reports_hits_in_stack_order_and_counts_nodes() {
        let mut t = RTree::new();
        for col in 1..=40u32 {
            for row in 1..=40u32 {
                t.insert(Range::cell(Cell::new(col, row)), (col, row));
            }
        }
        assert!(t.height() > 2);
        // The order the walk promises, spelled out as an explicit LIFO
        // stack descent: pop a node, push its overlapping children first
        // to last (so they pop last to first), report a leaf's hits first
        // to last.
        let by_stack = |query: Range| {
            let (mut hits, mut visited) = (Vec::new(), 0u64);
            let mut stack = vec![(t.root, 1u32)];
            while let Some((id, depth)) = stack.pop() {
                visited += 1;
                let n = &t.nodes[id as usize];
                for i in (0..n.len()).filter(|&i| n.mbrs[i].overlaps(&query)) {
                    if depth == t.height {
                        let (r, v) = t.entries[n.slots[i] as usize].unwrap();
                        hits.push((r, v));
                    } else {
                        stack.push((n.slots[i], depth + 1));
                    }
                }
            }
            (hits, visited)
        };
        for probe in [r("A1"), r("C3:F9"), r("AN40"), r("A1:AN40"), r("B7:AM9")] {
            let mut hits = Vec::new();
            let visited = t.for_each_overlapping(probe, |r, v| hits.push((r, *v)));
            assert_eq!((hits.clone(), visited), by_stack(probe), "probe {probe}");
            let mut want: Vec<_> =
                t.iter().filter(|(r, _)| r.overlaps(&probe)).map(|(r, v)| (r, *v)).collect();
            hits.sort_unstable();
            want.sort_unstable();
            assert_eq!(hits, want, "probe {probe}");
        }
        // A point query on a packed tree touches one path, not the pool.
        let visits = t.for_each_overlapping(r("A1"), |_, _| {});
        assert!(
            visits <= t.height() as u64 * F_FOR_TEST,
            "point query visited {visits} nodes at height {}",
            t.height()
        );
    }

    /// Loose per-level bound used by the visit assertions above.
    const F_FOR_TEST: u64 = DEFAULT_FANOUT as u64;

    #[test]
    fn alternate_fanouts_work() {
        fn drive<const F: usize>() {
            let items: Vec<(Range, u32)> =
                (0..500u32).map(|i| (Range::cell(Cell::new(i % 25 + 1, i / 25 + 1)), i)).collect();
            let mut t: FanoutRTree<u32, F> = FanoutRTree::bulk_load(items.clone());
            assert_eq!(t.len(), 500);
            let hits = t.overlapping(Range::from_coords(1, 1, 25, 20));
            assert_eq!(hits.len(), 500);
            for (range, v) in items.iter().take(250) {
                assert!(t.remove(*range, v));
            }
            assert_eq!(t.len(), 250);
        }
        drive::<4>();
        drive::<8>();
        drive::<16>();
        drive::<32>();
    }

    #[test]
    fn min_fill_is_sane() {
        assert_eq!(min_fill(8), 3);
        assert_eq!(min_fill(16), 6);
        assert_eq!(min_fill(32), 12);
        assert_eq!(min_fill(4), 2);
    }
}
