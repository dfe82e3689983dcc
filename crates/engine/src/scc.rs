//! Strongly connected components: the one routine behind the order the
//! engine derives from a graph — the workbook's dirty (sheet, node)
//! pairs, runs and cells, across sheets (`crate::order`).
//!
//! Tarjan's algorithm, iterative, on buffers that outlive a search: a
//! component is found only after every component it reaches, so the
//! components come out in reverse topological order — exactly the order a
//! node's precedents must be evaluated in before it (SNIPPETS.md 3 does the
//! same over WebGraph's compressed graphs). A search may start from a node
//! an earlier search has already reached, which it leaves alone: searches
//! from more roots keep appending components behind the ones found.

/// A directed graph as a search walks it. Nodes are dense ids; a graph
/// may bring a node into being while naming it as a successor.
pub(crate) trait Digraph {
    /// Appends the successors of `v` to `out`.
    fn successors(&mut self, v: u32, out: &mut Vec<u32>);
}

/// A node no search has reached.
const UNSEEN: u32 = u32::MAX;
/// A node whose component has been found.
const DONE: u32 = u32::MAX - 1;

/// A node being searched, and the slice of `nbrs` holding its successors.
#[derive(Debug, Clone, Copy)]
struct Frame {
    node: u32,
    start: u32,
    cursor: u32,
    end: u32,
}

/// See the module documentation.
#[derive(Debug, Default)]
pub(crate) struct Tarjan {
    /// Per node: `UNSEEN`, `DONE`, or its search number while it is open.
    num: Vec<u32>,
    low: Vec<u32>,
    next: u32,
    /// Open nodes, in the order they were reached.
    open: Vec<u32>,
    frames: Vec<Frame>,
    /// Every open frame's successors, each frame owning a slice.
    nbrs: Vec<u32>,
    /// The components found, in the order found: members flattened,
    /// component `k` ending at `ends[k]`.
    members: Vec<u32>,
    ends: Vec<u32>,
}

impl Tarjan {
    /// Forgets every node and component (capacity stays).
    pub(crate) fn clear(&mut self) {
        self.num.clear();
        self.low.clear();
        self.next = 0;
        self.members.clear();
        self.ends.clear();
    }

    /// Components found so far.
    pub(crate) fn count(&self) -> usize {
        self.ends.len()
    }

    /// Where component `k`'s members sit in [`Self::members`].
    pub(crate) fn bounds(&self, k: usize) -> std::ops::Range<usize> {
        let start = if k == 0 { 0 } else { self.ends[k - 1] as usize };
        start..self.ends[k] as usize
    }

    /// Every component's members, flattened in the order found.
    pub(crate) fn members(&self) -> &[u32] {
        &self.members
    }

    /// Component `k`'s members, to be put in an order of the caller's.
    pub(crate) fn component_mut(&mut self, k: usize) -> &mut [u32] {
        let bounds = self.bounds(k);
        &mut self.members[bounds]
    }

    /// Makes room for nodes `0..n` at once, rather than one by one as the
    /// search enters them.
    pub(crate) fn reserve(&mut self, n: usize) {
        if n > self.num.len() {
            self.num.resize(n, UNSEEN);
            self.low.resize(n, UNSEEN);
        }
    }

    fn state(&self, v: u32) -> u32 {
        self.num.get(v as usize).copied().unwrap_or(UNSEEN)
    }

    /// Searches from `root`, unless a search has reached it already,
    /// appending every component found.
    pub(crate) fn search(&mut self, root: u32, g: &mut impl Digraph) {
        if self.state(root) != UNSEEN {
            return;
        }
        self.enter(root, g);
        while let Some(&Frame { node, start, cursor, end }) = self.frames.last() {
            if cursor < end {
                self.frames.last_mut().expect("frame just read").cursor += 1;
                let w = self.nbrs[cursor as usize];
                match self.state(w) {
                    UNSEEN => self.enter(w, g),
                    DONE => {}
                    // Open: on the stack, in this node's component or an
                    // enclosing one.
                    num => self.low[node as usize] = self.low[node as usize].min(num),
                }
                continue;
            }
            self.frames.pop();
            self.nbrs.truncate(start as usize);
            let low = self.low[node as usize];
            if let Some(parent) = self.frames.last() {
                let up = &mut self.low[parent.node as usize];
                *up = (*up).min(low);
            }
            if low == self.num[node as usize] {
                while let Some(w) = self.open.pop() {
                    self.num[w as usize] = DONE;
                    self.members.push(w);
                    if w == node {
                        break;
                    }
                }
                self.ends.push(self.members.len() as u32);
            }
        }
    }

    /// Opens `v`: numbers it and lists its successors. A node without
    /// any is a component of its own at once (no parent's `low` is above
    /// its number).
    fn enter(&mut self, v: u32, g: &mut impl Digraph) {
        let i = v as usize;
        self.reserve(i + 1);
        let start = self.nbrs.len() as u32;
        g.successors(v, &mut self.nbrs);
        let end = self.nbrs.len() as u32;
        if start == end {
            self.num[i] = DONE;
            self.members.push(v);
            self.ends.push(self.members.len() as u32);
            return;
        }
        self.num[i] = self.next;
        self.low[i] = self.next;
        self.next += 1;
        self.open.push(v);
        self.frames.push(Frame { node: v, start, cursor: start, end });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An adjacency list.
    struct Lists(Vec<Vec<u32>>);

    impl Digraph for Lists {
        fn successors(&mut self, v: u32, out: &mut Vec<u32>) {
            out.extend(&self.0[v as usize]);
        }
    }

    fn components(t: &Tarjan) -> Vec<Vec<u32>> {
        (0..t.count())
            .map(|k| {
                let mut c = t.members()[t.bounds(k)].to_vec();
                c.sort_unstable();
                c
            })
            .collect()
    }

    #[test]
    fn components_come_out_after_everything_they_reach() {
        // 0 → 1 ⇄ 2 → 3, 4 → 0, 3 → 3.
        let mut g = Lists(vec![vec![1], vec![2], vec![1, 3], vec![3], vec![0]]);
        let mut t = Tarjan::default();
        t.search(0, &mut g);
        assert_eq!(components(&t), vec![vec![3], vec![1, 2], vec![0]]);
        // A later search appends behind, leaving what it meets alone.
        t.search(2, &mut g);
        t.search(4, &mut g);
        assert_eq!(components(&t), vec![vec![3], vec![1, 2], vec![0], vec![4]]);
        t.clear();
        t.search(4, &mut g);
        assert_eq!(components(&t).concat(), vec![3, 1, 2, 0, 4]);
    }
}
