//! Proximity-graph structure and best-first search.
//!
//! [`NeighborGraph`] is what the fine-grained index builder (RoarGraph)
//! produces and the structure DIPRS traverses: a *frozen* CSR adjacency
//! (`offsets` + one flat `neighbors` array, the layout the storage tier can
//! write without re-encoding) with a designated entry point, plus the one
//! best-first beam search for maximum-inner-product queries and the
//! ACORN-style frontier gather (§7.1) that every predicate-aware traversal
//! expands nodes through. Graphs are assembled in a mutable
//! [`GraphBuilder`] and frozen once; nothing mutates a `NeighborGraph`.
//!
//! Traversals keep their working state — visited stamps, candidate list,
//! frontier ids, scores, the beam's heaps — in one per-thread
//! [`TraversalScratch`] borrowed through [`with_scratch`], so a
//! steady-state search allocates only the `Vec` it returns.

use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use alaya_vector::topk::ScoredIdx;

use crate::source::VectorSource;

/// Mutable adjacency lists over vector ids `0..len`: the construction-time
/// form of a [`NeighborGraph`].
#[derive(Debug)]
pub struct GraphBuilder {
    adjacency: Vec<Vec<u32>>,
    entry: u32,
}

impl GraphBuilder {
    /// Creates an edgeless graph over `n` nodes with entry point 0.
    pub fn new(n: usize) -> Self {
        Self {
            adjacency: vec![Vec::new(); n],
            entry: 0,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.adjacency.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.adjacency.is_empty()
    }

    /// The search entry point.
    pub fn entry(&self) -> u32 {
        self.entry
    }

    /// Sets the search entry point.
    pub fn set_entry(&mut self, entry: u32) {
        debug_assert!((entry as usize) < self.adjacency.len());
        self.entry = entry;
    }

    /// Out-neighbors of `id`.
    #[inline]
    pub fn neighbors(&self, id: u32) -> &[u32] {
        &self.adjacency[id as usize]
    }

    /// Adds a directed edge `from → to` if absent. Self-loops are ignored.
    pub fn add_edge(&mut self, from: u32, to: u32) {
        if from == to {
            return;
        }
        let list = &mut self.adjacency[from as usize];
        if !list.contains(&to) {
            list.push(to);
        }
    }

    /// Adds `from → to` and `to → from`.
    pub fn add_edge_bidirectional(&mut self, a: u32, b: u32) {
        self.add_edge(a, b);
        self.add_edge(b, a);
    }

    /// Replaces the out-neighbor list of `id`.
    pub fn set_neighbors(&mut self, id: u32, neighbors: Vec<u32>) {
        self.adjacency[id as usize] = neighbors;
    }

    /// The searchable CSR form of the current state, allocated at its exact
    /// size. Neighbor order is preserved, so a traversal of the frozen graph
    /// visits what a traversal of these lists would.
    ///
    /// # Panics
    /// Panics if the graph holds more than `u32::MAX` edges.
    pub fn freeze(&self) -> NeighborGraph {
        let edges: usize = self.adjacency.iter().map(Vec::len).sum();
        assert!(
            u32::try_from(edges).is_ok(),
            "CSR offsets are u32: {edges} edges do not fit"
        );
        let mut offsets = Vec::with_capacity(self.adjacency.len() + 1);
        let mut neighbors = Vec::with_capacity(edges);
        offsets.push(0);
        for list in &self.adjacency {
            neighbors.extend_from_slice(list);
            offsets.push(neighbors.len() as u32);
        }
        NeighborGraph {
            offsets,
            neighbors,
            entry: self.entry,
        }
    }
}

/// A frozen directed proximity graph over vector ids `0..len`, in CSR form:
/// node `id`'s out-neighbors are `neighbors[offsets[id]..offsets[id + 1]]`.
#[derive(Clone, Debug, PartialEq)]
pub struct NeighborGraph {
    /// `len + 1` ascending edge offsets; `offsets[0] == 0`.
    offsets: Vec<u32>,
    neighbors: Vec<u32>,
    entry: u32,
}

impl NeighborGraph {
    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The search entry point.
    pub fn entry(&self) -> u32 {
        self.entry
    }

    /// Out-neighbors of `id`.
    #[inline]
    pub fn neighbors(&self, id: u32) -> &[u32] {
        let id = id as usize;
        &self.neighbors[self.offsets[id] as usize..self.offsets[id + 1] as usize]
    }

    /// Maximum out-degree.
    pub fn max_degree(&self) -> usize {
        self.offsets
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .max()
            .unwrap_or(0)
    }

    /// Total number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.neighbors.len()
    }

    /// Heap footprint in bytes: both CSR vectors at their capacity, plus
    /// the header. This is what [`RoarGraph::bytes`] and the context byte
    /// budget charge.
    ///
    /// [`RoarGraph::bytes`]: crate::roargraph::RoarGraph::bytes
    pub fn bytes(&self) -> usize {
        4 * (self.offsets.capacity() + self.neighbors.capacity()) + std::mem::size_of::<Self>()
    }

    /// Best-first beam search maximizing inner product. Returns up to `k`
    /// results sorted descending by score; the beam keeps `max(ef, k)`
    /// candidates.
    ///
    /// This is the standard graph-ANNS search the paper's top-k baseline
    /// uses; DIPRS (in `alaya-query`) replaces it for DIPR queries.
    pub fn search_topk<S: VectorSource>(
        &self,
        source: &S,
        q: &[f32],
        k: usize,
        ef: usize,
    ) -> Vec<ScoredIdx> {
        self.search_topk_filtered(source, q, k, ef, |_| true)
    }

    /// [`NeighborGraph::search_topk`] restricted to ids passing `predicate`
    /// — the query optimizer's plan for `TopK + filter` on a fine index.
    /// Nodes expand through [`NeighborGraph::gather_frontier`], so excluded
    /// nodes are walked through, never returned.
    pub fn search_topk_filtered<S, P>(
        &self,
        source: &S,
        q: &[f32],
        k: usize,
        ef: usize,
        predicate: P,
    ) -> Vec<ScoredIdx>
    where
        S: VectorSource,
        P: Fn(u32) -> bool,
    {
        if self.is_empty() || k == 0 {
            return Vec::new();
        }
        let ef = ef.max(k);
        with_scratch(|scratch| {
            // Max-heap of frontier candidates; min-heap (via Reverse) of
            // the best `ef` results found so far.
            let TraversalScratch {
                visited,
                frontier: fresh,
                scores,
                beam,
                results,
                ..
            } = scratch;
            visited.begin(self.len());
            beam.clear();
            results.clear();

            // Frontier scoring is batched per expansion: heap-insert
            // decisions depend on heap state, scores do not, so scoring the
            // gathered block first and applying the insert logic in
            // gathering order yields exactly the per-key traversal's result.
            let consider_block =
                |fresh: &[u32],
                 scores: &mut Vec<f32>,
                 beam: &mut BinaryHeap<ScoredIdx>,
                 results: &mut BinaryHeap<Reverse<ScoredIdx>>| {
                    scores.resize(fresh.len(), 0.0);
                    source.score_block(q, fresh, scores);
                    for (&id, &score) in fresh.iter().zip(scores.iter()) {
                        let item = ScoredIdx {
                            idx: id as usize,
                            score,
                        };
                        if results.len() >= ef {
                            // Full: admit only by evicting a strictly worse result.
                            if results.peek().is_none_or(|worst| item <= worst.0) {
                                continue;
                            }
                            results.pop();
                        }
                        results.push(Reverse(item));
                        beam.push(item);
                    }
                };

            // An entry that fails the predicate is only a traversal seed.
            visited.insert(self.entry);
            if predicate(self.entry) {
                fresh.clear();
                fresh.push(self.entry);
                consider_block(fresh, scores, beam, results);
            } else {
                beam.push(ScoredIdx {
                    idx: self.entry as usize,
                    score: source.score(q, self.entry),
                });
            }

            while let Some(cand) = beam.pop() {
                // The frontier's best cannot improve the result set: stop.
                if results.len() >= ef && results.peek().is_some_and(|w| cand.score < w.0.score) {
                    break;
                }
                fresh.clear();
                self.gather_frontier(cand.idx as u32, &predicate, visited, fresh);
                consider_block(fresh, scores, beam, results);
            }

            let mut out = Vec::with_capacity(results.len());
            out.extend(results.drain().map(|r| r.0));
            out.sort_unstable_by(|a, b| b.cmp(a));
            out.truncate(k);
            out
        })
    }

    /// The ACORN-style frontier gather shared by the beam search and
    /// filtered DIPRS: appends to `fresh` `node`'s unvisited,
    /// predicate-passing neighbors in traversal order, widening to the 2-hop
    /// neighborhood through each excluded neighbor so that excluded nodes do
    /// not disconnect the reused-prefix subgraph. Every neighbor reached is
    /// marked visited whether or not a caller later keeps it, so what a node
    /// contributes depends only on the gathers that ran before it.
    pub fn gather_frontier<P: Fn(u32) -> bool>(
        &self,
        node: u32,
        predicate: &P,
        visited: &mut VisitedStamps,
        fresh: &mut Vec<u32>,
    ) {
        for &n in self.neighbors(node) {
            if predicate(n) {
                // Whether `n` is new is a coin flip the branch predictor
                // loses about every other neighbor, so keep it out of the
                // control flow: always store, then keep the slot or not.
                let kept = fresh.len() + usize::from(visited.insert(n));
                fresh.push(n);
                fresh.truncate(kept);
            } else if visited.insert(n) {
                for &m in self.neighbors(n) {
                    if predicate(m) && visited.insert(m) {
                        fresh.push(m);
                    }
                }
            }
        }
    }

    /// Serializes the graph to a flat little-endian byte buffer
    /// (`[n, entry, degree_0, nbrs_0.., degree_1, ...]`), the on-disk format
    /// of vector-index blocks in the storage engine.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + self.edge_count() * 4 + self.len() * 4);
        out.extend_from_slice(&(self.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.entry.to_le_bytes());
        for id in 0..self.len() as u32 {
            let list = self.neighbors(id);
            out.extend_from_slice(&(list.len() as u32).to_le_bytes());
            for &n in list {
                out.extend_from_slice(&n.to_le_bytes());
            }
        }
        out
    }

    /// Deserializes a graph written by [`NeighborGraph::to_bytes`] straight
    /// into the CSR vectors. Returns `None` on truncated or malformed
    /// input. Every count read from `bytes` is bounded by the words that
    /// remain before anything is allocated for it, so a hostile header
    /// cannot request more memory than the input's own length.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let mut words = bytes
            .chunks_exact(4)
            .map(|w| u32::from_le_bytes([w[0], w[1], w[2], w[3]]));
        let n = words.next()? as usize;
        let entry = words.next()?;
        // Each node costs at least its degree word.
        if n > words.len() || (n > 0 && entry as usize >= n) {
            return None;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        // What is not a degree word is at most an edge.
        let mut neighbors = Vec::with_capacity(words.len() - n);
        offsets.push(0);
        for _ in 0..n {
            let deg = words.next()? as usize;
            if deg > words.len() {
                return None;
            }
            for v in words.by_ref().take(deg) {
                if v as usize >= n {
                    return None;
                }
                neighbors.push(v);
            }
            offsets.push(u32::try_from(neighbors.len()).ok()?);
        }
        Some(Self {
            offsets,
            neighbors,
            entry,
        })
    }
}

/// Generation-stamped visited array used by all graph traversals: a slot
/// counts as visited when it holds the current generation, so starting a
/// new traversal is one increment instead of a clear.
#[derive(Debug, Default)]
pub struct VisitedStamps {
    stamps: Vec<u32>,
    generation: u32,
}

impl VisitedStamps {
    /// Starts a traversal over ids `0..n` with nothing visited. The array
    /// only ever grows (to the largest graph this thread has searched).
    pub fn begin(&mut self, n: usize) {
        if self.stamps.len() < n {
            self.stamps.resize(n, 0);
        }
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Wrapped: stamps from 2^32 traversals ago would read as current.
            self.stamps.fill(0);
            self.generation = 1;
        }
    }

    /// Marks `id` visited; returns `true` if it was previously unvisited.
    #[inline]
    pub fn insert(&mut self, id: u32) -> bool {
        let slot = &mut self.stamps[id as usize];
        let fresh = *slot != self.generation;
        *slot = self.generation;
        fresh
    }

    /// Test hook: jumps the generation counter (e.g. to just below the wrap).
    #[doc(hidden)]
    pub fn set_generation(&mut self, generation: u32) {
        self.generation = generation;
    }
}

/// Reusable working state of one graph traversal. Every buffer keeps its
/// capacity between calls; a traversal clears what it uses before use.
#[derive(Debug, Default)]
pub struct TraversalScratch {
    /// Visited marks.
    pub visited: VisitedStamps,
    /// DIPRS's growing candidate list `C`.
    pub candidates: Vec<ScoredIdx>,
    /// Ids gathered for the next scoring call.
    pub frontier: Vec<u32>,
    /// Scores of `frontier`, position for position.
    pub scores: Vec<f32>,
    beam: BinaryHeap<ScoredIdx>,
    results: BinaryHeap<Reverse<ScoredIdx>>,
}

thread_local! {
    static SCRATCH: Cell<TraversalScratch> = Cell::default();
}

/// Runs `f` with this thread's [`TraversalScratch`]. The scratch is moved
/// out for the duration of the call, so a traversal started from inside `f`
/// (a predicate or source that itself searches) gets an empty one instead
/// of a borrow panic.
pub fn with_scratch<R>(f: impl FnOnce(&mut TraversalScratch) -> R) -> R {
    let mut scratch = SCRATCH.with(Cell::take);
    let out = f(&mut scratch);
    SCRATCH.with(|cell| cell.set(scratch));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use alaya_vector::rng::{gaussian_store, seeded};
    use alaya_vector::VecStore;

    use crate::flat::FlatIndex;
    use crate::roargraph::{RoarGraph, RoarGraphParams};

    #[test]
    fn edges_dedup_and_no_self_loops() {
        let mut g = GraphBuilder::new(3);
        g.add_edge(0, 1);
        g.add_edge(0, 1);
        g.add_edge(0, 0);
        assert_eq!(g.neighbors(0), &[1]);
        g.add_edge_bidirectional(1, 2);
        assert_eq!(g.neighbors(1), &[2]);
        assert_eq!(g.neighbors(2), &[1]);
        let frozen = g.freeze();
        assert_eq!(frozen.edge_count(), 3);
        for id in 0..3 {
            assert_eq!(frozen.neighbors(id), g.neighbors(id));
        }
    }

    #[test]
    fn search_on_fully_connected_graph_is_exact() {
        let mut rng = seeded(11);
        let vecs = gaussian_store(&mut rng, 50, 8, 1.0);
        let mut g = GraphBuilder::new(50);
        for i in 0..50u32 {
            for j in 0..50u32 {
                g.add_edge(i, j);
            }
        }
        let g = g.freeze();
        let q = vecs.row(7).to_vec();
        let got = g.search_topk(&vecs, &q, 5, 50);
        let want = FlatIndex.search_topk(&vecs, &q, 5);
        let g_ids: Vec<usize> = got.iter().map(|s| s.idx).collect();
        let w_ids: Vec<usize> = want.iter().map(|s| s.idx).collect();
        assert_eq!(g_ids, w_ids);
    }

    #[test]
    fn search_respects_reachability() {
        // Two disconnected cliques: search from entry in clique A can never
        // return nodes of clique B.
        let vecs = VecStore::from_flat(1, vec![0.0, 1.0, 2.0, 100.0, 101.0]);
        let mut g = GraphBuilder::new(5);
        for i in 0..3u32 {
            for j in 0..3u32 {
                g.add_edge(i, j);
            }
        }
        g.add_edge_bidirectional(3, 4);
        g.set_entry(0);
        let g = g.freeze();
        let got = g.search_topk(&vecs, &[1.0], 5, 8);
        assert!(
            got.iter().all(|s| s.idx < 3),
            "unreachable nodes returned: {got:?}"
        );
    }

    #[test]
    fn empty_and_k_zero() {
        let g = GraphBuilder::new(0).freeze();
        let vecs = VecStore::new(1);
        assert!(g.search_topk(&vecs, &[1.0], 3, 64).is_empty());
        let g = GraphBuilder::new(1).freeze();
        let vecs = VecStore::from_flat(1, vec![1.0]);
        assert!(g.search_topk(&vecs, &[1.0], 0, 64).is_empty());
    }

    #[test]
    fn serialization_round_trip() {
        let mut g = GraphBuilder::new(4);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(1, 3);
        g.add_edge(3, 0);
        g.set_entry(2);
        let g = g.freeze();
        let bytes = g.to_bytes();
        let back = NeighborGraph::from_bytes(&bytes).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn bytes_is_the_csr_footprint() {
        let mut rng = seeded(12);
        let base = gaussian_store(&mut rng, 300, 8, 1.0);
        let train = gaussian_store(&mut rng, 150, 8, 1.0);
        let rg = RoarGraph::build(&base, &train, RoarGraphParams::default());
        let g = rg.graph();
        let header = std::mem::size_of::<NeighborGraph>();
        assert_eq!(
            g.bytes(),
            4 * (g.offsets.capacity() + g.neighbors.capacity()) + header
        );
        assert_eq!(rg.bytes(), g.bytes());
        // Frozen and decoded graphs are allocated at their exact size.
        assert_eq!(g.bytes(), 4 * (g.len() + 1 + g.edge_count()) + header);
        let back = NeighborGraph::from_bytes(&g.to_bytes()).unwrap();
        assert_eq!(back.bytes(), g.bytes());
    }

    #[test]
    fn deserialization_rejects_garbage() {
        assert!(NeighborGraph::from_bytes(&[1, 2, 3]).is_none());
        // Neighbor id out of range.
        let mut g = GraphBuilder::new(2);
        g.add_edge(0, 1);
        let mut bytes = g.freeze().to_bytes();
        let len = bytes.len();
        bytes[len - 4..].copy_from_slice(&99u32.to_le_bytes());
        assert!(NeighborGraph::from_bytes(&bytes).is_none());
    }

    #[test]
    fn deserialization_bounds_node_count_by_input_length() {
        // Hostile header: a node count far beyond what the remaining bytes
        // could hold must be rejected before an allocation is sized from it
        // (`with_capacity(u32::MAX + 1)` offsets aborts the process).
        let mut huge_n = u32::MAX.to_le_bytes().to_vec();
        huge_n.extend_from_slice(&0u32.to_le_bytes());
        assert!(NeighborGraph::from_bytes(&huge_n).is_none());
    }

    #[test]
    fn deserialization_bounds_degree_by_input_length() {
        // Same for one node's degree word.
        let mut huge_deg = Vec::new();
        for word in [1u32, 0, u32::MAX] {
            huge_deg.extend_from_slice(&word.to_le_bytes());
        }
        assert!(NeighborGraph::from_bytes(&huge_deg).is_none());
    }

    #[test]
    fn search_topk_filtered_matches_flat_filtered() {
        let mut rng = seeded(107);
        let base = gaussian_store(&mut rng, 500, 12, 1.0);
        let train = gaussian_store(&mut rng, 250, 12, 1.0);
        let queries = gaussian_store(&mut rng, 10, 12, 1.0);
        let graph = RoarGraph::build(&base, &train, RoarGraphParams::default()).into_graph();
        let prefix = 200usize;
        let mut hits = 0;
        let mut total = 0;
        for qi in 0..queries.len() {
            let q = queries.row(qi);
            let got = graph.search_topk_filtered(&base, q, 10, 80, |id| (id as usize) < prefix);
            assert!(got.iter().all(|t| t.idx < prefix));
            let want = FlatIndex.search_topk_filtered(&base, q, 10, |id| (id as usize) < prefix);
            let want_ids: std::collections::HashSet<usize> = want.iter().map(|s| s.idx).collect();
            hits += got.iter().filter(|s| want_ids.contains(&s.idx)).count();
            total += want.len();
        }
        let recall = hits as f64 / total as f64;
        assert!(recall > 0.75, "filtered top-k recall {recall}");
    }

    #[test]
    fn excluded_entry_is_only_a_traversal_seed() {
        // The entry (node 5, the best-scoring key) fails the prefix
        // predicate: the beam must walk out of it, return the exact
        // filtered top-k, and never return it or any other excluded id.
        let vecs = VecStore::from_flat(1, vec![1.0, 4.0, 2.0, 3.0, 50.0, 100.0]);
        let mut g = GraphBuilder::new(6);
        for (a, b) in [(5, 4), (4, 0), (0, 1), (1, 2), (2, 3)] {
            g.add_edge_bidirectional(a, b);
        }
        g.set_entry(5);
        let g = g.freeze();
        let pred = |id: u32| id < 4;
        let got = g.search_topk_filtered(&vecs, &[1.0], 3, 8, pred);
        let want = FlatIndex.search_topk_filtered(&vecs, &[1.0], 3, pred);
        assert_eq!(got, want);
        assert_eq!(got.iter().map(|s| s.idx).collect::<Vec<_>>(), vec![1, 3, 2]);
    }

    #[test]
    fn visited_set() {
        let mut v = VisitedStamps::default();
        v.begin(130);
        assert!(v.insert(0));
        assert!(!v.insert(0));
        assert!(v.insert(129));
        assert!(!v.insert(129));
        assert!(v.insert(128));
        // A new traversal forgets everything in O(1), on a smaller id range
        // too, and across the generation wrap.
        v.begin(10);
        assert!(v.insert(0));
        v.set_generation(u32::MAX - 1);
        v.insert(5);
        v.begin(130);
        assert!(v.insert(5) && !v.insert(5));
        v.begin(130);
        assert!(v.insert(5) && v.insert(129));
        // Generation 2 comes round again: the stamp slot 0 got in the
        // first generation 2 must not read as current.
        v.begin(130);
        assert!(v.insert(0));
    }

    #[test]
    fn degree_stats() {
        let mut g = GraphBuilder::new(3);
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        g.add_edge(1, 2);
        let g = g.freeze();
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.edge_count(), 3);
    }
}
