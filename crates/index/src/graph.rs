//! Proximity-graph structure and best-first search.
//!
//! [`NeighborGraph`] is what the fine-grained index builder (RoarGraph)
//! produces and the structure DIPRS traverses. It is an adjacency list with
//! a designated entry point, plus the one best-first beam search for
//! maximum-inner-product queries and the ACORN-style frontier gather
//! (§7.1) that every predicate-aware traversal expands nodes through.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use alaya_vector::topk::ScoredIdx;

use crate::source::VectorSource;

/// A directed proximity graph over vector ids `0..len`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NeighborGraph {
    adjacency: Vec<Vec<u32>>,
    entry: u32,
}

impl NeighborGraph {
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

    /// Maximum out-degree.
    pub fn max_degree(&self) -> usize {
        self.adjacency.iter().map(|l| l.len()).max().unwrap_or(0)
    }

    /// Total number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.adjacency.iter().map(|l| l.len()).sum()
    }

    /// Approximate heap footprint in bytes (adjacency storage).
    pub fn bytes(&self) -> usize {
        self.adjacency
            .iter()
            .map(|l| l.capacity() * 4 + 24)
            .sum::<usize>()
            + 32
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
        let mut visited = VisitedSet::new(self.len());
        // Max-heap of frontier candidates; min-heap (via Reverse) of the
        // best `ef` results found so far.
        let mut frontier: BinaryHeap<ScoredIdx> = BinaryHeap::new();
        let mut results: BinaryHeap<Reverse<ScoredIdx>> = BinaryHeap::new();

        // Frontier scoring is batched per expansion: heap-insert decisions
        // depend on heap state, scores do not, so scoring the gathered
        // block first and applying the insert logic in gathering order
        // yields exactly the per-key traversal's result.
        let mut fresh: Vec<u32> = Vec::new();
        let mut fresh_scores: Vec<f32> = Vec::new();
        let consider_block =
            |fresh: &[u32],
             fresh_scores: &mut Vec<f32>,
             frontier: &mut BinaryHeap<ScoredIdx>,
             results: &mut BinaryHeap<Reverse<ScoredIdx>>| {
                fresh_scores.resize(fresh.len(), 0.0);
                source.score_block(q, fresh, fresh_scores);
                for (&id, &score) in fresh.iter().zip(fresh_scores.iter()) {
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
                    frontier.push(item);
                }
            };

        // An entry that fails the predicate is only a traversal seed.
        visited.insert(self.entry);
        if predicate(self.entry) {
            fresh.push(self.entry);
            consider_block(&fresh, &mut fresh_scores, &mut frontier, &mut results);
        } else {
            frontier.push(ScoredIdx {
                idx: self.entry as usize,
                score: source.score(q, self.entry),
            });
        }

        while let Some(cand) = frontier.pop() {
            // The frontier's best cannot improve the result set: stop.
            if results.len() >= ef && results.peek().is_some_and(|w| cand.score < w.0.score) {
                break;
            }
            self.gather_frontier(cand.idx as u32, &predicate, &mut visited, &mut fresh);
            consider_block(&fresh, &mut fresh_scores, &mut frontier, &mut results);
        }

        let mut out: Vec<ScoredIdx> = results.into_iter().map(|r| r.0).collect();
        out.sort_unstable_by(|a, b| b.cmp(a));
        out.truncate(k);
        out
    }

    /// The ACORN-style frontier gather shared by the beam search and
    /// filtered DIPRS: refills `fresh` with `node`'s unvisited,
    /// predicate-passing neighbors in traversal order, widening to the 2-hop
    /// neighborhood through each excluded neighbor so that excluded nodes do
    /// not disconnect the reused-prefix subgraph.
    pub fn gather_frontier<P: Fn(u32) -> bool>(
        &self,
        node: u32,
        predicate: &P,
        visited: &mut VisitedSet,
        fresh: &mut Vec<u32>,
    ) {
        fresh.clear();
        for &n in self.neighbors(node) {
            if predicate(n) {
                if visited.insert(n) {
                    fresh.push(n);
                }
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
        out.extend_from_slice(&(self.adjacency.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.entry.to_le_bytes());
        for list in &self.adjacency {
            out.extend_from_slice(&(list.len() as u32).to_le_bytes());
            for &n in list {
                out.extend_from_slice(&n.to_le_bytes());
            }
        }
        out
    }

    /// Deserializes a graph written by [`NeighborGraph::to_bytes`].
    /// Returns `None` on truncated or malformed input. Every count read
    /// from `bytes` is bounded by the words that remain before anything is
    /// allocated for it, so a hostile header cannot request more memory
    /// than the input's own length.
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
        let mut adjacency = Vec::with_capacity(n);
        for _ in 0..n {
            let deg = words.next()? as usize;
            if deg > words.len() {
                return None;
            }
            let list: Vec<u32> = words.by_ref().take(deg).collect();
            if list.iter().any(|&v| v as usize >= n) {
                return None;
            }
            adjacency.push(list);
        }
        Some(Self { adjacency, entry })
    }
}

/// Dense bitmap visited-set used by all graph searches.
pub struct VisitedSet {
    bits: Vec<u64>,
}

impl VisitedSet {
    /// Creates a cleared set for ids `0..n`.
    pub fn new(n: usize) -> Self {
        Self {
            bits: vec![0; n.div_ceil(64)],
        }
    }

    /// Marks `id` visited; returns `true` if it was previously unvisited.
    #[inline]
    pub fn insert(&mut self, id: u32) -> bool {
        let word = (id / 64) as usize;
        let bit = 1u64 << (id % 64);
        let fresh = self.bits[word] & bit == 0;
        self.bits[word] |= bit;
        fresh
    }
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
        let mut g = NeighborGraph::new(3);
        g.add_edge(0, 1);
        g.add_edge(0, 1);
        g.add_edge(0, 0);
        assert_eq!(g.neighbors(0), &[1]);
        g.add_edge_bidirectional(1, 2);
        assert_eq!(g.neighbors(1), &[2]);
        assert_eq!(g.neighbors(2), &[1]);
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn search_on_fully_connected_graph_is_exact() {
        let mut rng = seeded(11);
        let vecs = gaussian_store(&mut rng, 50, 8, 1.0);
        let mut g = NeighborGraph::new(50);
        for i in 0..50u32 {
            for j in 0..50u32 {
                g.add_edge(i, j);
            }
        }
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
        let mut g = NeighborGraph::new(5);
        for i in 0..3u32 {
            for j in 0..3u32 {
                g.add_edge(i, j);
            }
        }
        g.add_edge_bidirectional(3, 4);
        g.set_entry(0);
        let got = g.search_topk(&vecs, &[1.0], 5, 8);
        assert!(
            got.iter().all(|s| s.idx < 3),
            "unreachable nodes returned: {got:?}"
        );
    }

    #[test]
    fn empty_and_k_zero() {
        let g = NeighborGraph::new(0);
        let vecs = VecStore::new(1);
        assert!(g.search_topk(&vecs, &[1.0], 3, 64).is_empty());
        let g = NeighborGraph::new(1);
        let vecs = VecStore::from_flat(1, vec![1.0]);
        assert!(g.search_topk(&vecs, &[1.0], 0, 64).is_empty());
    }

    #[test]
    fn serialization_round_trip() {
        let mut g = NeighborGraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(1, 3);
        g.add_edge(3, 0);
        g.set_entry(2);
        let bytes = g.to_bytes();
        let back = NeighborGraph::from_bytes(&bytes).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn deserialization_rejects_garbage() {
        assert!(NeighborGraph::from_bytes(&[1, 2, 3]).is_none());
        // Neighbor id out of range.
        let mut g = NeighborGraph::new(2);
        g.add_edge(0, 1);
        let mut bytes = g.to_bytes();
        let len = bytes.len();
        bytes[len - 4..].copy_from_slice(&99u32.to_le_bytes());
        assert!(NeighborGraph::from_bytes(&bytes).is_none());
    }

    #[test]
    fn deserialization_bounds_node_count_by_input_length() {
        // Hostile header: a node count far beyond what the remaining bytes
        // could hold must be rejected before an allocation is sized from it
        // (`with_capacity(u32::MAX)` of 24-byte lists aborts the process).
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
        let mut g = NeighborGraph::new(6);
        for (a, b) in [(5, 4), (4, 0), (0, 1), (1, 2), (2, 3)] {
            g.add_edge_bidirectional(a, b);
        }
        g.set_entry(5);
        let pred = |id: u32| id < 4;
        let got = g.search_topk_filtered(&vecs, &[1.0], 3, 8, pred);
        let want = FlatIndex.search_topk_filtered(&vecs, &[1.0], 3, pred);
        assert_eq!(got, want);
        assert_eq!(got.iter().map(|s| s.idx).collect::<Vec<_>>(), vec![1, 3, 2]);
    }

    #[test]
    fn visited_set() {
        let mut v = VisitedSet::new(130);
        assert!(v.insert(0));
        assert!(!v.insert(0));
        assert!(v.insert(129));
        assert!(!v.insert(129));
        assert!(v.insert(128));
    }

    #[test]
    fn degree_stats() {
        let mut g = NeighborGraph::new(3);
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        g.add_edge(1, 2);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.edge_count(), 3);
    }
}
