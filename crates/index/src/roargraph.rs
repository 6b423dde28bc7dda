//! RoarGraph: a projected bipartite graph for out-of-distribution ANNS.
//!
//! RoarGraph (Chen et al., VLDB 2024) is the fine-grained index
//! RetrievalAttention and AlayaDB build over key vectors, chosen because
//! decode-time *query* vectors are out-of-distribution with respect to the
//! *key* vectors (RoPE rotates them differently), which defeats indexes
//! built from base-data geometry alone. Construction follows §7.2:
//!
//! 1. **q→k kNN projection** — compute the exact nearest base (key) vectors
//!    of each *training query*, then project the bipartite query↔key graph
//!    onto the key side: each query's best key is linked toward the other
//!    keys that query retrieves, so edges follow the geometry queries
//!    actually probe.
//! 2. **Connectivity enhancement** — every key links to its *exact* nearest
//!    keys: one more [`exact_knn`] pass, keys against keys, applied in id
//!    order under the degree cap; finally, nodes unreachable from the entry
//!    are chained in so searches can always terminate.
//!
//! Both stages are therefore the same quadratic scan — the pass §7.2 hands
//! to the GPU — and the graph is a function of the data and the parameters
//! alone, not of thread count or batching. Stage 2 used to run one beam
//! search per key over the stage-1 graph (`O(n log n)`, but 26–42 µs per key
//! where scoring that key against every other costs 0.4–8 µs at the context
//! lengths served here); the exact pass is faster up to roughly 8–9 k keys
//! at d = 32 and slower beyond (see PAPER.md, index construction).
//!
//! Build statistics (stage-1 time vs stage-2 time, serial vs parallel) feed
//! the Figure 11 reproduction.

use std::time::Instant;

use alaya_vector::topk::ScoredIdx;
use alaya_vector::VecStore;

use crate::graph::{GraphBuilder, NeighborGraph};
use crate::knn::exact_knn;

/// RoarGraph construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct RoarGraphParams {
    /// Base neighbors retrieved per training query in stage 1.
    pub knn_k: usize,
    /// Maximum out-degree after pruning; stage 2 links each key to its
    /// `max(max_degree / 2, 4)` exact nearest keys.
    pub max_degree: usize,
    /// Maximum concurrent shards on the shared `alaya_device::pool` for both
    /// build stages (`0` = let the pool decide — the data-parallel "GPU"
    /// builder of §7.2; `1` = serial on the caller). The graph is identical
    /// for any value.
    pub threads: usize,
}

impl Default for RoarGraphParams {
    fn default() -> Self {
        Self {
            knn_k: 12,
            max_degree: 24,
            threads: 0,
        }
    }
}

/// Wall-clock breakdown of one RoarGraph build (Figure 11a data).
#[derive(Clone, Copy, Debug, Default)]
pub struct BuildStats {
    /// Seconds spent in stage 1: the query→key exact kNN, its projection
    /// onto the keys and degree pruning.
    pub knn_seconds: f64,
    /// Seconds spent in stage 2: the key→key exact kNN, linking under the
    /// degree cap and chaining in unreachable nodes. Quadratic in the key
    /// count, like `knn_seconds`.
    pub enhance_seconds: f64,
    /// Training queries used.
    pub n_queries: usize,
    /// Base vectors indexed.
    pub n_base: usize,
}

/// A built RoarGraph index.
pub struct RoarGraph {
    graph: NeighborGraph,
    stats: BuildStats,
}

impl RoarGraph {
    /// Builds a RoarGraph over `base` (the key vectors) using `queries` as
    /// the training-query sample.
    ///
    /// # Panics
    /// Panics if `base` is empty or dimensionalities differ.
    pub fn build(base: &VecStore, queries: &VecStore, params: RoarGraphParams) -> Self {
        assert!(!base.is_empty(), "cannot index an empty key matrix");
        assert_eq!(base.dim(), queries.dim(), "dimensionality mismatch");
        let n = base.len();
        let mut graph = GraphBuilder::new(n);

        // Stage 1: q→k kNN + bipartite projection.
        let t0 = Instant::now();
        let knn = exact_knn(base, queries, params.knn_k, params.threads);
        for list in &knn {
            if let Some((first, rest)) = list.split_first() {
                // Star projection: the query's best key points at the other
                // keys this query retrieves (and back), so one hop from a
                // high-IP key reaches the rest of the query's neighborhood.
                for s in rest {
                    graph.add_edge_bidirectional(first.idx as u32, s.idx as u32);
                }
                // Path edges between nearby ranks densify the local
                // neighborhood without inflating the hub's degree, and —
                // because one query's list spans logit levels — they are
                // the descent edges that let searches walk from high-IP
                // regions down into mid-IP evidence bands.
                for w in list.windows(3) {
                    graph.add_edge_bidirectional(w[0].idx as u32, w[1].idx as u32);
                    graph.add_edge_bidirectional(w[0].idx as u32, w[2].idx as u32);
                }
            }
        }
        prune_to_degree(&mut graph, base, params.max_degree);
        let knn_seconds = t0.elapsed().as_secs_f64();

        // Entry point: the max-norm key (maximum-IP searches gravitate to
        // large-norm keys, so starting there shortens paths). Norms are
        // ranked by `ScoredIdx`'s total order: a NaN row never wins, equal
        // norms resolve to the lower id.
        let entry = (0..n)
            .map(|idx| ScoredIdx {
                idx,
                score: alaya_vector::dot(base.row(idx), base.row(idx)),
            })
            .max()
            .expect("base is non-empty")
            .idx as u32;
        graph.set_entry(entry);

        // Stage 2: connectivity enhancement. Each key's exact nearest keys
        // come from one key→key kNN pass (one extra hit requested, since a
        // key usually retrieves itself); the links are then applied in id
        // order, so the result is identical for any thread count.
        let t1 = Instant::now();
        let links = (params.max_degree / 2).max(4);
        let nearest = exact_knn(base, base, links + 1, params.threads);
        for (id, found) in (0u32..).zip(&nearest) {
            let others = found.iter().map(|s| s.idx as u32).filter(|&o| o != id);
            for other in others.take(links) {
                if graph.neighbors(id).len() < params.max_degree {
                    graph.add_edge(id, other);
                }
                if graph.neighbors(other).len() < params.max_degree {
                    graph.add_edge(other, id);
                }
            }
        }
        connect_unreachable(&mut graph);
        let enhance_seconds = t1.elapsed().as_secs_f64();

        let stats = BuildStats {
            knn_seconds,
            enhance_seconds,
            n_queries: queries.len(),
            n_base: n,
        };
        Self {
            graph: graph.freeze(),
            stats,
        }
    }

    /// The searchable graph.
    pub fn graph(&self) -> &NeighborGraph {
        &self.graph
    }

    /// Consumes the index, returning the graph.
    pub fn into_graph(self) -> NeighborGraph {
        self.graph
    }

    /// Build statistics.
    pub fn stats(&self) -> BuildStats {
        self.stats
    }

    /// Memory footprint in bytes (Figure 11b accounting): the graph's.
    pub fn bytes(&self) -> usize {
        self.graph.bytes()
    }
}

/// Prunes every adjacency list to `max_degree` neighbors using the
/// NSG-style occlusion rule RoarGraph inherits: a candidate is dropped
/// only if an already-kept neighbor is closer (higher-IP) to it than the
/// node itself is — pure "keep the top-IP neighbors" pruning collapses
/// every list onto one hub cluster and severs the descent edges that let
/// searches leave high-norm regions.
fn prune_to_degree(graph: &mut GraphBuilder, base: &VecStore, max_degree: usize) {
    for id in 0..graph.len() as u32 {
        let nbrs = graph.neighbors(id);
        if nbrs.len() <= max_degree {
            continue;
        }
        let v = base.row(id as usize);
        // Candidates ordered geometrically (nearest first): proximity
        // graphs need each node to keep its own neighborhood; ordering by
        // raw inner product instead would funnel every list toward the
        // max-norm hubs.
        let mut scored: Vec<ScoredIdx> = nbrs
            .iter()
            .map(|&n| ScoredIdx {
                idx: n as usize,
                score: -alaya_vector::l2_sq(v, base.row(n as usize)),
            })
            .collect();
        scored.sort_unstable_by(|a, b| b.cmp(a));
        // Bound the occlusion pass (it is O(candidates × kept × dim)).
        scored.truncate(max_degree * 3);

        let mut kept: Vec<ScoredIdx> = Vec::with_capacity(max_degree);
        let mut occluded: Vec<ScoredIdx> = Vec::new();
        for cand in scored {
            if kept.len() >= max_degree {
                break;
            }
            let cvec = base.row(cand.idx);
            // L2-space occlusion (as in NSG): a kept neighbor that is
            // geometrically closer to the candidate than the node itself
            // already covers that direction. Inner-product occlusion would
            // let one max-norm hub occlude *every* candidate and collapse
            // the graph onto it.
            let node_dist = -cand.score;
            let is_occluded = kept
                .iter()
                .any(|s| alaya_vector::l2_sq(cvec, base.row(s.idx)) < node_dist);
            if is_occluded {
                occluded.push(cand);
            } else {
                kept.push(cand);
            }
        }
        // Backfill with the best occluded candidates if the diverse set is
        // short.
        for cand in occluded {
            if kept.len() >= max_degree {
                break;
            }
            kept.push(cand);
        }
        graph.set_neighbors(id, kept.into_iter().map(|s| s.idx as u32).collect());
    }
}

/// Links any node unreachable from the entry into the reachable component
/// so beam searches can always terminate at every key.
fn connect_unreachable(graph: &mut GraphBuilder) {
    let n = graph.len();
    let mut seen = vec![false; n];
    let mut stack = vec![graph.entry()];
    seen[graph.entry() as usize] = true;
    let mut last_reachable = graph.entry();
    while let Some(u) = stack.pop() {
        last_reachable = u;
        for &v in graph.neighbors(u) {
            if !seen[v as usize] {
                seen[v as usize] = true;
                stack.push(v);
            }
        }
    }
    for id in 0..n as u32 {
        if !seen[id as usize] {
            // Chain from inside the reachable component; the new node then
            // becomes the attachment point for the next stray, keeping any
            // single node's degree bounded.
            graph.add_edge(last_reachable, id);
            last_reachable = id;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlatIndex;
    use alaya_vector::rng::{gaussian_store, gaussian_vec, seeded};

    /// Builds an OOD workload: keys are Gaussian, queries are keys plus a
    /// fixed offset and rotation-ish perturbation (mimicking the RoPE shift
    /// between decode queries and stored keys).
    fn ood_data(n_base: usize, n_query: usize, dim: usize, seed: u64) -> (VecStore, VecStore) {
        let mut rng = seeded(seed);
        let base = gaussian_store(&mut rng, n_base, dim, 1.0);
        let offset = gaussian_vec(&mut rng, dim, 0.5);
        let mut queries = VecStore::new(dim);
        for _ in 0..n_query {
            let mut v = gaussian_vec(&mut rng, dim, 1.2);
            for (vi, o) in v.iter_mut().zip(&offset) {
                *vi += o;
            }
            queries.push(&v);
        }
        (base, queries)
    }

    #[test]
    fn recall_on_ood_queries() {
        let (base, train) = ood_data(600, 240, 16, 33);
        let (_, test) = ood_data(600, 20, 16, 34);
        let rg = RoarGraph::build(&base, &train, RoarGraphParams::default());

        let mut hits = 0;
        let mut total = 0;
        for qi in 0..test.len() {
            let q = test.row(qi);
            let got = rg.graph().search_topk(&base, q, 10, 80);
            let want = FlatIndex.search_topk(&base, q, 10);
            let want_ids: std::collections::HashSet<usize> = want.iter().map(|s| s.idx).collect();
            hits += got.iter().filter(|s| want_ids.contains(&s.idx)).count();
            total += want.len();
        }
        let recall = hits as f64 / total as f64;
        assert!(recall > 0.85, "recall {recall}");
    }

    #[test]
    fn degree_bounded_after_stage_one() {
        let (base, train) = ood_data(300, 120, 8, 5);
        let params = RoarGraphParams {
            max_degree: 16,
            ..Default::default()
        };
        let rg = RoarGraph::build(&base, &train, params);
        // Stage 2 may add a little, but degrees must stay near the cap
        // (strays chained by connect_unreachable add at most 1).
        assert!(rg.graph().max_degree() <= params.max_degree + 2);
    }

    #[test]
    fn every_node_reachable_from_entry() {
        let (base, train) = ood_data(400, 100, 8, 8);
        let rg = RoarGraph::build(&base, &train, RoarGraphParams::default());
        let g = rg.graph();
        let mut seen = vec![false; g.len()];
        let mut stack = vec![g.entry()];
        seen[g.entry() as usize] = true;
        let mut count = 1usize;
        while let Some(u) = stack.pop() {
            for &v in g.neighbors(u) {
                if !seen[v as usize] {
                    seen[v as usize] = true;
                    count += 1;
                    stack.push(v);
                }
            }
        }
        assert_eq!(count, g.len(), "graph must be fully reachable");
    }

    #[test]
    fn build_stats_populated() {
        let (base, train) = ood_data(200, 80, 8, 2);
        let rg = RoarGraph::build(&base, &train, RoarGraphParams::default());
        let stats = rg.stats();
        assert_eq!(stats.n_base, 200);
        assert_eq!(stats.n_queries, 80);
        assert!(stats.knn_seconds >= 0.0 && stats.enhance_seconds >= 0.0);
        assert!(rg.bytes() > 0);
    }

    #[test]
    fn serial_and_parallel_knn_builds_equivalent_graphs() {
        // 1100 keys: a size that spanned three of the 512-id batches stage 2
        // used to snapshot the graph at.
        let (base, train) = ood_data(1100, 440, 8, 13);
        let build = |threads| {
            let params = RoarGraphParams {
                threads,
                ..Default::default()
            };
            RoarGraph::build(&base, &train, params).into_graph()
        };
        let serial = build(1);
        for threads in [0, 3] {
            assert_eq!(
                serial,
                build(threads),
                "parallelism must not change the result (threads={threads})"
            );
        }
    }

    #[test]
    fn nan_key_row_builds_and_never_becomes_the_entry() {
        // One poisoned row reaching `Db::import` / `store` must not panic
        // the build (the entry used to be picked with `partial_cmp().unwrap()`).
        let (mut base, train) = ood_data(120, 48, 8, 21);
        base.row_mut(17).fill(f32::NAN);
        let graph = RoarGraph::build(&base, &train, RoarGraphParams::default()).into_graph();
        assert_eq!(graph.len(), 120);
        assert_ne!(graph.entry(), 17);
        let max_norm = (0..120)
            .filter(|&i| i != 17)
            .map(|i| alaya_vector::dot(base.row(i), base.row(i)))
            .fold(f32::NEG_INFINITY, f32::max);
        let entry = base.row(graph.entry() as usize);
        assert_eq!(alaya_vector::dot(entry, entry), max_norm);
    }

    #[test]
    fn equal_norms_resolve_to_the_lowest_id() {
        // ±e_i: every key has norm 1.
        let mut base = VecStore::new(6);
        for i in 0..12 {
            let mut v = [0.0f32; 6];
            v[i % 6] = if i < 6 { 1.0 } else { -1.0 };
            base.push(&v);
        }
        let graph = RoarGraph::build(&base, &base, RoarGraphParams::default()).into_graph();
        assert_eq!(graph.entry(), 0);
    }

    #[test]
    #[should_panic(expected = "empty key matrix")]
    fn empty_base_panics() {
        let base = VecStore::new(4);
        let queries = VecStore::new(4);
        RoarGraph::build(&base, &queries, RoarGraphParams::default());
    }
}
