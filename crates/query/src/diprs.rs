//! DIPRS — the Dynamic Inner-Product Range Search algorithm (Algorithm 1)
//! and its filtered variant (§7.1).
//!
//! Both run as a *wavefront* over the growing candidate list `C`, on the
//! calling thread's `alaya_index::graph::TraversalScratch`; the argument
//! that this returns exactly what Algorithm 1's one-candidate-at-a-time
//! sweep returns is on [`diprs_filtered`].

use alaya_index::graph::{with_scratch, NeighborGraph, TraversalScratch};
use alaya_vector::topk::ScoredIdx;
use alaya_vector::VecStore;

/// DIPRS tuning parameters.
#[derive(Clone, Copy, Debug)]
pub struct DiprsParams {
    /// Inner-product margin β ≥ 0 (Definition 3).
    pub beta: f32,
    /// Capacity threshold `l0`: while the candidate list is at most this
    /// long, every explored point is appended (exploration phase); beyond
    /// it, only points within β of the best-so-far IP are appended
    /// (pruning phase).
    pub l0: usize,
    /// Hard cap on scored nodes — a safety valve for adversarial graphs;
    /// never reached in normal operation.
    pub max_visits: usize,
}

impl Default for DiprsParams {
    fn default() -> Self {
        Self {
            beta: 1.0,
            l0: 64,
            max_visits: usize::MAX,
        }
    }
}

/// Output of one DIPRS run.
#[derive(Clone, Debug)]
pub struct DiprsResult {
    /// Critical tokens: every candidate within β of the best inner product
    /// found, sorted descending by score.
    pub tokens: Vec<ScoredIdx>,
    /// Number of nodes scored (the exploration cost; Figure 5's y-axis is
    /// driven by `tokens.len()`, the ablation benches use this).
    pub visited: usize,
    /// Number of nodes appended to the candidate list.
    pub appended: usize,
    /// Best inner product observed (including a window seed, if given).
    pub max_ip: f32,
}

/// DIPRS (Algorithm 1): approximate DIPR query over a proximity graph.
///
/// `seed_max_ip` implements the window-caching enhancement of §7.1: the
/// maximum inner product already known from the GPU-cached window seeds the
/// best-so-far value, tightening pruning from the first step. Pass `None`
/// for the plain algorithm.
pub fn diprs(
    graph: &NeighborGraph,
    source: &VecStore,
    q: &[f32],
    params: &DiprsParams,
    seed_max_ip: Option<f32>,
) -> DiprsResult {
    diprs_filtered(graph, source, q, params, seed_max_ip, |_| true)
}

/// Filtered DIPRS (§7.1 "Flexible Context Reuse By Attribute Filtering").
///
/// Only candidates with `predicate(id) == true` may enter the candidate
/// list, but traversal expands both 1-hop and 2-hop neighborhoods (the
/// ACORN-style widening) so that excluded nodes do not disconnect the
/// reused-prefix subgraph.
///
/// # Why one wave equals the per-candidate sweep
///
/// Algorithm 1 sweeps `C` one candidate at a time: expand `C[i]`, score
/// its unvisited neighbors, `tryAppend` each, move to `C[i + 1]`. Here one
/// step takes *every* candidate not yet expanded, `C[i..len)`, gathers
/// their frontiers in list order into one id block
/// ([`NeighborGraph::gather_frontier`], the expansion the beam search
/// shares), scores the block with one [`VecStore::dot_ids`] call, then applies
/// `tryAppend` (lines 10-14) over it in the same order. The result is bit
/// for bit the sweep's:
///
/// * what a candidate contributes to the frontier depends only on the
///   visited set, and only gathers change the visited set — every neighbor
///   reached is marked whether or not it is later appended — so gathering
///   `C[i + 1]` before `C[i]`'s block was appended sees the visited set the
///   sweep would have seen, and the concatenated block is the sweep's
///   blocks in the sweep's order;
/// * scores do not depend on the candidate-list state, so scoring ahead of
///   the append decisions changes no decision;
/// * candidates appended during a wave land behind `len`, where the sweep
///   would reach them after `C[len - 1]` too.
///
/// The visit budget truncates the concatenated block where the sweep would
/// have stopped scoring (nodes past it stay marked visited but unscored,
/// and the traversal ends either way). What the wave buys: a served head
/// finds its keys and adjacency cold, and four or five scoring calls over
/// hundreds of rows overlap the misses that ~150 dependent eight-row calls
/// take one after another; the gathers of one wave are independent of each
/// other too, which is what lets the branch-free visited test in
/// `gather_frontier` run ahead across candidates.
pub fn diprs_filtered<P>(
    graph: &NeighborGraph,
    source: &VecStore,
    q: &[f32],
    params: &DiprsParams,
    seed_max_ip: Option<f32>,
    predicate: P,
) -> DiprsResult
where
    P: Fn(u32) -> bool,
{
    let mut result = DiprsResult::seeded(seed_max_ip);
    if graph.is_empty() {
        return result;
    }
    with_scratch(|scratch| {
        let TraversalScratch {
            visited,
            candidates: c,
            frontier,
            scores,
            ..
        } = scratch;
        visited.begin(graph.len());
        // The unordered, growing candidate list C of Algorithm 1.
        c.clear();

        // Line 1: initialize C with the start key. The entry may itself
        // fail the predicate; it then only serves as a traversal seed.
        let entry = graph.entry();
        visited.insert(entry);
        let entry_score = source.dot_row(q, entry as usize);
        result.visited += 1;
        if predicate(entry) {
            result.try_append(c, params, entry, entry_score);
        }

        let mut append_block = |frontier: &[u32], c: &mut Vec<ScoredIdx>| {
            let remaining = params.max_visits.saturating_sub(result.visited);
            let block = &frontier[..frontier.len().min(remaining)];
            scores.resize(block.len(), 0.0);
            source.dot_ids(q, block, scores);
            for (&k, &score) in block.iter().zip(scores.iter()) {
                result.visited += 1;
                result.try_append(c, params, k, score);
            }
            result.visited >= params.max_visits
        };

        // If the entry failed the predicate, bootstrap traversal from its
        // neighborhood (C would stay empty otherwise).
        if c.is_empty() {
            frontier.clear();
            graph.gather_frontier(entry, &predicate, visited, frontier);
            append_block(frontier, c);
        }

        // Lines 2-7: sweep the growing list, one wave per step.
        let mut i = 0usize;
        while i < c.len() {
            frontier.clear();
            for cand in &c[i..] {
                graph.gather_frontier(cand.idx as u32, &predicate, visited, frontier);
            }
            i = c.len();
            if append_block(frontier, c) {
                break;
            }
        }

        result.keep_band(c, params.beta);
    });
    result
}

/// The *naive* filtered DIPRS baseline (§7.1): nodes failing the predicate
/// are pruned outright, with no 2-hop widening. This "severely disrupts the
/// connectivity of the graph index structure" — kept as the ablation
/// baseline against [`diprs_filtered`].
pub fn diprs_filtered_naive<P>(
    graph: &NeighborGraph,
    source: &VecStore,
    q: &[f32],
    params: &DiprsParams,
    seed_max_ip: Option<f32>,
    predicate: P,
) -> DiprsResult
where
    P: Fn(u32) -> bool,
{
    let mut result = DiprsResult::seeded(seed_max_ip);
    if graph.is_empty() {
        return result;
    }
    with_scratch(|scratch| {
        let TraversalScratch {
            visited,
            candidates: c,
            ..
        } = scratch;
        visited.begin(graph.len());
        c.clear();

        let entry = graph.entry();
        visited.insert(entry);
        if predicate(entry) {
            let score = source.dot_row(q, entry as usize);
            result.visited += 1;
            result.try_append(c, params, entry, score);
        }

        let mut i = 0usize;
        while i < c.len() {
            let ci = c[i].idx as u32;
            i += 1;
            for &n in graph.neighbors(ci) {
                // Hard pruning: non-matching neighbors are dead ends.
                if !predicate(n) || !visited.insert(n) {
                    continue;
                }
                if result.visited >= params.max_visits {
                    break;
                }
                let score = source.dot_row(q, n as usize);
                result.visited += 1;
                result.try_append(c, params, n, score);
            }
            if result.visited >= params.max_visits {
                break;
            }
        }

        result.keep_band(c, params.beta);
    });
    result
}

impl DiprsResult {
    fn seeded(seed_max_ip: Option<f32>) -> Self {
        Self {
            tokens: Vec::new(),
            visited: 0,
            appended: 0,
            max_ip: seed_max_ip.unwrap_or(f32::NEG_INFINITY),
        }
    }

    /// `tryAppend` (Algorithm 1 lines 10-14): below the capacity threshold
    /// every explored key joins `C`; beyond it only keys within β of the
    /// best inner product so far.
    #[inline]
    fn try_append(&mut self, c: &mut Vec<ScoredIdx>, params: &DiprsParams, id: u32, score: f32) {
        if c.len() <= params.l0 || score >= self.max_ip - params.beta {
            c.push(ScoredIdx {
                idx: id as usize,
                score,
            });
            self.appended += 1;
            self.max_ip = self.max_ip.max(score);
        }
    }

    /// Lines 8-9: keep the β-band around the best inner product, sorted
    /// descending, copied out of the scratch list at its exact size — the
    /// one allocation of a steady-state call.
    fn keep_band(&mut self, c: &mut Vec<ScoredIdx>, beta: f32) {
        let threshold = self.max_ip - beta;
        c.retain(|s| s.score >= threshold);
        c.sort_unstable_by(|a, b| b.cmp(a));
        self.tokens = c.to_vec();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alaya_index::flat::FlatIndex;
    use alaya_index::graph::GraphBuilder;
    use alaya_index::roargraph::{RoarGraph, RoarGraphParams};
    use alaya_vector::rng::{gaussian_store, seeded};

    fn fixture(n: usize, dim: usize, seed: u64) -> (NeighborGraph, VecStore, VecStore) {
        let mut rng = seeded(seed);
        let base = gaussian_store(&mut rng, n, dim, 1.0);
        let train = gaussian_store(&mut rng, n / 2, dim, 1.0);
        let queries = gaussian_store(&mut rng, 10, dim, 1.0);
        let rg = RoarGraph::build(&base, &train, RoarGraphParams::default());
        (rg.into_graph(), base, queries)
    }

    #[test]
    fn diprs_finds_the_max_ip_token() {
        let (graph, base, queries) = fixture(400, 12, 101);
        for qi in 0..queries.len() {
            let q = queries.row(qi);
            let res = diprs(&graph, &base, q, &DiprsParams::default(), None);
            let exact = FlatIndex.search_topk(&base, q, 1);
            assert_eq!(
                res.tokens.first().map(|t| t.idx),
                Some(exact[0].idx),
                "query {qi} missed the max-IP key"
            );
        }
    }

    #[test]
    fn diprs_recall_against_exact_dipr() {
        let (graph, base, queries) = fixture(500, 12, 102);
        let beta = 2.0f32;
        let mut recall_sum = 0.0;
        for qi in 0..queries.len() {
            let q = queries.row(qi);
            let res = diprs(
                &graph,
                &base,
                q,
                &DiprsParams {
                    beta,
                    l0: 64,
                    max_visits: usize::MAX,
                },
                None,
            );
            let exact = FlatIndex.search_dipr(&base, q, beta);
            let got: std::collections::HashSet<usize> = res.tokens.iter().map(|t| t.idx).collect();
            let hit = exact.iter().filter(|e| got.contains(&e.idx)).count();
            recall_sum += hit as f64 / exact.len().max(1) as f64;
        }
        let recall = recall_sum / queries.len() as f64;
        assert!(recall > 0.85, "DIPR recall {recall}");
    }

    #[test]
    fn returned_band_is_tight() {
        // Every returned token's score must be within beta of the returned max.
        let (graph, base, queries) = fixture(300, 8, 103);
        let params = DiprsParams {
            beta: 1.5,
            l0: 32,
            max_visits: usize::MAX,
        };
        let q = queries.row(0);
        let res = diprs(&graph, &base, q, &params, None);
        assert!(!res.tokens.is_empty());
        for t in &res.tokens {
            assert!(t.score >= res.max_ip - params.beta - 1e-5);
        }
        // Sorted descending.
        for w in res.tokens.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn dynamic_result_size_tracks_distribution() {
        // Peaked key distribution -> few critical tokens; flat -> many.
        let mut peaked = VecStore::new(4);
        peaked.push(&[10.0, 0.0, 0.0, 0.0]);
        for i in 0..63 {
            peaked.push(&[0.01 * (i % 7) as f32, 0.1, 0.0, 0.0]);
        }
        let mut flat_keys = VecStore::new(4);
        for i in 0..64 {
            flat_keys.push(&[1.0 + 0.001 * (i % 5) as f32, 0.1, 0.0, 0.0]);
        }
        // Fully-connected graphs isolate the query semantics from graph quality.
        let mut g = GraphBuilder::new(64);
        for i in 0..64u32 {
            for j in 0..64u32 {
                g.add_edge(i, j);
            }
        }
        let g = g.freeze();
        let params = DiprsParams {
            beta: 0.5,
            l0: 8,
            max_visits: usize::MAX,
        };
        let q = [1.0, 0.0, 0.0, 0.0];
        let few = diprs(&g, &peaked, &q, &params, None);
        let many = diprs(&g, &flat_keys, &q, &params, None);
        assert_eq!(few.tokens.len(), 1);
        assert_eq!(many.tokens.len(), 64);
    }

    #[test]
    fn window_seed_prunes_exploration() {
        let (graph, base, queries) = fixture(600, 12, 104);
        let q = queries.row(3);
        let params = DiprsParams {
            beta: 1.0,
            l0: 16,
            max_visits: usize::MAX,
        };
        let plain = diprs(&graph, &base, q, &params, None);
        // Seed with the true maximum: pruning can only get tighter.
        let exact_max = FlatIndex.search_topk(&base, q, 1)[0].score;
        let seeded_run = diprs(&graph, &base, q, &params, Some(exact_max));
        assert!(
            seeded_run.appended <= plain.appended,
            "seeding must not widen the candidate list ({} vs {})",
            seeded_run.appended,
            plain.appended
        );
        // The seeded threshold must be at least as strict.
        assert!(seeded_run.max_ip >= plain.max_ip - 1e-6);
        for t in &seeded_run.tokens {
            assert!(t.score >= exact_max - params.beta - 1e-5);
        }
    }

    #[test]
    fn filtered_diprs_only_returns_prefix_tokens() {
        let (graph, base, queries) = fixture(400, 12, 105);
        let prefix = 150usize;
        let q = queries.row(1);
        let res = diprs_filtered(
            &graph,
            &base,
            q,
            &DiprsParams {
                beta: 2.0,
                l0: 48,
                max_visits: usize::MAX,
            },
            None,
            |id| (id as usize) < prefix,
        );
        assert!(!res.tokens.is_empty());
        assert!(res.tokens.iter().all(|t| t.idx < prefix));
    }

    #[test]
    fn filtered_diprs_recall_stays_high() {
        // §9.2.2: recall of filter-based DIPRS stays high as the reuse
        // ratio shrinks.
        let (graph, base, queries) = fixture(600, 12, 106);
        let beta = 2.0f32;
        for &prefix in &[600usize, 300, 120] {
            let mut recall_sum = 0.0;
            for qi in 0..queries.len() {
                let q = queries.row(qi);
                let res = diprs_filtered(
                    &graph,
                    &base,
                    q,
                    &DiprsParams {
                        beta,
                        l0: 64,
                        max_visits: usize::MAX,
                    },
                    None,
                    |id| (id as usize) < prefix,
                );
                let exact =
                    FlatIndex.search_dipr_filtered(&base, q, beta, |id| (id as usize) < prefix);
                let got: std::collections::HashSet<usize> =
                    res.tokens.iter().map(|t| t.idx).collect();
                let hit = exact.iter().filter(|e| got.contains(&e.idx)).count();
                recall_sum += hit as f64 / exact.len().max(1) as f64;
            }
            let recall = recall_sum / queries.len() as f64;
            assert!(recall > 0.7, "prefix {prefix}: recall {recall}");
        }
    }

    #[test]
    fn empty_graph_returns_empty() {
        let g = GraphBuilder::new(0).freeze();
        let base = VecStore::new(4);
        let res = diprs(&g, &base, &[0.0; 4], &DiprsParams::default(), None);
        assert!(res.tokens.is_empty());
        assert_eq!(res.visited, 0);
    }

    #[test]
    fn two_hop_filtering_beats_naive_pruning() {
        // §7.1: naive predicate pruning disconnects the graph; the 2-hop
        // expansion preserves recall. Compare both against exact filtered
        // DIPR under a selective predicate.
        let (graph, base, queries) = fixture(800, 12, 109);
        let beta = 2.0f32;
        let prefix = 160usize; // 20% reuse ratio
        let params = DiprsParams {
            beta,
            l0: 48,
            max_visits: usize::MAX,
        };
        let (mut naive_recall, mut twohop_recall) = (0.0f64, 0.0f64);
        for qi in 0..queries.len() {
            let q = queries.row(qi);
            let exact = FlatIndex.search_dipr_filtered(&base, q, beta, |id| (id as usize) < prefix);
            let exact_ids: std::collections::HashSet<usize> = exact.iter().map(|s| s.idx).collect();
            let naive = super::diprs_filtered_naive(&graph, &base, q, &params, None, |id| {
                (id as usize) < prefix
            });
            let twohop =
                diprs_filtered(&graph, &base, q, &params, None, |id| (id as usize) < prefix);
            let denom = exact_ids.len().max(1) as f64;
            naive_recall += naive
                .tokens
                .iter()
                .filter(|t| exact_ids.contains(&t.idx))
                .count() as f64
                / denom;
            twohop_recall += twohop
                .tokens
                .iter()
                .filter(|t| exact_ids.contains(&t.idx))
                .count() as f64
                / denom;
        }
        naive_recall /= queries.len() as f64;
        twohop_recall /= queries.len() as f64;
        assert!(
            twohop_recall >= naive_recall,
            "2-hop ({twohop_recall}) must not lose to naive ({naive_recall})"
        );
        assert!(twohop_recall > 0.6, "2-hop recall {twohop_recall}");
    }

    #[test]
    fn max_visits_caps_work() {
        let (graph, base, queries) = fixture(400, 12, 108);
        let res = diprs(
            &graph,
            &base,
            queries.row(0),
            &DiprsParams {
                beta: 5.0,
                l0: 64,
                max_visits: 10,
            },
            None,
        );
        assert!(res.visited <= 10);
    }

    #[test]
    fn scratch_reuse_never_leaks_state_between_traversals() {
        // One thread searches graphs of 2048, 100, then 4096 nodes (the
        // visited array shrinks logically, then grows), then again with
        // the visited generation forced to the edge of its wrap. Every
        // traversal must return what it returns on a thread whose scratch
        // has never been used.
        fn scrambled(n: u32) -> NeighborGraph {
            let mut g = GraphBuilder::new(n as usize);
            for i in 0..n {
                g.add_edge(i, (i + 1) % n);
                for j in 0..6u32 {
                    let to = i.wrapping_mul(2_654_435_761).wrapping_add(j * 40_503) >> 7;
                    g.add_edge(i, to % n);
                }
            }
            g.set_entry(n / 3);
            g.freeze()
        }
        type Bits = (Vec<(usize, u32)>, usize, usize, u32);
        fn bits(r: DiprsResult) -> Bits {
            let tokens = r.tokens.iter().map(|t| (t.idx, t.score.to_bits()));
            (tokens.collect(), r.visited, r.appended, r.max_ip.to_bits())
        }
        fn run_all(graph: &NeighborGraph, base: &VecStore, q: &[f32]) -> (Vec<Bits>, Vec<usize>) {
            let params = DiprsParams {
                beta: 1.0,
                l0: 24,
                max_visits: usize::MAX,
            };
            let pred = |id: u32| !id.is_multiple_of(3);
            let runs = vec![
                bits(diprs(graph, base, q, &params, None)),
                bits(diprs_filtered(graph, base, q, &params, Some(0.5), pred)),
                bits(diprs_filtered_naive(graph, base, q, &params, None, pred)),
            ];
            let beam = graph.search_topk_filtered(base, q, 10, 40, pred);
            (runs, beam.iter().map(|s| s.idx).collect())
        }

        let mut rng = seeded(110);
        let fixtures: Vec<(NeighborGraph, VecStore, Vec<f32>)> = [2048u32, 100, 4096]
            .iter()
            .map(|&n| {
                let base = gaussian_store(&mut rng, n as usize, 8, 1.0);
                let q = base.row(n as usize / 2).to_vec();
                (scrambled(n), base, q)
            })
            .collect();
        let fresh: Vec<_> = fixtures
            .iter()
            .map(|(g, base, q)| {
                std::thread::scope(|s| s.spawn(|| run_all(g, base, q)).join().unwrap())
            })
            .collect();
        // A traversal that stops early must have happened for the reuse to
        // be worth checking.
        assert!(fresh[0].0[0].1 < 2048 && fresh[2].0[0].1 < 4096);

        let reused: Vec<_> = fixtures
            .iter()
            .map(|(g, base, q)| run_all(g, base, q))
            .collect();
        assert_eq!(reused, fresh);
        with_scratch(|scratch| scratch.visited.set_generation(u32::MAX - 1));
        let wrapped: Vec<_> = fixtures
            .iter()
            .map(|(g, base, q)| run_all(g, base, q))
            .collect();
        assert_eq!(wrapped, fresh);
    }
}
