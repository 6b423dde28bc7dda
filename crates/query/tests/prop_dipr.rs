//! Property-based tests for the DIPR query semantics and DIPRS.

use alaya_index::flat::FlatIndex;
use alaya_index::graph::{GraphBuilder, NeighborGraph};
use alaya_query::diprs::{diprs, diprs_filtered, DiprsParams};
use alaya_query::types::beta_from_alpha;
use alaya_vector::topk::ScoredIdx;
use alaya_vector::VecStore;
use proptest::prelude::*;

fn keys_strategy() -> impl Strategy<Value = (VecStore, Vec<f32>)> {
    (2usize..64, 2usize..8).prop_flat_map(|(n, dim)| {
        (
            prop::collection::vec(-10.0f32..10.0, n * dim),
            prop::collection::vec(-10.0f32..10.0, dim),
        )
            .prop_map(move |(flat, q)| (VecStore::from_flat(dim, flat), q))
    })
}

/// A fully connected graph makes DIPRS exact — it then must agree with the
/// flat DIPR definition bit-for-bit.
fn clique(n: usize) -> NeighborGraph {
    let mut g = GraphBuilder::new(n);
    for i in 0..n as u32 {
        for j in 0..n as u32 {
            g.add_edge(i, j);
        }
    }
    g.freeze()
}

/// `(tokens as (idx, score bits), visited, appended, max_ip bits)`.
type DiprsBits = (Vec<(usize, u32)>, usize, usize, u32);

/// Algorithm 1 as written, the reference the wavefront `diprs_filtered` is
/// pinned to: sweep `C` one candidate at a time; expand it through its
/// unvisited predicate-passing neighbors (2-hop through each excluded
/// one); score and `tryAppend` one key at a time; stop at the visit budget.
/// Shares no traversal code with the library (own visited flags, own
/// gather, per-key `dot_row`).
struct PerCandidateSweep<'a> {
    graph: &'a NeighborGraph,
    keys: &'a VecStore,
    q: &'a [f32],
    params: DiprsParams,
    pred: &'a dyn Fn(u32) -> bool,
    seen: Vec<bool>,
    c: Vec<ScoredIdx>,
    visited: usize,
    appended: usize,
    max_ip: f32,
}

impl<'a> PerCandidateSweep<'a> {
    fn new(
        graph: &'a NeighborGraph,
        keys: &'a VecStore,
        q: &'a [f32],
        params: DiprsParams,
        pred: &'a dyn Fn(u32) -> bool,
    ) -> Self {
        Self {
            graph,
            keys,
            q,
            params,
            pred,
            seen: vec![false; graph.len()],
            c: Vec::new(),
            visited: 0,
            appended: 0,
            max_ip: f32::NEG_INFINITY,
        }
    }

    fn expand(&mut self, node: u32) {
        let mut fresh = Vec::new();
        for &n in self.graph.neighbors(node) {
            if std::mem::replace(&mut self.seen[n as usize], true) {
                continue;
            }
            if (self.pred)(n) {
                fresh.push(n);
                continue;
            }
            for &m in self.graph.neighbors(n) {
                if (self.pred)(m) && !std::mem::replace(&mut self.seen[m as usize], true) {
                    fresh.push(m);
                }
            }
        }
        for k in fresh {
            if self.visited >= self.params.max_visits {
                break;
            }
            let score = self.keys.dot_row(self.q, k as usize);
            self.visited += 1;
            if self.c.len() <= self.params.l0 || score >= self.max_ip - self.params.beta {
                self.c.push(ScoredIdx {
                    idx: k as usize,
                    score,
                });
                self.appended += 1;
                self.max_ip = self.max_ip.max(score);
            }
        }
    }

    fn run(mut self, seed_max_ip: Option<f32>) -> DiprsBits {
        if let Some(seed) = seed_max_ip {
            self.max_ip = seed;
        }
        let entry = self.graph.entry();
        self.seen[entry as usize] = true;
        let score = self.keys.dot_row(self.q, entry as usize);
        self.visited += 1;
        if (self.pred)(entry) {
            self.c.push(ScoredIdx {
                idx: entry as usize,
                score,
            });
            self.appended += 1;
            self.max_ip = self.max_ip.max(score);
        } else {
            // Only a traversal seed.
            self.expand(entry);
        }
        let mut i = 0;
        while i < self.c.len() && self.visited < self.params.max_visits {
            self.expand(self.c[i].idx as u32);
            i += 1;
        }

        let threshold = self.max_ip - self.params.beta;
        self.c.retain(|s| s.score >= threshold);
        self.c.sort_unstable_by(|a, b| b.cmp(a));
        let tokens = self.c.iter().map(|t| (t.idx, t.score.to_bits()));
        (
            tokens.collect(),
            self.visited,
            self.appended,
            self.max_ip.to_bits(),
        )
    }
}

proptest! {
    /// Definition 3: exact DIPR returns precisely the β-band around the max.
    #[test]
    fn flat_dipr_is_the_beta_band((keys, q) in keys_strategy(), beta in 0.0f32..20.0) {
        let res = FlatIndex.search_dipr(&keys, &q, beta);
        let scores: Vec<f32> = (0..keys.len()).map(|i| keys.dot_row(&q, i)).collect();
        let max = scores.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let expect: std::collections::HashSet<usize> = scores
            .iter()
            .enumerate()
            .filter(|(_, &s)| s >= max - beta)
            .map(|(i, _)| i)
            .collect();
        let got: std::collections::HashSet<usize> = res.iter().map(|s| s.idx).collect();
        prop_assert_eq!(got, expect);
        // Sorted descending.
        for w in res.windows(2) {
            prop_assert!(w[0].score >= w[1].score);
        }
    }

    /// DIPR result sets are monotone in β.
    #[test]
    fn dipr_monotone_in_beta((keys, q) in keys_strategy(), b1 in 0.0f32..10.0, b2 in 0.0f32..10.0) {
        let (lo, hi) = if b1 <= b2 { (b1, b2) } else { (b2, b1) };
        let small = FlatIndex.search_dipr(&keys, &q, lo);
        let large = FlatIndex.search_dipr(&keys, &q, hi);
        prop_assert!(small.len() <= large.len());
        let large_ids: std::collections::HashSet<usize> = large.iter().map(|s| s.idx).collect();
        for s in &small {
            prop_assert!(large_ids.contains(&s.idx));
        }
    }

    /// On a fully connected graph DIPRS equals exact flat DIPR.
    #[test]
    fn diprs_exact_on_clique((keys, q) in keys_strategy(), beta in 0.0f32..10.0) {
        let g = clique(keys.len());
        let params = DiprsParams { beta, l0: keys.len(), max_visits: usize::MAX };
        let got = diprs(&g, &keys, &q, &params, None);
        let want = FlatIndex.search_dipr(&keys, &q, beta);
        let got_ids: std::collections::HashSet<usize> = got.tokens.iter().map(|s| s.idx).collect();
        let want_ids: std::collections::HashSet<usize> = want.iter().map(|s| s.idx).collect();
        prop_assert_eq!(got_ids, want_ids);
    }

    /// Every DIPRS result is within β of the reported max IP, and seeding
    /// with any value never widens the result set.
    #[test]
    fn diprs_band_and_seed_soundness((keys, q) in keys_strategy(), beta in 0.0f32..5.0, seed in -20.0f32..20.0) {
        let g = clique(keys.len());
        let params = DiprsParams { beta, l0: 8, max_visits: usize::MAX };
        let plain = diprs(&g, &keys, &q, &params, None);
        for t in &plain.tokens {
            prop_assert!(t.score >= plain.max_ip - beta - 1e-4);
        }
        let seeded = diprs(&g, &keys, &q, &params, Some(seed));
        prop_assert!(seeded.tokens.len() <= plain.tokens.len().max(1));
        for t in &seeded.tokens {
            prop_assert!(t.score >= seeded.max_ip - beta - 1e-4);
        }
    }

    /// Filtered DIPRS only ever returns ids satisfying the predicate, and
    /// equals exact filtered DIPR on a clique.
    #[test]
    fn filtered_diprs_soundness((keys, q) in keys_strategy(), beta in 0.0f32..5.0, modulo in 2u32..5) {
        let g = clique(keys.len());
        let pred = |id: u32| id.is_multiple_of(modulo);
        let params = DiprsParams { beta, l0: keys.len(), max_visits: usize::MAX };
        let got = diprs_filtered(&g, &keys, &q, &params, None, pred);
        prop_assert!(got.tokens.iter().all(|t| pred(t.idx as u32)));
        let want = FlatIndex.search_dipr_filtered(&keys, &q, beta, pred);
        let got_ids: std::collections::HashSet<usize> = got.tokens.iter().map(|s| s.idx).collect();
        let want_ids: std::collections::HashSet<usize> = want.iter().map(|s| s.idx).collect();
        prop_assert_eq!(got_ids, want_ids);
    }

    /// The wavefront traversal returns bit for bit what Algorithm 1's
    /// per-candidate sweep returns — tokens, scores, `visited`, `appended`
    /// and `max_ip` — on random sparse graphs, under predicates that
    /// exclude the entry, exclude everything, or leave passing nodes
    /// reachable only through excluded ones, with and without a window
    /// seed, and under every finite visit budget from 1 to n.
    #[test]
    fn wavefront_equals_per_candidate_sweep(
        (keys, q) in keys_strategy(),
        edges in prop::collection::vec((0u32..64, 0u32..64), 0..300),
        entry in 0u32..64,
        (pred_kind, modulo, cut) in (0u8..4, 2u32..5, 0u32..=64),
        (l0, beta) in (0usize..16, 0.0f32..10.0),
        (seeded, seed) in (prop::bool::ANY, -20.0f32..20.0),
        budget in 1usize..=64,
    ) {
        let n = keys.len() as u32;
        let mut g = GraphBuilder::new(n as usize);
        for (a, b) in edges {
            g.add_edge(a % n, b % n);
        }
        if pred_kind == 3 {
            // A chain under an evens-only predicate: no passing node has a
            // passing 1-hop neighbor on it, so the passing subgraph is
            // connected only through the 2-hop widening.
            for i in 0..n - 1 {
                g.add_edge(i, i + 1);
            }
        }
        g.set_entry(entry % n);
        let g = g.freeze();
        let pred = move |id: u32| match pred_kind {
            0 => true,
            1 => !id.is_multiple_of(modulo),
            2 => id < cut,
            _ => id.is_multiple_of(2),
        };
        let seed_max_ip = seeded.then_some(seed);
        for max_visits in [usize::MAX, 1, budget.min(n as usize), n as usize] {
            let params = DiprsParams { beta, l0, max_visits };
            let got = diprs_filtered(&g, &keys, &q, &params, seed_max_ip, pred);
            let got: DiprsBits = (
                got.tokens.iter().map(|t| (t.idx, t.score.to_bits())).collect(),
                got.visited,
                got.appended,
                got.max_ip.to_bits(),
            );
            let want = PerCandidateSweep::new(&g, &keys, &q, params, &pred).run(seed_max_ip);
            prop_assert_eq!(got, want, "max_visits {}", max_visits);
        }
    }

    /// Theorem 1 as a property: for random score vectors, criticality by
    /// attention-score threshold α equals criticality by IP margin β.
    #[test]
    fn theorem_one_equivalence(
        ips in prop::collection::vec(-30.0f32..30.0, 1..40),
        alpha in 0.01f32..1.0,
        dim in 1usize..256,
    ) {
        let beta = beta_from_alpha(alpha, dim);
        let scale = 1.0 / (dim as f32).sqrt();
        let zs: Vec<f32> = ips.iter().map(|ip| ip * scale).collect();
        let zmax = zs.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        // softmax scores share the normalizer, so a_i >= alpha * a_max
        // iff exp(z_i) >= alpha * exp(z_max).
        let ip_max = ips.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        for (ip, z) in ips.iter().zip(&zs) {
            let by_score = (z - zmax).exp() >= alpha;
            let by_ip = *ip >= ip_max - beta;
            // Guard the exact float boundary.
            if ((z - zmax).exp() - alpha).abs() > 1e-5 {
                prop_assert_eq!(by_score, by_ip, "ip={} alpha={} beta={}", ip, alpha, beta);
            }
        }
    }
}
