//! Figure 12: filter-based DIPRS keeps recall under partial context reuse
//! (§7.1, §9.2.2).
//!
//! The reused prefix is fixed while the stored context (= index size)
//! grows, shrinking the reuse ratio from 100 % to 20 %. Recall is measured
//! against the exact filtered DIPR answer, for the 2-hop filtered search and
//! for the naive predicate-pruning baseline that shows why the 2-hop
//! expansion exists. Latency is the measured wall clock of the 2-hop search,
//! reported but never judged.

use std::collections::HashSet;
use std::time::Instant;

use alaya_index::flat::FlatIndex;
use alaya_index::roargraph::{RoarGraph, RoarGraphParams};
use alaya_query::diprs::{diprs_filtered, diprs_filtered_naive, DiprsParams};
use alaya_vector::rng::{gaussian_store, seeded};
use alaya_vector::topk::ScoredIdx;

use crate::{min_max, Verdict, DIM};

/// Reused prefix / stored context ratios swept.
const RATIOS: [f64; 5] = [1.0, 0.8, 0.6, 0.4, 0.2];
/// The claim: 2-hop filtered recall stays at least this high.
pub const MIN_RECALL: f64 = 0.9;

/// One index size.
#[derive(Clone, Debug)]
pub struct FilterRow {
    /// Stored context length.
    pub index_size: usize,
    /// Reused prefix as a percentage of the stored context.
    pub reuse_ratio_pct: f64,
    /// Mean recall of 2-hop filtered DIPRS.
    pub recall: f64,
    /// Mean recall of naive predicate pruning.
    pub naive_recall: f64,
    /// Mean measured latency of one 2-hop filtered search.
    pub latency_s: f64,
}

/// Fraction of `exact` found in `got`.
fn recall(got: &[ScoredIdx], exact: &HashSet<usize>) -> f64 {
    got.iter().filter(|t| exact.contains(&t.idx)).count() as f64 / exact.len().max(1) as f64
}

/// Sweeps the reuse ratio with a reused prefix of `prefix` tokens.
pub fn measure(prefix: usize, n_queries: usize) -> Vec<FilterRow> {
    let beta = 2.0 * (DIM as f32).sqrt();
    let params = DiprsParams {
        beta,
        l0: 64,
        max_visits: usize::MAX,
    };
    let pred = |id: u32| (id as usize) < prefix;
    let mut rows = Vec::new();
    for ratio in RATIOS {
        let n = (prefix as f64 / ratio).round() as usize;
        let mut rng = seeded(n as u64 ^ 0xF12);
        let keys = gaussian_store(&mut rng, n, DIM, 1.0);
        let train = gaussian_store(&mut rng, n / 3, DIM, 1.0);
        let rg = RoarGraph::build(&keys, &train, RoarGraphParams::default());
        let graph = rg.graph();
        let queries = gaussian_store(&mut rng, n_queries, DIM, 1.0);

        let (mut two_hop, mut naive, mut elapsed) = (0.0f64, 0.0f64, 0.0f64);
        for qi in 0..n_queries {
            let q = queries.row(qi);
            let exact: HashSet<usize> = FlatIndex
                .search_dipr_filtered(&keys, q, beta, pred)
                .iter()
                .map(|s| s.idx)
                .collect();
            let t0 = Instant::now();
            let got = diprs_filtered(graph, &keys, q, &params, None, pred);
            elapsed += t0.elapsed().as_secs_f64();
            two_hop += recall(&got.tokens, &exact);
            let got = diprs_filtered_naive(graph, &keys, q, &params, None, pred);
            naive += recall(&got.tokens, &exact);
        }
        let per_query = n_queries as f64;
        rows.push(FilterRow {
            index_size: n,
            reuse_ratio_pct: ratio * 100.0,
            recall: two_hop / per_query,
            naive_recall: naive / per_query,
            latency_s: elapsed / per_query,
        });
    }
    rows
}

/// At every reuse ratio the 2-hop recall is at least the naive recall,
/// strictly above it below 100 % reuse, and at least [`MIN_RECALL`].
pub fn check(rows: &[FilterRow]) -> Verdict {
    for r in rows {
        let at = format!("{:.0} % reuse", r.reuse_ratio_pct);
        if r.recall < r.naive_recall {
            return Err(format!(
                "{at}: 2-hop recall {:.3} is below naive recall {:.3}",
                r.recall, r.naive_recall
            ));
        }
        if r.reuse_ratio_pct < 100.0 && r.recall <= r.naive_recall {
            return Err(format!(
                "{at}: 2-hop recall {:.3} is no higher than naive recall {:.3}: \
                 the 2-hop expansion buys nothing",
                r.recall, r.naive_recall
            ));
        }
        if r.recall < MIN_RECALL {
            return Err(format!(
                "{at}: 2-hop recall {:.3} is below {MIN_RECALL}",
                r.recall
            ));
        }
    }
    let (lo, hi) = min_max(rows.iter().map(|r| r.recall)).ok_or("no reuse ratios measured")?;
    let (naive_lo, _) = min_max(rows.iter().map(|r| r.naive_recall)).unwrap_or_default();
    Ok(format!(
        "2-hop filtered recall stays within {lo:.3}..{hi:.3} from 100 % down to 20 % reuse; \
         naive pruning falls to {naive_lo:.3}"
    ))
}
