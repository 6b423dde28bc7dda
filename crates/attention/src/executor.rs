//! The attention executor: one query-processing procedure for every plan
//! (§6–§7.2) — retrieve the critical tokens, compute partial attention
//! where the data lives, aggregate with log-sum-exp.
//!
//! [`attend`] is what `alaya_core::Session` serves and what every
//! [`crate::SparseAttention`] engine measures. It streams one head's rows
//! into a single [`OnlineSoftmax`] in a fixed order:
//!
//! 1. the cached window (over the combined stored + local sequence)
//!    restricted to the stored prefix — the "GPU" partition,
//! 2. the whole session-local window — always attended, never indexed
//!    (late materialization),
//! 3. the retrieved critical tokens outside the window — the "CPU"
//!    partition, with DIPRS seeded by the best inner product of 1 and 2
//!    (§7.1 window caching).
//!
//! Pushing into one accumulator is the exact FlashAttention aggregation
//! identity applied incrementally, so the output equals softmax attention
//! over the union of the three partitions. Logits are computed a block of
//! keys at a time ([`OnlineSoftmax::push_rows`]/[`OnlineSoftmax::push_ids`],
//! bitwise identical to the per-key loop) and the push order is fixed, so
//! `Session::attention_sequential` stays an exact oracle.

use std::collections::HashSet;

use alaya_index::coarse::CoarseIndex;
use alaya_index::flat::FlatIndex;
use alaya_index::graph::NeighborGraph;
use alaya_query::diprs::{diprs_filtered, DiprsParams};
use alaya_query::optimizer::Plan;
use alaya_query::types::{IndexChoice, PrefixFilter, QueryType};
use alaya_vector::softmax::OnlineSoftmax;
use alaya_vector::topk::ScoredIdx;
use alaya_vector::VecStore;

use crate::window::WindowSpec;

/// Result of one attention computation.
#[derive(Clone, Debug)]
pub struct AttendOutput {
    /// The attention output vector `o_i`.
    pub out: Vec<f32>,
    /// Distinct tokens attended to (window ∪ local ∪ retrieved).
    pub n_attended: usize,
    /// Maximum scaled attention logit observed.
    pub max_logit: f32,
}

/// One `(layer, kv_head)` as the executor sees it. Everything is borrowed:
/// a session points at its stored context's rows and its own local window,
/// an engine at a [`crate::HeadContext`]; nothing is copied.
#[derive(Clone, Copy)]
pub struct HeadView<'a> {
    /// Stored-context keys and values. Only rows `[0, n_stored)` are
    /// attended; the indexes below cover every row.
    pub stored: Option<(&'a VecStore, &'a VecStore)>,
    /// Reused prefix length (0 without a stored context).
    pub n_stored: usize,
    /// Session-local keys and values, following the stored prefix.
    pub local: Option<(&'a VecStore, &'a VecStore)>,
    /// Fine-grained graph over the stored keys, if built.
    pub graph: Option<&'a NeighborGraph>,
    /// Coarse block index over the stored keys, if built.
    pub coarse: Option<&'a CoarseIndex>,
}

impl<'a> HeadView<'a> {
    /// A view of whole key/value matrices with no local part and no indexes.
    pub fn stored(keys: &'a VecStore, values: &'a VecStore) -> Self {
        Self {
            stored: Some((keys, values)),
            n_stored: keys.len(),
            local: None,
            graph: None,
            coarse: None,
        }
    }

    fn n_local(&self) -> usize {
        self.local.map_or(0, |(keys, _)| keys.len())
    }
}

/// Executes `plan` for query `q` over one head.
///
/// `window` is the cached window of sparse plans. `l0` is the graph
/// search's candidate-list size: DIPRS's capacity threshold (Algorithm 1)
/// for DIPR plans, the beam width for top-k plans. Retrieval only returns
/// ids passing the plan's attribute filter (§7.1; the whole reused prefix
/// when the plan carries none), and a plan whose index is missing from
/// `view` degrades to the flat scan of the same query.
pub fn attend(
    q: &[f32],
    view: &HeadView,
    window: WindowSpec,
    plan: &Plan,
    l0: usize,
) -> AttendOutput {
    let scale = 1.0 / (q.len() as f32).sqrt();
    let (query, index, filter) = match *plan {
        // The reused prefix is the attribute filter of a dense plan.
        Plan::FullAttention { .. } => return attend_dense(q, view, scale),
        Plan::Sparse {
            query,
            index,
            filter,
        } => (query, index, filter),
    };
    let filter = filter.unwrap_or(PrefixFilter {
        prefix_len: view.n_stored,
    });
    let pred = move |id: u32| filter.accepts(id);
    let ids = |scored: Vec<ScoredIdx>| scored.into_iter().map(|s| s.idx as u32).collect();
    attend_sparse(q, view, scale, window, |keys, seed| {
        match (query, index, view.graph, view.coarse) {
            (QueryType::TopK { k }, IndexChoice::Coarse, _, Some(coarse)) => {
                let blocks = k.div_ceil(coarse.block_size()).max(1);
                let mut tokens = coarse.select_tokens(q, blocks);
                tokens.retain(|&t| pred(t));
                tokens
            }
            (QueryType::TopK { k }, IndexChoice::Fine, Some(graph), _) => {
                ids(graph.search_topk_filtered(keys, q, k, l0, pred))
            }
            (QueryType::TopK { k }, ..) => ids(FlatIndex.search_topk_filtered(keys, q, k, pred)),
            (QueryType::Dipr { beta }, IndexChoice::Fine, Some(graph), _) => {
                let params = DiprsParams {
                    beta,
                    l0,
                    max_visits: usize::MAX,
                };
                ids(diprs_filtered(graph, keys, q, &params, seed, pred).tokens)
            }
            (QueryType::Dipr { beta }, ..) => {
                ids(FlatIndex.search_dipr_filtered(keys, q, beta, pred))
            }
        }
    })
}

/// Sparse attention over caller-selected tokens: `window` plus the
/// `retrieved` ids, with set semantics (an id repeated or already inside the
/// window is attended once).
pub fn attend_selected(
    q: &[f32],
    keys: &VecStore,
    values: &VecStore,
    scale: f32,
    window: WindowSpec,
    retrieved: &[u32],
) -> AttendOutput {
    let mut seen = HashSet::with_capacity(retrieved.len());
    attend_sparse(q, &HeadView::stored(keys, values), scale, window, |_, _| {
        retrieved.iter().copied().filter(move |&id| seen.insert(id))
    })
}

/// Dense reference: attention over every token (the coupled-architecture
/// baseline and the quality ceiling).
pub fn attend_all(q: &[f32], keys: &VecStore, values: &VecStore, scale: f32) -> AttendOutput {
    attend_dense(q, &HeadView::stored(keys, values), scale)
}

fn attend_dense(q: &[f32], view: &HeadView, scale: f32) -> AttendOutput {
    let mut acc = OnlineSoftmax::new(q.len());
    if let Some((keys, values)) = view.stored {
        acc.push_rows(q, keys, values, scale, 0..view.n_stored);
    }
    if let Some((keys, values)) = view.local {
        acc.push_rows(q, keys, values, scale, 0..keys.len());
    }
    finish(acc, view.n_stored + view.n_local())
}

/// The sparse push order of the module docs. `select` receives the stored
/// keys and the DIPRS seed and returns distinct stored-token ids; ids
/// outside the reused prefix or inside the window are dropped here, so a
/// token is never attended twice.
fn attend_sparse<I: IntoIterator<Item = u32>>(
    q: &[f32],
    view: &HeadView,
    scale: f32,
    window: WindowSpec,
    select: impl FnOnce(&VecStore, Option<f32>) -> I,
) -> AttendOutput {
    let n_local = view.n_local();
    let n = view.n_stored + n_local;
    let in_prefix = |id: &u32| (*id as usize) < view.n_stored;
    let mut acc = OnlineSoftmax::new(q.len());
    let mut n_attended = n_local;

    if let Some((keys, values)) = view.stored {
        let cached: Vec<u32> = window.token_ids(n).filter(in_prefix).collect();
        acc.push_ids(q, keys, values, scale, &cached);
        n_attended += cached.len();
    }
    if let Some((keys, values)) = view.local {
        acc.push_rows(q, keys, values, scale, 0..n_local);
    }
    if let Some((keys, values)) = view.stored {
        // Best-so-far inner product from the partitions already computed.
        let seed = (!acc.is_empty()).then(|| acc.max_score() / scale);
        let extras: Vec<u32> = select(keys, seed)
            .into_iter()
            .filter(|id| in_prefix(id) && !window.contains(*id as usize, n))
            .collect();
        debug_assert!(
            extras.iter().collect::<HashSet<_>>().len() == extras.len(),
            "a selection is a set: every index search returns each id once"
        );
        acc.push_ids(q, keys, values, scale, &extras);
        n_attended += extras.len();
    }
    finish(acc, n_attended)
}

fn finish(acc: OnlineSoftmax, n_attended: usize) -> AttendOutput {
    AttendOutput {
        out: acc.output(),
        n_attended,
        max_logit: acc.max_score(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alaya_vector::rng::{gaussian_store, gaussian_vec, seeded};

    fn close(a: &[f32], b: &[f32], tol: f32) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() < tol)
    }

    #[test]
    fn selecting_everything_equals_full_attention() {
        let mut rng = seeded(8);
        let keys = gaussian_store(&mut rng, 64, 8, 1.0);
        let values = gaussian_store(&mut rng, 64, 8, 1.0);
        let q = gaussian_vec(&mut rng, 8, 1.0);
        let scale = 1.0 / 8f32.sqrt();

        let full = attend_all(&q, &keys, &values, scale);
        // Window covers some, retrieval covers the rest.
        let window = WindowSpec::new(8, 8);
        let rest: Vec<u32> = (0..64u32)
            .filter(|&i| !window.contains(i as usize, 64))
            .collect();
        let sparse = attend_selected(&q, &keys, &values, scale, window, &rest);

        assert!(
            close(&full.out, &sparse.out, 1e-4),
            "data-centric merge must be exact"
        );
        assert_eq!(sparse.n_attended, 64);
        assert!((full.max_logit - sparse.max_logit).abs() < 1e-5);
    }

    #[test]
    fn duplicate_ids_in_window_not_double_counted() {
        let mut rng = seeded(9);
        let keys = gaussian_store(&mut rng, 32, 4, 1.0);
        let values = gaussian_store(&mut rng, 32, 4, 1.0);
        let q = gaussian_vec(&mut rng, 4, 1.0);
        let window = WindowSpec::new(4, 4);

        // Pass window ids also as "retrieved": output must equal window-only.
        let window_ids: Vec<u32> = window.token_ids(32).collect();
        let a = attend_selected(&q, &keys, &values, 0.5, window, &window_ids);
        let b = attend_selected(&q, &keys, &values, 0.5, window, &[]);
        assert!(close(&a.out, &b.out, 1e-6));
        assert_eq!(a.n_attended, b.n_attended);
    }

    #[test]
    fn retrieval_of_high_scoring_token_shifts_output() {
        // One key matches q exactly and carries a distinctive value.
        let mut keys = VecStore::new(4);
        let mut values = VecStore::new(4);
        for i in 0..32 {
            if i == 16 {
                keys.push(&[10.0, 0.0, 0.0, 0.0]);
                values.push(&[100.0, 0.0, 0.0, 0.0]);
            } else {
                keys.push(&[0.0, 0.1, 0.0, 0.0]);
                values.push(&[0.0, 1.0, 0.0, 0.0]);
            }
        }
        let q = [1.0, 0.0, 0.0, 0.0];
        let window = WindowSpec::new(2, 2);

        let without = attend_selected(&q, &keys, &values, 1.0, window, &[]);
        let with = attend_selected(&q, &keys, &values, 1.0, window, &[16]);
        assert!(
            with.out[0] > 90.0,
            "critical token dominates: {:?}",
            with.out
        );
        assert!(
            without.out[0] < 1.0,
            "missing token leaves mass on window: {:?}",
            without.out
        );
    }

    #[test]
    fn empty_everything_returns_zero() {
        let keys = VecStore::new(4);
        let values = VecStore::new(4);
        let out = attend_selected(&[0.0; 4], &keys, &values, 1.0, WindowSpec::new(2, 2), &[]);
        assert_eq!(out.out, vec![0.0; 4]);
        assert_eq!(out.n_attended, 0);
    }
}
