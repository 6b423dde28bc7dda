//! Quality oracle for index construction: DIPRS recall against the exact
//! flat DIPR on seeded data, for a key-trained and a query-trained
//! RoarGraph at the shape the repo benchmark serves (2048 keys, d = 32,
//! β = 4, `l0` = 128).
//!
//! The floors are what the current build measures, rounded down: a change
//! to how graphs are built (stage-1 projection, pruning, the stage-2 exact
//! links, the entry point) that loses recall fails here instead of moving
//! `query.diprs_recall` in a benchmark run nobody reads. Raise a floor when
//! a build change earns it; lower one only with the numbers that justify it.

use alaya_index::flat::FlatIndex;
use alaya_index::roargraph::{RoarGraph, RoarGraphParams};
use alaya_index::sharing::sample_rows;
use alaya_query::diprs::{diprs, DiprsParams};
use alaya_vector::rng::{gaussian_store, gaussian_vec, seeded};
use alaya_vector::VecStore;

const N: usize = 2048;
const DIM: usize = 32;
const BETA: f32 = 4.0;

/// Measured 0.8751 (the per-key beam searches this build replaced: 0.8736).
const KEY_TRAINED_FLOOR: f64 = 0.87;
/// Measured 0.9501 (0.9513 before).
const QUERY_TRAINED_FLOOR: f64 = 0.945;

/// Decode-distribution queries: wider than the keys and shifted by a fixed
/// offset, the out-of-distribution setting RoarGraph exists for.
fn decode_queries(n: usize, offset: &[f32], seed: u64) -> VecStore {
    let mut rng = seeded(seed);
    let mut queries = VecStore::with_capacity(DIM, n);
    for _ in 0..n {
        let mut q = gaussian_vec(&mut rng, DIM, 1.1);
        for (x, o) in q.iter_mut().zip(offset) {
            *x += o;
        }
        queries.push(&q);
    }
    queries
}

/// Mean over `probes` of |DIPRS ∩ exact DIPR| / |exact DIPR|, as the
/// benchmark's `query.diprs_recall` computes it.
fn diprs_recall(keys: &VecStore, train: &VecStore, probes: &VecStore) -> f64 {
    let graph = RoarGraph::build(keys, train, RoarGraphParams::default()).into_graph();
    let params = DiprsParams {
        beta: BETA,
        l0: 128,
        max_visits: usize::MAX,
    };
    let per_probe = probes.iter().map(|q| {
        let got = diprs(&graph, keys, q, &params, None);
        let exact = FlatIndex.search_dipr(keys, q, BETA);
        let hit = exact
            .iter()
            .filter(|e| got.tokens.iter().any(|g| g.idx == e.idx))
            .count();
        hit as f64 / exact.len().max(1) as f64
    });
    per_probe.sum::<f64>() / probes.len() as f64
}

#[test]
fn diprs_recall_floors_for_key_trained_and_query_trained_graphs() {
    let mut rng = seeded(2048);
    let keys = gaussian_store(&mut rng, N, DIM, 1.0);
    let offset = gaussian_vec(&mut rng, DIM, 0.5);
    let probes = decode_queries(96, &offset, 7);

    // `Db::import` without query samples: evenly strided keys stand in.
    let key_trained = diprs_recall(&keys, &sample_rows(&keys, N * 2 / 5), &probes);
    // `Db::store` / `import_with_queries`: samples of the decode
    // distribution (disjoint from the probes).
    let query_trained = diprs_recall(&keys, &decode_queries(N * 2 / 5, &offset, 8), &probes);

    assert!(
        key_trained >= KEY_TRAINED_FLOOR,
        "key-trained recall {key_trained}"
    );
    assert!(
        query_trained >= QUERY_TRAINED_FLOOR,
        "query-trained recall {query_trained}"
    );
}
