//! Ablation benchmarks for the design choices DESIGN.md calls out:
//! window-seeded DIPRS pruning (§7.1), 2-hop vs naive filtering (§7.1),
//! GQA index sharing (§7.2), and late vs eager index materialization
//! (§7.2).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use alaya_index::flat::FlatIndex;
use alaya_index::roargraph::{RoarGraph, RoarGraphParams};
use alaya_index::sharing::{build_shared_indexes, SharingConfig};
use alaya_query::diprs::{diprs, diprs_filtered, diprs_filtered_naive, DiprsParams};
use alaya_vector::rng::{gaussian_store, seeded};
use alaya_vector::VecStore;

fn fixture(n: usize, dim: usize) -> (alaya_index::graph::NeighborGraph, VecStore, VecStore) {
    let mut rng = seeded(21);
    let keys = gaussian_store(&mut rng, n, dim, 1.0);
    let train = gaussian_store(&mut rng, n / 3, dim, 1.0);
    let queries = gaussian_store(&mut rng, 64, dim, 1.0);
    let graph = RoarGraph::build(&keys, &train, RoarGraphParams::default()).into_graph();
    (graph, keys, queries)
}

/// §7.1: seeding DIPRS with the window's max IP prunes exploration.
fn bench_window_seeding(c: &mut Criterion) {
    let dim = 32;
    let (graph, keys, queries) = fixture(20_000, dim);
    let params = DiprsParams {
        beta: 2.0 * (dim as f32).sqrt(),
        l0: 64,
        max_visits: usize::MAX,
    };

    let mut group = c.benchmark_group("diprs_window_seeding");
    group.bench_function("unseeded", |b| {
        let mut qi = 0;
        b.iter(|| {
            qi = (qi + 1) % queries.len();
            diprs(&graph, &keys, queries.row(qi), &params, None)
        })
    });
    group.bench_function("seeded_with_true_max", |b| {
        let mut qi = 0;
        b.iter(|| {
            qi = (qi + 1) % queries.len();
            let q = queries.row(qi);
            // The window-cache seed, idealized: the true max IP.
            let seed = FlatIndex.search_topk(&keys, q, 1)[0].score;
            diprs(&graph, &keys, q, &params, Some(seed))
        })
    });
    group.finish();
}

/// §7.1: naive predicate pruning vs the 2-hop ACORN-style widening.
fn bench_filtering(c: &mut Criterion) {
    let dim = 32;
    let (graph, keys, queries) = fixture(20_000, dim);
    let params = DiprsParams {
        beta: 2.0 * (dim as f32).sqrt(),
        l0: 64,
        max_visits: usize::MAX,
    };
    let prefix = 4_000usize; // 20% reuse ratio

    let mut group = c.benchmark_group("filtered_diprs");
    group.bench_function("two_hop", |b| {
        let mut qi = 0;
        b.iter(|| {
            qi = (qi + 1) % queries.len();
            diprs_filtered(&graph, &keys, queries.row(qi), &params, None, |id| {
                (id as usize) < prefix
            })
        })
    });
    group.bench_function("naive", |b| {
        let mut qi = 0;
        b.iter(|| {
            qi = (qi + 1) % queries.len();
            diprs_filtered_naive(&graph, &keys, queries.row(qi), &params, None, |id| {
                (id as usize) < prefix
            })
        })
    });
    group.finish();
}

/// §7.2: GQA sharing — one index per KV head vs one per query head.
fn bench_gqa_sharing(c: &mut Criterion) {
    let dim = 32;
    let n = 3_000;
    let group_size = 4;
    let mut rng = seeded(31);
    let keys: Vec<VecStore> = (0..2)
        .map(|_| gaussian_store(&mut rng, n, dim, 1.0))
        .collect();
    let key_refs: Vec<&VecStore> = keys.iter().collect();
    let queries: Vec<VecStore> = (0..2 * group_size)
        .map(|_| gaussian_store(&mut rng, n, dim, 1.1))
        .collect();

    let mut group = c.benchmark_group("gqa_index_build");
    group.sample_size(10);
    for share in [true, false] {
        let name = if share { "shared" } else { "per_query_head" };
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| {
                build_shared_indexes(
                    &key_refs,
                    &queries,
                    &SharingConfig {
                        group_size,
                        sample_ratio: 0.4,
                        params: RoarGraphParams::default(),
                        share,
                    },
                )
            })
        });
    }
    group.finish();
}

/// §7.2: late materialization — appending decode KV to the local window vs
/// rebuilding the index on every generated token.
fn bench_materialization(c: &mut Criterion) {
    let dim = 32;
    let n = 2_000;
    let mut rng = seeded(41);
    let keys = gaussian_store(&mut rng, n, dim, 1.0);
    let train = gaussian_store(&mut rng, n / 3, dim, 1.0);
    let new_token = gaussian_store(&mut rng, 1, dim, 1.0);

    let mut group = c.benchmark_group("decode_token_update");
    group.sample_size(10);
    group.bench_function("late_window_append", |b| {
        b.iter(|| {
            let mut window = VecStore::new(dim);
            window.push(new_token.row(0));
            window
        })
    });
    group.bench_function("eager_index_rebuild", |b| {
        b.iter(|| {
            let mut grown = keys.clone();
            grown.push(new_token.row(0));
            RoarGraph::build(&grown, &train, RoarGraphParams::default())
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_window_seeding, bench_filtering, bench_gqa_sharing, bench_materialization
}
criterion_main!(benches);
