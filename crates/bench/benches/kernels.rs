//! Microbenchmarks of the numeric kernels every query touches.

use std::hint::black_box;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use alaya_index::coarse::{BlockScoring, CoarseIndex};
use alaya_index::knn::exact_knn;
use alaya_index::roargraph::{RoarGraph, RoarGraphParams};
use alaya_llm::weights::ModelWeights;
use alaya_llm::{FullKvBackend, Model, ModelConfig};
use alaya_query::diprs::{diprs, DiprsParams};
use alaya_vector::rng::{gaussian_store, gaussian_vec, seeded};
use alaya_vector::softmax::{softmax_in_place, OnlineSoftmax};
use alaya_vector::{dot, dot_many, l2_sq, top_k_indices};

fn bench_dot(c: &mut Criterion) {
    let mut group = c.benchmark_group("dot");
    for dim in [32usize, 128, 1024] {
        let mut rng = seeded(1);
        let a = gaussian_vec(&mut rng, dim, 1.0);
        let b = gaussian_vec(&mut rng, dim, 1.0);
        group.throughput(Throughput::Elements(dim as u64));
        group.bench_with_input(BenchmarkId::from_parameter(dim), &dim, |bench, _| {
            bench.iter(|| dot(std::hint::black_box(&a), std::hint::black_box(&b)))
        });
    }
    group.finish();
}

fn bench_l2_sq(c: &mut Criterion) {
    let mut group = c.benchmark_group("l2_sq");
    for dim in [32usize, 128, 1024] {
        let mut rng = seeded(5);
        let a = gaussian_vec(&mut rng, dim, 1.0);
        let b = gaussian_vec(&mut rng, dim, 1.0);
        group.throughput(Throughput::Elements(dim as u64));
        group.bench_with_input(BenchmarkId::from_parameter(dim), &dim, |bench, _| {
            bench.iter(|| l2_sq(std::hint::black_box(&a), std::hint::black_box(&b)))
        });
    }
    group.finish();
}

fn bench_dot_many(c: &mut Criterion) {
    // Batched query-against-many-keys scoring: the unit of work behind
    // DIPRS candidate expansion and per-head attention over a stored head.
    let mut group = c.benchmark_group("dot_many");
    let dim = 128usize;
    for n in [64usize, 1024, 8192] {
        let mut rng = seeded(6);
        let q = gaussian_vec(&mut rng, dim, 1.0);
        let keys = gaussian_vec(&mut rng, dim * n, 1.0);
        let mut out = vec![0.0f32; n];
        group.throughput(Throughput::Elements((dim * n) as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| {
                dot_many(
                    std::hint::black_box(&q),
                    std::hint::black_box(&keys),
                    std::hint::black_box(&mut out),
                )
            })
        });
    }
    group.finish();
}

/// Read-bandwidth probe: sums `x` through four independent 8-lane add
/// chains — the cheapest loop that touches every byte once, so its GB/s is
/// the roofline the block kernels are judged against at the same footprint.
fn read_sum(x: &[f32]) -> f32 {
    let mut acc = [[0.0f32; 8]; 4];
    let mut chunks = x.chunks_exact(32);
    for c in &mut chunks {
        for (a, v) in acc.iter_mut().zip(c.chunks_exact(8)) {
            let v: [f32; 8] = v.try_into().expect("8-lane chunk");
            *a = core::array::from_fn(|l| a[l] + v[l]);
        }
    }
    // Same barrier as `alaya_vector::ops`: keeps the horizontal sum out of
    // the loop so the chains stay 8 lanes wide.
    std::hint::black_box(&mut acc);
    acc.iter().flatten().sum::<f32>() + chunks.remainder().iter().sum::<f32>()
}

fn bench_roofline(c: &mut Criterion) {
    // ROADMAP aim 2: achieved GB/s of the block kernels next to a measured
    // read roofline, at the two footprints the served path has — one
    // `long_*` head (d = 32 x 2048 keys, 256 KB, L2-resident) and the
    // `small()` weight stream (d = 256 x 9000 rows, 9 MB, past the cache).
    let mut group = c.benchmark_group("roofline");
    for (dim, n) in [(32usize, 2048usize), (256, 9000)] {
        let mut rng = seeded(7);
        let keys = gaussian_store(&mut rng, n, dim, 1.0);
        let q = gaussian_vec(&mut rng, dim, 1.0);
        // A full-period stride walk: every row once, never sequentially.
        let ids: Vec<u32> = (0..n).map(|i| (i * 37 % n) as u32).collect();
        let mut out = vec![0.0f32; n];
        let shape = format!("{dim}x{n}");
        group.throughput(Throughput::Bytes((n * dim * 4) as u64));
        group.bench_function(BenchmarkId::new("read_sum", &shape), |bench| {
            bench.iter(|| read_sum(std::hint::black_box(keys.as_flat())))
        });
        group.bench_function(BenchmarkId::new("dot_many", &shape), |bench| {
            bench.iter(|| keys.dot_rows(std::hint::black_box(&q), &mut out))
        });
        group.bench_function(BenchmarkId::new("dot_ids", &shape), |bench| {
            bench.iter(|| keys.dot_ids(std::hint::black_box(&q), &ids, &mut out))
        });
    }
    group.finish();
}

/// Self-timed iterations of `f` with the caches emptied before each: `evict`
/// is streamed (untimed) through [`read_sum`], then one call is timed.
fn time_cold<O>(iters: u64, evict: &[f32], mut f: impl FnMut() -> O) -> Duration {
    let mut total = Duration::ZERO;
    for _ in 0..iters {
        black_box(read_sum(black_box(evict)));
        let t0 = Instant::now();
        black_box(f());
        total += t0.elapsed();
    }
    total
}

fn bench_traversal(c: &mut Criterion) {
    // DIPRS as serving pays for it. Between two attends of one head the
    // engine streams its weights (~9 MB on `small()`) through a 4 MB L2,
    // so a head's keys, adjacency and traversal scratch are cold every
    // time; the `_cold` cells stream 12 MB between calls to reproduce
    // that, the `_warm` cell is the back-to-back replay figure. Calls
    // rotate through 64 queries: with one repeated query the branch
    // predictor memorizes the whole traversal and hides what a fresh
    // decode-step query pays. The cold flat scan of the same keys is the
    // floor a graph walk has to beat. Graphs are the key-sampled fallback
    // `Db::import` builds; `l0` and β are the served `long_dipr` values.
    let mut group = c.benchmark_group("traversal");
    let evict = vec![1.0f32; 3 << 20];
    let dim = 32usize;
    let params = DiprsParams {
        beta: 4.0,
        l0: 128,
        max_visits: usize::MAX,
    };
    for n in [2048usize, 16_384] {
        let mut rng = seeded(8);
        let keys = gaussian_store(&mut rng, n, dim, 1.0);
        let queries = gaussian_store(&mut rng, 64, dim, 1.0);
        let sampled: Vec<f32> = (0..n)
            .step_by(2)
            .flat_map(|i| keys.row(i).iter().copied())
            .collect();
        let train = alaya_vector::VecStore::from_flat(dim, sampled);
        let graph = RoarGraph::build(&keys, &train, RoarGraphParams::default()).into_graph();
        let mut out = vec![0.0f32; n];
        let mut turn = 0usize;
        let mut next_query = || {
            turn += 1;
            queries.row(turn % queries.len())
        };
        let shape = format!("{dim}x{n}");
        group.bench_function(BenchmarkId::new("diprs_warm", &shape), |bench| {
            bench.iter(|| diprs(&graph, &keys, next_query(), &params, None))
        });
        group.bench_function(BenchmarkId::new("diprs_cold", &shape), |bench| {
            bench.iter_custom(|iters| {
                time_cold(iters, &evict, || {
                    diprs(&graph, &keys, next_query(), &params, None)
                })
            })
        });
        group.bench_function(BenchmarkId::new("dot_block_cold", &shape), |bench| {
            bench.iter_custom(|iters| {
                time_cold(iters, &evict, || keys.dot_rows(next_query(), &mut out))
            })
        });
    }
    group.finish();
}

fn bench_knn(c: &mut Criterion) {
    // Index construction as `Db::store` pays for it: both RoarGraph stages
    // are one exact kNN pass (score every key, keep the best k), so a build
    // is `exact_knn` plus linking. Shapes are one `store_reuse` head (a few
    // hundred tokens) and one `long_*` head (2048), d = 32, on the shared
    // pool. `select` is the top-k alone over precomputed scores, to be read
    // next to `dot_rows` over the same keys: selection must cost less than
    // the inner products it ranks. Rates are per (query, key) pair, per
    // score and per key respectively.
    let mut group = c.benchmark_group("knn");
    let dim = 32usize;
    let params = RoarGraphParams::default();
    let k = params.max_degree / 2 + 1;
    for n in [384usize, 2048] {
        let mut rng = seeded(9);
        let keys = gaussian_store(&mut rng, n, dim, 1.0);
        let train = gaussian_store(&mut rng, n * 2 / 5, dim, 1.1);
        // Selection rotates through 64 score rows: with one repeated row
        // the branch predictor memorizes which scores pass the gate.
        let score_rows: Vec<Vec<f32>> = (0..64)
            .map(|i| {
                let mut scores = vec![0.0f32; n];
                keys.dot_rows(keys.row(i * n / 64), &mut scores);
                scores
            })
            .collect();
        let mut turn = 0usize;
        let mut out = vec![0.0f32; n];
        let mut out4 = vec![0.0f32; 4 * n];

        group.throughput(Throughput::Elements((n * n) as u64));
        group.bench_function(BenchmarkId::new("exact_knn", n), |bench| {
            bench.iter(|| exact_knn(black_box(&keys), &keys, k, 0))
        });
        group.throughput(Throughput::Elements(n as u64));
        group.bench_function(BenchmarkId::new("select", n), |bench| {
            bench.iter(|| {
                turn += 1;
                top_k_indices(black_box(&score_rows[turn % 64]), k)
            })
        });
        group.bench_function(BenchmarkId::new("dot_rows", n), |bench| {
            bench.iter(|| keys.dot_rows(black_box(keys.row(n / 2)), &mut out))
        });
        // Four queries per pass over the keys, per score as above.
        group.throughput(Throughput::Elements(4 * n as u64));
        group.bench_function(BenchmarkId::new("dot_rows_multi", n), |bench| {
            bench.iter(|| {
                let tile = &keys.as_flat()[n / 2 * dim..(n / 2 + 4) * dim];
                keys.dot_rows_multi(black_box(tile), &mut out4)
            })
        });
        group.bench_function(BenchmarkId::new("roargraph_build", n), |bench| {
            bench.iter(|| RoarGraph::build(black_box(&keys), &train, params))
        });
    }
    group.finish();
}

fn bench_coarse(c: &mut Criterion) {
    // The optimizer's rich-GPU plan (TopK on Coarse) as `long_coarse` serves
    // it: one head of 2048 keys, d = 32, blocks of 32 under Quest min/max
    // bounds, k = 128 tokens (4 blocks). `select_blocks` is the bound scan
    // plus top-k, `select_tokens` adds the emitted token ids. Calls rotate
    // through 64 queries, as in `traversal`.
    let mut group = c.benchmark_group("coarse");
    let (n, dim, block_size, k) = (2048usize, 32usize, 32usize, 128usize);
    let mut rng = seeded(10);
    let keys = gaussian_store(&mut rng, n, dim, 1.0);
    let queries = gaussian_store(&mut rng, 64, dim, 1.0);
    let index = CoarseIndex::build(&keys, block_size, BlockScoring::MinMaxBounds);
    let blocks = k.div_ceil(block_size);
    let mut turn = 0usize;
    let mut next_query = || {
        turn += 1;
        queries.row(turn % queries.len())
    };
    let shape = format!("{dim}x{n}");
    group.bench_function(BenchmarkId::new("select_blocks", &shape), |bench| {
        bench.iter(|| index.select_blocks(black_box(next_query()), blocks))
    });
    group.bench_function(BenchmarkId::new("select_tokens", &shape), |bench| {
        bench.iter(|| index.select_tokens(black_box(next_query()), blocks))
    });
    group.finish();
}

fn bench_scan_scoring(c: &mut Criterion) {
    // A flat-index pass over one head's keys: the unit of work behind the
    // optimizer's "Flat" choice.
    let mut group = c.benchmark_group("flat_scan");
    for n in [1_000usize, 10_000] {
        let mut rng = seeded(2);
        let keys = gaussian_store(&mut rng, n, 128, 1.0);
        let q = gaussian_vec(&mut rng, 128, 1.0);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| {
                let scores: Vec<f32> = (0..n)
                    .map(|i| keys.dot_row(std::hint::black_box(&q), i))
                    .collect();
                top_k_indices(&scores, 100)
            })
        });
    }
    group.finish();
}

fn bench_softmax(c: &mut Criterion) {
    let mut group = c.benchmark_group("softmax");
    for n in [640usize, 8_192] {
        let mut rng = seeded(3);
        let scores = gaussian_vec(&mut rng, n, 2.0);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("in_place", n), &n, |bench, _| {
            bench.iter(|| {
                let mut s = scores.clone();
                softmax_in_place(&mut s);
                s
            })
        });
    }
    group.finish();
}

fn bench_softmax_tile(c: &mut Criterion) {
    // The tiled online softmax under every attention path (served plans and
    // the model's prefill): score plus absorb, 64 rows per tile. The
    // ns/iter column is ns per attended row. `push_rows` over a `long_*`
    // head (2048 x 32) and a `chat_short`-sized one (96 x 16); `push_ids`
    // over 256 ids gathered from 2048 keys at d = 32, a retrieved set.
    let mut group = c.benchmark_group("softmax_tile");
    for (n, dim) in [(2048usize, 32usize), (96, 16)] {
        let mut rng = seeded(10);
        let keys = gaussian_store(&mut rng, n, dim, 1.0);
        let values = gaussian_store(&mut rng, n, dim, 1.0);
        let q = gaussian_vec(&mut rng, dim, 1.0);
        let scale = 1.0 / (dim as f32).sqrt();
        let shape = format!("{n}x{dim}");
        group.bench_function(BenchmarkId::new("push_rows_per_row", &shape), |bench| {
            bench.iter_custom(|iters| {
                time_per_row(iters, n, || {
                    let mut acc = OnlineSoftmax::new(dim);
                    acc.push_rows(black_box(&q), &keys, &values, scale, 0..n);
                    acc.sum()
                })
            })
        });
    }
    let (n, dim, gathered) = (2048usize, 32usize, 256usize);
    let mut rng = seeded(11);
    let keys = gaussian_store(&mut rng, n, dim, 1.0);
    let values = gaussian_store(&mut rng, n, dim, 1.0);
    let q = gaussian_vec(&mut rng, dim, 1.0);
    let scale = 1.0 / (dim as f32).sqrt();
    let ids: Vec<u32> = (0..gathered).map(|i| (i * 977 % n) as u32).collect();
    let shape = format!("{gathered}of{n}x{dim}");
    group.bench_function(BenchmarkId::new("push_ids_per_row", &shape), |bench| {
        bench.iter_custom(|iters| {
            time_per_row(iters, gathered, || {
                let mut acc = OnlineSoftmax::new(dim);
                acc.push_ids(black_box(&q), &keys, &values, scale, &ids);
                acc.sum()
            })
        })
    });
    group.finish();
}

fn bench_prefill(c: &mut Criterion) {
    // The model's prefill, which builds every stored context: a 512- and a
    // 2048-token prompt (the `long_*` stored contexts, where attention
    // dominates) on the small model into a `FullKvBackend`, per token.
    // Beside it, the projection kernel it runs per chunk: one
    // `dot_rows_multi` of 64 token rows against `w_gate` (512 x 256,
    // 512 KB), against the 64 single-row `dot_rows` a token-at-a-time pass
    // makes, per (token, row).
    let mut group = c.benchmark_group("prefill");
    let cfg = ModelConfig::small();
    let model = Model::new(cfg.clone());
    for n in [512usize, 2048] {
        let tokens: Vec<u32> = (0..n).map(|i| (i * 7919 % 256) as u32).collect();
        let id = BenchmarkId::new("model_per_token", format!("small_{n}"));
        group.bench_function(id, |bench| {
            bench.iter_custom(|iters| {
                time_per_row(iters, n, || {
                    let mut backend = FullKvBackend::new(&cfg);
                    model.prefill(black_box(&tokens), 0, &mut backend)
                })
            })
        });
    }

    let w_gate = &ModelWeights::generate(&cfg).layers[0].w_gate;
    let rows = 64usize;
    let h = gaussian_store(&mut seeded(12), rows, w_gate.dim(), 1.0);
    let mut out = vec![0.0f32; rows * w_gate.len()];
    let shape = format!("{rows}x{}x{}", w_gate.len(), w_gate.dim());
    group.bench_function(
        BenchmarkId::new("dot_rows_multi_per_pair", &shape),
        |bench| {
            bench.iter_custom(|iters| {
                time_per_row(iters, out.len(), || {
                    w_gate.dot_rows_multi(black_box(h.as_flat()), &mut out)
                })
            })
        },
    );
    group.bench_function(BenchmarkId::new("dot_rows_per_pair", &shape), |bench| {
        bench.iter_custom(|iters| {
            time_per_row(iters, out.len(), || {
                for (x, o) in h.iter().zip(out.chunks_exact_mut(w_gate.len())) {
                    w_gate.dot_rows(black_box(x), o);
                }
            })
        })
    });
    group.finish();
}

/// Runs `f` `iters` times and returns the time per row of one run.
fn time_per_row<O>(iters: u64, rows: usize, mut f: impl FnMut() -> O) -> Duration {
    let start = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    start.elapsed() / rows as u32
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_dot, bench_l2_sq, bench_dot_many, bench_roofline, bench_traversal, bench_knn, bench_coarse, bench_scan_scoring, bench_softmax, bench_softmax_tile, bench_prefill
}
criterion_main!(benches);
