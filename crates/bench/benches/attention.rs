//! Attention-engine microbenchmarks: per-query latency of every method
//! from Table 5 over one head's context.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use alaya_attention::{
    DiprsAttention, FullAttention, HeadContext, InfLlm, SparseAttention, StreamingLlm,
    TopKRetrieval, WindowSpec,
};
use alaya_index::coarse::BlockScoring;
use alaya_index::roargraph::RoarGraphParams;
use alaya_vector::rng::{gaussian_store, gaussian_vec, seeded};

fn context(n: usize, dim: usize) -> (HeadContext, Vec<f32>) {
    let mut rng = seeded(9);
    let keys = gaussian_store(&mut rng, n, dim, 1.0);
    let values = gaussian_store(&mut rng, n, dim, 1.0);
    let train = gaussian_store(&mut rng, n / 3, dim, 1.0);
    let q = gaussian_vec(&mut rng, dim, 1.0);
    let mut ctx = HeadContext::new(keys, values);
    ctx.build_graph(&train, RoarGraphParams::default());
    ctx.build_coarse(64, BlockScoring::Representatives { reps: 4 });
    (ctx, q)
}

fn bench_engines(c: &mut Criterion) {
    let n = 16_000;
    let dim = 32;
    let (ctx, q) = context(n, dim);
    let w = WindowSpec::new(64, 256);
    let sqrt_d = (dim as f32).sqrt();

    let engines: Vec<(&str, Box<dyn SparseAttention>)> = vec![
        ("full", Box::new(FullAttention)),
        ("streaming", Box::new(StreamingLlm { window: w })),
        (
            "infllm",
            Box::new(InfLlm {
                window: w,
                n_select_blocks: 8,
                gpu_cache_tokens: 4096,
            }),
        ),
        (
            "top100",
            Box::new(TopKRetrieval {
                window: w,
                k: 100,
                ef: 200,
            }),
        ),
        (
            "diprs",
            Box::new(DiprsAttention {
                window: w,
                beta: 2.0 * sqrt_d,
                l0: 64,
            }),
        ),
    ];

    let mut group = c.benchmark_group("engine_attend_16k");
    for (name, engine) in &engines {
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| engine.attend(std::hint::black_box(&q), &ctx))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_engines
}
criterion_main!(benches);
