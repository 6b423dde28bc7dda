//! Figure 9: generation quality vs GPU memory consumption under SLO
//! guarantees (En.MC and En.QA).
//!
//! InfLLM and StreamingLLM trade memory for quality (their caches are the
//! knob); Top-100 and DIPRS sit at fixed, minimal memory. The memory axis
//! is weights + method-resident KV at paper scale (Llama-3-8B bf16,
//! 131072 B/token), from the engines' own accounting.
//!
//! Run: `cargo run --release -p alaya-bench --bin fig9_quality_memory [--full]`

use alaya_attention::{
    DiprsAttention, InfLlm, SparseAttention, StreamingLlm, TopKRetrieval, WindowSpec,
};
use alaya_bench::{fmt_bytes, print_header, print_row, write_json, Scale};
use alaya_device::cost::ModelShape;
use alaya_workloads::{evaluate_engines, Task, TaskKind};
use serde::Serialize;

#[derive(Serialize)]
struct MemPoint {
    task: String,
    method: String,
    gpu_bytes: u64,
    accuracy: f64,
}

fn main() {
    let scale = Scale::from_args();
    let ctx = scale.pick(3000usize, 12_000);
    let dim = 32usize;
    let instances = scale.pick(12usize, 40);
    let sqrt_d = (dim as f32).sqrt();
    let shape = ModelShape::llama3_8b();
    let kv_per_token = shape.kv_bytes_per_token();
    let weights = shape.weights_bytes();
    let paper_ctx = 129_000usize;

    // The sweep: cached-token budgets for the coarse/window methods,
    // expressed as fractions of the (scaled) context. Paper sweeps the
    // number of cached tokens between ~1K and ~50K.
    let cache_fracs = [0.02f64, 0.05, 0.12, 0.25, 0.5];

    let mut points = Vec::new();
    for kind in [TaskKind::EnMc, TaskKind::EnQa] {
        let task = Task::new(kind, ctx, dim);
        println!("\nFigure 9 ({}): quality vs GPU memory\n", kind.name());
        let header = ["method", "cache", "GPU memory", "accuracy"];
        let widths = [22usize, 8, 11, 9];
        print_header(&header, &widths);

        // InfLLM / StreamingLLM sweeps.
        for &frac in &cache_fracs {
            let cached = (ctx as f64 * frac) as usize;
            let infllm = InfLlm {
                window: WindowSpec::new(16, 64),
                n_select_blocks: (cached / 64).max(1),
                gpu_cache_tokens: cached,
            };
            let stream = StreamingLlm {
                window: WindowSpec::new(16, cached.max(16)),
            };
            let scores = evaluate_engines(
                &[&infllm as &dyn SparseAttention, &stream],
                &task,
                instances,
                0xF19,
            );

            // Memory at paper scale: same *fractions* of the paper context.
            let paper_cached = (paper_ctx as f64 * frac) as usize;
            let infllm_mem = weights
                + InfLlm {
                    window: WindowSpec::new(128, 512),
                    n_select_blocks: 1,
                    gpu_cache_tokens: paper_cached,
                }
                .gpu_bytes(paper_ctx, kv_per_token);
            let stream_mem = weights
                + StreamingLlm {
                    window: WindowSpec::new(128, paper_cached.max(128)),
                }
                .gpu_bytes(paper_ctx, kv_per_token);

            for (s, mem) in scores.iter().zip([infllm_mem, stream_mem]) {
                print_row(
                    &[
                        s.engine.clone(),
                        format!("{:.0}%", frac * 100.0),
                        fmt_bytes(mem),
                        format!("{:.1}", s.accuracy),
                    ],
                    &widths,
                );
                points.push(MemPoint {
                    task: kind.name().into(),
                    method: s.engine.clone(),
                    gpu_bytes: mem,
                    accuracy: s.accuracy,
                });
            }
        }

        // Fixed-memory methods: Top-100 and DIPRS (window-only residency).
        let top100 = TopKRetrieval {
            window: WindowSpec::new(16, 64),
            k: 100,
            ef: 200,
        };
        let diprs = DiprsAttention {
            window: WindowSpec::new(16, 64),
            beta: 4.0 * sqrt_d,
            l0: 64,
        };
        let scores = evaluate_engines(
            &[&top100 as &dyn SparseAttention, &diprs],
            &task,
            instances,
            0xF19,
        );
        let fixed_mem = weights
            + TopKRetrieval {
                window: WindowSpec::new(128, 512),
                k: 100,
                ef: 200,
            }
            .gpu_bytes(paper_ctx, kv_per_token);
        for s in &scores {
            print_row(
                &[
                    s.engine.clone(),
                    "-".into(),
                    fmt_bytes(fixed_mem),
                    format!("{:.1}", s.accuracy),
                ],
                &widths,
            );
            points.push(MemPoint {
                task: kind.name().into(),
                method: s.engine.clone(),
                gpu_bytes: fixed_mem,
                accuracy: s.accuracy,
            });
        }
    }

    // Headline: DIPRS should dominate the Pareto front (lowest memory,
    // top-tier accuracy).
    for kind in ["En.MC", "En.QA"] {
        let dipr = points
            .iter()
            .filter(|p| p.task == kind && p.method.starts_with("DIPRS"))
            .map(|p| (p.gpu_bytes, p.accuracy))
            .next();
        if let Some((mem, acc)) = dipr {
            println!(
                "{kind}: DIPRS at {} reaches {acc:.1} — coarse methods need multiples of that memory for parity",
                fmt_bytes(mem)
            );
        }
    }
    write_json("fig9_quality_memory", &points);
}
