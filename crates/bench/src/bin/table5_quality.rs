//! Table 5: generation quality of sparse attention methods on the
//! ∞-Bench-analogue suite, with SLO compliance.
//!
//! Methods and settings mirror the paper (window sizes rescaled to the
//! reduced context length; retrieval budgets kept absolute where the paper
//! keeps them absolute): Full Attention, InfLLM, StreamingLLM, Top-100,
//! Top-2000, DIPRS. Quality is the synthetic-task accuracy (see
//! `alaya-workloads`); the SLO column is the paper-scale TPOT model of
//! `alaya_bench::latency` evaluated with each method's structure.
//!
//! Run: `cargo run --release -p alaya-bench --bin table5_quality [--full]`

use alaya_attention::{
    DiprsAttention, FullAttention, InfLlm, SparseAttention, StreamingLlm, TopKRetrieval, WindowSpec,
};
use alaya_bench::{
    fmt_secs, modeled_tpot, paper_cost_model, print_header, print_row, write_json, Scale,
    TpotInputs,
};
use alaya_device::slo::Slo;
use alaya_workloads::{evaluate_engines, Task, TaskKind};
use serde::Serialize;

#[derive(Serialize)]
struct MethodRow {
    method: String,
    setting: String,
    slo_ok: bool,
    tpot_modeled_s: f64,
    scores: Vec<(String, f64)>,
    average: f64,
    mean_cpu_latency_s: f64,
}

fn main() {
    let scale = Scale::from_args();
    let ctx = scale.pick(3000usize, 16_000);
    let dim = 32usize;
    let instances = scale.pick(12usize, 40);
    let sqrt_d = (dim as f32).sqrt();

    // Window fractions follow the paper's fractions of its ~129K average
    // context; retrieval budgets stay absolute like the paper's.
    let w_small = WindowSpec::new(16, 64); // paper [128+512]
    let w_infllm = WindowSpec::new(16, 128); // paper [128+4K]
    let w_stream = WindowSpec::new(16, 256); // paper [128]+8K

    let infllm = InfLlm {
        window: w_infllm,
        n_select_blocks: 2,
        gpu_cache_tokens: ctx / 4,
    };
    let streaming = StreamingLlm { window: w_stream };
    let top100 = TopKRetrieval {
        window: w_small,
        k: 100,
        ef: 200,
    };
    let top2000 = TopKRetrieval {
        window: w_small,
        k: 2000,
        ef: 2400,
    };
    let diprs = DiprsAttention {
        window: w_small,
        beta: 4.0 * sqrt_d,
        l0: 128,
    };

    let engines: Vec<(&dyn SparseAttention, &str)> = vec![
        (&FullAttention, "full context"),
        (&infllm, "[128+4K]+4K tokens"),
        (&streaming, "[128]+8K tokens"),
        (&top100, "[128+512]+100 tokens"),
        (&top2000, "[128+512]+2K tokens"),
        (&diprs, "[128+512] tokens, beta=50"),
    ];
    let engine_refs: Vec<&dyn SparseAttention> = engines.iter().map(|(e, _)| *e).collect();

    let tasks: Vec<Task> = TaskKind::infinite_bench()
        .iter()
        .map(|&k| Task::new(k, ctx, dim))
        .collect();

    // Evaluate everything.
    let mut per_engine: Vec<Vec<alaya_workloads::EngineScore>> = vec![Vec::new(); engines.len()];
    for task in &tasks {
        eprintln!("[task {} ...]", task.kind.name());
        let scores = evaluate_engines(&engine_refs, task, instances, 0xA11A);
        for (e, s) in scores.into_iter().enumerate() {
            per_engine[e].push(s);
        }
    }

    // Paper-scale SLO modeling per method (structure → TPOT).
    let cost = paper_cost_model();
    let slo = Slo::reading_speed();
    // SLO compliance must hold on every task; the longest ∞-Bench task
    // averages 192.6K tokens, so that is the context that full attention
    // has to survive.
    let paper_ctx = 192_600usize;
    let tpot_inputs = |name: &str, mean_retrieved: f64| -> TpotInputs {
        match name {
            n if n.starts_with("Full") => TpotInputs {
                gpu_tokens: paper_ctx,
                cpu_scored_per_head: 0,
                cpu_attended_per_head: 0,
            },
            n if n.starts_with("InfLLM") => TpotInputs {
                gpu_tokens: 128 + 4096 + 4096,
                cpu_scored_per_head: 0,
                cpu_attended_per_head: 0,
            },
            n if n.starts_with("StreamingLLM") => TpotInputs {
                gpu_tokens: 128 + 8192,
                cpu_scored_per_head: 0,
                cpu_attended_per_head: 0,
            },
            n if n.starts_with("Top") => {
                let k: usize = n.trim_start_matches("Top").parse().unwrap_or(100);
                TpotInputs {
                    gpu_tokens: 640,
                    // Graph search scores ~10 nodes per returned token.
                    cpu_scored_per_head: k * 10,
                    cpu_attended_per_head: k,
                }
            }
            _ => {
                // DIPRS: retrieved count is dynamic; use the measured mean.
                let k = mean_retrieved.max(0.0) as usize;
                TpotInputs {
                    gpu_tokens: 640,
                    cpu_scored_per_head: k * 10,
                    cpu_attended_per_head: k,
                }
            }
        }
    };

    // Print the table.
    let task_names: Vec<&str> = tasks.iter().map(|t| t.kind.name()).collect();
    let mut header = vec!["Method", "Setting", "SLO"];
    header.extend(task_names.iter());
    header.push("Avg.");
    let widths: Vec<usize> = header
        .iter()
        .enumerate()
        .map(|(i, h)| h.len().max(if i < 2 { 24 } else { 7 }))
        .collect();
    println!("\nTable 5: generation quality on the InfiniteBench-analogue suite (ctx={ctx}, {instances} instances/task)\n");
    print_header(&header, &widths);

    let mut rows = Vec::new();
    for (e, (engine, setting)) in engines.iter().enumerate() {
        let scores = &per_engine[e];
        let avg: f64 = scores.iter().map(|s| s.accuracy).sum::<f64>() / scores.len() as f64;
        let mean_retrieved = scores
            .iter()
            .map(|s| s.mean_attended - diprs.window.len(ctx) as f64)
            .sum::<f64>()
            / scores.len() as f64;
        let tpot = modeled_tpot(&tpot_inputs(&engine.name(), mean_retrieved), &cost);
        let ok = slo.check(0.0, tpot).satisfied();

        let mut cells = vec![engine.name(), setting.to_string(), slo_marker(ok)];
        for s in scores {
            cells.push(format!("{:.1}", s.accuracy));
        }
        cells.push(format!("{avg:.1}"));
        print_row(&cells, &widths);

        rows.push(MethodRow {
            method: engine.name(),
            setting: setting.to_string(),
            slo_ok: ok,
            tpot_modeled_s: tpot,
            scores: scores
                .iter()
                .map(|s| (s.task.clone(), s.accuracy))
                .collect(),
            average: avg,
            mean_cpu_latency_s: scores.iter().map(|s| s.mean_latency_s).sum::<f64>()
                / scores.len() as f64,
        });
    }

    println!(
        "\nSLO: modeled TPOT at paper scale (L20, Llama-3-8B, worst task ~192.6K ctx) <= 0.24s"
    );
    for r in &rows {
        println!("  {:<24} TPOT ~ {}", r.method, fmt_secs(r.tpot_modeled_s));
    }
    write_json("table5_quality", &rows);
}

fn slo_marker(ok: bool) -> String {
    if ok {
        "yes".into()
    } else {
        "NO".into()
    }
}
