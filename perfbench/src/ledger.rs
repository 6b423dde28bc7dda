//! The per-layer ledger of a traced run: every layer measured from outside,
//! by timing calls into its public API on recorded step inputs and reading
//! its public counters. A cell whose layer the workload never enters (no
//! stored context ⇒ no graph, no sparse plan) reads 0.

use std::hint::black_box;
use std::time::Instant;

use alaya_device::pool;
use alaya_index::coarse::CoarseIndex;
use alaya_index::flat::FlatIndex;
use alaya_index::roargraph::RoarGraph;
use alaya_index::sharing::sample_rows;
use alaya_query::diprs::{diprs, diprs_filtered, DiprsParams};
use alaya_query::optimizer::{Optimizer, Plan};
use alaya_query::types::{IndexChoice, PrefixFilter, QueryType};
use alaya_serve::TelemetrySnapshot;
use alaya_vector::softmax::OnlineSoftmax;

use crate::check::Replay;
use crate::metrics::Values;
use crate::stats::{mean, percentile, percentile_of, tail_level};
use crate::trace::{accounted_ratios, self_times_ns, Kind, Tracer};
use crate::workload::World;

/// Probe queries per layer taken from the end of the recorded decode.
const PROBES: usize = 16;

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Microseconds of one call.
fn time_us<T>(f: impl FnOnce() -> T) -> f64 {
    let t = Instant::now();
    black_box(f());
    t.elapsed().as_secs_f64() * 1e6
}

fn p50(mut samples: Vec<f64>) -> f64 {
    percentile_of(&mut samples, 0.5)
}

/// Cells read off the traced phase's spans and the engine's counters.
/// `before`/`after` bracket the traced phase.
pub fn serve_cells(
    out: &mut Values,
    tracers: &[Tracer],
    before: &TelemetrySnapshot,
    after: &TelemetrySnapshot,
) {
    let by_kind = |kind: Kind| -> Vec<f64> {
        let mut v: Vec<f64> = tracers
            .iter()
            .flat_map(|t| t.spans())
            .filter(|s| s.kind == kind)
            .map(|s| us(s.dur_ns()))
            .collect();
        v.sort_unstable_by(f64::total_cmp);
        v
    };
    let attend = by_kind(Kind::Attend);
    out.insert("serve.attend_us_p50", percentile(&attend, 0.5));
    out.insert(
        "serve.attend_us_p99",
        percentile(&attend, tail_level(attend.len())),
    );
    out.insert("serve.admit_us_p50", percentile(&by_kind(Kind::Admit), 0.5));
    out.insert("serve.close_us_p50", percentile(&by_kind(Kind::Close), 0.5));
    out.insert(
        "serve.store_ms_p50",
        percentile(&by_kind(Kind::Store), 0.5) / 1e3,
    );

    let mut forward_self = Vec::new();
    let mut accounted = Vec::new();
    let (mut requests, mut spans) = (0usize, 0usize);
    for t in tracers {
        let own = self_times_ns(t.spans());
        for (s, own) in t.spans().iter().zip(own) {
            match s.kind {
                Kind::Forward => forward_self.push(us(own)),
                Kind::Request => requests += 1,
                _ => {}
            }
        }
        spans += t.spans().len();
        accounted.extend(accounted_ratios(t.spans()));
    }
    out.insert("llm.forward_self_us_p50", p50(forward_self));
    out.insert("trace.accounted_ratio", p50(accounted));
    out.insert("trace.requests", requests as f64);
    out.insert("trace.spans", spans as f64);

    let stages = &after.stages;
    out.insert("serve.queue_us_p50", stages.queue.p50.as_secs_f64() * 1e6);
    out.insert("serve.plan_us_p50", stages.plan.p50.as_secs_f64() * 1e6);
    out.insert("serve.exec_us_p50", stages.exec.p50.as_secs_f64() * 1e6);
    let requests = (after.stats.requests - before.stats.requests) as f64;
    let batches = (after.stats.batches - before.stats.batches) as f64;
    let shared = (after.stats.shared_plan_requests - before.stats.shared_plan_requests) as f64;
    out.insert("serve.batch_size_mean", requests / batches.max(1.0));
    out.insert("serve.shared_plan_ratio", shared / requests.max(1.0));
    out.insert("serve.shed", after.stats.shed_deadline as f64);
    out.insert("serve.rejected", after.stats.rejected_overload as f64);

    // Service tax: the share of an `attend` call that is not pool execution
    // (enqueue, batching, planning, reply, update). Each batch member is
    // charged the whole batch's exec time — the time it really waited.
    let exec_sum_us =
        |t: &TelemetrySnapshot| t.stages.exec.mean.as_secs_f64() * 1e6 * t.stages.exec.count as f64;
    let exec_us = exec_sum_us(after) - exec_sum_us(before);
    let attend_us: f64 = attend.iter().sum();
    out.insert(
        "serve.service_tax",
        (1.0 - exec_us / attend_us.max(1e-9)).clamp(0.0, 1.0),
    );
}

/// Cells replayed single-threaded on one recorded request's final state.
pub fn replay_cells(out: &mut Values, world: &World, replay: &mut Replay) {
    let db = &world.db;
    let cfg = db.config();
    let model = &cfg.model;
    let group = model.gqa_group_size();
    let beta = cfg.optimizer.default_beta;
    let k = cfg.optimizer.default_k;
    let session = &replay.session;

    // probes[layer] = query tensors of the last recorded steps at `layer`.
    let mut probes: Vec<Vec<&Vec<Vec<f32>>>> = vec![Vec::new(); model.n_layers];
    for step in replay.done.steps.iter().rev() {
        if probes[step.layer].len() < PROBES {
            probes[step.layer].push(&step.input.queries);
        }
    }

    // --- core: Session::attend_query_head under an explicit plan.
    let attend_p50 = |plan: &Plan, layers: std::ops::Range<usize>| -> f64 {
        let mut samples = Vec::new();
        for layer in layers {
            for queries in &probes[layer] {
                for (qh, q) in queries.iter().enumerate() {
                    samples.push(time_us(|| session.attend_query_head(q, qh, layer, plan)));
                }
            }
        }
        p50(samples)
    };
    let sparse = |query, index, filter| Plan::Sparse {
        query,
        index,
        filter,
    };
    let dipr = QueryType::Dipr { beta };
    let n_layers = model.n_layers;
    out.insert(
        "core.attend_full_us_p50",
        attend_p50(&Plan::FullAttention { filter: None }, 0..n_layers),
    );
    let base = session.base().cloned();
    let branch = PrefixFilter {
        prefix_len: session.reused_len() * 60 / 100,
    };
    let sparse_cells = [
        (
            "core.attend_dipr_flat_us_p50",
            sparse(dipr, IndexChoice::Flat, None),
            0..1,
        ),
        (
            "core.attend_dipr_fine_us_p50",
            sparse(dipr, IndexChoice::Fine, None),
            1..n_layers,
        ),
        (
            "core.attend_topk_coarse_us_p50",
            sparse(QueryType::TopK { k }, IndexChoice::Coarse, None),
            0..n_layers,
        ),
        (
            "core.attend_filtered_us_p50",
            sparse(dipr, IndexChoice::Fine, Some(branch)),
            1..n_layers,
        ),
    ];
    for (name, plan, layers) in sparse_cells {
        let v = if base.is_some() {
            attend_p50(&plan, layers)
        } else {
            0.0
        };
        out.insert(name, v);
    }

    // --- query: DIPRS on the stored graphs vs the exact flat DIPR.
    let params = DiprsParams {
        beta,
        l0: k.max(16),
        max_visits: usize::MAX,
    };
    let (mut t_plain, mut t_filtered) = (Vec::new(), Vec::new());
    let (mut visited, mut appended, mut kept, mut recall) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    if let Some(base) = &base {
        let cut = (base.len() * 60 / 100) as u32;
        for (layer, layer_probes) in probes.iter().enumerate().skip(1) {
            for queries in layer_probes {
                for (qh, q) in queries.iter().enumerate() {
                    let Some(graph) = base.graph(layer, qh / group) else {
                        continue;
                    };
                    let keys = &base.kv.head(layer, qh / group).keys;
                    let t = Instant::now();
                    let got = diprs(graph, keys, q, &params, None);
                    t_plain.push(t.elapsed().as_secs_f64() * 1e6);
                    t_filtered.push(time_us(|| {
                        diprs_filtered(graph, keys, q, &params, None, |id| id < cut)
                    }));
                    let exact = FlatIndex.search_dipr(keys, q, beta);
                    let hit = exact
                        .iter()
                        .filter(|e| got.tokens.iter().any(|g| g.idx == e.idx))
                        .count();
                    visited.push(got.visited as f64);
                    appended.push(got.appended as f64);
                    kept.push(got.tokens.len() as f64);
                    recall.push(hit as f64 / exact.len().max(1) as f64);
                }
            }
        }
    }
    out.insert("query.diprs_us_p50", p50(t_plain));
    out.insert("query.diprs_filtered_us_p50", p50(t_filtered));
    out.insert("query.diprs_visited_mean", mean(&visited));
    out.insert("query.diprs_appended_mean", mean(&appended));
    out.insert("query.dipr_size_mean", mean(&kept));
    out.insert("query.diprs_recall", mean(&recall));

    let optimizer = Optimizer::new(cfg.optimizer.clone());
    let spec = session.query_spec(n_layers - 1);
    let plan_ns = (0..100)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..1000 {
                black_box(optimizer.plan(black_box(&spec), db.gpu()));
            }
            t.elapsed().as_secs_f64() * 1e9 / 1000.0
        })
        .collect();
    out.insert("query.plan_ns_p50", p50(plan_ns));

    // --- index and vector: on the full (stored + local) keys of one head,
    // so the cells exist on every workload.
    let last = n_layers - 1;
    let (keys0, _) = session.full_kv(0, 0);
    let (keys, values) = session.full_kv(last, 0);
    let n = keys.len();
    let ktok = n as f64 / 1e3;
    out.insert(
        "index.flat_dipr_us_p50",
        p50(probes[0]
            .iter()
            .map(|qs| time_us(|| FlatIndex.search_dipr(&keys0, &qs[0], beta)))
            .collect()),
    );
    let mut coarse_builds = Vec::new();
    let mut coarse = None;
    for _ in 0..5 {
        coarse_builds.push(time_us(|| {
            coarse = Some(CoarseIndex::build(
                &keys,
                cfg.coarse_block_size,
                cfg.coarse_scoring,
            ))
        }));
    }
    let coarse = coarse.expect("built above");
    out.insert(
        "index.coarse_build_ms_per_ktok",
        p50(coarse_builds) / 1e3 / ktok,
    );
    let blocks = k.div_ceil(coarse.block_size()).max(1);
    out.insert(
        "index.coarse_select_us_p50",
        p50(probes[last]
            .iter()
            .map(|qs| time_us(|| coarse.select_tokens(&qs[0], blocks)))
            .collect()),
    );
    let train = sample_rows(&keys, (n / 2).max(1));
    let mut graph_builds = Vec::new();
    let mut graph_bytes = 0;
    for _ in 0..3 {
        graph_builds.push(time_us(|| {
            graph_bytes = RoarGraph::build(&keys, &train, cfg.index_params).bytes();
        }));
    }
    out.insert(
        "index.graph_build_ms_per_ktok",
        p50(graph_builds) / 1e3 / ktok,
    );
    out.insert("index.graph_bytes_per_token", graph_bytes as f64 / n as f64);

    // Bytes moved are computed from tensor sizes (rows x dim x 4), not
    // measured.
    const INNER: usize = 16;
    let q = &probes[last][0][0];
    let dim = keys.dim();
    let mut scores = vec![0.0f32; n];
    let block_bytes = (n * dim * 4 * INNER) as f64;
    let gbps = |bytes: f64, us: f64| bytes / (us * 1e-6) / 1e9;
    out.insert(
        "vector.dot_block_gbps",
        gbps(
            block_bytes,
            p50((0..200)
                .map(|_| {
                    time_us(|| {
                        for _ in 0..INNER {
                            keys.dot_block(black_box(q), 0, &mut scores);
                        }
                        scores[0]
                    })
                })
                .collect()),
        ),
    );
    let ids: Vec<u32> = (0..128).map(|i| (i * 37 % n) as u32).collect();
    let mut id_scores = vec![0.0f32; ids.len()];
    out.insert(
        "vector.dot_ids_gbps",
        gbps(
            (ids.len() * dim * 4 * INNER) as f64,
            p50((0..200)
                .map(|_| {
                    time_us(|| {
                        for _ in 0..INNER {
                            keys.dot_ids(black_box(q), &ids, &mut id_scores);
                        }
                        id_scores[0]
                    })
                })
                .collect()),
        ),
    );
    let scale = 1.0 / (dim as f32).sqrt();
    out.insert(
        "vector.softmax_push_ns",
        p50((0..200)
            .map(|_| {
                time_us(|| {
                    let mut acc = OnlineSoftmax::new(dim);
                    for (i, &s) in scores.iter().enumerate() {
                        acc.push(s * scale, values.row(i));
                    }
                    acc.sum()
                }) * 1e3
                    / n as f64
            })
            .collect()),
    );

    // --- device.
    let pool = pool::global();
    let tasks = pool.threads().max(1);
    out.insert(
        "device.pool_map_overhead_us",
        p50((0..300)
            .map(|_| time_us(|| pool.map(tasks, |i| i)))
            .collect()),
    );
    let executed = pool.stats().tasks_executed().max(1) as f64;
    out.insert(
        "device.pool_stolen_ratio",
        pool.stats().tasks_stolen() as f64 / executed,
    );
    out.insert("device.gpu_peak_bytes", world.admission.peak() as f64);

    // --- core: prefix matching and store. Stores come last: they add
    // contexts to the table everything above was measured against.
    out.insert(
        "core.create_session_us_p50",
        p50((0..50)
            .map(|_| time_us(|| db.create_session(&replay.prompt)))
            .collect()),
    );
    out.insert("core.n_contexts", db.n_contexts() as f64);
    replay.session.note_tokens(&replay.done.truncated);
    replay.session.note_tokens(&replay.done.output);
    let store_ms: Vec<f64> = (0..3)
        .map(|_| time_us(|| db.store(&replay.session)) / 1e3)
        .collect();
    let store_ms = p50(store_ms);
    out.insert("core.store_ms_p50", store_ms);
    out.insert(
        "core.store_tokens_per_s",
        replay.session.total_len() as f64 / (store_ms / 1e3),
    );
}
