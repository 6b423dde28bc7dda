//! One attention execution path, pinned three ways: for every plan arm the
//! served path (`Session::attend_query_head`), the matching
//! `SparseAttention` engine over a `HeadContext`, and a naive
//! one-push-per-key reference written against the documented push order
//! must agree bit for bit.

use std::collections::HashSet;

use alayadb::attention::{
    attend, DiprsAttention, FullAttention, HeadContext, HeadView, InfLlm, SparseAttention,
    TopKRetrieval,
};
use alayadb::core::{Db, DbConfig, Session};
use alayadb::index::flat::FlatIndex;
use alayadb::llm::kv::KvCache;
use alayadb::llm::ModelConfig;
use alayadb::query::diprs::{diprs_filtered, DiprsParams};
use alayadb::query::optimizer::Plan;
use alayadb::query::types::{IndexChoice, PrefixFilter, QueryType};
use alayadb::vector::rng::{gaussian_vec, seeded};
use alayadb::vector::softmax::OnlineSoftmax;
use alayadb::vector::VecStore;

/// Stored context length: long enough that the `[8+16]` test window, a
/// 120-token prefix filter and the retrieval sets are all proper subsets.
const N_STORED: usize = 200;
const PREFIX: usize = 120;

/// A seeded stream of per-step vectors: `heads` Gaussian rows per call.
fn random_steps(seed: u64, dim: usize) -> impl FnMut(usize) -> Vec<Vec<f32>> {
    let mut rng = seeded(seed);
    move |heads| {
        (0..heads)
            .map(|_| gaussian_vec(&mut rng, dim, 1.0))
            .collect()
    }
}

/// A DB holding one imported random context, and a session reusing all of
/// it (the prompt's one extra token is what the engine would still prefill).
fn fixture() -> (Db, Session) {
    let cfg = DbConfig::for_tests(ModelConfig::tiny());
    let model = cfg.model.clone();
    let mut step = random_steps(0xA77E, model.head_dim);
    let mut kv = KvCache::new(model.n_layers, model.n_kv_heads, model.head_dim);
    for _ in 0..N_STORED {
        for layer in 0..model.n_layers {
            let (keys, values) = (step(model.n_kv_heads), step(model.n_kv_heads));
            kv.push_token(layer, &keys, &values);
        }
    }
    let tokens: Vec<u32> = (0..N_STORED as u32).collect();
    let db = Db::new(cfg);
    db.import(tokens.clone(), kv);
    let prompt: Vec<u32> = tokens.into_iter().chain([9999]).collect();
    let (session, _) = db.create_session(&prompt);
    assert_eq!(session.reused_len(), N_STORED);
    assert_eq!(session.local_len(), 0);
    (db, session)
}

/// The engines' view of one stored head: its keys and values, its graph
/// when the stored context built one, and the same coarse index (rebuilt —
/// construction is a pure function of the keys and the configuration).
fn head_context(session: &Session, cfg: &DbConfig, layer: usize, kv_head: usize) -> HeadContext {
    let base = session.base().expect("the session reuses a context");
    let kv = base.kv.head(layer, kv_head);
    let mut ctx = HeadContext::new(kv.keys.clone(), kv.values.clone());
    if let Some(graph) = base.graph(layer, kv_head) {
        ctx.set_graph(graph.clone());
    }
    ctx.build_coarse(cfg.coarse_block_size, cfg.coarse_scoring);
    ctx
}

/// The served path's graph-search list size for `plan`.
fn served_l0(cfg: &DbConfig, plan: &Plan) -> usize {
    match plan {
        Plan::Sparse {
            query: QueryType::TopK { k },
            ..
        } => k * 2,
        _ => cfg.optimizer.default_k.max(16),
    }
}

/// The engine the evaluation bins would run for an unfiltered `plan` over
/// `ctx` (without a coarse index an InfLLM "block" is a single token).
fn engine_for(cfg: &DbConfig, plan: &Plan, ctx: &HeadContext) -> Box<dyn SparseAttention> {
    let window = cfg.window;
    let block_size = ctx.coarse.as_ref().map_or(1, |c| c.block_size());
    match *plan {
        Plan::FullAttention { .. } => Box::new(FullAttention),
        Plan::Sparse { query, index, .. } => match (query, index) {
            (QueryType::TopK { k }, IndexChoice::Coarse) => Box::new(InfLlm {
                window,
                n_select_blocks: k.div_ceil(block_size),
                gpu_cache_tokens: 0,
            }),
            (QueryType::TopK { k }, _) => Box::new(TopKRetrieval {
                window,
                k,
                ef: served_l0(cfg, plan),
            }),
            (QueryType::Dipr { beta }, _) => Box::new(DiprsAttention {
                window,
                beta,
                l0: served_l0(cfg, plan),
            }),
        },
    }
}

type Rows<'a> = (&'a VecStore, &'a VecStore);

fn push(acc: &mut OnlineSoftmax, q: &[f32], (keys, values): Rows, id: usize) {
    let scale = 1.0 / (q.len() as f32).sqrt();
    acc.push(keys.dot_row(q, id) * scale, values.row(id));
}

/// The documented semantics, one `dot_row` + one push per key: stored window
/// ids, then every local row, then the retrieved ids not yet attended —
/// retrieval seeded with the running max, restricted to the filter's prefix,
/// and falling back to a flat scan when the plan's index is absent.
fn reference(q: &[f32], head: &HeadView, cfg: &DbConfig, plan: &Plan) -> Vec<f32> {
    let stored = head.stored.expect("the reference reads a stored context");
    let (keys, n_stored) = (stored.0, head.n_stored);
    let n_local = head.local.map_or(0, |(k, _)| k.len());
    let n = n_stored + n_local;
    let mut acc = OnlineSoftmax::new(q.len());
    let push_local = |acc: &mut OnlineSoftmax| {
        if let Some(local) = head.local {
            (0..n_local).for_each(|id| push(acc, q, local, id));
        }
    };
    let Plan::Sparse {
        query,
        index,
        filter,
    } = *plan
    else {
        (0..n_stored).for_each(|id| push(&mut acc, q, stored, id));
        push_local(&mut acc);
        return acc.output();
    };

    let mut attended: HashSet<usize> = HashSet::new();
    for id in cfg.window.token_ids(n).map(|id| id as usize) {
        if id < n_stored {
            push(&mut acc, q, stored, id);
            attended.insert(id);
        }
    }
    push_local(&mut acc);
    let scale = 1.0 / (q.len() as f32).sqrt();
    let seed = (!acc.is_empty()).then(|| acc.max_score() / scale);

    let prefix_len = filter.map_or(n_stored, |f| f.prefix_len);
    let pred = |id: u32| (id as usize) < prefix_len;
    let flat_topk = |k| FlatIndex.search_topk_filtered(keys, q, k, pred);
    let flat_dipr = |beta| FlatIndex.search_dipr_filtered(keys, q, beta, pred);
    let l0 = served_l0(cfg, plan);
    let retrieved: Vec<usize> = match (query, index) {
        (QueryType::TopK { k }, IndexChoice::Coarse) => match head.coarse {
            Some(coarse) => coarse
                .select_tokens(q, k.div_ceil(coarse.block_size()).max(1))
                .into_iter()
                .filter(|&t| pred(t))
                .map(|t| t as usize)
                .collect(),
            None => flat_topk(k).iter().map(|s| s.idx).collect(),
        },
        (QueryType::TopK { k }, IndexChoice::Fine) => match head.graph {
            Some(graph) => graph.search_topk_filtered(keys, q, k, l0, pred),
            None => flat_topk(k),
        }
        .iter()
        .map(|s| s.idx)
        .collect(),
        (QueryType::TopK { k }, IndexChoice::Flat) => flat_topk(k).iter().map(|s| s.idx).collect(),
        (QueryType::Dipr { beta }, IndexChoice::Fine) => match head.graph {
            Some(graph) => {
                let params = DiprsParams {
                    beta,
                    l0,
                    max_visits: usize::MAX,
                };
                diprs_filtered(graph, keys, q, &params, seed, pred).tokens
            }
            None => flat_dipr(beta),
        }
        .iter()
        .map(|s| s.idx)
        .collect(),
        (QueryType::Dipr { beta }, _) => flat_dipr(beta).iter().map(|s| s.idx).collect(),
    };
    for id in retrieved {
        if id < n_stored && attended.insert(id) {
            push(&mut acc, q, stored, id);
        }
    }
    acc.output()
}

fn plans() -> Vec<Plan> {
    let queries = [
        QueryType::TopK { k: 24 },
        QueryType::Dipr { beta: 3.0 },
        // The flat-fallback inputs: k = n and an unbounded β select every
        // token (checked against full attention below).
        QueryType::TopK { k: N_STORED },
        QueryType::Dipr { beta: 1e9 },
    ];
    let indexes = [IndexChoice::Coarse, IndexChoice::Fine, IndexChoice::Flat];
    let mut plans = Vec::new();
    for filter in [None, Some(PrefixFilter { prefix_len: PREFIX })] {
        plans.push(Plan::FullAttention { filter });
        for query in queries {
            for index in indexes {
                plans.push(Plan::Sparse {
                    query,
                    index,
                    filter,
                });
            }
        }
    }
    plans
}

fn assert_bitwise(got: &[f32], want: &[f32], what: &str) {
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
    assert_eq!(bits(got), bits(want), "{what}: {got:?} vs {want:?}");
}

#[test]
fn served_engine_and_reference_agree_on_every_arm() {
    let (db, session) = fixture();
    let cfg = db.config();
    let model = &cfg.model;
    let mut rng = seeded(0xD1FF);
    let mut sparse_outputs = 0;

    // Layer 0 is a flat layer (no graph); deeper layers carry one.
    for layer in 0..model.n_layers {
        for qh in 0..model.n_q_heads {
            let ctx = head_context(&session, cfg, layer, qh / model.gqa_group_size());
            assert_eq!(ctx.graph.is_some(), layer >= cfg.optimizer.flat_layers);
            // The same head with its indexes dropped: every arm must fall
            // back to the flat scan of its query.
            let bare = HeadContext::new(ctx.keys.clone(), ctx.values.clone());
            // Engines always ask for the fine index, so the engine matching
            // a Flat (or DIPR-on-Coarse) plan runs over the graphless head.
            let mut graphless = HeadContext::new(ctx.keys.clone(), ctx.values.clone());
            graphless.build_coarse(cfg.coarse_block_size, cfg.coarse_scoring);
            let q = gaussian_vec(&mut rng, model.head_dim, 1.0);
            let full = FullAttention.attend(&q, &ctx).out;

            for plan in plans() {
                let what = format!("layer {layer} head {qh} {}", plan.explain());
                let unfiltered = matches!(
                    plan,
                    Plan::FullAttention { filter: None } | Plan::Sparse { filter: None, .. }
                );
                for ctx in [&ctx, &bare] {
                    let want = reference(&q, &ctx.view(), cfg, &plan);
                    // Engines carry no attribute filter; filtered arms go
                    // through the entry point the engines call.
                    let got = if unfiltered {
                        let on_graph = matches!(
                            plan,
                            Plan::Sparse {
                                index: IndexChoice::Fine,
                                ..
                            }
                        );
                        let ctx = if on_graph || ctx.graph.is_none() {
                            ctx
                        } else {
                            &graphless
                        };
                        engine_for(cfg, &plan, ctx).attend(&q, ctx).out
                    } else {
                        attend(&q, &ctx.view(), cfg.window, &plan, served_l0(cfg, &plan)).out
                    };
                    assert_bitwise(&got, &want, &format!("engine vs reference, {what}"));
                    if ctx.coarse.is_some() {
                        let served = session.attend_query_head(&q, qh, layer, &plan);
                        assert_bitwise(&served, &want, &format!("served vs reference, {what}"));
                        sparse_outputs += usize::from(served != full);
                    }
                }
            }

            let everything: [Box<dyn SparseAttention>; 2] = [
                Box::new(TopKRetrieval {
                    window: cfg.window,
                    k: N_STORED,
                    ef: N_STORED,
                }),
                Box::new(DiprsAttention {
                    window: cfg.window,
                    beta: 1e9,
                    l0: 16,
                }),
            ];
            for engine in &everything {
                let got = engine.attend(&q, &bare).out;
                for (a, b) in got.iter().zip(&full) {
                    assert!((a - b).abs() < 1e-4, "{} must equal full", engine.name());
                }
            }
        }
    }
    // The fixture must exercise sparsity, not collapse every arm to dense.
    assert!(sparse_outputs > 0);
}

/// With session-local tokens present the window spans the combined
/// sequence, the whole local window is attended between the stored window
/// and the retrieved tokens, and DIPRS is seeded from both.
#[test]
fn local_tokens_match_reference_and_sequential_oracle() {
    let (db, mut session) = fixture();
    let cfg = db.config();
    let model = cfg.model.clone();
    let mut step = random_steps(0x10CA1, model.head_dim);
    let mut queries = Vec::new();
    for _ in 0..5 {
        for layer in 0..model.n_layers {
            queries = step(model.n_q_heads);
            let (mut keys, values) = (step(model.n_kv_heads), step(model.n_kv_heads));
            // Align each local key with its head's first query, so the best
            // inner product lives in the local window and only a DIPRS
            // seeded from it prunes the stored band.
            for (h, key) in keys.iter_mut().enumerate() {
                let q = &queries[h * model.gqa_group_size()];
                *key = q.iter().map(|x| 2.0 * x).collect();
            }
            session.update(&queries, &keys, &values, layer);
        }
    }
    assert_eq!(session.local_len(), 5);

    let layer = model.n_layers - 1;
    let base = session
        .base()
        .expect("the session reuses a context")
        .clone();
    let local_rows = |s: &VecStore| {
        let mut out = VecStore::new(s.dim());
        for i in N_STORED..s.len() {
            out.push(s.row(i));
        }
        out
    };
    for (qh, q) in queries.iter().enumerate() {
        let kv_head = qh / model.gqa_group_size();
        let (keys, values) = session.full_kv(layer, kv_head);
        let (local_keys, local_values) = (local_rows(&keys), local_rows(&values));
        let stored = base.kv.head(layer, kv_head);
        let head = HeadView {
            stored: Some((&stored.keys, &stored.values)),
            n_stored: N_STORED,
            local: Some((&local_keys, &local_values)),
            graph: base.graph(layer, kv_head),
            coarse: Some(base.coarse(layer, kv_head)),
        };
        for plan in plans() {
            let want = reference(q, &head, cfg, &plan);
            let served = session.attend_query_head(q, qh, layer, &plan);
            assert_bitwise(&served, &want, &format!("head {qh} {}", plan.explain()));
        }
    }

    // The optimizer's own plan, through the sequential oracle.
    let plan = session.plan(layer);
    let oracle = session.attention_sequential(&queries, layer);
    for (qh, q) in queries.iter().enumerate() {
        let served = session.attend_query_head(q, qh, layer, &plan);
        assert_bitwise(&served, &oracle[qh], &format!("oracle, head {qh}"));
    }
}
