//! Sessions: the per-request connection between stored contexts and a
//! running inference (Table 2).
//!
//! A session pairs a (possibly partially) reused stored context with a
//! session-local KV window. `update` appends each step's keys/values to the
//! local window — never to the stored index (late materialization, §7.2) —
//! and records query-vector samples so a later `DB.store` can train fine
//! indexes from the true decode distribution. `attention` asks the query
//! optimizer for a plan and hands each query head, as a borrowed
//! [`HeadView`], to the shared executor ([`alaya_attention::attend`]) — the
//! same code the evaluation engines run.
//!
//! What execution reads of a session is a [`SessionView`]: the stored
//! context and the local window behind `Arc`s, plus the executor's
//! parameters. Cloning one is a snapshot — two reference-count bumps — so a
//! scheduler can take it under the session's lock and execute after
//! releasing it; `update` writes through [`Arc::make_mut`], which copies the
//! local window only while such a snapshot is still alive. [`execute`] is
//! the one fan-out over the pool, for a session's own calls and for a
//! served request alike.

use std::sync::Arc;

use alaya_attention::{attend, rows_read, HeadView, WindowSpec};
use alaya_device::pool::{self, WorkStealingPool};
use alaya_llm::backend::{AttentionBackend, StepInput};
use alaya_llm::kv::KvCache;
use alaya_query::optimizer::{Optimizer, Plan, QuerySpec};
use alaya_query::types::QueryType;
use alaya_vector::VecStore;

use crate::config::DbConfig;
use crate::stored::{QueryReservoir, StoredContext};

/// A running inference session (the paper's `Session` abstraction).
/// `Clone` is what [`Db::store`](crate::Db::store) needs of it without a
/// lock: two `Arc` bumps for the stored prefix and the local window, and
/// copies of the tokens, query samples and plan log.
#[derive(Clone)]
pub struct Session {
    cfg: DbConfig,
    optimizer: Optimizer,
    view: SessionView,
    tokens: Vec<u32>,
    queries: QueryReservoir,
    /// Plans chosen so far, newest last (diagnostics / EXPLAIN).
    plan_log: Vec<Plan>,
}

/// Everything executing attention reads of a session: the reused stored
/// prefix, the session-local KV window, the cached-window shape, the
/// default graph-search list size and the GQA group. `Clone` is a snapshot
/// (module docs).
#[derive(Clone)]
pub struct SessionView {
    base: Option<Arc<StoredContext>>,
    reused_len: usize,
    local: Arc<KvCache>,
    window: WindowSpec,
    /// Graph-search list size of non-top-k plans. No setting of its own:
    /// it is top-k's `k` reused, `OptimizerConfig::default_k` floored at 16.
    l0: usize,
    gqa_group: usize,
}

impl SessionView {
    /// Tokens a call at `layer` attends: reused prefix + local window.
    fn seq_len(&self, layer: usize) -> usize {
        self.reused_len + self.local.seq_len(layer)
    }

    /// A borrowed view of `(layer, kv_head)`: the reused stored prefix, the
    /// local window and the stored context's indexes.
    fn head_view(&self, layer: usize, kv_head: usize) -> HeadView<'_> {
        let base = self.base.as_deref();
        let stored = base.map(|b| b.kv.head(layer, kv_head));
        let local = self.local.head(layer, kv_head);
        HeadView {
            stored: stored.map(|kv| (&kv.keys, &kv.values)),
            n_stored: self.reused_len,
            local: Some((&local.keys, &local.values)),
            graph: base.and_then(|b| b.graph(layer, kv_head)),
            coarse: base.map(|b| b.coarse(layer, kv_head)),
        }
    }

    /// One query head's attention under `plan`: the shared executor over
    /// its head's view.
    fn attend_query_head(&self, q: &[f32], qh: usize, layer: usize, plan: &Plan) -> Vec<f32> {
        let view = self.head_view(layer, qh / self.gqa_group);
        // Graph-search list size: a 2k beam for top-k, otherwise `l0`,
        // which is the optimizer's default k (at least 16), not a DIPRS
        // setting of its own.
        let l0 = match plan {
            Plan::Sparse {
                query: QueryType::TopK { k },
                ..
            } => k * 2,
            _ => self.l0,
        };
        attend(q, &view, self.window, plan, l0).out
    }

    /// Every query head of `queries`, in order, on the calling thread.
    fn attend_all(&self, queries: &[Vec<f32>], layer: usize, plan: &Plan) -> Vec<Vec<f32>> {
        queries
            .iter()
            .enumerate()
            .map(|(qh, q)| self.attend_query_head(q, qh, layer, plan))
            .collect()
    }
}

/// One attention call for [`execute`]: every query head of `queries` at
/// `layer` under `plan`, over `view`.
pub struct AttentionJob<'a> {
    /// The session state to attend over (a live session's or a snapshot).
    pub view: &'a SessionView,
    /// One query per query head.
    pub queries: &'a [Vec<f32>],
    /// The layer attended.
    pub layer: usize,
    /// The plan every head executes.
    pub plan: &'a Plan,
}

/// Rows ([`rows_read`]) a head must read before it gets its own pool task.
/// Below it a head is a few microseconds of work, and dispatch costs more
/// than it saves. A TopK-on-Coarse head of perfbench's `long_coarse` reads
/// ~300 rows in ~4 µs. On a 2-vCPU host already busy with two clients,
/// running its 8 heads as one task instead of 8 (with the coarse index's
/// table scan) took `serve.exec_us_p50` from 88 to 46 µs. A DIPR head over
/// the same 2048 tokens costs 17–20 µs and splits when the call's share of
/// the pool is above 1.
const PARALLEL_MIN_ROWS: usize = 512;

/// Runs `job` on `pool` and returns its per-head outputs, in head order.
/// `share` is the number of pool workers the call may occupy. A share of 1
/// runs every head on the calling thread, whatever the heads read. Above
/// 1, a job whose plan reads fewer than `PARALLEL_MIN_ROWS` rows per head
/// runs on the calling thread too, and a larger one is one pool task per
/// head, which the caller helps run until they are done. Rows are the
/// executor's [`rows_read`], not the context length: a TopK-on-Coarse head
/// reads its block summaries, retrieved blocks and windows, and any other
/// plan its whole sequence. Its callers are [`Session::attention`], whose
/// share is the whole pool, and the serving engine, whose requesting
/// threads each run their own request's job here with the workers the
/// other live sessions leave them. Every head is one independent
/// [`attend`] call writing its own slot, so the outputs are bitwise those
/// of [`Session::attention_sequential`] for any share, worker count or
/// steal order.
pub fn execute(pool: &WorkStealingPool, share: usize, job: AttentionJob<'_>) -> Vec<Vec<f32>> {
    let AttentionJob {
        view,
        queries,
        layer,
        plan,
    } = job;
    // Heads of one job share a plan and a sequence, so the first one's
    // rows stand for all of them.
    let per_head = rows_read(&view.head_view(layer, 0), view.window, plan) >= PARALLEL_MIN_ROWS;
    if share <= 1 || !per_head || queries.len() <= 1 {
        return view.attend_all(queries, layer, plan);
    }
    let mut out = vec![Vec::new(); queries.len()];
    // Each task is spawned as it is built and captures the job's fields,
    // not `&job`: collecting boxed tasks first, or reading through `&job`
    // inside the task, measured 5–10 % slower TPOT on `long_coarse` and
    // `long_dipr`.
    pool.scope(|s| {
        for ((qh, slot), q) in out.iter_mut().enumerate().zip(queries) {
            s.spawn(move || *slot = view.attend_query_head(q, qh, layer, plan));
        }
    });
    out
}

impl Session {
    pub(crate) fn new(cfg: DbConfig, base: Option<Arc<StoredContext>>, reused_len: usize) -> Self {
        let model = &cfg.model;
        let local = KvCache::new(model.n_layers, model.n_kv_heads, model.head_dim);
        let tokens = base
            .as_ref()
            .map(|b| b.tokens[..reused_len].to_vec())
            .unwrap_or_default();
        let queries = QueryReservoir::new(
            model.n_layers,
            model.n_q_heads,
            model.head_dim,
            cfg.max_query_samples,
        );
        let optimizer = Optimizer::new(cfg.optimizer.clone());
        let view = SessionView {
            base,
            reused_len,
            local: Arc::new(local),
            window: cfg.window,
            l0: cfg.optimizer.default_k.max(16),
            gqa_group: model.gqa_group_size(),
        };
        Self {
            cfg,
            optimizer,
            view,
            tokens,
            queries,
            plan_log: Vec::new(),
        }
    }

    /// The reused stored context, if any.
    pub fn base(&self) -> Option<&Arc<StoredContext>> {
        self.view.base.as_ref()
    }

    /// Reused prefix length.
    pub fn reused_len(&self) -> usize {
        self.view.reused_len
    }

    /// Tokens appended to layer 0's session-local window. Layers need not
    /// agree: under the [`AttentionBackend`] ordering contract a prefill
    /// runs a chunk through one layer before the next, so an interrupted
    /// one leaves layers up to `PREFILL_CHUNK - 1` rows apart
    /// ([`Session::storable_len`] refuses such a session).
    pub fn local_len(&self) -> usize {
        self.view.local.seq_len(0)
    }

    /// Total sequence length (reused prefix + local window).
    pub fn total_len(&self) -> usize {
        self.reused_len() + self.local_len()
    }

    /// The length `DB.store` would persist, or `None` when its
    /// preconditions fail: every layer must hold the same number of local
    /// rows, and the noted tokens must cover the session's KV positions.
    /// The final generated token is sampled but not yet forward-passed, so
    /// its KV does not exist; exactly that off-by-one is tolerated.
    pub fn storable_len(&self) -> Option<usize> {
        let total = self.total_len();
        let noted = self.tokens.len() == total || self.tokens.len() == total + 1;
        let local = &self.view.local;
        let layers_agree = (1..local.n_layers()).all(|l| local.seq_len(l) == local.seq_len(0));
        (noted && layers_agree).then_some(total)
    }

    /// Records the token ids the engine is processing, so `DB.store` can
    /// persist the full context. Call before/after `Model::generate` with
    /// the truncated prompt and the generated tokens.
    pub fn note_tokens(&mut self, tokens: &[u32]) {
        self.tokens.extend_from_slice(tokens);
    }

    /// The known token sequence (reused prefix + noted tokens).
    pub fn tokens(&self) -> &[u32] {
        &self.tokens
    }

    /// The retained query samples (handed to index construction at store
    /// time).
    pub fn query_samples(&self) -> &QueryReservoir {
        &self.queries
    }

    /// The plans chosen so far, newest last, consecutive repeats collapsed
    /// ([`Plan::explain`] renders one).
    pub fn plan_log(&self) -> &[Plan] {
        &self.plan_log
    }

    pub(crate) fn local_kv(&self) -> &Arc<KvCache> {
        &self.view.local
    }

    /// A snapshot of what executing attention reads (module docs): hold it
    /// only as long as the execution, or the next `update` copies the
    /// local window.
    pub fn snapshot(&self) -> SessionView {
        self.view.clone()
    }

    /// Appends one step's keys/values (one per KV head) for `layer` and
    /// records query samples — the `Session.update` API of Table 2.
    pub fn update(
        &mut self,
        queries: &[Vec<f32>],
        keys: &[Vec<f32>],
        values: &[Vec<f32>],
        layer: usize,
    ) {
        Arc::make_mut(&mut self.view.local).push_token(layer, keys, values);
        for (qh, q) in queries.iter().enumerate() {
            self.queries.push(layer, qh, q);
        }
    }

    /// Materializes the full key/value matrices of `(layer, kv_head)` —
    /// reused prefix followed by the session-local window. This is Table
    /// 2's "option to return the full key and value cache for manual
    /// management" (`DynamicCache.update` compatibility); the sparse path
    /// never needs it.
    pub fn full_kv(&self, layer: usize, kv_head: usize) -> (VecStore, VecStore) {
        let stored = self.base().map(|b| b.kv.head(layer, kv_head));
        let local = self.view.local.head(layer, kv_head);
        (
            concat_rows(stored.map(|h| &h.keys), self.reused_len(), &local.keys),
            concat_rows(stored.map(|h| &h.values), self.reused_len(), &local.values),
        )
    }

    /// The optimizer's workload description for an attention call at
    /// `layer` — the *plan* half of the plan/execute split the serving
    /// scheduler batches across sessions.
    pub fn query_spec(&self, layer: usize) -> QuerySpec {
        let base = self.base();
        QuerySpec {
            context_len: base.map(|b| b.len()).unwrap_or(0),
            reused_prefix: match base {
                Some(b) if self.reused_len() < b.len() => Some(self.reused_len()),
                _ => None,
            },
            layer_id: layer,
            coarse_bytes_needed: base.map(|b| b.coarse_bytes_needed()).unwrap_or(0),
        }
    }

    /// Plans one attention call at `layer` without executing or logging it.
    /// Sessions sharing a stored context produce equal specs (for equal
    /// reused prefixes), so a scheduler can plan once per group and execute
    /// many sessions under the same plan.
    pub fn plan(&self, layer: usize) -> Plan {
        self.optimizer.plan(&self.query_spec(layer), &self.cfg.gpu)
    }

    /// Records `plan` in the plan log (deduplicating consecutive repeats) —
    /// the logging half of what [`Session::attention`] does implicitly.
    pub fn note_plan(&mut self, plan: &Plan) {
        if self.plan_log.last() != Some(plan) {
            self.plan_log.push(plan.clone());
        }
    }

    /// Computes attention outputs for every query head at `layer` — the
    /// `Session.attention` API of Table 2. K/V for the current step must
    /// already be in the local window (call [`Session::update`] first).
    ///
    /// Executes through [`execute`] on the shared work-stealing pool
    /// ([`alaya_device::pool::global`]), with all of its workers as the
    /// call's share; outputs are bitwise-identical to
    /// [`Session::attention_sequential`].
    pub fn attention(&mut self, queries: &[Vec<f32>], layer: usize) -> Vec<Vec<f32>> {
        let plan = self.plan(layer);
        self.note_plan(&plan);
        self.attention_with_plan(queries, layer, &plan)
    }

    /// The sequential reference path: identical plan, per-head loop on the
    /// calling thread. Kept callable so tests and benches can assert the
    /// parallel and scheduled paths are bitwise-equal to it.
    pub fn attention_sequential(&mut self, queries: &[Vec<f32>], layer: usize) -> Vec<Vec<f32>> {
        let plan = self.plan(layer);
        self.note_plan(&plan);
        self.view.attend_all(queries, layer, &plan)
    }

    /// Executes a pre-computed `plan` for every query head — the *execute*
    /// half of the plan/execute split, as a one-job [`execute`] that may
    /// occupy the whole shared pool.
    pub fn attention_with_plan(
        &self,
        queries: &[Vec<f32>],
        layer: usize,
        plan: &Plan,
    ) -> Vec<Vec<f32>> {
        let job = AttentionJob {
            view: &self.view,
            queries,
            layer,
            plan,
        };
        let pool = pool::global();
        execute(pool, pool.threads(), job)
    }

    /// One query head's attention under a pre-computed `plan` (`qh` is the
    /// query-head index; the KV head is derived via the GQA group size).
    pub fn attend_query_head(&self, q: &[f32], qh: usize, layer: usize, plan: &Plan) -> Vec<f32> {
        self.view.attend_query_head(q, qh, layer, plan)
    }
}

/// The first `n` rows of `prefix` followed by all of `tail`, in one
/// allocation of exactly that size: `VecStore::bytes` reads capacity, and
/// that is what the context budget charges a stored context for.
pub(crate) fn concat_rows(prefix: Option<&VecStore>, n: usize, tail: &VecStore) -> VecStore {
    let dim = tail.dim();
    let mut data = Vec::with_capacity((n + tail.len()) * dim);
    if let Some(prefix) = prefix {
        data.extend_from_slice(&prefix.as_flat()[..n * dim]);
    }
    data.extend_from_slice(tail.as_flat());
    VecStore::from_flat(dim, data)
}

impl AttentionBackend for Session {
    fn attend(&mut self, layer: usize, input: StepInput) -> Vec<Vec<f32>> {
        self.update(&input.queries, &input.keys, &input.values, layer);
        self.attention(&input.queries, layer)
    }

    /// [`Session::update`] alone: the K/V and the query samples that
    /// `Db::store` trains `layer`'s graphs on, with no plan and no
    /// attention.
    fn append(&mut self, layer: usize, input: StepInput) {
        self.update(&input.queries, &input.keys, &input.values, layer);
    }

    fn seq_len(&self, layer: usize) -> usize {
        self.view.seq_len(layer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alaya_device::memory::MemoryTracker;
    use alaya_llm::ModelConfig;
    use alaya_vector::rng::{gaussian_vec, seeded};

    use crate::Db;

    /// `update` copies the local window only while a snapshot is alive,
    /// and the snapshot keeps seeing what it was taken over.
    #[test]
    fn update_copies_the_local_window_only_under_a_live_snapshot() {
        let model = ModelConfig::tiny();
        let mut session = Session::new(DbConfig::for_tests(model.clone()), None, 0);
        let q = vec![vec![0.5; model.head_dim]; model.n_q_heads];
        let kv = vec![vec![0.25; model.head_dim]; model.n_kv_heads];
        let step = |s: &mut Session| s.update(&q, &kv, &kv, 0);

        step(&mut session);
        let before = Arc::as_ptr(session.local_kv());
        let snapshot = session.snapshot();
        drop(snapshot);
        step(&mut session);
        assert_eq!(
            Arc::as_ptr(session.local_kv()),
            before,
            "no snapshot: no copy"
        );

        let snapshot = session.snapshot();
        step(&mut session);
        assert_ne!(
            Arc::as_ptr(session.local_kv()),
            before,
            "live snapshot: copy"
        );
        assert_eq!(snapshot.seq_len(0), 2);
        assert_eq!(session.seq_len(0), 3);
        assert_eq!(Arc::strong_count(session.local_kv()), 1);
    }

    /// Fan-out follows the call's share of the pool and the rows a plan
    /// reads, not the context length. Over a 520-token stored context, a
    /// TopK-on-Coarse job reads ~70 rows per head and runs on the calling
    /// thread, while a DIPR job may scan all 521 and, given a share above
    /// 1, runs one pool task per head. A share of 1 runs every job on the
    /// calling thread. Either way the outputs are the sequential oracle's,
    /// bit for bit.
    #[test]
    fn fan_out_counts_the_rows_a_plan_reads() {
        let model = ModelConfig::tiny();
        let mut rng = seeded(0xFA17);
        let mut heads = |n: usize| -> Vec<Vec<f32>> {
            (0..n)
                .map(|_| gaussian_vec(&mut rng, model.head_dim, 1.0))
                .collect()
        };
        let mut kv = KvCache::new(model.n_layers, model.n_kv_heads, model.head_dim);
        for _ in 0..520 {
            for layer in 0..model.n_layers {
                kv.push_token(layer, &heads(model.n_kv_heads), &heads(model.n_kv_heads));
            }
        }
        let tokens: Vec<u32> = (0..520).collect();
        let prompt: Vec<u32> = tokens.iter().copied().chain([7]).collect();
        let layer = model.n_layers - 1;
        let step = (
            heads(model.n_q_heads),
            heads(model.n_kv_heads),
            heads(model.n_kv_heads),
        );
        let queries = heads(model.n_q_heads);

        // An unbounded GPU budget plans TopK on Coarse, a 1-byte one DIPR.
        let sessions: Vec<(Db, Session)> = [u64::MAX, 1]
            .map(|budget| {
                let db = Db::new(DbConfig {
                    gpu: MemoryTracker::new(budget),
                    ..DbConfig::for_tests(model.clone())
                });
                db.import(tokens.clone(), kv.clone());
                let (mut session, _) = db.create_session(&prompt);
                session.update(&step.0, &step.1, &step.2, layer);
                (db, session)
            })
            .into();
        let plans: Vec<Plan> = sessions.iter().map(|(_, s)| s.plan(layer)).collect();
        assert_eq!(plans[0].explain(), "TopK(k=8) on Coarse");
        assert_eq!(plans[1].explain(), "DIPR(beta=4) on Fine");
        let views: Vec<SessionView> = sessions.iter().map(|(_, s)| s.snapshot()).collect();
        assert!(views.iter().all(|v| v.seq_len(layer) >= PARALLEL_MIN_ROWS));
        let want: Vec<Vec<Vec<f32>>> = sessions
            .into_iter()
            .map(|(_, mut s)| s.attention_sequential(&queries, layer))
            .collect();

        let heads = model.n_q_heads as u64;
        // With a share of 2, Coarse runs on the calling thread and DIPR is
        // one task per head. With a share of 1, nothing reaches the pool.
        for (i, share, tasks) in [(0, 2, 0), (1, 2, heads), (0, 1, 0), (1, 1, 0)] {
            let pool = WorkStealingPool::new(2);
            let job = AttentionJob {
                view: &views[i],
                queries: &queries,
                layer,
                plan: &plans[i],
            };
            let got = execute(&pool, share, job);
            let what = format!("{}, share {share}", plans[i].explain());
            assert_eq!(pool.stats().tasks_executed(), tasks, "{what}");
            let bits = |out: &[Vec<f32>]| -> Vec<u32> {
                out.iter().flatten().map(|x| x.to_bits()).collect()
            };
            assert_eq!(bits(&got), bits(&want[i]), "{what}");
        }
    }
}
