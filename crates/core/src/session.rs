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

use std::sync::Arc;

use alaya_attention::{attend, HeadView};
use alaya_llm::backend::{AttentionBackend, StepInput};
use alaya_llm::kv::KvCache;
use alaya_query::optimizer::{Optimizer, Plan, QuerySpec};
use alaya_query::types::QueryType;
use alaya_vector::VecStore;

use crate::config::DbConfig;
use crate::stored::{QueryReservoir, StoredContext};

/// A running inference session (the paper's `Session` abstraction).
pub struct Session {
    cfg: DbConfig,
    optimizer: Optimizer,
    base: Option<Arc<StoredContext>>,
    reused_len: usize,
    local: KvCache,
    tokens: Vec<u32>,
    queries: QueryReservoir,
    /// Plans chosen so far, newest last (diagnostics / EXPLAIN).
    plan_log: Vec<Plan>,
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
        Self {
            cfg,
            optimizer,
            base,
            reused_len,
            local,
            tokens,
            queries,
            plan_log: Vec::new(),
        }
    }

    /// The reused stored context, if any.
    pub fn base(&self) -> Option<&Arc<StoredContext>> {
        self.base.as_ref()
    }

    /// Reused prefix length.
    pub fn reused_len(&self) -> usize {
        self.reused_len
    }

    /// Tokens appended to the session-local window (any layer; all layers
    /// advance together under the backend contract).
    pub fn local_len(&self) -> usize {
        self.local.seq_len(0)
    }

    /// Total sequence length (reused prefix + local window).
    pub fn total_len(&self) -> usize {
        self.reused_len + self.local_len()
    }

    /// The length `DB.store` would persist, or `None` when the noted
    /// tokens do not cover the session's KV positions (its precondition).
    /// The final generated token is sampled but not yet forward-passed, so
    /// its KV does not exist; exactly that off-by-one is tolerated.
    pub fn storable_len(&self) -> Option<usize> {
        let total = self.total_len();
        (self.tokens.len() == total || self.tokens.len() == total + 1).then_some(total)
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

    pub(crate) fn local_kv(&self) -> &KvCache {
        &self.local
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
        self.local.push_token(layer, keys, values);
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
        let stored = self.base.as_ref().map(|b| b.kv.head(layer, kv_head));
        let local = self.local.head(layer, kv_head);
        (
            concat_rows(stored.map(|h| &h.keys), self.reused_len, &local.keys),
            concat_rows(stored.map(|h| &h.values), self.reused_len, &local.values),
        )
    }

    /// The optimizer's workload description for an attention call at
    /// `layer` — the *plan* half of the plan/execute split the serving
    /// scheduler batches across sessions.
    pub fn query_spec(&self, layer: usize) -> QuerySpec {
        QuerySpec {
            context_len: self.base.as_ref().map(|b| b.len()).unwrap_or(0),
            reused_prefix: match &self.base {
                Some(b) if self.reused_len < b.len() => Some(self.reused_len),
                _ => None,
            },
            layer_id: layer,
            coarse_bytes_needed: self
                .base
                .as_ref()
                .map(|b| b.coarse_bytes_needed())
                .unwrap_or(0),
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
    /// Per-query-head execution fans out over the shared work-stealing pool
    /// ([`alaya_device::pool::global`]); outputs are bitwise-identical to
    /// [`Session::attention_sequential`] because every head's computation
    /// is independent and order-free.
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
        queries
            .iter()
            .enumerate()
            .map(|(qh, q)| self.attend_query_head(q, qh, layer, &plan))
            .collect()
    }

    /// Executes a pre-computed `plan` for every query head — the *execute*
    /// half of the plan/execute split. Immutable, so a scheduler holding
    /// many sessions can execute them concurrently; heads fan out over the
    /// shared pool when there is more than one.
    pub fn attention_with_plan(
        &self,
        queries: &[Vec<f32>],
        layer: usize,
        plan: &Plan,
    ) -> Vec<Vec<f32>> {
        let attended = self.reused_len + self.local.seq_len(layer);
        if queries.len() <= 1 || attended < PARALLEL_MIN_TOKENS {
            return queries
                .iter()
                .enumerate()
                .map(|(qh, q)| self.attend_query_head(q, qh, layer, plan))
                .collect();
        }
        alaya_device::pool::global().map(queries.len(), |qh| {
            self.attend_query_head(&queries[qh], qh, layer, plan)
        })
    }

    /// One query head's attention under a pre-computed `plan` (`qh` is the
    /// query-head index; the KV head is derived via the GQA group size).
    /// This is the granularity the serving scheduler fans out over.
    pub fn attend_query_head(&self, q: &[f32], qh: usize, layer: usize, plan: &Plan) -> Vec<f32> {
        self.attend_head(q, qh / self.cfg.model.gqa_group_size(), layer, plan)
    }

    /// One head's attention under `plan`: the shared executor over a borrowed
    /// view of the reused stored prefix and the session-local window.
    fn attend_head(&self, q: &[f32], kv_head: usize, layer: usize, plan: &Plan) -> Vec<f32> {
        let base = self.base.as_deref();
        let stored = base.map(|b| b.kv.head(layer, kv_head));
        let local = self.local.head(layer, kv_head);
        let view = HeadView {
            stored: stored.map(|kv| (&kv.keys, &kv.values)),
            n_stored: self.reused_len,
            local: Some((&local.keys, &local.values)),
            graph: base.and_then(|b| b.graph(layer, kv_head)),
            coarse: base.map(|b| b.coarse(layer, kv_head)),
        };
        // Graph-search list size: a 2k beam for top-k, the configured DIPRS
        // capacity threshold otherwise.
        let l0 = match plan {
            Plan::Sparse {
                query: QueryType::TopK { k },
                ..
            } => k * 2,
            _ => self.cfg.optimizer.default_k.max(16),
        };
        attend(q, &view, self.cfg.window, plan, l0).out
    }
}

/// Below this many attended tokens, a per-head task is microseconds of
/// work and pool dispatch costs more than it saves — serial execution is
/// the fast path for short-context decode. Shared with the serving
/// scheduler's batch executor; outputs are identical either way (the pool
/// preserves per-index results).
pub const PARALLEL_MIN_TOKENS: usize = 512;

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

    fn seq_len(&self, layer: usize) -> usize {
        self.reused_len + self.local.seq_len(layer)
    }
}
