//! The correctness gate and the `attn_fidelity` guard.
//!
//! After the timed phase a fixed, seed-derived sample of requests runs
//! again, untimed, with every `attend` input and output recorded. Each is
//! replayed through a fresh `Session` opened on the same database state:
//! `Session::attention_sequential` — the repo's oracle — must reproduce
//! the served outputs bit for bit, and the same state run under the plan's
//! exact-retrieval twin (index → `Flat`) gives the fidelity error.

use std::collections::BTreeSet;
use std::time::Instant;

use alaya_core::Session;
use alaya_query::optimizer::Plan;
use alaya_query::types::IndexChoice;

use crate::driver::{run_request, Done};
use crate::gen::{self, Script};
use crate::stats;
use crate::trace::Tracer;
use crate::workload::{Shape, World};

/// A replayed request in its final state, kept for the per-layer ledger.
pub struct Replay {
    pub session: Session,
    pub prompt: Vec<u32>,
    pub done: Done,
}

#[derive(Default)]
pub struct CheckResult {
    pub attempted: usize,
    pub failed: usize,
    /// Served outputs that differ from the sequential oracle, or requests
    /// admitted differently by `Db::create_session`.
    pub mismatches: usize,
    pub heads_compared: usize,
    /// Relative L2 error per (step, layer, head) against the exact twin.
    pub rel_errors: Vec<f64>,
    /// Distinct `Plan::explain()` strings the checked requests ran under.
    pub plans: BTreeSet<String>,
    pub first_error: Option<String>,
    pub replays: Vec<Replay>,
}

impl CheckResult {
    /// `attn_fidelity`: 1 / (1 + p90 relative L2 error) — 1 when retrieval
    /// is exact, falling towards (never reaching) 0 as it gets worse.
    pub fn fidelity(&mut self) -> f64 {
        1.0 / (1.0 + stats::percentile_of(&mut self.rel_errors, 0.90))
    }

    /// Expected plan kinds that no checked request showed.
    pub fn missing_plans(&self, world: &World) -> Vec<&'static str> {
        world
            .spec
            .expect_plans
            .iter()
            .copied()
            .filter(|want| !self.plans.iter().any(|p| p.contains(want)))
            .collect()
    }
}

/// The plan with its index swapped for the exact flat scan.
fn exact_twin(plan: &Plan) -> Plan {
    match plan {
        Plan::FullAttention { .. } => plan.clone(),
        Plan::Sparse { query, filter, .. } => Plan::Sparse {
            query: *query,
            index: IndexChoice::Flat,
            filter: *filter,
        },
    }
}

fn rel_l2(got: &[f32], want: &[f32]) -> f64 {
    let (mut diff, mut norm) = (0.0f64, 0.0f64);
    for (g, w) in got.iter().zip(want) {
        diff += f64::from(g - w).powi(2);
        norm += f64::from(*w).powi(2);
    }
    if norm == 0.0 {
        if diff == 0.0 {
            0.0
        } else {
            1.0
        }
    } else {
        (diff / norm).sqrt()
    }
}

/// Replays one recorded request through a fresh session; the database
/// must be unchanged since the request was admitted.
fn replay(world: &World, prompt: &[u32], done: &Done, out: &mut CheckResult) -> Session {
    let (mut session, truncated) = world.db.create_session(prompt);
    if truncated != done.truncated {
        out.mismatches += 1;
    }
    for step in &done.steps {
        let q = &step.input.queries;
        session.update(q, &step.input.keys, &step.input.values, step.layer);
        let plan = session.plan(step.layer);
        out.plans.insert(plan.explain());
        let oracle = session.attention_sequential(q, step.layer);
        let exact = session.attention_with_plan(q, step.layer, &exact_twin(&plan));
        for ((served, oracle), exact) in step.output.iter().zip(&oracle).zip(&exact) {
            out.heads_compared += 1;
            let same = served.len() == oracle.len()
                && served
                    .iter()
                    .zip(oracle)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            if !same {
                out.mismatches += 1;
            }
            out.rel_errors.push(rel_l2(served, exact));
        }
    }
    session
}

/// Runs and verifies the check sample: two requests per client script
/// (one whole conversation for `store_reuse`, verified turn by turn before
/// each store), single-threaded so nothing else touches the database.
pub fn run(world: &World, seed: u64, epoch: Instant) -> CheckResult {
    let mut out = CheckResult::default();
    let (n_scripts, n_requests) = match world.spec.shape {
        Shape::Reuse { turns, .. } => (1, turns),
        _ => (2, 2),
    };
    let mut tracer = Tracer::new(false, epoch);
    for client in 0..n_scripts {
        let mut script = Script::new(&world.spec, seed, gen::CHECK, client, &world.contexts);
        let mut prev_output: Vec<u32> = Vec::new();
        for _ in 0..n_requests {
            let req = script.next(&prev_output);
            out.attempted += 1;
            let mut session = None;
            let result = run_request(world, &req, &mut tracer, true, |done| {
                session = Some(replay(world, &req.prompt, done, &mut out));
            });
            match (result, session) {
                (Ok(done), Some(session)) => {
                    prev_output = done.output.clone();
                    out.replays.push(Replay {
                        session,
                        prompt: req.prompt,
                        done,
                    });
                }
                (Err(e), _) => {
                    out.failed += 1;
                    out.first_error.get_or_insert(e);
                    prev_output.clear();
                }
                (Ok(_), None) => unreachable!("before_store runs on every completed request"),
            }
        }
    }
    out
}
