//! The closed-loop load generator: client threads that each send their
//! next request only after the previous one completed, driving
//! `Model::forward_token` through `ServeEngine::backend(sid)`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use alaya_llm::{AttentionBackend, StepInput};
use alaya_serve::engine::EngineBackend;
use alaya_vector::ops::argmax;

use crate::gen::{Request, Script};
use crate::trace::{Kind, Tracer};
use crate::workload::World;

/// One recorded `attend` call: what the model sent and what came back.
pub struct Step {
    pub layer: usize,
    pub input: StepInput,
    pub output: Vec<Vec<f32>>,
}

/// `EngineBackend` with the benchmark's probes around it: a span per
/// `attend`, and (for checked requests only) a copy of every step.
struct Probe<'a> {
    inner: EngineBackend<'a>,
    tracer: &'a mut Tracer,
    record: Option<Vec<Step>>,
}

impl AttentionBackend for Probe<'_> {
    fn attend(&mut self, layer: usize, input: StepInput) -> Vec<Vec<f32>> {
        let kept = self.record.is_some().then(|| input.clone());
        let span = self.tracer.open(Kind::Attend, layer);
        let output = self.inner.attend(layer, input);
        self.tracer.close(span);
        if let (Some(steps), Some(input)) = (&mut self.record, kept) {
            steps.push(Step {
                layer,
                input,
                output: output.clone(),
            });
        }
        output
    }

    fn seq_len(&self, layer: usize) -> usize {
        self.inner.seq_len(layer)
    }
}

/// What one completed request measured.
pub struct Done {
    pub output: Vec<u32>,
    /// Just before `admit` → first output token.
    pub ttft: Duration,
    /// When each output token became available.
    pub token_times: Vec<Instant>,
    pub store: Option<Duration>,
    /// The prompt suffix the engine still had to prefill.
    pub truncated: Vec<u32>,
    pub steps: Vec<Step>,
}

/// Runs one request. Greedy decode to a fixed output length: `<eot>` is
/// ignored so the token count repeats exactly. `before_store` runs after
/// the last token and before `store`/`close`, while the database still is
/// what the request was admitted against (the correctness gate hooks in
/// here). Any `ServeError` — typed, or surfacing as `EngineBackend`'s
/// panic — makes the request count as failed.
pub fn run_request(
    world: &World,
    req: &Request,
    tracer: &mut Tracer,
    record: bool,
    before_store: impl FnOnce(&Done),
) -> Result<Done, String> {
    let engine = &world.engine;
    let model = &world.model;
    let out_tokens = world.spec.out_tokens;

    let span_request = tracer.open(Kind::Request, 0);
    let t0 = Instant::now();
    let span = tracer.open(Kind::Admit, 0);
    let admitted = engine.admit(&req.prompt);
    tracer.close(span);
    let (sid, truncated) = match admitted {
        Ok(a) => a,
        Err(e) => {
            tracer.close(span_request);
            return Err(format!("admit: {e}"));
        }
    };

    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut probe = Probe {
            inner: engine.backend(sid),
            tracer: &mut *tracer,
            record: record.then(Vec::new),
        };
        let mut pos = probe.seq_len(0);
        let mut output = Vec::with_capacity(out_tokens);
        let mut token_times = Vec::with_capacity(out_tokens);

        let span = probe.tracer.open(Kind::Prefill, 0);
        let mut logits = Vec::new();
        for &t in &truncated {
            let f = probe.tracer.open(Kind::Forward, 0);
            logits = model.forward_token(t, pos, &mut probe);
            probe.tracer.close(f);
            pos += 1;
        }
        let mut next = argmax(&logits).expect("finite logits") as u32;
        output.push(next);
        token_times.push(Instant::now());
        probe.tracer.close(span);

        let span = probe.tracer.open(Kind::Decode, 0);
        while output.len() < out_tokens {
            let f = probe.tracer.open(Kind::Forward, 0);
            logits = model.forward_token(next, pos, &mut probe);
            probe.tracer.close(f);
            pos += 1;
            next = argmax(&logits).expect("finite logits") as u32;
            output.push(next);
            token_times.push(Instant::now());
        }
        probe.tracer.close(span);
        Done {
            ttft: token_times[0] - t0,
            output,
            token_times,
            store: None,
            truncated: truncated.clone(),
            steps: probe.record.take().unwrap_or_default(),
        }
    }))
    .map_err(|_| "serving error while decoding".to_string());

    let result = result.and_then(|mut done| {
        before_store(&done);
        if req.store {
            let t = Instant::now();
            let span = tracer.open(Kind::Store, 0);
            let stored = engine
                .note_tokens(sid, &truncated)
                .and_then(|()| engine.note_tokens(sid, &done.output))
                .and_then(|()| engine.store(sid));
            tracer.close(span);
            stored.map_err(|e| format!("store: {e}"))?;
            done.store = Some(t.elapsed());
        }
        Ok(done)
    });

    let span = tracer.open(Kind::Close, 0);
    let closed = engine.close(sid);
    tracer.close(span);
    tracer.close(span_request);
    closed.map_err(|e| format!("close: {e}"))?;
    result
}

/// How long a client keeps sending.
#[derive(Clone, Copy)]
enum Until {
    /// Start no request after this instant (fixed time).
    Deadline(Instant),
    /// Send exactly this many requests (fixed work).
    Requests(usize),
}

/// One client's measurements over a phase.
#[derive(Default)]
pub struct ClientLog {
    pub attempted: usize,
    pub failed: usize,
    pub first_error: Option<String>,
    /// Gaps between consecutive output tokens, pooled over requests.
    pub tpot_ms: Vec<f64>,
    /// Per request: (ttft_ms, mean tpot_ms) for the SLO check.
    pub per_request: Vec<(f64, f64)>,
    pub store_ms: Vec<f64>,
    pub token_times: Vec<Instant>,
    /// FNV-1a over the output tokens, in request order.
    pub digest: u64,
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The closed loop of one client.
fn client_loop(world: &World, script: &mut Script, tracer: &mut Tracer, until: Until) -> ClientLog {
    let mut log = ClientLog {
        digest: FNV_OFFSET,
        ..ClientLog::default()
    };
    let mut prev_output: Vec<u32> = Vec::new();
    loop {
        match until {
            Until::Deadline(d) if Instant::now() >= d => break,
            Until::Requests(n) if log.attempted >= n => break,
            _ => {}
        }
        let req = script.next(&prev_output);
        tracer.set_request(log.attempted as u32);
        log.attempted += 1;
        match run_request(world, &req, tracer, false, |_| {}) {
            Ok(done) => {
                let ttft = done.ttft.as_secs_f64() * 1e3;
                let gaps: Vec<f64> = done
                    .token_times
                    .windows(2)
                    .map(|w| (w[1] - w[0]).as_secs_f64() * 1e3)
                    .collect();
                log.per_request.push((ttft, crate::stats::mean(&gaps)));
                log.tpot_ms.extend(gaps);
                log.store_ms
                    .extend(done.store.map(|d| d.as_secs_f64() * 1e3));
                log.token_times.extend(done.token_times);
                for t in &done.output {
                    log.digest = fnv1a(log.digest, &t.to_le_bytes());
                }
                prev_output = done.output;
            }
            Err(e) => {
                log.failed += 1;
                log.first_error.get_or_insert(e);
                prev_output.clear();
            }
        }
    }
    log
}

/// A phase's measurements: one log per client and the pooled throughput.
pub struct Phase {
    pub logs: Vec<ClientLog>,
    pub tokens_per_s: f64,
}

/// Runs every client of a phase to completion on its own thread, each on
/// its own `(seed, purpose, client)` script. `requests` (per client) makes
/// the phase fixed work instead of fixed time.
pub fn run_phase(
    world: &World,
    seed: u64,
    purpose: u64,
    tracers: &mut [Tracer],
    seconds: f64,
    requests: Option<&[usize]>,
) -> Phase {
    let start = Instant::now();
    let until = |client: usize| match requests {
        Some(n) => Until::Requests(n[client]),
        None => Until::Deadline(start + Duration::from_secs_f64(seconds)),
    };
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = tracers
            .iter_mut()
            .enumerate()
            .map(|(client, tracer)| {
                let until = until(client);
                let mut script = Script::new(&world.spec, seed, purpose, client, &world.contexts);
                s.spawn(move || client_loop(world, &mut script, tracer, until))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let since_start = |t: &Instant| t.duration_since(start).as_secs_f64();
    let times = logs.iter().flat_map(|l| &l.token_times);
    let tokens_per_s = match requests {
        // Fixed time: tokens that arrived inside the window, over the window.
        None => times.filter(|t| since_start(t) <= seconds).count() as f64 / seconds,
        // Fixed work: every token, over the time the last one took.
        Some(_) => {
            let wall = times.clone().map(since_start).fold(0.0, f64::max);
            times.count() as f64 / wall.max(1e-9)
        }
    };
    Phase { logs, tokens_per_s }
}
