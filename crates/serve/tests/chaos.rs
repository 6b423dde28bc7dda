//! Chaos acceptance: overload + injected faults, graceful degradation as
//! invariants.
//!
//! Offered concurrency is well past capacity (12 tenants into a 3-slot
//! queue behind a 2-worker dedicated pool) while the seeded fault
//! harness injects worker panics ([`pool::CHAOS_TASK_PANIC`]) and slow
//! batches ([`CHAOS_BATCH_DELAY`]). Under that abuse the serving layer
//! must degrade *gracefully*, and each property is asserted, not hoped:
//!
//! * **Exactly one typed reply per request** — every submission returns
//!   an output or a typed [`ServeError`]; no hung channel (a hang fails
//!   the test by timeout), no panic escaping to a caller.
//! * **Admitted outputs stay bitwise-identical** to each session's
//!   sequential twin — overload control changes *whether/when* a request
//!   runs, never *what* it computes.
//! * **Shed rate is nonzero while admitted latency holds**: the p99
//!   submit→reply time of admitted requests stays inside the configured
//!   deadline budget (+ the injected delay bound) precisely *because*
//!   the excess was rejected or shed.
//! * **No reservation leaks**: after every tenant closes — across panics,
//!   sheds and rejections — the `MemoryTracker` is back to baseline.
//! * **The scheduler survives every injected fault** and serves a clean
//!   round once the failpoints exhaust.
//!
//! Storage-fault injection (`storage.device.*` sites) is proven at its
//! own layer in `alaya_storage::failpoint`; the serving stack does not
//! touch block devices.
#![cfg(feature = "instrumented")]

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use alaya_chaos::Chaos;
use alaya_core::{Db, DbConfig};
use alaya_llm::ModelConfig;
use alaya_serve::pool::CHAOS_TASK_PANIC;
use alaya_serve::scheduler::CHAOS_BATCH_DELAY;
use alaya_serve::{ServeConfig, ServeEngine, ServeError};
use alaya_vector::rng::{gaussian_vec, seeded};

const TENANTS: usize = 12;
const STEPS: usize = 4;
const MAX_QUEUE: usize = 3;
const DEADLINE: Duration = Duration::from_millis(300);
const INJECTED_DELAY: Duration = Duration::from_millis(10);

#[derive(Default)]
struct Tally {
    admitted: u64,
    overloaded: u64,
    deadline_shed: u64,
    exec_panicked: u64,
    /// Submit→reply latency of every admitted request.
    ttfts: Vec<Duration>,
}

#[test]
fn overload_with_injected_faults_degrades_gracefully() {
    let model_cfg = ModelConfig::tiny();
    let db = Arc::new(Db::new(DbConfig::for_tests(model_cfg.clone())));
    let engine = ServeEngine::with_options(
        Arc::clone(&db),
        ServeConfig {
            // Dedicated pool: worker-panic injection must never leak into
            // the process-global pool other tests share.
            threads: 2,
            dispatch_window: Duration::from_millis(10),
            default_deadline: Some(DEADLINE),
            max_queue_requests: MAX_QUEUE,
            ..Default::default()
        },
    );

    let chaos = Chaos::new(0x0A1A_7ADB);
    // At most 3 injected worker panics (each aborts its whole batch with
    // a typed error), plus probabilistic slow batches.
    chaos.arm_limited(CHAOS_TASK_PANIC, 0.05, 3);
    chaos.arm_delay(CHAOS_BATCH_DELAY, 0.2, INJECTED_DELAY);
    engine.inject_chaos(Arc::clone(&chaos));

    let barrier = Barrier::new(TENANTS);
    let tally = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for t in 0..TENANTS {
            let engine = &engine;
            let db = &db;
            let model_cfg = &model_cfg;
            let barrier = &barrier;
            handles.push(s.spawn(move || {
                let prompt = vec![t as u32, 50, 51, 52];
                let (sid, _) = engine.admit(&prompt).expect("admission");
                let (mut reference, _) = db.create_session(&prompt);
                let mut tally = Tally::default();
                let mut rng = seeded(0xC0FFEE + t as u64);
                barrier.wait();

                for _step in 0..STEPS {
                    for layer in 0..model_cfg.n_layers {
                        let queries: Vec<Vec<f32>> = (0..model_cfg.n_q_heads)
                            .map(|_| gaussian_vec(&mut rng, model_cfg.head_dim, 1.0))
                            .collect();
                        let keys: Vec<Vec<f32>> = (0..model_cfg.n_kv_heads)
                            .map(|_| gaussian_vec(&mut rng, model_cfg.head_dim, 1.0))
                            .collect();
                        let values: Vec<Vec<f32>> = (0..model_cfg.n_kv_heads)
                            .map(|_| gaussian_vec(&mut rng, model_cfg.head_dim, 1.0))
                            .collect();
                        engine
                            .update(sid, &queries, &keys, &values, layer)
                            .expect("update never queues; unaffected by overload");
                        reference.update(&queries, &keys, &values, layer);
                        let want = reference.attention_sequential(&queries, layer);

                        // Retry loop: every attempt must get exactly one
                        // typed reply; retryable errors are resubmitted.
                        // Attention is read-only on the session, so
                        // retries cannot skew the reference twin.
                        let mut exec_panics_left = 10;
                        loop {
                            let submitted = Instant::now();
                            match engine.attention(sid, &queries, layer) {
                                Ok(served) => {
                                    tally.ttfts.push(submitted.elapsed());
                                    tally.admitted += 1;
                                    assert_eq!(
                                        served, want,
                                        "tenant {t} layer {layer}: admitted output diverged"
                                    );
                                    break;
                                }
                                Err(ServeError::Overloaded {
                                    retry_after_hint, ..
                                }) => {
                                    tally.overloaded += 1;
                                    std::thread::sleep(
                                        retry_after_hint.min(Duration::from_millis(5)),
                                    );
                                }
                                Err(ServeError::DeadlineExceeded { .. }) => {
                                    tally.deadline_shed += 1;
                                }
                                Err(ServeError::ExecutionPanicked) => {
                                    tally.exec_panicked += 1;
                                    exec_panics_left -= 1;
                                    assert!(
                                        exec_panics_left > 0,
                                        "panic injection is capped at 3 fires; \
                                         10 ExecutionPanicked replies on one request \
                                         means the failpoint is not exhausting"
                                    );
                                }
                                Err(other) => {
                                    panic!("tenant {t}: non-overload error under chaos: {other}")
                                }
                            }
                        }
                    }
                }
                engine.close(sid).expect("close");
                tally
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .fold(Tally::default(), |mut acc, t| {
                acc.admitted += t.admitted;
                acc.overloaded += t.overloaded;
                acc.deadline_shed += t.deadline_shed;
                acc.exec_panicked += t.exec_panicked;
                acc.ttfts.extend(t.ttfts);
                acc
            })
    });

    // Every request eventually served (the retry loops completed), and the
    // burst genuinely overloaded the 3-slot queue.
    let expected = (TENANTS * STEPS * model_cfg.n_layers) as u64;
    assert_eq!(tally.admitted, expected);
    assert!(
        tally.overloaded + tally.deadline_shed > 0,
        "{TENANTS} tenants into a {MAX_QUEUE}-slot queue must shed"
    );
    let stats = engine.stats();
    assert_eq!(stats.rejected_overload, tally.overloaded);
    assert_eq!(stats.shed_deadline, tally.deadline_shed);
    assert_eq!(stats.requests, tally.admitted + tally.exec_panicked);

    // Admitted-request p99 stays inside the latency budget: the deadline
    // bounds queueing, the armed delay bounds injected slowness, and the
    // tiny-model execution fits in the remainder. Without shedding, a
    // sustained 4x-capacity burst would push tail latency far past this.
    let mut ttfts = tally.ttfts;
    ttfts.sort_unstable();
    let p99 = ttfts[(ttfts.len() * 99 / 100).min(ttfts.len() - 1)];
    let budget = DEADLINE + INJECTED_DELAY + Duration::from_millis(200);
    assert!(
        p99 <= budget,
        "p99 admitted latency {p99:?} exceeds the SLO budget {budget:?}"
    );

    // Zero leaked reservations across panics, sheds, and rejections.
    assert_eq!(engine.n_sessions(), 0);
    assert_eq!(db.gpu().in_use(), 0, "tracker must return to baseline");

    // The scheduler thread survived every injected fault: with the
    // failpoints disarmed, a clean round serves end to end.
    chaos.disarm(CHAOS_TASK_PANIC);
    chaos.disarm(CHAOS_BATCH_DELAY);
    let (sid, _) = engine.admit(&[7, 7, 7]).unwrap();
    let queries = vec![vec![1.0; model_cfg.head_dim]; model_cfg.n_q_heads];
    let kv = vec![vec![0.5; model_cfg.head_dim]; model_cfg.n_kv_heads];
    engine.update(sid, &queries, &kv, &kv, 0).unwrap();
    let out = engine.attention(sid, &queries, 0).unwrap();
    assert_eq!(out.len(), model_cfg.n_q_heads);
    engine.close(sid).unwrap();
    assert_eq!(db.gpu().in_use(), 0);
}

/// An injected worker panic freezes a flight-recorder dump: the black
/// box is retrievable from [`TelemetrySnapshot::last_panic_dump`], names
/// the failure, and carries the ring's recent events for context. The
/// panicked request's span closes as `panicked`, and the ledger still
/// balances.
#[test]
fn injected_panic_freezes_a_flight_recorder_dump() {
    let model_cfg = ModelConfig::tiny();
    let db = Arc::new(Db::new(DbConfig::for_tests(model_cfg.clone())));
    let engine = ServeEngine::with_options(
        Arc::clone(&db),
        ServeConfig {
            // Dedicated pool: the injected panic must not leak into the
            // process-global pool other tests share.
            threads: 2,
            ..Default::default()
        },
    );
    let queries = vec![vec![1.0; model_cfg.head_dim]; model_cfg.n_q_heads];
    let kv = vec![vec![0.5; model_cfg.head_dim]; model_cfg.n_kv_heads];
    let (sid, _) = engine.admit(&[2, 4, 6]).unwrap();
    engine.update(sid, &queries, &kv, &kv, 0).unwrap();

    // One clean request first, so the ring holds a reply event the dump
    // can show as context.
    engine.attention(sid, &queries, 0).unwrap();
    assert_eq!(engine.telemetry().last_panic_dump, None);

    let chaos = Chaos::new(0x00B1_ACB0);
    chaos.arm_limited(CHAOS_TASK_PANIC, 1.0, 1);
    engine.inject_chaos(Arc::clone(&chaos));
    match engine.attention(sid, &queries, 0) {
        Err(ServeError::ExecutionPanicked) => {}
        other => panic!("expected ExecutionPanicked, got {other:?}"),
    }

    let t = engine.telemetry();
    assert_eq!(t.spans.panicked, 1);
    assert_eq!(t.spans.opened, t.spans.closed(), "ledger balances");
    assert_eq!(
        t.spans.executed + t.spans.panicked,
        t.stats.requests,
        "the panicked request still counts as dispatched"
    );
    let dump = t.last_panic_dump.expect("panic must freeze a dump");
    assert!(
        dump.contains("scheduler batch execution panicked"),
        "dump names the failure: {dump}"
    );
    assert!(
        dump.contains("serve.reply.ok"),
        "dump carries the pre-panic ring context: {dump}"
    );

    // The failpoint exhausted: the same session serves again, and the
    // frozen dump survives later healthy traffic.
    let out = engine.attention(sid, &queries, 0).unwrap();
    assert_eq!(out.len(), model_cfg.n_q_heads);
    assert!(engine.telemetry().last_panic_dump.is_some());
    engine.close(sid).unwrap();
    assert_eq!(db.gpu().in_use(), 0);
}

/// EWMA calibration: with every batch slowed by an armed delay, the
/// scheduler's execution estimate converges to the *observed* per-batch
/// wall time, and every `Overloaded` retry hint handed out afterwards
/// reflects the injected latency.
#[test]
fn retry_hints_converge_toward_observed_batch_latency() {
    const CALIBRATION_BATCHES: usize = 16;
    const CALLERS: usize = 6;
    const MAX_QUEUE: usize = 2;
    const DELAY: Duration = Duration::from_millis(4);

    let model_cfg = ModelConfig::tiny();
    let db = Arc::new(Db::new(DbConfig::for_tests(model_cfg.clone())));
    let engine = ServeEngine::with_options(
        Arc::clone(&db),
        ServeConfig {
            threads: 1,
            dispatch_window: Duration::from_millis(50),
            max_queue_requests: MAX_QUEUE,
            ..Default::default()
        },
    );
    let chaos = Chaos::new(0xE3A_CA1B);
    chaos.arm_delay(CHAOS_BATCH_DELAY, 1.0, DELAY);
    engine.inject_chaos(Arc::clone(&chaos));

    let queries = vec![vec![1.0; model_cfg.head_dim]; model_cfg.n_q_heads];
    let kv = vec![vec![0.5; model_cfg.head_dim]; model_cfg.n_kv_heads];

    // Phase 1 — serial calibration: every dispatched batch takes at
    // least DELAY, so the EWMA (seeded from the default cost model's
    // `est_exec` = zero) must land at or above it.
    let (sid, _) = engine.admit(&[3, 1, 4]).unwrap();
    engine.update(sid, &queries, &kv, &kv, 0).unwrap();
    for _ in 0..CALIBRATION_BATCHES {
        engine.attention(sid, &queries, 0).unwrap();
    }
    engine.close(sid).unwrap();

    let calibrated = engine.calibrated_est_exec();
    assert!(
        calibrated >= DELAY,
        "estimate {calibrated:?} must cover the injected {DELAY:?}"
    );
    // The estimate tracks the audited distribution: within a factor of
    // two of the observed per-batch p50 (all observations are DELAY + a
    // tiny-model execution).
    let p50 = engine.telemetry().stages.batch_exec.p50;
    assert!(
        calibrated <= p50 * 2 && calibrated * 2 >= p50,
        "estimate {calibrated:?} strayed from observed p50 {p50:?}"
    );

    // Phase 2 — overload: a synchronized burst into the small queue.
    // Every hint handed back was computed from the calibrated estimate,
    // so it must reflect the injected delay (an uncalibrated engine says
    // "retry in 1ms").
    let barrier = Barrier::new(CALLERS);
    let hints: Vec<Duration> = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for c in 0..CALLERS {
            let engine = &engine;
            let barrier = &barrier;
            let queries = &queries;
            let kv = &kv;
            handles.push(s.spawn(move || {
                let (sid, _) = engine.admit(&[c as u32, 2, 7]).unwrap();
                engine.update(sid, queries, kv, kv, 0).unwrap();
                barrier.wait();
                let mut hints = Vec::new();
                loop {
                    match engine.attention(sid, queries, 0) {
                        Ok(_) => break,
                        Err(ServeError::Overloaded {
                            retry_after_hint, ..
                        }) => {
                            hints.push(retry_after_hint);
                            std::thread::sleep(retry_after_hint.min(Duration::from_millis(5)));
                        }
                        Err(other) => panic!("unexpected error under burst: {other:?}"),
                    }
                }
                engine.close(sid).unwrap();
                hints
            }));
        }
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });

    assert!(
        !hints.is_empty(),
        "{CALLERS} callers into a {MAX_QUEUE}-slot queue must get hints"
    );
    // The EWMA's integer shifts can truncate a few nanoseconds under the
    // injected floor; a microsecond of slack keeps the assert honest.
    let floor = DELAY - Duration::from_micros(1);
    for hint in &hints {
        assert!(
            *hint >= floor,
            "hint {hint:?} forgot the injected {DELAY:?} — calibration regressed"
        );
    }
    assert_eq!(engine.n_sessions(), 0);
    assert_eq!(db.gpu().in_use(), 0);
}
