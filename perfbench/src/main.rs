//! The repo benchmark: a model-driven decode loop through `ServeEngine` on
//! four workloads, with an outside-in per-layer ledger. See README.md.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! prints every metric as `name value unit` and, as the last line of
//! stdout, one JSON result object.

mod check;
mod driver;
mod gen;
mod ledger;
mod metrics;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use driver::{fnv1a, run_phase, ClientLog, FNV_OFFSET};
use metrics::Values;
use trace::Tracer;
use workload::{Shape, Spec, World};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Spans written to the trace dump per client (aggregates cover all).
const DUMP_LIMIT: usize = 200_000;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    /// Fixed work: requests per client, instead of fixed time.
    requests: Option<usize>,
    all: bool,
    agree: bool,
    manifest: bool,
    trace_out: Option<PathBuf>,
}

const USAGE: &str = "usage: perfbench --workload <chat_short|long_dipr|long_coarse|store_reuse> \
--seed <u64> --seconds <s> --trace <0|1> [--quick] [--requests <n per client>] \
[--trace-out <file>] | --all | --agree | --manifest";

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
        quick: false,
        requests: None,
        all: false,
        agree: false,
        manifest: false,
        trace_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let bad = |what: &str| format!("{flag}: not {what}");
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|_| bad("a u64"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|_| bad("a number"))?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--requests" => a.requests = Some(value()?.parse().map_err(|_| bad("a count"))?),
            "--trace-out" => a.trace_out = Some(PathBuf::from(value()?)),
            "--quick" => a.quick = true,
            "--all" => a.all = true,
            "--agree" => a.agree = true,
            "--manifest" => a.manifest = true,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !(a.seconds > 0.0 && a.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(a)
}

/// What one run of one workload produced.
struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    values: Values,
    /// Requests per client in the measured phase (for `--agree`).
    per_client: Vec<usize>,
    digest: u64,
    notes: Vec<String>,
}

fn tracers(spec: &Spec, enabled: bool, epoch: Instant) -> Vec<Tracer> {
    (0..spec.n_clients())
        .map(|_| Tracer::new(enabled, epoch))
        .collect()
}

/// Builds the world and warms it up through the real request path (caches
/// fill, the pool's workers start, lazy set-up finishes) — all of it is
/// `setup_s`.
fn setup(spec: Spec, seed: u64, epoch: Instant) -> World {
    let world = workload::build(spec, seed);
    let warmup = match spec.shape {
        // Enough requests that the warm-up, which is most of this
        // workload's set-up, averages over scheduling noise.
        Shape::Chat { .. } => 64,
        Shape::Long { .. } => 2,
        Shape::Reuse { turns, .. } => turns,
    };
    let per_client = vec![warmup; spec.n_clients()];
    run_phase(
        &world,
        seed,
        gen::WARMUP,
        &mut tracers(&spec, false, epoch),
        0.0,
        Some(&per_client),
    );
    world
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One run of one workload: untraced for the end-to-end metrics, traced for
/// the per-layer ledger. `requests` (per client) overrides `--requests`.
fn run(args: &Args, spec: Spec, trace: bool, requests: Option<&[usize]>) -> Outcome {
    // Reset the process's peak-RSS mark, so a run after another in one
    // process (`--all`, `--agree`) reports its own peak.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    let epoch = Instant::now();
    let seed = args.seed;
    let fixed: Option<Vec<usize>> = requests
        .map(<[usize]>::to_vec)
        .or_else(|| args.requests.map(|n| vec![n; spec.n_clients()]));
    let mut values = Values::new();
    let mut notes = Vec::new();

    // Set-up. The untraced run repeats it and reports the median; every
    // world but the last is dropped before the next is built.
    let repeats = if trace || args.quick {
        1
    } else {
        SETUP_REPEATS
    };
    let mut setup_s = Vec::new();
    let mut world = None;
    for _ in 0..repeats {
        drop(world.take());
        let t = Instant::now();
        world = Some(setup(spec, seed, epoch));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let world = world.expect("at least one set-up");

    let mut phases = Vec::new();
    let mut check;
    if !trace {
        let phase = run_phase(
            &world,
            seed,
            gen::MEASURED,
            &mut tracers(&spec, false, epoch),
            args.seconds,
            fixed.as_deref(),
        );
        check = check::run(&world, seed, epoch);

        let sorted = |mut v: Vec<f64>| {
            v.sort_unstable_by(f64::total_cmp);
            v
        };
        let pool = |f: fn(&ClientLog) -> &Vec<f64>| {
            sorted(phase.logs.iter().flat_map(f).copied().collect())
        };
        let per_request = || phase.logs.iter().flat_map(|l| &l.per_request);
        let ttft = sorted(per_request().map(|r| r.0).collect());
        let tpot = pool(|l| &l.tpot_ms);
        let attempted: usize = phase.logs.iter().map(|l| l.attempted).sum();
        let within_slo = per_request()
            .filter(|(ttft, tpot)| *ttft <= spec.slo_ttft_ms && *tpot <= spec.slo_tpot_ms)
            .count();
        values.insert("ttft_ms_p50", stats::percentile(&ttft, 0.50));
        values.insert("ttft_ms_p90", stats::percentile(&ttft, 0.90));
        values.insert("tpot_ms_p50", stats::percentile(&tpot, 0.50));
        values.insert("tpot_ms_p95", stats::percentile(&tpot, 0.95));
        values.insert("tokens_per_s", phase.tokens_per_s);
        // A failed request misses: the share is of requests attempted.
        values.insert(
            "slo_attainment",
            within_slo as f64 / attempted.max(1) as f64,
        );
        values.insert("attn_fidelity", check.fidelity());
        values.insert("peak_rss_mb", peak_rss_mb());
        values.insert("setup_s", stats::percentile_of(&mut setup_s, 0.5));
        let store = pool(|l| &l.store_ms);
        notes.push(format!(
            "samples: ttft {} tpot {} store {} (store_ms_p50 {:.3}) setups {repeats}",
            ttft.len(),
            tpot.len(),
            store.len(),
            stats::percentile(&store, 0.5),
        ));
        phases.push(phase);
    } else {
        // A third of the time untraced, the rest traced: their throughput
        // ratio is the tracing overhead, measured inside one process.
        let split = |share: f64| {
            fixed.as_ref().map(|v| {
                v.iter()
                    .map(|&n| ((n as f64 * share).ceil() as usize).max(1))
                    .collect::<Vec<_>>()
            })
        };
        let untraced = run_phase(
            &world,
            seed,
            gen::MEASURED,
            &mut tracers(&spec, false, epoch),
            args.seconds / 3.0,
            split(1.0 / 3.0).as_deref(),
        );
        let before = world.engine.telemetry();
        let mut traced_by = tracers(&spec, true, epoch);
        let traced = run_phase(
            &world,
            seed,
            gen::TRACED,
            &mut traced_by,
            args.seconds * 2.0 / 3.0,
            split(2.0 / 3.0).as_deref(),
        );
        let after = world.engine.telemetry();
        check = check::run(&world, seed, epoch);

        ledger::serve_cells(&mut values, &traced_by, &before, &after);
        values.insert(
            "trace.overhead_ratio",
            untraced.tokens_per_s / traced.tokens_per_s.max(1e-9),
        );
        match check.replays.last_mut() {
            Some(replay) => ledger::replay_cells(&mut values, &world, replay),
            None => notes.push("no request replayed: per-layer replay cells missing".into()),
        }
        let path = args.trace_out.clone().unwrap_or_else(|| {
            let dir = std::env::var_os("CARGO_TARGET_DIR")
                .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
            dir.join("perfbench-trace")
                .join(format!("{}.spans.tsv", spec.name))
        });
        match trace::dump(&path, &traced_by, DUMP_LIMIT) {
            Ok(()) => notes.push(format!("trace dump: {}", path.display())),
            Err(e) => notes.push(format!("trace dump failed: {e}")),
        }
        phases.push(untraced);
        phases.push(traced);
    }

    let logs = || phases.iter().flat_map(|p| &p.logs);
    let attempted = logs().map(|l| l.attempted).sum::<usize>() + check.attempted;
    let failed = logs().map(|l| l.failed).sum::<usize>() + check.failed;
    let missing = check.missing_plans(&world);
    let expected: usize = if trace {
        metrics::PER_LAYER.len()
    } else {
        metrics::END_TO_END.len()
    };
    let correct = check.mismatches == 0
        && check.heads_compared > 0
        && missing.is_empty()
        && failed == 0
        && values.len() == expected;
    let digest = logs().fold(FNV_OFFSET, |h, l| fnv1a(h, &l.digest.to_le_bytes()));
    for e in logs()
        .filter_map(|l| l.first_error.as_ref())
        .chain(&check.first_error)
    {
        notes.push(format!("error: {e}"));
    }
    notes.push(format!(
        "check: {} requests replayed, {} heads bitwise-compared, {} mismatches, plans {:?}, missing {missing:?}",
        check.replays.len(),
        check.heads_compared,
        check.mismatches,
        check.plans,
    ));
    for v in values.values_mut() {
        if !v.is_finite() {
            *v = 0.0;
        }
    }
    Outcome {
        correct,
        attempted,
        failed,
        values,
        per_client: phases[0].logs.iter().map(|l| l.attempted).collect(),
        digest,
        notes,
    }
}

fn host_fingerprint() -> String {
    let git = std::fs::read_to_string(".git/HEAD")
        .ok()
        .and_then(|head| match head.trim().strip_prefix("ref: ") {
            Some(r) => std::fs::read_to_string(format!(".git/{r}")).ok(),
            None => Some(head),
        })
        .map_or("none".into(), |s| {
            s.trim().chars().take(12).collect::<String>()
        });
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .map_or("unknown".into(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        });
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let flags: Vec<&str> = cpuinfo
        .lines()
        .find(|l| l.starts_with("flags"))
        .map(|l| {
            l.split_whitespace()
                .filter(|f| ["avx2", "avx512f", "fma", "sse4_2"].contains(f))
                .collect()
        })
        .unwrap_or_default();
    format!(
        "git {git} | {rustc} | nproc {nproc} | cpu {}",
        flags.join(",")
    )
}

fn print_outcome(spec: &Spec, seed: u64, trace: bool, host: &str, o: &Outcome) {
    println!(
        "# workload {} seed {seed} trace {}",
        spec.name,
        u8::from(trace)
    );
    println!("# why: {}", spec.why);
    println!("# closed loop, {} client thread(s)", spec.n_clients());
    println!("# host: {host}");
    for note in &o.notes {
        println!("# {note}");
    }
    println!(
        "# correct {} attempted {} failed {} digest {:016x}",
        o.correct, o.attempted, o.failed, o.digest
    );
    for (name, value) in &o.values {
        println!("{name} {value} {}", metrics::unit_of(name));
    }
}

/// `--agree`: the same seed twice — a timed run, then the same requests as
/// fixed work. Counts must repeat exactly, timings within their bounds.
fn agree(args: &Args, spec: Spec, host: &str) -> bool {
    let a = run(args, spec, false, None);
    let b = run(args, spec, false, Some(&a.per_client));
    print_outcome(&spec, args.seed, false, host, &a);
    print_outcome(&spec, args.seed, false, host, &b);
    let mut ok = a.correct && b.correct && a.attempted == b.attempted && a.digest == b.digest;
    for m in &metrics::END_TO_END {
        let (Some(&x), Some(&y)) = (a.values.get(m.name), b.values.get(m.name)) else {
            continue;
        };
        let within = if m.timed {
            (x - y).abs() <= m.bound * x.abs().min(y.abs())
        } else {
            x == y
        };
        println!(
            "# agree {} {x} vs {y}: {}",
            m.name,
            if within { "ok" } else { "DIFFERS" }
        );
        ok &= within;
    }
    println!(
        "# agree {}: {}",
        spec.name,
        if ok { "PASS" } else { "FAIL" }
    );
    ok
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.manifest {
        print!("{}", metrics::manifest());
        return ExitCode::SUCCESS;
    }
    let names: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None if args.all || args.agree => workload::names().collect(),
        None => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let host = host_fingerprint();
    let mut ok = true;
    for name in names {
        let Some(spec) = workload::spec(name, args.quick) else {
            eprintln!("unknown workload {name}\n{USAGE}");
            return ExitCode::from(2);
        };
        if args.agree {
            ok &= agree(&args, spec, &host);
            continue;
        }
        // `--all` prints both runs of every workload; otherwise `--trace`
        // picks one, and its result object is the last line of stdout.
        let modes: &[bool] = if args.all {
            &[false, true]
        } else {
            &[args.trace]
        };
        for &trace in modes {
            let o = run(&args, spec, trace, None);
            print_outcome(&spec, args.seed, trace, &host, &o);
            println!(
                "{}",
                metrics::result_line(o.correct, o.attempted, o.failed, &o.values)
            );
            ok &= o.correct;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `--quick` smoke path: every workload, both modes, in-process.
    #[test]
    fn quick_runs_are_correct_and_print_every_metric() {
        for name in workload::names() {
            for trace in [false, true] {
                let args = Args {
                    workload: None,
                    seed: 42,
                    seconds: 1.0,
                    trace,
                    quick: true,
                    requests: Some(6),
                    all: false,
                    agree: false,
                    manifest: false,
                    trace_out: Some(
                        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                            .join(format!("target/test-trace/{name}.spans.tsv")),
                    ),
                };
                let o = run(&args, workload::spec(name, true).unwrap(), trace, None);
                assert!(o.correct, "{name} trace={trace}: {:?}", o.notes);
                assert_eq!(o.failed, 0);
                let want: Vec<&str> = if trace {
                    metrics::PER_LAYER.iter().map(|m| m.0).collect()
                } else {
                    metrics::END_TO_END.iter().map(|m| m.name).collect()
                };
                for m in want {
                    assert!(o.values.contains_key(m), "{name}: {m} missing");
                }
            }
        }
    }
}
