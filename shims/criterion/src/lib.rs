//! Offline shim for `criterion`: the subset of the API the AlayaDB bench
//! suite uses, backed by a simple wall-clock sampler.
//!
//! Each benchmark is calibrated (iteration count doubled until one batch
//! takes ≳1 ms), then timed over `sample_size` batches; the median ns/iter
//! is printed to stdout. No plots, no statistics beyond the median — the
//! point is that `cargo bench` runs and produces comparable numbers, and
//! that swapping in the real criterion later needs no source changes.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Benchmark identifier: `group_name/function_id/parameter`.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// An id with a function name and a parameter, like criterion's.
    pub fn new(function_id: impl ToString, parameter: impl ToString) -> Self {
        BenchmarkId {
            id: format!("{}/{}", function_id.to_string(), parameter.to_string()),
        }
    }

    /// An id carrying only a parameter value.
    pub fn from_parameter(parameter: impl ToString) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { id: s.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId { id: s }
    }
}

/// Units for throughput reporting.
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// Per-run measurement settings (shared by [`Criterion`] and groups).
#[derive(Clone, Copy, Debug)]
struct Settings {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
}

impl Default for Settings {
    fn default() -> Self {
        Settings {
            sample_size: 20,
            measurement_time: Duration::from_millis(800),
            warm_up_time: Duration::from_millis(100),
        }
    }
}

impl Settings {
    /// Settings actually used for a run: with `ALAYA_BENCH_QUICK` set in
    /// the environment, every benchmark is clamped to a smoke-test budget
    /// (2 samples, ~10 ms) regardless of per-bench configuration — CI uses
    /// this to type-check and execute each bench without paying for
    /// statistics.
    fn effective(self) -> Settings {
        if std::env::var_os("ALAYA_BENCH_QUICK").is_some() {
            Settings {
                sample_size: 2,
                measurement_time: Duration::from_millis(10),
                warm_up_time: Duration::from_millis(1),
            }
        } else {
            self
        }
    }
}

/// The benchmark manager.
#[derive(Clone, Debug, Default)]
pub struct Criterion {
    settings: Settings,
}

impl Criterion {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.settings.sample_size = n.max(2);
        self
    }

    /// Sets the target total measurement time per benchmark.
    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.settings.measurement_time = d;
        self
    }

    /// Sets the warm-up time per benchmark.
    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.settings.warm_up_time = d;
        self
    }

    /// Runs one benchmark.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_one(&self.settings, &id.into().id, None, &mut f);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let settings = self.settings;
        BenchmarkGroup {
            _parent: self,
            name: name.into(),
            settings,
            throughput: None,
        }
    }
}

/// A group of benchmarks sharing a name prefix and throughput setting.
pub struct BenchmarkGroup<'a> {
    _parent: &'a mut Criterion,
    name: String,
    settings: Settings,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Sets the throughput used for per-element/byte reporting.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Overrides the sample count for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.settings.sample_size = n.max(2);
        self
    }

    /// Overrides the measurement time for this group.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.settings.measurement_time = d;
        self
    }

    /// Runs one benchmark in the group.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, id.into().id);
        run_one(&self.settings, &full, self.throughput, &mut f);
        self
    }

    /// Runs one benchmark that borrows an input value.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let full = format!("{}/{}", self.name, id.id);
        run_one(
            &self.settings,
            &full,
            self.throughput,
            &mut |b: &mut Bencher| f(b, input),
        );
        self
    }

    /// Ends the group (kept for API parity; reporting is immediate).
    pub fn finish(self) {}
}

/// Handed to benchmark closures; [`Bencher::iter`] does the timing.
pub struct Bencher {
    settings: Settings,
    /// Median nanoseconds per iteration, filled by `iter`.
    result_ns: f64,
}

impl Bencher {
    /// Times `f`, storing the median ns/iteration.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        self.iter_custom(|iters| {
            let t0 = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            t0.elapsed()
        });
    }

    /// Like [`Bencher::iter`] for routines that time themselves: `f(iters)`
    /// runs the measured code `iters` times and returns the time that
    /// counts, so per-iteration set-up (evicting a cache, say) stays out of
    /// the figure.
    pub fn iter_custom<F: FnMut(u64) -> Duration>(&mut self, mut f: F) {
        // Warm-up and calibration: double the batch size until one batch
        // costs at least ~1ms (or the warm-up window ends).
        let mut batch: u64 = 1;
        let warm_end = Instant::now() + self.settings.warm_up_time;
        loop {
            let dt = f(batch);
            if dt >= Duration::from_millis(1) || Instant::now() >= warm_end {
                break;
            }
            batch = batch.saturating_mul(2);
        }

        let samples = self.settings.sample_size;
        let deadline = Instant::now() + self.settings.measurement_time;
        let mut per_iter: Vec<f64> = Vec::with_capacity(samples);
        for _ in 0..samples {
            per_iter.push(f(batch).as_nanos() as f64 / batch as f64);
            if Instant::now() >= deadline && per_iter.len() >= 2 {
                break;
            }
        }
        per_iter.sort_by(|a, b| a.total_cmp(b));
        self.result_ns = per_iter[per_iter.len() / 2];
    }
}

fn run_one<F: FnMut(&mut Bencher)>(
    settings: &Settings,
    id: &str,
    throughput: Option<Throughput>,
    f: &mut F,
) {
    let mut b = Bencher {
        settings: settings.effective(),
        result_ns: f64::NAN,
    };
    f(&mut b);
    let ns = b.result_ns;
    let rate = match throughput {
        Some(Throughput::Elements(n)) if ns > 0.0 => {
            format!("  ({:.1} Melem/s)", n as f64 / ns * 1e3)
        }
        Some(Throughput::Bytes(n)) if ns > 0.0 => {
            format!("  ({:.1} GB/s)", n as f64 / ns)
        }
        _ => String::new(),
    };
    println!("bench: {id:<48} {:>12.1} ns/iter{rate}", ns);
}

/// Declares a group function, mirroring criterion's two macro forms.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Declares the bench binary's `main`, running each group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::{BenchmarkId, Criterion, Throughput};
    use std::time::Duration;

    #[test]
    fn quick_env_clamps_settings() {
        std::env::set_var("ALAYA_BENCH_QUICK", "1");
        let eff = super::Settings {
            sample_size: 1000,
            measurement_time: Duration::from_secs(600),
            warm_up_time: Duration::from_secs(60),
        }
        .effective();
        let mut c = Criterion::default().sample_size(1000);
        c.bench_function("quick", |b| b.iter(|| 1 + 1));
        std::env::remove_var("ALAYA_BENCH_QUICK");
        assert_eq!(eff.sample_size, 2);
        assert_eq!(eff.measurement_time, Duration::from_millis(10));
        assert_eq!(eff.warm_up_time, Duration::from_millis(1));
    }

    #[test]
    fn harness_runs_and_reports() {
        let mut c = Criterion::default()
            .sample_size(3)
            .measurement_time(Duration::from_millis(10))
            .warm_up_time(Duration::from_millis(1));
        c.bench_function("noop", |b| b.iter(|| 1 + 1));
        let mut g = c.benchmark_group("g");
        g.throughput(Throughput::Elements(4));
        g.bench_with_input(BenchmarkId::new("sum", 4), &4u64, |b, &n| {
            b.iter(|| (0..n).sum::<u64>())
        });
        g.bench_function("self_timed", |b| {
            b.iter_custom(|iters| Duration::from_nanos(10 * iters))
        });
        g.finish();
    }
}
