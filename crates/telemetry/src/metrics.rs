//! The metric cells: relaxed-atomic counters, gauges, and a log-bucketed
//! histogram. Every hot-path operation is a handful of `Relaxed` atomic
//! RMWs — lock-free and allocation-free.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// A monotonically increasing count. `inc`/`add` are single relaxed
/// fetch-adds; cross-metric consistency is not promised (snapshots of a
/// live system are always slightly torn) but each cell is exact.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A point-in-time level (queue depth, bytes in flight, high-water
/// marks). Signed so derived gauges can go negative.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Ratchets the gauge up to `v` (high-water-mark semantics).
    #[inline]
    pub fn record_max(&self, v: i64) {
        self.value.fetch_max(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Sub-bucket resolution: 2^6 = 64 linear sub-buckets per power of two,
/// so a bucket's width is at most 1/64 of its lower bound and a
/// mid-bucket quantile estimate errs by at most ~0.8% (≤ 1.6% worst
/// case against either bucket edge).
const SUB_BITS: u32 = 6;
const SUBS: usize = 1 << SUB_BITS; // 64

/// Values below `SUBS` get their own width-1 bucket (exact).
const LINEAR: usize = SUBS;

/// Octaves with log bucketing: msb index 6 through 63 inclusive.
const OCTAVES: usize = 64 - SUB_BITS as usize; // 58

/// Total buckets: 64 exact + 58 octaves x 64 sub-buckets = 3776 cells
/// (~30 KiB per histogram) covering the full `u64` range.
const N_BUCKETS: usize = LINEAR + OCTAVES * SUBS;

/// An HDR-style log-bucketed histogram over `u64` values.
///
/// `record` is one relaxed fetch-add into the value's bucket plus
/// count/sum/min/max updates — no locks, no allocation, ~2% quantile
/// error by construction. Intended unit: nanoseconds (but any `u64`
/// works; bucketing is unit-agnostic).
#[derive(Debug)]
pub struct Histogram {
    buckets: Box<[AtomicU64; N_BUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Bucket index for `v`: exact below `LINEAR`; above, the octave is the
/// value's bit length and the sub-bucket is the 6 bits after the leading
/// one.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < LINEAR as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros(); // >= SUB_BITS here
    let sub = ((v >> (msb - SUB_BITS)) & (SUBS as u64 - 1)) as usize;
    LINEAR + (msb - SUB_BITS) as usize * SUBS + sub
}

/// Inclusive-exclusive bounds `[lo, hi)` of bucket `idx`.
fn bucket_bounds(idx: usize) -> (u64, u64) {
    if idx < LINEAR {
        return (idx as u64, idx as u64 + 1);
    }
    let rel = idx - LINEAR;
    let oct = (rel / SUBS) as u32 + SUB_BITS;
    let sub = (rel % SUBS) as u64;
    let width = 1u64 << (oct - SUB_BITS);
    let lo = (1u64 << oct) + sub * width;
    (lo, lo.saturating_add(width))
}

/// The representative value reported for a bucket: its midpoint (for the
/// width-1 exact buckets this is the value itself).
#[cfg(test)]
fn bucket_mid(idx: usize) -> u64 {
    let (lo, hi) = bucket_bounds(idx);
    lo + (hi - lo - 1) / 2
}

impl Histogram {
    pub fn new() -> Self {
        // A Box<[AtomicU64; N]> built without materializing the array on
        // the stack (30 KiB would be fine, but Vec::into is cleaner).
        let v: Vec<AtomicU64> = (0..N_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        let buckets = match v.into_boxed_slice().try_into() {
            Ok(b) => b,
            // Unreachable: the Vec has exactly N_BUCKETS elements.
            Err(_) => unreachable!("bucket allocation has a fixed length"),
        };
        Self {
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation. Lock-free, allocation-free.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A consistent-enough copy of the histogram (buckets are loaded
    /// relaxed one at a time; a racing `record` may or may not be seen).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        for (idx, b) in self.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            if c > 0 {
                let (lo, hi) = bucket_bounds(idx);
                buckets.push(BucketCount { lo, hi, count: c });
            }
        }
        let count = self.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// One occupied bucket in a snapshot: `count` observations in `[lo, hi)`.
#[derive(Clone, Copy, Debug)]
pub struct BucketCount {
    pub lo: u64,
    pub hi: u64,
    pub count: u64,
}

/// A point-in-time copy of a [`Histogram`]: totals plus the occupied
/// buckets, from which quantiles are estimated.
#[derive(Clone, Debug, Default)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    pub buckets: Vec<BucketCount>,
}

impl HistogramSnapshot {
    /// Estimated value at quantile `q` in `[0, 1]` (nearest-rank over the
    /// bucketed distribution; the estimate is the midpoint of the bucket
    /// holding that rank, so it is within one bucket width of the exact
    /// sorted quantile). Returns 0 on an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // 0-based rank of the exact sorted quantile (same rule a sorted
        // array indexer would use), so estimate and exact walk in step.
        let rank = (q * (self.count - 1) as f64).round() as u64;
        let mut cum = 0u64;
        for b in &self.buckets {
            cum += b.count;
            if cum > rank {
                return b.lo + (b.hi - b.lo - 1) / 2;
            }
        }
        self.max
    }

    /// Mean of all recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Exposed for tests and for snapshot consumers that want to reason about
/// resolution: the width of the bucket `v` falls into.
pub fn bucket_width_of(v: u64) -> u64 {
    let (lo, hi) = bucket_bounds(bucket_index(v));
    hi - lo
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotonic_and_self_consistent() {
        // Every probe value lands in a bucket whose bounds contain it,
        // and indices never decrease as values grow.
        let mut last_idx = 0usize;
        let mut probes: Vec<u64> = (0..200).collect();
        let mut v = 200u64;
        while v < u64::MAX / 3 {
            probes.push(v - 1);
            probes.push(v);
            probes.push(v + 1);
            v = v.saturating_mul(3) / 2 + 7;
        }
        probes.push(u64::MAX);
        probes.sort_unstable();
        for p in probes {
            let idx = bucket_index(p);
            let (lo, hi) = bucket_bounds(idx);
            assert!(
                lo <= p && (p < hi || hi == u64::MAX),
                "value {p} outside its bucket [{lo}, {hi})"
            );
            assert!(idx >= last_idx, "bucket index regressed at {p}");
            assert!(idx < N_BUCKETS);
            last_idx = idx;
        }
    }

    #[test]
    fn small_values_are_exact_and_relative_error_is_bounded() {
        for v in 0..LINEAR as u64 {
            assert_eq!(bucket_mid(bucket_index(v)), v, "values < 64 are exact");
        }
        // Above the linear range the bucket width is at most lo / 64, so
        // the midpoint errs by at most ~0.8% of the value.
        let mut v = 64u64;
        while v < u64::MAX / 2 {
            let w = bucket_width_of(v);
            assert!(
                (w as f64) <= v as f64 / 64.0 + 1.0,
                "bucket width {w} too coarse at {v}"
            );
            v = v.saturating_mul(7).saturating_add(13);
        }
    }

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(7);
        g.add(-3);
        assert_eq!(g.get(), 4);
        g.record_max(2);
        assert_eq!(g.get(), 4, "record_max never lowers");
        g.record_max(9);
        assert_eq!(g.get(), 9);
    }

    /// Hand-rolled deterministic generator (the crate is dependency-free,
    /// so no rand shim here): splitmix64.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn assert_quantiles_within_one_bucket(values: &mut [u64], what: &str) {
        let h = Histogram::new();
        for &v in values.iter() {
            h.record(v);
        }
        values.sort_unstable();
        let snap = h.snapshot();
        assert_eq!(snap.count, values.len() as u64);
        assert_eq!(snap.min, values[0]);
        assert_eq!(snap.max, *values.last().unwrap());
        for q in [0.0, 0.01, 0.10, 0.25, 0.50, 0.75, 0.90, 0.99, 0.999, 1.0] {
            let rank = (q * (values.len() - 1) as f64).round() as usize;
            let exact = values[rank];
            let est = snap.quantile(q);
            let tol = bucket_width_of(exact);
            assert!(
                est.abs_diff(exact) <= tol,
                "{what}: q={q} est={est} exact={exact} tolerance={tol}"
            );
        }
    }

    /// The satellite acceptance test: log-bucket quantile estimates stay
    /// within one bucket of the exact sorted quantiles, over random and
    /// adversarial distributions.
    #[test]
    fn quantile_estimates_track_exact_sorted_quantiles() {
        let mut s = 0xA1A7_ADB0_0B5E_7E11u64;

        // Uniform random over a wide range.
        let mut uniform: Vec<u64> = (0..10_000).map(|_| splitmix(&mut s) % 10_000_000).collect();
        assert_quantiles_within_one_bucket(&mut uniform, "uniform");

        // Log-uniform (exercises every octave).
        let mut log_uniform: Vec<u64> = (0..10_000)
            .map(|_| {
                let shift = splitmix(&mut s) % 50;
                (splitmix(&mut s) | 1) >> (63 - shift.min(63))
            })
            .collect();
        assert_quantiles_within_one_bucket(&mut log_uniform, "log-uniform");

        // Adversarial: all mass on bucket edges (powers of two ± 1).
        let mut edges: Vec<u64> = Vec::new();
        for e in 1..40u32 {
            for _ in 0..50 {
                edges.push((1u64 << e) - 1);
                edges.push(1u64 << e);
                edges.push((1u64 << e) + 1);
            }
        }
        assert_quantiles_within_one_bucket(&mut edges, "power-of-two edges");

        // Adversarial: heavy ties (a latency spike pattern — 99% at one
        // value, 1% at 1000x).
        let mut spike: Vec<u64> = (0..9_900).map(|_| 1_000).collect();
        spike.extend((0..100).map(|_| 1_000_000));
        assert_quantiles_within_one_bucket(&mut spike, "spike with ties");

        // Adversarial: bimodal far ends including the linear range.
        let mut bimodal: Vec<u64> = (0..5_000).map(|_| splitmix(&mut s) % 64).collect();
        bimodal.extend((0..5_000).map(|_| u64::MAX / 2 + splitmix(&mut s) % 1_000_000));
        assert_quantiles_within_one_bucket(&mut bimodal, "bimodal extremes");
    }

    #[test]
    fn empty_and_single_value_histograms_are_sane() {
        let h = Histogram::new();
        let snap = h.snapshot();
        assert_eq!(snap.quantile(0.5), 0);
        assert_eq!(snap.mean(), 0.0);
        h.record(42);
        let snap = h.snapshot();
        assert_eq!(snap.quantile(0.0), 42);
        assert_eq!(snap.quantile(0.5), 42);
        assert_eq!(snap.quantile(1.0), 42);
        assert_eq!(snap.min, 42);
        assert_eq!(snap.max, 42);
    }
}
