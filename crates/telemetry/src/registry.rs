//! The named-metric registry and its snapshots.
//!
//! Registration and snapshotting are cold paths behind a
//! `std::sync::Mutex` (deliberately *not* the workspace lock shim: an
//! untraced lock cannot add lock-order edges in the `instrumented` build).
//! Recording into a metric obtained from the registry never touches the
//! registry again — callers hold `Arc`s to the cells.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot};

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A registry of named metrics. Names are dotted paths by convention
/// (`serve.stage.queue`, `device.pool.tasks_executed`); the first
/// registration of a name wins and later registrations of the same name
/// are ignored (get-or-create returns the existing cell when the kind
/// matches, a detached cell otherwise — never a panic).
#[derive(Default)]
pub struct Registry {
    inner: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Metric>> {
        // A panic while holding this lock leaves only a BTreeMap of Arcs,
        // which is never structurally torn — recover instead of
        // propagating poison into every later snapshot.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Gets or creates the counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut m = self.lock();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::new())))
        {
            Metric::Counter(c) => Arc::clone(c),
            _ => Arc::new(Counter::new()), // kind clash: detached cell
        }
    }

    /// Gets or creates the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut m = self.lock();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::new())))
        {
            Metric::Gauge(g) => Arc::clone(g),
            _ => Arc::new(Gauge::new()),
        }
    }

    /// Gets or creates the histogram `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut m = self.lock();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new())))
        {
            Metric::Histogram(h) => Arc::clone(h),
            _ => Arc::new(Histogram::new()),
        }
    }

    /// Attaches an externally owned counter under `name` (used by
    /// components that keep their own cells — e.g. the device pool, the
    /// DB's lifetime counters — so one cell can serve both the owner's
    /// accessors and a registry snapshot). First registration wins.
    pub fn register_counter(&self, name: &str, c: &Arc<Counter>) {
        self.lock()
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::clone(c)));
    }

    /// Attaches an externally owned gauge under `name`.
    pub fn register_gauge(&self, name: &str, g: &Arc<Gauge>) {
        self.lock()
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::clone(g)));
    }

    /// A point-in-time copy of every registered metric.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let m = self.lock();
        let metrics = m
            .iter()
            .map(|(name, metric)| {
                let value = match metric {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                };
                (name.clone(), value)
            })
            .collect();
        RegistrySnapshot { metrics }
    }
}

/// One metric's snapshotted value.
#[derive(Clone, Debug)]
pub enum MetricValue {
    Counter(u64),
    Gauge(i64),
    Histogram(HistogramSnapshot),
}

/// A point-in-time copy of a [`Registry`], sorted by name; readers look
/// cells up by name and kind.
#[derive(Clone, Debug, Default)]
pub struct RegistrySnapshot {
    /// `(name, value)` pairs, sorted by name.
    pub metrics: Vec<(String, MetricValue)>,
}

impl RegistrySnapshot {
    /// Looks up a counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.metrics.iter().find_map(|(n, v)| match v {
            MetricValue::Counter(c) if n == name => Some(*c),
            _ => None,
        })
    }

    /// Looks up a gauge value by name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.metrics.iter().find_map(|(n, v)| match v {
            MetricValue::Gauge(g) if n == name => Some(*g),
            _ => None,
        })
    }

    /// Looks up a histogram snapshot by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.metrics.iter().find_map(|(n, v)| match v {
            MetricValue::Histogram(h) if n == name => Some(h),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_returns_the_same_cell() {
        let r = Registry::new();
        let a = r.counter("x.count");
        let b = r.counter("x.count");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3, "both handles hit one cell");
        // Kind clash: no panic, detached cell, original untouched.
        let clash = r.gauge("x.count");
        clash.set(99);
        assert_eq!(r.snapshot().counter("x.count"), Some(3));
    }

    #[test]
    fn registering_an_external_cell_shares_it() {
        let r = Registry::new();
        let mine = Arc::new(Counter::new());
        r.register_counter("ext.hits", &mine);
        mine.add(7);
        assert_eq!(r.snapshot().counter("ext.hits"), Some(7));
        // First registration wins.
        let other = Arc::new(Counter::new());
        r.register_counter("ext.hits", &other);
        other.add(100);
        assert_eq!(r.snapshot().counter("ext.hits"), Some(7));
    }

    #[test]
    fn snapshot_reads_each_kind_by_name() {
        let r = Registry::new();
        r.counter("a.requests").add(5);
        r.gauge("a.depth").set(-2);
        let h = r.histogram("a.latency");
        for v in [10u64, 20, 30, 1_000_000] {
            h.record(v);
        }
        let snap = r.snapshot();
        assert_eq!(snap.counter("a.requests"), Some(5));
        assert_eq!(snap.gauge("a.depth"), Some(-2));
        let hs = snap.histogram("a.latency").unwrap();
        assert_eq!(hs.count, 4);
        assert_eq!(hs.min, 10);
        assert_eq!(hs.max, 1_000_000);
    }
}
