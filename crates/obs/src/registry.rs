//! The metrics registry: named counters, gauges, and fixed-bucket
//! histograms in one `Mutex<HashMap>`. An update holds the lock for one
//! map lookup, cheap next to the statements that record them; a caller
//! recording many at once takes the lock once ([`MetricsRegistry::batch`]).
//! A name is copied into the map when its metric is created, never on
//! an update.
//!
//! Snapshots ([`MetricsRegistry::snapshot`]) copy everything into a
//! `BTreeMap`, so iteration order — and therefore the Prometheus
//! export — is stable regardless of insertion order.

use std::collections::{BTreeMap, HashMap};

use crowddb_common::sync::Mutex;

use crate::export;

/// Default histogram bucket upper bounds, tuned for the quantities the
/// engine observes (row counts, cents, virtual seconds).
pub const DEFAULT_BUCKETS: &[f64] = &[
    1.0,
    2.0,
    5.0,
    10.0,
    25.0,
    50.0,
    100.0,
    250.0,
    1000.0,
    10_000.0,
    100_000.0,
    1_000_000.0,
];

#[derive(Debug, Clone)]
enum Metric {
    Counter(u64),
    Gauge(f64),
    Histogram(Histo),
}

#[derive(Debug, Clone)]
struct Histo {
    bounds: Vec<f64>,
    /// One count per bound, plus a final overflow (`+Inf`) bucket.
    counts: Vec<u64>,
    sum: f64,
    count: u64,
}

impl Histo {
    fn new(bounds: &[f64]) -> Histo {
        Histo {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0.0,
            count: 0,
        }
    }

    fn observe(&mut self, v: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|b| v <= *b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.sum += v;
        self.count += 1;
    }
}

/// Registry of named metrics.
///
/// Names follow the Prometheus convention used throughout the engine:
/// `crowddb_<subsystem>_<what>[_total]`, snake_case, counters suffixed
/// `_total`. A name is bound to one metric kind; re-registering a name
/// with a different kind resets it to the new kind (last kind wins).
#[derive(Default)]
pub struct MetricsRegistry {
    metrics: Mutex<HashMap<String, Metric>>,
}

impl MetricsRegistry {
    /// Empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Add `delta` to the counter `name`, creating it at zero first.
    pub fn counter_add(&self, name: &str, delta: u64) {
        self.batch(|batch| batch.counter_add(name, delta));
    }

    /// Increment the counter `name` by one.
    pub fn counter_inc(&self, name: &str) {
        self.counter_add(name, 1);
    }

    /// Set the gauge `name` to `v`.
    pub fn gauge_set(&self, name: &str, v: f64) {
        let mut metrics = self.metrics.lock();
        match metrics.get_mut(name) {
            Some(Metric::Gauge(g)) => *g = v,
            _ => {
                metrics.insert(name.to_string(), Metric::Gauge(v));
            }
        }
    }

    /// Record `v` into the histogram `name` with [`DEFAULT_BUCKETS`].
    pub fn observe(&self, name: &str, v: f64) {
        self.observe_with(name, DEFAULT_BUCKETS, v);
    }

    /// Record `v` into the histogram `name`, creating it with the given
    /// bucket bounds if absent (bounds of an existing histogram are
    /// kept — they are fixed at first observation).
    pub fn observe_with(&self, name: &str, bounds: &[f64], v: f64) {
        self.batch(|batch| batch.observe_with(name, bounds, v));
    }

    /// Make several updates under one lock. Other threads' updates wait
    /// for `f`, so keep it to recording.
    pub fn batch(&self, f: impl FnOnce(&mut MetricsBatch<'_>)) {
        f(&mut MetricsBatch {
            metrics: &mut self.metrics.lock(),
        })
    }

    /// Copy the current state of every metric, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let metrics = self.metrics.lock();
        let metrics = metrics
            .iter()
            .map(|(name, metric)| {
                let value = match metric {
                    Metric::Counter(c) => MetricValue::Counter(*c),
                    Metric::Gauge(g) => MetricValue::Gauge(*g),
                    Metric::Histogram(h) => MetricValue::Histogram(HistogramSnapshot {
                        bounds: h.bounds.clone(),
                        counts: h.counts.clone(),
                        sum: h.sum,
                        count: h.count,
                    }),
                };
                (name.clone(), value)
            })
            .collect();
        MetricsSnapshot { metrics }
    }
}

/// The registry's metrics while [`MetricsRegistry::batch`] holds its
/// lock: the registry's counter and histogram updates, without a lock
/// each.
pub struct MetricsBatch<'a> {
    metrics: &'a mut HashMap<String, Metric>,
}

impl MetricsBatch<'_> {
    /// [`MetricsRegistry::counter_add`] under the batch's lock.
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        match self.metrics.get_mut(name) {
            Some(Metric::Counter(c)) => *c += delta,
            _ => {
                self.metrics
                    .insert(name.to_string(), Metric::Counter(delta));
            }
        }
    }

    /// [`MetricsRegistry::observe`] under the batch's lock.
    pub fn observe(&mut self, name: &str, v: f64) {
        self.observe_with(name, DEFAULT_BUCKETS, v);
    }

    /// [`MetricsRegistry::observe_with`] under the batch's lock.
    pub fn observe_with(&mut self, name: &str, bounds: &[f64], v: f64) {
        match self.metrics.get_mut(name) {
            Some(Metric::Histogram(h)) => h.observe(v),
            _ => {
                let mut h = Histo::new(bounds);
                h.observe(v);
                self.metrics.insert(name.to_string(), Metric::Histogram(h));
            }
        }
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry").finish_non_exhaustive()
    }
}

/// Point-in-time value of one metric.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotone counter.
    Counter(u64),
    /// Last-write-wins gauge.
    Gauge(f64),
    /// Fixed-bucket histogram.
    Histogram(HistogramSnapshot),
}

/// Frozen histogram state.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Bucket upper bounds (exclusive of the implicit `+Inf` bucket).
    pub bounds: Vec<f64>,
    /// Per-bucket observation counts; `counts.len() == bounds.len() + 1`,
    /// the last entry being the overflow bucket.
    pub counts: Vec<u64>,
    /// Sum of all observed values.
    pub sum: f64,
    /// Number of observations.
    pub count: u64,
}

/// A sorted, immutable copy of the registry — what
/// `CrowdDB::metrics()` hands back.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    metrics: BTreeMap<String, MetricValue>,
}

impl MetricsSnapshot {
    /// Value of the counter `name`; absent counters read as 0.
    pub fn counter(&self, name: &str) -> u64 {
        match self.metrics.get(name) {
            Some(MetricValue::Counter(c)) => *c,
            _ => 0,
        }
    }

    /// Value of the gauge `name`, if set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.metrics.get(name) {
            Some(MetricValue::Gauge(g)) => Some(*g),
            _ => None,
        }
    }

    /// The histogram `name`, if recorded.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.metrics.get(name) {
            Some(MetricValue::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Iterate metrics in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricValue)> {
        self.metrics.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of metrics in the snapshot.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Whether the snapshot holds no metrics.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Render the snapshot in the Prometheus text exposition format.
    pub fn to_prometheus(&self) -> String {
        export::to_prometheus(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let r = MetricsRegistry::new();
        r.counter_inc("a_total");
        r.counter_add("a_total", 4);
        assert_eq!(r.snapshot().counter("a_total"), 5);
        assert_eq!(r.snapshot().counter("missing_total"), 0);
    }

    #[test]
    fn gauges_last_write_wins() {
        let r = MetricsRegistry::new();
        r.gauge_set("g", 1.5);
        r.gauge_set("g", -2.0);
        assert_eq!(r.snapshot().gauge("g"), Some(-2.0));
        assert_eq!(r.snapshot().gauge("missing"), None);
    }

    #[test]
    fn a_batch_updates_like_single_calls() {
        let single = MetricsRegistry::new();
        single.counter_add("a_total", 2);
        single.counter_add("a_total", 3);
        single.observe("h", 7.0);
        single.gauge_set("g", 1.0);
        let batched = MetricsRegistry::new();
        batched.batch(|b| {
            b.counter_add("a_total", 2);
            b.counter_add("a_total", 3);
            b.observe("h", 7.0);
        });
        batched.gauge_set("g", 1.0);
        assert_eq!(batched.snapshot(), single.snapshot());
    }

    #[test]
    fn a_name_rebound_to_another_kind_takes_the_new_kind() {
        let r = MetricsRegistry::new();
        r.counter_add("m", 4);
        r.gauge_set("m", 0.5);
        assert_eq!(r.snapshot().gauge("m"), Some(0.5));
        r.counter_add("m", 1);
        assert_eq!(r.snapshot().counter("m"), 1);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let r = MetricsRegistry::new();
        for v in [0.5, 1.0, 3.0, 1e9] {
            r.observe_with("h", &[1.0, 5.0], v);
        }
        let snap = r.snapshot();
        let h = snap.histogram("h").unwrap();
        assert_eq!(h.bounds, vec![1.0, 5.0]);
        assert_eq!(h.counts, vec![2, 1, 1]);
        assert_eq!(h.count, 4);
        assert!((h.sum - 1_000_000_004.5).abs() < 1e-6);
    }

    #[test]
    fn snapshot_is_name_sorted() {
        let r = MetricsRegistry::new();
        r.counter_inc("zz");
        r.counter_inc("aa");
        r.counter_inc("mm");
        let snap = r.snapshot();
        let names: Vec<&str> = snap.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["aa", "mm", "zz"]);
    }

    #[test]
    fn concurrent_increments_sum_exactly() {
        let r = MetricsRegistry::new();
        std::thread::scope(|scope| {
            for t in 0..8 {
                let r = &r;
                scope.spawn(move || {
                    for _ in 0..1000 {
                        r.counter_inc("c_total");
                        r.observe("h", f64::from(t));
                    }
                });
            }
        });
        let snap = r.snapshot();
        assert_eq!(snap.counter("c_total"), 8000);
        assert_eq!(snap.histogram("h").unwrap().count, 8000);
    }
}
