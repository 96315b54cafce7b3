//! Labelled counters, gauges and log-bucketed histograms.
//!
//! The [`Metrics`] handle is cheap to clone and a no-op when disabled.
//! Callers resolve a series once to a [`CounterHandle`],
//! [`GaugeHandle`] or [`HistogramHandle`] and record through it; the
//! [`Registry`] snapshot keys every series by metric name plus a sorted
//! label set, so iteration order (and therefore every exporter's
//! output) is deterministic.
//!
//! [`Histogram`] buckets grow geometrically by [`Histogram::GROWTH`]
//! (10% per bucket), which bounds the error of
//! [`Histogram::quantile`] to one bucket relative to the exact
//! nearest-rank percentile (`krisp_sim::stats::percentile` is the
//! reference definition): the exact rank-`r` sample lies inside the
//! bucket whose upper bound the sketch reports.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A metric series identifier: name plus sorted `(label, value)` pairs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Metric name (Prometheus conventions: `snake_case`, unit suffix).
    pub name: String,
    /// Label pairs, sorted by label name.
    pub labels: Vec<(String, String)>,
}

impl MetricKey {
    /// Builds a key, sorting the labels.
    pub fn new(name: &str, labels: &[(&str, &str)]) -> MetricKey {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        MetricKey {
            name: name.to_string(),
            labels,
        }
    }
}

/// A log-bucketed histogram sketch.
///
/// Values map to bucket `floor(ln(v) / ln(GROWTH))`; non-positive values
/// share a dedicated underflow bucket. Only non-empty buckets are
/// stored, so a series covering nanoseconds to seconds stays small.
///
/// # Examples
///
/// ```
/// use krisp_obs::Histogram;
///
/// let mut h = Histogram::new();
/// for v in 1..=100 {
///     h.observe(f64::from(v));
/// }
/// let p95 = h.quantile(95.0).unwrap();
/// // Within one 10% bucket of the exact nearest-rank value, 95.
/// assert!((Histogram::bucket_of(p95) - Histogram::bucket_of(95.0)).abs() <= 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Histogram {
    buckets: BTreeMap<i32, u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// Geometric bucket growth factor: each bucket's upper bound is 10%
    /// above the previous one.
    pub const GROWTH: f64 = 1.1;

    /// Bucket index of the underflow bucket (values `<= 0`).
    pub const UNDERFLOW: i32 = i32::MIN;

    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// The bucket index a value falls into.
    pub fn bucket_of(value: f64) -> i32 {
        if value <= 0.0 || !value.is_finite() {
            return Histogram::UNDERFLOW;
        }
        (value.ln() / Histogram::GROWTH.ln()).floor() as i32
    }

    /// `(lower, upper]` bounds of bucket `index`. The underflow bucket
    /// reports `(0, 0]`.
    pub fn bucket_bounds(index: i32) -> (f64, f64) {
        if index == Histogram::UNDERFLOW {
            return (0.0, 0.0);
        }
        let lower = Histogram::GROWTH.powi(index);
        (lower, lower * Histogram::GROWTH)
    }

    /// Records one observation.
    pub fn observe(&mut self, value: f64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum += value;
        *self.buckets.entry(Histogram::bucket_of(value)).or_insert(0) += 1;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest observation (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Arithmetic mean (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Nearest-rank quantile estimate for `p` in `0.0..=100.0`: the
    /// upper bound of the bucket holding the rank-`ceil(p/100 · n)`
    /// observation (clamped to the observed min/max so the estimate
    /// never leaves the sample range). `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `0.0..=100.0`.
    pub fn quantile(&self, p: f64) -> Option<f64> {
        assert!((0.0..=100.0).contains(&p), "quantile {p} out of range");
        if self.count == 0 {
            return None;
        }
        let rank = ((p / 100.0 * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (&index, &n) in &self.buckets {
            seen += n;
            if seen >= rank {
                let (_, upper) = Histogram::bucket_bounds(index);
                return Some(upper.clamp(self.min, self.max));
            }
        }
        unreachable!("bucket counts sum to self.count");
    }

    /// Non-empty buckets as `(index, count)`, ascending by index.
    pub fn buckets(&self) -> impl Iterator<Item = (i32, u64)> + '_ {
        self.buckets.iter().map(|(&i, &n)| (i, n))
    }
}

/// A point-in-time copy of every recorded series: the read-only type
/// exporters and reports consume ([`Metrics::snapshot`] builds it).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    counters: BTreeMap<MetricKey, u64>,
    gauges: BTreeMap<MetricKey, f64>,
    histograms: BTreeMap<MetricKey, Histogram>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Reads a counter series.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        self.counters.get(&MetricKey::new(name, labels)).copied()
    }

    /// Reads a gauge series.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.gauges.get(&MetricKey::new(name, labels)).copied()
    }

    /// Reads a histogram series.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Histogram> {
        self.histograms.get(&MetricKey::new(name, labels))
    }

    /// All counter series, in key order.
    pub fn counters(&self) -> impl Iterator<Item = (&MetricKey, u64)> {
        self.counters.iter().map(|(k, &v)| (k, v))
    }

    /// All gauge series, in key order.
    pub fn gauges(&self) -> impl Iterator<Item = (&MetricKey, f64)> {
        self.gauges.iter().map(|(k, &v)| (k, v))
    }

    /// All histogram series, in key order.
    pub fn histograms(&self) -> impl Iterator<Item = (&MetricKey, &Histogram)> {
        self.histograms.iter()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }
}

/// The cell behind a counter series (its value) or a gauge series (its
/// `f64` bits). `touched` marks the first recording, so a resolved but
/// never-recorded series stays out of snapshots (an `inc` of 0 still
/// counts as a recording). It is set with `Release` after the value is
/// written, so a snapshot that sees it also sees that value.
#[derive(Debug, Default)]
struct AtomicCell {
    value: AtomicU64,
    touched: AtomicBool,
}

impl AtomicCell {
    /// The value, once something has been recorded.
    fn recorded(&self) -> Option<u64> {
        self.touched
            .load(Ordering::Acquire)
            .then(|| self.value.load(Ordering::Relaxed))
    }
}

type Cells<C> = Mutex<BTreeMap<MetricKey, Arc<C>>>;

/// Every series' cell, by key. The maps are locked only to resolve a
/// series or to take a snapshot; recording goes straight to a cell.
#[derive(Debug, Default)]
struct Store {
    counters: Cells<AtomicCell>,
    gauges: Cells<AtomicCell>,
    histograms: Cells<Mutex<Histogram>>,
}

/// The cell for `(name, labels)` in `cells`, created on first resolve.
fn resolve<C: Default>(cells: &Cells<C>, name: &str, labels: &[(&str, &str)]) -> Arc<C> {
    cells
        .lock()
        .expect("registry poisoned")
        .entry(MetricKey::new(name, labels))
        .or_default()
        .clone()
}

/// The recorded series of `cells`, as `(key, value)` for the snapshot.
fn recorded<C, V>(cells: &Cells<C>, value: impl Fn(&C) -> Option<V>) -> BTreeMap<MetricKey, V> {
    cells
        .lock()
        .expect("registry poisoned")
        .iter()
        .filter_map(|(key, cell)| Some((key.clone(), value(cell)?)))
        .collect()
}

/// A resolved counter series. Recording is one atomic add; a handle
/// from a disabled [`Metrics`] holds `None` and records nothing.
#[derive(Debug, Clone, Default)]
pub struct CounterHandle(Option<Arc<AtomicCell>>);

impl CounterHandle {
    /// Adds `delta` to the series.
    #[inline]
    pub fn inc(&self, delta: u64) {
        if let Some(cell) = &self.0 {
            cell.value.fetch_add(delta, Ordering::Relaxed);
            cell.touched.store(true, Ordering::Release);
        }
    }
}

/// A resolved gauge series (see [`CounterHandle`]).
#[derive(Debug, Clone, Default)]
pub struct GaugeHandle(Option<Arc<AtomicCell>>);

impl GaugeHandle {
    /// Sets the series to `value`.
    #[inline]
    pub fn set(&self, value: f64) {
        if let Some(cell) = &self.0 {
            cell.value.store(value.to_bits(), Ordering::Relaxed);
            cell.touched.store(true, Ordering::Release);
        }
    }
}

/// A resolved histogram series, behind its own lock (see
/// [`CounterHandle`]).
#[derive(Debug, Clone, Default)]
pub struct HistogramHandle(Option<Arc<Mutex<Histogram>>>);

impl HistogramHandle {
    /// True when the handle records (it came from a live [`Metrics`]),
    /// so a caller can skip measuring a value nobody keeps.
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Records one observation.
    #[inline]
    pub fn observe(&self, value: f64) {
        if let Some(cell) = &self.0 {
            cell.lock().expect("histogram poisoned").observe(value);
        }
    }
}

/// The producer-side handle: cheap to clone, `Send`, no-op when
/// disabled. Clones share one store.
///
/// Hot paths resolve each series once with [`Metrics::counter`],
/// [`Metrics::gauge`] or [`Metrics::histogram`] and record through the
/// handle: no allocation, no key comparison, no store-wide lock. The
/// string-keyed [`Metrics::inc`], [`Metrics::set_gauge`] and
/// [`Metrics::observe`] resolve and record in one call, for cold sites.
/// Either way a series appears in [`Metrics::snapshot`] from its first
/// recording on, and two resolutions of one key share one cell.
///
/// # Examples
///
/// ```
/// use krisp_obs::Metrics;
///
/// let m = Metrics::recording();
/// let hits = m.counter("hits_total", &[("worker", "0")]);
/// assert!(m.snapshot().unwrap().is_empty(), "resolved, not yet recorded");
/// hits.inc(2);
/// m.inc("hits_total", &[("worker", "0")], 3);
/// assert_eq!(m.snapshot().unwrap().counter("hits_total", &[("worker", "0")]), Some(5));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    inner: Option<Arc<Store>>,
}

impl Metrics {
    /// A live handle over a fresh store.
    pub fn recording() -> Metrics {
        Metrics {
            inner: Some(Arc::default()),
        }
    }

    /// A disabled handle: every recording call is a no-op.
    pub fn disabled() -> Metrics {
        Metrics::default()
    }

    /// True when recording.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Resolves a counter series to a handle.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> CounterHandle {
        CounterHandle(
            self.inner
                .as_ref()
                .map(|s| resolve(&s.counters, name, labels)),
        )
    }

    /// Resolves a gauge series to a handle.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> GaugeHandle {
        GaugeHandle(
            self.inner
                .as_ref()
                .map(|s| resolve(&s.gauges, name, labels)),
        )
    }

    /// Resolves a histogram series to a handle.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> HistogramHandle {
        HistogramHandle(
            self.inner
                .as_ref()
                .map(|s| resolve(&s.histograms, name, labels)),
        )
    }

    /// Adds `delta` to a counter series.
    pub fn inc(&self, name: &str, labels: &[(&str, &str)], delta: u64) {
        self.counter(name, labels).inc(delta);
    }

    /// Sets a gauge series.
    pub fn set_gauge(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.gauge(name, labels).set(value);
    }

    /// Records a histogram observation.
    pub fn observe(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.histogram(name, labels).observe(value);
    }

    /// A point-in-time copy of every recorded series (`None` when
    /// disabled).
    pub fn snapshot(&self) -> Option<Registry> {
        let store = self.inner.as_ref()?;
        Some(Registry {
            counters: recorded(&store.counters, AtomicCell::recorded),
            gauges: recorded(&store.gauges, |g| g.recorded().map(f64::from_bits)),
            histograms: recorded(&store.histograms, |h| {
                let h = h.lock().expect("histogram poisoned");
                (h.count() > 0).then(|| h.clone())
            }),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_sort_their_labels() {
        let a = MetricKey::new("m", &[("b", "2"), ("a", "1")]);
        let b = MetricKey::new("m", &[("a", "1"), ("b", "2")]);
        assert_eq!(a, b);
    }

    #[test]
    fn counters_gauges_histograms_round_trip() {
        let m = Metrics::recording();
        m.inc("hits", &[("worker", "0")], 2);
        m.inc("hits", &[("worker", "0")], 3);
        m.set_gauge("depth", &[], 4.0);
        m.observe("lat", &[], 10.0);
        let r = m.snapshot().unwrap();
        assert_eq!(r.counter("hits", &[("worker", "0")]), Some(5));
        assert_eq!(r.gauge("depth", &[]), Some(4.0));
        assert_eq!(r.histogram("lat", &[]).unwrap().count(), 1);
        assert_eq!(r.counter("hits", &[("worker", "1")]), None);
    }

    #[test]
    fn disabled_metrics_record_nothing() {
        let m = Metrics::disabled();
        m.inc("hits", &[], 1);
        m.counter("hits", &[]).inc(1);
        m.gauge("depth", &[]).set(1.0);
        m.histogram("lat", &[]).observe(1.0);
        assert!(m.counter("hits", &[]).0.is_none());
        assert!(m.snapshot().is_none());
    }

    #[test]
    fn resolved_but_unrecorded_series_stay_out_of_snapshots() {
        let m = Metrics::recording();
        let _c = m.counter("hits", &[("worker", "0")]);
        let _g = m.gauge("depth", &[]);
        let _h = m.histogram("lat", &[]);
        assert!(m.snapshot().unwrap().is_empty());
    }

    #[test]
    fn an_increment_of_zero_creates_its_series() {
        let m = Metrics::recording();
        m.inc("by_key", &[], 0);
        m.counter("by_handle", &[]).inc(0);
        let r = m.snapshot().unwrap();
        assert_eq!(r.counter("by_key", &[]), Some(0));
        assert_eq!(r.counter("by_handle", &[]), Some(0));
    }

    #[test]
    fn two_handles_to_one_key_share_a_cell() {
        let m = Metrics::recording();
        let labels = [("a", "1"), ("b", "2")];
        let swapped = [("b", "2"), ("a", "1")];
        m.counter("c", &labels).inc(1);
        m.counter("c", &swapped).inc(2);
        m.gauge("g", &labels).set(1.0);
        m.gauge("g", &swapped).set(7.0);
        m.histogram("h", &labels).observe(1.0);
        m.clone().histogram("h", &swapped).observe(2.0);
        let r = m.snapshot().unwrap();
        assert_eq!(r.counter("c", &labels), Some(3));
        assert_eq!(r.gauge("g", &labels), Some(7.0));
        assert_eq!(r.histogram("h", &labels).unwrap().count(), 2);
        assert_eq!(r.counters().count(), 1);
    }

    /// SplitMix64: a dependency-free seeded generator for the
    /// differential test below.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> usize {
            (self.next() % n) as usize
        }

        /// Uniform in `[-10, 90)`, so histograms see the underflow bucket.
        fn value(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64 * 100.0 - 10.0
        }
    }

    #[test]
    fn handles_and_string_keyed_calls_record_identical_registries() {
        use crate::prometheus::{render_json, render_text};

        const NAMES: [&str; 3] = ["krisp_a_total", "krisp_b", "krisp_c_ns"];
        const WORKERS: [&str; 4] = ["0", "1", "10", "none"];
        let labels = |w: &'static str| -> Vec<(&'static str, &'static str)> {
            if w == "none" {
                Vec::new()
            } else {
                vec![("worker", w), ("model", "squeezenet")]
            }
        };
        for seed in 0..16 {
            let mut rng = SplitMix(seed);
            let by_key = Metrics::recording();
            let by_handle = Metrics::recording();
            // Every series is resolved up front; only recorded ones may
            // reach the snapshot.
            let mut counters = Vec::new();
            let mut gauges = Vec::new();
            let mut histograms = Vec::new();
            for name in NAMES {
                for w in WORKERS {
                    counters.push(by_handle.counter(name, &labels(w)));
                    gauges.push(by_handle.gauge(name, &labels(w)));
                    histograms.push(by_handle.histogram(name, &labels(w)));
                }
            }
            for _ in 0..200 {
                let series = rng.below((NAMES.len() * WORKERS.len()) as u64);
                let (name, w) = (
                    NAMES[series / WORKERS.len()],
                    WORKERS[series % WORKERS.len()],
                );
                match rng.below(3) {
                    0 => {
                        let delta = rng.below(4) as u64;
                        by_key.inc(name, &labels(w), delta);
                        counters[series].inc(delta);
                    }
                    1 => {
                        let v = rng.value();
                        by_key.set_gauge(name, &labels(w), v);
                        gauges[series].set(v);
                    }
                    _ => {
                        let v = rng.value();
                        by_key.observe(name, &labels(w), v);
                        histograms[series].observe(v);
                    }
                }
            }
            let (a, b) = (by_key.snapshot().unwrap(), by_handle.snapshot().unwrap());
            assert_eq!(a, b, "seed {seed}");
            assert_eq!(render_text(&a), render_text(&b), "seed {seed}");
            assert_eq!(render_json(&a), render_json(&b), "seed {seed}");
        }
    }

    #[test]
    fn histogram_tracks_extremes_and_mean() {
        let mut h = Histogram::new();
        for v in [2.0, 8.0, 4.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), Some(2.0));
        assert_eq!(h.max(), Some(8.0));
        assert!((h.mean().unwrap() - 14.0 / 3.0).abs() < 1e-12);
        assert!(Histogram::new().quantile(50.0).is_none());
    }

    #[test]
    fn histogram_underflow_bucket_catches_nonpositive_values() {
        let mut h = Histogram::new();
        h.observe(0.0);
        h.observe(-3.0);
        assert_eq!(h.quantile(100.0), Some(0.0));
        let (lo, hi) = Histogram::bucket_bounds(Histogram::UNDERFLOW);
        assert_eq!((lo, hi), (0.0, 0.0));
    }

    #[test]
    fn quantile_stays_within_one_bucket_of_nearest_rank() {
        // Mirror of krisp_sim::stats::percentile (nearest rank).
        let exact = |sorted: &[f64], p: f64| {
            let n = sorted.len();
            let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
            sorted[rank - 1]
        };
        let mut samples: Vec<f64> = (1..=500).map(|i| (i as f64) * 0.37 + 0.5).collect();
        let mut h = Histogram::new();
        for &s in &samples {
            h.observe(s);
        }
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for p in [0.0, 10.0, 50.0, 90.0, 95.0, 99.0, 100.0] {
            let sketch = h.quantile(p).unwrap();
            let truth = exact(&samples, p);
            let off = (Histogram::bucket_of(sketch) - Histogram::bucket_of(truth)).abs();
            assert!(off <= 1, "p{p}: sketch {sketch} vs exact {truth}");
        }
    }

    #[test]
    fn quantile_is_clamped_to_the_sample_range() {
        let mut h = Histogram::new();
        h.observe(42.0);
        assert_eq!(h.quantile(0.0), Some(42.0));
        assert_eq!(h.quantile(100.0), Some(42.0));
    }
}
