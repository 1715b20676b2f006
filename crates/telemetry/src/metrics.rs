//! The metrics half: a process-wide [`Registry`] of counters, gauges and
//! fixed-bucket log-scale histograms.
//!
//! Design rules:
//!
//! * **Registration is the slow path, observation is the fast path.**
//!   [`Registry::counter`] / [`Registry::gauge`] / [`Registry::histogram`]
//!   take a short mutex to find-or-create the metric; callers cache the
//!   returned handle (typically in a `OnceLock`) and every later update is
//!   pure relaxed atomics.
//! * **Labels are small static key sets.**  Label *keys* are `&'static str`
//!   (they name dimensions the code knows at compile time: `class`,
//!   `lane`, `simd`); label *values* are short strings.  Each distinct
//!   label-value combination is its own child metric.
//! * **Histograms are fixed log-scale buckets.**  31 power-of-two upper
//!   bounds (1, 2, 4, … 2³⁰) plus a +Inf bucket, all atomic `u64`s — wide
//!   enough for microsecond latencies from sub-µs to ~18 minutes with ~2x
//!   relative resolution.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Number of histogram buckets: 31 finite power-of-two bounds plus +Inf.
pub const BUCKETS: usize = 32;

/// Upper bounds (inclusive) of the finite histogram buckets: `2^i` for
/// `i in 0..31`.  The 32nd bucket is +Inf.
pub const BUCKET_BOUNDS: [u64; BUCKETS - 1] = {
    let mut bounds = [0u64; BUCKETS - 1];
    let mut i = 0;
    while i < BUCKETS - 1 {
        bounds[i] = 1u64 << i;
        i += 1;
    }
    bounds
};

/// Index of the bucket a value falls into: the first bucket whose upper
/// bound is `>= v` (the last, +Inf bucket for anything above `2^30`).
fn bucket_index(v: u64) -> usize {
    if v <= 1 {
        0
    } else {
        // ceil(log2(v)) == 64 - (v - 1).leading_zeros()
        (64 - (v - 1).leading_zeros() as usize).min(BUCKETS - 1)
    }
}

/// A monotonically increasing counter.  Cheap to clone (an `Arc` around one
/// atomic); clones observe the same value.
#[derive(Clone, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`, saturating at `u64::MAX` instead of wrapping — a counter
    /// that silently restarts from 0 would break every monotonicity check
    /// downstream.
    pub fn add(&self, n: u64) {
        saturating_fetch_add(&self.0, n);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down (queue depths, open
/// connections).  Cheap to clone; clones observe the same value.
#[derive(Clone, Debug)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the gauge to `v`.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `d` (may be negative).
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Subtracts `d`.
    pub fn sub(&self, d: i64) {
        self.0.fetch_sub(d, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Saturating atomic add: the sum sticks at `u64::MAX` instead of wrapping.
fn saturating_fetch_add(cell: &AtomicU64, v: u64) {
    if v == 0 {
        return;
    }
    let mut current = cell.load(Ordering::Relaxed);
    loop {
        let next = current.saturating_add(v);
        match cell.compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(observed) => current = observed,
        }
    }
}

#[derive(Debug)]
struct HistogramCore {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

/// A fixed-bucket log-scale histogram (see [`BUCKET_BOUNDS`]).  Cheap to
/// clone; clones observe the same buckets.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// Records one observation.  The per-bucket count and the total count
    /// increment; the running sum saturates at `u64::MAX` instead of
    /// wrapping.
    pub fn observe(&self, v: u64) {
        self.0.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        saturating_fetch_add(&self.0.sum, v);
        self.0.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a duration in whole microseconds (sub-µs durations land in
    /// the first bucket).
    pub fn observe_duration(&self, d: std::time::Duration) {
        self.observe(d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values (saturating).
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }
}

/// The resolved identity of one metric: name plus its sorted label set.
type MetricKey = (&'static str, Vec<(&'static str, String)>);

#[derive(Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A process-wide (or test-private) collection of metrics.
///
/// The shared [`global()`] registry is what production wiring uses; tests
/// that need deterministic counters independent of concurrently running
/// tests construct their own with [`Registry::new`] and thread it through
/// the component under test.
pub struct Registry {
    metrics: Mutex<BTreeMap<MetricKey, Metric>>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry {
            metrics: Mutex::new(BTreeMap::new()),
        }
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.metrics.lock().expect("registry poisoned").len();
        f.debug_struct("Registry").field("metrics", &n).finish()
    }
}

/// The shared process-wide registry every production component records into
/// by default.
pub fn global() -> &'static Arc<Registry> {
    static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Arc<Registry> {
        Arc::new(Registry::default())
    }

    fn key(name: &'static str, labels: &[(&'static str, &str)]) -> MetricKey {
        let mut owned: Vec<(&'static str, String)> =
            labels.iter().map(|&(k, v)| (k, v.to_string())).collect();
        owned.sort_unstable();
        (name, owned)
    }

    /// Finds or creates the counter `name{labels}`.  Panics if the same
    /// name+labels was registered as a different metric type (a programmer
    /// error: metric names are static).
    pub fn counter(&self, name: &'static str, labels: &[(&'static str, &str)]) -> Counter {
        let key = Self::key(name, labels);
        let mut metrics = self.metrics.lock().expect("registry poisoned");
        match metrics
            .entry(key)
            .or_insert_with(|| Metric::Counter(Counter(Arc::new(AtomicU64::new(0)))))
        {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// Finds or creates the gauge `name{labels}`.
    pub fn gauge(&self, name: &'static str, labels: &[(&'static str, &str)]) -> Gauge {
        let key = Self::key(name, labels);
        let mut metrics = self.metrics.lock().expect("registry poisoned");
        match metrics
            .entry(key)
            .or_insert_with(|| Metric::Gauge(Gauge(Arc::new(AtomicI64::new(0)))))
        {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// Finds or creates the histogram `name{labels}`.
    pub fn histogram(&self, name: &'static str, labels: &[(&'static str, &str)]) -> Histogram {
        let key = Self::key(name, labels);
        let mut metrics = self.metrics.lock().expect("registry poisoned");
        match metrics.entry(key).or_insert_with(|| {
            Metric::Histogram(Histogram(Arc::new(HistogramCore {
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                sum: AtomicU64::new(0),
                count: AtomicU64::new(0),
            })))
        }) {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// A consistent point-in-time copy of every metric (per-metric atomic
    /// reads; the registry itself is only locked to walk the name table).
    pub fn snapshot(&self) -> Snapshot {
        let metrics = self.metrics.lock().expect("registry poisoned");
        let mut snap = Snapshot::default();
        for ((name, labels), metric) in metrics.iter() {
            match metric {
                Metric::Counter(c) => snap.counters.push(CounterSample {
                    name,
                    labels: labels.clone(),
                    value: c.get(),
                }),
                Metric::Gauge(g) => snap.gauges.push(GaugeSample {
                    name,
                    labels: labels.clone(),
                    value: g.get(),
                }),
                Metric::Histogram(h) => {
                    let buckets: Vec<u64> =
                        h.0.buckets
                            .iter()
                            .map(|b| b.load(Ordering::Relaxed))
                            .collect();
                    snap.histograms.push(HistogramSnapshot {
                        name,
                        labels: labels.clone(),
                        buckets,
                        sum: h.sum(),
                        count: h.count(),
                    });
                }
            }
        }
        snap
    }

    /// Prometheus-compatible text exposition of the whole registry:
    /// `name{label="v"} value` lines, histograms expanded to
    /// `_bucket{le=...}` / `_sum` / `_count` with cumulative bucket counts.
    pub fn render_prometheus(&self) -> String {
        self.snapshot().render_prometheus()
    }
}

/// One counter's value in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSample {
    /// Metric name.
    pub name: &'static str,
    /// Sorted label set.
    pub labels: Vec<(&'static str, String)>,
    /// Counter value at snapshot time.
    pub value: u64,
}

/// One gauge's value in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GaugeSample {
    /// Metric name.
    pub name: &'static str,
    /// Sorted label set.
    pub labels: Vec<(&'static str, String)>,
    /// Gauge value at snapshot time.
    pub value: i64,
}

/// One histogram's state in a [`Snapshot`]: per-bucket (non-cumulative)
/// counts aligned with [`BUCKET_BOUNDS`] plus the +Inf bucket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: &'static str,
    /// Sorted label set.
    pub labels: Vec<(&'static str, String)>,
    /// Per-bucket observation counts (index `i` holds observations `<=
    /// BUCKET_BOUNDS[i]` and above the previous bound; the last entry is the
    /// +Inf bucket).
    pub buckets: Vec<u64>,
    /// Saturating sum of all observations.
    pub sum: u64,
    /// Total observation count.
    pub count: u64,
}

/// A point-in-time copy of a [`Registry`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// All counters, in stable (name, labels) order.
    pub counters: Vec<CounterSample>,
    /// All gauges, in stable (name, labels) order.
    pub gauges: Vec<GaugeSample>,
    /// All histograms, in stable (name, labels) order.
    pub histograms: Vec<HistogramSnapshot>,
}

impl Snapshot {
    /// The counter `name{labels}`, if present.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name && labels_match(&c.labels, labels))
            .map(|c| c.value)
    }

    /// The gauge `name{labels}`, if present.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<i64> {
        self.gauges
            .iter()
            .find(|g| g.name == name && labels_match(&g.labels, labels))
            .map(|g| g.value)
    }

    /// The histogram `name{labels}`, if present.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|h| h.name == name && labels_match(&h.labels, labels))
    }

    /// Prometheus-compatible text exposition; see
    /// [`Registry::render_prometheus`].
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for c in &self.counters {
            out.push_str(&format!(
                "{}{} {}\n",
                c.name,
                label_block(&c.labels, None),
                c.value
            ));
        }
        for g in &self.gauges {
            out.push_str(&format!(
                "{}{} {}\n",
                g.name,
                label_block(&g.labels, None),
                g.value
            ));
        }
        for h in &self.histograms {
            let mut cumulative = 0u64;
            for (i, &n) in h.buckets.iter().enumerate() {
                cumulative = cumulative.saturating_add(n);
                let le = if i < BUCKET_BOUNDS.len() {
                    BUCKET_BOUNDS[i].to_string()
                } else {
                    "+Inf".to_string()
                };
                out.push_str(&format!(
                    "{}_bucket{} {}\n",
                    h.name,
                    label_block(&h.labels, Some(&le)),
                    cumulative
                ));
            }
            out.push_str(&format!(
                "{}_sum{} {}\n",
                h.name,
                label_block(&h.labels, None),
                h.sum
            ));
            out.push_str(&format!(
                "{}_count{} {}\n",
                h.name,
                label_block(&h.labels, None),
                h.count
            ));
        }
        out
    }
}

fn labels_match(mine: &[(&'static str, String)], wanted: &[(&str, &str)]) -> bool {
    mine.len() == wanted.len()
        && wanted
            .iter()
            .all(|&(k, v)| mine.iter().any(|(mk, mv)| *mk == k && mv == v))
}

/// Renders `{a="1",b="2"}` (empty string for no labels), optionally with a
/// trailing `le` label for histogram buckets.
fn label_block(labels: &[(&'static str, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut fields: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{}=\"{}\"", k, prom_escape(v)))
        .collect();
    if let Some(le) = le {
        fields.push(format!("le=\"{le}\""));
    }
    format!("{{{}}}", fields.join(","))
}

fn prom_escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_roundtrip() {
        let registry = Registry::new();
        let c = registry.counter("test_total", &[("class", "a")]);
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same name+labels resolves to the same counter.
        assert_eq!(registry.counter("test_total", &[("class", "a")]).get(), 5);
        // Different labels are a different child.
        assert_eq!(registry.counter("test_total", &[("class", "b")]).get(), 0);

        let g = registry.gauge("test_depth", &[]);
        g.set(7);
        g.add(3);
        g.sub(4);
        assert_eq!(g.get(), 6);

        let snap = registry.snapshot();
        assert_eq!(snap.counter("test_total", &[("class", "a")]), Some(5));
        assert_eq!(snap.counter("test_total", &[("class", "b")]), Some(0));
        assert_eq!(snap.gauge("test_depth", &[]), Some(6));
        assert_eq!(snap.counter("missing", &[]), None);
    }

    #[test]
    fn counter_saturates_instead_of_wrapping() {
        let registry = Registry::new();
        let c = registry.counter("sat_total", &[]);
        c.add(u64::MAX - 1);
        c.add(10);
        assert_eq!(c.get(), u64::MAX, "counter must saturate, not wrap");
    }

    #[test]
    fn bucket_index_covers_the_full_range() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(5), 3);
        assert_eq!(bucket_index(1 << 30), 30);
        assert_eq!(bucket_index((1 << 30) + 1), 31);
        assert_eq!(bucket_index(u64::MAX), 31);
    }

    #[test]
    fn histogram_records_into_log_buckets() {
        let registry = Registry::new();
        let h = registry.histogram("lat_us", &[("class", "spmv")]);
        for v in [0, 1, 2, 3, 1000, 1 << 40] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1006 + (1u64 << 40));
        let snap = registry.snapshot();
        let hist = snap.histogram("lat_us", &[("class", "spmv")]).unwrap();
        assert_eq!(hist.buckets[0], 2); // 0, 1
        assert_eq!(hist.buckets[1], 1); // 2
        assert_eq!(hist.buckets[2], 1); // 3
        assert_eq!(hist.buckets[10], 1); // 1000 <= 1024
        assert_eq!(hist.buckets[BUCKETS - 1], 1); // 2^40 -> +Inf
    }

    #[test]
    fn prometheus_exposition_is_wellformed() {
        let registry = Registry::new();
        registry.counter("reqs_total", &[("lane", "tune")]).add(3);
        registry.gauge("depth", &[]).set(-2);
        let h = registry.histogram("lat_us", &[]);
        h.observe(1);
        h.observe(5);
        let text = registry.render_prometheus();
        assert!(text.contains("reqs_total{lane=\"tune\"} 3\n"));
        assert!(text.contains("depth -2\n"));
        assert!(text.contains("lat_us_bucket{le=\"1\"} 1\n"));
        // Cumulative: the le="8" bucket includes both observations.
        assert!(text.contains("lat_us_bucket{le=\"8\"} 2\n"));
        assert!(text.contains("lat_us_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("lat_us_sum 6\n"));
        assert!(text.contains("lat_us_count 2\n"));
    }

    #[test]
    fn prometheus_exposition_escapes_hostile_label_values() {
        // Inverse of `prom_escape`, per the exposition-format escape rules:
        // \\ -> \, \" -> ", \n -> newline.
        fn prom_unescape(s: &str) -> String {
            let mut out = String::with_capacity(s.len());
            let mut chars = s.chars();
            while let Some(c) = chars.next() {
                if c != '\\' {
                    out.push(c);
                    continue;
                }
                match chars.next() {
                    Some('\\') => out.push('\\'),
                    Some('"') => out.push('"'),
                    Some('n') => out.push('\n'),
                    Some(other) => {
                        out.push('\\');
                        out.push(other);
                    }
                    None => out.push('\\'),
                }
            }
            out
        }

        let hostile = "back\\slash\"quote\nnewline} end";
        let registry = Registry::new();
        registry
            .counter("hostile_total", &[("lane", hostile)])
            .inc();
        let text = registry.render_prometheus();

        // The rendered line must stay a single line with balanced quoting...
        let line = text
            .lines()
            .find(|l| l.starts_with("hostile_total"))
            .expect("hostile counter renders");
        assert_eq!(line.matches('\n').count(), 0);
        assert!(line.ends_with("} 1"));

        // ...and the escaped value must round-trip to the original bytes.
        let start = line.find("lane=\"").expect("label present") + "lane=\"".len();
        let end = line.rfind("\"}").expect("label closes");
        let escaped = &line[start..end];
        assert_eq!(escaped, "back\\\\slash\\\"quote\\nnewline} end");
        assert_eq!(prom_unescape(escaped), hostile);
    }

    #[test]
    fn global_registry_is_a_singleton() {
        let a = global().counter("global_smoke_total", &[]);
        let b = global().counter("global_smoke_total", &[]);
        a.inc();
        assert!(b.get() >= 1);
    }
}
