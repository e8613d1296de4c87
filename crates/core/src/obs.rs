//! Lightweight observability: named counters, accumulated durations, and
//! span-style timers.
//!
//! Training campaigns run "dozens to hundreds of hours" of simulated
//! benchmarking (paper §2); operating that at production scale needs to
//! know *what the pipeline is doing* — points attempted, runs retried,
//! points skipped, time per phase — without dragging in an external
//! metrics stack.  [`Metrics`] is a cheap, thread-safe registry the
//! trainer, the CLI commands, and the benches all share; everything it
//! records is rendered as a sorted text block so reports stay diffable.

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Number of fixed latency buckets: bucket `i` covers `[2^i, 2^(i+1))`
/// microseconds (bucket 0 also absorbs sub-microsecond observations), and
/// the last bucket absorbs everything ≥ 2^27 µs (≈ 134 s).
pub const LATENCY_BUCKETS: usize = 28;

/// A fixed-bucket (log2-spaced, microsecond-based) latency histogram.
/// Fixed buckets keep recording allocation-free after the first
/// observation and make quantiles mergeable and deterministic: a quantile
/// is always reported as the upper bound of the bucket it lands in.
#[derive(Debug, Clone)]
struct Hist {
    counts: [u64; LATENCY_BUCKETS],
    n: u64,
    sum_secs: f64,
    /// Largest observation seen, used to bound quantile reports: the
    /// overflow bucket has no finite upper edge, and reporting its nominal
    /// bound (≈ 268 s) for a 10-minute outlier would *under*report.
    max_secs: f64,
}

impl Default for Hist {
    fn default() -> Self {
        Self { counts: [0; LATENCY_BUCKETS], n: 0, sum_secs: 0.0, max_secs: 0.0 }
    }
}

impl Hist {
    fn bucket_for(secs: f64) -> usize {
        let us = (secs * 1e6).max(0.0);
        let mut b = 0;
        while b + 1 < LATENCY_BUCKETS && us >= (1u64 << (b + 1)) as f64 {
            b += 1;
        }
        b
    }

    /// Upper bound of bucket `b`, in seconds.
    fn upper_secs(b: usize) -> f64 {
        (1u64 << (b + 1)) as f64 / 1e6
    }

    fn record(&mut self, secs: f64) {
        self.counts[Self::bucket_for(secs)] += 1;
        self.n += 1;
        let secs = secs.max(0.0);
        self.sum_secs += secs;
        self.max_secs = self.max_secs.max(secs);
    }

    /// The `q`-quantile (0 < q ≤ 1) as an upper bound on the ⌈q·n⌉-th
    /// smallest observation: the bound of the bucket it lands in, tightened
    /// to the largest observation ever recorded.  The overflow bucket —
    /// whose nominal edge would *under*report anything above ≈ 268 s —
    /// therefore reports the true maximum.  An empty histogram has no
    /// quantiles: always `None`, never a fabricated bound.
    fn quantile(&self, q: f64) -> Option<f64> {
        if self.n == 0 {
            return None;
        }
        let target = ((q.clamp(0.0, 1.0) * self.n as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(if b + 1 == LATENCY_BUCKETS {
                    self.max_secs
                } else {
                    Self::upper_secs(b).min(self.max_secs)
                });
            }
        }
        Some(self.max_secs)
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    /// name → fixed-bucket latency histogram.
    latencies: BTreeMap<String, Hist>,
    /// name → (observation count, accumulated seconds).
    timers: BTreeMap<String, (u64, f64)>,
}

/// A shareable metrics registry (clones observe the same underlying data).
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    inner: Arc<Mutex<Inner>>,
}

impl Metrics {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `by` to a named counter.
    pub fn incr(&self, name: &str, by: u64) {
        if by == 0 {
            return;
        }
        update(&mut self.inner.lock().counters, name, |v| *v += by);
    }

    /// Raise a counter to at least `v` — a high-water-mark gauge (e.g.
    /// `serve.fused_batch.max_requests`, the largest fused batch any worker
    /// has drained).  Merging by max keeps the value meaningful when many
    /// workers report concurrently.
    pub fn record_max(&self, name: &str, v: u64) {
        update(&mut self.inner.lock().counters, name, |e| *e = (*e).max(v));
    }

    /// Record a duration observation (wall clock or simulated seconds —
    /// the name should say which, e.g. `train.sim_secs`).
    pub fn observe_secs(&self, name: &str, secs: f64) {
        update(&mut self.inner.lock().timers, name, |e| {
            e.0 += 1;
            e.1 += secs;
        });
    }

    /// Record one latency observation into a named fixed-bucket histogram
    /// (see [`LATENCY_BUCKETS`]) — per-request stage timings such as queue
    /// wait or predict time, where quantiles matter and per-observation
    /// storage must stay constant.
    pub fn observe_latency(&self, name: &str, secs: f64) {
        update(&mut self.inner.lock().latencies, name, |h| h.record(secs));
    }

    /// The `q`-quantile of a latency histogram (upper bucket bound), or
    /// `None` when nothing was recorded under `name`.
    pub fn latency_quantile(&self, name: &str, q: f64) -> Option<f64> {
        self.inner.lock().latencies.get(name).and_then(|h| h.quantile(q))
    }

    /// Observation count of a latency histogram (0 when never touched).
    pub fn latency_count(&self, name: &str) -> u64 {
        self.inner.lock().latencies.get(name).map(|h| h.n).unwrap_or(0)
    }

    /// Mean of a latency histogram in seconds (0 when never touched).
    pub fn latency_mean_secs(&self, name: &str) -> f64 {
        let inner = self.inner.lock();
        match inner.latencies.get(name) {
            Some(h) if h.n > 0 => h.sum_secs / h.n as f64,
            _ => 0.0,
        }
    }

    /// Start a wall-clock span; the elapsed time is recorded when the
    /// returned guard drops.
    pub fn span(&self, name: &str) -> Span {
        Span { metrics: self.clone(), name: name.to_string(), start: Instant::now() }
    }

    /// Current value of a counter (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner.lock().counters.get(name).copied().unwrap_or(0)
    }

    /// A point-in-time snapshot of every counter, sorted by name.  The
    /// cluster replay harness diffs these between runs (e.g. a kill/rejoin
    /// replay against its no-kill reference), so the order must be
    /// deterministic and the copy must be taken under one lock hold —
    /// counters incremented concurrently are either wholly in or wholly
    /// out, never torn across names.
    pub fn counters(&self) -> Vec<(String, u64)> {
        self.inner.lock().counters.iter().map(|(k, v)| (k.clone(), *v)).collect()
    }

    /// Accumulated seconds of a timer (0 when never touched).
    pub fn total_secs(&self, name: &str) -> f64 {
        self.inner.lock().timers.get(name).map(|(_, s)| *s).unwrap_or(0.0)
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        let inner = self.inner.lock();
        inner.counters.is_empty() && inner.timers.is_empty() && inner.latencies.is_empty()
    }

    /// Render everything recorded as a sorted, aligned text block.  Every
    /// section iterates a `BTreeMap`, so the output is deterministic
    /// (sorted keys) and `--report` text is diffable in tests and CI.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let inner = self.inner.lock();
        let mut s = String::new();
        if !inner.counters.is_empty() {
            writeln!(s, "counters:").unwrap();
            for (name, v) in &inner.counters {
                writeln!(s, "  {name:<36} {v}").unwrap();
            }
        }
        if !inner.latencies.is_empty() {
            writeln!(s, "latencies:").unwrap();
            for (name, h) in &inner.latencies {
                writeln!(
                    s,
                    "  {name:<36} n={:<8} p50={:<9} p95={:<9} p99={}",
                    h.n,
                    fmt_latency(h.quantile(0.50).unwrap_or(0.0)),
                    fmt_latency(h.quantile(0.95).unwrap_or(0.0)),
                    fmt_latency(h.quantile(0.99).unwrap_or(0.0)),
                )
                .unwrap();
            }
        }
        if !inner.timers.is_empty() {
            writeln!(s, "timings:").unwrap();
            for (name, (n, secs)) in &inner.timers {
                writeln!(s, "  {name:<36} {secs:>10.3}s over {n} observation(s)").unwrap();
            }
        }
        s
    }
}

/// Apply `f` to the entry for `name`, created at its default on first
/// use: one lookup when the name exists, and the key `String` is
/// allocated only on that first use.
fn update<V: Default>(map: &mut BTreeMap<String, V>, name: &str, f: impl FnOnce(&mut V)) {
    match map.get_mut(name) {
        Some(v) => f(v),
        None => f(map.entry(name.to_string()).or_default()),
    }
}

/// Render a latency in the most readable unit (µs below 1 ms, ms below
/// 1 s, else seconds); purely a function of the value, so reports stay
/// deterministic.
fn fmt_latency(secs: f64) -> String {
    if secs < 1e-3 {
        format!("{:.0}µs", secs * 1e6)
    } else if secs < 1.0 {
        format!("{:.1}ms", secs * 1e3)
    } else {
        format!("{secs:.2}s")
    }
}

/// A live span; records its wall-clock lifetime into the registry on drop.
#[derive(Debug)]
pub struct Span {
    metrics: Metrics,
    name: String,
    start: Instant,
}

impl Span {
    /// Seconds elapsed so far.
    pub fn elapsed_secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let secs = self.elapsed_secs();
        self.metrics.observe_secs(&self.name, secs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_render() {
        let m = Metrics::new();
        assert!(m.is_empty());
        m.incr("points.attempted", 3);
        m.incr("points.attempted", 2);
        m.incr("points.skipped", 0); // no-op, stays unrecorded
        assert_eq!(m.counter("points.attempted"), 5);
        assert_eq!(m.counter("points.skipped"), 0);
        let r = m.render();
        assert!(r.contains("points.attempted"), "{r}");
        assert!(!r.contains("points.skipped"), "{r}");
    }

    #[test]
    fn counters_snapshot_is_sorted_and_complete() {
        let m = Metrics::new();
        m.incr("b.second", 2);
        m.incr("a.first", 1);
        m.incr("c.third", 3);
        assert_eq!(
            m.counters(),
            vec![
                ("a.first".to_string(), 1),
                ("b.second".to_string(), 2),
                ("c.third".to_string(), 3)
            ]
        );
    }

    #[test]
    fn record_max_keeps_the_high_water_mark() {
        let m = Metrics::new();
        m.record_max("serve.fused_batch.max_requests", 3);
        m.record_max("serve.fused_batch.max_requests", 7);
        m.record_max("serve.fused_batch.max_requests", 5);
        assert_eq!(m.counter("serve.fused_batch.max_requests"), 7);
        m.record_max("serve.fused_batch.max_requests", 0);
        assert_eq!(m.counter("serve.fused_batch.max_requests"), 7);
    }

    #[test]
    fn empty_registry_renders_deterministically_and_nan_free() {
        // An untouched registry (e.g. a fresh server whose cache was never
        // probed) must render the same bytes every time and never inject
        // NaN into report diffs.
        let m = Metrics::new();
        assert!(m.is_empty());
        assert_eq!(m.render(), "");
        assert_eq!(m.render(), m.clone().render(), "render is deterministic");
        assert!(!m.render().contains("NaN"));
        assert_eq!(m.latency_mean_secs("never.recorded"), 0.0);
        assert!(m.latency_mean_secs("never.recorded").is_finite());
    }

    #[test]
    fn clones_share_the_registry() {
        let m = Metrics::new();
        let c = m.clone();
        c.incr("x", 1);
        assert_eq!(m.counter("x"), 1);
    }

    #[test]
    fn spans_record_elapsed_time_on_drop() {
        let m = Metrics::new();
        {
            let _s = m.span("phase.test");
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert!(m.total_secs("phase.test") > 0.0);
        assert!(m.render().contains("phase.test"));
    }

    #[test]
    fn observed_seconds_sum_across_observations() {
        let m = Metrics::new();
        m.observe_secs("train.sim_secs", 1.5);
        m.observe_secs("train.sim_secs", 2.5);
        assert_eq!(m.total_secs("train.sim_secs"), 4.0);
        assert!(m.render().contains("2 observation(s)"));
    }

    #[test]
    fn latency_buckets_cover_the_range() {
        assert_eq!(Hist::bucket_for(0.0), 0);
        assert_eq!(Hist::bucket_for(0.5e-6), 0, "sub-µs lands in bucket 0");
        assert_eq!(Hist::bucket_for(1.5e-6), 0, "[1µs, 2µs)");
        assert_eq!(Hist::bucket_for(2.0e-6), 1);
        assert_eq!(Hist::bucket_for(1.1e-3), Hist::bucket_for(1.9e-3), "same [1024µs, 2048µs) band");
        assert_eq!(Hist::bucket_for(1e9), LATENCY_BUCKETS - 1, "overflow clamps");
    }

    #[test]
    fn latency_quantiles_walk_the_buckets() {
        let m = Metrics::new();
        assert_eq!(m.latency_quantile("serve.predict", 0.5), None);
        // 90 fast observations (~2-4µs band) and 10 slow ones (~2-4ms band).
        for _ in 0..90 {
            m.observe_latency("serve.predict", 3e-6);
        }
        for _ in 0..10 {
            m.observe_latency("serve.predict", 3e-3);
        }
        assert_eq!(m.latency_count("serve.predict"), 100);
        let p50 = m.latency_quantile("serve.predict", 0.50).unwrap();
        let p99 = m.latency_quantile("serve.predict", 0.99).unwrap();
        assert!(p50 <= 8e-6, "p50 {p50} should sit in the fast band");
        assert!(p99 >= 2e-3, "p99 {p99} should sit in the slow band");
        assert!((m.latency_mean_secs("serve.predict") - (90.0 * 3e-6 + 10.0 * 3e-3) / 100.0).abs() < 1e-12);
        let r = m.render();
        assert!(r.contains("latencies:"), "{r}");
        assert!(r.contains("serve.predict"), "{r}");
        assert!(r.contains("p99="), "{r}");
    }

    #[test]
    fn overflow_bucket_quantile_reports_the_true_maximum() {
        // Pre-fix, a histogram whose only observation sat in the overflow
        // bucket reported the bucket's nominal edge (≈ 268.4 s) for
        // quantile(1.0) — underreporting a 300 s outlier by half a minute.
        let mut h = Hist::default();
        h.record(300.0);
        assert_eq!(Hist::bucket_for(300.0), LATENCY_BUCKETS - 1);
        assert_eq!(h.quantile(1.0), Some(300.0));
        assert_eq!(h.quantile(0.5), Some(300.0));
        // Mixed: the overflow outlier still dominates high quantiles.
        for _ in 0..99 {
            h.record(1e-3);
        }
        assert_eq!(h.quantile(1.0), Some(300.0));
        assert!(h.quantile(0.5).unwrap() < 1.0);
    }

    #[test]
    fn quantiles_are_tightened_to_the_observed_maximum() {
        // A single 3 ms observation lands in the [2048µs, 4096µs) bucket;
        // the quantile must not report the loose 4.096 ms edge.
        let mut h = Hist::default();
        h.record(3e-3);
        assert_eq!(h.quantile(1.0), Some(3e-3));
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = Hist::default();
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), None, "q={q}");
        }
        let m = Metrics::new();
        assert_eq!(m.latency_quantile("never.recorded", 1.0), None);
        assert_eq!(m.latency_count("never.recorded"), 0);
    }

    #[test]
    fn render_is_deterministic_and_sorted_regardless_of_insertion_order() {
        let fill = |names: &[&str]| {
            let m = Metrics::new();
            for n in names {
                m.incr(n, 2);
                m.observe_secs(n, 1.0);
                m.observe_latency(n, 5e-6);
            }
            m.render()
        };
        let a = fill(&["b.two", "a.one", "c.three"]);
        let b = fill(&["c.three", "a.one", "b.two"]);
        assert_eq!(a, b, "insertion order must not leak into the report");
        let idx = |r: &str, name: &str| r.find(name).unwrap();
        let counters = a.split("latencies:").next().unwrap().to_string();
        assert!(idx(&counters, "a.one") < idx(&counters, "b.two"));
        assert!(idx(&counters, "b.two") < idx(&counters, "c.three"));
        // Section order is fixed: counters, latencies, timings.
        assert!(idx(&a, "counters:") < idx(&a, "latencies:"));
        assert!(idx(&a, "latencies:") < idx(&a, "timings:"));
    }
}
