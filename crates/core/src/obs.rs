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
//!
//! The by-name calls ([`Metrics::incr`], [`Metrics::record_max`],
//! [`Metrics::observe_secs`]) take the registry lock and look the name up;
//! they suit cold paths such as training summaries and CLI phases.  A hot
//! path registers handles once instead ([`Metrics::counter_handle`],
//! [`Metrics::latency_handle`]): each is an `Arc` to relaxed atomic cells
//! listed under its name, so recording takes no lock and does no lookup.
//! Latency histograms are recorded through handles only; a counter read
//! adds a name's cells to its by-name value, so readers cannot tell the
//! two ways apart.

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Linear sub-buckets per power of two: `2^SUB_BITS`.
const SUB_BITS: u32 = 3;
const SUB: usize = 1 << SUB_BITS;
/// Width of the finest buckets: one µs is exactly `SUB` units.
const UNIT_NS: u64 = 125;
/// Observations of `2^OVERFLOW_BITS` units (2^27 µs ≈ 134 s) or more land
/// in the overflow bucket.
const OVERFLOW_BITS: u32 = 30;

/// Number of fixed latency buckets (HDR-style, log-linear): `[0, 1 µs)` in
/// 8 linear 125 ns buckets, then each power of two from 1 µs up to 2^27 µs
/// in 8 linear sub-buckets (each an eighth of its octave wide, so a
/// bucket's upper edge overstates an observation by at most 12.5%), and a
/// last bucket absorbing everything ≥ 2^27 µs (≈ 134 s).
pub const LATENCY_BUCKETS: usize = SUB + (OVERFLOW_BITS - SUB_BITS) as usize * SUB + 1;

/// The bucket of an observation of `ns` nanoseconds, in O(1).
fn bucket_for_ns(ns: u64) -> usize {
    let v = ns / UNIT_NS;
    if v < SUB as u64 {
        return v as usize;
    }
    if v >> OVERFLOW_BITS != 0 {
        return LATENCY_BUCKETS - 1;
    }
    let octave = 63 - v.leading_zeros(); // SUB_BITS ..= OVERFLOW_BITS - 1
    let sub = (v >> (octave - SUB_BITS)) as usize & (SUB - 1);
    (octave - SUB_BITS + 1) as usize * SUB + sub
}

/// Exclusive upper edge of bucket `b` (not the overflow bucket), in ns.
fn upper_ns(b: usize) -> u64 {
    let units = if b < SUB {
        b as u64 + 1
    } else {
        ((SUB + b % SUB + 1) as u64) << (b / SUB - 1)
    };
    units * UNIT_NS
}

fn ns_to_secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// A fixed-bucket latency histogram (see [`LATENCY_BUCKETS`]): the read
/// side of a name's [`LatencyHandle`] cells.  Fixed buckets keep recording
/// allocation-free and make quantiles mergeable and deterministic: a
/// quantile is always reported as the upper edge of the bucket it lands
/// in.  The observation count is derived from the bucket counts, so a
/// histogram merged from live cells is self-consistent.
#[derive(Debug)]
struct Hist {
    counts: [u64; LATENCY_BUCKETS],
    sum_ns: u64,
    /// Largest observation seen, used to bound quantile reports: the
    /// overflow bucket has no finite upper edge, and reporting a nominal
    /// bound for a 10-minute outlier would *under*report.
    max_ns: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Self { counts: [0; LATENCY_BUCKETS], sum_ns: 0, max_ns: 0 }
    }
}

impl Hist {
    /// The sum of every handle's cells registered under one name.
    fn merged(handles: &[Arc<LatencyCells>]) -> Self {
        let mut h = Self::default();
        for cells in handles {
            for (c, cell) in h.counts.iter_mut().zip(&cells.counts) {
                *c += cell.load(Relaxed);
            }
            h.sum_ns = h.sum_ns.wrapping_add(cells.sum_ns.load(Relaxed));
            h.max_ns = h.max_ns.max(cells.max_ns.load(Relaxed));
        }
        h
    }

    fn n(&self) -> u64 {
        self.counts.iter().sum()
    }

    fn mean_secs(&self) -> f64 {
        match self.n() {
            0 => 0.0,
            n => ns_to_secs(self.sum_ns) / n as f64,
        }
    }

    /// The `q`-quantile (0 < q ≤ 1) as an upper bound on the ⌈q·n⌉-th
    /// smallest observation: the upper edge of the bucket it lands in,
    /// tightened to the largest observation ever recorded.  The overflow
    /// bucket therefore reports the true maximum.  An empty histogram has
    /// no quantiles: always `None`, never a fabricated bound.
    fn quantile(&self, q: f64) -> Option<f64> {
        let n = self.n();
        if n == 0 {
            return None;
        }
        let target = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(ns_to_secs(if b + 1 == LATENCY_BUCKETS {
                    self.max_ns
                } else {
                    upper_ns(b).min(self.max_ns)
                }));
            }
        }
        Some(ns_to_secs(self.max_ns))
    }
}

/// The atomic cells behind one [`LatencyHandle`].
#[derive(Debug)]
struct LatencyCells {
    counts: [AtomicU64; LATENCY_BUCKETS],
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for LatencyCells {
    fn default() -> Self {
        Self {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }
}

/// A pre-registered counter: [`CounterHandle::incr`] adds to one relaxed
/// atomic cell, which reads add to the counter of the same name.
#[derive(Debug, Clone)]
pub struct CounterHandle(Arc<AtomicU64>);

impl CounterHandle {
    /// Add `by` to the counter.
    pub fn incr(&self, by: u64) {
        self.0.fetch_add(by, Relaxed);
    }
}

/// A pre-registered latency histogram; reads merge its cells bucket by
/// bucket with every other handle's under the same name.
#[derive(Debug, Clone)]
pub struct LatencyHandle(Arc<LatencyCells>);

impl LatencyHandle {
    /// Record one observation.
    pub fn observe(&self, d: Duration) {
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        let cells = &*self.0;
        cells.counts[bucket_for_ns(ns)].fetch_add(1, Relaxed);
        cells.sum_ns.fetch_add(ns, Relaxed);
        if ns > cells.max_ns.load(Relaxed) {
            cells.max_ns.fetch_max(ns, Relaxed);
        }
    }
}

/// Cells registered under each name.
type Cells<C> = BTreeMap<String, Vec<Arc<C>>>;

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    /// name → (observation count, accumulated seconds).
    timers: BTreeMap<String, (u64, f64)>,
    counter_cells: Cells<AtomicU64>,
    latency_cells: Cells<LatencyCells>,
}

impl Inner {
    /// The sum of the counter cells registered under `name`.
    fn cell_sum(&self, name: &str) -> u64 {
        self.counter_cells.get(name).into_iter().flatten().map(|c| c.load(Relaxed)).sum()
    }

    /// Every counter: its by-name value plus the sum of its cells.  A
    /// name known only through cells that are all zero is left out, as a
    /// by-name counter is until its first non-zero `incr`.
    fn merged_counters(&self) -> BTreeMap<&str, u64> {
        let mut out: BTreeMap<&str, u64> =
            self.counters.iter().map(|(name, &v)| (name.as_str(), v)).collect();
        for name in self.counter_cells.keys() {
            let sum = self.cell_sum(name);
            if sum > 0 {
                *out.entry(name).or_default() += sum;
            }
        }
        out
    }

    /// The histogram of `name` merged from its cells; `None` when nothing
    /// was observed under it.
    fn latency(&self, name: &str) -> Option<Hist> {
        let h = Hist::merged(self.latency_cells.get(name)?);
        (h.n() > 0).then_some(h)
    }

    /// Every histogram with an observation, merged, sorted by name.
    fn merged_latencies(&self) -> BTreeMap<&str, Hist> {
        let names = self.latency_cells.keys();
        names.filter_map(|name| Some((name.as_str(), self.latency(name)?))).collect()
    }
}

/// A cell for a new handle under `name`.  A cell no handle holds any more
/// (its worker stopped) keeps its totals and is handed to the next
/// registration, so restarts do not grow the registry.
fn register<C: Default>(cells: &mut Cells<C>, name: &str) -> Arc<C> {
    let cells = cells.entry(name.to_string()).or_default();
    if let Some(idle) = cells.iter().find(|c| Arc::strong_count(c) == 1) {
        return Arc::clone(idle);
    }
    let cell = Arc::new(C::default());
    cells.push(Arc::clone(&cell));
    cell
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
    /// `serve.fused_batch.max_requests`, the largest batch any worker has
    /// drained).  Merging by max keeps the value meaningful when many
    /// threads report concurrently.
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

    /// Register a counter handle under `name` (see the module docs).
    pub fn counter_handle(&self, name: &str) -> CounterHandle {
        CounterHandle(register(&mut self.inner.lock().counter_cells, name))
    }

    /// Register a handle to the fixed-bucket latency histogram `name` (see
    /// [`LATENCY_BUCKETS`]) — per-request stage timings such as queue wait
    /// or predict time, where quantiles matter and per-observation storage
    /// must stay constant.  Recorded in whole nanoseconds.
    pub fn latency_handle(&self, name: &str) -> LatencyHandle {
        LatencyHandle(register(&mut self.inner.lock().latency_cells, name))
    }

    /// The `q`-quantile of a latency histogram (upper bucket edge), or
    /// `None` when nothing was recorded under `name`.
    pub fn latency_quantile(&self, name: &str, q: f64) -> Option<f64> {
        self.inner.lock().latency(name).and_then(|h| h.quantile(q))
    }

    /// Observation count of a latency histogram (0 when never touched).
    pub fn latency_count(&self, name: &str) -> u64 {
        self.inner.lock().latency(name).map_or(0, |h| h.n())
    }

    /// Mean of a latency histogram in seconds (0 when never touched).
    pub fn latency_mean_secs(&self, name: &str) -> f64 {
        self.inner.lock().latency(name).map_or(0.0, |h| h.mean_secs())
    }

    /// Start a wall-clock span; the elapsed time is recorded when the
    /// returned guard drops.
    pub fn span(&self, name: &str) -> Span {
        Span { metrics: self.clone(), name: name.to_string(), start: Instant::now() }
    }

    /// Current value of a counter (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        let inner = self.inner.lock();
        inner.counters.get(name).copied().unwrap_or(0) + inner.cell_sum(name)
    }

    /// A point-in-time snapshot of every counter, sorted by name.  The
    /// order is deterministic and the by-name values are copied under one
    /// lock hold; handle cells are read one by one, so a read that races a
    /// recording thread may see one name's increment before another's.
    /// Read after the recording threads are done (e.g. after a replay
    /// drains) for an exact cut.
    pub fn counters(&self) -> Vec<(String, u64)> {
        let inner = self.inner.lock();
        inner.merged_counters().into_iter().map(|(k, v)| (k.to_string(), v)).collect()
    }

    /// Accumulated seconds of a timer (0 when never touched).
    pub fn total_secs(&self, name: &str) -> f64 {
        self.inner.lock().timers.get(name).map(|(_, s)| *s).unwrap_or(0.0)
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        let inner = self.inner.lock();
        inner.timers.is_empty()
            && inner.merged_counters().is_empty()
            && inner.merged_latencies().is_empty()
    }

    /// Render everything recorded as a sorted, aligned text block.  Every
    /// section iterates names in sorted order, so the output is
    /// deterministic and `--report` text is diffable in tests and CI.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let inner = self.inner.lock();
        let mut s = String::new();
        let counters = inner.merged_counters();
        if !counters.is_empty() {
            writeln!(s, "counters:").unwrap();
            for (name, v) in &counters {
                writeln!(s, "  {name:<36} {v}").unwrap();
            }
        }
        let latencies = inner.merged_latencies();
        if !latencies.is_empty() {
            writeln!(s, "latencies:").unwrap();
            for (name, h) in &latencies {
                writeln!(
                    s,
                    "  {name:<36} n={:<8} p50={:<9} p95={:<9} p99={}",
                    h.n(),
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

/// Render a latency in a readable unit with enough digits to tell the
/// bucket edges apart (µs below 1 ms, three decimals below 10 µs; ms below
/// 1 s; else seconds); purely a function of the value, so reports stay
/// deterministic.
fn fmt_latency(secs: f64) -> String {
    if secs < 1e-5 {
        format!("{:.3}µs", secs * 1e6)
    } else if secs < 1e-3 {
        format!("{:.0}µs", secs * 1e6)
    } else if secs < 1.0 {
        format!("{:.3}ms", secs * 1e3)
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
        assert_eq!(LATENCY_BUCKETS, 225);
        // [0, 1 µs) in eight linear 125 ns buckets.
        assert_eq!(bucket_for_ns(0), 0);
        assert_eq!(bucket_for_ns(124), 0);
        assert_eq!(bucket_for_ns(125), 1);
        assert_eq!(bucket_for_ns(999), 7);
        // Then eight linear sub-buckets per power of two.
        assert_eq!(bucket_for_ns(1_000), 8, "[1 µs, 1.125 µs)");
        assert_eq!(bucket_for_ns(1_124), 8);
        assert_eq!(bucket_for_ns(1_125), 9);
        assert_eq!(bucket_for_ns(1_999), 15);
        assert_eq!(bucket_for_ns(2_000), 16, "[2 µs, 2.25 µs)");
        assert_eq!(bucket_for_ns(2_249), 16);
        assert_eq!(bucket_for_ns(2_250), 17);
        assert_eq!(bucket_for_ns(1_100_000), bucket_for_ns(1_151_999), "[1.024 ms, 1.152 ms)");
        assert_ne!(bucket_for_ns(1_100_000), bucket_for_ns(1_152_000));
        // The overflow bucket starts at 2^27 µs.
        let overflow_ns = (1u64 << 27) * 1_000;
        assert_eq!(bucket_for_ns(overflow_ns - 1), LATENCY_BUCKETS - 2);
        assert_eq!(bucket_for_ns(overflow_ns), LATENCY_BUCKETS - 1);
        assert_eq!(bucket_for_ns(u64::MAX), LATENCY_BUCKETS - 1, "overflow clamps");
        // Every edge is the next bucket's first value, and edges rise.
        for b in 0..LATENCY_BUCKETS - 1 {
            assert_eq!(bucket_for_ns(upper_ns(b) - 1), b, "bucket {b}");
            assert_eq!(bucket_for_ns(upper_ns(b)), b + 1, "bucket {b}");
        }
        assert_eq!(upper_ns(LATENCY_BUCKETS - 2), overflow_ns);
    }

    #[test]
    fn sub_octave_buckets_resolve_a_millisecond_quantile() {
        // With one bucket per power of two, 1.1 ms observations read p50
        // 2.048 ms (the [1024 µs, 2048 µs) edge) whenever a larger
        // observation lifts the max-clamp off it.
        let m = Metrics::new();
        let h = m.latency_handle("serve.queue_wait");
        for _ in 0..9 {
            h.observe(Duration::from_micros(1_100));
        }
        h.observe(Duration::from_millis(5));
        let p50 = m.latency_quantile("serve.queue_wait", 0.5).unwrap();
        assert!((1.1e-3..=1.25e-3).contains(&p50), "p50 {p50}");
        assert_eq!(p50, 1.152e-3);
        assert_eq!(m.latency_quantile("serve.queue_wait", 1.0), Some(5e-3));
    }

    #[test]
    fn latency_quantiles_walk_the_buckets() {
        let m = Metrics::new();
        assert_eq!(m.latency_quantile("serve.predict", 0.5), None);
        let h = m.latency_handle("serve.predict");
        // 90 fast observations (~2-4µs band) and 10 slow ones (~2-4ms band).
        for _ in 0..90 {
            h.observe(Duration::from_micros(3));
        }
        for _ in 0..10 {
            h.observe(Duration::from_millis(3));
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
        // bucket reported a nominal edge (then ≈ 268.4 s) for
        // quantile(1.0) — underreporting a 300 s outlier by half a minute.
        let m = Metrics::new();
        let h = m.latency_handle("serve.predict");
        h.observe(Duration::from_secs(300));
        assert_eq!(bucket_for_ns(300 * 1_000_000_000), LATENCY_BUCKETS - 1);
        assert_eq!(m.latency_quantile("serve.predict", 1.0), Some(300.0));
        assert_eq!(m.latency_quantile("serve.predict", 0.5), Some(300.0));
        // Mixed: the overflow outlier still dominates high quantiles.
        for _ in 0..99 {
            h.observe(Duration::from_millis(1));
        }
        assert_eq!(m.latency_quantile("serve.predict", 1.0), Some(300.0));
        assert!(m.latency_quantile("serve.predict", 0.5).unwrap() < 1.0);
    }

    #[test]
    fn quantiles_are_tightened_to_the_observed_maximum() {
        // A single 3 ms observation lands in the [2.816 ms, 3.072 ms)
        // bucket; the quantile must not report the loose 3.072 ms edge.
        let m = Metrics::new();
        m.latency_handle("serve.predict").observe(Duration::from_millis(3));
        assert_eq!(m.latency_quantile("serve.predict", 1.0), Some(3e-3));
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
                m.latency_handle(n).observe(Duration::from_micros(5));
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

    #[test]
    fn counter_handles_read_exactly_like_by_name_recording() {
        let counts = [3, 1, 4, 1, 5, 9, 2, 6];
        let by_name = Metrics::new();
        for &c in &counts {
            by_name.incr("serve.requests_served", c);
        }
        by_name.record_max("serve.fused_batch.max_requests", 8);

        // One handle.
        let one = Metrics::new();
        let served = one.counter_handle("serve.requests_served");
        counts.iter().for_each(|&c| served.incr(c));
        one.record_max("serve.fused_batch.max_requests", 8);
        assert_eq!(one.render(), by_name.render());
        assert_eq!(one.counters(), by_name.counters());

        // Three handles plus by-name calls, split round robin.
        let split = Metrics::new();
        let served: Vec<_> = (0..3).map(|_| split.counter_handle("serve.requests_served")).collect();
        for (i, &c) in counts.iter().enumerate() {
            match i % 4 {
                3 => split.incr("serve.requests_served", c),
                h => served[h].incr(c),
            }
        }
        split.record_max("serve.fused_batch.max_requests", 8);
        assert_eq!(split.render(), by_name.render());
        assert_eq!(split.counters(), by_name.counters());
        assert_eq!(split.counter("serve.requests_served"), 31);
    }

    /// Every read of the `serve.stage` histogram: render, quantiles,
    /// count and mean.
    fn latency_reads(m: &Metrics) -> (String, Vec<Option<f64>>, u64, f64) {
        let quantiles = [0.0, 0.25, 0.5, 0.9, 0.99, 1.0]
            .iter()
            .map(|&q| m.latency_quantile("serve.stage", q))
            .collect();
        (m.render(), quantiles, m.latency_count("serve.stage"), m.latency_mean_secs("serve.stage"))
    }

    #[test]
    fn split_latency_handles_read_like_one() {
        let latencies_ns = [0, 124, 999, 1_000, 1_150, 2_048, 75_000, 1_100_000, 5_000_000, 300 * 1_000_000_000];
        let one = Metrics::new();
        let stage = one.latency_handle("serve.stage");
        latencies_ns.iter().for_each(|&ns| stage.observe(Duration::from_nanos(ns)));

        let split = Metrics::new();
        let stages: Vec<_> = (0..3).map(|_| split.latency_handle("serve.stage")).collect();
        for (i, &ns) in latencies_ns.iter().enumerate() {
            stages[i % 3].observe(Duration::from_nanos(ns));
        }
        assert_eq!(latency_reads(&split), latency_reads(&one));
        assert_eq!(split.latency_count("serve.stage"), 10);
        assert_eq!(split.latency_quantile("serve.stage", 1.0), Some(300.0));
    }

    #[test]
    fn untouched_handles_render_nothing() {
        let m = Metrics::new();
        let c = m.counter_handle("serve.predictions");
        let l = m.latency_handle("serve.predict");
        assert!(m.is_empty());
        assert_eq!(m.render(), "");
        assert!(m.counters().is_empty());
        assert_eq!(m.latency_quantile("serve.predict", 0.5), None);
        assert_eq!(m.latency_count("serve.predict"), 0);
        c.incr(0);
        assert!(m.is_empty(), "zero-valued cells stay unrecorded");
        l.observe(Duration::from_micros(3));
        assert!(!m.is_empty());
        assert!(m.render().contains("serve.predict"));
        assert!(!m.render().contains("serve.predictions"));
    }

    #[test]
    fn a_stopped_writers_cells_stay_counted_and_are_reused() {
        let m = Metrics::new();
        let first = m.counter_handle("serve.requests_served");
        first.incr(5);
        let other = m.counter_handle("serve.requests_served");
        drop(first);
        // The dropped handle's total stays; the next registration takes
        // over its idle cell instead of adding one.
        assert_eq!(m.counter("serve.requests_served"), 5);
        let restarted = m.counter_handle("serve.requests_served");
        restarted.incr(2);
        other.incr(1);
        assert_eq!(m.counter("serve.requests_served"), 8);
        assert_eq!(m.inner.lock().counter_cells["serve.requests_served"].len(), 2);
    }
}
