//! Measurement plumbing shared by every workload: sample statistics, the
//! environment line, the peak-RSS probe, and the in-memory span recorder
//! of traced runs.

use std::collections::BTreeMap;
use std::fs;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

pub use acic_bench::stats::quantile;

/// Median of a non-empty sample (mean of the two middle values for an
/// even count, as Python's `statistics.median`).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First quartile, median, and third quartile of a non-empty sample, with
/// the interpolation of Python's `statistics.quantiles(xs, n=4)` (the
/// "exclusive" method), so spreads printed here match the ones computed
/// over whole runs.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    assert!(!xs.is_empty(), "quartiles of an empty sample");
    let mut d = xs.to_vec();
    d.sort_by(f64::total_cmp);
    let ld = d.len() as i64;
    if ld == 1 {
        return [d[0]; 3];
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, q) in (1..4i64).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = i * m - j * 4;
        let (lo, hi) = (d[(j - 1) as usize], d[j as usize]);
        *q = (lo * (4 - delta) as f64 + hi * delta as f64) / 4.0;
    }
    out
}

/// Median microseconds of a write + `sync_data` pair in `dir`, the
/// filesystem the durable campaigns write to.
pub fn probe_fsync_us(dir: &Path) -> std::io::Result<f64> {
    let path = dir.join("fsync-probe");
    let mut file = fs::File::create(&path)?;
    let mut samples = Vec::with_capacity(64);
    for i in 0..64u32 {
        let t = Instant::now();
        file.write_all(format!("probe {i}\n").as_bytes())?;
        file.sync_data()?;
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    drop(file);
    fs::remove_file(&path)?;
    Ok(median(&samples))
}

/// Cores available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The build profile the benchmark was compiled with.
pub fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// Peak resident set size of this process so far, in MiB (`ru_maxrss`,
/// the same high-water mark as `VmHWM`).
#[cfg(target_os = "linux")]
pub fn peak_rss_mb() -> f64 {
    use std::os::raw::{c_int, c_long};
    #[repr(C)]
    struct Timeval {
        sec: c_long,
        usec: c_long,
    }
    /// `struct rusage` on Linux: two timevals, then 14 longs.
    #[repr(C)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        maxrss: c_long,
        rest: [c_long; 13],
    }
    extern "C" {
        fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
    }
    const RUSAGE_SELF: c_int = 0;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` with the Linux
    // layout declared above, and getrusage writes nothing beyond it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    usage.maxrss as f64 / 1024.0 // Linux reports KiB
}

/// The layers spans are attributed to, in report order.  Names follow the
/// repository's crates: `training`/`store`/`commit` live in `acic`, `cart`
/// is the model fit, `cluster` and `serve` are `acic-serve`, `loadgen`
/// and `harness` are this benchmark.
pub const LAYERS: [&str; 7] =
    ["harness", "training", "store", "cart", "cluster", "serve", "loadgen"];

/// Handle of a recorded (or reserved) span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

/// One finished span.
#[derive(Debug, Clone)]
struct Span {
    id: u32,
    parent: Option<u32>,
    name: &'static str,
    layer: &'static str,
    start_ns: u64,
    end_ns: u64,
    req: Option<u64>,
}

/// In-memory span recorder.  Disabled recorders hand out no ids and record
/// nothing, so untraced runs pay one branch per boundary.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder that records when `on`.
    pub fn new(on: bool) -> Self {
        Self { on, t0: Instant::now(), next: AtomicU32::new(0), spans: Mutex::new(Vec::new()) }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Reserve an id for a span whose children finish before it does.
    pub fn reserve(&self) -> Option<SpanId> {
        self.on.then(|| SpanId(self.next.fetch_add(1, Ordering::Relaxed)))
    }

    /// Record a finished span under a reserved id (no-op when `id` is
    /// `None`, i.e. tracing is off or the request was not sampled).
    #[allow(clippy::too_many_arguments)]
    pub fn finish(
        &self,
        id: Option<SpanId>,
        name: &'static str,
        layer: &'static str,
        parent: Option<SpanId>,
        req: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        let Some(SpanId(id)) = id else { return };
        let ns = |t: Instant| t.saturating_duration_since(self.t0).as_nanos() as u64;
        let span = Span {
            id,
            parent: parent.map(|p| p.0),
            name,
            layer,
            start_ns: ns(start),
            end_ns: ns(end),
            req,
        };
        self.spans.lock().expect("span recorder poisoned").push(span);
    }

    /// Run `f` inside a span; `f` receives the span's id for its children.
    pub fn span<T>(
        &self,
        name: &'static str,
        layer: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce(Option<SpanId>) -> T,
    ) -> T {
        let id = self.reserve();
        let start = Instant::now();
        let out = f(id);
        self.finish(id, name, layer, parent, None, start, Instant::now());
        out
    }

    /// Self time per layer in seconds: each span's duration minus the part
    /// of it that its children's intervals cover, summed by layer.  Every
    /// layer of [`LAYERS`] is present (0 when it recorded nothing).
    pub fn self_secs(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.lock().expect("span recorder poisoned");
        let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
        for s in spans.iter() {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, f64> = LAYERS.iter().map(|&l| (l, 0.0)).collect();
        for s in spans.iter() {
            let covered =
                children.get_mut(&s.id).map(|iv| covered_ns(iv, s.start_ns, s.end_ns)).unwrap_or(0);
            *out.entry(s.layer).or_insert(0.0) += (s.end_ns - s.start_ns - covered) as f64 / 1e9;
        }
        out
    }

    /// Write every span as one JSON object per line, in start order.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut spans = self.spans.lock().expect("span recorder poisoned").clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        let mut out = String::new();
        for s in &spans {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"req\":{}}}\n",
                s.id,
                opt(s.parent.map(u64::from)),
                s.name,
                s.layer,
                s.start_ns,
                s.end_ns,
                opt(s.req),
            ));
        }
        fs::write(path, out)
    }
}

/// Length of the union of `intervals` clipped to `[start, end)`.
fn covered_ns(intervals: &mut [(u64, u64)], start: u64, end: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = start;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(end));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }

    #[test]
    fn nearest_rank_quantiles_come_from_the_shared_stats_module() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), Some(50.0));
        assert_eq!(quantile(&xs, 0.99), Some(99.0));
        assert_eq!(quantile(&xs, 1.0), Some(100.0));
    }

    #[test]
    fn self_time_subtracts_the_union_of_child_intervals() {
        let tr = Tracer::new(true);
        let t0 = tr.t0;
        let at = |us: u64| t0 + Duration::from_micros(us);
        let root = tr.reserve();
        let (a, b) = (tr.reserve(), tr.reserve());
        // Children overlap on [20, 30): covered = [10, 40) = 30 µs of 100.
        tr.finish(a, "a", "store", root, None, at(10), at(30));
        tr.finish(b, "b", "cart", root, None, at(20), at(40));
        tr.finish(root, "rep", "harness", None, None, at(0), at(100));
        let s = tr.self_secs();
        assert!((s["harness"] - 70e-6).abs() < 1e-12, "{s:?}");
        assert!((s["store"] - 20e-6).abs() < 1e-12);
        assert!((s["cart"] - 20e-6).abs() < 1e-12);
        assert_eq!(s["serve"], 0.0);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let tr = Tracer::new(false);
        assert_eq!(tr.span("rep", "harness", None, |id| id), None);
        assert!(tr.self_secs().values().all(|&s| s == 0.0));
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }
}
