//! `bench_e2e`: one benchmark over ACIC's whole lifecycle — train (durable
//! campaign) → publish (compact, snapshot, node refit) → serve (one-node
//! cluster) — on two named workloads, through public APIs only, timed
//! from outside the program.  See `README.md` next to this package for
//! the workloads, the metrics, and how to read a traced run.
//!
//! ```text
//! bench_e2e --workload <name> --seed <u64> [--seconds <n>] [--trace <0|1>]
//! ```
//!
//! Prints an environment line, one `workload metric value unit samples`
//! line per metric, and, last, one JSON object with `correct`,
//! `attempted`, `failed`, and `metrics`: the end-to-end metrics, or with
//! `--trace 1` the per-layer metrics (spans are written as JSONL next to
//! the build outputs).  Without `--workload` every workload runs, each in
//! its own child process.  Exits non-zero when any correctness check fails.

mod campaign;
mod harness;
mod loadgen;
mod serve;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

/// End-to-end metrics: what the operator and the users of the lifecycle
/// see.  Every workload reports all of them.
const E2E: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("campaign_points_per_s", "points/s"),
    ("publish_s", "s"),
    ("serve_rps", "req/s"),
    ("serve_p50_us", "us"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by traced runs.
const PER_LAYER: [(&str, &str); 44] = [
    ("training.collect_s", "s"),
    ("training.baseline_runs", "count"),
    ("training.retries", "count"),
    ("training.skipped", "count"),
    ("training.loop_points_per_s", "1/s"),
    ("sim.runs", "count"),
    ("sim.pool_misses", "count"),
    ("sim.run_us.p50", "us"),
    ("sim.run_us.p99", "us"),
    ("sim.baseline_run_us.p50", "us"),
    ("commit.group_commits", "count"),
    ("commit.queue_high_water", "count"),
    ("commit.fsync_us", "us"),
    ("store.ingest_s", "s"),
    ("store.wal_batches", "count"),
    ("store.compact_s", "s"),
    ("store.snapshot_write_s", "s"),
    ("cart.fit_s", "s"),
    ("predictor.top_k_us.p50", "us"),
    ("predictor.top_k_us.p99", "us"),
    ("serve.cache_hit_rate", "ratio"),
    ("serve.cache_misses", "count"),
    ("serve.queue_wait_us.p50", "us"),
    ("serve.queue_wait_us.p99", "us"),
    ("serve.fused_batches", "count"),
    ("serve.fused_max_requests", "count"),
    ("serve.shed", "count"),
    ("cluster.start_s", "s"),
    ("cluster.publish_s", "s"),
    ("cluster.route_ns.p50", "ns"),
    ("client.wait_us.p50", "us"),
    ("client.wait_us.p99", "us"),
    ("client.latency_us.p99", "us"),
    ("loadgen.late_us.p50", "us"),
    ("loadgen.late_us.p99", "us"),
    ("quality.pick_gap_pct", "%"),
    ("self_s.harness", "s"),
    ("self_s.training", "s"),
    ("self_s.store", "s"),
    ("self_s.cart", "s"),
    ("self_s.cluster", "s"),
    ("self_s.serve", "s"),
    ("self_s.loadgen", "s"),
    ("trace.overhead_pct", "%"),
];

type Workload = fn(&Ctx) -> Result<Report, String>;

const WORKLOADS: [(&str, Workload); 2] =
    [("grid_hot", workload::grid_hot), ("scale_cold", workload::scale_cold)];

/// Workload sizes.  Fixed for a given benchmark definition: the seed
/// changes the inputs, never their size.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Top-ranked parameters `grid_hot` sweeps exhaustively.
    pub grid_dims: usize,
    /// Parameters of the grid `scale_cold` samples uniformly.
    pub scale_dims: usize,
    /// Points in the `scale_cold` sample.
    pub scale_points: usize,
    /// Times set-up runs; `setup_s` is the median.
    pub setup_reps: usize,
    /// Fewest rounds a run measures, however long.
    pub min_rounds: usize,
    /// Distinct requests of `grid_hot` (all fit in the result cache).
    pub hot_pool: usize,
    /// Distinct requests of `scale_cold` (far more than the cache holds).
    pub cold_pool: usize,
    /// Open-loop rates, requests per second.
    pub hot_rate: f64,
    pub cold_rate: f64,
    /// Length of a round's closed loop, and of its open loop.
    pub serve_phase: Duration,
    /// Points whose simulation is timed directly in traced runs.
    pub sim_sample: usize,
    /// Requests `Predictor::top_k` is timed on directly in traced runs.
    pub top_k_sample: usize,
}

impl Sizes {
    /// The benchmark's sizes.
    pub const FULL: Sizes = Sizes {
        grid_dims: 12,
        scale_dims: 15,
        scale_points: 2_000,
        setup_reps: 3,
        min_rounds: 3,
        hot_pool: 512,
        cold_pool: 1 << 18,
        hot_rate: 100_000.0,
        cold_rate: 40_000.0,
        serve_phase: Duration::from_secs(1),
        sim_sample: 512,
        top_k_sample: 1024,
    };
}

/// Everything a workload function needs.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub sizes: Sizes,
    /// Working directory of this workload (campaign directories).
    pub work: PathBuf,
    /// Where a traced run writes its spans.
    pub spans: PathBuf,
    pub fsync_us: f64,
}

impl Ctx {
    /// The measured window.
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// Write the traced run's spans as JSONL and say where.
    pub fn write_spans(&self, tracer: &harness::Tracer) -> Result<(), String> {
        tracer
            .write_jsonl(&self.spans)
            .map_err(|e| format!("write {}: {e}", self.spans.display()))?;
        println!("# spans {}", self.spans.display());
        Ok(())
    }
}

/// A workload's measurements and the outcome of its correctness checks.
#[derive(Debug, Default)]
pub struct Report {
    /// name → (value, samples, within-run quartiles when a median).
    metrics: BTreeMap<&'static str, (f64, usize, Option<[f64; 3]>)>,
    /// Operations attempted: campaign points planned plus requests sent.
    pub attempted: u64,
    /// Points skipped plus requests refused or lost.
    pub failed: u64,
    failures: Vec<String>,
}

impl Report {
    pub fn put(&mut self, name: &'static str, value: f64, samples: usize) {
        self.metrics.insert(name, (value, samples, None));
    }

    /// Put the median of `xs`, remembering its quartiles.
    pub fn put_median(&mut self, name: &'static str, xs: &[f64]) {
        let q = harness::quartiles(xs);
        self.metrics.insert(name, (harness::median(xs), xs.len(), Some(q)));
    }

    /// Record a failed correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Put `self_s.<layer>`.
    pub fn put_layer_self(&mut self, layer: &str, secs: f64, samples: usize) {
        let name = PER_LAYER
            .iter()
            .find(|(n, _)| n.strip_prefix("self_s.") == Some(layer))
            .map(|(n, _)| *n)
            .unwrap_or_else(|| panic!("layer {layer} has no self_s metric"));
        self.put(name, secs, samples);
    }
}

/// Print the metric lines and the result object; true when correct.
fn emit(workload: &str, trace: bool, report: &mut Report) -> bool {
    let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &E2E };
    let mut json = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let Some(&(value, samples, q)) = report.metrics.get(name) else {
            panic!("workload {workload} produced no {name}");
        };
        report.check(value.is_finite(), || format!("{name} is {value}"));
        println!("{workload} {name} {value} {unit} {samples}");
        if let Some([q1, med, q3]) = q {
            eprintln!("# {workload} {name}: q1 {q1} median {med} q3 {q3} over {samples}");
        }
        let value = if value.is_finite() { value.to_string() } else { "null".into() };
        json.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
    }
    for f in &report.failures {
        eprintln!("CHECK FAILED [{workload}]: {f}");
    }
    let correct = report.failures.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        json.join(", ")
    );
    correct
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: None, seed: acic_bench::EXPERIMENT_SEED, seconds: 40.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// Build outputs live next to the executable; campaign directories and
/// span files go beside them, never into the source tree.
fn work_root() -> PathBuf {
    let exe = std::env::current_exe().expect("path of the running executable");
    exe.parent()
        .and_then(Path::parent)
        .expect("executable inside a target directory")
        .join("bench-e2e")
}

/// Run every workload, each in its own child process (so each one's peak
/// RSS is its own), one after another.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("path of the running executable");
    let mut ok = true;
    for (name, _) in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", name, "--seed", &args.seed.to_string()])
            .args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("workload {name} exited with {s}");
                ok = false;
            }
            Err(e) => {
                eprintln!("could not start workload {name}: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            eprintln!("usage: bench_e2e [--workload NAME] [--seed N] [--seconds N] [--trace 0|1]");
            return ExitCode::from(2);
        }
    };
    let Some(name) = args.workload.as_deref() else {
        return run_all(&args);
    };
    let Some(&(name, workload)) = WORKLOADS.iter().find(|(n, _)| *n == name) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        eprintln!("bench_e2e: unknown workload {name:?}; one of {}", names.join(", "));
        return ExitCode::from(2);
    };

    let root = work_root();
    let work = root.join(name);
    let fsync_us = std::fs::create_dir_all(&work)
        .and_then(|()| harness::probe_fsync_us(&work))
        .unwrap_or_else(|e| panic!("fsync probe in {}: {e}", work.display()));
    println!(
        "# env workload={name} seed={} seconds={} trace={} cores={} fsync_us={fsync_us:.1} profile={}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        harness::cores(),
        harness::profile(),
    );
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        sizes: Sizes::FULL,
        spans: root.join(format!("{name}.spans.jsonl")),
        work,
        fsync_us,
    };
    let result = workload(&ctx);
    let _ = std::fs::remove_dir_all(&ctx.work);
    match result {
        Ok(mut report) => {
            if emit(name, ctx.trace, &mut report) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("bench_e2e [{name}]: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The objects of one array-valued section of BENCHMARK.json, each
    /// as a map of its string fields.
    fn declared(section: &str) -> Vec<BTreeMap<String, String>> {
        let text = include_str!("../../BENCHMARK.json");
        let start = text.find(&format!("\"{section}\"")).expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section is an array")];
        body.split('{')
            .skip(1)
            .map(|obj| {
                let obj = &obj[..obj.find('}').expect("closed object")];
                obj.split(',')
                    .filter_map(|kv| {
                        let (k, v) = kv.split_once(':')?;
                        let v = v.trim().strip_prefix('"')?.strip_suffix('"')?;
                        Some((k.trim().trim_matches('"').to_string(), v.to_string()))
                    })
                    .collect()
            })
            .collect()
    }

    fn names_units(section: &str) -> Vec<(String, String)> {
        declared(section).into_iter().map(|o| (o["name"].clone(), o["unit"].clone())).collect()
    }

    fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    }

    #[test]
    fn printed_metrics_are_exactly_the_declared_ones() {
        assert_eq!(owned(&E2E), names_units("end_to_end"));
        assert_eq!(owned(&PER_LAYER), names_units("per_layer"));
        let workloads: Vec<String> =
            declared("workloads").into_iter().map(|o| o["name"].clone()).collect();
        assert_eq!(workloads, WORKLOADS.map(|(n, _)| n.to_string()));
        let layers: Vec<&str> =
            PER_LAYER.iter().filter_map(|(n, _)| n.strip_prefix("self_s.")).collect();
        assert_eq!(layers, harness::LAYERS);
    }

    const TINY: Sizes = Sizes {
        grid_dims: 5,
        scale_dims: 6,
        scale_points: 48,
        setup_reps: 2,
        min_rounds: 2,
        hot_pool: 32,
        cold_pool: 4096,
        hot_rate: 4_000.0,
        cold_rate: 2_000.0,
        serve_phase: Duration::from_millis(20),
        sim_sample: 8,
        top_k_sample: 16,
    };

    fn smoke(name: &str, trace: bool) {
        let root = work_root().join(format!("smoke-{name}-{}", u8::from(trace)));
        let ctx = Ctx {
            seed: 7,
            seconds: 0.05,
            trace,
            sizes: TINY,
            work: root.join(name),
            spans: root.join("spans.jsonl"),
            fsync_us: 1.0,
        };
        let (_, workload) = WORKLOADS.iter().find(|(n, _)| *n == name).expect("known workload");
        let report = workload(&ctx).unwrap_or_else(|e| panic!("{name}: {e}"));
        let _ = std::fs::remove_dir_all(&root);
        assert!(report.failures.is_empty(), "{name}: {:?}", report.failures);
        assert_eq!(report.failed, 0, "{name}: failed_frac must be 0");
        assert!(report.attempted > 0);
        let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &E2E };
        for (metric, _) in table {
            let got = report.metrics.get(metric);
            assert!(got.is_some_and(|v| v.0.is_finite()), "{name} lacks {metric}: {got:?}");
        }
        for (metric, _) in E2E {
            assert!(report.metrics[metric].0 > 0.0, "{name}: {metric} must never be 0");
        }
    }

    #[test]
    fn grid_hot_smoke() {
        smoke("grid_hot", false);
        smoke("grid_hot", true);
    }

    #[test]
    fn scale_cold_smoke() {
        smoke("scale_cold", false);
        smoke("scale_cold", true);
    }
}
