//! Emit `BENCH_sim.json` beside the executable: what the flow simulator costs
//! per training point on real campaign points, production core vs the
//! verbatim oracle loop.
//!
//! Two campaign shapes, each a seeded stratified sample of its grid (the
//! grid is cut into equal consecutive blocks and one point is drawn from
//! each):
//!
//! * `grid12` — the PB-ranked exhaustive grid over the top 12 parameters,
//!   fault-free (cheap points: tens of flows per phase);
//! * `sample15` — the full 15-parameter grid under the paper's observed
//!   fault rate (large runs: a hundred-odd flows per phase, retries).
//!
//! Each sample is first collected with every simulation run through both
//! cores and compared bit for bit — finish times, served bytes, makespan,
//! event count — and the production and oracle databases must be
//! byte-identical.  That is the gate: zero mismatched runs.  Timing then
//! runs pairs of production and oracle collections of the same sample on
//! one worker thread, alternating which core goes first, and records the
//! median µs per point of each.
//!
//! Build with the `oracle` feature:
//! `cargo run --release --offline -p acic-bench --features oracle --bin bench_sim`.

use acic::space::SpacePoint;
use acic::training::CollectOptions;
use acic::{RetryPolicy, Trainer, TrainingDb};
use acic_bench::db_bytes;
use acic_bench::stats::median;
use acic_cloudsim::rng::SplitMix64;
use acic_cloudsim::{arena, oracle, set_engine_override, SimEngine};
use acic_fsim::FaultPlan;
use std::time::Instant;

const SEED: u64 = 20131117;
const PAIRS: usize = 5;

struct Shape {
    name: &'static str,
    dims: usize,
    points: usize,
    faults: bool,
}

const SHAPES: [Shape; 2] = [
    Shape { name: "grid12", dims: 12, points: 1024, faults: false },
    Shape { name: "sample15", dims: 15, points: 96, faults: true },
];

/// The shape's trainer and its seeded stratified sample.
fn campaign(shape: &Shape) -> (Trainer, Vec<SpacePoint>) {
    let mut trainer = Trainer::with_paper_ranking(SEED);
    if shape.faults {
        trainer = trainer
            .with_faults(FaultPlan::papers_observed_rate())
            .with_retry(RetryPolicy { max_retries: 8, ..RetryPolicy::DEFAULT });
    }
    let all = trainer.sample_points(shape.dims);
    let n = shape.points.min(all.len());
    let mut rng = SplitMix64::new(SEED ^ shape.dims as u64);
    let points = (0..n)
        .map(|k| {
            let (lo, hi) = (k * all.len() / n, (k + 1) * all.len() / n);
            all[lo + rng.below(hi - lo)]
        })
        .collect();
    (trainer, points)
}

fn collect(trainer: &Trainer, points: &[SpacePoint], engine: SimEngine) -> TrainingDb {
    set_engine_override(engine);
    let c = trainer.collect_with(points, &CollectOptions::default()).expect("collection failed");
    assert!(c.report.is_complete(), "a sampled point was skipped");
    c.db
}

/// Wall µs per point of one collection on `engine`.
fn time_per_point(trainer: &Trainer, points: &[SpacePoint], engine: SimEngine) -> f64 {
    let t = Instant::now();
    std::hint::black_box(collect(trainer, points, engine));
    t.elapsed().as_secs_f64() * 1e6 / points.len() as f64
}

fn main() {
    // One worker thread: µs per point is then the point's own cost, not a
    // share of however many cores the box has.
    std::env::set_var("RAYON_NUM_THREADS", "1");

    let mut compared = 0u64;
    let mut mismatched = 0u64;
    let mut dbs_identical = true;
    let mut rows = Vec::new();
    for shape in &SHAPES {
        let (trainer, points) = campaign(shape);

        let (c0, m0) = (oracle::checked_runs(), oracle::mismatched_runs());
        let runs0 = arena::stats().runs;
        let checked = collect(&trainer, &points, SimEngine::Checked);
        let runs = arena::stats().runs - runs0;
        compared += oracle::checked_runs() - c0;
        mismatched += oracle::mismatched_runs() - m0;
        let production = collect(&trainer, &points, SimEngine::Production);
        let reference = collect(&trainer, &points, SimEngine::Oracle);
        let bytes = db_bytes(&production);
        dbs_identical &= bytes == db_bytes(&reference) && bytes == db_bytes(&checked);

        eprintln!("timing {} ({} points, {} runs) ...", shape.name, points.len(), runs);
        let (mut prod, mut orc) = (Vec::new(), Vec::new());
        // Alternate which core runs first, so warm caches and clock drift
        // favour neither.
        for pair in 0..PAIRS {
            if pair % 2 == 0 {
                prod.push(time_per_point(&trainer, &points, SimEngine::Production));
                orc.push(time_per_point(&trainer, &points, SimEngine::Oracle));
            } else {
                orc.push(time_per_point(&trainer, &points, SimEngine::Oracle));
                prod.push(time_per_point(&trainer, &points, SimEngine::Production));
            }
        }
        let (p, o) = (median(&prod), median(&orc));
        rows.push(format!(
            "    {{ \"shape\": \"{}\", \"dims\": {}, \"points\": {}, \"faults\": {}, \"sim_runs_per_point\": {:.1}, \"production_us_per_point\": {p:.1}, \"oracle_us_per_point\": {o:.1}, \"oracle_over_production\": {:.2} }}",
            shape.name,
            shape.dims,
            points.len(),
            shape.faults,
            runs as f64 / points.len() as f64,
            o / p,
        ));
    }
    set_engine_override(SimEngine::Production);

    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let json = format!(
        "{{\n  \"bench\": \"sim_core\",\n  \"env\": {{ \"cores\": {cores}, \"worker_threads\": 1, \"seed\": {SEED}, \"timing_pairs\": {PAIRS} }},\n  \"oracle_check\": {{\n    \"runs_compared_bit_for_bit\": {compared},\n    \"runs_mismatched\": {mismatched},\n    \"databases_byte_identical\": {dbs_identical}\n  }},\n  \"campaigns\": [\n{}\n  ]\n}}\n",
        rows.join(",\n"),
    );

    let out = acic_bench::beside_exe("BENCH_sim.json");
    std::fs::write(&out, &json).expect("write BENCH_sim.json");
    println!("{json}");
    println!("wrote {}", out.display());

    // The gate: the production core reproduces the oracle bit for bit on
    // every simulation of both samples.  Timing is recorded, not gated.
    assert!(compared > 0, "no simulation was compared");
    assert_eq!(mismatched, 0, "production core diverged from the oracle");
    assert!(dbs_identical, "production and oracle campaigns wrote different databases");
}
