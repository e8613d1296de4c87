//! Emit `BENCH_predict.json` beside the executable: the ranking path vs the
//! interpreted reference oracle on the paper-shaped query — rank every
//! candidate I/O configuration for an application (§4.2's "full
//! exploration of system configuration space").
//!
//! The interpreted path (`Predictor::rank_candidates_interpreted`, kept
//! verbatim as the oracle) re-encodes each candidate's system half, walks
//! the model enum per row, allocates a notation `String` per candidate,
//! and full-sorts.  The ranking path scores the whole cached
//! `CandidateMatrix` in one reachable-subtree walk of the model's
//! candidate-grid plan, into thread-local scratch.  Every query in the
//! grid is first checked for exact equality (config, value bits, order)
//! between the two; the timing then sweeps the full query grid in
//! back-to-back interpreted/ranking pairs and gates on the median pair
//! ratio.
//!
//! The oracle is test support, so this binary builds only with the
//! `oracle` feature:
//! `cargo run --release -p acic-bench --features oracle --bin bench_predict`.
//! Runs in seconds; wired into `scripts/tier1.sh`.

use acic::space::SpacePoint;
use acic::{AppPoint, Metrics, Objective, Predictor, Trainer};
use acic_bench::stats::median;
use acic_cloudsim::instance::InstanceType;
use acic_cloudsim::units::{kib, mib};
use std::hint::black_box;
use std::time::Instant;

/// The query grid: a spread of application I/O shapes crossed with every
/// objective and instance type.  Shapes vary the parameters the paper's
/// tree actually splits on (data size, request size, collectivity, scale)
/// so the batch exercises many distinct root-to-leaf paths.
fn query_grid() -> Vec<(AppPoint, Objective, InstanceType)> {
    let base = SpacePoint::default_point().app;
    let mut apps = Vec::new();
    for (i, &data_mib) in [1.0, 4.0, 16.0, 64.0].iter().enumerate() {
        for &req_kib in &[64.0, 4096.0] {
            let mut app = base;
            app.data_size = mib(data_mib);
            app.request_size = kib(req_kib);
            app.collective = i % 2 == 0;
            app.nprocs = [16, 64, 256][i % 3];
            app.io_procs = app.nprocs;
            apps.push(app.normalized());
        }
    }
    let mut out = Vec::new();
    for app in apps {
        for objective in Objective::ALL {
            for instance_type in InstanceType::ALL {
                out.push((app, objective, instance_type));
            }
        }
    }
    out
}

fn main() {
    let metrics = Metrics::new();
    let (db, predictor) = {
        let _span = metrics.span("phase.train");
        let db = Trainer::with_paper_ranking(5).collect(5).expect("training collection");
        let p = Predictor::train(&db, 5).expect("predictor training");
        (db, p)
    };
    let grid = query_grid();
    let (app0, obj0, it0) = grid[0];
    let candidates = predictor.rank_candidates_interpreted(&app0, obj0, it0).len();

    // Correctness first: the ranking path must reproduce the oracle
    // exactly — same configs, same order, same f64 bits — on every query,
    // and on every top-k prefix of a representative k.
    let mismatches = {
        let _span = metrics.span("phase.equivalence");
        let mut mismatches = 0usize;
        for (app, objective, instance_type) in &grid {
            let compiled = predictor.rank_candidates(app, *objective, *instance_type);
            let oracle = predictor.rank_candidates_interpreted(app, *objective, *instance_type);
            if compiled != oracle {
                mismatches += 1;
            }
            let k5 = predictor.top_k(app, *objective, *instance_type, 5);
            if k5.as_slice() != &oracle[..5.min(oracle.len())] {
                mismatches += 1;
            }
        }
        mismatches
    };
    assert_eq!(mismatches, 0, "the ranking path diverged from the interpreted oracle");

    // Back-to-back pair timing over the whole grid (same methodology as
    // bench_cart: load drift hits both engines of a pair equally, so the
    // pair ratio stays tight on a noisy box).
    eprintln!("timing rank_candidates over {} queries x {} candidates ...", grid.len(), candidates);
    let pairs = 15;
    let (mut interpreted_samples, mut compiled_samples, mut ratios) =
        (Vec::new(), Vec::new(), Vec::new());
    {
        let _span = metrics.span("phase.time.rank");
        for _ in 0..2 {
            // Warmup: fault in scratch, caches, branch history.
            for (app, objective, instance_type) in &grid {
                black_box(predictor.rank_candidates(app, *objective, *instance_type).len());
                black_box(
                    predictor.rank_candidates_interpreted(app, *objective, *instance_type).len(),
                );
            }
        }
        // Each sample is `reps` full-grid sweeps: one sweep is only a few
        // hundred microseconds, within timer-interrupt noise on its own.
        let reps = 10;
        for _ in 0..pairs {
            let t = Instant::now();
            for _ in 0..reps {
                for (app, objective, instance_type) in &grid {
                    black_box(
                        predictor
                            .rank_candidates_interpreted(app, *objective, *instance_type)
                            .len(),
                    );
                }
            }
            let i = t.elapsed().as_secs_f64() / reps as f64;
            let t = Instant::now();
            for _ in 0..reps {
                for (app, objective, instance_type) in &grid {
                    black_box(predictor.rank_candidates(app, *objective, *instance_type).len());
                }
            }
            let c = t.elapsed().as_secs_f64() / reps as f64;
            interpreted_samples.push(i);
            compiled_samples.push(c);
            ratios.push(i / c);
        }
    }
    metrics.incr("bench.samples", 2 * pairs as u64);
    let interpreted_s = median(&interpreted_samples);
    let compiled_s = median(&compiled_samples);
    let speedup = median(&ratios);
    let speedup_min = ratios.iter().copied().fold(f64::INFINITY, f64::min);
    let per_query_us = compiled_s / grid.len() as f64 * 1e6;

    // Secondary: the bounded-partial-select top-k path (k = 5), reported
    // but not gated — its win over the interpreted truncate-after-full-sort
    // rides on the same grid scoring as the full ranking.
    let topk_speedup = {
        let _span = metrics.span("phase.time.topk");
        let mut rs = Vec::new();
        let reps = 10;
        for _ in 0..pairs {
            let t = Instant::now();
            for _ in 0..reps {
                for (app, objective, instance_type) in &grid {
                    let mut r =
                        predictor.rank_candidates_interpreted(app, *objective, *instance_type);
                    r.truncate(5);
                    black_box(r.len());
                }
            }
            let i = t.elapsed().as_secs_f64();
            let t = Instant::now();
            for _ in 0..reps {
                for (app, objective, instance_type) in &grid {
                    black_box(predictor.top_k(app, *objective, *instance_type, 5).len());
                }
            }
            let c = t.elapsed().as_secs_f64();
            rs.push(i / c);
        }
        median(&rs)
    };

    let json = format!(
        "{{\n  \"bench\": \"predict_plane\",\n  \"training\": {{ \"dims\": 5, \"rows\": {dbrows} }},\n  \"queries\": {nq},\n  \"rank_candidates\": {{\n    \"interpreted_s\": {interpreted_s:.6},\n    \"compiled_s\": {compiled_s:.6},\n    \"compiled_per_query_us\": {per_query_us:.1},\n    \"speedup\": {speedup:.2},\n    \"speedup_min\": {speedup_min:.2},\n    \"topk5_speedup\": {topk_speedup:.2},\n    \"mismatches\": {mismatches}\n  }}\n}}\n",
        dbrows = db.len(),
        nq = grid.len(),
    );

    let out = acic_bench::beside_exe("BENCH_predict.json");
    std::fs::write(&out, &json).expect("write BENCH_predict.json");
    println!("{json}");
    println!("wrote {}", out.display());
    eprint!("{}", metrics.render());

    // Gate: the ranking path must hold a >= 3x median pair ratio on the
    // full-grid ranking with zero divergence from the oracle.  The margin
    // below the measured reading (15-17x on a 2-core box) absorbs a hot or
    // contended box; an actual regression (falling back to per-row walks
    // or per-candidate allocation) reads near 1x and fails cleanly.
    assert!(
        speedup >= 3.0,
        "compiled rank_candidates must be >= 3x the interpreted oracle \
         (got median pair ratio {speedup:.2}x, min {speedup_min:.2}x)"
    );
}
