//! Emit `BENCH_predict.json` at the repo root: compiled inference plane
//! vs the interpreted reference oracle on the paper-shaped query — rank
//! every candidate I/O configuration for an application (§4.2's "full
//! exploration of system configuration space").
//!
//! Both engines answer the same API.  The interpreted path
//! (`Predictor::rank_candidates_interpreted`, kept verbatim as the oracle)
//! re-encodes each candidate's system half, walks the model enum per row,
//! allocates a notation `String` per candidate, and full-sorts.  The
//! compiled path scores the whole grid with one `CompiledModel::
//! predict_batch` over pre-encoded rows from the cached `CandidateMatrix`,
//! into thread-local scratch.  Every query in the grid is first checked
//! for exact equality (config, value bits, order) between the two planes;
//! the timing then sweeps the full query grid in back-to-back
//! interpreted/compiled pairs and gates on the median pair ratio.
//!
//! Runs in seconds; wired into `scripts/tier1.sh`.

use acic::space::SpacePoint;
use acic::{AppPoint, EngineKind, Metrics, Objective, Predictor, Trainer};
use acic_bench::stats::median;
use acic_cloudsim::instance::InstanceType;
use acic_cloudsim::units::{kib, mib};
use std::hint::black_box;
use std::path::Path;
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

    // Correctness first: the compiled plane must reproduce the oracle
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
    assert_eq!(mismatches, 0, "compiled plane diverged from the interpreted oracle");

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
    // rides on the same batch scoring as the full ranking.
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

    // Fused cross-request sweeps: the serve plane's `top_k_many` scores
    // every query sharing (objective, instance type) in one candidate-
    // major sweep over the arenas.  Correctness first (bit-exact against
    // the per-query interpreted oracle), then back-to-back pair timing.
    let fused_groups: Vec<(Objective, InstanceType, Vec<(AppPoint, usize)>)> = {
        let mut groups: Vec<(Objective, InstanceType, Vec<(AppPoint, usize)>)> = Vec::new();
        for (app, objective, instance_type) in &grid {
            // k = MAX ranks the full grid (candidate counts vary by
            // instance type, so a fixed k would truncate some sweeps).
            match groups.iter_mut().find(|(o, it, _)| o == objective && it == instance_type) {
                Some((_, _, qs)) => qs.push((*app, usize::MAX)),
                None => groups.push((*objective, *instance_type, vec![(*app, usize::MAX)])),
            }
        }
        groups
    };
    let fused_mismatches = {
        let _span = metrics.span("phase.equivalence.fused");
        let mut mismatches = 0usize;
        for (objective, instance_type, queries) in &fused_groups {
            let fused = predictor.top_k_many_on(
                EngineKind::Compiled,
                queries,
                *objective,
                *instance_type,
            );
            for ((app, _), got) in queries.iter().zip(&fused) {
                let oracle = predictor.rank_candidates_interpreted(app, *objective, *instance_type);
                let exact = got.len() == oracle.len()
                    && got
                        .iter()
                        .zip(&oracle)
                        .all(|(g, w)| g.0 == w.0 && g.1.to_bits() == w.1.to_bits());
                if !exact {
                    mismatches += 1;
                }
            }
        }
        mismatches
    };
    assert_eq!(fused_mismatches, 0, "fused sweep diverged from the interpreted oracle");

    eprintln!("timing fused top_k_many over {} queries in {} sweeps ...", grid.len(), fused_groups.len());
    let (fused_speedup, fused_s) = {
        let _span = metrics.span("phase.time.fused");
        let reps = 10;
        for _ in 0..2 {
            for (objective, instance_type, queries) in &fused_groups {
                black_box(
                    predictor
                        .top_k_many_on(EngineKind::Compiled, queries, *objective, *instance_type)
                        .len(),
                );
            }
        }
        let (mut ratios, mut samples) = (Vec::new(), Vec::new());
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
                for (objective, instance_type, queries) in &fused_groups {
                    black_box(
                        predictor
                            .top_k_many_on(EngineKind::Compiled, queries, *objective, *instance_type)
                            .len(),
                    );
                }
            }
            let c = t.elapsed().as_secs_f64() / reps as f64;
            ratios.push(i / c);
            samples.push(c);
        }
        (median(&ratios), median(&samples))
    };
    let fused_floor_3x = fused_speedup >= 3.0;
    let fused_per_query_us = fused_s / grid.len() as f64 * 1e6;

    let json = format!(
        "{{\n  \"bench\": \"predict_plane\",\n  \"training\": {{ \"dims\": 5, \"rows\": {dbrows} }},\n  \"queries\": {nq},\n  \"rank_candidates\": {{\n    \"interpreted_s\": {interpreted_s:.6},\n    \"compiled_s\": {compiled_s:.6},\n    \"compiled_per_query_us\": {per_query_us:.1},\n    \"speedup\": {speedup:.2},\n    \"speedup_min\": {speedup_min:.2},\n    \"topk5_speedup\": {topk_speedup:.2},\n    \"mismatches\": {mismatches}\n  }},\n  \"fused_rank\": {{\n    \"fused_s\": {fused_s:.6},\n    \"fused_per_query_us\": {fused_per_query_us:.2},\n    \"speedup\": {fused_speedup:.2},\n    \"mismatches\": {fused_mismatches},\n    \"fused_speedup_floor_3x\": {fused_floor_3x}\n  }}\n}}\n",
        dbrows = db.len(),
        nq = grid.len(),
    );

    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = root.join("BENCH_predict.json");
    std::fs::write(&out, &json).expect("write BENCH_predict.json");
    println!("{json}");
    println!("wrote {}", out.display());
    eprint!("{}", metrics.render());

    // Gate: the compiled plane must hold a >= 3x median pair ratio on the
    // full-grid ranking with zero divergence from the oracle.  The margin
    // below the idle-box reading (4-6x) absorbs a hot or contended box the
    // same way bench_cart's build gate does; an actual plane regression
    // (falling back to per-row walks or per-candidate allocation) reads
    // near 1x and fails cleanly.
    assert!(
        speedup >= 3.0,
        "compiled rank_candidates must be >= 3x the interpreted oracle \
         (got median pair ratio {speedup:.2}x, min {speedup_min:.2}x)"
    );
    // Gate: the fused cross-request sweep must rank the full query grid at
    // >= 3x the per-query interpreted oracle — the same floor as the
    // compiled lane above, with the same margin below the idle-box reading
    // (~14x).  A fused sweep that stopped scoring through the compiled
    // arenas reads near 1x and fails cleanly.
    assert!(
        fused_floor_3x,
        "fused top_k_many must rank the full grid >= 3x the interpreted oracle \
         (got median pair ratio {fused_speedup:.2}x)"
    );
}
