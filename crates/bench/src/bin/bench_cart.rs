//! Emit `BENCH_cart.json` at the repo root: before/after timings of the
//! CART engine rewrite (column-major + presorted + parallel forest).
//!
//! "Before" is the kept reference engine (`acic_bench::cart_ref`): per-node
//! column sorting and materialized child index vectors.  "After" is
//! `acic_cart::build_tree` on the presorted frame.  The two are asserted
//! tree-equal before timing, so the numbers compare engines, not models.
//! Runs in seconds; wired into `scripts/tier1.sh`.

use acic::Metrics;
use acic_bench::cart_ref::{acic_like_dataset, reference_build_tree, RowMajor};
use acic_bench::stats::median;
use acic_cart::{
    build_tree, build_tree_view_resorted, BuildParams, Dataset, Forest, ForestParams,
};
use acic_cloudsim::rng::SplitMix64;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// `Forest::fit` with the pre-fix per-tree engine: every bootstrap frame
/// rebuilds its sorted orders with per-feature comparison sorts
/// (`build_tree_view_resorted`) instead of deriving them from the cached
/// dataset presort by a counting pass.  Same samples, same trees, bit for
/// bit — this is the baseline the forest gate times the fix against.
fn fit_resorted(data: &Dataset, params: &ForestParams) -> Forest {
    let mut rng = SplitMix64::new(params.seed);
    let n = data.len();
    let samples: Vec<Vec<usize>> = (0..params.n_trees)
        .map(|_| (0..n).map(|_| rng.below(n)).collect())
        .collect();
    let trees =
        samples.iter().map(|s| build_tree_view_resorted(data, s, &params.tree_params)).collect();
    Forest { trees }
}

/// `(median, min)` wall-clock seconds of `runs` invocations.  The shared
/// benchmark box is noisy; load spikes only ever inflate a sample, so the
/// minimum is the steadiest engine-to-engine ratio estimator, while the
/// median is the honest "typical run" number to report.
fn time_samples<R>(runs: usize, mut f: impl FnMut() -> R) -> (f64, f64) {
    let mut samples: Vec<f64> = (0..runs)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    (samples[samples.len() / 2], samples[0])
}

fn main() {
    let metrics = Metrics::new();
    let rows = 10_000;
    let (d, rm) = {
        let _span = metrics.span("phase.dataset");
        let d = acic_like_dataset(rows, 42);
        let rm = RowMajor::from_dataset(&d);
        (d, rm)
    };
    let params = BuildParams::default();

    let bit_identical = {
        let _span = metrics.span("phase.equivalence");
        reference_build_tree(&rm, &params) == build_tree(&d, &params)
    };
    assert!(bit_identical, "engines diverged on the benchmark dataset");

    // Time the engines in back-to-back pairs and gate on the per-pair
    // ratio: the box's load drifts on the scale of whole samples (thermal
    // throttling, a test suite finishing in the background), and a drift
    // that lands on only one engine's sample block skews a
    // block-vs-block ratio.  Within a pair both engines see the same
    // conditions, so the ratio distribution is tight even when absolute
    // times wander.
    eprintln!("timing build_tree on {rows} rows x {} features ...", d.features.len());
    let pairs = 9;
    let (mut reference_samples, mut presorted_samples, mut ratios) =
        (Vec::new(), Vec::new(), Vec::new());
    {
        let _span = metrics.span("phase.time.build_tree");
        // One unmeasured warmup apiece (cold caches, page faults).
        black_box(reference_build_tree(&rm, &params).leaf_count());
        black_box(build_tree(&d, &params).leaf_count());
        for _ in 0..pairs {
            let t = Instant::now();
            black_box(reference_build_tree(&rm, &params).leaf_count());
            let r = t.elapsed().as_secs_f64();
            let t = Instant::now();
            black_box(build_tree(&d, &params).leaf_count());
            let p = t.elapsed().as_secs_f64();
            reference_samples.push(r);
            presorted_samples.push(p);
            ratios.push(r / p);
        }
    }
    metrics.incr("bench.samples", 2 * pairs as u64);
    let reference_s = median(&reference_samples);
    let presorted_s = median(&presorted_samples);
    let speedup = median(&ratios);
    let speedup_min = ratios.iter().copied().fold(f64::INFINITY, f64::min);

    // Forest fit: 25 bootstrap trees.  The fix under test is the bagging
    // frame construction — bootstrap frames now *derive* their per-feature
    // sorted orders from the dataset-level presort + value-rank caches by
    // an O(m) counting pass (warmed once, shared read-only by all
    // workers), where the old engine comparison-sorted every feature of
    // every bootstrap frame from scratch and duplicated that work on every
    // thread.  Both engines are asserted tree-equal, then timed in
    // back-to-back pairs like build_tree above: old engine single-thread
    // vs fixed engine at the worker-pool width (the deployment shapes).
    // Thread scaling of the fixed engine is recorded alongside and gated
    // per the box's core count (see the asserts at the bottom).
    let fd = acic_like_dataset(4_000, 42);
    let fparams = ForestParams::default();
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let threads = rayon::current_num_threads().max(2);
    eprintln!("timing Forest::fit ({} trees), resorted-1t vs derived-{threads}t ...", fparams.n_trees);
    let forest_span = metrics.span("phase.time.forest");
    let forest_identical = fit_resorted(&fd, &fparams).trees == Forest::fit(&fd, &fparams).trees;
    assert!(forest_identical, "forest engines diverged on the benchmark dataset");
    let forest_pairs = 5;
    let (mut resorted_samples, mut derived_samples, mut forest_ratios) =
        (Vec::new(), Vec::new(), Vec::new());
    std::env::set_var("RAYON_NUM_THREADS", "1");
    black_box(fit_resorted(&fd, &fparams).trees.len());
    black_box(Forest::fit(&fd, &fparams).trees.len());
    for _ in 0..forest_pairs {
        std::env::set_var("RAYON_NUM_THREADS", "1");
        let t = Instant::now();
        black_box(fit_resorted(&fd, &fparams).trees.len());
        let r = t.elapsed().as_secs_f64();
        std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
        let t = Instant::now();
        black_box(Forest::fit(&fd, &fparams).trees.len());
        let n = t.elapsed().as_secs_f64();
        resorted_samples.push(r);
        derived_samples.push(n);
        forest_ratios.push(r / n);
    }
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let (forest_1t_s, _) = time_samples(3, || Forest::fit(&fd, &fparams).trees.len());
    std::env::remove_var("RAYON_NUM_THREADS");
    drop(forest_span);
    metrics.incr("bench.samples", 2 * forest_pairs as u64 + 3);
    let forest_resorted_s = median(&resorted_samples);
    let forest_nt_s = median(&derived_samples);
    let forest_speedup = median(&forest_ratios);
    let forest_speedup_min = forest_ratios.iter().copied().fold(f64::INFINITY, f64::min);
    let forest_scaling = forest_1t_s / forest_nt_s;

    let gate_mode = if cores >= 2 { "multi_core" } else { "single_core" };
    let json = format!(
        "{{\n  \"bench\": \"cart_engine\",\n  \"dataset\": {{ \"rows\": {rows}, \"features\": {nf} }},\n  \"build_tree\": {{\n    \"reference_s\": {reference_s:.6},\n    \"presorted_s\": {presorted_s:.6},\n    \"speedup\": {speedup:.2},\n    \"speedup_min\": {speedup_min:.2},\n    \"bit_identical\": {bit_identical}\n  }},\n  \"forest_fit\": {{\n    \"trees\": {ntrees},\n    \"rows\": 4000,\n    \"resorted_single_thread_s\": {forest_resorted_s:.6},\n    \"derived_single_thread_s\": {forest_1t_s:.6},\n    \"derived_multi_thread_s\": {forest_nt_s:.6},\n    \"threads\": {threads},\n    \"cores\": {cores},\n    \"gate_mode\": \"{gate_mode}\",\n    \"speedup\": {forest_speedup:.2},\n    \"speedup_min\": {forest_speedup_min:.2},\n    \"scaling\": {forest_scaling:.2},\n    \"bit_identical\": {forest_identical}\n  }}\n}}\n",
        nf = d.features.len(),
        ntrees = fparams.n_trees,
    );

    // Repo root = two levels above this crate's manifest.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = root.join("BENCH_cart.json");
    std::fs::write(&out, &json).expect("write BENCH_cart.json");
    println!("{json}");
    println!("wrote {}", out.display());
    eprint!("{}", metrics.render());
    // Regression gate, not a bragging gate: the engine gap measures
    // 3.1-3.7x on an idle box but compresses to ~2.7x when the CPU is hot
    // or memory bandwidth is contended (e.g. tier-1 runs this right after
    // the full test suite).  An actual engine regression reads ~1x, so
    // 2.5x cleanly separates "slower engine" from "warmer box" without
    // flaking.
    assert!(
        speedup >= 2.5,
        "presorted build_tree must be >= 2.5x the reference on 10k x 15 \
         (got median pair ratio {speedup:.2}x, min pair ratio {speedup_min:.2}x)"
    );
    // Forest gate.  The fix under test replaced the seed's 0.85x thread
    // scaling (parallel fit *slower* than single-thread): bootstrap frames
    // now derive their sorted orders from the dataset presort + value-rank
    // caches, warmed once before the pool instead of recomputed inside
    // every worker.  What 2 threads can prove depends on the box:
    //
    //   >= 2 cores: multi-thread fit must actually scale -- >= 1.3x the
    //   engine's own single-thread time at 2 workers (the satellite's
    //   number; with duplicated presorts gone there is no shared work left
    //   to serialize, so real cores clear this with room).
    //
    //   1 core: a 2-thread pool cannot beat its own single-thread time,
    //   so the gate pins the invariants the fix *can* show here -- scaling
    //   no worse than break-even minus noise (the seed read 0.85x from
    //   oversubscription plus per-worker duplicated sorts) and the derived
    //   engine never losing to the resorted one it replaced.
    if cores >= 2 {
        assert!(
            forest_scaling >= 1.3,
            "parallel Forest::fit must scale >= 1.3x at {threads} threads on \
             {cores} cores (got {forest_scaling:.2}x; engine ratio \
             {forest_speedup:.2}x)"
        );
    } else {
        assert!(
            forest_scaling >= 0.9,
            "single-core break-even regressed: 2-thread Forest::fit is \
             {forest_scaling:.2}x its single-thread time (seed bug read 0.85x)"
        );
        assert!(
            forest_speedup >= 0.9,
            "derived-frame engine lost to the resorted baseline it replaced \
             (median pair ratio {forest_speedup:.2}x, min {forest_speedup_min:.2}x)"
        );
    }
}
