//! Criterion benches of the CART implementation: growth, cross-validated
//! pruning, prediction, and the bagged-forest extension — plus the
//! ablation comparing the single pruned tree against the forest on real
//! ACIC training data (DESIGN.md §8).

use acic::{Objective, Trainer};
use acic_cart::{build_tree, cross_validated_prune, BuildParams, Dataset, Forest, ForestParams};
use acic_cloudsim::rng::SplitMix64;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn synthetic_dataset(n: usize) -> Dataset {
    use acic_cart::Feature;
    let mut d = Dataset::new(vec![
        Feature::numeric("x"),
        Feature::numeric("y"),
        Feature::categorical("c", 4),
    ]);
    let mut rng = SplitMix64::new(11);
    for _ in 0..n {
        let x = rng.uniform(0.0, 10.0);
        let y = rng.uniform(0.0, 10.0);
        let c = rng.below(4) as f64;
        let target = x * 2.0 + if c == 2.0 { 20.0 } else { 0.0 }
            + f64::from(u8::from(y > 5.0)) * 7.0
            + rng.uniform(-1.0, 1.0);
        d.push(vec![x, y, c], target);
    }
    d
}

fn bench_build(c: &mut Criterion) {
    let mut g = c.benchmark_group("cart_build");
    for &n in &[200usize, 1000, 5000] {
        let d = synthetic_dataset(n);
        g.bench_with_input(BenchmarkId::new("grow", n), &d, |b, d| {
            b.iter(|| black_box(build_tree(d, &BuildParams::default()).leaf_count()));
        });
    }
    g.finish();
}

fn bench_forest_scaling(c: &mut Criterion) {
    // Forest::fit parallelism: 25 bootstrap trees, one worker vs all cores
    // (bit-identical output either way).
    let d = synthetic_dataset(4_000);
    let params = ForestParams::default();
    let mut g = c.benchmark_group("forest_fit_25trees_4000");
    g.sample_size(10);
    for threads in [1, rayon::current_num_threads().max(2)] {
        g.bench_with_input(BenchmarkId::new("threads", threads), &threads, |b, &t| {
            std::env::set_var("RAYON_NUM_THREADS", t.to_string());
            b.iter(|| black_box(Forest::fit(&d, &params).trees.len()));
        });
    }
    std::env::remove_var("RAYON_NUM_THREADS");
    g.finish();
}

fn bench_prune(c: &mut Criterion) {
    let d = synthetic_dataset(800);
    c.bench_function("cart_prune/cv5_800pts", |b| {
        b.iter(|| black_box(cross_validated_prune(&d, 5, 3).leaf_count()));
    });
}

fn bench_predict(c: &mut Criterion) {
    let d = synthetic_dataset(2000);
    let tree = build_tree(&d, &BuildParams::default());
    c.bench_function("cart_predict/single_row", |b| {
        b.iter(|| black_box(tree.predict(&[3.3, 7.1, 2.0]).value));
    });
}

fn bench_forest_ablation(c: &mut Criterion) {
    // Real ACIC training data: does bagging buy anything over the pruned
    // tree?  (DESIGN.md §8 ablation.)
    let db = Trainer::with_paper_ranking(5).collect(4).expect("training failed");
    let ds = db.to_dataset(Objective::Performance);
    let mut g = c.benchmark_group("forest_ablation");
    g.sample_size(10);
    g.bench_function("single_pruned_tree", |b| {
        b.iter(|| black_box(cross_validated_prune(&ds, 5, 1).mse(&ds)));
    });
    g.bench_function("bagged_forest_25", |b| {
        b.iter(|| black_box(Forest::fit(&ds, &ForestParams::default()).mse(&ds)));
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_build,
    bench_forest_scaling,
    bench_prune,
    bench_predict,
    bench_forest_ablation
);
criterion_main!(benches);
