//! Emit `BENCH_cart.json` at the repo root: what the CART fit that every
//! publish runs costs on the data a publish fits.
//!
//! The dataset is the seeded 12-parameter grid campaign (12,768 points,
//! the database the `grid_hot` end-to-end workload publishes), in the
//! store's canonical sample order.  The benchmark times
//! `Predictor::train_with` — both objectives' cross-validation-pruned
//! trees, compiled and grid-planned — over repeated fits and records the
//! median and quartiles.  The only gate is correctness: every fit's tree
//! fingerprints must be equal, and equal to fitting the two objectives
//! one after the other on one thread.
//!
//! `cargo run --release --offline -p acic-bench --bin bench_cart`

use acic::store::{canonicalize, samples_from_collection};
use acic::training::CollectOptions;
use acic::{Objective, Predictor, Trainer, TrainingDb};
use acic_bench::stats::{median, quantile};
use acic_cart::{Model, ModelKind, Tree};
use std::path::Path;
use std::time::Instant;

const SEED: u64 = acic_bench::EXPERIMENT_SEED;
const DIMS: usize = 12;
const FITS: usize = 7;

/// FNV-1a over a tree's exact `Debug` form (shortest round-trip floats).
fn fingerprint(tree: &Tree) -> u64 {
    format!("{tree:?}").bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn fingerprints(p: &Predictor) -> [u64; 2] {
    [Objective::Performance, Objective::Cost].map(|o| fingerprint(p.tree(o)))
}

fn main() {
    eprintln!("collecting the {DIMS}-parameter grid campaign ...");
    let trainer = Trainer::with_paper_ranking(SEED);
    let points = trainer.sample_points(DIMS);
    let collection =
        trainer.collect_with(&points, &CollectOptions::default()).expect("campaign collects");
    let samples = canonicalize(
        samples_from_collection(&trainer.campaign_id(&points), &collection)
            .expect("provenance matches the observations"),
    );
    let db = TrainingDb {
        points: samples.iter().map(|s| s.point).collect(),
        ..TrainingDb::default()
    };

    eprintln!("timing Predictor::train_with on {} points x {FITS} fits ...", db.len());
    let fit = || Predictor::train_with(&db, SEED, ModelKind::Cart).expect("non-empty database");
    let p = fit(); // the first fit also warms the candidate matrices
    let mut ms = Vec::with_capacity(FITS);
    let mut fits_equal = true;
    for _ in 0..FITS {
        let t = Instant::now();
        let again = fit();
        ms.push(t.elapsed().as_secs_f64() * 1e3);
        fits_equal &= fingerprints(&again) == fingerprints(&p);
    }
    let one_by_one = [(Objective::Performance, SEED), (Objective::Cost, SEED ^ 1)].map(|(o, seed)| {
        fingerprint(Model::fit(&db.to_dataset(o), ModelKind::Cart, seed).as_tree().expect("CART"))
    });
    fits_equal &= one_by_one == fingerprints(&p);
    let q = |x| quantile(&ms, x).expect("fits were timed");
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let tree = |o| {
        let t = p.tree(o);
        format!(
            "{{ \"leaves\": {}, \"depth\": {}, \"fingerprint\": \"{:016x}\" }}",
            t.leaf_count(),
            t.depth(),
            fingerprint(t)
        )
    };
    let json = format!(
        "{{\n  \"bench\": \"cart_fit\",\n  \"environment\": {{ \"cores\": {cores}, \"profile\": \"{profile}\" }},\n  \"dataset\": {{ \"campaign\": \"grid{DIMS}\", \"seed\": {SEED}, \"points\": {points} }},\n  \"train_with\": {{\n    \"fits\": {FITS},\n    \"median_ms\": {med:.1},\n    \"q1_ms\": {q1:.1},\n    \"q3_ms\": {q3:.1},\n    \"min_ms\": {min:.1}\n  }},\n  \"trees\": {{\n    \"performance\": {perf},\n    \"cost\": {cost}\n  }},\n  \"fingerprints_equal\": {fits_equal}\n}}\n",
        profile = if cfg!(debug_assertions) { "debug" } else { "release" },
        points = db.len(),
        med = median(&ms),
        q1 = q(0.25),
        q3 = q(0.75),
        min = ms.iter().copied().fold(f64::INFINITY, f64::min),
        perf = tree(Objective::Performance),
        cost = tree(Objective::Cost),
    );

    // Repo root = two levels above this crate's manifest.
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_cart.json");
    std::fs::write(&out, &json).expect("write BENCH_cart.json");
    println!("{json}");
    println!("wrote {}", out.display());
    assert!(fits_equal, "train_with fitted different trees across fits or from a sequential fit");
}
