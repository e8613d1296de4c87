//! Search quality against the exhaustive campaign, on the 5-dim grids of
//! two seeded campaigns (96 points each): how close the bandit gets to
//! the grid's best at a tenth of its measurements, how much a warm start
//! from another campaign's store saves, and that a store-answered point
//! carries the exhaustive campaign's exact bits.

use acic::space::SpacePoint;
use acic::store::{samples_from_collection, SampleLookup};
use acic::training::CollectOptions;
use acic::{Collection, Objective, Trainer};
use acic_search::{run_search, Budget, SearchConfig, Strategy};

const DIMS: usize = 5;
const SEEDS: [u64; 2] = [7, 20131117];
/// Within 5% of the exhaustive campaign's best improvement.
const TOLERANCE: f64 = 0.95;

/// The seed's trainer, its grid, and the exhaustive campaign over it.
fn exhaustive(seed: u64) -> (Trainer, Vec<SpacePoint>, Collection) {
    let trainer = Trainer::with_paper_ranking(seed);
    let points = trainer.sample_points(DIMS);
    let full = trainer.collect_with(&points, &CollectOptions::default()).unwrap();
    (trainer, points, full)
}

fn best(full: &Collection) -> f64 {
    full.db.points.iter().map(|p| p.perf_improvement).fold(f64::NEG_INFINITY, f64::max)
}

fn bandit(budget: usize, batch: usize) -> SearchConfig<'static> {
    SearchConfig::new(
        Strategy::Bandit,
        Budget::measurements(budget).with_batch(batch),
        Objective::Performance,
    )
}

#[test]
fn bandit_is_within_5pct_of_the_exhaustive_best_at_a_tenth_of_the_grid() {
    // Halving reads 0.38 and 0.36 of the best here; the bandit reads 1.0.
    for seed in SEEDS {
        let (trainer, points, full) = exhaustive(seed);
        let budget = points.len() / 10;
        let out = run_search(&trainer, &points, &bandit(budget, 2)).unwrap();
        assert!(out.plan.measurements() <= budget, "seed {seed}: overspent");
        let ratio = out.plan.best().unwrap() / best(&full);
        assert!(ratio >= TOLERANCE, "seed {seed}: the bandit reached {ratio:.4} of the best");
    }
}

#[test]
fn warm_start_reaches_the_target_in_fewer_measurements_than_cold() {
    // The warm store is the other seed's campaign over every second grid
    // point: exact-key overlaps are answered free, the rest become
    // remapped surrogate priors.
    let (trainer, points, full) = exhaustive(SEEDS[0]);
    let target = TOLERANCE * best(&full);
    let other = Trainer::with_paper_ranking(SEEDS[1]);
    let half: Vec<usize> = (0..points.len()).step_by(2).collect();
    let opts = CollectOptions { subset: Some(&half), ..Default::default() };
    let warm_col = other.collect_with(&points, &opts).unwrap();
    let warm_samples = samples_from_collection(&other.campaign_id(&points), &warm_col).unwrap();
    let lookup = SampleLookup::from_samples(warm_samples.clone());

    let cold_cfg = bandit(points.len() / 4, 3);
    let warm_cfg = SearchConfig { lookup: Some(&lookup), warm: &warm_samples, ..cold_cfg };
    let to_target = |cfg: &SearchConfig| {
        let plan = run_search(&trainer, &points, cfg).unwrap().plan;
        plan.rounds.iter().find(|r| r.best >= target).map(|r| r.measurements)
    };
    let (cold, warm) = (to_target(&cold_cfg), to_target(&warm_cfg));
    assert!(
        matches!((warm, cold), (Some(w), Some(c)) if w < c),
        "measurements to target: warm {warm:?}, cold {cold:?}"
    );
    // Today's counts.  A warm start without the remapped priors still
    // reads 7 < 15, so only the pin notices their loss.
    assert_eq!((warm, cold), (Some(1), Some(15)));
}

#[test]
fn store_answered_points_carry_the_exhaustive_bits() {
    for seed in SEEDS {
        let (trainer, points, full) = exhaustive(seed);
        let samples = samples_from_collection(&trainer.campaign_id(&points), &full).unwrap();
        let lookup = SampleLookup::from_samples(samples);
        let cfg = SearchConfig { lookup: Some(&lookup), ..bandit(points.len() / 10, 4) };
        let out = run_search(&trainer, &points, &cfg).unwrap();
        assert!(out.plan.store_hits() > 0, "seed {seed}: the full store answered nothing");
        let log = &out.collection.report.point_log;
        assert_eq!(log.len(), out.collection.db.points.len());
        for (prov, point) in log.iter().zip(&out.collection.db.points) {
            assert_eq!(*point, full.db.points[prov.index], "seed {seed}: index {}", prov.index);
        }
    }
}
