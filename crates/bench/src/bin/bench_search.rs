//! Emit `BENCH_search.json` beside the executable: the adaptive campaign
//! planner against the exhaustive full-grid campaign.
//!
//! The headline gate is the tentpole claim: a model-guided strategy
//! (bandit or halving) must land **within 5% of the full campaign's
//! top-1 improvement using ≤10% of the full grid's measurements**, on at
//! least two seeded campaigns.  Alongside it: per-round regret curves
//! (read back through `core::obs::Metrics`, which `run_search` feeds),
//! the warm-start economy (a warm-started search must spend strictly
//! fewer simulations than a cold one), byte-identical plans across
//! reruns and kill→resume, and zero store-consistency violations
//! (store-answered points must carry the exhaustive campaign's exact
//! bits).
//!
//! Runs in seconds; wired into `scripts/tier1.sh`.

use acic::store::{samples_from_collection, SampleLookup};
use acic::training::CollectOptions;
use acic::{Metrics, Objective, Trainer};
use acic_bench::db_bytes;
use acic_search::{run_search, Budget, SearchConfig, Strategy};
use std::fmt::Write as _;
use std::fs;

const DIMS: usize = 5;
const SEEDS: [u64; 2] = [7, 20131117];
const TOLERANCE: f64 = 0.95; // within 5% of the full campaign's top-1

struct StrategyResult {
    name: &'static str,
    best: f64,
    ratio: f64,
    measurements: usize,
    rounds: usize,
    regret: Vec<f64>,
}

fn regret_curve(metrics: &Metrics, rounds: usize, full_best: f64) -> Vec<f64> {
    (0..rounds)
        .map(|r| {
            let best = metrics.total_secs(&format!("search.round{r:02}.best"));
            (1.0 - best / full_best).max(0.0)
        })
        .collect()
}

/// Kill a journal at half its entry bytes (header kept, torn tail left).
fn kill_halfway(full: &str) -> String {
    let header_end = full
        .char_indices()
        .filter(|&(_, c)| c == '\n')
        .nth(1)
        .map(|(i, _)| i + 1)
        .expect("journal header");
    let body = &full[header_end..];
    format!("{}{}", &full[..header_end], &body[..body.len() / 2])
}

fn main() {
    let mut campaigns_json = Vec::new();
    let mut within = 0usize;
    let mut store_violations = 0usize;
    let mut budget_fraction: f64 = 0.0;
    let mut full_best_first = f64::NEG_INFINITY;

    for seed in SEEDS {
        let trainer = Trainer::with_paper_ranking(seed);
        let points = trainer.sample_points(DIMS);
        let n = points.len();
        let budget = (n / 10).max(1); // floor: strictly ≤10% of the grid
        budget_fraction = budget as f64 / n as f64;

        eprintln!("campaign seed={seed}: exhaustive ground truth over {n} points ...");
        let full = trainer.collect_points(&points).unwrap();
        let full_best = full
            .points
            .iter()
            .map(|p| p.perf_improvement)
            .fold(f64::NEG_INFINITY, f64::max);
        if seed == SEEDS[0] {
            full_best_first = full_best;
        }

        let mut results = Vec::new();
        for strategy in Strategy::ALL {
            let metrics = Metrics::new();
            let cfg = SearchConfig {
                metrics: Some(&metrics),
                ..SearchConfig::new(
                    strategy,
                    Budget::measurements(budget).with_batch(2),
                    Objective::Performance,
                )
            };
            let out = run_search(&trainer, &points, &cfg).unwrap();
            let best = out.plan.best().unwrap_or(f64::NEG_INFINITY);
            results.push(StrategyResult {
                name: strategy.name(),
                best,
                ratio: best / full_best,
                measurements: out.plan.measurements(),
                rounds: out.plan.rounds.len(),
                regret: regret_curve(&metrics, out.plan.rounds.len(), full_best),
            });
            assert!(
                out.plan.measurements() <= budget,
                "{} overspent the budget",
                strategy.name()
            );
        }
        let gate_ratio = results
            .iter()
            .filter(|r| r.name == "bandit" || r.name == "halving")
            .map(|r| r.ratio)
            .fold(f64::NEG_INFINITY, f64::max);
        let ok = gate_ratio >= TOLERANCE;
        within += usize::from(ok);
        for r in &results {
            eprintln!(
                "  {:>8}: best {:.4} ({:.1}% of full) in {} measurements / {} rounds",
                r.name,
                r.best,
                r.ratio * 100.0,
                r.measurements,
                r.rounds
            );
        }

        // Store consistency: answer the same search from a store holding
        // the exhaustive campaign; every answered point must carry the
        // exhaustive campaign's exact bits.
        let id = trainer.campaign_id(&points);
        let full_col = trainer.collect_with(&points, &CollectOptions::default()).unwrap();
        let samples = samples_from_collection(&id, &full_col).unwrap();
        let lookup = SampleLookup::from_samples(samples);
        let cfg = SearchConfig {
            lookup: Some(&lookup),
            ..SearchConfig::new(
                Strategy::Bandit,
                Budget::measurements(budget).with_batch(4),
                Objective::Performance,
            )
        };
        let stored = run_search(&trainer, &points, &cfg).unwrap();
        assert!(stored.plan.store_hits() > 0, "the full store must answer proposals");
        for (prov, tp) in stored
            .collection
            .report
            .point_log
            .iter()
            .zip(&stored.collection.db.points)
        {
            if *tp != full_col.db.points[prov.index] {
                store_violations += 1;
            }
        }

        let mut s = String::new();
        write!(
            s,
            "    {{\n      \"seed\": {seed},\n      \"grid_points\": {n},\n      \
             \"budget\": {budget},\n      \"full_best\": {full_best},\n      \
             \"full_cost_usd\": {:.2},\n      \"strategies\": {{\n",
            full.collect_cost_usd
        )
        .unwrap();
        for (i, r) in results.iter().enumerate() {
            let curve: Vec<String> = r.regret.iter().map(|v| format!("{v:.4}")).collect();
            write!(
                s,
                "        \"{}\": {{ \"best\": {}, \"ratio\": {:.4}, \"measurements\": {}, \
                 \"rounds\": {}, \"regret_curve\": [{}] }}{}\n",
                r.name,
                r.best,
                r.ratio,
                r.measurements,
                r.rounds,
                curve.join(", "),
                if i + 1 < results.len() { "," } else { "" }
            )
            .unwrap();
        }
        write!(
            s,
            "      }},\n      \"gate_ratio\": {gate_ratio:.4},\n      \
             \"within_5pct_at_10pct_measurements\": {ok}\n    }}"
        )
        .unwrap();
        campaigns_json.push(s);
    }

    // --- warm start: another campaign's store, feature-space remapped ----
    // The warm store is the *other* seed's campaign over half of the same
    // grid (every second index): exact-key overlaps are answered free, the
    // rest become remapped surrogate priors.  Economy is measured as the
    // simulations spent until the search is within tolerance of the full
    // campaign's top-1 — a warm search must get there strictly cheaper.
    eprintln!("warm start: half-grid store (other seed) priming a bandit ...");
    let trainer = Trainer::with_paper_ranking(SEEDS[0]);
    let points = trainer.sample_points(DIMS);
    let target = TOLERANCE * full_best_first;
    let warm_trainer = Trainer::with_paper_ranking(SEEDS[1]);
    let half: Vec<usize> = (0..points.len()).step_by(2).collect();
    let opts = CollectOptions { subset: Some(&half), ..Default::default() };
    let warm_col = warm_trainer.collect_with(&points, &opts).unwrap();
    let warm_samples =
        samples_from_collection(&warm_trainer.campaign_id(&points), &warm_col).unwrap();
    let warm_lookup = SampleLookup::from_samples(warm_samples.clone());

    let warm_budget = Budget::measurements(points.len() / 4).with_batch(3);
    let cold_cfg = SearchConfig::new(Strategy::Bandit, warm_budget, Objective::Performance);
    let cold = run_search(&trainer, &points, &cold_cfg).unwrap();
    let warm_cfg = SearchConfig {
        lookup: Some(&warm_lookup),
        warm: &warm_samples,
        ..cold_cfg
    };
    let warm = run_search(&trainer, &points, &warm_cfg).unwrap();
    let to_target = |plan: &acic_search::Plan| -> Option<usize> {
        plan.rounds.iter().find(|r| r.best >= target).map(|r| r.measurements)
    };
    let cold_to = to_target(&cold.plan);
    let warm_to = to_target(&warm.plan);
    eprintln!(
        "  cold: {:?} measurements to target (of {} spent);  warm: {:?} measurements to target \
         (of {} spent, {} store hit(s), {} prior(s))",
        cold_to,
        cold.plan.measurements(),
        warm_to,
        warm.plan.measurements(),
        warm.plan.store_hits(),
        warm.plan.warm_priors,
    );
    let strictly_fewer = match (warm_to, cold_to) {
        (Some(w), Some(c)) => w < c,
        (Some(_), None) => true,
        _ => false,
    };
    let cold_m = cold_to.map_or("null".to_string(), |v| v.to_string());
    let warm_m = warm_to.map_or("null".to_string(), |v| v.to_string());

    // --- determinism: reruns and kill→resume are byte-identical ----------
    eprintln!("determinism: rerun and kill→resume byte-diffs ...");
    let det_cfg = SearchConfig::new(
        Strategy::Bandit,
        Budget::measurements(10).with_batch(4),
        Objective::Performance,
    );
    let a = run_search(&trainer, &points, &det_cfg).unwrap();
    let b = run_search(&trainer, &points, &det_cfg).unwrap();
    let plans_identical = a.plan.render() == b.plan.render()
        && db_bytes(&a.collection.db) == db_bytes(&b.collection.db);

    let journal = std::env::temp_dir().join("acic_bench_search.journal");
    let _ = fs::remove_file(&journal);
    let j_cfg = SearchConfig { journal: Some(&journal), ..det_cfg };
    let truth = run_search(&trainer, &points, &j_cfg).unwrap();
    let bytes = fs::read_to_string(&journal).unwrap();
    fs::write(&journal, kill_halfway(&bytes)).unwrap();
    let resumed = run_search(&trainer, &points, &j_cfg).unwrap();
    let resume_identical = resumed.plan.render() == truth.plan.render()
        && db_bytes(&resumed.collection.db) == db_bytes(&truth.collection.db);
    let _ = fs::remove_file(&journal);

    let pass = within >= 2
        && strictly_fewer
        && plans_identical
        && resume_identical
        && store_violations == 0;
    let json = format!(
        "{{\n  \"bench\": \"search\",\n  \"grid\": {{ \"dims\": {DIMS}, \
         \"budget_fraction\": {budget_fraction:.4}, \"tolerance\": {TOLERANCE} }},\n  \
         \"campaigns\": [\n{campaigns}\n  ],\n  \"warm_start\": {{\n    \
         \"cold_measurements_to_target\": {cold_m},\n    \
         \"warm_measurements_to_target\": {warm_m},\n    \
         \"warm_store_hits\": {warm_hits},\n    \"warm_priors\": {warm_priors},\n    \
         \"strictly_fewer\": {strictly_fewer}\n  }},\n  \"determinism\": {{\n    \
         \"plans_identical\": {plans_identical},\n    \
         \"resume_identical\": {resume_identical}\n  }},\n  \
         \"store_consistency_violations\": {store_violations},\n  \
         \"within_5pct_apps\": {within},\n  \"pass\": {pass}\n}}\n",
        campaigns = campaigns_json.join(",\n"),
        warm_hits = warm.plan.store_hits(),
        warm_priors = warm.plan.warm_priors,
    );

    let out = acic_bench::beside_exe("BENCH_search.json");
    fs::write(&out, &json).expect("write BENCH_search.json");
    println!("{json}");
    println!("wrote {}", out.display());

    assert!(within >= 2, "a model-guided strategy must be within 5% on both campaigns");
    assert!(budget_fraction <= 0.10 + 1e-9, "budget exceeded 10% of the grid");
    assert!(strictly_fewer, "warm start must spend strictly fewer measurements than cold");
    assert!(plans_identical, "same-seed reruns must plan identically");
    assert!(resume_identical, "kill→resume must replay identically");
    assert_eq!(store_violations, 0, "store answers diverged from the exhaustive campaign");
}
