//! The adaptive campaign driver: planner batches through the trainer's
//! retry/journal/checkpoint path, with budgets, warm start, and a
//! rendered, byte-diffable [`Plan`].
//!
//! ## Determinism and resume contract
//!
//! The driver never owns state a journal cannot reconstruct.  Each round
//! it hands the planner the *cumulative* collection (rebuilt from the
//! trainer's output, which itself is rebuilt from the journal on resume)
//! and collects the cumulative proposal set as one subset campaign:
//!
//! * Every point's seed derives from `(campaign seed, grid index)`, so a
//!   subset measurement is bit-identical to the exhaustive campaign's
//!   measurement of the same point.
//! * Planner randomness derives from `(campaign fingerprint, round)`, and
//!   every tie-break falls back to the grid index.
//! * A killed campaign resumed with the same configuration replays the
//!   same rounds: prior-round points are answered by the journal (or the
//!   store), the planner sees identical observations, and proposes
//!   identical batches — the rendered plan is byte-identical.

use crate::budget::{Budget, SearchError, StopReason};
use crate::planner::{Grid, Observation, PlanContext, Strategy};
use acic::journal::CampaignId;
use acic::space::SpacePoint;
use acic::store::{SampleLookup, StoreSample};
use acic::{Collection, CollectOptions, CommitConfig, Metrics, Objective, Trainer};
use std::collections::BTreeSet;
use std::path::Path;

/// Configuration of one adaptive search campaign.
#[derive(Debug, Clone, Copy)]
pub struct SearchConfig<'a> {
    /// Which planner proposes batches.
    pub strategy: Strategy,
    /// What the campaign may spend.
    pub budget: Budget,
    /// Which improvement the planner maximizes (and the plan reports).
    pub objective: Objective,
    /// Checkpoint journal (same semantics as exhaustive campaigns).
    pub journal: Option<&'a Path>,
    /// Observability sink for `search.*` counters.
    pub metrics: Option<&'a Metrics>,
    /// Lookup-before-measure index; hits cost no budget.
    pub lookup: Option<&'a SampleLookup>,
    /// Warm-start samples remapped into surrogate priors (empty = cold).
    pub warm: &'a [StoreSample],
    /// Journal commit configuration threaded into every round's
    /// collection (plan and journal bytes are identical at any batch).
    pub commit: CommitConfig,
}

impl<'a> SearchConfig<'a> {
    /// A cold campaign with no journal, metrics, or store.
    pub fn new(strategy: Strategy, budget: Budget, objective: Objective) -> Self {
        Self {
            strategy,
            budget,
            objective,
            journal: None,
            metrics: None,
            lookup: None,
            warm: &[],
            commit: CommitConfig::default(),
        }
    }
}

/// One round of the executed plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanRound {
    /// Round number (0-based).
    pub round: usize,
    /// Grid indices the planner proposed this round (plan order).
    pub proposed: Vec<usize>,
    /// Campaign measurements after this round (simulated points; store
    /// hits excluded).
    pub measurements: usize,
    /// Store-answered points after this round.
    pub store_hits: usize,
    /// Best observed improvement after this round.
    pub best: f64,
}

/// The executed search plan: what was proposed, measured, and why the
/// campaign stopped.  [`Plan::render`] is the byte-diffable artifact the
/// tier-1 gate compares across reruns and kill→resume.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Planner name.
    pub strategy: &'static str,
    /// The campaign this plan searched.
    pub campaign: CampaignId,
    /// Objective the planner maximized.
    pub objective: Objective,
    /// The budget in force.
    pub budget: Budget,
    /// Warm-start priors fed to the surrogate.
    pub warm_priors: usize,
    /// The executed rounds.
    pub rounds: Vec<PlanRound>,
    /// Why the campaign stopped.
    pub stop: StopReason,
}

impl Plan {
    /// Total simulated measurements.
    pub fn measurements(&self) -> usize {
        self.rounds.last().map_or(0, |r| r.measurements)
    }

    /// Total store-answered points.
    pub fn store_hits(&self) -> usize {
        self.rounds.last().map_or(0, |r| r.store_hits)
    }

    /// Best observed improvement.
    pub fn best(&self) -> Option<f64> {
        self.rounds.last().map(|r| r.best)
    }

    /// Render as a versioned, line-oriented text artifact.  Two campaigns
    /// produce byte-identical renders iff they planned and measured
    /// identically (f64 fields print Rust's shortest round-trip form).
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        writeln!(s, "acic-plan v1").unwrap();
        writeln!(
            s,
            "campaign seed={} points={} fingerprint={:016x}",
            self.campaign.seed, self.campaign.points, self.campaign.fingerprint
        )
        .unwrap();
        let cost = self.budget.max_cost_usd.map_or("-".to_string(), |c| c.to_string());
        let plateau = self.budget.plateau_rounds.map_or("-".to_string(), |p| p.to_string());
        writeln!(
            s,
            "strategy={} objective={} budget={} batch={} max_cost={} plateau={} warm_priors={}",
            self.strategy,
            match self.objective {
                Objective::Performance => "perf",
                Objective::Cost => "cost",
            },
            self.budget.max_measurements,
            self.budget.batch,
            cost,
            plateau,
            self.warm_priors
        )
        .unwrap();
        for r in &self.rounds {
            let ixs: Vec<String> = r.proposed.iter().map(|i| i.to_string()).collect();
            writeln!(
                s,
                "round\t{}\tmeasured={}\tstore_hits={}\tbest={}\tproposed={}",
                r.round,
                r.measurements,
                r.store_hits,
                r.best,
                ixs.join(",")
            )
            .unwrap();
        }
        writeln!(
            s,
            "stop\t{}\trounds={}\tmeasurements={}\tstore_hits={}",
            self.stop.code(),
            self.rounds.len(),
            self.measurements(),
            self.store_hits()
        )
        .unwrap();
        s
    }
}

/// A finished search campaign: the partial collection (ready for store
/// ingest / model fitting) plus the executed plan.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// The collected (partial) database and its report, exactly as an
    /// exhaustive campaign over the measured subset would return.
    pub collection: Collection,
    /// What happened, round by round.
    pub plan: Plan,
    /// Grid index of the best measured point (by the campaign objective).
    pub best_index: Option<usize>,
}

/// Run an adaptive campaign of `cfg.strategy` over `points` (the full
/// grid the campaign *would* measure exhaustively; the planner decides
/// which fraction actually runs).
pub fn run_search(
    trainer: &Trainer,
    points: &[SpacePoint],
    cfg: &SearchConfig,
) -> Result<SearchOutcome, SearchError> {
    cfg.budget.validate()?;
    if points.is_empty() {
        return Err(SearchError::EmptyGrid);
    }
    let id = trainer.campaign_id(points);
    let grid = Grid::new(points);
    let priors = crate::warm::remap(cfg.warm, &grid, cfg.objective);
    let mut planner = cfg.strategy.instantiate();

    let mut proposed: BTreeSet<usize> = BTreeSet::new();
    let mut history: Vec<Observation> = Vec::new();
    let mut rounds: Vec<PlanRound> = Vec::new();
    let mut collection: Option<Collection> = None;
    let mut measurements = 0usize;
    let mut best: Option<f64> = None;
    let mut flat_rounds = 0usize;

    let stop = loop {
        if measurements >= cfg.budget.max_measurements {
            break StopReason::Budget;
        }
        let round = rounds.len();
        let limit = cfg.budget.batch.min(cfg.budget.max_measurements - measurements);
        let ctx = PlanContext {
            fingerprint: id.fingerprint,
            round,
            limit,
            grid: &grid,
            history: &history,
            priors: &priors,
            proposed: &proposed,
        };
        let batch = planner.plan(&ctx);
        if let Some(&bad) = batch.iter().find(|&&i| i >= grid.len()) {
            return Err(SearchError::BadProposal { round, index: bad, grid: grid.len() });
        }
        let batch: Vec<usize> =
            batch.into_iter().filter(|i| !proposed.contains(i)).take(limit).collect();
        if batch.is_empty() {
            break StopReason::Exhausted;
        }
        proposed.extend(batch.iter().copied());

        // One cumulative subset collection per round: earlier rounds are
        // answered by the journal (or the store), this round simulates.
        let subset: Vec<usize> = proposed.iter().copied().collect();
        let opts = CollectOptions {
            journal: cfg.journal,
            metrics: None, // cumulative re-collection would multi-count
            strict: false,
            subset: Some(&subset),
            lookup: cfg.lookup,
            commit: cfg.commit,
        };
        let col = trainer.collect_with(points, &opts)?;

        // Campaign-level accounting: every wanted point was either
        // simulated (this session or journaled) or answered by the store.
        measurements = col.report.planned - col.report.store_hits;
        history = col
            .report
            .point_log
            .iter()
            .zip(&col.db.points)
            .map(|(prov, tp)| Observation {
                index: Some(prov.index),
                row: grid.rows[prov.index].clone(),
                target: match cfg.objective {
                    Objective::Performance => tp.perf_improvement,
                    Objective::Cost => tp.cost_improvement,
                },
            })
            .collect();
        let best_now = history
            .iter()
            .map(|o| o.target)
            .fold(f64::NEG_INFINITY, f64::max);
        let improved = match best {
            None => best_now.is_finite(),
            Some(b) => best_now > b + Budget::PLATEAU_EPSILON * b.abs().max(1.0),
        };
        if improved {
            flat_rounds = 0;
            best = Some(best_now);
        } else {
            flat_rounds += 1;
        }
        rounds.push(PlanRound {
            round,
            proposed: batch,
            measurements,
            store_hits: col.report.store_hits,
            best: best.unwrap_or(f64::NEG_INFINITY),
        });
        let cost_so_far = col.db.collect_cost_usd;
        collection = Some(col);
        if let Some(p) = cfg.budget.plateau_rounds {
            if flat_rounds >= p {
                break StopReason::Plateau;
            }
        }
        if let Some(cap) = cfg.budget.max_cost_usd {
            if cost_so_far >= cap {
                break StopReason::Cost;
            }
        }
    };

    let collection = collection.unwrap_or_else(|| Collection {
        db: Default::default(),
        report: Default::default(),
    });
    let plan = Plan {
        strategy: cfg.strategy.name(),
        campaign: id,
        objective: cfg.objective,
        budget: cfg.budget,
        warm_priors: priors.len(),
        rounds,
        stop,
    };
    let best_index = history
        .iter()
        .max_by(|a, b| a.target.total_cmp(&b.target).then_with(|| b.index.cmp(&a.index)))
        .and_then(|o| o.index);

    if let Some(m) = cfg.metrics {
        m.incr("search.rounds", plan.rounds.len() as u64);
        m.incr("search.measurements", plan.measurements() as u64);
        m.incr("search.store_hits", plan.store_hits() as u64);
        m.incr("search.warm_priors", plan.warm_priors as u64);
    }

    Ok(SearchOutcome { collection, plan, best_index })
}

#[cfg(test)]
mod tests {
    use super::*;
    use acic::Trainer;

    fn trainer() -> Trainer {
        Trainer::with_paper_ranking(7)
    }

    #[test]
    fn budget_caps_measurements_exactly() {
        let t = trainer();
        let points = t.sample_points(4);
        for strategy in Strategy::ALL {
            let cfg = SearchConfig::new(
                strategy,
                Budget::measurements(10).with_batch(4),
                Objective::Performance,
            );
            let out = run_search(&t, &points, &cfg).unwrap();
            assert_eq!(out.plan.measurements(), 10, "{}", strategy.name());
            assert_eq!(out.plan.stop, StopReason::Budget, "{}", strategy.name());
            assert_eq!(out.collection.db.len(), 10);
            assert!(out.best_index.is_some());
            assert!(out.plan.measurements() < points.len(), "search must undercut the grid");
        }
    }

    #[test]
    fn plans_are_bit_identical_across_reruns() {
        let t = trainer();
        let points = t.sample_points(4);
        for strategy in Strategy::ALL {
            let cfg = SearchConfig::new(
                strategy,
                Budget::measurements(12).with_batch(5),
                Objective::Cost,
            );
            let a = run_search(&t, &points, &cfg).unwrap();
            let b = run_search(&t, &points, &cfg).unwrap();
            assert_eq!(a.plan, b.plan, "{}", strategy.name());
            assert_eq!(a.plan.render(), b.plan.render());
            assert_eq!(a.collection.db, b.collection.db);
        }
    }

    #[test]
    fn oversized_budgets_exhaust_the_grid() {
        let t = trainer();
        let points = t.sample_points(2);
        let cfg = SearchConfig::new(
            Strategy::PbRanked,
            Budget::measurements(10_000).with_batch(16),
            Objective::Performance,
        );
        let out = run_search(&t, &points, &cfg).unwrap();
        assert_eq!(out.plan.stop, StopReason::Exhausted);
        assert_eq!(out.plan.measurements(), points.len());
        assert_eq!(out.collection.db.len(), points.len());
        // An exhausted search is exactly the exhaustive campaign.
        let full = t.collect_points(&points).unwrap();
        assert_eq!(out.collection.db, full);
    }

    #[test]
    fn plateau_rule_stops_flat_campaigns() {
        let t = trainer();
        let points = t.sample_points(4);
        let cfg = SearchConfig::new(
            Strategy::Bandit,
            Budget::measurements(points.len()).with_batch(3).with_plateau(2),
            Objective::Performance,
        );
        let out = run_search(&t, &points, &cfg).unwrap();
        // With a budget as large as the grid, only the plateau (or full
        // exhaustion) can stop it — and a 3-per-round campaign over this
        // grid flattens long before the end.
        assert!(
            matches!(out.plan.stop, StopReason::Plateau | StopReason::Exhausted),
            "{:?}",
            out.plan.stop
        );
        if out.plan.stop == StopReason::Plateau {
            assert!(out.plan.measurements() < points.len());
        }
    }

    #[test]
    fn cost_ceiling_stops_spending() {
        let t = trainer();
        let points = t.sample_points(4);
        let free = SearchConfig::new(
            Strategy::PbRanked,
            Budget::measurements(20).with_batch(4),
            Objective::Performance,
        );
        let unbounded = run_search(&t, &points, &free).unwrap();
        let spent = unbounded.collection.db.collect_cost_usd;
        assert!(spent > 0.0);
        let capped_cfg = SearchConfig {
            budget: Budget::measurements(20).with_batch(4).with_max_cost(spent / 2.0),
            ..free
        };
        let capped = run_search(&t, &points, &capped_cfg).unwrap();
        assert_eq!(capped.plan.stop, StopReason::Cost);
        assert!(capped.plan.measurements() < unbounded.plan.measurements());
    }

    #[test]
    fn empty_grid_and_bad_budget_are_typed_errors() {
        let t = trainer();
        let cfg = SearchConfig::new(
            Strategy::Bandit,
            Budget::measurements(5),
            Objective::Performance,
        );
        assert_eq!(run_search(&t, &[], &cfg).unwrap_err(), SearchError::EmptyGrid);
        let bad = SearchConfig { budget: Budget::measurements(0), ..cfg };
        let points = t.sample_points(1);
        assert!(matches!(
            run_search(&t, &points, &bad).unwrap_err(),
            SearchError::InvalidBudget(_)
        ));
    }

    #[test]
    fn rendered_plans_carry_the_campaign_identity() {
        let t = trainer();
        let points = t.sample_points(3);
        let cfg = SearchConfig::new(
            Strategy::Halving,
            Budget::measurements(8).with_batch(4),
            Objective::Performance,
        );
        let out = run_search(&t, &points, &cfg).unwrap();
        let text = out.plan.render();
        assert!(text.starts_with("acic-plan v1\n"), "{text}");
        let id = t.campaign_id(&points);
        assert!(text.contains(&format!("fingerprint={:016x}", id.fingerprint)), "{text}");
        assert!(text.contains("strategy=halving"), "{text}");
        assert!(text.contains("stop\tbudget"), "{text}");
    }

    #[test]
    fn search_metrics_are_emitted() {
        let m = Metrics::new();
        let t = trainer();
        let points = t.sample_points(3);
        let cfg = SearchConfig {
            metrics: Some(&m),
            ..SearchConfig::new(
                Strategy::Bandit,
                Budget::measurements(6).with_batch(3),
                Objective::Performance,
            )
        };
        let out = run_search(&t, &points, &cfg).unwrap();
        assert_eq!(m.counter("search.measurements"), out.plan.measurements() as u64);
        assert_eq!(m.counter("search.rounds"), out.plan.rounds.len() as u64);
        // A round's best is a ratio, recorded exactly in the plan, never
        // rendered as a timing.
        let rendered = m.render();
        let timed =
            |l: &str| l.trim_start().starts_with("search.round") && l.ends_with("observation(s)");
        assert!(!rendered.lines().any(timed), "{rendered}");
    }
}
