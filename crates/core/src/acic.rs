//! The ACIC facade: bootstrap (screen → train → fit), query, and
//! incremental retraining.

use crate::error::AcicError;
use crate::objective::Objective;
use crate::predictor::Predictor;
use crate::profile::app_point_from;
use crate::reducer::{reduce, Reduction};
use crate::space::{AppPoint, ParamId, SpacePoint, SystemConfig};
use crate::training::{Trainer, TrainingDb};
use acic_apps::{profile as profile_trace, AppModel};
use acic_cloudsim::instance::InstanceType;

/// One recommended configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Recommendation {
    /// The recommended I/O-system configuration.
    pub config: SystemConfig,
    /// Predicted improvement over the baseline (> 1 beats it).
    pub predicted_improvement: f64,
}

/// A bootstrapped ACIC instance: ranking + training database + CART models.
#[derive(Debug, Clone)]
pub struct Acic {
    /// The training database backing the models.
    pub db: TrainingDb,
    /// The fitted predictor.
    pub predictor: Predictor,
    /// Parameter importance order used for training and walking.
    pub ranking: Vec<ParamId>,
    /// The PB screening result, when the ranking came from a screen.
    pub reduction: Option<Reduction>,
    seed: u64,
}

impl Acic {
    /// Full bootstrap: run the foldover PB screen on the simulated cloud,
    /// collect training data over the `top_n` most important dimensions,
    /// and fit the CART models.  This is the paper's initial-training
    /// path; `top_n = 10` matches the evaluation ("the first 10 parameters
    /// are used in the training", §5.3).
    pub fn bootstrap(top_n: usize, seed: u64) -> Result<Self, AcicError> {
        let reduction = reduce(Objective::Performance, seed)?;
        let trainer = Trainer::new(reduction.ranking.clone(), seed);
        let mut db = trainer.collect(top_n)?;
        db.collect_cost_usd += reduction.screen_cost_usd;
        let predictor = Predictor::train(&db, seed)?;
        Ok(Self {
            db,
            predictor,
            ranking: reduction.ranking.clone(),
            reduction: Some(reduction),
            seed,
        })
    }

    /// Bootstrap using the paper's published Table 1 ranking instead of
    /// re-screening (cheaper; used by tests and several figures).
    pub fn with_paper_ranking(top_n: usize, seed: u64) -> Result<Self, AcicError> {
        let trainer = Trainer::with_paper_ranking(seed);
        let db = trainer.collect(top_n)?;
        let predictor = Predictor::train(&db, seed)?;
        Ok(Self { db, predictor, ranking: trainer.ranking, reduction: None, seed })
    }

    /// Build from an existing database (e.g. the points of a shared
    /// [`crate::store::PublishedSnapshot`], via `to_training_db`) with the
    /// paper ranking.
    pub fn from_db(db: TrainingDb, seed: u64) -> Result<Self, AcicError> {
        Self::from_db_with(db, seed, acic_cart::ModelKind::Cart)
    }

    /// [`Self::from_db`] fitting `kind` — one fit, where `from_db` then
    /// [`Self::retrain_with`] would fit CART first and throw it away.
    pub fn from_db_with(
        db: TrainingDb,
        seed: u64,
        kind: acic_cart::ModelKind,
    ) -> Result<Self, AcicError> {
        let predictor = Predictor::train_with(&db, seed, kind)?;
        Ok(Self {
            db,
            predictor,
            ranking: Trainer::with_paper_ranking(seed).ranking,
            reduction: None,
            seed,
        })
    }

    /// Top-k recommendations for explicit characteristics.
    pub fn recommend(
        &self,
        app: &AppPoint,
        objective: Objective,
        k: usize,
    ) -> Vec<Recommendation> {
        self.predictor
            .top_k(app, objective, InstanceType::Cc2_8xlarge, k)
            .into_iter()
            .map(|(config, predicted_improvement)| Recommendation {
                config,
                predicted_improvement,
            })
            .collect()
    }

    /// Profile an application model and recommend for it — the end-to-end
    /// Figure 2 path (profiler → query → recommendation).
    pub fn recommend_for(
        &self,
        model: &dyn AppModel,
        objective: Objective,
        k: usize,
    ) -> Result<Vec<Recommendation>, AcicError> {
        let chars = profile_trace(&model.trace())
            .ok_or_else(|| AcicError::Invalid(format!("{} performs no I/O", model.name())))?;
        Ok(self.recommend(&app_point_from(&chars), objective, k))
    }

    /// Incremental training (§2 "expandability"): fold new user-contributed
    /// sample points into the database and refit the models.
    pub fn contribute(&mut self, points: &[SpacePoint]) -> Result<(), AcicError> {
        let trainer = Trainer::new(self.ranking.clone(), self.seed ^ 0xC0FFEE);
        let new = trainer.collect_points(points)?;
        self.db.merge(new);
        self.predictor = Predictor::train(&self.db, self.seed)?;
        Ok(())
    }

    /// Swap the learning algorithm and refit on the same database ("ACIC
    /// is implemented in the way that different learning algorithms can be
    /// easily plugged in", §4.2).
    pub fn retrain_with(&mut self, kind: acic_cart::ModelKind) -> Result<(), AcicError> {
        self.predictor = Predictor::train_with(&self.db, self.seed, kind)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acic_apps::MadBench2;
    use acic_cloudsim::units::mib;

    #[test]
    fn paper_ranking_bootstrap_recommends_valid_configs() {
        let acic = Acic::with_paper_ranking(4, 2).unwrap();
        let app = SpacePoint::default_point().app;
        let recs = acic.recommend(&app, Objective::Performance, 3);
        assert_eq!(recs.len(), 3);
        for r in &recs {
            assert!(r.config.valid_for(app.nprocs));
            assert!(r.predicted_improvement.is_finite());
        }
    }

    #[test]
    fn end_to_end_profile_and_recommend() {
        let acic = Acic::with_paper_ranking(4, 2).unwrap();
        let app = MadBench2::paper(64);
        let recs = acic.recommend_for(&app, Objective::Cost, 5).unwrap();
        assert_eq!(recs.len(), 5);
    }

    #[test]
    fn contribute_grows_db_and_refits() {
        let mut acic = Acic::with_paper_ranking(3, 2).unwrap();
        let before = acic.db.len();
        let mut p = SpacePoint::default_point();
        p.app.data_size = mib(32.0);
        p.system.fs = acic_fsim::FsType::Pvfs2;
        p.system.stripe_size = mib(4.0);
        p.system.io_servers = 2;
        acic.contribute(&[p.normalized()]).unwrap();
        assert_eq!(acic.db.len(), before + 1);
    }

    #[test]
    fn from_db_with_fits_what_from_db_then_retrain_with_fits() {
        use acic_cart::ModelKind;
        let db = Acic::with_paper_ranking(3, 2).unwrap().db;
        let (app, model) = (SpacePoint::default_point().app, MadBench2::paper(64));
        for kind in [ModelKind::Knn { k: 7 }, ModelKind::Forest { n_trees: 9 }] {
            let once = Acic::from_db_with(db.clone(), 5, kind).unwrap();
            let mut twice = Acic::from_db(db.clone(), 5).unwrap();
            twice.retrain_with(kind).unwrap();
            for goal in [Objective::Performance, Objective::Cost] {
                let (a, b) = (once.recommend(&app, goal, 28), twice.recommend(&app, goal, 28));
                assert_eq!(a, b, "{kind}");
                assert_eq!(
                    once.recommend_for(&model, goal, 28).unwrap(),
                    twice.recommend_for(&model, goal, 28).unwrap(),
                    "{kind}"
                );
            }
        }
    }

    #[test]
    fn full_bootstrap_screens_then_trains() {
        let acic = Acic::bootstrap(3, 9).unwrap();
        assert!(acic.reduction.is_some());
        assert_eq!(acic.reduction.as_ref().unwrap().runs, 32);
        assert!(!acic.db.is_empty());
        assert!(acic.db.collect_cost_usd > 0.0);
    }
}
