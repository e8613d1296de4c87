//! Versioned model snapshots with atomic hot-swap.
//!
//! A retrain must never stall the query path: the paper's recommender is
//! incrementally retrained as users contribute training points (§2
//! "expandability"), and the serving layer keeps answering while that
//! happens.  The store holds the current [`ModelSnapshot`] behind an
//! `Arc`, and [`SnapshotStore::publish`] swaps the slot atomically; a
//! snapshot is immutable, so whoever holds its `Arc` reads it lock-free.
//! Requests do not load the store.  The serve pool hands each worker the
//! first generation when it spawns it, and each publish's announcement
//! queues the next generation to every worker, so a request is answered
//! from the last generation queued ahead of it (see [`crate::server`]).
//! A worker clears its result cache when it reaches the next generation,
//! so no cached answer outlives the generation that computed it.

use acic::{CacheKey, Predictor, SystemConfig};
use parking_lot::RwLock;
use std::sync::Arc;

/// One immutable, shareable generation of the recommender: the fitted
/// predictor and its version id.
///
/// `Predictor` plans its tree models over the candidate grid at train
/// time, so the predictor captured here — at first construction and at
/// every [`SnapshotStore::publish`] hot-swap — already carries the plans,
/// and each cache miss scores the whole candidate grid in one
/// reachable-subtree walk, bit-identical to the interpreted reference
/// ranking.
#[derive(Debug)]
pub struct ModelSnapshot {
    version: u64,
    predictor: Predictor,
    db_points: usize,
}

impl ModelSnapshot {
    /// The monotonically increasing generation id (first publish is 1).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The fitted predictor backing this generation.
    pub fn predictor(&self) -> &Predictor {
        &self.predictor
    }

    /// Number of training points behind the predictor (diagnostics).
    pub fn db_points(&self) -> usize {
        self.db_points
    }

    /// Answer one canonicalized query on this snapshot: the top-k
    /// candidate list, best first — a pure function of (snapshot, key).
    pub fn answer(&self, key: &CacheKey) -> Vec<(SystemConfig, f64)> {
        self.predictor.top_k(key.app(), key.objective(), key.instance_type(), key.k())
    }
}

/// The swappable slot holding the current snapshot.
#[derive(Debug)]
pub struct SnapshotStore {
    slot: RwLock<Arc<ModelSnapshot>>,
}

impl SnapshotStore {
    /// Create a store whose first generation (version 1) wraps `predictor`.
    pub fn new(predictor: Predictor, db_points: usize) -> Self {
        Self::with_version(predictor, db_points, 1)
    }

    /// Create a store whose first generation carries an explicit version
    /// id.  A serve node rejoining a cluster mid-life starts its local
    /// store at the cluster's current generation, so version ids stay
    /// comparable across nodes (and across a kill → rejoin) even though
    /// each node owns its own snapshot slot.
    pub fn with_version(predictor: Predictor, db_points: usize, version: u64) -> Self {
        let first = ModelSnapshot { version: version.max(1), predictor, db_points };
        Self { slot: RwLock::new(Arc::new(first)) }
    }

    /// Load the current snapshot (diagnostics and the serve pool's
    /// spawn).  The returned `Arc` keeps that generation alive for as long
    /// as its holder needs it, regardless of how many publishes happen in
    /// the meantime.
    pub fn load(&self) -> Arc<ModelSnapshot> {
        self.slot.read().clone()
    }

    /// Atomically replace the current snapshot with a freshly trained
    /// predictor; returns the new version id.  Holders of the old `Arc`
    /// are unaffected (no torn reads — a snapshot is immutable after
    /// construction).  `announce` sees the new generation before the swap,
    /// while the slot is write-locked: publishes are serialized, so each
    /// announcement follows the previous one, and [`Self::version`] never
    /// reads a generation that is not announced yet.
    pub fn publish(
        &self,
        predictor: Predictor,
        db_points: usize,
        announce: impl FnOnce(&Arc<ModelSnapshot>),
    ) -> u64 {
        let mut slot = self.slot.write();
        let next = Arc::new(ModelSnapshot { version: slot.version + 1, predictor, db_points });
        announce(&next);
        let version = next.version;
        *slot = next;
        version
    }

    /// The current version id.
    pub fn version(&self) -> u64 {
        self.slot.read().version
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acic::space::SpacePoint;
    use acic::{Objective, Trainer};
    use acic_cloudsim::instance::InstanceType;

    fn predictor(seed: u64) -> (Predictor, usize) {
        let db = Trainer::with_paper_ranking(seed).collect(3).unwrap();
        (Predictor::train(&db, seed).unwrap(), db.len())
    }

    #[test]
    fn publish_bumps_version_and_swaps_atomically() {
        let (p1, n1) = predictor(5);
        let store = SnapshotStore::new(p1, n1);
        assert_eq!(store.version(), 1);
        let held = store.load();
        let (p2, n2) = predictor(6);
        assert_eq!(store.publish(p2, n2, |_| {}), 2);
        assert_eq!(store.version(), 2);
        // The old generation stays alive and answers on its own model.
        assert_eq!(held.version(), 1);
        let key = CacheKey::new(
            &SpacePoint::default_point().app,
            Objective::Performance,
            InstanceType::Cc2_8xlarge,
            3,
        );
        assert_eq!(held.answer(&key), held.answer(&key), "pure function of (snapshot, key)");
        assert_eq!(store.load().version(), 2);
    }

    #[test]
    fn published_snapshot_serves_compiled_plane_bit_identical_to_oracle() {
        // The snapshot's answer (compiled plane) must equal the
        // interpreted reference ranking truncated to k — at version 1 and
        // after a hot-swap publish.
        let (p1, n1) = predictor(5);
        let store = SnapshotStore::new(p1, n1);
        let app = SpacePoint::default_point().app;
        for round in 0..2 {
            let snap = store.load();
            for objective in Objective::ALL {
                let key = CacheKey::new(&app, objective, InstanceType::Cc2_8xlarge, 4);
                let got = snap.answer(&key);
                let mut want = snap.predictor().rank_candidates_interpreted(
                    &app,
                    objective,
                    InstanceType::Cc2_8xlarge,
                );
                want.truncate(4);
                assert_eq!(got.len(), want.len(), "round {round} {objective:?}");
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(g.0, w.0, "round {round} {objective:?}");
                    assert_eq!(g.1.to_bits(), w.1.to_bits(), "round {round} {objective:?}");
                }
            }
            if round == 0 {
                let (p2, n2) = predictor(6);
                store.publish(p2, n2, |_| {});
            }
        }
    }

    #[test]
    fn snapshot_answer_matches_direct_predictor_topk() {
        let (p, n) = predictor(7);
        let store = SnapshotStore::new(p.clone(), n);
        let app = SpacePoint::default_point().app;
        let key = CacheKey::new(&app, Objective::Cost, InstanceType::Cc2_8xlarge, 5);
        assert_eq!(
            store.load().answer(&key),
            p.top_k(&app, Objective::Cost, InstanceType::Cc2_8xlarge, 5)
        );
        assert_eq!(store.load().db_points(), n);
    }
}
