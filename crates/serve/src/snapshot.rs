//! Versioned model snapshots with atomic hot-swap.
//!
//! A retrain must never stall the query path: the paper's recommender is
//! incrementally retrained as users contribute training points (§2
//! "expandability"), and the serving layer keeps answering while that
//! happens.  The store holds the current [`ModelSnapshot`] behind an
//! `Arc`; readers clone the `Arc` (a refcount bump under a briefly-held
//! read lock) and then work entirely lock-free on an immutable snapshot,
//! while [`SnapshotStore::publish`] swaps the slot atomically.  In-flight
//! requests finish on the snapshot they loaded; the version id stamped
//! into every snapshot is what keys the result cache, so a publish
//! invalidates cached results logically without any stop-the-world flush.

use acic::{Acic, CacheKey, Predictor, SystemConfig};
use acic_cloudsim::instance::InstanceType;
use parking_lot::RwLock;
use std::sync::Arc;

/// One immutable, shareable generation of the recommender: the fitted
/// predictor, the candidate instance type it ranks over, and the version
/// id that namespaces everything derived from it.
///
/// Every snapshot serves on the **compiled inference plane**: `Predictor`
/// lowers both objectives' models into flat `CompiledModel` arenas at
/// train time, so the predictor captured here — at first construction and
/// at every [`SnapshotStore::publish`] hot-swap — already carries them,
/// and worker batches score the candidate grid with batched, allocation-
/// free `predict_batch` passes.  The compiled plane is bit-identical to
/// the interpreted models (`ACIC_ENGINE=interpreted` forces the reference
/// path for differential replay).
#[derive(Debug)]
pub struct ModelSnapshot {
    version: u64,
    predictor: Predictor,
    instance_type: InstanceType,
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

    /// The candidate instance type queries are ranked over.
    pub fn instance_type(&self) -> InstanceType {
        self.instance_type
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

    /// Answer many canonicalized queries in fused candidate-major sweeps:
    /// keys are grouped by `(objective, instance_type)` in encounter order
    /// and each group is scored by one `Predictor::top_k_many` pass over
    /// the model arenas.  Answers come back aligned with `keys` and are
    /// **bit-identical** to calling [`Self::answer`] per key — fusing
    /// amortizes arena traversal, it never changes a payload.
    pub fn answer_many(&self, keys: &[&CacheKey]) -> Vec<Vec<(SystemConfig, f64)>> {
        if let [key] = keys {
            return vec![self.answer(key)];
        }
        let mut out: Vec<Option<Vec<(SystemConfig, f64)>>> = keys.iter().map(|_| None).collect();
        let mut groups: Vec<(acic::Objective, InstanceType, Vec<usize>)> = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            match groups
                .iter_mut()
                .find(|(o, it, _)| *o == key.objective() && *it == key.instance_type())
            {
                Some((_, _, idxs)) => idxs.push(i),
                None => groups.push((key.objective(), key.instance_type(), vec![i])),
            }
        }
        for (objective, instance_type, idxs) in groups {
            let queries: Vec<(acic::AppPoint, usize)> =
                idxs.iter().map(|&i| (*keys[i].app(), keys[i].k())).collect();
            let answers = self.predictor.top_k_many(&queries, objective, instance_type);
            for (&i, answer) in idxs.iter().zip(answers) {
                out[i] = Some(answer);
            }
        }
        out.into_iter().map(|a| a.expect("every key answered")).collect()
    }
}

/// The swappable slot holding the current snapshot.
#[derive(Debug)]
pub struct SnapshotStore {
    slot: RwLock<Arc<ModelSnapshot>>,
}

impl SnapshotStore {
    /// Create a store whose first generation (version 1) wraps `predictor`.
    pub fn new(predictor: Predictor, instance_type: InstanceType, db_points: usize) -> Self {
        Self::with_version(predictor, instance_type, db_points, 1)
    }

    /// Create a store whose first generation carries an explicit version
    /// id.  A serve node rejoining a cluster mid-life starts its local
    /// store at the cluster's current generation, so version ids stay
    /// comparable across nodes (and across a kill → rejoin) even though
    /// each node owns its own snapshot slot.
    pub fn with_version(
        predictor: Predictor,
        instance_type: InstanceType,
        db_points: usize,
        version: u64,
    ) -> Self {
        Self {
            slot: RwLock::new(Arc::new(ModelSnapshot {
                version: version.max(1),
                predictor,
                instance_type,
                db_points,
            })),
        }
    }

    /// Create a store from a bootstrapped [`Acic`] instance, serving the
    /// paper's evaluation platform candidates.
    pub fn from_acic(acic: &Acic) -> Self {
        Self::new(acic.predictor.clone(), InstanceType::Cc2_8xlarge, acic.db.len())
    }

    /// Load the current snapshot.  The returned `Arc` keeps that
    /// generation alive for as long as the request needs it, regardless of
    /// how many publishes happen in the meantime.
    pub fn load(&self) -> Arc<ModelSnapshot> {
        self.slot.read().clone()
    }

    /// Atomically replace the current snapshot with a freshly trained
    /// predictor; returns the new version id.  Readers that already hold
    /// the old `Arc` are unaffected (no torn reads — a snapshot is
    /// immutable after construction).
    pub fn publish(&self, predictor: Predictor, db_points: usize) -> u64 {
        let mut slot = self.slot.write();
        let next = ModelSnapshot {
            version: slot.version + 1,
            predictor,
            instance_type: slot.instance_type,
            db_points,
        };
        let version = next.version;
        *slot = Arc::new(next);
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

    fn predictor(seed: u64) -> (Predictor, usize) {
        let db = Trainer::with_paper_ranking(seed).collect(3).unwrap();
        (Predictor::train(&db, seed).unwrap(), db.len())
    }

    #[test]
    fn publish_bumps_version_and_swaps_atomically() {
        let (p1, n1) = predictor(5);
        let store = SnapshotStore::new(p1, InstanceType::Cc2_8xlarge, n1);
        assert_eq!(store.version(), 1);
        let held = store.load();
        let (p2, n2) = predictor(6);
        assert_eq!(store.publish(p2, n2), 2);
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
        let store = SnapshotStore::new(p1, InstanceType::Cc2_8xlarge, n1);
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
                store.publish(p2, n2);
            }
        }
    }

    #[test]
    fn answer_many_is_bit_identical_to_per_key_answers() {
        let (p, n) = predictor(7);
        let store = SnapshotStore::new(p, InstanceType::Cc2_8xlarge, n);
        let snap = store.load();
        let mut big = SpacePoint::default_point().app;
        big.data_size = acic_cloudsim::units::mib(512.0);
        let mut small = SpacePoint::default_point().app;
        small.nprocs = 32;
        small.io_procs = 32;
        // Mixed objectives, apps, and ks — including duplicates — in one
        // fused call.
        let keys: Vec<CacheKey> = [
            (SpacePoint::default_point().app, Objective::Performance, 3),
            (big, Objective::Cost, 1),
            (small, Objective::Performance, 28),
            (SpacePoint::default_point().app, Objective::Performance, 3),
            (big, Objective::Performance, 0),
        ]
        .iter()
        .map(|(app, obj, k)| CacheKey::new(app, *obj, InstanceType::Cc2_8xlarge, *k))
        .collect();
        let refs: Vec<&CacheKey> = keys.iter().collect();
        let fused = snap.answer_many(&refs);
        assert_eq!(fused.len(), keys.len());
        for (key, got) in keys.iter().zip(&fused) {
            let want = snap.answer(key);
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.0, w.0);
                assert_eq!(g.1.to_bits(), w.1.to_bits());
            }
        }
        // The empty fused batch is a no-op, not a panic.
        assert!(snap.answer_many(&[]).is_empty());
    }

    #[test]
    fn snapshot_answer_matches_direct_predictor_topk() {
        let (p, n) = predictor(7);
        let store = SnapshotStore::new(p.clone(), InstanceType::Cc2_8xlarge, n);
        let app = SpacePoint::default_point().app;
        let key = CacheKey::new(&app, Objective::Cost, InstanceType::Cc2_8xlarge, 5);
        assert_eq!(
            store.load().answer(&key),
            p.top_k(&app, Objective::Cost, InstanceType::Cc2_8xlarge, 5)
        );
        assert_eq!(store.load().db_points(), n);
    }
}
