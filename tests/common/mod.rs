//! Helpers shared by the integration tests.

use acic_repro::acic::{PublishedSnapshot, TrainingDb};
use acic_repro::cart::ModelKind;

/// Everything a collected database holds, as comparable bytes: the
/// snapshot it renders to (every point's digits, in collection order) and
/// the bits of both collection stats, which a snapshot does not carry.
pub fn db_bytes(db: &TrainingDb) -> (String, u64, u64) {
    let snapshot = PublishedSnapshot::from_db(db, 0, ModelKind::Cart).render();
    (snapshot, db.collect_secs.to_bits(), db.collect_cost_usd.to_bits())
}
