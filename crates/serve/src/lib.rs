//! # acic-serve — the concurrent recommendation-serving subsystem
//!
//! The paper's end product is a query: *(application I/O characteristics,
//! optimization goal) → top-k cloud I/O configurations* (§4.2).  This
//! crate turns that one-shot query into a long-lived, multi-threaded
//! service — the scaffolding the ROADMAP's "heavy traffic" north star
//! builds on:
//!
//! * [`snapshot`] — versioned, immutable model snapshots with atomic
//!   hot-swap: a retrain publishes a new generation while requests keep
//!   flowing, and in-flight requests finish on the generation they were
//!   admitted under.
//! * [`queue`] — bounded MPMC shard queues: the admission-control
//!   mechanism (typed [`ServeError::Overloaded`] rejection) that keeps an
//!   overloaded server's memory flat.
//! * [`cache`] — a plain LRU of top-k answers keyed by the canonical
//!   [`acic::CacheKey`].  Each worker owns one for its shard's keys and
//!   clears it when a new generation reaches it, so it takes no lock.
//! * [`server`] — the worker pool tying it together: requests are routed
//!   to shards by stable key hash, pinned to the snapshot they were
//!   admitted under, drained in batches, and accounted (queue wait, and
//!   per-job service time on a cache hit or miss) in [`acic::Metrics`]
//!   latency histograms through per-worker handles.
//! * [`cluster`] — the multi-node tier over N servers: rendezvous-hash
//!   routing of canonical keys, verified snapshot replication (peers prove
//!   a [`acic::PublishedSnapshot`] replica against its content hash and
//!   refit deterministically instead of re-training), kill / rejoin with
//!   generation continuity, and a cluster-in-a-process replay harness
//!   that proves responses are bit-identical across node counts.
//!
//! Responses are deterministic: the payload is a pure function of
//! (snapshot version, canonical key); concurrency only changes timing.
//! `acic serve` drives this from a replay file; `bench_e2e` drives a
//! cluster of it with an open-loop load generator.

pub mod cache;
pub mod cluster;
pub mod queue;
pub mod server;
pub mod snapshot;

pub use cache::{CachedTopK, ResultCache};
pub use cluster::{Cluster, ClusterClient, ClusterConfig, ClusterError, NodeId, Ring};
pub use queue::{BoundedQueue, PushError};
pub use server::{Pending, Request, Response, ServeConfig, ServeError, ServeHandle, Server};
pub use snapshot::{ModelSnapshot, SnapshotStore};

use acic::{Metrics, Predictor};

/// Answer one query through the full serving path on a throwaway
/// single-worker service — the CLI `recommend` path, so the CLI and the
/// long-lived service can never diverge.
///
/// `request.k` follows `Predictor::top_k`'s clamp: `k = 0` is answered as
/// `k = 1` (one best candidate, never an empty list), and the result-cache
/// identity (`acic::CacheKey`) clamps identically, so the clamp is
/// consistent from the CLI through the serve path down to the predictor.
pub fn answer_single_shot(
    predictor: &Predictor,
    db_points: usize,
    request: Request,
    metrics: &Metrics,
) -> Result<Response, ServeError> {
    let server = Server::start(predictor.clone(), db_points, ServeConfig::single_shot(), metrics.clone())
        .expect("single_shot config is valid");
    let response = server.handle().query(request);
    server.shutdown();
    response
}

#[cfg(test)]
mod tests {
    use super::*;
    use acic::space::SpacePoint;
    use acic::{Objective, Trainer};
    use acic_cloudsim::instance::InstanceType;

    #[test]
    fn single_shot_equals_direct_topk() {
        let db = Trainer::with_paper_ranking(5).collect(3).unwrap();
        let p = Predictor::train(&db, 5).unwrap();
        let app = SpacePoint::default_point().app;
        let req = Request { app, objective: Objective::Cost, k: 4 };
        let resp =
            answer_single_shot(&p, db.len(), req, &Metrics::new()).expect("single shot answers");
        assert_eq!(*resp.top, p.top_k(&app, Objective::Cost, InstanceType::Cc2_8xlarge, 4));
        assert_eq!(resp.snapshot_version, 1);
        assert!(!resp.cache_hit);
    }

    #[test]
    fn k_zero_clamps_to_one_through_the_serve_path() {
        // Regression: a k = 0 request must answer with exactly the single
        // best candidate (Predictor::top_k's documented clamp), not an
        // empty list and not an error, and must agree with a k = 1 request.
        let db = Trainer::with_paper_ranking(5).collect(3).unwrap();
        let p = Predictor::train(&db, 5).unwrap();
        let app = SpacePoint::default_point().app;
        let zero = answer_single_shot(
            &p,
            db.len(),
            Request { app, objective: Objective::Performance, k: 0 },
            &Metrics::new(),
        )
        .expect("k = 0 answers");
        assert_eq!(zero.top.len(), 1, "k = 0 clamps to the single best candidate");
        let one = answer_single_shot(
            &p,
            db.len(),
            Request { app, objective: Objective::Performance, k: 1 },
            &Metrics::new(),
        )
        .expect("k = 1 answers");
        assert_eq!(*zero.top, *one.top);
        assert_eq!(
            *zero.top,
            p.top_k(&app, Objective::Performance, InstanceType::Cc2_8xlarge, 0)
        );
    }
}
