//! Served answers equal the interpreted reference ranking, bit for bit.
//!
//! Serve ranks every cache miss through the predictor's one ranking path
//! (a candidate-grid walk for trees and forests, one `Model::predict` per
//! candidate for k-NN).  This test replays the paper's four applications
//! at the scales of `scripts/serve_replay.txt`, for both goals and a
//! spread of `k`, through a two-worker pool draining batches of 8, with a
//! different generation published mid-replay.  Every payload must equal
//! `Predictor::rank_candidates_interpreted` of the generation that
//! answered it, truncated to `k.max(1)`.

use acic::profile::app_point_from;
use acic::{Metrics, Objective, Predictor, Trainer};
use acic_apps::{profile, AppModel, Btio, FlashIo, MadBench2, MpiBlast};
use acic_cart::ModelKind;
use acic_cloudsim::instance::InstanceType;
use acic_serve::{Request, ServeConfig, Server};

/// Both goals at k ∈ {0, 1, 3, 28} for each application and scale of
/// `scripts/serve_replay.txt`.
fn requests() -> Vec<Request> {
    let apps: Vec<Box<dyn AppModel>> = vec![
        Box::new(Btio::class_c(64)),
        Box::new(Btio::class_c(256)),
        Box::new(FlashIo::paper(512)),
        Box::new(FlashIo::paper(1024)),
        Box::new(MpiBlast::paper(64)),
        Box::new(MpiBlast::paper(128)),
        Box::new(MadBench2::paper(81)),
        Box::new(MadBench2::paper(169)),
    ];
    let mut out = Vec::new();
    for model in apps {
        let app = app_point_from(&profile(&model.trace()).expect("paper apps perform I/O"));
        for objective in Objective::ALL {
            for k in [0, 1, 3, 28] {
                out.push(Request { app, objective, k });
            }
        }
    }
    out
}

#[test]
fn served_answers_equal_the_interpreted_oracle_across_a_publish() {
    let reqs = requests();
    // Five dimensions: the smallest campaign on which k-NN ranks candidates
    // apart (at four, every candidate gets the same neighbours).
    let [db1, db2] = [7, 11].map(|seed| Trainer::with_paper_ranking(seed).collect(5).unwrap());
    let key = |r: &Request| r.key(InstanceType::Cc2_8xlarge);
    // `k = 0` and `k = 1` are one cache key, so not every request is new.
    let distinct = (0..reqs.len()).filter(|&i| !reqs[..i].iter().any(|q| key(q) == key(&reqs[i])));
    let distinct = distinct.count() as u64;
    for kind in [ModelKind::Cart, ModelKind::Forest { n_trees: 5 }, ModelKind::Knn { k: 5 }] {
        let generations = [
            Predictor::train_with(&db1, 7, kind).unwrap(),
            Predictor::train_with(&db2, 11, kind).unwrap(),
        ];
        let cfg = ServeConfig { workers: 2, batch: 8, ..Default::default() };
        let server = Server::start(generations[0].clone(), db1.len(), cfg, Metrics::new()).unwrap();
        let h = server.handle();
        // Each generation serves the request list twice, so the second
        // pass answers from the result cache.
        let replay: Vec<&Request> = reqs.iter().chain(&reqs).collect();
        let mut pending = Vec::new();
        for generation in 0..2 {
            if generation == 1 {
                server.publish(generations[1].clone(), db2.len());
            }
            for req in &replay {
                pending.push((generation, **req, h.submit_blocking(**req).unwrap()));
            }
        }
        for (i, (generation, req, p)) in pending.into_iter().enumerate() {
            let resp = p.wait().unwrap();
            assert_eq!(resp.snapshot_version, generation as u64 + 1, "{kind} request {i}");
            let mut want = generations[generation].rank_candidates_interpreted(
                &req.app,
                req.objective,
                InstanceType::Cc2_8xlarge,
            );
            want.truncate(req.k.max(1));
            assert_eq!(resp.top.len(), want.len(), "{kind} request {i}");
            for (got, want) in resp.top.iter().zip(&want) {
                assert_eq!(got.0, want.0, "{kind} request {i}");
                assert_eq!(got.1.to_bits(), want.1.to_bits(), "{kind} request {i}");
            }
        }
        let (hits, misses, _) = server.cache_stats();
        assert_eq!((hits, misses), (4 * reqs.len() as u64 - 2 * distinct, 2 * distinct), "{kind}");
        server.shutdown();
    }
}
