//! Hot-swap semantics under concurrency: every response produced while
//! `publish` races against live queries must be consistent with *exactly
//! one* snapshot generation — no torn reads (a payload matching neither
//! generation) and no stale cache hits (an old generation's payload served
//! under a new version id).
//!
//! The test trains two genuinely different predictors, verifies they
//! disagree on at least one probe request (so inconsistency is
//! detectable), then interleaves publisher and client threads over several
//! cadences and checks every single response against the expected answer
//! of the version it claims.

use acic::space::SpacePoint;
use acic::{AppPoint, Metrics, Objective, Predictor, SystemConfig, Trainer};
use acic_cloudsim::instance::InstanceType;
use acic_cloudsim::units::mib;
use acic_serve::{Request, ServeConfig, Server};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

fn train(seed: u64, dims: usize) -> Predictor {
    let db = Trainer::with_paper_ranking(seed).collect(dims).unwrap();
    Predictor::train(&db, seed).unwrap()
}

fn probe_requests() -> Vec<Request> {
    let base = SpacePoint::default_point().app;
    let mut out = Vec::new();
    for (data_mb, collective) in [(4.0, false), (32.0, true), (512.0, true)] {
        let mut app: AppPoint = base;
        app.data_size = mib(data_mb);
        app.collective = collective;
        for objective in Objective::ALL {
            out.push(Request { app, objective, k: 3 });
        }
    }
    out
}

fn expected_for(p: &Predictor, req: &Request) -> Vec<(SystemConfig, f64)> {
    p.top_k(&req.app, req.objective, InstanceType::Cc2_8xlarge, req.k)
}

/// Version parity → predictor: v1 = p1, publishes alternate p2, p1, p2, …
/// so odd versions serve p1 and even versions serve p2.
fn expect_table(p1: &Predictor, p2: &Predictor, reqs: &[Request]) -> [Vec<Vec<(SystemConfig, f64)>>; 2]
{
    [
        reqs.iter().map(|r| expected_for(p2, r)).collect(), // even versions
        reqs.iter().map(|r| expected_for(p1, r)).collect(), // odd versions
    ]
}

#[test]
fn concurrent_queries_see_exactly_one_generation() {
    let p1 = train(3, 3);
    let p2 = train(11, 4);
    let reqs = probe_requests();
    let expected = expect_table(&p1, &p2, &reqs);
    assert!(
        (0..reqs.len()).any(|i| expected[0][i] != expected[1][i]),
        "the two generations must disagree somewhere, or staleness is undetectable"
    );

    // Several publisher cadences: back-to-back swaps, and swaps spaced so
    // clients interleave whole query bursts between them.
    for (round, publish_gap) in
        [Duration::ZERO, Duration::from_micros(100), Duration::from_micros(500)].iter().enumerate()
    {
        let cfg = ServeConfig { workers: 4, queue_depth: 64, batch: 4, ..Default::default() };
        let server = Server::start(p1.clone(), 0, cfg, Metrics::new()).unwrap();
        let h = server.handle();

        // Sanity before any swap: generation 1 everywhere.
        for (i, req) in reqs.iter().enumerate() {
            let resp = h.query(*req).unwrap();
            assert_eq!(resp.snapshot_version, 1, "round {round}");
            assert_eq!(*resp.top, expected[1][i], "round {round} request {i}");
        }

        let publishes = 24u64;
        let done = AtomicBool::new(false);
        let started = std::sync::atomic::AtomicUsize::new(0);
        let n_clients = 4usize;
        let collected: Vec<(usize, u64, Vec<(SystemConfig, f64)>)> = std::thread::scope(|s| {
            let mut clients = Vec::new();
            for c in 0..n_clients {
                let h = h.clone();
                let reqs = &reqs;
                let done = &done;
                let started = &started;
                clients.push(s.spawn(move || {
                    let mut out = Vec::new();
                    let mut i = c; // stagger starting points per client
                    // Keep querying until the publisher finished, then one
                    // final sweep so the last generation is observed too.
                    let mut final_sweeps = reqs.len();
                    loop {
                        let idx = i % reqs.len();
                        let resp = h.query(reqs[idx]).unwrap();
                        out.push((idx, resp.snapshot_version, (*resp.top).clone()));
                        if out.len() == 1 {
                            started.fetch_add(1, Ordering::Release);
                        }
                        i += 1;
                        if done.load(Ordering::Acquire) {
                            if final_sweeps == 0 {
                                break;
                            }
                            final_sweeps -= 1;
                        }
                    }
                    out
                }));
            }
            // Wait for every client to have at least one pre-swap answer in
            // hand, so on a single core the swaps genuinely interleave with
            // live queries instead of all landing before the clients run.
            while started.load(Ordering::Acquire) < n_clients {
                std::thread::yield_now();
            }
            // Publisher: alternate generations under live load.
            for v in 2..=(1 + publishes) {
                let predictor = if v % 2 == 0 { p2.clone() } else { p1.clone() };
                let published = server.publish(predictor, 0);
                assert_eq!(published, v);
                if !publish_gap.is_zero() {
                    std::thread::sleep(*publish_gap);
                }
                std::thread::yield_now();
            }
            done.store(true, Ordering::Release);
            clients.into_iter().flat_map(|c| c.join().unwrap()).collect()
        });

        let mut versions_seen = std::collections::BTreeSet::new();
        for (idx, version, top) in &collected {
            assert!(
                (1..=1 + publishes).contains(version),
                "round {round}: impossible version {version}"
            );
            let parity = (version % 2) as usize;
            assert_eq!(
                top, &expected[parity][*idx],
                "round {round}: request {idx} under v{version} served a payload \
                 inconsistent with that generation (torn read or stale cache)"
            );
            versions_seen.insert(*version);
        }
        assert!(
            versions_seen.len() >= 2,
            "round {round}: interleaving degenerated — only {versions_seen:?} observed"
        );
        // After the dust settles, the newest generation answers.
        let resp = h.query(reqs[0]).unwrap();
        assert_eq!(resp.snapshot_version, 1 + publishes, "round {round}");
        assert_eq!(*resp.top, expected[((1 + publishes) % 2) as usize][0], "round {round}");
        server.shutdown();
    }
}

#[test]
fn fused_batch_spanning_a_publish_answers_each_request_from_its_admitted_generation() {
    // One worker with a per-request stall: request A drains immediately
    // and stalls the worker, while B and C queue up, a publish swaps the
    // generation, and D and E queue behind it.  The worker's next drain
    // fuses requests admitted under *different* generations into one
    // batch.  Admission-time snapshot stamping requires B/C to be answered
    // by generation 1's model and D/E by generation 2's — regardless of
    // how the batch boundaries actually fell.
    let p1 = train(3, 3);
    let p2 = train(11, 4);
    let reqs = probe_requests();
    let cfg = ServeConfig {
        workers: 1,
        batch: 8,
        service_stall: Duration::from_millis(25),
        ..Default::default()
    };
    let server = Server::start(p1.clone(), 0, cfg, Metrics::new()).unwrap();
    let h = server.handle();

    let a = h.submit_blocking(reqs[0]).unwrap();
    // Give the worker time to drain A into its own batch and start the
    // stall; everything submitted below queues behind it.  (If the timing
    // slips the assertions still hold — stamping is what's under test,
    // batching only makes the span likely.)
    std::thread::sleep(Duration::from_millis(5));
    let before: Vec<_> = reqs[1..3].iter().map(|r| h.submit_blocking(*r).unwrap()).collect();
    assert_eq!(server.publish(p2.clone(), 0), 2);
    let after: Vec<_> = reqs[3..5].iter().map(|r| h.submit_blocking(*r).unwrap()).collect();

    let resp_a = a.wait().unwrap();
    assert_eq!(resp_a.snapshot_version, 1);
    assert_eq!(*resp_a.top, expected_for(&p1, &reqs[0]));
    for (i, pend) in before.into_iter().enumerate() {
        let resp = pend.wait().unwrap();
        assert_eq!(resp.snapshot_version, 1, "admitted before the publish");
        assert_eq!(*resp.top, expected_for(&p1, &reqs[1 + i]), "request {i} answered by gen 1");
    }
    for (i, pend) in after.into_iter().enumerate() {
        let resp = pend.wait().unwrap();
        assert_eq!(resp.snapshot_version, 2, "admitted after the publish");
        assert_eq!(*resp.top, expected_for(&p2, &reqs[3 + i]), "request {i} answered by gen 2");
    }
    server.shutdown();
}

#[test]
fn swap_to_identical_predictor_is_invisible_in_payloads() {
    // The tier-1 replay gate's contract: republishing an identically
    // trained predictor changes version ids but never a single payload.
    let p = train(7, 3);
    let reqs = probe_requests();
    let server =
        Server::start(p.clone(), 0, ServeConfig { workers: 2, ..Default::default() }, Metrics::new()).unwrap();
    let h = server.handle();
    let before: Vec<_> = reqs.iter().map(|r| h.query(*r).unwrap()).collect();
    server.publish(train(7, 3), 0);
    let after: Vec<_> = reqs.iter().map(|r| h.query(*r).unwrap()).collect();
    for (i, (b, a)) in before.iter().zip(&after).enumerate() {
        assert_eq!(b.top, a.top, "request {i}");
        assert_eq!(b.snapshot_version, 1);
        assert_eq!(a.snapshot_version, 2);
        assert!(!a.cache_hit, "v1 cache entries must not satisfy v2 lookups");
    }
    server.shutdown();
}
