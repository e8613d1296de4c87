//! Emit `BENCH_serve.json` at the repo root: admission control, hot-swap
//! correctness, and the batched drain of the `acic-serve` subsystem.
//!
//! Every scenario cross-checks the served payloads against the direct
//! `Predictor::top_k` answer.  The admission and hot-swap scenarios give
//! each request a simulated downstream stall (`ServeConfig::service_stall`)
//! so that the queue fills and swaps race live queries on any core count.
//! Serve throughput is measured end to end by `bench_e2e`, not here.
//!
//! Runs in seconds; wired into `scripts/tier1.sh`.

use acic::space::SpacePoint;
use acic::{AppPoint, Metrics, Objective, Predictor, SystemConfig, Trainer, TrainingDb};
use acic_cloudsim::instance::InstanceType;
use acic_cloudsim::units::mib;
use acic_serve::{Request, ServeConfig, Server};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

fn train(seed: u64, dims: usize) -> (TrainingDb, Predictor) {
    let db = Trainer::with_paper_ranking(seed).collect(dims).unwrap();
    let predictor = Predictor::train(&db, seed).unwrap();
    (db, predictor)
}

/// A working set of distinct canonical queries (64 of them), varied enough
/// to land on every cache/queue shard.
fn working_set() -> Vec<Request> {
    let base = SpacePoint::default_point().app;
    let mut out = Vec::new();
    for i in 0..16 {
        let mut app: AppPoint = base;
        app.data_size = mib(4.0 * (i + 1) as f64);
        app.collective = i % 2 == 0;
        for objective in Objective::ALL {
            for k in [3, 5] {
                out.push(Request { app, objective, k });
            }
        }
    }
    out.truncate(64);
    out
}

/// Scenario 1: admission control.  A tiny queue behind one slow worker is
/// hit with a burst of fire-and-forget submissions; the overflow must come
/// back as typed `Overloaded` rejections (counted as sheds), and every
/// admitted request must still be answered correctly.
fn shed_run(
    predictor: &Predictor,
    db_points: usize,
    reqs: &[Request],
    expected: &[Vec<(SystemConfig, f64)>],
) -> (usize, usize, u64, usize) {
    let cfg = ServeConfig {
        workers: 1,
        queue_depth: 4,
        batch: 4,
        service_stall: Duration::from_millis(2),
        ..Default::default()
    };
    let server = Server::start(predictor.clone(), db_points, cfg, Metrics::new()).expect("bench config is valid");
    let h = server.handle();
    let burst = 64;
    let mut admitted = Vec::new();
    let mut shed = 0usize;
    for i in 0..burst {
        match h.submit(reqs[i % reqs.len()]) {
            Ok(pending) => admitted.push((i % reqs.len(), pending)),
            Err(acic_serve::ServeError::Overloaded { .. }) => shed += 1,
            Err(e) => panic!("unexpected serve error: {e}"),
        }
    }
    let mut mismatches = 0;
    for (idx, pending) in admitted {
        if *pending.wait().unwrap().top != expected[idx] {
            mismatches += 1;
        }
    }
    let shed_counter = server.shed_count();
    let n_admitted = burst - shed;
    server.shutdown();
    (n_admitted, shed, shed_counter, mismatches)
}

/// Scenario 2: hot-swap under load.  While closed-loop clients hammer the
/// pool, the publisher repeatedly swaps in an identically retrained
/// snapshot.  Every payload must still equal the direct answer (versions
/// may differ; results may not), and each client must see versions advance
/// monotonically.
fn hotswap_run(
    db: &TrainingDb,
    predictor: &Predictor,
    reqs: &[Request],
    expected: &[Vec<(SystemConfig, f64)>],
    seed: u64,
) -> (u64, usize, usize, usize, u64) {
    let cfg = ServeConfig {
        workers: 4,
        queue_depth: 64,
        service_stall: Duration::from_micros(100),
        ..Default::default()
    };
    let server = Server::start(predictor.clone(), db.len(), cfg, Metrics::new()).expect("bench config is valid");
    let publishes = 8u64;
    let per_client = 400usize;
    let clients = 2usize;
    let started = AtomicUsize::new(0);
    let (mismatches, regressions, versions_seen) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let h = server.handle();
                let started = &started;
                s.spawn(move || {
                    let mut mismatches = 0usize;
                    let mut regressions = 0usize;
                    let mut versions = std::collections::BTreeSet::new();
                    let mut last_version = 0u64;
                    for i in 0..per_client {
                        let idx = (c + i) % reqs.len();
                        let resp = h.query(reqs[idx]).unwrap();
                        if i == 0 {
                            started.fetch_add(1, Ordering::Release);
                        }
                        if *resp.top != expected[idx] {
                            mismatches += 1;
                        }
                        if resp.snapshot_version < last_version {
                            regressions += 1;
                        }
                        last_version = resp.snapshot_version;
                        versions.insert(resp.snapshot_version);
                    }
                    (mismatches, regressions, versions)
                })
            })
            .collect();
        // Publish only once every client is mid-flight, so the swaps
        // genuinely race live queries even on a single core.
        while started.load(Ordering::Acquire) < clients {
            std::thread::yield_now();
        }
        for _ in 0..publishes {
            let retrained = Predictor::train(db, seed).unwrap();
            server.publish(retrained, db.len());
            std::thread::sleep(Duration::from_millis(2));
        }
        let mut mismatches = 0;
        let mut regressions = 0;
        let mut versions = std::collections::BTreeSet::new();
        for h in handles {
            let (m, r, v) = h.join().unwrap();
            mismatches += m;
            regressions += r;
            versions.extend(v);
        }
        (mismatches, regressions, versions)
    });
    let final_version = server.version();
    assert_eq!(final_version, 1 + publishes);
    server.shutdown();
    (publishes, mismatches, regressions, versions_seen.len(), final_version)
}

/// Scenario 3: the batched drain.  One worker, cold cache, the whole
/// working set submitted fire-and-forget so the drain takes multi-request
/// batches; every payload must equal the direct `Predictor::top_k`
/// answer.  Returns (req/s, batches, max batch, payload mismatches).
fn fused_run(
    predictor: &Predictor,
    db_points: usize,
    reqs: &[Request],
    expected: &[Vec<(SystemConfig, f64)>],
) -> (f64, u64, u64, usize) {
    let rounds = 8usize;
    let mut mismatches = 0usize;
    let mut batches = 0u64;
    let mut max_batch = 0u64;
    let mut best_wall = f64::INFINITY;
    for _ in 0..rounds {
        // Fresh server per round = cold cache: every request is a miss, so
        // the drain genuinely scores (not just probes) the batch.
        let metrics = Metrics::new();
        let cfg = ServeConfig {
            workers: 1,
            queue_depth: 256,
            batch: 32,
            service_stall: Duration::ZERO,
            ..Default::default()
        };
        let server = Server::start(predictor.clone(), db_points, cfg, metrics.clone())
            .expect("bench config is valid");
        let h = server.handle();
        let t0 = Instant::now();
        let pending: Vec<_> =
            reqs.iter().map(|r| h.submit_blocking(*r).expect("queue fits burst")).collect();
        for (idx, p) in pending.into_iter().enumerate() {
            if *p.wait().unwrap().top != expected[idx] {
                mismatches += 1;
            }
        }
        best_wall = best_wall.min(t0.elapsed().as_secs_f64());
        batches = metrics.counter("serve.fused_batch.batches");
        max_batch = max_batch.max(metrics.counter("serve.fused_batch.max_requests"));
        server.shutdown();
    }
    (reqs.len() as f64 / best_wall, batches, max_batch, mismatches)
}

fn main() {
    let seed = 42u64;
    let dims = 4usize;
    eprintln!("training predictor over {dims} dims (seed {seed}) ...");
    let (db, predictor) = train(seed, dims);
    let reqs = working_set();
    let expected: Vec<Vec<(SystemConfig, f64)>> = reqs
        .iter()
        .map(|r| predictor.top_k(&r.app, r.objective, InstanceType::Cc2_8xlarge, r.k))
        .collect();

    // --- scenario 1: admission control ------------------------------------
    eprintln!("admission control: 64-request burst at a depth-4 queue ...");
    let (admitted, shed, shed_counter, shed_miss) = shed_run(&predictor, db.len(), &reqs, &expected);
    eprintln!("  admitted {admitted}, shed {shed} (counter {shed_counter})");

    // --- scenario 2: hot-swap under load ----------------------------------
    eprintln!("hot-swap: republishing identical retrains under live load ...");
    let (publishes, swap_miss, regressions, versions_seen, final_version) =
        hotswap_run(&db, &predictor, &reqs, &expected, seed);
    eprintln!("  {publishes} publishes, {versions_seen} versions observed, {swap_miss} mismatches");

    // --- scenario 3: fused cross-request scoring --------------------------
    eprintln!("fused plane: cold-cache burst ...");
    let (fused_rps, fused_batches, fused_max_batch, fused_miss) =
        fused_run(&predictor, db.len(), &reqs, &expected);
    eprintln!(
        "  fused {fused_rps:.0} req/s ({fused_batches} batches, max {fused_max_batch} reqs/sweep)"
    );

    let json = format!(
        "{{\n  \"bench\": \"serve\",\n  \"model\": {{ \"dims\": {dims}, \"db_points\": {db_points}, \"seed\": {seed} }},\n  \"admission\": {{\n    \"burst\": 64,\n    \"queue_depth\": 4,\n    \"admitted\": {admitted},\n    \"shed\": {shed},\n    \"shed_counter\": {shed_counter},\n    \"payload_mismatches\": {shed_miss}\n  }},\n  \"hotswap\": {{\n    \"publishes\": {publishes},\n    \"final_version\": {final_version},\n    \"versions_observed\": {versions_seen},\n    \"payload_mismatches\": {swap_miss},\n    \"version_regressions\": {regressions}\n  }},\n  \"fused\": {{\n    \"burst\": {ws},\n    \"fused_rps\": {fused_rps:.0},\n    \"batches\": {fused_batches},\n    \"max_requests_per_sweep\": {fused_max_batch},\n    \"payload_mismatches\": {fused_miss}\n  }}\n}}\n",
        db_points = db.len(),
        ws = reqs.len(),
    );

    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = root.join("BENCH_serve.json");
    std::fs::write(&out, &json).expect("write BENCH_serve.json");
    println!("{json}");
    println!("wrote {}", out.display());

    assert_eq!(shed_miss + swap_miss + fused_miss, 0, "served payloads diverged from top_k");
    assert!(
        fused_max_batch >= 2,
        "the fused burst never produced a multi-request sweep (max {fused_max_batch})"
    );
    assert_eq!(regressions, 0, "a client observed snapshot versions moving backwards");
    assert_eq!(shed as u64, shed_counter, "shed counter out of sync with Overloaded rejections");
    assert!(shed > 0, "burst never overflowed the depth-4 queue");
}
