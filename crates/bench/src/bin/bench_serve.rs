//! Emit `BENCH_serve.json` at the repo root: throughput scaling, admission
//! control, and hot-swap correctness of the `acic-serve` subsystem.
//!
//! The benchmark box may have any core count (often one), so the scaling
//! scenario cannot honestly measure CPU parallelism.  Instead each request
//! carries a fixed simulated downstream stall (`ServeConfig::service_stall`,
//! think "EC2 metadata round-trip"): stalls on different worker threads
//! overlap regardless of cores, so throughput at N workers over throughput
//! at 1 measures exactly the pool's latency-overlap and queueing behavior.
//! Results stay bit-identical throughout — every scenario cross-checks the
//! served payloads against the direct `Predictor::top_k` answer.
//!
//! Runs in seconds; wired into `scripts/tier1.sh`.

use acic::space::SpacePoint;
use acic::{AppPoint, Metrics, Objective, Predictor, SystemConfig, Trainer, TrainingDb};
use acic_bench::stats::quantile;
use acic_cloudsim::instance::InstanceType;
use acic_cloudsim::units::mib;
use acic_serve::{Request, ServeConfig, Server};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

const STALL: Duration = Duration::from_micros(500);

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

/// Closed-loop load: `clients` threads, each walking the working set from a
/// staggered offset, one outstanding request apiece, until `total` requests
/// have been served.  Returns (wall seconds, client-observed latencies,
/// payload mismatches vs `expected`).
fn closed_loop(
    server: &Server,
    reqs: &[Request],
    expected: &[Vec<(SystemConfig, f64)>],
    clients: usize,
    total: usize,
) -> (f64, Vec<f64>, usize) {
    let served = AtomicUsize::new(0);
    let t0 = Instant::now();
    let results: Vec<(Vec<f64>, usize)> = std::thread::scope(|s| {
        (0..clients)
            .map(|c| {
                let h = server.handle();
                let served = &served;
                s.spawn(move || {
                    let mut latencies = Vec::new();
                    let mut mismatches = 0usize;
                    let mut i = c * reqs.len() / clients;
                    while served.fetch_add(1, Ordering::Relaxed) < total {
                        let idx = i % reqs.len();
                        let t = Instant::now();
                        let resp = h.submit_blocking(reqs[idx]).unwrap().wait().unwrap();
                        latencies.push(t.elapsed().as_secs_f64());
                        if *resp.top != expected[idx] {
                            mismatches += 1;
                        }
                        i += 1;
                    }
                    (latencies, mismatches)
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect()
    });
    let wall = t0.elapsed().as_secs_f64();
    let mut latencies = Vec::new();
    let mut mismatches = 0;
    for (l, m) in results {
        latencies.extend(l);
        mismatches += m;
    }
    (wall, latencies, mismatches)
}

/// Scenario 1: warm-cache throughput at `workers` workers under the fixed
/// per-request stall.  Returns (requests/sec, latencies, mismatches).
fn scaling_run(
    predictor: &Predictor,
    db_points: usize,
    reqs: &[Request],
    expected: &[Vec<(SystemConfig, f64)>],
    workers: usize,
    metrics: Metrics,
) -> (f64, Vec<f64>, usize, Server) {
    let cfg = ServeConfig { workers, queue_depth: 256, service_stall: STALL, ..Default::default() };
    let server = Server::start(predictor.clone(), db_points, cfg, metrics).expect("bench config is valid");
    let h = server.handle();
    // Warm the cache: every working-set key computed once.
    for r in reqs {
        h.query(*r).unwrap();
    }
    let total = 1200 * workers;
    let (wall, latencies, mismatches) = closed_loop(&server, reqs, expected, 2 * workers, total);
    (total as f64 / wall, latencies, mismatches, server)
}

/// Scenario 2: admission control.  A tiny queue behind one slow worker is
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

/// Scenario 3: hot-swap under load.  While closed-loop clients hammer the
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

/// Scenario 4: the fused cross-request drain.  One worker, cold cache, the
/// whole working set submitted fire-and-forget so the drain sweeps
/// multi-request batches through `Predictor::top_k_many`; every payload
/// must equal the direct `Predictor::top_k` answer.  Returns (req/s,
/// batches, max batch, sweep groups, payload mismatches).
fn fused_run(
    predictor: &Predictor,
    db_points: usize,
    reqs: &[Request],
    expected: &[Vec<(SystemConfig, f64)>],
) -> (f64, u64, u64, u64, usize) {
    let rounds = 8usize;
    let mut mismatches = 0usize;
    let mut batches = 0u64;
    let mut max_batch = 0u64;
    let mut groups = 0u64;
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
        groups = metrics.counter("serve.fused_batch.groups");
        server.shutdown();
    }
    (reqs.len() as f64 / best_wall, batches, max_batch, groups, mismatches)
}

fn us(secs: f64) -> f64 {
    secs * 1e6
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

    // --- scenario 1: warm-cache throughput scaling ------------------------
    let stall_us = STALL.as_secs_f64() * 1e6;
    eprintln!("scaling: closed-loop warm-cache load, {stall_us:.0}us stall per request ...");
    let (rps_1, _, miss_1, s1) =
        scaling_run(&predictor, db.len(), &reqs, &expected, 1, Metrics::new());
    s1.shutdown();
    let metrics_8 = Metrics::new();
    let (rps_8, lat_8, miss_8, s8) =
        scaling_run(&predictor, db.len(), &reqs, &expected, 8, metrics_8.clone());
    let (hits, misses, hit_rate) = s8.cache_stats();
    let q = |name: &str, p: f64| us(metrics_8.latency_quantile(name, p).unwrap_or(0.0));
    let queue_p = (q("serve.queue_wait", 0.5), q("serve.queue_wait", 0.95), q("serve.queue_wait", 0.99));
    let hit_p = (q("serve.cache_hit", 0.5), q("serve.cache_hit", 0.95), q("serve.cache_hit", 0.99));
    let client_p = (
        us(quantile(&lat_8, 0.5).unwrap()),
        us(quantile(&lat_8, 0.95).unwrap()),
        us(quantile(&lat_8, 0.99).unwrap()),
    );
    s8.shutdown();
    let speedup = rps_8 / rps_1;
    eprintln!("  1 worker:  {rps_1:.0} req/s");
    eprintln!("  8 workers: {rps_8:.0} req/s  ({speedup:.2}x)");

    // --- scenario 2: admission control ------------------------------------
    eprintln!("admission control: 64-request burst at a depth-4 queue ...");
    let (admitted, shed, shed_counter, shed_miss) = shed_run(&predictor, db.len(), &reqs, &expected);
    eprintln!("  admitted {admitted}, shed {shed} (counter {shed_counter})");

    // --- scenario 3: hot-swap under load ----------------------------------
    eprintln!("hot-swap: republishing identical retrains under live load ...");
    let (publishes, swap_miss, regressions, versions_seen, final_version) =
        hotswap_run(&db, &predictor, &reqs, &expected, seed);
    eprintln!("  {publishes} publishes, {versions_seen} versions observed, {swap_miss} mismatches");

    // --- scenario 4: fused cross-request scoring --------------------------
    eprintln!("fused plane: cold-cache burst ...");
    let (fused_rps, fused_batches, fused_max_batch, fused_groups, fused_miss) =
        fused_run(&predictor, db.len(), &reqs, &expected);
    eprintln!(
        "  fused {fused_rps:.0} req/s ({fused_batches} batches, max {fused_max_batch} reqs/sweep)"
    );

    let json = format!(
        "{{\n  \"bench\": \"serve\",\n  \"model\": {{ \"dims\": {dims}, \"db_points\": {db_points}, \"seed\": {seed} }},\n  \"scaling\": {{\n    \"stall_us\": {stall_us:.0},\n    \"working_set\": {ws},\n    \"workers_1_rps\": {rps_1:.0},\n    \"workers_8_rps\": {rps_8:.0},\n    \"speedup\": {speedup:.2},\n    \"payload_mismatches\": {total_miss}\n  }},\n  \"cache\": {{ \"hits\": {hits}, \"misses\": {misses}, \"hit_rate\": {hit_rate:.3} }},\n  \"latency_us\": {{\n    \"queue_wait\": {{ \"p50\": {qw50:.0}, \"p95\": {qw95:.0}, \"p99\": {qw99:.0} }},\n    \"cache_hit\": {{ \"p50\": {ch50:.1}, \"p95\": {ch95:.1}, \"p99\": {ch99:.1} }},\n    \"client_e2e\": {{ \"p50\": {ce50:.0}, \"p95\": {ce95:.0}, \"p99\": {ce99:.0} }}\n  }},\n  \"admission\": {{\n    \"burst\": 64,\n    \"queue_depth\": 4,\n    \"admitted\": {admitted},\n    \"shed\": {shed},\n    \"shed_counter\": {shed_counter},\n    \"payload_mismatches\": {shed_miss}\n  }},\n  \"hotswap\": {{\n    \"publishes\": {publishes},\n    \"final_version\": {final_version},\n    \"versions_observed\": {versions_seen},\n    \"payload_mismatches\": {swap_miss},\n    \"version_regressions\": {regressions}\n  }},\n  \"fused\": {{\n    \"burst\": {ws},\n    \"fused_rps\": {fused_rps:.0},\n    \"batches\": {fused_batches},\n    \"max_requests_per_sweep\": {fused_max_batch},\n    \"sweep_groups\": {fused_groups},\n    \"payload_mismatches\": {fused_miss}\n  }}\n}}\n",
        db_points = db.len(),
        ws = reqs.len(),
        total_miss = miss_1 + miss_8,
        qw50 = queue_p.0, qw95 = queue_p.1, qw99 = queue_p.2,
        ch50 = hit_p.0, ch95 = hit_p.1, ch99 = hit_p.2,
        ce50 = client_p.0, ce95 = client_p.1, ce99 = client_p.2,
    );

    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = root.join("BENCH_serve.json");
    std::fs::write(&out, &json).expect("write BENCH_serve.json");
    println!("{json}");
    println!("wrote {}", out.display());

    assert_eq!(
        miss_1 + miss_8 + shed_miss + swap_miss + fused_miss,
        0,
        "served payloads diverged from top_k"
    );
    assert!(
        fused_max_batch >= 2,
        "the fused burst never produced a multi-request sweep (max {fused_max_batch})"
    );
    assert_eq!(regressions, 0, "a client observed snapshot versions moving backwards");
    assert_eq!(shed as u64, shed_counter, "shed counter out of sync with Overloaded rejections");
    assert!(shed > 0, "burst never overflowed the depth-4 queue");
    assert!(
        speedup >= 4.0,
        "8 workers must give >= 4x single-worker throughput on a warm cache \
         (got {speedup:.2}x: {rps_1:.0} -> {rps_8:.0} req/s)"
    );
}
