//! `acic serve` — drive the concurrent recommendation service from a
//! replay file (or stdin), single-node or clustered.
//!
//! Each request line is `<app> <procs> <goal> <k>` (`#` starts a comment).
//! Requests are profiled into query points, submitted to the sharded
//! worker pool in file order without waiting for earlier answers
//! (pipelined), and the answers are printed strictly in request order —
//! so stdout is bit-identical at any `--workers` count and across a
//! `--swap-at` hot-swap to an identically retrained snapshot, which is
//! exactly what the tier-1 gate diffs.
//!
//! Cluster mode drives the multi-node tier instead:
//!
//! * `--trace-out FILE --trace-len N --trace-seed S` records a seeded
//!   machine trace (exact-round-trip line format) and exits.
//! * `--trace FILE --nodes N` replays a recorded trace through an
//!   `N`-node cluster-in-a-process: stdout carries only the replay digest
//!   and the answered/shed counts, which are byte-identical at any node
//!   count (the tier-1 cluster gate diffs `--nodes 1/2/4`).  `--swap-at I`
//!   republishes the artifact as a fresh generation mid-replay;
//!   `--kill-node J --kill-at I --rejoin-at I'` schedules a mid-replay
//!   node failure; `--replay-out FILE` records every answered
//!   `index\tpayload` line for byte-diffing.

use crate::args::Args;
use crate::commands::{acic_from_args, parse_goal};
use crate::registry::app_by_name;
use acic::profile::app_point_from;
use acic::{AppPoint, Metrics, Predictor, PublishedSnapshot};
use acic_serve::cluster::{harness, Cluster, ClusterConfig, KillPlan, NodeId, ReplayOptions, Trace};
use acic_serve::{Pending, Request, ServeConfig, Server};
use std::collections::hash_map::{Entry, HashMap};
use std::io::Read;
use std::path::Path;

/// The profiled query point, and the model's name, of every (app, procs)
/// pair a replay has named so far: a pair's trace is built and profiled
/// once, however many lines repeat it.
type Profiles<'a> = HashMap<(&'a str, usize), (&'static str, AppPoint)>;

/// Parse one replay line into a display label and a request.
fn parse_request_line<'a>(
    line: &'a str,
    profiles: &mut Profiles<'a>,
) -> Result<(String, Request), String> {
    let tokens: Vec<&str> = line.split_whitespace().collect();
    let [app_name, procs, goal_word, k] = tokens.as_slice() else {
        return Err(format!("want `<app> <procs> <goal> <k>`, got {line:?}"));
    };
    let procs: usize = procs.parse().map_err(|_| format!("bad procs {procs:?}"))?;
    let objective = parse_goal(goal_word)?;
    let k: usize = k.parse().map_err(|_| format!("bad k {k:?}"))?;
    let (name, app) = match profiles.entry((*app_name, procs)) {
        Entry::Occupied(known) => *known.get(),
        Entry::Vacant(slot) => {
            let model = app_by_name(app_name, procs)?;
            let chars = acic_apps::profile(&model.trace())
                .ok_or_else(|| format!("{} performs no I/O", model.name()))?;
            *slot.insert((model.name(), app_point_from(&chars)))
        }
    };
    let label = format!("{name}-{procs} {goal_word} top{k}");
    Ok((label, Request { app, objective, k }))
}

/// Parse a replay's request lines (blank and `#` lines skipped), naming a
/// bad line by its 1-based request number.
fn parse_requests(text: &str) -> Result<Vec<(String, Request)>, String> {
    let mut profiles = Profiles::new();
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .enumerate()
        .map(|(i, l)| {
            parse_request_line(l, &mut profiles).map_err(|e| format!("request {}: {e}", i + 1))
        })
        .collect()
}

pub fn run(args: &Args) -> Result<(), String> {
    args.reject_unknown(&[
        "dims", "snapshot", "store", "seed", "workers", "queue", "batch", "cache", "replay",
        "swap-at", "watch", "report", "nodes", "trace", "trace-out", "trace-len", "trace-seed",
        "trace-pool", "replay-out", "kill-node", "kill-at", "rejoin-at",
    ])?;
    let metrics = Metrics::new();
    let seed: u64 = args.parse_or("seed", 20131117)?;
    let workers: usize = args.parse_or("workers", 2)?;
    let swap_at: usize = args.parse_or("swap-at", usize::MAX)?;
    let watch = args.flag("watch");
    if watch && args.get("snapshot").is_none() {
        return Err("--watch requires --snapshot FILE (the file `acic publish` writes)".into());
    }

    // Record mode: generate a seeded trace, write it, done — no model.
    if let Some(path) = args.get("trace-out") {
        let len: usize = args.parse_or("trace-len", 100_000)?;
        let trace_seed: u64 = args.parse_or("trace-seed", 20131117)?;
        let pool: usize = args.parse_or("trace-pool", Trace::DEFAULT_POOL)?;
        let trace = Trace::with_pool(trace_seed, len, pool);
        crate::commands::write_output(path, &trace.render())?;
        eprintln!("recorded {len}-request trace (seed {trace_seed}, pool {pool}) to {path}");
        return Ok(());
    }
    if let Some(trace_path) = args.get("trace") {
        return run_cluster(args, trace_path, seed, workers, swap_at, &metrics);
    }
    if args.get("nodes").is_some() {
        return Err("--nodes needs --trace FILE (record one with --trace-out)".into());
    }

    let boot = acic_from_args(args, seed, None, &metrics)?;
    let acic = boot.acic;

    let text = match args.get("replay") {
        Some(path) => {
            std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?
        }
        None => {
            eprintln!("reading requests from stdin (one `<app> <procs> <goal> <k>` per line)...");
            let mut s = String::new();
            std::io::stdin().read_to_string(&mut s).map_err(|e| e.to_string())?;
            s
        }
    };
    let requests = {
        let _span = metrics.span("phase.parse");
        parse_requests(&text)?
    };

    let cfg = serve_config(args, workers)?;
    let server = Server::from_acic(&acic, cfg, metrics.clone()).map_err(|e| e.to_string())?;
    let handle = server.handle();
    eprintln!(
        "serving with {workers} worker(s), queue depth {}, batch {} (snapshot v{}, {} points)",
        server.config().queue_depth,
        server.config().batch,
        server.version(),
        acic.db.len(),
    );

    // Pipelined submission; `--swap-at N` republishes an identically
    // retrained snapshot mid-replay while earlier requests are in flight,
    // and `--watch` hot-swaps whenever `acic publish` replaces the
    // snapshot file.
    let snapshot_path = args.get("snapshot");
    let mut watched = snapshot_path
        .filter(|_| watch)
        .map(|p| PublishedSnapshot::read_header(Path::new(p)))
        .transpose()
        .map_err(|e| e.to_string())?;
    let pending: Vec<Pending> = {
        let _span = metrics.span("phase.replay");
        let mut out = Vec::with_capacity(requests.len());
        for (i, (_, req)) in requests.iter().enumerate() {
            if i == swap_at {
                let _swap = metrics.span("phase.swap");
                let retrained = Predictor::train_with(&acic.db, boot.seed, boot.model)
                    .map_err(|e| e.to_string())?;
                let v = server.publish(retrained, acic.db.len());
                eprintln!("hot-swapped to snapshot v{v} after {i} submissions");
            }
            if let (Some(path), Some(last)) = (snapshot_path, watched.as_mut()) {
                // A republished file changes its header identity (hash,
                // sample count, seed, model); an incremental no-op publish
                // changes nothing and is skipped here too.  Only a changed
                // identity pays for the full read, which verifies every
                // sample line and the content hash.
                let header =
                    PublishedSnapshot::read_header(Path::new(path)).map_err(|e| e.to_string())?;
                if header != *last {
                    let snap = PublishedSnapshot::read(Path::new(path)).map_err(|e| e.to_string())?;
                    let _swap = metrics.span("phase.swap");
                    let db = snap.to_training_db();
                    let retrained = Predictor::train_with(&db, snap.seed, snap.model)
                        .map_err(|e| e.to_string())?;
                    let v = server.publish(retrained, db.len());
                    *last = snap.header();
                    eprintln!(
                        "watched snapshot changed (hash {:016x}); hot-swapped to v{v} after {i} \
                         submissions",
                        snap.hash
                    );
                }
            }
            out.push(handle.submit_blocking(*req).map_err(|e| e.to_string())?);
        }
        out
    };

    // Answers print strictly in request order regardless of which worker
    // (or snapshot) served them.
    for (i, ((label, _), pend)) in requests.iter().zip(pending).enumerate() {
        let resp = pend.wait().map_err(|e| e.to_string())?;
        let ranked: Vec<String> =
            resp.top.iter().map(|(c, imp)| format!("{}={imp:.6}", c.notation())).collect();
        println!("{}. {label}: {}", i + 1, ranked.join(" "));
    }
    println!("# served {} requests, shed {}", requests.len(), server.shed_count());

    let (hits, misses, rate) = server.cache_stats();
    eprintln!(
        "cache: {hits} hits / {misses} misses ({:.0}% hit rate), final snapshot v{}",
        rate * 100.0,
        server.version()
    );
    if args.flag("report") {
        eprint!("{}", metrics.render());
    }
    server.shutdown();
    Ok(())
}

/// Cluster mode: replay a recorded trace through an `--nodes`-node
/// cluster-in-a-process.  Stdout carries only node-count-invariant facts
/// (the digest and the answered/shed counts); per-node diagnostics go to
/// stderr.
fn run_cluster(
    args: &Args,
    trace_path: &str,
    seed: u64,
    workers: usize,
    swap_at: usize,
    metrics: &Metrics,
) -> Result<(), String> {
    let nodes: usize = args.parse_or("nodes", 1)?;
    let text =
        std::fs::read_to_string(trace_path).map_err(|e| format!("reading {trace_path}: {e}"))?;
    let requests = {
        let _span = metrics.span("phase.parse");
        harness::parse_trace(&text).map_err(|e| format!("{trace_path}: {e}"))?
    };

    let boot = acic_from_args(args, seed, None, metrics)?;
    // The model artifact every node replicates: self-describing samples +
    // seed + model kind, verified per node against its content hash.
    let artifact = PublishedSnapshot::from_db(&boot.acic.db, boot.seed, boot.model);
    let cfg = ClusterConfig { nodes, node: serve_config(args, workers)? };
    let mut cluster =
        Cluster::start(artifact, cfg, metrics.clone()).map_err(|e| e.to_string())?;
    eprintln!(
        "cluster: {nodes} node(s) x {workers} worker(s), {} requests from {trace_path}, \
         {} snapshot replicas verified",
        requests.len(),
        cluster.metrics().counter("cluster.snapshots_verified"),
    );

    let kill = match args.get("kill-node") {
        Some(raw) => {
            let node: u32 = raw.parse().map_err(|_| format!("bad --kill-node {raw:?}"))?;
            let kill_at: usize = args.parse_or("kill-at", requests.len() / 3)?;
            let rejoin_at: usize = args.parse_or("rejoin-at", 2 * requests.len() / 3)?;
            if rejoin_at < kill_at {
                return Err(format!("--rejoin-at {rejoin_at} is before --kill-at {kill_at}"));
            }
            Some(KillPlan { node: NodeId(node), kill_at, rejoin_at })
        }
        None => None,
    };
    let replay_out = args.get("replay-out");
    let opts = ReplayOptions {
        kill,
        republish_at: (swap_at < requests.len()).then_some(swap_at),
        collect_responses: replay_out.is_some(),
        ..Default::default()
    };
    let outcome = {
        let _span = metrics.span("phase.replay");
        harness::replay(&mut cluster, requests.len(), |i| requests[i], &opts)
            .map_err(|e| e.to_string())?
    };

    if let Some(path) = replay_out {
        let mut rendered = String::new();
        for (index, payload) in &outcome.responses {
            rendered.push_str(&format!("{index}\t{payload}\n"));
        }
        crate::commands::write_output(path, &rendered)?;
        eprintln!("wrote {} answered-response lines to {path}", outcome.responses.len());
    }
    // Stdout: node-count-invariant facts only — the tier-1 gate byte-diffs
    // this across --nodes 1/2/4.
    println!("digest={:016x}", outcome.digest);
    println!("answered={} shed={}", outcome.answered, outcome.shed.len());
    eprintln!(
        "cluster served {} (shed {}), generation {}, verified {} replicas ({} failures)",
        cluster.served_count(),
        cluster.shed_count(),
        cluster.generation(),
        cluster.metrics().counter("cluster.snapshots_verified"),
        cluster.metrics().counter("cluster.snapshot_verify_failures"),
    );
    if args.flag("report") {
        eprint!("{}", metrics.render());
    }
    cluster.shutdown();
    Ok(())
}

/// A node of `workers` workers with the `--queue`, `--batch` and `--cache`
/// the command line asks for.
// The update fills `service_stall` when a test build turns on
// `acic-serve`'s `test-support`.
#[allow(clippy::needless_update)]
fn serve_config(args: &Args, workers: usize) -> Result<ServeConfig, String> {
    Ok(ServeConfig {
        workers,
        queue_depth: args.parse_or("queue", 128)?,
        batch: args.parse_or("batch", 8)?,
        cache_capacity: args.parse_or("cache", 4096)?,
        ..Default::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_lines_reuse_the_first_profile_exactly() {
        let requests =
            parse_requests("btio 64 perf 3\n# comment\nflashio 512 cost 3\n\nbtio 64 perf 3\n")
                .unwrap();
        assert_eq!(requests.len(), 3);
        assert_eq!(requests[2], requests[0]);
        assert_eq!(requests[0].0, "BTIO-64 perf top3");
        // A line profiled on its own gives the same label and request.
        let alone = parse_requests("btio 64 perf 3").unwrap();
        assert_eq!(alone[0], requests[2]);
    }

    #[test]
    fn a_bad_line_after_good_ones_reports_its_own_number() {
        let text = "btio 64 perf 3\nbtio 64 perf 3\n# skipped\nbtio 64 fast 3\n";
        let err = parse_requests(text).unwrap_err();
        assert!(err.starts_with("request 3: invalid goal"), "{err}");
        let err = parse_requests("btio 64 perf 3\nnope 64 perf 3\n").unwrap_err();
        assert!(err.starts_with("request 2: unknown application"), "{err}");
        let err = parse_requests("btio 64 perf 3\nbtio 0 perf 3\n").unwrap_err();
        assert!(err.starts_with("request 2: --procs must be positive"), "{err}");
    }
}
