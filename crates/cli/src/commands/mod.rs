//! CLI subcommand implementations.

pub mod ior;
pub mod profile;
pub mod publish;
pub mod recommend;
pub mod screen;
pub mod serve;
pub mod sweep;
pub mod train;
pub mod walk;

use crate::args::Args;
use acic::{Acic, Metrics, Objective, PublishedSnapshot, Store, Trainer, TrainingDb};
use acic_cart::ModelKind;
use std::path::Path;

/// Top-level usage text.
pub const USAGE: &str = "\
acic — automatic cloud I/O configurator (SC '13 reproduction)

USAGE:
  acic screen     [--goal perf|cost] [--seed N]
        Rank the 15 exploration-space parameters with a 32-run foldover
        Plackett-Burman screen on the simulated cloud.

  acic train      [--dims N] [--seed N] [--out FILE] [--ranking paper|screen]
                  [--faults none|paper-rate|PROB[,PENALTY[,ABORT]]]
                  [--retries N] [--resume JOURNAL] [--report] [--allow-skips]
                  [--store DIR [--compact]] [--commit-batch N]
                  [--search pb|random|bandit|halving [--budget N] [--batch N]
                   [--plateau N] [--goal perf|cost] [--warm-start DIR]
                   [--plan-out FILE]]
        Collect an IOR training database over the top N ranked dimensions
        and optionally save it as shareable text.  --faults injects the
        paper's observed connection-loss rate (runs are retried on derived
        seeds, unsalvageable points skipped); --resume checkpoints every
        finished point to an append-only journal and restarts bit-identically
        from it; --report prints the collection report and metrics; --store
        ingests the campaign into the durable training store (idempotent:
        re-ingesting a resumed campaign appends nothing new) and answers
        already-measured configurations from it instead of re-simulating.
        --commit-batch sets the group-commit width of the journal writer
        plane and store WAL (default 32; 1 = one write+fsync per point —
        bytes on disk are identical at every width).
        --search replaces the exhaustive sweep with an adaptive campaign:
        a deterministic planner (PB-ranked opening book, UCB bandit over a
        CART surrogate, or successive halving) proposes measurement batches
        until the --budget (default: 10% of the grid) or --plateau rule
        stops it; --warm-start seeds the surrogate with another store's
        samples remapped in feature space; --plan-out writes the executed,
        byte-diffable plan.

  acic publish    --store DIR --out FILE [--seed N] [--model cart|forest|knn]
                  [--force] [--no-compact] [--report]
        Compact the durable store and cut a serving snapshot from its
        canonical sample set.  Incremental: when the existing snapshot
        already matches (content hash, seed, model), nothing is retrained
        or rewritten; --force republishes regardless.

  acic recommend  --app NAME --procs N [--db FILE | --snapshot FILE |
                  --store DIR | --dims N] [--goal perf|cost]
                  [--top K] [--seed N] [--model cart|forest|knn]
                  [--verify [--app-run-secs S]] [--report]
        Profile the application and rank all candidate I/O configurations;
        --verify replays the top-k as IOR probes and re-ranks by
        measurement, accounting residual-hour piggybacking.

  acic profile    (--app NAME --procs N | --trace FILE) [--emit-trace FILE]
        Print the nine Table-1 I/O characteristics of an application model
        or of a recorded trace log.

  acic walk       --app NAME --procs N [--goal perf|cost] [--random] [--seed N]
        PB-guided greedy space walk (no training database needed).

  acic sweep      --app NAME --procs N [--goal perf|cost] [--seed N] [--report]
        Exhaustively measure every candidate configuration (ground truth).

  acic serve      [--db FILE | --snapshot FILE | --store DIR | --dims N]
                  [--seed N] [--workers N] [--queue N] [--batch N] [--cache N]
                  [--replay FILE] [--swap-at N] [--watch] [--report]
        Run the concurrent recommendation service over a replay file (or
        stdin) of `<app> <procs> <goal> <k>` request lines.  Requests are
        pipelined through a sharded worker pool with result caching and
        admission control; workers drain up to --batch queued requests
        per wakeup.  Answers print in request order, bit-identical at any
        --workers count and any --batch size.  --swap-at N hot-swaps a
        freshly retrained model snapshot after N submissions, while
        requests are in flight; --watch (with --snapshot) re-reads the
        snapshot file between submissions and hot-swaps whenever
        `acic publish` replaced it.
        Cluster mode: --trace-out FILE [--trace-len N] [--trace-seed N]
        [--trace-pool N] records a seeded machine trace and exits;
        --trace FILE [--nodes N] [--replay-out FILE] [--window N] replays
        it through an N-node cluster-in-a-process (consistent-hash routing,
        verified snapshot replication) — stdout (the replay digest and
        answered/shed counts) is byte-identical at any --nodes count.
        --swap-at N republishes the artifact as a fresh generation
        mid-replay; --kill-node I [--kill-at N] [--rejoin-at N] kills a
        node mid-replay and rejoins it later (sheds are deterministic).

  acic ior        --args \"-a MPIIO -b 16m -t 4m -i 10 -w -c -N 64\"
                  [--config NOTATION] [--seed N]
        Run one IOR-style benchmark line on a configuration (notation like
        nfs.D.EBS or pvfs.4.P.eph.4MB).

Applications: btio, flashio, mpiblast, madbench2 (paper configurations).
";

/// Parse one goal word (`perf`/`cost` and their aliases).
pub fn parse_goal(word: &str) -> Result<Objective, String> {
    match word {
        "perf" | "performance" | "time" => Ok(Objective::Performance),
        "cost" | "money" => Ok(Objective::Cost),
        other => Err(format!("invalid goal {other:?} (expected perf or cost)")),
    }
}

/// Parse `--goal perf|cost` (default perf).
pub fn goal(args: &Args) -> Result<Objective, String> {
    parse_goal(args.get_or("goal", "perf"))
        .map_err(|e| e.replacen("invalid goal", "invalid --goal", 1))
}

/// Write a whole output file (`train --out`, `serve --trace-out`).  A
/// regular file (or a new path) is replaced atomically, so a kill leaves
/// the old file or the new one, never a torn one; anything else
/// (`/dev/null`, a pipe, a symlink) is written straight through.
pub fn write_output(path: &str, text: &str) -> Result<(), String> {
    let regular = std::fs::symlink_metadata(path).map_or(true, |m| m.is_file());
    let written = if regular {
        acic::record::write_atomic(Path::new(path), text).map_err(|e| e.to_string())
    } else {
        std::fs::write(path, text).map_err(|e| e.to_string())
    };
    written.map_err(|e| format!("writing {path}: {e}"))
}

/// What [`acic_from_args`] resolved: the fitted instance plus the
/// *effective* seed and model kind.  A snapshot is self-describing — its
/// embedded seed and model win over the command line — and callers that
/// retrain (hot-swaps) must reuse these to reproduce the same model.
pub struct Bootstrapped {
    pub acic: Acic,
    pub seed: u64,
    pub model: ModelKind,
}

/// Bootstrap an [`Acic`] instance the way `recommend` and `serve` share:
/// from a `--db` file, a published `--snapshot`, the durable `--store`, or
/// (none given) by training in-process over the top `--dims` paper-ranked
/// dimensions.  Every source but the snapshot fits `kind`, once.
pub fn acic_from_args(
    args: &Args,
    seed: u64,
    kind: ModelKind,
    metrics: &Metrics,
) -> Result<Bootstrapped, String> {
    let _span = metrics.span("phase.train");
    let sources = ["db", "snapshot", "store"].iter().filter(|f| args.get(f).is_some()).count()
        + usize::from(args.get("dims").is_some());
    if sources > 1 {
        return Err("--db, --snapshot, --store, and --dims are mutually exclusive".into());
    }
    let mut effective = (seed, kind);
    let acic = match (args.get("db"), args.get("snapshot"), args.get("store")) {
        (Some(path), _, _) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            let db = TrainingDb::from_text(&text).map_err(|e| e.to_string())?;
            eprintln!("loaded {} training points from {path}", db.len());
            Acic::from_db_with(db, seed, kind).map_err(|e| e.to_string())?
        }
        (None, Some(path), _) => {
            let snap = PublishedSnapshot::read(Path::new(path)).map_err(|e| e.to_string())?;
            eprintln!(
                "loaded snapshot {path}: {} samples, hash {:016x}, seed {}, model {}",
                snap.samples.len(),
                snap.hash,
                snap.seed,
                snap.model
            );
            effective = (snap.seed, snap.model);
            Acic::from_db_with(snap.to_training_db(), snap.seed, snap.model)
                .map_err(|e| e.to_string())?
        }
        (None, None, Some(dir)) => {
            let store = Store::open(Path::new(dir)).map_err(|e| e.to_string())?;
            let r = store.open_report();
            eprintln!(
                "opened store {dir}: {} samples ({} segment(s){})",
                store.len(),
                r.segments,
                if r.repaired() { ", repairs applied" } else { "" }
            );
            Acic::from_db_with(store.to_training_db(), seed, kind).map_err(|e| e.to_string())?
        }
        (None, None, None) => {
            let dims: usize = args.parse_or("dims", 10)?;
            eprintln!("no --db given; training in-process over the top {dims} dimensions...");
            // `Acic::with_paper_ranking` collects the same database but fits
            // CART; fitting `kind` here keeps it to one fit.
            let db = Trainer::with_paper_ranking(seed).collect(dims).map_err(|e| e.to_string())?;
            let mut acic = Acic::from_db_with(db, seed, kind).map_err(|e| e.to_string())?;
            acic.trained_dims = dims;
            acic
        }
    };
    let (seed, model) = effective;
    Ok(Bootstrapped { acic, seed, model })
}
