//! `acic train` — collect a training database, fault-tolerantly: either
//! the exhaustive campaign, or (with `--search`) an adaptive campaign
//! planned round-by-round by `acic-search`.

use crate::args::Args;
use acic::reducer::reduce;
use acic::training::CollectOptions;
use acic::{CommitConfig, Metrics, Objective, RetryPolicy, Trainer};
use acic_fsim::FaultPlan;
use acic_search::{run_search, Budget, SearchConfig, Strategy};
use std::path::Path;

pub fn run(args: &Args) -> Result<(), String> {
    args.reject_unknown(&[
        "dims",
        "seed",
        "out",
        "ranking",
        "faults",
        "resume",
        "report",
        "retries",
        "allow-skips",
        "store",
        "compact",
        "search",
        "budget",
        "batch",
        "plateau",
        "goal",
        "warm-start",
        "plan-out",
        "commit-batch",
    ])?;
    if args.flag("compact") && args.get("store").is_none() {
        return Err("--compact requires --store".into());
    }
    if args.get("search").is_none() {
        for f in ["budget", "batch", "plateau", "goal", "warm-start", "plan-out"] {
            if args.get(f).is_some() {
                return Err(format!("--{f} requires --search"));
            }
        }
    }
    let dims: usize = args.parse_or("dims", 7)?;
    let seed: u64 = args.parse_or("seed", 20131117)?;
    if dims == 0 || dims > 15 {
        return Err("--dims must be in 1..=15".into());
    }
    let faults = FaultPlan::parse(args.get_or("faults", "none"))?;
    let retries: u32 = args.parse_or("retries", RetryPolicy::DEFAULT.max_retries)?;
    let retry = RetryPolicy { max_retries: retries, ..RetryPolicy::DEFAULT };
    // Group-commit width for the journal writer plane and store WAL:
    // `1` is the per-point durable oracle, larger batches amortize the
    // write+sync cost.  Bytes on disk are identical at every setting.
    let commit_batch: usize = args.parse_or("commit-batch", CommitConfig::default().batch)?;
    if commit_batch == 0 {
        return Err("--commit-batch must be >= 1".into());
    }
    let commit = CommitConfig { batch: commit_batch, sync: true };

    let trainer = match args.get_or("ranking", "paper") {
        "paper" => Trainer::with_paper_ranking(seed),
        "screen" => {
            let r = reduce(Objective::Performance, seed).map_err(|e| e.to_string())?;
            Trainer::new(r.ranking, seed)
        }
        other => return Err(format!("invalid --ranking {other:?} (paper or screen)")),
    }
    .with_faults(faults)
    .with_retry(retry);

    eprintln!(
        "training over the top {dims} dimensions: {:?}...",
        &trainer.ranking[..dims.min(trainer.ranking.len())]
    );
    let points = trainer.sample_points(dims);
    let metrics = Metrics::new();
    let journal = args.get("resume").map(Path::new);

    // The durable store opens *before* collection: its canonical index
    // answers already-measured configurations (lookup-before-measure)
    // instead of re-simulating them.
    let mut store = match args.get("store") {
        None => None,
        Some(dir) => {
            let s = acic::Store::open(Path::new(dir)).map_err(|e| e.to_string())?;
            if s.open_report().repaired() {
                let r = s.open_report();
                eprintln!(
                    "store {dir} repaired on open: {} torn WAL byte(s), {} orphan segment(s)",
                    r.torn_wal_bytes, r.orphan_segments
                );
            }
            Some(s)
        }
    };

    let collection = if let Some(word) = args.get("search") {
        // Adaptive path: a planner proposes measurement batches under a
        // budget; the exhaustive grid is only the candidate space.
        let strategy: Strategy = word.parse()?;
        let objective = crate::commands::goal(args)?;
        let tenth = points.len().div_ceil(10).max(1);
        let budget_n: usize = args.parse_or("budget", tenth)?;
        let mut budget = Budget::measurements(budget_n);
        if args.get("batch").is_some() {
            budget = budget.with_batch(args.parse_or("batch", budget.batch)?);
        }
        if args.get("plateau").is_some() {
            budget = budget.with_plateau(args.parse_or("plateau", 2)?);
        }
        let mut lookup = store.as_ref().map(|s| s.lookup_index()).unwrap_or_default();
        let mut warm = Vec::new();
        if let Some(dir) = args.get("warm-start") {
            let p = Path::new(dir);
            if !p.is_dir() {
                return Err(format!("--warm-start {dir}: no such store"));
            }
            let ws = acic::Store::open(p).map_err(|e| e.to_string())?;
            warm = ws.canonical();
            eprintln!("warm start from {dir}: {} canonical sample(s)", warm.len());
            // Exact-key overlaps are answered for free; the rest become
            // remapped surrogate priors inside the search.
            lookup.merge(ws.lookup_index());
        }
        let cfg = SearchConfig {
            strategy,
            budget,
            objective,
            journal,
            metrics: Some(&metrics),
            lookup: if lookup.is_empty() { None } else { Some(&lookup) },
            warm: &warm,
            commit,
        };
        let out = {
            let _span = metrics.span("phase.train");
            run_search(&trainer, &points, &cfg).map_err(|e| e.to_string())?
        };
        eprintln!(
            "{} search stopped ({}): {} round(s), {} measurement(s) of {} grid points, \
             {} store hit(s), best {objective} improvement {:.4}",
            out.plan.strategy,
            out.plan.stop.code(),
            out.plan.rounds.len(),
            out.plan.measurements(),
            points.len(),
            out.plan.store_hits(),
            out.plan.best().unwrap_or(f64::NAN),
        );
        if let Some(path) = args.get("plan-out") {
            std::fs::write(path, out.plan.render())
                .map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("plan written to {path}");
        }
        out.collection
    } else {
        let lookup = store.as_ref().map(|s| s.lookup_index());
        let opts = CollectOptions {
            journal,
            metrics: Some(&metrics),
            strict: false,
            subset: None,
            lookup: lookup.as_ref(),
            commit,
        };
        let _span = metrics.span("phase.train");
        trainer.collect_with(&points, &opts).map_err(|e| e.to_string())?
    };
    let db = &collection.db;
    let report = &collection.report;
    eprintln!(
        "collected {} points ({:.0} simulated seconds, ${:.2}){}{}",
        db.len(),
        db.collect_secs,
        db.collect_cost_usd,
        if report.resumed > 0 {
            format!(", {} restored from journal", report.resumed)
        } else {
            String::new()
        },
        if report.store_hits > 0 {
            format!(", {} answered from store", report.store_hits)
        } else {
            String::new()
        }
    );
    // Durable ingest: append this campaign's observations (with their
    // provenance) to the training store.  Idempotent — re-running or
    // resuming the same campaign appends nothing new.  WAL appends share
    // the journal's group-commit width.
    if let (Some(dir), Some(store)) = (args.get("store"), store.as_mut()) {
        let stats = store
            .ingest_collection_with(&trainer.campaign_id(&points), &collection, commit)
            .map_err(|e| e.to_string())?;
        metrics.incr("store.wal_batches", stats.batches as u64);
        eprintln!(
            "store {dir}: {} sample(s) appended, {} duplicate(s) skipped ({} total)",
            stats.appended,
            stats.duplicates,
            store.len()
        );
        if args.flag("compact") {
            let c = store.compact().map_err(|e| e.to_string())?;
            if c.changed {
                eprintln!("store {dir}: compacted to {} canonical sample(s)", c.samples);
            }
        }
    }

    if args.flag("report") {
        eprint!("{}", report.render());
        eprint!("{}", metrics.render());
    }

    match args.get("out") {
        Some(path) => {
            crate::commands::write_output(path, &db.to_text())?;
            eprintln!("database written to {path}");
        }
        None => print!("{}", db.to_text()),
    }

    if !report.skipped.is_empty() && !args.flag("allow-skips") {
        return Err(format!(
            "{} point(s) skipped after retries (first: {}); pass --allow-skips to accept a \
             partial database",
            report.skipped.len(),
            report.skipped[0].error
        ));
    }
    Ok(())
}
