//! `acic recommend` — profile an application and rank candidates.
//!
//! The ranking itself runs through the `acic-serve` query path (a
//! single-shot, one-worker service), so this command and the long-lived
//! `acic serve` service answer through exactly the same code and can
//! never diverge.  That path scores the cached candidate matrix through
//! the predictor's one ranking path (a candidate-grid walk per query for
//! tree models).  `--top 0` is clamped to 1 (see `Predictor::top_k`).

use crate::args::Args;
use crate::commands::{acic_from_args, goal};
use crate::registry::app_by_name;
use acic::profile::app_point_from;
use acic::verify::verify_top_k;
use acic::{Metrics, Recommendation};
use acic_serve::Request;

pub fn run(args: &Args) -> Result<(), String> {
    args.reject_unknown(&[
        "app",
        "procs",
        "db",
        "dims",
        "snapshot",
        "store",
        "goal",
        "top",
        "seed",
        "verify",
        "app-run-secs",
        "model",
        "report",
    ])?;
    if args.get("snapshot").is_some() && args.get("model").is_some() {
        return Err("--model conflicts with --snapshot (the snapshot embeds its model kind)".into());
    }
    let metrics = Metrics::new();
    let app_name = args.get("app").ok_or("--app is required")?;
    let procs: usize = args.parse_or("procs", 64)?;
    let top: usize = args.parse_or("top", 3)?;
    let seed: u64 = args.parse_or("seed", 20131117)?;
    let objective = goal(args)?;
    let model = app_by_name(app_name, procs)?;

    // A snapshot fits the model it embeds; every other source fits the
    // requested one (CART by default).
    let requested = match args.get("model") {
        Some(word) => crate::commands::publish::parse_model_flag(word)?,
        None => acic_cart::ModelKind::Cart,
    };
    let boot = acic_from_args(args, seed, requested, &metrics)?;
    let (acic, model_kind) = (boot.acic, boot.model);
    metrics.incr("recommend.db.points", acic.db.len() as u64);

    let point = {
        let _span = metrics.span("phase.profile");
        let chars = acic_apps::profile(&model.trace())
            .ok_or_else(|| format!("{} performs no I/O", model.name()))?;
        app_point_from(&chars)
    };
    let recs: Vec<Recommendation> = {
        let _span = metrics.span("phase.rank");
        let request = Request { app: point, objective, k: top };
        let response = acic_serve::answer_single_shot(&acic.predictor, acic.db.len(), request, &metrics)
            .map_err(|e| e.to_string())?;
        response
            .top
            .iter()
            .map(|&(config, predicted_improvement)| Recommendation { config, predicted_improvement })
            .collect()
    };
    metrics.incr("recommend.candidates.returned", recs.len() as u64);
    println!(
        "top {} I/O configurations for {}-{procs} ({objective} goal, {model_kind} model):",
        recs.len(),
        model.name()
    );
    for (i, r) in recs.iter().enumerate() {
        println!(
            "  {}. {:<26} predicted {:.2}x improvement over baseline",
            i + 1,
            r.config.notation(),
            r.predicted_improvement
        );
    }

    // Optional verification probes over the top-k list (paper §5.3's
    // piggy-backed benchmarking runs).
    if args.flag("verify") {
        let app_run_secs: f64 = args.parse_or("app-run-secs", 0.0)?;
        let ranked: Vec<(acic::SystemConfig, f64)> =
            recs.iter().map(|r| (r.config, r.predicted_improvement)).collect();
        let v = {
            let _span = metrics.span("phase.verify");
            verify_top_k(&ranked, &point, objective, top, app_run_secs, seed)
                .map_err(|e| e.to_string())?
        };
        println!();
        println!("verification probes (IOR replays of the profiled characteristics):");
        for (i, c) in v.ranked.iter().enumerate() {
            println!(
                "  {}. {:<26} measured {:.3} ({:.1}s probe)",
                i + 1,
                c.config.notation(),
                c.measured_metric,
                c.probe_secs
            );
        }
        println!(
            "probing: {:.1}s total, ${:.2} stand-alone, {:.0}% rode residual instance-hours",
            v.total_probe_secs,
            v.standalone_cost,
            v.free_fraction() * 100.0
        );
    }
    if args.flag("report") {
        eprint!("{}", metrics.render());
    }
    Ok(())
}
