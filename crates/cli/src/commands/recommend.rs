//! `acic recommend` — profile an application and rank candidates.
//!
//! The ranking is `Acic::recommend`, which calls `Predictor::top_k`: the
//! call every `acic serve` cache miss makes, so this command and the
//! long-lived service answer through the same ranking path (a
//! candidate-grid walk per query for tree models).  `--top 0` is clamped
//! to 1 (see `Predictor::top_k`).

use crate::args::Args;
use crate::commands::{acic_from_args, goal};
use crate::registry::app_by_name;
use acic::profile::app_point_from;
use acic::verify::verify_top_k;
use acic::{Metrics, Recommendation};

pub fn run(args: &Args) -> Result<(), String> {
    args.reject_unknown(&[
        "app",
        "procs",
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
    let metrics = Metrics::new();
    let app_name = args.get("app").ok_or("--app is required")?;
    let procs: usize = args.parse_or("procs", 64)?;
    let top: usize = args.parse_or("top", 3)?;
    let seed: u64 = args.parse_or("seed", 20131117)?;
    let objective = goal(args)?;
    let model = app_by_name(app_name, procs)?;

    // Without --model, a snapshot fits the kind it embeds and every other
    // source fits CART.
    let requested =
        args.get("model").map(crate::commands::publish::parse_model_flag).transpose()?;
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
        acic.recommend(&point, objective, top)
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
