//! `acic sweep` — exhaustive ground-truth measurement of all candidates.

use crate::args::Args;
use crate::commands::goal;
use crate::registry::app_by_name;
use acic::sweep::Spectrum;
use acic::{Metrics, Objective};
use acic_cloudsim::instance::InstanceType;

pub fn run(args: &Args) -> Result<(), String> {
    args.reject_unknown(&["app", "procs", "goal", "seed", "report"])?;
    let app_name = args.get("app").ok_or("--app is required")?;
    let procs: usize = args.parse_or("procs", 64)?;
    let seed: u64 = args.parse_or("seed", 20131117)?;
    let objective = goal(args)?;
    let model = app_by_name(app_name, procs)?;

    let metrics = Metrics::new();
    let spectrum = {
        let _span = metrics.span("phase.sweep");
        Spectrum::measure(&model.workload(), InstanceType::Cc2_8xlarge, seed)
            .map_err(|e| e.to_string())?
    };
    metrics.incr("sweep.candidates.measured", spectrum.entries.len() as u64);

    println!(
        "exhaustive sweep of {} candidates for {}-{procs} (sorted by {objective}):",
        spectrum.entries.len(),
        model.name()
    );
    let mut rows = spectrum.entries.clone();
    rows.sort_by(|a, b| a.metric(objective).total_cmp(&b.metric(objective)));
    println!("{:<28} {:>10} {:>10}", "configuration", "time", "cost");
    for e in &rows {
        let marker = if e.config == acic::SystemConfig::baseline() { "  <- baseline" } else { "" };
        println!("{:<28} {:>9.1}s {:>9.3}${marker}", e.config.notation(), e.secs, e.cost);
    }
    println!();
    println!(
        "spread: {:.1}x ({}); median {}: {:.3}",
        spectrum.spread(objective),
        match objective {
            Objective::Performance => "worst/best time",
            Objective::Cost => "worst/best cost",
        },
        objective,
        spectrum.median_metric(objective)
    );
    if args.flag("report") {
        eprint!("{}", metrics.render());
    }
    Ok(())
}
