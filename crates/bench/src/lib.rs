//! # acic-bench — the experiment harness
//!
//! One binary per table/figure of the paper's evaluation (see DESIGN.md §4
//! for the index), plus Criterion micro-benchmarks of the core components.
//! This library holds the pieces the binaries share: the registry of the
//! nine evaluated application runs, and small table-printing helpers.

pub mod stats;

use acic::sweep::Spectrum;
use acic::AcicError;
use acic_apps::{AppModel, Btio, FlashIo, MadBench2, MpiBlast};
use acic_cloudsim::instance::InstanceType;

/// Root seed for all experiment binaries (determinism across runs).
pub const EXPERIMENT_SEED: u64 = 20131117; // SC '13 started Nov 17, 2013.

/// Number of top-ranked parameters used for the headline training database
/// (the paper uses 10 — §5.3; our simulated cloud needs the 11th, Collective,
/// to capture BTIO's collective-on-NFS behaviour — see EXPERIMENTS.md).
pub const HEADLINE_DIMS: usize = 11;

/// One of the nine evaluated application runs (Figures 5 and 6).
pub struct AppRun {
    /// The application model.
    pub model: Box<dyn AppModel + Send + Sync>,
    /// Display label, e.g. `BTIO-64`.
    pub label: String,
}

/// The nine app×scale runs of the evaluation, in figure order.
pub fn evaluation_runs() -> Vec<AppRun> {
    fn run(model: impl AppModel + Send + Sync + 'static, scale: usize) -> AppRun {
        let label = format!("{}-{}", model.name(), scale);
        AppRun { model: Box::new(model), label }
    }
    vec![
        run(Btio::class_c(64), 64),
        run(Btio::class_c(256), 256),
        run(FlashIo::paper(64), 64),
        run(FlashIo::paper(256), 256),
        run(MpiBlast::paper(32), 32),
        run(MpiBlast::paper(64), 64),
        run(MpiBlast::paper(128), 128),
        run(MadBench2::paper(64), 64),
        run(MadBench2::paper(256), 256),
    ]
}

/// Measure the full candidate spectrum for one run.
pub fn spectrum_for(run: &AppRun, seed: u64) -> Result<Spectrum, AcicError> {
    Spectrum::measure(&run.model.workload(), InstanceType::Cc2_8xlarge, seed)
}

/// Measured metric of ACIC's pick, honoring the co-champion rule: "When
/// the CART model gives several configurations as co-champions, we report
/// the median results using these configurations" (§5.3).
pub fn acic_pick_metric(
    spectrum: &Spectrum,
    ranked: &[(acic::SystemConfig, f64)],
    objective: acic::Objective,
) -> (acic::SystemConfig, f64) {
    assert!(!ranked.is_empty(), "predictor returned no candidates");
    let top = ranked[0].1;
    let mut champions: Vec<(acic::SystemConfig, f64)> = ranked
        .iter()
        .take_while(|(_, imp)| (imp - top).abs() < 1e-9)
        .filter_map(|(c, _)| spectrum.find(c).map(|e| (*c, e.metric(objective))))
        .collect();
    champions.sort_by(|a, b| a.1.total_cmp(&b.1));
    champions[champions.len() / 2]
}

/// Best measured metric among the top-k recommended configurations
/// (Figure 7's "examine the top-k list" verification).
pub fn best_of_top_k(
    spectrum: &Spectrum,
    ranked: &[(acic::SystemConfig, f64)],
    objective: acic::Objective,
    k: usize,
) -> f64 {
    ranked
        .iter()
        .take(k.max(1))
        .filter_map(|(c, _)| spectrum.find(c).map(|e| e.metric(objective)))
        .fold(f64::INFINITY, f64::min)
}

/// Convert a user-study expert choice into a system configuration.
pub fn expert_to_config(choice: &acic_apps::ExpertChoice) -> acic::SystemConfig {
    acic::SystemConfig {
        device: choice.device,
        fs: choice.fs,
        instance_type: InstanceType::Cc2_8xlarge,
        io_servers: choice.io_servers,
        placement: choice.placement,
        stripe_size: choice.stripe_size,
    }
    .normalized()
}

/// Bootstrap the headline ACIC instance used by Figures 5–7: the paper's
/// Table 1 ranking with the top 10 parameters trained.
pub fn headline_acic() -> acic::Acic {
    acic::Acic::with_paper_ranking(HEADLINE_DIMS, EXPERIMENT_SEED).expect("bootstrap failed")
}

/// Everything Figures 5/6 print for one application run.
pub struct RunEvaluation {
    /// Display label.
    pub label: String,
    /// ACIC's pick (co-champion median) and its measured metric.
    pub acic_config: acic::SystemConfig,
    /// Measured metric of the ACIC pick.
    pub acic_metric: f64,
    /// Median candidate metric (the "M" line).
    pub median_metric: f64,
    /// Baseline configuration metric (the "B" line).
    pub baseline_metric: f64,
    /// Measured optimum.
    pub best_metric: f64,
    /// Measured worst candidate.
    pub worst_metric: f64,
}

/// Sweep one run and place ACIC's recommendation inside the spectrum.
pub fn evaluate_run(
    acic: &acic::Acic,
    run: &AppRun,
    objective: acic::Objective,
) -> Result<RunEvaluation, AcicError> {
    let spectrum = spectrum_for(run, EXPERIMENT_SEED)?;
    let recs = acic.recommend_for(run.model.as_ref(), objective, usize::MAX)?;
    let ranked: Vec<(acic::SystemConfig, f64)> =
        recs.iter().map(|r| (r.config, r.predicted_improvement)).collect();
    let (acic_config, acic_metric) = acic_pick_metric(&spectrum, &ranked, objective);
    Ok(RunEvaluation {
        label: run.label.clone(),
        acic_config,
        acic_metric,
        median_metric: spectrum.median_metric(objective),
        baseline_metric: spectrum.baseline().expect("baseline deploys").metric(objective),
        best_metric: spectrum.best(objective).metric(objective),
        worst_metric: spectrum.worst_metric(objective),
    })
}

/// Print a rule line matching the width of a header.
pub fn rule(width: usize) -> String {
    "-".repeat(width)
}

/// Format a seconds value compactly.
pub fn fsecs(s: f64) -> String {
    format!("{s:8.1}s")
}

/// Format a dollar value compactly.
pub fn fusd(c: f64) -> String {
    format!("${c:7.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nine_evaluation_runs_in_figure_order() {
        let runs = evaluation_runs();
        assert_eq!(runs.len(), 9);
        assert_eq!(runs[0].label, "BTIO-64");
        assert_eq!(runs[4].label, "mpiBLAST-32");
        assert_eq!(runs[8].label, "MADbench2-256");
    }

    #[test]
    fn formatting_helpers() {
        assert!(fsecs(12.34).contains("12.3s"));
        assert!(fusd(1.5).contains("$"));
        assert_eq!(rule(3), "---");
    }
}
