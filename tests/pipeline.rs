//! End-to-end integration of the whole ACIC pipeline (paper Figure 2):
//! screen → train → profile → query → verify against exhaustive truth.

use acic_repro::acic::sweep::Spectrum;
use acic_repro::acic::{Acic, Objective};
use acic_repro::apps::{AppModel, Btio, MadBench2, MpiBlast};
use acic_repro::cloudsim::instance::InstanceType;

/// A modest-but-real ACIC instance shared by the tests in this file
/// (top-10 training: the device dimension, rank 10, is needed for the
/// model to discover ephemeral disks at all).
fn acic() -> Acic {
    Acic::with_paper_ranking(10, 1234).expect("bootstrap failed")
}

#[test]
fn figure2_flow_profile_query_recommend() {
    let acic = acic();
    assert!(acic.db.len() > 100, "training grid should be substantial");
    assert!(acic.db.collect_cost_usd > 0.0);

    let app = MadBench2::paper(64);
    let recs = acic.recommend_for(&app, Objective::Performance, 5).unwrap();
    assert_eq!(recs.len(), 5);
    // Every recommended configuration is deployable at this scale.
    for r in &recs {
        assert!(r.config.valid_for(app.nprocs()));
    }
    // Ranked descending by predicted improvement.
    for w in recs.windows(2) {
        assert!(w[0].predicted_improvement >= w[1].predicted_improvement);
    }
}

#[test]
fn recommendation_beats_median_for_io_heavy_apps() {
    let acic = acic();
    for (label, workload, model) in [
        ("MADbench2-64", MadBench2::paper(64).workload(), &MadBench2::paper(64) as &dyn AppModel),
        ("mpiBLAST-64", MpiBlast::paper(64).workload(), &MpiBlast::paper(64) as &dyn AppModel),
    ] {
        let spectrum = Spectrum::measure(&workload, InstanceType::Cc2_8xlarge, 5).unwrap();
        let top = acic.recommend_for(model, Objective::Performance, 1).unwrap()[0].config;
        let picked = spectrum.find(&top).expect("pick must be in the candidate set").secs;
        let median = spectrum.median_metric(Objective::Performance);
        assert!(
            picked <= median,
            "{label}: ACIC pick {picked}s should beat the median {median}s"
        );
    }
}

#[test]
fn cost_and_performance_goals_can_disagree() {
    // "in many cases the best configuration for performance does not agree
    // with that for cost optimization" (§5.2).  Dedicated placements buy
    // time with extra instances, so at least the predicted improvements
    // must differ between objectives for a collective writer.
    let acic = acic();
    let app = Btio::class_c(256);
    let perf = acic.recommend_for(&app, Objective::Performance, 28).unwrap();
    let cost = acic.recommend_for(&app, Objective::Cost, 28).unwrap();
    let differs = perf
        .iter()
        .zip(&cost)
        .any(|(p, c)| p.config != c.config || (p.predicted_improvement - c.predicted_improvement).abs() > 1e-12);
    assert!(differs, "objectives should yield different rankings or scores");
}

#[test]
fn incremental_contribution_changes_the_model_but_not_validity() {
    use acic_repro::acic::space::SpacePoint;
    use acic_repro::cloudsim::units::mib;

    let mut acic = Acic::with_paper_ranking(4, 77).unwrap();
    let before_len = acic.db.len();

    let mut p = SpacePoint::default_point();
    p.app.data_size = mib(256.0);
    p.system.fs = acic_repro::fsim::FsType::Pvfs2;
    p.system.io_servers = 4;
    p.system.stripe_size = mib(4.0);
    acic.contribute(&[p.normalized()]).unwrap();
    assert_eq!(acic.db.len(), before_len + 1);

    let app = MadBench2::paper(64);
    let recs = acic.recommend_for(&app, Objective::Cost, 3).unwrap();
    assert_eq!(recs.len(), 3);
}

#[test]
fn database_round_trips_through_the_shared_text_format() {
    use acic_repro::acic::PublishedSnapshot;
    use acic_repro::cart::ModelKind;
    let acic = Acic::with_paper_ranking(5, 3).unwrap();
    // The shared file is a snapshot: share it, then refit from its points.
    let text = PublishedSnapshot::from_db(&acic.db, 3, ModelKind::Cart).render();
    let back = PublishedSnapshot::parse(&text).unwrap().to_training_db();
    assert_eq!(back.points, acic.db.points);
    // A model trained on the decoded database must predict identically.
    let refit = Acic::from_db(back, 3).unwrap();
    let app = MpiBlast::paper(64);
    let a = acic.recommend_for(&app, Objective::Performance, 1).unwrap()[0];
    let b = refit.recommend_for(&app, Objective::Performance, 1).unwrap()[0];
    assert_eq!(a.config, b.config);
}
