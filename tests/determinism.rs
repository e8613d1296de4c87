//! Cross-crate determinism: the entire pipeline is a pure function of its
//! seeds.  Every figure/table binary depends on this to be reproducible.

mod common;

use acic_repro::acic::reducer::reduce;
use acic_repro::acic::sweep::Spectrum;
use acic_repro::acic::{Acic, Objective, Trainer};
use acic_repro::apps::{AppModel, MadBench2};
use acic_repro::cloudsim::instance::InstanceType;

#[test]
fn training_database_text_is_bit_stable() {
    let a = Trainer::with_paper_ranking(99).collect(4).unwrap();
    let b = Trainer::with_paper_ranking(99).collect(4).unwrap();
    assert_eq!(common::db_bytes(&a), common::db_bytes(&b));
}

#[test]
fn screens_are_reproducible() {
    let a = reduce(Objective::Performance, 31).unwrap();
    let b = reduce(Objective::Performance, 31).unwrap();
    assert_eq!(a.ranking, b.ranking);
    assert_eq!(a.screen_cost_usd, b.screen_cost_usd);
}

#[test]
fn spectra_are_reproducible() {
    let w = MadBench2::paper(64).workload();
    let a = Spectrum::measure(&w, InstanceType::Cc2_8xlarge, 5).unwrap();
    let b = Spectrum::measure(&w, InstanceType::Cc2_8xlarge, 5).unwrap();
    assert_eq!(a.entries.len(), b.entries.len());
    for (x, y) in a.entries.iter().zip(&b.entries) {
        assert_eq!(x.secs, y.secs);
        assert_eq!(x.cost, y.cost);
    }
}

#[test]
fn recommendations_are_reproducible() {
    let app = MadBench2::paper(64);
    let a = Acic::with_paper_ranking(5, 7).unwrap();
    let b = Acic::with_paper_ranking(5, 7).unwrap();
    let ra = a.recommend_for(&app, Objective::Performance, 5).unwrap();
    let rb = b.recommend_for(&app, Objective::Performance, 5).unwrap();
    for (x, y) in ra.iter().zip(&rb) {
        assert_eq!(x.config, y.config);
        assert_eq!(x.predicted_improvement, y.predicted_improvement);
    }
}

#[test]
fn different_seeds_change_measurements_but_not_structure() {
    let w = MadBench2::paper(64).workload();
    let a = Spectrum::measure(&w, InstanceType::Cc2_8xlarge, 1).unwrap();
    let b = Spectrum::measure(&w, InstanceType::Cc2_8xlarge, 2).unwrap();
    assert_eq!(a.entries.len(), b.entries.len());
    let moved = a
        .entries
        .iter()
        .zip(&b.entries)
        .filter(|(x, y)| x.secs != y.secs)
        .count();
    assert!(moved > 0, "multi-tenant jitter must vary with the seed");
}
