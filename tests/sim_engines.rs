//! Production core vs oracle, end to end: a faulted training campaign must
//! collect the *same bytes* whether the flow simulator runs the production
//! core or the verbatim oracle loop — and a campaign killed under one core
//! must resume bit-identically under the other.  Fault sampling is
//! rng-driven (independent of simulated times), so core equivalence on
//! makespans is exactly what makes this hold.  A third pass runs every
//! simulation through both cores and compares finish times, served bytes,
//! makespans and event counts bit for bit, on this campaign and on seeded
//! samples of both real campaign shapes.

mod common;

use acic_cloudsim::rng::SplitMix64;
use acic_cloudsim::{oracle, set_engine_override, SimEngine};
use acic_repro::acic::space::SpacePoint;
use acic_repro::acic::training::CollectOptions;
use acic_repro::acic::{RetryPolicy, Trainer};
use acic_repro::fsim::FaultPlan;
use common::db_bytes;
use std::fs;
use std::path::PathBuf;

const SEED: u64 = 20131117;

struct Shape {
    name: &'static str,
    dims: usize,
    points: usize,
    faults: bool,
}

/// The two campaign shapes: the PB-ranked exhaustive grid over the top 12
/// parameters, fault-free (tens of flows per phase), and the full
/// 15-parameter grid under the paper's observed fault rate (a hundred-odd
/// flows per phase, retries).
const SHAPES: [Shape; 2] = [
    Shape { name: "grid12", dims: 12, points: 1024, faults: false },
    Shape { name: "sample15", dims: 15, points: 96, faults: true },
];

/// The shape's trainer and its seeded stratified sample: the grid is cut
/// into equal consecutive blocks and one point is drawn from each.
fn campaign(shape: &Shape) -> (Trainer, Vec<SpacePoint>) {
    let mut trainer = Trainer::with_paper_ranking(SEED);
    if shape.faults {
        trainer = trainer
            .with_faults(FaultPlan::papers_observed_rate())
            .with_retry(RetryPolicy { max_retries: 8, ..RetryPolicy::DEFAULT });
    }
    let all = trainer.sample_points(shape.dims);
    let n = shape.points.min(all.len());
    let mut rng = SplitMix64::new(SEED ^ shape.dims as u64);
    let points = (0..n)
        .map(|k| {
            let (lo, hi) = (k * all.len() / n, (k + 1) * all.len() / n);
            all[lo + rng.below(hi - lo)]
        })
        .collect();
    (trainer, points)
}

fn tmp(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Kill a journal "halfway": keep the 2-line header plus half the entry
/// lines, then append a torn fragment of the next line.
fn truncate_journal_halfway(full: &str) -> String {
    let lines: Vec<&str> = full.lines().collect();
    let header = 2; // version line + campaign line
    let entries = lines.len() - header;
    assert!(entries >= 2, "campaign too small to interrupt");
    let keep = header + entries / 2;
    let mut cut = lines[..keep].join("\n");
    cut.push('\n');
    cut.push_str(&lines[keep][..lines[keep].len() / 2]);
    cut
}

// One test function on purpose: the engine override is process-global, so
// interleaving it across #[test]s in the same binary would race.
#[test]
fn faulted_campaign_is_bit_identical_across_engines_even_through_a_kill() {
    let trainer = Trainer::with_paper_ranking(SEED).with_faults(FaultPlan::papers_observed_rate());
    let points = trainer.sample_points(2);
    assert!(points.len() >= 4, "need a campaign worth interrupting");

    // Straight runs under each core: the serialized database must match
    // byte for byte (faults, retries and all).
    set_engine_override(SimEngine::Oracle);
    let reference = trainer.collect_with(&points, &CollectOptions::default()).unwrap();
    assert!(reference.report.is_complete(), "paper-rate faults must all be retried away");
    set_engine_override(SimEngine::Production);
    let production = trainer.collect_with(&points, &CollectOptions::default()).unwrap();
    assert_eq!(production.db, reference.db, "cores diverged on a faulted campaign");
    assert_eq!(
        db_bytes(&production.db),
        db_bytes(&reference.db),
        "cores produced different database bytes"
    );
    assert_eq!(production.report, reference.report, "cores saw different fault/retry traffic");

    // Every simulation of the campaign through both cores, compared bit
    // for bit, served bytes included.
    let (checked, mismatched) = (oracle::checked_runs(), oracle::mismatched_runs());
    set_engine_override(SimEngine::Checked);
    let both = trainer.collect_with(&points, &CollectOptions::default()).unwrap();
    assert_eq!(db_bytes(&both.db), db_bytes(&reference.db));
    assert!(oracle::checked_runs() > checked, "the campaign ran no simulation");
    assert_eq!(oracle::mismatched_runs(), mismatched, "a simulation diverged from the oracle");

    // Kill-anywhere across cores: journal the campaign under the
    // production core, tear the journal halfway, resume under the oracle.
    // The resumed database must still equal the uninterrupted one.
    let path = tmp("sim-engines-crosscore.journal");
    let _ = fs::remove_file(&path);
    let opts = CollectOptions { journal: Some(&path), ..Default::default() };
    set_engine_override(SimEngine::Production);
    let journaled = trainer.collect_with(&points, &opts).unwrap();
    assert_eq!(journaled.db, reference.db);
    let full_journal = fs::read_to_string(&path).unwrap();

    fs::write(&path, truncate_journal_halfway(&full_journal)).unwrap();
    set_engine_override(SimEngine::Oracle);
    let resumed = trainer.collect_with(&points, &opts).unwrap();
    assert!(resumed.report.resumed > 0, "the truncated journal must contribute points");
    assert!(resumed.report.completed > 0, "the kill must leave work to redo");
    assert_eq!(
        resumed.db, reference.db,
        "resume across cores diverged from the uninterrupted campaign"
    );
    assert_eq!(db_bytes(&resumed.db), db_bytes(&reference.db));

    let _ = fs::remove_file(&path);

    // Both campaign shapes, every simulation compared bit for bit: the
    // three engines must collect the same bytes with no point skipped.
    for shape in &SHAPES {
        let (trainer, points) = campaign(shape);
        let (checked, mismatched) = (oracle::checked_runs(), oracle::mismatched_runs());
        let dbs = [SimEngine::Checked, SimEngine::Production, SimEngine::Oracle].map(|engine| {
            set_engine_override(engine);
            let c = trainer.collect_with(&points, &CollectOptions::default()).unwrap();
            assert!(c.report.is_complete(), "{}: a point was skipped on {engine:?}", shape.name);
            db_bytes(&c.db)
        });
        assert!(oracle::checked_runs() > checked, "{}: no simulation was compared", shape.name);
        assert_eq!(oracle::mismatched_runs(), mismatched, "{}: a run diverged", shape.name);
        assert_eq!(dbs[0], dbs[1], "{}: checked and production databases differ", shape.name);
        assert_eq!(dbs[1], dbs[2], "{}: production and oracle databases differ", shape.name);
    }
    set_engine_override(SimEngine::Production);
}
