//! The resilience acceptance suite: a training campaign under the paper's
//! observed fault rate (§5.6 observation 5) must survive being killed and
//! resumed — and the resumed database must be *bit-identical* to an
//! uninterrupted run, at any worker count.

mod common;

use acic_repro::acic::training::CollectOptions;
use acic_repro::acic::{CommitConfig, PublishedSnapshot, RetryPolicy, Store, Trainer};
use acic_repro::cart::ModelKind;
use acic_repro::fsim::FaultPlan;
use common::db_bytes;
use std::fs;
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn paper_trainer(seed: u64) -> Trainer {
    Trainer::with_paper_ranking(seed).with_faults(FaultPlan::papers_observed_rate())
}

/// Kill a journal "halfway": keep the 2-line header plus half the entry
/// lines, then append a torn fragment of the next line (as a SIGKILL
/// mid-`write` would leave behind).
fn truncate_journal_halfway(full: &str) -> String {
    let lines: Vec<&str> = full.lines().collect();
    let header = 2; // version line + campaign line
    let entries = lines.len() - header;
    assert!(entries >= 2, "campaign too small to interrupt");
    let keep = header + entries / 2;
    let mut cut = lines[..keep].join("\n");
    cut.push('\n');
    // Torn final line: half the bytes of the next entry, no newline.
    let next = lines[keep];
    cut.push_str(&next[..next.len() / 2]);
    cut
}

#[test]
fn killed_and_resumed_campaign_is_bit_identical_at_any_worker_count() {
    let trainer = paper_trainer(20131117);
    let points = trainer.sample_points(2);
    assert!(points.len() >= 4, "need a campaign worth interrupting");

    // Ground truth: one uninterrupted, journal-free run.
    let uninterrupted = trainer.collect_with(&points, &CollectOptions::default()).unwrap();
    assert!(uninterrupted.report.is_complete(), "paper-rate faults must all be retried away");
    let truth_bytes = db_bytes(&uninterrupted.db);

    // A full journaled run provides the bytes we "kill" at the halfway point.
    let full_path = tmp("resilience-full.journal");
    let _ = fs::remove_file(&full_path);
    let opts = CollectOptions { journal: Some(&full_path), ..Default::default() };
    let journaled = trainer.collect_with(&points, &opts).unwrap();
    assert_eq!(journaled.db, uninterrupted.db, "journaling must not change the data");
    let full_journal = fs::read_to_string(&full_path).unwrap();

    for workers in [1usize, 2, 8] {
        std::env::set_var("RAYON_NUM_THREADS", workers.to_string());
        let path = tmp(&format!("resilience-resume-{workers}.journal"));
        fs::write(&path, truncate_journal_halfway(&full_journal)).unwrap();

        let opts = CollectOptions { journal: Some(&path), ..Default::default() };
        let resumed = trainer.collect_with(&points, &opts).unwrap();

        assert!(resumed.report.resumed > 0, "the truncated journal must contribute points");
        assert!(resumed.report.completed > 0, "the kill must leave work to redo");
        assert!(resumed.report.is_complete());
        assert_eq!(
            resumed.db, uninterrupted.db,
            "resume at {workers} worker(s) diverged from the uninterrupted campaign"
        );
        assert_eq!(db_bytes(&resumed.db), truth_bytes, "bytes differ at {workers} workers");
        let _ = fs::remove_file(&path);
    }
    std::env::remove_var("RAYON_NUM_THREADS");
    let _ = fs::remove_file(&full_path);
}

#[test]
fn faulted_collection_is_identical_across_worker_counts() {
    // Satellite: scheduling must never leak into the collected bits, even
    // with faults firing and points being retried.
    let trainer = paper_trainer(424242);
    let points = trainer.sample_points(2);

    std::env::set_var("RAYON_NUM_THREADS", "1");
    let serial = trainer.collect_with(&points, &CollectOptions::default()).unwrap();
    for workers in [2usize, 4, 8] {
        std::env::set_var("RAYON_NUM_THREADS", workers.to_string());
        let parallel = trainer.collect_with(&points, &CollectOptions::default()).unwrap();
        assert_eq!(parallel.db, serial.db, "worker count {workers} changed the database");
        assert_eq!(parallel.report, serial.report, "worker count {workers} changed the report");
    }
    std::env::remove_var("RAYON_NUM_THREADS");
}

#[test]
fn resume_of_a_different_campaign_is_refused() {
    let trainer = paper_trainer(7);
    let points = trainer.sample_points(1);
    let path = tmp("resilience-wrong-campaign.journal");
    let _ = fs::remove_file(&path);
    let opts = CollectOptions { journal: Some(&path), ..Default::default() };
    trainer.collect_with(&points, &opts).unwrap();

    // Same journal, different campaign (another seed): must be rejected,
    // not silently blended.
    let other = paper_trainer(8);
    let err = other.collect_with(&other.sample_points(1), &opts).unwrap_err();
    assert!(err.to_string().contains("journal"), "unexpected error: {err}");
    let _ = fs::remove_file(&path);
}

#[test]
fn skips_are_journaled_and_survive_resume() {
    // A plan whose faults always corrupt: every point exhausts its retries
    // and is recorded as skipped — and a resumed campaign restores those
    // skips instead of retrying them forever.
    let plan = FaultPlan { phase_fail_prob: 1.0, retry_penalty_secs: 35.0, abort_prob: 1.0 };
    let trainer = Trainer::with_paper_ranking(3)
        .with_faults(plan)
        .with_retry(RetryPolicy { max_retries: 1, ..RetryPolicy::DEFAULT });
    let points = trainer.sample_points(1);

    let path = tmp("resilience-skips.journal");
    let _ = fs::remove_file(&path);
    let opts = CollectOptions { journal: Some(&path), ..Default::default() };
    let first = trainer.collect_with(&points, &opts).unwrap();
    assert_eq!(first.report.skipped.len(), points.len());

    let resumed = trainer.collect_with(&points, &opts).unwrap();
    assert_eq!(resumed.report.resumed, points.len());
    assert_eq!(resumed.report.completed, 0, "nothing should re-run");
    assert_eq!(resumed.report.skipped.len(), points.len(), "skips must be restored");
    assert_eq!(resumed.db, first.db);
    let _ = fs::remove_file(&path);
}

/// Every byte a journaled campaign leaves behind when it is collected and
/// ingested into a fresh store at `commit`, then compacted and published
/// as `acic publish` does, by artifact; plus its group-commit count.
fn durable_bytes(
    trainer: &Trainer,
    dims: usize,
    name: &str,
    commit: CommitConfig,
) -> ([(&'static str, Vec<u8>); 5], usize) {
    let (journal, dir) = (tmp(&format!("{name}.journal")), tmp(&format!("{name}-store")));
    let _ = fs::remove_file(&journal);
    let _ = fs::remove_dir_all(&dir);
    let points = trainer.sample_points(dims);
    let opts = CollectOptions { journal: Some(&journal), commit, ..Default::default() };
    let collection = trainer.collect_with(&points, &opts).unwrap();
    assert!(collection.report.is_complete(), "{name}: a point was skipped");
    let mut store = Store::open(&dir).unwrap();
    store.ingest_collection_with(&trainer.campaign_id(&points), &collection, commit).unwrap();
    let wal = fs::read(dir.join("wal.log")).unwrap();
    let hash = store.compact().unwrap().hash;
    let snapshot =
        PublishedSnapshot { hash, seed: 7, model: ModelKind::Cart, samples: store.canonical() };
    let bytes = [
        ("journal", fs::read(&journal).unwrap()),
        ("database", format!("{:?}", db_bytes(&collection.db)).into_bytes()),
        ("WAL", wal),
        ("MANIFEST", fs::read(dir.join("MANIFEST")).unwrap()),
        ("published snapshot", snapshot.render().into_bytes()),
    ];
    let _ = fs::remove_file(&journal);
    let _ = fs::remove_dir_all(&dir);
    (bytes, collection.report.group_commits)
}

#[test]
fn per_point_and_group_commits_leave_identical_bytes() {
    // The writer plane only amortizes durability: one durable commit per
    // line and the default group width must write the same bytes.
    for (trainer, dims, name, commits) in [
        (paper_trainer(7), 4, "commit-faulted", None),
        (Trainer::with_paper_ranking(7), 5, "commit-grid5", Some((96, 3))),
    ] {
        let (per_point, per_point_commits) =
            durable_bytes(&trainer, dims, &format!("{name}-1"), CommitConfig::per_point());
        let (grouped, group_commits) =
            durable_bytes(&trainer, dims, &format!("{name}-32"), CommitConfig::default());
        for ((kind, a), (_, b)) in per_point.iter().zip(&grouped) {
            assert!(a == b, "{name}: the commit width changed the {kind} bytes");
        }
        if let Some(want) = commits {
            assert_eq!((per_point_commits, group_commits), want, "{name}: group commits");
        }
    }
}
