//! Kill→resume acceptance for *adaptive* campaigns: a search killed at
//! any journal byte offset, with any strategy, batch size, and worker
//! count, must resume to a bit-identical plan and database.  The journal
//! replay reconstructs the planner's state exactly — every round sees the
//! same observations, so it proposes the same batches.

use acic::training::CollectOptions;
use acic::{Objective, PublishedSnapshot, Store, Trainer, TrainingDb};
use acic_cart::ModelKind;
use acic_search::{run_search, Budget, SearchConfig, StopReason, Strategy};
use proptest::prelude::*;
use std::fs;
use std::path::PathBuf;

/// Everything a collected database holds, as comparable bytes: the
/// snapshot it renders to (every point's digits, in collection order) and
/// the bits of both collection stats, which a snapshot does not carry.
fn db_bytes(db: &TrainingDb) -> (String, u64, u64) {
    let snapshot = PublishedSnapshot::from_db(db, 0, ModelKind::Cart).render();
    (snapshot, db.collect_secs.to_bits(), db.collect_cost_usd.to_bits())
}

fn tmp(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Kill a journal at `frac` of its entry bytes: keep the 2-line header,
/// then cut the rest at an arbitrary byte offset — everything after the
/// last surviving newline becomes a torn fragment, exactly as a SIGKILL
/// mid-`write` would leave behind.
fn kill_journal_at(full: &str, frac: f64) -> String {
    let header_end = full
        .char_indices()
        .filter(|&(_, c)| c == '\n')
        .nth(1)
        .map(|(i, _)| i + 1)
        .expect("journal must have a 2-line header");
    let body = &full[header_end..];
    let keep = ((body.len() as f64) * frac) as usize;
    format!("{}{}", &full[..header_end], &body[..keep.min(body.len())])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Satellite 3: any strategy, any batch size, any kill point, any
    /// worker count — the resumed plan and database are byte-identical.
    #[test]
    fn killed_search_resumes_bit_identically(
        strategy in prop::sample::select(Strategy::ALL.to_vec()),
        batch in 1usize..=5,
        budget in 6usize..=12,
        frac in 0.05f64..0.95,
        workers in prop::sample::select(vec![1usize, 2, 4]),
    ) {
        let t = Trainer::with_paper_ranking(20130917);
        let points = t.sample_points(3);
        let name = format!(
            "search-resume-{}-{batch}-{budget}-{}-{workers}.journal",
            strategy.name(),
            (frac * 1000.0) as u32
        );
        let path = tmp(&name);
        let _ = fs::remove_file(&path);

        let cfg = SearchConfig {
            journal: Some(&path),
            ..SearchConfig::new(strategy, Budget::measurements(budget).with_batch(batch), Objective::Performance)
        };
        let truth = run_search(&t, &points, &cfg).unwrap();
        let full = fs::read_to_string(&path).unwrap();
        prop_assert!(full.lines().count() > 2, "campaign too small to interrupt");

        // Kill: overwrite the journal with a truncated prefix, then rerun
        // the identical search configuration at the chosen worker count.
        fs::write(&path, kill_journal_at(&full, frac)).unwrap();
        std::env::set_var("RAYON_NUM_THREADS", workers.to_string());
        let resumed = run_search(&t, &points, &cfg);
        std::env::remove_var("RAYON_NUM_THREADS");
        let resumed = resumed.unwrap();

        prop_assert_eq!(&resumed.plan, &truth.plan);
        prop_assert_eq!(resumed.plan.render(), truth.plan.render());
        prop_assert_eq!(db_bytes(&resumed.collection.db), db_bytes(&truth.collection.db));
        prop_assert_eq!(resumed.best_index, truth.best_index);
        let _ = fs::remove_file(&path);
    }
}

#[test]
fn double_kill_double_resume_converges() {
    // Kill early, resume, kill later, resume again: still bit-identical.
    let t = Trainer::with_paper_ranking(7);
    let points = t.sample_points(3);
    let path = tmp("search-double-kill.journal");
    let _ = fs::remove_file(&path);
    let cfg = SearchConfig {
        journal: Some(&path),
        ..SearchConfig::new(
            Strategy::Bandit,
            Budget::measurements(10).with_batch(3),
            Objective::Cost,
        )
    };
    let truth = run_search(&t, &points, &cfg).unwrap();
    let full = fs::read_to_string(&path).unwrap();

    fs::write(&path, kill_journal_at(&full, 0.2)).unwrap();
    let once = run_search(&t, &points, &cfg).unwrap();
    assert_eq!(once.plan, truth.plan, "first resume diverged");

    let regrown = fs::read_to_string(&path).unwrap();
    fs::write(&path, kill_journal_at(&regrown, 0.7)).unwrap();
    let twice = run_search(&t, &points, &cfg).unwrap();
    assert_eq!(twice.plan, truth.plan, "second resume diverged");
    assert_eq!(twice.plan.render(), truth.plan.render());
    assert_eq!(db_bytes(&twice.collection.db), db_bytes(&truth.collection.db));
    let _ = fs::remove_file(&path);
}

#[test]
fn resume_with_store_hits_stays_identical() {
    // Store hits are never journaled — the store itself is the durable
    // record.  A campaign that answered points from the store, killed and
    // resumed against the *same* store, must replay identically, with
    // measurement counts unchanged (hits cost no budget either way).
    let t = Trainer::with_paper_ranking(11);
    let points = t.sample_points(3);

    // Pre-measure the first few grid points into a durable store.
    let subset: Vec<usize> = (0..4.min(points.len())).collect();
    let opts = CollectOptions { subset: Some(&subset), ..Default::default() };
    let pre = t.collect_with(&points, &opts).unwrap();
    let dir = tmp("search-resume-store");
    let _ = fs::remove_dir_all(&dir);
    let mut store = Store::open(&dir).unwrap();
    store.ingest_collection(&t.campaign_id(&points), &pre).unwrap();
    let lookup = store.lookup_index();

    let path = tmp("search-resume-store.journal");
    let _ = fs::remove_file(&path);
    let cfg = SearchConfig {
        journal: Some(&path),
        lookup: Some(&lookup),
        ..SearchConfig::new(
            Strategy::PbRanked,
            Budget::measurements(5).with_batch(4),
            Objective::Performance,
        )
    };
    let truth = run_search(&t, &points, &cfg).unwrap();
    assert!(truth.plan.store_hits() > 0, "the opening book must hit the pre-measured points");
    assert_eq!(truth.plan.stop, StopReason::Budget);

    let full = fs::read_to_string(&path).unwrap();
    fs::write(&path, kill_journal_at(&full, 0.5)).unwrap();
    let resumed = run_search(&t, &points, &cfg).unwrap();
    assert_eq!(resumed.plan, truth.plan);
    assert_eq!(resumed.plan.render(), truth.plan.render());
    assert_eq!(db_bytes(&resumed.collection.db), db_bytes(&truth.collection.db));
    let _ = fs::remove_file(&path);
    let _ = fs::remove_dir_all(&dir);
}
