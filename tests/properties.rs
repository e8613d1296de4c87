//! Property-based tests spanning the whole stack: any valid point of the
//! exploration space must execute cleanly on any deployable candidate
//! configuration, with sane, finite outputs.

mod common;

use acic_repro::acic::space::{AppPoint, SpacePoint, SystemConfig};
use acic_repro::acic::training::CollectOptions;
use acic_repro::acic::{CommitConfig, PublishedSnapshot, Trainer, TrainingDb, TrainingPoint};
use acic_repro::cart::ModelKind;
use acic_repro::cloudsim::instance::InstanceType;
use acic_repro::cloudsim::units::{kib, mib};
use acic_repro::fsim::{FaultPlan, IoApi, IoOp};
use acic_repro::iobench::run_ior;
use common::db_bytes;
use proptest::prelude::*;

fn app_strategy() -> impl Strategy<Value = AppPoint> {
    (
        prop::sample::select(vec![32usize, 64, 128, 256]),
        prop::sample::select(vec![8usize, 32, 64, 256]),
        prop::sample::select(vec![IoApi::Posix, IoApi::MpiIo, IoApi::Hdf5]),
        prop::sample::select(vec![1usize, 3, 10]),
        prop::sample::select(vec![mib(1.0), mib(16.0), mib(128.0)]),
        prop::sample::select(vec![kib(256.0), mib(4.0), mib(16.0)]),
        prop::bool::ANY,
        prop::bool::ANY,
        prop::bool::ANY,
    )
        .prop_map(
            |(nprocs, io_procs, api, iterations, data, request, write, collective, shared)| {
                AppPoint {
                    nprocs,
                    io_procs,
                    api,
                    iterations,
                    data_size: data,
                    request_size: request,
                    op: if write { IoOp::Write } else { IoOp::Read },
                    collective,
                    shared_file: shared,
                }
                .normalized()
            },
        )
}

fn config_strategy() -> impl Strategy<Value = SystemConfig> {
    let candidates = SystemConfig::candidates(InstanceType::Cc2_8xlarge);
    prop::sample::select(candidates)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any (valid app, deployable config) pair runs without error and
    /// yields positive, finite time/cost/bandwidth.
    #[test]
    fn any_valid_point_executes(app in app_strategy(), config in config_strategy(), seed in 0u64..1000) {
        prop_assume!(config.valid_for(app.nprocs));
        let report = run_ior(&config.to_io_system(app.nprocs), &app.to_ior(), seed).unwrap();
        prop_assert!(report.secs() > 0.0 && report.secs().is_finite());
        prop_assert!(report.cost > 0.0 && report.cost.is_finite());
        prop_assert!(report.bandwidth_bps >= 0.0);
        prop_assert!(report.instances >= 1);
    }

    /// Normalization is idempotent and always yields a valid point.
    #[test]
    fn normalization_is_idempotent(app in app_strategy(), config in config_strategy()) {
        let p = SpacePoint { system: config, app }.normalized();
        prop_assert_eq!(p.normalized(), p);
        prop_assert!(p.app.to_ior().validate().is_ok());
    }

    /// More data through the same configuration never takes less time.
    #[test]
    fn time_is_monotone_in_data_volume(config in config_strategy(), seed in 0u64..100) {
        let mut small = SpacePoint::default_point().app;
        small.data_size = mib(4.0);
        let mut large = small;
        large.data_size = mib(64.0);
        prop_assume!(config.valid_for(small.nprocs));
        let t_small = run_ior(&config.to_io_system(small.nprocs), &small.to_ior(), seed)
            .unwrap()
            .secs();
        let t_large = run_ior(&config.to_io_system(large.nprocs), &large.to_ior(), seed)
            .unwrap()
            .secs();
        prop_assert!(t_large >= t_small * 0.99,
            "16x the data should not be faster: {t_small} -> {t_large}");
    }

    /// Cost equals time × instances × hourly price (eq. (1)) for every run.
    #[test]
    fn cost_follows_equation_1(app in app_strategy(), config in config_strategy(), seed in 0u64..100) {
        prop_assume!(config.valid_for(app.nprocs));
        let sys = config.to_io_system(app.nprocs);
        let report = run_ior(&sys, &app.to_ior(), seed).unwrap();
        let hourly = sys.cluster.instance_type.hourly_price();
        let expected = report.secs() / 3600.0 * report.instances as f64 * hourly;
        prop_assert!((report.cost - expected).abs() < 1e-9 * expected.max(1.0));
    }

    /// A database shared as a snapshot (`from_db`, `render`, `parse`,
    /// `to_training_db`) comes back point for point, in order, down to the
    /// last bit of every f64 (Rust's `{}` float formatting is
    /// shortest-round-trip), which is what the checkpoint journal relies on.
    #[test]
    fn snapshot_codec_round_trips_exactly(
        rows in prop::collection::vec(
            (app_strategy(), config_strategy(), 1u64..u64::MAX, 1u64..u64::MAX),
            0..20,
        ),
        seed in 0u64..u64::MAX,
    ) {
        // Map raw u64 bit patterns onto awkward finite positive floats so
        // the codec sees values with long decimal expansions.
        let awkward = |bits: u64| (bits as f64) / 1.9e17 + 1e-12;
        let db = TrainingDb {
            points: rows
                .into_iter()
                .map(|(app, system, p, c)| TrainingPoint {
                    system,
                    app,
                    perf_improvement: awkward(p),
                    cost_improvement: awkward(c),
                })
                .collect(),
            ..Default::default()
        };
        let snap = PublishedSnapshot::from_db(&db, seed, ModelKind::Cart);
        let back = PublishedSnapshot::parse(&snap.render()).unwrap();
        prop_assert_eq!(&back, &snap);
        prop_assert_eq!(back.to_training_db(), db);
    }
}

proptest! {
    // Each case runs a faulted campaign three times; keep the count small.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Killing a journaled campaign at *any* byte offset past the header
    /// and resuming reproduces the uninterrupted database bit-for-bit.
    #[test]
    fn journal_replay_after_any_kill_point_is_bit_identical(
        seed in 1u64..1000,
        kill_fraction in 1u64..100,
    ) {
        let trainer = Trainer::with_paper_ranking(seed)
            .with_faults(FaultPlan::papers_observed_rate());
        let points = trainer.sample_points(1);

        let truth = trainer.collect_with(&points, &CollectOptions::default()).unwrap();

        let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
        std::fs::create_dir_all(&dir).unwrap();
        let full_path = dir.join(format!("prop-journal-{seed}-full.journal"));
        let _ = std::fs::remove_file(&full_path);
        let opts = CollectOptions { journal: Some(&full_path), ..Default::default() };
        trainer.collect_with(&points, &opts).unwrap();
        let full = std::fs::read_to_string(&full_path).unwrap();
        let _ = std::fs::remove_file(&full_path);

        // Kill anywhere strictly inside the entry region: the header must
        // survive (a journal that lost its header is a fresh campaign).
        let header_len = full.lines().take(2).map(|l| l.len() + 1).sum::<usize>();
        let cut = header_len
            + ((full.len() - header_len) as u64 * kill_fraction / 100) as usize;
        let killed_path = dir.join(format!("prop-journal-{seed}-{kill_fraction}.journal"));
        std::fs::write(&killed_path, &full[..cut]).unwrap();

        let opts = CollectOptions { journal: Some(&killed_path), ..Default::default() };
        let resumed = trainer.collect_with(&points, &opts).unwrap();
        let _ = std::fs::remove_file(&killed_path);

        prop_assert!(resumed.report.is_complete());
        prop_assert_eq!(&resumed.db, &truth.db);
        prop_assert_eq!(db_bytes(&resumed.db), db_bytes(&truth.db));
    }

    /// Append-after-truncate: a journal torn mid-record, resumed (which
    /// truncates the torn tail and appends past it), then killed *again*
    /// and resumed once more still converges to the uninterrupted
    /// database — no record is silently duplicated or dropped by writing
    /// over a previously torn region.
    #[test]
    fn journal_survives_kill_resume_kill_resume(
        seed in 1u64..1000,
        first_kill in 1u64..100,
        second_kill in 1u64..100,
    ) {
        let trainer = Trainer::with_paper_ranking(seed)
            .with_faults(FaultPlan::papers_observed_rate());
        let points = trainer.sample_points(1);

        let truth = trainer.collect_with(&points, &CollectOptions::default()).unwrap();

        let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("prop-journal2-{seed}-{first_kill}-{second_kill}.journal"));
        let _ = std::fs::remove_file(&path);
        let opts = CollectOptions { journal: Some(&path), ..Default::default() };
        trainer.collect_with(&points, &opts).unwrap();
        let full = std::fs::read_to_string(&path).unwrap();
        let header_len = full.lines().take(2).map(|l| l.len() + 1).sum::<usize>();
        let body = full.len() - header_len;

        // First kill + resume: the resume truncates the torn tail and
        // appends fresh records starting at the truncation point.
        let cut = header_len + (body as u64 * first_kill / 100) as usize;
        std::fs::write(&path, &full[..cut]).unwrap();
        let opts = CollectOptions { journal: Some(&path), ..Default::default() };
        trainer.collect_with(&points, &opts).unwrap();

        // Second kill, possibly tearing a record written by the resume.
        let after_resume = std::fs::read_to_string(&path).unwrap();
        prop_assert_eq!(&after_resume, &full, "resumed journal must be byte-identical");
        let cut = header_len + (body as u64 * second_kill / 100) as usize;
        std::fs::write(&path, &full[..cut]).unwrap();
        let opts = CollectOptions { journal: Some(&path), ..Default::default() };
        let resumed = trainer.collect_with(&points, &opts).unwrap();
        let _ = std::fs::remove_file(&path);

        prop_assert!(resumed.report.is_complete());
        prop_assert_eq!(&resumed.db, &truth.db);
        prop_assert_eq!(db_bytes(&resumed.db), db_bytes(&truth.db));
    }

    /// Group commits never weaken crash semantics: a journal written
    /// with *any* commit batch, killed at *any* byte offset — including
    /// mid-way through a coalesced multi-line flush — and resumed with
    /// any *other* batch at any worker count still reproduces the clean
    /// campaign's journal bytes and database bit-for-bit.
    #[test]
    fn kill_inside_a_group_commit_resumes_bit_identical(
        seed in 1u64..1000,
        kill_fraction in 1u64..100,
        batch in 1usize..6,
        resume_batch in 1usize..6,
        workers in 1usize..5,
    ) {
        let trainer = Trainer::with_paper_ranking(seed)
            .with_faults(FaultPlan::papers_observed_rate());
        let points = trainer.sample_points(1);
        let truth = trainer.collect_with(&points, &CollectOptions::default()).unwrap();

        let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!(
            "prop-group-{seed}-{kill_fraction}-{batch}-{resume_batch}-{workers}.journal"
        ));
        let _ = std::fs::remove_file(&path);
        let commit = CommitConfig { batch, sync: false };
        let opts = CollectOptions { journal: Some(&path), commit, ..Default::default() };
        trainer.collect_with(&points, &opts).unwrap();
        let full = std::fs::read_to_string(&path).unwrap();

        // Kill anywhere strictly past the 2-line header: with batch > 1
        // the cut routinely lands *inside* a group commit's byte range.
        let header_len = full.lines().take(2).map(|l| l.len() + 1).sum::<usize>();
        let cut = header_len
            + ((full.len() - header_len) as u64 * kill_fraction / 100) as usize;
        std::fs::write(&path, &full[..cut]).unwrap();

        let commit = CommitConfig { batch: resume_batch, sync: false };
        let opts = CollectOptions { journal: Some(&path), commit, ..Default::default() };
        std::env::set_var("RAYON_NUM_THREADS", workers.to_string());
        let resumed = trainer.collect_with(&points, &opts);
        std::env::remove_var("RAYON_NUM_THREADS");
        let resumed = resumed.unwrap();
        let rebuilt = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);

        prop_assert_eq!(&rebuilt, &full, "resumed journal must be byte-identical");
        prop_assert!(resumed.report.is_complete());
        prop_assert_eq!(&resumed.db, &truth.db);
        prop_assert_eq!(db_bytes(&resumed.db), db_bytes(&truth.db));
    }
}
