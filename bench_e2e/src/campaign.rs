//! The training half of the lifecycle: a durable campaign (journal and
//! store at the default commit batch, real `sync_data`), then the store's
//! half of publishing (compact, snapshot write and read-back) and a direct
//! CART fit of the same data.  Every set-up and every round of a workload
//! runs it once.

use crate::harness::{median, quantile, SpanId, Tracer};
use crate::Report;
use acic::space::SpacePoint;
use acic::sweep::Spectrum;
use acic::training::CollectOptions;
use acic::{
    AppPoint, CollectionReport, CommitConfig, Metrics, Objective, Predictor, PublishedSnapshot,
    RetryPolicy, Store, SystemConfig, Trainer,
};
use acic_cart::ModelKind;
use acic_cloudsim::instance::InstanceType;
use acic_cloudsim::rng::SplitMix64;
use acic_serve::Request;
use std::fs;
use std::path::Path;
use std::time::Instant;

/// A planned campaign: who collects, and which points.
pub struct Plan {
    trainer: Trainer,
    points: Vec<SpacePoint>,
}

impl Plan {
    /// The paper's PB-ranked exhaustive grid over the top `dims` parameters.
    pub fn grid(seed: u64, dims: usize) -> Self {
        let trainer = Trainer::with_paper_ranking(seed);
        let points = trainer.sample_points(dims);
        Self { trainer, points }
    }

    /// A seeded sample of `n` points of the grid over the top `dims`
    /// parameters, collected under the paper's observed fault rate.
    ///
    /// Every point is equally likely: the grid is cut into `n` equal
    /// consecutive blocks and one point is drawn uniformly from each.  The
    /// grid enumerates the costliest parameters (iteration and process
    /// counts) slowest, so the blocks stratify on per-point cost, which
    /// spans five orders of magnitude: measured over 8 seeds, a plain
    /// uniform 2,000-point sample varies 9.6% (CV) in total simulation
    /// work, the blocked one 3.3%.
    ///
    /// The default three retries occasionally give up on a long run (about
    /// one point in 12,000); eight make every sampled campaign complete.
    pub fn scale(seed: u64, dims: usize, n: usize) -> Self {
        let trainer = Trainer::with_paper_ranking(seed)
            .with_faults(acic_fsim::FaultPlan::papers_observed_rate())
            .with_retry(RetryPolicy { max_retries: 8, ..RetryPolicy::DEFAULT });
        let all = trainer.sample_points(dims);
        let n = n.min(all.len());
        let mut rng = SplitMix64::new(seed ^ 0x7363_616c_655f_7631); // "scale_v1"
        let points = (0..n)
            .map(|k| {
                let (lo, hi) = (k * all.len() / n, (k + 1) * all.len() / n);
                all[lo + rng.below(hi - lo)]
            })
            .collect();
        Self { trainer, points }
    }
}

/// Wall times and artifacts of one train → publish lifecycle.
pub struct Rep {
    collect_s: f64,
    ingest_s: f64,
    compact_s: f64,
    snapshot_s: f64,
    fit_s: f64,
    report: CollectionReport,
    wal_batches: usize,
    /// The program's own counters for this campaign.
    counters: Metrics,
    pub snapshot: PublishedSnapshot,
    pub predictor: Predictor,
}

impl Rep {
    /// Points planned.
    pub fn points(&self) -> usize {
        self.report.planned
    }

    /// Wall time of collection plus ingest.
    pub fn train_s(&self) -> f64 {
        self.collect_s + self.ingest_s
    }

    /// The store's half of publishing: compaction, and the snapshot
    /// write, read-back, and verify.
    pub fn store_publish_s(&self) -> f64 {
        self.compact_s + self.snapshot_s
    }

    /// Count the rep's planned points as attempted, skipped ones as failed.
    pub fn tally(&self, out: &mut Report) {
        out.attempted += self.report.planned as u64;
        out.failed += self.report.skipped.len() as u64;
    }
}

fn err(what: &str) -> impl Fn(acic::AcicError) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Run `f` inside a span named `name`; returns its value and wall seconds.
fn timed<T>(
    tracer: &Tracer,
    parent: Option<SpanId>,
    name: &'static str,
    layer: &'static str,
    f: impl FnOnce() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let t = Instant::now();
    let value = tracer.span(name, layer, parent, |_| f())?;
    Ok((value, t.elapsed().as_secs_f64()))
}

/// Run one lifecycle in a fresh `dir`, recording spans under `parent` and
/// correctness checks into `out`.
pub fn lifecycle(
    plan: &Plan,
    dir: &Path,
    tracer: &Tracer,
    parent: Option<SpanId>,
    out: &mut Report,
) -> Result<Rep, String> {
    let _ = fs::remove_dir_all(dir);
    fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let (trainer, points) = (&plan.trainer, &plan.points);
    let commit = CommitConfig::default();
    let counters = Metrics::new();
    let journal = dir.join("journal.log");
    let snapshot_path = dir.join("snapshot.txt");
    let opts = CollectOptions {
        journal: Some(&journal),
        metrics: Some(&counters),
        commit,
        ..Default::default()
    };

    let (mut store, _) = timed(tracer, parent, "store_open", "store", || {
        Store::open(&dir.join("store")).map_err(err("open store"))
    })?;
    let (collection, collect_s) = timed(tracer, parent, "collect", "training", || {
        trainer.collect_with(points, &opts).map_err(err("collect"))
    })?;
    let (ingest, ingest_s) = timed(tracer, parent, "ingest", "store", || {
        let id = trainer.campaign_id(points);
        store.ingest_collection_with(&id, &collection, commit).map_err(err("ingest"))
    })?;
    let report = collection.report;
    out.check(report.skipped.is_empty() && report.is_complete(), || {
        format!("campaign skipped {} of {} points", report.skipped.len(), report.planned)
    });
    out.check(store.len() == points.len(), || {
        format!("store holds {} samples for {} planned points", store.len(), points.len())
    });

    let (compacted, compact_s) =
        timed(tracer, parent, "compact", "store", || store.compact().map_err(err("compact")))?;
    out.check(compacted.samples == points.len(), || {
        format!("compaction kept {} of {} samples", compacted.samples, points.len())
    });
    let ((db, snapshot), snapshot_s) = timed(tracer, parent, "snapshot", "store", || {
        let db = store.to_training_db();
        let snapshot = PublishedSnapshot::from_db(&db, trainer.seed, ModelKind::Cart);
        snapshot.write(&snapshot_path).map_err(err("write snapshot"))?;
        let back = PublishedSnapshot::read(&snapshot_path).map_err(err("read snapshot"))?;
        back.verify(&snapshot_path.display().to_string()).map_err(err("verify snapshot"))?;
        out.check(back == snapshot, || "snapshot read back differs from the one written".into());
        Ok((db, snapshot))
    })?;
    let (predictor, fit_s) = timed(tracer, parent, "fit", "cart", || {
        Predictor::train_with(&db, trainer.seed, ModelKind::Cart).map_err(err("fit"))
    })?;
    Ok(Rep {
        collect_s,
        ingest_s,
        compact_s,
        snapshot_s,
        fit_s,
        report,
        wal_batches: ingest.batches,
        counters,
        snapshot,
        predictor,
    })
}

/// The nine evaluated paper runs with their measured candidate spectra:
/// the reference ACIC's pick is scored against.
pub struct PaperRuns(Vec<(AppPoint, Spectrum)>);

impl PaperRuns {
    /// Profile and sweep the nine runs (deterministic; not timed).
    pub fn measure() -> Result<Self, String> {
        acic_bench::evaluation_runs()
            .iter()
            .map(|run| {
                let chars = acic_apps::profile(&run.model.trace())
                    .ok_or_else(|| format!("{} performs no I/O", run.label))?;
                let spectrum = acic_bench::spectrum_for(run, acic_bench::EXPERIMENT_SEED)
                    .map_err(err("sweep"))?;
                Ok((acic::profile::app_point_from(&chars), spectrum))
            })
            .collect::<Result<_, String>>()
            .map(Self)
    }

    /// Median over the nine runs of how far ACIC's pick (co-champion
    /// median) is from the measured optimum, in percent.
    pub fn pick_gap_pct(&self, predictor: &Predictor) -> f64 {
        let goal = Objective::Performance;
        let gaps: Vec<f64> = self
            .0
            .iter()
            .map(|(app, spectrum)| {
                let ranked = predictor.top_k(app, goal, InstanceType::Cc2_8xlarge, usize::MAX);
                let (_, picked) = acic_bench::acic_pick_metric(spectrum, &ranked, goal);
                (picked / spectrum.best(goal).metric(goal) - 1.0) * 100.0
            })
            .collect();
        median(&gaps)
    }
}

/// Put the training, commit, store, and cart layer metrics of `reps`.
/// Counters are deterministic per campaign, so they come from the last rep.
pub fn put_training_layers(out: &mut Report, reps: &[&Rep], fsync_us: f64) {
    let n = reps.len();
    let med = |f: fn(&Rep) -> f64| median(&reps.iter().map(|r| f(r)).collect::<Vec<_>>());
    let last = reps.last().expect("at least one traced rep");
    let c = |name: &str| last.counters.counter(name) as f64;
    out.put("training.collect_s", med(|r| r.collect_s), n);
    out.put("training.baseline_runs", last.report.baseline_runs as f64, 1);
    out.put("training.retries", last.report.retries as f64, 1);
    out.put("training.skipped", last.report.skipped.len() as f64, 1);
    out.put(
        "training.loop_points_per_s",
        med(|r| r.counters.counter("train.points_per_sec") as f64),
        n,
    );
    out.put("sim.runs", c("sim.arena.runs"), 1);
    out.put("sim.pool_misses", c("sim.arena.pool_misses"), 1);
    out.put("commit.group_commits", last.report.group_commits as f64, 1);
    out.put("commit.queue_high_water", c("journal.queue_high_water"), 1);
    out.put("commit.fsync_us", fsync_us, 64);
    out.put("store.ingest_s", med(|r| r.ingest_s), n);
    out.put("store.wal_batches", last.wal_batches as f64, 1);
    out.put("store.compact_s", med(|r| r.compact_s), n);
    out.put("store.snapshot_write_s", med(|r| r.snapshot_s), n);
    out.put("cart.fit_s", med(|r| r.fit_s), n);
}

/// Time `run_ior` on a seeded sample of `n` of the plan's points and on
/// each one's baseline configuration; puts the `sim.*_us` metrics.
pub fn put_sim_timing(out: &mut Report, plan: &Plan, n: usize, seed: u64) -> Result<(), String> {
    let mut rng = SplitMix64::new(seed ^ 0x7369_6d5f_7631); // "sim_v1"
    let (mut runs, mut baselines) = (Vec::with_capacity(n), Vec::with_capacity(n));
    for _ in 0..n {
        let p = plan.points[rng.below(plan.points.len())];
        let ior = p.app.to_ior();
        for (sys, into) in [(p.system, &mut runs), (SystemConfig::baseline(), &mut baselines)] {
            let io = sys.to_io_system(p.app.nprocs);
            let t = Instant::now();
            let report = acic_iobench::run_ior(&io, &ior, rng.next_u64())
                .map_err(|e| format!("run_ior: {e}"))?;
            into.push(t.elapsed().as_secs_f64() * 1e6);
            std::hint::black_box(report);
        }
    }
    out.put("sim.run_us.p50", quantile(&runs, 0.5).expect("sampled"), n);
    out.put("sim.run_us.p99", quantile(&runs, 0.99).expect("sampled"), n);
    out.put("sim.baseline_run_us.p50", quantile(&baselines, 0.5).expect("sampled"), n);
    Ok(())
}

/// Time `Predictor::top_k` directly on `reqs`; puts `predictor.top_k_us.*`.
pub fn put_top_k_timing(out: &mut Report, predictor: &Predictor, reqs: &[Request]) {
    let us: Vec<f64> = reqs
        .iter()
        .map(|r| {
            let t = Instant::now();
            std::hint::black_box(predictor.top_k(
                &r.app,
                r.objective,
                InstanceType::Cc2_8xlarge,
                r.k,
            ));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    out.put("predictor.top_k_us.p50", quantile(&us, 0.5).expect("sampled"), us.len());
    out.put("predictor.top_k_us.p99", quantile(&us, 0.99).expect("sampled"), us.len());
}
