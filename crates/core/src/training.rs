//! The training database and the IOR-driven trainer.
//!
//! "Rather than case-by-case learning/prediction, we enable reusable
//! training by adopting a generic synthetic I/O benchmark and
//! systematically sampling the parameter space" (paper §1).  Each training
//! point records the *improvement over the baseline configuration* rather
//! than an absolute metric, which is what lets IOR training transfer to
//! applications that report performance differently (§4.2).
//!
//! Collection is fault-tolerant and restartable (§5.6 observation 5: the
//! authors lost I/O-server connections about hourly during training).  The
//! trainer carries a [`FaultPlan`] and a [`RetryPolicy`]; aborted runs are
//! retried on deterministic derived seeds with exponential-backoff
//! *accounting*, unsalvageable points are skipped and recorded in a
//! [`CollectionReport`], and an optional append-only journal
//! ([`crate::journal`]) checkpoints every finished point so a killed
//! campaign resumes bit-identically.

use crate::commit::CommitConfig;
use crate::error::AcicError;
use crate::features::{encode, encode_app_half, encode_system_half, N_FEATURES};
use crate::journal::{self, CampaignId, JournalEntry, JournalWriter};
use crate::objective::Objective;
use crate::obs::Metrics;
use crate::record::{Corrupt, Reader, Tail, Writer};
use crate::resilience::{Collection, CollectionReport, PointProvenance, RetryPolicy, SkippedPoint};
use crate::space::{AppPoint, ParamId, SpacePoint, SystemConfig};
use acic_cart::Dataset;
use acic_cloudsim::error::CloudSimError;
use acic_cloudsim::pricing::CostModel;
use acic_cloudsim::rng::SplitMix64;
use acic_fsim::{FaultPlan, IoSystem};
use acic_iobench::{run_ior_faulted, IorConfig, IorReport};
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

/// One training observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainingPoint {
    /// System half of the sampled point.
    pub system: SystemConfig,
    /// Application half of the sampled point.
    pub app: AppPoint,
    /// `baseline_time / this_time` (higher is better; eq. (2)).
    pub perf_improvement: f64,
    /// `baseline_cost / this_cost` (higher is better).
    pub cost_improvement: f64,
}

/// The (shareable, incrementally growable) training database.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrainingDb {
    /// All observations.
    pub points: Vec<TrainingPoint>,
    /// Simulated wall-clock spent collecting, seconds (the "dozens to
    /// hundreds of hours" of §2; includes retry waste and backoff when
    /// faults are injected).
    pub collect_secs: f64,
    /// Simulated money spent collecting, USD (Figure 8's right axis).
    pub collect_cost_usd: f64,
}

impl TrainingDb {
    /// Number of observations.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when no observations have been collected.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Incremental training: fold another database in (user-contributed
    /// data points, §2 "expandability").
    pub fn merge(&mut self, other: TrainingDb) {
        self.points.extend(other.points);
        self.collect_secs += other.collect_secs;
        self.collect_cost_usd += other.collect_cost_usd;
    }

    /// Data aging (§2: "deal with cloud hardware/software upgrades with
    /// common data aging methods"): keep only the newest `keep` points.
    pub fn age_to(&mut self, keep: usize) {
        if self.points.len() > keep {
            self.points.drain(0..self.points.len() - keep);
        }
    }

    /// Materialize as a CART dataset for the given objective.
    pub fn to_dataset(&self, objective: Objective) -> Dataset {
        let mut d = Dataset::new(crate::features::schema());
        for p in &self.points {
            let target = match objective {
                Objective::Performance => p.perf_improvement,
                Objective::Cost => p.cost_improvement,
            };
            d.push(encode(&p.system, &p.app), target);
        }
        d
    }
}

/// Options controlling a collection campaign.
#[derive(Debug, Clone, Copy, Default)]
pub struct CollectOptions<'a> {
    /// Checkpoint journal: created when the file is absent, resumed when
    /// present (the resumed campaign must be identical — same seed, point
    /// list, fault plan, and retry policy).
    pub journal: Option<&'a Path>,
    /// Observability sink for counters and time accounting.
    pub metrics: Option<&'a Metrics>,
    /// Return the first unrecoverable point's error instead of recording
    /// skips (the legacy `collect_points` behavior).
    pub strict: bool,
    /// Collect only these indices of `points` (adaptive planners measure
    /// batches through this).  The campaign identity — and therefore every
    /// per-point seed and journal fingerprint — stays that of the *full*
    /// point list, so a subset measurement is bit-identical to the same
    /// point measured by an exhaustive campaign.  `None` collects all.
    pub subset: Option<&'a [usize]>,
    /// Lookup-before-measure: points whose canonical configuration key is
    /// already in the durable store are answered from it (zero simulated
    /// runs, no baseline) instead of re-simulated.  Store hits are counted
    /// in [`CollectionReport::store_hits`] and never journaled — resuming
    /// a campaign therefore requires the same store, which re-answers them
    /// identically.
    pub lookup: Option<&'a crate::store::SampleLookup>,
    /// How the journal's writer plane commits: entries are coalesced into
    /// groups of up to `commit.batch` whole lines per flush (`batch = 1`
    /// is the per-point oracle).  Journal bytes are identical at every
    /// batch size; only durability amortization changes.
    pub commit: CommitConfig,
}

/// Collects training data by running the IOR workalike over PB-guided
/// samples of the exploration space.
#[derive(Debug, Clone)]
pub struct Trainer {
    /// Parameter importance order; training sweeps the first `top_n` of
    /// these and leaves the rest at their defaults.
    pub ranking: Vec<ParamId>,
    /// Root seed for per-run jitter.
    pub seed: u64,
    /// Failure injection applied to every simulated run (off by default).
    pub faults: FaultPlan,
    /// Retry/skip policy for failed runs.
    pub retry: RetryPolicy,
}

impl Trainer {
    /// A trainer with an explicit ranking, no fault injection, and the
    /// default retry policy.
    pub fn new(ranking: Vec<ParamId>, seed: u64) -> Self {
        Self { ranking, seed, faults: FaultPlan::NONE, retry: RetryPolicy::DEFAULT }
    }

    /// A trainer using the paper's published Table 1 ranking.
    pub fn with_paper_ranking(seed: u64) -> Self {
        let mut ranking = ParamId::ALL.to_vec();
        ranking.sort_by_key(|p| p.paper_rank());
        Self::new(ranking, seed)
    }

    /// Inject failures into every collection run (paper §5.6 obs 5).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Override the retry/skip policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// The sampled grid over the `top_n` most important parameters
    /// (deduplicated after normalization, invalid points dropped), in
    /// odometer order: the first-ranked parameter varies fastest.
    ///
    /// One streaming pass: each candidate is normalized, validated and
    /// deduplicated as the odometer yields it, so memory stays
    /// proportional to the returned grid rather than to the raw candidate
    /// count (1,769,472 at 15 dimensions, for 380,304 points).
    pub fn sample_points(&self, top_n: usize) -> Vec<SpacePoint> {
        let dims: Vec<ParamId> = self.ranking.iter().copied().take(top_n).collect();
        dedup_points(Odometer::new(&dims).map(SpacePoint::normalized).filter(SpacePoint::is_valid))
    }

    /// Run the sampled grid and build the database.  Every sampled point
    /// and its baseline run execute on the simulated cloud; collection
    /// time/money are accumulated from both.
    pub fn collect(&self, top_n: usize) -> Result<TrainingDb, AcicError> {
        let points = self.sample_points(top_n);
        self.collect_points(&points)
    }

    /// Run an explicit list of points (used for incremental contributions).
    /// Fails fast on the first unrecoverable point.
    pub fn collect_points(&self, points: &[SpacePoint]) -> Result<TrainingDb, AcicError> {
        let opts = CollectOptions { strict: true, ..Default::default() };
        Ok(self.collect_with(points, &opts)?.db)
    }

    /// The identity of a campaign over `points`: the root seed, the point
    /// list, and the fault/retry configuration (anything that changes the
    /// collected bits changes the fingerprint).
    pub fn campaign_id(&self, points: &[SpacePoint]) -> CampaignId {
        let mut h = Fnv64::new();
        h.words(&[
            self.seed,
            self.faults.phase_fail_prob.to_bits(),
            self.faults.retry_penalty_secs.to_bits(),
            self.faults.abort_prob.to_bits(),
            u64::from(self.retry.max_retries),
            self.retry.backoff_base_secs.to_bits(),
            self.retry.backoff_factor.to_bits(),
            self.retry.point_budget_secs.to_bits(),
            points.len() as u64,
        ]);
        for p in points {
            h.words(&point_words(p));
        }
        CampaignId { seed: self.seed, points: points.len(), fingerprint: h.finish() }
    }

    /// The full fault-tolerant collection engine: run `points` under the
    /// trainer's fault plan with bounded deterministic retries, optionally
    /// checkpointing every finished point to (and resuming from) a journal.
    ///
    /// The returned database is bit-identical for a given campaign at any
    /// worker count, whether run straight through or killed and resumed —
    /// every attempt's seed is a pure function of `(campaign seed, point
    /// index, attempt)`, and assembly always walks points in index order.
    pub fn collect_with(
        &self,
        points: &[SpacePoint],
        opts: &CollectOptions,
    ) -> Result<Collection, AcicError> {
        let id = self.campaign_id(points);
        let wanted: Vec<usize> = match opts.subset {
            None => (0..points.len()).collect(),
            Some(ixs) => {
                let set: std::collections::BTreeSet<usize> = ixs.iter().copied().collect();
                if let Some(&bad) = set.iter().rev().find(|&&i| i >= points.len()) {
                    return Err(AcicError::Invalid(format!(
                        "subset index {bad} out of range for a {}-point campaign",
                        points.len()
                    )));
                }
                set.into_iter().collect()
            }
        };
        let mut restored: BTreeMap<usize, JournalEntry> = BTreeMap::new();
        let writer = match opts.journal {
            None => None,
            Some(path) if path.exists() => {
                let state = journal::load(path, &id)?;
                restored = state.entries;
                // Truncate any torn tail before appending: without this the
                // first resumed entry would weld onto the fragment.
                Some(JournalWriter::resume_with(path, state.valid_bytes, opts.commit)?)
            }
            Some(path) => Some(JournalWriter::create_with(path, &id, opts.commit)?),
        };

        let arena_before = acic_cloudsim::arena::stats();
        let root = SplitMix64::new(self.seed);
        let baseline_sys = SystemConfig::baseline();

        let todo: Vec<usize> =
            wanted.iter().copied().filter(|i| !restored.contains_key(i)).collect();

        // Lookup-before-measure resolved up front: store-hit status is a
        // pure function of the lookup index, which makes the journal
        // emission order — todo minus store hits, ascending — computable
        // before any simulation runs.
        let hits: Vec<Option<crate::store::StoreSample>> = todo
            .iter()
            .map(|&i| opts.lookup.and_then(|l| l.get(point_key(&points[i])).copied()))
            .collect();
        // Journal sequence ranks: the writer plane commits entries in
        // campaign index order regardless of scheduling, so journal bytes
        // are identical at any worker count and any commit batch.
        let mut seq_of: Vec<u64> = vec![u64::MAX; todo.len()];
        let mut next_seq = 0u64;
        for (t, hit) in hits.iter().enumerate() {
            if hit.is_none() {
                seq_of[t] = next_seq;
                next_seq += 1;
            }
        }

        // Shared-nothing baseline stage: deduplicate the distinct app
        // halves this session will simulate *before* the parallel loop,
        // run each baseline exactly once in parallel, and fan the results
        // out via `Arc` — no mutexed cache, no under-lock clones, no
        // filled-twice races.  Each baseline is a pure function of
        // `(campaign seed, app key)`, so the table is bit-identical to
        // what the old racing cache converged to.
        let mut apps: BTreeMap<[u64; 9], AppPoint> = BTreeMap::new();
        for (t, &i) in todo.iter().enumerate() {
            if hits[t].is_none() {
                apps.entry(app_bits(&points[i].app)).or_insert(points[i].app);
            }
        }
        let apps: Vec<([u64; 9], AppPoint)> = apps.into_iter().collect();
        let baselines: BTreeMap<[u64; 9], Arc<BaselineEntry>> = apps
            .into_par_iter()
            .map(|(key, app)| {
                let entry = self.compute_baseline(&root, &baseline_sys, &app, &key);
                (key, Arc::new(entry))
            })
            .collect::<Vec<_>>()
            .into_iter()
            .collect();

        let session_start = std::time::Instant::now();
        let fresh: Vec<PointRun> = todo
            .par_iter()
            .enumerate()
            .map(|(t, &i)| {
                if let Some(hit) = hits[t] {
                    // Answered from the durable store: no simulation, no
                    // baseline, nothing journaled (the store itself is the
                    // durable record; a resume re-answers identically).
                    return PointRun {
                        tp: Some(hit.point),
                        attempts: hit.attempts,
                        from_store: true,
                        ..PointRun::empty(i)
                    };
                }
                let run = self.run_point(i, &points[i], &root, &baselines);
                if let Some(w) = &writer {
                    // Sequenced append: the writer plane buffers this until
                    // every earlier entry has committed before it.  I/O
                    // errors surface at finish() below.
                    w.append_seq(seq_of[t], &run.to_journal_entry());
                }
                run
            })
            .collect();
        let session_secs = session_start.elapsed().as_secs_f64();
        let commit_stats = match writer {
            Some(w) => Some(w.finish()?),
            None => None,
        };

        // Deterministic assembly: pre-sized slots over `wanted` (index
        // order), so sums — and therefore the database bits — never depend
        // on scheduling, and no per-run tree rebalancing happens on large
        // campaigns.  A journal may hold more than the subset asks for (an
        // adaptive campaign resumed with a smaller cumulative batch); only
        // wanted indices are assembled.
        let mut slots: Vec<Option<PointRun>> = Vec::with_capacity(wanted.len());
        slots.resize_with(wanted.len(), || None);
        for (index, entry) in restored {
            if let Ok(t) = wanted.binary_search(&index) {
                slots[t] = Some(PointRun::from_journal(entry));
            }
        }
        for run in fresh {
            let t = wanted
                .binary_search(&run.index)
                .expect("fresh run for a point outside the wanted set");
            slots[t] = Some(run);
        }
        assert!(
            slots.iter().all(Option::is_some),
            "collection left unfilled campaign slots (journal/todo split is broken)"
        );

        let mut db = TrainingDb::default();
        let mut report = CollectionReport { planned: wanted.len(), ..Default::default() };
        for run in slots.into_iter().flatten() {
            if run.resumed {
                report.resumed += 1;
            }
            if run.from_store {
                report.store_hits += 1;
            }
            match run.tp {
                Some(tp) => {
                    if !run.resumed {
                        report.completed += 1;
                    }
                    report.point_log.push(PointProvenance {
                        index: run.index,
                        attempts: run.attempts,
                    });
                    db.points.push(tp);
                }
                None => report.skipped.push(SkippedPoint {
                    index: run.index,
                    attempts: run.attempts,
                    error: run
                        .error
                        .clone()
                        .unwrap_or_else(|| AcicError::Invalid("unrecorded failure".into())),
                }),
            }
            db.collect_secs += run.secs;
            db.collect_cost_usd += run.cost;
            report.retries += run.retries as usize;
            report.aborts += run.aborts as usize;
            report.faults_tolerated += run.faults;
            report.backoff_secs += run.backoff_secs;
            report.wasted_secs += run.wasted_secs;
            report.wasted_cost_usd += run.wasted_cost;
            report.sim_secs += run.sim_secs;
        }
        // Baseline overhead is keyed per distinct app half, so it is
        // reported once per baseline (BTreeMap order keeps it stable).
        for b in baselines.values() {
            report.baseline_runs += 1;
            report.retries += b.retries as usize;
            report.aborts += b.aborts as usize;
            report.backoff_secs += b.backoff_secs;
            report.wasted_secs += b.wasted_secs;
            report.wasted_cost_usd += b.wasted_cost;
            if b.result.is_ok() {
                report.faults_tolerated += b.faults;
            }
        }
        if let Some(stats) = commit_stats {
            report.group_commits = stats.group_commits as usize;
        }

        if let Some(m) = opts.metrics {
            m.incr("train.points.attempted", (report.planned - report.resumed) as u64);
            m.incr("train.points.completed", report.completed as u64);
            m.incr("train.points.resumed", report.resumed as u64);
            m.incr("train.points.skipped", report.skipped.len() as u64);
            m.incr("train.runs.retried", report.retries as u64);
            m.incr("train.runs.aborted", report.aborts as u64);
            m.incr("train.faults.tolerated", report.faults_tolerated as u64);
            m.incr("train.baseline.runs", report.baseline_runs as u64);
            m.incr("train.db.points", db.len() as u64);
            if report.store_hits > 0 {
                m.incr("search.store_hits", report.store_hits as u64);
            }
            m.observe_secs("train.sim_secs", db.collect_secs);
            m.observe_secs("train.backoff_secs", report.backoff_secs);
            // Writer-plane accounting: how well the group commit amortized
            // durability, and how far the reorder/accumulation buffer grew.
            if let Some(stats) = commit_stats {
                m.incr("journal.group_commits", stats.group_commits);
                m.record_max("journal.queue_high_water", stats.queue_high_water);
            }
            // Collection throughput of this session's parallel loop (real
            // wall clock, not simulated seconds) — the number BENCH_train
            // gates.
            if !todo.is_empty() && session_secs > 0.0 {
                m.record_max(
                    "train.points_per_sec",
                    (todo.len() as f64 / session_secs).round() as u64,
                );
            }
            // Simulator arena health: runs executed during this campaign
            // and how many of them missed the recycled pools.  A warm
            // steady state shows a large run delta with a (near-)zero miss
            // delta — the allocation-free campaign loop.
            let arena_after = acic_cloudsim::arena::stats();
            m.incr("sim.arena.runs", arena_after.runs.saturating_sub(arena_before.runs));
            m.incr(
                "sim.arena.pool_misses",
                arena_after.pool_misses.saturating_sub(arena_before.pool_misses),
            );
        }

        if opts.strict {
            if let Some(sk) = report.skipped.first() {
                return Err(sk.error.clone());
            }
        }
        Ok(Collection { db, report })
    }

    /// Collect one point: baseline (precomputed per app half) plus the
    /// sampled configuration, both under the fault plan with bounded
    /// retries.
    fn run_point(
        &self,
        i: usize,
        p: &SpacePoint,
        root: &SplitMix64,
        baselines: &BTreeMap<[u64; 9], Arc<BaselineEntry>>,
    ) -> PointRun {
        let app_key = app_bits(&p.app);
        let entry = baselines
            .get(&app_key)
            .expect("baseline precomputed for every simulated app half");
        // Borrow straight from the shared entry — no report clone at all
        // (the old mutexed cache cloned the full IorReport per point,
        // while holding the cache lock).
        let baseline: &IorReport = match &entry.result {
            Ok(r) => r,
            Err(e) => {
                // The whole app half is uncollectable; charge nothing here
                // (the baseline's own waste is reported once per app key).
                return PointRun {
                    index: i,
                    attempts: 0,
                    error: Some(e.clone()),
                    ..PointRun::empty(i)
                };
            }
        };

        let sys = p.system.to_io_system(p.app.nprocs);
        let cost_of = cost_fn(&sys);
        // Attempt 0 keeps the historical seed derivation (bit-compat with
        // fault-free campaigns); retries derive fresh deterministic seeds.
        let point_rng = root.derive(i as u64);
        let seed_of = |attempt: u32| {
            if attempt == 0 {
                point_rng.clone().next_u64()
            } else {
                point_rng.derive(u64::from(attempt)).next_u64()
            }
        };
        let run = retry_run(&sys, &p.app.to_ior(), seed_of, self.faults, &self.retry, &cost_of);
        match run.result {
            Ok(report) => {
                let tp = TrainingPoint {
                    system: p.system,
                    app: p.app,
                    perf_improvement: Objective::Performance
                        .improvement(baseline.secs(), report.secs()),
                    cost_improvement: Objective::Cost.improvement(baseline.cost, report.cost),
                };
                let sim = report.secs() + baseline.secs();
                PointRun {
                    index: i,
                    tp: Some(tp),
                    secs: sim + run.wasted_secs + run.backoff_secs,
                    cost: report.cost + baseline.cost + run.wasted_cost,
                    sim_secs: sim,
                    attempts: run.retries + 1,
                    retries: run.retries,
                    aborts: run.aborts,
                    faults: report.outcome.faults,
                    backoff_secs: run.backoff_secs,
                    wasted_secs: run.wasted_secs,
                    wasted_cost: run.wasted_cost,
                    error: None,
                    resumed: false,
                    from_store: false,
                }
            }
            Err(e) => PointRun {
                index: i,
                secs: run.wasted_secs + run.backoff_secs,
                cost: run.wasted_cost,
                attempts: run.retries + 1,
                retries: run.retries,
                aborts: run.aborts,
                backoff_secs: run.backoff_secs,
                wasted_secs: run.wasted_secs,
                wasted_cost: run.wasted_cost,
                error: Some(e),
                ..PointRun::empty(i)
            },
        }
    }

    /// One baseline run, executed exactly once per distinct app half by
    /// the shared-nothing pre-stage.  The result (and its retry
    /// accounting) is a pure function of `(campaign seed, app key)`, so
    /// the precomputed table is bit-identical to what the old racing
    /// per-worker cache converged to.
    fn compute_baseline(
        &self,
        root: &SplitMix64,
        baseline_sys: &SystemConfig,
        app: &AppPoint,
        app_key: &[u64],
    ) -> BaselineEntry {
        let sys = baseline_sys.to_io_system(app.nprocs);
        let cost_of = cost_fn(&sys);
        // The baseline seed must be a function of the app key, not of the
        // point index: every point sharing an app half shares the same
        // baseline report, however the campaign is scheduled or subset.
        let chain = {
            let mut r = root.derive(u64::MAX);
            for &w in app_key {
                r = r.derive(w);
            }
            r
        };
        let seed_of = |attempt: u32| {
            if attempt == 0 {
                chain.clone().next_u64()
            } else {
                chain.derive(u64::from(attempt)).next_u64()
            }
        };
        let run = retry_run(&sys, &app.to_ior(), seed_of, self.faults, &self.retry, &cost_of);
        BaselineEntry {
            faults: run.result.as_ref().map(|r| r.outcome.faults).unwrap_or(0),
            result: run.result,
            retries: run.retries,
            aborts: run.aborts,
            backoff_secs: run.backoff_secs,
            wasted_secs: run.wasted_secs,
            wasted_cost: run.wasted_cost,
        }
    }
}

/// Session accounting for one cached baseline.
#[derive(Debug, Clone)]
struct BaselineEntry {
    result: Result<IorReport, AcicError>,
    retries: u32,
    aborts: u32,
    backoff_secs: f64,
    wasted_secs: f64,
    wasted_cost: f64,
    faults: usize,
}

/// Everything one campaign point contributed.
#[derive(Debug, Clone)]
struct PointRun {
    index: usize,
    tp: Option<TrainingPoint>,
    /// Simulated seconds charged to the database for this point.
    secs: f64,
    /// Simulated USD charged to the database for this point.
    cost: f64,
    /// Successful-run share of `secs` (excludes waste and backoff).
    sim_secs: f64,
    attempts: u32,
    retries: u32,
    aborts: u32,
    faults: usize,
    backoff_secs: f64,
    wasted_secs: f64,
    wasted_cost: f64,
    error: Option<AcicError>,
    resumed: bool,
    /// Answered from the durable store (lookup-before-measure) — zero
    /// simulated runs, nothing journaled.
    from_store: bool,
}

impl PointRun {
    fn empty(index: usize) -> Self {
        Self {
            index,
            tp: None,
            secs: 0.0,
            cost: 0.0,
            sim_secs: 0.0,
            attempts: 0,
            retries: 0,
            aborts: 0,
            faults: 0,
            backoff_secs: 0.0,
            wasted_secs: 0.0,
            wasted_cost: 0.0,
            error: None,
            resumed: false,
            from_store: false,
        }
    }

    fn from_journal(entry: JournalEntry) -> Self {
        match entry {
            JournalEntry::Ok { index, attempts, secs, cost, point } => Self {
                tp: Some(point),
                attempts,
                secs,
                cost,
                resumed: true,
                ..Self::empty(index)
            },
            JournalEntry::Skip { index, attempts, secs, cost, reason } => Self {
                secs,
                cost,
                attempts,
                error: Some(AcicError::Invalid(reason)),
                resumed: true,
                ..Self::empty(index)
            },
        }
    }

    fn to_journal_entry(&self) -> JournalEntry {
        match &self.tp {
            Some(point) => JournalEntry::Ok {
                index: self.index,
                attempts: self.attempts,
                secs: self.secs,
                cost: self.cost,
                point: *point,
            },
            None => JournalEntry::Skip {
                index: self.index,
                attempts: self.attempts,
                secs: self.secs,
                cost: self.cost,
                reason: self
                    .error
                    .as_ref()
                    .map(|e| e.to_string())
                    .unwrap_or_else(|| "unrecorded failure".into()),
            },
        }
    }
}

/// Outcome of a bounded-retry run sequence.
struct RetriedRun {
    result: Result<IorReport, AcicError>,
    retries: u32,
    aborts: u32,
    backoff_secs: f64,
    wasted_secs: f64,
    wasted_cost: f64,
}

/// Run `cfg` on `sys`, retrying transient (injected-fault) errors on
/// deterministic per-attempt seeds with exponential-backoff accounting.
/// Permanent errors never retry; exceeding the retry count or the
/// per-point budget gives up with the terminal error.
fn retry_run(
    sys: &IoSystem,
    cfg: &IorConfig,
    seed_of: impl Fn(u32) -> u64,
    faults: FaultPlan,
    retry: &RetryPolicy,
    cost_of: &impl Fn(f64) -> f64,
) -> RetriedRun {
    let mut retries = 0u32;
    let mut aborts = 0u32;
    let mut backoff_secs = 0.0f64;
    let mut wasted_secs = 0.0f64;
    let mut wasted_cost = 0.0f64;
    let mut attempt = 0u32;
    let result = loop {
        match run_ior_faulted(sys, cfg, seed_of(attempt), faults) {
            Ok(r) => break Ok(r),
            Err(e) => {
                let e = AcicError::from(e);
                if let AcicError::Sim(CloudSimError::InjectedFault { time, .. }) = &e {
                    aborts += 1;
                    wasted_secs += *time;
                    wasted_cost += cost_of(*time);
                }
                if !e.is_transient() || attempt >= retry.max_retries {
                    break Err(e);
                }
                attempt += 1;
                retries += 1;
                backoff_secs += retry.backoff_before(attempt);
                if wasted_secs + backoff_secs > retry.point_budget_secs {
                    break Err(AcicError::Invalid(format!(
                        "per-point budget of {:.0}s exhausted after {} attempt(s)",
                        retry.point_budget_secs, attempt
                    )));
                }
            }
        }
    };
    RetriedRun { result, retries, aborts, backoff_secs, wasted_secs, wasted_cost }
}

/// Cost of `secs` of simulated time on `sys`'s cluster (used to bill the
/// wasted time of aborted attempts, like the authors paid for theirs).
fn cost_fn(sys: &IoSystem) -> impl Fn(f64) -> f64 {
    let instances = sys.cluster.total_instances();
    let instance_type = sys.cluster.instance_type;
    move |secs: f64| CostModel::default().linear_cost(secs, instances, instance_type)
}

/// FNV-1a state (64-bit).  Campaign fingerprints and configuration keys
/// fold point words through it, and the store's generation hash folds
/// rendered sample lines.
#[derive(Debug)]
pub(crate) struct Fnv64(u64);

impl Fnv64 {
    pub(crate) const fn new() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold each word's little-endian bytes.
    pub(crate) fn words(&mut self, words: &[u64]) {
        for w in words {
            self.bytes(&w.to_le_bytes());
        }
    }

    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}

/// Append `v` in decimal, as `{}` prints it.
pub(crate) fn push_u64(out: &mut Vec<u8>, mut v: u64) {
    // Most fields are flags and category codes.
    if v < 10 {
        out.push(b'0' + v as u8);
        return;
    }
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// Append `v` as 16 lowercase hex digits, as `{:016x}` prints it.
pub(crate) fn push_hex16(out: &mut Vec<u8>, v: u64) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut digits = [0u8; 16];
    for (i, d) in digits.iter_mut().enumerate() {
        *d = HEX[(v >> (60 - 4 * i)) as usize & 0xf];
    }
    out.extend_from_slice(&digits);
}

/// Append `x` as `{}` prints it.  An integral value below 2^53 in
/// magnitude prints as its integer digits, `-` first when the sign bit is
/// set (`-0` included); every other value goes through std `Display`.
pub(crate) fn push_f64(out: &mut Vec<u8>, x: f64) {
    const EXACT: f64 = 9_007_199_254_740_992.0; // 2^53
    if x.abs() < EXACT && (x as i64) as f64 == x {
        if x.is_sign_negative() {
            out.push(b'-');
        }
        push_u64(out, (x as i64).unsigned_abs());
    } else {
        use std::io::Write as _;
        write!(out, "{x}").expect("writing to a Vec cannot fail");
    }
}

/// Capacity reserved per rendered point line (a grid point's line is
/// about 100 bytes).
pub(crate) const POINT_LINE_BYTES: usize = 128;

/// Write one observation as the 17 tab-separated fields shared by the
/// database text format, the checkpoint journal, and the store's sample
/// lines — the one place that format is spelled out.
pub(crate) fn write_point(out: &mut Vec<u8>, p: &TrainingPoint) {
    use acic_cloudsim::cluster::Placement;
    use acic_cloudsim::instance::InstanceType;
    use acic_fsim::{FsType, IoOp};

    let (sys, app) = (&p.system, &p.app);
    let system_codes = [
        crate::features::device_code(sys.device) as u64,
        u64::from(sys.fs == FsType::Pvfs2),
        u64::from(sys.instance_type == InstanceType::Cc2_8xlarge),
        sys.io_servers as u64,
        u64::from(sys.placement == Placement::Dedicated),
    ];
    for v in system_codes {
        push_u64(out, v);
        out.push(b'\t');
    }
    push_f64(out, sys.stripe_size);
    let app_counts = [
        app.nprocs as u64,
        app.io_procs as u64,
        crate::features::api_code(app.api) as u64,
        app.iterations as u64,
    ];
    for v in app_counts {
        out.push(b'\t');
        push_u64(out, v);
    }
    for x in [app.data_size, app.request_size] {
        out.push(b'\t');
        push_f64(out, x);
    }
    let app_flags =
        [u64::from(app.op == IoOp::Write), u64::from(app.collective), u64::from(app.shared_file)];
    for v in app_flags {
        out.push(b'\t');
        push_u64(out, v);
    }
    for x in [p.perf_improvement, p.cost_improvement] {
        out.push(b'\t');
        push_f64(out, x);
    }
}

/// Split `line` at tabs into exactly `N` fields; `None` when it has more
/// or fewer.
pub(crate) fn split_fields<const N: usize>(line: &str) -> Option<[&str; N]> {
    let mut fields = [""; N];
    let mut it = line.split('\t');
    for f in &mut fields {
        *f = it.next()?;
    }
    it.next().is_none().then_some(fields)
}

/// Parse the 17 fields written by [`write_point`].
pub(crate) fn point_from_fields(f: &[&str], lineno: usize) -> Result<TrainingPoint, AcicError> {
    use acic_cloudsim::cluster::Placement;
    use acic_cloudsim::device::DeviceKind;
    use acic_cloudsim::instance::InstanceType;
    use acic_fsim::{FsType, IoApi, IoOp};

    let bad = |reason: &str| AcicError::Codec { line: lineno, reason: reason.into() };
    if f.len() != 17 {
        return Err(bad("expected 17 tab-separated fields"));
    }
    let num = |i: usize| -> Result<f64, AcicError> { f[i].parse().map_err(|_| bad("bad number")) };
    let flag = |i: usize| -> Result<bool, AcicError> { Ok(num(i)? != 0.0) };
    Ok(TrainingPoint {
        system: SystemConfig {
            device: match num(0)? as u8 {
                0 => DeviceKind::Ebs,
                1 => DeviceKind::Ephemeral,
                2 => DeviceKind::Ssd,
                _ => return Err(bad("bad device code")),
            },
            fs: if flag(1)? { FsType::Pvfs2 } else { FsType::Nfs },
            instance_type: if flag(2)? {
                InstanceType::Cc2_8xlarge
            } else {
                InstanceType::Cc1_4xlarge
            },
            io_servers: num(3)? as usize,
            placement: if flag(4)? { Placement::Dedicated } else { Placement::PartTime },
            stripe_size: num(5)?,
        },
        app: AppPoint {
            nprocs: num(6)? as usize,
            io_procs: num(7)? as usize,
            api: match num(8)? as u8 {
                0 => IoApi::Posix,
                1 => IoApi::MpiIo,
                2 => IoApi::Hdf5,
                3 => IoApi::NetCdf,
                _ => return Err(bad("bad api code")),
            },
            iterations: num(9)? as usize,
            data_size: num(10)?,
            request_size: num(11)?,
            op: if flag(12)? { IoOp::Write } else { IoOp::Read },
            collective: flag(13)?,
            shared_file: flag(14)?,
        },
        perf_improvement: num(15)?,
        cost_improvement: num(16)?,
    })
}

/// Version line of the [`TrainingDb::to_text`] format.
const DB_VERSION: &str = "acic-db v1";

impl TrainingDb {
    /// Serialize as a versioned, line-oriented text format (the paper's
    /// released training data is a similar flat table; no external
    /// serialization dependency needed), in the [`crate::record`] framing.
    pub fn to_text(&self) -> String {
        let (secs, cost) = (&self.collect_secs, &self.collect_cost_usd);
        let mut file = Writer::new(DB_VERSION, 64 + self.points.len() * POINT_LINE_BYTES)
            .summary("", &[("collect_secs", secs), ("collect_cost_usd", cost)]);
        for p in &self.points {
            file.record(|out| write_point(out, p));
        }
        file.finish()
    }

    /// Parse the [`Self::to_text`] format.  The text is written whole, so
    /// an unterminated final line is rejected, never parsed.
    pub fn from_text(text: &str) -> Result<TrainingDb, AcicError> {
        let bad = |line: usize, reason: &str| AcicError::Codec { line, reason: reason.into() };
        let framing = |e: Corrupt| AcicError::Codec { line: e.line, reason: e.reason };
        let mut file = Reader::new(text, Tail::Reject);
        file.version(DB_VERSION).map_err(framing)?;
        let [secs, cost] =
            file.summary("", ["collect_secs", "collect_cost_usd"]).map_err(framing)?;
        let stat = |v: &str| v.parse().map_err(|_| bad(2, "bad stats number"));
        let (collect_secs, collect_cost_usd) = (stat(secs)?, stat(cost)?);
        let mut db = TrainingDb { points: Vec::new(), collect_secs, collect_cost_usd };
        for record in file {
            let (line, text) = record.map_err(framing)?;
            let f: [&str; 17] =
                split_fields(text).ok_or_else(|| bad(line, "expected 17 tab-separated fields"))?;
            db.points.push(point_from_fields(&f, line)?);
        }
        Ok(db)
    }
}

/// Bit-exact key of an app half (for baseline caching).
fn app_bits(app: &AppPoint) -> [u64; 9] {
    let a = app.normalized();
    [
        a.nprocs as u64,
        a.io_procs as u64,
        crate::features::api_code(a.api) as u64,
        a.iterations as u64,
        a.data_size.to_bits(),
        a.request_size.to_bits(),
        u64::from(a.op == acic_fsim::IoOp::Write),
        u64::from(a.collective),
        u64::from(a.shared_file),
    ]
}

/// Words in a point's bit-exact key: the encoded feature row, then the
/// app-half key.
const POINT_WORDS: usize = N_FEATURES + 9;

/// Bit-exact key of a whole point: the feature row's bits, then
/// [`app_bits`].  Campaign and snapshot fingerprints fold these words for
/// every point.
pub(crate) fn point_words(p: &SpacePoint) -> [u64; POINT_WORDS] {
    let mut k = [0u64; POINT_WORDS];
    let row = encode_system_half(&p.system).into_iter().chain(encode_app_half(&p.app));
    for (w, v) in k.iter_mut().zip(row) {
        *w = v.to_bits();
    }
    k[N_FEATURES..].copy_from_slice(&app_bits(&p.app));
    k
}

/// The canonical configuration key of a space point: FNV-1a over its
/// bit-exact encoding.  This is the same key [`crate::store::sample_key`]
/// derives from a collected observation, which is what lets a planner (or
/// the trainer's lookup-before-measure path) ask the durable store "has
/// this exact configuration been measured before?" without re-simulating.
pub fn point_key(p: &SpacePoint) -> u64 {
    let mut h = Fnv64::new();
    h.words(&point_words(p));
    h.finish()
}

/// Every combination of sampled values over `dims`, the first dimension
/// varying fastest, each applied to [`SpacePoint::default_point`].
///
/// A step re-applies only the digits that changed.  A parameter listed
/// twice takes its value from the later dimension, as applying every
/// dimension in order does, so only that dimension is ever re-applied.
struct Odometer<'a> {
    dims: &'a [ParamId],
    /// Whether `dims[i]` is the last dimension that sets its field.
    sets_field: Vec<bool>,
    digits: Vec<usize>,
    point: SpacePoint,
    done: bool,
}

impl<'a> Odometer<'a> {
    fn new(dims: &'a [ParamId]) -> Self {
        let mut point = SpacePoint::default_point();
        for d in dims {
            d.apply(0, &mut point);
        }
        let sets_field = (0..dims.len()).map(|i| !dims[i + 1..].contains(&dims[i])).collect();
        Self { dims, sets_field, digits: vec![0; dims.len()], point, done: false }
    }
}

impl Iterator for Odometer<'_> {
    type Item = SpacePoint;

    fn next(&mut self) -> Option<SpacePoint> {
        if self.done {
            return None;
        }
        let current = self.point;
        // Increment with carry; every digit wrapped means the grid is done.
        self.done = true;
        let dims = self.dims.iter().zip(&self.sets_field);
        for ((d, &sets_field), digit) in dims.zip(&mut self.digits) {
            *digit = (*digit + 1) % d.value_count();
            if sets_field {
                d.apply(*digit, &mut self.point);
            }
            if *digit != 0 {
                self.done = false;
                break;
            }
        }
        Some(current)
    }
}

/// The first of the points with equal [`point_words`], in input order.
fn dedup_points(points: impl IntoIterator<Item = SpacePoint>) -> Vec<SpacePoint> {
    dedup_points_by(points, mix_words)
}

/// [`dedup_points`] with the slot hash as a parameter, so a test can force
/// every point into one slot.
///
/// A map holds the index of the first kept point per hash.  A point that
/// finds its slot taken is a duplicate if the kept point has the same
/// field bits or, failing that, the same words.  A point that differs from
/// its slot's holder (a true hash collision) is deduplicated through an
/// exact side set of words instead.  Memory is the output plus one map
/// entry per kept point and the words of the colliding points.
///
/// The output keeps its growth capacity.  Shrinking it made `bench_e2e`
/// `scale_cold`'s peak RSS 14–17 MiB higher: glibc raises its mmap
/// threshold to the size of each mapped block freed, and a 26 MiB plan
/// freed by the caller moved later large buffers onto the heap.
fn dedup_points_by(
    points: impl IntoIterator<Item = SpacePoint>,
    hash: impl Fn(&[u64; POINT_WORDS]) -> u64,
) -> Vec<SpacePoint> {
    use std::collections::hash_map::Entry;
    let mut kept = Vec::new();
    let mut first_kept = std::collections::HashMap::new();
    let mut collided = std::collections::BTreeSet::new();
    for p in points {
        let words = point_words(&p);
        match first_kept.entry(hash(&words)) {
            Entry::Vacant(slot) => {
                slot.insert(kept.len());
                kept.push(p);
            }
            Entry::Occupied(slot) => {
                let holder = &kept[*slot.get()];
                let duplicate = same_field_bits(holder, &p) || point_words(holder) == words;
                if !duplicate && collided.insert(words) {
                    kept.push(p);
                }
            }
        }
    }
    kept
}

/// An in-memory mix of a point's words (not a persisted key: that is
/// [`point_key`], whose byte-wise FNV costs several times as much).
fn mix_words(words: &[u64; POINT_WORDS]) -> u64 {
    let h =
        words.iter().fold(0u64, |h, &w| (h.rotate_left(5) ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    h ^ (h >> 29)
}

/// Equal fields, floats compared by bits: such points have equal
/// [`point_words`], which are a function of the fields alone.
fn same_field_bits(a: &SpacePoint, b: &SpacePoint) -> bool {
    let (s, t) = (&a.system, &b.system);
    let (x, y) = (&a.app, &b.app);
    s.device == t.device
        && s.fs == t.fs
        && s.instance_type == t.instance_type
        && s.io_servers == t.io_servers
        && s.placement == t.placement
        && s.stripe_size.to_bits() == t.stripe_size.to_bits()
        && x.nprocs == y.nprocs
        && x.io_procs == y.io_procs
        && x.api == y.api
        && x.iterations == y.iterations
        && x.data_size.to_bits() == y.data_size.to_bits()
        && x.request_size.to_bits() == y.request_size.to_bits()
        && x.op == y.op
        && x.collective == y.collective
        && x.shared_file == y.shared_file
}

/// The codec the digit loops and word folds replaced, kept verbatim as the
/// oracle the codec tests compare bytes and keys against; the planner the
/// streaming pass replaced, kept verbatim as the oracle the planner tests
/// compare plans against; and generators of points whose every field
/// varies over its whole domain.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;
    use proptest::prelude::*;

    /// Every valid candidate of the grid over the trainer's `top_n` first
    /// parameters, in odometer order, duplicates included.
    pub(crate) fn candidates(trainer: &Trainer, top_n: usize) -> Vec<SpacePoint> {
        let dims: Vec<ParamId> = trainer.ranking.iter().copied().take(top_n).collect();
        let mut points = Vec::new();
        let mut counters = vec![0usize; dims.len()];
        loop {
            let mut p = SpacePoint::default_point();
            for (d, &ix) in dims.iter().zip(&counters) {
                d.apply(ix, &mut p);
            }
            let p = p.normalized();
            if p.is_valid() {
                points.push(p);
            }
            // Odometer increment over the per-dimension value counts.
            let mut carry = true;
            for (d, c) in dims.iter().zip(counters.iter_mut()) {
                if !carry {
                    break;
                }
                *c += 1;
                if *c == d.value_count() {
                    *c = 0;
                } else {
                    carry = false;
                }
            }
            if carry {
                break;
            }
        }
        points
    }

    /// The first of the points with equal words, through a `BTreeSet`.
    pub(crate) fn dedup_points(points: Vec<SpacePoint>) -> Vec<SpacePoint> {
        let mut seen = std::collections::BTreeSet::new();
        points
            .into_iter()
            .filter(|p| seen.insert(point_words(p)))
            .collect()
    }

    /// The planned grid: the whole candidate list, then the dedup.
    pub(crate) fn sample_points(trainer: &Trainer, top_n: usize) -> Vec<SpacePoint> {
        dedup_points(candidates(trainer, top_n))
    }

    /// FNV-1a over a word stream (campaign fingerprinting, store sample keys).
    pub(crate) fn fnv1a(words: &[u64]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for w in words {
            for b in w.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// Bit-exact key of an app half (for baseline caching).
    fn app_bits(app: &AppPoint) -> Vec<u64> {
        let a = app.normalized();
        vec![
            a.nprocs as u64,
            a.io_procs as u64,
            crate::features::api_code(a.api) as u64,
            a.iterations as u64,
            a.data_size.to_bits(),
            a.request_size.to_bits(),
            u64::from(a.op == acic_fsim::IoOp::Write),
            u64::from(a.collective),
            u64::from(a.shared_file),
        ]
    }

    /// Bit-exact key of a whole point.
    pub(crate) fn point_bits(p: &SpacePoint) -> Vec<u64> {
        let mut k: Vec<u64> = encode(&p.system, &p.app).iter().map(|v| v.to_bits()).collect();
        k.extend(app_bits(&p.app));
        k
    }

    /// Write one observation as the 17 tab-separated fields shared by the
    /// database text format, the checkpoint journal, and the store's sample
    /// lines — the one place that format is spelled out.
    pub(crate) fn write_point(out: &mut impl std::fmt::Write, p: &TrainingPoint) -> std::fmt::Result {
        let sys = &p.system;
        let app = &p.app;
        write!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            crate::features::device_code(sys.device) as u8,
            matches!(sys.fs, acic_fsim::FsType::Pvfs2) as u8,
            matches!(sys.instance_type, acic_cloudsim::instance::InstanceType::Cc2_8xlarge) as u8,
            sys.io_servers,
            matches!(sys.placement, acic_cloudsim::cluster::Placement::Dedicated) as u8,
            sys.stripe_size,
            app.nprocs,
            app.io_procs,
            crate::features::api_code(app.api) as u8,
            app.iterations,
            app.data_size,
            app.request_size,
            matches!(app.op, acic_fsim::IoOp::Write) as u8,
            app.collective as u8,
            app.shared_file as u8,
            p.perf_improvement,
            p.cost_improvement,
        )
    }

    /// [`write_point`] into a fresh `String`.
    pub(crate) fn point_to_line(p: &TrainingPoint) -> String {
        let mut line = String::new();
        write_point(&mut line, p).expect("writing to a String cannot fail");
        line
    }

    /// Floats every formatter path must agree on: signed zeros,
    /// infinities, NaN, subnormals, the 2^53 boundary of the integer-digit
    /// path, and values `{}` prints in long plain notation.
    const SPECIAL_F64: [f64; 17] = [
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        5e-324,
        -2.225_073_858_507_201e-308,
        9_007_199_254_740_991.0,
        9_007_199_254_740_992.0,
        9_007_199_254_740_994.0,
        -9_007_199_254_740_991.0,
        1e21,
        1e-7,
        0.1 + 0.2,
        -2.5,
        1.0 / 3.0,
        f64::MAX,
    ];

    /// Any `f64`: one of [`SPECIAL_F64`], an arbitrary bit pattern, an
    /// integral value below 2^53 of either sign, or a short decimal.
    pub(crate) fn any_f64() -> impl Strategy<Value = f64> {
        (0..SPECIAL_F64.len() + 4, 0u64..=u64::MAX).prop_map(|(pick, bits)| {
            match pick.checked_sub(SPECIAL_F64.len()) {
                None => SPECIAL_F64[pick],
                Some(0) | Some(1) => f64::from_bits(bits),
                Some(2) => {
                    let v = (bits >> 11) as f64;
                    if bits & 1 == 1 { -v } else { v }
                }
                _ => (bits % 2_000_000) as f64 / 1000.0 - 1000.0,
            }
        })
    }

    /// Any `u64`: the whole range, small counts, and the boundaries where
    /// an `f64` parse stops being exact.
    pub(crate) fn any_u64() -> impl Strategy<Value = u64> {
        const SPECIAL: [u64; 7] = [0, 1, 9, 10, (1 << 53) - 1, (1 << 53) + 1, u64::MAX];
        (0..SPECIAL.len() + 3, 0u64..=u64::MAX).prop_map(|(pick, bits)| {
            match pick.checked_sub(SPECIAL.len()) {
                None => SPECIAL[pick],
                Some(0) => bits,
                _ => bits % 100_000,
            }
        })
    }

    /// A training point with every field drawn over its whole domain.
    pub(crate) fn any_point() -> impl Strategy<Value = TrainingPoint> {
        use acic_cloudsim::cluster::Placement;
        use acic_cloudsim::device::DeviceKind;
        use acic_cloudsim::instance::InstanceType;
        use acic_fsim::{FsType, IoApi, IoOp};
        let system = (0usize..3, 0u8..8, any_u64(), any_f64());
        let app = (any_u64(), any_u64(), 0usize..4, any_u64(), any_f64(), any_f64(), 0u8..8);
        (system, app, any_f64(), any_f64()).prop_map(
            |((device, sys_flags, io_servers, stripe_size), app, perf, cost)| {
                let (nprocs, io_procs, api, iterations, data_size, request_size, app_flags) = app;
                TrainingPoint {
                    system: SystemConfig {
                        device: [DeviceKind::Ebs, DeviceKind::Ephemeral, DeviceKind::Ssd][device],
                        fs: if sys_flags & 1 == 1 { FsType::Pvfs2 } else { FsType::Nfs },
                        instance_type: if sys_flags & 2 == 2 {
                            InstanceType::Cc2_8xlarge
                        } else {
                            InstanceType::Cc1_4xlarge
                        },
                        io_servers: io_servers as usize,
                        placement: if sys_flags & 4 == 4 {
                            Placement::Dedicated
                        } else {
                            Placement::PartTime
                        },
                        stripe_size,
                    },
                    app: AppPoint {
                        nprocs: nprocs as usize,
                        io_procs: io_procs as usize,
                        api: [IoApi::Posix, IoApi::MpiIo, IoApi::Hdf5, IoApi::NetCdf][api],
                        iterations: iterations as usize,
                        data_size,
                        request_size,
                        op: if app_flags & 1 == 1 { IoOp::Write } else { IoOp::Read },
                        collective: app_flags & 2 == 2,
                        shared_file: app_flags & 4 == 4,
                    },
                    perf_improvement: perf,
                    cost_improvement: cost,
                }
            },
        )
    }

    /// `p` moved into the domain the text codec round-trips exactly: its
    /// integer fields parse through `f64`, so they are kept below 2^53,
    /// and `{}` prints every NaN as `NaN`, so NaN configuration sizes
    /// (which the key covers) become 0.  NaN improvements stay; they come
    /// back as NaN.
    pub(crate) fn lossless(mut p: TrainingPoint) -> TrainingPoint {
        let int = |v: usize| v & ((1 << 53) - 1);
        let size = |x: f64| if x.is_nan() { 0.0 } else { x };
        p.system.io_servers = int(p.system.io_servers);
        p.system.stripe_size = size(p.system.stripe_size);
        p.app.nprocs = int(p.app.nprocs);
        p.app.io_procs = int(p.app.io_procs);
        p.app.iterations = int(p.app.iterations);
        p.app.data_size = size(p.app.data_size);
        p.app.request_size = size(p.app.request_size);
        p
    }

    /// Equal fields, floats compared by bits (any NaN matching any NaN:
    /// `{}` prints every NaN as `NaN`).
    pub(crate) fn same_bits(a: &TrainingPoint, b: &TrainingPoint) -> bool {
        let f = |x: f64, y: f64| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan());
        a.system.device == b.system.device
            && a.system.fs == b.system.fs
            && a.system.instance_type == b.system.instance_type
            && a.system.io_servers == b.system.io_servers
            && a.system.placement == b.system.placement
            && f(a.system.stripe_size, b.system.stripe_size)
            && a.app.nprocs == b.app.nprocs
            && a.app.io_procs == b.app.io_procs
            && a.app.api == b.app.api
            && a.app.iterations == b.app.iterations
            && f(a.app.data_size, b.app.data_size)
            && f(a.app.request_size, b.app.request_size)
            && a.app.op == b.app.op
            && a.app.collective == b.app.collective
            && a.app.shared_file == b.app.shared_file
            && f(a.perf_improvement, b.perf_improvement)
            && f(a.cost_improvement, b.cost_improvement)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The digit-loop writer renders every point byte for byte as the
        /// `write!` oracle does, keys fold exactly the words the
        /// allocating oracle hashed, and the db text parses back to the
        /// same bits.
        #[test]
        fn point_codec_matches_the_format_string_oracle(
            p in oracle::any_point(),
            q in oracle::any_point(),
            stats in (oracle::any_f64(), oracle::any_f64()),
        ) {
            let mut line = Vec::new();
            write_point(&mut line, &p);
            prop_assert_eq!(String::from_utf8(line).unwrap(), oracle::point_to_line(&p));
            let sp = SpacePoint { system: p.system, app: p.app };
            prop_assert_eq!(point_key(&sp), oracle::fnv1a(&oracle::point_bits(&sp)));

            let db =
                TrainingDb { points: vec![p, q], collect_secs: stats.0, collect_cost_usd: stats.1 };
            let want = format!(
                "acic-db v1\ncollect_secs={} collect_cost_usd={}\n{}\n{}\n",
                stats.0,
                stats.1,
                oracle::point_to_line(&p),
                oracle::point_to_line(&q)
            );
            prop_assert_eq!(db.to_text(), want);

            let lossless = TrainingDb {
                points: vec![oracle::lossless(p), oracle::lossless(q)],
                ..db
            };
            let back = TrainingDb::from_text(&lossless.to_text()).unwrap();
            prop_assert_eq!(back.points.len(), 2);
            for (a, b) in back.points.iter().zip(&lossless.points) {
                prop_assert!(oracle::same_bits(a, b), "{:?} came back as {:?}", b, a);
            }
        }

        /// Campaign fingerprints and point dedup fold the same words the
        /// word-vector oracle collected.
        #[test]
        fn campaign_keys_match_the_word_vector_oracle(
            points in prop::collection::vec(oracle::any_point(), 0..6),
            seed in oracle::any_u64(),
            faults in (oracle::any_f64(), oracle::any_f64(), oracle::any_f64()),
        ) {
            let mut points: Vec<SpacePoint> =
                points.iter().map(|p| SpacePoint { system: p.system, app: p.app }).collect();
            let trainer = Trainer::with_paper_ranking(seed).with_faults(FaultPlan {
                phase_fail_prob: faults.0,
                retry_penalty_secs: faults.1,
                abort_prob: faults.2,
            });
            let mut words = vec![
                trainer.seed,
                trainer.faults.phase_fail_prob.to_bits(),
                trainer.faults.retry_penalty_secs.to_bits(),
                trainer.faults.abort_prob.to_bits(),
                u64::from(trainer.retry.max_retries),
                trainer.retry.backoff_base_secs.to_bits(),
                trainer.retry.backoff_factor.to_bits(),
                trainer.retry.point_budget_secs.to_bits(),
                points.len() as u64,
            ];
            for p in &points {
                words.extend(oracle::point_bits(p));
            }
            prop_assert_eq!(trainer.campaign_id(&points).fingerprint, oracle::fnv1a(&words));

            points.extend(points.clone());
            let mut seen = std::collections::BTreeSet::new();
            let want: Vec<SpacePoint> =
                points.iter().copied().filter(|p| seen.insert(oracle::point_bits(p))).collect();
            // Debug text, so NaN sizes compare equal.
            prop_assert_eq!(format!("{:?}", dedup_points(points)), format!("{want:?}"));
        }
    }

    /// Same length, and the same fields at every position, floats by bits.
    fn same_plan(a: &[SpacePoint], b: &[SpacePoint]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(p, q)| same_field_bits(p, q))
    }

    /// A ranking of up to eight parameters, drawn with repeats.
    fn ranking_with_repeats() -> impl Strategy<Value = Vec<ParamId>> {
        prop::collection::vec(0usize..ParamId::ALL.len(), 0..9)
            .prop_map(|ix| ix.into_iter().map(|i| ParamId::ALL[i]).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Under any ranking, the streaming planner plans the oracle's
        /// points in the oracle's order at every `top_n` up to 8.
        #[test]
        fn streaming_plan_matches_the_list_then_set_oracle(
            keys in prop::collection::vec(0u64..=u64::MAX, ParamId::ALL.len()),
        ) {
            let mut ranking: Vec<(u64, ParamId)> = keys.into_iter().zip(ParamId::ALL).collect();
            ranking.sort();
            let t = Trainer::new(ranking.into_iter().map(|(_, p)| p).collect(), 1);
            for top_n in 0..=8 {
                let got = t.sample_points(top_n);
                prop_assert!(same_plan(&got, &oracle::sample_points(&t, top_n)), "top_n {}", top_n);
            }
        }

        /// A parameter ranked twice takes its later dimension's value, as
        /// applying every dimension in order does.
        #[test]
        fn repeated_parameters_plan_as_the_oracle_does(ranking in ranking_with_repeats()) {
            let t = Trainer::new(ranking, 1);
            let n = t.ranking.len();
            prop_assert!(same_plan(&t.sample_points(n), &oracle::sample_points(&t, n)));
        }

        /// With every point forced into one slot, or two, the dedup keeps
        /// exactly the oracle's points, NaN sizes and signed zeros included;
        /// normalized copies have equal words but different fields.
        #[test]
        fn forced_collisions_dedup_arbitrary_points_as_the_oracle_does(
            points in prop::collection::vec(oracle::any_point(), 0..8),
        ) {
            let mut points: Vec<SpacePoint> =
                points.iter().map(|p| SpacePoint { system: p.system, app: p.app }).collect();
            let normalized: Vec<SpacePoint> = points.iter().map(|p| p.normalized()).collect();
            points.extend(normalized);
            points.extend(points.clone());
            let want = oracle::dedup_points(points.clone());
            prop_assert!(same_plan(&dedup_points_by(points.clone(), |_| 0), &want));
            prop_assert!(same_plan(&dedup_points_by(points.clone(), |w| w[0] & 1), &want));
            prop_assert!(same_plan(&dedup_points(points), &want));
        }
    }

    #[test]
    fn paper_plans_match_the_list_then_set_oracle() {
        let t = Trainer::with_paper_ranking(1);
        for top_n in 0..=12 {
            let want = oracle::sample_points(&t, top_n);
            assert!(same_plan(&t.sample_points(top_n), &want), "top_n {top_n}");
        }
    }

    #[test]
    fn forced_collisions_dedup_the_paper_grid_as_the_oracle_does() {
        let t = Trainer::with_paper_ranking(1);
        for top_n in 0..=6 {
            let candidates = oracle::candidates(&t, top_n);
            let want = oracle::dedup_points(candidates.clone());
            assert!(same_plan(&dedup_points_by(candidates, |_| 0), &want), "{top_n}");
        }
    }

    /// The point counts and campaign fingerprints the list-then-set
    /// planner gave the paper-ranked grid at campaign scale.
    #[test]
    fn paper_plans_keep_their_campaign_fingerprints() {
        let t = Trainer::with_paper_ranking(20131117);
        for (dims, points, fingerprint) in [
            (12, 12_768, 0xf8c1_9cb6_8d42_a74a),
            (13, 38_304, 0xc762_4697_a9a6_577e),
            (14, 190_152, 0xeb3e_6ed9_e9ef_8361),
            (15, 380_304, 0xbac2_f047_b4d9_f4d3),
        ] {
            let id = t.campaign_id(&t.sample_points(dims));
            assert_eq!((id.points, id.fingerprint), (points, fingerprint), "{dims} dims");
        }
    }

    #[test]
    fn paper_ranking_starts_with_data_size_and_op() {
        let t = Trainer::with_paper_ranking(1);
        assert_eq!(t.ranking[0], ParamId::DataSize);
        assert_eq!(t.ranking[1], ParamId::ReadWrite);
        assert_eq!(t.ranking[2], ParamId::IoServers);
        assert_eq!(t.ranking.len(), 15);
    }

    #[test]
    fn sample_points_grow_with_top_n() {
        let t = Trainer::with_paper_ranking(1);
        let p1 = t.sample_points(1).len();
        let p3 = t.sample_points(3).len();
        let p5 = t.sample_points(5).len();
        assert!(p1 < p3 && p3 < p5, "{p1} {p3} {p5}");
        // Top-1 = data size alone: 6 values.
        assert_eq!(p1, 6);
    }

    #[test]
    fn sampled_points_are_valid_and_unique() {
        let t = Trainer::with_paper_ranking(1);
        let pts = t.sample_points(6);
        for p in &pts {
            assert!(p.is_valid());
        }
        let mut keys: Vec<_> = pts.iter().map(point_words).collect();
        let before = keys.len();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), before, "duplicates survived dedup");
    }

    #[test]
    fn collect_produces_improvements_and_costs() {
        let t = Trainer::with_paper_ranking(7);
        let db = t.collect(2).unwrap();
        assert!(!db.is_empty());
        assert!(db.collect_secs > 0.0);
        assert!(db.collect_cost_usd > 0.0);
        for p in &db.points {
            assert!(p.perf_improvement > 0.0 && p.perf_improvement.is_finite());
            assert!(p.cost_improvement > 0.0 && p.cost_improvement.is_finite());
        }
        // The baseline configuration itself must appear with improvement ≈ 1
        // only if sampled; weaker invariant: some point beats the baseline.
        assert!(db.points.iter().any(|p| p.perf_improvement > 1.0));
    }

    #[test]
    fn merge_and_age() {
        let t = Trainer::with_paper_ranking(3);
        let mut a = t.collect(1).unwrap();
        let b = t.collect(2).unwrap();
        let (la, lb) = (a.len(), b.len());
        let cost_sum = a.collect_cost_usd + b.collect_cost_usd;
        a.merge(b);
        assert_eq!(a.len(), la + lb);
        assert!((a.collect_cost_usd - cost_sum).abs() < 1e-12);
        a.age_to(4);
        assert_eq!(a.len(), 4);
    }

    #[test]
    fn to_dataset_has_matching_rows_and_targets() {
        let t = Trainer::with_paper_ranking(5);
        let db = t.collect(2).unwrap();
        let ds = db.to_dataset(Objective::Performance);
        assert_eq!(ds.len(), db.len());
        let ds_cost = db.to_dataset(Objective::Cost);
        assert_eq!(ds_cost.len(), db.len());
    }

    #[test]
    fn codec_round_trips() {
        let t = Trainer::with_paper_ranking(5);
        let db = t.collect(3).unwrap();
        let text = db.to_text();
        let back = TrainingDb::from_text(&text).unwrap();
        assert_eq!(back.len(), db.len());
        assert!((back.collect_cost_usd - db.collect_cost_usd).abs() < 1e-9);
        for (a, b) in db.points.iter().zip(&back.points) {
            assert_eq!(a.system, b.system);
            assert_eq!(a.app, b.app);
            assert_eq!(a.perf_improvement, b.perf_improvement);
            assert_eq!(a.cost_improvement, b.cost_improvement);
        }
    }

    #[test]
    fn codec_rejects_garbage() {
        assert!(matches!(TrainingDb::from_text(""), Err(AcicError::Codec { line: 1, .. })));
        assert!(TrainingDb::from_text("acic-db v2\n").is_err());
        assert!(TrainingDb::from_text("acic-db v1\ncollect_secs=0 collect_cost_usd=0\n1\t2\n")
            .is_err());
        let bad_num = "acic-db v1\ncollect_secs=0 collect_cost_usd=0\n\
                       x\t0\t1\t1\t1\t0\t64\t64\t1\t10\t1e6\t1e6\t1\t0\t1\t1.0\t1.0\n";
        assert!(TrainingDb::from_text(bad_num).is_err());
        // A db cut inside its last field: the shorter number would parse.
        let text = Trainer::with_paper_ranking(5).collect(3).unwrap().to_text();
        let cut = TrainingDb::from_text(&text[..text.len() - 3]);
        assert!(matches!(cut, Err(AcicError::Codec { .. })), "{cut:?}");
    }

    #[test]
    fn collection_is_deterministic_per_seed() {
        let t = Trainer::with_paper_ranking(11);
        let a = t.collect(2).unwrap();
        let b = t.collect(2).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn faulted_collection_retries_and_still_completes() {
        // The paper's observed rate, cranked up so aborts are certain to
        // appear in a small campaign.
        let plan = FaultPlan { phase_fail_prob: 0.05, retry_penalty_secs: 35.0, abort_prob: 0.5 };
        let t = Trainer::with_paper_ranking(13).with_faults(plan);
        let points = t.sample_points(2);
        let c = t.collect_with(&points, &CollectOptions::default()).unwrap();
        assert_eq!(c.db.len(), points.len(), "retries must save every point");
        assert!(c.report.is_complete());
        assert!(c.report.aborts > 0, "this plan must produce aborts");
        assert_eq!(c.report.retries, c.report.aborts, "every abort retried");
        assert!(c.report.backoff_secs > 0.0);
        // Fault overhead is charged to the campaign clock.
        let clean = Trainer::with_paper_ranking(13).collect(2).unwrap();
        assert!(c.db.collect_secs > clean.collect_secs);
    }

    #[test]
    fn hopeless_faults_skip_and_record_instead_of_failing() {
        let plan = FaultPlan { phase_fail_prob: 1.0, retry_penalty_secs: 35.0, abort_prob: 1.0 };
        let t = Trainer::with_paper_ranking(5)
            .with_faults(plan)
            .with_retry(RetryPolicy { max_retries: 2, ..RetryPolicy::DEFAULT });
        let points = t.sample_points(1);
        let c = t.collect_with(&points, &CollectOptions::default()).unwrap();
        assert!(c.db.is_empty(), "every run aborts, nothing collectable");
        assert_eq!(c.report.skipped.len(), points.len());
        assert!(!c.report.is_complete());
        for sk in &c.report.skipped {
            assert!(sk.error.is_transient(), "terminal error is the injected fault");
        }
        // The baseline runs' wasted attempts are still accounted.
        assert!(c.report.wasted_secs > 0.0);
        assert!(c.report.aborts > 0);

        // Strict mode (the legacy `collect_points` path) surfaces the error.
        let err = t.collect_points(&points).unwrap_err();
        assert!(err.is_transient());
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let plan = FaultPlan { phase_fail_prob: 1.0, retry_penalty_secs: 35.0, abort_prob: 1.0 };
        let t = Trainer::with_paper_ranking(5).with_faults(plan).with_retry(RetryPolicy {
            max_retries: 50,
            point_budget_secs: 10.0,
            ..RetryPolicy::DEFAULT
        });
        let points = t.sample_points(1);
        let c = t.collect_with(&points, &CollectOptions::default()).unwrap();
        assert_eq!(c.report.skipped.len(), points.len());
        for sk in &c.report.skipped {
            assert!(sk.error.to_string().contains("budget"), "{}", sk.error);
            assert!(sk.attempts < 51, "budget must stop retries early");
        }
    }

    #[test]
    fn faulted_collection_is_deterministic_per_seed() {
        let t = Trainer::with_paper_ranking(11).with_faults(FaultPlan::papers_observed_rate());
        let points = t.sample_points(2);
        let a = t.collect_with(&points, &CollectOptions::default()).unwrap();
        let b = t.collect_with(&points, &CollectOptions::default()).unwrap();
        assert_eq!(a.db, b.db);
        assert_eq!(a.report, b.report);
    }

    #[test]
    fn metrics_observe_the_campaign() {
        let m = Metrics::new();
        let t = Trainer::with_paper_ranking(3);
        let points = t.sample_points(1);
        let opts = CollectOptions { metrics: Some(&m), ..Default::default() };
        let c = t.collect_with(&points, &opts).unwrap();
        assert_eq!(m.counter("train.points.attempted"), points.len() as u64);
        assert_eq!(m.counter("train.points.completed"), c.db.len() as u64);
        assert_eq!(m.counter("train.db.points"), c.db.len() as u64);
        assert!(m.total_secs("train.sim_secs") > 0.0);
    }

    #[test]
    fn concurrent_baseline_fills_stay_deterministic() {
        // Regression for the mutexed baseline cache (which cloned full
        // IorReports under the lock and could be filled racily): the
        // shared-nothing pre-stage must produce identical observations
        // AND identical baseline accounting at every worker count, under
        // faults (where per-attempt retry waste would expose any
        // schedule-dependent baseline).
        let plan = FaultPlan { phase_fail_prob: 0.05, retry_penalty_secs: 35.0, abort_prob: 0.5 };
        let t = Trainer::with_paper_ranking(99).with_faults(plan);
        // 5 dims is the smallest campaign where distinct points share app
        // halves (96 points over 24 baselines) — the sharing the Arc
        // fan-out must keep deterministic.
        let points = t.sample_points(5);
        std::env::set_var("RAYON_NUM_THREADS", "1");
        let serial = t.collect_with(&points, &CollectOptions::default()).unwrap();
        std::env::set_var("RAYON_NUM_THREADS", "8");
        let parallel = t.collect_with(&points, &CollectOptions::default()).unwrap();
        std::env::remove_var("RAYON_NUM_THREADS");
        assert_eq!(serial.db, parallel.db, "worker count changed the database");
        assert_eq!(serial.report, parallel.report, "worker count changed baseline accounting");
        assert!(serial.report.baseline_runs >= 1);
        assert!(
            points.len() > serial.report.baseline_runs,
            "campaign must share baselines across points to exercise the fan-out"
        );
    }

    #[test]
    fn campaign_id_changes_with_plan_and_points() {
        let t = Trainer::with_paper_ranking(1);
        let p1 = t.sample_points(1);
        let p2 = t.sample_points(2);
        let a = t.campaign_id(&p1);
        assert_eq!(a, t.campaign_id(&p1), "fingerprint is stable");
        assert_ne!(a.fingerprint, t.campaign_id(&p2).fingerprint);
        let faulted = Trainer::with_paper_ranking(1).with_faults(FaultPlan::papers_observed_rate());
        assert_ne!(a.fingerprint, faulted.campaign_id(&p1).fingerprint);
    }
}
