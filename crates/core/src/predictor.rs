//! The CART-backed black-box predictor and top-k recommender (paper §4.2).
//!
//! One ranking path answers every query ([`Predictor::rank_candidates`],
//! [`Predictor::top_k`], and through them serve and the CLI): the query's
//! app half is encoded once, every deployable candidate of the cached
//! [`CandidateMatrix`] is scored into a candidate-indexed prediction
//! buffer, and a bounded select ranks them.
//!
//! Trees and forests fill the buffer through precomputed **candidate-grid
//! plans** (`CompiledModel::plan_grid`, built once at train time per
//! objective × instance type): every tree node testing a *system* feature
//! knows, as a bitmask, which candidates go left, so one query scores the
//! whole candidate grid in a single reachable-subtree walk.  k-NN (no tree
//! to plan over) fills it with one `Model::predict` per candidate.
//!
//! The pre-compilation ranking is kept verbatim as the reference oracle,
//! `Predictor::rank_candidates_interpreted`, compiled only for tests and
//! under the `oracle` cargo feature.

use crate::candidates::CandidateMatrix;
use crate::error::AcicError;
#[cfg(any(test, feature = "oracle"))]
use crate::features::encode_system_half;
use crate::features::{encode_app_half, N_FEATURES, N_SYSTEM_FEATURES};
use crate::objective::Objective;
use crate::space::{AppPoint, SystemConfig};
use crate::training::TrainingDb;
use acic_cart::render::render_with;
use acic_cart::tree::Prediction;
use acic_cart::{CompiledGrid, CompiledModel, Dataset, Model, ModelKind, Tree};
use acic_cloudsim::instance::InstanceType;
use acic_cloudsim::units::mib;
use std::cell::RefCell;
use std::panic::AssertUnwindSafe;
use std::sync::{mpsc, OnceLock};

thread_local! {
    /// Ranking scratch: (candidate-indexed predictions, packed ranking
    /// keys).  Reused across queries on the same thread, so steady-state
    /// scoring allocates only the returned `Vec`.
    static SCORE_SCRATCH: RefCell<(Vec<Prediction>, Vec<u128>)> =
        const { RefCell::new((Vec::new(), Vec::new())) };
}

/// Fit `data` on the fit helper, a thread that lives as long as the
/// process and fits one model at a time; the receiver yields the model.
///
/// One reused thread rather than a fresh one per fit: a fresh thread
/// allocates in whichever malloc arena an exited thread left behind, and
/// every arena a fit touches keeps that fit's freed scratch resident.  In
/// the `bench_e2e` `grid_hot` lifecycle a fresh scoped thread per fit read
/// 132–150 MiB peak RSS and this helper 116–121 MiB (DESIGN.md §9).
fn fit_beside(data: Dataset, kind: ModelKind, seed: u64) -> mpsc::Receiver<Model> {
    type FitJob = (Dataset, ModelKind, u64, mpsc::Sender<Model>);
    static HELPER: OnceLock<mpsc::Sender<FitJob>> = OnceLock::new();
    let helper = HELPER.get_or_init(|| {
        let (jobs, queue) = mpsc::channel::<FitJob>();
        std::thread::Builder::new()
            .name("acic-fit".into())
            .spawn(move || {
                for (data, kind, seed, reply) in queue {
                    // A fit that panics drops `reply`, which the caller
                    // reports; the helper stays up for the next fit.
                    let fit = std::panic::catch_unwind(AssertUnwindSafe(|| {
                        Model::fit(&data, kind, seed)
                    }));
                    if let Ok(model) = fit {
                        let _ = reply.send(model);
                    }
                }
            })
            .expect("spawn the fit helper thread");
        jobs
    });
    let (reply, model) = mpsc::channel();
    helper.send((data, kind, seed, reply)).expect("the fit helper runs as long as the process");
    model
}

/// A trained predictor: one regression model per objective, both
/// predicting *improvement over the baseline configuration*.  The paper's
/// model is the cross-validation-pruned CART tree ([`ModelKind::Cart`],
/// the default); the bagged forest and k-NN alternatives plug in through
/// [`Self::train_with`].
///
/// Tree models are lowered into [`CompiledModel`] form and planned over
/// the candidate grid at construction, so every clone of a trained
/// predictor (including the one captured in a `serve::ModelSnapshot` at
/// publish/hot-swap time) carries its grid plans with it.
#[derive(Debug, Clone)]
pub struct Predictor {
    model_perf: Model,
    model_cost: Model,
    /// Per objective: the compiled model and its candidate-grid routing
    /// plans per instance type, over the base [`CandidateMatrix`] system
    /// rows (None for k-NN).  A query then routes the whole candidate grid
    /// in one reachable-subtree walk instead of one row per candidate.
    grids: [Option<(CompiledModel, [CompiledGrid; 2])>; 2],
}

impl Predictor {
    /// Train both models on a database (CART with cross-validated pruning,
    /// the paper's configuration).
    pub fn train(db: &TrainingDb, seed: u64) -> Result<Self, AcicError> {
        Self::train_with(db, seed, ModelKind::Cart)
    }

    /// Train with an explicit learning algorithm.
    ///
    /// The cost objective fits on the fit helper ([`fit_beside`]) while
    /// the calling thread fits the performance objective.  A CART fit is
    /// sequential inside; a forest fans its trees out over scoped threads
    /// of whichever thread fits it, and its trees are the same at any
    /// thread count.
    pub fn train_with(db: &TrainingDb, seed: u64, kind: ModelKind) -> Result<Self, AcicError> {
        if db.is_empty() {
            return Err(AcicError::Untrained);
        }
        let cost = fit_beside(db.to_dataset(Objective::Cost), kind, seed ^ 1);
        let model_perf = Model::fit(&db.to_dataset(Objective::Performance), kind, seed);
        let model_cost = cost.recv().expect("the cost-objective fit panicked on the fit helper");
        let plan = |model: &Model| {
            CompiledModel::compile(model).map(|compiled| {
                let grids = InstanceType::ALL.map(|it| {
                    let grid: Vec<f64> =
                        CandidateMatrix::of(it).system_rows().iter().flatten().copied().collect();
                    compiled.plan_grid(&grid, N_SYSTEM_FEATURES)
                });
                (compiled, grids)
            })
        };
        let grids = [plan(&model_perf), plan(&model_cost)];
        Ok(Self { model_perf, model_cost, grids })
    }

    /// The model backing an objective.
    pub fn model(&self, objective: Objective) -> &Model {
        match objective {
            Objective::Performance => &self.model_perf,
            Objective::Cost => &self.model_cost,
        }
    }

    /// Access the underlying tree for an objective (Fig. 4 rendering,
    /// diagnostics).
    ///
    /// # Panics
    /// Panics when the predictor was trained with a non-CART model; use
    /// [`Self::try_tree`] or [`Self::model`] for algorithm-agnostic access.
    pub fn tree(&self, objective: Objective) -> &Tree {
        self.try_tree(objective).expect("tree() requires a CART-backed predictor")
    }

    /// The underlying tree, or `None` when the predictor was trained with a
    /// non-CART model (forest, k-NN).
    pub fn try_tree(&self, objective: Objective) -> Option<&Tree> {
        self.model(objective).as_tree()
    }

    /// Rank all candidate configurations for `app` by predicted
    /// improvement; returns `(config, predicted_improvement)` sorted best
    /// first, only configurations deployable at the app's scale.
    ///
    /// "ACIC joins the application's I/O characteristics with all candidate
    /// I/O system configurations considered, as the input to the CART
    /// model ... a full exploration of system configuration space is
    /// affordable here" (§4.2).
    ///
    /// Candidates, their encoded system halves, notations, and the scale
    /// validity bits all come precomputed from the [`CandidateMatrix`]; the
    /// app half is encoded once; the whole grid is scored into
    /// thread-local scratch.  Result-identical (bit for bit) to the
    /// interpreted oracle, `Self::rank_candidates_interpreted`.
    pub fn rank_candidates(
        &self,
        app: &AppPoint,
        objective: Objective,
        instance_type: InstanceType,
    ) -> Vec<(SystemConfig, f64)> {
        // Full ranking = top-k with k past the end.
        self.ranked(app, objective, instance_type, usize::MAX)
    }

    /// The interpreted reference ranking — the pre-compilation
    /// implementation, kept verbatim as the oracle the ranking path is
    /// differential-tested against.  Same results, bit for bit; one model
    /// walk and one notation `String` per candidate per call.  Compiled
    /// only for tests and under the `oracle` feature.
    #[cfg(any(test, feature = "oracle"))]
    pub fn rank_candidates_interpreted(
        &self,
        app: &AppPoint,
        objective: Objective,
        instance_type: InstanceType,
    ) -> Vec<(SystemConfig, f64)> {
        let model = self.model(objective);
        let mut row = [0.0f64; N_FEATURES];
        row[N_SYSTEM_FEATURES..].copy_from_slice(&encode_app_half(app));
        let mut scored: Vec<(SystemConfig, f64, String)> = SystemConfig::candidates(instance_type)
            .into_iter()
            .filter(|c| c.valid_for(app.nprocs))
            .map(|c| {
                row[..N_SYSTEM_FEATURES].copy_from_slice(&encode_system_half(&c));
                let imp = model.predict(&row).value;
                let key = c.notation();
                (c, imp, key)
            })
            .collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.2.cmp(&b.2)));
        scored.into_iter().map(|(c, imp, _)| (c, imp)).collect()
    }

    /// The top-k recommendation list (paper: "ACIC can be configured to
    /// report the top k predicted optimized candidates").
    ///
    /// `k` is **clamped to at least 1**: a `k = 0` query answers with the
    /// single best candidate rather than an empty list (the CLI and the
    /// serve path both rank through here, and the result-cache identity
    /// `CacheKey::new` shares this clamp, so a `k = 0` request is the same
    /// query as `k = 1` everywhere).  `k` larger than the
    /// deployable candidate count returns the full ranking.
    ///
    /// The list is produced by a bounded partial select
    /// (`select_nth_unstable` on the packed ranking keys, then a sort of
    /// the k survivors) rather than a full sort — valid because the ranking
    /// comparator is a total order (notation strings are unique), so the
    /// k-prefix of the full sort and the selected k coincide exactly, ties
    /// included.
    pub fn top_k(
        &self,
        app: &AppPoint,
        objective: Objective,
        instance_type: InstanceType,
        k: usize,
    ) -> Vec<(SystemConfig, f64)> {
        self.ranked(app, objective, instance_type, k.max(1))
    }

    /// Rank one query's deployable candidates: score them into the
    /// candidate-indexed buffer — through the candidate-grid plan (one
    /// reachable-subtree walk) when the model has one, else one
    /// `Model::predict` per candidate (k-NN) — then select the top `k`.
    /// The shared tail of [`Self::rank_candidates`] and [`Self::top_k`].
    fn ranked(
        &self,
        app: &AppPoint,
        objective: Objective,
        instance_type: InstanceType,
        k: usize,
    ) -> Vec<(SystemConfig, f64)> {
        let matrix = CandidateMatrix::of(instance_type);
        let active = matrix.validity_bits(app.nprocs);
        let app_half = encode_app_half(app);
        SCORE_SCRATCH.with(|scratch| {
            let (preds, keys) = &mut *scratch.borrow_mut();
            if let Some((model, grid)) = self.grid(objective, instance_type) {
                model.predict_grid(grid, &app_half, active, preds);
            } else {
                let model = self.model(objective);
                let mut row = [0.0f64; N_FEATURES];
                row[N_SYSTEM_FEATURES..].copy_from_slice(&app_half);
                preds.clear();
                preds.resize(matrix.len(), Prediction { value: 0.0, std: 0.0, support: 0 });
                for (i, sys_row) in matrix.system_rows().iter().enumerate() {
                    if active >> i & 1 == 1 {
                        row[..N_SYSTEM_FEATURES].copy_from_slice(sys_row);
                        preds[i] = model.predict(&row);
                    }
                }
            }
            select_ranked_masked(matrix, preds, active, k, keys)
        })
    }

    /// The compiled model and its candidate-grid plan for `objective` on
    /// `instance_type` (None for k-NN — no tree to plan over).
    fn grid(
        &self,
        objective: Objective,
        instance_type: InstanceType,
    ) -> Option<(&CompiledModel, &CompiledGrid)> {
        let oi = match objective {
            Objective::Performance => 0,
            Objective::Cost => 1,
        };
        let ii = match instance_type {
            InstanceType::Cc1_4xlarge => 0,
            InstanceType::Cc2_8xlarge => 1,
        };
        self.grids[oi].as_ref().map(|(model, grids)| (model, &grids[ii]))
    }

    /// Render the model tree in the paper's Figure 4 style, with feature
    /// values printed as their domain labels.
    pub fn render_tree(&self, objective: Objective) -> String {
        let schema = crate::features::schema();
        render_with(self.tree(objective), &move |feature, value| {
            match schema[feature].name.as_str() {
                "DEVICE" => ["EBS", "ephemeral", "ssd"][value as usize].to_string(),
                "FILE_SYSTEM" => ["NFS", "PVFS2"][value as usize].to_string(),
                "INSTANCE_TYPE" => ["cc1.4xlarge", "cc2.8xlarge"][value as usize].to_string(),
                "PLACEMENT" => ["part-time", "dedicated"][value as usize].to_string(),
                "IO_INTERFACE" => ["POSIX", "MPI-IO", "HDF5", "netCDF"][value as usize].to_string(),
                "READ_WRITE" => ["read", "write"][value as usize].to_string(),
                "COLLECTIVE" | "FILE_SHARING" => ["no", "yes"][value as usize].to_string(),
                "STRIPE_SIZE" | "DATA_SIZE" | "REQUEST_SIZE" => {
                    if value >= mib(1.0) {
                        format!("{:.0}MB", value / mib(1.0))
                    } else {
                        format!("{:.0}KB", value / 1024.0)
                    }
                }
                _ => format!("{value:.0}"),
            }
        })
    }
}

/// Select and sort the top `k` of one query's candidate-indexed
/// predictions — the shared tail of [`Predictor::top_k`] and
/// [`Predictor::rank_candidates`] (`k = usize::MAX`).  The scored
/// candidates are the set bits of `active`; `preds` is aligned with the
/// full candidate enumeration (how [`CompiledModel::predict_grid`] fills
/// it).  `keys` is caller scratch, reused across queries.
///
/// The ranking order is predicted improvement **descending** (by
/// `f64::total_cmp`), then notation **ascending** — the same order the
/// interpreted oracle sorts by, with the notation compare done on the
/// matrix's precomputed integer ranks (order-isomorphic to the strings).
/// Each candidate is packed into one `u128` sort key — the descending
/// `total_cmp` image of the predicted value in the high 64 bits, the
/// notation rank next, the candidate index last — so selection and sort
/// run on plain integers instead of an indirect comparator.  The bit
/// transform is the same monotone image `total_cmp` compares, and ranks
/// are unique per candidate so the trailing index never decides (it only
/// makes keys distinct).  Totality of this order is what lets `top_k`
/// partial-select instead of full-sorting.
fn select_ranked_masked(
    matrix: &CandidateMatrix,
    preds: &[Prediction],
    active: u64,
    k: usize,
    keys: &mut Vec<u128>,
) -> Vec<(SystemConfig, f64)> {
    keys.clear();
    let mut m = active;
    while m != 0 {
        let i = m.trailing_zeros() as usize;
        m &= m - 1;
        keys.push(ranking_key(preds[i].value, matrix.notation_rank(i), i));
    }
    top_of(keys, k);
    keys.iter()
        .map(|&key| {
            let i = (key & 0xffff_ffff) as usize;
            (matrix.configs()[i], preds[i].value)
        })
        .collect()
}

/// Pack one scored row into its `u128` ranking key: the descending
/// `f64::total_cmp` image of the predicted value in the high 64 bits, the
/// notation rank next, the candidate index last.
#[inline]
fn ranking_key(value: f64, rank: u32, idx: usize) -> u128 {
    let bits = value.to_bits() as i64;
    // f64::total_cmp's monotone i64 image, lifted to u64 and complemented
    // so larger values sort first.
    let tc = bits ^ ((((bits >> 63) as u64) >> 1) as i64);
    let desc = !((tc as u64) ^ (1u64 << 63));
    ((desc as u128) << 64) | ((rank as u128) << 32) | idx as u128
}

/// Keep the sorted `k` smallest keys (= best-ranked rows), partial-selecting
/// first when that drops anything.
#[inline]
fn top_of(keys: &mut Vec<u128>, k: usize) {
    if k < keys.len() {
        keys.select_nth_unstable(k - 1);
        keys.truncate(k);
    }
    keys.sort_unstable();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::SpacePoint;
    use crate::training::Trainer;
    use acic_cloudsim::units::kib;

    fn small_db() -> TrainingDb {
        Trainer::with_paper_ranking(5).collect(4).unwrap()
    }

    #[test]
    fn untrained_predictor_is_an_error() {
        assert!(matches!(
            Predictor::train(&TrainingDb::default(), 1),
            Err(AcicError::Untrained)
        ));
    }

    #[test]
    fn concurrent_fits_share_the_fit_helper_and_match_fitting_alone() {
        let db = small_db();
        let rows = db.to_dataset(Objective::Performance);
        for kind in [ModelKind::Cart, ModelKind::Forest { n_trees: 5 }] {
            let alone = [(Objective::Performance, 1), (Objective::Cost, 1 ^ 1)]
                .map(|(o, seed)| (o, Model::fit(&db.to_dataset(o), kind, seed)));
            std::thread::scope(|s| {
                let fit = || Predictor::train_with(&db, 1, kind).unwrap();
                let fits: Vec<_> = (0..4).map(|_| s.spawn(fit)).collect();
                for fit in fits {
                    let p = fit.join().unwrap();
                    for (o, want) in &alone {
                        assert_eq!(p.try_tree(*o), want.as_tree(), "{kind}");
                        for i in 0..rows.len() {
                            let row = rows.row(i);
                            let (got, want) = (p.model(*o).predict(&row), want.predict(&row));
                            assert_eq!(got.value.to_bits(), want.value.to_bits(), "{kind} row {i}");
                        }
                    }
                }
            });
        }
    }

    #[test]
    fn try_tree_is_some_only_for_cart_models() {
        let db = small_db();
        let p = Predictor::train(&db, 1).unwrap();
        assert!(p.try_tree(Objective::Performance).is_some());
        assert!(p.try_tree(Objective::Cost).is_some());
        let p = Predictor::train_with(&db, 1, acic_cart::ModelKind::Knn { k: 3 }).unwrap();
        assert!(p.try_tree(Objective::Performance).is_none());
        assert!(p.try_tree(Objective::Cost).is_none());
    }

    #[test]
    fn predicts_finite_improvements_for_all_candidates() {
        let p = Predictor::train(&small_db(), 1).unwrap();
        let app = SpacePoint::default_point().app;
        for (cfg, imp) in p.rank_candidates(&app, Objective::Performance, InstanceType::Cc2_8xlarge)
        {
            assert!(imp.is_finite() && imp > 0.0, "{}: {imp}", cfg.notation());
        }
    }

    #[test]
    fn ranking_is_sorted_descending() {
        let p = Predictor::train(&small_db(), 1).unwrap();
        let app = SpacePoint::default_point().app;
        let ranked = p.rank_candidates(&app, Objective::Cost, InstanceType::Cc2_8xlarge);
        for w in ranked.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn top_k_truncates_and_keeps_order() {
        let p = Predictor::train(&small_db(), 1).unwrap();
        let app = SpacePoint::default_point().app;
        let all = p.rank_candidates(&app, Objective::Performance, InstanceType::Cc2_8xlarge);
        let top3 = p.top_k(&app, Objective::Performance, InstanceType::Cc2_8xlarge, 3);
        assert_eq!(top3.len(), 3);
        assert_eq!(top3[0].0, all[0].0);
        let top0 = p.top_k(&app, Objective::Performance, InstanceType::Cc2_8xlarge, 0);
        assert_eq!(top0.len(), 1, "k is clamped to at least 1");
    }

    #[test]
    fn candidates_respect_scale_validity() {
        let p = Predictor::train(&small_db(), 1).unwrap();
        let mut app = SpacePoint::default_point().app;
        app.nprocs = 32; // 2 cc2 instances: 4 part-time servers are invalid
        for (cfg, _) in p.rank_candidates(&app, Objective::Performance, InstanceType::Cc2_8xlarge)
        {
            assert!(cfg.valid_for(32));
        }
    }

    #[test]
    fn rendered_tree_uses_domain_labels() {
        let p = Predictor::train(&small_db(), 1).unwrap();
        let s = p.render_tree(Objective::Performance);
        assert!(s.contains("avg="), "tree renders node stats:\n{s}");
        // With data size as the dominant dimension, the tree should split
        // on a size-like feature and print it in MB/KB.
        assert!(s.contains("MB") || s.contains("KB") || s.contains("leaf"), "{s}");
    }

    #[test]
    fn alternative_models_plug_in() {
        let db = small_db();
        let app = SpacePoint::default_point().app;
        for kind in [
            acic_cart::ModelKind::Cart,
            acic_cart::ModelKind::Forest { n_trees: 9 },
            acic_cart::ModelKind::Knn { k: 7 },
        ] {
            let p = Predictor::train_with(&db, 2, kind).unwrap();
            let ranked = p.rank_candidates(&app, Objective::Performance, InstanceType::Cc2_8xlarge);
            assert!(!ranked.is_empty(), "{kind}");
            for (_, imp) in &ranked {
                assert!(imp.is_finite(), "{kind}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "requires a CART-backed predictor")]
    fn tree_access_panics_for_knn() {
        let p = Predictor::train_with(&small_db(), 1, acic_cart::ModelKind::Knn { k: 3 }).unwrap();
        let _ = p.tree(Objective::Performance);
    }

    #[test]
    fn compiled_ranking_matches_interpreted_oracle_everywhere() {
        // The golden old-vs-new equivalence: for every (objective,
        // instance_type) pair and every model kind, the ranking path must
        // equal the interpreted reference bit for bit — same configs, same
        // order, same predicted values.  Five dimensions is the smallest
        // campaign on which k-NN scores candidates apart (at four every
        // candidate gets the same neighbours, so its system half goes
        // unchecked).
        let dbs = [small_db(), Trainer::with_paper_ranking(5).collect(5).unwrap()];
        let apps = {
            let mut base = SpacePoint::default_point().app;
            let mut small = base;
            small.nprocs = 32; // exercises the validity bits
            small.io_procs = 32;
            base.data_size = mib(512.0);
            base.collective = true;
            let mut apps = vec![SpacePoint::default_point().app, small, base];
            // Shapes that vary what the trees split on (data and request
            // size, collectivity, scale), for many root-to-leaf paths.
            for (i, data_mib) in [1.0, 4.0, 16.0, 64.0].into_iter().enumerate() {
                for req_kib in [64.0, 4096.0] {
                    let mut app = SpacePoint::default_point().app;
                    app.data_size = mib(data_mib);
                    app.request_size = kib(req_kib);
                    app.collective = i % 2 == 0;
                    app.nprocs = [16, 64, 256][i % 3];
                    app.io_procs = app.nprocs;
                    apps.push(app.normalized());
                }
            }
            apps
        };
        let kinds = [
            acic_cart::ModelKind::Cart,
            acic_cart::ModelKind::Forest { n_trees: 7 },
            acic_cart::ModelKind::Knn { k: 5 },
        ];
        for (db, kind) in dbs.iter().flat_map(|db| kinds.map(|kind| (db, kind))) {
            let p = Predictor::train_with(db, 3, kind).unwrap();
            for app in &apps {
                for objective in [Objective::Performance, Objective::Cost] {
                    for it in [InstanceType::Cc1_4xlarge, InstanceType::Cc2_8xlarge] {
                        let fast = p.rank_candidates(app, objective, it);
                        let oracle = p.rank_candidates_interpreted(app, objective, it);
                        assert_eq!(fast.len(), oracle.len(), "{kind} {objective:?} {it:?}");
                        for (f, o) in fast.iter().zip(&oracle) {
                            assert_eq!(f.0, o.0, "{kind} {objective:?} {it:?}");
                            assert_eq!(
                                f.1.to_bits(),
                                o.1.to_bits(),
                                "{kind} {objective:?} {it:?} {}",
                                f.0.notation()
                            );
                        }
                        // Partial-select top_k is the k-prefix of the full
                        // ranking for every k, ties included.
                        for k in [0usize, 1, 3, oracle.len(), oracle.len() + 5] {
                            let top = p.top_k(app, objective, it, k);
                            let want = &oracle[..k.max(1).min(oracle.len())];
                            assert_eq!(top, want, "k={k} {kind} {objective:?} {it:?}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn packed_sort_key_preserves_total_cmp_order_on_tricky_values() {
        // The u128 sort key's high 64 bits must order f64s exactly like
        // `total_cmp` descending — including signed zeros, infinities,
        // denormals, and NaNs of both signs.
        let key = |v: f64| {
            let bits = v.to_bits() as i64;
            let tc = bits ^ ((((bits >> 63) as u64) >> 1) as i64);
            !((tc as u64) ^ (1u64 << 63))
        };
        let vals = [
            f64::NEG_INFINITY,
            f64::MIN,
            -1.5,
            -5e-324,
            -0.0,
            0.0,
            5e-324,
            1.5,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        for &a in &vals {
            for &b in &vals {
                assert_eq!(
                    b.total_cmp(&a),
                    key(a).cmp(&key(b)),
                    "key order diverged from descending total_cmp for a={a:?} b={b:?}"
                );
            }
        }
    }

    #[test]
    fn trained_model_prefers_more_servers_for_big_collective_writes() {
        // Qualitative sanity (§5.6 obs 2): for a large collective MPI-IO
        // write, the top recommendation should not be a single-server
        // PVFS2 — the model must have learned that more servers help.
        let db = Trainer::with_paper_ranking(5).collect(5).unwrap();
        let p = Predictor::train(&db, 1).unwrap();
        let mut app = SpacePoint::default_point().app;
        app.data_size = mib(512.0);
        app.collective = true;
        let top = p.top_k(&app, Objective::Performance, InstanceType::Cc2_8xlarge, 1);
        let best = top[0].0;
        assert!(
            best.fs == acic_fsim::FsType::Nfs || best.io_servers >= 2,
            "single-server PVFS2 recommended for a huge write: {}",
            best.notation()
        );
    }
}
