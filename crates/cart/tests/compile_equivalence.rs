//! Grid-plan equivalence: scoring a candidate grid through the compiled
//! arenas (`CompiledModel::predict_grid`) must reproduce the
//! pointer-walking reference models **bit for bit** — same value, same
//! std, same support — for every active grid row, on randomized mixed
//! datasets, grids of 1–64 rows split at a random prefix width, active
//! masks from none to all rows, and categorical codes past the declared
//! arity, negative, fractional or NaN, and NaN numeric cells, in both the
//! grid rows and the query suffix.
//!
//! k-NN has no compiled form: its flat row-major scan is held against the
//! previous `Vec<Vec<f64>>` implementation, kept verbatim below as the
//! oracle.

use acic_cart::tree::Prediction;
use acic_cart::{
    build_tree, BuildParams, CompiledModel, Dataset, Feature, FeatureKind, Forest, ForestParams,
    Knn, Model, ModelKind,
};
use proptest::prelude::*;

/// Random mixed dataset: tie-heavy numeric, plain numeric, and two
/// categorical features — the same shape the engine-equivalence suite
/// uses, so compiled lowering sees Le rules, In rules, and exhausted
/// features.
fn mixed_dataset() -> impl Strategy<Value = Dataset> {
    prop::collection::vec(
        ((0u32..12, 0.0f64..100.0), (0u32..3, 0u32..5), -50.0f64..50.0),
        8..80,
    )
    .prop_map(|rows| {
        let mut d = Dataset::new(vec![
            Feature::numeric("xt"),
            Feature::numeric("x"),
            Feature::categorical("a", 3),
            Feature::categorical("b", 5),
        ]);
        for ((xt, x), (a, b), y) in rows {
            d.push(vec![f64::from(xt), x, f64::from(a), f64::from(b)], y);
        }
        d
    })
}

/// A numeric cell in `lo..hi` (past the trained range at both ends), or
/// NaN, which fails every `x <= t` and so routes right.
fn numeric(lo: f64, hi: f64) -> impl Strategy<Value = f64> {
    (0u32..7, lo..hi).prop_map(|(pick, x)| if pick == 0 { f64::NAN } else { x })
}

/// A categorical cell: whole codes past the declared arity, and the
/// values no arity declares — negative, fractional, NaN — which the
/// saturating `x as u32` cast sends to 0 or truncates.
fn code() -> impl Strategy<Value = f64> {
    (0u32..9, 0u32..8, 0.0f64..8.0).prop_map(|(pick, whole, fractional)| match pick {
        0 => -1.0,
        1 => fractional,
        2 => f64::NAN,
        _ => f64::from(whole),
    })
}

/// One row over (and beyond) the training domain: the interpreted walk
/// routes out-of-set codes right, and the plan's bitmasks must route
/// every cell identically.
fn row() -> impl Strategy<Value = Vec<f64>> {
    (numeric(-5.0, 20.0), numeric(-10.0, 120.0), code(), code())
        .prop_map(|(xt, x, a, b)| vec![xt, x, a, b])
}

/// A grid of 1–64 rows supplying the first `prefix` features, queries
/// supplying the rest, and the active rows.
#[derive(Debug, Clone)]
struct GridCase {
    prefix: usize,
    grid: Vec<Vec<f64>>,
    queries: Vec<Vec<f64>>,
    active: u64,
}

fn grid_case() -> impl Strategy<Value = GridCase> {
    let rows = prop::collection::vec(row(), 1..=64);
    let queries = prop::collection::vec(row(), 1..6);
    (1usize..=4, rows, queries, 0u32..4, 0u64..=u64::MAX).prop_map(
        |(prefix, grid, queries, mode, bits)| {
            let all = u64::MAX >> (64 - grid.len());
            let active = match mode {
                0 => 0,
                1 => all,
                _ => bits & all,
            };
            GridCase { prefix, grid, queries, active }
        },
    )
}

fn assert_identical(interpreted: Prediction, compiled: Prediction) -> Result<(), TestCaseError> {
    prop_assert_eq!(interpreted.value.to_bits(), compiled.value.to_bits(), "value differs");
    prop_assert_eq!(interpreted.std.to_bits(), compiled.std.to_bits(), "std differs");
    prop_assert_eq!(interpreted.support, compiled.support, "support differs");
    Ok(())
}

/// Plan `model` over the case's grid and score every query: each active
/// row must equal the interpreted prediction of the joined row, and each
/// inactive row must stay at the zero prediction.
fn check_grid(model: &Model, case: &GridCase) -> Result<(), TestCaseError> {
    let compiled = CompiledModel::compile(model).expect("tree models compile");
    let p = case.prefix;
    let flat: Vec<f64> = case.grid.iter().flat_map(|r| r[..p].to_vec()).collect();
    let plan = compiled.plan_grid(&flat, p);
    let zero = Prediction { value: 0.0, std: 0.0, support: 0 };
    let mut out = vec![Prediction { value: f64::NAN, std: f64::NAN, support: usize::MAX }; 70];
    for query in &case.queries {
        compiled.predict_grid(&plan, &query[p..], case.active, &mut out);
        prop_assert_eq!(out.len(), case.grid.len());
        for (r, grid_row) in case.grid.iter().enumerate() {
            if case.active >> r & 1 == 0 {
                assert_identical(zero, out[r])?;
                continue;
            }
            let joined: Vec<f64> = grid_row[..p].iter().chain(&query[p..]).copied().collect();
            assert_identical(model.predict(&joined), out[r])?;
        }
    }
    Ok(())
}

/// The `Vec<Vec<f64>>` k-NN this crate shipped before its rows moved into
/// one flat buffer, kept verbatim as the flat scan's oracle.
struct RowVecKnn {
    k: usize,
    kinds: Vec<FeatureKind>,
    means: Vec<f64>,
    inv_stds: Vec<f64>,
    rows: Vec<Vec<f64>>,
    targets: Vec<f64>,
}

impl RowVecKnn {
    fn fit(data: &Dataset, k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        assert!(!data.is_empty(), "cannot fit k-NN on an empty dataset");
        let n = data.len() as f64;
        let d = data.features.len();
        let mut means = vec![0.0; d];
        let mut inv_stds = vec![1.0; d];
        for j in 0..d {
            if data.features[j].kind == FeatureKind::Numeric {
                let col = data.column(j);
                let mean = col.iter().sum::<f64>() / n;
                let var = col.iter().map(|&x| (x - mean).powi(2)).sum::<f64>() / n;
                means[j] = mean;
                inv_stds[j] = if var > 0.0 { 1.0 / var.sqrt() } else { 0.0 };
            }
        }
        let kinds: Vec<FeatureKind> = data.features.iter().map(|f| f.kind).collect();
        let rows = (0..data.len())
            .map(|i| normalize(&data.row(i), &kinds, &means, &inv_stds))
            .collect();
        Self { k: k.min(data.len()), kinds, means, inv_stds, rows, targets: data.targets.clone() }
    }

    fn predict(&self, row: &[f64]) -> Prediction {
        let q = normalize(row, &self.kinds, &self.means, &self.inv_stds);
        // Collect the k smallest distances (linear scan; training sets are
        // tens of thousands of rows at most).
        let mut best: Vec<(f64, f64)> = Vec::with_capacity(self.k + 1); // (dist, target)
        for (r, &y) in self.rows.iter().zip(&self.targets) {
            let dist = distance(&q, r, &self.kinds);
            let pos = best.partition_point(|(d, _)| *d <= dist);
            if pos < self.k {
                best.insert(pos, (dist, y));
                best.truncate(self.k);
            }
        }
        let n = best.len() as f64;
        let mean = best.iter().map(|(_, y)| y).sum::<f64>() / n;
        let var = best.iter().map(|(_, y)| (y - mean).powi(2)).sum::<f64>() / n;
        Prediction { value: mean, std: var.sqrt(), support: best.len() }
    }
}

const CATEGORICAL_MISMATCH: f64 = 1.0;

fn normalize(row: &[f64], kinds: &[FeatureKind], means: &[f64], inv_stds: &[f64]) -> Vec<f64> {
    row.iter()
        .enumerate()
        .map(|(j, &x)| match kinds[j] {
            FeatureKind::Numeric => (x - means[j]) * inv_stds[j],
            FeatureKind::Categorical { .. } => x,
        })
        .collect()
}

fn distance(a: &[f64], b: &[f64], kinds: &[FeatureKind]) -> f64 {
    let mut d2 = 0.0;
    for j in 0..a.len() {
        match kinds[j] {
            FeatureKind::Numeric => {
                let d = a[j] - b[j];
                d2 += d * d;
            }
            FeatureKind::Categorical { .. } => {
                if a[j] != b[j] {
                    d2 += CATEGORICAL_MISMATCH * CATEGORICAL_MISMATCH;
                }
            }
        }
    }
    d2.sqrt()
}

/// Every grid row and query of the case, as full rows, against the k-NN
/// oracle.
fn check_knn(knn: &Model, oracle: &RowVecKnn, case: &GridCase) -> Result<(), TestCaseError> {
    for row in case.grid.iter().chain(&case.queries) {
        assert_identical(oracle.predict(row), knn.predict(row))?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Single CART tree, default and overgrown params.
    #[test]
    fn compiled_tree_matches_interpreted(
        d in mixed_dataset(),
        case in grid_case(),
        overgrow in prop::bool::ANY,
    ) {
        let params = if overgrow { BuildParams::overgrow() } else { BuildParams::default() };
        check_grid(&Model::Tree(build_tree(&d, &params)), &case)?;
    }

    /// Bagged forest: the grid fold must replay the training tree order,
    /// so mean/std/support come out bit-identical.
    #[test]
    fn compiled_forest_matches_interpreted(d in mixed_dataset(), case in grid_case()) {
        let params = ForestParams { n_trees: 7, ..ForestParams::default() };
        check_grid(&Model::Forest(Forest::fit(&d, &params)), &case)?;
    }

    /// A single-leaf model (`max_depth = 0` ⇒ the root never splits)
    /// lowers to a one-node arena — the LEAF sentinel at index 0 — and
    /// still answers identically.
    #[test]
    fn compiled_single_leaf_matches_interpreted(d in mixed_dataset(), case in grid_case()) {
        let tree = build_tree(&d, &BuildParams { max_depth: 0, ..BuildParams::default() });
        prop_assert_eq!(tree.leaf_count(), 1);
        check_grid(&Model::Tree(tree), &case)?;
    }

    /// k-NN: the flat row scan keeps the oracle's neighbour order and its
    /// fold over the k nearest.
    #[test]
    fn flat_knn_matches_row_vector_oracle(
        d in mixed_dataset(),
        case in grid_case(),
        k in 1usize..9,
    ) {
        check_knn(&Model::Knn(Knn::fit(&d, k)), &RowVecKnn::fit(&d, k), &case)?;
    }

    /// Every `ModelKind` through the `Model::fit` front door — the same
    /// constructor the predictor uses.
    #[test]
    fn compiled_model_fit_matches_interpreted(
        d in mixed_dataset(),
        case in grid_case(),
        seed in 0u64..1000,
    ) {
        for kind in [ModelKind::Cart, ModelKind::Forest { n_trees: 5 }] {
            check_grid(&Model::fit(&d, kind, seed), &case)?;
        }
        let knn = Model::fit(&d, ModelKind::Knn { k: 4 }, seed);
        prop_assert!(CompiledModel::compile(&knn).is_none());
        check_knn(&knn, &RowVecKnn::fit(&d, 4), &case)?;
    }
}
