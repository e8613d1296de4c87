//! Compiled-vs-interpreted equivalence: the flat arena engine
//! ([`acic_cart::compile`]) must reproduce the pointer-walking reference
//! models **bit for bit** — same value, same std, same support — for
//! every model kind, on randomized mixed datasets and randomized query
//! rows, through both the scalar `predict` and the blocked
//! `predict_batch` paths (including batch sizes straddling the block
//! boundary and categorical codes outside the training arity).

use acic_cart::tree::Prediction;
use acic_cart::{
    build_tree, BuildParams, CompiledModel, Dataset, Feature, Forest, ForestParams, Knn, Model,
    ModelKind,
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

/// Query rows over (and beyond) the training domain: numeric values can
/// land outside the trained range and categorical codes outside the
/// declared arity — the interpreted walk routes out-of-set codes right,
/// and the compiled bitmask must route them identically.
fn query_rows() -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(
        (-5.0f64..20.0, -10.0f64..120.0, 0u32..8, 0u32..8).prop_map(|(xt, x, a, b)| {
            vec![xt, x, f64::from(a), f64::from(b)]
        }),
        // 1..=130 straddles the 64-row block boundary of predict_batch.
        1..130,
    )
}

fn assert_identical(interpreted: Prediction, compiled: Prediction) -> Result<(), TestCaseError> {
    prop_assert_eq!(interpreted.value.to_bits(), compiled.value.to_bits(), "value differs");
    prop_assert_eq!(interpreted.std.to_bits(), compiled.std.to_bits(), "std differs");
    prop_assert_eq!(interpreted.support, compiled.support, "support differs");
    Ok(())
}

/// Flatten rows and run both compiled paths (scalar + batch), checking
/// each against the interpreted per-row oracle.
fn check_model(model: &Model, rows: &[Vec<f64>]) -> Result<(), TestCaseError> {
    let compiled = CompiledModel::compile(model);
    let mut flat = Vec::new();
    for r in rows {
        flat.extend_from_slice(r);
    }
    let mut batch = Vec::new();
    compiled.predict_batch(&flat, &mut batch);
    prop_assert_eq!(batch.len(), rows.len());
    for (row, out) in rows.iter().zip(&batch) {
        let oracle = model.predict(row);
        assert_identical(oracle, compiled.predict(row))?;
        assert_identical(oracle, *out)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Single CART tree, default and overgrown params.
    #[test]
    fn compiled_tree_matches_interpreted(
        d in mixed_dataset(),
        rows in query_rows(),
        overgrow in prop::bool::ANY,
    ) {
        let params = if overgrow { BuildParams::overgrow() } else { BuildParams::default() };
        let tree = build_tree(&d, &params);
        check_model(&Model::Tree(tree), &rows)?;
    }

    /// Bagged forest: the compiled reduction must replay the training
    /// tree order, so mean/std/support come out bit-identical.
    #[test]
    fn compiled_forest_matches_interpreted(d in mixed_dataset(), rows in query_rows()) {
        let params = ForestParams { n_trees: 7, ..ForestParams::default() };
        let forest = Forest::fit(&d, &params);
        check_model(&Model::Forest(forest), &rows)?;
    }

    /// k-NN: neighbor scan order and the fold over the k nearest are
    /// preserved by the compiled row store.
    #[test]
    fn compiled_knn_matches_interpreted(d in mixed_dataset(), rows in query_rows(), k in 1usize..9) {
        let knn = Knn::fit(&d, k);
        check_model(&Model::Knn(knn), &rows)?;
    }

    /// A single-leaf model (`max_depth = 0` ⇒ the root never splits)
    /// lowers to a one-node arena — the LEAF sentinel at index 0 — and
    /// still answers identically.
    #[test]
    fn compiled_single_leaf_matches_interpreted(d in mixed_dataset(), rows in query_rows()) {
        let tree = build_tree(&d, &BuildParams { max_depth: 0, ..BuildParams::default() });
        prop_assert_eq!(tree.leaf_count(), 1);
        check_model(&Model::Tree(tree), &rows)?;
    }

    /// Every `ModelKind` through the `Model::fit` front door — the same
    /// constructor the predictor uses — stays identical under compilation.
    #[test]
    fn compiled_model_fit_matches_interpreted(
        d in mixed_dataset(),
        rows in query_rows(),
        seed in 0u64..1000,
    ) {
        for kind in [ModelKind::Cart, ModelKind::Forest { n_trees: 5 }, ModelKind::Knn { k: 4 }] {
            let model = Model::fit(&d, kind, seed);
            check_model(&model, &rows)?;
        }
    }
}
