//! A unified regression-model type so ACIC can swap learning algorithms
//! (paper §4.2: "different learning algorithms can be easily plugged in").

use crate::dataset::Dataset;
use crate::forest::{Forest, ForestParams};
use crate::knn::Knn;
use crate::prune::cross_validated_prune;
use crate::tree::{Prediction, Tree};

/// Which algorithm to fit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ModelKind {
    /// Cross-validation-pruned CART (the paper's choice).
    #[default]
    Cart,
    /// Bagged CART ensemble.
    Forest {
        /// Number of bootstrap trees.
        n_trees: usize,
    },
    /// k-nearest-neighbours regression.
    Knn {
        /// Neighbourhood size.
        k: usize,
    },
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelKind::Cart => write!(f, "CART"),
            ModelKind::Forest { n_trees } => write!(f, "forest({n_trees})"),
            ModelKind::Knn { k } => write!(f, "knn({k})"),
        }
    }
}

/// A fitted regression model of any supported kind.
#[derive(Debug, Clone)]
pub enum Model {
    /// Pruned CART tree.
    Tree(Tree),
    /// Bagged forest.
    Forest(Forest),
    /// k-NN regressor.
    Knn(Knn),
}

impl Model {
    /// Fit a model of the requested kind.
    pub fn fit(data: &Dataset, kind: ModelKind, seed: u64) -> Model {
        match kind {
            ModelKind::Cart => Model::Tree(cross_validated_prune(data, 5, seed)),
            ModelKind::Forest { n_trees } => Model::Forest(Forest::fit(
                data,
                &ForestParams { n_trees, seed, ..Default::default() },
            )),
            ModelKind::Knn { k } => Model::Knn(Knn::fit(data, k)),
        }
    }

    /// Predict for one feature row.
    pub fn predict(&self, row: &[f64]) -> Prediction {
        match self {
            Model::Tree(t) => t.predict(row),
            Model::Forest(f) => f.predict(row),
            Model::Knn(k) => k.predict(row),
        }
    }

    /// Mean squared error over a dataset.
    pub fn mse(&self, data: &Dataset) -> f64 {
        match self {
            Model::Tree(t) => t.mse(data),
            Model::Forest(f) => f.mse(data),
            Model::Knn(k) => k.mse(data),
        }
    }

    /// The underlying tree, when the model is a single CART (used by the
    /// Figure 4 renderer).
    pub fn as_tree(&self) -> Option<&Tree> {
        match self {
            Model::Tree(t) => Some(t),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Feature;
    use acic_cloudsim::rng::SplitMix64;

    fn data() -> Dataset {
        let mut d = Dataset::new(vec![Feature::numeric("x")]);
        let mut rng = SplitMix64::new(5);
        for i in 0..120 {
            let x = i as f64;
            d.push(vec![x], if x < 60.0 { 5.0 } else { 25.0 } + rng.uniform(-1.0, 1.0));
        }
        d
    }

    #[test]
    fn every_kind_fits_and_predicts() {
        let d = data();
        for kind in [ModelKind::Cart, ModelKind::Forest { n_trees: 7 }, ModelKind::Knn { k: 5 }] {
            let m = Model::fit(&d, kind, 1);
            let lo = m.predict(&[10.0]).value;
            let hi = m.predict(&[100.0]).value;
            assert!((lo - 5.0).abs() < 3.0, "{kind}: low segment {lo}");
            assert!((hi - 25.0).abs() < 3.0, "{kind}: high segment {hi}");
            assert!(m.mse(&d).is_finite());
        }
    }

    #[test]
    fn as_tree_only_for_cart() {
        let d = data();
        assert!(Model::fit(&d, ModelKind::Cart, 1).as_tree().is_some());
        assert!(Model::fit(&d, ModelKind::Knn { k: 3 }, 1).as_tree().is_none());
        assert!(Model::fit(&d, ModelKind::Forest { n_trees: 3 }, 1).as_tree().is_none());
    }

    #[test]
    fn display_names() {
        assert_eq!(ModelKind::Cart.to_string(), "CART");
        assert_eq!(ModelKind::Forest { n_trees: 25 }.to_string(), "forest(25)");
        assert_eq!(ModelKind::Knn { k: 7 }.to_string(), "knn(7)");
        assert_eq!(ModelKind::default(), ModelKind::Cart);
    }
}
