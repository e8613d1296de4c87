//! A k-nearest-neighbours regressor over mixed feature spaces.
//!
//! The second "pluggable" learning algorithm (paper §4.2: "ACIC is
//! implemented in the way that different learning algorithms can be easily
//! plugged in"; the related-work section's relative-fitness models [30]
//! are nearest-neighbour-flavoured).  Numeric features are z-normalized;
//! categorical features contribute a fixed mismatch distance.

use crate::dataset::{Dataset, FeatureKind};
use crate::tree::Prediction;

/// Distance contributed by a categorical mismatch (numeric dimensions are
/// z-scores, so 1.0 ≈ one standard deviation).
const CATEGORICAL_MISMATCH: f64 = 1.0;

/// k-NN regression model.
#[derive(Debug, Clone)]
pub struct Knn {
    k: usize,
    kinds: Vec<FeatureKind>,
    means: Vec<f64>,
    inv_stds: Vec<f64>,
    /// Normalized training rows, row-major in one contiguous buffer
    /// (`kinds.len()` cells per row), so a query scans one allocation.
    rows: Vec<f64>,
    targets: Vec<f64>,
}

impl Knn {
    /// Fit on a dataset (stores normalized copies of the rows).
    ///
    /// # Panics
    /// Panics if `data` is empty or `k` is zero.
    pub fn fit(data: &Dataset, k: usize) -> Self {
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
            .flat_map(|i| normalize(&data.row(i), &kinds, &means, &inv_stds))
            .collect();
        Self { k: k.min(data.len()), kinds, means, inv_stds, rows, targets: data.targets.clone() }
    }

    /// Predict the target for a raw (unnormalized) feature row.
    pub fn predict(&self, row: &[f64]) -> Prediction {
        let q = normalize(row, &self.kinds, &self.means, &self.inv_stds);
        // Collect the k smallest distances (linear scan; training sets are
        // tens of thousands of rows at most).
        let mut best: Vec<(f64, f64)> = Vec::with_capacity(self.k + 1); // (dist, target)
        for (r, &y) in self.rows.chunks_exact(self.kinds.len()).zip(&self.targets) {
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

    /// Mean squared error over a dataset.
    pub fn mse(&self, data: &Dataset) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let mut buf = Vec::with_capacity(data.features.len());
        let mut sum = 0.0;
        for (i, &y) in data.targets.iter().enumerate() {
            data.copy_row_into(i, &mut buf);
            let d = self.predict(&buf).value - y;
            sum += d * d;
        }
        sum / data.len() as f64
    }
}

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Feature;

    fn grid() -> Dataset {
        let mut d = Dataset::new(vec![Feature::numeric("x"), Feature::categorical("c", 2)]);
        for i in 0..40 {
            let x = i as f64;
            let c = (i % 2) as f64;
            d.push(vec![x, c], x * 2.0 + c * 100.0);
        }
        d
    }

    #[test]
    fn one_nn_memorizes_training_points() {
        let d = grid();
        let knn = Knn::fit(&d, 1);
        for i in 0..10 {
            assert_eq!(knn.predict(&d.row(i)).value, d.targets[i]);
        }
        assert_eq!(knn.mse(&d), 0.0);
    }

    #[test]
    fn categorical_mismatch_dominates_nearby_numeric() {
        let d = grid();
        let knn = Knn::fit(&d, 3);
        // Query at x=10.2, c=0: neighbours should all have c=0 (even x).
        let p = knn.predict(&[10.2, 0.0]);
        assert!(p.value < 50.0, "c=1 neighbours (+100) leaked in: {}", p.value);
    }

    #[test]
    fn larger_k_smooths_predictions() {
        let d = grid();
        // Query at the domain edge: a symmetric neighbourhood is impossible,
        // so widening k must drag the estimate away from the 1-NN value.
        let sharp = Knn::fit(&d, 1).predict(&[0.0, 0.0]).value;
        let smooth = Knn::fit(&d, 9).predict(&[0.0, 0.0]).value;
        assert_eq!(sharp, 0.0);
        assert!(smooth > sharp, "edge neighbourhood pulls upward: {smooth}");
        assert!(Knn::fit(&d, 9).predict(&[0.0, 0.0]).std > 0.0);
    }

    #[test]
    fn k_clamped_to_dataset_size() {
        let mut d = Dataset::new(vec![Feature::numeric("x")]);
        d.push(vec![1.0], 10.0);
        d.push(vec![2.0], 20.0);
        let knn = Knn::fit(&d, 100);
        let p = knn.predict(&[1.5]);
        assert_eq!(p.support, 2);
        assert_eq!(p.value, 15.0);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_rejected() {
        let _ = Knn::fit(&grid(), 0);
    }

    #[test]
    fn constant_numeric_feature_is_ignored_gracefully() {
        let mut d = Dataset::new(vec![Feature::numeric("const"), Feature::numeric("x")]);
        for i in 0..10 {
            d.push(vec![5.0, i as f64], i as f64);
        }
        let knn = Knn::fit(&d, 1);
        let p = knn.predict(&[999.0, 3.0]);
        assert_eq!(p.value, 3.0, "zero-variance feature must not produce NaN distances");
    }
}
