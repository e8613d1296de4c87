//! Top-down recursive tree induction over a presorted [`TreeFrame`].
//!
//! Growth works on `[lo, hi)` ranges of the frame's position arrays: the
//! split search sweeps the maintained per-feature sorted orders (no
//! per-node sorting) and a winning split stable-partitions the arrays in
//! place.  Recursion allocates nothing per node but the winning subset of
//! a categorical split, which the tree keeps: each node's live-feature set
//! sits in a stack buffer (on the heap only for schemas wider than
//! [`STACK_FEATURES`]), and the search and partition reuse the frame's
//! scratch.  The produced tree is bit-identical to what the reference
//! search in [`crate::split`] would build — see the invariant notes in
//! [`crate::presort`].

use crate::dataset::Dataset;
use crate::presort::TreeFrame;
use crate::tree::{Node, Tree};

/// Widest schema whose per-node live-feature set is kept on the stack.
const STACK_FEATURES: usize = 32;

/// Stopping rules for tree growth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BuildParams {
    /// Maximum depth of the tree (root = 0).
    pub max_depth: usize,
    /// Minimum rows required to attempt a split.
    pub min_split: usize,
    /// Minimum rows in each child.
    pub min_leaf: usize,
    /// Minimum fraction of the root SSE a split must remove.
    pub min_gain_frac: f64,
}

impl Default for BuildParams {
    fn default() -> Self {
        Self { max_depth: 24, min_split: 8, min_leaf: 3, min_gain_frac: 1e-6 }
    }
}

impl BuildParams {
    /// Deliberately overgrown settings, for use before cost-complexity
    /// pruning (grow big, prune back — the CART recipe).
    pub fn overgrow() -> Self {
        Self { max_depth: 30, min_split: 4, min_leaf: 2, min_gain_frac: 0.0 }
    }
}

/// Build a regression tree on all rows of `data`.
///
/// # Panics
/// Panics when `data` is empty — the caller decides what an untrained
/// model should do, not this crate.
pub fn build_tree(data: &Dataset, params: &BuildParams) -> Tree {
    assert!(!data.is_empty(), "cannot build a tree on an empty dataset");
    let rows: Vec<usize> = (0..data.len()).collect();
    build_tree_view(data, &rows, params)
}

/// Build a regression tree on a row view of `data`: the tree trains on
/// `rows[0], rows[1], ...` in that order (duplicates welcome — this is how
/// bootstrap samples and CV folds train without materializing a
/// [`Dataset::subset`] clone).  Equivalent, bit for bit, to
/// `build_tree(&data.subset(rows), params)`.
///
/// # Panics
/// Panics when `rows` is empty.
pub fn build_tree_view(data: &Dataset, rows: &[usize], params: &BuildParams) -> Tree {
    assert!(!rows.is_empty(), "cannot build a tree on an empty dataset");
    let mut frame = TreeFrame::new(data, rows);
    let n = frame.len();
    let root_sse = frame.target_sse(0, n);
    let mut nodes = Vec::new();
    let active = vec![true; data.features.len()];
    grow(&mut frame, 0, n, params, root_sse, 0, &active, None, &mut nodes);
    Tree {
        nodes,
        feature_names: data.features.iter().map(|f| f.name.clone()).collect(),
    }
}

/// Grow the subtree for the frame range `[lo, hi)`, pushing nodes into the
/// arena and returning the new subtree's root index.
// The node's own state (range, depth, active features, folded sum) beside
// the recursion's shared context: a struct would only rename the borrows.
#[allow(clippy::too_many_arguments)]
fn grow(
    frame: &mut TreeFrame,
    lo: usize,
    hi: usize,
    params: &BuildParams,
    root_sse: f64,
    depth: usize,
    active: &[bool],
    sum: Option<f64>,
    nodes: &mut Vec<Node>,
) -> usize {
    let n = hi - lo;
    // The parent's partition already folded this node's target sum while
    // routing rows; only the root computes its own.  The mean is the
    // reference's `target_mean`: that very sum over `n`.
    let sum = sum.unwrap_or_else(|| frame.node_sum(lo, hi));
    let value = sum / n as f64;

    // This node's view of the live features: the split search clears the
    // ones it finds exhausted here, and the subtree inherits the result.
    let mut stack = [false; STACK_FEATURES];
    let mut heap = Vec::new();
    let active: &mut [bool] = match stack.get_mut(..active.len()) {
        Some(live) => {
            live.copy_from_slice(active);
            live
        }
        None => {
            heap.extend_from_slice(active);
            &mut heap
        }
    };

    let stop = depth >= params.max_depth || n < params.min_split;
    let (node_sse, split) = if stop {
        (frame.node_sse_with_mean(lo, hi, value), None)
    } else {
        frame.best_split_with_mean(lo, hi, params.min_leaf, value, active)
    };
    let std = if n < 2 { 0.0 } else { (node_sse / n as f64).sqrt() };
    let split = split.filter(|s| s.gain >= params.min_gain_frac * root_sse.max(1e-12));

    match split {
        None => {
            nodes.push(Node::Leaf { value, std, n });
            nodes.len() - 1
        }
        Some(s) => {
            let (nl, lsum, rsum) = frame.partition(lo, hi, s.feature, &s.rule, active);
            debug_assert_eq!(nl, s.left_count);
            debug_assert_eq!(hi - lo - nl, s.right_count);

            // Reserve our slot so children land after their parent.
            let at = nodes.len();
            nodes.push(Node::Leaf { value, std, n }); // placeholder
            let left =
                grow(frame, lo, lo + nl, params, root_sse, depth + 1, active, Some(lsum), nodes);
            let right =
                grow(frame, lo + nl, hi, params, root_sse, depth + 1, active, Some(rsum), nodes);
            nodes[at] = Node::Internal {
                feature: s.feature,
                rule: s.rule,
                value,
                std,
                n,
                left,
                right,
            };
            at
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{Dataset, Feature};

    fn piecewise() -> Dataset {
        // y = 10 for x<5; 50 for 5<=x<10; 90 for x>=10, slight noise-free.
        let mut d = Dataset::new(vec![Feature::numeric("x")]);
        for i in 0..15 {
            let x = i as f64;
            let y = if x < 5.0 { 10.0 } else if x < 10.0 { 50.0 } else { 90.0 };
            d.push(vec![x], y);
        }
        d
    }

    #[test]
    fn learns_piecewise_constant_exactly() {
        let d = piecewise();
        let t = build_tree(&d, &BuildParams { min_split: 2, min_leaf: 1, ..Default::default() });
        assert_eq!(t.predict(&[2.0]).value, 10.0);
        assert_eq!(t.predict(&[7.0]).value, 50.0);
        assert_eq!(t.predict(&[12.0]).value, 90.0);
        assert_eq!(t.leaf_count(), 3, "three segments, three leaves");
        assert_eq!(t.mse(&d), 0.0);
    }

    #[test]
    fn constant_target_yields_single_leaf() {
        let mut d = Dataset::new(vec![Feature::numeric("x")]);
        for i in 0..20 {
            d.push(vec![i as f64], 42.0);
        }
        let t = build_tree(&d, &BuildParams::default());
        assert_eq!(t.leaf_count(), 1);
        assert_eq!(t.predict(&[100.0]).value, 42.0);
    }

    #[test]
    fn max_depth_limits_growth() {
        let d = piecewise();
        let t = build_tree(
            &d,
            &BuildParams { max_depth: 1, min_split: 2, min_leaf: 1, min_gain_frac: 0.0 },
        );
        assert!(t.depth() <= 1);
        assert!(t.leaf_count() <= 2);
    }

    #[test]
    fn min_split_limits_growth() {
        let d = piecewise();
        let t = build_tree(
            &d,
            &BuildParams { max_depth: 20, min_split: 16, min_leaf: 1, min_gain_frac: 0.0 },
        );
        assert_eq!(t.leaf_count(), 1, "15 rows < min_split 16");
    }

    #[test]
    fn mixed_features_are_used() {
        // Target depends on a categorical feature; numeric is noise.
        let mut d = Dataset::new(vec![Feature::numeric("noise"), Feature::categorical("fs", 2)]);
        for i in 0..30 {
            let noise = (i * 7 % 13) as f64;
            let c = (i % 2) as f64;
            d.push(vec![noise, c], if c == 0.0 { 1.0 } else { 2.0 });
        }
        let t = build_tree(&d, &BuildParams { min_split: 4, min_leaf: 2, ..Default::default() });
        assert_eq!(t.predict(&[5.0, 0.0]).value, 1.0);
        assert_eq!(t.predict(&[5.0, 1.0]).value, 2.0);
    }

    #[test]
    fn internal_nodes_carry_stats() {
        let d = piecewise();
        let t = build_tree(&d, &BuildParams { min_split: 2, min_leaf: 1, ..Default::default() });
        let root = &t.nodes[0];
        assert!(!root.is_leaf());
        assert_eq!(root.n(), 15);
        assert_eq!(root.value(), 50.0);
        assert!(root.std() > 0.0);
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_dataset_panics() {
        let d = Dataset::new(vec![Feature::numeric("x")]);
        let _ = build_tree(&d, &BuildParams::default());
    }

    #[test]
    fn deterministic_given_same_data() {
        let d = piecewise();
        let p = BuildParams::default();
        assert_eq!(build_tree(&d, &p), build_tree(&d, &p));
    }

    #[test]
    fn view_matches_materialized_subset() {
        let mut d = Dataset::new(vec![Feature::numeric("x"), Feature::categorical("c", 3)]);
        for i in 0..60 {
            let x = (i * 11 % 17) as f64;
            let c = (i % 3) as f64;
            d.push(vec![x, c], x + 5.0 * c + (i % 7) as f64);
        }
        // Bootstrap-shaped view: shuffled with duplicates.
        let rows: Vec<usize> = (0..60).map(|i| (i * 37 + 11) % 60).collect();
        let p = BuildParams { min_split: 4, min_leaf: 2, ..Default::default() };
        assert_eq!(build_tree_view(&d, &rows, &p), build_tree(&d.subset(&rows), &p));
    }
}
