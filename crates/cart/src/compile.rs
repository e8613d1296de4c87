//! The compiled inference plane: fitted trees and forests lowered into
//! flat arenas and scored a whole candidate grid at a time.
//!
//! Training wants rich structures (enum node arenas with owned rule sets);
//! serving wants the opposite — the recommender scores the same small
//! model against the same ≤ 64 candidate system configurations for every
//! query, and every enum discriminant match and `Vec<u32>` subset probe
//! shows up.  Following the flattened-tree layout production GBDT servers
//! use, [`CompiledModel`] lowers a fitted [`Tree`] or
//! [`Forest`](crate::Forest) once (at train or publish time) into
//! struct-of-arrays form:
//!
//! * **trees** — parallel arrays `feature`/`threshold`/`left`/`right` plus
//!   per-node leaf payloads (`value`/`std`/`support`), renumbered
//!   depth-first so a root-to-leaf walk touches mostly-adjacent cache
//!   lines.  Leaves are folded into the same arrays by a sentinel child
//!   index; categorical subset rules become a bitmask packed into the
//!   `threshold` word, so routing is two loads and a compare either way.
//! * **forests** — a `Vec` of compiled trees, folded per row in training
//!   order.
//!
//! k-NN has no tree to lower; [`Knn`](crate::Knn) keeps its training rows
//! in one flat row-major buffer and scores through
//! [`Model::predict`](crate::Model::predict).
//!
//! Scoring goes through **candidate-grid routing plans**: when the same
//! ≤ 64 "grid" rows (ACIC's candidate system halves) are scored against
//! every query, a [`GridPlan`] precomputes, per tree node testing a
//! grid-supplied feature, the bitmask of grid rows routing left.  A query
//! then scores the *entire grid* in one walk over the reachable subtree
//! ([`CompiledModel::predict_grid`]): grid-feature nodes partition the
//! active row mask with one AND, query-feature nodes test once for the
//! whole mask — instead of one root-to-leaf walk per row.  The masks fold
//! the interpreted per-row comparisons verbatim, and forests fold their
//! members in training order, so every answer is **bit-identical** to
//! [`Model::predict`](crate::Model::predict) of the joined row
//! (`tests/compile_equivalence.rs` holds the two against each other on
//! randomized models, grids, and masks).

use crate::model::Model;
use crate::split::SplitRule;
use crate::tree::{Node, Prediction, Tree};
use std::cell::RefCell;

/// Child-index sentinel marking a leaf slot.
const LEAF: u32 = u32::MAX;

/// High bit of [`CompiledTree::feature`] marking a categorical (bitmask)
/// rule; the low 15 bits are the feature column index.
const CATEGORICAL_BIT: u16 = 0x8000;

thread_local! {
    /// Forest grid scratch: per-(tree, grid row) leaf slots.
    static FOREST_LEAVES: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// A tree × grid routing plan (see [`CompiledModel::plan_grid`]): for a
/// fixed set of ≤ 64 "grid" rows that supply the leading `prefix_width`
/// features, every tree node testing a prefix feature has its outcome
/// per grid row precomputed as a bitmask.  Routing a query then costs one
/// walk over the *reachable subtree* with O(1) mask partitions at prefix
/// nodes — instead of one root-to-leaf walk per grid row — while the
/// comparisons folded into the masks are the per-row routing comparisons
/// verbatim, so every row still lands on its bit-identical leaf.
#[derive(Debug, Clone, PartialEq)]
pub struct GridPlan {
    /// Bitmask of grid rows routing left at each prefix-feature node
    /// (0 and unused at suffix-feature nodes and leaves).
    left_rows: Vec<u64>,
    /// Features `< prefix_width` come from the grid; the rest from the
    /// per-query suffix.
    prefix_width: usize,
    /// Number of grid rows (≤ 64, so one `u64` covers the grid).
    rows: usize,
}

impl GridPlan {
    /// Number of grid rows the plan was built over.
    pub fn rows(&self) -> usize {
        self.rows
    }
}

/// One regression tree in flat struct-of-arrays form, laid out depth-first.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledTree {
    /// Feature index tested at each node, with [`CATEGORICAL_BIT`] set for
    /// subset rules; 0 for leaves.
    feature: Vec<u16>,
    /// Numeric threshold (`x <= t` routes left), or — for categorical
    /// nodes — the subset bitmask transmuted into the same `f64` word.
    threshold: Vec<f64>,
    /// Left child per node; [`LEAF`] marks a leaf.
    left: Vec<u32>,
    /// Right child per node; [`LEAF`] marks a leaf.
    right: Vec<u32>,
    /// Node mean (the prediction at a leaf).
    value: Vec<f64>,
    /// Node target standard deviation.
    std: Vec<f64>,
    /// Training rows reaching the node.
    support: Vec<u32>,
}

impl CompiledTree {
    /// Lower `tree` into flat form, renumbering nodes depth-first from the
    /// root (pruning can leave the arena in collapse order).
    pub fn lower(tree: &Tree) -> Self {
        let mut out = CompiledTree {
            feature: Vec::with_capacity(tree.nodes.len()),
            threshold: Vec::with_capacity(tree.nodes.len()),
            left: Vec::with_capacity(tree.nodes.len()),
            right: Vec::with_capacity(tree.nodes.len()),
            value: Vec::with_capacity(tree.nodes.len()),
            std: Vec::with_capacity(tree.nodes.len()),
            support: Vec::with_capacity(tree.nodes.len()),
        };
        fn go(tree: &Tree, at: usize, out: &mut CompiledTree) -> u32 {
            let slot = out.feature.len() as u32;
            match &tree.nodes[at] {
                Node::Leaf { value, std, n } => {
                    out.feature.push(0);
                    out.threshold.push(0.0);
                    out.left.push(LEAF);
                    out.right.push(LEAF);
                    out.value.push(*value);
                    out.std.push(*std);
                    out.support.push(u32::try_from(*n).expect("leaf support fits u32"));
                }
                Node::Internal { feature, rule, value, std, n, left, right } => {
                    let (tag, word) = match rule {
                        SplitRule::Le(t) => (0u16, *t),
                        SplitRule::In(set) => {
                            let mut mask = 0u64;
                            for &c in set {
                                assert!(c < 64, "categorical code {c} exceeds the 64-bit mask");
                                mask |= 1 << c;
                            }
                            (CATEGORICAL_BIT, f64::from_bits(mask))
                        }
                    };
                    let feature = u16::try_from(*feature).expect("feature index fits u16");
                    assert!(feature & CATEGORICAL_BIT == 0, "feature index collides with tag bit");
                    out.feature.push(feature | tag);
                    out.threshold.push(word);
                    out.left.push(0); // patched below
                    out.right.push(0);
                    out.value.push(*value);
                    out.std.push(*std);
                    out.support.push(u32::try_from(*n).expect("node support fits u32"));
                    let l = go(tree, *left, out);
                    let r = go(tree, *right, out);
                    out.left[slot as usize] = l;
                    out.right[slot as usize] = r;
                }
            }
            slot
        }
        go(tree, Tree::ROOT, &mut out);
        out
    }

    /// Whether cell value `x` routes left at internal node `at` — the
    /// interpreted [`SplitRule::goes_left`] verbatim: `x <= t` for numeric
    /// rules; for subset rules `x as u32` (the same saturating cast)
    /// probed against the mask.
    #[inline]
    fn goes_left(&self, at: usize, x: f64) -> bool {
        if self.feature[at] & CATEGORICAL_BIT != 0 {
            let code = x as u32;
            code < 64 && (self.threshold[at].to_bits() >> code) & 1 == 1
        } else {
            x <= self.threshold[at]
        }
    }

    /// Precompute a [`GridPlan`] over `grid` (row-major, `prefix_width`
    /// cells per row, ≤ 64 rows).  Each prefix-node mask bit is the
    /// node's routing comparison (`goes_left`) for that grid row,
    /// evaluated once here instead of once per query.
    pub fn plan_grid(&self, grid: &[f64], prefix_width: usize) -> GridPlan {
        assert!(prefix_width > 0 && grid.len() % prefix_width == 0, "grid is not whole rows");
        let rows = grid.len() / prefix_width;
        assert!(rows <= 64, "grid plans carry at most 64 rows (got {rows})");
        let mut left_rows = vec![0u64; self.feature.len()];
        for (at, mask) in left_rows.iter_mut().enumerate() {
            let f = (self.feature[at] & !CATEGORICAL_BIT) as usize;
            if self.left[at] == LEAF || f >= prefix_width {
                continue;
            }
            for (r, row) in grid.chunks_exact(prefix_width).enumerate() {
                *mask |= u64::from(self.goes_left(at, row[f])) << r;
            }
        }
        GridPlan { left_rows, prefix_width, rows }
    }

    /// Route every `active` grid row to its leaf in **one walk over the
    /// reachable subtree**: prefix-feature nodes partition the active mask
    /// with the plan's precomputed bitmasks, suffix-feature nodes test the
    /// query's `suffix` value once for the whole mask.  `out[r]` is written
    /// for exactly the active rows; each is the leaf the interpreted walk
    /// of the full row reaches (the masks fold the same comparisons).
    pub fn leaves_for_grid(&self, plan: &GridPlan, suffix: &[f64], active: u64, out: &mut [u32]) {
        debug_assert_eq!(out.len(), plan.rows);
        debug_assert_eq!(plan.left_rows.len(), self.feature.len(), "plan is for another tree");
        self.grid_walk(plan, suffix, 0, active, out);
    }

    /// One (subtree, active-mask) descent of [`Self::leaves_for_grid`]:
    /// loops down single-successor nodes, recursing only where the mask
    /// genuinely splits.
    fn grid_walk(&self, plan: &GridPlan, suffix: &[f64], mut at: usize, mut active: u64, out: &mut [u32]) {
        while active != 0 {
            let l = self.left[at];
            if l == LEAF {
                while active != 0 {
                    out[active.trailing_zeros() as usize] = at as u32;
                    active &= active - 1;
                }
                return;
            }
            let f = (self.feature[at] & !CATEGORICAL_BIT) as usize;
            if f < plan.prefix_width {
                let lm = plan.left_rows[at] & active;
                let rm = active & !lm;
                if rm == 0 {
                    at = l as usize;
                } else if lm == 0 {
                    at = self.right[at] as usize;
                } else {
                    self.grid_walk(plan, suffix, l as usize, lm, out);
                    at = self.right[at] as usize;
                    active = rm;
                }
            } else if self.goes_left(at, suffix[f - plan.prefix_width]) {
                at = l as usize;
            } else {
                at = self.right[at] as usize;
            }
        }
    }
}

/// A fitted tree model lowered for grid scoring.
#[derive(Debug, Clone)]
pub enum CompiledModel {
    /// Single pruned tree.
    Tree(CompiledTree),
    /// Bagged ensemble: the flattened member trees, in training order.
    Forest(Vec<CompiledTree>),
}

impl CompiledModel {
    /// Lower a fitted model; `None` for k-NN, which has no tree to lower.
    /// Cheap (one pass over the model's nodes), so callers compile eagerly
    /// at train/publish time.
    pub fn compile(model: &Model) -> Option<Self> {
        match model {
            Model::Tree(tree) => Some(CompiledModel::Tree(CompiledTree::lower(tree))),
            Model::Forest(forest) => Some(CompiledModel::Forest(
                forest.trees.iter().map(CompiledTree::lower).collect(),
            )),
            Model::Knn(_) => None,
        }
    }
}

/// A model × grid routing plan: one [`GridPlan`] per member tree, matched
/// against the model it was planned from at predict time, so a plan is
/// only valid for the exact model that produced it.
#[derive(Debug, Clone, PartialEq)]
pub enum CompiledGrid {
    /// Plan for a single compiled tree.
    Tree(GridPlan),
    /// Plans for each member of a compiled forest, in training order.
    Forest(Vec<GridPlan>),
}

impl CompiledGrid {
    /// Number of grid rows the plan covers.
    pub fn rows(&self) -> usize {
        match self {
            CompiledGrid::Tree(p) => p.rows(),
            CompiledGrid::Forest(ps) => ps.first().map_or(0, GridPlan::rows),
        }
    }
}

/// Fold one grid row's per-tree leaves exactly as
/// [`Forest::predict`](crate::Forest::predict) folds its members (same
/// training-order accumulation, same division order).
#[inline]
fn forest_fold(trees: &[CompiledTree], leaves: &[u32], rows: usize, r: usize) -> Prediction {
    let t = trees.len();
    let n = t as f64;
    let mut sum = 0.0;
    for (ti, tree) in trees.iter().enumerate() {
        sum += tree.value[leaves[ti * rows + r] as usize];
    }
    let mean = sum / n;
    let mut var = 0.0;
    let mut support = 0usize;
    for (ti, tree) in trees.iter().enumerate() {
        let leaf = leaves[ti * rows + r] as usize;
        let d = tree.value[leaf] - mean;
        var += d * d;
        support += tree.support[leaf] as usize;
    }
    var /= n;
    Prediction { value: mean, std: var.sqrt(), support: support / t }
}

impl CompiledModel {
    /// Plan grid routing over `grid` (row-major, `prefix_width` cells per
    /// row, ≤ 64 rows).
    pub fn plan_grid(&self, grid: &[f64], prefix_width: usize) -> CompiledGrid {
        match self {
            CompiledModel::Tree(tree) => CompiledGrid::Tree(tree.plan_grid(grid, prefix_width)),
            CompiledModel::Forest(trees) => CompiledGrid::Forest(
                trees.iter().map(|t| t.plan_grid(grid, prefix_width)).collect(),
            ),
        }
    }

    /// Score every `active` grid row joined with the query `suffix` in one
    /// reachable-subtree walk per member tree.  `out` is sized to the grid;
    /// entries for active rows are bit-identical to
    /// [`Model::predict`] of the joined row (grid prefix, then `suffix`),
    /// inactive entries are left at the zero prediction.
    ///
    /// # Panics
    /// Panics when `plan` was not produced by [`Self::plan_grid`] on this
    /// model shape (tree-count or kind mismatch).
    pub fn predict_grid(
        &self,
        plan: &CompiledGrid,
        suffix: &[f64],
        active: u64,
        out: &mut Vec<Prediction>,
    ) {
        let rows = plan.rows();
        out.clear();
        out.resize(rows, Prediction { value: 0.0, std: 0.0, support: 0 });
        match (self, plan) {
            (CompiledModel::Tree(tree), CompiledGrid::Tree(p)) => {
                let mut leaves = [0u32; 64];
                tree.leaves_for_grid(p, suffix, active, &mut leaves[..rows]);
                let mut m = active;
                while m != 0 {
                    let r = m.trailing_zeros() as usize;
                    m &= m - 1;
                    let at = leaves[r] as usize;
                    out[r] = Prediction {
                        value: tree.value[at],
                        std: tree.std[at],
                        support: tree.support[at] as usize,
                    };
                }
            }
            (CompiledModel::Forest(trees), CompiledGrid::Forest(plans)) => {
                assert_eq!(trees.len(), plans.len(), "grid plan is for another forest");
                FOREST_LEAVES.with(|scratch| {
                    let leaves = &mut *scratch.borrow_mut();
                    leaves.clear();
                    leaves.resize(trees.len() * rows, 0);
                    for (ti, (tree, p)) in trees.iter().zip(plans).enumerate() {
                        tree.leaves_for_grid(p, suffix, active, &mut leaves[ti * rows..][..rows]);
                    }
                    let mut m = active;
                    while m != 0 {
                        let r = m.trailing_zeros() as usize;
                        m &= m - 1;
                        out[r] = forest_fold(trees, leaves, rows, r);
                    }
                });
            }
            _ => panic!("grid plan kind does not match the model"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{Dataset, Feature};
    use crate::model::ModelKind;
    use acic_cloudsim::rng::SplitMix64;

    fn mixed(n: usize, seed: u64) -> Dataset {
        let mut d = Dataset::new(vec![
            Feature::numeric("x"),
            Feature::categorical("c", 3),
            Feature::numeric("z"),
        ]);
        let mut rng = SplitMix64::new(seed);
        for _ in 0..n {
            let x = rng.uniform(0.0, 20.0).round();
            let c = (rng.below(3)) as f64;
            let z = rng.uniform(-5.0, 5.0);
            d.push(vec![x, c, z], x * 2.0 + c * 10.0 + z + rng.uniform(-0.5, 0.5));
        }
        d
    }

    #[test]
    fn grid_routing_matches_interpreted_bit_for_bit() {
        // Grid rows supply (x, c), the query supplies z; every active row
        // must equal the interpreted prediction of the joined row.  The
        // last four grid rows hold cells outside the domain — codes 7, -1
        // and 2.9 and a NaN x — and the last suffix is NaN: the saturating
        // cast and `x <= t` must route them exactly as the interpreted walk
        // does.
        let d = mixed(200, 31);
        let prefix = 2usize;
        let rows = 40usize;
        let odd = [3.0, 7.0, 3.0, -1.0, 3.0, 2.9, f64::NAN, 0.0];
        let grid: Vec<f64> =
            (0..rows - 4).flat_map(|i| d.row(i)[..prefix].to_vec()).chain(odd).collect();
        let masks = [u64::MAX >> (64 - rows), 1, 0b1010_1101, (1 << rows) - 2, 0];
        for kind in [ModelKind::Cart, ModelKind::Forest { n_trees: 5 }] {
            let m = Model::fit(&d, kind, 9);
            let c = CompiledModel::compile(&m).expect("trees compile");
            let plan = c.plan_grid(&grid, prefix);
            assert_eq!(plan.rows(), rows);
            for z in [-4.25f64, 0.0, 3.5, 19.0, f64::NAN] {
                for mask in masks {
                    let mut got = Vec::new();
                    c.predict_grid(&plan, &[z], mask, &mut got);
                    assert_eq!(got.len(), rows);
                    for (r, g) in got.iter().enumerate().filter(|(r, _)| mask >> r & 1 == 1) {
                        let want = m.predict(&[grid[r * prefix], grid[r * prefix + 1], z]);
                        assert_eq!(g.value.to_bits(), want.value.to_bits(), "{kind} row {r}");
                        assert_eq!(g.std.to_bits(), want.std.to_bits(), "{kind} row {r}");
                        assert_eq!(g.support, want.support, "{kind} row {r}");
                    }
                }
            }
        }
        // k-NN has no tree to lower.
        assert!(CompiledModel::compile(&Model::fit(&d, ModelKind::Knn { k: 3 }, 9)).is_none());
    }

    #[test]
    #[should_panic(expected = "grid plan kind does not match")]
    fn mismatched_grid_plan_is_rejected() {
        let d = mixed(60, 37);
        let fit = |kind| CompiledModel::compile(&Model::fit(&d, kind, 1)).unwrap();
        let (tree, forest) = (fit(ModelKind::Cart), fit(ModelKind::Forest { n_trees: 3 }));
        let plan = forest.plan_grid(&[1.0, 0.0], 2);
        tree.predict_grid(&plan, &[0.0], 1, &mut Vec::new());
    }
}
