//! The compiled inference plane: trained models lowered into flat,
//! allocation-free scoring kernels.
//!
//! Training wants rich structures (enum node arenas with owned rule sets,
//! per-row `Vec`s); serving wants the opposite — the candidate-scoring hot
//! path of the recommender walks the same small model tens of thousands of
//! times per second, and every enum discriminant match, `Vec<u32>` subset
//! probe, and per-row allocation shows up.  Following the flattened-tree
//! layout production GBDT servers use, [`CompiledModel`] lowers a fitted
//! [`Tree`]/[`Forest`]/[`Knn`] once (at train or publish time) into
//! struct-of-arrays form:
//!
//! * **trees** — parallel arrays `feature`/`threshold`/`left`/`right` plus
//!   per-node leaf payloads (`value`/`std`/`support`), renumbered
//!   depth-first so a root-to-leaf walk touches mostly-adjacent cache
//!   lines.  Leaves are folded into the same arrays by a sentinel child
//!   index; categorical subset rules become a bitmask packed into the
//!   `threshold` word, so routing is two loads and a compare either way.
//! * **forests** — a `Vec` of compiled trees; batch scoring iterates trees
//!   in the *outer* loop so each member's arena stays hot while it routes
//!   the whole row block.
//! * **k-NN** — the training rows flattened into one contiguous row-major
//!   buffer, scanned with reusable scratch instead of per-query `Vec`s.
//!
//! Every lowering is **bit-identical** to its interpreted source: same
//! routing comparisons, same accumulation orders, same tie handling
//! (`tests/compile_equivalence.rs` holds the two planes against each other
//! on randomized models and rows).  The interpreted path stays as the
//! reference oracle.
//!
//! [`CompiledModel::predict_batch`] scores many encoded rows per call into
//! a caller-owned output buffer; internal scratch (forest leaf indices,
//! k-NN query normalization) lives in thread-local buffers, so steady-state
//! batch scoring performs no heap allocation at all.
//!
//! Two batch refinements push the plane further:
//!
//! * **multi-row block kernel** — tree routing is level-synchronous over a
//!   block of rows ([`CompiledTree::leaves_for_block`]): every unfinished
//!   row advances one level per sweep, so the arena's upper levels are
//!   touched once per *block* while hot (and the per-row walks become
//!   independent work the CPU can overlap) instead of once per row.  The
//!   comparisons are unchanged, so results stay bit-identical.
//! * **candidate-grid routing plans** — when the same ≤ 64 "grid" rows
//!   (ACIC's candidate system halves) are scored against every query, a
//!   [`GridPlan`] precomputes, per tree node testing a grid-supplied
//!   feature, the bitmask of grid rows routing left.  A query then scores
//!   the *entire grid* in one walk over the reachable subtree
//!   ([`CompiledModel::predict_grid`]): grid-feature nodes partition the
//!   active row mask with one AND, query-feature nodes test once for the
//!   whole mask — instead of one root-to-leaf walk per row.  The masks fold
//!   the per-row comparisons verbatim, so leaves (and payload bits) are
//!   unchanged.

use crate::dataset::FeatureKind;
use crate::forest::Forest;
use crate::knn::Knn;
use crate::model::Model;
use crate::split::SplitRule;
use crate::tree::{Node, Prediction, Tree};
use std::cell::RefCell;

/// Child-index sentinel marking a leaf slot.
const LEAF: u32 = u32::MAX;

/// High bit of [`CompiledTree::feature`] marking a categorical (bitmask)
/// rule; the low 15 bits are the feature column index.
const CATEGORICAL_BIT: u16 = 0x8000;

/// Rows scored per block in the batched kernels — small enough that a
/// block's cursor state stays in registers/L1, large enough to amortize
/// the per-block loop overhead.
const BLOCK: usize = 64;

thread_local! {
    /// Forest batch scratch: per-(tree, row-in-block) leaf slots.
    static FOREST_LEAVES: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    /// k-NN scratch: normalized query + running k-best (distance, target).
    static KNN_SCRATCH: RefCell<(Vec<f64>, Vec<(f64, f64)>)> =
        const { RefCell::new((Vec::new(), Vec::new())) };
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

    /// Arena slot of the leaf `row` routes to.  The routing comparisons are
    /// the interpreted [`SplitRule::goes_left`] verbatim: `x <= t` for
    /// numeric rules; for subset rules `x as u32` (the same saturating cast)
    /// probed against the mask.
    #[inline]
    fn leaf_of(&self, row: &[f64]) -> u32 {
        let mut at = 0usize;
        loop {
            let l = self.left[at];
            if l == LEAF {
                return at as u32;
            }
            let tag = self.feature[at];
            let x = row[(tag & !CATEGORICAL_BIT) as usize];
            let goes_left = if tag & CATEGORICAL_BIT != 0 {
                let code = x as u32;
                code < 64 && (self.threshold[at].to_bits() >> code) & 1 == 1
            } else {
                x <= self.threshold[at]
            };
            at = if goes_left { l as usize } else { self.right[at] as usize };
        }
    }

    /// Predict one encoded row — identical to [`Tree::predict`].
    pub fn predict(&self, row: &[f64]) -> Prediction {
        let at = self.leaf_of(row) as usize;
        Prediction { value: self.value[at], std: self.std[at], support: self.support[at] as usize }
    }

    /// Route a whole block of rows level-synchronously: each sweep advances
    /// every unfinished row one level, so the arena's upper levels are read
    /// once per block while hot and the rows' walks are independent work the
    /// CPU can overlap.  The per-node comparison is [`Self::leaf_of`]
    /// verbatim, so the leaf each row lands on is bit-identical.
    fn leaves_for_block(&self, block: &[f64], width: usize, out: &mut [u32]) {
        debug_assert_eq!(block.len(), width * out.len());
        for slot in out.iter_mut() {
            *slot = 0;
        }
        loop {
            let mut advanced = false;
            for (ri, cur) in out.iter_mut().enumerate() {
                let at = *cur as usize;
                let l = self.left[at];
                if l == LEAF {
                    continue;
                }
                let tag = self.feature[at];
                let x = block[ri * width + (tag & !CATEGORICAL_BIT) as usize];
                let goes_left = if tag & CATEGORICAL_BIT != 0 {
                    let code = x as u32;
                    code < 64 && (self.threshold[at].to_bits() >> code) & 1 == 1
                } else {
                    x <= self.threshold[at]
                };
                *cur = if goes_left { l } else { self.right[at] };
                advanced = true;
            }
            if !advanced {
                return;
            }
        }
    }

    /// Precompute a [`GridPlan`] over `grid` (row-major, `prefix_width`
    /// cells per row, ≤ 64 rows).  Each prefix-node mask bit is the
    /// [`Self::leaf_of`] comparison for that grid row, evaluated once here
    /// instead of once per query.
    pub fn plan_grid(&self, grid: &[f64], prefix_width: usize) -> GridPlan {
        assert!(prefix_width > 0 && grid.len() % prefix_width == 0, "grid is not whole rows");
        let rows = grid.len() / prefix_width;
        assert!(rows <= 64, "grid plans carry at most 64 rows (got {rows})");
        let mut left_rows = vec![0u64; self.feature.len()];
        for at in 0..self.feature.len() {
            if self.left[at] == LEAF {
                continue;
            }
            let tag = self.feature[at];
            let f = (tag & !CATEGORICAL_BIT) as usize;
            if f >= prefix_width {
                continue;
            }
            let mut m = 0u64;
            for (r, row) in grid.chunks_exact(prefix_width).enumerate() {
                let x = row[f];
                let goes_left = if tag & CATEGORICAL_BIT != 0 {
                    let code = x as u32;
                    code < 64 && (self.threshold[at].to_bits() >> code) & 1 == 1
                } else {
                    x <= self.threshold[at]
                };
                if goes_left {
                    m |= 1 << r;
                }
            }
            left_rows[at] = m;
        }
        GridPlan { left_rows, prefix_width, rows }
    }

    /// Route every `active` grid row to its leaf in **one walk over the
    /// reachable subtree**: prefix-feature nodes partition the active mask
    /// with the plan's precomputed bitmasks, suffix-feature nodes test the
    /// query's `suffix` value once for the whole mask.  `out[r]` is written
    /// for exactly the active rows; each equals [`Self::leaf_of`] of the
    /// full row bit for bit (the masks fold the same comparisons).
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
            let tag = self.feature[at];
            let f = (tag & !CATEGORICAL_BIT) as usize;
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
            } else {
                let x = suffix[f - plan.prefix_width];
                let goes_left = if tag & CATEGORICAL_BIT != 0 {
                    let code = x as u32;
                    code < 64 && (self.threshold[at].to_bits() >> code) & 1 == 1
                } else {
                    x <= self.threshold[at]
                };
                at = if goes_left { l as usize } else { self.right[at] as usize };
            }
        }
    }
}

/// A fitted model lowered for batched, allocation-free scoring.
#[derive(Debug, Clone)]
pub enum CompiledModel {
    /// Single pruned tree.
    Tree {
        /// Row width (feature count) the model scores.
        width: usize,
        /// The flattened tree.
        tree: CompiledTree,
    },
    /// Bagged ensemble.
    Forest {
        /// Row width (feature count) the model scores.
        width: usize,
        /// The flattened member trees, in training order.
        trees: Vec<CompiledTree>,
    },
    /// k-nearest-neighbours with flattened training rows.
    Knn {
        /// Neighbourhood size (already clamped to the training size).
        k: usize,
        /// Per-feature kinds (numeric features are z-normalized).
        kinds: Vec<FeatureKind>,
        /// Per-feature training means.
        means: Vec<f64>,
        /// Per-feature inverse standard deviations (0 for constant columns).
        inv_stds: Vec<f64>,
        /// Normalized training rows, row-major in one contiguous buffer.
        rows: Vec<f64>,
        /// Training targets aligned with `rows`.
        targets: Vec<f64>,
    },
}

impl CompiledModel {
    /// Lower a fitted model.  Cheap (one pass over the model's nodes or
    /// rows), so callers compile eagerly at train/publish time.
    pub fn compile(model: &Model) -> Self {
        match model {
            Model::Tree(t) => Self::from_tree(t),
            Model::Forest(f) => Self::from_forest(f),
            Model::Knn(k) => Self::from_knn(k),
        }
    }

    /// Lower a single tree.
    pub fn from_tree(tree: &Tree) -> Self {
        CompiledModel::Tree { width: tree.feature_names.len(), tree: CompiledTree::lower(tree) }
    }

    /// Lower a bagged forest.
    pub fn from_forest(forest: &Forest) -> Self {
        let width = forest.trees.first().map_or(0, |t| t.feature_names.len());
        CompiledModel::Forest {
            width,
            trees: forest.trees.iter().map(CompiledTree::lower).collect(),
        }
    }

    /// Lower a k-NN model (flattens the stored rows).
    pub fn from_knn(knn: &Knn) -> Self {
        let (k, kinds, means, inv_stds, rows, targets) = knn.parts();
        CompiledModel::Knn {
            k,
            kinds: kinds.to_vec(),
            means: means.to_vec(),
            inv_stds: inv_stds.to_vec(),
            rows: rows.iter().flat_map(|r| r.iter().copied()).collect(),
            targets: targets.to_vec(),
        }
    }

    /// The feature-row width the model was trained on.
    pub fn width(&self) -> usize {
        match self {
            CompiledModel::Tree { width, .. } | CompiledModel::Forest { width, .. } => *width,
            CompiledModel::Knn { kinds, .. } => kinds.len(),
        }
    }

    /// Predict one encoded row — bit-identical to [`Model::predict`].
    pub fn predict(&self, row: &[f64]) -> Prediction {
        let mut out = [Prediction { value: 0.0, std: 0.0, support: 0 }];
        self.predict_rows(row, &mut out);
        out[0]
    }

    /// Score a batch of encoded rows (`rows.len()` must be a multiple of
    /// [`Self::width`]) into `out`, which is cleared and filled with one
    /// [`Prediction`] per row.  Bit-identical to calling
    /// [`Model::predict`] per row; the batch form exists so the whole
    /// candidate grid is scored in one pass over each model arena with no
    /// per-candidate allocation.
    ///
    /// Degenerate inputs are defined, not accidental: an empty `rows` slice
    /// is a valid zero-row batch (`out` is cleared and left empty), and any
    /// entries already in `out` are discarded — stale predictions from a
    /// reused buffer can never leak into the result.
    pub fn predict_batch(&self, rows: &[f64], out: &mut Vec<Prediction>) {
        let width = self.width();
        assert!(width > 0 && rows.len() % width == 0, "batch is not whole rows");
        let n = rows.len() / width;
        out.clear();
        out.resize(n, Prediction { value: 0.0, std: 0.0, support: 0 });
        self.predict_rows(rows, out);
    }

    fn predict_rows(&self, rows: &[f64], out: &mut [Prediction]) {
        let width = self.width();
        match self {
            CompiledModel::Tree { tree, .. } => {
                let mut leaves = [0u32; BLOCK];
                for (block, slots) in rows.chunks(width * BLOCK).zip(out.chunks_mut(BLOCK)) {
                    let b = block.len() / width;
                    tree.leaves_for_block(block, width, &mut leaves[..b]);
                    for (slot, &leaf) in slots.iter_mut().zip(&leaves[..b]) {
                        let at = leaf as usize;
                        *slot = Prediction {
                            value: tree.value[at],
                            std: tree.std[at],
                            support: tree.support[at] as usize,
                        };
                    }
                }
            }
            CompiledModel::Forest { trees, .. } => FOREST_LEAVES.with(|scratch| {
                let mut leaves = scratch.borrow_mut();
                let t = trees.len();
                // Blocked, tree-major: each member routes the whole block
                // while its arena is hot; the reduction then replays the
                // leaf values per row in training-tree order, so the mean
                // and variance fold exactly as `Forest::predict` folds them.
                for (block, slots) in
                    rows.chunks(width * BLOCK).zip(out.chunks_mut(BLOCK))
                {
                    let b = block.len() / width;
                    leaves.clear();
                    leaves.resize(t * b, 0);
                    for (ti, tree) in trees.iter().enumerate() {
                        tree.leaves_for_block(block, width, &mut leaves[ti * b..][..b]);
                    }
                    for (ri, slot) in slots.iter_mut().enumerate() {
                        let n = t as f64;
                        let mut sum = 0.0;
                        for ti in 0..t {
                            sum += trees[ti].value[leaves[ti * b + ri] as usize];
                        }
                        let mean = sum / n;
                        let mut var = 0.0;
                        let mut support = 0usize;
                        for ti in 0..t {
                            let leaf = leaves[ti * b + ri] as usize;
                            let d = trees[ti].value[leaf] - mean;
                            var += d * d;
                            support += trees[ti].support[leaf] as usize;
                        }
                        var /= n;
                        *slot = Prediction { value: mean, std: var.sqrt(), support: support / t };
                    }
                }
            }),
            CompiledModel::Knn { k, kinds, means, inv_stds, rows: train, targets } => {
                KNN_SCRATCH.with(|scratch| {
                    let (q, best) = &mut *scratch.borrow_mut();
                    for (row, slot) in rows.chunks_exact(width).zip(out.iter_mut()) {
                        // Normalize the query in place of Knn::predict's
                        // per-call Vec.
                        q.clear();
                        q.extend(row.iter().enumerate().map(|(j, &x)| match kinds[j] {
                            FeatureKind::Numeric => (x - means[j]) * inv_stds[j],
                            FeatureKind::Categorical { .. } => x,
                        }));
                        best.clear();
                        for (r, &y) in train.chunks_exact(width).zip(targets) {
                            let mut d2 = 0.0;
                            for j in 0..width {
                                match kinds[j] {
                                    FeatureKind::Numeric => {
                                        let d = q[j] - r[j];
                                        d2 += d * d;
                                    }
                                    FeatureKind::Categorical { .. } => {
                                        if q[j] != r[j] {
                                            d2 += 1.0;
                                        }
                                    }
                                }
                            }
                            let dist = d2.sqrt();
                            let pos = best.partition_point(|(d, _)| *d <= dist);
                            if pos < *k {
                                best.insert(pos, (dist, y));
                                best.truncate(*k);
                            }
                        }
                        let n = best.len() as f64;
                        let mean = best.iter().map(|(_, y)| y).sum::<f64>() / n;
                        let var =
                            best.iter().map(|(_, y)| (y - mean).powi(2)).sum::<f64>() / n;
                        *slot =
                            Prediction { value: mean, std: var.sqrt(), support: best.len() };
                    }
                });
            }
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

/// Fold one grid row's per-tree leaves exactly as the forest block kernel
/// folds them (same training-order accumulation, same division order).
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
    /// row, ≤ 64 rows); `None` for k-NN, which has no tree structure to
    /// plan over.
    pub fn plan_grid(&self, grid: &[f64], prefix_width: usize) -> Option<CompiledGrid> {
        match self {
            CompiledModel::Tree { tree, .. } => {
                Some(CompiledGrid::Tree(tree.plan_grid(grid, prefix_width)))
            }
            CompiledModel::Forest { trees, .. } => Some(CompiledGrid::Forest(
                trees.iter().map(|t| t.plan_grid(grid, prefix_width)).collect(),
            )),
            CompiledModel::Knn { .. } => None,
        }
    }

    /// Score every `active` grid row joined with the query `suffix` in one
    /// reachable-subtree walk per member tree.  `out` is sized to the grid;
    /// entries for active rows are bit-identical to
    /// [`Self::predict_batch`] of the equivalent packed rows, inactive
    /// entries are left at the zero prediction.
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
            (CompiledModel::Tree { tree, .. }, CompiledGrid::Tree(p)) => {
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
            (CompiledModel::Forest { trees, .. }, CompiledGrid::Forest(plans)) => {
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
    use crate::builder::{build_tree, BuildParams};
    use crate::dataset::{Dataset, Feature};
    use crate::forest::ForestParams;
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

    fn assert_bit_identical(a: &Prediction, b: &Prediction) {
        assert_eq!(a.value.to_bits(), b.value.to_bits(), "value differs: {a:?} vs {b:?}");
        assert_eq!(a.std.to_bits(), b.std.to_bits(), "std differs: {a:?} vs {b:?}");
        assert_eq!(a.support, b.support, "support differs: {a:?} vs {b:?}");
    }

    #[test]
    fn compiled_kinds_match_interpreted_on_training_rows() {
        let d = mixed(150, 7);
        for kind in [ModelKind::Cart, ModelKind::Forest { n_trees: 9 }, ModelKind::Knn { k: 5 }] {
            let m = Model::fit(&d, kind, 3);
            let c = CompiledModel::compile(&m);
            assert_eq!(c.width(), 3);
            let mut flat = Vec::new();
            let mut want = Vec::new();
            for i in 0..d.len() {
                let row = d.row(i);
                assert_bit_identical(&c.predict(&row), &m.predict(&row));
                flat.extend_from_slice(&row);
                want.push(m.predict(&row));
            }
            let mut got = Vec::new();
            c.predict_batch(&flat, &mut got);
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                assert_bit_identical(g, w);
            }
        }
    }

    #[test]
    fn single_leaf_tree_compiles() {
        let mut d = Dataset::new(vec![Feature::numeric("x")]);
        for i in 0..10 {
            d.push(vec![i as f64], 42.0);
        }
        let t = build_tree(&d, &BuildParams::default());
        assert_eq!(t.leaf_count(), 1);
        let c = CompiledModel::from_tree(&t);
        assert_bit_identical(&c.predict(&[3.0]), &t.predict(&[3.0]));
    }

    #[test]
    fn forest_block_boundaries_are_seamless() {
        // More rows than one block, so the blocked loop takes both paths.
        let d = mixed(300, 11);
        let f = Forest::fit(&d, &ForestParams { n_trees: 7, ..Default::default() });
        let c = CompiledModel::from_forest(&f);
        let mut flat = Vec::new();
        for i in 0..d.len() {
            flat.extend_from_slice(&d.row(i));
        }
        let mut got = Vec::new();
        c.predict_batch(&flat, &mut got);
        for (i, g) in got.iter().enumerate() {
            assert_bit_identical(g, &f.predict(&d.row(i)));
        }
    }

    #[test]
    fn categorical_routing_handles_out_of_range_codes() {
        // Codes beyond the training arity and negative/NaN cells must route
        // exactly as the interpreted `value as u32` cast routes them.
        let d = mixed(80, 13);
        let t = build_tree(&d, &BuildParams { min_split: 4, min_leaf: 2, ..Default::default() });
        let c = CompiledModel::from_tree(&t);
        for row in [[3.0, 7.0, 0.0], [3.0, -1.0, 0.0], [3.0, 2.9, 0.0], [f64::NAN, 0.0, 0.0]] {
            assert_bit_identical(&c.predict(&row), &t.predict(&row));
        }
    }

    #[test]
    #[should_panic(expected = "whole rows")]
    fn ragged_batch_rejected() {
        let d = mixed(40, 3);
        let c = CompiledModel::compile(&Model::fit(&d, ModelKind::Cart, 1));
        let mut out = Vec::new();
        c.predict_batch(&[1.0, 2.0], &mut out);
    }

    #[test]
    fn degenerate_batches_at_block_boundaries_are_exact() {
        // 0, 1, BLOCK-1, BLOCK, BLOCK+1 rows, always through a pre-populated
        // output buffer: results must match per-row predicts exactly and
        // stale entries must never survive.
        let d = mixed(200, 17);
        let stale = Prediction { value: f64::NAN, std: f64::NAN, support: usize::MAX };
        for kind in [ModelKind::Cart, ModelKind::Forest { n_trees: 5 }, ModelKind::Knn { k: 3 }] {
            let m = Model::fit(&d, kind, 3);
            let c = CompiledModel::compile(&m);
            for n in [0usize, 1, BLOCK - 1, BLOCK, BLOCK + 1] {
                let mut flat = Vec::new();
                for i in 0..n {
                    flat.extend_from_slice(&d.row(i % d.len()));
                }
                let mut out = vec![stale; BLOCK + 7];
                c.predict_batch(&flat, &mut out);
                assert_eq!(out.len(), n, "out must be resized to the batch");
                for (i, got) in out.iter().enumerate() {
                    assert_bit_identical(got, &m.predict(&d.row(i % d.len())));
                }
            }
        }
    }

    #[test]
    fn grid_routing_matches_packed_batches_bit_for_bit() {
        // The grid plan factors the same comparisons the packed kernels
        // make, so for every (model kind, active mask) the grid
        // answers must equal predict_batch of the equivalent packed rows.
        let d = mixed(200, 31);
        // Grid rows supply (x, c); the query supplies z.
        let prefix = 2usize;
        let mut grid64: Vec<f64> = Vec::new();
        let rows = 40usize;
        for i in 0..rows {
            let row = d.row(i);
            grid64.extend_from_slice(&row[..prefix]);
        }
        let suffixes = [[-4.25f64], [0.0], [3.5], [19.0]];
        let masks = [u64::MAX >> (64 - rows), 1, 0b1010_1101, (1 << rows) - 2, 0];
        for kind in [ModelKind::Cart, ModelKind::Forest { n_trees: 5 }] {
            let m = Model::fit(&d, kind, 9);
            let c = CompiledModel::compile(&m);
            let plan = c.plan_grid(&grid64, prefix).expect("trees plan");
            assert_eq!(plan.rows(), rows);
            for suffix in suffixes {
                for &mask in &masks {
                    let mask = mask & (u64::MAX >> (64 - rows));
                    let mut got = Vec::new();
                    c.predict_grid(&plan, &suffix, mask, &mut got);
                    assert_eq!(got.len(), rows);
                    for r in 0..rows {
                        if mask >> r & 1 == 0 {
                            continue;
                        }
                        let row = [grid64[r * prefix], grid64[r * prefix + 1], suffix[0]];
                        assert_bit_identical(&got[r], &c.predict(&row));
                    }
                }
            }
        }
        // k-NN has no grid plan — callers fall back to the packed path.
        let knn = CompiledModel::compile(&Model::fit(&d, ModelKind::Knn { k: 3 }, 9));
        assert!(knn.plan_grid(&grid64, prefix).is_none());
    }

    #[test]
    #[should_panic(expected = "grid plan kind does not match")]
    fn mismatched_grid_plan_is_rejected() {
        let d = mixed(60, 37);
        let tree = CompiledModel::compile(&Model::fit(&d, ModelKind::Cart, 1));
        let forest = CompiledModel::compile(&Model::fit(&d, ModelKind::Forest { n_trees: 3 }, 1));
        let plan = forest.plan_grid(&[1.0, 0.0], 2).unwrap();
        tree.predict_grid(&plan, &[0.0], 1, &mut Vec::new());
    }
}
