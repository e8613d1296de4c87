//! Minimal cost-complexity ("weakest link") pruning with cross-validated
//! selection of the complexity parameter α — "the optimal decision tree is
//! pruned to avoid over-fitting" (paper §4.2).

use crate::builder::{build_tree, build_tree_view, BuildParams};
use crate::dataset::Dataset;
use crate::tree::{Node, Tree};
use acic_cloudsim::rng::SplitMix64;

/// SSE of node `at` if it were collapsed to a leaf.
fn node_sse(tree: &Tree, at: usize) -> f64 {
    let n = &tree.nodes[at];
    n.std() * n.std() * n.n() as f64
}

/// `(subtree_leaf_sse, subtree_leaf_count)` below `at`.
fn subtree_risk(tree: &Tree, at: usize) -> (f64, usize) {
    match &tree.nodes[at] {
        Node::Leaf { .. } => (node_sse(tree, at), 1),
        Node::Internal { left, right, .. } => {
            let (ls, lc) = subtree_risk(tree, *left);
            let (rs, rc) = subtree_risk(tree, *right);
            (ls + rs, lc + rc)
        }
    }
}

/// The weakest link: the internal node with the smallest
/// `g(t) = (R(t) − R(T_t)) / (|leaves| − 1)`, and its `g` value.
fn weakest_link(tree: &Tree) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for at in 0..tree.nodes.len() {
        if tree.nodes[at].is_leaf() || !is_reachable(tree, at) {
            continue;
        }
        let (risk, leaves) = subtree_risk(tree, at);
        let g = (node_sse(tree, at) - risk) / (leaves as f64 - 1.0).max(1.0);
        match best {
            None => best = Some((at, g)),
            Some((_, bg)) if g < bg => best = Some((at, g)),
            _ => {}
        }
    }
    best
}

/// Is arena slot `at` reachable from the root?  (Collapsing leaves dead
/// slots behind; they must not participate in pruning decisions.)
fn is_reachable(tree: &Tree, target: usize) -> bool {
    fn go(tree: &Tree, at: usize, target: usize) -> bool {
        if at == target {
            return true;
        }
        match &tree.nodes[at] {
            Node::Leaf { .. } => false,
            Node::Internal { left, right, .. } => {
                go(tree, *left, target) || go(tree, *right, target)
            }
        }
    }
    go(tree, Tree::ROOT, target)
}

/// Copy the nodes reachable from the root in pre-order, turning every node
/// marked in `cut` into a leaf (its stats are already stored) and dropping
/// the subtree below it, so no dead arena slot survives.
fn compact(tree: &Tree, cut: &[bool]) -> Tree {
    fn go(tree: &Tree, at: usize, cut: &[bool], out: &mut Vec<Node>) -> usize {
        let slot = out.len();
        let node = &tree.nodes[at];
        match node {
            Node::Internal { left, right, .. } if !cut[at] => {
                out.push(node.clone()); // placeholder for internal fixup
                let l = go(tree, *left, cut, out);
                let r = go(tree, *right, cut, out);
                if let Node::Internal { left: nl, right: nr, .. } = &mut out[slot] {
                    *nl = l;
                    *nr = r;
                }
            }
            _ => out.push(Node::Leaf { value: node.value(), std: node.std(), n: node.n() }),
        }
        slot
    }
    let mut nodes = Vec::new();
    go(tree, Tree::ROOT, cut, &mut nodes);
    Tree { nodes, feature_names: tree.feature_names.clone() }
}

/// Prune `tree` for complexity parameter `alpha` in one bottom-up pass.
///
/// The cost-complexity optimal subtree T(α) collapses every internal node
/// whose link strength `g(t) = (R(t) − R(T_t)) / (|leaves(T_t)| − 1)`,
/// evaluated against the *already pruned* children, does not exceed α —
/// which one reverse sweep over the arena marks in O(n) ([`Links::mark`]).
/// (The iterative weakest-link formulation used by [`alpha_sequence`]
/// produces the same subtree; this form is what makes pruning affordable
/// on the multi-thousand-point ACIC training databases.)
pub fn prune_with_alpha(tree: &Tree, alpha: f64) -> Tree {
    let mut links = Links::default();
    links.load(tree);
    links.mark(alpha);
    compact(tree, &links.collapsed)
}

/// The increasing α sequence at which the optimal subtree changes
/// (weakest-link g values as the tree is pruned to the root).  O(n²) —
/// use only on modest trees; [`cross_validated_prune`] subsamples it.
pub fn alpha_sequence(tree: &Tree) -> Vec<f64> {
    let mut t = tree.clone();
    let mut alphas = vec![0.0];
    while let Some((at, g)) = weakest_link(&t) {
        alphas.push(g.max(*alphas.last().unwrap()));
        let mut cut = vec![false; t.nodes.len()];
        cut[at] = true;
        t = compact(&t, &cut);
    }
    alphas
}

/// All link strengths of a tree in one O(n) pass (pruned-children
/// semantics are ignored; this is only used to pick candidate α values).
fn link_strengths(tree: &Tree) -> Vec<f64> {
    fn go(t: &Tree, at: usize, out: &mut Vec<f64>) -> (f64, usize) {
        match &t.nodes[at] {
            Node::Leaf { .. } => (node_sse(t, at), 1),
            Node::Internal { left, right, .. } => {
                let (lr, ll) = go(t, *left, out);
                let (rr, rl) = go(t, *right, out);
                let risk = lr + rr;
                let leaves = ll + rl;
                out.push((node_sse(t, at) - risk) / (leaves as f64 - 1.0).max(1.0));
                (risk, leaves)
            }
        }
    }
    let mut out = Vec::new();
    go(tree, Tree::ROOT, &mut out);
    out
}

/// Maximum number of candidate α values evaluated per CV fold.
const MAX_CANDIDATE_ALPHAS: usize = 24;

/// Grow an overgrown tree on `data` and prune it back with `k`-fold
/// cross-validation: candidate αs are quantiles of the full tree's link
/// strengths (subsampled to [`MAX_CANDIDATE_ALPHAS`]); each fold votes
/// with its validation MSE; the α with the lowest mean CV error wins.
///
/// Folds are grown, scored and dropped one at a time on row views of
/// `data` (no subset clones, one fold tree alive at once).  A fold scores
/// every candidate α from one routing of its validation rows
/// ([`FoldScorer`]) instead of materializing a pruned tree per α; the
/// per-α errors are summed in fold order, so the selected α — and hence
/// the returned tree — is bit-identical to pruning each fold tree with
/// [`prune_with_alpha`] and taking its [`Tree::mse_view`].
pub fn cross_validated_prune(data: &Dataset, k: usize, seed: u64) -> Tree {
    let full = build_tree(data, &BuildParams::overgrow());
    let alphas = candidate_alphas(&full);
    if alphas.len() <= 1 || data.len() < 2 * k.max(2) {
        return full;
    }

    // Shuffled fold assignment.
    let mut rng = SplitMix64::new(seed);
    let mut order: Vec<usize> = (0..data.len()).collect();
    rng.shuffle(&mut order);

    let k = k.max(2).min(data.len());
    let mut cv_err = vec![0.0f64; alphas.len()];
    let mut scorer = FoldScorer::default();
    for fold in 0..k {
        let val_idx: Vec<usize> = order.iter().copied().skip(fold).step_by(k).collect();
        let train_idx: Vec<usize> = order
            .iter()
            .copied()
            .enumerate()
            .filter(|(pos, _)| pos % k != fold)
            .map(|(_, i)| i)
            .collect();
        if train_idx.is_empty() || val_idx.is_empty() {
            continue;
        }
        let fold_tree = build_tree_view(data, &train_idx, &BuildParams::overgrow());
        scorer.route(&fold_tree, data, &val_idx);
        for (err, &alpha) in cv_err.iter_mut().zip(&alphas) {
            *err += scorer.mse(alpha);
        }
    }

    let best = cv_err
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .unwrap_or(0);
    prune_with_alpha(&full, alphas[best])
}

/// A tree flattened for the pruning sweeps.  Arena children sit after
/// their parent (the builder reserves the parent's slot first and
/// [`compact`] copies in pre-order), so a reverse sweep over the flat arena
/// is the pruning's post-order and a forward sweep is top-down.
#[derive(Default)]
struct Links {
    /// Per node: children, or `None` for a leaf.
    kids: Vec<Option<(usize, usize)>>,
    /// Per node: SSE if collapsed to a leaf.
    sse: Vec<f64>,
    /// Per-α scratch: pruned subtree risk and leaf count, and collapse marks.
    risk: Vec<(f64, usize)>,
    collapsed: Vec<bool>,
}

impl Links {
    fn load(&mut self, tree: &Tree) {
        self.kids.clear();
        self.sse.clear();
        for (at, node) in tree.nodes.iter().enumerate() {
            self.kids.push(match node {
                Node::Leaf { .. } => None,
                Node::Internal { left, right, .. } => {
                    assert!(*left > at && *right > at, "children must follow their parent");
                    Some((*left, *right))
                }
            });
            self.sse.push(node_sse(tree, at));
        }
        let n = tree.nodes.len();
        self.risk.resize(n, (0.0, 0));
        self.collapsed.resize(n, false);
    }

    /// Mark the nodes [`prune_with_alpha`] collapses at `alpha`: a node's
    /// link strength is taken against its already pruned children.
    fn mark(&mut self, alpha: f64) {
        for at in (0..self.kids.len()).rev() {
            let (risk, collapsed) = match self.kids[at] {
                None => ((self.sse[at], 1), false),
                Some((l, r)) => {
                    let (lr, ll) = self.risk[l];
                    let (rr, rl) = self.risk[r];
                    let risk = lr + rr;
                    let leaves = ll + rl;
                    let g = (self.sse[at] - risk) / (leaves as f64 - 1.0).max(1.0);
                    if g <= alpha {
                        ((self.sse[at], 1), true)
                    } else {
                        ((risk, leaves), false)
                    }
                }
            };
            self.risk[at] = risk;
            self.collapsed[at] = collapsed;
        }
    }
}

/// Scores one fold tree at any α from a single routing of its validation
/// rows.  A pruned tree routes a row along a prefix of its full-tree path,
/// so the row's answer is the value of the shallowest collapsed node on
/// that path ([`Links::mark`]), or of its leaf.
#[derive(Default)]
struct FoldScorer {
    links: Links,
    /// Per node: mean target (the answer when it is, or acts as, a leaf).
    value: Vec<f64>,
    /// Per validation row, in `val_idx` order: its full-tree leaf.
    leaf: Vec<usize>,
    /// Per validation row: its target.
    target: Vec<f64>,
    /// Per-α scratch: each node's shallowest collapsed ancestor-or-self.
    top: Vec<usize>,
}

impl FoldScorer {
    /// Flatten `tree` and route `val_idx`'s rows of `data` to their leaves.
    fn route(&mut self, tree: &Tree, data: &Dataset, val_idx: &[usize]) {
        self.links.load(tree);
        self.value.clear();
        self.value.extend(tree.nodes.iter().map(Node::value));
        self.leaf.clear();
        self.target.clear();
        for &i in val_idx {
            let mut at = Tree::ROOT;
            while let Node::Internal { feature, rule, left, right, .. } = &tree.nodes[at] {
                at = if rule.goes_left(data.value(i, *feature)) { *left } else { *right };
            }
            self.leaf.push(at);
            self.target.push(data.targets[i]);
        }
        self.top.resize(tree.nodes.len(), 0);
    }

    /// Validation MSE of the tree pruned at `alpha` — bit-identical to
    /// `prune_with_alpha(tree, alpha).mse_view(data, val_idx)`.
    fn mse(&mut self, alpha: f64) -> f64 {
        self.links.mark(alpha);
        let Links { kids, collapsed, .. } = &self.links;
        self.top[Tree::ROOT] = Tree::ROOT;
        for (at, kids) in kids.iter().enumerate() {
            if let Some((l, r)) = *kids {
                let t = self.top[at];
                let cut = collapsed[t];
                self.top[l] = if cut { t } else { l };
                self.top[r] = if cut { t } else { r };
            }
        }
        let mut sum = 0.0;
        for (&leaf, &y) in self.leaf.iter().zip(&self.target) {
            let d = self.value[self.top[leaf]] - y;
            sum += d * d;
        }
        sum / self.leaf.len() as f64
    }
}

/// Candidate αs: quantiles of the tree's link strengths, padded with 0
/// (no pruning) and a value above the maximum (prune to root).
fn candidate_alphas(tree: &Tree) -> Vec<f64> {
    let mut gs = link_strengths(tree);
    gs.retain(|g| g.is_finite() && *g >= 0.0);
    gs.sort_by(|a, b| a.total_cmp(b));
    gs.dedup_by(|a, b| (*a - *b).abs() < 1e-15);
    let mut cands = vec![0.0];
    if gs.is_empty() {
        return cands;
    }
    let take = gs.len().min(MAX_CANDIDATE_ALPHAS - 2);
    for i in 0..take {
        // Evenly spaced quantiles over the sorted strengths.
        let idx = i * (gs.len() - 1) / take.max(1).max(1);
        cands.push(gs[idx]);
    }
    cands.push(gs[gs.len() - 1] * 1.5 + 1e-12);
    cands.sort_by(|a, b| a.total_cmp(b));
    cands.dedup_by(|a, b| (*a - *b).abs() < 1e-15);
    cands
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{Dataset, Feature};

    /// Noisy step data: signal at x<10 vs x>=10, plus deterministic noise.
    fn noisy_step(n: usize) -> Dataset {
        let mut d = Dataset::new(vec![Feature::numeric("x")]);
        let mut rng = SplitMix64::new(42);
        for i in 0..n {
            let x = (i % 20) as f64;
            let y = if x < 10.0 { 10.0 } else { 50.0 } + rng.uniform(-3.0, 3.0);
            d.push(vec![x], y);
        }
        d
    }

    #[test]
    fn infinite_alpha_prunes_to_root() {
        let d = noisy_step(100);
        let full = build_tree(&d, &BuildParams::overgrow());
        let pruned = prune_with_alpha(&full, f64::INFINITY);
        assert_eq!(pruned.leaf_count(), 1);
    }

    #[test]
    fn zero_alpha_keeps_the_tree() {
        let d = noisy_step(100);
        let full = build_tree(&d, &BuildParams::overgrow());
        let pruned = prune_with_alpha(&full, 0.0);
        // Collapses only zero-gain splits; leaf count must not grow.
        assert!(pruned.leaf_count() <= full.leaf_count());
        assert!(pruned.leaf_count() > 1);
    }

    #[test]
    fn alpha_sequence_is_monotone() {
        let d = noisy_step(120);
        let full = build_tree(&d, &BuildParams::overgrow());
        let seq = alpha_sequence(&full);
        assert!(seq.len() > 2);
        for w in seq.windows(2) {
            assert!(w[1] >= w[0], "alpha sequence must be nondecreasing: {seq:?}");
        }
    }

    #[test]
    fn larger_alpha_gives_smaller_tree() {
        let d = noisy_step(150);
        let full = build_tree(&d, &BuildParams::overgrow());
        let seq = alpha_sequence(&full);
        let mid = seq[seq.len() / 2];
        let small = prune_with_alpha(&full, mid);
        let tiny = prune_with_alpha(&full, seq[seq.len() - 1] + 1.0);
        assert!(small.leaf_count() <= full.leaf_count());
        assert!(tiny.leaf_count() <= small.leaf_count());
    }

    #[test]
    fn cv_prune_cuts_overfit_but_keeps_signal() {
        let d = noisy_step(200);
        let full = build_tree(&d, &BuildParams::overgrow());
        let pruned = cross_validated_prune(&d, 5, 7);
        assert!(pruned.leaf_count() < full.leaf_count(), "CV must prune something");
        // The true structure (two levels) must survive.
        let lo = pruned.predict(&[3.0]).value;
        let hi = pruned.predict(&[15.0]).value;
        assert!((lo - 10.0).abs() < 3.0, "low segment ≈ 10, got {lo}");
        assert!((hi - 50.0).abs() < 3.0, "high segment ≈ 50, got {hi}");
    }

    #[test]
    fn compact_removes_dead_slots() {
        let d = noisy_step(100);
        let full = build_tree(&d, &BuildParams::overgrow());
        let pruned = prune_with_alpha(&full, alpha_sequence(&full)[1]);
        // After compaction every slot is reachable: walking the tree visits
        // them all.
        let mut visited = vec![false; pruned.nodes.len()];
        fn walk(t: &Tree, at: usize, seen: &mut [bool]) {
            seen[at] = true;
            if let Node::Internal { left, right, .. } = &t.nodes[at] {
                walk(t, *left, seen);
                walk(t, *right, seen);
            }
        }
        walk(&pruned, Tree::ROOT, &mut visited);
        assert!(visited.iter().all(|&v| v), "compacted tree has dead arena slots");
    }

    #[test]
    fn fold_scorer_matches_pruned_tree_mse_bit_for_bit() {
        let d = noisy_step(300);
        let mut rng = SplitMix64::new(9);
        let mut rows: Vec<usize> = (0..d.len()).collect();
        rng.shuffle(&mut rows);
        let (train, val) = rows.split_at(220);
        let tree = build_tree_view(&d, train, &BuildParams::overgrow());
        let mut scorer = FoldScorer::default();
        scorer.route(&tree, &d, val);
        let mut alphas = alpha_sequence(&tree);
        alphas.extend(candidate_alphas(&tree));
        alphas.push(f64::INFINITY);
        for alpha in alphas {
            let want = prune_with_alpha(&tree, alpha).mse_view(&d, val);
            assert_eq!(scorer.mse(alpha).to_bits(), want.to_bits(), "alpha {alpha}");
        }
    }

    #[test]
    fn cv_prune_handles_tiny_datasets() {
        let mut d = Dataset::new(vec![Feature::numeric("x")]);
        for i in 0..6 {
            d.push(vec![i as f64], i as f64);
        }
        // Must not panic, whatever it returns.
        let t = cross_validated_prune(&d, 5, 1);
        assert!(t.leaf_count() >= 1);
    }

    #[test]
    fn pruned_tree_predicts_everywhere() {
        let d = noisy_step(100);
        let t = cross_validated_prune(&d, 4, 3);
        for x in [-5.0, 0.0, 9.9, 10.0, 25.0] {
            let p = t.predict(&[x]);
            assert!(p.value.is_finite());
            assert!(p.support > 0);
        }
    }
}
