//! Old-vs-new engine equivalence: the presorted split search and the
//! frame-based builder must reproduce the reference implementation
//! **bit for bit** — same winning feature, same rule, same gain, same
//! child counts, same trees — on randomized mixed datasets, including
//! bootstrap-shaped views with duplicated and shuffled rows.  Whole trees
//! are held to a recursive grower over `cart::split::best_split` below.
//! Likewise `prune_with_alpha` and `cross_validated_prune`, which mark
//! collapses in one flat sweep and score every candidate α of a fold from
//! one routing pass, must return the trees the recursive per-α pruning
//! oracle below returns.

use acic_cart::prune::alpha_sequence;
use acic_cart::split::{best_split, SplitRule};
use acic_cart::{
    best_split_presorted, build_tree, build_tree_view, cross_validated_prune, prune_with_alpha,
    BuildParams, Dataset, Feature, Node, Tree,
};
use acic_cloudsim::rng::SplitMix64;
use proptest::prelude::*;

/// Random mixed dataset: two numeric and two categorical features, with
/// deliberately few distinct numeric values so ties (the stable-sort
/// hazard) occur constantly.
fn mixed_dataset() -> impl Strategy<Value = Dataset> {
    prop::collection::vec(
        ((0u32..12, 0.0f64..100.0), (0u32..3, 0u32..5), -50.0f64..50.0),
        8..90,
    )
    .prop_map(|rows| {
        let mut d = Dataset::new(vec![
            Feature::numeric("xt"), // tie-heavy: 12 distinct values
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

/// Random dataset wider than the builder keeps on the stack: 40 features
/// (the live-feature set of a node is a stack buffer up to 32), half of
/// them categorical with 40 codes, half tie-heavy numeric.
fn wide_dataset() -> impl Strategy<Value = Dataset> {
    const WIDTH: usize = 40;
    prop::collection::vec((prop::collection::vec(0u32..40, WIDTH), -50.0f64..50.0), 8..120)
        .prop_map(|rows| {
            let features = (0..WIDTH)
                .map(|j| {
                    if j % 2 == 0 {
                        Feature::numeric(format!("x{j}"))
                    } else {
                        Feature::categorical(format!("c{j}"), 40)
                    }
                })
                .collect();
            let mut d = Dataset::new(features);
            for (codes, y) in rows {
                let row = codes
                    .iter()
                    .enumerate()
                    .map(|(j, &c)| f64::from(if j % 2 == 0 { c % 12 } else { c }))
                    .collect();
                d.push(row, y);
            }
            d
        })
}

/// The textbook grower: recurse on materialized row lists, searching each
/// node with `cart::split::best_split` under the builder's stop rules.
fn grow_reference(data: &Dataset, params: &BuildParams) -> Tree {
    fn grow(
        data: &Dataset,
        idx: &[usize],
        params: &BuildParams,
        root_sse: f64,
        depth: usize,
        nodes: &mut Vec<Node>,
    ) -> usize {
        let (value, std, n) = (data.target_mean(idx), data.target_std(idx), idx.len());
        let stop = depth >= params.max_depth || n < params.min_split;
        let split = if stop { None } else { best_split(data, idx, params.min_leaf) };
        let at = nodes.len();
        nodes.push(Node::Leaf { value, std, n });
        if let Some(s) = split.filter(|s| s.gain >= params.min_gain_frac * root_sse.max(1e-12)) {
            let (l, r): (Vec<usize>, Vec<usize>) =
                idx.iter().partition(|&&i| s.rule.goes_left(data.value(i, s.feature)));
            let left = grow(data, &l, params, root_sse, depth + 1, nodes);
            let right = grow(data, &r, params, root_sse, depth + 1, nodes);
            let (feature, rule) = (s.feature, s.rule);
            nodes[at] = Node::Internal { feature, rule, value, std, n, left, right };
        }
        at
    }
    let idx: Vec<usize> = (0..data.len()).collect();
    let mut nodes = Vec::new();
    grow(data, &idx, params, data.target_sse(&idx), 0, &mut nodes);
    Tree { nodes, feature_names: data.features.iter().map(|f| f.name.clone()).collect() }
}

// The pruning algorithms before the flat collapse sweep and single-pass α
// scoring, kept verbatim as the oracle: pruning recurses over the arena,
// and every candidate α materializes a pruned copy of each fold tree and
// routes the fold's validation rows through it.

fn node_sse(tree: &Tree, at: usize) -> f64 {
    let n = &tree.nodes[at];
    n.std() * n.std() * n.n() as f64
}

fn collapse(tree: &mut Tree, at: usize) {
    let n = &tree.nodes[at];
    tree.nodes[at] = Node::Leaf { value: n.value(), std: n.std(), n: n.n() };
}

fn compact(tree: &Tree) -> Tree {
    let mut nodes = Vec::new();
    fn go(tree: &Tree, at: usize, out: &mut Vec<Node>) -> usize {
        let slot = out.len();
        out.push(tree.nodes[at].clone()); // placeholder for internal fixup
        if let Node::Internal { left, right, .. } = tree.nodes[at].clone() {
            let l = go(tree, left, out);
            let r = go(tree, right, out);
            if let Node::Internal { left: nl, right: nr, .. } = &mut out[slot] {
                *nl = l;
                *nr = r;
            }
        }
        slot
    }
    go(tree, Tree::ROOT, &mut nodes);
    Tree { nodes, feature_names: tree.feature_names.clone() }
}

fn prune_with_alpha_oracle(tree: &Tree, alpha: f64) -> Tree {
    fn go(t: &mut Tree, at: usize, alpha: f64) -> (f64, usize) {
        match t.nodes[at].clone() {
            Node::Leaf { .. } => (node_sse(t, at), 1),
            Node::Internal { left, right, .. } => {
                let (lr, ll) = go(t, left, alpha);
                let (rr, rl) = go(t, right, alpha);
                let risk = lr + rr;
                let leaves = ll + rl;
                let g = (node_sse(t, at) - risk) / (leaves as f64 - 1.0).max(1.0);
                if g <= alpha {
                    collapse(t, at);
                    (node_sse(t, at), 1)
                } else {
                    (risk, leaves)
                }
            }
        }
    }
    let mut t = tree.clone();
    go(&mut t, Tree::ROOT, alpha);
    compact(&t)
}

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

const MAX_CANDIDATE_ALPHAS: usize = 24;

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
        let idx = i * (gs.len() - 1) / take.max(1).max(1);
        cands.push(gs[idx]);
    }
    cands.push(gs[gs.len() - 1] * 1.5 + 1e-12);
    cands.sort_by(|a, b| a.total_cmp(b));
    cands.dedup_by(|a, b| (*a - *b).abs() < 1e-15);
    cands
}

fn cross_validated_prune_oracle(data: &Dataset, k: usize, seed: u64) -> Tree {
    let full = build_tree(data, &BuildParams::overgrow());
    let alphas = candidate_alphas(&full);
    if alphas.len() <= 1 || data.len() < 2 * k.max(2) {
        return compact(&full);
    }
    let mut rng = SplitMix64::new(seed);
    let mut order: Vec<usize> = (0..data.len()).collect();
    rng.shuffle(&mut order);
    let k = k.max(2).min(data.len());
    let folds: Vec<(Vec<usize>, Vec<usize>)> = (0..k)
        .map(|fold| {
            let val_idx: Vec<usize> = order.iter().copied().skip(fold).step_by(k).collect();
            let train_idx: Vec<usize> = order
                .iter()
                .copied()
                .enumerate()
                .filter(|(pos, _)| pos % k != fold)
                .map(|(_, i)| i)
                .collect();
            (train_idx, val_idx)
        })
        .collect();
    let fold_errs: Vec<Vec<f64>> = folds
        .iter()
        .map(|(train_idx, val_idx)| {
            if train_idx.is_empty() || val_idx.is_empty() {
                return vec![0.0; alphas.len()];
            }
            let fold_tree = build_tree_view(data, train_idx, &BuildParams::overgrow());
            alphas
                .iter()
                .map(|&alpha| prune_with_alpha_oracle(&fold_tree, alpha).mse_view(data, val_idx))
                .collect()
        })
        .collect();
    let mut cv_err = vec![0.0f64; alphas.len()];
    for errs in &fold_errs {
        for (ai, e) in errs.iter().enumerate() {
            cv_err[ai] += e;
        }
    }
    let best = cv_err
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .unwrap_or(0);
    prune_with_alpha_oracle(&full, alphas[best])
}

/// A bootstrap-shaped row view: shuffled, with duplicates.
fn view_of(n: usize) -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0..n, n.max(1))
}

fn assert_same_candidate(
    reference: Option<acic_cart::SplitCandidate>,
    presorted: Option<acic_cart::SplitCandidate>,
) -> Result<(), TestCaseError> {
    match (&reference, &presorted) {
        (None, None) => {}
        (Some(r), Some(p)) => {
            prop_assert_eq!(r.feature, p.feature, "winning feature differs");
            prop_assert!(
                (r.gain - p.gain).abs() <= 1e-9 * r.gain.abs().max(1.0),
                "gain differs: {} vs {}",
                r.gain,
                p.gain
            );
            prop_assert_eq!(r.left_count, p.left_count);
            prop_assert_eq!(r.right_count, p.right_count);
            match (&r.rule, &p.rule) {
                (SplitRule::Le(a), SplitRule::Le(b)) => {
                    prop_assert_eq!(a.to_bits(), b.to_bits(), "threshold differs")
                }
                (SplitRule::In(a), SplitRule::In(b)) => prop_assert_eq!(a, b),
                _ => prop_assert!(false, "rule kinds differ: {:?} vs {:?}", r.rule, p.rule),
            }
            // And the full candidates compare equal (exact f64 equality on
            // the gain included — the engines share accumulation order).
            prop_assert_eq!(&reference, &presorted);
        }
        _ => prop_assert!(false, "one engine split, the other did not: {:?} vs {:?}", reference, presorted),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Root-level split search: identical `SplitCandidate` from both
    /// engines for every `min_leaf` in play.
    #[test]
    fn root_split_matches_reference(d in mixed_dataset(), min_leaf in 1usize..5) {
        let idx: Vec<usize> = (0..d.len()).collect();
        assert_same_candidate(
            best_split(&d, &idx, min_leaf),
            best_split_presorted(&d, &idx, min_leaf),
        )?;
    }

    /// Split search over a bootstrap-shaped view equals the reference on
    /// the materialized subset.
    #[test]
    fn view_split_matches_subset_reference(d in mixed_dataset(), min_leaf in 1usize..4) {
        let rows_strategy_input = d.len();
        let rows: Vec<usize> = (0..rows_strategy_input)
            .map(|i| (i * 31 + 7) % rows_strategy_input)
            .collect();
        let sub = d.subset(&rows);
        let sub_idx: Vec<usize> = (0..rows.len()).collect();
        assert_same_candidate(
            best_split(&sub, &sub_idx, min_leaf),
            best_split_presorted(&d, &rows, min_leaf),
        )?;
    }

    /// Whole-tree equivalence with the textbook grower: the presorted
    /// builder's partition maintenance, exhausted-feature dropping and
    /// min-gain filter below the root pick the nodes `best_split` picks.
    #[test]
    fn built_trees_match_the_split_oracle(d in mixed_dataset(), overgrow in prop::bool::ANY) {
        let params = if overgrow { BuildParams::overgrow() } else { BuildParams::default() };
        prop_assert_eq!(build_tree(&d, &params), grow_reference(&d, &params));
    }

    /// Whole-tree equivalence: the frame-based builder on a random view
    /// produces a tree equal (node arena, rules, values, stds, counts) to
    /// building on the materialized subset — which exercises partition
    /// maintenance of the sorted orders down the full recursion.
    #[test]
    fn built_trees_match_on_views(d in mixed_dataset(), rows in view_of(64), overgrow in prop::bool::ANY) {
        let rows: Vec<usize> = rows.into_iter().map(|r| r % d.len()).collect();
        let params = if overgrow { BuildParams::overgrow() } else { BuildParams::default() };
        let via_view = build_tree_view(&d, &rows, &params);
        let via_subset = build_tree(&d.subset(&rows), &params);
        prop_assert_eq!(via_view, via_subset);
    }

    /// A schema wider than the builder's stack buffers takes the heap
    /// path for its live-feature sets and still grows the oracle's trees.
    #[test]
    fn wide_schemas_match_the_split_oracle(d in wide_dataset(), overgrow in prop::bool::ANY) {
        let params = if overgrow { BuildParams::overgrow() } else { BuildParams::default() };
        prop_assert_eq!(build_tree(&d, &params), grow_reference(&d, &params));
    }

    /// Tree MSE over a view equals tree MSE over the materialized subset.
    #[test]
    fn mse_view_matches_subset(d in mixed_dataset(), rows in view_of(40)) {
        let rows: Vec<usize> = rows.into_iter().map(|r| r % d.len()).collect();
        let tree = build_tree(&d, &BuildParams::default());
        prop_assert_eq!(
            tree.mse_view(&d, &rows).to_bits(),
            tree.mse(&d.subset(&rows)).to_bits()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The flat collapse sweep prunes every tree the way the recursive
    /// oracle does, at every weakest-link α and between them.
    #[test]
    fn prune_matches_recursive_oracle(d in mixed_dataset(), overgrow in prop::bool::ANY) {
        let params = if overgrow { BuildParams::overgrow() } else { BuildParams::default() };
        let tree = build_tree(&d, &params);
        let mut alphas = alpha_sequence(&tree);
        alphas.extend(candidate_alphas(&tree));
        alphas.extend(alphas.clone().windows(2).map(|w| 0.5 * (w[0] + w[1])));
        alphas.push(f64::INFINITY);
        for alpha in alphas {
            prop_assert_eq!(prune_with_alpha(&tree, alpha), prune_with_alpha_oracle(&tree, alpha));
        }
    }

    /// Single-pass α scoring selects the same α as the per-α pruning
    /// oracle, so the returned trees are equal node for node.
    #[test]
    fn cv_prune_matches_per_alpha_oracle(
        d in mixed_dataset(),
        constant in prop::bool::ANY,
        k in 2usize..=6,
        seed in 0u64..1_000_000,
    ) {
        // Sizes start below 2k rows (the unpruned tree comes back); a
        // constant target grows a stump with at most one candidate α.
        let mut d = d;
        if constant {
            d.targets.fill(7.25);
        }
        let oracle = cross_validated_prune_oracle(&d, k, seed);
        prop_assert_eq!(cross_validated_prune(&d, k, seed), oracle);
    }
}
