//! Presorted, frame-based split search — the fast path behind the builder.
//!
//! The textbook CART weakness is re-sorting every numeric feature at every
//! node: O(d · N log N) per node, O(d · N log² N)-ish per tree.  The classic
//! fix (CART's own implementation, later XGBoost's "exact greedy") is to
//! sort each numeric feature **once per tree** and then *maintain* the
//! sorted order down the recursion: a stable O(N) sweep partitions each
//! per-feature array when a node splits, and a subsequence of a sorted
//! array is still sorted.
//!
//! [`TreeFrame`] packages that state for the rows the tree trains on
//! (identity for a plain fit, a bootstrap multiset for bagging, a shuffled
//! subset for CV folds).  Two layouts coexist, both partitioned in place as
//! the tree grows:
//!
//! * **row order** — `node_order` (positions) with `node_targets` and the
//!   categorical columns (`node_vals`) carried *alongside*, so node
//!   statistics and categorical tallies stream sequential memory;
//! * **sorted order** — per numeric feature, positions (`sorted_pos`) with
//!   the feature values (`sorted_vals`) and targets (`sorted_targets`)
//!   carried alongside, so the threshold sweep streams sequential memory
//!   instead of gathering through position indirections.
//!
//! Carrying the `f64` payloads through the partition costs a few extra
//! linear copies per node but converts every hot inner loop from random
//! gathers into streaming reads — the difference between ~1.7× and >3×
//! over the reference engine at 10k rows.  The recursion in
//! [`crate::builder`] works on `[lo, hi)` ranges of these arrays: no
//! per-node allocation, no per-node sorting.
//!
//! # Bit-exactness invariant
//!
//! Every floating-point accumulation visits values in **exactly** the order
//! the reference implementation ([`crate::split::best_split`]) visits them,
//! so the two produce identical trees, not merely statistically equivalent
//! ones:
//!
//! * node statistics and categorical tallies run in `node_order` order,
//!   which mirrors the reference's per-node `idx` vector (row order,
//!   preserved by stable partition);
//! * numeric scans run in presorted order, whose tie order equals the
//!   reference's per-node stable sort (positions ascend within a node, and
//!   stable partition keeps them ascending) — and the fused sweep folds
//!   totals and prefix sums in **one** chain, snapshotting the running
//!   accumulators at cut boundaries (a snapshot cannot change the bits of
//!   a fold);
//! * the carried payload arrays hold the very same `f64` values the
//!   reference would gather through its index vectors — relocating them
//!   changes which cache line a value lives in, never the value or the
//!   order it enters an accumulator;
//! * gains, guards, and tie-breaks reuse the reference formulas verbatim.
//!
//! `tests/equivalence.rs` holds the two implementations against each other
//! on randomized mixed datasets.

use crate::dataset::{Dataset, FeatureKind};
use crate::split::{SplitCandidate, SplitRule};

/// Per-tree training state: row-order and sorted-order views of the
/// training rows plus partition scratch.  See the module docs.
pub struct TreeFrame {
    kinds: Vec<FeatureKind>,
    /// Frame positions in row order; the range `[lo, hi)` of a node lists
    /// its rows in the same order the reference implementation's `idx`
    /// vector would.
    node_order: Vec<u32>,
    /// Targets aligned with `node_order`.
    node_targets: Vec<f64>,
    /// For each categorical feature, its values aligned with `node_order`
    /// (empty for numeric features).
    node_vals: Vec<Vec<f64>>,
    /// For each numeric feature, frame positions sorted by value (empty
    /// for categorical features).
    sorted_pos: Vec<Vec<u32>>,
    /// Feature values aligned with `sorted_pos` (i.e. in sorted order).
    sorted_vals: Vec<Vec<f64>>,
    /// Targets aligned with `sorted_pos`.
    sorted_targets: Vec<Vec<f64>>,
    /// Routing of each frame position for the split being applied.
    goes_left: Vec<bool>,
    scratch_pos: Vec<u32>,
    scratch_val: Vec<f64>,
    scratch_tgt: Vec<f64>,
    /// Per-categorical-feature spill buffers for the fused row-order
    /// partition (empty for numeric features).
    cat_scratch: Vec<Vec<f64>>,
    /// Per-categorical-feature tally buffers (arity-sized, empty for
    /// numeric features), reused across nodes so the split search never
    /// allocates per node.
    tally_cnt: Vec<Vec<usize>>,
    tally_sum: Vec<Vec<f64>>,
    tally_sq: Vec<Vec<f64>>,
    /// Scratch for the mean-ordered category scan.
    cat_order: Vec<usize>,
    /// Scratch for the fused numeric sweep: `(k, running_sum, running_sq)`
    /// snapshots at legal cut boundaries, reused across nodes and features.
    sweep_bounds: Vec<(u32, f64, f64)>,
}

impl TreeFrame {
    /// Build a frame over `rows` of `data` (frame position `p` trains on
    /// dataset row `rows[p]`; duplicates are fine — a bootstrap sample is
    /// exactly that).
    ///
    /// Non-identity views derive their per-feature sorted orders from the
    /// dataset's cached value ranks ([`Dataset::value_ranks`]) with one
    /// O(m + groups) counting pass per feature instead of a comparison
    /// sort — the fix for bagging, where every bootstrap tree used to
    /// re-sort every column.  The derived order is (value, position)
    /// ascending, bit-identical to the stable per-frame sort the reference
    /// engine performs.
    pub fn new(data: &Dataset, rows: &[usize]) -> Self {
        let m = rows.len();
        let kinds: Vec<FeatureKind> = data.features.iter().map(|f| f.kind).collect();
        let node_targets: Vec<f64> = {
            let t = &data.targets;
            rows.iter().map(|&i| t[i]).collect()
        };
        let mut node_vals = Vec::with_capacity(kinds.len());
        let mut sorted_pos = Vec::with_capacity(kinds.len());
        let mut sorted_vals = Vec::with_capacity(kinds.len());
        let mut sorted_targets = Vec::with_capacity(kinds.len());
        // A frame over the identity view can lift the dataset's cached
        // per-feature sort orders (row index == frame position, so the
        // cached tie order — ascending row — is exactly the ascending
        // position order a stable per-frame sort would produce).  This is
        // the common case: plain fits and the per-candidate prune fits all
        // train on every row.
        let identity = m == data.len() && rows.iter().enumerate().all(|(p, &i)| p == i);
        for (j, kind) in kinds.iter().enumerate() {
            let col = data.column(j);
            match kind {
                FeatureKind::Numeric => {
                    let order: Vec<u32> = if identity {
                        data.presorted()[j].clone()
                    } else {
                        // Counting pass over the dataset's dense value
                        // ranks: bucket positions by rank, emit buckets in
                        // rank order.  Scanning positions ascending keeps
                        // ties in ascending position order — exactly the
                        // stable sort's tie order, at O(m + groups) instead
                        // of O(m log m).
                        let rc = &data.value_ranks()[j];
                        let mut counts = vec![0u32; rc.groups as usize];
                        for &i in rows {
                            counts[rc.rank[i] as usize] += 1;
                        }
                        let mut start = 0u32;
                        for c in counts.iter_mut() {
                            let n = *c;
                            *c = start;
                            start += n;
                        }
                        let mut order = vec![0u32; m];
                        for (p, &i) in rows.iter().enumerate() {
                            let slot = &mut counts[rc.rank[i] as usize];
                            order[*slot as usize] = p as u32;
                            *slot += 1;
                        }
                        order
                    };
                    sorted_vals.push(
                        order.iter().map(|&p| col[rows[p as usize]]).collect(),
                    );
                    sorted_targets.push(order.iter().map(|&p| node_targets[p as usize]).collect());
                    sorted_pos.push(order);
                    node_vals.push(Vec::new());
                }
                FeatureKind::Categorical { .. } => {
                    node_vals.push(rows.iter().map(|&i| col[i]).collect());
                    sorted_pos.push(Vec::new());
                    sorted_vals.push(Vec::new());
                    sorted_targets.push(Vec::new());
                }
            }
        }
        let cat_scratch: Vec<Vec<f64>> = kinds
            .iter()
            .map(|k| match k {
                FeatureKind::Categorical { .. } => vec![0.0; m],
                FeatureKind::Numeric => Vec::new(),
            })
            .collect();
        let arity_of = |k: &FeatureKind| match k {
            FeatureKind::Categorical { arity } => *arity as usize,
            FeatureKind::Numeric => 0,
        };
        let tally_cnt: Vec<Vec<usize>> = kinds.iter().map(|k| vec![0; arity_of(k)]).collect();
        let tally_sum: Vec<Vec<f64>> = kinds.iter().map(|k| vec![0.0; arity_of(k)]).collect();
        let tally_sq: Vec<Vec<f64>> = kinds.iter().map(|k| vec![0.0; arity_of(k)]).collect();
        Self {
            kinds,
            node_order: (0..m as u32).collect(),
            node_targets,
            node_vals,
            sorted_pos,
            sorted_vals,
            sorted_targets,
            goes_left: vec![false; m],
            scratch_pos: vec![0; m],
            scratch_val: vec![0.0; m],
            scratch_tgt: vec![0.0; m],
            cat_scratch,
            tally_cnt,
            tally_sum,
            tally_sq,
            cat_order: Vec::new(),
            sweep_bounds: Vec::new(),
        }
    }

    /// Rows in the frame.
    pub fn len(&self) -> usize {
        self.node_targets.len()
    }

    /// True when the frame has no rows.
    pub fn is_empty(&self) -> bool {
        self.node_targets.is_empty()
    }

    /// Target mean over the node `[lo, hi)` (reference order).
    pub fn target_mean(&self, lo: usize, hi: usize) -> f64 {
        if lo == hi {
            return 0.0;
        }
        self.node_targets[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
    }

    /// Population standard deviation of the target over `[lo, hi)`.
    pub fn target_std(&self, lo: usize, hi: usize) -> f64 {
        if hi - lo < 2 {
            return 0.0;
        }
        let mean = self.target_mean(lo, hi);
        let var = self.node_targets[lo..hi]
            .iter()
            .map(|&y| {
                let d = y - mean;
                d * d
            })
            .sum::<f64>()
            / (hi - lo) as f64;
        var.sqrt()
    }

    /// Sum of squared errors around the mean over `[lo, hi)`.
    pub fn target_sse(&self, lo: usize, hi: usize) -> f64 {
        let mean = self.target_mean(lo, hi);
        self.node_targets[lo..hi]
            .iter()
            .map(|&y| {
                let d = y - mean;
                d * d
            })
            .sum()
    }

    /// `(mean, std, sse)` of the node `[lo, hi)` in two target passes
    /// instead of the five that separate calls would cost.  Bit-identical
    /// to the separate methods: the squared-deviation sum is accumulated
    /// once in reference order, and the reference's variance is exactly
    /// that sum over `n` (so `std = sqrt(sse / n)` reuses it).
    pub fn node_stats(&self, lo: usize, hi: usize) -> (f64, f64, f64) {
        let n = hi - lo;
        let mean = self.target_mean(lo, hi);
        let sse = self.node_sse_with_mean(lo, hi, mean);
        let std = if n < 2 { 0.0 } else { (sse / n as f64).sqrt() };
        (mean, std, sse)
    }

    /// Target sum over `[lo, hi)`, folded in node (reference) order — the
    /// numerator of [`Self::target_mean`].
    pub fn node_sum(&self, lo: usize, hi: usize) -> f64 {
        self.node_targets[lo..hi].iter().sum()
    }

    /// Sum of squared deviations from a caller-supplied mean over
    /// `[lo, hi)`, in reference order.
    pub fn node_sse_with_mean(&self, lo: usize, hi: usize, mean: f64) -> f64 {
        self.node_targets[lo..hi]
            .iter()
            .map(|&y| {
                let d = y - mean;
                d * d
            })
            .sum()
    }

    /// Find the best split of the node `[lo, hi)` over all features,
    /// requiring at least `min_leaf` rows on each side.  Same contract and
    /// same result, bit for bit, as [`crate::split::best_split`].
    pub fn best_split(&mut self, lo: usize, hi: usize, min_leaf: usize) -> Option<SplitCandidate> {
        let mut active = vec![true; self.kinds.len()];
        let mean = self.target_mean(lo, hi);
        self.best_split_with_mean(lo, hi, min_leaf, mean, &mut active).1
    }

    /// [`Self::best_split`] with the node's target mean supplied by the
    /// caller (the builder derives it from the sum the parent's partition
    /// folded).  Returns `(sse, candidate)`: the node's SSE falls out of
    /// the same streaming pass that tallies the categorical features, so a
    /// splitting node makes one target pass where separate stats + tally
    /// calls would make two.
    ///
    /// `active` marks the features still worth scanning in this subtree:
    /// features found exhausted here (constant numeric column, single
    /// present category) are cleared in place.  Exhaustion is monotone
    /// down the tree — a subset of a constant column is constant — so the
    /// builder passes each node's cleared set to its children, which then
    /// skip both the scan and the partition maintenance of dead features.
    /// Skipping is bit-exact: the reference scan of an exhausted feature
    /// always returns `None`.
    ///
    /// Takes `&mut self` only for its scratch: the node arrays are read,
    /// the per-feature tally buffers are overwritten.
    pub fn best_split_with_mean(
        &mut self,
        lo: usize,
        hi: usize,
        min_leaf: usize,
        mean: f64,
        active: &mut [bool],
    ) -> (f64, Option<SplitCandidate>) {
        let n = hi - lo;
        // Too small to split anywhere: every per-feature scan would bail,
        // so only the SSE is needed.
        if n < 2 * min_leaf {
            return (self.node_sse_with_mean(lo, hi, mean), None);
        }

        // One streaming pass over the node: fold the SSE and tally every
        // live categorical feature, reading (and squaring) the target once
        // per row instead of once per feature.  Each accumulator still
        // sees its values in reference order.  The tallies land in the
        // frame's reused per-feature buffers — no per-node allocation.
        let node_sse = {
            let Self { kinds, node_vals, node_targets, tally_cnt, tally_sum, tally_sq, .. } =
                self;
            let mut live: Vec<(&[f64], &mut [usize], &mut [f64], &mut [f64])> =
                Vec::with_capacity(kinds.len());
            let bufs = tally_cnt.iter_mut().zip(tally_sum.iter_mut()).zip(tally_sq.iter_mut());
            for (j, ((cnt, sum), sq)) in bufs.enumerate() {
                if active[j] && matches!(kinds[j], FeatureKind::Categorical { .. }) {
                    cnt.fill(0);
                    sum.fill(0.0);
                    sq.fill(0.0);
                    live.push((&node_vals[j][lo..hi], cnt, sum, sq));
                }
            }
            let mut sse = 0.0;
            for (k, &y) in node_targets[lo..hi].iter().enumerate() {
                let d = y - mean;
                sse += d * d;
                let y2 = y * y;
                for (vals, cnt, sum, sq) in &mut live {
                    let c = vals[k] as usize;
                    cnt[c] += 1;
                    sum[c] += y;
                    sq[c] += y2;
                }
            }
            sse
        };

        let Self {
            kinds,
            sorted_vals,
            sorted_targets,
            tally_cnt,
            tally_sum,
            tally_sq,
            cat_order,
            sweep_bounds,
            ..
        } = self;
        let mut best: Option<SplitCandidate> = None;
        for j in 0..kinds.len() {
            if !active[j] {
                continue;
            }
            let cand = match kinds[j] {
                FeatureKind::Numeric => best_numeric_sweep(
                    &sorted_vals[j][lo..hi],
                    &sorted_targets[j][lo..hi],
                    j,
                    min_leaf,
                    active,
                    sweep_bounds,
                ),
                FeatureKind::Categorical { .. } => scan_categorical_tally(
                    &tally_cnt[j],
                    &tally_sum[j],
                    &tally_sq[j],
                    j,
                    n,
                    min_leaf,
                    active,
                    cat_order,
                ),
            };
            if let Some(c) = cand {
                let better = match &best {
                    None => true,
                    // Tie-break on feature index for determinism.
                    Some(b) => c.gain > b.gain + 1e-12,
                };
                if better {
                    best = Some(c);
                }
            }
        }
        // Guard against numeric dust: a gain that is a rounding artifact of
        // the parent SSE must not create a split.
        (node_sse, best.filter(|b| b.gain > 1e-12 * node_sse.max(1e-12)))
    }

    /// Apply `rule` on `feature` to the node `[lo, hi)`: stable-partition
    /// the row-order arrays and every sorted-order array (positions plus
    /// their carried payloads) so the left child occupies `[lo, lo + nl)`
    /// and the right child `[lo + nl, hi)`.  Returns `nl`.
    ///
    /// Features cleared in `active` are left untouched: descendants never
    /// scan them (see [`Self::best_split_with_sse`]), so their order needs
    /// no maintenance below this node.
    /// While routing, the row-order pass also folds each child's target
    /// sum (in child row order, so it is bit-identical to the sum the
    /// child's own [`Self::node_stats`] pass would fold) — the builder
    /// feeds these to the children's `grow` calls, sparing every non-root
    /// node one full target pass.  Returns `(nl, left_sum, right_sum)`.
    pub fn partition(
        &mut self,
        lo: usize,
        hi: usize,
        feature: usize,
        rule: &SplitRule,
        active: &[bool],
    ) -> (usize, f64, f64) {
        // Route each position of the node, reading the winning feature's
        // carried values (no dataset access needed).
        match rule {
            SplitRule::Le(t) => {
                // In sorted order the left child is exactly the prefix of
                // values `<= t` (thresholds sit strictly between distinct
                // adjacent values), so one binary search replaces a per-row
                // rule evaluation — and the winner's own sorted triple is
                // already partitioned, needing no maintenance below.
                let vals = &self.sorted_vals[feature][lo..hi];
                let cut = vals.partition_point(|&x| x <= *t);
                let pos = &self.sorted_pos[feature][lo..hi];
                for &p in &pos[..cut] {
                    self.goes_left[p as usize] = true;
                }
                for &p in &pos[cut..] {
                    self.goes_left[p as usize] = false;
                }
            }
            SplitRule::In(set) => {
                // Expand the subset into a per-code mask once, instead of
                // a set probe per row.
                let arity = match self.kinds[feature] {
                    FeatureKind::Categorical { arity } => arity as usize,
                    FeatureKind::Numeric => unreachable!("In rule on a numeric feature"),
                };
                let mut mask = vec![false; arity];
                for &c in set {
                    mask[c as usize] = true;
                }
                let pos = &self.node_order[lo..hi];
                let vals = &self.node_vals[feature][lo..hi];
                for (&p, &x) in pos.iter().zip(vals) {
                    self.goes_left[p as usize] = mask[x as usize];
                }
            }
        }

        // Row-order group: partition the position array and every payload
        // aligned with it in a single pass, routing each element through
        // `goes_left` exactly once.  Each live categorical column spills
        // into its own scratch, so all arrays move together.
        let n = hi - lo;
        let (nl, lsum, rsum) = {
            let mut cats: Vec<(&mut [f64], &mut [f64])> = self
                .node_vals
                .iter_mut()
                .zip(self.cat_scratch.iter_mut())
                .enumerate()
                .filter(|(j, _)| active[*j] && matches!(self.kinds[*j], FeatureKind::Categorical { .. }))
                .map(|(_, (vals, scratch))| (&mut vals[lo..hi], &mut scratch[..]))
                .collect();
            let order = &mut self.node_order[lo..hi];
            let tgts = &mut self.node_targets[lo..hi];
            let mut w = 0usize;
            let mut spilled = 0usize;
            // Index-selected accumulators ([1] = left, [0] = right): each
            // child's sum folds exactly its own targets in child row
            // order — no masked adds, no fp drift.
            let mut tsum = [0.0f64; 2];
            for r in 0..n {
                let p = order[r];
                let y = tgts[r];
                let d = usize::from(self.goes_left[p as usize]);
                tsum[d] += y;
                // Branchless dual store per array (`w <= r` always).
                order[w] = p;
                self.scratch_pos[spilled] = p;
                tgts[w] = y;
                self.scratch_tgt[spilled] = y;
                for (vals, scratch) in &mut cats {
                    let x = vals[r];
                    vals[w] = x;
                    scratch[spilled] = x;
                }
                w += d;
                spilled += 1 - d;
            }
            order[w..].copy_from_slice(&self.scratch_pos[..spilled]);
            tgts[w..].copy_from_slice(&self.scratch_tgt[..spilled]);
            for (vals, scratch) in &mut cats {
                vals[w..].copy_from_slice(&scratch[..spilled]);
            }
            (w, tsum[1], tsum[0])
        };

        // Sorted-order groups: each numeric feature routes by its own
        // order, so the triple (positions, values, targets) moves in one
        // pass per feature.  A feature constant over this node stays
        // constant over every descendant, and the sweep's O(1) exhaustion
        // check bails before reading its arrays — so its order no longer
        // needs maintaining, at any depth below here.
        for j in 0..self.kinds.len() {
            if active[j] && self.kinds[j] == FeatureKind::Numeric {
                // The winner's own sorted order is already partitioned:
                // its left child is precisely the sorted prefix.
                if j == feature {
                    continue;
                }
                let vals = &self.sorted_vals[j][lo..hi];
                if vals[0] == vals[n - 1] {
                    continue;
                }
                partition_sorted_triple(
                    &mut self.sorted_pos[j][lo..hi],
                    &mut self.sorted_vals[j][lo..hi],
                    &mut self.sorted_targets[j][lo..hi],
                    &self.goes_left,
                    &mut self.scratch_pos,
                    &mut self.scratch_val,
                    &mut self.scratch_tgt,
                );
            }
        }
        (nl, lsum, rsum)
    }
}

/// Best threshold split on numeric feature `j`: **one** prefix sweep of
/// the maintained sorted order, streaming the node's value/target slices —
/// no per-node sort, no gathers, no separate totals pass.
///
/// The key identity: the left-prefix sum at cut `k` *is* the running
/// totals accumulator after `k + 1` additions.  So a single pass folds the
/// node totals and, at each boundary between distinct values (the only
/// legal cut points), snapshots `(k, running_sum, running_sq)` into
/// `bounds`.  A second loop over those few boundaries evaluates the gains
/// once the totals are complete.  Every quantity is the same fold, in the
/// same order, as the reference's two-pass sweep in [`crate::split`] (a
/// totals pass, then a prefix scan): the snapshot of an accumulator
/// mid-fold cannot change its bits.  What the fusion removes is the
/// totals pass — serial floating-point adds whose ~4-cycle latency chain,
/// not memory, bounds the sweep — halving the chain length per feature
/// per node.
fn best_numeric_sweep(
    xs: &[f64],
    ys: &[f64],
    j: usize,
    min_leaf: usize,
    active: &mut [bool],
    bounds: &mut Vec<(u32, f64, f64)>,
) -> Option<SplitCandidate> {
    let n = xs.len();
    if n < 2 * min_leaf {
        return None;
    }
    // Sorted order makes feature exhaustion an O(1) check: a constant
    // column admits no cut, so the reference's sweep would find none —
    // returning early is bit-exact and skips the target pass.
    if xs[0] == xs[n - 1] {
        active[j] = false;
        return None;
    }

    // Pass 1: fold the totals, snapshotting the running accumulators at
    // every legal cut boundary.  `run_sum` after k + 1 additions is
    // bit-identical to the reference's `lsum` at cut k (same values, same
    // order), and after n additions to its `total_sum`.
    bounds.clear();
    let mut run_sum = 0.0;
    let mut run_sq = 0.0;
    for k in 0..n {
        let y = ys[k];
        run_sum += y;
        run_sq += y * y;
        if k + 1 < n && xs[k] != xs[k + 1] {
            bounds.push((k as u32, run_sum, run_sq));
        }
    }
    let (total_sum, total_sq) = (run_sum, run_sq);
    let parent_sse = total_sq - total_sum * total_sum / n as f64;

    // Pass 2: evaluate the gain at each boundary, in ascending-k order —
    // the exact candidate sequence (and tie behavior) of the reference
    // sweep, which skips non-boundary positions via its `x_here == x_next`
    // check.
    let mut best_gain = 0.0;
    let mut best_t = f64::NAN;
    let mut best_k = 0usize;
    for &(k, lsum, lsq) in bounds.iter() {
        let k = k as usize;
        if (k + 1) < min_leaf || (n - k - 1) < min_leaf {
            continue;
        }
        let nl = (k + 1) as f64;
        let nr = (n - k - 1) as f64;
        let rsum = total_sum - lsum;
        let rsq = total_sq - lsq;
        let sse = (lsq - lsum * lsum / nl) + (rsq - rsum * rsum / nr);
        let gain = parent_sse - sse;
        if gain > best_gain {
            best_gain = gain;
            best_t = 0.5 * (xs[k] + xs[k + 1]);
            best_k = k + 1;
        }
    }
    if best_t.is_nan() || best_gain <= 0.0 {
        return None;
    }
    Some(SplitCandidate {
        feature: j,
        rule: SplitRule::Le(best_t),
        gain: best_gain,
        left_count: best_k,
        right_count: n - best_k,
    })
}

/// Best subset split on categorical feature `j` from its node tally
/// (per-category count / target sum / square sum, accumulated in node
/// order by [`TreeFrame::best_split_with_sse`]): the mean-ordered prefix
/// scan of Breiman et al. §9.4 — the reference scan verbatim, minus the
/// tally pass the caller already fused.  `order` is caller-owned scratch.
#[allow(clippy::too_many_arguments)]
fn scan_categorical_tally(
    cnt: &[usize],
    sum: &[f64],
    sq: &[f64],
    j: usize,
    n: usize,
    min_leaf: usize,
    active: &mut [bool],
    order: &mut Vec<usize>,
) -> Option<SplitCandidate> {
    let a = cnt.len();
    order.clear();
    order.extend((0..a).filter(|&c| cnt[c] > 0));
    if order.len() < 2 {
        // Single-category node: every descendant is too, so children skip
        // this feature's tally and partition maintenance.
        active[j] = false;
        return None;
    }
    // Order present categories by mean target.
    order.sort_by(|&x, &y| (sum[x] / cnt[x] as f64).total_cmp(&(sum[y] / cnt[y] as f64)));

    let total_sum: f64 = sum.iter().sum();
    let total_sq: f64 = sq.iter().sum();
    let parent_sse = total_sq - total_sum * total_sum / n as f64;

    let mut best_gain = 0.0;
    let mut best_cut = 0usize;
    let mut lcnt = 0usize;
    let mut lsum = 0.0;
    let mut lsq = 0.0;
    for (k, &c) in order.iter().take(order.len() - 1).enumerate() {
        lcnt += cnt[c];
        lsum += sum[c];
        lsq += sq[c];
        let rcnt = n - lcnt;
        if lcnt < min_leaf || rcnt < min_leaf {
            continue;
        }
        let rsum = total_sum - lsum;
        let rsq = total_sq - lsq;
        let sse = (lsq - lsum * lsum / lcnt as f64) + (rsq - rsum * rsum / rcnt as f64);
        let gain = parent_sse - sse;
        if gain > best_gain {
            best_gain = gain;
            best_cut = k + 1;
        }
    }
    if best_cut == 0 || best_gain <= 0.0 {
        return None;
    }
    let mut left: Vec<u32> = order[..best_cut].iter().map(|&c| c as u32).collect();
    left.sort_unstable();
    let left_count: usize = order[..best_cut].iter().map(|&c| cnt[c]).sum();
    Some(SplitCandidate {
        feature: j,
        rule: SplitRule::In(left),
        gain: best_gain,
        left_count,
        right_count: n - left_count,
    })
}

/// Stable partition of a sorted-order triple (positions, values, targets)
/// by `goes_left[position]`, moving all three arrays in a single pass.
#[allow(clippy::too_many_arguments)]
fn partition_sorted_triple(
    pos: &mut [u32],
    vals: &mut [f64],
    tgts: &mut [f64],
    goes_left: &[bool],
    scratch_pos: &mut [u32],
    scratch_val: &mut [f64],
    scratch_tgt: &mut [f64],
) {
    let mut w = 0usize;
    let mut spilled = 0usize;
    for r in 0..pos.len() {
        let p = pos[r];
        let x = vals[r];
        let y = tgts[r];
        let d = usize::from(goes_left[p as usize]);
        // Branchless dual store.
        pos[w] = p;
        vals[w] = x;
        tgts[w] = y;
        scratch_pos[spilled] = p;
        scratch_val[spilled] = x;
        scratch_tgt[spilled] = y;
        w += d;
        spilled += 1 - d;
    }
    pos[w..].copy_from_slice(&scratch_pos[..spilled]);
    vals[w..].copy_from_slice(&scratch_val[..spilled]);
    tgts[w..].copy_from_slice(&scratch_tgt[..spilled]);
}

/// Presorted root-level split search over `idx` — the fast-path equivalent
/// of [`crate::split::best_split`], exposed so the equivalence suite can
/// hold the two against each other.
pub fn best_split_presorted(
    data: &Dataset,
    idx: &[usize],
    min_leaf: usize,
) -> Option<SplitCandidate> {
    let mut frame = TreeFrame::new(data, idx);
    let n = frame.len();
    frame.best_split(0, n, min_leaf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Feature;
    use crate::split::best_split;

    fn mixed() -> Dataset {
        let mut d = Dataset::new(vec![Feature::numeric("x"), Feature::categorical("c", 3)]);
        for i in 0..30 {
            let x = (i * 7 % 13) as f64;
            let c = (i % 3) as f64;
            d.push(vec![x, c], x * 2.0 + c * 10.0 + (i % 5) as f64);
        }
        d
    }

    #[test]
    fn sorted_triple_partition_routes_by_position() {
        // Positions 1, 2, 4 go left.
        let goes_left = [false, true, true, false, true];
        let mut pos = [4u32, 1, 3, 0, 2];
        let mut vals = [0.4, 0.1, 0.3, 0.0, 0.2];
        let mut tgts = [40.0, 10.0, 30.0, 0.0, 20.0];
        partition_sorted_triple(
            &mut pos,
            &mut vals,
            &mut tgts,
            &goes_left,
            &mut [0u32; 5],
            &mut [0.0; 5],
            &mut [0.0; 5],
        );
        assert_eq!(pos, [4, 1, 2, 3, 0]);
        assert_eq!(vals, [0.4, 0.1, 0.2, 0.3, 0.0]);
        assert_eq!(tgts, [40.0, 10.0, 20.0, 30.0, 0.0]);
    }

    #[test]
    fn root_split_matches_reference() {
        let d = mixed();
        let idx: Vec<usize> = (0..d.len()).collect();
        for min_leaf in [1, 2, 5] {
            assert_eq!(best_split_presorted(&d, &idx, min_leaf), best_split(&d, &idx, min_leaf));
        }
    }

    #[test]
    fn split_on_a_view_matches_reference_on_the_subset() {
        let d = mixed();
        // A shuffled, duplicated view — the bootstrap shape.
        let rows = [7usize, 2, 2, 19, 4, 28, 11, 11, 0, 23, 5, 16];
        let sub = d.subset(&rows);
        let sub_idx: Vec<usize> = (0..rows.len()).collect();
        assert_eq!(best_split_presorted(&d, &rows, 2), best_split(&sub, &sub_idx, 2));
    }

    #[test]
    fn derived_sample_order_matches_a_stable_sort() {
        let d = mixed();
        // Bootstrap shape: shuffled, duplicated, tie-heavy (x repeats).
        let rows: Vec<usize> = (0..40).map(|i| (i * 13 + 5) % 30).collect();
        let derived = TreeFrame::new(&d, &rows);
        for (j, f) in d.features.iter().enumerate() {
            if f.kind != FeatureKind::Numeric {
                assert!(derived.sorted_pos[j].is_empty());
                continue;
            }
            // Frame positions by value, ties in ascending position order.
            let col = d.column(j);
            let mut order: Vec<u32> = (0..rows.len() as u32).collect();
            order.sort_by(|&a, &b| col[rows[a as usize]].total_cmp(&col[rows[b as usize]]));
            let vals: Vec<f64> = order.iter().map(|&p| col[rows[p as usize]]).collect();
            let tgts: Vec<f64> = order.iter().map(|&p| d.targets[rows[p as usize]]).collect();
            assert_eq!(derived.sorted_pos[j], order);
            assert_eq!(derived.sorted_vals[j], vals);
            assert_eq!(derived.sorted_targets[j], tgts);
        }
    }

    #[test]
    fn partition_preserves_node_stats() {
        let d = mixed();
        let idx: Vec<usize> = (0..d.len()).collect();
        let mut frame = TreeFrame::new(&d, &idx);
        let n = frame.len();
        let s = frame.best_split(0, n, 2).unwrap();
        let active = vec![true; 2];
        let (nl, _, _) = frame.partition(0, n, s.feature, &s.rule, &active);
        assert_eq!(nl, s.left_count);
        // Child stats must agree with the reference computed on child idx
        // vectors in row order.
        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
            idx.iter().partition(|&&i| s.rule.goes_left(d.value(i, s.feature)));
        assert_eq!(frame.target_mean(0, nl), d.target_mean(&left_idx));
        assert_eq!(frame.target_std(nl, n), d.target_std(&right_idx));
        assert_eq!(frame.target_sse(0, nl), d.target_sse(&left_idx));
    }
}
