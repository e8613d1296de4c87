//! Fair-sharing rate computation: progressive filling (Bertsekas &
//! Gallager) over individual flows.
//!
//! Raise every unfrozen flow's rate uniformly until some resource
//! saturates, freeze the flows through it at the current level, repeat.
//! The saturation scan and the capacity update touch only resources that
//! still carry unfrozen flows, in ascending index order; the freeze step
//! walks a per-resource index of the run's flows (built once per run,
//! with every flow outside the active set kept frozen) instead of
//! re-testing every active flow's path on every level.
//!
//! Within one level the freeze set — the unfrozen flows whose path
//! touches a saturated resource — does not depend on the order flows are
//! visited in, and freezing only assigns the level and decrements integer
//! counts.  So this performs exactly the floating-point operations of the
//! original loop (kept as the oracle in [`crate::oracle`]), in the same
//! order, and the rates are bit-for-bit equal (see DESIGN.md §14).

use crate::flow::FlowSpec;
use crate::resource::Resource;

/// Numeric slack used when deciding that a flow has finished or a resource
/// has saturated; keeps the event loop robust against floating-point drift.
pub(crate) const EPS: f64 = 1e-9;

/// Fill state for one run, pooled in [`crate::SimArena`]: the run's
/// flow paths flattened, a per-resource index of the flows through each
/// resource, and the per-level scratch.
#[derive(Debug, Default)]
pub(crate) struct Fill {
    /// Output: the max-min fair rate of each active flow, by flow index.
    pub(crate) rates: Vec<f64>,
    /// Every flow outside the active set stays frozen, so the freeze walk
    /// skips pending and retired flows with the same test.
    pub(crate) frozen: Vec<bool>,
    /// Unfrozen flows through each resource; a path that repeats a
    /// resource counts once per repeat.
    pub(crate) unfrozen: Vec<usize>,
    /// Capacity each resource has left at the current fill level.
    pub(crate) left: Vec<f64>,
    /// Flow `i`'s path is `paths[path_start[i]..path_start[i + 1]]`.
    path_start: Vec<usize>,
    paths: Vec<usize>,
    /// The index: flows through resource `r` are
    /// `members[start[r]..start[r + 1]]`, once per visit.
    start: Vec<usize>,
    members: Vec<usize>,
    /// Resources with unfrozen flows, ascending.
    loaded: Vec<usize>,
    /// Resources saturated at the current level.
    saturated: Vec<usize>,
}

impl Fill {
    /// Index one run's flows and size the scratch; every flow starts
    /// frozen (inactive).
    pub(crate) fn reset(&mut self, flows: &[FlowSpec], resources: usize) {
        let n = flows.len();
        self.rates.clear();
        self.rates.resize(n, 0.0);
        self.frozen.clear();
        self.frozen.resize(n, true);
        self.unfrozen.clear();
        self.unfrozen.resize(resources, 0);
        self.left.clear();
        self.left.resize(resources, 0.0);

        self.path_start.clear();
        self.paths.clear();
        self.start.clear();
        self.start.resize(resources + 1, 0);
        self.path_start.push(0);
        for f in flows {
            for r in &f.path {
                self.paths.push(r.0);
                self.start[r.0 + 1] += 1;
            }
            self.path_start.push(self.paths.len());
        }
        // Counting sort of (resource, flow) pairs: `start[r + 1]` holds
        // `r`'s count, then its end; placing a flow counts it back down
        // to `r`'s start.
        for r in 0..resources {
            self.start[r + 1] += self.start[r];
        }
        self.members.clear();
        self.members.resize(self.paths.len(), 0);
        for i in 0..n {
            for &r in &self.paths[self.path_start[i]..self.path_start[i + 1]] {
                self.start[r + 1] -= 1;
                self.members[self.start[r + 1]] = i;
            }
        }
        // Slot `r + 1` now holds `r`'s start, which is `r - 1`'s end.
        self.start.copy_within(1.., 0);
        self.start[resources] = self.paths.len();
    }

    /// Flow `i`'s path as resource indices.
    pub(crate) fn path(&self, i: usize) -> &[usize] {
        &self.paths[self.path_start[i]..self.path_start[i + 1]]
    }

    /// Write the max-min fair rate of every flow in `active` into
    /// [`Self::rates`], leaving every flow frozen.
    pub(crate) fn rates(&mut self, resources: &[Resource], active: &[usize]) {
        let Fill {
            rates,
            frozen,
            unfrozen,
            left,
            path_start,
            paths,
            start,
            members,
            loaded,
            saturated,
        } = self;
        let path = |i: usize| &paths[path_start[i]..path_start[i + 1]];

        for (r, res) in resources.iter().enumerate() {
            unfrozen[r] = 0;
            left[r] = res.capacity;
        }
        for &i in active {
            frozen[i] = false;
            for &r in path(i) {
                unfrozen[r] += 1;
            }
        }
        loaded.clear();
        loaded.extend((0..resources.len()).filter(|&r| unfrozen[r] > 0));

        let mut level = 0.0f64;
        let mut unfrozen_flows = active.len();
        while unfrozen_flows > 0 {
            // The resource that saturates first as the fill level rises
            // (lowest index on ties); drop resources with no unfrozen flow.
            let mut best_r = usize::MAX;
            let mut best_level = f64::INFINITY;
            loaded.retain(|&r| {
                if unfrozen[r] == 0 {
                    return false;
                }
                let sat = level + left[r] / unfrozen[r] as f64;
                if sat < best_level {
                    best_level = sat;
                    best_r = r;
                }
                true
            });
            debug_assert!(best_r != usize::MAX, "active flows but no loaded resource");

            // Raise the level.  The chosen resource is saturated by
            // construction; floating-point drift can saturate others in
            // the same step, freeze through them too.
            let delta = best_level - level;
            saturated.clear();
            for &r in loaded.iter() {
                left[r] -= delta * unfrozen[r] as f64;
                if r == best_r || left[r] <= EPS * resources[r].capacity {
                    saturated.push(r);
                }
            }
            level = best_level;

            for &s in saturated.iter() {
                for &i in &members[start[s]..start[s + 1]] {
                    if frozen[i] {
                        continue;
                    }
                    frozen[i] = true;
                    rates[i] = level;
                    unfrozen_flows -= 1;
                    for &r in path(i) {
                        unfrozen[r] -= 1;
                    }
                }
            }
        }
    }
}
