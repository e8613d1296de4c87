//! The simulation engine: max-min fair bandwidth sharing advanced from one
//! flow completion/activation event to the next.
//!
//! The engine implements classic *flow-level* network simulation: instead of
//! packets, each transfer is a fluid flow, and at any instant the rate
//! vector is the max-min fair allocation given every active flow's resource
//! path (progressive filling, cf. Bertsekas & Gallager).  Events are flow
//! activations and completions; between events rates are constant, so time
//! can jump directly to the next event.  This is accurate for bulk HPC I/O
//! (large transfers, long-lived contention) and orders of magnitude faster
//! than packet simulation, which is what lets the ACIC harness exhaustively
//! sweep hundreds of configurations per figure.
//!
//! One core runs every simulation: the per-flow event loop below, whose
//! fill step freezes flows through a per-resource index of the run's flows
//! ([`crate::sharing`]).  The original loop is kept verbatim as the oracle
//! in `crate::oracle` (tests, and the `oracle` cargo feature); the two
//! agree bit for bit on finish times, makespans, event counts and served
//! bytes.

use std::fmt;

use crate::arena::SimArena;
use crate::error::CloudSimError;
use crate::flow::{FlowId, FlowSpec};
use crate::resource::{Resource, ResourceId};
use crate::sharing::EPS;

/// A simulation under construction: resources plus flow specs.
#[derive(Debug)]
pub struct Simulation {
    pub(crate) resources: Vec<Resource>,
    pub(crate) flows: Vec<FlowSpec>,
    /// Whether [`Self::label_flow`] materialises labels and
    /// [`Self::add_resource_fmt`] formats names; pooled campaign
    /// simulations skip both, since nothing reads them.
    record_names: bool,
    /// Recycled path vectors (pooled mode).
    path_pool: Vec<Vec<ResourceId>>,
    /// Allocations forced by an empty pool; harvested by
    /// [`SimArena::reclaim`].
    misses: u64,
}

impl Default for Simulation {
    fn default() -> Self {
        Simulation {
            resources: Vec::new(),
            flows: Vec::new(),
            record_names: true,
            path_pool: Vec::new(),
            misses: 0,
        }
    }
}

/// Makespan and event count of one completed run; per-flow finish times
/// and per-resource served bytes stay in the [`SimArena`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunStats {
    /// Completion time of the last flow (0.0 for an empty run).
    pub makespan: f64,
    /// Number of rate-recomputation epochs the engine stepped through.
    pub events: u64,
}

/// Result of a completed run.
#[derive(Debug, Clone)]
pub struct RunReport {
    finish: Vec<f64>,
    served: Vec<f64>,
    makespan: f64,
    events: u64,
    labels: Vec<Option<String>>,
}

impl RunReport {
    /// Finish time of a flow, if it completed.
    pub fn finish_time(&self, f: FlowId) -> Option<f64> {
        self.finish.get(f.0).copied().filter(|t| t.is_finite())
    }

    /// The completion time of the last flow (0.0 for an empty run).
    pub fn makespan(&self) -> f64 {
        self.makespan
    }

    /// Number of rate-recomputation epochs the run stepped through.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Bytes served by resource `r` over the whole run.
    pub fn resource_served(&self, r: ResourceId) -> f64 {
        self.served[r.0]
    }

    /// Iterate `(flow, finish_time, label)` for all flows.
    pub fn flows(&self) -> impl Iterator<Item = (FlowId, f64, Option<&str>)> + '_ {
        self.finish
            .iter()
            .enumerate()
            .map(|(i, &t)| (FlowId(i), t, self.labels[i].as_deref()))
    }
}

impl Simulation {
    /// An empty simulation.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty simulation backed by recycled storage (see
    /// [`SimArena::simulation`]); records no names or labels.
    pub(crate) fn pooled(
        resources: Vec<Resource>,
        flows: Vec<FlowSpec>,
        path_pool: Vec<Vec<ResourceId>>,
    ) -> Self {
        debug_assert!(resources.is_empty() && flows.is_empty());
        Simulation { resources, flows, record_names: false, path_pool, misses: 0 }
    }

    /// Dismantle the simulation into its pools, recycling every path.
    pub(crate) fn into_pools(
        mut self,
    ) -> (Vec<Resource>, Vec<FlowSpec>, Vec<Vec<ResourceId>>, u64) {
        self.resources.clear();
        for f in self.flows.drain(..) {
            let mut path = f.path;
            path.clear();
            self.path_pool.push(path);
        }
        (self.resources, self.flows, self.path_pool, self.misses)
    }

    /// Add a resource with the given capacity (bytes/second).
    ///
    /// # Panics
    /// Panics if the capacity is not finite and positive; resource creation
    /// is programmer-controlled (capacities come from device tables), so an
    /// invalid one is a bug, not an input error.
    pub fn add_resource(&mut self, name: impl Into<String>, capacity: f64) -> ResourceId {
        let r = Resource::new(name, capacity).expect("invalid resource capacity");
        self.resources.push(r);
        ResourceId(self.resources.len() - 1)
    }

    /// Like [`Self::add_resource`] but formats the name only when this
    /// simulation records names; pooled campaign runs leave it empty, so
    /// they neither format nor allocate.
    pub fn add_resource_fmt(&mut self, args: fmt::Arguments<'_>, capacity: f64) -> ResourceId {
        let name = if self.record_names { fmt::format(args) } else { String::new() };
        let r = Resource::new(name, capacity).expect("invalid resource capacity");
        self.resources.push(r);
        ResourceId(self.resources.len() - 1)
    }

    /// Fallible variant of [`Self::add_resource`] for capacities that come
    /// from user-controlled data.
    pub fn try_add_resource(
        &mut self,
        name: impl Into<String>,
        capacity: f64,
    ) -> Result<ResourceId, CloudSimError> {
        let r = Resource::new(name, capacity)?;
        self.resources.push(r);
        Ok(ResourceId(self.resources.len() - 1))
    }

    /// Queue a flow for execution. Validation happens at [`Self::run`].
    pub fn add_flow(&mut self, spec: FlowSpec) -> FlowId {
        self.flows.push(spec);
        FlowId(self.flows.len() - 1)
    }

    /// Queue a flow from raw bytes and a borrowed path; the path is copied
    /// into recycled storage so campaign planners allocate nothing per
    /// flow.  Release time and latency default to zero, as for
    /// [`FlowSpec::new`].
    pub fn push_flow(&mut self, bytes: f64, path: &[ResourceId]) -> FlowId {
        let mut p = self.path_pool.pop().unwrap_or_else(|| {
            self.misses += 1;
            Vec::new()
        });
        p.clear();
        p.extend_from_slice(path);
        let mut spec = FlowSpec::new(bytes);
        spec.path = p;
        self.flows.push(spec);
        FlowId(self.flows.len() - 1)
    }

    /// Attach a label to a flow, invoking the closure only when this
    /// simulation records labels; pooled campaign runs skip the formatting
    /// (and its allocation) entirely.
    pub fn label_flow(&mut self, f: FlowId, label: impl FnOnce() -> String) {
        if self.record_names {
            self.flows[f.0].label = Some(label());
        }
    }

    /// Number of resources added so far.
    pub fn resource_count(&self) -> usize {
        self.resources.len()
    }

    /// Number of flows added so far.
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    /// Validate all flows against the declared resources.
    pub(crate) fn validate(&self) -> Result<(), CloudSimError> {
        for (i, f) in self.flows.iter().enumerate() {
            if !(f.bytes.is_finite() && f.bytes > 0.0) {
                return Err(CloudSimError::InvalidFlowSize { bytes: f.bytes });
            }
            if !(f.release.is_finite()
                && f.release >= 0.0
                && f.latency.is_finite()
                && f.latency >= 0.0)
            {
                return Err(CloudSimError::InvalidFlowTiming {
                    flow: i,
                    release: f.release,
                    latency: f.latency,
                });
            }
            if f.path.is_empty() {
                return Err(CloudSimError::PathlessFlow { flow: i });
            }
            for r in &f.path {
                if r.0 >= self.resources.len() {
                    return Err(CloudSimError::UnknownResource { resource: r.0 });
                }
            }
        }
        Ok(())
    }

    /// Run the simulation to completion and report per-flow finish times.
    pub fn run(self) -> Result<RunReport, CloudSimError> {
        let mut arena = SimArena::new();
        let stats = self.run_makespan_in(&mut arena)?;
        Ok(RunReport {
            finish: std::mem::take(&mut arena.finish),
            served: std::mem::take(&mut arena.served),
            makespan: stats.makespan,
            events: stats.events,
            labels: self.flows.into_iter().map(|f| f.label).collect(),
        })
    }

    /// Run without consuming the simulation, writing per-flow finish times
    /// and per-resource served bytes into `arena` (see
    /// [`SimArena::finish`] / [`SimArena::served`]).
    ///
    /// Taking `&self` lets campaigns and benchmarks re-run one topology
    /// many times without rebuilding it.
    pub fn run_makespan_in(&self, arena: &mut SimArena) -> Result<RunStats, CloudSimError> {
        self.validate()?;
        crate::arena::count_run();
        #[cfg(feature = "oracle")]
        if let Some(stats) = crate::oracle::run_overridden(self, arena) {
            return stats;
        }
        run_events(self, arena)
    }
}

/// Progressive filling advanced event by event: activate the flows that
/// are due, fill rates, jump to the next completion or activation, drain,
/// retire.  Flows must already be validated.
pub(crate) fn run_events(
    sim: &Simulation,
    arena: &mut SimArena,
) -> Result<RunStats, CloudSimError> {
    let flows = &sim.flows;
    let resources = &sim.resources;
    let n = flows.len();

    let SimArena { finish, served, pending, active, remaining, fill, .. } = arena;

    finish.clear();
    finish.resize(n, f64::INFINITY);
    served.clear();
    served.resize(resources.len(), 0.0);

    remaining.clear();
    remaining.extend(flows.iter().map(|f| f.bytes));

    // Pending flows sorted by activation time, latest first so we can pop.
    pending.clear();
    pending.extend(0..n);
    pending.sort_by(|&a, &b| flows[b].activation_time().total_cmp(&flows[a].activation_time()));
    active.clear();
    fill.reset(flows, resources.len());

    let mut t = 0.0f64;
    let mut makespan = 0.0f64;
    let mut events = 0u64;

    loop {
        // Activate every pending flow whose activation time has come.
        while let Some(&i) = pending.last() {
            if flows[i].activation_time() <= t + EPS {
                pending.pop();
                active.push(i);
            } else {
                break;
            }
        }

        if active.is_empty() {
            match pending.last() {
                Some(&i) => {
                    // Idle gap: jump to the next activation.
                    t = flows[i].activation_time();
                    continue;
                }
                None => break, // all done
            }
        }

        events += 1;

        fill.rates(resources, active);
        let rates = &fill.rates;

        // Time to the next completion among active flows.
        let mut dt_complete = f64::INFINITY;
        for &i in active.iter() {
            if rates[i] > 0.0 {
                dt_complete = dt_complete.min(remaining[i] / rates[i]);
            }
        }
        // Time to the next activation.
        let dt_activate =
            pending.last().map(|&i| flows[i].activation_time() - t).unwrap_or(f64::INFINITY);

        let dt = dt_complete.min(dt_activate);
        if !dt.is_finite() {
            return Err(CloudSimError::Stalled { time: t, active: active.len() });
        }
        let dt = dt.max(0.0);

        // Advance in one pass over the active flows, in order: drain bytes,
        // account served volume per resource, retire completed flows.
        t += dt;
        active.retain(|&i| {
            let moved = rates[i] * dt;
            remaining[i] -= moved;
            for &r in fill.path(i) {
                served[r] += moved;
            }
            if remaining[i] <= EPS * flows[i].bytes.max(1.0) {
                finish[i] = t;
                makespan = makespan.max(t);
                false
            } else {
                true
            }
        });
    }

    Ok(RunStats { makespan, events })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-6 * b.abs().max(1.0)
    }

    #[test]
    fn single_flow_single_resource() {
        let mut sim = Simulation::new();
        let r = sim.add_resource("link", 100.0);
        let f = sim.add_flow(FlowSpec::new(1000.0).through(r));
        let rep = sim.run().unwrap();
        assert!(close(rep.finish_time(f).unwrap(), 10.0));
        assert!(close(rep.makespan(), 10.0));
        assert!(close(rep.resource_served(r), 1000.0));
    }

    #[test]
    fn equal_flows_share_fairly() {
        let mut sim = Simulation::new();
        let r = sim.add_resource("link", 100.0);
        let a = sim.add_flow(FlowSpec::new(500.0).through(r));
        let b = sim.add_flow(FlowSpec::new(500.0).through(r));
        let rep = sim.run().unwrap();
        assert!(close(rep.finish_time(a).unwrap(), 10.0));
        assert!(close(rep.finish_time(b).unwrap(), 10.0));
    }

    #[test]
    fn short_flow_finishes_then_long_flow_speeds_up() {
        let mut sim = Simulation::new();
        let r = sim.add_resource("link", 100.0);
        let short = sim.add_flow(FlowSpec::new(100.0).through(r));
        let long = sim.add_flow(FlowSpec::new(1000.0).through(r));
        let rep = sim.run().unwrap();
        // Share 50/50 until t=2 (short done, 100 bytes each moved), then the
        // long flow gets the full 100 B/s for its remaining 900 bytes.
        assert!(close(rep.finish_time(short).unwrap(), 2.0));
        assert!(close(rep.finish_time(long).unwrap(), 2.0 + 9.0));
    }

    #[test]
    fn max_min_respects_multiple_bottlenecks() {
        // Classic 3-flow example: flows A (link1), B (link2), C (link1+link2).
        // link1 cap 100, link2 cap 50. Max-min: C and B bottleneck on link2
        // at 25 each; A then gets 75 on link1.
        let mut sim = Simulation::new();
        let l1 = sim.add_resource("l1", 100.0);
        let l2 = sim.add_resource("l2", 50.0);
        let a = sim.add_flow(FlowSpec::new(75.0).through(l1));
        let b = sim.add_flow(FlowSpec::new(25.0).through(l2));
        let c = sim.add_flow(FlowSpec::new(25.0).through(l1).through(l2));
        let rep = sim.run().unwrap();
        // All three should finish at exactly t=1 under the allocation above.
        assert!(close(rep.finish_time(a).unwrap(), 1.0));
        assert!(close(rep.finish_time(b).unwrap(), 1.0));
        assert!(close(rep.finish_time(c).unwrap(), 1.0));
    }

    #[test]
    fn latency_delays_activation() {
        let mut sim = Simulation::new();
        let r = sim.add_resource("link", 100.0);
        let f = sim.add_flow(FlowSpec::new(100.0).through(r).with_latency(5.0));
        let rep = sim.run().unwrap();
        assert!(close(rep.finish_time(f).unwrap(), 6.0));
    }

    #[test]
    fn release_time_creates_idle_gap() {
        let mut sim = Simulation::new();
        let r = sim.add_resource("link", 100.0);
        let f = sim.add_flow(FlowSpec::new(100.0).through(r).released_at(10.0));
        let rep = sim.run().unwrap();
        assert!(close(rep.finish_time(f).unwrap(), 11.0));
    }

    #[test]
    fn staggered_flows_contend_only_while_overlapping() {
        let mut sim = Simulation::new();
        let r = sim.add_resource("link", 100.0);
        let a = sim.add_flow(FlowSpec::new(1000.0).through(r));
        let b = sim.add_flow(FlowSpec::new(100.0).through(r).released_at(2.0));
        let rep = sim.run().unwrap();
        // a alone for 2s (200 B done). Then both at 50 B/s; b needs 2s
        // (done t=4, a has 800-100=700 left at t=4), a finishes at 4+7=11.
        assert!(close(rep.finish_time(b).unwrap(), 4.0));
        assert!(close(rep.finish_time(a).unwrap(), 11.0));
    }

    #[test]
    fn empty_simulation_finishes_instantly() {
        let sim = Simulation::new();
        let rep = sim.run().unwrap();
        assert_eq!(rep.makespan(), 0.0);
    }

    #[test]
    fn pathless_flow_is_rejected() {
        let mut sim = Simulation::new();
        sim.add_resource("link", 100.0);
        sim.add_flow(FlowSpec::new(100.0));
        assert!(matches!(sim.run(), Err(CloudSimError::PathlessFlow { flow: 0 })));
    }

    #[test]
    fn nonpositive_bytes_rejected() {
        let mut sim = Simulation::new();
        let r = sim.add_resource("link", 100.0);
        sim.add_flow(FlowSpec::new(0.0).through(r));
        assert!(matches!(sim.run(), Err(CloudSimError::InvalidFlowSize { .. })));
    }

    #[test]
    fn invalid_timing_rejected() {
        let mut sim = Simulation::new();
        let r = sim.add_resource("link", 100.0);
        sim.add_flow(FlowSpec::new(10.0).through(r).released_at(f64::NAN));
        assert!(matches!(sim.run(), Err(CloudSimError::InvalidFlowTiming { flow: 0, .. })));

        let mut sim = Simulation::new();
        let r = sim.add_resource("link", 100.0);
        sim.add_flow(FlowSpec::new(10.0).through(r).with_latency(-2.0));
        assert!(matches!(sim.run(), Err(CloudSimError::InvalidFlowTiming { flow: 0, .. })));

        let mut sim = Simulation::new();
        let r = sim.add_resource("link", 100.0);
        sim.add_flow(FlowSpec::new(10.0).through(r).released_at(f64::INFINITY));
        assert!(matches!(sim.run(), Err(CloudSimError::InvalidFlowTiming { flow: 0, .. })));
    }

    #[test]
    fn unknown_resource_rejected() {
        let mut sim = Simulation::new();
        sim.add_flow(FlowSpec::new(10.0).through(ResourceId(5)));
        assert!(matches!(sim.run(), Err(CloudSimError::UnknownResource { resource: 5 })));
    }

    #[test]
    fn try_add_resource_propagates_capacity_errors() {
        let mut sim = Simulation::new();
        assert!(sim.try_add_resource("bad", -1.0).is_err());
        assert!(sim.try_add_resource("good", 1.0).is_ok());
    }

    #[test]
    fn two_hop_flow_is_limited_by_slowest_hop() {
        let mut sim = Simulation::new();
        let fast = sim.add_resource("fast", 1000.0);
        let slow = sim.add_resource("slow", 10.0);
        let f = sim.add_flow(FlowSpec::new(100.0).through(fast).through(slow));
        let rep = sim.run().unwrap();
        assert!(close(rep.finish_time(f).unwrap(), 10.0));
    }

    #[test]
    fn served_bytes_accumulate_per_resource() {
        let mut sim = Simulation::new();
        let l1 = sim.add_resource("l1", 100.0);
        let l2 = sim.add_resource("l2", 100.0);
        let _a = sim.add_flow(FlowSpec::new(300.0).through(l1).through(l2));
        let _b = sim.add_flow(FlowSpec::new(200.0).through(l1));
        let rep = sim.run().unwrap();
        assert!(close(rep.resource_served(ResourceId(0)), 500.0));
        assert!(close(rep.resource_served(ResourceId(1)), 300.0));
    }

    #[test]
    fn labels_survive_to_report() {
        let mut sim = Simulation::new();
        let r = sim.add_resource("link", 10.0);
        sim.add_flow(FlowSpec::new(10.0).through(r).labeled("hello"));
        let rep = sim.run().unwrap();
        let labels: Vec<_> = rep.flows().map(|(_, _, l)| l.map(str::to_owned)).collect();
        assert_eq!(labels, vec![Some("hello".to_owned())]);
    }

    #[test]
    fn many_flows_scale_and_stay_fair() {
        let mut sim = Simulation::new();
        let r = sim.add_resource("link", 1000.0);
        let ids: Vec<_> = (0..100)
            .map(|_| sim.add_flow(FlowSpec::new(100.0).through(r)))
            .collect();
        let rep = sim.run().unwrap();
        // 100 identical flows over 1000 B/s: each at 10 B/s, finish at t=10.
        for f in ids {
            assert!(close(rep.finish_time(f).unwrap(), 10.0));
        }
    }

    /// Build one topology and demand that the production core and the
    /// oracle agree bit for bit: finish times, makespan, event count, and
    /// served bytes.
    fn assert_engines_agree(build: impl Fn(&mut Simulation)) {
        let mut sim = Simulation::new();
        build(&mut sim);
        let mut arena = SimArena::new();
        let oracle = sim.run_oracle_in(&mut arena).unwrap();
        let (finish, served) = (arena.finish().to_vec(), arena.served().to_vec());
        let production = sim.run_makespan_in(&mut arena).unwrap();
        assert_eq!(oracle.makespan.to_bits(), production.makespan.to_bits());
        assert_eq!(oracle.events, production.events);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&finish), bits(arena.finish()), "finish times diverge");
        assert_eq!(bits(&served), bits(arena.served()), "served bytes diverge");
    }

    #[test]
    fn engines_agree_on_staggered_contention() {
        assert_engines_agree(|sim| {
            let l1 = sim.add_resource("l1", 100.0);
            let l2 = sim.add_resource("l2", 50.0);
            sim.add_flow(FlowSpec::new(750.0).through(l1));
            sim.add_flow(FlowSpec::new(250.0).through(l2).released_at(1.5));
            sim.add_flow(FlowSpec::new(250.0).through(l1).through(l2).with_latency(0.25));
            for _ in 0..8 {
                sim.add_flow(FlowSpec::new(100.0).through(l1).released_at(3.0));
            }
        });
    }

    #[test]
    fn engines_agree_on_equal_rate_ties() {
        // Identical capacities make the progressive-filling best-level scan
        // tie on every level; both engines must break ties the same way.
        assert_engines_agree(|sim| {
            let a = sim.add_resource("a", 10.0);
            let b = sim.add_resource("b", 10.0);
            sim.add_flow(FlowSpec::new(40.0).through(a));
            sim.add_flow(FlowSpec::new(40.0).through(b));
            sim.add_flow(FlowSpec::new(40.0).through(a).through(b));
            sim.add_flow(FlowSpec::new(40.0).through(b).through(a));
        });
    }

    #[test]
    fn engines_agree_near_saturation() {
        // Byte counts that leave residuals within a few ulps of the EPS
        // retirement threshold; regression guard for the freeze/retire
        // slack handling in both engines.
        assert_engines_agree(|sim| {
            let r = sim.add_resource("link", 1.0 / 3.0);
            let s = sim.add_resource("slow", 1e-3);
            for i in 0..6 {
                sim.add_flow(FlowSpec::new(0.1 + 1e-13 * i as f64).through(r));
            }
            sim.add_flow(FlowSpec::new(1e-6).through(r).through(s));
        });
    }

    #[test]
    fn engines_agree_on_identical_flow_populations() {
        // 64 clones + 1 straggler: many flows freeze at one level through
        // one resource's index slice.
        assert_engines_agree(|sim| {
            let r = sim.add_resource("link", 1000.0);
            for _ in 0..64 {
                sim.add_flow(FlowSpec::new(100.0).through(r));
            }
            sim.add_flow(FlowSpec::new(5.0).through(r).released_at(0.02));
        });
    }

    #[test]
    fn engines_agree_when_a_path_repeats_a_resource() {
        // The index lists such a flow once per repeat, and the fill counts
        // it once per repeat against the resource.
        assert_engines_agree(|sim| {
            let a = sim.add_resource("a", 90.0);
            let b = sim.add_resource("b", 40.0);
            sim.add_flow(FlowSpec::new(120.0).through(a).through(a));
            sim.add_flow(FlowSpec::new(60.0).through(a).through(b).through(a));
            sim.add_flow(FlowSpec::new(30.0).through(b).through(b).released_at(0.5));
            sim.add_flow(FlowSpec::new(75.0).through(a));
        });
    }
}
