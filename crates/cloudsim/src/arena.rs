//! Reusable per-run simulation state.
//!
//! A [`SimArena`] owns every vector a simulation run needs — construction
//! pools (resource/flow storage and recycled path `Vec`s), engine scratch,
//! and the run outputs (finish times, served bytes).  Campaign loops keep
//! one arena per worker thread and cycle it through build → run →
//! reclaim, so a full training sweep does zero steady-state allocation:
//! after the first point warms the pools, every subsequent point reuses
//! the same heap blocks.
//!
//! The module-level [`stats`] counters make that property observable
//! (`train --report` surfaces them): `runs` counts engine invocations,
//! `pool_misses` counts the times a pooled simulation had to allocate
//! because a pool ran dry.  In steady state the miss count stays flat
//! while runs climb.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::engine::Simulation;
use crate::flow::FlowSpec;
use crate::resource::{Resource, ResourceId};
use crate::sharing::Fill;

static RUNS: AtomicU64 = AtomicU64::new(0);
static POOL_MISSES: AtomicU64 = AtomicU64::new(0);

pub(crate) fn count_run() {
    RUNS.fetch_add(1, Ordering::Relaxed);
}

/// Process-wide arena counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArenaStats {
    /// Total simulation runs (pooled or not).
    pub runs: u64,
    /// Allocations forced by an empty pool in a pooled simulation; flat in
    /// steady state.
    pub pool_misses: u64,
}

/// Snapshot the process-wide run / pool-miss counters.
pub fn stats() -> ArenaStats {
    ArenaStats {
        runs: RUNS.load(Ordering::Relaxed),
        pool_misses: POOL_MISSES.load(Ordering::Relaxed),
    }
}

/// All heap storage one simulation run needs, reusable across runs.
#[derive(Debug, Default)]
pub struct SimArena {
    // Construction pools handed to pooled simulations.
    pub(crate) resources: Vec<Resource>,
    pub(crate) flows: Vec<FlowSpec>,
    pub(crate) paths: Vec<Vec<ResourceId>>,
    // Run outputs.
    pub(crate) finish: Vec<f64>,
    pub(crate) served: Vec<f64>,
    // Event-loop scratch.
    pub(crate) pending: Vec<usize>,
    pub(crate) active: Vec<usize>,
    pub(crate) remaining: Vec<f64>,
    pub(crate) fill: Fill,
    // Pool misses reclaimed from simulations built out of this arena.
    misses: u64,
}

impl SimArena {
    /// A fresh arena with empty pools (the first run warms them).
    pub fn new() -> Self {
        Self::default()
    }

    /// Hand out an empty pooled simulation backed by this arena's vectors.
    ///
    /// The simulation records no flow labels or resource names (campaign
    /// runs never read them, and formatting them would allocate); use
    /// [`Simulation::new`] when labels matter.  Pass the simulation back
    /// via [`Self::reclaim`] when done — dropping it instead leaks the
    /// pooled storage back to the allocator.
    pub fn simulation(&mut self) -> Simulation {
        Simulation::pooled(
            std::mem::take(&mut self.resources),
            std::mem::take(&mut self.flows),
            std::mem::take(&mut self.paths),
        )
    }

    /// Take a finished (or failed) simulation's storage back into the pools.
    pub fn reclaim(&mut self, sim: Simulation) {
        let (resources, flows, paths, misses) = sim.into_pools();
        self.resources = resources;
        self.flows = flows;
        self.paths = paths;
        self.misses += misses;
        if misses > 0 {
            POOL_MISSES.fetch_add(misses, Ordering::Relaxed);
        }
    }

    /// Pool misses accumulated by simulations reclaimed into this arena
    /// (local counterpart of the process-wide [`stats`] counter).
    pub fn pool_misses(&self) -> u64 {
        self.misses
    }

    /// Per-flow finish times from the last
    /// [`Simulation::run_makespan_in`] call (`f64::INFINITY` marks an
    /// unfinished flow).
    pub fn finish(&self) -> &[f64] {
        &self.finish
    }

    /// Per-resource served bytes from the last
    /// [`Simulation::run_makespan_in`] call.
    pub fn served(&self) -> &[f64] {
        &self.served
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn second_cycle_through_an_arena_hits_the_pools() {
        let mut arena = SimArena::new();
        for cycle in 0..3 {
            let mut sim = arena.simulation();
            let a = sim.add_resource_fmt(format_args!("nic{}", 0), 100.0);
            let b = sim.add_resource_fmt(format_args!("nic{}", 1), 50.0);
            sim.push_flow(500.0, &[a, b]);
            sim.push_flow(500.0, &[a]);
            let stats = sim.run_makespan_in(&mut arena).unwrap();
            assert!(stats.makespan > 0.0);
            assert!(sim.resources.iter().all(|r| r.name.is_empty()), "pooled names formatted");
            arena.reclaim(sim);
            // Cold start (cycle 0) allocates 2 paths; steady state reuses
            // them, so the miss count never moves again.
            assert_eq!(arena.pool_misses(), 2, "cycle {cycle} allocated");
        }
        assert_eq!(arena.paths.len(), 2);
    }

    #[test]
    fn outputs_are_exposed_through_accessors() {
        let mut arena = SimArena::new();
        let mut sim = arena.simulation();
        let r = sim.add_resource_fmt(format_args!("link"), 100.0);
        sim.push_flow(1000.0, &[r]);
        let stats = sim.run_makespan_in(&mut arena).unwrap();
        arena.reclaim(sim);
        assert_eq!(stats.makespan, 10.0);
        assert_eq!(arena.finish(), &[10.0]);
        assert_eq!(arena.served(), &[1000.0]);
    }
}
