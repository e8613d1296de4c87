//! The oracle: the original per-flow progressive-filling loop, kept
//! verbatim for tests to compare the production core against.
//!
//! It is compiled only under the `oracle` cargo feature, which test
//! targets enable; release binaries carry one simulator core and no way
//! to select another.  The production core
//! ([`crate::engine`]) must reproduce it bit for bit: per-flow finish
//! times, makespan, event count, and per-resource served bytes.
//!
//! A single simulation runs here through [`Simulation::run_oracle_in`];
//! [`set_engine_override`] routes every run in the process — worker
//! threads included, so whole campaigns — through the oracle
//! ([`SimEngine::Oracle`]) or through both cores with a bit-for-bit
//! comparison ([`SimEngine::Checked`], tallied by [`checked_runs`] and
//! [`mismatched_runs`]).

use crate::arena::SimArena;
use crate::engine::{RunStats, Simulation};
use crate::error::CloudSimError;
use crate::flow::FlowSpec;
use crate::resource::Resource;
use crate::sharing::{Fill, EPS};

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

impl Simulation {
    /// Run on the oracle, writing finish times and served bytes into
    /// `arena` exactly as [`Simulation::run_makespan_in`] does.
    pub fn run_oracle_in(&self, arena: &mut SimArena) -> Result<RunStats, CloudSimError> {
        self.validate()?;
        run_reference(self, arena)
    }
}

/// Which simulator core runs the simulations of this process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimEngine {
    /// The production core (the default).
    Production = 0,
    /// The verbatim oracle loop.
    Oracle = 1,
    /// Both cores, compared bit for bit; the run returns the production
    /// result.
    Checked = 2,
}

static ENGINE: AtomicU8 = AtomicU8::new(SimEngine::Production as u8);
static CHECKED: AtomicU64 = AtomicU64::new(0);
static MISMATCHED: AtomicU64 = AtomicU64::new(0);

/// Route every simulation run in this process through `engine`.
pub fn set_engine_override(engine: SimEngine) {
    ENGINE.store(engine as u8, Ordering::Relaxed);
}

/// Runs compared under [`SimEngine::Checked`] so far in this process.
pub fn checked_runs() -> u64 {
    CHECKED.load(Ordering::Relaxed)
}

/// Compared runs whose outcome, finish times, served bytes, makespan or
/// event count differed in any bit.
pub fn mismatched_runs() -> u64 {
    MISMATCHED.load(Ordering::Relaxed)
}

/// Run `sim` on the overridden core; `None` leaves it to production.
pub(crate) fn run_overridden(
    sim: &Simulation,
    arena: &mut SimArena,
) -> Option<Result<RunStats, CloudSimError>> {
    match ENGINE.load(Ordering::Relaxed) {
        1 => Some(run_reference(sim, arena)),
        2 => Some(run_checked(sim, arena)),
        _ => None,
    }
}

fn run_checked(sim: &Simulation, arena: &mut SimArena) -> Result<RunStats, CloudSimError> {
    let oracle = run_reference(sim, arena);
    let (finish, served) = (arena.finish.clone(), arena.served.clone());
    let production = crate::engine::run_events(sim, arena);
    let bits =
        |a: &[f64], b: &[f64]| a.iter().map(|x| x.to_bits()).eq(b.iter().map(|x| x.to_bits()));
    let same = match (&oracle, &production) {
        (Ok(o), Ok(p)) => {
            o.makespan.to_bits() == p.makespan.to_bits()
                && o.events == p.events
                && bits(&finish, &arena.finish)
                && bits(&served, &arena.served)
        }
        (o, p) => o == p,
    };
    CHECKED.fetch_add(1, Ordering::Relaxed);
    if !same {
        MISMATCHED.fetch_add(1, Ordering::Relaxed);
    }
    production
}

/// The original engine loop, unchanged except that its state lives in the
/// arena.
fn run_reference(sim: &Simulation, arena: &mut SimArena) -> Result<RunStats, CloudSimError> {
    let flows = &sim.flows;
    let resources = &sim.resources;
    let n = flows.len();

    let SimArena { finish, served, pending, active, remaining, fill, .. } = arena;
    let Fill { rates, frozen, unfrozen: unfrozen_count, left: res_remaining, .. } = fill;

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

    // Scratch buffers reused across events (hot loop).
    rates.clear();
    rates.resize(n, 0.0);
    frozen.clear();
    frozen.resize(n, false);
    unfrozen_count.clear();
    unfrozen_count.resize(resources.len(), 0);
    res_remaining.clear();
    res_remaining.resize(resources.len(), 0.0);

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

        max_min_flow_rates(
            resources,
            flows,
            active,
            rates,
            frozen,
            unfrozen_count,
            res_remaining,
        );

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

        // Advance: drain bytes and account served volume per resource.
        for &i in active.iter() {
            let moved = rates[i] * dt;
            remaining[i] -= moved;
            for r in &flows[i].path {
                served[r.0] += moved;
            }
        }
        t += dt;

        // Retire completed flows.
        active.retain(|&i| {
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

/// Progressive filling over individual flows.  Writes the max-min fair rate
/// of every flow in `active` into `rates`.
fn max_min_flow_rates(
    resources: &[Resource],
    flows: &[FlowSpec],
    active: &[usize],
    rates: &mut [f64],
    frozen: &mut [bool],
    unfrozen_count: &mut [usize],
    res_remaining: &mut [f64],
) {
    for r in 0..resources.len() {
        unfrozen_count[r] = 0;
        res_remaining[r] = resources[r].capacity;
    }
    for &i in active {
        frozen[i] = false;
        rates[i] = 0.0;
        for r in &flows[i].path {
            unfrozen_count[r.0] += 1;
        }
    }

    let mut level = 0.0f64;
    let mut left = active.len();
    while left > 0 {
        // The resource that saturates first as the fill level rises.
        let mut best_r = usize::MAX;
        let mut best_level = f64::INFINITY;
        for r in 0..resources.len() {
            if unfrozen_count[r] > 0 {
                let sat = level + res_remaining[r] / unfrozen_count[r] as f64;
                if sat < best_level {
                    best_level = sat;
                    best_r = r;
                }
            }
        }
        debug_assert!(best_r != usize::MAX, "active flows but no loaded resource");

        let delta = best_level - level;
        for r in 0..resources.len() {
            if unfrozen_count[r] > 0 {
                res_remaining[r] -= delta * unfrozen_count[r] as f64;
            }
        }
        level = best_level;

        // Freeze every unfrozen flow through a saturated resource.  The
        // chosen resource is saturated by construction; floating-point
        // drift can saturate others in the same step, handle them too.
        for &i in active {
            if frozen[i] {
                continue;
            }
            let hits_saturated = flows[i]
                .path
                .iter()
                .any(|r| r.0 == best_r || res_remaining[r.0] <= EPS * resources[r.0].capacity);
            if hits_saturated {
                frozen[i] = true;
                rates[i] = level;
                left -= 1;
                for r in &flows[i].path {
                    unfrozen_count[r.0] -= 1;
                }
            }
        }
    }
}
