//! Emit `BENCH_sim.json` at the repo root: the event-driven simulator core
//! vs the progressive-filling reference oracle on a campaign-scale flow
//! storm, plus the end-to-end cost of one training point through the fsim
//! executor with warm arena pools.
//!
//! Both cores answer `Simulation::run_makespan_in`.  The reference engine
//! re-runs max-min progressive filling over every active *flow* each
//! epoch; the event core collapses identical flows into groups and shares
//! paths into classes, so each event costs work proportional to the group
//! count, not the flow count.  The storm below carries 8192 flows in 256
//! groups — the shape of a collective I/O burst, where every process on a
//! node issues the same transfer — so the algorithmic gap is visible the
//! way a training campaign sees it.
//!
//! Every seed is first cross-checked between the cores (bit-identical
//! makespan, finish times, and event counts; served bytes within 1e-9
//! relative); the timing then runs back-to-back reference/event pairs and
//! gates on the median pair ratio.  Runs in seconds; wired into
//! `scripts/tier1.sh`.

use acic_bench::stats::median;
use acic_cloudsim::{FlowSpec, ResourceId, SimArena, SimEngine, Simulation};
use acic_fsim::{
    Access, Executor, FsConfig, IoApi, IoOp, IoPhase, IoSystem, Phase, SimScratch, Workload,
};
use acic_cloudsim::cluster::{ClusterSpec, Placement};
use acic_cloudsim::device::DeviceKind;
use acic_cloudsim::instance::InstanceType;
use acic_cloudsim::raid::Raid0;
use acic_cloudsim::units::mib;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

const CLIENTS: usize = 32;
const SERVERS: usize = 4;
const WAVES: usize = 2;
const PROCS_PER_GROUP: usize = 32;
const FLOWS: usize = CLIENTS * SERVERS * WAVES * PROCS_PER_GROUP;
const GROUPS: usize = CLIENTS * SERVERS * WAVES;

/// A campaign-shaped flow storm: every client node sends two staggered
/// waves to every server, and each (node, server, wave) transfer is issued
/// by `PROCS_PER_GROUP` identical processes — the clone-heavy population
/// the event core's grouping is built for.  Byte counts come off a
/// seed-keyed discrete grid so different seeds exercise different
/// completion orders.
fn build_storm(seed: u64, engine: SimEngine) -> Simulation {
    let mut sim = Simulation::new().with_engine(engine);
    let tx: Vec<ResourceId> =
        (0..CLIENTS).map(|n| sim.add_resource(format!("n{n}.tx"), 1.25e9)).collect();
    let rx: Vec<ResourceId> =
        (0..SERVERS).map(|s| sim.add_resource(format!("s{s}.rx"), 1.25e9)).collect();
    let arr: Vec<ResourceId> =
        (0..SERVERS).map(|s| sim.add_resource(format!("s{s}.arr"), 0.5e9)).collect();
    for w in 0..WAVES {
        for n in 0..CLIENTS {
            for s in 0..SERVERS {
                let step = (n * 131 + s * 31 + w * 17 + seed as usize * 7) % 97 + 1;
                let bytes = step as f64 * 2.5e6;
                let release = w as f64 * 0.35 + n as f64 * 1e-3;
                for _ in 0..PROCS_PER_GROUP {
                    sim.add_flow(
                        FlowSpec::new(bytes)
                            .released_at(release)
                            .through(tx[n])
                            .through(rx[s])
                            .through(arr[s]),
                    );
                }
            }
        }
    }
    sim
}

/// Cross-check one seed between the cores.  Returns the number of
/// divergences (0 when equivalent) and the shared event count.
fn check_equivalence(seed: u64) -> (usize, u64) {
    let ref_rep = build_storm(seed, SimEngine::Reference).run().unwrap();
    let evt_rep = build_storm(seed, SimEngine::Event).run().unwrap();
    let mut bad = 0usize;
    if ref_rep.makespan().to_bits() != evt_rep.makespan().to_bits() {
        bad += 1;
    }
    if ref_rep.events() != evt_rep.events() {
        bad += 1;
    }
    let finishes_match = ref_rep
        .flows()
        .zip(evt_rep.flows())
        .all(|((_, a, _), (_, b, _))| a.to_bits() == b.to_bits());
    if !finishes_match {
        bad += 1;
    }
    for r in 0..(CLIENTS + 2 * SERVERS) {
        let a = ref_rep.resource_served(ResourceId::from_index(r));
        let b = evt_rep.resource_served(ResourceId::from_index(r));
        if (a - b).abs() > 1e-9 * a.abs().max(1.0) {
            bad += 1;
        }
    }
    (bad, evt_rep.events())
}

/// The per-training-point workload: a PVFS2 collective checkpoint loop on
/// the paper's 64-process scale, the shape `acic train` simulates
/// thousands of times per campaign.
fn campaign_point() -> (IoSystem, Workload) {
    let sys = IoSystem {
        cluster: ClusterSpec::for_procs(
            InstanceType::Cc2_8xlarge,
            64,
            4,
            Placement::Dedicated,
            Raid0::new(DeviceKind::Ephemeral, 4),
        ),
        fs: FsConfig::pvfs2(mib(4.0)),
    };
    let io = IoPhase {
        io_procs: 64,
        access: Access::Sequential,
        per_proc_bytes: mib(32.0),
        request_size: mib(4.0),
        op: IoOp::Write,
        collective: true,
        shared_file: true,
        api: IoApi::MpiIo,
    };
    let mut phases = Vec::new();
    for _ in 0..4 {
        phases.push(Phase::Compute { secs: 1.0 });
        phases.push(Phase::Io(io));
    }
    (sys, Workload::new(64, phases))
}

/// Median µs per executor run with a warm scratch, on the given core.
fn time_training_point(engine: SimEngine) -> f64 {
    let (sys, w) = campaign_point();
    let exec = Executor::new(sys).with_sim_engine(engine);
    let mut scratch = SimScratch::new();
    for s in 0..16 {
        let o = exec.run_in(&w, s, &mut scratch).unwrap();
        scratch.recycle(o);
    }
    let mut samples = Vec::new();
    for rep in 0..9 {
        let n = 200u64;
        let t = Instant::now();
        for i in 0..n {
            let o = exec.run_in(&w, rep * n + i, &mut scratch).unwrap();
            black_box(o.total_secs);
            scratch.recycle(o);
        }
        samples.push(t.elapsed().as_secs_f64() / n as f64 * 1e6);
    }
    median(&samples)
}

fn main() {
    // Correctness first: the event core must reproduce the oracle on every
    // storm seed before any timing is believed.
    let seeds = 6u64;
    let mut mismatches = 0usize;
    let mut events_per_run = 0u64;
    for seed in 0..seeds {
        let (bad, events) = check_equivalence(seed);
        mismatches += bad;
        events_per_run = events;
    }
    assert_eq!(mismatches, 0, "event core diverged from the reference oracle");

    // Back-to-back pair timing: one sim per core, re-run in place (the
    // run path is &self + arena, so a pair shares everything but the core,
    // and load drift hits both sides of a pair equally).
    eprintln!("timing {FLOWS}-flow / {GROUPS}-group storm, {events_per_run} events per run ...");
    let mut arena = SimArena::new();
    let mut ref_sim = build_storm(0, SimEngine::Reference);
    let mut evt_sim = build_storm(0, SimEngine::Event);
    for _ in 0..3 {
        black_box(ref_sim.run_makespan_in(&mut arena).unwrap().makespan);
        black_box(evt_sim.run_makespan_in(&mut arena).unwrap().makespan);
    }
    ref_sim.set_engine(Some(SimEngine::Reference));
    evt_sim.set_engine(Some(SimEngine::Event));
    let pairs = 9;
    let reps = 5;
    let (mut ref_samples, mut evt_samples, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..pairs {
        let t = Instant::now();
        for _ in 0..reps {
            black_box(ref_sim.run_makespan_in(&mut arena).unwrap().makespan);
        }
        let r = t.elapsed().as_secs_f64() / reps as f64;
        let t = Instant::now();
        for _ in 0..reps {
            black_box(evt_sim.run_makespan_in(&mut arena).unwrap().makespan);
        }
        let e = t.elapsed().as_secs_f64() / reps as f64;
        ref_samples.push(r);
        evt_samples.push(e);
        ratios.push(r / e);
    }
    let reference_s = median(&ref_samples);
    let event_s = median(&evt_samples);
    let speedup = median(&ratios);
    let speedup_min = ratios.iter().copied().fold(f64::INFINITY, f64::min);
    let ref_events_per_s = events_per_run as f64 / reference_s;
    let evt_events_per_s = events_per_run as f64 / event_s;

    // End-to-end: what one training point costs through the executor.
    let point_event_us = time_training_point(SimEngine::Event);
    let point_reference_us = time_training_point(SimEngine::Reference);

    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let gate_mode = if cores >= 2 { "multi_core" } else { "single_core" };

    let json = format!(
        "{{\n  \"bench\": \"sim_core\",\n  \"storm\": {{ \"flows\": {FLOWS}, \"groups\": {GROUPS}, \"resources\": {nres}, \"seeds\": {seeds}, \"events_per_run\": {events_per_run} }},\n  \"engines\": {{\n    \"reference_s\": {reference_s:.6},\n    \"event_s\": {event_s:.6},\n    \"reference_events_per_s\": {ref_events_per_s:.0},\n    \"event_events_per_s\": {evt_events_per_s:.0},\n    \"speedup\": {speedup:.2},\n    \"speedup_min\": {speedup_min:.2},\n    \"cores\": {cores},\n    \"gate_mode\": \"{gate_mode}\",\n    \"mismatches\": {mismatches}\n  }},\n  \"training_point\": {{\n    \"event_us\": {point_event_us:.1},\n    \"reference_us\": {point_reference_us:.1},\n    \"speedup\": {point_speedup:.2}\n  }}\n}}\n",
        nres = CLIENTS + 2 * SERVERS,
        point_speedup = point_reference_us / point_event_us,
    );

    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = root.join("BENCH_sim.json");
    std::fs::write(&out, &json).expect("write BENCH_sim.json");
    println!("{json}");
    println!("wrote {}", out.display());

    // Gate: the event core must hold >= 10x the reference on the storm
    // (the issue's acceptance bar; idle-box readings sit far above it).
    // A single-core runner under scheduler pressure can starve one side of
    // a pair, so the bar drops to the still-unambiguous 5x there.
    let bar = if cores >= 2 { 10.0 } else { 5.0 };
    assert!(
        speedup >= bar,
        "event core must be >= {bar}x the reference oracle on the storm \
         (got median pair ratio {speedup:.2}x, min {speedup_min:.2}x, {gate_mode})"
    );
}
