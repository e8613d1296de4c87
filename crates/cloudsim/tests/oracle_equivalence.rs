//! Production core vs the verbatim oracle on randomized topologies.
//!
//! The gating policy (DESIGN.md §14): per-flow finish times, makespan,
//! event count, and per-resource served bytes must match **bit for bit**.
//!
//! Releases, latencies, and byte counts are drawn from small discrete
//! grids on purpose: exact activation-time ties and duplicated flows make
//! many flows freeze at one fill level, and a continuous distribution
//! would almost never generate them.  Paths may visit one resource more
//! than once; the fill counts such a flow once per visit and the index
//! lists it once per visit.

use acic_cloudsim::{FlowSpec, ResourceId, SimArena, Simulation};
use proptest::prelude::*;

const RELEASES: [f64; 4] = [0.0, 0.5, 1.25, 2.0];
const LATENCIES: [f64; 3] = [0.0, 0.05, 0.5];

type FlowDraw = (u32, Vec<u8>, u8, u8, u8);

fn build(caps: &[f64], flows: &[FlowDraw]) -> Simulation {
    let mut sim = Simulation::new();
    let ids: Vec<ResourceId> =
        caps.iter().enumerate().map(|(i, &c)| sim.add_resource(format!("r{i}"), c)).collect();
    for (bytes_step, path, release_pick, latency_pick, clones) in flows {
        for _ in 0..*clones {
            let mut f = FlowSpec::new(f64::from(*bytes_step) * 7.5)
                .released_at(RELEASES[*release_pick as usize])
                .with_latency(LATENCIES[*latency_pick as usize]);
            for &p in path {
                f = f.through(ids[p as usize % ids.len()]);
            }
            sim.add_flow(f);
        }
    }
    sim
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn assert_equivalent(caps: &[f64], flows: &[FlowDraw]) -> Result<(), TestCaseError> {
    let sim = build(caps, flows);
    let mut arena = SimArena::new();
    let oracle = sim.run_oracle_in(&mut arena).unwrap();
    let (finish, served) = (bits(arena.finish()), bits(arena.served()));
    let production = sim.run_makespan_in(&mut arena).unwrap();

    prop_assert_eq!(
        oracle.makespan.to_bits(),
        production.makespan.to_bits(),
        "makespan diverges: {} vs {}",
        oracle.makespan,
        production.makespan
    );
    prop_assert_eq!(oracle.events, production.events, "event counts diverge");
    prop_assert_eq!(finish, bits(arena.finish()), "finish times diverge");
    prop_assert_eq!(served, bits(arena.served()), "served bytes diverge");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// General randomized topologies: mixed paths, staggered activations,
    /// duplicated flows.
    #[test]
    fn production_matches_oracle(
        caps in prop::collection::vec(0.5f64..2000.0, 1usize..6),
        flows in prop::collection::vec(
            (1u32..60, prop::collection::vec(0u8..8, 1usize..4), 0u8..4, 0u8..3, 1u8..4),
            1usize..40,
        ),
    ) {
        assert_equivalent(&caps, &flows)?;
    }

    /// Clone-heavy populations: a handful of distinct flow shapes, each
    /// duplicated many times, so long runs of identical flows in one
    /// resource's index freeze and retire at the same fill level.
    #[test]
    fn clone_heavy_shapes_match_oracle(
        caps in prop::collection::vec(10.0f64..500.0, 1usize..4),
        shapes in prop::collection::vec(
            (1u32..20, prop::collection::vec(0u8..4, 1usize..3), 0u8..4, 0u8..1, 8u8..32),
            1usize..6,
        ),
    ) {
        assert_equivalent(&caps, &shapes)?;
    }

    /// Paths that revisit resources: each hop is repeated 1–3 times in
    /// place, over few resources so revisits also happen across hops.
    #[test]
    fn repeated_resource_paths_match_oracle(
        caps in prop::collection::vec(1.0f64..500.0, 1usize..4),
        flows in prop::collection::vec(
            (
                1u32..60,
                prop::collection::vec((0u8..4, 1usize..4), 1usize..4),
                0u8..4,
                0u8..3,
                1u8..3,
            ),
            1usize..30,
        ),
    ) {
        let drawn: Vec<FlowDraw> = flows
            .into_iter()
            .map(|(b, hops, rp, lp, c)| {
                let path = hops.iter().flat_map(|&(r, k)| std::iter::repeat_n(r, k)).collect();
                (b, path, rp, lp, c)
            })
            .collect();
        assert_equivalent(&caps, &drawn)?;
    }

    /// The campaign shape: one flow per node pair over `tx → rx → array`
    /// paths, tens to a hundred-odd flows over tens of resources, a few
    /// release waves.
    #[test]
    fn node_pair_plans_match_oracle(
        clients in 1usize..24,
        servers in 1usize..6,
        steps in prop::collection::vec(1u32..97, 1usize..8),
        waves in 1usize..3,
    ) {
        let caps: Vec<f64> = (0..clients + 2 * servers)
            .map(|r| if r < clients + servers { 1.25e3 } else { 0.5e3 })
            .collect();
        let mut flows = Vec::new();
        for w in 0..waves {
            for n in 0..clients {
                for s in 0..servers {
                    let step = steps[(n * servers + s + w) % steps.len()];
                    let path = vec![n as u8, (clients + s) as u8, (clients + servers + s) as u8];
                    flows.push((step, path, w as u8, 0u8, 1u8));
                }
            }
        }
        assert_equivalent(&caps, &flows)?;
    }

    /// Pure staggered-activation stress: every flow shares one link, so
    /// correctness hinges entirely on activation ordering and the idle-gap
    /// jump logic.
    #[test]
    fn staggered_single_link_matches_oracle(
        flows in prop::collection::vec((1u32..60, 0u8..4, 0u8..3, 1u8..3), 1usize..30),
    ) {
        let caps = [100.0f64];
        let drawn: Vec<FlowDraw> = flows
            .into_iter()
            .map(|(b, rp, lp, c)| (b, vec![0u8], rp, lp, c))
            .collect();
        assert_equivalent(&caps, &drawn)?;
    }
}
