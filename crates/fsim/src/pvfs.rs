//! The PVFS2 model: round-robin striping over `S` I/O servers, no client
//! caching, synchronous data movement end to end.

use crate::params::FsParams;
use crate::phase::{IoOp, IoPhase};
use crate::plan::servers_for_node;
use acic_cloudsim::cluster::Cluster;
use acic_cloudsim::engine::Simulation;
use acic_cloudsim::resource::ResourceId;

/// Plan one PVFS2 I/O burst: add its flows to `sim` and return the serial
/// (non-bandwidth) overhead in seconds.
///
/// Each request of `fs_request_size` bytes spans `ceil(request/stripe)`
/// consecutive servers (capped at the server count), so small stripes
/// spread single requests wide while large stripes keep them on one server
/// — the per-request parallelism/overhead trade-off behind the Table 1
/// "Stripe size" dimension.
///
/// `path` is caller-owned scratch so pooled campaign runs allocate nothing.
#[allow(clippy::too_many_arguments)]
pub(crate) fn plan_pvfs_phase(
    sim: &mut Simulation,
    cluster: &Cluster,
    params: &FsParams,
    phase: &IoPhase,
    stripe_size: f64,
    node_bytes: &[(usize, f64)],
    fs_request_size: f64,
    first_open: bool,
    path: &mut Vec<ResourceId>,
) -> f64 {
    let nservers = cluster.io_server_nodes.len();
    let total: f64 = node_bytes.iter().map(|&(_, b)| b).sum();
    let spread = ((fs_request_size / stripe_size).ceil() as usize).clamp(1, nservers);

    // Read-modify-write amplification: without a client cache, stripe-
    // unaligned writes force the servers to read partial stripes, merge,
    // and write padded extents back.  Only *interleaved* streams pay this
    // — many processes writing one shared file without collective
    // buffering, the FLASH-style independent-HDF5 pattern — because
    // per-process sequential streams and collective buffers merge in the
    // server request queue (hence the amplification cap as well).  This is
    // the mechanism that makes such checkpoints prefer NFS (Table 4,
    // FLASHIO).
    let interleaved = phase.shared_file && !phase.effective_collective();
    let (write_amp, rmw_read_frac) = if phase.op.is_write()
        && params.pvfs_rmw_enabled
        && interleaved
        && fs_request_size % stripe_size != 0.0
    {
        let padded = (fs_request_size / stripe_size).ceil() * stripe_size;
        let amp = (padded / fs_request_size).min(params.pvfs_rmw_amp_cap);
        (amp, amp - 1.0)
    } else {
        (1.0, 0.0)
    };

    for &(node, bytes) in node_bytes {
        if bytes <= 0.0 {
            continue;
        }
        let servers = servers_for_node(node, spread, nservers);
        let per_server = bytes / servers.len() as f64;
        for s in servers {
            let server_node = cluster.node_of_server(s);
            // Random access stretches the *device* time (seeks); the wire
            // still moves only the payload, so amplified cases decouple the
            // network flow from the array flow.
            let rand_amp = if phase.access.is_random() {
                1.0 / cluster.storage_random_efficiency(server_node)
            } else {
                1.0
            };
            match phase.op {
                IoOp::Write if write_amp * rand_amp > 1.0 => {
                    // Amplified write: only the payload crosses the wire;
                    // the padded/seek-stretched extent moves through the
                    // array, and any RMW pre-read occupies the read channel.
                    path.clear();
                    cluster.net_path(node, server_node, path);
                    let f = sim.push_flow(per_server, path);
                    sim.label_flow(f, || format!("pvfs wr net n{node}->s{s}"));
                    path.clear();
                    cluster.storage_path(server_node, true, path);
                    let f = sim.push_flow(per_server * write_amp * rand_amp, path);
                    sim.label_flow(f, || format!("pvfs wr dev s{s}"));
                    if rmw_read_frac > 0.0 {
                        path.clear();
                        cluster.storage_path(server_node, false, path);
                        let f = sim.push_flow(per_server * rmw_read_frac, path);
                        sim.label_flow(f, || format!("pvfs rmw rd s{s}"));
                    }
                }
                IoOp::Write => {
                    path.clear();
                    cluster.net_path(node, server_node, path);
                    cluster.storage_path(server_node, true, path);
                    let f = sim.push_flow(per_server, path);
                    sim.label_flow(f, || format!("pvfs wr n{node}->s{s}"));
                }
                IoOp::Read if rand_amp > 1.0 => {
                    path.clear();
                    cluster.storage_path(server_node, false, path);
                    let f = sim.push_flow(per_server * rand_amp, path);
                    sim.label_flow(f, || format!("pvfs rd dev s{s}"));
                    path.clear();
                    cluster.net_path(server_node, node, path);
                    let f = sim.push_flow(per_server, path);
                    sim.label_flow(f, || format!("pvfs rd net s{s}->n{node}"));
                }
                IoOp::Read => {
                    path.clear();
                    cluster.storage_path(server_node, false, path);
                    cluster.net_path(server_node, node, path);
                    let f = sim.push_flow(per_server, path);
                    sim.label_flow(f, || format!("pvfs rd s{s}->n{node}"));
                }
            }
        }
    }

    // --- serial overheads ---
    // Client-side request processing (parallel across processes).
    let calls_per_proc = phase.calls_per_proc();
    let mut serial =
        calls_per_proc * (phase.api.client_call_overhead() + params.pvfs_client_op_overhead);
    // Servers process one request per stripe unit touched.
    let stripe_units = total / stripe_size.max(1.0);
    serial += stripe_units / (nservers as f64 * params.pvfs_server_unit_rate);
    // Metadata server handles opens and interface metadata serially; PVFS2
    // clients cache nothing, so every op pays the full round trip.  Opens
    // are charged once per run (files stay open across iterations);
    // interface metadata (HDF5 object headers, B-trees) recurs per phase.
    let opens = if first_open {
        phase.io_procs as f64 * if phase.shared_file { 1.0 } else { 2.0 }
    } else {
        0.0
    };
    serial += (opens + phase.api.phase_meta_ops()) * params.pvfs_meta_op_cost;
    serial
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::IoApi;
    use acic_cloudsim::cluster::{ClusterSpec, Placement};
    use acic_cloudsim::device::DeviceKind;
    use acic_cloudsim::instance::InstanceType;
    use acic_cloudsim::raid::Raid0;
    use acic_cloudsim::rng::SplitMix64;
    use acic_cloudsim::units::{kib, mib};

    fn setup(nservers: usize) -> (Simulation, Cluster) {
        let mut sim = Simulation::new();
        let spec = ClusterSpec {
            instance_type: InstanceType::Cc2_8xlarge,
            compute_instances: 2,
            io_servers: nservers,
            placement: Placement::Dedicated,
            storage: Raid0::new(DeviceKind::Ephemeral, 4),
        };
        let mut rng = SplitMix64::new(0);
        let c = Cluster::build(spec, &mut sim, &mut rng).unwrap();
        (sim, c)
    }

    fn phase(op: IoOp) -> IoPhase {
        IoPhase {
            io_procs: 32,
            access: crate::phase::Access::Sequential,
            per_proc_bytes: mib(64.0),
            request_size: mib(16.0),
            op,
            collective: false,
            shared_file: true,
            api: IoApi::MpiIo,
        }
    }

    #[test]
    fn large_requests_spread_over_all_servers() {
        let (mut sim, c) = setup(4);
        // 16 MiB request / 4 MiB stripe = 4 servers per request.
        plan_pvfs_phase(
            &mut sim,
            &c,
            &FsParams::default(),
            &phase(IoOp::Write),
            mib(4.0),
            &[(0, mib(256.0)), (1, mib(256.0))],
            mib(16.0),
            true,
            &mut Vec::new(),
        );
        assert_eq!(sim.flow_count(), 8, "2 nodes × 4 servers");
    }

    #[test]
    fn large_stripe_confines_request_to_one_server() {
        let (mut sim, c) = setup(4);
        // 4 MiB request / 4 MiB stripe = exactly 1 server, aligned.
        plan_pvfs_phase(
            &mut sim,
            &c,
            &FsParams::default(),
            &phase(IoOp::Write),
            mib(4.0),
            &[(0, mib(256.0)), (1, mib(256.0))],
            mib(4.0),
            true,
            &mut Vec::new(),
        );
        assert_eq!(sim.flow_count(), 2, "one flow per node");
    }

    #[test]
    fn small_stripe_spreads_small_requests() {
        let (mut sim, c) = setup(4);
        // 256 KiB request / 64 KiB stripe = 4 servers.
        plan_pvfs_phase(
            &mut sim,
            &c,
            &FsParams::default(),
            &phase(IoOp::Read),
            kib(64.0),
            &[(0, mib(256.0))],
            kib(256.0),
            true,
            &mut Vec::new(),
        );
        assert_eq!(sim.flow_count(), 4);
    }

    #[test]
    fn more_servers_finish_large_writes_faster() {
        let p = FsParams::default();
        let mut times = Vec::new();
        for ns in [1usize, 2, 4] {
            let (mut sim, c) = setup(ns);
            plan_pvfs_phase(
                &mut sim,
                &c,
                &p,
                &phase(IoOp::Write),
                mib(4.0),
                &[(0, mib(4096.0)), (1, mib(4096.0))],
                mib(16.0),
                true,
                &mut Vec::new(),
            );
            times.push(sim.run().unwrap().makespan());
        }
        assert!(times[0] > times[1] && times[1] > times[2],
            "write time must fall with server count: {times:?}");
    }

    #[test]
    fn small_stripe_costs_more_server_ops() {
        let (mut sim, c) = setup(4);
        let p = FsParams::default();
        let nb = vec![(0, mib(4096.0))];
        let s_small = plan_pvfs_phase(&mut sim, &c, &p, &phase(IoOp::Write), kib(64.0), &nb, mib(16.0), true, &mut Vec::new());
        let s_large = plan_pvfs_phase(&mut sim, &c, &p, &phase(IoOp::Write), mib(4.0), &nb, mib(16.0), true, &mut Vec::new());
        assert!(s_small > s_large, "{s_small} vs {s_large}");
    }

    #[test]
    fn reads_traverse_storage_then_network() {
        let (mut sim, c) = setup(1);
        plan_pvfs_phase(
            &mut sim,
            &c,
            &FsParams::default(),
            &phase(IoOp::Read),
            mib(4.0),
            &[(0, mib(100.0))],
            mib(16.0),
            true,
            &mut Vec::new(),
        );
        // One flow; it must be rate-limited by the array read channel
        // (~494 MB/s for 4 ephemeral disks) rather than the NIC.
        let rep = sim.run().unwrap();
        let makespan = rep.makespan();
        let disk_bound = mib(100.0) / (4.0 * 130.0e6 * 0.95);
        assert!(makespan >= disk_bound * 0.2, "read not absurdly fast: {makespan}");
    }

    #[test]
    fn unaligned_writes_pay_rmw_amplification() {
        let p = FsParams::default();
        let nb = vec![(0, mib(2048.0))];
        // Aligned: 16 MiB requests on 4 MiB stripes.
        let (mut sim_a, c_a) = setup(4);
        plan_pvfs_phase(&mut sim_a, &c_a, &p, &phase(IoOp::Write), mib(4.0), &nb, mib(16.0), true, &mut Vec::new());
        let t_aligned = sim_a.run().unwrap().makespan();
        // Unaligned: 0.5 MiB requests on 4 MiB stripes → 8× padding.
        let (mut sim_u, c_u) = setup(4);
        plan_pvfs_phase(&mut sim_u, &c_u, &p, &phase(IoOp::Write), mib(4.0), &nb, mib(0.5), true, &mut Vec::new());
        let t_unaligned = sim_u.run().unwrap().makespan();
        assert!(
            t_unaligned > 1.5 * t_aligned,
            "RMW must hurt noticeably: {t_unaligned} vs {t_aligned}"
        );
    }

    #[test]
    fn collective_and_private_file_writes_skip_rmw() {
        let p = FsParams::default();
        let nb = vec![(0, mib(512.0))];
        // Same unaligned request, but collective: merges, no RMW flows.
        let (mut sim_c, c_c) = setup(4);
        let mut coll = phase(IoOp::Write);
        coll.collective = true;
        plan_pvfs_phase(&mut sim_c, &c_c, &p, &coll, mib(4.0), &nb, mib(0.5), true, &mut Vec::new());
        assert_eq!(sim_c.flow_count(), 1, "collective write: single merged flow");
        // Per-process files: sequential streams, no RMW either.
        let (mut sim_p, c_p) = setup(4);
        let mut private = phase(IoOp::Write);
        private.shared_file = false;
        plan_pvfs_phase(&mut sim_p, &c_p, &p, &private, mib(4.0), &nb, mib(0.5), true, &mut Vec::new());
        assert_eq!(sim_p.flow_count(), 1);
    }

    #[test]
    fn rmw_can_be_disabled_for_ablation() {
        let p = FsParams { pvfs_rmw_enabled: false, ..Default::default() };
        let nb = vec![(0, mib(2048.0))];
        let (mut sim, c) = setup(4);
        plan_pvfs_phase(&mut sim, &c, &p, &phase(IoOp::Write), mib(4.0), &nb, mib(0.5), true, &mut Vec::new());
        // Without RMW the unaligned write plans like an aligned one:
        // spread=1 server → exactly 1 flow, no rmw flows.
        assert_eq!(sim.flow_count(), 1);
    }

    #[test]
    fn metadata_cost_scales_with_private_files() {
        let (mut sim, c) = setup(2);
        let p = FsParams::default();
        let nb = vec![(0, mib(64.0))];
        let mut shared = phase(IoOp::Write);
        shared.shared_file = true;
        let mut private = shared;
        private.shared_file = false;
        let s_shared = plan_pvfs_phase(&mut sim, &c, &p, &shared, mib(4.0), &nb, mib(16.0), true, &mut Vec::new());
        let s_private = plan_pvfs_phase(&mut sim, &c, &p, &private, mib(4.0), &nb, mib(16.0), true, &mut Vec::new());
        assert!(s_private > s_shared);
    }
}
