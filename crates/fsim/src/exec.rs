//! The workload executor: walks a [`Workload`] phase by phase, materializes
//! each I/O burst as flows on a fresh simulation of the configured cluster,
//! and accumulates end-to-end time.

use std::cell::RefCell;

use crate::collective::plan_collective;
use crate::config::{FsType, IoSystem};
use crate::fault::{FaultEvent, FaultPlan};
use crate::nfs::{plan_nfs_phase, NfsState};
use crate::outcome::RunOutcome;
use crate::params::FsParams;
use crate::phase::{Phase, Workload};
use crate::plan::io_procs_per_node_into;
use crate::pvfs::plan_pvfs_phase;
use acic_cloudsim::arena::SimArena;
use acic_cloudsim::cluster::{Cluster, ClusterPool, Placement};
use acic_cloudsim::error::CloudSimError;
use acic_cloudsim::network::FabricSpec;
use acic_cloudsim::resource::ResourceId;
use acic_cloudsim::rng::SplitMix64;
use acic_cloudsim::units::GIB;

/// Reusable per-thread state for executing runs: the simulator arena, the
/// cluster-topology pool, and every intermediate buffer one run needs.
/// Campaigns thread one `SimScratch` through thousands of points so the
/// steady state performs zero heap allocation (satellite: `train --report`
/// surfaces the arena's pool-miss counter to prove it).
#[derive(Debug, Default)]
pub struct SimScratch {
    arena: SimArena,
    cluster: ClusterPool,
    path: Vec<ResourceId>,
    procs: Vec<(usize, usize)>,
    node_bytes: Vec<(usize, f64)>,
    fs_nodes: Vec<(usize, f64)>,
    phase_pool: Vec<Vec<f64>>,
}

impl SimScratch {
    /// Fresh, empty scratch.  Pools warm up over the first run and are hit
    /// from the second run onward.
    pub fn new() -> Self {
        Self::default()
    }

    /// Return an outcome's phase-time vector to the pool so the next run
    /// through this scratch does not allocate one.
    pub fn recycle(&mut self, outcome: RunOutcome) {
        let mut v = outcome.phase_secs;
        v.clear();
        self.phase_pool.push(v);
    }
}

thread_local! {
    static SCRATCH: RefCell<SimScratch> = RefCell::new(SimScratch::new());
}

/// Executes workloads on one I/O system configuration.
#[derive(Debug, Clone)]
pub struct Executor {
    /// The I/O system under test.
    pub system: IoSystem,
    /// Model calibration constants.
    pub params: FsParams,
    /// Failure injection (off by default).
    pub faults: FaultPlan,
    /// Network fabric layout (flat full-bisection by default).
    pub fabric: FabricSpec,
}

impl Executor {
    /// Executor with default calibration and no fault injection.
    pub fn new(system: IoSystem) -> Self {
        Self {
            system,
            params: FsParams::default(),
            faults: FaultPlan::NONE,
            fabric: FabricSpec::FLAT,
        }
    }

    /// Override the calibration constants (ablation benches).
    pub fn with_params(mut self, params: FsParams) -> Self {
        self.params = params;
        self
    }

    /// Enable failure injection.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Run on a tiered (possibly oversubscribed) network fabric.
    pub fn with_fabric(mut self, fabric: FabricSpec) -> Self {
        self.fabric = fabric;
        self
    }

    /// Run `workload` with the given seed; deterministic per
    /// `(system, workload, seed)`.
    ///
    /// Convenience wrapper over [`Self::run_in`] using a thread-local
    /// [`SimScratch`], so repeated calls on one thread reuse the pools.
    pub fn run(&self, workload: &Workload, seed: u64) -> Result<RunOutcome, CloudSimError> {
        SCRATCH.with(|s| match s.try_borrow_mut() {
            Ok(mut scratch) => self.run_in(workload, seed, &mut scratch),
            // Re-entrant call (labels closures never run sims, but be safe):
            // fall back to a cold scratch rather than panicking.
            Err(_) => self.run_in(workload, seed, &mut SimScratch::new()),
        })
    }

    /// Run `workload` with the given seed using caller-owned scratch.
    /// Identical results to [`Self::run`]; campaigns call this directly so
    /// one warm [`SimScratch`] serves every training point on the thread.
    pub fn run_in(
        &self,
        workload: &Workload,
        seed: u64,
        scratch: &mut SimScratch,
    ) -> Result<RunOutcome, CloudSimError> {
        self.system.validate()?;
        let spec = self.system.cluster;
        let root_rng = SplitMix64::new(seed);

        // NFS server page cache: a fraction of the server instance memory;
        // drain bandwidth is the nominal (jitter-free) array write speed.
        // Client page caches absorb plain POSIX writes (kernel dirty-ratio
        // bound, aggregated over the compute nodes) and write back at NIC
        // speed, further throttled by the server array.
        let nominal = spec.storage.nominal_profile();
        let mem = spec.instance_type.memory_gib() * GIB;
        let mut nfs_state = NfsState::new(
            mem * self.params.nfs_cache_fraction,
            nominal.seq_write_bps,
        )
        .with_client_cache(
            mem * self.params.nfs_client_cache_fraction * spec.compute_instances as f64,
            spec.instance_type.nic_bps().min(nominal.seq_write_bps),
        );

        let parttime = spec.placement == Placement::PartTime;
        let mut first_open = true;
        let mut total = 0.0f64;
        let mut io_secs = 0.0f64;
        let mut compute_secs = 0.0f64;
        let mut fault_secs = 0.0f64;
        let mut phase_secs = scratch.phase_pool.pop().unwrap_or_default();
        phase_secs.clear();
        phase_secs.reserve(workload.phases.len());
        let mut faults = 0usize;
        let mut fault_rng = root_rng.derive(u64::MAX);

        for (idx, phase) in workload.phases.iter().enumerate() {
            let dt = match phase {
                Phase::Compute { secs } => {
                    let dt = if parttime {
                        secs * self.params.parttime_compute_penalty
                    } else {
                        *secs
                    };
                    if self.system.fs.fs == FsType::Nfs {
                        nfs_state.drain(dt);
                    }
                    compute_secs += dt;
                    dt
                }
                Phase::Io(io) => {
                    let mut rng = root_rng.derive(idx as u64);
                    let mut sim = scratch.arena.simulation();
                    let cluster = match Cluster::build_with_fabric_pooled(
                        spec,
                        self.fabric,
                        &mut sim,
                        &mut rng,
                        &mut scratch.cluster,
                    ) {
                        Ok(c) => c,
                        Err(e) => {
                            scratch.arena.reclaim(sim);
                            return Err(e);
                        }
                    };

                    // Interface-level byte inflation (file-format framing).
                    let inflate = 1.0 + io.api.byte_inflation();
                    io_procs_per_node_into(
                        &cluster,
                        io.io_procs,
                        workload.nprocs,
                        &mut scratch.procs,
                    );
                    scratch.node_bytes.clear();
                    scratch.node_bytes.extend(
                        scratch
                            .procs
                            .iter()
                            .map(|&(n, procs)| (n, procs as f64 * io.per_proc_bytes * inflate)),
                    );

                    // Two-phase collective I/O rewrites who talks to the FS
                    // and with what request size.
                    let (fs_request, sync) = if io.effective_collective() {
                        let plan = plan_collective(
                            &mut sim,
                            &cluster,
                            &self.params,
                            io,
                            &scratch.node_bytes,
                            &mut scratch.fs_nodes,
                            &mut scratch.path,
                        );
                        (plan.fs_request_size, plan.sync_overhead)
                    } else {
                        scratch.fs_nodes.clear();
                        scratch.fs_nodes.extend_from_slice(&scratch.node_bytes);
                        (io.effective_request_size(), 0.0)
                    };

                    let serial = match self.system.fs.fs {
                        FsType::Nfs => plan_nfs_phase(
                            &mut sim,
                            &cluster,
                            &self.params,
                            io,
                            &mut nfs_state,
                            &scratch.fs_nodes,
                            fs_request,
                            first_open,
                            &mut scratch.path,
                        ),
                        FsType::Pvfs2 => plan_pvfs_phase(
                            &mut sim,
                            &cluster,
                            &self.params,
                            io,
                            self.system.fs.stripe_size,
                            &scratch.fs_nodes,
                            fs_request,
                            first_open,
                            &mut scratch.path,
                        ),
                    };
                    first_open = false;

                    let run_res = sim.run_makespan_in(&mut scratch.arena);
                    scratch.cluster.reclaim(cluster);
                    scratch.arena.reclaim(sim);
                    let makespan = run_res?.makespan;
                    let fault_penalty = match self.faults.sample_event(&mut fault_rng) {
                        FaultEvent::None => 0.0,
                        FaultEvent::Degraded { penalty_secs } => {
                            faults += 1;
                            penalty_secs
                        }
                        FaultEvent::Abort => {
                            // The lost connection corrupted in-flight data
                            // (paper §5.6 obs 5); the run is unsalvageable.
                            // Report how far it got so retry accounting can
                            // bill the wasted simulated time.
                            return Err(CloudSimError::InjectedFault {
                                time: total + makespan + serial + sync,
                                what: format!(
                                    "lost I/O server connection in phase {idx} corrupted data"
                                ),
                            });
                        }
                    };
                    fault_secs += fault_penalty;
                    let dt = makespan + serial + sync + fault_penalty;
                    io_secs += dt;
                    dt
                }
            };
            total += dt;
            phase_secs.push(dt);
        }

        Ok(RunOutcome { total_secs: total, io_secs, compute_secs, phase_secs, faults, fault_secs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::IoApi;
    use crate::config::FsConfig;
    use crate::phase::{IoOp, IoPhase};
    use acic_cloudsim::cluster::ClusterSpec;
    use acic_cloudsim::device::DeviceKind;
    use acic_cloudsim::instance::InstanceType;
    use acic_cloudsim::raid::Raid0;
    use acic_cloudsim::units::mib;

    fn system(fs: FsConfig, io_servers: usize, placement: Placement) -> IoSystem {
        IoSystem {
            cluster: ClusterSpec::for_procs(
                InstanceType::Cc2_8xlarge,
                64,
                io_servers,
                placement,
                Raid0::new(DeviceKind::Ephemeral, 4),
            ),
            fs,
        }
    }

    fn write_workload(per_proc_mib: f64, iterations: usize, compute_secs: f64) -> Workload {
        let io = IoPhase {
            io_procs: 64,
            access: crate::phase::Access::Sequential,
            per_proc_bytes: mib(per_proc_mib),
            request_size: mib(4.0),
            op: IoOp::Write,
            collective: true,
            shared_file: true,
            api: IoApi::MpiIo,
        };
        let mut phases = Vec::new();
        for _ in 0..iterations {
            phases.push(Phase::Compute { secs: compute_secs });
            phases.push(Phase::Io(io));
        }
        Workload::new(64, phases)
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let sys = system(FsConfig::pvfs2(mib(4.0)), 4, Placement::Dedicated);
        let exec = Executor::new(sys);
        let w = write_workload(32.0, 3, 1.0);
        let a = exec.run(&w, 7).unwrap();
        let b = exec.run(&w, 7).unwrap();
        assert_eq!(a, b);
        let c = exec.run(&w, 8).unwrap();
        assert_ne!(a.total_secs, c.total_secs, "different seed, different jitter");
    }

    #[test]
    fn pooled_scratch_reuse_matches_fresh_runs() {
        let sys = system(FsConfig::pvfs2(mib(4.0)), 2, Placement::Dedicated);
        let exec = Executor::new(sys);
        let w = write_workload(32.0, 3, 1.0);
        let baseline = exec.run(&w, 7).unwrap();
        let mut scratch = SimScratch::new();
        for _ in 0..3 {
            let o = exec.run_in(&w, 7, &mut scratch).unwrap();
            assert_eq!(o, baseline, "warm pools must not change results");
            scratch.recycle(o);
        }
    }

    #[test]
    fn engines_agree_end_to_end() {
        use acic_cloudsim::{oracle, set_engine_override, SimEngine};
        // The override is process-wide, so other tests running meanwhile
        // also go through both cores; they agree, so nothing they assert
        // changes.
        let mismatched = oracle::mismatched_runs();
        let checked = oracle::checked_runs();
        let mut runs = 0;
        for (fs, servers) in [(FsConfig::nfs(), 1), (FsConfig::pvfs2(mib(4.0)), 4)] {
            let exec = Executor::new(system(fs, servers, Placement::Dedicated));
            let w = write_workload(64.0, 3, 0.5);
            set_engine_override(SimEngine::Oracle);
            let oracle_outcome = exec.run(&w, 11).unwrap();
            set_engine_override(SimEngine::Checked);
            let outcome = exec.run(&w, 11).unwrap();
            assert_eq!(outcome, oracle_outcome, "cores diverge on {fs:?}");
            runs += 3;
        }
        set_engine_override(SimEngine::Production);
        assert!(oracle::checked_runs() - checked >= runs, "every phase ran on both cores");
        assert_eq!(
            oracle::mismatched_runs(),
            mismatched,
            "production core diverged from the oracle (finish, served, makespan, or events)"
        );
    }

    #[test]
    fn more_pvfs_servers_speed_up_io_heavy_writes() {
        // Paper §5.6 obs 2: more I/O servers is better for PVFS2.
        let w = write_workload(128.0, 4, 0.5);
        let t1 = Executor::new(system(FsConfig::pvfs2(mib(4.0)), 1, Placement::Dedicated))
            .run(&w, 1)
            .unwrap()
            .total_secs;
        let t4 = Executor::new(system(FsConfig::pvfs2(mib(4.0)), 4, Placement::Dedicated))
            .run(&w, 1)
            .unwrap()
            .total_secs;
        assert!(t4 < t1, "4 servers {t4} should beat 1 server {t1}");
    }

    #[test]
    fn compute_time_is_passed_through_and_penalized_parttime() {
        let w = Workload::new(64, vec![Phase::Compute { secs: 10.0 }]);
        let ded = Executor::new(system(FsConfig::nfs(), 1, Placement::Dedicated))
            .run(&w, 1)
            .unwrap();
        assert_eq!(ded.total_secs, 10.0);
        let part = Executor::new(system(FsConfig::nfs(), 1, Placement::PartTime))
            .run(&w, 1)
            .unwrap();
        assert!(part.total_secs > 10.0 && part.total_secs < 11.0);
    }

    #[test]
    fn nfs_rejects_multi_server_configs() {
        let exec = Executor::new(system(FsConfig::nfs(), 4, Placement::Dedicated));
        let w = write_workload(8.0, 1, 0.0);
        assert!(exec.run(&w, 1).is_err());
    }

    #[test]
    fn io_and_compute_seconds_partition_total() {
        let exec = Executor::new(system(FsConfig::pvfs2(mib(4.0)), 2, Placement::Dedicated));
        let w = write_workload(32.0, 3, 2.0);
        let o = exec.run(&w, 1).unwrap();
        assert!((o.io_secs + o.compute_secs - o.total_secs).abs() < 1e-9);
        assert_eq!(o.phase_secs.len(), 6);
        assert!(o.io_fraction() > 0.0 && o.io_fraction() < 1.0);
    }

    #[test]
    fn fault_injection_adds_time_and_counts() {
        let sys = system(FsConfig::pvfs2(mib(4.0)), 2, Placement::Dedicated);
        let w = write_workload(16.0, 5, 0.1);
        let clean = Executor::new(sys).run(&w, 3).unwrap();
        let faulty = Executor::new(sys)
            .with_faults(FaultPlan { phase_fail_prob: 1.0, retry_penalty_secs: 30.0, abort_prob: 0.0 })
            .run(&w, 3)
            .unwrap();
        assert_eq!(faulty.faults, 5);
        assert_eq!(faulty.fault_secs, 150.0);
        assert!((faulty.total_secs - clean.total_secs - 150.0).abs() < 1e-6);
    }

    #[test]
    fn aborting_fault_kills_the_run_with_partial_time() {
        let sys = system(FsConfig::pvfs2(mib(4.0)), 2, Placement::Dedicated);
        let w = write_workload(16.0, 5, 0.1);
        let clean = Executor::new(sys).run(&w, 3).unwrap();
        let err = Executor::new(sys)
            .with_faults(FaultPlan { phase_fail_prob: 1.0, retry_penalty_secs: 30.0, abort_prob: 1.0 })
            .run(&w, 3)
            .unwrap_err();
        match err {
            CloudSimError::InjectedFault { time, what } => {
                assert!(time > 0.0 && time < clean.total_secs, "died mid-run at {time}s");
                assert!(what.contains("lost I/O server connection"), "{what}");
            }
            other => panic!("expected InjectedFault, got {other:?}"),
        }
    }

    #[test]
    fn nfs_small_writes_are_cache_fast_but_huge_writes_throttle() {
        // A modest checkpoint fits the server cache: visible time ≈ network.
        let small = write_workload(8.0, 2, 0.0); // 1 GiB total
        let t_small = Executor::new(system(FsConfig::nfs(), 1, Placement::Dedicated))
            .run(&small, 1)
            .unwrap()
            .total_secs;
        // 64 GiB total blows through the ~30 GiB cache and pays disk time.
        let huge = write_workload(512.0, 2, 0.0);
        let t_huge = Executor::new(system(FsConfig::nfs(), 1, Placement::Dedicated))
            .run(&huge, 1)
            .unwrap()
            .total_secs;
        // Scale: if everything were network-bound, t_huge ≈ 64 × t_small.
        assert!(t_huge > 40.0 * t_small, "cache overflow must cost disk time");
    }

    #[test]
    fn ephemeral_beats_ebs_with_multiple_pvfs_servers() {
        // Paper §5.6 obs 3.
        let w = write_workload(256.0, 3, 0.0);
        let mk = |dev, width| IoSystem {
            cluster: ClusterSpec::for_procs(
                InstanceType::Cc2_8xlarge,
                64,
                4,
                Placement::Dedicated,
                Raid0::new(dev, width),
            ),
            fs: FsConfig::pvfs2(mib(4.0)),
        };
        let t_eph = Executor::new(mk(DeviceKind::Ephemeral, 4)).run(&w, 2).unwrap().total_secs;
        let t_ebs = Executor::new(mk(DeviceKind::Ebs, 2)).run(&w, 2).unwrap().total_secs;
        assert!(t_eph < t_ebs, "eph {t_eph} vs ebs {t_ebs}");
    }
}
