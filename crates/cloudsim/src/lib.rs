//! # acic-cloudsim — a flow-level cloud platform simulator
//!
//! This crate is the *substrate* of the ACIC reproduction: a deterministic,
//! flow-level discrete-event simulator of an EC2-Cluster-Compute-style cloud
//! circa 2012/2013.  The original paper ran its training (IOR) and its
//! evaluation applications on real Amazon EC2 CCIs; we do not have that
//! testbed, so every "run on the cloud" in this repository is executed here
//! instead.
//!
//! The simulator models:
//!
//! * **Instances** ([`instance::InstanceType`]): `cc1.4xlarge` and
//!   `cc2.8xlarge` with 2012-era core counts, NIC speeds, local
//!   ("ephemeral") disk complements, and hourly prices.
//! * **Storage devices** ([`device`]): EBS volumes (network-attached, more
//!   variable), local ephemeral disks, and SSDs, each with sequential
//!   bandwidth, per-operation latency, and a multi-tenant jitter model.
//! * **Software RAID-0** ([`raid`]): aggregation of several devices into one
//!   logical block device, as cloud HPC users commonly configure.
//! * **The network fabric** ([`network`]): one full-duplex 10 GbE NIC per
//!   instance plus an intra-instance memory bus for loopback traffic.
//! * **Flows** ([`flow`], [`engine`]): data transfers that traverse a path
//!   of capacity-limited resources.  Concurrent flows share resources with
//!   *max-min fairness* (progressive filling, [`sharing`]), and the engine
//!   advances time from one flow completion/activation to the next.  Tests
//!   gate it bit for bit against the original loop, kept as the oracle in
//!   `oracle` (cargo feature `oracle`); per-run state lives in a reusable
//!   [`arena::SimArena`] so campaign sweeps allocate nothing in steady
//!   state.
//! * **Pricing** ([`pricing`]): the paper's equation (1)
//!   (`cost = time × instances × unit price`), plus hourly-granularity
//!   billing and EBS volume charges.
//!
//! Determinism: every run is parameterized by an explicit `u64` seed consumed
//! through [`rng::SplitMix64`]; there is no ambient randomness and no wall
//! clock anywhere in the crate.
//!
//! ## Quick example
//!
//! ```
//! use acic_cloudsim::engine::Simulation;
//! use acic_cloudsim::flow::FlowSpec;
//!
//! let mut sim = Simulation::new();
//! let link = sim.add_resource("shared-link", 100.0); // 100 B/s
//! // Two flows share the link: each gets 50 B/s, so 500 B finish at t=10.
//! let a = sim.add_flow(FlowSpec::new(500.0).through(link));
//! let b = sim.add_flow(FlowSpec::new(500.0).through(link));
//! let report = sim.run().unwrap();
//! assert!((report.finish_time(a).unwrap() - 10.0).abs() < 1e-9);
//! assert!((report.finish_time(b).unwrap() - 10.0).abs() < 1e-9);
//! ```

pub mod arena;
pub mod cluster;
pub mod device;
pub mod engine;
pub mod error;
pub mod flow;
pub mod instance;
pub mod network;
#[cfg(feature = "oracle")]
pub mod oracle;
pub mod pricing;
pub mod raid;
pub mod resource;
pub mod rng;
pub mod sharing;
pub mod units;

pub use arena::{ArenaStats, SimArena};
pub use cluster::{Cluster, ClusterPool, ClusterSpec, NodeRole, Placement};
pub use device::{DeviceKind, DeviceProfile};
pub use engine::{RunReport, RunStats, Simulation};
pub use error::CloudSimError;
pub use flow::{FlowId, FlowSpec};
pub use instance::InstanceType;
#[cfg(feature = "oracle")]
pub use oracle::{set_engine_override, SimEngine};
pub use pricing::{CostModel, PriceSheet};
pub use resource::ResourceId;
pub use rng::SplitMix64;
