//! The 15-dimensional exploration space of paper Table 1: six cloud
//! I/O-system configuration parameters concatenated with nine application
//! I/O characteristics, their sampled value sets, validity rules, and the
//! candidate-configuration enumeration.

use crate::objective::Objective;
use acic_cloudsim::cluster::{ClusterSpec, Placement};
use acic_cloudsim::device::DeviceKind;
use acic_cloudsim::instance::InstanceType;
use acic_cloudsim::raid::Raid0;
use acic_cloudsim::units::{kib, mib};
use acic_fsim::{FsConfig, FsType, IoApi, IoOp, IoSystem};
use acic_iobench::IorConfig;

/// One of the 15 Table 1 parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ParamId {
    /// Disk device {EBS, ephemeral}.
    DiskDevice,
    /// File system {NFS, PVFS2}.
    FileSystem,
    /// Instance type {cc1.4xlarge, cc2.8xlarge}.
    InstanceType,
    /// Number of I/O servers {1, 2, 4}.
    IoServers,
    /// I/O-server placement {part-time, dedicated}.
    Placement,
    /// PVFS2 stripe size {64 KB, 4 MB}.
    StripeSize,
    /// Number of all processes {32, 64, 128, 256}.
    NumProcs,
    /// Number of I/O processes {32, 64, 128, 256}.
    NumIoProcs,
    /// I/O interface {POSIX, MPI-IO}.
    IoInterface,
    /// I/O iteration count {1, 10, 100}.
    IterationCount,
    /// Per-process data size per iteration {1..512 MB}.
    DataSize,
    /// Request size {256 KB .. 128 MB}.
    RequestSize,
    /// Operation type {read, write}.
    ReadWrite,
    /// Collective I/O {yes, no}.
    Collective,
    /// File sharing {share, individual}.
    FileSharing,
}

impl ParamId {
    /// All 15 parameters in Table 1 order (system block first).
    pub const ALL: [ParamId; 15] = [
        ParamId::DiskDevice,
        ParamId::FileSystem,
        ParamId::InstanceType,
        ParamId::IoServers,
        ParamId::Placement,
        ParamId::StripeSize,
        ParamId::NumProcs,
        ParamId::NumIoProcs,
        ParamId::IoInterface,
        ParamId::IterationCount,
        ParamId::DataSize,
        ParamId::RequestSize,
        ParamId::ReadWrite,
        ParamId::Collective,
        ParamId::FileSharing,
    ];

    /// Table 1 display name.
    pub fn name(self) -> &'static str {
        match self {
            ParamId::DiskDevice => "Disk device",
            ParamId::FileSystem => "File system",
            ParamId::InstanceType => "Instance type",
            ParamId::IoServers => "I/O server number",
            ParamId::Placement => "Placement",
            ParamId::StripeSize => "Stripe size",
            ParamId::NumProcs => "Num. of all processes",
            ParamId::NumIoProcs => "Num. of I/O processes",
            ParamId::IoInterface => "I/O interface",
            ParamId::IterationCount => "I/O iteration count",
            ParamId::DataSize => "Data size",
            ParamId::RequestSize => "Request size",
            ParamId::ReadWrite => "Read and/or write",
            ParamId::Collective => "Collective",
            ParamId::FileSharing => "File sharing",
        }
    }

    /// The paper's published PB importance rank (Table 1 "Rank" column).
    pub fn paper_rank(self) -> usize {
        match self {
            ParamId::DiskDevice => 10,
            ParamId::FileSystem => 5,
            ParamId::InstanceType => 12,
            ParamId::IoServers => 3,
            ParamId::Placement => 7,
            ParamId::StripeSize => 6,
            ParamId::NumProcs => 14,
            ParamId::NumIoProcs => 4,
            ParamId::IoInterface => 9,
            ParamId::IterationCount => 13,
            ParamId::DataSize => 1,
            ParamId::RequestSize => 8,
            ParamId::ReadWrite => 2,
            ParamId::Collective => 11,
            ParamId::FileSharing => 15,
        }
    }

    /// Is this one of the six system-side parameters?
    pub fn is_system(self) -> bool {
        matches!(
            self,
            ParamId::DiskDevice
                | ParamId::FileSystem
                | ParamId::InstanceType
                | ParamId::IoServers
                | ParamId::Placement
                | ParamId::StripeSize
        )
    }

    /// Number of sampled values (Table 1 "Value" column).
    pub fn value_count(self) -> usize {
        match self {
            ParamId::IoServers | ParamId::IterationCount => 3,
            ParamId::NumProcs | ParamId::NumIoProcs | ParamId::RequestSize => 4,
            ParamId::DataSize => 6,
            _ => 2,
        }
    }

    /// Apply sampled value `index` (0-based, Table 1 order) to a point.
    ///
    /// # Panics
    /// Panics when `index ≥ value_count()`.
    pub fn apply(self, index: usize, point: &mut SpacePoint) {
        assert!(index < self.value_count(), "{self:?} has no value #{index}");
        match self {
            ParamId::DiskDevice => {
                point.system.device = [DeviceKind::Ebs, DeviceKind::Ephemeral][index];
            }
            ParamId::FileSystem => {
                point.system.fs = [FsType::Nfs, FsType::Pvfs2][index];
            }
            ParamId::InstanceType => {
                point.system.instance_type =
                    [InstanceType::Cc1_4xlarge, InstanceType::Cc2_8xlarge][index];
            }
            ParamId::IoServers => point.system.io_servers = [1, 2, 4][index],
            ParamId::Placement => {
                point.system.placement = [Placement::PartTime, Placement::Dedicated][index];
            }
            ParamId::StripeSize => {
                point.system.stripe_size = [kib(64.0), mib(4.0)][index];
            }
            ParamId::NumProcs => point.app.nprocs = [32, 64, 128, 256][index],
            ParamId::NumIoProcs => point.app.io_procs = [32, 64, 128, 256][index],
            ParamId::IoInterface => {
                point.app.api = [IoApi::Posix, IoApi::MpiIo][index];
            }
            ParamId::IterationCount => point.app.iterations = [1, 10, 100][index],
            ParamId::DataSize => {
                point.app.data_size =
                    [mib(1.0), mib(4.0), mib(16.0), mib(32.0), mib(128.0), mib(512.0)][index];
            }
            ParamId::RequestSize => {
                point.app.request_size = [kib(256.0), mib(4.0), mib(16.0), mib(128.0)][index];
            }
            ParamId::ReadWrite => point.app.op = [IoOp::Read, IoOp::Write][index],
            ParamId::Collective => point.app.collective = [false, true][index],
            ParamId::FileSharing => point.app.shared_file = [true, false][index],
        }
    }

    /// Human-readable rendering of value `index`.
    pub fn value_label(self, index: usize) -> String {
        let mut p = SpacePoint::default_point();
        self.apply(index, &mut p);
        match self {
            ParamId::DiskDevice => p.system.device.to_string(),
            ParamId::FileSystem => p.system.fs.to_string(),
            ParamId::InstanceType => p.system.instance_type.to_string(),
            ParamId::IoServers => p.system.io_servers.to_string(),
            ParamId::Placement => p.system.placement.to_string(),
            ParamId::StripeSize => fmt_size(p.system.stripe_size),
            ParamId::NumProcs => p.app.nprocs.to_string(),
            ParamId::NumIoProcs => p.app.io_procs.to_string(),
            ParamId::IoInterface => p.app.api.to_string(),
            ParamId::IterationCount => p.app.iterations.to_string(),
            ParamId::DataSize => fmt_size(p.app.data_size),
            ParamId::RequestSize => fmt_size(p.app.request_size),
            ParamId::ReadWrite => p.app.op.to_string(),
            ParamId::Collective => if p.app.collective { "yes" } else { "no" }.to_string(),
            ParamId::FileSharing => if p.app.shared_file { "share" } else { "individual" }.to_string(),
        }
    }
}

fn fmt_size(bytes: f64) -> String {
    if bytes >= mib(1.0) {
        format!("{}MB", (bytes / mib(1.0)).round() as u64)
    } else {
        format!("{}KB", (bytes / kib(1.0)).round() as u64)
    }
}

/// The system half of a point: one cloud I/O configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemConfig {
    /// Backing disk device of each I/O server.
    pub device: DeviceKind,
    /// File system deployed.
    pub fs: FsType,
    /// Instance type of all nodes.
    pub instance_type: InstanceType,
    /// Number of I/O servers (1 for NFS).
    pub io_servers: usize,
    /// Server placement.
    pub placement: Placement,
    /// PVFS2 stripe size in bytes (0 for NFS).
    pub stripe_size: f64,
}

impl SystemConfig {
    /// The paper's baseline: "single dedicated NFS server, mounting two
    /// EBS disks with a software RAID-0" (§4.2) on the evaluation platform.
    pub fn baseline() -> Self {
        Self {
            device: DeviceKind::Ebs,
            fs: FsType::Nfs,
            instance_type: InstanceType::Cc2_8xlarge,
            io_servers: 1,
            placement: Placement::Dedicated,
            stripe_size: 0.0,
        }
    }

    /// Canonicalize: NFS forces one server and no stripe size; PVFS2 with
    /// no stripe set falls back to the 4 MB default (so dimension-wise
    /// edits that flip the file system stay deployable).
    pub fn normalized(mut self) -> Self {
        match self.fs {
            FsType::Nfs => {
                self.io_servers = 1;
                self.stripe_size = 0.0;
            }
            FsType::Pvfs2 => {
                if self.stripe_size <= 0.0 {
                    self.stripe_size = mib(4.0);
                }
            }
        }
        self
    }

    /// All candidate configurations on a fixed instance type — the space
    /// the evaluation sweeps and the predictor ranks (device × placement ×
    /// {NFS, PVFS2×servers×stripe}; 28 candidates).
    ///
    /// Delegates to the cached [`crate::candidates::CandidateMatrix`] — the
    /// single enumeration site — and clones out the list; hot-path callers
    /// should use the matrix directly to skip the clone and get the
    /// pre-encoded feature rows and validity masks too.
    pub fn candidates(instance_type: InstanceType) -> Vec<SystemConfig> {
        crate::candidates::CandidateMatrix::of(instance_type).configs().to_vec()
    }

    /// Extended candidate set including the SSD device option the paper
    /// mentions in §3.1 but leaves out of the Table 1 training space
    /// (supported here as the §8 "incrementally new I/O configurations"
    /// extension; see the `ext_ssd_study` binary).  Cached like
    /// [`Self::candidates`].
    pub fn candidates_extended(instance_type: InstanceType) -> Vec<SystemConfig> {
        crate::candidates::CandidateMatrix::of_extended(instance_type).configs().to_vec()
    }

    /// RAID-0 width convention: ephemeral servers stripe all local disks;
    /// EBS servers mount two volumes (matching the paper's baseline);
    /// SSD-equipped instances carry a pair of SSDs.
    pub fn raid(&self) -> Raid0 {
        let width = match self.device {
            DeviceKind::Ephemeral => self.instance_type.ephemeral_disks(),
            DeviceKind::Ebs | DeviceKind::Ssd => 2,
        };
        Raid0::new(self.device, width)
    }

    /// Materialize as an executable I/O system for `nprocs` processes.
    pub fn to_io_system(&self, nprocs: usize) -> IoSystem {
        let cfg = self.normalized();
        IoSystem {
            cluster: ClusterSpec::for_procs(
                cfg.instance_type,
                nprocs,
                cfg.io_servers,
                cfg.placement,
                cfg.raid(),
            ),
            fs: match cfg.fs {
                FsType::Nfs => FsConfig::nfs(),
                FsType::Pvfs2 => FsConfig::pvfs2(cfg.stripe_size),
            },
        }
    }

    /// Is this configuration deployable for a job of `nprocs` processes?
    /// (Part-time servers need at least that many compute instances.)
    pub fn valid_for(&self, nprocs: usize) -> bool {
        self.to_io_system(nprocs).validate().is_ok()
    }

    /// Parse the [`Self::notation`] format back into a configuration
    /// (instance type defaults to the evaluation platform, cc2.8xlarge).
    pub fn parse_notation(s: &str) -> Result<SystemConfig, String> {
        let parts: Vec<&str> = s.trim().split('.').collect();
        let device = |d: &str| -> Result<DeviceKind, String> {
            match d {
                "eph" => Ok(DeviceKind::Ephemeral),
                "EBS" | "ebs" => Ok(DeviceKind::Ebs),
                "ssd" => Ok(DeviceKind::Ssd),
                other => Err(format!("unknown device {other:?}")),
            }
        };
        let placement = |p: &str| -> Result<Placement, String> {
            match p {
                "D" => Ok(Placement::Dedicated),
                "P" => Ok(Placement::PartTime),
                other => Err(format!("unknown placement {other:?}")),
            }
        };
        match parts.as_slice() {
            ["nfs", p, d] => Ok(SystemConfig {
                device: device(d)?,
                fs: FsType::Nfs,
                instance_type: InstanceType::Cc2_8xlarge,
                io_servers: 1,
                placement: placement(p)?,
                stripe_size: 0.0,
            }),
            ["pvfs", servers, p, d, stripe] => {
                let io_servers: usize =
                    servers.parse().map_err(|_| format!("bad server count {servers:?}"))?;
                let stripe_size = if let Some(mb) = stripe.strip_suffix("MB") {
                    mib(mb.parse::<f64>().map_err(|_| format!("bad stripe {stripe:?}"))?)
                } else if let Some(kb) = stripe.strip_suffix("KB") {
                    kib(kb.parse::<f64>().map_err(|_| format!("bad stripe {stripe:?}"))?)
                } else {
                    return Err(format!("bad stripe {stripe:?} (want e.g. 4MB or 64KB)"));
                };
                Ok(SystemConfig {
                    device: device(d)?,
                    fs: FsType::Pvfs2,
                    instance_type: InstanceType::Cc2_8xlarge,
                    io_servers,
                    placement: placement(p)?,
                    stripe_size,
                })
            }
            _ => Err(format!(
                "unparseable configuration {s:?} (want nfs.<P|D>.<dev> or pvfs.<n>.<P|D>.<dev>.<stripe>)"
            )),
        }
    }

    /// Paper-style notation: `nfs.D.eph`, `pvfs.4.P.eph`, ...
    pub fn notation(&self) -> String {
        let dev = self.device.label();
        match self.fs {
            FsType::Nfs => format!("nfs.{}.{}", self.placement.letter(), dev),
            FsType::Pvfs2 => format!(
                "pvfs.{}.{}.{}.{}",
                self.io_servers,
                self.placement.letter(),
                dev,
                fmt_size(self.stripe_size)
            ),
        }
    }
}

/// The application half of a point: the nine I/O characteristics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppPoint {
    /// Total processes.
    pub nprocs: usize,
    /// Processes doing I/O.
    pub io_procs: usize,
    /// I/O interface.
    pub api: IoApi,
    /// I/O iterations.
    pub iterations: usize,
    /// Bytes per I/O process per iteration.
    pub data_size: f64,
    /// Bytes per I/O call.
    pub request_size: f64,
    /// Operation type.
    pub op: IoOp,
    /// Collective I/O.
    pub collective: bool,
    /// Shared file vs per-process files.
    pub shared_file: bool,
}

impl AppPoint {
    /// Canonicalize to a valid point: clamp I/O processes to the process
    /// count and requests to the data size, and drop collective on
    /// interfaces that cannot do it ("not all sample parameter value
    /// combinations are valid", §3.3).
    pub fn normalized(mut self) -> Self {
        self.io_procs = self.io_procs.clamp(1, self.nprocs.max(1));
        self.request_size = self.request_size.min(self.data_size);
        if !self.api.supports_collective() {
            self.collective = false;
        }
        self
    }

    /// The canonical bit pattern of this point: the [`Self::normalized`]
    /// form with `-0.0` sizes folded into `0.0`.  Two points that compare
    /// equal after normalization produce identical words, which is what
    /// [`CacheKey`] hashing and sharding are built on.  NaN sizes are not
    /// part of the space and are unsupported as cache keys.
    fn canonical_words(&self) -> [u64; 9] {
        let a = self.normalized();
        [
            a.nprocs as u64,
            a.io_procs as u64,
            a.api as u64,
            a.iterations as u64,
            canon_f64_bits(a.data_size),
            canon_f64_bits(a.request_size),
            a.op as u64,
            a.collective as u64,
            a.shared_file as u64,
        ]
    }

    /// As an IOR benchmark configuration.
    pub fn to_ior(&self) -> IorConfig {
        let a = self.normalized();
        IorConfig {
            nprocs: a.nprocs,
            io_procs: a.io_procs,
            api: a.api,
            iterations: a.iterations,
            data_size: a.data_size,
            request_size: a.request_size,
            op: a.op,
            collective: a.collective,
            shared_file: a.shared_file,
            // The Table 1 space models the dominant sequential HPC pattern
            // (§3.2); random access is the iobench extension.
            access: acic_fsim::Access::Sequential,
        }
    }
}

/// `AppPoint` equality is plain field equality (`f64` `==` on the two size
/// fields); NaN sizes never occur in the space, so the reflexivity `Eq`
/// demands holds for every constructible point.
impl Eq for AppPoint {}

/// Hashing goes through [`AppPoint::canonical_words`], so `-0.0`/`0.0`
/// sizes hash alike and the contract with the derived `PartialEq` holds.
/// Note the hash is *coarser* than `==`: it is computed on the normalized
/// point, which is exactly what result caching wants (see [`CacheKey`]).
impl std::hash::Hash for AppPoint {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.canonical_words().hash(state);
    }
}

/// Fold `-0.0` into `+0.0` so bit-level hashing agrees with `f64` `==`.
fn canon_f64_bits(x: f64) -> u64 {
    if x == 0.0 {
        0
    } else {
        x.to_bits()
    }
}

/// The canonical identity of one recommendation query: the *normalized*
/// application point joined with the objective, the candidate instance
/// type, and the (clamped) result length `k`.  Two queries that can only
/// ever produce the same top-k list map to the same key — the correctness
/// foundation of the serve-layer result cache.
///
/// The key carries its [`CacheKey::stable_hash`], computed once in
/// [`CacheKey::new`]: routing, queue and cache sharding, and the cache's
/// `HashMap` (whose `Hash` writes only that word) all reuse it instead of
/// rehashing the fields.  Equality still compares every field.
#[derive(Debug, Clone, Copy)]
pub struct CacheKey {
    app: AppPoint,
    objective: Objective,
    instance_type: InstanceType,
    k: usize,
    hash: u64,
}

impl PartialEq for CacheKey {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash
            && self.app == other.app
            && self.objective == other.objective
            && self.instance_type == other.instance_type
            && self.k == other.k
    }
}

impl Eq for CacheKey {}

/// Consistent with `==`: equal keys have equal canonical words, hence
/// equal stable hashes.
impl std::hash::Hash for CacheKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl CacheKey {
    /// Canonicalize a query into its cache identity.  The app point is
    /// [`AppPoint::normalized`] and `k` is clamped to ≥ 1, mirroring what
    /// [`crate::Predictor::top_k`] does before answering.
    pub fn new(app: &AppPoint, objective: Objective, instance_type: InstanceType, k: usize) -> Self {
        let app = app.normalized();
        let k = k.max(1);
        Self { app, objective, instance_type, k, hash: fnv_hash(&app, objective, instance_type, k) }
    }

    /// The normalized application point the key was built from.
    pub fn app(&self) -> &AppPoint {
        &self.app
    }

    /// The optimization goal of the query.
    pub fn objective(&self) -> Objective {
        self.objective
    }

    /// The candidate instance type of the query.
    pub fn instance_type(&self) -> InstanceType {
        self.instance_type
    }

    /// The clamped result length.
    pub fn k(&self) -> usize {
        self.k
    }

    /// A process- and run-stable 64-bit hash (FNV-1a over the canonical
    /// words), used to pick queue and cache shards deterministically —
    /// unlike `std` `RandomState`, replaying the same request file shards
    /// identically on every run.
    pub fn stable_hash(&self) -> u64 {
        self.hash
    }

    /// Deterministic shard index in `0..shards`.
    pub fn shard(&self, shards: usize) -> usize {
        debug_assert!(shards > 0);
        (self.stable_hash() % shards.max(1) as u64) as usize
    }

    /// Rendezvous (highest-random-weight) score of this key for the node
    /// identified by `node_salt`: the cluster routing tier picks, for each
    /// key, the member whose weight is largest.  Because each (key, node)
    /// pair scores independently, adding or removing one member only moves
    /// the keys that member wins or owned — the bounded-movement property
    /// consistent-hash routing needs — and the score is a pure function of
    /// the canonical key words, so every process computes the same owner.
    pub fn rendezvous_weight(&self, node_salt: u64) -> u64 {
        rendezvous_mix(self.stable_hash(), node_salt)
    }
}

/// FNV-1a over a key's canonical words, then objective, instance type and
/// `k`, each as eight little-endian bytes.
fn fnv_hash(app: &AppPoint, objective: Objective, instance_type: InstanceType, k: usize) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf29ce484222325;
    const FNV_PRIME: u64 = 0x100000001b3;
    let mut h = FNV_OFFSET;
    let mut eat = |w: u64| {
        for byte in w.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
    };
    for w in app.canonical_words() {
        eat(w);
    }
    eat(objective as u64);
    eat(instance_type as u64);
    eat(k as u64);
    h
}

/// Mix a stable key hash with a per-node salt into a rendezvous weight.
/// FNV-1a output has weak avalanche in its high bits, so the combination
/// is run through a SplitMix64-style finalizer; equal inputs always give
/// equal weights (run- and process-stable, like [`CacheKey::stable_hash`]).
pub fn rendezvous_mix(key_hash: u64, node_salt: u64) -> u64 {
    fn mix(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    mix(key_hash ^ mix(node_salt ^ 0x9E37_79B9_7F4A_7C15))
}

/// A full 15-D point: system configuration + application characteristics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpacePoint {
    /// System half.
    pub system: SystemConfig,
    /// Application half.
    pub app: AppPoint,
}

impl SpacePoint {
    /// The default point: every parameter at its untrained default — the
    /// baseline system and a mid-range MPI-IO writer.
    pub fn default_point() -> Self {
        Self {
            system: SystemConfig::baseline(),
            app: AppPoint {
                nprocs: 64,
                io_procs: 64,
                api: IoApi::MpiIo,
                iterations: 10,
                data_size: mib(16.0),
                request_size: mib(4.0),
                op: IoOp::Write,
                collective: false,
                shared_file: true,
            },
        }
    }

    /// Canonicalize both halves.
    pub fn normalized(self) -> Self {
        Self { system: self.system.normalized(), app: self.app.normalized() }
    }

    /// Is the (normalized) point executable?
    pub fn is_valid(&self) -> bool {
        let p = self.normalized();
        p.system.valid_for(p.app.nprocs) && p.app.to_ior().validate().is_ok()
    }

    /// Size of the full concatenated sample grid, counting invalid
    /// combinations too (the paper's §3.3 footnote: 1,769,472).
    pub fn full_grid_size() -> usize {
        ParamId::ALL.iter().map(|p| p.value_count()).product()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_grid_matches_papers_footnote() {
        assert_eq!(SpacePoint::full_grid_size(), 1_769_472);
    }

    #[test]
    fn paper_ranks_are_a_permutation_of_1_to_15() {
        let mut ranks: Vec<usize> = ParamId::ALL.iter().map(|p| p.paper_rank()).collect();
        ranks.sort_unstable();
        assert_eq!(ranks, (1..=15).collect::<Vec<_>>());
    }

    #[test]
    fn six_system_parameters() {
        assert_eq!(ParamId::ALL.iter().filter(|p| p.is_system()).count(), 6);
    }

    #[test]
    fn candidate_space_has_28_configs_per_instance_type() {
        let c = SystemConfig::candidates(InstanceType::Cc2_8xlarge);
        assert_eq!(c.len(), 28, "2 dev × 2 place × (1 NFS + 3 servers × 2 stripes)");
        // All distinct.
        for i in 0..c.len() {
            for j in (i + 1)..c.len() {
                assert_ne!(c[i], c[j]);
            }
        }
    }

    #[test]
    fn extended_candidates_add_ssd_variants() {
        let base = SystemConfig::candidates(InstanceType::Cc2_8xlarge);
        let ext = SystemConfig::candidates_extended(InstanceType::Cc2_8xlarge);
        assert_eq!(ext.len(), base.len() + 14, "2 placements × (1 NFS + 6 PVFS2)");
        assert!(ext.iter().any(|c| c.device == DeviceKind::Ssd));
        assert!(base.iter().all(|c| c.device != DeviceKind::Ssd));
    }

    #[test]
    fn baseline_matches_papers_description() {
        let b = SystemConfig::baseline();
        assert_eq!(b.fs, FsType::Nfs);
        assert_eq!(b.device, DeviceKind::Ebs);
        assert_eq!(b.io_servers, 1);
        assert_eq!(b.placement, Placement::Dedicated);
        assert_eq!(b.raid().width, 2, "two EBS disks in RAID-0");
        assert_eq!(b.notation(), "nfs.D.EBS");
    }

    #[test]
    fn nfs_normalization_collapses_server_count_and_stripe() {
        let mut c = SystemConfig::baseline();
        c.io_servers = 4;
        c.stripe_size = mib(4.0);
        let n = c.normalized();
        assert_eq!(n.io_servers, 1);
        assert_eq!(n.stripe_size, 0.0);
    }

    #[test]
    fn app_normalization_enforces_validity_rules() {
        let mut p = SpacePoint::default_point();
        p.app.nprocs = 32;
        p.app.io_procs = 256;
        p.app.request_size = mib(128.0);
        p.app.data_size = mib(1.0);
        p.app.api = IoApi::Posix;
        p.app.collective = true;
        let a = p.app.normalized();
        assert_eq!(a.io_procs, 32);
        assert_eq!(a.request_size, mib(1.0));
        assert!(!a.collective);
        assert!(SpacePoint { system: p.system, app: a }.is_valid());
    }

    #[test]
    fn apply_covers_every_parameter_and_index() {
        let mut p = SpacePoint::default_point();
        for param in ParamId::ALL {
            for i in 0..param.value_count() {
                param.apply(i, &mut p);
                let _ = param.value_label(i);
            }
        }
        // After applying every last index the point is still normalizable.
        let _ = p.normalized();
    }

    #[test]
    #[should_panic(expected = "no value #")]
    fn apply_out_of_range_panics() {
        let mut p = SpacePoint::default_point();
        ParamId::FileSystem.apply(2, &mut p);
    }

    #[test]
    fn parttime_at_small_scale_rejects_four_servers() {
        // 32 procs on cc2 = 2 compute instances; 4 part-time servers can't fit.
        let mut c = SystemConfig::baseline();
        c.fs = FsType::Pvfs2;
        c.stripe_size = mib(4.0);
        c.io_servers = 4;
        c.placement = Placement::PartTime;
        assert!(!c.valid_for(32));
        assert!(c.valid_for(64));
        c.placement = Placement::Dedicated;
        assert!(c.valid_for(32));
    }

    #[test]
    fn notation_matches_figure1_labels() {
        let mut c = SystemConfig::baseline();
        c.device = DeviceKind::Ephemeral;
        assert_eq!(c.notation(), "nfs.D.eph");
        c.fs = FsType::Pvfs2;
        c.io_servers = 4;
        c.placement = Placement::PartTime;
        c.stripe_size = mib(4.0);
        assert_eq!(c.notation(), "pvfs.4.P.eph.4MB");
    }

    #[test]
    fn notation_round_trips_for_all_candidates() {
        for c in SystemConfig::candidates_extended(InstanceType::Cc2_8xlarge) {
            let back = SystemConfig::parse_notation(&c.notation())
                .unwrap_or_else(|e| panic!("{}: {e}", c.notation()));
            assert_eq!(back, c, "{}", c.notation());
        }
    }

    #[test]
    fn parse_notation_rejects_garbage() {
        assert!(SystemConfig::parse_notation("lustre.D.eph").is_err());
        assert!(SystemConfig::parse_notation("nfs.X.eph").is_err());
        assert!(SystemConfig::parse_notation("pvfs.4.D.eph").is_err(), "missing stripe");
        assert!(SystemConfig::parse_notation("pvfs.q.D.eph.4MB").is_err());
        assert!(SystemConfig::parse_notation("pvfs.4.D.eph.4TB").is_err());
        assert!(SystemConfig::parse_notation("").is_err());
    }

    #[test]
    fn to_io_system_sizes_cluster_from_nprocs() {
        let sys = SystemConfig::baseline().to_io_system(256);
        assert_eq!(sys.cluster.compute_instances, 16);
        assert_eq!(sys.cluster.total_instances(), 17, "plus one dedicated server");
        assert!(sys.validate().is_ok());
    }

    #[test]
    fn cache_key_collides_for_differently_constructed_equal_points() {
        // Point A carries out-of-range raw fields that normalization clamps;
        // point B is constructed already-canonical.  Same query identity.
        let mut a = SpacePoint::default_point().app;
        a.nprocs = 64;
        a.io_procs = 256; // clamps to 64
        a.api = IoApi::Posix;
        a.collective = true; // POSIX cannot do collective: drops to false
        a.data_size = mib(4.0);
        a.request_size = mib(16.0); // clamps to data size
        let mut b = SpacePoint::default_point().app;
        b.nprocs = 64;
        b.io_procs = 64;
        b.api = IoApi::Posix;
        b.collective = false;
        b.data_size = mib(4.0);
        b.request_size = mib(4.0);
        let goal = Objective::Performance;
        let it = InstanceType::Cc2_8xlarge;
        let ka = CacheKey::new(&a, goal, it, 3);
        let kb = CacheKey::new(&b, goal, it, 3);
        assert_eq!(ka, kb);
        assert_eq!(ka.stable_hash(), kb.stable_hash());
        assert_eq!(ka.shard(8), kb.shard(8));
        // k is clamped like Predictor::top_k clamps it.
        assert_eq!(CacheKey::new(&a, goal, it, 0), CacheKey::new(&b, goal, it, 1));
        // A std HashMap agrees (Hash/Eq contract).
        let mut m = std::collections::HashMap::new();
        m.insert(ka, 1);
        assert_eq!(m.get(&kb), Some(&1));
    }

    #[test]
    fn cache_key_separates_perturbed_queries() {
        let app = SpacePoint::default_point().app;
        let goal = Objective::Performance;
        let it = InstanceType::Cc2_8xlarge;
        let base = CacheKey::new(&app, goal, it, 3);
        let mut bumped = app;
        bumped.data_size += 1.0; // one byte of data size apart
        for other in [
            CacheKey::new(&bumped, goal, it, 3),
            CacheKey::new(&app, Objective::Cost, it, 3),
            CacheKey::new(&app, goal, InstanceType::Cc1_4xlarge, 3),
            CacheKey::new(&app, goal, it, 4),
        ] {
            assert_ne!(base, other);
            assert_ne!(base.stable_hash(), other.stable_hash());
        }
    }

    #[test]
    fn stable_hashes_are_pinned_to_their_literal_values() {
        // Routing, sharding and replay files depend on these exact words:
        // a change to the key's hash must show up here, not as silently
        // reshuffled shards.
        let d = SpacePoint::default_point().app;
        let mut big = d;
        big.nprocs = 256;
        big.io_procs = 256;
        big.data_size = mib(512.0);
        big.request_size = mib(4.0);
        let mut posix = d;
        posix.nprocs = 64;
        posix.io_procs = 256;
        posix.api = IoApi::Posix;
        posix.collective = true;
        posix.data_size = mib(4.0);
        posix.request_size = mib(16.0);
        let (perf, cc2) = (Objective::Performance, InstanceType::Cc2_8xlarge);
        for (key, hash, shard, weight) in [
            (CacheKey::new(&d, perf, cc2, 3), 0xa110_2643_1e05_128c, 4, 0x3dc7_64e6_41d1_f058),
            (CacheKey::new(&big, Objective::Cost, cc2, 28), 0x5001_9f5b_fd9c_cbe2, 2, 0x11a5_a247_ec1b_6d4e),
            (CacheKey::new(&d, perf, InstanceType::Cc1_4xlarge, 1), 0xcdfd_2c9f_36ad_22cf, 7, 0x1bd2_812f_45b7_2814),
            (CacheKey::new(&posix, perf, cc2, 0), 0xff36_63b1_fa23_5baf, 7, 0xf117_d4b8_04b1_f1f8),
        ] {
            assert_eq!(key.stable_hash(), hash, "{key:?}");
            assert_eq!(key.shard(8), shard, "{key:?}");
            assert_eq!(key.rendezvous_weight(7), weight, "{key:?}");
        }
    }

    #[test]
    fn cache_key_std_hash_is_its_stable_hash() {
        use std::hash::{BuildHasher, BuildHasherDefault, Hasher};
        // `Hash` writes exactly the stored word, nothing else.
        let key = CacheKey::new(&SpacePoint::default_point().app, Objective::Cost, InstanceType::Cc2_8xlarge, 5);
        let build = BuildHasherDefault::<std::collections::hash_map::DefaultHasher>::default();
        let mut expected = build.build_hasher();
        expected.write_u64(key.stable_hash());
        assert_eq!(build.hash_one(key), expected.finish());
    }

    #[test]
    fn app_point_hash_is_consistent_with_equality() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let hash_of = |p: &AppPoint| {
            let mut h = DefaultHasher::new();
            p.hash(&mut h);
            h.finish()
        };
        let a = SpacePoint::default_point().app;
        let b = a;
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
        // -0.0 == 0.0 must hash alike (canonical bits fold the sign).
        let mut z1 = a;
        z1.data_size = 0.0;
        let mut z2 = a;
        z2.data_size = -0.0;
        assert_eq!(z1, z2);
        assert_eq!(hash_of(&z1), hash_of(&z2));
    }

    #[test]
    fn stable_hash_spreads_profiled_apps_across_shards() {
        // The four evaluation apps at two scales should not all collapse
        // into one shard of a small pool.
        let mut shards = std::collections::BTreeSet::new();
        for &(nprocs, k) in &[(32usize, 1usize), (64, 3), (128, 5), (256, 8)] {
            let mut app = SpacePoint::default_point().app;
            app.nprocs = nprocs;
            app.io_procs = nprocs;
            for goal in Objective::ALL {
                shards.insert(CacheKey::new(&app, goal, InstanceType::Cc2_8xlarge, k).shard(8));
            }
        }
        assert!(shards.len() >= 2, "degenerate sharding: {shards:?}");
    }

    #[test]
    fn rendezvous_weights_are_stable_and_salt_sensitive() {
        let app = SpacePoint::default_point().app;
        let key = CacheKey::new(&app, Objective::Performance, InstanceType::Cc2_8xlarge, 3);
        // Pure function of (key, salt): recomputation never wobbles.
        assert_eq!(key.rendezvous_weight(7), key.rendezvous_weight(7));
        assert_eq!(key.rendezvous_weight(7), rendezvous_mix(key.stable_hash(), 7));
        // Different salts must decorrelate, or every key would elect the
        // same ring member.
        let salts: std::collections::BTreeSet<u64> =
            (0..16u64).map(|s| key.rendezvous_weight(s)).collect();
        assert_eq!(salts.len(), 16, "salt collisions in rendezvous weights");
        // And canonically-equal keys score identically under every salt.
        let mut twisted = app;
        twisted.io_procs = twisted.nprocs * 2; // normalizes back down
        let other = CacheKey::new(&twisted, Objective::Performance, InstanceType::Cc2_8xlarge, 3);
        for s in 0..8 {
            assert_eq!(key.rendezvous_weight(s), other.rendezvous_weight(s));
        }
    }

    #[test]
    fn value_labels_render_table1_entries() {
        assert_eq!(ParamId::DataSize.value_label(0), "1MB");
        assert_eq!(ParamId::DataSize.value_label(5), "512MB");
        assert_eq!(ParamId::RequestSize.value_label(0), "256KB");
        assert_eq!(ParamId::StripeSize.value_label(0), "64KB");
        assert_eq!(ParamId::Collective.value_label(1), "yes");
        assert_eq!(ParamId::FileSharing.value_label(0), "share");
    }
}
