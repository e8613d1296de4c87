//! The cached candidate matrix: the single enumeration site for the
//! system-configuration candidate space, pre-encoded for batched scoring.
//!
//! "ACIC joins the application's I/O characteristics with all candidate
//! I/O system configurations considered, as the input to the CART model
//! ... a full exploration of system configuration space is affordable
//! here" (paper §4.2) — which makes candidate scoring the hot path of the
//! whole serving stack.  Before this module, every recommendation request
//! re-enumerated the candidates into a fresh `Vec`, re-validated each one
//! by materializing an `IoSystem`, re-encoded each system half, and
//! allocated a notation `String` per candidate per query.  None of that
//! depends on the query: the candidate set per instance type is a small
//! closed universe.
//!
//! [`CandidateMatrix`] builds everything once per `(instance_type,
//! extended)` on first use and caches it for the process lifetime:
//!
//! * the configurations themselves, in enumeration order (the order every
//!   consumer observes — `SystemConfig::candidates` now delegates here, so
//!   there is exactly one place that knows how to enumerate);
//! * the encoded system-half feature rows ([`encode_system_half`] applied
//!   once per candidate), ready to be prefixed onto a query's app half;
//! * the notation strings (the ranking tie-break keys), so queries never
//!   format them;
//! * per-`nprocs` deployability masks ([`SystemConfig::valid_for`]
//!   evaluated once per distinct scale, then served as a shared slice) —
//!   validity is applied as a mask over the fixed enumeration, not a
//!   re-enumeration.

use crate::features::{encode_system_half, N_SYSTEM_FEATURES};
use crate::space::SystemConfig;
use acic_cloudsim::cluster::Placement;
use acic_cloudsim::device::DeviceKind;
use acic_cloudsim::instance::InstanceType;
use acic_cloudsim::units::{kib, mib};
use acic_fsim::FsType;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

/// The per-instance-type candidate universe, precomputed for scoring.
#[derive(Debug)]
pub struct CandidateMatrix {
    configs: Vec<SystemConfig>,
    notations: Vec<String>,
    /// `notation_ranks[i]` = rank of candidate `i`'s notation in ascending
    /// lexicographic order.  Notations are unique, so comparing ranks is
    /// exactly comparing the strings — the ranking tie-break becomes an
    /// integer compare instead of a byte-wise one on the hot path.
    notation_ranks: Vec<u32>,
    system_rows: Vec<[f64; N_SYSTEM_FEATURES]>,
    /// Deployability masks keyed by `nprocs`, built on demand.  The space
    /// samples four scales (Table 1), so this stays tiny.
    validity: Mutex<BTreeMap<usize, Arc<[bool]>>>,
    /// [`Self::validity_mask`] packed into `u64` bit sets for the
    /// grid-routing scorer, same keying.
    validity_bits: Mutex<BTreeMap<usize, u64>>,
}

impl CandidateMatrix {
    /// The cached matrix over the Table 1 candidate set (28 candidates).
    pub fn of(instance_type: InstanceType) -> &'static CandidateMatrix {
        static BASE: [OnceLock<CandidateMatrix>; 2] = [OnceLock::new(), OnceLock::new()];
        BASE[type_index(instance_type)].get_or_init(|| CandidateMatrix::build(instance_type, false))
    }

    /// The cached matrix over the extended candidate set including the SSD
    /// device option (42 candidates; see `SystemConfig::candidates_extended`).
    pub fn of_extended(instance_type: InstanceType) -> &'static CandidateMatrix {
        static EXT: [OnceLock<CandidateMatrix>; 2] = [OnceLock::new(), OnceLock::new()];
        EXT[type_index(instance_type)].get_or_init(|| CandidateMatrix::build(instance_type, true))
    }

    fn build(instance_type: InstanceType, extended: bool) -> CandidateMatrix {
        let configs = enumerate(instance_type, extended);
        let notations: Vec<String> = configs.iter().map(SystemConfig::notation).collect();
        let mut by_notation: Vec<u32> = (0..notations.len() as u32).collect();
        by_notation.sort_by(|&a, &b| notations[a as usize].cmp(&notations[b as usize]));
        let mut notation_ranks = vec![0u32; notations.len()];
        for (rank, &i) in by_notation.iter().enumerate() {
            notation_ranks[i as usize] = rank as u32;
        }
        let system_rows: Vec<[f64; N_SYSTEM_FEATURES]> =
            configs.iter().map(encode_system_half).collect();
        assert!(configs.len() <= 64, "candidate universe must fit a u64 validity word");
        CandidateMatrix {
            configs,
            notations,
            notation_ranks,
            system_rows,
            validity: Mutex::new(BTreeMap::new()),
            validity_bits: Mutex::new(BTreeMap::new()),
        }
    }

    /// The candidate configurations, in enumeration order.
    pub fn configs(&self) -> &[SystemConfig] {
        &self.configs
    }

    /// The cached notation (ranking tie-break key) of candidate `i`.
    pub fn notation(&self, i: usize) -> &str {
        &self.notations[i]
    }

    /// The lexicographic rank of candidate `i`'s notation: `rank(a) <
    /// rank(b) ⇔ notation(a) < notation(b)` (notations are unique), so
    /// ranking tie-breaks compare these integers instead of the strings.
    pub fn notation_rank(&self, i: usize) -> u32 {
        self.notation_ranks[i]
    }

    /// The pre-encoded system-half feature rows, aligned with
    /// [`Self::configs`].
    pub fn system_rows(&self) -> &[[f64; N_SYSTEM_FEATURES]] {
        &self.system_rows
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.configs.len()
    }

    /// Whether the universe is empty (it never is; for clippy symmetry).
    pub fn is_empty(&self) -> bool {
        self.configs.is_empty()
    }

    /// The deployability mask for a job of `nprocs` processes, aligned with
    /// [`Self::configs`]: `mask[i]` ⇔ `configs()[i].valid_for(nprocs)`.
    /// Computed once per distinct scale and shared.
    pub fn validity_mask(&self, nprocs: usize) -> Arc<[bool]> {
        let mut cache = self.validity.lock().expect("validity cache poisoned");
        cache
            .entry(nprocs)
            .or_insert_with(|| self.configs.iter().map(|c| c.valid_for(nprocs)).collect())
            .clone()
    }

    /// [`Self::validity_mask`] as a `u64` bit set (`bit i` ⇔
    /// `configs()[i].valid_for(nprocs)`) — the form the grid-routing
    /// scorer partitions with.  Universes are ≤ 64 wide by construction
    /// (asserted at build).
    pub fn validity_bits(&self, nprocs: usize) -> u64 {
        let mut cache = self.validity_bits.lock().expect("validity bits cache poisoned");
        *cache.entry(nprocs).or_insert_with(|| {
            self.configs
                .iter()
                .enumerate()
                .fold(0u64, |bits, (i, c)| bits | (u64::from(c.valid_for(nprocs)) << i))
        })
    }

    /// The candidates deployable at `nprocs`, in enumeration order (the
    /// masked view as an owned list, for callers that need configs only).
    pub fn deployable(&self, nprocs: usize) -> Vec<SystemConfig> {
        let mask = self.validity_mask(nprocs);
        self.configs
            .iter()
            .zip(mask.iter())
            .filter_map(|(c, &ok)| ok.then_some(*c))
            .collect()
    }
}

fn type_index(instance_type: InstanceType) -> usize {
    match instance_type {
        InstanceType::Cc1_4xlarge => 0,
        InstanceType::Cc2_8xlarge => 1,
    }
}

/// The one enumeration site: device × placement × (NFS + PVFS2 × servers ×
/// stripe) on a fixed instance type, with the SSD device appended for the
/// extended space.  Everything else — `SystemConfig::candidates`, the
/// matrices, the sweep — derives its candidate list from here.
fn enumerate(instance_type: InstanceType, extended: bool) -> Vec<SystemConfig> {
    let mut out = Vec::new();
    let push_device = |out: &mut Vec<SystemConfig>, device: DeviceKind| {
        for placement in Placement::ALL {
            out.push(SystemConfig {
                device,
                fs: FsType::Nfs,
                instance_type,
                io_servers: 1,
                placement,
                stripe_size: 0.0,
            });
            for io_servers in [1usize, 2, 4] {
                for stripe_size in [kib(64.0), mib(4.0)] {
                    out.push(SystemConfig {
                        device,
                        fs: FsType::Pvfs2,
                        instance_type,
                        io_servers,
                        placement,
                        stripe_size,
                    });
                }
            }
        }
    };
    for device in DeviceKind::TABLE1 {
        push_device(&mut out, device);
    }
    if extended {
        push_device(&mut out, DeviceKind::Ssd);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_matches_public_enumeration() {
        for it in [InstanceType::Cc1_4xlarge, InstanceType::Cc2_8xlarge] {
            let m = CandidateMatrix::of(it);
            assert_eq!(m.configs(), SystemConfig::candidates(it).as_slice());
            assert_eq!(m.len(), 28);
            let e = CandidateMatrix::of_extended(it);
            assert_eq!(e.configs(), SystemConfig::candidates_extended(it).as_slice());
            assert_eq!(e.len(), 42);
        }
    }

    #[test]
    fn cached_rows_and_notations_match_fresh_encodings() {
        let m = CandidateMatrix::of(InstanceType::Cc2_8xlarge);
        for (i, c) in m.configs().iter().enumerate() {
            assert_eq!(m.system_rows()[i], encode_system_half(c));
            assert_eq!(m.notation(i), c.notation());
        }
    }

    #[test]
    fn notation_ranks_order_exactly_like_the_strings() {
        for m in [
            CandidateMatrix::of(InstanceType::Cc2_8xlarge),
            CandidateMatrix::of_extended(InstanceType::Cc1_4xlarge),
        ] {
            for a in 0..m.len() {
                for b in 0..m.len() {
                    assert_eq!(
                        m.notation_rank(a).cmp(&m.notation_rank(b)),
                        m.notation(a).cmp(m.notation(b)),
                        "{} vs {}",
                        m.notation(a),
                        m.notation(b)
                    );
                }
            }
        }
    }

    #[test]
    fn validity_mask_agrees_with_valid_for_and_is_shared() {
        let m = CandidateMatrix::of(InstanceType::Cc2_8xlarge);
        for nprocs in [32usize, 64, 128, 256] {
            let mask = m.validity_mask(nprocs);
            assert_eq!(mask.len(), m.len());
            for (c, &ok) in m.configs().iter().zip(mask.iter()) {
                assert_eq!(ok, c.valid_for(nprocs), "{} at {nprocs}", c.notation());
            }
            // Second request serves the same shared allocation.
            assert!(Arc::ptr_eq(&mask, &m.validity_mask(nprocs)));
        }
        // 32 procs on cc2 = 2 compute instances: 4 part-time servers drop.
        assert!(m.validity_mask(32).iter().any(|&ok| !ok));
        assert_eq!(m.deployable(32).len(), m.validity_mask(32).iter().filter(|&&ok| ok).count());
    }

    #[test]
    fn validity_bits_pack_the_mask_exactly() {
        for m in [
            CandidateMatrix::of(InstanceType::Cc1_4xlarge),
            CandidateMatrix::of_extended(InstanceType::Cc2_8xlarge),
        ] {
            for nprocs in [16usize, 32, 64, 256] {
                let mask = m.validity_mask(nprocs);
                let bits = m.validity_bits(nprocs);
                for (i, &ok) in mask.iter().enumerate() {
                    assert_eq!(bits >> i & 1 == 1, ok, "bit {i} at {nprocs} procs");
                }
                assert_eq!(bits >> m.len(), 0, "no bits past the universe");
            }
        }
    }

    #[test]
    fn statics_return_the_same_instance() {
        let a = CandidateMatrix::of(InstanceType::Cc2_8xlarge) as *const _;
        let b = CandidateMatrix::of(InstanceType::Cc2_8xlarge) as *const _;
        assert_eq!(a, b, "matrix is built once per instance type");
    }
}
