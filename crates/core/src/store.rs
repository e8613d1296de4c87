//! Durable, append-only training database with log compaction.
//!
//! The paper's training engine accumulates (parameters → relative
//! improvement) pairs in a persistent training database that outlives any
//! single campaign (§4.2: training data is collected once and reused).
//! This module is that database: campaigns *ingest* their observations
//! into a write-ahead log, the log is *compacted* into a MANIFEST that
//! holds the canonical sample set, and `acic publish` turns that set into
//! a [`PublishedSnapshot`] that `acic serve` hot-swaps in.
//!
//! ## On-disk layout (every file in the [`crate::record`] framing)
//!
//! Fields within a line are separated by single tabs.
//!
//! ```text
//! <dir>/MANIFEST          acic-store v3
//!                         samples=<n> hash=<16 hex digits>
//!                         <n> sample lines, canonically sorted
//! <dir>/wal.log           acic-wal v1
//!                         zero or more sample lines, arrival order
//! ```
//!
//! A store that was never compacted has no MANIFEST.
//!
//! A sample line is `s`, then `key`, `campaign`, `seed`, `index`,
//! `attempts` and the 17 point fields, where `key` is the FNV-1a hash of
//! the sample's canonical configuration point (the same bit-exact
//! encoding `CacheKey` hashing and campaign fingerprints use) and the
//! remaining prefix fields are provenance: which campaign measured it,
//! under which root seed, at which plan index, and after how many
//! attempts.
//!
//! Every hash in a MANIFEST or a snapshot header is [`hash_samples`]: a
//! fold of each sample's fields as 64-bit words, not of its text.
//! Version 1 of both files held a hash of the rendered lines, and version
//! 2 of the MANIFEST listed segment files instead of carrying the
//! samples; each is refused by its version line.  The WAL carries no hash
//! and keeps version 1.
//!
//! ## Invariants
//!
//! * **Append-only WAL, torn tails truncated-and-reported.**  Ingest
//!   coalesces fresh sample lines into group commits of whole lines, so a
//!   kill tears at most the final line, which [`Store::open`] truncates
//!   and reports in [`OpenReport::torn_wal_bytes`] (the WAL is a
//!   [`Tail::Torn`] log).  *Complete* garbage lines, or damage to the
//!   MANIFEST, are real corruption and raise [`AcicError::Store`]: the
//!   MANIFEST is written atomically ([`Tail::Reject`]), so no crash can
//!   legitimately produce them.
//! * **Canonicalization is order-independent.**  The canonical sample set
//!   keeps, per configuration key, the minimum sample under a total order
//!   over *all* fields (key, campaign, seed, index, attempts, value bits).
//!   Taking a minimum is associative and commutative, so any arrival
//!   order, any interleaving of compactions, and any kill/resume schedule
//!   converge to a bit-identical MANIFEST.
//! * **Atomic replacement, then the WAL reset.**  Compaction rewrites the
//!   MANIFEST through a hidden temp file plus `rename`, then resets the
//!   WAL, so a crash between the two leaves WAL entries that re-ingest as
//!   exact duplicates.  The MANIFEST holds only content-derived data — no
//!   generation counters — which is what makes equal sample sets produce
//!   byte-equal MANIFESTs.

use crate::commit::CommitConfig;
use crate::error::AcicError;
use crate::journal;
use crate::record::{self, write_atomic, Reader, Tail, Writer};
use crate::resilience::Collection;
use crate::space::SpacePoint;
use crate::training::{for_each_field, point_from_fields, point_key, point_words, push_hex16,
                      push_u64, split_fields, write_point, Fnv64, TrainingDb, TrainingPoint,
                      POINT_LINE_BYTES};
use acic_cart::ModelKind;
use acic_cloudsim::rng::SplitMix64;
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// MANIFEST version line.
pub const STORE_VERSION: &str = "acic-store v3";
/// Write-ahead-log version line.
const WAL_VERSION: &str = "acic-wal v1";
/// Snapshot version line.
pub const SNAPSHOT_VERSION: &str = "acic-snapshot v2";

const MANIFEST_FILE: &str = "MANIFEST";
const WAL_FILE: &str = "wal.log";

/// One observation plus its provenance, as stored durably.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoreSample {
    /// FNV-1a hash of the canonical configuration point (dedup key).
    pub key: u64,
    /// Fingerprint of the campaign that measured it.
    pub campaign: u64,
    /// Root seed of that campaign.
    pub seed: u64,
    /// Index in that campaign's point list.
    pub index: usize,
    /// Runs attempted to produce the observation (>= 1).
    pub attempts: u32,
    /// The observation itself.
    pub point: TrainingPoint,
}

/// The canonical configuration key of an observation: a hash of the same
/// bit-exact point encoding used for campaign fingerprints, independent of
/// the measured improvements.
pub fn sample_key(point: &TrainingPoint) -> u64 {
    point_key(&SpacePoint { system: point.system, app: point.app })
}

/// Capacity reserved per rendered sample line (a grid sample's line is
/// about 140 bytes).
const SAMPLE_LINE_BYTES: usize = POINT_LINE_BYTES + 64;

/// Total order over every sample field; the canonical set keeps the
/// minimum per key, so canonicalization commutes with any ingest order.
type OrderKey = (u64, u64, u64, u64, u32, u64, u64);

fn order_key(s: &StoreSample) -> OrderKey {
    (
        s.key,
        s.campaign,
        s.seed,
        s.index as u64,
        s.attempts,
        s.point.perf_improvement.to_bits(),
        s.point.cost_improvement.to_bits(),
    )
}

impl StoreSample {
    /// Build a sample, deriving its configuration key.
    pub fn new(campaign: u64, seed: u64, index: usize, attempts: u32, point: TrainingPoint) -> Self {
        Self { key: sample_key(&point), campaign, seed, index, attempts, point }
    }

    /// Append the sample line (no newline) — the one writer behind WAL,
    /// MANIFEST, and snapshot lines.
    fn write_line(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(b"s\t");
        push_hex16(out, self.key);
        out.push(b'\t');
        push_hex16(out, self.campaign);
        for v in [self.seed, self.index as u64, u64::from(self.attempts)] {
            out.push(b'\t');
            push_u64(out, v);
        }
        out.push(b'\t');
        write_point(out, &self.point);
    }

    #[cfg(test)]
    fn to_line(self) -> String {
        let mut line = Vec::new();
        self.write_line(&mut line);
        String::from_utf8(line).unwrap()
    }

    fn parse(line: &str, lineno: usize) -> Result<Self, String> {
        let bad = |what: &str| format!("line {lineno}: {what}");
        let Some(f) = split_fields::<{ 6 + 17 }>(line) else {
            return Err(bad("sample line needs 23 tab-separated fields"));
        };
        if f[0] != "s" {
            return Err(bad("unknown line kind"));
        }
        let hex = |s: &str, what: &str| u64::from_str_radix(s, 16).map_err(|_| bad(what));
        let point = point_from_fields(&f[6..]).map_err(bad)?;
        let sample = StoreSample {
            key: hex(f[1], "bad key")?,
            campaign: hex(f[2], "bad campaign")?,
            seed: f[3].parse().map_err(|_| bad("bad seed"))?,
            index: f[4].parse().map_err(|_| bad("bad index"))?,
            attempts: f[5].parse().map_err(|_| bad("bad attempts"))?,
            point,
        };
        if sample.key != sample_key(&point) {
            return Err(bad("key does not match the sample's configuration point"));
        }
        Ok(sample)
    }
}

/// Sort by the total order and keep the minimum sample per configuration
/// key.  Associative: canonicalizing partial batches then the union gives
/// the same result as canonicalizing everything at once.
pub fn canonicalize(mut samples: Vec<StoreSample>) -> Vec<StoreSample> {
    samples.sort_by_key(order_key);
    samples.dedup_by_key(|s| s.key);
    samples
}

/// An index of canonical samples by configuration key: the trainer's
/// lookup-before-measure path ([`crate::training::CollectOptions::lookup`])
/// and the adaptive planners answer already-measured points from this
/// instead of re-simulating them.  Built from a canonical sample set, so
/// lookups are order-independent: whichever ingest order produced the
/// store, the same key maps to the same winning sample.
#[derive(Debug, Clone, Default)]
pub struct SampleLookup {
    by_key: BTreeMap<u64, StoreSample>,
}

impl SampleLookup {
    /// Index `samples` by configuration key (canonicalizing first, so a
    /// non-canonical batch still yields the deterministic winner per key).
    pub fn from_samples(samples: Vec<StoreSample>) -> Self {
        let mut by_key = BTreeMap::new();
        for s in canonicalize(samples) {
            by_key.insert(s.key, s);
        }
        Self { by_key }
    }

    /// Fold another lookup in; where both know a key, the canonical
    /// (minimum [`order_key`]) winner is kept, exactly as if the two
    /// underlying sample sets had been canonicalized together.
    pub fn merge(&mut self, other: SampleLookup) {
        for (key, s) in other.by_key {
            match self.by_key.get(&key) {
                Some(have) if order_key(have) <= order_key(&s) => {}
                _ => {
                    self.by_key.insert(key, s);
                }
            }
        }
    }

    /// The winning sample for a configuration key, if any.
    pub fn get(&self, key: u64) -> Option<&StoreSample> {
        self.by_key.get(&key)
    }

    /// Number of distinct configuration keys indexed.
    pub fn len(&self) -> usize {
        self.by_key.len()
    }

    /// True when nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.by_key.is_empty()
    }
}

/// The content hash of a sample set, the store's generation identity: two
/// stores hold the same canonical data iff their hashes agree.  Each
/// sample's fields are folded as 64-bit words through one
/// rotate-xor-multiply mixer: `key`, `campaign`, `seed`, `index`,
/// `attempts`, then the 17 point fields (codes and counts as
/// integers, floats as IEEE-754 bits with every NaN folded to the one
/// NaN the text reads back).  The sample count is folded last and
/// SplitMix64 finishes the state.  No sample is rendered, yet
/// `hash_samples(parse(render(s))) == hash_samples(s)` for every line the
/// codec writes and reads back.
pub fn hash_samples(samples: &[StoreSample]) -> u64 {
    fn mix(h: u64, word: u64) -> u64 {
        (h.rotate_left(26) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95)
    }
    let mut h = 0;
    for s in samples {
        for word in [s.key, s.campaign, s.seed, s.index as u64, u64::from(s.attempts)] {
            h = mix(h, word);
        }
        for_each_field(&s.point, |field| h = mix(h, field.word()));
    }
    SplitMix64::new(mix(h, samples.len() as u64)).next_u64()
}

/// What [`Store::open`] found and repaired.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpenReport {
    /// Samples loaded from the MANIFEST.
    pub compacted_samples: usize,
    /// Samples replayed from the write-ahead log.
    pub wal_samples: usize,
    /// WAL lines that duplicated already-loaded samples exactly (a crash
    /// between compaction's MANIFEST write and WAL reset leaves these;
    /// they are harmless and vanish at the next compaction).
    pub wal_duplicates: usize,
    /// Bytes of torn WAL tail truncated away (a kill mid-append).
    pub torn_wal_bytes: u64,
}

impl OpenReport {
    /// True when open had to repair anything worth mentioning.
    pub fn repaired(&self) -> bool {
        self.torn_wal_bytes > 0 || self.wal_duplicates > 0
    }
}

/// What one ingest call did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Samples appended to the WAL.
    pub appended: usize,
    /// Samples skipped because an identical sample (same provenance and
    /// values) is already stored — re-ingesting a resumed campaign is
    /// idempotent.
    pub duplicates: usize,
    /// Group commits issued for the appended lines:
    /// `ceil(appended / commit.batch)` write+sync pairs (0 when nothing
    /// was fresh).
    pub batches: usize,
}

/// What one compaction did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactStats {
    /// Canonical samples in the MANIFEST.
    pub samples: usize,
    /// Raw samples dropped by per-key canonicalization.
    pub duplicates_dropped: usize,
    /// False when the WAL held no lines, so nothing was written.
    pub changed: bool,
    /// [`hash_samples`] of the canonical set, which the store now holds
    /// (what [`Store::canonical_hash`] would recompute).
    pub hash: u64,
}

/// The durable training database: a MANIFEST + WAL in a directory.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    samples: Vec<StoreSample>,
    seen: BTreeSet<OrderKey>,
    wal_entries: usize,
    report: OpenReport,
}

impl Store {
    /// Open (or initialize) the store in `dir`, loading the MANIFEST if
    /// there is one, replaying the WAL, truncating a torn tail, and
    /// deleting stale temp files.
    pub fn open(dir: &Path) -> Result<Store, AcicError> {
        std::fs::create_dir_all(dir).map_err(|e| AcicError::io(dir, e))?;
        let mut store = Store {
            dir: dir.to_path_buf(),
            samples: Vec::new(),
            seen: BTreeSet::new(),
            wal_entries: 0,
            report: OpenReport::default(),
        };

        let manifest_path = store.manifest_path();
        if manifest_path.exists() {
            let text = std::fs::read_to_string(&manifest_path)
                .map_err(|e| AcicError::io(&manifest_path, e))?;
            let samples = parse_manifest(&text).map_err(|e| store_err(&manifest_path, e))?;
            store.report.compacted_samples = samples.len();
            store.seen = samples.iter().map(order_key).collect();
            store.samples = samples;
        }

        // Stale temp files: an atomic write that died before its rename.
        let entries = std::fs::read_dir(dir).map_err(|e| AcicError::io(dir, e))?;
        for entry in entries {
            let entry = entry.map_err(|e| AcicError::io(dir, e))?;
            if entry.file_name().to_string_lossy().starts_with(".tmp-") {
                std::fs::remove_file(entry.path()).map_err(|e| AcicError::io(&entry.path(), e))?;
            }
        }

        store.load_wal()?;
        Ok(store)
    }

    fn load_wal(&mut self) -> Result<(), AcicError> {
        let path = self.wal_path();
        let text = if path.exists() {
            std::fs::read_to_string(&path).map_err(|e| AcicError::io(&path, e))?
        } else {
            String::new()
        };
        let mut wal = Reader::new(&text, Tail::Torn);
        match wal.version(WAL_VERSION) {
            // The only way to tear (or miss) the header is dying during
            // the WAL's first creation, before any sample was
            // acknowledged: reset.
            Err(e) if e.torn => {
                self.report.torn_wal_bytes += text.len() as u64;
                return reset_wal(&path);
            }
            header => header.map_err(|e| store_err(&path, e))?,
        }
        for record in &mut wal {
            let (lineno, line) = record.map_err(|e| store_err(&path, e))?;
            let sample = StoreSample::parse(line, lineno).map_err(|e| store_err(&path, e))?;
            self.wal_entries += 1;
            if self.seen.insert(order_key(&sample)) {
                self.samples.push(sample);
                self.report.wal_samples += 1;
            } else {
                self.report.wal_duplicates += 1;
            }
        }
        if wal.torn_bytes() > 0 {
            // Killed mid-append: cut the unterminated line off.
            self.report.torn_wal_bytes += wal.torn_bytes();
            let file = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .map_err(|e| AcicError::io(&path, e))?;
            file.set_len(wal.valid_bytes()).map_err(|e| AcicError::io(&path, e))?;
        }
        Ok(())
    }

    /// Directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Raw (pre-canonicalization) samples currently loaded.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when the store holds no samples at all.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// What open found and repaired.
    pub fn open_report(&self) -> &OpenReport {
        &self.report
    }

    /// The canonical sample set: one winner per configuration key.
    pub fn canonical(&self) -> Vec<StoreSample> {
        canonicalize(self.samples.clone())
    }

    /// Generation identity of the canonical sample set.
    pub fn canonical_hash(&self) -> u64 {
        hash_samples(&self.canonical())
    }

    /// Index the canonical sample set by configuration key for
    /// lookup-before-measure (see [`SampleLookup`]).
    pub fn lookup_index(&self) -> SampleLookup {
        SampleLookup::from_samples(self.samples.clone())
    }

    /// Materialize the canonical set as a training database.  Collection
    /// time/cost accounting stays with the campaigns that spent it; the
    /// store carries observations and provenance only.
    pub fn to_training_db(&self) -> TrainingDb {
        TrainingDb {
            points: self.canonical().into_iter().map(|s| s.point).collect(),
            collect_secs: 0.0,
            collect_cost_usd: 0.0,
        }
    }

    /// Append samples to the WAL with the default commit configuration.
    /// See [`Self::ingest_with`].
    pub fn ingest(&mut self, new: &[StoreSample]) -> Result<IngestStats, AcicError> {
        self.ingest_with(new, CommitConfig::default())
    }

    /// Append samples to the WAL, skipping exact duplicates of anything
    /// already stored (so re-ingesting a resumed campaign is idempotent).
    /// Fresh lines are coalesced into group commits: up to `commit.batch`
    /// whole lines go down in a single `write_all` (followed by one
    /// `sync_data` when `commit.sync`), so a kill still tears at most the
    /// final line while the durability cost is amortized across the
    /// batch.  WAL bytes are identical at every batch size.
    ///
    /// A sample with a NaN configuration size is refused before any line
    /// is written: NaN sizes are not part of the space, and the text has
    /// one NaN while the key covers the size's bits, so such a line could
    /// fail its key check on the next open.
    pub fn ingest_with(
        &mut self,
        new: &[StoreSample],
        commit: CommitConfig,
    ) -> Result<IngestStats, AcicError> {
        fn flush(file: &mut std::fs::File, path: &Path, buf: &[u8], sync: bool) -> Result<(), AcicError> {
            file.write_all(buf).map_err(|e| AcicError::io(path, e))?;
            if sync {
                file.sync_data().map_err(|e| AcicError::io(path, e))?;
            }
            Ok(())
        }
        if let Some(s) = new.iter().find(|s| {
            let (sys, app) = (&s.point.system, &s.point.app);
            [sys.stripe_size, app.data_size, app.request_size].iter().any(|x| x.is_nan())
        }) {
            return Err(AcicError::Invalid(format!(
                "sample {} of campaign {:016x} has a NaN configuration size",
                s.index, s.campaign
            )));
        }
        let mut stats = IngestStats::default();
        let path = self.wal_path();
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .map_err(|e| AcicError::io(&path, e))?;
        let batch = commit.batch();
        let mut buf = Vec::new();
        let mut staged = 0usize;
        for s in new {
            let k = order_key(s);
            if self.seen.contains(&k) {
                stats.duplicates += 1;
                continue;
            }
            record::push(&mut buf, |out| s.write_line(out));
            self.seen.insert(k);
            self.samples.push(*s);
            self.wal_entries += 1;
            stats.appended += 1;
            staged += 1;
            if staged == batch {
                flush(&mut file, &path, &buf, commit.sync)?;
                stats.batches += 1;
                buf.clear();
                staged = 0;
            }
        }
        if staged > 0 {
            flush(&mut file, &path, &buf, commit.sync)?;
            stats.batches += 1;
        }
        Ok(stats)
    }

    /// Ingest a finished collection campaign: observations zipped with the
    /// report's per-point provenance.
    pub fn ingest_collection(
        &mut self,
        id: &journal::CampaignId,
        collection: &Collection,
    ) -> Result<IngestStats, AcicError> {
        self.ingest(&samples_from_collection(id, collection)?)
    }

    /// [`Self::ingest_collection`] with an explicit commit configuration,
    /// so a campaign journaled at a non-default width can ingest at the
    /// same width.
    pub fn ingest_collection_with(
        &mut self,
        id: &journal::CampaignId,
        collection: &Collection,
        commit: CommitConfig,
    ) -> Result<IngestStats, AcicError> {
        self.ingest_with(&samples_from_collection(id, collection)?, commit)
    }

    /// Fold the MANIFEST and the WAL into a new MANIFEST holding the
    /// canonical set, then reset the WAL.  Dying between the two steps
    /// leaves WAL entries that replay as exact duplicates.  A store whose
    /// WAL holds no lines is already compacted: nothing is written.
    pub fn compact(&mut self) -> Result<CompactStats, AcicError> {
        let canonical = canonicalize(self.samples.clone());
        let hash = hash_samples(&canonical);
        let stats = CompactStats {
            samples: canonical.len(),
            duplicates_dropped: self.samples.len() - canonical.len(),
            changed: self.wal_entries > 0,
            hash,
        };
        if !stats.changed {
            return Ok(stats);
        }

        write_atomic(&self.manifest_path(), &render_manifest(&canonical, hash))?;
        reset_wal(&self.wal_path())?;

        self.seen = canonical.iter().map(order_key).collect();
        self.samples = canonical;
        self.wal_entries = 0;
        Ok(stats)
    }

    fn manifest_path(&self) -> PathBuf {
        self.dir.join(MANIFEST_FILE)
    }

    fn wal_path(&self) -> PathBuf {
        self.dir.join(WAL_FILE)
    }
}

/// Turn a finished collection into store samples: the report's per-point
/// provenance log is exactly parallel to the collected observations.
pub fn samples_from_collection(
    id: &journal::CampaignId,
    collection: &Collection,
) -> Result<Vec<StoreSample>, AcicError> {
    let log = &collection.report.point_log;
    if log.len() != collection.db.points.len() {
        return Err(AcicError::Invalid(format!(
            "collection provenance log has {} entries for {} observations",
            log.len(),
            collection.db.points.len()
        )));
    }
    Ok(log
        .iter()
        .zip(&collection.db.points)
        .map(|(p, tp)| StoreSample::new(id.fingerprint, id.seed, p.index, p.attempts, *tp))
        .collect())
}

fn store_err(path: &Path, reason: impl std::fmt::Display) -> AcicError {
    AcicError::Store { path: path.display().to_string(), reason: reason.to_string() }
}

/// Replace the WAL with its bare version line.
fn reset_wal(path: &Path) -> Result<(), AcicError> {
    write_atomic(path, &Writer::new(WAL_VERSION, 16).finish())
}

/// Render the MANIFEST of a canonical set whose [`hash_samples`] is `hash`.
fn render_manifest(samples: &[StoreSample], hash: u64) -> String {
    let file = Writer::new(STORE_VERSION, 64 + samples.len() * SAMPLE_LINE_BYTES)
        .summary("", &[("samples", &samples.len()), ("hash", &format!("{hash:016x}"))]);
    sample_file(file, samples)
}

/// Parse the MANIFEST, checking its samples against the count and content
/// hash its summary declares.
fn parse_manifest(text: &str) -> Result<Vec<StoreSample>, String> {
    let mut file = Reader::new(text, Tail::Reject);
    file.version(STORE_VERSION)?;
    let [count, hash] = file.summary("", ["samples", "hash"])?;
    let count = count.parse().map_err(|_| "bad samples count")?;
    let hash = u64::from_str_radix(hash, 16).map_err(|_| "bad hash")?;
    parse_samples(file, count, hash).map_err(|e| {
        format!("MANIFEST {e} (it is written atomically; this is corruption, not a torn write)")
    })
}

/// Finish a MANIFEST or snapshot: one record per sample.
fn sample_file(mut file: Writer, samples: &[StoreSample]) -> String {
    for sample in samples {
        file.record(|out| sample.write_line(out));
    }
    file.finish()
}

/// Parse the sample records of a MANIFEST or snapshot and check them
/// against the count and content hash its header declares.
fn parse_samples(file: Reader<'_>, count: usize, hash: u64) -> Result<Vec<StoreSample>, String> {
    let mut samples = Vec::with_capacity(count.min(1 << 20));
    for record in file {
        let (lineno, line) = record?;
        samples.push(StoreSample::parse(line, lineno)?);
    }
    if samples.len() != count {
        return Err(format!("holds {} samples, header says {count}", samples.len()));
    }
    let actual = hash_samples(&samples);
    if actual != hash {
        return Err(format!("content hash {actual:016x} does not match the declared {hash:016x}"));
    }
    Ok(samples)
}

/// A published model snapshot: the canonical sample set frozen together
/// with the training seed and model kind.  Consumers (`acic serve`,
/// `acic recommend --snapshot`) retrain deterministically from the
/// embedded samples, so equal files mean equal models — `acic publish`
/// skips the rewrite (and the retrain) when hash, seed, and model all
/// match the existing file.
#[derive(Debug, Clone, PartialEq)]
pub struct PublishedSnapshot {
    /// Generation identity: [`hash_samples`] of `samples`.
    pub hash: u64,
    /// Seed the model is trained with.
    pub seed: u64,
    /// Which model kind to fit.
    pub model: ModelKind,
    /// The canonical sample set.
    pub samples: Vec<StoreSample>,
}

impl PublishedSnapshot {
    /// Render as the versioned snapshot text format.
    pub fn render(&self) -> String {
        let (hash, model) = (format!("{:016x}", self.hash), model_code(self.model));
        let samples = self.samples.len();
        let summary: [(&str, &dyn std::fmt::Display); 4] =
            [("hash", &hash), ("samples", &samples), ("seed", &self.seed), ("model", &model)];
        let file = Writer::new(SNAPSHOT_VERSION, 128 + samples * SAMPLE_LINE_BYTES);
        sample_file(file.summary("", &summary), &self.samples)
    }

    /// Parse the [`Self::render`] format, verifying the sample count and
    /// recomputing the content hash (snapshots are written atomically, so
    /// any mismatch is corruption, not a torn write).
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut file = Reader::new(text, Tail::Reject);
        let SnapshotHeader { hash, samples, seed, model } = SnapshotHeader::read(&mut file)?;
        let samples = parse_samples(file, samples, hash).map_err(|e| format!("snapshot {e}"))?;
        Ok(PublishedSnapshot { hash, seed, model, samples })
    }

    /// Read a snapshot file.
    pub fn read(path: &Path) -> Result<Self, AcicError> {
        let text = std::fs::read_to_string(path).map_err(|e| AcicError::io(path, e))?;
        Self::parse(&text).map_err(|e| store_err(path, e))
    }

    /// Read only a snapshot file's two header lines: the identity a
    /// watcher compares, without parsing, keying or hashing the samples.
    /// A header is not verified against the body; [`Self::read`] is.
    pub fn read_header(path: &Path) -> Result<SnapshotHeader, AcicError> {
        use std::io::BufRead;
        let file = std::fs::File::open(path).map_err(|e| AcicError::io(path, e))?;
        let (mut lines, mut head) = (std::io::BufReader::new(file), String::new());
        for _ in 0..2 {
            lines.read_line(&mut head).map_err(|e| AcicError::io(path, e))?;
        }
        SnapshotHeader::read(&mut Reader::new(&head, Tail::Reject)).map_err(|e| store_err(path, e))
    }

    /// The identity this snapshot's header declares.
    pub fn header(&self) -> SnapshotHeader {
        SnapshotHeader {
            hash: self.hash,
            samples: self.samples.len(),
            seed: self.seed,
            model: self.model,
        }
    }

    /// Write atomically (temp file + rename): serving processes watching
    /// the path never observe a half-written snapshot.
    pub fn write(&self, path: &Path) -> Result<(), AcicError> {
        write_atomic(path, &self.render())
    }

    /// Materialize the embedded samples as a training database.
    pub fn to_training_db(&self) -> TrainingDb {
        TrainingDb {
            points: self.samples.iter().map(|s| s.point).collect(),
            collect_secs: 0.0,
            collect_cost_usd: 0.0,
        }
    }

    /// Wrap an in-memory training database as a self-describing snapshot:
    /// the file `acic train --out` writes, and the artifact `serve --trace`
    /// replicates across its nodes.  Sample order is preserved (no
    /// canonicalization), so [`Self::to_training_db`] round-trips to the
    /// exact input db and a predictor refit from the snapshot is
    /// bit-identical to one fit on the original database.
    pub fn from_db(db: &TrainingDb, seed: u64, model: ModelKind) -> Self {
        // Each point's words feed both the campaign fingerprint and its
        // sample key (what `sample_key` computes from them).
        let mut fingerprint = Fnv64::new();
        let keys: Vec<u64> = db
            .points
            .iter()
            .map(|p| {
                let words = point_words(&SpacePoint { system: p.system, app: p.app });
                fingerprint.words(&words);
                let mut key = Fnv64::new();
                key.words(&words);
                key.finish()
            })
            .collect();
        let campaign = fingerprint.finish();
        let samples: Vec<StoreSample> = db
            .points
            .iter()
            .zip(keys)
            .enumerate()
            .map(|(index, (&point, key))| StoreSample {
                key,
                campaign,
                seed,
                index,
                attempts: 1,
                point,
            })
            .collect();
        let hash = hash_samples(&samples);
        PublishedSnapshot { hash, seed, model, samples }
    }

    /// Verify the snapshot's self-description: recompute the content hash
    /// over the carried samples and compare it to the declared one.  This
    /// is the replication handshake — a node receiving a peer's snapshot
    /// proves it holds exactly the sample set the hash names (and can then
    /// refit the model deterministically from `(samples, seed, model)`)
    /// without re-running the training campaign.  `origin` names where the
    /// snapshot came from (a file path or a transport address) for the
    /// error message.
    pub fn verify(&self, origin: &str) -> Result<(), AcicError> {
        let actual = hash_samples(&self.samples);
        if actual != self.hash {
            return Err(AcicError::Store {
                path: origin.to_string(),
                reason: format!(
                    "snapshot content hash {actual:016x} does not match its self-described \
                     {:016x} ({} samples, seed {}, model {})",
                    self.hash,
                    self.samples.len(),
                    self.seed,
                    model_code(self.model)
                ),
            });
        }
        Ok(())
    }
}

/// What a snapshot's version and summary lines declare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotHeader {
    /// Declared [`hash_samples`] of the body.
    pub hash: u64,
    /// Declared sample count.
    pub samples: usize,
    /// Seed the model is trained with.
    pub seed: u64,
    /// Which model kind to fit.
    pub model: ModelKind,
}

impl SnapshotHeader {
    /// Read a snapshot's version line and summary line.
    fn read(file: &mut Reader<'_>) -> Result<Self, String> {
        file.version(SNAPSHOT_VERSION)?;
        let [hash, samples, seed, model] =
            file.summary("", ["hash", "samples", "seed", "model"])?;
        Ok(SnapshotHeader {
            hash: u64::from_str_radix(hash, 16).map_err(|_| "bad hash")?,
            samples: samples.parse().map_err(|_| "bad samples")?,
            seed: seed.parse().map_err(|_| "bad seed")?,
            model: parse_model_code(model)?,
        })
    }
}

/// Stable one-word encoding of a model kind for the snapshot header.
pub fn model_code(kind: ModelKind) -> String {
    match kind {
        ModelKind::Cart => "cart".into(),
        ModelKind::Forest { n_trees } => format!("forest:{n_trees}"),
        ModelKind::Knn { k } => format!("knn:{k}"),
    }
}

/// Parse [`model_code`] output.  A forest of no trees and a k-NN of no
/// neighbours cannot be fitted, so a zero size is refused.
pub fn parse_model_code(code: &str) -> Result<ModelKind, String> {
    let bad = || format!("unknown model code {code:?}");
    let size = |n: &str| n.parse().ok().filter(|&n| n > 0).ok_or_else(bad);
    match code.split_once(':') {
        None if code == "cart" => Ok(ModelKind::Cart),
        Some(("forest", n)) => Ok(ModelKind::Forest { n_trees: size(n)? }),
        Some(("knn", k)) => Ok(ModelKind::Knn { k: size(k)? }),
        _ => Err(bad()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::SpacePoint;
    use crate::training::oracle;
    use proptest::prelude::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let d = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/test-stores")
            .join(name);
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    /// Synthetic observations with distinct configuration keys: vary the
    /// iteration count of the default point.
    fn sample(i: usize, campaign: u64, perf: f64) -> StoreSample {
        let mut p = SpacePoint::default_point();
        p.app.iterations = i + 1;
        let tp = TrainingPoint {
            system: p.system,
            app: p.app,
            perf_improvement: perf,
            cost_improvement: 0.5 + perf / 10.0,
        };
        StoreSample::new(campaign, 42, i, 1, tp)
    }

    #[test]
    fn from_db_round_trips_and_verifies() {
        let points: Vec<TrainingPoint> = (0..5).map(|i| sample(i, 1, i as f64).point).collect();
        let db = TrainingDb { points: points.clone(), collect_secs: 1.0, collect_cost_usd: 2.0 };
        let snap = PublishedSnapshot::from_db(&db, 7, ModelKind::Cart);
        snap.verify("test").expect("freshly built snapshot verifies");
        assert_eq!(snap.hash, hash_samples(&snap.samples));
        // Order preserved: the round-tripped db is the input db, point for
        // point, so a refit from the snapshot sees identical folds.
        assert_eq!(snap.to_training_db().points, points);
        // And the rendered form parses back to the same identity.
        let back = PublishedSnapshot::parse(&snap.render()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn verify_rejects_a_tampered_sample_set() {
        let points: Vec<TrainingPoint> = (0..3).map(|i| sample(i, 1, i as f64).point).collect();
        let db = TrainingDb { points, collect_secs: 0.0, collect_cost_usd: 0.0 };
        let mut snap = PublishedSnapshot::from_db(&db, 7, ModelKind::Cart);
        snap.samples[1].point.perf_improvement += 0.25;
        let err = snap.verify("loopback://n2").unwrap_err();
        match err {
            AcicError::Store { path, reason } => {
                assert_eq!(path, "loopback://n2");
                assert!(reason.contains("does not match"), "{reason}");
            }
            other => panic!("want Store error, got {other:?}"),
        }
    }

    #[test]
    fn sample_lines_round_trip() {
        let s = sample(3, 0xABCD, 1.25);
        let parsed = StoreSample::parse(&s.to_line(), 1).unwrap();
        assert_eq!(s, parsed);
        let line = s.to_line();
        let fields: Vec<&str> = line.split('\t').collect();
        let with = |i: usize, value: &str| {
            let mut f = fields.clone();
            f[i] = value;
            f.join("\t")
        };
        // A corrupted key is rejected, not silently accepted.
        assert!(StoreSample::parse(&with(1, "0000000000000001"), 1).unwrap_err().contains("key"));
        // So is a bad point field (fields 6.. are the point's), naming its
        // line once: a non-numeric field, an unknown device code, and a
        // line one field short.
        assert_eq!(StoreSample::parse(&with(6 + 10, "x"), 3).unwrap_err(), "line 3: bad number");
        assert_eq!(StoreSample::parse(&with(6, "9"), 3).unwrap_err(), "line 3: bad device code");
        let short = fields[..fields.len() - 1].join("\t");
        assert_eq!(
            StoreSample::parse(&short, 3).unwrap_err(),
            "line 3: sample line needs 23 tab-separated fields"
        );
    }

    #[test]
    fn canonicalize_keeps_one_winner_per_key_in_any_order() {
        let a = sample(0, 5, 1.0);
        let b = sample(0, 3, 2.0); // same config key, earlier campaign wins
        let c = sample(1, 5, 1.5);
        assert_eq!(a.key, b.key);
        let x = canonicalize(vec![a, b, c]);
        let y = canonicalize(vec![c, a, b]);
        let z = canonicalize([canonicalize(vec![a, c]), vec![b]].concat());
        assert_eq!(x, y);
        assert_eq!(x, z, "canonicalization must be associative");
        assert_eq!(x.len(), 2);
        let winner = x.iter().find(|s| s.key == a.key).unwrap();
        assert_eq!(winner.campaign, 3, "minimum by total order wins");
        assert_eq!(hash_samples(&x), hash_samples(&y));
    }

    #[test]
    fn ingest_compact_reopen_round_trips_the_compacted_samples() {
        let dir = tmp_dir("roundtrip");
        let batch: Vec<StoreSample> = (0..6).map(|i| sample(i, 7, 1.0 + i as f64)).collect();

        let mut store = Store::open(&dir).unwrap();
        let stats = store.ingest(&batch[..4]).unwrap();
        assert_eq!(stats.appended, 4);
        let cs = store.compact().unwrap();
        assert!(cs.changed);
        assert_eq!(cs.samples, 4);
        assert_eq!(cs.hash, store.canonical_hash());
        let stats = store.ingest(&batch[4..]).unwrap();
        assert_eq!(stats.appended, 2);
        // Re-ingesting everything is idempotent.
        let stats = store.ingest(&batch).unwrap();
        assert_eq!(stats, IngestStats { appended: 0, duplicates: 6, batches: 0 });
        let hash = store.canonical_hash();
        store.compact().unwrap();
        assert_eq!(store.canonical_hash(), hash, "compaction never changes the canonical set");

        let reopened = Store::open(&dir).unwrap();
        assert_eq!(reopened.canonical(), store.canonical());
        assert_eq!(reopened.canonical_hash(), hash);
        assert_eq!(reopened.open_report().compacted_samples, 6);
        assert_eq!(reopened.open_report().wal_samples, 0);

        // A second compact with nothing new is a no-op that touches no
        // file: with the directory gone, any write would fail.
        let mut reopened = reopened;
        std::fs::remove_dir_all(&dir).unwrap();
        let cs = reopened.compact().unwrap();
        assert!(!cs.changed);
        assert_eq!(cs.hash, hash, "a no-op compaction still reports the set's hash");
        assert!(!dir.exists());
    }

    #[test]
    fn manifest_bytes_are_identical_for_any_ingest_order() {
        let batch: Vec<StoreSample> = (0..5).map(|i| sample(i, 9, 2.0 + i as f64)).collect();
        let mut reversed = batch.clone();
        reversed.reverse();

        let d1 = tmp_dir("order-a");
        let mut s1 = Store::open(&d1).unwrap();
        s1.ingest(&batch[..2]).unwrap();
        s1.compact().unwrap();
        s1.ingest(&batch[2..]).unwrap();
        s1.compact().unwrap();

        let d2 = tmp_dir("order-b");
        let mut s2 = Store::open(&d2).unwrap();
        s2.ingest(&reversed).unwrap();
        s2.compact().unwrap();

        let m1 = std::fs::read(d1.join(MANIFEST_FILE)).unwrap();
        let m2 = std::fs::read(d2.join(MANIFEST_FILE)).unwrap();
        assert_eq!(m1, m2, "manifest must be a pure function of the canonical set");
        assert_eq!(s1.canonical_hash(), s2.canonical_hash());
    }

    #[test]
    fn torn_wal_tail_is_truncated_and_reported_not_fatal() {
        let dir = tmp_dir("torn-wal");
        let batch: Vec<StoreSample> = (0..3).map(|i| sample(i, 11, 1.5)).collect();
        let mut store = Store::open(&dir).unwrap();
        store.ingest(&batch).unwrap();
        drop(store);

        let wal = dir.join(WAL_FILE);
        let bytes = std::fs::read(&wal).unwrap();
        // Chop into the middle of the final line.
        std::fs::write(&wal, &bytes[..bytes.len() - 7]).unwrap();

        let mut store = Store::open(&dir).unwrap();
        assert!(store.open_report().torn_wal_bytes > 0);
        assert_eq!(store.len(), 2, "the torn sample is dropped");
        assert_eq!(std::fs::metadata(&wal).unwrap().len(), bytes.len() as u64 - 7 - {
            // the truncated partial line
            let text = String::from_utf8(bytes[..bytes.len() - 7].to_vec()).unwrap();
            text.rsplit('\n').next().unwrap().len() as u64
        });

        // Re-ingesting the same campaign repairs the loss: two exact
        // duplicates absorbed, the torn one re-appended.
        let stats = store.ingest(&batch).unwrap();
        assert_eq!(stats, IngestStats { appended: 1, duplicates: 2, batches: 1 });
        assert_eq!(store.len(), 3);
    }

    #[test]
    fn every_ingested_sample_reads_back_or_is_refused() {
        let dir = tmp_dir("read-back");
        let mut store = Store::open(&dir).unwrap();
        store.ingest(&[sample(0, 37, 1.0)]).unwrap();
        let wal = std::fs::read(dir.join(WAL_FILE)).unwrap();
        // A NaN configuration size of either sign is refused before any
        // line of its batch is written.
        type SetSize = fn(&mut TrainingPoint, f64);
        let sizes: [(&str, SetSize); 3] = [
            ("stripe_size", |p, x| p.system.stripe_size = x),
            ("data_size", |p, x| p.app.data_size = x),
            ("request_size", |p, x| p.app.request_size = x),
        ];
        for (name, set) in sizes {
            for nan in [f64::NAN, -f64::NAN] {
                let mut point = sample(2, 37, 1.0).point;
                set(&mut point, nan);
                let batch = [sample(1, 37, 1.0), StoreSample::new(37, 42, 2, 1, point)];
                match store.ingest(&batch) {
                    Err(AcicError::Invalid(reason)) => {
                        assert!(reason.contains("NaN configuration size"), "{name}: {reason}")
                    }
                    other => panic!("{name} = {nan:?}: want Invalid, got {other:?}"),
                }
                assert_eq!(std::fs::read(dir.join(WAL_FILE)).unwrap(), wal, "{name}");
            }
        }
        assert_eq!(store.len(), 1);
        // Counts an `f64` cannot hold exactly read back as themselves,
        // from the WAL and from the MANIFEST.
        type SetCount = fn(&mut TrainingPoint, usize);
        let counts: [SetCount; 3] =
            [|p, v| p.system.io_servers = v, |p, v| p.app.nprocs = v, |p, v| p.app.iterations = v];
        let batch: Vec<StoreSample> = counts
            .iter()
            .enumerate()
            .map(|(i, set)| {
                let mut point = sample(10 + i, 37, 1.0).point;
                set(&mut point, (1 << 53) + 1);
                StoreSample::new(37, 42, 10 + i, 1, point)
            })
            .collect();
        store.ingest(&batch).unwrap();
        assert_eq!(Store::open(&dir).unwrap().samples, store.samples);
        store.compact().unwrap();
        let reopened = Store::open(&dir).unwrap();
        assert_eq!(reopened.open_report().compacted_samples, 4);
        assert_eq!(reopened.samples, store.samples);
    }

    #[test]
    fn stale_tmps_are_cleaned_on_open() {
        let dir = tmp_dir("stale-tmps");
        let mut store = Store::open(&dir).unwrap();
        store.ingest(&[sample(0, 13, 1.0)]).unwrap();
        store.compact().unwrap();
        std::fs::write(dir.join(".tmp-MANIFEST"), "half written").unwrap();
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.len(), 1);
        assert!(!dir.join(".tmp-MANIFEST").exists());
    }

    #[test]
    fn wal_entries_surviving_a_crashed_compaction_replay_as_duplicates() {
        // Simulate dying between the MANIFEST write and the WAL reset: the
        // WAL still holds lines that are now also in the MANIFEST.
        let dir = tmp_dir("crashed-compact");
        let batch: Vec<StoreSample> = (0..3).map(|i| sample(i, 17, 1.1)).collect();
        let mut store = Store::open(&dir).unwrap();
        store.ingest(&batch).unwrap();
        let wal_before = std::fs::read(dir.join(WAL_FILE)).unwrap();
        store.compact().unwrap();
        std::fs::write(dir.join(WAL_FILE), &wal_before).unwrap(); // "crash": WAL reset undone

        let mut store = Store::open(&dir).unwrap();
        assert_eq!(store.open_report().wal_duplicates, 3);
        assert_eq!(store.len(), 3, "duplicates are absorbed, not double-counted");
        let hash = store.canonical_hash();
        let cs = store.compact().unwrap();
        assert!(cs.changed, "a dirty WAL forces a (content-identical) rewrite");
        assert_eq!(store.canonical_hash(), hash);
    }

    #[test]
    fn manifest_corruption_is_a_typed_store_error() {
        let dir = tmp_dir("manifest-corrupt");
        let mut store = Store::open(&dir).unwrap();
        store.ingest(&[sample(0, 19, 1.0), sample(1, 19, 2.0)]).unwrap();
        store.compact().unwrap();
        drop(store);
        let path = dir.join(MANIFEST_FILE);
        let text = std::fs::read_to_string(&path).unwrap();
        let header_len = text.len() - body(&text).len();
        let corrupt = |manifest: String, want: &str| {
            std::fs::write(&path, manifest).unwrap();
            match Store::open(&dir) {
                Err(AcicError::Store { path: p, reason }) => {
                    assert!(p.ends_with(MANIFEST_FILE), "{p}");
                    assert!(reason.starts_with("MANIFEST ") && reason.contains(want), "{reason}");
                }
                other => panic!("expected Store error, got {other:?}"),
            }
        };
        // A changed digit in the body, its headers intact, and a body cut
        // at a line boundary.
        corrupt(format!("{}{}", &text[..header_len], body(&text).replace('1', "2")), "line 3");
        let cut = &text[..text.trim_end().rfind('\n').unwrap() + 1];
        corrupt(cut.to_string(), "holds 1 samples, header says 2");
    }

    #[test]
    fn snapshot_round_trips_and_rejects_corruption() {
        let dir = tmp_dir("snapshot");
        let samples = canonicalize((0..4).map(|i| sample(i, 23, 1.0 + i as f64)).collect());
        let snap = PublishedSnapshot {
            hash: hash_samples(&samples),
            seed: 99,
            model: ModelKind::Forest { n_trees: 9 },
            samples,
        };
        let path = dir.join("snap.txt");
        snap.write(&path).unwrap();
        let back = PublishedSnapshot::read(&path).unwrap();
        assert_eq!(snap, back);
        assert_eq!(back.to_training_db().len(), 4);

        let text = std::fs::read_to_string(&path).unwrap();
        // A file cut at a line boundary still ends in a newline, so only
        // the declared count can tell that a sample is missing.
        let cut = &text[..text.trim_end().rfind('\n').unwrap() + 1];
        std::fs::write(&path, cut).unwrap();
        match PublishedSnapshot::read(&path) {
            Err(AcicError::Store { reason, .. }) => {
                assert!(reason.contains("holds 3 samples, header says 4"), "{reason}")
            }
            other => panic!("expected Store error, got {other:?}"),
        }
        // A bad point field names its line once.
        let first = text.lines().nth(2).unwrap();
        let f: Vec<&str> = first.split('\t').collect();
        let bad_device = [&f[..6], &["9"], &f[7..]].concat().join("\t");
        let err = PublishedSnapshot::parse(&text.replacen(first, &bad_device, 1)).unwrap_err();
        assert_eq!(err, "snapshot line 3: bad device code");
        // A file of another kind names the version header it has.
        let err = PublishedSnapshot::parse("acic-db v1\ncollect_secs=0 collect_cost_usd=0\n")
            .unwrap_err();
        assert!(err.contains("\"acic-db v1\", want \"acic-snapshot v2\""), "{err}");

        // The i=0 sample's cost_improvement is 0.6 and ends its line;
        // nudging it to a different (still valid) value must trip the
        // content-hash check.
        let tampered = text.replacen("\t0.6\n", "\t0.65\n", 1);
        assert_ne!(tampered, text, "tamper target must exist");
        std::fs::write(&path, tampered).unwrap();
        match PublishedSnapshot::read(&path) {
            Err(AcicError::Store { reason, .. }) => {
                assert!(reason.contains("hash"), "{reason}")
            }
            other => panic!("expected Store error, got {other:?}"),
        }
    }

    #[test]
    fn a_corrupt_sample_count_is_a_typed_error_not_an_allocation() {
        let declared = usize::MAX / 2;
        let text = format!(
            "{SNAPSHOT_VERSION}\nhash={:016x} samples={declared} seed=7 model=cart\n",
            hash_samples(&[])
        );
        let err = PublishedSnapshot::parse(&text).unwrap_err();
        assert!(err.contains("header says"), "{err}");
    }

    /// Samples whose every field formats differently: wide hex keys and
    /// campaigns, large seeds and indices, and improvements with long,
    /// tiny, huge, negative, and integral decimal forms.
    fn varied_samples() -> Vec<StoreSample> {
        let values = [0.1 + 0.2, 1e-7, 1e21, -2.5, 1.0 / 3.0, 123456.0];
        (0..24)
            .map(|i| {
                let mut p = SpacePoint::default_point();
                p.app.iterations = i + 1;
                p.system.stripe_size = 65536.0 * (1 + i % 4) as f64;
                let tp = TrainingPoint {
                    system: p.system,
                    app: p.app,
                    perf_improvement: values[i % values.len()],
                    cost_improvement: values[(i + 1) % values.len()] / 7.0,
                };
                let campaign = 0xFEED_0000_0000_0000 | i as u64;
                StoreSample::new(campaign, u64::MAX - i as u64, i * 1000, 1 + i as u32 % 3, tp)
            })
            .collect()
    }

    /// FNV-1a over bytes (the digest the golden renders below are pinned by).
    fn fnv_bytes(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// A file's records: everything after its two header lines.
    fn body(file: &str) -> &str {
        file.splitn(3, '\n').nth(2).unwrap()
    }

    fn lines(samples: &[StoreSample]) -> Vec<String> {
        samples.iter().map(|s| s.to_line()).collect()
    }

    /// [`hash_samples`] read off the text, the oracle of its definition:
    /// each rendered line's fields as words (hex keys, decimal integers,
    /// the five floats' bits as std parses them, so every `NaN` is one
    /// NaN), folded through the rotate-xor-multiply mixer; then the line
    /// count, and SplitMix64's output function written out.
    fn hash_of_lines(lines: &[String]) -> u64 {
        const FLOATS: [usize; 5] = [6 + 5, 6 + 10, 6 + 11, 6 + 15, 6 + 16];
        let mix = |h: u64, w: u64| (h.rotate_left(26) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95);
        let mut h = 0;
        for line in lines {
            let fields: Vec<&str> = line.split('\t').collect();
            assert_eq!((fields[0], fields.len()), ("s", 23));
            for (i, field) in fields.iter().enumerate().skip(1) {
                let word = match i {
                    1 | 2 => u64::from_str_radix(field, 16).unwrap(),
                    _ if FLOATS.contains(&i) => field.parse::<f64>().unwrap().to_bits(),
                    _ => field.parse::<u64>().unwrap(),
                };
                h = mix(h, word);
            }
        }
        let mut z = mix(h, lines.len() as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn the_hash_is_pinned_and_reads_off_the_text() {
        assert_eq!("NaN".parse::<f64>().unwrap().to_bits(), crate::training::NAN_BITS);
        let samples = varied_samples();
        for n in [0, 1, 2, samples.len()] {
            assert_eq!(hash_samples(&samples[..n]), hash_of_lines(&lines(&samples[..n])), "{n}");
        }
        assert_eq!(hash_samples(&[]), 0xe220_a839_7b1d_cdaf);
        assert_eq!(hash_samples(&samples), 0xb741_9a7c_22c9_de12);
    }

    /// Each of the five float fields takes each value of the codec's
    /// special list, and every line that reads back hashes as it did.
    #[test]
    fn the_hash_survives_a_text_round_trip_of_every_special_float() {
        type Set = fn(&mut TrainingPoint, f64);
        let fields: [(&str, bool, Set); 5] = [
            ("stripe_size", true, |p, x| p.system.stripe_size = x),
            ("data_size", true, |p, x| p.app.data_size = x),
            ("request_size", true, |p, x| p.app.request_size = x),
            ("perf_improvement", false, |p, x| p.perf_improvement = x),
            ("cost_improvement", false, |p, x| p.cost_improvement = x),
        ];
        let mut back = Vec::new();
        for (name, in_key, set) in fields {
            for (i, &x) in oracle::SPECIAL_F64.iter().enumerate() {
                let mut point = sample(i, 31, 1.0).point;
                set(&mut point, x);
                let s = StoreSample::new(31, 7, i, 1, point);
                match StoreSample::parse(&s.to_line(), 1) {
                    Ok(b) => {
                        assert_eq!(hash_samples(&[b]), hash_samples(&[s]), "{name} = {x:?}");
                        back.push(s);
                    }
                    // The key covers a configuration's sizes bit for bit
                    // and the text has one NaN, so a size NaN with its
                    // sign bit set reads back as another point: refused.
                    Err(e) => {
                        assert!(in_key && x.is_nan() && x.is_sign_negative(), "{name}: {e}");
                        assert!(e.contains("key does not match"), "{e}");
                    }
                }
            }
        }
        // Every value of every improvement read back, so both NaN signs
        // did; and a snapshot of them all verifies against the originals.
        assert!(back.len() >= 5 * oracle::SPECIAL_F64.len() - 2, "{}", back.len());
        let snap = PublishedSnapshot {
            hash: hash_samples(&back),
            seed: 7,
            model: ModelKind::Cart,
            samples: back,
        };
        assert_eq!(PublishedSnapshot::parse(&snap.render()).unwrap().hash, snap.hash);
    }

    type Edit<'a> = &'a dyn Fn(&mut StoreSample);

    #[test]
    fn any_one_bit_of_any_field_and_any_reordering_change_the_hash() {
        let set: Vec<StoreSample> = varied_samples()[..3].to_vec();
        let base = hash_samples(&set);
        let changed = |edit: Edit| {
            let mut changed = set.clone();
            edit(&mut changed[1]);
            hash_samples(&changed) != base
        };
        for bit in 0..64 {
            let u = |x: u64| x ^ (1 << bit);
            let z = |x: usize| x ^ (1 << bit);
            let f = |x: f64| f64::from_bits(u(x.to_bits()));
            let edits: [(&str, Edit); 13] = [
                ("key", &|s| s.key = u(s.key)),
                ("campaign", &|s| s.campaign = u(s.campaign)),
                ("seed", &|s| s.seed = u(s.seed)),
                ("index", &|s| s.index = z(s.index)),
                ("io_servers", &|s| s.point.system.io_servers = z(s.point.system.io_servers)),
                ("stripe_size", &|s| s.point.system.stripe_size = f(s.point.system.stripe_size)),
                ("nprocs", &|s| s.point.app.nprocs = z(s.point.app.nprocs)),
                ("io_procs", &|s| s.point.app.io_procs = z(s.point.app.io_procs)),
                ("iterations", &|s| s.point.app.iterations = z(s.point.app.iterations)),
                ("data_size", &|s| s.point.app.data_size = f(s.point.app.data_size)),
                ("request_size", &|s| s.point.app.request_size = f(s.point.app.request_size)),
                ("perf", &|s| s.point.perf_improvement = f(s.point.perf_improvement)),
                ("cost", &|s| s.point.cost_improvement = f(s.point.cost_improvement)),
            ];
            for (name, edit) in edits {
                assert!(changed(edit), "bit {bit} of {name}");
            }
            if bit < 32 {
                assert!(changed(&|s| s.attempts ^= 1 << bit), "bit {bit} of attempts");
            }
        }
        {
            use acic_cloudsim::cluster::Placement;
            use acic_cloudsim::device::DeviceKind;
            use acic_cloudsim::instance::InstanceType;
            use acic_fsim::{FsType, IoApi, IoOp};
            let p = set[1].point;
            for d in [DeviceKind::Ebs, DeviceKind::Ephemeral, DeviceKind::Ssd] {
                assert_eq!(changed(&|s| s.point.system.device = d), d != p.system.device);
            }
            for api in [IoApi::Posix, IoApi::MpiIo, IoApi::Hdf5, IoApi::NetCdf] {
                assert_eq!(changed(&|s| s.point.app.api = api), api != p.app.api);
            }
            let flips: [Edit; 6] = [
                &|s| {
                    s.point.system.fs = match p.system.fs {
                        FsType::Nfs => FsType::Pvfs2,
                        FsType::Pvfs2 => FsType::Nfs,
                    }
                },
                &|s| {
                    s.point.system.instance_type = match p.system.instance_type {
                        InstanceType::Cc1_4xlarge => InstanceType::Cc2_8xlarge,
                        InstanceType::Cc2_8xlarge => InstanceType::Cc1_4xlarge,
                    }
                },
                &|s| {
                    s.point.system.placement = match p.system.placement {
                        Placement::PartTime => Placement::Dedicated,
                        Placement::Dedicated => Placement::PartTime,
                    }
                },
                &|s| s.point.app.op = if p.app.op == IoOp::Read { IoOp::Write } else { IoOp::Read },
                &|s| s.point.app.collective = !p.app.collective,
                &|s| s.point.app.shared_file = !p.app.shared_file,
            ];
            for (i, flip) in flips.into_iter().enumerate() {
                assert!(changed(flip), "flag {i}");
            }
        }
        // NaN payloads and signs are the exception: the text has one NaN.
        let with_perf = |x: f64| {
            let mut changed = set.clone();
            changed[1].point.perf_improvement = x;
            hash_samples(&changed)
        };
        for nan in [-f64::NAN, f64::from_bits(f64::NAN.to_bits() | 1)] {
            assert_eq!(with_perf(nan), with_perf(f64::NAN));
        }
        // Swapping two samples, dropping one, or duplicating one.
        for (i, j) in [(0, 1), (0, 2), (1, 2)] {
            let mut swapped = set.clone();
            swapped.swap(i, j);
            assert_ne!(hash_samples(&swapped), base, "swap {i} {j}");
        }
        for i in 0..set.len() {
            let mut dropped = set.clone();
            dropped.remove(i);
            assert_ne!(hash_samples(&dropped), base, "drop {i}");
            let mut doubled = set.clone();
            doubled.insert(i, set[i]);
            assert_ne!(hash_samples(&doubled), base, "duplicate {i}");
        }
    }

    #[test]
    fn snapshot_and_manifest_bytes_are_unchanged() {
        let samples = varied_samples();
        let snap = PublishedSnapshot {
            hash: hash_samples(&samples),
            seed: 20131117,
            model: ModelKind::Cart,
            samples: samples.clone(),
        };
        let text = snap.render();
        // Golden values of the format-string renderers these replaced.
        assert_eq!(
            text.lines().nth(2).unwrap(),
            "s\td35fae50bb25b498\tfeed000000000000\t18446744073709551615\t0\t1\t0\t0\t1\t1\
             \t1\t65536\t64\t64\t1\t1\t16777216\t4194304\t1\t0\t1\t0.30000000000000004\
             \t0.000000014285714285714284"
        );
        // Every sample line is the v1 codec's: v1's content hash was this
        // digest of them.  Only the two header lines moved to v2.
        assert_eq!(fnv_bytes(body(&text).as_bytes()), 0x0e97_1217_7e62_eeb9);
        assert_eq!(
            text.lines().take(2).collect::<Vec<_>>(),
            ["acic-snapshot v2", "hash=b7419a7c22c9de12 samples=24 seed=20131117 model=cart"]
        );
        assert_eq!(fnv_bytes(text.as_bytes()), 0xfb38_83ce_fe9f_7087);
        assert_eq!(PublishedSnapshot::parse(&text).unwrap(), snap);

        // The WAL and MANIFEST a store writes for the same samples.
        let dir = tmp_dir("golden-bytes");
        let mut store = Store::open(&dir).unwrap();
        let read = |file: &str| std::fs::read_to_string(dir.join(file)).unwrap();
        assert_eq!(read(WAL_FILE), "acic-wal v1\n");
        assert!(!dir.join(MANIFEST_FILE).exists(), "a store never compacted has no MANIFEST");
        store.ingest(&samples).unwrap();
        assert_eq!(fnv_bytes(read(WAL_FILE).as_bytes()), 0x24e4_5cbb_c4d4_36f5);
        store.compact().unwrap();
        let manifest = read(MANIFEST_FILE);
        assert_eq!(
            manifest.lines().take(2).collect::<Vec<_>>(),
            ["acic-store v3", "samples=24 hash=8809268e289eafd0"]
        );
        // The canonical order's lines are v1's too (v1 named its segment
        // file by this digest of them).
        assert_eq!(fnv_bytes(body(&manifest).as_bytes()), 0x72c2_df9d_338b_18f9);
        let mut files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        files.sort();
        assert_eq!(files, [MANIFEST_FILE, WAL_FILE]);
    }

    #[test]
    fn older_manifests_and_snapshots_are_refused_by_name() {
        let samples = varied_samples();
        let sample_lines = |samples: &[StoreSample]| -> String {
            lines(samples).iter().map(|line| format!("{line}\n")).collect()
        };
        // The files the v1 codec wrote for these samples: its headers over
        // the same sample lines.
        let v1_snapshot = format!(
            "acic-snapshot v1\nhash=0e9712177e62eeb9 samples=24 seed=20131117 model=cart\n{}",
            sample_lines(&samples)
        );
        let v1_manifest = "acic-store v1\nsamples=24 hash=72c2df9d338b18f9\n\
                           segment\tseg-72c2df9d338b18f9.txt\t24\t72c2df9d338b18f9\n";
        // What the v2 codec wrote: a MANIFEST naming one segment file.
        let v2_manifest = "acic-store v2\nsamples=24 hash=8809268e289eafd0\n\
                           segment\tseg-8809268e289eafd0.txt\t24\t8809268e289eafd0\n";
        let v2_segment =
            format!("acic-seg v2\nsamples=24\n{}", sample_lines(&canonicalize(samples.clone())));
        let refused = |result: Result<(), AcicError>, version: &str| match result {
            Err(AcicError::Store { reason, .. }) => {
                assert!(reason.contains(&format!("version header \"{version}\"")), "{reason}")
            }
            other => panic!("want Store error, got {other:?}"),
        };
        let err = PublishedSnapshot::parse(&v1_snapshot).unwrap_err();
        assert!(err.contains("unknown version header \"acic-snapshot v1\""), "{err}");
        let dir = tmp_dir("old-versions-refused");
        let path = dir.join("snap.txt");
        std::fs::write(&path, &v1_snapshot).unwrap();
        refused(PublishedSnapshot::read(&path).map(drop), "acic-snapshot v1");
        refused(PublishedSnapshot::read_header(&path).map(drop), "acic-snapshot v1");

        let store = dir.join("store");
        std::fs::create_dir_all(&store).unwrap();
        std::fs::write(store.join(MANIFEST_FILE), v1_manifest).unwrap();
        refused(Store::open(&store).map(drop), "acic-store v1");
        std::fs::write(store.join(MANIFEST_FILE), v2_manifest).unwrap();
        std::fs::write(store.join("seg-8809268e289eafd0.txt"), v2_segment).unwrap();
        refused(Store::open(&store).map(drop), "acic-store v2");
    }

    /// The `write!` sample-line writer the digit loops replaced, kept
    /// verbatim as the byte oracle.
    fn write_line_oracle(s: &StoreSample, out: &mut impl std::fmt::Write) -> std::fmt::Result {
        write!(
            out,
            "s\t{:016x}\t{:016x}\t{}\t{}\t{}\t",
            s.key, s.campaign, s.seed, s.index, s.attempts
        )?;
        oracle::write_point(out, &s.point)
    }

    fn oracle_key(p: &TrainingPoint) -> u64 {
        oracle::fnv1a(&oracle::point_bits(&SpacePoint { system: p.system, app: p.app }))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Sample lines, keys and `from_db`'s campaign fingerprint equal
        /// the `write!` and word-vector oracles' on arbitrary bit patterns
        /// and full integer ranges; the set hash equals the hash read off
        /// those lines; and a line parses back to the same bits and the
        /// same hash.
        #[test]
        fn sample_codec_matches_the_format_string_oracle(
            points in prop::collection::vec(oracle::any_point(), 1..4),
            campaign in 0u64..=u64::MAX,
            seed in oracle::any_u64(),
            index in oracle::any_u64(),
            attempts in oracle::any_u64(),
        ) {
            let samples: Vec<StoreSample> = points
                .iter()
                .map(|p| StoreSample::new(campaign, seed, index as usize, attempts as u32, *p))
                .collect();
            for s in &samples {
                prop_assert_eq!(s.key, oracle_key(&s.point));
                let mut want = String::new();
                write_line_oracle(s, &mut want).unwrap();
                prop_assert_eq!(s.to_line(), want);
            }
            prop_assert_eq!(hash_samples(&samples), hash_of_lines(&lines(&samples)));

            let db =
                TrainingDb { points: points.clone(), collect_secs: 0.0, collect_cost_usd: 0.0 };
            let words: Vec<u64> = points
                .iter()
                .flat_map(|p| oracle::point_bits(&SpacePoint { system: p.system, app: p.app }))
                .collect();
            let snap = PublishedSnapshot::from_db(&db, seed, ModelKind::Cart);
            prop_assert_eq!(snap.samples[0].campaign, oracle::fnv1a(&words));
            for (s, p) in snap.samples.iter().zip(&points) {
                prop_assert_eq!(s.key, oracle_key(p));
            }

            let lossless = StoreSample::new(
                campaign,
                seed,
                index as usize,
                attempts as u32,
                oracle::lossless(points[0]),
            );
            let back = StoreSample::parse(&lossless.to_line(), 1).unwrap();
            prop_assert_eq!(
                (back.key, back.campaign, back.seed, back.index, back.attempts),
                (lossless.key, lossless.campaign, lossless.seed, lossless.index, lossless.attempts)
            );
            prop_assert!(oracle::same_bits(&back.point, &lossless.point));
            prop_assert_eq!(hash_samples(&[back]), hash_samples(&[lossless]));
        }
    }

    #[test]
    fn header_read_declares_the_full_reads_identity() {
        let dir = tmp_dir("snapshot-header");
        let samples = canonicalize((0..5).map(|i| sample(i, 29, 0.5 + i as f64)).collect());
        let snap = PublishedSnapshot {
            hash: hash_samples(&samples),
            seed: 1234,
            model: ModelKind::Knn { k: 7 },
            samples,
        };
        let path = dir.join("snap.txt");
        snap.write(&path).unwrap();
        let full = PublishedSnapshot::read(&path).unwrap();
        assert_eq!(PublishedSnapshot::read_header(&path).unwrap(), full.header());
        assert_eq!(full.header(), snap.header());

        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replacen(SNAPSHOT_VERSION, "acic-snapshot v0", 1)).unwrap();
        match PublishedSnapshot::read_header(&path) {
            Err(AcicError::Store { reason, .. }) => assert!(reason.contains("header"), "{reason}"),
            other => panic!("expected Store error, got {other:?}"),
        }
        std::fs::write(&path, format!("{SNAPSHOT_VERSION}\n")).unwrap();
        assert!(matches!(PublishedSnapshot::read_header(&path), Err(AcicError::Store { .. })));
        let missing = dir.join("absent.txt");
        assert!(matches!(PublishedSnapshot::read_header(&missing), Err(AcicError::Io { .. })));
    }

    #[test]
    fn model_codes_round_trip() {
        for kind in
            [ModelKind::Cart, ModelKind::Forest { n_trees: 25 }, ModelKind::Knn { k: 7 }]
        {
            assert_eq!(parse_model_code(&model_code(kind)).unwrap(), kind);
        }
        assert!(parse_model_code("boost:3").is_err());
        assert!(parse_model_code("forest:x").is_err());
        // No size is zero: neither kind could be fitted.
        for code in ["forest:0", "knn:0"] {
            assert_eq!(parse_model_code(code).unwrap_err(), format!("unknown model code {code:?}"));
        }
        let header = format!(
            "{SNAPSHOT_VERSION}\nhash={:016x} samples=0 seed=7 model=knn:0\n",
            hash_samples(&[])
        );
        let err = PublishedSnapshot::parse(&header).unwrap_err();
        assert!(err.contains("unknown model code \"knn:0\""), "{err}");
    }
}
