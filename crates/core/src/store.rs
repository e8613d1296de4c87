//! Durable, append-only training database with log compaction.
//!
//! The paper's training engine accumulates (parameters → relative
//! improvement) pairs in a persistent training database that outlives any
//! single campaign (§4.2: training data is collected once and reused).
//! This module is that database: campaigns *ingest* their observations
//! into a write-ahead log, the log is *compacted* into immutable sorted
//! segments listed by a manifest, and `acic publish` turns the canonical
//! sample set into a [`PublishedSnapshot`] that `acic serve` hot-swaps in.
//!
//! ## On-disk layout (every file in the [`crate::record`] framing)
//!
//! ```text
//! <dir>/MANIFEST          acic-store v1
//!                         samples=<n> hash=<16 hex digits>
//!                         segment	seg-<hash>.txt	<count>	<16 hex digits>
//! <dir>/seg-<hash>.txt    acic-seg v1
//!                         samples=<count>
//!                         <count> sample lines, canonically sorted
//! <dir>/wal.log           acic-wal v1
//!                         zero or more sample lines, arrival order
//! ```
//!
//! A sample line is
//! `s	<key>	<campaign>	<seed>	<index>	<attempts>	<17 point fields>`
//! where `key` is the FNV-1a hash of the sample's canonical configuration
//! point (the same bit-exact encoding `CacheKey` hashing and campaign
//! fingerprints use) and the remaining prefix fields are provenance: which
//! campaign measured it, under which root seed, at which plan index, and
//! after how many attempts.
//!
//! ## Invariants
//!
//! * **Append-only WAL, torn tails truncated-and-reported.**  Ingest
//!   coalesces fresh sample lines into group commits of whole lines, so a
//!   kill tears at most the final line, which [`Store::open`] truncates
//!   and reports in [`OpenReport::torn_wal_bytes`] (the WAL is a
//!   [`Tail::Torn`] log).  *Complete* garbage lines, or damage to a
//!   segment, are real corruption and raise [`AcicError::Store`]:
//!   segments are written atomically ([`Tail::Reject`]) and promised
//!   immutable, so no crash can legitimately produce them.
//! * **Canonicalization is order-independent.**  The canonical sample set
//!   keeps, per configuration key, the minimum sample under a total order
//!   over *all* fields (key, campaign, seed, index, attempts, value bits).
//!   Taking a minimum is associative and commutative, so any arrival
//!   order, any interleaving of compactions, and any kill/resume schedule
//!   converge to bit-identical segments and manifest.
//! * **Content-addressed segments, atomic replacement.**  A segment's
//!   file name is the hash of its contents, every rewrite goes through a
//!   hidden temp file plus `rename`, and compaction orders its steps
//!   (segment → manifest → prune → WAL reset) so that a crash between any
//!   two steps leaves either orphan segments (deleted on next open) or
//!   WAL entries that re-ingest as exact duplicates.  The manifest holds
//!   only content-derived data — no generation counters — which is what
//!   makes equal sample sets produce byte-equal manifests.

use crate::commit::CommitConfig;
use crate::error::AcicError;
use crate::journal;
use crate::record::{self, write_atomic, Reader, Tail, Writer};
use crate::resilience::Collection;
use crate::space::SpacePoint;
use crate::training::{point_from_fields, point_key, point_words, push_hex16, push_u64,
                      split_fields, write_point, Fnv64, TrainingDb, TrainingPoint,
                      POINT_LINE_BYTES};
use acic_cart::ModelKind;
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Manifest version line.
pub const STORE_VERSION: &str = "acic-store v1";
/// Segment version line.
const SEGMENT_VERSION: &str = "acic-seg v1";
/// Write-ahead-log version line.
const WAL_VERSION: &str = "acic-wal v1";
/// Snapshot version line.
pub const SNAPSHOT_VERSION: &str = "acic-snapshot v1";

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
    /// segment, and snapshot lines and [`hash_samples`].
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
    fn to_line(&self) -> String {
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
        let point = point_from_fields(&f[6..], lineno).map_err(|e| bad(&e.to_string()))?;
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

/// FNV-1a over the rendered sample lines (newline-terminated), the store's
/// generation identity: two stores hold the same canonical data iff their
/// hashes agree.  Each line is rendered into one reused buffer and folded
/// into the hash state.
pub fn hash_samples(samples: &[StoreSample]) -> u64 {
    let mut h = Fnv64::new();
    let mut line = Vec::with_capacity(SAMPLE_LINE_BYTES);
    for s in samples {
        line.clear();
        s.write_line(&mut line);
        line.push(b'\n');
        h.bytes(&line);
    }
    h.finish()
}

/// One manifest row: an immutable, content-addressed segment.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SegmentRef {
    file: String,
    count: usize,
    hash: u64,
}

/// What [`Store::open`] found and repaired.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpenReport {
    /// Immutable segments listed by the manifest.
    pub segments: usize,
    /// Samples loaded from those segments.
    pub segment_samples: usize,
    /// Samples replayed from the write-ahead log.
    pub wal_samples: usize,
    /// WAL lines that duplicated already-loaded samples exactly (a crash
    /// between compaction's manifest swap and WAL reset leaves these; they
    /// are harmless and vanish at the next compaction).
    pub wal_duplicates: usize,
    /// Bytes of torn WAL tail truncated away (a kill mid-append).
    pub torn_wal_bytes: u64,
    /// Unreferenced segment files deleted (a crash mid-compaction).
    pub orphan_segments: usize,
}

impl OpenReport {
    /// True when open had to repair anything worth mentioning.
    pub fn repaired(&self) -> bool {
        self.torn_wal_bytes > 0 || self.orphan_segments > 0 || self.wal_duplicates > 0
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
    /// Canonical samples in the rewritten segment.
    pub samples: usize,
    /// Raw samples dropped by per-key canonicalization.
    pub duplicates_dropped: usize,
    /// Segments merged away (including the WAL as a pseudo-segment).
    pub segments_merged: usize,
    /// False when the store was already fully compacted (no bytes moved).
    pub changed: bool,
    /// [`hash_samples`] of the canonical set, which the store now holds
    /// (what [`Store::canonical_hash`] would recompute).
    pub hash: u64,
}

/// The durable training database: immutable segments + WAL in a directory.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    samples: Vec<StoreSample>,
    seen: BTreeSet<OrderKey>,
    segments: Vec<SegmentRef>,
    wal_entries: usize,
    report: OpenReport,
}

impl Store {
    /// Open (or initialize) the store in `dir`, loading every segment,
    /// replaying the WAL, truncating torn tails, and deleting orphans.
    pub fn open(dir: &Path) -> Result<Store, AcicError> {
        std::fs::create_dir_all(dir).map_err(|e| AcicError::io(dir, e))?;
        let mut store = Store {
            dir: dir.to_path_buf(),
            samples: Vec::new(),
            seen: BTreeSet::new(),
            segments: Vec::new(),
            wal_entries: 0,
            report: OpenReport::default(),
        };

        let manifest_path = store.manifest_path();
        if manifest_path.exists() {
            let text = std::fs::read_to_string(&manifest_path)
                .map_err(|e| AcicError::io(&manifest_path, e))?;
            store.segments = parse_manifest(&text).map_err(|e| store_err(&manifest_path, e))?;
        } else {
            write_atomic(&manifest_path, &render_manifest(&[], 0))?;
        }

        for seg in &store.segments {
            let path = store.dir.join(&seg.file);
            let text =
                std::fs::read_to_string(&path).map_err(|e| AcicError::io(&path, e))?;
            let samples = parse_segment(&text, seg).map_err(|e| store_err(&path, e))?;
            store.report.segment_samples += samples.len();
            for s in samples {
                store.seen.insert(order_key(&s));
                store.samples.push(s);
            }
        }
        store.report.segments = store.segments.len();

        // Orphan segments: written by a compaction that died before its
        // manifest swap (or superseded by one that died before pruning).
        let referenced: BTreeSet<&str> = store.segments.iter().map(|s| s.file.as_str()).collect();
        let entries = std::fs::read_dir(dir).map_err(|e| AcicError::io(dir, e))?;
        for entry in entries {
            let entry = entry.map_err(|e| AcicError::io(dir, e))?;
            let name = entry.file_name().to_string_lossy().into_owned();
            let stale_tmp = name.starts_with(".tmp-");
            let orphan_seg =
                name.starts_with("seg-") && name.ends_with(".txt") && !referenced.contains(&*name);
            if stale_tmp || orphan_seg {
                std::fs::remove_file(entry.path()).map_err(|e| AcicError::io(&entry.path(), e))?;
                if orphan_seg {
                    store.report.orphan_segments += 1;
                }
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

    /// [`Self::ingest_collection`] with an explicit commit configuration
    /// (the CLI threads `train --commit-batch` through here so journal and
    /// WAL share one durability knob).
    pub fn ingest_collection_with(
        &mut self,
        id: &journal::CampaignId,
        collection: &Collection,
        commit: CommitConfig,
    ) -> Result<IngestStats, AcicError> {
        self.ingest_with(&samples_from_collection(id, collection)?, commit)
    }

    /// Fold every segment and the WAL into a single canonical segment and
    /// reset the WAL.  Step order makes every intermediate crash state
    /// recoverable: (1) write the new content-addressed segment, (2) swap
    /// the manifest atomically, (3) prune superseded segments, (4) reset
    /// the WAL.  Dying after (1) leaves an orphan (deleted on open); dying
    /// after (2) or (3) leaves WAL entries that replay as exact
    /// duplicates.
    pub fn compact(&mut self) -> Result<CompactStats, AcicError> {
        let canonical = canonicalize(self.samples.clone());
        let hash = hash_samples(&canonical);
        let new_refs: Vec<SegmentRef> = if canonical.is_empty() {
            Vec::new()
        } else {
            vec![SegmentRef {
                file: format!("seg-{hash:016x}.txt"),
                count: canonical.len(),
                hash,
            }]
        };
        let stats = CompactStats {
            samples: canonical.len(),
            duplicates_dropped: self.samples.len() - canonical.len(),
            segments_merged: self.segments.len(),
            changed: !(new_refs == self.segments && self.wal_entries == 0),
            hash,
        };
        if !stats.changed {
            return Ok(stats);
        }

        if let Some(seg) = new_refs.first() {
            write_atomic(&self.dir.join(&seg.file), &render_segment(&canonical))?;
        }
        write_atomic(&self.manifest_path(), &render_manifest(&new_refs, hash))?;
        for old in &self.segments {
            if !new_refs.iter().any(|n| n.file == old.file) {
                let path = self.dir.join(&old.file);
                std::fs::remove_file(&path).map_err(|e| AcicError::io(&path, e))?;
            }
        }
        reset_wal(&self.wal_path())?;

        self.segments = new_refs;
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

fn render_manifest(segments: &[SegmentRef], hash: u64) -> String {
    let total: usize = segments.iter().map(|s| s.count).sum();
    let hash = if segments.is_empty() { hash_samples(&[]) } else { hash };
    let mut file = Writer::new(STORE_VERSION, 128)
        .summary("", &[("samples", &total), ("hash", &format!("{hash:016x}"))]);
    for seg in segments {
        let line = format!("segment\t{}\t{}\t{:016x}", seg.file, seg.count, seg.hash);
        file.record(|out| out.extend_from_slice(line.as_bytes()));
    }
    file.finish()
}

/// Parse the manifest, checking that its segments add up to its summary.
fn parse_manifest(text: &str) -> Result<Vec<SegmentRef>, String> {
    let mut file = Reader::new(text, Tail::Reject);
    file.version(STORE_VERSION)?;
    let [total, hash] = file.summary("", ["samples", "hash"])?;
    let total: usize = total.parse().map_err(|_| "bad samples count")?;
    u64::from_str_radix(hash, 16).map_err(|_| "bad hash")?;
    let mut segments = Vec::new();
    for record in file {
        let (lineno, line) = record?;
        let bad = |what: &str| format!("manifest line {lineno}: {what}");
        let Some(["segment", name, count, hash]) = split_fields(line) else {
            return Err(bad("expected segment\\t<file>\\t<count>\\t<hash>"));
        };
        if name.contains('/') || name.contains("..") {
            return Err(bad("segment file must be a plain name"));
        }
        segments.push(SegmentRef {
            file: name.to_string(),
            count: count.parse().map_err(|_| bad("bad count"))?,
            hash: u64::from_str_radix(hash, 16).map_err(|_| bad("bad hash"))?,
        });
    }
    let listed: usize = segments.iter().map(|s| s.count).sum();
    if listed != total {
        return Err(format!("summary says {total} samples, segments list {listed}"));
    }
    Ok(segments)
}

fn render_segment(samples: &[StoreSample]) -> String {
    let file = Writer::new(SEGMENT_VERSION, 32 + samples.len() * SAMPLE_LINE_BYTES)
        .summary("", &[("samples", &samples.len())]);
    sample_file(file, samples)
}

/// Finish a segment or snapshot: one record per sample.
fn sample_file(mut file: Writer, samples: &[StoreSample]) -> String {
    for sample in samples {
        file.record(|out| sample.write_line(out));
    }
    file.finish()
}

/// Parse the sample records of a segment or snapshot and check them
/// against the count and content hash its header or manifest declares.
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

fn parse_segment(text: &str, expect: &SegmentRef) -> Result<Vec<StoreSample>, String> {
    let mut file = Reader::new(text, Tail::Reject);
    file.version(SEGMENT_VERSION)?;
    let [count] = file.summary("", ["samples"])?;
    if count.parse() != Ok(expect.count) {
        return Err(format!("segment header says {count} samples, manifest says {}", expect.count));
    }
    parse_samples(file, expect.count, expect.hash).map_err(|e| {
        format!("segment {e} (segments are immutable; this is corruption, not a torn write)")
    })
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

    /// Wrap an in-memory training database as a self-describing snapshot,
    /// e.g. for replicating a `--db`/`--dims`-booted model across serve
    /// nodes.  Sample order is preserved (no canonicalization), so
    /// [`Self::to_training_db`] round-trips to the exact input db and a
    /// predictor refit from the snapshot is bit-identical to one fit on
    /// the original database.
    pub fn from_db(db: &TrainingDb, seed: u64, model: ModelKind) -> Self {
        let mut h = Fnv64::new();
        for p in &db.points {
            h.words(&point_words(&SpacePoint { system: p.system, app: p.app }));
        }
        let campaign = h.finish();
        let samples: Vec<StoreSample> = db
            .points
            .iter()
            .enumerate()
            .map(|(index, point)| StoreSample::new(campaign, seed, index, 1, *point))
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

/// Parse [`model_code`] output.
pub fn parse_model_code(code: &str) -> Result<ModelKind, String> {
    let bad = || format!("unknown model code {code:?}");
    match code.split_once(':') {
        None if code == "cart" => Ok(ModelKind::Cart),
        Some(("forest", n)) => {
            Ok(ModelKind::Forest { n_trees: n.parse().map_err(|_| bad())? })
        }
        Some(("knn", k)) => Ok(ModelKind::Knn { k: k.parse().map_err(|_| bad())? }),
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
        // A corrupted key is rejected, not silently accepted.
        let mut f: Vec<String> = s.to_line().split('\t').map(String::from).collect();
        f[1] = "0000000000000001".into();
        assert!(StoreSample::parse(&f.join("\t"), 1).unwrap_err().contains("key"));
    }

    #[test]
    fn canonicalize_keeps_one_winner_per_key_in_any_order() {
        let a = sample(0, 5, 1.0);
        let b = sample(0, 3, 2.0); // same config key, earlier campaign wins
        let c = sample(1, 5, 1.5);
        assert_eq!(a.key, b.key);
        let x = canonicalize(vec![a, b, c]);
        let y = canonicalize(vec![c, a, b]);
        let z = canonicalize(vec![canonicalize(vec![a, c]), vec![b]].concat());
        assert_eq!(x, y);
        assert_eq!(x, z, "canonicalization must be associative");
        assert_eq!(x.len(), 2);
        let winner = x.iter().find(|s| s.key == a.key).unwrap();
        assert_eq!(winner.campaign, 3, "minimum by total order wins");
        assert_eq!(hash_samples(&x), hash_samples(&y));
    }

    #[test]
    fn ingest_compact_reopen_round_trips() {
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
        assert_eq!(reopened.open_report().segment_samples, 6);
        assert_eq!(reopened.open_report().wal_samples, 0);

        // A second compact with nothing new is a no-op.
        let mut reopened = reopened;
        let cs = reopened.compact().unwrap();
        assert!(!cs.changed);
        assert_eq!(cs.hash, hash, "a no-op compaction still reports the set's hash");
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
        let seg = format!("seg-{:016x}.txt", s1.canonical_hash());
        assert_eq!(
            std::fs::read(d1.join(&seg)).unwrap(),
            std::fs::read(d2.join(&seg)).unwrap()
        );
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
    fn orphan_segments_and_stale_tmps_are_cleaned_on_open() {
        let dir = tmp_dir("orphans");
        let mut store = Store::open(&dir).unwrap();
        store.ingest(&[sample(0, 13, 1.0)]).unwrap();
        store.compact().unwrap();
        std::fs::write(dir.join("seg-00000000deadbeef.txt"), "acic-seg v1\nsamples=0\n").unwrap();
        std::fs::write(dir.join(".tmp-MANIFEST"), "half written").unwrap();
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.open_report().orphan_segments, 1);
        assert_eq!(store.len(), 1);
        assert!(!dir.join("seg-00000000deadbeef.txt").exists());
        assert!(!dir.join(".tmp-MANIFEST").exists());
    }

    #[test]
    fn wal_entries_surviving_a_crashed_compaction_replay_as_duplicates() {
        // Simulate dying between the manifest swap and the WAL reset: the
        // WAL still holds lines that are now also in the segment.
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
    fn segment_corruption_is_a_typed_store_error() {
        let dir = tmp_dir("seg-corrupt");
        let mut store = Store::open(&dir).unwrap();
        store.ingest(&[sample(0, 19, 1.0), sample(1, 19, 2.0)]).unwrap();
        store.compact().unwrap();
        let seg = format!("seg-{:016x}.txt", store.canonical_hash());
        drop(store);
        let path = dir.join(&seg);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replace('1', "2")).unwrap();
        match Store::open(&dir) {
            Err(AcicError::Store { path: p, .. }) => assert!(p.contains("seg-")),
            other => panic!("expected Store error, got {other:?}"),
        }
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

    #[test]
    fn streamed_hash_equals_the_hash_of_rendered_lines() {
        // The hash before streaming, kept as the oracle: each sample line
        // rendered into its own `String`, then its bytes and a newline
        // folded in.
        fn hash_rendered(samples: &[StoreSample]) -> u64 {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            let mut eat = |b: u8| {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            };
            for s in samples {
                for b in s.to_line().bytes() {
                    eat(b);
                }
                eat(b'\n');
            }
            h
        }
        let samples = varied_samples();
        for n in [0, 1, 2, samples.len()] {
            assert_eq!(hash_samples(&samples[..n]), hash_rendered(&samples[..n]), "{n} samples");
        }
    }

    #[test]
    fn snapshot_and_segment_bytes_are_unchanged() {
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
        assert_eq!(snap.hash, 0x0e97_1217_7e62_eeb9);
        assert_eq!(fnv_bytes(text.as_bytes()), 0xd502_c08c_9228_eaad);
        assert_eq!(fnv_bytes(render_segment(&samples).as_bytes()), 0x7c7b_ed2c_44a5_81da);
        let db_text = snap.to_training_db().to_text();
        assert_eq!(fnv_bytes(db_text.as_bytes()), 0xb6dc_6132_5076_2455);
        assert_eq!(PublishedSnapshot::parse(&text).unwrap(), snap);

        // The WAL and MANIFEST a store writes for the same samples.
        let dir = tmp_dir("golden-bytes");
        let mut store = Store::open(&dir).unwrap();
        let read = |file: &str| std::fs::read_to_string(dir.join(file)).unwrap();
        assert_eq!(read(WAL_FILE), "acic-wal v1\n");
        assert_eq!(read(MANIFEST_FILE), "acic-store v1\nsamples=0 hash=cbf29ce484222325\n");
        store.ingest(&samples).unwrap();
        assert_eq!(fnv_bytes(read(WAL_FILE).as_bytes()), 0x24e4_5cbb_c4d4_36f5);
        store.compact().unwrap();
        assert_eq!(
            read(MANIFEST_FILE),
            "acic-store v1\nsamples=24 hash=72c2df9d338b18f9\n\
             segment\tseg-72c2df9d338b18f9.txt\t24\t72c2df9d338b18f9\n"
        );
        assert_eq!(fnv_bytes(read("seg-72c2df9d338b18f9.txt").as_bytes()), 0xf92f_04c0_b45c_18b2);
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

        /// Sample lines, keys, the set hash and `from_db`'s campaign
        /// fingerprint equal the `write!` and word-vector oracles' on
        /// arbitrary bit patterns and full integer ranges, and a line
        /// parses back to the same bits.
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
            let mut want_hash = Fnv64::new();
            for s in &samples {
                prop_assert_eq!(s.key, oracle_key(&s.point));
                let mut want = String::new();
                write_line_oracle(s, &mut want).unwrap();
                prop_assert_eq!(s.to_line(), want.clone());
                want_hash.bytes(want.as_bytes());
                want_hash.bytes(b"\n");
            }
            prop_assert_eq!(hash_samples(&samples), want_hash.finish());

            let db =
                TrainingDb { points: points.clone(), collect_secs: 0.0, collect_cost_usd: 0.0 };
            let words: Vec<u64> = points
                .iter()
                .flat_map(|p| oracle::point_bits(&SpacePoint { system: p.system, app: p.app }))
                .collect();
            let snap = PublishedSnapshot::from_db(&db, seed, ModelKind::Cart);
            prop_assert_eq!(snap.samples[0].campaign, oracle::fnv1a(&words));

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
    }
}
