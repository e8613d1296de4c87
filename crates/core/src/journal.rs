//! Append-only checkpoint journal for training campaigns.
//!
//! The paper's training runs lost I/O-server connections roughly hourly
//! (§5.6 observation 5); a campaign that is hours of simulated benchmarking
//! long must survive being killed.  Every completed (or abandoned) point is
//! appended to a text journal as soon as it finishes, and a restarted
//! campaign replays the journal instead of re-running those points.
//! Because every run is deterministic per `(campaign, point, attempt)`,
//! a resumed campaign reconstructs the *bit-identical* database an
//! uninterrupted run would have produced.
//!
//! Format (an append-only log in the [`crate::record`] framing):
//!
//! ```text
//! acic-journal v2
//! campaign seed=<u64> points=<count> fingerprint=<16 hex digits>
//! ok	<index>	<attempts>	<secs>	<cost>	<17 tab-separated training-point fields>
//! skip	<index>	<attempts>	<secs>	<cost>	<reason>
//! ```
//!
//! A torn final line (the process died mid-append) is dropped, never
//! trusted; any other malformed content is a typed [`AcicError::Journal`].
//! The loader reports the valid prefix ([`JournalState::valid_bytes`]),
//! and a resuming writer truncates to it before appending
//! ([`JournalWriter::resume`]).

use crate::commit::{CommitConfig, CommitPlane, CommitStats};
use crate::error::AcicError;
use crate::record::{self, Reader, Tail, Writer};
use crate::training::{
    point_from_fields, push_f64, push_u64, split_fields, write_point, TrainingPoint,
    POINT_LINE_BYTES,
};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Journal format version line.  v2 added the attempts column to `ok`
/// entries so restored points carry full provenance (the durable store
/// records per-sample attempt counts); v1 journals are rejected rather
/// than resumed with degraded provenance.
pub const JOURNAL_VERSION: &str = "acic-journal v2";

/// Identity of a campaign: a journal may only resume the exact campaign
/// that wrote it (same seed, same point list, same fault/retry plans —
/// all folded into the fingerprint).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignId {
    /// The trainer's root seed.
    pub seed: u64,
    /// Number of points in the campaign plan.
    pub points: usize,
    /// Hash of the point list plus fault and retry configuration.
    pub fingerprint: u64,
}

impl CampaignId {
    fn header(&self) -> String {
        let fingerprint = format!("{:016x}", self.fingerprint);
        let summary: [(&str, &dyn std::fmt::Display); 3] =
            [("seed", &self.seed), ("points", &self.points), ("fingerprint", &fingerprint)];
        Writer::new(JOURNAL_VERSION, 96).summary("campaign", &summary).finish()
    }
}

/// One journaled per-point outcome.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalEntry {
    /// The point produced a training observation.
    Ok {
        /// Index in the campaign's point list.
        index: usize,
        /// Runs attempted to produce the observation (>= 1).
        attempts: u32,
        /// Simulated seconds charged to the campaign for this point.
        secs: f64,
        /// Simulated USD charged to the campaign for this point.
        cost: f64,
        /// The observation itself.
        point: TrainingPoint,
    },
    /// The point was abandoned.
    Skip {
        /// Index in the campaign's point list.
        index: usize,
        /// Runs attempted before giving up.
        attempts: u32,
        /// Simulated seconds still charged (wasted attempts + backoff).
        secs: f64,
        /// Simulated USD still charged.
        cost: f64,
        /// Rendered terminal error.
        reason: String,
    },
}

impl JournalEntry {
    /// The campaign point index this entry records.
    pub fn index(&self) -> usize {
        match self {
            JournalEntry::Ok { index, .. } | JournalEntry::Skip { index, .. } => *index,
        }
    }

    /// Append the entry's line (no newline).  A skip reason's tabs and
    /// newlines become spaces.
    fn write_line(&self, out: &mut Vec<u8>) {
        let (kind, index, attempts, secs, cost) = match self {
            JournalEntry::Ok { index, attempts, secs, cost, .. } => {
                ("ok", index, attempts, secs, cost)
            }
            JournalEntry::Skip { index, attempts, secs, cost, .. } => {
                ("skip", index, attempts, secs, cost)
            }
        };
        out.extend_from_slice(kind.as_bytes());
        for v in [*index as u64, u64::from(*attempts)] {
            out.push(b'\t');
            push_u64(out, v);
        }
        for x in [*secs, *cost] {
            out.push(b'\t');
            push_f64(out, x);
        }
        out.push(b'\t');
        match self {
            JournalEntry::Ok { point, .. } => write_point(out, point),
            JournalEntry::Skip { reason, .. } => out.extend(
                reason.bytes().map(|b| if b == b'\t' || b == b'\n' { b' ' } else { b }),
            ),
        }
    }

    #[cfg(test)]
    fn to_line(&self) -> String {
        let mut line = Vec::new();
        self.write_line(&mut line);
        String::from_utf8(line).unwrap()
    }

    fn parse(line: &str, lineno: usize) -> Result<JournalEntry, String> {
        let bad = |what: &str| format!("line {lineno}: {what}");
        let index = |s: &str| s.parse::<usize>().map_err(|_| bad("bad index"));
        let num = |s: &str, what: &str| s.parse::<f64>().map_err(|_| bad(what));
        match line.split('\t').next() {
            Some("ok") => {
                let Some(f) = split_fields::<{ 5 + 17 }>(line) else {
                    return Err(bad("ok entry needs 22 tab-separated fields"));
                };
                let point = point_from_fields(&f[5..], lineno)
                    .map_err(|e| bad(&format!("bad point: {e}")))?;
                Ok(JournalEntry::Ok {
                    index: index(f[1])?,
                    attempts: f[2].parse().map_err(|_| bad("bad attempts"))?,
                    secs: num(f[3], "bad secs")?,
                    cost: num(f[4], "bad cost")?,
                    point,
                })
            }
            Some("skip") => {
                // The reason is the rest of the line, tabs and all.
                let mut fields = line.splitn(6, '\t');
                let mut f = [""; 6];
                for slot in &mut f {
                    *slot = fields
                        .next()
                        .ok_or_else(|| bad("skip entry needs 6 tab-separated fields"))?;
                }
                Ok(JournalEntry::Skip {
                    index: index(f[1])?,
                    attempts: f[2].parse().map_err(|_| bad("bad attempts"))?,
                    secs: num(f[3], "bad secs")?,
                    cost: num(f[4], "bad cost")?,
                    reason: f[5].to_string(),
                })
            }
            _ => Err(bad("unknown entry kind")),
        }
    }
}

/// Restored journal contents: completed/abandoned entries by point index.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JournalState {
    /// One entry per journaled point (duplicates keep the first record).
    pub entries: BTreeMap<usize, JournalEntry>,
    /// Byte length of the trusted prefix (header plus every complete,
    /// newline-terminated entry).  A resuming writer truncates to this
    /// length before appending.
    pub valid_bytes: u64,
    /// Bytes of torn final line dropped by the loader (0 for a clean file).
    pub torn_bytes: u64,
}

/// Append-side handle; safe to share across worker threads.
///
/// Appends flow through a [`CommitPlane`]: a dedicated writer thread
/// coalesces whole entry lines into group commits ([`CommitConfig`]
/// controls the batch and durability), buffering out-of-order arrivals so
/// the file is always written in sequence order.  Journal bytes are
/// therefore a pure function of the entry sequence — identical at any
/// worker count and any commit batch — and a kill still tears at most the
/// final line.  Entries become durable at the group boundary; callers
/// that need everything on disk call [`Self::finish`] (or drop the
/// writer, which flushes best-effort).
#[derive(Debug)]
pub struct JournalWriter {
    path: PathBuf,
    plane: CommitPlane,
    next_seq: AtomicU64,
}

impl JournalWriter {
    /// Start a fresh journal (truncates any existing file) and write the
    /// campaign header, with the default commit configuration.
    pub fn create(path: &Path, id: &CampaignId) -> Result<Self, AcicError> {
        Self::create_with(path, id, CommitConfig::default())
    }

    /// [`Self::create`] with an explicit commit configuration.  The
    /// header is written (and, when `cfg.sync`, synced) before the writer
    /// thread starts: an existing journal always has a durable header.
    pub fn create_with(path: &Path, id: &CampaignId, cfg: CommitConfig) -> Result<Self, AcicError> {
        let mut file = std::fs::File::create(path).map_err(|e| AcicError::io(path, e))?;
        file.write_all(id.header().as_bytes()).map_err(|e| AcicError::io(path, e))?;
        if cfg.sync {
            file.sync_data().map_err(|e| AcicError::io(path, e))?;
        }
        Ok(Self {
            path: path.to_path_buf(),
            plane: CommitPlane::spawn(file, cfg),
            next_seq: AtomicU64::new(0),
        })
    }

    /// Reopen an existing journal for appending (resume), truncating any
    /// torn tail first.  `valid_bytes` is the trusted-prefix length the
    /// loader reported ([`JournalState::valid_bytes`]); appending without
    /// truncating would concatenate the first resumed entry onto the torn
    /// fragment, forming a newline-terminated garbage line that the next
    /// resume can no longer distinguish from real corruption.
    pub fn resume(path: &Path, valid_bytes: u64) -> Result<Self, AcicError> {
        Self::resume_with(path, valid_bytes, CommitConfig::default())
    }

    /// [`Self::resume`] with an explicit commit configuration.
    pub fn resume_with(
        path: &Path,
        valid_bytes: u64,
        cfg: CommitConfig,
    ) -> Result<Self, AcicError> {
        let file = std::fs::OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| AcicError::io(path, e))?;
        file.set_len(valid_bytes).map_err(|e| AcicError::io(path, e))?;
        Ok(Self {
            path: path.to_path_buf(),
            plane: CommitPlane::spawn(file, cfg),
            next_seq: AtomicU64::new(0),
        })
    }

    /// Append one entry at the next sequence number (serial producers).
    /// The entry is committed with its group; I/O errors surface at
    /// [`Self::finish`].  Do not mix with [`Self::append_seq`].
    pub fn append(&self, entry: &JournalEntry) -> Result<(), AcicError> {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        self.append_seq(seq, entry);
        Ok(())
    }

    /// Append one entry at an explicit sequence position (parallel
    /// producers).  Sequence numbers must be dense from 0 and used
    /// exactly once; the writer commits entries in sequence order
    /// regardless of call order, so the journal's bytes are deterministic
    /// at any worker count.
    pub fn append_seq(&self, seq: u64, entry: &JournalEntry) {
        let mut line = Vec::with_capacity(POINT_LINE_BYTES + 64);
        record::push(&mut line, |out| entry.write_line(out));
        self.plane.submit(seq, String::from_utf8(line).expect("journal lines are UTF-8"));
    }

    /// Flush every committed-able entry, stop the writer thread, and
    /// return the session's commit accounting (or the first I/O error).
    pub fn finish(self) -> Result<CommitStats, AcicError> {
        let JournalWriter { path, plane, .. } = self;
        plane.finish().map_err(|e| AcicError::io(&path, e))
    }
}

/// Load and validate a journal against the campaign about to run.
pub fn load(path: &Path, expected: &CampaignId) -> Result<JournalState, AcicError> {
    let text = std::fs::read_to_string(path).map_err(|e| AcicError::io(path, e))?;
    parse(&text, expected)
        .map_err(|reason| AcicError::Journal { path: path.display().to_string(), reason })
}

fn parse(text: &str, expected: &CampaignId) -> Result<JournalState, String> {
    let mut file = Reader::new(text, Tail::Torn);
    file.version(JOURNAL_VERSION)?;
    let [seed, points, fingerprint] =
        file.summary("campaign", ["seed", "points", "fingerprint"])?;
    let written = CampaignId {
        seed: seed.parse().map_err(|_| "bad seed")?,
        points: points.parse().map_err(|_| "bad points")?,
        fingerprint: u64::from_str_radix(fingerprint, 16).map_err(|_| "bad fingerprint")?,
    };
    if written != *expected {
        return Err(format!(
            "journal belongs to a different campaign \
             (journal seed={} points={} fingerprint={:016x}, \
             expected seed={} points={} fingerprint={:016x}); \
             delete the journal to start over",
            written.seed,
            written.points,
            written.fingerprint,
            expected.seed,
            expected.points,
            expected.fingerprint
        ));
    }

    // The reader stops before a torn final line: it is never trusted.
    let mut state = JournalState::default();
    for record in &mut file {
        let (lineno, line) = record?;
        let entry = JournalEntry::parse(line, lineno)?;
        if entry.index() >= expected.points {
            return Err(format!(
                "line {lineno}: point index {} out of range (campaign has {} points)",
                entry.index(),
                expected.points
            ));
        }
        state.entries.entry(entry.index()).or_insert(entry);
    }
    state.valid_bytes = file.valid_bytes();
    state.torn_bytes = file.torn_bytes();
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::SpacePoint;
    use crate::training::oracle;
    use proptest::prelude::*;

    fn tmp_dir() -> PathBuf {
        let d = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/test-journals");
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn sample_point() -> TrainingPoint {
        let p = SpacePoint::default_point();
        TrainingPoint {
            system: p.system,
            app: p.app,
            perf_improvement: 1.25,
            cost_improvement: 0.75,
        }
    }

    fn id() -> CampaignId {
        CampaignId { seed: 7, points: 4, fingerprint: 0xDEADBEEF }
    }

    #[test]
    fn entries_round_trip_through_lines() {
        let ok = JournalEntry::Ok {
            index: 2,
            attempts: 3,
            secs: 123.456,
            cost: 0.789,
            point: sample_point(),
        };
        let skip = JournalEntry::Skip {
            index: 3,
            attempts: 4,
            secs: 70.5,
            cost: 0.25,
            reason: "lost connection\twith tab".into(),
        };
        let ok2 = JournalEntry::parse(&ok.to_line(), 3).unwrap();
        assert_eq!(ok, ok2);
        // Tabs in the reason are sanitized to spaces on write.
        let skip2 = JournalEntry::parse(&skip.to_line(), 4).unwrap();
        match skip2 {
            JournalEntry::Skip { index: 3, attempts: 4, ref reason, .. } => {
                assert_eq!(reason, "lost connection with tab");
            }
            other => panic!("{other:?}"),
        }

        // The whole file the writer leaves: header, then one line each.
        let path = tmp_dir().join("golden.journal");
        let w = JournalWriter::create(&path, &id()).unwrap();
        w.append(&ok).unwrap();
        w.append(&skip).unwrap();
        w.finish().unwrap();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "acic-journal v2\ncampaign seed=7 points=4 fingerprint=00000000deadbeef\n\
             ok\t2\t3\t123.456\t0.789\t0\t0\t1\t1\t1\t0\t64\t64\t1\t10\t16777216\t4194304\
             \t1\t0\t1\t1.25\t0.75\nskip\t3\t4\t70.5\t0.25\tlost connection with tab\n"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn write_then_load_restores_entries() {
        let path = tmp_dir().join("roundtrip.journal");
        let id = id();
        let w = JournalWriter::create(&path, &id).unwrap();
        let e0 =
            JournalEntry::Ok { index: 0, attempts: 1, secs: 1.5, cost: 0.1, point: sample_point() };
        let e3 = JournalEntry::Skip { index: 3, attempts: 2, secs: 9.0, cost: 0.0, reason: "x".into() };
        w.append(&e0).unwrap();
        w.append(&e3).unwrap();
        // Appends are grouped by the writer plane; finish() flushes them
        // (and reports the session's commit accounting).
        let stats = w.finish().unwrap();
        assert_eq!(stats.entries, 2);
        assert!(stats.group_commits >= 1);
        let state = load(&path, &id).unwrap();
        assert_eq!(state.entries.len(), 2);
        assert_eq!(state.entries[&0], e0);
        assert_eq!(state.entries[&3], e3);
        let len = std::fs::metadata(&path).unwrap().len();
        assert_eq!(state.valid_bytes, len, "a clean journal is trusted in full");
        assert_eq!(state.torn_bytes, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_final_line_is_ignored() {
        let path = tmp_dir().join("torn.journal");
        let id = id();
        let w = JournalWriter::create(&path, &id).unwrap();
        let e0 =
            JournalEntry::Ok { index: 0, attempts: 1, secs: 1.5, cost: 0.1, point: sample_point() };
        w.append(&e0).unwrap();
        drop(w);
        let clean_len = std::fs::metadata(&path).unwrap().len();
        // Simulate a mid-append kill: half an entry, no trailing newline.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("ok\t1\t1\t2.5");
        std::fs::write(&path, &text).unwrap();
        let state = load(&path, &id).unwrap();
        assert_eq!(state.entries.len(), 1, "torn tail must be dropped");
        assert_eq!(state.valid_bytes, clean_len, "trusted prefix excludes the tear");
        assert_eq!(state.torn_bytes, "ok\t1\t1\t2.5".len() as u64);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn parseable_torn_tail_is_still_dropped() {
        // A tear inside the final numeric field leaves a shorter number
        // that parses fine; trusting it would restore a corrupted value.
        let path = tmp_dir().join("torn-parseable.journal");
        let id = id();
        let w = JournalWriter::create(&path, &id).unwrap();
        let e0 =
            JournalEntry::Ok { index: 0, attempts: 1, secs: 1.5, cost: 0.1, point: sample_point() };
        w.append(&e0).unwrap();
        drop(w);
        let e1 =
            JournalEntry::Ok { index: 1, attempts: 1, secs: 2.5, cost: 0.2, point: sample_point() };
        let full = e1.to_line();
        // Chop the trailing "5" of cost_improvement=0.75 → "0.7" still
        // parses as all 22 fields, but the value is wrong.
        let torn = &full[..full.len() - 1];
        assert!(JournalEntry::parse(torn, 4).is_ok(), "tear must parse to exercise the bug");
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str(torn);
        std::fs::write(&path, &text).unwrap();
        let state = load(&path, &id).unwrap();
        assert_eq!(state.entries.len(), 1, "an unterminated line is never trusted");
        assert!(!state.entries.contains_key(&1));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resume_truncates_torn_tail_before_appending() {
        // Kill mid-append, resume, write the re-run point: the journal must
        // end up byte-identical to one that never tore — appending without
        // truncation would weld the new entry onto the torn fragment and
        // poison the next load.
        let path = tmp_dir().join("torn-then-append.journal");
        let id = id();
        let w = JournalWriter::create(&path, &id).unwrap();
        let e0 =
            JournalEntry::Ok { index: 0, attempts: 1, secs: 1.5, cost: 0.1, point: sample_point() };
        w.append(&e0).unwrap();
        drop(w);
        let e1 =
            JournalEntry::Ok { index: 1, attempts: 2, secs: 2.5, cost: 0.2, point: sample_point() };
        let mut text = std::fs::read_to_string(&path).unwrap();
        let clean = text.clone();
        text.push_str(&e1.to_line()[..10]); // torn fragment, no newline
        std::fs::write(&path, &text).unwrap();

        let state = load(&path, &id).unwrap();
        let w = JournalWriter::resume(&path, state.valid_bytes).unwrap();
        w.append(&e1).unwrap();
        drop(w);

        let resumed = std::fs::read_to_string(&path).unwrap();
        assert_eq!(resumed, format!("{clean}{}\n", e1.to_line()));
        let state = load(&path, &id).unwrap();
        assert_eq!(state.entries.len(), 2);
        assert_eq!(state.entries[&1], e1);
        assert_eq!(state.torn_bytes, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn wrong_campaign_is_a_typed_journal_error() {
        let path = tmp_dir().join("mismatch.journal");
        let id = id();
        JournalWriter::create(&path, &id).unwrap();
        let other = CampaignId { fingerprint: 1, ..id };
        match load(&path, &other) {
            Err(AcicError::Journal { reason, .. }) => {
                assert!(reason.contains("different campaign"), "{reason}");
            }
            other => panic!("expected Journal error, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_bodies_are_typed_errors() {
        let id = id();
        assert!(parse("", &id).is_err());
        assert!(parse("acic-journal v99\n", &id).is_err());
        assert!(parse("acic-journal v1\n", &id).is_err(), "v1 journals are rejected");
        assert!(parse(JOURNAL_VERSION, &id).is_err(), "torn version header");
        assert!(parse(&format!("{JOURNAL_VERSION}\n"), &id).is_err());
        // A completed (newline-terminated) garbage line is NOT torn — error.
        let text = format!("{}garbage\tline\n", id_header(&id));
        assert!(parse(&text, &id).is_err());
        // Out-of-range index.
        let e = JournalEntry::Skip { index: 99, attempts: 1, secs: 0.0, cost: 0.0, reason: "r".into() };
        let text = format!("{}{}\n", id_header(&id), e.to_line());
        match parse(&text, &id) {
            Err(reason) => assert!(reason.contains("out of range"), "{reason}"),
            Ok(_) => panic!("out-of-range index must be rejected"),
        }
    }

    fn id_header(id: &CampaignId) -> String {
        id.header()
    }

    /// The `format!` entry writer the digit loops replaced, kept verbatim
    /// as the byte oracle.
    fn to_line_oracle(entry: &JournalEntry) -> String {
        match entry {
            JournalEntry::Ok { index, attempts, secs, cost, point } => {
                format!("ok\t{index}\t{attempts}\t{secs}\t{cost}\t{}", oracle::point_to_line(point))
            }
            JournalEntry::Skip { index, attempts, secs, cost, reason } => {
                let clean: String =
                    reason.chars().map(|c| if c == '\t' || c == '\n' { ' ' } else { c }).collect();
                format!("skip\t{index}\t{attempts}\t{secs}\t{cost}\t{clean}")
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Entry lines equal the oracle's bytes on arbitrary bit patterns
        /// and full integer ranges, and parse back to the same bits.
        #[test]
        fn entry_codec_matches_the_format_string_oracle(
            point in oracle::any_point(),
            index in oracle::any_u64(),
            attempts in oracle::any_u64(),
            secs in oracle::any_f64(),
            cost in oracle::any_f64(),
            reason in prop::sample::select(vec!["", "lost\tserver\nlink", "ünïcode\t→"]),
        ) {
            let (index, attempts) = (index as usize, attempts as u32);
            let ok = JournalEntry::Ok { index, attempts, secs, cost, point };
            let skip = JournalEntry::Skip { index, attempts, secs, cost, reason: reason.into() };
            prop_assert_eq!(ok.to_line(), to_line_oracle(&ok));
            prop_assert_eq!(skip.to_line(), to_line_oracle(&skip));

            let point = oracle::lossless(point);
            let ok = JournalEntry::Ok { index, attempts, secs, cost, point };
            match JournalEntry::parse(&ok.to_line(), 3).unwrap() {
                JournalEntry::Ok { index: i, attempts: a, secs: s, cost: c, point: p } => {
                    prop_assert_eq!((i, a), (index, attempts));
                    let same =
                        |x: f64, y: f64| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan());
                    prop_assert!(same(s, secs) && same(c, cost));
                    prop_assert!(oracle::same_bits(&p, &point));
                }
                other => prop_assert!(false, "parsed as {:?}", other),
            }
            match JournalEntry::parse(&skip.to_line(), 4).unwrap() {
                JournalEntry::Skip { reason: r, .. } => {
                    prop_assert_eq!(r, reason.replace(['\t', '\n'], " "))
                }
                other => prop_assert!(false, "parsed as {:?}", other),
            }
        }
    }

    #[test]
    fn missing_file_is_a_typed_io_error() {
        let path = tmp_dir().join("definitely-not-there.journal");
        match load(&path, &id()) {
            Err(AcicError::Io { path: p, .. }) => assert!(p.contains("definitely-not-there")),
            other => panic!("expected Io error, got {other:?}"),
        }
    }
}
