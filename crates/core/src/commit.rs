//! Group-commit writer plane for campaign durability.
//!
//! PR 6 drove simulation to ~50 µs per training point, which left the
//! durability path as the campaign bottleneck: one `write_all` (and, for
//! real durability, one `fsync`) per point, issued inline from the rayon
//! collection loop under a global file mutex.  This module replaces that
//! with the classic database group commit: producers hand finished lines
//! to a dedicated writer thread over a bounded channel, and the writer
//! coalesces up to [`CommitConfig::batch`] lines into a single
//! `write_all` + `sync_data` pair, amortizing the per-commit syscall and
//! flush cost across the batch.
//!
//! Two invariants make this safe to drop into the journal's existing
//! crash semantics:
//!
//! * **Whole-line flushes.**  Every submitted unit is one complete,
//!   newline-terminated line, and a group is a concatenation of complete
//!   lines written by one `write_all`.  A kill therefore still tears at
//!   most the *final* line of the file — exactly the tear the journal
//!   loader already truncates — no matter how many lines the interrupted
//!   group carried.
//! * **Sequence-ordered emission.**  Producers label each line with a
//!   dense sequence number; the writer buffers out-of-order arrivals and
//!   only ever commits the consecutive ready prefix.  File bytes are thus
//!   a pure function of the submitted lines, independent of worker count,
//!   scheduling, and batch size — a campaign journaled with `batch=32` is
//!   byte-identical to one journaled with `batch=1`, and a killed run's
//!   file is always a prefix of the clean run's file.
//!
//! `batch = 1` degenerates to one durable commit per line — the per-point
//! oracle that `tests/resilience.rs` compares the default width against,
//! byte for byte.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, Write as _};
use std::sync::mpsc::{Receiver, SyncSender};
use std::thread::JoinHandle;

/// Default lines coalesced per group commit (the width every CLI campaign
/// commits at).
/// Tuned for campaign-scale point rates: large enough to collapse a
/// 96-point campaign into a handful of fsyncs, small enough that a kill
/// loses at most a few tens of milliseconds of finished work.
pub const DEFAULT_COMMIT_BATCH: usize = 32;

/// How the writer plane commits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitConfig {
    /// Maximum whole lines coalesced into one commit (`>= 1`; `1` is the
    /// per-point oracle: one durable commit per line).
    pub batch: usize,
    /// Issue `sync_data` after each group so a commit is durable, not
    /// just buffered in the page cache.  Tests that only care about byte
    /// layout may turn this off.
    pub sync: bool,
}

impl Default for CommitConfig {
    fn default() -> Self {
        Self { batch: DEFAULT_COMMIT_BATCH, sync: true }
    }
}

impl CommitConfig {
    /// The per-point oracle: every line is its own durable commit
    /// (the pre-group-commit behavior, kept as the byte-identity baseline).
    pub fn per_point() -> Self {
        Self { batch: 1, sync: true }
    }

    /// `batch` clamped to a sane floor.
    pub fn batch(&self) -> usize {
        self.batch.max(1)
    }
}

/// What one writer-plane session did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommitStats {
    /// Lines accepted by the writer.
    pub entries: u64,
    /// Group commits issued (each one `write_all`, plus one `sync_data`
    /// when [`CommitConfig::sync`]).  Always `ceil(entries / batch)` for
    /// a completed session — group formation is deterministic.
    pub group_commits: u64,
    /// Most lines ever buffered in the writer awaiting commit (reorder
    /// buffer + accumulation toward a full batch).
    pub queue_high_water: u64,
    /// Lines abandoned because their sequence predecessors never arrived
    /// (only possible when a producer died mid-campaign; committing past
    /// a hole would break prefix semantics).
    pub dropped: u64,
}

/// A dedicated writer thread behind a bounded channel, committing
/// sequence-ordered whole lines in groups.  Producers call [`submit`]
/// from any thread; all I/O errors surface at [`finish`] (or are
/// swallowed by drop — callers that care must call `finish`).
///
/// [`submit`]: CommitPlane::submit
/// [`finish`]: CommitPlane::finish
#[derive(Debug)]
pub struct CommitPlane {
    tx: Option<SyncSender<(u64, String)>>,
    worker: Option<JoinHandle<io::Result<CommitStats>>>,
}

impl CommitPlane {
    /// Take ownership of `file` (positioned where appends belong) and
    /// start the writer thread.
    pub fn spawn(file: File, cfg: CommitConfig) -> Self {
        let batch = cfg.batch();
        // The bound is backpressure, not correctness: the writer always
        // drains into its reorder buffer, so producers only block while a
        // commit is physically in flight.
        let (tx, rx) = std::sync::mpsc::sync_channel(batch.saturating_mul(4).max(64));
        let worker = std::thread::Builder::new()
            .name("acic-commit".into())
            .spawn(move || writer_loop(file, rx, batch, cfg.sync))
            .expect("spawn commit writer thread");
        Self { tx: Some(tx), worker: Some(worker) }
    }

    /// Enqueue line `seq` (newline-terminated).  Sequence numbers must be
    /// dense from 0, each submitted exactly once; the line is committed
    /// once every lower sequence number has been committed before it.
    /// A send after the writer died is dropped here — the underlying I/O
    /// error is what [`Self::finish`] returns.
    pub fn submit(&self, seq: u64, line: String) {
        debug_assert!(line.ends_with('\n'), "commit unit must be a whole line");
        if let Some(tx) = &self.tx {
            let _ = tx.send((seq, line));
        }
    }

    /// Close the channel, flush everything committed-able, and join the
    /// writer, returning its stats or the first I/O error it hit.
    pub fn finish(mut self) -> io::Result<CommitStats> {
        self.tx.take();
        match self.worker.take() {
            Some(h) => h
                .join()
                .unwrap_or_else(|_| Err(io::Error::other("commit writer panicked"))),
            None => Ok(CommitStats::default()),
        }
    }
}

impl Drop for CommitPlane {
    fn drop(&mut self) {
        // Best-effort flush: close the channel and wait for the writer to
        // drain.  Errors are unreportable here; `finish` exists for
        // callers that need them.
        self.tx.take();
        if let Some(h) = self.worker.take() {
            let _ = h.join();
        }
    }
}

fn writer_loop(
    mut file: File,
    rx: Receiver<(u64, String)>,
    batch: usize,
    sync: bool,
) -> io::Result<CommitStats> {
    let mut pending: BTreeMap<u64, String> = BTreeMap::new();
    let mut next: u64 = 0;
    let mut stats = CommitStats::default();
    let mut open = true;
    let mut buf = String::new();
    while open || !pending.is_empty() {
        if open {
            // Block for one line, then drain whatever else already
            // arrived — commits coalesce naturally under load.
            match rx.recv() {
                Ok((seq, line)) => {
                    pending.insert(seq, line);
                    stats.entries += 1;
                }
                Err(_) => open = false,
            }
            while let Ok((seq, line)) = rx.try_recv() {
                pending.insert(seq, line);
                stats.entries += 1;
            }
        }
        stats.queue_high_water = stats.queue_high_water.max(pending.len() as u64);

        // Commit full groups of the consecutive ready prefix; partial
        // groups only once the channel is closed (so group formation —
        // and therefore `group_commits` — is deterministic).
        loop {
            let mut ready = 0usize;
            for (&seq, _) in pending.range(next..) {
                if seq != next + ready as u64 || ready == batch {
                    break;
                }
                ready += 1;
            }
            let take = if ready >= batch {
                batch
            } else if !open {
                ready
            } else {
                0
            };
            if take == 0 {
                break;
            }
            buf.clear();
            for _ in 0..take {
                buf.push_str(&pending.remove(&next).expect("consecutive ready prefix"));
                next += 1;
            }
            file.write_all(buf.as_bytes())?;
            if sync {
                file.sync_data()?;
            }
            stats.group_commits += 1;
        }
        if !open && !pending.is_empty() {
            // A hole below the remaining sequence numbers will never fill
            // (their producer died).  Committing past it would reorder
            // the file relative to a clean run; drop instead.
            stats.dropped = pending.len() as u64;
            break;
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let d = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/test-commit");
        std::fs::create_dir_all(&d).unwrap();
        d.join(name)
    }

    fn plane_over(name: &str, cfg: CommitConfig) -> (CommitPlane, PathBuf) {
        let path = tmp(name);
        let file = File::create(&path).unwrap();
        (CommitPlane::spawn(file, cfg), path)
    }

    #[test]
    fn out_of_order_submissions_commit_in_sequence_order() {
        let (plane, path) =
            plane_over("reorder.txt", CommitConfig { batch: 3, sync: false });
        for seq in [4u64, 1, 0, 3, 2, 5] {
            plane.submit(seq, format!("line {seq}\n"));
        }
        let stats = plane.finish().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "line 0\nline 1\nline 2\nline 3\nline 4\nline 5\n");
        assert_eq!(stats.entries, 6);
        assert_eq!(stats.dropped, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn group_count_is_ceil_entries_over_batch() {
        for (n, batch, groups) in [(96u64, 32usize, 3u64), (7, 3, 3), (1, 32, 1), (5, 1, 5)] {
            let (plane, path) = plane_over(
                &format!("groups-{n}-{batch}.txt"),
                CommitConfig { batch, sync: false },
            );
            for seq in 0..n {
                plane.submit(seq, format!("{seq}\n"));
            }
            let stats = plane.finish().unwrap();
            assert_eq!(stats.entries, n);
            assert_eq!(stats.group_commits, groups, "n={n} batch={batch}");
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn bytes_are_identical_across_batch_sizes() {
        let mut renders = Vec::new();
        for batch in [1usize, 2, 7, 64] {
            let (plane, path) = plane_over(
                &format!("batchsize-{batch}.txt"),
                CommitConfig { batch, sync: false },
            );
            for seq in 0..20u64 {
                // Submit in a scrambled but valid order.
                let s = (seq * 7) % 20;
                plane.submit(s, format!("entry {s}\n"));
            }
            plane.finish().unwrap();
            renders.push(std::fs::read_to_string(&path).unwrap());
            std::fs::remove_file(&path).unwrap();
        }
        assert!(renders.windows(2).all(|w| w[0] == w[1]), "batch size changed bytes");
    }

    #[test]
    fn a_sequence_hole_drops_the_stranded_suffix() {
        let (plane, path) = plane_over("hole.txt", CommitConfig { batch: 4, sync: false });
        for seq in [0u64, 1, 3, 4] {
            plane.submit(seq, format!("line {seq}\n"));
        }
        let stats = plane.finish().unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "line 0\nline 1\n");
        assert_eq!(stats.dropped, 2, "lines past the hole must not commit");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn drop_flushes_like_finish() {
        let (plane, path) = plane_over("dropflush.txt", CommitConfig { batch: 32, sync: false });
        for seq in 0..5u64 {
            plane.submit(seq, format!("line {seq}\n"));
        }
        drop(plane);
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "line 0\nline 1\nline 2\nline 3\nline 4\n"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn concurrent_producers_never_tear_or_reorder() {
        let (plane, path) = plane_over("concurrent.txt", CommitConfig { batch: 5, sync: false });
        std::thread::scope(|s| {
            for w in 0..4u64 {
                let plane = &plane;
                s.spawn(move || {
                    for seq in (w..64).step_by(4) {
                        plane.submit(seq, format!("worker line {seq}\n"));
                    }
                });
            }
        });
        let stats = plane.finish().unwrap();
        assert_eq!(stats.entries, 64);
        let expect: String = (0..64).map(|i| format!("worker line {i}\n")).collect();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), expect);
        std::fs::remove_file(&path).unwrap();
    }
}
