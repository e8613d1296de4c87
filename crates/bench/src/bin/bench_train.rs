//! Emit `BENCH_train.json` beside the executable: campaign collection
//! throughput with the pipelined writer plane against the per-point
//! durable oracle.
//!
//! The headline gate is the tentpole claim: with journal *and* store
//! enabled, group-committed collection (`--commit-batch` default) must
//! sustain **≥3× the campaign points/sec of the per-point oracle**
//! (`--commit-batch 1`: one write+sync pair per journal entry and per
//! WAL line) on the 96-point seeded campaign — while every byte on disk
//! stays identical: journal, database, store MANIFEST, and the
//! published snapshot are compared across modes, and a kill→resume
//! mid-campaign must reproduce the clean run's bytes exactly.
//!
//! The 3× floor only makes sense where durability costs something: on
//! filesystems where `sync_data` is nearly free (fast NVMe with write
//! cache, some CI tmpfs setups) the oracle has nothing to amortize, so
//! the gate first probes the fsync cost of the target directory and
//! downgrades to a no-regression check (`gate_mode: "cheap-sync"`)
//! below 20µs per sync.
//!
//! Runs in seconds; wired into `scripts/tier1.sh`.

use acic::training::CollectOptions;
use acic::{CommitConfig, Store, Trainer};
use acic_bench::db_bytes;
use acic_cart::ModelKind;
use std::fs;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

const DIMS: usize = 5;
const SEED: u64 = 7;
const PAIRS: usize = 5;
const FULL_FLOOR: f64 = 3.0; // speedup gate when durability is real
const CHEAP_FLOOR: f64 = 0.9; // no-regression gate when sync is ~free
const CHEAP_SYNC_US: f64 = 20.0;

/// Median microseconds of a write+sync pair in `dir` — the same
/// filesystem the benchmark runs on (`std::env::temp_dir` may be tmpfs
/// and would misrepresent the cost).
fn probe_fsync_us(dir: &Path) -> f64 {
    let path = dir.join("fsync-probe");
    let mut file = fs::File::create(&path).expect("fsync probe file");
    let mut samples = Vec::with_capacity(64);
    for i in 0..64u32 {
        let line = format!("probe {i}\n");
        let t = Instant::now();
        file.write_all(line.as_bytes()).unwrap();
        file.sync_data().unwrap();
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    drop(file);
    let _ = fs::remove_file(&path);
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// On-disk artifacts of one collected-and-ingested campaign, plus its
/// timing.  Everything here must be bit-identical across commit modes.
struct ModeRun {
    points_per_sec: f64,
    group_commits: usize,
    wal_batches: usize,
    journal: String,
    db: (String, u64, u64),
    manifest: Vec<u8>,
    snapshot: String,
}

/// Run the full durable pipeline once: journaled collection into a
/// fresh store, then compact and cut a published snapshot.  Only the
/// collection + ingest window is timed (compaction/publishing are
/// identical work in both modes and not what the gate measures).
fn run_mode(dir: &Path, batch: usize) -> ModeRun {
    let _ = fs::remove_dir_all(dir);
    fs::create_dir_all(dir).unwrap();
    let journal_path = dir.join("journal.log");
    let store_dir = dir.join("store");
    let commit = CommitConfig { batch, sync: true };

    let trainer = Trainer::with_paper_ranking(SEED);
    let points = trainer.sample_points(DIMS);
    assert_eq!(points.len(), 96, "the seeded campaign must have 96 points");
    let opts = CollectOptions { journal: Some(&journal_path), commit, ..Default::default() };

    let mut store = Store::open(&store_dir).unwrap();
    let t = Instant::now();
    let collection = trainer.collect_with(&points, &opts).unwrap();
    let stats = store
        .ingest_collection_with(&trainer.campaign_id(&points), &collection, commit)
        .unwrap();
    let secs = t.elapsed().as_secs_f64();

    store.compact().unwrap();
    let snapshot =
        acic::PublishedSnapshot::from_db(&store.to_training_db(), SEED, ModelKind::Cart).render();
    ModeRun {
        points_per_sec: points.len() as f64 / secs,
        group_commits: collection.report.group_commits,
        wal_batches: stats.batches,
        journal: fs::read_to_string(&journal_path).unwrap(),
        db: db_bytes(&collection.db),
        manifest: fs::read(store_dir.join("MANIFEST")).unwrap(),
        snapshot,
    }
}

/// Byte-compare every artifact of two runs; returns the divergent ones.
fn diverging(a: &ModeRun, b: &ModeRun) -> Vec<&'static str> {
    let mut d = Vec::new();
    if a.journal != b.journal {
        d.push("journal");
    }
    if a.db != b.db {
        d.push("db");
    }
    if a.manifest != b.manifest {
        d.push("manifest");
    }
    if a.snapshot != b.snapshot {
        d.push("snapshot");
    }
    d
}

fn main() {
    let work = acic_bench::beside_exe("bench-train");
    fs::create_dir_all(&work).unwrap();
    let fsync_us = probe_fsync_us(&work);
    let (gate_mode, floor) = if fsync_us >= CHEAP_SYNC_US {
        ("full", FULL_FLOOR)
    } else {
        ("cheap-sync", CHEAP_FLOOR)
    };
    eprintln!("fsync probe: {fsync_us:.0}µs/sync on {} → {gate_mode} gate (floor {floor}×)", work.display());

    // Alternate oracle/pipelined within each pair so drift (page cache
    // warmup, CPU frequency) hits both modes evenly; gate on the median
    // pair ratio.
    let mut oracle_runs = Vec::new();
    let mut pipelined_runs = Vec::new();
    let mut ratios = Vec::new();
    for pair in 0..PAIRS {
        let oracle = run_mode(&work.join("oracle"), 1);
        let pipelined = run_mode(&work.join("pipelined"), CommitConfig::default().batch);
        eprintln!(
            "pair {pair}: oracle {:.1} pts/s ({} commits), pipelined {:.1} pts/s ({} commits) → {:.2}×",
            oracle.points_per_sec,
            oracle.group_commits,
            pipelined.points_per_sec,
            pipelined.group_commits,
            pipelined.points_per_sec / oracle.points_per_sec,
        );
        ratios.push(pipelined.points_per_sec / oracle.points_per_sec);
        oracle_runs.push(oracle);
        pipelined_runs.push(pipelined);
    }
    ratios.sort_by(f64::total_cmp);
    let speedup = ratios[ratios.len() / 2];

    // Bit-identity across modes: both commit widths must leave the exact
    // same journal, database, MANIFEST, and published snapshot.
    let oracle = &oracle_runs[0];
    let pipelined = &pipelined_runs[0];
    let diverged = diverging(oracle, pipelined);
    for d in &diverged {
        eprintln!("DIVERGENCE: {d} bytes differ between commit modes");
    }
    assert_eq!(
        oracle.group_commits, 96,
        "the per-point oracle must commit every journal entry individually"
    );
    assert!(
        pipelined.group_commits < oracle.group_commits / 8,
        "pipelined mode must coalesce commits (got {} vs oracle {})",
        pipelined.group_commits,
        oracle.group_commits
    );

    // Kill→resume across modes: chop the clean oracle journal at an
    // arbitrary byte offset strictly past the 2-line header, resume with
    // the *pipelined* width, and demand the clean run's exact bytes.
    let dir = work.join("resume");
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    let journal_path = dir.join("journal.log");
    let header_end = oracle
        .journal
        .char_indices()
        .filter(|&(_, c)| c == '\n')
        .nth(1)
        .map(|(i, _)| i + 1)
        .expect("journal header");
    let body_len = oracle.journal.len() - header_end;
    let cut = header_end + (body_len * 3 / 7).max(1); // mid-line, mid-body
    fs::write(&journal_path, &oracle.journal[..cut]).unwrap();
    let trainer = Trainer::with_paper_ranking(SEED);
    let points = trainer.sample_points(DIMS);
    let opts = CollectOptions {
        journal: Some(&journal_path),
        commit: CommitConfig::default(),
        ..Default::default()
    };
    let resumed = trainer.collect_with(&points, &opts).unwrap();
    let resumed_journal = fs::read_to_string(&journal_path).unwrap();
    let resume_identical = resumed_journal == oracle.journal && db_bytes(&resumed.db) == oracle.db;
    assert!(resumed.report.resumed > 0, "the chopped journal must restore some points");
    eprintln!(
        "kill→resume at byte {cut}/{}: {} restored, identical={resume_identical}",
        oracle.journal.len(),
        resumed.report.resumed
    );

    let pass = diverged.is_empty() && resume_identical && speedup >= floor;
    let ratio_list: Vec<String> = ratios.iter().map(|r| format!("{r:.3}")).collect();
    let json = format!(
        "{{\n  \"bench\": \"train\",\n  \"campaign\": {{ \"dims\": {DIMS}, \"seed\": {SEED}, \
         \"points\": 96 }},\n  \"fsync_us\": {fsync_us:.1},\n  \"gate_mode\": \"{gate_mode}\",\n  \
         \"speedup_floor\": {floor},\n  \"oracle\": {{ \"points_per_sec\": {:.1}, \
         \"group_commits\": {}, \"wal_batches\": {} }},\n  \"pipelined\": {{ \
         \"points_per_sec\": {:.1}, \"group_commits\": {}, \"wal_batches\": {}, \
         \"commit_batch\": {} }},\n  \"pair_ratios\": [{}],\n  \"speedup\": {speedup:.3},\n  \
         \"divergences\": {},\n  \"resume_identical\": {resume_identical},\n  \"pass\": {pass}\n}}\n",
        oracle.points_per_sec,
        oracle.group_commits,
        oracle.wal_batches,
        pipelined.points_per_sec,
        pipelined.group_commits,
        pipelined.wal_batches,
        CommitConfig::default().batch,
        ratio_list.join(", "),
        diverged.len(),
    );

    let out = acic_bench::beside_exe("BENCH_train.json");
    fs::write(&out, &json).expect("write BENCH_train.json");
    println!("{json}");
    println!("wrote {}", out.display());

    assert!(diverged.is_empty(), "commit modes diverged on: {diverged:?}");
    assert!(resume_identical, "kill→resume failed to reproduce the clean campaign bytes");
    assert!(
        speedup >= floor,
        "pipelined collection must be ≥{floor}× the per-point oracle ({gate_mode} gate), got {speedup:.3}×"
    );
}
