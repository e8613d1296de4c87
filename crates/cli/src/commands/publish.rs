//! `acic publish` — cut a serving snapshot from the durable training
//! store.
//!
//! Opens the store (repairing a torn WAL tail as it goes), compacts its
//! WAL into the MANIFEST's canonical sample set, and writes a
//! [`PublishedSnapshot`] the serving layer loads with `--snapshot` (or
//! watches with `serve --watch`).  Publishing is *incremental*: when the
//! existing snapshot already carries the same canonical-set hash, seed,
//! and model kind, nothing is retrained and nothing is rewritten — the
//! file's bytes (and any watcher's view of it) are untouched.

use crate::args::Args;
use acic::store::{model_code, parse_model_code};
use acic::{Metrics, Predictor, PublishedSnapshot, Store};
use acic_cart::ModelKind;
use std::path::Path;

/// Parse `--model`: the friendly words `recommend` accepts plus explicit
/// snapshot codes (`forest:12`, `knn:3`).
pub fn parse_model_flag(word: &str) -> Result<ModelKind, String> {
    match word {
        "cart" => Ok(ModelKind::Cart),
        "forest" => Ok(ModelKind::Forest { n_trees: 25 }),
        "knn" => Ok(ModelKind::Knn { k: 7 }),
        other => parse_model_code(other)
            .map_err(|_| format!("invalid --model {other:?} (cart, forest[:N], or knn[:K])")),
    }
}

pub fn run(args: &Args) -> Result<(), String> {
    args.reject_unknown(&["store", "out", "seed", "model", "force", "report"])?;
    let store_dir = args.get("store").ok_or("--store DIR is required")?;
    let out = args.get("out").ok_or("--out FILE is required")?;
    let seed: u64 = args.parse_or("seed", 20131117)?;
    let model = parse_model_flag(args.get_or("model", "cart"))?;
    let metrics = Metrics::new();

    let mut store = Store::open(Path::new(store_dir)).map_err(|e| e.to_string())?;
    let report = store.open_report();
    eprintln!(
        "store {store_dir}: {} samples ({} compacted, {} in WAL)",
        store.len(),
        report.compacted_samples,
        report.wal_samples
    );
    if report.repaired() {
        eprintln!(
            "repaired on open: {} torn WAL byte(s) truncated, {} duplicate WAL line(s) absorbed",
            report.torn_wal_bytes, report.wal_duplicates
        );
    }
    if store.is_empty() {
        return Err(format!("store {store_dir} holds no samples; run `acic train --store` first"));
    }

    // Compaction hashes the canonical set it leaves in the store.
    let hash = {
        let _span = metrics.span("phase.compact");
        let c = store.compact().map_err(|e| e.to_string())?;
        if c.changed {
            eprintln!(
                "compacted the WAL into {} canonical samples ({} duplicate(s) dropped)",
                c.samples, c.duplicates_dropped
            );
        }
        c.hash
    };

    // Incremental publish: identical (hash, seed, model) means the bytes
    // on disk would come out identical — skip the retrain and the write.
    // The full read verifies the old file's every line and its hash, so a
    // snapshot with a corrupt body is rewritten, not kept.
    if !args.flag("force") {
        if let Ok(existing) = PublishedSnapshot::read(Path::new(out)) {
            if existing.hash == hash && existing.seed == seed && existing.model == model {
                eprintln!(
                    "snapshot {out} is up to date (hash {hash:016x}, seed {seed}, model {})",
                    model_code(model)
                );
                return Ok(());
            }
        }
    }

    let snapshot = PublishedSnapshot { hash, seed, model, samples: store.canonical() };
    {
        // Validation fit: never publish a snapshot the serving layer
        // cannot train from.
        let _span = metrics.span("phase.train");
        Predictor::train_with(&snapshot.to_training_db(), seed, model)
            .map_err(|e| format!("snapshot failed its validation fit: {e}"))?;
    }
    snapshot.write(Path::new(out)).map_err(|e| e.to_string())?;
    eprintln!(
        "published {} samples to {out} (hash {hash:016x}, seed {seed}, model {})",
        snapshot.samples.len(),
        model_code(model)
    );
    if args.flag("report") {
        eprint!("{}", metrics.render());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use acic::Trainer;

    #[test]
    fn a_version_1_snapshot_is_rewritten_not_kept() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/test-stores/cli-v1");
        let _ = std::fs::remove_dir_all(&dir);
        let (store, out) = (dir.join("store"), dir.join("snap.txt"));
        let db = Trainer::with_paper_ranking(7).collect(3).unwrap();
        let snapshot = PublishedSnapshot::from_db(&db, 7, ModelKind::Cart);
        Store::open(&store).unwrap().ingest(&snapshot.samples).unwrap();
        let argv = ["publish", "--store", store.to_str().unwrap(), "--out", out.to_str().unwrap()];
        let args = Args::parse(argv.map(String::from)).unwrap();
        run(&args).unwrap();
        let v2 = std::fs::read_to_string(&out).unwrap();
        assert!(v2.starts_with("acic-snapshot v2\n"), "{v2}");

        // The same samples, hash field and header under the old version
        // line: unreadable, so not up to date, so published again.
        std::fs::write(&out, v2.replacen("acic-snapshot v2", "acic-snapshot v1", 1)).unwrap();
        run(&args).unwrap();
        assert_eq!(std::fs::read_to_string(&out).unwrap(), v2);
    }
}
