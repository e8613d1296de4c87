//! Scenario: the crowdsourced training-database service (paper §2's
//! "community members build and share a public performance/cost
//! database").
//!
//! ```sh
//! cargo run --release --example community_database
//! ```
//!
//! One user bootstraps a sparse database and publishes it as a snapshot
//! file (the format `acic train --out` and `acic publish` write); another
//! downloads it, has its sample count and content hash checked, gets
//! recommendations immediately, then
//! piggy-backs extra IOR runs in the residual time of their paid
//! instance-hours and contributes the new points back; finally the
//! database ages out stale points after a (simulated) hardware refresh.

use acic_repro::acic::space::SpacePoint;
use acic_repro::acic::{Acic, Objective, PublishedSnapshot};
use acic_repro::apps::{AppModel, MadBench2};
use acic_repro::cart::ModelKind;
use acic_repro::cloudsim::pricing::CostModel;
use acic_repro::cloudsim::units::mib;

fn main() {
    // --- User A: initial sparse training, shared as a snapshot. ---
    println!("[user A] bootstrapping a sparse database (top 5 dimensions)...");
    let a = Acic::with_paper_ranking(5, 1).expect("bootstrap failed");
    let shared = PublishedSnapshot::from_db(&a.db, 1, ModelKind::Cart).render();
    println!(
        "[user A] sharing {} points ({} KiB snapshot, ${:.2} collection cost)",
        a.db.len(),
        shared.len() / 1024,
        a.db.collect_cost_usd
    );

    // --- User B: download, verify, and query without any training.  A
    // download that lost or changed a sample fails its count or hash. ---
    let downloaded = PublishedSnapshot::parse(&shared).expect("corrupt download");
    let mut b = Acic::from_db(downloaded.to_training_db(), 2).expect("model fit failed");
    let app = MadBench2::paper(64);
    let before = b.recommend_for(&app, Objective::Cost, 1).expect("query failed")[0];
    println!(
        "[user B] instant recommendation for {}: {} (predicted {:.2}x)",
        app.name(),
        before.config.notation(),
        before.predicted_improvement
    );

    // --- User B piggy-backs contributions in residual instance time. ---
    let cost_model = CostModel::default();
    let residual = cost_model.residual_secs(app.workload().total_compute_secs() + 400.0);
    println!(
        "[user B] after the application run, {:.0}s of the paid hour remain — \
         running extra IOR points for free",
        residual
    );
    let mut extra = Vec::new();
    for (i, ds) in [mib(8.0), mib(64.0), mib(256.0)].iter().enumerate() {
        let mut p = SpacePoint::default_point();
        p.app.data_size = *ds;
        p.system.fs = acic_repro::fsim::FsType::Pvfs2;
        p.system.io_servers = [1, 2, 4][i];
        p.system.stripe_size = mib(4.0);
        extra.push(p.normalized());
    }
    let before_len = b.db.len();
    b.contribute(&extra).expect("contribution failed");
    println!(
        "[user B] contributed {} new points (database: {} → {})",
        extra.len(),
        before_len,
        b.db.len()
    );

    // --- Hardware refresh: age out the oldest points. ---
    let keep = b.db.len() - 2;
    b.db.age_to(keep);
    println!("[service] data aging after platform upgrade: {} points retained", b.db.len());

    let after = b.recommend_for(&app, Objective::Cost, 1).expect("query failed")[0];
    println!(
        "[user B] refreshed recommendation: {} (predicted {:.2}x)",
        after.config.notation(),
        after.predicted_improvement
    );
}
