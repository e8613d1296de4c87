//! Emit `BENCH_cluster.json` at the repo root: deterministic replay,
//! kill → rejoin → republish equivalence, and snapshot-replication
//! verification of the `acic-serve` cluster tier.
//!
//! The heart of the benchmark is the determinism gate: a seeded
//! million-request trace replayed through 1-, 2-, and 4-node
//! clusters-in-a-process (with a generation republish mid-way) must
//! produce bit-identical response digests — routing, replication, and
//! per-node concurrency may change *where* and *when* answers happen,
//! never *what* they are.  A second pass kills a node mid-replay, rejoins
//! it, republishes, and must match a clean run over exactly the non-shed
//! requests.
//!
//! The replays record their harness throughput; serve throughput is
//! measured end to end by `bench_e2e`, not gated here.
//!
//! `ACIC_CLUSTER_TRACE_LEN` overrides the trace length for quick local
//! runs; the default is the full million.

use acic::{Metrics, Predictor, PublishedSnapshot, Trainer};
use acic_cart::ModelKind;
use acic_cloudsim::instance::InstanceType;
use acic_serve::cluster::harness::{replay, KillPlan, ReplayOptions, Trace};
use acic_serve::cluster::{Cluster, ClusterConfig, NodeId};
use acic_serve::ServeConfig;
use std::path::Path;
use std::time::Instant;

const TRACE_SEED: u64 = 20130942;
const POOL: usize = 512;

/// Per-node shape used by the replay scenarios.
fn replay_node_cfg() -> ServeConfig {
    ServeConfig { workers: 2, queue_depth: 256, ..Default::default() }
}

fn start(artifact: &PublishedSnapshot, nodes: usize, node: ServeConfig) -> Cluster {
    Cluster::start(artifact.clone(), ClusterConfig { nodes, node }, Metrics::new())
        .expect("cluster starts")
}

/// Verification counters of a cluster, to be summed across every cluster
/// the benchmark starts: (verified, failures).
fn verification(c: &Cluster) -> (u64, u64) {
    (
        c.metrics().counter("cluster.snapshots_verified"),
        c.metrics().counter("cluster.snapshot_verify_failures"),
    )
}

fn main() {
    let seed = 42u64;
    let dims = 4usize;
    eprintln!("training predictor over {dims} dims (seed {seed}) ...");
    let db = Trainer::with_paper_ranking(seed).collect(dims).unwrap();
    let artifact = PublishedSnapshot::from_db(&db, seed, ModelKind::Cart);
    let reference = Predictor::train_with(&db, seed, ModelKind::Cart).unwrap();

    let trace_len: usize = std::env::var("ACIC_CLUSTER_TRACE_LEN")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_000_000);
    let trace = Trace::with_pool(TRACE_SEED, trace_len, POOL);

    // Spot-check the serving path against the direct predictor before the
    // long replays: every pool answer must equal top_k on the refit model.
    {
        let cluster = start(&artifact, 2, replay_node_cfg());
        let client = cluster.client();
        for req in trace.pool().iter().take(64) {
            let resp = client.query(*req).expect("pool query");
            let want = reference.top_k(&req.app, req.objective, InstanceType::Cc2_8xlarge, req.k);
            assert_eq!(*resp.top, want, "cluster answer diverged from the direct predictor");
        }
        cluster.shutdown();
    }

    let mut verified_total = 0u64;
    let mut failures_total = 0u64;

    // --- scenario 1: replay determinism across node counts ----------------
    let republish_at = trace_len / 2;
    eprintln!(
        "replay: {trace_len} requests (pool {POOL}), republish at {republish_at}, \
         nodes 1/2/4 ..."
    );
    let mut digests = Vec::new();
    let mut replay_rps = Vec::new();
    for nodes in [1usize, 2, 4] {
        let mut cluster = start(&artifact, nodes, replay_node_cfg());
        let opts = ReplayOptions { republish_at: Some(republish_at), ..Default::default() };
        let t0 = Instant::now();
        let out = replay(&mut cluster, trace_len, |i| trace.request(i), &opts)
            .expect("deterministic replay");
        let wall = t0.elapsed().as_secs_f64();
        assert_eq!(out.answered, trace_len);
        assert!(out.shed.is_empty(), "no node died; nothing may shed");
        assert_eq!(cluster.served_count(), trace_len as u64);
        assert_eq!(cluster.shed_count(), 0);
        assert_eq!(cluster.generation(), 2);
        let (v, f) = verification(&cluster);
        verified_total += v;
        failures_total += f;
        eprintln!(
            "  {nodes} node(s): digest {:016x}, {:.0} req/s through the harness",
            out.digest,
            trace_len as f64 / wall
        );
        digests.push(out.digest);
        replay_rps.push(trace_len as f64 / wall);
        cluster.shutdown();
    }
    let digests_equal = digests[0] == digests[1] && digests[0] == digests[2];

    // --- scenario 2: kill -> rejoin -> republish ---------------------------
    let kill_at = trace_len / 4;
    let rejoin_at = trace_len / 2;
    let kill_republish_at = 3 * trace_len / 4;
    let killed = NodeId(1);
    eprintln!(
        "chaos: 4 nodes, kill {killed} at {kill_at}, rejoin at {rejoin_at}, republish at \
         {kill_republish_at} ..."
    );
    let mut faulted = start(&artifact, 4, replay_node_cfg());
    let fault_opts = ReplayOptions {
        kill: Some(KillPlan { node: killed, kill_at, rejoin_at }),
        republish_at: Some(kill_republish_at),
        ..Default::default()
    };
    let faulted_out =
        replay(&mut faulted, trace_len, |i| trace.request(i), &fault_opts).expect("chaos replay");
    assert_eq!(faulted_out.answered + faulted_out.shed.len(), trace_len, "every request accounted");
    assert_eq!(
        faulted.shed_count(),
        faulted_out.shed.len() as u64,
        "global shed accounting must match the harness's shed set exactly"
    );
    let ring = faulted.ring().clone();
    for &i in &faulted_out.shed {
        assert!((kill_at..rejoin_at).contains(&i), "shed {i} outside the kill window");
        assert_eq!(
            ring.owner(&trace.request(i).key(InstanceType::Cc2_8xlarge)),
            killed,
            "request {i} shed but owned by a live node"
        );
    }

    eprintln!("chaos reference: clean 4-node run skipping the {} sheds ...", faulted_out.shed.len());
    let mut clean = start(&artifact, 4, replay_node_cfg());
    let clean_opts = ReplayOptions {
        skip: faulted_out.shed.iter().copied().collect(),
        republish_at: Some(kill_republish_at),
        ..Default::default()
    };
    let clean_out =
        replay(&mut clean, trace_len, |i| trace.request(i), &clean_opts).expect("reference replay");
    let kill_digest_match = faulted_out.digest == clean_out.digest;
    assert_eq!(clean_out.answered, faulted_out.answered);

    // Surviving nodes saw identical request streams in both runs: their
    // cache counters must match exactly (the kill moved no keys).
    let mut surviving_counters_match = true;
    for &node in ring.members() {
        if node == killed {
            continue;
        }
        let a = faulted.node_cache_stats(node).expect("live node");
        let b = clean.node_cache_stats(node).expect("live node");
        if a != b {
            eprintln!("  node {node} cache counters diverged: {a:?} vs {b:?}");
            surviving_counters_match = false;
        }
    }
    let (v, f) = verification(&faulted);
    verified_total += v;
    failures_total += f;
    let (v, f) = verification(&clean);
    verified_total += v;
    failures_total += f;
    let shed_count = faulted_out.shed.len();
    faulted.shutdown();
    clean.shutdown();
    eprintln!(
        "  shed {shed_count}, digest match {kill_digest_match}, surviving counters match \
         {surviving_counters_match}"
    );

    let json = format!(
        "{{\n  \"bench\": \"cluster\",\n  \"model\": {{ \"dims\": {dims}, \"db_points\": {db_points}, \"seed\": {seed} }},\n  \"replay\": {{\n    \"trace_len\": {trace_len},\n    \"pool\": {POOL},\n    \"republish_at\": {republish_at},\n    \"digest_nodes_1\": \"{d1:016x}\",\n    \"digest_nodes_2\": \"{d2:016x}\",\n    \"digest_nodes_4\": \"{d4:016x}\",\n    \"replay_digests_equal\": {digests_equal},\n    \"harness_rps_nodes_4\": {rr4:.0}\n  }},\n  \"kill_rejoin\": {{\n    \"nodes\": 4,\n    \"kill_node\": 1,\n    \"kill_at\": {kill_at},\n    \"rejoin_at\": {rejoin_at},\n    \"republish_at\": {kill_republish_at},\n    \"shed\": {shed_count},\n    \"kill_rejoin_digest_match\": {kill_digest_match},\n    \"surviving_cache_counters_match\": {surviving_counters_match}\n  }},\n  \"verification\": {{ \"snapshots_verified\": {verified_total}, \"verify_failures\": {failures_total} }}\n}}\n",
        db_points = db.len(),
        d1 = digests[0],
        d2 = digests[1],
        d4 = digests[2],
        rr4 = replay_rps[2],
    );

    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = root.join("BENCH_cluster.json");
    std::fs::write(&out, &json).expect("write BENCH_cluster.json");
    println!("{json}");
    println!("wrote {}", out.display());

    assert!(digests_equal, "replay digests diverged across node counts: {digests:x?}");
    assert!(kill_digest_match, "kill -> rejoin -> republish run diverged from the clean run");
    assert!(surviving_counters_match, "a surviving node's cache state was disturbed by the kill");
    assert_eq!(failures_total, 0, "snapshot verification failed during replication");
}
