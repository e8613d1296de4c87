//! Integration tests for the multi-node serve tier: ring stability under
//! membership change, deterministic replay across node counts, chaos
//! (kill → rejoin) equivalence, replication verification, and global shed
//! accounting.

use acic::{AcicError, Metrics, Predictor, PublishedSnapshot, Trainer};
use acic_cart::ModelKind;
use acic_cloudsim::instance::InstanceType;
use acic_serve::cluster::harness::{render_payload, replay, KillPlan, ReplayOptions, Trace};
use acic_serve::cluster::{Cluster, ClusterConfig, ClusterError, NodeId, Ring};
use acic_serve::{Request, Response, ServeConfig, SnapshotStore};
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

/// The shared model artifact: a small deterministic training campaign
/// wrapped as a self-describing snapshot.
fn artifact() -> PublishedSnapshot {
    let db = Trainer::with_paper_ranking(5).collect(3).unwrap();
    PublishedSnapshot::from_db(&db, 5, ModelKind::Cart)
}

fn cluster(nodes: usize) -> Cluster {
    Cluster::start(artifact(), ClusterConfig::with_nodes(nodes), Metrics::new()).unwrap()
}

/// `count` distinct canonical cache keys sampled from a trace pool.
fn sampled_keys(seed: u64, count: usize) -> Vec<acic::CacheKey> {
    let trace = Trace::with_pool(seed, 0, 4 * count);
    let mut seen = HashSet::new();
    let mut keys = Vec::new();
    for req in trace.pool() {
        let key = req.key(InstanceType::Cc2_8xlarge);
        if seen.insert(key.stable_hash()) {
            keys.push(key);
            if keys.len() == count {
                break;
            }
        }
    }
    keys
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Satellite: removing (or adding) one node from an N-node ring moves
    /// at most ~K/N of K sampled keys — and only keys the membership
    /// change could legitimately move.
    #[test]
    fn ring_membership_change_moves_a_bounded_key_fraction(
        n in 2u32..=8,
        seed in 0u64..10_000,
        removed_slot in 0u32..8,
    ) {
        prop_assume!(removed_slot < n);
        let keys = sampled_keys(seed, 256);
        prop_assume!(keys.len() >= 128);
        let k = keys.len();
        let full = Ring::new((0..n).map(NodeId)).unwrap();
        let removed = NodeId(removed_slot);

        // Removal: only the removed node's keys move, and its share is
        // ~K/N (3x slack + additive cushion covers sampling variance).
        let reduced = full.without_member(removed).unwrap();
        let mut moved_out = 0usize;
        for key in &keys {
            let before = full.owner(key);
            let after = reduced.owner(key);
            if before != after {
                prop_assert_eq!(before, removed, "an unaffected key moved on removal");
                moved_out += 1;
            } else {
                prop_assert!(before != removed || n == 1);
            }
        }
        let bound = 3 * k / n as usize + 16;
        prop_assert!(
            moved_out <= bound,
            "removal moved {moved_out}/{k} keys from an {n}-node ring (bound {bound})"
        );

        // Addition: only keys the newcomer wins move, share ~K/(N+1).
        let newcomer = NodeId(n);
        let grown = full.with_member(newcomer).unwrap();
        let mut moved_in = 0usize;
        for key in &keys {
            if full.owner(key) != grown.owner(key) {
                prop_assert_eq!(grown.owner(key), newcomer, "a key moved to a non-new node on add");
                moved_in += 1;
            }
        }
        let bound = 3 * k / (n as usize + 1) + 16;
        prop_assert!(
            moved_in <= bound,
            "adding a node moved {moved_in}/{k} keys onto an {n}-node ring (bound {bound})"
        );
    }

    /// Satellite: routing is identical across repeated ring constructions
    /// from the same membership, regardless of construction order.
    #[test]
    fn ring_routing_is_identical_across_reconstructions(
        n in 1u32..=8,
        seed in 0u64..10_000,
        rotation in 0u32..8,
    ) {
        let keys = sampled_keys(seed, 128);
        let members: Vec<NodeId> = (0..n).map(NodeId).collect();
        let canonical = Ring::new(members.iter().copied()).unwrap();
        // Rebuild from a rotated (and once reversed) member order.
        let r = (rotation % n) as usize;
        let rotated: Vec<NodeId> =
            members[r..].iter().chain(&members[..r]).copied().collect();
        let rebuilt = Ring::new(rotated).unwrap();
        let reversed = Ring::new(members.iter().rev().copied()).unwrap();
        for key in &keys {
            let owner = canonical.owner(key);
            prop_assert_eq!(owner, rebuilt.owner(key));
            prop_assert_eq!(owner, reversed.owner(key));
            prop_assert!(canonical.contains(owner));
        }
    }
}

proptest! {
    // Full cluster replays are heavy; a few sampled schedules suffice —
    // each case replays the trace twice over freshly started clusters.
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Satellite (chaos): kill a proptest-chosen node mid-replay, rejoin
    /// it later, and compare against a clean run that skips exactly the
    /// shed indices.  Digest, answer count, and the surviving nodes' shed
    /// and cache counters must match; every shed must be explainable by
    /// the kill window and the ring.
    #[test]
    fn kill_rejoin_replay_matches_the_clean_run_on_all_non_shed_requests(
        seed in 0u64..10_000,
        nodes in 2usize..=4,
        kill_slot in 0u32..4,
        kill_at in 60usize..140,
    ) {
        prop_assume!((kill_slot as usize) < nodes);
        let len = 400;
        let rejoin_at = kill_at + 130;
        let trace = Trace::with_pool(seed, len, 64);
        let killed = NodeId(kill_slot);

        let mut faulted = cluster(nodes);
        let fault_opts = ReplayOptions {
            kill: Some(KillPlan { node: killed, kill_at, rejoin_at }),
            ..Default::default()
        };
        let faulted_out = replay(&mut faulted, len, |i| trace.request(i), &fault_opts).unwrap();

        // Every shed is the killed node's, inside the kill window.
        let ring = faulted.ring().clone();
        for &i in &faulted_out.shed {
            prop_assert!((kill_at..rejoin_at).contains(&i), "shed {i} outside kill window");
            let owner = ring.owner(&trace.request(i).key(InstanceType::Cc2_8xlarge));
            prop_assert_eq!(owner, killed, "request {i} shed but owned by a live node");
        }
        prop_assert_eq!(
            faulted.metrics().counter("cluster.requests_shed_node_down"),
            faulted_out.shed.len() as u64
        );
        prop_assert_eq!(faulted.shed_count(), faulted_out.shed.len() as u64);
        prop_assert_eq!(faulted_out.answered + faulted_out.shed.len(), len);

        // Clean reference run over exactly the requests both runs answer.
        let mut reference = cluster(nodes);
        let ref_opts = ReplayOptions {
            skip: faulted_out.shed.iter().copied().collect(),
            ..Default::default()
        };
        let reference_out = replay(&mut reference, len, |i| trace.request(i), &ref_opts).unwrap();
        prop_assert!(reference_out.shed.is_empty());
        prop_assert_eq!(reference_out.answered, faulted_out.answered);
        prop_assert_eq!(
            reference_out.digest, faulted_out.digest,
            "faulted run answered differently from the clean run"
        );

        // Kill does not change ring membership, so every surviving node
        // sees the identical request stream in both runs: cache counters
        // match *exactly* — warm caches survive a peer's death.
        for &node in ring.members() {
            if node == killed {
                // The rejoined node restarted with a cold cache; its
                // correctness is already covered by the digest.  Its
                // post-rejoin counters must still be internally coherent.
                let (hits, misses, _) = faulted.node_cache_stats(node).unwrap();
                prop_assert!(
                    hits + misses <= faulted.node_metrics(node).counter("serve.requests_served")
                );
                continue;
            }
            prop_assert_eq!(
                faulted.node_cache_stats(node).unwrap(),
                reference.node_cache_stats(node).unwrap(),
                "surviving node {} cache counters diverged", node
            );
            prop_assert_eq!(
                faulted.node_metrics(node).counter("serve.requests_shed"),
                reference.node_metrics(node).counter("serve.requests_shed")
            );
        }
        faulted.shutdown();
        reference.shutdown();
    }
}

/// Tentpole: the replay digest is bit-identical across 1-, 2-, and 4-node
/// clusters, including a mid-replay republish (generation turnover).
#[test]
fn replay_is_bit_identical_across_one_two_and_four_nodes() {
    let len = 800;
    let trace = Trace::with_pool(77, len, 96);
    let opts = ReplayOptions { republish_at: Some(len / 2), ..Default::default() };
    let mut digests = Vec::new();
    for nodes in [1usize, 2, 4] {
        let mut c = cluster(nodes);
        let out = replay(&mut c, len, |i| trace.request(i), &opts).unwrap();
        assert_eq!(out.answered, len, "{nodes} nodes");
        assert!(out.shed.is_empty(), "{nodes} nodes");
        assert_eq!(c.generation(), 2, "{nodes} nodes");
        // Global accounting: every request served somewhere, none lost.
        assert_eq!(c.served_count(), len as u64, "{nodes} nodes");
        assert_eq!(c.shed_count(), 0, "{nodes} nodes");
        digests.push(out.digest);
        c.shutdown();
    }
    assert_eq!(digests[0], digests[1], "1-node vs 2-node");
    assert_eq!(digests[0], digests[2], "1-node vs 4-node");
}

/// The fused drain is a batching strategy, not a semantic.  Replaying the
/// same trace (with a mid-replay generation turnover) at batch 1 (one job
/// per drain) and at batch 16 produces identical payloads and per-node
/// cache accounting at every cluster size, and every payload is the
/// snapshot's direct answer.
#[test]
fn batch_1_and_batch_16_replays_are_bit_identical_across_node_counts() {
    let len = 400;
    let trace = Trace::with_pool(91, len, 64);
    let opts = ReplayOptions {
        republish_at: Some(len / 2),
        collect_responses: true,
        ..Default::default()
    };
    let art = artifact();
    let db = art.to_training_db();
    let predictor = Predictor::train_with(&db, art.seed, art.model).unwrap();
    let oracle = SnapshotStore::new(predictor, InstanceType::Cc2_8xlarge, db.len()).load();
    for nodes in [1usize, 2, 4] {
        let mut runs = Vec::new();
        for batch in [1usize, 16] {
            let node = ServeConfig { batch, ..Default::default() };
            let mut c =
                Cluster::start(art.clone(), ClusterConfig { nodes, node }, Metrics::new()).unwrap();
            let out = replay(&mut c, len, |i| trace.request(i), &opts).unwrap();
            assert_eq!(out.answered, len, "{nodes} nodes batch {batch}");
            assert!(out.shed.is_empty(), "{nodes} nodes batch {batch}");
            let cache: Vec<(u64, u64)> = c
                .ring()
                .members()
                .iter()
                .map(|&n| {
                    let (hits, misses, _) = c.node_cache_stats(n).unwrap();
                    (hits, misses)
                })
                .collect();
            runs.push((out.digest, out.responses, cache));
            c.shutdown();
        }
        assert_eq!(runs[0], runs[1], "{nodes} nodes: batch 1 vs batch 16 diverged");
        for (i, payload) in &runs[0].1 {
            let key = trace.request(*i).key(InstanceType::Cc2_8xlarge);
            let direct =
                Response { top: Arc::new(oracle.answer(&key)), snapshot_version: 0, cache_hit: false };
            assert_eq!(*payload, render_payload(&direct), "{nodes} nodes request {i}");
        }
    }
}

/// Replication handshake: a tampered artifact is rejected at publish time
/// with a typed error, the failure is counted, the generation does not
/// advance, and the cluster keeps serving the last good generation.
#[test]
fn tampered_publish_is_rejected_and_the_cluster_keeps_serving() {
    let mut c = cluster(2);
    let client = c.client();
    let req = Trace::with_pool(9, 1, 8).request(0);
    let before = client.query(req).unwrap();
    assert_eq!(before.snapshot_version, 1);

    let mut bad = artifact();
    bad.hash ^= 0xdead_beef;
    match c.publish(bad) {
        Err(AcicError::Store { path, reason }) => {
            assert!(path.starts_with("publish:"), "origin names the transfer: {path}");
            assert!(reason.contains("does not match"), "{reason}");
        }
        other => panic!("tampered publish must fail verification, got {other:?}"),
    }
    assert_eq!(c.generation(), 1, "generation must not advance on a failed publish");
    assert_eq!(c.metrics().counter("cluster.snapshot_verify_failures"), 1);

    let after = client.query(req).unwrap();
    assert_eq!(after.snapshot_version, 1);
    assert_eq!(*after.top, *before.top);
    c.shutdown();
}

/// Global shed accounting: per-node admission sheds (bounded queues) and
/// cluster-level down-node sheds are distinct counters that sum into
/// `Cluster::shed_count`.
#[test]
fn global_shed_accounting_layers_admission_sheds_under_down_node_sheds() {
    let node_cfg = ServeConfig {
        workers: 1,
        queue_depth: 2,
        batch: 1,
        service_stall: Duration::from_millis(5),
        ..Default::default()
    };
    let mut c = Cluster::start(
        artifact(),
        ClusterConfig { nodes: 2, node: node_cfg },
        Metrics::new(),
    )
    .unwrap();
    let client = c.client();

    // Find one request owned by each node.
    let trace = Trace::with_pool(31, 0, 256);
    let owned_by = |node: NodeId| {
        trace
            .pool()
            .iter()
            .copied()
            .find(|r| client.route(r) == node)
            .expect("pool covers both nodes")
    };
    let (req0, req1) = (owned_by(NodeId(0)), owned_by(NodeId(1)));

    // Flood node 0 through admission control: overflow sheds with the
    // typed error and lands in node 0's own registry.
    let mut admitted = Vec::new();
    let mut overloaded = 0u64;
    for _ in 0..40 {
        match client.submit(req0) {
            Ok(pending) => admitted.push(pending),
            Err(ClusterError::Overloaded { node, queue_depth }) => {
                assert_eq!(node, NodeId(0));
                assert_eq!(queue_depth, 2);
                overloaded += 1;
            }
            Err(e) => panic!("unexpected cluster error: {e}"),
        }
    }
    assert!(overloaded > 0, "flooding a depth-2 queue must shed");
    for pending in admitted {
        pending.wait().unwrap();
    }
    assert_eq!(c.node_metrics(NodeId(0)).counter("serve.requests_shed"), overloaded);

    // Kill node 1: requests it owns shed at the transport and land in the
    // cluster registry, not any node's.
    c.kill(NodeId(1)).unwrap();
    for _ in 0..3 {
        assert_eq!(client.submit(req1).err(), Some(ClusterError::NodeDown { node: NodeId(1) }));
    }
    assert_eq!(c.metrics().counter("cluster.requests_shed_node_down"), 3);
    assert_eq!(c.node_metrics(NodeId(1)).counter("serve.requests_shed"), 0);

    assert_eq!(c.shed_count(), overloaded + 3, "global = admission + down-node sheds");
    c.shutdown();
}

/// Trace record → parse → replay round-trip: a replay over the parsed
/// trace file answers identically to a replay over the in-memory trace.
#[test]
fn recorded_trace_replays_identically_to_its_source() {
    let len = 300;
    let trace = Trace::with_pool(55, len, 48);
    let parsed = acic_serve::cluster::harness::parse_trace(&trace.render()).unwrap();
    assert_eq!(parsed.len(), len);

    let mut from_memory = cluster(2);
    let a = replay(&mut from_memory, len, |i| trace.request(i), &ReplayOptions::default()).unwrap();
    from_memory.shutdown();

    let mut from_file = cluster(2);
    let b = replay(&mut from_file, len, |i| parsed[i], &ReplayOptions::default()).unwrap();
    from_file.shutdown();

    assert_eq!(a.digest, b.digest);
    assert_eq!(a.answered, b.answered);
}

/// A rejoined node serves the generation published while it was away.
#[test]
fn rejoining_node_picks_up_generations_published_while_it_was_down() {
    let mut c = cluster(2);
    let client = c.client();
    c.kill(NodeId(1)).unwrap();
    c.republish().unwrap();
    c.republish().unwrap();
    assert_eq!(c.generation(), 3);
    c.rejoin(NodeId(1)).unwrap();
    // Find a request owned by the rejoined node and check its generation.
    let trace = Trace::with_pool(13, 0, 256);
    let req: Request = trace
        .pool()
        .iter()
        .copied()
        .find(|r| client.route(r) == NodeId(1))
        .expect("pool covers both nodes");
    assert_eq!(client.query(req).unwrap().snapshot_version, 3);
    // Replication counters: 2 at start, 2 republishes to 1 live node
    // each... the second republish also reaches only node 0, plus the
    // rejoin replica: 2 + 1 + 1 + 1 = 5 verified, 0 failures.
    assert_eq!(c.metrics().counter("cluster.snapshots_verified"), 5);
    assert_eq!(c.metrics().counter("cluster.snapshot_verify_failures"), 0);
    c.shutdown();
}
