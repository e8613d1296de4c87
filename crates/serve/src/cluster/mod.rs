//! The multi-node recommendation tier: N [`Server`]s behind a
//! consistent-hash router, replicating one published model artifact.
//!
//! Layout (one process, N nodes — the deployment seam is [`transport`]):
//!
//! * [`ring`] — rendezvous-hash routing of canonical [`acic::CacheKey`]s
//!   over the member set; ownership is deterministic and membership
//!   changes move only the affected keys.
//! * [`transport`] — the loopback endpoint table: synchronous, lossless
//!   dispatch into each node's [`crate::ServeHandle`], with per-node
//!   liveness (a down endpoint sheds deterministically with
//!   [`ClusterError::NodeDown`]).
//! * [`Cluster`] — the control plane: starts each node from a verified
//!   [`PublishedSnapshot`] replica, publishes new generations to every
//!   live node in lockstep, kills and rejoins nodes, and accounts sheds
//!   globally (per-node admission sheds + cluster-level down-node sheds).
//! * [`harness`] — the deterministic replay harness: seeded traces,
//!   windowed pipelined replay, response digests, kill/rejoin schedules.
//!
//! **Replication is verification, not re-training.**  A node never accepts
//! a predictor object from a peer; it receives the self-describing
//! [`PublishedSnapshot`] (samples + seed + model kind), proves the sample
//! set matches the snapshot's content hash ([`PublishedSnapshot::verify`]),
//! and refits deterministically from `(samples, seed, model)` — producing
//! a predictor bit-identical to every peer's without re-running the
//! training campaign.  A tampered or torn replica is a typed
//! [`acic::AcicError::Store`] and a `cluster.snapshot_verify_failures`
//! tick, never a silently divergent node.
//!
//! **Version continuity.**  The cluster owns the generation counter: all
//! nodes start at generation 1, every [`Cluster::publish`] moves the live
//! nodes to the next generation in lockstep, and a rejoining node starts
//! its snapshot store at the cluster's current generation
//! ([`Server::start_at`]) — so snapshot version ids mean the same thing on
//! every node, across kills, for the lifetime of the cluster.

pub mod harness;
pub mod ring;
pub mod transport;

pub use harness::{KillPlan, ReplayOptions, ReplayOutcome, Trace};
pub use ring::{NodeId, Ring};
pub use transport::{ClusterError, Loopback};

use crate::server::{Pending, Request, Response, ServeConfig, Server, INSTANCE_TYPE};
use acic::{AcicError, CacheKey, CounterHandle, Metrics, Predictor, PublishedSnapshot};
use std::sync::Arc;

/// Tuning knobs of a [`Cluster`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of serve nodes (ring members `n0 .. n{nodes-1}`).
    pub nodes: usize,
    /// Per-node server configuration (every node runs the same shape).
    pub node: ServeConfig,
}

impl ClusterConfig {
    /// A cluster of `nodes` nodes with per-node defaults.
    pub fn with_nodes(nodes: usize) -> Self {
        Self { nodes, node: ServeConfig::default() }
    }
}

/// Verify a snapshot replica and refit its predictor deterministically —
/// the receiving half of the replication handshake.  `origin` names the
/// transfer for error messages and counters.
fn replicate(
    artifact: &PublishedSnapshot,
    origin: &str,
    metrics: &Metrics,
) -> Result<(Predictor, usize), AcicError> {
    if let Err(e) = artifact.verify(origin) {
        metrics.incr("cluster.snapshot_verify_failures", 1);
        return Err(e);
    }
    metrics.incr("cluster.snapshots_verified", 1);
    let db = artifact.to_training_db();
    let predictor = Predictor::train_with(&db, artifact.seed, artifact.model)?;
    Ok((predictor, db.len()))
}

/// The cluster control plane: owns the nodes, their ring, the loopback
/// transport, and the current model artifact + generation.
#[derive(Debug)]
pub struct Cluster {
    ring: Ring,
    transport: Arc<Loopback>,
    servers: Vec<Option<Server>>,
    node_metrics: Vec<Metrics>,
    metrics: Metrics,
    node_cfg: ServeConfig,
    artifact: PublishedSnapshot,
    generation: u64,
}

impl Cluster {
    /// Start `cfg.nodes` serve nodes, each from its own verified replica
    /// of `artifact`, all at generation 1.  Fails with a typed error when
    /// the membership is empty, the per-node config cannot serve
    /// ([`ServeConfig::validate`]), or the artifact fails verification on
    /// any node.
    pub fn start(
        artifact: PublishedSnapshot,
        cfg: ClusterConfig,
        metrics: Metrics,
    ) -> Result<Self, AcicError> {
        if cfg.nodes == 0 {
            return Err(AcicError::Invalid("ClusterConfig.nodes must be at least 1 (got 0)".into()));
        }
        let ring = Ring::new((0..cfg.nodes as u32).map(NodeId))?;
        let node_metrics: Vec<Metrics> = (0..cfg.nodes).map(|_| Metrics::new()).collect();
        let mut servers = Vec::with_capacity(cfg.nodes);
        let mut handles = Vec::with_capacity(cfg.nodes);
        for (i, node) in ring.members().iter().enumerate() {
            let (predictor, db_points) =
                replicate(&artifact, &format!("replicate:{node}"), &metrics)?;
            let server =
                Server::start_at(predictor, db_points, cfg.node.clone(), node_metrics[i].clone(), 1)?;
            handles.push(server.handle());
            servers.push(Some(server));
        }
        Ok(Self {
            ring,
            transport: Arc::new(Loopback::new(handles)),
            servers,
            node_metrics,
            metrics,
            node_cfg: cfg.node,
            artifact,
            generation: 1,
        })
    }

    /// The routing table.
    pub fn ring(&self) -> &Ring {
        &self.ring
    }

    /// Number of member nodes (up or down).
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// Clusters are never empty (see [`Cluster::start`]).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The cluster-global metrics registry (verification, liveness, and
    /// down-node shed counters live here).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// `node`'s private metrics registry.  It outlives the node's server
    /// across kill → rejoin, so per-node counters (served, shed, batches)
    /// are continuous over the node's whole cluster membership.
    pub fn node_metrics(&self, node: NodeId) -> &Metrics {
        &self.node_metrics[node.0 as usize]
    }

    /// The generation every live node currently serves.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The model artifact the cluster replicates (what a rejoining node
    /// fetches from its peers).
    pub fn artifact(&self) -> &PublishedSnapshot {
        &self.artifact
    }

    /// True when `node` is up.
    pub fn is_up(&self, node: NodeId) -> bool {
        self.transport.is_up(node)
    }

    /// `node`'s result-cache `(hits, misses, hit_rate)`, when it is up.
    /// The counts are read from the node's registry
    /// ([`Server::cache_stats`]), so like its other per-node counters they
    /// span its whole cluster membership: a rejoined node starts with a
    /// cold cache, and its counts carry on from before the kill.
    pub fn node_cache_stats(&self, node: NodeId) -> Option<(u64, u64, f64)> {
        self.servers[node.0 as usize].as_ref().map(Server::cache_stats)
    }

    /// A routing client handle (cheap to clone; usable from any thread).
    pub fn client(&self) -> ClusterClient {
        ClusterClient {
            ring: self.ring.clone(),
            transport: Arc::clone(&self.transport),
            shed_node_down: self.metrics.counter_handle("cluster.requests_shed_node_down"),
        }
    }

    /// Publish `artifact` as the next generation: every live node verifies
    /// its replica, refits, and hot-swaps in lockstep; down nodes pick the
    /// generation up when they rejoin.  Returns the new generation id.
    pub fn publish(&mut self, artifact: PublishedSnapshot) -> Result<u64, AcicError> {
        for (i, server) in self.servers.iter().enumerate() {
            let Some(server) = server else { continue };
            let node = self.ring.members()[i];
            let (predictor, db_points) =
                replicate(&artifact, &format!("publish:{node}"), &self.metrics)?;
            let node_version = server.publish(predictor, db_points);
            debug_assert_eq!(node_version, self.generation + 1, "node {node} generation skew");
        }
        self.generation += 1;
        self.artifact = artifact;
        self.metrics.incr("cluster.generations_published", 1);
        Ok(self.generation)
    }

    /// Re-publish the current artifact as a fresh generation (same model
    /// content, next version id) — exercises the full replication
    /// handshake and cache turnover without changing any answer.
    pub fn republish(&mut self) -> Result<u64, AcicError> {
        self.publish(self.artifact.clone())
    }

    /// Kill `node`: its endpoint goes down first (new requests shed with
    /// [`ClusterError::NodeDown`]), then its server drains already-queued
    /// work and stops.  Ring membership does **not** change — surviving
    /// nodes keep exactly their key ranges (and their warm caches), and
    /// the killed node's range sheds deterministically until it rejoins.
    pub fn kill(&mut self, node: NodeId) -> Result<(), AcicError> {
        let slot = self.member_slot(node)?;
        let server = self.servers[slot]
            .take()
            .ok_or_else(|| AcicError::Invalid(format!("node {node} is already down")))?;
        self.transport.set_down(node);
        server.shutdown();
        self.metrics.incr("cluster.nodes_killed", 1);
        Ok(())
    }

    /// Rejoin `node`: fetch the current artifact from the cluster (peer
    /// replication), verify it, refit, and start a fresh server at the
    /// cluster's current generation, then bring the endpoint back up.
    pub fn rejoin(&mut self, node: NodeId) -> Result<(), AcicError> {
        let slot = self.member_slot(node)?;
        if self.servers[slot].is_some() {
            return Err(AcicError::Invalid(format!("node {node} is already up")));
        }
        let (predictor, db_points) =
            replicate(&self.artifact, &format!("rejoin:{node}"), &self.metrics)?;
        let server = Server::start_at(
            predictor,
            db_points,
            self.node_cfg.clone(),
            self.node_metrics[slot].clone(),
            self.generation,
        )?;
        self.transport.set_up(node, server.handle());
        self.servers[slot] = Some(server);
        self.metrics.incr("cluster.nodes_rejoined", 1);
        Ok(())
    }

    /// Global shed accounting: every request refused anywhere in the tier.
    /// Per-node admission sheds (bounded shard queues, counted in each
    /// node's own registry, surviving kill → rejoin) plus cluster-level
    /// sheds at down endpoints.
    pub fn shed_count(&self) -> u64 {
        let admission: u64 =
            self.node_metrics.iter().map(|m| m.counter("serve.requests_shed")).sum();
        admission + self.metrics.counter("cluster.requests_shed_node_down")
    }

    /// Total requests served across all nodes (lifetime, survives kills).
    pub fn served_count(&self) -> u64 {
        self.node_metrics.iter().map(|m| m.counter("serve.requests_served")).sum()
    }

    /// Stop every live node (drains queued work) and dismantle the tier.
    pub fn shutdown(mut self) {
        for (i, server) in self.servers.iter_mut().enumerate() {
            if let Some(server) = server.take() {
                self.transport.set_down(NodeId(i as u32));
                server.shutdown();
            }
        }
    }

    fn member_slot(&self, node: NodeId) -> Result<usize, AcicError> {
        if !self.ring.contains(node) {
            return Err(AcicError::Invalid(format!("node {node} is not a cluster member")));
        }
        Ok(node.0 as usize)
    }
}

/// A cloneable routing client: owns a copy of the ring and a reference to
/// the transport, routes each request to its owner, and accounts
/// down-node sheds in the cluster registry.
#[derive(Debug, Clone)]
pub struct ClusterClient {
    ring: Ring,
    transport: Arc<Loopback>,
    /// `cluster.requests_shed_node_down` in the cluster registry,
    /// registered once per [`Cluster::client`]: a shed counts itself
    /// without the registry lock.
    shed_node_down: CounterHandle,
}

impl ClusterClient {
    /// The node owning `req` (routes on the canonical cache key, so
    /// differently-phrased but canonically-equal requests meet the same
    /// node — and therefore the same result cache).
    pub fn route(&self, req: &Request) -> NodeId {
        self.ring.owner(&self.key(req))
    }

    fn key(&self, req: &Request) -> CacheKey {
        req.key(INSTANCE_TYPE)
    }

    /// Lossless submit: route, then block while the owner's shard queue is
    /// full.  The only shed cause on this path is a down owner.  The key is
    /// built once, routed on, and handed to the owner as is.
    pub fn submit_blocking(&self, req: Request) -> Result<Pending, ClusterError> {
        let key = self.key(&req);
        self.transport.submit_blocking(self.ring.owner(&key), key).map_err(|e| self.account(e))
    }

    /// Admission-controlled submit: route, then fail fast when the owner
    /// is down or its shard queue is at capacity.
    pub fn submit(&self, req: Request) -> Result<Pending, ClusterError> {
        let key = self.key(&req);
        self.transport.submit(self.ring.owner(&key), key).map_err(|e| self.account(e))
    }

    /// Submit (blocking admission) and wait for the answer.
    pub fn query(&self, req: Request) -> Result<Response, ClusterError> {
        self.submit_blocking(req)?.wait().map_err(|_| ClusterError::ShuttingDown)
    }

    fn account(&self, e: ClusterError) -> ClusterError {
        if matches!(e, ClusterError::NodeDown { .. }) {
            self.shed_node_down.incr(1);
        }
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acic::space::SpacePoint;
    use acic::{Objective, Trainer};
    use acic_cart::ModelKind;

    fn artifact(seed: u64, dims: usize) -> PublishedSnapshot {
        let db = Trainer::with_paper_ranking(seed).collect(dims).unwrap();
        PublishedSnapshot::from_db(&db, seed, ModelKind::Cart)
    }

    fn request(k: usize) -> Request {
        Request { app: SpacePoint::default_point().app, objective: Objective::Performance, k }
    }

    fn small_cluster(nodes: usize) -> Cluster {
        Cluster::start(artifact(5, 3), ClusterConfig::with_nodes(nodes), Metrics::new()).unwrap()
    }

    #[test]
    fn cluster_rejects_empty_membership() {
        let err = Cluster::start(artifact(5, 3), ClusterConfig::with_nodes(0), Metrics::new());
        assert!(matches!(err, Err(AcicError::Invalid(m)) if m.contains("nodes")));
    }

    #[test]
    fn cluster_answers_match_a_single_server() {
        let art = artifact(5, 3);
        let db = art.to_training_db();
        let p = Predictor::train_with(&db, art.seed, art.model).unwrap();
        let cluster = small_cluster(3);
        let client = cluster.client();
        for k in [1, 3, 7] {
            let resp = client.query(request(k)).unwrap();
            let direct = p.top_k(
                &SpacePoint::default_point().app,
                Objective::Performance,
                acic_cloudsim::instance::InstanceType::Cc2_8xlarge,
                k,
            );
            assert_eq!(*resp.top, direct, "k={k}");
            assert_eq!(resp.snapshot_version, 1);
        }
        assert_eq!(cluster.metrics().counter("cluster.snapshots_verified"), 3);
        cluster.shutdown();
    }

    #[test]
    fn tampered_artifact_is_rejected_at_start_and_counted() {
        let mut art = artifact(5, 3);
        art.hash ^= 1; // self-description no longer matches the samples
        let metrics = Metrics::new();
        let err = Cluster::start(art, ClusterConfig::with_nodes(2), metrics.clone());
        assert!(matches!(err, Err(AcicError::Store { .. })));
        assert_eq!(metrics.counter("cluster.snapshot_verify_failures"), 1);
        assert_eq!(metrics.counter("cluster.snapshots_verified"), 0);
    }

    #[test]
    fn kill_sheds_deterministically_and_rejoin_restores_service() {
        let mut cluster = small_cluster(2);
        let client = cluster.client();
        let owner = client.route(&request(3));
        cluster.kill(owner).unwrap();
        assert!(!cluster.is_up(owner));
        assert_eq!(client.query(request(3)), Err(ClusterError::NodeDown { node: owner }));
        assert_eq!(cluster.metrics().counter("cluster.requests_shed_node_down"), 1);
        assert_eq!(cluster.shed_count(), 1);
        // The other node still serves its own keys untouched.
        cluster.rejoin(owner).unwrap();
        assert!(cluster.is_up(owner));
        let resp = client.query(request(3)).unwrap();
        assert_eq!(resp.snapshot_version, cluster.generation());
        assert_eq!(cluster.metrics().counter("cluster.nodes_killed"), 1);
        assert_eq!(cluster.metrics().counter("cluster.nodes_rejoined"), 1);
        cluster.shutdown();
    }

    #[test]
    fn double_kill_and_double_rejoin_are_typed_errors() {
        let mut cluster = small_cluster(2);
        let node = NodeId(1);
        cluster.kill(node).unwrap();
        assert!(matches!(cluster.kill(node), Err(AcicError::Invalid(m)) if m.contains("already down")));
        cluster.rejoin(node).unwrap();
        assert!(matches!(cluster.rejoin(node), Err(AcicError::Invalid(m)) if m.contains("already up")));
        assert!(matches!(cluster.kill(NodeId(9)), Err(AcicError::Invalid(m)) if m.contains("not a cluster member")));
        cluster.shutdown();
    }

    #[test]
    fn generations_stay_aligned_across_publish_kill_and_rejoin() {
        let mut cluster = small_cluster(2);
        assert_eq!(cluster.generation(), 1);
        assert_eq!(cluster.republish().unwrap(), 2);
        cluster.kill(NodeId(0)).unwrap();
        assert_eq!(cluster.republish().unwrap(), 3, "publish proceeds with a node down");
        cluster.rejoin(NodeId(0)).unwrap();
        // Both nodes now answer at generation 3: route one request to each.
        let client = cluster.client();
        let mut seen = std::collections::BTreeSet::new();
        for k in 1..40 {
            let req = request(k);
            let node = client.route(&req);
            if seen.insert(node) {
                assert_eq!(client.query(req).unwrap().snapshot_version, 3, "node {node}");
            }
            if seen.len() == 2 {
                break;
            }
        }
        assert_eq!(seen.len(), 2, "trace never reached both nodes");
        cluster.shutdown();
    }
}
