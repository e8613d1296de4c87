//! The in-process loopback transport: how cluster clients reach nodes.
//!
//! A real deployment would put a socket here; the loopback keeps the
//! exact same seam — an addressable table of per-node endpoints that can
//! be up or down — but dispatches synchronously into each node's
//! [`ServeHandle`].  Synchronous and lossless is the point: the transport
//! adds no reordering, duplication, or loss of its own, so any
//! nondeterminism observed through it must come from the nodes (and the
//! replay harness proves there is none).
//!
//! Liveness is modeled here too.  Killing a node swaps its endpoint to
//! `Down`; submissions routed at it fail fast with
//! [`ClusterError::NodeDown`] — the deterministic shed that replaces the
//! "connection refused" of a networked deployment.

use super::ring::NodeId;
use crate::server::{Pending, ServeError, ServeHandle};
use acic::CacheKey;
use parking_lot::Mutex;

/// Typed cluster-level failures, layered over per-node [`ServeError`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterError {
    /// The owning node's endpoint is down; the request was shed at the
    /// transport (never queued anywhere).
    NodeDown {
        /// The unreachable owner.
        node: NodeId,
    },
    /// The owning node's admission control refused the request (its shard
    /// queue is at capacity).
    Overloaded {
        /// The node that shed.
        node: NodeId,
        /// Its shard-queue bound.
        queue_depth: usize,
    },
    /// The owning node (or the whole cluster) is shutting down.
    ShuttingDown,
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::NodeDown { node } => write!(f, "node {node} is down"),
            ClusterError::Overloaded { node, queue_depth } => {
                write!(f, "node {node} overloaded: shard queue at capacity ({queue_depth})")
            }
            ClusterError::ShuttingDown => f.write_str("cluster is shutting down"),
        }
    }
}

impl std::error::Error for ClusterError {}

/// One node's endpoint state.
#[derive(Debug)]
enum Endpoint {
    Up(ServeHandle),
    Down,
}

/// The addressable table of node endpoints (index = [`NodeId`]'s integer).
#[derive(Debug)]
pub struct Loopback {
    endpoints: Vec<Mutex<Endpoint>>,
}

impl Loopback {
    /// Build the transport over each node's client handle, in node-id
    /// order (slot `i` serves `NodeId(i)`).
    pub fn new(handles: Vec<ServeHandle>) -> Self {
        Self { endpoints: handles.into_iter().map(|h| Mutex::new(Endpoint::Up(h))).collect() }
    }

    /// Number of endpoints (up or down).
    pub fn len(&self) -> usize {
        self.endpoints.len()
    }

    /// True when the table is empty.
    pub fn is_empty(&self) -> bool {
        self.endpoints.is_empty()
    }

    /// True when `node`'s endpoint is up.
    pub fn is_up(&self, node: NodeId) -> bool {
        matches!(*self.endpoints[node.0 as usize].lock(), Endpoint::Up(_))
    }

    /// Take `node`'s endpoint down (kill).  Returns whether it was up.
    pub fn set_down(&self, node: NodeId) -> bool {
        let mut slot = self.endpoints[node.0 as usize].lock();
        let was_up = matches!(*slot, Endpoint::Up(_));
        *slot = Endpoint::Down;
        was_up
    }

    /// Bring `node`'s endpoint back up with a fresh handle (rejoin).
    pub fn set_up(&self, node: NodeId, handle: ServeHandle) {
        *self.endpoints[node.0 as usize].lock() = Endpoint::Up(handle);
    }

    /// Clone `node`'s live handle, or fail with [`ClusterError::NodeDown`].
    /// The lock is held only for the clone; dispatch happens outside it, so
    /// a slow node never blocks liveness changes or traffic to its peers.
    fn handle(&self, node: NodeId) -> Result<ServeHandle, ClusterError> {
        match &*self.endpoints[node.0 as usize].lock() {
            Endpoint::Up(h) => Ok(h.clone()),
            Endpoint::Down => Err(ClusterError::NodeDown { node }),
        }
    }

    /// Lossless submit of a canonical key to `node`: blocks while its
    /// shard queue is full.  The replay harness uses this path, so its only
    /// shed cause is [`ClusterError::NodeDown`] — a pure function of the
    /// kill schedule.
    pub(crate) fn submit_blocking(&self, node: NodeId, key: CacheKey) -> Result<Pending, ClusterError> {
        self.handle(node)?.submit_blocking_key(key).map_err(|e| lift(node, e))
    }

    /// Admission-controlled submit of a canonical key to `node`: fails
    /// fast with [`ClusterError::Overloaded`] when its shard queue is at
    /// capacity.
    pub(crate) fn submit(&self, node: NodeId, key: CacheKey) -> Result<Pending, ClusterError> {
        self.handle(node)?.submit_key(key).map_err(|e| lift(node, e))
    }
}

/// Lift a node-local [`ServeError`] to the cluster vocabulary, tagging
/// which node produced it.
fn lift(node: NodeId, e: ServeError) -> ClusterError {
    match e {
        ServeError::Overloaded { queue_depth } => ClusterError::Overloaded { node, queue_depth },
        // Spawn failures happen at Server construction, never on a live
        // submit path; if one ever surfaces here the node is unusable.
        ServeError::ShuttingDown | ServeError::SpawnFailed { .. } => ClusterError::ShuttingDown,
    }
}
