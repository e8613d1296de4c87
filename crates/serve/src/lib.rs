//! # acic-serve — the concurrent recommendation-serving subsystem
//!
//! The paper's end product is a query: *(application I/O characteristics,
//! optimization goal) → top-k cloud I/O configurations* (§4.2).  This
//! crate turns that one-shot query into a long-lived, multi-threaded
//! service — the scaffolding the ROADMAP's "heavy traffic" north star
//! builds on:
//!
//! * [`snapshot`] — versioned, immutable model snapshots with atomic
//!   hot-swap: a retrain publishes a new generation while requests keep
//!   flowing, and in-flight requests finish on the generation they were
//!   admitted under.
//! * [`queue`] — bounded MPMC shard queues: the admission-control
//!   mechanism (typed [`ServeError::Overloaded`] rejection) that keeps an
//!   overloaded server's memory flat.
//! * [`cache`] — a plain LRU of top-k answers keyed by the canonical
//!   [`acic::CacheKey`].  Each worker owns one for its shard's keys and
//!   clears it when a new generation reaches it, so it takes no lock.
//! * [`server`] — the worker pool tying it together: requests are routed
//!   to shards by stable key hash, pinned to the snapshot they were
//!   admitted under, drained in batches, and accounted (queue wait, and
//!   per-job service time on a cache hit or miss) in [`acic::Metrics`]
//!   latency histograms through per-worker handles.
//! * [`cluster`] — the multi-node tier over N servers: rendezvous-hash
//!   routing of canonical keys, verified snapshot replication (peers prove
//!   a [`acic::PublishedSnapshot`] replica against its content hash and
//!   refit deterministically instead of re-training), kill / rejoin with
//!   generation continuity, and a cluster-in-a-process replay harness
//!   that proves responses are bit-identical across node counts.
//!
//! Responses are deterministic: the payload is a pure function of
//! (snapshot version, canonical key); concurrency only changes timing.
//! `acic serve` drives this from a replay file; `bench_e2e` drives a
//! cluster of it with an open-loop load generator.

pub mod cache;
pub mod cluster;
pub mod queue;
pub mod server;
pub mod snapshot;

pub use cache::{CachedTopK, ResultCache};
pub use cluster::{Cluster, ClusterClient, ClusterConfig, ClusterError, NodeId, Ring};
pub use queue::{BoundedQueue, PushError};
pub use server::{Pending, Request, Response, ServeConfig, ServeError, ServeHandle, Server};
pub use snapshot::{ModelSnapshot, SnapshotStore};
