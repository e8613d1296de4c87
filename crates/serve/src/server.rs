//! The sharded worker pool: request admission, batching, caching, and
//! per-stage latency accounting.
//!
//! Requests are canonicalized into a [`CacheKey`] at the door and routed
//! to a worker shard by the key's run-stable hash, so repeated queries for
//! the same application always meet their own cache shard and batch
//! together.  Every request also captures its snapshot generation **at
//! admission** (the `Arc<ModelSnapshot>` rides in the job), so each
//! request is answered from the exact generation it was admitted under no
//! matter how batching or hot-swaps interleave.  Admission control is the
//! bounded shard queue: [`ServeHandle::submit`] returns a typed
//! [`ServeError::Overloaded`] instead of queueing without bound.
//!
//! Workers drain up to `batch` queued jobs per wakeup and answer them in
//! one pass, in admission order: each job probes the versioned cache and,
//! on a miss, is scored on the generation it was admitted under
//! (`ModelSnapshot::answer`, one candidate-grid walk per query) and
//! inserted at once, so duplicate keys within a batch are computed once;
//! then it is replied to before the next job starts.  At `batch: 1` every
//! drain holds one job, so the same code answers request by request;
//! payloads and cache accounting are identical at any batch size.
//!
//! The drain's bookkeeping stays off the request's critical path: each
//! worker records through metric handles it registered once (no registry
//! lock, no name lookup), reads the clock once per batch and once per job,
//! and a reply signals its client only when the client is parked.
//!
//! Determinism: a response's payload is a pure function of (snapshot
//! version, canonical key).  Thread scheduling, batching boundaries, and
//! cache state can change *when* and *how cheaply* an answer is produced,
//! never *what* it is.

use crate::cache::{CachedTopK, ResultCache};
use crate::queue::{BoundedQueue, PushError};
use crate::snapshot::{ModelSnapshot, SnapshotStore};
use acic::{Acic, AppPoint, CacheKey, CounterHandle, LatencyHandle, Metrics, Objective, Predictor};
use acic_cloudsim::instance::InstanceType;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Tuning knobs of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads (= queue/batching shards).
    pub workers: usize,
    /// Bound of each shard's request queue (admission-control limit).
    pub queue_depth: usize,
    /// Maximum jobs a worker drains per wakeup.
    pub batch: usize,
    /// Total result-cache entries across shards.
    pub cache_capacity: usize,
    /// Result-cache shard count.
    pub cache_shards: usize,
    /// Candidate instance type every query ranks over.
    pub instance_type: InstanceType,
    /// Simulated per-request downstream stall (serialization, network,
    /// follow-up I/O in a real deployment).  Zero in production paths;
    /// `bench_serve` sets it to measure how the pool overlaps latency.
    pub service_stall: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 1,
            queue_depth: 128,
            batch: 8,
            cache_capacity: 4096,
            cache_shards: 8,
            instance_type: InstanceType::Cc2_8xlarge,
            service_stall: Duration::ZERO,
        }
    }
}

impl ServeConfig {
    /// The one-worker, tiny-footprint configuration the CLI `recommend`
    /// command answers through (single-shot service).
    pub fn single_shot() -> Self {
        Self { workers: 1, queue_depth: 1, batch: 1, cache_capacity: 8, cache_shards: 1, ..Self::default() }
    }

    /// Reject configurations that cannot serve: a pool with no workers
    /// never answers, a zero-depth queue admits nothing, a zero-size batch
    /// would make every worker spin on `pop_batch(0)` forever without
    /// answering (and without ever observing shutdown), and a cache with
    /// no shards has nowhere to store results.  [`Server::start`] calls
    /// this, so an invalid config is a typed [`acic::AcicError::Invalid`]
    /// naming the offending field — not a panic, a silent clamp, or a
    /// server that hangs its first client.
    pub fn validate(&self) -> Result<(), acic::AcicError> {
        let reject = |field: &str, got: usize| {
            Err(acic::AcicError::Invalid(format!(
                "ServeConfig.{field} must be at least 1 (got {got})"
            )))
        };
        if self.workers == 0 {
            return reject("workers", self.workers);
        }
        if self.queue_depth == 0 {
            return reject("queue_depth", self.queue_depth);
        }
        if self.batch == 0 {
            return reject("batch", self.batch);
        }
        if self.cache_shards == 0 {
            return reject("cache_shards", self.cache_shards);
        }
        Ok(())
    }
}

/// One recommendation query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// The application's I/O characteristics (normalized at admission).
    pub app: AppPoint,
    /// The optimization goal.
    pub objective: Objective,
    /// How many candidates to return (clamped to ≥ 1).
    pub k: usize,
}

impl Request {
    /// The canonical cache identity of this request on `instance_type`.
    pub fn key(&self, instance_type: InstanceType) -> CacheKey {
        CacheKey::new(&self.app, self.objective, instance_type, self.k)
    }
}

/// One answered query.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The top-k candidate list, best first.
    pub top: CachedTopK,
    /// The snapshot generation that produced (or cached) the answer.
    pub snapshot_version: u64,
    /// Whether the answer came out of the result cache.
    pub cache_hit: bool,
}

/// Typed serving failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeError {
    /// Admission control refused the request: the target shard queue is at
    /// capacity.  The request was *not* queued; retry later or shed.
    Overloaded {
        /// The shard queue bound that was hit.
        queue_depth: usize,
    },
    /// The server is shutting down (or shut down before answering).
    ShuttingDown,
    /// The OS refused to spawn worker `worker`'s thread at startup.  The
    /// partially started pool was shut down cleanly (queues closed,
    /// running workers joined) before this was returned — no orphaned
    /// threads serve behind a failed constructor.
    SpawnFailed {
        /// Zero-based index of the worker whose thread failed to spawn.
        worker: usize,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded { queue_depth } => {
                write!(f, "overloaded: shard queue at capacity ({queue_depth})")
            }
            ServeError::ShuttingDown => f.write_str("server is shutting down"),
            ServeError::SpawnFailed { worker } => {
                write!(f, "spawn failed for serve worker {worker}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// A single-use reply slot the submitting thread parks on.  The waiter
/// marks the slot `Waiting` before it parks, so a reply that lands first
/// (the common case under load) skips the condvar signal.
#[derive(Debug, Default)]
struct OneShot {
    slot: Mutex<OneShotState>,
    ready: Condvar,
}

#[derive(Debug, Default)]
enum OneShotState {
    #[default]
    Empty,
    /// The waiter is parked (or about to park) on `ready`.
    Waiting,
    Ready(Response),
    Closed,
}

impl OneShot {
    fn lock(&self) -> std::sync::MutexGuard<'_, OneShotState> {
        self.slot.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Move the slot to `next` and wake the waiter if it is parked.
    fn settle(&self, next: OneShotState) {
        let mut slot = self.lock();
        let parked = matches!(*slot, OneShotState::Waiting);
        if matches!(*slot, OneShotState::Empty | OneShotState::Waiting) {
            *slot = next;
        }
        drop(slot);
        if parked {
            self.ready.notify_one();
        }
    }

    fn put(&self, r: Response) {
        self.settle(OneShotState::Ready(r));
    }

    fn close(&self) {
        self.settle(OneShotState::Closed);
    }

    fn wait(&self) -> Result<Response, ServeError> {
        let mut slot = self.lock();
        loop {
            match std::mem::take(&mut *slot) {
                OneShotState::Ready(r) => return Ok(r),
                OneShotState::Closed => return Err(ServeError::ShuttingDown),
                OneShotState::Empty | OneShotState::Waiting => {
                    *slot = OneShotState::Waiting;
                    slot = self.ready.wait(slot).unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
    }
}

/// A queued unit of work.  The snapshot is captured **at admission**
/// ([`ServeHandle::make_job`]), so a request is answered from the exact
/// generation it was admitted under — a hot-swap between admission and
/// batch processing never retroactively rebinds in-flight requests, and a
/// drained batch can span generations without blurring them.  Dropping an
/// unanswered job (e.g. a worker unwinding mid-shutdown) closes its reply
/// slot so the waiting client gets [`ServeError::ShuttingDown`] instead
/// of parking forever.
#[derive(Debug)]
struct Job {
    key: CacheKey,
    snapshot: Arc<ModelSnapshot>,
    enqueued: Instant,
    reply: Option<Arc<OneShot>>,
}

impl Job {
    fn respond(&mut self, r: Response) {
        if let Some(reply) = self.reply.take() {
            reply.put(r);
        }
    }
}

impl Drop for Job {
    fn drop(&mut self) {
        if let Some(reply) = self.reply.take() {
            reply.close();
        }
    }
}

/// State shared by the server, its workers, and every [`ServeHandle`].
#[derive(Debug)]
struct Shared {
    store: SnapshotStore,
    queues: Vec<Arc<BoundedQueue<Job>>>,
    cache: ResultCache,
    metrics: Metrics,
    cfg: ServeConfig,
}

/// The in-process recommendation service: a snapshot store, a sharded
/// worker pool, and a versioned result cache.
#[derive(Debug)]
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Start a server over an already-fitted predictor (snapshot v1) with
    /// `db_points` recorded for diagnostics.  Fails with a typed
    /// [`acic::AcicError::Invalid`] when the config cannot serve (see
    /// [`ServeConfig::validate`]).
    pub fn start(
        predictor: Predictor,
        db_points: usize,
        cfg: ServeConfig,
        metrics: Metrics,
    ) -> Result<Self, acic::AcicError> {
        Self::start_at(predictor, db_points, cfg, metrics, 1)
    }

    /// [`Self::start`], but the first snapshot carries generation id
    /// `version` instead of 1.  A cluster node rejoining an established
    /// cluster starts here so its version ids stay aligned with the
    /// generation its peers are already serving.
    pub fn start_at(
        predictor: Predictor,
        db_points: usize,
        cfg: ServeConfig,
        metrics: Metrics,
        version: u64,
    ) -> Result<Self, acic::AcicError> {
        Self::start_with_spawner(predictor, db_points, cfg, metrics, version, |w, shared| {
            std::thread::Builder::new()
                .name(format!("acic-serve-{w}"))
                .spawn(move || worker_loop(&shared, w))
        })
    }

    /// [`Self::start_at`] with an injectable thread spawner, so tests can
    /// exercise spawn failures without exhausting real OS threads.
    ///
    /// Regression (bugfix): spawning used to `.expect("spawn serve
    /// worker")`, so an OS thread-spawn failure on worker `w` panicked the
    /// constructor and **stranded workers `0..w`** — alive, holding the
    /// shared state, never joined.  Now a spawn failure rolls the partial
    /// pool back (queues closed, running workers drained and joined) and
    /// returns a typed error carrying [`ServeError::SpawnFailed`].
    fn start_with_spawner(
        predictor: Predictor,
        db_points: usize,
        cfg: ServeConfig,
        metrics: Metrics,
        version: u64,
        mut spawn: impl FnMut(usize, Arc<Shared>) -> std::io::Result<std::thread::JoinHandle<()>>,
    ) -> Result<Self, acic::AcicError> {
        cfg.validate()?;
        let shared = Arc::new(Shared {
            store: SnapshotStore::with_version(predictor, cfg.instance_type, db_points, version),
            queues: (0..cfg.workers).map(|_| Arc::new(BoundedQueue::new(cfg.queue_depth))).collect(),
            cache: ResultCache::new(cfg.cache_capacity, cfg.cache_shards),
            metrics,
            cfg,
        });
        let mut workers = Vec::with_capacity(shared.cfg.workers);
        for w in 0..shared.cfg.workers {
            match spawn(w, Arc::clone(&shared)) {
                Ok(handle) => workers.push(handle),
                Err(io) => {
                    for q in &shared.queues {
                        q.close();
                    }
                    for h in workers {
                        let _ = h.join();
                    }
                    let err = ServeError::SpawnFailed { worker: w };
                    return Err(acic::AcicError::Io {
                        path: format!("acic-serve-{w}"),
                        reason: format!("{err}: {io}"),
                    });
                }
            }
        }
        Ok(Self { shared, workers })
    }

    /// Start a server from a bootstrapped [`Acic`] instance.
    pub fn from_acic(acic: &Acic, cfg: ServeConfig, metrics: Metrics) -> Result<Self, acic::AcicError> {
        Self::start(acic.predictor.clone(), acic.db.len(), cfg, metrics)
    }

    /// A cloneable client handle.
    pub fn handle(&self) -> ServeHandle {
        ServeHandle { shared: Arc::clone(&self.shared) }
    }

    /// Hot-swap: atomically publish a freshly trained predictor as the new
    /// current snapshot; returns its version.  Requests already in flight
    /// finish on the generation they loaded; new batches (and the cache
    /// keys they use) move to the new version immediately.
    pub fn publish(&self, predictor: Predictor, db_points: usize) -> u64 {
        let v = self.shared.store.publish(predictor, db_points);
        self.shared.metrics.incr("serve.snapshots_published", 1);
        // Sweep cache entries from superseded generations now instead of
        // waiting for LRU pressure; keep the previous generation because
        // in-flight batches may still be answering on it.
        let evicted = self.shared.cache.evict_older_than(v.saturating_sub(1));
        self.shared.metrics.incr("serve.cache_stale_evicted", evicted as u64);
        v
    }

    /// The current snapshot generation.
    pub fn version(&self) -> u64 {
        self.shared.store.version()
    }

    /// The current snapshot (diagnostics; requests load their own).
    pub fn snapshot(&self) -> Arc<ModelSnapshot> {
        self.shared.store.load()
    }

    /// The shared metrics registry.
    pub fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// Total requests refused by admission control since start.
    pub fn shed_count(&self) -> u64 {
        self.shared.queues.iter().map(|q| q.shed_count()).sum()
    }

    /// Result-cache `(hits, misses, hit_rate)` since start.
    pub fn cache_stats(&self) -> (u64, u64, f64) {
        let c = &self.shared.cache;
        (c.hits(), c.misses(), c.hit_rate())
    }

    /// The configuration the server runs with.
    pub fn config(&self) -> &ServeConfig {
        &self.shared.cfg
    }

    /// Stop accepting work, drain queued requests, and join the workers.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        for q in &self.shared.queues {
            q.close();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// A cloneable, thread-safe client of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServeHandle {
    shared: Arc<Shared>,
}

impl ServeHandle {
    fn make_job(&self, key: CacheKey) -> (usize, Job, Arc<OneShot>) {
        let shard = key.shard(self.shared.queues.len());
        let reply = Arc::new(OneShot::default());
        // Admission stamps the generation: this request will be answered
        // from exactly this snapshot, whatever publishes race past it.
        let snapshot = self.shared.store.load();
        (
            shard,
            Job { key, snapshot, enqueued: Instant::now(), reply: Some(Arc::clone(&reply)) },
            reply,
        )
    }

    /// Admission-controlled submit: enqueue or fail fast with
    /// [`ServeError::Overloaded`].  On success the returned [`Pending`]
    /// resolves to the response.
    pub fn submit(&self, req: Request) -> Result<Pending, ServeError> {
        self.submit_key(req.key(self.shared.cfg.instance_type))
    }

    /// [`Self::submit`] for a request already canonicalized on this
    /// server's instance type (the cluster client routes on the key, then
    /// hands it over here instead of canonicalizing twice).
    pub(crate) fn submit_key(&self, key: CacheKey) -> Result<Pending, ServeError> {
        let (shard, job, reply) = self.make_job(key);
        match self.shared.queues[shard].try_push(job) {
            Ok(()) => Ok(Pending { reply }),
            Err(PushError::Full(_)) => {
                self.shared.metrics.incr("serve.requests_shed", 1);
                Err(ServeError::Overloaded { queue_depth: self.shared.cfg.queue_depth })
            }
            Err(PushError::Closed(_)) => Err(ServeError::ShuttingDown),
        }
    }

    /// Lossless submit: block while the shard queue is full (replay
    /// clients and closed-loop load generators that must not shed).
    pub fn submit_blocking(&self, req: Request) -> Result<Pending, ServeError> {
        self.submit_blocking_key(req.key(self.shared.cfg.instance_type))
    }

    /// [`Self::submit_blocking`] for an already canonicalized request.
    pub(crate) fn submit_blocking_key(&self, key: CacheKey) -> Result<Pending, ServeError> {
        let (shard, job, reply) = self.make_job(key);
        match self.shared.queues[shard].push_wait(job) {
            Ok(()) => Ok(Pending { reply }),
            Err(_) => Err(ServeError::ShuttingDown),
        }
    }

    /// Submit (blocking admission) and wait for the answer.
    pub fn query(&self, req: Request) -> Result<Response, ServeError> {
        self.submit_blocking(req)?.wait()
    }
}

/// An in-flight request; resolves on [`Pending::wait`].
#[derive(Debug)]
pub struct Pending {
    reply: Arc<OneShot>,
}

impl Pending {
    /// Park until the worker answers (or the server shuts down first).
    pub fn wait(self) -> Result<Response, ServeError> {
        self.reply.wait()
    }
}

/// One worker's metric handles, registered once when the worker starts.
/// They stay registered after the worker stops, so a node's counters are
/// continuous across a restart.
struct DrainMetrics {
    /// `serve.fused_batch.batches`: drains.
    batches: CounterHandle,
    /// `serve.requests_served`: jobs drained.
    served: CounterHandle,
    /// `serve.predictions`: cache misses scored.
    predictions: CounterHandle,
    queue_wait: LatencyHandle,
    /// `serve.hit_service` and `serve.miss_service`: per-job service time
    /// (see [`serve_batch`]), split by cache outcome.
    hit_service: LatencyHandle,
    miss_service: LatencyHandle,
}

impl DrainMetrics {
    fn register(m: &Metrics) -> Self {
        Self {
            batches: m.counter_handle("serve.fused_batch.batches"),
            served: m.counter_handle("serve.requests_served"),
            predictions: m.counter_handle("serve.predictions"),
            queue_wait: m.latency_handle("serve.queue_wait"),
            hit_service: m.latency_handle("serve.hit_service"),
            miss_service: m.latency_handle("serve.miss_service"),
        }
    }
}

fn worker_loop(shared: &Shared, w: usize) {
    let queue = &shared.queues[w];
    let metrics = DrainMetrics::register(&shared.metrics);
    // This worker's largest drain so far.  A drain holds at most `batch`
    // jobs, so `serve.fused_batch.max_requests` is raised by name only the
    // few times it grows.
    let mut max_batch = 0;
    loop {
        let batch = queue.pop_batch(shared.cfg.batch);
        if batch.is_empty() {
            return; // closed and drained
        }
        if batch.len() > max_batch {
            max_batch = batch.len();
            shared.metrics.record_max("serve.fused_batch.max_requests", max_batch as u64);
        }
        serve_batch(shared, &metrics, batch);
    }
}

/// The batched drain: one pass over the batch in admission order.  Each
/// job probes the versioned cache; on a miss it is scored with
/// [`ModelSnapshot::answer`] on the generation it was admitted under and
/// inserted at once, so a duplicate later in the batch hits it.  The cache
/// sees exactly the gets and inserts a one-job drain would, so payloads and
/// hit/miss counts do not depend on batching.  Then the job's downstream
/// stall is applied and it is replied to.
///
/// The clock is read once per batch (every job's `serve.queue_wait` ends
/// there) and once per job, when its answer is ready.  A job's service
/// time runs from the previous stamp to its own: its cache probe (and on a
/// miss its scoring and insert) plus the drain's bookkeeping and the reply
/// of the job before it, but never the simulated stall.  Timing the probe
/// alone would take a second clock read per job.
fn serve_batch(shared: &Shared, m: &DrainMetrics, batch: Vec<Job>) {
    m.batches.incr(1);
    m.served.incr(batch.len() as u64);
    let mut stamp = Instant::now();
    for job in &batch {
        m.queue_wait.observe(stamp.saturating_duration_since(job.enqueued));
    }
    for mut job in batch {
        let version = job.snapshot.version();
        let (top, cache_hit) = match shared.cache.get(&job.key, version) {
            Some(top) => (top, true),
            None => {
                let top: CachedTopK = Arc::new(job.snapshot.answer(&job.key));
                shared.cache.insert(job.key, version, Arc::clone(&top));
                (top, false)
            }
        };
        let now = Instant::now();
        let service = now.saturating_duration_since(stamp);
        stamp = now;
        if cache_hit {
            m.hit_service.observe(service);
        } else {
            m.miss_service.observe(service);
            m.predictions.incr(1);
        }
        if !shared.cfg.service_stall.is_zero() {
            std::thread::sleep(shared.cfg.service_stall);
            stamp = Instant::now();
        }
        job.respond(Response { top, snapshot_version: version, cache_hit });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acic::space::SpacePoint;
    use acic::Trainer;
    use acic_cloudsim::units::mib;

    fn predictor(seed: u64, dims: usize) -> (Predictor, usize) {
        let db = Trainer::with_paper_ranking(seed).collect(dims).unwrap();
        let n = db.len();
        (Predictor::train(&db, seed).unwrap(), n)
    }

    fn request(k: usize) -> Request {
        Request { app: SpacePoint::default_point().app, objective: Objective::Performance, k }
    }

    #[test]
    fn answers_match_the_direct_predictor_path() {
        let (p, n) = predictor(3, 4);
        let server = Server::start(p.clone(), n, ServeConfig::default(), Metrics::new()).unwrap();
        let h = server.handle();
        for k in [1, 3, 28] {
            let resp = h.query(request(k)).unwrap();
            let direct = p.top_k(
                &SpacePoint::default_point().app,
                Objective::Performance,
                InstanceType::Cc2_8xlarge,
                k,
            );
            assert_eq!(*resp.top, direct, "k={k}");
            assert_eq!(resp.snapshot_version, 1);
        }
        server.shutdown();
    }

    #[test]
    fn repeated_queries_hit_the_cache() {
        let (p, n) = predictor(3, 3);
        let server = Server::start(p, n, ServeConfig::default(), Metrics::new()).unwrap();
        let h = server.handle();
        let first = h.query(request(3)).unwrap();
        assert!(!first.cache_hit);
        let second = h.query(request(3)).unwrap();
        assert!(second.cache_hit, "identical query must be served from cache");
        assert_eq!(*first.top, *second.top);
        // A canonically-equal but differently-constructed query also hits.
        let mut twisted = request(3);
        twisted.app.io_procs = twisted.app.nprocs * 4; // clamps back down
        assert!(h.query(twisted).unwrap().cache_hit);
        let (hits, _, _) = server.cache_stats();
        assert_eq!(hits, 2);
        assert_eq!(server.metrics().counter("serve.predictions"), 1);
        server.shutdown();
    }

    #[test]
    fn distinct_queries_are_distinct_entries() {
        let (p, n) = predictor(3, 3);
        let server = Server::start(p, n, ServeConfig::default(), Metrics::new()).unwrap();
        let h = server.handle();
        let a = h.query(request(3)).unwrap();
        let mut other = request(3);
        other.app.data_size = mib(512.0);
        other.app.request_size = mib(4.0);
        let b = h.query(other).unwrap();
        assert!(!b.cache_hit);
        assert_eq!(a.top.len(), b.top.len());
        server.shutdown();
    }

    #[test]
    fn pipelined_submits_preserve_request_identity() {
        let (p, n) = predictor(4, 3);
        let server = Server::start(p.clone(), n, ServeConfig { workers: 2, ..Default::default() }, Metrics::new()).unwrap();
        let h = server.handle();
        let ks: Vec<usize> = (1..=10).collect();
        let pending: Vec<Pending> =
            ks.iter().map(|&k| h.submit_blocking(request(k)).unwrap()).collect();
        for (k, pend) in ks.iter().zip(pending) {
            let resp = pend.wait().unwrap();
            assert_eq!(resp.top.len(), *k.min(&28), "answer belongs to its own request");
        }
        server.shutdown();
    }

    #[test]
    fn overload_returns_typed_rejection_and_counts_sheds() {
        let (p, n) = predictor(3, 3);
        // One slow worker (10ms stall), queue bound 2, batch 1: flooding
        // faster than it drains must shed with the typed error.
        let cfg = ServeConfig {
            workers: 1,
            queue_depth: 2,
            batch: 1,
            service_stall: Duration::from_millis(10),
            ..Default::default()
        };
        let server = Server::start(p, n, cfg, Metrics::new()).unwrap();
        let h = server.handle();
        let mut pending = Vec::new();
        let mut shed = 0;
        for _ in 0..20 {
            match h.submit(request(3)) {
                Ok(p) => pending.push(p),
                Err(e) => {
                    assert_eq!(e, ServeError::Overloaded { queue_depth: 2 });
                    shed += 1;
                }
            }
        }
        assert!(shed > 0, "flooding a depth-2 queue must shed");
        assert_eq!(server.shed_count(), shed);
        assert_eq!(server.metrics().counter("serve.requests_shed"), shed);
        for p in pending {
            p.wait().unwrap();
        }
        server.shutdown();
    }

    #[test]
    fn publish_swaps_the_serving_model() {
        let (p1, n1) = predictor(3, 3);
        let (p2, n2) = predictor(11, 4);
        let server = Server::start(p1.clone(), n1, ServeConfig::default(), Metrics::new()).unwrap();
        let h = server.handle();
        let before = h.query(request(5)).unwrap();
        assert_eq!(before.snapshot_version, 1);
        assert_eq!(server.publish(p2.clone(), n2), 2);
        let after = h.query(request(5)).unwrap();
        assert_eq!(after.snapshot_version, 2);
        assert!(!after.cache_hit, "v1's cached answer must not leak into v2");
        let direct = p2.top_k(
            &SpacePoint::default_point().app,
            Objective::Performance,
            InstanceType::Cc2_8xlarge,
            5,
        );
        assert_eq!(*after.top, direct);
        server.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_work_and_refuses_new() {
        let (p, n) = predictor(3, 3);
        let server = Server::start(p, n, ServeConfig::default(), Metrics::new()).unwrap();
        let h = server.handle();
        let pend = h.submit_blocking(request(2)).unwrap();
        server.shutdown();
        assert!(pend.wait().is_ok(), "queued work drains before workers exit");
        assert_eq!(h.query(request(2)), Err(ServeError::ShuttingDown));
        assert!(matches!(h.submit(request(2)), Err(ServeError::ShuttingDown)));
    }

    #[test]
    fn zero_sized_configs_are_rejected_with_typed_errors_naming_the_field() {
        // Regression: a zero-worker pool used to be silently clamped to 1;
        // a zero-depth queue or zero-shard cache would have panicked (or
        // hung the first client) deep inside construction.  All three must
        // now fail fast at Server::start with a typed error naming the
        // rejected field.
        let (p, n) = predictor(3, 3);
        for (cfg, field) in [
            (ServeConfig { workers: 0, ..Default::default() }, "workers"),
            (ServeConfig { queue_depth: 0, ..Default::default() }, "queue_depth"),
            (ServeConfig { batch: 0, ..Default::default() }, "batch"),
            (ServeConfig { cache_shards: 0, ..Default::default() }, "cache_shards"),
        ] {
            assert!(matches!(cfg.validate(), Err(acic::AcicError::Invalid(_))), "{field}");
            match Server::start(p.clone(), n, cfg, Metrics::new()) {
                Err(acic::AcicError::Invalid(msg)) => {
                    assert!(
                        msg.contains(&format!("ServeConfig.{field}")),
                        "error must name the rejected field: {msg:?}"
                    );
                    assert!(msg.contains("(got 0)"), "error must show the rejected value: {msg:?}");
                }
                other => panic!("{field} = 0 must be a typed Invalid error, got {other:?}"),
            }
        }
        // The boundary value is accepted: 1 of everything serves.
        let minimal = ServeConfig {
            workers: 1,
            queue_depth: 1,
            batch: 1,
            cache_capacity: 1,
            cache_shards: 1,
            ..Default::default()
        };
        let server = Server::start(p, n, minimal, Metrics::new()).unwrap();
        assert!(server.handle().query(request(1)).is_ok());
        server.shutdown();
    }

    #[test]
    fn spawn_failure_returns_typed_error_and_joins_the_partial_pool() {
        // Regression: worker spawn failures used to panic out of
        // Server::start via `.expect("spawn serve worker")`, stranding the
        // workers that had already started (alive, unjoined, holding the
        // shared state).  Fail worker 2 of 3 and require a typed error
        // plus a fully rolled-back pool.
        let (p, n) = predictor(3, 3);
        let cfg = ServeConfig { workers: 3, ..Default::default() };
        let mut started = 0usize;
        let mut observed: Option<Arc<Shared>> = None;
        let err = Server::start_with_spawner(p, n, cfg, Metrics::new(), 1, |w, shared| {
            observed = Some(Arc::clone(&shared));
            if w == 2 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WouldBlock,
                    "thread limit reached",
                ));
            }
            started += 1;
            std::thread::Builder::new()
                .name(format!("acic-serve-{w}"))
                .spawn(move || worker_loop(&shared, w))
        })
        .expect_err("worker 2's spawn failure must surface as an error");
        match err {
            acic::AcicError::Io { path, reason } => {
                assert_eq!(path, "acic-serve-2");
                assert!(reason.contains("spawn failed for serve worker 2"), "{reason}");
                assert!(reason.contains("thread limit reached"), "{reason}");
            }
            other => panic!("expected a typed Io error, got {other:?}"),
        }
        assert_eq!(started, 2, "workers 0 and 1 really ran before the failure");
        // The rollback closed every shard queue (so the two live workers
        // drained and were joined — start_with_spawner returning at all
        // proves the joins completed) and new work is refused.
        let shared = observed.expect("spawner saw the shared state");
        for q in &shared.queues {
            let probe = Job {
                key: CacheKey::new(
                    &SpacePoint::default_point().app,
                    Objective::Performance,
                    InstanceType::Cc2_8xlarge,
                    1,
                ),
                snapshot: shared.store.load(),
                enqueued: Instant::now(),
                reply: None,
            };
            assert!(
                matches!(q.try_push(probe), Err(PushError::Closed(_))),
                "every queue must be closed after rollback"
            );
        }
    }

    #[test]
    fn fresh_server_reports_zero_cache_stats_without_nan() {
        // Regression guard for the zero-access edge: hit_rate must be 0.0
        // (never NaN) before any request, and the metrics render must stay
        // finite and deterministic.
        let (p, n) = predictor(3, 3);
        let m = Metrics::new();
        let server = Server::start(p, n, ServeConfig::default(), m.clone()).unwrap();
        let (hits, misses, rate) = server.cache_stats();
        assert_eq!((hits, misses), (0, 0));
        assert!(rate.is_finite(), "zero accesses must not be NaN");
        assert_eq!(rate, 0.0);
        let rendered = m.render();
        assert!(!rendered.contains("NaN"), "{rendered}");
        server.shutdown();
    }

    #[test]
    fn batch_1_and_batch_16_drains_answer_identically() {
        // Batching is a scheduling choice, not a semantic: a batch-16
        // drain must match one-job drains bit for bit on a mixed workload
        // (duplicates, distinct apps, varied k) — payloads, versions, and
        // cache hit/miss accounting — and every payload must be the
        // snapshot's direct answer.  The two-entry cache evicts within a
        // drain, so a batch that probed ahead of its inserts would book
        // different hits than one-job drains.
        let (p, n) = predictor(4, 3);
        let mut big = request(7);
        big.app.data_size = mib(512.0);
        let mut cost = request(2);
        cost.objective = Objective::Cost;
        let reqs =
            [request(3), big, request(3), cost, request(28), big, request(1), cost, request(3)];
        let run = |batch: usize, cache_capacity: usize, cache_shards: usize| {
            let cfg = ServeConfig { batch, cache_capacity, cache_shards, ..Default::default() };
            let server = Server::start(p.clone(), n, cfg, Metrics::new()).unwrap();
            let h = server.handle();
            let pending: Vec<Pending> =
                reqs.iter().map(|&r| h.submit_blocking(r).unwrap()).collect();
            let out: Vec<Response> = pending.into_iter().map(|p| p.wait().unwrap()).collect();
            let snapshot = server.snapshot();
            for (i, (req, resp)) in reqs.iter().zip(&out).enumerate() {
                let direct = snapshot.answer(&req.key(InstanceType::Cc2_8xlarge));
                assert_eq!(*resp.top, direct, "batch {batch} request {i}");
            }
            let (hits, misses, _) = server.cache_stats();
            server.shutdown();
            (out, hits, misses)
        };
        for (capacity, shards) in [(4096, 8), (2, 1)] {
            let (one, one_hits, one_misses) = run(1, capacity, shards);
            let (batched, hits, misses) = run(16, capacity, shards);
            assert_eq!((one_hits, one_misses), (hits, misses), "cache {capacity}: accounting");
            for (i, (a, b)) in one.iter().zip(&batched).enumerate() {
                assert_eq!(a.snapshot_version, b.snapshot_version, "cache {capacity}: request {i}");
                assert_eq!(a.cache_hit, b.cache_hit, "cache {capacity}: request {i}");
                assert_eq!(a.top.len(), b.top.len(), "cache {capacity}: request {i}");
                for (x, y) in a.top.iter().zip(b.top.iter()) {
                    assert_eq!(x.0, y.0, "cache {capacity}: request {i}");
                    assert_eq!(x.1.to_bits(), y.1.to_bits(), "cache {capacity}: request {i}");
                }
            }
        }
    }

    #[test]
    fn fused_metrics_track_batches_and_predictions() {
        let (p, n) = predictor(3, 3);
        let m = Metrics::new();
        let server = Server::start(p, n, ServeConfig::default(), m.clone()).unwrap();
        let h = server.handle();
        h.query(request(3)).unwrap(); // miss -> one prediction
        h.query(request(4)).unwrap(); // distinct key: miss -> one prediction
        h.query(request(3)).unwrap(); // hit -> no prediction
        server.shutdown();
        assert_eq!(m.counter("serve.fused_batch.batches"), 3);
        assert_eq!(m.counter("serve.requests_served"), 3);
        assert_eq!(m.counter("serve.fused_batch.max_requests"), 1);
        assert_eq!(m.counter("serve.predictions"), 2);
    }

    #[test]
    fn metrics_record_per_stage_latencies() {
        let (p, n) = predictor(3, 3);
        let m = Metrics::new();
        let server = Server::start(p, n, ServeConfig::default(), m.clone()).unwrap();
        let h = server.handle();
        h.query(request(3)).unwrap();
        h.query(request(3)).unwrap();
        server.shutdown();
        assert_eq!(m.latency_count("serve.queue_wait"), 2);
        assert_eq!(m.latency_count("serve.miss_service"), 1);
        assert_eq!(m.latency_count("serve.hit_service"), 1);
        let r = m.render();
        assert!(r.contains("serve.queue_wait"), "{r}");
    }

    fn reply(version: u64) -> Response {
        Response { top: Arc::new(Vec::new()), snapshot_version: version, cache_hit: false }
    }

    /// Spin until `slot`'s waiter has marked itself parked.
    fn until_waiting(slot: &OneShot) {
        while !matches!(*slot.lock(), OneShotState::Waiting) {
            std::thread::yield_now();
        }
    }

    #[test]
    fn a_reply_lands_before_or_after_its_waiter_parks() {
        crate::queue::watchdog("reply before park", || {
            let slot = OneShot::default();
            slot.put(reply(1));
            assert_eq!(slot.wait(), Ok(reply(1)));
        });
        crate::queue::watchdog("reply after park", || {
            let slot = Arc::new(OneShot::default());
            let waiter = {
                let slot = Arc::clone(&slot);
                std::thread::spawn(move || slot.wait())
            };
            until_waiting(&slot);
            slot.put(reply(2));
            assert_eq!(waiter.join().unwrap(), Ok(reply(2)));
        });
    }

    #[test]
    fn shutdown_wakes_a_parked_waiter() {
        crate::queue::watchdog("close wakes the reply slot", || {
            let slot = Arc::new(OneShot::default());
            let waiter = {
                let slot = Arc::clone(&slot);
                std::thread::spawn(move || slot.wait())
            };
            until_waiting(&slot);
            slot.close();
            assert_eq!(waiter.join().unwrap(), Err(ServeError::ShuttingDown));
        });
        // Through the server: a client parked on a request still queued
        // behind a stalled one is answered by the drain that shutdown
        // runs, and a job dropped unanswered closes its slot.
        crate::queue::watchdog("server shutdown", || {
            let (p, n) = predictor(3, 3);
            let cfg = ServeConfig { batch: 1, service_stall: Duration::from_millis(20), ..Default::default() };
            let server = Server::start(p, n, cfg, Metrics::new()).unwrap();
            let h = server.handle();
            let first = h.submit_blocking(request(2)).unwrap();
            let second = h.submit_blocking(request(3)).unwrap();
            let waiter = std::thread::spawn(move || second.wait());
            server.shutdown();
            assert!(first.wait().is_ok());
            assert!(waiter.join().unwrap().is_ok(), "queued work drains before workers exit");
            let (_, job, slot) = h.make_job(request(1).key(InstanceType::Cc2_8xlarge));
            let waiter = std::thread::spawn(move || slot.wait());
            drop(job);
            assert_eq!(waiter.join().unwrap(), Err(ServeError::ShuttingDown));
        });
    }
}
