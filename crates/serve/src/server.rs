//! The sharded worker pool: request admission, batching, caching, and
//! per-stage latency accounting.
//!
//! Requests are canonicalized into a [`CacheKey`] at the door and routed
//! to a worker shard by the key's run-stable hash, so repeated queries for
//! the same application always meet the same worker, its cache and its
//! batches.  Each request is answered from the exact snapshot generation
//! it was admitted under, no matter how batching or hot-swaps interleave,
//! yet carries no reference to it: each worker is handed the first
//! generation when it is spawned, and [`Server::publish`] queues every
//! later one into every shard queue as a marker, so a job is answered from
//! the last marker ahead of it.  Admission touches neither the snapshot
//! store nor a shared reference count.  Admission control is the bounded
//! shard queue: [`ServeHandle::submit`] returns a typed
//! [`ServeError::Overloaded`] instead of queueing without bound; markers
//! bypass the bound.
//!
//! Workers drain up to `batch` queued jobs per wakeup, into a buffer each
//! worker owns, and answer them in one pass, in admission order: each job
//! probes the worker's own result cache and, on a miss, is scored on the
//! generation it was admitted under (`ModelSnapshot::answer`, one
//! candidate-grid walk per query) and inserted at once, so duplicate keys
//! within a batch are computed once; then it is replied to before the next
//! job starts.  A worker clears its cache at each generation marker.  At
//! `batch: 1` every drain holds one job, so the same code answers request
//! by request; payloads and cache accounting are identical at any batch
//! size.
//!
//! The drain's bookkeeping stays off the request's critical path: each
//! worker records through metric handles it registered once (no registry
//! lock, no name lookup), reads the clock once per batch and once per job,
//! and a reply signals its client only when the client is parked.  A
//! client polls its reply slot for about 1.4 µs before it parks, so most
//! replies land while it polls and cost the worker no wake.
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
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
#[cfg(feature = "test-support")]
use std::time::Duration;
use std::time::Instant;

/// The candidate instance type every query ranks over: the paper's
/// evaluation platform.
pub(crate) const INSTANCE_TYPE: InstanceType = InstanceType::Cc2_8xlarge;

/// Tuning knobs of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads (= queue/batching shards).
    pub workers: usize,
    /// Bound of each shard's request queue (admission-control limit).
    pub queue_depth: usize,
    /// Maximum jobs a worker drains per wakeup.
    pub batch: usize,
    /// Total result-cache entries: each worker caches up to
    /// `cache_capacity.div_ceil(workers)` answers for its own shard.
    pub cache_capacity: usize,
    /// Simulated per-request downstream stall (serialization, network,
    /// follow-up I/O in a real deployment), so that tests can fill queues
    /// and race publishes against queued requests.  Test support only:
    /// release builds have neither the field nor its sleep.
    #[cfg(feature = "test-support")]
    pub service_stall: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 1,
            queue_depth: 128,
            batch: 8,
            cache_capacity: 4096,
            #[cfg(feature = "test-support")]
            service_stall: Duration::ZERO,
        }
    }
}

impl ServeConfig {
    /// Reject configurations that cannot serve: a pool with no workers
    /// never answers, a zero-depth queue admits nothing, and a zero-size
    /// batch would make every worker spin on `pop_batch(0)` forever
    /// without answering (and without ever observing shutdown).
    /// [`Server::start`] calls this, so an invalid config is a typed
    /// [`acic::AcicError::Invalid`] naming the offending field — not a
    /// panic, a silent clamp, or a server that hangs its first client.
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

/// How many times [`OneShot::wait`] polls for its reply before it parks:
/// about 1.4 µs on a 2-vCPU Xeon VM (13.5–14.3 ns per poll and
/// `spin_loop`).  A
/// saturated worker replies within that budget to most clients that have
/// caught up with it, and each reply that lands while its client polls
/// spares the worker a `futex` wake.
const REPLY_SPINS: u32 = 100;

/// A single-use reply slot the submitting thread waits on.  The waiter
/// first polls `settled`, then marks the slot `Waiting` before it parks,
/// so a reply that lands first (the common case under load) skips the
/// condvar signal.
#[derive(Debug, Default)]
struct OneShot {
    slot: Mutex<OneShotState>,
    ready: Condvar,
    /// Raised once the slot is settled, after its lock is released: a
    /// hint that ends the waiter's polling.  The state under the lock
    /// stays the only truth.
    settled: AtomicBool,
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
        self.settled.store(true, Ordering::Release);
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
        for _ in 0..REPLY_SPINS {
            if self.settled.load(Ordering::Acquire) {
                break;
            }
            std::hint::spin_loop();
        }
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

/// What a shard queue carries.
#[derive(Debug)]
enum Work {
    /// A request, counted toward the queue's bound.
    Job(Job),
    /// A generation published by [`Server::publish`], queued past the
    /// bound: the jobs behind it are answered from it.
    Generation(Arc<ModelSnapshot>),
}

/// A queued request.  It carries no snapshot: its worker answers it from
/// the last [`Work::Generation`] queued ahead of it, or from the
/// generation the worker was spawned with, so a request is answered from
/// the exact generation it was admitted under — a hot-swap between
/// admission and batch processing never retroactively rebinds in-flight
/// requests, and a drained batch can span generations without blurring
/// them.  Dropping an unanswered job (e.g. a worker unwinding
/// mid-shutdown) closes its reply slot so the waiting client gets
/// [`ServeError::ShuttingDown`] instead of parking forever.
#[derive(Debug)]
struct Job {
    key: CacheKey,
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
    queues: Vec<BoundedQueue<Work>>,
    metrics: Metrics,
    /// `serve.requests_shed`, registered once: a refused request counts
    /// itself without the registry lock.
    shed: CounterHandle,
    cfg: ServeConfig,
}

/// The in-process recommendation service: a snapshot store and a sharded
/// worker pool, each worker with its own result cache.
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
        Self::start_with_spawner(predictor, db_points, cfg, metrics, version, |w, shared, first| {
            std::thread::Builder::new()
                .name(format!("acic-serve-{w}"))
                .spawn(move || worker_loop(&shared, w, first))
        })
    }

    /// [`Self::start_at`] with an injectable thread spawner, so tests can
    /// exercise spawn failures without exhausting real OS threads.  Each
    /// worker is handed the first generation here, when it is spawned: a
    /// worker that read the store once its thread ran could answer
    /// requests queued before an early publish from the published
    /// generation.
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
        mut spawn: impl FnMut(
            usize,
            Arc<Shared>,
            Arc<ModelSnapshot>,
        ) -> std::io::Result<std::thread::JoinHandle<()>>,
    ) -> Result<Self, acic::AcicError> {
        cfg.validate()?;
        let shared = Arc::new(Shared {
            store: SnapshotStore::with_version(predictor, db_points, version),
            queues: (0..cfg.workers).map(|_| BoundedQueue::new(cfg.queue_depth)).collect(),
            shed: metrics.counter_handle("serve.requests_shed"),
            metrics,
            cfg,
        });
        let first = shared.store.load();
        let mut workers = Vec::with_capacity(shared.cfg.workers);
        for w in 0..shared.cfg.workers {
            match spawn(w, Arc::clone(&shared), Arc::clone(&first)) {
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
    /// current snapshot; returns its version.  The generation is queued
    /// into every shard queue as a marker before this returns, past the
    /// bound, so a publish never waits for a full queue and never sheds.
    /// Every queue is locked before any marker is pushed, so a client
    /// answered from the new generation by one shard is never answered
    /// from the old one by another.  Requests queued before it finish on
    /// the generation they were admitted under; every request submitted
    /// after it returns is answered (and cached) under the new version.
    /// Each worker clears its result cache when it reaches the marker and
    /// counts what it dropped in `serve.cache_stale_evicted`.
    pub fn publish(&self, predictor: Predictor, db_points: usize) -> u64 {
        let queues = &self.shared.queues;
        let v = self.shared.store.publish(predictor, db_points, |next| {
            BoundedQueue::push_marker_all(queues, || Work::Generation(Arc::clone(next)));
        });
        self.shared.metrics.incr("serve.snapshots_published", 1);
        v
    }

    /// The current snapshot generation.
    pub fn version(&self) -> u64 {
        self.shared.store.version()
    }

    /// The current snapshot (diagnostics; each worker holds the
    /// generation its queue has reached).
    pub fn snapshot(&self) -> Arc<ModelSnapshot> {
        self.shared.store.load()
    }

    /// The shared metrics registry.
    pub fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// Total requests refused by admission control, read from
    /// `serve.requests_shed` in the server's registry.
    pub fn shed_count(&self) -> u64 {
        self.shared.metrics.counter("serve.requests_shed")
    }

    /// Result-cache `(hits, misses, hit_rate)`, read from the server's
    /// registry: every scored request (`serve.predictions`) missed, and
    /// every other served one (`serve.requests_served`) hit, so the drain
    /// counts nothing extra.  Exact once the counted requests are answered.
    pub fn cache_stats(&self) -> (u64, u64, f64) {
        let m = &self.shared.metrics;
        let misses = m.counter("serve.predictions");
        let hits = m.counter("serve.requests_served").saturating_sub(misses);
        let rate = if hits + misses == 0 { 0.0 } else { hits as f64 / (hits + misses) as f64 };
        (hits, misses, rate)
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
        (shard, Job { key, enqueued: Instant::now(), reply: Some(Arc::clone(&reply)) }, reply)
    }

    /// Admission-controlled submit: enqueue or fail fast with
    /// [`ServeError::Overloaded`].  On success the returned [`Pending`]
    /// resolves to the response.
    pub fn submit(&self, req: Request) -> Result<Pending, ServeError> {
        self.submit_key(req.key(INSTANCE_TYPE))
    }

    /// [`Self::submit`] for a request already canonicalized on this
    /// server's instance type (the cluster client routes on the key, then
    /// hands it over here instead of canonicalizing twice).
    pub(crate) fn submit_key(&self, key: CacheKey) -> Result<Pending, ServeError> {
        let (shard, job, reply) = self.make_job(key);
        match self.shared.queues[shard].try_push(Work::Job(job)) {
            Ok(()) => Ok(Pending { reply }),
            Err(PushError::Full(_)) => {
                self.shared.shed.incr(1);
                Err(ServeError::Overloaded { queue_depth: self.shared.cfg.queue_depth })
            }
            Err(PushError::Closed(_)) => Err(ServeError::ShuttingDown),
        }
    }

    /// Lossless submit: block while the shard queue is full (replay
    /// clients and closed-loop load generators that must not shed).
    pub fn submit_blocking(&self, req: Request) -> Result<Pending, ServeError> {
        self.submit_blocking_key(req.key(INSTANCE_TYPE))
    }

    /// [`Self::submit_blocking`] for an already canonicalized request.
    pub(crate) fn submit_blocking_key(&self, key: CacheKey) -> Result<Pending, ServeError> {
        let (shard, job, reply) = self.make_job(key);
        match self.shared.queues[shard].push_wait(Work::Job(job)) {
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
    /// Wait until the worker answers (or the server shuts down first):
    /// poll briefly, then park.
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
    /// `serve.cache_stale_evicted`: entries cleared at generation markers.
    stale_evicted: CounterHandle,
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
            stale_evicted: m.counter_handle("serve.cache_stale_evicted"),
        }
    }
}

/// Serve shard `w` until its queue is closed and drained, answering from
/// `generation` until a marker queued ahead of a job moves it on.  Only
/// this worker looks up the keys of shard `w`, so it owns their cache.
fn worker_loop(shared: &Shared, w: usize, mut generation: Arc<ModelSnapshot>) {
    let queue = &shared.queues[w];
    let metrics = DrainMetrics::register(&shared.metrics);
    let mut cache = ResultCache::new(shared.cfg.cache_capacity.div_ceil(shared.cfg.workers));
    // This worker's largest drain so far.  A drain holds at most `batch`
    // jobs, so `serve.fused_batch.max_requests` is raised by name only the
    // few times it grows.
    let mut max_batch = 0;
    let mut drained = Vec::with_capacity(shared.cfg.batch);
    loop {
        let jobs = queue.pop_batch(shared.cfg.batch, &mut drained);
        if drained.is_empty() {
            return; // closed and drained
        }
        if jobs > max_batch {
            max_batch = jobs;
            shared.metrics.record_max("serve.fused_batch.max_requests", max_batch as u64);
        }
        serve_batch(shared, &metrics, &mut cache, &mut generation, jobs, &mut drained);
    }
}

/// The batched drain: one pass over the `jobs` jobs in `batch`, in
/// admission order, leaving `batch` empty.  A generation marker moves
/// `generation` on for the jobs behind it and clears `cache`: every job
/// admitted under the old generation is ahead of the marker.  Each job
/// probes the cache; on a miss it is scored with [`ModelSnapshot::answer`]
/// on the generation it was admitted under and inserted at once, so a
/// duplicate later in the batch hits it.  The cache sees exactly the gets
/// and inserts a one-job drain would, so payloads and hit/miss counts do
/// not depend on batching.  Then, under test support, the job's simulated
/// downstream stall is applied, and it is replied to.  A drain of markers
/// alone is not a batch.
///
/// The clock is read once per batch (every job's `serve.queue_wait` ends
/// there) and once per job, when its answer is ready.  A job's service
/// time runs from the previous stamp to its own: its cache probe (and on a
/// miss its scoring and insert) plus the drain's bookkeeping and the reply
/// of the job before it, but never the simulated stall.  Timing the probe
/// alone would take a second clock read per job.
fn serve_batch(
    shared: &Shared,
    m: &DrainMetrics,
    cache: &mut ResultCache,
    generation: &mut Arc<ModelSnapshot>,
    jobs: usize,
    batch: &mut Vec<Work>,
) {
    // Release builds read no config here: only test support stalls.
    #[cfg(not(feature = "test-support"))]
    let _ = shared;
    if jobs > 0 {
        m.batches.incr(1);
        m.served.incr(jobs as u64);
    }
    let mut stamp = Instant::now();
    for work in batch.iter() {
        if let Work::Job(job) = work {
            m.queue_wait.observe(stamp.saturating_duration_since(job.enqueued));
        }
    }
    for work in batch.drain(..) {
        let mut job = match work {
            Work::Job(job) => job,
            Work::Generation(next) => {
                *generation = next;
                m.stale_evicted.incr(cache.clear() as u64);
                continue;
            }
        };
        let (top, cache_hit) = match cache.get(&job.key) {
            Some(top) => (top, true),
            None => {
                let top: CachedTopK = Arc::new(generation.answer(&job.key));
                cache.insert(job.key, Arc::clone(&top));
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
        #[cfg(feature = "test-support")]
        if !shared.cfg.service_stall.is_zero() {
            std::thread::sleep(shared.cfg.service_stall);
            stamp = Instant::now();
        }
        job.respond(Response { top, snapshot_version: generation.version(), cache_hit });
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
        // a zero-depth queue would have panicked (or hung the first client)
        // deep inside construction.  Each must now fail fast at
        // Server::start with a typed error naming the rejected field.
        let (p, n) = predictor(3, 3);
        for (cfg, field) in [
            (ServeConfig { workers: 0, ..Default::default() }, "workers"),
            (ServeConfig { queue_depth: 0, ..Default::default() }, "queue_depth"),
            (ServeConfig { batch: 0, ..Default::default() }, "batch"),
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
        let err = Server::start_with_spawner(p, n, cfg, Metrics::new(), 1, |w, shared, first| {
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
                .spawn(move || worker_loop(&shared, w, first))
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
            let probe = Work::Job(Job {
                key: CacheKey::new(
                    &SpacePoint::default_point().app,
                    Objective::Performance,
                    InstanceType::Cc2_8xlarge,
                    1,
                ),
                enqueued: Instant::now(),
                reply: None,
            });
            assert!(
                matches!(q.try_push(probe), Err(PushError::Closed(_))),
                "every queue must be closed after rollback"
            );
        }
    }

    #[test]
    fn the_first_generation_is_bound_at_spawn() {
        // The worker thread is held at a barrier while a request queues
        // and generation 2 is published behind it.  The request was
        // admitted under generation 1, so it must be answered from it; a
        // worker that read the store once its thread ran would answer it
        // from generation 2.
        let (p1, n1) = predictor(3, 3);
        let (p2, n2) = predictor(11, 4);
        let app = SpacePoint::default_point().app;
        let direct = move |p: &Predictor| {
            p.top_k(&app, Objective::Performance, InstanceType::Cc2_8xlarge, 5)
        };
        assert_ne!(direct(&p1), direct(&p2), "the generations must disagree on the probe");
        crate::queue::watchdog("first generation bound at spawn", move || {
            let gate = Arc::new(std::sync::Barrier::new(2));
            let hold = Arc::clone(&gate);
            let server = Server::start_with_spawner(
                p1.clone(),
                n1,
                ServeConfig::default(),
                Metrics::new(),
                1,
                move |w, shared, first| {
                    let hold = Arc::clone(&hold);
                    std::thread::Builder::new().spawn(move || {
                        hold.wait();
                        worker_loop(&shared, w, first)
                    })
                },
            )
            .unwrap();
            let h = server.handle();
            let before = h.submit(request(5)).unwrap();
            assert_eq!(server.publish(p2.clone(), n2), 2);
            let after = h.submit(request(5)).unwrap();
            gate.wait();
            let resp = before.wait().unwrap();
            assert_eq!(resp.snapshot_version, 1, "admitted before the publish");
            assert_eq!(*resp.top, direct(&p1));
            let resp = after.wait().unwrap();
            assert_eq!(resp.snapshot_version, 2, "admitted after the publish");
            assert_eq!(*resp.top, direct(&p2));
            server.shutdown();
        });
    }

    #[test]
    fn a_held_worker_drains_a_backlog_in_batches_of_the_configured_width() {
        // The worker is held at a barrier while 12 distinct requests
        // queue behind it, so its first drain finds the whole backlog:
        // at the default width of 8 it must take 8 and then 4.  A drain
        // that took fewer per wakeup still answers correctly; only the
        // batch counters tell it apart.
        let (p, n) = predictor(3, 3);
        crate::queue::watchdog("held worker drains in batches", move || {
            let gate = Arc::new(std::sync::Barrier::new(2));
            let hold = Arc::clone(&gate);
            let metrics = Metrics::new();
            let cfg = ServeConfig::default();
            assert_eq!(cfg.batch, 8);
            let server = Server::start_with_spawner(
                p.clone(),
                n,
                cfg,
                metrics.clone(),
                1,
                move |w, shared, first| {
                    let hold = Arc::clone(&hold);
                    std::thread::Builder::new().spawn(move || {
                        hold.wait();
                        worker_loop(&shared, w, first)
                    })
                },
            )
            .unwrap();
            let h = server.handle();
            let pending: Vec<(usize, Pending)> =
                (1..=12).map(|k| (k, h.submit(request(k)).unwrap())).collect();
            gate.wait();
            let app = SpacePoint::default_point().app;
            for (k, pend) in pending {
                let want = p.top_k(&app, Objective::Performance, InstanceType::Cc2_8xlarge, k);
                assert_eq!(*pend.wait().unwrap().top, want, "k={k}");
            }
            server.shutdown();
            assert_eq!(metrics.counter("serve.fused_batch.batches"), 2);
            assert_eq!(metrics.counter("serve.fused_batch.max_requests"), 8);
        });
    }

    #[test]
    fn a_publish_into_a_full_shard_queue_neither_waits_nor_sheds() {
        // One worker stalled on its first request, a depth-2 queue filled
        // behind it: the publish's marker goes past the bound.  Each step
        // below runs inside one job's 250 ms stall.
        let (p1, n1) = predictor(3, 3);
        let (p2, n2) = predictor(11, 4);
        crate::queue::watchdog("publish into a full queue", move || {
            let cfg = ServeConfig {
                workers: 1,
                queue_depth: 2,
                batch: 1,
                service_stall: Duration::from_millis(250),
                ..Default::default()
            };
            let server = Server::start(p1.clone(), n1, cfg, Metrics::new()).unwrap();
            let h = server.handle();
            let queue = &server.shared.queues[0];
            let until_drained = || {
                while !queue.is_empty() {
                    std::thread::yield_now();
                }
            };
            let stalled = h.submit(request(1)).unwrap();
            until_drained();
            let queued: Vec<Pending> = [2, 3].map(|k| h.submit(request(k)).unwrap()).into();
            assert!(matches!(h.submit(request(4)), Err(ServeError::Overloaded { queue_depth: 2 })));
            assert_eq!(server.shed_count(), 1);
            assert_eq!(server.publish(p2.clone(), n2), 2);
            assert_eq!(
                server.metrics().counter("serve.requests_served"),
                1,
                "the publish returned while the worker was still stalled"
            );
            assert_eq!((server.shed_count(), queue.len()), (1, 2), "the marker took no slot");
            assert_eq!(server.metrics().counter("serve.requests_shed"), 1);
            // Once the worker has taken both queued requests, the marker
            // still waits at the front, and the queue admits exactly its
            // bound.
            assert_eq!(stalled.wait().unwrap().snapshot_version, 1);
            let mut queued = queued.into_iter();
            let second = queued.next().unwrap().wait().unwrap();
            until_drained();
            let later: Vec<Pending> = [5, 6].map(|k| h.submit(request(k)).unwrap()).into();
            assert!(matches!(h.submit(request(7)), Err(ServeError::Overloaded { queue_depth: 2 })));
            assert_eq!(server.shed_count(), 2);
            let third = queued.next().unwrap().wait().unwrap();
            let app = SpacePoint::default_point().app;
            let direct = |p: &Predictor, k| {
                p.top_k(&app, Objective::Performance, InstanceType::Cc2_8xlarge, k)
            };
            for (resp, k) in [(second, 2), (third, 3)] {
                assert_eq!(resp.snapshot_version, 1, "k={k} was queued before the publish");
                assert_eq!(*resp.top, direct(&p1, k));
            }
            for (pend, k) in later.into_iter().zip([5, 6]) {
                let resp = pend.wait().unwrap();
                assert_eq!(resp.snapshot_version, 2, "k={k} was queued after the publish");
                assert_eq!(*resp.top, direct(&p2, k));
            }
            server.shutdown();
        });
    }

    #[test]
    fn a_generation_marker_clears_the_workers_cache() {
        // The worker is held at a barrier while A, A, a publish and A
        // queue up: the second A hits the first one's answer, and the
        // marker ahead of the third clears the cache, so it is scored
        // again on generation 2.
        let (p1, n1) = predictor(3, 3);
        let (p2, n2) = predictor(11, 4);
        crate::queue::watchdog("marker clears the cache", move || {
            let gate = Arc::new(std::sync::Barrier::new(2));
            let hold = Arc::clone(&gate);
            let metrics = Metrics::new();
            let server = Server::start_with_spawner(
                p1,
                n1,
                ServeConfig::default(),
                metrics.clone(),
                1,
                move |w, shared, first| {
                    let hold = Arc::clone(&hold);
                    std::thread::Builder::new().spawn(move || {
                        hold.wait();
                        worker_loop(&shared, w, first)
                    })
                },
            )
            .unwrap();
            let h = server.handle();
            let mut pending = vec![h.submit(request(5)).unwrap(), h.submit(request(5)).unwrap()];
            assert_eq!(server.publish(p2, n2), 2);
            pending.push(h.submit(request(5)).unwrap());
            gate.wait();
            let answered: Vec<(u64, bool)> = pending
                .into_iter()
                .map(|p| p.wait().unwrap())
                .map(|r| (r.snapshot_version, r.cache_hit))
                .collect();
            assert_eq!(answered, [(1, false), (1, true), (2, false)]);
            assert_eq!(metrics.counter("serve.cache_stale_evicted"), 1);
            assert_eq!(server.cache_stats().0, 1);
            server.shutdown();
        });
    }

    #[test]
    fn each_of_a_hundred_publishes_evicts_exactly_the_working_set() {
        // The same four requests after each of 100 publishes: the cache
        // never holds more than one generation's four answers, and each
        // marker drops exactly those.  The worker clears its cache at the
        // marker, before it answers the first request behind it, so the
        // count is exact as soon as that request returns.
        let (p, n) = predictor(3, 3);
        let metrics = Metrics::new();
        let server = Server::start(p.clone(), n, ServeConfig::default(), metrics.clone()).unwrap();
        let h = server.handle();
        let working_set: Vec<Request> = (1..=4).map(request).collect();
        for version in 1..=101u64 {
            if version > 1 {
                assert_eq!(server.publish(p.clone(), n), version);
            }
            for req in &working_set {
                let resp = h.query(*req).unwrap();
                assert_eq!((resp.snapshot_version, resp.cache_hit), (version, false));
            }
            assert_eq!(
                metrics.counter("serve.cache_stale_evicted"),
                4 * (version - 1),
                "after publish {}",
                version - 1
            );
        }
        // The current generation still answers from its cache.
        assert!(working_set.iter().all(|r| h.query(*r).unwrap().cache_hit));
        server.shutdown();
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
        let run = |batch: usize, cache_capacity: usize| {
            let cfg = ServeConfig { batch, cache_capacity, ..Default::default() };
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
        for capacity in [4096, 2] {
            let (one, one_hits, one_misses) = run(1, capacity);
            let (batched, hits, misses) = run(16, capacity);
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

    /// Pass `n` replies from a replier thread to this one through fresh
    /// reply slots; returns how many of the waits parked.  The waiter
    /// announces each slot and waits on it; the replier answers as soon as
    /// it sees the announcement, so the reply usually lands while the
    /// waiter polls, but every 16th time it first sleeps past the polling
    /// budget, so the waiter parks.  The replier busy-polls for the
    /// announcement: a replier that yielded could share one core with the
    /// waiter indefinitely, and then never run while the waiter polls.
    fn handoff_round(n: usize) -> usize {
        let slots: Arc<Vec<OneShot>> = Arc::new((0..n).map(|_| OneShot::default()).collect());
        let announced = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let replier = {
            let (slots, announced) = (Arc::clone(&slots), Arc::clone(&announced));
            std::thread::spawn(move || {
                let mut parked = 0;
                for (i, slot) in slots.iter().enumerate() {
                    while announced.load(Ordering::Acquire) <= i {
                        std::hint::spin_loop();
                    }
                    if i % 16 == 0 {
                        std::thread::sleep(Duration::from_micros(50));
                    }
                    parked += usize::from(matches!(*slot.lock(), OneShotState::Waiting));
                    slot.put(reply(i as u64));
                }
                parked
            })
        };
        for (i, slot) in slots.iter().enumerate() {
            announced.store(i + 1, Ordering::Release);
            assert_eq!(slot.wait(), Ok(reply(i as u64)), "reply {i}");
        }
        replier.join().unwrap()
    }

    #[test]
    fn the_spin_then_park_handoff_loses_no_wakeup() {
        // Every reply must reach its waiter, whether it lands while the
        // waiter polls or after it parked.  A host too busy to run both
        // threads at once (other tests scoring on every core) can make
        // every waiter park, so rounds of 100,000 replies repeat, up to
        // eight, until both paths have run.
        const REPLIES: usize = 100_000;
        let (replies, parked) = crate::queue::watchdog("spin → park handoff", || {
            let (mut replies, mut parked) = (0, 0);
            while replies < 8 * REPLIES && (replies == 0 || parked == 0 || parked == replies) {
                parked += handoff_round(REPLIES);
                replies += REPLIES;
            }
            (replies, parked)
        });
        assert!(parked > 0, "no waiter parked in {replies} replies: the park path never ran");
        assert!(
            parked < replies,
            "every waiter parked in {replies} replies: the polling path never ran"
        );
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
