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
//! Workers drain up to `batch` queued jobs per wakeup and answer them
//! through the **fused inference plane**: the whole drained batch's cache
//! misses are grouped by generation and scored in one candidate-major
//! sweep over the model arenas (`ModelSnapshot::answer_many`, i.e.
//! `Predictor::top_k_many`), amortizing arena traversal, row encoding,
//! and scratch across in-flight requests.  Duplicate keys within a batch
//! are computed once and absorbed by the versioned cache.  At `batch: 1`
//! every drain holds one job, so the same code answers request by
//! request; payloads and cache accounting are identical at any batch
//! size.
//!
//! Determinism: a response's payload is a pure function of (snapshot
//! version, canonical key).  Thread scheduling, batching boundaries, and
//! cache state can change *when* and *how cheaply* an answer is produced,
//! never *what* it is.

use crate::cache::{CachedTopK, ResultCache};
use crate::queue::{BoundedQueue, PushError};
use crate::snapshot::{ModelSnapshot, SnapshotStore};
use acic::{Acic, AppPoint, CacheKey, Metrics, Objective, Predictor};
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

/// A single-use reply slot the submitting thread parks on.
#[derive(Debug, Default)]
struct OneShot {
    slot: Mutex<OneShotState>,
    ready: Condvar,
}

#[derive(Debug, Default)]
enum OneShotState {
    #[default]
    Empty,
    Ready(Response),
    Closed,
}

impl OneShot {
    fn put(&self, r: Response) {
        *self.slot.lock().unwrap_or_else(PoisonError::into_inner) = OneShotState::Ready(r);
        self.ready.notify_one();
    }

    fn close(&self) {
        let mut slot = self.slot.lock().unwrap_or_else(PoisonError::into_inner);
        if matches!(*slot, OneShotState::Empty) {
            *slot = OneShotState::Closed;
        }
        self.ready.notify_one();
    }

    fn wait(&self) -> Result<Response, ServeError> {
        let mut slot = self.slot.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            match std::mem::take(&mut *slot) {
                OneShotState::Ready(r) => return Ok(r),
                OneShotState::Closed => return Err(ServeError::ShuttingDown),
                OneShotState::Empty => {
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
/// fused batch can span generations without blurring them.  Dropping an
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
    fn make_job(&self, req: Request) -> (usize, Job, Arc<OneShot>) {
        let key = req.key(self.shared.cfg.instance_type);
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
        let (shard, job, reply) = self.make_job(req);
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
        let (shard, job, reply) = self.make_job(req);
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

fn worker_loop(shared: &Shared, w: usize) {
    let queue = &shared.queues[w];
    loop {
        let batch = queue.pop_batch(shared.cfg.batch);
        if batch.is_empty() {
            return; // closed and drained
        }
        shared.metrics.incr("serve.batches", 1);
        shared.metrics.incr("serve.requests_served", batch.len() as u64);
        serve_fused(shared, batch);
    }
}

/// How a job's answer is produced within a fused batch.
enum Slot {
    /// Phase A found it in the versioned cache.
    Hit(CachedTopK),
    /// Phase A scheduled it for the fused sweep; Phase B fills the value.
    Compute(Option<CachedTopK>),
    /// Same (generation, key) as an earlier `Compute` in this batch: the
    /// primary computes and inserts once, and this job re-probes the cache
    /// in Phase C — the hit a one-job drain would have recorded.
    Dup,
}

/// The fused cross-request path: one drained batch becomes (at most one
/// per generation) candidate-major `predict_batch` sweeps.
///
/// Three phases, all in admission order where order is visible:
/// - **A (probe)**: record queue wait and probe the cache per job.
///   Misses join the fused sweep; duplicate (generation, key) misses defer
///   to Phase C so each unique key is computed exactly once.
/// - **B (sweep)**: stable-sort the misses by generation, and answer each
///   generation's run with one [`ModelSnapshot::answer_many`] call — the
///   candidate-major fused sweep over that generation's arenas.
///   Results are inserted into the versioned cache as they land.
/// - **C (respond)**: apply the per-request downstream stall and reply in
///   admission order.  Dups re-probe the cache (counting the same hit a
///   one-job drain would); if a tiny cache already evicted the entry, they
///   recompute exactly like a one-job miss.
fn serve_fused(shared: &Shared, batch: Vec<Job>) {
    let m = &shared.metrics;
    m.incr("serve.fused_batch.batches", 1);
    m.incr("serve.fused_batch.requests", batch.len() as u64);
    m.record_max("serve.fused_batch.max_requests", batch.len() as u64);

    // Phase A: probe in admission order; collect unique misses.  The dup
    // check runs *before* the cache probe: by the time a one-job drain
    // reaches a dup its primary has already inserted, so it books exactly
    // one hit for it — probing here would add a phantom miss and make
    // cache counters depend on batching boundaries (breaking deterministic
    // replay).
    let mut slots: Vec<Slot> = Vec::with_capacity(batch.len());
    let mut to_compute: Vec<usize> = Vec::new();
    for (i, job) in batch.iter().enumerate() {
        m.observe_latency("serve.queue_wait", job.enqueued.elapsed().as_secs_f64());
        let dup = to_compute
            .iter()
            .any(|&j| batch[j].snapshot.version() == job.snapshot.version() && batch[j].key == job.key);
        if dup {
            slots.push(Slot::Dup);
            continue;
        }
        let t0 = Instant::now();
        match shared.cache.get(&job.key, job.snapshot.version()) {
            Some(top) => {
                m.observe_latency("serve.cache_hit", t0.elapsed().as_secs_f64());
                slots.push(Slot::Hit(top));
            }
            None => {
                to_compute.push(i);
                slots.push(Slot::Compute(None));
            }
        }
    }

    // Phase B: one fused sweep per generation run.
    to_compute.sort_by_key(|&i| batch[i].snapshot.version());
    let mut groups = 0u64;
    let mut g = 0;
    while g < to_compute.len() {
        let version = batch[to_compute[g]].snapshot.version();
        let mut end = g + 1;
        while end < to_compute.len() && batch[to_compute[end]].snapshot.version() == version {
            end += 1;
        }
        groups += 1;
        let run = &to_compute[g..end];
        let keys: Vec<&CacheKey> = run.iter().map(|&i| &batch[i].key).collect();
        let t0 = Instant::now();
        let answers = batch[run[0]].snapshot.answer_many(&keys);
        // Each fused answer books its fair share of the sweep, keeping one
        // `serve.predict` observation per prediction at any batch size.
        let share = t0.elapsed().as_secs_f64() / run.len() as f64;
        for (&i, answer) in run.iter().zip(answers) {
            let top: CachedTopK = Arc::new(answer);
            shared.cache.insert(batch[i].key.clone(), version, Arc::clone(&top));
            m.observe_latency("serve.predict", share);
            m.incr("serve.predictions", 1);
            slots[i] = Slot::Compute(Some(top));
        }
        g = end;
    }
    m.incr("serve.fused_batch.groups", groups);

    // Phase C: stall + respond in admission order.
    for (i, mut job) in batch.into_iter().enumerate() {
        if !shared.cfg.service_stall.is_zero() {
            std::thread::sleep(shared.cfg.service_stall);
        }
        let version = job.snapshot.version();
        let (top, cache_hit) = match std::mem::replace(&mut slots[i], Slot::Dup) {
            Slot::Hit(top) => (top, true),
            Slot::Compute(Some(top)) => (top, false),
            Slot::Compute(None) => unreachable!("phase B fills every scheduled slot"),
            Slot::Dup => {
                let t0 = Instant::now();
                match shared.cache.get(&job.key, version) {
                    Some(top) => {
                        m.observe_latency("serve.cache_hit", t0.elapsed().as_secs_f64());
                        (top, true)
                    }
                    None => {
                        // The primary's entry was evicted already (tiny
                        // cache): recompute, as a one-job miss would.
                        let top: CachedTopK = Arc::new(job.snapshot.answer(&job.key));
                        shared.cache.insert(job.key.clone(), version, Arc::clone(&top));
                        m.observe_latency("serve.predict", t0.elapsed().as_secs_f64());
                        m.incr("serve.predictions", 1);
                        (top, false)
                    }
                }
            }
        };
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
        // Fusing is a batching strategy, not a semantic: a batch-16 drain
        // must match one-job drains bit for bit on a mixed workload
        // (duplicates, distinct apps, varied k) — payloads, versions, and
        // cache hit/miss accounting — and every payload must be the
        // snapshot's direct answer.
        let (p, n) = predictor(4, 3);
        let mut big = request(7);
        big.app.data_size = mib(512.0);
        let mut cost = request(2);
        cost.objective = Objective::Cost;
        let reqs =
            [request(3), big, request(3), cost, request(28), big, request(1), cost, request(3)];
        let run = |batch: usize| {
            let cfg = ServeConfig { batch, ..Default::default() };
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
        let (one, one_hits, one_misses) = run(1);
        let (fused, fused_hits, fused_misses) = run(16);
        assert_eq!((one_hits, one_misses), (fused_hits, fused_misses), "cache accounting");
        for (i, (a, b)) in one.iter().zip(&fused).enumerate() {
            assert_eq!(a.snapshot_version, b.snapshot_version, "request {i}");
            assert_eq!(a.cache_hit, b.cache_hit, "request {i}");
            assert_eq!(a.top.len(), b.top.len(), "request {i}");
            for (x, y) in a.top.iter().zip(b.top.iter()) {
                assert_eq!(x.0, y.0, "request {i}");
                assert_eq!(x.1.to_bits(), y.1.to_bits(), "request {i}");
            }
        }
    }

    #[test]
    fn fused_metrics_track_batches_and_sweep_groups() {
        let (p, n) = predictor(3, 3);
        let m = Metrics::new();
        let server = Server::start(p, n, ServeConfig::default(), m.clone()).unwrap();
        let h = server.handle();
        h.query(request(3)).unwrap(); // miss -> one sweep group
        h.query(request(4)).unwrap(); // distinct key: miss -> one group
        h.query(request(3)).unwrap(); // hit -> no group
        server.shutdown();
        assert_eq!(m.counter("serve.fused_batch.batches"), 3);
        assert_eq!(m.counter("serve.fused_batch.requests"), 3);
        assert_eq!(m.counter("serve.fused_batch.max_requests"), 1);
        assert_eq!(m.counter("serve.fused_batch.groups"), 2);
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
        assert_eq!(m.latency_count("serve.predict"), 1);
        assert_eq!(m.latency_count("serve.cache_hit"), 1);
        let r = m.render();
        assert!(r.contains("serve.queue_wait"), "{r}");
    }
}
