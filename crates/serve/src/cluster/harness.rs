//! The cluster-in-a-process replay harness: seeded traces, windowed
//! pipelined replay, and response digests.
//!
//! This is the proof machinery for the tier's determinism claim.  The
//! argument, end to end:
//!
//! 1. A [`Trace`] is a pure function `index → Request` of its seed, so
//!    every run (any process, any node count) replays the same requests
//!    in the same submission order.
//! 2. Routing is a pure function of (canonical key, ring) — see
//!    [`super::ring`] — so each request meets the same node every run.
//! 3. A response payload is a pure function of (snapshot content,
//!    canonical key): the serve pool's concurrency changes *when* an
//!    answer arrives, never *what* it is, and every node refits the same
//!    verified artifact bit-identically.
//! 4. The loopback transport is synchronous and lossless; with blocking
//!    admission, the only shed cause is a down endpoint — a pure function
//!    of the kill schedule, because [`super::Cluster::kill`] takes the
//!    endpoint down at an exact trace index (the replay loop drains all
//!    outstanding requests at every liveness/publish boundary first).
//!
//! Therefore the [`ReplayOutcome::digest`] — an FNV-1a over
//! `index\tpayload\n` lines in submission order — is identical across
//! node counts, across runs, and (for non-shed requests) across
//! kill → rejoin schedules.  Payload rendering deliberately excludes the
//! snapshot version and the cache-hit flag: those describe *how* the
//! answer was produced, not *what* it is.

use super::transport::ClusterError;
use super::{Cluster, NodeId};
use crate::server::{Pending, Request, Response};
use acic::record::{Reader, Tail, Writer};
use acic::{AcicError, Objective};
use acic_fsim::{IoApi, IoOp};
use std::collections::{HashSet, VecDeque};

/// SplitMix64 finalizer: the harness's only randomness primitive.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small deterministic value stream over a seed.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    fn pick(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }
}

/// A seeded request trace: `len` draws (with repetition) from a
/// deterministically generated working-set pool.  The pool bounds the
/// number of *distinct* canonical keys, so long replays exercise warm
/// caches the way production traffic would; `request(i)` is random-access
/// (no per-index state), so a million-request trace costs no memory.
#[derive(Debug, Clone)]
pub struct Trace {
    pool: Vec<Request>,
    seed: u64,
    len: usize,
}

impl Trace {
    /// Default working-set size (distinct requests in the pool).
    pub const DEFAULT_POOL: usize = 512;

    /// A trace of `len` requests drawn from a [`Self::DEFAULT_POOL`]-sized
    /// pool generated from `seed`.
    pub fn new(seed: u64, len: usize) -> Self {
        Self::with_pool(seed, len, Self::DEFAULT_POOL)
    }

    /// A trace with an explicit working-set size (clamped to ≥ 1).
    pub fn with_pool(seed: u64, len: usize, pool_size: usize) -> Self {
        let mut s = Stream(mix(seed ^ 0x7472_6163_655f_7631)); // "trace_v1"
        let pool = (0..pool_size.max(1))
            .map(|_| {
                let mut app = acic::space::SpacePoint::default_point().app;
                app.nprocs = [4, 8, 16, 32, 64][s.pick(5)];
                app.io_procs = 1 + s.pick(app.nprocs);
                app.api = [IoApi::Posix, IoApi::MpiIo, IoApi::Hdf5, IoApi::NetCdf][s.pick(4)];
                app.iterations = 1 + s.pick(10);
                app.data_size = (1u64 << (20 + s.pick(10))) as f64; // 1 MiB .. 512 MiB
                app.request_size = (1u64 << (12 + s.pick(9))) as f64; // 4 KiB .. 1 MiB
                app.op = [IoOp::Read, IoOp::Write][s.pick(2)];
                app.collective = s.pick(2) == 0;
                app.shared_file = s.pick(2) == 0;
                let objective = Objective::ALL[s.pick(2)];
                Request { app, objective, k: 1 + s.pick(8) }
            })
            .collect();
        Self { pool, seed, len }
    }

    /// Number of requests in the trace.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The distinct-request pool backing the trace.
    pub fn pool(&self) -> &[Request] {
        &self.pool
    }

    /// The `i`-th request — a pure function of (seed, i).
    pub fn request(&self, i: usize) -> Request {
        self.pool[(mix(self.seed ^ (i as u64).wrapping_mul(0xA24B_AED4_963E_E407))
            % self.pool.len() as u64) as usize]
    }

    /// Render the whole trace in the recordable line format
    /// ([`render_request`]), one request per line under a counting header.
    pub fn render(&self) -> String {
        render_trace((0..self.len).map(|i| self.request(i)))
    }
}

/// Header of the recorded trace format.
const TRACE_VERSION: &str = "acic-trace-v1";

/// Render one request in the machine trace format: space-separated
/// fields, sizes as exact f64 bit patterns (hex), so parse ∘ render is
/// the identity on canonical requests.
pub fn render_request(req: &Request) -> String {
    let api = match req.app.api {
        IoApi::Posix => "posix",
        IoApi::MpiIo => "mpiio",
        IoApi::Hdf5 => "hdf5",
        IoApi::NetCdf => "netcdf",
    };
    let op = match req.app.op {
        IoOp::Read => "read",
        IoOp::Write => "write",
    };
    let objective = match req.objective {
        Objective::Performance => "perf",
        Objective::Cost => "cost",
    };
    format!(
        "{} {} {api} {} {:016x} {:016x} {op} {} {} {objective} {}",
        req.app.nprocs,
        req.app.io_procs,
        req.app.iterations,
        req.app.data_size.to_bits(),
        req.app.request_size.to_bits(),
        req.app.collective as u8,
        req.app.shared_file as u8,
        req.k,
    )
}

/// Parse one [`render_request`] line.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let fields: Vec<&str> = line.split_whitespace().collect();
    if fields.len() != 11 {
        return Err(format!("trace line has {} fields, want 11: {line:?}", fields.len()));
    }
    let int = |i: usize, what: &str| -> Result<usize, String> {
        fields[i].parse().map_err(|_| format!("bad {what} {:?}", fields[i]))
    };
    let bits = |i: usize, what: &str| -> Result<f64, String> {
        u64::from_str_radix(fields[i], 16)
            .map(f64::from_bits)
            .map_err(|_| format!("bad {what} bits {:?}", fields[i]))
    };
    let flag = |i: usize, what: &str| -> Result<bool, String> {
        match fields[i] {
            "0" => Ok(false),
            "1" => Ok(true),
            other => Err(format!("bad {what} flag {other:?}")),
        }
    };
    let mut app = acic::space::SpacePoint::default_point().app;
    app.nprocs = int(0, "nprocs")?;
    app.io_procs = int(1, "io_procs")?;
    app.api = match fields[2] {
        "posix" => IoApi::Posix,
        "mpiio" => IoApi::MpiIo,
        "hdf5" => IoApi::Hdf5,
        "netcdf" => IoApi::NetCdf,
        other => return Err(format!("unknown api {other:?}")),
    };
    app.iterations = int(3, "iterations")?;
    app.data_size = bits(4, "data_size")?;
    app.request_size = bits(5, "request_size")?;
    app.op = match fields[6] {
        "read" => IoOp::Read,
        "write" => IoOp::Write,
        other => return Err(format!("unknown op {other:?}")),
    };
    app.collective = flag(7, "collective")?;
    app.shared_file = flag(8, "shared_file")?;
    let objective = match fields[9] {
        "perf" => Objective::Performance,
        "cost" => Objective::Cost,
        other => return Err(format!("unknown objective {other:?}")),
    };
    Ok(Request { app, objective, k: int(10, "k")? })
}

/// Render a request sequence as a recordable trace file: the
/// [`acic::record`] framing with the request count on the version line.
pub fn render_trace(requests: impl IntoIterator<Item = Request>) -> String {
    let requests: Vec<Request> = requests.into_iter().collect();
    let header = format!("{TRACE_VERSION} {}", requests.len());
    let mut file = Writer::new(&header, header.len() + 64 * requests.len());
    for req in &requests {
        file.record(|out| out.extend_from_slice(render_request(req).as_bytes()));
    }
    file.finish()
}

/// Parse a [`render_trace`] file back into its request sequence.  The
/// file is written whole, so an unterminated final line is rejected.
pub fn parse_trace(text: &str) -> Result<Vec<Request>, String> {
    let mut file = Reader::new(text, Tail::Reject);
    let count = file.counted_version(TRACE_VERSION)?;
    let mut requests = Vec::new();
    for record in file {
        let (line, text) = record?;
        requests.push(parse_request(text).map_err(|e| format!("trace line {line}: {e}"))?);
    }
    if requests.len() != count {
        return Err(format!("trace holds {} requests, header says {count}", requests.len()));
    }
    Ok(requests)
}

/// Render a response's *payload*: the top-k list with exact score bits.
/// Snapshot version and cache-hit flag are deliberately excluded — they
/// describe how the answer was produced, not what it is, and the digest
/// must survive republishes and kill → rejoin cache refills.
pub fn render_payload(resp: &Response) -> String {
    let mut out = String::new();
    for (i, (cfg, score)) in resp.top.iter().enumerate() {
        if i > 0 {
            out.push(';');
        }
        out.push_str(&cfg.notation());
        out.push('@');
        out.push_str(&format!("{:016x}", score.to_bits()));
    }
    out
}

/// An order-sensitive FNV-1a digest over `index\tpayload\n` records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn record(&mut self, index: usize, payload: &str) {
        self.update(format!("{index}\t{payload}\n").as_bytes());
    }

    /// The current digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// A mid-replay node failure schedule: take `node` down just before trace
/// index `kill_at` and bring it back just before `rejoin_at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillPlan {
    /// The node to kill.
    pub node: NodeId,
    /// Trace index at which the node goes down (drain-then-kill).
    pub kill_at: usize,
    /// Trace index at which the node rejoins (must be ≥ `kill_at`).
    pub rejoin_at: usize,
}

/// Maximum in-flight requests of a replay.
const WINDOW: usize = 1024;

/// Replay fault schedule and response collection.
#[derive(Debug, Clone, Default)]
pub struct ReplayOptions {
    /// Trace indices to *not* submit — used to compare a faulted run
    /// against a clean run over exactly the requests both answered.
    pub skip: HashSet<usize>,
    /// Optional kill → rejoin schedule.
    pub kill: Option<KillPlan>,
    /// Republish the cluster's current artifact just before this index
    /// (exercises generation turnover mid-replay).
    pub republish_at: Option<usize>,
    /// Collect every `(index, payload)` pair (memory ∝ trace length; keep
    /// off for million-request replays and compare digests instead).
    pub collect_responses: bool,
}

/// What a replay produced.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// Requests submitted (trace length minus skips).
    pub submitted: usize,
    /// Requests answered.
    pub answered: usize,
    /// Trace indices shed because their owner was down, in order.
    pub shed: Vec<usize>,
    /// Order-sensitive digest over all answered `index\tpayload` records.
    pub digest: u64,
    /// Rendered payloads when [`ReplayOptions::collect_responses`] is set.
    pub responses: Vec<(usize, String)>,
}

/// Replay `len` requests (`request(i)` for `i` in submission order)
/// through the cluster with a bounded in-flight window, applying the
/// fault/publish schedule at exact trace indices.  All outstanding
/// requests are drained before any liveness or publish event, so event
/// boundaries are exact: every request before the boundary is answered by
/// the pre-event cluster, everything after by the post-event cluster.
pub fn replay(
    cluster: &mut Cluster,
    len: usize,
    request: impl Fn(usize) -> Request,
    opts: &ReplayOptions,
) -> Result<ReplayOutcome, AcicError> {
    let client = cluster.client();
    let mut outstanding: VecDeque<(usize, Pending)> = VecDeque::with_capacity(WINDOW);
    let mut digest = Digest::new();
    let mut outcome = ReplayOutcome {
        submitted: 0,
        answered: 0,
        shed: Vec::new(),
        digest: 0,
        responses: Vec::new(),
    };
    let drain = |outstanding: &mut VecDeque<(usize, Pending)>,
                     outcome: &mut ReplayOutcome,
                     digest: &mut Digest|
     -> Result<(), AcicError> {
        while let Some((index, pending)) = outstanding.pop_front() {
            let resp = pending.wait().map_err(|e| {
                AcicError::Invalid(format!("replay request {index} lost to shutdown: {e}"))
            })?;
            let payload = render_payload(&resp);
            digest.record(index, &payload);
            outcome.answered += 1;
            if opts.collect_responses {
                outcome.responses.push((index, payload));
            }
        }
        Ok(())
    };
    for i in 0..len {
        if let Some(kill) = opts.kill {
            if kill.kill_at == i {
                drain(&mut outstanding, &mut outcome, &mut digest)?;
                cluster.kill(kill.node)?;
            }
            if kill.rejoin_at == i {
                drain(&mut outstanding, &mut outcome, &mut digest)?;
                cluster.rejoin(kill.node)?;
            }
        }
        if opts.republish_at == Some(i) {
            drain(&mut outstanding, &mut outcome, &mut digest)?;
            cluster.republish()?;
        }
        if opts.skip.contains(&i) {
            continue;
        }
        match client.submit_blocking(request(i)) {
            Ok(pending) => {
                outcome.submitted += 1;
                outstanding.push_back((i, pending));
                if outstanding.len() >= WINDOW {
                    let (index, pending) = outstanding.pop_front().expect("window is nonempty");
                    let resp = pending.wait().map_err(|e| {
                        AcicError::Invalid(format!("replay request {index} lost to shutdown: {e}"))
                    })?;
                    let payload = render_payload(&resp);
                    digest.record(index, &payload);
                    outcome.answered += 1;
                    if opts.collect_responses {
                        outcome.responses.push((index, payload));
                    }
                }
            }
            Err(ClusterError::NodeDown { .. }) => {
                outcome.submitted += 1;
                outcome.shed.push(i);
            }
            Err(e) => {
                return Err(AcicError::Invalid(format!("replay request {i} failed: {e}")));
            }
        }
    }
    // Post-trace events scheduled exactly at `len` still fire (a kill or
    // rejoin at the end of the trace is a valid schedule).
    if let Some(kill) = opts.kill {
        if kill.rejoin_at == len {
            drain(&mut outstanding, &mut outcome, &mut digest)?;
            cluster.rejoin(kill.node)?;
        }
    }
    drain(&mut outstanding, &mut outcome, &mut digest)?;
    outcome.digest = digest.value();
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use acic::{Metrics, PublishedSnapshot, Trainer};
    use acic_cart::ModelKind;

    fn artifact() -> PublishedSnapshot {
        let db = Trainer::with_paper_ranking(5).collect(3).unwrap();
        PublishedSnapshot::from_db(&db, 5, ModelKind::Cart)
    }

    fn cluster(nodes: usize) -> Cluster {
        Cluster::start(artifact(), ClusterConfig::with_nodes(nodes), Metrics::new()).unwrap()
    }

    #[test]
    fn trace_is_random_access_and_repetition_heavy() {
        let t = Trace::with_pool(7, 10_000, 64);
        assert_eq!(t.len(), 10_000);
        for i in [0, 17, 9_999] {
            assert_eq!(t.request(i), t.request(i), "request(i) must be pure");
        }
        let rebuilt = Trace::with_pool(7, 10_000, 64);
        assert_eq!(t.request(123), rebuilt.request(123), "trace is a pure function of its seed");
        // 10k draws over 64 distinct requests: duplicates are guaranteed,
        // which is what gives long replays their warm-cache behavior.
        let distinct: std::collections::HashSet<String> =
            (0..10_000).map(|i| render_request(&t.request(i))).collect();
        assert!(distinct.len() <= 64, "{} distinct requests from a pool of 64", distinct.len());
        assert!(distinct.len() >= 32, "pool badly under-sampled: {}", distinct.len());
    }

    #[test]
    fn trace_lines_round_trip_exactly() {
        let t = Trace::new(11, 200);
        let rendered = t.render();
        let parsed = parse_trace(&rendered).unwrap();
        assert_eq!(parsed.len(), 200);
        for (i, req) in parsed.iter().enumerate() {
            assert_eq!(render_request(req), render_request(&t.request(i)), "line {i}");
        }
        // And rendering the parsed sequence reproduces the bytes.
        assert_eq!(render_trace(parsed), rendered);
        let mut bytes = Digest::new();
        bytes.update(rendered.as_bytes());
        assert_eq!((bytes.value(), rendered.len()), (0x2e5b_8be2_8d69_5461, 12_729));
    }

    #[test]
    fn parse_rejects_malformed_lines_and_bad_headers() {
        assert!(parse_trace("").is_err());
        assert!(parse_trace("acic-trace-v9 1\n").is_err());
        assert!(parse_trace("acic-trace-v1 2\n").is_err(), "count mismatch");
        // A trace is written whole: an unterminated final line is a tear.
        let rendered = Trace::new(3, 4).render();
        assert!(parse_trace(&rendered[..rendered.len() - 1]).is_err(), "final newline removed");
        assert!(parse_trace(&rendered[..rendered.len() - 2]).is_err(), "last digit removed");
        assert!(parse_request("4 2 posix 1").is_err(), "too few fields");
        let good = render_request(&Trace::new(3, 1).request(0));
        assert!(parse_request(&good).is_ok());
        assert!(parse_request(&good.replace("posix", "poxis").replace("mpiio", "poxis")).is_err());
    }

    #[test]
    fn a_corrupt_request_count_is_a_typed_error_not_an_allocation() {
        let err = parse_trace(&format!("acic-trace-v1 {}\n", usize::MAX)).unwrap_err();
        assert!(err.contains("header says"), "{err}");
    }

    #[test]
    fn replay_digest_is_stable_across_runs_and_node_counts() {
        let t = Trace::with_pool(21, 600, 64);
        let mut digests = Vec::new();
        for nodes in [1, 2, 3] {
            let mut c = cluster(nodes);
            let out = replay(&mut c, t.len(), |i| t.request(i), &ReplayOptions::default()).unwrap();
            assert_eq!(out.answered, 600);
            assert!(out.shed.is_empty());
            digests.push(out.digest);
            c.shutdown();
        }
        assert_eq!(digests[0], digests[1], "1-node vs 2-node digest");
        assert_eq!(digests[0], digests[2], "1-node vs 3-node digest");
    }

    #[test]
    fn republish_mid_replay_does_not_change_the_digest() {
        let t = Trace::with_pool(22, 400, 64);
        let mut clean = cluster(2);
        let base = replay(&mut clean, t.len(), |i| t.request(i), &ReplayOptions::default()).unwrap();
        clean.shutdown();
        let mut published = cluster(2);
        let opts = ReplayOptions { republish_at: Some(200), ..Default::default() };
        let out = replay(&mut published, t.len(), |i| t.request(i), &opts).unwrap();
        assert_eq!(published.generation(), 2);
        published.shutdown();
        assert_eq!(out.digest, base.digest, "payloads must not see the generation turnover");
    }

    #[test]
    fn skip_set_removes_exactly_those_records_from_the_digest() {
        let t = Trace::with_pool(23, 100, 32);
        // Reference digest computed by hand over the non-skipped indices.
        let skip: HashSet<usize> = [3, 50, 99].into_iter().collect();
        let mut c = cluster(1);
        let collected = replay(
            &mut c,
            t.len(),
            |i| t.request(i),
            &ReplayOptions { collect_responses: true, ..Default::default() },
        )
        .unwrap();
        let mut want = Digest::new();
        for (i, payload) in &collected.responses {
            if !skip.contains(i) {
                want.record(*i, payload);
            }
        }
        let skipped =
            replay(&mut c, t.len(), |i| t.request(i), &ReplayOptions { skip, ..Default::default() })
                .unwrap();
        assert_eq!(skipped.answered, 97);
        assert_eq!(skipped.digest, want.value());
        c.shutdown();
    }
}
