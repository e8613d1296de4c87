//! The serving half of the lifecycle: request traffic for a one-node
//! `Cluster`, a closed loop (capacity) and an open loop at a fixed rate
//! (latency), and the check of every answer the benchmark knows.

use crate::harness::{SpanId, Tracer};
use crate::loadgen::{self, Clock, WallClock};
use crate::{Ctx, Report};
use acic::SystemConfig;
use acic_cloudsim::instance::InstanceType;
use acic_cloudsim::rng::SplitMix64;
use acic_serve::cluster::Trace;
use acic_serve::{ClusterClient, Pending, Request};
use std::collections::VecDeque;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// In-flight bound of the closed loop.
pub const WINDOW: usize = 1024;
/// Shard queue depth: a host stall of up to 0.65 s at the hot open-loop
/// rate is queued rather than shed.  At depth 1,024, one ~13 ms stall on the
/// 2-vCPU development box shed 236 requests.
pub const QUEUE_DEPTH: usize = 1 << 16;
/// One request in this many gets request spans in a traced run.
const SAMPLE: u64 = 64;

/// The requests a workload sends and the answers it checks.
pub struct Traffic {
    pub pool: Vec<Request>,
    /// Direct `Predictor::top_k` answers for the checked pool entries.
    expected: Vec<Option<Vec<(SystemConfig, f64)>>>,
    /// Hot traffic draws pool entries at random (with repetition); cold
    /// traffic walks the pool in order, so no entry repeats while the
    /// result cache could still hold it.
    pub hot: bool,
}

impl Traffic {
    /// Hot: a 512-entry pool, every answer checked.  Cold: a pool far
    /// larger than the result cache, a seeded 1/64 of answers checked.
    pub fn new(ctx: &Ctx, hot: bool, predictor: &acic::Predictor) -> Self {
        let size = if hot { ctx.sizes.hot_pool } else { ctx.sizes.cold_pool };
        let pool = Trace::with_pool(ctx.seed, 0, size).pool().to_vec();
        let mut pick = SplitMix64::new(ctx.seed ^ 0x6368_6563_6b5f_7631); // "check_v1"
        let expected = pool
            .iter()
            .map(|r| {
                (hot || pick.below(64) == 0)
                    .then(|| predictor.top_k(&r.app, r.objective, InstanceType::Cc2_8xlarge, r.k))
            })
            .collect();
        Self { pool, expected, hot }
    }

    /// Whether `answer` is right for pool entry `idx` (unchecked entries
    /// always pass).
    pub fn check(&self, idx: usize, answer: &[(SystemConfig, f64)]) -> bool {
        self.expected[idx].as_deref().is_none_or(|want| want == answer)
    }
}

/// The position in a workload's request sequence.
pub struct Draw {
    rng: SplitMix64,
    cursor: usize,
}

impl Draw {
    pub fn new(seed: u64) -> Self {
        Self { rng: SplitMix64::new(seed ^ 0x0064_7261_775f_7631), cursor: 0 } // "draw_v1"
    }

    pub fn next(&mut self, traffic: &Traffic) -> usize {
        if traffic.hot {
            self.rng.below(traffic.pool.len())
        } else {
            self.cursor += 1;
            (self.cursor - 1) % traffic.pool.len()
        }
    }
}

/// What a request loop saw.
#[derive(Default)]
pub struct LoopStats {
    pub sent: u64,
    pub answered: u64,
    pub failed: u64,
    mismatches: u64,
    /// Closed loop: seconds from the first send to the last answer.
    pub secs: f64,
    /// Open loop: microseconds from due time to answer, every request, in
    /// due order.
    pub latency_us: Vec<f64>,
    /// Open loop: how late the generator sent each request, µs.
    pub late_us: Vec<f64>,
    /// Closed loop, sampled: time blocked in `Pending::wait`, µs.
    pub wait_us: Vec<f64>,
    /// Closed loop, sampled: `ClusterClient::route`, ns.
    pub route_ns: Vec<f64>,
}

/// A submitted request and, when sampled, its span bookkeeping.
struct InFlight {
    i: u64,
    idx: usize,
    pending: Pending,
    span: Option<(SpanId, Instant)>,
}

/// Route, then submit with admission control.  Sampled requests record a
/// `submit` span and a `route` timing; a refused request counts as failed.
fn submit(
    client: &ClusterClient,
    req: Request,
    i: u64,
    idx: usize,
    tracer: &Tracer,
    stats: &mut LoopStats,
) -> Option<InFlight> {
    stats.sent += 1;
    let span = (tracer.is_on() && i.is_multiple_of(SAMPLE)).then(|| {
        let t = Instant::now();
        std::hint::black_box(client.route(&req));
        stats.route_ns.push(t.elapsed().as_nanos() as f64);
        (tracer.reserve(), tracer.reserve())
    });
    let start = Instant::now();
    match client.submit(req) {
        Ok(pending) => {
            let span = span.map(|(request, submit)| {
                tracer.finish(submit, "submit", "cluster", request, Some(i), start, Instant::now());
                (request.expect("tracing is on"), start)
            });
            Some(InFlight { i, idx, pending, span })
        }
        Err(_) => {
            stats.failed += 1;
            None
        }
    }
}

/// Wait for one answer and check it.
fn settle(
    f: InFlight,
    traffic: &Traffic,
    tracer: &Tracer,
    root: Option<SpanId>,
    stats: &mut LoopStats,
) {
    let t = Instant::now();
    let answer = f.pending.wait();
    let done = Instant::now();
    match answer {
        Ok(resp) => {
            stats.answered += 1;
            if !traffic.check(f.idx, &resp.top) {
                stats.mismatches += 1;
            }
        }
        Err(_) => stats.failed += 1,
    }
    if let Some((span, start)) = f.span {
        stats.wait_us.push((done - t).as_secs_f64() * 1e6);
        tracer.finish(Some(span), "request", "serve", root, Some(f.i), start, done);
    }
}

/// One client thread keeps up to [`WINDOW`] requests in flight for `window`.
pub fn closed_loop(
    client: &ClusterClient,
    traffic: &Traffic,
    draw: &mut Draw,
    window: Duration,
    tracer: &Tracer,
    root: Option<SpanId>,
) -> LoopStats {
    let mut stats = LoopStats::default();
    let mut inflight = VecDeque::with_capacity(WINDOW);
    let t0 = Instant::now();
    for i in 0u64.. {
        if i % 256 == 0 && t0.elapsed() >= window {
            break;
        }
        let idx = draw.next(traffic);
        if let Some(f) = submit(client, traffic.pool[idx], i, idx, tracer, &mut stats) {
            inflight.push_back(f);
        }
        if inflight.len() >= WINDOW {
            let f = inflight.pop_front().expect("window is full");
            settle(f, traffic, tracer, root, &mut stats);
        }
    }
    while let Some(f) = inflight.pop_front() {
        settle(f, traffic, tracer, root, &mut stats);
    }
    stats.secs = t0.elapsed().as_secs_f64();
    stats
}

/// One client thread sends at `rate` requests per second for `window`;
/// a collector thread waits for the answers in order.
pub fn open_loop(
    client: &ClusterClient,
    traffic: &Traffic,
    draw: &mut Draw,
    rate: f64,
    window: Duration,
    tracer: &Tracer,
    root: Option<SpanId>,
) -> LoopStats {
    let clock = WallClock::start();
    let (tx, rx) = mpsc::channel::<(Duration, InFlight)>();
    let mut stats = LoopStats::default();
    let answered = std::thread::scope(|s| {
        let collector = s.spawn(move || {
            let mut got = LoopStats::default();
            got.latency_us.reserve((rate * window.as_secs_f64()) as usize);
            for (due, f) in rx {
                settle(f, traffic, tracer, root, &mut got);
                got.latency_us.push(loadgen::since_us(due, clock.now()));
            }
            got
        });
        stats.late_us = loadgen::drive(&clock, rate, window, |i, due| {
            let idx = draw.next(traffic);
            if let Some(f) = submit(client, traffic.pool[idx], i, idx, tracer, &mut stats) {
                tx.send((due, f)).expect("collector outlives the sender");
            }
        });
        drop(tx);
        collector.join().expect("collector thread panicked")
    });
    stats.answered = answered.answered;
    stats.failed += answered.failed;
    stats.mismatches = answered.mismatches;
    stats.latency_us = answered.latency_us;
    stats
}

/// Count a loop's requests and check that every checked answer was right.
pub fn tally(out: &mut Report, stats: &LoopStats) {
    out.attempted += stats.sent;
    out.failed += stats.failed;
    out.check(stats.mismatches == 0, || {
        format!("{} of {} answers differ from Predictor::top_k", stats.mismatches, stats.answered)
    });
}
