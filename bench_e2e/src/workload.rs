//! The two workloads.  Each runs ACIC's whole lifecycle — plan, durable
//! campaign, publish, serve — on inputs with different properties:
//!
//! - `grid_hot`: the exhaustive grid campaign, whose simulation is cheap
//!   (the commit plane, store ingest, and the CART fit carry its cost),
//!   served a small request pool that the result cache holds.
//! - `scale_cold`: a sample of the full grid under faults, whose large
//!   simulated runs, baselines, and retries dominate, served a pool far
//!   larger than the cache, so scoring runs for nearly every request.
//!
//! A run sets up (plan, first campaign, cluster start) several times, then
//! repeats rounds until the measured window has passed.  A round trains
//! again, publishes the new snapshot to the live node, and serves it: a
//! closed loop, then an open loop at a fixed rate.  Every end-to-end metric
//! thus draws on the whole window, so a slow phase of a shared host moves a
//! few rounds of every metric rather than all of one.

use crate::campaign::{self, lifecycle, PaperRuns, Plan, Rep};
use crate::harness::{self, median, quantile, SpanId, Tracer};
use crate::serve::{self, Draw, LoopStats, Traffic, QUEUE_DEPTH, WINDOW};
use crate::{Ctx, Report};
use acic::Metrics;
use acic_serve::{Cluster, ClusterClient, ClusterConfig, NodeId, Request, ServeConfig};
use std::fs;
use std::time::Instant;

/// `grid_hot`: see the module documentation.
pub fn grid_hot(ctx: &Ctx) -> Result<Report, String> {
    run(ctx, true, || Plan::grid(ctx.seed, ctx.sizes.grid_dims))
}

/// `scale_cold`: see the module documentation.
pub fn scale_cold(ctx: &Ctx) -> Result<Report, String> {
    run(ctx, false, || Plan::scale(ctx.seed, ctx.sizes.scale_dims, ctx.sizes.scale_points))
}

/// One measured round.
struct Round {
    rep: Rep,
    /// `Cluster::publish` of the round's snapshot: verify, refit, hot-swap.
    cluster_publish_s: f64,
    closed: LoopStats,
    open: LoopStats,
}

impl Round {
    /// From the campaign's data in the store to the new model live on the
    /// node: the store's half of publishing plus the node's.
    fn publish_s(&self) -> f64 {
        self.rep.store_publish_s() + self.cluster_publish_s
    }
}

/// What every round must reproduce: the set-up's snapshot and pick gap.
struct Expected {
    snapshot_hash: u64,
    pick_gap_pct: f64,
}

/// Check a rep against what the set-up published.
fn check_rep(out: &mut Report, rep: &Rep, paper: &PaperRuns, want: &Expected, what: &str) {
    out.check(rep.snapshot.hash == want.snapshot_hash, || {
        format!(
            "{what} published snapshot {:016x}, not {:016x}",
            rep.snapshot.hash, want.snapshot_hash
        )
    });
    let gap = paper.pick_gap_pct(&rep.predictor);
    out.check(gap == want.pick_gap_pct, || {
        format!("{what} pick gap {gap}%, set-up {}%", want.pick_gap_pct)
    });
}

/// Unmeasured, checked requests after a publish: every hot pool entry once
/// (fills the new generation's cache), or one window of cold requests.
fn warm_up(client: &ClusterClient, traffic: &Traffic, draw: &mut Draw, out: &mut Report) {
    let idxs: Vec<usize> = if traffic.hot {
        (0..traffic.pool.len()).collect()
    } else {
        (0..WINDOW).map(|_| draw.next(traffic)).collect()
    };
    for idx in idxs {
        let resp = client.query(traffic.pool[idx]);
        out.check(resp.is_ok_and(|r| traffic.check(idx, &r.top)), || {
            format!("warm-up request for pool entry {idx} failed or answered wrong")
        });
    }
}

/// Everything a round needs that outlives it.
struct Live<'a> {
    ctx: &'a Ctx,
    plan: Plan,
    cluster: Cluster,
    client: ClusterClient,
    traffic: Traffic,
    draw: Draw,
    paper: PaperRuns,
    want: Expected,
}

impl Live<'_> {
    /// Train, publish to the node, warm up, then serve a closed and an
    /// open loop, under the span `parent`.
    fn round(
        &mut self,
        i: usize,
        tracer: &Tracer,
        parent: Option<SpanId>,
        out: &mut Report,
    ) -> Result<Round, String> {
        let ctx = self.ctx;
        let dir = ctx.work.join(format!("round-{i}"));
        let rep = lifecycle(&self.plan, &dir, tracer, parent, out)?;
        fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
        rep.tally(out);
        check_rep(out, &rep, &self.paper, &self.want, &format!("round {i}"));

        let generation = self.cluster.generation();
        let t = Instant::now();
        tracer
            .span("publish", "cluster", parent, |_| self.cluster.publish(rep.snapshot.clone()))
            .map_err(|e| format!("publish: {e}"))?;
        let cluster_publish_s = t.elapsed().as_secs_f64();
        out.check(self.cluster.generation() == generation + 1, || {
            format!("round {i}: node serves generation {}", self.cluster.generation())
        });

        let (client, traffic, draw) = (&self.client, &self.traffic, &mut self.draw);
        warm_up(client, traffic, draw, out);
        let phase = ctx.sizes.serve_phase;
        let closed = tracer.span("closed_loop", "loadgen", parent, |id| {
            serve::closed_loop(client, traffic, draw, phase, tracer, id)
        });
        serve::tally(out, &closed);
        let rate = if traffic.hot { ctx.sizes.hot_rate } else { ctx.sizes.cold_rate };
        let open = tracer.span("open_loop", "loadgen", parent, |id| {
            serve::open_loop(client, traffic, draw, rate, phase, tracer, id)
        });
        serve::tally(out, &open);
        Ok(Round { rep, cluster_publish_s, closed, open })
    }
}

/// Set up `setup_reps` times — plan, a first durable campaign, publish, and
/// `Cluster::start` — keeping the last node live; returns the set-up wall
/// times, the `Cluster::start` times, and what the rounds need.
fn set_up<'a>(
    ctx: &'a Ctx,
    hot: bool,
    make_plan: impl Fn() -> Plan,
    out: &mut Report,
) -> Result<(Vec<f64>, Vec<f64>, Live<'a>), String> {
    let quiet = Tracer::new(false);
    let cfg = ClusterConfig {
        nodes: 1,
        node: ServeConfig {
            workers: (harness::cores() - 1).max(1),
            queue_depth: QUEUE_DEPTH,
            ..ServeConfig::default()
        },
    };
    let (mut setup, mut starts) = (Vec::new(), Vec::new());
    let mut live: Option<(Plan, Rep, Cluster)> = None;
    for i in 0..ctx.sizes.setup_reps {
        let dir = ctx.work.join(format!("setup-{i}"));
        let t = Instant::now();
        let plan = make_plan();
        let rep = lifecycle(&plan, &dir, &quiet, None, out)?;
        let started = Instant::now();
        let cluster = Cluster::start(rep.snapshot.clone(), cfg.clone(), Metrics::new())
            .map_err(|e| format!("start cluster: {e}"))?;
        starts.push(started.elapsed().as_secs_f64());
        setup.push(t.elapsed().as_secs_f64());
        fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
        rep.tally(out);
        if let Some((_, prev, old)) = live.take() {
            old.shutdown();
            out.check(rep.snapshot.hash == prev.snapshot.hash, || {
                format!("set-up {i} published a different snapshot than the one before")
            });
        }
        live = Some((plan, rep, cluster));
    }
    let (plan, rep, cluster) = live.expect("at least one set-up");
    let paper = PaperRuns::measure()?;
    let want = Expected {
        snapshot_hash: rep.snapshot.hash,
        pick_gap_pct: paper.pick_gap_pct(&rep.predictor),
    };
    let traffic = Traffic::new(ctx, hot, &rep.predictor);
    let client = cluster.client();
    let live = Live { ctx, plan, cluster, client, traffic, draw: Draw::new(ctx.seed), paper, want };
    Ok((setup, starts, live))
}

fn run(ctx: &Ctx, hot: bool, make_plan: impl Fn() -> Plan) -> Result<Report, String> {
    let mut out = Report::default();
    let (setup, starts, mut live) = set_up(ctx, hot, make_plan, &mut out)?;

    // Untraced rounds give the end-to-end metrics; with tracing on, every
    // other round is traced and gives the per-layer metrics.
    let tracer = Tracer::new(ctx.trace);
    let quiet = Tracer::new(false);
    let (mut plain, mut traced): (Vec<Round>, Vec<Round>) = (Vec::new(), Vec::new());
    let deadline = Instant::now() + ctx.window();
    for i in 0.. {
        let enough = plain.len() + traced.len() >= ctx.sizes.min_rounds
            && (!ctx.trace || !traced.is_empty());
        if enough && Instant::now() >= deadline {
            break;
        }
        let tr = if ctx.trace && i % 2 == 1 { &tracer } else { &quiet };
        let round = tr.span("round", "harness", None, |id| live.round(i, tr, id, &mut out))?;
        if tr.is_on() { &mut traced } else { &mut plain }.push(round);
    }

    let sum = |rounds: &[Round], f: fn(&Round) -> f64| rounds.iter().map(f).sum::<f64>();
    let rps = |rounds: &[Round]| {
        sum(rounds, |r| r.closed.answered as f64) / sum(rounds, |r| r.closed.secs)
    };
    let latency_us: Vec<f64> =
        plain.iter().flat_map(|r| r.open.latency_us.iter().copied()).collect();
    let publish: Vec<f64> = plain.iter().map(Round::publish_s).collect();
    out.put_median("setup_s", &setup);
    out.put(
        "campaign_points_per_s",
        sum(&plain, |r| r.rep.points() as f64) / sum(&plain, |r| r.rep.train_s()),
        plain.len(),
    );
    out.put("publish_s", publish.iter().sum::<f64>() / publish.len() as f64, publish.len());
    out.put("serve_rps", rps(&plain), plain.len());
    out.put("serve_p50_us", quantile(&latency_us, 0.5).unwrap_or(f64::NAN), latency_us.len());
    out.put("peak_rss_mb", harness::peak_rss_mb(), 1);

    if ctx.trace {
        put_layers(ctx, &mut out, &live, &traced, &starts)?;
        out.put("trace.overhead_pct", (rps(&plain) / rps(&traced) - 1.0) * 100.0, plain.len());
        for (layer, secs) in tracer.self_secs() {
            out.put_layer_self(layer, secs / traced.len() as f64, traced.len());
        }
        ctx.write_spans(&tracer)?;
    }
    live.cluster.shutdown();
    Ok(out)
}

/// Put the per-layer metrics of a traced run.
fn put_layers(
    ctx: &Ctx,
    out: &mut Report,
    live: &Live,
    traced: &[Round],
    starts: &[f64],
) -> Result<(), String> {
    let reps: Vec<&Rep> = traced.iter().map(|r| &r.rep).collect();
    campaign::put_training_layers(out, &reps, ctx.fsync_us);
    campaign::put_sim_timing(out, &live.plan, ctx.sizes.sim_sample, ctx.seed)?;
    let mut sample = Draw::new(ctx.seed);
    let reqs: Vec<Request> = (0..ctx.sizes.top_k_sample)
        .map(|_| live.traffic.pool[sample.next(&live.traffic)])
        .collect();
    let predictor = &reps.last().expect("at least one traced round").predictor;
    campaign::put_top_k_timing(out, predictor, &reqs);

    let pooled = |f: fn(&LoopStats) -> &Vec<f64>, open: bool| -> Vec<f64> {
        traced
            .iter()
            .flat_map(|r| f(if open { &r.open } else { &r.closed }).iter().copied())
            .collect()
    };
    let pct = |xs: &[f64], q: f64| quantile(xs, q).unwrap_or(f64::NAN);
    let (route_ns, wait_us) = (pooled(|s| &s.route_ns, false), pooled(|s| &s.wait_us, false));
    let (latency_us, late_us) = (pooled(|s| &s.latency_us, true), pooled(|s| &s.late_us, true));

    let node = NodeId(0);
    let (hits, misses, hit_rate) = live.cluster.node_cache_stats(node).expect("node is up");
    let m = live.cluster.node_metrics(node);
    let wait_q = |q| m.latency_quantile("serve.queue_wait", q).unwrap_or(0.0) * 1e6;
    let served = (hits + misses) as usize;
    out.put("serve.cache_hit_rate", hit_rate, served);
    out.put("serve.cache_misses", misses as f64, served);
    out.put("serve.queue_wait_us.p50", wait_q(0.5), served);
    out.put("serve.queue_wait_us.p99", wait_q(0.99), served);
    out.put("serve.fused_batches", m.counter("serve.fused_batch.batches") as f64, 1);
    out.put("serve.fused_max_requests", m.counter("serve.fused_batch.max_requests") as f64, 1);
    out.put("serve.shed", live.cluster.shed_count() as f64, 1);
    out.put("cluster.start_s", median(starts), starts.len());
    out.put(
        "cluster.publish_s",
        median(&traced.iter().map(|r| r.cluster_publish_s).collect::<Vec<_>>()),
        traced.len(),
    );
    out.put("cluster.route_ns.p50", pct(&route_ns, 0.5), route_ns.len());
    out.put("client.wait_us.p50", pct(&wait_us, 0.5), wait_us.len());
    out.put("client.wait_us.p99", pct(&wait_us, 0.99), wait_us.len());
    out.put("client.latency_us.p99", pct(&latency_us, 0.99), latency_us.len());
    out.put("loadgen.late_us.p50", pct(&late_us, 0.5), late_us.len());
    out.put("loadgen.late_us.p99", pct(&late_us, 0.99), late_us.len());
    out.put("quality.pick_gap_pct", live.want.pick_gap_pct, 9);
    Ok(())
}
