//! The three workloads: `ingest-cms`, `mixed-cs` and `read-hot`.
//!
//! * `ingest-cms` loads the write path (hash → counter → sketch → route and
//!   batch → shard channel → worker apply) with a long skewed trace pushed
//!   as fast as the pipeline takes it; snapshot, cache and serve sit idle
//!   while it is timed, so it is the bypass workload for serve-side
//!   changes.  Its batch result is then read back over the wire.
//! * `mixed-cs` offers ingest and queries at fixed rates at the same time,
//!   so the 2 ms cache budget forces snapshot copy + merge while ingest
//!   batches fill the shard channels.  Count Sketch gives the paper's
//!   second sketch family an end-to-end home.
//! * `read-hot` loads a small-universe trace first and then only reads,
//!   under an unbounded cache budget: every query is a cache hit, so the
//!   wire codec, coalescer, admission and socket do all the work.  It is
//!   the bypass workload for snapshot and ingest changes.

use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use salsa_metrics::GroundTruth;
use salsa_pipeline::{CachePolicy, FrequencyQueries, LiveHandle, PipelineConfig, ShardedPipeline};
use salsa_serve::{
    serve, ClientError, PointAnswer, QueryClient, ServeConfig, ServerHandle, TopKAnswer, WireMeta,
};
use salsa_workloads::TraceSpec;

use crate::layers;
use crate::openloop::{self, Account, Sample, Schedule};
use crate::report::Report;
use crate::sketch::{BenchSketch, Cms, Cs};
use crate::source::{SnapshotLog, TimedSource};
use crate::stats::{beyond, median, quantile, series};
use crate::trace::Tracer;

/// Worker shards of every pipeline.
pub const SHARDS: usize = 2;
/// The latency limit `max_qps_at_slo` holds p99 to.
pub const SLO_P99_MS: f64 = 10.0;
/// Samples for a p90 / p99 with ten samples beyond it.
const P90_SAMPLES: usize = 100;
const P99_SAMPLES: usize = 1000;
/// Each rate step of the ladder is this much above the previous one.
const RUNG_FACTOR: f64 = 1.25;
/// Rate steps on the ladder.
const RUNGS: usize = 10;
/// Times the stack is built and torn down to measure set-up.
const SETUP_REPS: usize = 101;
/// Pause between two set-ups.
const SETUP_PAUSE: Duration = Duration::from_millis(2);
/// Items per `extend` call of a closed-loop load.
const LOAD_CHUNK: usize = 1 << 16;
/// Every this-many-th query is a candidate-set top-k.
const TOPK_EVERY: usize = 16;
/// `k` and candidate-set size of a top-k query.
const TOPK_K: u16 = 8;
const TOPK_CANDIDATES: usize = 64;
/// Probe items checked against the reference sketch.
const PROBES: usize = 512;
/// A reply slower than this counts as timed out.
const QUERY_TIMEOUT: Duration = Duration::from_secs(2);

/// Knobs shared by a run's workloads.
pub struct Run {
    /// Input seed.
    pub seed: u64,
    /// Seconds the run measures.
    pub seconds: f64,
    /// Span sink (disabled for end-to-end runs).
    pub tracer: Tracer,
    /// Connections (and threads) the query generator may use.
    pub lanes: usize,
}

impl Run {
    fn sketch_seed(&self) -> u64 {
        self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5EED
    }
}

/// The inputs a workload generates from its seed.
pub fn inputs(spec: TraceSpec, len: usize, seed: u64) -> Vec<u64> {
    spec.generate(len, seed).items().to_vec()
}

/// Items a query schedule asks about: trace items in a seed-dependent order.
fn query_items(items: &[u64], count: usize, seed: u64) -> Vec<u64> {
    let mut state = seed | 1;
    (0..count)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            items[(state >> 33) as usize % items.len()]
        })
        .collect()
}

fn candidates(items: &[u64]) -> Vec<u64> {
    let mut c: Vec<u64> = items
        .iter()
        .step_by(items.len() / TOPK_CANDIDATES + 1)
        .copied()
        .collect();
    c.sort_unstable();
    c.dedup();
    c.truncate(TOPK_CANDIDATES);
    c
}

/// The paper's average relative error of `sketch` against exact counts,
/// for a stream that is `reps` passes over the items `truth` counts.
fn are<S: BenchSketch>(sketch: &S, truth: &GroundTruth, reps: u64) -> f64 {
    let mut sum = 0.0;
    for (item, count) in truth.iter() {
        let count = count * reps;
        sum += (sketch.estimate(item) - count as i64).unsigned_abs() as f64 / count as f64;
    }
    sum / truth.distinct() as f64
}

/// The unsharded sketch of `reps` passes over `items`, replayed on one
/// thread: the single-thread baseline.
fn reference<S: BenchSketch>(run: &Run, items: &[u64], reps: usize, report: &mut Report) -> S {
    let mut sketch = S::paper_class(run.sketch_seed());
    let start = Instant::now();
    run.tracer.span("sketches.update_batch", 0, 0, |_| {
        for _ in 0..reps {
            sketch.replay(items);
        }
    });
    report.layer(
        "sketches.update_batch_ns",
        start.elapsed().as_nanos() as f64 / (items.len() * reps) as f64,
        "ns",
    );
    sketch
}

/// A pipeline of paper-class shards behind a server.
struct Stack<S: BenchSketch> {
    pipeline: ShardedPipeline<S>,
    server: ServerHandle,
    log: Arc<Mutex<SnapshotLog>>,
}

impl<S: BenchSketch> Stack<S> {
    fn build(run: &Run, config: ServeConfig) -> Self {
        let seed = run.sketch_seed();
        let pipeline =
            ShardedPipeline::new(&PipelineConfig::new(SHARDS), move |_| S::paper_class(seed));
        let (source, log) = TimedSource::new(pipeline.live_handle(), run.tracer.clone());
        let server = serve("127.0.0.1:0", source, config).expect("bind a loopback socket");
        Self {
            pipeline,
            server,
            log,
        }
    }

    fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    fn finish(self) -> salsa_pipeline::PipelineOutput<S> {
        drop(self.server);
        self.pipeline.finish()
    }
}

/// Median wall time from pipeline construction to the first answer over
/// the socket (worker spawn, server bind, first connect, the handler
/// thread's start and the first snapshot assembly), over several set-ups.
/// Connect alone takes about 0.2 ms of thread spawns and scheduling, too
/// little to read steadily on a shared host; the first answer adds the
/// first copy and merge, which are part of being ready to serve.
/// Workloads measure it before they generate their inputs, so every
/// workload sets up on a small heap.
fn setup_secs<S: BenchSketch>(run: &Run, config: impl Fn() -> ServeConfig) -> f64 {
    let samples: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let start = Instant::now();
            let stack = Stack::<S>::build(run, config());
            let mut client = QueryClient::connect(stack.addr()).expect("connect");
            client.point(0).expect("first answer");
            let secs = start.elapsed().as_secs_f64();
            drop(client);
            stack.finish();
            // The connection's handler thread exits on its own after the
            // client hangs up; let it go before the next set-up starts.
            std::thread::sleep(SETUP_PAUSE);
            secs
        })
        .collect();
    median(&samples)
}

/// Largest number of items queued in any shard's channel.
fn queue_depth<S: BenchSketch>(pipeline: &ShardedPipeline<S>) -> u64 {
    pipeline
        .shard_loads()
        .iter()
        .map(|l| l.queue_depth())
        .max()
        .unwrap_or(0)
}

/// Closed-loop load of `items`, timed from first push to drain acknowledged.
struct Load {
    secs: f64,
    drain_ms: f64,
    extend_ns: f64,
    queue_depth_max: u64,
}

fn load<S: BenchSketch>(run: &Run, pipeline: &mut ShardedPipeline<S>, items: &[u64]) -> Load {
    let tracer = &run.tracer;
    let mut queue_depth_max = 0u64;
    let mut extend_ns = 0u128;
    let start = Instant::now();
    let (last_push, acked) = tracer.span("ingest.batch", 0, 0, |batch| {
        for chunk in items.chunks(LOAD_CHUNK) {
            let t0 = Instant::now();
            tracer.span("pipeline.extend", batch, 0, |_| pipeline.extend(chunk));
            // Both passes sample, so traced and untraced do the same work
            // apart from the spans.
            extend_ns += t0.elapsed().as_nanos();
            queue_depth_max = queue_depth_max.max(queue_depth(pipeline));
        }
        let last_push = Instant::now();
        tracer.span("pipeline.drain", batch, 0, |_| pipeline.drain());
        (last_push, Instant::now())
    });
    Load {
        secs: (acked - start).as_secs_f64(),
        drain_ms: (acked - last_push).as_secs_f64() * 1e3,
        extend_ns: extend_ns as f64 / items.len() as f64,
        queue_depth_max,
    }
}

/// What a query generator sends: the item of each point query and the
/// candidate set of the top-k share.
struct Plan {
    items: Vec<u64>,
    candidates: Vec<u64>,
}

impl Plan {
    fn is_topk(i: usize) -> bool {
        i % TOPK_EVERY == TOPK_EVERY - 1
    }
}

/// One answer as the generator saw it.
#[derive(Clone, Copy)]
struct Answer {
    done: Instant,
    epoch: u64,
}

/// Checks an answer; `Err` describes a wrong one.
type Check<'a> = dyn Fn(usize, &Reply) -> Result<(), String> + Sync + 'a;

/// A reply to a point or top-k query.
enum Reply {
    Point(PointAnswer),
    TopK(TopKAnswer),
}

impl Reply {
    fn meta(&self) -> WireMeta {
        match self {
            Reply::Point(a) => a.meta,
            Reply::TopK(a) => a.meta,
        }
    }

    fn epoch(&self) -> u64 {
        self.meta().epoch
    }
}

/// Sends query `i` of `plan` and waits for the reply.
fn ask(client: &mut QueryClient, plan: &Plan, i: usize) -> Result<Reply, ClientError> {
    if Plan::is_topk(i) {
        client.top_k(TOPK_K, &plan.candidates).map(Reply::TopK)
    } else {
        client
            .point(plan.items[i % plan.items.len()])
            .map(Reply::Point)
    }
}

/// What one connection saw during one phase.
#[derive(Default)]
struct LaneLog {
    samples: Vec<Sample>,
    answers: Vec<Answer>,
    errors: Vec<String>,
}

/// A connection of the query generator; it reconnects after a failure so a
/// late reply cannot be mistaken for the next one.
struct Lane<'a> {
    addr: SocketAddr,
    client: QueryClient,
    plan: &'a Plan,
    check: &'a Check<'a>,
    tracer: Tracer,
    last_epoch: u64,
}

impl<'a> Lane<'a> {
    fn open(addr: SocketAddr, plan: &'a Plan, check: &'a Check<'a>, tracer: Tracer) -> Self {
        Self {
            addr,
            client: connect(addr),
            plan,
            check,
            tracer,
            last_epoch: 0,
        }
    }

    /// Lane `lane` of `lanes` sends its share of `count` queries at `rate`
    /// per second; query numbers start at `first`.
    fn phase(
        &mut self,
        start: Instant,
        rate: f64,
        lanes: usize,
        lane: usize,
        count: usize,
        first: usize,
    ) -> LaneLog {
        let mut log = LaneLog::default();
        let schedule = Schedule::lane(start, rate, lanes, lane);
        let mine = (count + lanes - 1 - lane) / lanes;
        let tracer = self.tracer.clone();
        // Replies are checked after the phase, so checking costs no latency.
        let mut replies = Vec::with_capacity(mine);
        log.samples = openloop::drive(schedule, mine, |j| {
            let i = first + j * lanes + lane;
            let reply = tracer.span("client.request", 0, i as u64 + 1, |_| {
                ask(&mut self.client, self.plan, i)
            });
            match reply {
                Ok(reply) => {
                    replies.push((i, Instant::now(), reply));
                    true
                }
                Err(ClientError::Overloaded { .. }) => false,
                Err(_) => {
                    self.client = connect(self.addr);
                    false
                }
            }
        });
        for (i, done, reply) in replies {
            // Epochs never go backwards on one connection.
            if reply.epoch() < self.last_epoch {
                log.errors.push(format!(
                    "epoch fell from {} to {}",
                    self.last_epoch,
                    reply.epoch()
                ));
            }
            self.last_epoch = reply.epoch();
            if !reply.meta().is_full() {
                log.errors
                    .push(format!("query {i}: answer without full coverage"));
            }
            if let Err(e) = (self.check)(i, &reply) {
                log.errors.push(format!("query {i}: {e}"));
            }
            log.answers.push(Answer {
                done,
                epoch: reply.epoch(),
            });
        }
        log
    }
}

fn connect(addr: SocketAddr) -> QueryClient {
    let mut client = QueryClient::connect(addr).expect("connect to the server");
    client
        .set_timeout(Some(QUERY_TIMEOUT))
        .expect("set a read timeout");
    client
}

/// Runs one open-loop phase over `lanes` connections: lane 0 on this
/// thread, the rest on scoped threads.
fn phase(lanes: &mut [Lane<'_>], rate: f64, count: usize, first: usize) -> LaneLog {
    let start = Instant::now() + Duration::from_millis(2);
    let n = lanes.len();
    let mut merged = LaneLog::default();
    std::thread::scope(|scope| {
        let (head, tail) = lanes.split_first_mut().expect("at least one lane");
        let others: Vec<_> = tail
            .iter_mut()
            .enumerate()
            .map(|(k, lane)| scope.spawn(move || lane.phase(start, rate, n, k + 1, count, first)))
            .collect();
        let mut logs = vec![head.phase(start, rate, n, 0, count, first)];
        logs.extend(
            others
                .into_iter()
                .map(|h| h.join().expect("query lane panicked")),
        );
        for log in logs {
            merged.samples.extend(log.samples);
            merged.answers.extend(log.answers);
            merged.errors.extend(log.errors);
        }
    });
    merged
}

/// Query metrics of one server: latency at the nominal rate and, where a
/// ladder is run, the highest rate on it that meets the latency limit.
struct Queries {
    nominal: Account,
    max_qps: Option<f64>,
    answers: Vec<Answer>,
    errors: Vec<String>,
}

/// Runs the nominal phase, then (given a base rate) the ladder: steps of
/// `RUNG_FACTOR` from the base, stopping at the first that misses the limit.
fn queries(
    lanes: &mut [Lane<'_>],
    nominal_rate: f64,
    nominal_count: usize,
    ladder_base: Option<f64>,
) -> Queries {
    let nominal = phase(lanes, nominal_rate, nominal_count, 0);
    let mut out = Queries {
        nominal: Account::of(&nominal.samples),
        max_qps: None,
        answers: nominal.answers,
        errors: nominal.errors,
    };
    let Some(base) = ladder_base else {
        return out;
    };
    out.max_qps = Some(0.0);
    let mut first = nominal_count;
    for rung in 0..RUNGS {
        let rate = base * RUNG_FACTOR.powi(rung as i32);
        std::thread::sleep(Duration::from_millis(20));
        let log = phase(lanes, rate, P99_SAMPLES, first);
        first += P99_SAMPLES;
        let account = Account::of(&log.samples);
        out.errors.extend(log.errors);
        if !account.meets(SLO_P99_MS) {
            break;
        }
        out.max_qps = Some(rate);
    }
    out
}

fn record_queries(report: &mut Report, q: &Queries) {
    let latency = &q.nominal.latency;
    let p50 = quantile(latency, 0.5);
    report.metric("query_p50_ms", p50, "ms");
    // Tails are printed, not gated: on a shared two-vCPU host one stalled
    // stretch moves them by several times their value.
    report.info("query_p90_ms", quantile(latency, 0.9), "ms");
    // A p99 is printed only where ten samples lie beyond it.
    if beyond(latency, 0.99) >= 10 {
        report.info("query_p99_ms", quantile(latency, 0.99), "ms");
    }
    match q.max_qps {
        Some(rate) => report.info("max_qps_at_slo", rate, "1/s"),
        // When even the median misses the limit, every p99 at every rate
        // does.
        None if p50 > SLO_P99_MS => report.info("max_qps_at_slo", 0.0, "1/s"),
        None => report.note("no ladder run".to_string()),
    }
    report.note(format!(
        "nominal: {} queries, {} beyond p90, {} beyond p99; generator lateness p99 {:.3} ms",
        latency.len(),
        beyond(latency, 0.90),
        beyond(latency, 0.99),
        quantile(&q.nominal.lateness, 0.99)
    ));
    report.layer("serve.rtt_p50_ms", quantile(&q.nominal.rtt, 0.5), "ms");
    report.layer("gen.late_p99_ms", quantile(&q.nominal.lateness, 0.99), "ms");
    // The ladder probes for the limit, so only the nominal phase counts
    // towards attempted and failed operations.
    report.count(q.nominal.attempted, q.nominal.failed);
    report.info("fail_share", q.nominal.fail_share(), "ratio");
    for e in &q.errors {
        report.fail(e.clone());
    }
}

/// Per-layer figures of the serve stack, read after the query phases.
fn record_serve_layers<S: BenchSketch>(report: &mut Report, stack: &Stack<S>, merge_ns: f64) {
    let counters = stack.server.counters();
    let accepted = counters.accepted.get() as f64;
    let shed = counters.shed.get() as f64;
    report.layer(
        "serve.coalesced_share",
        counters.coalesced.get() as f64 / accepted.max(1.0),
        "ratio",
    );
    report.layer(
        "serve.shed_share",
        shed / (accepted + shed).max(1.0),
        "ratio",
    );
    report.layer(
        "pipeline.cache_hit_share",
        stack.server.cache_gauges().hit_rate(),
        "ratio",
    );
    let log = stack
        .log
        .lock()
        .expect("snapshot log lock poisoned")
        .clone();
    let spans = series(&log.span_ms);
    let merge_ms = (SHARDS - 1) as f64 * merge_ns / 1e6;
    let waits: Vec<f64> = log
        .span_ms
        .iter()
        .zip(&log.copy_ms)
        .map(|(span, copy)| (span - copy - merge_ms).max(0.0))
        .collect();
    report.layer("pipeline.snapshot_p50_ms", quantile(&spans, 0.5), "ms");
    report.layer("pipeline.snapshot_p99_ms", quantile(&spans, 0.99), "ms");
    report.layer("pipeline.snapshot_wait_ms", median(&waits), "ms");
    if !spans.is_empty() {
        report.note(format!("snapshots assembled: {}", spans.len()));
    }
}

/// Replays over the workload's items, for the traced run.
fn record_replays<S: BenchSketch>(
    run: &Run,
    report: &mut Report,
    reference: &S,
    items: &[u64],
    plan: &Plan,
) -> f64 {
    let tracer = &run.tracer;
    let sample = &items[..items.len().min(layers::REPLAY_ITEMS)];
    let seed = run.sketch_seed();
    report.layer(
        "hash.bucket_ns",
        layers::hash_bucket_ns(tracer, sample, S::DEPTH, reference.width(), seed),
        "ns",
    );
    report.layer(
        "core.add_unit_batch_ns",
        layers::core_row_ns(tracer, reference, sample, seed),
        "ns",
    );
    let (copy, merge) = layers::copy_merge_ns::<S>(tracer, sample, seed, 64);
    report.layer("sketches.copy_ns", copy, "ns");
    report.layer("sketches.merge_ns", merge, "ns");
    report.layer(
        "sketches.estimate_ns",
        layers::estimate_ns(tracer, reference, sample),
        "ns",
    );
    let (encode, decode) =
        layers::wire_ns(tracer, &plan.items, TOPK_EVERY, TOPK_K, &plan.candidates);
    report.layer("serve.request_encode_ns", encode, "ns");
    report.layer("serve.response_decode_ns", decode, "ns");
    merge
}

/// Pipeline figures of the last load (`out` is its result).
fn record_pipeline_layers<S>(
    report: &mut Report,
    out: &salsa_pipeline::PipelineOutput<S>,
    loads: &[Load],
) {
    let wall_secs = loads.last().expect("at least one load").secs;
    let busy: f64 = out.shards.iter().map(|s| s.busy_secs).sum();
    report.layer(
        "pipeline.shard_busy_share",
        busy / (out.shards.len() as f64 * wall_secs),
        "ratio",
    );
    let items: Vec<f64> = out.shards.iter().map(|s| s.items as f64).collect();
    let mean = items.iter().sum::<f64>() / items.len() as f64;
    report.layer(
        "pipeline.shard_skew",
        items.iter().copied().fold(0.0, f64::max) / mean,
        "ratio",
    );
    let drains: Vec<f64> = loads.iter().map(|l| l.drain_ms).collect();
    let extends: Vec<f64> = loads.iter().map(|l| l.extend_ns).collect();
    report.layer("pipeline.drain_ms", median(&drains), "ms");
    report.layer("pipeline.extend_ns", median(&extends), "ns");
    let depth = loads.iter().map(|l| l.queue_depth_max).max().unwrap_or(0);
    report.layer("pipeline.queue_depth_max", depth as f64, "count");
}

fn check_output<S: BenchSketch>(
    report: &mut Report,
    out: &salsa_pipeline::PipelineOutput<S>,
    pushed: u64,
) {
    if out.items != pushed || out.lost_items != 0 || !out.failed_shards.is_empty() {
        report.fail(format!(
            "pipeline output covers {} of {pushed} items (lost {}, failed shards {:?})",
            out.items, out.lost_items, out.failed_shards
        ));
    }
}

fn check_probes<S: BenchSketch>(
    report: &mut Report,
    what: &str,
    mut got: impl FnMut(u64) -> i64,
    reference: &S,
    probes: &[u64],
) {
    for &item in probes {
        let (g, want) = (got(item), reference.estimate(item));
        if g != want {
            report.fail(format!(
                "{what}: item {item:#x} estimated {g}, reference {want}"
            ));
            return;
        }
    }
}

fn check_topk<S: BenchSketch>(
    reference: &S,
    candidates: &[u64],
    entries: &[(u64, u64)],
) -> Result<(), String> {
    let want = |item: u64| reference.estimate(item).max(0) as u64;
    let k = (TOPK_K as usize).min(candidates.len());
    if entries.len() != k {
        return Err(format!(
            "top-k returned {} entries, expected {k}",
            entries.len()
        ));
    }
    for &(item, est) in entries {
        if !candidates.contains(&item) || est != want(item) {
            return Err(format!(
                "top-k entry {item:#x}={est}, reference {}",
                want(item)
            ));
        }
    }
    let floor = entries.iter().map(|e| e.1).min().unwrap_or(0);
    let best_left = candidates
        .iter()
        .filter(|c| !entries.iter().any(|e| e.0 == **c))
        .map(|&c| want(c))
        .max()
        .unwrap_or(0);
    if best_left > floor {
        return Err(format!(
            "top-k left out an estimate of {best_left} above its floor {floor}"
        ));
    }
    Ok(())
}

/// Checks every answer against the reference: exact for a quiescent pipeline.
fn exact_check<'a, S: BenchSketch>(
    reference: &'a S,
    plan: &'a Plan,
    pushed: u64,
) -> impl Fn(usize, &Reply) -> Result<(), String> + Sync + 'a {
    move |i, reply| {
        if reply.epoch() != pushed {
            return Err(format!(
                "epoch {} after {pushed} items drained",
                reply.epoch()
            ));
        }
        match reply {
            Reply::Point(PointAnswer { estimate, .. }) => {
                let item = plan.items[i % plan.items.len()];
                let want = reference.estimate(item);
                if *estimate == want {
                    Ok(())
                } else {
                    Err(format!(
                        "item {item:#x} estimated {estimate}, reference {want}"
                    ))
                }
            }
            Reply::TopK(TopKAnswer { entries, .. }) => {
                check_topk(reference, &plan.candidates, entries)
            }
        }
    }
}

fn open_lanes<'a>(
    run: &Run,
    addr: SocketAddr,
    plan: &'a Plan,
    check: &'a Check<'a>,
    lanes: usize,
) -> Vec<Lane<'a>> {
    (0..lanes)
        .map(|_| Lane::open(addr, plan, check, run.tracer.clone()))
        .collect()
}

/// `ingest-cms`: CAIDA-NY18 stand-in into SALSA Count-Min shards, as a batch
/// job repeated on fresh pipelines; then the result is read back.
pub fn ingest_cms(run: &Run, report: &mut Report) {
    report.metric("setup_s", setup_secs::<Cms>(run, frozen_config), "s");
    const ITEMS: usize = 2_000_000;
    const READ_RATE: f64 = 1000.0;
    let items = inputs(TraceSpec::CaidaNy18, ITEMS, run.seed);
    let truth = GroundTruth::from_items(&items);
    let reference: Cms = reference(run, &items, 1, report);
    let probes = query_items(&items, PROBES, run.seed ^ 1);
    let plan = Plan {
        items: query_items(&items, 1 << 14, run.seed ^ 2),
        candidates: candidates(&items),
    };
    report.inputs_ready();

    let (loads, out) = batch_loads(run, report, &items, &reference, &probes, run.seconds * 0.5);
    report.metric("are", are(&out.merged, &truth, 1), "ratio");
    report.layer(
        "core.merge_events_per_mitem",
        out.merged.merge_events() as f64 / (ITEMS as f64 / 1e6),
        "1/Mitem",
    );
    record_pipeline_layers(report, &out, &loads);
    report.headline(median(&loads.iter().map(|l| l.secs).collect::<Vec<_>>()));

    // Reading the finished batch's result back over the wire: the result
    // no longer changes, so views never go stale.
    let mut stack = Stack::<Cms>::build(run, frozen_config());
    load(run, &mut stack.pipeline, &items);
    let check = exact_check(&reference, &plan, ITEMS as u64);
    let mut lanes = open_lanes(run, stack.addr(), &plan, &check, run.lanes);
    let q = queries(
        &mut lanes,
        READ_RATE,
        nominal_count(run, READ_RATE, 0.2),
        None,
    );
    drop(lanes);
    record_queries(report, &q);
    let merge_ns = if run.tracer.enabled() {
        record_replays(run, report, &reference, &items, &plan)
    } else {
        0.0
    };
    record_serve_layers(report, &stack, merge_ns);
    let out = stack.finish();
    check_output(report, &out, ITEMS as u64);
}

/// The batch job: `items` pushed into a fresh pipeline as fast as it takes
/// them, timed from first push to drain acknowledged, repeated for
/// `budget_secs` (and at least `MIN_BATCHES` times).  Every result is
/// checked against the unsharded reference; reports the median rate and
/// returns the loads and the last result.
fn batch_loads<S: BenchSketch>(
    run: &Run,
    report: &mut Report,
    items: &[u64],
    reference: &S,
    probes: &[u64],
    budget_secs: f64,
) -> (Vec<Load>, salsa_pipeline::PipelineOutput<S>) {
    const MIN_BATCHES: usize = 7;
    let pushed = items.len() as u64;
    let started = Instant::now();
    let mut loads = Vec::new();
    loop {
        let seed = run.sketch_seed();
        let mut pipeline =
            ShardedPipeline::new(&PipelineConfig::new(SHARDS), move |_| S::paper_class(seed));
        let handle: LiveHandle<S> = pipeline.live_handle();
        loads.push(load(run, &mut pipeline, items));
        let first = loads.len() == 1;
        if first {
            match handle.snapshot() {
                Some(view) if view.epoch() == pushed && view.coverage().is_full() => {}
                Some(view) => report.fail(format!(
                    "epoch {} after {pushed} items drained",
                    view.epoch()
                )),
                None => report.fail("no snapshot after drain".to_string()),
            }
        }
        let out = pipeline.finish();
        report.count(1, 0);
        check_output(report, &out, pushed);
        check_probes(
            report,
            "merged sketch",
            |x| FrequencyQueries::estimate(&out.merged, x),
            reference,
            probes,
        );
        // Sum-merge of unsigned rows is lossless: the shards' union is the
        // unsharded sketch, counter for counter.
        if first && !out.merged.same_counters(reference) {
            report.fail("merged sketch differs from the unsharded reference".to_string());
        }
        if loads.len() >= MIN_BATCHES && started.elapsed().as_secs_f64() >= budget_secs {
            let mops: Vec<f64> = loads.iter().map(|l| pushed as f64 / l.secs / 1e6).collect();
            let q = series(&mops);
            report.metric("ingest_mops", quantile(&q, 0.9), "Mitem/s");
            let lo = mops.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = mops.iter().copied().fold(0.0, f64::max);
            report.note(format!(
                "ingest: {} batches of {pushed} items: min {lo:.2}, median {:.2}, p90 {:.2}, max {hi:.2} Mitem/s",
                loads.len(),
                quantile(&q, 0.5),
                quantile(&q, 0.9)
            ));
            return (loads, out);
        }
    }
}

/// The default server with an unbounded staleness budget: once a stream
/// has finished, one view serves every query.
fn frozen_config() -> ServeConfig {
    ServeConfig {
        cache: CachePolicy::new(Duration::MAX, u64::MAX),
        ..ServeConfig::default()
    }
}

/// Queries at the nominal rate: `share` of the run, and never fewer than a
/// p90 with ten samples beyond it needs.
fn nominal_count(run: &Run, rate: f64, share: f64) -> usize {
    ((rate * run.seconds * share) as usize).max(P90_SAMPLES)
}

/// Offered ingest rate of `mixed-cs`, items per second: a quarter of the
/// closed-loop rate its two SALSA Count Sketch shards took with no queries
/// running (medians of 8.1, 8.4 and 9.2 Mitem/s over three seeds on a
/// 2-vCPU Xeon VM), so writes keep the host busy and fill the shard
/// channels while leaving room for the snapshots the queries force.
const MIXED_INGEST_RATE: f64 = 2_000_000.0;
/// Items of the generated `mixed-cs` trace; ingest cycles over it, so memory
/// stays small at the offered rate.
const MIXED_TRACE_ITEMS: usize = 1 << 22;
/// Items per `extend` call of the open-loop ingest (one pipeline batch).
const MIXED_CHUNK: usize = 1024;

/// `mixed-cs`: Univ2 stand-in ingested open-loop into SALSA Count Sketch
/// shards while point and top-k queries arrive open-loop over TCP.
pub fn mixed_cs(run: &Run, report: &mut Report) {
    report.metric("setup_s", setup_secs::<Cs>(run, ServeConfig::default), "s");
    const QUERY_RATE: f64 = 30.0;
    let query_count = nominal_count(run, QUERY_RATE, 0.8);
    // Ingest outlasts the queries, even when they run late, so every answer
    // comes from a moving stream.
    let ingest_secs = query_count as f64 / QUERY_RATE * 1.2 + 1.0;
    let passes = ((MIXED_INGEST_RATE * ingest_secs) as usize).div_ceil(MIXED_TRACE_ITEMS);
    let total = passes * MIXED_TRACE_ITEMS;
    let items = inputs(TraceSpec::Univ2, MIXED_TRACE_ITEMS, run.seed);
    let truth = GroundTruth::from_items(&items);
    // The unsharded sketch is not what a sharded Count Sketch ends with
    // (see `sharded_reference`), so only the traced run replays it, as the
    // single-thread baseline.
    let unsharded: Option<Cs> = run
        .tracer
        .enabled()
        .then(|| reference(run, &items, passes, report));
    let probes = query_items(&items, PROBES, run.seed ^ 1);
    let plan = Plan {
        items: query_items(&items, 1 << 14, run.seed ^ 2),
        candidates: candidates(&items),
    };
    let mut stack = Stack::<Cs>::build(run, ServeConfig::default());
    let reference = sharded_reference(run, &stack.pipeline, &items, passes);
    report.inputs_ready();

    let addr = stack.addr();
    // While ingest runs, answers cover a moving prefix: they are checked
    // for epoch order and coverage; exact values are checked after drain.
    let check = |_: usize, reply: &Reply| {
        if reply.epoch() > total as u64 {
            Err(format!(
                "epoch {} beyond the {total} items pushed",
                reply.epoch()
            ))
        } else {
            Ok(())
        }
    };
    let tracer = run.tracer.clone();
    let interval = Duration::from_secs_f64(MIXED_CHUNK as f64 / MIXED_INGEST_RATE);
    let chunks = total / MIXED_CHUNK;
    let mut pushes: Vec<(u64, Instant)> = Vec::with_capacity(chunks);
    let mut lag_ms = Vec::with_capacity(chunks);
    let mut extend_ns: Vec<f64> = Vec::with_capacity(chunks);
    let mut depth_max = 0u64;
    let (q, ingest) = std::thread::scope(|scope| {
        let queries = scope.spawn(|| {
            let mut lanes = open_lanes(run, addr, &plan, &check, 1);
            std::thread::sleep(Duration::from_millis(200));
            queries(&mut lanes, QUERY_RATE, query_count, None)
        });
        let start = Instant::now();
        let pipeline = &mut stack.pipeline;
        let stream = items.chunks(MIXED_CHUNK).cycle().take(chunks);
        for (k, chunk) in stream.enumerate() {
            let due = start + interval.mul_f64(k as f64);
            openloop::sleep_until(due);
            let t0 = Instant::now();
            tracer.span("pipeline.extend", 0, 0, |_| pipeline.extend(chunk));
            extend_ns.push(t0.elapsed().as_nanos() as f64);
            lag_ms.push((t0 - due).as_secs_f64() * 1e3);
            pushes.push((((k + 1) * MIXED_CHUNK) as u64, t0));
            if k % 16 == 0 {
                depth_max = depth_max.max(queue_depth(pipeline));
            }
        }
        let last_push = Instant::now();
        pipeline.drain();
        let acked = Instant::now();
        let q = queries.join().expect("query generator panicked");
        (q, (start, last_push, acked))
    });
    let (start, last_push, acked) = ingest;
    if q.answers.last().is_some_and(|a| a.done > last_push) {
        report.note("queries ran late and outlasted ingest".to_string());
    }
    // The schedule fixes the wall-clock rate while the pipeline keeps up,
    // so the gated figure is the producer's: items over the time the median
    // `extend` call took (hash, route, batch, and a send that blocks while
    // a shard's channel is full) with snapshots running beside it.  The
    // median ignores calls the host happened to preempt; a pipeline whose
    // channels stay full blocks most calls and still moves it.
    report.metric(
        "ingest_mops",
        MIXED_CHUNK as f64 / median(&extend_ns) * 1e3,
        "Mitem/s",
    );
    let extend_total_ns: f64 = extend_ns.iter().sum();
    report.note(format!(
        "ingest: offered {:.2} Mitem/s, {:.3} Mitem/s first push to drain acknowledged, \
         {:.2} Mitem/s over all time inside extend; deepest shard queue {depth_max} items",
        MIXED_INGEST_RATE / 1e6,
        total as f64 / (acked - start).as_secs_f64() / 1e6,
        total as f64 / extend_total_ns * 1e3
    ));
    record_queries(report, &q);
    report.count(pushes.len() as u64, 0);
    let lag = series(&lag_ms);
    report.info("ingest_lag_p99_ms", quantile(&lag, 0.99), "ms");
    // Result lag: answer receipt minus the push time of the item at the
    // answer's epoch.  Shards apply their own sub-streams, so a view with
    // that epoch holds that many items, not exactly that prefix.
    let result_lag: Vec<f64> = q
        .answers
        .iter()
        .filter(|a| a.epoch > 0)
        .map(|a| {
            let k = pushes
                .partition_point(|p| p.0 < a.epoch)
                .min(pushes.len() - 1);
            a.done.saturating_duration_since(pushes[k].1).as_secs_f64() * 1e3
        })
        .collect();
    let result_lag = series(&result_lag);
    report.info("result_lag_p50_ms", quantile(&result_lag, 0.5), "ms");
    report.info("result_lag_p99_ms", quantile(&result_lag, 0.99), "ms");
    report.note(format!(
        "ingest lag over {} pushes; result lag over {} answers",
        lag.len(),
        result_lag.len()
    ));
    report.headline(quantile(&q.nominal.latency, 0.5));

    // After drain, once the cache budget has passed, answers are exact.
    std::thread::sleep(ServeConfig::default().cache.max_age * 3);
    let mut client = connect(addr);
    let after = |item: u64| -> i64 {
        match client.point(item) {
            Ok(a) if a.meta.epoch == total as u64 && a.meta.is_full() => a.estimate,
            Ok(a) => i64::MIN + a.meta.epoch as i64,
            Err(_) => i64::MIN,
        }
    };
    check_probes(
        report,
        "query after drain",
        after,
        &reference,
        &probes[..64],
    );
    drop(client);
    let merge_ns = match &unsharded {
        Some(unsharded) => record_replays(run, report, unsharded, &items, &plan),
        None => 0.0,
    };
    record_serve_layers(report, &stack, merge_ns);
    let out = stack.finish();
    check_output(report, &out, total as u64);
    if !out.merged.same_counters(&reference) {
        report.fail("merged sketch differs from the merge of per-shard replays".to_string());
    }
    if let Some(unsharded) = &unsharded {
        let differ = probes
            .iter()
            .filter(|&&x| FrequencyQueries::estimate(&out.merged, x) != unsharded.estimate(x))
            .count();
        report.note(format!(
            "{differ} of {} probe estimates differ from the unsharded sketch (signed SALSA \
             counters merge on overflows a shard sees and the whole stream cancels)",
            probes.len()
        ));
    }
    report.metric("are", are(&out.merged, &truth, passes as u64), "ratio");
    report.layer(
        "core.merge_events_per_mitem",
        out.merged.merge_events() as f64 / (total as f64 / 1e6),
        "1/Mitem",
    );
    let loads = [Load {
        secs: (acked - start).as_secs_f64(),
        drain_ms: (acked - last_push).as_secs_f64() * 1e3,
        extend_ns: extend_total_ns / total as f64,
        queue_depth_max: depth_max,
    }];
    record_pipeline_layers(report, &out, &loads);
}

/// The sketch a pipeline must end with after `passes` passes over `items`:
/// each shard's sub-stream (routed by the pipeline's own router) replayed
/// into its own sketch, one thread per shard, merged in shard order.  For
/// unsigned sum-merge rows this equals the unsharded sketch; for signed
/// rows it need not.
fn sharded_reference<S: BenchSketch>(
    run: &Run,
    pipeline: &ShardedPipeline<S>,
    items: &[u64],
    passes: usize,
) -> S {
    let mut parts: Vec<Vec<u64>> = vec![Vec::new(); pipeline.shards()];
    for &item in items {
        parts[pipeline.shard_of(item)].push(item);
    }
    let seed = run.sketch_seed();
    let mut shards: Vec<S> = std::thread::scope(|scope| {
        let replays: Vec<_> = parts
            .iter()
            .map(|part| {
                scope.spawn(move || {
                    let mut shard = S::paper_class(seed);
                    for _ in 0..passes {
                        shard.replay(part);
                    }
                    shard
                })
            })
            .collect();
        replays
            .into_iter()
            .map(|r| r.join().expect("reference replay panicked"))
            .collect()
    });
    let mut merged = shards.remove(0);
    for shard in &shards {
        merged.merge_from(shard);
    }
    merged
}

/// `read-hot`: YouTube stand-in loaded first, then point and top-k queries
/// only, under an unbounded cache budget.
pub fn read_hot(run: &Run, report: &mut Report) {
    report.metric("setup_s", setup_secs::<Cms>(run, frozen_config), "s");
    const ITEMS: usize = 4_000_000;
    const QUERY_RATE: f64 = 1000.0;
    let items = inputs(TraceSpec::YouTube, ITEMS, run.seed);
    let truth = GroundTruth::from_items(&items);
    let reference: Cms = reference(run, &items, 1, report);
    let plan = Plan {
        items: query_items(&items, 1 << 14, run.seed ^ 2),
        candidates: candidates(&items),
    };
    report.inputs_ready();

    let probes = query_items(&items, PROBES, run.seed ^ 1);
    let (mut loads, _) = batch_loads(run, report, &items, &reference, &probes, run.seconds * 0.35);
    let mut stack = Stack::<Cms>::build(run, frozen_config());
    loads.push(load(run, &mut stack.pipeline, &items));
    let check = exact_check(&reference, &plan, ITEMS as u64);
    let mut lanes = open_lanes(run, stack.addr(), &plan, &check, run.lanes);
    let q = queries(
        &mut lanes,
        QUERY_RATE,
        nominal_count(run, QUERY_RATE, 0.35),
        Some(QUERY_RATE),
    );
    drop(lanes);
    record_queries(report, &q);
    report.headline(quantile(&q.nominal.latency, 0.5));
    let merge_ns = if run.tracer.enabled() {
        record_replays(run, report, &reference, &items, &plan)
    } else {
        0.0
    };
    record_serve_layers(report, &stack, merge_ns);
    let out = stack.finish();
    check_output(report, &out, ITEMS as u64);
    report.metric("are", are(&out.merged, &truth, 1), "ratio");
    report.layer(
        "core.merge_events_per_mitem",
        out.merged.merge_events() as f64 / (ITEMS as f64 / 1e6),
        "1/Mitem",
    );
    record_pipeline_layers(report, &out, &loads);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        for spec in [TraceSpec::CaidaNy18, TraceSpec::Univ2, TraceSpec::YouTube] {
            let a = inputs(spec, 50_000, 42);
            assert_eq!(a, inputs(spec, 50_000, 42));
            assert_ne!(a, inputs(spec, 50_000, 43));
            assert_eq!(query_items(&a, 100, 7), query_items(&a, 100, 7));
        }
    }

    #[test]
    fn fail_share_counts_a_shed_reply_as_a_failure() {
        use salsa_serve::Response;
        use std::io::{Read, Write};
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("address");
        // A server that sheds every other request.
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let mut out = Vec::new();
            for i in 0..10 {
                let mut header = [0u8; 4];
                stream.read_exact(&mut header).expect("header");
                let mut payload = vec![0u8; u32::from_le_bytes(header) as usize];
                stream.read_exact(&mut payload).expect("payload");
                let response = if i % 2 == 0 {
                    Response::Overloaded { retry_after_ms: 5 }
                } else {
                    let meta = WireMeta {
                        epoch: 1,
                        generation: 0,
                        shards_ok: 1,
                        shards_failed: 0,
                        uncovered_items: 0,
                    };
                    Response::Point { meta, estimate: 1 }
                };
                response.encode(&mut out).expect("encode");
                stream.write_all(&out).expect("reply");
            }
        });
        let plan = Plan {
            items: vec![7; 16],
            candidates: vec![7],
        };
        let check = |_: usize, _: &Reply| Ok(());
        let mut lane = Lane::open(addr, &plan, &check, Tracer::off());
        // Ten point queries (none falls on the top-k share).
        let log = lane.phase(Instant::now(), 1000.0, 1, 0, 10, 0);
        server.join().expect("server thread");
        let account = Account::of(&log.samples);
        assert_eq!((account.attempted, account.failed), (10, 5));
        assert!((account.fail_share() - 0.5).abs() < 1e-12);
        assert!(log.errors.is_empty(), "{:?}", log.errors);
        assert!(!account.meets(1e9));
    }

    #[test]
    fn topk_check_accepts_any_tie_order_and_rejects_a_wrong_set() {
        let mut sketch = Cms::paper_class(1);
        let items: Vec<u64> = (0..200u64)
            .flat_map(|i| std::iter::repeat_n(i, i as usize % 13))
            .collect();
        sketch.replay(&items);
        let cands: Vec<u64> = (0..64).collect();
        let mut ranked: Vec<(u64, u64)> = cands.iter().map(|&c| (c, sketch.estimate(c))).collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let top = &ranked[..TOPK_K as usize];
        assert!(check_topk(&sketch, &cands, top).is_ok());
        let mut reversed_ties = top.to_vec();
        reversed_ties.reverse();
        assert!(check_topk(&sketch, &cands, &reversed_ties).is_ok());
        assert!(check_topk(&sketch, &cands, &ranked[1..=TOPK_K as usize]).is_err());
    }
}
