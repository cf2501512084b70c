//! Non-frequency summaries through the sharded pipeline: throughput and
//! accuracy of sharded **UnivMon** (universal statistics) and sharded
//! **distinct counting**, the two end-to-end scenarios enabled by the
//! `SnapshotSummary` contract (this figure is ours, not the paper's — it
//! evaluates Section V's mergeability beyond frequency estimation).
//!
//! For each mode and shard count the binary streams a Zipf trace through
//! [`salsa_pipeline::run_sharded`] and reports:
//!
//! * `wall_mops` — items over wall-clock time (scales with the host's
//!   actual core count);
//! * `summary_mops` — items over the busiest shard's busy time (the
//!   ingestion critical path), i.e. the rate the sharded system sustains
//!   with one core per shard.  This is the gated perf-snapshot metric,
//!   because CI runners have few cores.
//!
//! Accuracy, against exact statistics of the trace:
//!
//! * `entropy_rel_err` / `f2_rel_err` / `distinct_rel_err` — relative error
//!   of the merged view's estimates (for `mode=distinct` the entropy/F2
//!   columns are not applicable and report 0);
//! * `unsharded_abs_diff` — |merged − unsharded| for the mode's headline
//!   statistic (distinct count).  For `mode=distinct` over sum-merge rows
//!   this must be **exactly 0**: the merged counter array is byte-identical
//!   to the unsharded one, so Linear Counting returns the same estimate.
//!   For `mode=univmon` it is small but nonzero (merging rebuilds each
//!   level's heap).
//!
//! Output columns: `mode,shards,wall_mops,summary_mops,entropy_rel_err,`
//! `f2_rel_err,distinct_rel_err,unsharded_abs_diff`.  `--json PATH` writes
//! a machine-readable snapshot (see `bench-smoke` in CI, which uploads it
//! as `BENCH_univmon.json` and gates on `summary_mops`).

use std::collections::HashMap;

use salsa_bench::*;
use salsa_core::prelude::*;
use salsa_metrics::{mops_for, Throughput};
use salsa_pipeline::{run_sharded, PipelineConfig, SnapshotSummary};
use salsa_sketches::prelude::*;
use salsa_workloads::TraceSpec;

const UNIVERSE: usize = 50_000;

/// One measured point of the figure.
struct Point {
    mode: &'static str,
    shards: usize,
    wall_mops: f64,
    summary_mops: f64,
    entropy_rel_err: f64,
    f2_rel_err: f64,
    distinct_rel_err: f64,
    unsharded_abs_diff: f64,
}

/// Exact (entropy, F2, distinct) of the trace.
fn exact_stats(items: &[u64]) -> (f64, f64, f64) {
    let mut counts: HashMap<u64, u64> = HashMap::new();
    for &item in items {
        *counts.entry(item).or_insert(0) += 1;
    }
    let n = items.len() as f64;
    let entropy = -counts
        .values()
        .map(|&c| {
            let p = c as f64 / n;
            p * p.log2()
        })
        .sum::<f64>();
    let f2 = counts.values().map(|&c| (c as f64) * (c as f64)).sum();
    (entropy, f2, counts.len() as f64)
}

fn rel_err(est: f64, truth: f64) -> f64 {
    (est - truth).abs() / truth.abs().max(1.0)
}

/// Runs one summary type over all shard counts and pushes its points.
#[allow(clippy::too_many_arguments)]
fn run_mode<S, F, A>(
    mode: &'static str,
    make: F,
    accuracy: A,
    shard_counts: &[usize],
    items: &[u64],
    single_secs: f64,
    points: &mut Vec<Point>,
) where
    S: salsa_pipeline::SnapshotSummary,
    F: Fn(usize) -> S + Copy + Send + 'static,
    A: Fn(&S) -> (f64, f64, f64, f64),
{
    for &shards in shard_counts {
        let config = PipelineConfig::new(shards);
        let mut wall = Throughput::start();
        let out = run_sharded(&config, make, items);
        wall.add_ops(items.len() as u64);
        let wall_mops = wall.mops();
        // A coarse clock can measure zero busy time on a tiny --quick run,
        // which mops_for saturates to infinity; fall back to the unsharded
        // wall rate so every reported point stays finite (the JSON snapshot
        // must never contain `inf`).
        let raw = mops_for(out.items, out.critical_path_secs());
        let summary_mops = if raw.is_finite() {
            raw
        } else {
            mops_for(out.items, single_secs)
        };
        let (entropy_rel_err, f2_rel_err, distinct_rel_err, unsharded_abs_diff) =
            accuracy(&out.merged);
        csv_row(&[
            mode.into(),
            format!("{shards}"),
            fmt(wall_mops),
            fmt(summary_mops),
            fmt(entropy_rel_err),
            fmt(f2_rel_err),
            fmt(distinct_rel_err),
            fmt(unsharded_abs_diff),
        ]);
        points.push(Point {
            mode,
            shards,
            wall_mops,
            summary_mops,
            entropy_rel_err,
            f2_rel_err,
            distinct_rel_err,
            unsharded_abs_diff,
        });
    }
}

fn main() {
    let args = Args::parse(2_000_000, 1);
    let json_path = parse_json_path();
    let shard_counts: &[usize] = if args.quick {
        &[1, 2, 4]
    } else {
        &[1, 2, 4, 8]
    };
    let items = trace_items(
        TraceSpec::Zipf {
            universe: UNIVERSE,
            skew: 1.0,
        },
        args.updates,
        args.seed,
    );
    let (true_entropy, true_f2, true_distinct) = exact_stats(&items);
    let seed = args.seed;

    let univmon_width = if args.quick { 1 << 10 } else { 1 << 12 };
    let make_univmon = move |_shard: usize| UnivMon::salsa(12, 5, univmon_width, 8, 100, seed);
    let distinct_width = 1 << 16; // wide enough that Linear Counting never saturates here
    let make_distinct = move |_shard: usize| {
        DistinctCounter::new(CountMin::salsa(4, distinct_width, 8, MergeOp::Sum, seed))
    };

    // Unsharded references: same batched hot path the workers use.  Their
    // wall time doubles as the finite fallback rate for --quick runs.
    let mut clock = Throughput::start();
    let mut single_univmon = make_univmon(0);
    let mut single_distinct = make_distinct(0);
    for chunk in items.chunks(PipelineConfig::DEFAULT_BATCH_SIZE) {
        single_univmon.ingest(chunk);
        single_distinct.ingest(chunk);
    }
    clock.add_ops(2 * items.len() as u64);
    let single_secs = clock.elapsed_secs() / 2.0;
    let single_lc = single_distinct
        .estimate_distinct()
        .expect("distinct sketch saturated; widen it");

    csv_header(&[
        "mode",
        "shards",
        "wall_mops",
        "summary_mops",
        "entropy_rel_err",
        "f2_rel_err",
        "distinct_rel_err",
        "unsharded_abs_diff",
    ]);
    let mut points: Vec<Point> = Vec::new();
    let single_univmon_distinct = single_univmon.distinct();
    run_mode(
        "univmon",
        make_univmon,
        |merged: &UnivMon<_>| {
            (
                rel_err(merged.entropy(), true_entropy),
                rel_err(merged.fp_moment(2.0), true_f2),
                rel_err(merged.distinct(), true_distinct),
                (merged.distinct() - single_univmon_distinct).abs(),
            )
        },
        shard_counts,
        &items,
        single_secs,
        &mut points,
    );
    run_mode(
        "distinct",
        make_distinct,
        |merged: &DistinctCounter<_>| {
            let lc = merged
                .estimate_distinct()
                .expect("distinct sketch saturated; widen it");
            (0.0, 0.0, rel_err(lc, true_distinct), (lc - single_lc).abs())
        },
        shard_counts,
        &items,
        single_secs,
        &mut points,
    );

    if let Some(path) = json_path {
        let mut json = String::from("{\n");
        json.push_str("  \"bench\": \"fig_pipeline_univmon\",\n");
        json.push_str(&format!("  \"updates\": {},\n", args.updates));
        json.push_str(&format!("  \"seed\": {},\n", args.seed));
        json.push_str("  \"points\": [\n");
        for (i, p) in points.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"mode\": \"{}\", \"shards\": {}, \"wall_mops\": {:.3}, \"summary_mops\": {:.3}, \"entropy_rel_err\": {:.5}, \"f2_rel_err\": {:.5}, \"distinct_rel_err\": {:.5}, \"unsharded_abs_diff\": {:.5}}}{}\n",
                p.mode,
                p.shards,
                finite(p.wall_mops),
                finite(p.summary_mops),
                finite(p.entropy_rel_err),
                finite(p.f2_rel_err),
                finite(p.distinct_rel_err),
                finite(p.unsharded_abs_diff),
                if i + 1 == points.len() { "" } else { "," }
            ));
        }
        json.push_str("  ]\n}\n");
        std::fs::write(&path, json)
            .unwrap_or_else(|e| panic!("failed to write perf snapshot {path}: {e}"));
        eprintln!("wrote perf snapshot to {path}");
    }
}
