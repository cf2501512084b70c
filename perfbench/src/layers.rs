//! Single-layer replays over a workload's own items, for the traced run.
//!
//! Each one calls one module's public functions in a tight loop and reports
//! nanoseconds per call; the span around the loop lands in the trace.

use std::hint::black_box;
use std::time::Instant;

use salsa_pipeline::MergeHelper;
use salsa_serve::{Request, Response, WireMeta};
use salsa_sketches::prelude::RowHashers;

use crate::sketch::{row0_inputs, BenchSketch};
use crate::trace::Tracer;

/// Items the replays run over (a prefix of the workload's trace).
pub const REPLAY_ITEMS: usize = 1 << 20;

fn per_call_ns(tracer: &Tracer, name: &'static str, calls: usize, f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    tracer.span(name, 0, 0, |_| f());
    start.elapsed().as_nanos() as f64 / calls.max(1) as f64
}

/// `RowHashers::bucket` over every row: ns per bucket.
pub fn hash_bucket_ns(
    tracer: &Tracer,
    items: &[u64],
    depth: usize,
    width: usize,
    seed: u64,
) -> f64 {
    let hashers = RowHashers::new(depth, width, seed);
    per_call_ns(tracer, "hash.bucket", items.len() * depth, || {
        let mut sum = 0usize;
        for row in 0..depth {
            for &item in items {
                sum = sum.wrapping_add(hashers.bucket(row, black_box(item)));
            }
        }
        black_box(sum);
    })
}

/// One SALSA row fed the items' row-0 buckets: ns per item.
pub fn core_row_ns<S: BenchSketch>(tracer: &Tracer, sketch: &S, items: &[u64], seed: u64) -> f64 {
    let (buckets, signs) = row0_inputs(sketch, seed, items);
    per_call_ns(tracer, "core.add_unit_batch", items.len(), || {
        black_box(S::row_pass(sketch.width(), black_box(&buckets), &signs));
    })
}

/// `copy_from` and `merge_with_helper` on two shard-sized sketches, each
/// fed half of the items: ns per call of each.
pub fn copy_merge_ns<S: BenchSketch>(
    tracer: &Tracer,
    items: &[u64],
    seed: u64,
    rounds: usize,
) -> (f64, f64) {
    let (left, right) = items.split_at(items.len() / 2);
    let mut a = S::paper_class(seed);
    a.replay(left);
    let mut b = S::paper_class(seed);
    b.replay(right);
    let mut scratch = a.clone();
    let mut helper = MergeHelper::new();
    let (mut copy_ns, mut merge_ns) = (0u128, 0u128);
    tracer.span("sketches.copy_merge", 0, 0, |parent| {
        for _ in 0..rounds {
            let t0 = Instant::now();
            scratch.copy_from(black_box(&a));
            let t1 = Instant::now();
            scratch.merge_with_helper(black_box(&b), &mut helper);
            let t2 = Instant::now();
            copy_ns += (t1 - t0).as_nanos();
            merge_ns += (t2 - t1).as_nanos();
            let (copy, merge) = (tracer.reserve(), tracer.reserve());
            tracer.record(copy, "sketches.copy", (t0, t1), parent, 0);
            tracer.record(merge, "sketches.merge", (t1, t2), parent, 0);
        }
    });
    black_box(&scratch);
    (
        copy_ns as f64 / rounds as f64,
        merge_ns as f64 / rounds as f64,
    )
}

/// `estimate` on a merged sketch: ns per call.
pub fn estimate_ns<S: BenchSketch>(tracer: &Tracer, sketch: &S, items: &[u64]) -> f64 {
    per_call_ns(tracer, "sketches.estimate", items.len(), || {
        let mut sum = 0i64;
        for &item in items {
            sum = sum.wrapping_add(sketch.estimate(black_box(item)));
        }
        black_box(sum);
    })
}

/// `Request::encode` and `Response::decode` on the workload's message mix:
/// every `topk_every`-th query a top-k over `candidates`, the rest point
/// queries.  ns per message of each.
pub fn wire_ns(
    tracer: &Tracer,
    items: &[u64],
    topk_every: usize,
    k: u16,
    candidates: &[u64],
) -> (f64, f64) {
    let meta = WireMeta {
        epoch: items.len() as u64,
        generation: 0,
        shards_ok: 2,
        shards_failed: 0,
        uncovered_items: 0,
    };
    let is_topk = |i: usize| i % topk_every == topk_every - 1;
    let requests: Vec<Request> = items
        .iter()
        .enumerate()
        .map(|(i, &item)| {
            if is_topk(i) {
                Request::TopK {
                    k,
                    candidates: candidates.to_vec(),
                }
            } else {
                Request::Point { item }
            }
        })
        .collect();
    let top: Vec<(u64, u64)> = candidates
        .iter()
        .take(k as usize)
        .map(|&c| (c, c >> 40))
        .collect();
    let mut responses = Vec::with_capacity(items.len());
    for (i, &item) in items.iter().enumerate() {
        let response = if is_topk(i) {
            Response::TopK {
                meta,
                entries: top.clone(),
            }
        } else {
            Response::Point {
                meta,
                estimate: (item >> 48) as i64,
            }
        };
        let mut frame = Vec::new();
        response.encode(&mut frame).expect("encode a response");
        // Skip the 4-byte length prefix, as the client's reader does.
        responses.push(frame.split_off(4));
    }
    let mut out = Vec::new();
    let encode = per_call_ns(tracer, "serve.request_encode", requests.len(), || {
        for request in &requests {
            request.encode(&mut out).expect("encode a request");
            black_box(&out);
        }
    });
    let decode = per_call_ns(tracer, "serve.response_decode", responses.len(), || {
        for payload in &responses {
            black_box(Response::decode(black_box(payload)).expect("decode a response"));
        }
    });
    (encode, decode)
}
