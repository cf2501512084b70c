//! Determinism of the sharded pipeline: with hash (by-key) partitioning and
//! unsigned sum-merge rows, the merged global view must give
//! **byte-identical** estimates to a single unsharded sketch of the same
//! stream — sharding is a pure implementation detail, invisible to queries.
//! Signed (Count Sketch) rows are the exception, pinned by one
//! counterexample at the end.
//!
//! This is the end-to-end counterpart of the sketch-level merge property
//! tests in `salsa-sketches`: it goes through the real worker threads,
//! batching, routing, and final merge of `salsa-pipeline`, on a realistic
//! Zipf trace, for both the baseline (fixed-row) and SALSA (both merge
//! encodings) CMS.

use salsa_core::prelude::*;
use salsa_pipeline::{
    run_sharded, FrequencyQueries, Partition, PipelineConfig, ShardedPipeline, SnapshotSummary,
};
use salsa_sketches::prelude::*;
use salsa_workloads::TraceSpec;

const UNIVERSE: usize = 20_000;
const UPDATES: usize = 120_000;

fn trace() -> Vec<u64> {
    TraceSpec::Zipf {
        universe: UNIVERSE,
        skew: 1.0,
    }
    .generate(UPDATES, 7)
    .items()
    .to_vec()
}

/// Feeds the whole stream to one sketch through the same batched hot path
/// the pipeline workers use.
fn unsharded<S: SnapshotSummary>(mut sketch: S, items: &[u64]) -> S {
    for chunk in items.chunks(PipelineConfig::DEFAULT_BATCH_SIZE) {
        sketch.ingest(chunk);
    }
    sketch
}

fn assert_identical<S, F>(make: F, items: &[u64], partition: Partition, label: &str)
where
    S: SnapshotSummary + FrequencyQueries,
    F: Fn(usize) -> S + Copy,
{
    let single = unsharded(make(0), items);
    for shards in [2usize, 4, 5] {
        let config = PipelineConfig::new(shards).partition(partition);
        let out = run_sharded(&config, make, items);
        assert_eq!(out.items, items.len() as u64);
        for item in 0..UNIVERSE as u64 {
            assert_eq!(
                out.merged.estimate(item),
                single.estimate(item),
                "{label}, {} shards, item {item}",
                shards
            );
        }
    }
}

#[test]
fn hash_partitioned_salsa_cms_matches_unsharded_exactly() {
    let items = trace();
    assert_identical(
        |_| CountMin::salsa(4, 4096, 8, MergeOp::Sum, 42),
        &items,
        Partition::ByKey,
        "SALSA CMS (simple encoding)",
    );
}

#[test]
fn hash_partitioned_compact_salsa_cms_matches_unsharded_exactly() {
    let items = trace();
    assert_identical(
        |_| CountMin::salsa_compact(4, 4096, 8, MergeOp::Sum, 42),
        &items,
        Partition::ByKey,
        "SALSA CMS (compact encoding)",
    );
}

#[test]
fn hash_partitioned_baseline_cms_matches_unsharded_exactly() {
    let items = trace();
    assert_identical(
        |_| CountMin::baseline(4, 4096, 32, 42),
        &items,
        Partition::ByKey,
        "Baseline CMS",
    );
}

#[test]
fn round_robin_salsa_cms_matches_unsharded_exactly() {
    // Sum-merging is lossless for *any* split of the stream, so even the
    // replicated (round-robin) mode reproduces the unsharded sketch.
    let items = trace();
    assert_identical(
        |_| CountMin::salsa(4, 4096, 8, MergeOp::Sum, 42),
        &items,
        Partition::RoundRobin,
        "SALSA CMS (round-robin)",
    );
}

/// Signed rows are not byte-identical under sharding.  Two keys share a
/// Count Sketch bucket with opposite signs and are routed to different
/// shards.  Interleaved, the unsharded counter only ever holds 0 or ±1;
/// each shard's counter alone reaches ±200, overflows its 8 bits and
/// merges with its neighbour, so the merged sketch ends with a 16-bit
/// counter there and the neighbour's count leaks into the keys' estimate.
#[test]
fn hash_partitioned_salsa_count_sketch_can_differ_from_unsharded() {
    const WIDTH: usize = 64;
    const SEED: u64 = 42;
    let make = |_| CountSketch::salsa(1, WIDTH, 8, SEED);
    let mut pipeline = ShardedPipeline::new(&PipelineConfig::new(2), make);
    let (hashers, signs) = (RowHashers::new(1, WIDTH, SEED), SignHash::new(1, SEED));
    let key = 0u64;
    let bucket = hashers.bucket(0, key);
    let partner = (1..)
        .find(|&y| {
            hashers.bucket(0, y) == bucket
                && signs.sign(0, y) != signs.sign(0, key)
                && pipeline.shard_of(y) != pipeline.shard_of(key)
        })
        .expect("some key shares the bucket with the opposite sign");
    let neighbour = (1..)
        .find(|&z| hashers.bucket(0, z) == bucket ^ 1)
        .expect("some key hashes to the neighbouring bucket");
    let items: Vec<u64> = (0..200)
        .flat_map(|_| [key, partner])
        .chain([neighbour])
        .collect();
    pipeline.extend(&items);
    let merged = pipeline.finish().merged;
    let single = unsharded(make(0), &items);

    assert_eq!(single.rows()[0].level_of(bucket), 0);
    assert_eq!(single.estimate(key), 0);
    assert_eq!(merged.rows()[0].level_of(bucket), 1);
    assert_eq!(merged.estimate(key).abs(), 1);
    // Every count is still there: the neighbour's estimate is exact.
    assert_eq!(merged.estimate(neighbour), single.estimate(neighbour));
}
