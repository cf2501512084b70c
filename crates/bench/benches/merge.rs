//! Shard merge: `merge_with_helper` of one paper-class SALSA shard into a
//! fresh copy of another, the step every snapshot of a two-shard pipeline
//! waits on.
//!
//! Shapes: Count-Min 4 × 65 536 and Count Sketch 5 × 65 536 with 8-bit
//! base counters and the simple encoding, the widest power-of-two rows
//! that fit 512 KB per shard (the shape `perfbench` runs).  Fills:
//!
//! * `empty` — both shards fresh (a pipeline's first snapshot);
//! * `ny18_2m` — the CAIDA-NY18 stand-in, 2 M items split by key over the
//!   two shards (one `ingest-cms` batch);
//! * `univ2_12m` — the Univ2 stand-in, a 4.2 M-item trace pushed six times
//!   and split by key: about 12.6 M items per shard, where a good share of
//!   counter words overflow while merging (late `mixed-cs` snapshots).
//!
//! The copy that refreshes the destination runs in the untimed setup.
//! Throughput is in base slots: 1000 ÷ Melem/s is ns per base slot.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use salsa_core::prelude::*;
use salsa_pipeline::{MergeHelper, SnapshotSummary};
use salsa_sketches::prelude::*;
use salsa_workloads::TraceSpec;

const WIDTH: usize = 1 << 16;
const BASE_BITS: u32 = 8;
const SEED: u64 = 11;

/// The two key-split halves of `items` pushed `cycles` times.
fn shards<S: SnapshotSummary>(make: impl Fn() -> S, items: &[u64], cycles: usize) -> (S, S) {
    let (mut left, mut right) = (make(), make());
    let (mut to_left, mut to_right) = (Vec::new(), Vec::new());
    for &item in items {
        // The top bit of a multiplicative hash: a pure function of the key.
        if item.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 63 == 0 {
            to_left.push(item);
        } else {
            to_right.push(item);
        }
    }
    for _ in 0..cycles {
        for chunk in to_left.chunks(1024) {
            left.ingest(chunk);
        }
        for chunk in to_right.chunks(1024) {
            right.ingest(chunk);
        }
    }
    (left, right)
}

fn bench_pair<S: SnapshotSummary>(
    c: &mut Criterion,
    group: &str,
    slots: usize,
    pairs: &[(&str, S, S)],
) {
    let mut group = c.benchmark_group(group);
    group.throughput(Throughput::Elements(slots as u64));
    group.sample_size(20);
    for (fill, base, other) in pairs {
        let mut helper = MergeHelper::new();
        group.bench_function(*fill, |b| {
            b.iter_batched(
                || base.clone(),
                |mut dst| {
                    dst.merge_with_helper(other, &mut helper);
                    dst
                },
                BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

fn bench_merge(c: &mut Criterion) {
    let ny18 = TraceSpec::CaidaNy18.generate(2_000_000, SEED);
    let univ2 = TraceSpec::Univ2.generate(4_200_000, SEED);
    let fills: [(&str, &[u64], usize); 3] = [
        ("empty", &[], 0),
        ("ny18_2m", ny18.items(), 1),
        ("univ2_12m", univ2.items(), 6),
    ];

    let cms = || CountMin::salsa(4, WIDTH, BASE_BITS, MergeOp::Sum, SEED);
    let pairs: Vec<_> = fills
        .iter()
        .map(|&(fill, items, cycles)| {
            let (a, b) = shards(cms, items, cycles);
            (fill, a, b)
        })
        .collect();
    bench_pair(c, "merge_cms_4x65536", 4 * WIDTH, &pairs);
    drop(pairs);

    let cs = || CountSketch::salsa(5, WIDTH, BASE_BITS, SEED);
    let pairs: Vec<_> = fills
        .iter()
        .map(|&(fill, items, cycles)| {
            let (a, b) = shards(cs, items, cycles);
            (fill, a, b)
        })
        .collect();
    bench_pair(c, "merge_cs_5x65536", 5 * WIDTH, &pairs);
}

criterion_group!(benches, bench_merge);
criterion_main!(benches);
