//! Allocation-discipline gate for the steady-state serving hot path.
//!
//! The zero-allocation contract (see README "Hot path & allocation
//! discipline"): once a live pipeline's snapshot arena and a merge
//! helper's scratch are warm, point queries served through
//! [`CachedSnapshots`](salsa_pipeline::CachedSnapshots) and helper-based
//! shard merges into a refreshed destination buffer touch the heap **zero
//! times**.  This test proves it with a counting `#[global_allocator]`
//! rather than asserting it from code review: any `Vec` growth, `clone`,
//! or box sneaking back into the serve/merge path fails the count.
//!
//! The merge phases cover both unsigned (Count-Min) and signed (Count
//! Sketch) rows, whose merges run through different instances of the
//! word-local merge kernel.
//!
//! All phases live in one `#[test]` on purpose — the allocation counter
//! is process-global, so concurrently running test threads would pollute
//! each other's windows.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use salsa_core::traits::MergeOp;
use salsa_pipeline::{CachePolicy, MergeHelper, PipelineConfig, ShardedPipeline};
use salsa_sketches::prelude::*;
use salsa_workloads::TraceSpec;

/// Counts every heap allocation in the process.  Frees are not counted:
/// the discipline under test is "no fresh memory on the hot path".
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards verbatim to the system allocator; the
// relaxed counter bump has no effect on allocation semantics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` is forwarded unchanged from our caller.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` describe a live `System` allocation and
        // are forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` is forwarded unchanged from our caller.
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

const SHARDS: usize = 4;
const DEPTH: usize = 4;
const WIDTH: usize = 1 << 12;
const SEED: u64 = 7;
const QUERIES: usize = 256;
const MERGES: usize = 64;

fn cms() -> CountMin<SalsaRow> {
    CountMin::salsa(DEPTH, WIDTH, 8, MergeOp::Sum, SEED)
}

fn cs() -> CountSketch<SalsaSignedRow> {
    CountSketch::salsa(DEPTH + 1, WIDTH, 8, SEED)
}

#[test]
fn steady_state_queries_and_merges_do_not_allocate() {
    let items = TraceSpec::Zipf {
        universe: 10_000,
        skew: 1.0,
    }
    .generate(50_000, SEED)
    .items()
    .to_vec();

    // --- Phase 1: cached point queries against a live pipeline. ---
    let config = PipelineConfig::new(SHARDS);
    let mut pipeline = ShardedPipeline::new(&config, |_| cms());
    pipeline.extend(&items);
    let handle = pipeline.live_handle();
    let cached = handle
        .clone()
        .cached(CachePolicy::new(Duration::from_secs(3_600), u64::MAX));

    // Warm-up: the first snapshot assembles (and allocates) the cached
    // view; every query below re-serves it.
    let view = cached.snapshot().expect("pipeline is live");
    let mut sink = view.estimate(items[0]);
    drop(view);

    // Ingest is quiescent and the worker threads are parked on their
    // command channels, so the counter window isolates the serve path.
    let before = allocations();
    for i in 0..QUERIES {
        let view = cached.snapshot().expect("pipeline is live");
        sink ^= view.estimate(items[i % items.len()]);
    }
    let query_allocs = allocations() - before;
    assert_eq!(
        query_allocs, 0,
        "steady-state cached point queries must not touch the heap \
         ({query_allocs} allocations across {QUERIES} queries)"
    );
    std::hint::black_box(sink);

    let out = pipeline.finish();
    assert_eq!(out.items as usize, items.len());

    // --- Phase 2: helper-based shard merges into a warm destination. ---
    let (left, right) = items.split_at(items.len() / 2);
    let mut base = cms();
    let mut other = cms();
    for &item in left {
        base.update(item, 1);
    }
    for &item in right {
        other.update(item, 1);
    }

    // Warm-up: one refresh+merge cycle sizes the destination buffer and
    // the helper's scratch; steady state repeats the cycle for free.
    let mut helper = MergeHelper::new();
    let mut dst = base.clone();
    dst.merge_with_helper(&other, &mut helper);

    let before = allocations();
    for _ in 0..MERGES {
        dst.copy_from(&base);
        dst.merge_with_helper(&other, &mut helper);
    }
    let merge_allocs = allocations() - before;
    assert_eq!(
        merge_allocs, 0,
        "helper-based merges into a warm buffer must not touch the heap \
         ({merge_allocs} allocations across {MERGES} merges)"
    );

    // The refreshed-and-merged sketch answers like a fresh full merge.
    let mut reference = base.clone();
    reference.merge_from(&other);
    for &item in items.iter().take(64) {
        assert_eq!(dst.estimate(item), reference.estimate(item));
    }

    // --- Phase 3: the same for signed (Count Sketch) rows. ---
    let mut base = cs();
    let mut other = cs();
    for &item in left {
        base.update(item, 1);
    }
    for &item in right {
        other.update(item, 1);
    }
    let mut dst = base.clone();
    dst.merge_with_helper(&other, &mut helper);

    let before = allocations();
    for _ in 0..MERGES {
        dst.copy_from(&base);
        dst.merge_with_helper(&other, &mut helper);
    }
    let merge_allocs = allocations() - before;
    assert_eq!(
        merge_allocs, 0,
        "signed helper-based merges into a warm buffer must not touch the heap \
         ({merge_allocs} allocations across {MERGES} merges)"
    );
    let mut reference = base.clone();
    reference.merge_from(&other);
    for &item in items.iter().take(64) {
        assert_eq!(dst.estimate(item), reference.estimate(item));
    }
}
