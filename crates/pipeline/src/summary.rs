//! The pipeline's summary contract and its capability traits.
//!
//! SALSA's counter-wise mergeability (Section V) is not specific to
//! frequency estimation, so the transport layer — sharded workers, live
//! snapshots, elastic resharding — is bound only to the one
//! [`SnapshotSummary`] contract: *ingest a batch, copy, merge counter-wise*.
//! Everything a summary can be **asked** lives in small capability traits
//! ([`FrequencyQueries`], [`DistinctQueries`], [`UniversalQueries`],
//! [`TrackedQueries`]) that [`SnapshotView`](crate::SnapshotView) and the
//! live/elastic handles surface only when the summary implements them.
//! This is the split between sketch *logic* and worker/snapshot *transport*
//! that lets UnivMon, distinct counting and heavy-hitter tracking ride the
//! same machinery as the frequency sketches.
//!
//! | Method | Kind | Role |
//! |--------|------|------|
//! | [`SnapshotSummary::ingest`] | required | the worker shard's batch hot path |
//! | [`SnapshotSummary::clone_cost_bytes`] | required | per-shard cost of one snapshot |
//! | [`SnapshotSummary::copy_from`] | required | refresh a warm snapshot buffer in place |
//! | [`SnapshotSummary::merge_with_helper`] | required | the one counter-wise merge |
//! | [`SnapshotSummary::merge_from`] | provided | the same merge with a fresh, empty helper |

use salsa_core::merge::RowMerge;
use salsa_core::traits::{Row, SignedRow};
use salsa_sketches::cms::CountMin;
use salsa_sketches::cs::CountSketch;
use salsa_sketches::cus::ConservativeUpdate;
use salsa_sketches::distinct::DistinctCounter;
use salsa_sketches::estimator::FrequencyEstimator;
use salsa_sketches::heavy_hitters::TopK;
use salsa_sketches::helper::MergeHelper;
use salsa_sketches::univmon::UnivMon;

/// A summary whose same-seed, same-shape instances can ingest item batches,
/// be copied cheaply for a point-in-time snapshot, and be combined
/// counter-wise into a summary of the union stream.
///
/// This is the entire contract a type must satisfy to run sharded and
/// serve live queries: it must be movable onto a worker thread
/// (`Send + 'static`), and cloning it must be cheap and bounded (a flat
/// copy of its counter storage), so a shard worker can produce a copy on
/// demand without stalling ingestion for longer than one memcpy.
/// [`ShardedPipeline::snapshot`] and [`LiveHandle`] assemble views by
/// copying each shard's summary and folding the copies counter-wise,
/// leaving the live summaries untouched.  What the summary can be queried
/// for afterwards is expressed separately through the capability traits
/// ([`FrequencyQueries`], [`DistinctQueries`], [`UniversalQueries`], …).
///
/// Implementations enforce the "same hash functions, same shape" precondition
/// of [`copy_from`](SnapshotSummary::copy_from) and
/// [`merge_with_helper`](SnapshotSummary::merge_with_helper) themselves and
/// panic on mismatch.
///
/// [`ShardedPipeline::snapshot`]: crate::ShardedPipeline::snapshot
/// [`LiveHandle`]: crate::LiveHandle
pub trait SnapshotSummary: Send + Clone + 'static {
    /// Processes a batch of unit-weight updates (`⟨item, 1⟩` per item) —
    /// the worker shard's hot path.  Implementations are expected to
    /// monomorphize the loop (row-major where update order allows) so a
    /// shard pays any dispatch cost once per batch, not once per item.
    fn ingest(&mut self, items: &[u64]);

    /// Bytes copied per clone — the cost one snapshot imposes on each
    /// shard.  Implementations report their counter storage plus encoding
    /// metadata (see `Row::clone_cost_bytes` in `salsa-core`).
    fn clone_cost_bytes(&self) -> usize;

    /// Overwrites `self` with `src`'s contents, reusing `self`'s existing
    /// backing storage — the snapshot-refresh primitive.  Both operands
    /// must share seeds and shapes.
    fn copy_from(&mut self, src: &Self);

    /// Counter-wise merges `other` into `self`, so that `self` afterwards
    /// summarizes the union of the two input streams.  Any scratch space
    /// comes from `helper` instead of a fresh allocation, so a warm helper
    /// makes steady-state merges allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if the operands were built with different seeds or shapes.
    fn merge_with_helper(&mut self, other: &Self, helper: &mut MergeHelper);

    /// [`merge_with_helper`](SnapshotSummary::merge_with_helper) with a
    /// fresh helper.  [`MergeHelper::new`] allocates nothing, so this is
    /// allocation-free for the sum sketches; summaries that rebuild
    /// auxiliary state (UnivMon, [`Tracked`]) grow the helper's scratch
    /// once per call.
    fn merge_from(&mut self, other: &Self) {
        self.merge_with_helper(other, &mut MergeHelper::new());
    }
}

/// Capability: per-item frequency queries.
///
/// Implemented by the frequency sketches (CMS/CUS/CS and wrappers around
/// them); [`SnapshotView`](crate::SnapshotView)'s `estimate`/`top_k` and the
/// point-query fast paths on [`LiveHandle`](crate::LiveHandle) /
/// [`ElasticHandle`](crate::ElasticHandle) are gated on it.
pub trait FrequencyQueries {
    /// Estimates the current frequency of `item` (signed, so Turnstile
    /// summaries fit the same surface).
    fn estimate(&self, item: u64) -> i64;
}

/// Capability: distinct-count (F0) estimation.
///
/// Gates [`SnapshotView::estimate_distinct`](crate::SnapshotView::estimate_distinct).
pub trait DistinctQueries {
    /// Estimates the number of distinct items summarized so far; `None`
    /// when the underlying estimator has saturated.
    fn estimate_distinct(&self) -> Option<f64>;
}

/// Capability: UnivMon-style universal statistics (any G-sum in
/// Stream-PolyLog).
///
/// Gates the `entropy`/`fp_moment`/`distinct` queries on
/// [`SnapshotView`](crate::SnapshotView).
pub trait UniversalQueries {
    /// Estimates the empirical entropy of the frequency distribution.
    fn entropy(&self) -> f64;

    /// Estimates the `p`-th frequency moment `F_p = Σ_x f_x^p`.
    fn fp_moment(&self, p: f64) -> f64;

    /// Estimates the number of distinct items (`F_0`).
    fn distinct(&self) -> f64;
}

/// Capability: an on-arrival heavy-hitter tracker rides along with the
/// summary (see [`Tracked`]).
///
/// Gates [`SnapshotView::top_k_tracked`](crate::SnapshotView::top_k_tracked).
pub trait TrackedQueries {
    /// The tracked heavy hitters of this summary.
    fn tracked(&self) -> &TopK;
}

// ---------------------------------------------------------------------------
// Frequency sketches: batched updates + the sketch's own counter-wise merge.
// (No blanket impl over `FrequencyEstimator` — coherence would forbid the
// non-estimator impls below, and the explicit list keeps `ingest` on each
// sketch's monomorphized batch loop.)  Their row merges need no scratch, so
// the helper goes unused.
// ---------------------------------------------------------------------------

impl<R> SnapshotSummary for CountMin<R>
where
    R: Row + RowMerge + Clone + Send + 'static,
{
    fn ingest(&mut self, items: &[u64]) {
        CountMin::update_batch(self, items);
    }

    fn clone_cost_bytes(&self) -> usize {
        CountMin::clone_cost_bytes(self)
    }

    fn copy_from(&mut self, src: &Self) {
        CountMin::copy_from(self, src);
    }

    fn merge_with_helper(&mut self, other: &Self, _helper: &mut MergeHelper) {
        CountMin::merge_from(self, other);
    }
}

impl<R> SnapshotSummary for ConservativeUpdate<R>
where
    R: Row + RowMerge + Clone + Send + 'static,
{
    fn ingest(&mut self, items: &[u64]) {
        ConservativeUpdate::update_batch(self, items);
    }

    fn clone_cost_bytes(&self) -> usize {
        ConservativeUpdate::clone_cost_bytes(self)
    }

    fn copy_from(&mut self, src: &Self) {
        ConservativeUpdate::copy_from(self, src);
    }

    fn merge_with_helper(&mut self, other: &Self, _helper: &mut MergeHelper) {
        ConservativeUpdate::merge_from(self, other);
    }
}

impl<S> SnapshotSummary for CountSketch<S>
where
    S: SignedRow + RowMerge + Clone + Send + 'static,
{
    fn ingest(&mut self, items: &[u64]) {
        CountSketch::update_batch(self, items);
    }

    fn clone_cost_bytes(&self) -> usize {
        CountSketch::clone_cost_bytes(self)
    }

    fn copy_from(&mut self, src: &Self) {
        CountSketch::copy_from(self, src);
    }

    fn merge_with_helper(&mut self, other: &Self, _helper: &mut MergeHelper) {
        CountSketch::merge_from(self, other);
    }
}

impl<R: Row> FrequencyQueries for CountMin<R> {
    fn estimate(&self, item: u64) -> i64 {
        FrequencyEstimator::estimate(self, item)
    }
}

impl<R: Row> FrequencyQueries for ConservativeUpdate<R> {
    fn estimate(&self, item: u64) -> i64 {
        FrequencyEstimator::estimate(self, item)
    }
}

impl<S: SignedRow> FrequencyQueries for CountSketch<S> {
    fn estimate(&self, item: u64) -> i64 {
        CountSketch::estimate(self, item)
    }
}

impl<R: Row> DistinctQueries for CountMin<R> {
    fn estimate_distinct(&self) -> Option<f64> {
        CountMin::estimate_distinct(self)
    }
}

impl<R: Row> DistinctQueries for ConservativeUpdate<R> {
    fn estimate_distinct(&self) -> Option<f64> {
        ConservativeUpdate::estimate_distinct(self)
    }
}

// ---------------------------------------------------------------------------
// Non-frequency summaries: the point of the redesign.
// ---------------------------------------------------------------------------

impl<S> SnapshotSummary for UnivMon<S>
where
    S: SignedRow + RowMerge + Clone + Send + 'static,
{
    fn ingest(&mut self, items: &[u64]) {
        UnivMon::batch_update(self, items);
    }

    fn clone_cost_bytes(&self) -> usize {
        UnivMon::clone_cost_bytes(self)
    }

    fn copy_from(&mut self, src: &Self) {
        UnivMon::copy_from(self, src);
    }

    fn merge_with_helper(&mut self, other: &Self, helper: &mut MergeHelper) {
        UnivMon::merge_with_helper(self, other, helper);
    }
}

impl<S: SignedRow> UniversalQueries for UnivMon<S> {
    fn entropy(&self) -> f64 {
        UnivMon::entropy(self)
    }

    fn fp_moment(&self, p: f64) -> f64 {
        UnivMon::fp_moment(self, p)
    }

    fn distinct(&self) -> f64 {
        UnivMon::distinct(self)
    }
}

impl<R> SnapshotSummary for DistinctCounter<R>
where
    R: Row + RowMerge + Clone + Send + 'static,
{
    fn ingest(&mut self, items: &[u64]) {
        DistinctCounter::batch_update(self, items);
    }

    fn clone_cost_bytes(&self) -> usize {
        DistinctCounter::clone_cost_bytes(self)
    }

    fn copy_from(&mut self, src: &Self) {
        DistinctCounter::copy_from(self, src);
    }

    fn merge_with_helper(&mut self, other: &Self, _helper: &mut MergeHelper) {
        DistinctCounter::merge_from(self, other);
    }
}

impl<R: Row> DistinctQueries for DistinctCounter<R> {
    fn estimate_distinct(&self) -> Option<f64> {
        DistinctCounter::estimate_distinct(self)
    }
}

// ---------------------------------------------------------------------------
// Tracked<S>: bolt an on-arrival heavy-hitter tracker onto any frequency
// summary.
// ---------------------------------------------------------------------------

/// A frequency summary with an on-arrival [`TopK`] tracker riding along.
///
/// Every ingested item's fresh estimate is offered to the tracker (the
/// Section III heavy-hitter loop), so each shard tracks the top `k` of *its*
/// sub-stream.  On merge the inner summaries combine counter-wise and the
/// tracker is rebuilt by re-estimating the union of both trackers' items
/// against the merged summary — so in an assembled snapshot every tracked
/// estimate equals the merged view's estimate for that item.  An item is
/// missing only if **no** shard ever tracked it; with by-key routing a
/// key's entire sub-stream lands on one shard, so any item that would enter
/// a single-threaded tracker of the same `k` is tracked by its home shard.
///
/// [`SnapshotView::top_k_tracked`](crate::SnapshotView::top_k_tracked)
/// exposes the merged tracker.
#[derive(Debug, Clone)]
pub struct Tracked<S> {
    inner: S,
    tracker: TopK,
}

impl<S> Tracked<S> {
    /// Wraps `inner`, tracking the `k` items with the largest estimates.
    pub fn new(inner: S, k: usize) -> Self {
        Self {
            inner,
            tracker: TopK::new(k),
        }
    }

    /// Borrows the wrapped summary.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Unwraps the summary, discarding the tracker.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S> SnapshotSummary for Tracked<S>
where
    S: SnapshotSummary + FrequencyQueries,
{
    fn ingest(&mut self, items: &[u64]) {
        self.inner.ingest(items);
        // Offer post-batch estimates; `TopK::offer` keeps the max per item,
        // so duplicates within the batch are harmless.
        for &item in items {
            let est = self.inner.estimate(item).max(0) as u64;
            self.tracker.offer(item, est);
        }
    }

    fn clone_cost_bytes(&self) -> usize {
        self.inner.clone_cost_bytes() + self.tracker.clone_cost_bytes()
    }

    fn copy_from(&mut self, src: &Self) {
        self.inner.copy_from(&src.inner);
        self.tracker.copy_from(&src.tracker);
    }

    fn merge_with_helper(&mut self, other: &Self, helper: &mut MergeHelper) {
        self.inner.merge_with_helper(&other.inner, helper);
        // Rebuild the tracker through the helper's pair buffer: union both
        // trackers' items (largest first), re-estimate each against the
        // merged summary, then re-offer the survivors.
        helper.pairs.clear();
        self.tracker.copy_items_into(&mut helper.pairs);
        other.tracker.copy_items_into(&mut helper.pairs);
        for pair in helper.pairs.iter_mut() {
            pair.1 = self.inner.estimate(pair.0).max(0) as u64;
        }
        self.tracker.clear();
        for &(item, est) in helper.pairs.iter() {
            if est > 0 {
                self.tracker.offer(item, est);
            }
        }
    }
}

impl<S: FrequencyQueries> FrequencyQueries for Tracked<S> {
    fn estimate(&self, item: u64) -> i64 {
        self.inner.estimate(item)
    }
}

impl<S: DistinctQueries> DistinctQueries for Tracked<S> {
    fn estimate_distinct(&self) -> Option<f64> {
        self.inner.estimate_distinct()
    }
}

impl<S> TrackedQueries for Tracked<S> {
    fn tracked(&self) -> &TopK {
        &self.tracker
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use salsa_core::prelude::MergeOp;

    fn summary_ingest<S: SnapshotSummary>(summary: &mut S, items: &[u64]) {
        summary.ingest(items);
    }

    #[test]
    fn tracked_ingest_tracks_heavy_hitters() {
        let mut tracked = Tracked::new(CountMin::baseline(4, 1 << 12, 32, 9), 4);
        let mut items = Vec::new();
        for item in 0..100u64 {
            for _ in 0..=item {
                items.push(item);
            }
        }
        summary_ingest(&mut tracked, &items);
        let tops: Vec<u64> = tracked.tracked().items().iter().map(|&(i, _)| i).collect();
        assert_eq!(tops, vec![99, 98, 97, 96]);
    }

    #[test]
    fn tracked_merge_rebuilds_against_merged_summary() {
        let make = || Tracked::new(CountMin::baseline(4, 1 << 12, 32, 9), 8);
        let mut whole = make();
        let mut left = make();
        let mut right = make();
        let mut items = Vec::new();
        for item in 0..50u64 {
            for _ in 0..=item {
                items.push(item);
            }
        }
        whole.ingest(&items);
        let (a, b) = items.split_at(items.len() / 2);
        left.ingest(a);
        right.ingest(b);
        left.merge_from(&right);
        // Rebuilt estimates reflect the *merged* summary, not the partials.
        for (item, est) in left.tracked().items() {
            assert_eq!(est, left.estimate(item) as u64);
        }
        assert!(left.tracked().contains(49));
        assert!(left.tracked().contains(48));
    }

    #[test]
    fn tracked_merge_with_helper_matches_merge_from() {
        let make = || Tracked::new(CountMin::baseline(4, 1 << 12, 32, 9), 8);
        let mut items = Vec::new();
        for item in 0..50u64 {
            for _ in 0..=item {
                items.push(item);
            }
        }
        let (a, b) = items.split_at(items.len() / 3);

        let mut plain = make();
        let mut plain_rhs = make();
        plain.ingest(a);
        plain_rhs.ingest(b);
        plain.merge_from(&plain_rhs);

        let mut helped = make();
        let mut helped_rhs = make();
        helped.ingest(a);
        helped_rhs.ingest(b);
        // A helper left dirty by an unrelated merge must not leak into the
        // next one.
        let mut helper = MergeHelper::new();
        let mut unrelated = make();
        unrelated.ingest(&[1_000, 1_001, 1_001]);
        unrelated.clone().merge_with_helper(&unrelated, &mut helper);
        helped.merge_with_helper(&helped_rhs, &mut helper);

        assert_eq!(plain.tracked().items(), helped.tracked().items());
        for item in 0..50u64 {
            assert_eq!(plain.estimate(item), helped.estimate(item));
        }
    }

    #[test]
    fn tracked_copy_from_refreshes_in_place() {
        let mut src = Tracked::new(CountMin::baseline(4, 1 << 12, 32, 9), 4);
        src.ingest(&[7, 7, 7, 3, 3, 1]);
        let mut dst = Tracked::new(CountMin::baseline(4, 1 << 12, 32, 9), 4);
        dst.ingest(&[100, 100, 200]);
        dst.copy_from(&src);
        assert_eq!(dst.estimate(7), src.estimate(7));
        assert_eq!(dst.tracked().items(), src.tracked().items());
    }

    #[test]
    fn distinct_counter_is_a_stream_summary_without_frequency_queries() {
        // Compile-time proof that the transport bound does not require
        // FrequencyQueries: DistinctCounter implements SnapshotSummary only.
        let mut counter = DistinctCounter::new(CountMin::salsa(4, 1 << 12, 8, MergeOp::Sum, 5));
        summary_ingest(&mut counter, &[1, 2, 3, 2, 1]);
        assert!(counter.estimate_distinct().is_some());
    }
}
