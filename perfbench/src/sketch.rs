//! The paper-class SALSA sketches every workload runs: about 512 KB per
//! shard, 8-bit base counters, sum-merge.

use salsa_core::prelude::*;
use salsa_pipeline::{FrequencyQueries, SnapshotSummary};
use salsa_sketches::prelude::{width_for_budget_bits, CountMin, CountSketch, RowHashers, SignHash};

/// Memory per shard sketch, encoding overhead included.
pub const SHARD_BUDGET_BYTES: usize = 512 * 1024;
/// SALSA base counter width.
pub const BASE_BITS: u32 = 8;
/// SALSA's merge bitmap costs one bit per base counter.
const ENCODING_BITS: f64 = 1.0;

/// SALSA Count-Min, depth 4 as in the paper.
pub type Cms = CountMin<SimpleSalsaRow>;
/// SALSA Count Sketch, depth 5 as in the paper.
pub type Cs = CountSketch<SimpleSalsaSignedRow>;

/// What the benchmark needs from a sketch beyond the pipeline contract.
pub trait BenchSketch: SnapshotSummary + FrequencyQueries + Send + Sync + 'static {
    /// Rows of the sketch.
    const DEPTH: usize;

    /// A fresh paper-class sketch.
    fn paper_class(seed: u64) -> Self;

    /// Base counters per row.
    fn width(&self) -> usize;

    /// Single-threaded batched update (`update_batch`).
    fn replay(&mut self, items: &[u64]);

    /// Counter merges performed by all rows so far.
    fn merge_events(&self) -> u64;

    /// Every base slot of every row has the same value and merge level in
    /// both sketches: the same counters, bit for bit.
    fn same_counters(&self, other: &Self) -> bool;

    /// One SALSA row of `width` fed the given row-0 buckets (and signs, for
    /// a signed row) through the row's batch path; returns its merge count.
    fn row_pass(width: usize, buckets: &[usize], signs: &[i64]) -> u64;
}

fn paper_width(depth: usize) -> usize {
    width_for_budget_bits(SHARD_BUDGET_BYTES, depth, BASE_BITS, ENCODING_BITS)
}

impl BenchSketch for Cms {
    const DEPTH: usize = 4;

    fn paper_class(seed: u64) -> Self {
        CountMin::salsa(
            Self::DEPTH,
            paper_width(Self::DEPTH),
            BASE_BITS,
            MergeOp::Sum,
            seed,
        )
    }

    fn width(&self) -> usize {
        CountMin::width(self)
    }

    fn replay(&mut self, items: &[u64]) {
        self.update_batch(items);
    }

    fn merge_events(&self) -> u64 {
        self.rows().iter().map(SalsaRow::merge_events).sum()
    }

    fn same_counters(&self, other: &Self) -> bool {
        self.rows().len() == other.rows().len()
            && self.rows().iter().zip(other.rows()).all(|(a, b)| {
                a.width() == b.width()
                    && (0..a.width())
                        .all(|i| a.read(i) == b.read(i) && a.level_of(i) == b.level_of(i))
            })
    }

    fn row_pass(width: usize, buckets: &[usize], _signs: &[i64]) -> u64 {
        let mut row = SimpleSalsaRow::new(width, BASE_BITS, MergeOp::Sum);
        row.add_unit_batch(buckets);
        row.merge_events()
    }
}

impl BenchSketch for Cs {
    const DEPTH: usize = 5;

    fn paper_class(seed: u64) -> Self {
        CountSketch::salsa(Self::DEPTH, paper_width(Self::DEPTH), BASE_BITS, seed)
    }

    fn width(&self) -> usize {
        CountSketch::width(self)
    }

    fn replay(&mut self, items: &[u64]) {
        self.update_batch(items);
    }

    fn merge_events(&self) -> u64 {
        self.rows().iter().map(SalsaSignedRow::merge_events).sum()
    }

    fn same_counters(&self, other: &Self) -> bool {
        self.rows().len() == other.rows().len()
            && self.rows().iter().zip(other.rows()).all(|(a, b)| {
                a.width() == b.width()
                    && (0..a.width())
                        .all(|i| a.read(i) == b.read(i) && a.level_of(i) == b.level_of(i))
            })
    }

    fn row_pass(width: usize, buckets: &[usize], signs: &[i64]) -> u64 {
        // Signed rows have no unit-batch path: a Count Sketch update adds ±1.
        let mut row = SimpleSalsaSignedRow::new(width, BASE_BITS);
        for (&bucket, &sign) in buckets.iter().zip(signs) {
            row.add(bucket, sign);
        }
        row.merge_events()
    }
}

/// Row-0 buckets and signs of `items` under the sketch's hash family.
pub fn row0_inputs<S: BenchSketch>(sketch: &S, seed: u64, items: &[u64]) -> (Vec<usize>, Vec<i64>) {
    let hashers = RowHashers::new(S::DEPTH, sketch.width(), seed);
    let signs = SignHash::new(S::DEPTH, seed);
    (
        items.iter().map(|&x| hashers.bucket(0, x)).collect(),
        items.iter().map(|&x| signs.sign(0, x)).collect(),
    )
}
