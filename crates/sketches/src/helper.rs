//! Reusable scratch space for allocation-free sketch merges.
//!
//! Merging two sketches is the hot primitive of the sharded pipeline: every
//! snapshot folds one sketch per shard into a global view.  Counter-wise row
//! merges are already allocation-free, but composite sketches (UnivMon's
//! per-level heavy-hitter heaps, `Tracked` summaries) need scratch space to
//! rebuild their auxiliary state.  [`MergeHelper`] owns that scratch: create
//! it once per handle, thread it through `merge_with_helper`, and steady-state
//! merges reuse the same buffers instead of allocating per merge.

/// Scratch buffers reused across `merge_with_helper` calls.
///
/// The buffers grow to a high-water mark on the first few merges and are
/// reused (cleared, not freed) afterwards, so a warm helper makes every
/// subsequent merge allocation-free.
#[derive(Debug, Default)]
pub struct MergeHelper {
    /// Scratch `(item, estimate)` pairs used when rebuilding heavy-hitter
    /// heaps during a merge.
    pub pairs: Vec<(u64, u64)>,
}

impl MergeHelper {
    /// Creates an empty helper; its buffers grow on first use and are
    /// retained across merges.
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helper_retains_capacity_across_uses() {
        let mut helper = MergeHelper::new();
        helper.pairs.extend((0..100).map(|i| (i, i)));
        let cap = helper.pairs.capacity();
        helper.pairs.clear();
        assert_eq!(helper.pairs.capacity(), cap);
        helper.pairs.extend((0..100).map(|i| (i, i)));
        assert_eq!(helper.pairs.capacity(), cap);
    }
}
