//! The simple SALSA merge encoding: one merge bit per base counter.
//!
//! Section IV of the paper: when the `s·2^ℓ`-bit counter occupying base
//! indices `⟨i·2^ℓ, …, (i+1)·2^ℓ − 1⟩` overflows and merges with its sibling,
//! SALSA records the merge by setting the bit at position
//! `block_start + 2^ℓ − 1` of the *new* (twice as large) block — i.e. the bit
//! just left of the new block's midpoint.  Decoding the size of the counter
//! that contains base index `j` therefore tests at most `ℓ_max` bits, walking
//! up one level at a time.
//!
//! This module stores those bits and implements the level decode.  The
//! invariant maintained by [`MergeBitmap::mark_merged`] is that a block
//! merged at level `ℓ` has the marker bits of **all** of its internal
//! sub-blocks set as well (this is exactly the bit pattern shown in Fig. 1 of
//! the paper, where the fully-merged 4-block ⟨4..7⟩ has bits 4, 5 and 6 set),
//! which makes the decode below correct for every index inside the block.

use crate::encoding::MergeEncoding;

/// One merge bit per base counter (≈1 bit/counter overhead, 12.5 % for
/// `s = 8`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeBitmap {
    words: Vec<u64>,
    len: usize,
}

impl MergeBitmap {
    /// Creates an all-zero bitmap over `len` base counters.
    pub fn new(len: usize) -> Self {
        Self {
            words: vec![0u64; len.div_ceil(64)],
            len,
        }
    }

    /// Number of base counters covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the bitmap covers zero counters.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns bit `idx`.
    #[inline(always)]
    pub fn get(&self, idx: usize) -> bool {
        debug_assert!(idx < self.len);
        (self.words[idx / 64] >> (idx % 64)) & 1 == 1
    }

    /// Sets bit `idx`.
    #[inline(always)]
    pub fn set(&mut self, idx: usize) {
        debug_assert!(idx < self.len);
        self.words[idx / 64] |= 1 << (idx % 64);
    }

    /// Clears bit `idx`.
    #[inline(always)]
    pub fn clear(&mut self, idx: usize) {
        debug_assert!(idx < self.len);
        self.words[idx / 64] &= !(1 << (idx % 64));
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Marker bit position that encodes "the level-`level` block containing
    /// `idx` is merged" (`level ≥ 1`).
    #[inline(always)]
    fn marker_position(idx: usize, level: u32) -> usize {
        let block_start = (idx >> level) << level;
        block_start + (1usize << (level - 1)) - 1
    }
}

/// Mask of the low `slots` bits (`slots ≤ 32`).
#[inline(always)]
fn slot_mask(slots: usize) -> u64 {
    (1u64 << slots) - 1
}

impl MergeEncoding for MergeBitmap {
    fn for_width(width: usize) -> Self {
        MergeBitmap::new(width)
    }

    #[inline(always)]
    fn level_of(&self, idx: usize, max_level: u32) -> u32 {
        let mut level = 0;
        while level < max_level && self.get(Self::marker_position(idx, level + 1)) {
            level += 1;
        }
        level
    }

    fn mark_merged(&mut self, idx: usize, level: u32) {
        // Mark every internal marker of the level-`level` block so that the
        // decode in `level_of` reaches `level` from any index in the block.
        let block_start = (idx >> level) << level;
        for l in 1..=level {
            let sub_size = 1usize << l;
            let mut start = block_start;
            while start < block_start + (1usize << level) {
                self.set(start + sub_size / 2 - 1);
                start += sub_size;
            }
        }
    }

    fn unmark_level(&mut self, idx: usize, level: u32) {
        debug_assert!(level >= 1);
        self.clear(Self::marker_position(idx, level));
    }

    #[inline(always)]
    fn word_markers(&self, first: usize, slots: usize) -> u32 {
        debug_assert!(slots <= 32 && first.is_multiple_of(slots));
        ((self.words[first / 64] >> (first % 64)) & slot_mask(slots)) as u32
    }

    #[inline(always)]
    fn set_word_markers(&mut self, first: usize, slots: usize, markers: u32) {
        debug_assert!(slots <= 32 && first.is_multiple_of(slots));
        let shift = first % 64;
        let word = &mut self.words[first / 64];
        *word = (*word & !(slot_mask(slots) << shift)) | (u64::from(markers) << shift);
    }

    fn overhead_bits(width: usize) -> usize {
        width
    }

    fn copy_from(&mut self, src: &Self) {
        assert_eq!(self.len, src.len, "bitmap lengths must match");
        self.words.copy_from_slice(&src.words);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::MergeEncoding;

    #[test]
    fn fresh_bitmap_is_all_level_zero() {
        let b = MergeBitmap::new(64);
        for i in 0..64 {
            assert_eq!(b.level_of(i, 3), 0);
        }
    }

    #[test]
    fn paper_figure_one_pattern() {
        // Reproduce Fig. 1: merging ⟨6,7⟩ sets bit 6; merging ⟨4..7⟩ sets
        // bits 4, 5, 6; merging ⟨0..7⟩ additionally sets bits 0,1,2,3.
        let mut b = MergeBitmap::new(16);
        b.mark_merged(6, 1);
        assert!(b.get(6));
        assert_eq!(b.level_of(6, 3), 1);
        assert_eq!(b.level_of(7, 3), 1);
        assert_eq!(b.level_of(5, 3), 0);

        b.mark_merged(6, 2);
        assert!(b.get(4) && b.get(5) && b.get(6));
        for i in 4..8 {
            assert_eq!(b.level_of(i, 3), 2);
        }
        assert_eq!(b.level_of(3, 3), 0);

        b.mark_merged(6, 3);
        for i in 0..8 {
            assert_eq!(b.level_of(i, 3), 3);
        }
        for i in 8..16 {
            assert_eq!(b.level_of(i, 3), 0);
        }
    }

    #[test]
    fn level_respects_max_level_cap() {
        let mut b = MergeBitmap::new(8);
        b.mark_merged(0, 3);
        assert_eq!(b.level_of(0, 2), 2);
        assert_eq!(b.level_of(0, 3), 3);
    }

    #[test]
    fn merging_left_block_does_not_affect_right_block() {
        let mut b = MergeBitmap::new(32);
        b.mark_merged(2, 1); // ⟨2,3⟩
        b.mark_merged(8, 2); // ⟨8..11⟩
        assert_eq!(b.level_of(2, 3), 1);
        assert_eq!(b.level_of(3, 3), 1);
        assert_eq!(b.level_of(0, 3), 0);
        assert_eq!(b.level_of(9, 3), 2);
        assert_eq!(b.level_of(12, 3), 0);
    }

    #[test]
    fn unmark_level_splits_a_block() {
        let mut b = MergeBitmap::new(8);
        b.mark_merged(0, 2); // ⟨0..3⟩ one counter
        assert_eq!(b.level_of(0, 3), 2);
        b.unmark_level(0, 2); // split back into ⟨0,1⟩ and ⟨2,3⟩
        assert_eq!(b.level_of(0, 3), 1);
        assert_eq!(b.level_of(2, 3), 1);
    }

    #[test]
    fn word_markers_are_a_bit_slice() {
        let mut b = MergeBitmap::new(128);
        b.mark_merged(70, 2); // ⟨68..71⟩ sets bits 68, 69, 70
        assert_eq!(b.word_markers(64, 8), 0b111_0000);
        assert_eq!(b.word_markers(72, 8), 0);
        b.set_word_markers(72, 8, 0b1);
        assert_eq!(b.level_of(73, 3), 1);
        b.set_word_markers(64, 8, 0);
        assert_eq!(b.level_of(69, 3), 0);
        assert_eq!(b.word_markers(72, 8), 0b1);
    }

    #[test]
    fn overhead_is_one_bit_per_counter() {
        assert_eq!(MergeBitmap::overhead_bits(1024), 1024);
    }

    #[test]
    fn count_ones_tracks_markers() {
        let mut b = MergeBitmap::new(16);
        assert_eq!(b.count_ones(), 0);
        b.mark_merged(0, 1);
        assert_eq!(b.count_ones(), 1);
        b.mark_merged(0, 2);
        assert_eq!(b.count_ones(), 3);
    }
}
