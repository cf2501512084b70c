//! SALSA counter rows: self-adjusting counters that merge on overflow.
//!
//! A [`SalsaRow`] starts with `width` counters of `s` bits each.  When a
//! counter cannot represent its new value it merges with its sibling into a
//! counter of twice the size (Section IV of the paper); merges continue up
//! to a configurable maximum counter size (64 bits by default).  The merged
//! value is either the sum or the maximum of the merged counters
//! ([`MergeOp`]), matching Theorems V.1–V.3.
//!
//! [`SalsaSignedRow`] is the sign-magnitude variant required by the Count
//! Sketch (Section V): keeping the representation sign-symmetric is what
//! makes the overflow event independent of the sign of the noise, so the
//! SALSA Count Sketch stays unbiased (Lemma V.4).

use crate::bitmap::MergeBitmap;
use crate::compact::LayoutCodes;
use crate::encoding::MergeEncoding;
use crate::storage::{signed_magnitude_capacity, unsigned_capacity, BitStorage};
use crate::traits::{MergeOp, Row, SignedRow};

/// A logical counter inside a SALSA row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counter {
    /// First base slot covered by the counter.
    pub start: usize,
    /// Level of the counter (it spans `2^level` base slots).
    pub level: u32,
    /// Current value.
    pub value: u64,
}

/// A SALSA row with the simple 1-bit-per-counter merge encoding.
pub type SimpleSalsaRow = SalsaRow<MergeBitmap>;

/// A SALSA row with the near-optimal (≤0.594 bits/counter) encoding.
pub type CompactSalsaRow = SalsaRow<LayoutCodes>;

/// A row of self-adjusting unsigned counters.
///
/// Generic over the merge encoding `E` (simple merge bits or the compact
/// layout code).  All counter widths are powers of two multiples of the base
/// width, and counters never exceed `max_bits` (64 by default), matching the
/// paper's implementation.
#[derive(Debug, Clone)]
pub struct SalsaRow<E: MergeEncoding = MergeBitmap> {
    pub(crate) storage: BitStorage,
    pub(crate) encoding: E,
    pub(crate) width: usize,
    pub(crate) base_bits: u32,
    pub(crate) max_level: u32,
    pub(crate) merge_op: MergeOp,
    pub(crate) merge_events: u64,
}

impl<E: MergeEncoding> SalsaRow<E> {
    /// Creates a row of `width` counters of `base_bits` bits each, merging
    /// with `merge_op`, with counters allowed to grow up to 64 bits.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not a power of two, or `base_bits` is not one of
    /// 2, 4, 8, 16, 32, 64.
    pub fn new(width: usize, base_bits: u32, merge_op: MergeOp) -> Self {
        Self::with_max_bits(width, base_bits, merge_op, 64)
    }

    /// Like [`SalsaRow::new`] but with an explicit maximum counter size in
    /// bits (a power of two ≥ `base_bits`, at most 64).
    pub fn with_max_bits(width: usize, base_bits: u32, merge_op: MergeOp, max_bits: u32) -> Self {
        assert!(width.is_power_of_two(), "row width must be a power of two");
        assert!(
            matches!(base_bits, 2 | 4 | 8 | 16 | 32 | 64),
            "base counter size must be one of 2, 4, 8, 16, 32, 64 bits"
        );
        assert!(
            max_bits.is_power_of_two() && max_bits >= base_bits && max_bits <= 64,
            "max counter size must be a power of two in [base_bits, 64]"
        );
        let max_level = (max_bits / base_bits).trailing_zeros();
        assert!(
            (1usize << max_level) <= width,
            "row too narrow to ever reach the maximum counter size"
        );
        Self {
            storage: BitStorage::new(width * base_bits as usize),
            encoding: E::for_width(width),
            width,
            base_bits,
            max_level,
            merge_op,
            merge_events: 0,
        }
    }

    /// The merge operation used on overflow.
    #[inline]
    pub fn merge_op(&self) -> MergeOp {
        self.merge_op
    }

    /// Base counter size in bits (`s`).
    #[inline]
    pub fn base_bits(&self) -> u32 {
        self.base_bits
    }

    /// Largest level a counter may reach.
    #[inline]
    pub fn max_level(&self) -> u32 {
        self.max_level
    }

    /// Number of merge events that have occurred so far.
    #[inline]
    pub fn merge_events(&self) -> u64 {
        self.merge_events
    }

    /// Level of the counter containing base slot `idx`.
    #[inline(always)]
    pub fn level_of(&self, idx: usize) -> u32 {
        self.encoding.level_of(idx, self.max_level)
    }

    /// Largest level currently present in the row.
    pub fn current_max_level(&self) -> u32 {
        let mut level = 0;
        let mut idx = 0;
        while idx < self.width {
            let l = self.level_of(idx);
            level = level.max(l);
            idx += 1 << l;
        }
        level
    }

    #[inline(always)]
    fn counter_bits(&self, level: u32) -> u32 {
        self.base_bits << level
    }

    #[inline(always)]
    fn counter_offset(&self, idx: usize, level: u32) -> usize {
        ((idx >> level) << level) * self.base_bits as usize
    }

    #[inline(always)]
    fn read_at_level(&self, idx: usize, level: u32) -> u64 {
        self.storage
            .read_aligned(self.counter_offset(idx, level), self.counter_bits(level))
    }

    #[inline(always)]
    fn write_at_level(&mut self, idx: usize, level: u32, value: u64) {
        self.storage.write_aligned(
            self.counter_offset(idx, level),
            self.counter_bits(level),
            value,
        );
    }

    /// Merges the counter containing `idx` with its sibling, producing a
    /// counter one level larger whose value combines every sub-counter in
    /// the enlarged block under the row's [`MergeOp`].
    ///
    /// Kept out of line: merges are rare next to additions, and inlined
    /// into `add` this loop makes every addition slower.
    #[inline(never)]
    fn merge_up(&mut self, idx: usize, level: u32) {
        let new_level = level + 1;
        debug_assert!(new_level <= self.max_level);
        let block_start = (idx >> new_level) << new_level;
        let block_len = 1usize << new_level;

        // Combine the values of every (possibly differently sized) counter
        // currently inside the enlarged block.
        let mut combined: Option<u64> = None;
        let mut i = block_start;
        while i < block_start + block_len {
            let l = self.level_of(i);
            let v = self.read_at_level(i, l);
            combined = Some(match combined {
                None => v,
                Some(acc) => self.merge_op.combine(acc, v),
            });
            i += 1usize << l;
        }
        let combined = combined.unwrap_or(0);

        self.encoding.mark_merged(idx, new_level);
        self.storage.clear_range(
            block_start * self.base_bits as usize,
            block_len * self.base_bits as usize,
        );
        self.write_at_level(idx, new_level, combined);
        self.merge_events += 1;
    }

    /// Iterates over the logical counters of the row.
    pub fn counters(&self) -> impl Iterator<Item = Counter> + '_ {
        let mut idx = 0usize;
        std::iter::from_fn(move || {
            if idx >= self.width {
                return None;
            }
            let level = self.level_of(idx);
            let value = self.read_at_level(idx, level);
            let c = Counter {
                start: idx,
                level,
                value,
            };
            idx += 1usize << level;
            Some(c)
        })
    }

    /// Applies `f` to the value of every logical counter (used by estimator
    /// downsampling, which halves counters probabilistically or
    /// deterministically).
    pub fn map_counters(&mut self, mut f: impl FnMut(u64) -> u64) {
        let mut idx = 0usize;
        while idx < self.width {
            let level = self.level_of(idx);
            let v = self.read_at_level(idx, level);
            let new = f(v);
            debug_assert!(new <= unsigned_capacity(self.counter_bits(level)));
            self.write_at_level(idx, level, new);
            idx += 1usize << level;
        }
    }

    /// Ensures the counter containing `idx` has at least the given level,
    /// merging as needed (used when combining two SALSA sketches that share
    /// hash functions: the union counter must be at least as large as it is
    /// in either operand).
    pub fn force_level_at_least(&mut self, idx: usize, level: u32) {
        let level = level.min(self.max_level);
        while self.level_of(idx) < level {
            let current = self.level_of(idx);
            self.merge_up(idx, current);
        }
    }

    /// Overwrites the counter containing `idx` with `value`, merging first if
    /// the value does not fit the counter's current width.
    pub fn set_value(&mut self, idx: usize, value: u64) {
        loop {
            let level = self.level_of(idx);
            let cap = unsigned_capacity(self.counter_bits(level));
            if value <= cap {
                self.write_at_level(idx, level, value);
                return;
            }
            if level == self.max_level {
                self.write_at_level(idx, level, cap);
                return;
            }
            self.merge_up(idx, level);
        }
    }

    /// Tries to split the counter containing `idx` into its two halves
    /// (Section V, "Should We Split Counters?").
    ///
    /// Splitting is only possible for merged counters whose current value
    /// fits into half the bits, and is only *correct* for max-merge rows
    /// (both halves receive the full value, preserving the over-estimate
    /// guarantee).  Returns `true` if a split happened.
    pub fn try_split(&mut self, idx: usize) -> bool {
        let level = self.level_of(idx);
        if level == 0 || self.merge_op != MergeOp::Max {
            return false;
        }
        let value = self.read_at_level(idx, level);
        let half_bits = self.counter_bits(level - 1);
        if value > unsigned_capacity(half_bits) {
            return false;
        }
        let block_start = (idx >> level) << level;
        let half_len = 1usize << (level - 1);
        self.encoding.unmark_level(idx, level);
        // Both halves keep the (max-merge) value.
        self.write_at_level(block_start, level - 1, value);
        self.write_at_level(block_start + half_len, level - 1, value);
        true
    }

    /// Splits every counter that can be split (see [`SalsaRow::try_split`]).
    /// Returns the number of splits performed.
    pub fn split_all(&mut self) -> usize {
        let mut splits = 0;
        let mut idx = 0usize;
        while idx < self.width {
            let level = self.level_of(idx);
            if self.try_split(idx) {
                splits += 1;
                // Re-examine the same block: it may split further.
                continue;
            }
            idx += 1usize << level;
        }
        splits
    }
}

impl<E: MergeEncoding> Row for SalsaRow<E> {
    #[inline]
    fn width(&self) -> usize {
        self.width
    }

    #[inline(always)]
    fn read(&self, idx: usize) -> u64 {
        let level = self.level_of(idx);
        self.read_at_level(idx, level)
    }

    fn add(&mut self, idx: usize, value: u64) {
        if value == 0 {
            return;
        }
        loop {
            let level = self.level_of(idx);
            let bits = self.counter_bits(level);
            let cur = self.read_at_level(idx, level);
            let cap = unsigned_capacity(bits);
            if value <= cap - cur.min(cap) {
                self.write_at_level(idx, level, cur + value);
                return;
            }
            if level == self.max_level {
                // The counting range is exhausted; saturate (with 64-bit
                // counters this never happens in practice).
                self.write_at_level(idx, level, cap);
                return;
            }
            self.merge_up(idx, level);
        }
    }

    fn raise_to(&mut self, idx: usize, target: u64) {
        loop {
            let level = self.level_of(idx);
            let bits = self.counter_bits(level);
            let cur = self.read_at_level(idx, level);
            if cur >= target {
                return;
            }
            let cap = unsigned_capacity(bits);
            if target <= cap {
                self.write_at_level(idx, level, target);
                return;
            }
            if level == self.max_level {
                self.write_at_level(idx, level, cap);
                return;
            }
            self.merge_up(idx, level);
        }
    }

    fn size_bytes(&self) -> usize {
        (self.width * self.base_bits as usize + E::overhead_bits(self.width)).div_ceil(8)
    }

    fn estimated_zero_base_slots(&self) -> f64 {
        // Paper heuristic: let f be the fraction of *unmerged* base counters
        // that are zero; each merged counter spanning 2^ℓ slots contributes
        // f · (2^ℓ − 1) presumed-zero sub-slots.
        let mut unmerged = 0usize;
        let mut unmerged_zero = 0usize;
        let mut merged_hidden_slots = 0usize;
        for c in self.counters() {
            if c.level == 0 {
                unmerged += 1;
                if c.value == 0 {
                    unmerged_zero += 1;
                }
            } else {
                merged_hidden_slots += (1usize << c.level) - 1;
            }
        }
        if unmerged == 0 {
            return 0.0;
        }
        let f = unmerged_zero as f64 / unmerged as f64;
        unmerged_zero as f64 + f * merged_hidden_slots as f64
    }

    fn copy_from(&mut self, src: &Self) {
        assert_eq!(self.width, src.width, "row widths must match");
        assert_eq!(self.base_bits, src.base_bits, "base widths must match");
        assert_eq!(self.max_level, src.max_level, "max levels must match");
        assert_eq!(self.merge_op, src.merge_op, "merge ops must match");
        self.storage.copy_from(&src.storage);
        self.encoding.copy_from(&src.encoding);
        self.merge_events = src.merge_events;
    }

    fn reset(&mut self) {
        self.storage.clear();
        self.encoding = E::for_width(self.width);
        self.merge_events = 0;
    }
}

/// A row of self-adjusting **signed** counters in sign-magnitude
/// representation, for the SALSA Count Sketch.
///
/// A counter of `b` bits stores a sign bit and a `b − 1`-bit magnitude, so it
/// overflows when its absolute value would exceed `2^(b−1) − 1`; the overflow
/// event is therefore symmetric in the sign of the value, which is what keeps
/// the SALSA Count Sketch unbiased (Lemma V.4).  Merging always sums the
/// signed values (max-merge is not meaningful for signed noise).
#[derive(Debug, Clone)]
pub struct SalsaSignedRow<E: MergeEncoding = MergeBitmap> {
    pub(crate) storage: BitStorage,
    pub(crate) encoding: E,
    pub(crate) width: usize,
    pub(crate) base_bits: u32,
    pub(crate) max_level: u32,
    pub(crate) merge_events: u64,
}

/// Sign-magnitude SALSA row with the simple encoding.
pub type SimpleSalsaSignedRow = SalsaSignedRow<MergeBitmap>;

/// Sign-magnitude SALSA row with the compact encoding.
pub type CompactSalsaSignedRow = SalsaSignedRow<LayoutCodes>;

/// Packs `value` into a `bits`-wide sign-magnitude field, without branches.
#[inline(always)]
pub(crate) fn encode_sign_magnitude(value: i64, bits: u32) -> u64 {
    // `value >> 63` is all ones for a negative value, zero otherwise.
    let negative = (value >> 63) as u64;
    let magnitude = (value as u64 ^ negative).wrapping_sub(negative);
    debug_assert!(magnitude <= signed_magnitude_capacity(bits));
    magnitude | ((negative & 1) << (bits - 1))
}

/// Unpacks a `bits`-wide sign-magnitude field, without branches.
#[inline(always)]
pub(crate) fn decode_sign_magnitude(raw: u64, bits: u32) -> i64 {
    let magnitude = (raw & signed_magnitude_capacity(bits)) as i64;
    // All ones when the sign bit is set: negate by flip-and-add-one.
    let negative = -(((raw >> (bits - 1)) & 1) as i64);
    (magnitude ^ negative) - negative
}

impl<E: MergeEncoding> SalsaSignedRow<E> {
    /// Creates a signed row of `width` counters of `base_bits` bits each,
    /// growing up to 64 bits.
    pub fn new(width: usize, base_bits: u32) -> Self {
        Self::with_max_bits(width, base_bits, 64)
    }

    /// Like [`SalsaSignedRow::new`] with an explicit maximum counter width.
    pub fn with_max_bits(width: usize, base_bits: u32, max_bits: u32) -> Self {
        assert!(width.is_power_of_two(), "row width must be a power of two");
        assert!(
            matches!(base_bits, 2 | 4 | 8 | 16 | 32 | 64),
            "base counter size must be one of 2, 4, 8, 16, 32, 64 bits"
        );
        assert!(
            max_bits.is_power_of_two() && max_bits >= base_bits && max_bits <= 64,
            "max counter size must be a power of two in [base_bits, 64]"
        );
        let max_level = (max_bits / base_bits).trailing_zeros();
        assert!((1usize << max_level) <= width);
        Self {
            storage: BitStorage::new(width * base_bits as usize),
            encoding: E::for_width(width),
            width,
            base_bits,
            max_level,
            merge_events: 0,
        }
    }

    /// Base counter size in bits (`s`).
    #[inline]
    pub fn base_bits(&self) -> u32 {
        self.base_bits
    }

    /// Number of merge events that have occurred so far.
    #[inline]
    pub fn merge_events(&self) -> u64 {
        self.merge_events
    }

    /// Level of the counter containing base slot `idx`.
    #[inline(always)]
    pub fn level_of(&self, idx: usize) -> u32 {
        self.encoding.level_of(idx, self.max_level)
    }

    #[inline(always)]
    fn counter_bits(&self, level: u32) -> u32 {
        self.base_bits << level
    }

    #[inline(always)]
    fn counter_offset(&self, idx: usize, level: u32) -> usize {
        ((idx >> level) << level) * self.base_bits as usize
    }

    #[inline(always)]
    fn read_at_level(&self, idx: usize, level: u32) -> i64 {
        let bits = self.counter_bits(level);
        decode_sign_magnitude(
            self.storage
                .read_aligned(self.counter_offset(idx, level), bits),
            bits,
        )
    }

    #[inline(always)]
    fn write_at_level(&mut self, idx: usize, level: u32, value: i64) {
        let bits = self.counter_bits(level);
        self.storage.write_aligned(
            self.counter_offset(idx, level),
            bits,
            encode_sign_magnitude(value, bits),
        );
    }

    /// Merges the counter containing `idx` with its sibling, summing the
    /// signed values; kept out of line like [`SalsaRow`]'s.
    #[inline(never)]
    fn merge_up(&mut self, idx: usize, level: u32) {
        let new_level = level + 1;
        debug_assert!(new_level <= self.max_level);
        let block_start = (idx >> new_level) << new_level;
        let block_len = 1usize << new_level;
        let mut sum: i64 = 0;
        let mut i = block_start;
        while i < block_start + block_len {
            let l = self.level_of(i);
            sum = sum.saturating_add(self.read_at_level(i, l));
            i += 1usize << l;
        }
        self.encoding.mark_merged(idx, new_level);
        self.storage.clear_range(
            block_start * self.base_bits as usize,
            block_len * self.base_bits as usize,
        );
        self.write_at_level(idx, new_level, sum);
        self.merge_events += 1;
    }

    /// Ensures the counter containing `idx` has at least the given level,
    /// merging as needed.
    pub fn force_level_at_least(&mut self, idx: usize, level: u32) {
        let level = level.min(self.max_level);
        while self.level_of(idx) < level {
            let current = self.level_of(idx);
            self.merge_up(idx, current);
        }
    }

    /// Overwrites the counter containing `idx` with `value`, merging first if
    /// the magnitude does not fit the counter's current width.
    pub fn set_value(&mut self, idx: usize, value: i64) {
        loop {
            let level = self.level_of(idx);
            let cap = signed_magnitude_capacity(self.counter_bits(level)) as i64;
            if value.unsigned_abs() <= cap as u64 {
                self.write_at_level(idx, level, value);
                return;
            }
            if level == self.max_level {
                self.write_at_level(idx, level, if value < 0 { -cap } else { cap });
                return;
            }
            self.merge_up(idx, level);
        }
    }

    /// Iterates over the logical counters of the row as `(start, level,
    /// signed value)` triples.
    pub fn counters(&self) -> impl Iterator<Item = (usize, u32, i64)> + '_ {
        let mut idx = 0usize;
        std::iter::from_fn(move || {
            if idx >= self.width {
                return None;
            }
            let level = self.level_of(idx);
            let value = self.read_at_level(idx, level);
            let out = (idx, level, value);
            idx += 1usize << level;
            Some(out)
        })
    }
}

impl<E: MergeEncoding> SignedRow for SalsaSignedRow<E> {
    #[inline]
    fn width(&self) -> usize {
        self.width
    }

    #[inline(always)]
    fn read(&self, idx: usize) -> i64 {
        let level = self.level_of(idx);
        self.read_at_level(idx, level)
    }

    fn add(&mut self, idx: usize, value: i64) {
        if value == 0 {
            return;
        }
        loop {
            let level = self.level_of(idx);
            let bits = self.counter_bits(level);
            let cur = self.read_at_level(idx, level);
            let new = cur.saturating_add(value);
            let cap = signed_magnitude_capacity(bits) as i64;
            if new.unsigned_abs() <= cap as u64 {
                self.write_at_level(idx, level, new);
                return;
            }
            if level == self.max_level {
                self.write_at_level(idx, level, if new < 0 { -cap } else { cap });
                return;
            }
            self.merge_up(idx, level);
        }
    }

    fn size_bytes(&self) -> usize {
        (self.width * self.base_bits as usize + E::overhead_bits(self.width)).div_ceil(8)
    }

    fn copy_from(&mut self, src: &Self) {
        assert_eq!(self.width, src.width, "row widths must match");
        assert_eq!(self.base_bits, src.base_bits, "base widths must match");
        assert_eq!(self.max_level, src.max_level, "max levels must match");
        self.storage.copy_from(&src.storage);
        self.encoding.copy_from(&src.encoding);
        self.merge_events = src.merge_events;
    }

    fn reset(&mut self) {
        self.storage.clear();
        self.encoding = E::for_width(self.width);
        self.merge_events = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple(width: usize, bits: u32, op: MergeOp) -> SimpleSalsaRow {
        SalsaRow::<MergeBitmap>::new(width, bits, op)
    }

    #[test]
    fn small_values_behave_like_plain_counters() {
        let mut row = simple(64, 8, MergeOp::Sum);
        for i in 0..64 {
            row.add(i, (i as u64) % 200);
        }
        for i in 0..64 {
            assert_eq!(row.read(i), (i as u64) % 200);
        }
        assert_eq!(row.merge_events(), 0);
    }

    #[test]
    fn overflow_triggers_sum_merge() {
        let mut row = simple(8, 8, MergeOp::Sum);
        row.add(6, 200);
        row.add(7, 100);
        // Counter 6 overflows (200 + 100 > 255) and right-merges with 7.
        row.add(6, 100);
        assert_eq!(row.level_of(6), 1);
        assert_eq!(row.level_of(7), 1);
        // Sum merge: 200 + 100 (from 7) + the new 100.
        assert_eq!(row.read(6), 400);
        assert_eq!(row.read(7), 400);
        assert_eq!(row.merge_events(), 1);
    }

    #[test]
    fn overflow_triggers_max_merge() {
        let mut row = simple(8, 8, MergeOp::Max);
        row.add(6, 200);
        row.add(7, 100);
        row.add(6, 100);
        // Max merge keeps max(200, 100) = 200, then adds the pending 100.
        assert_eq!(row.read(6), 300);
        assert_eq!(row.read(7), 300);
    }

    #[test]
    fn paper_figure_2a_sum_merge_example() {
        // Fig. 2a: values [0,255,3,0,65533(16b at 4..5),95,11], update ⟨y,5⟩
        // at slot 5 overflows ⟨4,5⟩ into ⟨4..7⟩ with sum 65533+95+11+5=65644?
        // The figure shows 65664 after adding 5 to the merged 65533+95+11 —
        // the exact printed constant in the figure includes the update and
        // its neighbors; we verify the mechanism rather than the figure's
        // arithmetic: after the merge all of ⟨4..7⟩ is one counter whose
        // value is the sum of the previous counters plus the update.
        let mut row = simple(8, 8, MergeOp::Sum);
        row.add(1, 255);
        row.add(2, 3);
        // Make ⟨4,5⟩ a 16-bit counter holding 65533.
        row.add(4, 255);
        row.add(4, 255); // overflow → merge ⟨4,5⟩
        assert_eq!(row.level_of(4), 1);
        row.raise_to(4, 65533);
        row.add(6, 95);
        row.add(7, 11);
        // ⟨x,3⟩ at slot 1: 255 + 3 overflows → ⟨0,1⟩ merges (sum 0 + 255 + 3).
        row.add(1, 3);
        assert_eq!(row.level_of(0), 1);
        assert_eq!(row.read(1), 258);
        // ⟨y,5⟩ at slot 5: 65533 + 5 overflows the 16-bit counter → ⟨4..7⟩.
        row.add(5, 5);
        assert_eq!(row.level_of(5), 2);
        assert_eq!(row.read(5), 65533 + 95 + 11 + 5);
        assert_eq!(row.read(4), row.read(7));
    }

    #[test]
    fn paper_figure_2b_max_merge_example() {
        let mut row = simple(8, 8, MergeOp::Max);
        row.add(4, 255);
        row.add(4, 255);
        row.raise_to(4, 65533);
        row.add(6, 95);
        row.add(7, 11);
        row.add(5, 5);
        // Max merge: max(65533, 95, 11) + 5 = 65538 (as in Fig. 2b).
        assert_eq!(row.read(5), 65538);
        assert_eq!(row.level_of(5), 2);
    }

    #[test]
    fn counters_grow_to_sixty_four_bits() {
        let mut row = simple(8, 8, MergeOp::Sum);
        // Push one counter past every threshold.
        row.add(0, u32::MAX as u64);
        assert!(row.level_of(0) >= 2);
        row.add(0, u32::MAX as u64);
        row.add(0, u64::MAX / 4);
        assert_eq!(row.level_of(0), 3);
        assert!(row.read(0) > u64::MAX / 4);
    }

    #[test]
    fn saturates_at_max_level() {
        let mut row = SalsaRow::<MergeBitmap>::with_max_bits(8, 8, MergeOp::Sum, 16);
        row.add(0, 60_000);
        row.add(0, 10_000);
        // 16-bit cap: saturate rather than merge beyond max_bits.
        assert_eq!(row.read(0), u16::MAX as u64);
        assert_eq!(row.level_of(0), 1);
    }

    #[test]
    fn raise_to_only_increases() {
        let mut row = simple(16, 8, MergeOp::Max);
        row.raise_to(3, 100);
        assert_eq!(row.read(3), 100);
        row.raise_to(3, 50);
        assert_eq!(row.read(3), 100);
        row.raise_to(3, 300);
        assert_eq!(row.read(3), 300);
        assert_eq!(row.level_of(3), 1);
    }

    #[test]
    fn read_of_any_slot_in_merged_block_agrees() {
        let mut row = simple(16, 8, MergeOp::Sum);
        row.add(9, 300); // merges ⟨8,9⟩
        for i in 8..10 {
            assert_eq!(row.read(i), 300);
        }
        row.add(9, 70_000); // merges ⟨8..11⟩
        for i in 8..12 {
            assert_eq!(row.read(i), 70_300);
        }
    }

    #[test]
    fn size_accounting_includes_overhead() {
        let row = simple(1024, 8, MergeOp::Max);
        // 1024 counters × 8 bits + 1024 merge bits = 1024 + 128 bytes.
        assert_eq!(row.size_bytes(), 1024 + 128);
        let compact = SalsaRow::<LayoutCodes>::new(1024, 8, MergeOp::Max);
        assert_eq!(
            compact.size_bytes(),
            1024 + (1024usize / 32 * 19).div_ceil(8)
        );
        assert!(compact.size_bytes() < row.size_bytes());
    }

    #[test]
    fn compact_and_simple_rows_agree() {
        let mut simple_row = SalsaRow::<MergeBitmap>::new(64, 8, MergeOp::Sum);
        let mut compact_row = SalsaRow::<LayoutCodes>::new(64, 8, MergeOp::Sum);
        // A deterministic pseudo-random update sequence with many overflows.
        let mut state = 0x12345678u64;
        for _ in 0..5_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let idx = (state >> 33) as usize % 64;
            let val = (state >> 17) & 0xFF;
            simple_row.add(idx, val);
            compact_row.add(idx, val);
        }
        for i in 0..64 {
            assert_eq!(simple_row.read(i), compact_row.read(i), "slot {i}");
            assert_eq!(simple_row.level_of(i), compact_row.level_of(i), "slot {i}");
        }
    }

    #[test]
    fn map_counters_halves_values() {
        let mut row = simple(16, 8, MergeOp::Max);
        row.add(0, 200);
        row.add(5, 77);
        row.add(9, 1000);
        row.map_counters(|v| v / 2);
        assert_eq!(row.read(0), 100);
        assert_eq!(row.read(5), 38);
        assert_eq!(row.read(9), 500);
    }

    #[test]
    fn split_restores_small_counters() {
        let mut row = simple(16, 8, MergeOp::Max);
        row.add(4, 300); // merged to 16 bits
        assert_eq!(row.level_of(4), 1);
        // Value too large to split back into 8 bits.
        assert!(!row.try_split(4));
        row.map_counters(|v| v / 4); // now 75, fits in 8 bits
        assert!(row.try_split(4));
        assert_eq!(row.level_of(4), 0);
        assert_eq!(row.read(4), 75);
        assert_eq!(row.read(5), 75);
    }

    #[test]
    fn split_is_rejected_for_sum_merge() {
        let mut row = simple(16, 8, MergeOp::Sum);
        row.add(4, 300);
        row.map_counters(|v| v / 4);
        assert!(
            !row.try_split(4),
            "splitting is only sound for max-merge rows"
        );
    }

    #[test]
    fn zero_slot_estimate_exact_when_unmerged() {
        let mut row = simple(64, 8, MergeOp::Max);
        for i in 0..32 {
            row.add(i, 1);
        }
        assert!((row.estimated_zero_base_slots() - 32.0).abs() < 1e-9);
    }

    #[test]
    fn zero_slot_estimate_uses_heuristic_for_merged() {
        let mut row = simple(64, 8, MergeOp::Max);
        // Merge one pair; leave half of the unmerged slots zero.
        row.add(0, 300); // ⟨0,1⟩ merged
        for i in 2..33 {
            row.add(i, 1);
        }
        // 62 unmerged slots, 31 zero → f = 0.5; one merged counter hides 1
        // sub-slot → estimate 31 + 0.5.
        assert!((row.estimated_zero_base_slots() - 31.5).abs() < 1e-9);
    }

    #[test]
    fn reset_clears_everything() {
        let mut row = simple(32, 8, MergeOp::Sum);
        row.add(3, 1_000_000);
        row.reset();
        for i in 0..32 {
            assert_eq!(row.read(i), 0);
            assert_eq!(row.level_of(i), 0);
        }
        assert_eq!(row.merge_events(), 0);
    }

    // ---- signed rows -------------------------------------------------

    #[test]
    fn signed_row_basic_roundtrip() {
        let mut row = SimpleSalsaSignedRow::new(16, 8);
        row.add(0, 100);
        row.add(1, -100);
        assert_eq!(row.read(0), 100);
        assert_eq!(row.read(1), -100);
    }

    #[test]
    fn signed_overflow_is_symmetric() {
        let mut pos = SimpleSalsaSignedRow::new(8, 8);
        let mut neg = SimpleSalsaSignedRow::new(8, 8);
        pos.add(2, 100);
        pos.add(2, 100); // |200| > 127 → merge
        neg.add(2, -100);
        neg.add(2, -100);
        assert_eq!(pos.level_of(2), neg.level_of(2));
        assert_eq!(pos.read(2), 200);
        assert_eq!(neg.read(2), -200);
    }

    #[test]
    fn signed_merge_sums_mixed_signs() {
        let mut row = SimpleSalsaSignedRow::new(8, 8);
        row.add(2, 120);
        row.add(3, -50);
        row.add(2, 50); // overflow of slot 2 → merge ⟨2,3⟩ sums 170 - 50
        assert_eq!(row.level_of(2), 1);
        assert_eq!(row.read(2), 120 + 50 - 50);
        assert_eq!(row.read(3), row.read(2));
    }

    #[test]
    fn signed_row_counts_down_to_negative() {
        let mut row = SimpleSalsaSignedRow::new(8, 8);
        for _ in 0..300 {
            row.add(5, -1);
        }
        assert_eq!(row.read(5), -300);
        assert!(row.level_of(5) >= 1);
    }

    #[test]
    fn sign_magnitude_encoding_roundtrip() {
        // Every 8-bit field: each value round-trips, and so does every raw
        // pattern except negative zero, which no write ever produces.
        let cap8 = signed_magnitude_capacity(8) as i64;
        for v in -cap8..=cap8 {
            let raw = encode_sign_magnitude(v, 8);
            assert!(raw <= 0xFF, "{v} spills out of its field");
            assert_eq!(decode_sign_magnitude(raw, 8), v);
        }
        for raw in (0u64..=0xFF).filter(|&raw| raw != 0x80) {
            assert_eq!(encode_sign_magnitude(decode_sign_magnitude(raw, 8), 8), raw);
        }
        assert_eq!(decode_sign_magnitude(0x80, 8), 0);
        for bits in [16u32, 32, 64] {
            let cap = signed_magnitude_capacity(bits) as i64;
            for v in [0i64, 1, -1, 17, -17, cap - 1, 1 - cap, cap, -cap] {
                assert_eq!(
                    decode_sign_magnitude(encode_sign_magnitude(v, bits), bits),
                    v
                );
            }
            assert_eq!(encode_sign_magnitude(-cap, bits), u64::MAX >> (64 - bits));
        }
    }

    #[test]
    fn signed_size_accounting() {
        let row = SimpleSalsaSignedRow::new(512, 8);
        assert_eq!(row.size_bytes(), 512 + 64);
    }
}
