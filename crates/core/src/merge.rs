//! Counter-wise combination of rows: sketch union and difference.
//!
//! Section V of the paper ("Merging and Subtracting SALSA Sketches"):
//! sketches built with the *same* hash functions can be summed counter-wise
//! to obtain a sketch of the union stream `A ∪ B`, or subtracted to obtain a
//! sketch of the frequency difference `A \ B` (used by change detection).
//! For SALSA rows, every counter of the combined row is at least as large as
//! in either operand, and combining may itself trigger further merges when
//! the summed value overflows.

use crate::backend::{field_mask, signed_magnitude_capacity, unsigned_capacity};
use crate::encoding::MergeEncoding;
use crate::fixed::{FixedRow, FixedSignedRow};
use crate::row::{decode_sign_magnitude, encode_sign_magnitude, SalsaRow, SalsaSignedRow};
use crate::traits::{MergeOp, Row, SignedRow};

/// Rows that can be combined counter-wise with another row of the same shape.
///
/// Both operands must have the same width and have been fed through the same
/// hash functions; the sketch types in `salsa-sketches` enforce this.
pub trait RowMerge {
    /// `self := self + other` (stream union).
    fn absorb(&mut self, other: &Self);

    /// `self := self - other` (stream difference).
    ///
    /// For unsigned rows this is only meaningful in the Strict Turnstile
    /// model with `B ⊆ A` (the result saturates at zero); signed rows
    /// support general differences.
    fn subtract(&mut self, other: &Self);
}

impl RowMerge for FixedRow {
    fn absorb(&mut self, other: &Self) {
        assert_eq!(self.width(), other.width(), "row widths must match");
        for idx in 0..self.width() {
            self.add(idx, other.read(idx));
        }
    }

    fn subtract(&mut self, other: &Self) {
        assert_eq!(self.width(), other.width(), "row widths must match");
        for idx in 0..self.width() {
            let new = self.read(idx).saturating_sub(other.read(idx));
            self.set_slot(idx, new);
        }
    }
}

impl RowMerge for FixedSignedRow {
    fn absorb(&mut self, other: &Self) {
        assert_eq!(self.width(), other.width(), "row widths must match");
        for idx in 0..self.width() {
            self.add(idx, other.read(idx));
        }
    }

    fn subtract(&mut self, other: &Self) {
        assert_eq!(self.width(), other.width(), "row widths must match");
        for idx in 0..self.width() {
            self.add(idx, -other.read(idx));
        }
    }
}

impl<E: MergeEncoding> RowMerge for SalsaRow<E> {
    fn absorb(&mut self, other: &Self) {
        merge_unsigned(self, other, false);
    }

    fn subtract(&mut self, other: &Self) {
        merge_unsigned(self, other, true);
    }
}

impl<E: MergeEncoding> RowMerge for SalsaSignedRow<E> {
    fn absorb(&mut self, other: &Self) {
        merge_signed(self, other, false);
    }

    fn subtract(&mut self, other: &Self) {
        merge_signed(self, other, true);
    }
}

fn check_shapes(width: (usize, usize), base_bits: (u32, u32)) {
    assert_eq!(width.0, width.1, "row widths must match");
    assert_eq!(base_bits.0, base_bits.1, "base widths must match");
}

fn merge_unsigned<E: MergeEncoding>(dst: &mut SalsaRow<E>, src: &SalsaRow<E>, subtract: bool) {
    check_shapes((dst.width, src.width), (dst.base_bits, src.base_bits));
    let math = Unsigned {
        op: dst.merge_op,
        subtract,
    };
    dst.merge_events += merge_words(
        (dst.storage.words_mut(), &mut dst.encoding),
        (src.storage.words(), &src.encoding),
        dst.base_bits,
        dst.max_level,
        math,
    );
}

fn merge_signed<E: MergeEncoding>(
    dst: &mut SalsaSignedRow<E>,
    src: &SalsaSignedRow<E>,
    subtract: bool,
) {
    check_shapes((dst.width, src.width), (dst.base_bits, src.base_bits));
    let math = Signed { subtract };
    dst.merge_events += merge_words(
        (dst.storage.words_mut(), &mut dst.encoding),
        (src.storage.words(), &src.encoding),
        dst.base_bits,
        dst.max_level,
        math,
    );
}

// ---- the word-local merge kernel ---------------------------------------
//
// The row merge is, by definition, the per-counter sequence: for every
// counter of `other` in slot order, force `self`'s counter at its start to
// at least its level, then add (or subtract) its value, merging further on
// overflow.  Every SALSA counter, and every block a merge creates, is a
// power-of-two multiple of the base width, aligned to its own size and at
// most 64 bits wide, so it lies inside one `u64` storage word.  The
// sequence therefore splits into independent per-word problems, and the
// kernel below runs it one word at a time on register-local state: the
// word's value bits plus its merge markers in the simple encoding's form
// (see `crate::bitmap`).  The result — values, levels and `merge_events` —
// is the same as running the sequence counter by counter.

/// Counter arithmetic of one row kind: what the kernel needs to know about
/// a field's bits and about combining values.
trait CounterMath: Copy {
    type Value: Copy;
    const ZERO: Self::Value;
    /// Sign-magnitude fields (the lane path works in two's complement).
    const SIGNED: bool;

    fn decode(raw: u64, bits: u32) -> Self::Value;
    fn encode(value: Self::Value, bits: u32) -> u64;
    /// `merge_up`'s combination of two neighbouring counters.
    fn combine(self, acc: Self::Value, value: Self::Value) -> Self::Value;
    /// One of `other`'s counters applied to `self`'s, before the fit check.
    fn apply(self, cur: Self::Value, value: Self::Value) -> Self::Value;
    fn fits(value: Self::Value, bits: u32) -> bool;
    /// The value written when even a maximum-size counter cannot hold it.
    fn saturate(value: Self::Value, bits: u32) -> Self::Value;
    /// Whether the merge adds `other`'s counters and `merge_up` sums, the
    /// case the lane path computes.
    fn sums(self) -> bool;
}

/// Unsigned rows: merges combine with the row's [`MergeOp`].
#[derive(Clone, Copy)]
struct Unsigned {
    op: MergeOp,
    subtract: bool,
}

impl CounterMath for Unsigned {
    type Value = u64;
    const ZERO: u64 = 0;
    const SIGNED: bool = false;

    #[inline(always)]
    fn decode(raw: u64, _bits: u32) -> u64 {
        raw
    }

    #[inline(always)]
    fn encode(value: u64, _bits: u32) -> u64 {
        value
    }

    #[inline(always)]
    fn combine(self, acc: u64, value: u64) -> u64 {
        self.op.combine(acc, value)
    }

    #[inline(always)]
    fn apply(self, cur: u64, value: u64) -> u64 {
        // Subtraction saturates at zero (Strict Turnstile), so it never
        // overflows a counter.
        if self.subtract {
            cur.saturating_sub(value)
        } else {
            cur.saturating_add(value)
        }
    }

    #[inline(always)]
    fn fits(value: u64, bits: u32) -> bool {
        value <= unsigned_capacity(bits)
    }

    #[inline(always)]
    fn saturate(_value: u64, bits: u32) -> u64 {
        unsigned_capacity(bits)
    }

    fn sums(self) -> bool {
        !self.subtract && self.op == MergeOp::Sum
    }
}

/// Sign-magnitude rows: merges sum the signed values.
#[derive(Clone, Copy)]
struct Signed {
    subtract: bool,
}

impl CounterMath for Signed {
    type Value = i64;
    const ZERO: i64 = 0;
    const SIGNED: bool = true;

    #[inline(always)]
    fn decode(raw: u64, bits: u32) -> i64 {
        decode_sign_magnitude(raw, bits)
    }

    #[inline(always)]
    fn encode(value: i64, bits: u32) -> u64 {
        encode_sign_magnitude(value, bits)
    }

    #[inline(always)]
    fn combine(self, acc: i64, value: i64) -> i64 {
        acc.saturating_add(value)
    }

    #[inline(always)]
    fn apply(self, cur: i64, value: i64) -> i64 {
        cur.saturating_add(if self.subtract { -value } else { value })
    }

    #[inline(always)]
    fn fits(value: i64, bits: u32) -> bool {
        value.unsigned_abs() <= signed_magnitude_capacity(bits)
    }

    #[inline(always)]
    fn saturate(value: i64, bits: u32) -> i64 {
        let cap = signed_magnitude_capacity(bits) as i64;
        if value < 0 {
            -cap
        } else {
            cap
        }
    }

    fn sums(self) -> bool {
        !self.subtract
    }
}

/// A word cut into equal-width lanes: the top bit of every lane, and the
/// distance from a lane's top bit down to its lowest.
#[derive(Clone, Copy)]
struct Lanes {
    top: u64,
    shift: u32,
}

impl Lanes {
    fn of_width(bits: u32) -> Self {
        let top = (0..64 / bits).fold(0u64, |top, lane| top | 1 << (lane * bits + bits - 1));
        Self {
            top,
            shift: bits - 1,
        }
    }

    /// Lane-wise `x + y`, wrapping inside each lane.
    #[inline(always)]
    fn add(self, x: u64, y: u64) -> u64 {
        ((x & !self.top) + (y & !self.top)) ^ ((x ^ y) & self.top)
    }

    /// Every bit of the lanes whose top bit is set in `tops`.
    #[inline(always)]
    fn fill(self, tops: u64) -> u64 {
        tops | (tops - (tops >> self.shift))
    }

    /// Sign-magnitude lanes to two's complement: a negative lane's
    /// magnitude is complemented (sign bit included) and incremented.
    #[inline(always)]
    fn to_twos(self, x: u64) -> u64 {
        let negative = x & self.top;
        self.add(
            (x & !self.top) ^ self.fill(negative),
            negative >> self.shift,
        )
    }

    /// Two's complement lanes back to sign-magnitude (no lane may hold the
    /// most negative value, which sign-magnitude cannot represent).
    #[inline(always)]
    fn to_sign_magnitude(self, x: u64) -> u64 {
        let negative = x & self.top;
        self.add(x ^ self.fill(negative), negative >> self.shift) | negative
    }

    /// Tops of the lanes where `sum = x + y` overflowed: two's complement
    /// overflow plus the most negative value for signed lanes, a carry out
    /// of the lane for unsigned ones.
    #[inline(always)]
    fn overflow<M: CounterMath>(self, x: u64, y: u64, sum: u64) -> u64 {
        if M::SIGNED {
            let low_nonzero = ((sum & !self.top) + !self.top) & self.top;
            ((x ^ sum) & (y ^ sum) | (sum & !low_nonzero)) & self.top
        } else {
            let carry_in = sum ^ x ^ y;
            ((x & y) | ((x ^ y) & carry_in)) & self.top
        }
    }
}

/// Moves bit `i` of a slot bitmap to bit `i · base_bits` and back, by
/// halving the distance each step (at most five steps for 32 slots).
#[derive(Clone, Copy)]
struct Spread {
    /// `(shift, mask after the step)`, in the order `spread` applies them.
    steps: [(u32, u64); 5],
    len: usize,
    slots: u64,
}

impl Spread {
    fn new(slots: u32, base_bits: u32) -> Self {
        let mut positions = [0u64; 32];
        for (i, p) in positions.iter_mut().enumerate() {
            *p = i as u64;
        }
        let positions = &mut positions[..slots as usize];
        let mut steps = [(0, 0); 5];
        let len = slots.trailing_zeros() as usize;
        for (k, t) in (0..len as u32).rev().enumerate() {
            let shift = (1 << t) * (base_bits - 1);
            for (i, p) in positions.iter_mut().enumerate() {
                if (i >> t) & 1 == 1 {
                    *p += u64::from(shift);
                }
            }
            steps[k] = (shift, positions.iter().fold(0, |m, &p| m | 1 << p));
        }
        Self {
            steps,
            len,
            slots: (1u64 << slots) - 1,
        }
    }

    #[inline(always)]
    fn spread(&self, x: u64) -> u64 {
        self.steps[..self.len]
            .iter()
            .fold(x, |x, &(shift, mask)| (x | (x << shift)) & mask)
    }

    #[inline(always)]
    fn compress(&self, x: u64) -> u64 {
        (0..self.len).rev().fold(x, |x, k| {
            let before = if k == 0 {
                self.slots
            } else {
                self.steps[k - 1].1
            };
            (x | (x >> self.steps[k].0)) & before
        })
    }
}

/// Counter starts of a word's layout: slot `i` starts a counter unless the
/// marker at position `i − 1` (the block whose midpoint is `i`) is set.
#[inline(always)]
fn starts(markers: u32, slots: u32) -> u64 {
    !(u64::from(markers) << 1) & ((1u64 << slots) - 1)
}

/// The counters `(start, length in slots)` of a starts bitmap, where the
/// last one ends at `end`.
#[derive(Clone, Copy)]
struct Fields {
    starts: u64,
    end: u32,
}

impl Iterator for Fields {
    type Item = (u32, u32);

    #[inline(always)]
    fn next(&mut self) -> Option<(u32, u32)> {
        if self.starts == 0 {
            return None;
        }
        let start = self.starts.trailing_zeros();
        self.starts &= self.starts - 1;
        let next = if self.starts == 0 {
            self.end
        } else {
            self.starts.trailing_zeros()
        };
        Some((start, next - start))
    }
}

/// Runs the kernel for a row of `base_bits`-bit base counters; returns the
/// merges performed.
fn merge_words<M: CounterMath, E: MergeEncoding>(
    dst: (&mut [u64], &mut E),
    src: (&[u64], &E),
    base_bits: u32,
    max_level: u32,
    math: M,
) -> u64 {
    // One instance per word shape, so that slot counts and shifts are
    // constants.
    match base_bits {
        2 => WordKernel::<M, 32>::new(max_level, math).run(dst, src),
        4 => WordKernel::<M, 16>::new(max_level, math).run(dst, src),
        8 => WordKernel::<M, 8>::new(max_level, math).run(dst, src),
        16 => WordKernel::<M, 4>::new(max_level, math).run(dst, src),
        32 => WordKernel::<M, 2>::new(max_level, math).run(dst, src),
        _ => WordKernel::<M, 1>::new(max_level, math).run(dst, src),
    }
}

/// The masks of the lane path, which covers words whose counters are base
/// counters or merged pairs (levels 0 and 1).
struct PairLanes {
    /// Base-counter lanes and pair lanes.
    base: Lanes,
    pair: Lanes,
    /// The low half of every pair lane.
    low_halves: u64,
    /// All ones over one pair lane, from its lowest bit.
    pair_ones: u64,
    /// Marker positions of pairs, when pairs may form at all.
    pair_markers: u32,
    spread: Spread,
}

/// The merge kernel for words of `SLOTS` base counters.  A row narrower
/// than one word leaves the slots past its width zero and unmerged, which
/// the merge keeps as they are.
struct WordKernel<M, const SLOTS: u32> {
    math: M,
    max_level: u32,
    /// `None` when the lane path does not apply to this merge.
    lanes: Option<PairLanes>,
}

impl<M: CounterMath, const SLOTS: u32> WordKernel<M, SLOTS> {
    const BASE_BITS: u32 = 64 / SLOTS;

    fn new(max_level: u32, math: M) -> Self {
        debug_assert!((1u32 << max_level) <= SLOTS, "counters fit one word");
        let lanes = (math.sums() && SLOTS >= 2).then(|| {
            let base = Lanes::of_width(Self::BASE_BITS);
            let pair = Lanes::of_width(2 * Self::BASE_BITS);
            let pair_markers = if max_level >= 1 {
                (0..SLOTS).step_by(2).fold(0u32, |m, p| m | 1 << p)
            } else {
                0
            };
            PairLanes {
                base,
                pair,
                low_halves: base.fill(base.top & !pair.top),
                pair_ones: field_mask(2 * Self::BASE_BITS),
                pair_markers,
                spread: Spread::new(SLOTS, Self::BASE_BITS),
            }
        });
        Self {
            math,
            max_level,
            lanes,
        }
    }

    fn run<E: MergeEncoding>(&self, dst: (&mut [u64], &mut E), src: (&[u64], &E)) -> u64 {
        let (dst_words, dst_enc) = dst;
        let (src_words, src_enc) = src;
        let slots = SLOTS as usize;
        let mut merges = 0;
        // The replay's counter values, by start slot; it only reads the
        // slots it has written for the current word.
        let mut values = [M::ZERO; 32];
        for (w, (a, &b)) in dst_words.iter_mut().zip(src_words).enumerate() {
            let first = w * slots;
            let mb = src_enc.word_markers(first, slots);
            if b == 0 && mb == 0 {
                // Only zero, unmerged counters: the sequence skips them all.
                continue;
            }
            let ma = dst_enc.word_markers(first, slots);
            let (word, markers, word_merges) = self
                .lanes
                .as_ref()
                .and_then(|lanes| self.pairs(lanes, (*a, ma), (b, mb)))
                .unwrap_or_else(|| self.replay(&mut values, (*a, ma), (b, mb)));
            *a = word;
            if markers != ma {
                dst_enc.set_word_markers(first, slots, markers);
            }
            merges += word_merges;
        }
        merges
    }

    /// The lane path, for sum merges of words whose union layout (the OR of
    /// the two marker sets) has only base counters and pairs.  Every union
    /// counter is then one operand's counter, holding the other operand's
    /// counters inside it; its value is the sum of both sides, formed in
    /// two's complement lanes for all counters at once.  A base lane that
    /// overflows merges with its neighbour into a pair, which always holds
    /// the pair's four parts, so every pair is independent of the rest of
    /// the word.  `None` sends the word to the replay: counters above a
    /// pair, a pair that overflows, or a pair of `self` whose running sum
    /// over two signed parts of `other` might leave its range.
    #[inline(always)]
    fn pairs(
        &self,
        l: &PairLanes,
        (a, ma): (u64, u32),
        (b, mb): (u64, u32),
    ) -> Option<(u64, u32, u64)> {
        if (ma | mb) & !l.pair_markers != 0 {
            return None;
        }
        let (base, pair) = (l.base, l.pair);
        let to_lanes = |lanes: Lanes, x: u64| if M::SIGNED { lanes.to_twos(x) } else { x };
        let from_lanes = |lanes: Lanes, x: u64| {
            if M::SIGNED {
                lanes.to_sign_magnitude(x)
            } else {
                x
            }
        };
        // Base counters, as lanes; pair lanes are zero here.
        let pairs_a = l.spread.spread(u64::from(ma)) * l.pair_ones;
        let pairs_b = l.spread.spread(u64::from(mb)) * l.pair_ones;
        let (xa, xb) = (to_lanes(base, a & !pairs_a), to_lanes(base, b & !pairs_b));
        let sum = base.add(xa, xb);
        // A base lane inside either operand's pair adds a zero lane, which
        // cannot overflow.
        let overflowed = base.overflow::<M>(xa, xb, sum);
        if ma | mb == 0 && overflowed == 0 {
            return Some((from_lanes(base, sum), 0, 0));
        }
        // Pair lanes: every pair block's total for each operand, its two
        // base lanes summed (sign-extended through an offset for two's
        // complement) or its own pair counter.
        let halves = |x: u64| (x & l.low_halves, (x >> Self::BASE_BITS) & l.low_halves);
        let pair_total = |x: u64, own_pairs: u64| {
            let (low, high) = halves(x);
            let total = if M::SIGNED {
                let sign = base.top & l.low_halves;
                pair.add((low ^ sign) + (high ^ sign), !l.low_halves)
            } else {
                low + high
            };
            total | own_pairs
        };
        let (ya, yb) = (
            pair_total(xa, to_lanes(pair, a & pairs_a)),
            pair_total(xb, to_lanes(pair, b & pairs_b)),
        );
        let pair_sum = pair.add(ya, yb);
        let new_pairs = (overflowed | (overflowed << Self::BASE_BITS)) & pair.top;
        let pairs_u = pairs_a | pairs_b | pair.fill(new_pairs);
        if pair.overflow::<M>(ya, yb, pair_sum) & pairs_u != 0 {
            return None;
        }
        if new_pairs != 0 && l.pair_markers == 0 {
            // A base lane at the maximum size saturates instead.
            return None;
        }
        if M::SIGNED {
            // A pair of `self` takes `other`'s two base counters one after
            // the other: both running sums must fit, which they do when
            // the magnitudes add up within the pair.
            let (low, high) = halves(b & !pairs_b & !base.top);
            let magnitudes = (a & pairs_a & !pair.top) + low + high;
            if magnitudes & pair.top & pairs_a & !pairs_b != 0 {
                return None;
            }
        }
        let word = (from_lanes(base, sum) & !pairs_u) | (from_lanes(pair, pair_sum) & pairs_u);
        let new_markers = (l.spread.compress(new_pairs >> (Self::BASE_BITS - 1)) >> 1) as u32;
        let markers = ma | mb | new_markers;
        // Every merge here makes a pair: one event per new pair marker.
        Some((word, markers, u64::from((markers & !ma).count_ones())))
    }

    #[inline(always)]
    fn field(&self, word: u64, start: u32, len: u32) -> M::Value {
        let bits = Self::BASE_BITS * len;
        M::decode((word >> (start * Self::BASE_BITS)) & field_mask(bits), bits)
    }

    /// Level of `self`'s counter containing `slot`: the number of merged
    /// blocks above it (merged blocks form a prefix of its ancestors).
    #[inline(always)]
    fn level(&self, markers: u32, slot: u32) -> u32 {
        (1..=self.max_level)
            .map(|l| (markers >> (((slot >> l) << l) + (1 << (l - 1)) - 1)) & 1)
            .sum()
    }

    /// `merge_up` on register-local state: the level-`level` counter at
    /// `slot` merges with its sibling into one counter of `level + 1`.
    #[inline(always)]
    fn merge_up(&self, markers: &mut u32, values: &mut [M::Value; 32], slot: u32, level: u32) {
        let len = 2u32 << level;
        let block = slot & !(len - 1);
        let inside = ((1u64 << len) - 1) << block;
        let mut acc = M::ZERO;
        for (j, _) in (Fields {
            starts: starts(*markers, SLOTS) & inside,
            end: block + len,
        }) {
            acc = self.math.combine(acc, values[j as usize]);
        }
        *markers |= ((1u32 << (len - 1)) - 1) << block;
        values[block as usize] = acc;
    }

    /// The per-counter sequence on one word's register-local state.
    fn replay(
        &self,
        values: &mut [M::Value; 32],
        (a, ma): (u64, u32),
        (b, mb): (u64, u32),
    ) -> (u64, u32, u64) {
        for (j, l) in (Fields {
            starts: starts(ma, SLOTS),
            end: SLOTS,
        }) {
            values[j as usize] = self.field(a, j, l);
        }
        let mut markers = ma;
        let mut merges = 0u64;
        for (j, l) in (Fields {
            starts: starts(mb, SLOTS),
            end: SLOTS,
        }) {
            // An unmerged zero counter is skipped; applying it would change
            // nothing either, so it needs no test here.
            let value = self.field(b, j, l);
            let target = l.trailing_zeros().min(self.max_level);
            let mut level = self.level(markers, j);
            while level < target {
                self.merge_up(&mut markers, values, j, level);
                merges += 1;
                level += 1;
            }
            loop {
                let start = ((j >> level) << level) as usize;
                let bits = Self::BASE_BITS << level;
                let new = self.math.apply(values[start], value);
                if M::fits(new, bits) {
                    values[start] = new;
                    break;
                }
                if level == self.max_level {
                    values[start] = M::saturate(new, bits);
                    break;
                }
                self.merge_up(&mut markers, values, j, level);
                merges += 1;
                level += 1;
            }
        }
        let mut word = 0u64;
        for (j, l) in (Fields {
            starts: starts(markers, SLOTS),
            end: SLOTS,
        }) {
            word |= M::encode(values[j as usize], Self::BASE_BITS * l) << (j * Self::BASE_BITS);
        }
        (word, markers, merges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;

    #[test]
    fn fixed_rows_absorb_and_subtract() {
        let mut a = FixedRow::new(16, 32);
        let mut b = FixedRow::new(16, 32);
        a.add(1, 10);
        a.add(2, 5);
        b.add(1, 7);
        b.add(3, 2);
        let mut union = a.clone();
        union.absorb(&b);
        assert_eq!(union.read(1), 17);
        assert_eq!(union.read(2), 5);
        assert_eq!(union.read(3), 2);
        let mut diff = union.clone();
        diff.subtract(&b);
        for i in 0..16 {
            assert_eq!(diff.read(i), a.read(i));
        }
    }

    #[test]
    fn salsa_rows_absorb_into_wider_counters() {
        let mut a = SimpleSalsaRow::new(16, 8, MergeOp::Sum);
        let mut b = SimpleSalsaRow::new(16, 8, MergeOp::Sum);
        a.add(4, 200);
        b.add(4, 200);
        b.add(9, 400); // merged in b
        let mut union = a.clone();
        union.absorb(&b);
        assert_eq!(union.read(4), 400); // 200 + 200 → forced a merge
        assert!(union.level_of(4) >= 1);
        assert_eq!(union.read(9), 400);
        assert!(union.level_of(9) >= b.level_of(9));
    }

    #[test]
    fn salsa_subtract_recovers_first_operand_in_strict_turnstile() {
        let mut a = SimpleSalsaRow::new(32, 8, MergeOp::Sum);
        let mut b = SimpleSalsaRow::new(32, 8, MergeOp::Sum);
        for i in 0..32 {
            a.add(i, (i as u64) * 20);
            b.add(i, (i as u64) * 7);
        }
        let mut union = a.clone();
        union.absorb(&b);
        union.subtract(&b);
        for i in 0..32 {
            // The union counter may be wider than a's, so compare per-block
            // totals rather than per-slot values.
            assert!(union.read(i) >= a.read(i) || union.level_of(i) > a.level_of(i));
        }
    }

    #[test]
    fn signed_rows_support_general_differences() {
        let mut a = SimpleSalsaSignedRow::new(16, 8);
        let mut b = SimpleSalsaSignedRow::new(16, 8);
        a.add(3, 120);
        a.add(5, -60);
        b.add(3, 150);
        b.add(7, 10);
        let mut diff = a.clone();
        diff.subtract(&b);
        assert_eq!(diff.read(3), -30);
        assert_eq!(diff.read(5), -60);
        assert_eq!(diff.read(7), -10);
        let mut union = a.clone();
        union.absorb(&b);
        assert_eq!(union.read(3), 270);
    }

    #[test]
    fn fixed_signed_rows_difference() {
        let mut a = FixedSignedRow::new(8, 32);
        let mut b = FixedSignedRow::new(8, 32);
        a.add(0, 5);
        b.add(0, 9);
        a.subtract(&b);
        assert_eq!(a.read(0), -4);
    }

    #[test]
    fn spread_and_compress_are_inverse() {
        for (slots, base_bits) in [(1u32, 64u32), (2, 32), (4, 16), (8, 8), (16, 4), (32, 2)] {
            let spread = Spread::new(slots, base_bits);
            for x in [0u64, 1, 0b1011, u64::MAX >> (64 - slots), 1 << (slots - 1)] {
                let x = x & ((1u64 << slots) - 1);
                let wide = spread.spread(x);
                for i in 0..slots {
                    let bit = (x >> i) & 1;
                    assert_eq!((wide >> (i * base_bits)) & 1, bit, "{slots} slots, bit {i}");
                }
                assert_eq!(wide.count_ones(), x.count_ones());
                assert_eq!(spread.compress(wide), x, "{slots} slots");
            }
        }
    }

    #[test]
    #[should_panic(expected = "widths must match")]
    fn mismatched_widths_panic() {
        let mut a = FixedRow::new(8, 32);
        let b = FixedRow::new(16, 32);
        a.absorb(&b);
    }
}
