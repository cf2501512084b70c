//! The word-local merge kernel behind `RowMerge` is the per-counter merge
//! sequence of the paper, run one storage word at a time.
//!
//! The oracle here is that sequence written out with the rows' public
//! operations: for every counter of `other` in slot order, skip it if it is
//! an unmerged zero, otherwise force `self`'s counter at its start to at
//! least its level and then add (or subtract) its value.  Each property
//! builds two rows of one shape, merges them both ways, and compares the
//! value and level of every base slot and the merge-event count.
//!
//! Shapes cover both encodings, signed and unsigned rows, `Sum` and `Max`,
//! base widths 2–64, maximum counter sizes 16/32/64 bits, rows narrower
//! than one storage word, and operands with different maximum sizes.
//! Fills cover empty and sparse rows, small and large increments, rows
//! whose counters sit at their maximum size and saturate, and max-merge
//! rows after `split_all`.

use proptest::prelude::*;
use salsa_core::prelude::*;

/// A small deterministic generator (SplitMix64), so that one `u64` seed
/// drawn by proptest picks a whole case.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize]
    }
}

#[derive(Debug, Clone, Copy)]
struct Shape {
    width: usize,
    base_bits: u32,
    max_bits: u32,
    /// The second operand's maximum counter size (usually the same).
    other_max_bits: u32,
    op: MergeOp,
}

fn shape(g: &mut Gen, compact: bool) -> Shape {
    let base_bits = g.pick(&[2u32, 4, 8, 8, 8, 16, 32, 64]);
    let maxes: Vec<u32> = [16u32, 32, 64]
        .into_iter()
        .filter(|&m| m >= base_bits)
        .collect();
    let max_bits = g.pick(&maxes);
    let other_max_bits = if g.below(8) == 0 {
        g.pick(&maxes)
    } else {
        max_bits
    };
    // The row must be wide enough for its largest counter; the compact
    // encoding needs whole 32-slot blocks.
    let min_width = (max_bits.max(other_max_bits) / base_bits) as usize;
    let widths: Vec<usize> = [2usize, 4, 8, 16, 32, 64, 128, 256]
        .into_iter()
        .filter(|&w| w >= min_width && (!compact || w >= 32))
        .collect();
    Shape {
        width: g.pick(&widths),
        base_bits,
        max_bits,
        other_max_bits,
        op: g.pick(&[MergeOp::Sum, MergeOp::Max]),
    }
}

/// A weight whose size is drawn across every counter width, so that words
/// see no merges, some, or counters pushed to saturation.
fn magnitude(g: &mut Gen) -> u64 {
    let bits = g.pick(&[1u32, 2, 3, 4, 6, 8, 10, 16, 20, 31, 33, 62, 63, 64]);
    let cap = if bits == 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    };
    1 + g.next() % cap.max(1)
}

/// How many updates a row gets: empty, sparse, or many.
fn fill(g: &mut Gen, width: usize) -> usize {
    match g.below(5) {
        0 => 0,
        1 => 1 + g.below(4) as usize,
        2 => width / 4,
        _ => width * (1 + g.below(6) as usize),
    }
}

fn unsigned_row<E: MergeEncoding>(g: &mut Gen, s: Shape, max_bits: u32) -> SalsaRow<E> {
    let mut row = SalsaRow::<E>::with_max_bits(s.width, s.base_bits, s.op, max_bits);
    let small = g.below(2) == 0;
    for _ in 0..fill(g, s.width) {
        let slot = g.below(s.width as u64) as usize;
        let value = if small { 1 + g.below(3) } else { magnitude(g) };
        row.add(slot, value);
    }
    if s.op == MergeOp::Max && g.below(3) == 0 {
        // Downsample and split, as estimators do.
        let shift = g.below(40) as u32;
        row.map_counters(|v| v >> shift);
        row.split_all();
    }
    row
}

fn signed_row<E: MergeEncoding>(g: &mut Gen, s: Shape, max_bits: u32) -> SalsaSignedRow<E> {
    let mut row = SalsaSignedRow::<E>::with_max_bits(s.width, s.base_bits, max_bits);
    let small = g.below(2) == 0;
    for _ in 0..fill(g, s.width) {
        let slot = g.below(s.width as u64) as usize;
        let magnitude = if small {
            1 + g.below(3)
        } else {
            magnitude(g).min(i64::MAX as u64)
        };
        let value = magnitude as i64;
        row.add(slot, if g.below(2) == 0 { value } else { -value });
    }
    row
}

fn oracle_unsigned<E: MergeEncoding>(dst: &mut SalsaRow<E>, src: &SalsaRow<E>, subtract: bool) {
    for c in src.counters() {
        if c.value == 0 && c.level == 0 {
            continue;
        }
        dst.force_level_at_least(c.start, c.level);
        if subtract {
            let cur = dst.read(c.start);
            dst.set_value(c.start, cur.saturating_sub(c.value));
        } else {
            dst.add(c.start, c.value);
        }
    }
}

fn oracle_signed<E: MergeEncoding>(
    dst: &mut SalsaSignedRow<E>,
    src: &SalsaSignedRow<E>,
    subtract: bool,
) {
    for (start, level, value) in src.counters() {
        if value == 0 && level == 0 {
            continue;
        }
        dst.force_level_at_least(start, level);
        dst.add(start, if subtract { -value } else { value });
    }
}

/// Every base slot's value and level, and the row's merge-event count.
type State = (Vec<(i128, u32)>, u64);

fn unsigned_state<E: MergeEncoding>(row: &SalsaRow<E>) -> State {
    let slots = (0..row.width()).map(|i| (i128::from(row.read(i)), row.level_of(i)));
    (slots.collect(), row.merge_events())
}

fn signed_state<E: MergeEncoding>(row: &SalsaSignedRow<E>) -> State {
    let slots = (0..row.width()).map(|i| (i128::from(row.read(i)), row.level_of(i)));
    (slots.collect(), row.merge_events())
}

fn same((kernel, kernel_events): State, (oracle, oracle_events): State) -> Result<(), String> {
    if let Some(i) = (0..kernel.len()).find(|&i| kernel[i] != oracle[i]) {
        return Err(format!(
            "slot {i}: kernel (value, level) {:?} vs oracle {:?}",
            kernel[i], oracle[i]
        ));
    }
    if kernel_events != oracle_events {
        return Err(format!(
            "merge events: kernel {kernel_events} vs oracle {oracle_events}"
        ));
    }
    Ok(())
}

/// One case for unsigned rows: absorb, then subtract a third row from the
/// union, each through the kernel and through the oracle.
fn check_unsigned<E: MergeEncoding>(seed: u64, compact: bool) -> Result<(), String> {
    let mut g = Gen(seed);
    let s = shape(&mut g, compact);
    let a = unsigned_row::<E>(&mut g, s, s.max_bits);
    let b = unsigned_row::<E>(&mut g, s, s.other_max_bits);
    let (mut kernel, mut oracle) = (a.clone(), a);
    kernel.absorb(&b);
    oracle_unsigned(&mut oracle, &b, false);
    same(unsigned_state(&kernel), unsigned_state(&oracle))
        .map_err(|e| format!("{s:?} absorb: {e}"))?;

    let c = unsigned_row::<E>(&mut g, s, s.other_max_bits);
    kernel.subtract(&c);
    oracle_unsigned(&mut oracle, &c, true);
    same(unsigned_state(&kernel), unsigned_state(&oracle))
        .map_err(|e| format!("{s:?} subtract: {e}"))
}

/// One case for signed rows: absorb, then subtract a third row.
fn check_signed<E: MergeEncoding>(seed: u64, compact: bool) -> Result<(), String> {
    let mut g = Gen(seed);
    let s = shape(&mut g, compact);
    let a = signed_row::<E>(&mut g, s, s.max_bits);
    let b = signed_row::<E>(&mut g, s, s.other_max_bits);
    let (mut kernel, mut oracle) = (a.clone(), a);
    kernel.absorb(&b);
    oracle_signed(&mut oracle, &b, false);
    same(signed_state(&kernel), signed_state(&oracle)).map_err(|e| format!("{s:?} absorb: {e}"))?;

    let c = signed_row::<E>(&mut g, s, s.other_max_bits);
    kernel.subtract(&c);
    oracle_signed(&mut oracle, &c, true);
    same(signed_state(&kernel), signed_state(&oracle)).map_err(|e| format!("{s:?} subtract: {e}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(600))]

    #[test]
    fn simple_unsigned_merge_equals_the_counter_sequence(seed in 0u64..u64::MAX) {
        prop_assert_eq!(check_unsigned::<MergeBitmap>(seed, false), Ok(()));
    }

    #[test]
    fn compact_unsigned_merge_equals_the_counter_sequence(seed in 0u64..u64::MAX) {
        prop_assert_eq!(check_unsigned::<LayoutCodes>(seed, true), Ok(()));
    }

    #[test]
    fn simple_signed_merge_equals_the_counter_sequence(seed in 0u64..u64::MAX) {
        prop_assert_eq!(check_signed::<MergeBitmap>(seed, false), Ok(()));
    }

    #[test]
    fn compact_signed_merge_equals_the_counter_sequence(seed in 0u64..u64::MAX) {
        prop_assert_eq!(check_signed::<LayoutCodes>(seed, true), Ok(()));
    }
}

/// Paper-class shape at a fill where many words overflow on merge: 8-bit
/// counters, sign-magnitude, two operands fed disjoint halves of a skewed
/// stream, repeatedly merged into the running union.
#[test]
fn dense_signed_rows_merge_like_the_counter_sequence() {
    let width = 1 << 12;
    let mut g = Gen(11);
    let mut kernel = SimpleSalsaSignedRow::new(width, 8);
    let mut oracle = kernel.clone();
    for _ in 0..4 {
        let mut other = SimpleSalsaSignedRow::new(width, 8);
        for _ in 0..width * 24 {
            // Skewed slots (a few heavy counters, many light ones), each
            // drifting towards its own sign as a Count Sketch row does.
            let slot = (g.below(width as u64) * g.below(width as u64) / width as u64) as usize;
            let drift = if slot.is_multiple_of(3) { -1 } else { 1 };
            other.add(slot, if g.below(4) == 0 { -drift } else { drift });
        }
        kernel.absorb(&other);
        oracle_signed(&mut oracle, &other, false);
        assert_eq!(same(signed_state(&kernel), signed_state(&oracle)), Ok(()));
    }
    assert!(kernel.merge_events() > 0);
}

/// Counters at the maximum size saturate the same way in both.
#[test]
fn saturating_rows_merge_like_the_counter_sequence() {
    for max_bits in [16u32, 32, 64] {
        let mut a = SimpleSalsaRow::with_max_bits(64, 8, MergeOp::Sum, max_bits);
        let mut b = a.clone();
        let mut sa = SimpleSalsaSignedRow::with_max_bits(64, 8, max_bits);
        let mut sb = sa.clone();
        for slot in 0..64 {
            a.add(slot, u64::MAX - slot as u64);
            b.add(slot, 1 + slot as u64);
            sa.add(slot, i64::MAX - slot as i64);
            sb.add(
                slot,
                if slot % 2 == 0 {
                    1 + slot as i64
                } else {
                    i64::MIN + 1
                },
            );
        }
        let (mut kernel, mut oracle) = (a.clone(), a);
        kernel.absorb(&b);
        oracle_unsigned(&mut oracle, &b, false);
        assert_eq!(
            same(unsigned_state(&kernel), unsigned_state(&oracle)),
            Ok(()),
            "max_bits {max_bits}"
        );

        let (mut kernel, mut oracle) = (sa.clone(), sa);
        kernel.absorb(&sb);
        oracle_signed(&mut oracle, &sb, false);
        assert_eq!(
            same(signed_state(&kernel), signed_state(&oracle)),
            Ok(()),
            "max_bits {max_bits}"
        );
    }
}
