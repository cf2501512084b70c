//! The merge-layout encoding abstraction.
//!
//! SALSA needs to record, for every base counter slot, how large the merged
//! counter containing it currently is.  The paper gives two encodings:
//!
//! * the **simple encoding** — one merge bit per counter
//!   ([`crate::bitmap::MergeBitmap`]), and
//! * the **near-optimal encoding** — a mixed-radix layout code of ⌈log₂ a₅⌉ =
//!   19 bits per 32 counters, i.e. ≤ 0.594 bits per counter
//!   ([`crate::compact::LayoutCodes`]).
//!
//! [`crate::row::SalsaRow`] is generic over this trait so both encodings
//! share the counter/merge logic and can be compared like-for-like in the
//! `encoding` benchmark.

/// How a SALSA row records which counters have merged.
///
/// Levels are powers of two: a counter at level `ℓ` spans `2^ℓ` base slots
/// and has `s·2^ℓ` bits.
pub trait MergeEncoding: Clone + std::fmt::Debug {
    /// Creates an encoding for a row of `width` base counters.
    fn for_width(width: usize) -> Self;

    /// Level (0-based) of the merged counter containing base index `idx`,
    /// never exceeding `max_level`.
    fn level_of(&self, idx: usize, max_level: u32) -> u32;

    /// Records that the level-`level` block containing `idx` is now a single
    /// merged counter (all of its sub-blocks are merged as well).
    fn mark_merged(&mut self, idx: usize, level: u32);

    /// Splits the level-`level` block containing `idx` back into its two
    /// level-`level − 1` halves (used by counter splitting after estimator
    /// downsampling).  `level ≥ 1`.
    fn unmark_level(&mut self, idx: usize, level: u32);

    /// The merge markers of the `slots` base slots starting at `first`, in
    /// the simple encoding's layout: bit `i` is set when the block whose
    /// marker position is `first + i` is one merged counter (see
    /// [`crate::bitmap`]).  `slots` is a power of two of at most 32 and
    /// `first` a multiple of it; the merge kernel calls this with the slots
    /// of one `u64` storage word.
    fn word_markers(&self, first: usize, slots: usize) -> u32;

    /// Overwrites the markers of the same slot range (see
    /// [`MergeEncoding::word_markers`]) with a consistent layout.
    fn set_word_markers(&mut self, first: usize, slots: usize, markers: u32);

    /// Encoding overhead, in bits, for a row of `width` base counters.
    fn overhead_bits(width: usize) -> usize;

    /// Overwrites this encoding with `src`'s state **without allocating**
    /// (both must have been created for the same width).  This is the
    /// buffer-reusing counterpart of `Clone`, used by the zero-allocation
    /// snapshot path.
    fn copy_from(&mut self, src: &Self);
}
