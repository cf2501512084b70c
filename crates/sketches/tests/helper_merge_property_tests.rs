//! Property-based equivalence of the allocation-free merge paths.
//!
//! Steady-state snapshot assembly refreshes a warm buffer in place with
//! `copy_from` and merges into it, UnivMon drawing its heap-rebuild scratch
//! from a reused [`MergeHelper`] via `merge_with_helper`.  These must be
//! *semantically invisible* next to a plain `clone()` + `merge_from`: over
//! arbitrary stream splits, merging into a `copy_from`-refreshed
//! destination — even one previously polluted by an unrelated stream —
//! gives byte-identical estimates for CMS (sum and max), CUS and Count
//! Sketch.  UnivMon's merge rebuilds its per-level heavy-hitter trackers,
//! so its derived statistics are compared under a tight relative
//! tolerance instead of bit equality.

use proptest::prelude::*;
use salsa_core::prelude::*;
use salsa_sketches::helper::MergeHelper;
use salsa_sketches::prelude::*;

/// An arbitrary cash-register stream over a small universe, so collisions
/// and merge events actually happen in narrow sketches.
fn stream() -> impl Strategy<Value = Vec<(u64, u64)>> {
    prop::collection::vec((0u64..200, 1u64..60), 1..250)
}

/// |x − y| ≤ tol · max(|x|, |y|, 1): equal up to float re-association.
fn close(x: f64, y: f64, tol: f64) -> bool {
    (x - y).abs() <= tol * x.abs().max(y.abs()).max(1.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn cms_helper_merge_matches_merge_into_new(
        a in stream(), b in stream(), junk in stream(), seed in 0u64..500
    ) {
        for op in [MergeOp::Sum, MergeOp::Max] {
            let mut sa = CountMin::<SalsaRow>::salsa(3, 64, 8, op, seed);
            let mut sb = CountMin::<SalsaRow>::salsa(3, 64, 8, op, seed);
            let mut dst = CountMin::<SalsaRow>::salsa(3, 64, 8, op, seed);
            for &(item, weight) in &a {
                sa.update(item, weight);
            }
            for &(item, weight) in &b {
                sb.update(item, weight);
            }
            // Pollute the destination so the test proves copy_from fully
            // refreshes a previously-used buffer, not just a fresh one.
            for &(item, weight) in &junk {
                dst.update(item, weight);
            }
            let mut reference = sa.clone();
            reference.merge_from(&sb);
            dst.copy_from(&sa);
            dst.merge_from(&sb);
            for item in 0..200u64 {
                prop_assert_eq!(dst.estimate(item), reference.estimate(item), "item {}", item);
            }
        }
    }

    #[test]
    fn cus_helper_merge_matches_merge_into_new(
        a in stream(), b in stream(), junk in stream(), seed in 0u64..500
    ) {
        let mut sa = ConservativeUpdate::salsa(3, 64, 8, seed);
        let mut sb = ConservativeUpdate::salsa(3, 64, 8, seed);
        let mut dst = ConservativeUpdate::salsa(3, 64, 8, seed);
        for &(item, weight) in &a {
            sa.update(item, weight);
        }
        for &(item, weight) in &b {
            sb.update(item, weight);
        }
        for &(item, weight) in &junk {
            dst.update(item, weight);
        }
        let mut reference = sa.clone();
        reference.merge_from(&sb);
        dst.copy_from(&sa);
        dst.merge_from(&sb);
        for item in 0..200u64 {
            prop_assert_eq!(dst.estimate(item), reference.estimate(item), "item {}", item);
        }
    }

    #[test]
    fn count_sketch_helper_merge_matches_merge_into_new(
        a in prop::collection::vec(0u64..200, 1..300),
        b in prop::collection::vec(0u64..200, 1..300),
        junk in prop::collection::vec(0u64..200, 1..300),
        seed in 0u64..500
    ) {
        let mut sa = CountSketch::salsa(3, 32, 8, seed);
        let mut sb = CountSketch::salsa(3, 32, 8, seed);
        let mut dst = CountSketch::salsa(3, 32, 8, seed);
        for &item in &a {
            sa.update(item, 1);
        }
        for &item in &b {
            sb.update(item, 1);
        }
        for &item in &junk {
            dst.update(item, 1);
        }
        let mut reference = sa.clone();
        reference.merge_from(&sb);
        dst.copy_from(&sa);
        dst.merge_from(&sb);
        for item in 0..200u64 {
            prop_assert_eq!(dst.estimate(item), reference.estimate(item), "item {}", item);
        }
    }

    #[test]
    fn univmon_helper_merge_matches_merge_into_new_within_tolerance(
        a in prop::collection::vec(0u64..200, 1..300),
        b in prop::collection::vec(0u64..200, 1..300),
        seed in 0u64..500
    ) {
        let mut sa = UnivMon::salsa(4, 3, 64, 8, 8, seed);
        let mut sb = UnivMon::salsa(4, 3, 64, 8, 8, seed);
        for &item in &a {
            sa.update(item, 1);
        }
        for &item in &b {
            sb.update(item, 1);
        }
        let mut reference = sa.clone();
        reference.merge_from(&sb);
        // Warm the helper on an unrelated merge first, so the merge under
        // test reuses a dirty scratch buffer.
        let mut helper = MergeHelper::new();
        sa.clone().merge_with_helper(&sa, &mut helper);
        let mut dst = sa.clone();
        dst.merge_with_helper(&sb, &mut helper);
        // The helper path rebuilds the per-level trackers in the same
        // largest-first order as merge_from, so the recursive G-sum
        // estimators should agree to float re-association noise.
        prop_assert!(
            close(dst.fp_moment(2.0), reference.fp_moment(2.0), 1e-9),
            "F2: {} vs {}", dst.fp_moment(2.0), reference.fp_moment(2.0)
        );
        prop_assert!(
            close(dst.distinct(), reference.distinct(), 1e-9),
            "distinct: {} vs {}", dst.distinct(), reference.distinct()
        );
        prop_assert!(
            close(dst.entropy(), reference.entropy(), 1e-9),
            "entropy: {} vs {}", dst.entropy(), reference.entropy()
        );
    }
}
