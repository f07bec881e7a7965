//! Affine subscript maps `g(i) = a·i + b`.
//!
//! The paper's loop model (Figure 2) is `forall i … on A[f(i)].loc` with
//! references `A[g_k(i)]`.  The compile-time analysis only needs to invert
//! and image these maps over index ranges; with `|a| = 1` (the shifts and
//! identities that dominate real stencil codes) both directions map
//! contiguous ranges to contiguous ranges, so an image or preimage has at
//! most as many ranges as its argument and costs one sort of them.

use distrib::{IndexRange, IndexSet};

/// An affine map over loop indices: `g(i) = a·i + b` with integer `a`, `b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AffineMap {
    /// Multiplier.
    pub a: i64,
    /// Offset.
    pub b: i64,
}

impl AffineMap {
    /// The identity map `g(i) = i`.
    pub fn identity() -> Self {
        AffineMap { a: 1, b: 0 }
    }

    /// A shift `g(i) = i + c` (the `A[i+1]` of Figure 1 is `shift(1)`).
    pub fn shift(c: i64) -> Self {
        AffineMap { a: 1, b: c }
    }

    /// A general affine map `g(i) = a·i + b`.
    pub fn new(a: i64, b: i64) -> Self {
        assert!(
            a != 0,
            "a degenerate subscript (a = 0) references a single element"
        );
        AffineMap { a, b }
    }

    /// Apply the map; returns `None` when the result is negative (outside
    /// the array).
    pub fn apply(&self, i: usize) -> Option<usize> {
        let v = self.a.checked_mul(i as i64)?.checked_add(self.b)?;
        usize::try_from(v).ok()
    }

    /// Apply the map, panicking when the result is out of range — used where
    /// the caller has already intersected with the valid range.
    pub fn apply_unchecked(&self, i: usize) -> usize {
        self.apply(i)
            .unwrap_or_else(|| panic!("affine map {self:?} applied to {i} leaves the index space"))
    }

    /// True when the map is invertible over contiguous ranges (|a| = 1),
    /// the condition for the closed-form compile-time analysis.
    pub fn is_unit_stride(&self) -> bool {
        self.a == 1 || self.a == -1
    }

    /// Image of a contiguous range under a unit-stride map (a contiguous
    /// range again).  `bound` clips the result to `[0, bound)`.
    pub fn image_range(&self, r: IndexRange, bound: usize) -> IndexRange {
        assert!(self.is_unit_stride(), "image_range requires |a| = 1");
        if r.is_empty() {
            return IndexRange::new(0, 0);
        }
        let (lo, hi) = if self.a == 1 {
            (self.b + r.start as i64, self.b + (r.end as i64 - 1))
        } else {
            (self.b - (r.end as i64 - 1), self.b - r.start as i64)
        };
        clip(lo, hi, bound)
    }

    /// Image of an index set under a unit-stride map.
    pub fn image(&self, s: &IndexSet, bound: usize) -> IndexSet {
        IndexSet::from_ranges(s.ranges().iter().map(|&r| self.image_range(r, bound)))
    }

    /// Preimage of a contiguous range: the loop indices `i` with
    /// `g(i) ∈ [r.start, r.end)`, clipped to `[0, bound)`.  Works for any
    /// non-zero `a` because the preimage of an interval under an affine map
    /// is always an interval of integers.
    pub fn preimage_range(&self, r: IndexRange, bound: usize) -> IndexRange {
        if r.is_empty() {
            return IndexRange::new(0, 0);
        }
        let lo_t = r.start as i64;
        let hi_t = r.end as i64 - 1; // inclusive target bound
        let (lo, hi) = if self.a > 0 {
            (
                div_ceil_i64(lo_t - self.b, self.a),
                div_floor_i64(hi_t - self.b, self.a),
            )
        } else {
            (
                div_ceil_i64(hi_t - self.b, self.a),
                div_floor_i64(lo_t - self.b, self.a),
            )
        };
        clip(lo, hi, bound)
    }

    /// Preimage of an index set, clipped to `[0, bound)`.
    pub fn preimage(&self, s: &IndexSet, bound: usize) -> IndexSet {
        IndexSet::from_ranges(s.ranges().iter().map(|&r| self.preimage_range(r, bound)))
    }
}

fn clip(lo: i64, hi: i64, bound: usize) -> IndexRange {
    // [lo, hi] inclusive in i64 space -> clipped half-open usize range.
    let lo = lo.max(0);
    let hi = hi.min(bound as i64 - 1);
    if lo > hi {
        IndexRange::new(0, 0)
    } else {
        IndexRange::new(lo as usize, hi as usize + 1)
    }
}

fn div_floor_i64(a: i64, b: i64) -> i64 {
    let q = a / b;
    if (a % b != 0) && ((a < 0) != (b < 0)) {
        q - 1
    } else {
        q
    }
}

fn div_ceil_i64(a: i64, b: i64) -> i64 {
    let q = a / b;
    if (a % b != 0) && ((a < 0) == (b < 0)) {
        q + 1
    } else {
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_and_shift() {
        let g = AffineMap::shift(1);
        assert_eq!(g.apply(4), Some(5));
        let g = AffineMap::shift(-2);
        assert_eq!(g.apply(1), None);
        assert_eq!(g.apply(2), Some(0));
        let g = AffineMap::new(2, 1);
        assert_eq!(g.apply(3), Some(7));
        assert!(!g.is_unit_stride());
        assert!(AffineMap::identity().is_unit_stride());
    }

    #[test]
    fn image_of_range_under_shift() {
        let g = AffineMap::shift(3);
        let r = g.image_range(IndexRange::new(2, 5), 100);
        assert_eq!(r, IndexRange::new(5, 8));
        // Clipped at the top.
        let r = g.image_range(IndexRange::new(96, 99), 100);
        assert_eq!(r, IndexRange::new(99, 100));
        // Negative results clipped at zero.
        let g = AffineMap::shift(-4);
        let r = g.image_range(IndexRange::new(0, 3), 100);
        assert!(r.is_empty());
    }

    #[test]
    fn image_of_reversal() {
        // g(i) = 9 - i over i in [0, 4) -> {6, 7, 8, 9}.
        let g = AffineMap::new(-1, 9);
        let r = g.image_range(IndexRange::new(0, 4), 100);
        assert_eq!(r, IndexRange::new(6, 10));
    }

    #[test]
    fn preimage_inverts_image_for_unit_stride() {
        let bound = 200usize;
        for b in [-3i64, 0, 5] {
            for a in [1i64, -1] {
                let g = AffineMap::new(a, if a == -1 { 150 + b } else { b });
                let s = IndexSet::from_ranges([IndexRange::new(10, 40), IndexRange::new(90, 95)]);
                let img = g.image(&s, bound);
                let back = g.preimage(&img, bound);
                // Every index that survived clipping maps into img and is in back.
                for i in s.iter() {
                    if let Some(gi) = g.apply(i) {
                        if gi < bound {
                            assert!(img.contains(gi));
                            assert!(back.contains(i), "a={a} b={b} i={i}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn preimage_of_strided_map() {
        // g(i) = 3i + 1; which i map into [4, 11)? i = 1 (4), 2 (7), 3 (10).
        let g = AffineMap::new(3, 1);
        let r = g.preimage_range(IndexRange::new(4, 11), 100);
        assert_eq!(r, IndexRange::new(1, 4));
        // Negative multiplier: g(i) = -2i + 10; targets [0, 5) -> i in {3, 4, 5}.
        let g = AffineMap::new(-2, 10);
        let r = g.preimage_range(IndexRange::new(0, 5), 100);
        assert_eq!(r, IndexRange::new(3, 6));
    }

    #[test]
    fn div_helpers_match_euclidean_expectations() {
        assert_eq!(div_floor_i64(7, 2), 3);
        assert_eq!(div_floor_i64(-7, 2), -4);
        assert_eq!(div_ceil_i64(7, 2), 4);
        assert_eq!(div_ceil_i64(-7, 2), -3);
        assert_eq!(div_floor_i64(6, 3), 2);
        assert_eq!(div_ceil_i64(6, 3), 2);
        assert_eq!(div_floor_i64(7, -2), -4);
        assert_eq!(div_ceil_i64(7, -2), -3);
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn zero_multiplier_rejected() {
        AffineMap::new(0, 3);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn preimage_is_exactly_the_set_of_indices_mapping_in(
                a in prop_oneof![Just(-3i64), Just(-1), Just(1), Just(2), Just(5)],
                b in -50i64..50,
                start in 0usize..80,
                len in 0usize..40,
                bound in 1usize..120,
            ) {
                let g = AffineMap::new(a, b);
                let target = IndexRange::new(start, start + len);
                let pre = g.preimage_range(target, bound);
                for i in 0..bound {
                    let maps_in = g.apply(i).is_some_and(|v| target.contains(v));
                    prop_assert_eq!(pre.contains(i), maps_in, "i = {}", i);
                }
            }

            #[test]
            fn image_contains_exactly_the_mapped_indices(
                shift in -60i64..60,
                neg in proptest::bool::ANY,
                start in 0usize..80,
                len in 0usize..40,
                bound in 1usize..150,
            ) {
                let g = if neg { AffineMap::new(-1, shift.abs() + 100) } else { AffineMap::shift(shift) };
                let src = IndexRange::new(start, start + len);
                let img = g.image_range(src, bound);
                let mut expected: Vec<usize> = (src.start..src.end)
                    .filter_map(|i| g.apply(i))
                    .filter(|&v| v < bound)
                    .collect();
                expected.sort_unstable();
                let got: Vec<usize> = (img.start..img.end).collect();
                prop_assert_eq!(got, expected);
            }
        }
    }
}
