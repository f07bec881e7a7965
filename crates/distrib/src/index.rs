//! Index sets: disjoint sorted ranges with set algebra.
//!
//! The paper's whole analysis is phrased in terms of sets of array indices
//! and loop iterations: `local(p)`, `exec(p) = f⁻¹(local(p))`,
//! `ref(p) = g⁻¹(local(p))`, `in(p,q)`, `out(p,q)` (§3.1).  We represent
//! them as sorted, coalesced, half-open ranges — the same representation
//! the paper chooses for its communication records (§3.3).  The regular
//! distributions give a few ranges per processor, but an owner table from a
//! mesh partitioner fragments `local(p)` into thousands, so every operation
//! is bounded by the number of ranges `r` it touches, never by the number
//! of indices and never quadratic in `r`:
//!
//! | operation | cost |
//! |---|---|
//! | [`contains`](IndexSet::contains) | O(log r) |
//! | [`union`](IndexSet::union), [`intersect`](IndexSet::intersect), [`difference`](IndexSet::difference), [`is_disjoint`](IndexSet::is_disjoint), [`is_subset`](IndexSet::is_subset) | O(r₁ + r₂), one merge pass |
//! | [`insert_range`](IndexSet::insert_range), [`insert`](IndexSet::insert) | O(log r) search, plus a splice of the touched window and the tail shift |
//! | [`from_ranges`](IndexSet::from_ranges) | O(r log r), one sort and one coalescing pass |
//! | [`from_indices`](IndexSet::from_indices) | O(n) for ascending input, O(n + r log r) otherwise |
//! | [`len`](IndexSet::len) | O(r) |

/// A half-open range of indices `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IndexRange {
    /// First index in the range.
    pub start: usize,
    /// One past the last index in the range.
    pub end: usize,
}

impl IndexRange {
    /// Create a range; empty ranges (`start >= end`) are allowed and behave
    /// as the empty set.
    pub fn new(start: usize, end: usize) -> Self {
        IndexRange { start, end }
    }

    /// Number of indices in the range.
    pub fn len(&self) -> usize {
        self.end.saturating_sub(self.start)
    }

    /// True if the range contains no indices.
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }

    /// True if `i` lies inside the range.
    pub fn contains(&self, i: usize) -> bool {
        i >= self.start && i < self.end
    }

    /// Intersection of two ranges (possibly empty).
    pub fn intersect(&self, other: &IndexRange) -> IndexRange {
        IndexRange {
            start: self.start.max(other.start),
            end: self.end.min(other.end),
        }
    }
}

/// A set of indices stored as sorted, disjoint, coalesced half-open ranges.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct IndexSet {
    ranges: Vec<IndexRange>,
}

impl IndexSet {
    /// The empty set.
    pub fn new() -> Self {
        IndexSet { ranges: Vec::new() }
    }

    /// A set containing a single contiguous range.
    pub fn from_range(start: usize, end: usize) -> Self {
        let r = IndexRange::new(start, end);
        IndexSet {
            ranges: if r.is_empty() { Vec::new() } else { vec![r] },
        }
    }

    /// Build a set from arbitrary (possibly overlapping, unsorted, empty)
    /// ranges: one sort, then one coalescing pass.
    pub fn from_ranges<I: IntoIterator<Item = IndexRange>>(ranges: I) -> Self {
        let mut ranges: Vec<IndexRange> = ranges.into_iter().filter(|r| !r.is_empty()).collect();
        ranges.sort_unstable_by_key(|r| r.start);
        IndexSet::coalesced(ranges)
    }

    /// The set of non-empty `ranges` already sorted by start, merging
    /// neighbours that overlap or touch in one pass, in place.
    fn coalesced(mut ranges: Vec<IndexRange>) -> Self {
        ranges.dedup_by(|next, kept| {
            let touches = next.start <= kept.end;
            if touches {
                kept.end = kept.end.max(next.end);
            }
            touches
        });
        IndexSet { ranges }
    }

    /// Build a set from individual indices (duplicates are fine).  Runs of
    /// consecutive indices are gathered in one pass; only input that is not
    /// ascending pays a sort of those runs.
    pub fn from_indices<I: IntoIterator<Item = usize>>(indices: I) -> Self {
        let mut runs: Vec<IndexRange> = Vec::new();
        let mut ascending = true;
        for i in indices {
            match runs.last_mut() {
                Some(last) if last.contains(i) => {}
                Some(last) if i == last.end => last.end += 1,
                last => {
                    ascending &= last.is_none_or(|l| i > l.end);
                    runs.push(IndexRange::new(i, i + 1));
                }
            }
        }
        if ascending {
            IndexSet { ranges: runs }
        } else {
            IndexSet::from_ranges(runs)
        }
    }

    /// The coalesced ranges, sorted by start index.
    pub fn ranges(&self) -> &[IndexRange] {
        &self.ranges
    }

    /// Number of ranges (the `r` in the paper's O(log r) search bound).
    pub fn range_count(&self) -> usize {
        self.ranges.len()
    }

    /// Total number of indices in the set.
    pub fn len(&self) -> usize {
        self.ranges.iter().map(|r| r.len()).sum()
    }

    /// True if the set contains no indices.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Membership test by binary search over the ranges — O(log r).
    pub fn contains(&self, i: usize) -> bool {
        self.ranges
            .binary_search_by(|r| {
                if i < r.start {
                    std::cmp::Ordering::Greater
                } else if i >= r.end {
                    std::cmp::Ordering::Less
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .is_ok()
    }

    /// Insert one range, merging with the neighbours it overlaps or
    /// touches.  A binary search finds that window; only it is replaced.
    pub fn insert_range(&mut self, r: IndexRange) {
        if r.is_empty() {
            return;
        }
        let lo = self.ranges.partition_point(|x| x.end < r.start);
        let hi = self.ranges.partition_point(|x| x.start <= r.end);
        if lo == hi {
            self.ranges.insert(lo, r);
        } else {
            let merged = IndexRange::new(
                r.start.min(self.ranges[lo].start),
                r.end.max(self.ranges[hi - 1].end),
            );
            self.ranges.splice(lo..hi, [merged]);
        }
    }

    /// Insert a single index.
    pub fn insert(&mut self, i: usize) {
        self.insert_range(IndexRange::new(i, i + 1));
    }

    /// Set union: one merge pass over both range lists by start, then one
    /// coalescing pass.
    pub fn union(&self, other: &IndexSet) -> IndexSet {
        let mut merged = Vec::with_capacity(self.ranges.len() + other.ranges.len());
        let (mut a, mut b) = (
            self.ranges.iter().peekable(),
            other.ranges.iter().peekable(),
        );
        while let Some(&r) = match (a.peek(), b.peek()) {
            (Some(x), Some(y)) if y.start < x.start => b.next(),
            (Some(_), _) => a.next(),
            (None, _) => b.next(),
        } {
            merged.push(r);
        }
        IndexSet::coalesced(merged)
    }

    /// Set intersection.
    pub fn intersect(&self, other: &IndexSet) -> IndexSet {
        let mut out = Vec::new();
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.ranges.len() && j < other.ranges.len() {
            let a = self.ranges[i];
            let b = other.ranges[j];
            let c = a.intersect(&b);
            if !c.is_empty() {
                out.push(c);
            }
            if a.end <= b.end {
                i += 1;
            } else {
                j += 1;
            }
        }
        IndexSet { ranges: out }
    }

    /// Set difference `self \ other`.
    pub fn difference(&self, other: &IndexSet) -> IndexSet {
        let mut out = Vec::new();
        let mut j = 0usize;
        for &a in &self.ranges {
            let mut cur = a;
            while j < other.ranges.len() && other.ranges[j].end <= cur.start {
                j += 1;
            }
            let mut k = j;
            while !cur.is_empty() && k < other.ranges.len() && other.ranges[k].start < cur.end {
                let b = other.ranges[k];
                if b.start > cur.start {
                    out.push(IndexRange::new(cur.start, b.start));
                }
                cur = IndexRange::new(b.end.max(cur.start), cur.end);
                k += 1;
            }
            if !cur.is_empty() {
                out.push(cur);
            }
        }
        IndexSet { ranges: out }
    }

    /// True when the two sets share no indices.
    pub fn is_disjoint(&self, other: &IndexSet) -> bool {
        self.intersect(other).is_empty()
    }

    /// True when every index of `self` is also in `other`.
    pub fn is_subset(&self, other: &IndexSet) -> bool {
        self.difference(other).is_empty()
    }

    /// Iterate over every index in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.ranges.iter().flat_map(|r| r.start..r.end)
    }
}

impl FromIterator<usize> for IndexSet {
    fn from_iter<T: IntoIterator<Item = usize>>(iter: T) -> Self {
        IndexSet::from_indices(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_indices_coalesces_runs() {
        let s = IndexSet::from_indices([5, 1, 2, 3, 9, 10, 3, 2]);
        assert_eq!(
            s.ranges(),
            &[
                IndexRange::new(1, 4),
                IndexRange::new(5, 6),
                IndexRange::new(9, 11)
            ]
        );
        assert_eq!(s.len(), 6);
        assert_eq!(s.range_count(), 3);
    }

    #[test]
    fn insert_merges_adjacent_and_overlapping() {
        let mut s = IndexSet::from_range(0, 5);
        s.insert_range(IndexRange::new(5, 10)); // adjacent
        assert_eq!(s.ranges(), &[IndexRange::new(0, 10)]);
        s.insert_range(IndexRange::new(3, 12)); // overlapping
        assert_eq!(s.ranges(), &[IndexRange::new(0, 12)]);
        s.insert_range(IndexRange::new(20, 20)); // empty, ignored
        assert_eq!(s.range_count(), 1);
    }

    #[test]
    fn contains_uses_all_ranges() {
        let s = IndexSet::from_ranges([IndexRange::new(0, 3), IndexRange::new(10, 13)]);
        assert!(s.contains(0));
        assert!(s.contains(2));
        assert!(!s.contains(3));
        assert!(!s.contains(9));
        assert!(s.contains(12));
        assert!(!s.contains(13));
    }

    #[test]
    fn union_intersection_difference_small_cases() {
        let a = IndexSet::from_ranges([IndexRange::new(0, 10), IndexRange::new(20, 30)]);
        let b = IndexSet::from_ranges([IndexRange::new(5, 25)]);
        assert_eq!(a.union(&b).ranges(), &[IndexRange::new(0, 30)]);
        assert_eq!(
            a.intersect(&b).ranges(),
            &[IndexRange::new(5, 10), IndexRange::new(20, 25)]
        );
        assert_eq!(
            a.difference(&b).ranges(),
            &[IndexRange::new(0, 5), IndexRange::new(25, 30)]
        );
        assert_eq!(b.difference(&a).ranges(), &[IndexRange::new(10, 20)]);
    }

    #[test]
    fn subset_and_disjoint() {
        let a = IndexSet::from_range(0, 100);
        let b = IndexSet::from_range(10, 20);
        let c = IndexSet::from_range(200, 300);
        assert!(b.is_subset(&a));
        assert!(!a.is_subset(&b));
        assert!(a.is_disjoint(&c));
        assert!(!a.is_disjoint(&b));
        assert!(IndexSet::new().is_subset(&b));
        assert!(IndexSet::new().is_disjoint(&IndexSet::new()));
    }

    #[test]
    fn iter_yields_sorted_indices() {
        let s = IndexSet::from_indices([7, 1, 3, 2, 9]);
        let v: Vec<usize> = s.iter().collect();
        assert_eq!(v, vec![1, 2, 3, 7, 9]);
    }

    #[test]
    fn empty_set_behaviour() {
        let e = IndexSet::new();
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        assert!(!e.contains(0));
        assert!(e.union(&e).is_empty());
        assert!(e.intersect(&IndexSet::from_range(0, 10)).is_empty());
        assert!(e.difference(&IndexSet::from_range(0, 10)).is_empty());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeSet;

        fn arb_indices() -> impl Strategy<Value = Vec<usize>> {
            proptest::collection::vec(0usize..200, 0..60)
        }

        /// Range lists in no particular order: short ranges that often
        /// overlap or touch, empty ones, and reversed (`start > end`) ones.
        fn arb_ranges() -> impl Strategy<Value = Vec<IndexRange>> {
            let range = prop_oneof![
                (0usize..200, 0usize..20).prop_map(|(s, len)| IndexRange::new(s, s + len)),
                (0usize..200, 0usize..200).prop_map(|(s, e)| IndexRange::new(s, e)),
            ];
            proptest::collection::vec(range, 0..40)
        }

        fn model(ranges: &[IndexRange]) -> BTreeSet<usize> {
            ranges.iter().flat_map(|r| r.start..r.end).collect()
        }

        /// The representation invariant: non-empty ranges, sorted and
        /// strictly separated (touching ranges must have been merged).
        fn assert_canonical(s: &IndexSet) {
            for r in s.ranges() {
                assert!(r.start < r.end, "empty range {r:?} in {s:?}");
            }
            for w in s.ranges().windows(2) {
                assert!(w[0].end < w[1].start, "ranges not separated in {s:?}");
            }
        }

        fn elements(s: &IndexSet) -> Vec<usize> {
            s.iter().collect()
        }

        proptest! {
            #[test]
            fn set_semantics_match_btreeset(a in arb_indices(), b in arb_indices()) {
                let sa = IndexSet::from_indices(a.iter().copied());
                let sb = IndexSet::from_indices(b.iter().copied());
                let ra: BTreeSet<usize> = a.iter().copied().collect();
                let rb: BTreeSet<usize> = b.iter().copied().collect();

                let union: Vec<usize> = sa.union(&sb).iter().collect();
                let expect: Vec<usize> = ra.union(&rb).copied().collect();
                prop_assert_eq!(union, expect);

                let inter: Vec<usize> = sa.intersect(&sb).iter().collect();
                let expect: Vec<usize> = ra.intersection(&rb).copied().collect();
                prop_assert_eq!(inter, expect);

                let diff: Vec<usize> = sa.difference(&sb).iter().collect();
                let expect: Vec<usize> = ra.difference(&rb).copied().collect();
                prop_assert_eq!(diff, expect);
            }

            #[test]
            fn ranges_are_sorted_disjoint_and_coalesced(a in arb_indices()) {
                let s = IndexSet::from_indices(a.iter().copied());
                for w in s.ranges().windows(2) {
                    // Strictly separated: coalescing must have merged adjacency.
                    prop_assert!(w[0].end < w[1].start);
                }
                for r in s.ranges() {
                    prop_assert!(r.start < r.end);
                }
                prop_assert_eq!(s.len(), a.iter().copied().collect::<BTreeSet<_>>().len());
            }

            #[test]
            fn from_ranges_matches_the_model(rs in arb_ranges()) {
                let s = IndexSet::from_ranges(rs.iter().copied());
                assert_canonical(&s);
                prop_assert_eq!(elements(&s), model(&rs).into_iter().collect::<Vec<_>>());
            }

            #[test]
            fn repeated_insert_range_matches_the_model(init in arb_ranges(), rs in arb_ranges()) {
                let mut s = IndexSet::from_ranges(init.iter().copied());
                let mut m = model(&init);
                for r in &rs {
                    s.insert_range(*r);
                    m.extend(r.start..r.end);
                    assert_canonical(&s);
                    prop_assert_eq!(elements(&s), m.iter().copied().collect::<Vec<_>>());
                }
            }

            #[test]
            fn union_of_range_lists_matches_the_model(a in arb_ranges(), b in arb_ranges()) {
                let sa = IndexSet::from_ranges(a.iter().copied());
                let sb = IndexSet::from_ranges(b.iter().copied());
                let u = sa.union(&sb);
                assert_canonical(&u);
                let expect: Vec<usize> = model(&a).union(&model(&b)).copied().collect();
                prop_assert_eq!(elements(&u), expect);
                prop_assert_eq!(&u, &sb.union(&sa));
                prop_assert_eq!(&u, &IndexSet::from_ranges(a.iter().chain(&b).copied()));
            }

            #[test]
            fn from_indices_agrees_on_ascending_and_shuffled_input(a in arb_indices()) {
                let mut ascending = a.clone();
                ascending.sort_unstable();
                let s = IndexSet::from_indices(ascending.iter().copied());
                assert_canonical(&s);
                prop_assert_eq!(&s, &IndexSet::from_indices(a.iter().copied()));
            }

            #[test]
            fn contains_matches_membership(a in arb_indices(), probe in 0usize..220) {
                let s = IndexSet::from_indices(a.iter().copied());
                prop_assert_eq!(s.contains(probe), a.contains(&probe));
            }
        }
    }
}
