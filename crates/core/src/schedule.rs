//! Communication schedules: the `in(p,q)` / `out(p,q)` sets of the paper.
//!
//! §3.3 and Figure 5 of the paper describe the representation: a schedule is
//! a dynamically allocated array of *range records*
//! `(from_proc, to_proc, low, high, buffer)`, sorted by processor id with the
//! range start as a secondary key, with adjacent ranges combined so that a
//! single message per processor pair suffices and an individual element can
//! be found by binary search in `O(log r)` time.
//!
//! [`CommSchedule`] is that data structure plus the two iteration lists the
//! inspector produces (`local_list` and `nonlocal_list`), which drive the
//! executor's "local iterations / nonlocal iterations" split, plus the
//! *localized reference table*: every planned reference resolved once, at
//! plan time, to a flat slot of the ghost-extended array
//! `[owned | receive buffer]` — the "localize" step of the inspector/executor
//! runtimes that followed the paper (PARTI/CHAOS).  The executor reads
//! references through that table and never searches the records.

use distrib::{Distribution, IndexRange, IndexSet};
use kali_process::{Wire, WireError, WireReader};

/// One contiguous block of a distributed array to be communicated between a
/// pair of processors (Figure 5 of the paper).
///
/// `low..high` is a half-open range of **global** indices of the referenced
/// array; `buffer` is the offset of the first of these elements in the
/// receiving processor's communication buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RangeRecord {
    /// Sending processor (the owner of the elements).
    pub from_proc: usize,
    /// Receiving processor (the processor that referenced the elements).
    pub to_proc: usize,
    /// First global index of the block.
    pub low: usize,
    /// One past the last global index of the block.
    pub high: usize,
    /// Offset of the block in the receiver's communication buffer.
    pub buffer: usize,
}

/// Range records are exactly what the inspector's `exchange` ships between
/// ranks ("Form send_list using recv_lists from all processors", Figure 6),
/// so they must cross a real process boundary: five `usize` fields, encoded
/// in declaration order.
impl Wire for RangeRecord {
    fn encode(&self, out: &mut Vec<u8>) {
        let RangeRecord {
            from_proc,
            to_proc,
            low,
            high,
            buffer,
        } = *self;
        from_proc.encode(out);
        to_proc.encode(out);
        low.encode(out);
        high.encode(out);
        buffer.encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(RangeRecord {
            from_proc: usize::decode(r)?,
            to_proc: usize::decode(r)?,
            low: usize::decode(r)?,
            high: usize::decode(r)?,
            buffer: usize::decode(r)?,
        })
    }
}

impl RangeRecord {
    /// Number of elements covered by the record.
    pub fn len(&self) -> usize {
        self.high.saturating_sub(self.low)
    }

    /// True if the record covers no elements.
    pub fn is_empty(&self) -> bool {
        self.high <= self.low
    }
}

/// The complete communication schedule of one `forall` on one processor.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CommSchedule {
    /// Rank of the processor this schedule belongs to.
    pub rank: usize,
    /// Blocks this processor must receive, sorted by `(from_proc, low)`.
    /// `to_proc` is always `rank`.
    pub recv_records: Vec<RangeRecord>,
    /// Blocks this processor must send, sorted by `(to_proc, low)`.
    /// `from_proc` is always `rank`.
    pub send_records: Vec<RangeRecord>,
    /// Iterations that reference only local data (`exec(p) ∩ ref(p)`),
    /// in ascending order.
    pub local_iters: Vec<usize>,
    /// Iterations that reference at least one nonlocal element
    /// (`exec(p) − ref(p)`), in ascending order.
    pub nonlocal_iters: Vec<usize>,
    /// Total number of elements to be received (the communication buffer
    /// length).
    pub recv_len: usize,
    /// Elements of the referenced array this rank owned when the schedule
    /// was planned: reference slots below it index the rank's local
    /// storage, slots at or above it the receive buffer.
    pub owned: usize,
    /// Row starts of the localized reference table (CSR): row `k` holds the
    /// references of the `k`-th executed iteration in executor order — the
    /// local iterations, then the nonlocal ones — and spans
    /// `ref_slots[ref_rows[k]..ref_rows[k + 1]]`.  One entry more than
    /// there are executed iterations.
    pub ref_rows: Vec<u32>,
    /// One slot per planned reference, in the order the plan's reference
    /// enumerator listed them: `local_index(g)` for an owned element,
    /// `owned + buffer position` for a received one.
    pub ref_slots: Vec<u32>,
    /// Lookup table for nonlocal accesses: `(low, high, buffer)` sorted by
    /// `low`.  Global ranges from different senders are disjoint (every
    /// element has one home), so a plain binary search on `low` suffices.
    lookup: Vec<(usize, usize, usize)>,
}

impl CommSchedule {
    /// Build a schedule from the inspector's (or the compile-time
    /// analyser's) raw results.
    ///
    /// * `recv_sets[q]` is the set of global indices this processor must
    ///   receive from processor `q` (`in(p,q)` in the paper's notation);
    ///   entries for `q == rank` must be empty.
    /// * `local_iters` / `nonlocal_iters` are the iteration lists.
    ///
    /// Buffer offsets are assigned in `(from_proc, low)` order, which is the
    /// order in which the executor unpacks incoming messages.  Send records
    /// are *not* filled in here — they are only known after the global
    /// exchange (`out(p,q) = in(q,p)`); use
    /// [`CommSchedule::set_send_records`].  The reference table starts with
    /// one empty row per iteration; the planners fill it
    /// ([`CommSchedule::localize`], or the inspector's own locality pass).
    pub fn from_recv_sets(
        rank: usize,
        recv_sets: &[IndexSet],
        local_iters: Vec<usize>,
        nonlocal_iters: Vec<usize>,
    ) -> Self {
        let mut recv_records = Vec::new();
        let mut offset = 0usize;
        for (q, set) in recv_sets.iter().enumerate() {
            if q == rank {
                assert!(
                    set.is_empty(),
                    "a processor never receives its own elements"
                );
                continue;
            }
            for r in set.ranges() {
                // Zero-length blocks carry no data but would still become
                // records: a `(low, low)` entry sorting after a covering
                // `(lo, hi)` range shadows it in `find`'s binary search, and
                // empty records inflate `range_count` (the r of O(log r)).
                if r.is_empty() {
                    continue;
                }
                recv_records.push(RangeRecord {
                    from_proc: q,
                    to_proc: rank,
                    low: r.start,
                    high: r.end,
                    buffer: offset,
                });
                offset += r.len();
            }
        }
        let executed = local_iters.len() + nonlocal_iters.len();
        let mut schedule = CommSchedule {
            rank,
            recv_records,
            send_records: Vec::new(),
            local_iters,
            nonlocal_iters,
            recv_len: offset,
            owned: 0,
            ref_rows: vec![0; executed + 1],
            ref_slots: Vec::new(),
            lookup: Vec::new(),
        };
        schedule.rebuild_lookup();
        schedule
    }

    /// Install the send records produced by the global exchange, sorting
    /// them by `(to_proc, low)` — the paper's "sorted on the `to_proc`
    /// field, again using `low` as the secondary key".
    pub fn set_send_records(&mut self, mut records: Vec<RangeRecord>) {
        for r in &records {
            debug_assert_eq!(r.from_proc, self.rank, "send record must originate here");
        }
        records.sort_by_key(|r| (r.to_proc, r.low));
        self.send_records = records;
    }

    fn rebuild_lookup(&mut self) {
        // Defence in depth: even if a caller hand-assembles records (tests,
        // future analyses), empty ones must never reach the binary search —
        // see the filter in [`CommSchedule::from_recv_sets`].
        self.lookup = self
            .recv_records
            .iter()
            .filter(|r| !r.is_empty())
            .map(|r| (r.low, r.high, r.buffer))
            .collect();
        self.lookup.sort_unstable();
    }

    /// Fill the localized reference table by enumerating every executed
    /// iteration's references in executor order (local iterations, then
    /// nonlocal ones) — the closed-form planners' half of plan-time
    /// localization; the inspector fills the table in its own locality
    /// pass instead.
    ///
    /// `refs_of(i, out)` pushes iteration `i`'s global references in the
    /// order the loop body reads them.  An owned element resolves to its
    /// `local_index`, a received one to `owned + buffer position` through
    /// one binary search.  Panics if a reference is neither owned nor
    /// received (the schedule does not serve the reference pattern), or if
    /// the slots overflow `u32`.
    pub fn localize<D, F>(&mut self, data_dist: &D, mut refs_of: F)
    where
        D: Distribution + ?Sized,
        F: FnMut(usize, &mut Vec<usize>),
    {
        let rank = self.rank;
        let owned = data_dist.local_count(rank);
        assert_slot_space(owned, self.recv_len);
        let executed = self.local_iters.len() + self.nonlocal_iters.len();
        let mut rows = Vec::with_capacity(executed + 1);
        rows.push(0u32);
        let mut slots = Vec::new();
        let mut refs = Vec::new();
        for (row, &i) in self
            .local_iters
            .iter()
            .chain(&self.nonlocal_iters)
            .enumerate()
        {
            refs.clear();
            refs_of(i, &mut refs);
            reserve_rows(&mut slots, row, refs.len(), executed);
            for &g in &refs {
                let slot = if data_dist.owner(g) == rank {
                    data_dist.local_index(g)
                } else {
                    owned
                        + self.find(g).unwrap_or_else(|| {
                            panic!(
                                "iteration {i} references element {g}, which rank {rank} \
                                 neither owns nor receives"
                            )
                        })
                };
                slots.push(slot as u32);
            }
            rows.push(row_start(slots.len()));
        }
        self.owned = owned;
        self.ref_rows = rows;
        self.ref_slots = slots;
    }

    /// The slots of row `row` of the localized reference table (the
    /// `row`-th executed iteration in executor order).
    pub fn ref_row(&self, row: usize) -> &[u32] {
        &self.ref_slots[self.ref_rows[row] as usize..self.ref_rows[row + 1] as usize]
    }

    /// Approximate heap footprint of the schedule in bytes — the quantity
    /// the schedule cache sums into its resident-bytes gauge.  Counts the
    /// record vectors, the iteration lists, the localized reference table
    /// and the lookup table; exact allocator overhead is not modelled.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + (self.recv_records.len() + self.send_records.len())
                * std::mem::size_of::<RangeRecord>()
            + (self.local_iters.len() + self.nonlocal_iters.len()) * std::mem::size_of::<usize>()
            + (self.ref_rows.len() + self.ref_slots.len()) * std::mem::size_of::<u32>()
            + self.lookup.len() * std::mem::size_of::<(usize, usize, usize)>()
    }

    /// Number of distinct processors this processor receives from.
    pub fn recv_partner_count(&self) -> usize {
        count_distinct(self.recv_records.iter().map(|r| r.from_proc))
    }

    /// Number of distinct processors this processor sends to.
    pub fn send_partner_count(&self) -> usize {
        count_distinct(self.send_records.iter().map(|r| r.to_proc))
    }

    /// Total number of elements this processor sends.
    pub fn send_len(&self) -> usize {
        self.send_records.iter().map(RangeRecord::len).sum()
    }

    /// Number of range records held (the `r` of the `O(log r)` bound).
    pub fn range_count(&self) -> usize {
        self.recv_records.len()
    }

    /// Group receive records by sending processor, in ascending processor
    /// order.  Each group's records are sorted by `low` and its buffer
    /// region is contiguous.
    pub fn recv_messages(&self) -> Vec<(usize, &[RangeRecord])> {
        group_by_proc(&self.recv_records, |r| r.from_proc)
    }

    /// Group send records by destination processor, in ascending processor
    /// order.
    pub fn send_messages(&self) -> Vec<(usize, &[RangeRecord])> {
        group_by_proc(&self.send_records, |r| r.to_proc)
    }

    /// True when the receive-buffer offsets are densely sequential in
    /// `(from_proc, low)` order — the layout [`CommSchedule::from_recv_sets`]
    /// produces.  The executor's packed receive path relies on this: it
    /// appends each incoming message to one contiguous buffer and every
    /// element must land exactly at its record's `buffer` offset.
    pub fn recv_layout_is_dense(&self) -> bool {
        let mut pos = 0usize;
        let contiguous = self.recv_records.iter().all(|r| {
            let ok = r.buffer == pos;
            pos += r.len();
            ok
        });
        contiguous && pos == self.recv_len
    }

    /// Find the communication-buffer position of a received global index by
    /// binary search over the range records (`O(log r)`, §3.3).  Planning
    /// resolves each nonlocal reference through it once; the executor reads
    /// the resulting slots and never searches.
    pub fn find(&self, global: usize) -> Option<usize> {
        let idx = self.lookup.partition_point(|&(low, _, _)| low <= global);
        let (low, high, buffer) = *self.lookup.get(idx.checked_sub(1)?)?;
        (global < high).then(|| buffer + (global - low))
    }

    /// The set of global indices this processor receives (for tests and
    /// reporting).
    pub fn recv_index_set(&self) -> IndexSet {
        IndexSet::from_ranges(
            self.recv_records
                .iter()
                .map(|r| IndexRange::new(r.low, r.high)),
        )
    }

    /// The set of global indices this processor sends.
    pub fn send_index_set(&self) -> IndexSet {
        IndexSet::from_ranges(
            self.send_records
                .iter()
                .map(|r| IndexRange::new(r.low, r.high)),
        )
    }

    /// Normalised copy for equality testing: buffer offsets and record order
    /// are implementation details of how the schedule was built, so
    /// comparisons between the compile-time and run-time analyses use the
    /// index sets and iteration lists only.
    pub fn signature(&self) -> ScheduleSignature {
        let mut recv_by_proc: Vec<(usize, Vec<IndexRange>)> = self
            .recv_messages()
            .into_iter()
            .map(|(q, recs)| {
                (
                    q,
                    recs.iter()
                        .map(|r| IndexRange::new(r.low, r.high))
                        .collect(),
                )
            })
            .collect();
        recv_by_proc.sort();
        let mut send_by_proc: Vec<(usize, Vec<IndexRange>)> = self
            .send_messages()
            .into_iter()
            .map(|(q, recs)| {
                (
                    q,
                    recs.iter()
                        .map(|r| IndexRange::new(r.low, r.high))
                        .collect(),
                )
            })
            .collect();
        send_by_proc.sort();
        ScheduleSignature {
            rank: self.rank,
            recv_by_proc,
            send_by_proc,
            local_iters: self.local_iters.clone(),
            nonlocal_iters: self.nonlocal_iters.clone(),
        }
    }
}

/// Order-independent summary of a schedule, used to compare schedules built
/// by different analyses (compile-time vs inspector).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleSignature {
    /// Processor the schedule belongs to.
    pub rank: usize,
    /// Received ranges grouped by sender.
    pub recv_by_proc: Vec<(usize, Vec<IndexRange>)>,
    /// Sent ranges grouped by receiver.
    pub send_by_proc: Vec<(usize, Vec<IndexRange>)>,
    /// Iterations with only local references.
    pub local_iters: Vec<usize>,
    /// Iterations with at least one nonlocal reference.
    pub nonlocal_iters: Vec<usize>,
}

/// Assert at plan time that every reference slot of a rank owning `owned`
/// elements and receiving `recv_len` fits the table's `u32` slots.
pub(crate) fn assert_slot_space(owned: usize, recv_len: usize) {
    assert!(
        owned
            .checked_add(recv_len)
            .is_some_and(|n| n < u32::MAX as usize),
        "{owned} owned + {recv_len} received elements overflow the u32 reference slots"
    );
}

/// Size a reference table's slot vector from its first row: a stencil's
/// rows are all alike, so `first row length × rows` is exact for them and
/// the table grows without reallocation copies; irregular rows fall back
/// to ordinary growth.
pub(crate) fn reserve_rows(slots: &mut Vec<u32>, row: usize, len: usize, rows: usize) {
    if row == 0 {
        slots.reserve(len * rows);
    }
}

/// A row start of the localized reference table, asserting at plan time
/// that the table's length fits `u32`.
pub(crate) fn row_start(len: usize) -> u32 {
    u32::try_from(len)
        .unwrap_or_else(|_| panic!("{len} planned references overflow the u32 row starts"))
}

fn count_distinct<I: Iterator<Item = usize>>(iter: I) -> usize {
    let mut v: Vec<usize> = iter.collect();
    v.sort_unstable();
    v.dedup();
    v.len()
}

fn group_by_proc<F: Fn(&RangeRecord) -> usize>(
    records: &[RangeRecord],
    key: F,
) -> Vec<(usize, &[RangeRecord])> {
    let mut out = Vec::new();
    let mut start = 0usize;
    while start < records.len() {
        let p = key(&records[start]);
        let mut end = start + 1;
        while end < records.len() && key(&records[end]) == p {
            end += 1;
        }
        out.push((p, &records[start..end]));
        start = end;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_schedule() -> CommSchedule {
        // Rank 1 of 4 receives [10,13) from proc 0 and [20,22)+[30,31) from proc 2.
        let recv_sets = vec![
            IndexSet::from_range(10, 13),
            IndexSet::new(),
            IndexSet::from_ranges([IndexRange::new(20, 22), IndexRange::new(30, 31)]),
            IndexSet::new(),
        ];
        let mut s = CommSchedule::from_recv_sets(1, &recv_sets, vec![5, 6], vec![7, 8, 9]);
        s.set_send_records(vec![
            RangeRecord {
                from_proc: 1,
                to_proc: 2,
                low: 15,
                high: 17,
                buffer: 0,
            },
            RangeRecord {
                from_proc: 1,
                to_proc: 0,
                low: 14,
                high: 15,
                buffer: 3,
            },
        ]);
        s
    }

    #[test]
    fn buffer_offsets_are_contiguous_in_record_order() {
        let s = sample_schedule();
        assert_eq!(s.recv_len, 6);
        assert_eq!(s.recv_records[0].buffer, 0);
        assert_eq!(s.recv_records[1].buffer, 3);
        assert_eq!(s.recv_records[2].buffer, 5);
        assert_eq!(s.range_count(), 3);
        assert!(s.recv_layout_is_dense());
    }

    #[test]
    fn perturbed_offsets_are_not_a_dense_layout() {
        let mut s = sample_schedule();
        s.recv_records[1].buffer += 1;
        assert!(!s.recv_layout_is_dense());
    }

    #[test]
    fn find_locates_received_elements() {
        let s = sample_schedule();
        assert_eq!(s.find(10), Some(0));
        assert_eq!(s.find(12), Some(2));
        assert_eq!(s.find(20), Some(3));
        assert_eq!(s.find(21), Some(4));
        assert_eq!(s.find(30), Some(5));
        // Elements never received.
        assert_eq!(s.find(13), None);
        assert_eq!(s.find(9), None);
        assert_eq!(s.find(25), None);
        assert_eq!(s.find(31), None);
    }

    #[test]
    fn messages_group_by_partner() {
        let s = sample_schedule();
        let recv = s.recv_messages();
        assert_eq!(recv.len(), 2);
        assert_eq!(recv[0].0, 0);
        assert_eq!(recv[0].1.len(), 1);
        assert_eq!(recv[1].0, 2);
        assert_eq!(recv[1].1.len(), 2);
        assert_eq!(s.recv_partner_count(), 2);

        let send = s.send_messages();
        assert_eq!(send.len(), 2);
        // Sorted by destination processor.
        assert_eq!(send[0].0, 0);
        assert_eq!(send[1].0, 2);
        assert_eq!(s.send_partner_count(), 2);
        assert_eq!(s.send_len(), 3);
    }

    #[test]
    fn index_sets_round_trip() {
        let s = sample_schedule();
        let recv = s.recv_index_set();
        assert_eq!(recv.len(), 6);
        assert!(recv.contains(11));
        assert!(recv.contains(30));
        assert!(!recv.contains(14));
        let send = s.send_index_set();
        assert_eq!(send.len(), 3);
        assert!(send.contains(16));
    }

    #[test]
    fn empty_schedule_is_well_formed() {
        let sets = vec![IndexSet::new(), IndexSet::new(), IndexSet::new()];
        let s = CommSchedule::from_recv_sets(0, &sets, vec![0, 1, 2], vec![]);
        assert_eq!(s.recv_len, 0);
        assert_eq!(s.range_count(), 0);
        assert_eq!(s.find(0), None);
        assert!(s.recv_messages().is_empty());
        assert_eq!(s.local_iters, vec![0, 1, 2]);
    }

    #[test]
    fn empty_ranges_never_become_records() {
        // Regression: `from_recv_sets` used to emit a RangeRecord for every
        // range of the IndexSet, including zero-length ones.  An empty
        // `(g, g)` record sorting after a covering `(lo, hi)` range makes
        // `find`'s "last range with low <= g" probe land on the empty record
        // and miss the covering one.
        let recv_sets = vec![
            IndexSet::new(),
            IndexSet::from_range(5, 9), // covering range from proc 1
        ];
        let mut s = CommSchedule::from_recv_sets(0, &recv_sets, vec![], vec![]);
        assert_eq!(s.range_count(), 1);
        assert_eq!(s.recv_len, 4);
        // Inject an empty record the way a buggy or hand-rolled analysis
        // might, and rebuild the lookup: the search must stay unambiguous.
        s.recv_records.push(RangeRecord {
            from_proc: 1,
            to_proc: 0,
            low: 7,
            high: 7,
            buffer: 99,
        });
        s.rebuild_lookup();
        for g in 5..9 {
            assert_eq!(
                s.find(g),
                Some(g - 5),
                "index {g} must resolve through the covering range"
            );
        }
        assert_eq!(s.find(9), None);
        assert_eq!(s.find(4), None);
    }

    #[test]
    fn localize_resolves_owned_and_received_slots_in_executor_order() {
        // Rank 1 of block(8, 2) owns 4..8 and receives 2..4 from rank 0.
        // Iteration 6 is local; 4 and 5 read received elements.
        use distrib::DimDist;
        let dist = DimDist::block(8, 2);
        let recv_sets = vec![IndexSet::from_range(2, 4), IndexSet::new()];
        let mut s = CommSchedule::from_recv_sets(1, &recv_sets, vec![6], vec![4, 5]);
        assert_eq!(s.ref_rows, vec![0, 0, 0, 0], "one empty row per iteration");
        s.localize(&dist, |i, out| out.extend([i, i - 2]));
        assert_eq!(s.owned, 4);
        // Rows in executor order: 6, then 4, then 5.
        assert_eq!(s.ref_row(0), &[2, 0]);
        assert_eq!(s.ref_row(1), &[0, 4]);
        assert_eq!(s.ref_row(2), &[1, 5]);
        assert_eq!(s.ref_rows, vec![0, 2, 4, 6]);
    }

    #[test]
    #[should_panic(expected = "neither owns nor receives")]
    fn localizing_an_unscheduled_reference_panics() {
        use distrib::DimDist;
        let dist = DimDist::block(8, 2);
        let mut s = CommSchedule::from_recv_sets(0, &[], vec![], vec![1]);
        s.localize(&dist, |_, out| out.push(6));
    }

    #[test]
    #[should_panic(expected = "overflow the u32 reference slots")]
    fn slot_space_past_u32_is_rejected() {
        assert_slot_space(u32::MAX as usize - 3, 3);
    }

    #[test]
    fn approx_bytes_grows_with_content() {
        let empty = CommSchedule::from_recv_sets(0, &[], vec![], vec![]);
        let full = sample_schedule();
        assert!(empty.approx_bytes() >= std::mem::size_of::<CommSchedule>());
        assert!(full.approx_bytes() > empty.approx_bytes());
    }

    #[test]
    #[should_panic(expected = "never receives its own")]
    fn self_receive_is_rejected() {
        let sets = vec![IndexSet::from_range(0, 1), IndexSet::new()];
        let _ = CommSchedule::from_recv_sets(0, &sets, vec![], vec![]);
    }

    #[test]
    fn signatures_ignore_buffer_layout() {
        let a = sample_schedule();
        let mut b = sample_schedule();
        // Perturb buffer offsets; the signature must not change.
        for r in &mut b.recv_records {
            r.buffer += 100;
        }
        assert_eq!(a.signature(), b.signature());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn find_agrees_with_recv_index_set(
                ranges in proptest::collection::vec((0usize..500, 1usize..20), 0..12)
            ) {
                // Build disjoint sets per "source" processor.
                let nprocs = 5usize;
                let rank = 0usize;
                let mut sets = vec![IndexSet::new(); nprocs];
                let mut claimed = IndexSet::new();
                for (k, (start, len)) in ranges.iter().enumerate() {
                    let q = 1 + (k % (nprocs - 1));
                    let r = IndexRange::new(*start, start + len);
                    let fresh = IndexSet::from_ranges([r]).difference(&claimed);
                    claimed = claimed.union(&fresh);
                    sets[q] = sets[q].union(&fresh);
                }
                let s = CommSchedule::from_recv_sets(rank, &sets, vec![], vec![]);
                let set = s.recv_index_set();
                prop_assert_eq!(set.len(), s.recv_len);
                for g in 0..600usize {
                    prop_assert_eq!(s.find(g).is_some(), set.contains(g), "index {}", g);
                }
                // All buffer positions are distinct and within bounds.
                let mut positions: Vec<usize> = set.iter().filter_map(|g| s.find(g)).collect();
                positions.sort_unstable();
                positions.dedup();
                prop_assert_eq!(positions.len(), s.recv_len);
                prop_assert!(positions.iter().all(|&p| p < s.recv_len));
            }
        }
    }
}
