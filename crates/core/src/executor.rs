//! The executor: carry out one execution of a `forall` under a schedule.
//!
//! Figure 3 of the paper gives the structure generated for every `forall`:
//!
//! ```text
//! -- Send messages to other processors
//! for each q with out(p,q) ≠ ∅:  send(q, out(p,q))
//! -- Do local iterations
//! for each i ∈ exec(p) ∩ ref(p): …A[g(i)]…
//! -- Receive messages from other processors
//! for each q with in(p,q) ≠ ∅:   tmp[in(p,q)] := recv(q)
//! -- Do nonlocal iterations
//! for each i ∈ exec(p) − ref(p): …tmp[g(i)]…
//! ```
//!
//! Doing the local iterations *between* the sends and the receives overlaps
//! communication with computation; the received elements live in one
//! contiguous communication buffer.
//!
//! References are **localized at plan time**: the schedule's reference
//! table already holds, for every reference of every executed iteration,
//! its slot in the ghost-extended array `[owned | receive buffer]`.  The
//! paper's executor tests locality and binary-searches the range records on
//! every nonlocal reference; this one reads `slot < owned ? local[slot] :
//! recv[slot − owned]`, and nothing else.  The paper's costs are still
//! charged on dmsim — each read counts one local or one nonlocal access,
//! and the §4 binary-search cost `O(log r)` is charged per nonlocal access
//! through [`Process::charge_nonlocal_accesses`] — so simulated clocks and
//! the paper's tables are those of the searching executor.
//!
//! [`execute_sweep`] is the one executor every `forall` runs on.  Its loop
//! body is a read-only view of the sweep: it reads its planned references
//! through a [`Fetcher`] and returns one value per iteration, and the
//! caller's `sink` applies the writes on the rank's own thread.  Each
//! iteration list runs in fixed-boundary chunks, inline at one worker or
//! spread over an intra-rank worker pool ([`crate::pool`]); each chunk's
//! costs and values reach the process and the sink as soon as it and every
//! chunk before it have finished, in ascending iteration order, so the
//! worker count and chunk size never change a result and only out-of-order
//! chunks are ever buffered.

use distrib::Distribution;

use crate::process::trace::EventKind;
use crate::process::{tags, Process, Tag};
use crate::schedule::CommSchedule;

/// Default chunk length (in iterations) for the executor when no explicit
/// chunk size is configured.  Large enough that per-chunk overhead
/// (one result `Vec`, one cost flush) is negligible, small enough that a
/// worker pool load-balances across chunks.
pub const DEFAULT_CHUNK: usize = 2048;

/// Knobs for the executor, mostly used by the ablation benchmarks.
#[derive(Debug, Clone, Copy)]
pub struct ExecutorConfig {
    /// Overlap communication with the local iterations (the paper's code
    /// shape).  When `false`, messages are received immediately after they
    /// are sent and the local iterations run afterwards.
    pub overlap: bool,
    /// Tag offset distinguishing successive executions (sweep number).
    pub tag: Tag,
    /// Intra-rank worker threads for [`execute_sweep`].  `1` (the default)
    /// runs every chunk inline on the calling thread — no threads are
    /// spawned.  Results never depend on this knob.
    pub workers: usize,
    /// Chunk length for [`execute_sweep`], in iterations; `0` (the default)
    /// picks [`DEFAULT_CHUNK`].  Results never depend on this knob
    /// either — only the granularity of work distribution does.
    pub chunk: usize,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            overlap: true,
            tag: 0,
            workers: 1,
            chunk: 0,
        }
    }
}

impl ExecutorConfig {
    /// Configuration for sweep number `sweep` with overlap enabled.
    ///
    /// Sweep numbers wrap within the executor's tag window
    /// ([`tags::SPAN`]): a long-running program's sweep counter must never
    /// walk the executor tags into an adjacent component's reserved range.
    /// Wrapping is safe because messages between a processor pair with the
    /// same tag are delivered in send order, so two sweeps a full window
    /// apart can never be confused.
    pub fn sweep(sweep: usize) -> Self {
        ExecutorConfig {
            tag: (sweep as Tag) % tags::SPAN,
            ..ExecutorConfig::default()
        }
    }

    /// The same configuration with overlap switched as given (the ablation
    /// knob of the paper's executor shape).
    pub fn with_overlap(mut self, overlap: bool) -> Self {
        self.overlap = overlap;
        self
    }

    /// The same configuration with the given intra-rank worker count
    /// (clamped to at least 1).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// The same configuration with the given chunk length (`0` = default).
    pub fn with_chunk(mut self, chunk: usize) -> Self {
        self.chunk = chunk;
        self
    }

    /// The chunk length this configuration resolves to.
    pub fn effective_chunk(&self) -> usize {
        if self.chunk > 0 {
            self.chunk
        } else {
            DEFAULT_CHUNK
        }
    }
}

/// Gather and send every scheduled outgoing message: one packed contiguous
/// buffer per destination, drawn from the backend's buffer pool
/// ([`Process::acquire_send_buffer`]) so a steady-state sweep allocates
/// nothing on pooling backends.
fn send_phase<P, D, T>(
    proc: &mut P,
    schedule: &CommSchedule,
    data_dist: &D,
    local_data: &[T],
    tag: Tag,
) where
    P: Process,
    D: Distribution + ?Sized,
    T: Copy + kali_process::Wire,
{
    for (to_proc, records) in schedule.send_messages() {
        let count: usize = records.iter().map(|r| r.len()).sum();
        let mut payload = proc.acquire_send_buffer::<T>(count);
        for record in records {
            // Gather: translate and read each owned element (2 memory
            // references apiece, charged in bulk per record).
            proc.charge_mem_refs(2 * record.len());
            for g in record.low..record.high {
                payload.push(local_data[data_dist.local_index(g)]);
            }
        }
        proc.send_packed(to_proc, tag, payload);
    }
}

/// Receive every scheduled message directly into one contiguous
/// communication buffer.
///
/// [`CommSchedule::from_recv_sets`] assigns buffer offsets densely in
/// exactly the order [`CommSchedule::recv_messages`] iterates (ascending
/// sender, ascending `low`), so appending each incoming message lands every
/// element at its record's offset — no per-element scatter, no `Option`
/// intermediary, one allocation per sweep.  A debug-only check verifies the
/// dense-layout contract record by record.
fn receive_all<P, T>(proc: &mut P, schedule: &CommSchedule, tag: Tag) -> Vec<T>
where
    P: Process,
    T: Copy + kali_process::Wire,
{
    debug_assert!(
        schedule.recv_layout_is_dense(),
        "packed receive requires the dense buffer layout from_recv_sets assigns"
    );
    let mut recv_buf: Vec<T> = Vec::with_capacity(schedule.recv_len);
    for (from_proc, records) in schedule.recv_messages() {
        let expected: usize = records.iter().map(|r| r.len()).sum();
        debug_assert_eq!(
            records.first().map(|r| r.buffer),
            Some(recv_buf.len()),
            "message from {from_proc} does not start at the buffer cursor"
        );
        let got = proc.recv_packed_append(from_proc, tag, &mut recv_buf);
        assert_eq!(
            got, expected,
            "message from {from_proc} has {got} elements, schedule expects {expected}"
        );
        // Unpack cost: one translate + one store per element, as before.
        proc.charge_mem_refs(2 * expected);
    }
    debug_assert_eq!(
        recv_buf.len(),
        schedule.recv_len,
        "receive buffer not completely filled"
    );
    recv_buf
}

// ----------------------------------------------------------------------
// Chunked iteration phases
// ----------------------------------------------------------------------

/// Cost counters accumulated by one chunk of iterations, merged into the
/// process deterministically after the chunk completes.
///
/// Loop bodies may run off the rank's own thread, where no `&mut P` exists;
/// they charge into this plain struct through the [`Fetcher`], and the
/// executor flushes every chunk's counters **in ascending chunk order**.
/// The bulk charge hooks repeat the singular ones, so a metering backend's
/// clock sees the same additions at every `(workers, chunk)` setting — only
/// their grouping follows the chunk boundaries, never the totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct ChunkCosts {
    /// Loop iterations of control overhead.
    loop_iters: usize,
    /// Local memory references.
    mem_refs: usize,
    /// Floating-point operations.
    flops: usize,
    /// Procedure calls.
    calls: usize,
    /// Local distributed-array accesses.
    local_accesses: usize,
    /// Nonlocal accesses, charged at the paper's binary-search cost.
    nonlocal_accesses: usize,
}

impl ChunkCosts {
    /// Charge this chunk's accumulated costs to the process.  `ranges` is
    /// the schedule's record count (the `r` of the binary-search cost).
    fn flush_into<P: Process>(&self, proc: &mut P, ranges: usize) {
        proc.charge_loop_iters(self.loop_iters);
        proc.charge_mem_refs(self.mem_refs);
        proc.charge_flops(self.flops);
        proc.charge_calls(self.calls);
        proc.charge_local_accesses(self.local_accesses);
        proc.charge_nonlocal_accesses(ranges, self.nonlocal_accesses);
    }
}

/// A loop body's view of its iteration's planned references.
///
/// [`Fetcher::get`]`(j)` reads reference `j` of the current iteration — the
/// `j`-th element the plan's reference enumerator (`refs_of`, or the affine
/// maps in order, out-of-bounds ones skipped) listed for it — through the
/// slot localized at plan time.
///
/// The fetcher holds no process handle, so a chunk can run on any worker
/// thread.  Access costs — and the body's own arithmetic, charged through
/// the `charge_*` methods — accumulate per chunk and are merged into the
/// process deterministically afterwards, so the same body produces the same
/// accounting at any worker count.
pub struct Fetcher<'a, T> {
    local_data: &'a [T],
    recv_buf: &'a [T],
    /// Slots below `owned` index `local_data`, the rest `recv_buf`.
    owned: usize,
    /// The current iteration's slots, in plan order.
    refs: &'a [u32],
    /// The current iteration (named when a body reads past its plan).
    iter: usize,
    costs: ChunkCosts,
}

impl<'a, T: Copy> Fetcher<'a, T> {
    /// Read reference `j` of the current iteration.
    ///
    /// Panics if the plan lists fewer than `j + 1` references for the
    /// iteration — the body and the plan disagree about the reference
    /// pattern, a correctness bug.  The panic names the iteration, charges
    /// nothing, and propagates to the calling rank with the chunk's costs
    /// discarded unflushed.
    #[inline]
    pub fn get(&mut self, j: usize) -> T {
        let Some(&slot) = self.refs.get(j) else {
            self.unplanned(j)
        };
        let slot = slot as usize;
        if slot < self.owned {
            self.costs.local_accesses += 1;
            self.local_data[slot]
        } else {
            self.costs.nonlocal_accesses += 1;
            self.recv_buf[slot - self.owned]
        }
    }

    #[cold]
    #[inline(never)]
    fn unplanned(&self, j: usize) -> ! {
        panic!(
            "iteration {} reads reference {j}, but its plan lists {} reference(s)",
            self.iter,
            self.refs.len()
        )
    }

    /// Charge `n` floating-point operations to this chunk.
    pub fn charge_flops(&mut self, n: usize) {
        self.costs.flops += n;
    }

    /// Charge `n` local memory references to this chunk.
    pub fn charge_mem_refs(&mut self, n: usize) {
        self.costs.mem_refs += n;
    }

    /// Charge `n` loop iterations of control overhead to this chunk.
    pub fn charge_loop_iters(&mut self, n: usize) {
        self.costs.loop_iters += n;
    }

    /// Charge `n` procedure calls to this chunk.
    pub fn charge_calls(&mut self, n: usize) {
        self.costs.calls += n;
    }
}

/// Execute one sweep of a `forall` whose nonlocal data movement is described
/// by `schedule`, in the code shape of Figure 3: send, local iterations,
/// receive, nonlocal iterations.
///
/// * `data_dist` / `local_data` — distribution and local storage of the
///   array referenced inside the loop body (the paper's `old_a`);
///   `local_data` must be the storage the schedule was planned for
///   (`schedule.owned` elements).
/// * `body` — the loop body: a **read-only view** of the sweep (`Fn`, not
///   `FnMut`) that receives the global iteration index and a [`Fetcher`]
///   for reading the iteration's planned references, and returns one value
///   per iteration.
/// * `sink` — applies the writes: `sink(i, value)` runs on the calling
///   thread, in ascending iteration order within each phase.
///
/// Each phase's iteration list is split into deterministic fixed-boundary
/// chunks ([`ExecutorConfig::chunk`]) executed on up to
/// [`ExecutorConfig::workers`] threads via [`crate::pool::run_chunks`]; at
/// one worker every chunk runs inline on the calling thread.  Each chunk's
/// costs and values merge as soon as it and its predecessors finish, in
/// ascending chunk order, so results and metered counters are a function
/// of the schedule and the body alone — never of the worker count or chunk
/// size.
///
/// Every processor must call this collectively.  Returns the number of
/// iterations executed locally (for reporting).
pub fn execute_sweep<P, D, T, V, F, W>(
    proc: &mut P,
    config: ExecutorConfig,
    schedule: &CommSchedule,
    data_dist: &D,
    local_data: &[T],
    body: F,
    mut sink: W,
) -> usize
where
    P: Process,
    D: Distribution + ?Sized,
    T: Copy + Sync + kali_process::Wire,
    V: Send,
    F: Fn(usize, &mut Fetcher<'_, T>) -> V + Sync,
    W: FnMut(usize, V),
{
    let rank = proc.rank();
    debug_assert_eq!(
        schedule.rank, rank,
        "schedule belongs to a different processor"
    );
    let executed = schedule.local_iters.len() + schedule.nonlocal_iters.len();
    assert_eq!(
        schedule.ref_rows.len(),
        executed + 1,
        "the schedule's reference table does not cover its iterations"
    );
    debug_assert!(
        schedule.ref_slots.is_empty() || local_data.len() == schedule.owned,
        "local data has {} elements, the schedule was planned for {}",
        local_data.len(),
        schedule.owned
    );
    let tag = tags::executor_tag(config.tag);
    let workers = config.workers.max(1);
    let chunk = config.effective_chunk();
    let ranges = schedule.range_count();
    send_phase(proc, schedule, data_dist, local_data, tag);

    // Run one phase: `iters` are rows `first_row..` of the reference table.
    let mut run_phase = |proc: &mut P, phase: usize, first_row: usize, recv_buf: &[T]| {
        let iters = if phase == 0 {
            &schedule.local_iters
        } else {
            &schedule.nonlocal_iters
        };
        let bounds = crate::pool::chunk_bounds(iters.len(), chunk);
        if proc.trace_active() {
            // One claim per chunk, recorded on the rank's thread before the
            // pool runs: the trace analyzer proves the claims of a phase
            // cover disjoint iteration positions (the sink's exclusivity).
            for &(start, end) in &bounds {
                proc.trace_emit(EventKind::ChunkClaim {
                    sweep: config.tag,
                    phase,
                    low: start,
                    high: end,
                });
            }
        }
        crate::pool::run_chunks(
            workers,
            bounds.len(),
            |ci| {
                let (start, end) = bounds[ci];
                let mut fetch = Fetcher {
                    local_data,
                    recv_buf,
                    owned: schedule.owned,
                    refs: &[],
                    iter: 0,
                    costs: ChunkCosts::default(),
                };
                let mut values = Vec::with_capacity(end - start);
                let rows = &schedule.ref_rows[first_row + start..=first_row + end];
                for (row, &i) in rows.windows(2).zip(&iters[start..end]) {
                    fetch.refs = &schedule.ref_slots[row[0] as usize..row[1] as usize];
                    fetch.iter = i;
                    fetch.costs.loop_iters += 1;
                    values.push(body(i, &mut fetch));
                }
                (values, fetch.costs)
            },
            |ci, (values, costs): (Vec<V>, ChunkCosts)| {
                costs.flush_into(proc, ranges);
                for (&i, value) in iters[bounds[ci].0..].iter().zip(values) {
                    sink(i, value);
                }
            },
        );
    };

    let local_rows = schedule.local_iters.len();
    if config.overlap {
        // Paper order: local iterations run while messages are in flight.
        run_phase(proc, 0, 0, &[]);
        let recv_buf = receive_all(proc, schedule, tag);
        run_phase(proc, 1, local_rows, &recv_buf);
    } else {
        // Ablation: no overlap — wait for all data first.
        let recv_buf = receive_all(proc, schedule, tag);
        run_phase(proc, 0, 0, &recv_buf);
        run_phase(proc, 1, local_rows, &recv_buf);
    }
    executed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inspector::{owner_computes_iters, run_inspector};
    use distrib::DimDist;
    use dmsim::{CostModel, Machine};

    /// Strip the pending-queue high-water mark before comparing counter
    /// totals: queue occupancy is a thread-scheduling observation, not a
    /// metered cost, so it sits outside the knob-independence contract.
    fn masked(c: crate::process::Counters) -> crate::process::Counters {
        crate::process::Counters { queue_peak: 0, ..c }
    }

    /// `(workers, chunk)` settings every knob-independence test sweeps; the
    /// first point — one worker, default chunk — is the reference.
    const KNOB_GRID: [(usize, usize); 7] =
        [(1, 0), (1, 1), (1, 7), (2, 3), (3, 1), (4, 0), (4, 1024)];

    /// Distributed array shift (Figure 1): A[i] := A[i+1].  Returns the
    /// reassembled global array and the machine-wide counter totals.
    fn run_shift(
        nprocs: usize,
        n: usize,
        config: ExecutorConfig,
        cost: CostModel,
    ) -> (Vec<f64>, crate::process::Counters) {
        let machine = Machine::new(nprocs, cost);
        let (results, stats) = machine.run_stats(|proc| {
            let dist = DimDist::block(n, proc.nprocs());
            let rank = proc.rank();
            // Local pieces of A, initialised to the global values i*1.0.
            let local_a: Vec<f64> = dist.local_set(rank).iter().map(|g| g as f64).collect();
            let exec = owner_computes_iters(&dist, rank, n - 1);
            let schedule = run_inspector(proc, &dist, &exec, |i, refs| refs.push(i + 1));
            let mut new_a = local_a.clone();
            execute_sweep(
                proc,
                config,
                &schedule,
                &dist,
                &local_a,
                |_, fetch| fetch.get(0),
                |i, v| new_a[dist.local_index(i)] = v,
            );
            (rank, new_a)
        });
        // Reassemble the global array.
        let dist = DimDist::block(n, nprocs);
        let mut global = vec![0.0; n];
        for (rank, local) in results {
            for (l, v) in local.into_iter().enumerate() {
                global[dist.global_index(rank, l)] = v;
            }
        }
        (global, stats.totals)
    }

    #[test]
    fn shift_matches_sequential_semantics() {
        for nprocs in [1, 2, 4, 8] {
            for overlap in [true, false] {
                let n = 64;
                let config = ExecutorConfig::default().with_overlap(overlap);
                let (got, _) = run_shift(nprocs, n, config, CostModel::ideal());
                let mut expected: Vec<f64> = (0..n).map(|i| (i + 1) as f64).collect();
                expected[n - 1] = (n - 1) as f64;
                assert_eq!(got, expected, "nprocs={nprocs} overlap={overlap}");
            }
        }
    }

    #[test]
    fn executor_sends_one_message_per_neighbour_pair() {
        let (_, totals) = run_shift(4, 64, ExecutorConfig::default(), CostModel::ideal());
        // Inspector: the crystal router sends log2(4) = 2 messages per proc
        // (4*2 = 8).  Executor: 3 boundary messages in total.
        assert_eq!(totals.msgs_sent, 8 + 3);
        // Executor moves exactly 3 halo elements of 8 bytes each.
        let executor_bytes: u64 = 3 * 8;
        assert!(totals.bytes_sent >= executor_bytes);
    }

    #[test]
    fn nonlocal_access_costs_more_than_local_access() {
        let run = |cost: CostModel| {
            let machine = Machine::new(2, cost);
            let (_, stats) = machine.run_stats(|proc| {
                let n = 32;
                let dist = DimDist::block(n, proc.nprocs());
                let rank = proc.rank();
                let local_a: Vec<f64> = dist.local_set(rank).iter().map(|g| g as f64).collect();
                let exec = owner_computes_iters(&dist, rank, n - 1);
                let schedule = run_inspector(proc, &dist, &exec, |i, refs| refs.push(i + 1));
                execute_sweep(
                    proc,
                    ExecutorConfig::default(),
                    &schedule,
                    &dist,
                    &local_a,
                    |_, fetch| fetch.get(0),
                    |_, _| {},
                );
            });
            stats.time
        };
        let ideal = run(CostModel::ideal());
        let ncube = run(CostModel::ncube7());
        assert_eq!(ideal, 0.0);
        assert!(ncube > 0.0);
    }

    /// A fetcher over iteration `iter`'s planned slots.
    fn fetcher<'a>(
        schedule: &'a CommSchedule,
        row: usize,
        iter: usize,
        local_data: &'a [f64],
        recv_buf: &'a [f64],
    ) -> Fetcher<'a, f64> {
        Fetcher {
            local_data,
            recv_buf,
            owned: schedule.owned,
            refs: schedule.ref_row(row),
            iter,
            costs: ChunkCosts::default(),
        }
    }

    #[test]
    fn reading_past_the_plan_panics_and_charges_nothing() {
        // Rank 0 of a block(8, 2) split: iteration 1 references 2 (owned)
        // and 6 (received); a third read has no planned slot.
        use distrib::IndexSet;
        let dist = DimDist::block(8, 2);
        let recv_sets = vec![IndexSet::new(), IndexSet::from_range(6, 7)];
        let mut schedule = CommSchedule::from_recv_sets(0, &recv_sets, vec![], vec![1]);
        schedule.localize(&dist, |_, refs| refs.extend([2, 6]));
        let local_data = [0.5f64, 1.5, 2.5, 3.5];
        let mut fetch = fetcher(&schedule, 0, 1, &local_data, &[60.0]);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| fetch.get(2)));
        let message = *result
            .expect_err("a read past the plan must panic")
            .downcast::<String>()
            .unwrap();
        assert!(message.contains("iteration 1"), "{message}");
        assert_eq!(
            fetch.costs,
            ChunkCosts::default(),
            "no access may be charged on the panic path"
        );
        // The planned reads charge exactly once each.
        assert_eq!(fetch.get(0), 2.5);
        assert_eq!(fetch.get(1), 60.0);
        assert_eq!(fetch.costs.local_accesses, 1);
        assert_eq!(fetch.costs.nonlocal_accesses, 1);
    }

    #[test]
    fn get_reads_the_element_the_plan_listed() {
        // Repeated, out-of-order and mixed owned/received references: every
        // `get(j)` returns what an owner test plus the schedule's binary
        // search would, and each read is counted by where it landed.
        use distrib::IndexSet;
        let dist = DimDist::block(8, 2); // rank 0 owns 0..4; 4..8 nonlocal
        let recv_sets = vec![IndexSet::new(), IndexSet::from_range(4, 8)];
        let pattern = [4usize, 5, 6, 1, 7, 4, 0, 6];
        let mut schedule = CommSchedule::from_recv_sets(0, &recv_sets, vec![], vec![3]);
        schedule.localize(&dist, |_, refs| refs.extend(pattern));
        let local_data = [0.5f64, 1.5, 2.5, 3.5];
        let recv_buf = [40.0f64, 50.0, 60.0, 70.0];
        let mut fetch = fetcher(&schedule, 0, 3, &local_data, &recv_buf);
        let mut nonlocal = 0;
        for (j, &g) in pattern.iter().enumerate() {
            let expected = match schedule.find(g) {
                Some(pos) => {
                    nonlocal += 1;
                    recv_buf[pos]
                }
                None => local_data[dist.local_index(g)],
            };
            assert_eq!(fetch.get(j).to_bits(), expected.to_bits(), "reference {j}");
        }
        assert_eq!(fetch.costs.nonlocal_accesses, nonlocal);
        assert_eq!(fetch.costs.local_accesses, pattern.len() - nonlocal);
    }

    #[test]
    fn sweep_tags_wrap_within_the_executor_window() {
        // Regression: `sweep as Tag` unchecked would let a long run's sweep
        // counter walk the executor tags into the adjacent reserved range
        // (and trip `executor_tag`'s debug assertion).
        let span = tags::SPAN as usize;
        assert_eq!(ExecutorConfig::sweep(0).tag, 0);
        assert_eq!(ExecutorConfig::sweep(span - 1).tag, tags::SPAN - 1);
        assert_eq!(ExecutorConfig::sweep(span).tag, 0, "boundary must wrap");
        assert_eq!(ExecutorConfig::sweep(span + 5).tag, 5);
        // The wrapped tag is always valid input for executor_tag.
        for sweep in [0, span - 1, span, 3 * span + 17] {
            let t = tags::executor_tag(ExecutorConfig::sweep(sweep).tag);
            assert!((tags::EXECUTOR_BASE..tags::EXECUTOR_BASE + tags::SPAN).contains(&t));
        }
        // Overlap builder keeps the tag.
        let c = ExecutorConfig::sweep(7).with_overlap(false);
        assert!(!c.overlap);
        assert_eq!(c.tag, 7);
    }

    /// The shift of Figure 1 at every point of the knob grid: values and
    /// metered counters (simulated under the NCUBE/7 model) are bitwise
    /// identical to the one-worker run.
    #[test]
    fn shift_is_identical_at_any_workers_and_chunk() {
        let knobs = |(workers, chunk): (usize, usize)| {
            ExecutorConfig::default()
                .with_workers(workers)
                .with_chunk(chunk)
        };
        let (ref_vals, ref_totals) = run_shift(4, 64, knobs(KNOB_GRID[0]), CostModel::ncube7());
        for point in KNOB_GRID {
            let (vals, totals) = run_shift(4, 64, knobs(point), CostModel::ncube7());
            assert_eq!(vals, ref_vals, "values at (workers, chunk) = {point:?}");
            assert_eq!(
                masked(totals),
                masked(ref_totals),
                "counters diverged at (workers, chunk) = {point:?}"
            );
        }
    }

    /// Body charges through the [`Fetcher`] reach the process exactly once
    /// per iteration at every point of the knob grid, whatever the chunk
    /// boundaries.
    #[test]
    fn body_charges_merge_to_the_same_totals_at_any_workers_and_chunk() {
        let n = 40;
        // Per-rank counters of the sweep alone (the inspector excluded).
        let run = |workers: usize, chunk: usize| {
            Machine::new(2, CostModel::ncube7()).run(|proc| {
                let dist = DimDist::block(n, proc.nprocs());
                let rank = proc.rank();
                let local_a: Vec<f64> = dist.local_set(rank).iter().map(|g| g as f64).collect();
                let exec = owner_computes_iters(&dist, rank, n - 1);
                let schedule = run_inspector(proc, &dist, &exec, |i, refs| refs.push(i + 1));
                let before = proc.counters();
                execute_sweep(
                    proc,
                    ExecutorConfig::default()
                        .with_workers(workers)
                        .with_chunk(chunk),
                    &schedule,
                    &dist,
                    &local_a,
                    |_, fetch| {
                        fetch.charge_flops(2);
                        fetch.charge_mem_refs(3);
                        fetch.charge_calls(1);
                        fetch.get(0)
                    },
                    |_, _| {},
                );
                masked(proc.counters().since(&before))
            })
        };
        let reference = run(KNOB_GRID[0].0, KNOB_GRID[0].1);
        let iters = (n - 1) as u64;
        assert_eq!(reference.iter().map(|c| c.flops).sum::<u64>(), 2 * iters);
        assert_eq!(reference.iter().map(|c| c.calls).sum::<u64>(), iters);
        assert_eq!(
            reference.iter().map(|c| c.nonlocal_refs).sum::<u64>(),
            1,
            "one halo element crosses the block boundary"
        );
        for (workers, chunk) in KNOB_GRID {
            assert_eq!(
                run(workers, chunk),
                reference,
                "counters diverged at workers={workers} chunk={chunk}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "SPMD worker panicked")]
    fn reading_an_unplanned_reference_panics() {
        let machine = Machine::new(2, CostModel::ideal());
        machine.run(|proc| {
            let dist = DimDist::block(8, 2);
            let rank = proc.rank();
            let local_a: Vec<f64> = dist.local_set(rank).iter().map(|_| 0.0).collect();
            // Schedule built for one reference per iteration…
            let exec = owner_computes_iters(&dist, rank, 8);
            let schedule = run_inspector(proc, &dist, &exec, |i, refs| refs.push(i));
            // …but the body reads a second one, on a worker thread.
            execute_sweep(
                proc,
                ExecutorConfig::default().with_workers(2).with_chunk(2),
                &schedule,
                &dist,
                &local_a,
                |_, fetch| fetch.get(1),
                |_, _: f64| {},
            );
        });
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Run one sweep of `refs` (iteration `i` reads `refs[i]`, in
        /// order) over an owner table on 3 ranks.  Each element's value is
        /// its global index.  Returns what every body read, per iteration,
        /// and per rank the sweep's nonlocal-access count and simulated
        /// seconds under a model charging one second per local access.
        #[allow(clippy::type_complexity)]
        fn sweep(
            owners: &[usize],
            refs: &[Vec<usize>],
            (workers, chunk): (usize, usize),
        ) -> (Vec<(usize, Vec<f64>)>, Vec<(u64, f64)>) {
            let cost = CostModel {
                flop: 1.0,
                ..CostModel::ideal()
            };
            let per_rank = Machine::new(3, cost).run(|proc| {
                let dist = DimDist::custom(owners.to_vec(), 3);
                let rank = proc.rank();
                let local: Vec<f64> = dist.local_set(rank).iter().map(|g| g as f64).collect();
                let exec = owner_computes_iters(&dist, rank, owners.len());
                let schedule = run_inspector(proc, &dist, &exec, |i, out| out.extend(&refs[i]));
                let (before, clock) = (proc.counters(), proc.time());
                let mut read = Vec::new();
                execute_sweep(
                    proc,
                    ExecutorConfig::default()
                        .with_workers(workers)
                        .with_chunk(chunk),
                    &schedule,
                    &dist,
                    &local,
                    |i, fetch| (0..refs[i].len()).map(|j| fetch.get(j)).collect::<Vec<_>>(),
                    |i, values| read.push((i, values)),
                );
                let nonlocal = proc.counters().since(&before).nonlocal_refs;
                // Each nonlocal access costs ceil(log2 r) >= 1 flops (§4's
                // search); the rest of the sweep's seconds are local reads.
                let steps = (schedule.range_count().max(1) as f64)
                    .log2()
                    .ceil()
                    .max(1.0);
                let local_seconds = proc.time() - clock - nonlocal as f64 * steps;
                (read, (nonlocal, local_seconds))
            });
            let mut read = Vec::new();
            let mut charged = Vec::new();
            for (r, c) in per_rank {
                read.extend(r);
                charged.push(c);
            }
            read.sort_by_key(|&(i, _)| i);
            (read, charged)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]
            #[test]
            fn get_reads_the_listed_element_and_charges_by_owner(
                table in proptest::collection::vec(
                    (0usize..3, proptest::collection::vec(0usize..1000, 0..5)),
                    1..40,
                )
            ) {
                let n = table.len();
                let owners: Vec<usize> = table.iter().map(|(o, _)| *o).collect();
                let refs: Vec<Vec<usize>> = table
                    .iter()
                    .map(|(_, r)| r.iter().map(|g| g % n).collect())
                    .collect();
                // The owner-based count: per rank, the references of the
                // iterations it owns, split by who owns the element.
                let mut expected = vec![(0u64, 0.0f64); 3];
                for (i, row) in refs.iter().enumerate() {
                    for &g in row {
                        if owners[g] == owners[i] {
                            expected[owners[i]].1 += 1.0;
                        } else {
                            expected[owners[i]].0 += 1;
                        }
                    }
                }
                for point in KNOB_GRID {
                    let (read, charged) = sweep(&owners, &refs, point);
                    prop_assert_eq!(read.len(), n);
                    for (i, values) in &read {
                        let want: Vec<f64> = refs[*i].iter().map(|&g| g as f64).collect();
                        prop_assert_eq!(values, &want, "iteration {} at {:?}", i, point);
                    }
                    prop_assert_eq!(&charged, &expected, "charges at {:?}", point);
                }
            }
        }
    }
}
