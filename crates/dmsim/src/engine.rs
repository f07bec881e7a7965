//! The SPMD execution engine.
//!
//! A [`Machine`] runs an SPMD program — one closure instance per virtual
//! processor, each on its own OS thread — and gives every instance a
//! [`Proc`] handle for message passing and cost accounting.
//!
//! ## Timing model
//!
//! Every [`Proc`] owns a logical clock in simulated seconds.
//!
//! * Computation charges (`charge_flops`, `charge_mem_refs`, …) advance the
//!   local clock by amounts taken from the [`CostModel`].
//! * `send` charges the sender's send overhead and stamps the message with
//!   an *arrival time* of `sender clock + latency + bytes·β + hops·hop`.
//! * `recv` sets the receiver's clock to `max(local clock, arrival)` plus the
//!   receive overhead.
//!
//! Because clocks only ever move forward and merging is a `max`, the final
//! clocks are a deterministic function of the program and the cost model —
//! they do not depend on the host's thread scheduling.
//!
//! A wildcard receive (`recv_any`) is the one place where the host could
//! leak in: which matching message a thread finds first follows thread
//! scheduling, and `max(clock, arrival) + overhead` folded over a run of
//! receives depends on their order.  So a run of back-to-back wildcard
//! receives is timed as if its messages were taken in simulated-arrival
//! order: each receive re-times the whole run from the clock before its
//! first message.  The run ends at any other operation that moves the
//! clock.  Returned values still come in host order (callers index them by
//! source); the clocks no longer do.

use crossbeam::channel::{unbounded, Receiver, Sender};
use kali_process::trace::{EventKind, TraceRecorder};

use crate::cost::CostModel;
use crate::message::{Envelope, Tag};
use crate::stats::{Counters, RunStats};
use crate::topology::Topology;

/// How a processor picks among *matching* buffered messages when a receive
/// could legally complete with more than one of them.
///
/// Only wildcard receives (`recv_any`) ever have a real choice: a receive
/// from a specific source always takes that source's oldest matching
/// message, so per-`(src, tag)` delivery stays FIFO — the invariant the
/// `Process` contract promises and the trace analyzer relies on — under
/// *every* policy.  The non-FIFO policies perturb exactly the freedom a
/// real transport has (which source's message shows up first), which is
/// what the delivery-order model checker sweeps over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryPolicy {
    /// Arrival order (the default, and the legacy code path).
    Fifo,
    /// Adversarial: prefer the most recently buffered candidate source.
    Lifo,
    /// Seeded pseudo-random choice among candidate sources; the same seed
    /// reproduces the same delivery order.
    Shuffle(u64),
    /// Bounded systematic enumeration: rotate the candidate choice by a
    /// fixed offset, so sweeping `Systematic(0..k)` visits `k` distinct
    /// schedule-respecting delivery orders.
    Systematic(u64),
}

/// A virtual distributed-memory machine: `nprocs` processors connected by a
/// [`Topology`] and timed by a [`CostModel`].
#[derive(Debug, Clone)]
pub struct Machine {
    nprocs: usize,
    topology: Topology,
    cost: CostModel,
    delivery: DeliveryPolicy,
}

impl Machine {
    /// A machine with `nprocs` processors on the smallest enclosing
    /// hypercube (the paper's machines are hypercubes).
    pub fn new(nprocs: usize, cost: CostModel) -> Self {
        assert!(nprocs > 0, "a machine needs at least one processor");
        Machine {
            nprocs,
            topology: Topology::hypercube_for(nprocs),
            cost,
            delivery: DeliveryPolicy::Fifo,
        }
    }

    /// A machine with an explicit topology.  `nprocs` may be smaller than
    /// the number of slots the topology provides.
    pub fn with_topology(nprocs: usize, topology: Topology, cost: CostModel) -> Self {
        assert!(nprocs > 0, "a machine needs at least one processor");
        assert!(
            nprocs <= topology.nodes(),
            "topology provides {} slots but {} processors requested",
            topology.nodes(),
            nprocs
        );
        Machine {
            nprocs,
            topology,
            cost,
            delivery: DeliveryPolicy::Fifo,
        }
    }

    /// The same machine with a different wildcard-receive delivery policy
    /// (builder style; [`Machine::new`] defaults to FIFO).
    pub fn with_delivery(mut self, delivery: DeliveryPolicy) -> Self {
        self.delivery = delivery;
        self
    }

    /// The wildcard-receive delivery policy in effect.
    pub fn delivery(&self) -> DeliveryPolicy {
        self.delivery
    }

    /// Number of virtual processors.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// The interconnect topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The machine cost model.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Run an SPMD program: `f` is executed once per processor, in parallel,
    /// and the per-processor return values are collected in rank order.
    pub fn run<R, F>(&self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&mut Proc) -> R + Sync,
    {
        self.run_stats(f).0
    }

    /// Like [`Machine::run`] but also returns machine-wide [`RunStats`]
    /// (final clocks, per-processor counters).
    pub fn run_stats<R, F>(&self, f: F) -> (Vec<R>, RunStats)
    where
        R: Send,
        F: Fn(&mut Proc) -> R + Sync,
    {
        let p = self.nprocs;
        let mut senders: Vec<Sender<Envelope>> = Vec::with_capacity(p);
        let mut receivers: Vec<Option<Receiver<Envelope>>> = Vec::with_capacity(p);
        for _ in 0..p {
            let (tx, rx) = unbounded();
            senders.push(tx);
            receivers.push(Some(rx));
        }

        let mut slots: Vec<Option<(R, f64, Counters)>> = (0..p).map(|_| None).collect();

        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(p);
            for (rank, rx) in receivers.iter_mut().enumerate() {
                let rx = rx.take().expect("receiver taken twice");
                let mut senders = senders.clone();
                // Self-sends bypass the channel (they go to the pending
                // buffer), so replace this rank's own sender with a
                // disconnected one — otherwise a blocked receiver would
                // hold its own channel open and the "all peers hung up"
                // fail-fast path could never trigger.
                senders[rank] = unbounded().0;
                let topology = self.topology.clone();
                let cost = self.cost.clone();
                let delivery = self.delivery;
                let f = &f;
                handles.push(scope.spawn(move || {
                    let mut proc = Proc {
                        rank,
                        nprocs: p,
                        topology,
                        cost,
                        delivery,
                        senders,
                        receiver: rx,
                        pending: Vec::new(),
                        send_seqs: vec![0; p],
                        wildcard_recvs: 0,
                        wildcard_run: WildcardRun::default(),
                        clock: 0.0,
                        counters: Counters::default(),
                        coll_seq: 0,
                        recorder: TraceRecorder::default(),
                    };
                    let result = f(&mut proc);
                    (rank, result, proc.clock, proc.counters)
                }));
            }
            // Release the parent's sender clones so a receiver blocked on
            // a message that never comes sees a disconnect once its peers
            // exit, instead of hanging the join forever.
            drop(senders);
            for h in handles {
                let (rank, result, clock, counters) = h.join().expect("SPMD worker panicked");
                slots[rank] = Some((result, clock, counters));
            }
        });

        let mut results = Vec::with_capacity(p);
        let mut clocks = Vec::with_capacity(p);
        let mut counters = Vec::with_capacity(p);
        for slot in slots {
            let (r, c, k) = slot.expect("missing worker result");
            results.push(r);
            clocks.push(c);
            counters.push(k);
        }
        let stats = RunStats::from_parts(clocks, counters);
        (results, stats)
    }
}

/// Per-processor handle passed to the SPMD program.
///
/// A `Proc` is the local view of the machine: it knows its own rank, can
/// exchange messages with any other rank, and carries the logical clock and
/// operation counters for its processor.
pub struct Proc {
    rank: usize,
    nprocs: usize,
    topology: Topology,
    cost: CostModel,
    delivery: DeliveryPolicy,
    senders: Vec<Sender<Envelope>>,
    receiver: Receiver<Envelope>,
    pending: Vec<Envelope>,
    /// Next per-destination send sequence number (stamped on envelopes).
    send_seqs: Vec<u64>,
    /// Wildcard receives completed so far — the decision counter the
    /// non-FIFO delivery policies key their choices on.
    wildcard_recvs: u64,
    /// The current run of back-to-back wildcard receives (see the module
    /// docs' timing model).
    wildcard_run: WildcardRun,
    clock: f64,
    counters: Counters,
    /// Monotonic counter used to derive unique tags for collective
    /// operations (all processors call collectives in the same order in an
    /// SPMD program, so the counters stay in lock step).
    coll_seq: u64,
    /// Opt-in execution-trace recorder (driven through the `Process` trace
    /// hooks in `process_impl`).
    pub(crate) recorder: TraceRecorder,
}

impl Proc {
    /// This processor's rank, in `0..nprocs`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of processors taking part in the run.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// The machine's cost model.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// The machine's topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Current logical clock in simulated seconds.
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// Operation counters accumulated so far.
    pub fn counters(&self) -> Counters {
        self.counters
    }

    // ----------------------------------------------------------------
    // Cost charging
    // ----------------------------------------------------------------

    /// Charge `n` floating-point operations.
    pub fn charge_flops(&mut self, n: usize) {
        self.counters.flops += n as u64;
        self.clock += self.cost.flop * n as f64;
    }

    /// Charge `n` local memory references.
    pub fn charge_mem_refs(&mut self, n: usize) {
        self.counters.mem_refs += n as u64;
        self.clock += self.cost.mem_ref * n as f64;
    }

    /// Charge `n` loop iterations of control overhead.
    pub fn charge_loop_iters(&mut self, n: usize) {
        self.counters.loop_iters += n as u64;
        self.clock += self.cost.loop_iter * n as f64;
    }

    /// Charge `n` procedure calls.
    pub fn charge_calls(&mut self, n: usize) {
        self.counters.calls += n as u64;
        self.clock += self.cost.call * n as f64;
    }

    /// Charge an arbitrary amount of simulated time (e.g. a pre-computed
    /// composite cost such as [`CostModel::locality_check`]).
    pub fn charge_seconds(&mut self, seconds: f64) {
        debug_assert!(seconds >= 0.0, "cannot charge negative time");
        self.clock += seconds;
    }

    /// Charge one nonlocal distributed-array access resolved by binary
    /// search over `ranges` range records, and count it in the run
    /// statistics (the `nonlocal_refs` column of the locality tables).
    pub fn charge_nonlocal_access(&mut self, ranges: usize) {
        self.counters.nonlocal_refs += 1;
        self.clock += self.cost.nonlocal_access(ranges);
    }

    // ----------------------------------------------------------------
    // Point-to-point messaging
    // ----------------------------------------------------------------

    /// Send a single `Copy` value to `dst` with the given tag.
    pub fn send<T: Copy + Send + 'static>(&mut self, dst: usize, tag: Tag, value: T) {
        self.send_bytes(dst, tag, std::mem::size_of::<T>(), value);
    }

    /// Send an owned vector; the simulated wire size is
    /// `len · size_of::<T>()`.
    pub fn send_vec<T: Send + 'static>(&mut self, dst: usize, tag: Tag, value: Vec<T>) {
        let bytes = value.len() * std::mem::size_of::<T>();
        self.send_bytes(dst, tag, bytes, value);
    }

    /// Send an arbitrary payload with an explicitly specified simulated
    /// wire size in bytes.
    pub fn send_bytes<T: Send + 'static>(&mut self, dst: usize, tag: Tag, bytes: usize, value: T) {
        assert!(dst < self.nprocs, "send to rank {dst} of {}", self.nprocs);
        // Sender-side CPU overhead.
        self.clock += self.cost.send_overhead;
        self.counters.msgs_sent += 1;
        self.counters.bytes_sent += bytes as u64;
        let hops = self.topology.hops(self.rank, dst);
        let arrival = if dst == self.rank {
            self.clock
        } else {
            self.clock + self.cost.transfer_time(bytes, hops)
        };
        let seq = self.send_seqs[dst];
        self.send_seqs[dst] += 1;
        let env = Envelope {
            src: self.rank,
            dst,
            tag,
            bytes,
            arrival,
            seq,
            payload: Box::new(value),
        };
        self.recorder
            .record(self.rank, EventKind::Send { dst, tag });
        if dst == self.rank {
            self.buffer_pending(env);
        } else {
            self.senders[dst]
                .send(env)
                .expect("destination processor hung up");
        }
    }

    /// Receive a message with the given tag from a specific source.
    ///
    /// Returns `(src, value)`.  Blocks until a matching message arrives.
    pub fn recv_from<T: 'static>(&mut self, src: usize, tag: Tag) -> (usize, T) {
        self.recv_match(Some(src), tag)
    }

    /// Receive a message with the given tag from any source.
    pub fn recv_any<T: 'static>(&mut self, tag: Tag) -> (usize, T) {
        self.recv_match(None, tag)
    }

    fn recv_match<T: 'static>(&mut self, src: Option<usize>, tag: Tag) -> (usize, T) {
        if self.delivery != DeliveryPolicy::Fifo && src.is_none() {
            return self.recv_match_perturbed(tag);
        }
        // First look in the pending buffer for an already-delivered match.
        if let Some(pos) = self
            .pending
            .iter()
            .position(|e| e.tag == tag && src.is_none_or(|s| e.src == s))
        {
            // Plain remove, not swap_remove: the pending buffer must keep
            // same-(src, tag) messages in arrival order so delivery stays
            // FIFO per (source, tag), as the Process contract promises.
            let env = self.pending.remove(pos);
            return self.complete_recv(src.is_none(), env);
        }
        // Otherwise block on the incoming channel, buffering non-matching
        // messages for later receives.
        loop {
            let env = self
                .receiver
                .recv()
                .expect("all peer processors hung up while waiting for a message");
            if env.tag == tag && src.is_none_or(|s| env.src == s) {
                return self.complete_recv(src.is_none(), env);
            }
            self.buffer_pending(env);
        }
    }

    /// Wildcard receive under a non-FIFO [`DeliveryPolicy`]: drain whatever
    /// already sits in the channel into the pending buffer, then let the
    /// policy pick among the candidate *sources* (each source's candidate is
    /// its oldest matching message, so per-channel FIFO is preserved by
    /// construction).  Blocks for one more envelope and retries whenever no
    /// candidate exists yet.
    fn recv_match_perturbed<T: 'static>(&mut self, tag: Tag) -> (usize, T) {
        loop {
            while let Ok(env) = self.receiver.try_recv() {
                self.buffer_pending(env);
            }
            // One candidate per distinct source: the first matching pending
            // entry in arrival order (== send order per channel).
            let mut candidates: Vec<(usize, usize)> = Vec::new(); // (pos, src)
            for (pos, e) in self.pending.iter().enumerate() {
                if e.tag == tag && !candidates.iter().any(|&(_, s)| s == e.src) {
                    candidates.push((pos, e.src));
                }
            }
            if !candidates.is_empty() {
                let k = self.wildcard_recvs;
                let choice = match self.delivery {
                    DeliveryPolicy::Fifo => 0,
                    DeliveryPolicy::Lifo => candidates.len() - 1,
                    DeliveryPolicy::Shuffle(seed) => {
                        let score = |src: usize| {
                            mix64(seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ src as u64)
                        };
                        candidates
                            .iter()
                            .enumerate()
                            .max_by_key(|(_, &(_, s))| score(s))
                            .map(|(i, _)| i)
                            .expect("candidates checked non-empty")
                    }
                    DeliveryPolicy::Systematic(rot) => {
                        ((rot + k) % candidates.len() as u64) as usize
                    }
                };
                let env = self.pending.remove(candidates[choice].0);
                return self.complete_recv(true, env);
            }
            let env = self
                .receiver
                .recv()
                .expect("all peer processors hung up while waiting for a message");
            self.buffer_pending(env);
        }
    }

    /// Park an envelope in the pending buffer (arrival order preserved) and
    /// keep the queue-depth high-water mark.
    fn buffer_pending(&mut self, env: Envelope) {
        self.pending.push(env);
        self.counters.queue_peak = self.counters.queue_peak.max(self.pending.len() as u64);
    }

    /// Reserve a fresh tag for one collective operation.
    ///
    /// Collective tags live in the upper half of the tag space (see
    /// [`kali_process::tags`]) so they can never collide with user,
    /// executor or redistribution tags.
    pub(crate) fn next_collective_tag(&mut self) -> Tag {
        let tag = kali_process::tags::collective_tag(self.coll_seq);
        self.coll_seq += 1;
        tag
    }

    fn complete_recv<T: 'static>(&mut self, wildcard: bool, env: Envelope) -> (usize, T) {
        if wildcard {
            self.clock = self
                .wildcard_run
                .time(self.clock, env.arrival, self.cost.recv_overhead);
            self.wildcard_recvs += 1;
        } else {
            self.clock = self.clock.max(env.arrival) + self.cost.recv_overhead;
        }
        self.counters.msgs_recv += 1;
        self.counters.bytes_recv += env.bytes as u64;
        let src = env.src;
        self.recorder
            .record(self.rank, EventKind::Recv { src, tag: env.tag });
        (src, env.into_payload())
    }
}

/// A run of back-to-back wildcard receives, timed in simulated-arrival
/// order (see the module docs' timing model).
#[derive(Debug, Default)]
struct WildcardRun {
    /// The clock before the run's first receive.
    start: f64,
    /// The clock after its latest receive.
    end: f64,
    /// Arrival times of the run's messages, ascending.
    arrivals: Vec<f64>,
}

impl WildcardRun {
    /// Add a message arriving at `arrival` to the run (starting a new run
    /// unless the clock still stands where the last receive left it) and
    /// return the clock after the whole run.
    fn time(&mut self, clock: f64, arrival: f64, overhead: f64) -> f64 {
        if self.arrivals.is_empty() || self.end.to_bits() != clock.to_bits() {
            self.start = clock;
            self.arrivals.clear();
        }
        let at = self.arrivals.partition_point(|&a| a <= arrival);
        self.arrivals.insert(at, arrival);
        self.end = self
            .arrivals
            .iter()
            .fold(self.start, |c, &a| c.max(a) + overhead);
        self.end
    }
}

/// SplitMix64 finaliser, used to score candidate sources under
/// [`DeliveryPolicy::Shuffle`].
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_proc_runs() {
        let m = Machine::new(1, CostModel::ideal());
        let r = m.run(|p| p.rank() * 10 + p.nprocs());
        assert_eq!(r, vec![1]);
    }

    #[test]
    fn ring_shift_delivers_values_in_rank_order() {
        let m = Machine::new(8, CostModel::ideal());
        let r = m.run(|p| {
            let right = (p.rank() + 1) % p.nprocs();
            let left = (p.rank() + p.nprocs() - 1) % p.nprocs();
            p.send(right, 1, p.rank() as u64);
            let (_src, v): (usize, u64) = p.recv_from(left, 1);
            v
        });
        assert_eq!(r, vec![7, 0, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn self_send_is_allowed() {
        let m = Machine::new(2, CostModel::ideal());
        let r = m.run(|p| {
            p.send(p.rank(), 9, 123u32);
            let (src, v): (usize, u32) = p.recv_from(p.rank(), 9);
            assert_eq!(src, p.rank());
            v
        });
        assert_eq!(r, vec![123, 123]);
    }

    #[test]
    fn tags_demultiplex_messages() {
        let m = Machine::new(2, CostModel::ideal());
        let r = m.run(|p| {
            if p.rank() == 0 {
                p.send(1, 10, 100u64);
                p.send(1, 20, 200u64);
                0
            } else {
                // Receive out of order: tag 20 first even though it was sent second.
                let (_, b): (usize, u64) = p.recv_from(0, 20);
                let (_, a): (usize, u64) = p.recv_from(0, 10);
                (b - a) as i64 as usize
            }
        });
        assert_eq!(r[1], 100);
    }

    #[test]
    fn buffered_same_tag_messages_stay_fifo() {
        // Three same-(src, tag) messages parked in the pending buffer by an
        // out-of-order receive must still be delivered in send order.
        let m = Machine::new(2, CostModel::ideal());
        let r = m.run(|p| {
            if p.rank() == 0 {
                for v in [1u64, 2, 3] {
                    p.send(1, 5, v);
                }
                p.send(1, 6, 99u64);
                Vec::new()
            } else {
                let _: (usize, u64) = p.recv_from(0, 6); // buffers the tag-5 messages
                (0..3).map(|_| p.recv_from::<u64>(0, 5).1).collect()
            }
        });
        assert_eq!(r[1], vec![1, 2, 3], "same-(src, tag) delivery must be FIFO");
    }

    #[test]
    fn perturbed_policies_preserve_per_channel_fifo_and_lose_nothing() {
        for policy in [
            DeliveryPolicy::Lifo,
            DeliveryPolicy::Shuffle(42),
            DeliveryPolicy::Shuffle(7),
            DeliveryPolicy::Systematic(1),
            DeliveryPolicy::Systematic(2),
        ] {
            let m = Machine::new(4, CostModel::ideal()).with_delivery(policy);
            let r = m.run(|p| {
                if p.rank() == 0 {
                    let n = (p.nprocs() - 1) * 3;
                    (0..n).map(|_| p.recv_any::<u64>(5)).collect::<Vec<_>>()
                } else {
                    for k in 0..3u64 {
                        p.send(0, 5, p.rank() as u64 * 10 + k);
                    }
                    Vec::new()
                }
            });
            // Per-source delivery must stay FIFO under every policy; the
            // cross-source interleaving is the policy's to choose.
            let got = &r[0];
            assert_eq!(got.len(), 9, "{policy:?}");
            for src in 1..4usize {
                let seq: Vec<u64> = got
                    .iter()
                    .filter(|(s, _)| *s == src)
                    .map(|(_, v)| *v)
                    .collect();
                let expect: Vec<u64> = (0..3).map(|k| src as u64 * 10 + k).collect();
                assert_eq!(seq, expect, "{policy:?}: src {src} not FIFO");
            }
        }
    }

    #[test]
    fn queue_peak_records_pending_high_water() {
        let m = Machine::new(2, CostModel::ideal());
        let (_, stats) = m.run_stats(|p| {
            if p.rank() == 0 {
                for v in [1u64, 2, 3] {
                    p.send(1, 5, v);
                }
                p.send(1, 6, 99u64);
            } else {
                // The tag-6 receive parks all three tag-5 messages.
                let _: (usize, u64) = p.recv_from(0, 6);
                for _ in 0..3 {
                    let _: (usize, u64) = p.recv_from(0, 5);
                }
            }
        });
        assert_eq!(stats.totals.queue_peak, 3);
    }

    #[test]
    fn clocks_reflect_message_latency() {
        let cost = CostModel {
            name: "test",
            msg_latency: 1.0,
            byte: 0.0,
            ..CostModel::ideal()
        };
        let m = Machine::new(2, cost);
        let (_, stats) = m.run_stats(|p| {
            if p.rank() == 0 {
                p.send(1, 0, 1u8);
            } else {
                let _: (usize, u8) = p.recv_from(0, 0);
            }
        });
        // Receiver's clock must include the 1-second latency.
        assert!(stats.clocks[1] >= 1.0);
        assert!(stats.clocks[0] < 1.0);
        assert_eq!(stats.totals.msgs_sent, 1);
        assert_eq!(stats.totals.msgs_recv, 1);
    }

    #[test]
    fn clocks_are_deterministic_across_runs() {
        let cost = CostModel::ncube7();
        let m = Machine::new(8, cost);
        let run = || {
            let (_, stats) = m.run_stats(|p| {
                // Every processor sends its clock-advancing workload and a
                // message to every other processor.
                p.charge_flops(100 * (p.rank() + 1));
                for dst in 0..p.nprocs() {
                    if dst != p.rank() {
                        p.send(dst, 5, p.rank() as u64);
                    }
                }
                for _ in 0..p.nprocs() - 1 {
                    let _: (usize, u64) = p.recv_any(5);
                }
            });
            stats.clocks
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "logical clocks must not depend on host scheduling");
    }

    #[test]
    fn wildcard_receive_clocks_ignore_the_host_delivery_order() {
        // Force the host order in which two messages reach rank 0 (with
        // host-side sequencing that never touches a simulated clock): the
        // late-arriving message (rank 1 computes first) is physically
        // queued first in one run and last in the other.  The receiver's
        // clock must come out the same.
        use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
        let receiver_clock = |first: usize| {
            let turn = AtomicUsize::new(0);
            let (_, stats) = Machine::new(3, CostModel::ncube7()).run_stats(|p| {
                if p.rank() == 0 {
                    while turn.load(SeqCst) < 2 {
                        std::thread::yield_now();
                    }
                    for _ in 0..2 {
                        let _: (usize, u64) = p.recv_any(5);
                    }
                } else {
                    if p.rank() == 1 {
                        p.charge_flops(1000);
                    }
                    let my_turn = usize::from(p.rank() != first);
                    while turn.load(SeqCst) != my_turn {
                        std::thread::yield_now();
                    }
                    p.send(0, 5, p.rank() as u64);
                    turn.fetch_add(1, SeqCst);
                }
            });
            stats.clocks[0]
        };
        assert_eq!(receiver_clock(1).to_bits(), receiver_clock(2).to_bits());
    }

    #[test]
    fn charges_accumulate_counters_and_time() {
        let m = Machine::new(1, CostModel::ncube7());
        let (_, stats) = m.run_stats(|p| {
            p.charge_flops(10);
            p.charge_mem_refs(20);
            p.charge_loop_iters(5);
            p.charge_calls(2);
        });
        let c = CostModel::ncube7();
        let expected = 10.0 * c.flop + 20.0 * c.mem_ref + 5.0 * c.loop_iter + 2.0 * c.call;
        assert!((stats.time - expected).abs() < 1e-12);
        assert_eq!(stats.totals.flops, 10);
        assert_eq!(stats.totals.mem_refs, 20);
        assert_eq!(stats.totals.loop_iters, 5);
        assert_eq!(stats.totals.calls, 2);
    }

    #[test]
    fn send_vec_charges_payload_bytes() {
        let m = Machine::new(2, CostModel::ideal());
        let (_, stats) = m.run_stats(|p| {
            if p.rank() == 0 {
                p.send_vec(1, 3, vec![0.0f64; 100]);
            } else {
                let (_, v): (usize, Vec<f64>) = p.recv_from(0, 3);
                assert_eq!(v.len(), 100);
            }
        });
        assert_eq!(stats.totals.bytes_sent, 800);
        assert_eq!(stats.totals.bytes_recv, 800);
    }

    #[test]
    #[should_panic(expected = "SPMD worker panicked")]
    fn mismatched_receive_fails_fast_when_peers_exit() {
        // Rank 1 waits for a message rank 0 never sends; once rank 0 exits
        // the channel disconnects and the recv fails instead of hanging.
        let m = Machine::new(2, CostModel::ideal());
        m.run(|p| {
            if p.rank() == 1 {
                let _: (usize, u64) = p.recv_from(0, 1);
            }
        });
    }

    #[test]
    #[should_panic(expected = "SPMD worker panicked")]
    fn send_out_of_range_panics() {
        let m = Machine::new(2, CostModel::ideal());
        m.run(|p| {
            if p.rank() == 0 {
                p.send(5, 0, 1u8);
            }
        });
    }

    #[test]
    fn with_topology_checks_capacity() {
        let m = Machine::with_topology(3, Topology::Hypercube { dim: 2 }, CostModel::ideal());
        assert_eq!(m.nprocs(), 3);
        assert_eq!(m.topology().nodes(), 4);
    }
}
