//! A forwarding [`Process`] wrapper that counts and times every call the
//! runtime makes into its backend, from outside the program.
//!
//! Every trait method, provided ones included, is forwarded to the wrapped
//! backend's own implementation, so backend fast paths (native's pooled
//! packed buffers, mp's framed collectives) stay in use and results are
//! bit-identical to an unwrapped run.  Counts are exact and repeat between
//! runs; times are wall-clock and do not.
//!
//! Byte counts are *computed* from element counts (`len · size_of::<T>()`),
//! not measured on a wire; `Counters::wire_bytes` from kali-mp is the
//! measured figure.

use std::time::{Duration, Instant};

use kali_process::tags::COMPONENT_WINDOWS;
use kali_process::{trace, tree_allreduce_sends, Counters, Process, Tag, Wire};

/// Number of tag windows in [`COMPONENT_WINDOWS`].
pub const WINDOWS: usize = COMPONENT_WINDOWS.len();

/// Index of the tag window named `name` in [`COMPONENT_WINDOWS`].
pub fn window_index(name: &str) -> usize {
    COMPONENT_WINDOWS
        .iter()
        .position(|(n, _, _)| *n == name)
        .unwrap_or_else(|| panic!("no tag window named {name}"))
}

fn window_of(tag: Tag) -> usize {
    COMPONENT_WINDOWS
        .iter()
        .position(|&(_, lo, hi)| lo <= tag && tag < hi)
        .expect("the component windows cover the whole tag space")
}

/// Exact call counts seen by the wrapper on one rank.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    /// Local references charged by the executor (singular and bulk hooks).
    pub local_refs: u64,
    /// Nonlocal references charged by the executor.
    pub nonlocal_refs: u64,
    /// Inspector locality checks (`charge_locality_check` calls).
    pub locality_checks: u64,
    /// Point-to-point sends per tag window.  The tree allreduce's sends
    /// happen inside the backend, so they are added as computed counts
    /// ([`tree_allreduce_sends`]) under the `tree` window.
    pub sends: [u64; WINDOWS],
    /// Computed payload bytes of those sends, per tag window.
    pub send_bytes: [u64; WINDOWS],
    /// `allreduce` / `allreduce_sum_f64` calls.
    pub reduces: u64,
}

/// Wall time spent inside the wrapped calls on one rank.
#[derive(Debug, Clone, Copy, Default)]
pub struct Times {
    /// Inside `send`, `send_vec` and `send_packed`.
    pub send: Duration,
    /// Blocked inside `recv`, `recv_vec` and `recv_packed_append`.
    pub wait: Duration,
    /// Inside `exchange`.
    pub exchange: Duration,
    /// Inside `allreduce` and `allreduce_sum_f64`.
    pub reduce: Duration,
    /// The part of `send` + `wait` whose tags lie in the redistribute
    /// window.
    pub redist: Duration,
    /// Inside every other timed call: barriers, allgathers and send-buffer
    /// acquisition.
    pub other: Duration,
}

impl Times {
    /// Total time inside the backend's calls (`redist` is already part of
    /// `send` and `wait`).
    pub fn calls(&self) -> Duration {
        self.send + self.wait + self.exchange + self.reduce + self.other
    }
}

/// What the wrapper saw on one rank over its lifetime.
#[derive(Debug, Clone)]
pub struct Seen {
    /// Exact call counts.
    pub counts: Counts,
    /// Time inside the calls.
    pub times: Times,
}

/// The forwarding wrapper.
pub struct Traced<'a, P: Process> {
    inner: &'a mut P,
    counts: Counts,
    times: Times,
}

impl<'a, P: Process> Traced<'a, P> {
    /// Wrap `inner`; counting starts now.
    pub fn new(inner: &'a mut P) -> Self {
        Traced {
            inner,
            counts: Counts::default(),
            times: Times::default(),
        }
    }

    /// Stop counting and return what was seen.
    pub fn finish(self) -> Seen {
        Seen {
            counts: self.counts,
            times: self.times,
        }
    }

    fn sent(&mut self, tag: Tag, elems: usize, elem_size: usize, took: Duration) {
        let w = window_of(tag);
        self.counts.sends[w] += 1;
        self.counts.send_bytes[w] += (elems * elem_size) as u64;
        self.times.send += took;
        if w == window_index("redistribute") {
            self.times.redist += took;
        }
    }

    fn received(&mut self, tag: Tag, took: Duration) {
        self.times.wait += took;
        if window_of(tag) == window_index("redistribute") {
            self.times.redist += took;
        }
    }

    fn reduced<T>(&mut self, took: Duration) {
        let sends = tree_allreduce_sends(self.inner.nprocs(), self.inner.rank()) as u64;
        let w = window_index("tree");
        self.counts.reduces += 1;
        self.counts.sends[w] += sends;
        self.counts.send_bytes[w] += sends * std::mem::size_of::<T>() as u64;
        self.times.reduce += took;
    }
}

/// Run `f`, returning its value and how long it took.
fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed())
}

impl<P: Process> Process for Traced<'_, P> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn nprocs(&self) -> usize {
        self.inner.nprocs()
    }

    fn send<T: Wire>(&mut self, dst: usize, tag: Tag, value: T) {
        let ((), took) = timed(|| self.inner.send(dst, tag, value));
        self.sent(tag, 1, std::mem::size_of::<T>(), took);
    }

    fn send_vec<T: Wire>(&mut self, dst: usize, tag: Tag, values: Vec<T>) {
        let len = values.len();
        let ((), took) = timed(|| self.inner.send_vec(dst, tag, values));
        self.sent(tag, len, std::mem::size_of::<T>(), took);
    }

    fn recv<T: Wire>(&mut self, src: usize, tag: Tag) -> T {
        let (v, took) = timed(|| self.inner.recv(src, tag));
        self.received(tag, took);
        v
    }

    fn recv_vec<T: Wire>(&mut self, src: usize, tag: Tag) -> Vec<T> {
        let (v, took) = timed(|| self.inner.recv_vec(src, tag));
        self.received(tag, took);
        v
    }

    fn acquire_send_buffer<T: Send + 'static>(&mut self, capacity: usize) -> Vec<T> {
        let (v, took) = timed(|| self.inner.acquire_send_buffer(capacity));
        self.times.other += took;
        v
    }

    fn send_packed<T: Wire>(&mut self, dst: usize, tag: Tag, values: Vec<T>) {
        let len = values.len();
        let ((), took) = timed(|| self.inner.send_packed(dst, tag, values));
        self.sent(tag, len, std::mem::size_of::<T>(), took);
    }

    fn recv_packed_append<T: Copy + Wire>(
        &mut self,
        src: usize,
        tag: Tag,
        out: &mut Vec<T>,
    ) -> usize {
        let (n, took) = timed(|| self.inner.recv_packed_append(src, tag, out));
        self.received(tag, took);
        n
    }

    fn barrier(&mut self) {
        let ((), took) = timed(|| self.inner.barrier());
        self.times.other += took;
    }

    fn exchange<T: Wire>(&mut self, items: Vec<(usize, T)>) -> Vec<T> {
        let (v, took) = timed(|| self.inner.exchange(items));
        self.times.exchange += took;
        v
    }

    fn allgather<T: Clone + Wire>(&mut self, items: Vec<T>) -> Vec<Vec<T>> {
        let (v, took) = timed(|| self.inner.allgather(items));
        self.times.other += took;
        v
    }

    fn allreduce_sum_f64(&mut self, value: f64) -> f64 {
        let (v, took) = timed(|| self.inner.allreduce_sum_f64(value));
        self.reduced::<f64>(took);
        v
    }

    fn allreduce<T, F>(&mut self, value: T, combine: F) -> T
    where
        T: Clone + Wire,
        F: Fn(&T, &T) -> T,
    {
        let (v, took) = timed(|| self.inner.allreduce(value, combine));
        self.reduced::<T>(took);
        v
    }

    fn allgather_doubling<T: Clone + Wire>(&mut self, items: Vec<T>) -> Vec<Vec<T>> {
        let (v, took) = timed(|| self.inner.allgather_doubling(items));
        self.times.other += took;
        v
    }

    fn charge_flops(&mut self, n: usize) {
        self.inner.charge_flops(n);
    }

    fn charge_mem_refs(&mut self, n: usize) {
        self.inner.charge_mem_refs(n);
    }

    fn charge_loop_iters(&mut self, n: usize) {
        self.inner.charge_loop_iters(n);
    }

    fn charge_calls(&mut self, n: usize) {
        self.inner.charge_calls(n);
    }

    fn charge_local_access(&mut self) {
        self.counts.local_refs += 1;
        self.inner.charge_local_access();
    }

    fn charge_nonlocal_access(&mut self, ranges: usize) {
        self.counts.nonlocal_refs += 1;
        self.inner.charge_nonlocal_access(ranges);
    }

    fn charge_local_accesses(&mut self, n: usize) {
        self.counts.local_refs += n as u64;
        self.inner.charge_local_accesses(n);
    }

    fn charge_nonlocal_accesses(&mut self, ranges: usize, n: usize) {
        self.counts.nonlocal_refs += n as u64;
        self.inner.charge_nonlocal_accesses(ranges, n);
    }

    fn charge_locality_check(&mut self) {
        self.counts.locality_checks += 1;
        self.inner.charge_locality_check();
    }

    fn charge_record_handling(&mut self, n: usize) {
        self.inner.charge_record_handling(n);
    }

    fn time(&self) -> f64 {
        self.inner.time()
    }

    fn counters(&self) -> Counters {
        self.inner.counters()
    }

    fn trace_start(&mut self) {
        self.inner.trace_start();
    }

    fn trace_take(&mut self) -> Vec<trace::Event> {
        self.inner.trace_take()
    }

    fn trace_active(&self) -> bool {
        self.inner.trace_active()
    }

    fn trace_emit(&mut self, kind: trace::EventKind) {
        self.inner.trace_emit(kind);
    }
}
