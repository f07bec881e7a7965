//! One measured repetition of a workload, and the metrics derived from it.

use std::time::Instant;

use crate::stats::{valid_name, valid_unit, MAX_END_TO_END, MAX_PER_LAYER};
use crate::traced::{window_index, Counts, Seen};
use crate::workloads::{self, Inputs, RankOut, Workload};

/// A metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "higher",
    }
}

/// End-to-end metrics, reported by an untraced run.
pub const END_TO_END: [MetricDef; 4] = [
    lower("setup_s", "s"),
    lower("solve_s", "s"),
    lower("overhead_x", "ratio"),
    lower("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by a traced run.
pub const PER_LAYER: [MetricDef; 33] = [
    lower("meshes.build_s", "s"),
    lower("meshes.nodes", "count"),
    lower("meshes.edges", "count"),
    lower("distrib.place_s", "s"),
    lower("distrib.cut_edges", "count"),
    lower("machine.start_s", "s"),
    lower("core.plan_s", "s"),
    lower("core.plan_affine_s", "s"),
    lower("core.plan_runs", "count"),
    higher("core.cache_hit_ratio", "ratio"),
    lower("core.inspected_refs", "count"),
    lower("core.exchange_s", "s"),
    lower("core.local_refs", "count"),
    lower("core.nonlocal_refs", "count"),
    lower("core.nonlocal_ratio", "ratio"),
    lower("solvers.self_s", "s"),
    lower("core.ns_per_ref", "ns"),
    lower("core.reduce_calls", "count"),
    lower("core.reduce_s", "s"),
    lower("core.redist_msgs", "count"),
    lower("core.redist_bytes", "B"),
    lower("core.redist_s", "s"),
    lower("process.msgs", "count"),
    lower("process.bytes", "B"),
    lower("process.msgs_per_iter", "count"),
    lower("process.send_s", "s"),
    lower("process.wait_s", "s"),
    lower("process.send_spread_s", "s"),
    lower("process.wait_spread_s", "s"),
    lower("mp.wire_bytes", "B"),
    lower("mp.wire_ratio", "ratio"),
    lower("mp.queue_peak", "count"),
    lower("trace.overhead_x", "ratio"),
];

/// One repetition: generate inputs, start the machine, place, solve, then
/// time the sequential replay and check the solve against it.
pub struct Rep {
    /// Workload start until the solver entry on every rank.
    pub setup_s: f64,
    /// Solver entry until every rank has returned.
    pub solve_s: f64,
    /// The sequential replay of the same problem.
    pub replay_s: f64,
    /// The bitwise check against the replay.
    pub verdict: Result<(), String>,
    /// Per-layer values of a traced solve (every [`PER_LAYER`] metric
    /// except `trace.overhead_x`, which needs untraced solves too).
    pub layers: Option<Vec<(&'static str, f64)>>,
    /// Every exact count of a traced solve, per rank, for the check that
    /// counts repeat between repetitions.
    pub counts: Option<Vec<ExactCounts>>,
}

/// The per-rank counts a traced solve must repeat exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExactCounts {
    /// What the wrapper counted.
    pub wrapper: Counts,
    /// Schedule-cache hits.
    pub cache_hits: u64,
    /// Schedule-cache misses.
    pub cache_misses: u64,
    /// Bytes kali-mp wrote during the solve.
    pub wire_bytes: u64,
}

/// Check the declared metrics against the benchmark format's rules.
pub fn check_definitions() -> Result<(), String> {
    if END_TO_END.len() > MAX_END_TO_END || PER_LAYER.len() > MAX_PER_LAYER {
        return Err("too many metrics".into());
    }
    let mut names = Vec::new();
    for m in END_TO_END.iter().chain(&PER_LAYER) {
        if !valid_name(m.name) || !valid_unit(m.unit) || names.contains(&m.name) {
            return Err(format!("bad or repeated metric {} [{}]", m.name, m.unit));
        }
        names.push(m.name);
    }
    Ok(())
}

/// Run one repetition of `w` on the inputs of `seed`.
pub fn one_rep(w: Workload, seed: u64, traced: bool) -> Rep {
    let start = Instant::now();
    let inputs = workloads::generate(w, seed);
    let machine_call = Instant::now();
    let outs = workloads::run_machine(w.backend(), w, &inputs, traced);

    let entry = latest(outs.iter().map(|o| o.solve_start));
    let earliest_entry = outs.iter().map(|o| o.solve_start).min().expect("ranks");
    let setup_s = (entry - start).as_secs_f64();
    let solve_s = (latest(outs.iter().map(|o| o.solve_end)) - earliest_entry).as_secs_f64();

    let dist = workloads::replay_dist(w, &inputs.mesh);
    let replay_start = Instant::now();
    let expected = std::hint::black_box(workloads::replay(w, &inputs, &dist));
    let replay_s = replay_start.elapsed().as_secs_f64();
    let verdict = workloads::check(w, &inputs, &dist, &outs, &expected);

    let (layers, counts) = if traced {
        let layers = layer_values(w, &inputs, &outs, machine_call);
        (Some(layers), Some(exact_counts(&outs)))
    } else {
        (None, None)
    };
    Rep {
        setup_s,
        solve_s,
        replay_s,
        verdict,
        layers,
        counts,
    }
}

/// The exact counts of a traced solve, per rank.
pub fn exact_counts(outs: &[RankOut]) -> Vec<ExactCounts> {
    outs.iter()
        .map(|o| {
            let seen = o.seen.as_ref().expect("traced solve");
            ExactCounts {
                wrapper: seen.counts.clone(),
                cache_hits: o.cache_hits,
                cache_misses: o.cache_misses,
                wire_bytes: o.counters.wire_bytes,
            }
        })
        .collect()
}

fn latest(times: impl Iterator<Item = Instant>) -> Instant {
    times.max().expect("at least one rank")
}

fn secs(d: std::time::Duration) -> f64 {
    d.as_secs_f64()
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// Every per-layer metric of one traced solve, in [`PER_LAYER`] order
/// (without `trace.overhead_x`).  Times are the maximum over ranks, as the
/// slowest rank sets the solve's time; counts are summed over ranks unless
/// they are per-rank lockstep quantities (plan runs, reduce calls).
pub fn layer_values(
    w: Workload,
    inputs: &Inputs,
    outs: &[RankOut],
    machine_call: Instant,
) -> Vec<(&'static str, f64)> {
    let seen: Vec<&Seen> = outs
        .iter()
        .map(|o| o.seen.as_ref().expect("traced solve"))
        .collect();
    let max_of = |f: &dyn Fn(&Seen) -> f64| seen.iter().map(|s| f(s)).fold(0.0, f64::max);
    let min_of = |f: &dyn Fn(&Seen) -> f64| seen.iter().map(|s| f(s)).fold(f64::MAX, f64::min);
    let sum_of = |f: &dyn Fn(&Counts) -> u64| seen.iter().map(|s| f(&s.counts)).sum::<u64>() as f64;

    let mesh = &inputs.mesh;
    let owners = workloads::initial_owners(w, mesh);
    let rank0 = &outs[0];
    let plan_runs = rank0.cache_misses as f64;
    let local = sum_of(&|c| c.local_refs);
    let nonlocal = sum_of(&|c| c.nonlocal_refs);
    let redist = window_index("redistribute");
    let msgs = sum_of(&|c| c.sends.iter().sum());
    let bytes = sum_of(&|c| c.send_bytes.iter().sum());
    let wire = outs.iter().map(|o| o.counters.wire_bytes).sum::<u64>() as f64;
    let self_times: Vec<f64> = outs
        .iter()
        .zip(&seen)
        .map(|(o, s)| secs(o.solve_end - o.solve_start) - secs(s.times.calls()))
        .collect();
    let send = |s: &Seen| secs(s.times.send);
    let wait = |s: &Seen| secs(s.times.wait);

    vec![
        ("meshes.build_s", secs(inputs.build)),
        ("meshes.nodes", mesh.len() as f64),
        ("meshes.edges", mesh.edge_count() as f64),
        (
            "distrib.place_s",
            outs.iter().map(|o| secs(o.place)).fold(0.0, f64::max),
        ),
        ("distrib.cut_edges", meshes::cut_edges(mesh, &owners) as f64),
        (
            "machine.start_s",
            secs(latest(outs.iter().map(|o| o.entered)) - machine_call),
        ),
        (
            "core.plan_s",
            outs.iter()
                .map(|o| secs(o.plan.expect("traced solve").0))
                .fold(0.0, f64::max),
        ),
        (
            "core.plan_affine_s",
            outs.iter()
                .map(|o| secs(o.plan.expect("traced solve").1))
                .fold(0.0, f64::max),
        ),
        ("core.plan_runs", plan_runs),
        (
            "core.cache_hit_ratio",
            ratio(
                rank0.cache_hits as f64,
                (rank0.cache_hits + rank0.cache_misses) as f64,
            ),
        ),
        ("core.inspected_refs", sum_of(&|c| c.locality_checks)),
        ("core.exchange_s", max_of(&|s| secs(s.times.exchange))),
        ("core.local_refs", local),
        ("core.nonlocal_refs", nonlocal),
        ("core.nonlocal_ratio", ratio(nonlocal, local + nonlocal)),
        (
            "solvers.self_s",
            self_times.iter().copied().fold(0.0, f64::max),
        ),
        (
            "core.ns_per_ref",
            ratio(self_times.iter().sum::<f64>() * 1e9, local + nonlocal),
        ),
        ("core.reduce_calls", seen[0].counts.reduces as f64),
        ("core.reduce_s", max_of(&|s| secs(s.times.reduce))),
        ("core.redist_msgs", sum_of(&|c| c.sends[redist])),
        ("core.redist_bytes", sum_of(&|c| c.send_bytes[redist])),
        ("core.redist_s", max_of(&|s| secs(s.times.redist))),
        ("process.msgs", msgs),
        ("process.bytes", bytes),
        ("process.msgs_per_iter", msgs / w.iterations() as f64),
        ("process.send_s", max_of(&send)),
        ("process.wait_s", max_of(&wait)),
        ("process.send_spread_s", max_of(&send) - min_of(&send)),
        ("process.wait_spread_s", max_of(&wait) - min_of(&wait)),
        ("mp.wire_bytes", wire),
        ("mp.wire_ratio", ratio(wire, bytes)),
        (
            "mp.queue_peak",
            outs.iter()
                .map(|o| o.counters.queue_peak)
                .max()
                .unwrap_or(0) as f64,
        ),
    ]
}
