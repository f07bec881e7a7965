//! The three workloads: input generation from a seed, the SPMD program each
//! rank runs (placement, solver entry point, and in traced runs one direct
//! plan call), the sequential replay, and the bitwise correctness check.

use std::time::{Duration, Instant};

use distrib::DimDist;
use kali_core::{AffineMap, Session};
use kali_mp::MpMachine;
use kali_native::NativeMachine;
use kali_process::{Counters, Process};
use meshes::{AdjacencyMesh, RegularGrid, UnstructuredMeshBuilder};
use solvers::{
    adaptive_jacobi_sequential, adaptive_jacobi_sweeps, cg_sequential, cg_solve, final_placement,
    gather_global, jacobi_sequential, jacobi_sweeps, partitioned_dist, AdaptiveConfig, CgConfig,
    JacobiConfig,
};

use crate::traced::{Seen, Traced};

/// SPMD ranks per workload (the host's two hardware threads).
pub const RANKS: usize = 2;
/// Intra-rank executor workers per rank.
pub const WORKERS: usize = 1;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Figure 4 relaxation on a regular five-point grid, block-distributed
    /// over native ranks, schedule cached.
    JacobiGrid,
    /// CG on a seeded unstructured mesh under the partitioned owner-table
    /// distribution, over kali-mp sockets.
    CgMp,
    /// Adaptive Jacobi with periodic mesh adaptation, repartitioning and
    /// redistribution, on native ranks.
    AdaptRebalance,
}

/// The machine a workload runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// `kali_native::NativeMachine::run` (threads and channels).
    Native,
    /// `kali_mp::MpMachine::run_threads` (threads as ranks, Unix sockets).
    MpThreads,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::JacobiGrid,
        Workload::CgMp,
        Workload::AdaptRebalance,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::JacobiGrid => "jacobi-grid",
            Workload::CgMp => "cg-mp",
            Workload::AdaptRebalance => "adapt-rebalance",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The backend the workload runs on.
    pub fn backend(self) -> Backend {
        match self {
            Workload::CgMp => Backend::MpThreads,
            Workload::JacobiGrid | Workload::AdaptRebalance => Backend::Native,
        }
    }

    /// Solver iterations (sweeps or CG iterations) of one solve.
    pub fn iterations(self) -> usize {
        match self {
            Workload::JacobiGrid => JACOBI_SWEEPS,
            Workload::CgMp => CG_ITERS,
            Workload::AdaptRebalance => ADAPT_SWEEPS,
        }
    }
}

/// Side of the `jacobi-grid` five-point grid.
pub const GRID_SIDE: usize = 1024;
/// Sweeps of one `jacobi-grid` solve.
pub const JACOBI_SWEEPS: usize = 12;
/// Side of the `cg-mp` unstructured point cloud.
pub const CG_SIDE: usize = 256;
/// Iterations of one `cg-mp` solve.
pub const CG_ITERS: usize = 50;
/// Side of the `adapt-rebalance` unstructured point cloud.
pub const ADAPT_SIDE: usize = 192;
/// Sweeps of one `adapt-rebalance` solve.
pub const ADAPT_SWEEPS: usize = 40;
/// Sweeps between adaptations in `adapt-rebalance`.
pub const ADAPT_EVERY: usize = 4;

fn jacobi_config() -> JacobiConfig {
    JacobiConfig {
        workers: Some(WORKERS),
        ..JacobiConfig::with_sweeps(JACOBI_SWEEPS)
    }
}

fn cg_config() -> CgConfig {
    CgConfig {
        workers: Some(WORKERS),
        ..CgConfig::with_iters(CG_ITERS)
    }
}

fn adapt_config() -> AdaptiveConfig {
    AdaptiveConfig {
        sweeps: ADAPT_SWEEPS,
        adapt_every: Some(ADAPT_EVERY),
        rebalance: true,
        ..AdaptiveConfig::default()
    }
}

/// A workload's generated inputs: the mesh and the initial field (Jacobi)
/// or right-hand side (CG).
pub struct Inputs {
    /// The mesh the solver runs on.
    pub mesh: AdjacencyMesh,
    /// Initial field or right-hand side, one value per node.
    pub field: Vec<f64>,
    /// Wall time of the mesh constructor call.
    pub build: Duration,
}

/// Generate `w`'s inputs from `seed`.  The same seed gives the same inputs.
pub fn generate(w: Workload, seed: u64) -> Inputs {
    let start = Instant::now();
    let mesh = match w {
        // The grid has no randomness; the seed drives the field only.
        Workload::JacobiGrid => RegularGrid::square(GRID_SIDE).five_point_mesh(),
        // Natural numbering: with scrambled numbering the owned sets
        // fragment and each of cg_solve's closed-form identity plans takes
        // seconds (the `core.plan_affine_s` metric shows that cost).
        Workload::CgMp => UnstructuredMeshBuilder::new(CG_SIDE, CG_SIDE)
            .seed(seed)
            .build(),
        Workload::AdaptRebalance => UnstructuredMeshBuilder::new(ADAPT_SIDE, ADAPT_SIDE)
            .seed(seed)
            .scramble_numbering(true)
            .build(),
    };
    let build = start.elapsed();
    let mut rng = SplitMix64(seed ^ 0x6A09_E667_F3BC_C908);
    let field = (0..mesh.len()).map(|_| rng.unit() * 2.0 - 1.0).collect();
    Inputs { mesh, field, build }
}

/// SplitMix64: a tiny seeded generator for the input fields.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The owner map of the initial placement, as every rank computes it.
pub fn initial_owners(w: Workload, mesh: &AdjacencyMesh) -> Vec<usize> {
    match w {
        Workload::JacobiGrid => {
            let dist = DimDist::block(mesh.len(), RANKS);
            (0..mesh.len()).map(|g| dist.owner(g)).collect()
        }
        Workload::CgMp | Workload::AdaptRebalance => meshes::greedy_partition(mesh, RANKS),
    }
}

/// What one rank reports from one solve.
pub struct RankOut {
    /// When the rank entered the SPMD closure (machine start done).
    pub entered: Instant,
    /// Wall time of the placement call on this rank.
    pub place: Duration,
    /// Solver entry (after a barrier, so every rank is placed).
    pub solve_start: Instant,
    /// Solver return.
    pub solve_end: Instant,
    /// The rank's local solution (`a` or `x`) under the final placement.
    pub local: Vec<f64>,
    /// CG's residual history (empty for Jacobi).
    pub history: Vec<f64>,
    /// Schedule-cache hits and misses of the solve.
    pub cache_hits: u64,
    /// Schedule-cache misses (plan runs) of the solve.
    pub cache_misses: u64,
    /// The solver's own counters (`outcome.counters`).
    pub counters: Counters,
    /// What the forwarding wrapper saw (traced solves only).
    pub seen: Option<Seen>,
    /// Wall time of one direct `Session::plan_indirect` and one direct
    /// closed-form `Session::plan`, each on a fresh session (traced solves
    /// only).
    pub plan: Option<(Duration, Duration)>,
}

struct Solved {
    local: Vec<f64>,
    history: Vec<f64>,
    cache_hits: u64,
    cache_misses: u64,
    counters: Counters,
}

/// Call the workload's solver entry point.
fn solve<P: Process>(proc: &mut P, w: Workload, inputs: &Inputs, dist: &DimDist) -> Solved {
    let (mesh, field) = (&inputs.mesh, &inputs.field);
    match w {
        Workload::JacobiGrid => {
            let o = jacobi_sweeps(proc, mesh, dist, field, &jacobi_config());
            Solved {
                local: o.local_a,
                history: Vec::new(),
                cache_hits: o.cache_hits,
                cache_misses: o.cache_misses,
                counters: o.counters,
            }
        }
        Workload::CgMp => {
            let o = cg_solve(proc, mesh, dist, field, &cg_config());
            Solved {
                local: o.local_x,
                history: o.residual_history,
                cache_hits: o.stats.cache.hits,
                cache_misses: o.stats.cache.misses,
                counters: o.counters,
            }
        }
        Workload::AdaptRebalance => {
            let o = adaptive_jacobi_sweeps(proc, mesh, dist, field, &adapt_config());
            Solved {
                local: o.local_a,
                history: Vec::new(),
                cache_hits: o.cache_hits,
                cache_misses: o.cache_misses,
                counters: o.counters,
            }
        }
    }
}

/// The SPMD program of one solve, run by every rank.
fn rank_body<P: Process>(proc: &mut P, w: Workload, inputs: &Inputs, traced: bool) -> RankOut {
    let entered = Instant::now();
    let dist = match w {
        Workload::JacobiGrid => DimDist::block(inputs.mesh.len(), proc.nprocs()),
        Workload::CgMp | Workload::AdaptRebalance => partitioned_dist(proc, &inputs.mesh),
    };
    let place = entered.elapsed();
    proc.barrier();

    let solve_start = Instant::now();
    let (solved, seen) = if traced {
        let mut wrapped = Traced::new(proc);
        let solved = solve(&mut wrapped, w, inputs, &dist);
        (solved, Some(wrapped.finish()))
    } else {
        (solve(proc, w, inputs, &dist), None)
    };
    let solve_end = Instant::now();

    let plan = traced.then(|| {
        proc.barrier();
        direct_plan(proc, &inputs.mesh, &dist)
    });

    RankOut {
        entered,
        place,
        solve_start,
        solve_end,
        local: solved.local,
        history: solved.history,
        cache_hits: solved.cache_hits,
        cache_misses: solved.cache_misses,
        counters: solved.counters,
        seen,
        plan,
    }
}

/// Time the two ways a solver plans, each on a fresh session so nothing is
/// cached: `Session::plan_indirect` with the workload's own reference
/// pattern (the mesh adjacency under the initial placement), which runs the
/// inspector, and `Session::plan` with an identity subscript, the
/// closed-form analysis the aligned loops of every solver use.
fn direct_plan<P: Process>(
    proc: &mut P,
    mesh: &AdjacencyMesh,
    dist: &DimDist,
) -> (Duration, Duration) {
    let start = Instant::now();
    let mut session = Session::new();
    let relaxation = session.loop_1d(mesh.len(), dist.clone());
    let schedule = session.plan_indirect(proc, &relaxation, dist, |i, refs| {
        refs.extend(mesh.neighbors(i).iter().map(|&nb| nb as usize));
    });
    std::hint::black_box(schedule);
    let indirect = start.elapsed();

    proc.barrier();
    let start = Instant::now();
    let mut session = Session::new();
    let aligned = session.loop_1d(mesh.len(), dist.clone());
    std::hint::black_box(session.plan(proc, &aligned, dist, &[AffineMap::identity()]));
    (indirect, start.elapsed())
}

/// Run one solve of `w` on `backend`; every rank's report, in rank order.
pub fn run_machine(backend: Backend, w: Workload, inputs: &Inputs, traced: bool) -> Vec<RankOut> {
    match backend {
        Backend::Native => NativeMachine::new(RANKS).run(|p| rank_body(p, w, inputs, traced)),
        Backend::MpThreads => {
            MpMachine::new(RANKS).run_threads(|p| rank_body(p, w, inputs, traced))
        }
    }
}

/// The result the sequential replay computes, and the distributed solve
/// must match bit for bit.
pub struct Expected {
    /// Final field (Jacobi) or solution `x` (CG), global numbering.
    pub field: Vec<f64>,
    /// CG's residual history (empty for Jacobi).
    pub history: Vec<f64>,
}

/// The placement the replay needs (CG folds its reductions over the
/// partitioned owned sets); built outside the replay's timing.
pub fn replay_dist(w: Workload, mesh: &AdjacencyMesh) -> DimDist {
    match w {
        Workload::JacobiGrid => DimDist::block(mesh.len(), RANKS),
        Workload::CgMp | Workload::AdaptRebalance => {
            DimDist::custom(meshes::greedy_partition(mesh, RANKS), RANKS)
        }
    }
}

/// The workload's sequential replay.
pub fn replay(w: Workload, inputs: &Inputs, dist: &DimDist) -> Expected {
    let (mesh, field) = (&inputs.mesh, &inputs.field);
    match w {
        Workload::JacobiGrid => Expected {
            field: jacobi_sequential(mesh, field, JACOBI_SWEEPS),
            history: Vec::new(),
        },
        Workload::CgMp => {
            let (x, history) = cg_sequential(mesh, field, &cg_config(), dist);
            Expected { field: x, history }
        }
        Workload::AdaptRebalance => Expected {
            field: adaptive_jacobi_sequential(mesh, field, &adapt_config()),
            history: Vec::new(),
        },
    }
}

/// Compare a solve with its replay bit for bit: the gathered field (and,
/// for CG, every rank's whole residual history).  `Err` names the first
/// difference.
pub fn check(
    w: Workload,
    inputs: &Inputs,
    dist: &DimDist,
    outs: &[RankOut],
    expected: &Expected,
) -> Result<(), String> {
    let final_dist = match w {
        Workload::AdaptRebalance => final_placement(&inputs.mesh, dist, &adapt_config()),
        Workload::JacobiGrid | Workload::CgMp => dist.clone(),
    };
    let locals: Vec<Vec<f64>> = outs.iter().map(|o| o.local.clone()).collect();
    if locals.iter().map(Vec::len).sum::<usize>() != final_dist.n() {
        return Err("the ranks' local pieces do not cover the mesh".into());
    }
    let got = gather_global(&final_dist, &locals);
    if let Some(i) = first_difference(&got, &expected.field) {
        return Err(format!("field differs from the replay at node {i}"));
    }
    for (rank, o) in outs.iter().enumerate() {
        if let Some(i) = first_difference(&o.history, &expected.history) {
            return Err(format!(
                "rank {rank}: residual history differs at entry {i}"
            ));
        }
    }
    Ok(())
}

fn first_difference(a: &[f64], b: &[f64]) -> Option<usize> {
    if a.len() != b.len() {
        return Some(a.len().min(b.len()));
    }
    a.iter()
        .zip(b)
        .position(|(x, y)| x.to_bits() != y.to_bits())
}
