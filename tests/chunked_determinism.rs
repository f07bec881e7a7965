//! Chunked-executor determinism: worker count and chunk size are
//! **performance knobs, not semantics knobs**.
//!
//! The intra-rank parallel executor splits every sweep into fixed-boundary
//! chunks, runs them on a worker pool, and merges per-chunk values, cost
//! counters and reduction contributions in ascending iteration order — so
//! the knobs can change wall-clock time but never a single bit of a result,
//! a residual history, or a metered counter.  These tests pin that contract
//! for every solver (Jacobi, CG, red–black Gauss–Seidel, adaptive-mesh
//! Jacobi, the 2-D phase-change demo) across a grid of `(workers, chunk)`
//! settings, against the single-worker run, against the sequential
//! replays, and on the native backend.

use std::sync::Mutex;

use kali_repro::distrib::DimDist;
use kali_repro::dmsim::{CostModel, Machine};
use kali_repro::kali::Session;
use kali_repro::meshes::{greedy_partition, AdjacencyMesh, RegularGrid, UnstructuredMeshBuilder};
use kali_repro::native::NativeMachine;
use kali_repro::process::{Counters, Process};
use kali_repro::solvers::{
    adaptive_jacobi_sequential, adaptive_jacobi_sweeps, cg_sequential, cg_solve, final_placement,
    gather_global, gather_multidim, jacobi_sequential, jacobi_sweeps, multidim_field,
    multidim_sequential, multidim_sweeps, partitioned_dist, redblack_sequential, redblack_sweeps,
    row_placement, AdaptiveConfig, CgConfig, CgOutcome, JacobiConfig, JacobiOutcome,
    MultiDimConfig, PhaseStrategy, RedBlackConfig, RedBlackOutcome,
};

const NPROCS: usize = 4;

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The knob-independence contract covers every metered counter *except* the
/// pending-queue high-water mark: queue occupancy is a backend/scheduling
/// observation (it moves with chunk boundaries and thread interleaving),
/// not a semantic output.
fn masked(c: Counters) -> Counters {
    Counters { queue_peak: 0, ..c }
}

/// The knob grid shared by the fixed tests: the baseline is
/// `(workers 1, chunk auto)`; every other point must match it bitwise.
fn knob_grid() -> Vec<(usize, usize)> {
    vec![(1, 0), (1, 1), (2, 0), (2, 3), (3, 7), (4, 0), (4, 64)]
}

/// Serialises the tests that set the session-default knobs.
static SESSION_KNOBS: Mutex<()> = Mutex::new(());

/// Run `f` with the session defaults set to `(workers, chunk)`.
///
/// The adaptive and multidim solvers have no knob fields of their own: their
/// sessions take the worker count and chunk length from `KALI_WORKERS` and
/// `KALI_CHUNK`.  The variables are process-wide, so the tests that set them
/// hold [`SESSION_KNOBS`] for the whole run; every other test in this binary
/// passes its knobs explicitly, which overrides the defaults.
fn with_session_knobs<R>(workers: usize, chunk: usize, f: impl FnOnce() -> R) -> R {
    let _guard = SESSION_KNOBS.lock().unwrap_or_else(|e| e.into_inner());
    let saved = [
        ("KALI_WORKERS", std::env::var_os("KALI_WORKERS")),
        ("KALI_CHUNK", std::env::var_os("KALI_CHUNK")),
    ];
    std::env::set_var("KALI_WORKERS", workers.to_string());
    std::env::set_var("KALI_CHUNK", chunk.to_string());
    let session = Session::new();
    assert_eq!(
        (session.workers(), session.chunk_size()),
        (workers.max(1), chunk),
        "sessions must pick up the knobs"
    );
    let out = f();
    for (name, value) in saved {
        match value {
            Some(v) => std::env::set_var(name, v),
            None => std::env::remove_var(name),
        }
    }
    out
}

fn run_jacobi(
    mesh: &AdjacencyMesh,
    initial: &[f64],
    workers: usize,
    chunk: usize,
) -> Vec<JacobiOutcome> {
    let config = JacobiConfig {
        sweeps: 8,
        convergence_check_every: Some(2),
        workers: Some(workers),
        chunk: Some(chunk),
        ..JacobiConfig::default()
    };
    Machine::new(NPROCS, CostModel::ideal()).run(|proc| {
        let dist = DimDist::block(mesh.len(), proc.nprocs());
        jacobi_sweeps(proc, mesh, &dist, initial, &config)
    })
}

#[test]
fn jacobi_is_bitwise_identical_at_every_worker_count_and_chunk_size() {
    let grid = RegularGrid::square(14);
    let mesh = grid.five_point_mesh();
    let initial = grid.initial_field();
    let dist = DimDist::block(mesh.len(), NPROCS);
    let expected = jacobi_sequential(&mesh, &initial, 8);

    let baseline = run_jacobi(&mesh, &initial, 1, 0);
    let base_field = gather_global(
        &dist,
        &baseline
            .iter()
            .map(|o| o.local_a.clone())
            .collect::<Vec<_>>(),
    );
    assert_eq!(
        bits(&base_field),
        bits(&expected),
        "single-worker baseline vs sequential"
    );

    for (workers, chunk) in knob_grid() {
        let outcomes = run_jacobi(&mesh, &initial, workers, chunk);
        let field = gather_global(
            &dist,
            &outcomes
                .iter()
                .map(|o| o.local_a.clone())
                .collect::<Vec<_>>(),
        );
        assert_eq!(
            bits(&field),
            bits(&base_field),
            "field must not depend on (workers {workers}, chunk {chunk})"
        );
        for (rank, (o, b)) in outcomes.iter().zip(&baseline).enumerate() {
            assert_eq!(
                bits(&o.change_history),
                bits(&b.change_history),
                "rank {rank} change history at (workers {workers}, chunk {chunk})"
            );
            assert_eq!(
                masked(o.counters),
                masked(b.counters),
                "rank {rank} merged counters at (workers {workers}, chunk {chunk})"
            );
            assert_eq!(o.reductions, b.reductions);
            assert_eq!(o.reduction_bytes, b.reduction_bytes);
        }
    }
}

#[test]
fn cg_residual_history_is_knob_independent_and_replays_bitwise() {
    let mesh = UnstructuredMeshBuilder::new(10, 10)
        .seed(23)
        .scramble_numbering(true)
        .build();
    let b: Vec<f64> = (0..mesh.len())
        .map(|i| ((i * 17) % 13) as f64 * 0.25 - 1.0)
        .collect();
    let dist = DimDist::block(mesh.len(), NPROCS);
    let run = |workers: usize, chunk: usize| -> Vec<CgOutcome> {
        let config = CgConfig {
            iters: 20,
            workers: Some(workers),
            chunk: Some(chunk),
            ..CgConfig::default()
        };
        Machine::new(NPROCS, CostModel::ideal()).run(|proc| {
            let dist = DimDist::block(mesh.len(), proc.nprocs());
            cg_solve(proc, &mesh, &dist, &b, &config)
        })
    };
    let (seq_x, seq_history) = cg_sequential(&mesh, &b, &CgConfig::with_iters(20), &dist);

    let baseline = run(1, 0);
    for (workers, chunk) in knob_grid() {
        let outcomes = run(workers, chunk);
        let x = gather_global(
            &dist,
            &outcomes
                .iter()
                .map(|o| o.local_x.clone())
                .collect::<Vec<_>>(),
        );
        assert_eq!(
            bits(&x),
            bits(&seq_x),
            "solution vs sequential at (workers {workers}, chunk {chunk})"
        );
        for (rank, (o, b)) in outcomes.iter().zip(&baseline).enumerate() {
            assert_eq!(
                bits(&o.residual_history),
                bits(&seq_history),
                "rank {rank} residual history at (workers {workers}, chunk {chunk})"
            );
            assert_eq!(
                masked(o.counters),
                masked(b.counters),
                "rank {rank} merged counters at (workers {workers}, chunk {chunk})"
            );
            assert_eq!(o.stats.reductions, b.stats.reductions);
            assert_eq!(o.stats.reduction_bytes, b.stats.reduction_bytes);
        }
    }
}

#[test]
fn redblack_field_and_change_history_are_knob_independent() {
    let mesh = UnstructuredMeshBuilder::new(9, 9).seed(31).build();
    let initial: Vec<f64> = (0..mesh.len())
        .map(|i| ((i * 29) % 23) as f64 * 0.125)
        .collect();
    let dist = DimDist::block(mesh.len(), NPROCS);
    let run = |workers: usize, chunk: usize| -> Vec<RedBlackOutcome> {
        let config = RedBlackConfig {
            sweeps: 6,
            check_every: Some(2),
            workers: Some(workers),
            chunk: Some(chunk),
            ..RedBlackConfig::default()
        };
        Machine::new(NPROCS, CostModel::ideal()).run(|proc| {
            let dist = DimDist::block(mesh.len(), proc.nprocs());
            redblack_sweeps(proc, &mesh, &dist, &initial, &config)
        })
    };
    let seq_config = RedBlackConfig {
        sweeps: 6,
        check_every: Some(2),
        ..RedBlackConfig::default()
    };
    let (seq_a, seq_history) = redblack_sequential(&mesh, &initial, &seq_config, &dist);

    let baseline = run(1, 0);
    for (workers, chunk) in knob_grid() {
        let outcomes = run(workers, chunk);
        let a = gather_global(
            &dist,
            &outcomes
                .iter()
                .map(|o| o.local_a.clone())
                .collect::<Vec<_>>(),
        );
        assert_eq!(
            bits(&a),
            bits(&seq_a),
            "field vs sequential at (workers {workers}, chunk {chunk})"
        );
        for (rank, (o, b)) in outcomes.iter().zip(&baseline).enumerate() {
            assert_eq!(bits(&o.change_history), bits(&seq_history));
            assert_eq!(
                masked(o.counters),
                masked(b.counters),
                "rank {rank} merged counters at (workers {workers}, chunk {chunk})"
            );
        }
    }
}

#[test]
fn adaptive_rebalancing_run_is_knob_independent_and_replays_bitwise() {
    let mesh = UnstructuredMeshBuilder::new(10, 10)
        .seed(13)
        .scramble_numbering(true)
        .build();
    let initial: Vec<f64> = (0..mesh.len())
        .map(|i| ((i * 23) % 31) as f64 * 0.125)
        .collect();
    let config = AdaptiveConfig {
        sweeps: 7,
        adapt_every: Some(2),
        rebalance: true,
        ..AdaptiveConfig::default()
    };
    let expected = adaptive_jacobi_sequential(&mesh, &initial, &config);
    let initial_dist = DimDist::custom(greedy_partition(&mesh, NPROCS), NPROCS);
    let final_dist = final_placement(&mesh, &initial_dist, &config);
    let run = |workers: usize, chunk: usize| {
        with_session_knobs(workers, chunk, || {
            Machine::new(NPROCS, CostModel::ncube7()).run(|proc| {
                let dist = partitioned_dist(proc, &mesh);
                adaptive_jacobi_sweeps(proc, &mesh, &dist, &initial, &config)
            })
        })
    };

    let baseline = run(1, 0);
    for (workers, chunk) in knob_grid() {
        let outcomes = run(workers, chunk);
        let field = gather_global(
            &final_dist,
            &outcomes
                .iter()
                .map(|o| o.local_a.clone())
                .collect::<Vec<_>>(),
        );
        assert_eq!(
            bits(&field),
            bits(&expected),
            "field vs sequential at (workers {workers}, chunk {chunk})"
        );
        for (rank, (o, b)) in outcomes.iter().zip(&baseline).enumerate() {
            assert_eq!(o.adaptations, 3);
            assert_eq!(
                masked(o.counters),
                masked(b.counters),
                "rank {rank} merged counters at (workers {workers}, chunk {chunk})"
            );
        }
    }
}

#[test]
fn multidim_phases_are_knob_independent_and_replay_bitwise() {
    let mut config = MultiDimConfig::new(12, 10);
    config.sweeps_per_phase = 3;
    let initial = multidim_field(config.rows, config.cols);
    let expected = multidim_sequential(&config, &initial);
    for strategy in [PhaseStrategy::RowsThroughout, PhaseStrategy::PhaseChange] {
        config.strategy = strategy;
        let run = |workers: usize, chunk: usize| {
            with_session_knobs(workers, chunk, || {
                Machine::new(NPROCS, CostModel::ncube7())
                    .run(|proc| multidim_sweeps(proc, &config, &initial))
            })
        };
        let baseline = run(1, 0);
        for (workers, chunk) in knob_grid() {
            let outcomes = run(workers, chunk);
            let field = gather_multidim(
                &row_placement(&config, NPROCS),
                &outcomes
                    .iter()
                    .map(|o| o.local_a.clone())
                    .collect::<Vec<_>>(),
            );
            assert_eq!(
                bits(&field),
                bits(&expected),
                "{} field vs sequential at (workers {workers}, chunk {chunk})",
                strategy.name()
            );
            for (rank, (o, b)) in outcomes.iter().zip(&baseline).enumerate() {
                assert_eq!(
                    masked(o.counters),
                    masked(b.counters),
                    "{} rank {rank} merged counters at (workers {workers}, chunk {chunk})",
                    strategy.name()
                );
            }
        }
    }
}

#[test]
fn native_backend_agrees_with_dmsim_at_four_workers() {
    // The native backend takes the same chunked path (plus packed pooled
    // messaging); at 4 workers it must still match the simulator and the
    // sequential reference bit for bit.
    let grid = RegularGrid::square(12);
    let mesh = grid.five_point_mesh();
    let initial = grid.initial_field();
    let dist = DimDist::block(mesh.len(), NPROCS);
    let config = JacobiConfig {
        sweeps: 6,
        convergence_check_every: Some(3),
        workers: Some(4),
        chunk: Some(16),
        ..JacobiConfig::default()
    };
    let native = NativeMachine::new(NPROCS).run(|proc| {
        let dist = DimDist::block(mesh.len(), proc.nprocs());
        jacobi_sweeps(proc, &mesh, &dist, &initial, &config)
    });
    let field = gather_global(
        &dist,
        &native.iter().map(|o| o.local_a.clone()).collect::<Vec<_>>(),
    );
    assert_eq!(bits(&field), bits(&jacobi_sequential(&mesh, &initial, 6)));

    let simulated = Machine::new(NPROCS, CostModel::ideal()).run(|proc| {
        let dist = DimDist::block(mesh.len(), proc.nprocs());
        jacobi_sweeps(proc, &mesh, &dist, &initial, &config)
    });
    for (n, s) in native.iter().zip(&simulated) {
        assert_eq!(bits(&n.change_history), bits(&s.change_history));
        assert_eq!(n.local_a.len(), s.local_a.len());
    }
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    fn arb_knobs() -> impl Strategy<Value = (usize, usize, u64)> {
        const CHUNKS: [usize; 7] = [0, 1, 3, 7, 17, 64, 2048];
        (1usize..6, 0usize..CHUNKS.len(), 1u64..50)
            .prop_map(|(workers, c, seed)| (workers, CHUNKS[c], seed))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Any `(workers, chunk)` and any mesh seed: the Jacobi field, its
        /// change history and the merged per-rank counters are bitwise
        /// identical to the scalar single-worker run and the sequential
        /// replay.
        #[test]
        fn any_knobs_replay_the_scalar_jacobi_bitwise(case in arb_knobs()) {
            let (workers, chunk, seed) = case;
            let mesh = UnstructuredMeshBuilder::new(8, 8).seed(seed).build();
            let initial: Vec<f64> =
                (0..mesh.len()).map(|i| (i % 11) as f64 * 0.3).collect();
            let dist = DimDist::block(mesh.len(), NPROCS);
            let expected = jacobi_sequential(&mesh, &initial, 5);

            let run = |w: usize, c: usize| {
                let config = JacobiConfig {
                    sweeps: 5,
                    convergence_check_every: Some(2),
                    workers: Some(w),
                    chunk: Some(c),
                    ..JacobiConfig::default()
                };
                Machine::new(NPROCS, CostModel::ideal()).run(|proc| {
                    let dist = DimDist::block(mesh.len(), proc.nprocs());
                    jacobi_sweeps(proc, &mesh, &dist, &initial, &config)
                })
            };
            let baseline = run(1, 0);
            let outcomes = run(workers, chunk);
            let field = gather_global(
                &dist,
                &outcomes.iter().map(|o| o.local_a.clone()).collect::<Vec<_>>(),
            );
            prop_assert_eq!(bits(&field), bits(&expected));
            let totals = |os: &[JacobiOutcome]| -> Counters {
                os.iter().fold(Counters::default(), |mut acc, o| {
                    acc.flops += o.counters.flops;
                    acc.mem_refs += o.counters.mem_refs;
                    acc.loop_iters += o.counters.loop_iters;
                    acc.msgs_sent += o.counters.msgs_sent;
                    acc.bytes_sent += o.counters.bytes_sent;
                    acc.nonlocal_refs += o.counters.nonlocal_refs;
                    acc
                })
            };
            prop_assert_eq!(totals(&outcomes), totals(&baseline));
            for (o, b) in outcomes.iter().zip(&baseline) {
                prop_assert_eq!(masked(o.counters), masked(b.counters));
                prop_assert_eq!(bits(&o.change_history), bits(&b.change_history));
            }
        }
    }
}
