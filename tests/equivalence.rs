//! Cross-crate integration tests: numerical equivalence of the three
//! implementations (sequential, hand-coded message passing, Kali) and
//! distribution independence of the Kali program.

use kali_repro::baseline::handcoded_jacobi;
use kali_repro::distrib::DimDist;
use kali_repro::dmsim::{CostModel, Machine};
use kali_repro::meshes::{AdjacencyMesh, RegularGrid, UnstructuredMeshBuilder};
use kali_repro::solvers::{jacobi_sequential, jacobi_sweeps, JacobiConfig};

/// Gather a distributed solution back into global numbering.
fn gather(dist: &DimDist, locals: &[Vec<f64>]) -> Vec<f64> {
    let mut global = vec![0.0f64; dist.n()];
    for (rank, local) in locals.iter().enumerate() {
        for (l, v) in local.iter().enumerate() {
            global[dist.global_index(rank, l)] = *v;
        }
    }
    global
}

fn kali_solution(
    mesh: &AdjacencyMesh,
    initial: &[f64],
    sweeps: usize,
    nprocs: usize,
    dist_of: impl Fn(usize) -> DimDist + Sync,
) -> Vec<f64> {
    let machine = Machine::new(nprocs, CostModel::ideal());
    let outcomes = machine.run(|proc| {
        let dist = dist_of(proc.nprocs());
        jacobi_sweeps(
            proc,
            mesh,
            &dist,
            initial,
            &JacobiConfig::with_sweeps(sweeps),
        )
        .local_a
    });
    gather(&dist_of(nprocs), &outcomes)
}

#[test]
fn kali_handcoded_and_sequential_agree_bitwise_on_the_paper_workload() {
    let grid = RegularGrid::square(24);
    let mesh = grid.five_point_mesh();
    let initial = grid.initial_field();
    let sweeps = 12;
    let expected = jacobi_sequential(&mesh, &initial, sweeps);

    for nprocs in [2usize, 4, 8] {
        let kali = kali_solution(&mesh, &initial, sweeps, nprocs, |p| {
            DimDist::block(mesh.len(), p)
        });
        assert_eq!(kali, expected, "Kali vs sequential, {nprocs} processors");

        let machine = Machine::new(nprocs, CostModel::ideal());
        let hand = machine.run(|proc| handcoded_jacobi(proc, &mesh, &initial, sweeps).local_a);
        let hand = gather(&DimDist::block(mesh.len(), nprocs), &hand);
        assert_eq!(
            hand, expected,
            "hand-coded vs sequential, {nprocs} processors"
        );
    }
}

#[test]
fn kali_is_distribution_independent_on_an_unstructured_mesh() {
    // The same program text must produce the same answer under block,
    // cyclic, block-cyclic and user-defined distributions (paper §2.4).
    let mesh = UnstructuredMeshBuilder::new(14, 14).seed(3).build();
    let n = mesh.len();
    let initial: Vec<f64> = (0..n).map(|i| ((i * 13) % 29) as f64).collect();
    let sweeps = 6;
    let expected = jacobi_sequential(&mesh, &initial, sweeps);
    let nprocs = 4;

    let block = kali_solution(&mesh, &initial, sweeps, nprocs, |p| DimDist::block(n, p));
    let cyclic = kali_solution(&mesh, &initial, sweeps, nprocs, |p| DimDist::cyclic(n, p));
    let bc = kali_solution(&mesh, &initial, sweeps, nprocs, |p| {
        DimDist::block_cyclic(n, p, 5)
    });
    let custom = kali_solution(&mesh, &initial, sweeps, nprocs, |p| {
        DimDist::custom((0..n).map(|i| (i * 7 + 1) % p).collect(), p)
    });

    assert_eq!(block, expected);
    assert_eq!(cyclic, expected);
    assert_eq!(bc, expected);
    assert_eq!(custom, expected);
}

#[test]
fn kali_matches_handcoded_communication_volume_on_block_distribution() {
    // For the block-distributed grid both versions must move exactly the
    // same halo elements per sweep.
    let grid = RegularGrid::square(32);
    let mesh = grid.five_point_mesh();
    let initial = grid.initial_field();
    let nprocs = 4;
    let sweeps = 3;

    let machine = Machine::new(nprocs, CostModel::ideal());
    let (_, kali_stats) = machine.run_stats(|proc| {
        let dist = DimDist::block(mesh.len(), proc.nprocs());
        jacobi_sweeps(
            proc,
            &mesh,
            &dist,
            &initial,
            &JacobiConfig::with_sweeps(sweeps),
        );
    });
    let (hand_out, hand_stats) =
        machine.run_stats(|proc| handcoded_jacobi(proc, &mesh, &initial, sweeps));

    // Executor halo traffic: 6 boundary messages of 32 f64 per sweep.
    let halo_bytes_per_sweep: u64 = 6 * 32 * 8;
    assert!(kali_stats.totals.bytes_sent >= sweeps as u64 * halo_bytes_per_sweep);
    assert!(hand_stats.totals.bytes_sent >= sweeps as u64 * halo_bytes_per_sweep);
    // The Kali executor must not move more halo data than the hand-coded
    // version (the inspector's records add only metadata, exchanged once).
    let kali_executor_bytes = kali_stats.totals.bytes_sent;
    let hand_total_bytes = hand_stats.totals.bytes_sent;
    // Allow for the one-time inspector record exchange (≤ 64 records of 48 B).
    assert!(
        kali_executor_bytes <= hand_total_bytes + 64 * 48,
        "kali moved {kali_executor_bytes} bytes, hand-coded {hand_total_bytes}"
    );
    // Ghost-region sizes must agree with the Kali schedules.
    assert_eq!(hand_out[1].ghost_elements, 64);
}

#[test]
fn single_processor_runs_need_no_communication() {
    let grid = RegularGrid::square(16);
    let mesh = grid.five_point_mesh();
    let initial = grid.initial_field();
    let machine = Machine::new(1, CostModel::ncube7());
    let (outcomes, stats) = machine.run_stats(|proc| {
        let dist = DimDist::block(mesh.len(), proc.nprocs());
        jacobi_sweeps(proc, &mesh, &dist, &initial, &JacobiConfig::with_sweeps(5))
    });
    assert_eq!(stats.totals.msgs_sent, 0);
    assert_eq!(outcomes[0].recv_elements, 0);
    assert_eq!(
        gather(
            &DimDist::block(mesh.len(), 1),
            &[outcomes[0].local_a.clone()]
        ),
        jacobi_sequential(&mesh, &initial, 5)
    );
}
