//! Property tests: the compile-time analysis and the run-time inspector
//! must produce equivalent communication schedules whenever both apply
//! (paper §3.2 presents them as two evaluations of the same formulas).

use kali_repro::distrib::DimDist;
use kali_repro::dmsim::{CostModel, Machine};
use kali_repro::kali::analysis::{analyze, analyze_stripe, LoopSpec, StripeSpec};
use kali_repro::kali::{run_inspector, AffineMap};

use proptest::prelude::*;

/// Run both analyses for one loop spec and compare their signatures on
/// every processor.
fn assert_equivalent(spec: &LoopSpec) {
    let nprocs = spec.on_dist.nprocs();
    let machine = Machine::new(nprocs, CostModel::ideal());
    let spec_clone = spec.clone();
    let inspector_schedules = machine.run(|proc| {
        let exec: Vec<usize> = spec_clone.exec_set(proc.rank()).iter().collect();
        let maps = spec_clone.ref_maps.clone();
        let data_n = spec_clone.data_dist.n();
        run_inspector(proc, &spec_clone.data_dist, &exec, |i, refs| {
            for g in &maps {
                if let Some(v) = g.apply(i) {
                    if v < data_n {
                        refs.push(v);
                    }
                }
            }
        })
        .signature()
    });
    for (rank, inspector_schedule) in inspector_schedules.iter().enumerate().take(nprocs) {
        let ct = analyze(spec, rank)
            .expect("unit-stride affine loops must have a closed form")
            .signature();
        assert_eq!(
            &ct, inspector_schedule,
            "rank {rank}: compile-time and inspector schedules disagree"
        );
    }
}

#[test]
fn figure1_shift_is_equivalent_under_block_and_cyclic() {
    for dist in [DimDist::block(100, 4), DimDist::cyclic(100, 4)] {
        let spec = LoopSpec {
            range: (0, 99),
            on_dist: dist.clone(),
            on_map: AffineMap::identity(),
            data_dist: dist,
            ref_maps: vec![AffineMap::shift(1)],
        };
        assert_equivalent(&spec);
    }
}

#[test]
fn three_point_stencil_is_equivalent_under_block_cyclic() {
    let dist = DimDist::block_cyclic(120, 8, 7);
    let spec = LoopSpec {
        range: (1, 119),
        on_dist: dist.clone(),
        on_map: AffineMap::identity(),
        data_dist: dist,
        ref_maps: vec![
            AffineMap::shift(-1),
            AffineMap::identity(),
            AffineMap::shift(1),
        ],
    };
    assert_equivalent(&spec);
}

/// Run the stripe closed form and the run-time inspector over the same
/// congruence class and compare their signatures on every processor.
fn assert_stripe_equivalent(spec: &StripeSpec) {
    let nprocs = spec.on_dist.nprocs();
    let machine = Machine::new(nprocs, CostModel::ideal());
    let spec_clone = spec.clone();
    let inspector_schedules = machine.run(|proc| {
        let exec: Vec<usize> = spec_clone.exec_set(proc.rank()).iter().collect();
        let maps = spec_clone.ref_maps.clone();
        let data_n = spec_clone.data_dist.n();
        run_inspector(proc, &spec_clone.data_dist, &exec, |i, refs| {
            for g in &maps {
                if let Some(v) = g.apply(i) {
                    if v < data_n {
                        refs.push(v);
                    }
                }
            }
        })
        .signature()
    });
    for (rank, inspector_schedule) in inspector_schedules.iter().enumerate().take(nprocs) {
        let ct = analyze_stripe(spec, rank)
            .expect("unit-stride stripe loops must have a closed form")
            .signature();
        assert_eq!(
            &ct, inspector_schedule,
            "rank {rank}: stripe closed form and inspector schedules disagree"
        );
    }
}

#[test]
fn redblack_stripes_are_equivalent_under_every_distribution() {
    // Both halves of a red–black three-point relaxation, over block, cyclic
    // and block-cyclic placements: the stripe closed form must reproduce
    // the inspector's schedule exactly — with zero messages.
    let n = 83;
    let p = 4;
    for dist in [
        DimDist::block(n, p),
        DimDist::cyclic(n, p),
        DimDist::block_cyclic(n, p, 5),
    ] {
        for lo in [0usize, 1] {
            let spec = StripeSpec {
                lo,
                hi: n,
                step: 2,
                on_dist: dist.clone(),
                data_dist: dist.clone(),
                ref_maps: vec![AffineMap::shift(-1), AffineMap::shift(1)],
            };
            assert_stripe_equivalent(&spec);
        }
    }
}

/// Exhaustive executability check: for every iteration of `exec(p)`, every
/// reference is either local or covered by the receive schedule, and the
/// receive schedule contains nothing else.
fn assert_schedule_is_exact(spec: &LoopSpec, rank: usize) {
    let s = analyze(spec, rank).unwrap();
    let recv = s.recv_index_set();
    let mut needed = kali_repro::distrib::IndexSet::new();
    for i in spec.exec_set(rank).iter() {
        for g in &spec.ref_maps {
            if let Some(v) = g.apply(i) {
                if v < spec.data_dist.n() && !spec.data_dist.is_local(rank, v) {
                    needed.insert(v);
                }
            }
        }
    }
    assert_eq!(
        recv.iter().collect::<Vec<_>>(),
        needed.iter().collect::<Vec<_>>(),
        "rank {rank}: receive set is not exactly the set of nonlocal references"
    );
}

/// An owner table of `n` elements over `p` processors made of runs whose
/// lengths (1 to 4) and owners are drawn from a seeded generator, so every
/// `local(p)` fragments into many ranges — the shape a mesh partitioner's
/// owner table has, and the path `cg_solve`'s closed-form plans take.
fn run_length_owner_table(n: usize, p: usize, seed: u64) -> DimDist {
    let mut state = seed;
    let mut next = move || {
        // splitmix64
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) as usize
    };
    let mut owners = Vec::with_capacity(n);
    while owners.len() < n {
        let run = 1 + next() % 4;
        let owner = next() % p;
        owners.extend(std::iter::repeat_n(owner, run.min(n - owners.len())));
    }
    DimDist::custom(owners, p)
}

/// The distribution a random-loop case draws: block, cyclic, block-cyclic
/// or a fragmented owner table.
fn pick_dist(kind: usize, n: usize, p: usize, block: usize, seed: u64) -> DimDist {
    match kind {
        0 => DimDist::block(n, p),
        1 => DimDist::cyclic(n, p),
        2 => DimDist::block_cyclic(n, p, block),
        _ => run_length_owner_table(n, p, seed),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn compile_time_matches_inspector_for_random_affine_loops(
        n in 16usize..160,
        p_exp in 1u32..4,
        shift_a in -3i64..4,
        shift_b in -3i64..4,
        kind in 0usize..4,
        block in 1usize..9,
        seed in 0u64..1_000_000,
    ) {
        let p = 1usize << p_exp;
        let dist = pick_dist(kind, n, p, block, seed);
        let spec = LoopSpec {
            range: (0, n),
            on_dist: dist.clone(),
            on_map: AffineMap::identity(),
            data_dist: dist,
            ref_maps: vec![AffineMap::shift(shift_a), AffineMap::shift(shift_b)],
        };
        assert_equivalent(&spec);
    }

    #[test]
    fn stripe_closed_form_matches_inspector_for_random_strided_loops(
        n in 16usize..160,
        p in 2usize..8,
        step in 2usize..5,
        lo in 0usize..4,
        shift_a in -2i64..3,
        shift_b in -2i64..3,
        kind in 0usize..4,
        block in 1usize..9,
        seed in 0u64..1_000_000,
    ) {
        let dist = pick_dist(kind, n, p, block, seed);
        let spec = StripeSpec {
            lo,
            hi: n,
            step,
            on_dist: dist.clone(),
            data_dist: dist,
            ref_maps: vec![AffineMap::shift(shift_a), AffineMap::shift(shift_b)],
        };
        assert_stripe_equivalent(&spec);
    }

    #[test]
    fn compile_time_schedules_are_exact_for_random_loops(
        n in 16usize..200,
        p in 2usize..10,
        shift in -4i64..5,
        kind in 0usize..4,
        seed in 0u64..1_000_000,
    ) {
        let dist = pick_dist(kind, n, p, 3, seed);
        let spec = LoopSpec {
            range: (0, n),
            on_dist: dist.clone(),
            on_map: AffineMap::identity(),
            data_dist: dist,
            ref_maps: vec![AffineMap::shift(shift), AffineMap::identity()],
        };
        for rank in 0..p {
            assert_schedule_is_exact(&spec, rank);
        }
    }
}
