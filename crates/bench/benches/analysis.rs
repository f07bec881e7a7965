//! Ablation A4: compile-time (closed-form) analysis vs the run-time
//! inspector for the same affine loop (§3.2).
//!
//! The compile-time path does interval algebra per processor; the inspector
//! touches every reference.  The gap grows linearly with the loop length.
//! `compile_time_closed_form_owner_table` runs the closed form on a
//! fragmented owner table, where the algebra's cost per range dominates.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use distrib::DimDist;
use dmsim::{CostModel, Machine};
use kali_core::analysis::{analyze, LoopSpec};
use kali_core::inspector::owner_computes_iters;
use kali_core::{run_inspector, AffineMap};

fn bench_analysis(c: &mut Criterion) {
    let mut group = c.benchmark_group("analysis");
    for &n in &[4_096usize, 65_536] {
        let p = 8usize;
        // Compile-time closed form: pure local computation, measured on the
        // host without the simulator.
        let spec = LoopSpec::on_owner(
            n - 1,
            DimDist::block(n, p),
            vec![AffineMap::shift(-1), AffineMap::shift(1)],
        );
        group.bench_with_input(
            BenchmarkId::new("compile_time_closed_form", n),
            &n,
            |b, _| {
                b.iter(|| {
                    let mut total = 0usize;
                    for rank in 0..p {
                        let s = analyze(black_box(&spec), rank).unwrap();
                        total += s.recv_len;
                    }
                    total
                })
            },
        );
        // Run-time inspector for the same references (per-element checking +
        // crystal-router exchange on the simulated machine).
        let machine = Machine::new(p, CostModel::ideal());
        group.bench_with_input(BenchmarkId::new("runtime_inspector", n), &n, |b, _| {
            b.iter(|| {
                machine.run(|proc| {
                    let dist = DimDist::block(n, proc.nprocs());
                    let exec = owner_computes_iters(&dist, proc.rank(), n - 1);
                    let s = run_inspector(proc, &dist, &exec, |i, refs| {
                        if i > 0 {
                            refs.push(i - 1);
                        }
                        refs.push(i + 1);
                    });
                    s.recv_len
                })
            })
        });
    }

    // The closed form on a fragmented owner table, the shape a mesh
    // partitioner produces: every `local(p)` is thousands of ranges, so the
    // interval algebra's cost in ranges is what this entry measures.  A
    // return to quadratic set operations shows here first.
    let (n, p) = (65_536usize, 8usize);
    let spec = LoopSpec::on_owner(
        n,
        run_length_owner_table(n, p, 0x5EED),
        vec![
            AffineMap::shift(-1),
            AffineMap::identity(),
            AffineMap::shift(1),
        ],
    );
    group.bench_with_input(
        BenchmarkId::new("compile_time_closed_form_owner_table", n),
        &n,
        |b, _| {
            b.iter(|| {
                (0..p)
                    .map(|rank| analyze(black_box(&spec), rank).unwrap().recv_len)
                    .sum::<usize>()
            })
        },
    );
    group.finish();
}

/// A synthetic owner table of `n` elements over `p` processors: runs of 1
/// to 8 elements, each given to a processor drawn by a seeded splitmix64.
fn run_length_owner_table(n: usize, p: usize, seed: u64) -> DimDist {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) as usize
    };
    let mut owners = Vec::with_capacity(n);
    while owners.len() < n {
        let run = 1 + next() % 8;
        let owner = next() % p;
        owners.extend(std::iter::repeat_n(owner, run.min(n - owners.len())));
    }
    DimDist::custom(owners, p)
}

criterion_group!(benches, bench_analysis);
criterion_main!(benches);
