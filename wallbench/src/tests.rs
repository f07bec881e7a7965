//! The benchmark's own checks: its declared metrics agree with
//! `BENCHMARK.json`, and the forwarding wrapper changes no result bit, no
//! backend counter and no per-layer count.

use std::time::{Duration, Instant};

use kali_process::Counters;
use meshes::{RegularGrid, UnstructuredMeshBuilder};

use crate::measure::{
    check_definitions, exact_counts, layer_values, MetricDef, END_TO_END, PER_LAYER,
};
use crate::stats::Json;
use crate::workloads::{self, Backend, Inputs, RankOut, Workload};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit, better)` of every metric in one list of `BENCHMARK.json`.
fn declared(doc: &Json, key: &str) -> Vec<[String; 3]> {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has a {key} list"))
        .iter()
        .map(|m| {
            ["name", "unit", "better"].map(|k| m.get(k).and_then(Json::as_str).expect(k).into())
        })
        .collect()
}

fn defined(defs: &[MetricDef]) -> Vec<[String; 3]> {
    defs.iter()
        .map(|d| [d.name, d.unit, d.better].map(String::from))
        .collect()
}

#[test]
fn metric_definitions_follow_the_rules_and_match_benchmark_json() {
    assert_eq!(check_definitions(), Ok(()));

    let doc = benchmark_json();
    assert_eq!(declared(&doc, "end_to_end"), defined(&END_TO_END));
    assert_eq!(declared(&doc, "per_layer"), defined(&PER_LAYER));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
        .collect();
    assert_eq!(workloads, Workload::ALL.map(Workload::name).to_vec());
    let setup = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .and_then(|ms| {
            ms.iter()
                .find(|m| m.get("name") == Some(&Json::Str("setup_s".into())))
        })
        .expect("setup_s is declared");
    let bound = |m: &Json| match m.get("bound") {
        Some(Json::Num(b)) => *b,
        _ => panic!("every end-to-end metric has a bound"),
    };
    for m in doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .expect("end_to_end")
    {
        assert!(bound(m) > 0.0 && bound(m) <= 0.25);
        assert!(bound(m) <= bound(setup), "setup_s has the largest bound");
    }
}

/// Small inputs for the wrapper checks (the benchmark's own sizes take
/// seconds per solve).
fn small_inputs(w: Workload) -> Inputs {
    let mesh = match w {
        Workload::JacobiGrid => RegularGrid::square(24).five_point_mesh(),
        Workload::CgMp | Workload::AdaptRebalance => UnstructuredMeshBuilder::new(14, 13)
            .seed(5)
            .scramble_numbering(true)
            .build(),
    };
    let field = (0..mesh.len())
        .map(|i| ((i * 37) % 23) as f64 * 0.25 - 2.0)
        .collect();
    Inputs {
        mesh,
        field,
        build: Duration::ZERO,
    }
}

fn check_against_replay(w: Workload, inputs: &Inputs, outs: &[RankOut]) {
    let dist = workloads::replay_dist(w, &inputs.mesh);
    let expected = workloads::replay(w, inputs, &dist);
    workloads::check(w, inputs, &dist, outs, &expected).unwrap_or_else(|e| {
        panic!(
            "{} on {outs_len} ranks: {e}",
            w.name(),
            outs_len = outs.len()
        )
    });
}

fn result_bits(outs: &[RankOut]) -> Vec<Vec<u64>> {
    outs.iter()
        .flat_map(|o| [&o.local, &o.history])
        .map(|v| v.iter().map(|x| x.to_bits()).collect())
        .collect()
}

/// The backend counters with the one timing-dependent field cleared:
/// `queue_peak` is a high-water mark of messages that arrived early, which
/// depends on thread timing, not on the program.
fn counters_without_peak(outs: &[RankOut]) -> Vec<Counters> {
    outs.iter()
        .map(|o| Counters {
            queue_peak: 0,
            ..o.counters
        })
        .collect()
}

#[test]
fn wrapped_solves_match_unwrapped_ones_and_counts_repeat() {
    for w in Workload::ALL {
        let inputs = small_inputs(w);
        for backend in [Backend::Native, Backend::MpThreads] {
            let plain = workloads::run_machine(backend, w, &inputs, false);
            let traced = workloads::run_machine(backend, w, &inputs, true);
            let again = workloads::run_machine(backend, w, &inputs, true);
            let label = format!("{} on {backend:?}", w.name());

            check_against_replay(w, &inputs, &plain);
            check_against_replay(w, &inputs, &traced);
            assert_eq!(
                result_bits(&plain),
                result_bits(&traced),
                "{label}: result bits"
            );
            assert_eq!(
                counters_without_peak(&plain),
                counters_without_peak(&traced),
                "{label}: backend counters"
            );
            assert_eq!(
                exact_counts(&traced),
                exact_counts(&again),
                "{label}: per-layer counts"
            );

            // Every layer the workload exercises was seen.
            let counts = exact_counts(&traced);
            assert!(
                counts.iter().all(|c| c.wrapper.locality_checks > 0),
                "{label}: inspector"
            );
            assert!(
                counts.iter().all(|c| c.wrapper.local_refs > 0),
                "{label}: executor"
            );
            assert!(
                counts
                    .iter()
                    .all(|c| c.wrapper.sends.iter().sum::<u64>() > 0),
                "{label}"
            );
            let wire: u64 = counts.iter().map(|c| c.wire_bytes).sum();
            assert_eq!(
                wire > 0,
                backend == Backend::MpThreads,
                "{label}: wire bytes"
            );
            let layers = layer_values(w, &inputs, &traced, Instant::now());
            let value = |name: &str| {
                layers
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map(|(_, v)| *v)
                    .expect("measured")
            };
            let reduces = value("core.reduce_calls");
            assert_eq!(reduces > 0.0, w == Workload::CgMp, "{label}: reductions");
            let redist = value("core.redist_msgs");
            assert_eq!(
                redist > 0.0,
                w == Workload::AdaptRebalance,
                "{label}: redistribution"
            );
        }
    }
}

#[test]
fn every_per_layer_metric_is_measured_once() {
    let w = Workload::JacobiGrid;
    let inputs = small_inputs(w);
    let outs = workloads::run_machine(Backend::Native, w, &inputs, true);
    let layers = layer_values(w, &inputs, &outs, Instant::now());
    let measured: Vec<&str> = layers.iter().map(|(n, _)| *n).collect();
    let declared: Vec<&str> = PER_LAYER
        .iter()
        .map(|m| m.name)
        .filter(|n| *n != "trace.overhead_x")
        .collect();
    assert_eq!(measured, declared);
}
