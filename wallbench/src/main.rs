//! Wall-clock benchmark of the Kali runtime on its real backends.
//!
//! ```text
//! cargo run --release --offline --manifest-path wallbench/Cargo.toml -- \
//!     --workload <jacobi-grid|cg-mp|adapt-rebalance> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! One run measures one workload in a closed loop (one solve at a time) for
//! `--seconds`, checks every solve bit for bit against its sequential
//! replay, and prints a report whose last line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.  `--trace 0` reports the
//! end-to-end metrics; `--trace 1` alternates traced and untraced solves and
//! reports the per-layer metrics measured through the forwarding
//! [`traced::Traced`] wrapper.  Run from the repository root; kali-mp's
//! rendezvous sockets go under `.bench_tmp/` there.

#![forbid(unsafe_code)]

mod measure;
mod stats;
mod traced;
mod workloads;

use std::process::ExitCode;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use measure::{MetricDef, Rep, END_TO_END, PER_LAYER};
use stats::{median, quartiles, tail_percentile, Json};
use workloads::{Workload, RANKS, WORKERS};

const USAGE: &str = "usage: wallbench --workload <jacobi-grid|cg-mp|adapt-rebalance> \
                     [--seed <n>] [--seconds <n>] [--trace <0|1>]";

/// Repetitions each sample set needs before a run may stop.
const MIN_REPS: usize = 5;
/// A repetition (inputs, machine, solve, replay) taking longer than this
/// counts as failed, and the run stops: a runtime deadlock would otherwise
/// hang the benchmark forever.
const REP_BOUND: Duration = Duration::from_secs(30);
/// A run stops taking new repetitions after this long, whatever the sample
/// counts, so that it ends well within three minutes.
const RUN_LIMIT: Duration = Duration::from_secs(110);
/// Where kali-mp puts its rendezvous sockets (relative to the working
/// directory, so socket paths stay short and inside the checkout).
const SOCKET_DIR: &str = ".bench_tmp";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10u64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Refuse to measure a program other than the one the benchmark defines.
fn preflight() -> Result<usize, String> {
    for knob in ["KALI_WORKERS", "KALI_CHUNK"] {
        if std::env::var_os(knob).is_some() {
            return Err(format!(
                "{knob} is set; it changes the program being measured"
            ));
        }
    }
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    if RANKS * WORKERS > threads {
        return Err(format!(
            "{RANKS} ranks x {WORKERS} workers exceed the {threads} hardware threads"
        ));
    }
    Ok(threads)
}

enum Failure {
    Panicked(String),
    Overran,
}

/// Run `f` on its own thread and wait at most `limit` for it.  On overrun
/// the thread is left behind; the caller ends the process.
fn bounded<T: Send + 'static>(
    limit: Duration,
    f: impl FnOnce() -> T + Send + 'static,
) -> Result<T, Failure> {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::Builder::new()
        .name("wallbench-rep".into())
        .spawn(move || {
            let _ = tx.send(std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)));
        })
        .expect("spawning the repetition thread");
    match rx.recv_timeout(limit) {
        Ok(result) => {
            handle
                .join()
                .expect("the repetition thread catches its panics");
            result.map_err(|cause| {
                let msg = cause
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| cause.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "non-string panic".into());
                Failure::Panicked(msg)
            })
        }
        Err(_) => Err(Failure::Overran),
    }
}

/// Everything one run measured.
#[derive(Default)]
struct Run {
    attempted: u64,
    failures: Vec<String>,
    overran: bool,
    untraced: Vec<Rep>,
    traced: Vec<Rep>,
}

fn measure(args: &Args) -> Run {
    let mut run = Run::default();
    let begin = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    // Repetition 0 warms up (first-touch page faults, allocator growth); it
    // is checked like every other but not sampled.
    for i in 0usize.. {
        let (w, seed) = (args.workload, args.seed);
        let traced = args.trace && i % 2 == 1;
        run.attempted += 1;
        match bounded(REP_BOUND, move || measure::one_rep(w, seed, traced)) {
            Ok(rep) => {
                if let Err(why) = &rep.verdict {
                    run.failures.push(format!("repetition {i}: {why}"));
                } else if i > 0 {
                    if traced {
                        run.traced.push(rep);
                    } else {
                        run.untraced.push(rep);
                    }
                }
            }
            Err(Failure::Panicked(msg)) => {
                run.failures.push(format!("repetition {i} panicked: {msg}"))
            }
            Err(Failure::Overran) => {
                run.failures
                    .push(format!("repetition {i} overran the {REP_BOUND:?} bound"));
                run.overran = true;
                break;
            }
        }
        let elapsed = begin.elapsed();
        let enough =
            run.untraced.len() >= MIN_REPS && (!args.trace || run.traced.len() >= MIN_REPS);
        // A run with failures stops at the budget: it has failed already.
        let failing = !run.failures.is_empty();
        if (elapsed >= budget && (enough || failing)) || elapsed >= RUN_LIMIT {
            break;
        }
    }
    run
}

fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The git revision of the working directory's checkout, read from
/// `.git` directly (the benchmark may run in an export that is not a
/// repository).
fn git_revision() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown (not a git checkout)".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

/// Median and spread of one timing, with its tail percentile and count.
fn timing_summary(name: &str, xs: &[f64]) -> (String, Json) {
    let [q1, _, q3] = quartiles(xs);
    let tail = tail_percentile(xs);
    let tail_text = tail.map_or("none (fewer than 11 samples)".to_string(), |(p, v)| {
        format!("p{p} {v:.6}")
    });
    let line = format!(
        "  {name:<12} {:>12.6} s      median of {} (q1 {q1:.6}, q3 {q3:.6}); tail {tail_text}",
        median(xs),
        xs.len()
    );
    let json = Json::obj([
        ("median", Json::Num(median(xs))),
        ("q1", Json::Num(q1)),
        ("q3", Json::Num(q3)),
        ("samples", Json::Num(xs.len() as f64)),
        (
            "values",
            Json::Arr(xs.iter().map(|&x| Json::Num(x)).collect()),
        ),
        (
            "tail",
            tail.map_or(Json::Null, |(p, v)| {
                Json::obj([("percentile", Json::Num(p.into())), ("value", Json::Num(v))])
            }),
        ),
    ]);
    (line, json)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("wallbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let threads = match measure::check_definitions().and_then(|()| preflight()) {
        Ok(threads) => threads,
        Err(e) => {
            eprintln!("wallbench: refusing to run {}: {e}", args.workload.name());
            return ExitCode::from(2);
        }
    };
    // kali-mp's thread machine puts its rendezvous directory under the
    // temporary directory; keep it inside the working directory.  Set
    // before any thread exists.
    std::env::set_var("TMPDIR", SOCKET_DIR);

    let run = measure(&args);
    let _ = std::fs::remove_dir(SOCKET_DIR); // only succeeds when empty
    let w = args.workload;
    let failed = run.failures.len() as u64;

    let setup: Vec<f64> = run.untraced.iter().map(|r| r.setup_s).collect();
    let solve: Vec<f64> = run.untraced.iter().map(|r| r.solve_s).collect();
    let replay: Vec<f64> = run.untraced.iter().map(|r| r.replay_s).collect();
    let traced_solve: Vec<f64> = run.traced.iter().map(|r| r.solve_s).collect();

    println!(
        "wallbench {} seed {} ({:?} backend, {RANKS} ranks x {WORKERS} worker, {} s budget, trace {})",
        w.name(),
        args.seed,
        w.backend(),
        args.seconds,
        u8::from(args.trace)
    );
    let mut timings = Vec::new();
    for (name, xs) in [
        ("setup_s", &setup),
        ("solve_s", &solve),
        ("replay_s", &replay),
    ] {
        if !xs.is_empty() {
            let (line, json) = timing_summary(name, xs);
            println!("{line}");
            timings.push((name, json));
        }
    }

    let mut counts_repeat = true;
    let metrics = if args.trace {
        if let Some(first) = run.traced.first() {
            counts_repeat = run.traced.iter().all(|r| r.counts == first.counts);
        }
        if !traced_solve.is_empty() {
            let (line, json) = timing_summary("traced_solve_s", &traced_solve);
            println!("{line}");
            timings.push(("traced_solve_s", json));
        }
        per_layer_metrics(&run, &solve, &traced_solve)
    } else {
        end_to_end_metrics(&solve, &replay, &setup)
    };
    for (def, value) in &metrics {
        println!("  {:<24} {value:>16.6} {}", def.name, def.unit);
    }
    let attempted = run.attempted;
    println!(
        "  {:<24} {:>16.6} ratio   ({failed} failed of {attempted} attempted)",
        "fail_ratio",
        failed as f64 / attempted as f64
    );

    let mut problems = run.failures.clone();
    if !counts_repeat {
        problems.push("per-layer counts differ between traced repetitions".into());
    }
    for p in &problems {
        println!("wallbench: {}: FAILED: {p}", w.name());
        eprintln!("wallbench: {}: FAILED: {p}", w.name());
    }

    let provenance = Json::obj([
        ("workload", Json::Str(w.name().into())),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds as f64)),
        ("trace", Json::Bool(args.trace)),
        ("available_parallelism", Json::Num(threads as f64)),
        ("ranks", Json::Num(RANKS as f64)),
        ("workers", Json::Num(WORKERS as f64)),
        ("iterations", Json::Num(w.iterations() as f64)),
        ("git_revision", Json::Str(git_revision())),
        ("rustc", Json::Str(env!("WALLBENCH_RUSTC").into())),
        ("profile", Json::Str(env!("WALLBENCH_PROFILE").into())),
        ("fail_ratio", Json::Num(failed as f64 / attempted as f64)),
        ("counts_repeat", Json::Bool(counts_repeat)),
        ("timings", Json::obj(timings)),
    ]);
    println!("provenance {}", provenance.to_line());

    let correct = problems.is_empty();
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        (
            "metrics",
            Json::obj(metrics.iter().map(|(def, value)| {
                let m = [
                    ("value", Json::Num(*value)),
                    ("unit", Json::Str(def.unit.into())),
                ];
                (def.name, Json::obj(m))
            })),
        ),
    ]);
    let line = result.to_line();
    assert_eq!(
        Json::parse(&line).as_ref(),
        Ok(&result),
        "the result line must read back as written (a metric is not a finite number)"
    );
    println!("{line}");
    if run.overran {
        // A repetition thread is still blocked; exiting is the only way to
        // stop it.
        std::process::exit(1);
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn end_to_end_metrics(solve: &[f64], replay: &[f64], setup: &[f64]) -> Vec<(MetricDef, f64)> {
    if solve.is_empty() {
        return Vec::new();
    }
    let values = [
        median(setup),
        median(solve),
        median(solve) / median(replay),
        peak_rss_mib(),
    ];
    END_TO_END.into_iter().zip(values).collect()
}

fn per_layer_metrics(run: &Run, solve: &[f64], traced_solve: &[f64]) -> Vec<(MetricDef, f64)> {
    if traced_solve.is_empty() || solve.is_empty() {
        return Vec::new();
    }
    let value_of = |name: &str| -> f64 {
        if name == "trace.overhead_x" {
            return median(traced_solve) / median(solve);
        }
        let xs: Vec<f64> = run
            .traced
            .iter()
            .map(|rep| {
                let layers = rep.layers.as_ref().expect("traced repetition");
                let (_, v) = layers.iter().find(|(n, _)| *n == name).expect("measured");
                *v
            })
            .collect();
        median(&xs)
    };
    PER_LAYER
        .into_iter()
        .map(|def| (def, value_of(def.name)))
        .collect()
}

#[cfg(test)]
mod tests;
