//! The repository benchmark: four seeded workloads over the compiler, the
//! differential harness and the compile server.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload compile_wide --seed 1 --seconds 50 --trace 0
//! ```
//!
//! `--trace 0` runs the workload with tracing off and prints the
//! end-to-end metrics; the timed phase runs in twelve stretches with a
//! set-up timed before each and after the last, and `setup_s` is the
//! fastest of the thirteen. `--trace 1` prints the per-layer metrics: a
//! traced half of the time gives the workload's own layers, an untraced
//! quarter over the same schedule gives the tracing overhead, and a short
//! traced phase of each other workload gives theirs, so every per-layer
//! metric is measured on its home workload. Every phase covers whole deck
//! passes.
//! `--workload all` runs each workload in its own process. The last line
//! of output is one JSON object with the verdict and the metrics.

mod compile_wide;
mod difftest_sweep;
mod json;
mod programs;
mod report;
mod serve;
mod trace;

use report::{EndToEnd, Latencies, Metric, Outcome, Quality};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{TraceSummary, Tracer};

const WORKLOADS: [&str; 4] = ["compile_wide", "difftest_sweep", "serve_mix", "serve_tcp"];

/// Stretches of the untraced run's timed phase. A set-up is timed before
/// each and after the last, and `setup_s` is the fastest of those
/// thirteen. Set-up is a fixed job of tens of milliseconds; on a shared
/// machine single timings of it swing by half in bursts lasting seconds,
/// and noise can only slow it, so the fastest is the steadiest reading
/// (the README gives the measurements).
const SEGMENTS: usize = 12;

/// The result of one timed phase.
#[derive(Debug, Default)]
pub struct Phase {
    pub elapsed: Duration,
    pub latencies: Latencies,
    /// Ops whose output passed its check.
    pub passed: u64,
    /// Ops that produced a wrong output, or none where one was due.
    pub wrong: u64,
    /// Ops that produced no output where the request expects an error
    /// (a caught panic of the N=40 `sim` emit).
    pub errors: u64,
    /// Failed checks outside the op stream (known answers).
    pub check_failures: u64,
    pub notes: Vec<String>,
}

impl Phase {
    /// Adds a later stretch of the same timed phase.
    pub fn absorb(&mut self, later: Phase) {
        self.elapsed += later.elapsed;
        self.latencies.0.extend(later.latencies.0);
        self.passed += later.passed;
        self.wrong += later.wrong;
        self.errors += later.errors;
        self.check_failures += later.check_failures;
        for note in later.notes {
            self.note(note);
        }
    }

    /// Records a note; repeated notes are kept to a readable number.
    pub fn note(&mut self, line: String) {
        if self.notes.len() < 40 {
            self.notes.push(line);
        }
    }
}

/// One benchmark workload.
pub trait Workload: Sized {
    /// Builds the inputs from the seed and everything timing needs.
    fn setup(seed: u64) -> Self;
    /// The timed phase. It ends at the first deck-pass boundary after
    /// `seconds`, so every run covers whole passes of the same mix.
    fn run(&mut self, seconds: f64, tracer: Option<&Tracer>) -> Phase;
    /// Checks made outside the timed phase, and the quality totals over
    /// the distinct circuits the workload produced.
    fn finish(&mut self, phase: &mut Phase) -> Quality;
    /// This workload's per-layer metrics from a traced phase.
    fn layers(&mut self, summary: &TraceSummary) -> Vec<Metric>;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds: f64 = 50.0;
    let mut trace = false;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1).ok_or_else(|| format!("{} needs a value", args[i]))?;
        match args[i].as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("bad --seconds {value}"))?;
            }
            "--trace" => trace = value == "1",
            other => return Err(format!("unknown argument {other}")),
        }
        i += 2;
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload} (expected one of {WORKLOADS:?} or all)"));
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args { workload, seed, seconds, trace })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}|all> --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let outcome = match (args.workload.as_str(), args.trace) {
        ("compile_wide", false) => untraced::<compile_wide::CompileWide>(&args),
        ("difftest_sweep", false) => untraced::<difftest_sweep::DifftestSweep>(&args),
        ("serve_mix", false) => untraced::<serve::ServeMix>(&args),
        ("serve_tcp", false) => untraced::<serve::ServeTcp>(&args),
        (name, _) => traced(&args, name),
    };
    outcome.print(&args.workload, args.seed, args.trace);
    ExitCode::SUCCESS
}

/// Runs every workload in its own process, one after another.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut code = ExitCode::SUCCESS;
    for workload in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        if !matches!(status, Ok(s) if s.success()) {
            eprintln!("perfbench: workload {workload} failed: {status:?}");
            code = ExitCode::FAILURE;
        }
    }
    code
}

/// The end-to-end run: tracing off, whole deck passes in `SEGMENTS`
/// stretches, a set-up timed before each stretch and after the last.
fn untraced<W: Workload>(args: &Args) -> Outcome {
    let mut setups = Vec::with_capacity(SEGMENTS + 1);
    let mut timed_setup = || {
        let started = Instant::now();
        let workload = W::setup(args.seed);
        setups.push(started.elapsed().as_secs_f64());
        workload
    };
    let mut workload = timed_setup();
    let mut phase = Phase::default();
    for segment in 1..=SEGMENTS {
        // Each stretch runs until the phase has reached its share of
        // `seconds`; one that a long pass already covered is skipped.
        let due = args.seconds * segment as f64 / SEGMENTS as f64 - phase.elapsed.as_secs_f64();
        if due > 0.0 {
            phase.absorb(workload.run(due, None));
        }
        // Only the timing of these extra set-ups is used.
        drop(timed_setup());
    }
    let quality = workload.finish(&mut phase);
    let e2e = EndToEnd {
        setup_s: setups.iter().copied().fold(f64::INFINITY, f64::min),
        elapsed: phase.elapsed,
        passed: phase.passed,
        latencies: phase.latencies.clone(),
        quality,
    };
    Outcome {
        attempted: phase.latencies.0.len() as u64,
        failed: phase.wrong + phase.errors,
        correct: phase.wrong == 0 && phase.check_failures == 0,
        metrics: e2e.metrics(),
        notes: phase.notes,
    }
}

/// A traced phase of `W`: its per-layer metrics, the phase, and the
/// trace coverage.
fn traced_phase<W: Workload>(seed: u64, seconds: f64, name: &str) -> (Vec<Metric>, Phase, f64) {
    let mut workload = W::setup(seed);
    let tracer = Tracer::new();
    let mut phase = workload.run(seconds, Some(&tracer));
    let summary = tracer.summary();
    let layers = workload.layers(&summary);
    let (layer, share) = summary.dominant_layer();
    phase.note(format!(
        "{name}: most self time in {layer} ({:.1}% of traced self time)",
        share * 100.0
    ));
    let path = PathBuf::from("perfbench/out").join(format!("{name}-seed{seed}.spans.tsv"));
    match tracer.write_tsv(&path) {
        Ok(()) => phase.note(format!("{name}: spans written to {}", path.display())),
        Err(e) => phase.note(format!("{name}: could not write spans: {e}")),
    }
    (layers, phase, summary.coverage())
}

fn untraced_phase<W: Workload>(seed: u64, seconds: f64) -> Phase {
    W::setup(seed).run(seconds, None)
}

fn dispatch_traced(workload: &str, seed: u64, seconds: f64) -> (Vec<Metric>, Phase, f64) {
    match workload {
        "compile_wide" => traced_phase::<compile_wide::CompileWide>(seed, seconds, workload),
        "difftest_sweep" => traced_phase::<difftest_sweep::DifftestSweep>(seed, seconds, workload),
        "serve_mix" => traced_phase::<serve::ServeMix>(seed, seconds, workload),
        _ => traced_phase::<serve::ServeTcp>(seed, seconds, workload),
    }
}

/// The per-layer run of `name` (see the crate docs for its phases).
fn traced(args: &Args, name: &str) -> Outcome {
    let quarter = args.seconds / 4.0;
    let untraced = match name {
        "compile_wide" => untraced_phase::<compile_wide::CompileWide>(args.seed, quarter),
        "difftest_sweep" => untraced_phase::<difftest_sweep::DifftestSweep>(args.seed, quarter),
        "serve_mix" => untraced_phase::<serve::ServeMix>(args.seed, quarter),
        _ => untraced_phase::<serve::ServeTcp>(args.seed, quarter),
    };
    let (own_layers, mut phase, coverage) = dispatch_traced(name, args.seed, args.seconds / 2.0);
    // Both phases start at the head of the same seeded schedule, so the
    // ops both reached are the same ops.
    let common = untraced.latencies.0.len().min(phase.latencies.0.len());
    let time_of = |p: &Phase| p.latencies.0[..common].iter().sum::<f64>();
    let overhead = time_of(&phase) / time_of(&untraced).max(1e-9);
    let mut by_name: BTreeMap<String, Metric> =
        own_layers.into_iter().map(|m| (m.name.clone(), m)).collect();
    for other in WORKLOADS.iter().filter(|w| **w != name) {
        let (layers, companion, _) = dispatch_traced(other, args.seed, args.seconds / 12.0);
        for m in layers {
            let note = format!("(from a short {other} phase)");
            by_name.entry(m.name.clone()).or_insert_with(|| m.noted(note));
        }
        phase.notes.extend(companion.notes.into_iter().filter(|n| n.contains("most self time")));
        phase.check_failures += companion.wrong + companion.check_failures;
    }
    let mut metrics: Vec<Metric> = by_name.into_values().collect();
    metrics.push(Metric::new("trace.coverage_ratio", coverage, "ratio").noted(format!("({name})")));
    metrics.push(
        Metric::new("trace.overhead_ratio", overhead, "ratio")
            .noted(format!("(traced over untraced op time, first {common} ops of the schedule)")),
    );
    Outcome {
        attempted: phase.latencies.0.len().max(1) as u64,
        failed: phase.wrong + phase.errors,
        correct: phase.wrong == 0 && phase.check_failures == 0,
        metrics,
        notes: phase.notes,
    }
}
