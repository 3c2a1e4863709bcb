//! How compile time grows with program width: bv, simon and
//! `'p'[N] | std[N].measure` compiled cold through `Session::compile`
//! (default options: inline, peephole, verify, Selinger) at N = 1k, 4k and
//! 16k qubits.
//!
//! For each family and width the bench prints the fastest run's whole
//! compile time and its per-pass times from `PassStatistics`, then a
//! least-squares growth exponent per family (the slope of log time over
//! log N): 1 is linear, 2 quadratic. It fits the whole compile and the
//! `qcircuit-peephole` pass, the stage that grew quadratically in wide
//! programs. It gates nothing yet: bv's peephole is still superlinear.
//!
//! Each full run appends a trajectory point to `BENCH_compile.json` at the
//! repo root. `--smoke` (or env `COMPILE_SCALING_SMOKE=1`) runs N = 1k and
//! 4k once each and prints the point instead of appending it.

use asdf_baselines::Benchmark;
use asdf_bench::{qwerty_program, record_trajectory_point, smoke_mode};
use asdf_core::{CompileRequest, Compiled, Session};
use asdf_ir::PassStatistics;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `'p'[N] | std[N].measure`: N independent uniform bits.
const PLUS_SOURCE: &str = "qpu kernel[N]() -> bit[N] { 'p'[N] | std[N].measure }";

/// The pipeline passes reported per width, in pipeline order.
const PASSES: [&str; 5] = [
    "lift-lambdas",
    "canonicalize-inline",
    "remove-dead-private-funcs",
    "convert-to-qcircuit",
    "qcircuit-peephole",
];

const PEEPHOLE: &str = "qcircuit-peephole";

/// A deterministic secret of `n` bits with its first bit set (simon needs
/// a nonzero secret).
fn secret(n: usize) -> Vec<bool> {
    let mut state = 0x2545_f491_4f6c_dd1du64;
    (0..n)
        .map(|i| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            i == 0 || state & 1 == 1
        })
        .collect()
}

/// The source, kernel and request for `family` at width `n`.
fn program(family: &str, n: usize) -> (String, CompileRequest) {
    let bench = match family {
        "bv" => Benchmark::Bv { secret: secret(n) },
        "simon" => Benchmark::Simon { secret: secret(n) },
        _ => {
            let request = CompileRequest::kernel("kernel").with_dim("N", n as i64);
            return (PLUS_SOURCE.to_string(), request);
        }
    };
    let (source, kernel, captures, dims) = qwerty_program(&bench);
    let mut request = CompileRequest::kernel(kernel).with_captures(&captures);
    for (name, value) in dims {
        request = request.with_dim(&name, value);
    }
    (source, request)
}

/// The fastest of `runs` cold compiles: its wall time and statistics.
fn fastest_compile(
    source: &str,
    request: &CompileRequest,
    runs: usize,
) -> (Duration, Arc<Compiled>) {
    let mut best: Option<(Duration, Arc<Compiled>)> = None;
    for _ in 0..runs {
        let session = Session::new(source).expect("the program parses");
        let started = Instant::now();
        let compiled = session.compile(request).expect("the program compiles");
        let elapsed = started.elapsed();
        if best.as_ref().is_none_or(|(t, _)| elapsed < *t) {
            best = Some((elapsed, compiled));
        }
    }
    best.expect("at least one run")
}

/// The least-squares slope of log `ys` over log `xs`.
fn growth_exponent(xs: &[usize], ys: &[f64]) -> f64 {
    let points: Vec<(f64, f64)> =
        xs.iter().zip(ys).map(|(&x, &y)| ((x as f64).ln(), y.max(1e-9).ln())).collect();
    let n = points.len() as f64;
    let (mx, my) = points.iter().fold((0.0, 0.0), |(a, b), (x, y)| (a + x / n, b + y / n));
    let (sxy, sxx) = points
        .iter()
        .fold((0.0, 0.0), |(sxy, sxx), (x, y)| (sxy + (x - mx) * (y - my), sxx + (x - mx).powi(2)));
    sxy / sxx
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn pass_ms(stats: &PassStatistics, name: &str) -> f64 {
    ms(stats.duration_of(name))
}

fn json_list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| format!("{v:.2}")).collect();
    format!("[{}]", items.join(", "))
}

fn main() {
    let smoke = smoke_mode("COMPILE_SCALING_SMOKE");
    let (sizes, runs): (&[usize], usize) =
        if smoke { (&[1024, 4096], 1) } else { (&[1024, 4096, 16384], 3) };
    println!(
        "compile_scaling: cold Session::compile, fastest of {runs} run(s) per point{}",
        if smoke { " (smoke)" } else { "" }
    );
    // One column per pass, as wide as its name; times in ms.
    let header: String = PASSES.iter().map(|p| format!("  {p}")).collect();
    println!("{:<8} {:>6} {:>11}{header}", "family", "N", "compile ms");

    let mut families = Vec::new();
    let mut exponents = Vec::new();
    for family in ["bv", "simon", "p"] {
        let (mut compile, mut peephole) = (Vec::new(), Vec::new());
        for &n in sizes {
            let (source, request) = program(family, n);
            let (elapsed, compiled) = fastest_compile(&source, &request, runs);
            let passes: String = PASSES
                .iter()
                .map(|p| format!("  {:>w$.2}", pass_ms(&compiled.stats, p), w = p.len()))
                .collect();
            println!("{family:<8} {n:>6} {:>11.2}{passes}", ms(elapsed));
            compile.push(ms(elapsed));
            peephole.push(pass_ms(&compiled.stats, PEEPHOLE));
        }
        let exponent = growth_exponent(sizes, &compile);
        let peephole_exponent = growth_exponent(sizes, &peephole);
        exponents.push((family, exponent, peephole_exponent));
        families.push(format!(
            "{{\"family\": \"{family}\", \"compile_ms\": {}, \"peephole_ms\": {}, \
             \"exponent\": {exponent:.2}, \"peephole_exponent\": {peephole_exponent:.2}}}",
            json_list(&compile),
            json_list(&peephole)
        ));
    }
    println!("growth exponents (least squares over N = {sizes:?}):");
    for (family, exponent, peephole_exponent) in &exponents {
        println!("  {family:<6} compile {exponent:.2}  {PEEPHOLE} {peephole_exponent:.2}");
    }

    let sizes_json: Vec<String> = sizes.iter().map(usize::to_string).collect();
    let point = format!(
        "{{\"bench\": \"compile_scaling\", \"mode\": \"{}\", \"sizes\": [{}], \"families\": [{}]}}",
        if smoke { "smoke" } else { "full" },
        sizes_json.join(", "),
        families.join(", ")
    );
    record_trajectory_point("BENCH_compile.json", &point, smoke);
}
