//! How compile time grows with program width: bv, dj, grover (one
//! iteration), simon and `'p'[N] | std[N].measure` compiled cold through
//! `Session::compile` (default options: inline, peephole, verify,
//! Selinger) at N = 1k, 4k and 16k qubits, and bv, simon and `'p'[N]` also
//! at 64k.
//!
//! For each family and width the bench prints the fastest run's whole
//! compile time and the time of every row of its compile record
//! (`Compiled::stats`: the frontend's four stages, each pipeline pass,
//! circuit lowering and decompose), then a least-squares growth exponent
//! per family over its widths (the slope of
//! log time over log N): 1 is linear, 2 quadratic. It fits the whole
//! compile and the `qcircuit-peephole` pass, the stage that grew
//! quadratically in wide programs. It gates nothing: its times move with
//! the machine.
//!
//! Each full run appends a trajectory point to `BENCH_compile.json` at the
//! repo root. `--smoke` runs N = 1k and 4k once each and prints the point
//! instead of appending it.

use asdf_baselines::Benchmark;
use asdf_bench::{qwerty_program, record_trajectory_point, smoke_mode};
use asdf_core::{CompileRequest, Compiled, Session};
use asdf_ir::PassStatistics;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `'p'[N] | std[N].measure`: N independent uniform bits.
const PLUS_SOURCE: &str = "qpu kernel[N]() -> bit[N] { 'p'[N] | std[N].measure }";

const PEEPHOLE: &str = "qcircuit-peephole";

/// The families, each with whether a full run also compiles it at 64k.
/// dj and grover stop at 16k: dj lowers to bv's shape, and most of
/// grover's compile time at 16k was spent outside the pipeline passes,
/// where it grew faster than N (ROADMAP item 1).
const FAMILIES: [(&str, bool); 5] =
    [("bv", true), ("dj", false), ("grover", false), ("simon", true), ("p", true)];

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
        "dj" => Benchmark::Dj { n },
        "grover" => Benchmark::Grover { n, iterations: 1 },
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

fn stage_ms(stats: &PassStatistics, name: &str) -> f64 {
    ms(stats.duration_of(name))
}

fn json_list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| format!("{v:.2}")).collect();
    format!("[{}]", items.join(", "))
}

fn main() {
    let smoke = smoke_mode();
    let (common, runs): (&[usize], usize) =
        if smoke { (&[1024, 4096], 1) } else { (&[1024, 4096, 16384], 3) };
    println!(
        "compile_scaling: cold Session::compile, fastest of {runs} run(s) per point{}",
        if smoke { " (smoke)" } else { "" }
    );
    // One column per row of the first artifact's compile record (every
    // family compiles with the same options), as wide as its name; times
    // in ms.
    let mut columns: Vec<String> = Vec::new();
    let mut families = Vec::new();
    let mut exponents = Vec::new();
    for (family, wider) in FAMILIES {
        let mut sizes = common.to_vec();
        if wider && !smoke {
            sizes.push(65536);
        }
        let (mut compile, mut peephole) = (Vec::new(), Vec::new());
        for &n in &sizes {
            let (source, request) = program(family, n);
            let (elapsed, compiled) = fastest_compile(&source, &request, runs);
            if columns.is_empty() {
                columns = compiled.stats.iter().map(|row| row.name.clone()).collect();
                let header: String = columns.iter().map(|c| format!("  {c}")).collect();
                println!("{:<8} {:>6} {:>11}{header}", "family", "N", "compile ms");
            }
            let stages: String = columns
                .iter()
                .map(|c| format!("  {:>w$.2}", stage_ms(&compiled.stats, c), w = c.len()))
                .collect();
            println!("{family:<8} {n:>6} {:>11.2}{stages}", ms(elapsed));
            compile.push(ms(elapsed));
            peephole.push(stage_ms(&compiled.stats, PEEPHOLE));
        }
        let exponent = growth_exponent(&sizes, &compile);
        let peephole_exponent = growth_exponent(&sizes, &peephole);
        let sizes_json: Vec<String> = sizes.iter().map(usize::to_string).collect();
        families.push(format!(
            "{{\"family\": \"{family}\", \"sizes\": [{}], \"compile_ms\": {}, \
             \"peephole_ms\": {}, \"exponent\": {exponent:.2}, \
             \"peephole_exponent\": {peephole_exponent:.2}}}",
            sizes_json.join(", "),
            json_list(&compile),
            json_list(&peephole)
        ));
        exponents.push((family, sizes, exponent, peephole_exponent));
    }
    println!("growth exponents (least squares over each family's N):");
    for (family, sizes, exponent, peephole_exponent) in &exponents {
        println!(
            "  {family:<6} compile {exponent:.2}  {PEEPHOLE} {peephole_exponent:.2}  (N = {sizes:?})"
        );
    }

    let point = format!(
        "{{\"bench\": \"compile_scaling\", \"mode\": \"{}\", \"families\": [{}]}}",
        if smoke { "smoke" } else { "full" },
        families.join(", ")
    );
    record_trajectory_point("BENCH_compile.json", &point, smoke);
}
