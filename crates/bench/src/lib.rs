//! Shared evaluation harness: compiles every benchmark with every
//! "compiler" and produces the metrics behind Table 1 and Figures 11–12.
//!
//! Methodology mirrors §8.3: "(1) generate quantum assembly from all five
//! benchmarks in all four languages for different oracle input sizes;
//! (2) optimize the resulting code with the Qiskit transpiler set to -O3;
//! and (3) feed the resulting optimized assembly into the Resource
//! Estimator". Here step (2) is the shared `asdf_baselines::transpiler`
//! applied uniformly, and step (3) is [`asdf_resource::estimate`] with the
//! paper's [[338, 1, 13]] / 5.2 µs parameters.

use asdf_ast::expand::CaptureValue;
use asdf_baselines::{build_circuit, optimize, BaselineStyle, Benchmark};
use asdf_core::{CompileOptions, CompileRequest, Compiler, Session};
use asdf_qcircuit::Circuit;
use asdf_resource::{estimate, Estimate, SurfaceCodeParams};
use std::collections::HashMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The four compilers of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Which {
    /// This work.
    Asdf,
    /// Qiskit-style baseline.
    Qiskit,
    /// Quipper-style baseline.
    Quipper,
    /// Q#-style baseline.
    QSharp,
}

impl Which {
    /// All four, in the paper's legend order.
    pub const ALL: [Which; 4] = [Which::Asdf, Which::Qiskit, Which::Quipper, Which::QSharp];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Which::Asdf => "Asdf (Our Work)",
            Which::Qiskit => "Qiskit",
            Which::Quipper => "Quipper",
            Which::QSharp => "Q#",
        }
    }
}

/// The Qwerty source for a benchmark, with kernel name and captures.
pub fn qwerty_program(
    benchmark: &Benchmark,
) -> (String, &'static str, Vec<CaptureValue>, HashMap<String, i64>) {
    let mut dims = HashMap::new();
    match benchmark {
        Benchmark::Bv { secret } => {
            let src = r"
                classical f[N](secret: bit[N], x: bit[N]) -> bit {
                    (secret & x).xor_reduce()
                }
                qpu kernel[N](f: cfunc[N, 1]) -> bit[N] {
                    'p'[N] | f.sign | pm[N] >> std[N] | std[N].measure
                }
            ";
            let captures = vec![CaptureValue::CFunc {
                name: "f".into(),
                captures: vec![CaptureValue::Bits(secret.clone())],
            }];
            (src.to_string(), "kernel", captures, dims)
        }
        Benchmark::Dj { n } => {
            let src = r"
                classical balanced[N](x: bit[N]) -> bit { x.xor_reduce() }
                qpu kernel[N](f: cfunc[N, 1]) -> bit[N] {
                    'p'[N] | f.sign | pm[N] >> std[N] | std[N].measure
                }
            ";
            let captures = vec![CaptureValue::CFunc { name: "balanced".into(), captures: vec![] }];
            dims.insert("N".to_string(), *n as i64);
            (src.to_string(), "kernel", captures, dims)
        }
        Benchmark::Grover { n, iterations } => {
            let src = r"
                classical oracle[N](x: bit[N]) -> bit { x.and_reduce() }
                qpu kernel[N, I](f: cfunc[N, 1]) -> bit[N] {
                    'p'[N] | (f.sign | {'p'[N]} >> {-'p'[N]}) ** I | std[N].measure
                }
            ";
            let captures = vec![CaptureValue::CFunc { name: "oracle".into(), captures: vec![] }];
            dims.insert("N".to_string(), *n as i64);
            dims.insert("I".to_string(), *iterations as i64);
            (src.to_string(), "kernel", captures, dims)
        }
        Benchmark::Simon { secret } => {
            let src = r"
                classical f[N](s: bit[N], x: bit[N]) -> bit[N] {
                    x ^ (x[0].repeat(N) & s)
                }
                qpu kernel[N](f: cfunc[N, N]) -> bit[2*N] {
                    'p'[N] + '0'[N] | f.xor | (pm[N] >> std[N]) + id[N] | std[2*N].measure
                }
            ";
            let captures = vec![CaptureValue::CFunc {
                name: "f".into(),
                captures: vec![CaptureValue::Bits(secret.clone())],
            }];
            (src.to_string(), "kernel", captures, dims)
        }
        Benchmark::Period { n, mask } => {
            let src = r"
                classical f[N](mask: bit[N], x: bit[N]) -> bit[N] { x & mask }
                qpu kernel[N](f: cfunc[N, N]) -> bit[2*N] {
                    'p'[N] + '0'[N] | f.xor | fourier[N].measure + std[N].measure
                }
            ";
            let captures = vec![CaptureValue::CFunc {
                name: "f".into(),
                captures: vec![CaptureValue::Bits(mask.clone())],
            }];
            dims.insert("N".to_string(), *n as i64);
            (src.to_string(), "kernel", captures, dims)
        }
    }
}

/// Compiles a benchmark with ASDF to a decomposed circuit.
///
/// # Panics
///
/// Panics if compilation fails (benchmarks are known-good programs).
pub fn asdf_circuit(benchmark: &Benchmark) -> Circuit {
    let (src, kernel, captures, dims) = qwerty_program(benchmark);
    let options = CompileOptions { dims, ..Default::default() };
    let compiled = Compiler::compile(&src, kernel, &captures, &options)
        .unwrap_or_else(|e| panic!("compiling {benchmark:?}: {e}"));
    compiled.circuit.unwrap_or_else(|| panic!("{benchmark:?} did not linearize"))
}

/// The optimized circuit a given compiler produces for a benchmark.
pub(crate) fn circuit_for(which: Which, benchmark: &Benchmark) -> Circuit {
    let raw = match which {
        Which::Asdf => asdf_circuit(benchmark),
        Which::Qiskit => build_circuit(benchmark, BaselineStyle::Qiskit),
        Which::Quipper => build_circuit(benchmark, BaselineStyle::Quipper),
        Which::QSharp => build_circuit(benchmark, BaselineStyle::QSharp),
    };
    optimize(&raw)
}

/// A `(compiler, benchmark, input size)` data point for Figures 11–12.
#[derive(Debug, Clone)]
pub(crate) struct FigPoint {
    /// Which compiler produced the circuit.
    pub which: Which,
    /// Benchmark short name.
    pub benchmark: &'static str,
    /// Oracle input size in bits.
    pub n: usize,
    /// The fault-tolerant estimate.
    pub estimate: Estimate,
}

/// The figure benchmarks: BV, Grover, Simon, Period (Deutsch–Jozsa is
/// omitted as in the paper: "virtually identical to Bernstein–Vazirani").
pub(crate) fn figure_benchmarks(n: usize) -> Vec<(&'static str, Benchmark)> {
    Benchmark::paper_suite(n).into_iter().filter(|(name, _)| *name != "dj").collect()
}

/// Computes all Figure 11/12 data points for the given input sizes.
pub(crate) fn figure_points(sizes: &[usize]) -> Vec<FigPoint> {
    let params = SurfaceCodeParams::default();
    let mut points = Vec::new();
    for &n in sizes {
        for (name, benchmark) in figure_benchmarks(n) {
            for which in Which::ALL {
                let circuit = circuit_for(which, &benchmark);
                points.push(FigPoint {
                    which,
                    benchmark: name,
                    n,
                    estimate: estimate(&circuit, &params),
                });
            }
        }
    }
    points
}

/// One of the two resource figures: which estimate it plots, and where.
#[derive(Debug)]
pub struct Figure {
    /// The bin's name, for its usage line.
    pub bin: &'static str,
    /// The heading printed above the tables.
    pub title: &'static str,
    /// The CSV column of the plotted value.
    pub column: &'static str,
    /// The plotted value: the table cell, and the CSV cell.
    pub value: fn(&Estimate) -> (f64, String),
    /// Where the CSV is written.
    pub csv: &'static str,
}

/// Runs a figure bin: computes the grid at the sizes on the command line
/// (default 16 32 64 128), prints one table per benchmark, and writes the
/// CSV.
pub fn run_figure(figure: &Figure) -> ExitCode {
    let usage = format!("{} [sizes...]", figure.bin);
    let sizes = match size_args(&usage) {
        Ok(sizes) if sizes.is_empty() => vec![16, 32, 64, 128],
        Ok(sizes) => sizes,
        Err(code) => return code,
    };
    println!("{}", figure.title);
    let points = figure_points(&sizes);
    let mut csv = format!("benchmark,n,compiler,{}\n", figure.column);
    for benchmark in ["bv", "grover", "simon", "period"] {
        println!("\n(% {benchmark})");
        print!("{:>10}", "n");
        for which in Which::ALL {
            print!("{:>18}", which.name());
        }
        println!();
        for &n in &sizes {
            print!("{n:>10}");
            for which in Which::ALL {
                let p = points
                    .iter()
                    .find(|p| p.benchmark == benchmark && p.n == n && p.which == which)
                    .expect("grid point");
                let (cell, csv_cell) = (figure.value)(&p.estimate);
                print!("{cell:>18.1}");
                csv.push_str(&format!("{benchmark},{n},{},{csv_cell}\n", p.which.name()));
            }
            println!();
        }
    }
    let _ = std::fs::create_dir_all("data");
    let _ = std::fs::write(figure.csv, csv);
    println!("\nwrote {}", figure.csv);
    ExitCode::SUCCESS
}

/// Prints `message` and the bin's `usage` line, and returns exit code 2,
/// as `difftest` does on a usage error.
pub fn usage_error(message: &str, usage: &str) -> ExitCode {
    eprintln!("{message}\nusage: {usage}");
    ExitCode::from(2)
}

/// The oracle sizes given on a bench bin's command line.
///
/// # Errors
///
/// An argument that is not a size gives [`usage_error`]'s exit code.
pub fn size_args(usage: &str) -> Result<Vec<usize>, ExitCode> {
    std::env::args()
        .skip(1)
        .map(|arg| arg.parse().map_err(|_| usage_error(&format!("{arg} is not a size"), usage)))
        .collect()
}

/// One Table 1 row: QIR callable intrinsic counts per configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table1Row {
    /// Benchmark short name.
    pub benchmark: &'static str,
    /// Classic Q# QDK (modeled): (create, invoke).
    pub qsharp: (usize, usize),
    /// Asdf with inlining disabled.
    pub asdf_no_opt: (usize, usize),
    /// Asdf with the full pipeline.
    pub asdf_opt: (usize, usize),
}

/// Computes Table 1 at a representative size.
pub fn table1_rows(n: usize) -> Vec<Table1Row> {
    Benchmark::paper_suite(n)
        .into_iter()
        .map(|(name, benchmark)| {
            let (src, kernel, captures, dims) = qwerty_program(&benchmark);

            // One session per benchmark: both configurations share the
            // parsed program and the cached frontend.
            let session = Session::new(&src).unwrap_or_else(|e| panic!("parse {name}: {e}"));
            let mut no_opt = CompileOptions::no_opt();
            no_opt.dims = dims.clone();
            let request = CompileRequest::kernel(kernel).with_captures(&captures);
            let compiled = session
                .compile(&request.clone().with_options(no_opt))
                .unwrap_or_else(|e| panic!("no-opt {name}: {e}"));
            let qir =
                session.emit(&compiled, "qir-unrestricted").expect("unrestricted QIR always emits");
            let asdf_no_opt = asdf_codegen::count_callable_intrinsics(&qir);

            let opt = CompileOptions { dims, ..Default::default() };
            let compiled = session
                .compile(&request.with_options(opt))
                .unwrap_or_else(|e| panic!("opt {name}: {e}"));
            let qir =
                session.emit(&compiled, "qir-unrestricted").expect("unrestricted QIR always emits");
            let asdf_opt = asdf_codegen::count_callable_intrinsics(&qir);

            Table1Row {
                benchmark: name,
                qsharp: asdf_baselines::qsharp_callables::qsharp_callable_counts(&benchmark),
                asdf_no_opt,
                asdf_opt,
            }
        })
        .collect()
}

/// Whether a bench runs in smoke mode: `--smoke` on its command line.
pub fn smoke_mode() -> bool {
    std::env::args().any(|a| a == "--smoke")
}

/// Median wall-clock of `samples` runs of `f` (after one warmup).
///
/// # Panics
///
/// Panics if `samples` is zero.
pub fn median_time<O>(samples: usize, mut f: impl FnMut() -> O) -> Duration {
    black_box(f());
    let mut times: Vec<Duration> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed()
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

/// The Fig. 1 Bernstein–Vazirani program the compile benches run.
pub const BV_SRC: &str = r"
    classical f[N](secret: bit[N], x: bit[N]) -> bit {
        (secret & x).xor_reduce()
    }
    qpu kernel[N](f: cfunc[N, 1]) -> bit[N] {
        'p'[N] | f.sign | pm[N] >> std[N] | std[N].measure
    }
";

/// A request for [`BV_SRC`]'s kernel with `secret` (a `'0'`/`'1'` string)
/// bound as the oracle's capture.
pub fn bv_request(secret: &str) -> CompileRequest {
    CompileRequest::kernel("kernel").with_capture(CaptureValue::CFunc {
        name: "f".into(),
        captures: vec![CaptureValue::bits_from_str(secret)],
    })
}

/// The path of the trajectory file `file` (e.g. `BENCH_sim.json`) at the
/// repository root.
pub(crate) fn trajectory_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..").join(file)
}

/// Records one bench trajectory point (a one-line JSON object). A full run
/// appends it to the JSON array in `trajectory_path(file)`; a smoke
/// run only prints it, so smoke runs leave the committed files untouched.
pub fn record_trajectory_point(file: &str, point: &str, smoke: bool) {
    if smoke {
        println!("trajectory point (smoke run, not recorded in {file}):\n{point}");
        return;
    }
    let path = trajectory_path(file);
    let rewritten = match std::fs::read_to_string(&path) {
        Ok(existing) => match existing.trim_end().strip_suffix(']').map(str::trim_end) {
            Some(body) if body.ends_with('[') => format!("{body}\n  {point}\n]\n"),
            Some(body) => format!("{body},\n  {point}\n]\n"),
            None => format!("[\n  {point}\n]\n"),
        },
        Err(_) => format!("[\n  {point}\n]\n"),
    };
    match std::fs::write(&path, rewritten) {
        Ok(()) => println!("trajectory point appended to {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// The latest full-mode point of `bench` in the trajectory file `file`
/// (one point per line), if one is committed.
pub fn committed_full_point(file: &str, bench: &str) -> Option<String> {
    let text = std::fs::read_to_string(trajectory_path(file)).ok()?;
    let tag = format!("\"bench\": \"{bench}\"");
    text.lines()
        .rev()
        .find(|l| l.contains(&tag) && l.contains("\"mode\": \"full\""))
        .map(str::to_string)
}

/// The first numeric field `key` of a one-line JSON point, or of a slice
/// of one.
pub fn json_field(point: &str, key: &str) -> Option<f64> {
    let start = point.find(&format!("\"{key}\": "))? + key.len() + 4;
    let rest = &point[start..];
    let end = rest.find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))?;
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_fields_parse_from_points() {
        let point =
            r#"{"bench": "b", "mode": "full", "n": 42, "t_us": 1.5, "entries": [{"swaps": 7}]}"#;
        assert_eq!(json_field(point, "n"), Some(42.0));
        assert_eq!(json_field(point, "t_us"), Some(1.5));
        assert_eq!(json_field(point, "swaps"), Some(7.0));
        assert_eq!(json_field(point, "depth"), None);
    }

    #[test]
    fn table1_shape_matches_paper() {
        // The paper's Table 1 shape: Asdf (Opt) is all zeros; Asdf (No Opt)
        // and Q# are nonzero for every benchmark.
        for row in table1_rows(4) {
            assert_eq!(row.asdf_opt, (0, 0), "{}: opt row must be zero", row.benchmark);
            assert!(row.asdf_no_opt.0 > 0, "{}: no-opt creates", row.benchmark);
            assert!(row.asdf_no_opt.1 > 0, "{}: no-opt invokes", row.benchmark);
            assert!(row.qsharp.0 > 0 && row.qsharp.1 > 0, "{}: Q# nonzero", row.benchmark);
        }
    }

    #[test]
    fn figure_points_cover_grid() {
        let points = figure_points(&[4]);
        // 4 benchmarks x 4 compilers.
        assert_eq!(points.len(), 16);
        for p in &points {
            assert!(p.estimate.physical_qubits > 0);
            assert!(p.estimate.runtime_us > 0.0);
        }
    }

    #[test]
    fn grover_shape_asdf_and_qsharp_win() {
        // §8.3: "The Q# compiler and Asdf outperform other compilers
        // significantly for Grover's" (Selinger decomposition).
        let benchmark = Benchmark::Grover { n: 8, iterations: 4 };
        let params = SurfaceCodeParams::default();
        let runtime = |w: Which| estimate(&circuit_for(w, &benchmark), &params).runtime_us;
        let asdf = runtime(Which::Asdf);
        let qsharp = runtime(Which::QSharp);
        let qiskit = runtime(Which::Qiskit);
        let quipper = runtime(Which::Quipper);
        assert!(asdf < qiskit, "asdf {asdf} < qiskit {qiskit}");
        assert!(asdf < quipper, "asdf {asdf} < quipper {quipper}");
        assert!(qsharp < qiskit, "qsharp {qsharp} < qiskit {qiskit}");
    }

    #[test]
    fn bv_shape_asdf_competitive() {
        // "The circuits generated by Asdf consistently keep pace with
        // circuit-oriented languages."
        let benchmark = Benchmark::Bv { secret: (0..16).map(|i| i % 2 == 0).collect() };
        let params = SurfaceCodeParams::default();
        let phys = |w: Which| estimate(&circuit_for(w, &benchmark), &params).physical_qubits;
        let asdf = phys(Which::Asdf);
        let best_baseline = Which::ALL[1..].iter().map(|&w| phys(w)).min().unwrap();
        // Within 2x of the best baseline qualifies as "keeping pace".
        assert!(asdf <= best_baseline * 2, "asdf {asdf} vs best baseline {best_baseline}");
    }
}
