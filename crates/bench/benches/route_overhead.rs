//! Routing-overhead bench: the cost of compiling the example programs
//! onto restricted hardware connectivity.
//!
//! Each example is compiled once all-to-all, then routed onto every
//! builtin coupling graph; the report is per `(program, target)`: SWAPs
//! inserted, depth before and after, the depth-overhead ratio, and the
//! median routing wall-clock. Programs that keep callables (teleport) or
//! exceed a target's qubit budget are reported as skipped, not dropped
//! silently.
//!
//! One wide point follows: a 128-bit Simon (256 qubits) on `grid-16x16`,
//! where the cost of the initial layout in the width shows.
//!
//! Every run pins every route: each entry's swaps and routed depth must
//! equal those of the latest committed full-mode point. A smoke run fails
//! on an entry that point lacks; a full run records it.
//!
//! Each full run appends a trajectory point to `BENCH_route.json` at the
//! repo root. `--smoke` shrinks the sample count for CI and prints the
//! point instead of appending it.

use asdf_ast::CaptureValue;
use asdf_baselines::Benchmark;
use asdf_bench::{
    asdf_circuit, committed_full_point, json_field, median_time, record_trajectory_point,
    smoke_mode,
};
use asdf_core::{CompileOptions, Compiler};
use asdf_qcircuit::Circuit;
use asdf_target::Target;

const TARGETS: [&str; 3] = ["linear-16", "ring-8", "grid-4x4"];

/// The wide point: (program name, Simon width, target).
const WIDE: (&str, usize, &str) = ("simon128", 128, "grid-16x16");

/// One `examples/` program: (name, source, kernel, captures, dims).
type Example =
    (&'static str, &'static str, &'static str, Vec<CaptureValue>, Vec<(&'static str, i64)>);

/// The five `examples/` programs.
fn examples() -> Vec<Example> {
    let cfunc = |name: &str, bits: Option<&str>| CaptureValue::CFunc {
        name: name.into(),
        captures: bits.map(CaptureValue::bits_from_str).into_iter().collect(),
    };
    vec![
        (
            "bv",
            r"classical f[N](secret: bit[N], x: bit[N]) -> bit { (secret & x).xor_reduce() }
              qpu kernel[N](f: cfunc[N, 1]) -> bit[N] {
                  'p'[N] | f.sign | pm[N] >> std[N] | std[N].measure
              }",
            "kernel",
            vec![cfunc("f", Some("1101"))],
            vec![],
        ),
        (
            "grover",
            r"classical oracle[N](x: bit[N]) -> bit { x.and_reduce() }
              qpu grover[N, I](f: cfunc[N, 1]) -> bit[N] {
                  'p'[N] | (f.sign | {'p'[N]} >> {-'p'[N]}) ** I | std[N].measure
              }",
            "grover",
            vec![cfunc("oracle", None)],
            vec![("N", 3), ("I", 1)],
        ),
        (
            "simon",
            r"classical f[N](s: bit[N], x: bit[N]) -> bit[N] { x ^ (x[0].repeat(N) & s) }
              qpu simon[N](f: cfunc[N, N]) -> bit[2*N] {
                  'p'[N] + '0'[N] | f.xor | (pm[N] >> std[N]) + id[N] | std[2*N].measure
              }",
            "simon",
            vec![cfunc("f", Some("110"))],
            vec![],
        ),
        (
            "period_finding",
            r"classical f[N](mask: bit[N], x: bit[N]) -> bit[N] { x & mask }
              qpu period[N](f: cfunc[N, N]) -> bit[2*N] {
                  'p'[N] + '0'[N] | f.xor | fourier[N].measure + std[N].measure
              }",
            "period",
            vec![cfunc("f", Some("0011"))],
            vec![],
        ),
        (
            "teleport",
            r"qpu teleport(secret: qubit) -> qubit {
                  let alice, bob = 'p0' | '1' & std.flip;
                  let m_pm, m_std = secret + alice | '1' & std.flip | (pm + std).measure;
                  bob | (pm.flip if m_pm else id) | (std.flip if m_std else id)
              }",
            "teleport",
            vec![],
            vec![],
        ),
    ]
}

fn compile_example(
    source: &str,
    kernel: &str,
    captures: &[CaptureValue],
    dims: &[(&str, i64)],
) -> Option<Circuit> {
    let mut options = CompileOptions::default();
    for (name, value) in dims {
        options = options.with_dim(name, *value);
    }
    let compiled = Compiler::compile(source, kernel, captures, &options).expect("example compiles");
    compiled.circuit
}

/// One routed `(program, target)` measurement.
struct Entry {
    /// `"program": …, "target": …`, as the entry's JSON starts.
    tag: String,
    swaps: usize,
    routed_depth: usize,
    json: String,
}

/// Routes `circuit` onto `target_name`, checks and prints the result, and
/// returns its entry; `None` (printed as skipped) when the circuit exceeds
/// the target.
fn measure(name: &str, circuit: &Circuit, target_name: &str, samples: usize) -> Option<Entry> {
    let target = Target::parse(target_name).expect("builtin target parses");
    let routed = match target.route(circuit) {
        Ok(routed) => routed,
        Err(e) if asdf_target::is_capacity_error(&e.to_string()) => {
            println!(
                "{name:<16} {target_name:<10} {:>7} (exceeds target capacity; skipped)",
                circuit.num_qubits
            );
            return None;
        }
        Err(e) => panic!("routing {name} onto {target_name} failed: {e}"),
    };
    target.validate(&routed.circuit).expect("routed circuit is native and coupled");
    let overhead = asdf_resource::route_overhead(
        &asdf_target::route::translate_to_native(circuit),
        &routed.circuit,
        routed.info.swap_count,
    );
    let route_time = median_time(samples, || target.route(circuit).unwrap());
    let route_us = route_time.as_secs_f64() * 1e6;
    println!(
        "{name:<16} {target_name:<10} {:>7} {:>6} {:>6} -> {:>4} {:>8.2}x {:>10.1}",
        routed.circuit.num_qubits,
        overhead.swap_count,
        overhead.unrouted_depth,
        overhead.routed_depth,
        overhead.depth_overhead(),
        route_us,
    );
    let tag = format!("\"program\": \"{name}\", \"target\": \"{target_name}\"");
    let json = format!(
        "{{{tag}, \"swaps\": {}, \"unrouted_depth\": {}, \"routed_depth\": {}, \
         \"depth_overhead\": {:.3}, \"route_us\": {:.1}}}",
        overhead.swap_count,
        overhead.unrouted_depth,
        overhead.routed_depth,
        overhead.depth_overhead(),
        route_us,
    );
    Some(Entry { tag, swaps: overhead.swap_count, routed_depth: overhead.routed_depth, json })
}

fn main() {
    let smoke = smoke_mode();
    let samples = if smoke { 5 } else { 30 };
    println!("route_overhead: {samples} samples{}", if smoke { " (smoke)" } else { "" });
    println!(
        "{:<16} {:<10} {:>7} {:>6} {:>13} {:>9} {:>10}",
        "program", "target", "qubits", "swaps", "depth", "overhead", "route_us"
    );

    let mut entries = Vec::new();
    for (name, source, kernel, captures, dims) in examples() {
        let Some(circuit) = compile_example(source, kernel, &captures, &dims) else {
            println!("{name:<16} {:<10} (no static circuit; skipped)", "-");
            continue;
        };
        for target_name in TARGETS {
            entries.extend(measure(name, &circuit, target_name, samples));
        }
    }

    let (wide_name, width, wide_target) = WIDE;
    let simon = Benchmark::paper_suite(width)
        .into_iter()
        .find_map(|(name, b)| (name == "simon").then_some(b))
        .expect("the paper suite holds simon");
    let wide = measure(wide_name, &asdf_circuit(&simon), wide_target, samples)
        .expect("the wide program fits its target");
    entries.push(wide);

    let committed = committed_full_point("BENCH_route.json", "route_overhead");
    let mut pinned = 0;
    for entry in &entries {
        let committed_entry =
            committed.as_deref().and_then(|point| Some(&point[point.find(&entry.tag)?..]));
        let Some(at) = committed_entry else {
            assert!(!smoke, "{{{}}} has no committed full-mode point; record one", entry.tag);
            continue;
        };
        for (key, measured) in [("swaps", entry.swaps), ("routed_depth", entry.routed_depth)] {
            assert_eq!(
                json_field(at, key),
                Some(measured as f64),
                "{{{}}}: {key} differs from the committed full-mode point",
                entry.tag
            );
        }
        pinned += 1;
    }
    println!("{pinned} of {} routes match the committed full-mode point", entries.len());

    let point = format!(
        "{{\"bench\": \"route_overhead\", \"mode\": \"{}\", \"entries\": [{}]}}",
        if smoke { "smoke" } else { "full" },
        entries.iter().map(|e| e.json.as_str()).collect::<Vec<_>>().join(", "),
    );
    record_trajectory_point("BENCH_route.json", &point, smoke);
}
