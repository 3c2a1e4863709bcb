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
//! Each full run appends a trajectory point to `BENCH_route.json` at the
//! repo root. `--smoke` (or env `ROUTE_OVERHEAD_SMOKE=1`) shrinks the
//! sample count for CI and prints the point instead of appending it.

use asdf_ast::CaptureValue;
use asdf_bench::{median_time, record_trajectory_point, smoke_mode};
use asdf_core::{CompileOptions, Compiler};
use asdf_qcircuit::Circuit;
use asdf_target::Target;

const TARGETS: [&str; 3] = ["linear-16", "ring-8", "grid-4x4"];

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

fn main() {
    let smoke = smoke_mode("ROUTE_OVERHEAD_SMOKE");
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
            let target = Target::parse(target_name).expect("builtin target parses");
            let routed = match target.route(&circuit) {
                Ok(routed) => routed,
                Err(e) if asdf_target::is_capacity_error(&e.to_string()) => {
                    println!(
                        "{name:<16} {target_name:<10} {:>7} (exceeds target capacity; skipped)",
                        circuit.num_qubits
                    );
                    continue;
                }
                Err(e) => panic!("routing {name} onto {target_name} failed: {e}"),
            };
            target.validate(&routed.circuit).expect("routed circuit is native and coupled");
            let overhead = asdf_resource::route_overhead(
                &asdf_target::route::translate_to_native(&circuit),
                &routed.circuit,
                routed.info.swap_count,
            );
            let route_time = median_time(samples, || target.route(&circuit).unwrap());
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
            entries.push(format!(
                "{{\"program\": \"{name}\", \"target\": \"{target_name}\", \
                 \"swaps\": {}, \"unrouted_depth\": {}, \"routed_depth\": {}, \
                 \"depth_overhead\": {:.3}, \"route_us\": {:.1}}}",
                overhead.swap_count,
                overhead.unrouted_depth,
                overhead.routed_depth,
                overhead.depth_overhead(),
                route_us,
            ));
        }
    }

    let point = format!(
        "{{\"bench\": \"route_overhead\", \"mode\": \"{}\", \"entries\": [{}]}}",
        if smoke { "smoke" } else { "full" },
        entries.join(", "),
    );
    record_trajectory_point("BENCH_route.json", &point, smoke);
}
