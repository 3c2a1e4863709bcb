//! Compile-throughput bench for the session API: cold one-shot
//! compilation vs warm-cache `Session::compile`, plus the
//! frontend-sharing win across the options matrix (the difftest sweep
//! shape).
//!
//! Three measurements on the Fig. 1 Bernstein–Vazirani program:
//!
//! - **cold** — a fresh [`Session`] per compile (parse + frontend +
//!   pipeline every time; equivalent to `Compiler::compile`);
//! - **warm** — one session, the same request repeatedly: after the
//!   first compile every request is an artifact-cache hit;
//! - **matrix** — one session compiling every configuration of
//!   `CompileOptions::matrix()` (all but the first are frontend hits) vs
//!   one cold compile each.
//!
//! Each full run appends a trajectory point to `BENCH_compile.json` at
//! the repo root. `--smoke` shrinks the workload for CI and prints the
//! point instead of appending it.

use asdf_bench::{bv_request, median_time, record_trajectory_point, smoke_mode, BV_SRC};
use asdf_core::{CompileOptions, Session};
use criterion::black_box;
use std::time::Duration;

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn main() {
    let smoke = smoke_mode();
    let (secret, samples, warm_batch) =
        if smoke { ("1101", 10, 200) } else { ("110100", 30, 2000) };
    let request = bv_request(secret);
    println!(
        "compile_throughput: BV secret {secret}, {} samples{}",
        samples,
        if smoke { " (smoke)" } else { "" }
    );

    // Cold: everything from scratch, once per compile.
    let cold = median_time(samples, || {
        let session = Session::new(BV_SRC).unwrap();
        session.compile(&request).unwrap()
    });

    // Warm: one long-lived session; amortize the first (cold) compile
    // away by timing a batch of repeat requests.
    let session = Session::new(BV_SRC).unwrap();
    session.compile(&request).unwrap();
    let warm_total = median_time(samples, || {
        for _ in 0..warm_batch {
            black_box(session.compile(&request).unwrap());
        }
    });
    let warm = warm_total / warm_batch as u32;
    let warm_speedup = cold.as_secs_f64() / warm.as_secs_f64();

    println!(
        "cold compile        median {:>10.3?}  ({:>9.0} compiles/s)",
        cold,
        1.0 / cold.as_secs_f64()
    );
    println!(
        "warm-cache compile  median {:>10.3?}  ({:>9.0} compiles/s)   speedup {warm_speedup:.0}x",
        warm,
        1.0 / warm.as_secs_f64()
    );
    assert!(
        warm_speedup >= 10.0,
        "acceptance: warm-cache compile must be >= 10x the cold path, got {warm_speedup:.1}x"
    );

    // Matrix: the difftest shape — every configuration, one session.
    let matrix = CompileOptions::matrix();
    let matrix_shared = median_time(samples, || {
        let session = Session::new(BV_SRC).unwrap();
        for (_, options) in &matrix {
            black_box(session.compile(&request.clone().with_options(options.clone())).unwrap());
        }
        session
    });
    let matrix_cold = median_time(samples, || {
        for (_, options) in &matrix {
            let session = Session::new(BV_SRC).unwrap();
            black_box(session.compile(&request.clone().with_options(options.clone())).unwrap());
        }
    });
    let matrix_speedup = matrix_cold.as_secs_f64() / matrix_shared.as_secs_f64();
    println!(
        "{}-config matrix    shared-frontend {matrix_shared:>10.3?} vs cold {matrix_cold:>10.3?}   speedup {matrix_speedup:.2}x",
        matrix.len()
    );

    let point = format!(
        "{{\"bench\": \"compile_throughput\", \"mode\": \"{}\", \"program\": \"bv\", \
         \"cold_us\": {:.1}, \"warm_us\": {:.3}, \"warm_speedup\": {:.0}, \
         \"matrix_shared_us\": {:.1}, \"matrix_cold_us\": {:.1}, \"matrix_speedup\": {:.2}}}",
        if smoke { "smoke" } else { "full" },
        us(cold),
        us(warm),
        warm_speedup,
        us(matrix_shared),
        us(matrix_cold),
        matrix_speedup,
    );
    record_trajectory_point("BENCH_compile.json", &point, smoke);
}
