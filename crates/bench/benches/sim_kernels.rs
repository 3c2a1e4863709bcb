//! Simulation-engine bench: the pooled SIMD kernel path on seeded random
//! circuits, tracked against its own history in `BENCH_sim.json`.
//!
//! Two measurements:
//!
//! - **single_state**, over a qubit grid (12/16/18/20 full, 8/10 smoke) with
//!   a threads axis — the fused program's SIMD run kernels on one thread
//!   vs the same kernels with the pair enumeration split over all cores;
//! - **unitary** — extracting all `2^n` unitary columns at the smallest
//!   grid size (the difftest oracle's hottest loop), naive per-column
//!   re-simulation vs [`asdf_sim::batched_columns`].
//!
//! Each full run appends a trajectory point to `BENCH_sim.json` at the
//! repo root, so kernel times are tracked across commits. `--smoke` (or
//! env `SIM_KERNELS_SMOKE=1`) shrinks the workload for CI and prints the
//! point instead of appending it.

use asdf_bench::{record_trajectory_point, smoke_mode};
use asdf_ir::GateKind;
use asdf_qcircuit::{Circuit, CircuitOp};
use asdf_sim::{batched_columns, columns_equivalent, KernelProgram, StateVector};
use criterion::black_box;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};
use threadpool::ThreadPool;

const SEED: u64 = 0xC0FF_EE00;

/// A seeded random circuit with the gate mix of compiled Qwerty programs:
/// mostly single-qubit Cliffords+T and rotations, a third controlled ops.
fn random_circuit(num_qubits: usize, gates: usize, seed: u64) -> Circuit {
    assert!(num_qubits >= 3, "the gate mix needs 3 distinct wires");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut circuit = Circuit::new(num_qubits);
    let distinct = |rng: &mut StdRng, n: usize, taken: &[usize]| -> usize {
        loop {
            let q = rng.gen_range_usize(n);
            if !taken.contains(&q) {
                return q;
            }
        }
    };
    for _ in 0..gates {
        let roll = rng.gen_f64();
        if roll < 0.62 {
            let gate = match rng.gen_range_usize(8) {
                0 => GateKind::H,
                1 => GateKind::T,
                2 => GateKind::Tdg,
                3 => GateKind::S,
                4 => GateKind::X,
                5 => GateKind::Z,
                6 => GateKind::Rz(rng.gen_f64() * std::f64::consts::TAU),
                _ => GateKind::P(rng.gen_f64() * std::f64::consts::TAU),
            };
            circuit.gate(gate, &[], &[rng.gen_range_usize(num_qubits)]);
        } else if roll < 0.90 {
            let c = rng.gen_range_usize(num_qubits);
            let t = distinct(&mut rng, num_qubits, &[c]);
            circuit.gate(GateKind::X, &[c], &[t]);
        } else if roll < 0.96 {
            let c0 = rng.gen_range_usize(num_qubits);
            let c1 = distinct(&mut rng, num_qubits, &[c0]);
            let t = distinct(&mut rng, num_qubits, &[c0, c1]);
            circuit.gate(GateKind::X, &[c0, c1], &[t]);
        } else {
            let a = rng.gen_range_usize(num_qubits);
            let b = distinct(&mut rng, num_qubits, &[a]);
            circuit.gate(GateKind::Swap, &[], &[a, b]);
        }
    }
    circuit
}

fn naive_columns(circuit: &Circuit, inputs: &[usize]) -> Vec<StateVector> {
    inputs
        .iter()
        .map(|&input| {
            let mut state = StateVector::basis(circuit.num_qubits, input);
            for op in circuit.ops() {
                if let CircuitOp::Gate { gate, controls, targets } = op {
                    state.apply_naive(gate, controls, targets);
                }
            }
            state
        })
        .collect()
}

/// Minimum wall-clock of `samples` runs (after one warmup) — the least
/// noise-contaminated estimate of the true cost on a shared machine.
fn min_time<O>(samples: usize, mut f: impl FnMut() -> O) -> Duration {
    black_box(f());
    (0..samples)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed()
        })
        .min()
        .expect("samples >= 1")
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn main() {
    let smoke = smoke_mode("SIM_KERNELS_SMOKE");
    // (qubits, gates, single-state samples) per grid size.
    let grid: &[(usize, usize, usize)] = if smoke {
        &[(8, 100, 20), (10, 150, 10)]
    } else {
        &[(12, 200, 60), (16, 200, 25), (18, 200, 15), (20, 200, 9)]
    };
    let threads = std::thread::available_parallelism().map(usize::from).unwrap_or(1);
    println!(
        "sim_kernels: {} grid, {threads} hardware threads",
        if smoke { "smoke" } else { "full" }
    );

    // Correctness cross-check at the smallest size before timing anything.
    let (check_qubits, check_gates, _) = grid[0];
    let check = random_circuit(check_qubits, check_gates, SEED);
    let inputs: Vec<usize> = (0..(1usize << check_qubits)).collect();
    assert!(
        columns_equivalent(
            &batched_columns(&check, &inputs),
            &naive_columns(&check, &inputs),
            1e-9
        ),
        "kernel engine disagrees with the naive reference"
    );

    // single_state grid: the fused SIMD kernels serially vs across all
    // cores.
    let serial = ThreadPool::new(1);
    let wide = ThreadPool::new(threads);
    let mut grid_points = Vec::new();
    for &(num_qubits, gates, samples) in grid {
        let circuit = random_circuit(num_qubits, gates, SEED);
        let fused = KernelProgram::compile(&circuit);
        let simd = min_time(samples, || {
            let mut state = StateVector::zero(num_qubits);
            fused.apply_gates_pooled(&mut state, &serial);
            state
        });
        let simd_mt = min_time(samples, || {
            let mut state = StateVector::zero(num_qubits);
            fused.apply_gates_pooled(&mut state, &wide);
            state
        });
        let scaling = simd.as_secs_f64() / simd_mt.as_secs_f64();
        println!(
            "single_state {num_qubits:>2}q ({} ops -> {} fused): simd(1t) {:>9.3?} | \
             simd({threads}t) {:>9.3?} (1->{threads}t scaling {scaling:.2}x)",
            circuit.ops().len(),
            fused.ops().len(),
            simd,
            simd_mt,
        );
        grid_points.push(format!(
            "{{\"qubits\": {num_qubits}, \"gates\": {}, \"kernel_ops\": {}, \
             \"simd_ms\": {:.3}, \"simd_mt_ms\": {:.3}, \"scaling\": {scaling:.2}}}",
            circuit.ops().len(),
            fused.ops().len(),
            ms(simd),
            ms(simd_mt),
        ));
    }

    // unitary extraction at the smallest grid size (naive per-column
    // re-simulation is intractable beyond ~12 qubits).
    let unitary_samples = if smoke { 2 } else { 3 };
    let naive_unitary = min_time(unitary_samples, || naive_columns(&check, &inputs));
    let kernel_unitary = min_time(unitary_samples, || batched_columns(&check, &inputs));
    let unitary_speedup = naive_unitary.as_secs_f64() / kernel_unitary.as_secs_f64();
    println!(
        "unitary {check_qubits:>2}q: naive {:>10.3?} | batched {:>10.3?}   speedup {unitary_speedup:.2}x",
        naive_unitary, kernel_unitary
    );

    let point = format!(
        "{{\"bench\": \"sim_kernels\", \"mode\": \"{}\", \"threads\": {threads}, \
         \"single_state_grid\": [{}], \
         \"unitary\": {{\"qubits\": {check_qubits}, \"naive_ms\": {:.3}, \"kernel_ms\": {:.3}, \
         \"speedup\": {:.2}}}}}",
        if smoke { "smoke" } else { "full" },
        grid_points.join(", "),
        ms(naive_unitary),
        ms(kernel_unitary),
        unitary_speedup,
    );
    record_trajectory_point("BENCH_sim.json", &point, smoke);
}
