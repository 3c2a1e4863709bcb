//! Thread-count invariance of the pooled kernel path.
//!
//! Every worker count is required to produce **exactly equal** amplitudes
//! (not merely close): pairs partition disjointly across workers and the
//! per-element IEEE expressions do not depend on which worker runs them
//! (the slice kernels' own exactness is pinned by the unit tests in
//! `simd.rs`), so there is nothing to round differently. These suites pin
//! that contract on random circuits, alongside the 2^26 allocation cap.

use asdf_ir::GateKind;
use asdf_qcircuit::Circuit;
use asdf_sim::{
    checked_amplitude_count, measurement_distribution_threads, KernelProgram, Simulator,
    StateVector, MAX_QUBITS,
};
use proptest::prelude::*;
use threadpool::ThreadPool;

/// One random gate: a kind index, an angle, and a shuffled wire list whose
/// head supplies the (distinct) targets and controls.
#[derive(Debug, Clone)]
struct GateRecipe {
    kind: usize,
    theta: f64,
    wires: Vec<usize>,
    num_controls: usize,
}

fn arb_gates(num_qubits: usize, max_gates: usize) -> impl Strategy<Value = Vec<GateRecipe>> {
    let one = (
        0usize..12,
        0.0..std::f64::consts::TAU,
        Just((0..num_qubits).collect::<Vec<usize>>()).prop_shuffle(),
        0usize..3,
    )
        .prop_map(|(kind, theta, wires, num_controls)| GateRecipe {
            kind,
            theta,
            wires,
            num_controls,
        });
    proptest::collection::vec(one, 1..=max_gates)
}

fn circuit_from(num_qubits: usize, recipes: &[GateRecipe]) -> Circuit {
    let mut circuit = Circuit::new(num_qubits);
    for recipe in recipes {
        let gate = match recipe.kind {
            0 => GateKind::X,
            1 => GateKind::Y,
            2 => GateKind::Z,
            3 => GateKind::H,
            4 => GateKind::S,
            5 => GateKind::Sdg,
            6 => GateKind::T,
            7 => GateKind::Sx,
            8 => GateKind::P(recipe.theta),
            9 => GateKind::Ry(recipe.theta),
            10 => GateKind::Rz(recipe.theta),
            _ => GateKind::Swap,
        };
        let mut wires = recipe.wires.clone();
        wires.retain(|&w| w < num_qubits);
        if wires.len() < gate.num_targets() {
            continue;
        }
        let targets: Vec<usize> = wires[..gate.num_targets()].to_vec();
        let spare = wires.len() - targets.len();
        let controls: Vec<usize> =
            wires[targets.len()..targets.len() + recipe.num_controls.min(spare)].to_vec();
        circuit.gate(gate, &controls, &targets);
    }
    circuit
}

/// Bitwise amplitude equality — the contract across thread counts
/// (`PartialEq` on `f64`, so ±0.0 compare equal).
fn assert_states_exact(a: &StateVector, b: &StateVector, what: &str) {
    for (k, (x, y)) in a.amplitudes().iter().zip(b.amplitudes()).enumerate() {
        assert!(x == y, "{what}: amplitude {k} differs: {x} vs {y}");
    }
}

proptest! {
    /// Splitting the pair enumeration across 2/4/8 workers changes nothing:
    /// every worker count reproduces the single-thread bits exactly.
    #[test]
    fn threaded_apply_equals_single_thread_exactly(
        num_qubits in 1usize..=12,
        recipes in arb_gates(12, 20),
    ) {
        let circuit = circuit_from(num_qubits, &recipes);
        let program = KernelProgram::compile(&circuit);
        let mut one = StateVector::zero(num_qubits);
        program.apply_gates_pooled(&mut one, &ThreadPool::new(1));
        for workers in [2usize, 4, 8] {
            let mut many = StateVector::zero(num_qubits);
            program.apply_gates_pooled(&mut many, &ThreadPool::new(workers));
            assert_states_exact(&one, &many, &format!("1 vs {workers} workers"));
        }
    }

    /// Seeded runs with measurements are deterministic across thread
    /// counts: probability sums are bit-identical for every worker count,
    /// so every RNG draw sees the same threshold and every collapse takes
    /// the same branch.
    #[test]
    fn seeded_measuring_runs_are_thread_count_invariant(
        recipes in arb_gates(8, 15),
        seed in any::<u64>(),
    ) {
        let mut circuit = circuit_from(8, &recipes);
        for q in 0..8 {
            circuit.measure(q, q);
        }
        let reference = Simulator::with_threads(seed, 1).run(&circuit);
        for threads in [2usize, 4, 8] {
            let run = Simulator::with_threads(seed, threads).run(&circuit);
            prop_assert_eq!(&reference.bits, &run.bits, "threads={}", threads);
            assert_states_exact(&reference.state, &run.state, "post-measurement state");
        }
        // And the exact distribution extraction agrees across counts.
        let d1 = measurement_distribution_threads(&circuit, 1);
        let d4 = measurement_distribution_threads(&circuit, 4);
        prop_assert_eq!(d1, d4);
    }
}

#[test]
fn amplitude_cap_is_enforced_before_allocating() {
    assert_eq!(checked_amplitude_count(MAX_QUBITS), 1usize << MAX_QUBITS);
    assert!(std::panic::catch_unwind(|| checked_amplitude_count(MAX_QUBITS + 1)).is_err());
    assert!(std::panic::catch_unwind(|| StateVector::zero(MAX_QUBITS + 1)).is_err());
    // The batched extractor checks the compiled program's width before
    // touching its structure-of-arrays planes.
    let program = KernelProgram::compile(&Circuit::new(MAX_QUBITS + 1));
    assert!(std::panic::catch_unwind(|| asdf_sim::batched_program_columns(&program, &[0])).is_err());
}

#[test]
fn appending_a_qubit_respects_the_cap() {
    let small = StateVector::zero(2).with_appended_zero_qubit();
    assert_eq!(small.num_qubits(), 3);
    assert!((small.probability(0) - 1.0).abs() < 1e-12);
}
