//! Property tests for the kernel engine: the stride-based, fused, batched
//! paths must agree with the naive scan-and-branch reference on random
//! gates, controls, and circuits.

use asdf_ir::GateKind;
use asdf_qcircuit::{Circuit, CircuitOp};
use asdf_sim::{batched_columns, columns_equivalent, unitary_of, KernelProgram, StateVector};
use proptest::prelude::*;

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

/// Materializes a recipe as (gate, controls, targets) over distinct wires,
/// or `None` when the wire list is too short for the gate's targets.
fn realize(recipe: &GateRecipe) -> Option<(GateKind, Vec<usize>, Vec<usize>)> {
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
    if recipe.wires.len() < gate.num_targets() {
        return None;
    }
    let targets: Vec<usize> = recipe.wires[..gate.num_targets()].to_vec();
    let spare = recipe.wires.len() - targets.len();
    let controls: Vec<usize> =
        recipe.wires[targets.len()..targets.len() + recipe.num_controls.min(spare)].to_vec();
    Some((gate, controls, targets))
}

/// The circuit of `recipes` over `num_qubits` wires: wires at or beyond
/// `num_qubits` are dropped from each recipe before it is realized.
fn circuit_from(num_qubits: usize, recipes: &[GateRecipe]) -> Circuit {
    let mut circuit = Circuit::new(num_qubits);
    for recipe in recipes {
        let mut recipe = recipe.clone();
        recipe.wires.retain(|&w| w < num_qubits);
        if let Some((gate, controls, targets)) = realize(&recipe) {
            circuit.gate(gate, &controls, &targets);
        }
    }
    circuit
}

fn assert_states_close(a: &StateVector, b: &StateVector, eps: f64) {
    for (x, y) in a.amplitudes().iter().zip(b.amplitudes()) {
        assert!(x.approx_eq(*y, eps), "{x} vs {y}");
    }
}

proptest! {
    /// Stride-based pair enumeration agrees with the naive full scan on
    /// random (controlled) gates, up to 10 qubits.
    #[test]
    fn stride_apply_matches_naive_scan(
        num_qubits in 1usize..=10,
        recipes in arb_gates(10, 25),
    ) {
        let mut fast = StateVector::zero(num_qubits);
        let mut naive = StateVector::zero(num_qubits);
        for op in circuit_from(num_qubits, &recipes).ops() {
            if let CircuitOp::Gate { gate, controls, targets } = op {
                fast.apply(gate, controls, targets);
                naive.apply_naive(gate, controls, targets);
            }
        }
        assert_states_close(&fast, &naive, 1e-10);
    }

    /// The gate-fusion prepass and the pooled kernels preserve semantics: a
    /// fused program applied to |0..0> equals gate-by-gate naive
    /// application, on 1 to 12 qubits.
    #[test]
    fn fused_program_matches_unfused(
        num_qubits in 1usize..=12,
        recipes in arb_gates(12, 40),
    ) {
        let circuit = circuit_from(num_qubits, &recipes);
        let program = KernelProgram::compile(&circuit);
        let mut fused = StateVector::zero(num_qubits);
        program.apply_state(&mut fused);
        let mut naive = StateVector::zero(num_qubits);
        for op in circuit.ops() {
            if let CircuitOp::Gate { gate, controls, targets } = op {
                naive.apply_naive(gate, controls, targets);
            }
        }
        assert_states_close(&fused, &naive, 1e-10);
    }

    /// Batched unitary extraction (which runs the fused circuit) and naive
    /// per-column re-simulation of the unfused circuit produce equivalent
    /// unitaries under the `circuits_equivalent` machinery — and in fact
    /// identical columns, since fusion introduces no phase freedom.
    #[test]
    fn fused_and_unfused_unitaries_are_equivalent(recipes in arb_gates(5, 30)) {
        let circuit = circuit_from(5, &recipes);
        let inputs: Vec<usize> = (0..(1usize << 5)).collect();
        let batched = batched_columns(&circuit, &inputs);
        let naive: Vec<StateVector> = inputs
            .iter()
            .map(|&input| {
                let mut state = StateVector::basis(5, input);
                for op in circuit.ops() {
                    if let CircuitOp::Gate { gate, controls, targets } = op {
                        state.apply_naive(gate, controls, targets);
                    }
                }
                state
            })
            .collect();
        prop_assert!(columns_equivalent(&batched, &naive, 1e-9));
        for (a, b) in batched.iter().zip(&naive) {
            assert_states_close(a, b, 1e-9);
        }
        // And `unitary_of` (the kernel-backed public entry point) agrees.
        prop_assert!(columns_equivalent(&unitary_of(&circuit), &naive, 1e-9));
    }
}
