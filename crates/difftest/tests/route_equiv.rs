//! Routing-vs-unrouted equivalence on difftest-generated circuits.
//!
//! Every generated program that compiles to a measurement-free static
//! circuit of at most 8 qubits is routed onto restricted-connectivity
//! targets and cross-checked against the all-to-all original with the
//! permutation-aware unitary oracle: the routed circuit must use only
//! native gates on coupled pairs ([`asdf_target::Target::validate`]) and
//! implement the same unitary up to the router's reported input/output
//! wire permutations.

use asdf_core::{CompileOptions, CompileRequest, Session};
use asdf_difftest::{gen_case, GenOptions};
use asdf_qcircuit::{Circuit, CircuitOp};
use asdf_sim::circuits_equivalent_up_to_output_permutation;
use asdf_target::Target;
use proptest::prelude::*;

const TARGETS: [&str; 2] = ["linear-8", "grid-2x4"];

/// Compiles a generated case to a static circuit, keeping only the
/// measurement-free ones small enough for unitary cross-checking.
fn generated_circuit(sweep_seed: u64, index: usize) -> Option<Circuit> {
    let case = gen_case(sweep_seed, index, &GenOptions::default());
    if case.measure.is_some() {
        return None;
    }
    let rendered = case.render();
    let session = Session::new(&rendered.source).ok()?;
    let mut request = CompileRequest::kernel(&rendered.kernel).with_captures(&rendered.captures);
    for (name, value) in &rendered.dims {
        request = request.with_dim(name, *value);
    }
    let compiled = session.compile(&request.with_options(CompileOptions::default())).ok()?;
    let circuit = compiled.circuit.clone()?;
    let gates_only = circuit.ops().all(|op| matches!(op, CircuitOp::Gate { .. }));
    (gates_only && circuit.num_qubits <= 8).then_some(circuit)
}

fn check_routes(circuit: &Circuit) {
    for name in TARGETS {
        let target = Target::parse(name).expect("builtin-shaped target parses");
        let routed = target.route(circuit).expect("8-qubit circuit fits an 8-qubit target");
        target
            .validate(&routed.circuit)
            .expect("routed circuit uses only native gates on coupled pairs");
        assert!(
            circuits_equivalent_up_to_output_permutation(
                circuit,
                &routed.circuit,
                &routed.info.initial_layout,
                &routed.info.final_layout,
                circuit.num_qubits,
                1e-9,
            ),
            "routing onto {name} changed the unitary (beyond wire permutation)"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random difftest programs: routing preserves semantics up to the
    /// reported wire permutations on every target.
    #[test]
    fn routing_preserves_generated_circuits(sweep_seed in 0u64..1u64 << 32, index in 0usize..8) {
        if let Some(circuit) = generated_circuit(sweep_seed, index) {
            check_routes(&circuit);
        }
    }
}

/// A deterministic population on top of the random one, so a fixed set of
/// generated circuits is always covered.
#[test]
fn routing_preserves_a_fixed_population() {
    let mut checked = 0usize;
    for index in 0..30 {
        if let Some(circuit) = generated_circuit(0x207E7, index) {
            check_routes(&circuit);
            checked += 1;
        }
    }
    assert!(checked >= 10, "only {checked} of 30 generated cases produced routable circuits");
}
