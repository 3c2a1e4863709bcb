//! The `sim` output backend: simulation results as the emission target.
//!
//! Where `qasm`/`qir-*` emit a program for someone else to run, the `sim`
//! backend runs the compiled circuit on the state-vector simulator and
//! emits the *result* as deterministic text:
//!
//! - a circuit whose measurements are all terminal emits the exact
//!   outcome distribution, one `bits probability` line per outcome;
//! - a measurement-free circuit emits the final state's nonzero
//!   amplitudes from |0...0⟩;
//! - anything else (mid-circuit measurement/reset) falls back to seeded
//!   sampling, so the text is still reproducible.
//!
//! Registering it in the same [`asdf_codegen::BackendRegistry`] as the text backends is
//! what lets `asdf_core::Session::emit(artifact, "sim")` treat "simulate
//! it" as just another target.

use crate::kernel::KernelProgram;
use crate::run::{measurement_distribution, pool_for_state, sample_per_shot};
use crate::state::{StateVector, MAX_QUBITS};
use asdf_codegen::backend::{Backend, BackendError, EmitInput};
use asdf_qcircuit::CircuitOp;

/// Shots used by the sampling fallback (mid-circuit measurements).
const FALLBACK_SHOTS: usize = 4096;
/// Seed used by the sampling fallback, for reproducible text.
const FALLBACK_SEED: u64 = 0x51D_BACC;

/// The state-vector simulation backend (registry name `sim`). Its worker
/// pool is sized from the state (see `crate::run::PARALLEL_STATE_MIN`);
/// results are identical for every worker count.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimBackend;

impl Backend for SimBackend {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn emit(&self, input: &EmitInput<'_>) -> Result<String, BackendError> {
        let circuit = input
            .circuit
            .ok_or_else(|| BackendError::NeedsCircuit { backend: self.name().to_string() })?;
        // Every path below allocates a state vector over all the circuit's
        // qubits; refuse an oversized one before anything is allocated.
        if circuit.num_qubits > MAX_QUBITS {
            return Err(BackendError::Emit {
                backend: self.name().to_string(),
                message: format!(
                    "state vector too large: {} qubits (max {MAX_QUBITS})",
                    circuit.num_qubits
                ),
            });
        }

        let measures = circuit
            .ops()
            .any(|op| matches!(op, CircuitOp::Measure { .. } | CircuitOp::Reset { .. }));
        if measures {
            if let Some(dist) = measurement_distribution(circuit) {
                let mut out = String::from("# exact measurement distribution\n");
                for (bits, p) in dist {
                    out.push_str(&format!("{bits} {p:.12}\n"));
                }
                return Ok(out);
            }
            // Mid-circuit measurement or reset: per-shot sampling with a
            // fixed seed keeps the emitted text deterministic.
            let counts = sample_per_shot(circuit, FALLBACK_SHOTS, FALLBACK_SEED);
            let mut entries: Vec<(String, usize)> = counts.into_iter().collect();
            entries.sort();
            let mut out =
                format!("# sampled counts ({FALLBACK_SHOTS} shots, seed {FALLBACK_SEED:#x})\n");
            for (bits, count) in entries {
                out.push_str(&format!("{bits} {count}\n"));
            }
            return Ok(out);
        }

        // Measurement-free: the final state from |0...0>.
        let mut state = StateVector::zero(circuit.num_qubits);
        let pool = pool_for_state(0, state.amplitudes().len());
        KernelProgram::compile(circuit).apply_gates_pooled(&mut state, &pool);
        let n = circuit.num_qubits;
        let mut out = String::from("# final state amplitudes from |0...0>\n");
        for (index, amp) in state.amplitudes().iter().enumerate() {
            if amp.norm_sqr() < 1e-18 {
                continue;
            }
            out.push_str(&format!("|{index:0n$b}> {:+.12}{:+.12}i\n", amp.re, amp.im));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asdf_ir::{GateKind, Module};
    use asdf_qcircuit::Circuit;

    fn emit(circuit: &Circuit) -> String {
        let module = Module::new();
        let input = EmitInput { module: &module, entry: "k", circuit: Some(circuit) };
        SimBackend.emit(&input).unwrap()
    }

    #[test]
    fn terminal_measurements_emit_exact_distribution() {
        // Bell pair, both qubits measured: 00 and 11 at probability 1/2.
        let mut circuit = Circuit::new(2);
        circuit.gate(GateKind::H, &[], &[0]);
        circuit.gate(GateKind::X, &[0], &[1]);
        circuit.measure(0, 0);
        circuit.measure(1, 1);
        let text = emit(&circuit);
        assert!(text.starts_with("# exact measurement distribution"));
        assert!(text.contains("00 0.5000"));
        assert!(text.contains("11 0.5000"));
        assert!(!text.contains("01 "));
    }

    #[test]
    fn measurement_free_emits_amplitudes() {
        let mut circuit = Circuit::new(1);
        circuit.gate(GateKind::H, &[], &[0]);
        let text = emit(&circuit);
        assert!(text.starts_with("# final state amplitudes"));
        assert!(text.contains("|0> +0.7071"));
        assert!(text.contains("|1> +0.7071"));
    }

    #[test]
    fn missing_circuit_is_a_structured_error() {
        let module = Module::new();
        let input = EmitInput { module: &module, entry: "k", circuit: None };
        let err = SimBackend.emit(&input).unwrap_err();
        assert!(matches!(err, BackendError::NeedsCircuit { .. }), "{err}");
    }

    #[test]
    fn oversized_circuit_is_a_structured_error() {
        let module = Module::new();
        let circuit = Circuit::new(MAX_QUBITS + 1);
        let input = EmitInput { module: &module, entry: "k", circuit: Some(&circuit) };
        let err = SimBackend.emit(&input).unwrap_err();
        assert!(matches!(err, BackendError::Emit { .. }), "{err}");
        assert!(err.to_string().contains("27 qubits"), "{err}");
    }
}
