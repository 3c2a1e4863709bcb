//! The native gate set and per-gate costs of a hardware target.
//!
//! Every built-in target speaks the common superconducting-style set:
//! arbitrary single-qubit gates plus CX between coupled physical qubits.
//! [`NativeGateSet::admits`] is the membership test the router's output
//! must satisfy and [`Target::validate`](crate::Target::validate) enforces.

use asdf_ir::GateKind;
use asdf_qcircuit::CircuitOp;

/// The gates a target executes directly: any uncontrolled single-qubit
/// gate, and CX (singly-controlled X). Connectivity is *not* checked
/// here — that is the coupling graph's job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct NativeGateSet;

impl NativeGateSet {
    /// Whether `op` is native, ignoring connectivity. Measurements and
    /// resets are always admitted.
    pub(crate) fn admits(&self, op: &CircuitOp<'_>) -> bool {
        match op {
            CircuitOp::Gate { gate, controls, targets } => match (gate, controls.len()) {
                (GateKind::Swap, _) => false,
                (_, 0) => targets.len() == 1,
                (GateKind::X, 1) => true,
                _ => false,
            },
            CircuitOp::Measure { .. } | CircuitOp::Reset { .. } => true,
        }
    }

    /// Human-readable description for diagnostics.
    pub(crate) fn describe(&self) -> &'static str {
        "{any 1q gate, CX on coupled pairs}"
    }
}

/// Execution cost of each native operation class, in abstract time units.
/// The ASAP scheduler weighs ops by these to compute a makespan alongside
/// the unit-latency depth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct GateCosts {
    /// Any uncontrolled single-qubit gate.
    pub one_qubit: u64,
    /// CX between coupled qubits.
    pub two_qubit: u64,
    /// Standard-basis measurement.
    pub measure: u64,
    /// Reset to |0>.
    pub reset: u64,
}

impl Default for GateCosts {
    /// Rough superconducting-hardware ratios: 2q gates ~3x slower than 1q,
    /// readout an order of magnitude slower still.
    fn default() -> Self {
        GateCosts { one_qubit: 1, two_qubit: 3, measure: 10, reset: 10 }
    }
}

impl GateCosts {
    /// Cost of one op.
    pub(crate) fn of(&self, op: &CircuitOp<'_>) -> u64 {
        match op {
            CircuitOp::Gate { controls, .. } => {
                if controls.is_empty() {
                    self.one_qubit
                } else {
                    self.two_qubit
                }
            }
            CircuitOp::Measure { .. } => self.measure,
            CircuitOp::Reset { .. } => self.reset,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate<'a>(gate: GateKind, controls: &'a [usize], targets: &'a [usize]) -> CircuitOp<'a> {
        CircuitOp::Gate { gate, controls, targets }
    }

    #[test]
    fn native_set_is_one_qubit_plus_cx() {
        let set = NativeGateSet;
        assert!(set.admits(&gate(GateKind::H, &[], &[0])));
        assert!(set.admits(&gate(GateKind::P(0.3), &[], &[2])));
        assert!(set.admits(&gate(GateKind::X, &[0], &[1])), "CX is native");
        assert!(!set.admits(&gate(GateKind::Z, &[0], &[1])), "CZ is not");
        assert!(!set.admits(&gate(GateKind::Swap, &[], &[0, 1])), "SWAP is not");
        assert!(!set.admits(&gate(GateKind::X, &[0, 1], &[2])), "Toffoli is not");
        assert!(set.admits(&CircuitOp::Measure { qubit: 0, bit: 0 }));
        assert!(set.admits(&CircuitOp::Reset { qubit: 0 }));
    }

    #[test]
    fn costs_classify_ops() {
        let costs = GateCosts::default();
        assert_eq!(costs.of(&gate(GateKind::H, &[], &[0])), costs.one_qubit);
        assert_eq!(costs.of(&gate(GateKind::X, &[0], &[1])), costs.two_qubit);
        assert_eq!(costs.of(&CircuitOp::Measure { qubit: 0, bit: 0 }), costs.measure);
        assert_eq!(costs.of(&CircuitOp::Reset { qubit: 0 }), costs.reset);
    }
}
