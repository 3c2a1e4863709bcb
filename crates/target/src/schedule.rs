//! ASAP scheduling of routed circuits.
//!
//! Once a circuit is expressed in the native gate set on coupled pairs,
//! its execution time on hardware is set by data dependencies: each op
//! starts as soon as every qubit it touches is free. This module computes
//! that as-soon-as-possible schedule, reporting both the unit-latency
//! depth (`layers`, comparable to [`Circuit::depth`]) and a
//! cost-weighted `makespan` using [`GateCosts`].

use crate::gateset::GateCosts;
use asdf_qcircuit::Circuit;

/// The result of ASAP-scheduling a circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Schedule {
    /// Finish time of the last op under [`GateCosts`] weighting.
    pub makespan: u64,
    /// Unit-latency depth: the number of dependency layers.
    pub layers: usize,
}

/// Schedules every op of `circuit` as soon as its qubits are available.
pub(crate) fn asap(circuit: &Circuit, costs: &GateCosts) -> Schedule {
    let mut busy_until = vec![0u64; circuit.num_qubits];
    let mut layer_of = vec![0usize; circuit.num_qubits];
    let mut makespan = 0u64;
    let mut layers = 0usize;
    for op in circuit.ops() {
        let start = op.qubits().map(|q| busy_until[q]).max().unwrap_or(0);
        let end = start + costs.of(&op);
        let layer = op.qubits().map(|q| layer_of[q]).max().unwrap_or(0) + 1;
        for q in op.qubits() {
            busy_until[q] = end;
            layer_of[q] = layer;
        }
        makespan = makespan.max(end);
        layers = layers.max(layer);
    }
    Schedule { makespan, layers }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asdf_ir::GateKind;

    #[test]
    fn empty_circuit_schedules_to_zero() {
        let c = Circuit::new(3);
        assert_eq!(asap(&c, &GateCosts::default()), Schedule { makespan: 0, layers: 0 });
    }

    #[test]
    fn disjoint_gates_overlap() {
        let mut c = Circuit::new(4);
        c.gate(GateKind::X, &[0], &[1]);
        c.gate(GateKind::X, &[2], &[3]);
        let s = asap(&c, &GateCosts::default());
        assert_eq!(s.layers, 1);
        assert_eq!(s.makespan, 3, "two parallel CX gates take one CX time");
    }

    #[test]
    fn dependent_ops_serialize_by_cost() {
        let costs = GateCosts::default();
        let mut c = Circuit::new(2);
        c.gate(GateKind::H, &[], &[0]); // 1
        c.gate(GateKind::X, &[0], &[1]); // +3
        c.measure(1, 0); // +10
        let s = asap(&c, &costs);
        assert_eq!(s.layers, 3);
        assert_eq!(s.makespan, 14);
    }

    #[test]
    fn layers_match_circuit_depth() {
        let mut c = Circuit::new(4);
        c.gate(GateKind::X, &[0], &[1]);
        c.gate(GateKind::X, &[2], &[3]);
        c.gate(GateKind::X, &[1], &[2]);
        c.gate(GateKind::H, &[], &[0]);
        assert_eq!(asap(&c, &GateCosts::default()).layers, c.depth());
    }
}
