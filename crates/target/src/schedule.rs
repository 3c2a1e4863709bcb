//! ASAP scheduling of routed circuits.
//!
//! Once a circuit is expressed in the native gate set on coupled pairs,
//! its execution time on hardware is set by data dependencies: each op
//! starts as soon as every qubit it touches is free. This module computes
//! that as-soon-as-possible schedule's cost-weighted makespan using
//! [`GateCosts`]. (Its unit-latency depth is [`Circuit::depth`].)

use crate::gateset::GateCosts;
use asdf_qcircuit::Circuit;

/// The finish time of the last op of `circuit` under [`GateCosts`]
/// weighting, when every op starts as soon as its qubits are available.
pub(crate) fn asap(circuit: &Circuit, costs: &GateCosts) -> u64 {
    let mut busy_until = vec![0u64; circuit.num_qubits];
    let mut makespan = 0u64;
    for op in circuit.ops() {
        let start = op.qubits().map(|q| busy_until[q]).max().unwrap_or(0);
        let end = start + costs.of(&op);
        for q in op.qubits() {
            busy_until[q] = end;
        }
        makespan = makespan.max(end);
    }
    makespan
}

#[cfg(test)]
mod tests {
    use super::*;
    use asdf_ir::GateKind;

    #[test]
    fn empty_circuit_schedules_to_zero() {
        let c = Circuit::new(3);
        assert_eq!(asap(&c, &GateCosts::default()), 0);
    }

    #[test]
    fn disjoint_gates_overlap() {
        let mut c = Circuit::new(4);
        c.gate(GateKind::X, &[0], &[1]);
        c.gate(GateKind::X, &[2], &[3]);
        assert_eq!(asap(&c, &GateCosts::default()), 3, "two parallel CX gates take one CX time");
    }

    #[test]
    fn dependent_ops_serialize_by_cost() {
        let costs = GateCosts::default();
        let mut c = Circuit::new(2);
        c.gate(GateKind::H, &[], &[0]); // 1
        c.gate(GateKind::X, &[0], &[1]); // +3
        c.measure(1, 0); // +10
        assert_eq!(asap(&c, &costs), 14);
    }
}
