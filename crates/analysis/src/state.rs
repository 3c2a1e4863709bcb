//! Ancilla-hygiene state analysis.
//!
//! Tracks each qubit's computational-basis state through the circuit as an
//! abstract value: provably |0⟩, provably |1⟩, or unknown (any
//! superposition or unresolved merge). The W0003 lint uses it to flag
//! |0⟩-asserted releases (`qcirc.qfreez`, `qwerty.qbdiscardz`) whose
//! operand is *provably* |1⟩ — the one case the analysis can prove wrong.
//! Because the abstraction only ever reports definite states, a correct
//! program (whose asserted wires really are |0⟩) can never be flagged.

use crate::framework::{Analysis, Fact, FactMap};
use asdf_basis::{Eigenstate, PrimitiveBasis};
use asdf_ir::{Func, GateKind, Op, OpKind};

/// Abstract computational-basis state of a single qubit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QState {
    /// Provably |0⟩.
    Zero,
    /// Provably |1⟩ (up to global phase).
    One,
    /// Superposition, entangled, or merged from disagreeing branches.
    Unknown,
}

impl QState {
    fn join(self, other: QState) -> QState {
        if self == other {
            self
        } else {
            QState::Unknown
        }
    }

    /// The state after applying `gate` (no controls, single target).
    fn after(self, gate: GateKind) -> QState {
        match gate {
            // Bit flips (Y differs from X only by phase).
            GateKind::X | GateKind::Y => match self {
                QState::Zero => QState::One,
                QState::One => QState::Zero,
                QState::Unknown => QState::Unknown,
            },
            // Diagonal gates preserve computational-basis states.
            GateKind::Z
            | GateKind::S
            | GateKind::Sdg
            | GateKind::T
            | GateKind::Tdg
            | GateKind::P(_)
            | GateKind::Rz(_) => self,
            // Basis-mixing gates leave the computational basis.
            GateKind::H
            | GateKind::Sx
            | GateKind::Sxdg
            | GateKind::Rx(_)
            | GateKind::Ry(_)
            | GateKind::Swap => QState::Unknown,
        }
    }
}

/// Per-value state fact: one [`QState`] per qubit the value carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StateFact {
    /// No information (classical values stay here).
    Bottom,
    /// One abstract state per qubit, in order.
    Qubits(Vec<QState>),
}

impl StateFact {
    fn states(&self, count: usize) -> Vec<QState> {
        match self {
            StateFact::Qubits(q) if q.len() == count => q.clone(),
            _ => vec![QState::Unknown; count],
        }
    }
}

impl Fact for StateFact {
    fn bottom() -> Self {
        StateFact::Bottom
    }

    fn join(&mut self, other: &Self) -> bool {
        match (&mut *self, other) {
            (_, StateFact::Bottom) => false,
            (StateFact::Bottom, _) => {
                *self = other.clone();
                true
            }
            (StateFact::Qubits(a), StateFact::Qubits(b)) => {
                if a.len() != b.len() {
                    let widened = vec![QState::Unknown; a.len().max(b.len())];
                    let changed = *a != widened;
                    *a = widened;
                    return changed;
                }
                let mut changed = false;
                for (x, &y) in a.iter_mut().zip(b) {
                    let joined = x.join(y);
                    changed |= joined != *x;
                    *x = joined;
                }
                changed
            }
        }
    }
}

/// Forward abstract interpretation of computational-basis qubit states.
#[derive(Debug, Default)]
pub struct StateAnalysis;

impl Analysis for StateAnalysis {
    type Fact = StateFact;

    // Function arguments carry caller state: unknown.
    fn arg_fact(&mut self, func: &Func, arg: asdf_ir::Value) -> StateFact {
        let count = func.value_type(arg).qubit_count();
        if count == 0 {
            StateFact::Bottom
        } else {
            StateFact::Qubits(vec![QState::Unknown; count])
        }
    }

    fn transfer(&mut self, func: &Func, op: &Op, facts: &mut FactMap<StateFact>) {
        match &op.kind {
            OpKind::QAlloc => facts.set(op.results[0], StateFact::Qubits(vec![QState::Zero])),
            OpKind::QbPrep { prim, eigenstate, dim } => {
                // In the std basis the PLUS eigenstate is |0⟩ and MINUS is
                // |1⟩; every other primitive basis prepares a superposition.
                let state = match (prim, eigenstate) {
                    (PrimitiveBasis::Std, Eigenstate::Plus) => QState::Zero,
                    (PrimitiveBasis::Std, Eigenstate::Minus) => QState::One,
                    _ => QState::Unknown,
                };
                facts.set(op.results[0], StateFact::Qubits(vec![state; *dim]));
            }
            OpKind::QbPack | OpKind::ArrPack => {
                let mut states = Vec::new();
                for &v in &op.operands {
                    states.extend(facts.get(v).states(func.value_type(v).qubit_count()));
                }
                facts.set(op.results[0], StateFact::Qubits(states));
            }
            OpKind::QbUnpack | OpKind::ArrUnpack => {
                let operand = op.operands[0];
                let states = facts.get(operand).states(func.value_type(operand).qubit_count());
                let mut offset = 0usize;
                for &r in &op.results {
                    let count = func.value_type(r).qubit_count();
                    let slice = states[offset..(offset + count).min(states.len())].to_vec();
                    offset += count;
                    facts.set(r, StateFact::Qubits(slice));
                }
            }
            OpKind::Gate { gate, num_controls } => {
                let mut states: Vec<QState> =
                    op.operands.iter().map(|&v| facts.get(v).states(1)[0]).collect();
                let (controls, targets) = states.split_at_mut(*num_controls);
                // A definite-|0⟩ control forces the identity; all-|1⟩
                // controls fire the gate; otherwise the targets may or may
                // not be transformed. Controls themselves are diagonal
                // wires: a definite computational state passes through.
                if controls.contains(&QState::Zero) {
                    // Targets unchanged.
                } else if controls.iter().all(|&c| c == QState::One) {
                    if *gate == GateKind::Swap {
                        targets.swap(0, 1);
                    } else {
                        for t in targets.iter_mut() {
                            *t = t.after(*gate);
                        }
                    }
                } else {
                    for t in targets.iter_mut() {
                        *t = QState::Unknown;
                    }
                }
                for (&r, &s) in op.results.iter().zip(states.iter()) {
                    facts.set(r, StateFact::Qubits(vec![s]));
                }
            }
            // Measuring a definite computational state preserves it.
            OpKind::Measure => {
                let state = facts.get(op.operands[0]).states(1);
                facts.set(op.results[0], StateFact::Qubits(state));
            }
            OpKind::ScfIf | OpKind::Yield | OpKind::Return => {}
            // Translations, calls, and anything else produce unknown state.
            _ => {
                for &r in &op.results {
                    let count = func.value_type(r).qubit_count();
                    if count > 0 {
                        facts.set(r, StateFact::Qubits(vec![QState::Unknown; count]));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::analyze;
    use asdf_ir::{FuncBuilder, FuncType, Type, Visibility};

    fn circuit_fn(name: &str) -> FuncBuilder {
        FuncBuilder::new(name, FuncType::new(vec![], vec![], false), Visibility::Private)
    }

    #[test]
    fn x_flips_a_fresh_ancilla() {
        let mut b = circuit_fn("flip");
        let mut bb = b.block();
        let a = bb.push(OpKind::QAlloc, vec![], vec![Type::Qubit]);
        let x = bb.push(
            OpKind::Gate { gate: GateKind::X, num_controls: 0 },
            vec![a[0]],
            vec![Type::Qubit],
        );
        let x2 = bb.push(
            OpKind::Gate { gate: GateKind::X, num_controls: 0 },
            vec![x[0]],
            vec![Type::Qubit],
        );
        bb.push(OpKind::QFreeZ, vec![x2[0]], vec![]);
        bb.push(OpKind::Return, vec![], vec![]);
        let func = b.finish();
        let facts = analyze(&func, &mut StateAnalysis);
        assert_eq!(*facts.get(a[0]), StateFact::Qubits(vec![QState::Zero]));
        assert_eq!(*facts.get(x[0]), StateFact::Qubits(vec![QState::One]));
        assert_eq!(*facts.get(x2[0]), StateFact::Qubits(vec![QState::Zero]));
    }

    #[test]
    fn zero_control_blocks_the_gate() {
        let mut b = circuit_fn("cx");
        let mut bb = b.block();
        let c = bb.push(OpKind::QAlloc, vec![], vec![Type::Qubit]);
        let t = bb.push(OpKind::QAlloc, vec![], vec![Type::Qubit]);
        // CX with a |0⟩ control: the target stays |0⟩.
        let g = bb.push(
            OpKind::Gate { gate: GateKind::X, num_controls: 1 },
            vec![c[0], t[0]],
            vec![Type::Qubit, Type::Qubit],
        );
        bb.push(OpKind::QFreeZ, vec![g[0]], vec![]);
        bb.push(OpKind::QFreeZ, vec![g[1]], vec![]);
        bb.push(OpKind::Return, vec![], vec![]);
        let func = b.finish();
        let facts = analyze(&func, &mut StateAnalysis);
        assert_eq!(*facts.get(g[0]), StateFact::Qubits(vec![QState::Zero]), "control");
        assert_eq!(*facts.get(g[1]), StateFact::Qubits(vec![QState::Zero]), "blocked target");
    }

    #[test]
    fn hadamard_loses_the_state() {
        let mut b = circuit_fn("h");
        let mut bb = b.block();
        let a = bb.push(OpKind::QAlloc, vec![], vec![Type::Qubit]);
        let h = bb.push(
            OpKind::Gate { gate: GateKind::H, num_controls: 0 },
            vec![a[0]],
            vec![Type::Qubit],
        );
        bb.push(OpKind::QFree, vec![h[0]], vec![]);
        bb.push(OpKind::Return, vec![], vec![]);
        let func = b.finish();
        let facts = analyze(&func, &mut StateAnalysis);
        assert_eq!(*facts.get(h[0]), StateFact::Qubits(vec![QState::Unknown]));
    }
}
