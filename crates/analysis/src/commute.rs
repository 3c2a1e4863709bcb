//! Commutation facts between gate applications.
//!
//! In dataflow IR, two gates are wire-adjacent when one consumes the
//! other's results; whether they can be reordered (or cancelled) is a
//! purely local question over the shared wires. The facts here back the
//! pedantic W0005 lint (adjacent cancelling pairs the peephole would
//! remove) and are conservative: [`Commutation::Unknown`] is always a
//! legal answer.

use asdf_ir::{Op, OpKind};

/// Whether two wire-adjacent ops may be reordered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Commutation {
    /// The ops touch disjoint wires, so order is irrelevant.
    Disjoint,
    /// The ops provably commute on their shared wires.
    Commutes,
    /// No commutation fact is known (the conservative default).
    Unknown,
}

/// Pairs `(i, j)` where operand `j` of `second` consumes result `i` of
/// `first` — the shared wires.
pub fn shared_wires(first: &Op, second: &Op) -> Vec<(usize, usize)> {
    let mut shared = Vec::new();
    for (i, r) in first.results.iter().enumerate() {
        if let Some(j) = second.operands.iter().position(|o| o == r) {
            shared.push((i, j));
        }
    }
    shared
}

/// The commutation fact for two gate ops where `second` may consume
/// results of `first`.
pub fn commutation(first: &Op, second: &Op) -> Commutation {
    let (OpKind::Gate { gate: g1, .. }, OpKind::Gate { gate: g2, .. }) =
        (&first.kind, &second.kind)
    else {
        return Commutation::Unknown;
    };
    if shared_wires(first, second).is_empty() {
        return Commutation::Disjoint;
    }
    // Diagonal gates commute with each other on any shared wire, and a
    // gate always commutes with an identical application of itself.
    if g1.is_diagonal() && g2.is_diagonal() {
        return Commutation::Commutes;
    }
    if g1 == g2 && first.operands.len() == second.operands.len() {
        return Commutation::Commutes;
    }
    Commutation::Unknown
}

/// Whether `second` undoes `first`: same control structure, `second`
/// consumes all of `first`'s results in order, and the gates compose to
/// the identity.
pub fn is_cancelling_pair(first: &Op, second: &Op) -> bool {
    let (OpKind::Gate { gate: g1, num_controls: c1 }, OpKind::Gate { gate: g2, num_controls: c2 }) =
        (&first.kind, &second.kind)
    else {
        return false;
    };
    c1 == c2 && g1.cancels_with(*g2) && first.results == second.operands
}

#[cfg(test)]
mod tests {
    use super::*;
    use asdf_ir::{GateKind, Op, Value, ValueList};

    fn gate(g: GateKind, ins: &[u32], outs: &[u32]) -> Op {
        let values = |ids: &[u32]| -> ValueList {
            ids.iter().map(|&i| Value::from_index(i as usize)).collect()
        };
        Op::new(OpKind::Gate { gate: g, num_controls: 0 }, values(ins), values(outs))
    }

    #[test]
    fn disjoint_wires_commute() {
        let a = gate(GateKind::X, &[0], &[1]);
        let b = gate(GateKind::H, &[2], &[3]);
        assert_eq!(commutation(&a, &b), Commutation::Disjoint);
    }

    #[test]
    fn diagonal_gates_commute_on_a_shared_wire() {
        let a = gate(GateKind::T, &[0], &[1]);
        let b = gate(GateKind::S, &[1], &[2]);
        assert_eq!(commutation(&a, &b), Commutation::Commutes);
        let h = gate(GateKind::H, &[1], &[2]);
        assert_eq!(commutation(&a, &h), Commutation::Unknown);
    }

    #[test]
    fn cancelling_pairs() {
        let a = gate(GateKind::H, &[0], &[1]);
        let b = gate(GateKind::H, &[1], &[2]);
        assert!(is_cancelling_pair(&a, &b));
        let s = gate(GateKind::S, &[0], &[1]);
        let sdg = gate(GateKind::Sdg, &[1], &[2]);
        assert!(is_cancelling_pair(&s, &sdg));
        let s2 = gate(GateKind::S, &[1], &[2]);
        assert!(!is_cancelling_pair(&s, &s2), "S;S is not the identity");
    }
}
