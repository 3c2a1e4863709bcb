//! Multi-controlled-gate decomposition for fault-tolerant gate sets
//! (§6.5): "multi-controlled gates are decomposed using Selinger's
//! controlled-iX scheme to reduce T gate counts on fault-tolerant
//! hardware".
//!
//! Two styles, used respectively by ASDF/Q# and by the Qiskit-style
//! baseline in the evaluation (§8.3 explains the Grover gap through this
//! choice):
//!
//! - [`DecomposeStyle::Selinger`]: V-chain whose compute/uncompute
//!   Toffolis are relative-phase (Margolus) gates costing 4 T each — the
//!   relative phases cancel between the compute and uncompute halves, so
//!   the overall unitary is exact. T count for a k-controlled X:
//!   `8(k-2) + 7`.
//! - [`DecomposeStyle::VChain`]: the textbook V-chain with full 7-T
//!   Toffolis throughout: `7(2(k-2) + 1)` T.
//!
//! Controlled Cliffords and rotations (`CH`, `CS`, `CP`, `CRy`, controlled
//! SWAP, ...) needed by conditional (de)standardization (Fig. 7) and
//! predication cleanup (Fig. 5) are decomposed here too.

use crate::circuit::{Circuit, CircuitOp};
use asdf_ir::GateKind;
use std::f64::consts::{FRAC_PI_2, FRAC_PI_4};

/// Which multi-control decomposition to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecomposeStyle {
    /// Relative-phase (controlled-iX / Margolus) compute-uncompute chains.
    Selinger,
    /// Full Toffolis everywhere (Qiskit-style baseline).
    VChain,
}

/// Rewrites every gate of `circuit` into the fault-tolerant set
/// {uncontrolled gates (SWAP included), CX, CZ}: a singly-controlled
/// phase becomes `P` rotations and CX, so no CP survives. Multi-controlled
/// gates allocate reusable ancilla registers appended after the original
/// registers.
pub fn decompose(circuit: &Circuit, style: DecomposeStyle) -> Circuit {
    let mut out =
        Decomposer { circuit: Circuit::new(circuit.num_qubits), free_ancillas: Vec::new(), style };
    for op in circuit.ops() {
        match op {
            CircuitOp::Gate { gate, controls, targets } => {
                out.controlled_gate(gate, controls, targets);
            }
            CircuitOp::Measure { qubit, bit } => out.circuit.measure(qubit, bit),
            CircuitOp::Reset { qubit } => out.circuit.reset(qubit),
        }
    }
    out.circuit
}

struct Decomposer {
    circuit: Circuit,
    free_ancillas: Vec<usize>,
    style: DecomposeStyle,
}

impl Decomposer {
    fn get_ancilla(&mut self) -> usize {
        self.free_ancillas.pop().unwrap_or_else(|| self.circuit.add_qubit())
    }

    fn put_ancilla(&mut self, q: usize) {
        self.free_ancillas.push(q);
    }

    fn g(&mut self, gate: GateKind, controls: &[usize], targets: &[usize]) {
        self.circuit.gate(gate, controls, targets);
    }

    /// Entry: any gate with any number of controls.
    fn controlled_gate(&mut self, gate: GateKind, controls: &[usize], targets: &[usize]) {
        match (gate, controls.len()) {
            // Native gates pass through.
            (_, 0) => self.g(gate, &[], targets),
            (GateKind::X, 1) | (GateKind::Z, 1) => self.g(gate, controls, targets),
            (GateKind::X, _) => self.mcx(controls, targets[0]),
            (GateKind::Z, _) => {
                // MCZ = H-conjugated MCX on the last qubit.
                self.g(GateKind::H, &[], &[targets[0]]);
                self.mcx(controls, targets[0]);
                self.g(GateKind::H, &[], &[targets[0]]);
            }
            (GateKind::Y, _) => {
                // Y = S X Sdg, so CY = Sdg_t; MCX; S_t.
                self.g(GateKind::Sdg, &[], &[targets[0]]);
                self.controlled_gate(GateKind::X, controls, targets);
                self.g(GateKind::S, &[], &[targets[0]]);
            }
            (GateKind::S, _) => self.controlled_gate(GateKind::P(FRAC_PI_2), controls, targets),
            (GateKind::Sdg, _) => self.controlled_gate(GateKind::P(-FRAC_PI_2), controls, targets),
            (GateKind::T, _) => self.controlled_gate(GateKind::P(FRAC_PI_4), controls, targets),
            (GateKind::Tdg, _) => self.controlled_gate(GateKind::P(-FRAC_PI_4), controls, targets),
            (GateKind::P(theta), 1) => self.cp(theta, controls[0], targets[0]),
            (GateKind::P(theta), _) => {
                // Multi-controlled phase: AND the controls into an ancilla,
                // then a singly-controlled phase, then uncompute.
                self.with_and_ancilla(controls, |d, anc| {
                    d.cp(theta, anc, targets[0]);
                });
            }
            (GateKind::H, _) => {
                // H = Ry(pi/4) Z Ry(-pi/4) exactly, so
                // CH = Ry(pi/4)_t ; CZ ; Ry(-pi/4)_t.
                let t = targets[0];
                self.reduce_to_single_control(controls, |d, c| {
                    d.g(GateKind::Ry(-FRAC_PI_4), &[], &[t]);
                    d.g(GateKind::Z, &[c], &[t]);
                    d.g(GateKind::Ry(FRAC_PI_4), &[], &[t]);
                });
            }
            (GateKind::Sx, _) => {
                // Sx = H P(pi/2) H exactly.
                let t = targets[0];
                self.g(GateKind::H, &[], &[t]);
                self.controlled_gate(GateKind::P(FRAC_PI_2), controls, &[t]);
                self.g(GateKind::H, &[], &[t]);
            }
            (GateKind::Sxdg, _) => {
                let t = targets[0];
                self.g(GateKind::H, &[], &[t]);
                self.controlled_gate(GateKind::P(-FRAC_PI_2), controls, &[t]);
                self.g(GateKind::H, &[], &[t]);
            }
            (GateKind::Rz(theta), _) => {
                let t = targets[0];
                self.reduce_to_single_control(controls, |d, c| {
                    d.g(GateKind::Rz(theta / 2.0), &[], &[t]);
                    d.g(GateKind::X, &[c], &[t]);
                    d.g(GateKind::Rz(-theta / 2.0), &[], &[t]);
                    d.g(GateKind::X, &[c], &[t]);
                });
            }
            (GateKind::Ry(theta), _) => {
                let t = targets[0];
                self.reduce_to_single_control(controls, |d, c| {
                    d.g(GateKind::Ry(theta / 2.0), &[], &[t]);
                    d.g(GateKind::X, &[c], &[t]);
                    d.g(GateKind::Ry(-theta / 2.0), &[], &[t]);
                    d.g(GateKind::X, &[c], &[t]);
                });
            }
            (GateKind::Rx(theta), _) => {
                // Rx = H Rz H.
                let t = targets[0];
                self.g(GateKind::H, &[], &[t]);
                self.controlled_gate(GateKind::Rz(theta), controls, &[t]);
                self.g(GateKind::H, &[], &[t]);
            }
            (GateKind::Swap, _) => {
                // Fredkin: CSWAP(c; a, b) = CX(b,a); CCX(c, a -> b); CX(b,a).
                let (a, b) = (targets[0], targets[1]);
                self.g(GateKind::X, &[b], &[a]);
                let mut with_a = controls.to_vec();
                with_a.push(a);
                self.controlled_gate(GateKind::X, &with_a, &[b]);
                self.g(GateKind::X, &[b], &[a]);
            }
        }
    }

    /// Reduces a multi-control to a single control via an AND ancilla, then
    /// runs `body` with that control.
    fn reduce_to_single_control(
        &mut self,
        controls: &[usize],
        body: impl FnOnce(&mut Self, usize),
    ) {
        if controls.len() == 1 {
            body(self, controls[0]);
        } else {
            self.with_and_ancilla(controls, body);
        }
    }

    /// Computes the AND of `controls` into a fresh ancilla, runs `body`
    /// with the ancilla, then uncomputes and releases it.
    fn with_and_ancilla(&mut self, controls: &[usize], body: impl FnOnce(&mut Self, usize)) {
        let anc = self.get_ancilla();
        self.mcx(controls, anc);
        body(self, anc);
        self.mcx(controls, anc);
        self.put_ancilla(anc);
    }

    /// CP(theta) with one control: P(theta/2) on both, CX-conjugated
    /// P(-theta/2).
    fn cp(&mut self, theta: f64, c: usize, t: usize) {
        self.g(GateKind::P(theta / 2.0), &[], &[c]);
        self.g(GateKind::P(theta / 2.0), &[], &[t]);
        self.g(GateKind::X, &[c], &[t]);
        self.g(GateKind::P(-theta / 2.0), &[], &[t]);
        self.g(GateKind::X, &[c], &[t]);
    }

    /// Multi-controlled X.
    fn mcx(&mut self, controls: &[usize], target: usize) {
        match controls.len() {
            0 => self.g(GateKind::X, &[], &[target]),
            1 => self.g(GateKind::X, controls, &[target]),
            2 => self.ccx(controls[0], controls[1], target),
            _ => self.mcx_chain(controls, target),
        }
    }

    /// The V-chain: fold control pairs into ancillas, apply the final
    /// Toffoli, then uncompute. Compute/uncompute Toffolis are
    /// relative-phase under [`DecomposeStyle::Selinger`].
    fn mcx_chain(&mut self, controls: &[usize], target: usize) {
        let k = controls.len();
        let mut ancillas = Vec::with_capacity(k - 2);
        // Compute chain: a1 = c1 AND c2; a_i = a_{i-1} AND c_{i+1}.
        let mut carry = controls[0];
        for &c in &controls[1..k - 1] {
            let anc = self.get_ancilla();
            match self.style {
                DecomposeStyle::Selinger => self.rccx(carry, c, anc),
                DecomposeStyle::VChain => self.ccx(carry, c, anc),
            }
            ancillas.push(anc);
            carry = anc;
        }
        // The true Toffoli in the middle.
        self.ccx(carry, controls[k - 1], target);
        // Uncompute in reverse.
        let mut carries: Vec<usize> = Vec::with_capacity(k - 2);
        carries.push(controls[0]);
        carries.extend(ancillas.iter().take(k.saturating_sub(3)).copied());
        for i in (0..ancillas.len()).rev() {
            let carry_in = carries[i];
            let c = controls[i + 1];
            let anc = ancillas[i];
            match self.style {
                DecomposeStyle::Selinger => self.rccx_dagger(carry_in, c, anc),
                DecomposeStyle::VChain => self.ccx(carry_in, c, anc),
            }
            self.put_ancilla(anc);
        }
    }

    /// The exact 7-T Toffoli (Nielsen & Chuang Fig. 4.9).
    fn ccx(&mut self, c1: usize, c2: usize, t: usize) {
        self.g(GateKind::H, &[], &[t]);
        self.g(GateKind::X, &[c2], &[t]);
        self.g(GateKind::Tdg, &[], &[t]);
        self.g(GateKind::X, &[c1], &[t]);
        self.g(GateKind::T, &[], &[t]);
        self.g(GateKind::X, &[c2], &[t]);
        self.g(GateKind::Tdg, &[], &[t]);
        self.g(GateKind::X, &[c1], &[t]);
        self.g(GateKind::T, &[], &[c2]);
        self.g(GateKind::T, &[], &[t]);
        self.g(GateKind::H, &[], &[t]);
        self.g(GateKind::X, &[c1], &[c2]);
        self.g(GateKind::T, &[], &[c1]);
        self.g(GateKind::Tdg, &[], &[c2]);
        self.g(GateKind::X, &[c1], &[c2]);
    }

    /// The relative-phase (Margolus) Toffoli: 4 T gates. Exact X-on-target
    /// action, with a phase of -1 on the |101> branch that cancels against
    /// [`Self::rccx_dagger`].
    fn rccx(&mut self, c1: usize, c2: usize, t: usize) {
        self.g(GateKind::H, &[], &[t]);
        self.g(GateKind::T, &[], &[t]);
        self.g(GateKind::X, &[c2], &[t]);
        self.g(GateKind::Tdg, &[], &[t]);
        self.g(GateKind::X, &[c1], &[t]);
        self.g(GateKind::T, &[], &[t]);
        self.g(GateKind::X, &[c2], &[t]);
        self.g(GateKind::Tdg, &[], &[t]);
        self.g(GateKind::H, &[], &[t]);
    }

    /// Inverse of [`Self::rccx`].
    fn rccx_dagger(&mut self, c1: usize, c2: usize, t: usize) {
        self.g(GateKind::H, &[], &[t]);
        self.g(GateKind::T, &[], &[t]);
        self.g(GateKind::X, &[c2], &[t]);
        self.g(GateKind::Tdg, &[], &[t]);
        self.g(GateKind::X, &[c1], &[t]);
        self.g(GateKind::T, &[], &[t]);
        self.g(GateKind::X, &[c2], &[t]);
        self.g(GateKind::Tdg, &[], &[t]);
        self.g(GateKind::H, &[], &[t]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mcx_circuit(k: usize) -> Circuit {
        let mut c = Circuit::new(k + 1);
        let controls: Vec<usize> = (0..k).collect();
        c.gate(GateKind::X, &controls, &[k]);
        c
    }

    #[test]
    fn ccx_has_7_t() {
        let out = decompose(&mcx_circuit(2), DecomposeStyle::Selinger);
        assert_eq!(out.t_count(), 7);
        assert_eq!(out.num_qubits, 3, "no ancilla for a plain Toffoli");
    }

    #[test]
    fn selinger_t_counts_follow_8k_minus_9() {
        for k in 3..=8 {
            let out = decompose(&mcx_circuit(k), DecomposeStyle::Selinger);
            assert_eq!(out.t_count(), 8 * k - 9, "k = {k}");
            assert_eq!(out.num_qubits, (k + 1) + (k - 2), "ancilla count for k = {k}");
        }
    }

    #[test]
    fn vchain_t_counts_follow_14k_minus_21() {
        for k in 3..=8 {
            let out = decompose(&mcx_circuit(k), DecomposeStyle::VChain);
            assert_eq!(out.t_count(), 14 * k - 21, "k = {k}");
        }
    }

    #[test]
    fn selinger_beats_vchain() {
        for k in 3..=10 {
            let s = decompose(&mcx_circuit(k), DecomposeStyle::Selinger).t_count();
            let v = decompose(&mcx_circuit(k), DecomposeStyle::VChain).t_count();
            assert!(s < v, "k = {k}: {s} vs {v}");
        }
    }

    #[test]
    fn ancillas_are_reused_across_gates() {
        let mut c = Circuit::new(5);
        c.gate(GateKind::X, &[0, 1, 2, 3], &[4]);
        c.gate(GateKind::X, &[0, 1, 2, 3], &[4]);
        let out = decompose(&c, DecomposeStyle::Selinger);
        assert_eq!(out.num_qubits, 5 + 2, "second MCX reuses the pool");
    }

    #[test]
    fn mcz_and_mcp_decompose() {
        let mut c = Circuit::new(3);
        c.gate(GateKind::Z, &[0, 1], &[2]);
        c.gate(GateKind::P(0.4), &[0, 1], &[2]);
        let out = decompose(&c, DecomposeStyle::Selinger);
        // Everything is now <= 1 control.
        for op in out.ops() {
            if let CircuitOp::Gate { controls, .. } = op {
                assert!(controls.len() <= 1);
            }
        }
        assert_eq!(out.rotation_count(), 3, "CP leaves three P(theta/2) rotations");
    }

    #[test]
    fn cswap_uses_fredkin() {
        let mut c = Circuit::new(3);
        c.gate(GateKind::Swap, &[0], &[1, 2]);
        let out = decompose(&c, DecomposeStyle::Selinger);
        assert!(out.ops().len() > 3);
        for op in out.ops() {
            if let CircuitOp::Gate { gate, controls, .. } = op {
                assert!(controls.len() <= 1, "no multi-controls remain: {gate}");
            }
        }
    }

    #[test]
    fn ch_decomposes_via_ry_conjugation() {
        let mut c = Circuit::new(2);
        c.gate(GateKind::H, &[0], &[1]);
        let out = decompose(&c, DecomposeStyle::Selinger);
        assert!(out.ops().any(|op| matches!(op, CircuitOp::Gate { gate: GateKind::Ry(_), .. })));
        assert!(out
            .ops()
            .any(|op| matches!(op, CircuitOp::Gate { gate: GateKind::Z, controls, .. } if controls.len() == 1)));
    }
}
