//! The shared post-optimizer: a stand-in for the Qiskit `-O3` transpiler
//! the paper applies to *every* compiler's output before resource
//! estimation (§8.3), so differences reflect synthesis quality rather than
//! surface syntax.
//!
//! Passes (to fixpoint): adjacent inverse-gate cancellation, diagonal
//! phase-gate merging (with renormalization to named Clifford/T gates),
//! and `H·X·H`/`H·Z·H` conjugation rewriting.

use asdf_ir::GateKind;
use asdf_qcircuit::{Circuit, CircuitOp};

/// The fixpoint bound: every pass strictly shrinks the circuit or changes
/// nothing, so convergence arrives long before this many iterations on any
/// real input. Hitting the bound means a pass pair is oscillating — a bug.
pub(crate) const MAX_OPTIMIZE_PASSES: usize = 64;

/// What [`optimize_report`] observed on the way to its result.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct OptimizeReport {
    /// The optimized circuit.
    pub circuit: Circuit,
    /// Rewrite passes run (including the final no-change pass).
    pub passes: usize,
    /// Whether a fixpoint was reached within [`MAX_OPTIMIZE_PASSES`];
    /// `false` means the pass set oscillated and the result is whatever
    /// the last pass produced.
    pub converged: bool,
}

/// Optimizes a circuit to fixpoint with the shared pass set.
pub fn optimize(circuit: &Circuit) -> Circuit {
    let report = optimize_report(circuit);
    debug_assert!(
        report.converged,
        "transpiler failed to converge within {MAX_OPTIMIZE_PASSES} passes \
         ({} ops remain) — a pass pair is oscillating",
        report.circuit.ops().len()
    );
    report.circuit
}

/// Like [`optimize`], but reports the pass count and whether the
/// [`MAX_OPTIMIZE_PASSES`] fixpoint bound was respected instead of
/// silently returning a possibly-unconverged circuit.
pub(crate) fn optimize_report(circuit: &Circuit) -> OptimizeReport {
    let mut current = circuit.clone();
    for pass in 0..MAX_OPTIMIZE_PASSES {
        let next = one_pass(&current);
        if next == current {
            return OptimizeReport { circuit: next, passes: pass + 1, converged: true };
        }
        current = next;
    }
    OptimizeReport { circuit: current, passes: MAX_OPTIMIZE_PASSES, converged: false }
}

fn one_pass(circuit: &Circuit) -> Circuit {
    // Views of the surviving ops: merging rewrites a view's gate, and every
    // view's qubits stay those of an input op.
    let mut out: Vec<CircuitOp<'_>> = Vec::with_capacity(circuit.ops().len());
    // last_touch[q] = index in `out` of the last op touching qubit q.
    let mut last_touch: Vec<Option<usize>> = vec![None; circuit.num_qubits];

    for op in circuit.ops() {
        let candidate = match op {
            CircuitOp::Gate { gate, controls, targets } => {
                // All touched qubits must point at one previous gate with
                // identical structure.
                let mut touches = op.qubits().map(|q| last_touch[q]);
                let prev_idx = match touches.next() {
                    Some(Some(first)) if touches.all(|t| t == Some(first)) => Some(first),
                    _ => None,
                };
                prev_idx.and_then(|idx| match out[idx] {
                    CircuitOp::Gate {
                        gate: prev_gate,
                        controls: prev_controls,
                        targets: prev_targets,
                    } if prev_controls == controls && prev_targets == targets => {
                        merge(prev_gate, gate).map(|merged| (idx, merged))
                    }
                    _ => None,
                })
            }
            _ => None,
        };

        match candidate {
            Some((idx, None)) => {
                // Cancels to identity: remove the previous gate entirely.
                out.remove(idx);
                for entry in last_touch.iter_mut() {
                    *entry = match *entry {
                        Some(i) if i == idx => None,
                        Some(i) if i > idx => Some(i - 1),
                        other => other,
                    };
                }
                // Recompute last-touch for the removed gate's qubits.
                for q in op.qubits() {
                    last_touch[q] = out
                        .iter()
                        .enumerate()
                        .rev()
                        .find(|(_, o)| o.qubits().any(|touched| touched == q))
                        .map(|(i, _)| i);
                }
            }
            Some((idx, Some(merged))) => {
                if let CircuitOp::Gate { gate, .. } = &mut out[idx] {
                    *gate = merged;
                }
            }
            None => {
                let idx = out.len();
                out.push(op);
                for q in op.qubits() {
                    last_touch[q] = Some(idx);
                }
            }
        }
    }
    h_conjugation(circuit.num_qubits, &out)
}

/// Combined gate for two adjacent gates on identical qubits; `Some(None)`
/// means they cancel.
fn merge(first: GateKind, second: GateKind) -> Option<Option<GateKind>> {
    if first.cancels_with(second) {
        return Some(None);
    }
    let phase = |g: GateKind| -> Option<f64> {
        use std::f64::consts::{FRAC_PI_2, FRAC_PI_4, PI};
        match g {
            GateKind::Z => Some(PI),
            GateKind::S => Some(FRAC_PI_2),
            GateKind::Sdg => Some(-FRAC_PI_2),
            GateKind::T => Some(FRAC_PI_4),
            GateKind::Tdg => Some(-FRAC_PI_4),
            GateKind::P(t) => Some(t),
            _ => None,
        }
    };
    if let (Some(a), Some(b)) = (phase(first), phase(second)) {
        use std::f64::consts::{FRAC_PI_2, FRAC_PI_4, PI, TAU};
        let theta = (a + b).rem_euclid(TAU);
        let close = |x: f64, y: f64| (x - y).abs() < 1e-9;
        return Some(if close(theta, 0.0) || close(theta, TAU) {
            None
        } else if close(theta, PI) {
            Some(GateKind::Z)
        } else if close(theta, FRAC_PI_2) {
            Some(GateKind::S)
        } else if close(theta, 3.0 * FRAC_PI_2) {
            Some(GateKind::Sdg)
        } else if close(theta, FRAC_PI_4) {
            Some(GateKind::T)
        } else if close(theta, 7.0 * FRAC_PI_4) {
            Some(GateKind::Tdg)
        } else {
            Some(GateKind::P(theta))
        });
    }
    match (first, second) {
        (GateKind::Rz(a), GateKind::Rz(b)) => Some(Some(GateKind::Rz(a + b))),
        (GateKind::Rx(a), GateKind::Rx(b)) => Some(Some(GateKind::Rx(a + b))),
        (GateKind::Ry(a), GateKind::Ry(b)) => Some(Some(GateKind::Ry(a + b))),
        _ => None,
    }
}

/// Builds the circuit of `ops`, rewriting uncontrolled H·X·H → Z and
/// H·Z·H → X runs in one left-to-right scan (a rewritten run is not
/// revisited).
fn h_conjugation(num_qubits: usize, ops: &[CircuitOp<'_>]) -> Circuit {
    let single = |op: &CircuitOp<'_>| match *op {
        CircuitOp::Gate { gate, controls: [], targets: &[t] } => Some((gate, t)),
        _ => None,
    };
    let mut circuit = Circuit::new(num_qubits);
    let mut i = 0;
    while i < ops.len() {
        if let [first, mid, last, ..] = &ops[i..] {
            if let (Some((GateKind::H, a)), Some((mid, b)), Some((GateKind::H, c))) =
                (single(first), single(mid), single(last))
            {
                if a == b && b == c {
                    let swapped = match mid {
                        GateKind::X => Some(GateKind::Z),
                        GateKind::Z => Some(GateKind::X),
                        _ => None,
                    };
                    if let Some(gate) = swapped {
                        circuit.gate(gate, &[], &[a]);
                        i += 3;
                        continue;
                    }
                }
            }
        }
        circuit.push(ops[i]);
        i += 1;
    }
    circuit
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancels_adjacent_hadamards() {
        let mut c = Circuit::new(1);
        c.gate(GateKind::H, &[], &[0]);
        c.gate(GateKind::H, &[], &[0]);
        assert_eq!(optimize(&c).gate_count(), 0);
    }

    #[test]
    fn merges_phases_through_chain() {
        let mut c = Circuit::new(1);
        c.gate(GateKind::T, &[], &[0]);
        c.gate(GateKind::T, &[], &[0]);
        c.gate(GateKind::S, &[], &[0]);
        // T T S = Z.
        let opt = optimize(&c);
        assert_eq!(opt.gate_count(), 1);
        assert!(matches!(opt.ops().next(), Some(CircuitOp::Gate { gate: GateKind::Z, .. })));
    }

    #[test]
    fn keeps_interleaved_gates() {
        let mut c = Circuit::new(2);
        c.gate(GateKind::H, &[], &[0]);
        c.gate(GateKind::X, &[0], &[1]); // blocks the H pair
        c.gate(GateKind::H, &[], &[0]);
        assert_eq!(optimize(&c).gate_count(), 3);
    }

    #[test]
    fn hxh_rewrites_to_z() {
        let mut c = Circuit::new(1);
        c.gate(GateKind::H, &[], &[0]);
        c.gate(GateKind::X, &[], &[0]);
        c.gate(GateKind::H, &[], &[0]);
        let opt = optimize(&c);
        assert_eq!(opt.gate_count(), 1);
        assert!(matches!(opt.ops().next(), Some(CircuitOp::Gate { gate: GateKind::Z, .. })));
    }

    #[test]
    fn cx_pairs_cancel() {
        let mut c = Circuit::new(2);
        c.gate(GateKind::X, &[0], &[1]);
        c.gate(GateKind::X, &[0], &[1]);
        c.gate(GateKind::X, &[1], &[0]);
        assert_eq!(optimize(&c).gate_count(), 1);
    }

    #[test]
    fn optimization_preserves_unitary() {
        // Random-ish circuit: optimized form must be equivalent.
        let mut c = Circuit::new(3);
        c.gate(GateKind::H, &[], &[0]);
        c.gate(GateKind::T, &[], &[0]);
        c.gate(GateKind::T, &[], &[0]);
        c.gate(GateKind::X, &[0], &[1]);
        c.gate(GateKind::H, &[], &[2]);
        c.gate(GateKind::X, &[], &[2]);
        c.gate(GateKind::H, &[], &[2]);
        c.gate(GateKind::X, &[0], &[1]);
        let opt = optimize(&c);
        assert!(opt.gate_count() < c.gate_count());
        assert!(asdf_sim::run::circuits_equivalent(&c, &opt, 1e-9));
    }

    #[test]
    fn fixpoint_is_reached_well_under_the_pass_bound() {
        // An already-normal circuit converges on the first (no-change) pass.
        let mut stable = Circuit::new(2);
        stable.gate(GateKind::H, &[], &[0]);
        stable.gate(GateKind::X, &[0], &[1]);
        let report = optimize_report(&stable);
        assert!(report.converged);
        assert_eq!(report.passes, 1);
        assert_eq!(report.circuit, stable);

        // A deep tower of cancelling pairs needs several passes (each pass
        // peels what became adjacent), but stays far below the bound.
        let mut tower = Circuit::new(1);
        for _ in 0..MAX_OPTIMIZE_PASSES {
            tower.gate(GateKind::H, &[], &[0]);
            tower.gate(GateKind::H, &[], &[0]);
        }
        let report = optimize_report(&tower);
        assert!(report.converged, "cancellation towers must not exhaust the fixpoint bound");
        assert!(report.passes < MAX_OPTIMIZE_PASSES, "took {} passes", report.passes);
        assert_eq!(report.circuit.gate_count(), 0);
        assert_eq!(optimize(&tower).gate_count(), 0, "optimize agrees with optimize_report");
    }
}
