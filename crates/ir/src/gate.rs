//! Gate kinds used by the QCircuit dialect's `gate` op (§6) and by the
//! final straight-line circuit form.

use std::fmt;

/// A primitive gate applied by a QCircuit `gate` op, possibly under
/// additional controls recorded on the op itself.
///
/// The set matches what ASDF's lowering emits: Cliffords (`H`, `S`, `X`,
/// `Y`, `Z`, `Sx`), the `T` gate produced by multi-control decomposition
/// (§6.5), the relative phase gate `P(theta)` (§2.1), rotations used by QFT
/// synthesis, and `Swap`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GateKind {
    /// Pauli X.
    X,
    /// Pauli Y.
    Y,
    /// Pauli Z.
    Z,
    /// Hadamard.
    H,
    /// Phase gate S = P(pi/2).
    S,
    /// S dagger.
    Sdg,
    /// T = P(pi/4).
    T,
    /// T dagger.
    Tdg,
    /// Square root of X (used by Selinger's controlled-iX construction).
    Sx,
    /// Sx dagger.
    Sxdg,
    /// Relative phase shift `P(theta) = |0><0| + e^{i theta}|1><1|`.
    P(f64),
    /// Rotation about X.
    Rx(f64),
    /// Rotation about Y.
    Ry(f64),
    /// Rotation about Z.
    Rz(f64),
    /// Two-qubit SWAP.
    Swap,
}

impl GateKind {
    /// Number of target qubits the gate acts on (controls are extra).
    pub fn num_targets(self) -> usize {
        match self {
            GateKind::Swap => 2,
            _ => 1,
        }
    }

    /// Whether the gate is Hermitian (self-adjoint), so two adjacent copies
    /// cancel (§6.5's "cancelling out adjacent Hermitian gates").
    pub(crate) fn is_hermitian(self) -> bool {
        matches!(self, GateKind::X | GateKind::Y | GateKind::Z | GateKind::H | GateKind::Swap)
    }

    /// The adjoint (inverse) gate.
    pub fn adjoint(self) -> GateKind {
        match self {
            GateKind::S => GateKind::Sdg,
            GateKind::Sdg => GateKind::S,
            GateKind::T => GateKind::Tdg,
            GateKind::Tdg => GateKind::T,
            GateKind::Sx => GateKind::Sxdg,
            GateKind::Sxdg => GateKind::Sx,
            GateKind::P(theta) => GateKind::P(-theta),
            GateKind::Rx(theta) => GateKind::Rx(-theta),
            GateKind::Ry(theta) => GateKind::Ry(-theta),
            GateKind::Rz(theta) => GateKind::Rz(-theta),
            hermitian => hermitian,
        }
    }

    /// Whether `self` followed by `other` on the same qubits is the
    /// identity.
    pub fn cancels_with(self, other: GateKind) -> bool {
        if self.is_hermitian() {
            return self == other;
        }
        match (self, other) {
            (GateKind::P(a), GateKind::P(b))
            | (GateKind::Rx(a), GateKind::Rx(b))
            | (GateKind::Ry(a), GateKind::Ry(b))
            | (GateKind::Rz(a), GateKind::Rz(b)) => (a + b).abs() < 1e-12,
            (a, b) => a.adjoint() == b,
        }
    }

    /// Whether the gate diagonalizes in the computational basis (so it
    /// commutes with Z-controls on its target).
    pub fn is_diagonal(self) -> bool {
        matches!(
            self,
            GateKind::Z
                | GateKind::S
                | GateKind::Sdg
                | GateKind::T
                | GateKind::Tdg
                | GateKind::P(_)
                | GateKind::Rz(_)
        )
    }

    /// A short lowercase mnemonic (matches OpenQASM 3 names where they
    /// exist).
    pub fn name(self) -> &'static str {
        match self {
            GateKind::X => "x",
            GateKind::Y => "y",
            GateKind::Z => "z",
            GateKind::H => "h",
            GateKind::S => "s",
            GateKind::Sdg => "sdg",
            GateKind::T => "t",
            GateKind::Tdg => "tdg",
            GateKind::Sx => "sx",
            GateKind::Sxdg => "sxdg",
            GateKind::P(_) => "p",
            GateKind::Rx(_) => "rx",
            GateKind::Ry(_) => "ry",
            GateKind::Rz(_) => "rz",
            GateKind::Swap => "swap",
        }
    }

    /// The gate's angle parameter, if any.
    pub fn param(self) -> Option<f64> {
        match self {
            GateKind::P(t) | GateKind::Rx(t) | GateKind::Ry(t) | GateKind::Rz(t) => Some(t),
            _ => None,
        }
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.param() {
            Some(theta) => write!(f, "{}({:.6})", self.name(), theta),
            None => f.write_str(self.name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hermitian_gates_self_adjoint() {
        for g in [GateKind::X, GateKind::Y, GateKind::Z, GateKind::H, GateKind::Swap] {
            assert!(g.is_hermitian());
            assert_eq!(g.adjoint(), g);
            assert!(g.cancels_with(g));
        }
    }

    #[test]
    fn adjoint_pairs_cancel() {
        assert!(GateKind::S.cancels_with(GateKind::Sdg));
        assert!(GateKind::T.cancels_with(GateKind::Tdg));
        assert!(GateKind::Sx.cancels_with(GateKind::Sxdg));
        assert!(!GateKind::S.cancels_with(GateKind::S));
        assert!(GateKind::P(0.5).cancels_with(GateKind::P(-0.5)));
        assert!(!GateKind::P(0.5).cancels_with(GateKind::P(0.5)));
    }

    #[test]
    fn swap_has_two_targets() {
        assert_eq!(GateKind::Swap.num_targets(), 2);
        assert_eq!(GateKind::H.num_targets(), 1);
    }

    #[test]
    fn diagonal_classification() {
        assert!(GateKind::Z.is_diagonal());
        assert!(GateKind::P(1.0).is_diagonal());
        assert!(!GateKind::X.is_diagonal());
        assert!(!GateKind::H.is_diagonal());
    }
}
