//! Basis vectors and vector phases.

use crate::{BitString, PrimitiveBasis};
use std::fmt;

/// A complex unit scalar phase factor attached to a basis vector
/// (written `bv@theta` or `-bv` in Qwerty, §2.2).
///
/// Basis *structure* algorithms (normalization, factoring, span checking)
/// only care whether a phase is present; circuit synthesis needs its value.
/// A phase is either a compile-time constant angle or a reference to a
/// classical SSA operand of the IR op carrying the basis (the paper's
/// `phases(...)` operand list, Fig. 4), resolved during lowering.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Phase {
    /// A constant angle in radians (after AST-level float constant folding,
    /// §4.2, all phases written by programs become constants).
    Const(f64),
    /// The `k`-th floating-point operand of the op carrying this basis.
    Operand(u32),
}

impl Phase {
    /// The phase π, i.e. the `-bv` shorthand.
    pub(crate) const PI: Phase = Phase::Const(std::f64::consts::PI);

    /// Returns the constant angle, if this phase is a constant.
    #[cfg(test)]
    pub(crate) fn as_const(&self) -> Option<f64> {
        match self {
            Phase::Const(theta) => Some(*theta),
            Phase::Operand(_) => None,
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Phase::Const(theta) => write!(f, "@{:.6}", theta),
            Phase::Operand(k) => write!(f, "@%{}", k),
        }
    }
}

/// A basis vector inside a basis literal: a sequence of eigenstates of one
/// primitive basis, plus an optional phase.
///
/// The vector's *eigenbits* have one bit per position, set iff that position
/// is a minus eigenstate (§2.2). The vector `'10'` has eigenbits `10`; the
/// vector `'pm'` has eigenbits `01`.
///
/// The primitive basis lives on the enclosing [`BasisLiteral`], since a
/// well-typed literal requires all positions of all vectors to share one
/// primitive basis.
///
/// [`BasisLiteral`]: crate::BasisLiteral
#[derive(Debug, Clone, PartialEq)]
pub struct BasisVector {
    /// Eigenbits of the vector, leftmost qubit first.
    pub eigenbits: BitString,
    /// Optional phase factor.
    pub phase: Option<Phase>,
}

impl BasisVector {
    /// A phase-free vector with the given eigenbits.
    pub fn new(eigenbits: BitString) -> Self {
        BasisVector { eigenbits, phase: None }
    }

    /// A vector with an attached phase.
    pub fn with_phase(eigenbits: BitString, phase: Phase) -> Self {
        BasisVector { eigenbits, phase: Some(phase) }
    }

    /// The number of qubits this vector spans.
    pub(crate) fn dim(&self) -> usize {
        self.eigenbits.len()
    }

    /// This vector with any phase removed (used by normalization, §4.1).
    pub(crate) fn without_phase(&self) -> BasisVector {
        BasisVector::new(self.eigenbits.clone())
    }

    /// Renders the vector with the eigenstate characters of `prim`.
    ///
    /// # Panics
    ///
    /// Panics if `prim` is [`PrimitiveBasis::Fourier`], which has no literal
    /// character syntax.
    pub(crate) fn display_in(&self, prim: PrimitiveBasis) -> String {
        let (plus, minus) = prim.chars().expect("fourier basis vectors have no literal syntax");
        let mut s = String::with_capacity(self.dim() + 4);
        s.push('\'');
        for bit in self.eigenbits.iter() {
            s.push(if bit { minus } else { plus });
        }
        s.push('\'');
        if let Some(phase) = &self.phase {
            s.push_str(&phase.to_string());
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_uses_primitive_chars() {
        let v = BasisVector::new("01".parse().unwrap());
        assert_eq!(v.display_in(PrimitiveBasis::Std), "'01'");
        assert_eq!(v.display_in(PrimitiveBasis::Pm), "'pm'");
        assert_eq!(v.display_in(PrimitiveBasis::Ij), "'ij'");
    }

    #[test]
    fn phase_stripping() {
        let v = BasisVector::with_phase("1".parse().unwrap(), Phase::PI);
        assert!(v.phase.is_some());
        assert!(v.without_phase().phase.is_none());
        assert_eq!(v.without_phase().eigenbits, v.eigenbits);
    }

    #[test]
    fn const_phase_accessor() {
        assert_eq!(Phase::Const(1.5).as_const(), Some(1.5));
        assert_eq!(Phase::Operand(3).as_const(), None);
    }
}
