//! Semantic types for Qwerty expressions.

use std::fmt;

/// The kind of a first-class data value: a register of qubits or of
/// classical bits. `Qubit(0)` is the unit value produced by `discard`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueKind {
    /// `qubit[N]`.
    Qubit(usize),
    /// `bit[N]`.
    Bit(usize),
}

impl ValueKind {
    /// The register width.
    pub fn width(self) -> usize {
        match self {
            ValueKind::Qubit(n) | ValueKind::Bit(n) => n,
        }
    }

    /// Whether values of this kind are linear (must be used exactly once).
    pub(crate) fn is_linear(self) -> bool {
        matches!(self, ValueKind::Qubit(n) if n > 0)
    }

    /// The tensor product of two value kinds. Mixed kinds combine only when
    /// one side is an empty register.
    ///
    /// # Errors
    ///
    /// Returns a message when tensoring a nonempty qubit register with a
    /// nonempty bit register.
    pub(crate) fn tensor(self, other: ValueKind) -> Result<ValueKind, String> {
        match (self, other) {
            (ValueKind::Qubit(a), ValueKind::Qubit(b)) => Ok(ValueKind::Qubit(a + b)),
            (ValueKind::Bit(a), ValueKind::Bit(b)) => Ok(ValueKind::Bit(a + b)),
            (x, ValueKind::Qubit(0)) | (ValueKind::Qubit(0), x) => Ok(x),
            (x, ValueKind::Bit(0)) | (ValueKind::Bit(0), x) => Ok(x),
            (a, b) => Err(format!("cannot tensor {a} with {b}")),
        }
    }
}

impl fmt::Display for ValueKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueKind::Qubit(n) => write!(f, "qubit[{n}]"),
            ValueKind::Bit(n) => write!(f, "bit[{n}]"),
        }
    }
}

/// The semantic type of a `qpu` expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Type {
    /// A data value.
    Value(ValueKind),
    /// A function value. Reversible functions (`rev`) may be adjointed and
    /// predicated (§2.2).
    Func {
        /// Input kind.
        input: ValueKind,
        /// Output kind.
        output: ValueKind,
        /// Whether the function is reversible.
        rev: bool,
    },
    /// A basis over `N` qubits (only usable by basis-consuming syntax).
    Basis(usize),
}

impl Type {
    /// The canonical reversible function type on `n` qubits.
    pub(crate) fn rev_func(n: usize) -> Type {
        Type::Func { input: ValueKind::Qubit(n), output: ValueKind::Qubit(n), rev: true }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Value(kind) => write!(f, "{kind}"),
            Type::Func { input, output, rev } => {
                write!(f, "{input} {}-> {output}", if *rev { "-rev" } else { "-" })
            }
            Type::Basis(n) => write!(f, "basis[{n}]"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tensor_rules() {
        assert_eq!(ValueKind::Qubit(2).tensor(ValueKind::Qubit(3)).unwrap(), ValueKind::Qubit(5));
        assert_eq!(ValueKind::Bit(1).tensor(ValueKind::Bit(1)).unwrap(), ValueKind::Bit(2));
        assert_eq!(ValueKind::Bit(4).tensor(ValueKind::Qubit(0)).unwrap(), ValueKind::Bit(4));
        assert!(ValueKind::Qubit(1).tensor(ValueKind::Bit(1)).is_err());
    }

    #[test]
    fn linearity() {
        assert!(ValueKind::Qubit(1).is_linear());
        assert!(!ValueKind::Qubit(0).is_linear());
        assert!(!ValueKind::Bit(3).is_linear());
    }
}
