//! Bases in canon form: tensor-product sequences of basis elements.

use crate::{BasisError, BasisLiteral, PrimitiveBasis};
use std::fmt;

/// One element of a basis in canon form (§2.2): either a built-in N-qubit
/// primitive basis (e.g. `pm[4]`) or a basis literal.
///
/// This mirrors the `BuiltinBasis` / `BasisLiteral` MLIR attributes of the
/// Qwerty dialect (§5).
#[derive(Debug, Clone, PartialEq)]
pub enum BasisElem {
    /// An N-qubit primitive basis, e.g. `std[2]` or `fourier[3]`.
    BuiltIn {
        /// The primitive basis.
        prim: PrimitiveBasis,
        /// Number of qubits.
        dim: usize,
    },
    /// An explicit basis literal.
    Literal(BasisLiteral),
}

impl BasisElem {
    /// A built-in basis element.
    pub fn built_in(prim: PrimitiveBasis, dim: usize) -> Self {
        BasisElem::BuiltIn { prim, dim }
    }

    /// The number of qubits the element spans.
    pub fn dim(&self) -> usize {
        match self {
            BasisElem::BuiltIn { dim, .. } => *dim,
            BasisElem::Literal(lit) => lit.dim(),
        }
    }

    /// Whether the element spans the full `2^dim` space. Built-in bases
    /// always fully span (Lemma B.2); literals fully span when they list
    /// every eigenbit pattern.
    pub fn fully_spans(&self) -> bool {
        match self {
            BasisElem::BuiltIn { .. } => true,
            BasisElem::Literal(lit) => lit.fully_spans(),
        }
    }

    /// The primitive basis of the element.
    pub fn prim(&self) -> PrimitiveBasis {
        match self {
            BasisElem::BuiltIn { prim, .. } => *prim,
            BasisElem::Literal(lit) => lit.prim(),
        }
    }

    /// Whether any vector of the element carries a phase (always false for
    /// built-ins).
    #[cfg(test)]
    pub(crate) fn has_phases(&self) -> bool {
        match self {
            BasisElem::BuiltIn { .. } => false,
            BasisElem::Literal(lit) => lit.has_phases(),
        }
    }

    /// The normalized element used by span checking: literal phases removed
    /// and vectors sorted lexicographically (§4.1).
    pub(crate) fn normalized(&self) -> BasisElem {
        match self {
            BasisElem::BuiltIn { .. } => self.clone(),
            BasisElem::Literal(lit) => BasisElem::Literal(lit.normalized()),
        }
    }

    /// Whether two normalized elements are identical (the `l = r` test on
    /// line 7 of Algorithm B1).
    pub(crate) fn identical(&self, other: &BasisElem) -> bool {
        match (self, other) {
            (
                BasisElem::BuiltIn { prim: p1, dim: d1 },
                BasisElem::BuiltIn { prim: p2, dim: d2 },
            ) => p1 == p2 && d1 == d2,
            (BasisElem::Literal(l1), BasisElem::Literal(l2)) => {
                l1.prim() == l2.prim() && l1.vectors() == l2.vectors()
            }
            _ => false,
        }
    }

    /// Materializes the element as an explicit literal (used by alignment,
    /// Algorithm E7).
    ///
    /// # Errors
    ///
    /// Fails for `fourier` built-ins (inseparable; no literal form) or when
    /// the expansion would exceed the materialization limit.
    pub fn to_literal(&self) -> Result<BasisLiteral, BasisError> {
        match self {
            BasisElem::BuiltIn { prim, dim } => BasisLiteral::full(*prim, *dim),
            BasisElem::Literal(lit) => Ok(lit.clone()),
        }
    }
}

impl From<BasisLiteral> for BasisElem {
    fn from(lit: BasisLiteral) -> Self {
        BasisElem::Literal(lit)
    }
}

impl fmt::Display for BasisElem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BasisElem::BuiltIn { prim, dim } => {
                if *dim == 1 {
                    write!(f, "{prim}")
                } else {
                    write!(f, "{prim}[{dim}]")
                }
            }
            BasisElem::Literal(lit) => write!(f, "{lit}"),
        }
    }
}

/// A basis in canon form: a tensor product (sequence) of basis elements.
///
/// Any Qwerty basis can be written in canon form (§2.2). The element order
/// is qubit order: the first element covers the leftmost qubits.
///
/// # Example
///
/// ```
/// use asdf_basis::Basis;
///
/// let b: Basis = "pm[2] + {'p'}".parse()?;
/// assert_eq!(b.dim(), 3);
/// assert_eq!(b.elements().len(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Basis {
    elems: Vec<BasisElem>,
}

impl Basis {
    /// A basis from its canon-form elements.
    pub fn new(elems: Vec<BasisElem>) -> Self {
        Basis { elems }
    }

    /// A single built-in basis, e.g. `std[4]`.
    pub fn built_in(prim: PrimitiveBasis, dim: usize) -> Self {
        Basis { elems: vec![BasisElem::built_in(prim, dim)] }
    }

    /// A single-literal basis.
    pub fn literal(lit: BasisLiteral) -> Self {
        Basis { elems: vec![BasisElem::Literal(lit)] }
    }

    /// The canon-form elements.
    pub fn elements(&self) -> &[BasisElem] {
        &self.elems
    }

    /// Total qubit count.
    pub fn dim(&self) -> usize {
        self.elems.iter().map(BasisElem::dim).sum()
    }

    /// Whether every element fully spans (so the basis spans the whole
    /// `2^dim` space).
    pub fn fully_spans(&self) -> bool {
        self.elems.iter().all(BasisElem::fully_spans)
    }

    /// Whether any literal vector carries a phase.
    #[cfg(test)]
    pub(crate) fn has_phases(&self) -> bool {
        self.elems.iter().any(BasisElem::has_phases)
    }

    /// Appends another basis on the right (tensor product, the Qwerty `+`).
    pub fn tensor(&self, rhs: &Basis) -> Basis {
        let mut elems = self.elems.clone();
        elems.extend(rhs.elems.iter().cloned());
        Basis { elems }
    }

    /// The `N`-fold tensor power (the Qwerty `b[N]`).
    pub fn power(&self, n: usize) -> Basis {
        let mut elems = Vec::with_capacity(self.elems.len() * n);
        for _ in 0..n {
            elems.extend(self.elems.iter().cloned());
        }
        Basis { elems }
    }

    /// Normalizes every element (§4.1): phases removed, vectors sorted.
    pub fn normalized(&self) -> Basis {
        Basis { elems: self.elems.iter().map(BasisElem::normalized).collect() }
    }

    /// The total number of basis vectors (product over elements), saturating
    /// at `u128::MAX`. Diagnostic only.
    #[cfg(test)]
    pub(crate) fn vector_count(&self) -> u128 {
        self.elems.iter().fold(1u128, |acc, e| {
            let n = match e {
                BasisElem::BuiltIn { dim, .. } => {
                    1u128.checked_shl(*dim as u32).unwrap_or(u128::MAX)
                }
                BasisElem::Literal(lit) => lit.len() as u128,
            };
            acc.saturating_mul(n)
        })
    }
}

impl FromIterator<BasisElem> for Basis {
    fn from_iter<I: IntoIterator<Item = BasisElem>>(iter: I) -> Self {
        Basis { elems: iter.into_iter().collect() }
    }
}

impl fmt::Display for Basis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.elems.is_empty() {
            return f.write_str("(empty)");
        }
        for (i, e) in self.elems.iter().enumerate() {
            if i > 0 {
                f.write_str(" + ")?;
            }
            write!(f, "{e}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BasisVector;

    #[test]
    fn dims_add_up() {
        let b =
            Basis::built_in(PrimitiveBasis::Pm, 2).tensor(&Basis::built_in(PrimitiveBasis::Std, 3));
        assert_eq!(b.dim(), 5);
        assert_eq!(b.power(3).dim(), 15);
    }

    #[test]
    fn identical_requires_same_kind() {
        let builtin = BasisElem::built_in(PrimitiveBasis::Std, 1);
        let lit = BasisElem::Literal(
            BasisLiteral::new(
                PrimitiveBasis::Std,
                vec![
                    BasisVector::new("0".parse().unwrap()),
                    BasisVector::new("1".parse().unwrap()),
                ],
            )
            .unwrap(),
        );
        // Same span, but structurally different kinds are not "identical";
        // Algorithm B1 accepts them through the fully-spans branch instead.
        assert!(!builtin.identical(&lit));
        assert!(builtin.fully_spans() && lit.fully_spans());
    }

    #[test]
    fn vector_count_saturates() {
        let b = Basis::built_in(PrimitiveBasis::Std, 1).power(200);
        assert_eq!(b.vector_count(), u128::MAX);
    }

    #[test]
    fn display_round_trip_like() {
        let b: Basis = "std[2] + {'p','m'} + fourier[3]".parse().unwrap();
        assert_eq!(b.to_string(), "std[2] + {'p','m'} + fourier[3]");
    }
}
