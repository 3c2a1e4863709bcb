//! Algorithm E7: aligning basis translations.
//!
//! The permutation step of lowering needs elementwise pairs of basis
//! elements with equal dimensions, literal paired with literal. Alignment
//! produces a functionally equivalent translation satisfying that,
//! preferring *factoring* (more structured, smaller permutations) and
//! falling back to *merging* (Appendix F).
//!
//! Elements are *standardized* first: primitive bases become `std` and
//! vector phases are removed — phases and (de)standardization are handled
//! by other stages of Fig. 6.

use crate::error::CoreError;
use asdf_basis::{Basis, BasisElem, BasisLiteral, PrimitiveBasis};
use std::collections::VecDeque;

/// An aligned pair of standardized basis elements covering the same
/// qubits.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct AlignedPair {
    /// First qubit position covered.
    pub offset: usize,
    /// Left element (std primitive basis, phase-free).
    pub elem_in: BasisElem,
    /// Right element.
    pub elem_out: BasisElem,
}

impl AlignedPair {
    /// Number of qubits covered.
    pub(crate) fn dim(&self) -> usize {
        self.elem_in.dim()
    }

    /// Whether this pair is a *predicate*: identical, non-fully-spanning
    /// literals on both sides (in program order). Predicates contribute
    /// controls to every other stage (§6.3).
    pub(crate) fn is_predicate(&self) -> bool {
        if self.elem_in.fully_spans() {
            return false;
        }
        match (&self.elem_in, &self.elem_out) {
            (BasisElem::Literal(a), BasisElem::Literal(b)) => a
                .vectors()
                .iter()
                .map(|v| &v.eigenbits)
                .eq(b.vectors().iter().map(|v| &v.eigenbits)),
            _ => false,
        }
    }

    /// Whether the pair requires no permutation (identical or both
    /// fully-spanning built-ins).
    pub(crate) fn is_identity(&self) -> bool {
        match (&self.elem_in, &self.elem_out) {
            (BasisElem::BuiltIn { .. }, BasisElem::BuiltIn { .. }) => true,
            (BasisElem::Literal(a), BasisElem::Literal(b)) => a
                .vectors()
                .iter()
                .map(|v| &v.eigenbits)
                .eq(b.vectors().iter().map(|v| &v.eigenbits)),
            _ => false,
        }
    }
}

/// Standardizes an element for alignment: `std` primitive basis, no
/// phases (Algorithm E7 lines 2-3).
fn standardize_elem(e: &BasisElem) -> BasisElem {
    match e {
        BasisElem::BuiltIn { dim, .. } => BasisElem::built_in(PrimitiveBasis::Std, *dim),
        BasisElem::Literal(lit) => {
            let stripped = BasisLiteral::new(PrimitiveBasis::Std, lit.vectors_without_phases())
                .expect("restripping a valid literal");
            BasisElem::Literal(stripped)
        }
    }
}

/// Algorithm E7: aligns `b_in >> b_out` into elementwise pairs.
///
/// # Errors
///
/// Returns [`CoreError::Synthesis`] when materialization limits are hit
/// (enormous merged literals).
pub(crate) fn align(b_in: &Basis, b_out: &Basis) -> Result<Vec<AlignedPair>, CoreError> {
    let mut pairs: Vec<AlignedPair> = Vec::new();
    let mut ldeque: VecDeque<BasisElem> = b_in.elements().iter().map(standardize_elem).collect();
    let mut rdeque: VecDeque<BasisElem> = b_out.elements().iter().map(standardize_elem).collect();
    let mut offset = 0usize;

    while let (Some(l), Some(r)) = (ldeque.pop_front(), rdeque.pop_front()) {
        if l.dim() == r.dim() {
            // Lines 8-11: when exactly one side is a literal, materialize
            // the built-in side as a literal.
            let dim = l.dim();
            let (l, r) = match (&l, &r) {
                (BasisElem::BuiltIn { .. }, BasisElem::Literal(_)) => (materialize(&l)?, r.clone()),
                (BasisElem::Literal(_), BasisElem::BuiltIn { .. }) => (l.clone(), materialize(&r)?),
                _ => (l.clone(), r.clone()),
            };
            pairs.push(AlignedPair { offset, elem_in: l, elem_out: r });
            offset += dim;
            continue;
        }

        let (big, small, bigdeque, big_is_left) =
            if l.dim() > r.dim() { (l, r, &mut ldeque, true) } else { (r, l, &mut rdeque, false) };
        let delta = big.dim() - small.dim();
        let dim_small = small.dim();

        let (big_head, small_head, remainder): (BasisElem, BasisElem, BasisElem) = match &big {
            // Lines 17-24: big is std[N]: peel off std[dim small].
            BasisElem::BuiltIn { .. } => {
                let factor = BasisElem::built_in(PrimitiveBasis::Std, dim_small);
                let factor = if matches!(small, BasisElem::Literal(_)) {
                    materialize(&factor)?
                } else {
                    factor
                };
                (factor, small.clone(), BasisElem::built_in(PrimitiveBasis::Std, delta))
            }
            // Lines 25-30: factor a literal prefix from big. Factoring must
            // preserve vector order (the order defines the permutation), so
            // only row-major products factor; otherwise merge.
            BasisElem::Literal(lit) => match lit.factor_prefix_ordered(dim_small) {
                Ok((prefix, suffix)) => {
                    let small_lit = materialize(&small)?;
                    (BasisElem::Literal(prefix), small_lit, BasisElem::Literal(suffix))
                }
                Err(_) => {
                    // Lines 31-34: merge the small side until dims match.
                    let smalldeque = if big_is_left { &mut rdeque } else { &mut ldeque };
                    let merged = merge_to_dim(small, big.dim(), smalldeque)?;
                    let big_lit = materialize(&big)?;
                    let dim = big.dim();
                    let (elem_in, elem_out) =
                        if big_is_left { (big_lit, merged) } else { (merged, big_lit) };
                    pairs.push(AlignedPair { offset, elem_in, elem_out });
                    offset += dim;
                    continue;
                }
            },
        };
        let (elem_in, elem_out) =
            if big_is_left { (big_head, small_head) } else { (small_head, big_head) };
        offset += dim_small;
        pairs.push(AlignedPair { offset: offset - dim_small, elem_in, elem_out });
        bigdeque.push_front(remainder);
    }
    Ok(pairs)
}

/// Materializes a built-in element as an explicit literal (bounded).
fn materialize(e: &BasisElem) -> Result<BasisElem, CoreError> {
    match e {
        BasisElem::Literal(_) => Ok(e.clone()),
        BasisElem::BuiltIn { .. } => Ok(BasisElem::Literal(e.to_literal().map_err(|err| {
            CoreError::Synthesis(format!("cannot materialize basis element: {err}"))
        })?)),
    }
}

/// Merges `small` with subsequent deque elements until it reaches `dim`.
fn merge_to_dim(
    small: BasisElem,
    dim: usize,
    deque: &mut VecDeque<BasisElem>,
) -> Result<BasisElem, CoreError> {
    let mut acc = match materialize(&small)? {
        BasisElem::Literal(lit) => lit,
        BasisElem::BuiltIn { .. } => unreachable!("materialize returns literals"),
    };
    while acc.dim() < dim {
        let next = deque.pop_front().ok_or_else(|| {
            CoreError::Synthesis("alignment merging ran out of elements".to_string())
        })?;
        let next_dim = next.dim();
        if acc.dim() + next_dim > dim {
            // Factor the needed prefix off `next`, pushing the rest back.
            let lit = match materialize(&next)? {
                BasisElem::Literal(l) => l,
                _ => unreachable!(),
            };
            let need = dim - acc.dim();
            let (prefix, suffix) = lit.factor_prefix(need).map_err(|e| {
                CoreError::Synthesis(format!("cannot split element during merging: {e}"))
            })?;
            acc = acc
                .product(&prefix)
                .map_err(|e| CoreError::Synthesis(format!("merged literal too large: {e}")))?;
            deque.push_front(BasisElem::Literal(suffix));
        } else {
            let lit = match materialize(&next)? {
                BasisElem::Literal(l) => l,
                _ => unreachable!(),
            };
            acc = acc
                .product(&lit)
                .map_err(|e| CoreError::Synthesis(format!("merged literal too large: {e}")))?;
        }
    }
    Ok(BasisElem::Literal(acc))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn basis(s: &str) -> Basis {
        s.parse().unwrap()
    }

    #[test]
    fn appendix_f_factoring_preferred() {
        // {'1'} + std >> {'11','10'} aligns by factoring into
        // {'1'} + {'0','1'}-ish pairs.
        let pairs = align(&basis("{'1'} + std"), &basis("{'11','10'}")).unwrap();
        assert_eq!(pairs.len(), 2);
        assert_eq!(pairs[0].dim(), 1);
        assert!(pairs[0].is_predicate(), "{:?}", pairs[0]);
        assert_eq!(pairs[1].dim(), 1);
        assert!(!pairs[1].is_identity());
    }

    #[test]
    fn appendix_f_merging_fallback() {
        // {'0','1'} + {'0','1'} >> {'00','10','01','11'}: the right side
        // cannot factor, so the left merges.
        let pairs =
            align(&basis("{'0','1'} + {'0','1'}"), &basis("{'00','10','01','11'}")).unwrap();
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].dim(), 2);
        let BasisElem::Literal(l) = &pairs[0].elem_in else { panic!() };
        assert_eq!(l.len(), 4, "left side merged to four vectors");
    }

    #[test]
    fn fig9_alignment() {
        // {'01','10'} + {'0','1'} >> {'101','100','011','010'}
        let pairs =
            align(&basis("{'01','10'} + {'0','1'}"), &basis("{'101','100','011','010'}")).unwrap();
        assert_eq!(pairs.len(), 2);
        assert_eq!(pairs[0].dim(), 2);
        assert_eq!(pairs[1].dim(), 1);
        assert_eq!(pairs[1].offset, 2);
        // Neither is an identity: both sides permute.
        assert!(!pairs[0].is_identity());
        assert!(!pairs[1].is_identity());
    }

    #[test]
    fn builtins_align_trivially() {
        let pairs = align(&basis("pm[4]"), &basis("std[4]")).unwrap();
        assert_eq!(pairs.len(), 1);
        assert!(pairs[0].is_identity(), "all-std after standardization");
    }

    #[test]
    fn fourier_standardizes_to_std() {
        let pairs = align(&basis("std + fourier[3]"), &basis("fourier[3] + std")).unwrap();
        assert!(pairs.iter().all(|p| p.is_identity()));
    }

    #[test]
    fn swap_example_is_single_pair() {
        let pairs = align(&basis("{'01','10'}"), &basis("{'10','01'}")).unwrap();
        assert_eq!(pairs.len(), 1);
        assert!(!pairs[0].is_predicate());
        assert!(!pairs[0].is_identity());
    }

    #[test]
    fn grover_diffuser_is_identity_permutation_with_phases_elsewhere() {
        let pairs = align(&basis("{'p'[3]}"), &basis("{-'p'[3]}")).unwrap();
        assert_eq!(pairs.len(), 1);
        assert!(pairs[0].is_predicate(), "single identical vector, phases stripped");
    }
}
