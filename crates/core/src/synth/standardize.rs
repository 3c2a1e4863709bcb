//! Algorithm E6: determining standardizations for a basis translation.
//!
//! Standardization translates each primitive basis on the left of the goal
//! translation to `std`; destandardization translates `std` back to the
//! primitive bases on the right. Each is *unconditional* when the same
//! primitive basis appears on both sides at that position (the pair
//! conjugates the rest of the circuit), else *conditional* — conditional
//! (de)standardizations must be controlled on the translation's predicates
//! (Fig. 7). Inseparable bases (`fourier[N]`) force conditionality and
//! insert padding so deque heads stay qubit-aligned (Fig. E14).

use asdf_basis::{Basis, PrimitiveBasis};
use std::collections::VecDeque;

/// Whether a (de)standardization must be predicated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StdKind {
    /// Present on both sides; the pair conjugates the inner circuit and
    /// needs no controls.
    Unconditional,
    /// A change of primitive basis; must run only in the predicated space.
    Conditional,
}

/// One required (de)standardization.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct StdEntry {
    /// The primitive basis to translate from (standardization) or to
    /// (destandardization).
    pub prim: PrimitiveBasis,
    /// Number of qubits.
    pub dim: usize,
    /// Starting qubit position within the translation.
    pub offset: usize,
    /// Conditionality.
    pub kind: StdKind,
}

#[derive(Debug, Clone)]
enum E6Elem {
    Real { prim: PrimitiveBasis, dim: usize, offset: usize },
    Padding { dim: usize },
}

impl E6Elem {
    fn dim(&self) -> usize {
        match self {
            E6Elem::Real { dim, .. } | E6Elem::Padding { dim } => *dim,
        }
    }

    fn prim(&self) -> Option<PrimitiveBasis> {
        match self {
            E6Elem::Real { prim, .. } => Some(*prim),
            E6Elem::Padding { .. } => None,
        }
    }
}

/// Algorithm E6: returns `(standardizations, destandardizations)` for
/// `b_in >> b_out`.
///
/// # Panics
///
/// Panics if the bases have different total dimension (the type checker
/// guarantees equality).
pub(crate) fn standardizations(b_in: &Basis, b_out: &Basis) -> (Vec<StdEntry>, Vec<StdEntry>) {
    assert_eq!(b_in.dim(), b_out.dim(), "span checking guarantees equal dims");
    let mut lstd: Vec<StdEntry> = Vec::new();
    let mut rstd: Vec<StdEntry> = Vec::new();
    let mut ldeque = to_deque(b_in);
    let mut rdeque = to_deque(b_out);

    while let (Some(l), Some(r)) = (ldeque.pop_front(), rdeque.pop_front()) {
        // Line 7: unconditional iff neither is padding and prims agree.
        let kind = match (l.prim(), r.prim()) {
            (Some(pl), Some(pr)) if pl == pr => StdKind::Unconditional,
            _ => StdKind::Conditional,
        };
        if l.dim() == r.dim() {
            push_entry(&mut lstd, &l, l.dim(), kind);
            push_entry(&mut rstd, &r, r.dim(), kind);
            continue;
        }
        // Lines 16-30: factor or pad the bigger element.
        let (mut big, small, bigstd, smallstd, bigdeque, big_is_left) = if l.dim() > r.dim() {
            (l, r, &mut lstd, &mut rstd, &mut ldeque, true)
        } else {
            (r, l, &mut rstd, &mut lstd, &mut rdeque, false)
        };
        let _ = big_is_left;
        let delta = big.dim() - small.dim();
        let big_separable = big.prim().map(PrimitiveBasis::is_separable);
        match (&big, big_separable) {
            (E6Elem::Real { prim, dim: _, offset }, Some(true)) => {
                // Lines 20-24: a separable big element splits.
                push_entry(smallstd, &small, small.dim(), kind);
                bigstd.push(StdEntry { prim: *prim, dim: small.dim(), offset: *offset, kind });
                big = E6Elem::Real { prim: *prim, dim: delta, offset: offset + small.dim() };
                bigdeque.push_front(big);
            }
            _ => {
                // Lines 25-30: inseparable (fourier) or padding: everything
                // becomes conditional and padding fills the gap.
                push_entry(smallstd, &small, small.dim(), StdKind::Conditional);
                if let E6Elem::Real { prim, dim, offset } = &big {
                    bigstd.push(StdEntry {
                        prim: *prim,
                        dim: *dim,
                        offset: *offset,
                        kind: StdKind::Conditional,
                    });
                }
                bigdeque.push_front(E6Elem::Padding { dim: delta });
            }
        }
    }
    (lstd, rstd)
}

fn push_entry(list: &mut Vec<StdEntry>, elem: &E6Elem, dim: usize, kind: StdKind) {
    if let E6Elem::Real { prim, offset, .. } = elem {
        list.push(StdEntry { prim: *prim, dim, offset: *offset, kind });
    }
}

fn to_deque(basis: &Basis) -> VecDeque<E6Elem> {
    let mut offset = 0usize;
    basis
        .elements()
        .iter()
        .map(|e| {
            let elem = E6Elem::Real { prim: e.prim(), dim: e.dim(), offset };
            offset += e.dim();
            elem
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn basis(s: &str) -> Basis {
        s.parse().unwrap()
    }

    fn entries(list: &[StdEntry]) -> Vec<(PrimitiveBasis, usize, usize, StdKind)> {
        list.iter().map(|e| (e.prim, e.dim, e.offset, e.kind)).collect()
    }

    #[test]
    fn fig7_conditional_vs_unconditional() {
        // {'m'} + ij >> {'m'} + pm
        let (lstd, rstd) = standardizations(&basis("{'m'} + ij"), &basis("{'m'} + pm"));
        assert_eq!(
            entries(&lstd),
            vec![
                (PrimitiveBasis::Pm, 1, 0, StdKind::Unconditional),
                (PrimitiveBasis::Ij, 1, 1, StdKind::Conditional),
            ]
        );
        assert_eq!(
            entries(&rstd),
            vec![
                (PrimitiveBasis::Pm, 1, 0, StdKind::Unconditional),
                (PrimitiveBasis::Pm, 1, 1, StdKind::Conditional),
            ]
        );
    }

    #[test]
    fn fig_e14_inseparable_fourier() {
        // std + fourier[3] >> fourier[3] + std
        let (lstd, rstd) = standardizations(&basis("std + fourier[3]"), &basis("fourier[3] + std"));
        assert_eq!(
            entries(&lstd),
            vec![
                (PrimitiveBasis::Std, 1, 0, StdKind::Conditional),
                (PrimitiveBasis::Fourier, 3, 1, StdKind::Conditional),
            ]
        );
        assert_eq!(
            entries(&rstd),
            vec![
                (PrimitiveBasis::Fourier, 3, 0, StdKind::Conditional),
                (PrimitiveBasis::Std, 1, 3, StdKind::Conditional),
            ]
        );
    }

    #[test]
    fn matching_fourier_is_unconditional() {
        let (lstd, rstd) = standardizations(&basis("fourier[2]"), &basis("fourier[2]"));
        assert_eq!(lstd[0].kind, StdKind::Unconditional);
        assert_eq!(rstd[0].kind, StdKind::Unconditional);
    }

    #[test]
    fn separable_big_element_splits() {
        // pm[3] on the left vs std + {'11'} on the right.
        let (lstd, rstd) = standardizations(&basis("pm[3]"), &basis("std + {'11'}"));
        assert_eq!(
            entries(&lstd),
            vec![
                (PrimitiveBasis::Pm, 1, 0, StdKind::Conditional),
                (PrimitiveBasis::Pm, 2, 1, StdKind::Conditional),
            ]
        );
        assert_eq!(
            entries(&rstd),
            vec![
                (PrimitiveBasis::Std, 1, 0, StdKind::Conditional),
                (PrimitiveBasis::Std, 2, 1, StdKind::Conditional),
            ]
        );
    }

    #[test]
    fn bv_translation_is_simple() {
        // pm[4] >> std[4]: one conditional standardization each side.
        let (lstd, rstd) = standardizations(&basis("pm[4]"), &basis("std[4]"));
        assert_eq!(entries(&lstd), vec![(PrimitiveBasis::Pm, 4, 0, StdKind::Conditional)]);
        assert_eq!(entries(&rstd), vec![(PrimitiveBasis::Std, 4, 0, StdKind::Conditional)]);
    }
}
