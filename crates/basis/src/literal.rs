//! Basis literals and the factoring primitives behind span checking
//! (Algorithms B3 and B4) and basis alignment (Algorithm E7).

use crate::{BasisError, BasisVector, BitString, PrimitiveBasis};
use std::fmt;

/// A basis literal `{bv1, bv2, ..., bvm}` (§2.2).
///
/// A well-typed literal has at least one vector, all vectors of equal
/// dimension, all eigenbits distinct, and a single primitive basis shared by
/// every position of every vector (never `fourier`, which has no literal
/// syntax). [`BasisLiteral::new`] enforces these conditions, mirroring the
/// literal validation the ASDF type checker performs (§4).
#[derive(Debug, Clone, PartialEq)]
pub struct BasisLiteral {
    prim: PrimitiveBasis,
    vectors: Vec<BasisVector>,
}

impl BasisLiteral {
    /// Creates a validated basis literal.
    ///
    /// # Errors
    ///
    /// Returns [`BasisError::MalformedLiteral`] if the literal is empty, the
    /// primitive basis is `fourier`, vector dimensions differ, or eigenbits
    /// repeat.
    pub fn new(prim: PrimitiveBasis, vectors: Vec<BasisVector>) -> Result<Self, BasisError> {
        if vectors.is_empty() {
            return Err(BasisError::malformed("literal must contain at least one vector"));
        }
        if prim == PrimitiveBasis::Fourier {
            return Err(BasisError::malformed(
                "fourier has no literal syntax; use the built-in basis fourier[N]",
            ));
        }
        let dim = vectors[0].dim();
        if dim == 0 {
            return Err(BasisError::malformed("basis vectors must have at least one qubit"));
        }
        if vectors.iter().any(|v| v.dim() != dim) {
            return Err(BasisError::malformed("all vector dimensions in a literal must be equal"));
        }
        let mut seen: Vec<&BitString> = vectors.iter().map(|v| &v.eigenbits).collect();
        seen.sort();
        if seen.windows(2).any(|w| w[0] == w[1]) {
            return Err(BasisError::malformed("all eigenbits in a literal must be distinct"));
        }
        Ok(BasisLiteral { prim, vectors })
    }

    /// The literal materializing `prim[dim]` as `2^dim` explicit vectors in
    /// lexicographic order (used by alignment, Algorithm E7 lines 9/18/27).
    ///
    /// # Errors
    ///
    /// Returns [`BasisError::TooLarge`] if `2^dim` exceeds the materialization
    /// limit (65536 vectors), and [`BasisError::MalformedLiteral`] for
    /// `fourier`, which is inseparable and cannot be written as a literal.
    pub(crate) fn full(prim: PrimitiveBasis, dim: usize) -> Result<Self, BasisError> {
        const LIMIT: usize = 1 << 16;
        if prim == PrimitiveBasis::Fourier {
            return Err(BasisError::malformed("fourier[N] cannot be written as a literal"));
        }
        if dim >= 17 || (1usize << dim) > LIMIT {
            return Err(BasisError::TooLarge(format!(
                "materializing {prim}[{dim}] would require 2^{dim} vectors"
            )));
        }
        let vectors =
            (0..(1u128 << dim)).map(|v| BasisVector::new(BitString::from_value(v, dim))).collect();
        BasisLiteral::new(prim, vectors)
    }

    /// The shared primitive basis of every position of every vector.
    pub fn prim(&self) -> PrimitiveBasis {
        self.prim
    }

    /// The vectors of the literal, in program order.
    pub fn vectors(&self) -> &[BasisVector] {
        &self.vectors
    }

    /// The number of qubits the literal spans.
    pub fn dim(&self) -> usize {
        self.vectors[0].dim()
    }

    /// The number of vectors.
    pub fn len(&self) -> usize {
        self.vectors.len()
    }

    /// Always false: a well-typed literal has at least one vector.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether the literal spans the full `2^dim`-dimensional space, i.e.
    /// lists every eigenbit pattern.
    pub fn fully_spans(&self) -> bool {
        // Eigenbits are distinct, so counting suffices. Dimensions above 127
        // cannot be fully spanned by an explicit literal in practice.
        self.dim() < usize::BITS as usize && self.vectors.len() == 1usize << self.dim()
    }

    /// Whether any vector carries a phase.
    #[cfg(test)]
    pub(crate) fn has_phases(&self) -> bool {
        self.vectors.iter().any(|v| v.phase.is_some())
    }

    /// The normalized form used by span checking (§4.1): phases removed and
    /// vectors sorted lexicographically by eigenbits.
    pub fn normalized(&self) -> BasisLiteral {
        let mut vectors = self.vectors_without_phases();
        vectors.sort_by(|a, b| a.eigenbits.cmp(&b.eigenbits));
        BasisLiteral { prim: self.prim, vectors }
    }

    /// The vectors with phases removed but program order preserved (used by
    /// alignment, Algorithm E7, where vector order defines the permutation).
    pub fn vectors_without_phases(&self) -> Vec<BasisVector> {
        self.vectors.iter().map(BasisVector::without_phase).collect()
    }

    /// The tensor product of two literals with the same primitive basis:
    /// every `pre + suff` pair, in row-major order (the *merging* fallback of
    /// Algorithm E7 line 32).
    ///
    /// Phases multiply, i.e. angles add; operand-referencing phases cannot be
    /// merged and are rejected.
    ///
    /// # Errors
    ///
    /// Returns [`BasisError::MalformedLiteral`] if the primitive bases differ
    /// or an operand phase is present, and [`BasisError::TooLarge`] if the
    /// product would exceed 65536 vectors.
    pub fn product(&self, suffix: &BasisLiteral) -> Result<BasisLiteral, BasisError> {
        if self.prim != suffix.prim {
            return Err(BasisError::malformed(format!(
                "cannot tensor literals with primitive bases {} and {}",
                self.prim, suffix.prim
            )));
        }
        let count = self.len().saturating_mul(suffix.len());
        if count > (1 << 16) {
            return Err(BasisError::TooLarge(format!(
                "literal product would have {count} vectors"
            )));
        }
        let mut vectors = Vec::with_capacity(count);
        for pre in &self.vectors {
            for suf in &suffix.vectors {
                let phase = match (&pre.phase, &suf.phase) {
                    (None, None) => None,
                    (Some(crate::Phase::Const(a)), None) => Some(crate::Phase::Const(*a)),
                    (None, Some(crate::Phase::Const(b))) => Some(crate::Phase::Const(*b)),
                    (Some(crate::Phase::Const(a)), Some(crate::Phase::Const(b))) => {
                        Some(crate::Phase::Const(a + b))
                    }
                    _ => {
                        return Err(BasisError::malformed(
                            "cannot merge literals with operand-referencing phases",
                        ))
                    }
                };
                vectors
                    .push(BasisVector { eigenbits: pre.eigenbits.concat(&suf.eigenbits), phase });
            }
        }
        BasisLiteral::new(self.prim, vectors)
    }

    /// Factors the first `n` qubits out of the literal, recovering the
    /// product form `{prefixes} + {suffixes}` if one exists.
    ///
    /// This is the common engine behind Algorithms B3 and B4: it counts
    /// distinct `n`-bit prefixes and `(dim - n)`-bit suffixes and verifies
    /// the exact product structure `|prefixes| * |suffixes| = m` with every
    /// pair present. Runs in `O(m log m)` (Lemma B.5). The input must be
    /// normalized (phase-free); phases are not preserved.
    ///
    /// # Errors
    ///
    /// Returns [`BasisError::CannotFactor`] if the literal is not a tensor
    /// product at position `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or at least the literal's dimension.
    pub fn factor_prefix(&self, n: usize) -> Result<(BasisLiteral, BasisLiteral), BasisError> {
        assert!(n > 0 && n < self.dim(), "factor point must be interior");
        let m = self.len();
        let mut pairs: Vec<(BitString, BitString)> =
            self.vectors.iter().map(|v| v.eigenbits.split_at(n)).collect();
        pairs.sort();

        let mut prefixes: Vec<BitString> = pairs.iter().map(|(p, _)| p.clone()).collect();
        prefixes.dedup();
        let mut suffixes: Vec<BitString> = pairs.iter().map(|(_, s)| s.clone()).collect();
        suffixes.sort();
        suffixes.dedup();

        // Corollary B.4 generalization: the product structure forces
        // m = |prefixes| * |suffixes|.
        if prefixes.len().checked_mul(suffixes.len()) != Some(m) {
            return Err(BasisError::CannotFactor(format!(
                "literal of {m} vectors does not factor at qubit {n}: \
                 {} prefixes x {} suffixes",
                prefixes.len(),
                suffixes.len()
            )));
        }
        // Every (prefix, suffix) pair must be present. Since `pairs` is
        // sorted and has exactly |P|*|S| distinct entries, it suffices to
        // check the row-major enumeration matches.
        let mut k = 0;
        for p in &prefixes {
            for s in &suffixes {
                if &pairs[k].0 != p || &pairs[k].1 != s {
                    return Err(BasisError::CannotFactor(format!(
                        "literal does not factor at qubit {n}: missing vector {}{}",
                        p, s
                    )));
                }
                k += 1;
            }
        }

        let pre =
            BasisLiteral::new(self.prim, prefixes.into_iter().map(BasisVector::new).collect())?;
        let suf =
            BasisLiteral::new(self.prim, suffixes.into_iter().map(BasisVector::new).collect())?;
        Ok((pre, suf))
    }

    /// Order-preserving factoring for alignment (Algorithm E7): succeeds
    /// only when the vectors appear in exact row-major product order
    /// `(prefixes x suffixes)`, so the elementwise vector correspondence —
    /// which defines the translation's permutation — is preserved.
    ///
    /// # Errors
    ///
    /// Returns [`BasisError::CannotFactor`] when the literal is not an
    /// order-preserving product at position `n` (alignment then falls back
    /// to merging).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or at least the literal's dimension.
    pub fn factor_prefix_ordered(
        &self,
        n: usize,
    ) -> Result<(BasisLiteral, BasisLiteral), BasisError> {
        assert!(n > 0 && n < self.dim(), "factor point must be interior");
        let mut prefixes: Vec<BitString> = Vec::new();
        let mut suffixes: Vec<BitString> = Vec::new();
        for v in &self.vectors {
            let (pre, suf) = v.eigenbits.split_at(n);
            if !prefixes.contains(&pre) {
                prefixes.push(pre);
            }
            if !suffixes.contains(&suf) {
                suffixes.push(suf);
            }
        }
        if prefixes.len().checked_mul(suffixes.len()) != Some(self.len()) {
            return Err(BasisError::CannotFactor(format!(
                "literal does not factor at qubit {n} (counting)"
            )));
        }
        for (k, v) in self.vectors.iter().enumerate() {
            let expect = prefixes[k / suffixes.len()].concat(&suffixes[k % suffixes.len()]);
            if v.eigenbits != expect {
                return Err(BasisError::CannotFactor(format!(
                    "literal is not in row-major product order at vector {k}"
                )));
            }
        }
        let pre =
            BasisLiteral::new(self.prim, prefixes.into_iter().map(BasisVector::new).collect())?;
        let suf =
            BasisLiteral::new(self.prim, suffixes.into_iter().map(BasisVector::new).collect())?;
        Ok((pre, suf))
    }

    /// Algorithm B3: factors a fully-spanning `n`-qubit basis (`std[n]`,
    /// `pm[n]`, or `ij[n]`) from the front of this literal, returning the
    /// remainder (the distinct suffixes).
    ///
    /// # Errors
    ///
    /// Returns [`BasisError::CannotFactor`] if `m` is not divisible by `2^n`,
    /// fewer than `2^n` distinct prefixes appear, or any suffix appears fewer
    /// than `2^n` times (lines 1–8 of Algorithm B3).
    pub(crate) fn factor_fully_spanning(&self, n: usize) -> Result<BasisLiteral, BasisError> {
        // Line 1: if m is not divisible by 2^n, fail (Corollary B.4).
        if n >= usize::BITS as usize || !self.len().is_multiple_of(1usize << n) {
            return Err(BasisError::CannotFactor(format!(
                "{} vectors not divisible by 2^{n}",
                self.len()
            )));
        }
        let (pre, suf) = self.factor_prefix(n)?;
        // Lines 3-5: there must be exactly 2^n distinct prefixes.
        if !pre.fully_spans() {
            return Err(BasisError::CannotFactor(format!(
                "only {} distinct {n}-bit prefixes; need 2^{n}",
                pre.len()
            )));
        }
        Ok(suf)
    }

    /// Algorithm B4: factors the literal `small` from the front of this
    /// literal, returning the remainder.
    ///
    /// # Errors
    ///
    /// Returns [`BasisError::CannotFactor`] if the primitive bases differ
    /// (line 1), `m` is not divisible by `m'` (line 3), or the prefix set
    /// does not equal `small`'s vectors (lines 6–8).
    pub(crate) fn factor_literal(&self, small: &BasisLiteral) -> Result<BasisLiteral, BasisError> {
        if self.prim != small.prim {
            return Err(BasisError::CannotFactor(format!(
                "primitive bases differ: {} vs {}",
                self.prim, small.prim
            )));
        }
        if !self.len().is_multiple_of(small.len()) {
            return Err(BasisError::CannotFactor(format!(
                "{} vectors not divisible by {}",
                self.len(),
                small.len()
            )));
        }
        let (pre, suf) = self.factor_prefix(small.dim())?;
        // Lines 6-8: every prefix must equal some vector of `small`, and all
        // of `small`'s vectors must appear. Both literals are normalized, so
        // comparing the sorted vector lists suffices.
        if pre.normalized().vectors() != small.normalized().vectors() {
            return Err(BasisError::CannotFactor(
                "prefixes do not match the factored literal's vectors".to_string(),
            ));
        }
        Ok(suf)
    }
}

impl fmt::Display for BasisLiteral {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{")?;
        for (i, v) in self.vectors.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            f.write_str(&v.display_in(self.prim))?;
        }
        f.write_str("}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Phase;

    fn lit(prim: PrimitiveBasis, vecs: &[&str]) -> BasisLiteral {
        BasisLiteral::new(prim, vecs.iter().map(|s| BasisVector::new(s.parse().unwrap())).collect())
            .unwrap()
    }

    #[test]
    fn validation_rejects_bad_literals() {
        assert!(BasisLiteral::new(PrimitiveBasis::Std, vec![]).is_err());
        let dup = BasisLiteral::new(
            PrimitiveBasis::Std,
            vec![BasisVector::new("01".parse().unwrap()), BasisVector::new("01".parse().unwrap())],
        );
        assert!(dup.is_err());
        let ragged = BasisLiteral::new(
            PrimitiveBasis::Std,
            vec![BasisVector::new("01".parse().unwrap()), BasisVector::new("0".parse().unwrap())],
        );
        assert!(ragged.is_err());
        assert!(BasisLiteral::new(
            PrimitiveBasis::Fourier,
            vec![BasisVector::new("0".parse().unwrap())]
        )
        .is_err());
    }

    #[test]
    fn duplicate_eigenbits_with_phases_rejected() {
        // Phases do not make eigenbits distinct.
        let dup = BasisLiteral::new(
            PrimitiveBasis::Std,
            vec![
                BasisVector::new("1".parse().unwrap()),
                BasisVector::with_phase("1".parse().unwrap(), Phase::PI),
            ],
        );
        assert!(dup.is_err());
    }

    #[test]
    fn fully_spans() {
        assert!(lit(PrimitiveBasis::Std, &["0", "1"]).fully_spans());
        assert!(!lit(PrimitiveBasis::Std, &["0"]).fully_spans());
        assert!(lit(PrimitiveBasis::Pm, &["00", "01", "10", "11"]).fully_spans());
    }

    #[test]
    fn normalization_sorts_and_strips() {
        let l = BasisLiteral::new(
            PrimitiveBasis::Std,
            vec![
                BasisVector::with_phase("11".parse().unwrap(), Phase::PI),
                BasisVector::new("10".parse().unwrap()),
            ],
        )
        .unwrap();
        let n = l.normalized();
        assert_eq!(n.vectors()[0].eigenbits.to_string(), "10");
        assert_eq!(n.vectors()[1].eigenbits.to_string(), "11");
        assert!(!n.has_phases());
    }

    #[test]
    fn product_and_factor_round_trip() {
        let pre = lit(PrimitiveBasis::Std, &["01", "10"]);
        let suf = lit(PrimitiveBasis::Std, &["0", "1"]);
        let prod = pre.product(&suf).unwrap();
        assert_eq!(prod.len(), 4);
        let (p2, s2) = prod.factor_prefix(2).unwrap();
        assert_eq!(p2.normalized().vectors(), pre.normalized().vectors());
        assert_eq!(s2.normalized().vectors(), suf.normalized().vectors());
    }

    #[test]
    fn factor_rejects_non_product() {
        // {'00','11'} is a perfectly good basis but not a tensor product.
        let l = lit(PrimitiveBasis::Std, &["00", "11"]);
        assert!(l.factor_prefix(1).is_err());
    }

    #[test]
    fn factor_fully_spanning_b3() {
        // {'00','01','10','11'} = std[1] (x) {'0','1'}
        let l = lit(PrimitiveBasis::Std, &["00", "01", "10", "11"]);
        let rem = l.factor_fully_spanning(1).unwrap();
        assert_eq!(rem.len(), 2);
        // {'10','11'} = {'1'} (x) {'0','1'}: prefixes {'1'} do not span.
        let l = lit(PrimitiveBasis::Std, &["10", "11"]);
        assert!(l.factor_fully_spanning(1).is_err());
    }

    #[test]
    fn factor_literal_b4() {
        // Fig. 3's final factoring: {'10','11'} = {'1'} (x) {'0','1'}.
        let big = lit(PrimitiveBasis::Std, &["10", "11"]);
        let small = lit(PrimitiveBasis::Std, &["1"]);
        let rem = big.factor_literal(&small).unwrap();
        assert_eq!(rem.normalized().vectors(), lit(PrimitiveBasis::Std, &["0", "1"]).vectors());
        // Wrong prefix set fails.
        let wrong = lit(PrimitiveBasis::Std, &["0"]);
        assert!(big.factor_literal(&wrong).is_err());
        // Different primitive basis fails (Algorithm B4 line 1).
        let pm_small = lit(PrimitiveBasis::Pm, &["1"]);
        assert!(big.factor_literal(&pm_small).is_err());
    }

    #[test]
    fn full_literal_materialization() {
        let f = BasisLiteral::full(PrimitiveBasis::Std, 3).unwrap();
        assert_eq!(f.len(), 8);
        assert!(f.fully_spans());
        assert!(BasisLiteral::full(PrimitiveBasis::Std, 64).is_err());
        assert!(BasisLiteral::full(PrimitiveBasis::Fourier, 2).is_err());
    }

    #[test]
    fn product_adds_phases() {
        let a = BasisLiteral::new(
            PrimitiveBasis::Std,
            vec![BasisVector::with_phase("0".parse().unwrap(), Phase::Const(1.0))],
        )
        .unwrap();
        let b = BasisLiteral::new(
            PrimitiveBasis::Std,
            vec![BasisVector::with_phase("1".parse().unwrap(), Phase::Const(0.5))],
        )
        .unwrap();
        let prod = a.product(&b).unwrap();
        assert_eq!(prod.vectors()[0].phase, Some(Phase::Const(1.5)));
    }
}
