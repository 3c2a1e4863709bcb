//! Assembling the circuit for a basis translation (Fig. 6):
//!
//! ```text
//! Standardize(uncond) · Standardize(cond) · Phases(left)
//!   · Permute std vectors · Phases(right)
//!   · Destandardize(cond) · Destandardize(uncond)
//! ```
//!
//! Conditional stages are controlled on the translation's *predicates* —
//! the aligned identical literal pairs — with X-conjugation to control on
//! 0-eigenbits. Span checking guarantees predicates always sit under
//! unconditional standardizations (§6.3), so predicate controls are plain
//! computational-basis controls here.

use super::align::{align, AlignedPair};
use super::standardize::{standardizations, StdEntry, StdKind};
use crate::error::CoreError;
use asdf_basis::{Basis, BasisElem, Phase, PrimitiveBasis};
use asdf_ir::func::BlockBuilder;
use asdf_ir::{GateKind, Value};
use asdf_logic::{synth as revsynth, Permutation};
use std::f64::consts::PI;

/// Emits the gates realizing `b_in >> b_out` on `qubits` (one SSA qubit
/// value per position), returning the new qubit values.
///
/// `resolve_phase` maps `Phase::Operand(k)` references to concrete angles
/// (the op's `f64` operands, which must be constants by synthesis time).
///
/// # Errors
///
/// Returns [`CoreError::Synthesis`] when alignment or permutation
/// construction fails (which well-typed translations do not trigger).
pub(crate) fn emit_translation(
    bb: &mut BlockBuilder<'_>,
    qubits: Vec<Value>,
    b_in: &Basis,
    b_out: &Basis,
    resolve_phase: &dyn Fn(u32) -> Result<f64, CoreError>,
) -> Result<Vec<Value>, CoreError> {
    assert_eq!(qubits.len(), b_in.dim(), "qubit count must match basis dim");
    let phases_in = collect_phases(b_in, resolve_phase)?;
    let phases_out = collect_phases(b_out, resolve_phase)?;
    let (lstd, rstd) = standardizations(b_in, b_out);
    let aligned = align(b_in, b_out)?;
    let predicates: Vec<&AlignedPair> = aligned.iter().filter(|p| p.is_predicate()).collect();
    let combos = predicate_combinations(&predicates);

    let mut ctx = GateCtx { bb, values: qubits };

    // 1. Unconditional standardizations.
    for entry in lstd.iter().filter(|e| e.kind == StdKind::Unconditional) {
        ctx.standardize(entry, &[], false);
    }
    // 2. Conditional standardizations, once per predicate combination.
    for entry in lstd.iter().filter(|e| e.kind == StdKind::Conditional) {
        for combo in &combos {
            ctx.under_controls(combo.clone(), |ctx, controls| {
                ctx.standardize(entry, controls, false);
            });
        }
    }
    // 3. Left vector phases: translate std-with-phases to plain std.
    for (offset, eigenbits, theta) in &phases_in {
        ctx.vector_phase(*offset, eigenbits, -theta, &combos);
    }
    // 4. Permutation of std basis vectors per aligned pair (Fig. 9).
    for pair in aligned.iter().filter(|p| !p.is_predicate() && !p.is_identity()) {
        let perm = pair_permutation(pair)?;
        let cascade = revsynth::synthesize(&perm);
        for combo in &combos {
            ctx.under_controls(combo.clone(), |ctx, controls| {
                for gate in &cascade.gates {
                    debug_assert!(gate.controls.iter().all(|(_, pos)| *pos));
                    let mut all_controls: Vec<usize> = controls.to_vec();
                    all_controls.extend(gate.controls.iter().map(|(line, _)| pair.offset + line));
                    ctx.gate(GateKind::X, &all_controls, &[pair.offset + gate.target]);
                }
            });
        }
    }
    // 5. Right vector phases: reintroduce output phases.
    for (offset, eigenbits, theta) in &phases_out {
        ctx.vector_phase(*offset, eigenbits, *theta, &combos);
    }
    // 6. Conditional destandardizations.
    for entry in rstd.iter().filter(|e| e.kind == StdKind::Conditional) {
        for combo in &combos {
            ctx.under_controls(combo.clone(), |ctx, controls| {
                ctx.standardize(entry, controls, true);
            });
        }
    }
    // 7. Unconditional destandardizations.
    for entry in rstd.iter().filter(|e| e.kind == StdKind::Unconditional) {
        ctx.standardize(entry, &[], true);
    }

    Ok(ctx.values)
}

/// `(offset, eigenbits, theta)` for every phased vector in the basis.
fn collect_phases(
    basis: &Basis,
    resolve: &dyn Fn(u32) -> Result<f64, CoreError>,
) -> Result<Vec<(usize, Vec<bool>, f64)>, CoreError> {
    let mut out = Vec::new();
    let mut offset = 0usize;
    for elem in basis.elements() {
        if let BasisElem::Literal(lit) = elem {
            for v in lit.vectors() {
                let theta = match v.phase {
                    None => continue,
                    Some(Phase::Const(t)) => t,
                    Some(Phase::Operand(k)) => resolve(k)?,
                };
                out.push((offset, v.eigenbits.iter().collect(), theta));
            }
        }
        offset += elem.dim();
    }
    Ok(out)
}

/// Cartesian product of predicate vectors: each combination is a control
/// pattern `(position, required bit)`. With no predicates there is one
/// empty combination (everything unconditioned).
fn predicate_combinations(predicates: &[&AlignedPair]) -> Vec<Vec<(usize, bool)>> {
    let mut combos: Vec<Vec<(usize, bool)>> = vec![Vec::new()];
    for pred in predicates {
        let BasisElem::Literal(lit) = &pred.elem_in else {
            continue;
        };
        let mut next = Vec::new();
        for combo in &combos {
            for vector in lit.vectors() {
                let mut extended = combo.clone();
                extended.extend(
                    vector.eigenbits.iter().enumerate().map(|(i, bit)| (pred.offset + i, bit)),
                );
                next.push(extended);
            }
        }
        combos = next;
    }
    combos
}

/// The partial permutation an aligned literal pair defines: in-vector k
/// maps to out-vector k; everything else is fixed (§2.2).
fn pair_permutation(pair: &AlignedPair) -> Result<Permutation, CoreError> {
    let (BasisElem::Literal(l), BasisElem::Literal(r)) = (&pair.elem_in, &pair.elem_out) else {
        return Err(CoreError::Synthesis(
            "aligned non-identity pair must be literal vs literal".to_string(),
        ));
    };
    let pairs: Vec<(usize, usize)> = l
        .vectors()
        .iter()
        .zip(r.vectors())
        .map(|(a, b)| (a.eigenbits.value() as usize, b.eigenbits.value() as usize))
        .collect();
    Permutation::from_partial(pair.dim(), &pairs)
        .map_err(|e| CoreError::Synthesis(format!("permutation construction failed: {e}")))
}

use crate::gates::GateCtx;

impl GateCtx<'_, '_> {
    /// Emits the (de)standardization for one Algorithm E6 entry, with
    /// extra controls on every gate.
    fn standardize(&mut self, entry: &StdEntry, controls: &[usize], inverse: bool) {
        let positions: Vec<usize> = (entry.offset..entry.offset + entry.dim).collect();
        match (entry.prim, inverse) {
            (PrimitiveBasis::Std, _) => {}
            (PrimitiveBasis::Pm, _) => {
                for &p in &positions {
                    self.gate(GateKind::H, controls, &[p]);
                }
            }
            (PrimitiveBasis::Ij, false) => {
                // |i> = S H |0>, so standardizing applies Sdg then H.
                for &p in &positions {
                    self.gate(GateKind::Sdg, controls, &[p]);
                    self.gate(GateKind::H, controls, &[p]);
                }
            }
            (PrimitiveBasis::Ij, true) => {
                for &p in &positions {
                    self.gate(GateKind::H, controls, &[p]);
                    self.gate(GateKind::S, controls, &[p]);
                }
            }
            (PrimitiveBasis::Fourier, false) => self.iqft(&positions, controls),
            (PrimitiveBasis::Fourier, true) => self.qft(&positions, controls),
        }
    }

    /// The quantum Fourier transform over `positions` (position 0 most
    /// significant), ending with explicit SWAP gates — ASDF emits real
    /// SWAPs here, unlike Quipper's renaming (§8.3).
    fn qft(&mut self, positions: &[usize], controls: &[usize]) {
        let n = positions.len();
        for i in 0..n {
            self.gate(GateKind::H, controls, &[positions[i]]);
            for j in i + 1..n {
                let theta = PI / (1u64 << (j - i)) as f64;
                let mut all = controls.to_vec();
                all.push(positions[j]);
                self.gate(GateKind::P(theta), &all, &[positions[i]]);
            }
        }
        for i in 0..n / 2 {
            self.gate(GateKind::Swap, controls, &[positions[i], positions[n - 1 - i]]);
        }
    }

    /// Inverse QFT: the exact adjoint of [`Self::qft`].
    fn iqft(&mut self, positions: &[usize], controls: &[usize]) {
        let n = positions.len();
        for i in 0..n / 2 {
            self.gate(GateKind::Swap, controls, &[positions[i], positions[n - 1 - i]]);
        }
        for i in (0..n).rev() {
            for j in (i + 1..n).rev() {
                let theta = -PI / (1u64 << (j - i)) as f64;
                let mut all = controls.to_vec();
                all.push(positions[j]);
                self.gate(GateKind::P(theta), &all, &[positions[i]]);
            }
            self.gate(GateKind::H, controls, &[positions[i]]);
        }
    }

    /// An X-conjugated multi-controlled P(theta) applying the phase to the
    /// std basis state `eigenbits` at `offset` (Fig. 8), under every
    /// predicate combination.
    fn vector_phase(
        &mut self,
        offset: usize,
        eigenbits: &[bool],
        theta: f64,
        combos: &[Vec<(usize, bool)>],
    ) {
        if eigenbits.is_empty() {
            return;
        }
        for combo in combos {
            let mut pattern: Vec<(usize, bool)> = combo.clone();
            pattern.extend(eigenbits.iter().enumerate().map(|(i, &b)| (offset + i, b)));
            // Conflict check happens in under_controls; the phase target is
            // the vector's last qubit.
            let target = offset + eigenbits.len() - 1;
            self.under_controls(pattern, |ctx, positive| {
                let controls: Vec<usize> =
                    positive.iter().copied().filter(|&p| p != target).collect();
                ctx.gate(GateKind::P(theta), &controls, &[target]);
            });
        }
    }
}

/// Convenience for lowering `qbmeas` (§6.1): measuring in basis `b` is the
/// translation `b >> std[n]` followed by standard-basis measurement, which
/// is valid whenever `b` fully spans.
pub(crate) fn emit_measurement_rotation(
    bb: &mut BlockBuilder<'_>,
    qubits: Vec<Value>,
    basis: &Basis,
) -> Result<Vec<Value>, CoreError> {
    if !basis.fully_spans() {
        return Err(CoreError::Unsupported(format!(
            "measurement basis {basis} does not fully span"
        )));
    }
    let std_basis = Basis::built_in(PrimitiveBasis::Std, basis.dim());
    emit_translation(bb, qubits, basis, &std_basis, &|_| {
        Err(CoreError::Synthesis("measurement bases have no phase operands".into()))
    })
}
