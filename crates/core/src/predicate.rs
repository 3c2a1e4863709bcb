//! Predicating basic blocks (§5.3, Fig. 5).
//!
//! `call pred(b) @f(%qb)` requires a form of `@f` that acts only when the
//! predicate qubits lie in `span(b)`. Most ops are rebuilt in place with
//! new predicates (the `Predicatable` behaviour below); the subtlety is
//! *renaming*: Qwerty IR's dataflow semantics lets blocks swap qubits by
//! renaming SSA values, which happens regardless of predication. ASDF runs
//! a qubit-index dataflow analysis over the original block, decomposes the
//! resulting permutation into swaps, and emits an
//! uncontrolled-SWAP/controlled-SWAP pair per swap so renaming is undone
//! outside the predicated subspace.

use crate::error::CoreError;
use crate::gates::GateCtx;
use asdf_basis::{Basis, BasisElem, PrimitiveBasis};
use asdf_ir::clone::ValueMap;
use asdf_ir::func::BlockBuilder;
use asdf_ir::{Func, FuncBuilder, FuncType, GateKind, Op, OpKind, Type, Value, Visibility};

/// Builds the form of `func` predicated on `pred`: a function on
/// `qbundle[M + N]` whose first `M` qubits carry the predicate.
///
/// # Errors
///
/// Returns [`CoreError::Unsupported`] for irreversible or non-predicatable
/// ops.
pub(crate) fn predicate_func(func: &Func, pred: &Basis, new_name: &str) -> Result<Func, CoreError> {
    let n = asdf_ir::verify::rev_qbundle_dim(&func.ty).ok_or_else(|| {
        CoreError::Unsupported(format!(
            "@{} is not qbundle[N] -rev-> qbundle[N]; cannot predicate",
            func.name
        ))
    })?;
    let m = pred.dim();
    let mut builder = FuncBuilder::new(new_name, FuncType::rev_qbundle(m + n), Visibility::Private);
    let arg = builder.args()[0];

    // Run the qubit-index analysis over the ORIGINAL block to find the
    // permutation achieved by renaming (Fig. 5's red indices).
    let perm = renaming_permutation(func, n)?;

    let mut bb = builder.block();
    let all = bb.push(OpKind::QbUnpack, vec![arg], vec![Type::Qubit; m + n]);
    let (pred_qubits, payload) = all.split_at(m);
    let mut pred_qubits = pred_qubits.to_vec();

    // Standardize the predicate qubits so predication is plain
    // computational-basis controls (predicates correspond to unconditional
    // standardizations, §6.3).
    standardize_pred(&mut bb, &mut pred_qubits, pred, false);

    // The predicate control patterns: one per predicate basis vector.
    let pred_patterns = pred_vector_patterns(pred);
    // After entry standardization the predicate lives in std space; ops
    // that splice the predicate into bases must use the std form.
    let std_pred = standardized_basis(pred);

    // Rebuild the body with per-op predication.
    let payload_bundle = bb.push(OpKind::QbPack, payload.to_vec(), vec![Type::QBundle(n)]);
    let mut state =
        PredState { map: ValueMap::new(func), pred_qubits, pred_patterns, pred: &std_pred };
    state.map.insert(func.body.args[0], payload_bundle[0]);

    let terminator = func
        .body
        .terminator()
        .ok_or_else(|| CoreError::Ir(format!("@{} has no terminator", func.name)))?
        .clone();
    for op in &func.body.ops {
        if op.is_terminator() {
            continue;
        }
        state.rebuild_op(func, op, &mut bb)?;
    }

    // Undo renaming swaps outside the predicate space (Fig. 5, bottom
    // right): for each swap, an uncontrolled SWAP followed by a predicated
    // SWAP.
    let final_bundle = state
        .map
        .get(terminator.operands[0])
        .ok_or_else(|| CoreError::Ir("predication lost track of the result bundle".to_string()))?;
    let mut payload_out =
        bb.push(OpKind::QbUnpack, vec![final_bundle], vec![Type::Qubit; n]).into_vec();
    if !perm.iter().enumerate().all(|(i, &p)| i == p) {
        let mut values = state.pred_qubits.clone();
        values.extend(payload_out.iter().copied());
        let mut ctx = GateCtx { bb: &mut bb, values };
        for (a, b) in undo_swaps(&perm) {
            // Positions in ctx are offset by the M predicate qubits.
            ctx.gate(GateKind::Swap, &[], &[m + a, m + b]);
            for pattern in state.pred_patterns.clone() {
                ctx.under_controls(pattern, |ctx, controls| {
                    ctx.gate(GateKind::Swap, controls, &[m + a, m + b]);
                });
            }
        }
        state.pred_qubits = ctx.values[..m].to_vec();
        payload_out = ctx.values[m..].to_vec();
    }

    // Destandardize the predicate qubits and repack.
    standardize_pred(&mut bb, &mut state.pred_qubits, pred, true);
    let mut combined = state.pred_qubits.clone();
    combined.extend(payload_out);
    let packed = bb.push(OpKind::QbPack, combined, vec![Type::QBundle(m + n)]);
    bb.push(OpKind::Return, vec![packed[0]], vec![]);
    Ok(builder.finish())
}

/// The std-space image of a predicate basis: literals keep their eigenbits
/// with a `std` primitive basis; built-ins become `std[N]`.
fn standardized_basis(pred: &Basis) -> Basis {
    let elems = pred
        .elements()
        .iter()
        .map(|e| match e {
            BasisElem::BuiltIn { dim, .. } => BasisElem::built_in(PrimitiveBasis::Std, *dim),
            BasisElem::Literal(lit) => BasisElem::Literal(
                asdf_basis::BasisLiteral::new(PrimitiveBasis::Std, lit.vectors_without_phases())
                    .expect("restripping a valid literal"),
            ),
        })
        .collect();
    Basis::new(elems)
}

/// The per-vector control patterns of a predicate basis, as
/// `(pred-qubit position, required bit)` rows.
fn pred_vector_patterns(pred: &Basis) -> Vec<Vec<(usize, bool)>> {
    let mut patterns: Vec<Vec<(usize, bool)>> = vec![Vec::new()];
    let mut offset = 0usize;
    for elem in pred.elements() {
        match elem {
            BasisElem::Literal(lit) if !lit.fully_spans() => {
                let mut next = Vec::new();
                for base in &patterns {
                    for v in lit.vectors() {
                        let mut row = base.clone();
                        row.extend(v.eigenbits.iter().enumerate().map(|(i, b)| (offset + i, b)));
                        next.push(row);
                    }
                }
                patterns = next;
            }
            // Fully spanning elements impose no constraint.
            _ => {}
        }
        offset += elem.dim();
    }
    patterns
}

/// Standardizes (or destandardizes) the predicate qubits to `std`.
fn standardize_pred(bb: &mut BlockBuilder<'_>, qubits: &mut [Value], pred: &Basis, inverse: bool) {
    let mut ctx = GateCtx { bb, values: qubits.to_vec() };
    let mut offset = 0usize;
    for elem in pred.elements() {
        let positions: Vec<usize> = (offset..offset + elem.dim()).collect();
        match (elem.prim(), inverse) {
            (PrimitiveBasis::Std, _) => {}
            (PrimitiveBasis::Pm, _) => {
                for &p in &positions {
                    ctx.gate(GateKind::H, &[], &[p]);
                }
            }
            (PrimitiveBasis::Ij, false) => {
                for &p in &positions {
                    ctx.gate(GateKind::Sdg, &[], &[p]);
                    ctx.gate(GateKind::H, &[], &[p]);
                }
            }
            (PrimitiveBasis::Ij, true) => {
                for &p in &positions {
                    ctx.gate(GateKind::H, &[], &[p]);
                    ctx.gate(GateKind::S, &[], &[p]);
                }
            }
            (PrimitiveBasis::Fourier, _) => {
                // Predicating on a Fourier-basis literal is not reachable:
                // fourier has no literal syntax, and fully-spanning fourier
                // predicates are rewritten away by AST canonicalization.
            }
        }
        offset += elem.dim();
    }
    qubits.copy_from_slice(&ctx.values);
}

struct PredState<'p> {
    /// Original value -> predicated-function value.
    map: ValueMap,
    pred_qubits: Vec<Value>,
    pred_patterns: Vec<Vec<(usize, bool)>>,
    pred: &'p Basis,
}

impl PredState<'_> {
    fn get(&self, v: Value) -> Result<Value, CoreError> {
        self.map.get(v).ok_or_else(|| CoreError::Ir(format!("predication: value {v} untracked")))
    }

    /// The `Predicatable` behaviour: rebuilds one op with predicates.
    fn rebuild_op(
        &mut self,
        src: &Func,
        op: &Op,
        bb: &mut BlockBuilder<'_>,
    ) -> Result<(), CoreError> {
        match &op.kind {
            // Stationary classical ops are cloned as-is.
            _ if src.op_is_stationary(op) => {
                let operands: Vec<Value> =
                    op.operands.iter().map(|v| self.get(*v)).collect::<Result<_, _>>()?;
                let results: Vec<Value> = op
                    .results
                    .iter()
                    .map(|r| {
                        let fresh = bb.new_value(src.value_type(*r).clone());
                        self.map.insert(*r, fresh);
                        fresh
                    })
                    .collect();
                let mut cloned = Op::new(op.kind.clone(), operands, results);
                cloned.regions = op.regions.clone();
                if !cloned.regions.is_empty() {
                    return Err(CoreError::Unsupported(
                        "cannot predicate ops with regions".to_string(),
                    ));
                }
                bb.push_op(cloned);
                Ok(())
            }
            OpKind::QbTrans { basis_in, basis_out } => {
                // b1 >> b2 becomes pred + b1 >> pred + b2 over the joined
                // bundle (Fig. 5).
                let payload = self.get(op.operands[0])?;
                let Type::QBundle(width) = src.value_type(op.operands[0]).clone() else {
                    return Err(CoreError::Ir("qbtrans operand is not a qbundle".into()));
                };
                let m = self.pred.dim();
                let payload_qubits =
                    bb.push(OpKind::QbUnpack, vec![payload], vec![Type::Qubit; width]);
                let mut joined = self.pred_qubits.clone();
                joined.extend(payload_qubits);
                let bundle = bb.push(OpKind::QbPack, joined, vec![Type::QBundle(m + width)]);
                let mut operands = vec![bundle[0]];
                for phase in &op.operands[1..] {
                    operands.push(self.get(*phase)?);
                }
                // Phase operand indices shift by nothing: indices are
                // positions in the op's f64 list, unchanged.
                let new_b_in = self.pred.tensor(basis_in);
                let new_b_out = self.pred.tensor(basis_out);
                let out = bb.push(
                    OpKind::QbTrans { basis_in: new_b_in, basis_out: new_b_out },
                    operands,
                    vec![Type::QBundle(m + width)],
                );
                let unpacked =
                    bb.push(OpKind::QbUnpack, vec![out[0]], vec![Type::Qubit; m + width]);
                self.pred_qubits = unpacked[..m].to_vec();
                let repacked =
                    bb.push(OpKind::QbPack, unpacked[m..].to_vec(), vec![Type::QBundle(width)]);
                self.map.insert(op.results[0], repacked[0]);
                Ok(())
            }
            OpKind::Gate { gate, num_controls } => {
                // Per-op predication: the predicate qubits become extra
                // controls (one emission per predicate vector).
                let operands: Vec<Value> =
                    op.operands.iter().map(|v| self.get(*v)).collect::<Result<_, _>>()?;
                let m = self.pred_qubits.len();
                let mut values = self.pred_qubits.clone();
                values.extend(operands.iter().copied());
                let mut ctx = GateCtx { bb, values };
                let gate_controls: Vec<usize> = (m..m + num_controls).collect();
                let gate_targets: Vec<usize> = (m + num_controls..m + op.operands.len()).collect();
                for pattern in self.pred_patterns.clone() {
                    ctx.under_controls(pattern, |ctx, pred_controls| {
                        let mut all = pred_controls.to_vec();
                        all.extend(gate_controls.iter().copied());
                        ctx.gate(*gate, &all, &gate_targets);
                    });
                }
                self.pred_qubits = ctx.values[..m].to_vec();
                for (i, r) in op.results.iter().enumerate() {
                    self.map.insert(*r, ctx.values[m + i]);
                }
                Ok(())
            }
            OpKind::QbPack | OpKind::QbUnpack => {
                // Structural ops are unchanged (renaming is handled by the
                // index analysis + swap cleanup).
                let operands: Vec<Value> =
                    op.operands.iter().map(|v| self.get(*v)).collect::<Result<_, _>>()?;
                let results: Vec<Value> = op
                    .results
                    .iter()
                    .map(|r| {
                        let fresh = bb.new_value(src.value_type(*r).clone());
                        self.map.insert(*r, fresh);
                        fresh
                    })
                    .collect();
                bb.push_op(Op::new(op.kind.clone(), operands, results));
                Ok(())
            }
            OpKind::Call { callee, adj, pred: inner_pred } => {
                // call pred(b') @g under predicate b becomes
                // call pred(b + b') @g over the joined bundle.
                let payload = self.get(op.operands[0])?;
                let Type::QBundle(width) = src.value_type(op.operands[0]).clone() else {
                    return Err(CoreError::Ir("call operand is not a qbundle".into()));
                };
                let m = self.pred.dim();
                let payload_qubits =
                    bb.push(OpKind::QbUnpack, vec![payload], vec![Type::Qubit; width]);
                let mut joined = self.pred_qubits.clone();
                joined.extend(payload_qubits);
                let bundle = bb.push(OpKind::QbPack, joined, vec![Type::QBundle(m + width)]);
                let combined = match inner_pred {
                    Some(p) => self.pred.tensor(p),
                    None => self.pred.clone(),
                };
                let out = bb.push(
                    OpKind::Call { callee: callee.clone(), adj: *adj, pred: Some(combined) },
                    vec![bundle[0]],
                    vec![Type::QBundle(m + width)],
                );
                let unpacked =
                    bb.push(OpKind::QbUnpack, vec![out[0]], vec![Type::Qubit; m + width]);
                self.pred_qubits = unpacked[..m].to_vec();
                let repacked =
                    bb.push(OpKind::QbPack, unpacked[m..].to_vec(), vec![Type::QBundle(width)]);
                self.map.insert(op.results[0], repacked[0]);
                Ok(())
            }
            OpKind::CallIndirect => {
                // Wrap the callee with func_pred and call over the joined
                // bundle.
                let callee = self.get(op.operands[0])?;
                let Type::Func(inner_ty) = src.value_type(op.operands[0]).clone() else {
                    return Err(CoreError::Ir("call_indirect callee is not a function".into()));
                };
                let width = asdf_ir::verify::rev_qbundle_dim(&inner_ty).ok_or_else(|| {
                    CoreError::Unsupported(
                        "predicated call_indirect requires a reversible qubit function".to_string(),
                    )
                })?;
                let m = self.pred.dim();
                let pred_fn_ty = FuncType::rev_qbundle(m + width);
                let pred_fn = bb.push(
                    OpKind::FuncPred { pred: self.pred.clone() },
                    vec![callee],
                    vec![Type::func(pred_fn_ty)],
                );
                let payload = self.get(op.operands[1])?;
                let payload_qubits =
                    bb.push(OpKind::QbUnpack, vec![payload], vec![Type::Qubit; width]);
                let mut joined = self.pred_qubits.clone();
                joined.extend(payload_qubits);
                let bundle = bb.push(OpKind::QbPack, joined, vec![Type::QBundle(m + width)]);
                let out = bb.push(
                    OpKind::CallIndirect,
                    vec![pred_fn[0], bundle[0]],
                    vec![Type::QBundle(m + width)],
                );
                let unpacked =
                    bb.push(OpKind::QbUnpack, vec![out[0]], vec![Type::Qubit; m + width]);
                self.pred_qubits = unpacked[..m].to_vec();
                let repacked =
                    bb.push(OpKind::QbPack, unpacked[m..].to_vec(), vec![Type::QBundle(width)]);
                self.map.insert(op.results[0], repacked[0]);
                Ok(())
            }
            OpKind::QAlloc | OpKind::QFreeZ => {
                // Ancillas are predicate-independent (they start and end at
                // |0> either way).
                let operands: Vec<Value> =
                    op.operands.iter().map(|v| self.get(*v)).collect::<Result<_, _>>()?;
                let results: Vec<Value> = op
                    .results
                    .iter()
                    .map(|r| {
                        let fresh = bb.new_value(src.value_type(*r).clone());
                        self.map.insert(*r, fresh);
                        fresh
                    })
                    .collect();
                bb.push_op(Op::new(op.kind.clone(), operands, results));
                Ok(())
            }
            other => {
                Err(CoreError::Unsupported(format!("op {} is not predicatable", other.mnemonic())))
            }
        }
    }
}

/// The §5.3 intraprocedural dataflow analysis: maps each qubit/qbundle
/// value to the qubit indices it carries, returning the output permutation
/// (`result[i]` = original index now at position `i`). Implemented by the
/// lattice framework's `asdf_analysis::QubitIndexAnalysis`, which (unlike
/// the single-block analysis it replaced) also sees through `scf.if`
/// regions.
fn renaming_permutation(func: &Func, n: usize) -> Result<Vec<usize>, CoreError> {
    asdf_analysis::renaming_permutation(func, n).map_err(CoreError::Ir)
}

/// The swaps that restore identity order: applying them in order to a
/// register currently arranged as `perm` yields `0..n`.
fn undo_swaps(perm: &[usize]) -> Vec<(usize, usize)> {
    let mut current = perm.to_vec();
    let mut swaps = Vec::new();
    for i in 0..current.len() {
        while current[i] != i {
            let j = current[i];
            current.swap(i, j);
            swaps.push((i, j));
        }
    }
    swaps
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A block that swaps its two qubits purely by renaming (Fig. 5 left).
    fn renaming_swap_func() -> Func {
        let mut b = FuncBuilder::new("swapper", FuncType::rev_qbundle(2), Visibility::Private);
        let arg = b.args()[0];
        let mut bb = b.block();
        let qs = bb.push(OpKind::QbUnpack, vec![arg], vec![Type::Qubit, Type::Qubit]);
        let packed = bb.push(OpKind::QbPack, vec![qs[1], qs[0]], vec![Type::QBundle(2)]);
        bb.push(OpKind::Return, vec![packed[0]], vec![]);
        b.finish()
    }

    #[test]
    fn index_analysis_detects_renaming() {
        let func = renaming_swap_func();
        let perm = renaming_permutation(&func, 2).unwrap();
        assert_eq!(perm, vec![1, 0]);
        assert_eq!(undo_swaps(&perm), vec![(0, 1)]);
    }

    #[test]
    fn predicated_renaming_emits_swap_pairs() {
        let func = renaming_swap_func();
        let pred: Basis = "{'1'}".parse().unwrap();
        let predicated = predicate_func(&func, &pred, "swapper_pred").unwrap();
        asdf_ir::verify::verify_func(&predicated, None).unwrap();
        assert_eq!(predicated.ty, FuncType::rev_qbundle(3));
        let swaps: Vec<usize> = predicated
            .body
            .ops
            .iter()
            .filter_map(|op| match op.kind {
                OpKind::Gate { gate: GateKind::Swap, num_controls } => Some(num_controls),
                _ => None,
            })
            .collect();
        assert_eq!(swaps, vec![0, 1], "uncontrolled swap then predicated swap");
    }

    #[test]
    fn gates_gain_pred_controls() {
        let mut b = FuncBuilder::new("flip", FuncType::rev_qbundle(1), Visibility::Private);
        let arg = b.args()[0];
        let mut bb = b.block();
        let q = bb.push(OpKind::QbUnpack, vec![arg], vec![Type::Qubit]);
        let x = bb.push(
            OpKind::Gate { gate: GateKind::X, num_controls: 0 },
            vec![q[0]],
            vec![Type::Qubit],
        );
        let packed = bb.push(OpKind::QbPack, vec![x[0]], vec![Type::QBundle(1)]);
        bb.push(OpKind::Return, vec![packed[0]], vec![]);
        let func = b.finish();

        let pred: Basis = "{'11'}".parse().unwrap();
        let predicated = predicate_func(&func, &pred, "flip_pred").unwrap();
        asdf_ir::verify::verify_func(&predicated, None).unwrap();
        // The X gained two controls.
        assert!(predicated
            .body
            .ops
            .iter()
            .any(|op| matches!(op.kind, OpKind::Gate { gate: GateKind::X, num_controls: 2 })));
    }

    #[test]
    fn multi_vector_predicate_replays_gates() {
        let mut b = FuncBuilder::new("flip", FuncType::rev_qbundle(1), Visibility::Private);
        let arg = b.args()[0];
        let mut bb = b.block();
        let q = bb.push(OpKind::QbUnpack, vec![arg], vec![Type::Qubit]);
        let x = bb.push(
            OpKind::Gate { gate: GateKind::X, num_controls: 0 },
            vec![q[0]],
            vec![Type::Qubit],
        );
        let packed = bb.push(OpKind::QbPack, vec![x[0]], vec![Type::QBundle(1)]);
        bb.push(OpKind::Return, vec![packed[0]], vec![]);
        let func = b.finish();

        let pred: Basis = "{'00','11'}".parse().unwrap();
        let predicated = predicate_func(&func, &pred, "flip_pred2").unwrap();
        asdf_ir::verify::verify_func(&predicated, None).unwrap();
        let controlled_x = predicated
            .body
            .ops
            .iter()
            .filter(|op| matches!(op.kind, OpKind::Gate { gate: GateKind::X, num_controls: 2 }))
            .count();
        assert_eq!(controlled_x, 2, "one CCX per predicate vector");
    }

    #[test]
    fn qbtrans_predication_extends_bases() {
        let mut b = FuncBuilder::new("tr", FuncType::rev_qbundle(1), Visibility::Private);
        let arg = b.args()[0];
        let mut bb = b.block();
        let t = bb.push(
            OpKind::QbTrans { basis_in: "std".parse().unwrap(), basis_out: "pm".parse().unwrap() },
            vec![arg],
            vec![Type::QBundle(1)],
        );
        bb.push(OpKind::Return, vec![t[0]], vec![]);
        let func = b.finish();

        let pred: Basis = "{'111'}".parse().unwrap();
        let predicated = predicate_func(&func, &pred, "tr_pred").unwrap();
        asdf_ir::verify::verify_func(&predicated, None).unwrap();
        let trans = predicated
            .body
            .ops
            .iter()
            .find_map(|op| match &op.kind {
                OpKind::QbTrans { basis_in, basis_out } => Some((basis_in, basis_out)),
                _ => None,
            })
            .unwrap();
        assert_eq!(trans.0.to_string(), "{'111'} + std");
        assert_eq!(trans.1.to_string(), "{'111'} + pm");
    }
}
