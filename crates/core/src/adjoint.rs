//! Taking the adjoint of basic blocks (§5.2, Fig. 4).
//!
//! "The Qwerty compiler can traverse the def-use DAG in a basic block
//! backwards from the block terminator, calling buildAdjoint() on each op
//! encountered to rebuild a reversed form top-down. Classical operations
//! ... are *stationary* because they remain in-place even if the rest of
//! the DAG (the quantum portion) is inverted around them."
//!
//! The op interface is behaviour keyed on [`OpKind`] (the statically
//! registered dialect set), not a hardcoded op list: any op whose kind has
//! an adjoint form participates.

use crate::error::CoreError;
use asdf_ir::clone::{clone_ops_into, ValueMap};
use asdf_ir::{Func, FuncBuilder, Op, OpKind, Type, Value, Visibility};

/// Builds the adjoint of a single-block reversible function
/// (`qbundle[N] -rev-> qbundle[N]`).
///
/// # Errors
///
/// Returns [`CoreError::Unsupported`] for irreversible ops (measurement,
/// discard) or shapes outside the reversible contract.
pub(crate) fn adjoint_func(func: &Func, new_name: &str) -> Result<Func, CoreError> {
    let n = asdf_ir::verify::rev_qbundle_dim(&func.ty).ok_or_else(|| {
        CoreError::Unsupported(format!(
            "@{} is not qbundle[N] -rev-> qbundle[N]; cannot adjoint",
            func.name
        ))
    })?;
    let Some(terminator) = func.body.terminator() else {
        return Err(CoreError::Ir(format!("@{} has no terminator", func.name)));
    };
    if !matches!(terminator.kind, OpKind::Return) {
        return Err(CoreError::Ir(format!("@{} does not end in return", func.name)));
    }

    let builder = FuncBuilder::new(new_name, func.ty.clone(), Visibility::Private);
    let adj_arg = builder.args()[0];
    let mut out = builder.finish();

    // 1. Stationary ops are cloned in original order (Fig. 4's yellow box).
    let mut stat_map = ValueMap::new(func);
    let stationary: Vec<Op> =
        func.body.ops.iter().filter(|op| func.op_is_stationary(op)).cloned().collect();
    let mut new_ops = clone_ops_into(func, &stationary, &mut out, &mut stat_map);

    // 2. Quantum ops are rebuilt in reverse. `adj` maps an original value
    //    to the adjoint-function value carrying the same wire.
    let mut adj = ValueMap::new(func);
    adj.insert(terminator.operands[0], adj_arg);

    for op in func.body.ops.iter().rev() {
        if func.op_is_stationary(op) || op.is_terminator() {
            continue;
        }
        let built = build_adjoint_op(func, op, &mut out, &mut adj, &stat_map)?;
        new_ops.extend(built);
    }

    // 3. The original argument's wire is the adjoint's result.
    let result = adj.get(func.body.args[0]).ok_or_else(|| {
        CoreError::Ir(format!("@{}: argument wire not reconstructed during adjoint", func.name))
    })?;
    new_ops.push(Op::new(OpKind::Return, vec![result], vec![]));
    out.body.ops = new_ops;
    debug_assert_eq!(out.ty, asdf_ir::FuncType::rev_qbundle(n));
    Ok(out)
}

/// Builds the adjoint of one non-stationary op: inputs come from the
/// adjoint wires of the original op's results; outputs define the adjoint
/// wires of the original op's operands.
fn build_adjoint_op(
    src: &Func,
    op: &Op,
    out: &mut Func,
    adj: &mut ValueMap,
    stat_map: &ValueMap,
) -> Result<Vec<Op>, CoreError> {
    // Gather adjoint values for every (linear) result.
    let take = |adj: &mut ValueMap, v: Value| -> Result<Value, CoreError> {
        adj.remove(v).ok_or_else(|| {
            CoreError::Ir(format!("adjoint: result wire {v} of {} unknown", op.kind.mnemonic()))
        })
    };

    match &op.kind {
        OpKind::QbTrans { basis_in, basis_out } => {
            // ~(b1 >> b2) = b2 >> b1; phase operands are stationary values.
            let input = take(adj, op.results[0])?;
            let mut operands = vec![input];
            for phase in &op.operands[1..] {
                operands.push(map_stationary(*phase, stat_map)?);
            }
            let result = out.new_value(src.value_type(op.results[0]).clone());
            adj.insert(op.operands[0], result);
            Ok(vec![Op::new(
                OpKind::QbTrans { basis_in: basis_out.clone(), basis_out: basis_in.clone() },
                operands,
                vec![result],
            )])
        }
        OpKind::QbPack => {
            // Adjoint of pack is unpack.
            let input = take(adj, op.results[0])?;
            let results: Vec<Value> = op
                .operands
                .iter()
                .map(|v| {
                    let fresh = out.new_value(src.value_type(*v).clone());
                    adj.insert(*v, fresh);
                    fresh
                })
                .collect();
            Ok(vec![Op::new(OpKind::QbUnpack, vec![input], results)])
        }
        OpKind::QbUnpack => {
            let inputs: Vec<Value> =
                op.results.iter().map(|r| take(adj, *r)).collect::<Result<_, _>>()?;
            let result = out.new_value(src.value_type(op.operands[0]).clone());
            adj.insert(op.operands[0], result);
            Ok(vec![Op::new(OpKind::QbPack, inputs, vec![result])])
        }
        OpKind::Gate { gate, num_controls } => {
            let inputs: Vec<Value> =
                op.results.iter().map(|r| take(adj, *r)).collect::<Result<_, _>>()?;
            let results: Vec<Value> = op
                .operands
                .iter()
                .map(|v| {
                    let fresh = out.new_value(Type::Qubit);
                    adj.insert(*v, fresh);
                    fresh
                })
                .collect();
            Ok(vec![Op::new(
                OpKind::Gate { gate: gate.adjoint(), num_controls: *num_controls },
                inputs,
                results,
            )])
        }
        OpKind::QAlloc => {
            // Reversed allocation: the wire ends here, assumed |0>.
            let input = take(adj, op.results[0])?;
            Ok(vec![Op::new(OpKind::QFreeZ, vec![input], vec![])])
        }
        OpKind::QFreeZ => {
            // Reversed free-as-zero: allocate a fresh |0>.
            let result = out.new_value(Type::Qubit);
            adj.insert(op.operands[0], result);
            Ok(vec![Op::new(OpKind::QAlloc, vec![], vec![result])])
        }
        OpKind::Call { callee, adj: was_adj, pred } => {
            let input = take(adj, op.results[0])?;
            let result = out.new_value(src.value_type(op.results[0]).clone());
            adj.insert(op.operands[0], result);
            Ok(vec![Op::new(
                OpKind::Call { callee: callee.clone(), adj: !was_adj, pred: pred.clone() },
                vec![input],
                vec![result],
            )])
        }
        OpKind::CallIndirect => {
            // call_indirect %f(%qb) reverses to
            // call_indirect (func_adj %f)(%qb').
            let callee = map_stationary(op.operands[0], stat_map)?;
            let callee_ty = src.value_type(op.operands[0]).clone();
            let adj_callee = out.new_value(callee_ty);
            let input = take(adj, op.results[0])?;
            let result = out.new_value(src.value_type(op.results[0]).clone());
            adj.insert(op.operands[1], result);
            Ok(vec![
                Op::new(OpKind::FuncAdj, vec![callee], vec![adj_callee]),
                Op::new(OpKind::CallIndirect, vec![adj_callee, input], vec![result]),
            ])
        }
        OpKind::QbPrep { .. }
        | OpKind::QbMeas { .. }
        | OpKind::QbDiscard
        | OpKind::QFree
        | OpKind::Measure => Err(CoreError::Unsupported(format!(
            "op {} has no adjoint form (irreversible)",
            op.kind.mnemonic()
        ))),
        other => Err(CoreError::Unsupported(format!("op {} is not adjointable", other.mnemonic()))),
    }
}

fn map_stationary(v: Value, stat_map: &ValueMap) -> Result<Value, CoreError> {
    stat_map.get(v).ok_or_else(|| {
        CoreError::Ir(format!("adjoint: classical operand {v} is not defined by a stationary op"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use asdf_ir::{FuncType, GateKind};

    /// Builds `qbundle[1]` function applying S then T (so the adjoint must
    /// apply Tdg then Sdg).
    fn st_func() -> Func {
        let mut b = FuncBuilder::new("st", FuncType::rev_qbundle(1), Visibility::Private);
        let arg = b.args()[0];
        let mut bb = b.block();
        let q = bb.push(OpKind::QbUnpack, vec![arg], vec![Type::Qubit]);
        let s = bb.push(
            OpKind::Gate { gate: GateKind::S, num_controls: 0 },
            vec![q[0]],
            vec![Type::Qubit],
        );
        let t = bb.push(
            OpKind::Gate { gate: GateKind::T, num_controls: 0 },
            vec![s[0]],
            vec![Type::Qubit],
        );
        let packed = bb.push(OpKind::QbPack, vec![t[0]], vec![Type::QBundle(1)]);
        bb.push(OpKind::Return, vec![packed[0]], vec![]);
        b.finish()
    }

    #[test]
    fn gate_order_reverses_and_adjoints() {
        let func = st_func();
        let adj = adjoint_func(&func, "st_adj").unwrap();
        asdf_ir::verify::verify_func(&adj, None).unwrap();
        let gates: Vec<GateKind> = adj
            .body
            .ops
            .iter()
            .filter_map(|op| match op.kind {
                OpKind::Gate { gate, .. } => Some(gate),
                _ => None,
            })
            .collect();
        assert_eq!(gates, vec![GateKind::Tdg, GateKind::Sdg]);
    }

    #[test]
    fn stationary_ops_stay_in_place() {
        // A translation with a computed phase: the arith ops must appear in
        // original (forward) order in the adjoint (Fig. 4).
        let mut b = FuncBuilder::new("ph", FuncType::rev_qbundle(1), Visibility::Private);
        let arg = b.args()[0];
        let mut bb = b.block();
        let pi = bb.push(OpKind::ConstF64 { value: std::f64::consts::PI }, vec![], vec![Type::F64]);
        let two = bb.push(OpKind::ConstF64 { value: 2.0 }, vec![], vec![Type::F64]);
        let half = bb.push(OpKind::FDiv, vec![pi[0], two[0]], vec![Type::F64]);
        let b_in: asdf_basis::Basis = "{'0','1'@90}".parse().unwrap();
        // Rewrite the constant phase as an operand reference.
        let b_in = {
            use asdf_basis::{BasisLiteral, BasisVector, Phase};
            let lit = BasisLiteral::new(
                asdf_basis::PrimitiveBasis::Std,
                vec![
                    BasisVector::new("0".parse().unwrap()),
                    BasisVector::with_phase("1".parse().unwrap(), Phase::Operand(0)),
                ],
            )
            .unwrap();
            let _ = b_in;
            asdf_basis::Basis::literal(lit)
        };
        let b_out: asdf_basis::Basis = "std".parse().unwrap();
        let t = bb.push(
            OpKind::QbTrans { basis_in: b_in.clone(), basis_out: b_out.clone() },
            vec![arg, half[0]],
            vec![Type::QBundle(1)],
        );
        bb.push(OpKind::Return, vec![t[0]], vec![]);
        let func = b.finish();
        asdf_ir::verify::verify_func(&func, None).unwrap();

        let adj = adjoint_func(&func, "ph_adj").unwrap();
        asdf_ir::verify::verify_func(&adj, None).unwrap();
        // Stationary ops first, in forward order.
        assert!(matches!(adj.body.ops[0].kind, OpKind::ConstF64 { .. }));
        assert!(matches!(adj.body.ops[2].kind, OpKind::FDiv));
        // The translation's bases are swapped.
        let trans = adj
            .body
            .ops
            .iter()
            .find_map(|op| match &op.kind {
                OpKind::QbTrans { basis_in, basis_out } => Some((basis_in, basis_out)),
                _ => None,
            })
            .unwrap();
        assert_eq!(trans.0.to_string(), "std");
    }

    #[test]
    fn ancilla_alloc_free_swap() {
        let mut b = FuncBuilder::new("anc", FuncType::rev_qbundle(1), Visibility::Private);
        let arg = b.args()[0];
        let mut bb = b.block();
        let q = bb.push(OpKind::QbUnpack, vec![arg], vec![Type::Qubit]);
        let anc = bb.push(OpKind::QAlloc, vec![], vec![Type::Qubit]);
        let g = bb.push(
            OpKind::Gate { gate: GateKind::X, num_controls: 1 },
            vec![q[0], anc[0]],
            vec![Type::Qubit, Type::Qubit],
        );
        bb.push_op(Op::new(OpKind::QFreeZ, vec![g[1]], vec![]));
        let packed = bb.push(OpKind::QbPack, vec![g[0]], vec![Type::QBundle(1)]);
        bb.push(OpKind::Return, vec![packed[0]], vec![]);
        let func = b.finish();
        asdf_ir::verify::verify_func(&func, None).unwrap();

        let adj = adjoint_func(&func, "anc_adj").unwrap();
        asdf_ir::verify::verify_func(&adj, None).unwrap();
        let kinds: Vec<&'static str> = adj.body.ops.iter().map(|op| op.kind.mnemonic()).collect();
        assert!(kinds.contains(&"qcirc.qalloc"));
        assert!(kinds.contains(&"qcirc.qfreez"));
    }

    #[test]
    fn measurement_is_not_adjointable() {
        let mut b = FuncBuilder::new(
            "m",
            FuncType::new(vec![Type::QBundle(1)], vec![Type::QBundle(1)], true),
            Visibility::Private,
        );
        let arg = b.args()[0];
        let mut bb = b.block();
        let meas = bb.push(
            OpKind::QbMeas {
                basis: asdf_basis::Basis::built_in(asdf_basis::PrimitiveBasis::Std, 1),
            },
            vec![arg],
            vec![Type::BitBundle(1)],
        );
        let _ = meas;
        let fresh = bb.push(
            OpKind::QbPrep {
                prim: asdf_basis::PrimitiveBasis::Std,
                eigenstate: asdf_basis::Eigenstate::Plus,
                dim: 1,
            },
            vec![],
            vec![Type::QBundle(1)],
        );
        bb.push(OpKind::Return, vec![fresh[0]], vec![]);
        let func = b.finish();
        assert!(adjoint_func(&func, "m_adj").is_err());
    }
}
