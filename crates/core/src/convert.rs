//! Qwerty IR → QCircuit IR dialect conversion (§6.1).
//!
//! Rewrite-pattern flavored conversion: `qbprep` decomposes into `qalloc`s
//! plus H/S/X gates; `qbdiscard` into `qfree`s; `qbmeas` into a
//! standardizing translation plus per-qubit `measure`; `qbtrans` into the
//! full basis-translation synthesis of §6.3; function-value ops into QIR
//! callable ops ("Asdf is the first MLIR-based compiler to generate QIR
//! callables"). Direct `call`s and `scf.if`s survive to codegen (the QIR
//! Unrestricted profile supports both).

use crate::error::CoreError;
use crate::gates::GateCtx;
use crate::synth::translate::{emit_measurement_rotation, emit_translation};
use asdf_basis::{Eigenstate, PrimitiveBasis};
use asdf_ir::clone::ValueMap;
use asdf_ir::func::BlockBuilder;
use asdf_ir::{Func, FuncBuilder, GateKind, Module, Op, OpKind, Type, Value};

/// Converts every function in the module from Qwerty ops to QCircuit ops.
///
/// # Errors
///
/// Returns [`CoreError::Unsupported`] for leftover `lambda` ops (lambda
/// lifting must run first) and synthesis failures.
pub(crate) fn convert_module(module: &mut Module) -> Result<(), CoreError> {
    for name in module.func_names() {
        let func = module.expect_func(&name)?.clone();
        let converted = convert_func(&func)?;
        module.add_func(converted);
    }
    Ok(())
}

fn convert_func(src: &Func) -> Result<Func, CoreError> {
    let mut builder = FuncBuilder::new(src.name.clone(), src.ty.clone(), src.visibility);
    let args = builder.args().to_vec();
    let mut map = ValueMap::new(src);
    for (&arg, new_arg) in src.body.args.iter().zip(args) {
        map.insert(arg, new_arg);
    }
    let mut bb = builder.block();
    convert_ops(src, &src.body.ops, &mut bb, &mut map)?;
    Ok(builder.finish())
}

fn convert_ops(
    src: &Func,
    ops: &[Op],
    bb: &mut BlockBuilder<'_>,
    map: &mut ValueMap,
) -> Result<(), CoreError> {
    for op in ops {
        convert_op(src, op, bb, map)?;
    }
    Ok(())
}

fn get(map: &ValueMap, v: Value) -> Result<Value, CoreError> {
    map.get(v).ok_or_else(|| CoreError::Ir(format!("conversion lost track of value {v}")))
}

fn convert_op(
    src: &Func,
    op: &Op,
    bb: &mut BlockBuilder<'_>,
    map: &mut ValueMap,
) -> Result<(), CoreError> {
    // Every QCircuit op emitted for this Qwerty op inherits its source
    // span, so post-conversion lints still point at the frontend source.
    bb.set_span(op.span);
    match &op.kind {
        OpKind::QbPrep { prim, eigenstate, dim } => {
            let mut qubits = Vec::with_capacity(*dim);
            for _ in 0..*dim {
                qubits.push(bb.push(OpKind::QAlloc, vec![], vec![Type::Qubit])[0]);
            }
            let mut ctx = GateCtx { bb, values: qubits };
            for pos in 0..*dim {
                prep_gates(&mut ctx, pos, *prim, *eigenstate)?;
            }
            let qubits = ctx.values;
            let packed = bb.push(OpKind::QbPack, qubits, vec![Type::QBundle(*dim)]);
            map.insert(op.results[0], packed[0]);
            Ok(())
        }
        OpKind::QbDiscard | OpKind::QbDiscardZ => {
            let bundle = get(map, op.operands[0])?;
            let Type::QBundle(n) = bb.value_type(bundle).clone() else {
                return Err(CoreError::Ir("discard of a non-bundle".into()));
            };
            let qubits = bb.push(OpKind::QbUnpack, vec![bundle], vec![Type::Qubit; n]);
            let free_kind =
                if matches!(op.kind, OpKind::QbDiscard) { OpKind::QFree } else { OpKind::QFreeZ };
            for q in qubits {
                bb.push(free_kind.clone(), vec![q], vec![]);
            }
            Ok(())
        }
        OpKind::QbMeas { basis } => {
            let bundle = get(map, op.operands[0])?;
            let n = basis.dim();
            let qubits = bb.push(OpKind::QbUnpack, vec![bundle], vec![Type::Qubit; n]);
            let rotated = emit_measurement_rotation(bb, qubits.into_vec(), basis)?;
            let mut bits = Vec::with_capacity(n);
            for q in rotated {
                let mr = bb.push(OpKind::Measure, vec![q], vec![Type::Qubit, Type::I1]);
                // Measured qubits are released (their state is classical
                // now); qfree performs the reset.
                bb.push(OpKind::QFree, vec![mr[0]], vec![]);
                bits.push(mr[1]);
            }
            let packed = bb.push(OpKind::BitPack, bits, vec![Type::BitBundle(n)]);
            map.insert(op.results[0], packed[0]);
            Ok(())
        }
        OpKind::QbTrans { basis_in, basis_out } => {
            let bundle = get(map, op.operands[0])?;
            let n = basis_in.dim();
            // Resolve phase operands to constants.
            let mut angles: Vec<Option<f64>> = Vec::new();
            for phase_value in &op.operands[1..] {
                angles.push(constant_angle(src, *phase_value));
            }
            let qubits = bb.push(OpKind::QbUnpack, vec![bundle], vec![Type::Qubit; n]);
            let resolve = |k: u32| -> Result<f64, CoreError> {
                angles.get(k as usize).copied().flatten().ok_or_else(|| {
                    CoreError::Synthesis(format!(
                        "phase operand {k} is not a compile-time constant"
                    ))
                })
            };
            let out = emit_translation(bb, qubits.into_vec(), basis_in, basis_out, &resolve)?;
            let packed = bb.push(OpKind::QbPack, out, vec![Type::QBundle(n)]);
            map.insert(op.results[0], packed[0]);
            Ok(())
        }
        OpKind::FuncConst { symbol } => {
            let callable = bb.push(
                OpKind::CallableCreate { symbol: symbol.clone() },
                vec![],
                vec![Type::Callable],
            );
            map.insert(op.results[0], callable[0]);
            Ok(())
        }
        OpKind::FuncAdj => {
            let inner = get(map, op.operands[0])?;
            let out = bb.push(OpKind::CallableAdjoint, vec![inner], vec![Type::Callable]);
            map.insert(op.results[0], out[0]);
            Ok(())
        }
        OpKind::FuncPred { pred } => {
            let inner = get(map, op.operands[0])?;
            let out = bb.push(
                OpKind::CallableControl { extra: pred.dim() },
                vec![inner],
                vec![Type::Callable],
            );
            map.insert(op.results[0], out[0]);
            Ok(())
        }
        OpKind::CallIndirect => {
            let operands: Vec<Value> =
                op.operands.iter().map(|v| get(map, *v)).collect::<Result<_, _>>()?;
            let result_tys: Vec<Type> =
                op.results.iter().map(|r| src.value_type(*r).clone()).collect();
            let results = bb.push(OpKind::CallableInvoke, operands, result_tys);
            for (old, new) in op.results.iter().zip(results) {
                map.insert(*old, new);
            }
            Ok(())
        }
        OpKind::Lambda { .. } => Err(CoreError::Unsupported(
            "lambda survived to conversion; run lambda lifting first".to_string(),
        )),
        OpKind::ScfIf => {
            // Convert each region recursively.
            let operands: Vec<Value> =
                op.operands.iter().map(|v| get(map, *v)).collect::<Result<_, _>>()?;
            let mut regions = Vec::with_capacity(op.regions.len());
            for src_block in &op.regions {
                let mut err = None;
                let block = bb.subblock(vec![], |inner| {
                    if let Err(e) = convert_ops(src, &src_block.ops, inner, map) {
                        err = Some(e);
                    }
                });
                if let Some(e) = err {
                    return Err(e);
                }
                regions.push(block);
            }
            // The branches yield a function value as the callable that
            // `callable_create` and the callable modifiers produce.
            let result_tys: Vec<Type> = op
                .results
                .iter()
                .map(|r| match src.value_type(*r) {
                    Type::Func(_) => Type::Callable,
                    ty => ty.clone(),
                })
                .collect();
            let results = bb.push_with_regions(OpKind::ScfIf, operands, result_tys, regions);
            for (old, new) in op.results.iter().zip(results) {
                map.insert(*old, new);
            }
            Ok(())
        }
        // Everything else carries over with remapped values.
        _ => {
            let operands: Vec<Value> =
                op.operands.iter().map(|v| get(map, *v)).collect::<Result<_, _>>()?;
            let results: Vec<Value> = op
                .results
                .iter()
                .map(|r| {
                    let fresh = bb.new_value(src.value_type(*r).clone());
                    map.insert(*r, fresh);
                    fresh
                })
                .collect();
            bb.push_op(Op::new(op.kind.clone(), operands, results));
            Ok(())
        }
    }
}

/// Emits the preparation gates for one qubit of a `qbprep` (from |0>).
fn prep_gates(
    ctx: &mut GateCtx<'_, '_>,
    pos: usize,
    prim: PrimitiveBasis,
    eigenstate: Eigenstate,
) -> Result<(), CoreError> {
    let minus = eigenstate == Eigenstate::Minus;
    match prim {
        PrimitiveBasis::Std => {
            if minus {
                ctx.gate(GateKind::X, &[], &[pos]);
            }
        }
        PrimitiveBasis::Pm => {
            if minus {
                ctx.gate(GateKind::X, &[], &[pos]);
            }
            ctx.gate(GateKind::H, &[], &[pos]);
        }
        PrimitiveBasis::Ij => {
            if minus {
                ctx.gate(GateKind::X, &[], &[pos]);
            }
            ctx.gate(GateKind::H, &[], &[pos]);
            ctx.gate(GateKind::S, &[], &[pos]);
        }
        PrimitiveBasis::Fourier => {
            return Err(CoreError::Unsupported(
                "fourier eigenstates have no literal syntax to prepare".to_string(),
            ))
        }
    }
    Ok(())
}

/// Resolves a value to a constant angle by chasing its defining op through
/// constant-foldable arith (after inlining, phases are `arith.constant`s).
fn constant_angle(func: &Func, v: Value) -> Option<f64> {
    fn eval(func: &Func, v: Value, depth: usize) -> Option<f64> {
        if depth > 64 {
            return None;
        }
        for path in func.block_paths() {
            for op in &func.block_at(&path).ops {
                if op.results.contains(&v) {
                    return match &op.kind {
                        OpKind::ConstF64 { value } => Some(*value),
                        OpKind::FAdd => Some(
                            eval(func, op.operands[0], depth + 1)?
                                + eval(func, op.operands[1], depth + 1)?,
                        ),
                        OpKind::FSub => Some(
                            eval(func, op.operands[0], depth + 1)?
                                - eval(func, op.operands[1], depth + 1)?,
                        ),
                        OpKind::FMul => Some(
                            eval(func, op.operands[0], depth + 1)?
                                * eval(func, op.operands[1], depth + 1)?,
                        ),
                        OpKind::FDiv => Some(
                            eval(func, op.operands[0], depth + 1)?
                                / eval(func, op.operands[1], depth + 1)?,
                        ),
                        OpKind::FNeg => Some(-eval(func, op.operands[0], depth + 1)?),
                        _ => None,
                    };
                }
            }
        }
        None
    }
    eval(func, v, 0)
}
