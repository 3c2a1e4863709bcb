//! Lowering the typed Qwerty AST to Qwerty IR (§5.1).
//!
//! Structural notes straight from the paper:
//!
//! - tensor products have no IR op: qbundles are `qbunpack`ed and repacked,
//!   and functions are tensored "by generating a lambda op that unpacks the
//!   input qbundle, calls both functions with repacked arguments, unpacks
//!   the result of each, and then returns a repacked combined qbundle";
//! - `b1 >> b2` is a *function value* in Qwerty but `qbtrans` is merely an
//!   op, so translations (and `b.measure`, etc.) are wrapped in lambdas;
//! - "the initial Qwerty IR produced by the AST walk will never contain
//!   call ops, only call_indirect ops, since the Qwerty pipe operator |
//!   calls function values, not symbol names".

use crate::classical::{sign_func, xor_func};
use crate::error::CoreError;
use asdf_ast::tast::{TExpr, TExprKind, TKernel, TStmt};
use asdf_ast::types::{Type as AstType, ValueKind};
use asdf_basis::{Basis, BasisElem, BasisLiteral, Phase};
use asdf_ir::func::BlockBuilder;
use asdf_ir::{FuncBuilder, FuncType, Module, OpKind, Type, Value, Visibility};
use std::collections::HashMap;

/// Lowers one typed kernel (and the classical functions it embeds) into
/// the module.
///
/// # Errors
///
/// Returns [`CoreError`] when an embedding cannot be synthesized or an
/// unsupported construct is reached.
pub fn lower_kernel(kernel: &TKernel, module: &mut Module) -> Result<(), CoreError> {
    // Generate the classical embeddings this kernel actually uses.
    let mut classical_names: Vec<ClassicalNames> =
        vec![ClassicalNames::default(); kernel.classical.len()];
    let mut uses = Vec::new();
    for stmt in &kernel.body {
        let e = match stmt {
            TStmt::Let { value, .. } => value,
            TStmt::Expr(e) => e,
        };
        collect_classical_uses(e, &mut uses);
    }
    for (idx, wants_sign) in uses {
        let tc = &kernel.classical[idx];
        let slot = &mut classical_names[idx];
        if wants_sign && slot.sign.is_none() {
            let name = module.fresh_name(&format!("{}_sign", tc.name));
            module.add_func(sign_func(&name, tc)?);
            slot.sign = Some(name);
        }
        if !wants_sign && slot.xor.is_none() {
            let name = module.fresh_name(&format!("{}_xor", tc.name));
            module.add_func(xor_func(&name, tc)?);
            slot.xor = Some(name);
        }
    }

    let inputs: Vec<Type> = kernel.params.iter().map(|(_, k)| map_kind(*k)).collect();
    // Reversibility must agree with how the type checker types kernel
    // references: a qubit[N] -> qubit[N] kernel is callable reversibly.
    let total_in: usize = kernel.params.iter().map(|(_, k)| k.width()).sum();
    let reversible = kernel.params.iter().all(|(_, k)| matches!(k, ValueKind::Qubit(_)))
        && kernel.ret == ValueKind::Qubit(total_in);
    let ty = FuncType::new(inputs, vec![map_kind(kernel.ret)], reversible);
    let mut builder = FuncBuilder::new(kernel.name.clone(), ty, Visibility::Public);

    let mut ctx = LowerCtx { env: HashMap::new(), classical_names, lambda_count: 0 };
    for ((name, _), value) in kernel.params.iter().zip(builder.args().to_vec()) {
        ctx.env.insert(name.clone(), value);
    }

    let mut bb = builder.block();
    for stmt in &kernel.body {
        match stmt {
            TStmt::Let { names, value } => {
                let v = ctx.lower_value(&mut bb, value)?;
                ctx.bind_let(&mut bb, names, v, value)?;
            }
            TStmt::Expr(e) => {
                let v = ctx.lower_value(&mut bb, e)?;
                bb.push(OpKind::Return, vec![v], vec![]);
            }
        }
    }
    module.add_func(builder.finish());
    Ok(())
}

/// Converts a frontend byte span to the IR form stamped onto ops.
fn src_span(span: asdf_ast::diag::Span) -> asdf_ir::SrcSpan {
    asdf_ir::SrcSpan::new(span.start as u32, span.end as u32)
}

/// Maps an AST value kind to an IR type.
pub(crate) fn map_kind(kind: ValueKind) -> Type {
    match kind {
        ValueKind::Qubit(n) => Type::QBundle(n),
        ValueKind::Bit(n) => Type::BitBundle(n),
    }
}

/// Maps an AST function type to an IR function type.
pub(crate) fn map_func_type(ty: AstType) -> FuncType {
    let AstType::Func { input, output, rev } = ty else {
        panic!("map_func_type requires a function type, got {ty}");
    };
    FuncType::new(vec![map_kind(input)], vec![map_kind(output)], rev)
}

#[derive(Debug, Clone, Default)]
struct ClassicalNames {
    sign: Option<String>,
    xor: Option<String>,
}

fn collect_classical_uses(e: &TExpr, out: &mut Vec<(usize, bool)>) {
    match &e.kind {
        TExprKind::Sign { classical } => out.push((*classical, true)),
        TExprKind::XorEmbed { classical } => out.push((*classical, false)),
        TExprKind::Adjoint(f) => collect_classical_uses(f, out),
        TExprKind::Pred { func, .. } => collect_classical_uses(func, out),
        TExprKind::Tensor(parts) | TExprKind::Compose(parts) => {
            for p in parts {
                collect_classical_uses(p, out);
            }
        }
        TExprKind::Pipe { value, func } => {
            collect_classical_uses(value, out);
            collect_classical_uses(func, out);
        }
        TExprKind::Cond { cond, then_f, else_f } => {
            collect_classical_uses(cond, out);
            collect_classical_uses(then_f, out);
            collect_classical_uses(else_f, out);
        }
        _ => {}
    }
}

struct LowerCtx {
    env: HashMap<String, Value>,
    classical_names: Vec<ClassicalNames>,
    lambda_count: usize,
}

impl LowerCtx {
    // ------------------------------------------------------------------
    // Values
    // ------------------------------------------------------------------

    /// Lowers a value expression, stamping `e`'s source span onto every op
    /// pushed for it (expressions canonicalization synthesized without a
    /// span inherit the enclosing expression's).
    fn lower_value(&mut self, bb: &mut BlockBuilder<'_>, e: &TExpr) -> Result<Value, CoreError> {
        let prev = bb.current_span();
        if !e.span.is_empty() {
            bb.set_span(src_span(e.span));
        }
        let result = self.lower_value_expr(bb, e);
        bb.set_span(prev);
        result
    }

    fn lower_value_expr(
        &mut self,
        bb: &mut BlockBuilder<'_>,
        e: &TExpr,
    ) -> Result<Value, CoreError> {
        match (&e.kind, e.ty) {
            (TExprKind::QLit { chars }, _) => Ok(self.lower_qlit(bb, chars)),
            (TExprKind::Var { name }, _) => self
                .env
                .get(name)
                .copied()
                .ok_or_else(|| CoreError::Ir(format!("unbound variable {name} at lowering"))),
            (TExprKind::Tensor(parts), AstType::Value(kind)) => {
                let lowered: Vec<(Value, ValueKind)> = parts
                    .iter()
                    .map(|p| {
                        let AstType::Value(k) = p.ty else {
                            return Err(CoreError::Ir("tensor part is not a value".into()));
                        };
                        Ok((self.lower_value(bb, p)?, k))
                    })
                    .collect::<Result<_, _>>()?;
                self.combine_values(bb, &lowered, kind)
            }
            (TExprKind::Pipe { value, func }, _) => {
                let v = self.lower_value(bb, value)?;
                let f = self.lower_func(bb, func)?;
                let AstType::Func { output, .. } = func.ty else {
                    return Err(CoreError::Ir("pipe target is not a function".into()));
                };
                let results = bb.push(OpKind::CallIndirect, vec![f, v], vec![map_kind(output)]);
                Ok(results[0])
            }
            (kind, ty) => Err(CoreError::Unsupported(format!(
                "cannot lower {kind:?} of type {ty} as a value"
            ))),
        }
    }

    fn lower_qlit(
        &mut self,
        bb: &mut BlockBuilder<'_>,
        chars: &[asdf_ast::ast::QubitChar],
    ) -> Value {
        // Group maximal runs of the same (primitive basis, eigenstate).
        let mut runs: Vec<(asdf_basis::PrimitiveBasis, asdf_basis::Eigenstate, usize)> = Vec::new();
        for &(prim, eig) in chars {
            match runs.last_mut() {
                Some((p, e, n)) if *p == prim && *e == eig => *n += 1,
                _ => runs.push((prim, eig, 1)),
            }
        }
        let bundles: Vec<(Value, usize)> = runs
            .iter()
            .map(|&(prim, eigenstate, dim)| {
                let r = bb.push(
                    OpKind::QbPrep { prim, eigenstate, dim },
                    vec![],
                    vec![Type::QBundle(dim)],
                );
                (r[0], dim)
            })
            .collect();
        if bundles.len() == 1 {
            return bundles[0].0;
        }
        // Unpack all runs and repack into one bundle.
        let mut qubits = Vec::with_capacity(chars.len());
        for (bundle, dim) in bundles {
            let qs = bb.push(OpKind::QbUnpack, vec![bundle], vec![Type::Qubit; dim]);
            qubits.extend(qs);
        }
        let total = chars.len();
        bb.push(OpKind::QbPack, qubits, vec![Type::QBundle(total)])[0]
    }

    fn combine_values(
        &mut self,
        bb: &mut BlockBuilder<'_>,
        parts: &[(Value, ValueKind)],
        result: ValueKind,
    ) -> Result<Value, CoreError> {
        match result {
            ValueKind::Qubit(total) => {
                let mut qubits = Vec::with_capacity(total);
                for &(v, kind) in parts {
                    let ValueKind::Qubit(n) = kind else {
                        return Err(CoreError::Ir("mixed tensor kinds at lowering".into()));
                    };
                    if n == 0 {
                        continue;
                    }
                    qubits.extend(bb.push(OpKind::QbUnpack, vec![v], vec![Type::Qubit; n]));
                }
                Ok(bb.push(OpKind::QbPack, qubits, vec![Type::QBundle(total)])[0])
            }
            ValueKind::Bit(total) => {
                let mut bits = Vec::with_capacity(total);
                for &(v, kind) in parts {
                    let ValueKind::Bit(n) = kind else {
                        return Err(CoreError::Ir("mixed tensor kinds at lowering".into()));
                    };
                    if n == 0 {
                        continue;
                    }
                    bits.extend(bb.push(OpKind::BitUnpack, vec![v], vec![Type::I1; n]));
                }
                Ok(bb.push(OpKind::BitPack, bits, vec![Type::BitBundle(total)])[0])
            }
        }
    }

    fn bind_let(
        &mut self,
        bb: &mut BlockBuilder<'_>,
        names: &[(String, ValueKind)],
        value: Value,
        source: &TExpr,
    ) -> Result<(), CoreError> {
        if names.len() == 1 {
            self.env.insert(names[0].0.clone(), value);
            return Ok(());
        }
        let AstType::Value(kind) = source.ty else {
            return Err(CoreError::Ir("let binds a non-value".into()));
        };
        match kind {
            ValueKind::Qubit(n) => {
                let qubits = bb.push(OpKind::QbUnpack, vec![value], vec![Type::Qubit; n]);
                for ((name, _), q) in names.iter().zip(qubits) {
                    let single = bb.push(OpKind::QbPack, vec![q], vec![Type::QBundle(1)]);
                    self.env.insert(name.clone(), single[0]);
                }
            }
            ValueKind::Bit(n) => {
                let bits = bb.push(OpKind::BitUnpack, vec![value], vec![Type::I1; n]);
                for ((name, _), bit) in names.iter().zip(bits) {
                    let single = bb.push(OpKind::BitPack, vec![bit], vec![Type::BitBundle(1)]);
                    self.env.insert(name.clone(), single[0]);
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Function values
    // ------------------------------------------------------------------

    /// Lowers a function-value expression with span stamping (see
    /// [`LowerCtx::lower_value`]).
    fn lower_func(&mut self, bb: &mut BlockBuilder<'_>, e: &TExpr) -> Result<Value, CoreError> {
        let prev = bb.current_span();
        if !e.span.is_empty() {
            bb.set_span(src_span(e.span));
        }
        let result = self.lower_func_expr(bb, e);
        bb.set_span(prev);
        result
    }

    fn lower_func_expr(
        &mut self,
        bb: &mut BlockBuilder<'_>,
        e: &TExpr,
    ) -> Result<Value, CoreError> {
        let func_ty = map_func_type(e.ty);
        match &e.kind {
            TExprKind::Translation { b_in, b_out } => {
                Ok(self.translation_lambda(bb, b_in, b_out, func_ty))
            }
            TExprKind::Measure { basis } => {
                let n = basis.dim();
                let basis = basis.clone();
                Ok(self.lambda(bb, func_ty.clone(), vec![], move |inner, args| {
                    let r = inner.push(
                        OpKind::QbMeas { basis },
                        vec![args[0]],
                        vec![Type::BitBundle(n)],
                    );
                    inner.push(OpKind::Return, vec![r[0]], vec![]);
                }))
            }
            TExprKind::Discard { dim } => {
                let _ = dim;
                Ok(self.lambda(bb, func_ty.clone(), vec![], move |inner, args| {
                    inner.push(OpKind::QbDiscard, vec![args[0]], vec![]);
                    let unit = inner.push(OpKind::QbPack, vec![], vec![Type::QBundle(0)]);
                    inner.push(OpKind::Return, vec![unit[0]], vec![]);
                }))
            }
            TExprKind::Id { .. } => {
                Ok(self.lambda(bb, func_ty.clone(), vec![], move |inner, args| {
                    inner.push(OpKind::Return, vec![args[0]], vec![]);
                }))
            }
            TExprKind::Adjoint(f) => {
                let inner = self.lower_func(bb, f)?;
                Ok(bb.push(OpKind::FuncAdj, vec![inner], vec![Type::func(func_ty)])[0])
            }
            TExprKind::Pred { basis, func } => {
                let inner = self.lower_func(bb, func)?;
                Ok(bb.push(
                    OpKind::FuncPred { pred: basis.clone() },
                    vec![inner],
                    vec![Type::func(func_ty)],
                )[0])
            }
            TExprKind::Sign { classical } => {
                let name = self.classical_names[*classical]
                    .sign
                    .clone()
                    .expect("sign function generated up front");
                Ok(bb.push(OpKind::FuncConst { symbol: name }, vec![], vec![Type::func(func_ty)])
                    [0])
            }
            TExprKind::XorEmbed { classical } => {
                let name = self.classical_names[*classical]
                    .xor
                    .clone()
                    .expect("xor function generated up front");
                Ok(bb.push(OpKind::FuncConst { symbol: name }, vec![], vec![Type::func(func_ty)])
                    [0])
            }
            TExprKind::KernelRef { name } => Ok(bb.push(
                OpKind::FuncConst { symbol: name.clone() },
                vec![],
                vec![Type::func(func_ty)],
            )[0]),
            TExprKind::Tensor(parts) => self.tensor_lambda(bb, parts, func_ty),
            TExprKind::Compose(parts) => self.compose_lambda(bb, parts, func_ty),
            TExprKind::Cond { cond, then_f, else_f } => {
                let cond_bundle = self.lower_value(bb, cond)?;
                let bit = bb.push(OpKind::BitUnpack, vec![cond_bundle], vec![Type::I1]);
                let result_ty = Type::func(func_ty.clone());
                // Lower each branch inside its own region.
                let then_block = {
                    let mut err = None;
                    let block = bb.subblock(vec![], |inner| match self.lower_func(inner, then_f) {
                        Ok(v) => {
                            inner.push(OpKind::Yield, vec![v], vec![]);
                        }
                        Err(e) => err = Some(e),
                    });
                    if let Some(e) = err {
                        return Err(e);
                    }
                    block
                };
                let else_block = {
                    let mut err = None;
                    let block = bb.subblock(vec![], |inner| match self.lower_func(inner, else_f) {
                        Ok(v) => {
                            inner.push(OpKind::Yield, vec![v], vec![]);
                        }
                        Err(e) => err = Some(e),
                    });
                    if let Some(e) = err {
                        return Err(e);
                    }
                    block
                };
                Ok(bb.push_with_regions(
                    OpKind::ScfIf,
                    vec![bit[0]],
                    vec![result_ty],
                    vec![then_block, else_block],
                )[0])
            }
            other => {
                Err(CoreError::Unsupported(format!("cannot lower {other:?} as a function value")))
            }
        }
    }

    /// Wraps a `qbtrans` in a lambda, materializing constant phases as
    /// `arith.constant` ops feeding the op's `phases(...)` operands
    /// (Fig. 4's shape).
    fn translation_lambda(
        &mut self,
        bb: &mut BlockBuilder<'_>,
        b_in: &Basis,
        b_out: &Basis,
        func_ty: FuncType,
    ) -> Value {
        let mut angles: Vec<f64> = Vec::new();
        let b_in = operandize_phases(b_in, &mut angles);
        let b_out = operandize_phases(b_out, &mut angles);
        let n = b_in.dim();
        self.lambda(bb, func_ty, vec![], move |inner, args| {
            let mut operands = vec![args[0]];
            for theta in &angles {
                let c = inner.push(OpKind::ConstF64 { value: *theta }, vec![], vec![Type::F64]);
                operands.push(c[0]);
            }
            let r = inner.push(
                OpKind::QbTrans { basis_in: b_in.clone(), basis_out: b_out.clone() },
                operands,
                vec![Type::QBundle(n)],
            );
            inner.push(OpKind::Return, vec![r[0]], vec![]);
        })
    }

    /// The paper's function-tensor lambda: unpack the input, call each part
    /// with its repacked slice, and repack the combined outputs.
    fn tensor_lambda(
        &mut self,
        bb: &mut BlockBuilder<'_>,
        parts: &[TExpr],
        func_ty: FuncType,
    ) -> Result<Value, CoreError> {
        let captures: Vec<Value> =
            parts.iter().map(|p| self.lower_func(bb, p)).collect::<Result<_, _>>()?;
        let part_tys: Vec<(ValueKind, ValueKind)> = parts
            .iter()
            .map(|p| match p.ty {
                AstType::Func { input, output, .. } => Ok((input, output)),
                other => Err(CoreError::Ir(format!("tensor part is {other}, not a function"))),
            })
            .collect::<Result<_, _>>()?;
        let Type::QBundle(total_in) = func_ty.inputs[0].clone() else {
            return Err(CoreError::Unsupported("function tensors take qubit inputs".to_string()));
        };
        let out_ty = func_ty.results[0].clone();

        Ok(self.lambda(bb, func_ty, captures, move |inner, args| {
            let (funcs, input) = args.split_at(args.len() - 1);
            let qubits = inner.push(OpKind::QbUnpack, vec![input[0]], vec![Type::Qubit; total_in]);
            let mut offset = 0usize;
            let mut outputs: Vec<(Value, ValueKind)> = Vec::new();
            for (k, &(inp, outp)) in part_tys.iter().enumerate() {
                let n = inp.width();
                let slice = qubits[offset..offset + n].to_vec();
                offset += n;
                let packed = inner.push(OpKind::QbPack, slice, vec![Type::QBundle(n)]);
                let r = inner.push(
                    OpKind::CallIndirect,
                    vec![funcs[k], packed[0]],
                    vec![map_kind(outp)],
                );
                outputs.push((r[0], outp));
            }
            // Combine outputs.
            let combined = match &out_ty {
                Type::QBundle(total) => {
                    let mut qs = Vec::with_capacity(*total);
                    for (v, kind) in outputs {
                        let n = kind.width();
                        if n == 0 {
                            continue;
                        }
                        qs.extend(inner.push(OpKind::QbUnpack, vec![v], vec![Type::Qubit; n]));
                    }
                    inner.push(OpKind::QbPack, qs, vec![Type::QBundle(*total)])[0]
                }
                Type::BitBundle(total) => {
                    let mut bits = Vec::with_capacity(*total);
                    for (v, kind) in outputs {
                        let n = kind.width();
                        if n == 0 {
                            continue;
                        }
                        bits.extend(inner.push(OpKind::BitUnpack, vec![v], vec![Type::I1; n]));
                    }
                    inner.push(OpKind::BitPack, bits, vec![Type::BitBundle(*total)])[0]
                }
                other => panic!("unexpected tensor output type {other}"),
            };
            inner.push(OpKind::Return, vec![combined], vec![]);
        }))
    }

    /// Left-to-right composition as a lambda threading the value through
    /// each captured part.
    fn compose_lambda(
        &mut self,
        bb: &mut BlockBuilder<'_>,
        parts: &[TExpr],
        func_ty: FuncType,
    ) -> Result<Value, CoreError> {
        let captures: Vec<Value> =
            parts.iter().map(|p| self.lower_func(bb, p)).collect::<Result<_, _>>()?;
        let out_tys: Vec<Type> = parts
            .iter()
            .map(|p| match p.ty {
                AstType::Func { output, .. } => Ok(map_kind(output)),
                other => Err(CoreError::Ir(format!("compose part is {other}"))),
            })
            .collect::<Result<_, _>>()?;
        Ok(self.lambda(bb, func_ty, captures, move |inner, args| {
            let (funcs, input) = args.split_at(args.len() - 1);
            let mut v = input[0];
            for (k, out_ty) in out_tys.iter().enumerate() {
                v = inner.push(OpKind::CallIndirect, vec![funcs[k], v], vec![out_ty.clone()])[0];
            }
            inner.push(OpKind::Return, vec![v], vec![]);
        }))
    }

    /// Creates a `lambda` op: `captures` become operands, the region block
    /// receives `captures ++ params` as arguments.
    fn lambda(
        &mut self,
        bb: &mut BlockBuilder<'_>,
        func_ty: FuncType,
        captures: Vec<Value>,
        body: impl FnOnce(&mut BlockBuilder<'_>, &[Value]),
    ) -> Value {
        self.lambda_count += 1;
        let capture_tys: Vec<Type> = captures.iter().map(|v| bb.value_type(*v).clone()).collect();
        let mut arg_tys = capture_tys;
        arg_tys.extend(func_ty.inputs.iter().cloned());
        let block = bb.subblock(arg_tys, |inner| {
            let args = inner.args().to_vec();
            body(inner, &args);
        });
        bb.push_with_regions(
            OpKind::Lambda { func_ty: func_ty.clone() },
            captures,
            vec![Type::func(func_ty)],
            vec![block],
        )[0]
    }
}

/// Rewrites constant phases into operand references, collecting the angles
/// in appearance order (b_in first, then b_out).
fn operandize_phases(basis: &Basis, angles: &mut Vec<f64>) -> Basis {
    let elems = basis
        .elements()
        .iter()
        .map(|e| match e {
            BasisElem::BuiltIn { .. } => e.clone(),
            BasisElem::Literal(lit) => {
                let vectors = lit
                    .vectors()
                    .iter()
                    .map(|v| {
                        let phase = v.phase.map(|p| match p {
                            Phase::Const(theta) => {
                                let idx = angles.len() as u32;
                                angles.push(theta);
                                Phase::Operand(idx)
                            }
                            operand @ Phase::Operand(_) => operand,
                        });
                        asdf_basis::BasisVector { eigenbits: v.eigenbits.clone(), phase }
                    })
                    .collect();
                BasisElem::Literal(
                    BasisLiteral::new(lit.prim(), vectors)
                        .expect("rewriting phases preserves validity"),
                )
            }
        })
        .collect();
    Basis::new(elems)
}
