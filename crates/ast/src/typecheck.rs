//! Type checking (§4): linear qubit types, basis validation, and span
//! equivalence checking for basis translations (§4.1).
//!
//! The checker enforces:
//! - **linearity**: any quantum value is used exactly once and cannot be
//!   discarded implicitly;
//! - **reversibility**: `~f` and `b & f` require reversible function types;
//! - **basis well-formedness**: literal conditions of §2.2 (distinct
//!   eigenbits, uniform dimension, one primitive basis);
//! - **span equivalence** for `b1 >> b2` via the polynomial-time factoring
//!   algorithm (Algorithms B1–B4 in `asdf-basis`).

use crate::ast::{CExpr, Expr, ExprKind, Program, Stmt, TypeExpr};
use crate::diag::Span;
use crate::error::FrontendError;
use crate::expand::KernelInstance;
use crate::tast::{TClassical, TExpr, TExprKind, TKernel, TStmt};
use crate::types::{Type, ValueKind};
use asdf_basis::{span, Basis, BasisLiteral, BasisVector, BitString, Phase, PrimitiveBasis};
use std::collections::HashMap;

/// Type checks one kernel instance, producing the typed AST.
///
/// # Errors
///
/// Returns [`FrontendError`] on any type, linearity, dimension, or span
/// violation.
pub fn typecheck_kernel(
    program: &Program,
    kernel: &str,
    instance: &KernelInstance,
) -> Result<TKernel, FrontendError> {
    let func = program
        .qpu(kernel)
        .ok_or_else(|| FrontendError::unbound(format!("qpu kernel {kernel}")))?;

    let mut checker =
        Checker { program, dims: &instance.dims, env: HashMap::new(), classical: Vec::new() };

    // Bind parameters: cfunc captures become classical instances; qubit
    // parameters become linear runtime bindings.
    let mut params = Vec::new();
    for (idx, param) in func.params.iter().enumerate() {
        match &param.ty {
            TypeExpr::CFunc(_, _) => {
                let inst =
                    instance.classical_instances.get(idx).and_then(|c| c.as_ref()).ok_or_else(
                        || {
                            FrontendError::type_err(format!(
                                "parameter {} requires a classical function capture",
                                param.name
                            ))
                        },
                    )?;
                let classical_idx = checker.instantiate_classical(&param.name, &inst.func, inst)?;
                checker.env.insert(
                    param.name.clone(),
                    Binding { ty: None, consumed: false, classical: Some(classical_idx) },
                );
            }
            TypeExpr::Qubit(d) => {
                let n = d.eval_usize(&instance.dims)?;
                let kind = ValueKind::Qubit(n);
                params.push((param.name.clone(), kind));
                checker.env.insert(
                    param.name.clone(),
                    Binding { ty: Some(Type::Value(kind)), consumed: false, classical: None },
                );
            }
            TypeExpr::Bit(_) => {
                return Err(FrontendError::type_err(format!(
                    "bit-typed kernel parameter {} is not supported; capture bits \
                     through a classical function instead",
                    param.name
                )));
            }
        }
    }

    let ret = match &func.ret {
        TypeExpr::Qubit(d) => ValueKind::Qubit(d.eval_usize(&instance.dims)?),
        TypeExpr::Bit(d) => ValueKind::Bit(d.eval_usize(&instance.dims)?),
        TypeExpr::CFunc(_, _) => {
            return Err(FrontendError::type_err(
                "kernels cannot return classical functions".to_string(),
            ))
        }
    };

    // Check statements.
    let mut body = Vec::new();
    for (i, stmt) in func.body.iter().enumerate() {
        let is_last = i + 1 == func.body.len();
        match stmt {
            Stmt::Let { names, value } => {
                let value_span = value.span;
                let value = checker.check(value)?;
                let Type::Value(kind) = value.ty else {
                    return Err(FrontendError::type_err(format!(
                        "let binding requires a value, found {}",
                        value.ty
                    ))
                    .with_span(value_span));
                };
                let bound: Vec<(String, ValueKind)> = if names.len() == 1 {
                    vec![(names[0].clone(), kind)]
                } else if names.len() == kind.width() {
                    let single = match kind {
                        ValueKind::Qubit(_) => ValueKind::Qubit(1),
                        ValueKind::Bit(_) => ValueKind::Bit(1),
                    };
                    names.iter().map(|n| (n.clone(), single)).collect()
                } else {
                    return Err(FrontendError::type_err(format!(
                        "cannot destructure {kind} into {} names",
                        names.len()
                    ))
                    .with_span(value_span));
                };
                for (name, k) in &bound {
                    checker.env.insert(
                        name.clone(),
                        Binding { ty: Some(Type::Value(*k)), consumed: false, classical: None },
                    );
                }
                body.push(TStmt::Let { names: bound, value });
            }
            Stmt::Expr(e) => {
                if !is_last {
                    return Err(FrontendError::type_err(
                        "only the final statement may be a bare expression".to_string(),
                    ));
                }
                let result_span = e.span;
                let e = checker.check(e)?;
                if e.ty != Type::Value(ret) {
                    return Err(FrontendError::type_err(format!(
                        "kernel {kernel} declares result {ret} but body produces {}",
                        e.ty
                    ))
                    .with_span(result_span));
                }
                body.push(TStmt::Expr(e));
            }
        }
    }
    if !matches!(body.last(), Some(TStmt::Expr(_))) {
        return Err(FrontendError::type_err(format!(
            "kernel {kernel} must end in a result expression"
        )));
    }

    // Linearity epilogue: every qubit binding must be consumed.
    for (name, binding) in &checker.env {
        if let Some(Type::Value(kind)) = binding.ty {
            if kind.is_linear() && !binding.consumed {
                return Err(FrontendError::type_err(format!(
                    "linear value {name} ({kind}) is never used; qubits cannot be discarded"
                )));
            }
        }
    }

    Ok(TKernel { name: kernel.to_string(), params, ret, body, classical: checker.classical })
}

struct Binding {
    /// `None` for classical-function captures.
    ty: Option<Type>,
    consumed: bool,
    classical: Option<usize>,
}

struct Checker<'a> {
    program: &'a Program,
    dims: &'a HashMap<String, i64>,
    env: HashMap<String, Binding>,
    classical: Vec<TClassical>,
}

impl Checker<'_> {
    fn instantiate_classical(
        &mut self,
        param_name: &str,
        func_name: &str,
        inst: &crate::expand::ClassicalInstance,
    ) -> Result<usize, FrontendError> {
        let func = self
            .program
            .classical(func_name)
            .ok_or_else(|| FrontendError::unbound(format!("classical function {func_name}")))?;
        let mut params = Vec::new();
        let mut widths: HashMap<String, usize> = HashMap::new();
        for p in &func.params {
            let TypeExpr::Bit(d) = &p.ty else {
                return Err(FrontendError::type_err(format!(
                    "classical parameter {} must be a bit register",
                    p.name
                )));
            };
            let w = d.eval_usize(&inst.dims)?;
            params.push((p.name.clone(), w));
            widths.insert(p.name.clone(), w);
        }
        for (i, bits) in inst.capture_bits.iter().enumerate() {
            if bits.len() != params[i].1 {
                return Err(FrontendError::type_err(format!(
                    "capture for {} has {} bits, expected {}",
                    params[i].0,
                    bits.len(),
                    params[i].1
                )));
            }
        }
        let n_in: usize = params[inst.capture_bits.len()..].iter().map(|(_, w)| *w).sum();
        let TypeExpr::Bit(ret_d) = &func.ret else {
            return Err(FrontendError::type_err(
                "classical functions must return bits".to_string(),
            ));
        };
        let n_out = ret_d.eval_usize(&inst.dims)?;
        if n_out == 0 || n_in == 0 {
            return Err(FrontendError::type_err(format!(
                "classical function {func_name} must have nonempty inputs and outputs"
            )));
        }

        // Type check the classical body: widths must be consistent.
        let body_width = check_cexpr(&func.body, &widths, &inst.dims)?;
        if body_width != n_out {
            return Err(FrontendError::type_err(format!(
                "classical function {func_name} returns {body_width} bits but declares {n_out}"
            )));
        }

        let idx = self.classical.len();
        self.classical.push(TClassical {
            name: format!("{func_name}__{param_name}"),
            params,
            capture_bits: inst.capture_bits.clone(),
            n_in,
            n_out,
            body: func.body.clone(),
            dims: inst.dims.clone(),
        });
        Ok(idx)
    }

    fn dim(&self, d: &crate::dims::DimExpr) -> Result<usize, FrontendError> {
        d.eval_usize(self.dims)
    }

    // ------------------------------------------------------------------
    // Basis resolution
    // ------------------------------------------------------------------

    /// Whether an expression is syntactically a basis.
    fn is_basis(&self, e: &Expr) -> bool {
        match &e.kind {
            ExprKind::BasisLit(_) | ExprKind::BuiltinBasis(_, _) => true,
            ExprKind::Tensor(a, b) => self.is_basis(a) && self.is_basis(b),
            ExprKind::Pow(a, _) => self.is_basis(a),
            _ => false,
        }
    }

    /// Resolves a syntactic basis to a concrete [`Basis`], folding phases.
    ///
    /// A bare qubit literal in basis position (e.g. the predicate in
    /// `'1' & f`, as written in the paper's teleportation example) coerces
    /// to the singleton basis literal `{'1'}`.
    fn resolve_basis(&self, e: &Expr) -> Result<Basis, FrontendError> {
        self.resolve_basis_kind(e).map_err(|err| err.with_span(e.span))
    }

    fn resolve_basis_kind(&self, e: &Expr) -> Result<Basis, FrontendError> {
        match &e.kind {
            ExprKind::QLit { chars, phase } => {
                let mut prim: Option<PrimitiveBasis> = None;
                for (p, _) in chars {
                    match prim {
                        None => prim = Some(*p),
                        Some(existing) if existing != *p => {
                            return Err(FrontendError::type_err(
                                "a qubit literal used as a basis must use one \
                                 primitive basis"
                                    .to_string(),
                            ))
                        }
                        Some(_) => {}
                    }
                }
                let eigenbits = BitString::from_bits(chars.iter().map(|(_, e)| e.eigenbit()));
                let radians = match phase {
                    Some(angle) => Some(Phase::Const(angle.eval_radians(self.dims)?)),
                    None => None,
                };
                let lit = BasisLiteral::new(
                    prim.expect("lexer guarantees nonempty literals"),
                    vec![BasisVector { eigenbits, phase: radians }],
                )?;
                Ok(Basis::literal(lit))
            }
            ExprKind::BuiltinBasis(prim, d) => {
                let dim = self.dim(d)?;
                if dim == 0 {
                    return Err(FrontendError::type_err("basis dimension must be positive"));
                }
                Ok(Basis::built_in(*prim, dim))
            }
            ExprKind::BasisLit(vectors) => {
                let mut prim: Option<PrimitiveBasis> = None;
                let mut parsed = Vec::new();
                for v in vectors {
                    let mut chars = v.chars.clone();
                    if let Some(p) = &v.power {
                        let n = self.dim(p)?;
                        if n == 0 {
                            return Err(FrontendError::type_err(
                                "vector tensor power must be positive",
                            ));
                        }
                        let original = chars.clone();
                        for _ in 1..n {
                            chars.extend(original.iter().copied());
                        }
                    }
                    for (p, _) in &chars {
                        match prim {
                            None => prim = Some(*p),
                            Some(existing) if existing != *p => {
                                return Err(FrontendError::type_err(
                                    "all positions of a basis literal must share one \
                                     primitive basis"
                                        .to_string(),
                                ))
                            }
                            Some(_) => {}
                        }
                    }
                    let eigenbits = BitString::from_bits(chars.iter().map(|(_, e)| e.eigenbit()));
                    let mut radians = 0.0f64;
                    let mut has_phase = false;
                    if v.negated {
                        radians += std::f64::consts::PI;
                        has_phase = true;
                    }
                    if let Some(angle) = &v.phase {
                        radians += angle.eval_radians(self.dims)?;
                        has_phase = true;
                    }
                    parsed.push(BasisVector {
                        eigenbits,
                        phase: has_phase.then_some(Phase::Const(radians)),
                    });
                }
                let lit =
                    BasisLiteral::new(prim.expect("parser guarantees nonempty literals"), parsed)?;
                Ok(Basis::literal(lit))
            }
            ExprKind::Tensor(a, b) => Ok(self.resolve_basis(a)?.tensor(&self.resolve_basis(b)?)),
            ExprKind::Pow(a, d) => {
                let n = self.dim(d)?;
                if n == 0 {
                    return Err(FrontendError::type_err("basis power must be positive"));
                }
                Ok(self.resolve_basis(a)?.power(n))
            }
            other => Err(FrontendError::type_err(format!(
                "expected a basis expression, found {other:?}"
            ))),
        }
    }

    // ------------------------------------------------------------------
    // Expressions
    // ------------------------------------------------------------------

    fn check(&mut self, e: &Expr) -> Result<TExpr, FrontendError> {
        // Attach this expression's span as errors propagate outward (the
        // innermost error keeps its most precise span), and stamp it onto
        // the typed node so lowering can carry it into the IR.
        self.check_kind(e).map(|t| t.with_span(e.span)).map_err(|err| err.with_span(e.span))
    }

    fn check_kind(&mut self, e: &Expr) -> Result<TExpr, FrontendError> {
        match &e.kind {
            ExprKind::QLit { chars, phase } => {
                // A global phase on a prepared product state is
                // unobservable; fold it away (documented in DESIGN.md).
                let _ = phase;
                Ok(TExpr {
                    span: e.span,
                    kind: TExprKind::QLit { chars: chars.clone() },
                    ty: Type::Value(ValueKind::Qubit(chars.len())),
                })
            }
            ExprKind::BasisLit(_) | ExprKind::BuiltinBasis(_, _) => Err(FrontendError::type_err(
                "a basis cannot be used as a value; apply it with >>, .measure, \
                 .flip, .discard, or &"
                    .to_string(),
            )),
            ExprKind::Var(name) => self.check_var(name),
            ExprKind::Pipe(value, func) => {
                let value = self.check(value)?;
                let func = self.check(func)?;
                let Type::Func { input, output, rev } = func.ty else {
                    return Err(FrontendError::type_err(format!(
                        "right side of | must be a function, found {}",
                        func.ty
                    )));
                };
                match value.ty {
                    // value | f : application.
                    Type::Value(vkind) => {
                        if input != vkind {
                            return Err(FrontendError::type_err(format!(
                                "piped value has type {vkind} but the function expects {input}"
                            )));
                        }
                        Ok(TExpr {
                            span: e.span,
                            kind: TExprKind::Pipe { value: Box::new(value), func: Box::new(func) },
                            ty: Type::Value(output),
                        })
                    }
                    // f | g : left-to-right composition.
                    Type::Func { input: fi, output: fo, rev: fr } => {
                        if fo != input {
                            return Err(FrontendError::type_err(format!(
                                "composed functions disagree: {fo} flows into {input}"
                            )));
                        }
                        Ok(TExpr {
                            span: e.span,
                            kind: TExprKind::Compose(vec![value, func]),
                            ty: Type::Func { input: fi, output, rev: fr && rev },
                        })
                    }
                    Type::Basis(_) => {
                        Err(FrontendError::type_err("a basis cannot be piped".to_string()))
                    }
                }
            }
            ExprKind::Tensor(a, b) => {
                if self.is_basis(e) {
                    return Err(FrontendError::type_err(
                        "a basis cannot be used as a value".to_string(),
                    ));
                }
                let a = self.check(a)?;
                let b = self.check(b)?;
                self.tensor_typed(a, b)
            }
            ExprKind::Pow(inner, d) => {
                let n = self.dim(d)?;
                if self.is_basis(e) {
                    return Err(FrontendError::type_err(
                        "a basis cannot be used as a value".to_string(),
                    ));
                }
                if n == 0 {
                    return Err(FrontendError::type_err("tensor power must be positive"));
                }
                // Qubit literals replicate their characters; functions
                // tensor n copies.
                let first = self.check(inner)?;
                match (&first.kind, first.ty) {
                    (TExprKind::QLit { chars }, _) => {
                        let mut repeated = Vec::with_capacity(chars.len() * n);
                        for _ in 0..n {
                            repeated.extend(chars.iter().copied());
                        }
                        let width = repeated.len();
                        Ok(TExpr {
                            span: e.span,
                            kind: TExprKind::QLit { chars: repeated },
                            ty: Type::Value(ValueKind::Qubit(width)),
                        })
                    }
                    (_, Type::Func { .. }) => {
                        let mut acc = first.clone();
                        for _ in 1..n {
                            acc = self.tensor_typed(acc, first.clone())?;
                        }
                        Ok(acc)
                    }
                    _ => Err(FrontendError::type_err(format!(
                        "tensor power applies to qubit literals, bases, and functions, \
                         not {}",
                        first.ty
                    ))),
                }
            }
            ExprKind::Repeat(f, d) => {
                let k = self.dim(d)?;
                let f = self.check(f)?;
                let Type::Func { input, output, .. } = f.ty else {
                    return Err(FrontendError::type_err(format!(
                        "** repetition requires a function, found {}",
                        f.ty
                    )));
                };
                if input != output {
                    return Err(FrontendError::type_err(format!(
                        "** repetition requires an endofunction, found {input} -> {output}"
                    )));
                }
                if k == 0 {
                    let ValueKind::Qubit(n) = input else {
                        return Err(FrontendError::type_err(
                            "zero-fold repetition needs a qubit endofunction".to_string(),
                        ));
                    };
                    return Ok(TExpr {
                        span: e.span,
                        kind: TExprKind::Id { dim: n },
                        ty: Type::rev_func(n),
                    });
                }
                let ty = f.ty;
                Ok(TExpr { span: e.span, kind: TExprKind::Compose(vec![f; k]), ty })
            }
            ExprKind::Translation(b_in, b_out) => {
                let b_in = self.resolve_basis(b_in)?;
                let b_out = self.resolve_basis(b_out)?;
                // §4.1: span equivalence checking.
                span::check_span_equiv(&b_in, &b_out)?;
                let n = b_in.dim();
                Ok(TExpr {
                    span: e.span,
                    kind: TExprKind::Translation { b_in, b_out },
                    ty: Type::rev_func(n),
                })
            }
            ExprKind::Adjoint(f) => {
                let f = self.check(f)?;
                let Type::Func { rev, .. } = f.ty else {
                    return Err(FrontendError::type_err(format!(
                        "~ requires a function, found {}",
                        f.ty
                    )));
                };
                if !rev {
                    return Err(FrontendError::type_err(
                        "~ requires a reversible function".to_string(),
                    ));
                }
                let ty = f.ty;
                Ok(TExpr { span: e.span, kind: TExprKind::Adjoint(Box::new(f)), ty })
            }
            ExprKind::Pred(b, f) => {
                let basis = self.resolve_basis(b)?;
                let f = self.check(f)?;
                let Type::Func { input, output, rev } = f.ty else {
                    return Err(FrontendError::type_err(format!(
                        "& requires a function, found {}",
                        f.ty
                    )));
                };
                if !rev {
                    return Err(FrontendError::type_err(
                        "& requires a reversible function".to_string(),
                    ));
                }
                let (ValueKind::Qubit(n), ValueKind::Qubit(m)) = (input, output) else {
                    return Err(FrontendError::type_err(
                        "& requires a qubit endofunction".to_string(),
                    ));
                };
                if n != m {
                    return Err(FrontendError::type_err(
                        "& requires matching input and output widths".to_string(),
                    ));
                }
                let total = basis.dim() + n;
                Ok(TExpr {
                    span: e.span,
                    kind: TExprKind::Pred { basis, func: Box::new(f) },
                    ty: Type::rev_func(total),
                })
            }
            ExprKind::Measure(b) => {
                let basis = self.resolve_basis(b)?;
                let n = basis.dim();
                Ok(TExpr {
                    span: e.span,
                    kind: TExprKind::Measure { basis },
                    ty: Type::Func {
                        input: ValueKind::Qubit(n),
                        output: ValueKind::Bit(n),
                        rev: false,
                    },
                })
            }
            ExprKind::Discard(b) => {
                let basis = self.resolve_basis(b)?;
                let n = basis.dim();
                Ok(TExpr {
                    span: e.span,
                    kind: TExprKind::Discard { dim: n },
                    ty: Type::Func {
                        input: ValueKind::Qubit(n),
                        output: ValueKind::Qubit(0),
                        rev: false,
                    },
                })
            }
            ExprKind::Flip(b) => {
                let basis = self.resolve_basis(b)?;
                let (b_in, b_out) = flip_translation(&basis)?;
                let n = b_in.dim();
                Ok(TExpr {
                    span: e.span,
                    kind: TExprKind::Translation { b_in, b_out },
                    ty: Type::rev_func(n),
                })
            }
            ExprKind::Sign(f) => {
                let idx = self.classical_ref(f, ".sign")?;
                let inst = &self.classical[idx];
                if inst.n_out != 1 {
                    return Err(FrontendError::type_err(format!(
                        ".sign requires a single-bit classical function, found {} outputs",
                        inst.n_out
                    )));
                }
                let n = inst.n_in;
                Ok(TExpr {
                    span: e.span,
                    kind: TExprKind::Sign { classical: idx },
                    ty: Type::rev_func(n),
                })
            }
            ExprKind::Xor(f) => {
                let idx = self.classical_ref(f, ".xor")?;
                let inst = &self.classical[idx];
                let n = inst.n_in + inst.n_out;
                Ok(TExpr {
                    span: e.span,
                    kind: TExprKind::XorEmbed { classical: idx },
                    ty: Type::rev_func(n),
                })
            }
            ExprKind::Id(d) => {
                let n = self.dim(d)?;
                Ok(TExpr { span: e.span, kind: TExprKind::Id { dim: n }, ty: Type::rev_func(n) })
            }
            ExprKind::Cond { then_expr, cond, else_expr } => {
                let cond = self.check(cond)?;
                if cond.ty != Type::Value(ValueKind::Bit(1)) {
                    return Err(FrontendError::type_err(format!(
                        "conditional requires a single measured bit, found {}",
                        cond.ty
                    )));
                }
                let then_f = self.check(then_expr)?;
                let else_f = self.check(else_expr)?;
                if then_f.ty != else_f.ty {
                    return Err(FrontendError::type_err(format!(
                        "conditional branches disagree: {} vs {}",
                        then_f.ty, else_f.ty
                    )));
                }
                if !matches!(then_f.ty, Type::Func { .. }) {
                    return Err(FrontendError::type_err(
                        "conditional branches must be function values".to_string(),
                    ));
                }
                let ty = then_f.ty;
                Ok(TExpr {
                    span: e.span,
                    kind: TExprKind::Cond {
                        cond: Box::new(cond),
                        then_f: Box::new(then_f),
                        else_f: Box::new(else_f),
                    },
                    ty,
                })
            }
        }
    }

    fn check_var(&mut self, name: &str) -> Result<TExpr, FrontendError> {
        if let Some(binding) = self.env.get_mut(name) {
            if binding.classical.is_some() {
                return Err(FrontendError::type_err(format!(
                    "classical function {name} can only be used via .sign or .xor"
                )));
            }
            let ty = binding.ty.expect("non-classical bindings are typed");
            if let Type::Value(kind) = ty {
                if kind.is_linear() {
                    if binding.consumed {
                        return Err(FrontendError::type_err(format!(
                            "linear value {name} used more than once"
                        )));
                    }
                    binding.consumed = true;
                }
            }
            return Ok(TExpr::new(TExprKind::Var { name: name.to_string() }, ty));
        }
        // A reference to another kernel as a function value.
        if let Some(func) = self.program.qpu(name) {
            let mut total_in = 0usize;
            for p in &func.params {
                let TypeExpr::Qubit(d) = &p.ty else {
                    return Err(FrontendError::type_err(format!(
                        "kernel {name} referenced as a value must take only qubits"
                    )));
                };
                total_in += d.eval_usize(self.dims)?;
            }
            let ret = match &func.ret {
                TypeExpr::Qubit(d) => ValueKind::Qubit(d.eval_usize(self.dims)?),
                TypeExpr::Bit(d) => ValueKind::Bit(d.eval_usize(self.dims)?),
                TypeExpr::CFunc(_, _) => {
                    return Err(FrontendError::type_err(
                        "kernels cannot return classical functions".to_string(),
                    ))
                }
            };
            return Ok(TExpr {
                span: Span::default(),
                kind: TExprKind::KernelRef { name: name.to_string() },
                ty: Type::Func {
                    input: ValueKind::Qubit(total_in),
                    output: ret,
                    // Kernels that measure are irreversible; conservatively
                    // mark reversible only when returning qubits of the
                    // same width.
                    rev: ret == ValueKind::Qubit(total_in),
                },
            });
        }
        Err(FrontendError::unbound(name.to_string()))
    }

    fn classical_ref(&mut self, e: &Expr, what: &str) -> Result<usize, FrontendError> {
        let ExprKind::Var(name) = &e.kind else {
            return Err(FrontendError::type_err(format!(
                "{what} applies to a captured classical function"
            )));
        };
        let binding = self.env.get(name).ok_or_else(|| FrontendError::unbound(name.clone()))?;
        binding
            .classical
            .ok_or_else(|| FrontendError::type_err(format!("{name} is not a classical function")))
    }

    fn tensor_typed(&mut self, a: TExpr, b: TExpr) -> Result<TExpr, FrontendError> {
        let span = a.span.to(b.span);
        match (a.ty, b.ty) {
            (Type::Value(ka), Type::Value(kb)) => {
                let kind = ka.tensor(kb).map_err(FrontendError::type_err)?;
                let mut parts = Vec::new();
                flatten_tensor(a, &mut parts);
                flatten_tensor(b, &mut parts);
                Ok(TExpr { span, kind: TExprKind::Tensor(parts), ty: Type::Value(kind) })
            }
            (
                Type::Func { input: ia, output: oa, rev: ra },
                Type::Func { input: ib, output: ob, rev: rb },
            ) => {
                let input = ia.tensor(ib).map_err(FrontendError::type_err)?;
                let output = oa.tensor(ob).map_err(FrontendError::type_err)?;
                let mut parts = Vec::new();
                flatten_tensor(a, &mut parts);
                flatten_tensor(b, &mut parts);
                Ok(TExpr {
                    span,
                    kind: TExprKind::Tensor(parts),
                    ty: Type::Func { input, output, rev: ra && rb },
                })
            }
            (ta, tb) => Err(FrontendError::type_err(format!("cannot tensor {ta} with {tb}"))),
        }
    }
}

fn flatten_tensor(e: TExpr, out: &mut Vec<TExpr>) {
    match e.kind {
        TExprKind::Tensor(parts) => out.extend(parts),
        _ => out.push(e),
    }
}

/// Builds the `b.flip` sugar: `std.flip` is `std >> {'1','0'}` and
/// `{v1,v2}.flip` is `{v1,v2} >> {v2,v1}`.
fn flip_translation(basis: &Basis) -> Result<(Basis, Basis), FrontendError> {
    if basis.elements().len() != 1 {
        return Err(FrontendError::type_err(".flip applies to a single basis element".to_string()));
    }
    match &basis.elements()[0] {
        asdf_basis::BasisElem::BuiltIn { prim, dim: 1 } => {
            if *prim == PrimitiveBasis::Fourier {
                return Err(FrontendError::type_err(".flip is undefined for fourier"));
            }
            let flipped = BasisLiteral::new(
                *prim,
                vec![
                    BasisVector::new(BitString::from_value(1, 1)),
                    BasisVector::new(BitString::from_value(0, 1)),
                ],
            )?;
            Ok((basis.clone(), Basis::literal(flipped)))
        }
        asdf_basis::BasisElem::Literal(lit) if lit.len() == 2 => {
            let swapped = BasisLiteral::new(
                lit.prim(),
                vec![lit.vectors()[1].clone(), lit.vectors()[0].clone()],
            )?;
            Ok((basis.clone(), Basis::literal(swapped)))
        }
        other => Err(FrontendError::type_err(format!(
            ".flip requires a one-qubit built-in basis or a two-vector literal, found {other}"
        ))),
    }
}

/// Width-checks a classical body expression, returning its bit width.
pub(crate) fn check_cexpr(
    e: &CExpr,
    widths: &HashMap<String, usize>,
    dims: &HashMap<String, i64>,
) -> Result<usize, FrontendError> {
    Ok(match e {
        CExpr::Var(name) => {
            *widths.get(name).ok_or_else(|| FrontendError::unbound(name.clone()))?
        }
        CExpr::And(a, b) | CExpr::Or(a, b) | CExpr::Xor(a, b) => {
            let wa = check_cexpr(a, widths, dims)?;
            let wb = check_cexpr(b, widths, dims)?;
            if wa != wb {
                return Err(FrontendError::type_err(format!(
                    "bitwise operands have widths {wa} and {wb}"
                )));
            }
            wa
        }
        CExpr::Not(a) => check_cexpr(a, widths, dims)?,
        CExpr::Index(a, idx) => {
            let w = check_cexpr(a, widths, dims)?;
            let i = idx.eval_usize(dims)?;
            if i >= w {
                return Err(FrontendError::type_err(format!(
                    "bit index {i} out of range for width {w}"
                )));
            }
            1
        }
        CExpr::Repeat(a, n) => {
            let w = check_cexpr(a, widths, dims)?;
            if w != 1 {
                return Err(FrontendError::type_err(
                    ".repeat() applies to single bits".to_string(),
                ));
            }
            n.eval_usize(dims)?
        }
        CExpr::XorReduce(a) | CExpr::AndReduce(a) => {
            check_cexpr(a, widths, dims)?;
            1
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expand::{instantiate, CaptureValue};
    use crate::parse::parse_program;

    fn check_kernel(
        src: &str,
        kernel: &str,
        captures: Vec<CaptureValue>,
        n: Option<i64>,
    ) -> Result<TKernel, FrontendError> {
        let program = parse_program(src).unwrap();
        let explicit: HashMap<String, i64> =
            n.map(|v| [("N".to_string(), v)].into()).unwrap_or_default();
        let inst = instantiate(&program, kernel, &captures, &explicit)?;
        typecheck_kernel(&program, kernel, &inst)
    }

    const FIG1: &str = r"
        classical f[N](secret: bit[N], x: bit[N]) -> bit {
            (secret & x).xor_reduce()
        }
        qpu kernel[N](f: cfunc[N, 1]) -> bit[N] {
            'p'[N] | f.sign | pm[N] >> std[N] | std[N].measure
        }
    ";

    fn fig1_captures() -> Vec<CaptureValue> {
        vec![CaptureValue::CFunc {
            name: "f".into(),
            captures: vec![CaptureValue::bits_from_str("1010")],
        }]
    }

    #[test]
    fn fig1_typechecks() {
        let kernel = check_kernel(FIG1, "kernel", fig1_captures(), None).unwrap();
        assert_eq!(kernel.ret, ValueKind::Bit(4));
        assert_eq!(kernel.classical.len(), 1);
        assert_eq!(kernel.classical[0].n_in, 4);
        assert_eq!(kernel.classical[0].n_out, 1);
        // The classical instance evaluates (secret & x).xor_reduce().
        let out = kernel.classical[0].eval(&[true, true, false, false]).unwrap();
        assert_eq!(out, vec![true]); // 1010 & 1100 = 1000, parity 1
    }

    #[test]
    fn span_mismatch_rejected() {
        let src = r"
            qpu bad() -> bit[1] {
                '0' | {'0'} >> {'1'} | std.measure
            }
        ";
        let err = check_kernel(src, "bad", vec![], None).unwrap_err();
        assert!(matches!(err, FrontendError::SpanEquiv { .. }), "{err}");
    }

    #[test]
    fn exponential_span_check_is_fast() {
        // The §4.1 example: both sides have 2^64 vectors.
        let src = r"
            qpu big() -> bit[64] {
                '0'[64] | {'0','1'}[64] >> {'1','0'}[64] | std[64].measure
            }
        ";
        check_kernel(src, "big", vec![], None).unwrap();
    }

    #[test]
    fn linear_double_use_rejected() {
        let src = r"
            qpu dup(q: qubit) -> qubit[2] {
                q + q
            }
        ";
        let err = check_kernel(src, "dup", vec![], None).unwrap_err();
        assert!(err.to_string().contains("more than once"), "{err}");
    }

    #[test]
    fn linear_drop_rejected() {
        let src = r"
            qpu dropper(q: qubit) -> qubit {
                '0'
            }
        ";
        let err = check_kernel(src, "dropper", vec![], None).unwrap_err();
        assert!(err.to_string().contains("never used"), "{err}");
    }

    #[test]
    fn adjoint_of_measurement_rejected() {
        let src = r"
            qpu bad(q: qubit) -> bit[1] {
                q | ~std.measure
            }
        ";
        let err = check_kernel(src, "bad", vec![], None).unwrap_err();
        assert!(err.to_string().contains("reversible"), "{err}");
    }

    #[test]
    fn teleport_typechecks() {
        let src = r"
            qpu teleport(secret: qubit) -> qubit {
                let alice, bob = 'p0' | '1' & std.flip;
                let m_pm, m_std = secret + alice | '1' & std.flip | (pm + std).measure;
                bob | (pm.flip if m_std else id) | (std.flip if m_pm else id)
            }
        ";
        let kernel = check_kernel(src, "teleport", vec![], None).unwrap();
        assert_eq!(kernel.ret, ValueKind::Qubit(1));
        assert_eq!(kernel.params.len(), 1);
    }

    #[test]
    fn grover_shapes_typecheck() {
        let src = r"
            classical oracle[N](x: bit[N]) -> bit { x.and_reduce() }
            qpu grover[N](f: cfunc[N, 1]) -> bit[N] {
                'p'[N] | (f.sign | {'p'[N]} >> {-'p'[N]}) ** 3 | std[N].measure
            }
        ";
        let captures = vec![CaptureValue::CFunc { name: "oracle".into(), captures: vec![] }];
        let kernel = check_kernel(src, "grover", captures, Some(4)).unwrap();
        let TStmt::Expr(body) = &kernel.body[0] else { panic!() };
        assert_eq!(body.ty, Type::Value(ValueKind::Bit(4)));
    }

    #[test]
    fn pred_widens_type() {
        let src = r"
            qpu cnot(qs: qubit[2]) -> qubit[2] {
                qs | '1' & std.flip
            }
        ";
        check_kernel(src, "cnot", vec![], None).unwrap();
    }

    #[test]
    fn basis_as_value_rejected() {
        let src = r"
            qpu bad() -> bit[1] {
                std | std.measure
            }
        ";
        let err = check_kernel(src, "bad", vec![], None).unwrap_err();
        assert!(err.to_string().contains("basis"), "{err}");
    }

    #[test]
    fn simon_shape_typechecks() {
        let src = r"
            classical f[N](s: bit[N], x: bit[N]) -> bit[N] {
                x ^ (x[0].repeat(N) & s)
            }
            qpu simon[N](f: cfunc[N, N]) -> bit[2*N] {
                'p'[N] + '0'[N] | f.xor | (pm[N] >> std[N]) + id[N] | std[2*N].measure
            }
        ";
        let captures = vec![CaptureValue::CFunc {
            name: "f".into(),
            captures: vec![CaptureValue::bits_from_str("110")],
        }];
        let kernel = check_kernel(src, "simon", captures, None).unwrap();
        assert_eq!(kernel.ret, ValueKind::Bit(6));
        assert_eq!(kernel.classical[0].n_in, 3);
        assert_eq!(kernel.classical[0].n_out, 3);
    }
}
