//! Module verification: op signatures, structural rules, and qubit
//! linearity.
//!
//! The Qwerty type system enforces linear use of qubits at the AST level
//! (§4); the IR verifier re-enforces the same invariant after every pass,
//! which catches transformation bugs early: any quantum value must be used
//! exactly once and cannot be discarded.
//!
//! Verification is linear in the size of the function: definedness,
//! visibility and linear use counts live in arrays indexed by value
//! (values are arena indices below [`Func::num_values`]), sized once per
//! function and shared by all of its blocks.

use crate::block::{Block, BlockPath};
use crate::error::IrError;
use crate::func::Func;
use crate::module::Module;
use crate::op::{Op, OpKind};
use crate::print::op_line;
use crate::types::{FuncType, Type};
use crate::value::Value;
use std::ops::Range;

/// Verifies a whole module.
///
/// # Errors
///
/// Returns [`IrError::Verify`] naming the offending function and op on the
/// first violation found.
pub fn verify_module(module: &Module) -> Result<(), IrError> {
    let mut scratch = Scratch::default();
    for func in module.funcs() {
        verify_with(func, Some(module), &mut scratch)?;
    }
    Ok(())
}

/// Verifies one function. Pass the module when available so symbol
/// references (`call`, `func_const`, `callable_create`) are checked too.
///
/// # Errors
///
/// Returns [`IrError::Verify`] on the first violation.
pub fn verify_func(func: &Func, module: Option<&Module>) -> Result<(), IrError> {
    verify_with(func, module, &mut Scratch::default())
}

fn verify_with(func: &Func, module: Option<&Module>, scratch: &mut Scratch) -> Result<(), IrError> {
    scratch.reset(func.num_values());
    let mut ctx = Ctx { func, module, s: scratch };
    ctx.verify_block(&func.body, &func.ty.results, 0..0, &Vec::new()).map_err(IrError::Verify)
}

/// "No block" in [`Scratch::def_block`], "no use" in
/// [`Scratch::last_use`].
const NONE: u32 = u32::MAX;

/// The verifier's bookkeeping for one function.
#[derive(Default)]
struct Scratch {
    /// Per value: the visit number of the block defining it (as a block
    /// argument, a lent linear value, or an op result), or [`NONE`].
    def_block: Vec<u32>,
    /// Per linear value: its uses so far in the block defining it.
    uses: Vec<u32>,
    /// Per linear value: the op index of its latest use there, or [`NONE`].
    last_use: Vec<u32>,
    /// Per block visit: whether the block is still being verified, i.e.
    /// encloses the current block (its classical values are visible).
    open: Vec<bool>,
    /// The linear values lent to the `scf.if` branches being verified, one
    /// slice per nesting level, each with the lending block's `(uses,
    /// last_use)` to restore after every branch.
    lent: Vec<(Value, u32, u32)>,
    /// The lendable values of one region-bearing op, each with a bit per
    /// `scf.if` branch that uses it.
    region_uses: Vec<(Value, u8)>,
}

impl Scratch {
    fn reset(&mut self, num_values: usize) {
        self.def_block.clear();
        self.def_block.resize(num_values, NONE);
        if self.uses.len() < num_values {
            self.uses.resize(num_values, 0);
            self.last_use.resize(num_values, NONE);
        }
        self.open.clear();
        self.lent.clear();
    }

    fn define(&mut self, v: Value, block: u32) {
        let i = v.index();
        self.def_block[i] = block;
        self.uses[i] = 0;
        self.last_use[i] = NONE;
    }

    /// Whether `block` (a visit number or [`NONE`]) is still open.
    fn is_open(&self, block: u32) -> bool {
        block != NONE && self.open[block as usize]
    }
}

struct Ctx<'a> {
    func: &'a Func,
    module: Option<&'a Module>,
    s: &'a mut Scratch,
}

impl<'a> Ctx<'a> {
    fn ty(&self, v: Value) -> &'a Type {
        self.func.value_type(v)
    }

    /// The `func:block:op` coordinates of an op: its block's preorder
    /// number in [`Func::block_paths`] and its index in that block.
    fn location(&self, path: &BlockPath, op_idx: usize) -> String {
        let block_no = self
            .func
            .block_paths()
            .iter()
            .position(|p| p == path)
            .map_or_else(|| "?".to_string(), |n| n.to_string());
        format!("{}:{}:{}", self.func.name, block_no, op_idx)
    }

    /// Renders a violation at `path[op_idx]`: the message, the op's
    /// `func:block:op` coordinates, and the pretty-printed op itself.
    fn op_err(&self, path: &BlockPath, op_idx: usize, op: &Op, msg: String) -> String {
        format!("at {}: {msg}\n  in op: {}", self.location(path, op_idx), op_line(op))
    }

    /// Verifies a block given the result types its terminator must return
    /// and the range of [`Scratch::lent`] holding the *linear* values of
    /// the enclosing block this block must consume exactly once (`scf.if`
    /// branch regions receive the linear values the branch consumes, per
    /// the Appendix C inlining pattern). Classical values of every
    /// enclosing block are visible.
    fn verify_block(
        &mut self,
        block: &Block,
        expected_results: &[Type],
        lent: Range<usize>,
        path: &BlockPath,
    ) -> Result<(), String> {
        // Structural: non-empty, terminator last and only last.
        let Some(last) = block.ops.last() else {
            return Err(format!("at {}: block has no terminator", self.location(path, 0)));
        };
        if !last.is_terminator() {
            return Err(self.op_err(
                path,
                block.ops.len() - 1,
                last,
                format!("block does not end in a terminator (ends in {})", last.kind.mnemonic()),
            ));
        }
        for (idx, op) in block.ops[..block.ops.len() - 1].iter().enumerate() {
            if op.is_terminator() {
                return Err(self.op_err(
                    path,
                    idx,
                    op,
                    format!("terminator {} in the middle of a block", op.kind.mnemonic()),
                ));
            }
        }

        // Definedness + linearity bookkeeping. Outer linear values lent to
        // this block must be consumed exactly once, like block arguments.
        let me = u32::try_from(self.s.open.len()).expect("fewer than 2^32 blocks");
        self.s.open.push(true);
        for &arg in &block.args {
            if arg.index() >= self.func.num_values() {
                return Err(format!(
                    "at {}: block argument {arg} is out of the value arena",
                    self.location(path, 0)
                ));
            }
            self.s.define(arg, me);
        }
        for i in lent.clone() {
            self.s.define(self.s.lent[i].0, me);
        }

        for (idx, op) in block.ops.iter().enumerate() {
            for &operand in &op.operands {
                let i = operand.index();
                if i >= self.func.num_values() {
                    return Err(self.op_err(
                        path,
                        idx,
                        op,
                        format!("uses out-of-arena value {operand}"),
                    ));
                }
                let linear = self.ty(operand).is_linear();
                let def = self.s.def_block[i];
                if def == me {
                    if linear {
                        self.s.uses[i] += 1;
                        self.s.last_use[i] = idx as u32;
                    }
                } else if linear {
                    return Err(self.op_err(
                        path,
                        idx,
                        op,
                        format!("uses linear value {operand} not defined in this block"),
                    ));
                } else if !self.s.is_open(def) {
                    return Err(self.op_err(
                        path,
                        idx,
                        op,
                        format!("uses undefined value {operand}"),
                    ));
                }
            }

            if let Some(result) = op.results.iter().find(|r| r.index() >= self.func.num_values()) {
                return Err(self.op_err(
                    path,
                    idx,
                    op,
                    format!("defines out-of-arena value {result}"),
                ));
            }

            self.check_op(op, expected_results).map_err(|e| self.op_err(path, idx, op, e))?;

            if !op.regions.is_empty() {
                self.verify_regions(op, idx, me, path)?;
            }

            for &result in &op.results {
                if self.s.is_open(self.s.def_block[result.index()]) {
                    return Err(self.op_err(path, idx, op, format!("redefines value {result}")));
                }
                self.s.define(result, me);
            }
        }

        // Every linear value defined here is consumed exactly once; the
        // first violation in definition order (block arguments, lent
        // values, then op results in program order) is reported.
        for &arg in &block.args {
            self.check_consumed(block, arg, path)?;
        }
        for i in lent {
            self.check_consumed(block, self.s.lent[i].0, path)?;
        }
        for op in &block.ops {
            for &result in &op.results {
                self.check_consumed(block, result, path)?;
            }
        }
        self.s.open[me as usize] = false;
        Ok(())
    }

    /// Fails unless `v`, defined in `block`, is classical or used exactly
    /// once there.
    fn check_consumed(&self, block: &Block, v: Value, path: &BlockPath) -> Result<(), String> {
        let count = self.s.uses[v.index()];
        if count == 1 || !self.ty(v).is_linear() {
            return Ok(());
        }
        let msg =
            format!("linear value {v} ({}) used {count} times; must be exactly once", self.ty(v));
        // Over-use points at the offending (latest) use; under-use points
        // at the terminator, where the value should have been consumed by.
        let idx = match self.s.last_use[v.index()] {
            NONE => block.ops.len() - 1,
            last => last as usize,
        };
        Err(self.op_err(path, idx, &block.ops[idx], msg))
    }

    /// Verifies the regions of `op`, the `idx`-th op of block visit `me`.
    /// Linear values of that block may flow into `scf.if` branch regions:
    /// each branch consumes them exactly once, both branches must agree,
    /// and the `scf.if` as a whole counts as one use. Lambdas may never
    /// capture linear values (their bodies run later).
    fn verify_regions(
        &mut self,
        op: &Op,
        idx: usize,
        me: u32,
        path: &BlockPath,
    ) -> Result<(), String> {
        let func = self.func;
        let s = &mut *self.s;
        s.region_uses.clear();
        for_each_nested_operand(&op.regions, &mut |v| {
            let lendable = s.def_block.get(v.index()) == Some(&me)
                && func.value_type(v).is_linear()
                && !op.operands.contains(&v);
            if lendable {
                s.region_uses.push((v, 0));
            }
        });
        s.region_uses.sort_unstable();
        s.region_uses.dedup();
        if let Some(&(first, _)) = s.region_uses.first() {
            if matches!(op.kind, OpKind::Lambda { .. }) {
                return Err(self.op_err(
                    path,
                    idx,
                    op,
                    format!("lambda captures linear value {first} inside its region"),
                ));
            }
        }

        let base = s.lent.len();
        if matches!(op.kind, OpKind::ScfIf) {
            // Every lendable value is used in some branch (the verifier
            // checked there are exactly two), so the branches agree iff
            // each one uses all of them.
            for (branch, region) in op.regions.iter().enumerate() {
                for_each_nested_operand(std::slice::from_ref(region), &mut |v| {
                    if let Ok(pos) = s.region_uses.binary_search_by_key(&v, |u| u.0) {
                        s.region_uses[pos].1 |= 1 << branch;
                    }
                });
            }
            if s.region_uses.iter().any(|u| u.1 != 0b11) {
                return Err(self.op_err(
                    path,
                    idx,
                    op,
                    "branches consume different linear values".to_string(),
                ));
            }
            for &(v, _) in &s.region_uses {
                let i = v.index();
                s.uses[i] += 1;
                s.last_use[i] = idx as u32;
                s.lent.push((v, s.uses[i], s.last_use[i]));
            }
        }
        let lent = base..s.lent.len();

        let if_results: Vec<Type>;
        let nested_results: &[Type] = match &op.kind {
            OpKind::ScfIf => {
                if_results = op.results.iter().map(|v| self.ty(*v).clone()).collect();
                &if_results
            }
            OpKind::Lambda { func_ty } => &func_ty.results,
            _ => &[],
        };
        for (region_idx, nested) in op.regions.iter().enumerate() {
            // Nested violations already carry their own `func:block:op`
            // coordinates; propagate unchanged.
            let mut nested_path = path.clone();
            nested_path.push((idx, region_idx));
            self.verify_block(nested, nested_results, lent.clone(), &nested_path)?;
            // The branch consumed its loans; restore the lender's view.
            for i in lent.clone() {
                let (v, uses, last_use) = self.s.lent[i];
                self.s.def_block[v.index()] = me;
                self.s.uses[v.index()] = uses;
                self.s.last_use[v.index()] = last_use;
            }
        }
        self.s.lent.truncate(base);
        Ok(())
    }

    /// Per-op signature checks.
    fn check_op(&self, op: &Op, expected_results: &[Type]) -> Result<(), String> {
        let ty = |v: &Value| self.ty(*v);
        let operand = |i: usize| op.operands.get(i).map(ty);
        let all = |values: &[Value], want: &Type| values.iter().all(|v| same_type(ty(v), want));
        // Exactly one result, of type `want`.
        let yields = |want: &Type| op.results.len() == 1 && same_type(ty(&op.results[0]), want);
        let yields_func = |want: &FuncType| {
            op.results.len() == 1 && matches!(ty(&op.results[0]), Type::Func(ft) if **ft == *want)
        };
        let expect = |cond: bool, msg: &str| -> Result<(), String> {
            if cond {
                Ok(())
            } else {
                Err(msg.to_string())
            }
        };

        match &op.kind {
            OpKind::QbPrep { dim, .. } => {
                expect(op.operands.is_empty(), "qbprep takes no operands")?;
                expect(yields(&Type::QBundle(*dim)), "qbprep yields one qbundle of its dimension")
            }
            OpKind::QbDiscard | OpKind::QbDiscardZ => {
                expect(
                    op.operands.len() == 1 && matches!(operand(0), Some(Type::QBundle(_))),
                    "discard takes one qbundle",
                )?;
                expect(op.results.is_empty(), "discard yields nothing")
            }
            OpKind::QbTrans { basis_in, basis_out } => {
                let Some(Type::QBundle(n)) = operand(0) else {
                    return Err("qbtrans operand 0 must be a qbundle".to_string());
                };
                expect(
                    basis_in.dim() == *n && basis_out.dim() == *n,
                    "qbtrans basis dimensions must match the qbundle",
                )?;
                expect(all(&op.operands[1..], &Type::F64), "qbtrans phase operands must be f64")?;
                expect(
                    yields(&Type::QBundle(*n)),
                    "qbtrans yields one qbundle of the same dimension",
                )
            }
            OpKind::QbMeas { basis } => {
                let Some(Type::QBundle(n)) = operand(0) else {
                    return Err("qbmeas takes a qbundle".to_string());
                };
                expect(basis.dim() == *n, "qbmeas basis dimension must match")?;
                expect(
                    yields(&Type::BitBundle(*n)),
                    "qbmeas yields a bitbundle of the same dimension",
                )
            }
            OpKind::QbPack => {
                // Zero operands produce the unit bundle qbundle[0] (the
                // result of `discard`).
                expect(all(&op.operands, &Type::Qubit), "qbpack takes qubits")?;
                expect(yields(&Type::QBundle(op.operands.len())), "qbpack yields qbundle[N]")
            }
            OpKind::QbUnpack => {
                let Some(Type::QBundle(n)) = operand(0) else {
                    return Err("qbunpack takes a qbundle".to_string());
                };
                expect(
                    op.results.len() == *n && all(&op.results, &Type::Qubit),
                    "qbunpack yields N qubits",
                )
            }
            OpKind::BitPack => {
                expect(all(&op.operands, &Type::I1), "bitpack takes i1s")?;
                expect(yields(&Type::BitBundle(op.operands.len())), "bitpack yields bitbundle[N]")
            }
            OpKind::BitUnpack => {
                let Some(Type::BitBundle(n)) = operand(0) else {
                    return Err("bitunpack takes a bitbundle".to_string());
                };
                expect(
                    op.results.len() == *n && all(&op.results, &Type::I1),
                    "bitunpack yields N i1s",
                )
            }
            OpKind::FuncConst { symbol } => {
                if let Some(module) = self.module {
                    let target = module
                        .func(symbol)
                        .ok_or_else(|| format!("func_const references unknown @{symbol}"))?;
                    expect(
                        yields_func(&target.ty),
                        "func_const result type must match the symbol's signature",
                    )?;
                }
                Ok(())
            }
            OpKind::FuncAdj => {
                let Some(fn_ty @ Type::Func(ft)) = operand(0) else {
                    return Err("func_adj takes a function value".to_string());
                };
                expect(ft.reversible, "func_adj requires a reversible function")?;
                expect(yields(fn_ty), "func_adj preserves the function type")
            }
            OpKind::FuncPred { pred } => {
                let Some(Type::Func(ft)) = operand(0) else {
                    return Err("func_pred takes a function value".to_string());
                };
                let n =
                    rev_qbundle_dim(ft).ok_or("func_pred requires qbundle[N] -rev-> qbundle[N]")?;
                let m = pred.dim();
                expect(
                    yields_func(&FuncType::rev_qbundle(m + n)),
                    "func_pred yields qbundle[M+N] -rev-> qbundle[M+N]",
                )
            }
            OpKind::Call { callee, adj, pred } => {
                let Some(module) = self.module else { return Ok(()) };
                let target = module
                    .func(callee)
                    .ok_or_else(|| format!("call references unknown @{callee}"))?;
                let effective = effective_call_type(&target.ty, *adj, pred.as_ref())?;
                self.check_signature(&effective, &op.operands, &op.results)
            }
            OpKind::CallIndirect => {
                let Some(Type::Func(ft)) = operand(0) else {
                    return Err("call_indirect operand 0 must be a function value".to_string());
                };
                self.check_signature(ft, &op.operands[1..], &op.results)
            }
            OpKind::Lambda { func_ty } => {
                let [block] = op.regions.as_slice() else {
                    return Err("lambda has one region".to_string());
                };
                // The body's arguments are typed here, before the body
                // itself is verified.
                expect(
                    block.args.iter().all(|a| a.index() < self.func.num_values()),
                    "lambda block argument out of the value arena",
                )?;
                expect(
                    block.args.len() == op.operands.len() + func_ty.inputs.len(),
                    "lambda block args must be captures ++ params",
                )?;
                for (cap, arg) in op.operands.iter().zip(&block.args) {
                    expect(same_type(ty(cap), ty(arg)), "lambda capture/arg type mismatch")?;
                    expect(!ty(cap).is_linear(), "lambda cannot capture linear values")?;
                }
                for (input, arg) in func_ty.inputs.iter().zip(&block.args[op.operands.len()..]) {
                    expect(same_type(input, ty(arg)), "lambda param type mismatch")?;
                }
                expect(yields_func(func_ty), "lambda yields its function type")
            }
            OpKind::Return | OpKind::Yield => {
                expect(op.results.is_empty(), "terminators yield nothing")?;
                expect(
                    op.operands.len() == expected_results.len()
                        && op
                            .operands
                            .iter()
                            .zip(expected_results)
                            .all(|(v, t)| same_type(ty(v), t)),
                    "terminator operands must match the enclosing result types",
                )
            }
            OpKind::ScfIf => {
                expect(
                    op.operands.len() == 1 && all(&op.operands, &Type::I1),
                    "scf.if takes one i1",
                )?;
                expect(op.regions.len() == 2, "scf.if has then and else regions")
            }
            OpKind::ConstF64 { .. } => {
                expect(op.operands.is_empty() && yields(&Type::F64), "f64 constant")
            }
            OpKind::ConstI1 { .. } => {
                expect(op.operands.is_empty() && yields(&Type::I1), "i1 constant")
            }
            OpKind::FAdd | OpKind::FSub | OpKind::FMul | OpKind::FDiv => expect(
                op.operands.len() == 2 && all(&op.operands, &Type::F64) && yields(&Type::F64),
                "binary f64 arithmetic",
            ),
            OpKind::FNeg => expect(
                op.operands.len() == 1 && all(&op.operands, &Type::F64) && yields(&Type::F64),
                "unary f64 negation",
            ),
            OpKind::XorI1 | OpKind::AndI1 => expect(
                op.operands.len() == 2 && all(&op.operands, &Type::I1) && yields(&Type::I1),
                "binary i1 logic",
            ),
            OpKind::NotI1 => expect(
                op.operands.len() == 1 && all(&op.operands, &Type::I1) && yields(&Type::I1),
                "unary i1 logic",
            ),
            OpKind::QAlloc => {
                expect(op.operands.is_empty() && yields(&Type::Qubit), "qalloc yields one qubit")
            }
            OpKind::QFree | OpKind::QFreeZ => expect(
                op.operands.len() == 1 && all(&op.operands, &Type::Qubit) && op.results.is_empty(),
                "qfree takes one qubit",
            ),
            OpKind::Gate { gate, num_controls } => {
                let total = num_controls + gate.num_targets();
                expect(
                    op.operands.len() == total && all(&op.operands, &Type::Qubit),
                    "gate takes controls + targets qubits",
                )?;
                expect(
                    op.results.len() == total && all(&op.results, &Type::Qubit),
                    "gate yields a new state per operand qubit",
                )
            }
            OpKind::Measure => expect(
                op.operands.len() == 1
                    && all(&op.operands, &Type::Qubit)
                    && op.results.len() == 2
                    && matches!(ty(&op.results[0]), Type::Qubit)
                    && matches!(ty(&op.results[1]), Type::I1),
                "measure yields (qubit, i1)",
            ),
            OpKind::ArrPack => {
                let Some(first) = operand(0) else {
                    return Err("arrpack needs at least one element".to_string());
                };
                expect(all(&op.operands, first), "arrpack elements must share a type")?;
                expect(
                    op.results.len() == 1
                        && matches!(ty(&op.results[0]),
                            Type::Array(elem, n) if **elem == *first && *n == op.operands.len()),
                    "arrpack yields array<T>[N]",
                )
            }
            OpKind::ArrUnpack => {
                let Some(Type::Array(elem, n)) = operand(0) else {
                    return Err("arrunpack takes an array".to_string());
                };
                expect(
                    op.results.len() == *n && all(&op.results, elem),
                    "arrunpack yields N elements",
                )
            }
            OpKind::CallableCreate { symbol } => {
                if let Some(module) = self.module {
                    if !module.contains(symbol) {
                        return Err(format!("callable_create references unknown @{symbol}"));
                    }
                }
                expect(yields(&Type::Callable), "callable_create yields a callable")
            }
            OpKind::CallableAdjoint | OpKind::CallableControl { .. } => expect(
                op.operands.len() == 1
                    && all(&op.operands, &Type::Callable)
                    && yields(&Type::Callable),
                "callable modifiers take and yield a callable",
            ),
            OpKind::CallableInvoke => expect(
                matches!(operand(0), Some(Type::Callable)),
                "callable_invoke operand 0 must be a callable",
            ),
        }
    }

    fn check_signature(
        &self,
        ft: &FuncType,
        args: &[Value],
        results: &[Value],
    ) -> Result<(), String> {
        let matches = |values: &[Value], types: &[Type]| {
            values.len() == types.len()
                && values.iter().zip(types).all(|(v, t)| same_type(self.ty(*v), t))
        };
        if !matches(args, &ft.inputs) {
            return Err("call arguments do not match the callee signature".to_string());
        }
        if !matches(results, &ft.results) {
            return Err("call results do not match the callee signature".to_string());
        }
        Ok(())
    }
}

/// `a == b`, inline for the types the checks compare most: payload-free
/// types compare by variant and bundles by width. Only function and array
/// types take the derived `PartialEq`, which recurses through their boxes.
#[inline]
fn same_type(a: &Type, b: &Type) -> bool {
    match (a, b) {
        (Type::QBundle(x), Type::QBundle(y)) | (Type::BitBundle(x), Type::BitBundle(y)) => x == y,
        (Type::Func(_) | Type::Array(..), _) => a == b,
        _ => std::mem::discriminant(a) == std::mem::discriminant(b),
    }
}

/// Calls `f` on every operand of every op in `regions`, transitively
/// through nested regions.
fn for_each_nested_operand(regions: &[Block], f: &mut impl FnMut(Value)) {
    for block in regions {
        for op in &block.ops {
            op.operands.iter().for_each(|v| f(*v));
            for_each_nested_operand(&op.regions, f);
        }
    }
}

/// For `qbundle[N] -rev-> qbundle[N]` types, returns `N`.
pub fn rev_qbundle_dim(ft: &FuncType) -> Option<usize> {
    if !ft.reversible {
        return None;
    }
    match (ft.inputs.as_slice(), ft.results.as_slice()) {
        ([Type::QBundle(a)], [Type::QBundle(b)]) if a == b => Some(*a),
        _ => None,
    }
}

/// The signature a `call [adj] [pred(b)] @f` must satisfy (§5, §6.2): `adj`
/// preserves the type; `pred(b)` widens `qbundle[N]` to `qbundle[M+N]`.
///
/// # Errors
///
/// Returns a message when `adj`/`pred` are applied to an incompatible
/// signature.
pub(crate) fn effective_call_type(
    base: &FuncType,
    adj: bool,
    pred: Option<&asdf_basis::Basis>,
) -> Result<FuncType, String> {
    let mut ty = base.clone();
    if adj && !ty.reversible {
        return Err("adjoint call of an irreversible function".to_string());
    }
    if let Some(pred) = pred {
        let n =
            rev_qbundle_dim(&ty).ok_or("predicated call requires qbundle[N] -rev-> qbundle[N]")?;
        ty = FuncType::rev_qbundle(pred.dim() + n);
    }
    Ok(ty)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::{FuncBuilder, Visibility};
    use asdf_basis::{Basis, PrimitiveBasis};

    fn verify(func: Func) -> Result<(), IrError> {
        verify_func(&func, None)
    }

    #[test]
    fn accepts_simple_kernel() {
        let mut b = FuncBuilder::new(
            "k",
            FuncType::new(vec![], vec![Type::BitBundle(1)], false),
            Visibility::Public,
        );
        let mut bb = b.block();
        let q = bb.push(
            OpKind::QbPrep {
                prim: PrimitiveBasis::Std,
                eigenstate: asdf_basis::Eigenstate::Plus,
                dim: 1,
            },
            vec![],
            vec![Type::QBundle(1)],
        );
        let m = bb.push(
            OpKind::QbMeas { basis: Basis::built_in(PrimitiveBasis::Std, 1) },
            vec![q[0]],
            vec![Type::BitBundle(1)],
        );
        bb.push(OpKind::Return, vec![m[0]], vec![]);
        verify(b.finish()).unwrap();
    }

    #[test]
    fn rejects_double_use_of_qubit() {
        let mut b = FuncBuilder::new(
            "k",
            FuncType::new(vec![Type::QBundle(1)], vec![], false),
            Visibility::Public,
        );
        let arg = b.args()[0];
        let mut bb = b.block();
        bb.push(OpKind::QbDiscard, vec![arg], vec![]);
        bb.push(OpKind::QbDiscard, vec![arg], vec![]);
        bb.push(OpKind::Return, vec![], vec![]);
        let err = verify(b.finish()).unwrap_err();
        assert!(err.to_string().contains("used 2 times"), "{err}");
    }

    #[test]
    fn rejects_dropped_qubit() {
        let mut b = FuncBuilder::new(
            "k",
            FuncType::new(vec![Type::QBundle(1)], vec![], false),
            Visibility::Public,
        );
        let mut bb = b.block();
        bb.push(OpKind::Return, vec![], vec![]);
        let err = verify(b.finish()).unwrap_err();
        assert!(err.to_string().contains("used 0 times"), "{err}");
    }

    #[test]
    fn linear_violations_are_reported_in_definition_order() {
        // Two dropped block arguments, then two dropped qalloc results:
        // the first argument is reported, and on every run the same one.
        let verify_drops = |with_args: bool| {
            let inputs = if with_args { vec![Type::Qubit, Type::Qubit] } else { vec![] };
            let mut b =
                FuncBuilder::new("k", FuncType::new(inputs, vec![], false), Visibility::Public);
            let mut bb = b.block();
            bb.push(OpKind::QAlloc, vec![], vec![Type::Qubit]);
            bb.push(OpKind::QAlloc, vec![], vec![Type::Qubit]);
            bb.push(OpKind::Return, vec![], vec![]);
            verify(b.finish()).unwrap_err().to_string()
        };
        let args_first = verify_drops(true);
        assert!(args_first.contains("linear value %0 (qubit) used 0 times"), "{args_first}");
        for _ in 0..50 {
            assert_eq!(verify_drops(true), args_first);
        }
        // Without arguments, the first qalloc's result (%0) comes first.
        let results_first = verify_drops(false);
        assert!(results_first.contains("linear value %0 (qubit) used 0 times"), "{results_first}");
        for _ in 0..50 {
            assert_eq!(verify_drops(false), results_first);
        }
    }

    #[test]
    fn rejects_missing_terminator() {
        let mut b = FuncBuilder::new("k", FuncType::new(vec![], vec![], false), Visibility::Public);
        b.block().push(OpKind::QAlloc, vec![], vec![Type::Qubit]);
        let err = verify(b.finish()).unwrap_err();
        assert!(err.to_string().contains("terminator"), "{err}");
    }

    #[test]
    fn rejects_basis_dim_mismatch() {
        let mut b = FuncBuilder::new("k", FuncType::rev_qbundle(2), Visibility::Public);
        let arg = b.args()[0];
        let mut bb = b.block();
        let t = bb.push(
            OpKind::QbTrans {
                basis_in: Basis::built_in(PrimitiveBasis::Std, 1),
                basis_out: Basis::built_in(PrimitiveBasis::Pm, 1),
            },
            vec![arg],
            vec![Type::QBundle(2)],
        );
        bb.push(OpKind::Return, vec![t[0]], vec![]);
        let err = verify(b.finish()).unwrap_err();
        assert!(err.to_string().contains("dimensions"), "{err}");
    }

    #[test]
    fn verify_error_renders_op_and_path() {
        // Over-use points at the second discard, with its `func:block:op`
        // coordinates, plus the pretty-printed offending op.
        let mut b = FuncBuilder::new(
            "k",
            FuncType::new(vec![Type::QBundle(1)], vec![], false),
            Visibility::Public,
        );
        let arg = b.args()[0];
        let mut bb = b.block();
        bb.push(OpKind::QbDiscard, vec![arg], vec![]);
        bb.push(OpKind::QbDiscard, vec![arg], vec![]);
        bb.push(OpKind::Return, vec![], vec![]);
        let err = verify(b.finish()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("at k:0:1:"), "{msg}");
        assert!(msg.contains("used 2 times"), "{msg}");
        assert!(msg.contains("in op: qwerty.qbdiscard %0"), "{msg}");
    }

    #[test]
    fn verify_error_locates_ops_in_nested_regions() {
        // A bad yield inside the then-region reports preorder block 1
        // (entry = 0, then = 1, else = 2), not the enclosing scf.if.
        let mut b = FuncBuilder::new(
            "k2",
            FuncType::new(vec![Type::I1], vec![], false),
            Visibility::Public,
        );
        let cond = b.args()[0];
        let mut bb = b.block();
        let t = bb.subblock(vec![], |sb| {
            let c = sb.push(OpKind::ConstF64 { value: 1.0 }, vec![], vec![Type::F64]);
            sb.push(OpKind::Yield, vec![c[0]], vec![]);
        });
        let e = bb.subblock(vec![], |sb| {
            sb.push(OpKind::Yield, vec![], vec![]);
        });
        bb.push_with_regions(OpKind::ScfIf, vec![cond], vec![], vec![t, e]);
        bb.push(OpKind::Return, vec![], vec![]);
        let err = verify(b.finish()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("at k2:1:1:"), "{msg}");
        assert!(msg.contains("in op: scf.yield %1"), "{msg}");
    }

    #[test]
    fn rejects_call_to_unknown_symbol() {
        let mut b = FuncBuilder::new("k", FuncType::new(vec![], vec![], false), Visibility::Public);
        let mut bb = b.block();
        bb.push(OpKind::Call { callee: "ghost".into(), adj: false, pred: None }, vec![], vec![]);
        bb.push(OpKind::Return, vec![], vec![]);
        let mut m = Module::new();
        m.add_func(b.finish());
        assert!(verify_module(&m).is_err());
    }

    #[test]
    fn gate_signature_checked() {
        let mut b = FuncBuilder::new(
            "k",
            FuncType::new(vec![Type::Qubit, Type::Qubit], vec![Type::Qubit, Type::Qubit], false),
            Visibility::Public,
        );
        let (c, t) = (b.args()[0], b.args()[1]);
        let mut bb = b.block();
        let out = bb.push(
            OpKind::Gate { gate: crate::gate::GateKind::X, num_controls: 1 },
            vec![c, t],
            vec![Type::Qubit, Type::Qubit],
        );
        bb.push(OpKind::Return, vec![out[0], out[1]], vec![]);
        verify(b.finish()).unwrap();
    }

    #[test]
    fn pred_call_type_widens() {
        let base = FuncType::rev_qbundle(2);
        let pred = Basis::built_in(PrimitiveBasis::Std, 3);
        let ty = effective_call_type(&base, false, Some(&pred)).unwrap();
        assert_eq!(ty, FuncType::rev_qbundle(5));
        let irrev = FuncType::new(vec![Type::QBundle(1)], vec![Type::BitBundle(1)], false);
        assert!(effective_call_type(&irrev, true, None).is_err());
    }
}
