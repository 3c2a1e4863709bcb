//! Qwerty IR canonicalization (§5.4 and Appendix C).
//!
//! The paper's sequence: (1) lift all lambdas to funcs referenced by
//! `func_const`s; (2) canonicalize so every
//! `call_indirect(func_const @f)()` becomes `call @f()` — including
//! patterns through `func_adj`/`func_pred`, which fold into `adj`/`pred`
//! call attributes; (3) inline repeatedly. The Appendix C patterns push
//! `call_indirect`/`func_adj`/`func_pred` into the forks of an `scf.if`
//! that defines their callee.

use crate::error::CoreError;
use asdf_ir::block::BlockPath;
use asdf_ir::clone::clone_ops_into;
use asdf_ir::rewrite::{PatternSet, RewritePattern, Rewriter};
use asdf_ir::{Func, FuncBuilder, Module, Op, OpKind, Value, Visibility};
use std::collections::HashMap;

/// The Qwerty-level canonicalization patterns as a [`PatternSet`].
pub fn qwerty_patterns() -> PatternSet {
    let mut set = PatternSet::new();
    set.add(Box::new(FoldDoubleAdj));
    set.add(Box::new(IndirectToDirect));
    set.add(Box::new(IfPushdown));
    set.add(Box::new(AdjPredIfPushdown));
    set
}

/// Lambda lifting (§5.4 step 1): replaces every `lambda` op with a private
/// func plus `func_const`. Captures are *rematerialized* — the pure
/// classical ops defining them are cloned into the lifted function — which
/// covers everything Qwerty lowering produces (constants, `func_const`s,
/// other lambdas, `func_adj`/`func_pred` wrappers).
///
/// # Errors
///
/// Returns [`CoreError::Unsupported`] if a capture is not rematerializable.
pub fn lift_lambdas(module: &mut Module) -> Result<usize, CoreError> {
    let mut lifted = 0usize;
    loop {
        let Some((func_name, path, op_idx)) = find_lambda(module) else {
            return Ok(lifted);
        };
        lift_one(module, &func_name, &path, op_idx)?;
        lifted += 1;
    }
}

fn find_lambda(module: &Module) -> Option<(String, BlockPath, usize)> {
    for func in module.funcs() {
        for path in func.block_paths() {
            for (i, op) in func.block_at(&path).ops.iter().enumerate() {
                if matches!(op.kind, OpKind::Lambda { .. }) {
                    return Some((func.name.clone(), path, i));
                }
            }
        }
    }
    None
}

fn lift_one(
    module: &mut Module,
    func_name: &str,
    path: &BlockPath,
    op_idx: usize,
) -> Result<(), CoreError> {
    let name = module.fresh_name("lambda");
    let src = module.expect_func(func_name)?.clone();
    let op = &src.block_at(path).ops[op_idx];
    let OpKind::Lambda { func_ty } = &op.kind else {
        return Err(CoreError::Ir("lift target is not a lambda".into()));
    };

    let builder = FuncBuilder::new(&name, func_ty.clone(), Visibility::Private);
    let new_args = builder.args().to_vec();
    let mut lifted = builder.finish();

    // Map lambda-block params (after captures) to the new func's args.
    let block = op.regions[0].only_block();
    let num_captures = op.operands.len();
    let mut map: HashMap<Value, Value> = HashMap::new();
    for (param, arg) in block.args[num_captures..].iter().zip(new_args) {
        map.insert(*param, arg);
    }

    // Rematerialize captures: clone the pure defining slices.
    let defs = whole_func_defs(&src);
    let mut remat_ops: Vec<Op> = Vec::new();
    for (capture, block_arg) in op.operands.iter().zip(&block.args[..num_captures]) {
        let v = rematerialize(&src, &defs, *capture, &mut lifted, &mut map, &mut remat_ops)?;
        map.insert(*block_arg, v);
    }

    // Clone the body.
    let body_ops = clone_ops_into(&src, &block.ops, &mut lifted, &mut map);
    lifted.body.ops = remat_ops;
    lifted.body.ops.extend(body_ops);
    module.add_func(lifted);

    // Replace the lambda with a func_const.
    let func = module.func_mut(func_name).expect("source func exists");
    let results = func.block_at(path).ops[op_idx].results.clone();
    func.block_at_mut(path).ops[op_idx] =
        Op::new(OpKind::FuncConst { symbol: name }, vec![], results);
    Ok(())
}

/// value -> (path, op index) for every op-defined value in the function.
fn whole_func_defs(func: &Func) -> HashMap<Value, (BlockPath, usize)> {
    let mut defs = HashMap::new();
    for path in func.block_paths() {
        for (i, op) in func.block_at(&path).ops.iter().enumerate() {
            for r in &op.results {
                defs.insert(*r, (path.clone(), i));
            }
        }
    }
    defs
}

/// Clones the pure-classical backward slice of `v` into `dest`.
fn rematerialize(
    src: &Func,
    defs: &HashMap<Value, (BlockPath, usize)>,
    v: Value,
    dest: &mut Func,
    map: &mut HashMap<Value, Value>,
    out_ops: &mut Vec<Op>,
) -> Result<Value, CoreError> {
    if let Some(mapped) = map.get(&v) {
        return Ok(*mapped);
    }
    let Some((path, op_idx)) = defs.get(&v) else {
        return Err(CoreError::Unsupported(format!(
            "lambda capture {v} is a block argument and cannot be rematerialized"
        )));
    };
    let op = src.block_at(path).ops[*op_idx].clone();
    if !op.kind.is_pure_classical() {
        return Err(CoreError::Unsupported(format!(
            "lambda capture {v} is defined by non-pure op {}",
            op.kind.mnemonic()
        )));
    }
    for operand in &op.operands {
        rematerialize(src, defs, *operand, dest, map, out_ops)?;
    }
    let cloned = clone_ops_into(src, std::slice::from_ref(&op), dest, map);
    out_ops.extend(cloned);
    Ok(map[&v])
}

/// `func_adj(func_adj(x))` → `x`.
pub struct FoldDoubleAdj;

impl RewritePattern for FoldDoubleAdj {
    fn name(&self) -> &'static str {
        "fold-double-adj"
    }

    fn matches_root_kind(&self, kind: &OpKind) -> bool {
        matches!(kind, OpKind::FuncAdj)
    }

    fn benefit(&self) -> usize {
        2
    }

    fn match_and_rewrite(&self, rw: &mut Rewriter<'_>) -> bool {
        let op = rw.op();
        if !matches!(op.kind, OpKind::FuncAdj) {
            return false;
        }
        let inner = op.operands[0];
        let result = op.results[0];
        let Some((inner_idx, _)) = rw.find_def(inner) else {
            return false;
        };
        let inner_op = &rw.block().ops[inner_idx];
        if !matches!(inner_op.kind, OpKind::FuncAdj) {
            return false;
        }
        let original = inner_op.operands[0];
        rw.erase_root();
        rw.replace_all_uses(result, original);
        true
    }
}

/// `call_indirect` through `func_adj`/`func_pred` wrappers of a
/// `func_const @f` → `call [adj] [pred(b)] @f` (§5.4's worked example).
pub struct IndirectToDirect;

impl RewritePattern for IndirectToDirect {
    fn name(&self) -> &'static str {
        "indirect-to-direct-call"
    }

    fn matches_root_kind(&self, kind: &OpKind) -> bool {
        matches!(kind, OpKind::CallIndirect)
    }

    fn benefit(&self) -> usize {
        2
    }

    fn match_and_rewrite(&self, rw: &mut Rewriter<'_>) -> bool {
        let op = rw.op();
        if !matches!(op.kind, OpKind::CallIndirect) {
            return false;
        }
        let block = rw.block();
        // Walk the wrapper chain outward-in.
        let mut adj = false;
        let mut preds: Vec<asdf_basis::Basis> = Vec::new();
        let mut current = op.operands[0];
        let callee = loop {
            let Some((def_idx, _)) = rw.find_def(current) else {
                return false;
            };
            let def = &block.ops[def_idx];
            match &def.kind {
                OpKind::FuncAdj => {
                    adj = !adj;
                    current = def.operands[0];
                }
                OpKind::FuncPred { pred } => {
                    preds.push(pred.clone());
                    current = def.operands[0];
                }
                OpKind::FuncConst { symbol } => break symbol.clone(),
                _ => return false,
            }
        };
        // Outermost predicates prepend leftmost.
        let pred = preds.into_iter().reduce(|outer, inner| outer.tensor(&inner));
        let operands = op.operands[1..].to_vec();
        let results = op.results.clone();
        rw.replace_root(Op::new(OpKind::Call { callee, adj, pred }, operands, results));
        true
    }
}

/// Appendix C: `call_indirect` whose callee is defined by an `scf.if`
/// yielding function values is pushed into both forks. The `scf.if` moves
/// down to the call's position so every argument still dominates it.
pub struct IfPushdown;

impl RewritePattern for IfPushdown {
    fn name(&self) -> &'static str {
        "if-pushdown-call-indirect"
    }

    fn matches_root_kind(&self, kind: &OpKind) -> bool {
        matches!(kind, OpKind::CallIndirect)
    }

    fn match_and_rewrite(&self, rw: &mut Rewriter<'_>) -> bool {
        let op = rw.op();
        if !matches!(op.kind, OpKind::CallIndirect) {
            return false;
        }
        let callee = op.operands[0];
        let block = rw.block();
        let Some((if_idx, yield_pos)) = rw.find_def(callee) else {
            return false;
        };
        if !matches!(block.ops[if_idx].kind, OpKind::ScfIf) || rw.use_count(callee) != 1 {
            return false;
        }
        let args = op.operands[1..].to_vec();
        let result_tys: Vec<asdf_ir::Type> =
            op.results.iter().map(|r| rw.value_type(*r).clone()).collect();
        let call_results = op.results.clone();
        let if_op = block.ops[if_idx].clone();

        // Rebuild each region: call the yielded function, yield the call's
        // results instead.
        let mut new_regions = Vec::with_capacity(if_op.regions.len());
        for region in &if_op.regions {
            let mut region = region.clone();
            let blk = region.only_block_mut();
            let terminator = blk.ops.pop().expect("region has a terminator");
            debug_assert!(matches!(terminator.kind, OpKind::Yield));
            let yielded_func = terminator.operands[yield_pos];
            let inner_results: Vec<Value> =
                result_tys.iter().map(|t| rw.new_value(t.clone())).collect();
            let mut call_operands = vec![yielded_func];
            call_operands.extend(args.iter().copied());
            blk.ops.push(Op::new(OpKind::CallIndirect, call_operands, inner_results.clone()));
            // Yield the original values minus the consumed func, plus the
            // call results. (Qwerty lowering yields exactly one value, so
            // this is just the call results.)
            let mut new_yield: Vec<Value> = terminator.operands.to_vec();
            new_yield.remove(yield_pos);
            new_yield.extend(inner_results);
            blk.ops.push(Op::new(OpKind::Yield, new_yield, vec![]));
            new_regions.push(region);
        }

        // The new scf.if sits at the call's position; its results are the
        // old scf.if's other results followed by the call's results.
        let mut new_results: Vec<Value> = if_op.results.to_vec();
        new_results.remove(yield_pos);
        new_results.extend(call_results);
        rw.replace_root(Op::with_regions(
            OpKind::ScfIf,
            if_op.operands.clone(),
            new_results,
            new_regions,
        ));
        rw.erase_op(if_idx);
        true
    }
}

/// Appendix C (variant): `func_adj`/`func_pred` of an `scf.if` result is
/// pushed into both forks.
pub struct AdjPredIfPushdown;

impl RewritePattern for AdjPredIfPushdown {
    fn name(&self) -> &'static str {
        "if-pushdown-adj-pred"
    }

    fn matches_root_kind(&self, kind: &OpKind) -> bool {
        matches!(kind, OpKind::FuncAdj | OpKind::FuncPred { .. })
    }

    fn match_and_rewrite(&self, rw: &mut Rewriter<'_>) -> bool {
        let op = rw.op();
        if !matches!(op.kind, OpKind::FuncAdj | OpKind::FuncPred { .. }) {
            return false;
        }
        let operand = op.operands[0];
        let block = rw.block();
        let Some((if_idx, yield_pos)) = rw.find_def(operand) else {
            return false;
        };
        if !matches!(block.ops[if_idx].kind, OpKind::ScfIf) || rw.use_count(operand) != 1 {
            return false;
        }
        let wrapper_kind = op.kind.clone();
        let wrapper_results = op.results.clone();
        let result_ty = rw.value_type(op.results[0]).clone();
        let if_op = block.ops[if_idx].clone();

        let mut new_regions = Vec::with_capacity(if_op.regions.len());
        for region in &if_op.regions {
            let mut region = region.clone();
            let blk = region.only_block_mut();
            let mut terminator = blk.ops.pop().expect("region has a terminator");
            let inner = rw.new_value(result_ty.clone());
            blk.ops.push(Op::new(
                wrapper_kind.clone(),
                vec![terminator.operands[yield_pos]],
                vec![inner],
            ));
            terminator.operands[yield_pos] = inner;
            blk.ops.push(terminator);
            new_regions.push(region);
        }

        let mut new_results = if_op.results.clone();
        new_results[yield_pos] = wrapper_results[0];
        rw.replace_root(Op::with_regions(
            OpKind::ScfIf,
            if_op.operands.clone(),
            new_results,
            new_regions,
        ));
        rw.erase_op(if_idx);
        true
    }
}
