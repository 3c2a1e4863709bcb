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
use asdf_ir::block::{Block, BlockPath};
use asdf_ir::clone::{clone_ops_into, ValueMap};
use asdf_ir::rewrite::{PatternSet, RewritePattern, Rewriter};
use asdf_ir::{Func, FuncBuilder, Module, Op, OpKind, Value, Visibility};

/// The Qwerty-level canonicalization patterns as a [`PatternSet`].
pub(crate) fn qwerty_patterns() -> PatternSet {
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
/// Functions are visited in module order, and each function's lambdas in
/// block preorder, then op order. A lambda nested in another moves into
/// the lifted function, which is appended to the module and lifted in its
/// turn.
///
/// # Errors
///
/// Returns [`CoreError::Unsupported`] if a capture is not rematerializable.
pub(crate) fn lift_lambdas(module: &mut Module) -> Result<usize, CoreError> {
    let mut lifted = 0usize;
    let mut func_idx = 0;
    while func_idx < module.len() {
        let func = &module.funcs()[func_idx];
        let mut sites = Vec::new();
        lambda_sites(&func.body, &mut Vec::new(), &mut sites);
        if !sites.is_empty() {
            // Lifting a lambda replaces it in place with a `func_const` of
            // the same results, so every def outside lambda regions keeps
            // its place, and no capture is defined inside another lambda.
            let defs = DefSites::new(func);
            let mut map = ValueMap::new(func);
            for (path, op_idx) in &sites {
                lift_one(module, func_idx, &defs, &mut map, path, *op_idx)?;
                lifted += 1;
            }
        }
        func_idx += 1;
    }
    Ok(lifted)
}

/// Appends the `lambda` ops of `block` (at `path`) and of the blocks nested
/// under its other ops, in block preorder and then op order, not looking
/// inside lambda regions.
fn lambda_sites(block: &Block, path: &mut BlockPath, out: &mut Vec<(BlockPath, usize)>) {
    let is_lambda = |op: &Op| matches!(op.kind, OpKind::Lambda { .. });
    for (i, op) in block.ops.iter().enumerate() {
        if is_lambda(op) {
            out.push((path.clone(), i));
        }
    }
    for (i, op) in block.ops.iter().enumerate().filter(|(_, op)| !is_lambda(op)) {
        for (ri, nested) in op.regions.iter().enumerate() {
            path.push((i, ri));
            lambda_sites(nested, path, out);
            path.pop();
        }
    }
}

/// Where every op-defined value of a function is defined, indexed once:
/// per value, the defining op's block (a position in `paths`) and index.
struct DefSites {
    paths: Vec<BlockPath>,
    sites: Vec<Option<(usize, usize)>>,
}

impl DefSites {
    fn new(func: &Func) -> DefSites {
        let paths = func.block_paths();
        let mut sites = vec![None; func.num_values()];
        for (block_no, path) in paths.iter().enumerate() {
            for (i, op) in func.block_at(path).ops.iter().enumerate() {
                for r in &op.results {
                    sites[r.index()] = Some((block_no, i));
                }
            }
        }
        DefSites { paths, sites }
    }

    /// The op of `func` defining `v`, or `None` for a block argument.
    fn def<'f>(&self, func: &'f Func, v: Value) -> Option<&'f Op> {
        let (block_no, i) = (*self.sites.get(v.index())?)?;
        Some(&func.block_at(&self.paths[block_no]).ops[i])
    }
}

/// Lifts the lambda at `path[op_idx]` of function `func_idx`, cloning
/// through `map`, which it clears first: one map serves all of the
/// function's lambdas.
fn lift_one(
    module: &mut Module,
    func_idx: usize,
    defs: &DefSites,
    map: &mut ValueMap,
    path: &BlockPath,
    op_idx: usize,
) -> Result<(), CoreError> {
    let name = module.fresh_name("lambda");
    let src = &module.funcs()[func_idx];
    let op = &src.block_at(path).ops[op_idx];
    let OpKind::Lambda { func_ty } = &op.kind else {
        return Err(CoreError::Ir("lift target is not a lambda".into()));
    };

    let builder = FuncBuilder::new(&name, func_ty.clone(), Visibility::Private);
    let new_args = builder.args().to_vec();
    let mut lifted = builder.finish();

    // Map lambda-block params (after captures) to the new func's args.
    let block = &op.regions[0];
    let num_captures = op.operands.len();
    map.clear();
    for (param, arg) in block.args[num_captures..].iter().zip(new_args) {
        map.insert(*param, arg);
    }

    // Rematerialize captures: clone the pure defining slices.
    let mut remat_ops: Vec<Op> = Vec::new();
    for (capture, block_arg) in op.operands.iter().zip(&block.args[..num_captures]) {
        let v = rematerialize(src, defs, *capture, &mut lifted, map, &mut remat_ops)?;
        map.insert(*block_arg, v);
    }

    // Clone the body.
    let body_ops = clone_ops_into(src, &block.ops, &mut lifted, map);
    lifted.body.ops = remat_ops;
    lifted.body.ops.extend(body_ops);
    let results = op.results.clone();
    module.add_func(lifted);

    // Replace the lambda with a func_const.
    let func = &mut module.funcs_mut()[func_idx];
    func.block_at_mut(path).ops[op_idx] =
        Op::new(OpKind::FuncConst { symbol: name }, vec![], results);
    Ok(())
}

/// Clones the pure-classical backward slice of `v` into `dest`.
fn rematerialize(
    src: &Func,
    defs: &DefSites,
    v: Value,
    dest: &mut Func,
    map: &mut ValueMap,
    out_ops: &mut Vec<Op>,
) -> Result<Value, CoreError> {
    if let Some(mapped) = map.get(v) {
        return Ok(mapped);
    }
    let Some(op) = defs.def(src, v) else {
        return Err(CoreError::Unsupported(format!(
            "lambda capture {v} is a block argument and cannot be rematerialized"
        )));
    };
    if !op.kind.is_pure_classical() {
        return Err(CoreError::Unsupported(format!(
            "lambda capture {v} is defined by non-pure op {}",
            op.kind.mnemonic()
        )));
    }
    for operand in &op.operands {
        rematerialize(src, defs, *operand, dest, map, out_ops)?;
    }
    let cloned = clone_ops_into(src, std::slice::from_ref(op), dest, map);
    out_ops.extend(cloned);
    Ok(map[v])
}

/// `func_adj(func_adj(x))` → `x`.
pub(crate) struct FoldDoubleAdj;

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
pub(crate) struct IndirectToDirect;

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
pub(crate) struct IfPushdown;

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
            let terminator = region.ops.pop().expect("region has a terminator");
            debug_assert!(matches!(terminator.kind, OpKind::Yield));
            let yielded_func = terminator.operands[yield_pos];
            let inner_results: Vec<Value> =
                result_tys.iter().map(|t| rw.new_value(t.clone())).collect();
            let mut call_operands = vec![yielded_func];
            call_operands.extend(args.iter().copied());
            region.ops.push(Op::new(OpKind::CallIndirect, call_operands, inner_results.clone()));
            // Yield the original values minus the consumed func, plus the
            // call results. (Qwerty lowering yields exactly one value, so
            // this is just the call results.)
            let mut new_yield: Vec<Value> = terminator.operands.to_vec();
            new_yield.remove(yield_pos);
            new_yield.extend(inner_results);
            region.ops.push(Op::new(OpKind::Yield, new_yield, vec![]));
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
pub(crate) struct AdjPredIfPushdown;

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
            let mut terminator = region.ops.pop().expect("region has a terminator");
            let inner = rw.new_value(result_ty.clone());
            region.ops.push(Op::new(
                wrapper_kind.clone(),
                vec![terminator.operands[yield_pos]],
                vec![inner],
            ));
            terminator.operands[yield_pos] = inner;
            region.ops.push(terminator);
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
