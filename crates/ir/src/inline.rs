//! The inliner (§5.4).
//!
//! "Inlining is the most important optimization in the Qwerty compiler":
//! it converts functional Qwerty code into the straight-line sequence of
//! quantum operations hardware expects. Direct `call` ops are inlined by
//! splicing the callee's single basic block into the caller; when a call is
//! marked `adj` or `pred`, the routines of §5.2/§5.3 must first transform
//! the callee body — those live in `asdf-core` and are supplied here via
//! the [`InlineSpecializer`] hook.

use crate::block::BlockPath;
use crate::clone::{clone_ops_into, ValueMap};
use crate::error::IrError;
use crate::func::Func;
use crate::module::Module;
use crate::op::OpKind;
use asdf_basis::Basis;

/// Transforms a callee body for an `adj`/`pred` call before it is spliced
/// into the caller (§5.2, §5.3). Implemented by `asdf-core`.
pub trait InlineSpecializer {
    /// Returns a function whose body is the requested specialization of
    /// `callee`. Called only when `adj || pred.is_some()`.
    ///
    /// # Errors
    ///
    /// Implementations return [`IrError::Unsupported`] when the callee
    /// cannot be specialized.
    fn specialize(
        &self,
        callee: &Func,
        adj: bool,
        pred: Option<&Basis>,
        module: &Module,
    ) -> Result<Func, IrError>;
}

/// A specializer that rejects every `adj`/`pred` call. Usable when the
/// input is known to contain only forward calls.
#[cfg(test)]
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct NoSpecializer;

#[cfg(test)]
impl InlineSpecializer for NoSpecializer {
    fn specialize(
        &self,
        callee: &Func,
        adj: bool,
        pred: Option<&Basis>,
        _module: &Module,
    ) -> Result<Func, IrError> {
        Err(IrError::Unsupported(format!(
            "call to @{} requires specialization (adj={adj}, pred={})",
            callee.name,
            pred.map(|b| b.to_string()).unwrap_or_default()
        )))
    }
}

/// Repeatedly inlines direct calls until none remain (or the step bound is
/// hit, which would indicate recursion — impossible in well-typed Qwerty,
/// whose call graphs are acyclic).
#[derive(Debug, Clone, Copy)]
pub struct Inliner {
    /// Upper bound on individual inline steps.
    pub max_steps: usize,
}

impl Default for Inliner {
    fn default() -> Self {
        Inliner { max_steps: 100_000 }
    }
}

impl Inliner {
    /// Runs inlining over the module. Returns the number of calls inlined.
    ///
    /// # Errors
    ///
    /// Propagates specializer failures and reports
    /// [`IrError::Inline`] if the step bound is exceeded.
    pub fn run(
        &self,
        module: &mut Module,
        specializer: &dyn InlineSpecializer,
    ) -> Result<usize, IrError> {
        let mut steps = 0usize;
        loop {
            let Some((func_name, path, op_idx)) = find_inlinable_call(module) else {
                return Ok(steps);
            };
            if steps >= self.max_steps {
                return Err(IrError::Inline(format!(
                    "exceeded {} inline steps; is the call graph cyclic?",
                    self.max_steps
                )));
            }
            inline_one(module, &func_name, &path, op_idx, specializer)?;
            steps += 1;
        }
    }
}

/// Finds some direct call whose callee is defined and distinct from the
/// caller.
fn find_inlinable_call(module: &Module) -> Option<(String, BlockPath, usize)> {
    for func in module.funcs() {
        for path in func.block_paths() {
            let block = func.block_at(&path);
            for (op_idx, op) in block.ops.iter().enumerate() {
                if let OpKind::Call { callee, .. } = &op.kind {
                    if callee != &func.name && module.contains(callee) {
                        return Some((func.name.clone(), path, op_idx));
                    }
                }
            }
        }
    }
    None
}

/// Splices one callee body over the call op at `(caller, path, op_idx)`.
fn inline_one(
    module: &mut Module,
    caller_name: &str,
    path: &BlockPath,
    op_idx: usize,
    specializer: &dyn InlineSpecializer,
) -> Result<(), IrError> {
    // Snapshot the call.
    let (callee_name, adj, pred) = {
        let caller = module.expect_func(caller_name)?;
        let op = &caller.block_at(path).ops[op_idx];
        match &op.kind {
            OpKind::Call { callee, adj, pred } => (callee.clone(), *adj, pred.clone()),
            other => {
                return Err(IrError::Inline(format!(
                    "inline target is not a call (found {})",
                    other.mnemonic()
                )))
            }
        }
    };

    // Obtain the (possibly specialized) body to splice.
    let callee = module.expect_func(&callee_name)?;
    let body_func = if adj || pred.is_some() {
        specializer.specialize(callee, adj, pred.as_ref(), module)?
    } else {
        callee.clone()
    };

    let caller = module.func_mut(caller_name).expect("caller existed a moment ago");
    let (call_operands, call_results) = {
        let op = &caller.block_at(path).ops[op_idx];
        (op.operands.clone(), op.results.clone())
    };
    if body_func.body.args.len() != call_operands.len() {
        return Err(IrError::Inline(format!(
            "call to @{callee_name} passes {} arguments but the body takes {}",
            call_operands.len(),
            body_func.body.args.len()
        )));
    }

    // Map callee block args to call operands, then clone the body ops
    // (minus the terminator) into the caller's arena.
    let mut map = ValueMap::new(&body_func);
    for (&arg, operand) in body_func.body.args.iter().zip(call_operands) {
        map.insert(arg, operand);
    }
    let Some(terminator) = body_func.body.terminator() else {
        return Err(IrError::Inline(format!("@{callee_name} has no terminator")));
    };
    if !matches!(terminator.kind, OpKind::Return) {
        return Err(IrError::Inline(format!("@{callee_name} does not end in a return")));
    }
    let body_len = body_func.body.ops.len();
    let cloned = clone_ops_into(&body_func, &body_func.body.ops[..body_len - 1], caller, &mut map);
    let return_vals: Vec<crate::value::Value> =
        body_func.body.ops[body_len - 1].operands.iter().map(|&v| map[v]).collect();

    // Splice and rewire.
    let block = caller.block_at_mut(path);
    block.ops.splice(op_idx..=op_idx, cloned);
    for (result, replacement) in call_results.into_iter().zip(return_vals) {
        caller.replace_all_uses(result, replacement);
    }
    Ok(())
}

/// Drops private functions that are no longer referenced by any `call`,
/// `func_const`, or `callable_create` in the module. Run after inlining to
/// discard fully-inlined lambdas and specializations.
pub fn remove_dead_private_funcs(module: &mut Module) -> usize {
    let mut removed = 0;
    loop {
        let mut referenced: std::collections::HashSet<String> = std::collections::HashSet::new();
        for func in module.funcs() {
            for path in func.block_paths() {
                for op in &func.block_at(&path).ops {
                    match &op.kind {
                        OpKind::Call { callee, .. } => {
                            referenced.insert(callee.clone());
                        }
                        OpKind::FuncConst { symbol } | OpKind::CallableCreate { symbol } => {
                            referenced.insert(symbol.clone());
                        }
                        _ => {}
                    }
                }
            }
        }
        let dead: Vec<String> = module
            .funcs()
            .iter()
            .filter(|f| {
                f.visibility == crate::func::Visibility::Private && !referenced.contains(&f.name)
            })
            .map(|f| f.name.clone())
            .collect();
        if dead.is_empty() {
            return removed;
        }
        for name in dead {
            module.remove_func(&name);
            removed += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::{FuncBuilder, Visibility};
    use crate::types::{FuncType, Type};
    use crate::verify::verify_module;
    use asdf_basis::PrimitiveBasis;

    /// callee: applies an H gate to a 1-qubit bundle via unpack/pack.
    fn make_callee(name: &str) -> Func {
        let mut b = FuncBuilder::new(name, FuncType::rev_qbundle(1), Visibility::Private);
        let arg = b.args()[0];
        let mut bb = b.block();
        let q = bb.push(OpKind::QbUnpack, vec![arg], vec![Type::Qubit]);
        let h = bb.push(
            OpKind::Gate { gate: crate::gate::GateKind::H, num_controls: 0 },
            vec![q[0]],
            vec![Type::Qubit],
        );
        let packed = bb.push(OpKind::QbPack, vec![h[0]], vec![Type::QBundle(1)]);
        bb.push(OpKind::Return, vec![packed[0]], vec![]);
        b.finish()
    }

    fn make_caller(callee: &str) -> Func {
        let mut b = FuncBuilder::new(
            "main",
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
        let r = bb.push(
            OpKind::Call { callee: callee.into(), adj: false, pred: None },
            vec![q[0]],
            vec![Type::QBundle(1)],
        );
        let m = bb.push(
            OpKind::QbMeas { basis: asdf_basis::Basis::built_in(PrimitiveBasis::Std, 1) },
            vec![r[0]],
            vec![Type::BitBundle(1)],
        );
        bb.push(OpKind::Return, vec![m[0]], vec![]);
        b.finish()
    }

    #[test]
    fn inlines_forward_call_and_cleans_up() {
        let mut module = Module::new();
        module.add_func(make_callee("h_wrap"));
        module.add_func(make_caller("h_wrap"));
        verify_module(&module).unwrap();

        let inlined = Inliner::default().run(&mut module, &NoSpecializer).unwrap();
        assert_eq!(inlined, 1);
        verify_module(&module).unwrap();

        let main = module.func("main").unwrap();
        assert!(
            !main.body.ops.iter().any(|op| matches!(op.kind, OpKind::Call { .. })),
            "call was replaced by the body"
        );
        assert!(main.body.ops.iter().any(|op| matches!(op.kind, OpKind::Gate { .. })));

        let removed = remove_dead_private_funcs(&mut module);
        assert_eq!(removed, 1);
        assert!(module.func("h_wrap").is_none());
    }

    #[test]
    fn adj_call_requires_specializer() {
        let mut module = Module::new();
        module.add_func(make_callee("h_wrap"));
        let mut caller = make_caller("h_wrap");
        // Flip the call to an adjoint call.
        for op in &mut caller.body.ops {
            if let OpKind::Call { adj, .. } = &mut op.kind {
                *adj = true;
            }
        }
        module.add_func(caller);
        let err = Inliner::default().run(&mut module, &NoSpecializer).unwrap_err();
        assert!(matches!(err, IrError::Unsupported(_)), "{err}");
    }

    #[test]
    fn chain_of_calls_fully_inlines() {
        // a -> b -> c, all wrapping the same bundle.
        let mut module = Module::new();
        module.add_func(make_callee("c"));
        let mut b_fn = FuncBuilder::new("b", FuncType::rev_qbundle(1), Visibility::Private);
        let arg = b_fn.args()[0];
        let mut bb = b_fn.block();
        let r = bb.push(
            OpKind::Call { callee: "c".into(), adj: false, pred: None },
            vec![arg],
            vec![Type::QBundle(1)],
        );
        bb.push(OpKind::Return, vec![r[0]], vec![]);
        module.add_func(b_fn.finish());
        module.add_func(make_caller("b"));

        let inlined = Inliner::default().run(&mut module, &NoSpecializer).unwrap();
        assert_eq!(inlined, 2);
        verify_module(&module).unwrap();
        remove_dead_private_funcs(&mut module);
        assert_eq!(module.len(), 1);
    }
}
