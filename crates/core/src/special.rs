//! Function specialization generation (§6.2, Algorithm D5).
//!
//! When inlining is disabled (or fails), `call adj @f` / `call pred(b) @f`
//! ops remain in the IR, and a function value "cannot be represented by a
//! typical function pointer" — each requested specialization must be
//! generated as its own function. The analysis of Algorithm D5 labels each
//! function with the specializations reachable from the entry point,
//! including *transitive* requirements (the adjoint of `g` calling `h`
//! needs the adjoint of `h`); this module implements the same closure
//! operationally: generating a specialization's body may surface new
//! specialized calls, which are processed until none remain.

use crate::adjoint::adjoint_func;
use crate::error::CoreError;
use crate::predicate::predicate_func;
use asdf_ir::{Module, OpKind};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// A specialization request: `(function, adjoint?, predicate)`.
pub(crate) type SpecKey = (String, bool, Option<String>);

/// Generates every needed specialization and rewrites `call adj/pred` ops
/// into plain calls of the generated functions. Returns the number of
/// specializations generated.
///
/// # Errors
///
/// Propagates adjoint/predication failures.
pub(crate) fn generate_specializations(module: &mut Module) -> Result<usize, CoreError> {
    let mut generated: HashMap<SpecKey, String> = HashMap::new();
    let mut count = 0usize;
    // Operational closure of Algorithm D5: iterate until no specialized
    // calls remain. Bounded because the call graph is acyclic and adj/pred
    // compositions are collapsed by canonicalization.
    for round in 0.. {
        if round > 10_000 {
            return Err(CoreError::Ir(
                "specialization did not converge; cyclic call graph?".to_string(),
            ));
        }
        let Some((func_name, path, op_idx, callee, adj, pred)) = find_specialized_call(module)
        else {
            return Ok(count);
        };
        let key: SpecKey = (callee.clone(), adj, pred.as_ref().map(|p| p.to_string()));
        let name = match generated.get(&key) {
            Some(name) => name.clone(),
            None => {
                let name = module.fresh_name(&mangle(&key));
                let base = module.expect_func(&callee)?.clone();
                // call adj pred(b) @f means pred(b, adj(f)): adjoint first,
                // then predication.
                let mut spec = if adj {
                    adjoint_func(&base, &name)?
                } else {
                    asdf_ir::clone::clone_func(&base, name.clone())
                };
                if let Some(p) = &pred {
                    spec = predicate_func(&spec, p, &name)?;
                }
                spec.name = name.clone();
                module.add_func(spec);
                generated.insert(key, name.clone());
                count += 1;
                name
            }
        };
        let func = module.func_mut(&func_name).expect("caller exists");
        let op = &mut func.block_at_mut(&path).ops[op_idx];
        op.kind = OpKind::Call { callee: name, adj: false, pred: None };
    }
    unreachable!()
}

type FoundCall =
    (String, asdf_ir::block::BlockPath, usize, String, bool, Option<asdf_basis::Basis>);

fn find_specialized_call(module: &Module) -> Option<FoundCall> {
    for func in module.funcs() {
        for path in func.block_paths() {
            for (i, op) in func.block_at(&path).ops.iter().enumerate() {
                if let OpKind::Call { callee, adj, pred } = &op.kind {
                    if *adj || pred.is_some() {
                        return Some((
                            func.name.clone(),
                            path,
                            i,
                            callee.clone(),
                            *adj,
                            pred.clone(),
                        ));
                    }
                }
            }
        }
    }
    None
}

fn mangle(key: &SpecKey) -> String {
    let (name, adj, pred) = key;
    let mut out = name.clone();
    if *adj {
        out.push_str("__adj");
    }
    if let Some(pred) = pred {
        let mut hasher = DefaultHasher::new();
        pred.hash(&mut hasher);
        out.push_str(&format!("__pred{:08x}", hasher.finish() as u32));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use asdf_ir::{FuncBuilder, FuncType, GateKind, Type, Visibility};

    /// Builds the Appendix D example: f calls adj g; g calls h.
    fn build_module() -> Module {
        let mut module = Module::new();

        let mut h = FuncBuilder::new("h", FuncType::rev_qbundle(1), Visibility::Private);
        let arg = h.args()[0];
        let mut bb = h.block();
        let q = bb.push(OpKind::QbUnpack, vec![arg], vec![Type::Qubit]);
        let s = bb.push(
            OpKind::Gate { gate: GateKind::S, num_controls: 0 },
            vec![q[0]],
            vec![Type::Qubit],
        );
        let packed = bb.push(OpKind::QbPack, vec![s[0]], vec![Type::QBundle(1)]);
        bb.push(OpKind::Return, vec![packed[0]], vec![]);
        module.add_func(h.finish());

        let mut g = FuncBuilder::new("g", FuncType::rev_qbundle(1), Visibility::Private);
        let arg = g.args()[0];
        let mut bb = g.block();
        let r = bb.push(
            OpKind::Call { callee: "h".into(), adj: false, pred: None },
            vec![arg],
            vec![Type::QBundle(1)],
        );
        bb.push(OpKind::Return, vec![r[0]], vec![]);
        module.add_func(g.finish());

        let mut f = FuncBuilder::new("f", FuncType::rev_qbundle(1), Visibility::Public);
        let arg = f.args()[0];
        let mut bb = f.block();
        let r = bb.push(
            OpKind::Call { callee: "g".into(), adj: true, pred: None },
            vec![arg],
            vec![Type::QBundle(1)],
        );
        bb.push(OpKind::Return, vec![r[0]], vec![]);
        module.add_func(f.finish());
        module
    }

    #[test]
    fn transitive_adjoint_specialization() {
        // The Appendix D scenario: "An adjoint specialization of h() is
        // needed because the adjoint form of g() is called by f(). However,
        // this would not be detected [without transitive edges]."
        let mut module = build_module();
        asdf_ir::verify::verify_module(&module).unwrap();
        let generated = generate_specializations(&mut module).unwrap();
        assert_eq!(generated, 2, "adj of g and, transitively, adj of h");
        asdf_ir::verify::verify_module(&module).unwrap();
        assert!(module.contains("g__adj"));
        assert!(module.contains("h__adj"));
        // The adjoint of h applies Sdg.
        let h_adj = module.func("h__adj").unwrap();
        assert!(h_adj
            .body
            .ops
            .iter()
            .any(|op| matches!(op.kind, OpKind::Gate { gate: GateKind::Sdg, .. })));
        // No specialized calls remain.
        for func in module.funcs() {
            for path in func.block_paths() {
                for op in &func.block_at(&path).ops {
                    if let OpKind::Call { adj, pred, .. } = &op.kind {
                        assert!(!adj && pred.is_none());
                    }
                }
            }
        }
    }

    #[test]
    fn pred_specialization_generated_once() {
        let mut module = build_module();
        // Add a second caller predicating h twice identically.
        let pred: asdf_basis::Basis = "{'1'}".parse().unwrap();
        let mut k = FuncBuilder::new("k", FuncType::rev_qbundle(2), Visibility::Public);
        let arg = k.args()[0];
        let mut bb = k.block();
        let r1 = bb.push(
            OpKind::Call { callee: "h".into(), adj: false, pred: Some(pred.clone()) },
            vec![arg],
            vec![Type::QBundle(2)],
        );
        let r2 = bb.push(
            OpKind::Call { callee: "h".into(), adj: false, pred: Some(pred.clone()) },
            vec![r1[0]],
            vec![Type::QBundle(2)],
        );
        bb.push(OpKind::Return, vec![r2[0]], vec![]);
        module.add_func(k.finish());

        let generated = generate_specializations(&mut module).unwrap();
        // g__adj, h__adj (from f), one pred specialization of h (cached).
        assert_eq!(generated, 3);
        asdf_ir::verify::verify_module(&module).unwrap();
    }
}
