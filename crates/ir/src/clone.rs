//! Deep-cloning ops between functions with value remapping.
//!
//! Inlining (§5.4), adjoint generation (§5.2), predication (§5.3), and
//! specialization (§6.2) all rebuild op lists with fresh SSA values; this
//! module is their shared engine.

use crate::block::Block;
use crate::func::Func;
use crate::op::Op;
use crate::value::Value;
use std::collections::HashMap;

/// Clones `ops` (from `src`) into the arena of `dest`, allocating fresh
/// result values and remapping operands through `map`.
///
/// `map` must already bind every external value the ops reference (e.g.
/// block arguments to call operands); it is extended with the result
/// bindings as cloning proceeds. Nested regions are cloned recursively,
/// including fresh block arguments.
///
/// # Panics
///
/// Panics if an operand is encountered that neither `map` nor a prior
/// cloned result defines — that indicates malformed input IR.
pub fn clone_ops_into(
    src: &Func,
    ops: &[Op],
    dest: &mut Func,
    map: &mut HashMap<Value, Value>,
) -> Vec<Op> {
    ops.iter().map(|op| clone_op(src, op, dest, map)).collect()
}

fn clone_op(src: &Func, op: &Op, dest: &mut Func, map: &mut HashMap<Value, Value>) -> Op {
    let operands = op
        .operands
        .iter()
        .map(|v| {
            *map.get(v).unwrap_or_else(|| {
                panic!("clone: operand {v} has no mapping (malformed source IR)")
            })
        })
        .collect();
    let results = op
        .results
        .iter()
        .map(|v| {
            let fresh = dest.new_value(src.value_type(*v).clone());
            map.insert(*v, fresh);
            fresh
        })
        .collect();
    let regions = op.regions.iter().map(|block| clone_block(src, block, dest, map)).collect();
    Op { kind: op.kind.clone(), operands, results, regions, span: op.span }
}

fn clone_block(
    src: &Func,
    block: &Block,
    dest: &mut Func,
    map: &mut HashMap<Value, Value>,
) -> Block {
    let args = block
        .args
        .iter()
        .map(|v| {
            let fresh = dest.new_value(src.value_type(*v).clone());
            map.insert(*v, fresh);
            fresh
        })
        .collect();
    let ops = block.ops.iter().map(|op| clone_op(src, op, dest, map)).collect();
    Block { args, ops }
}

/// Clones an entire function under a new name, preserving structure with a
/// fresh, compact value arena. Used to create specializations.
pub fn clone_func(src: &Func, new_name: impl Into<String>) -> Func {
    let mut dest = crate::func::FuncBuilder::new(new_name, src.ty.clone(), src.visibility).finish();
    let mut map = HashMap::new();
    let dest_args = dest.body.args.clone();
    for (src_arg, dest_arg) in src.body.args.iter().zip(dest_args) {
        map.insert(*src_arg, dest_arg);
    }
    let ops = clone_ops_into(src, &src.body.ops, &mut dest, &mut map);
    dest.body.ops = ops;
    dest
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::{FuncBuilder, Visibility};
    use crate::op::OpKind;
    use crate::types::{FuncType, Type};

    #[test]
    fn clone_func_is_isomorphic() {
        let mut b = FuncBuilder::new(
            "orig",
            FuncType::new(vec![Type::F64], vec![Type::F64], false),
            Visibility::Public,
        );
        let arg = b.args()[0];
        let mut bb = b.block();
        let c = bb.push(OpKind::ConstF64 { value: 2.0 }, vec![], vec![Type::F64]);
        let prod = bb.push(OpKind::FMul, vec![arg, c[0]], vec![Type::F64]);
        bb.push(OpKind::Return, vec![prod[0]], vec![]);
        let src = b.finish();

        let cloned = clone_func(&src, "copy");
        assert_eq!(cloned.name, "copy");
        assert_eq!(cloned.body.ops.len(), src.body.ops.len());
        assert_eq!(cloned.num_values(), src.num_values());
        // Structure is preserved: same op kinds in order.
        for (a, b) in src.body.ops.iter().zip(&cloned.body.ops) {
            assert_eq!(a.kind, b.kind);
        }
    }
}
