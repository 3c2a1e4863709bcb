//! Deep-cloning ops between functions with value remapping.
//!
//! Inlining (§5.4), adjoint generation (§5.2), predication (§5.3), and
//! specialization (§6.2) all rebuild op lists with fresh SSA values; this
//! module is their shared engine, and [`ValueMap`] their value map.

use crate::block::Block;
use crate::func::Func;
use crate::op::Op;
use crate::value::Value;
use std::ops::Index;

/// A map from the values of a source function to values of another,
/// indexed by source value: values are arena indices below
/// [`Func::num_values`], so one dense vector does what a hash map would,
/// without hashing.
#[derive(Debug, Clone)]
pub struct ValueMap {
    to: Vec<Option<Value>>,
    /// The source values mapped since the last [`clear`](ValueMap::clear).
    mapped: Vec<Value>,
}

impl ValueMap {
    /// An empty map sized for the values of `src`.
    pub fn new(src: &Func) -> Self {
        ValueMap { to: vec![None; src.num_values()], mapped: Vec::new() }
    }

    /// Maps `from` to `to`, replacing any earlier mapping.
    pub fn insert(&mut self, from: Value, to: Value) {
        if from.index() >= self.to.len() {
            self.to.resize(from.index() + 1, None);
        }
        if self.to[from.index()].replace(to).is_none() {
            self.mapped.push(from);
        }
    }

    /// Unmaps every value, in time linear in the values mapped since the
    /// last clear, so one map serves many small clones out of one large
    /// function.
    pub fn clear(&mut self) {
        for from in self.mapped.drain(..) {
            self.to[from.index()] = None;
        }
    }

    /// What `from` maps to, if anything.
    pub fn get(&self, from: Value) -> Option<Value> {
        self.to.get(from.index()).copied().flatten()
    }

    /// Unmaps `from`, returning what it mapped to.
    pub fn remove(&mut self, from: Value) -> Option<Value> {
        self.to.get_mut(from.index())?.take()
    }
}

impl Index<Value> for ValueMap {
    type Output = Value;

    /// # Panics
    ///
    /// Panics if `from` has no mapping — that indicates malformed source
    /// IR.
    fn index(&self, from: Value) -> &Value {
        self.to
            .get(from.index())
            .and_then(Option::as_ref)
            .unwrap_or_else(|| panic!("clone: operand {from} has no mapping (malformed source IR)"))
    }
}

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
pub fn clone_ops_into(src: &Func, ops: &[Op], dest: &mut Func, map: &mut ValueMap) -> Vec<Op> {
    ops.iter().map(|op| clone_op(src, op, dest, map)).collect()
}

fn clone_op(src: &Func, op: &Op, dest: &mut Func, map: &mut ValueMap) -> Op {
    let operands = op.operands.iter().map(|&v| map[v]).collect();
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

fn clone_block(src: &Func, block: &Block, dest: &mut Func, map: &mut ValueMap) -> Block {
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
    let mut map = ValueMap::new(src);
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

    #[test]
    fn value_map_inserts_removes_and_clears() {
        let ty = FuncType::new(vec![Type::F64; 3], vec![], false);
        let src = FuncBuilder::new("f", ty, Visibility::Public).finish();
        let v = Value::from_index;
        let mut map = ValueMap::new(&src);
        map.insert(v(0), v(10));
        map.insert(v(7), v(11)); // past the source arena: the map grows
        assert_eq!((map.get(v(0)), map.get(v(1)), map[v(7)]), (Some(v(10)), None, v(11)));
        assert_eq!(map.remove(v(0)), Some(v(10)));
        assert_eq!((map.get(v(0)), map.remove(v(0))), (None, None));
        map.insert(v(2), v(12));
        map.clear();
        assert_eq!((map.get(v(2)), map.get(v(7))), (None, None));
    }

    #[test]
    #[should_panic(expected = "operand %1 has no mapping")]
    fn an_unmapped_operand_panics() {
        let ty = FuncType::new(vec![Type::F64; 2], vec![], false);
        let map = ValueMap::new(&FuncBuilder::new("f", ty, Visibility::Public).finish());
        let _ = map[Value::from_index(1)];
    }
}
