//! Functions and the builder API.

use crate::block::{Block, BlockPath, Region};
use crate::op::{Op, OpKind};
use crate::span::SrcSpan;
use crate::types::{FuncType, Type};
use crate::value::{Value, ValueList};

/// Symbol visibility. Private functions (lifted lambdas, specializations)
/// can be removed once fully inlined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Visibility {
    /// Externally visible entry points.
    Public,
    /// Internal helpers.
    Private,
}

/// A function: a symbol name, a signature, and a single-entry body whose
/// SSA values live in a per-function arena.
#[derive(Debug, Clone, PartialEq)]
pub struct Func {
    /// Symbol name (referenced by `call` / `func_const`).
    pub name: String,
    /// Signature.
    pub ty: FuncType,
    /// Visibility.
    pub visibility: Visibility,
    /// The entry (and only top-level) block.
    pub body: Block,
    value_types: Vec<Type>,
}

impl Func {
    /// Reassembles a function from its parts, e.g. when deserializing.
    ///
    /// The caller is responsible for `value_types` covering every value
    /// referenced by `body`; [`crate::verify`] checks the result like
    /// any other function.
    pub fn from_parts(
        name: impl Into<String>,
        ty: FuncType,
        visibility: Visibility,
        body: Block,
        value_types: Vec<Type>,
    ) -> Func {
        Func { name: name.into(), ty, visibility, body, value_types }
    }

    /// The types of every SSA value in the arena, indexed by value.
    pub fn value_types(&self) -> &[Type] {
        &self.value_types
    }

    /// The type of an SSA value of this function.
    ///
    /// # Panics
    ///
    /// Panics if the value does not belong to this function's arena.
    pub fn value_type(&self, v: Value) -> &Type {
        &self.value_types[v.index()]
    }

    /// Allocates a fresh SSA value of type `ty`.
    pub fn new_value(&mut self, ty: Type) -> Value {
        let v = Value::from_index(self.value_types.len());
        self.value_types.push(ty);
        v
    }

    /// Number of values in the arena.
    pub fn num_values(&self) -> usize {
        self.value_types.len()
    }

    /// Whether an op is *stationary* (§5.2): it touches no linear (qubit)
    /// values, so it stays in place when the quantum portion of the DAG is
    /// adjointed or predicated around it.
    pub fn op_is_stationary(&self, op: &Op) -> bool {
        let no_linear_operand = op.operands.iter().all(|v| !self.value_type(*v).is_linear());
        let no_linear_result = op.results.iter().all(|v| !self.value_type(*v).is_linear());
        no_linear_operand && no_linear_result && !op.is_terminator()
    }

    /// Enumerates the paths of every block in the function: the entry block
    /// (empty path) plus all nested region blocks, in preorder.
    pub fn block_paths(&self) -> Vec<BlockPath> {
        let mut paths = vec![Vec::new()];
        fn walk(block: &Block, prefix: &BlockPath, out: &mut Vec<BlockPath>) {
            for (op_idx, op) in block.ops.iter().enumerate() {
                for (region_idx, region) in op.regions.iter().enumerate() {
                    for (block_idx, nested) in region.blocks.iter().enumerate() {
                        let mut path = prefix.clone();
                        path.push((op_idx, region_idx, block_idx));
                        out.push(path.clone());
                        walk(nested, &path, out);
                    }
                }
            }
        }
        walk(&self.body, &Vec::new(), &mut paths);
        paths
    }

    /// The block at `path` (empty path = entry block).
    ///
    /// # Panics
    ///
    /// Panics if the path is stale (indices out of range).
    pub fn block_at(&self, path: &BlockPath) -> &Block {
        let mut block = &self.body;
        for &(op_idx, region_idx, block_idx) in path {
            block = &block.ops[op_idx].regions[region_idx].blocks[block_idx];
        }
        block
    }

    /// Mutable access to the block at `path`.
    ///
    /// # Panics
    ///
    /// Panics if the path is stale.
    pub fn block_at_mut(&mut self, path: &BlockPath) -> &mut Block {
        let mut block = &mut self.body;
        for &(op_idx, region_idx, block_idx) in path {
            block = &mut block.ops[op_idx].regions[region_idx].blocks[block_idx];
        }
        block
    }

    /// Replaces every use of `from` with `to` across the whole function,
    /// including nested regions.
    pub fn replace_all_uses(&mut self, from: Value, to: Value) {
        fn walk(block: &mut Block, from: Value, to: Value) {
            for op in &mut block.ops {
                for operand in &mut op.operands {
                    if *operand == from {
                        *operand = to;
                    }
                }
                for region in &mut op.regions {
                    for nested in &mut region.blocks {
                        walk(nested, from, to);
                    }
                }
            }
        }
        walk(&mut self.body, from, to);
    }
}

/// Builds a [`Func`] incrementally.
///
/// # Example
///
/// ```
/// use asdf_ir::{FuncBuilder, FuncType, OpKind, Type, Visibility};
///
/// let mut b = FuncBuilder::new("noop", FuncType::rev_qbundle(1), Visibility::Public);
/// let arg = b.args()[0];
/// b.block().push(OpKind::Return, vec![arg], vec![]);
/// let func = b.finish();
/// assert_eq!(func.body.ops.len(), 1);
/// ```
#[derive(Debug)]
pub struct FuncBuilder {
    name: String,
    ty: FuncType,
    visibility: Visibility,
    value_types: Vec<Type>,
    entry: Block,
}

impl FuncBuilder {
    /// Starts a function, creating entry-block arguments from the
    /// signature.
    pub fn new(name: impl Into<String>, ty: FuncType, visibility: Visibility) -> Self {
        let mut value_types = Vec::new();
        let mut args = Vec::new();
        for input in &ty.inputs {
            let v = Value::from_index(value_types.len());
            value_types.push(input.clone());
            args.push(v);
        }
        FuncBuilder {
            name: name.into(),
            ty,
            visibility,
            value_types,
            entry: Block { args, ops: Vec::new() },
        }
    }

    /// The entry-block arguments.
    pub fn args(&self) -> &[Value] {
        &self.entry.args
    }

    /// A builder positioned at the end of the entry block.
    pub fn block(&mut self) -> BlockBuilder<'_> {
        BlockBuilder {
            value_types: &mut self.value_types,
            block: &mut self.entry,
            span: SrcSpan::UNKNOWN,
        }
    }

    /// Finalizes the function.
    pub fn finish(self) -> Func {
        Func {
            name: self.name,
            ty: self.ty,
            visibility: self.visibility,
            body: self.entry,
            value_types: self.value_types,
        }
    }
}

/// Appends ops to a block, allocating result values from the owning
/// function's arena. Obtained from [`FuncBuilder::block`] or
/// [`BlockBuilder::subblock`].
#[derive(Debug)]
pub struct BlockBuilder<'a> {
    value_types: &'a mut Vec<Type>,
    block: &'a mut Block,
    span: SrcSpan,
}

impl<'a> BlockBuilder<'a> {
    /// The block's arguments.
    pub fn args(&self) -> &[Value] {
        &self.block.args
    }

    /// Sets the source span stamped onto subsequently pushed ops. Lowering
    /// calls this at each expression boundary; [`SrcSpan::UNKNOWN`] turns
    /// stamping off again.
    pub fn set_span(&mut self, span: SrcSpan) {
        self.span = span;
    }

    /// The span currently being stamped onto pushed ops.
    pub fn current_span(&self) -> SrcSpan {
        self.span
    }

    /// Allocates a fresh value.
    pub fn new_value(&mut self, ty: Type) -> Value {
        let v = Value::from_index(self.value_types.len());
        self.value_types.push(ty);
        v
    }

    /// The type of an existing value.
    pub fn value_type(&self, v: Value) -> &Type {
        &self.value_types[v.index()]
    }

    /// Appends a region-free op, returning its freshly allocated results.
    pub fn push(
        &mut self,
        kind: OpKind,
        operands: impl Into<ValueList>,
        result_tys: Vec<Type>,
    ) -> Vec<Value> {
        self.push_with_regions(kind, operands, result_tys, Vec::new())
    }

    /// Appends an op with regions, returning its results.
    pub fn push_with_regions(
        &mut self,
        kind: OpKind,
        operands: impl Into<ValueList>,
        result_tys: Vec<Type>,
        regions: Vec<Region>,
    ) -> Vec<Value> {
        let results: ValueList = result_tys.into_iter().map(|t| self.new_value(t)).collect();
        let returned = results.to_vec();
        self.block
            .ops
            .push(Op::with_regions(kind, operands, results, regions).with_span(self.span));
        returned
    }

    /// Appends a pre-built op verbatim, stamping the builder's current span
    /// only when the op carries none of its own.
    pub fn push_op(&mut self, op: Op) {
        let span = if op.span.is_unknown() { self.span } else { op.span };
        self.block.ops.push(op.with_span(span));
    }

    /// Builds a nested single-block region body (for `lambda` / `scf.if`).
    /// The closure receives a builder for the new block whose arguments have
    /// the given types; the closure must push a terminator.
    pub fn subblock(&mut self, arg_tys: Vec<Type>, f: impl FnOnce(&mut BlockBuilder<'_>)) -> Block {
        let mut args = Vec::new();
        for ty in arg_tys {
            let v = Value::from_index(self.value_types.len());
            self.value_types.push(ty);
            args.push(v);
        }
        let mut block = Block { args, ops: Vec::new() };
        {
            // The nested builder inherits the current span, so region ops
            // default to the enclosing expression's location.
            let mut bb =
                BlockBuilder { value_types: self.value_types, block: &mut block, span: self.span };
            f(&mut bb);
        }
        block
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_round_trip() {
        let mut b = FuncBuilder::new(
            "f",
            FuncType::new(vec![Type::F64], vec![Type::F64], false),
            Visibility::Public,
        );
        let arg = b.args()[0];
        let mut bb = b.block();
        let sum = bb.push(OpKind::FAdd, vec![arg, arg], vec![Type::F64]);
        bb.push(OpKind::Return, vec![sum[0]], vec![]);
        let func = b.finish();
        assert_eq!(func.body.ops.len(), 2);
        assert_eq!(*func.value_type(sum[0]), Type::F64);
        assert_eq!(func.body.ops[0].operands, [arg, arg]);
    }

    #[test]
    fn replace_all_uses_reaches_regions() {
        let mut b = FuncBuilder::new(
            "g",
            FuncType::new(vec![Type::I1, Type::F64], vec![Type::F64], false),
            Visibility::Private,
        );
        let (cond, x) = (b.args()[0], b.args()[1]);
        let mut bb = b.block();
        let then_block = bb.subblock(vec![], |sb| {
            let doubled = sb.push(OpKind::FAdd, vec![x, x], vec![Type::F64]);
            sb.push(OpKind::Yield, vec![doubled[0]], vec![]);
        });
        let else_block = bb.subblock(vec![], |sb| {
            sb.push(OpKind::Yield, vec![x], vec![]);
        });
        let result = bb.push_with_regions(
            OpKind::ScfIf,
            vec![cond],
            vec![Type::F64],
            vec![Region::single(then_block), Region::single(else_block)],
        );
        bb.push(OpKind::Return, vec![result[0]], vec![]);
        let mut func = b.finish();
        let fresh = func.new_value(Type::F64);
        func.replace_all_uses(x, fresh);
        let regions = &func.body.ops[0].regions;
        assert_eq!(regions[0].blocks[0].ops[0].operands, [fresh, fresh]);
        assert_eq!(regions[1].blocks[0].ops[0].operands, [fresh]);
    }

    #[test]
    fn block_paths_enumerate_nested() {
        let mut b = FuncBuilder::new(
            "h",
            FuncType::new(vec![Type::I1], vec![], false),
            Visibility::Private,
        );
        let cond = b.args()[0];
        let mut bb = b.block();
        let t = bb.subblock(vec![], |sb| {
            sb.push(OpKind::Yield, vec![], vec![]);
        });
        let e = bb.subblock(vec![], |sb| {
            sb.push(OpKind::Yield, vec![], vec![]);
        });
        bb.push_with_regions(
            OpKind::ScfIf,
            vec![cond],
            vec![],
            vec![Region::single(t), Region::single(e)],
        );
        bb.push(OpKind::Return, vec![], vec![]);
        let func = b.finish();
        let paths = func.block_paths();
        assert_eq!(paths.len(), 3); // entry + then + else
        assert_eq!(func.block_at(&paths[1]).ops.len(), 1);
    }

    #[test]
    fn stationary_classification() {
        let mut b = FuncBuilder::new("s", FuncType::rev_qbundle(1), Visibility::Public);
        let arg = b.args()[0];
        let mut bb = b.block();
        let c = bb.push(OpKind::ConstF64 { value: 1.0 }, vec![], vec![Type::F64]);
        let packed = bb.push(OpKind::QbUnpack, vec![arg], vec![Type::Qubit]);
        bb.push(OpKind::Return, vec![packed[0]], vec![]);
        let func = b.finish();
        assert!(func.op_is_stationary(&func.body.ops[0]));
        assert!(!func.op_is_stationary(&func.body.ops[1]));
        assert!(!func.op_is_stationary(&func.body.ops[2]));
        let _ = c;
    }
}
