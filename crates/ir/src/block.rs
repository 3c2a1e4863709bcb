//! Blocks, and paths to nested blocks.

use crate::op::Op;
use crate::value::Value;

/// A basic block: arguments plus a straight-line op list ending in a
/// terminator.
///
/// ASDF's pipeline aims for single-block functions ("aggressive inlining
/// aiming to linearize the computation", §1), with structured control flow
/// expressed by `scf.if` regions rather than CFG edges. A region is a
/// single block, as in the paper's "single basic block making up the
/// callee function body" (§5.4), so an op's regions are its
/// [`Op::regions`] blocks.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Block {
    /// Block arguments (function parameters for entry blocks; captures and
    /// lambda parameters for lambda bodies).
    pub args: Vec<Value>,
    /// Operations in execution order.
    pub ops: Vec<Op>,
}

impl Block {
    /// The terminator, if the block is non-empty and properly terminated.
    pub fn terminator(&self) -> Option<&Op> {
        self.ops.last().filter(|op| op.is_terminator())
    }
}

/// A path from a function's entry block down to a (possibly nested) block:
/// each step is (op index in the current block, region index).
pub type BlockPath = Vec<(usize, usize)>;
