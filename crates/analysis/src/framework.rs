//! The lattice-based dataflow engine.
//!
//! An [`Analysis`] pairs a join-semilattice [`Fact`] with a forward
//! transfer function over ops; [`analyze`] iterates the transfer to a
//! fixpoint over a function's structured region tree. Unlike a CFG solver
//! there are no branch edges to chase: control flow is `scf.if` regions, so
//! the engine walks ops in program order, descends into nested regions, and
//! joins each region's `scf.yield` operand facts into the `scf.if` results
//! at the merge.

use asdf_ir::{Block, Func, Op, OpKind, Value};

/// A join-semilattice dataflow fact.
///
/// `bottom` is the identity of [`join`](Fact::join) ("no information yet");
/// `join` must be commutative, associative, and idempotent so the fixpoint
/// is order-independent at merges.
pub trait Fact: Clone + PartialEq {
    /// The least element: joining it changes nothing.
    fn bottom() -> Self;

    /// Joins `other` into `self`, returning whether `self` changed.
    fn join(&mut self, other: &Self) -> bool;
}

/// Dense per-value fact storage, indexed by the function's SSA value arena.
///
/// Every value starts at [`Fact::bottom`]; mutations record whether
/// anything changed so the engine can detect the fixpoint.
#[derive(Debug, Clone)]
pub struct FactMap<F: Fact> {
    facts: Vec<F>,
    changed: bool,
}

impl<F: Fact> FactMap<F> {
    /// A map for a function with `num_values` SSA values, all at bottom.
    pub(crate) fn new(num_values: usize) -> Self {
        FactMap { facts: vec![F::bottom(); num_values], changed: false }
    }

    /// The current fact for `v`.
    pub(crate) fn get(&self, v: Value) -> &F {
        &self.facts[v.index()]
    }

    /// Joins `fact` into the fact for `v`.
    pub(crate) fn join(&mut self, v: Value, fact: &F) {
        self.changed |= self.facts[v.index()].join(fact);
    }

    /// Joins the fact currently held by `src` into the fact for `dst`.
    pub(crate) fn join_from(&mut self, dst: Value, src: Value) {
        let fact = self.facts[src.index()].clone();
        self.join(dst, &fact);
    }

    /// Overwrites the fact for `v`. Sound only when the transfer computing
    /// `fact` is deterministic per pass (each SSA value has one defining
    /// op, so within a pass a value is set at most once).
    pub(crate) fn set(&mut self, v: Value, fact: F) {
        if self.facts[v.index()] != fact {
            self.facts[v.index()] = fact;
            self.changed = true;
        }
    }

    fn take_changed(&mut self) -> bool {
        std::mem::take(&mut self.changed)
    }
}

/// A forward dataflow analysis: boundary facts and a transfer function.
///
/// The transfer reads the facts of an op's operands and joins (or sets)
/// the facts of its results. Analyses may carry mutable state (e.g. a
/// fresh-index counter); any per-pass state must be reset in
/// [`prepare`](Analysis::prepare) so every fixpoint pass is deterministic —
/// that, plus SSA (one defining op per value), is what makes
/// `FactMap::set` safe and the iteration terminate.
pub trait Analysis {
    /// The lattice this analysis computes over.
    type Fact: Fact;

    /// Called at the start of every fixpoint pass; reset per-pass state
    /// (fresh counters and the like) here.
    fn prepare(&mut self, func: &Func) {
        let _ = func;
    }

    /// Boundary fact for a function or lambda parameter. Defaults to
    /// bottom.
    fn arg_fact(&mut self, func: &Func, arg: Value) -> Self::Fact {
        let _ = (func, arg);
        Self::Fact::bottom()
    }

    /// The transfer function for one op.
    fn transfer(&mut self, func: &Func, op: &Op, facts: &mut FactMap<Self::Fact>);
}

/// Iteration backstop. Structured SSA converges in two passes (the second
/// merely confirms stability); the cap only guards against a
/// non-deterministic transfer.
const MAX_PASSES: usize = 64;

/// Runs `analysis` over `func` to a fixpoint and returns the per-value
/// facts.
///
/// Each pass walks the whole region tree (entry block plus every nested
/// `scf.if` / `lambda` region); passes repeat until no fact changes.
pub fn analyze<A: Analysis>(func: &Func, analysis: &mut A) -> FactMap<A::Fact> {
    let mut facts = FactMap::new(func.num_values());
    for _ in 0..MAX_PASSES {
        analysis.prepare(func);
        for &arg in &func.body.args {
            let fact = analysis.arg_fact(func, arg);
            facts.join(arg, &fact);
        }
        walk_forward(func, &func.body, analysis, &mut facts);
        if !facts.take_changed() {
            break;
        }
    }
    facts
}

/// Joins each region's `scf.yield` operand facts into the `scf.if`
/// results.
fn merge_yields<F: Fact>(op: &Op, facts: &mut FactMap<F>) {
    for region in &op.regions {
        let Some(term) = region.terminator() else {
            continue;
        };
        if !matches!(term.kind, OpKind::Yield) {
            continue;
        }
        for (&res, &yielded) in op.results.iter().zip(&term.operands) {
            facts.join_from(res, yielded);
        }
    }
}

fn walk_forward<A: Analysis>(
    func: &Func,
    block: &Block,
    analysis: &mut A,
    facts: &mut FactMap<A::Fact>,
) {
    for op in &block.ops {
        if let OpKind::Lambda { .. } = op.kind {
            // The region's leading args are the captures; the rest are the
            // lambda's own parameters.
            if let Some(body) = op.regions.first() {
                for (&capture, &arg) in op.operands.iter().zip(&body.args) {
                    facts.join_from(arg, capture);
                }
                for &arg in body.args.iter().skip(op.operands.len()) {
                    let fact = analysis.arg_fact(func, arg);
                    facts.join(arg, &fact);
                }
            }
        }
        for nested in &op.regions {
            walk_forward(func, nested, analysis, facts);
        }
        if matches!(op.kind, OpKind::ScfIf) {
            merge_yields(op, facts);
        }
        analysis.transfer(func, op, facts);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::{MeasFact, MeasureAnalysis};
    use crate::state::{QState, StateAnalysis, StateFact};
    use asdf_ir::{FuncBuilder, FuncType, GateKind, Type, Visibility};

    /// An "empty" function body (terminator only) analyzes without facts
    /// or panics.
    #[test]
    fn empty_block_is_a_fixpoint_immediately() {
        let mut b =
            FuncBuilder::new("empty", FuncType::new(vec![], vec![], false), Visibility::Private);
        b.block().push(OpKind::Return, vec![], vec![]);
        let func = b.finish();
        let _ = analyze(&func, &mut MeasureAnalysis);

        // Likewise for an scf.if whose regions hold only their yield.
        let mut b = FuncBuilder::new(
            "onlyyield",
            FuncType::new(vec![Type::I1], vec![], false),
            Visibility::Private,
        );
        let cond = b.args()[0];
        let mut bb = b.block();
        let then_block = bb.subblock(vec![], |sb| {
            sb.push(OpKind::Yield, vec![], vec![]);
        });
        let else_block = bb.subblock(vec![], |sb| {
            sb.push(OpKind::Yield, vec![], vec![]);
        });
        bb.push_with_regions(OpKind::ScfIf, vec![cond], vec![], vec![then_block, else_block]);
        bb.push(OpKind::Return, vec![], vec![]);
        let func = b.finish();
        let facts = analyze(&func, &mut StateAnalysis);
        assert_eq!(*facts.get(cond), StateFact::Bottom, "a classical condition carries no qubits");
    }

    /// Branch facts present on only one side still merge soundly: the
    /// side with a definite fact joins against the other side's
    /// passthrough, and disagreement widens.
    #[test]
    fn one_sided_branch_facts_join_at_the_merge() {
        let mut b = FuncBuilder::new(
            "merge",
            FuncType::new(vec![Type::I1], vec![], false),
            Visibility::Private,
        );
        let cond = b.args()[0];
        let mut bb = b.block();
        let a = bb.push(OpKind::QAlloc, vec![], vec![Type::Qubit]);
        // then: flip to |1>; else: pass the |0> wire straight through.
        let then_block = bb.subblock(vec![], |sb| {
            let x = sb.push(
                OpKind::Gate { gate: GateKind::X, num_controls: 0 },
                vec![a[0]],
                vec![Type::Qubit],
            );
            sb.push(OpKind::Yield, vec![x[0]], vec![]);
        });
        let else_block = bb.subblock(vec![], |sb| {
            sb.push(OpKind::Yield, vec![a[0]], vec![]);
        });
        let merged = bb.push_with_regions(
            OpKind::ScfIf,
            vec![cond],
            vec![Type::Qubit],
            vec![then_block, else_block],
        );
        bb.push(OpKind::QFree, vec![merged[0]], vec![]);
        bb.push(OpKind::Return, vec![], vec![]);
        let func = b.finish();
        asdf_ir::verify::verify_func(&func, None).unwrap();
        let facts = analyze(&func, &mut StateAnalysis);
        // |1> join |0> widens to unknown at the merge.
        assert_eq!(*facts.get(merged[0]), StateFact::Qubits(vec![QState::Unknown]));
    }

    /// Agreeing branch facts stay definite through the merge.
    #[test]
    fn agreeing_branch_facts_stay_definite() {
        let mut b = FuncBuilder::new(
            "agree",
            FuncType::new(vec![Type::I1], vec![], false),
            Visibility::Private,
        );
        let cond = b.args()[0];
        let mut bb = b.block();
        let a = bb.push(OpKind::QAlloc, vec![], vec![Type::Qubit]);
        // Both branches leave the wire in |1>.
        let then_block = bb.subblock(vec![], |sb| {
            let x = sb.push(
                OpKind::Gate { gate: GateKind::X, num_controls: 0 },
                vec![a[0]],
                vec![Type::Qubit],
            );
            sb.push(OpKind::Yield, vec![x[0]], vec![]);
        });
        let else_block = bb.subblock(vec![], |sb| {
            let y = sb.push(
                OpKind::Gate { gate: GateKind::Y, num_controls: 0 },
                vec![a[0]],
                vec![Type::Qubit],
            );
            sb.push(OpKind::Yield, vec![y[0]], vec![]);
        });
        let merged = bb.push_with_regions(
            OpKind::ScfIf,
            vec![cond],
            vec![Type::Qubit],
            vec![then_block, else_block],
        );
        bb.push(OpKind::QFree, vec![merged[0]], vec![]);
        bb.push(OpKind::Return, vec![], vec![]);
        let func = b.finish();
        asdf_ir::verify::verify_func(&func, None).unwrap();
        let facts = analyze(&func, &mut StateAnalysis);
        assert_eq!(*facts.get(merged[0]), StateFact::Qubits(vec![QState::One]));
    }

    /// Forward facts thread through lambda captures into the region body.
    #[test]
    fn lambda_captures_thread_forward_facts() {
        let mut b = FuncBuilder::new(
            "lam",
            FuncType::new(vec![Type::Qubit], vec![Type::I1], false),
            Visibility::Private,
        );
        let q = b.args()[0];
        let mut bb = b.block();
        let m = bb.push(OpKind::Measure, vec![q], vec![Type::Qubit, Type::I1]);
        bb.push(OpKind::QFree, vec![m[0]], vec![]);
        // A lambda capturing the classical outcome bit.
        let lam_ty = FuncType::new(vec![], vec![Type::I1], false);
        let body = bb.subblock(vec![Type::I1], |sb| {
            let captured = sb.args()[0];
            sb.push(OpKind::Return, vec![captured], vec![]);
        });
        let capture_arg = body.args[0];
        bb.push_with_regions(
            OpKind::Lambda { func_ty: lam_ty },
            vec![m[1]],
            vec![Type::Func(Box::new(FuncType::new(vec![], vec![Type::I1], false)))],
            vec![body],
        );
        bb.push(OpKind::Return, vec![m[1]], vec![]);
        let func = b.finish();
        let facts = analyze(&func, &mut MeasureAnalysis);
        // The capture arg inherited the operand's fact (bottom for a
        // classical bit — the point is that the walk reached it without
        // treating it as an unseeded function argument).
        assert_eq!(*facts.get(capture_arg), MeasFact::Bottom);
        assert_eq!(*facts.get(m[0]), MeasFact::Measured);
    }
}
