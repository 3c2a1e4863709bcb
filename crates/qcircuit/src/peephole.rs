//! Gate-level peephole optimizations on QCircuit-dialect IR (§6.5).
//!
//! Implemented as [`RewritePattern`]s for the canonicalization driver:
//!
//! - [`CancelGates`]: cancels adjacent Hermitian (self-adjoint) or mutually
//!   inverse gates, and merges adjacent diagonal phase gates (renormalizing
//!   to named Clifford/T gates) — "cancelling out adjacent Hermitian
//!   gates";
//! - [`HConjugation`]: rewrites `H·X·H` to `Z` (and `H·Z·H` to `X`);
//! - [`RelaxedPeephole`]: the relaxed peephole optimization of Liu, Bello,
//!   and Zhou shown in Fig. 10 — a multi-controlled X targeting a fresh
//!   `|−⟩` ancilla becomes a multi-controlled Z without the ancilla, which
//!   "is especially useful for simplifying instances of f.sign";
//! - [`UnpackPack`] / [`PackUnpack`]: removes `unpack(pack(...))` and
//!   `pack(unpack(...))` pairs for qbundles, bitbundles, and arrays (§6.1).

use asdf_ir::pass::CanonicalizePass;
use asdf_ir::rewrite::{GreedyRewriteDriver, PatternSet, RewriteConfig, RewritePattern, Rewriter};
use asdf_ir::{GateKind, OpKind, Value};

/// The name under which [`peephole_pass_with`] reports statistics.
pub const PEEPHOLE_PASS_NAME: &str = "qcircuit-peephole";

/// The QCircuit peephole patterns as a [`PatternSet`].
pub fn peephole_patterns() -> PatternSet {
    let mut set = PatternSet::new();
    set.add(Box::new(UnpackPack));
    set.add(Box::new(PackUnpack));
    set.add(Box::new(CancelGates));
    set.add(Box::new(HConjugation));
    set.add(Box::new(RelaxedPeephole));
    set
}

/// The peephole optimizations as a pipeline [`asdf_ir::pass::Pass`] under
/// a rewrite configuration (fuel, trace), reporting per-pattern firing
/// counts in its statistics detail. Passes built from clones of one
/// config share its [`asdf_ir::rewrite::Fuel`] budget.
pub fn peephole_pass_with(config: RewriteConfig) -> CanonicalizePass {
    CanonicalizePass::new(
        PEEPHOLE_PASS_NAME,
        GreedyRewriteDriver::with_config(peephole_patterns(), config),
    )
}

/// Normalizes a diagonal phase angle to a named gate when it hits a
/// special value.
fn named_phase(theta: f64) -> Option<GateKind> {
    use std::f64::consts::{FRAC_PI_2, FRAC_PI_4, PI, TAU};
    let theta = theta.rem_euclid(TAU);
    let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
    if close(theta, 0.0) || close(theta, TAU) {
        None // identity; caller removes the gate
    } else if close(theta, PI) {
        Some(GateKind::Z)
    } else if close(theta, FRAC_PI_2) {
        Some(GateKind::S)
    } else if close(theta, 3.0 * FRAC_PI_2) {
        Some(GateKind::Sdg)
    } else if close(theta, FRAC_PI_4) {
        Some(GateKind::T)
    } else if close(theta, 7.0 * FRAC_PI_4) {
        Some(GateKind::Tdg)
    } else {
        Some(GateKind::P(theta))
    }
}

/// The diagonal-phase angle of a gate, if it is `diag(1, e^{i theta})`.
fn phase_angle(gate: GateKind) -> Option<f64> {
    use std::f64::consts::{FRAC_PI_2, FRAC_PI_4, PI};
    match gate {
        GateKind::Z => Some(PI),
        GateKind::S => Some(FRAC_PI_2),
        GateKind::Sdg => Some(-FRAC_PI_2),
        GateKind::T => Some(FRAC_PI_4),
        GateKind::Tdg => Some(-FRAC_PI_4),
        GateKind::P(t) => Some(t),
        _ => None,
    }
}

/// If `second` directly follows `first` on identical qubits, the combined
/// gate (or `None` for identity).
fn merge_gates(first: GateKind, second: GateKind) -> Option<Option<GateKind>> {
    if first.cancels_with(second) {
        return Some(None);
    }
    if let (Some(a), Some(b)) = (phase_angle(first), phase_angle(second)) {
        return Some(named_phase(a + b));
    }
    if let (GateKind::Rz(a), GateKind::Rz(b)) = (first, second) {
        return Some(Some(GateKind::Rz(a + b)));
    }
    if let (GateKind::Rx(a), GateKind::Rx(b)) = (first, second) {
        return Some(Some(GateKind::Rx(a + b)));
    }
    if let (GateKind::Ry(a), GateKind::Ry(b)) = (first, second) {
        return Some(Some(GateKind::Ry(a + b)));
    }
    None
}

/// Cancels or merges a gate with the gate defining all of its operands.
pub struct CancelGates;

impl RewritePattern for CancelGates {
    fn name(&self) -> &'static str {
        "qcircuit-cancel-gates"
    }

    fn matches_root_kind(&self, kind: &OpKind) -> bool {
        matches!(kind, OpKind::Gate { .. })
    }

    fn benefit(&self) -> usize {
        3
    }

    fn match_and_rewrite(&self, rw: &mut Rewriter<'_>) -> bool {
        let block = rw.block();
        let op2 = rw.op();
        let OpKind::Gate { gate: g2, num_controls: nc2 } = op2.kind else {
            return false;
        };
        // Every operand must be the positional result of one earlier gate.
        let Some((idx1, 0)) = op2.operands.first().and_then(|v| rw.find_def(*v)) else {
            return false;
        };
        let op1 = &block.ops[idx1];
        let OpKind::Gate { gate: g1, num_controls: nc1 } = op1.kind else {
            return false;
        };
        if nc1 != nc2 || op1.results.len() != op2.operands.len() {
            return false;
        }
        for (pos, operand) in op2.operands.iter().enumerate() {
            if op1.results.get(pos) != Some(operand) {
                return false;
            }
            if rw.use_count(*operand) != 1 {
                return false;
            }
        }
        let Some(merged) = merge_gates(g1, g2) else {
            return false;
        };

        let op1_operands = op1.operands.clone();
        let op2_results = op2.results.clone();
        match merged {
            None => {
                // Identity: rewire consumers of op2 to op1's inputs.
                rw.erase_op(idx1);
                rw.erase_root();
                for (result, replacement) in op2_results.into_iter().zip(op1_operands) {
                    rw.replace_all_uses(result, replacement);
                }
            }
            Some(gate) => {
                // Merge into a single gate occupying op1's slot.
                rw.replace_op(
                    idx1,
                    asdf_ir::Op::new(
                        OpKind::Gate { gate, num_controls: nc1 },
                        op1_operands,
                        op2_results,
                    ),
                );
                rw.erase_root();
            }
        }
        true
    }
}

/// `H · g · H` → conjugated gate (X↔Z) on a single uncontrolled qubit.
pub struct HConjugation;

impl RewritePattern for HConjugation {
    fn name(&self) -> &'static str {
        "qcircuit-h-conjugation"
    }

    fn matches_root_kind(&self, kind: &OpKind) -> bool {
        matches!(kind, OpKind::Gate { gate: GateKind::H, num_controls: 0 })
    }

    fn benefit(&self) -> usize {
        2
    }

    fn match_and_rewrite(&self, rw: &mut Rewriter<'_>) -> bool {
        let block = rw.block();
        // op3 = H
        let op3 = rw.op();
        let OpKind::Gate { gate: GateKind::H, num_controls: 0 } = op3.kind else {
            return false;
        };
        let Some((idx2, 0)) = rw.find_def(op3.operands[0]) else {
            return false;
        };
        let op2 = &block.ops[idx2];
        let OpKind::Gate { gate: mid, num_controls: 0 } = op2.kind else {
            return false;
        };
        let swapped = match mid {
            GateKind::X => GateKind::Z,
            GateKind::Z => GateKind::X,
            _ => return false,
        };
        let Some((idx1, 0)) = rw.find_def(op2.operands[0]) else { return false };
        let op1 = &block.ops[idx1];
        let OpKind::Gate { gate: GateKind::H, num_controls: 0 } = op1.kind else {
            return false;
        };
        if rw.use_count(op1.results[0]) != 1 || rw.use_count(op2.results[0]) != 1 {
            return false;
        }

        let input = op1.operands[0];
        let output = op3.results[0];
        rw.replace_root(asdf_ir::Op::new(
            OpKind::Gate { gate: swapped, num_controls: 0 },
            vec![input],
            vec![output],
        ));
        rw.erase_op(idx1);
        rw.erase_op(idx2);
        true
    }
}

/// Fig. 10: a multi-controlled X whose target is a fresh `|−⟩` ancilla
/// (`qalloc; x; h` before, `h; x; qfreez` after) becomes a multi-controlled
/// Z on the controls alone.
pub struct RelaxedPeephole;

impl RewritePattern for RelaxedPeephole {
    fn name(&self) -> &'static str {
        "qcircuit-relaxed-peephole"
    }

    fn matches_root_kind(&self, kind: &OpKind) -> bool {
        matches!(kind, OpKind::Gate { gate: GateKind::X, num_controls } if *num_controls > 0)
    }

    fn benefit(&self) -> usize {
        1
    }

    fn match_and_rewrite(&self, rw: &mut Rewriter<'_>) -> bool {
        let block = rw.block();
        let mcx = rw.op();
        let OpKind::Gate { gate: GateKind::X, num_controls: nc } = mcx.kind else {
            return false;
        };
        if nc == 0 {
            return false;
        }
        // Trace the target back: H <- X <- qalloc.
        let target_in = *mcx.operands.last().expect("gate has operands");
        let single_gate = |v: Value, want: GateKind| -> Option<usize> {
            let (idx, pos) = rw.find_def(v)?;
            if pos != 0 {
                return None;
            }
            let op = &block.ops[idx];
            match op.kind {
                OpKind::Gate { gate, num_controls: 0 } if gate == want => Some(idx),
                _ => None,
            }
        };
        let Some(h_pre) = single_gate(target_in, GateKind::H) else {
            return false;
        };
        let Some(x_pre) = single_gate(block.ops[h_pre].operands[0], GateKind::X) else {
            return false;
        };
        let Some((alloc_idx, 0)) = rw.find_def(block.ops[x_pre].operands[0]) else {
            return false;
        };
        if !matches!(block.ops[alloc_idx].kind, OpKind::QAlloc) {
            return false;
        }
        // Trace the target forward: H -> X -> qfreez, each single-use.
        let target_out = *mcx.results.last().expect("gate has results");
        let Some(h_post) = rw.single_user(target_out) else {
            return false;
        };
        if !matches!(block.ops[h_post].kind, OpKind::Gate { gate: GateKind::H, num_controls: 0 }) {
            return false;
        }
        let Some(x_post) = rw.single_user(block.ops[h_post].results[0]) else {
            return false;
        };
        if !matches!(block.ops[x_post].kind, OpKind::Gate { gate: GateKind::X, num_controls: 0 }) {
            return false;
        }
        let Some(free_idx) = rw.single_user(block.ops[x_post].results[0]) else {
            return false;
        };
        if !matches!(block.ops[free_idx].kind, OpKind::QFreeZ | OpKind::QFree) {
            return false;
        }
        // Intermediate prep results must be single-use too.
        if rw.use_count(block.ops[alloc_idx].results[0]) != 1
            || rw.use_count(block.ops[x_pre].results[0]) != 1
            || rw.use_count(block.ops[h_pre].results[0]) != 1
        {
            return false;
        }

        let controls: Vec<Value> = mcx.operands[..nc].to_vec();
        let control_results: Vec<Value> = mcx.results[..nc].to_vec();
        // Replace the MCX with an MCZ on the controls (last control becomes
        // the Z target) and erase the whole |−⟩ ancilla prologue/epilogue.
        rw.replace_root(asdf_ir::Op::new(
            OpKind::Gate { gate: GateKind::Z, num_controls: nc - 1 },
            controls,
            control_results,
        ));
        for idx in [alloc_idx, x_pre, h_pre, h_post, x_post, free_idx] {
            rw.erase_op(idx);
        }
        true
    }
}

/// `unpack(pack(xs))` → `xs` (for qbundles, bitbundles, arrays).
pub struct UnpackPack;

impl RewritePattern for UnpackPack {
    fn name(&self) -> &'static str {
        "unpack-of-pack"
    }

    fn matches_root_kind(&self, kind: &OpKind) -> bool {
        matches!(kind, OpKind::QbUnpack | OpKind::BitUnpack | OpKind::ArrUnpack)
    }

    fn benefit(&self) -> usize {
        4
    }

    fn match_and_rewrite(&self, rw: &mut Rewriter<'_>) -> bool {
        let block = rw.block();
        let unpack = rw.op();
        let pack_kind = match unpack.kind {
            OpKind::QbUnpack => OpKind::QbPack,
            OpKind::BitUnpack => OpKind::BitPack,
            OpKind::ArrUnpack => OpKind::ArrPack,
            _ => return false,
        };
        let Some((pack_idx, 0)) = rw.find_def(unpack.operands[0]) else {
            return false;
        };
        let pack = &block.ops[pack_idx];
        if pack.kind != pack_kind || pack.results.len() != 1 {
            return false;
        }
        if rw.use_count(pack.results[0]) != 1 || pack.operands.len() != unpack.results.len() {
            return false;
        }
        let sources = pack.operands.clone();
        let sinks = unpack.results.clone();
        rw.erase_op(pack_idx);
        rw.erase_root();
        for (sink, source) in sinks.into_iter().zip(sources) {
            rw.replace_all_uses(sink, source);
        }
        true
    }
}

/// `pack(unpack(x))` in order → `x`.
pub struct PackUnpack;

impl RewritePattern for PackUnpack {
    fn name(&self) -> &'static str {
        "pack-of-unpack"
    }

    fn matches_root_kind(&self, kind: &OpKind) -> bool {
        matches!(kind, OpKind::QbPack | OpKind::BitPack | OpKind::ArrPack)
    }

    fn benefit(&self) -> usize {
        4
    }

    fn match_and_rewrite(&self, rw: &mut Rewriter<'_>) -> bool {
        let block = rw.block();
        let pack = rw.op();
        let unpack_kind = match pack.kind {
            OpKind::QbPack => OpKind::QbUnpack,
            OpKind::BitPack => OpKind::BitUnpack,
            OpKind::ArrPack => OpKind::ArrUnpack,
            _ => return false,
        };
        if pack.operands.is_empty() {
            return false;
        }
        // All operands must be the in-order results of one unpack.
        let Some((unpack_idx, 0)) = rw.find_def(pack.operands[0]) else {
            return false;
        };
        let unpack = &block.ops[unpack_idx];
        if unpack.kind != unpack_kind || unpack.results != pack.operands {
            return false;
        }
        if unpack.results.iter().any(|r| rw.use_count(*r) != 1) {
            return false;
        }
        let source = unpack.operands[0];
        let sink = pack.results[0];
        rw.erase_op(unpack_idx);
        rw.erase_root();
        rw.replace_all_uses(sink, source);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asdf_ir::{Func, FuncBuilder, FuncType, Module, Type, Visibility};

    fn run_one(func: Func) -> (Module, usize) {
        let mut module = Module::new();
        module.add_func(func);
        let fired = GreedyRewriteDriver::from_patterns(peephole_patterns()).run(&mut module);
        asdf_ir::verify::verify_module(&module).unwrap();
        (module, fired)
    }

    fn gate_func(build: impl FnOnce(&mut asdf_ir::func::BlockBuilder<'_>, Value) -> Value) -> Func {
        let mut b = FuncBuilder::new(
            "k",
            FuncType::new(vec![Type::Qubit], vec![Type::Qubit], true),
            Visibility::Public,
        );
        let arg = b.args()[0];
        let mut bb = b.block();
        let out = build(&mut bb, arg);
        bb.push(OpKind::Return, vec![out], vec![]);
        b.finish()
    }

    fn push_gate(bb: &mut asdf_ir::func::BlockBuilder<'_>, gate: GateKind, q: Value) -> Value {
        bb.push(OpKind::Gate { gate, num_controls: 0 }, vec![q], vec![Type::Qubit])[0]
    }

    #[test]
    fn hermitian_pair_cancels() {
        let func = gate_func(|bb, q| {
            let a = push_gate(bb, GateKind::H, q);
            push_gate(bb, GateKind::H, a)
        });
        let (module, fired) = run_one(func);
        assert!(fired >= 1);
        let f = module.func("k").unwrap();
        assert_eq!(f.body.ops.len(), 1, "only return remains");
    }

    #[test]
    fn s_pair_merges_to_z() {
        let func = gate_func(|bb, q| {
            let a = push_gate(bb, GateKind::S, q);
            push_gate(bb, GateKind::S, a)
        });
        let (module, _) = run_one(func);
        let f = module.func("k").unwrap();
        assert_eq!(f.body.ops.len(), 2);
        assert!(matches!(f.body.ops[0].kind, OpKind::Gate { gate: GateKind::Z, .. }));
    }

    #[test]
    fn t_pair_merges_to_s() {
        let func = gate_func(|bb, q| {
            let a = push_gate(bb, GateKind::T, q);
            push_gate(bb, GateKind::T, a)
        });
        let (module, _) = run_one(func);
        assert!(matches!(
            module.func("k").unwrap().body.ops[0].kind,
            OpKind::Gate { gate: GateKind::S, .. }
        ));
    }

    #[test]
    fn phase_merge_to_identity() {
        let func = gate_func(|bb, q| {
            let a = push_gate(bb, GateKind::P(0.7), q);
            push_gate(bb, GateKind::P(-0.7), a)
        });
        let (module, _) = run_one(func);
        assert_eq!(module.func("k").unwrap().body.ops.len(), 1);
    }

    #[test]
    fn hxh_becomes_z() {
        let func = gate_func(|bb, q| {
            let a = push_gate(bb, GateKind::H, q);
            let b = push_gate(bb, GateKind::X, a);
            push_gate(bb, GateKind::H, b)
        });
        let (module, _) = run_one(func);
        let f = module.func("k").unwrap();
        assert_eq!(f.body.ops.len(), 2);
        assert!(matches!(f.body.ops[0].kind, OpKind::Gate { gate: GateKind::Z, num_controls: 0 }));
    }

    #[test]
    fn controlled_cancellation_requires_matching_controls() {
        // CX then CX with the same control/target cancels.
        let mut b = FuncBuilder::new(
            "k",
            FuncType::new(vec![Type::Qubit, Type::Qubit], vec![Type::Qubit, Type::Qubit], true),
            Visibility::Public,
        );
        let (c, t) = (b.args()[0], b.args()[1]);
        let mut bb = b.block();
        let g1 = bb.push(
            OpKind::Gate { gate: GateKind::X, num_controls: 1 },
            vec![c, t],
            vec![Type::Qubit, Type::Qubit],
        );
        let g2 = bb.push(
            OpKind::Gate { gate: GateKind::X, num_controls: 1 },
            vec![g1[0], g1[1]],
            vec![Type::Qubit, Type::Qubit],
        );
        bb.push(OpKind::Return, vec![g2[0], g2[1]], vec![]);
        let (module, _) = run_one(b.finish());
        assert_eq!(module.func("k").unwrap().body.ops.len(), 1);
    }

    #[test]
    fn relaxed_peephole_fig10() {
        // The Fig. 10 shape: |-> ancilla target of a CCX.
        let mut b = FuncBuilder::new(
            "k",
            FuncType::new(vec![Type::Qubit, Type::Qubit], vec![Type::Qubit, Type::Qubit], true),
            Visibility::Public,
        );
        let (c0, c1) = (b.args()[0], b.args()[1]);
        let mut bb = b.block();
        let anc = bb.push(OpKind::QAlloc, vec![], vec![Type::Qubit])[0];
        let x1 = push_gate(&mut bb, GateKind::X, anc);
        let h1 = push_gate(&mut bb, GateKind::H, x1);
        let mcx = bb.push(
            OpKind::Gate { gate: GateKind::X, num_controls: 2 },
            vec![c0, c1, h1],
            vec![Type::Qubit, Type::Qubit, Type::Qubit],
        );
        let h2 = push_gate(&mut bb, GateKind::H, mcx[2]);
        let x2 = push_gate(&mut bb, GateKind::X, h2);
        bb.push(OpKind::QFreeZ, vec![x2], vec![]);
        bb.push(OpKind::Return, vec![mcx[0], mcx[1]], vec![]);
        let (module, fired) = run_one(b.finish());
        assert!(fired >= 1);
        let f = module.func("k").unwrap();
        // One CZ (Z with 1 control) + return.
        assert_eq!(f.body.ops.len(), 2, "{f}");
        assert!(matches!(f.body.ops[0].kind, OpKind::Gate { gate: GateKind::Z, num_controls: 1 }));
    }

    #[test]
    fn unpack_pack_cleanup() {
        let mut b = FuncBuilder::new("k", FuncType::rev_qbundle(2), Visibility::Public);
        let arg = b.args()[0];
        let mut bb = b.block();
        let qs = bb.push(OpKind::QbUnpack, vec![arg], vec![Type::Qubit, Type::Qubit]);
        let packed = bb.push(OpKind::QbPack, vec![qs[0], qs[1]], vec![Type::QBundle(2)]);
        let qs2 = bb.push(OpKind::QbUnpack, vec![packed[0]], vec![Type::Qubit, Type::Qubit]);
        let repacked = bb.push(OpKind::QbPack, vec![qs2[0], qs2[1]], vec![Type::QBundle(2)]);
        bb.push(OpKind::Return, vec![repacked[0]], vec![]);
        let (module, fired) = run_one(b.finish());
        assert!(fired >= 1);
        let f = module.func("k").unwrap();
        assert_eq!(f.body.ops.len(), 1, "everything folded away:\n{f}");
    }
}
