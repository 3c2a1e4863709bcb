//! A dynamic interpreter for QCircuit-dialect IR: the reproduction's
//! qir-runner (§7).
//!
//! The straight-line [`crate::run::Simulator`] cannot execute programs with
//! classical control flow (`scf.if` over measurement results, as in
//! teleportation, Fig. C13). This interpreter walks the IR op by op,
//! allocating qubits dynamically, branching on measured bits, and
//! recursing through direct calls — the Unrestricted-profile execution
//! model.

use crate::complex::Complex;
use crate::state::StateVector;
use asdf_ir::{Func, GateKind, Module, Op, OpKind, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// An argument passed to an interpreted function.
#[derive(Debug, Clone)]
pub enum ArgValue {
    /// A single qubit with the given amplitudes (normalized by the caller).
    Qubit(Complex, Complex),
    /// A register of qubits, each starting in |0> or |1>.
    QubitsBasis(Vec<bool>),
}

/// The result of interpreting a function.
#[derive(Debug, Clone)]
pub struct DynamicRun {
    /// Classical bits of the returned bitbundle (empty for qubit returns).
    pub bits: Vec<bool>,
    /// Physical indices of returned qubits (for qubit/qbundle returns).
    pub returned_qubits: Vec<usize>,
    /// The final global state (all allocated qubits).
    pub state: StateVector,
}

#[derive(Debug, Clone)]
enum Data {
    Qubit(usize),
    Bundle(Vec<usize>),
    Bit(bool),
    Bits(Vec<bool>),
    /// A `ConstF64` result. Gate angles travel inside `GateKind`, so the
    /// interpreter never reads the value.
    F64,
    /// A callable value (`callable_create` and friends): the referenced
    /// symbol plus whether the adjoint specialization has been selected.
    /// Mirrors the QIR runtime's functable pointer + flags representation.
    Callable {
        symbol: String,
        adj: bool,
    },
}

/// Interprets `module.func(entry)` with the given arguments and seed.
///
/// # Errors
///
/// Returns a message for unsupported ops (callables must be inlined or
/// converted to direct calls first).
pub fn run_dynamic(
    module: &Module,
    entry: &str,
    args: &[ArgValue],
    seed: u64,
) -> Result<DynamicRun, String> {
    let func = module.func(entry).ok_or_else(|| format!("unknown function @{entry}"))?;
    let mut interp =
        Interp { module, state: StateVector::zero(0), rng: StdRng::seed_from_u64(seed) };
    // Materialize arguments.
    let mut arg_data = Vec::new();
    for arg in args {
        match arg {
            ArgValue::Qubit(a0, a1) => {
                let q = interp.alloc();
                interp.set_single(q, *a0, *a1);
                arg_data.push(Data::Bundle(vec![q]));
            }
            ArgValue::QubitsBasis(bits) => {
                let qs: Vec<usize> = bits
                    .iter()
                    .map(|&b| {
                        let q = interp.alloc();
                        if b {
                            interp.state.apply(GateKind::X, &[], &[q]);
                        }
                        q
                    })
                    .collect();
                arg_data.push(Data::Bundle(qs));
            }
        }
    }
    let results = interp.call(func, arg_data)?;
    let mut bits = Vec::new();
    let mut returned_qubits = Vec::new();
    for r in results {
        match r {
            Data::Bit(b) => bits.push(b),
            Data::Bits(bs) => bits.extend(bs),
            Data::Qubit(q) => returned_qubits.push(q),
            Data::Bundle(qs) => returned_qubits.extend(qs),
            Data::F64 | Data::Callable { .. } => {}
        }
    }
    Ok(DynamicRun { bits, returned_qubits, state: interp.state })
}

struct Interp<'m> {
    module: &'m Module,
    state: StateVector,
    rng: StdRng,
}

impl Interp<'_> {
    fn alloc(&mut self) -> usize {
        self.state = self.state.with_appended_zero_qubit();
        self.state.num_qubits() - 1
    }

    fn set_single(&mut self, q: usize, a0: Complex, a1: Complex) {
        // Rotate |0> into a0|0> + a1|1> via Ry then phase.
        let theta = 2.0 * a1.abs().atan2(a0.abs());
        self.state.apply(GateKind::Ry(theta), &[], &[q]);
        let rel = a1.im.atan2(a1.re) - a0.im.atan2(a0.re);
        if rel.abs() > 1e-12 {
            self.state.apply(GateKind::P(rel), &[], &[q]);
        }
    }

    fn call(&mut self, func: &Func, args: Vec<Data>) -> Result<Vec<Data>, String> {
        if args.len() != func.body.args.len() {
            return Err(format!(
                "@{} expects {} arguments, got {}",
                func.name,
                func.body.args.len(),
                args.len()
            ));
        }
        let mut env: HashMap<Value, Data> = func.body.args.iter().copied().zip(args).collect();
        self.exec_block(func, &func.body.ops, &mut env)
    }

    /// Executes ops; returns the terminator's operands.
    fn exec_block(
        &mut self,
        func: &Func,
        ops: &[Op],
        env: &mut HashMap<Value, Data>,
    ) -> Result<Vec<Data>, String> {
        for op in ops {
            if op.is_terminator() {
                return op
                    .operands
                    .iter()
                    .map(|v| {
                        env.get(v).cloned().ok_or_else(|| format!("terminator reads unbound {v}"))
                    })
                    .collect();
            }
            self.exec_op(func, op, env)?;
        }
        Err("block has no terminator".to_string())
    }

    fn qubit(&self, env: &HashMap<Value, Data>, v: Value) -> Result<usize, String> {
        match env.get(&v) {
            Some(Data::Qubit(q)) => Ok(*q),
            Some(Data::Bundle(qs)) if qs.len() == 1 => Ok(qs[0]),
            other => Err(format!("value {v} is not a qubit ({other:?})")),
        }
    }

    fn exec_op(
        &mut self,
        func: &Func,
        op: &Op,
        env: &mut HashMap<Value, Data>,
    ) -> Result<(), String> {
        match &op.kind {
            OpKind::QAlloc => {
                let q = self.alloc();
                env.insert(op.results[0], Data::Qubit(q));
            }
            OpKind::QFree | OpKind::QFreeZ => {
                let q = self.qubit(env, op.operands[0])?;
                if matches!(op.kind, OpKind::QFree) {
                    let p1 = self.state.prob_one(q);
                    if p1 > 1e-12 {
                        let outcome = self.rng.gen_bool(p1.clamp(0.0, 1.0));
                        self.state.collapse(q, outcome);
                        if outcome {
                            self.state.apply(GateKind::X, &[], &[q]);
                        }
                    }
                }
            }
            OpKind::Gate { gate, num_controls } => {
                let qs: Vec<usize> =
                    op.operands.iter().map(|v| self.qubit(env, *v)).collect::<Result<_, _>>()?;
                self.state.apply(*gate, &qs[..*num_controls], &qs[*num_controls..]);
                for (q, r) in qs.iter().zip(&op.results) {
                    env.insert(*r, Data::Qubit(*q));
                }
            }
            OpKind::Measure => {
                let q = self.qubit(env, op.operands[0])?;
                let p1 = self.state.prob_one(q);
                let outcome = self.rng.gen_bool(p1.clamp(0.0, 1.0));
                self.state.collapse(q, outcome);
                env.insert(op.results[0], Data::Qubit(q));
                env.insert(op.results[1], Data::Bit(outcome));
            }
            OpKind::QbPack => {
                let qs: Vec<usize> =
                    op.operands.iter().map(|v| self.qubit(env, *v)).collect::<Result<_, _>>()?;
                env.insert(op.results[0], Data::Bundle(qs));
            }
            OpKind::QbUnpack => {
                let Some(Data::Bundle(qs)) = env.get(&op.operands[0]).cloned() else {
                    return Err("qbunpack of a non-bundle".to_string());
                };
                for (r, q) in op.results.iter().zip(qs) {
                    env.insert(*r, Data::Qubit(q));
                }
            }
            OpKind::BitPack => {
                let bits: Vec<bool> = op
                    .operands
                    .iter()
                    .map(|v| match env.get(v) {
                        Some(Data::Bit(b)) => Ok(*b),
                        other => Err(format!("bitpack of non-bit {other:?}")),
                    })
                    .collect::<Result<_, _>>()?;
                env.insert(op.results[0], Data::Bits(bits));
            }
            OpKind::BitUnpack => {
                let Some(Data::Bits(bits)) = env.get(&op.operands[0]).cloned() else {
                    return Err("bitunpack of a non-bitbundle".to_string());
                };
                for (r, b) in op.results.iter().zip(bits) {
                    env.insert(*r, Data::Bit(b));
                }
            }
            OpKind::ConstF64 { .. } => {
                env.insert(op.results[0], Data::F64);
            }
            OpKind::ConstI1 { value } => {
                env.insert(op.results[0], Data::Bit(*value));
            }
            OpKind::Call { callee, adj, pred } => {
                if *adj || pred.is_some() {
                    return Err(format!(
                        "specialized call to @{callee} must be lowered before interpretation"
                    ));
                }
                let target =
                    self.module.func(callee).ok_or_else(|| format!("unknown callee @{callee}"))?;
                let args: Vec<Data> = op
                    .operands
                    .iter()
                    .map(|v| env.get(v).cloned().ok_or_else(|| format!("call reads unbound {v}")))
                    .collect::<Result<_, _>>()?;
                let results = self.call(target, args)?;
                for (r, value) in op.results.iter().zip(results) {
                    env.insert(*r, value);
                }
            }
            OpKind::CallableCreate { symbol } => {
                env.insert(op.results[0], Data::Callable { symbol: symbol.clone(), adj: false });
            }
            OpKind::CallableAdjoint => {
                let Some(Data::Callable { symbol, adj }) = env.get(&op.operands[0]).cloned() else {
                    return Err("callable_adjoint of a non-callable".to_string());
                };
                // Flag-flip, as in the QIR runtime: double adjoint restores
                // the body specialization.
                env.insert(op.results[0], Data::Callable { symbol, adj: !adj });
            }
            OpKind::CallableControl { .. } => {
                // The controlled functable entry needs the predicate basis,
                // which only a generated specialization carries; emitting
                // one requires the compiler (not the interpreter).
                return Err(
                    "callable_control is not interpretable; inline or specialize first".to_string()
                );
            }
            OpKind::CallableInvoke => {
                let Some(Data::Callable { symbol, adj }) = env.get(&op.operands[0]).cloned() else {
                    return Err("callable_invoke of a non-callable".to_string());
                };
                // The adjoint flag selects the `__adj` functable slot, which
                // exists only if specialization generation emitted it.
                let target_name = if adj { format!("{symbol}__adj") } else { symbol.clone() };
                let target = self.module.func(&target_name).ok_or_else(|| {
                    format!("callable_invoke of @{symbol}: no function @{target_name}")
                })?;
                let args: Vec<Data> = op.operands[1..]
                    .iter()
                    .map(|v| env.get(v).cloned().ok_or_else(|| format!("invoke reads unbound {v}")))
                    .collect::<Result<_, _>>()?;
                let results = self.call(target, args)?;
                for (r, value) in op.results.iter().zip(results) {
                    env.insert(*r, value);
                }
            }
            OpKind::ScfIf => {
                let Some(Data::Bit(cond)) = env.get(&op.operands[0]) else {
                    return Err("scf.if condition is not a bit".to_string());
                };
                let block = if *cond { &op.regions[0] } else { &op.regions[1] };
                let yielded = self.exec_block(func, &block.ops, env)?;
                for (r, value) in op.results.iter().zip(yielded) {
                    env.insert(*r, value);
                }
            }
            other => {
                return Err(format!("op {} is not interpretable; lower it first", other.mnemonic()))
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asdf_ir::{FuncBuilder, FuncType, Type, Visibility};

    /// A private `qubit -> qubit` function applying one gate.
    fn gate_func(name: &str, gate: GateKind) -> Func {
        let mut b = FuncBuilder::new(
            name,
            FuncType::new(vec![Type::Qubit], vec![Type::Qubit], true),
            Visibility::Private,
        );
        let arg = b.args()[0];
        let mut bb = b.block();
        let out = bb.push(OpKind::Gate { gate, num_controls: 0 }, vec![arg], vec![Type::Qubit]);
        bb.push(OpKind::Return, vec![out[0]], vec![]);
        b.finish()
    }

    #[test]
    fn interprets_callables_with_adjoint_dispatch() {
        // inner applies S; its adjoint specialization applies Sdg. The
        // entry creates a callable, adjoints it twice (flag round-trip),
        // adjoints once more, and invokes: H Sdg S H |0> = |0> would need
        // both; here we apply S directly then the adjointed callable, so
        // the net effect on |+> is the identity and H brings it back to
        // |0> deterministically.
        let mut module = Module::new();
        module.add_func(gate_func("inner", GateKind::S));
        module.add_func(gate_func("inner__adj", GateKind::Sdg));

        let mut b = FuncBuilder::new(
            "entry",
            FuncType::new(vec![], vec![Type::I1], false),
            Visibility::Public,
        );
        let mut bb = b.block();
        let q = bb.push(OpKind::QAlloc, vec![], vec![Type::Qubit])[0];
        let plus = bb.push(
            OpKind::Gate { gate: GateKind::H, num_controls: 0 },
            vec![q],
            vec![Type::Qubit],
        )[0];
        let callable = bb.push(
            OpKind::CallableCreate { symbol: "inner".into() },
            vec![],
            vec![Type::Callable],
        );
        let once = bb.push(OpKind::CallableAdjoint, vec![callable[0]], vec![Type::Callable]);
        let twice = bb.push(OpKind::CallableAdjoint, vec![once[0]], vec![Type::Callable]);
        let thrice = bb.push(OpKind::CallableAdjoint, vec![twice[0]], vec![Type::Callable]);
        // Direct body invocation (S) ...
        let after_s = bb.push(OpKind::CallableInvoke, vec![callable[0], plus], vec![Type::Qubit]);
        // ... then the adjoint (Sdg) via the odd-flagged callable.
        let after_sdg =
            bb.push(OpKind::CallableInvoke, vec![thrice[0], after_s[0]], vec![Type::Qubit]);
        let back = bb.push(
            OpKind::Gate { gate: GateKind::H, num_controls: 0 },
            vec![after_sdg[0]],
            vec![Type::Qubit],
        )[0];
        let m = bb.push(OpKind::Measure, vec![back], vec![Type::Qubit, Type::I1]);
        bb.push(OpKind::Return, vec![m[1]], vec![]);
        module.add_func(b.finish());

        for seed in 0..8 {
            let run = run_dynamic(&module, "entry", &[], seed).unwrap();
            assert_eq!(run.bits, vec![false], "seed {seed}");
        }
    }

    #[test]
    fn missing_adjoint_specialization_is_a_clean_error() {
        let mut module = Module::new();
        module.add_func(gate_func("inner", GateKind::S));
        let mut b = FuncBuilder::new(
            "entry",
            FuncType::new(vec![], vec![Type::I1], false),
            Visibility::Public,
        );
        let mut bb = b.block();
        let q = bb.push(OpKind::QAlloc, vec![], vec![Type::Qubit])[0];
        let callable = bb.push(
            OpKind::CallableCreate { symbol: "inner".into() },
            vec![],
            vec![Type::Callable],
        );
        let adj = bb.push(OpKind::CallableAdjoint, vec![callable[0]], vec![Type::Callable]);
        let out = bb.push(OpKind::CallableInvoke, vec![adj[0], q], vec![Type::Qubit]);
        let m = bb.push(OpKind::Measure, vec![out[0]], vec![Type::Qubit, Type::I1]);
        bb.push(OpKind::Return, vec![m[1]], vec![]);
        module.add_func(b.finish());
        let err = run_dynamic(&module, "entry", &[], 0).unwrap_err();
        assert!(err.contains("inner__adj"), "{err}");
    }

    #[test]
    fn interprets_bell_pair_with_branching() {
        // measure one half; conditionally X the other so the result is
        // always |1> on the second qubit.
        let mut b = FuncBuilder::new(
            "bell_fix",
            FuncType::new(vec![], vec![Type::I1], false),
            Visibility::Public,
        );
        let mut bb = b.block();
        let q0 = bb.push(OpKind::QAlloc, vec![], vec![Type::Qubit])[0];
        let q1 = bb.push(OpKind::QAlloc, vec![], vec![Type::Qubit])[0];
        let h = bb.push(
            OpKind::Gate { gate: GateKind::H, num_controls: 0 },
            vec![q0],
            vec![Type::Qubit],
        )[0];
        let cx = bb.push(
            OpKind::Gate { gate: GateKind::X, num_controls: 1 },
            vec![h, q1],
            vec![Type::Qubit, Type::Qubit],
        );
        let m = bb.push(OpKind::Measure, vec![cx[0]], vec![Type::Qubit, Type::I1]);
        // if !m: X the partner... (we branch on m: then = no-op, else = X)
        let partner = cx[1];
        let then_block = bb.subblock(vec![], |sb| {
            sb.push(OpKind::Yield, vec![partner], vec![]);
        });
        let else_block = bb.subblock(vec![], |sb| {
            let x = sb.push(
                OpKind::Gate { gate: GateKind::X, num_controls: 0 },
                vec![partner],
                vec![Type::Qubit],
            );
            sb.push(OpKind::Yield, vec![x[0]], vec![]);
        });
        let fixed = bb.push_with_regions(
            OpKind::ScfIf,
            vec![m[1]],
            vec![Type::Qubit],
            vec![then_block, else_block],
        )[0];
        let m2 = bb.push(OpKind::Measure, vec![fixed], vec![Type::Qubit, Type::I1]);
        bb.push_op(asdf_ir::Op::new(OpKind::QFreeZ, vec![m2[0]], vec![]));
        bb.push_op(asdf_ir::Op::new(OpKind::QFree, vec![m[0]], vec![]));
        bb.push(OpKind::Return, vec![m2[1]], vec![]);
        let mut module = Module::new();
        module.add_func(b.finish());

        for seed in 0..20 {
            let run = run_dynamic(&module, "bell_fix", &[], seed).unwrap();
            assert_eq!(run.bits, vec![true], "seed {seed}");
        }
    }
}
