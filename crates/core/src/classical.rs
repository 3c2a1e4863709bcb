//! Synthesizing circuits from `@classical` functions (§6.4).
//!
//! The flow mirrors the paper: the typed classical AST becomes a logic
//! network (`asdf-logic`'s XAG, standing in for mockturtle), the network is
//! folded/optimized during construction, and a Bennett embedding
//! `U_f |x>|y> = |x>|y XOR f(x)>` is generated (standing in for
//! tweedledum). `f.xor` requests that embedding directly; `f.sign`
//! requests `U'_f |x> = (-1)^{f(x)} |x>`, generated "by passing |−⟩
//! ancilla to the output of the Bennett embedding" — producing exactly the
//! ancilla shape the relaxed peephole of Fig. 10 later collapses into a
//! multi-controlled Z.

use crate::error::CoreError;
use crate::gates::GateCtx;
use asdf_ast::ast::CExpr;
use asdf_ast::{FrontendError, TClassical};
use asdf_ir::{Func, FuncBuilder, FuncType, GateKind, OpKind, Type, Visibility};
use asdf_logic::{embed, EmbedStyle, Signal, Xag};
use std::collections::HashMap;

/// Builds the (folded, structurally hashed) logic network of a classical
/// instance, with capture bits substituted as constants.
///
/// # Errors
///
/// Returns [`CoreError::Frontend`] on malformed bodies (the type checker
/// prevents these).
pub(crate) fn build_xag(tc: &TClassical) -> Result<Xag, CoreError> {
    let mut xag = Xag::new(tc.n_in);
    let mut env: HashMap<&str, Vec<Signal>> = HashMap::new();
    let mut offset = 0usize;
    for (i, (name, width)) in tc.params.iter().enumerate() {
        if i < tc.capture_bits.len() {
            let signals = tc.capture_bits[i]
                .iter()
                .map(|&b| if b { xag.const_true() } else { xag.const_false() })
                .collect();
            env.insert(name, signals);
        } else {
            let signals = (offset..offset + width).map(|k| xag.input(k)).collect();
            env.insert(name, signals);
            offset += width;
        }
    }
    let outputs = lower_cexpr(&tc.body, &env, tc, &mut xag)?;
    if outputs.len() != tc.n_out {
        return Err(CoreError::Frontend(FrontendError::type_err(format!(
            "classical body produced {} bits, expected {}",
            outputs.len(),
            tc.n_out
        ))));
    }
    xag.set_outputs(outputs);
    Ok(xag)
}

fn lower_cexpr(
    e: &CExpr,
    env: &HashMap<&str, Vec<Signal>>,
    tc: &TClassical,
    xag: &mut Xag,
) -> Result<Vec<Signal>, CoreError> {
    Ok(match e {
        CExpr::Var(name) => env.get(name.as_str()).cloned().ok_or_else(|| {
            CoreError::Frontend(FrontendError::unbound(format!("classical variable {name}")))
        })?,
        CExpr::And(a, b) => binary(e, a, b, env, tc, xag, Xag::and2)?,
        CExpr::Or(a, b) => {
            // a | b = ~(~a & ~b) over XAG primitives.
            let (va, vb) = (lower_cexpr(a, env, tc, xag)?, lower_cexpr(b, env, tc, xag)?);
            widths_match(&va, &vb)?;
            va.into_iter().zip(vb).map(|(x, y)| xag.and2(x.not(), y.not()).not()).collect()
        }
        CExpr::Xor(a, b) => binary(e, a, b, env, tc, xag, Xag::xor2)?,
        CExpr::Not(a) => lower_cexpr(a, env, tc, xag)?.into_iter().map(Signal::not).collect(),
        CExpr::Index(a, idx) => {
            let bits = lower_cexpr(a, env, tc, xag)?;
            let i = idx.eval_usize(&tc.dims).map_err(CoreError::Frontend)?;
            vec![*bits.get(i).ok_or_else(|| {
                CoreError::Frontend(FrontendError::type_err(format!("bit index {i} out of range")))
            })?]
        }
        CExpr::Repeat(a, n) => {
            let bits = lower_cexpr(a, env, tc, xag)?;
            let n = n.eval_usize(&tc.dims).map_err(CoreError::Frontend)?;
            vec![bits[0]; n]
        }
        CExpr::XorReduce(a) => {
            let bits = lower_cexpr(a, env, tc, xag)?;
            vec![xag.xor_many(bits)]
        }
        CExpr::AndReduce(a) => {
            let bits = lower_cexpr(a, env, tc, xag)?;
            vec![xag.and_many(bits)]
        }
    })
}

fn binary(
    _e: &CExpr,
    a: &CExpr,
    b: &CExpr,
    env: &HashMap<&str, Vec<Signal>>,
    tc: &TClassical,
    xag: &mut Xag,
    op: fn(&mut Xag, Signal, Signal) -> Signal,
) -> Result<Vec<Signal>, CoreError> {
    let va = lower_cexpr(a, env, tc, xag)?;
    let vb = lower_cexpr(b, env, tc, xag)?;
    widths_match(&va, &vb)?;
    Ok(va.into_iter().zip(vb).map(|(x, y)| op(xag, x, y)).collect())
}

fn widths_match(a: &[Signal], b: &[Signal]) -> Result<(), CoreError> {
    if a.len() == b.len() {
        Ok(())
    } else {
        Err(CoreError::Frontend(FrontendError::type_err(format!(
            "bitwise width mismatch: {} vs {}",
            a.len(),
            b.len()
        ))))
    }
}

/// Generates the `f.xor` function: `qbundle[n_in + n_out] -rev->` the same,
/// computing `|x>|y> -> |x>|y XOR f(x)>`.
///
/// # Errors
///
/// Propagates network construction/embedding failures.
pub(crate) fn xor_func(name: &str, tc: &TClassical) -> Result<Func, CoreError> {
    let xag = build_xag(tc)?;
    let embedding = embed::embed_xor(&xag, EmbedStyle::InPlaceXor).map_err(CoreError::Synthesis)?;
    let width = tc.n_in + tc.n_out;
    let mut b = FuncBuilder::new(name, FuncType::rev_qbundle(width), Visibility::Private);
    let arg = b.args()[0];
    let mut bb = b.block();
    let qubits = bb.push(OpKind::QbUnpack, vec![arg], vec![Type::Qubit; width]);

    // Wire map: embedding line -> position in our tracker. Inputs first,
    // then outputs, then freshly allocated ancillas.
    let mut values = qubits.to_vec();
    let mut line_to_pos: Vec<usize> = Vec::with_capacity(embedding.circuit.lines);
    line_to_pos.extend(0..width);
    let ancilla_count = embedding.ancilla_lines.len();
    for _ in 0..ancilla_count {
        let anc = bb.push(OpKind::QAlloc, vec![], vec![Type::Qubit]);
        line_to_pos.push(values.len());
        values.push(anc[0]);
    }

    let mut ctx = GateCtx { bb: &mut bb, values };
    emit_rev_circuit(&mut ctx, &embedding.circuit.gates, &line_to_pos);
    let values = ctx.values;

    for &ancilla in &values[width..width + ancilla_count] {
        bb.push_op(asdf_ir::Op::new(OpKind::QFreeZ, vec![ancilla], vec![]));
    }
    let packed = bb.push(OpKind::QbPack, values[..width].to_vec(), vec![Type::QBundle(width)]);
    bb.push(OpKind::Return, vec![packed[0]], vec![]);
    Ok(b.finish())
}

/// Generates the `f.sign` function: `qbundle[n_in] -rev->` the same,
/// computing `|x> -> (-1)^{f(x)} |x>` by feeding a `|−⟩` ancilla to the
/// Bennett embedding output (the Fig. 10 shape).
///
/// # Errors
///
/// Returns [`CoreError::Unsupported`] unless `n_out == 1`.
pub(crate) fn sign_func(name: &str, tc: &TClassical) -> Result<Func, CoreError> {
    if tc.n_out != 1 {
        return Err(CoreError::Unsupported(
            ".sign requires a single-output classical function".to_string(),
        ));
    }
    let xag = build_xag(tc)?;
    let embedding = embed::embed_xor(&xag, EmbedStyle::InPlaceXor).map_err(CoreError::Synthesis)?;
    let width = tc.n_in;
    let mut b = FuncBuilder::new(name, FuncType::rev_qbundle(width), Visibility::Private);
    let arg = b.args()[0];
    let mut bb = b.block();
    let qubits = bb.push(OpKind::QbUnpack, vec![arg], vec![Type::Qubit; width]);

    let mut values = qubits.to_vec();
    let mut line_to_pos: Vec<usize> = Vec::with_capacity(embedding.circuit.lines);
    line_to_pos.extend(0..width);
    // The output line becomes a |−⟩ ancilla: qalloc; X; H.
    let minus = bb.push(OpKind::QAlloc, vec![], vec![Type::Qubit]);
    let minus_pos = values.len();
    line_to_pos.push(minus_pos);
    values.push(minus[0]);
    let ancilla_count = embedding.ancilla_lines.len();
    for _ in 0..ancilla_count {
        let anc = bb.push(OpKind::QAlloc, vec![], vec![Type::Qubit]);
        line_to_pos.push(values.len());
        values.push(anc[0]);
    }

    let mut ctx = GateCtx { bb: &mut bb, values };
    ctx.gate(GateKind::X, &[], &[minus_pos]);
    ctx.gate(GateKind::H, &[], &[minus_pos]);
    emit_rev_circuit(&mut ctx, &embedding.circuit.gates, &line_to_pos);
    ctx.gate(GateKind::H, &[], &[minus_pos]);
    ctx.gate(GateKind::X, &[], &[minus_pos]);
    let values = ctx.values;

    for &scratch in &values[minus_pos..] {
        bb.push_op(asdf_ir::Op::new(OpKind::QFreeZ, vec![scratch], vec![]));
    }
    let packed = bb.push(OpKind::QbPack, values[..width].to_vec(), vec![Type::QBundle(width)]);
    bb.push(OpKind::Return, vec![packed[0]], vec![]);
    Ok(b.finish())
}

/// Emits a classical reversible cascade as QCircuit gates, translating
/// negative controls into X-conjugation.
fn emit_rev_circuit(
    ctx: &mut GateCtx<'_, '_>,
    gates: &[asdf_logic::McxGate],
    line_to_pos: &[usize],
) {
    for gate in gates {
        let pattern: Vec<(usize, bool)> =
            gate.controls.iter().map(|&(line, positive)| (line_to_pos[line], positive)).collect();
        let target = line_to_pos[gate.target];
        ctx.under_controls(pattern, |ctx, controls| {
            ctx.gate(GateKind::X, controls, &[target]);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asdf_ast::expand::{instantiate, CaptureValue};
    use asdf_ast::parse::parse_program;
    use asdf_ast::typecheck::typecheck_kernel;
    use std::collections::HashMap as Map;

    fn fig1_classical() -> TClassical {
        let src = r"
            classical f[N](secret: bit[N], x: bit[N]) -> bit {
                (secret & x).xor_reduce()
            }
            qpu kernel[N](f: cfunc[N, 1]) -> bit[N] {
                'p'[N] | f.sign | pm[N] >> std[N] | std[N].measure
            }
        ";
        let program = parse_program(src).unwrap();
        let captures = vec![CaptureValue::CFunc {
            name: "f".into(),
            captures: vec![CaptureValue::bits_from_str("1011")],
        }];
        let inst = instantiate(&program, "kernel", &captures, &Map::new()).unwrap();
        let kernel = typecheck_kernel(&program, "kernel", &inst).unwrap();
        kernel.classical[0].clone()
    }

    #[test]
    fn bv_oracle_xag_matches_eval() {
        let tc = fig1_classical();
        let xag = build_xag(&tc).unwrap();
        for x in 0..16usize {
            let bits: Vec<bool> = (0..4).map(|i| (x >> (3 - i)) & 1 == 1).collect();
            assert_eq!(xag.eval(&bits), tc.eval(&bits).unwrap(), "x = {x:04b}");
        }
        // A linear oracle needs no AND nodes at all.
        assert!(xag.live_and_nodes().is_empty());
    }

    #[test]
    fn xor_func_is_well_formed() {
        let tc = fig1_classical();
        let func = xor_func("f_xor", &tc).unwrap();
        assert_eq!(func.ty, FuncType::rev_qbundle(5));
        asdf_ir::verify::verify_func(&func, None).unwrap();
    }

    #[test]
    fn sign_func_has_minus_ancilla_shape() {
        let tc = fig1_classical();
        let func = sign_func("f_sign", &tc).unwrap();
        assert_eq!(func.ty, FuncType::rev_qbundle(4));
        asdf_ir::verify::verify_func(&func, None).unwrap();
        // The Fig. 10 shape: qalloc, X, H ... H, X, qfreez.
        let kinds: Vec<&OpKind> = func.body.ops.iter().map(|op| &op.kind).collect();
        assert!(kinds.iter().any(|k| matches!(k, OpKind::QAlloc)));
        assert!(kinds.iter().any(|k| matches!(k, OpKind::QFreeZ)));
        let h_count =
            kinds.iter().filter(|k| matches!(k, OpKind::Gate { gate: GateKind::H, .. })).count();
        assert!(h_count >= 2, "prep and unprep Hadamards present");
    }
}
