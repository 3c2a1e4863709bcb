//! OpenQASM 3 emission (§7).
//!
//! "From QCircuit IR, Asdf can produce OpenQASM 3 using a process akin to
//! reg2mem in QSSA, in which SSA values are converted to quantum register
//! accesses." The register conversion lives in `asdf-qcircuit::reg2mem`;
//! this module renders the resulting [`Circuit`].

use crate::push_decimal;
use asdf_ir::GateKind;
use asdf_qcircuit::{Circuit, CircuitOp};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Renders a circuit as an OpenQASM 3 program.
pub(crate) fn circuit_to_qasm(circuit: &Circuit) -> String {
    let mut out = String::new();
    out.push_str("OPENQASM 3.0;\n");
    out.push_str("include \"stdgates.inc\";\n\n");
    let _ = writeln!(out, "qubit[{}] q;", circuit.num_qubits.max(1));
    let bits = circuit.num_bits();
    if bits > 0 {
        let _ = writeln!(out, "bit[{bits}] c;");
    }
    out.push('\n');
    // Rendered angles by bit pattern: wide programs repeat a few angles
    // across thousands of gates, and formatting a float dominates a line.
    let mut angles: HashMap<u64, String> = HashMap::new();
    for op in circuit.ops() {
        match op {
            CircuitOp::Gate { gate, controls, targets } => {
                emit_gate(&mut out, &mut angles, gate, controls, targets);
            }
            CircuitOp::Measure { qubit, bit } => {
                out.push_str("c[");
                push_decimal(&mut out, bit);
                out.push_str("] = measure q[");
                push_decimal(&mut out, qubit);
                out.push_str("];\n");
            }
            CircuitOp::Reset { qubit } => {
                out.push_str("reset q[");
                push_decimal(&mut out, qubit);
                out.push_str("];\n");
            }
        }
    }
    out
}

fn emit_gate(
    out: &mut String,
    angles: &mut HashMap<u64, String>,
    gate: GateKind,
    controls: &[usize],
    targets: &[usize],
) {
    // Prefer stdgates names for common controlled forms.
    let name = match (gate, controls.len()) {
        (_, 0) => base_name(gate),
        (GateKind::X, 1) => "cx",
        (GateKind::X, 2) => "ccx",
        (GateKind::Z, 1) => "cz",
        (GateKind::Y, 1) => "cy",
        (GateKind::H, 1) => "ch",
        (GateKind::P(_), 1) => "cp",
        (GateKind::Swap, 1) => "cswap",
        (_, n) => {
            out.push_str("ctrl(");
            push_decimal(out, n);
            out.push_str(") @ ");
            base_name(gate)
        }
    };
    out.push_str(name);
    if let Some(theta) = gate.param() {
        out.push_str(angles.entry(theta.to_bits()).or_insert_with(|| format!("({theta:.12})")));
    }
    let mut sep = " ";
    for &q in controls.iter().chain(targets) {
        out.push_str(sep);
        out.push_str("q[");
        push_decimal(out, q);
        out.push(']');
        sep = ", ";
    }
    out.push_str(";\n");
}

fn base_name(gate: GateKind) -> &'static str {
    match gate {
        GateKind::P(_) => "p",
        GateKind::Sxdg => "sxdg",
        other => other.name(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_named_gates() {
        let mut c = Circuit::new(3);
        c.gate(GateKind::H, &[], &[0]);
        c.gate(GateKind::X, &[0], &[1]);
        c.gate(GateKind::X, &[0, 1], &[2]);
        c.gate(GateKind::P(0.5), &[0], &[1]);
        c.measure(2, 0);
        c.reset(1);
        let qasm = circuit_to_qasm(&c);
        assert!(qasm.starts_with("OPENQASM 3.0;"));
        assert!(qasm.contains("qubit[3] q;"));
        assert!(qasm.contains("bit[1] c;"));
        assert!(qasm.contains("h q[0];"));
        assert!(qasm.contains("cx q[0], q[1];"));
        assert!(qasm.contains("ccx q[0], q[1], q[2];"));
        assert!(qasm.contains("cp(0.5"));
        assert!(qasm.contains("c[0] = measure q[2];"));
        assert!(qasm.contains("reset q[1];"));
    }

    #[test]
    fn repeated_angles_render_like_fresh_ones() {
        let mut c = Circuit::new(2);
        for theta in [0.5, -0.0, 0.5, 0.0, 1.0 / 3.0, -0.0] {
            c.gate(GateKind::P(theta), &[0], &[1]);
        }
        let qasm = circuit_to_qasm(&c);
        let angles: Vec<&str> =
            qasm.lines().filter_map(|l| l.strip_prefix("cp(")?.split(')').next()).collect();
        let fresh: Vec<String> =
            [0.5, -0.0, 0.5, 0.0, 1.0 / 3.0, -0.0].iter().map(|t| format!("{t:.12}")).collect();
        assert_eq!(angles, fresh);
        assert_eq!(angles[1], "-0.000000000000", "signed zero keeps its sign");
    }

    #[test]
    fn multi_control_uses_ctrl_modifier() {
        let mut c = Circuit::new(4);
        c.gate(GateKind::Z, &[0, 1, 2], &[3]);
        let qasm = circuit_to_qasm(&c);
        assert!(qasm.contains("ctrl(3) @ z q[0], q[1], q[2], q[3];"));
    }

    #[test]
    fn compiled_bv_renders() {
        let src = r"
            classical f[N](secret: bit[N], x: bit[N]) -> bit {
                (secret & x).xor_reduce()
            }
            qpu kernel[N](f: cfunc[N, 1]) -> bit[N] {
                'p'[N] | f.sign | pm[N] >> std[N] | std[N].measure
            }
        ";
        let captures = vec![asdf_ast::expand::CaptureValue::CFunc {
            name: "f".into(),
            captures: vec![asdf_ast::expand::CaptureValue::bits_from_str("101")],
        }];
        let compiled = asdf_core::Compiler::compile(
            src,
            "kernel",
            &captures,
            &asdf_core::CompileOptions::default(),
        )
        .unwrap();
        let qasm = circuit_to_qasm(&compiled.circuit.unwrap());
        assert!(qasm.contains("measure"));
        assert!(qasm.contains("h q["));
    }
}
