//! SSA-to-register conversion ("a process akin to reg2mem in QSSA", §7).
//!
//! OpenQASM 3 has no SSA values, so qubit dataflow must become register
//! accesses: each `qalloc` claims a register (reusing freed registers via a
//! free list), gates thread each operand qubit's register through to the
//! corresponding result, and `qfree`/`qfreez` return registers to the
//! pool.

use crate::circuit::Circuit;
use asdf_ir::{Func, IrError, OpKind, Type, Value};

/// The registers an SSA value carries.
#[derive(Debug, Clone, Copy)]
enum Regs {
    /// A classical value, or one not yet defined.
    Untracked,
    /// A single qubit, stored inline.
    One(usize),
    /// A qubit bundle: `arena[start..start + len]`.
    Bundle { start: usize, len: usize },
}

/// Value-indexed register assignments: single registers inline, bundles
/// as ranges into one shared arena.
struct RegisterFile {
    regs: Vec<Regs>,
    arena: Vec<usize>,
}

impl RegisterFile {
    fn get(&self, v: Value) -> Option<&[usize]> {
        match self.regs.get(v.index())? {
            Regs::Untracked => None,
            Regs::One(reg) => Some(std::slice::from_ref(reg)),
            Regs::Bundle { start, len } => Some(&self.arena[*start..*start + *len]),
        }
    }

    fn set_one(&mut self, v: Value, reg: usize) {
        self.regs[v.index()] = Regs::One(reg);
    }

    /// The register of a value that must carry exactly one.
    fn single(&self, v: Value, idx: usize) -> Result<usize, IrError> {
        match self.get(v) {
            Some(&[reg]) => Ok(reg),
            Some(regs) => Err(IrError::Unsupported(format!(
                "op {idx} expects a single qubit but value {v} carries {} registers",
                regs.len()
            ))),
            None => Err(untracked(v, idx)),
        }
    }
}

/// Converts a fully-lowered, straight-line QCircuit-dialect function into a
/// [`Circuit`].
///
/// The function must contain only `qalloc`, `qfree`, `qfreez`, `gate`,
/// `measure`, classical constants, and `return`; anything else (calls,
/// callables, control flow) means inlining did not finish, which mirrors
/// the paper's note that OpenQASM 3 generation "is currently dependent on
/// inlining succeeding" (§7).
///
/// # Errors
///
/// Returns [`IrError::Unsupported`] when a non-straight-line op remains.
pub fn lower_to_circuit(func: &Func) -> Result<Circuit, IrError> {
    let mut circuit = Circuit::new(0);
    // Values map to registers: single qubits to one register, qbundle
    // values (function arguments and pack results) to several.
    let n_values = func.num_values();
    let mut file = RegisterFile { regs: vec![Regs::Untracked; n_values], arena: Vec::new() };
    let mut free_list: Vec<usize> = Vec::new();
    let mut next_bit = 0usize;

    // Classical bit ordering: if the function returns a bitbundle built by
    // a final bitpack, the pack's operand order defines the output bit
    // indices (measurements may occur in any order).
    let mut bit_index_of: Vec<Option<usize>> = vec![None; n_values];
    if let Some(ret) = func.body.terminator() {
        let mut bitpack_of: Vec<Option<usize>> = vec![None; n_values];
        for (idx, op) in func.body.ops.iter().enumerate() {
            if matches!(op.kind, OpKind::BitPack) {
                for r in &op.results {
                    bitpack_of[r.index()] = Some(idx);
                }
            }
        }
        for ret_operand in &ret.operands {
            let Some(Some(pack)) = bitpack_of.get(ret_operand.index()) else { continue };
            for (i, bit) in func.body.ops[*pack].operands.iter().enumerate() {
                bit_index_of[bit.index()] = Some(i);
            }
        }
    }

    // Function arguments of qubit/qbundle type get dedicated registers
    // (kernels with qubit parameters, e.g. a standalone subroutine).
    for &arg in &func.body.args {
        match func.value_type(arg) {
            Type::Qubit => {
                let reg = circuit.add_qubit();
                file.set_one(arg, reg);
            }
            Type::QBundle(n) => {
                let start = file.arena.len();
                for _ in 0..*n {
                    let reg = circuit.add_qubit();
                    file.arena.push(reg);
                }
                file.regs[arg.index()] = Regs::Bundle { start, len: *n };
            }
            _ => {}
        }
    }

    // Reused buffer for the registers an op reads.
    let mut scratch: Vec<usize> = Vec::new();
    for (idx, op) in func.body.ops.iter().enumerate() {
        match &op.kind {
            OpKind::QAlloc => {
                let reg = free_list.pop().unwrap_or_else(|| circuit.add_qubit());
                file.set_one(op.results[0], reg);
            }
            OpKind::QFree => {
                let reg = file.single(op.operands[0], idx)?;
                circuit.reset(reg);
                free_list.push(reg);
            }
            OpKind::QFreeZ => {
                let reg = file.single(op.operands[0], idx)?;
                free_list.push(reg);
            }
            OpKind::QbUnpack => {
                let regs =
                    file.get(op.operands[0]).ok_or_else(|| untracked(op.operands[0], idx))?;
                scratch.clear();
                scratch.extend_from_slice(regs);
                for (result, reg) in op.results.iter().zip(&scratch) {
                    file.set_one(*result, *reg);
                }
            }
            OpKind::QbPack => {
                let start = file.arena.len();
                for v in &op.operands {
                    scratch.clear();
                    scratch.extend_from_slice(file.get(*v).ok_or_else(|| untracked(*v, idx))?);
                    file.arena.extend_from_slice(&scratch);
                }
                let len = file.arena.len() - start;
                file.regs[op.results[0].index()] = Regs::Bundle { start, len };
            }
            OpKind::Gate { gate, num_controls } => {
                scratch.clear();
                for v in &op.operands {
                    scratch.push(file.single(*v, idx)?);
                }
                circuit.gate(*gate, &scratch[..*num_controls], &scratch[*num_controls..]);
                for (operand_reg, result) in scratch.iter().zip(&op.results) {
                    file.set_one(*result, *operand_reg);
                }
            }
            OpKind::Measure => {
                let r = file.single(op.operands[0], idx)?;
                let bit = bit_index_of[op.results[1].index()].unwrap_or_else(|| {
                    let b = next_bit;
                    next_bit += 1;
                    b
                });
                circuit.measure(r, bit);
                file.set_one(op.results[0], r);
            }
            OpKind::Return => {}
            // Classical bookkeeping ops carry no quantum state.
            OpKind::BitPack | OpKind::BitUnpack => {}
            OpKind::ConstF64 { .. } | OpKind::ConstI1 { .. } => {}
            other => {
                return Err(IrError::Unsupported(format!(
                    "op {} survives lowering; inlining/lowering incomplete",
                    other.mnemonic()
                )))
            }
        }
    }
    Ok(circuit)
}

fn untracked(v: Value, idx: usize) -> IrError {
    IrError::Unsupported(format!("op {idx} reads qubit value {v} with no register"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use asdf_ir::{FuncBuilder, FuncType, GateKind, Visibility};

    #[test]
    fn allocates_and_reuses_registers() {
        let mut b = FuncBuilder::new(
            "k",
            FuncType::new(vec![], vec![Type::I1, Type::I1], false),
            Visibility::Public,
        );
        let mut bb = b.block();
        // First qubit: H then measure, then free.
        let q0 = bb.push(OpKind::QAlloc, vec![], vec![Type::Qubit]);
        let h0 = bb.push(
            OpKind::Gate { gate: GateKind::H, num_controls: 0 },
            vec![q0[0]],
            vec![Type::Qubit],
        );
        let m0 = bb.push(OpKind::Measure, vec![h0[0]], vec![Type::Qubit, Type::I1]);
        bb.push(OpKind::QFree, vec![m0[0]], vec![]);
        // Second qubit: allocated after the free, reuses register 0.
        let q1 = bb.push(OpKind::QAlloc, vec![], vec![Type::Qubit]);
        let m1 = bb.push(OpKind::Measure, vec![q1[0]], vec![Type::Qubit, Type::I1]);
        bb.push(OpKind::QFreeZ, vec![m1[0]], vec![]);
        bb.push(OpKind::Return, vec![m0[1], m1[1]], vec![]);
        let func = b.finish();
        asdf_ir::verify::verify_func(&func, None).unwrap();

        let circuit = lower_to_circuit(&func).unwrap();
        assert_eq!(circuit.num_qubits, 1, "freed register was reused");
        assert_eq!(circuit.num_bits(), 2);
        assert_eq!(circuit.measure_count(), 2);
        // qfree emitted a reset.
        assert!(circuit.ops().any(|op| matches!(op, crate::circuit::CircuitOp::Reset { .. })));
    }

    #[test]
    fn gate_controls_map_through() {
        let mut b = FuncBuilder::new("k", FuncType::new(vec![], vec![], false), Visibility::Public);
        let mut bb = b.block();
        let a = bb.push(OpKind::QAlloc, vec![], vec![Type::Qubit]);
        let c = bb.push(OpKind::QAlloc, vec![], vec![Type::Qubit]);
        let g = bb.push(
            OpKind::Gate { gate: GateKind::X, num_controls: 1 },
            vec![a[0], c[0]],
            vec![Type::Qubit, Type::Qubit],
        );
        bb.push(OpKind::QFreeZ, vec![g[0]], vec![]);
        bb.push(OpKind::QFreeZ, vec![g[1]], vec![]);
        bb.push(OpKind::Return, vec![], vec![]);
        let circuit = lower_to_circuit(&b.finish()).unwrap();
        assert_eq!(circuit.num_qubits, 2);
        let Some(crate::circuit::CircuitOp::Gate { controls, targets, .. }) = circuit.ops().next()
        else {
            panic!()
        };
        assert_eq!((controls[0], targets[0]), (0, 1));
    }

    #[test]
    fn bundles_unpack_through_the_shared_arena() {
        // A qbundle[3] argument and a qbpack of two fresh qubits are both
        // unpacked and measured; a bitpack fixes the output bit order.
        let mut b = FuncBuilder::new(
            "k",
            FuncType::new(vec![Type::QBundle(3)], vec![Type::BitBundle(5)], false),
            Visibility::Public,
        );
        let arg = b.args()[0];
        let mut bb = b.block();
        let a0 = bb.push(OpKind::QAlloc, vec![], vec![Type::Qubit])[0];
        let a1 = bb.push(OpKind::QAlloc, vec![], vec![Type::Qubit])[0];
        let packed = bb.push(OpKind::QbPack, vec![a0, a1], vec![Type::QBundle(2)])[0];
        let arg_wires = bb.push(OpKind::QbUnpack, vec![arg], vec![Type::Qubit; 3]);
        let packed_wires = bb.push(OpKind::QbUnpack, vec![packed], vec![Type::Qubit; 2]);
        let mut bits = Vec::new();
        for &q in packed_wires.iter().chain(&arg_wires) {
            let m = bb.push(OpKind::Measure, vec![q], vec![Type::Qubit, Type::I1]);
            bb.push(OpKind::QFree, vec![m[0]], vec![]);
            bits.push(m[1]);
        }
        // Output bit i is the i-th argument wire, then the packed wires.
        bits.rotate_left(2);
        let out = bb.push(OpKind::BitPack, bits, vec![Type::BitBundle(5)]);
        bb.push(OpKind::Return, out, vec![]);
        let func = b.finish();

        let circuit = lower_to_circuit(&func).unwrap();
        assert_eq!(circuit.num_qubits, 5, "three argument registers, then two allocations");
        let measures: Vec<(usize, usize)> = circuit
            .ops()
            .filter_map(|op| match op {
                crate::circuit::CircuitOp::Measure { qubit, bit } => Some((qubit, bit)),
                _ => None,
            })
            .collect();
        assert_eq!(measures, vec![(3, 3), (4, 4), (0, 0), (1, 1), (2, 2)]);
    }

    #[test]
    fn misused_registers_are_reported() {
        // A gate on a whole bundle: the operand carries three registers.
        let mut b = FuncBuilder::new("k", FuncType::rev_qbundle(3), Visibility::Public);
        let arg = b.args()[0];
        let mut bb = b.block();
        let h = bb.push(
            OpKind::Gate { gate: GateKind::H, num_controls: 0 },
            vec![arg],
            vec![Type::QBundle(3)],
        );
        bb.push(OpKind::Return, h, vec![]);
        let err = lower_to_circuit(&b.finish()).unwrap_err().to_string();
        assert!(
            err.contains(&format!(
                "op 0 expects a single qubit but value {arg} carries 3 registers"
            )),
            "{err}"
        );

        // A free of a classical value: no register was ever assigned.
        let mut b = FuncBuilder::new("k", FuncType::new(vec![], vec![], false), Visibility::Public);
        let mut bb = b.block();
        let c = bb.push(OpKind::ConstI1 { value: true }, vec![], vec![Type::I1])[0];
        bb.push(OpKind::QFreeZ, vec![c], vec![]);
        bb.push(OpKind::Return, vec![], vec![]);
        let err = lower_to_circuit(&b.finish()).unwrap_err().to_string();
        assert!(err.contains(&format!("op 1 reads qubit value {c} with no register")), "{err}");
    }

    #[test]
    fn rejects_unlowered_ops() {
        let mut b = FuncBuilder::new("k", FuncType::new(vec![], vec![], false), Visibility::Public);
        let mut bb = b.block();
        bb.push(OpKind::CallableCreate { symbol: "f".into() }, vec![], vec![Type::Callable]);
        bb.push(OpKind::Return, vec![], vec![]);
        assert!(lower_to_circuit(&b.finish()).is_err());
    }
}
