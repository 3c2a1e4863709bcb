//! Payload encodings for the IR, circuit, routing, statistics, and
//! diagnostic types an artifact carries.
//!
//! Every encoder here writes a canonical byte stream: encoding the same
//! value twice yields identical bytes (maps are traversed in stored
//! order, floats are written as raw bit patterns), which is what makes
//! the content hash and the byte-identical re-serialization guarantee
//! possible. Every decoder is total over arbitrary bytes — corruption
//! becomes an [`ArtifactError`], never a panic.

use crate::error::ArtifactError;
use crate::wire::{Decoder, Encoder};
use asdf_ast::diag::{Diagnostic, Label, Severity, Span};
use asdf_basis::{
    Basis, BasisElem, BasisLiteral, BasisVector, BitString, Eigenstate, Phase, PrimitiveBasis,
};
use asdf_ir::{
    Block, Func, FuncType, GateKind, Module, Op, OpKind, SrcSpan, Type, Value, Visibility,
};
use asdf_qcircuit::{Circuit, CircuitOp};
use asdf_target::RoutingInfo;
use std::time::Duration;

/// Diagnostic codes this build can intern back to `&'static str` when
/// decoding. Diagnostics carry `&'static str` codes in memory, so a
/// decoded code must resolve against this table; an unknown code is a
/// structured [`ArtifactError::UnknownDiagnosticCode`].
pub(crate) const KNOWN_DIAGNOSTIC_CODES: &[&str] = &[
    "E0001", "E0002", "E0003", "E0004", "E0005", "E0006", "E0101", "E0102", "E0103", "E0104",
    "E0105", "E0106", "W0001", "W0003",
];

fn intern_code(code: &str) -> Result<&'static str, ArtifactError> {
    KNOWN_DIAGNOSTIC_CODES
        .iter()
        .find(|known| **known == code)
        .copied()
        .ok_or_else(|| ArtifactError::UnknownDiagnosticCode(code.to_string()))
}

// ---------------------------------------------------------------------------
// IR modules
// ---------------------------------------------------------------------------

/// Encodes a whole module (functions in insertion order).
pub fn encode_module(e: &mut Encoder, module: &Module) {
    e.usize(module.len());
    for func in module.funcs() {
        encode_func(e, func);
    }
}

/// Decodes a module and verifies it, so malformed IR (a value outside
/// its function's arena, a wrong operand count) is an
/// [`ArtifactError::InvalidModule`] here rather than a panic in whatever
/// reads the module next.
pub fn decode_module(d: &mut Decoder<'_>) -> Result<Module, ArtifactError> {
    let count = d.count(1, "module functions")?;
    let mut module = Module::default();
    for _ in 0..count {
        module.add_func(decode_func(d)?);
    }
    asdf_ir::verify::verify_module(&module)
        .map_err(|e| ArtifactError::InvalidModule(e.to_string()))?;
    Ok(module)
}

fn encode_func(e: &mut Encoder, func: &Func) {
    e.str(&func.name);
    encode_func_type(e, &func.ty);
    e.u8(match func.visibility {
        Visibility::Public => 0,
        Visibility::Private => 1,
    });
    encode_block(e, &func.body);
    e.usize(func.value_types().len());
    for ty in func.value_types() {
        encode_type(e, ty);
    }
}

fn decode_func(d: &mut Decoder<'_>) -> Result<Func, ArtifactError> {
    let name = d.str("function name")?;
    let ty = decode_func_type(d)?;
    let visibility = match d.u8("function visibility")? {
        0 => Visibility::Public,
        1 => Visibility::Private,
        tag => {
            return Err(ArtifactError::BadTag {
                context: "function visibility",
                tag: u64::from(tag),
            })
        }
    };
    let body = decode_block(d)?;
    let count = d.count(1, "function value types")?;
    let mut value_types = Vec::with_capacity(count);
    for _ in 0..count {
        value_types.push(decode_type(d)?);
    }
    Ok(Func::from_parts(name, ty, visibility, body, value_types))
}

fn encode_block(e: &mut Encoder, block: &Block) {
    e.usize(block.args.len());
    for arg in &block.args {
        encode_value(e, *arg);
    }
    e.usize(block.ops.len());
    for op in &block.ops {
        encode_op(e, op);
    }
}

fn decode_block(d: &mut Decoder<'_>) -> Result<Block, ArtifactError> {
    let arg_count = d.count(4, "block args")?;
    let mut args = Vec::with_capacity(arg_count);
    for _ in 0..arg_count {
        args.push(decode_value(d)?);
    }
    let op_count = d.count(1, "block ops")?;
    let mut ops = Vec::with_capacity(op_count);
    for _ in 0..op_count {
        ops.push(decode_op(d)?);
    }
    Ok(Block { args, ops })
}

/// A region is one block, written after a block count of 1: the count is
/// part of the payload schema, and dropping it would change every
/// artifact's bytes and content hash.
fn encode_region(e: &mut Encoder, block: &Block) {
    e.usize(1);
    encode_block(e, block);
}

/// Decodes a region, rejecting any block count but 1.
fn decode_region(d: &mut Decoder<'_>) -> Result<Block, ArtifactError> {
    if d.usize("region blocks")? != 1 {
        return Err(ArtifactError::Invalid {
            context: "region block count (a region is one block)",
        });
    }
    decode_block(d)
}

fn encode_value(e: &mut Encoder, v: Value) {
    e.u32(v.index() as u32);
}

fn decode_value(d: &mut Decoder<'_>) -> Result<Value, ArtifactError> {
    Ok(Value::from_index(d.u32("value index")? as usize))
}

fn encode_op(e: &mut Encoder, op: &Op) {
    encode_op_kind(e, &op.kind);
    e.usize(op.operands.len());
    for v in &op.operands {
        encode_value(e, *v);
    }
    e.usize(op.results.len());
    for v in &op.results {
        encode_value(e, *v);
    }
    e.usize(op.regions.len());
    for region in &op.regions {
        encode_region(e, region);
    }
    e.u32(op.span.start);
    e.u32(op.span.end);
}

fn decode_op(d: &mut Decoder<'_>) -> Result<Op, ArtifactError> {
    let kind = decode_op_kind(d)?;
    let operand_count = d.count(4, "op operands")?;
    let mut operands = Vec::with_capacity(operand_count);
    for _ in 0..operand_count {
        operands.push(decode_value(d)?);
    }
    let result_count = d.count(4, "op results")?;
    let mut results = Vec::with_capacity(result_count);
    for _ in 0..result_count {
        results.push(decode_value(d)?);
    }
    let region_count = d.count(1, "op regions")?;
    let mut regions = Vec::with_capacity(region_count);
    for _ in 0..region_count {
        regions.push(decode_region(d)?);
    }
    let start = d.u32("op span start")?;
    let end = d.u32("op span end")?;
    let mut op = Op::with_regions(kind, operands, results, regions);
    op.span = SrcSpan { start, end };
    Ok(op)
}

fn encode_op_kind(e: &mut Encoder, kind: &OpKind) {
    match kind {
        OpKind::QbPrep { prim, eigenstate, dim } => {
            e.u8(0);
            encode_prim(e, *prim);
            e.u8(u8::from(eigenstate.eigenbit()));
            e.usize(*dim);
        }
        OpKind::QbDiscard => e.u8(1),
        OpKind::QbDiscardZ => e.u8(2),
        OpKind::QbTrans { basis_in, basis_out } => {
            e.u8(3);
            encode_basis(e, basis_in);
            encode_basis(e, basis_out);
        }
        OpKind::QbMeas { basis } => {
            e.u8(4);
            encode_basis(e, basis);
        }
        OpKind::QbPack => e.u8(5),
        OpKind::QbUnpack => e.u8(6),
        OpKind::BitPack => e.u8(7),
        OpKind::BitUnpack => e.u8(8),
        OpKind::FuncConst { symbol } => {
            e.u8(9);
            e.str(symbol);
        }
        OpKind::FuncAdj => e.u8(10),
        OpKind::FuncPred { pred } => {
            e.u8(11);
            encode_basis(e, pred);
        }
        OpKind::Call { callee, adj, pred } => {
            e.u8(12);
            e.str(callee);
            e.bool(*adj);
            match pred {
                None => e.u8(0),
                Some(basis) => {
                    e.u8(1);
                    encode_basis(e, basis);
                }
            }
        }
        OpKind::CallIndirect => e.u8(13),
        OpKind::Lambda { func_ty } => {
            e.u8(14);
            encode_func_type(e, func_ty);
        }
        OpKind::Return => e.u8(15),
        OpKind::ScfIf => e.u8(16),
        OpKind::Yield => e.u8(17),
        OpKind::ConstF64 { value } => {
            e.u8(18);
            e.f64(*value);
        }
        OpKind::ConstI1 { value } => {
            e.u8(19);
            e.bool(*value);
        }
        OpKind::FAdd => e.u8(20),
        OpKind::FSub => e.u8(21),
        OpKind::FMul => e.u8(22),
        OpKind::FDiv => e.u8(23),
        OpKind::FNeg => e.u8(24),
        OpKind::XorI1 => e.u8(25),
        OpKind::AndI1 => e.u8(26),
        OpKind::NotI1 => e.u8(27),
        OpKind::QAlloc => e.u8(28),
        OpKind::QFree => e.u8(29),
        OpKind::QFreeZ => e.u8(30),
        OpKind::Gate { gate, num_controls } => {
            e.u8(31);
            encode_gate(e, gate);
            e.usize(*num_controls);
        }
        OpKind::Measure => e.u8(32),
        OpKind::ArrPack => e.u8(33),
        OpKind::ArrUnpack => e.u8(34),
        OpKind::CallableCreate { symbol } => {
            e.u8(35);
            e.str(symbol);
        }
        OpKind::CallableAdjoint => e.u8(36),
        OpKind::CallableControl { extra } => {
            e.u8(37);
            e.usize(*extra);
        }
        OpKind::CallableInvoke => e.u8(38),
    }
}

fn decode_op_kind(d: &mut Decoder<'_>) -> Result<OpKind, ArtifactError> {
    let tag = d.u8("op kind")?;
    Ok(match tag {
        0 => OpKind::QbPrep {
            prim: decode_prim(d)?,
            eigenstate: Eigenstate::from_eigenbit(d.bool("eigenstate")?),
            dim: d.usize("qbprep dim")?,
        },
        1 => OpKind::QbDiscard,
        2 => OpKind::QbDiscardZ,
        3 => OpKind::QbTrans { basis_in: decode_basis(d)?, basis_out: decode_basis(d)? },
        4 => OpKind::QbMeas { basis: decode_basis(d)? },
        5 => OpKind::QbPack,
        6 => OpKind::QbUnpack,
        7 => OpKind::BitPack,
        8 => OpKind::BitUnpack,
        9 => OpKind::FuncConst { symbol: d.str("func_const symbol")? },
        10 => OpKind::FuncAdj,
        11 => OpKind::FuncPred { pred: decode_basis(d)? },
        12 => {
            let callee = d.str("call callee")?;
            let adj = d.bool("call adj")?;
            let pred = match d.u8("call pred tag")? {
                0 => None,
                1 => Some(decode_basis(d)?),
                tag => {
                    return Err(ArtifactError::BadTag {
                        context: "call pred tag",
                        tag: u64::from(tag),
                    })
                }
            };
            OpKind::Call { callee, adj, pred }
        }
        13 => OpKind::CallIndirect,
        14 => OpKind::Lambda { func_ty: decode_func_type(d)? },
        15 => OpKind::Return,
        16 => OpKind::ScfIf,
        17 => OpKind::Yield,
        18 => OpKind::ConstF64 { value: d.f64("const f64")? },
        19 => OpKind::ConstI1 { value: d.bool("const i1")? },
        20 => OpKind::FAdd,
        21 => OpKind::FSub,
        22 => OpKind::FMul,
        23 => OpKind::FDiv,
        24 => OpKind::FNeg,
        25 => OpKind::XorI1,
        26 => OpKind::AndI1,
        27 => OpKind::NotI1,
        28 => OpKind::QAlloc,
        29 => OpKind::QFree,
        30 => OpKind::QFreeZ,
        31 => OpKind::Gate { gate: decode_gate(d)?, num_controls: d.usize("gate controls")? },
        32 => OpKind::Measure,
        33 => OpKind::ArrPack,
        34 => OpKind::ArrUnpack,
        35 => OpKind::CallableCreate { symbol: d.str("callable symbol")? },
        36 => OpKind::CallableAdjoint,
        37 => OpKind::CallableControl { extra: d.usize("callable extra")? },
        38 => OpKind::CallableInvoke,
        tag => return Err(ArtifactError::BadTag { context: "op kind", tag: u64::from(tag) }),
    })
}

// ---------------------------------------------------------------------------
// Types
// ---------------------------------------------------------------------------

fn encode_type(e: &mut Encoder, ty: &Type) {
    match ty {
        Type::QBundle(n) => {
            e.u8(0);
            e.usize(*n);
        }
        Type::BitBundle(n) => {
            e.u8(1);
            e.usize(*n);
        }
        Type::Func(func_ty) => {
            e.u8(2);
            encode_func_type(e, func_ty);
        }
        Type::Qubit => e.u8(3),
        Type::Array(elem, n) => {
            e.u8(4);
            encode_type(e, elem);
            e.usize(*n);
        }
        Type::Callable => e.u8(5),
        Type::F64 => e.u8(6),
        Type::I1 => e.u8(7),
    }
}

fn decode_type(d: &mut Decoder<'_>) -> Result<Type, ArtifactError> {
    let tag = d.u8("type")?;
    Ok(match tag {
        0 => Type::QBundle(d.usize("qbundle dim")?),
        1 => Type::BitBundle(d.usize("bitbundle dim")?),
        2 => Type::Func(Box::new(decode_func_type(d)?)),
        3 => Type::Qubit,
        4 => {
            let elem = decode_type(d)?;
            let n = d.usize("array len")?;
            Type::Array(Box::new(elem), n)
        }
        5 => Type::Callable,
        6 => Type::F64,
        7 => Type::I1,
        tag => return Err(ArtifactError::BadTag { context: "type", tag: u64::from(tag) }),
    })
}

fn encode_func_type(e: &mut Encoder, ty: &FuncType) {
    e.usize(ty.inputs.len());
    for input in &ty.inputs {
        encode_type(e, input);
    }
    e.usize(ty.results.len());
    for result in &ty.results {
        encode_type(e, result);
    }
    e.bool(ty.reversible);
}

fn decode_func_type(d: &mut Decoder<'_>) -> Result<FuncType, ArtifactError> {
    let input_count = d.count(1, "func type inputs")?;
    let mut inputs = Vec::with_capacity(input_count);
    for _ in 0..input_count {
        inputs.push(decode_type(d)?);
    }
    let result_count = d.count(1, "func type results")?;
    let mut results = Vec::with_capacity(result_count);
    for _ in 0..result_count {
        results.push(decode_type(d)?);
    }
    let reversible = d.bool("func type reversible")?;
    Ok(FuncType { inputs, results, reversible })
}

// ---------------------------------------------------------------------------
// Gates and bases
// ---------------------------------------------------------------------------

fn encode_gate(e: &mut Encoder, gate: &GateKind) {
    match gate {
        GateKind::X => e.u8(0),
        GateKind::Y => e.u8(1),
        GateKind::Z => e.u8(2),
        GateKind::H => e.u8(3),
        GateKind::S => e.u8(4),
        GateKind::Sdg => e.u8(5),
        GateKind::T => e.u8(6),
        GateKind::Tdg => e.u8(7),
        GateKind::Sx => e.u8(8),
        GateKind::Sxdg => e.u8(9),
        GateKind::P(theta) => {
            e.u8(10);
            e.f64(*theta);
        }
        GateKind::Rx(theta) => {
            e.u8(11);
            e.f64(*theta);
        }
        GateKind::Ry(theta) => {
            e.u8(12);
            e.f64(*theta);
        }
        GateKind::Rz(theta) => {
            e.u8(13);
            e.f64(*theta);
        }
        GateKind::Swap => e.u8(14),
    }
}

fn decode_gate(d: &mut Decoder<'_>) -> Result<GateKind, ArtifactError> {
    let tag = d.u8("gate")?;
    Ok(match tag {
        0 => GateKind::X,
        1 => GateKind::Y,
        2 => GateKind::Z,
        3 => GateKind::H,
        4 => GateKind::S,
        5 => GateKind::Sdg,
        6 => GateKind::T,
        7 => GateKind::Tdg,
        8 => GateKind::Sx,
        9 => GateKind::Sxdg,
        10 => GateKind::P(d.f64("gate angle")?),
        11 => GateKind::Rx(d.f64("gate angle")?),
        12 => GateKind::Ry(d.f64("gate angle")?),
        13 => GateKind::Rz(d.f64("gate angle")?),
        14 => GateKind::Swap,
        tag => return Err(ArtifactError::BadTag { context: "gate", tag: u64::from(tag) }),
    })
}

fn encode_prim(e: &mut Encoder, prim: PrimitiveBasis) {
    e.u8(match prim {
        PrimitiveBasis::Std => 0,
        PrimitiveBasis::Pm => 1,
        PrimitiveBasis::Ij => 2,
        PrimitiveBasis::Fourier => 3,
    });
}

fn decode_prim(d: &mut Decoder<'_>) -> Result<PrimitiveBasis, ArtifactError> {
    Ok(match d.u8("primitive basis")? {
        0 => PrimitiveBasis::Std,
        1 => PrimitiveBasis::Pm,
        2 => PrimitiveBasis::Ij,
        3 => PrimitiveBasis::Fourier,
        tag => {
            return Err(ArtifactError::BadTag { context: "primitive basis", tag: u64::from(tag) })
        }
    })
}

fn encode_basis(e: &mut Encoder, basis: &Basis) {
    e.usize(basis.elements().len());
    for elem in basis.elements() {
        match elem {
            BasisElem::BuiltIn { prim, dim } => {
                e.u8(0);
                encode_prim(e, *prim);
                e.usize(*dim);
            }
            BasisElem::Literal(lit) => {
                e.u8(1);
                encode_prim(e, lit.prim());
                e.usize(lit.vectors().len());
                for vector in lit.vectors() {
                    encode_basis_vector(e, vector);
                }
            }
        }
    }
}

fn decode_basis(d: &mut Decoder<'_>) -> Result<Basis, ArtifactError> {
    let count = d.count(1, "basis elements")?;
    let mut elems = Vec::with_capacity(count);
    for _ in 0..count {
        let elem = match d.u8("basis element")? {
            0 => BasisElem::BuiltIn { prim: decode_prim(d)?, dim: d.usize("basis dim")? },
            1 => {
                let prim = decode_prim(d)?;
                let vector_count = d.count(1, "basis literal vectors")?;
                let mut vectors = Vec::with_capacity(vector_count);
                for _ in 0..vector_count {
                    vectors.push(decode_basis_vector(d)?);
                }
                let lit = BasisLiteral::new(prim, vectors)
                    .map_err(|_| ArtifactError::Invalid { context: "basis literal" })?;
                BasisElem::Literal(lit)
            }
            tag => {
                return Err(ArtifactError::BadTag { context: "basis element", tag: u64::from(tag) })
            }
        };
        elems.push(elem);
    }
    Ok(Basis::new(elems))
}

fn encode_basis_vector(e: &mut Encoder, vector: &BasisVector) {
    e.usize(vector.eigenbits.len());
    for bit in vector.eigenbits.iter() {
        e.bool(bit);
    }
    match &vector.phase {
        None => e.u8(0),
        Some(Phase::Const(theta)) => {
            e.u8(1);
            e.f64(*theta);
        }
        Some(Phase::Operand(k)) => {
            e.u8(2);
            e.u32(*k);
        }
    }
}

fn decode_basis_vector(d: &mut Decoder<'_>) -> Result<BasisVector, ArtifactError> {
    let bit_count = d.count(1, "eigenbits")?;
    let mut bits = Vec::with_capacity(bit_count);
    for _ in 0..bit_count {
        bits.push(d.bool("eigenbit")?);
    }
    let eigenbits = BitString::from_bits(bits);
    let phase = match d.u8("phase")? {
        0 => None,
        1 => Some(Phase::Const(d.f64("phase angle")?)),
        2 => Some(Phase::Operand(d.u32("phase operand")?)),
        tag => return Err(ArtifactError::BadTag { context: "phase", tag: u64::from(tag) }),
    };
    Ok(BasisVector { eigenbits, phase })
}

// ---------------------------------------------------------------------------
// Circuits and routing
// ---------------------------------------------------------------------------

/// Encodes a lowered circuit.
pub fn encode_circuit(e: &mut Encoder, circuit: &Circuit) {
    e.usize(circuit.num_qubits);
    e.usize(circuit.ops().len());
    for op in circuit.ops() {
        match op {
            CircuitOp::Gate { gate, controls, targets } => {
                e.u8(0);
                encode_gate(e, &gate);
                e.usize(controls.len());
                for c in controls {
                    e.usize(*c);
                }
                e.usize(targets.len());
                for t in targets {
                    e.usize(*t);
                }
            }
            CircuitOp::Measure { qubit, bit } => {
                e.u8(1);
                e.usize(qubit);
                e.usize(bit);
            }
            CircuitOp::Reset { qubit } => {
                e.u8(2);
                e.usize(qubit);
            }
        }
    }
}

/// The widest circuit [`decode_circuit`] accepts: 2^20 qubits, 16 times
/// the widest program the compile benches build. Circuit analyses size
/// per-qubit tables by the declared width, so an unchecked width from a
/// crafted file could ask for terabytes.
pub(crate) const MAX_CIRCUIT_QUBITS: usize = 1 << 20;

/// Decodes a lowered circuit, checking its width against
/// [`MAX_CIRCUIT_QUBITS`] and every op as [`Circuit::try_push`] does:
/// qubits in range, none repeated within a gate, and the gate's target
/// count.
pub(crate) fn decode_circuit(d: &mut Decoder<'_>) -> Result<Circuit, ArtifactError> {
    let num_qubits = d.usize("circuit qubits")?;
    if num_qubits > MAX_CIRCUIT_QUBITS {
        return Err(ArtifactError::Invalid { context: "circuit width above MAX_CIRCUIT_QUBITS" });
    }
    let op_count = d.count(1, "circuit ops")?;
    let mut circuit = Circuit::new(num_qubits);
    // One buffer for each gate's controls, then its targets.
    let mut qubits: Vec<usize> = Vec::new();
    for index in 0..op_count {
        let op = match d.u8("circuit op")? {
            0 => {
                let gate = decode_gate(d)?;
                qubits.clear();
                let control_count = d.count(8, "gate control list")?;
                for _ in 0..control_count {
                    qubits.push(d.usize("gate control")?);
                }
                let target_count = d.count(8, "gate target list")?;
                for _ in 0..target_count {
                    qubits.push(d.usize("gate target")?);
                }
                let (controls, targets) = qubits.split_at(control_count);
                CircuitOp::Gate { gate, controls, targets }
            }
            1 => CircuitOp::Measure {
                qubit: d.usize("measure qubit")?,
                bit: d.usize("measure bit")?,
            },
            2 => CircuitOp::Reset { qubit: d.usize("reset qubit")? },
            tag => {
                return Err(ArtifactError::BadTag { context: "circuit op", tag: u64::from(tag) })
            }
        };
        circuit.try_push(op).map_err(|error| ArtifactError::InvalidCircuitOp { index, error })?;
    }
    Ok(circuit)
}

/// Encodes routing telemetry.
pub(crate) fn encode_routing(e: &mut Encoder, info: &RoutingInfo) {
    e.str(&info.target);
    e.usize(info.initial_layout.len());
    for q in &info.initial_layout {
        e.usize(*q);
    }
    e.usize(info.final_layout.len());
    for q in &info.final_layout {
        e.usize(*q);
    }
    e.usize(info.swap_count);
    e.usize(info.unrouted_depth);
    e.usize(info.routed_depth);
    e.usize(info.unrouted_two_qubit_gates);
    e.usize(info.routed_two_qubit_gates);
    e.u64(info.routed_makespan);
}

/// Decodes routing telemetry.
pub(crate) fn decode_routing(d: &mut Decoder<'_>) -> Result<RoutingInfo, ArtifactError> {
    let target = d.str("routing target")?;
    let initial_count = d.count(8, "initial layout")?;
    let mut initial_layout = Vec::with_capacity(initial_count);
    for _ in 0..initial_count {
        initial_layout.push(d.usize("initial layout entry")?);
    }
    let final_count = d.count(8, "final layout")?;
    let mut final_layout = Vec::with_capacity(final_count);
    for _ in 0..final_count {
        final_layout.push(d.usize("final layout entry")?);
    }
    Ok(RoutingInfo {
        target,
        initial_layout,
        final_layout,
        swap_count: d.usize("swap count")?,
        unrouted_depth: d.usize("unrouted depth")?,
        routed_depth: d.usize("routed depth")?,
        unrouted_two_qubit_gates: d.usize("unrouted 2q gates")?,
        routed_two_qubit_gates: d.usize("routed 2q gates")?,
        routed_makespan: d.u64("routed makespan")?,
    })
}

// ---------------------------------------------------------------------------
// Pass statistics and diagnostics
// ---------------------------------------------------------------------------

/// Encodes per-pass timing and change statistics (durations as
/// nanoseconds, saturating at `u64::MAX`).
pub fn encode_stats(e: &mut Encoder, stats: &asdf_ir::PassStatistics) {
    e.usize(stats.passes.len());
    for pass in &stats.passes {
        e.str(&pass.name);
        e.u64(u64::try_from(pass.duration.as_nanos()).unwrap_or(u64::MAX));
        e.usize(pass.changes);
        e.usize(pass.detail.len());
        for (name, count) in &pass.detail {
            e.str(name);
            e.usize(*count);
        }
    }
}

/// Decodes per-pass statistics.
pub fn decode_stats(d: &mut Decoder<'_>) -> Result<asdf_ir::PassStatistics, ArtifactError> {
    let pass_count = d.count(1, "pass stats")?;
    let mut passes = Vec::with_capacity(pass_count);
    for _ in 0..pass_count {
        let name = d.str("pass name")?;
        let duration = Duration::from_nanos(d.u64("pass duration")?);
        let changes = d.usize("pass changes")?;
        let detail_count = d.count(1, "pass detail")?;
        let mut detail = Vec::with_capacity(detail_count);
        for _ in 0..detail_count {
            let key = d.str("detail key")?;
            let count = d.usize("detail count")?;
            detail.push((key, count));
        }
        passes.push(asdf_ir::PassStat { name, duration, changes, detail });
    }
    Ok(asdf_ir::PassStatistics { passes })
}

/// Encodes lint/compile diagnostics.
pub(crate) fn encode_lints(e: &mut Encoder, lints: &[Diagnostic]) {
    e.usize(lints.len());
    for diag in lints {
        e.str(diag.code);
        e.u8(match diag.severity {
            Severity::Error => 0,
            Severity::Warning => 1,
            Severity::Note => 2,
        });
        e.str(&diag.message);
        e.usize(diag.labels.len());
        for label in &diag.labels {
            e.usize(label.span.start);
            e.usize(label.span.end);
            e.str(&label.message);
        }
        e.usize(diag.notes.len());
        for note in &diag.notes {
            e.str(note);
        }
    }
}

/// Decodes diagnostics, interning codes against
/// [`KNOWN_DIAGNOSTIC_CODES`].
pub(crate) fn decode_lints(d: &mut Decoder<'_>) -> Result<Vec<Diagnostic>, ArtifactError> {
    let count = d.count(1, "diagnostics")?;
    let mut lints = Vec::with_capacity(count);
    for _ in 0..count {
        let code = intern_code(&d.str("diagnostic code")?)?;
        let severity = match d.u8("diagnostic severity")? {
            0 => Severity::Error,
            1 => Severity::Warning,
            2 => Severity::Note,
            tag => {
                return Err(ArtifactError::BadTag {
                    context: "diagnostic severity",
                    tag: u64::from(tag),
                })
            }
        };
        let message = d.str("diagnostic message")?;
        let label_count = d.count(1, "diagnostic labels")?;
        let mut labels = Vec::with_capacity(label_count);
        for _ in 0..label_count {
            let start = d.usize("label start")?;
            let end = d.usize("label end")?;
            let message = d.str("label message")?;
            labels.push(Label { span: Span { start, end }, message });
        }
        let note_count = d.count(1, "diagnostic notes")?;
        let mut notes = Vec::with_capacity(note_count);
        for _ in 0..note_count {
            notes.push(d.str("diagnostic note")?);
        }
        lints.push(Diagnostic { code, severity, message, labels, notes });
    }
    Ok(lints)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Artifact;
    use asdf_ir::{FuncBuilder, PassStatistics};
    use asdf_qcircuit::CircuitError;

    /// `f(cond: i1) -> f64`: op 1 is a lambda returning its captured
    /// constant, op 2 an `scf.if` yielding one of two constants.
    fn region_module() -> Module {
        let ty = FuncType::new(vec![Type::I1], vec![Type::F64], false);
        let mut b = FuncBuilder::new("f", ty, Visibility::Public);
        let cond = b.args()[0];
        let mut bb = b.block();
        let c = bb.push(OpKind::ConstF64 { value: 0.5 }, vec![], vec![Type::F64]);
        let lambda_ty = FuncType::new(vec![], vec![Type::F64], false);
        let body = bb.subblock(vec![Type::F64], |sb| {
            let captured = sb.args()[0];
            sb.push(OpKind::Return, vec![captured], vec![]);
        });
        bb.push_with_regions(
            OpKind::Lambda { func_ty: lambda_ty.clone() },
            c,
            vec![Type::func(lambda_ty)],
            vec![body],
        );
        let branches = [1.0, 2.0].map(|value| {
            bb.subblock(vec![], |sb| {
                let v = sb.push(OpKind::ConstF64 { value }, vec![], vec![Type::F64]);
                sb.push(OpKind::Yield, v, vec![]);
            })
        });
        let r = bb.push_with_regions(OpKind::ScfIf, vec![cond], vec![Type::F64], branches.into());
        bb.push(OpKind::Return, r, vec![]);
        let mut module = Module::default();
        module.add_func(b.finish());
        module
    }

    /// `module` encoded with region `region` of op `op` written as a block
    /// count of `blocks` followed by that many copies of its block.
    fn encode_with_block_count(
        module: &Module,
        op: usize,
        region: usize,
        blocks: usize,
    ) -> Vec<u8> {
        let block = &module.funcs()[0].body.ops[op].regions[region];
        let mut e = Encoder::new();
        encode_region(&mut e, block);
        let region_bytes = e.into_bytes();
        let mut e = Encoder::new();
        encode_module(&mut e, module);
        let bytes = e.into_bytes();
        let mut at = (0..bytes.len()).filter(|&i| bytes[i..].starts_with(&region_bytes));
        let start = at.next().expect("the region is encoded");
        assert_eq!(at.next(), None, "the region's bytes are unique");
        let mut e = Encoder::new();
        e.raw(&bytes[..start]);
        e.usize(blocks);
        for _ in 0..blocks {
            encode_block(&mut e, block);
        }
        e.raw(&bytes[start + region_bytes.len()..]);
        e.into_bytes()
    }

    #[test]
    fn regions_of_other_than_one_block_are_rejected() {
        let module = region_module();
        let artifact = Artifact {
            entry: "f".into(),
            module: Module::default(),
            circuit: None,
            routing: None,
            stats: PassStatistics::new(),
            lints: vec![],
            key: vec![],
        };
        let mut e = Encoder::new();
        encode_module(&mut e, &module);
        let clean = e.into_bytes();
        decode_module(&mut Decoder::new(&clean)).expect("one block per region decodes");
        let expected =
            ArtifactError::Invalid { context: "region block count (a region is one block)" };
        // The lambda's region, then the `scf.if`'s then and else regions.
        for (op, region) in [(1, 0), (2, 0), (2, 1)] {
            assert_eq!(encode_with_block_count(&module, op, region, 1), clean);
            for blocks in [0, 2] {
                let bytes = encode_with_block_count(&module, op, region, blocks);
                let err = decode_module(&mut Decoder::new(&bytes)).unwrap_err();
                assert_eq!(err, expected, "op {op}, region {region}, {blocks} blocks");
                assert_eq!(err.code(), "E0106");
                let err = Artifact::decode(&artifact.encode_around(bytes)).unwrap_err();
                assert_eq!(err, expected, "op {op}, region {region}, {blocks} blocks");
            }
        }
    }

    /// `CX(0 -> 1); measure q0 -> c0; reset q1` on two qubits, encoded. Byte
    /// offsets: the CX's gate tag at 17, its control at 26 and its target
    /// at 42; the measured qubit at 51; the reset qubit at 68.
    fn encoded() -> Vec<u8> {
        let mut circuit = Circuit::new(2);
        circuit.gate(GateKind::X, &[0], &[1]);
        circuit.measure(0, 0);
        circuit.reset(1);
        let mut e = Encoder::new();
        encode_circuit(&mut e, &circuit);
        let bytes = e.into_bytes();
        let decoded = decode_circuit(&mut Decoder::new(&bytes)).expect("clean bytes decode");
        assert_eq!(decoded, circuit);
        bytes
    }

    /// Decodes the circuit with the 8-byte word at `offset` set to `value`.
    fn decode_patched(offset: usize, value: u64) -> Result<Circuit, ArtifactError> {
        let mut bytes = encoded();
        bytes[offset..offset + 8].copy_from_slice(&value.to_le_bytes());
        decode_circuit(&mut Decoder::new(&bytes))
    }

    #[test]
    fn out_of_range_gate_qubits_are_rejected() {
        assert_eq!(
            decode_patched(42, 5),
            Err(ArtifactError::InvalidCircuitOp {
                index: 0,
                error: CircuitError::QubitOutOfRange { qubit: 5 }
            })
        );
    }

    #[test]
    fn repeated_gate_qubits_are_rejected() {
        assert_eq!(
            decode_patched(26, 1),
            Err(ArtifactError::InvalidCircuitOp {
                index: 0,
                error: CircuitError::DuplicateQubit { qubit: 1 }
            })
        );
    }

    #[test]
    fn wrong_target_counts_are_rejected() {
        // The CX becomes a controlled SWAP with a single target.
        let mut bytes = encoded();
        bytes[17] = 14;
        let err = decode_circuit(&mut Decoder::new(&bytes)).unwrap_err();
        assert_eq!(
            err,
            ArtifactError::InvalidCircuitOp {
                index: 0,
                error: CircuitError::TargetArity { gate: GateKind::Swap, targets: 1 }
            }
        );
        assert_eq!(err.code(), "E0106");
        assert!(err.to_string().contains("circuit op 0: target arity for"), "{err}");
    }

    #[test]
    fn widths_above_the_bound_are_rejected() {
        let err = decode_patched(0, 1 << 40).unwrap_err();
        assert_eq!(
            err,
            ArtifactError::Invalid { context: "circuit width above MAX_CIRCUIT_QUBITS" }
        );
        assert_eq!(err.code(), "E0106");
        let widest =
            decode_patched(0, MAX_CIRCUIT_QUBITS as u64).expect("the bound itself decodes");
        assert_eq!(widest.num_qubits, MAX_CIRCUIT_QUBITS);
    }

    #[test]
    fn out_of_range_measure_and_reset_qubits_are_rejected() {
        assert_eq!(
            decode_patched(51, 2),
            Err(ArtifactError::InvalidCircuitOp {
                index: 1,
                error: CircuitError::QubitOutOfRange { qubit: 2 }
            })
        );
        assert_eq!(
            decode_patched(68, 7),
            Err(ArtifactError::InvalidCircuitOp {
                index: 2,
                error: CircuitError::QubitOutOfRange { qubit: 7 }
            })
        );
    }
}
