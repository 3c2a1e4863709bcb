//! QIR emission (§7): LLVM IR text in the Base and Unrestricted profiles.
//!
//! The Unrestricted Profile permits "the complete library of QIR intrinsics
//! and full generality of LLVM IR": dynamic qubit allocation
//! (`__quantum__rt__qubit_allocate`), callables (`callable_create` /
//! `callable_invoke`, with a static specialization table per function —
//! "Asdf is the first MLIR-based compiler to generate QIR callables"), and
//! branches for `scf.if`. The Base Profile "effectively amount\[s\] to a
//! straight-line sequence of gates embedded in LLVM IR" with `inttoptr`
//! qubit indices standing in for `qalloc`s.

use crate::push_decimal;
use asdf_ir::{Func, GateKind, IrError, Module, OpKind, Value};
use asdf_qcircuit::reg2mem::lower_to_circuit;
use asdf_qcircuit::{Circuit, CircuitOp};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Counts `(callable_create, callable_invoke)` intrinsic calls in QIR text
/// — the Table 1 metric ("the number of invocations of
/// `__quantum__rt__callable_create` and `__quantum__rt__callable_invoke`
/// ... in the LLVM assembly (QIR) produced by the compiler").
pub fn count_callable_intrinsics(qir: &str) -> (usize, usize) {
    let creates = qir.matches("@__quantum__rt__callable_create").count();
    let invokes = qir.matches("@__quantum__rt__callable_invoke").count();
    // Subtract the declarations themselves.
    let create_decls = qir
        .lines()
        .filter(|l| l.trim_start().starts_with("declare") && l.contains("callable_create"))
        .count();
    let invoke_decls = qir
        .lines()
        .filter(|l| l.trim_start().starts_with("declare") && l.contains("callable_invoke"))
        .count();
    (creates - create_decls, invokes - invoke_decls)
}

/// Emits Base Profile QIR for a fully-inlined entry function: a
/// straight-line gate sequence over `inttoptr` qubit indices.
///
/// # Errors
///
/// Returns [`IrError::Unsupported`] when the function is not straight-line.
pub(crate) fn module_to_qir_base(module: &Module, entry: &str) -> Result<String, IrError> {
    let func = module.expect_func(entry)?;
    let circuit = lower_to_circuit(func)?;
    Ok(circuit_to_base_qir(&circuit, entry))
}

fn circuit_to_base_qir(circuit: &Circuit, entry: &str) -> String {
    let mut out = String::new();
    out.push_str("; QIR: Base Profile\n");
    out.push_str("%Qubit = type opaque\n%Result = type opaque\n\n");
    let _ = writeln!(out, "define void @{entry}() #0 {{");
    out.push_str("entry:\n");
    // Rendered angles by bit pattern (see `circuit_to_qasm`).
    let mut angles: HashMap<u64, String> = HashMap::new();
    for op in circuit.ops() {
        match op {
            CircuitOp::Gate { gate, controls, targets } => {
                let (name, suffix) = gate_intrinsic(gate, controls.len());
                out.push_str("  call void @__quantum__qis__");
                out.push_str(name);
                out.push_str("__");
                out.push_str(suffix);
                out.push('(');
                let mut sep = "";
                if let Some(theta) = gate.param() {
                    out.push_str(
                        angles
                            .entry(theta.to_bits())
                            .or_insert_with(|| format!("double {theta:.15}")),
                    );
                    sep = ", ";
                }
                for &q in controls.iter().chain(targets) {
                    out.push_str(sep);
                    push_pointer(&mut out, "Qubit", q);
                    sep = ", ";
                }
                out.push_str(")\n");
            }
            CircuitOp::Measure { qubit, bit } => {
                out.push_str("  call void @__quantum__qis__mz__body(");
                push_pointer(&mut out, "Qubit", qubit);
                out.push_str(", ");
                push_pointer(&mut out, "Result", bit);
                out.push_str(")\n");
            }
            CircuitOp::Reset { qubit } => {
                out.push_str("  call void @__quantum__qis__reset__body(");
                push_pointer(&mut out, "Qubit", qubit);
                out.push_str(")\n");
            }
        }
    }
    for bit in 0..circuit.num_bits() {
        out.push_str("  call void @__quantum__rt__result_record_output(");
        push_pointer(&mut out, "Result", bit);
        out.push_str(", i8* null)\n");
    }
    out.push_str("  ret void\n}\n\n");
    let _ = writeln!(
        out,
        "attributes #0 = {{ \"entry_point\" \"qir_profiles\"=\"base_profile\" \"required_num_qubits\"=\"{}\" \"required_num_results\"=\"{}\" }}",
        circuit.num_qubits,
        circuit.num_bits()
    );
    out
}

/// Appends the Base Profile operand for qubit or result `index`:
/// `%<ty>* inttoptr (i64 <index> to %<ty>*)`.
fn push_pointer(out: &mut String, ty: &str, index: usize) {
    out.push('%');
    out.push_str(ty);
    out.push_str("* inttoptr (i64 ");
    push_decimal(out, index);
    out.push_str(" to %");
    out.push_str(ty);
    out.push_str("*)");
}

fn gate_intrinsic(gate: GateKind, num_controls: usize) -> (&'static str, &'static str) {
    let name = match gate {
        GateKind::X => "x",
        GateKind::Y => "y",
        GateKind::Z => "z",
        GateKind::H => "h",
        GateKind::S => "s",
        GateKind::Sdg => "s_adj",
        GateKind::T => "t",
        GateKind::Tdg => "t_adj",
        GateKind::Sx => "sx",
        GateKind::Sxdg => "sx_adj",
        GateKind::P(_) => "rzz_phase",
        GateKind::Rx(_) => "rx",
        GateKind::Ry(_) => "ry",
        GateKind::Rz(_) => "rz",
        GateKind::Swap => "swap",
    };
    let name = if matches!(gate, GateKind::P(_)) { "r1" } else { name };
    (name, if num_controls > 0 { "ctl" } else { "body" })
}

/// Emits Unrestricted Profile QIR for the whole module: every function,
/// dynamic qubit management, callables, and structured control flow as
/// branches.
///
/// # Errors
///
/// Returns [`IrError::Unsupported`] for constructs outside the emitter
/// (none are produced by the compiler pipeline).
pub(crate) fn module_to_qir_unrestricted(module: &Module) -> Result<String, IrError> {
    let mut out = String::new();
    out.push_str("; QIR: Unrestricted Profile\n");
    out.push_str("%Qubit = type opaque\n%Result = type opaque\n%Array = type opaque\n%Callable = type opaque\n%Tuple = type opaque\n\n");

    // Callable specialization tables: one per symbol referenced by a
    // callable_create (the §G machinery, with Q#'s argument mangling
    // removed as the paper requires).
    for func in module.funcs() {
        for path in func.block_paths() {
            for op in &func.block_at(&path).ops {
                if let OpKind::CallableCreate { symbol } = &op.kind {
                    let line = format!(
                        "@{symbol}__FunctionTable = internal constant [4 x void (%Tuple*, %Tuple*, %Tuple*)*] [void (%Tuple*, %Tuple*, %Tuple*)* @{symbol}__body__wrapper, void (%Tuple*, %Tuple*, %Tuple*)* @{symbol}__adj__wrapper, void (%Tuple*, %Tuple*, %Tuple*)* null, void (%Tuple*, %Tuple*, %Tuple*)* null]\n"
                    );
                    if !out.contains(&line) {
                        out.push_str(&line);
                    }
                }
            }
        }
    }
    out.push('\n');

    for func in module.funcs() {
        emit_func(&mut out, func)?;
    }

    out.push_str(
        "declare %Qubit* @__quantum__rt__qubit_allocate()\n\
         declare void @__quantum__rt__qubit_release(%Qubit*)\n\
         declare %Result* @__quantum__qis__m__body(%Qubit*)\n\
         declare void @__quantum__qis__reset__body(%Qubit*)\n\
         declare i1 @__quantum__rt__result_equal(%Result*, %Result*)\n\
         declare %Callable* @__quantum__rt__callable_create([4 x void (%Tuple*, %Tuple*, %Tuple*)*]*, [2 x void (%Tuple*, i32)*]*, %Tuple*)\n\
         declare void @__quantum__rt__callable_make_adjoint(%Callable*)\n\
         declare void @__quantum__rt__callable_make_controlled(%Callable*)\n\
         declare void @__quantum__rt__callable_invoke(%Callable*, %Tuple*, %Tuple*)\n\
         declare %Tuple* @__quantum__rt__tuple_create(i64)\n\
         declare %Array* @__quantum__rt__array_create_1d(i32, i64)\n",
    );
    Ok(out)
}

struct Emitter<'a> {
    out: &'a mut String,
    names: HashMap<Value, String>,
    next: usize,
    next_label: usize,
}

impl Emitter<'_> {
    fn name(&mut self, v: Value) -> String {
        if let Some(n) = self.names.get(&v) {
            return n.clone();
        }
        let n = format!("%v{}", self.next);
        self.next += 1;
        self.names.insert(v, n.clone());
        n
    }

    fn fresh(&mut self, hint: &str) -> String {
        let n = format!("%{hint}{}", self.next);
        self.next += 1;
        n
    }

    fn label(&mut self, hint: &str) -> String {
        let l = format!("{hint}{}", self.next_label);
        self.next_label += 1;
        l
    }
}

fn llvm_type(ty: &asdf_ir::Type) -> &'static str {
    match ty {
        asdf_ir::Type::Qubit => "%Qubit*",
        asdf_ir::Type::QBundle(_) | asdf_ir::Type::BitBundle(_) | asdf_ir::Type::Array(_, _) => {
            "%Array*"
        }
        asdf_ir::Type::Callable | asdf_ir::Type::Func(_) => "%Callable*",
        asdf_ir::Type::F64 => "double",
        asdf_ir::Type::I1 => "i1",
    }
}

fn emit_func(out: &mut String, func: &Func) -> Result<(), IrError> {
    let params: Vec<String> = func
        .body
        .args
        .iter()
        .enumerate()
        .map(|(i, v)| format!("{} %arg{i}", llvm_type(func.value_type(*v))))
        .collect();
    let ret_ty = match func.ty.results.as_slice() {
        [] => "void".to_string(),
        [one] => llvm_type(one).to_string(),
        _ => "%Tuple*".to_string(),
    };
    let _ = writeln!(out, "define {ret_ty} @{}({}) {{", func.name, params.join(", "));
    out.push_str("entry:\n");
    let mut emitter = Emitter { out, names: HashMap::new(), next: 0, next_label: 0 };
    for (i, v) in func.body.args.iter().enumerate() {
        emitter.names.insert(*v, format!("%arg{i}"));
    }
    emit_ops(&mut emitter, func, &func.body.ops)?;
    out.push_str("}\n\n");
    // Wrapper stubs for the callable table (body + adjoint entries).
    let _ = writeln!(
        out,
        "define internal void @{0}__body__wrapper(%Tuple* %capture, %Tuple* %args, %Tuple* %res) {{\n  ret void\n}}\n\ndefine internal void @{0}__adj__wrapper(%Tuple* %capture, %Tuple* %args, %Tuple* %res) {{\n  ret void\n}}\n",
        func.name
    );
    Ok(())
}

fn emit_ops(e: &mut Emitter<'_>, func: &Func, ops: &[asdf_ir::Op]) -> Result<(), IrError> {
    for op in ops {
        emit_op(e, func, op)?;
    }
    Ok(())
}

fn emit_op(e: &mut Emitter<'_>, func: &Func, op: &asdf_ir::Op) -> Result<(), IrError> {
    match &op.kind {
        OpKind::QAlloc => {
            let r = e.name(op.results[0]);
            let _ = writeln!(e.out, "  {r} = call %Qubit* @__quantum__rt__qubit_allocate()");
        }
        OpKind::QFree => {
            let q = e.name(op.operands[0]);
            let _ = writeln!(e.out, "  call void @__quantum__qis__reset__body(%Qubit* {q})");
            let _ = writeln!(e.out, "  call void @__quantum__rt__qubit_release(%Qubit* {q})");
        }
        OpKind::QFreeZ => {
            let q = e.name(op.operands[0]);
            let _ = writeln!(e.out, "  call void @__quantum__rt__qubit_release(%Qubit* {q})");
        }
        OpKind::Gate { gate, num_controls } => {
            let (name, suffix) = gate_intrinsic(*gate, *num_controls);
            let mut args: Vec<String> = Vec::new();
            if let Some(theta) = gate.param() {
                args.push(format!("double {theta:.15}"));
            }
            for operand in &op.operands {
                let q = e.name(*operand);
                args.push(format!("%Qubit* {q}"));
            }
            let _ = writeln!(
                e.out,
                "  call void @__quantum__qis__{name}__{suffix}({})",
                args.join(", ")
            );
            // Dataflow results alias their operands in QIR's mutable-qubit
            // model.
            for (operand, result) in op.operands.iter().zip(&op.results) {
                let alias = e.name(*operand);
                e.names.insert(*result, alias);
            }
        }
        OpKind::Measure => {
            let q = e.name(op.operands[0]);
            let r = e.fresh("m");
            let _ = writeln!(e.out, "  {r} = call %Result* @__quantum__qis__m__body(%Qubit* {q})");
            let b = e.name(op.results[1]);
            let _ = writeln!(
                e.out,
                "  {b} = call i1 @__quantum__rt__result_equal(%Result* {r}, %Result* null)"
            );
            let alias = e.name(op.operands[0]);
            e.names.insert(op.results[0], alias);
        }
        OpKind::QbPack | OpKind::BitPack | OpKind::ArrPack => {
            let r = e.name(op.results[0]);
            let _ = writeln!(
                e.out,
                "  {r} = call %Array* @__quantum__rt__array_create_1d(i32 8, i64 {})",
                op.operands.len()
            );
        }
        OpKind::QbUnpack | OpKind::BitUnpack | OpKind::ArrUnpack => {
            let a = e.name(op.operands[0]);
            for (i, result) in op.results.iter().enumerate() {
                let r = e.name(*result);
                let ty = llvm_type(func.value_type(*result));
                let _ = writeln!(
                    e.out,
                    "  {r} = call {ty} @__quantum__rt__array_get_element_ptr_1d(%Array* {a}, i64 {i})"
                );
            }
        }
        OpKind::CallableCreate { symbol } => {
            let r = e.name(op.results[0]);
            let _ = writeln!(
                e.out,
                "  {r} = call %Callable* @__quantum__rt__callable_create([4 x void (%Tuple*, %Tuple*, %Tuple*)*]* @{symbol}__FunctionTable, [2 x void (%Tuple*, i32)*]* null, %Tuple* null)"
            );
        }
        OpKind::CallableAdjoint => {
            let c = e.name(op.operands[0]);
            let _ = writeln!(
                e.out,
                "  call void @__quantum__rt__callable_make_adjoint(%Callable* {c})"
            );
            e.names.insert(op.results[0], c);
        }
        OpKind::CallableControl { .. } => {
            let c = e.name(op.operands[0]);
            let _ = writeln!(
                e.out,
                "  call void @__quantum__rt__callable_make_controlled(%Callable* {c})"
            );
            e.names.insert(op.results[0], c);
        }
        OpKind::CallableInvoke => {
            let c = e.name(op.operands[0]);
            let args = e.fresh("argtup");
            let _ = writeln!(
                e.out,
                "  {args} = call %Tuple* @__quantum__rt__tuple_create(i64 {})",
                op.operands.len() - 1
            );
            let res = e.fresh("restup");
            let _ = writeln!(
                e.out,
                "  {res} = call %Tuple* @__quantum__rt__tuple_create(i64 {})",
                op.results.len()
            );
            let _ = writeln!(
                e.out,
                "  call void @__quantum__rt__callable_invoke(%Callable* {c}, %Tuple* {args}, %Tuple* {res})"
            );
            for result in &op.results {
                let r = e.name(*result);
                let ty = llvm_type(func.value_type(*result));
                let _ = writeln!(
                    e.out,
                    "  {r} = call {ty} @__quantum__rt__tuple_get(%Tuple* {res}, i64 0)"
                );
            }
        }
        OpKind::Call { callee, .. } => {
            let args: Vec<String> = op
                .operands
                .iter()
                .map(|v| {
                    let n = e.name(*v);
                    format!("{} {n}", llvm_type(func.value_type(*v)))
                })
                .collect();
            match op.results.as_slice() {
                [] => {
                    let _ = writeln!(e.out, "  call void @{callee}({})", args.join(", "));
                }
                [result] => {
                    let r = e.name(*result);
                    let ty = llvm_type(func.value_type(*result));
                    let _ = writeln!(e.out, "  {r} = call {ty} @{callee}({})", args.join(", "));
                }
                _ => {
                    return Err(IrError::Unsupported(
                        "multi-result calls are not emitted".to_string(),
                    ))
                }
            }
        }
        OpKind::ScfIf => {
            // Structured control flow lowers to branches + phis.
            let cond = e.name(op.operands[0]);
            let then_label = e.label("then");
            let else_label = e.label("else");
            let merge_label = e.label("merge");
            let _ = writeln!(e.out, "  br i1 {cond}, label %{then_label}, label %{else_label}");
            let mut yields: Vec<(String, Vec<String>)> = Vec::new();
            for (block, label) in op.regions.iter().zip([&then_label, &else_label]) {
                let _ = writeln!(e.out, "{label}:");
                emit_ops(e, func, &block.ops[..block.ops.len() - 1])?;
                let terminator = block.ops.last().expect("region has terminator");
                let vals: Vec<String> = terminator.operands.iter().map(|v| e.name(*v)).collect();
                yields.push((label.clone(), vals));
                let _ = writeln!(e.out, "  br label %{merge_label}");
            }
            let _ = writeln!(e.out, "{merge_label}:");
            for (i, result) in op.results.iter().enumerate() {
                let r = e.name(*result);
                let ty = llvm_type(func.value_type(*result));
                let _ = writeln!(
                    e.out,
                    "  {r} = phi {ty} [ {}, %{} ], [ {}, %{} ]",
                    yields[0].1[i], yields[0].0, yields[1].1[i], yields[1].0
                );
            }
        }
        OpKind::ConstF64 { value } => {
            let r = e.name(op.results[0]);
            let _ = writeln!(e.out, "  {r} = fadd double 0.0, {value:.15}");
        }
        OpKind::ConstI1 { value } => {
            let r = e.name(op.results[0]);
            let _ = writeln!(e.out, "  {r} = add i1 0, {}", u8::from(*value));
        }
        OpKind::FAdd | OpKind::FSub | OpKind::FMul | OpKind::FDiv => {
            let instr = match op.kind {
                OpKind::FAdd => "fadd",
                OpKind::FSub => "fsub",
                OpKind::FMul => "fmul",
                _ => "fdiv",
            };
            let a = e.name(op.operands[0]);
            let b = e.name(op.operands[1]);
            let r = e.name(op.results[0]);
            let _ = writeln!(e.out, "  {r} = {instr} double {a}, {b}");
        }
        OpKind::Return => match op.operands.as_slice() {
            [] => e.out.push_str("  ret void\n"),
            [v] => {
                let ty = llvm_type(func.value_type(*v));
                let n = e.name(*v);
                let _ = writeln!(e.out, "  ret {ty} {n}");
            }
            _ => {
                return Err(IrError::Unsupported("multi-value returns are not emitted".to_string()))
            }
        },
        other => {
            return Err(IrError::Unsupported(format!(
                "op {} reached QIR emission",
                other.mnemonic()
            )))
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const BV_SRC: &str = r"
        classical f[N](secret: bit[N], x: bit[N]) -> bit {
            (secret & x).xor_reduce()
        }
        qpu kernel[N](f: cfunc[N, 1]) -> bit[N] {
            'p'[N] | f.sign | pm[N] >> std[N] | std[N].measure
        }
    ";

    fn bv_captures() -> Vec<asdf_ast::expand::CaptureValue> {
        vec![asdf_ast::expand::CaptureValue::CFunc {
            name: "f".into(),
            captures: vec![asdf_ast::expand::CaptureValue::bits_from_str("1010")],
        }]
    }

    #[test]
    fn base_profile_for_inlined_bv() {
        let compiled = asdf_core::Compiler::compile(
            BV_SRC,
            "kernel",
            &bv_captures(),
            &asdf_core::CompileOptions::default(),
        )
        .unwrap();
        let qir = module_to_qir_base(&compiled.module, "kernel").unwrap();
        assert!(qir.contains("base_profile"));
        assert!(qir.contains("inttoptr"));
        assert!(qir.contains("__quantum__qis__mz__body"));
        assert!(!qir.contains("callable_create"));
        let (c, i) = count_callable_intrinsics(&qir);
        assert_eq!((c, i), (0, 0), "Asdf (Opt) row of Table 1");
    }

    #[test]
    fn unrestricted_no_opt_emits_callables() {
        let compiled = asdf_core::Compiler::compile(
            BV_SRC,
            "kernel",
            &bv_captures(),
            &asdf_core::CompileOptions::no_opt(),
        )
        .unwrap();
        let qir = module_to_qir_unrestricted(&compiled.module).unwrap();
        let (creates, invokes) = count_callable_intrinsics(&qir);
        assert!(creates > 0, "Asdf (No Opt) creates callables");
        assert!(invokes > 0, "Asdf (No Opt) invokes callables");
        assert!(qir.contains("__FunctionTable"));
        assert!(qir.contains("qubit_allocate"));
    }

    #[test]
    fn unrestricted_opt_is_callable_free() {
        let compiled = asdf_core::Compiler::compile(
            BV_SRC,
            "kernel",
            &bv_captures(),
            &asdf_core::CompileOptions::default(),
        )
        .unwrap();
        let qir = module_to_qir_unrestricted(&compiled.module).unwrap();
        let (creates, invokes) = count_callable_intrinsics(&qir);
        assert_eq!((creates, invokes), (0, 0));
    }
}
