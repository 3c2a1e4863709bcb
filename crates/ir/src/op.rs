//! Operations across the registered dialects.
//!
//! Qwerty dialect ops follow §5 ("Qwerty IR Operations"); QCircuit dialect
//! ops follow §6 ("QCircuit IR Operations"); `arith` and `scf` ops are the
//! MLIR built-ins the paper's examples use (Figs. 4, 5, C13).

use crate::block::Block;
use crate::gate::GateKind;
use crate::span::SrcSpan;
use crate::value::ValueList;
use asdf_basis::{Basis, Eigenstate, PrimitiveBasis};

/// The structured payload of an op: which operation it is, plus its
/// compile-time attributes.
#[derive(Debug, Clone, PartialEq)]
pub enum OpKind {
    // ------------------------------------------------------------------
    // Qwerty dialect (§5)
    // ------------------------------------------------------------------
    /// `qbprep prim<eigenstate>[dim]`: prepares a qbundle in the given
    /// primitive basis and eigenstate (e.g. `qbprep std<PLUS>[3]` is |000>).
    QbPrep {
        /// Primitive basis to prepare in.
        prim: PrimitiveBasis,
        /// Plus or minus eigenstate for every qubit.
        eigenstate: Eigenstate,
        /// Number of qubits.
        dim: usize,
    },
    /// `qbdiscard %qb`: resets each qubit and returns it to the ancilla
    /// pool.
    QbDiscard,
    /// `qbdiscardz %qb`: like `qbdiscard`, but assumes the qubits are |0>
    /// and skips the reset.
    QbDiscardZ,
    /// `qbtrans %qb by b_in >> b_out phases(...)`: the basis translation op.
    /// Operand 0 is the qbundle; remaining operands are `f64` phase angles
    /// referenced by `Phase::Operand` entries inside the bases.
    QbTrans {
        /// Input basis.
        basis_in: Basis,
        /// Output basis.
        basis_out: Basis,
    },
    /// `qbmeas %qb in b`: measures the qbundle in basis `b`, yielding a
    /// bitbundle.
    QbMeas {
        /// Measurement basis.
        basis: Basis,
    },
    /// `qbpack %q...`: packs N qubits into a `qbundle[N]`.
    QbPack,
    /// `qbunpack %qb`: destructures a `qbundle[N]` into N qubits.
    QbUnpack,
    /// `bitpack %b...`: packs N `i1`s into a `bitbundle[N]`.
    BitPack,
    /// `bitunpack %bb`: destructures a `bitbundle[N]` into N `i1`s.
    BitUnpack,
    /// `func_const @f`: materializes the function value for symbol `f`.
    FuncConst {
        /// Referenced function symbol.
        symbol: String,
    },
    /// `func_adj %f`: the adjoint (reversed) form of a reversible function
    /// value.
    FuncAdj,
    /// `func_pred b %f`: the form of `%f` predicated on basis `b`.
    FuncPred {
        /// Predicate basis.
        pred: Basis,
    },
    /// `call [adj] [pred(b)] @f(...)`: a direct call, optionally adjointed
    /// and/or predicated (§5).
    Call {
        /// Callee symbol.
        callee: String,
        /// Whether the adjoint specialization is called.
        adj: bool,
        /// Predicate basis, if this is a predicated call.
        pred: Option<Basis>,
    },
    /// `call_indirect %f(...)`: calls a function value. Operand 0 is the
    /// callee; the rest are arguments.
    CallIndirect,
    /// An anonymous function value. Operands are captured values; the
    /// single-block region's arguments are `captures ++ params`, and its
    /// terminator is `return`. Lambda lifting (§5.4 step 1) turns these
    /// into private funcs referenced by `func_const`.
    Lambda {
        /// The type of the produced function value.
        func_ty: crate::types::FuncType,
    },
    /// `return %v...`: function/lambda body terminator.
    Return,

    // ------------------------------------------------------------------
    // scf dialect (structured control flow; Appendix C)
    // ------------------------------------------------------------------
    /// `scf.if %cond`: two single-block regions (then, else), each
    /// terminated by `scf.yield`; results are the yielded values.
    ScfIf,
    /// `scf.yield %v...`: terminator of `scf.if` regions.
    Yield,

    // ------------------------------------------------------------------
    // arith dialect (classical scalars; stationary under adjoint, §5.2)
    // ------------------------------------------------------------------
    /// A constant `f64` (phase angles, Fig. 4).
    ConstF64 {
        /// The constant.
        value: f64,
    },
    /// A constant `i1`.
    ConstI1 {
        /// The constant.
        value: bool,
    },
    /// `arith.addf`.
    FAdd,
    /// `arith.subf`.
    FSub,
    /// `arith.mulf`.
    FMul,
    /// `arith.divf`.
    FDiv,
    /// `arith.negf`.
    FNeg,
    /// `arith.xori` on `i1`.
    XorI1,
    /// `arith.andi` on `i1`.
    AndI1,
    /// Logical not on `i1`.
    NotI1,

    // ------------------------------------------------------------------
    // QCircuit dialect (§6)
    // ------------------------------------------------------------------
    /// `qalloc`: allocates a qubit in |0>.
    QAlloc,
    /// `qfree %q`: resets and frees a qubit.
    QFree,
    /// `qfreez %q`: frees a qubit assumed to be |0>, skipping the reset.
    QFreeZ,
    /// `gate G [%c...] %t...`: a controlled gate. The first `num_controls`
    /// qubit operands are controls; the rest are targets. Yields the new
    /// state of every operand qubit.
    Gate {
        /// Which gate.
        gate: GateKind,
        /// How many leading operands are controls.
        num_controls: usize,
    },
    /// `measure %q`: standard-basis measurement, yielding the post-
    /// measurement qubit and an `i1` result.
    Measure,
    /// `arrpack %v...`: packs values into an `array<T>[N]`.
    ArrPack,
    /// `arrunpack %a`: destructures an `array<T>[N]`.
    ArrUnpack,
    /// Creates a callable value for symbol `f` (lowers to
    /// `__quantum__rt__callable_create`). Tracks whether adjoint/controlled
    /// metadata has been applied so QIR emission can pick the entry from the
    /// specialization table.
    CallableCreate {
        /// Referenced function symbol.
        symbol: String,
    },
    /// Marks a callable as adjointed (`__quantum__rt__callable_make_adjoint`).
    CallableAdjoint,
    /// Marks a callable as controlled on `extra` qubits
    /// (`__quantum__rt__callable_make_controlled`).
    CallableControl {
        /// Number of predicate qubits added.
        extra: usize,
    },
    /// Invokes a callable (`__quantum__rt__callable_invoke`). Operand 0 is
    /// the callable; the rest are arguments.
    CallableInvoke,
}

impl OpKind {
    /// Whether this kind terminates a block.
    pub(crate) fn is_terminator(&self) -> bool {
        matches!(self, OpKind::Return | OpKind::Yield)
    }

    /// Whether the op is a pure classical computation with no side effects,
    /// eligible for dead-code elimination and rematerialization during
    /// lambda lifting.
    pub fn is_pure_classical(&self) -> bool {
        matches!(
            self,
            OpKind::ConstF64 { .. }
                | OpKind::ConstI1 { .. }
                | OpKind::FAdd
                | OpKind::FSub
                | OpKind::FMul
                | OpKind::FDiv
                | OpKind::FNeg
                | OpKind::XorI1
                | OpKind::AndI1
                | OpKind::NotI1
                | OpKind::FuncConst { .. }
                | OpKind::FuncAdj
                | OpKind::FuncPred { .. }
                | OpKind::Lambda { .. }
                | OpKind::CallableCreate { .. }
                | OpKind::CallableAdjoint
                | OpKind::CallableControl { .. }
        )
    }

    /// A short mnemonic for printing and diagnostics.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            OpKind::QbPrep { .. } => "qwerty.qbprep",
            OpKind::QbDiscard => "qwerty.qbdiscard",
            OpKind::QbDiscardZ => "qwerty.qbdiscardz",
            OpKind::QbTrans { .. } => "qwerty.qbtrans",
            OpKind::QbMeas { .. } => "qwerty.qbmeas",
            OpKind::QbPack => "qwerty.qbpack",
            OpKind::QbUnpack => "qwerty.qbunpack",
            OpKind::BitPack => "qwerty.bitpack",
            OpKind::BitUnpack => "qwerty.bitunpack",
            OpKind::FuncConst { .. } => "qwerty.func_const",
            OpKind::FuncAdj => "qwerty.func_adj",
            OpKind::FuncPred { .. } => "qwerty.func_pred",
            OpKind::Call { .. } => "qwerty.call",
            OpKind::CallIndirect => "qwerty.call_indirect",
            OpKind::Lambda { .. } => "qwerty.lambda",
            OpKind::Return => "return",
            OpKind::ScfIf => "scf.if",
            OpKind::Yield => "scf.yield",
            OpKind::ConstF64 { .. } => "arith.constant",
            OpKind::ConstI1 { .. } => "arith.constant",
            OpKind::FAdd => "arith.addf",
            OpKind::FSub => "arith.subf",
            OpKind::FMul => "arith.mulf",
            OpKind::FDiv => "arith.divf",
            OpKind::FNeg => "arith.negf",
            OpKind::XorI1 => "arith.xori",
            OpKind::AndI1 => "arith.andi",
            OpKind::NotI1 => "arith.noti",
            OpKind::QAlloc => "qcirc.qalloc",
            OpKind::QFree => "qcirc.qfree",
            OpKind::QFreeZ => "qcirc.qfreez",
            OpKind::Gate { .. } => "qcirc.gate",
            OpKind::Measure => "qcirc.measure",
            OpKind::ArrPack => "qcirc.arrpack",
            OpKind::ArrUnpack => "qcirc.arrunpack",
            OpKind::CallableCreate { .. } => "qcirc.callable_create",
            OpKind::CallableAdjoint => "qcirc.callable_adjoint",
            OpKind::CallableControl { .. } => "qcirc.callable_control",
            OpKind::CallableInvoke => "qcirc.callable_invoke",
        }
    }
}

/// An operation: a kind plus SSA operands, results, and nested regions.
///
/// Operands and results are [`ValueList`]s: up to three of each live
/// inside the op, so most ops own no heap memory for them, as in MLIR.
/// Both dereference to `[Value]`. The constructors take anything that
/// converts into a list: a `Vec<Value>`, an array, a slice or another
/// list.
#[derive(Debug, Clone)]
pub struct Op {
    /// Which operation, with attributes.
    pub kind: OpKind,
    /// SSA operands, in dialect-defined order.
    pub operands: ValueList,
    /// SSA results.
    pub results: ValueList,
    /// Nested regions, one block each (`lambda` has one; `scf.if` has
    /// two: then and else).
    pub regions: Vec<Block>,
    /// Frontend source range this op was lowered from
    /// (`SrcSpan::UNKNOWN` for synthesized ops).
    pub span: SrcSpan,
}

/// Structural equality: spans are locations, not meaning, so two ops
/// differing only in span compare equal.
impl PartialEq for Op {
    fn eq(&self, other: &Self) -> bool {
        self.kind == other.kind
            && self.operands == other.operands
            && self.results == other.results
            && self.regions == other.regions
    }
}

impl Op {
    /// A region-free op.
    pub fn new(
        kind: OpKind,
        operands: impl Into<ValueList>,
        results: impl Into<ValueList>,
    ) -> Self {
        Op::with_regions(kind, operands, results, Vec::new())
    }

    /// An op with nested regions, one block each.
    pub fn with_regions(
        kind: OpKind,
        operands: impl Into<ValueList>,
        results: impl Into<ValueList>,
        regions: Vec<Block>,
    ) -> Self {
        Op {
            kind,
            operands: operands.into(),
            results: results.into(),
            regions,
            span: SrcSpan::UNKNOWN,
        }
    }

    /// The same op with a source span attached.
    #[must_use]
    pub(crate) fn with_span(mut self, span: SrcSpan) -> Self {
        self.span = span;
        self
    }

    /// Whether this op terminates its block.
    pub fn is_terminator(&self) -> bool {
        self.kind.is_terminator()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminators() {
        assert!(OpKind::Return.is_terminator());
        assert!(OpKind::Yield.is_terminator());
        assert!(!OpKind::QbPack.is_terminator());
    }

    #[test]
    fn pure_classification() {
        assert!(OpKind::ConstF64 { value: 1.0 }.is_pure_classical());
        assert!(OpKind::FuncConst { symbol: "f".into() }.is_pure_classical());
        assert!(!OpKind::QbPrep {
            prim: PrimitiveBasis::Std,
            eigenstate: Eigenstate::Plus,
            dim: 1
        }
        .is_pure_classical());
        assert!(!OpKind::Measure.is_pure_classical());
    }

    /// Operand and result lists live inside the op without growing it.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn op_size_is_unchanged_by_inline_lists() {
        assert_eq!(std::mem::size_of::<Op>(), 144);
    }
}
