//! An SSA intermediate-representation kernel standing in for the MLIR
//! framework in the ASDF compiler reproduction.
//!
//! The published ASDF implements two custom MLIR dialects — the *Qwerty
//! dialect* (§5) and the *QCircuit dialect* (§6) — alongside MLIR's built-in
//! `arith`, `scf`, and `func` dialects. Rust has no mature MLIR bindings, so
//! this crate rebuilds the required infrastructure:
//!
//! - [`Type`]s and structured op payloads ([`OpKind`]) for all five dialects,
//!   statically registered in one enum for exhaustive matching;
//! - [`Op`]s with operands and results (short [`ValueList`]s stored inside
//!   the op) and nested single-block [`Region`]s (used by `lambda` and
//!   `scf.if`);
//! - [`Func`]tions with a per-function SSA value arena and a single entry
//!   block (control flow is structured, as in the paper's pipeline);
//! - a [`Module`] of functions;
//! - a verifier enforcing op signatures **and qubit linearity** (each
//!   `qubit`/`qbundle` value used exactly once), mirroring Qwerty's linear
//!   type system at the IR level;
//! - a worklist-driven greedy rewrite engine ([`rewrite::GreedyRewriteDriver`])
//!   running [`rewrite::RewritePattern`]s through a [`rewrite::Rewriter`]
//!   handle to a fixpoint, with integrated classical dead-code elimination,
//!   per-pattern benefits, a [`rewrite::Fuel`] cutoff, and firing traces;
//! - an [`inline::Inliner`] with a specialization hook so the Qwerty-level
//!   adjoint/predication transforms (implemented in `asdf-core`) can run
//!   when `call adj`/`call pred` ops are inlined (§5.4);
//! - [`SrcSpan`]s stamped onto ops by lowering, so the lattice-based
//!   dataflow analyses in `asdf-analysis` (which subsumed this crate's old
//!   single-block `dataflow` module) can render caret diagnostics;
//! - a [`pass`] manager running declarative, instrumented pass pipelines
//!   (per-pass wall-clock timing, change counts, verify-after-each-pass),
//!   which the `asdf-core` driver uses to express the Fig. 2 pipeline.
//!
//! Quantum ops have no side effects; qubits flow through operations, making
//! dependencies explicit (§5). That dataflow style is what lets every
//! optimization here be simple DAG-to-DAG rewriting.

pub mod block;
pub mod clone;
pub mod error;
pub mod func;
pub mod gate;
pub mod inline;
pub mod module;
pub mod op;
pub mod pass;
pub mod print;
pub mod rewrite;
pub mod span;
pub mod types;
pub mod value;
pub mod verify;

pub use block::{Block, Region};
pub use error::IrError;
pub use func::{Func, FuncBuilder, Visibility};
pub use gate::GateKind;
pub use module::Module;
pub use op::{Op, OpKind};
pub use pass::{
    Fixpoint, Pass, PassError, PassManager, PassOutcome, PassResult, PassStat, PassStatistics,
};
pub use rewrite::{
    Fuel, GreedyRewriteDriver, PatternSet, RewriteConfig, RewritePattern, RewriteStats, Rewriter,
};
pub use span::SrcSpan;
pub use types::{FuncType, Type};
pub use value::{Value, ValueList};
