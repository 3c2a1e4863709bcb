//! Lattice-based dataflow analyses and lints over Qwerty/QCircuit IR.
//!
//! ASDF's IR is dataflow-first: qubits thread through ops as SSA values
//! and control flow is structured (`scf.if` regions), so dataflow analysis
//! needs no CFG solver — a program-order walk that descends into regions
//! and joins branch facts at each merge reaches a fixpoint in a couple of
//! passes. This crate packages that engine and the analyses built on it:
//!
//! - `framework`: the [`Fact`] join-semilattice trait, forward/backward
//!   [`Analysis`] transfer functions, dense [`FactMap`] storage, and the
//!   region-descending fixpoint driver [`analyze`];
//! - `index`: the §5.3 qubit-index analysis (which physical qubit each
//!   SSA value carries), used by predication to undo renaming permutations;
//! - `measure`: forward measurement discipline (is a wire provably
//!   post-measurement?);
//! - `liveness`: backward wire liveness (is a wire's state ever
//!   observed downstream?);
//! - `state`: forward abstract interpretation of computational-basis
//!   states for ancilla hygiene (provably |0⟩ / |1⟩ / unknown);
//! - `clifford`: Clifford / T-like / rotation gate classification and
//!   census;
//! - `commute`: commutation and cancellation facts between wire-adjacent
//!   gates;
//! - `lint`: the `asdf-lint` driver, turning definite analysis facts
//!   into `W0xxx`-coded [`asdf_ast::diag::Diagnostic`]s with source-span
//!   carets and `func:block:op` locations.
//!
//! The lints are sound by construction: they fire only on facts an
//! analysis proves definitely (never on "maybe" merges), so correct
//! programs — including every program in the differential-testing sweep —
//! produce zero warnings.

#![deny(clippy::print_stdout, clippy::print_stderr)]
#![forbid(dead_code)]

pub(crate) mod clifford;
pub(crate) mod commute;
pub(crate) mod framework;
pub(crate) mod index;
pub(crate) mod lint;
pub(crate) mod liveness;
pub(crate) mod measure;
pub(crate) mod state;

pub use clifford::{summarize_module, CliffordSummary};
pub use framework::{analyze, Analysis, Direction, Fact, FactMap};
pub use index::renaming_permutation;
pub use lint::{lint_module, LintOptions};
pub use liveness::{Liveness, LivenessAnalysis};
pub use measure::{MeasFact, MeasureAnalysis};
pub use state::{QState, StateAnalysis, StateFact};
