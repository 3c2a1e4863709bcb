//! QCircuit-level machinery (§6, §6.5, §7 of the ASDF paper): the
//! straight-line [`Circuit`] form, the `reg2mem` conversion from SSA to
//! register accesses, gate-level peephole optimizations (including the
//! relaxed peephole of Fig. 10), and multi-controlled-gate decomposition
//! using Selinger's controlled-iX scheme.
//!
//! A [`Circuit`] is flat: one fixed-size record per op and one qubit
//! arena holding each gate's controls and then its targets. Consumers read
//! it through borrowed [`CircuitOp`] views and write it only through its
//! checked builder methods, so a circuit allocates per circuit, not per
//! gate.
//!
//! The pipeline position: `asdf-core` lowers Qwerty IR into QCircuit
//! dialect ops (defined in `asdf-ir`); [`peephole`] cleans redundancies
//! left by systematic lowering; [`reg2mem`] converts SSA values to
//! register indices "using a process akin to reg2mem in QSSA" (§7);
//! [`decompose`] rewrites multi-controlled gates for a fault-tolerant
//! gate set.

#![deny(clippy::print_stdout, clippy::print_stderr)]
#![forbid(dead_code)]

pub(crate) mod circuit;
pub mod decompose;
pub mod peephole;
pub mod reg2mem;

pub use circuit::{Circuit, CircuitError, CircuitOp};
pub use decompose::DecomposeStyle;
