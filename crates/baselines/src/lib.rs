//! Baseline circuit-oriented "compilers" and the shared post-optimizer for
//! the §8.3 evaluation.
//!
//! The paper compares ASDF against handwritten Qiskit, Quipper, and Q#
//! implementations of five benchmarks, normalized by running everything
//! through the Qiskit `-O3` transpiler before resource estimation. This
//! crate reproduces each baseline's *cost-relevant behaviour*:
//!
//! - [`BaselineStyle::Qiskit`]: textbook gate-level circuits; oracles
//!   written as gates; multi-controls decomposed with the full-Toffoli
//!   V-chain (no Selinger savings).
//! - [`BaselineStyle::QSharp`]: the same gate-level structure but with
//!   Selinger's controlled-iX decomposition — which is why "the Q# compiler
//!   and Asdf outperform other compilers significantly for Grover's".
//! - [`BaselineStyle::Quipper`]: oracles synthesized from classical logic
//!   with an ancilla per logic node ("Quipper's willingness to use ancilla
//!   qubits for XOR operations"), and renaming-based IQFT swaps instead of
//!   SWAP gates (§8.3's period-finding deviation).
//!
//! `transpiler` is the shared `-O3` stand-in applied uniformly to every
//! compiler's output, and [`qsharp_callables`] models the classic Q# QDK's
//! QIR-callable emission for Table 1.

#![deny(clippy::print_stdout, clippy::print_stderr)]
#![forbid(dead_code)]

pub(crate) mod benchmarks;
pub mod qsharp_callables;
pub(crate) mod transpiler;

pub use benchmarks::{build_circuit, BaselineStyle, Benchmark};
pub use transpiler::optimize;
