//! A dense state-vector quantum simulator for validating ASDF-compiled
//! circuits.
//!
//! The published evaluation executes generated programs with qir-runner or
//! QIR-EE (§7); this crate is the local-simulation substrate of the
//! reproduction. It executes the straight-line [`Circuit`] form directly:
//! the same circuits that are emitted as OpenQASM 3 / QIR.
//!
//! Conventions: qubit 0 is the *leftmost* qubit of Qwerty literals and the
//! most significant bit of basis-state indices, matching `asdf-basis`
//! eigenbit order.
//!
//! The hot path is kernel-based: circuits are compiled once into fused,
//! mask-resolved [`KernelProgram`]s (`kernel`), applied with stride-based
//! pair enumeration instead of a scan-and-branch over all `2^n` amplitudes,
//! and unitary extraction applies the program to every basis column at once
//! (`batch`), optionally across a scoped thread pool.
//!
//! [`Circuit`]: asdf_qcircuit::Circuit

#![deny(clippy::print_stdout, clippy::print_stderr)]
#![forbid(dead_code)]

pub(crate) mod backend;
pub(crate) mod batch;
pub(crate) mod complex;
pub(crate) mod dynamic;
pub(crate) mod kernel;
pub mod run;
pub(crate) mod simd;
pub(crate) mod state;
pub mod trace;

pub use backend::SimBackend;
pub use batch::{batched_columns, batched_program_columns, batched_program_columns_threads};
pub use complex::Complex;
pub use dynamic::{run_dynamic, ArgValue, DynamicRun};
pub use kernel::{KernelOp, KernelProgram};
pub use run::{
    circuits_equivalent_up_to_output_permutation, columns_equivalent,
    measurement_distribution_threads, sample, sample_per_shot, unitary_of, Simulator,
};
pub use state::{checked_amplitude_count, StateVector, MAX_QUBITS};
