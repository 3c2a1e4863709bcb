//! Differential testing for the ASDF reproduction.
//!
//! The paper's central claim (§7) is that optimized and unoptimized
//! compilations of the same Qwerty program are *equivalent*. This crate
//! turns that claim into executable infrastructure, in the tradition of
//! Quilc's randomized equivalence checking:
//!
//! 1. [`gen`] — a seeded generator of well-typed Qwerty programs, built
//!    bottom-up over the AST so every emitted program typechecks by
//!    construction, covering basis translations, literals with phases,
//!    tensoring, predication, adjoints, repetition, dimension variables,
//!    and `.sign`/`.xor` classical embeds;
//! 2. [`driver`] — compiles each program under the full
//!    [`asdf_core::CompileOptions::matrix`] (Opt/No-Opt × peephole ×
//!    decomposition styles) and cross-checks all configuration pairs;
//! 3. `oracle` — exact unitary-column comparison for measurement-free
//!    programs (ancilla-subspace aware), exact or sampled distribution
//!    comparison for measuring programs, dynamic interpretation for
//!    configurations that keep callables;
//! 4. `shrink`/`report` — greedy minimization of failing cases into
//!    self-contained reproducers.
//!
//! Run a sweep from the command line:
//!
//! ```text
//! cargo run --release -p asdf-difftest --bin difftest -- --seed 42 --cases 500
//! ```

#![deny(clippy::print_stdout, clippy::print_stderr)]
#![forbid(dead_code)]

pub(crate) mod bisect;
pub mod driver;
pub mod gen;
pub(crate) mod oracle;
pub(crate) mod report;
pub(crate) mod shrink;

pub use bisect::{fuel_bisect, BisectFinding};
pub use driver::{CaseOutcome, Harness, SweepOptions};
pub use gen::{gen_case, GenCase, GenOptions, RenderedCase};
pub use oracle::{compare, extract, Comparison, OracleOptions, Semantics};
pub use report::Mismatch;
