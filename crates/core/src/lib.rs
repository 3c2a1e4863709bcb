//! The ASDF compiler core: the paper's primary contribution.
//!
//! This crate contains every Qwerty-specific compilation phase between the
//! typed AST and QCircuit-dialect IR:
//!
//! - [`lower`]: typed AST → Qwerty IR (§5.1), producing the pipeline of
//!   lambdas and `call_indirect`s the paper describes;
//! - `classical`: `@classical` function synthesis via logic networks and
//!   Bennett embeddings, including the `.sign` phase-oracle form (§6.4);
//! - `canon`: the §5.4 canonicalization patterns — lambda lifting,
//!   `call_indirect(func_const)` → `call`, folding `func_adj`/`func_pred`
//!   chains into call attributes, and the Appendix C `scf.if` pushdown;
//! - `adjoint`: taking the adjoint of basic blocks (§5.2) with
//!   stationary-op handling (Fig. 4);
//! - `predicate`: predicating basic blocks (§5.3), including the
//!   qubit-index dataflow analysis and swap-unswap cleanup (Fig. 5);
//! - `special`: function specialization analysis and generation (§6.2,
//!   Algorithm D5);
//! - `synth`: basis translation circuit synthesis (§6.3): Algorithm E6
//!   standardization, Algorithm E7 alignment, vector phases (Fig. 8), and
//!   transformation-based permutation synthesis (Fig. 9);
//! - `convert`: Qwerty IR → QCircuit IR dialect conversion (§6.1),
//!   emitting QIR-callable ops when inlining is disabled;
//! - [`passes`]: the above transformations wrapped as named
//!   [`asdf_ir::pass::Pass`]es;
//! - `compiler`: the end-to-end driver (Fig. 2), expressed as a
//!   declarative, instrumented pass pipeline.

#![deny(clippy::print_stdout, clippy::print_stderr)]
#![forbid(dead_code)]

pub(crate) mod adjoint;
pub(crate) mod canon;
pub(crate) mod classical;
pub(crate) mod compiler;
pub(crate) mod convert;
pub mod diskcache;
pub(crate) mod error;
pub(crate) mod gates;
pub mod lower;
pub mod passes;
pub(crate) mod predicate;
pub(crate) mod session;
pub(crate) mod special;
pub(crate) mod synth;

/// The result of compilation: the one compile artifact (paper §7) that
/// the session caches, returns, persists to its disk cache and revives
/// from it, and that the backends emit from. See
/// [`asdf_artifact::Artifact`] for its fields.
pub use asdf_artifact::Artifact as Compiled;
pub use asdf_ir::pass::PassStatistics;
pub use asdf_qcircuit::decompose::DecomposeStyle;
pub use compiler::{CompileOptions, Compiler};
pub use diskcache::DiskCache;
pub use error::CoreError;
pub use session::{CacheStats, CompileRequest, Session, SessionBuilder};
