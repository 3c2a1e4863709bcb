//! The Qwerty frontend: surface syntax, typed AST, dimension-variable
//! expansion, linear type checking, and AST canonicalization (§4 of the
//! ASDF paper).
//!
//! The published ASDF extracts `@qpu` / `@classical` Python functions via
//! the Python `ast` module and converts the untyped Python AST into a typed
//! Qwerty AST. This reproduction gives Qwerty a standalone text syntax that
//! maps 1:1 onto the same typed AST, so every downstream phase the paper
//! describes — expansion, type checking (including polynomial-time span
//! equivalence checking, §4.1), canonicalization (§4.2), and lowering —
//! operates exactly as published. Example program (Fig. 1):
//!
//! ```text
//! classical f[N](secret: bit[N], x: bit[N]) -> bit {
//!     (secret & x).xor_reduce()
//! }
//!
//! qpu kernel[N](f: cfunc[N, 1]) -> bit[N] {
//!     'p'[N] | f.sign | pm[N] >> std[N] | std[N].measure
//! }
//! ```
//!
//! Pipeline: [`parse::parse_program`] → [`expand::instantiate`] (dimension
//! variables inferred from captures and substituted; `f ** N` repetition
//! unrolled) → [`typecheck::typecheck_kernel`] (linear qubit types, basis
//! validation, span checking) → [`canon::canonicalize`] (the §4.2
//! rewrites) → the typed AST consumed by `asdf-core`.

#![deny(clippy::print_stdout, clippy::print_stderr)]
#![forbid(dead_code)]

pub mod ast;
pub mod canon;
pub mod diag;
pub mod dims;
pub(crate) mod error;
pub mod expand;
pub(crate) mod lex;
pub mod parse;
pub mod pretty;
pub mod tast;
pub mod typecheck;
pub mod types;

pub use diag::{Diagnostic, Span};
pub use error::FrontendError;
pub use expand::CaptureValue;
pub use tast::TClassical;
