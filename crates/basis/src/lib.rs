//! Quantum basis representation and span-equivalence checking for the Qwerty
//! language, reproducing §2.2, §4.1, and Appendix B of the ASDF paper
//! (Adams et al., CGO 2025).
//!
//! Every basis in Qwerty is grounded in four primitive bases ([`PrimitiveBasis`]):
//! `std` (the Z eigenbasis), `pm` (the X eigenbasis), `ij` (the Y eigenbasis),
//! and `fourier[N]` (the N-qubit Fourier basis). A [`Basis`] is a *canon form*:
//! a tensor-product sequence of [`BasisElem`]s, each either a built-in basis
//! (`pm[4]`) or a [`BasisLiteral`] (`{'110', '101'}`).
//!
//! The crate's centerpiece is [`span::check_span_equiv`], the polynomial-time
//! span-equivalence checker (Algorithm B1) built on basis *factoring*
//! (Algorithms B2–B4), which avoids the naive exponential expansion of
//! tensor-product bases.
//!
//! # Example
//!
//! ```
//! use asdf_basis::{Basis, span};
//!
//! // {'0','1'}[64] and {'1','0'}[64] both represent 2^64 vectors, yet span
//! // equivalence is decided in polynomial time.
//! let lhs: Basis = "{'0','1'}[64]".parse()?;
//! let rhs: Basis = "{'1','0'}[64]".parse()?;
//! span::check_span_equiv(&lhs, &rhs)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(clippy::print_stdout, clippy::print_stderr)]
#![forbid(dead_code)]

pub(crate) mod basis;
pub(crate) mod bits;
pub(crate) mod error;
pub(crate) mod literal;
pub(crate) mod parse;
pub(crate) mod prim;
pub mod span;
pub(crate) mod vector;

pub use basis::{Basis, BasisElem};
pub use bits::BitString;
pub use error::BasisError;
pub use literal::BasisLiteral;
pub use prim::{Eigenstate, PrimitiveBasis};
pub use vector::{BasisVector, Phase};
