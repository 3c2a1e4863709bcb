//! Classical logic networks and reversible-circuit synthesis: the in-Rust
//! substitutes for the mockturtle and tweedledum libraries ASDF builds on
//! (§6.3–§6.4 of the paper).
//!
//! Three pieces:
//!
//! - `xag`: XOR-AND-inverter graphs with the classical optimizations the
//!   paper gets from mockturtle (constant folding, structural hashing,
//!   operator flattening, dead-node elimination).
//! - [`embed`]: circuit construction for classically defined functions —
//!   the Bennett embedding `U_f |x>|y> = |x>|y XOR f(x)>` [5, 41]. The
//!   tweedledum-style embedding computes XOR chains *in place* (CNOTs, no
//!   ancillas) and spends one ancilla per AND node, which is exactly the
//!   behaviour §8.3 credits for beating Quipper's ancilla-per-operation
//!   oracles; the naive embedding reproduces the latter for the baseline.
//! - [`synth`]: transformation-based reversible synthesis
//!   (Miller–Maslov–Dueck \[33\], with the bidirectional refinement of
//!   Soeken et al. \[50\]) used to lower the *permutation* core of a basis
//!   translation (§6.3, Fig. 9).

#![deny(clippy::print_stdout, clippy::print_stderr)]
#![forbid(dead_code)]

pub mod embed;
pub(crate) mod gate;
pub(crate) mod perm;
pub mod synth;
pub(crate) mod xag;

pub use embed::EmbedStyle;
pub use gate::{McxGate, RevCircuit};
pub use perm::Permutation;
pub use xag::{Signal, Xag};
