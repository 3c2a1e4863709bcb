//! Basis translation circuit synthesis (§6.3).
//!
//! "The toughest challenge in lowering Qwerty IR to QCircuit IR is
//! synthesizing the quantum gates that achieve a basis translation. This is
//! the most novel part of Asdf." The synthesized circuit follows Fig. 6:
//!
//! ```text
//! standardize (uncond) → standardize (cond) → vector phases (left)
//!   → permute std basis vectors → vector phases (right)
//!   → destandardize (cond) → destandardize (uncond)
//! ```
//!
//! [`standardize`] implements Algorithm E6 (with the padding machinery for
//! inseparable Fourier bases, Fig. E14); [`align`](mod@align) implements Algorithm E7;
//! [`translate`] assembles the full circuit, using the
//! transformation-based synthesis of `asdf-logic` for the permutation core
//! and multi-controlled phase gates for vector phases (Fig. 8).

pub(crate) mod align;
pub(crate) mod standardize;
pub(crate) mod translate;
