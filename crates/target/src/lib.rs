//! The hardware-target backend layer: compiling all-to-all circuits onto
//! devices with restricted qubit connectivity.
//!
//! The ASDF pipeline (§6–§7) stops at all-to-all OpenQASM/QIR; real
//! backends — the first-class compilation problem of quilc and OpenQL —
//! accept only two-qubit gates between *coupled* physical qubits,
//! expressed in a native gate set. This crate closes that gap:
//!
//! - `CouplingGraph` (`topology`) — which physical qubit pairs support
//!   a native two-qubit gate, with O(1) hop distances for the built-in
//!   families and a breadth-first all-pairs table for edge lists;
//! - [`Target`] (`target`) — a named device description (`linear-N`,
//!   `ring-N`, `grid-RxC`, or an explicit `edges:0-1,1-2,…` list) with a
//!   `NativeGateSet` and per-gate costs;
//! - `layout` — interaction-graph-driven initial placement (trivial
//!   identity layout as the fallback);
//! - [`route`] — basis translation into the native set (reusing the
//!   `asdf_qcircuit::decompose` machinery) followed by greedy
//!   distance-decreasing SWAP insertion with a lookahead window over
//!   pending two-qubit gates;
//! - `schedule` — an ASAP scheduler computing the routed circuit's
//!   cost-weighted makespan.
//!
//! The entry point is [`Target::route`]:
//!
//! ```
//! use asdf_ir::GateKind;
//! use asdf_qcircuit::Circuit;
//! use asdf_target::Target;
//!
//! // A triangle of interactions cannot embed in a path: some CX must
//! // route through a SWAP no matter how the qubits are placed.
//! let mut triangle = Circuit::new(3);
//! triangle.gate(GateKind::H, &[], &[0]);
//! triangle.gate(GateKind::X, &[0], &[1]);
//! triangle.gate(GateKind::X, &[1], &[2]);
//! triangle.gate(GateKind::X, &[0], &[2]);
//! let target = Target::parse("linear-3")?;
//! let routed = target.route(&triangle)?;
//! target.validate(&routed.circuit)?; // only native gates on coupled pairs
//! assert!(routed.info.swap_count >= 1);
//! # Ok::<(), asdf_target::TargetError>(())
//! ```
//!
//! Routing may leave logical qubits on *permuted* physical wires; the
//! [`RoutingInfo`] layouts say where each logical qubit starts
//! (`initial_layout`) and ends (`final_layout`), which is exactly what the
//! permutation-aware equivalence oracle in `asdf-sim` consumes.

#![deny(clippy::print_stdout, clippy::print_stderr)]
#![forbid(dead_code)]

pub(crate) mod gateset;
pub(crate) mod layout;
pub mod route;
pub(crate) mod schedule;
pub(crate) mod target;
pub(crate) mod topology;

pub use route::RoutingInfo;
pub(crate) use target::CAPACITY_MARKER;
pub use target::{edit_distance, Target, TargetError};

/// Whether a rendered compile error is a target *capacity* failure (the
/// circuit needs more qubits than the device has) rather than a
/// miscompilation. Differential harnesses use this to skip routed
/// configurations on oversized cases instead of reporting a divergence.
pub fn is_capacity_error(message: &str) -> bool {
    message.contains(CAPACITY_MARKER)
}
