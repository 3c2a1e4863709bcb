//! Fault-tolerant resource estimation: the stand-in for the Azure Quantum
//! Resource Estimator used in §8.3.
//!
//! The paper's evaluation feeds optimized assembly into the Azure Quantum
//! Resource Estimator, "which estimates physical qubit count and runtime
//! for the circuit on fault-tolerant hardware", using "the default
//! estimation parameters, which model a [[338, 1, 13]] surface code with a
//! 5.2 µs cycle time". This crate implements a documented simplification of
//! that model with the same parameters:
//!
//! - **Logical qubits.** Algorithmic qubits `Q` (circuit registers) are
//!   padded for lattice-surgery routing with the fast-block-layout formula
//!   `L = 2Q + ceil(sqrt(8Q)) + 1` used by the Azure estimator.
//! - **Physical qubits.** `L * 338` (one \[\[338,1,13\]\] patch per logical
//!   qubit) plus one 15-to-1 T-factory footprint per active factory.
//! - **Runtime.** One logical cycle (5.2 µs) per circuit layer, where
//!   layers come from greedy per-qubit scheduling; non-Clifford rotations
//!   cost an extra synthesis latency of ~`ROTATION_T` cycles amortized.
//! - **T states.** `T`/`Tdg` gates count directly; arbitrary-angle
//!   rotations are synthesized at ~30 T each (the estimator's default
//!   1e-10 synthesis accuracy is in the tens of T).
//!
//! Absolute numbers differ from the authors' testbed; the *shape* —
//! which compiler needs more qubits or time, how costs scale with input
//! size — is what the Fig. 11/12 reproduction relies on.

#![deny(clippy::print_stdout, clippy::print_stderr)]
#![forbid(dead_code)]

use asdf_qcircuit::Circuit;

/// Surface-code model parameters (defaults match the paper's setup).
#[derive(Debug, Clone, PartialEq)]
pub struct SurfaceCodeParams {
    /// Code distance (13 for [[338, 1, 13]]).
    pub code_distance: usize,
    /// Physical qubits per logical patch (2 d^2 = 338 at d = 13).
    pub physical_per_logical: usize,
    /// Logical cycle time in microseconds.
    pub logical_cycle_us: f64,
    /// Physical qubits per 15-to-1 T factory at this distance.
    pub t_factory_physical: usize,
    /// Logical cycles per T-state a factory needs.
    pub t_factory_cycles: usize,
    /// Maximum T factories running in parallel.
    pub max_t_factories: usize,
    /// T gates per synthesized arbitrary rotation.
    pub t_per_rotation: usize,
}

impl Default for SurfaceCodeParams {
    fn default() -> Self {
        SurfaceCodeParams {
            code_distance: 13,
            physical_per_logical: 338,
            logical_cycle_us: 5.2,
            t_factory_physical: 3380,
            t_factory_cycles: 11,
            max_t_factories: 16,
            t_per_rotation: 30,
        }
    }
}

/// A resource estimate for one circuit.
#[derive(Debug, Clone, PartialEq)]
pub struct Estimate {
    /// Algorithmic (circuit) qubits.
    pub algorithmic_qubits: usize,
    /// Logical qubits after routing padding.
    pub logical_qubits: usize,
    /// Total physical qubits (patches + factories).
    pub physical_qubits: usize,
    /// Total T states consumed.
    pub t_states: usize,
    /// Number of T factories sized to keep up with demand.
    pub t_factories: usize,
    /// Logical depth in cycles.
    pub logical_depth: usize,
    /// Estimated runtime in microseconds.
    pub runtime_us: f64,
}

/// Estimates fault-tolerant resources for a circuit.
pub fn estimate(circuit: &Circuit, params: &SurfaceCodeParams) -> Estimate {
    let q = circuit.num_qubits.max(1);
    let logical_qubits = 2 * q + ((8 * q) as f64).sqrt().ceil() as usize + 1;

    let t_states = circuit.t_count() + circuit.rotation_count() * params.t_per_rotation;
    let base_depth = circuit.depth().max(1) + circuit.measure_count();

    // Size the factory farm so T production roughly keeps pace with the
    // algorithm; if even the max farm cannot keep up, the runtime stretches.
    let demand_per_cycle = t_states as f64 / base_depth as f64;
    let factories_needed = (demand_per_cycle * params.t_factory_cycles as f64).ceil() as usize;
    let t_factories =
        if t_states == 0 { 0 } else { factories_needed.clamp(1, params.max_t_factories) };
    let t_limited_depth = if t_factories == 0 {
        0
    } else {
        (t_states * params.t_factory_cycles).div_ceil(t_factories)
    };
    let logical_depth = base_depth.max(t_limited_depth);

    Estimate {
        algorithmic_qubits: q,
        logical_qubits,
        physical_qubits: logical_qubits * params.physical_per_logical
            + t_factories * params.t_factory_physical,
        t_states,
        t_factories,
        logical_depth,
        runtime_us: logical_depth as f64 * params.logical_cycle_us,
    }
}

/// The cost of compiling a circuit onto restricted hardware connectivity:
/// how many SWAPs routing inserted and how much deeper the routed circuit
/// is than its all-to-all counterpart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteOverhead {
    /// SWAPs the router inserted (each three CX).
    pub swap_count: usize,
    /// Depth of the unrouted (all-to-all, native-gate) circuit.
    pub unrouted_depth: usize,
    /// Depth after routing.
    pub routed_depth: usize,
}

impl RouteOverhead {
    /// Routed depth as a multiple of unrouted depth (1.0 = no overhead).
    pub fn depth_overhead(&self) -> f64 {
        if self.unrouted_depth == 0 {
            1.0
        } else {
            self.routed_depth as f64 / self.unrouted_depth as f64
        }
    }
}

impl std::fmt::Display for RouteOverhead {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} swaps, depth {} -> {} ({:.2}x)",
            self.swap_count,
            self.unrouted_depth,
            self.routed_depth,
            self.depth_overhead()
        )
    }
}

/// The routing overhead of `routed` relative to its all-to-all
/// counterpart `base`, given the router's reported SWAP count.
pub fn route_overhead(base: &Circuit, routed: &Circuit, swap_count: usize) -> RouteOverhead {
    RouteOverhead { swap_count, unrouted_depth: base.depth(), routed_depth: routed.depth() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asdf_ir::GateKind;

    fn clifford_chain(n: usize) -> Circuit {
        let mut c = Circuit::new(n);
        for i in 0..n.saturating_sub(1) {
            c.gate(GateKind::X, &[i], &[i + 1]);
        }
        c
    }

    #[test]
    fn scales_with_qubits() {
        let params = SurfaceCodeParams::default();
        let small = estimate(&clifford_chain(16), &params);
        let large = estimate(&clifford_chain(128), &params);
        assert!(large.physical_qubits > small.physical_qubits);
        assert!(large.runtime_us > small.runtime_us);
        // Physical qubits scale roughly linearly (routing padding is 2x+).
        assert!(large.logical_qubits >= 2 * 128);
    }

    #[test]
    fn t_gates_cost_factories_and_time() {
        let params = SurfaceCodeParams::default();
        let mut with_t = clifford_chain(4);
        for _ in 0..200 {
            with_t.gate(GateKind::T, &[], &[0]);
        }
        let without = estimate(&clifford_chain(4), &params);
        let with = estimate(&with_t, &params);
        assert_eq!(without.t_factories, 0);
        assert!(with.t_factories >= 1);
        assert!(with.physical_qubits > without.physical_qubits);
        assert!(with.runtime_us > without.runtime_us);
    }

    #[test]
    fn rotations_synthesize_to_t() {
        let params = SurfaceCodeParams::default();
        let mut c = Circuit::new(1);
        c.gate(GateKind::P(0.123), &[], &[0]);
        let e = estimate(&c, &params);
        assert_eq!(e.t_states, params.t_per_rotation);
    }

    #[test]
    fn route_overhead_reports_swaps_and_depth_ratio() {
        let mut base = Circuit::new(2);
        base.gate(GateKind::X, &[0], &[1]);
        let mut routed = base.clone();
        routed.gate(GateKind::X, &[0], &[1]); // a routed circuit twice as deep
        let o = route_overhead(&base, &routed, 1);
        assert_eq!(o.swap_count, 1);
        assert_eq!(o.unrouted_depth, 1);
        assert_eq!(o.routed_depth, 2);
        assert!((o.depth_overhead() - 2.0).abs() < 1e-12);
        assert_eq!(o.to_string(), "1 swaps, depth 1 -> 2 (2.00x)");
        // Degenerate empty baseline does not divide by zero.
        let empty = Circuit::new(1);
        assert!((route_overhead(&empty, &empty, 0).depth_overhead() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn matches_paper_magnitudes_for_bv_shape() {
        // A BV-like circuit at n = 128: H layer, CNOT chain, H layer.
        let params = SurfaceCodeParams::default();
        let mut c = Circuit::new(129);
        for i in 0..128 {
            c.gate(GateKind::H, &[], &[i]);
        }
        for i in 0..128 {
            c.gate(GateKind::X, &[i], &[128]);
        }
        for i in 0..128 {
            c.gate(GateKind::H, &[], &[i]);
        }
        for i in 0..128 {
            c.measure(i, i);
        }
        let e = estimate(&c, &params);
        // Fig. 12a tops out around 100-150 physical kiloqubits at n = 128.
        assert!(
            (50_000..300_000).contains(&e.physical_qubits),
            "physical qubits {} out of Fig. 12a magnitude",
            e.physical_qubits
        );
        // Fig. 11a tops out at several hundred microseconds.
        assert!(
            (100.0..5_000.0).contains(&e.runtime_us),
            "runtime {} us out of Fig. 11a magnitude",
            e.runtime_us
        );
    }
}
