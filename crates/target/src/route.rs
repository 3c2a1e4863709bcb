//! Basis translation and SWAP-insertion routing.
//!
//! Routing happens in two stages. First the circuit is *translated* into
//! the native set — `asdf_qcircuit::decompose` (Selinger style) lowers
//! multi-controlled gates to {1q, CX, CZ, SWAP}, and a local pass here
//! finishes the job (CZ becomes H·CX·H, SWAP becomes three CX). Then the
//! router walks the native circuit keeping a logical→physical map and its
//! inverse: 1q gates, measurements, and resets are emitted wherever their
//! logical qubit currently lives, and each CX whose endpoints are not coupled
//! triggers greedy SWAP insertion — always a swap that strictly shrinks
//! the endpoints' distance (guaranteeing termination on a connected
//! graph), tie-broken by a geometrically decayed lookahead score over the
//! next few pending two-qubit gates, in the style of SABRE/quilc.

use crate::gateset::{GateCosts, NativeGateSet};
use crate::layout::initial_layout;
use crate::schedule::asap;
use crate::topology::CouplingGraph;
use asdf_ir::GateKind;
use asdf_qcircuit::decompose::decompose;
use asdf_qcircuit::{Circuit, CircuitOp, DecomposeStyle};

/// How many pending two-qubit gates the SWAP heuristic looks ahead over.
const LOOKAHEAD: usize = 5;
/// Per-step geometric decay of lookahead weight.
const DECAY: f64 = 0.5;
/// A physical wire that holds no logical qubit.
const FREE: usize = usize::MAX;

/// Where logical qubits live before and after routing, plus cost metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutingInfo {
    /// The target this was routed for.
    pub target: String,
    /// `initial_layout[logical] = physical` wire holding that qubit at
    /// circuit start (covers translation ancillas too).
    pub initial_layout: Vec<usize>,
    /// `final_layout[logical] = physical` wire holding it at circuit end.
    pub final_layout: Vec<usize>,
    /// SWAPs inserted (each costs three CX).
    pub swap_count: usize,
    /// Depth of the translated, still all-to-all circuit.
    pub unrouted_depth: usize,
    /// Depth after routing.
    pub routed_depth: usize,
    /// Two-qubit gates before routing.
    pub unrouted_two_qubit_gates: usize,
    /// Two-qubit gates after routing.
    pub routed_two_qubit_gates: usize,
    /// Cost-weighted ASAP makespan of the routed circuit.
    pub routed_makespan: u64,
}

/// A routed circuit and the bookkeeping that makes it checkable.
#[derive(Debug, Clone, PartialEq)]
pub struct Routed {
    /// The circuit, on `target.num_qubits()` wires, using only native
    /// gates on coupled pairs.
    pub circuit: Circuit,
    /// Layouts and cost metrics.
    pub info: RoutingInfo,
}

/// Lowers `circuit` into the native set: 1q gates plus CX, all-to-all.
/// May append ancilla wires (multi-controlled gates decompose through
/// compute/uncompute chains).
pub fn translate_to_native(circuit: &Circuit) -> Circuit {
    let lowered = decompose(circuit, DecomposeStyle::Selinger);
    let mut out = Circuit::new(lowered.num_qubits);
    for op in lowered.ops() {
        match op {
            CircuitOp::Gate { gate: GateKind::Z, controls, targets } if controls.len() == 1 => {
                // CZ = H_t · CX · H_t.
                out.gate(GateKind::H, &[], &[targets[0]]);
                out.gate(GateKind::X, &[controls[0]], &[targets[0]]);
                out.gate(GateKind::H, &[], &[targets[0]]);
            }
            CircuitOp::Gate { gate: GateKind::Swap, controls: [], targets } => {
                emit_swap(&mut out, targets[0], targets[1]);
            }
            op => out.push(op),
        }
    }
    out
}

/// SWAP(a, b) as three CX.
fn emit_swap(out: &mut Circuit, a: usize, b: usize) {
    out.gate(GateKind::X, &[a], &[b]);
    out.gate(GateKind::X, &[b], &[a]);
    out.gate(GateKind::X, &[a], &[b]);
}

/// Routes an already-native `circuit` onto `graph`.
///
/// # Panics
///
/// Panics if the circuit is wider than the graph or contains non-native
/// ops — [`Target::route`](crate::Target::route) establishes both.
pub(crate) fn run(
    circuit: &Circuit,
    graph: &CouplingGraph,
    target_name: &str,
    costs: &GateCosts,
) -> Routed {
    let gates = NativeGateSet;
    debug_assert!(circuit.ops().all(|op| gates.admits(&op)), "router input must be native");
    let n_logical = circuit.num_qubits;
    let n_physical = graph.num_qubits();
    assert!(n_logical <= n_physical, "circuit wider than target");

    let mut l2p = initial_layout(circuit, graph);
    let initial_layout_snapshot = l2p.clone();
    // The inverse map: which logical qubit each physical wire holds.
    let mut p2l = vec![FREE; n_physical];
    for (l, &p) in l2p.iter().enumerate() {
        p2l[p] = l;
    }

    // Pending two-qubit gates, as logical pairs, for the lookahead score.
    let pending: Vec<(usize, (usize, usize))> = circuit
        .ops()
        .enumerate()
        .filter_map(|(i, op)| match op {
            CircuitOp::Gate { controls, targets, .. } if !controls.is_empty() => {
                Some((i, (controls[0], targets[0])))
            }
            _ => None,
        })
        .collect();
    let mut pending_cursor = 0usize;

    let mut out = Circuit::new(n_physical);
    let mut swap_count = 0usize;

    for (i, op) in circuit.ops().enumerate() {
        while pending_cursor < pending.len() && pending[pending_cursor].0 < i {
            pending_cursor += 1;
        }
        match op {
            CircuitOp::Gate { gate, controls: [], targets } => {
                out.gate(gate, &[], &[l2p[targets[0]]]);
            }
            CircuitOp::Gate { controls, targets, .. } => {
                let (c, t) = (controls[0], targets[0]);
                while graph.distance(l2p[c], l2p[t]) > 1 {
                    let (a, b) = best_swap(graph, &l2p, (c, t), &pending[pending_cursor..]);
                    emit_swap(&mut out, a, b);
                    swap_count += 1;
                    apply_swap(&mut l2p, &mut p2l, a, b);
                }
                out.gate(GateKind::X, &[l2p[c]], &[l2p[t]]);
            }
            CircuitOp::Measure { qubit, bit } => out.measure(l2p[qubit], bit),
            CircuitOp::Reset { qubit } => out.reset(l2p[qubit]),
        }
    }

    let info = RoutingInfo {
        target: target_name.to_string(),
        initial_layout: initial_layout_snapshot,
        final_layout: l2p,
        swap_count,
        unrouted_depth: circuit.depth(),
        routed_depth: out.depth(),
        unrouted_two_qubit_gates: circuit.two_qubit_gate_count(),
        routed_two_qubit_gates: out.two_qubit_gate_count(),
        routed_makespan: asap(&out, costs),
    };
    Routed { circuit: out, info }
}

/// Swaps the contents of physical wires `a` and `b`, either of which may
/// be [`FREE`], in both directions of the layout: O(1), no scan of `l2p`.
fn apply_swap(l2p: &mut [usize], p2l: &mut [usize], a: usize, b: usize) {
    p2l.swap(a, b);
    for p in [a, b] {
        if p2l[p] != FREE {
            l2p[p2l[p]] = p;
        }
    }
}

/// Picks the physical swap to insert for the blocked pair `(c, t)`.
///
/// Candidates are swaps of either endpoint's wire with a neighbor that
/// *strictly decrease* the endpoints' distance — at least one always
/// exists along a shortest path, so routing terminates. Ties are broken
/// by the decayed lookahead score over `pending` two-qubit gates, then by
/// wire index for determinism.
fn best_swap(
    graph: &CouplingGraph,
    l2p: &[usize],
    (c, t): (usize, usize),
    pending: &[(usize, (usize, usize))],
) -> (usize, usize) {
    let (pc, pt) = (l2p[c], l2p[t]);
    let current = graph.distance(pc, pt);
    let mut best: Option<((usize, usize), f64)> = None;
    for &endpoint in &[pc, pt] {
        let other = if endpoint == pc { pt } else { pc };
        for nb in graph.neighbors(endpoint) {
            if graph.distance(nb, other) >= current {
                continue;
            }
            let (a, b) = (endpoint.min(nb), endpoint.max(nb));
            let score = lookahead_score(graph, l2p, (a, b), pending);
            let better = match best {
                None => true,
                Some(((ba, bb), bs)) => {
                    score < bs - 1e-12 || ((score - bs).abs() <= 1e-12 && (a, b) < (ba, bb))
                }
            };
            if better {
                best = Some(((a, b), score));
            }
        }
    }
    best.expect("connected graph guarantees a distance-decreasing swap").0
}

/// Sum of decayed post-swap distances for upcoming two-qubit gates; lower
/// is better.
fn lookahead_score(
    graph: &CouplingGraph,
    l2p: &[usize],
    (a, b): (usize, usize),
    pending: &[(usize, (usize, usize))],
) -> f64 {
    let place = |q: usize| {
        let p = l2p[q];
        if p == a {
            b
        } else if p == b {
            a
        } else {
            p
        }
    };
    pending
        .iter()
        .take(LOOKAHEAD)
        .enumerate()
        .map(|(k, &(_, (x, y)))| DECAY.powi(k as i32) * graph.distance(place(x), place(y)) as f64)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gateset::GateCosts;

    fn cx(c: &mut Circuit, a: usize, b: usize) {
        c.gate(GateKind::X, &[a], &[b]);
    }

    #[test]
    fn translation_leaves_only_native_gates() {
        let mut c = Circuit::new(4);
        c.gate(GateKind::H, &[], &[0]);
        c.gate(GateKind::Z, &[0], &[1]);
        c.gate(GateKind::Swap, &[], &[1, 2]);
        c.gate(GateKind::X, &[0, 1], &[3]); // Toffoli
        let native = translate_to_native(&c);
        let gates = NativeGateSet;
        assert!(native.ops().all(|op| gates.admits(&op)), "{native}");
    }

    #[test]
    fn coupled_circuit_routes_without_swaps() {
        let mut c = Circuit::new(3);
        c.gate(GateKind::H, &[], &[0]);
        cx(&mut c, 0, 1);
        cx(&mut c, 1, 2);
        let g = CouplingGraph::linear(3);
        let routed = run(&c, &g, "linear-3", &GateCosts::default());
        assert_eq!(routed.info.swap_count, 0);
        assert_eq!(routed.info.routed_two_qubit_gates, 2);
    }

    #[test]
    fn distant_pair_inserts_swaps_and_tracks_layout() {
        // Heavy 0-1 and 2-3 interactions pin the layout into two coupled
        // pairs; the stray 0-3 CX then has to route across.
        let mut c = Circuit::new(4);
        cx(&mut c, 0, 3);
        cx(&mut c, 0, 1);
        cx(&mut c, 0, 1);
        cx(&mut c, 2, 3);
        cx(&mut c, 2, 3);
        let g = CouplingGraph::linear(4);
        let routed = run(&c, &g, "linear-4", &GateCosts::default());
        // Whatever the layout chose, the result must only use coupled CX.
        for op in routed.circuit.ops() {
            if let CircuitOp::Gate { controls, targets, .. } = op {
                if !controls.is_empty() {
                    assert!(g.coupled(controls[0], targets[0]), "uncoupled CX in {op:?}");
                }
            }
        }
        // Layout vectors are consistent injections.
        let mut seen = routed.info.final_layout.clone();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 4);
    }

    #[test]
    fn swap_updates_mapping() {
        let (mut l2p, mut p2l) = (vec![0, 1, 2], vec![0, 1, 2, FREE]);
        apply_swap(&mut l2p, &mut p2l, 1, 2);
        assert_eq!((&l2p[..], &p2l[..]), (&[0, 2, 1][..], &[0, 2, 1, FREE][..]));
        apply_swap(&mut l2p, &mut p2l, 0, 3); // 3 unoccupied: only 0 moves
        assert_eq!((&l2p[..], &p2l[..]), (&[3, 2, 1][..], &[FREE, 2, 1, 0][..]));
    }

    #[test]
    fn measurements_follow_their_qubit() {
        // CX(0,2) on linear-3 forces movement; the measurement of logical
        // 2 must land on whatever physical wire holds it afterwards.
        let mut c = Circuit::new(3);
        cx(&mut c, 0, 2);
        c.measure(2, 0);
        let g = CouplingGraph::linear(3);
        let routed = run(&c, &g, "linear-3", &GateCosts::default());
        let measured = routed
            .circuit
            .ops()
            .find_map(|op| match op {
                CircuitOp::Measure { qubit, bit } => Some((qubit, bit)),
                _ => None,
            })
            .expect("measurement survives routing");
        assert_eq!(measured, (routed.info.final_layout[2], 0));
    }

    #[test]
    fn metrics_report_depth_and_makespan() {
        let mut c = Circuit::new(4);
        cx(&mut c, 0, 1);
        cx(&mut c, 1, 2);
        cx(&mut c, 2, 3);
        let routed = run(&c, &CouplingGraph::linear(4), "linear-4", &GateCosts::default());
        assert_eq!(routed.info.unrouted_depth, 3);
        assert!(routed.info.routed_depth >= routed.info.unrouted_depth - 1);
        assert!(routed.info.routed_makespan >= 9, "three serial CX at cost 3 each");
    }
}
