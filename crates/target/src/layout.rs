//! Initial placement of logical qubits onto physical qubits.
//!
//! A good initial layout puts frequently-interacting logical qubits on
//! nearby physical qubits, so the router inserts fewer SWAPs. The
//! heuristic here is interaction-graph-driven: weight each logical pair
//! by how many two-qubit gates connect them, seed the heaviest logical
//! qubit at the best-connected physical node, then place the rest one at
//! a time where they minimize weighted distance to their already-placed
//! partners. Circuits with no two-qubit gates fall back to the trivial
//! identity layout.

use crate::topology::CouplingGraph;
use asdf_qcircuit::{Circuit, CircuitOp};

/// Chooses a physical qubit for each logical qubit of `circuit`.
///
/// Returns `layout` with `layout[logical] = physical`, a permutation-like
/// injection into `0..graph.num_qubits()`.
///
/// Each qubit keeps a sparse list of its interaction partners and a running
/// weight toward the qubits placed so far, so a placement costs one scan of
/// the unplaced qubits plus, per free physical qubit, a sum over the
/// placed partners: O(logical · (logical + physical · partners)) in all.
///
/// # Panics
///
/// Panics if the circuit is wider than the graph (capacity is checked by
/// [`Target::route`](crate::Target::route) before getting here).
pub(crate) fn initial_layout(circuit: &Circuit, graph: &CouplingGraph) -> Vec<usize> {
    let n_logical = circuit.num_qubits;
    let n_physical = graph.num_qubits();
    assert!(n_logical <= n_physical, "circuit wider than target");

    let partners = interaction_partners(circuit);
    if partners.iter().all(Vec::is_empty) {
        // Trivial fallback: no two-qubit structure to exploit.
        return (0..n_logical).collect();
    }

    let mut layout = vec![usize::MAX; n_logical];
    let mut used = vec![false; n_physical];
    // Each qubit's interaction weight toward the placed qubits.
    let mut placed_weight = vec![0u64; n_logical];
    // The next qubit's placed partners: (physical qubit, weight).
    let mut anchors: Vec<(usize, u64)> = Vec::new();

    // Seed: heaviest logical qubit onto the best-connected physical node.
    let mut l = (0..n_logical)
        .max_by_key(|&q| (partners[q].iter().map(|&(_, w)| w).sum::<u64>(), n_logical - q))
        .expect("a partner list is non-empty");
    let mut p = graph.max_degree_node();
    loop {
        layout[l] = p;
        used[p] = true;
        for &(m, w) in &partners[l] {
            placed_weight[m] += w;
        }
        // Greedy: place the unplaced logical qubit with the most
        // interaction weight toward placed ones, at the free physical node
        // minimizing weighted distance to its placed partners.
        let next = (0..n_logical)
            .filter(|&q| layout[q] == usize::MAX)
            .max_by_key(|&q| (placed_weight[q], n_logical - q));
        let Some(next) = next else { break };
        l = next;
        anchors.clear();
        anchors.extend(
            partners[l]
                .iter()
                .filter(|&&(m, _)| layout[m] != usize::MAX)
                .map(|&(m, w)| (layout[m], w)),
        );
        p = (0..n_physical)
            .filter(|&q| !used[q])
            .min_by_key(|&q| {
                let cost: u64 = anchors
                    .iter()
                    .map(|&(at, w)| w.saturating_mul(graph.distance(q, at) as u64))
                    .sum();
                (cost, q)
            })
            .expect("n_logical <= n_physical leaves a free node");
    }
    layout
}

/// `partners[a]` = `(b, weight)` for every `b` sharing a two-qubit gate
/// with `a`, ascending by `b`, where `weight` counts the gates touching
/// both.
fn interaction_partners(circuit: &Circuit) -> Vec<Vec<(usize, u64)>> {
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    for op in circuit.ops() {
        if let CircuitOp::Gate { controls, targets, .. } = op {
            let qubits = || controls.iter().chain(targets).copied();
            for (i, a) in qubits().enumerate() {
                for b in qubits().skip(i + 1) {
                    pairs.push((a, b));
                    pairs.push((b, a));
                }
            }
        }
    }
    pairs.sort_unstable();
    let mut partners: Vec<Vec<(usize, u64)>> = vec![Vec::new(); circuit.num_qubits];
    for (a, b) in pairs {
        match partners[a].last_mut() {
            Some((last, weight)) if *last == b => *weight += 1,
            _ => partners[a].push((b, 1)),
        }
    }
    partners
}

#[cfg(test)]
mod tests {
    use super::*;
    use asdf_ir::GateKind;
    use proptest::prelude::*;

    /// The dense-matrix layout the sparse one replaced, kept as the
    /// reference its placements must match.
    fn initial_layout_reference(circuit: &Circuit, graph: &CouplingGraph) -> Vec<usize> {
        let n_logical = circuit.num_qubits;
        let n_physical = graph.num_qubits();
        let mut weights = vec![vec![0u64; n_logical]; n_logical];
        for op in circuit.ops() {
            if let CircuitOp::Gate { .. } = op {
                let qubits: Vec<usize> = op.qubits().collect();
                for (i, &a) in qubits.iter().enumerate() {
                    for &b in &qubits[i + 1..] {
                        weights[a][b] += 1;
                        weights[b][a] += 1;
                    }
                }
            }
        }
        let total: u64 = weights.iter().flatten().sum();
        if total == 0 {
            return (0..n_logical).collect();
        }
        let mut layout = vec![usize::MAX; n_logical];
        let mut used = vec![false; n_physical];
        let seed = (0..n_logical)
            .max_by_key(|&l| (weights[l].iter().sum::<u64>(), n_logical - l))
            .unwrap();
        let hub = graph.max_degree_node();
        layout[seed] = hub;
        used[hub] = true;
        loop {
            let next = (0..n_logical).filter(|&l| layout[l] == usize::MAX).max_by_key(|&l| {
                let w: u64 = (0..n_logical)
                    .filter(|&m| layout[m] != usize::MAX)
                    .map(|m| weights[l][m])
                    .sum();
                (w, n_logical - l)
            });
            let Some(l) = next else { break };
            let best = (0..n_physical)
                .filter(|&p| !used[p])
                .min_by_key(|&p| {
                    let cost: u64 = (0..n_logical)
                        .filter(|&m| layout[m] != usize::MAX)
                        .map(|m| weights[l][m].saturating_mul(graph.distance(p, layout[m]) as u64))
                        .sum();
                    (cost, p)
                })
                .unwrap();
            layout[l] = best;
            used[best] = true;
        }
        layout
    }

    /// A random circuit of 1q, CX and Toffoli gates on `qubits` wires,
    /// drawn from `picks` (gate arity selector, then three wire picks).
    fn circuit_from(qubits: usize, picks: &[(usize, usize, usize, usize)]) -> Circuit {
        let mut c = Circuit::new(qubits);
        for &(arity, a, b, t) in picks {
            let a = a % qubits;
            let b = (a + 1 + b % (qubits - 1).max(1)) % qubits;
            let others: Vec<usize> = (0..qubits).filter(|&q| q != a && q != b).collect();
            match arity % 3 {
                0 => c.gate(GateKind::H, &[], &[a]),
                1 if qubits >= 2 => c.gate(GateKind::X, &[a], &[b]),
                2 if qubits >= 3 => c.gate(GateKind::X, &[a, b], &[others[t % others.len()]]),
                _ => c.gate(GateKind::T, &[], &[a]),
            }
        }
        c
    }

    /// A connected graph on `n` nodes: a random spanning tree plus extra
    /// random edges, as an `edges:` target would list them.
    fn edges_graph(n: usize, parents: &[usize], extra: &[(usize, usize)]) -> CouplingGraph {
        let mut edges: Vec<(usize, usize)> = (1..n).map(|q| (parents[q - 1] % q, q)).collect();
        for &(a, b) in extra {
            let (a, b) = (a % n, b % n);
            let (a, b) = (a.min(b), a.max(b));
            if a != b && !edges.contains(&(a, b)) {
                edges.push((a, b));
            }
        }
        CouplingGraph::from_edges(n, &edges).expect("deduplicated edges")
    }

    fn arb_graph(min_qubits: usize) -> impl Strategy<Value = CouplingGraph> {
        (
            0usize..4,
            min_qubits..=min_qubits + 8,
            proptest::collection::vec(0usize..64, 32),
            proptest::collection::vec((0usize..64, 0usize..64), 0..12),
        )
            .prop_map(move |(kind, n, parents, extra)| match kind {
                0 => CouplingGraph::linear(n.max(2)),
                1 => CouplingGraph::ring(n.max(3)),
                2 => {
                    let cols = 2 + n % 4;
                    CouplingGraph::grid(n.max(2).div_ceil(cols), cols)
                }
                _ => edges_graph(n.max(2), &parents, &extra),
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(500))]
        /// The sparse layout places every qubit where the dense reference
        /// does, on every builtin graph shape and on explicit edge lists.
        #[test]
        fn layout_matches_the_reference(
            (qubits, picks, graph) in (1usize..=24).prop_flat_map(|qubits| (
                Just(qubits),
                proptest::collection::vec((0usize..3, 0usize..64, 0usize..64, 0usize..64), 0..60),
                arb_graph(qubits),
            ))
        ) {
            let circuit = circuit_from(qubits, &picks);
            let layout = initial_layout(&circuit, &graph);
            prop_assert_eq!(layout, initial_layout_reference(&circuit, &graph));
        }
    }

    #[test]
    fn no_interactions_gives_identity_layout() {
        let mut c = Circuit::new(3);
        c.gate(GateKind::H, &[], &[0]);
        c.gate(GateKind::H, &[], &[2]);
        assert_eq!(initial_layout(&c, &CouplingGraph::linear(5)), vec![0, 1, 2]);
    }

    #[test]
    fn layout_is_an_injection() {
        let mut c = Circuit::new(4);
        c.gate(GateKind::X, &[0], &[3]);
        c.gate(GateKind::X, &[1], &[2]);
        c.gate(GateKind::X, &[0], &[3]);
        let layout = initial_layout(&c, &CouplingGraph::grid(2, 3));
        let mut seen = layout.clone();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 4, "no physical qubit reused: {layout:?}");
        assert!(layout.iter().all(|&p| p < 6));
    }

    #[test]
    fn interacting_pairs_land_adjacent() {
        // 0-3 interact heavily, 1-2 interact; on linear-4 each pair
        // should end up coupled, which the identity layout fails at.
        let mut c = Circuit::new(4);
        for _ in 0..3 {
            c.gate(GateKind::X, &[0], &[3]);
        }
        c.gate(GateKind::X, &[1], &[2]);
        let g = CouplingGraph::linear(4);
        let layout = initial_layout(&c, &g);
        assert_eq!(g.distance(layout[0], layout[3]), 1, "heavy pair coupled: {layout:?}");
        assert_eq!(g.distance(layout[1], layout[2]), 1, "light pair coupled: {layout:?}");
    }
}
