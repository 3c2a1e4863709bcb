//! Coupling graphs: the connectivity constraint of a hardware target.
//!
//! A [`CouplingGraph`] records which physical qubit pairs admit a native
//! two-qubit gate and answers the hop-distance queries the router makes
//! on every candidate SWAP. Hop distance is a property of the topology:
//! the built-in families compute it in O(1) and store nothing per qubit —
//! `|a−b|` on a line, the shorter arc on a ring, Manhattan distance on a
//! row-major grid. Only an explicit edge list keeps adjacency lists and an
//! all-pairs table, filled by breadth-first search from every node
//! (`O(n·(n+e))`).

use std::borrow::Cow;

/// Marks an unreachable pair in an edge list's distance table.
const UNREACHABLE: u32 = u32::MAX;

/// An undirected coupling graph over physical qubits `0..n`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CouplingGraph {
    num_qubits: usize,
    shape: Shape,
}

/// How the qubits of a [`CouplingGraph`] are coupled.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Shape {
    /// A path `0-1-…-(n-1)`.
    Linear,
    /// A cycle `0-1-…-(n-1)-0`, `n >= 3`.
    Ring,
    /// Rows of `cols` qubits in row-major order. The last row may be
    /// partial: the index prefix of a full grid is a grid too.
    Grid { cols: usize },
    /// An explicit edge list.
    Edges {
        /// The neighbors of each qubit, ascending.
        adj: Vec<Vec<usize>>,
        /// `dist[a * n + b]` = shortest-path hop count, [`UNREACHABLE`]
        /// if none.
        dist: Vec<u32>,
    },
}

impl CouplingGraph {
    /// Builds a graph from undirected edges. Self-loops, duplicate edges
    /// (in either orientation), and out-of-range endpoints are rejected.
    ///
    /// # Errors
    ///
    /// Returns a description of the offending edge.
    pub(crate) fn from_edges(num_qubits: usize, edges: &[(usize, usize)]) -> Result<Self, String> {
        let mut adj = vec![Vec::new(); num_qubits];
        for &(a, b) in edges {
            if a == b {
                return Err(format!("self-loop on qubit {a}"));
            }
            if a >= num_qubits || b >= num_qubits {
                return Err(format!("edge {a}-{b} out of range for {num_qubits} qubits"));
            }
            if adj[a].contains(&b) {
                return Err(format!("duplicate edge {a}-{b}"));
            }
            adj[a].push(b);
            adj[b].push(a);
        }
        for neighbors in &mut adj {
            neighbors.sort_unstable();
        }
        let dist = all_pairs_bfs(&adj);
        Ok(CouplingGraph { num_qubits, shape: Shape::Edges { adj, dist } })
    }

    /// A path `0-1-…-(n-1)`.
    pub(crate) fn linear(n: usize) -> Self {
        CouplingGraph { num_qubits: n, shape: Shape::Linear }
    }

    /// A cycle `0-1-…-(n-1)-0` (needs `n >= 3`).
    pub(crate) fn ring(n: usize) -> Self {
        assert!(n >= 3, "a ring needs at least 3 qubits");
        CouplingGraph { num_qubits: n, shape: Shape::Ring }
    }

    /// A `rows × cols` grid in row-major order (needs `cols >= 1`).
    pub(crate) fn grid(rows: usize, cols: usize) -> Self {
        assert!(cols >= 1, "a grid needs at least one column");
        CouplingGraph { num_qubits: rows * cols, shape: Shape::Grid { cols } }
    }

    /// Number of physical qubits.
    pub(crate) fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Undirected edges, each reported once with `a < b`, ascending.
    pub(crate) fn edges(&self) -> Vec<(usize, usize)> {
        (0..self.num_qubits)
            .flat_map(|a| self.neighbors(a).filter(move |&b| a < b).map(move |b| (a, b)))
            .collect()
    }

    /// The neighbors of `q`, ascending.
    pub(crate) fn neighbors(&self, q: usize) -> impl Iterator<Item = usize> + '_ {
        let n = self.num_qubits;
        let (listed, near): (&[usize], [Option<usize>; 4]) = match &self.shape {
            Shape::Linear => (&[], [q.checked_sub(1), (q + 1 < n).then_some(q + 1), None, None]),
            Shape::Ring => {
                let (prev, next) = ((q + n - 1) % n, (q + 1) % n);
                (&[], [Some(prev.min(next)), Some(prev.max(next)), None, None])
            }
            &Shape::Grid { cols } => (
                &[],
                [
                    q.checked_sub(cols),
                    (!q.is_multiple_of(cols)).then(|| q - 1),
                    (!(q + 1).is_multiple_of(cols) && q + 1 < n).then_some(q + 1),
                    (q + cols < n).then_some(q + cols),
                ],
            ),
            Shape::Edges { adj, .. } => (&adj[q], [None; 4]),
        };
        listed.iter().copied().chain(near.into_iter().flatten())
    }

    /// Whether `a` and `b` admit a native two-qubit gate.
    pub(crate) fn coupled(&self, a: usize, b: usize) -> bool {
        self.distance(a, b) == 1
    }

    /// Shortest-path hop count (`usize::MAX` when unreachable).
    pub(crate) fn distance(&self, a: usize, b: usize) -> usize {
        match &self.shape {
            Shape::Linear => a.abs_diff(b),
            Shape::Ring => {
                let d = a.abs_diff(b);
                d.min(self.num_qubits - d)
            }
            Shape::Grid { cols } => (a / cols).abs_diff(b / cols) + (a % cols).abs_diff(b % cols),
            Shape::Edges { dist, .. } => match dist[a * self.num_qubits + b] {
                UNREACHABLE => usize::MAX,
                d => d as usize,
            },
        }
    }

    /// Whether every qubit can reach every other.
    pub(crate) fn is_connected(&self) -> bool {
        match &self.shape {
            Shape::Edges { dist, .. } if self.num_qubits > 1 => {
                dist[..self.num_qubits].iter().all(|&d| d != UNREACHABLE)
            }
            _ => true,
        }
    }

    /// The subgraph induced by the first `n` qubits, if it is still
    /// connected — routing a small circuit onto the prefix keeps the
    /// routed width equal to the logical width (which keeps unitary
    /// oracles tractable).
    ///
    /// The whole graph is its own prefix. A built-in family's prefix is
    /// the same family on fewer qubits and always connected: a line stays
    /// a line, a ring cut short is a line, and a row-major grid keeps its
    /// columns with a partial last row, whose Manhattan distances still
    /// hold. An edge list's prefix is searched afresh and may be
    /// disconnected.
    pub(crate) fn induced_prefix(&self, n: usize) -> Option<Cow<'_, CouplingGraph>> {
        let shape = match &self.shape {
            _ if n == self.num_qubits => return Some(Cow::Borrowed(self)),
            _ if n > self.num_qubits => return None,
            Shape::Linear | Shape::Ring => Shape::Linear,
            Shape::Grid { cols } => Shape::Grid { cols: *cols },
            Shape::Edges { .. } => {
                let edges: Vec<(usize, usize)> =
                    self.edges().into_iter().filter(|&(_, b)| b < n).collect();
                let sub =
                    CouplingGraph::from_edges(n, &edges).expect("induced edges are well-formed");
                return sub.is_connected().then_some(Cow::Owned(sub));
            }
        };
        Some(Cow::Owned(CouplingGraph { num_qubits: n, shape }))
    }

    /// The node of maximum degree (ties to the smallest index) — the
    /// layout pass seeds placement here.
    pub(crate) fn max_degree_node(&self) -> usize {
        (0..self.num_qubits)
            .max_by_key(|&q| (self.neighbors(q).count(), self.num_qubits - q))
            .unwrap_or(0)
    }
}

/// The flattened all-pairs hop-count table of the graph `adj`.
fn all_pairs_bfs(adj: &[Vec<usize>]) -> Vec<u32> {
    let n = adj.len();
    let mut dist = vec![UNREACHABLE; n * n];
    let mut queue = std::collections::VecDeque::new();
    for (start, row) in dist.chunks_exact_mut(n.max(1)).enumerate() {
        row[start] = 0;
        queue.clear();
        queue.push_back(start);
        while let Some(q) = queue.pop_front() {
            let d = row[q];
            for &nb in &adj[q] {
                if row[nb] == UNREACHABLE {
                    row[nb] = d + 1;
                    queue.push_back(nb);
                }
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gateset::GateCosts;
    use crate::route;
    use asdf_ir::GateKind;
    use asdf_qcircuit::Circuit;
    use proptest::prelude::*;

    #[test]
    fn linear_distances_are_index_differences() {
        let g = CouplingGraph::linear(5);
        assert_eq!(g.num_qubits(), 5);
        assert!(g.coupled(0, 1) && g.coupled(3, 4));
        assert!(!g.coupled(0, 2));
        assert_eq!(g.distance(0, 4), 4);
        assert!(g.is_connected());
    }

    #[test]
    fn ring_wraps_around() {
        let g = CouplingGraph::ring(6);
        assert!(g.coupled(5, 0));
        assert_eq!(g.distance(0, 3), 3);
        assert_eq!(g.distance(0, 5), 1);
    }

    #[test]
    fn grid_couples_rows_and_columns() {
        let g = CouplingGraph::grid(2, 3);
        // 0 1 2
        // 3 4 5
        assert!(g.coupled(0, 1) && g.coupled(0, 3) && g.coupled(4, 5));
        assert!(!g.coupled(0, 4));
        assert_eq!(g.distance(0, 5), 3);
        assert_eq!(g.edges().len(), 7);
    }

    #[test]
    fn from_edges_rejects_malformed_input() {
        assert!(CouplingGraph::from_edges(2, &[(0, 0)]).is_err(), "self-loop");
        assert!(CouplingGraph::from_edges(2, &[(0, 2)]).is_err(), "out of range");
        assert!(CouplingGraph::from_edges(2, &[(0, 1), (1, 0)]).is_err(), "duplicate");
    }

    #[test]
    fn disconnected_graphs_are_detected() {
        let g = CouplingGraph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(!g.is_connected());
        assert_eq!(g.distance(0, 2), usize::MAX);
    }

    #[test]
    fn prefix_of_a_grid_is_connected_but_a_gap_is_not() {
        let g = CouplingGraph::grid(2, 3);
        assert!(g.induced_prefix(4).is_some(), "row-major prefix stays connected");
        let sparse = CouplingGraph::from_edges(4, &[(0, 3), (1, 3), (2, 3)]).unwrap();
        assert!(sparse.induced_prefix(3).is_none(), "star prefix loses its hub");
    }

    /// The edges of a built-in family, listed as an `edges:` target would
    /// list them: `kind` 0 is `linear-n`, 1 is `ring-n`, 2 is a grid of
    /// `cols` columns.
    fn family(kind: usize, n: usize, cols: usize) -> (CouplingGraph, Vec<(usize, usize)>) {
        match kind {
            0 => (CouplingGraph::linear(n), (1..n).map(|q| (q - 1, q)).collect()),
            1 => {
                let mut edges: Vec<(usize, usize)> = (1..n).map(|q| (q - 1, q)).collect();
                edges.push((n - 1, 0));
                (CouplingGraph::ring(n), edges)
            }
            _ => {
                let rows = n / cols;
                let mut edges = Vec::new();
                for q in 0..rows * cols {
                    if (q + 1) % cols != 0 {
                        edges.push((q, q + 1));
                    }
                    if q + cols < rows * cols {
                        edges.push((q, q + cols));
                    }
                }
                (CouplingGraph::grid(rows, cols), edges)
            }
        }
    }

    /// A built-in family of at most 64 qubits, as `Target::parse` admits
    /// them, and its edge list.
    fn arb_family() -> impl Strategy<Value = (CouplingGraph, Vec<(usize, usize)>)> {
        (0usize..3, 2usize..=64, 1usize..=16).prop_map(|(kind, n, cols)| match kind {
            1 => family(1, n.max(3), 0),
            _ => family(kind, n, cols.min(n)),
        })
    }

    /// A native circuit (1q gates, CX, measurements and resets) on
    /// `qubits` wires, drawn from `picks`.
    fn native_circuit(qubits: usize, picks: &[(usize, usize, usize)]) -> Circuit {
        let mut c = Circuit::new(qubits);
        for (bit, &(kind, a, b)) in picks.iter().enumerate() {
            let a = a % qubits;
            let b = (a + 1 + b % (qubits - 1).max(1)) % qubits;
            match kind % 5 {
                0 | 1 if a != b => c.gate(GateKind::X, &[a], &[b]),
                2 => c.measure(a, bit),
                3 => c.reset(a),
                _ => c.gate(GateKind::H, &[], &[a]),
            }
        }
        c
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        /// At every prefix width, a built-in family answers every query
        /// as breadth-first search over its edges does, and routes every
        /// circuit to the same `Routed`.
        #[test]
        fn builtin_families_match_breadth_first_search(
            (graph, edges) in arb_family(),
            qubits in 1usize..=64,
            picks in proptest::collection::vec((0usize..5, 0usize..64, 0usize..64), 0..40),
        ) {
            let n = graph.num_qubits();
            let reference = CouplingGraph::from_edges(n, &edges).expect("family edges are well-formed");
            let mut sorted = edges.iter().map(|&(a, b)| (a.min(b), a.max(b))).collect::<Vec<_>>();
            sorted.sort_unstable();
            prop_assert_eq!(graph.edges(), sorted);
            let circuit = native_circuit(qubits.min(n), &picks);
            for width in 0..=n {
                let prefix = graph.induced_prefix(width).expect("built-in prefixes are connected");
                let bfs = reference.induced_prefix(width).expect("BFS agrees the prefix is connected");
                prop_assert_eq!(prefix.num_qubits(), width);
                for a in 0..width {
                    prop_assert!(prefix.neighbors(a).eq(bfs.neighbors(a)), "neighbors of {a}");
                    for b in 0..width {
                        prop_assert_eq!(prefix.distance(a, b), bfs.distance(a, b), "{a}-{b}");
                        prop_assert_eq!(prefix.coupled(a, b), bfs.coupled(a, b));
                    }
                }
                prop_assert_eq!(prefix.max_degree_node(), bfs.max_degree_node());
                if circuit.num_qubits <= width {
                    let costs = GateCosts::default();
                    prop_assert_eq!(
                        route::run(&circuit, &prefix, "t", &costs),
                        route::run(&circuit, &bfs, "t", &costs)
                    );
                }
            }
        }
    }
}
