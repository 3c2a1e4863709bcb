//! Coupling graphs: the connectivity constraint of a hardware target.
//!
//! A [`CouplingGraph`] records which physical qubit pairs admit a native
//! two-qubit gate, plus the all-pairs shortest-path matrix the router's
//! distance heuristic queries on every candidate SWAP — precomputed once
//! per target by breadth-first search from every node (`O(n·(n+e))`,
//! trivial at device sizes).

/// Marks an unreachable pair in the distance matrix.
const UNREACHABLE: u32 = u32::MAX;

/// An undirected coupling graph over physical qubits `0..n`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CouplingGraph {
    num_qubits: usize,
    adj: Vec<Vec<usize>>,
    /// `dist[a][b]` = shortest-path hop count, [`UNREACHABLE`] if none.
    dist: Vec<Vec<u32>>,
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
        Ok(CouplingGraph { num_qubits, adj, dist })
    }

    /// A path `0-1-…-(n-1)`.
    pub(crate) fn linear(n: usize) -> Self {
        let edges: Vec<(usize, usize)> = (0..n.saturating_sub(1)).map(|i| (i, i + 1)).collect();
        CouplingGraph::from_edges(n, &edges).expect("linear edges are well-formed")
    }

    /// A cycle `0-1-…-(n-1)-0` (needs `n >= 3`).
    pub(crate) fn ring(n: usize) -> Self {
        assert!(n >= 3, "a ring needs at least 3 qubits");
        let mut edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        edges.push((n - 1, 0));
        CouplingGraph::from_edges(n, &edges).expect("ring edges are well-formed")
    }

    /// A `rows × cols` grid in row-major order.
    pub(crate) fn grid(rows: usize, cols: usize) -> Self {
        let mut edges = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                let q = r * cols + c;
                if c + 1 < cols {
                    edges.push((q, q + 1));
                }
                if r + 1 < rows {
                    edges.push((q, q + cols));
                }
            }
        }
        CouplingGraph::from_edges(rows * cols, &edges).expect("grid edges are well-formed")
    }

    /// Number of physical qubits.
    pub(crate) fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Undirected edges, each reported once with `a < b`.
    pub(crate) fn edges(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (a, neighbors) in self.adj.iter().enumerate() {
            for &b in neighbors {
                if a < b {
                    out.push((a, b));
                }
            }
        }
        out
    }

    /// The neighbors of `q`, ascending.
    pub(crate) fn neighbors(&self, q: usize) -> &[usize] {
        &self.adj[q]
    }

    /// Whether `a` and `b` admit a native two-qubit gate.
    pub(crate) fn coupled(&self, a: usize, b: usize) -> bool {
        self.distance(a, b) == 1
    }

    /// Shortest-path hop count (`usize::MAX` when unreachable).
    pub(crate) fn distance(&self, a: usize, b: usize) -> usize {
        match self.dist[a][b] {
            UNREACHABLE => usize::MAX,
            d => d as usize,
        }
    }

    /// Whether every qubit can reach every other.
    pub(crate) fn is_connected(&self) -> bool {
        self.num_qubits <= 1 || self.dist[0].iter().all(|&d| d != UNREACHABLE)
    }

    /// The subgraph induced by the first `n` qubits, if it is still
    /// connected — routing a small circuit onto the prefix keeps the
    /// routed width equal to the logical width (which keeps unitary
    /// oracles tractable). Linear, ring, and row-major grid prefixes are
    /// always connected; arbitrary edge lists may not be.
    pub(crate) fn induced_prefix(&self, n: usize) -> Option<CouplingGraph> {
        if n > self.num_qubits {
            return None;
        }
        let edges: Vec<(usize, usize)> =
            self.edges().into_iter().filter(|&(a, b)| a < n && b < n).collect();
        let sub = CouplingGraph::from_edges(n, &edges).expect("induced edges are well-formed");
        sub.is_connected().then_some(sub)
    }

    /// The node of maximum degree (ties to the smallest index) — the
    /// layout pass seeds placement here.
    pub(crate) fn max_degree_node(&self) -> usize {
        (0..self.num_qubits).max_by_key(|&q| (self.adj[q].len(), self.num_qubits - q)).unwrap_or(0)
    }
}

fn all_pairs_bfs(adj: &[Vec<usize>]) -> Vec<Vec<u32>> {
    let n = adj.len();
    let mut dist = vec![vec![UNREACHABLE; n]; n];
    let mut queue = std::collections::VecDeque::new();
    for (start, row) in dist.iter_mut().enumerate() {
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
}
