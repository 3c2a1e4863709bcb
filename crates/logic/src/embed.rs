//! Bennett embeddings of classical logic networks (§6.4).
//!
//! Given a network for `f : B^n -> B^m`, builds the reversible circuit
//! `U_f |x>|y>|0> = |x>|y XOR f(x)>|0>` by compute-copy-uncompute
//! (Bennett \[5\]). Two styles:
//!
//! - [`EmbedStyle::InPlaceXor`] — the tweedledum-style embedding ASDF
//!   uses: one ancilla per AND node; XOR chains are computed in place with
//!   CNOTs and uncomputed around each AND. §8.3 credits exactly this for
//!   beating Quipper's oracles.
//! - [`EmbedStyle::AncillaPerNode`] — the Quipper-style embedding used by
//!   the baseline: every logic node (XOR included) materializes on its own
//!   ancilla line.

use crate::gate::{McxGate, RevCircuit};
use crate::xag::Xag;
use std::collections::{HashMap, VecDeque};

/// Which embedding discipline to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EmbedStyle {
    /// Ancilla per AND node only; XORs in place (tweedledum / ASDF).
    InPlaceXor,
    /// Ancilla per node, XORs included (Quipper baseline).
    AncillaPerNode,
}

/// A Bennett embedding: the circuit plus its line layout.
///
/// Line layout: inputs first, then outputs, then ancillas; `run` semantics
/// follow [`RevCircuit`]. After execution, input lines are unchanged,
/// output lines hold `y XOR f(x)`, and ancilla lines are returned to zero.
#[derive(Debug, Clone)]
pub struct Embedding {
    /// The reversible circuit.
    pub circuit: RevCircuit,
    /// Lines carrying the primary inputs.
    pub input_lines: Vec<usize>,
    /// Lines carrying the XOR-accumulated outputs.
    pub output_lines: Vec<usize>,
    /// Scratch lines (zero before and after).
    pub ancilla_lines: Vec<usize>,
}

impl Embedding {
    /// Convenience: computes `f(x)` by running the circuit with `y = 0`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` does not match the number of input lines.
    #[cfg(test)]
    pub(crate) fn compute(&self, x: &[bool]) -> Vec<bool> {
        assert_eq!(x.len(), self.input_lines.len(), "input width mismatch");
        let mut bits = vec![false; self.circuit.lines];
        for (line, &v) in self.input_lines.iter().zip(x) {
            bits[*line] = v;
        }
        let out = self.circuit.run(&bits);
        self.output_lines.iter().map(|&l| out[l]).collect()
    }
}

/// Builds the Bennett embedding of `xag` in the requested style.
///
/// # Errors
///
/// Returns a message if the network cannot be embedded (e.g. an AND whose
/// operands cannot receive distinct pivot lines, which folded networks do
/// not produce).
pub fn embed_xor(xag: &Xag, style: EmbedStyle) -> Result<Embedding, String> {
    match style {
        EmbedStyle::InPlaceXor => embed_in_place(xag),
        EmbedStyle::AncillaPerNode => embed_per_node(xag),
    }
}

// ---------------------------------------------------------------------
// tweedledum-style: ancilla per AND; XOR via in-place CNOT chains.
// ---------------------------------------------------------------------

fn embed_in_place(xag: &Xag) -> Result<Embedding, String> {
    let n = xag.num_inputs();
    let m = xag.outputs().len();
    let and_nodes = xag.live_and_nodes();
    // Extra scratch lines may be appended past the per-AND ancillas when
    // pivot scheduling deadlocks; count lines at the end.
    let mut next_line = n + m + and_nodes.len();

    // node -> line holding its value (inputs and computed ANDs).
    let mut node_line: HashMap<usize, usize> = HashMap::new();
    for i in 0..n {
        node_line.insert(xag.input(i).node(), i);
    }

    // Compute phase: one ancilla per AND node, in topological order.
    let mut compute_gates: Vec<McxGate> = Vec::new();
    for (k, &node) in and_nodes.iter().enumerate() {
        let ancilla = n + m + k;
        let operands = xag.node_operands(node).to_vec();
        let mut supports: Vec<(Vec<usize>, bool)> = Vec::with_capacity(operands.len());
        for signal in &operands {
            let (support, parity) = xag.parity_support(*signal);
            if support.is_empty() {
                return Err("AND operand folded to a constant; fold the network first".into());
            }
            let wires: Vec<usize> = support.iter().map(|node| node_line[node]).collect();
            supports.push((wires, parity));
        }

        // Realize each operand's parity on a pivot line. In-place
        // realization (CNOT chain into a support wire) mutates exactly the
        // pivot wire, so schedule operands so none reads a wire an
        // earlier-realized operand used as its pivot. When that deadlocks,
        // demote operands to fresh scratch lines — scratch realizations go
        // *first* (they only read pristine wires and write scratch, which
        // no support contains).
        let mut scratch_ops: Vec<usize> = Vec::new();
        let schedule = loop {
            match schedule_in_place(&supports, &scratch_ops) {
                Ok(order) => break order,
                Err(blocked) => {
                    // Demote a blocked operand to a scratch line and retry.
                    scratch_ops.push(blocked[0]);
                }
            }
        };

        let mut prep: Vec<McxGate> = Vec::new();
        let mut pivots: Vec<Option<usize>> = vec![None; supports.len()];
        for &op_idx in &scratch_ops {
            let scratch = next_line;
            next_line += 1;
            let (wires, parity) = &supports[op_idx];
            for &w in wires {
                prep.push(McxGate::cnot(w, scratch));
            }
            if *parity {
                prep.push(McxGate::not(scratch));
            }
            pivots[op_idx] = Some(scratch);
        }
        for (op_idx, pivot) in schedule {
            let (wires, parity) = &supports[op_idx];
            for &w in wires {
                if w != pivot {
                    prep.push(McxGate::cnot(w, pivot));
                }
            }
            if *parity {
                prep.push(McxGate::not(pivot));
            }
            pivots[op_idx] = Some(pivot);
        }
        let pivots: Vec<usize> = pivots.into_iter().map(Option::unwrap).collect();

        compute_gates.extend(prep.iter().cloned());
        compute_gates.push(McxGate::mcx(pivots, ancilla));
        compute_gates.extend(prep.into_iter().rev());
        node_line.insert(node, ancilla);
    }

    let mut circuit = RevCircuit::new(next_line);
    for g in &compute_gates {
        circuit.push(g.clone());
    }

    // Copy phase: XOR each output's parity into its output line.
    for (k, &signal) in xag.outputs().iter().enumerate() {
        let out = n + k;
        let (support, parity) = xag.parity_support(signal);
        for node in support {
            circuit.push(McxGate::cnot(node_line[&node], out));
        }
        if parity {
            circuit.push(McxGate::not(out));
        }
    }

    // Uncompute phase: reverse of the compute phase restores ancillas.
    for g in compute_gates.iter().rev() {
        circuit.push(g.clone());
    }

    Ok(Embedding {
        circuit,
        input_lines: (0..n).collect(),
        output_lines: (n..n + m).collect(),
        ancilla_lines: (n + m..next_line).collect(),
    })
}

/// Greedy scheduler for in-place operand realization: returns the
/// realization order with chosen pivots, or the blocked operand set on
/// deadlock. Operands in `scratch_ops` are excluded (they use scratch
/// lines). Each support lists distinct wires, as parity supports do.
///
/// Heuristic: among schedulable operands (support disjoint from used
/// pivots), prefer one with a *free* pivot — a support wire no other
/// pending operand reads — since realizing it cannot block anyone. An
/// operand without a free pivot is deferred as long as possible.
///
/// A used-pivot bitmap answers "schedulable?", a per-wire count of pending
/// readers answers "free?" (a wire is free for `k` when `k` is its only
/// pending reader), and each round stops at the first operand that
/// qualifies, so a round costs only the supports it reads.
fn schedule_in_place(
    supports: &[(Vec<usize>, bool)],
    scratch_ops: &[usize],
) -> Result<Vec<(usize, usize)>, Vec<usize>> {
    let wires = supports.iter().flat_map(|(support, _)| support).max().map_or(0, |&w| w + 1);
    let mut is_scratch = vec![false; supports.len()];
    for &k in scratch_ops {
        is_scratch[k] = true;
    }
    // A deque: the scan runs front to back and usually schedules the
    // first operand, so dropping it must not shift the rest.
    let mut pending: VecDeque<usize> = (0..supports.len()).filter(|&k| !is_scratch[k]).collect();
    let mut readers = vec![0u32; wires];
    for &k in &pending {
        for &w in &supports[k].0 {
            readers[w] += 1;
        }
    }
    let mut used = vec![false; wires];
    let mut order: Vec<(usize, usize)> = Vec::with_capacity(pending.len());
    while !pending.is_empty() {
        // (position in `pending`, operand, pivot)
        let mut first_schedulable = None;
        let mut free = None;
        for (at, &k) in pending.iter().enumerate() {
            let support = &supports[k].0;
            if support.iter().any(|&w| used[w]) {
                continue;
            }
            if let Some(&w) = support.iter().find(|&&w| readers[w] == 1) {
                free = Some((at, k, w));
                break;
            }
            first_schedulable.get_or_insert((at, k, support[0]));
        }
        let Some((at, op_idx, pivot)) = free.or(first_schedulable) else {
            return Err(pending.into());
        };
        pending.remove(at);
        for &w in &supports[op_idx].0 {
            readers[w] -= 1;
        }
        used[pivot] = true;
        order.push((op_idx, pivot));
    }
    Ok(order)
}

// ---------------------------------------------------------------------
// Quipper-style: every node gets an ancilla, XOR nodes included.
// ---------------------------------------------------------------------

fn embed_per_node(xag: &Xag) -> Result<Embedding, String> {
    let n = xag.num_inputs();
    let m = xag.outputs().len();
    let gate_nodes: Vec<usize> =
        xag.live_nodes().into_iter().filter(|&node| xag.is_and(node) || xag.is_xor(node)).collect();
    let lines = n + m + gate_nodes.len();
    let mut circuit = RevCircuit::new(lines);

    let mut node_line: HashMap<usize, usize> = HashMap::new();
    for i in 0..n {
        node_line.insert(xag.input(i).node(), i);
    }

    let mut compute_gates: Vec<McxGate> = Vec::new();
    for (k, &node) in gate_nodes.iter().enumerate() {
        let ancilla = n + m + k;
        let operands = xag.node_operands(node);
        if xag.is_xor(node) {
            // CNOT every operand line into the fresh ancilla.
            for s in operands {
                compute_gates.push(McxGate::cnot(node_line[&s.node()], ancilla));
                if s.is_inverted() {
                    compute_gates.push(McxGate::not(ancilla));
                }
            }
        } else {
            // MCX with per-operand polarity.
            let controls =
                operands.iter().map(|s| (node_line[&s.node()], !s.is_inverted())).collect();
            compute_gates.push(McxGate { controls, target: ancilla });
        }
        node_line.insert(node, ancilla);
    }
    for g in &compute_gates {
        circuit.push(g.clone());
    }

    for (k, &signal) in xag.outputs().iter().enumerate() {
        let out = n + k;
        if let Some(value) = xag.as_const(signal) {
            if value {
                circuit.push(McxGate::not(out));
            }
            continue;
        }
        circuit.push(McxGate::cnot(node_line[&signal.node()], out));
        if signal.is_inverted() {
            circuit.push(McxGate::not(out));
        }
    }

    for g in compute_gates.iter().rev() {
        circuit.push(g.clone());
    }

    Ok(Embedding {
        circuit,
        input_lines: (0..n).collect(),
        output_lines: (n..n + m).collect(),
        ancilla_lines: (n + m..lines).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xag::Signal;
    use proptest::prelude::*;

    /// Checks an embedding against direct network evaluation on every
    /// input, including the y-accumulation and ancilla-restoration
    /// contracts.
    fn check(xag: &Xag, style: EmbedStyle) -> Embedding {
        let emb = embed_xor(xag, style).unwrap();
        let n = xag.num_inputs();
        assert!(n <= 10, "exhaustive check is exponential");
        for x in 0..(1usize << n) {
            let bits: Vec<bool> = (0..n).map(|i| (x >> (n - 1 - i)) & 1 == 1).collect();
            let expected = xag.eval(&bits);
            assert_eq!(emb.compute(&bits), expected, "style {style:?}, x={x:b}");

            // y-accumulation: run with y = 1...1 and check complement.
            let mut state = vec![false; emb.circuit.lines];
            for (line, &v) in emb.input_lines.iter().zip(&bits) {
                state[*line] = v;
            }
            for &line in &emb.output_lines {
                state[line] = true;
            }
            let out = emb.circuit.run(&state);
            for (k, &line) in emb.output_lines.iter().enumerate() {
                assert_eq!(out[line], !expected[k], "y xor f(x)");
            }
            for (&line, &v) in emb.input_lines.iter().zip(&bits) {
                assert_eq!(out[line], v, "inputs preserved");
            }
            for &line in &emb.ancilla_lines {
                assert!(!out[line], "ancilla restored to zero");
            }
        }
        emb
    }

    fn and_reduce(n: usize) -> Xag {
        let mut g = Xag::new(n);
        let inputs: Vec<Signal> = (0..n).map(|i| g.input(i)).collect();
        let out = g.and_many(inputs);
        g.set_outputs(vec![out]);
        g
    }

    fn xor_reduce(n: usize) -> Xag {
        let mut g = Xag::new(n);
        let inputs: Vec<Signal> = (0..n).map(|i| g.input(i)).collect();
        let out = g.xor_many(inputs);
        g.set_outputs(vec![out]);
        g
    }

    #[test]
    fn and_reduce_is_one_big_mcx() {
        let emb = check(&and_reduce(5), EmbedStyle::InPlaceXor);
        // Exactly: compute MCX, copy CNOT, uncompute MCX.
        assert_eq!(emb.ancilla_lines.len(), 1);
        let mcx_count = emb.circuit.gates.iter().filter(|g| g.controls.len() == 5).count();
        assert_eq!(mcx_count, 2);
    }

    #[test]
    fn xor_reduce_needs_no_ancilla_in_tweedledum_style() {
        let emb = check(&xor_reduce(6), EmbedStyle::InPlaceXor);
        assert!(emb.ancilla_lines.is_empty());
        assert!(emb.circuit.gates.iter().all(|g| g.controls.len() <= 1));
    }

    #[test]
    fn xor_reduce_costs_ancillas_in_quipper_style() {
        let emb = check(&xor_reduce(6), EmbedStyle::AncillaPerNode);
        assert_eq!(emb.ancilla_lines.len(), 1, "one XOR node materialized");
        // The quipper-style circuit is strictly larger than the in-place one.
        let tweedledum = embed_xor(&xor_reduce(6), EmbedStyle::InPlaceXor).unwrap();
        assert!(emb.circuit.gates.len() > tweedledum.circuit.gates.len());
    }

    #[test]
    fn mixed_network_both_styles() {
        // f(a,b,c,d) = (a AND b) XOR (NOT c) XOR (b AND NOT d)
        let mut g = Xag::new(4);
        let (a, b, c, d) = (g.input(0), g.input(1), g.input(2), g.input(3));
        let ab = g.and2(a, b);
        let bd = g.and2(b, d.not());
        let t = g.xor2(ab, c.not());
        let out = g.xor2(t, bd);
        g.set_outputs(vec![out]);
        check(&g, EmbedStyle::InPlaceXor);
        check(&g, EmbedStyle::AncillaPerNode);
    }

    #[test]
    fn multi_output_network() {
        // Simon-style oracle: f(x) = x XOR (x_0 AND s) with s = 110.
        let mut g = Xag::new(3);
        let x0 = g.input(0);
        let mut outs = Vec::new();
        for i in 0..3 {
            let xi = g.input(i);
            let s_bit = i < 2; // s = 110
            let masked = if s_bit { x0 } else { g.const_false() };
            let out = g.xor2(xi, masked);
            outs.push(out);
        }
        g.set_outputs(outs);
        check(&g, EmbedStyle::InPlaceXor);
        check(&g, EmbedStyle::AncillaPerNode);
    }

    #[test]
    fn conflicting_supports_schedule_without_scratch() {
        // And(x0, x2, Xor(x2, x3)): realizing x2 in place before the XOR
        // operand would clobber the XOR's support. The free-pivot-first
        // heuristic realizes the XOR on x3 instead; no scratch ancilla.
        let mut g = Xag::new(4);
        let (x0, x2, x3) = (g.input(0), g.input(2), g.input(3));
        let x23 = g.xor2(x2, x3);
        let out = g.and_many(vec![x0, x2, x23]);
        g.set_outputs(vec![out]);
        let emb = check(&g, EmbedStyle::InPlaceXor);
        assert_eq!(emb.ancilla_lines.len(), g.live_and_nodes().len());
    }

    #[test]
    fn wide_and_reduce_embeds_to_the_small_shape() {
        // Compute MCX, copy CNOT, uncompute MCX, whatever the width.
        let shape = |n: usize| {
            let emb = embed_xor(&and_reduce(n), EmbedStyle::InPlaceXor).unwrap();
            let gates = &emb.circuit.gates;
            assert_eq!(gates.len(), 3, "n={n}");
            let ancilla = emb.ancilla_lines[0];
            let controls: Vec<usize> = gates[0].controls.iter().map(|&(line, _)| line).collect();
            assert_eq!(controls, emb.input_lines, "n={n}: the MCX reads every input in place");
            assert_eq!(gates[0].target, ancilla);
            assert_eq!(gates[1], McxGate::cnot(ancilla, emb.output_lines[0]));
            assert_eq!(gates[2], gates[0]);
            (emb.ancilla_lines.len(), gates.iter().map(|g| g.controls.len()).collect::<Vec<_>>())
        };
        assert_eq!(shape(4), (1, vec![4, 1, 4]));
        assert_eq!(shape(1024), (1, vec![1024, 1, 1024]));
    }

    /// The quadratic-scan scheduler the bitmap-and-count one replaced,
    /// kept as the reference its decisions must match.
    fn schedule_in_place_reference(
        supports: &[(Vec<usize>, bool)],
        scratch_ops: &[usize],
    ) -> Result<Vec<(usize, usize)>, Vec<usize>> {
        let mut pending: Vec<usize> =
            (0..supports.len()).filter(|k| !scratch_ops.contains(k)).collect();
        let mut used_pivots: Vec<usize> = Vec::new();
        let mut order: Vec<(usize, usize)> = Vec::new();
        while !pending.is_empty() {
            let schedulable: Vec<usize> = pending
                .iter()
                .copied()
                .filter(|&k| supports[k].0.iter().all(|w| !used_pivots.contains(w)))
                .collect();
            if schedulable.is_empty() {
                return Err(pending);
            }
            let free_pivot = |k: usize| -> Option<usize> {
                supports[k].0.iter().copied().find(|w| {
                    !pending.iter().any(|&other| other != k && supports[other].0.contains(w))
                })
            };
            let (op_idx, pivot) = schedulable
                .iter()
                .copied()
                .find_map(|k| free_pivot(k).map(|p| (k, p)))
                .unwrap_or_else(|| {
                    let k = schedulable[0];
                    (k, supports[k].0[0])
                });
            pending.retain(|&k| k != op_idx);
            used_pivots.push(pivot);
            order.push((op_idx, pivot));
        }
        Ok(order)
    }

    /// Runs `embed_in_place`'s demote-and-retry loop with both schedulers,
    /// asserting they agree at every step; returns the deadlocks seen.
    fn assert_schedulers_agree(supports: &[(Vec<usize>, bool)], mut scratch: Vec<usize>) -> usize {
        let mut deadlocks = 0;
        loop {
            let expected = schedule_in_place_reference(supports, &scratch);
            assert_eq!(schedule_in_place(supports, &scratch), expected, "scratch {scratch:?}");
            match expected {
                Ok(_) => return deadlocks,
                Err(blocked) => {
                    deadlocks += 1;
                    scratch.push(blocked[0]);
                }
            }
        }
    }

    #[test]
    fn shared_supports_deadlock_like_the_reference() {
        // Both operands read wires 0 and 1: neither has a free pivot, the
        // first takes wire 0, and the second is blocked on it.
        let supports = vec![(vec![0, 1], false), (vec![1, 0], true)];
        assert_eq!(schedule_in_place(&supports, &[]), Err(vec![1]));
        assert_eq!(assert_schedulers_agree(&supports, Vec::new()), 1);
    }

    /// Random supports: up to 12 operands, each a shuffled set of distinct
    /// wires below `wires` (at most 16), plus a random scratch subset.
    fn arb_supports() -> impl Strategy<Value = (Vec<(Vec<usize>, bool)>, Vec<usize>)> {
        (1usize..=16, 1usize..=12).prop_flat_map(|(wires, ops)| {
            let support = proptest::sample::subsequence((0..wires).collect::<Vec<_>>(), 1..=wires)
                .prop_shuffle();
            (
                proptest::collection::vec((support, any::<bool>()), ops),
                proptest::sample::subsequence((0..ops).collect::<Vec<_>>(), 0..=ops / 2)
                    .prop_shuffle(),
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4000))]
        /// The scheduler makes the reference's decisions: the same order
        /// and pivots, the same blocked sets, the same scratch demotions.
        #[test]
        fn scheduler_matches_the_reference((supports, scratch) in arb_supports()) {
            assert_schedulers_agree(&supports, scratch);
        }
    }

    #[test]
    fn output_can_be_constant() {
        let mut g = Xag::new(2);
        let t = g.const_true();
        let a = g.input(0);
        let aa = g.xor2(a, a); // folds to const false
        let f = g.xor2(aa, t);
        g.set_outputs(vec![f]);
        check(&g, EmbedStyle::InPlaceXor);
        check(&g, EmbedStyle::AncillaPerNode);
    }
}
