//! XOR-AND-inverter graphs (XAGs): the classical logic network ASDF builds
//! from `@classical` functions via mockturtle (§6.4).
//!
//! Nodes are n-ary `And` / `Xor` over complementable signals, with the
//! classical optimizations the paper relies on applied during
//! construction: constant folding, operand flattening (so `and_reduce`
//! over N bits becomes one N-ary AND, which embeds as one N-controlled X —
//! the shape Fig. 10's relaxed peephole targets), duplicate-operand
//! folding, and structural hashing.

use std::collections::HashMap;
use std::fmt;

/// A reference to a node output, possibly complemented.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Signal {
    node: u32,
    inverted: bool,
}

impl Signal {
    /// The complemented signal.
    #[allow(clippy::should_implement_trait)] // named after XAG terminology
    pub fn not(self) -> Signal {
        Signal { node: self.node, inverted: !self.inverted }
    }

    /// The node this signal reads.
    pub(crate) fn node(self) -> usize {
        self.node as usize
    }

    /// Whether the signal complements the node output.
    pub(crate) fn is_inverted(self) -> bool {
        self.inverted
    }
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Node {
    /// Constant false (node 0 only).
    ConstFalse,
    /// Primary input.
    Input(u32),
    /// N-ary AND of at least two signals.
    And(Vec<Signal>),
    /// N-ary XOR of at least two non-inverted signals (inversions are
    /// hoisted into the consuming signal).
    Xor(Vec<Signal>),
}

/// An XOR-AND-inverter graph with primary inputs and outputs.
///
/// # Example
///
/// ```
/// use asdf_logic::Xag;
///
/// // f(a, b) = a AND (NOT b)
/// let mut g = Xag::new(2);
/// let a = g.input(0);
/// let b = g.input(1);
/// let f = g.and2(a, b.not());
/// g.set_outputs(vec![f]);
/// assert_eq!(g.eval(&[true, false]), vec![true]);
/// assert_eq!(g.eval(&[true, true]), vec![false]);
/// ```
#[derive(Debug, Clone)]
pub struct Xag {
    nodes: Vec<Node>,
    num_inputs: usize,
    outputs: Vec<Signal>,
    hash: HashMap<Node, u32>,
}

impl Xag {
    /// A network with `num_inputs` primary inputs and no outputs yet.
    pub fn new(num_inputs: usize) -> Self {
        let mut nodes = vec![Node::ConstFalse];
        for i in 0..num_inputs {
            nodes.push(Node::Input(i as u32));
        }
        Xag { nodes, num_inputs, outputs: Vec::new(), hash: HashMap::new() }
    }

    /// The constant-false signal.
    pub fn const_false(&self) -> Signal {
        Signal { node: 0, inverted: false }
    }

    /// The constant-true signal.
    pub fn const_true(&self) -> Signal {
        Signal { node: 0, inverted: true }
    }

    /// The signal for primary input `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn input(&self, i: usize) -> Signal {
        assert!(i < self.num_inputs, "input {i} out of range");
        Signal { node: (i + 1) as u32, inverted: false }
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Declares the network outputs.
    pub fn set_outputs(&mut self, outputs: Vec<Signal>) {
        self.outputs = outputs;
    }

    /// The declared outputs.
    pub(crate) fn outputs(&self) -> &[Signal] {
        &self.outputs
    }

    /// Whether a signal is one of the two constants; returns its value.
    pub(crate) fn as_const(&self, s: Signal) -> Option<bool> {
        matches!(self.nodes[s.node()], Node::ConstFalse).then_some(s.inverted)
    }

    fn intern(&mut self, node: Node) -> Signal {
        if let Some(&id) = self.hash.get(&node) {
            return Signal { node: id, inverted: false };
        }
        let id = self.nodes.len() as u32;
        self.nodes.push(node.clone());
        self.hash.insert(node, id);
        Signal { node: id, inverted: false }
    }

    /// Binary AND with folding.
    pub fn and2(&mut self, a: Signal, b: Signal) -> Signal {
        self.and_many(vec![a, b])
    }

    /// N-ary AND with flattening and folding: nested non-inverted ANDs are
    /// inlined, constants folded, duplicates removed, and `a AND NOT a`
    /// collapses to false.
    pub fn and_many(&mut self, operands: Vec<Signal>) -> Signal {
        let mut flat: Vec<Signal> = Vec::new();
        let mut stack = operands;
        stack.reverse();
        while let Some(s) = stack.pop() {
            if let Some(value) = self.as_const(s) {
                if !value {
                    return self.const_false();
                }
                continue; // AND with true is dropped.
            }
            match &self.nodes[s.node()] {
                Node::And(inner) if !s.inverted => {
                    for v in inner.iter().rev() {
                        stack.push(*v);
                    }
                }
                _ => flat.push(s),
            }
        }
        flat.sort();
        flat.dedup();
        for w in flat.windows(2) {
            if w[0].node == w[1].node {
                return self.const_false(); // a AND NOT a
            }
        }
        match flat.len() {
            0 => self.const_true(),
            1 => flat[0],
            _ => self.intern(Node::And(flat)),
        }
    }

    /// Binary XOR with folding.
    pub fn xor2(&mut self, a: Signal, b: Signal) -> Signal {
        self.xor_many(vec![a, b])
    }

    /// N-ary XOR with flattening and folding: nested XORs are inlined,
    /// inversions hoisted out as an output complement, constants folded,
    /// and duplicate operands cancelled (GF(2)).
    pub fn xor_many(&mut self, operands: Vec<Signal>) -> Signal {
        let mut parity = false;
        let mut flat: Vec<Signal> = Vec::new();
        let mut stack = operands;
        stack.reverse();
        while let Some(s) = stack.pop() {
            if let Some(value) = self.as_const(s) {
                parity ^= value;
                continue;
            }
            let plain = Signal { node: s.node, inverted: false };
            parity ^= s.inverted;
            match &self.nodes[plain.node()] {
                Node::Xor(inner) => {
                    for v in inner.iter().rev() {
                        stack.push(*v);
                    }
                }
                _ => flat.push(plain),
            }
        }
        flat.sort();
        // Cancel pairs (a XOR a = 0).
        let mut cancelled: Vec<Signal> = Vec::new();
        for s in flat {
            if cancelled.last() == Some(&s) {
                cancelled.pop();
            } else {
                cancelled.push(s);
            }
        }
        let base = match cancelled.len() {
            0 => self.const_false(),
            1 => cancelled[0],
            _ => self.intern(Node::Xor(cancelled)),
        };
        if parity {
            base.not()
        } else {
            base
        }
    }

    /// Evaluates the network on classical inputs.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.num_inputs()`.
    pub fn eval(&self, inputs: &[bool]) -> Vec<bool> {
        assert_eq!(inputs.len(), self.num_inputs, "input width mismatch");
        let mut values = vec![false; self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            values[i] = match node {
                Node::ConstFalse => false,
                Node::Input(k) => inputs[*k as usize],
                Node::And(ops) => ops.iter().all(|s| values[s.node()] ^ s.inverted),
                Node::Xor(ops) => {
                    ops.iter().fold(false, |acc, s| acc ^ (values[s.node()] ^ s.inverted))
                }
            };
        }
        self.outputs.iter().map(|s| values[s.node()] ^ s.inverted).collect()
    }

    /// AND nodes reachable from the outputs, in topological order. These
    /// are the nodes that cost an ancilla in the tweedledum-style
    /// embedding.
    pub fn live_and_nodes(&self) -> Vec<usize> {
        let live = self.live_set();
        (0..self.nodes.len())
            .filter(|&i| live[i] && matches!(self.nodes[i], Node::And(_)))
            .collect()
    }

    /// All nodes reachable from the outputs, in topological order.
    pub(crate) fn live_nodes(&self) -> Vec<usize> {
        let live = self.live_set();
        (0..self.nodes.len()).filter(|&i| live[i]).collect()
    }

    fn live_set(&self) -> Vec<bool> {
        let mut live = vec![false; self.nodes.len()];
        let mut stack: Vec<usize> = self.outputs.iter().map(|s| s.node()).collect();
        while let Some(i) = stack.pop() {
            if live[i] {
                continue;
            }
            live[i] = true;
            match &self.nodes[i] {
                Node::And(ops) | Node::Xor(ops) => {
                    stack.extend(ops.iter().map(|s| s.node()));
                }
                _ => {}
            }
        }
        live
    }

    /// The operand signals of an AND/XOR node.
    ///
    /// # Panics
    ///
    /// Panics if the node is an input or constant.
    pub(crate) fn node_operands(&self, node: usize) -> &[Signal] {
        match &self.nodes[node] {
            Node::And(ops) | Node::Xor(ops) => ops,
            other => panic!("node {node} ({other:?}) has no operands"),
        }
    }

    /// Whether a node is an AND node.
    pub(crate) fn is_and(&self, node: usize) -> bool {
        matches!(self.nodes[node], Node::And(_))
    }

    /// Whether a node is an XOR node.
    pub(crate) fn is_xor(&self, node: usize) -> bool {
        matches!(self.nodes[node], Node::Xor(_))
    }

    /// The *parity support* of a signal: the set of input/AND nodes whose
    /// XOR (plus a constant) equals the signal. This is what lets XOR
    /// chains compile to in-place CNOTs with no ancillas (§8.3).
    pub(crate) fn parity_support(&self, signal: Signal) -> (Vec<usize>, bool) {
        let mut support: Vec<usize> = Vec::new();
        let mut parity = signal.inverted;
        let mut stack = vec![signal.node()];
        while let Some(node) = stack.pop() {
            match &self.nodes[node] {
                Node::ConstFalse => {}
                Node::Input(_) | Node::And(_) => support.push(node),
                Node::Xor(ops) => {
                    for s in ops {
                        parity ^= s.inverted;
                        stack.push(s.node());
                    }
                }
            }
        }
        support.sort_unstable();
        // XOR cancels duplicate support entries pairwise.
        let mut cancelled: Vec<usize> = Vec::new();
        for node in support {
            if cancelled.last() == Some(&node) {
                cancelled.pop();
            } else {
                cancelled.push(node);
            }
        }
        (cancelled, parity)
    }
}

impl fmt::Display for Xag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "xag: {} inputs, {} nodes, {} outputs",
            self.num_inputs,
            self.nodes.len(),
            self.outputs.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_folding() {
        let mut g = Xag::new(1);
        let a = g.input(0);
        assert_eq!(g.and2(a, g.const_false()), g.const_false());
        assert_eq!(g.and2(a, g.const_true()), a);
        assert_eq!(g.and2(a, a), a);
        assert_eq!(g.and2(a, a.not()), g.const_false());
        assert_eq!(g.xor2(a, g.const_false()), a);
        assert_eq!(g.xor2(a, g.const_true()), a.not());
        assert_eq!(g.xor2(a, a), g.const_false());
        assert_eq!(g.xor2(a, a.not()), g.const_true());
    }

    #[test]
    fn structural_hashing_dedupes() {
        let mut g = Xag::new(2);
        let (a, b) = (g.input(0), g.input(1));
        let x = g.and2(a, b);
        let y = g.and2(b, a);
        assert_eq!(x, y, "commuted operands intern to one node");
    }

    #[test]
    fn and_reduce_flattens_to_one_node() {
        // and_reduce over 8 bits: one 8-ary AND node, one ancilla later.
        let mut g = Xag::new(8);
        let mut acc = g.input(0);
        for i in 1..8 {
            let next = g.input(i);
            acc = g.and2(acc, next);
        }
        g.set_outputs(vec![acc]);
        assert_eq!(g.live_and_nodes().len(), 1);
        assert_eq!(g.node_operands(acc.node()).len(), 8);
        assert_eq!(g.eval(&[true; 8]), vec![true]);
        assert_eq!(g.eval(&[false; 8]), vec![false]);
    }

    #[test]
    fn xor_reduce_has_no_and_nodes() {
        let mut g = Xag::new(6);
        let mut acc = g.input(0);
        for i in 1..6 {
            let next = g.input(i);
            acc = g.xor2(acc, next);
        }
        g.set_outputs(vec![acc]);
        assert!(g.live_and_nodes().is_empty());
        assert_eq!(g.eval(&[true, true, false, false, false, false]), vec![false]);
        assert_eq!(g.eval(&[true, false, false, false, false, true]), vec![false]);
        assert_eq!(g.eval(&[true, false, false, false, false, false]), vec![true]);
    }

    #[test]
    fn parity_support_cancels() {
        let mut g = Xag::new(3);
        let (a, b, c) = (g.input(0), g.input(1), g.input(2));
        let ab = g.xor2(a, b);
        let abc = g.xor2(ab, c);
        let back = g.xor2(abc, b); // b cancels
        let (support, parity) = g.parity_support(back);
        assert_eq!(support, vec![a.node(), c.node()]);
        assert!(!parity);
        let (_, parity_inv) = g.parity_support(back.not());
        assert!(parity_inv);
    }

    #[test]
    fn bv_oracle_shape() {
        // (secret & x).xor_reduce() with constant secret folds to a parity
        // of the selected inputs: no AND nodes at all.
        let secret = [true, false, true, false];
        let mut g = Xag::new(4);
        let mut terms = Vec::new();
        for (i, &s) in secret.iter().enumerate() {
            let xin = g.input(i);
            let bit = if s { xin } else { g.const_false() };
            terms.push(bit);
        }
        let out = g.xor_many(terms);
        g.set_outputs(vec![out]);
        assert!(g.live_and_nodes().is_empty());
        assert_eq!(g.eval(&[true, true, false, true]), vec![true]);
        assert_eq!(g.eval(&[true, true, true, true]), vec![false]);
    }
}
