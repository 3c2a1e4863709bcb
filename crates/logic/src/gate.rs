//! Reversible gates and classical reversible circuits.

use crate::perm::Permutation;
use std::fmt;

/// A multi-controlled X (Toffoli family) gate over classical lines.
///
/// Controls carry a polarity: `true` means control-on-1 (positive), `false`
/// control-on-0 (negative). Negative controls arise from inverted operands
/// during logic-network embedding; quantum lowering conjugates them with
/// `X` gates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct McxGate {
    /// `(line, positive)` control pairs.
    pub controls: Vec<(usize, bool)>,
    /// Target line whose bit is flipped when all controls match.
    pub target: usize,
}

impl McxGate {
    /// An uncontrolled NOT.
    pub(crate) fn not(target: usize) -> Self {
        McxGate { controls: Vec::new(), target }
    }

    /// A CNOT with a positive control.
    pub(crate) fn cnot(control: usize, target: usize) -> Self {
        McxGate { controls: vec![(control, true)], target }
    }

    /// A positively-controlled MCX.
    pub(crate) fn mcx(controls: impl IntoIterator<Item = usize>, target: usize) -> Self {
        McxGate { controls: controls.into_iter().map(|c| (c, true)).collect(), target }
    }

    /// Whether the gate would fire for classical input `bits`.
    pub(crate) fn fires(&self, bits: &[bool]) -> bool {
        self.controls.iter().all(|&(line, pos)| bits[line] == pos)
    }

    /// Applies the gate to a classical bit vector in place.
    ///
    /// # Panics
    ///
    /// Panics if any referenced line is out of range.
    pub(crate) fn apply(&self, bits: &mut [bool]) {
        if self.fires(bits) {
            bits[self.target] = !bits[self.target];
        }
    }
}

impl fmt::Display for McxGate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("mcx [")?;
        for (i, (line, pos)) in self.controls.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{}{line}", if *pos { "" } else { "!" })?;
        }
        write!(f, "] -> {}", self.target)
    }
}

/// A reversible classical circuit: a cascade of [`McxGate`]s over `lines`
/// bit lines, executed left to right.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RevCircuit {
    /// Number of lines.
    pub lines: usize,
    /// Gate cascade in execution order.
    pub gates: Vec<McxGate>,
}

impl RevCircuit {
    /// An empty circuit on `lines` lines.
    pub fn new(lines: usize) -> Self {
        RevCircuit { lines, gates: Vec::new() }
    }

    /// Appends a gate.
    ///
    /// # Panics
    ///
    /// Panics if the gate references lines outside the circuit.
    pub fn push(&mut self, gate: McxGate) {
        assert!(gate.target < self.lines, "target line out of range");
        assert!(gate.controls.iter().all(|&(l, _)| l < self.lines), "control line out of range");
        assert!(
            gate.controls.iter().all(|&(l, _)| l != gate.target),
            "control may not equal target"
        );
        self.gates.push(gate);
    }

    /// Runs the circuit on classical input bits.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != self.lines`.
    pub fn run(&self, input: &[bool]) -> Vec<bool> {
        assert_eq!(input.len(), self.lines, "input width mismatch");
        let mut bits = input.to_vec();
        for gate in &self.gates {
            gate.apply(&mut bits);
        }
        bits
    }

    /// The permutation this circuit computes (exponential in `lines`; for
    /// verification of small circuits).
    ///
    /// # Panics
    ///
    /// Panics if `lines > 20`.
    pub fn to_permutation(&self) -> Permutation {
        assert!(self.lines <= 20, "too many lines to tabulate");
        let size = 1usize << self.lines;
        let mut table = Vec::with_capacity(size);
        for x in 0..size {
            let bits: Vec<bool> =
                (0..self.lines).map(|i| (x >> (self.lines - 1 - i)) & 1 == 1).collect();
            let out = self.run(&bits);
            let y = out.iter().fold(0usize, |acc, &b| (acc << 1) | usize::from(b));
            table.push(y);
        }
        Permutation::from_table(table).expect("reversible circuits are bijections")
    }

    /// Total control count across gates (the cost metric transformation-
    /// based synthesis minimizes greedily).
    #[cfg(test)]
    pub(crate) fn control_cost(&self) -> usize {
        self.gates.iter().map(|g| g.controls.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cnot_truth_table() {
        let mut c = RevCircuit::new(2);
        c.push(McxGate::cnot(0, 1));
        assert_eq!(c.run(&[false, false]), vec![false, false]);
        assert_eq!(c.run(&[true, false]), vec![true, true]);
        assert_eq!(c.run(&[true, true]), vec![true, false]);
    }

    #[test]
    fn negative_controls() {
        let mut c = RevCircuit::new(2);
        c.push(McxGate { controls: vec![(0, false)], target: 1 });
        assert_eq!(c.run(&[false, false]), vec![false, true]);
        assert_eq!(c.run(&[true, false]), vec![true, false]);
    }

    #[test]
    fn toffoli_permutation() {
        let mut c = RevCircuit::new(3);
        c.push(McxGate::mcx([0, 1], 2));
        let p = c.to_permutation();
        // Only 110 <-> 111 swap.
        assert_eq!(p.apply(0b110), 0b111);
        assert_eq!(p.apply(0b111), 0b110);
        assert_eq!(p.apply(0b101), 0b101);
    }

    #[test]
    #[should_panic(expected = "control may not equal target")]
    fn rejects_control_on_target() {
        let mut c = RevCircuit::new(2);
        c.push(McxGate::cnot(1, 1));
    }
}
