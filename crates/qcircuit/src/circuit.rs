//! The straight-line circuit form: the final, register-addressed shape of
//! a compiled kernel.
//!
//! A [`Circuit`] is stored flat: one fixed-size `Copy` record per op, in
//! execution order, and one qubit arena that holds every gate's controls
//! followed by its targets. Appending a gate extends the two arrays, so
//! building a circuit allocates per circuit rather than per gate, a clone
//! is two copies and a drop two frees. Ops are read through borrowed
//! [`CircuitOp`] views ([`Circuit::ops`]) and written only through the
//! builder methods, which check each op as it is appended.

use asdf_ir::GateKind;
use std::fmt;

/// One operation of a straight-line circuit, as a read-only view into a
/// [`Circuit`]. Build one to append it with [`Circuit::push`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CircuitOp<'a> {
    /// A (possibly controlled) gate.
    Gate {
        /// The base gate.
        gate: GateKind,
        /// Control qubit indices (all positive controls).
        controls: &'a [usize],
        /// Target qubit indices (`gate.num_targets()` of them).
        targets: &'a [usize],
    },
    /// Standard-basis measurement into classical bit `bit`.
    Measure {
        /// Measured qubit.
        qubit: usize,
        /// Destination classical bit.
        bit: usize,
    },
    /// Reset a qubit to |0>.
    Reset {
        /// The qubit.
        qubit: usize,
    },
}

impl CircuitOp<'_> {
    /// All qubit indices the op touches: a gate's controls, then its
    /// targets.
    pub fn qubits(&self) -> impl Iterator<Item = usize> + '_ {
        let (first, rest): (&[usize], &[usize]) = match self {
            CircuitOp::Gate { controls, targets, .. } => (controls, targets),
            CircuitOp::Measure { qubit, .. } | CircuitOp::Reset { qubit } => {
                (std::slice::from_ref(qubit), &[])
            }
        };
        first.iter().chain(rest).copied()
    }
}

/// Why an op cannot be appended to a circuit.
#[derive(Debug, Clone, PartialEq)]
pub enum CircuitError {
    /// A gate's target count differs from `gate.num_targets()`.
    TargetArity {
        /// The gate.
        gate: GateKind,
        /// The number of targets given.
        targets: usize,
    },
    /// A qubit index at or past the circuit's width.
    QubitOutOfRange {
        /// The index.
        qubit: usize,
    },
    /// A gate naming the same qubit twice.
    DuplicateQubit {
        /// The repeated index.
        qubit: usize,
    },
}

impl fmt::Display for CircuitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CircuitError::TargetArity { gate, targets } => write!(
                f,
                "target arity for {gate}: {targets} targets given, {} expected",
                gate.num_targets()
            ),
            CircuitError::QubitOutOfRange { qubit } => write!(f, "qubit {qubit} out of range"),
            CircuitError::DuplicateQubit { qubit } => write!(f, "duplicate qubit {qubit} in gate"),
        }
    }
}

impl std::error::Error for CircuitError {}

/// The stored form of one op.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Record {
    /// A gate on `qubits[start..start + num_controls]` (its controls),
    /// followed by its `gate.num_targets()` targets.
    Gate {
        gate: GateKind,
        start: usize,
        num_controls: usize,
    },
    Measure {
        qubit: usize,
        bit: usize,
    },
    Reset {
        qubit: usize,
    },
}

impl Record {
    /// This record with its arena offset moved `by` entries on.
    fn shifted(self, by: usize) -> Record {
        match self {
            Record::Gate { gate, start, num_controls } => {
                Record::Gate { gate, start: start + by, num_controls }
            }
            other => other,
        }
    }
}

/// A straight-line, register-addressed quantum circuit.
///
/// Ops are kept as one record per op plus one shared qubit arena (see the
/// module docs); the arena holds exactly the gates' qubits in op
/// order, so two circuits with the same ops compare equal.
///
/// # Example
///
/// ```
/// use asdf_ir::GateKind;
/// use asdf_qcircuit::{Circuit, CircuitOp};
///
/// let mut c = Circuit::new(2);
/// c.gate(GateKind::H, &[], &[0]);
/// c.gate(GateKind::X, &[0], &[1]); // CX
/// c.measure(0, 0);
/// c.measure(1, 1);
/// assert_eq!(c.num_qubits, 2);
/// assert_eq!(c.num_bits(), 2);
/// assert_eq!(c.two_qubit_gate_count(), 1);
/// assert_eq!(
///     c.ops().nth(1),
///     Some(CircuitOp::Gate { gate: GateKind::X, controls: &[0], targets: &[1] })
/// );
/// ```
#[derive(Clone, PartialEq, Default)]
pub struct Circuit {
    /// Number of qubit registers.
    pub num_qubits: usize,
    /// One record per op, in execution order.
    records: Vec<Record>,
    /// Every gate's controls then targets, in op order.
    qubits: Vec<usize>,
}

impl Circuit {
    /// An empty circuit on `num_qubits` qubits.
    pub fn new(num_qubits: usize) -> Self {
        Circuit { num_qubits, records: Vec::new(), qubits: Vec::new() }
    }

    /// The ops in execution order.
    pub fn ops(&self) -> impl ExactSizeIterator<Item = CircuitOp<'_>> + '_ {
        self.records.iter().map(|record| self.view(record))
    }

    fn view(&self, record: &Record) -> CircuitOp<'_> {
        match *record {
            Record::Gate { gate, start, num_controls } => {
                let (controls, targets) =
                    self.gate_qubits(gate, start, num_controls).split_at(num_controls);
                CircuitOp::Gate { gate, controls, targets }
            }
            Record::Measure { qubit, bit } => CircuitOp::Measure { qubit, bit },
            Record::Reset { qubit } => CircuitOp::Reset { qubit },
        }
    }

    fn gate_qubits(&self, gate: GateKind, start: usize, num_controls: usize) -> &[usize] {
        &self.qubits[start..start + num_controls + gate.num_targets()]
    }

    /// The qubits of the op `record` stores, controls first.
    fn record_qubits<'a>(&'a self, record: &'a Record) -> &'a [usize] {
        match record {
            Record::Gate { gate, start, num_controls } => {
                self.gate_qubits(*gate, *start, *num_controls)
            }
            Record::Measure { qubit, .. } | Record::Reset { qubit } => std::slice::from_ref(qubit),
        }
    }

    /// Checks `record` against the circuit's width; a gate's qubits must
    /// already be in the arena. The error names the first qubit, in
    /// operand order, that is out of range or repeats an earlier one.
    fn check(&self, record: &Record) -> Result<(), CircuitError> {
        let qubits = self.record_qubits(record);
        // Every qubit before the first out-of-range one is in range, so a
        // repeat among them fails first.
        let in_range = qubits.iter().position(|&q| q >= self.num_qubits).unwrap_or(qubits.len());
        if let Some(qubit) = first_repeat(&qubits[..in_range]) {
            return Err(CircuitError::DuplicateQubit { qubit });
        }
        match qubits.get(in_range) {
            Some(&qubit) => Err(CircuitError::QubitOutOfRange { qubit }),
            None => Ok(()),
        }
    }

    /// Appends `op` after checking it: every qubit in range, no qubit
    /// repeated within a gate, and `gate.num_targets()` targets. On error
    /// the circuit is unchanged.
    ///
    /// # Errors
    ///
    /// The first check `op` fails, as a [`CircuitError`].
    pub fn try_push(&mut self, op: CircuitOp<'_>) -> Result<(), CircuitError> {
        let record = match op {
            CircuitOp::Gate { gate, controls, targets } => {
                if targets.len() != gate.num_targets() {
                    return Err(CircuitError::TargetArity { gate, targets: targets.len() });
                }
                let start = self.qubits.len();
                self.qubits.extend_from_slice(controls);
                self.qubits.extend_from_slice(targets);
                Record::Gate { gate, start, num_controls: controls.len() }
            }
            CircuitOp::Measure { qubit, bit } => Record::Measure { qubit, bit },
            CircuitOp::Reset { qubit } => Record::Reset { qubit },
        };
        if let Err(error) = self.check(&record) {
            if let Record::Gate { start, .. } = record {
                self.qubits.truncate(start);
            }
            return Err(error);
        }
        self.records.push(record);
        Ok(())
    }

    /// Appends `op`.
    ///
    /// # Panics
    ///
    /// Panics if [`Circuit::try_push`] would fail, with its message.
    #[track_caller]
    pub fn push(&mut self, op: CircuitOp<'_>) {
        if let Err(error) = self.try_push(op) {
            panic!("{error}");
        }
    }

    /// Appends a gate.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range, repeated, or the target count
    /// does not match the gate.
    #[track_caller]
    pub fn gate(&mut self, gate: GateKind, controls: &[usize], targets: &[usize]) {
        self.push(CircuitOp::Gate { gate, controls, targets });
    }

    /// Appends a measurement.
    ///
    /// # Panics
    ///
    /// Panics if the qubit is out of range.
    #[track_caller]
    pub fn measure(&mut self, qubit: usize, bit: usize) {
        self.push(CircuitOp::Measure { qubit, bit });
    }

    /// Appends a reset.
    ///
    /// # Panics
    ///
    /// Panics if the qubit is out of range.
    #[track_caller]
    pub fn reset(&mut self, qubit: usize) {
        self.push(CircuitOp::Reset { qubit });
    }

    /// Adds a fresh qubit register, returning its index.
    pub fn add_qubit(&mut self) -> usize {
        self.num_qubits += 1;
        self.num_qubits - 1
    }

    /// A copy of this circuit with basis-state input preparation prepended:
    /// an X gate on qubit `q` for every set `bits[q]`. Used to run a
    /// compiled kernel on a chosen basis input (simulators start from
    /// |0...0>).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is longer than the register.
    pub fn with_basis_input(&self, bits: &[bool]) -> Circuit {
        assert!(bits.len() <= self.num_qubits, "input wider than the circuit");
        let mut out = Circuit::new(self.num_qubits);
        for (q, &bit) in bits.iter().enumerate() {
            if bit {
                out.gate(GateKind::X, &[], &[q]);
            }
        }
        // The ops were checked against this same width.
        let base = out.qubits.len();
        out.qubits.extend_from_slice(&self.qubits);
        out.records.extend(self.records.iter().map(|record| record.shifted(base)));
        out
    }

    /// Number of classical bits (one past the largest measurement
    /// destination).
    pub fn num_bits(&self) -> usize {
        self.records
            .iter()
            .filter_map(|record| match record {
                Record::Measure { bit, .. } => Some(bit + 1),
                _ => None,
            })
            .max()
            .unwrap_or(0)
    }

    /// Total gate count (excluding measurements and resets).
    pub fn gate_count(&self) -> usize {
        self.records.iter().filter(|record| matches!(record, Record::Gate { .. })).count()
    }

    /// Count of gates acting on two or more qubits (controls included).
    pub fn two_qubit_gate_count(&self) -> usize {
        self.records
            .iter()
            .filter(|record| {
                matches!(record, Record::Gate { gate, num_controls, .. }
                    if num_controls + gate.num_targets() >= 2)
            })
            .count()
    }

    /// T-gate count: `T`/`Tdg` gates plus uncontrolled `P` and `Rz` at odd
    /// multiples of π/4, each a T or T† times a Clifford phase.
    pub fn t_count(&self) -> usize {
        self.records
            .iter()
            .filter(|record| {
                matches!(record, Record::Gate { gate, num_controls: 0, .. } if is_t_like(*gate))
            })
            .count()
    }

    /// Count of non-Clifford rotations other than T (arbitrary `P`, `Rx`,
    /// `Ry`, `Rz` angles), which fault-tolerant hardware synthesizes at
    /// extra cost.
    pub fn rotation_count(&self) -> usize {
        self.records
            .iter()
            .filter(|record| match record {
                Record::Gate { gate, .. } => {
                    gate.param().is_some() && !is_clifford_angle(*gate) && !is_t_like(*gate)
                }
                _ => false,
            })
            .count()
    }

    /// Number of measurements.
    pub fn measure_count(&self) -> usize {
        self.records.iter().filter(|record| matches!(record, Record::Measure { .. })).count()
    }

    /// Circuit depth: the length of the longest chain of ops sharing
    /// qubits, computed by greedy per-qubit scheduling.
    pub fn depth(&self) -> usize {
        let mut avail = vec![0usize; self.num_qubits];
        let mut depth = 0usize;
        for record in &self.records {
            let qubits = self.record_qubits(record);
            let end = qubits.iter().map(|&q| avail[q]).max().unwrap_or(0) + 1;
            for &q in qubits {
                avail[q] = end;
            }
            depth = depth.max(end);
        }
        depth
    }

    /// Appends all ops of `other`, whose qubit `i` maps to `mapping[i]`.
    ///
    /// # Panics
    ///
    /// Panics if the mapping is too short or out of range, or maps two
    /// qubits of one gate to the same qubit.
    #[track_caller]
    pub fn append_mapped(&mut self, other: &Circuit, mapping: &[usize]) {
        assert!(mapping.len() >= other.num_qubits, "mapping too short");
        let base = self.qubits.len();
        self.qubits.extend(other.qubits.iter().map(|&q| mapping[q]));
        self.records.reserve(other.records.len());
        for record in &other.records {
            let record = match record.shifted(base) {
                Record::Measure { qubit, bit } => Record::Measure { qubit: mapping[qubit], bit },
                Record::Reset { qubit } => Record::Reset { qubit: mapping[qubit] },
                gate => gate,
            };
            if let Err(error) = self.check(&record) {
                panic!("{error}");
            }
            self.records.push(record);
        }
    }
}

fn is_t_like(gate: GateKind) -> bool {
    match gate {
        GateKind::T | GateKind::Tdg => true,
        GateKind::P(theta) | GateKind::Rz(theta) => {
            let quarter = std::f64::consts::FRAC_PI_4;
            let k = (theta / quarter).round();
            (theta - k * quarter).abs() < 1e-9 && k.rem_euclid(2.0) == 1.0
        }
        _ => false,
    }
}

fn is_clifford_angle(gate: GateKind) -> bool {
    match gate.param() {
        Some(theta) => {
            let half = std::f64::consts::FRAC_PI_2;
            let ratio = theta / half;
            (ratio - ratio.round()).abs() < 1e-9
        }
        None => true,
    }
}

/// Prints as `Circuit { num_qubits, ops: [..] }`, each op as its
/// [`CircuitOp`] view.
impl fmt::Debug for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Ops<'a>(&'a Circuit);
        impl fmt::Debug for Ops<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_list().entries(self.0.ops()).finish()
            }
        }
        f.debug_struct("Circuit")
            .field("num_qubits", &self.num_qubits)
            .field("ops", &Ops(self))
            .finish()
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "circuit[{} qubits, {} ops]", self.num_qubits, self.records.len())?;
        for op in self.ops() {
            match op {
                CircuitOp::Gate { gate, controls, targets } => {
                    write!(f, "  {gate}")?;
                    if !controls.is_empty() {
                        write!(f, " ctrl{controls:?}")?;
                    }
                    writeln!(f, " {targets:?}")?;
                }
                CircuitOp::Measure { qubit, bit } => writeln!(f, "  measure q{qubit} -> c{bit}")?,
                CircuitOp::Reset { qubit } => writeln!(f, "  reset q{qubit}")?,
            }
        }
        Ok(())
    }
}

/// Gates of at most this many qubits are checked for repeats pairwise,
/// which allocates nothing.
const PAIRWISE_MAX: usize = 16;

/// The first qubit that repeats an earlier one. Wider gates mark a bitset
/// over their qubits' span, in time linear in the gate's width plus a 64th
/// of that span; grover's oracle is one gate on all N + 1 wires.
fn first_repeat(qubits: &[usize]) -> Option<usize> {
    if qubits.len() <= PAIRWISE_MAX {
        return (1..qubits.len()).find(|&i| qubits[..i].contains(&qubits[i])).map(|i| qubits[i]);
    }
    let lo = *qubits.iter().min()?;
    let hi = *qubits.iter().max()?;
    let mut seen = vec![0u64; (hi - lo) / 64 + 1];
    qubits.iter().copied().find(|&q| {
        let (word, bit) = ((q - lo) / 64, 1u64 << ((q - lo) % 64));
        let repeated = seen[word] & bit != 0;
        seen[word] |= bit;
        repeated
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn metrics() {
        let mut c = Circuit::new(3);
        c.gate(GateKind::H, &[], &[0]);
        c.gate(GateKind::T, &[], &[1]);
        c.gate(GateKind::Tdg, &[], &[1]);
        c.gate(GateKind::X, &[0, 1], &[2]);
        c.gate(GateKind::P(0.3), &[], &[0]);
        c.measure(2, 0);
        assert_eq!(c.gate_count(), 5);
        assert_eq!(c.t_count(), 2);
        assert_eq!(c.rotation_count(), 1);
        assert_eq!(c.two_qubit_gate_count(), 1);
        assert_eq!(c.measure_count(), 1);
        assert_eq!(c.num_bits(), 1);
    }

    #[test]
    fn depth_respects_parallelism() {
        let mut c = Circuit::new(4);
        // Two disjoint CX gates: depth 1.
        c.gate(GateKind::X, &[0], &[1]);
        c.gate(GateKind::X, &[2], &[3]);
        assert_eq!(c.depth(), 1);
        // A gate overlapping both layers pushes depth to 2.
        c.gate(GateKind::X, &[1], &[2]);
        assert_eq!(c.depth(), 2);
    }

    #[test]
    fn p_quarter_counts_as_t() {
        let mut c = Circuit::new(1);
        c.gate(GateKind::P(std::f64::consts::FRAC_PI_4), &[], &[0]);
        assert_eq!(c.t_count(), 1);
        assert_eq!(c.rotation_count(), 0);
        let mut c = Circuit::new(1);
        c.gate(GateKind::P(std::f64::consts::FRAC_PI_2), &[], &[0]);
        assert_eq!(c.t_count(), 0, "P(pi/2) is Clifford (S)");
    }

    #[test]
    fn odd_multiples_of_a_quarter_turn_count_as_one_t() {
        let quarter = std::f64::consts::FRAC_PI_4;
        for k in [1, 3, 5, 7, 9, -1, -3, -5, -7] {
            for gate in [GateKind::P(f64::from(k) * quarter), GateKind::Rz(f64::from(k) * quarter)]
            {
                let mut c = Circuit::new(1);
                c.gate(gate, &[], &[0]);
                assert_eq!((c.t_count(), c.rotation_count()), (1, 0), "{gate:?}");
            }
        }
        for k in [0, 2, 4, -2, -6] {
            let mut c = Circuit::new(1);
            c.gate(GateKind::P(f64::from(k) * quarter), &[], &[0]);
            assert_eq!((c.t_count(), c.rotation_count()), (0, 0), "P({k}π/4) is Clifford");
        }
        let mut c = Circuit::new(1);
        c.gate(GateKind::P(1.5 * quarter), &[], &[0]);
        assert_eq!((c.t_count(), c.rotation_count()), (0, 1), "P(3π/8) is a rotation");
    }

    /// The pairwise scan `Circuit::check` made before, O(k²) for a k-qubit
    /// gate: the reference for its error order.
    fn check_reference(num_qubits: usize, qubits: &[usize]) -> Result<(), CircuitError> {
        for (i, &qubit) in qubits.iter().enumerate() {
            if qubit >= num_qubits {
                return Err(CircuitError::QubitOutOfRange { qubit });
            }
            if qubits[..i].contains(&qubit) {
                return Err(CircuitError::DuplicateQubit { qubit });
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]
        /// On gates below and above the pairwise limit, with qubits past
        /// the width and repeats anywhere, `try_push` fails as the
        /// reference scan does.
        #[test]
        fn check_reports_the_reference_scans_error(
            (width, mut qubits, copies) in (1usize..=40).prop_flat_map(|width| (
                Just(width),
                proptest::sample::subsequence((0..width + 4).collect(), 1..=width + 4)
                    .prop_shuffle(),
                proptest::collection::vec((0usize..64, 0usize..64), 0..3),
            ))
        ) {
            let len = qubits.len();
            for (to, from) in copies {
                qubits[to % len] = qubits[from % len];
            }
            let (target, controls) = qubits.split_last().expect("at least one qubit");
            let gate = CircuitOp::Gate { gate: GateKind::X, controls, targets: &[*target] };
            prop_assert_eq!(
                Circuit::new(width).try_push(gate),
                check_reference(width, &qubits),
                "{:?} on {} qubits", qubits, width
            );
        }
    }

    #[test]
    #[should_panic(expected = "duplicate qubit")]
    fn rejects_duplicate_qubits() {
        let mut c = Circuit::new(2);
        c.gate(GateKind::X, &[1], &[1]);
    }

    #[test]
    fn rejected_ops_leave_the_circuit_unchanged() {
        let mut c = Circuit::new(3);
        c.gate(GateKind::X, &[0], &[1]);
        let before = c.clone();
        let gate = |gate, controls, targets| CircuitOp::Gate { gate, controls, targets };
        let cases = [
            (gate(GateKind::X, &[0, 1], &[3]), CircuitError::QubitOutOfRange { qubit: 3 }),
            (gate(GateKind::Z, &[2, 0], &[2]), CircuitError::DuplicateQubit { qubit: 2 }),
            (
                gate(GateKind::Swap, &[], &[0]),
                CircuitError::TargetArity { gate: GateKind::Swap, targets: 1 },
            ),
            (CircuitOp::Measure { qubit: 3, bit: 0 }, CircuitError::QubitOutOfRange { qubit: 3 }),
            (CircuitOp::Reset { qubit: 9 }, CircuitError::QubitOutOfRange { qubit: 9 }),
        ];
        for (op, error) in cases {
            assert_eq!(c.try_push(op), Err(error), "{op:?}");
            assert_eq!(c, before, "{op:?} left a trace");
        }
        // The arena still lines up: the next gate reads back intact.
        c.gate(GateKind::Swap, &[2], &[0, 1]);
        assert_eq!(
            c.ops().last(),
            Some(CircuitOp::Gate { gate: GateKind::Swap, controls: &[2], targets: &[0, 1] })
        );
    }

    #[test]
    fn views_debug_and_display_like_owned_ops() {
        let mut c = Circuit::new(3);
        c.gate(GateKind::X, &[0, 1], &[2]);
        c.measure(2, 0);
        c.reset(1);
        assert_eq!(
            format!("{c:?}"),
            "Circuit { num_qubits: 3, ops: [Gate { gate: X, controls: [0, 1], targets: [2] }, \
             Measure { qubit: 2, bit: 0 }, Reset { qubit: 1 }] }"
        );
        assert_eq!(
            c.to_string(),
            "circuit[3 qubits, 3 ops]\n  x ctrl[0, 1] [2]\n  measure q2 -> c0\n  reset q1\n"
        );
        let qubits: Vec<Vec<usize>> = c.ops().map(|op| op.qubits().collect()).collect();
        assert_eq!(qubits, vec![vec![0, 1, 2], vec![2], vec![1]]);
    }

    #[test]
    fn basis_input_prepends_flips() {
        let mut c = Circuit::new(3);
        c.gate(GateKind::X, &[0], &[2]);
        c.measure(2, 0);
        let prepared = c.with_basis_input(&[true, false, true]);
        let mut expected = Circuit::new(3);
        expected.gate(GateKind::X, &[], &[0]);
        expected.gate(GateKind::X, &[], &[2]);
        expected.gate(GateKind::X, &[0], &[2]);
        expected.measure(2, 0);
        assert_eq!(prepared, expected);
    }

    #[test]
    fn append_mapped_remaps() {
        let mut inner = Circuit::new(2);
        inner.gate(GateKind::X, &[0], &[1]);
        inner.measure(1, 0);
        let mut outer = Circuit::new(4);
        outer.gate(GateKind::H, &[], &[0]);
        outer.append_mapped(&inner, &[3, 1]);
        let ops: Vec<CircuitOp<'_>> = outer.ops().skip(1).collect();
        assert_eq!(
            ops,
            vec![
                CircuitOp::Gate { gate: GateKind::X, controls: &[3], targets: &[1] },
                CircuitOp::Measure { qubit: 1, bit: 0 },
            ]
        );
    }

    #[test]
    #[should_panic(expected = "duplicate qubit 2 in gate")]
    fn append_mapped_rejects_merged_qubits() {
        let mut inner = Circuit::new(2);
        inner.gate(GateKind::X, &[0], &[1]);
        Circuit::new(3).append_mapped(&inner, &[2, 2]);
    }
}
