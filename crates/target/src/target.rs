//! Named hardware-target descriptions and the route/validate entry points.
//!
//! A [`Target`] bundles a coupling graph, a native gate set, and per-gate
//! costs under a parseable name:
//!
//! | form            | topology                                  |
//! |-----------------|-------------------------------------------|
//! | `linear-N`      | path `0-1-…-(N-1)`, `N >= 2`              |
//! | `ring-N`        | cycle, `N >= 3`                           |
//! | `grid-RxC`      | `R × C` lattice in row-major order        |
//! | `edges:a-b,c-d` | explicit edge list (must be connected)    |
//!
//! Every form is bounded by `MAX_TARGET_QUBITS` physical qubits, checked
//! before the coupling graph is built.

use crate::gateset::{GateCosts, NativeGateSet};
use crate::route::{self, translate_to_native, Routed};
use crate::topology::CouplingGraph;
use asdf_qcircuit::{Circuit, CircuitOp};
use std::fmt;

/// Example names of the built-in topology families, used for
/// "did you mean" suggestions and documentation.
pub(crate) const BUILTIN_TARGETS: &[&str] = &["linear-16", "ring-8", "grid-4x4"];

/// The most physical qubits a target may have. The built-in families
/// compute hop distances arithmetically and allocate nothing per qubit,
/// but an `edges:` target's coupling graph holds an n×n `u32` distance
/// table (4 MB at this bound), and the router keeps per-qubit layout
/// arrays, so a larger name is rejected before anything is allocated for
/// it.
pub(crate) const MAX_TARGET_QUBITS: usize = 1024;

/// Substring every capacity-failure message contains; see
/// [`crate::is_capacity_error`].
pub(crate) const CAPACITY_MARKER: &str = "exceeds target capacity";

/// Failures in parsing a target name, fitting a circuit onto a device, or
/// validating a supposedly-routed circuit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TargetError {
    /// The name matches no known topology family.
    Unknown {
        /// What the user wrote.
        requested: String,
        /// A near-miss correction, when one is close enough.
        suggestion: Option<String>,
    },
    /// The family is recognized but the parameters are malformed.
    Invalid {
        /// What the user wrote.
        name: String,
        /// What was wrong with it.
        reason: String,
    },
    /// The circuit needs more qubits than the device has.
    Capacity {
        /// Target name.
        target: String,
        /// Qubits the translated circuit needs (ancillas included).
        needed: usize,
        /// Qubits the device has.
        available: usize,
    },
    /// A circuit claimed to be routed violates the target's constraints.
    Validation {
        /// Target name.
        target: String,
        /// First violation found.
        reason: String,
    },
}

impl fmt::Display for TargetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TargetError::Unknown { requested, suggestion } => {
                write!(
                    f,
                    "unknown target `{requested}`; expected linear-N, ring-N, grid-RxC, \
                     or edges:a-b,c-d,..."
                )?;
                if let Some(s) = suggestion {
                    write!(f, " (did you mean `{s}`?)")?;
                }
                Ok(())
            }
            TargetError::Invalid { name, reason } => {
                write!(f, "invalid target `{name}`: {reason}")
            }
            TargetError::Capacity { target, needed, available } => {
                write!(
                    f,
                    "circuit needs {needed} qubits but `{target}` has {available}: \
                     {CAPACITY_MARKER}"
                )
            }
            TargetError::Validation { target, reason } => {
                write!(f, "circuit is not valid for `{target}`: {reason}")
            }
        }
    }
}

impl std::error::Error for TargetError {}

/// A hardware target: named coupling graph + native gate set + costs.
#[derive(Debug, Clone, PartialEq)]
pub struct Target {
    name: String,
    graph: CouplingGraph,
    gates: NativeGateSet,
    costs: GateCosts,
}

impl Target {
    /// Parses a target name (see the module table for the grammar).
    ///
    /// # Errors
    ///
    /// [`TargetError::Unknown`] for an unrecognized family (with a
    /// "did you mean" suggestion when one is close),
    /// [`TargetError::Invalid`] for recognized-but-malformed parameters,
    /// including a size above `MAX_TARGET_QUBITS`.
    pub fn parse(name: &str) -> Result<Target, TargetError> {
        let invalid = |reason: String| TargetError::Invalid { name: name.to_string(), reason };
        let graph = if let Some(n) = name.strip_prefix("linear-") {
            let n: usize = n.parse().map_err(|_| invalid(format!("`{n}` is not a number")))?;
            if n < 2 {
                return Err(invalid("a linear target needs at least 2 qubits".into()));
            }
            CouplingGraph::linear(within_bound(n).map_err(invalid)?)
        } else if let Some(n) = name.strip_prefix("ring-") {
            let n: usize = n.parse().map_err(|_| invalid(format!("`{n}` is not a number")))?;
            if n < 3 {
                return Err(invalid("a ring target needs at least 3 qubits".into()));
            }
            CouplingGraph::ring(within_bound(n).map_err(invalid)?)
        } else if let Some(dims) = name.strip_prefix("grid-") {
            let (r, c) = dims
                .split_once('x')
                .ok_or_else(|| invalid(format!("`{dims}` is not of the form RxC")))?;
            let r: usize = r.parse().map_err(|_| invalid(format!("`{r}` is not a number")))?;
            let c: usize = c.parse().map_err(|_| invalid(format!("`{c}` is not a number")))?;
            if within_bound(r.saturating_mul(c)).map_err(invalid)? < 2 {
                return Err(invalid("a grid target needs at least 1x2 qubits".into()));
            }
            CouplingGraph::grid(r, c)
        } else if let Some(list) = name.strip_prefix("edges:") {
            let mut edges = Vec::new();
            for pair in list.split(',') {
                let (a, b) = pair
                    .split_once('-')
                    .ok_or_else(|| invalid(format!("edge `{pair}` is not of the form a-b")))?;
                let a: usize = a.parse().map_err(|_| invalid(format!("`{a}` is not a number")))?;
                let b: usize = b.parse().map_err(|_| invalid(format!("`{b}` is not a number")))?;
                edges.push((a, b));
            }
            let top = edges.iter().map(|&(a, b)| a.max(b).saturating_add(1)).max();
            let n = within_bound(top.unwrap_or(0)).map_err(invalid)?;
            if n < 2 {
                return Err(invalid("an edge-list target needs at least one edge".into()));
            }
            let graph = CouplingGraph::from_edges(n, &edges).map_err(invalid)?;
            if !graph.is_connected() {
                return Err(invalid("the coupling graph must be connected".into()));
            }
            graph
        } else {
            return Err(TargetError::Unknown {
                requested: name.to_string(),
                suggestion: Target::suggest(name),
            });
        };
        Ok(Target {
            name: name.to_string(),
            graph,
            gates: NativeGateSet,
            costs: GateCosts::default(),
        })
    }

    /// A near-miss correction for an unrecognized target name: a close
    /// topology-family keyword (keeping the written dimensions) or a close
    /// built-in example.
    pub(crate) fn suggest(name: &str) -> Option<String> {
        if let Some((word, rest)) = name.split_once('-') {
            for shape in ["linear", "ring", "grid"] {
                if word != shape && edit_distance(word, shape) <= 2 {
                    return Some(format!("{shape}-{rest}"));
                }
            }
        }
        BUILTIN_TARGETS
            .iter()
            .map(|c| (edit_distance(name, c), *c))
            .filter(|&(d, _)| d <= 3)
            .min()
            .map(|(_, c)| c.to_string())
    }

    /// The name this target was parsed from.
    #[cfg(test)]
    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    /// The coupling graph.
    #[cfg(test)]
    pub(crate) fn graph(&self) -> &CouplingGraph {
        &self.graph
    }

    /// Number of physical qubits.
    #[cfg(test)]
    pub(crate) fn num_qubits(&self) -> usize {
        self.graph.num_qubits()
    }

    /// Compiles `circuit` for this target: translates into the native
    /// set, places logical qubits, and inserts SWAPs until every
    /// two-qubit gate acts on a coupled pair.
    ///
    /// When the (translated) circuit is narrower than the device and the
    /// device's index-prefix subgraph is connected, routing happens on
    /// that prefix, so the routed circuit keeps the translated width —
    /// this keeps small circuits cheap to simulate and is always the case
    /// for `linear`, `ring`, and row-major `grid` devices.
    ///
    /// # Errors
    ///
    /// [`TargetError::Capacity`] if the translated circuit (including
    /// decomposition ancillas) needs more qubits than the device has.
    pub fn route(&self, circuit: &Circuit) -> Result<Routed, TargetError> {
        let native = translate_to_native(circuit);
        if native.num_qubits > self.graph.num_qubits() {
            return Err(TargetError::Capacity {
                target: self.name.clone(),
                needed: native.num_qubits,
                available: self.graph.num_qubits(),
            });
        }
        let prefix = self.graph.induced_prefix(native.num_qubits);
        let graph = prefix.as_deref().unwrap_or(&self.graph);
        Ok(route::run(&native, graph, &self.name, &self.costs))
    }

    /// Checks that `circuit` respects this target: it fits the device,
    /// uses only native gates, and every two-qubit gate acts on a coupled
    /// pair.
    ///
    /// # Errors
    ///
    /// [`TargetError::Validation`] naming the first violation.
    pub fn validate(&self, circuit: &Circuit) -> Result<(), TargetError> {
        let fail = |reason: String| TargetError::Validation { target: self.name.clone(), reason };
        if circuit.num_qubits > self.graph.num_qubits() {
            return Err(fail(format!(
                "{} qubits on a {}-qubit device",
                circuit.num_qubits,
                self.graph.num_qubits()
            )));
        }
        for op in circuit.ops() {
            if !self.gates.admits(&op) {
                return Err(fail(format!(
                    "non-native op {op:?} (native set is {})",
                    self.gates.describe()
                )));
            }
            if let CircuitOp::Gate { controls, targets, .. } = op {
                if let (&[c], &[t]) = (controls, targets) {
                    if !self.graph.coupled(c, t) {
                        return Err(fail(format!("two-qubit gate on uncoupled pair {c}-{t}")));
                    }
                }
            }
        }
        Ok(())
    }
}

/// `n` if it is at most [`MAX_TARGET_QUBITS`]. Callers compute sizes with
/// saturating arithmetic, so an overflowed size fails here too.
fn within_bound(n: usize) -> Result<usize, String> {
    if n <= MAX_TARGET_QUBITS {
        Ok(n)
    } else {
        Err(format!("a target has at most {MAX_TARGET_QUBITS} qubits"))
    }
}

/// Levenshtein edit distance, used for "did you mean" suggestions here
/// and in the backend registry.
pub fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::is_capacity_error;
    use asdf_ir::GateKind;

    #[test]
    fn builtin_names_parse() {
        for name in BUILTIN_TARGETS {
            let t = Target::parse(name).expect(name);
            assert_eq!(t.name(), *name);
            assert!(t.graph().is_connected());
        }
        assert_eq!(Target::parse("linear-16").unwrap().num_qubits(), 16);
        assert_eq!(Target::parse("grid-4x4").unwrap().num_qubits(), 16);
        assert_eq!(Target::parse("ring-8").unwrap().num_qubits(), 8);
    }

    #[test]
    fn edge_list_form_parses_and_requires_connectivity() {
        let t = Target::parse("edges:0-1,1-2,2-3").unwrap();
        assert_eq!(t.num_qubits(), 4);
        assert!(t.graph().coupled(2, 3));
        assert!(matches!(Target::parse("edges:0-1,2-3"), Err(TargetError::Invalid { .. })));
        assert!(matches!(Target::parse("edges:0x1"), Err(TargetError::Invalid { .. })));
    }

    #[test]
    fn malformed_parameters_are_invalid_not_unknown() {
        assert!(matches!(Target::parse("linear-x"), Err(TargetError::Invalid { .. })));
        assert!(matches!(Target::parse("linear-1"), Err(TargetError::Invalid { .. })));
        assert!(matches!(Target::parse("ring-2"), Err(TargetError::Invalid { .. })));
        assert!(matches!(Target::parse("grid-4"), Err(TargetError::Invalid { .. })));
        assert!(matches!(Target::parse("grid-0x4"), Err(TargetError::Invalid { .. })));
        // Sizes above the bound, and sizes whose arithmetic overflows, are
        // rejected before the graph is built.
        let path_to_1024 = (0..1024).map(|i| format!("{i}-{}", i + 1)).collect::<Vec<_>>();
        let over = [
            "linear-1025".to_string(),
            "ring-1025".to_string(),
            "grid-33x32".to_string(),
            format!("edges:{}", path_to_1024.join(",")),
            format!("grid-{0}x{0}", usize::MAX),
            format!("edges:0-{}", usize::MAX),
        ];
        for name in &over {
            match Target::parse(name) {
                Err(TargetError::Invalid { reason, .. }) => {
                    assert!(reason.contains("at most 1024 qubits"), "{reason}");
                }
                other => panic!("expected Invalid for {name}, got {other:?}"),
            }
        }
        assert_eq!(Target::parse("linear-1024").unwrap().num_qubits(), MAX_TARGET_QUBITS);
        assert_eq!(Target::parse("grid-32x32").unwrap().num_qubits(), MAX_TARGET_QUBITS);
    }

    #[test]
    fn unknown_names_get_suggestions() {
        match Target::parse("liner-8") {
            Err(TargetError::Unknown { suggestion, .. }) => {
                assert_eq!(suggestion.as_deref(), Some("linear-8"));
            }
            other => panic!("expected Unknown, got {other:?}"),
        }
        match Target::parse("gird-4x4") {
            Err(TargetError::Unknown { suggestion, .. }) => {
                assert_eq!(suggestion.as_deref(), Some("grid-4x4"));
            }
            other => panic!("expected Unknown, got {other:?}"),
        }
        match Target::parse("zzzzzzzzzz") {
            Err(TargetError::Unknown { suggestion, .. }) => assert_eq!(suggestion, None),
            other => panic!("expected Unknown, got {other:?}"),
        }
    }

    #[test]
    fn capacity_errors_carry_the_marker() {
        let t = Target::parse("linear-2").unwrap();
        let c = Circuit::new(5);
        let err = t.route(&c).unwrap_err();
        assert!(matches!(err, TargetError::Capacity { needed: 5, available: 2, .. }));
        assert!(is_capacity_error(&err.to_string()), "{err}");
        assert!(!is_capacity_error(
            &TargetError::Unknown { requested: "x".into(), suggestion: None }.to_string()
        ));
    }

    #[test]
    fn routed_ghz_validates_on_every_builtin() {
        let mut ghz = Circuit::new(4);
        ghz.gate(GateKind::H, &[], &[0]);
        ghz.gate(GateKind::X, &[0], &[1]);
        ghz.gate(GateKind::X, &[0], &[2]);
        ghz.gate(GateKind::X, &[0], &[3]);
        for name in BUILTIN_TARGETS {
            let t = Target::parse(name).unwrap();
            let routed = t.route(&ghz).expect(name);
            t.validate(&routed.circuit).expect(name);
            assert_eq!(routed.circuit.num_qubits, 4, "prefix trimming keeps the width ({name})");
        }
    }

    #[test]
    fn toffoli_routes_through_decomposition() {
        let mut c = Circuit::new(4);
        c.gate(GateKind::X, &[0, 1, 2], &[3]);
        let t = Target::parse("linear-8").unwrap();
        let routed = t.route(&c).unwrap();
        t.validate(&routed.circuit).unwrap();
        assert!(routed.circuit.num_qubits > 4, "decomposition ancillas are routed too");
    }

    #[test]
    fn validate_rejects_violations() {
        let t = Target::parse("linear-3").unwrap();
        let mut wide = Circuit::new(4);
        wide.gate(GateKind::H, &[], &[0]);
        assert!(matches!(t.validate(&wide), Err(TargetError::Validation { .. })));

        let mut uncoupled = Circuit::new(3);
        uncoupled.gate(GateKind::X, &[0], &[2]);
        assert!(matches!(t.validate(&uncoupled), Err(TargetError::Validation { .. })));

        let mut nonnative = Circuit::new(3);
        nonnative.gate(GateKind::Swap, &[], &[0, 1]);
        assert!(matches!(t.validate(&nonnative), Err(TargetError::Validation { .. })));

        let mut ok = Circuit::new(3);
        ok.gate(GateKind::H, &[], &[0]);
        ok.gate(GateKind::X, &[1], &[2]);
        ok.measure(2, 0);
        assert!(t.validate(&ok).is_ok());
    }

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("linear", "liner"), 1);
        assert_eq!(edit_distance("grid", "gird"), 2);
        assert_eq!(edit_distance("qasm", "qasm"), 0);
    }
}
