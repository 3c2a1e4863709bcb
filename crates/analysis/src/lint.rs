//! The `asdf-lint` driver: runs the dataflow analyses over a module and
//! reports findings as structured [`Diagnostic`]s with stable `W0xxx`
//! codes.
//!
//! Every lint is *sound by construction*: it fires only on facts the
//! analyses prove definitely (a wire provably post-measurement, a state
//! provably |1⟩), never on merged "maybe" facts, so a correct program is
//! never flagged. Diagnostics carry the source span lowering stamped onto
//! the op (when known) for caret snippets, plus a `func:block:op` note in
//! the coordinate format the IR verifier's errors use.

use crate::clifford::{classify, GateClass};
use crate::commute::is_cancelling_pair;
use crate::framework::analyze;
use crate::liveness::{Liveness, LivenessAnalysis};
use crate::measure::{MeasFact, MeasureAnalysis};
use crate::state::{QState, StateAnalysis, StateFact};
use asdf_ast::diag::{Diagnostic, Span};
use asdf_ir::print::op_line;
use asdf_ir::{Func, Module, Op, OpKind};

/// A lint's registry entry.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LintInfo {
    /// Stable diagnostic code (`W0xxx` namespace).
    pub code: &'static str,
    /// Short kebab-case name.
    pub name: &'static str,
    /// Whether the lint only runs with [`LintOptions::pedantic`].
    pub pedantic: bool,
    /// One-line description.
    pub summary: &'static str,
}

/// All registered lints, in code order.
#[cfg(test)]
pub(crate) const LINTS: &[LintInfo] = &[
    LintInfo {
        code: "W0001",
        name: "gate-after-measure",
        pedantic: false,
        summary: "a gate is applied to a provably post-measurement qubit",
    },
    LintInfo {
        code: "W0002",
        name: "dead-wire-gate",
        pedantic: true,
        summary: "a gate's outputs are all reset and released unobserved",
    },
    LintInfo {
        code: "W0003",
        name: "dirty-zero-release",
        pedantic: false,
        summary: "a |0>-asserted release frees a qubit that is provably |1>",
    },
    LintInfo {
        code: "W0004",
        name: "clifford-angle-rotation",
        pedantic: true,
        summary: "a parameterized rotation's angle is a pi/4 multiple (discrete gates suffice)",
    },
    LintInfo {
        code: "W0005",
        name: "adjacent-cancelling-pair",
        pedantic: true,
        summary: "two wire-adjacent gates cancel (the peephole pass would remove them)",
    },
];

/// Lint driver configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LintOptions {
    /// Also run the pedantic (style/optimization-hint) lints. These fire
    /// on correct programs — e.g. every unoptimized pipeline trips
    /// W0005 — so they are off by default.
    pub pedantic: bool,
}

/// Attaches the op's span label (when lowering stamped one) and the
/// `func:block:op` location note.
fn finish(
    diag: Diagnostic,
    label: &str,
    func: &Func,
    block_no: usize,
    idx: usize,
    op: &Op,
) -> Diagnostic {
    let diag = if op.span.is_unknown() {
        diag
    } else {
        diag.with_label(Span::new(op.span.start as usize, op.span.end as usize), label)
    };
    diag.with_note(format!("at {}:{}:{}: {}", func.name, block_no, idx, op_line(op)))
}

/// Lints one function, appending findings to `out`.
pub(crate) fn lint_func(func: &Func, opts: &LintOptions, out: &mut Vec<Diagnostic>) {
    let measured = analyze(func, &mut MeasureAnalysis);
    let states = analyze(func, &mut StateAnalysis);
    let liveness = analyze(func, &mut LivenessAnalysis);

    for (block_no, path) in func.block_paths().iter().enumerate() {
        let block = func.block_at(path);
        for (idx, op) in block.ops.iter().enumerate() {
            match &op.kind {
                OpKind::Gate { gate, .. } => {
                    if op.operands.iter().any(|&v| *measured.get(v) == MeasFact::Measured) {
                        out.push(finish(
                            Diagnostic::warning(
                                "W0001",
                                format!(
                                    "gate {} is applied to an already-measured qubit",
                                    gate.name()
                                ),
                            )
                            .with_note(
                                "the measurement outcome was already extracted; this gate cannot \
                                 affect it"
                                    .to_string(),
                            ),
                            "gate on a post-measurement wire",
                            func,
                            block_no,
                            idx,
                            op,
                        ));
                    }
                    if opts.pedantic
                        && !op.results.is_empty()
                        && op.results.iter().all(|&r| *liveness.get(r) == Liveness::Dead)
                    {
                        out.push(finish(
                            Diagnostic::warning(
                                "W0002",
                                format!(
                                    "gate {} acts only on dead wires (every output is reset and \
                                     released unobserved)",
                                    gate.name()
                                ),
                            ),
                            "gate with no observable effect",
                            func,
                            block_no,
                            idx,
                            op,
                        ));
                    }
                    if opts.pedantic
                        && gate.param().is_some()
                        && classify(*gate) != GateClass::Rotation
                    {
                        out.push(finish(
                            Diagnostic::warning(
                                "W0004",
                                format!(
                                    "rotation {gate} has a pi/4-multiple angle; discrete \
                                     Clifford+T gates represent it exactly"
                                ),
                            ),
                            "synthesizable rotation",
                            func,
                            block_no,
                            idx,
                            op,
                        ));
                    }
                    if opts.pedantic {
                        if let Some(prev) =
                            block.ops[..idx].iter().find(|prev| is_cancelling_pair(prev, op))
                        {
                            let OpKind::Gate { gate: prev_gate, .. } = &prev.kind else {
                                unreachable!("cancelling pairs are gates")
                            };
                            out.push(finish(
                                Diagnostic::warning(
                                    "W0005",
                                    format!(
                                        "gates {} and {} are wire-adjacent and cancel",
                                        prev_gate.name(),
                                        gate.name()
                                    ),
                                )
                                .with_note("the peephole pass removes such pairs".to_string()),
                                "second gate of a cancelling pair",
                                func,
                                block_no,
                                idx,
                                op,
                            ));
                        }
                    }
                }
                OpKind::QFreeZ | OpKind::QbDiscardZ => {
                    let dirty = op.operands.iter().any(|&v| match states.get(v) {
                        StateFact::Qubits(qs) => qs.contains(&QState::One),
                        StateFact::Bottom => false,
                    });
                    if dirty {
                        out.push(finish(
                            Diagnostic::warning(
                                "W0003",
                                format!(
                                    "{} asserts |0> but the qubit is provably |1>",
                                    op.kind.mnemonic()
                                ),
                            )
                            .with_note(
                                "releasing a dirty qubit without reset corrupts the ancilla pool"
                                    .to_string(),
                            ),
                            "released in state |1>",
                            func,
                            block_no,
                            idx,
                            op,
                        ));
                    }
                }
                _ => {}
            }
        }
    }
}

/// Lints every function in `module`, returning diagnostics in function /
/// program order.
pub fn lint_module(module: &Module, opts: &LintOptions) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for func in module.funcs() {
        lint_func(func, opts, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use asdf_ir::{FuncBuilder, FuncType, GateKind, SrcSpan, Type, Visibility};

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    /// Sabotage: a gate applied to the post-measurement qubit.
    #[test]
    fn gate_after_measure_trips_w0001() {
        let mut b = FuncBuilder::new(
            "k",
            FuncType::new(vec![Type::Qubit], vec![Type::I1], false),
            Visibility::Public,
        );
        let arg = b.args()[0];
        let mut bb = b.block();
        bb.set_span(SrcSpan::new(4, 9));
        let m = bb.push(OpKind::Measure, vec![arg], vec![Type::Qubit, Type::I1]);
        let g = bb.push(
            OpKind::Gate { gate: GateKind::X, num_controls: 0 },
            vec![m[0]],
            vec![Type::Qubit],
        );
        bb.push(OpKind::QFree, vec![g[0]], vec![]);
        bb.push(OpKind::Return, vec![m[1]], vec![]);
        let func = b.finish();
        asdf_ir::verify::verify_func(&func, None).unwrap();

        let mut diags = Vec::new();
        lint_func(&func, &LintOptions::default(), &mut diags);
        assert_eq!(codes(&diags), vec!["W0001"]);
        // The diagnostic renders with the stamped span and the
        // func:block:op location.
        let rendered = diags[0].render("q | std.measure");
        assert!(rendered.contains("warning[W0001]"), "{rendered}");
        assert!(rendered.contains("^^^^^"), "{rendered}");
        assert!(diags[0].notes.iter().any(|n| n.contains("at k:0:1:")), "{:?}", diags[0].notes);
    }

    /// Sabotage: an ancilla is flipped to |1> and released with a |0>
    /// assertion.
    #[test]
    fn dirty_zero_release_trips_w0003() {
        let mut b = FuncBuilder::new("k", FuncType::new(vec![], vec![], false), Visibility::Public);
        let mut bb = b.block();
        let a = bb.push(OpKind::QAlloc, vec![], vec![Type::Qubit]);
        let x = bb.push(
            OpKind::Gate { gate: GateKind::X, num_controls: 0 },
            vec![a[0]],
            vec![Type::Qubit],
        );
        bb.push(OpKind::QFreeZ, vec![x[0]], vec![]);
        bb.push(OpKind::Return, vec![], vec![]);
        let func = b.finish();
        asdf_ir::verify::verify_func(&func, None).unwrap();

        let mut diags = Vec::new();
        lint_func(&func, &LintOptions::default(), &mut diags);
        assert_eq!(codes(&diags), vec!["W0003"]);
    }

    /// An uncomputed ancilla (X; X) released with a |0> assertion is clean:
    /// the state analysis proves the wire returns to |0>.
    #[test]
    fn uncomputed_ancilla_is_clean() {
        let mut b = FuncBuilder::new("k", FuncType::new(vec![], vec![], false), Visibility::Public);
        let mut bb = b.block();
        let a = bb.push(OpKind::QAlloc, vec![], vec![Type::Qubit]);
        let x = bb.push(
            OpKind::Gate { gate: GateKind::X, num_controls: 0 },
            vec![a[0]],
            vec![Type::Qubit],
        );
        let x2 = bb.push(
            OpKind::Gate { gate: GateKind::X, num_controls: 0 },
            vec![x[0]],
            vec![Type::Qubit],
        );
        bb.push(OpKind::QFreeZ, vec![x2[0]], vec![]);
        bb.push(OpKind::Return, vec![], vec![]);
        let func = b.finish();

        let mut diags = Vec::new();
        lint_func(&func, &LintOptions::default(), &mut diags);
        assert!(diags.is_empty(), "{:?}", codes(&diags));
        // Pedantic mode flags the cancelling X;X pair instead.
        let mut pedantic = Vec::new();
        lint_func(&func, &LintOptions { pedantic: true }, &mut pedantic);
        assert_eq!(codes(&pedantic), vec!["W0005"]);
    }

    /// Pedantic lints: a dead-wire gate and a Clifford-angle rotation.
    #[test]
    fn pedantic_lints_fire_only_when_enabled() {
        let mut b = FuncBuilder::new(
            "k",
            FuncType::new(vec![Type::Qubit], vec![], false),
            Visibility::Public,
        );
        let arg = b.args()[0];
        let mut bb = b.block();
        let r = bb.push(
            OpKind::Gate { gate: GateKind::Rz(std::f64::consts::PI), num_controls: 0 },
            vec![arg],
            vec![Type::Qubit],
        );
        bb.push(OpKind::QFree, vec![r[0]], vec![]);
        bb.push(OpKind::Return, vec![], vec![]);
        let func = b.finish();
        asdf_ir::verify::verify_func(&func, None).unwrap();

        let mut diags = Vec::new();
        lint_func(&func, &LintOptions::default(), &mut diags);
        assert!(diags.is_empty(), "default mode is quiet: {:?}", codes(&diags));
        let mut pedantic = Vec::new();
        lint_func(&func, &LintOptions { pedantic: true }, &mut pedantic);
        assert_eq!(codes(&pedantic), vec!["W0002", "W0004"]);
    }

    /// Lints see into scf.if regions; a maybe-measured merge is NOT
    /// flagged (no false positives from one-sided facts).
    #[test]
    fn maybe_measured_merge_is_not_flagged() {
        let mut b = FuncBuilder::new(
            "k",
            FuncType::new(vec![Type::I1, Type::Qubit], vec![Type::QBundle(1)], false),
            Visibility::Public,
        );
        let (cond, q) = (b.args()[0], b.args()[1]);
        let mut bb = b.block();
        // then: measure the qubit (post-measurement wire yielded);
        // else: pass it through untouched.
        let then_block = bb.subblock(vec![], |sb| {
            let m = sb.push(OpKind::Measure, vec![q], vec![Type::Qubit, Type::I1]);
            sb.push(OpKind::Yield, vec![m[0]], vec![]);
        });
        let else_block = bb.subblock(vec![], |sb| {
            sb.push(OpKind::Yield, vec![q], vec![]);
        });
        let merged = bb.push_with_regions(
            OpKind::ScfIf,
            vec![cond],
            vec![Type::Qubit],
            vec![then_block, else_block],
        );
        // Gate on the merged wire: measured on one path only, so no W0001.
        let g = bb.push(
            OpKind::Gate { gate: GateKind::H, num_controls: 0 },
            vec![merged[0]],
            vec![Type::Qubit],
        );
        let packed = bb.push(OpKind::QbPack, vec![g[0]], vec![Type::QBundle(1)]);
        bb.push(OpKind::Return, vec![packed[0]], vec![]);
        let func = b.finish();
        asdf_ir::verify::verify_func(&func, None).unwrap();

        let mut diags = Vec::new();
        lint_func(&func, &LintOptions::default(), &mut diags);
        assert!(diags.is_empty(), "{:?}", codes(&diags));
    }

    /// A gate inside an scf.if region on an already-measured wire IS
    /// flagged, with the nested block's coordinates.
    #[test]
    fn lints_descend_into_regions() {
        let mut b = FuncBuilder::new(
            "k",
            FuncType::new(vec![Type::I1, Type::Qubit], vec![Type::Qubit], false),
            Visibility::Public,
        );
        let (cond, q) = (b.args()[0], b.args()[1]);
        let mut bb = b.block();
        let m = bb.push(OpKind::Measure, vec![q], vec![Type::Qubit, Type::I1]);
        let then_block = bb.subblock(vec![], |sb| {
            let g = sb.push(
                OpKind::Gate { gate: GateKind::X, num_controls: 0 },
                vec![m[0]],
                vec![Type::Qubit],
            );
            sb.push(OpKind::Yield, vec![g[0]], vec![]);
        });
        let else_block = bb.subblock(vec![], |sb| {
            sb.push(OpKind::Yield, vec![m[0]], vec![]);
        });
        let out = bb.push_with_regions(
            OpKind::ScfIf,
            vec![cond],
            vec![Type::Qubit],
            vec![then_block, else_block],
        );
        bb.push(OpKind::Return, vec![out[0]], vec![]);
        let func = b.finish();
        asdf_ir::verify::verify_func(&func, None).unwrap();

        let mut diags = Vec::new();
        lint_func(&func, &LintOptions::default(), &mut diags);
        assert_eq!(codes(&diags), vec!["W0001"]);
        assert!(
            diags[0].notes.iter().any(|n| n.contains("at k:1:0:")),
            "nested coordinates: {:?}",
            diags[0].notes
        );
    }

    #[test]
    fn lint_registry_is_ordered_and_unique() {
        let codes: Vec<_> = LINTS.iter().map(|l| l.code).collect();
        let mut sorted = codes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(codes, sorted, "codes are unique and ordered");
        assert!(LINTS.iter().all(|l| l.code.starts_with("W0")));
    }
}
