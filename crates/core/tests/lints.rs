//! End-to-end lint tests: correct kernels lint clean through the full
//! pipeline, and sabotaged pipelines (a "pass" that skips resets or
//! reorders gates past measurements) trip the measurement/ancilla lints
//! with their stable codes — the true-positive half of the soundness
//! story the differential sweep's `--lint` mode proves from the other
//! side (zero false positives on generated-correct programs).

use asdf_analysis::lint_module;
use asdf_core::{CompileOptions, CompileRequest, Session};
use asdf_ir::{GateKind, Module, Op, OpKind, Type};

const SRC: &str = "qpu k() -> bit[1] { '1' | std.measure }";

/// Compiles the kernel with lints on and hands back the session and the
/// post-pipeline module (the exact IR the lints ran over).
fn compiled_module() -> (Session, Module) {
    let session = Session::new(SRC).expect("parse");
    let artifact = session
        .compile(
            &CompileRequest::kernel("k").with_options(CompileOptions::default().with_lints(true)),
        )
        .expect("compile");
    assert!(
        artifact.lints.is_empty(),
        "a correct kernel lints clean, got: {:?}",
        session.render_lints(&artifact)
    );
    let module = artifact.module.clone();
    (session, module)
}

#[test]
fn skipping_resets_trips_the_dirty_release_lint() {
    let (_session, mut module) = compiled_module();
    // The sabotaged "pass": downgrade every reset-release to a bare
    // |0>-asserting release. The kernel measured |1>, so the released
    // wire is provably dirty.
    let mut func = module.expect_func("k").expect("entry").clone();
    for op in &mut func.body.ops {
        if matches!(op.kind, OpKind::QFree) {
            op.kind = OpKind::QFreeZ;
        }
    }
    module.add_func(func);
    let warnings = lint_module(&module);
    assert!(
        warnings.iter().any(|d| d.code == "W0003"),
        "expected W0003 dirty-zero-release, got {:?}",
        warnings.iter().map(|d| d.code).collect::<Vec<_>>()
    );
}

#[test]
fn reordering_a_gate_past_a_measurement_trips_w0001() {
    let (_session, mut module) = compiled_module();
    // The sabotaged "pass": slide an X gate onto the post-measurement
    // wire (as a buggy commutation rewrite would), keeping linearity by
    // re-pointing the release at the gate's result.
    let mut func = module.expect_func("k").expect("entry").clone();
    let measured = func
        .body
        .ops
        .iter()
        .find(|op| matches!(op.kind, OpKind::Measure))
        .expect("kernel measures")
        .results[0];
    let fresh = func.new_value(Type::Qubit);
    let release = func
        .body
        .ops
        .iter()
        .position(|op| op.operands.contains(&measured))
        .expect("measured wire is released");
    func.body.ops[release] =
        Op::new(OpKind::Gate { gate: GateKind::X, num_controls: 0 }, vec![measured], vec![fresh]);
    func.body.ops.insert(release + 1, Op::new(OpKind::QFree, vec![fresh], vec![]));
    module.add_func(func);
    let warnings = lint_module(&module);
    assert!(
        warnings.iter().any(|d| d.code == "W0001"),
        "expected W0001 gate-after-measure, got {:?}",
        warnings.iter().map(|d| d.code).collect::<Vec<_>>()
    );
}
