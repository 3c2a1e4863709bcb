//! Bounded differential sweeps runnable under `cargo test`.
//!
//! Two guarantees: (1) a seeded sweep over the full configuration matrix
//! is clean — every generated well-typed program compiles everywhere and
//! all comparable configuration pairs agree; (2) an intentionally broken
//! "pass" (a phase-sign flip injected into one configuration's circuits)
//! is caught by the oracles and minimized into a reproducer.

use asdf_difftest::{GenOptions, Harness, OracleOptions, SweepOptions};
use asdf_ir::GateKind;
use asdf_qcircuit::CircuitOp;

/// Debug builds are slow; keep the in-tree sweep small but real. CI and
/// humans run the 500-case release sweep via the `difftest` binary.
fn test_oracle() -> OracleOptions {
    OracleOptions { shots: 1024, dyn_shots: 96, ..OracleOptions::default() }
}

fn test_sweep(cases: usize) -> SweepOptions {
    SweepOptions {
        seed: 0xA5DF,
        cases,
        gen: GenOptions { max_width: 3, ..GenOptions::default() },
        shrink: true,
        fuel_bisect: false,
    }
}

#[test]
fn bounded_sweep_is_clean_across_the_full_matrix() {
    let harness = Harness::new(test_oracle());
    let report = harness.run_sweep(&test_sweep(40));
    for mismatch in &report.mismatches {
        eprintln!("{mismatch}");
    }
    assert!(report.passed(), "differential sweep found mismatches");
    assert_eq!(report.rejected, 0, "every generated program must compile");
    assert_eq!(report.configs.len(), 14);
    for config in &report.configs {
        assert_eq!(config.compiled, 40, "{} failed to compile cases", config.name);
        assert!(config.compared > 0, "{} never participated in a comparison", config.name);
        assert!(!config.stats.is_empty(), "{} collected no pass statistics", config.name);
    }
    // The hardware-targeted configs actually went through the router, and
    // a width-3 sweep never trips their capacity guard.
    for config in report.configs.iter().filter(|c| c.name.contains('@')) {
        assert_eq!(config.routing.routed_cases, 40, "{} skipped routing", config.name);
        assert!(config.routing.routed_depth > 0, "{} reported no routed depth", config.name);
    }
    assert!(report.comparisons > 500, "too few comparisons ran: {}", report.comparisons);
}

/// The sweep doubles as a lint soundness harness: generated programs are
/// correct by construction, so any default-severity warning is a false
/// positive. (CI runs the 500-case release sweep with `--lint`.)
#[test]
fn lint_sweep_has_zero_false_positives() {
    let harness = Harness::new(test_oracle()).with_lints();
    let report = harness.run_sweep(&test_sweep(25));
    assert!(report.passed(), "differential sweep found mismatches");
    assert_eq!(
        report.lint_warnings(),
        0,
        "lints fired on correct-by-construction programs:\n{}",
        report.render_table()
    );
    // The lint column is part of the rendered summary.
    assert!(report.render_table().contains("lints"));
}

/// The intentionally broken pass: every diagonal phase gate has its sign
/// flipped, exactly the kind of bug a peephole rewrite could introduce.
fn flip_phase_signs(circuit: &mut asdf_qcircuit::Circuit) {
    let mut flipped = asdf_qcircuit::Circuit::new(circuit.num_qubits);
    for mut op in circuit.ops() {
        if let CircuitOp::Gate { gate, .. } = &mut op {
            *gate = match *gate {
                GateKind::S => GateKind::Sdg,
                GateKind::Sdg => GateKind::S,
                GateKind::T => GateKind::Tdg,
                GateKind::Tdg => GateKind::T,
                GateKind::P(theta) => GateKind::P(-theta),
                GateKind::Rz(theta) => GateKind::Rz(-theta),
                other => other,
            };
        }
        flipped.push(op);
    }
    *circuit = flipped;
}

#[test]
fn sabotaged_phase_signs_are_caught_with_a_minimized_reproducer() {
    let sabotaged = "opt+peep+selinger";
    let harness = Harness::new(test_oracle()).with_sabotage(sabotaged, flip_phase_signs);
    let report = harness.run_sweep(&test_sweep(40));
    assert!(
        !report.passed(),
        "the harness failed to catch a sign-flipped phase pass across 40 programs"
    );
    let mismatch = &report.mismatches[0];
    assert!(
        mismatch.config_a == sabotaged || mismatch.config_b == sabotaged,
        "mismatch blamed {} vs {}, expected {sabotaged}",
        mismatch.config_a,
        mismatch.config_b
    );
    // The shrinker produced a reproducer no larger than the original, and
    // the report is self-contained: program text plus configs plus seed.
    assert!(mismatch.shrunk_stages <= mismatch.original_stages);
    let text = mismatch.to_string();
    assert!(text.contains("qpu"), "report must embed the program:\n{text}");
    assert!(text.contains(sabotaged), "report must name the configs:\n{text}");
    assert!(text.contains("seed"), "report must carry the seed:\n{text}");
}
