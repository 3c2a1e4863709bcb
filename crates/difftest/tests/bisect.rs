//! Fuel plumbing through the pipeline and the bisection machinery.
//!
//! `CompileOptions::rewrite_fuel` caps the pipeline-wide pattern-firing
//! budget; the bisector relies on three properties checked here: truncated
//! budgets still compile, firing counts are capped by the budget, and each
//! budget increment is attributable to one pattern (the culprit-naming
//! diff). The positive bisection path (finding an actual divergent firing)
//! requires a miscompiling pattern, which this compiler does not have; the
//! sabotage test shows the graceful "does not reproduce" path instead.

use asdf_core::{CompileOptions, CompileRequest, Session};
use asdf_difftest::{fuel_bisect, gen_case, GenOptions, Harness, OracleOptions, SweepOptions};
use asdf_ir::GateKind;
use asdf_qcircuit::{Circuit, CircuitOp};
use std::collections::BTreeMap;

const BELL: &str = r"
    qpu bell() -> bit[2] {
        'p' + '0' | ('1' & std.flip) | std[2].measure
    }
";

fn counts(compiled: &asdf_core::Compiled) -> BTreeMap<String, usize> {
    compiled.stats.pattern_firings().into_iter().collect()
}

#[test]
fn fuel_caps_pipeline_firings_and_each_step_names_one_pattern() {
    let session = Session::new(BELL).unwrap();
    let request = CompileRequest::kernel("bell");
    let compile = |fuel: Option<u64>| {
        session
            .compile(
                &request.clone().with_options(CompileOptions::default().with_rewrite_fuel(fuel)),
            )
            .expect("bell compiles at every budget")
    };

    let full = compile(None);
    let total: usize = counts(&full).values().sum();
    assert!(total > 0, "bell exercises at least one rewrite pattern");

    let mut previous: BTreeMap<String, usize> = BTreeMap::new();
    let mut previous_sum = 0usize;
    for budget in 0..=total {
        let compiled = compile(Some(budget as u64));
        let now = counts(&compiled);
        let sum: usize = now.values().sum();
        assert!(sum <= budget, "budget {budget} allowed {sum} firings");
        assert!(sum >= previous_sum, "firings must grow with the budget");
        // The culprit-naming diff the bisector uses: the patterns that
        // gained firings over the previous budget.
        let gained: Vec<&String> = now
            .iter()
            .filter(|(name, count)| previous.get(*name).copied().unwrap_or(0) < **count)
            .map(|(name, _)| name)
            .collect();
        assert!(gained.len() <= (sum - previous_sum).max(1), "budget {budget}: gained {gained:?}");
        previous = now;
        previous_sum = sum;
    }
    assert_eq!(previous_sum, total, "the full budget reproduces the full run");
    // Fuel is part of the artifact cache key: the fuel-0 artifact must not
    // be served for the unlimited request.
    assert_ne!(counts(&compile(Some(0))).values().sum::<usize>(), total);
}

#[test]
fn healthy_pair_bisects_to_none() {
    let case = gen_case(0xB15EC7, 3, &GenOptions { max_width: 3, ..GenOptions::default() });
    let configs = CompileOptions::matrix();
    let oracle = OracleOptions { shots: 512, dyn_shots: 64, ..OracleOptions::default() };
    assert!(
        fuel_bisect(&case, &configs, "opt+peep+selinger", "noopt+nopeep+selinger", &oracle)
            .is_none(),
        "a healthy configuration pair has no divergent firing to find"
    );
    // A pair where neither side rewrites is rejected up front.
    assert!(fuel_bisect(&case, &configs, "noopt+nopeep+whole", "noopt+nopeep+selinger", &oracle)
        .is_none());
}

/// A circuit-level sabotage is invisible to a fresh session, so the
/// bisector reports nothing rather than blaming an innocent pattern.
#[test]
fn sabotage_outside_the_pipeline_does_not_reproduce_under_bisection() {
    let sabotaged = "opt+peep+selinger";
    let harness =
        Harness::new(OracleOptions { shots: 1024, dyn_shots: 96, ..OracleOptions::default() })
            .with_sabotage(sabotaged, |circuit| {
                let mut flipped = Circuit::new(circuit.num_qubits);
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
            });
    let report = harness.run_sweep(&SweepOptions {
        seed: 0xA5DF,
        cases: 25,
        gen: GenOptions { max_width: 3, ..GenOptions::default() },
        shrink: false,
        fuel_bisect: true,
    });
    assert!(!report.passed(), "the sabotage must be caught");
    for mismatch in &report.mismatches {
        assert!(
            mismatch.bisect.is_none(),
            "a post-pipeline sabotage must not be pinned on a pattern: {:?}",
            mismatch.bisect
        );
    }
}
