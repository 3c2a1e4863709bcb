//! The worklist driver reaches a true fixpoint on difftest-generated
//! modules.
//!
//! The [`GreedyRewriteDriver`] requeues only the def-use neighborhood of
//! each firing. A missed requeue (a firing that enables a match the driver
//! never revisits) leaves an opportunity behind, so the output is not a
//! normal form of the pattern set. On every generated program the
//! peephole result must verify, and a second driver run over it must fire
//! no pattern, erase no op, and leave the printed module unchanged.

use asdf_core::{CompileOptions, CompileRequest, Session};
use asdf_difftest::{gen_case, GenOptions};
use asdf_ir::rewrite::GreedyRewriteDriver;
use asdf_ir::Module;
use asdf_qcircuit::peephole::peephole_patterns;
use proptest::prelude::*;

/// Compiles a generated case up to (but not including) the peephole pass:
/// `opt+nopeep+whole` leaves the fully inlined QCircuit-dialect module
/// with every gate-level rewrite opportunity still present.
fn pre_peephole_module(sweep_seed: u64, index: usize) -> Option<Module> {
    let case = gen_case(sweep_seed, index, &GenOptions::default());
    let rendered = case.render();
    let session = Session::new(&rendered.source).ok()?;
    let options = CompileOptions {
        inline: true,
        peephole: false,
        decompose: None,
        ..CompileOptions::default()
    };
    let mut request = CompileRequest::kernel(&rendered.kernel).with_captures(&rendered.captures);
    for (name, value) in &rendered.dims {
        request = request.with_dim(name, *value);
    }
    let compiled = session.compile(&request.with_options(options)).ok()?;
    Some(compiled.module.clone())
}

/// Runs the peephole patterns over `module` and checks the result is a
/// verified fixpoint; returns the first run's firings.
fn check_fixpoint(mut module: Module) -> usize {
    let first_fires = GreedyRewriteDriver::from_patterns(peephole_patterns()).run(&mut module);
    asdf_ir::verify::verify_module(&module).expect("peephole result verifies");
    let normal_form = module.to_string();
    let mut second = GreedyRewriteDriver::from_patterns(peephole_patterns());
    let fires = second.run(&mut module);
    assert_eq!(fires, 0, "a second run fired {:?} on:\n{normal_form}", second.stats.fired);
    assert_eq!(second.stats.dce_erased, 0, "a second run erased ops from:\n{normal_form}");
    assert_eq!(module.to_string(), normal_form, "a second run changed the module");
    first_fires
}

proptest! {
    /// Random difftest programs: the peephole result is a fixpoint.
    #[test]
    fn peephole_output_is_a_fixpoint(sweep_seed in 0u64..1u64 << 32, index in 0usize..8) {
        if let Some(module) = pre_peephole_module(sweep_seed, index) {
            check_fixpoint(module);
        }
    }
}

/// A deterministic belt-and-braces sweep on top of the random one, so a
/// fixed population of generated programs is always covered.
#[test]
fn peephole_output_is_a_fixpoint_on_a_fixed_population() {
    let (mut checked, mut fires) = (0usize, 0usize);
    for index in 0..40 {
        if let Some(module) = pre_peephole_module(0xD21F7, index) {
            fires += check_fixpoint(module);
            checked += 1;
        }
    }
    assert!(checked >= 30, "only {checked} of 40 generated cases compiled");
    assert!(fires > 0, "no pattern fired across the population");
}
