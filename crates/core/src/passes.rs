//! The Fig. 2 pipeline phases as named [`Pass`]es.
//!
//! Each Qwerty-IR transformation of §5.4–§6.1 is wrapped as a pass so the
//! driver in `crate::compiler` can declare its pipeline instead of
//! hardcoding call sequences, and so per-phase wall-clock timing and change
//! counts come out of [`asdf_ir::pass::PassStatistics`] for free.

use crate::adjoint::adjoint_func;
use crate::canon::{lift_lambdas, qwerty_patterns};
use crate::convert::convert_module;
use crate::error::CoreError;
use crate::predicate::predicate_func;
use crate::special::generate_specializations;
use asdf_ir::inline::{remove_dead_private_funcs, InlineSpecializer, Inliner};
use asdf_ir::pass::{CanonicalizePass, Pass, PassError, PassOutcome, PassResult};
use asdf_ir::rewrite::{GreedyRewriteDriver, RewriteConfig};
use asdf_ir::{Func, IrError, Module};

/// Pass name: lambda lifting (§5.4 step 1).
pub(crate) const LIFT_LAMBDAS: &str = "lift-lambdas";
/// Pass name: the Qwerty-dialect canonicalization patterns (§5.4 step 2).
pub(crate) const QWERTY_CANONICALIZE: &str = "qwerty-canonicalize";
/// Pass name: direct-call inlining with on-demand specialization (§5.4).
pub(crate) const INLINE: &str = "inline";
/// Pass name: the canonicalize+inline fixpoint of the Opt configuration.
pub const CANONICALIZE_INLINE: &str = "canonicalize-inline";
/// Pass name: dropping fully inlined private functions.
pub(crate) const DEAD_FUNC_ELIM: &str = "remove-dead-private-funcs";
/// Pass name: adjoint/predicated specialization generation (§6.2).
pub(crate) const SPECIALIZE: &str = "generate-specializations";
/// Pass name: Qwerty IR → QCircuit IR dialect conversion (§6.1).
pub(crate) const CONVERT: &str = "convert-to-qcircuit";

/// Lambda lifting: every `lambda` op becomes a private func plus
/// `func_const`. Reports the number of lambdas lifted.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LiftLambdasPass;

impl Pass for LiftLambdasPass {
    fn name(&self) -> &str {
        LIFT_LAMBDAS
    }

    fn run(&mut self, module: &mut Module) -> PassResult {
        let lifted = lift_lambdas(module).map_err(|e| PassError::new(LIFT_LAMBDAS, e))?;
        Ok(PassOutcome::changed(lifted))
    }
}

/// The Qwerty-dialect canonicalizer as a pass under a rewrite
/// configuration (its fuel), with per-pattern firing counts in the
/// statistics detail. Passes built from clones of one config share its
/// [`asdf_ir::rewrite::Fuel`] budget across a compilation.
pub(crate) fn qwerty_canonicalize_pass_with(config: RewriteConfig) -> CanonicalizePass {
    CanonicalizePass::new(
        QWERTY_CANONICALIZE,
        GreedyRewriteDriver::with_config(qwerty_patterns(), config),
    )
}

/// Direct-call inlining; builds adjoint/predicated callee bodies on demand
/// through [`Specializer`]. Reports calls inlined.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct InlinePass {
    inliner: Inliner,
}

impl Pass for InlinePass {
    fn name(&self) -> &str {
        INLINE
    }

    fn run(&mut self, module: &mut Module) -> PassResult {
        let inlined =
            self.inliner.run(module, &Specializer).map_err(|e| PassError::new(INLINE, e))?;
        Ok(PassOutcome::changed(inlined))
    }
}

/// Removes private functions with no remaining references. Reports
/// functions removed.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct DeadFuncElimPass;

impl Pass for DeadFuncElimPass {
    fn name(&self) -> &str {
        DEAD_FUNC_ELIM
    }

    fn run(&mut self, module: &mut Module) -> PassResult {
        Ok(PassOutcome::changed(remove_dead_private_funcs(module)))
    }
}

/// Generates adjoint/predicated specializations for direct `call adj/pred`
/// ops (the No-Opt configuration's replacement for inlining). Reports
/// specializations generated.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SpecializePass;

impl Pass for SpecializePass {
    fn name(&self) -> &str {
        SPECIALIZE
    }

    fn run(&mut self, module: &mut Module) -> PassResult {
        let generated =
            generate_specializations(module).map_err(|e| PassError::new(SPECIALIZE, e))?;
        Ok(PassOutcome::changed(generated))
    }
}

/// Dialect conversion from Qwerty ops to QCircuit ops. Every function is
/// rebuilt, so the change count is the module's function count.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ConvertPass;

impl Pass for ConvertPass {
    fn name(&self) -> &str {
        CONVERT
    }

    fn run(&mut self, module: &mut Module) -> PassResult {
        convert_module(module).map_err(|e| PassError::new(CONVERT, e))?;
        Ok(PassOutcome::changed(module.len()))
    }
}

/// The inliner hook: builds adjoint/predicated callee bodies on demand
/// using the §5.2/§5.3 routines.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Specializer;

impl InlineSpecializer for Specializer {
    fn specialize(
        &self,
        callee: &Func,
        adj: bool,
        pred: Option<&asdf_basis::Basis>,
        _module: &Module,
    ) -> Result<Func, IrError> {
        let to_ir = |e: CoreError| IrError::Unsupported(e.to_string());
        let mut spec = if adj {
            adjoint_func(callee, &format!("{}__adj_tmp", callee.name)).map_err(to_ir)?
        } else {
            callee.clone()
        };
        if let Some(pred) = pred {
            spec = predicate_func(&spec, pred, &format!("{}__pred_tmp", callee.name))
                .map_err(to_ir)?;
        }
        Ok(spec)
    }
}
