//! The end-to-end compiler driver (Fig. 2).
//!
//! ```text
//! Qwerty source → AST (parse, expand, typecheck, canonicalize)
//!   → Qwerty IR (lower, then the declared pass pipeline)
//!   → QCircuit IR (dialect conversion, peephole — also pipeline passes)
//!   → Circuit (reg2mem, decompose)
//! ```
//!
//! The middle of the compiler is a declarative [`PassManager`] pipeline
//! built by [`CompileOptions::pipeline`]; there is no hardcoded pass
//! sequence in [`Compiler::compile`]. The paper's two evaluation
//! configurations are two pipelines over the same [`asdf_ir::pass::Pass`]
//! trait:
//!
//! - `Asdf (Opt)` (the default): lift-lambdas, a canonicalize+inline
//!   fixpoint, dead-function elimination, dialect conversion, peephole —
//!   everything inlines into one function (zero QIR callables);
//! - `Asdf (No Opt)` ([`CompileOptions::no_opt`]): lift-lambdas,
//!   specialization generation, dialect conversion — the functional
//!   structure survives as QIR callables (Table 1).
//!
//! Each compile records the wall-clock of every stage, each pipeline pass
//! with its change count, in [`Compiled::stats`] (the `session` module
//! lists the rows); with [`CompileOptions::verify`] set (the default)
//! the module is verified before the pipeline and after every pass,
//! replacing the hand-placed `verify_module` calls of the pre-pass-manager
//! driver.

use crate::error::CoreError;
use crate::passes::{
    qwerty_canonicalize_pass_with, ConvertPass, DeadFuncElimPass, InlinePass, LiftLambdasPass,
    SpecializePass, CANONICALIZE_INLINE,
};
use crate::session::{CompileRequest, Session};
use crate::Compiled;
use asdf_ast::expand::CaptureValue;
use asdf_ir::pass::{Fixpoint, PassManager};
use asdf_ir::rewrite::{Fuel, RewriteConfig};
use asdf_qcircuit::decompose::DecomposeStyle;
use asdf_qcircuit::peephole::peephole_pass_with;
use std::collections::HashMap;
use std::sync::Arc;

/// Compiler configuration.
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// Run the inlining pipeline (§5.4). Disabled for the Table 1
    /// "No Opt" configuration.
    pub inline: bool,
    /// Run the QCircuit peephole optimizations (§6.5).
    pub peephole: bool,
    /// Decompose multi-controlled gates in the final circuit.
    pub decompose: Option<DecomposeStyle>,
    /// Verify the module before the pipeline and after every pass,
    /// attributing failures to the offending pass.
    pub verify: bool,
    /// Explicit dimension-variable bindings (when inference from captures
    /// is not enough).
    pub dims: HashMap<String, i64>,
    /// A budget of rewrite-pattern firings shared across the whole
    /// pipeline (canonicalize + peephole), for bisecting miscompiles:
    /// firing N+1 and later are suppressed. `None` means unlimited.
    /// Defaults to the `ASDF_REWRITE_FUEL` environment variable.
    pub rewrite_fuel: Option<u64>,
    /// Run the asdf-lint dataflow analyses after the pipeline and attach
    /// their diagnostics to [`Compiled::lints`]. Warnings never fail the
    /// compilation.
    pub lints: bool,
    /// Route the final circuit onto a named hardware target (e.g.
    /// `linear-16`, `grid-4x4`; see `asdf_target::Target::parse` for the
    /// grammar): translate into the native gate set and insert SWAPs until
    /// every two-qubit gate acts on a coupled pair. `None` keeps the
    /// all-to-all circuit.
    pub target: Option<String>,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            inline: true,
            peephole: true,
            decompose: Some(DecomposeStyle::Selinger),
            verify: true,
            dims: HashMap::new(),
            rewrite_fuel: RewriteConfig::env_fuel_limit(),
            lints: false,
            target: None,
        }
    }
}

impl CompileOptions {
    /// The paper's `Asdf (No Opt)` configuration: no inlining, no peephole;
    /// callables are emitted for function values.
    pub fn no_opt() -> Self {
        CompileOptions {
            inline: false,
            peephole: false,
            decompose: None,
            verify: true,
            dims: HashMap::new(),
            rewrite_fuel: RewriteConfig::env_fuel_limit(),
            lints: false,
            target: None,
        }
    }

    /// The full differential-testing configuration matrix: every
    /// combination of inlining (Opt vs the Table 1 No-Opt pipeline),
    /// peephole on/off, and final decomposition (none, Selinger, V-chain),
    /// each under a stable descriptive name like `opt+peep+selinger` —
    /// plus two hardware-routed configurations (`…@linear-16`,
    /// `…@grid-4x4`) whose circuits must match the all-to-all ones up to
    /// the output permutation routing reports.
    ///
    /// All fourteen configurations compile the same source; a correct
    /// compiler must give them observably identical semantics, which is
    /// exactly what `asdf-difftest` cross-checks.
    pub fn matrix() -> Vec<(String, CompileOptions)> {
        let mut out = Vec::new();
        for inline in [true, false] {
            for peephole in [true, false] {
                for decompose in
                    [None, Some(DecomposeStyle::Selinger), Some(DecomposeStyle::VChain)]
                {
                    let name = format!(
                        "{}+{}+{}",
                        if inline { "opt" } else { "noopt" },
                        if peephole { "peep" } else { "nopeep" },
                        match decompose {
                            None => "whole",
                            Some(DecomposeStyle::Selinger) => "selinger",
                            Some(DecomposeStyle::VChain) => "vchain",
                        }
                    );
                    out.push((
                        name,
                        CompileOptions {
                            inline,
                            peephole,
                            decompose,
                            verify: true,
                            dims: HashMap::new(),
                            rewrite_fuel: RewriteConfig::env_fuel_limit(),
                            lints: false,
                            target: None,
                        },
                    ));
                }
            }
        }
        for target in ["linear-16", "grid-4x4"] {
            out.push((
                format!("opt+peep+selinger@{target}"),
                CompileOptions { target: Some(target.to_string()), ..CompileOptions::default() },
            ));
        }
        out
    }

    /// Sets a dimension binding.
    #[must_use]
    pub fn with_dim(mut self, name: &str, value: i64) -> Self {
        self.dims.insert(name.to_string(), value);
        self
    }

    /// Enables or disables verify-after-each-pass.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn with_verify(mut self, verify: bool) -> Self {
        self.verify = verify;
        self
    }

    /// Caps the pipeline-wide rewrite firing budget (`None` = unlimited).
    #[must_use]
    pub fn with_rewrite_fuel(mut self, fuel: Option<u64>) -> Self {
        self.rewrite_fuel = fuel;
        self
    }

    /// Enables or disables the post-pipeline lint analyses.
    #[must_use]
    pub fn with_lints(mut self, lints: bool) -> Self {
        self.lints = lints;
        self
    }

    /// Routes the final circuit onto the named hardware target (`None`
    /// keeps the all-to-all circuit).
    #[cfg(test)]
    #[must_use]
    pub(crate) fn with_target(mut self, target: Option<&str>) -> Self {
        self.target = target.map(str::to_string);
        self
    }

    /// The declarative pass pipeline these options select (the middle of
    /// Fig. 2, between AST lowering and reg2mem).
    ///
    /// Inspect it with [`PassManager::pass_names`]; the driver runs exactly
    /// this pipeline.
    pub fn pipeline(&self) -> PassManager {
        // One shared fuel cell spans every rewrite-driven pass of this
        // compilation, so `rewrite_fuel: Some(N)` means "the first N
        // pattern firings across canonicalize *and* peephole".
        let rewrite_config =
            RewriteConfig::default().with_fuel(Fuel::from_limit(self.rewrite_fuel));
        let mut pm = PassManager::new().with_verify_after_each(self.verify);
        pm.add_pass(LiftLambdasPass);
        if self.inline {
            // §5.4: canonicalize (indirect→direct calls) and inline to a
            // fixpoint — inlining exposes new canonicalization opportunities
            // and vice versa. `Fixpoint`'s 64-round bound mirrors the
            // bounded loop this replaces; hitting it leaves residual
            // indirection, not an error.
            pm.add_pass(Fixpoint::new(
                CANONICALIZE_INLINE,
                vec![
                    Box::new(qwerty_canonicalize_pass_with(rewrite_config.clone())),
                    Box::new(InlinePass::default()),
                ],
            ));
            pm.add_pass(DeadFuncElimPass);
        } else {
            // §6.2: direct `call adj/pred` ops still need their
            // specializations generated even when nothing is inlined.
            pm.add_pass(SpecializePass);
        }
        pm.add_pass(ConvertPass);
        if self.peephole {
            pm.add_pass(peephole_pass_with(rewrite_config));
        }
        pm
    }
}

/// The one-shot compiler: a thin wrapper over a throwaway [`Session`].
///
/// Existing callers migrate mechanically:
///
/// ```text
/// Compiler::compile(src, "k", &captures, &options)
///   == Session::new(src)?.compile(
///          &CompileRequest::kernel("k")
///              .with_captures(&captures)
///              .with_options(options.clone()))
/// ```
///
/// Anything that compiles the same source more than once (difftest's
/// options matrix, benches, a service) should hold a [`Session`]
/// instead and let the caches share the frontend.
#[derive(Debug, Default)]
pub struct Compiler;

impl Compiler {
    /// Compiles `kernel` from `source` with the given captures.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] for any frontend, transformation, or synthesis
    /// failure.
    pub fn compile(
        source: &str,
        kernel_name: &str,
        captures: &[CaptureValue],
        options: &CompileOptions,
    ) -> Result<Compiled, CoreError> {
        let session = Session::new(source)?;
        let request = CompileRequest::kernel(kernel_name)
            .with_captures(captures)
            .with_options(options.clone());
        let artifact = session.compile(&request)?;
        // The session is dropped here, so the Arc is almost always unique;
        // clone only in the (impossible today) shared case.
        Ok(Arc::try_unwrap(artifact).unwrap_or_else(|shared| (*shared).clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opt_and_no_opt_are_distinct_declarative_pipelines() {
        let opt = CompileOptions::default().pipeline().pass_names();
        assert_eq!(
            opt,
            [
                "lift-lambdas",
                "canonicalize-inline",
                "remove-dead-private-funcs",
                "convert-to-qcircuit",
                "qcircuit-peephole"
            ]
        );
        let no_opt = CompileOptions::no_opt().pipeline().pass_names();
        assert_eq!(no_opt, ["lift-lambdas", "generate-specializations", "convert-to-qcircuit"]);
    }

    #[test]
    fn matrix_covers_all_fourteen_distinct_configs() {
        let matrix = CompileOptions::matrix();
        assert_eq!(matrix.len(), 14);
        let names: std::collections::BTreeSet<&str> =
            matrix.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names.len(), 14, "config names must be unique");
        assert!(names.contains("opt+peep+selinger"));
        assert!(names.contains("noopt+nopeep+whole"));
        assert!(names.contains("opt+peep+selinger@linear-16"));
        assert!(names.contains("opt+peep+selinger@grid-4x4"));
        // Every config is compilable on a trivial program.
        let source = "qpu k() -> bit[1] { '0' | std.measure }";
        for (name, options) in &matrix {
            Compiler::compile(source, "k", &[], options)
                .unwrap_or_else(|e| panic!("config {name} failed on the trivial program: {e}"));
        }
    }

    #[test]
    fn routed_compile_reports_layouts_and_validates() {
        let source = r"
            qpu bell() -> bit[2] {
                'p' + '0' | ('1' & std.flip) | std[2].measure
            }
        ";
        let options = CompileOptions::default().with_target(Some("linear-16"));
        let compiled = Compiler::compile(source, "bell", &[], &options).unwrap();
        let circuit = compiled.circuit.as_ref().expect("routed circuit");
        let routing = compiled.routing.as_ref().expect("routing info");
        assert_eq!(routing.target, "linear-16");
        let target = asdf_target::Target::parse("linear-16").unwrap();
        target.validate(circuit).expect("routed circuit uses native gates on coupled pairs");
        assert_eq!(routing.initial_layout.len(), circuit.num_qubits);
        // Emission reads the routed circuit. A Toffoli's three pairwise
        // interactions cannot all sit on a path, so routing adds SWAPs, and
        // every emitted CX still joins neighbours on the line.
        let toffoli = "qpu tof() -> bit[3] { '110' | ('11' & std.flip) | std[3].measure }";
        let session = Session::new(toffoli).unwrap();
        let request = CompileRequest::kernel("tof").with_options(options.clone());
        let routed = session.compile(&request).unwrap();
        assert!(routed.routing.as_ref().expect("routing info").swap_count > 0);
        let qasm = session.emit(&routed, "qasm").unwrap();
        let cx_lines: Vec<&str> = qasm.lines().filter(|l| l.starts_with("cx ")).collect();
        assert!(!cx_lines.is_empty(), "{qasm}");
        for line in cx_lines {
            let wires: Vec<usize> =
                line.split(['[', ']']).filter_map(|part| part.parse().ok()).collect();
            assert_eq!(wires.len(), 2, "unexpected cx line: {line}");
            assert_eq!(wires[0].abs_diff(wires[1]), 1, "non-neighbour cx on linear-16: {line}");
        }
        // An unparseable target fails with the dedicated code, before any
        // frontend work.
        let session = Session::new(source).unwrap();
        let bad = CompileOptions::default().with_target(Some("liner-16"));
        let err = session.compile(&CompileRequest::kernel("bell").with_options(bad)).unwrap_err();
        assert_eq!(err.code(), "E0105");
        assert!(err.to_string().contains("did you mean"), "{err}");
        assert_eq!(session.cache_stats().frontend_misses, 0, "a bad target runs no frontend");
    }

    #[test]
    fn stats_cover_every_declared_pass() {
        let source = r"
            qpu bell() -> bit[2] {
                'p' + '0' | ('1' & std.flip) | std[2].measure
            }
        ";
        let options = CompileOptions::default();
        let compiled = Compiler::compile(source, "bell", &[], &options).unwrap();
        let ran: Vec<&str> = compiled.stats.iter().map(|p| p.name.as_str()).collect();
        let pipeline = options.pipeline().pass_names();
        let expected: Vec<&str> =
            ["ast.instantiate", "ast.typecheck", "ast.canonicalize", "core.lower"]
                .into_iter()
                .chain(pipeline.iter().map(String::as_str))
                .chain(["qcircuit.lower_to_circuit", "qcircuit.decompose"])
                .collect();
        assert_eq!(ran, expected);
    }

    #[test]
    fn disabling_verify_skips_nothing_functional() {
        let source = r"
            qpu bell() -> bit[2] {
                'p' + '0' | ('1' & std.flip) | std[2].measure
            }
        ";
        let unverified = CompileOptions::default().with_verify(false);
        let compiled = Compiler::compile(source, "bell", &[], &unverified).unwrap();
        assert!(compiled.circuit.is_some());
    }
}
