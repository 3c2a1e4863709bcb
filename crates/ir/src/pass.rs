//! The pass manager: declarative, instrumented pipelines over [`Module`]s.
//!
//! MLIR structures its compilers as pipelines of passes over a module; the
//! published ASDF declares its Fig. 2 pipeline the same way. This module
//! rebuilds that infrastructure for the reproduction:
//!
//! - [`Pass`]: a named module transformation reporting how much IR it
//!   changed ([`PassOutcome`]);
//! - [`PassManager`]: runs a declared pipeline in order, recording per-pass
//!   wall-clock timing and change counts into [`PassStatistics`], with an
//!   optional verify-after-each-pass mode (replacing hand-placed
//!   `verify_module` calls between phases);
//! - [`PassStatistics::time`]: times a stage outside the pipeline (the
//!   frontend, circuit lowering, routing) into a row of the same record,
//!   so one [`PassStatistics`] holds the cost of a whole compile;
//! - [`Fixpoint`]: a pass combinator that repeats a sub-pipeline until a
//!   full round reports no changes (the canonicalize+inline loop of §5.4);
//! - [`CanonicalizePass`]: adapts a [`GreedyRewriteDriver`] (and its
//!   per-pattern firing statistics) to the [`Pass`] interface.

use crate::module::Module;
use crate::rewrite::GreedyRewriteDriver;
use crate::verify::verify_module;
use std::error::Error;
use std::fmt;
use std::time::{Duration, Instant};

/// A failure inside a pass (or in post-pass verification), tagged with the
/// pass's name so pipeline errors always say *where* compilation died.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassError {
    /// Name of the pass that failed.
    pub pass: String,
    /// Human-readable failure description.
    pub message: String,
}

impl PassError {
    /// Builds an error attributed to `pass`.
    pub fn new(pass: impl Into<String>, message: impl fmt::Display) -> Self {
        PassError { pass: pass.into(), message: message.to_string() }
    }
}

impl fmt::Display for PassError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pass '{}' failed: {}", self.pass, self.message)
    }
}

impl Error for PassError {}

/// What a pass did to the module.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PassOutcome {
    /// Number of IR changes: rewrite-pattern firings, calls inlined,
    /// lambdas lifted, functions converted … zero means the pass was a
    /// no-op on this module.
    pub changes: usize,
    /// Optional finer-grained counters (e.g. per-rewrite-pattern firings),
    /// in deterministic order.
    pub detail: Vec<(String, usize)>,
}

impl PassOutcome {
    /// An outcome reporting no changes.
    #[cfg(test)]
    pub(crate) fn unchanged() -> Self {
        PassOutcome::default()
    }

    /// An outcome reporting `changes` changes.
    pub fn changed(changes: usize) -> Self {
        PassOutcome { changes, detail: Vec::new() }
    }

    /// Attaches fine-grained counters.
    #[must_use]
    pub(crate) fn with_detail(mut self, detail: Vec<(String, usize)>) -> Self {
        self.detail = detail;
        self
    }
}

/// The result of running one pass.
pub type PassResult = Result<PassOutcome, PassError>;

/// A named transformation of a [`Module`].
pub trait Pass {
    /// A stable, human-readable pass name (used in statistics and errors).
    fn name(&self) -> &str;

    /// Transforms the module, reporting how much changed.
    ///
    /// # Errors
    ///
    /// Returns [`PassError`] when the transformation fails; the module may
    /// be left partially transformed (the driver aborts the pipeline).
    fn run(&mut self, module: &mut Module) -> PassResult;
}

/// Timing and change statistics for one executed pass or timed stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassStat {
    /// The pass's name, or a stage's dotted name (`core.lower`).
    pub name: String,
    /// Wall-clock time spent inside the pass (excluding any
    /// verify-after-pass overhead) or stage.
    pub duration: Duration,
    /// Total IR changes the pass reported.
    pub changes: usize,
    /// Fine-grained counters forwarded from [`PassOutcome::detail`].
    pub detail: Vec<(String, usize)>,
}

/// Statistics for a whole pipeline run, or a whole compile, in execution
/// order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PassStatistics {
    /// Per-pass (and per-stage) records, in the order they ran.
    pub passes: Vec<PassStat>,
}

impl PassStatistics {
    /// No statistics yet.
    pub fn new() -> Self {
        PassStatistics::default()
    }

    /// Number of executed passes.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.passes.len()
    }

    /// Whether no passes ran.
    pub fn is_empty(&self) -> bool {
        self.passes.is_empty()
    }

    /// Iterates over per-pass records in execution order.
    pub fn iter(&self) -> impl Iterator<Item = &PassStat> {
        self.passes.iter()
    }

    /// Runs `f` and adds its wall-clock to the row named `name`, appending
    /// that row (with no changes) if it does not exist yet. Repeated calls
    /// under one name sum, so a stage run once per kernel is one row.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let duration = start.elapsed();
        match self.passes.iter_mut().find(|p| p.name == name) {
            Some(row) => row.duration += duration,
            None => self.passes.push(PassStat {
                name: name.to_string(),
                duration,
                changes: 0,
                detail: Vec::new(),
            }),
        }
        out
    }

    /// Total wall-clock time across all passes.
    pub fn total_duration(&self) -> Duration {
        self.passes.iter().map(|p| p.duration).sum()
    }

    /// Total time spent in passes with the given name (a pass may run more
    /// than once in a pipeline).
    pub fn duration_of(&self, name: &str) -> Duration {
        self.passes.iter().filter(|p| p.name == name).map(|p| p.duration).sum()
    }

    /// Folds another run's records into this one, summing duration,
    /// changes, and detail counters by pass name (order of first
    /// appearance). Used by sweep harnesses (the differential tester, the
    /// benches) to aggregate statistics across many compilations under the
    /// same pipeline.
    pub fn merge(&mut self, other: &PassStatistics) {
        for stat in &other.passes {
            match self.passes.iter_mut().find(|p| p.name == stat.name) {
                Some(existing) => {
                    existing.duration += stat.duration;
                    existing.changes += stat.changes;
                    for (key, count) in &stat.detail {
                        match existing.detail.iter_mut().find(|(k, _)| k == key) {
                            Some((_, total)) => *total += count,
                            None => existing.detail.push((key.clone(), *count)),
                        }
                    }
                }
                None => self.passes.push(stat.clone()),
            }
        }
    }

    /// Per-pattern rewrite firing counts aggregated across every pass's
    /// detail (entries keyed with `PATTERN_DETAIL_PREFIX`, prefix
    /// stripped), sorted by name — the per-pattern view sweep summaries
    /// print.
    pub fn pattern_firings(&self) -> Vec<(String, usize)> {
        let mut out: Vec<(String, usize)> = Vec::new();
        for stat in &self.passes {
            for (key, count) in &stat.detail {
                let Some(name) = key.strip_prefix(PATTERN_DETAIL_PREFIX) else {
                    continue;
                };
                match out.iter_mut().find(|(n, _)| n == name) {
                    Some((_, existing)) => *existing += count,
                    None => out.push((name.to_string(), *count)),
                }
            }
        }
        out.sort();
        out
    }

    /// A `(name, duration, changes)` table rendered as aligned text, one
    /// row per executed pass or timed stage — the per-stage breakdown
    /// behind the compiler-phase benches and the difftest summary.
    pub fn render_table(&self) -> String {
        let name_width = self
            .passes
            .iter()
            .map(|p| p.name.len())
            .chain(std::iter::once("stage".len()))
            .max()
            .unwrap_or(5);
        let mut out = format!("{:<name_width$}  {:>12}  {:>8}\n", "stage", "time", "changes");
        for stat in &self.passes {
            out.push_str(&format!(
                "{:<name_width$}  {:>12.3?}  {:>8}\n",
                stat.name, stat.duration, stat.changes
            ));
        }
        out.push_str(&format!(
            "{:<name_width$}  {:>12.3?}  {:>8}\n",
            "total",
            self.total_duration(),
            self.passes.iter().map(|p| p.changes).sum::<usize>()
        ));
        out
    }
}

/// Runs a declared pipeline of passes over a module, recording
/// [`PassStatistics`].
#[derive(Default)]
pub struct PassManager {
    passes: Vec<Box<dyn Pass>>,
    verify_each: bool,
}

impl fmt::Debug for PassManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PassManager")
            .field("pipeline", &self.pass_names())
            .field("verify_each", &self.verify_each)
            .finish()
    }
}

impl PassManager {
    /// An empty pipeline.
    pub fn new() -> Self {
        PassManager::default()
    }

    /// Enables or disables verifying the module before the pipeline and
    /// after every pass. On failure the error names the offending pass —
    /// this replaces hand-placed `verify_module` calls between phases.
    #[must_use]
    pub fn with_verify_after_each(mut self, on: bool) -> Self {
        self.verify_each = on;
        self
    }

    /// Appends a pass to the pipeline.
    pub fn add_pass(&mut self, pass: impl Pass + 'static) -> &mut Self {
        self.passes.push(Box::new(pass));
        self
    }

    /// The declared pipeline, in execution order.
    pub fn pass_names(&self) -> Vec<String> {
        self.passes.iter().map(|p| p.name().to_string()).collect()
    }

    /// Runs the pipeline, returning per-pass statistics.
    ///
    /// # Errors
    ///
    /// Propagates the first [`PassError`]; with verify-after-each enabled,
    /// also fails when the input module or any pass's output fails
    /// [`verify_module`], attributing the failure to the offending pass.
    pub fn run(&mut self, module: &mut Module) -> Result<PassStatistics, PassError> {
        let mut stats = PassStatistics::new();
        if self.verify_each {
            verify_module(module).map_err(|e| PassError::new("<input>", e))?;
        }
        for pass in &mut self.passes {
            let start = Instant::now();
            let outcome = pass.run(module)?;
            let duration = start.elapsed();
            stats.passes.push(PassStat {
                name: pass.name().to_string(),
                duration,
                changes: outcome.changes,
                detail: outcome.detail,
            });
            if self.verify_each {
                verify_module(module).map_err(|e| PassError::new(pass.name(), e))?;
            }
        }
        Ok(stats)
    }
}

/// Repeats a sub-pipeline until a full round reports no changes (or the
/// round bound is hit). Reports the summed changes of all rounds, with a
/// per-inner-pass breakdown plus a `rounds` counter in the detail.
pub struct Fixpoint {
    name: String,
    passes: Vec<Box<dyn Pass>>,
    max_rounds: usize,
}

impl Fixpoint {
    /// A fixpoint over `passes` named `name`, bounded at 64 rounds.
    pub fn new(name: impl Into<String>, passes: Vec<Box<dyn Pass>>) -> Self {
        Fixpoint { name: name.into(), passes, max_rounds: 64 }
    }

    /// Overrides the round bound (the fixpoint stops quietly when it is
    /// reached, mirroring the bounded loop it replaces).
    #[cfg(test)]
    #[must_use]
    pub(crate) fn with_max_rounds(mut self, max_rounds: usize) -> Self {
        self.max_rounds = max_rounds.max(1);
        self
    }
}

impl Pass for Fixpoint {
    fn name(&self) -> &str {
        &self.name
    }

    fn run(&mut self, module: &mut Module) -> PassResult {
        let mut total = 0usize;
        let mut per_pass: Vec<(String, usize)> =
            self.passes.iter().map(|p| (p.name().to_string(), 0)).collect();
        let mut inner_detail: Vec<(String, usize)> = Vec::new();
        let mut rounds = 0usize;
        for _ in 0..self.max_rounds {
            rounds += 1;
            let mut round_changes = 0usize;
            for (idx, pass) in self.passes.iter_mut().enumerate() {
                let outcome = pass.run(module)?;
                round_changes += outcome.changes;
                per_pass[idx].1 += outcome.changes;
                // Fold inner details (per-pattern firings, DCE counts, …)
                // up through the fixpoint, summing by key.
                for (key, count) in outcome.detail {
                    match inner_detail.iter_mut().find(|(k, _)| *k == key) {
                        Some((_, existing)) => *existing += count,
                        None => inner_detail.push((key, count)),
                    }
                }
            }
            total += round_changes;
            if round_changes == 0 {
                break;
            }
        }
        per_pass.push(("rounds".to_string(), rounds));
        per_pass.extend(inner_detail);
        Ok(PassOutcome::changed(total).with_detail(per_pass))
    }
}

/// Detail-key prefix under which [`CanonicalizePass`] reports per-pattern
/// firing counts (e.g. `pattern:fold-double-adj`), so sweep harnesses can
/// aggregate pattern statistics without knowing pattern names up front.
pub(crate) const PATTERN_DETAIL_PREFIX: &str = "pattern:";
/// Detail key for ops removed by the rewrite engine's integrated DCE.
pub(crate) const DCE_DETAIL_KEY: &str = "dce-erased";

/// Adapts a [`GreedyRewriteDriver`] (worklist pattern engine + integrated
/// DCE) to the [`Pass`] interface, forwarding its per-pattern firing
/// counts (prefixed with `PATTERN_DETAIL_PREFIX`) and DCE count.
pub struct CanonicalizePass {
    name: String,
    driver: GreedyRewriteDriver,
}

impl CanonicalizePass {
    /// Wraps `driver` under the pass name `name`.
    pub fn new(name: impl Into<String>, driver: GreedyRewriteDriver) -> Self {
        CanonicalizePass { name: name.into(), driver }
    }
}

impl Pass for CanonicalizePass {
    fn name(&self) -> &str {
        &self.name
    }

    fn run(&mut self, module: &mut Module) -> PassResult {
        let fired = self.driver.run(module);
        let mut detail: Vec<(String, usize)> = self
            .driver
            .stats
            .fired
            .iter()
            .map(|(k, v)| (format!("{PATTERN_DETAIL_PREFIX}{k}"), *v))
            .collect();
        detail.sort();
        detail.push((DCE_DETAIL_KEY.to_string(), self.driver.stats.dce_erased));
        Ok(PassOutcome::changed(fired).with_detail(detail))
    }
}

/// An explicit verification point for pipelines that do not verify after
/// every pass.
#[cfg(test)]
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct VerifyPass;

#[cfg(test)]
impl Pass for VerifyPass {
    fn name(&self) -> &str {
        "verify"
    }

    fn run(&mut self, module: &mut Module) -> PassResult {
        verify_module(module).map_err(|e| PassError::new("verify", e))?;
        Ok(PassOutcome::unchanged())
    }
}

/// A pass backed by a closure — the lightest way to lift an existing
/// `fn(&mut Module) -> …` transformation into a pipeline.
#[cfg(test)]
pub(crate) struct FnPass<F> {
    name: String,
    f: F,
}

/// Builds a [`FnPass`] named `name` around `f`.
#[cfg(test)]
pub(crate) fn pass_fn<F>(name: impl Into<String>, f: F) -> FnPass<F>
where
    F: FnMut(&mut Module) -> PassResult,
{
    FnPass { name: name.into(), f }
}

#[cfg(test)]
impl<F> Pass for FnPass<F>
where
    F: FnMut(&mut Module) -> PassResult,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn run(&mut self, module: &mut Module) -> PassResult {
        (self.f)(module)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::{FuncBuilder, Visibility};
    use crate::op::OpKind;
    use crate::types::{FuncType, Type};

    /// A module with one function: `f() -> f64 { return const 1.0 }`.
    fn small_module() -> Module {
        let mut b = FuncBuilder::new(
            "f",
            FuncType::new(vec![], vec![Type::F64], false),
            Visibility::Public,
        );
        let mut bb = b.block();
        let c = bb.push(OpKind::ConstF64 { value: 1.0 }, vec![], vec![Type::F64]);
        bb.push(OpKind::Return, vec![c[0]], vec![]);
        let mut module = Module::new();
        module.add_func(b.finish());
        module
    }

    #[test]
    fn runs_passes_in_declared_order_with_change_counts() {
        let order = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let mut pm = PassManager::new();
        for (name, changes) in [("first", 3usize), ("second", 0), ("third", 7)] {
            let order = order.clone();
            pm.add_pass(pass_fn(name, move |_m: &mut Module| {
                order.borrow_mut().push(name);
                Ok(PassOutcome::changed(changes))
            }));
        }
        assert_eq!(pm.pass_names(), ["first", "second", "third"]);

        let mut module = small_module();
        let stats = pm.run(&mut module).unwrap();
        assert_eq!(*order.borrow(), ["first", "second", "third"]);
        let reported: Vec<(String, usize)> =
            stats.iter().map(|p| (p.name.clone(), p.changes)).collect();
        assert_eq!(
            reported,
            [("first".to_string(), 3), ("second".to_string(), 0), ("third".to_string(), 7)]
        );
        assert_eq!(stats.len(), 3);
    }

    #[test]
    fn verify_after_each_catches_broken_pass() {
        let mut pm = PassManager::new().with_verify_after_each(true);
        pm.add_pass(pass_fn("benign", |_m: &mut Module| Ok(PassOutcome::unchanged())));
        // Deliberately corrupt the IR: drop the function's terminator.
        pm.add_pass(pass_fn("breaks-ir", |m: &mut Module| {
            let f = m.func_mut("f").expect("present");
            f.body.ops.clear();
            Ok(PassOutcome::changed(1))
        }));
        pm.add_pass(pass_fn("never-reached", |_m: &mut Module| {
            panic!("pipeline must abort before this pass")
        }));

        let mut module = small_module();
        let err = pm.run(&mut module).unwrap_err();
        assert_eq!(err.pass, "breaks-ir");
    }

    #[test]
    fn verify_rejects_invalid_input_module() {
        let mut module = small_module();
        module.func_mut("f").unwrap().body.ops.clear();
        let mut pm = PassManager::new().with_verify_after_each(true);
        pm.add_pass(pass_fn("unreached", |_m: &mut Module| {
            panic!("must not run on invalid input")
        }));
        let err = pm.run(&mut module).unwrap_err();
        assert_eq!(err.pass, "<input>");
    }

    #[test]
    fn without_verify_mode_broken_ir_is_not_checked() {
        let mut pm = PassManager::new();
        pm.add_pass(pass_fn("breaks-ir", |m: &mut Module| {
            m.func_mut("f").expect("present").body.ops.clear();
            Ok(PassOutcome::changed(1))
        }));
        let mut module = small_module();
        assert!(pm.run(&mut module).is_ok());
    }

    #[test]
    fn fixpoint_converges_and_counts_rounds() {
        // A pass that "fires" three times total, then settles.
        let budget = std::rc::Rc::new(std::cell::RefCell::new(3usize));
        let b = budget.clone();
        let inner = pass_fn("decay", move |_m: &mut Module| {
            let mut left = b.borrow_mut();
            if *left > 0 {
                *left -= 1;
                Ok(PassOutcome::changed(1))
            } else {
                Ok(PassOutcome::unchanged())
            }
        });
        let mut fix = Fixpoint::new("decay-loop", vec![Box::new(inner)]);
        let mut module = small_module();
        let outcome = fix.run(&mut module).unwrap();
        assert_eq!(outcome.changes, 3);
        // 3 firing rounds + 1 quiescent round.
        assert!(outcome.detail.contains(&("rounds".to_string(), 4)));
        assert!(outcome.detail.contains(&("decay".to_string(), 3)));
    }

    #[test]
    fn fixpoint_respects_round_bound() {
        let always = pass_fn("always-changes", |_m: &mut Module| Ok(PassOutcome::changed(1)));
        let mut fix = Fixpoint::new("bounded", vec![Box::new(always)]).with_max_rounds(5);
        let mut module = small_module();
        let outcome = fix.run(&mut module).unwrap();
        assert_eq!(outcome.changes, 5, "stops at the bound instead of spinning");
    }

    #[test]
    fn statistics_aggregate_durations_and_render() {
        let mut pm = PassManager::new();
        pm.add_pass(pass_fn("spin", |_m: &mut Module| {
            // Make the duration measurably nonzero.
            let start = Instant::now();
            while start.elapsed() < Duration::from_micros(50) {
                std::hint::black_box(0u8);
            }
            Ok(PassOutcome::changed(2))
        }));
        let mut module = small_module();
        let stats = pm.run(&mut module).unwrap();
        assert!(stats.total_duration() >= Duration::from_micros(50));
        assert_eq!(stats.duration_of("spin"), stats.total_duration());
        let table = stats.render_table();
        assert!(table.contains("spin"), "{table}");
        assert!(table.contains("total"), "{table}");
    }

    #[test]
    fn time_adds_to_the_row_of_its_name() {
        let mut stats = PassStatistics::new();
        assert_eq!(stats.time("stage.a", || 7), 7);
        stats.time("stage.b", || ());
        let before = stats.duration_of("stage.a");
        stats.time("stage.a", || std::thread::sleep(Duration::from_micros(50)));
        let names: Vec<&str> = stats.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["stage.a", "stage.b"], "a repeated name sums into its row");
        assert!(stats.duration_of("stage.a") >= before + Duration::from_micros(50));
        assert!(stats.iter().all(|p| p.changes == 0 && p.detail.is_empty()));
    }

    #[test]
    fn canonicalize_pass_forwards_pattern_stats() {
        // An empty driver through the adapter: no firings, but the DCE
        // detail entry is still reported.
        let driver = GreedyRewriteDriver::new();
        let mut pass = CanonicalizePass::new("empty-canon", driver);
        let mut module = small_module();
        let outcome = pass.run(&mut module).unwrap();
        assert_eq!(outcome.changes, 0, "no patterns registered");
        assert!(outcome.detail.iter().any(|(k, _)| k == DCE_DETAIL_KEY));
    }

    #[test]
    fn fixpoint_folds_inner_details_upward() {
        let inner = pass_fn("detailed", {
            let mut left = 2usize;
            move |_m: &mut Module| {
                if left > 0 {
                    left -= 1;
                    Ok(PassOutcome::changed(1)
                        .with_detail(vec![(format!("{PATTERN_DETAIL_PREFIX}toy"), 1)]))
                } else {
                    Ok(PassOutcome::unchanged())
                }
            }
        });
        let mut fix = Fixpoint::new("detail-loop", vec![Box::new(inner)]);
        let mut module = small_module();
        let outcome = fix.run(&mut module).unwrap();
        assert!(
            outcome.detail.contains(&(format!("{PATTERN_DETAIL_PREFIX}toy"), 2)),
            "{:?}",
            outcome.detail
        );
        // And PassStatistics aggregates the prefixed entries.
        let mut stats = PassStatistics::new();
        stats.passes.push(PassStat {
            name: "detail-loop".into(),
            duration: Duration::ZERO,
            changes: outcome.changes,
            detail: outcome.detail,
        });
        assert_eq!(stats.pattern_firings(), vec![("toy".to_string(), 2)]);
    }

    #[test]
    fn verify_pass_flags_invalid_module() {
        let mut module = small_module();
        module.func_mut("f").unwrap().body.ops.clear();
        let err = VerifyPass.run(&mut module).unwrap_err();
        assert_eq!(err.pass, "verify");
    }
}
