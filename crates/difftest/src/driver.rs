//! The differential driver: compiles each generated case under the full
//! [`CompileOptions::matrix`] and cross-checks every pair of
//! configurations with the `crate::oracle` equivalence oracles.

use crate::gen::{gen_case, GenCase, GenOptions};
use crate::oracle::{compare, extract, Comparison, OracleOptions, Semantics};
use crate::report::Mismatch;
use crate::shrink::minimize;
use asdf_core::{CacheStats, CompileOptions, CompileRequest, Compiled, Session};
use asdf_ir::pass::PassStatistics;
use asdf_qcircuit::Circuit;
use std::num::NonZeroUsize;
use std::time::{Duration, Instant};
use threadpool::ThreadPool;

/// A circuit mutation injected after compilation of one named
/// configuration — the hook tests use to prove the harness *catches*
/// miscompilations (e.g. a peephole rule with a flipped sign).
pub(crate) type Sabotage = Box<dyn Fn(&mut Circuit)>;

/// Sweep parameters.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Sweep seed; every case seed derives from it deterministically.
    pub seed: u64,
    /// Number of generated programs.
    pub cases: usize,
    /// Generator tunables.
    pub gen: GenOptions,
    /// Whether to greedily minimize failing cases.
    pub shrink: bool,
    /// On a mismatch, binary-search `CompileOptions::rewrite_fuel` to name
    /// the first pattern firing that introduces the divergence.
    pub fuel_bisect: bool,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            seed: 0xA5DF,
            cases: 500,
            gen: GenOptions::default(),
            shrink: true,
            fuel_bisect: false,
        }
    }
}

/// Per-configuration sweep accounting.
#[derive(Debug, Clone)]
pub struct ConfigReport {
    /// Configuration name (from [`CompileOptions::matrix`]).
    pub name: String,
    /// Cases that compiled.
    pub compiled: usize,
    /// Cases that failed to compile.
    pub compile_errors: usize,
    /// Cases that produced a static circuit.
    pub circuits: usize,
    /// Pairwise comparisons involving this config that ran.
    pub compared: usize,
    /// Pairwise comparisons involving this config that were skipped.
    pub skipped: usize,
    /// Compile records (every stage's row of each artifact's
    /// [`PassStatistics`]) merged across every compiled case.
    pub stats: PassStatistics,
    /// Total lint warnings across every compiled case (0 unless the
    /// harness ran with [`Harness::with_lints`]).
    pub lints: usize,
    /// Routing telemetry summed across every routed compile of this
    /// configuration — all zero for untargeted (all-to-all) configs.
    pub routing: RoutingTotals,
}

/// SWAP and depth totals for one routed configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoutingTotals {
    /// Compiles that went through the router.
    pub routed_cases: usize,
    /// SWAPs inserted, summed over routed compiles.
    pub swaps: usize,
    /// Pre-routing (all-to-all, native-gate) depth, summed.
    pub unrouted_depth: usize,
    /// Post-routing depth, summed.
    pub routed_depth: usize,
}

impl RoutingTotals {
    fn add(&mut self, info: &asdf_target::RoutingInfo) {
        self.routed_cases += 1;
        self.swaps += info.swap_count;
        self.unrouted_depth += info.unrouted_depth;
        self.routed_depth += info.routed_depth;
    }

    /// The totals as a [`asdf_resource::RouteOverhead`] for reporting.
    pub fn overhead(&self) -> asdf_resource::RouteOverhead {
        asdf_resource::RouteOverhead {
            swap_count: self.swaps,
            unrouted_depth: self.unrouted_depth,
            routed_depth: self.routed_depth,
        }
    }
}

/// The result of a whole sweep.
#[derive(Debug)]
pub struct SweepReport {
    /// Cases generated.
    pub cases: usize,
    /// Cases every configuration rejected identically (compiler gaps, not
    /// differential findings).
    pub rejected: usize,
    /// Total pairwise comparisons that ran.
    pub comparisons: usize,
    /// Per-configuration accounting, in matrix order.
    pub configs: Vec<ConfigReport>,
    /// Differential findings, with minimized reproducers when shrinking is
    /// enabled.
    pub mismatches: Vec<Mismatch>,
    /// Session cache counters aggregated over every per-case session: the
    /// frontend is parsed/typechecked/lowered once per case and *reused*
    /// by the other thirteen configurations (as cache hits or coalesced
    /// waits, since the configurations compile concurrently).
    pub cache: CacheStats,
    /// Worker threads the compile phase ran on.
    pub jobs: usize,
    /// Wall-clock of the concurrent 14-config compile phases.
    pub compile_elapsed: Duration,
    /// Sum of every individual configuration's compile time — what the
    /// compile phases would have cost serially.
    pub compile_serial_equiv: Duration,
}

impl SweepReport {
    /// Whether the sweep found no miscompilations.
    pub fn passed(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// The per-configuration summary as an aligned text table.
    pub fn render_table(&self) -> String {
        let width = self.configs.iter().map(|c| c.name.len()).max().unwrap_or(6).max(6);
        let mut out = format!(
            "{:<width$} {:>9} {:>5} {:>6} {:>9} {:>8} {:>6} {:>6}\n",
            "config", "compiled", "err", "circ", "compared", "skipped", "lints", "swaps"
        );
        for c in &self.configs {
            out.push_str(&format!(
                "{:<width$} {:>9} {:>5} {:>6} {:>9} {:>8} {:>6} {:>6}\n",
                c.name,
                c.compiled,
                c.compile_errors,
                c.circuits,
                c.compared,
                c.skipped,
                c.lints,
                c.routing.swaps
            ));
        }
        out
    }

    /// Total lint warnings across every configuration.
    pub fn lint_warnings(&self) -> usize {
        self.configs.iter().map(|c| c.lints).sum()
    }
}

/// Outcome of checking one case.
#[derive(Debug)]
pub enum CaseOutcome {
    /// All comparable configuration pairs agreed.
    Pass,
    /// Every configuration rejected the program with an error (recorded,
    /// but not a differential finding).
    Rejected(String),
    /// Two configurations disagreed (or compile status diverged).
    Mismatch {
        /// First configuration name.
        config_a: String,
        /// Second configuration name.
        config_b: String,
        /// Why they disagree.
        reason: String,
    },
}

/// Per-config accounting entry: compile success, circuit produced, pass
/// stats, lint warning count (always 0 unless the harness lints), and the
/// router's report when the config targets hardware.
pub(crate) type ConfigAccounting =
    (bool, bool, Option<PassStatistics>, usize, Option<asdf_target::RoutingInfo>);

/// Per-case, per-config bookkeeping returned alongside the outcome.
#[derive(Debug, Default)]
pub struct CaseAccounting {
    /// One entry per configuration in matrix order.
    pub per_config: Vec<ConfigAccounting>,
    /// Comparisons run / skipped, per config index.
    pub compared: Vec<usize>,
    /// Skipped comparisons per config index.
    pub skipped: Vec<usize>,
    /// The per-case session's cache counters.
    pub cache: CacheStats,
    /// Wall-clock of this case's concurrent compile phase.
    pub compile_elapsed: Duration,
    /// Sum of the individual configuration compile times.
    pub compile_serial_equiv: Duration,
}

/// The differential harness: a configuration matrix plus oracles.
pub struct Harness {
    /// Named configurations under test.
    pub configs: Vec<(String, CompileOptions)>,
    /// Oracle tunables.
    pub oracle: OracleOptions,
    sabotage: Option<(String, Sabotage)>,
    /// The pool that compiles each case's configurations concurrently
    /// through the shared session.
    pool: ThreadPool,
}

impl Harness {
    /// A harness over the full [`CompileOptions::matrix`], compiling each
    /// case's configurations concurrently on up to
    /// `available_parallelism` (capped at the matrix width) workers.
    pub fn new(oracle: OracleOptions) -> Self {
        let configs = CompileOptions::matrix();
        let jobs = std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
            .min(configs.len());
        let mut harness = Harness { configs, oracle, sabotage: None, pool: ThreadPool::new(1) };
        harness.set_jobs(jobs);
        harness
    }

    /// Overrides the compile-phase worker count (1 = serial). A parallel
    /// compile pool pins the oracle's simulator pools to one worker each —
    /// case-level parallelism already saturates the machine, and nested
    /// pools would only oversubscribe it. A serial compile phase
    /// (`jobs == 1`) hands the whole machine back to the simulator
    /// (`sim_threads = 0`, size-based auto).
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.set_jobs(jobs.max(1));
        self
    }

    fn set_jobs(&mut self, jobs: usize) {
        self.pool = ThreadPool::new(jobs);
        self.oracle.sim_threads = if jobs > 1 { 1 } else { 0 };
    }

    /// The compile-phase worker count.
    pub fn jobs(&self) -> usize {
        self.pool.workers()
    }

    /// Installs a circuit mutation applied after compiling `config` —
    /// an intentionally broken "pass" the harness must catch.
    #[must_use]
    pub fn with_sabotage(mut self, config: &str, f: impl Fn(&mut Circuit) + 'static) -> Self {
        self.sabotage = Some((config.to_string(), Box::new(f)));
        self
    }

    /// Turns on the asdf-lint analyses for every configuration. The sweep
    /// then doubles as a lint soundness harness: generated programs are
    /// correct by construction, so *any* default-severity warning is a
    /// false positive.
    #[must_use]
    pub fn with_lints(mut self) -> Self {
        for (_, options) in &mut self.configs {
            options.lints = true;
        }
        self
    }

    /// Compiles `case` under every configuration and cross-checks all
    /// comparable pairs.
    ///
    /// All configurations run **concurrently through one shared
    /// [`Session`]**: the case is parsed once, the fourteen configuration
    /// compiles are distributed over the harness pool, and the frontend
    /// (instantiate/typecheck/lower) runs exactly once — the other thirteen
    /// configurations either hit the frontend cache or coalesce onto the
    /// in-flight frontend run. The session's counters are merged into the
    /// returned accounting.
    pub fn check_case(&self, case: &GenCase) -> (CaseOutcome, CaseAccounting) {
        let rendered = case.render();
        let mut acct = CaseAccounting {
            per_config: Vec::with_capacity(self.configs.len()),
            compared: vec![0; self.configs.len()],
            skipped: vec![0; self.configs.len()],
            cache: CacheStats::default(),
            compile_elapsed: Duration::ZERO,
            compile_serial_equiv: Duration::ZERO,
        };
        let session = match Session::new(&rendered.source) {
            Ok(session) => session,
            Err(e) => {
                // The generator emits well-formed source; a parse failure is
                // uniform across configurations by construction.
                return (CaseOutcome::Rejected(e.to_string()), acct);
            }
        };
        let base_request =
            CompileRequest::kernel(&rendered.kernel).with_captures(&rendered.captures);

        // The concurrent compile phase: one slot per configuration, each
        // compiled through the shared session. Captures are limited to
        // Sync state (the sabotage hook is applied afterwards, serially).
        #[derive(Default)]
        struct CompileSlot {
            result: Option<Result<Compiled, String>>,
            elapsed: Duration,
        }
        let mut slots: Vec<CompileSlot> =
            (0..self.configs.len()).map(|_| CompileSlot::default()).collect();
        let compile_started = Instant::now();
        {
            let configs = &self.configs;
            let session = &session;
            let base_request = &base_request;
            let dims = &rendered.dims;
            self.pool.for_each_chunk(&mut slots, 1, |index, chunk| {
                let mut options = configs[index].1.clone();
                options.dims.extend(dims.iter().map(|(k, v)| (k.clone(), *v)));
                let request = base_request.clone().with_options(options);
                let started = Instant::now();
                let result =
                    session.compile(&request).map(|arc| (*arc).clone()).map_err(|e| e.to_string());
                chunk[0] = CompileSlot { result: Some(result), elapsed: started.elapsed() };
            });
        }
        acct.compile_elapsed = compile_started.elapsed();
        acct.compile_serial_equiv = slots.iter().map(|s| s.elapsed).sum();

        let mut compiled: Vec<Result<Compiled, String>> =
            slots.into_iter().map(|s| s.result.expect("every config slot filled")).collect();
        if let Some((target, mutate)) = &self.sabotage {
            for ((name, _), result) in self.configs.iter().zip(compiled.iter_mut()) {
                if name == target {
                    if let Ok(c) = result {
                        if let Some(circuit) = &mut c.circuit {
                            mutate(circuit);
                        }
                    }
                }
            }
        }
        for result in &compiled {
            acct.per_config.push((
                result.is_ok(),
                result.as_ref().map(|c| c.circuit.is_some()).unwrap_or(false),
                result.as_ref().ok().map(|c| c.stats.clone()),
                result.as_ref().map(|c| c.lints.len()).unwrap_or(0),
                result.as_ref().ok().and_then(|c| c.routing.clone()),
            ));
        }
        acct.cache = session.cache_stats();

        // A hardware-targeted config legitimately rejects programs wider
        // than its device; that is a capacity skip, not a differential
        // finding. Any other compile failure diverging from a success is.
        let capacity_skip = |index: usize| -> bool {
            matches!(&compiled[index], Err(msg)
                if self.configs[index].1.target.is_some() && asdf_target::is_capacity_error(msg))
        };

        // Compile-status divergence is itself a differential finding; a
        // uniform rejection is a (tracked) generator/compiler gap.
        if compiled.iter().all(|r| r.is_err()) {
            let error = compiled[0].as_ref().unwrap_err().clone();
            return (CaseOutcome::Rejected(error), acct);
        }
        if let Some(bad) = (0..compiled.len()).find(|&i| compiled[i].is_err() && !capacity_skip(i))
        {
            let good = compiled.iter().position(|r| r.is_ok()).expect("some config compiled");
            return (
                CaseOutcome::Mismatch {
                    config_a: self.configs[good].0.clone(),
                    config_b: self.configs[bad].0.clone(),
                    reason: format!(
                        "compile status diverges: {} succeeds but {} fails with: {}",
                        self.configs[good].0,
                        self.configs[bad].0,
                        compiled[bad].as_ref().unwrap_err()
                    ),
                },
                acct,
            );
        }

        let semantics: Vec<Semantics> = compiled
            .iter()
            .map(|r| match r {
                Ok(compiled) => extract(case, compiled, &self.oracle, case.seed),
                // Only capacity skips reach here; their comparisons skip.
                Err(msg) => Semantics::Unavailable(msg.clone()),
            })
            .collect();

        for i in 0..semantics.len() {
            for j in (i + 1)..semantics.len() {
                match compare(&semantics[i], &semantics[j], self.oracle.eps) {
                    Comparison::Agree => {
                        acct.compared[i] += 1;
                        acct.compared[j] += 1;
                    }
                    Comparison::Skipped => {
                        acct.skipped[i] += 1;
                        acct.skipped[j] += 1;
                    }
                    Comparison::Disagree(reason) => {
                        acct.compared[i] += 1;
                        acct.compared[j] += 1;
                        return (
                            CaseOutcome::Mismatch {
                                config_a: self.configs[i].0.clone(),
                                config_b: self.configs[j].0.clone(),
                                reason,
                            },
                            acct,
                        );
                    }
                }
            }
        }
        (CaseOutcome::Pass, acct)
    }

    /// Whether `case` still fails (mismatch or compile divergence) — the
    /// shrinker's predicate.
    pub(crate) fn fails(&self, case: &GenCase) -> bool {
        matches!(self.check_case(case).0, CaseOutcome::Mismatch { .. })
    }

    /// Runs a full seeded sweep.
    pub fn run_sweep(&self, opts: &SweepOptions) -> SweepReport {
        let mut configs: Vec<ConfigReport> = self
            .configs
            .iter()
            .map(|(name, _)| ConfigReport {
                name: name.clone(),
                compiled: 0,
                compile_errors: 0,
                circuits: 0,
                compared: 0,
                skipped: 0,
                stats: PassStatistics::new(),
                lints: 0,
                routing: RoutingTotals::default(),
            })
            .collect();
        let mut rejected = 0;
        let mut comparisons = 0;
        let mut mismatches = Vec::new();
        let mut cache = CacheStats::default();
        let mut compile_elapsed = Duration::ZERO;
        let mut compile_serial_equiv = Duration::ZERO;

        for index in 0..opts.cases {
            let case = gen_case(opts.seed, index, &opts.gen);
            let (outcome, acct) = self.check_case(&case);
            for (ci, (ok, circ, stats, lints, routing)) in acct.per_config.iter().enumerate() {
                if *ok {
                    configs[ci].compiled += 1;
                } else {
                    configs[ci].compile_errors += 1;
                }
                if *circ {
                    configs[ci].circuits += 1;
                }
                if let Some(stats) = stats {
                    configs[ci].stats.merge(stats);
                }
                if let Some(info) = routing {
                    configs[ci].routing.add(info);
                }
                configs[ci].lints += lints;
                configs[ci].compared += acct.compared[ci];
                configs[ci].skipped += acct.skipped[ci];
            }
            comparisons += acct.compared.iter().sum::<usize>() / 2;
            cache.merge(&acct.cache);
            compile_elapsed += acct.compile_elapsed;
            compile_serial_equiv += acct.compile_serial_equiv;
            match outcome {
                CaseOutcome::Pass => {}
                CaseOutcome::Rejected(_) => rejected += 1,
                CaseOutcome::Mismatch { config_a, config_b, reason } => {
                    let shrunk = if opts.shrink {
                        let minimized = minimize(&case, |c| self.fails(c), 400);
                        (minimized != case).then_some(minimized)
                    } else {
                        None
                    };
                    // Bisect the minimized case when there is one — fewer
                    // firings means a tighter search and a smaller repro.
                    let bisect = if opts.fuel_bisect {
                        let subject = shrunk.as_ref().unwrap_or(&case);
                        crate::bisect::fuel_bisect(
                            subject,
                            &self.configs,
                            &config_a,
                            &config_b,
                            &self.oracle,
                        )
                        .map(|finding| finding.to_string())
                    } else {
                        None
                    };
                    mismatches
                        .push(Mismatch::new(&case, config_a, config_b, reason, shrunk, bisect));
                }
            }
        }

        SweepReport {
            cases: opts.cases,
            rejected,
            comparisons,
            configs,
            mismatches,
            cache,
            jobs: self.jobs(),
            compile_elapsed,
            compile_serial_equiv,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_defaults_to_the_full_matrix() {
        let harness = Harness::new(OracleOptions::default());
        assert_eq!(harness.configs.len(), 14);
        let routed: Vec<&str> = harness
            .configs
            .iter()
            .filter(|(_, o)| o.target.is_some())
            .map(|(name, _)| name.as_str())
            .collect();
        assert_eq!(routed, ["opt+peep+selinger@linear-16", "opt+peep+selinger@grid-4x4"]);
    }
}
