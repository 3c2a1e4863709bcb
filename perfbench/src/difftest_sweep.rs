//! `difftest_sweep`: generated cases through `Harness::check_case` over
//! the 14-config matrix, on the harness's default worker pool. One case is
//! one op; the sweep is a single serial stream, as the difftest CLI runs.
//!
//! About 95% of the time is semantic extraction, not compilation, and most
//! of that is 4096-shot sampling: every measuring circuit carries a
//! `Reset`, which sends the simulator off the exact-distribution path.
//! Case cost is heavy-tailed (median ~17 ms, a few cases take seconds).
//! So that seeds compare like with like, the case population is fixed —
//! the first 64 cases of the harness's default sweep seed, tail included —
//! and the seed draws the order and each case's sampling stream. Runs
//! cover whole passes over the corpus.
//!
//! The traced run times a replica of `Harness::check_case` built from the
//! same public calls. Every traced op also runs the real `check_case` on
//! the same case, outside the op's span, and fails the run if the two
//! differ in outcome, per-configuration compile results, comparisons or
//! skips: the replica has to follow any change to `check_case`.

use crate::report::{fingerprint, Metric, Quality, Rng};
use crate::trace::{TraceSummary, Tracer, OP};
use crate::{Phase, Workload};
use asdf_core::{CompileOptions, CompileRequest, Compiled, Session};
use asdf_difftest::driver::CaseAccounting;
use asdf_difftest::{compare, extract, gen_case, CaseOutcome, Comparison, GenCase, GenOptions};
use asdf_difftest::{Harness, OracleOptions, Semantics};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The difftest CLI's default sweep seed.
const CORPUS_SEED: u64 = 0xA5DF;
/// Corpus size: one pass takes ~7.5 s on a 2-core x86-64 VM and holds
/// the prefix's slowest cases (3.0 s, 1.2 s, 0.8 s).
const CORPUS_CASES: usize = 64;
/// Set-up warms the harness on six of the corpus's cheap cases (~90 ms).
const WARM_UP: [usize; 6] = [1, 3, 6, 8, 9, 10];
/// For each configuration of the matrix (in `CompileOptions::matrix`
/// order), the corpus cases it turned into a straight-line circuit when
/// the benchmark was introduced. A configuration that falls below its
/// count has stopped producing circuits it produced before, which would
/// shrink the quality sums and read as a gain; the run fails instead.
const CIRCUITS_AT_BASELINE: [usize; 14] = [64, 64, 64, 64, 64, 64, 0, 0, 0, 0, 0, 0, 64, 64];

/// What the traced replica did for one case.
#[derive(Default)]
struct ReplicaCounts {
    /// Per configuration: compiled, and produced a circuit.
    compiled: Vec<(bool, bool)>,
    extractions: u64,
    distinct_circuits: u64,
    comparisons: u64,
    skipped: u64,
}

impl ReplicaCounts {
    /// How the replica's case differs from `Harness::check_case`'s, if it
    /// does.
    fn drift(
        &self,
        outcome: &CaseOutcome,
        real: &CaseOutcome,
        acct: &CaseAccounting,
    ) -> Option<String> {
        if std::mem::discriminant(outcome) != std::mem::discriminant(real) {
            return Some(format!("outcome {outcome:?} against {real:?}"));
        }
        let compiled: Vec<(bool, bool)> = acct.per_config.iter().map(|c| (c.0, c.1)).collect();
        if self.compiled != compiled {
            return Some("per-configuration compile results differ".to_string());
        }
        let pairs = |per_config: &[usize]| per_config.iter().sum::<usize>() as u64 / 2;
        let real_counts = (pairs(&acct.compared), pairs(&acct.skipped));
        if (self.comparisons, self.skipped) != real_counts {
            return Some(format!(
                "{} comparisons and {} skips against {} and {}",
                self.comparisons, self.skipped, real_counts.0, real_counts.1
            ));
        }
        None
    }
}

/// Per-layer totals of the traced ops: work counts from the replica, and
/// compile times and cache counters from `check_case`'s own accounting.
#[derive(Default)]
struct Counters {
    extractions: u64,
    distinct_circuits: u64,
    comparisons: u64,
    skipped: u64,
    compile_errors: u64,
    frontend_hits: u64,
    frontend_lookups: u64,
    compile_serial: Duration,
    compile_wall: Duration,
}

impl Counters {
    fn add(&mut self, replica: &ReplicaCounts, acct: &CaseAccounting) {
        self.extractions += replica.extractions;
        self.distinct_circuits += replica.distinct_circuits;
        self.comparisons += replica.comparisons;
        self.skipped += replica.skipped;
        self.compile_errors += acct.per_config.iter().filter(|c| !c.0).count() as u64;
        let cache = &acct.cache;
        self.frontend_hits += cache.frontend_hits;
        self.frontend_lookups +=
            cache.frontend_hits + cache.frontend_misses + cache.frontend_coalesced;
        self.compile_serial += acct.compile_serial_equiv;
        self.compile_wall += acct.compile_elapsed;
    }
}

pub struct DifftestSweep {
    /// (corpus index, case with its seeded sampling stream), in run order.
    cases: Vec<(usize, GenCase)>,
    harness: Harness,
    configs: Vec<(String, CompileOptions)>,
    oracle: OracleOptions,
    counters: Counters,
    mismatches: u64,
    rejected: u64,
}

impl Workload for DifftestSweep {
    fn setup(seed: u64) -> DifftestSweep {
        let mut rng = Rng::new(seed, 3);
        let mut cases: Vec<(usize, GenCase)> = (0..CORPUS_CASES)
            .map(|index| {
                let mut case = gen_case(CORPUS_SEED, index, &GenOptions::default());
                case.seed = rng.next_u64();
                (index, case)
            })
            .collect();
        rng.shuffle(&mut cases);
        let harness = Harness::new(OracleOptions::default());
        for index in WARM_UP {
            let case = gen_case(CORPUS_SEED, index, &GenOptions::default());
            assert!(
                matches!(harness.check_case(&case).0, CaseOutcome::Pass),
                "warm-up case {index} passes"
            );
        }
        // The harness pins each extraction to one simulator thread when its
        // compile pool is parallel; the traced replica does the same.
        let oracle = OracleOptions {
            sim_threads: if harness.jobs() > 1 { 1 } else { 0 },
            ..OracleOptions::default()
        };
        DifftestSweep {
            cases,
            configs: harness.configs.clone(),
            harness,
            oracle,
            counters: Counters::default(),
            mismatches: 0,
            rejected: 0,
        }
    }

    fn run(&mut self, seconds: f64, tracer: Option<&Tracer>) -> Phase {
        let mut phase = Phase::default();
        let started = Instant::now();
        let deadline = started + Duration::from_secs_f64(seconds);
        let mut op = 0u64;
        loop {
            for case_index in 0..self.cases.len() {
                let (corpus_index, case_seed) =
                    (self.cases[case_index].0, self.cases[case_index].1.seed);
                let op_started = Instant::now();
                let (outcome, replica) = match tracer {
                    None => (self.harness.check_case(&self.cases[case_index].1).0, None),
                    Some(tr) => {
                        let (outcome, counts) = tr.span(OP, None, op, |root| {
                            self.replica_case(corpus_index, case_seed, tr, root, op)
                        });
                        (outcome, Some(counts))
                    }
                };
                phase.latencies.push(op_started.elapsed());
                op += 1;
                let mut drift = None;
                if let Some(counts) = replica {
                    let (real, acct) = self.harness.check_case(&self.cases[case_index].1);
                    drift = counts.drift(&outcome, &real, &acct);
                    self.counters.add(&counts, &acct);
                }
                match outcome {
                    CaseOutcome::Pass if drift.is_none() => phase.passed += 1,
                    CaseOutcome::Pass => {
                        phase.wrong += 1;
                        phase.note(format!(
                            "case {corpus_index}: the traced replica drifted from \
                             Harness::check_case: {}",
                            drift.unwrap_or_default()
                        ));
                    }
                    // Every corpus case compiles under some configuration,
                    // so a uniform rejection is a broken compiler, not a
                    // cheap pass.
                    CaseOutcome::Rejected(error) => {
                        phase.wrong += 1;
                        self.rejected += 1;
                        phase.note(format!(
                            "case {corpus_index}: every configuration rejects it: {error}"
                        ));
                    }
                    CaseOutcome::Mismatch { config_a, config_b, reason } => {
                        phase.wrong += 1;
                        self.mismatches += 1;
                        phase.note(format!(
                            "case {corpus_index}: {config_a} vs {config_b} mismatch: {reason}"
                        ));
                    }
                }
            }
            if Instant::now() >= deadline {
                break;
            }
        }
        phase.elapsed = started.elapsed();
        phase
    }

    fn finish(&mut self, phase: &mut Phase) -> Quality {
        phase.note(format!(
            "difftest: {} mismatches, {} rejected cases",
            self.mismatches, self.rejected
        ));
        // Every distinct circuit the matrix produces for the corpus. Each
        // configuration must compile each case, or reject it for lack of
        // device capacity, and yield at least its baseline share of
        // circuits.
        let mut quality = Quality::default();
        let mut circuits = vec![0usize; self.configs.len()];
        for (index, case) in &self.cases {
            let rendered = case.render();
            let session = match Session::new(&rendered.source) {
                Ok(session) => session,
                Err(e) => {
                    phase.check_failures += 1;
                    phase.note(format!("case {index}: {e}"));
                    continue;
                }
            };
            for (slot, (name, options)) in self.configs.iter().enumerate() {
                match session.compile(&config_request(&rendered, options)) {
                    Ok(compiled) => {
                        if let Some(circuit) = &compiled.circuit {
                            circuits[slot] += 1;
                            let swaps = compiled.routing.as_ref().map_or(0, |r| r.swap_count);
                            quality.add(circuit, swaps);
                        }
                    }
                    Err(e)
                        if options.target.is_some()
                            && asdf_target::is_capacity_error(&e.to_string()) => {}
                    Err(e) => {
                        phase.check_failures += 1;
                        phase.note(format!("case {index} under {name}: {e}"));
                    }
                }
            }
        }
        for ((name, _), (&got, &baseline)) in
            self.configs.iter().zip(circuits.iter().zip(&CIRCUITS_AT_BASELINE))
        {
            if got < baseline {
                phase.check_failures += 1;
                phase.note(format!(
                    "{name}: circuits for {got} corpus cases, {baseline} at baseline"
                ));
            }
        }
        phase.note(format!("difftest: circuits per configuration {circuits:?}"));
        quality
    }

    fn layers(&mut self, summary: &TraceSummary) -> Vec<Metric> {
        let c = &self.counters;
        let mut out = Vec::new();
        for path in ["circuit_columns", "circuit_dist", "dynamic_columns", "dynamic_dist"] {
            let name = format!("difftest.extract.{path}");
            out.push(Metric::new(&format!("{name}_ms"), summary.self_ms(&name), "ms"));
        }
        out.push(Metric::new("difftest.extractions", c.extractions as f64, "count"));
        out.push(Metric::new(
            "difftest.distinct_circuit_ratio",
            c.distinct_circuits as f64 / c.extractions.max(1) as f64,
            "ratio",
        ));
        out.push(Metric::new("difftest.gen_ms", summary.self_ms("difftest.gen"), "ms"));
        out.push(Metric::new("difftest.compare_ms", summary.self_ms("difftest.compare"), "ms"));
        out.push(Metric::new("difftest.comparisons", c.comparisons as f64, "count"));
        out.push(Metric::new("difftest.skipped", c.skipped as f64, "count"));
        out.push(Metric::new("core.session_new_ms", summary.self_ms("core.session_new"), "ms"));
        out.push(
            Metric::new("core.compile_ms", c.compile_serial.as_secs_f64() * 1e3, "ms")
                .noted("(serial-equivalent, from check_case's accounting)"),
        );
        out.push(
            Metric::new("core.compile_wall_ms", c.compile_wall.as_secs_f64() * 1e3, "ms")
                .noted("(from check_case's accounting)"),
        );
        out.push(Metric::new(
            "core.frontend_hit_ratio",
            c.frontend_hits as f64 / c.frontend_lookups.max(1) as f64,
            "ratio",
        ));
        out.push(Metric::new("core.compile_errors", c.compile_errors as f64, "count"));
        out
    }
}

fn config_request(
    rendered: &asdf_difftest::RenderedCase,
    options: &CompileOptions,
) -> CompileRequest {
    let mut options = options.clone();
    options.dims.extend(rendered.dims.iter().map(|(k, v)| (k.clone(), *v)));
    CompileRequest::kernel(&rendered.kernel).with_captures(&rendered.captures).with_options(options)
}

impl DifftestSweep {
    /// The traced replica of `Harness::check_case`: the same public calls
    /// (generate, `Session` build, one compile per configuration on the
    /// worker pool, `extract` per configuration, `compare` per pair), each
    /// inside a span. It must follow `check_case`; `run` checks that it
    /// does on every traced op.
    fn replica_case(
        &self,
        corpus_index: usize,
        case_seed: u64,
        tr: &Tracer,
        root: usize,
        op: u64,
    ) -> (CaseOutcome, ReplicaCounts) {
        let mut counts = ReplicaCounts::default();
        let at = Some(root);
        let (case, rendered) = tr.span("difftest.gen", at, op, |_| {
            let mut case = gen_case(CORPUS_SEED, corpus_index, &GenOptions::default());
            case.seed = case_seed;
            let rendered = case.render();
            (case, rendered)
        });
        let session = match tr
            .span("core.session_new", at, op, |_| Session::builder(&rendered.source).build())
        {
            Ok(session) => session,
            Err(e) => return (CaseOutcome::Rejected(e.to_string()), counts),
        };
        let jobs = self.harness.jobs();
        let configs = &self.configs;
        let slots: Vec<Mutex<Option<Result<Compiled, String>>>> =
            configs.iter().map(|_| Mutex::new(None)).collect();
        tr.span("difftest.compile_phase", at, op, |phase_id| {
            let next = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..jobs {
                    scope.spawn(|| loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if index >= configs.len() {
                            break;
                        }
                        let request = config_request(&rendered, &configs[index].1);
                        let result = tr.span("core.compile", Some(phase_id), op, |_| {
                            session
                                .compile(&request)
                                .map(|c| (*c).clone())
                                .map_err(|e| e.to_string())
                        });
                        *slots[index].lock().expect("slot lock") = Some(result);
                    });
                }
            });
        });
        let compiled: Vec<Result<Compiled, String>> = slots
            .into_iter()
            .map(|s| s.into_inner().expect("slot lock").expect("every config compiled"))
            .collect();
        counts.compiled = compiled
            .iter()
            .map(|r| (r.is_ok(), r.as_ref().is_ok_and(|c| c.circuit.is_some())))
            .collect();

        let capacity_skip = |index: usize| {
            matches!(&compiled[index], Err(msg)
                if configs[index].1.target.is_some() && asdf_target::is_capacity_error(msg))
        };
        if compiled.iter().all(|r| r.is_err()) {
            return (CaseOutcome::Rejected(compiled[0].clone().unwrap_err()), counts);
        }
        if let Some(bad) = (0..compiled.len()).find(|&i| compiled[i].is_err() && !capacity_skip(i))
        {
            let good = compiled.iter().position(|r| r.is_ok()).expect("some config compiled");
            let outcome = CaseOutcome::Mismatch {
                config_a: configs[good].0.clone(),
                config_b: configs[bad].0.clone(),
                reason: "compile status diverges".to_string(),
            };
            return (outcome, counts);
        }
        // Distinct circuits, plus each circuit-less (interpreted) config,
        // which has nothing to share.
        let mut distinct = BTreeSet::new();
        let mut interpreted = 0;
        let mut semantics = Vec::with_capacity(compiled.len());
        for result in &compiled {
            semantics.push(match result {
                Ok(compiled) => {
                    let path = match (&compiled.circuit, case.measure.is_some()) {
                        (Some(_), false) => "difftest.extract.circuit_columns",
                        (Some(_), true) => "difftest.extract.circuit_dist",
                        (None, false) => "difftest.extract.dynamic_columns",
                        (None, true) => "difftest.extract.dynamic_dist",
                    };
                    counts.extractions += 1;
                    match &compiled.circuit {
                        Some(circuit) => _ = distinct.insert(fingerprint(circuit)),
                        None => interpreted += 1,
                    }
                    tr.span(path, at, op, |_| extract(&case, compiled, &self.oracle, case.seed))
                }
                Err(msg) => Semantics::Unavailable(msg.clone()),
            });
        }
        counts.distinct_circuits += distinct.len() as u64 + interpreted;
        let eps = self.oracle.eps;
        let outcome = tr.span("difftest.compare", at, op, |_| {
            for i in 0..semantics.len() {
                for j in (i + 1)..semantics.len() {
                    match compare(&semantics[i], &semantics[j], eps) {
                        Comparison::Agree => counts.comparisons += 1,
                        Comparison::Skipped => counts.skipped += 1,
                        Comparison::Disagree(reason) => {
                            counts.comparisons += 1;
                            return CaseOutcome::Mismatch {
                                config_a: configs[i].0.clone(),
                                config_b: configs[j].0.clone(),
                                reason,
                            };
                        }
                    }
                }
            }
            CaseOutcome::Pass
        });
        (outcome, counts)
    }
}
