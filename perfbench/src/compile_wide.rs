//! `compile_wide`: a single stream of cold compiles of wide programs.
//!
//! Each op builds a fresh `Session` with default `CompileOptions` (inline,
//! peephole, verify, Selinger), compiles one program and emits it to
//! `qasm` or `qir-base`. The deck mixes the paper suite and `'p'[N]` at
//! N = 128..512 (`'p'[N]` up to 4096) with a fixed share routed onto
//! `grid-16x16`; the seed draws secrets, masks, Grover iteration counts,
//! backends and the order. Its class counts are fixed so that every seed
//! costs about the same: cost grows faster than N² here and sits almost
//! entirely in `qcircuit-peephole`, emit and routing. It never touches the
//! server, the caches or the simulator, so it is the bypass workload for
//! changes there.

use crate::programs::{check_emitted, Program};
use crate::report::{Latencies, Metric, Quality, Rng};
use crate::trace::{TraceSummary, Tracer, OP};
use crate::{Phase, Workload};
use asdf_ast::canon::canonicalize;
use asdf_ast::expand::instantiate;
use asdf_ast::parse::parse_program;
use asdf_ast::typecheck::typecheck_kernel;
use asdf_codegen::{BackendRegistry, EmitInput};
use asdf_core::lower::lower_kernel;
use asdf_core::{CompileOptions, Session};
use asdf_ir::Module;
use asdf_qcircuit::decompose::decompose;
use asdf_qcircuit::reg2mem::lower_to_circuit;
use asdf_qcircuit::Circuit;
use asdf_sim::SimBackend;
use asdf_target::Target;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The routed share's target: 256 qubits, enough for every routed entry.
const ROUTE_TARGET: &str = "grid-16x16";

/// Deck classes: (family, N, copies, routed). 112 ops and 1.6–2.5 s per
/// pass on a 2-core x86-64 VM, so a 50-second run holds over 2000 ops.
/// The three 140–190 ms ops (bv512 and two `'p'[4096]`) make up the top
/// 2.7%, so p99 sits a third of the way into them rather than in the
/// upper tail of the slowest one.
const CLASSES: &[(&str, usize, usize, bool)] = &[
    ("bv", 128, 10, false),
    ("bv", 256, 5, false),
    ("bv", 512, 1, false),
    ("dj", 128, 12, false),
    ("dj", 256, 5, false),
    ("dj", 512, 3, false),
    ("simon", 128, 10, false),
    ("simon", 256, 5, false),
    ("simon", 512, 2, false),
    ("grover", 128, 4, false),
    ("grover", 256, 4, false),
    ("grover", 512, 2, false),
    ("period", 32, 4, false),
    ("period", 64, 4, false),
    ("period", 128, 2, false),
    ("p", 128, 10, false),
    ("p", 256, 4, false),
    ("p", 512, 4, false),
    ("p", 1024, 4, false),
    ("p", 2048, 3, false),
    ("p", 4096, 2, false),
    ("bv", 128, 3, true),
    ("dj", 128, 3, true),
    ("simon", 128, 2, true),
    ("p", 128, 3, true),
    ("period", 64, 1, true),
];

struct Entry {
    program: Program,
    options: CompileOptions,
    backend: &'static str,
}

/// Work counts of the traced replica.
#[derive(Default)]
struct Counters {
    rewrite_firings: u64,
    ops_lowered: u64,
    ops_final: u64,
    emit_bytes: u64,
    swaps: u64,
}

pub struct CompileWide {
    seed: u64,
    deck: Vec<Entry>,
    quality: Quality,
    counted: Vec<bool>,
    verified: Vec<bool>,
    registry: BackendRegistry,
    counters: Counters,
    /// (family, N) → op latencies, for the width exponent.
    widths: BTreeMap<(&'static str, usize), Latencies>,
}

impl Workload for CompileWide {
    fn setup(seed: u64) -> CompileWide {
        let mut rng = Rng::new(seed, 1);
        let mut deck = Vec::new();
        for &(family, n, copies, routed) in CLASSES {
            let first_backend = rng.below(2);
            let rotation = rng.below(copies);
            for copy in 0..copies {
                // Grover alternates 1 and 2 iterations, and the period
                // copies of a class split their masks around n/2 the same
                // way for every seed, so each seed compiles the same set
                // of Grover and period circuits.
                let program = match family {
                    "grover" => Program::grover(n, 1 + copy % 2),
                    "period" => Program::period(n, n / 2 + (copy + rotation) % copies - copies / 2),
                    _ => Program::seeded(family, n, &mut rng),
                };
                let target = routed.then(|| ROUTE_TARGET.to_string());
                let options = CompileOptions { target, ..CompileOptions::default() };
                let backend =
                    if (first_backend + copy).is_multiple_of(2) { "qasm" } else { "qir-base" };
                deck.push(Entry { program, options, backend });
            }
        }
        rng.shuffle(&mut deck);
        // Warm-up: one compile per family at the deck's smallest common
        // width, and one routed, faults in code and allocator arenas
        // before timing.
        let warm_up =
            ["bv", "dj", "simon", "p"].map(|family| Program::seeded(family, 128, &mut rng));
        let routed =
            CompileOptions { target: Some(ROUTE_TARGET.into()), ..CompileOptions::default() };
        let warm_up = warm_up
            .into_iter()
            .chain([Program::grover(128, 1), Program::period(64, 32)])
            .map(|program| Entry { program, options: CompileOptions::default(), backend: "qasm" })
            .chain([Entry { program: Program::plus(128), options: routed, backend: "qir-base" }]);
        for entry in warm_up {
            compile_op(&entry).expect("warm-up program compiles");
        }
        let mut registry = BackendRegistry::with_codegen_backends();
        registry.register(Box::new(SimBackend::default()));
        let len = deck.len();
        CompileWide {
            seed,
            deck,
            quality: Quality::default(),
            counted: vec![false; len],
            verified: vec![false; len],
            registry,
            counters: Counters::default(),
            widths: BTreeMap::new(),
        }
    }

    fn run(&mut self, seconds: f64, tracer: Option<&Tracer>) -> Phase {
        let mut phase = Phase::default();
        let started = Instant::now();
        let deadline = started + Duration::from_secs_f64(seconds);
        let mut excluded = Duration::ZERO;
        let mut op_id = 0u64;
        loop {
            for index in 0..self.deck.len() {
                let entry = &self.deck[index];
                let op_started = Instant::now();
                let result = match tracer {
                    None => compile_op(entry),
                    Some(tr) => tr.span(OP, None, op_id, |root| {
                        replica_op(entry, &self.registry, tr, root, op_id, &mut self.counters)
                    }),
                };
                let latency = op_started.elapsed();
                phase.latencies.push(latency);
                op_id += 1;
                let check_started = Instant::now();
                match result {
                    // Every deck program compiles and emits, so an error is
                    // a wrong output.
                    Err(e) => {
                        phase.wrong += 1;
                        phase.note(format!("{}: {e}", entry.program.label()));
                    }
                    Ok((circuit, swaps, text)) => {
                        let check = entry
                            .program
                            .check_circuit(&circuit)
                            .and_then(|()| {
                                check_emitted(entry.backend, &text, entry.program.expected_bits())
                            })
                            .and_then(|()| match tracer {
                                Some(_) if !self.verified[index] => {
                                    self.verified[index] = true;
                                    same_as_session(entry, &circuit)
                                }
                                _ => Ok(()),
                            });
                        match check {
                            Ok(()) => phase.passed += 1,
                            Err(e) => {
                                phase.wrong += 1;
                                phase.note(e);
                            }
                        }
                        if !self.counted[index] {
                            self.counted[index] = true;
                            self.quality.add(&circuit, swaps);
                        }
                        if entry.options.target.is_none() {
                            let key = (entry.program.family, entry.program.n);
                            self.widths.entry(key).or_default().push(latency);
                        }
                    }
                }
                excluded += check_started.elapsed();
            }
            if Instant::now() >= deadline {
                break;
            }
        }
        // Output checks and first-seen bookkeeping are not part of the
        // measured stream.
        phase.elapsed = started.elapsed().saturating_sub(excluded);
        phase
    }

    fn finish(&mut self, phase: &mut Phase) -> Quality {
        // Entries a slow run never reached still count towards quality,
        // so the totals repeat exactly for a seed; one that no longer
        // compiles fails the run instead of leaving the sums.
        for (index, entry) in self.deck.iter().enumerate() {
            if !self.counted[index] {
                match compile_op(entry) {
                    Ok((circuit, swaps, _)) => self.quality.add(&circuit, swaps),
                    Err(e) => {
                        phase.check_failures += 1;
                        phase.note(format!("{}: {e}", entry.program.label()));
                    }
                }
            }
        }
        known_answers(self.seed, phase);
        std::mem::take(&mut self.quality)
    }

    fn layers(&mut self, summary: &TraceSummary) -> Vec<Metric> {
        let c = &self.counters;
        let mut out: Vec<Metric> = [
            "lift-lambdas",
            "canonicalize-inline",
            "remove-dead-private-funcs",
            "convert-to-qcircuit",
            "qcircuit-peephole",
        ]
        .iter()
        .map(|pass| {
            let name = format!("ir.pass.{pass}");
            Metric::new(&format!("{name}_ms"), summary.self_ms(&name), "ms")
        })
        .collect();
        for (metric, span) in [
            ("ir.verify_ms", "ir.pipeline"),
            ("qcircuit.lower_to_circuit_ms", "qcircuit.lower_to_circuit"),
            ("qcircuit.decompose_ms", "qcircuit.decompose"),
            ("codegen.emit_ms", "codegen.emit"),
            ("target.route_ms", "target.route"),
            ("ast.parse_ms", "ast.parse"),
            ("ast.instantiate_ms", "ast.instantiate"),
            ("ast.typecheck_ms", "ast.typecheck"),
            ("ast.canonicalize_ms", "ast.canonicalize"),
            ("core.lower_ms", "core.lower"),
        ] {
            out.push(Metric::new(metric, summary.self_ms(span), "ms"));
        }
        out.push(
            Metric::new("compile.width_exponent", self.width_exponent(), "ratio")
                .noted("(max over the bv and 'p' families)"),
        );
        out.push(Metric::new("ir.rewrite_firings", c.rewrite_firings as f64, "count"));
        out.push(Metric::new("ir.ops_lowered", c.ops_lowered as f64, "count"));
        out.push(Metric::new("ir.ops_final", c.ops_final as f64, "count"));
        out.push(Metric::new("codegen.emit_bytes", c.emit_bytes as f64, "count"));
        out.push(Metric::new("target.swaps", c.swaps as f64, "count"));
        out
    }
}

impl CompileWide {
    /// The least-squares slope of log(median latency) against log(N),
    /// the larger of the bv and `'p'[N]` families' fits.
    fn width_exponent(&self) -> f64 {
        ["bv", "p"]
            .iter()
            .map(|family| {
                let points: Vec<(f64, f64)> = self
                    .widths
                    .iter()
                    .filter(|((f, _), lat)| f == family && !lat.0.is_empty())
                    .map(|((_, n), lat)| ((*n as f64).ln(), lat.percentile(50.0).0.max(1e-6).ln()))
                    .collect();
                slope(&points)
            })
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

fn slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    if n < 2.0 {
        return 0.0;
    }
    let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
    let my = points.iter().map(|p| p.1).sum::<f64>() / n;
    let sxy: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    let sxx: f64 = points.iter().map(|p| (p.0 - mx).powi(2)).sum();
    sxy / sxx
}

/// One untraced op: a fresh session, a cold compile, one emit.
fn compile_op(entry: &Entry) -> Result<(Circuit, usize, String), String> {
    let session = Session::new(&entry.program.source).map_err(|e| e.to_string())?;
    let compiled = session
        .compile(&entry.program.request(entry.options.clone()))
        .map_err(|e| e.to_string())?;
    let text = session.emit(&compiled, entry.backend).map_err(|e| e.to_string())?;
    let circuit = compiled.circuit.clone().ok_or("no straight-line circuit")?;
    let swaps = compiled.routing.as_ref().map_or(0, |r| r.swap_count);
    Ok((circuit, swaps, text))
}

/// The traced replica of `compile_op`: the same stage functions
/// `Session::compile` runs, each inside its own span. Every corpus program
/// has one `qpu` kernel, so the session's referenced-kernel loop has
/// nothing to lower.
fn replica_op(
    entry: &Entry,
    registry: &BackendRegistry,
    tr: &Tracer,
    root: usize,
    op: u64,
    counters: &mut Counters,
) -> Result<(Circuit, usize, String), String> {
    let p = &entry.program;
    let at = Some(root);
    let program =
        tr.span("ast.parse", at, op, |_| parse_program(&p.source)).map_err(|e| e.to_string())?;
    let dims = p.dims_map();
    let instance = tr
        .span("ast.instantiate", at, op, |_| instantiate(&program, p.kernel, &p.captures, &dims))
        .map_err(|e| e.to_string())?;
    let mut kernel = tr
        .span("ast.typecheck", at, op, |_| typecheck_kernel(&program, p.kernel, &instance))
        .map_err(|e| e.to_string())?;
    tr.span("ast.canonicalize", at, op, |_| canonicalize(&mut kernel));
    let mut module = Module::new();
    tr.span("core.lower", at, op, |_| lower_kernel(&kernel, &mut module))
        .map_err(|e| e.to_string())?;
    counters.ops_lowered += count_ops(&module) as u64;
    let stats = tr
        .span("ir.pipeline", at, op, |id| {
            let stats = entry.options.pipeline().run(&mut module);
            if let Ok(stats) = &stats {
                let passes: Vec<(String, Duration)> =
                    stats.iter().map(|s| (format!("ir.pass.{}", s.name), s.duration)).collect();
                tr.record_children(id, op, &passes);
            }
            stats
        })
        .map_err(|e| e.to_string())?;
    counters.rewrite_firings += stats.pattern_firings().iter().map(|(_, n)| *n as u64).sum::<u64>();
    counters.ops_final += count_ops(&module) as u64;
    let func = module.expect_func(p.kernel).map_err(|e| e.to_string())?;
    let raw = tr
        .span("qcircuit.lower_to_circuit", at, op, |_| lower_to_circuit(func))
        .map_err(|e| e.to_string())?;
    let circuit = match entry.options.decompose {
        Some(style) => tr.span("qcircuit.decompose", at, op, |_| decompose(&raw, style)),
        None => raw,
    };
    let (circuit, swaps) = match &entry.options.target {
        None => (circuit, 0),
        Some(name) => {
            let routed = tr
                .span("target.route", at, op, |_| {
                    Target::parse(name).and_then(|target| target.route(&circuit))
                })
                .map_err(|e| e.to_string())?;
            (routed.circuit, routed.info.swap_count)
        }
    };
    counters.swaps += swaps as u64;
    let text = tr
        .span("codegen.emit", at, op, |_| {
            registry.emit(
                entry.backend,
                &EmitInput { module: &module, entry: p.kernel, circuit: Some(&circuit) },
            )
        })
        .map_err(|e| e.to_string())?;
    counters.emit_bytes += text.len() as u64;
    Ok((circuit, swaps, text))
}

/// The replica must produce exactly the circuit `Session::compile` does.
fn same_as_session(entry: &Entry, replica: &Circuit) -> Result<(), String> {
    let (circuit, _, _) = compile_op(entry)?;
    if circuit == *replica {
        Ok(())
    } else {
        Err(format!(
            "{}: the traced replica's circuit differs from Session::compile's",
            entry.program.label()
        ))
    }
}

fn count_ops(module: &Module) -> usize {
    module
        .funcs()
        .iter()
        .map(|f| f.block_paths().iter().map(|path| f.block_at(path).ops.len()).sum::<usize>())
        .sum()
}

/// Known answers at a simulable width: each family is compiled with the
/// default options and its circuit sampled on the simulator.
fn known_answers(seed: u64, phase: &mut Phase) {
    let mut rng = Rng::new(seed, 2);
    let programs = [
        Program::seeded("bv", 6, &mut rng),
        Program::seeded("dj", 5, &mut rng),
        Program::grover(4, 3),
        Program::seeded("simon", 4, &mut rng),
        Program::period(4, 1 + rng.below(3)),
        Program::seeded("p", 4, &mut rng),
    ];
    for program in &programs {
        let verdict = Session::new(&program.source)
            .and_then(|s| s.compile(&program.request(CompileOptions::default())))
            .map_err(|e| e.to_string())
            .and_then(|compiled| compiled.circuit.clone().ok_or("no circuit".to_string()))
            .and_then(|circuit| {
                let counts = asdf_sim::sample(&circuit, 512, seed);
                let outcomes: Vec<(String, f64)> =
                    counts.into_iter().map(|(bits, n)| (bits, n as f64)).collect();
                program.check_answer(&outcomes)
            });
        match verdict {
            Ok(()) => phase.note(format!("known answer ok: {}", program.label())),
            Err(e) => {
                phase.check_failures += 1;
                phase.note(format!("known answer FAILED: {e}"));
            }
        }
    }
}
