//! The conformance suite: golden artifact hashes, golden replay traces,
//! fast-path validation against the scalar reference interpreter, a
//! sabotage-detection check, and artifact round-trip stability over the
//! generated corpus.
//!
//! Regenerate goldens after an intentional compiler change:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test -p asdf-conformance
//! ```

use asdf_ast::canon::canonicalize;
use asdf_ast::expand::instantiate;
use asdf_ast::parse::parse_program;
use asdf_ast::typecheck::typecheck_kernel;
use asdf_baselines::Benchmark;
use asdf_conformance::{check_golden, corpus, difftest_corpus, example_corpus, TRACE_SEED};
use asdf_core::lower::lower_kernel;
use asdf_core::{CompileOptions, CompileRequest, Session};
use asdf_difftest::gen::{gen_case, GenOptions};
use asdf_ir::{GateKind, Module, OpKind};
use asdf_qcircuit::{Circuit, CircuitOp};
use asdf_sim::trace::{record_trace, replay_divergence, state_digest, Trace};
use asdf_sim::Simulator;
use proptest::prelude::*;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Every corpus entry's artifact content hash, pinned in one golden
/// file: any semantic change to what the compiler produces for these
/// programs shows up as a reviewed diff.
#[test]
fn artifact_content_hashes_match_goldens() {
    let mut listing = String::new();
    for entry in corpus() {
        let _ = writeln!(listing, "{} {:016x}", entry.name, entry.content_hash());
    }
    check_golden("artifact_hashes.txt", &listing);
}

/// Wide programs, pinned by hash only (their circuits are too wide to
/// simulate): the artifact content hash and the FNV-1a of the `qasm` and
/// `qir-base` text of each. Output changes that show only at width —
/// decomposition ancillas, routing on a large grid, emitters over
/// thousands of gates — fail here.
#[test]
fn wide_output_hashes_match_goldens() {
    let suite = |n: usize, family: &str| {
        Benchmark::paper_suite(n)
            .into_iter()
            .find_map(|(name, benchmark)| (name == family).then_some(benchmark))
            .expect("the paper suite holds every family")
    };
    let plus = (
        "qpu kernel[N]() -> bit[N] { 'p'[N] | std[N].measure }".to_string(),
        "kernel",
        Vec::new(),
        HashMap::from([("N".to_string(), 4096)]),
    );
    let grid = Some("grid-16x16");
    let programs = [
        ("bv512", asdf_bench::qwerty_program(&suite(512, "bv")), None),
        ("dj256", asdf_bench::qwerty_program(&suite(256, "dj")), None),
        ("simon256", asdf_bench::qwerty_program(&suite(256, "simon")), None),
        (
            "grover256x2",
            asdf_bench::qwerty_program(&Benchmark::Grover { n: 256, iterations: 2 }),
            None,
        ),
        ("period64", asdf_bench::qwerty_program(&suite(64, "period")), None),
        ("p4096", plus, None),
        ("simon128@grid-16x16", asdf_bench::qwerty_program(&suite(128, "simon")), grid),
        ("period64@grid-16x16", asdf_bench::qwerty_program(&suite(64, "period")), grid),
    ];
    let mut listing = String::new();
    for (name, (source, kernel, captures, dims), target) in programs {
        let mut options = CompileOptions { dims, ..CompileOptions::default() };
        options.target = target.map(str::to_string);
        let session = Session::new(&source).expect("wide program parses");
        let request = CompileRequest::kernel(kernel).with_captures(&captures).with_options(options);
        let compiled = session.compile(&request).expect("wide program compiles");
        let emitted = |backend: &str| {
            let text = session.emit(&compiled, backend).expect("wide program emits");
            asdf_artifact::fnv1a(text.as_bytes())
        };
        let _ = writeln!(
            listing,
            "{name} artifact {:016x} qasm {:016x} qir-base {:016x}",
            compiled.content_hash(),
            emitted("qasm"),
            emitted("qir-base"),
        );
    }
    check_golden("wide_hashes.txt", &listing);
}

/// Region-bearing output, pinned by hash: per corpus entry, the printed
/// pre-pipeline module (where `lambda` and `scf.if` regions still exist;
/// the default pipeline inlines the lifted lambdas away), then the
/// artifact content hash and the FNV-1a of the `qir-unrestricted` text
/// under the No-Opt options, which keep the lifted functions and their
/// callables. The module is built as perfbench's traced replica builds
/// it: parse, instantiate, typecheck, canonicalize, lower.
#[test]
fn region_output_hashes_match_goldens() {
    let (mut lambdas, mut ifs) = (0, 0);
    let mut listing = String::new();
    for entry in corpus() {
        let dims = &entry.options.dims;
        let program = parse_program(&entry.source).expect("corpus entry parses");
        let instance = instantiate(&program, &entry.kernel, &entry.captures, dims)
            .expect("corpus entry instantiates");
        let mut kernel =
            typecheck_kernel(&program, &entry.kernel, &instance).expect("corpus entry typechecks");
        canonicalize(&mut kernel);
        let mut module = Module::new();
        lower_kernel(&kernel, &mut module).expect("corpus entry lowers");
        for func in module.funcs() {
            for path in func.block_paths() {
                for op in &func.block_at(&path).ops {
                    match op.kind {
                        OpKind::Lambda { .. } => lambdas += 1,
                        OpKind::ScfIf => ifs += 1,
                        _ => {}
                    }
                }
            }
        }
        let _ = write!(
            listing,
            "{} module {:016x}",
            entry.name,
            asdf_artifact::fnv1a(module.to_string().as_bytes())
        );

        let session = Session::new(&entry.source).expect("corpus entry parses");
        let options = CompileOptions { dims: dims.clone(), ..CompileOptions::no_opt() };
        let request = CompileRequest::kernel(&entry.kernel)
            .with_captures(&entry.captures)
            .with_options(options);
        match session.compile(&request) {
            Ok(compiled) => {
                let text =
                    session.emit(&compiled, "qir-unrestricted").expect("No-Opt output emits");
                let _ = writeln!(
                    listing,
                    " noopt-artifact {:016x} qir-unrestricted {:016x}",
                    compiled.content_hash(),
                    asdf_artifact::fnv1a(text.as_bytes()),
                );
            }
            Err(e) => {
                let _ = writeln!(listing, " noopt-error {}", e.to_string().replace('\n', " "));
            }
        }
    }
    assert!(lambdas > 0 && ifs > 0, "the corpus lowers to both region kinds");
    check_golden("region_hashes.txt", &listing);
}

/// Every static-circuit corpus entry's seeded execution trace, replayed
/// against the freshly compiled circuit: a miscompiled step is caught at
/// the first diverging gate.
#[test]
fn golden_traces_replay_without_divergence() {
    let mut traced = 0;
    for entry in corpus() {
        let (_, compiled) = entry.compile();
        let Some(circuit) = &compiled.circuit else {
            continue; // e.g. teleport: no static circuit, hash-only entry
        };
        traced += 1;
        let trace = record_trace(circuit, TRACE_SEED);
        let text = trace.to_text();
        assert_eq!(
            Trace::from_text(&text).as_ref(),
            Ok(&trace),
            "trace text must round-trip for {}",
            entry.name
        );
        check_golden(&format!("traces/{}.trace", entry.name), &text);

        // Replaying the checked-in golden against the fresh circuit must
        // be step-for-step clean.
        let golden_text = std::fs::read_to_string(
            asdf_conformance::golden_dir().join(format!("traces/{}.trace", entry.name)),
        )
        .expect("golden trace exists (run GOLDEN_REGEN=1 cargo test -p asdf-conformance)");
        let golden = Trace::from_text(&golden_text).expect("golden trace parses");
        if let Some(divergence) = replay_divergence(&golden, circuit) {
            panic!(
                "golden trace for {} diverged: {divergence}\n\
                 If intentional, regenerate with GOLDEN_REGEN=1 cargo test -p asdf-conformance",
                entry.name
            );
        }
    }
    assert!(traced >= 10, "most of the corpus must carry traces (got {traced})");
}

/// The fused / kernel-based fast paths must agree step-for-final-state
/// with the scalar reference interpreter: same seed, same measured bits,
/// same quantized final-state digest — single-threaded and threaded.
#[test]
fn fast_paths_agree_with_the_scalar_reference() {
    let mut checked = 0;
    for entry in corpus() {
        let (_, compiled) = entry.compile();
        let Some(circuit) = &compiled.circuit else { continue };
        let reference = record_trace(circuit, TRACE_SEED);
        for threads in [1, 2] {
            let mut simulator = Simulator::with_threads(TRACE_SEED, threads);
            let run = simulator.run(circuit);
            assert_eq!(
                run.bits, reference.bits,
                "{} (threads={threads}): fast path measured different bits",
                entry.name
            );
            assert_eq!(
                state_digest(&run.state),
                reference.final_digest,
                "{} (threads={threads}): fast path final state diverged",
                entry.name
            );
        }
        checked += 1;
    }
    assert!(checked >= 10, "most of the corpus must be checked (got {checked})");
}

/// A sabotaged pass — here simulated by mutating one compiled gate —
/// must be caught by trace replay, at the exact step it corrupts.
#[test]
fn sabotaged_circuits_are_caught_by_replay() {
    let entry = &example_corpus()[0]; // quickstart
    let (_, compiled) = entry.compile();
    let circuit = compiled.circuit.as_ref().expect("quickstart inlines");
    let golden = record_trace(circuit, TRACE_SEED);
    assert_eq!(replay_divergence(&golden, circuit), None, "clean circuit replays clean");

    // Flip the first Hadamard into a Z, as a miscompiled pass would.
    let step = circuit
        .ops()
        .position(|op| matches!(op, CircuitOp::Gate { gate: GateKind::H, .. }))
        .expect("quickstart starts in superposition");
    let mut sabotaged = Circuit::new(circuit.num_qubits);
    for (i, mut op) in circuit.ops().enumerate() {
        if let CircuitOp::Gate { gate, .. } = &mut op {
            if i == step {
                *gate = GateKind::Z;
            }
        }
        sabotaged.push(op);
    }
    let divergence = replay_divergence(&golden, &sabotaged).expect("sabotage must be caught");
    assert_eq!(divergence.step, step, "divergence pinpoints the corrupted step");

    // Dropping a trailing op is caught as a length divergence.
    let mut truncated = Circuit::new(circuit.num_qubits);
    for op in circuit.ops().take(circuit.ops().len() - 1) {
        truncated.push(op);
    }
    assert!(replay_divergence(&golden, &truncated).is_some());
}

/// Artifact round-trip stability over the generated corpus: for every
/// difftest entry, encode → decode → re-encode is byte-identical and
/// preserves the content hash.
#[test]
fn generated_artifacts_round_trip_byte_identically() {
    for entry in difftest_corpus() {
        let (_, artifact) = entry.compile();
        let bytes = artifact.encode();
        let decoded = asdf_artifact::Artifact::decode(&bytes)
            .unwrap_or_else(|e| panic!("{} failed to decode: {e}", entry.name));
        assert_eq!(decoded.encode(), bytes, "{}: re-encode must be byte-identical", entry.name);
        assert_eq!(decoded.content_hash(), artifact.content_hash(), "{}", entry.name);
        assert_eq!(decoded.entry, artifact.entry, "{}", entry.name);
        assert_eq!(decoded.circuit, artifact.circuit, "{}", entry.name);
    }
}

/// Compiles one freshly generated difftest case and asserts its artifact
/// encodes, decodes, and re-encodes byte-identically.
fn round_trip_generated(sweep_seed: u64, index: usize) {
    let rendered = gen_case(sweep_seed, index, &GenOptions::default()).render();
    let Ok(session) = Session::new(&rendered.source) else { return };
    let mut request = CompileRequest::kernel(&rendered.kernel).with_captures(&rendered.captures);
    for (name, value) in &rendered.dims {
        request = request.with_dim(name, *value);
    }
    let Ok(artifact) = session.compile(&request) else { return };
    let bytes = artifact.encode();
    let decoded = asdf_artifact::Artifact::decode(&bytes)
        .unwrap_or_else(|e| panic!("seed {sweep_seed} case {index} failed to decode: {e}"));
    assert_eq!(
        decoded.encode(),
        bytes,
        "seed {sweep_seed} case {index}: re-encode must be byte-identical"
    );
}

proptest! {
    /// Random difftest programs round-trip through the artifact format
    /// byte-identically — the serializer has no program-shape blind spots.
    #[test]
    fn random_generated_artifacts_round_trip(
        sweep_seed in 0u64..1u64 << 32,
        index in 0usize..8,
    ) {
        round_trip_generated(sweep_seed, index);
    }
}

/// A small end-to-end disk-cache sweep: the whole corpus compiled twice
/// over one cache directory — the second pass must run zero pipelines
/// and produce identical content hashes.
#[test]
fn corpus_sweep_with_disk_cache_is_hit_stable() {
    let dir = std::env::temp_dir().join(format!("asdf-conformance-sweep-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let entries = corpus();

    let compile_all = |expect_fresh: bool| -> Vec<u64> {
        entries
            .iter()
            .map(|entry| {
                let session: Session = Session::builder(&entry.source)
                    .disk_cache(&dir)
                    .build()
                    .expect("session builds");
                let request = CompileRequest::kernel(&entry.kernel)
                    .with_captures(&entry.captures)
                    .with_options(entry.options.clone());
                let compiled = session.compile(&request).expect("corpus compiles");
                let stats = session.cache_stats();
                if expect_fresh {
                    assert_eq!(
                        stats.artifact_misses, 1,
                        "{}: first pass runs the pipeline",
                        entry.name
                    );
                } else {
                    assert_eq!(
                        stats.artifact_misses, 0,
                        "{}: second pass must not run the pipeline",
                        entry.name
                    );
                    assert_eq!(stats.disk_hits, 1, "{}: second pass hits the disk", entry.name);
                }
                compiled.content_hash()
            })
            .collect()
    };

    let fresh = compile_all(true);
    let revived = compile_all(false);
    assert_eq!(fresh, revived, "disk-revived artifacts hash identically");
    let _ = std::fs::remove_dir_all(&dir);
}
