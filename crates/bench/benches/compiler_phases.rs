//! Compiler-phase and design-choice ablation benches:
//!
//! - per-stage wall-clock breakdown of a compile (the frontend, each pass
//!   of the Fig. 2 pipeline, circuit lowering and decompose), read
//!   directly from the [`asdf_core::PassStatistics`] every compile
//!   records — no re-running of ad-hoc pipeline slices;
//! - end-to-end compile times per benchmark (the pipeline of Fig. 2);
//! - Selinger vs V-chain multi-control decomposition (§6.5's design
//!   choice, visible in Grover's costs);
//! - peephole on/off impact on gate counts and compile time;
//! - inlining on/off (Table 1's configurations) compile time.

use asdf_baselines::Benchmark;
use asdf_bench::qwerty_program;
use asdf_core::{CompileOptions, Compiled, Compiler, PassStatistics};
use asdf_logic::{synth, Permutation};
use asdf_qcircuit::decompose::{decompose, DecomposeStyle};
use asdf_qcircuit::Circuit;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::collections::BTreeMap;
use std::time::Duration;

fn compile_with(benchmark: &Benchmark, options: &CompileOptions) -> Compiled {
    let (src, kernel, captures, dims) = qwerty_program(benchmark);
    let mut options = options.clone();
    options.dims.extend(dims);
    Compiler::compile(&src, kernel, &captures, &options).unwrap()
}

/// Per-stage timing of a whole compile, from the statistics the compiler
/// already collected during a single run per benchmark.
fn bench_pass_phases(_c: &mut Criterion) {
    println!("\nstage breakdown (from PassStatistics, one compile each):");
    // Timing noise matters less than the shape; verification is part of the
    // measured pipeline in the default options, exactly as users run it.
    let mut totals: BTreeMap<String, Duration> = BTreeMap::new();
    for n in [8usize, 16] {
        for (name, benchmark) in Benchmark::paper_suite(n) {
            let compiled = compile_with(&benchmark, &CompileOptions::default());
            println!("\n--- {name} (n = {n}) ---");
            print!("{}", compiled.stats.render_table());
            for stat in compiled.stats.iter() {
                *totals.entry(stat.name.clone()).or_default() += stat.duration;
            }
        }
    }
    println!("\naggregate time per stage across the suite:");
    for (stage, duration) in &totals {
        println!("{stage:<28} {duration:>12.3?}");
    }
}

fn bench_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    for n in [8usize, 16] {
        for (name, benchmark) in Benchmark::paper_suite(n) {
            group.bench_with_input(BenchmarkId::new(name, n), &benchmark, |b, benchmark| {
                b.iter(|| compile_with(benchmark, &CompileOptions::default()));
            });
        }
    }
    group.finish();
}

fn bench_inlining(c: &mut Criterion) {
    let mut group = c.benchmark_group("inlining");
    group.sample_size(10);
    let benchmark = Benchmark::Bv { secret: (0..16).map(|i| i % 2 == 0).collect() };
    group.bench_function("opt", |b| {
        b.iter(|| compile_with(&benchmark, &CompileOptions::default()));
    });
    group.bench_function("no_opt", |b| {
        b.iter(|| compile_with(&benchmark, &CompileOptions::no_opt()));
    });
    group.finish();
    // The two configurations are just two declarative pipelines; show the
    // inline fixpoint's share of Opt compile time from the statistics.
    let stats: PassStatistics = compile_with(&benchmark, &CompileOptions::default()).stats;
    let fixpoint = stats.duration_of(asdf_core::passes::CANONICALIZE_INLINE);
    println!(
        "inlining: canonicalize-inline fixpoint took {fixpoint:.3?} of {:.3?} total compile",
        stats.total_duration()
    );
}

fn bench_decompose(c: &mut Criterion) {
    let mut group = c.benchmark_group("decompose");
    group.sample_size(20);
    for k in [8usize, 16, 32] {
        let mut circuit = Circuit::new(k + 1);
        let controls: Vec<usize> = (0..k).collect();
        circuit.gate(asdf_ir::GateKind::X, &controls, &[k]);
        group.bench_with_input(BenchmarkId::new("selinger", k), &circuit, |b, circuit| {
            b.iter(|| decompose(circuit, DecomposeStyle::Selinger));
        });
        group.bench_with_input(BenchmarkId::new("vchain", k), &circuit, |b, circuit| {
            b.iter(|| decompose(circuit, DecomposeStyle::VChain));
        });
    }
    group.finish();
}

fn bench_peephole(c: &mut Criterion) {
    let mut group = c.benchmark_group("peephole");
    group.sample_size(10);
    let benchmark = Benchmark::Grover { n: 8, iterations: 4 };
    group.bench_function("on", |b| {
        b.iter(|| compile_with(&benchmark, &CompileOptions::default()));
    });
    group.bench_function("off", |b| {
        let options = CompileOptions { peephole: false, ..Default::default() };
        b.iter(|| compile_with(&benchmark, &options));
    });
    // Report the gate-count impact and the per-pattern firing counts the
    // peephole pass recorded (stdout, not a timing). One compile per
    // configuration supplies both the circuit and the statistics.
    let on = compile_with(&benchmark, &CompileOptions::default());
    let options = CompileOptions { peephole: false, ..Default::default() };
    let without = compile_with(&benchmark, &options).circuit.unwrap();
    println!(
        "peephole gate counts: on = {}, off = {}",
        on.circuit.as_ref().unwrap().gate_count(),
        without.gate_count()
    );
    for stat in on.stats.iter() {
        if stat.name == asdf_qcircuit::peephole::PEEPHOLE_PASS_NAME {
            println!("peephole pattern firings ({} total):", stat.changes);
            for (pattern, count) in &stat.detail {
                println!("  {pattern:<28} {count}");
            }
        }
    }
    group.finish();
}

fn bench_reversible_synthesis(c: &mut Criterion) {
    let mut group = c.benchmark_group("reversible_synthesis");
    group.sample_size(20);
    for bits in [4usize, 6, 8] {
        let table: Vec<usize> = (0..(1usize << bits)).rev().collect();
        let perm = Permutation::from_table(table).unwrap();
        group.bench_with_input(BenchmarkId::new("bidirectional", bits), &perm, |b, perm| {
            b.iter(|| synth::synthesize(perm));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_pass_phases,
    bench_pipeline,
    bench_inlining,
    bench_decompose,
    bench_peephole,
    bench_reversible_synthesis
);
criterion_main!(benches);
