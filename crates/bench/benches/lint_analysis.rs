//! Cost of the lattice dataflow analyses and the asdf-lint driver.
//!
//! Lints are opt-in on the compile path, so their cost budget is "cheap
//! enough to leave on in a service": this bench measures the full
//! `lint_module` driver (two fixpoint analyses per function) and the
//! individual analyses over the post-pipeline modules of the paper
//! suite — the exact IR the session lints in production.

use asdf_baselines::Benchmark;
use asdf_bench::qwerty_program;
use asdf_core::{CompileOptions, Compiler};
use asdf_ir::Module;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

/// The post-pipeline modules of the paper suite at width `n`.
fn suite_modules(n: usize) -> Vec<(String, Module)> {
    Benchmark::paper_suite(n)
        .into_iter()
        .map(|(name, benchmark)| {
            let (src, kernel, captures, dims) = qwerty_program(&benchmark);
            let mut options = CompileOptions::default();
            options.dims.extend(dims);
            let compiled = Compiler::compile(&src, kernel, &captures, &options).unwrap();
            (name.to_string(), compiled.module)
        })
        .collect()
}

fn bench_lint_driver(c: &mut Criterion) {
    let mut group = c.benchmark_group("lint_module");
    for n in [8usize, 16] {
        for (name, module) in suite_modules(n) {
            group.bench_with_input(BenchmarkId::new(name, n), &module, |b, module| {
                b.iter(|| asdf_analysis::lint_module(module));
            });
        }
    }
    group.finish();
}

fn bench_individual_analyses(c: &mut Criterion) {
    let mut group = c.benchmark_group("analysis_fixpoint");
    let modules = suite_modules(16);
    let Some((name, module)) = modules.into_iter().next() else {
        return;
    };
    let funcs: Vec<_> = module.func_names();
    group.bench_function(format!("measure/{name}"), |b| {
        b.iter(|| {
            for f in &funcs {
                let func = module.expect_func(f).unwrap();
                let mut analysis = asdf_analysis::MeasureAnalysis;
                criterion::black_box(asdf_analysis::analyze(func, &mut analysis));
            }
        });
    });
    group.bench_function(format!("state/{name}"), |b| {
        b.iter(|| {
            for f in &funcs {
                let func = module.expect_func(f).unwrap();
                let mut analysis = asdf_analysis::StateAnalysis;
                criterion::black_box(asdf_analysis::analyze(func, &mut analysis));
            }
        });
    });
    group.finish();
}

criterion_group!(benches, bench_lint_driver, bench_individual_analyses);
criterion_main!(benches);
