//! The `difftest` CLI: seeded differential sweeps over the configuration
//! matrix.
//!
//! ```text
//! cargo run --release -p asdf-difftest --bin difftest -- \
//!     [--seed N] [--cases N] [--max-width W] [--no-shrink] [--lint] [--stats]
//! ```
//!
//! Exit code 0 when every comparable configuration pair agrees on every
//! generated program; 1 when a mismatch was found (reproducers printed);
//! 2 on usage errors.

use asdf_difftest::{GenOptions, Harness, OracleOptions, SweepOptions};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut opts = SweepOptions::default();
    let mut oracle = OracleOptions::default();
    let mut show_stats = false;
    let mut lint = false;
    let mut jobs: Option<usize> = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let take_value = |i: &mut usize| -> Option<String> {
            *i += 1;
            args.get(*i).cloned()
        };
        match args[i].as_str() {
            "--seed" => match take_value(&mut i).and_then(|v| parse_u64(&v)) {
                Some(v) => opts.seed = v,
                None => return usage("--seed needs an integer"),
            },
            "--cases" => match take_value(&mut i).and_then(|v| v.parse().ok()) {
                Some(v) => opts.cases = v,
                None => return usage("--cases needs an integer"),
            },
            "--max-width" => match take_value(&mut i).and_then(|v| v.parse().ok()) {
                Some(v) => opts.gen = GenOptions { max_width: v, ..opts.gen.clone() },
                None => return usage("--max-width needs an integer"),
            },
            "--shots" => match take_value(&mut i).and_then(|v| v.parse().ok()) {
                Some(v) => oracle.shots = v,
                None => return usage("--shots needs an integer"),
            },
            "--dyn-shots" => match take_value(&mut i).and_then(|v| v.parse().ok()) {
                Some(v) => oracle.dyn_shots = v,
                None => return usage("--dyn-shots needs an integer"),
            },
            "--jobs" => match take_value(&mut i).and_then(|v| v.parse().ok()) {
                Some(v) if v >= 1 => jobs = Some(v),
                _ => return usage("--jobs needs an integer >= 1"),
            },
            "--no-shrink" => opts.shrink = false,
            "--fuel-bisect" => opts.fuel_bisect = true,
            "--lint" => lint = true,
            "--stats" => show_stats = true,
            "--help" | "-h" => {
                println!(
                    "usage: difftest [--seed N] [--cases N] [--max-width W] \
                     [--shots N] [--dyn-shots N] [--jobs N] \
                     [--no-shrink] [--fuel-bisect] [--lint] [--stats]"
                );
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument {other}")),
        }
        i += 1;
    }

    println!(
        "difftest: seed {:#x}, {} cases, max width {}, {} configurations",
        opts.seed,
        opts.cases,
        opts.gen.max_width,
        asdf_core::CompileOptions::matrix().len()
    );
    let mut harness = Harness::new(oracle);
    if let Some(jobs) = jobs {
        harness = harness.with_jobs(jobs);
    }
    if lint {
        // Generated programs are correct by construction, so the sweep
        // doubles as a lint soundness check: any warning is a false
        // positive.
        harness = harness.with_lints();
    }
    let start = std::time::Instant::now();
    let report = harness.run_sweep(&opts);
    let elapsed = start.elapsed();

    println!("\n{}", report.render_table());
    println!(
        "{} cases, {} uniformly rejected, {} pairwise comparisons, {} mismatches",
        report.cases,
        report.rejected,
        report.comparisons,
        report.mismatches.len()
    );
    println!("sweep wall-clock: {elapsed:.3?}");
    if lint {
        println!("lint warnings: {} across the matrix", report.lint_warnings());
    }
    let serial = report.compile_serial_equiv;
    let concurrent = report.compile_elapsed;
    let speedup = if concurrent.as_nanos() > 0 {
        serial.as_secs_f64() / concurrent.as_secs_f64()
    } else {
        1.0
    };
    println!(
        "compile phase ({} jobs): {:.3?} concurrent vs {:.3?} serial-equivalent \
         ({:+.3?} saved, {:.2}x)",
        report.jobs,
        concurrent,
        serial,
        serial.saturating_sub(concurrent),
        speedup,
    );
    let cache = &report.cache;
    println!(
        "session frontend cache: {} hits + {} coalesced of {} ({:.1}%)",
        cache.frontend_hits,
        cache.frontend_coalesced,
        cache.frontend_hits + cache.frontend_coalesced + cache.frontend_misses,
        100.0 * cache.frontend_hit_rate(),
    );
    println!(
        "session artifact cache: {} hits + {} coalesced of {}",
        cache.artifact_hits,
        cache.artifact_coalesced,
        cache.artifact_hits + cache.artifact_coalesced + cache.artifact_misses,
    );
    // Routing overhead per hardware-targeted configuration, rendered
    // through the resource estimator's SWAP/depth summary.
    for config in report.configs.iter().filter(|c| c.routing.routed_cases > 0) {
        println!(
            "routing {}: {} routed cases, {}",
            config.name,
            config.routing.routed_cases,
            config.routing.overhead(),
        );
    }
    // Every artifact's compile record, summed by stage across the whole
    // matrix, then the rewrite engine's per-pattern firing counts.
    let mut merged = asdf_ir::pass::PassStatistics::new();
    for config in &report.configs {
        merged.merge(&config.stats);
    }
    println!("compile stages summed over every artifact (a shared frontend counts once per configuration):");
    print!("{}", merged.render_table());
    let firings = merged.pattern_firings();
    let total_firings: usize = firings.iter().map(|(_, c)| c).sum();
    println!("rewrite engine: {total_firings} pattern firings, by pattern:");
    for (name, count) in &firings {
        println!("  {name:<32} {count:>8}");
    }
    if show_stats {
        for config in &report.configs {
            println!("\n--- merged compile stages: {} ---", config.name);
            print!("{}", config.stats.render_table());
        }
    }
    if report.passed() {
        println!("OK: all configurations agree on all generated programs");
        ExitCode::SUCCESS
    } else {
        for mismatch in &report.mismatches {
            println!("\n{mismatch}");
        }
        ExitCode::FAILURE
    }
}

fn parse_u64(v: &str) -> Option<u64> {
    if let Some(hex) = v.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        v.parse().ok()
    }
}

fn usage(message: &str) -> ExitCode {
    eprintln!("difftest: {message} (--help for usage)");
    ExitCode::from(2)
}
