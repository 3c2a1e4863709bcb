//! Rewrite-driver bench: the worklist driver over the peephole patterns.
//!
//! Two workloads:
//!
//! - **wide** — a synthetic single-block function of `W` parallel qubit
//!   wires, each carrying an interleaved chain of cancelling/merging gate
//!   pairs (`H H`, `X X`, `S S†`, `T T†`, `P(θ) P(−θ)`, `H X H`). Every
//!   firing is scattered across a wide block, so a driver that revisits
//!   more than the touched neighborhood pays O(ops) per firing.
//! - **difftest** — modules generated by the difftest program generator,
//!   compiled to QCircuit IR with peephole disabled (`opt+nopeep+whole`),
//!   then optimized by the driver: the realistic shape.
//!
//! Each run checks that every output verifies and is a fixpoint (a second
//! driver run fires nothing, erases nothing, and leaves the module
//! unchanged). It prints the measured times beside the latest committed
//! `BENCH_opt.json` point of the same mode; in full mode the wide
//! workload's op and firing counts must equal that point's. A full run
//! then appends a trajectory point. `--smoke` (or env
//! `REWRITE_DRIVER_SMOKE=1`) shrinks the workload for CI and prints the
//! point instead of appending it.

use asdf_bench::{median_time, record_trajectory_point, smoke_mode, trajectory_path};
use asdf_core::{CompileOptions, CompileRequest, Session};
use asdf_difftest::{gen_case, GenOptions};
use asdf_ir::rewrite::GreedyRewriteDriver;
use asdf_ir::{FuncBuilder, FuncType, GateKind, Module, OpKind, Type, Value, Visibility};
use asdf_qcircuit::peephole::peephole_patterns;
use criterion::black_box;
use std::time::Duration;

/// One wire's worth of gate chain: pairs that cancel or merge away.
const WIRE_CHAIN: &[GateKind] = &[
    GateKind::H,
    GateKind::H,
    GateKind::T,
    GateKind::Tdg,
    GateKind::H,
    GateKind::X,
    GateKind::H,
    GateKind::S,
    GateKind::Sdg,
    GateKind::X,
    GateKind::X,
    GateKind::P(0.7),
    GateKind::P(-0.7),
];

/// A single-block function of `wires` qubit wires, each carrying `reps`
/// repetitions of [`WIRE_CHAIN`], interleaved round-robin so consecutive
/// rewrite opportunities are `wires` ops apart.
fn wide_module(wires: usize, reps: usize) -> Module {
    let ty = FuncType::new(vec![Type::Qubit; wires], vec![Type::Qubit; wires], true);
    let mut b = FuncBuilder::new("wide", ty, Visibility::Public);
    let mut current: Vec<Value> = b.args().to_vec();
    let mut bb = b.block();
    for _ in 0..reps {
        for &gate in WIRE_CHAIN {
            for wire_head in current.iter_mut() {
                let out = bb.push(
                    OpKind::Gate { gate, num_controls: 0 },
                    vec![*wire_head],
                    vec![Type::Qubit],
                );
                *wire_head = out[0];
            }
        }
    }
    bb.push(OpKind::Return, current, vec![]);
    let mut module = Module::new();
    module.add_func(b.finish());
    module
}

/// Difftest-generated modules compiled to QCircuit IR with peephole off.
fn difftest_modules(count: usize) -> Vec<Module> {
    let mut modules = Vec::new();
    let mut index = 0usize;
    while modules.len() < count && index < count * 4 {
        let case = gen_case(0x000B_7A11, index, &GenOptions::default());
        index += 1;
        let rendered = case.render();
        let Ok(session) = Session::new(&rendered.source) else { continue };
        let options = CompileOptions {
            inline: true,
            peephole: false,
            decompose: None,
            ..CompileOptions::default()
        };
        let mut request =
            CompileRequest::kernel(&rendered.kernel).with_captures(&rendered.captures);
        for (name, value) in &rendered.dims {
            request = request.with_dim(name, *value);
        }
        if let Ok(compiled) = session.compile(&request.with_options(options)) {
            modules.push(compiled.module.clone());
        }
    }
    modules
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn module_ops(module: &Module) -> usize {
    module
        .funcs()
        .iter()
        .map(|f| f.block_paths().iter().map(|p| f.block_at(p).ops.len()).sum::<usize>())
        .sum()
}

/// Runs the driver over `module`, checks that the result verifies and
/// that a second run fires nothing, erases nothing, and leaves the module
/// unchanged; returns the first run's firings.
fn check_fixpoint(module: &Module) -> usize {
    let mut m = module.clone();
    let fires = GreedyRewriteDriver::from_patterns(peephole_patterns()).run(&mut m);
    asdf_ir::verify::verify_module(&m).expect("rewritten bench module verifies");
    let normal_form = m.to_string();
    let mut second = GreedyRewriteDriver::from_patterns(peephole_patterns());
    assert_eq!(second.run(&mut m), 0, "bench output is not a fixpoint: {:?}", second.stats.fired);
    assert_eq!(second.stats.dce_erased, 0, "a second run erased ops from a bench output");
    assert_eq!(m.to_string(), normal_form, "a second run changed a bench output");
    fires
}

/// Times the driver over clones of every module and checks every output;
/// returns (median time, total firings).
fn run_driver(modules: &[Module], samples: usize) -> (Duration, usize) {
    let time = median_time(samples, || {
        for module in modules {
            let mut m = module.clone();
            GreedyRewriteDriver::from_patterns(peephole_patterns()).run(&mut m);
            black_box(m);
        }
    });
    (time, modules.iter().map(check_fixpoint).sum())
}

/// The latest `rewrite_driver` point of `mode` in `BENCH_opt.json` (one
/// point per line).
fn committed_point(mode: &str) -> Option<String> {
    let text = std::fs::read_to_string(trajectory_path("BENCH_opt.json")).ok()?;
    let mode_field = format!("\"mode\": \"{mode}\"");
    text.lines()
        .rev()
        .find(|l| l.contains("\"bench\": \"rewrite_driver\"") && l.contains(&mode_field))
        .map(str::to_string)
}

/// A numeric field of a one-line JSON point.
fn field(point: &str, key: &str) -> Option<f64> {
    let start = point.find(&format!("\"{key}\": "))? + key.len() + 4;
    let rest = &point[start..];
    let end = rest.find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))?;
    rest[..end].parse().ok()
}

/// The committed point's `key` (microseconds), for printing beside a
/// measured time.
fn beside(point: Option<&str>, key: &str) -> String {
    match point.and_then(|p| field(p, key)) {
        Some(committed) => format!("committed {committed:.1}us"),
        None => "no committed point".to_string(),
    }
}

fn main() {
    let smoke = smoke_mode("REWRITE_DRIVER_SMOKE");
    let (wires, reps, cases, samples) = if smoke { (48, 1, 6, 3) } else { (120, 2, 12, 5) };
    let mode = if smoke { "smoke" } else { "full" };
    let committed = committed_point(mode);

    let wide = vec![wide_module(wires, reps)];
    let wide_ops = module_ops(&wide[0]);
    println!(
        "rewrite_driver: wide {wires}x{} ({wide_ops} ops), {cases} difftest modules, \
         {samples} samples{}",
        reps * WIRE_CHAIN.len(),
        if smoke { " (smoke)" } else { "" }
    );

    let (wide_time, wide_fires) = run_driver(&wide, samples);
    println!(
        "wide      worklist {wide_time:>10.3?}  ({})  ({wide_fires} firings)",
        beside(committed.as_deref(), "wide_worklist_us")
    );

    let difftest = difftest_modules(cases);
    let difftest_ops: usize = difftest.iter().map(module_ops).sum();
    let (dt_time, dt_fires) = run_driver(&difftest, samples);
    println!(
        "difftest  worklist {dt_time:>10.3?}  ({})  ({} modules, {difftest_ops} ops, \
         {dt_fires} firings)",
        beside(committed.as_deref(), "difftest_worklist_us"),
        difftest.len()
    );

    if !smoke {
        let point = committed.expect("BENCH_opt.json holds a full-mode rewrite_driver point");
        for (key, measured) in [("wide_ops", wide_ops), ("wide_fires", wide_fires)] {
            assert_eq!(
                field(&point, key),
                Some(measured as f64),
                "{key} differs from the committed full-mode point"
            );
        }
    }

    let point = format!(
        "{{\"bench\": \"rewrite_driver\", \"mode\": \"{mode}\", \
         \"wide_ops\": {wide_ops}, \"wide_fires\": {wide_fires}, \
         \"wide_worklist_us\": {:.1}, \
         \"difftest_modules\": {}, \"difftest_ops\": {difftest_ops}, \
         \"difftest_worklist_us\": {:.1}}}",
        us(wide_time),
        difftest.len(),
        us(dt_time),
    );
    record_trajectory_point("BENCH_opt.json", &point, smoke);
}
