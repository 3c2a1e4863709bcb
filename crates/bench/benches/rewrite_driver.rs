//! Rewrite-driver bench: the worklist driver over the peephole patterns.
//!
//! Three workloads:
//!
//! - **wide** — a synthetic single-block function of `W` parallel qubit
//!   wires, each carrying an interleaved chain of cancelling/merging gate
//!   pairs (`H H`, `X X`, `S S†`, `T T†`, `P(θ) P(−θ)`, `H X H`). Every
//!   firing is scattered across a wide block, so a driver that revisits
//!   more than the touched neighborhood pays O(ops) per firing.
//! - **bundle** — the shape wide programs such as bv lower to: a `W`-wide
//!   `qbunpack`, the same per-wire chains, then a `qbpack`. A requeue walk
//!   that hops through the unpack or the pack from one wire to all of
//!   them pays O(W) per firing; the driver's `visits` (live ops popped)
//!   show it.
//! - **difftest** — modules generated by the difftest program generator,
//!   compiled to QCircuit IR with peephole disabled (`opt+nopeep+whole`),
//!   then optimized by the driver: the realistic shape.
//!
//! Each run checks that every output verifies and is a fixpoint (a second
//! driver run fires nothing, erases nothing, and leaves the module
//! unchanged). A full run prints the measured times beside the latest
//! committed full-mode `BENCH_opt.json` point, checks that the wide and
//! bundle op and firing counts equal that point's (bundle counts once a
//! point holds them), and appends a trajectory point. `--smoke` shrinks
//! the workload for CI and prints the point instead of appending it.

use asdf_bench::{
    committed_full_point, json_field, median_time, record_trajectory_point, smoke_mode,
};
use asdf_core::{CompileOptions, CompileRequest, Session};
use asdf_difftest::{gen_case, GenOptions};
use asdf_ir::func::BlockBuilder;
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

/// Pushes `reps` repetitions of [`WIRE_CHAIN`] onto every wire head,
/// interleaved round-robin so consecutive rewrite opportunities are
/// `heads.len()` ops apart.
fn push_wire_chains(bb: &mut BlockBuilder<'_>, heads: &mut [Value], reps: usize) {
    for _ in 0..reps {
        for &gate in WIRE_CHAIN {
            for head in heads.iter_mut() {
                let kind = OpKind::Gate { gate, num_controls: 0 };
                *head = bb.push(kind, vec![*head], vec![Type::Qubit])[0];
            }
        }
    }
}

/// A single-block function of `wires` qubit wires, each carrying `reps`
/// repetitions of [`WIRE_CHAIN`].
fn wide_module(wires: usize, reps: usize) -> Module {
    let ty = FuncType::new(vec![Type::Qubit; wires], vec![Type::Qubit; wires], true);
    let mut b = FuncBuilder::new("wide", ty, Visibility::Public);
    let mut heads: Vec<Value> = b.args().to_vec();
    let mut bb = b.block();
    push_wire_chains(&mut bb, &mut heads, reps);
    bb.push(OpKind::Return, heads, vec![]);
    let mut module = Module::new();
    module.add_func(b.finish());
    module
}

/// A `qbundle[wires]` function that unpacks its argument, runs
/// [`WIRE_CHAIN`] on every wire, and packs the wires again.
fn bundle_module(wires: usize) -> Module {
    let mut b = FuncBuilder::new("bundle", FuncType::rev_qbundle(wires), Visibility::Public);
    let arg = b.args()[0];
    let mut bb = b.block();
    let mut heads = bb.push(OpKind::QbUnpack, vec![arg], vec![Type::Qubit; wires]);
    push_wire_chains(&mut bb, &mut heads, 1);
    let packed = bb.push(OpKind::QbPack, heads, vec![Type::QBundle(wires)]);
    bb.push(OpKind::Return, packed, vec![]);
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

/// What one driver run over a workload did.
#[derive(Default)]
struct Work {
    fires: usize,
    visits: usize,
}

/// Runs the driver over `module`, checks that the result verifies and
/// that a second run fires nothing, erases nothing, and leaves the module
/// unchanged; returns the first run's firings and visits.
fn check_fixpoint(module: &Module) -> Work {
    let mut m = module.clone();
    let mut first = GreedyRewriteDriver::from_patterns(peephole_patterns());
    let fires = first.run(&mut m);
    asdf_ir::verify::verify_module(&m).expect("rewritten bench module verifies");
    let normal_form = m.to_string();
    let mut second = GreedyRewriteDriver::from_patterns(peephole_patterns());
    assert_eq!(second.run(&mut m), 0, "bench output is not a fixpoint: {:?}", second.stats.fired);
    assert_eq!(second.stats.dce_erased, 0, "a second run erased ops from a bench output");
    assert_eq!(m.to_string(), normal_form, "a second run changed a bench output");
    Work { fires, visits: first.stats.visits }
}

/// Times the driver over clones of every module and checks every output;
/// returns the median time and the summed work.
fn run_driver(modules: &[Module], samples: usize) -> (Duration, Work) {
    let time = median_time(samples, || {
        for module in modules {
            let mut m = module.clone();
            GreedyRewriteDriver::from_patterns(peephole_patterns()).run(&mut m);
            black_box(m);
        }
    });
    let work = modules.iter().map(check_fixpoint).fold(Work::default(), |sum, w| Work {
        fires: sum.fires + w.fires,
        visits: sum.visits + w.visits,
    });
    (time, work)
}

/// A measured time, beside the committed full-mode point's `key`
/// (microseconds) when there is one.
fn time_beside(time: Duration, point: Option<&str>, key: &str) -> String {
    match point.map(|p| json_field(p, key)) {
        Some(Some(committed)) => format!("{time:>10.3?}  (committed {committed:.1}us)"),
        Some(None) => format!("{time:>10.3?}  (no committed {key})"),
        None => format!("{time:>10.3?}"),
    }
}

fn main() {
    let smoke = smoke_mode();
    let (wires, reps, bundle_wires, cases, samples) =
        if smoke { (48, 1, 128, 6, 3) } else { (120, 2, 512, 12, 5) };
    let mode = if smoke { "smoke" } else { "full" };
    // Smoke runs are never recorded, so only a full run has a committed
    // point to compare with.
    let committed = if smoke {
        None
    } else {
        Some(
            committed_full_point("BENCH_opt.json", "rewrite_driver")
                .expect("BENCH_opt.json holds a full-mode rewrite_driver point"),
        )
    };
    let committed = committed.as_deref();

    let wide = vec![wide_module(wires, reps)];
    let wide_ops = module_ops(&wide[0]);
    let bundle = vec![bundle_module(bundle_wires)];
    let bundle_ops = module_ops(&bundle[0]);
    println!(
        "rewrite_driver: wide {wires}x{} ({wide_ops} ops), bundle {bundle_wires}x{} \
         ({bundle_ops} ops), {cases} difftest modules, {samples} samples{}",
        reps * WIRE_CHAIN.len(),
        WIRE_CHAIN.len(),
        if smoke { " (smoke)" } else { "" }
    );

    let (wide_time, wide_work) = run_driver(&wide, samples);
    println!(
        "wide      worklist {}  ({} firings, {} visits)",
        time_beside(wide_time, committed, "wide_worklist_us"),
        wide_work.fires,
        wide_work.visits
    );

    let (bundle_time, bundle_work) = run_driver(&bundle, samples);
    println!(
        "bundle    worklist {}  ({} firings, {} visits)",
        time_beside(bundle_time, committed, "bundle_worklist_us"),
        bundle_work.fires,
        bundle_work.visits
    );

    let difftest = difftest_modules(cases);
    let difftest_ops: usize = difftest.iter().map(module_ops).sum();
    let (dt_time, dt_work) = run_driver(&difftest, samples);
    println!(
        "difftest  worklist {}  ({} modules, {difftest_ops} ops, {} firings)",
        time_beside(dt_time, committed, "difftest_worklist_us"),
        difftest.len(),
        dt_work.fires
    );

    if let Some(point) = committed {
        for (key, measured) in [("wide_ops", wide_ops), ("wide_fires", wide_work.fires)] {
            assert_eq!(
                json_field(point, key),
                Some(measured as f64),
                "{key} differs from the committed full-mode point"
            );
        }
        // Points from before the bundle workload lack its counts.
        for (key, measured) in [("bundle_ops", bundle_ops), ("bundle_fires", bundle_work.fires)] {
            if let Some(committed) = json_field(point, key) {
                assert_eq!(
                    committed, measured as f64,
                    "{key} differs from the committed full-mode point"
                );
            }
        }
    }

    let point = format!(
        "{{\"bench\": \"rewrite_driver\", \"mode\": \"{mode}\", \
         \"wide_ops\": {wide_ops}, \"wide_fires\": {}, \
         \"wide_worklist_us\": {:.1}, \
         \"bundle_ops\": {bundle_ops}, \"bundle_fires\": {}, \"bundle_visits\": {}, \
         \"bundle_worklist_us\": {:.1}, \
         \"difftest_modules\": {}, \"difftest_ops\": {difftest_ops}, \
         \"difftest_worklist_us\": {:.1}}}",
        wide_work.fires,
        us(wide_time),
        bundle_work.fires,
        bundle_work.visits,
        us(bundle_time),
        difftest.len(),
        us(dt_time),
    );
    record_trajectory_point("BENCH_opt.json", &point, smoke);
}
