//! The rewrite driver allocates per firing, not per op. A counting global
//! allocator wraps the system allocator; a peephole run over a module 16x
//! as wide, with the same single firing, may allocate more only by the
//! extra doublings of the driver's growing arrays.

use asdf_ir::rewrite::GreedyRewriteDriver;
use asdf_ir::{FuncBuilder, FuncType, GateKind, Module, OpKind, Type, Visibility};
use asdf_qcircuit::peephole::peephole_patterns;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Counts allocations made on this thread while the window is open.
struct CountingAllocator;

// SAFETY: defers to the system allocator; the bookkeeping uses only
// const-initialized thread-locals, which never allocate on access.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

fn count() {
    // try_with: TLS may already be torn down during thread exit.
    let _ = COUNTING.try_with(|counting| {
        if counting.get() {
            let _ = ALLOCATIONS.try_with(|allocations| allocations.set(allocations.get() + 1));
        }
    });
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Runs `f` with allocation counting enabled and returns how many heap
/// allocations it performed on this thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    ALLOCATIONS.with(|a| a.set(0));
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCATIONS.with(|a| a.get())
}

/// The QCircuit shape `'p'[W] | std[W].measure` converts to: W `qalloc`s
/// and W `h` gates, a `qbpack`/`qbunpack` pair, W `measure`/`qfree` pairs,
/// a `bitpack` and a `return`.
fn plus_measure(wires: usize) -> Module {
    let ty = FuncType::new(vec![], vec![Type::BitBundle(wires)], false);
    let mut b = FuncBuilder::new("kernel", ty, Visibility::Public);
    let mut bb = b.block();
    let qubits: Vec<_> =
        (0..wires).map(|_| bb.push(OpKind::QAlloc, vec![], vec![Type::Qubit])[0]).collect();
    let h = OpKind::Gate { gate: GateKind::H, num_controls: 0 };
    let turned: Vec<_> =
        qubits.into_iter().map(|q| bb.push(h.clone(), vec![q], vec![Type::Qubit])[0]).collect();
    let bundle = bb.push(OpKind::QbPack, turned, vec![Type::QBundle(wires)]);
    let unpacked = bb.push(OpKind::QbUnpack, bundle, vec![Type::Qubit; wires]);
    let bits: Vec<_> = unpacked
        .into_iter()
        .map(|q| {
            let measured = bb.push(OpKind::Measure, vec![q], vec![Type::Qubit, Type::I1]);
            bb.push(OpKind::QFree, vec![measured[0]], vec![]);
            measured[1]
        })
        .collect();
    let packed = bb.push(OpKind::BitPack, bits, vec![Type::BitBundle(wires)]);
    bb.push(OpKind::Return, packed, vec![]);
    let mut module = Module::new();
    module.add_func(b.finish());
    module
}

/// Allocations of one peephole driver run over `plus_measure(wires)`.
fn driver_allocations(wires: usize) -> u64 {
    let mut module = plus_measure(wires);
    let mut driver = GreedyRewriteDriver::from_patterns(peephole_patterns());
    let mut fires = 0;
    let allocations = allocations_in(|| fires = driver.run(&mut module));
    assert_eq!(fires, 1, "one unpack-of-pack firing");
    assert_eq!(driver.stats.fired.get("unpack-of-pack"), Some(&1));
    asdf_ir::verify::verify_module(&module).expect("the rewritten module verifies");
    allocations
}

#[test]
fn the_driver_allocates_per_firing_not_per_op() {
    let small = driver_allocations(1024);
    let large = driver_allocations(16 * 1024);
    // 16x the ops and values: a few more doublings of each growing array
    // (index, worklist, requeue marks, the firing's edit log), nothing
    // per op or per value.
    assert!(large <= small + 64, "{large} allocations at 16384 wires against {small} at 1024");
}
