//! `BlockBuilder::push` allocates nothing for an op of at most three
//! operands and results: a counting global allocator sees only the
//! doublings of the block's op list and the function's value arena, however
//! many such ops are pushed.

use asdf_ir::{FuncBuilder, FuncType, GateKind, OpKind, Type, Value, Visibility};
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

/// Allocations made while pushing `gates` rounds of an `h` on each of three
/// wires and a Toffoli across them, after an unpack of the three wires.
fn allocations_pushing(gates: usize) -> u64 {
    let mut b = FuncBuilder::new("f", FuncType::rev_qbundle(3), Visibility::Public);
    let arg = b.args()[0];
    let mut bb = b.block();
    ALLOCATIONS.with(|a| a.set(0));
    COUNTING.with(|c| c.set(true));
    let unpacked = bb.push(OpKind::QbUnpack, &[arg][..], [Type::Qubit, Type::Qubit, Type::Qubit]);
    let mut wires: [Value; 3] = [unpacked[0], unpacked[1], unpacked[2]];
    for _ in 0..gates {
        for wire in &mut wires {
            let h = OpKind::Gate { gate: GateKind::H, num_controls: 0 };
            *wire = bb.push(h, &[*wire][..], [Type::Qubit])[0];
        }
        let ccx = OpKind::Gate { gate: GateKind::X, num_controls: 2 };
        let out = bb.push(ccx, &wires[..], [Type::Qubit, Type::Qubit, Type::Qubit]);
        wires.copy_from_slice(&out);
    }
    COUNTING.with(|c| c.set(false));
    ALLOCATIONS.with(|a| a.get())
}

#[test]
fn pushing_short_ops_allocates_only_the_arrays_growth() {
    let (small, large) = (allocations_pushing(256), allocations_pushing(4096));
    // 16x the ops: four more doublings each of the op list and the value
    // arena. One allocation per push would add 15,360.
    assert!(large <= small + 8, "{small} allocations for 1,024 ops, {large} for 16,384");
}
