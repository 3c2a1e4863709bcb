//! A circuit allocates per circuit, not per gate. A counting global
//! allocator wraps the system allocator; cloning, decomposing and
//! appending a circuit 16x as long may allocate more only by the extra
//! doublings of the circuit's two growing arrays.

use asdf_ir::GateKind;
use asdf_qcircuit::decompose::{decompose, DecomposeStyle};
use asdf_qcircuit::Circuit;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

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

const QUBITS: usize = 16;

/// `gates` gates cycling through H, CX, CZ and SWAP over 16 qubits, after
/// four 3-control X gates (which decompose through ancilla chains).
fn circuit(gates: usize) -> Circuit {
    let mut c = Circuit::new(QUBITS);
    for k in 0..4 {
        c.gate(GateKind::X, &[k, k + 1, k + 2], &[k + 3]);
    }
    for i in 0..gates - 4 {
        let q = i % (QUBITS - 1);
        match i % 4 {
            0 => c.gate(GateKind::H, &[], &[q]),
            1 => c.gate(GateKind::X, &[q], &[q + 1]),
            2 => c.gate(GateKind::Z, &[q + 1], &[q]),
            _ => c.gate(GateKind::Swap, &[], &[q, q + 1]),
        }
    }
    c
}

/// Allocations of `clone`, `decompose(.., Selinger)` and `append_mapped`
/// on a circuit of `gates` gates.
fn allocations(gates: usize) -> [u64; 3] {
    let c = circuit(gates);
    let mapping: Vec<usize> = (0..QUBITS).rev().collect();
    let mut clone = None;
    let mut decomposed = None;
    let mut appended = Circuit::new(QUBITS);
    let counts = [
        allocations_in(|| clone = Some(c.clone())),
        allocations_in(|| decomposed = Some(decompose(&c, DecomposeStyle::Selinger))),
        allocations_in(|| appended.append_mapped(&c, &mapping)),
    ];
    black_box((clone, decomposed, appended));
    counts
}

#[test]
fn clone_decompose_and_append_allocate_per_circuit() {
    let small = allocations(1024);
    let large = allocations(16 * 1024);
    // 16x the gates: at most log2(16) + 1 more doublings for each of the
    // two arrays a circuit grows.
    let doublings = 2 * (16u64.ilog2() as u64 + 1);
    for (stage, (small, large)) in
        ["clone", "decompose", "append_mapped"].iter().zip(small.iter().zip(&large))
    {
        assert!(
            *large <= small + doublings,
            "{stage}: {large} allocations at 16384 gates against {small} at 1024"
        );
    }
    assert_eq!(large[0], 2, "a clone copies the op records and the qubit arena");
}
