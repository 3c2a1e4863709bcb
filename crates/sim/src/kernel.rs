//! Stride-based gate kernels and the gate-fusion prepass.
//!
//! The simulation hot path: instead of interpreting [`CircuitOp`]s one at a
//! time with a scan-and-branch over all `2^n` amplitudes (retained as
//! [`StateVector::apply_naive`] for differential testing), a circuit is
//! *compiled* once into a [`KernelProgram`]:
//!
//! - **Fusion**: runs of adjacent uncontrolled single-qubit gates on the
//!   same wire are folded into one 2×2 matrix (gates on disjoint wires
//!   commute, so runs survive interleaving); consecutive controlled
//!   unitaries with identical control/target masks are folded likewise, and
//!   exact-identity products (e.g. `X;X`, `S;Sdg`) are dropped.
//! - **Stride enumeration**: each kernel visits only the
//!   `2^(n-1-#controls)` pair indices satisfying the control mask, by
//!   depositing a dense counter's bits over the free bit positions —
//!   no per-index branching.
//!
//! Each op runs as contiguous runs through the [`crate::simd`] slice
//! kernels, or per pair / per quad with the same scalar expressions when
//! its runs are single amplitudes. The batched unitary extraction in
//! [`crate::batch`] executes the same compiled program with its own
//! structure-of-arrays loops over many basis columns at once.

use crate::complex::Complex;
use crate::simd;
use crate::state::StateVector;
use asdf_ir::GateKind;
use asdf_qcircuit::{Circuit, CircuitOp};
use std::f64::consts::FRAC_PI_4;
use threadpool::ThreadPool;

/// A 2×2 complex matrix, row-major.
pub(crate) type Matrix2 = [[Complex; 2]; 2];

/// A 4×4 complex matrix, row-major, over the local basis of a fused
/// two-qubit kernel (bit 0 of the local index ↔ the lower wire mask,
/// bit 1 ↔ the higher wire mask).
pub(crate) type Matrix4 = [[Complex; 4]; 4];

/// The exact 2×2 identity.
pub(crate) const IDENTITY_2Q: Matrix2 =
    [[Complex::ONE, Complex::ZERO], [Complex::ZERO, Complex::ONE]];

/// The exact 4×4 identity.
pub(crate) const IDENTITY_4Q: Matrix4 = {
    let (o, z) = (Complex::ONE, Complex::ZERO);
    [[o, z, z, z], [z, o, z, z], [z, z, o, z], [z, z, z, o]]
};

/// One fused, mask-resolved operation of a [`KernelProgram`].
///
/// Masks follow the [`StateVector`] convention: qubit 0 is the most
/// significant bit of the amplitude index.
#[derive(Debug, Clone, PartialEq)]
pub enum KernelOp {
    /// A (possibly controlled) single-qubit unitary: the fused 2×2 matrix
    /// applied to the target bit wherever every control bit is 1.
    Unitary {
        /// The fused matrix.
        matrix: Matrix2,
        /// Single-bit mask of the target qubit.
        tmask: usize,
        /// OR of the control-qubit masks (0 when uncontrolled).
        cmask: usize,
    },
    /// A fused two-qubit unitary over two wires, produced by the second
    /// fusion stage ([`KernelProgram::compile`]) from adjacent runs of ops
    /// whose wires fit in one pair — one memory pass where the source ops
    /// took several.
    Unitary4 {
        /// The fused 4×4 matrix over the local basis: bit 0 of the local
        /// index is the `lomask` wire, bit 1 the `himask` wire.
        matrix: Box<Matrix4>,
        /// Single-bit mask of the lower wire (`lomask < himask`).
        lomask: usize,
        /// Single-bit mask of the higher wire.
        himask: usize,
    },
    /// A (possibly controlled) swap of two qubits.
    Swap {
        /// Single-bit mask of the first swapped qubit.
        amask: usize,
        /// Single-bit mask of the second swapped qubit.
        bmask: usize,
        /// OR of the control-qubit masks (0 when uncontrolled).
        cmask: usize,
    },
    /// A measurement into a classical bit (never fused across).
    Measure {
        /// Measured qubit.
        qubit: usize,
        /// Destination classical bit.
        bit: usize,
    },
    /// A reset to |0> (never fused across).
    Reset {
        /// Reset qubit.
        qubit: usize,
    },
}

/// A circuit compiled to fused, mask-resolved kernel ops.
#[derive(Debug, Clone)]
pub struct KernelProgram {
    num_qubits: usize,
    num_bits: usize,
    ops: Vec<KernelOp>,
}

impl KernelProgram {
    /// Compiles `circuit` into fused kernel ops: single-qubit run fusion
    /// followed by two-qubit quad fusion, which collapses adjacent ops
    /// whose wires fit in one pair into a single [`KernelOp::Unitary4`]
    /// memory pass.
    pub fn compile(circuit: &Circuit) -> Self {
        let mut program = Self::compile_unfused(circuit);
        program.ops = fuse_quads(std::mem::take(&mut program.ops));
        program
    }

    /// Compiles `circuit` with single-qubit fusion only: the first stage
    /// of [`Self::compile`].
    fn compile_unfused(circuit: &Circuit) -> Self {
        let n = circuit.num_qubits;
        let mask = |q: usize| 1usize << (n - 1 - q);
        let mut ops: Vec<KernelOp> = Vec::with_capacity(circuit.ops().len());
        let mut pending: Vec<Option<Matrix2>> = vec![None; n];

        fn flush(
            ops: &mut Vec<KernelOp>,
            pending: &mut [Option<Matrix2>],
            wire: usize,
            tmask: usize,
        ) {
            if let Some(matrix) = pending[wire].take() {
                push_unitary(ops, matrix, tmask, 0);
            }
        }

        for op in circuit.ops() {
            match op {
                CircuitOp::Gate { gate: GateKind::Swap, controls, targets } => {
                    for &q in controls.iter().chain(targets) {
                        flush(&mut ops, &mut pending, q, mask(q));
                    }
                    let cmask = controls.iter().fold(0, |acc, &c| acc | mask(c));
                    ops.push(KernelOp::Swap {
                        amask: mask(targets[0]),
                        bmask: mask(targets[1]),
                        cmask,
                    });
                }
                CircuitOp::Gate { gate, controls: [], targets } => {
                    let wire = targets[0];
                    let acc = pending[wire].unwrap_or(IDENTITY_2Q);
                    pending[wire] = Some(matmul(&matrix_1q(gate), &acc));
                }
                CircuitOp::Gate { gate, controls, targets } => {
                    for &q in controls.iter().chain(targets) {
                        flush(&mut ops, &mut pending, q, mask(q));
                    }
                    let cmask = controls.iter().fold(0, |acc, &c| acc | mask(c));
                    push_unitary(&mut ops, matrix_1q(gate), mask(targets[0]), cmask);
                }
                CircuitOp::Measure { qubit, bit } => {
                    flush(&mut ops, &mut pending, qubit, mask(qubit));
                    ops.push(KernelOp::Measure { qubit, bit });
                }
                CircuitOp::Reset { qubit } => {
                    flush(&mut ops, &mut pending, qubit, mask(qubit));
                    ops.push(KernelOp::Reset { qubit });
                }
            }
        }
        for wire in 0..n {
            flush(&mut ops, &mut pending, wire, mask(wire));
        }

        KernelProgram { num_qubits: n, num_bits: circuit.num_bits(), ops }
    }

    /// Number of qubits the program acts on.
    pub(crate) fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of classical bits the program writes.
    pub(crate) fn num_bits(&self) -> usize {
        self.num_bits
    }

    /// The fused ops, in execution order.
    pub fn ops(&self) -> &[KernelOp] {
        &self.ops
    }

    /// Whether the program is measurement- and reset-free.
    pub(crate) fn is_unitary(&self) -> bool {
        self.ops.iter().all(|op| {
            matches!(
                op,
                KernelOp::Unitary { .. } | KernelOp::Unitary4 { .. } | KernelOp::Swap { .. }
            )
        })
    }

    /// Applies the program to `state` on one thread.
    ///
    /// # Panics
    ///
    /// Panics if the state size does not match, or if the program contains
    /// measurements or resets (those need a seeded executor — see
    /// `crate::run::Simulator::run_program`).
    pub fn apply_state(&self, state: &mut StateVector) {
        assert!(self.is_unitary(), "apply_state on a measuring program; use Simulator");
        self.apply_gates_pooled(state, &ThreadPool::new(1));
    }

    /// Applies only the unitary ops (gates), skipping measurements and
    /// resets, with each gate's pair enumeration split across `pool`.
    /// Callers must have established that the skipped ops do not affect
    /// the amplitudes they read — e.g. the terminal-measurement analysis of
    /// `crate::run::measurement_distribution`. Pairs partition
    /// disjointly, so workers never synchronize, and the per-element
    /// arithmetic is identical on every path: the result is
    /// **bit-identical** for every worker count.
    pub fn apply_gates_pooled(&self, state: &mut StateVector, pool: &ThreadPool) {
        assert_eq!(state.num_qubits(), self.num_qubits, "state size mismatch");
        let amps = state.amps_mut();
        for op in &self.ops {
            apply_op_pooled(amps, op, pool);
        }
    }
}

/// Applies one gate op (measure/reset ops are skipped) with its pair
/// enumeration split across `pool`.
pub(crate) fn apply_op_pooled(amps: &mut [Complex], op: &KernelOp, pool: &ThreadPool) {
    match op {
        KernelOp::Unitary { matrix, tmask, cmask } => {
            apply_unitary_pooled(amps, matrix, *tmask, *cmask, pool);
        }
        KernelOp::Unitary4 { matrix, lomask, himask } => {
            apply_unitary4_pooled(amps, matrix, *lomask, *himask, pool);
        }
        KernelOp::Swap { amask, bmask, cmask } => {
            apply_swap_pooled(amps, *amask, *bmask, *cmask, pool);
        }
        KernelOp::Measure { .. } | KernelOp::Reset { .. } => {}
    }
}

/// Appends a unitary, folding it into the previous op when that op is a
/// unitary on exactly the same control/target masks, and dropping exact
/// identities.
fn push_unitary(ops: &mut Vec<KernelOp>, matrix: Matrix2, tmask: usize, cmask: usize) {
    if let Some(KernelOp::Unitary { matrix: prev, tmask: pt, cmask: pc }) = ops.last_mut() {
        if *pt == tmask && *pc == cmask {
            *prev = matmul(&matrix, prev);
            if *prev == IDENTITY_2Q {
                ops.pop();
            }
            return;
        }
    }
    if matrix == IDENTITY_2Q {
        return;
    }
    ops.push(KernelOp::Unitary { matrix, tmask, cmask });
}

/// The wires an op touches, as an OR of single-bit masks (`usize::MAX` for
/// measure/reset, which fuse with nothing).
fn op_wires(op: &KernelOp) -> usize {
    match op {
        KernelOp::Unitary { tmask, cmask, .. } => tmask | cmask,
        KernelOp::Unitary4 { lomask, himask, .. } => lomask | himask,
        KernelOp::Swap { amask, bmask, cmask } => amask | bmask | cmask,
        KernelOp::Measure { .. } | KernelOp::Reset { .. } => usize::MAX,
    }
}

/// An open fusion group: consecutive ops (in program order) whose wires
/// all fit inside `wires` (at most two bits).
struct Group {
    wires: usize,
    ops: Vec<KernelOp>,
}

/// The second fusion stage: greedily groups adjacent ops whose combined
/// wires fit in one qubit pair and collapses each multi-op group into a
/// single [`KernelOp::Unitary4`] pass. Ops on disjoint wires commute, so
/// a group stays open while unrelated ops stream past it; an op touching
/// two single-wire groups merges them (the H⊗H·CX shape).
///
/// Groups whose fused matrix stays diagonal are always worth emitting
/// fused (k scaling passes become one). A *general* 4×4 costs ~2× the
/// arithmetic of a general 2×2 per amplitude, so a general fusion is only
/// emitted when it replaces at least two general passes or three ops —
/// otherwise the original specialized ops are kept.
fn fuse_quads(ops: Vec<KernelOp>) -> Vec<KernelOp> {
    let mut out = Vec::with_capacity(ops.len());
    let mut open: Vec<Group> = Vec::new();
    for op in ops {
        let wires = op_wires(&op);
        if matches!(op, KernelOp::Measure { .. } | KernelOp::Reset { .. }) {
            for group in open.drain(..) {
                flush_group(&mut out, group);
            }
            out.push(op);
            continue;
        }
        if wires.count_ones() > 2 {
            // A 3+-wire op (multi-controlled) fuses with nothing, but
            // commutes past every group it does not touch.
            open.retain_mut(|group| {
                let keep = group.wires & wires == 0;
                if !keep {
                    flush_group(
                        &mut out,
                        std::mem::replace(group, Group { wires: 0, ops: vec![] }),
                    );
                }
                keep
            });
            out.push(op);
            continue;
        }
        let touching: Vec<usize> =
            (0..open.len()).filter(|&g| open[g].wires & wires != 0).collect();
        match touching[..] {
            [] => open.push(Group { wires, ops: vec![op] }),
            [g] => {
                let union = open[g].wires | wires;
                if union.count_ones() <= 2 {
                    open[g].wires = union;
                    open[g].ops.push(op);
                } else {
                    flush_group(&mut out, open.remove(g));
                    open.push(Group { wires, ops: vec![op] });
                }
            }
            [g1, g2] => {
                let union = open[g1].wires | open[g2].wires | wires;
                if union.count_ones() <= 2 {
                    // Two single-wire groups bridged by a two-wire op: their
                    // ops are on disjoint wires and commute, so concatenation
                    // preserves the product.
                    let tail = open.remove(g2);
                    open[g1].wires = union;
                    open[g1].ops.extend(tail.ops);
                    open[g1].ops.push(op);
                } else {
                    let tail = open.remove(g2);
                    flush_group(&mut out, open.remove(g1));
                    flush_group(&mut out, tail);
                    open.push(Group { wires, ops: vec![op] });
                }
            }
            _ => unreachable!("a two-wire op touches at most two groups"),
        }
    }
    for group in open.drain(..) {
        flush_group(&mut out, group);
    }
    out
}

/// Emits one fusion group: single ops pass through unchanged, single-wire
/// runs fold as 2×2, and two-wire groups fold as 4×4 when the cost
/// heuristic favors it (see [`fuse_quads`]).
fn flush_group(out: &mut Vec<KernelOp>, mut group: Group) {
    if group.ops.len() <= 1 {
        if let Some(op) = group.ops.pop() {
            out.push(op);
        }
        return;
    }
    if group.wires.count_ones() < 2 {
        // Only uncontrolled single-qubit unitaries ever land in a
        // one-wire group; fold them as a 2×2.
        let mut matrix = IDENTITY_2Q;
        for op in &group.ops {
            let KernelOp::Unitary { matrix: m, .. } = op else {
                unreachable!("one-wire group holds only 1q unitaries")
            };
            matrix = matmul(m, &matrix);
        }
        push_unitary(out, matrix, group.wires, 0);
        return;
    }
    let bits = single_bit_masks(group.wires);
    let (lomask, himask) = (bits[0], bits[1]);
    let mut matrix = IDENTITY_4Q;
    let mut unfused_cost = 0.0f64;
    for op in &group.ops {
        unfused_cost += op_cost(op);
        matrix = matmul4(&embed4(op, lomask, himask), &matrix);
    }
    if matrix == IDENTITY_4Q {
        return;
    }
    // Fuse only when the single 4×4 sweep is cheaper than replaying the
    // group op by op. A monomial (or diagonal) product costs one complex
    // multiply per amplitude in one pass over memory, so it wins once the
    // group holds more than a couple of cheap ops; a dense product costs
    // four multiplies per amplitude — as much arithmetic as two general
    // 2×2 passes — and only wins by saving memory sweeps.
    let fused = KernelOp::Unitary4 { matrix: Box::new(matrix), lomask, himask };
    if op_cost(&fused) < unfused_cost {
        out.push(fused);
    } else {
        out.append(&mut group.ops);
    }
}

/// Embeds a one- or two-wire op into the 4×4 local basis of the wire pair
/// (`lomask` ↔ local bit 0, `himask` ↔ local bit 1).
fn embed4(op: &KernelOp, lomask: usize, himask: usize) -> Matrix4 {
    let mut m4 = [[Complex::ZERO; 4]; 4];
    match op {
        KernelOp::Unitary { matrix, tmask, cmask } => {
            let tbit = usize::from(*tmask == himask);
            debug_assert_eq!(if tbit == 1 { himask } else { lomask }, *tmask);
            for (row, m4_row) in m4.iter_mut().enumerate() {
                for (col, entry) in m4_row.iter_mut().enumerate() {
                    let (t_out, o_out) = ((row >> tbit) & 1, (row >> (1 - tbit)) & 1);
                    let (t_in, o_in) = ((col >> tbit) & 1, (col >> (1 - tbit)) & 1);
                    if o_out != o_in {
                        continue; // diagonal in the spectator/control bit
                    }
                    *entry = if *cmask != 0 && o_out == 0 {
                        // Control bit 0: identity block.
                        if t_out == t_in {
                            Complex::ONE
                        } else {
                            Complex::ZERO
                        }
                    } else {
                        matrix[t_out][t_in]
                    };
                }
            }
        }
        KernelOp::Swap { .. } => {
            // Uncontrolled only: a controlled swap has three wires and
            // never enters a group.
            m4[0][0] = Complex::ONE;
            m4[1][2] = Complex::ONE;
            m4[2][1] = Complex::ONE;
            m4[3][3] = Complex::ONE;
        }
        KernelOp::Unitary4 { matrix, .. } => return **matrix,
        KernelOp::Measure { .. } | KernelOp::Reset { .. } => {
            unreachable!("measure/reset never enter a fusion group")
        }
    }
    m4
}

/// `a * b` for 4×4 matrices (apply `b` first, then `a`).
pub(crate) fn matmul4(a: &Matrix4, b: &Matrix4) -> Matrix4 {
    let mut out = [[Complex::ZERO; 4]; 4];
    for (row, out_row) in out.iter_mut().enumerate() {
        for (col, entry) in out_row.iter_mut().enumerate() {
            let mut acc = a[row][0] * b[0][col];
            for k in 1..4 {
                acc += a[row][k] * b[k][col];
            }
            *entry = acc;
        }
    }
    out
}

/// The diagonal of `matrix` when every off-diagonal entry is exactly zero
/// (fused products of diagonal ops keep their exact zeros), else `None`.
pub(crate) fn diagonal4(matrix: &Matrix4) -> Option<[Complex; 4]> {
    for (row, m_row) in matrix.iter().enumerate() {
        for (col, entry) in m_row.iter().enumerate() {
            if row != col && *entry != Complex::ZERO {
                return None;
            }
        }
    }
    Some([matrix[0][0], matrix[1][1], matrix[2][2], matrix[3][3]])
}

/// Monomial (generalized-permutation) structure of `matrix`: exactly one
/// nonzero per row and per column. Returns `(src, scale)` such that the
/// update is `out[row] = scale[row] * in[src[row]]` — one complex multiply
/// per amplitude, like a diagonal, regardless of the permutation.
///
/// Products of phase/diagonal/X/CX/CZ/swap-type factors are monomial, and
/// the exact zeros of the factors survive [`matmul4`], so this covers most
/// fusion groups of the compiled gate mix (every group without an H/Ry/Sx
/// style dense factor).
pub(crate) fn monomial4(matrix: &Matrix4) -> Option<([usize; 4], [Complex; 4])> {
    let mut src = [0usize; 4];
    let mut scale = [Complex::ZERO; 4];
    let mut used_cols = 0usize;
    for (row, m_row) in matrix.iter().enumerate() {
        let mut nonzero = None;
        for (col, entry) in m_row.iter().enumerate() {
            if *entry != Complex::ZERO {
                if nonzero.is_some() {
                    return None;
                }
                nonzero = Some(col);
            }
        }
        let col = nonzero?;
        if used_cols & (1 << col) != 0 {
            return None;
        }
        used_cols |= 1 << col;
        src[row] = col;
        scale[row] = m_row[col];
    }
    Some((src, scale))
}

/// How a fused 4×4 product is applied — cheapest matching structure first.
pub(crate) enum QuadForm {
    /// Every off-diagonal entry exactly zero: per-row complex scales,
    /// identity rows skipped.
    Diagonal([Complex; 4]),
    /// One nonzero per row/column: `out[r] = scale[r] * in[src[r]]`.
    Monomial([usize; 4], [Complex; 4]),
    /// Dense: the full 16-term update.
    General,
}

pub(crate) fn quad_form(matrix: &Matrix4) -> QuadForm {
    if let Some(diag) = diagonal4(matrix) {
        QuadForm::Diagonal(diag)
    } else if let Some((src, scale)) = monomial4(matrix) {
        QuadForm::Monomial(src, scale)
    } else {
        QuadForm::General
    }
}

/// Estimated cost of one full-state application of `op`, for the fusion
/// profitability test: complex multiplies per amplitude, plus 0.3 per
/// full-state memory sweep (0.15 for half-state passes). A phase pass is
/// one multiply over half the amplitudes; flips and swaps move data with
/// no arithmetic at all; a dense 4×4 sweep is four multiplies per
/// amplitude but a single pass over memory.
fn op_cost(op: &KernelOp) -> f64 {
    match op {
        KernelOp::Unitary { matrix, .. } => match classify(matrix) {
            MatrixForm::Phase => 0.65,
            MatrixForm::Diagonal | MatrixForm::AntiDiagonal => 1.3,
            MatrixForm::FlipX => 0.3,
            MatrixForm::General => 2.3,
        },
        KernelOp::Swap { .. } => 0.3,
        KernelOp::Unitary4 { matrix, .. } => match quad_form(matrix) {
            QuadForm::Diagonal(_) => 1.0,
            QuadForm::Monomial(..) => 1.3,
            QuadForm::General => 4.3,
        },
        KernelOp::Measure { .. } | KernelOp::Reset { .. } => 0.0,
    }
}

/// `a * b` (apply `b` first, then `a`).
pub(crate) fn matmul(a: &Matrix2, b: &Matrix2) -> Matrix2 {
    [
        [a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]],
        [a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]],
    ]
}

/// Decomposes `mask` into its single-bit masks, ascending.
pub(crate) fn single_bit_masks(mut mask: usize) -> Vec<usize> {
    let mut out = Vec::with_capacity(mask.count_ones() as usize);
    while mask != 0 {
        let low = mask & mask.wrapping_neg();
        out.push(low);
        mask ^= low;
    }
    out
}

/// Deposits the bits of the dense counter `k` over the bit positions *not*
/// occupied by `fixed` (single-bit masks, ascending): the classic
/// bit-deposit that enumerates exactly the indices with all fixed bits 0.
#[inline]
pub(crate) fn deposit(k: usize, fixed: &[usize]) -> usize {
    let mut index = k;
    for &mask in fixed {
        index = ((index & !(mask - 1)) << 1) | (index & (mask - 1));
    }
    index
}

/// The structural form of a 2×2 matrix, used to pick a cheaper kernel.
/// Zero tests are exact: fused products of structured matrices keep their
/// exact zeros (and phase gates their exact unit corner), so the common
/// post-fusion shapes — phase products, Rz products, multi-controlled X —
/// all classify away from the general case.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum MatrixForm {
    /// Off-diagonal exactly zero, upper-left exactly one: only |..1..>
    /// amplitudes are scaled (P/T/S/Z and their products).
    Phase,
    /// Off-diagonal exactly zero (Rz and diagonal products).
    Diagonal,
    /// Diagonal exactly zero, both off-diagonal entries exactly one: a
    /// pure amplitude swap (X, CX, CCX...).
    FlipX,
    /// Diagonal exactly zero (Y-like).
    AntiDiagonal,
    /// Anything else.
    General,
}

/// Classifies `matrix` for kernel dispatch.
pub(crate) fn classify(matrix: &Matrix2) -> MatrixForm {
    let [[m00, m01], [m10, m11]] = *matrix;
    if m01 == Complex::ZERO && m10 == Complex::ZERO {
        if m00 == Complex::ONE {
            MatrixForm::Phase
        } else {
            MatrixForm::Diagonal
        }
    } else if m00 == Complex::ZERO && m11 == Complex::ZERO {
        if m01 == Complex::ONE && m10 == Complex::ONE {
            MatrixForm::FlipX
        } else {
            MatrixForm::AntiDiagonal
        }
    } else {
        MatrixForm::General
    }
}

/// Applies a (possibly controlled) 2×2 unitary on one thread — the
/// serial entry point used by [`StateVector::apply`].
pub(crate) fn apply_unitary(amps: &mut [Complex], matrix: &Matrix2, tmask: usize, cmask: usize) {
    apply_unitary_pooled(amps, matrix, tmask, cmask, &ThreadPool::new(1));
}

/// Applies a (possibly controlled) swap on one thread.
pub(crate) fn apply_swap(amps: &mut [Complex], amask: usize, bmask: usize, cmask: usize) {
    apply_swap_pooled(amps, amask, bmask, cmask, &ThreadPool::new(1));
}

/// A raw amplitude base pointer that may cross scoped-thread boundaries.
/// Soundness rests on the pair enumeration: every worker derives slices
/// only over its own runs, and runs are pairwise disjoint.
#[derive(Clone, Copy)]
struct SendPtr(*mut Complex);
unsafe impl Send for SendPtr {}
unsafe impl Sync for SendPtr {}

impl SendPtr {
    /// The wrapped pointer. Going through a method (rather than the field)
    /// makes 2021-edition closures capture the `Send + Sync` wrapper as a
    /// whole instead of disjointly borrowing the raw-pointer field.
    #[inline]
    fn ptr(self) -> *mut Complex {
        self.0
    }
}

/// Two disjoint contiguous runs of `len` amplitudes at `i0` and `i0 + gap`.
///
/// # Safety
///
/// Both ranges must be in bounds of the allocation behind `base`, with
/// `len <= gap` (disjointness), and no other live reference may overlap
/// them.
unsafe fn run_pair<'a>(
    base: SendPtr,
    i0: usize,
    gap: usize,
    len: usize,
) -> (&'a mut [Complex], &'a mut [Complex]) {
    debug_assert!(len <= gap);
    (
        std::slice::from_raw_parts_mut(base.ptr().add(i0), len),
        std::slice::from_raw_parts_mut(base.ptr().add(i0 + gap), len),
    )
}

/// Applies a (possibly controlled) 2×2 unitary, splitting the pair
/// enumeration across `pool`.
///
/// Consecutive dense counter values deposit into contiguous amplitude
/// indices below the lowest fixed bit, so the pairs decompose into
/// **runs**: two contiguous, disjoint slices of `run_len` amplitudes at
/// distance `tmask`. Each run is one [`crate::simd`] slice kernel
/// (specialized per matrix form), and runs partition disjointly across
/// workers — no synchronization, and bit-identical results for every
/// worker count.
pub(crate) fn apply_unitary_pooled(
    amps: &mut [Complex],
    matrix: &Matrix2,
    tmask: usize,
    cmask: usize,
    pool: &ThreadPool,
) {
    let [[m00, m01], [m10, m11]] = *matrix;
    let form = classify(matrix);
    let fixed = single_bit_masks(tmask | cmask);
    let pairs = amps.len() >> fixed.len();
    if pairs == 0 {
        return;
    }
    if cmask == 0 && tmask == 1 {
        // The target is the least significant index bit: pairs are the
        // adjacent amplitude couples (2k, 2k+1) — one interleaved-pair
        // vector kernel over each worker's contiguous span.
        let base = SendPtr(amps.as_mut_ptr());
        pool.for_each_range(pairs, |range| {
            // SAFETY: span [2*start, 2*end) is in bounds and disjoint
            // across the partitioned ranges.
            let span = unsafe {
                std::slice::from_raw_parts_mut(base.ptr().add(range.start << 1), range.len() << 1)
            };
            match form {
                MatrixForm::Phase | MatrixForm::Diagonal => {
                    simd::interleaved_diag_run(span, m00, m11);
                }
                MatrixForm::FlipX | MatrixForm::AntiDiagonal => {
                    simd::interleaved_antidiag_run(span, m01, m10);
                }
                MatrixForm::General => simd::interleaved_general_run(span, m00, m01, m10, m11),
            }
        });
        return;
    }
    let run_len = fixed[0].min(pairs);
    if run_len < 2 {
        // A control sits on the least significant bit: pairs are strided,
        // not contiguous. Per-pair deposit with scalar arithmetic (the
        // expressions match the slice kernels bit for bit).
        let base = SendPtr(amps.as_mut_ptr());
        pool.for_each_range(pairs, |range| {
            for k in range {
                let i = deposit(k, &fixed) | cmask;
                let j = i | tmask;
                // SAFETY: each (i, j) pair is visited exactly once across
                // all workers.
                let (lo, hi) = unsafe { (&mut *base.ptr().add(i), &mut *base.ptr().add(j)) };
                apply_pair_scalar(lo, hi, form, m00, m01, m10, m11);
            }
        });
        return;
    }
    let runs = pairs / run_len;
    let base = SendPtr(amps.as_mut_ptr());
    pool.for_each_range(runs, |range| {
        for r in range {
            let i0 = deposit(r * run_len, &fixed) | cmask;
            // SAFETY: runs are pairwise disjoint and in bounds;
            // run_len <= fixed[0] <= tmask.
            let (lo, hi) = unsafe { run_pair(base, i0, tmask, run_len) };
            match form {
                MatrixForm::Phase => simd::cmul_run(hi, m11),
                MatrixForm::Diagonal => {
                    simd::cmul_run(lo, m00);
                    simd::cmul_run(hi, m11);
                }
                MatrixForm::FlipX => lo.swap_with_slice(hi),
                MatrixForm::AntiDiagonal => simd::pair_antidiagonal_run(lo, hi, m01, m10),
                MatrixForm::General => simd::pair_general_run(lo, hi, m00, m01, m10, m11),
            }
        }
    });
}

/// One scalar 2×2 pair update, form-specialized, with the same IEEE
/// expressions as the slice kernels.
#[inline]
fn apply_pair_scalar(
    lo: &mut Complex,
    hi: &mut Complex,
    form: MatrixForm,
    m00: Complex,
    m01: Complex,
    m10: Complex,
    m11: Complex,
) {
    match form {
        MatrixForm::Phase => *hi = m11 * *hi,
        MatrixForm::Diagonal => {
            *lo = m00 * *lo;
            *hi = m11 * *hi;
        }
        MatrixForm::FlipX => std::mem::swap(lo, hi),
        MatrixForm::AntiDiagonal => {
            let a0 = *lo;
            *lo = m01 * *hi;
            *hi = m10 * a0;
        }
        MatrixForm::General => {
            let a0 = *lo;
            let a1 = *hi;
            *lo = m00 * a0 + m01 * a1;
            *hi = m10 * a0 + m11 * a1;
        }
    }
}

/// Applies a fused two-qubit unitary, splitting the quad enumeration
/// across `pool`. Each quad run is four contiguous disjoint slices (local
/// basis order); diagonal and monomial products reduce to one complex
/// multiply per amplitude.
pub(crate) fn apply_unitary4_pooled(
    amps: &mut [Complex],
    matrix: &Matrix4,
    lomask: usize,
    himask: usize,
    pool: &ThreadPool,
) {
    let fixed = [lomask, himask];
    let quads = amps.len() >> 2;
    if quads == 0 {
        return;
    }
    let form = quad_form(matrix);
    let run_len = lomask.min(quads);
    let base = SendPtr(amps.as_mut_ptr());
    if run_len < 2 {
        // The low wire is the least significant index bit: each quad's
        // slices are singletons, which drown in slice-kernel setup. Apply
        // per quad with scalar arithmetic (same IEEE expressions).
        pool.for_each_range(quads, |range| {
            for k in range {
                let i0 = deposit(k, &fixed);
                let idx = [i0, i0 | lomask, i0 | himask, i0 | himask | lomask];
                // SAFETY: a quad's four indices are distinct, and each
                // quad is visited exactly once across all workers.
                unsafe { apply_quad_at(base, idx, &form, matrix) };
            }
        });
        return;
    }
    let runs = quads / run_len;
    pool.for_each_range(runs, |range| {
        for r in range {
            let i0 = deposit(r * run_len, &fixed);
            // SAFETY: the four slices of one quad run are pairwise
            // disjoint (run_len <= lomask and 2*lomask <= himask) and
            // quad runs partition the amplitudes.
            let (s0, s1) = unsafe { run_pair(base, i0, lomask, run_len) };
            let (s2, s3) = unsafe { run_pair(base, i0 + himask, lomask, run_len) };
            match &form {
                QuadForm::Diagonal(d) => {
                    for (slice, &scale) in [s0, s1, s2, s3].into_iter().zip(d) {
                        if scale != Complex::ONE {
                            simd::cmul_run(slice, scale);
                        }
                    }
                }
                QuadForm::Monomial(src, scale) => {
                    simd::quad_monomial_run([s0, s1, s2, s3], *src, *scale);
                }
                QuadForm::General => simd::quad_general_run([s0, s1, s2, s3], matrix),
            }
        }
    });
}

/// One scalar quad update at amplitude indices `idx`, form-specialized,
/// with the same IEEE expressions as the quad slice kernels.
///
/// # Safety
///
/// All four indices must be in bounds of the allocation behind `base`,
/// pairwise distinct, and not aliased by any other live reference.
#[inline]
unsafe fn apply_quad_at(base: SendPtr, idx: [usize; 4], form: &QuadForm, matrix: &Matrix4) {
    match form {
        QuadForm::Diagonal(d) => {
            for (&scale, &slot) in d.iter().zip(&idx) {
                if scale != Complex::ONE {
                    let amp = &mut *base.ptr().add(slot);
                    *amp = scale * *amp;
                }
            }
        }
        QuadForm::Monomial(src, scale) => {
            let a = idx.map(|i| *base.ptr().add(i));
            for (row, &slot) in idx.iter().enumerate() {
                *base.ptr().add(slot) = scale[row] * a[src[row]];
            }
        }
        QuadForm::General => {
            let a = idx.map(|i| *base.ptr().add(i));
            for (row, &slot) in idx.iter().enumerate() {
                let mut acc = matrix[row][0] * a[0];
                for col in 1..4 {
                    acc += matrix[row][col] * a[col];
                }
                *base.ptr().add(slot) = acc;
            }
        }
    }
}

/// Applies a (possibly controlled) swap, splitting the run enumeration
/// across `pool`: each run is a [`<[_]>::swap_with_slice`] of two
/// contiguous disjoint slices.
pub(crate) fn apply_swap_pooled(
    amps: &mut [Complex],
    amask: usize,
    bmask: usize,
    cmask: usize,
    pool: &ThreadPool,
) {
    let fixed = single_bit_masks(amask | bmask | cmask);
    let pairs = amps.len() >> fixed.len();
    if pairs == 0 {
        return;
    }
    let run_len = fixed[0].min(pairs);
    let runs = pairs / run_len;
    let gap = amask.max(bmask) - amask.min(bmask);
    let base = SendPtr(amps.as_mut_ptr());
    pool.for_each_range(runs, |range| {
        for r in range {
            let i = deposit(r * run_len, &fixed) | cmask | amask;
            let j = i ^ amask ^ bmask;
            // SAFETY: disjoint by the pair enumeration; for powers of two
            // p > q, p - q >= q >= fixed[0] >= run_len, so the slices at
            // min(i, j) and min(i, j) + gap never overlap.
            let (lo, hi) = unsafe { run_pair(base, i.min(j), gap, run_len) };
            lo.swap_with_slice(hi);
        }
    });
}

/// The 2x2 matrix of a single-target gate.
///
/// # Panics
///
/// Panics on [`GateKind::Swap`], which has no 2×2 matrix.
pub(crate) fn matrix_1q(gate: GateKind) -> Matrix2 {
    let zero = Complex::ZERO;
    let one = Complex::ONE;
    let i = Complex::I;
    let h = Complex::new(std::f64::consts::FRAC_1_SQRT_2, 0.0);
    match gate {
        GateKind::X => [[zero, one], [one, zero]],
        GateKind::Y => [[zero, -i], [i, zero]],
        GateKind::Z => [[one, zero], [zero, -one]],
        GateKind::H => [[h, h], [h, -h]],
        GateKind::S => [[one, zero], [zero, i]],
        GateKind::Sdg => [[one, zero], [zero, -i]],
        GateKind::T => [[one, zero], [zero, Complex::from_angle(FRAC_PI_4)]],
        GateKind::Tdg => [[one, zero], [zero, Complex::from_angle(-FRAC_PI_4)]],
        GateKind::Sx => {
            let p = Complex::new(0.5, 0.5);
            let m = Complex::new(0.5, -0.5);
            [[p, m], [m, p]]
        }
        GateKind::Sxdg => {
            let p = Complex::new(0.5, 0.5);
            let m = Complex::new(0.5, -0.5);
            [[m, p], [p, m]]
        }
        GateKind::P(theta) => [[one, zero], [zero, Complex::from_angle(theta)]],
        GateKind::Rx(theta) => {
            let c = Complex::new((theta / 2.0).cos(), 0.0);
            let s = Complex::new(0.0, -(theta / 2.0).sin());
            [[c, s], [s, c]]
        }
        GateKind::Ry(theta) => {
            let c = Complex::new((theta / 2.0).cos(), 0.0);
            let s = Complex::new((theta / 2.0).sin(), 0.0);
            [[c, -s], [s, c]]
        }
        GateKind::Rz(theta) => {
            [[Complex::from_angle(-theta / 2.0), zero], [zero, Complex::from_angle(theta / 2.0)]]
        }
        GateKind::Swap => unreachable!("swap handled separately"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unitary_count(p: &KernelProgram) -> usize {
        p.ops().iter().filter(|op| matches!(op, KernelOp::Unitary { .. })).count()
    }

    #[test]
    fn deposit_enumerates_free_indices() {
        // n = 4, fixed bits 0b0100 and 0b0001: the 4 free patterns land in
        // the remaining positions, fixed bits always 0.
        let fixed = [0b0001usize, 0b0100];
        let all: Vec<usize> = (0..4).map(|k| deposit(k, &fixed)).collect();
        assert_eq!(all, vec![0b0000, 0b0010, 0b1000, 0b1010]);
    }

    #[test]
    fn fuses_single_qubit_runs_across_disjoint_wires() {
        let mut c = Circuit::new(2);
        c.gate(GateKind::H, &[], &[0]);
        c.gate(GateKind::T, &[], &[1]); // interleaved, different wire
        c.gate(GateKind::T, &[], &[0]);
        c.gate(GateKind::H, &[], &[0]);
        let p = KernelProgram::compile(&c);
        // Wire 0's H-T-H run fuses to one matrix; wire 1's T is another.
        assert_eq!(unitary_count(&p), 2);
        assert!(p.is_unitary());
    }

    #[test]
    fn fusion_does_not_cross_controls_or_measurements() {
        let mut c = Circuit::new(2);
        c.gate(GateKind::H, &[], &[0]);
        c.gate(GateKind::X, &[0], &[1]); // touches both wires: flushes H
        c.gate(GateKind::H, &[], &[0]);
        c.gate(GateKind::T, &[], &[0]);
        c.gate(GateKind::Swap, &[], &[0, 1]);
        c.measure(0, 0);
        c.gate(GateKind::H, &[], &[0]); // must not fuse across the measure
                                        // (The adjacent H(0); T(0) pair folds in the 2×2 stage already.)
        let unfused = KernelProgram::compile_unfused(&c);
        assert_eq!(unfused.ops().len(), 6, "{:?}", unfused.ops());
        assert!(matches!(unfused.ops()[4], KernelOp::Measure { qubit: 0, bit: 0 }));
        // The quad stage folds the whole group before the measurement into
        // one 4×4 pass, still without crossing the measurement.
        let p = KernelProgram::compile(&c);
        assert_eq!(p.ops().len(), 3, "{:?}", p.ops());
        assert!(matches!(p.ops()[0], KernelOp::Unitary4 { .. }));
        assert!(matches!(p.ops()[1], KernelOp::Measure { qubit: 0, bit: 0 }));
        assert!(matches!(p.ops()[2], KernelOp::Unitary { .. }));
        assert!(!p.is_unitary());
    }

    #[test]
    fn quad_fusion_merges_bridged_single_wire_groups() {
        // H(0); H(1); CX(0,1); T(0); T(1): the CX bridges two single-wire
        // groups into one pair group whose five passes cost more than a
        // general 4×4 sweep, so it fuses.
        let mut c = Circuit::new(2);
        c.gate(GateKind::H, &[], &[0]);
        c.gate(GateKind::H, &[], &[1]);
        c.gate(GateKind::X, &[0], &[1]);
        c.gate(GateKind::T, &[], &[0]);
        c.gate(GateKind::T, &[], &[1]);
        let p = KernelProgram::compile(&c);
        assert_eq!(p.ops().len(), 1, "{:?}", p.ops());
        assert!(matches!(p.ops()[0], KernelOp::Unitary4 { .. }));
    }

    #[test]
    fn quad_fusion_keeps_cheap_pairs_unfused() {
        // H(0); CX(0,1): one general pass plus one flip pass beat a dense
        // 4×4 sweep (four multiplies per amplitude) — the cost model
        // leaves them alone.
        let mut c = Circuit::new(2);
        c.gate(GateKind::H, &[], &[0]);
        c.gate(GateKind::X, &[0], &[1]);
        let p = KernelProgram::compile(&c);
        assert_eq!(p.ops().len(), 2, "{:?}", p.ops());
        assert!(p.ops().iter().all(|op| matches!(op, KernelOp::Unitary { .. })));
    }

    #[test]
    fn quad_fusion_fuses_monomial_products() {
        // T(0); CX(0,1); T(1): the product has one nonzero per row/column,
        // so the fused sweep is one multiply per amplitude — cheaper than
        // replaying two phase passes and a flip pass.
        let mut c = Circuit::new(2);
        c.gate(GateKind::T, &[], &[0]);
        c.gate(GateKind::X, &[0], &[1]);
        c.gate(GateKind::T, &[], &[1]);
        let p = KernelProgram::compile(&c);
        assert_eq!(p.ops().len(), 1, "{:?}", p.ops());
        let KernelOp::Unitary4 { matrix, .. } = &p.ops()[0] else {
            panic!("expected Unitary4: {:?}", p.ops())
        };
        assert!(diagonal4(matrix).is_none());
        let (src, _) = monomial4(matrix).expect("product should be monomial");
        assert_ne!(src, [0, 1, 2, 3], "the CX permutes the quad");
    }

    #[test]
    fn quad_fusion_emits_diagonal_products_fused() {
        // T(0); CZ(0,1); T(1): all diagonal in the pair — three passes
        // become one diagonal 4×4.
        let mut c = Circuit::new(2);
        c.gate(GateKind::T, &[], &[0]);
        c.gate(GateKind::Z, &[0], &[1]);
        c.gate(GateKind::T, &[], &[1]);
        let p = KernelProgram::compile(&c);
        assert_eq!(p.ops().len(), 1, "{:?}", p.ops());
        let KernelOp::Unitary4 { matrix, .. } = &p.ops()[0] else {
            panic!("expected Unitary4: {:?}", p.ops())
        };
        assert!(diagonal4(matrix).is_some());
    }

    #[test]
    fn quad_fusion_commutes_disjoint_ops_past_open_groups() {
        // The CCX on wires 1-3 must flush the {1,2} group but may pass the
        // {0} group, which keeps absorbing afterwards.
        let mut c = Circuit::new(4);
        c.gate(GateKind::H, &[], &[0]);
        c.gate(GateKind::H, &[], &[1]);
        c.gate(GateKind::X, &[1], &[2]);
        c.gate(GateKind::H, &[], &[2]);
        c.gate(GateKind::T, &[], &[1]);
        c.gate(GateKind::T, &[], &[2]);
        c.gate(GateKind::X, &[1, 2], &[3]);
        c.gate(GateKind::T, &[], &[0]);
        let p = KernelProgram::compile(&c);
        // Expected: Unitary4(1,2) [T·T·H·CX·H], CCX, Unitary(0) [T·H fused].
        assert_eq!(p.ops().len(), 3, "{:?}", p.ops());
        assert!(matches!(p.ops()[0], KernelOp::Unitary4 { .. }));
        assert!(matches!(p.ops()[1], KernelOp::Unitary { cmask, .. } if cmask != 0));
        assert!(matches!(p.ops()[2], KernelOp::Unitary { cmask: 0, .. }));
        // And the reordering is semantics-preserving.
        let mut fused = StateVector::zero(4);
        p.apply_state(&mut fused);
        let mut plain = StateVector::zero(4);
        for op in c.ops() {
            if let CircuitOp::Gate { gate, controls, targets } = op {
                plain.apply_naive(gate, controls, targets);
            }
        }
        for (a, b) in fused.amplitudes().iter().zip(plain.amplitudes()) {
            assert!(a.approx_eq(*b, 1e-12), "{a} vs {b}");
        }
    }

    #[test]
    fn exact_identity_products_are_dropped() {
        let mut c = Circuit::new(1);
        c.gate(GateKind::X, &[], &[0]);
        c.gate(GateKind::X, &[], &[0]);
        c.gate(GateKind::S, &[], &[0]);
        c.gate(GateKind::Sdg, &[], &[0]);
        let p = KernelProgram::compile(&c);
        assert_eq!(p.ops().len(), 0, "{:?}", p.ops());
        // Adjacent identical-mask controlled pairs cancel too.
        let mut c = Circuit::new(2);
        c.gate(GateKind::X, &[0], &[1]);
        c.gate(GateKind::X, &[0], &[1]);
        let p = KernelProgram::compile(&c);
        assert_eq!(p.ops().len(), 0, "{:?}", p.ops());
    }

    #[test]
    fn fused_program_matches_gate_by_gate_application() {
        let mut c = Circuit::new(3);
        c.gate(GateKind::H, &[], &[0]);
        c.gate(GateKind::T, &[], &[0]);
        c.gate(GateKind::X, &[0], &[1]);
        c.gate(GateKind::Ry(0.37), &[], &[2]);
        c.gate(GateKind::Swap, &[0], &[1, 2]);
        c.gate(GateKind::Sdg, &[], &[1]);
        c.gate(GateKind::Z, &[2, 1], &[0]);
        let p = KernelProgram::compile(&c);

        let mut fused = StateVector::zero(3);
        p.apply_state(&mut fused);
        let mut plain = StateVector::zero(3);
        for op in c.ops() {
            if let CircuitOp::Gate { gate, controls, targets } = op {
                plain.apply_naive(gate, controls, targets);
            }
        }
        for (a, b) in fused.amplitudes().iter().zip(plain.amplitudes()) {
            assert!(a.approx_eq(*b, 1e-12), "{a} vs {b}");
        }
    }

    #[test]
    fn apply_state_rejects_measuring_programs() {
        let mut c = Circuit::new(1);
        c.measure(0, 0);
        let p = KernelProgram::compile(&c);
        let result = std::panic::catch_unwind(|| {
            let mut s = StateVector::zero(1);
            p.apply_state(&mut s);
        });
        assert!(result.is_err());
    }
}
