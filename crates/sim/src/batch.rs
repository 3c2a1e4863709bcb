//! Batched unitary extraction: apply a circuit once to many basis columns.
//!
//! Extracting a circuit's unitary column-by-column re-simulates the whole
//! circuit per basis input. This module instead compiles the circuit once
//! ([`KernelProgram`]) and applies it to *blocks* of [`LANES`] columns held
//! in a structure-of-arrays scratch (separate real/imaginary planes, lane
//! index innermost): every pair update then works on contiguous `f64` runs
//! with the 2×2 matrix entries hoisted out — branch-free, auto-vectorizable,
//! and with the whole block L2-resident for the entire program.
//!
//! Blocks are independent, so they are distributed over a
//! [`threadpool::ThreadPool`] when the matrix is big enough to amortize
//! thread spawns; results are bit-identical regardless of worker count.

use crate::complex::Complex;
use crate::kernel::{
    classify, deposit, quad_form, single_bit_masks, KernelOp, KernelProgram, Matrix4, MatrixForm,
    QuadForm,
};
use crate::state::{checked_amplitude_count, StateVector};
use threadpool::ThreadPool;

/// Columns simulated together in one structure-of-arrays block.
pub(crate) const LANES: usize = 8;

/// Pair-update count below which the extraction stays on one thread.
const PARALLEL_THRESHOLD: u128 = 1 << 22;

/// Applies a measurement-free `circuit` to the basis states listed in
/// `inputs` (amplitude indices), returning the resulting columns in the
/// same order — the batched replacement for per-column re-simulation in
/// [`crate::run::unitary_of`] and the difftest oracles.
///
/// # Panics
///
/// Panics if the circuit measures or resets, or if an input index is out
/// of range.
pub fn batched_columns(circuit: &asdf_qcircuit::Circuit, inputs: &[usize]) -> Vec<StateVector> {
    let program = KernelProgram::compile(circuit);
    batched_program_columns(&program, inputs)
}

/// [`batched_columns`] over an already-compiled program (lets callers
/// amortize the fusion prepass across repeated extractions).
///
/// # Panics
///
/// Same conditions as [`batched_columns`].
pub fn batched_program_columns(program: &KernelProgram, inputs: &[usize]) -> Vec<StateVector> {
    batched_program_columns_threads(program, inputs, 0)
}

/// [`batched_program_columns`] with an explicit worker count: `0` keeps the
/// work-size heuristic (go wide only when the extraction is big enough to
/// amortize thread spawns), any other value forces exactly that many
/// workers. Results are bit-identical for every choice.
///
/// # Panics
///
/// Same conditions as [`batched_columns`].
pub fn batched_program_columns_threads(
    program: &KernelProgram,
    inputs: &[usize],
    threads: usize,
) -> Vec<StateVector> {
    assert!(program.is_unitary(), "batched extraction requires a measurement-free circuit");
    let size = checked_amplitude_count(program.num_qubits());
    for &input in inputs {
        assert!(input < size, "basis input {input} out of range for {size} amplitudes");
    }

    let mut columns: Vec<Vec<Complex>> = inputs.iter().map(|_| Vec::new()).collect();
    let work = size as u128 * inputs.len() as u128 * program.ops().len().max(1) as u128;
    let pool = match threads {
        0 if work >= PARALLEL_THRESHOLD => ThreadPool::with_available_parallelism(),
        0 => ThreadPool::new(1),
        n => ThreadPool::new(n),
    };
    pool.for_each_chunk(&mut columns, LANES, |block, chunk| {
        let start = block * LANES;
        run_block::<LANES>(program, &inputs[start..start + chunk.len()], chunk);
    });
    columns.into_iter().map(StateVector::from_amplitudes).collect()
}

/// Simulates up to `L` basis columns through the whole program in one
/// structure-of-arrays scratch, then scatters them into `columns`.
fn run_block<const L: usize>(
    program: &KernelProgram,
    inputs: &[usize],
    columns: &mut [Vec<Complex>],
) {
    debug_assert!(inputs.len() == columns.len() && columns.len() <= L);
    let size = 1usize << program.num_qubits();
    let mut re = vec![0.0f64; size * L];
    let mut im = vec![0.0f64; size * L];
    for (lane, &input) in inputs.iter().enumerate() {
        re[input * L + lane] = 1.0;
    }
    for op in program.ops() {
        match op {
            KernelOp::Unitary { matrix, tmask, cmask } => {
                let fixed = single_bit_masks(tmask | cmask);
                let pairs = size >> fixed.len();
                let m = [
                    [matrix[0][0].re, matrix[0][0].im, matrix[0][1].re, matrix[0][1].im],
                    [matrix[1][0].re, matrix[1][0].im, matrix[1][1].re, matrix[1][1].im],
                ];
                let form = classify(matrix);
                // Bits below the lowest fixed bit pass through `deposit`
                // unshifted, so rows pair up in contiguous runs of
                // `run_len` — each run is one flat, vectorizable update
                // over `run_len * L` lane values, specialized per matrix
                // form (phase products touch only the hi rows; a
                // multi-controlled X is a pure block swap).
                let run_len = fixed[0].min(pairs);
                for group in 0..pairs / run_len {
                    let i = deposit(group * run_len, &fixed) | cmask;
                    let j = i | *tmask;
                    run_update::<L>(&mut re, &mut im, i, j, run_len, &m, form);
                }
            }
            KernelOp::Unitary4 { matrix, lomask, himask } => {
                let (lomask, himask) = (*lomask, *himask);
                let fixed = [lomask, himask];
                let quads = size >> 2;
                // Same contiguous-run argument as the pair case, one level
                // up: bits below `lomask` deposit unshifted, so the four
                // local-index rows of each quad form four disjoint flat
                // runs of `run_len * L` lane values.
                let run_len = lomask.min(quads);
                let form = quad_form(matrix);
                for group in 0..quads / run_len {
                    let i0 = deposit(group * run_len, &fixed);
                    let rows = [i0, i0 | lomask, i0 | himask, i0 | himask | lomask];
                    run_update4::<L>(&mut re, &mut im, rows, run_len * L, matrix, &form);
                }
            }
            KernelOp::Swap { amask, bmask, cmask } => {
                let fixed = single_bit_masks(amask | bmask | cmask);
                let pairs = size >> fixed.len();
                for k in 0..pairs {
                    let row_i = deposit(k, &fixed) | cmask | amask;
                    let row_j = row_i ^ amask ^ bmask;
                    let (i, j) = (row_i * L, row_j * L);
                    for lane in 0..L {
                        re.swap(i + lane, j + lane);
                        im.swap(i + lane, j + lane);
                    }
                }
            }
            KernelOp::Measure { .. } | KernelOp::Reset { .. } => {
                unreachable!("is_unitary checked by the caller")
            }
        }
    }
    for (lane, column) in columns.iter_mut().enumerate() {
        column.reserve_exact(size);
        for row in 0..size {
            column.push(Complex::new(re[row * L + lane], im[row * L + lane]));
        }
    }
}

/// One 2×2 update of the `run_len` row pairs starting at rows `i < j`,
/// across all lanes: four flat slices of `run_len * L` values, specialized
/// per matrix form. `m` is the matrix as
/// `[[m00.re, m00.im, m01.re, m01.im], [m10.re, ...]]`.
#[inline]
fn run_update<const L: usize>(
    re: &mut [f64],
    im: &mut [f64],
    i: usize,
    j: usize,
    run_len: usize,
    m: &[[f64; 4]; 2],
    form: MatrixForm,
) {
    let [[m00r, m00i, m01r, m01i], [m10r, m10i, m11r, m11i]] = *m;
    let len = run_len * L;
    let (rlo, rhi) = re.split_at_mut(j * L);
    let ri = &mut rlo[i * L..i * L + len];
    let rj = &mut rhi[..len];
    let (ilo, ihi) = im.split_at_mut(j * L);
    let ii = &mut ilo[i * L..i * L + len];
    let ij = &mut ihi[..len];
    match form {
        MatrixForm::Phase => {
            for k in 0..len {
                let a1r = rj[k];
                let a1i = ij[k];
                rj[k] = m11r * a1r - m11i * a1i;
                ij[k] = m11r * a1i + m11i * a1r;
            }
        }
        MatrixForm::Diagonal => {
            for k in 0..len {
                let a0r = ri[k];
                let a0i = ii[k];
                let a1r = rj[k];
                let a1i = ij[k];
                ri[k] = m00r * a0r - m00i * a0i;
                ii[k] = m00r * a0i + m00i * a0r;
                rj[k] = m11r * a1r - m11i * a1i;
                ij[k] = m11r * a1i + m11i * a1r;
            }
        }
        MatrixForm::FlipX => {
            ri.swap_with_slice(rj);
            ii.swap_with_slice(ij);
        }
        MatrixForm::AntiDiagonal => {
            for k in 0..len {
                let a0r = ri[k];
                let a0i = ii[k];
                let a1r = rj[k];
                let a1i = ij[k];
                ri[k] = m01r * a1r - m01i * a1i;
                ii[k] = m01r * a1i + m01i * a1r;
                rj[k] = m10r * a0r - m10i * a0i;
                ij[k] = m10r * a0i + m10i * a0r;
            }
        }
        MatrixForm::General => {
            for k in 0..len {
                let a0r = ri[k];
                let a0i = ii[k];
                let a1r = rj[k];
                let a1i = ij[k];
                ri[k] = m00r * a0r - m00i * a0i + m01r * a1r - m01i * a1i;
                ii[k] = m00r * a0i + m00i * a0r + m01r * a1i + m01i * a1r;
                rj[k] = m10r * a0r - m10i * a0i + m11r * a1r - m11i * a1i;
                ij[k] = m10r * a0i + m10i * a0r + m11r * a1i + m11i * a1r;
            }
        }
    }
}

/// Splits `xs` into the four disjoint row runs of one fused quad: `len`
/// lane values starting at each of the strictly increasing `rows`.
fn four_rows<const L: usize>(xs: &mut [f64], rows: [usize; 4], len: usize) -> [&mut [f64]; 4] {
    let [r0, r1, r2, r3] = rows;
    let (a, rest) = xs[r0 * L..].split_at_mut((r1 - r0) * L);
    let (b, rest) = rest.split_at_mut((r2 - r1) * L);
    let (c, d) = rest.split_at_mut((r3 - r2) * L);
    [&mut a[..len], &mut b[..len], &mut c[..len], &mut d[..len]]
}

/// One 4×4 update of a fused-quad run across all lanes, specialized on the
/// precomputed [`QuadForm`]: diagonal products touch each row once with a
/// complex scale (skipping exact-identity entries), monomial products do
/// one multiply per value from the permuted source row, and general
/// matrices do the full 16-term accumulation with every entry hoisted into
/// registers.
fn run_update4<const L: usize>(
    re: &mut [f64],
    im: &mut [f64],
    rows: [usize; 4],
    len: usize,
    m: &Matrix4,
    form: &QuadForm,
) {
    let r = four_rows::<L>(re, rows, len);
    let i = four_rows::<L>(im, rows, len);
    match form {
        QuadForm::Diagonal(d) => {
            for (slot, (rr, ri)) in r.into_iter().zip(i).enumerate() {
                let (dr, di) = (d[slot].re, d[slot].im);
                if d[slot] == Complex::ONE {
                    continue;
                }
                for k in 0..len {
                    let (ar, ai) = (rr[k], ri[k]);
                    rr[k] = dr * ar - di * ai;
                    ri[k] = dr * ai + di * ar;
                }
            }
            return;
        }
        QuadForm::Monomial(src, scale) => {
            let [r0, r1, r2, r3] = r;
            let [i0, i1, i2, i3] = i;
            for k in 0..len {
                let ar = [r0[k], r1[k], r2[k], r3[k]];
                let ai = [i0[k], i1[k], i2[k], i3[k]];
                let out = std::array::from_fn::<_, 4, _>(|row| {
                    let (sr, si) = (scale[row].re, scale[row].im);
                    let (vr, vi) = (ar[src[row]], ai[src[row]]);
                    (sr * vr - si * vi, sr * vi + si * vr)
                });
                r0[k] = out[0].0;
                r1[k] = out[1].0;
                r2[k] = out[2].0;
                r3[k] = out[3].0;
                i0[k] = out[0].1;
                i1[k] = out[1].1;
                i2[k] = out[2].1;
                i3[k] = out[3].1;
            }
            return;
        }
        QuadForm::General => {}
    }
    let mr = m.map(|row| row.map(|e| e.re));
    let mi = m.map(|row| row.map(|e| e.im));
    let [r0, r1, r2, r3] = r;
    let [i0, i1, i2, i3] = i;
    for k in 0..len {
        let ar = [r0[k], r1[k], r2[k], r3[k]];
        let ai = [i0[k], i1[k], i2[k], i3[k]];
        let mut accr = [0.0f64; 4];
        let mut acci = [0.0f64; 4];
        for (row, (accr, acci)) in accr.iter_mut().zip(&mut acci).enumerate() {
            *accr = mr[row][0] * ar[0] - mi[row][0] * ai[0];
            *acci = mr[row][0] * ai[0] + mi[row][0] * ar[0];
            for col in 1..4 {
                *accr += mr[row][col] * ar[col] - mi[row][col] * ai[col];
                *acci += mr[row][col] * ai[col] + mi[row][col] * ar[col];
            }
        }
        r0[k] = accr[0];
        r1[k] = accr[1];
        r2[k] = accr[2];
        r3[k] = accr[3];
        i0[k] = acci[0];
        i1[k] = acci[1];
        i2[k] = acci[2];
        i3[k] = acci[3];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asdf_ir::GateKind;
    use asdf_qcircuit::{Circuit, CircuitOp};

    fn naive_columns(circuit: &Circuit, inputs: &[usize]) -> Vec<StateVector> {
        inputs
            .iter()
            .map(|&input| {
                let mut state = StateVector::basis(circuit.num_qubits, input);
                for op in circuit.ops() {
                    if let CircuitOp::Gate { gate, controls, targets } = op {
                        state.apply_naive(gate, controls, targets);
                    }
                }
                state
            })
            .collect()
    }

    fn assert_columns_exact(a: &[StateVector], b: &[StateVector]) {
        assert_eq!(a.len(), b.len());
        for (ca, cb) in a.iter().zip(b) {
            for (x, y) in ca.amplitudes().iter().zip(cb.amplitudes()) {
                assert!(x.approx_eq(*y, 1e-12), "{x} vs {y}");
            }
        }
    }

    #[test]
    fn identity_circuit_returns_basis_columns() {
        let circuit = Circuit::new(3);
        let inputs: Vec<usize> = (0..8).collect();
        let cols = batched_columns(&circuit, &inputs);
        for (input, col) in inputs.iter().zip(&cols) {
            assert!((col.probability(*input) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn batched_matches_per_column_simulation() {
        let mut c = Circuit::new(4);
        c.gate(GateKind::H, &[], &[0]);
        c.gate(GateKind::T, &[], &[1]);
        c.gate(GateKind::X, &[0], &[2]);
        c.gate(GateKind::Ry(1.234), &[], &[3]);
        c.gate(GateKind::Swap, &[1], &[2, 3]);
        c.gate(GateKind::Z, &[3, 0], &[1]);
        c.gate(GateKind::Sx, &[], &[2]);
        let inputs: Vec<usize> = (0..16).collect();
        assert_columns_exact(&batched_columns(&c, &inputs), &naive_columns(&c, &inputs));
    }

    #[test]
    fn partial_blocks_and_arbitrary_input_order() {
        // 3 columns (not a multiple of LANES), out of order and repeated.
        let mut c = Circuit::new(2);
        c.gate(GateKind::H, &[], &[0]);
        c.gate(GateKind::X, &[0], &[1]);
        let inputs = [3usize, 0, 3];
        let cols = batched_columns(&c, &inputs);
        assert_columns_exact(&cols, &naive_columns(&c, &inputs));
        assert_eq!(cols.len(), 3);
        // More columns than one block, not a multiple of LANES.
        let inputs: Vec<usize> = (0..4).chain(0..4).chain(0..3).collect();
        assert_columns_exact(&batched_columns(&c, &inputs), &naive_columns(&c, &inputs));
    }

    #[test]
    fn rejects_measuring_circuits_and_bad_inputs() {
        let mut measuring = Circuit::new(1);
        measuring.measure(0, 0);
        assert!(std::panic::catch_unwind(|| batched_columns(&measuring, &[0])).is_err());
        let unitary = Circuit::new(1);
        assert!(std::panic::catch_unwind(|| batched_columns(&unitary, &[2])).is_err());
    }
}
