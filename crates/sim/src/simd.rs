//! In-tree SIMD shim: explicit 4-lane `f64` vectors with a scalar tail.
//!
//! The build environment has no crate registry (and `std::simd` is
//! nightly-only), so this module provides the small vector surface the
//! amplitude kernels need as a portable [`F64x4`] type: a `[f64; 4]`
//! wrapper whose lane-wise arithmetic LLVM reliably lowers to vector
//! instructions on every target that has them, and to plain scalar code
//! everywhere else — the scalar fallback is the same source.
//!
//! The kernels built on it are **AoS** (array-of-structures) slice
//! kernels over `[Complex]` runs — the layout of
//! [`crate::state::StateVector`] — called by the pooled pair/quad updates
//! in [`crate::kernel`]. A 4-lane vector holds two interleaved complex
//! values; complex multiplication uses a pair-swap shuffle
//! ([`F64x4::swap_pairs`]) plus a sign-alternating coefficient vector.
//! (The batched extraction in [`crate::batch`] keeps separate re/im
//! planes and runs its own loops over them; it does not use this module.)
//!
//! Every kernel computes each output element with the **same IEEE-754
//! expression, in the same order**, whether it lands in the vector body or
//! the scalar tail, and that expression is the plain [`Complex`]
//! arithmetic of the per-pair and per-quad fallbacks in [`crate::kernel`]
//! (`m * x`, `m00 * a + m01 * b`, left-to-right row sums). The unit tests
//! below pin that equality bit for bit for every kernel; together with
//! the disjoint run partition it makes multi-threaded runs bit-identical
//! to single-threaded ones. The semantic reference for the whole path is
//! [`crate::state::StateVector::apply_naive`].
//!
//! The module also hosts the **fixed-shape chunked pairwise summation**
//! behind probability and normalization sums (`masked_norm_sqr_sum`):
//! amplitudes are cut into fixed `SUM_CHUNK`-sized leaves whose partial
//! sums are combined in a balanced binary tree. The shape depends only on
//! the input length — never on the worker count — so parallel sums are
//! bit-identical across `threads` settings, and the tree keeps the error
//! of a `2^20`-term sum near a Kahan-compensated reference instead of the
//! naive left-to-right drift.

use crate::complex::Complex;
use std::ops::{Add, Mul, Neg, Sub};
use threadpool::ThreadPool;

/// Four `f64` lanes with element-wise arithmetic.
///
/// The in-tree stand-in for `std::simd::f64x4`: operations are written
/// per-lane over a fixed-size array, which optimizing backends lower to
/// one vector instruction where available and to four scalar ones where
/// not — the scalar fallback needs no separate code path.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct F64x4([f64; 4]);

impl F64x4 {
    /// Lane count.
    pub(crate) const LANES: usize = 4;

    /// A vector with every lane set to `x`.
    #[inline]
    pub(crate) fn splat(x: f64) -> Self {
        F64x4([x; 4])
    }

    /// A vector from four lanes.
    #[inline]
    pub(crate) fn new(lanes: [f64; 4]) -> Self {
        F64x4(lanes)
    }

    /// Loads the first four elements of `xs`.
    ///
    /// # Panics
    ///
    /// Panics if `xs` has fewer than four elements.
    #[inline]
    pub(crate) fn load(xs: &[f64]) -> Self {
        F64x4([xs[0], xs[1], xs[2], xs[3]])
    }

    /// Stores the lanes into the first four elements of `out`.
    ///
    /// # Panics
    ///
    /// Panics if `out` has fewer than four elements.
    #[inline]
    pub(crate) fn store(self, out: &mut [f64]) {
        out[..4].copy_from_slice(&self.0);
    }

    /// The lanes as an array.
    #[cfg(test)]
    #[inline]
    pub(crate) fn to_array(self) -> [f64; 4] {
        self.0
    }

    /// Swaps adjacent lane pairs: `[a, b, c, d]` → `[b, a, d, c]`.
    ///
    /// With two interleaved complex values per vector, this exchanges each
    /// value's real and imaginary lanes — the shuffle complex
    /// multiplication needs.
    #[inline]
    pub(crate) fn swap_pairs(self) -> Self {
        let [a, b, c, d] = self.0;
        F64x4([b, a, d, c])
    }

    /// Swaps the lane halves: `[a, b, c, d]` → `[c, d, a, b]`.
    ///
    /// With two interleaved complex values per vector, this exchanges the
    /// two values — the shuffle of the interleaved anti-diagonal kernel.
    #[inline]
    pub(crate) fn swap_halves(self) -> Self {
        let [a, b, c, d] = self.0;
        F64x4([c, d, a, b])
    }

    /// Broadcasts the low lane pair: `[a, b, c, d]` → `[a, b, a, b]`.
    #[inline]
    pub(crate) fn dup_lo(self) -> Self {
        let [a, b, _, _] = self.0;
        F64x4([a, b, a, b])
    }

    /// Broadcasts the high lane pair: `[a, b, c, d]` → `[c, d, c, d]`.
    #[inline]
    pub(crate) fn dup_hi(self) -> Self {
        let [_, _, c, d] = self.0;
        F64x4([c, d, c, d])
    }

    /// The balanced-tree horizontal sum `(l0 + l1) + (l2 + l3)`.
    ///
    /// The reduction shape is fixed, so sums built on it are reproducible
    /// bit-for-bit.
    #[inline]
    pub(crate) fn reduce_sum(self) -> f64 {
        let [a, b, c, d] = self.0;
        (a + b) + (c + d)
    }
}

impl Add for F64x4 {
    type Output = F64x4;
    #[inline]
    fn add(self, rhs: F64x4) -> F64x4 {
        let (a, b) = (self.0, rhs.0);
        F64x4([a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3]])
    }
}

impl Sub for F64x4 {
    type Output = F64x4;
    #[inline]
    fn sub(self, rhs: F64x4) -> F64x4 {
        let (a, b) = (self.0, rhs.0);
        F64x4([a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3]])
    }
}

impl Mul for F64x4 {
    type Output = F64x4;
    #[inline]
    fn mul(self, rhs: F64x4) -> F64x4 {
        let (a, b) = (self.0, rhs.0);
        F64x4([a[0] * b[0], a[1] * b[1], a[2] * b[2], a[3] * b[3]])
    }
}

impl Neg for F64x4 {
    type Output = F64x4;
    #[inline]
    fn neg(self) -> F64x4 {
        let a = self.0;
        F64x4([-a[0], -a[1], -a[2], -a[3]])
    }
}

/// Views a complex run as its interleaved `[re, im, ...]` `f64` lanes.
#[inline]
fn lanes_mut(xs: &mut [Complex]) -> &mut [f64] {
    // SAFETY: `Complex` is `#[repr(C)] { re: f64, im: f64 }` with no
    // padding, so `n` contiguous `Complex` are exactly `2n` contiguous
    // `f64`s; the lifetime and mutability are inherited from `xs`.
    unsafe { std::slice::from_raw_parts_mut(xs.as_mut_ptr().cast::<f64>(), xs.len() * 2) }
}

/// The coefficient vectors of one complex scalar `m` for interleaved
/// lanes: `(splat(m.re), [-m.im, m.im, -m.im, m.im])`, such that
/// `v * rr + v.swap_pairs() * ii` is the complex product `m * v` with
/// each part computed as `m.re*x.re + (-(m.im)*x.im)` — bit-identical to
/// the scalar `Complex` multiply `m * x`.
#[inline]
fn coeff(m: Complex) -> (F64x4, F64x4) {
    (F64x4::splat(m.re), F64x4::new([-m.im, m.im, -m.im, m.im]))
}

/// `x *= m` over a complex run (the Phase / Diagonal / bulk-scale kernel).
#[inline]
pub(crate) fn cmul_run(xs: &mut [Complex], m: Complex) {
    let (rr, ii) = coeff(m);
    let lanes = lanes_mut(xs);
    let mut chunks = lanes.chunks_exact_mut(F64x4::LANES);
    for chunk in &mut chunks {
        let v = F64x4::load(chunk);
        (v * rr + v.swap_pairs() * ii).store(chunk);
    }
    if let [re, im] = chunks.into_remainder() {
        let (r0, i0) = (*re, *im);
        *re = m.re * r0 + -m.im * i0;
        *im = m.re * i0 + m.im * r0;
    }
}

/// `x *= k` over a complex run for a real factor `k` (collapse
/// renormalization).
#[inline]
pub(crate) fn scale_run(xs: &mut [Complex], k: f64) {
    let kk = F64x4::splat(k);
    let lanes = lanes_mut(xs);
    let mut chunks = lanes.chunks_exact_mut(F64x4::LANES);
    for chunk in &mut chunks {
        (F64x4::load(chunk) * kk).store(chunk);
    }
    for lane in chunks.into_remainder() {
        *lane *= k;
    }
}

/// Zeroes a complex run (the discarded branch of a collapse).
#[inline]
pub(crate) fn zero_run(xs: &mut [Complex]) {
    xs.fill(Complex::ZERO);
}

/// The general 2×2 pair update over two equal-length complex runs:
/// `(a, b) ← (m00*a + m01*b, m10*a + m11*b)` element-wise.
#[inline]
pub(crate) fn pair_general_run(
    lo: &mut [Complex],
    hi: &mut [Complex],
    m00: Complex,
    m01: Complex,
    m10: Complex,
    m11: Complex,
) {
    debug_assert_eq!(lo.len(), hi.len());
    let (rr00, ii00) = coeff(m00);
    let (rr01, ii01) = coeff(m01);
    let (rr10, ii10) = coeff(m10);
    let (rr11, ii11) = coeff(m11);
    let lo = lanes_mut(lo);
    let hi = lanes_mut(hi);
    let mut lo_chunks = lo.chunks_exact_mut(F64x4::LANES);
    let mut hi_chunks = hi.chunks_exact_mut(F64x4::LANES);
    for (cl, ch) in (&mut lo_chunks).zip(&mut hi_chunks) {
        let a = F64x4::load(cl);
        let b = F64x4::load(ch);
        let (sa, sb) = (a.swap_pairs(), b.swap_pairs());
        ((a * rr00 + sa * ii00) + (b * rr01 + sb * ii01)).store(cl);
        ((a * rr10 + sa * ii10) + (b * rr11 + sb * ii11)).store(ch);
    }
    if let ([ar, ai], [br, bi]) = (lo_chunks.into_remainder(), hi_chunks.into_remainder()) {
        let (a0r, a0i, a1r, a1i) = (*ar, *ai, *br, *bi);
        *ar = (m00.re * a0r + -m00.im * a0i) + (m01.re * a1r + -m01.im * a1i);
        *ai = (m00.re * a0i + m00.im * a0r) + (m01.re * a1i + m01.im * a1r);
        *br = (m10.re * a0r + -m10.im * a0i) + (m11.re * a1r + -m11.im * a1i);
        *bi = (m10.re * a0i + m10.im * a0r) + (m11.re * a1i + m11.im * a1r);
    }
}

/// The anti-diagonal 2×2 pair update: `(a, b) ← (m01*b, m10*a)`.
#[inline]
pub(crate) fn pair_antidiagonal_run(
    lo: &mut [Complex],
    hi: &mut [Complex],
    m01: Complex,
    m10: Complex,
) {
    debug_assert_eq!(lo.len(), hi.len());
    let (rr01, ii01) = coeff(m01);
    let (rr10, ii10) = coeff(m10);
    let lo = lanes_mut(lo);
    let hi = lanes_mut(hi);
    let mut lo_chunks = lo.chunks_exact_mut(F64x4::LANES);
    let mut hi_chunks = hi.chunks_exact_mut(F64x4::LANES);
    for (cl, ch) in (&mut lo_chunks).zip(&mut hi_chunks) {
        let a = F64x4::load(cl);
        let b = F64x4::load(ch);
        (b * rr01 + b.swap_pairs() * ii01).store(cl);
        (a * rr10 + a.swap_pairs() * ii10).store(ch);
    }
    if let ([ar, ai], [br, bi]) = (lo_chunks.into_remainder(), hi_chunks.into_remainder()) {
        let (a0r, a0i, a1r, a1i) = (*ar, *ai, *br, *bi);
        *ar = m01.re * a1r + -m01.im * a1i;
        *ai = m01.re * a1i + m01.im * a1r;
        *br = m10.re * a0r + -m10.im * a0i;
        *bi = m10.re * a0i + m10.im * a0r;
    }
}

/// The general 4×4 quad update over four equal-length complex runs:
/// `a_r ← Σ_c m[r][c] * a_c`, accumulated left to right.
#[inline]
pub(crate) fn quad_general_run(rows: [&mut [Complex]; 4], m: &[[Complex; 4]; 4]) {
    let [r0, r1, r2, r3] = rows;
    debug_assert!(r0.len() == r1.len() && r1.len() == r2.len() && r2.len() == r3.len());
    let coeffs: [[(F64x4, F64x4); 4]; 4] = m.map(|row| row.map(coeff));
    let l0 = lanes_mut(r0);
    let l1 = lanes_mut(r1);
    let l2 = lanes_mut(r2);
    let l3 = lanes_mut(r3);
    let mut c0 = l0.chunks_exact_mut(F64x4::LANES);
    let mut c1 = l1.chunks_exact_mut(F64x4::LANES);
    let mut c2 = l2.chunks_exact_mut(F64x4::LANES);
    let mut c3 = l3.chunks_exact_mut(F64x4::LANES);
    while let (Some(k0), Some(k1), Some(k2), Some(k3)) =
        (c0.next(), c1.next(), c2.next(), c3.next())
    {
        // Column-outer accumulation keeps the live set small (four
        // accumulators plus one input and its shuffle); the coefficient
        // pairs are re-read from the L1-resident `coeffs` array instead of
        // pinning 32 vectors in registers. The per-output expression is
        // the same left-to-right sum `((t0 + t1) + t2) + t3` as the
        // scalar quad loop.
        let mut acc = [F64x4::default(); 4];
        let ks: [&[f64]; 4] = [&*k0, &*k1, &*k2, &*k3];
        for (c, k) in ks.into_iter().enumerate() {
            let a = F64x4::load(k);
            let s = a.swap_pairs();
            for (r, acc) in acc.iter_mut().enumerate() {
                let (rr, ii) = coeffs[r][c];
                let term = a * rr + s * ii;
                *acc = if c == 0 { term } else { *acc + term };
            }
        }
        acc[0].store(k0);
        acc[1].store(k1);
        acc[2].store(k2);
        acc[3].store(k3);
    }
    if let ([x0r, x0i], [x1r, x1i], [x2r, x2i], [x3r, x3i]) =
        (c0.into_remainder(), c1.into_remainder(), c2.into_remainder(), c3.into_remainder())
    {
        let re = [*x0r, *x1r, *x2r, *x3r];
        let im = [*x0i, *x1i, *x2i, *x3i];
        let mut out = [(0.0f64, 0.0f64); 4];
        for (r, slot) in out.iter_mut().enumerate() {
            let mut ar = m[r][0].re * re[0] + -m[r][0].im * im[0];
            let mut ai = m[r][0].re * im[0] + m[r][0].im * re[0];
            for c in 1..4 {
                ar += m[r][c].re * re[c] + -m[r][c].im * im[c];
                ai += m[r][c].re * im[c] + m[r][c].im * re[c];
            }
            *slot = (ar, ai);
        }
        (*x0r, *x0i) = out[0];
        (*x1r, *x1i) = out[1];
        (*x2r, *x2i) = out[2];
        (*x3r, *x3i) = out[3];
    }
}

/// The monomial (generalized-permutation) 4×4 quad update over four
/// equal-length complex runs: `a_r ← scale[r] * a_src[r]` — one complex
/// multiply per amplitude, like a diagonal, regardless of the permutation.
/// All four inputs are loaded before any store, so `src` may permute rows
/// freely.
#[inline]
pub(crate) fn quad_monomial_run(rows: [&mut [Complex]; 4], src: [usize; 4], scale: [Complex; 4]) {
    let [r0, r1, r2, r3] = rows;
    debug_assert!(r0.len() == r1.len() && r1.len() == r2.len() && r2.len() == r3.len());
    let coeffs: [(F64x4, F64x4); 4] = scale.map(coeff);
    let l0 = lanes_mut(r0);
    let l1 = lanes_mut(r1);
    let l2 = lanes_mut(r2);
    let l3 = lanes_mut(r3);
    let mut c0 = l0.chunks_exact_mut(F64x4::LANES);
    let mut c1 = l1.chunks_exact_mut(F64x4::LANES);
    let mut c2 = l2.chunks_exact_mut(F64x4::LANES);
    let mut c3 = l3.chunks_exact_mut(F64x4::LANES);
    while let (Some(k0), Some(k1), Some(k2), Some(k3)) =
        (c0.next(), c1.next(), c2.next(), c3.next())
    {
        let a = [F64x4::load(k0), F64x4::load(k1), F64x4::load(k2), F64x4::load(k3)];
        let out = std::array::from_fn::<_, 4, _>(|r| {
            let v = a[src[r]];
            let (rr, ii) = coeffs[r];
            v * rr + v.swap_pairs() * ii
        });
        out[0].store(k0);
        out[1].store(k1);
        out[2].store(k2);
        out[3].store(k3);
    }
    if let ([x0r, x0i], [x1r, x1i], [x2r, x2i], [x3r, x3i]) =
        (c0.into_remainder(), c1.into_remainder(), c2.into_remainder(), c3.into_remainder())
    {
        let re = [*x0r, *x1r, *x2r, *x3r];
        let im = [*x0i, *x1i, *x2i, *x3i];
        let out = std::array::from_fn::<_, 4, _>(|r| {
            let (vr, vi) = (re[src[r]], im[src[r]]);
            let m = scale[r];
            (m.re * vr + -m.im * vi, m.re * vi + m.im * vr)
        });
        (*x0r, *x0i) = out[0];
        (*x1r, *x1i) = out[1];
        (*x2r, *x2i) = out[2];
        (*x3r, *x3i) = out[3];
    }
}

/// The per-pair coefficient vectors for one interleaved (lo, hi) couple:
/// `m_lo` acts on lanes 0–1, `m_hi` on lanes 2–3.
#[inline]
fn pair_coeff(m_lo: Complex, m_hi: Complex) -> (F64x4, F64x4) {
    (
        F64x4::new([m_lo.re, m_lo.re, m_hi.re, m_hi.re]),
        F64x4::new([-m_lo.im, m_lo.im, -m_hi.im, m_hi.im]),
    )
}

/// Diagonal 2×2 update over **interleaved pairs** — the layout when the
/// target is the least significant index bit, so each pair `(lo, hi)`
/// occupies one 4-lane vector: `(lo, hi) ← (m00*lo, m11*hi)`.
///
/// `xs` holds the pairs back to back; its length is even.
#[inline]
pub(crate) fn interleaved_diag_run(xs: &mut [Complex], m00: Complex, m11: Complex) {
    debug_assert_eq!(xs.len() % 2, 0);
    let (rr, ii) = pair_coeff(m00, m11);
    for chunk in lanes_mut(xs).chunks_exact_mut(F64x4::LANES) {
        let v = F64x4::load(chunk);
        (v * rr + v.swap_pairs() * ii).store(chunk);
    }
}

/// Anti-diagonal 2×2 update over interleaved pairs:
/// `(lo, hi) ← (m01*hi, m10*lo)`.
#[inline]
pub(crate) fn interleaved_antidiag_run(xs: &mut [Complex], m01: Complex, m10: Complex) {
    debug_assert_eq!(xs.len() % 2, 0);
    let (rr, ii) = pair_coeff(m01, m10);
    for chunk in lanes_mut(xs).chunks_exact_mut(F64x4::LANES) {
        let v = F64x4::load(chunk).swap_halves();
        (v * rr + v.swap_pairs() * ii).store(chunk);
    }
}

/// General 2×2 update over interleaved pairs:
/// `(lo, hi) ← (m00*lo + m01*hi, m10*lo + m11*hi)`.
#[inline]
pub(crate) fn interleaved_general_run(
    xs: &mut [Complex],
    m00: Complex,
    m01: Complex,
    m10: Complex,
    m11: Complex,
) {
    debug_assert_eq!(xs.len() % 2, 0);
    let (rr_a, ii_a) = pair_coeff(m00, m10);
    let (rr_b, ii_b) = pair_coeff(m01, m11);
    for chunk in lanes_mut(xs).chunks_exact_mut(F64x4::LANES) {
        let v = F64x4::load(chunk);
        let va = v.dup_lo();
        let vb = v.dup_hi();
        ((va * rr_a + va.swap_pairs() * ii_a) + (vb * rr_b + vb.swap_pairs() * ii_b)).store(chunk);
    }
}

/// Complex amplitudes per pairwise-summation leaf. A power of two, so a
/// leaf is either entirely inside or entirely outside any single-bit-mask
/// branch whose mask reaches past the leaf size.
pub(crate) const SUM_CHUNK: usize = 1 << 12;

/// Amplitude count at or above which probability sums use the pool.
pub(crate) const PARALLEL_SUM_MIN: usize = 1 << 16;

/// Reduces leaf partial sums in a balanced binary tree (adjacent pairs per
/// level). The tree shape is a function of `partials.len()` alone.
fn pairwise_reduce(mut partials: Vec<f64>) -> f64 {
    while partials.len() > 1 {
        let mut next = Vec::with_capacity(partials.len().div_ceil(2));
        for pair in partials.chunks(2) {
            next.push(if pair.len() == 2 { pair[0] + pair[1] } else { pair[0] });
        }
        partials = next;
    }
    partials.first().copied().unwrap_or(0.0)
}

/// One leaf's unmasked probability mass: `Σ |amp|²` over up to
/// [`SUM_CHUNK`] amplitudes, as four lane accumulators combined by the
/// fixed [`F64x4::reduce_sum`] tree plus a left-to-right scalar tail.
fn chunk_norm_sqr(amps: &[Complex]) -> f64 {
    let lanes = {
        // SAFETY: same layout argument as `lanes_mut`, read-only.
        unsafe { std::slice::from_raw_parts(amps.as_ptr().cast::<f64>(), amps.len() * 2) }
    };
    let mut acc = F64x4::splat(0.0);
    let mut chunks = lanes.chunks_exact(F64x4::LANES);
    for chunk in &mut chunks {
        let v = F64x4::load(chunk);
        acc = acc + v * v;
    }
    let mut sum = acc.reduce_sum();
    for &lane in chunks.remainder() {
        sum += lane * lane;
    }
    sum
}

/// One leaf's masked probability mass: `Σ |amp|²` over the amplitudes in
/// the leaf whose global index `i` satisfies `(i & mask != 0) == want`,
/// accumulated left to right (a fixed shape per `(base, len, mask)`).
fn chunk_norm_sqr_masked(amps: &[Complex], base: usize, mask: usize, want: bool) -> f64 {
    let mut sum = 0.0;
    for (offset, amp) in amps.iter().enumerate() {
        if ((base + offset) & mask != 0) == want {
            sum += amp.norm_sqr();
        }
    }
    sum
}

/// The probability mass of `amps` restricted to indices `i` with
/// `(i & mask != 0) == want` (`mask == 0, want == false` sums every
/// amplitude), as a fixed-shape chunked pairwise sum.
///
/// The summation tree is determined entirely by `amps.len()` and `mask`:
/// leaves are [`SUM_CHUNK`]-aligned slices summed in index order, combined
/// pairwise. Workers only compute disjoint leaves, so the result is
/// **bit-identical for every worker count** — and far more precision-
/// stable at `2^20+` amplitudes than a naive left-to-right sum.
pub(crate) fn masked_norm_sqr_sum(
    amps: &[Complex],
    mask: usize,
    want: bool,
    pool: &ThreadPool,
) -> f64 {
    if amps.is_empty() {
        return 0.0;
    }
    let num_leaves = amps.len().div_ceil(SUM_CHUNK);
    let leaf = |index: usize| -> f64 {
        let start = index * SUM_CHUNK;
        let slice = &amps[start..amps.len().min(start + SUM_CHUNK)];
        if mask == 0 {
            if want {
                0.0
            } else {
                chunk_norm_sqr(slice)
            }
        } else if mask & (SUM_CHUNK - 1) == 0 && start.is_multiple_of(SUM_CHUNK) {
            // Every mask bit reaches past the leaf: the whole leaf sits on
            // one side of the branch.
            if (start & mask != 0) == want {
                chunk_norm_sqr(slice)
            } else {
                0.0
            }
        } else {
            chunk_norm_sqr_masked(slice, start, mask, want)
        }
    };
    let mut partials = vec![0.0f64; num_leaves];
    if pool.workers() > 1 && amps.len() >= PARALLEL_SUM_MIN {
        pool.for_each_chunk(&mut partials, 1, |index, slot| slot[0] = leaf(index));
    } else {
        for (index, slot) in partials.iter_mut().enumerate() {
            *slot = leaf(index);
        }
    }
    pairwise_reduce(partials)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_arithmetic() {
        let a = F64x4::new([1.0, 2.0, 3.0, 4.0]);
        let b = F64x4::splat(2.0);
        assert_eq!((a + b).to_array(), [3.0, 4.0, 5.0, 6.0]);
        assert_eq!((a - b).to_array(), [-1.0, 0.0, 1.0, 2.0]);
        assert_eq!((a * b).to_array(), [2.0, 4.0, 6.0, 8.0]);
        assert_eq!((-a).to_array(), [-1.0, -2.0, -3.0, -4.0]);
        assert_eq!(a.swap_pairs().to_array(), [2.0, 1.0, 4.0, 3.0]);
        assert_eq!(a.reduce_sum(), 10.0);
    }

    #[test]
    fn load_store_roundtrip() {
        let xs = [1.5, -2.5, 3.5, -4.5, 9.0];
        let v = F64x4::load(&xs);
        let mut out = [0.0; 4];
        v.store(&mut out);
        assert_eq!(out, [1.5, -2.5, 3.5, -4.5]);
    }

    #[test]
    fn cmul_run_matches_scalar_complex_multiply_exactly() {
        let m = Complex::new(0.6, -0.8);
        // 7 complex values: one full vector (2 values × 2 vectors), one
        // half-vector, one scalar tail.
        let mut run: Vec<Complex> =
            (0..7).map(|k| Complex::new(0.1 + k as f64 * 0.3, -0.2 + k as f64 * 0.11)).collect();
        let reference: Vec<Complex> = run.iter().map(|&x| m * x).collect();
        cmul_run(&mut run, m);
        assert_eq!(run, reference, "bit-identical to the scalar Complex multiply");
    }

    #[test]
    fn pair_general_run_matches_scalar_pair_update_exactly() {
        let (m00, m01) = (Complex::new(0.3, 0.4), Complex::new(-0.1, 0.9));
        let (m10, m11) = (Complex::new(0.7, -0.2), Complex::new(0.5, 0.5));
        let mut lo: Vec<Complex> =
            (0..5).map(|k| Complex::new(k as f64 * 0.21, 1.0 - k as f64 * 0.17)).collect();
        let mut hi: Vec<Complex> =
            (0..5).map(|k| Complex::new(-0.4 + k as f64 * 0.13, k as f64 * 0.07)).collect();
        let reference: Vec<(Complex, Complex)> =
            lo.iter().zip(&hi).map(|(&a, &b)| (m00 * a + m01 * b, m10 * a + m11 * b)).collect();
        pair_general_run(&mut lo, &mut hi, m00, m01, m10, m11);
        for (k, (ra, rb)) in reference.into_iter().enumerate() {
            assert_eq!(lo[k], ra, "lo[{k}]");
            assert_eq!(hi[k], rb, "hi[{k}]");
        }
    }

    /// `len` distinct complex values with no zero or unit parts.
    fn sample_run(len: usize, salt: f64) -> Vec<Complex> {
        (0..len)
            .map(|k| Complex::new(salt + k as f64 * 0.21, 1.0 - salt - k as f64 * 0.17))
            .collect()
    }

    #[test]
    fn pair_antidiagonal_run_matches_scalar_pair_update_exactly() {
        let (m01, m10) = (Complex::new(-0.1, 0.9), Complex::new(0.7, -0.2));
        // 5 values per run: two full vectors and a scalar tail.
        let (mut lo, mut hi) = (sample_run(5, 0.05), sample_run(5, -0.4));
        let reference: Vec<(Complex, Complex)> =
            lo.iter().zip(&hi).map(|(&a, &b)| (m01 * b, m10 * a)).collect();
        pair_antidiagonal_run(&mut lo, &mut hi, m01, m10);
        for (k, (ra, rb)) in reference.into_iter().enumerate() {
            assert_eq!(lo[k], ra, "lo[{k}]");
            assert_eq!(hi[k], rb, "hi[{k}]");
        }
    }

    /// The interleaved kernels take back-to-back `(lo, hi)` couples; every
    /// couple fills exactly one vector, so they have no scalar tail.
    #[test]
    fn interleaved_runs_match_scalar_pair_updates_exactly() {
        let (m00, m01) = (Complex::new(0.3, 0.4), Complex::new(-0.1, 0.9));
        let (m10, m11) = (Complex::new(0.7, -0.2), Complex::new(0.5, 0.5));
        let input = sample_run(6, 0.12);
        let expect = |update: &dyn Fn(Complex, Complex) -> (Complex, Complex)| -> Vec<Complex> {
            input.chunks(2).flat_map(|p| <[Complex; 2]>::from(update(p[0], p[1]))).collect()
        };

        let mut xs = input.clone();
        interleaved_diag_run(&mut xs, m00, m11);
        assert_eq!(xs, expect(&|a, b| (m00 * a, m11 * b)), "diag");

        let mut xs = input.clone();
        interleaved_antidiag_run(&mut xs, m01, m10);
        assert_eq!(xs, expect(&|a, b| (m01 * b, m10 * a)), "antidiag");

        let mut xs = input.clone();
        interleaved_general_run(&mut xs, m00, m01, m10, m11);
        assert_eq!(xs, expect(&|a, b| (m00 * a + m01 * b, m10 * a + m11 * b)), "general");
    }

    #[test]
    fn quad_runs_match_scalar_quad_updates_exactly() {
        let m: [[Complex; 4]; 4] = std::array::from_fn(|r| {
            std::array::from_fn(|c| {
                let k = (4 * r + c) as f64;
                Complex::new(0.1 + 0.13 * k, 0.3 - 0.07 * k)
            })
        });
        // 5 values per run: two full vectors and a scalar tail.
        let input: [Vec<Complex>; 4] = std::array::from_fn(|r| sample_run(5, 0.1 * r as f64));
        let apply = |kernel: &dyn Fn([&mut [Complex]; 4])| -> [Vec<Complex>; 4] {
            let mut rows = input.clone();
            let [r0, r1, r2, r3] = &mut rows;
            kernel([r0, r1, r2, r3]);
            rows
        };
        // Output row `r`, element `k`, from the k-th input column `a`.
        let expect = |row: &dyn Fn(usize, [Complex; 4]) -> Complex| -> [Vec<Complex>; 4] {
            std::array::from_fn(|r| {
                (0..5).map(|k| row(r, std::array::from_fn(|c| input[c][k]))).collect()
            })
        };

        let general = apply(&|rows| quad_general_run(rows, &m));
        let sum_rows = |r: usize, a: [Complex; 4]| {
            let mut acc = m[r][0] * a[0];
            for c in 1..4 {
                acc += m[r][c] * a[c];
            }
            acc
        };
        assert_eq!(general, expect(&sum_rows), "general");

        let src = [2, 0, 3, 1];
        let scale = [m[0][1], m[1][2], m[2][3], m[3][0]];
        let monomial = apply(&|rows| quad_monomial_run(rows, src, scale));
        assert_eq!(monomial, expect(&|r, a| scale[r] * a[src[r]]), "monomial");
    }

    #[test]
    fn pairwise_reduce_is_a_fixed_tree() {
        assert_eq!(pairwise_reduce(vec![]), 0.0);
        assert_eq!(pairwise_reduce(vec![3.5]), 3.5);
        assert_eq!(pairwise_reduce(vec![1.0, 2.0, 3.0]), (1.0 + 2.0) + 3.0);
        assert_eq!(
            pairwise_reduce(vec![1.0, 2.0, 3.0, 4.0, 5.0]),
            ((1.0 + 2.0) + (3.0 + 4.0)) + 5.0
        );
    }

    #[test]
    fn masked_sum_selects_the_right_branch() {
        // 8 amplitudes, mask on bit 2 (value 4): indices 4..8 are the
        // `want = true` branch.
        let amps: Vec<Complex> = (0..8).map(|k| Complex::new((k + 1) as f64, 0.0)).collect();
        let pool = ThreadPool::new(1);
        let ones = masked_norm_sqr_sum(&amps, 4, true, &pool);
        let zeros = masked_norm_sqr_sum(&amps, 4, false, &pool);
        let all = masked_norm_sqr_sum(&amps, 0, false, &pool);
        assert_eq!(ones, 25.0 + 36.0 + 49.0 + 64.0);
        assert_eq!(zeros, 1.0 + 4.0 + 9.0 + 16.0);
        assert_eq!(all, ones + zeros);
    }

    /// Regression for the naive left-to-right probability sums this module
    /// replaced: on a state with one dominant amplitude, a running scalar
    /// accumulator drops every subsequent small term, while the chunked
    /// pairwise tree stays within a hair of a compensated (Kahan)
    /// reference.
    #[test]
    fn pairwise_sum_tracks_kahan_on_adversarial_magnitudes() {
        let n = 1usize << 17;
        let mut amps = vec![Complex::new(1.0, 0.0); n];
        amps[0] = Complex::new(1e8, 0.0); // norm_sqr = 1e16: eps is ~2.0 there
        let pairwise = masked_norm_sqr_sum(&amps, 0, false, &ThreadPool::new(1));
        let naive: f64 = amps.iter().map(|a| a.norm_sqr()).fold(0.0, |acc, x| acc + x);
        let (mut kahan, mut carry) = (0.0f64, 0.0f64);
        for a in &amps {
            let y = a.norm_sqr() - carry;
            let t = kahan + y;
            carry = (t - kahan) - y;
            kahan = t;
        }
        let naive_err = (naive - kahan).abs();
        let pairwise_err = (pairwise - kahan).abs();
        // The naive sum loses every one of the n-1 unit terms.
        assert!(naive_err > (n / 2) as f64, "naive error {naive_err}");
        assert!(pairwise_err <= naive_err / 64.0, "pairwise {pairwise_err} vs naive {naive_err}");
        assert!(pairwise_err / kahan <= 1e-12, "relative pairwise error {}", pairwise_err / kahan);
    }

    #[test]
    fn masked_sum_is_bit_identical_across_worker_counts() {
        // Big enough to exceed PARALLEL_SUM_MIN and cover many leaves,
        // with magnitudes spread over several orders so ordering matters.
        let amps: Vec<Complex> = (0..(1usize << 17))
            .map(|k| {
                let x = (k as f64 * 0.001).sin() * (1.0 + (k % 97) as f64);
                Complex::new(x * 1e-6_f64.powi((k % 3) as i32), -x * 0.5)
            })
            .collect();
        let mask = 1usize << 9;
        let serial = masked_norm_sqr_sum(&amps, mask, true, &ThreadPool::new(1));
        for workers in [2, 3, 4, 8] {
            let parallel = masked_norm_sqr_sum(&amps, mask, true, &ThreadPool::new(workers));
            assert_eq!(serial.to_bits(), parallel.to_bits(), "workers={workers}");
        }
    }
}
