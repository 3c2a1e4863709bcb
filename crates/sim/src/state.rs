//! Dense state vectors and gate application.

use crate::complex::Complex;
use crate::kernel;
use crate::simd;
use asdf_ir::GateKind;
use threadpool::ThreadPool;

/// The largest simulable register: `2^26` amplitudes (1 GiB of `Complex`).
pub const MAX_QUBITS: usize = 26;

/// The amplitude count for `num_qubits`, after enforcing [`MAX_QUBITS`].
/// Every amplitude-sized allocation in the crate (state vectors, batched
/// SoA planes) sizes itself through this one checked constructor, so the
/// cap cannot be bypassed by a new buffer site.
///
/// # Panics
///
/// Panics if `num_qubits > MAX_QUBITS` — before anything is allocated.
pub fn checked_amplitude_count(num_qubits: usize) -> usize {
    assert!(
        num_qubits <= MAX_QUBITS,
        "state vector too large: {num_qubits} qubits (max {MAX_QUBITS})"
    );
    1usize << num_qubits
}

/// A pure state of `n` qubits as `2^n` amplitudes.
///
/// Qubit 0 is the most significant bit of the amplitude index (matching
/// the eigenbit convention of `asdf-basis`).
#[derive(Debug, Clone, PartialEq)]
pub struct StateVector {
    num_qubits: usize,
    amps: Vec<Complex>,
}

impl StateVector {
    /// The all-zeros state |0...0>.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits > ` [`MAX_QUBITS`] (the vector would not fit
    /// in memory).
    pub fn zero(num_qubits: usize) -> Self {
        let mut amps = vec![Complex::ZERO; checked_amplitude_count(num_qubits)];
        amps[0] = Complex::ONE;
        StateVector { num_qubits, amps }
    }

    /// A computational basis state.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    pub fn basis(num_qubits: usize, index: usize) -> Self {
        let mut s = StateVector::zero(num_qubits);
        assert!(index < s.amps.len(), "basis index out of range");
        s.amps[0] = Complex::ZERO;
        s.amps[index] = Complex::ONE;
        s
    }

    /// A state from raw amplitudes (callers keep them normalized). Used by
    /// the batched extraction kernels and by tests that need exact
    /// amplitude control.
    ///
    /// # Panics
    ///
    /// Panics if the length is not a power of two or exceeds 2^26.
    pub(crate) fn from_amplitudes(amps: Vec<Complex>) -> Self {
        assert!(amps.len().is_power_of_two(), "amplitude count {} not a power of two", amps.len());
        let num_qubits = amps.len().trailing_zeros() as usize;
        checked_amplitude_count(num_qubits);
        StateVector { num_qubits, amps }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The amplitudes.
    pub fn amplitudes(&self) -> &[Complex] {
        &self.amps
    }

    /// Mutable amplitude access for the in-crate kernels.
    pub(crate) fn amps_mut(&mut self) -> &mut [Complex] {
        &mut self.amps
    }

    /// The probability of measuring basis state `index`.
    pub fn probability(&self, index: usize) -> f64 {
        self.amps[index].norm_sqr()
    }

    fn qubit_mask(&self, qubit: usize) -> usize {
        assert!(qubit < self.num_qubits, "qubit {qubit} out of range");
        1usize << (self.num_qubits - 1 - qubit)
    }

    /// Validates controls/targets and returns the OR'd control mask.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range qubits or any duplicate across controls and
    /// targets (a duplicated control would otherwise silently satisfy the
    /// mask check with the wrong bit).
    fn checked_cmask(&self, controls: &[usize], targets: &[usize]) -> usize {
        let mut seen = 0usize;
        let mut cmask = 0usize;
        for &c in controls {
            let m = self.qubit_mask(c);
            assert!(seen & m == 0, "duplicate qubit {c} in gate");
            seen |= m;
            cmask |= m;
        }
        for &t in targets {
            let m = self.qubit_mask(t);
            assert!(seen & m == 0, "duplicate qubit {t} in gate");
            seen |= m;
        }
        cmask
    }

    /// Applies a (possibly controlled) gate using the stride-based kernels
    /// of `crate::kernel`: only the `2^(n-1-#controls)` amplitude pairs
    /// satisfying the control mask are visited.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range or duplicated qubits.
    pub fn apply(&mut self, gate: GateKind, controls: &[usize], targets: &[usize]) {
        assert_eq!(targets.len(), gate.num_targets(), "target arity");
        let cmask = self.checked_cmask(controls, targets);
        match gate {
            GateKind::Swap => {
                let (a, b) = (self.qubit_mask(targets[0]), self.qubit_mask(targets[1]));
                kernel::apply_swap(&mut self.amps, a, b, cmask);
            }
            single => {
                let t = self.qubit_mask(targets[0]);
                kernel::apply_unitary(&mut self.amps, &kernel::matrix_1q(single), t, cmask);
            }
        }
    }

    /// The original scan-and-branch gate application: visits all `2^n`
    /// indices and tests each against the target/control masks. Retained
    /// as the reference implementation the stride kernels are
    /// differentially tested (and benchmarked) against.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range or duplicated qubits.
    pub fn apply_naive(&mut self, gate: GateKind, controls: &[usize], targets: &[usize]) {
        assert_eq!(targets.len(), gate.num_targets(), "target arity");
        let cmask = self.checked_cmask(controls, targets);
        match gate {
            GateKind::Swap => {
                let (a, b) = (self.qubit_mask(targets[0]), self.qubit_mask(targets[1]));
                let size = self.amps.len();
                for i in 0..size {
                    // Swap |..a=1,b=0..> with |..a=0,b=1..> once.
                    if i & cmask == cmask && i & a != 0 && i & b == 0 {
                        let j = (i & !a) | b;
                        self.amps.swap(i, j);
                    }
                }
            }
            single => {
                let [[m00, m01], [m10, m11]] = kernel::matrix_1q(single);
                let t = self.qubit_mask(targets[0]);
                let size = self.amps.len();
                for i in 0..size {
                    // Visit each (|..0..>, |..1..>) pair once via its lower
                    // index, applying only where controls are satisfied.
                    if i & t == 0 && i & cmask == cmask {
                        let j = i | t;
                        let a0 = self.amps[i];
                        let a1 = self.amps[j];
                        self.amps[i] = m00 * a0 + m01 * a1;
                        self.amps[j] = m10 * a0 + m11 * a1;
                    }
                }
            }
        }
    }

    /// The probability that `qubit` measures 1, as a fixed-shape chunked
    /// pairwise sum (`crate::simd::masked_norm_sqr_sum`): precision-stable
    /// at `2^20+` amplitudes and bit-identical for every worker count.
    pub fn prob_one(&self, qubit: usize) -> f64 {
        self.prob_one_pooled(qubit, &ThreadPool::new(1))
    }

    /// [`Self::prob_one`] with the leaf sums split across `pool` (the
    /// summation tree is fixed, so the result does not change).
    pub(crate) fn prob_one_pooled(&self, qubit: usize, pool: &ThreadPool) -> f64 {
        let mask = self.qubit_mask(qubit);
        simd::masked_norm_sqr_sum(&self.amps, mask, true, pool)
    }

    /// Collapses `qubit` to `outcome`, renormalizing.
    ///
    /// The branch probability is summed directly over the kept amplitudes:
    /// computing the 0-branch as `1 - prob_one` loses precision to
    /// cancellation when `prob_one` is near 1, renormalizing the surviving
    /// amplitudes by a visibly wrong factor.
    ///
    /// # Panics
    ///
    /// Panics if the outcome has (near-)zero probability.
    pub(crate) fn collapse(&mut self, qubit: usize, outcome: bool) {
        self.collapse_pooled(qubit, outcome, &ThreadPool::new(1));
    }

    /// [`Self::collapse`] with the branch sum and the renormalization pass
    /// split across `pool`; bit-identical for every worker count.
    pub(crate) fn collapse_pooled(&mut self, qubit: usize, outcome: bool, pool: &ThreadPool) {
        let mask = self.qubit_mask(qubit);
        let p = simd::masked_norm_sqr_sum(&self.amps, mask, outcome, pool);
        assert!(p > 1e-12, "collapsing onto a zero-probability branch");
        let norm = 1.0 / p.sqrt();
        // The qubit's bit alternates in aligned blocks of `mask`
        // amplitudes: scale the kept block of each period, zero the other.
        pool.for_each_chunk(&mut self.amps, mask << 1, |_, chunk| {
            let (zeros_half, ones_half) = chunk.split_at_mut(mask);
            let (kept, discarded) =
                if outcome { (ones_half, zeros_half) } else { (zeros_half, ones_half) };
            simd::scale_run(kept, norm);
            simd::zero_run(discarded);
        });
    }

    /// Whether two states are equal up to a global phase.
    ///
    /// The phase is aligned on a *symmetric* pivot — the index with the
    /// largest combined magnitude across both states — so the verdict does
    /// not depend on which operand is `self` when the per-state maxima are
    /// near-degenerate.
    pub fn approx_eq_global_phase(&self, other: &StateVector, eps: f64) -> bool {
        if self.num_qubits != other.num_qubits {
            return false;
        }
        let pivot = (0..self.amps.len())
            .max_by(|&a, &b| {
                let wa = self.amps[a].norm_sqr() + other.amps[a].norm_sqr();
                let wb = self.amps[b].norm_sqr() + other.amps[b].norm_sqr();
                wa.partial_cmp(&wb).expect("amplitudes are finite")
            })
            .expect("nonempty state");
        if self.amps[pivot].abs() < eps || other.amps[pivot].abs() < eps {
            // No phase is extractable at the pivot: either both states are
            // (near-)zero everywhere, or one has weight the other lacks —
            // both cases are decided by direct comparison.
            return self.amps.iter().zip(&other.amps).all(|(a, b)| a.approx_eq(*b, eps));
        }
        let ratio = self.amps[pivot] * other.amps[pivot].conj();
        let phase = Complex::from_angle(ratio.im.atan2(ratio.re));
        self.amps.iter().zip(&other.amps).all(|(a, b)| a.approx_eq(phase * *b, eps))
    }

    /// Total probability (should be 1 for a normalized state), as a
    /// fixed-shape chunked pairwise sum.
    #[cfg(test)]
    pub(crate) fn norm(&self) -> f64 {
        simd::masked_norm_sqr_sum(&self.amps, 0, false, &ThreadPool::new(1))
    }

    /// The state restricted to `qubits` (in the given order), provided
    /// every *other* qubit is |0>: the extraction used to compare a
    /// dynamically interpreted run (whose ancillas stay allocated) against
    /// a reference circuit on the logical qubits alone.
    ///
    /// Returns `None` when `qubits` repeats or is out of range, or when the
    /// probability mass on "some other qubit is 1" exceeds `eps` — i.e.
    /// when the remaining qubits are entangled with or displaced from |0>,
    /// so no pure marginal exists.
    pub fn marginal_on(&self, qubits: &[usize], eps: f64) -> Option<StateVector> {
        let mut kept = vec![false; self.num_qubits];
        for &q in qubits {
            if q >= self.num_qubits || kept[q] {
                return None;
            }
            kept[q] = true;
        }
        let other_mask: usize =
            (0..self.num_qubits).filter(|&q| !kept[q]).map(|q| self.qubit_mask(q)).sum();
        // Leakage mass onto the excluded qubits, as a fixed-shape pairwise
        // sum (stable at large sizes, unlike a naive running total).
        let leaked = simd::masked_norm_sqr_sum(&self.amps, other_mask, true, &ThreadPool::new(1));
        if leaked > eps {
            return None;
        }
        let k = qubits.len();
        let mut out = vec![Complex::ZERO; checked_amplitude_count(k)];
        for (i, amp) in self.amps.iter().enumerate() {
            if i & other_mask != 0 {
                continue;
            }
            let mut sub = 0usize;
            for (pos, &q) in qubits.iter().enumerate() {
                if i & self.qubit_mask(q) != 0 {
                    sub |= 1usize << (k - 1 - pos);
                }
            }
            out[sub] = *amp;
        }
        Some(StateVector { num_qubits: k, amps: out })
    }

    /// A new state with one more qubit appended (as the least significant
    /// index position) in |0>. Used by dynamic allocation.
    ///
    /// # Panics
    ///
    /// Panics if the grown register would exceed [`MAX_QUBITS`].
    pub fn with_appended_zero_qubit(&self) -> StateVector {
        let mut amps = vec![Complex::ZERO; checked_amplitude_count(self.num_qubits + 1)];
        for (i, a) in self.amps.iter().enumerate() {
            amps[i * 2] = *a;
        }
        StateVector { num_qubits: self.num_qubits + 1, amps }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-10
    }

    #[test]
    fn x_flips() {
        let mut s = StateVector::zero(2);
        s.apply(GateKind::X, &[], &[0]);
        assert!(approx(s.probability(0b10), 1.0));
        s.apply(GateKind::X, &[], &[1]);
        assert!(approx(s.probability(0b11), 1.0));
    }

    #[test]
    fn bell_state() {
        let mut s = StateVector::zero(2);
        s.apply(GateKind::H, &[], &[0]);
        s.apply(GateKind::X, &[0], &[1]);
        assert!(approx(s.probability(0b00), 0.5));
        assert!(approx(s.probability(0b11), 0.5));
        assert!(approx(s.probability(0b01), 0.0));
        assert!(approx(s.prob_one(0), 0.5));
    }

    #[test]
    fn controlled_gate_respects_control() {
        let mut s = StateVector::zero(2); // |00>
        s.apply(GateKind::X, &[0], &[1]); // control 0 is |0>: no-op
        assert!(approx(s.probability(0b00), 1.0));
    }

    #[test]
    fn multi_controlled_gate_uses_all_controls() {
        // Regression for the summed control mask: with distinct controls
        // the OR'd mask equals the sum, but the gate must fire only when
        // *every* control is 1.
        let mut s = StateVector::basis(3, 0b110);
        s.apply(GateKind::X, &[0, 1], &[2]);
        assert!(approx(s.probability(0b111), 1.0));
        let mut s = StateVector::basis(3, 0b100);
        s.apply(GateKind::X, &[0, 1], &[2]);
        assert!(approx(s.probability(0b100), 1.0));
    }

    #[test]
    #[should_panic(expected = "duplicate qubit")]
    fn duplicated_control_panics() {
        // Regression: the summed mask `2*m` used to carry into the wrong
        // bit and silently act as a different control set.
        let mut s = StateVector::zero(3);
        s.apply(GateKind::X, &[1, 1], &[2]);
    }

    #[test]
    #[should_panic(expected = "duplicate qubit")]
    fn control_equal_to_target_panics() {
        let mut s = StateVector::zero(2);
        s.apply(GateKind::X, &[1], &[1]);
    }

    #[test]
    #[should_panic(expected = "duplicate qubit")]
    fn naive_apply_rejects_duplicates_too() {
        let mut s = StateVector::zero(3);
        s.apply_naive(GateKind::X, &[0, 0], &[2]);
    }

    #[test]
    fn swap_exchanges() {
        let mut s = StateVector::basis(2, 0b10);
        s.apply(GateKind::Swap, &[], &[0, 1]);
        assert!(approx(s.probability(0b01), 1.0));
        // Controlled swap with |0> control is inert.
        let mut s = StateVector::basis(3, 0b010);
        s.apply(GateKind::Swap, &[0], &[1, 2]);
        assert!(approx(s.probability(0b010), 1.0));
        // With |1> control it swaps.
        let mut s = StateVector::basis(3, 0b110);
        s.apply(GateKind::Swap, &[0], &[1, 2]);
        assert!(approx(s.probability(0b101), 1.0));
    }

    #[test]
    fn hsh_and_phases() {
        // S|+> = |i>: probability of 1 stays 1/2, phases differ.
        let mut s = StateVector::zero(1);
        s.apply(GateKind::H, &[], &[0]);
        s.apply(GateKind::S, &[], &[0]);
        assert!(approx(s.prob_one(0), 0.5));
        assert!(
            s.amplitudes()[1].approx_eq(Complex::new(0.0, std::f64::consts::FRAC_1_SQRT_2), 1e-12)
        );
    }

    #[test]
    fn sx_squares_to_x() {
        let mut a = StateVector::zero(1);
        a.apply(GateKind::Sx, &[], &[0]);
        a.apply(GateKind::Sx, &[], &[0]);
        let mut b = StateVector::zero(1);
        b.apply(GateKind::X, &[], &[0]);
        assert!(a.approx_eq_global_phase(&b, 1e-10));
    }

    #[test]
    fn collapse_normalizes() {
        let mut s = StateVector::zero(2);
        s.apply(GateKind::H, &[], &[0]);
        s.apply(GateKind::X, &[0], &[1]);
        s.collapse(0, true);
        assert!(approx(s.probability(0b11), 1.0));
        assert!(approx(s.norm(), 1.0));
    }

    #[test]
    fn collapse_onto_tiny_branch_renormalizes_exactly() {
        // amp(|0>) = 1e-5: the zero-branch probability is 1e-10, and
        // `1 - prob_one` reproduces it only to the ulp of 1.0 (~1e-16),
        // i.e. with ~1e-6 relative error, so the renormalized amplitude
        // missed 1 by ~5e-7. Summing the kept branch directly recovers it
        // to full precision.
        let small = 1e-5f64;
        let big = (1.0 - small * small).sqrt();
        let mut s =
            StateVector::from_amplitudes(vec![Complex::new(small, 0.0), Complex::new(big, 0.0)]);
        s.collapse(0, false);
        assert!((s.amplitudes()[0].re - 1.0).abs() < 1e-9, "{}", s.amplitudes()[0]);
        assert!(approx(s.norm(), 1.0));
    }

    #[test]
    fn marginal_extracts_and_reorders() {
        // |q0 q1 q2> = |0>|+>|1>: marginal on (2, 1) is |1>|+>.
        let mut s = StateVector::zero(3);
        s.apply(GateKind::H, &[], &[1]);
        s.apply(GateKind::X, &[], &[2]);
        let m = s.marginal_on(&[2, 1], 1e-9).expect("q0 is |0>");
        assert_eq!(m.num_qubits(), 2);
        assert!(approx(m.probability(0b10), 0.5));
        assert!(approx(m.probability(0b11), 0.5));
        // Marginal excluding a non-|0> qubit does not exist.
        assert!(s.marginal_on(&[0, 1], 1e-9).is_none());
        // Entangled partner also blocks extraction.
        let mut bell = StateVector::zero(2);
        bell.apply(GateKind::H, &[], &[0]);
        bell.apply(GateKind::X, &[0], &[1]);
        assert!(bell.marginal_on(&[0], 1e-9).is_none());
        // Duplicates and out-of-range are rejected.
        assert!(s.marginal_on(&[1, 1], 1e-9).is_none());
        assert!(s.marginal_on(&[3], 1e-9).is_none());
    }

    #[test]
    fn global_phase_equality() {
        let mut a = StateVector::zero(1);
        a.apply(GateKind::H, &[], &[0]);
        let mut b = a.clone();
        // Z then X then Z then X = -identity (global phase).
        b.apply(GateKind::Z, &[], &[0]);
        b.apply(GateKind::X, &[], &[0]);
        b.apply(GateKind::Z, &[], &[0]);
        b.apply(GateKind::X, &[], &[0]);
        assert!(a.approx_eq_global_phase(&b, 1e-10));
        assert_ne!(a, b, "bitwise different due to the -1 phase");
    }

    #[test]
    fn global_phase_pivot_is_symmetric_under_near_degenerate_maxima() {
        // `self`'s largest amplitude (by a 1e-12 hair) sits at index 0, but
        // `other` carries its phase perturbations at indices 0 and 1 (±θ)
        // and its own maximum at index 2. A pivot chosen from `self` alone
        // aligns the phase at index 0, doubling the apparent error at
        // index 1 to 2cθ > eps; the symmetric pivot (largest combined
        // magnitude, index 2) sees cθ < eps on both and accepts.
        let c = 1.0 / 3.0f64.sqrt();
        let theta = 1.5e-3;
        let eps = 1e-3;
        let zero = Complex::ZERO;
        let a = StateVector::from_amplitudes(vec![
            Complex::new(c + 1e-12, 0.0),
            Complex::new(c, 0.0),
            Complex::new(c, 0.0),
            zero,
        ]);
        let rot = |phi: f64| Complex::I * Complex::from_angle(phi);
        let b = StateVector::from_amplitudes(vec![
            rot(theta).scale(c),
            rot(-theta).scale(c),
            rot(0.0).scale(c + 1e-9),
            zero,
        ]);
        assert!(a.approx_eq_global_phase(&b, eps));
        assert!(b.approx_eq_global_phase(&a, eps), "must be symmetric in its operands");
        // The perturbation is real: a tighter tolerance still rejects.
        assert!(!a.approx_eq_global_phase(&b, 1e-4));
    }

    #[test]
    fn from_amplitudes_validates_length() {
        assert!(std::panic::catch_unwind(|| StateVector::from_amplitudes(vec![Complex::ONE; 3]))
            .is_err());
        let s = StateVector::from_amplitudes(vec![Complex::ONE]);
        assert_eq!(s.num_qubits(), 0);
    }
}
