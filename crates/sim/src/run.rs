//! Circuit execution: single shots, sampling, and unitary extraction.
//!
//! Execution compiles circuits to fused, stride-based [`KernelProgram`]s
//! (see `crate::kernel`); unitary extraction applies the program to all
//! basis columns at once (see `crate::batch`) instead of re-simulating
//! per column.

use crate::batch::batched_columns;
use crate::kernel::{apply_op_pooled, KernelOp, KernelProgram};
use crate::state::StateVector;
use asdf_qcircuit::{Circuit, CircuitOp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use threadpool::ThreadPool;

/// Amplitude count at or above which an auto-threaded (`threads == 0`)
/// single-state run spreads gate kernels across all cores; below it the
/// per-gate work cannot amortize a thread spawn. On a 2-core x86-64 VM,
/// on `sim_kernels`' 200-gate random circuits, two workers lose to one up
/// to 17 qubits, break even at 18 and win from 19.
pub(crate) const PARALLEL_STATE_MIN: usize = 1 << 19;

/// The worker pool for a single-state run: `threads == 0` picks the
/// machine's parallelism for states of at least [`PARALLEL_STATE_MIN`]
/// amplitudes (and one worker below), any other value is exact.
pub(crate) fn pool_for_state(threads: usize, num_amps: usize) -> ThreadPool {
    match threads {
        0 if num_amps >= PARALLEL_STATE_MIN => ThreadPool::with_available_parallelism(),
        0 => ThreadPool::new(1),
        t => ThreadPool::new(t),
    }
}

/// The outcome of one shot.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Classical bits, indexed by measurement destination.
    pub bits: Vec<bool>,
    /// The post-circuit state.
    pub state: StateVector,
}

impl RunResult {
    /// The measured bits as a `'0'`/`'1'` string.
    pub(crate) fn bit_string(&self) -> String {
        self.bits.iter().map(|&b| if b { '1' } else { '0' }).collect()
    }
}

/// Executes circuits with seeded randomness for reproducible tests.
#[derive(Debug)]
pub struct Simulator {
    rng: StdRng,
    threads: usize,
}

impl Simulator {
    /// A simulator with a fixed seed and automatic threading (gate kernels
    /// parallelize once the state reaches `PARALLEL_STATE_MIN`
    /// amplitudes).
    pub fn new(seed: u64) -> Self {
        Simulator::with_threads(seed, 0)
    }

    /// A simulator with an explicit worker count: `0` = automatic
    /// (size-gated), `n >= 1` = exactly `n` workers regardless of state
    /// size. Results are bit-identical for every setting — the pair
    /// partition and the fixed-shape probability sums do not depend on the
    /// worker count.
    pub fn with_threads(seed: u64, threads: usize) -> Self {
        Simulator { rng: StdRng::seed_from_u64(seed), threads }
    }

    /// Runs one shot of the circuit from |0...0>.
    pub fn run(&mut self, circuit: &Circuit) -> RunResult {
        self.run_program(&KernelProgram::compile(circuit))
    }

    /// Runs one shot of a precompiled program from |0...0>. Compiling once
    /// and running many shots amortizes the gate-fusion prepass.
    pub(crate) fn run_program(&mut self, program: &KernelProgram) -> RunResult {
        let mut state = StateVector::zero(program.num_qubits());
        let pool = pool_for_state(self.threads, state.amplitudes().len());
        let mut bits = vec![false; program.num_bits()];
        for op in program.ops() {
            match op {
                KernelOp::Unitary { .. } | KernelOp::Unitary4 { .. } | KernelOp::Swap { .. } => {
                    apply_op_pooled(state.amps_mut(), op, &pool);
                }
                KernelOp::Measure { qubit, bit } => {
                    let p1 = state.prob_one_pooled(*qubit, &pool);
                    let outcome = self.rng.gen_bool(p1.clamp(0.0, 1.0));
                    state.collapse_pooled(*qubit, outcome, &pool);
                    bits[*bit] = outcome;
                }
                KernelOp::Reset { qubit } => {
                    let p1 = state.prob_one_pooled(*qubit, &pool);
                    if p1 > 1e-12 {
                        let outcome = self.rng.gen_bool(p1.clamp(0.0, 1.0));
                        state.collapse_pooled(*qubit, outcome, &pool);
                        if outcome {
                            state.apply(asdf_ir::GateKind::X, &[], &[*qubit]);
                        }
                    }
                }
            }
        }
        RunResult { bits, state }
    }
}

/// Runs `shots` shots and histograms the measured bit strings.
///
/// When every measurement is *terminal* (no reset ops, and no measured
/// qubit is touched again afterwards — the deferred-measurement condition),
/// the circuit is simulated **once** and all shots are drawn from the exact
/// final distribution; otherwise each shot re-runs the full state-vector
/// simulation ([`sample_per_shot`]). Both paths are deterministic per seed
/// and draw from the same distribution, but their shot-by-shot streams
/// differ.
pub fn sample(circuit: &Circuit, shots: usize, seed: u64) -> HashMap<String, usize> {
    match measurement_distribution(circuit) {
        Some(dist) => {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut counts: HashMap<String, usize> = HashMap::new();
            let total: f64 = dist.iter().map(|(_, p)| p).sum();
            for _ in 0..shots {
                let mut r = rng.gen_f64() * total;
                let mut chosen = &dist[dist.len() - 1].0;
                for (bits, p) in &dist {
                    if r < *p {
                        chosen = bits;
                        break;
                    }
                    r -= p;
                }
                *counts.entry(chosen.clone()).or_default() += 1;
            }
            counts
        }
        None => sample_per_shot(circuit, shots, seed),
    }
}

/// The original sampling loop: one full simulation per shot. Required for
/// circuits with mid-circuit measurement or reset, where later evolution
/// branches on earlier outcomes; kept public so tests can cross-check the
/// single-simulation fast path against it.
pub fn sample_per_shot(circuit: &Circuit, shots: usize, seed: u64) -> HashMap<String, usize> {
    let program = KernelProgram::compile(circuit);
    let mut sim = Simulator::new(seed);
    let mut counts: HashMap<String, usize> = HashMap::new();
    for _ in 0..shots {
        let result = sim.run_program(&program);
        *counts.entry(result.bit_string()).or_default() += 1;
    }
    counts
}

/// The exact joint distribution of the measured bit string, computed from
/// one simulation — available iff every measurement is terminal: the
/// circuit has no reset ops, no qubit is measured twice or into two bits,
/// and no op touches a qubit after it has been measured. Entries are
/// sorted by bit string (deterministic order) and sum to 1.
///
/// Returns `None` when the terminal-measurement condition fails (the
/// distribution then depends on per-shot branching) — callers fall back to
/// [`sample_per_shot`].
pub(crate) fn measurement_distribution(circuit: &Circuit) -> Option<Vec<(String, f64)>> {
    measurement_distribution_threads(circuit, 0)
}

/// `measurement_distribution` with an explicit worker count for the
/// gate kernels (`0` = automatic, size-gated). The distribution is
/// bit-identical for every setting.
pub fn measurement_distribution_threads(
    circuit: &Circuit,
    threads: usize,
) -> Option<Vec<(String, f64)>> {
    let mut measured: Vec<(usize, usize)> = Vec::new(); // (qubit, bit)
    let mut bit_used = vec![false; circuit.num_bits()];
    for op in circuit.ops() {
        match op {
            CircuitOp::Reset { .. } => return None,
            CircuitOp::Measure { qubit, bit } => {
                if measured.iter().any(|&(q, _)| q == qubit) || bit_used[bit] {
                    return None;
                }
                bit_used[bit] = true;
                measured.push((qubit, bit));
            }
            CircuitOp::Gate { .. } => {
                if op.qubits().any(|q| measured.iter().any(|&(m, _)| m == q)) {
                    return None;
                }
            }
        }
    }

    let mut state = StateVector::zero(circuit.num_qubits);
    // The terminal-measurement analysis above established that skipping the
    // measure ops cannot change any amplitude a measurement reads.
    let pool = pool_for_state(threads, state.amplitudes().len());
    KernelProgram::compile(circuit).apply_gates_pooled(&mut state, &pool);
    let num_bits = circuit.num_bits();
    let n = circuit.num_qubits;
    let mut dist: std::collections::BTreeMap<String, f64> = std::collections::BTreeMap::new();
    for (index, amp) in state.amplitudes().iter().enumerate() {
        let p = amp.norm_sqr();
        if p == 0.0 {
            continue;
        }
        let mut bits = vec![false; num_bits];
        for &(q, b) in &measured {
            bits[b] = index & (1usize << (n - 1 - q)) != 0;
        }
        let key: String = bits.iter().map(|&b| if b { '1' } else { '0' }).collect();
        *dist.entry(key).or_default() += p;
    }
    Some(dist.into_iter().collect())
}

/// The full unitary of a measurement-free circuit, as columns indexed by
/// input basis state. Exponential; for verification of small circuits.
///
/// # Panics
///
/// Panics if the circuit measures or resets, or has more than 12 qubits.
pub fn unitary_of(circuit: &Circuit) -> Vec<StateVector> {
    assert!(circuit.num_qubits <= 12, "unitary extraction is exponential");
    assert!(
        circuit.ops().all(|op| matches!(op, CircuitOp::Gate { .. })),
        "unitary extraction requires a measurement-free circuit"
    );
    let inputs: Vec<usize> = (0..(1usize << circuit.num_qubits)).collect();
    batched_columns(circuit, &inputs)
}

/// Whether two measurement-free circuits implement the same unitary up to
/// a single global phase.
pub fn circuits_equivalent(a: &Circuit, b: &Circuit, eps: f64) -> bool {
    if a.num_qubits != b.num_qubits {
        return false;
    }
    let ua = unitary_of(a);
    let ub = unitary_of(b);
    columns_equivalent(&ua, &ub, eps)
}

/// Whether two circuits agree (up to one shared global phase) on every
/// input whose qubits at and beyond `data_qubits` are |0> — the contract
/// for ancilla-using decompositions, which are only defined on the
/// zero-ancilla subspace (the ancillas must also return to |0>).
#[cfg(test)]
pub(crate) fn circuits_equivalent_on_zero_ancillas(
    a: &Circuit,
    b: &Circuit,
    data_qubits: usize,
    eps: f64,
) -> bool {
    if a.num_qubits != b.num_qubits || data_qubits > a.num_qubits {
        return false;
    }
    let shift = a.num_qubits - data_qubits;
    let inputs: Vec<usize> = (0..(1usize << data_qubits)).map(|i| i << shift).collect();
    let ua = batched_columns(a, &inputs);
    let ub = batched_columns(b, &inputs);
    columns_equivalent(&ua, &ub, eps)
}

/// Whether a routed circuit implements the same map as its unrouted
/// counterpart, given where routing placed each logical qubit.
///
/// Routing moves logical qubits across physical wires: logical qubit `q`
/// enters the routed circuit on wire `input_map[q]` and exits on wire
/// `output_map[q]` (a router's `initial_layout` / `final_layout`). The
/// check enumerates every basis input over the first `data_qubits`
/// logical qubits (all other qubits start in |0> on both sides), runs
/// both measurement-free circuits, extracts the marginal on the data
/// qubits — the logical side at wires `0..data_qubits`, the routed side
/// at `output_map[..data_qubits]` — and demands the columns agree up to
/// one shared global phase. The marginal extraction simultaneously
/// enforces ancilla discipline: every non-data wire (logical ancillas
/// and spare physical wires alike) must be back at |0>, or no marginal
/// exists and the check fails.
pub fn circuits_equivalent_up_to_output_permutation(
    logical: &Circuit,
    routed: &Circuit,
    input_map: &[usize],
    output_map: &[usize],
    data_qubits: usize,
    eps: f64,
) -> bool {
    if data_qubits > logical.num_qubits
        || input_map.len() < data_qubits
        || output_map.len() < data_qubits
        || input_map[..data_qubits].iter().any(|&p| p >= routed.num_qubits)
    {
        return false;
    }
    let shift = logical.num_qubits - data_qubits;
    let logical_inputs: Vec<usize> = (0..(1usize << data_qubits)).map(|i| i << shift).collect();
    let routed_inputs: Vec<usize> = (0..(1usize << data_qubits))
        .map(|i| {
            (0..data_qubits)
                .filter(|&q| i & (1usize << (data_qubits - 1 - q)) != 0)
                .fold(0usize, |acc, q| acc | (1usize << (routed.num_qubits - 1 - input_map[q])))
        })
        .collect();
    let data: Vec<usize> = (0..data_qubits).collect();
    let logical_cols: Option<Vec<StateVector>> = batched_columns(logical, &logical_inputs)
        .into_iter()
        .map(|s| s.marginal_on(&data, eps))
        .collect();
    let routed_cols: Option<Vec<StateVector>> = batched_columns(routed, &routed_inputs)
        .into_iter()
        .map(|s| s.marginal_on(&output_map[..data_qubits], eps))
        .collect();
    match (logical_cols, routed_cols) {
        (Some(la), Some(ra)) => columns_equivalent(&la, &ra, eps),
        _ => false,
    }
}

/// Whether two column sets (unitaries as lists of output states, indexed
/// by input basis state) agree up to one *shared* global phase. This is
/// the underlying oracle of [`circuits_equivalent`], exposed so differential
/// harnesses can compare columns extracted by other means (e.g. dynamic
/// interpretation of a module that never becomes a static circuit).
pub fn columns_equivalent(ua: &[StateVector], ub: &[StateVector], eps: f64) -> bool {
    if ua.len() != ub.len() || ua.iter().zip(ub).any(|(a, b)| a.num_qubits() != b.num_qubits()) {
        return false;
    }
    columns_match(ua, ub, eps)
}

fn columns_match(ua: &[StateVector], ub: &[StateVector], eps: f64) -> bool {
    // Find the shared phase from the first column with weight, then demand
    // exact correspondence under that single phase.
    let mut phase: Option<crate::Complex> = None;
    for (ca, cb) in ua.iter().zip(ub) {
        for (x, y) in ca.amplitudes().iter().zip(cb.amplitudes()) {
            if x.abs() > eps || y.abs() > eps {
                match phase {
                    None => {
                        if x.abs() < eps || y.abs() < eps {
                            return false;
                        }
                        let ratio = *x * y.conj();
                        phase = Some(crate::Complex::from_angle(ratio.im.atan2(ratio.re)));
                    }
                    Some(p) => {
                        if !x.approx_eq(p * *y, eps) {
                            return false;
                        }
                    }
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use asdf_ir::GateKind;
    // (circuits_equivalent_on_zero_ancillas is the decomposition contract)
    use asdf_qcircuit::decompose::{decompose, DecomposeStyle};

    #[test]
    fn deterministic_circuit_measures_deterministically() {
        let mut c = Circuit::new(2);
        c.gate(GateKind::X, &[], &[0]);
        c.gate(GateKind::X, &[0], &[1]);
        c.measure(0, 0);
        c.measure(1, 1);
        let counts = sample(&c, 50, 7);
        assert_eq!(counts.len(), 1);
        assert_eq!(counts["11"], 50);
    }

    #[test]
    fn bell_sampling_is_correlated() {
        let mut c = Circuit::new(2);
        c.gate(GateKind::H, &[], &[0]);
        c.gate(GateKind::X, &[0], &[1]);
        c.measure(0, 0);
        c.measure(1, 1);
        let counts = sample(&c, 400, 13);
        assert!(counts.keys().all(|k| k == "00" || k == "11"));
        assert!(counts["00"] > 100 && counts["11"] > 100);
    }

    #[test]
    fn reset_returns_qubit_to_zero() {
        let mut c = Circuit::new(1);
        c.gate(GateKind::H, &[], &[0]);
        c.reset(0);
        c.measure(0, 0);
        let counts = sample(&c, 64, 5);
        assert_eq!(counts["0"], 64);
    }

    /// The decomposition correctness gate: every multi-control lowering is
    /// exactly unitary-equivalent to the native multi-controlled gate.
    #[test]
    fn decompositions_are_exact() {
        for style in [DecomposeStyle::Selinger, DecomposeStyle::VChain] {
            for k in 2..=4 {
                let mut native = Circuit::new(k + 1);
                let controls: Vec<usize> = (0..k).collect();
                native.gate(GateKind::X, &controls, &[k]);
                let lowered = decompose(&native, style);
                // Pad the native circuit with the ancillas the lowering
                // introduced (identity on them); equivalence is required on
                // the zero-ancilla subspace.
                let mut padded = Circuit::new(lowered.num_qubits);
                padded.gate(GateKind::X, &controls, &[k]);
                assert!(
                    circuits_equivalent_on_zero_ancillas(&padded, &lowered, k + 1, 1e-9),
                    "mcx k={k} style={style:?}"
                );
            }
        }
    }

    #[test]
    fn controlled_unitaries_are_exact() {
        let cases: Vec<(GateKind, usize)> = vec![
            (GateKind::H, 1),
            (GateKind::H, 2),
            (GateKind::S, 2),
            (GateKind::P(0.77), 2),
            (GateKind::Z, 3),
            (GateKind::Y, 1),
            (GateKind::Sx, 1),
            (GateKind::Ry(0.3), 1),
            (GateKind::Rx(1.1), 2),
        ];
        for (gate, k) in cases {
            let mut native = Circuit::new(k + 1);
            let controls: Vec<usize> = (0..k).collect();
            native.gate(gate, &controls, &[k]);
            let lowered = decompose(&native, DecomposeStyle::Selinger);
            let mut padded = Circuit::new(lowered.num_qubits);
            padded.gate(gate, &controls, &[k]);
            assert!(
                circuits_equivalent_on_zero_ancillas(&padded, &lowered, k + 1, 1e-9),
                "controlled {gate} with {k} controls"
            );
        }
    }

    #[test]
    fn fast_and_per_shot_sampling_agree_on_fixed_seed_distribution() {
        // Bell pair: all measurements terminal, so `sample` takes the
        // single-simulation fast path. Cross-check its distribution against
        // the per-shot path on the same seed.
        let mut c = Circuit::new(2);
        c.gate(GateKind::H, &[], &[0]);
        c.gate(GateKind::X, &[0], &[1]);
        c.measure(0, 0);
        c.measure(1, 1);
        let shots = 4000usize;
        let fast = sample(&c, shots, 99);
        let slow = sample_per_shot(&c, shots, 99);
        let keys: std::collections::BTreeSet<&String> = fast.keys().chain(slow.keys()).collect();
        let tv: f64 = keys
            .iter()
            .map(|k| {
                let a = *fast.get(*k).unwrap_or(&0) as f64 / shots as f64;
                let b = *slow.get(*k).unwrap_or(&0) as f64 / shots as f64;
                (a - b).abs()
            })
            .sum::<f64>()
            / 2.0;
        assert!(tv < 0.05, "fast vs per-shot TV distance {tv}");
        // And both agree with the exact distribution.
        let dist = measurement_distribution(&c).expect("terminal measurements");
        assert_eq!(dist.len(), 2);
        for (bits, p) in dist {
            assert!((p - 0.5).abs() < 1e-12, "{bits}: {p}");
        }
    }

    #[test]
    fn mid_circuit_measurement_disables_the_fast_path() {
        // A gate touching a measured qubit afterwards: the joint
        // distribution can no longer be read off one final state.
        let mut c = Circuit::new(2);
        c.gate(GateKind::H, &[], &[0]);
        c.measure(0, 0);
        c.gate(GateKind::X, &[0], &[1]); // classically-correlated CX after measurement
        c.measure(1, 1);
        assert!(measurement_distribution(&c).is_none());
        // Reset also forces the per-shot path.
        let mut r = Circuit::new(1);
        r.gate(GateKind::H, &[], &[0]);
        r.reset(0);
        r.measure(0, 0);
        assert!(measurement_distribution(&r).is_none());
        // `sample` still works through the fallback and keeps the
        // measurement correlation: both bits always agree.
        let counts = sample(&c, 300, 17);
        assert!(counts.keys().all(|k| k == "00" || k == "11"), "{counts:?}");
    }

    #[test]
    fn equivalence_accepts_global_phase_only_difference() {
        // ZXZX = -I: a pure global phase on the identity.
        let a = Circuit::new(1);
        let mut b = Circuit::new(1);
        for gate in [GateKind::Z, GateKind::X, GateKind::Z, GateKind::X] {
            b.gate(gate, &[], &[0]);
        }
        assert!(circuits_equivalent(&a, &b, 1e-9));
    }

    #[test]
    fn equivalence_rejects_qubit_count_mismatch() {
        let a = Circuit::new(1);
        let b = Circuit::new(2);
        assert!(!circuits_equivalent(&a, &b, 1e-9));
        assert!(!circuits_equivalent_on_zero_ancillas(&a, &b, 1, 1e-9));
    }

    #[test]
    fn equivalence_rejects_a_wrong_circuit() {
        // A relative (not global) phase difference: S vs Sdg.
        let mut a = Circuit::new(1);
        a.gate(GateKind::S, &[], &[0]);
        let mut b = Circuit::new(1);
        b.gate(GateKind::Sdg, &[], &[0]);
        assert!(!circuits_equivalent(&a, &b, 1e-9));
        // And a plainly different unitary.
        let mut h = Circuit::new(1);
        h.gate(GateKind::H, &[], &[0]);
        assert!(!circuits_equivalent(&a, &h, 1e-9));
    }

    #[test]
    fn zero_ancilla_equivalence_rejects_dirty_ancilla() {
        // Both act as the identity on the data qubit, but one leaves the
        // ancilla flipped to |1>: the decomposition contract is violated.
        let clean = Circuit::new(2);
        let mut dirty = Circuit::new(2);
        dirty.gate(GateKind::X, &[], &[1]);
        assert!(!circuits_equivalent_on_zero_ancillas(&clean, &dirty, 1, 1e-9));
        // Returned-to-zero ancilla is fine.
        let mut roundtrip = Circuit::new(2);
        roundtrip.gate(GateKind::X, &[], &[1]);
        roundtrip.gate(GateKind::X, &[], &[1]);
        assert!(circuits_equivalent_on_zero_ancillas(&clean, &roundtrip, 1, 1e-9));
    }

    /// SWAP(a, b) as three CX, the form routers emit.
    fn emit_swap(c: &mut Circuit, a: usize, b: usize) {
        c.gate(GateKind::X, &[a], &[b]);
        c.gate(GateKind::X, &[b], &[a]);
        c.gate(GateKind::X, &[a], &[b]);
    }

    #[test]
    fn permutation_oracle_accepts_hand_routed_bell() {
        // Logical Bell pair; the "routed" version swaps the wires at the
        // end, so logical qubit 1 exits on wire 0 and vice versa.
        let mut bell = Circuit::new(2);
        bell.gate(GateKind::H, &[], &[0]);
        bell.gate(GateKind::X, &[0], &[1]);
        let mut routed = bell.clone();
        emit_swap(&mut routed, 0, 1);
        assert!(circuits_equivalent_up_to_output_permutation(
            &bell,
            &routed,
            &[0, 1],
            &[1, 0],
            2,
            1e-9
        ));
        // Claiming the identity output permutation must fail: H and CX
        // ended up on the wrong wires.
        assert!(!circuits_equivalent_up_to_output_permutation(
            &bell,
            &routed,
            &[0, 1],
            &[0, 1],
            2,
            1e-9
        ));
    }

    #[test]
    fn permutation_oracle_accepts_hand_routed_ghz() {
        // GHZ on linear-3: CX(0,2) is not coupled, so the router brings
        // logical 2 next to logical 0 by swapping wires 1 and 2 first.
        let mut ghz = Circuit::new(3);
        ghz.gate(GateKind::H, &[], &[0]);
        ghz.gate(GateKind::X, &[0], &[1]);
        ghz.gate(GateKind::X, &[0], &[2]);
        let mut routed = Circuit::new(3);
        routed.gate(GateKind::H, &[], &[0]);
        routed.gate(GateKind::X, &[0], &[1]);
        emit_swap(&mut routed, 1, 2); // logical 1 -> wire 2, logical 2 -> wire 1
        routed.gate(GateKind::X, &[0], &[1]);
        assert!(circuits_equivalent_up_to_output_permutation(
            &ghz,
            &routed,
            &[0, 1, 2],
            &[0, 2, 1],
            3,
            1e-9
        ));
        // A wrong permutation is rejected...
        assert!(!circuits_equivalent_up_to_output_permutation(
            &ghz,
            &routed,
            &[0, 1, 2],
            &[2, 0, 1],
            3,
            1e-9
        ));
        // ...and so is a genuinely wrong circuit under the right one.
        let mut wrong = routed.clone();
        wrong.gate(GateKind::Z, &[], &[0]);
        assert!(!circuits_equivalent_up_to_output_permutation(
            &ghz,
            &wrong,
            &[0, 1, 2],
            &[0, 2, 1],
            3,
            1e-9
        ));
    }

    #[test]
    fn permutation_oracle_enforces_ancilla_discipline() {
        // The routed side has a spare wire; leaving it dirty must fail
        // even though the data wires match.
        let mut logical = Circuit::new(1);
        logical.gate(GateKind::H, &[], &[0]);
        let mut clean = Circuit::new(2);
        clean.gate(GateKind::H, &[], &[0]);
        assert!(circuits_equivalent_up_to_output_permutation(
            &logical,
            &clean,
            &[0],
            &[0],
            1,
            1e-9
        ));
        let mut dirty = Circuit::new(2);
        dirty.gate(GateKind::H, &[], &[0]);
        dirty.gate(GateKind::X, &[], &[1]);
        assert!(!circuits_equivalent_up_to_output_permutation(
            &logical,
            &dirty,
            &[0],
            &[0],
            1,
            1e-9
        ));
    }

    #[test]
    fn permutation_oracle_handles_permuted_inputs() {
        // Routed side receives logical qubit 0 on wire 1 and vice versa;
        // the circuit itself is CX with control on wire 1.
        let mut logical = Circuit::new(2);
        logical.gate(GateKind::X, &[0], &[1]);
        let mut routed = Circuit::new(2);
        routed.gate(GateKind::X, &[1], &[0]);
        assert!(circuits_equivalent_up_to_output_permutation(
            &logical,
            &routed,
            &[1, 0],
            &[1, 0],
            2,
            1e-9
        ));
        assert!(!circuits_equivalent_up_to_output_permutation(
            &logical,
            &routed,
            &[0, 1],
            &[0, 1],
            2,
            1e-9
        ));
    }

    #[test]
    fn controlled_swap_is_exact() {
        let mut native = Circuit::new(3);
        native.gate(GateKind::Swap, &[0], &[1, 2]);
        let lowered = decompose(&native, DecomposeStyle::Selinger);
        let mut padded = Circuit::new(lowered.num_qubits);
        padded.gate(GateKind::Swap, &[0], &[1, 2]);
        assert!(circuits_equivalent_on_zero_ancillas(&padded, &lowered, 3, 1e-9));
    }
}
