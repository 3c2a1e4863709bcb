//! Equivalence oracles: extracting comparable semantics from a compiled
//! configuration and deciding whether two configurations agree.
//!
//! Three extraction paths, chosen by what the configuration produced:
//!
//! - **static circuit, measurement-free** — unitary columns over the
//!   logical interface (all `2^width` basis inputs for `qubit`-argument
//!   kernels, the single |0...0> column for literal-prep kernels), with
//!   ancillas required back in |0> ([`asdf_sim::StateVector::marginal_on`]);
//! - **static circuit, measuring** — the *exact* outcome distribution when
//!   every measurement is terminal (`asdf_sim::measurement_distribution`),
//!   falling back to seeded sampling otherwise;
//! - **no static circuit** (the No-Opt pipelines keep callables) — the
//!   dynamic interpreter executes the module per basis input (or per shot
//!   for measuring programs), and the same marginal/distribution extraction
//!   applies.
//!
//! Comparison is pairwise: unitary columns up to one shared global phase
//! ([`asdf_sim::columns_equivalent`]), distributions by total-variation
//! distance within the sum of the two sides' statistical slack.

use crate::gen::{GenCase, InputMode};
use asdf_core::Compiled;
use asdf_qcircuit::{Circuit, CircuitOp};
use asdf_sim::{
    batched_program_columns_threads, columns_equivalent, measurement_distribution_threads,
    run_dynamic, sample_per_shot, ArgValue, KernelProgram, StateVector,
};
use asdf_target::RoutingInfo;
use std::collections::BTreeMap;

/// Oracle tunables.
#[derive(Debug, Clone)]
pub struct OracleOptions {
    /// Shots for the sampling fallback on non-terminal measuring circuits.
    pub shots: usize,
    /// Dynamic-interpreter runs per measuring case without a circuit.
    pub dyn_shots: usize,
    /// Amplitude tolerance for unitary/column comparison.
    pub eps: f64,
    /// Hard cap on qubits for column extraction (exponential).
    pub max_unitary_qubits: usize,
    /// Simulator worker threads per extraction: `0` lets the simulator
    /// size its pool from the state size; [`crate::Harness::with_jobs`]
    /// pins this to 1 when the compile pool is already parallel, so the
    /// two levels never oversubscribe. Verdicts are identical either way
    /// (the kernels are bit-identical across worker counts).
    pub sim_threads: usize,
}

impl Default for OracleOptions {
    fn default() -> Self {
        OracleOptions {
            shots: 4096,
            dyn_shots: 512,
            eps: 1e-7,
            max_unitary_qubits: 12,
            sim_threads: 0,
        }
    }
}

/// What one configuration's compilation *means*, in comparable form.
#[derive(Debug, Clone)]
pub enum Semantics {
    /// Output states indexed by basis input (measurement-free).
    Columns(Vec<StateVector>),
    /// Outcome distribution over measured bit strings, plus the
    /// statistical slack a comparison must grant this side.
    Distribution {
        /// Sorted `(bits, probability)` entries.
        dist: Vec<(String, f64)>,
        /// Total-variation slack (0 for exact distributions).
        slack: f64,
    },
    /// A definite contract violation (e.g. an ancilla left entangled or
    /// away from |0>): always a mismatch.
    Broken(String),
    /// Semantics not extractable for this configuration (e.g. callable
    /// forms the interpreter cannot run): comparisons are skipped.
    Unavailable(String),
}

/// The verdict of comparing two configurations on one case.
#[derive(Debug, Clone, PartialEq)]
pub enum Comparison {
    /// Semantics agree within tolerance.
    Agree,
    /// Semantics differ: the compiler miscompiled at least one of the two.
    Disagree(String),
    /// At least one side was unavailable.
    Skipped,
}

/// Extracts comparable semantics from `compiled` for `case`.
pub fn extract(case: &GenCase, compiled: &Compiled, opts: &OracleOptions, seed: u64) -> Semantics {
    let routing = compiled.routing.as_ref();
    match (&compiled.circuit, case.measure.is_some()) {
        (Some(circuit), false) => columns_from_circuit(case, circuit, routing, opts),
        (Some(circuit), true) => dist_from_circuit(case, circuit, routing, opts, seed),
        (None, false) => columns_from_dynamic(case, compiled, opts, seed),
        (None, true) => dist_from_dynamic(case, compiled, opts, seed),
    }
}

/// Compares two extracted semantics.
pub fn compare(a: &Semantics, b: &Semantics, eps: f64) -> Comparison {
    match (a, b) {
        (Semantics::Unavailable(_), _) | (_, Semantics::Unavailable(_)) => Comparison::Skipped,
        (Semantics::Broken(reason), _) | (_, Semantics::Broken(reason)) => {
            Comparison::Disagree(reason.clone())
        }
        (Semantics::Columns(ca), Semantics::Columns(cb)) => {
            if ca.len() != cb.len() {
                Comparison::Disagree(format!("column count mismatch: {} vs {}", ca.len(), cb.len()))
            } else if columns_equivalent(ca, cb, eps) {
                Comparison::Agree
            } else {
                Comparison::Disagree(
                    "unitary mismatch (columns differ beyond a shared global phase)".to_string(),
                )
            }
        }
        (
            Semantics::Distribution { dist: da, slack: sa },
            Semantics::Distribution { dist: db, slack: sb },
        ) => {
            let tv = total_variation(da, db);
            let allowed = sa + sb + 1e-6;
            if tv <= allowed {
                Comparison::Agree
            } else {
                Comparison::Disagree(format!(
                    "distribution mismatch: total variation {tv:.4} exceeds allowance {allowed:.4}"
                ))
            }
        }
        _ => Comparison::Disagree("semantics kind mismatch between configurations".to_string()),
    }
}

/// Total-variation distance between two normalized distributions.
pub(crate) fn total_variation(a: &[(String, f64)], b: &[(String, f64)]) -> f64 {
    let mut keys: BTreeMap<&str, (f64, f64)> = BTreeMap::new();
    for (k, p) in a {
        keys.entry(k).or_insert((0.0, 0.0)).0 += p;
    }
    for (k, p) in b {
        keys.entry(k).or_insert((0.0, 0.0)).1 += p;
    }
    keys.values().map(|(p, q)| (p - q).abs()).sum::<f64>() / 2.0
}

/// The basis inputs to sweep for a case: every assignment of the argument
/// register, or the single implicit |0...0> start for literal preps (the
/// compiler only guarantees behavior from freshly allocated qubits, so
/// feeding other states into prep-mode circuits would be unsound).
fn input_indices(case: &GenCase) -> Vec<usize> {
    match &case.input {
        InputMode::Arg(_) => (0..1usize << case.width).collect(),
        InputMode::Prep(_) => vec![0],
    }
}

/// The physical wires holding the kernel interface of a routed circuit.
/// `None` when the layouts do not cover the interface — a contract
/// violation the caller reports as [`Semantics::Broken`].
fn routed_interface(routing: &RoutingInfo, width: usize, num_qubits: usize) -> Option<()> {
    let covered = routing.initial_layout.len() >= width
        && routing.final_layout.len() >= width
        && routing.initial_layout[..width].iter().all(|&p| p < num_qubits)
        && routing.final_layout[..width].iter().all(|&p| p < num_qubits);
    covered.then_some(())
}

/// The basis-state index that places bit `q` of `index` (logical qubit
/// `q`, big-endian over `width`) on physical wire `layout[q]` of an
/// `num_qubits`-wide register.
fn permute_input(index: usize, width: usize, layout: &[usize], num_qubits: usize) -> usize {
    (0..width)
        .filter(|&q| index & (1 << (width - 1 - q)) != 0)
        .fold(0usize, |acc, q| acc | (1 << (num_qubits - 1 - layout[q])))
}

fn columns_from_circuit(
    case: &GenCase,
    circuit: &Circuit,
    routing: Option<&RoutingInfo>,
    opts: &OracleOptions,
) -> Semantics {
    if circuit.num_qubits > opts.max_unitary_qubits {
        return Semantics::Unavailable(format!(
            "{} qubits exceeds the {}-qubit unitary cap",
            circuit.num_qubits, opts.max_unitary_qubits
        ));
    }
    if circuit.num_qubits < case.width {
        return Semantics::Broken(format!(
            "circuit has {} qubits but the kernel interface needs {}",
            circuit.num_qubits, case.width
        ));
    }
    if !circuit.ops().all(|op| matches!(op, CircuitOp::Gate { .. })) {
        return Semantics::Broken(
            "measurement-free program compiled to a circuit with measure/reset ops".to_string(),
        );
    }
    // A routed configuration holds logical qubit `q` on physical wire
    // `initial_layout[q]` at input and `final_layout[q]` at output (SWAPs
    // move it); the oracle prepares and extracts through those layouts so
    // routed and unrouted configurations compare on the *logical*
    // interface.
    if let Some(r) = routing {
        if routed_interface(r, case.width, circuit.num_qubits).is_none() {
            return Semantics::Broken(format!(
                "routing layouts do not cover the {}-qubit kernel interface",
                case.width
            ));
        }
    }
    let shift = circuit.num_qubits - case.width;
    let data: Vec<usize> = match routing {
        Some(r) => r.final_layout[..case.width].to_vec(),
        None => (0..case.width).collect(),
    };
    let indices = input_indices(case);
    // One batched pass over every basis input instead of a per-column
    // re-simulation: the sweep's hottest loop.
    let inputs: Vec<usize> = indices
        .iter()
        .map(|&index| match routing {
            Some(r) => permute_input(index, case.width, &r.initial_layout, circuit.num_qubits),
            None => index << shift,
        })
        .collect();
    let program = KernelProgram::compile(circuit);
    let full_columns = batched_program_columns_threads(&program, &inputs, opts.sim_threads);
    let mut columns = Vec::with_capacity(full_columns.len());
    for (index, state) in indices.iter().zip(&full_columns) {
        match state.marginal_on(&data, 1e-9) {
            Some(column) => columns.push(column),
            None => {
                return Semantics::Broken(format!(
                    "ancillas not returned to |0> on basis input {index}"
                ))
            }
        }
    }
    Semantics::Columns(columns)
}

fn dist_from_circuit(
    case: &GenCase,
    circuit: &Circuit,
    routing: Option<&RoutingInfo>,
    opts: &OracleOptions,
    seed: u64,
) -> Semantics {
    // Argument-mode cases run on the case's recorded basis input,
    // materialized as leading X gates — placed on the initial-layout wires
    // for routed configurations. Measurements need no output translation:
    // the router remaps measured wires but keeps classical bit indices.
    let run = match &case.input {
        InputMode::Arg(bits) => {
            if bits.len() > circuit.num_qubits {
                return Semantics::Broken(format!(
                    "circuit has {} qubits but the kernel interface needs {}",
                    circuit.num_qubits,
                    bits.len()
                ));
            }
            match routing {
                Some(r) => {
                    if routed_interface(r, bits.len(), circuit.num_qubits).is_none() {
                        return Semantics::Broken(format!(
                            "routing layouts do not cover the {}-qubit kernel interface",
                            bits.len()
                        ));
                    }
                    let mut placed = vec![false; circuit.num_qubits];
                    for (q, &bit) in bits.iter().enumerate() {
                        placed[r.initial_layout[q]] = bit;
                    }
                    circuit.with_basis_input(&placed)
                }
                None => circuit.with_basis_input(bits),
            }
        }
        InputMode::Prep(_) => circuit.clone(),
    };
    if let Some(dist) = measurement_distribution_threads(&run, opts.sim_threads) {
        return Semantics::Distribution { dist, slack: 0.0 };
    }
    // Mid-circuit measurement: empirical sampling with statistical slack
    // scaled by the support actually observed, as in `dist_from_dynamic`.
    let counts = sample_per_shot(&run, opts.shots, seed);
    let support = counts.len().max(2);
    Semantics::Distribution {
        dist: normalize_counts(counts.into_iter().collect(), opts.shots),
        slack: tv_slack(opts.shots, support),
    }
}

fn dynamic_args(case: &GenCase, index: usize) -> Vec<ArgValue> {
    match &case.input {
        InputMode::Prep(_) => Vec::new(),
        InputMode::Arg(_) => {
            let bits: Vec<bool> =
                (0..case.width).map(|pos| index >> (case.width - 1 - pos) & 1 == 1).collect();
            vec![ArgValue::QubitsBasis(bits)]
        }
    }
}

fn columns_from_dynamic(
    case: &GenCase,
    compiled: &Compiled,
    opts: &OracleOptions,
    seed: u64,
) -> Semantics {
    // The sweep runs 2^width interpretations over width-plus-ancilla state
    // vectors: the same exponential guard as the circuit path applies.
    if case.width > opts.max_unitary_qubits {
        return Semantics::Unavailable(format!(
            "{} interface qubits exceeds the {}-qubit unitary cap",
            case.width, opts.max_unitary_qubits
        ));
    }
    let mut columns = Vec::new();
    for index in input_indices(case) {
        let run = match run_dynamic(
            &compiled.module,
            &compiled.entry,
            &dynamic_args(case, index),
            seed,
        ) {
            Ok(run) => run,
            Err(e) => return Semantics::Unavailable(format!("dynamic interpretation: {e}")),
        };
        if !run.bits.is_empty() {
            return Semantics::Broken(
                "measurement-free program returned classical bits".to_string(),
            );
        }
        if run.returned_qubits.len() != case.width {
            return Semantics::Broken(format!(
                "returned {} qubits, interface needs {}",
                run.returned_qubits.len(),
                case.width
            ));
        }
        match run.state.marginal_on(&run.returned_qubits, 1e-9) {
            Some(column) => columns.push(column),
            None => {
                return Semantics::Broken(format!(
                    "ancillas not returned to |0> on basis input {index} (dynamic run)"
                ))
            }
        }
    }
    Semantics::Columns(columns)
}

fn dist_from_dynamic(
    case: &GenCase,
    compiled: &Compiled,
    opts: &OracleOptions,
    seed: u64,
) -> Semantics {
    // One recorded basis input for argument-mode cases; the joint outcome
    // distribution is estimated over `dyn_shots` seeded runs.
    let args = match &case.input {
        InputMode::Prep(_) => Vec::new(),
        InputMode::Arg(bits) => vec![ArgValue::QubitsBasis(bits.clone())],
    };
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    for shot in 0..opts.dyn_shots {
        let shot_seed = seed ^ (shot as u64).wrapping_mul(0x2545_f491_4f6c_dd1d);
        let run = match run_dynamic(&compiled.module, &compiled.entry, &args, shot_seed) {
            Ok(run) => run,
            Err(e) => return Semantics::Unavailable(format!("dynamic interpretation: {e}")),
        };
        let bits: String = run.bits.iter().map(|&b| if b { '1' } else { '0' }).collect();
        *counts.entry(bits).or_default() += 1;
    }
    let support = counts.len().max(2);
    Semantics::Distribution {
        dist: normalize_counts(counts.into_iter().collect(), opts.dyn_shots),
        slack: tv_slack(opts.dyn_shots, support),
    }
}

fn normalize_counts(counts: Vec<(String, usize)>, shots: usize) -> Vec<(String, f64)> {
    let mut dist: Vec<(String, f64)> =
        counts.into_iter().map(|(k, c)| (k, c as f64 / shots as f64)).collect();
    dist.sort_by(|a, b| a.0.cmp(&b.0));
    dist
}

/// A deterministic total-variation allowance for an empirical distribution
/// of `shots` draws over roughly `support` outcomes. Generous enough that
/// correct compilations never trip it at the sweep's default sizes, tight
/// enough that a flipped bit or a wrong branch weight is far outside it.
fn tv_slack(shots: usize, support: usize) -> f64 {
    (support as f64 / shots as f64).sqrt().min(0.45)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_variation_basics() {
        let a = vec![("00".to_string(), 0.5), ("11".to_string(), 0.5)];
        let b = vec![("00".to_string(), 0.5), ("11".to_string(), 0.5)];
        assert!(total_variation(&a, &b) < 1e-12);
        let c = vec![("01".to_string(), 1.0)];
        assert!((total_variation(&a, &c) - 1.0).abs() < 1e-12);
        let d = vec![("00".to_string(), 0.6), ("11".to_string(), 0.4)];
        assert!((total_variation(&a, &d) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn broken_always_disagrees_and_unavailable_skips() {
        let broken = Semantics::Broken("dirty ancilla".to_string());
        let cols = Semantics::Columns(vec![StateVector::zero(1)]);
        assert!(matches!(compare(&broken, &cols, 1e-9), Comparison::Disagree(_)));
        let unavailable = Semantics::Unavailable("n/a".to_string());
        assert_eq!(compare(&unavailable, &cols, 1e-9), Comparison::Skipped);
        // Unavailable wins over Broken: we cannot attribute a mismatch.
        assert_eq!(compare(&unavailable, &broken, 1e-9), Comparison::Skipped);
    }
}
