//! Deterministic execution traces: record / replay for conformance
//! testing.
//!
//! A [`Trace`] is a step-by-step log of one seeded shot of a circuit,
//! executed by a deliberately simple scalar reference interpreter
//! ([`StateVector::apply_naive`] plus a seeded RNG) — the semantic
//! authority the fused / SIMD / threaded fast paths are validated
//! against. Each step records what happened (gate label, measurement
//! probability and outcome) and a quantized digest of the full state
//! vector, so two traces diverge at the *first* step where two
//! executions disagree, not merely in their final bits.
//!
//! Traces serialize to a line-oriented text form ([`Trace::to_text`] /
//! [`Trace::from_text`]) suitable for goldens under version control, and
//! [`replay_divergence`] re-executes a circuit under a golden trace's
//! seed and reports the first mismatching step — the conformance suite's
//! miscompilation detector.

use crate::state::StateVector;
use asdf_artifact::Fnv;
use asdf_qcircuit::{Circuit, CircuitOp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// Amplitudes are quantized to this grid (in units of 1) before
/// digesting, so a digest tolerates sub-grid floating-point noise while
/// still pinning the state to ~6 significant decimals.
pub(crate) const AMPLITUDE_GRID: f64 = 1e-6;

/// Probabilities are recorded quantized to millionths.
pub(crate) const PROB_GRID: f64 = 1e-6;

/// A quantized FNV-64 digest of a state vector: each amplitude's real
/// and imaginary parts are rounded to the `AMPLITUDE_GRID` and hashed
/// in order.
pub fn state_digest(state: &StateVector) -> u64 {
    let mut h = Fnv::new();
    for amp in state.amplitudes() {
        h.write_i64((amp.re / AMPLITUDE_GRID).round() as i64);
        h.write_i64((amp.im / AMPLITUDE_GRID).round() as i64);
    }
    h.finish()
}

/// One recorded execution step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A (possibly controlled) gate was applied.
    Gate {
        /// Rendered gate, e.g. `H c=[] t=[0]`.
        label: String,
        /// Post-step state digest.
        digest: u64,
    },
    /// A qubit was measured.
    Measure {
        /// Measured qubit.
        qubit: usize,
        /// Destination classical bit.
        bit: usize,
        /// Pre-collapse P(1), quantized to millionths.
        prob_one_micro: u64,
        /// The sampled outcome.
        outcome: bool,
        /// Post-step state digest.
        digest: u64,
    },
    /// A qubit was reset to |0>.
    Reset {
        /// The qubit.
        qubit: usize,
        /// The implicitly measured outcome that was corrected away.
        outcome: bool,
        /// Post-step state digest.
        digest: u64,
    },
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEvent::Gate { label, digest } => {
                write!(f, "gate {label} digest {digest:016x}")
            }
            TraceEvent::Measure { qubit, bit, prob_one_micro, outcome, digest } => {
                write!(
                    f,
                    "measure q{qubit} -> b{bit} p1 {prob_one_micro} out {} digest {digest:016x}",
                    u8::from(*outcome)
                )
            }
            TraceEvent::Reset { qubit, outcome, digest } => {
                write!(f, "reset q{qubit} out {} digest {digest:016x}", u8::from(*outcome))
            }
        }
    }
}

/// A full deterministic execution trace of one shot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Qubit count of the traced circuit.
    pub num_qubits: usize,
    /// The RNG seed the shot ran under.
    pub seed: u64,
    /// One event per circuit op, in execution order.
    pub events: Vec<TraceEvent>,
    /// Final classical bits.
    pub bits: Vec<bool>,
    /// Digest of the final state.
    pub final_digest: u64,
}

/// The first step where two executions disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Zero-based step index (`events.len()` means the divergence is in
    /// the header, the final bits, or the trace length).
    pub step: usize,
    /// What the golden trace recorded.
    pub expected: String,
    /// What the replay produced.
    pub actual: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace divergence at step {}: expected `{}`, got `{}`",
            self.step, self.expected, self.actual
        )
    }
}

fn gate_label(gate: asdf_ir::GateKind, controls: &[usize], targets: &[usize]) -> String {
    format!("{gate} c={controls:?} t={targets:?}")
}

/// Records one seeded shot of `circuit` through the scalar reference
/// interpreter. The RNG stream matches [`crate::Simulator`]'s
/// (`StdRng::seed_from_u64` consumed once per measurement and once per
/// non-trivial reset), so traces and fast-path runs of the same circuit
/// under the same seed measure the same outcomes.
pub fn record_trace(circuit: &Circuit, seed: u64) -> Trace {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut state = StateVector::zero(circuit.num_qubits);
    let mut bits = vec![false; circuit.num_bits()];
    let mut events = Vec::with_capacity(circuit.ops().len());
    for op in circuit.ops() {
        let event = match op {
            CircuitOp::Gate { gate, controls, targets } => {
                state.apply_naive(gate, controls, targets);
                TraceEvent::Gate {
                    label: gate_label(gate, controls, targets),
                    digest: state_digest(&state),
                }
            }
            CircuitOp::Measure { qubit, bit } => {
                let p1 = state.prob_one(qubit);
                let outcome = rng.gen_bool(p1.clamp(0.0, 1.0));
                state.collapse(qubit, outcome);
                bits[bit] = outcome;
                TraceEvent::Measure {
                    qubit,
                    bit,
                    prob_one_micro: (p1 / PROB_GRID).round() as u64,
                    outcome,
                    digest: state_digest(&state),
                }
            }
            CircuitOp::Reset { qubit } => {
                let p1 = state.prob_one(qubit);
                let mut outcome = false;
                if p1 > 1e-12 {
                    outcome = rng.gen_bool(p1.clamp(0.0, 1.0));
                    state.collapse(qubit, outcome);
                    if outcome {
                        state.apply_naive(asdf_ir::GateKind::X, &[], &[qubit]);
                    }
                }
                TraceEvent::Reset { qubit, outcome, digest: state_digest(&state) }
            }
        };
        events.push(event);
    }
    let final_digest = state_digest(&state);
    Trace { num_qubits: circuit.num_qubits, seed, events, bits, final_digest }
}

/// Re-executes `circuit` under `golden`'s seed and reports the first
/// step where the fresh trace disagrees with the golden one, or `None`
/// when the executions are step-for-step identical.
pub fn replay_divergence(golden: &Trace, circuit: &Circuit) -> Option<Divergence> {
    golden.diff(&record_trace(circuit, golden.seed))
}

impl Trace {
    /// The first divergence between `self` (expected) and `other`
    /// (actual), or `None` when identical.
    pub(crate) fn diff(&self, other: &Trace) -> Option<Divergence> {
        if self.num_qubits != other.num_qubits {
            return Some(Divergence {
                step: 0,
                expected: format!("{} qubits", self.num_qubits),
                actual: format!("{} qubits", other.num_qubits),
            });
        }
        for (step, (expected, actual)) in self.events.iter().zip(&other.events).enumerate() {
            if expected != actual {
                return Some(Divergence {
                    step,
                    expected: expected.to_string(),
                    actual: actual.to_string(),
                });
            }
        }
        if self.events.len() != other.events.len() {
            return Some(Divergence {
                step: self.events.len().min(other.events.len()),
                expected: format!("{} steps", self.events.len()),
                actual: format!("{} steps", other.events.len()),
            });
        }
        if self.bits != other.bits {
            return Some(Divergence {
                step: self.events.len(),
                expected: format!("bits {}", bit_string(&self.bits)),
                actual: format!("bits {}", bit_string(&other.bits)),
            });
        }
        if self.final_digest != other.final_digest {
            return Some(Divergence {
                step: self.events.len(),
                expected: format!("final digest {:016x}", self.final_digest),
                actual: format!("final digest {:016x}", other.final_digest),
            });
        }
        None
    }

    /// Serializes the trace to its line-oriented golden text form.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str("trace v1\n");
        out.push_str(&format!("qubits {}\n", self.num_qubits));
        out.push_str(&format!("seed {}\n", self.seed));
        for (step, event) in self.events.iter().enumerate() {
            out.push_str(&format!("step {step} {event}\n"));
        }
        out.push_str(&format!("bits {}\n", bit_string(&self.bits)));
        out.push_str(&format!("final {:016x}\n", self.final_digest));
        out
    }

    /// Parses the [`Trace::to_text`] form.
    ///
    /// # Errors
    ///
    /// Returns a rendered description of the first malformed line.
    pub fn from_text(text: &str) -> Result<Trace, String> {
        let mut lines = text.lines();
        expect_line(&mut lines, "trace v1")?;
        let num_qubits = field(&mut lines, "qubits")?.parse().map_err(bad("qubits"))?;
        let seed = field(&mut lines, "seed")?.parse().map_err(bad("seed"))?;
        let mut events = Vec::new();
        let mut bits = None;
        for line in lines.by_ref() {
            if let Some(rest) = line.strip_prefix("bits ") {
                bits = Some(parse_bits(rest)?);
                break;
            }
            let rest = line
                .strip_prefix("step ")
                .ok_or_else(|| format!("expected `step` or `bits` line, got {line:?}"))?;
            let (_, event) =
                rest.split_once(' ').ok_or_else(|| format!("malformed step line {line:?}"))?;
            events.push(parse_event(event)?);
        }
        let bits = bits.ok_or_else(|| "missing `bits` line".to_string())?;
        let final_line = lines.next().ok_or_else(|| "missing `final` line".to_string())?;
        let final_digest = final_line
            .strip_prefix("final ")
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or_else(|| format!("malformed final line {final_line:?}"))?;
        Ok(Trace { num_qubits, seed, events, bits, final_digest })
    }
}

fn bit_string(bits: &[bool]) -> String {
    if bits.is_empty() {
        return "-".to_string();
    }
    bits.iter().map(|&b| if b { '1' } else { '0' }).collect()
}

fn parse_bits(text: &str) -> Result<Vec<bool>, String> {
    if text == "-" {
        return Ok(Vec::new());
    }
    text.chars()
        .map(|c| match c {
            '0' => Ok(false),
            '1' => Ok(true),
            other => Err(format!("bad bit character {other:?}")),
        })
        .collect()
}

fn expect_line<'a>(
    lines: &mut impl Iterator<Item = &'a str>,
    expected: &str,
) -> Result<(), String> {
    match lines.next() {
        Some(line) if line == expected => Ok(()),
        Some(line) => Err(format!("expected {expected:?}, got {line:?}")),
        None => Err(format!("expected {expected:?}, got end of input")),
    }
}

fn field<'a>(lines: &mut impl Iterator<Item = &'a str>, name: &str) -> Result<&'a str, String> {
    let line = lines.next().ok_or_else(|| format!("missing `{name}` line"))?;
    line.strip_prefix(name)
        .and_then(|rest| rest.strip_prefix(' '))
        .ok_or_else(|| format!("expected `{name}` line, got {line:?}"))
}

fn bad(name: &'static str) -> impl Fn(std::num::ParseIntError) -> String {
    move |e| format!("bad `{name}` value: {e}")
}

fn parse_event(text: &str) -> Result<TraceEvent, String> {
    let (digest_rest, digest) =
        text.rsplit_once(" digest ").ok_or_else(|| format!("event without digest: {text:?}"))?;
    let digest =
        u64::from_str_radix(digest, 16).map_err(|e| format!("bad digest in {text:?}: {e}"))?;
    if let Some(label) = digest_rest.strip_prefix("gate ") {
        return Ok(TraceEvent::Gate { label: label.to_string(), digest });
    }
    if let Some(rest) = digest_rest.strip_prefix("measure q") {
        // `<qubit> -> b<bit> p1 <micro> out <0|1>`
        let parts: Vec<&str> = rest.split(' ').collect();
        let [qubit, "->", bit, "p1", micro, "out", out] = parts.as_slice() else {
            return Err(format!("malformed measure event {text:?}"));
        };
        return Ok(TraceEvent::Measure {
            qubit: qubit.parse().map_err(|e| format!("bad qubit in {text:?}: {e}"))?,
            bit: bit
                .strip_prefix('b')
                .and_then(|b| b.parse().ok())
                .ok_or_else(|| format!("bad bit in {text:?}"))?,
            prob_one_micro: micro.parse().map_err(|e| format!("bad p1 in {text:?}: {e}"))?,
            outcome: parse_outcome(out, text)?,
            digest,
        });
    }
    if let Some(rest) = digest_rest.strip_prefix("reset q") {
        let parts: Vec<&str> = rest.split(' ').collect();
        let [qubit, "out", out] = parts.as_slice() else {
            return Err(format!("malformed reset event {text:?}"));
        };
        return Ok(TraceEvent::Reset {
            qubit: qubit.parse().map_err(|e| format!("bad qubit in {text:?}: {e}"))?,
            outcome: parse_outcome(out, text)?,
            digest,
        });
    }
    Err(format!("unknown event kind: {text:?}"))
}

fn parse_outcome(out: &str, context: &str) -> Result<bool, String> {
    match out {
        "0" => Ok(false),
        "1" => Ok(true),
        _ => Err(format!("bad outcome in {context:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asdf_ir::GateKind;

    fn bell_pair() -> Circuit {
        let mut c = Circuit::new(2);
        c.gate(GateKind::H, &[], &[0]);
        c.gate(GateKind::X, &[0], &[1]);
        c.measure(0, 0);
        c.measure(1, 1);
        c
    }

    #[test]
    fn recording_is_deterministic_and_text_round_trips() {
        let circuit = bell_pair();
        let trace = record_trace(&circuit, 42);
        assert_eq!(trace, record_trace(&circuit, 42));
        assert_eq!(trace.events.len(), 4);
        // Bell correlations: both bits agree.
        assert_eq!(trace.bits[0], trace.bits[1]);
        let text = trace.to_text();
        let back = Trace::from_text(&text).expect("parse back");
        assert_eq!(back, trace);
        assert_eq!(back.to_text(), text);
    }

    #[test]
    fn replay_matches_itself_and_catches_sabotage() {
        let circuit = bell_pair();
        let golden = record_trace(&circuit, 7);
        assert_eq!(replay_divergence(&golden, &circuit), None);

        // Sabotage: a miscompiled H -> Z at step 0 diverges immediately.
        let mut sabotaged = Circuit::new(2);
        sabotaged.gate(GateKind::Z, &[], &[0]);
        for op in circuit.ops().skip(1) {
            sabotaged.push(op);
        }
        let divergence = replay_divergence(&golden, &sabotaged).expect("must diverge");
        assert_eq!(divergence.step, 0);
        assert!(divergence.expected.contains("gate h"), "{divergence}");

        // Sabotage: a dropped trailing op diverges on length.
        let mut truncated = Circuit::new(2);
        for op in circuit.ops().take(3) {
            truncated.push(op);
        }
        let divergence = replay_divergence(&golden, &truncated).expect("must diverge");
        assert_eq!(divergence.step, 3);
    }

    #[test]
    fn different_seeds_may_measure_differently_but_both_replay_clean() {
        let circuit = bell_pair();
        for seed in 0..8 {
            let golden = record_trace(&circuit, seed);
            assert_eq!(replay_divergence(&golden, &circuit), None, "seed {seed}");
        }
    }

    #[test]
    fn malformed_trace_text_yields_errors_not_panics() {
        for text in [
            "",
            "trace v2\nqubits 1\nseed 0\nbits -\nfinal 0",
            "trace v1\nqubits x\nseed 0\nbits -\nfinal 0",
            "trace v1\nqubits 1\nseed 0\nstep 0 warp q0 digest 00\nbits -\nfinal 0",
            "trace v1\nqubits 1\nseed 0\nbits 2\nfinal 0",
            "trace v1\nqubits 1\nseed 0\nbits -",
            "trace v1\nqubits 1\nseed 0\nbits -\nfinal zz",
        ] {
            assert!(Trace::from_text(text).is_err(), "{text:?} must not parse");
        }
    }
}
