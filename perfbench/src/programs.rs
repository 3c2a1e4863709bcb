//! The program corpus: the paper suite plus `'p'[N] | std[N].measure`,
//! with the answers each program must produce, derived here from the
//! program's parameters and never from the compiler under test.

use asdf_ast::expand::CaptureValue;
use asdf_baselines::Benchmark;
use asdf_core::{CompileOptions, CompileRequest, DecomposeStyle};
use asdf_qcircuit::Circuit;
use std::collections::HashMap;

/// `'p'[N] | std[N].measure`: N independent uniform bits.
const PLUS_SOURCE: &str = "qpu kernel[N]() -> bit[N] { 'p'[N] | std[N].measure }";

/// A compilable program with its expected interface.
#[derive(Debug, Clone)]
pub struct Program {
    pub family: &'static str,
    pub n: usize,
    /// The paper-suite parameters (`None` for `'p'[N]`).
    pub bench: Option<Benchmark>,
    pub source: String,
    pub kernel: &'static str,
    pub captures: Vec<CaptureValue>,
    pub dims: Vec<(String, i64)>,
}

impl Program {
    pub fn paper(bench: Benchmark) -> Program {
        let (source, kernel, captures, dims) = asdf_bench::qwerty_program(&bench);
        let (family, n) = match &bench {
            Benchmark::Bv { secret } => ("bv", secret.len()),
            Benchmark::Dj { n } => ("dj", *n),
            Benchmark::Grover { n, .. } => ("grover", *n),
            Benchmark::Simon { secret } => ("simon", secret.len()),
            Benchmark::Period { n, .. } => ("period", *n),
        };
        let mut dims: Vec<(String, i64)> = dims.into_iter().collect();
        dims.sort();
        Program { family, n, bench: Some(bench), source, kernel, captures, dims }
    }

    pub fn plus(n: usize) -> Program {
        Program {
            family: "p",
            n,
            bench: None,
            source: PLUS_SOURCE.to_string(),
            kernel: "kernel",
            captures: Vec::new(),
            dims: vec![("N".to_string(), n as i64)],
        }
    }

    /// A seeded member of `family` at width `n`: bv and simon draw their
    /// secrets; dj and `'p'[N]` have no parameters.
    pub fn seeded(family: &str, n: usize, rng: &mut crate::report::Rng) -> Program {
        match family {
            "bv" => Program::paper(Benchmark::Bv { secret: rng.bits(n) }),
            "dj" => Program::paper(Benchmark::Dj { n }),
            "simon" => {
                let mut secret = rng.bits(n);
                secret[0] = true;
                Program::paper(Benchmark::Simon { secret })
            }
            "p" => Program::plus(n),
            other => panic!("no seeded form for family {other}"),
        }
    }

    pub fn grover(n: usize, iterations: usize) -> Program {
        Program::paper(Benchmark::Grover { n, iterations })
    }

    /// Period finding whose oracle keeps the low `n - k` bits, so f has
    /// period 2^(n-k) and every QFT outcome is a multiple of 2^k.
    pub fn period(n: usize, k: usize) -> Program {
        Program::paper(Benchmark::Period { n, mask: (0..n).map(|i| i >= k).collect() })
    }

    pub fn request(&self, options: CompileOptions) -> CompileRequest {
        let mut request =
            CompileRequest::kernel(self.kernel).with_captures(&self.captures).with_options(options);
        for (name, value) in &self.dims {
            request = request.with_dim(name, *value);
        }
        request
    }

    pub fn dims_map(&self) -> HashMap<String, i64> {
        self.dims.iter().cloned().collect()
    }

    /// Measured bits the kernel signature fixes.
    pub fn expected_bits(&self) -> usize {
        match self.family {
            "simon" | "period" => 2 * self.n,
            _ => self.n,
        }
    }

    /// Checks the circuit against the kernel signature: every returned bit
    /// is measured, and there are at least as many qubits.
    pub fn check_circuit(&self, circuit: &Circuit) -> Result<(), String> {
        let bits = self.expected_bits();
        if circuit.num_bits() != bits {
            return Err(format!(
                "{}: {} measured bits, signature fixes {bits}",
                self.label(),
                circuit.num_bits()
            ));
        }
        if circuit.num_qubits < bits {
            return Err(format!("{}: {} qubits for {bits} bits", self.label(), circuit.num_qubits));
        }
        Ok(())
    }

    pub fn label(&self) -> String {
        match &self.bench {
            Some(Benchmark::Grover { iterations, .. }) => format!("grover{}i{iterations}", self.n),
            _ => format!("{}{}", self.family, self.n),
        }
    }

    /// Checks a measured outcome distribution (`bits`, weight) against
    /// the family's known answer.
    pub fn check_answer(&self, outcomes: &[(String, f64)]) -> Result<(), String> {
        let total: f64 = outcomes.iter().map(|(_, w)| w).sum();
        if outcomes.is_empty() || total <= 0.0 {
            return Err(format!("{}: empty outcome distribution", self.label()));
        }
        let n = self.n;
        let bad = |why: String| Err(format!("{}: {why}", self.label()));
        for (bits, _) in outcomes {
            if bits.len() != self.expected_bits() || !bits.bytes().all(|b| b == b'0' || b == b'1') {
                return bad(format!(
                    "outcome {bits:?} does not have {} bits",
                    self.expected_bits()
                ));
            }
        }
        let as_bools = |s: &str| s.bytes().map(|b| b == b'1').collect::<Vec<bool>>();
        match &self.bench {
            Some(Benchmark::Bv { secret }) => {
                if let Some((bits, _)) = outcomes.iter().find(|(b, _)| as_bools(b) != *secret) {
                    return bad(format!("outcome {bits} is not the secret"));
                }
            }
            Some(Benchmark::Dj { .. }) => {
                if outcomes.iter().any(|(b, _)| !b.contains('1')) {
                    return bad("balanced oracle gave the all-zeros outcome".into());
                }
            }
            Some(Benchmark::Grover { .. }) => {
                let marked = "1".repeat(n);
                let weight =
                    |k: &str| outcomes.iter().filter(|(b, _)| b == k).map(|(_, w)| w).sum::<f64>();
                let marked_weight = weight(&marked);
                if outcomes.iter().any(|(b, w)| *b != marked && *w >= marked_weight) {
                    return bad("the marked item is not the most likely outcome".into());
                }
            }
            Some(Benchmark::Simon { secret }) => {
                for (bits, _) in outcomes {
                    let y = as_bools(&bits[..n]);
                    let dot = y.iter().zip(secret).filter(|(a, b)| **a && **b).count();
                    if dot % 2 == 1 {
                        return bad(format!("outcome {bits} is not orthogonal to the secret"));
                    }
                }
            }
            Some(Benchmark::Period { mask, .. }) => {
                let k = mask.iter().position(|&m| m).unwrap_or(n);
                for (bits, _) in outcomes {
                    let y = u64::from_str_radix(&bits[..n], 2).map_err(|e| e.to_string())?;
                    if y % (1u64 << k) != 0 {
                        return bad(format!("outcome {bits} is not a multiple of 2^{k}"));
                    }
                }
            }
            None => {
                // Uniform over 2^n outcomes: most of them must appear.
                let support = outcomes.len();
                if n <= 8 && support * 2 <= 1usize << n {
                    return bad(format!("only {support} distinct outcomes of {}", 1usize << n));
                }
            }
        }
        Ok(())
    }
}

/// The (qubits, bits) an emitted program declares, for the backends that
/// declare them.
fn declared(backend: &str, text: &str) -> Option<(usize, usize)> {
    let number_after = |needle: &str, stop: char| -> Option<usize> {
        let start = text.find(needle)? + needle.len();
        text[start..].split(stop).next()?.parse().ok()
    };
    match backend {
        "qasm" => Some((number_after("qubit[", ']')?, number_after("\nbit[", ']')?)),
        "qir-base" => Some((
            number_after("\"required_num_qubits\"=\"", '"')?,
            number_after("\"required_num_results\"=\"", '"')?,
        )),
        _ => None,
    }
}

/// Checks that emitted text declares the `bits` measured bits the kernel
/// signature fixes, on at least as many qubits.
pub fn check_emitted(backend: &str, text: &str, bits: usize) -> Result<(), String> {
    if backend == "qir-unrestricted" {
        return if text.contains("define") { Ok(()) } else { Err("no QIR definition".into()) };
    }
    match declared(backend, text) {
        Some((q, b)) if b == bits && q >= bits => Ok(()),
        Some((q, b)) => {
            Err(format!("{backend} output declares {q} qubits and {b} bits, not {bits} bits"))
        }
        None => Err(format!("{backend} output declares no qubit and bit counts")),
    }
}

/// Parses the `sim` backend's text: either the exact distribution
/// (`bits probability`) or sampled counts (`bits count`).
pub fn parse_sim_text(text: &str) -> Result<Vec<(String, f64)>, String> {
    let mut lines = text.lines();
    let header = lines.next().unwrap_or_default();
    if !header.starts_with("# exact measurement distribution")
        && !header.starts_with("# sampled counts")
    {
        return Err(format!("unexpected sim header {header:?}"));
    }
    lines
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            let mut parts = l.split_whitespace();
            match (parts.next(), parts.next().and_then(|w| w.parse::<f64>().ok())) {
                (Some(bits), Some(weight)) => Ok((bits.to_string(), weight)),
                _ => Err(format!("bad sim line {l:?}")),
            }
        })
        .collect()
}

/// The options JSON for a server request.
fn options_json(options: &CompileOptions) -> String {
    let decompose = match options.decompose {
        None => "none",
        Some(DecomposeStyle::Selinger) => "selinger",
        Some(DecomposeStyle::VChain) => "vchain",
    };
    let mut out = format!(
        "{{\"peephole\":{},\"inline\":{},\"decompose\":\"{decompose}\"",
        options.peephole, options.inline
    );
    if let Some(target) = &options.target {
        out.push_str(&format!(",\"target\":\"{target}\""));
    }
    out.push('}');
    out
}

fn capture_json(capture: &CaptureValue) -> String {
    match capture {
        CaptureValue::Bits(bits) => {
            let s: String = bits.iter().map(|&b| if b { '1' } else { '0' }).collect();
            format!("{{\"bits\":\"{s}\"}}")
        }
        CaptureValue::CFunc { name, captures } => {
            let inner: Vec<String> = captures.iter().map(capture_json).collect();
            format!("{{\"cfunc\":{{\"name\":\"{name}\",\"captures\":[{}]}}}}", inner.join(","))
        }
    }
}

/// A server request line for `program`: `op` is `compile`, `lint` or
/// `emit` (with `backend`). `source` overrides the program's text.
pub fn request_line(
    program: &Program,
    source: &str,
    op: &str,
    backend: Option<&str>,
    options: &CompileOptions,
) -> String {
    let captures: Vec<String> = program.captures.iter().map(capture_json).collect();
    let dims: Vec<String> = program.dims.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    let backend = backend.map(|b| format!(",\"backend\":\"{b}\"")).unwrap_or_default();
    format!(
        "{{\"op\":\"{op}\"{backend},\"source\":\"{}\",\"kernel\":\"{}\",\"captures\":[{}],\"dims\":{{{}}},\"options\":{}}}",
        crate::json::escape(source),
        program.kernel,
        captures.join(","),
        dims.join(","),
        options_json(options)
    )
}
