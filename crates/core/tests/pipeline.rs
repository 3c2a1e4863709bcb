//! End-to-end pipeline tests: Qwerty source → circuit → simulation.
//!
//! These validate the algorithm-level postconditions the paper's
//! benchmarks rely on (§8.1): Bernstein–Vazirani recovers the secret
//! string, Deutsch–Jozsa distinguishes balanced oracles, Grover amplifies
//! the marked item, Simon's samples satisfy y·s = 0, and the synthesized
//! basis translations implement the advertised unitaries.

use asdf_ast::expand::CaptureValue;
use asdf_core::{CompileOptions, Compiled, Compiler};
use asdf_sim::{sample, Simulator};

fn compile(src: &str, kernel: &str, captures: Vec<CaptureValue>) -> Compiled {
    Compiler::compile(src, kernel, &captures, &CompileOptions::default()).unwrap()
}

const BV_SRC: &str = r"
    classical f[N](secret: bit[N], x: bit[N]) -> bit {
        (secret & x).xor_reduce()
    }
    qpu kernel[N](f: cfunc[N, 1]) -> bit[N] {
        'p'[N] | f.sign | pm[N] >> std[N] | std[N].measure
    }
";

fn bv_captures(secret: &str) -> Vec<CaptureValue> {
    vec![CaptureValue::CFunc {
        name: "f".into(),
        captures: vec![CaptureValue::bits_from_str(secret)],
    }]
}

#[test]
fn bernstein_vazirani_recovers_secret() {
    for secret in ["1010", "1111", "0001", "110011"] {
        let compiled = compile(BV_SRC, "kernel", bv_captures(secret));
        let circuit = compiled.circuit.expect("BV fully inlines");
        // BV is deterministic: every shot yields the secret.
        let counts = sample(&circuit, 16, 97);
        assert_eq!(counts.len(), 1, "secret {secret}: {counts:?}");
        assert_eq!(counts[secret], 16, "secret {secret}");
    }
}

#[test]
fn bv_inlines_to_zero_callables() {
    let compiled = compile(BV_SRC, "kernel", bv_captures("1010"));
    // Fully inlined: exactly one function, no callable ops (Table 1's
    // Asdf (Opt) row).
    assert_eq!(compiled.module.len(), 1);
    let func = compiled.module.func("kernel").unwrap();
    for op in &func.body.ops {
        assert!(
            !matches!(
                op.kind,
                asdf_ir::OpKind::CallableCreate { .. } | asdf_ir::OpKind::CallableInvoke
            ),
            "unexpected callable op"
        );
    }
}

#[test]
fn deutsch_jozsa_balanced_oracle() {
    let src = r"
        classical balanced[N](x: bit[N]) -> bit { x.xor_reduce() }
        qpu dj[N](f: cfunc[N, 1]) -> bit[N] {
            'p'[N] | f.sign | pm[N] >> std[N] | std[N].measure
        }
    ";
    let captures = vec![CaptureValue::CFunc { name: "balanced".into(), captures: vec![] }];
    let compiled =
        Compiler::compile(src, "dj", &captures, &CompileOptions::default().with_dim("N", 5))
            .unwrap();
    let circuit = compiled.circuit.unwrap();
    // Balanced oracle: the all-zeros outcome has zero probability; the
    // parity oracle in fact always yields all-ones.
    let counts = sample(&circuit, 32, 3);
    assert_eq!(counts.len(), 1);
    assert_eq!(counts["11111"], 32);
}

#[test]
fn grover_amplifies_marked_item() {
    let src = r"
        classical oracle[N](x: bit[N]) -> bit { x.and_reduce() }
        qpu grover[N](f: cfunc[N, 1]) -> bit[N] {
            'p'[N] | (f.sign | {'p'[N]} >> {-'p'[N]}) ** 3 | std[N].measure
        }
    ";
    let captures = vec![CaptureValue::CFunc { name: "oracle".into(), captures: vec![] }];
    let compiled =
        Compiler::compile(src, "grover", &captures, &CompileOptions::default().with_dim("N", 4))
            .unwrap();
    let circuit = compiled.circuit.unwrap();
    // After 3 iterations on 4 qubits, P(|1111>) ~ 0.96.
    let counts = sample(&circuit, 200, 11);
    let hits = counts.get("1111").copied().unwrap_or(0);
    assert!(hits > 150, "Grover peak too weak: {counts:?}");
}

#[test]
fn simon_samples_are_orthogonal_to_secret() {
    let src = r"
        classical f[N](s: bit[N], x: bit[N]) -> bit[N] {
            x ^ (x[0].repeat(N) & s)
        }
        qpu simon[N](f: cfunc[N, N]) -> bit[2*N] {
            'p'[N] + '0'[N] | f.xor | (pm[N] >> std[N]) + id[N] | std[2*N].measure
        }
    ";
    // Secret s = 110 (nonzero, s[0] = 1 so f(x) = f(x XOR s)).
    let secret = [true, true, false];
    let captures = vec![CaptureValue::CFunc {
        name: "f".into(),
        captures: vec![CaptureValue::bits_from_str("110")],
    }];
    let compiled = Compiler::compile(src, "simon", &captures, &CompileOptions::default()).unwrap();
    let circuit = compiled.circuit.unwrap();
    let mut sim = Simulator::new(23);
    let mut nontrivial = 0;
    for _ in 0..64 {
        let result = sim.run(&circuit);
        let y = &result.bits[..3];
        let dot = y.iter().zip(&secret).fold(false, |acc, (&a, &b)| acc ^ (a && b));
        assert!(!dot, "Simon sample y={y:?} not orthogonal to s");
        if y.iter().any(|&b| b) {
            nontrivial += 1;
        }
    }
    assert!(nontrivial > 10, "Simon should produce nontrivial equations");
}

#[test]
fn period_finding_qft_runs() {
    // QFT-based period finding with a bitmask oracle (§8.1): the oracle
    // keeps the low bits, giving period 2^(masked bits).
    let src = r"
        classical f[N](mask: bit[N], x: bit[N]) -> bit[N] { x & mask }
        qpu period[N](f: cfunc[N, N]) -> bit[2*N] {
            'p'[N] + '0'[N] | f.xor | fourier[N].measure + std[N].measure
        }
    ";
    // Mask 011 keeps the low two bits, so f(x + 4) = f(x): additive
    // period 4 on a 3-bit register, frequency spacing 8/4 = 2.
    let captures = vec![CaptureValue::CFunc {
        name: "f".into(),
        captures: vec![CaptureValue::bits_from_str("011")],
    }];
    let compiled = Compiler::compile(src, "period", &captures, &CompileOptions::default()).unwrap();
    let circuit = compiled.circuit.unwrap();
    let counts = sample(&circuit, 128, 31);
    let mut nonzero = 0usize;
    for (bits, n) in &counts {
        let y = usize::from_str_radix(&bits[..3], 2).unwrap();
        assert_eq!(y % 2, 0, "QFT output {bits} not a multiple of the period frequency");
        if y != 0 {
            nonzero += n;
        }
    }
    assert!(nonzero > 20, "period finding should yield nonzero frequencies: {counts:?}");
}

#[test]
fn swap_translation_is_swap() {
    let src = r"
        qpu swapper(qs: qubit[2]) -> bit[2] {
            qs | {'01','10'} >> {'10','01'} | std[2].measure
        }
    ";
    let compiled = compile(src, "swapper", vec![]);
    let circuit = compiled.circuit.unwrap();
    // Prepare |01>: measurement must read |10>.
    let with_prep = circuit.with_basis_input(&[false, true]);
    let counts = sample(&with_prep, 8, 5);
    assert_eq!(counts.len(), 1);
    assert!(counts.contains_key("10"), "{counts:?}");
}

#[test]
fn predicated_flip_is_cnot() {
    let src = r"
        qpu cnot(qs: qubit[2]) -> bit[2] {
            qs | '1' & std.flip | std[2].measure
        }
    ";
    let compiled = compile(src, "cnot", vec![]);
    let circuit = compiled.circuit.unwrap();
    // |10> -> |11>, |00> -> |00>.
    let flipped = circuit.with_basis_input(&[true]);
    let counts = sample(&flipped, 8, 5);
    assert_eq!(counts.len(), 1);
    assert!(counts.contains_key("11"), "{counts:?}");
    let counts = sample(&circuit, 8, 5);
    assert!(counts.contains_key("00"), "{counts:?}");
}

#[test]
fn grover_diffuser_matches_fig8() {
    // {'p'[3]} >> {-'p'[3]} applied to |000> flips nothing observable, but
    // applied to |+++> it gives -|+++>; check via interference: the
    // diffuser conjugated into std space maps |000> to |000> minus
    // amplitude elsewhere. Simplest observable check: diffuser twice is
    // identity.
    let src = r"
        qpu diffuse(qs: qubit[3]) -> bit[3] {
            qs | ({'p'[3]} >> {-'p'[3]}) ** 2 | std[3].measure
        }
    ";
    let compiled = compile(src, "diffuse", vec![]);
    let circuit = compiled.circuit.unwrap();
    let counts = sample(&circuit, 16, 9);
    assert_eq!(counts.len(), 1);
    assert!(counts.contains_key("000"), "diffuser^2 = identity, got {counts:?}");
}

#[test]
fn adjoint_undoes_translation() {
    let src = r"
        qpu roundtrip(q: qubit) -> bit[1] {
            q | std >> pm | ~(std >> pm) | std.measure
        }
    ";
    let compiled = compile(src, "roundtrip", vec![]);
    let circuit = compiled.circuit.unwrap();
    let counts = sample(&circuit, 16, 9);
    assert_eq!(counts.len(), 1);
    assert!(counts.contains_key("0"), "{counts:?}");
}

#[test]
fn no_opt_configuration_emits_callables() {
    let compiled =
        Compiler::compile(BV_SRC, "kernel", &bv_captures("1010"), &CompileOptions::no_opt())
            .unwrap();
    // Without inlining, the functional structure survives as callables
    // (Table 1's Asdf (No Opt) row has nonzero counts).
    let mut creates = 0;
    let mut invokes = 0;
    for func in compiled.module.funcs() {
        for path in func.block_paths() {
            for op in &func.block_at(&path).ops {
                match op.kind {
                    asdf_ir::OpKind::CallableCreate { .. } => creates += 1,
                    asdf_ir::OpKind::CallableInvoke => invokes += 1,
                    _ => {}
                }
            }
        }
    }
    assert!(creates > 0, "no-opt should create callables");
    assert!(invokes > 0, "no-opt should invoke callables");
    assert!(compiled.circuit.is_none(), "no-opt kernels are not straight-line");
}

#[test]
fn fourier_roundtrip_is_identity() {
    let src = r"
        qpu ft(qs: qubit[3]) -> bit[3] {
            qs | std[3] >> fourier[3] | fourier[3] >> std[3] | std[3].measure
        }
    ";
    let compiled = compile(src, "ft", vec![]);
    let circuit = compiled.circuit.unwrap();
    let with_prep = circuit.with_basis_input(&[false, false, true]);
    let counts = sample(&with_prep, 16, 2);
    assert_eq!(counts.len(), 1);
    assert!(counts.contains_key("001"), "{counts:?}");
}
