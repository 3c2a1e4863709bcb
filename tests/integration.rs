//! Cross-crate integration tests exercising the facade: source → compiler
//! → codegen → simulation → estimation, plus the paper's worked examples.

use qwerty_asdf::ast::expand::CaptureValue;
use qwerty_asdf::baselines::{build_circuit, optimize, BaselineStyle, Benchmark};
use qwerty_asdf::codegen::count_callable_intrinsics;
use qwerty_asdf::core::{CompileOptions, CompileRequest, Compiler, Session};
use qwerty_asdf::ir::GateKind;
use qwerty_asdf::resource::{estimate, SurfaceCodeParams};
use qwerty_asdf::sim::{run_dynamic, sample, ArgValue, Complex};

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
fn fig1_program_full_pipeline() {
    let session = Session::new(BV_SRC).unwrap();
    let request = CompileRequest::kernel("kernel").with_captures(&bv_captures("10110"));
    let compiled = session.compile(&request).unwrap();
    let circuit = compiled.circuit.clone().expect("inlines");

    // OpenQASM 3 output through the backend registry.
    let qasm = session.emit(&compiled, "qasm").unwrap();
    assert!(qasm.contains("OPENQASM 3.0"));
    assert!(qasm.matches("measure").count() >= 5);

    // Base-profile QIR.
    let qir = session.emit(&compiled, "qir-base").unwrap();
    assert!(qir.contains("base_profile"));
    assert_eq!(count_callable_intrinsics(&qir), (0, 0));

    // The sim backend agrees with direct sampling: the secret is the only
    // outcome (ancilla resets force the seeded-sampling path, so the text
    // is counts, not probabilities — still deterministic).
    let sim_text = session.emit(&compiled, "sim").unwrap();
    let outcomes: Vec<&str> = sim_text.lines().filter(|l| !l.starts_with('#')).collect();
    assert_eq!(outcomes, ["10110 4096"], "{sim_text}");
    let counts = sample(&circuit, 20, 3);
    assert_eq!(counts["10110"], 20);

    // Resource estimation produces sane magnitudes.
    let est = estimate(&circuit, &SurfaceCodeParams::default());
    assert!(est.physical_qubits > 1000);
    assert!(est.runtime_us > 0.0);

    // The compile recorded one row per stage: the frontend's, the whole
    // declared pass sequence, then circuit lowering and decompose (names
    // in order, nonzero work overall).
    let ran: Vec<&str> = compiled.stats.iter().map(|p| p.name.as_str()).collect();
    let pipeline = CompileOptions::default().pipeline().pass_names();
    let expected: Vec<&str> =
        ["ast.instantiate", "ast.typecheck", "ast.canonicalize", "core.lower"]
            .into_iter()
            .chain(pipeline.iter().map(String::as_str))
            .chain(["qcircuit.lower_to_circuit", "qcircuit.decompose"])
            .collect();
    assert_eq!(ran, expected);
    assert!(
        compiled.stats.iter().map(|p| p.changes).sum::<usize>() > 0,
        "the BV pipeline does real work"
    );
}

#[test]
fn teleportation_through_dynamic_interpreter() {
    // Fig. C13 (with the mathematically consistent correction pairing for
    // this bit ordering).
    let source = r"
        qpu teleport(secret: qubit) -> qubit {
            let alice, bob = 'p0' | '1' & std.flip;
            let m_pm, m_std = secret + alice | '1' & std.flip | (pm + std).measure;
            bob | (pm.flip if m_pm else id) | (std.flip if m_std else id)
        }
    ";
    let theta: f64 = 0.7;
    let a0 = Complex::new(theta.cos(), 0.0);
    let a1 = Complex::new(theta.sin(), 0.0);
    // The matrix holds the default options (`opt+peep+selinger`) and
    // No-Opt (`noopt+nopeep+whole`). Under No-Opt the corrections stay
    // lifted functions, so each `scf.if` yields a callable.
    for (name, options) in CompileOptions::matrix() {
        let compiled = Compiler::compile(source, "teleport", &[], &options)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(compiled.circuit.is_none(), "{name}: conditionals prevent a static circuit");
        for seed in 0..24 {
            let run = run_dynamic(&compiled.module, "teleport", &[ArgValue::Qubit(a0, a1)], seed)
                .unwrap();
            let out = run.returned_qubits[0];
            let mut state = run.state;
            state.apply(GateKind::Ry(-2.0 * theta), &[], &[out]);
            assert!(state.prob_one(out) < 1e-9, "{name}, seed {seed}");
        }
    }
}

#[test]
fn asdf_and_baselines_agree_on_bv_outcome() {
    // All four compilers implement the same algorithm: every one recovers
    // the same secret.
    let secret = "110100";
    let compiled =
        Compiler::compile(BV_SRC, "kernel", &bv_captures(secret), &CompileOptions::default())
            .unwrap();
    let asdf = compiled.circuit.unwrap();
    let counts = sample(&asdf, 8, 9);
    assert!(counts.contains_key(secret));

    let bench = Benchmark::Bv { secret: secret.chars().map(|c| c == '1').collect() };
    for style in [BaselineStyle::Qiskit, BaselineStyle::QSharp, BaselineStyle::Quipper] {
        let circuit = optimize(&build_circuit(&bench, style));
        let counts = sample(&circuit, 8, 9);
        assert!(counts.contains_key(secret), "style {style:?}");
    }
}

#[test]
fn no_opt_qir_matches_table1_contract() {
    let session = Session::new(BV_SRC).unwrap();
    let request = CompileRequest::kernel("kernel")
        .with_captures(&bv_captures("1010"))
        .with_options(CompileOptions::no_opt());
    let compiled = session.compile(&request).unwrap();
    let qir = session.emit(&compiled, "qir-unrestricted").unwrap();
    let (creates, invokes) = count_callable_intrinsics(&qir);
    // The paper's BV row for Asdf (No Opt) is 3 / 3.
    assert_eq!((creates, invokes), (3, 3));
}

#[test]
fn session_shares_frontend_across_the_options_matrix() {
    // The difftest scenario: one source, every configuration. The first
    // request does the frontend work; the rest reuse it.
    let session = Session::new(BV_SRC).unwrap();
    let base = CompileRequest::kernel("kernel").with_captures(&bv_captures("1011"));
    let matrix = CompileOptions::matrix();
    let configs = matrix.len() as u64;
    for (_, options) in matrix {
        session.compile(&base.clone().with_options(options)).unwrap();
    }
    let stats = session.cache_stats();
    assert_eq!(stats.frontend_misses, 1);
    assert_eq!(stats.frontend_hits, configs - 1);
    assert_eq!(stats.artifact_misses, configs, "every configuration is a distinct artifact");
    assert_eq!(stats.artifact_hits, 0);
}

#[test]
fn adjoint_and_predication_compose() {
    // ~({'11'} & (std >> pm)) round-trips through AST canonicalization,
    // predication, adjoint generation, inlining, and synthesis.
    let source = r"
        qpu k(qs: qubit[3]) -> bit[3] {
            qs | {'11'} & (std >> pm) | ~({'11'} & (std >> pm)) | std[3].measure
        }
    ";
    let compiled = Compiler::compile(source, "k", &[], &CompileOptions::default()).unwrap();
    let circuit = compiled.circuit.unwrap();
    // Identity circuit: measuring |000> stays |000>.
    let counts = sample(&circuit, 16, 5);
    assert_eq!(counts.len(), 1);
    assert!(counts.contains_key("000"));
}

#[test]
fn fig3_translation_compiles_and_is_unitary() {
    // The Fig. 3 worked example as a runnable translation.
    let source = r"
        qpu k(qs: qubit[6]) -> bit[6] {
            qs | {'p'} + fourier[3] + {'1'@45} + pm >> {-'p'} + std[2] + ij + {-'11','10'}
               | ~({'p'} + fourier[3] + {'1'@45} + pm >> {-'p'} + std[2] + ij + {-'11','10'})
               | std[6].measure
        }
    ";
    let compiled = Compiler::compile(source, "k", &[], &CompileOptions::default()).unwrap();
    let circuit = compiled.circuit.unwrap();
    // Translation then its adjoint is the identity on |000000>.
    let counts = sample(&circuit, 8, 11);
    assert!(counts.contains_key("000000"), "{counts:?}");
}

#[test]
fn grover_baseline_shape_holds_end_to_end() {
    let bench = Benchmark::Grover { n: 6, iterations: 4 };
    let params = SurfaceCodeParams::default();
    let t = |style| estimate(&optimize(&build_circuit(&bench, style)), &params).t_states;
    assert!(t(BaselineStyle::QSharp) < t(BaselineStyle::Qiskit));
    assert!(t(BaselineStyle::QSharp) < t(BaselineStyle::Quipper));
}

#[test]
fn deutsch_jozsa_constant_vs_balanced() {
    // A constant oracle: f(x) = x0 AND NOT x0 = 0 is rejected by the type
    // checker? No — it folds to constant false, which .sign handles as a
    // global no-op; DJ should then measure all-zeros.
    let src = r"
        classical constant[N](x: bit[N]) -> bit { (x ^ x).xor_reduce() }
        qpu dj[N](f: cfunc[N, 1]) -> bit[N] {
            'p'[N] | f.sign | pm[N] >> std[N] | std[N].measure
        }
    ";
    let captures = vec![CaptureValue::CFunc { name: "constant".into(), captures: vec![] }];
    let compiled =
        Compiler::compile(src, "dj", &captures, &CompileOptions::default().with_dim("N", 4))
            .unwrap();
    let counts = sample(&compiled.circuit.unwrap(), 16, 2);
    assert_eq!(counts.len(), 1);
    assert!(counts.contains_key("0000"), "constant oracle yields all zeros");
}

#[test]
fn ghz_via_predicated_flips() {
    let source = r"
        qpu ghz() -> bit[3] {
            'p' + '00' | ('1' & std.flip) + id | id + ('1' & std.flip) | std[3].measure
        }
    ";
    let compiled = Compiler::compile(source, "ghz", &[], &CompileOptions::default()).unwrap();
    let counts = sample(&compiled.circuit.unwrap(), 400, 21);
    assert!(counts.keys().all(|k| k == "000" || k == "111"), "{counts:?}");
    assert!(counts["000"] > 120 && counts["111"] > 120);
}

#[test]
fn fig_e14_inseparable_fourier_roundtrip() {
    // std + fourier[3] >> fourier[3] + std (Fig. E14): the inseparable
    // Fourier elements force conditional IQFT/QFT with padding; applying
    // the translation then its adjoint is the identity.
    let source = r"
        qpu k(qs: qubit[4]) -> bit[4] {
            qs | std + fourier[3] >> fourier[3] + std
               | ~(std + fourier[3] >> fourier[3] + std)
               | std[4].measure
        }
    ";
    let compiled = Compiler::compile(source, "k", &[], &CompileOptions::default()).unwrap();
    let circuit = compiled.circuit.unwrap();
    let counts = sample(&circuit, 8, 17);
    assert_eq!(counts.len(), 1);
    assert!(counts.contains_key("0000"), "{counts:?}");
}

#[test]
fn fourier_translation_acts_as_qft() {
    // std[2] >> fourier[2] maps |k> to the k-th Fourier vector; measuring
    // in fourier must then read back k deterministically.
    let source = r"
        qpu k() -> bit[2] {
            '10' | std[2] >> fourier[2] | fourier[2].measure
        }
    ";
    let compiled = Compiler::compile(source, "k", &[], &CompileOptions::default()).unwrap();
    let counts = sample(&compiled.circuit.unwrap(), 16, 19);
    assert_eq!(counts.len(), 1);
    assert!(counts.contains_key("10"), "{counts:?}");
}

#[test]
fn qasm_output_is_stable_for_bell_pair() {
    let source = r"
        qpu bell() -> bit[2] {
            'p' + '0' | ('1' & std.flip) | std[2].measure
        }
    ";
    let session = Session::new(source).unwrap();
    let compiled = session.compile(&CompileRequest::kernel("bell")).unwrap();
    let qasm = session.emit(&compiled, "qasm").unwrap();
    // Golden structure: one H, one CX, two measurements.
    assert_eq!(qasm.matches("h q[").count(), 1, "{qasm}");
    assert_eq!(qasm.matches("cx q[").count(), 1, "{qasm}");
    assert_eq!(qasm.matches("measure").count(), 2, "{qasm}");
}

#[test]
fn kernel_composition_via_reference() {
    // A kernel referencing another kernel as a function value exercises
    // func_const + cross-function inlining.
    let source = r"
        qpu flip_all(qs: qubit[2]) -> qubit[2] {
            qs | std[2] >> {'11','10','01','00'}
        }
        qpu main() -> bit[2] {
            '00' | flip_all | std[2].measure
        }
    ";
    let compiled = Compiler::compile(source, "main", &[], &CompileOptions::default()).unwrap();
    let counts = sample(&compiled.circuit.unwrap(), 8, 23);
    assert_eq!(counts.len(), 1);
    assert!(counts.contains_key("11"), "{counts:?}");
}

#[test]
fn vector_phase_interference_is_observable() {
    // {'0'} >> {'0'@180} flips the relative phase of |0>; sandwiched in
    // H gates this turns |0> into |1> (a Z between Hadamards).
    let source = r"
        qpu k() -> bit[1] {
            '0' | std >> pm | {'0'} >> {-'0'} | pm >> std | std.measure
        }
    ";
    let compiled = Compiler::compile(source, "k", &[], &CompileOptions::default()).unwrap();
    let counts = sample(&compiled.circuit.unwrap(), 16, 29);
    assert_eq!(counts.len(), 1);
    assert!(counts.contains_key("1"), "{counts:?}");
}

#[test]
fn ij_basis_roundtrip() {
    let source = r"
        qpu k(q: qubit) -> bit[1] {
            q | std >> ij | ij >> std | std.measure
        }
    ";
    let compiled = Compiler::compile(source, "k", &[], &CompileOptions::default()).unwrap();
    let circuit = compiled.circuit.unwrap();
    let with_prep = circuit.with_basis_input(&[true]);
    let counts = sample(&with_prep, 16, 31);
    assert_eq!(counts.len(), 1);
    assert!(counts.contains_key("1"), "{counts:?}");
}
