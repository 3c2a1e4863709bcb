//! Cache-correctness tests for the session API: identical requests share
//! one artifact; changing *any* key component (source, kernel, captures,
//! dims, options) misses; the LRU bound holds.

use asdf_ast::CaptureValue;
use asdf_core::{CompileOptions, CompileRequest, Session};
use std::sync::Arc;

const BV_SRC: &str = r"
    classical f[N](secret: bit[N], x: bit[N]) -> bit {
        (secret & x).xor_reduce()
    }
    qpu kernel[N](f: cfunc[N, 1]) -> bit[N] {
        'p'[N] | f.sign | pm[N] >> std[N] | std[N].measure
    }
    qpu other[N](f: cfunc[N, 1]) -> bit[N] {
        'p'[N] | f.sign | std[N].measure
    }
";

fn bv_request(secret: &str) -> CompileRequest {
    CompileRequest::kernel("kernel").with_capture(CaptureValue::CFunc {
        name: "f".into(),
        captures: vec![CaptureValue::bits_from_str(secret)],
    })
}

#[test]
fn same_request_twice_returns_the_identical_artifact() {
    let session = Session::new(BV_SRC).unwrap();
    let first = session.compile(&bv_request("101")).unwrap();
    let second = session.compile(&bv_request("101")).unwrap();
    assert!(Arc::ptr_eq(&first, &second), "cache hit must share the allocation");
    let stats = session.cache_stats();
    assert_eq!((stats.artifact_misses, stats.artifact_hits), (1, 1));
    assert_eq!((stats.frontend_misses, stats.frontend_hits), (1, 0));
}

/// The row names of an artifact's compile record, in order.
fn rows(compiled: &asdf_core::Compiled) -> Vec<&str> {
    compiled.stats.iter().map(|p| p.name.as_str()).collect()
}

const FRONTEND_ROWS: [&str; 4] =
    ["ast.instantiate", "ast.typecheck", "ast.canonicalize", "core.lower"];

/// The frontend's rows, the rows of the pipeline `options` select, then
/// `tail`.
fn expected_rows(options: &CompileOptions, tail: &[&str]) -> Vec<String> {
    let named = |rows: &[&str]| rows.iter().map(|r| r.to_string()).collect::<Vec<_>>();
    [named(&FRONTEND_ROWS), options.pipeline().pass_names(), named(tail)].concat()
}

#[test]
fn a_linted_routed_compile_records_every_stage_in_order() {
    let session = Session::new(BV_SRC).unwrap();
    let options = CompileOptions { target: Some("linear-16".into()), ..CompileOptions::default() };
    let request = bv_request("101").with_options(options.with_lints(true));
    let compiled = session.compile(&request).unwrap();
    let tail = ["analysis.lint", "qcircuit.lower_to_circuit", "qcircuit.decompose", "target.route"];
    assert_eq!(rows(&compiled), expected_rows(&request.options, &tail));
    // Only the pipeline's passes report changes.
    let pipeline = request.options.pipeline().pass_names();
    assert!(compiled.stats.iter().filter(|p| !pipeline.contains(&p.name)).all(|p| p.changes == 0));
}

#[test]
fn a_no_opt_compile_has_no_decompose_row() {
    let session = Session::new(BV_SRC).unwrap();
    let request = bv_request("101").with_options(CompileOptions::no_opt());
    let compiled = session.compile(&request).unwrap();
    assert_eq!(rows(&compiled), expected_rows(&request.options, &["qcircuit.lower_to_circuit"]));
}

#[test]
fn requests_differing_only_in_options_share_the_frontend_rows() {
    let session = Session::new(BV_SRC).unwrap();
    let opt = session.compile(&bv_request("101")).unwrap();
    let no_opt =
        session.compile(&bv_request("101").with_options(CompileOptions::no_opt())).unwrap();
    let stats = session.cache_stats();
    assert_eq!((stats.frontend_misses, stats.frontend_hits), (1, 1));
    // The shared frontend ran once: both artifacts carry its rows,
    // durations included.
    assert_eq!(opt.stats.passes[..4], no_opt.stats.passes[..4]);
    assert_eq!(rows(&no_opt)[..4], FRONTEND_ROWS);
}

#[test]
fn every_key_component_participates_in_addressing() {
    let session = Session::new(BV_SRC).unwrap();
    let base = session.compile(&bv_request("101")).unwrap();

    // Different kernel: miss.
    let other = session
        .compile(&bv_request("101").clone())
        .and(session.compile(&CompileRequest::kernel("other").with_capture(CaptureValue::CFunc {
            name: "f".into(),
            captures: vec![CaptureValue::bits_from_str("101")],
        })))
        .unwrap();
    assert!(!Arc::ptr_eq(&base, &other));

    // Different captures: miss (and a genuinely different circuit).
    let flipped = session.compile(&bv_request("011")).unwrap();
    assert!(!Arc::ptr_eq(&base, &flipped));
    assert_ne!(base.circuit, flipped.circuit, "different secrets compile differently");

    // Different options: miss.
    let no_opt =
        session.compile(&bv_request("101").with_options(CompileOptions::no_opt())).unwrap();
    assert!(!Arc::ptr_eq(&base, &no_opt));

    // Same logical request again: still a hit after all the misses.
    let again = session.compile(&bv_request("101")).unwrap();
    assert!(Arc::ptr_eq(&base, &again));
}

#[test]
fn explicit_dims_are_part_of_the_key() {
    let src = r"
        classical balanced[N](x: bit[N]) -> bit { x.xor_reduce() }
        qpu dj[N](f: cfunc[N, 1]) -> bit[N] {
            'p'[N] | f.sign | pm[N] >> std[N] | std[N].measure
        }
    ";
    let session = Session::new(src).unwrap();
    let request = CompileRequest::kernel("dj")
        .with_capture(CaptureValue::CFunc { name: "balanced".into(), captures: vec![] });
    let n3 = session.compile(&request.clone().with_dim("N", 3)).unwrap();
    let n5 = session.compile(&request.clone().with_dim("N", 5)).unwrap();
    assert!(!Arc::ptr_eq(&n3, &n5));
    // The oracle synthesis may add ancillas, so compare relatively: the
    // N=5 instance is strictly wider and measures five bits.
    let (q3, q5) = (n3.circuit.as_ref().unwrap(), n5.circuit.as_ref().unwrap());
    assert!(q3.num_qubits >= 3 && q5.num_qubits >= 5 && q5.num_qubits > q3.num_qubits);
    assert_eq!(q3.num_bits(), 3);
    assert_eq!(q5.num_bits(), 5);
    // Binding the dim through options instead of the request addresses the
    // same content.
    let via_options = session
        .compile(&request.clone().with_options(CompileOptions::default().with_dim("N", 3)))
        .unwrap();
    assert!(Arc::ptr_eq(&n3, &via_options), "equal effective dims hit the same entry");
}

#[test]
fn different_sessions_have_different_source_hashes() {
    let a = Session::new("qpu k() -> bit[1] { '0' | std.measure }").unwrap();
    let b = Session::new("qpu k() -> bit[1] { '1' | std.measure }").unwrap();
    assert_ne!(a.source_hash(), b.source_hash(), "cache keys are content-addressed");
    let ca = a.compile(&CompileRequest::kernel("k")).unwrap();
    let cb = b.compile(&CompileRequest::kernel("k")).unwrap();
    assert_ne!(ca.circuit, cb.circuit);
}

#[test]
fn lru_eviction_bounds_memory() {
    // Capacity 2 artifacts; 8 distinct requests.
    let session =
        Session::builder(BV_SRC).frontend_capacity(2).artifact_capacity(2).build().unwrap();
    for width in 1..=8u32 {
        let secret: String = "1".repeat(width as usize);
        session.compile(&bv_request(&secret)).unwrap();
    }
    let (frontend_len, artifact_len) = session.cache_len();
    assert!(frontend_len <= 2, "frontend cache bounded, got {frontend_len}");
    assert!(artifact_len <= 2, "artifact cache bounded, got {artifact_len}");
    let stats = session.cache_stats();
    assert_eq!(stats.artifact_misses, 8);
    assert!(stats.evictions >= 12, "both caches evicted, got {}", stats.evictions);

    // Most-recent entries survive; the oldest was evicted and recompiles.
    let recent = session.compile(&bv_request("11111111")).unwrap();
    assert_eq!(session.cache_stats().artifact_hits, 1);
    drop(recent);
    session.compile(&bv_request("1")).unwrap();
    assert_eq!(session.cache_stats().artifact_hits, 1, "evicted entry misses again");
}

#[test]
fn sessions_are_shareable_across_threads() {
    let session = Arc::new(Session::new(BV_SRC).unwrap());
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let session = Arc::clone(&session);
            std::thread::spawn(move || session.compile(&bv_request("1101")).unwrap())
        })
        .collect();
    let artifacts: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    for pair in artifacts.windows(2) {
        assert_eq!(pair[0].circuit, pair[1].circuit);
    }
    // Every thread is accounted for, but a concurrent identical request
    // may land as a hit, the one miss that does the work, or a coalesced
    // wait on that in-flight work — depending on timing.
    let stats = session.cache_stats();
    assert_eq!(stats.artifact_hits + stats.artifact_misses + stats.artifact_coalesced, 4);
    assert!(stats.artifact_misses >= 1);
}

#[test]
fn wrapper_and_session_agree() {
    use asdf_core::Compiler;
    let secret = "1011";
    let captures = vec![CaptureValue::CFunc {
        name: "f".into(),
        captures: vec![CaptureValue::bits_from_str(secret)],
    }];
    let one_shot =
        Compiler::compile(BV_SRC, "kernel", &captures, &CompileOptions::default()).unwrap();
    let session = Session::new(BV_SRC).unwrap();
    let via_session = session.compile(&bv_request(secret)).unwrap();
    assert_eq!(one_shot.circuit, via_session.circuit);
    assert_eq!(one_shot.entry, via_session.entry);
}

#[test]
fn render_error_includes_code_and_position() {
    let src = "qpu k(q: qubit) -> qubit {\n    q + q\n}";
    let session = Session::new(src).unwrap();
    let err = session.compile(&CompileRequest::kernel("k")).unwrap_err();
    let rendered = session.render_error(&err);
    assert!(rendered.contains("error[E0004]"), "{rendered}");
    assert!(rendered.contains("line 2"), "{rendered}");
    assert!(rendered.contains("q + q"), "{rendered}");
    assert!(rendered.contains('^'), "{rendered}");
}

#[test]
fn emission_is_reachable_only_through_backends() {
    let session = Session::new(BV_SRC).unwrap();
    assert_eq!(session.backend_names(), ["qasm", "qir-base", "qir-unrestricted", "sim"]);
    let artifact = session.compile(&bv_request("110")).unwrap();
    for backend in session.backend_names() {
        let text = session.emit(&artifact, backend).unwrap();
        assert!(!text.is_empty(), "{backend} emitted nothing");
    }
    // A name is looked up, never parsed: routing is a compile option, so a
    // `base@target` name is just an unknown backend.
    for name in ["no-such-target", "qasm@linear-16"] {
        let err = session.emit(&artifact, name).unwrap_err();
        assert_eq!(err.code(), "E0104", "{err}");
        assert!(err.to_string().contains("unknown backend"), "{err}");
    }
}

#[test]
fn a_circuit_wider_than_its_target_is_a_structured_error() {
    // Difftest skips a routed configuration on exactly this error, so it
    // must come back as a target error carrying the capacity marker.
    let session = Session::new("qpu k() -> bit[5] { '00000' | std[5].measure }").unwrap();
    let options = CompileOptions { target: Some("linear-2".into()), ..CompileOptions::default() };
    let err = session.compile(&CompileRequest::kernel("k").with_options(options)).unwrap_err();
    assert_eq!(err.code(), "E0105", "{err}");
    assert!(asdf_target::is_capacity_error(&err.to_string()), "{err}");
}

#[test]
fn programmatic_asts_render_without_a_misleading_label() {
    // Type errors raised on ASTs with placeholder spans (difftest builds
    // them programmatically) must not point a caret at line 1 column 1.
    use asdf_ast::expand::instantiate;
    use asdf_ast::typecheck::typecheck_kernel;
    let src = "qpu k(q: qubit) -> qubit[2] {\n    q + q\n}";
    let program = asdf_ast::parse::parse_program(src).unwrap();
    let instance = instantiate(&program, "k", &[], &std::collections::HashMap::new()).unwrap();
    // Strip spans the way a programmatic builder would: re-render and
    // reparse keeps structure, but here we simply check the parsed path
    // has a span while a rebuilt expression does not.
    let err = typecheck_kernel(&program, "k", &instance).unwrap_err();
    assert!(err.span().is_some(), "parsed ASTs carry spans");
    let rebuilt: asdf_ast::ast::Expr = asdf_ast::ast::ExprKind::Var("nope".into()).into();
    assert!(rebuilt.span.is_empty());
    let unspanned = asdf_ast::FrontendError::type_err("synthetic").with_span(rebuilt.span);
    assert!(unspanned.span().is_none(), "empty spans are not attached");
    assert!(unspanned.to_diagnostic().labels.is_empty());
}
