//! Format robustness: round trips, truncation, bit flips, versioning.
//!
//! The decoding contract is that *arbitrary* bytes produce either a
//! valid artifact or a structured [`ArtifactError`] — never a panic.
//! These tests drive that contract over a hand-built artifact that
//! exercises every section and a representative spread of payload
//! encodings (regions, bases, phased literals, routed circuits).

use asdf_artifact::payload::{decode_module, encode_module};
use asdf_artifact::wire::{Decoder, Encoder};
use asdf_artifact::{inspect, Artifact, ArtifactError, FORMAT_VERSION, MAGIC, SCHEMA_VERSION};
use asdf_ast::Diagnostic;
use asdf_basis::{Basis, BasisElem, BasisLiteral, BasisVector, BitString, Phase, PrimitiveBasis};
use asdf_ir::{
    Block, Func, FuncBuilder, FuncType, GateKind, Module, Op, OpKind, PassStat, PassStatistics,
    SrcSpan, Type, Value, ValueList, Visibility,
};
use asdf_qcircuit::Circuit;
use asdf_target::RoutingInfo;
use std::time::Duration;

/// An artifact touching every section and most payload encodings.
fn sample_artifact() -> Artifact {
    let mut module = Module::default();

    // A function with a basis translation, a phased literal, a call with
    // a predicate, and a nested lambda region. It is well-formed IR: the
    // module decoder verifies what it decodes.
    let lit = BasisLiteral::new(
        PrimitiveBasis::Pm,
        vec![
            BasisVector::new(BitString::from_bits([false, true])),
            BasisVector::with_phase(
                BitString::from_bits([true, false]),
                Phase::Const(std::f64::consts::FRAC_PI_4),
            ),
        ],
    )
    .expect("well-formed literal");
    let basis =
        Basis::new(vec![BasisElem::built_in(PrimitiveBasis::Std, 1), BasisElem::Literal(lit)]);
    let ty = FuncType::new(
        vec![Type::QBundle(3), Type::QBundle(5)],
        vec![Type::BitBundle(3), Type::QBundle(5)],
        false,
    );
    let mut func = Func::from_parts("main", ty, Visibility::Public, Block::default(), Vec::new());
    let q = func.new_value(Type::QBundle(3));
    let p = func.new_value(Type::QBundle(5));
    let f = func.new_value(Type::F64);
    let q1 = func.new_value(Type::QBundle(3));
    let lambda_ty = FuncType::new(vec![], vec![], true);
    let lambda = func.new_value(Type::Func(Box::new(lambda_ty.clone())));
    let p1 = func.new_value(Type::QBundle(5));
    let b = func.new_value(Type::BitBundle(3));
    let lambda_body = Block { args: vec![], ops: vec![Op::new(OpKind::Return, vec![], vec![])] };
    func.body = Block {
        args: vec![q, p],
        ops: vec![
            Op::new(OpKind::ConstF64 { value: 0.25 }, vec![], vec![f]),
            Op::new(
                OpKind::QbTrans {
                    basis_in: Basis::built_in(PrimitiveBasis::Std, 3),
                    basis_out: basis.clone(),
                },
                vec![q],
                vec![q1],
            ),
            Op::with_regions(
                OpKind::Lambda { func_ty: lambda_ty },
                vec![],
                vec![lambda],
                vec![lambda_body],
            ),
            Op::new(
                OpKind::Call { callee: "helper".into(), adj: true, pred: Some(basis) },
                vec![p],
                vec![p1],
            ),
            Op::new(
                OpKind::QbMeas { basis: Basis::built_in(PrimitiveBasis::Std, 3) },
                vec![q1],
                vec![b],
            ),
            {
                let mut op = Op::new(OpKind::Return, vec![b, p1], vec![]);
                op.span = SrcSpan { start: 10, end: 20 };
                op
            },
        ],
    };
    module.add_func(func);

    let mut helper = Func::from_parts(
        "helper",
        FuncType::new(vec![Type::QBundle(2)], vec![Type::QBundle(2)], true),
        Visibility::Private,
        Block::default(),
        Vec::new(),
    );
    let hq = helper.new_value(Type::QBundle(2));
    helper.body = Block { args: vec![hq], ops: vec![Op::new(OpKind::Return, vec![hq], vec![])] };
    module.add_func(helper);
    asdf_ir::verify::verify_module(&module).expect("the sample module is well-formed");

    let mut circuit = Circuit::new(2);
    circuit.gate(GateKind::H, &[], &[0]);
    circuit.gate(GateKind::X, &[0], &[1]);
    circuit.gate(GateKind::Rz(std::f64::consts::FRAC_PI_3), &[], &[1]);
    circuit.measure(0, 0);
    circuit.reset(1);
    let routing = RoutingInfo {
        target: "linear-16".into(),
        initial_layout: vec![3, 1],
        final_layout: vec![1, 3],
        swap_count: 2,
        unrouted_depth: 4,
        routed_depth: 6,
        unrouted_two_qubit_gates: 1,
        routed_two_qubit_gates: 7,
        routed_makespan: 420,
    };
    let stats = PassStatistics {
        passes: vec![PassStat {
            name: "inline".into(),
            duration: Duration::from_micros(123),
            changes: 4,
            detail: vec![("calls_inlined".into(), 4)],
        }],
    };
    let lints = vec![Diagnostic::warning("W0002", "dead qubit")
        .with_label(asdf_ast::Span::new(3, 9), "allocated here")
        .with_note("consider discarding explicitly")];

    Artifact {
        entry: "main".into(),
        module,
        circuit: Some(circuit),
        routing: Some(routing),
        stats,
        lints,
        key: vec![0xde, 0xad, 0xbe, 0xef, 0x00, 0x11],
    }
}

fn assert_artifacts_equal(a: &Artifact, b: &Artifact) {
    assert_eq!(a.entry, b.entry);
    assert_eq!(a.module.funcs(), b.module.funcs());
    assert_eq!(a.circuit, b.circuit);
    assert_eq!(a.routing.is_some(), b.routing.is_some());
    if let (Some(x), Some(y)) = (&a.routing, &b.routing) {
        assert_eq!(x.target, y.target);
        assert_eq!(x.initial_layout, y.initial_layout);
        assert_eq!(x.final_layout, y.final_layout);
        assert_eq!(x.swap_count, y.swap_count);
        assert_eq!(x.routed_makespan, y.routed_makespan);
    }
    assert_eq!(a.stats.passes.len(), b.stats.passes.len());
    for (x, y) in a.stats.passes.iter().zip(&b.stats.passes) {
        assert_eq!(x.name, y.name);
        assert_eq!(x.duration, y.duration);
        assert_eq!(x.changes, y.changes);
        assert_eq!(x.detail, y.detail);
    }
    assert_eq!(a.lints, b.lints);
    assert_eq!(a.key, b.key);
}

#[test]
fn round_trip_preserves_everything_and_is_byte_identical() {
    let artifact = sample_artifact();
    let bytes = artifact.encode();
    let decoded = Artifact::decode(&bytes).expect("decode");
    assert_artifacts_equal(&artifact, &decoded);
    assert_eq!(decoded.encode(), bytes, "re-serialization must be byte-identical");
    assert_eq!(decoded.content_hash(), artifact.content_hash());
}

#[test]
fn minimal_artifact_round_trips_without_optional_sections() {
    let artifact = Artifact {
        entry: "k".into(),
        module: Module::default(),
        circuit: None,
        routing: None,
        stats: PassStatistics::new(),
        lints: vec![],
        key: vec![],
    };
    let bytes = artifact.encode();
    let decoded = Artifact::decode(&bytes).expect("decode");
    assert!(decoded.circuit.is_none());
    assert!(decoded.routing.is_none());
    let info = inspect(&bytes).expect("inspect");
    // Circuit and routing sections are omitted entirely, not written empty.
    assert!(info.sections.iter().all(|s| s.name != "circuit" && s.name != "routing"));
}

#[test]
fn inspect_reports_header_facts() {
    let artifact = sample_artifact();
    let bytes = artifact.encode();
    let info = inspect(&bytes).expect("inspect");
    assert_eq!(info.format_version, FORMAT_VERSION);
    assert_eq!(info.schema_version, SCHEMA_VERSION);
    assert_eq!(info.entry, "main");
    assert_eq!(info.total_len, bytes.len());
    assert_eq!(info.content_hash, artifact.content_hash());
    assert_eq!(info.key_len, 6);
    let names: Vec<&str> = info.sections.iter().map(|s| s.name).collect();
    assert_eq!(names, ["meta", "module", "circuit", "routing", "stats", "lints"]);
    assert!(info.sections.iter().all(|s| s.len > 0));
}

#[test]
fn every_truncation_is_a_structured_error() {
    let bytes = sample_artifact().encode();
    for len in 0..bytes.len() {
        match Artifact::decode(&bytes[..len]) {
            Ok(_) => panic!("a strict prefix of {len} bytes must not decode"),
            Err(err) => {
                assert_eq!(err.code(), "E0106");
                let _ = err.to_string();
            }
        }
    }
}

#[test]
fn every_single_bit_flip_is_caught() {
    let bytes = sample_artifact().encode();
    // Flip one bit at a sweep of positions covering header, table,
    // payload, and trailer; the checksum (or magic check) must catch all
    // of them, and none may panic.
    for pos in 0..bytes.len() {
        for bit in [0u8, 3, 7] {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 1 << bit;
            match Artifact::decode(&corrupt) {
                Ok(_) => panic!("bit flip at byte {pos} bit {bit} went undetected"),
                Err(err) => {
                    let _ = err.to_string();
                }
            }
        }
    }
}

#[test]
fn arbitrary_garbage_never_panics() {
    // A deterministic xorshift stream standing in for fuzz input.
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for len in [0usize, 1, 7, 8, 16, 24, 64, 257, 4096] {
        let mut garbage = Vec::with_capacity(len);
        while garbage.len() < len {
            garbage.extend_from_slice(&next().to_le_bytes());
        }
        garbage.truncate(len);
        // Also try garbage that starts with valid magic, which reaches
        // deeper into the parser.
        let mut magical = garbage.clone();
        if magical.len() >= MAGIC.len() {
            magical[..MAGIC.len()].copy_from_slice(&MAGIC);
        }
        for bytes in [&garbage, &magical] {
            if let Err(err) = Artifact::decode(bytes) {
                assert_eq!(err.code(), "E0106");
            }
            let _ = inspect(bytes);
        }
    }
}

#[test]
fn future_versions_are_detected_before_payload_parsing() {
    let artifact = sample_artifact();

    // Future format version: patch the header field and re-seal the
    // checksum so version detection (not corruption) is what fires.
    let mut bytes = artifact.encode();
    bytes[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
    reseal(&mut bytes);
    assert_eq!(
        Artifact::decode(&bytes).unwrap_err(),
        ArtifactError::UnsupportedFormatVersion {
            found: FORMAT_VERSION + 1,
            supported: FORMAT_VERSION
        }
    );

    // Future schema version, same container layout.
    let mut bytes = artifact.encode();
    bytes[12..16].copy_from_slice(&(SCHEMA_VERSION + 1).to_le_bytes());
    reseal(&mut bytes);
    assert_eq!(
        Artifact::decode(&bytes).unwrap_err(),
        ArtifactError::UnsupportedSchemaVersion {
            found: SCHEMA_VERSION + 1,
            supported: SCHEMA_VERSION
        }
    );

    // Bad magic wins over everything else.
    let mut bytes = artifact.encode();
    bytes[0] = b'X';
    assert_eq!(Artifact::decode(&bytes).unwrap_err(), ArtifactError::BadMagic);
}

#[test]
fn unknown_sections_are_skipped_for_forward_compat() {
    // Simulate a future writer that appends an extra section: rebuild
    // the container with one more table entry and body, then re-seal.
    let bytes = sample_artifact().encode();
    let body = &bytes[..bytes.len() - 8];
    let count = u32::from_le_bytes(body[16..20].try_into().unwrap()) as usize;
    let table_end = 20 + 12 * count;
    let payload = &body[table_end..];

    let mut rebuilt = Vec::new();
    rebuilt.extend_from_slice(&body[..16]);
    rebuilt.extend_from_slice(&((count + 1) as u32).to_le_bytes());
    rebuilt.extend_from_slice(&body[20..table_end]);
    let extra = b"telemetry-from-the-future";
    rebuilt.extend_from_slice(&999u32.to_le_bytes()); // unknown id
    rebuilt.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    rebuilt.extend_from_slice(&(extra.len() as u32).to_le_bytes());
    rebuilt.extend_from_slice(payload);
    rebuilt.extend_from_slice(extra);
    rebuilt.extend_from_slice(&[0; 8]);
    reseal(&mut rebuilt);

    let decoded = Artifact::decode(&rebuilt).expect("unknown sections must be skipped");
    assert_eq!(decoded.entry, "main");
    let info = inspect(&rebuilt).expect("inspect");
    assert!(info.sections.iter().any(|s| s.id == 999 && s.name == "unknown"));
}

/// Recomputes the trailing checksum after deliberate header surgery.
fn reseal(bytes: &mut [u8]) {
    let body_len = bytes.len() - 8;
    let checksum = asdf_artifact::fnv1a(&bytes[..body_len]);
    bytes[body_len..].copy_from_slice(&checksum.to_le_bytes());
}

/// `qalloc; h; measure; qfree; bitpack; return`, with a lambda whose body
/// returns its one captured `f64`.
fn measure_module() -> Module {
    let ty = FuncType::new(vec![], vec![Type::BitBundle(1)], false);
    let mut b = FuncBuilder::new("m", ty, Visibility::Public);
    let mut bb = b.block();
    let c = bb.push(OpKind::ConstF64 { value: 0.5 }, vec![], vec![Type::F64]);
    let lambda_ty = FuncType::new(vec![], vec![Type::F64], false);
    let body = bb.subblock(vec![Type::F64], |sb| {
        let captured = sb.args()[0];
        sb.push(OpKind::Return, vec![captured], vec![]);
    });
    bb.push_with_regions(
        OpKind::Lambda { func_ty: lambda_ty.clone() },
        c,
        vec![Type::Func(Box::new(lambda_ty))],
        vec![body],
    );
    let q = bb.push(OpKind::QAlloc, vec![], vec![Type::Qubit]);
    let h = bb.push(OpKind::Gate { gate: GateKind::H, num_controls: 0 }, q, vec![Type::Qubit]);
    let measured = bb.push(OpKind::Measure, h, vec![Type::Qubit, Type::I1]);
    bb.push(OpKind::QFree, vec![measured[0]], vec![]);
    let bits = bb.push(OpKind::BitPack, vec![measured[1]], vec![Type::BitBundle(1)]);
    bb.push(OpKind::Return, bits, vec![]);
    let mut module = Module::default();
    module.add_func(b.finish());
    module
}

#[test]
fn malformed_ir_fails_verification_and_decoding_without_a_panic() {
    let far = Value::from_index(1000);
    // Op positions in `measure_module`'s body.
    const LAMBDA: usize = 1;
    const H: usize = 3;
    const MEASURE: usize = 4;
    type Patch = fn(&mut Func, Value);
    // A region's block count other than 1 has no in-memory form; the
    // payload codec's unit tests write it byte by byte.
    let patches: [(&str, Patch); 6] = [
        ("an operand", |f, far| f.body.ops[MEASURE].operands[0] = far),
        ("a result", |f, far| f.body.ops[H].results[0] = far),
        ("a result and its use", |f, far| {
            f.body.ops[H].results[0] = far;
            f.body.ops[MEASURE].operands[0] = far;
        }),
        ("a block argument", |f, far| f.body.args.push(far)),
        ("a nested block argument", |f, far| {
            f.body.ops[LAMBDA].regions[0].args[0] = far;
        }),
        ("a result count", |f, _| {
            let qubit = f.body.ops[MEASURE].results[0];
            f.body.ops[MEASURE].results = ValueList::from(vec![qubit]);
        }),
    ];
    let mut well_formed = measure_module();
    asdf_ir::verify::verify_module(&well_formed).expect("the unpatched module is well-formed");
    for (what, patch) in patches {
        let mut module = well_formed.clone();
        patch(module.func_mut("m").unwrap(), far);
        let verified = asdf_ir::verify::verify_module(&module);
        assert!(verified.is_err(), "patching {what} must fail verification");

        let mut e = Encoder::new();
        encode_module(&mut e, &module);
        let bytes = e.into_bytes();
        let err = decode_module(&mut Decoder::new(&bytes)).expect_err(what);
        assert!(matches!(err, ArtifactError::InvalidModule(_)), "{what}: {err}");
        assert_eq!(err.code(), "E0106");

        let artifact = Artifact { module, ..minimal_artifact() };
        let err = Artifact::decode(&artifact.encode()).expect_err(what);
        assert!(matches!(err, ArtifactError::InvalidModule(_)), "{what}: {err}");
    }
    // The same bytes unpatched decode fine.
    let artifact = Artifact { module: std::mem::take(&mut well_formed), ..minimal_artifact() };
    Artifact::decode(&artifact.encode()).expect("a well-formed module decodes");
}

fn minimal_artifact() -> Artifact {
    Artifact {
        entry: "m".into(),
        module: Module::default(),
        circuit: None,
        routing: None,
        stats: PassStatistics::new(),
        lints: vec![],
        key: vec![],
    }
}
