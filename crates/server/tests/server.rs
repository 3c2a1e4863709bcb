//! End-to-end tests for the compile server: the line protocol over
//! `handle_line`, session sharing across requests, and a real TCP
//! round-trip with concurrent clients.

use asdf_server::json::{parse, Value};
use asdf_server::CompileServer;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

const SRC: &str = r"classical f[N](secret: bit[N], x: bit[N]) -> bit { (secret & x).xor_reduce() } qpu kernel[N](f: cfunc[N, 1]) -> bit[N] { 'p'[N] | f.sign | pm[N] >> std[N] | std[N].measure }";

fn compile_line(secret: &str) -> String {
    format!(
        r#"{{"op":"compile","source":"{SRC}","kernel":"kernel","captures":[{{"cfunc":{{"name":"f","captures":[{{"bits":"{secret}"}}]}}}}]}}"#
    )
}

#[test]
fn compile_reports_the_circuit_shape() {
    let server = CompileServer::new();
    let response = parse(&server.handle_line(&compile_line("101"))).unwrap();
    assert_eq!(response.get("ok"), Some(&Value::Bool(true)), "{response}");
    assert_eq!(response.get("entry").and_then(Value::as_str), Some("kernel"));
    let circuit = response.get("circuit").expect("inlined kernels carry a circuit");
    assert!(circuit.get("qubits").and_then(Value::as_i64).unwrap() >= 3);
    assert_eq!(circuit.get("bits").and_then(Value::as_i64), Some(3));
    assert!(circuit.get("ops").and_then(Value::as_i64).unwrap() > 0);
}

#[test]
fn repeat_requests_share_one_session_and_hit_the_cache() {
    let server = CompileServer::new();
    for _ in 0..3 {
        let response = parse(&server.handle_line(&compile_line("1101"))).unwrap();
        assert_eq!(response.get("ok"), Some(&Value::Bool(true)), "{response}");
    }
    assert_eq!(server.session_count(), 1, "one source, one session");
    let stats = parse(&server.handle_line(r#"{"op":"stats"}"#)).unwrap();
    assert_eq!(stats.get("ok"), Some(&Value::Bool(true)));
    assert_eq!(stats.get("sessions").and_then(Value::as_i64), Some(1));
    assert_eq!(stats.get("artifact_misses").and_then(Value::as_i64), Some(1));
    assert_eq!(stats.get("artifact_hits").and_then(Value::as_i64), Some(2));
}

#[test]
fn emit_renders_through_a_named_backend() {
    let server = CompileServer::new();
    let line = format!(
        r#"{{"op":"emit","backend":"qasm","source":"{SRC}","kernel":"kernel","captures":[{{"cfunc":{{"name":"f","captures":[{{"bits":"110"}}]}}}}]}}"#
    );
    let response = parse(&server.handle_line(&line)).unwrap();
    assert_eq!(response.get("ok"), Some(&Value::Bool(true)), "{response}");
    assert_eq!(response.get("backend").and_then(Value::as_str), Some("qasm"));
    let text = response.get("text").and_then(Value::as_str).unwrap();
    assert!(text.contains("OPENQASM"), "{text}");

    let bad = line.replace("\"qasm\"", "\"no-such-target\"");
    let response = parse(&server.handle_line(&bad)).unwrap();
    assert_eq!(response.get("ok"), Some(&Value::Bool(false)));
    assert!(response.get("error").and_then(Value::as_str).unwrap().contains("unknown backend"));
}

#[test]
fn lint_reports_warnings_with_stable_codes() {
    let server = CompileServer::new();
    // A clean kernel lints clean.
    let line = format!(
        r#"{{"op":"lint","source":"{SRC}","kernel":"kernel","captures":[{{"cfunc":{{"name":"f","captures":[{{"bits":"101"}}]}}}}]}}"#
    );
    let response = parse(&server.handle_line(&line)).unwrap();
    assert_eq!(response.get("ok"), Some(&Value::Bool(true)), "{response}");
    assert_eq!(response.get("entry").and_then(Value::as_str), Some("kernel"));
    let warnings = response.get("warnings").and_then(Value::as_array).unwrap();
    assert!(warnings.is_empty(), "a correct kernel carries no warnings: {response}");
}

#[test]
fn routed_compiles_report_telemetry_and_per_target_stats() {
    let server = CompileServer::new();
    let source = "qpu bell() -> bit[2] { 'p' + '0' | ('1' & std.flip) | std[2].measure }";
    let line = format!(
        r#"{{"op":"compile","source":"{source}","kernel":"bell","options":{{"target":"linear-16"}}}}"#
    );
    let response = parse(&server.handle_line(&line)).unwrap();
    assert_eq!(response.get("ok"), Some(&Value::Bool(true)), "{response}");
    let routing = response.get("routing").expect("targeted compiles carry routing telemetry");
    assert_eq!(routing.get("target").and_then(Value::as_str), Some("linear-16"));
    assert!(routing.get("routed_depth").and_then(Value::as_i64).unwrap() > 0);
    assert!(routing.get("swaps").and_then(Value::as_i64).unwrap() >= 0);

    // The same kernel untargeted carries no routing block...
    let plain = format!(r#"{{"op":"compile","source":"{source}","kernel":"bell"}}"#);
    let response = parse(&server.handle_line(&plain)).unwrap();
    assert_eq!(response.get("ok"), Some(&Value::Bool(true)), "{response}");
    assert_eq!(response.get("routing"), Some(&Value::Null));

    // ...and stats split artifact counts per target.
    let stats = parse(&server.handle_line(r#"{"op":"stats"}"#)).unwrap();
    let targets = stats.get("targets").expect("stats report per-target counts");
    assert_eq!(targets.get("linear-16").and_then(Value::as_i64), Some(1), "{stats}");
    assert_eq!(targets.get("all-to-all").and_then(Value::as_i64), Some(1), "{stats}");

    // A misspelled target comes back as a structured diagnostic.
    let bad = line.replace("linear-16", "liner-16");
    let response = parse(&server.handle_line(&bad)).unwrap();
    assert_eq!(response.get("ok"), Some(&Value::Bool(false)));
    assert_eq!(response.get("code").and_then(Value::as_str), Some("E0105"), "{response}");
    assert!(response.get("error").and_then(Value::as_str).unwrap().contains("did you mean"));
}

#[test]
fn failures_come_back_as_structured_errors() {
    let server = CompileServer::new();

    // Not JSON at all.
    let response = parse(&server.handle_line("not json")).unwrap();
    assert_eq!(response.get("ok"), Some(&Value::Bool(false)));

    // Valid JSON, unknown op.
    let response = parse(&server.handle_line(r#"{"op":"transmogrify"}"#)).unwrap();
    assert!(response.get("error").and_then(Value::as_str).unwrap().contains("unknown op"));

    // A compiler diagnostic carries its error code.
    let line = r#"{"op":"compile","source":"qpu k(q: qubit) -> qubit { q + q }","kernel":"k"}"#;
    let response = parse(&server.handle_line(line)).unwrap();
    assert_eq!(response.get("ok"), Some(&Value::Bool(false)));
    assert_eq!(response.get("code").and_then(Value::as_str), Some("E0004"), "{response}");

    // A circuit too wide to simulate is a backend error, not a panic.
    let line = r#"{"op":"emit","backend":"sim","source":"qpu k[N]() -> bit[N] { 'p'[N] | std[N].measure }","kernel":"k","dims":{"N":40}}"#;
    let response = parse(&server.handle_line(line)).unwrap();
    assert_eq!(response.get("ok"), Some(&Value::Bool(false)));
    assert_eq!(response.get("code").and_then(Value::as_str), Some("E0104"), "{response}");
    assert!(response.get("error").and_then(Value::as_str).unwrap().contains("40 qubits"));

    // A target above the size bound is refused before its coupling graph
    // is built.
    let line = r#"{"op":"compile","source":"qpu k() -> bit[1] { '0' | std.measure }","kernel":"k","options":{"target":"grid-33x32"}}"#;
    let response = parse(&server.handle_line(line)).unwrap();
    assert_eq!(response.get("ok"), Some(&Value::Bool(false)));
    assert_eq!(response.get("code").and_then(Value::as_str), Some("E0105"), "{response}");
    assert!(response.get("error").and_then(Value::as_str).unwrap().contains("at most 1024"));

    // The server survives all of the above and still compiles.
    let response = parse(&server.handle_line(&compile_line("11"))).unwrap();
    assert_eq!(response.get("ok"), Some(&Value::Bool(true)));
}

#[test]
fn session_registry_is_bounded_lru() {
    let server = CompileServer::with_session_capacity(2);
    for source in [
        "qpu a() -> bit[1] { '0' | std.measure }",
        "qpu b() -> bit[1] { '1' | std.measure }",
        "qpu c() -> bit[1] { '0' | std.measure }",
    ] {
        let kernel = source.chars().nth(4).unwrap();
        let line = format!(r#"{{"op":"compile","source":"{source}","kernel":"{kernel}"}}"#);
        let response = parse(&server.handle_line(&line)).unwrap();
        assert_eq!(response.get("ok"), Some(&Value::Bool(true)), "{response}");
    }
    assert_eq!(server.session_count(), 2, "the oldest session was evicted");
    let (sessions, stats) = server.stats();
    assert_eq!(sessions, 2);
    assert_eq!(stats.artifact_misses, 3, "an evicted session's counters are kept");
}

#[test]
fn restarted_server_serves_artifacts_from_the_cache_dir() {
    let dir = std::env::temp_dir().join(format!("asdf-server-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let line = compile_line("1101");

    // First server lifetime: compile once, persisting the artifact.
    {
        let server = CompileServer::new().with_cache_dir(&dir).expect("open cache dir");
        assert_eq!(server.cache_dir(), Some(dir.as_path()));
        let response = parse(&server.handle_line(&line)).unwrap();
        assert_eq!(response.get("ok"), Some(&Value::Bool(true)), "{response}");
        let stats = parse(&server.handle_line(r#"{"op":"stats"}"#)).unwrap();
        assert_eq!(stats.get("disk_misses").and_then(Value::as_i64), Some(1), "{stats}");
        assert_eq!(stats.get("disk_writes").and_then(Value::as_i64), Some(1), "{stats}");
        assert_eq!(stats.get("artifact_misses").and_then(Value::as_i64), Some(1), "{stats}");
        let cache = stats.get("cache_dir").expect("cache_dir block");
        assert_eq!(cache.get("entries").and_then(Value::as_i64), Some(1), "{stats}");
        assert!(cache.get("bytes").and_then(Value::as_i64).unwrap() > 0, "{stats}");
    } // server dropped: every in-memory cache is gone

    // Second lifetime over the same directory: the compile is served
    // from disk — zero pipeline runs.
    let server = CompileServer::new().with_cache_dir(&dir).expect("reopen cache dir");
    let response = parse(&server.handle_line(&line)).unwrap();
    assert_eq!(response.get("ok"), Some(&Value::Bool(true)), "{response}");
    let circuit = response.get("circuit").expect("revived artifact still has its circuit");
    assert_eq!(circuit.get("bits").and_then(Value::as_i64), Some(4));
    let stats = parse(&server.handle_line(r#"{"op":"stats"}"#)).unwrap();
    assert_eq!(stats.get("disk_hits").and_then(Value::as_i64), Some(1), "{stats}");
    assert_eq!(stats.get("artifact_misses").and_then(Value::as_i64), Some(0), "{stats}");

    // A server without --cache-dir reports no cache block.
    let plain = CompileServer::new();
    let stats = parse(&plain.handle_line(r#"{"op":"stats"}"#)).unwrap();
    assert_eq!(stats.get("cache_dir"), Some(&Value::Null));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tcp_round_trip_with_concurrent_clients() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
    let addr = listener.local_addr().unwrap();
    let server = Arc::new(CompileServer::new());
    {
        let server = Arc::clone(&server);
        std::thread::spawn(move || {
            let _ = server.serve_listener(listener);
        });
    }

    let clients: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).expect("connect");
                let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                let mut stream = stream;
                let mut responses = Vec::new();
                for line in [compile_line("1011"), r#"{"op":"stats"}"#.to_string()] {
                    stream.write_all(line.as_bytes()).unwrap();
                    stream.write_all(b"\n").unwrap();
                    let mut response = String::new();
                    reader.read_line(&mut response).unwrap();
                    responses.push(parse(response.trim()).expect("valid JSON response"));
                }
                responses
            })
        })
        .collect();
    for client in clients {
        let responses = client.join().expect("client finished");
        assert_eq!(responses[0].get("ok"), Some(&Value::Bool(true)), "{}", responses[0]);
        assert_eq!(responses[1].get("ok"), Some(&Value::Bool(true)), "{}", responses[1]);
    }

    // All four clients requested the same key through one shared server:
    // exactly one pipeline run happened; the rest hit or coalesced.
    let (sessions, stats) = server.stats();
    assert_eq!(sessions, 1);
    assert_eq!(stats.artifact_misses, 1, "one pipeline run for four clients");
    assert_eq!(stats.artifact_hits + stats.artifact_coalesced + stats.artifact_misses, 4);
}
