//! The compile-server wire protocol: one JSON object per line.
//!
//! Three operations, selected by the `"op"` field:
//!
//! - `compile` — compile a kernel from `source` and report circuit shape:
//!   ```json
//!   {"op":"compile","source":"qpu k() -> bit[1] { '0' | std.measure }","kernel":"k"}
//!   ```
//! - `emit` — compile and render through a named backend:
//!   ```json
//!   {"op":"emit","backend":"qasm","source":"...","kernel":"k"}
//!   ```
//! - `lint` — compile and report asdf-lint warnings (stable `W0xxx`
//!   codes, rendered with caret snippets against the source):
//!   ```json
//!   {"op":"lint","source":"...","kernel":"k"}
//!   ```
//! - `stats` — cache counters over the server's lifetime (evicted
//!   sessions included) and the live session count:
//!   ```json
//!   {"op":"stats"}
//!   ```
//!
//! `compile` and `emit` accept optional `captures` (an array of
//! `{"bits":"101"}` bit strings and `{"cfunc":{"name":"f","captures":[…]}}`
//! classical functions), `dims` (an object of dimension-variable
//! bindings), and `options` (`inline`/`peephole`/`verify`/`lints`
//! booleans, a `decompose` style of `"none"`/`"selinger"`/`"vchain"`,
//! an integer `rewrite_fuel`, and a `target` hardware-coupling name such
//! as `"linear-16"` or `"grid-4x4"` — routed compiles report a
//! `"routing"` object with SWAP and depth telemetry). Every response is
//! one line with an `"ok"` boolean; failures carry `"error"` and, for
//! compiler diagnostics, a `"code"`.

use crate::json::Value;
use asdf_ast::CaptureValue;
use asdf_core::{CompileOptions, CompileRequest, DecomposeStyle};

/// One parsed protocol request.
#[derive(Debug)]
pub enum Request {
    /// Compile `request.kernel` from `source`.
    Compile(CompileCall),
    /// Compile, then emit through the named backend.
    Emit(CompileCall, String),
    /// Compile with the lint analyses forced on and report the warnings.
    Lint(CompileCall),
    /// Aggregate cache statistics across sessions.
    Stats,
}

/// The source + compile-request payload shared by `compile` and `emit`.
#[derive(Debug)]
pub struct CompileCall {
    /// The Qwerty program text (the session key).
    pub source: String,
    /// The request routed through [`asdf_core::Session::compile`].
    pub request: CompileRequest,
}

/// Parses one request line.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let value = crate::json::parse(line)?;
    let op = value
        .get("op")
        .and_then(Value::as_str)
        .ok_or_else(|| "missing \"op\" field".to_string())?;
    match op {
        "compile" => Ok(Request::Compile(parse_call(&value)?)),
        "emit" => {
            let backend = value
                .get("backend")
                .and_then(Value::as_str)
                .ok_or_else(|| "emit needs a \"backend\" field".to_string())?;
            Ok(Request::Emit(parse_call(&value)?, backend.to_string()))
        }
        "lint" => {
            let mut call = parse_call(&value)?;
            // A lint request always carries the option, so the cached
            // artifact actually holds diagnostics.
            let mut options = call.request.options.clone();
            options.lints = true;
            call.request = call.request.with_options(options);
            Ok(Request::Lint(call))
        }
        "stats" => Ok(Request::Stats),
        other => Err(format!("unknown op {other:?} (expected compile, emit, lint, or stats)")),
    }
}

fn parse_call(value: &Value) -> Result<CompileCall, String> {
    let source = value
        .get("source")
        .and_then(Value::as_str)
        .ok_or_else(|| "missing \"source\" field".to_string())?;
    let kernel = value
        .get("kernel")
        .and_then(Value::as_str)
        .ok_or_else(|| "missing \"kernel\" field".to_string())?;
    let mut request = CompileRequest::kernel(kernel);
    if let Some(captures) = value.get("captures") {
        let items = captures.as_array().ok_or("\"captures\" must be an array")?;
        for item in items {
            request = request.with_capture(parse_capture(item)?);
        }
    }
    if let Some(dims) = value.get("dims") {
        for (name, dim) in dims.as_object().ok_or("\"dims\" must be an object")? {
            let dim = dim.as_i64().ok_or_else(|| format!("dim {name:?} must be an integer"))?;
            request = request.with_dim(name, dim);
        }
    }
    if let Some(options) = value.get("options") {
        request = request.with_options(parse_options(options)?);
    }
    Ok(CompileCall { source: source.to_string(), request })
}

fn parse_capture(value: &Value) -> Result<CaptureValue, String> {
    if let Some(bits) = value.get("bits").and_then(Value::as_str) {
        if !bits.chars().all(|c| c == '0' || c == '1') {
            return Err(format!("\"bits\" must be 0/1 characters, got {bits:?}"));
        }
        return Ok(CaptureValue::bits_from_str(bits));
    }
    if let Some(cfunc) = value.get("cfunc") {
        let name =
            cfunc.get("name").and_then(Value::as_str).ok_or("\"cfunc\" needs a \"name\" field")?;
        let mut captures = Vec::new();
        if let Some(nested) = cfunc.get("captures") {
            for item in nested.as_array().ok_or("\"cfunc\" captures must be an array")? {
                captures.push(parse_capture(item)?);
            }
        }
        return Ok(CaptureValue::CFunc { name: name.to_string(), captures });
    }
    Err("capture must be {\"bits\":\"…\"} or {\"cfunc\":{…}}".to_string())
}

fn parse_options(value: &Value) -> Result<CompileOptions, String> {
    let mut options = CompileOptions::default();
    if let Some(inline) = value.get("inline") {
        options.inline = inline.as_bool().ok_or("\"inline\" must be a boolean")?;
    }
    if let Some(peephole) = value.get("peephole") {
        options.peephole = peephole.as_bool().ok_or("\"peephole\" must be a boolean")?;
    }
    if let Some(verify) = value.get("verify") {
        options.verify = verify.as_bool().ok_or("\"verify\" must be a boolean")?;
    }
    if let Some(lints) = value.get("lints") {
        options.lints = lints.as_bool().ok_or("\"lints\" must be a boolean")?;
    }
    if let Some(decompose) = value.get("decompose") {
        options.decompose = match decompose.as_str() {
            Some("none") => None,
            Some("selinger") => Some(DecomposeStyle::Selinger),
            Some("vchain") => Some(DecomposeStyle::VChain),
            _ => return Err("\"decompose\" must be \"none\", \"selinger\", or \"vchain\"".into()),
        };
    }
    if let Some(fuel) = value.get("rewrite_fuel") {
        options.rewrite_fuel = match fuel {
            Value::Null => None,
            other => Some(
                other
                    .as_i64()
                    .filter(|n| *n >= 0)
                    .ok_or("\"rewrite_fuel\" must be a non-negative integer or null")?
                    as u64,
            ),
        };
    }
    if let Some(target) = value.get("target") {
        options.target = match target {
            Value::Null => None,
            other => Some(
                other
                    .as_str()
                    .ok_or("\"target\" must be a coupling-graph name string or null")?
                    .to_string(),
            ),
        };
    }
    Ok(options)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_compile_request() {
        let line = r#"{"op":"compile","source":"src","kernel":"k",
            "captures":[{"bits":"101"},{"cfunc":{"name":"f","captures":[{"bits":"01"}]}}],
            "dims":{"N":3},
            "options":{"inline":false,"decompose":"vchain","rewrite_fuel":7,
                       "target":"linear-16"}}"#;
        let Request::Compile(call) = parse_request(line).unwrap() else {
            panic!("expected compile")
        };
        assert_eq!(call.source, "src");
        assert_eq!(call.request.kernel, "k");
        assert_eq!(call.request.captures.len(), 2);
        assert_eq!(call.request.captures[0], CaptureValue::bits_from_str("101"));
        assert_eq!(call.request.dims.get("N"), Some(&3));
        assert!(!call.request.options.inline);
        assert!(call.request.options.peephole, "unset fields keep their defaults");
        assert_eq!(call.request.options.decompose, Some(DecomposeStyle::VChain));
        assert_eq!(call.request.options.rewrite_fuel, Some(7));
        assert_eq!(call.request.options.target.as_deref(), Some("linear-16"));
        // Explicit null clears the target (all-to-all connectivity).
        let line = r#"{"op":"compile","source":"s","kernel":"k","options":{"target":null}}"#;
        let Request::Compile(call) = parse_request(line).unwrap() else { panic!("compile") };
        assert_eq!(call.request.options.target, None);
    }

    #[test]
    fn rejects_malformed_requests() {
        for (line, needle) in [
            ("{}", "\"op\""),
            (r#"{"op":"reticulate"}"#, "unknown op"),
            (r#"{"op":"compile","kernel":"k"}"#, "\"source\""),
            (r#"{"op":"compile","source":"s"}"#, "\"kernel\""),
            (r#"{"op":"emit","source":"s","kernel":"k"}"#, "\"backend\""),
            (r#"{"op":"compile","source":"s","kernel":"k","captures":[{"bats":"1"}]}"#, "capture"),
            (r#"{"op":"compile","source":"s","kernel":"k","captures":[{"bits":"12"}]}"#, "0/1"),
            (r#"{"op":"compile","source":"s","kernel":"k","dims":{"N":1.5}}"#, "integer"),
            (
                r#"{"op":"compile","source":"s","kernel":"k","options":{"decompose":"zalgo"}}"#,
                "decompose",
            ),
            (r#"{"op":"compile","source":"s","kernel":"k","options":{"target":16}}"#, "target"),
        ] {
            let err = parse_request(line).expect_err(line);
            assert!(err.contains(needle), "{line}: {err}");
        }
    }

    #[test]
    fn stats_needs_no_payload() {
        assert!(matches!(parse_request(r#"{"op":"stats"}"#).unwrap(), Request::Stats));
    }

    #[test]
    fn lint_requests_force_the_lints_option() {
        let line = r#"{"op":"lint","source":"src","kernel":"k"}"#;
        let Request::Lint(call) = parse_request(line).unwrap() else { panic!("expected lint") };
        assert!(call.request.options.lints, "the lint op always computes diagnostics");
        // The plain compile op leaves lints off unless asked.
        let line = r#"{"op":"compile","source":"src","kernel":"k","options":{"lints":true}}"#;
        let Request::Compile(call) = parse_request(line).unwrap() else { panic!("compile") };
        assert!(call.request.options.lints);
    }
}
