//! The backend abstraction: one uniform emission entry point for every
//! output target.
//!
//! A [`Backend`] turns a compiled artifact — the QCircuit-dialect module,
//! its entry symbol, and (when inlining fully linearized the kernel) the
//! straight-line circuit — into target text. A [`BackendRegistry`] maps
//! stable names (`qasm`, `qir-base`, `qir-unrestricted`, ...) to backend
//! instances:
//!
//! ```
//! use asdf_codegen::backend::{BackendRegistry, EmitInput};
//! let registry = BackendRegistry::with_codegen_backends();
//! assert!(registry.names().contains(&"qasm"));
//! ```
//!
//! The OpenQASM 3 and QIR emitters of this crate are exposed *only* as
//! backends; `asdf-sim` contributes a `sim` backend, and
//! `asdf_core::Session` bundles them all behind `Session::emit`.
//!
//! Emission is a name lookup and nothing more. Routing onto a hardware
//! target happens once, at compile time (`CompileOptions::target`), and
//! the routed circuit is what a backend then receives as
//! [`EmitInput::circuit`].

use asdf_ir::Module;
use asdf_qcircuit::Circuit;
use std::fmt;

/// Everything a backend may consume from one compiled artifact.
#[derive(Debug, Clone, Copy)]
pub struct EmitInput<'a> {
    /// The QCircuit-dialect module after the pass pipeline.
    pub module: &'a Module,
    /// The entry kernel's symbol name.
    pub entry: &'a str,
    /// The straight-line circuit, when one exists (None when callables or
    /// control flow remain, as in the No-Opt pipelines).
    pub circuit: Option<&'a Circuit>,
}

/// A backend emission failure.
#[derive(Debug, Clone, PartialEq)]
pub enum BackendError {
    /// The requested backend name is not registered.
    UnknownBackend {
        /// The name that was requested.
        requested: String,
        /// The names that are registered, in registration order.
        available: Vec<String>,
        /// A near-miss correction over the registered names.
        suggestion: Option<String>,
    },
    /// The backend needs a straight-line circuit but the artifact has
    /// none (e.g. QASM emission of a No-Opt compilation with callables).
    NeedsCircuit {
        /// The backend that refused.
        backend: String,
    },
    /// The backend failed while emitting.
    Emit {
        /// The backend that failed.
        backend: String,
        /// Failure description.
        message: String,
    },
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendError::UnknownBackend { requested, available, suggestion } => {
                write!(f, "unknown backend {requested:?}; available: {}", available.join(", "))?;
                if let Some(s) = suggestion {
                    write!(f, "; did you mean {s:?}?")?;
                }
                Ok(())
            }
            BackendError::NeedsCircuit { backend } => write!(
                f,
                "backend {backend} requires a straight-line circuit, but this artifact \
                 has none (callables or control flow remain)"
            ),
            BackendError::Emit { backend, message } => {
                write!(f, "backend {backend} failed: {message}")
            }
        }
    }
}

impl std::error::Error for BackendError {}

/// An output target: a named emitter from compiled artifacts to text.
pub trait Backend: Send + Sync {
    /// The stable registry name (e.g. `qasm`).
    fn name(&self) -> &'static str;
    /// Emits the artifact as target text.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError`] when the artifact lacks what the target
    /// needs (e.g. no straight-line circuit) or emission itself fails.
    fn emit(&self, input: &EmitInput<'_>) -> Result<String, BackendError>;
}

/// A named collection of [`Backend`]s.
///
/// Registration order is preserved; registering a backend with an
/// existing name replaces it.
#[derive(Default)]
pub struct BackendRegistry {
    backends: Vec<Box<dyn Backend>>,
}

impl fmt::Debug for BackendRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BackendRegistry").field("names", &self.names()).finish()
    }
}

impl BackendRegistry {
    /// An empty registry.
    pub(crate) fn new() -> BackendRegistry {
        BackendRegistry::default()
    }

    /// A registry with this crate's text backends: `qasm`, `qir-base`,
    /// and `qir-unrestricted`.
    pub fn with_codegen_backends() -> BackendRegistry {
        let mut registry = BackendRegistry::new();
        registry.register(Box::new(QasmBackend));
        registry.register(Box::new(QirBaseBackend));
        registry.register(Box::new(QirUnrestrictedBackend));
        registry
    }

    /// Registers `backend`, replacing any backend with the same name.
    pub fn register(&mut self, backend: Box<dyn Backend>) {
        if let Some(existing) = self.backends.iter_mut().find(|b| b.name() == backend.name()) {
            *existing = backend;
        } else {
            self.backends.push(backend);
        }
    }

    /// Looks up a backend by name.
    pub(crate) fn get(&self, name: &str) -> Option<&dyn Backend> {
        self.backends.iter().find(|b| b.name() == name).map(|b| b.as_ref())
    }

    /// Registered backend names, in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.backends.iter().map(|b| b.name()).collect()
    }

    /// Emits `input` through the backend registered under `name`.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::UnknownBackend`] (with a "did you mean"
    /// suggestion where one is close) for unregistered names, or whatever
    /// the backend raises.
    pub fn emit(&self, name: &str, input: &EmitInput<'_>) -> Result<String, BackendError> {
        match self.get(name) {
            Some(backend) => backend.emit(input),
            None => Err(BackendError::UnknownBackend {
                requested: name.to_string(),
                available: self.names().iter().map(|n| n.to_string()).collect(),
                suggestion: self.closest_name(name),
            }),
        }
    }

    /// The registered name closest to `requested` within edit distance 2.
    fn closest_name(&self, requested: &str) -> Option<String> {
        self.names()
            .iter()
            .map(|n| (asdf_target::edit_distance(requested, n), *n))
            .filter(|&(d, _)| d > 0 && d <= 2)
            .min()
            .map(|(_, n)| n.to_string())
    }
}

/// OpenQASM 3 text from the straight-line circuit (§7).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct QasmBackend;

impl Backend for QasmBackend {
    fn name(&self) -> &'static str {
        "qasm"
    }

    fn emit(&self, input: &EmitInput<'_>) -> Result<String, BackendError> {
        let circuit = input
            .circuit
            .ok_or_else(|| BackendError::NeedsCircuit { backend: self.name().to_string() })?;
        Ok(crate::qasm::circuit_to_qasm(circuit))
    }
}

/// QIR Base Profile: a straight-line gate sequence with `inttoptr` qubit
/// indices and no dynamic allocation (§7).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct QirBaseBackend;

impl Backend for QirBaseBackend {
    fn name(&self) -> &'static str {
        "qir-base"
    }

    fn emit(&self, input: &EmitInput<'_>) -> Result<String, BackendError> {
        crate::qir::module_to_qir_base(input.module, input.entry).map_err(|e| BackendError::Emit {
            backend: self.name().to_string(),
            message: e.to_string(),
        })
    }
}

/// QIR Unrestricted Profile: dynamic qubit allocation, callables via
/// `__quantum__rt__callable_*` intrinsics, structured control flow (§7).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct QirUnrestrictedBackend;

impl Backend for QirUnrestrictedBackend {
    fn name(&self) -> &'static str {
        "qir-unrestricted"
    }

    fn emit(&self, input: &EmitInput<'_>) -> Result<String, BackendError> {
        crate::qir::module_to_qir_unrestricted(input.module).map_err(|e| BackendError::Emit {
            backend: self.name().to_string(),
            message: e.to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_lists_and_replaces_by_name() {
        let mut registry = BackendRegistry::with_codegen_backends();
        assert_eq!(registry.names(), ["qasm", "qir-base", "qir-unrestricted"]);
        // Re-registering a name replaces in place, keeping order.
        registry.register(Box::new(QasmBackend));
        assert_eq!(registry.names(), ["qasm", "qir-base", "qir-unrestricted"]);
        assert!(registry.get("qasm").is_some());
        assert!(registry.get("nope").is_none());
    }

    #[test]
    fn unknown_backend_lists_available() {
        let registry = BackendRegistry::with_codegen_backends();
        let module = Module::new();
        let input = EmitInput { module: &module, entry: "k", circuit: None };
        let err = registry.emit("wat", &input).unwrap_err();
        let BackendError::UnknownBackend { requested, available, suggestion } = err else {
            panic!("wrong error: {err}")
        };
        assert_eq!(requested, "wat");
        assert_eq!(available, ["qasm", "qir-base", "qir-unrestricted"]);
        assert_eq!(suggestion, None, "nothing is close to `wat`");
    }

    #[test]
    fn near_miss_names_get_suggestions() {
        let registry = BackendRegistry::with_codegen_backends();
        let module = Module::new();
        let input = EmitInput { module: &module, entry: "k", circuit: None };
        let err = registry.emit("qsam", &input).unwrap_err();
        assert!(err.to_string().contains("did you mean \"qasm\"?"), "{err}");
        match err {
            BackendError::UnknownBackend { suggestion, .. } => {
                assert_eq!(suggestion.as_deref(), Some("qasm"));
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn qasm_without_circuit_is_a_structured_error() {
        let registry = BackendRegistry::with_codegen_backends();
        let module = Module::new();
        let input = EmitInput { module: &module, entry: "k", circuit: None };
        let err = registry.emit("qasm", &input).unwrap_err();
        assert!(matches!(err, BackendError::NeedsCircuit { .. }), "{err}");
    }

    #[test]
    fn qasm_backend_emits_circuits() {
        use asdf_ir::GateKind;
        let mut circuit = Circuit::new(2);
        circuit.gate(GateKind::H, &[], &[0]);
        circuit.gate(GateKind::X, &[0], &[1]);
        let module = Module::new();
        let input = EmitInput { module: &module, entry: "k", circuit: Some(&circuit) };
        let text = BackendRegistry::with_codegen_backends().emit("qasm", &input).unwrap();
        assert!(text.contains("OPENQASM 3.0;"));
        assert!(text.contains("cx q[0], q[1];"));
    }
}
