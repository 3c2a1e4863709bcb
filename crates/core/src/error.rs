//! Compiler-core errors.
//!
//! Frontend failures keep their full structure (spans and error codes)
//! instead of being flattened to strings, so a [`crate::Session`] can
//! render them as labeled source diagnostics via
//! [`CoreError::to_diagnostic`].

use asdf_ast::diag::Diagnostic;
use asdf_ast::FrontendError;
use std::error::Error;
use std::fmt;

/// An error raised during lowering, transformation, synthesis, or
/// emission.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// Frontend failure (lex/parse/expand/typecheck), with spans intact.
    Frontend(FrontendError),
    /// IR verification or transformation failure, forwarded.
    Ir(String),
    /// Basis synthesis failure (alignment, standardization, permutation).
    Synthesis(String),
    /// A construct valid in the language but outside what this compiler
    /// build supports.
    Unsupported(String),
    /// An output backend failed (unknown name, missing circuit, emission
    /// error).
    Backend(String),
    /// A hardware-target failure: unparseable target name, circuit over
    /// device capacity, or a routed circuit failing validation.
    Target(String),
    /// A persisted artifact failed to decode: wrong version, corruption,
    /// or truncation. The payload keeps the structured decode error.
    Artifact(asdf_artifact::ArtifactError),
}

impl CoreError {
    /// The stable error code: frontend codes `E0001`–`E0006`, core codes
    /// `E0101`–`E0106`.
    pub fn code(&self) -> &'static str {
        match self {
            CoreError::Frontend(e) => e.code(),
            CoreError::Ir(_) => "E0101",
            CoreError::Synthesis(_) => "E0102",
            CoreError::Unsupported(_) => "E0103",
            CoreError::Backend(_) => "E0104",
            CoreError::Target(_) => "E0105",
            CoreError::Artifact(e) => e.code(),
        }
    }

    /// Converts to the structured, renderable diagnostic form. Frontend
    /// errors carry labeled source spans; core errors render as bare
    /// messages. Render against the source with
    /// [`Diagnostic::render`].
    pub(crate) fn to_diagnostic(&self) -> Diagnostic {
        match self {
            CoreError::Frontend(e) => e.to_diagnostic(),
            CoreError::Ir(m) => Diagnostic::error(self.code(), format!("ir error: {m}")),
            CoreError::Synthesis(m) => {
                Diagnostic::error(self.code(), format!("synthesis error: {m}"))
            }
            CoreError::Unsupported(m) => {
                Diagnostic::error(self.code(), format!("unsupported: {m}"))
            }
            CoreError::Backend(m) => Diagnostic::error(self.code(), format!("backend error: {m}")),
            CoreError::Target(m) => Diagnostic::error(self.code(), format!("target error: {m}")),
            CoreError::Artifact(e) => {
                Diagnostic::error(self.code(), format!("artifact error: {e}"))
            }
        }
    }
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Frontend(e) => write!(f, "frontend error: {e}"),
            CoreError::Ir(m) => write!(f, "ir error: {m}"),
            CoreError::Synthesis(m) => write!(f, "synthesis error: {m}"),
            CoreError::Unsupported(m) => write!(f, "unsupported: {m}"),
            CoreError::Backend(m) => write!(f, "backend error: {m}"),
            CoreError::Target(m) => write!(f, "target error: {m}"),
            CoreError::Artifact(e) => write!(f, "artifact error: {e}"),
        }
    }
}

impl Error for CoreError {}

impl From<asdf_ir::IrError> for CoreError {
    fn from(e: asdf_ir::IrError) -> Self {
        CoreError::Ir(e.to_string())
    }
}

impl From<asdf_ir::pass::PassError> for CoreError {
    fn from(e: asdf_ir::pass::PassError) -> Self {
        CoreError::Ir(e.to_string())
    }
}

impl From<asdf_ast::FrontendError> for CoreError {
    fn from(e: asdf_ast::FrontendError) -> Self {
        CoreError::Frontend(e)
    }
}

impl From<asdf_basis::BasisError> for CoreError {
    fn from(e: asdf_basis::BasisError) -> Self {
        CoreError::Synthesis(e.to_string())
    }
}

impl From<asdf_codegen::BackendError> for CoreError {
    fn from(e: asdf_codegen::BackendError) -> Self {
        CoreError::Backend(e.to_string())
    }
}

impl From<asdf_target::TargetError> for CoreError {
    fn from(e: asdf_target::TargetError) -> Self {
        CoreError::Target(e.to_string())
    }
}

impl From<asdf_artifact::ArtifactError> for CoreError {
    fn from(e: asdf_artifact::ArtifactError) -> Self {
        CoreError::Artifact(e)
    }
}
