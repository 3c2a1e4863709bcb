//! Frontend errors.
//!
//! Every variant carries the source [`Span`] of the offending construct
//! when one is known: the lexer and parser always have one, and the type
//! checker attaches the span of the expression it was checking as errors
//! propagate outward. [`FrontendError::to_diagnostic`] converts to the
//! structured, renderable [`Diagnostic`] form.

use crate::diag::{Diagnostic, Span};
use std::error::Error;
use std::fmt;

/// An error raised while lexing, parsing, expanding, or type checking a
/// Qwerty program.
#[derive(Debug, Clone, PartialEq)]
pub enum FrontendError {
    /// Lexical error.
    Lex {
        /// Source range of the offending bytes.
        span: Span,
        /// Description.
        message: String,
    },
    /// Parse error.
    Parse {
        /// Source range of the unexpected token.
        span: Span,
        /// Description.
        message: String,
    },
    /// A dimension variable could not be inferred or evaluated.
    Dimension {
        /// Description.
        message: String,
        /// Source range, when the error is tied to an expression.
        span: Option<Span>,
    },
    /// A type error (includes linearity violations and basis
    /// well-formedness).
    Type {
        /// Description.
        message: String,
        /// Source range, when the error is tied to an expression.
        span: Option<Span>,
    },
    /// Span equivalence failed for a basis translation (§4.1).
    SpanEquiv {
        /// Description.
        message: String,
        /// Source range, when the error is tied to an expression.
        span: Option<Span>,
    },
    /// A name was not found.
    Unbound {
        /// The missing name.
        name: String,
        /// Source range of the reference.
        span: Option<Span>,
    },
}

impl FrontendError {
    /// A type error with no span (attached later via [`Self::with_span`]).
    pub fn type_err(message: impl Into<String>) -> FrontendError {
        FrontendError::Type { message: message.into(), span: None }
    }

    /// A dimension error with no span.
    pub(crate) fn dim_err(message: impl Into<String>) -> FrontendError {
        FrontendError::Dimension { message: message.into(), span: None }
    }

    /// A span-equivalence error with no span.
    pub(crate) fn span_equiv(message: impl Into<String>) -> FrontendError {
        FrontendError::SpanEquiv { message: message.into(), span: None }
    }

    /// An unbound-name error with no span.
    pub fn unbound(name: impl Into<String>) -> FrontendError {
        FrontendError::Unbound { name: name.into(), span: None }
    }

    /// Attaches `span` when the error does not already carry one. The
    /// type checker calls this as errors propagate outward, so the
    /// innermost expression that raised the error keeps its (most
    /// precise) span. Placeholder (empty) spans — programmatically built
    /// ASTs have no source positions — are not attached.
    #[must_use]
    pub fn with_span(mut self, at: Span) -> FrontendError {
        if at.is_empty() {
            return self;
        }
        match &mut self {
            FrontendError::Lex { .. } | FrontendError::Parse { .. } => {}
            FrontendError::Dimension { span, .. }
            | FrontendError::Type { span, .. }
            | FrontendError::SpanEquiv { span, .. }
            | FrontendError::Unbound { span, .. } => {
                if span.is_none() {
                    *span = Some(at);
                }
            }
        }
        self
    }

    /// The source span, when known.
    pub fn span(&self) -> Option<Span> {
        match self {
            FrontendError::Lex { span, .. } | FrontendError::Parse { span, .. } => Some(*span),
            FrontendError::Dimension { span, .. }
            | FrontendError::Type { span, .. }
            | FrontendError::SpanEquiv { span, .. }
            | FrontendError::Unbound { span, .. } => *span,
        }
    }

    /// The stable error code for this kind of error.
    pub fn code(&self) -> &'static str {
        match self {
            FrontendError::Lex { .. } => "E0001",
            FrontendError::Parse { .. } => "E0002",
            FrontendError::Dimension { .. } => "E0003",
            FrontendError::Type { .. } => "E0004",
            FrontendError::SpanEquiv { .. } => "E0005",
            FrontendError::Unbound { .. } => "E0006",
        }
    }

    /// The primary message, without the category prefix.
    pub(crate) fn message(&self) -> String {
        match self {
            FrontendError::Lex { message, .. }
            | FrontendError::Parse { message, .. }
            | FrontendError::Dimension { message, .. }
            | FrontendError::Type { message, .. }
            | FrontendError::SpanEquiv { message, .. } => message.clone(),
            FrontendError::Unbound { name, .. } => format!("unbound name: {name}"),
        }
    }

    /// Converts to the structured, renderable diagnostic form. Render it
    /// against the source with [`Diagnostic::render`].
    pub fn to_diagnostic(&self) -> Diagnostic {
        let category = match self {
            FrontendError::Lex { .. } => "lex error",
            FrontendError::Parse { .. } => "parse error",
            FrontendError::Dimension { .. } => "dimension error",
            FrontendError::Type { .. } => "type error",
            FrontendError::SpanEquiv { .. } => "span equivalence error",
            FrontendError::Unbound { .. } => "unbound name",
        };
        let mut d = Diagnostic::error(self.code(), format!("{category}: {}", self.message()));
        if let Some(span) = self.span() {
            if !span.is_empty() {
                d = d.with_label(span, "");
            }
        }
        d
    }
}

impl fmt::Display for FrontendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrontendError::Lex { span, message } => {
                write!(f, "lex error at byte {}: {message}", span.start)
            }
            FrontendError::Parse { span, message } => {
                write!(f, "parse error at byte {}: {message}", span.start)
            }
            FrontendError::Dimension { message, .. } => write!(f, "dimension error: {message}"),
            FrontendError::Type { message, .. } => write!(f, "type error: {message}"),
            FrontendError::SpanEquiv { message, .. } => {
                write!(f, "span equivalence error: {message}")
            }
            FrontendError::Unbound { name, .. } => write!(f, "unbound name: {name}"),
        }
    }
}

impl Error for FrontendError {}

impl From<asdf_basis::BasisError> for FrontendError {
    fn from(err: asdf_basis::BasisError) -> Self {
        match err {
            asdf_basis::BasisError::SpanMismatch(_)
            | asdf_basis::BasisError::DimensionMismatch { .. }
            | asdf_basis::BasisError::CannotFactor(_) => FrontendError::span_equiv(err.to_string()),
            other => FrontendError::type_err(other.to_string()),
        }
    }
}
