//! Source spans attached to IR ops.
//!
//! Lowering stamps each op with the byte range of the frontend expression
//! it came from, so analyses and lints (`asdf-analysis`) can render caret
//! snippets through the structured-diagnostics machinery. Spans are
//! *locations, not meaning*: they are excluded from [`Op`] equality and
//! carried verbatim through cloning, inlining, and conversion.
//!
//! [`Op`]: crate::Op

/// A half-open byte range `[start, end)` into the frontend source text.
///
/// The all-zero span means "unknown" (ops synthesized by rewrites or
/// hand-built in tests); consumers must degrade gracefully — diagnostics
/// skip the caret snippet rather than point at byte 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SrcSpan {
    /// Byte offset of the first character.
    pub start: u32,
    /// Byte offset one past the last character.
    pub end: u32,
}

impl SrcSpan {
    /// The unknown (all-zero) span.
    pub(crate) const UNKNOWN: SrcSpan = SrcSpan { start: 0, end: 0 };

    /// A span covering `[start, end)`.
    pub fn new(start: u32, end: u32) -> Self {
        SrcSpan { start, end }
    }

    /// Whether this is the unknown span.
    pub fn is_unknown(&self) -> bool {
        *self == SrcSpan::UNKNOWN
    }
}
