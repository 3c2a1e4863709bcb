//! Source spans and structured diagnostics.
//!
//! Every token the lexer produces carries a byte-offset [`Span`]; the
//! parser threads those spans onto AST nodes, and the type checker
//! attaches the span of the offending expression to every
//! [`FrontendError`](crate::FrontendError) it raises. A [`Diagnostic`]
//! is the renderable form: an error code, a severity, labeled spans,
//! and notes. [`Diagnostic::render`] maps byte offsets back to
//! line:column positions with [`line_col`] and prints a caret-underlined
//! source snippet:
//!
//! ```text
//! error[E0004]: piped value has type bit[2] but the function expects qubit[2]
//!   --> line 3, column 5
//!    |
//!  3 |     q | std[2].measure | std[2].measure
//!    |     ^^^^^^^^^^^^^^^^^^
//! ```

use std::fmt;

/// A half-open byte range into the source text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Span {
    /// Byte offset of the first byte.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
}

impl Span {
    /// A span covering `start..end`.
    pub fn new(start: usize, end: usize) -> Span {
        Span { start, end: end.max(start) }
    }

    /// A zero-width span at `offset` (e.g. end of input).
    pub(crate) fn at(offset: usize) -> Span {
        Span { start: offset, end: offset }
    }

    /// The smallest span covering both `self` and `other`.
    #[must_use]
    pub(crate) fn to(self, other: Span) -> Span {
        Span { start: self.start.min(other.start), end: self.end.max(other.end) }
    }

    /// Whether this is the unknown/placeholder span.
    pub fn is_empty(self) -> bool {
        self.start == 0 && self.end == 0
    }
}

/// A 1-based line and column position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineCol {
    /// 1-based line number.
    pub line: usize,
    /// 1-based column, counted in characters (not bytes).
    pub col: usize,
}

impl fmt::Display for LineCol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Maps a byte offset into `source` to a 1-based line and column.
///
/// Columns count characters, so multi-byte UTF-8 sequences advance the
/// column by one. Offsets past the end of the source land one past the
/// last character of the final line.
///
/// # Example
///
/// ```
/// use asdf_ast::diag::line_col;
/// let src = "ab\ncde";
/// assert_eq!((line_col(src, 0).line, line_col(src, 0).col), (1, 1));
/// assert_eq!((line_col(src, 4).line, line_col(src, 4).col), (2, 2));
/// ```
pub fn line_col(source: &str, offset: usize) -> LineCol {
    let offset = floor_char_boundary(source, offset);
    let mut line = 1;
    let mut line_start = 0;
    for (i, b) in source.bytes().enumerate() {
        if i >= offset {
            break;
        }
        if b == b'\n' {
            line += 1;
            line_start = i + 1;
        }
    }
    let col = source[line_start..offset].chars().count() + 1;
    LineCol { line, col }
}

/// The largest char boundary `<= offset` (clamped to the source length),
/// so byte offsets from arbitrary spans can never split a multi-byte
/// UTF-8 sequence when slicing.
fn floor_char_boundary(source: &str, offset: usize) -> usize {
    let mut offset = offset.min(source.len());
    while offset > 0 && !source.is_char_boundary(offset) {
        offset -= 1;
    }
    offset
}

/// Diagnostic severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// A hard error: compilation cannot continue.
    Error,
    /// A warning: compilation continues.
    Warning,
    /// Supplementary information attached to another diagnostic.
    Note,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Error => write!(f, "error"),
            Severity::Warning => write!(f, "warning"),
            Severity::Note => write!(f, "note"),
        }
    }
}

/// A span with an optional message, pointing into the source.
#[derive(Debug, Clone, PartialEq)]
pub struct Label {
    /// The source range the label underlines.
    pub span: Span,
    /// Message printed after the carets (may be empty).
    pub message: String,
}

/// A structured, renderable compiler diagnostic.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable error code, e.g. `E0004`.
    pub code: &'static str,
    /// Severity of the diagnostic.
    pub severity: Severity,
    /// Primary message.
    pub message: String,
    /// Labeled source ranges, primary first.
    pub labels: Vec<Label>,
    /// Free-form notes rendered after the snippet.
    pub notes: Vec<String>,
}

impl Diagnostic {
    /// A new error-severity diagnostic with no labels.
    pub fn error(code: &'static str, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity: Severity::Error,
            message: message.into(),
            labels: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// A new warning-severity diagnostic with no labels (lint codes use
    /// the `W0xxx` namespace, mirroring the `E0xxx` error codes).
    pub fn warning(code: &'static str, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity: Severity::Warning,
            message: message.into(),
            labels: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Attaches a labeled span.
    #[must_use]
    pub fn with_label(mut self, span: Span, message: impl Into<String>) -> Diagnostic {
        self.labels.push(Label { span, message: message.into() });
        self
    }

    /// Attaches a note.
    #[must_use]
    pub fn with_note(mut self, note: impl Into<String>) -> Diagnostic {
        self.notes.push(note.into());
        self
    }

    /// Renders the diagnostic against the source it refers to, with
    /// line:column positions and a caret-underlined snippet per label.
    pub fn render(&self, source: &str) -> String {
        let mut out = format!("{}[{}]: {}\n", self.severity, self.code, self.message);
        for label in &self.labels {
            let lc = line_col(source, label.span.start);
            out.push_str(&format!("  --> line {}, column {}\n", lc.line, lc.col));
            let line_text = source.lines().nth(lc.line - 1).unwrap_or("");
            let gutter = format!("{:>3}", lc.line);
            let pad = " ".repeat(gutter.len());
            out.push_str(&format!("{pad} |\n"));
            out.push_str(&format!("{gutter} | {line_text}\n"));
            // Caret width: the labeled range clamped to this line, at
            // least one caret, counted in characters.
            let line_remaining = line_text.chars().count().saturating_sub(lc.col - 1);
            let span_chars = {
                let start = floor_char_boundary(source, label.span.start);
                let end = floor_char_boundary(source, label.span.end).max(start);
                source[start..end].chars().count().max(1)
            };
            let carets = span_chars.clamp(1, line_remaining.max(1));
            out.push_str(&format!("{pad} | {}{}", " ".repeat(lc.col - 1), "^".repeat(carets)));
            if !label.message.is_empty() {
                out.push(' ');
                out.push_str(&label.message);
            }
            out.push('\n');
        }
        for note in &self.notes {
            out.push_str(&format!("  = note: {note}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_col_maps_multi_line_input() {
        let src = "qpu k() -> bit {\n    '0' | std.measure\n}\n";
        // Offset 0: start of file.
        assert_eq!(line_col(src, 0), LineCol { line: 1, col: 1 });
        // Offset of `'0'` on line 2: 17 bytes of line 1 + newline + 4 spaces.
        let offset = src.find("'0'").unwrap();
        assert_eq!(line_col(src, offset), LineCol { line: 2, col: 5 });
        // The closing brace on line 3.
        let offset = src.rfind('}').unwrap();
        assert_eq!(line_col(src, offset), LineCol { line: 3, col: 1 });
        // Past the end clamps to one past the final character.
        assert_eq!(line_col(src, src.len() + 10), LineCol { line: 4, col: 1 });
    }

    #[test]
    fn line_col_counts_characters_not_bytes() {
        let src = "# π comment\nx";
        let offset = src.find('x').unwrap();
        assert_eq!(line_col(src, offset), LineCol { line: 2, col: 1 });
        let offset = src.find("comment").unwrap();
        // `# π ` is 4 characters but 5 bytes.
        assert_eq!(line_col(src, offset), LineCol { line: 1, col: 5 });
    }

    #[test]
    fn render_underlines_the_labeled_range() {
        let src = "line one\nline two here\n";
        let span = Span::new(src.find("two").unwrap(), src.find("two").unwrap() + 3);
        let d = Diagnostic::error("E0004", "type error: something is off")
            .with_label(span, "this part")
            .with_note("see the manual");
        let rendered = d.render(src);
        assert!(rendered.contains("error[E0004]: type error: something is off"));
        assert!(rendered.contains("--> line 2, column 6"));
        assert!(rendered.contains("  2 | line two here"));
        assert!(rendered.contains("^^^ this part"));
        assert!(rendered.contains("= note: see the manual"));
    }

    #[test]
    fn render_survives_spans_inside_multi_byte_characters() {
        // A span whose end lands mid-character (as a byte-oriented lexer
        // could produce) must render, not panic.
        let src = "qpu k() -> bit { \u{03c0} }";
        let start = src.find('\u{03c0}').unwrap();
        let bad = Diagnostic::error("E0001", "lex error: unexpected character")
            .with_label(Span::new(start, start + 1), "");
        let rendered = bad.render(src);
        assert!(rendered.contains("error[E0001]"), "{rendered}");
        // line_col is equally safe on a mid-character offset.
        assert_eq!(line_col(src, start + 1).line, 1);
    }

    #[test]
    fn span_merging() {
        assert_eq!(Span::new(3, 7).to(Span::new(5, 12)), Span::new(3, 12));
        assert!(Span::default().is_empty());
        assert!(!Span::new(0, 1).is_empty());
    }
}
