//! Lexer for the Qwerty surface syntax.

use crate::diag::Span;
use crate::error::FrontendError;

/// A token with its source span.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Token {
    /// The token kind and payload.
    pub kind: TokenKind,
    /// Byte range of the token in the source.
    pub span: Span,
}

/// Token kinds.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum TokenKind {
    /// Identifier or keyword.
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Qubit literal body between single quotes, e.g. `p0m1`.
    QLit(String),
    LParen,
    RParen,
    LBracket,
    RBracket,
    LBrace,
    RBrace,
    Comma,
    Colon,
    Semi,
    Arrow,
    Pipe,
    Amp,
    Caret,
    Tilde,
    Shr,
    At,
    Dot,
    Plus,
    Minus,
    Star,
    DblStar,
    Slash,
    Eq,
    /// End of input.
    Eof,
}

impl TokenKind {
    /// A short display name for diagnostics.
    pub(crate) fn describe(&self) -> String {
        match self {
            TokenKind::Ident(s) => format!("identifier `{s}`"),
            TokenKind::Int(v) => format!("integer {v}"),
            TokenKind::Float(v) => format!("float {v}"),
            TokenKind::QLit(s) => format!("qubit literal '{s}'"),
            TokenKind::Eof => "end of input".to_string(),
            other => format!("`{}`", other.text()),
        }
    }

    fn text(&self) -> &'static str {
        match self {
            TokenKind::LParen => "(",
            TokenKind::RParen => ")",
            TokenKind::LBracket => "[",
            TokenKind::RBracket => "]",
            TokenKind::LBrace => "{",
            TokenKind::RBrace => "}",
            TokenKind::Comma => ",",
            TokenKind::Colon => ":",
            TokenKind::Semi => ";",
            TokenKind::Arrow => "->",
            TokenKind::Pipe => "|",
            TokenKind::Amp => "&",
            TokenKind::Caret => "^",
            TokenKind::Tilde => "~",
            TokenKind::Shr => ">>",
            TokenKind::At => "@",
            TokenKind::Dot => ".",
            TokenKind::Plus => "+",
            TokenKind::Minus => "-",
            TokenKind::Star => "*",
            TokenKind::DblStar => "**",
            TokenKind::Slash => "/",
            TokenKind::Eq => "=",
            _ => "?",
        }
    }
}

/// Lexes a whole source file.
///
/// Comments run from `#` to end of line, as in Python.
///
/// # Errors
///
/// Returns [`FrontendError::Lex`] on unknown characters or malformed
/// literals.
pub(crate) fn lex(src: &str) -> Result<Vec<Token>, FrontendError> {
    let bytes = src.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i];
        let start = i;
        match c {
            b' ' | b'\t' | b'\r' | b'\n' => {
                i += 1;
            }
            b'#' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'\'' => {
                i += 1;
                let body_start = i;
                while i < bytes.len() && bytes[i] != b'\'' {
                    i += 1;
                }
                if i >= bytes.len() {
                    return Err(FrontendError::Lex {
                        span: Span::new(start, i),
                        message: "unterminated qubit literal".to_string(),
                    });
                }
                let body = src[body_start..i].to_string();
                if body.is_empty() {
                    return Err(FrontendError::Lex {
                        span: Span::new(start, i + 1),
                        message: "empty qubit literal".to_string(),
                    });
                }
                i += 1;
                tokens.push(Token { kind: TokenKind::QLit(body), span: Span::new(start, i) });
            }
            b'0'..=b'9' => {
                let mut has_dot = false;
                while i < bytes.len()
                    && (bytes[i].is_ascii_digit() || (bytes[i] == b'.' && !has_dot))
                {
                    // A dot followed by a non-digit is a method call, not a
                    // float (e.g. `360.xor_reduce` cannot occur, but
                    // `pm[2].measure` has Int then Dot).
                    if bytes[i] == b'.' {
                        if i + 1 >= bytes.len() || !bytes[i + 1].is_ascii_digit() {
                            break;
                        }
                        has_dot = true;
                    }
                    i += 1;
                }
                let text = &src[start..i];
                let kind = if has_dot {
                    TokenKind::Float(text.parse().map_err(|_| FrontendError::Lex {
                        span: Span::new(start, i),
                        message: format!("invalid float literal {text}"),
                    })?)
                } else {
                    TokenKind::Int(text.parse().map_err(|_| FrontendError::Lex {
                        span: Span::new(start, i),
                        message: format!("integer literal {text} out of range"),
                    })?)
                };
                tokens.push(Token { kind, span: Span::new(start, i) });
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                tokens.push(Token {
                    kind: TokenKind::Ident(src[start..i].to_string()),
                    span: Span::new(start, i),
                });
            }
            _ => {
                let (kind, len) = match (c, bytes.get(i + 1).copied()) {
                    (b'-', Some(b'>')) => (TokenKind::Arrow, 2),
                    (b'>', Some(b'>')) => (TokenKind::Shr, 2),
                    (b'*', Some(b'*')) => (TokenKind::DblStar, 2),
                    (b'(', _) => (TokenKind::LParen, 1),
                    (b')', _) => (TokenKind::RParen, 1),
                    (b'[', _) => (TokenKind::LBracket, 1),
                    (b']', _) => (TokenKind::RBracket, 1),
                    (b'{', _) => (TokenKind::LBrace, 1),
                    (b'}', _) => (TokenKind::RBrace, 1),
                    (b',', _) => (TokenKind::Comma, 1),
                    (b':', _) => (TokenKind::Colon, 1),
                    (b';', _) => (TokenKind::Semi, 1),
                    (b'|', _) => (TokenKind::Pipe, 1),
                    (b'&', _) => (TokenKind::Amp, 1),
                    (b'^', _) => (TokenKind::Caret, 1),
                    (b'~', _) => (TokenKind::Tilde, 1),
                    (b'@', _) => (TokenKind::At, 1),
                    (b'.', _) => (TokenKind::Dot, 1),
                    (b'+', _) => (TokenKind::Plus, 1),
                    (b'-', _) => (TokenKind::Minus, 1),
                    (b'*', _) => (TokenKind::Star, 1),
                    (b'/', _) => (TokenKind::Slash, 1),
                    (b'=', _) => (TokenKind::Eq, 1),
                    _ => {
                        // Decode the full (possibly multi-byte) character so
                        // the span never splits a UTF-8 sequence.
                        let ch = src[start..].chars().next().expect("in-bounds offset");
                        return Err(FrontendError::Lex {
                            span: Span::new(start, start + ch.len_utf8()),
                            message: format!("unexpected character {ch:?}"),
                        });
                    }
                };
                i += len;
                tokens.push(Token { kind, span: Span::new(start, i) });
            }
        }
    }
    tokens.push(Token { kind: TokenKind::Eof, span: Span::at(bytes.len()) });
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_pipeline() {
        let ks = kinds("'p'[N] | f.sign");
        assert_eq!(
            ks,
            vec![
                TokenKind::QLit("p".into()),
                TokenKind::LBracket,
                TokenKind::Ident("N".into()),
                TokenKind::RBracket,
                TokenKind::Pipe,
                TokenKind::Ident("f".into()),
                TokenKind::Dot,
                TokenKind::Ident("sign".into()),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn lexes_two_char_operators() {
        let ks = kinds("a >> b ** 2 -> c");
        assert!(ks.contains(&TokenKind::Shr));
        assert!(ks.contains(&TokenKind::DblStar));
        assert!(ks.contains(&TokenKind::Arrow));
    }

    #[test]
    fn float_vs_method_dot() {
        assert_eq!(kinds("1.5"), vec![TokenKind::Float(1.5), TokenKind::Eof]);
        let ks = kinds("x.measure");
        assert_eq!(ks[1], TokenKind::Dot);
        // An integer followed by a method-ish dot stays an integer.
        let ks = kinds("2.x");
        assert_eq!(ks[0], TokenKind::Int(2));
        assert_eq!(ks[1], TokenKind::Dot);
    }

    #[test]
    fn comments_skipped() {
        let ks = kinds("a # comment | nonsense\nb");
        assert_eq!(
            ks,
            vec![TokenKind::Ident("a".into()), TokenKind::Ident("b".into()), TokenKind::Eof]
        );
    }

    #[test]
    fn rejects_unterminated_literal() {
        assert!(lex("'p0").is_err());
        assert!(lex("''").is_err());
        assert!(lex("$").is_err());
    }

    #[test]
    fn unexpected_multibyte_character_has_a_whole_char_span() {
        let src = "a \u{03c0} b";
        let err = lex(src).unwrap_err();
        let FrontendError::Lex { span, message } = &err else { panic!("{err}") };
        assert_eq!(&src[span.start..span.end], "\u{03c0}", "span covers the full character");
        assert!(message.contains('\u{03c0}'), "{message}");
        // Rendering the diagnostic against the source must not panic.
        let rendered = err.to_diagnostic().render(src);
        assert!(rendered.contains("'\u{03c0}'"), "{rendered}");
    }
}
