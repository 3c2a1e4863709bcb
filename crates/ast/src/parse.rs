//! Recursive-descent parser for the Qwerty surface syntax.
//!
//! Precedence in `qpu` bodies, loosest to tightest: `|` (pipe), the
//! conditional `x if c else y`, `>>` (translation), `&` (predication,
//! right-associative), `+` (tensor), `** N` (repetition), unary `~`/`-`,
//! postfix `[N]` and `.method`, atoms. `classical` bodies use Python-like
//! precedence: `|`, `^`, `&`, `~`, postfix.

use crate::ast::*;
use crate::diag::Span;
use crate::dims::{AngleExpr, DimExpr};
use crate::error::FrontendError;
use crate::lex::{lex, Token, TokenKind};
use asdf_basis::PrimitiveBasis;

/// Parses a full program.
///
/// # Errors
///
/// Returns [`FrontendError::Lex`] or [`FrontendError::Parse`] with a byte
/// offset on malformed input.
///
/// # Example
///
/// ```
/// let src = r"
///     qpu kernel[N]() -> bit[N] {
///         'p'[N] | pm[N] >> std[N] | std[N].measure
///     }
/// ";
/// let program = asdf_ast::parse::parse_program(src)?;
/// assert!(program.qpu("kernel").is_some());
/// # Ok::<(), asdf_ast::FrontendError>(())
/// ```
pub fn parse_program(src: &str) -> Result<Program, FrontendError> {
    let tokens = lex(src)?;
    let mut parser = Parser { tokens, pos: 0, prev_end: 0 };
    let mut items = Vec::new();
    while !parser.at_eof() {
        items.push(parser.item()?);
    }
    Ok(Program { items })
}

/// Parses a single `qpu` expression (handy in tests).
///
/// # Errors
///
/// Same conditions as [`parse_program`].
#[cfg(test)]
pub(crate) fn parse_expr(src: &str) -> Result<Expr, FrontendError> {
    let tokens = lex(src)?;
    let mut parser = Parser { tokens, pos: 0, prev_end: 0 };
    let expr = parser.expr()?;
    parser.expect_eof()?;
    Ok(expr)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// End offset of the last consumed token (expression spans run from
    /// their first token's start to this).
    prev_end: usize,
}

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek2(&self) -> &TokenKind {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].kind
    }

    fn offset(&self) -> usize {
        self.tokens[self.pos].span.start
    }

    fn span_here(&self) -> Span {
        self.tokens[self.pos].span
    }

    /// The span running from `start` to the end of the last consumed
    /// token — the span of an expression whose first token began at
    /// `start`.
    fn span_from(&self, start: usize) -> Span {
        Span::new(start, self.prev_end.max(start))
    }

    /// Wraps a parsed kind with the span that produced it.
    fn spanned(&self, start: usize, kind: ExprKind) -> Expr {
        Expr::new(kind, self.span_from(start))
    }

    fn bump(&mut self) -> TokenKind {
        let kind = self.tokens[self.pos].kind.clone();
        self.prev_end = self.tokens[self.pos].span.end;
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        kind
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek(), TokenKind::Eof)
    }

    fn error<T>(&self, message: impl Into<String>) -> Result<T, FrontendError> {
        Err(FrontendError::Parse { span: self.span_here(), message: message.into() })
    }

    fn expect(&mut self, kind: TokenKind) -> Result<(), FrontendError> {
        if *self.peek() == kind {
            self.bump();
            Ok(())
        } else {
            self.error(format!("expected {}, found {}", kind.describe(), self.peek().describe()))
        }
    }

    #[cfg(test)]
    fn expect_eof(&self) -> Result<(), FrontendError> {
        if self.at_eof() {
            Ok(())
        } else {
            Err(FrontendError::Parse {
                span: self.span_here(),
                message: format!("trailing input: {}", self.peek().describe()),
            })
        }
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<String, FrontendError> {
        match self.peek().clone() {
            TokenKind::Ident(name) => {
                self.bump();
                Ok(name)
            }
            other => self.error(format!("expected an identifier, found {}", other.describe())),
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), TokenKind::Ident(name) if name == kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    // ------------------------------------------------------------------
    // Items
    // ------------------------------------------------------------------

    fn item(&mut self) -> Result<Item, FrontendError> {
        if self.eat_keyword("qpu") {
            self.qpu_func().map(Item::Qpu)
        } else if self.eat_keyword("classical") {
            self.classical_func().map(Item::Classical)
        } else {
            self.error("expected `qpu` or `classical` item")
        }
    }

    fn dim_vars(&mut self) -> Result<Vec<String>, FrontendError> {
        let mut vars = Vec::new();
        if self.eat(&TokenKind::LBracket) {
            loop {
                vars.push(self.ident()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(TokenKind::RBracket)?;
        }
        Ok(vars)
    }

    fn params(&mut self) -> Result<Vec<Param>, FrontendError> {
        self.expect(TokenKind::LParen)?;
        let mut params = Vec::new();
        if !self.eat(&TokenKind::RParen) {
            loop {
                let name = self.ident()?;
                self.expect(TokenKind::Colon)?;
                let ty = self.type_expr()?;
                params.push(Param { name, ty });
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(TokenKind::RParen)?;
        }
        Ok(params)
    }

    fn type_expr(&mut self) -> Result<TypeExpr, FrontendError> {
        if self.eat_keyword("qubit") {
            Ok(TypeExpr::Qubit(self.opt_bracket_dim()?))
        } else if self.eat_keyword("bit") {
            Ok(TypeExpr::Bit(self.opt_bracket_dim()?))
        } else if self.eat_keyword("cfunc") {
            self.expect(TokenKind::LBracket)?;
            let n = self.dim_expr()?;
            self.expect(TokenKind::Comma)?;
            let m = self.dim_expr()?;
            self.expect(TokenKind::RBracket)?;
            Ok(TypeExpr::CFunc(n, m))
        } else {
            self.error("expected a type (`qubit`, `bit`, or `cfunc[N, M]`)")
        }
    }

    fn opt_bracket_dim(&mut self) -> Result<DimExpr, FrontendError> {
        if self.eat(&TokenKind::LBracket) {
            let d = self.dim_expr()?;
            self.expect(TokenKind::RBracket)?;
            Ok(d)
        } else {
            Ok(DimExpr::Const(1))
        }
    }

    fn qpu_func(&mut self) -> Result<QpuFunc, FrontendError> {
        let name = self.ident()?;
        let dim_vars = self.dim_vars()?;
        let params = self.params()?;
        self.expect(TokenKind::Arrow)?;
        let ret = self.type_expr()?;
        self.expect(TokenKind::LBrace)?;
        let mut body = Vec::new();
        loop {
            if self.eat_keyword("let") {
                let mut names = vec![self.ident()?];
                while self.eat(&TokenKind::Comma) {
                    names.push(self.ident()?);
                }
                self.expect(TokenKind::Eq)?;
                let value = self.expr()?;
                self.expect(TokenKind::Semi)?;
                body.push(Stmt::Let { names, value });
            } else {
                let value = self.expr()?;
                body.push(Stmt::Expr(value));
                break;
            }
        }
        self.expect(TokenKind::RBrace)?;
        Ok(QpuFunc { name, dim_vars, params, ret, body })
    }

    fn classical_func(&mut self) -> Result<ClassicalFunc, FrontendError> {
        let name = self.ident()?;
        let dim_vars = self.dim_vars()?;
        let params = self.params()?;
        self.expect(TokenKind::Arrow)?;
        let ret = self.type_expr()?;
        self.expect(TokenKind::LBrace)?;
        let body = self.cexpr()?;
        self.expect(TokenKind::RBrace)?;
        Ok(ClassicalFunc { name, dim_vars, params, ret, body })
    }

    // ------------------------------------------------------------------
    // qpu expressions
    // ------------------------------------------------------------------

    fn expr(&mut self) -> Result<Expr, FrontendError> {
        self.pipe()
    }

    fn pipe(&mut self) -> Result<Expr, FrontendError> {
        let start = self.offset();
        let mut lhs = self.cond()?;
        while self.eat(&TokenKind::Pipe) {
            let rhs = self.cond()?;
            lhs = self.spanned(start, ExprKind::Pipe(Box::new(lhs), Box::new(rhs)));
        }
        Ok(lhs)
    }

    fn cond(&mut self) -> Result<Expr, FrontendError> {
        let start = self.offset();
        let then_expr = self.trans()?;
        if self.eat_keyword("if") {
            let cond = self.trans()?;
            if !self.eat_keyword("else") {
                return self.error("conditional requires `else`");
            }
            let else_expr = self.cond()?;
            Ok(self.spanned(
                start,
                ExprKind::Cond {
                    then_expr: Box::new(then_expr),
                    cond: Box::new(cond),
                    else_expr: Box::new(else_expr),
                },
            ))
        } else {
            Ok(then_expr)
        }
    }

    fn trans(&mut self) -> Result<Expr, FrontendError> {
        let start = self.offset();
        let lhs = self.pred()?;
        if self.eat(&TokenKind::Shr) {
            let rhs = self.pred()?;
            Ok(self.spanned(start, ExprKind::Translation(Box::new(lhs), Box::new(rhs))))
        } else {
            Ok(lhs)
        }
    }

    fn pred(&mut self) -> Result<Expr, FrontendError> {
        let start = self.offset();
        let lhs = self.tensor()?;
        if self.eat(&TokenKind::Amp) {
            let rhs = self.pred()?;
            Ok(self.spanned(start, ExprKind::Pred(Box::new(lhs), Box::new(rhs))))
        } else {
            Ok(lhs)
        }
    }

    fn tensor(&mut self) -> Result<Expr, FrontendError> {
        let start = self.offset();
        let mut lhs = self.repeat()?;
        while self.eat(&TokenKind::Plus) {
            let rhs = self.repeat()?;
            lhs = self.spanned(start, ExprKind::Tensor(Box::new(lhs), Box::new(rhs)));
        }
        Ok(lhs)
    }

    fn repeat(&mut self) -> Result<Expr, FrontendError> {
        let start = self.offset();
        let lhs = self.unary()?;
        if self.eat(&TokenKind::DblStar) {
            let count = self.dim_atom_expr()?;
            Ok(self.spanned(start, ExprKind::Repeat(Box::new(lhs), count)))
        } else {
            Ok(lhs)
        }
    }

    fn unary(&mut self) -> Result<Expr, FrontendError> {
        let start = self.offset();
        if self.eat(&TokenKind::Tilde) {
            let inner = self.unary()?;
            Ok(self.spanned(start, ExprKind::Adjoint(Box::new(inner))))
        } else if matches!(self.peek(), TokenKind::Minus)
            && matches!(self.peek2(), TokenKind::QLit(_))
        {
            self.bump();
            let inner = self.postfix()?;
            let span = self.span_from(start);
            match inner.kind {
                ExprKind::QLit { chars, phase } => {
                    let base = phase.unwrap_or(AngleExpr::Degrees(0.0));
                    Ok(Expr::new(
                        ExprKind::QLit {
                            chars,
                            phase: Some(AngleExpr::Add(
                                Box::new(base),
                                Box::new(AngleExpr::Degrees(180.0)),
                            )),
                        },
                        span,
                    ))
                }
                ExprKind::Pow(inner_expr, dim) => match inner_expr.kind {
                    ExprKind::QLit { chars, phase } => {
                        let base = phase.unwrap_or(AngleExpr::Degrees(0.0));
                        Ok(Expr::new(
                            ExprKind::Pow(
                                Box::new(Expr::new(
                                    ExprKind::QLit {
                                        chars,
                                        phase: Some(AngleExpr::Add(
                                            Box::new(base),
                                            Box::new(AngleExpr::Degrees(180.0)),
                                        )),
                                    },
                                    inner_expr.span,
                                )),
                                dim,
                            ),
                            span,
                        ))
                    }
                    other => self.error(format!("cannot negate {other:?}")),
                },
                other => self.error(format!("cannot negate {other:?}")),
            }
        } else {
            self.postfix()
        }
    }

    fn postfix(&mut self) -> Result<Expr, FrontendError> {
        let start = self.offset();
        let mut expr = self.atom()?;
        loop {
            if self.eat(&TokenKind::LBracket) {
                let dim = self.dim_expr()?;
                self.expect(TokenKind::RBracket)?;
                let kind = match expr.kind {
                    // `std[2]`: dimension of a built-in basis.
                    ExprKind::BuiltinBasis(prim, DimExpr::Const(1)) => {
                        ExprKind::BuiltinBasis(prim, dim)
                    }
                    other => ExprKind::Pow(Box::new(Expr::new(other, expr.span)), dim),
                };
                expr = self.spanned(start, kind);
            } else if self.eat(&TokenKind::Dot) {
                let method = self.ident()?;
                let kind = match method.as_str() {
                    "measure" => ExprKind::Measure(Box::new(expr)),
                    "flip" => ExprKind::Flip(Box::new(expr)),
                    "sign" => ExprKind::Sign(Box::new(expr)),
                    "xor" => ExprKind::Xor(Box::new(expr)),
                    "discard" => ExprKind::Discard(Box::new(expr)),
                    other => {
                        return self.error(format!("unknown qpu method .{other}"));
                    }
                };
                expr = self.spanned(start, kind);
            } else if self.eat(&TokenKind::At) {
                let angle = self.angle_atom()?;
                let kind = match expr.kind {
                    ExprKind::QLit { chars, phase: None } => {
                        ExprKind::QLit { chars, phase: Some(angle) }
                    }
                    other => {
                        return self
                            .error(format!("@phase applies to qubit literals, not {other:?}"));
                    }
                };
                expr = self.spanned(start, kind);
            } else {
                return Ok(expr);
            }
        }
    }

    fn atom(&mut self) -> Result<Expr, FrontendError> {
        let token_span = self.span_here();
        let start = token_span.start;
        match self.peek().clone() {
            TokenKind::QLit(body) => {
                self.bump();
                let chars = parse_qlit_chars(&body)
                    .map_err(|message| FrontendError::Parse { span: token_span, message })?;
                Ok(self.spanned(start, ExprKind::QLit { chars, phase: None }))
            }
            TokenKind::LBrace => self.basis_literal(),
            TokenKind::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::Ident(name) => {
                if let Some(prim) = builtin_basis_keyword(&name) {
                    self.bump();
                    Ok(self.spanned(start, ExprKind::BuiltinBasis(prim, DimExpr::Const(1))))
                } else if name == "id" {
                    self.bump();
                    let dim = self.opt_bracket_dim()?;
                    Ok(self.spanned(start, ExprKind::Id(dim)))
                } else {
                    self.bump();
                    Ok(self.spanned(start, ExprKind::Var(name)))
                }
            }
            other => self.error(format!("expected an expression, found {}", other.describe())),
        }
    }

    fn basis_literal(&mut self) -> Result<Expr, FrontendError> {
        let start = self.offset();
        self.expect(TokenKind::LBrace)?;
        let mut vectors = Vec::new();
        loop {
            let negated = self.eat(&TokenKind::Minus);
            let TokenKind::QLit(body) = self.peek().clone() else {
                return self.error("expected a qubit literal inside a basis literal");
            };
            let vector_span = self.span_here();
            self.bump();
            let chars = parse_qlit_chars(&body)
                .map_err(|message| FrontendError::Parse { span: vector_span, message })?;
            let power = if self.eat(&TokenKind::LBracket) {
                let d = self.dim_expr()?;
                self.expect(TokenKind::RBracket)?;
                Some(d)
            } else {
                None
            };
            let phase = if self.eat(&TokenKind::At) { Some(self.angle_atom()?) } else { None };
            vectors.push(VectorSyntax { chars, power, negated, phase });
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        self.expect(TokenKind::RBrace)?;
        Ok(self.spanned(start, ExprKind::BasisLit(vectors)))
    }

    // ------------------------------------------------------------------
    // classical expressions
    // ------------------------------------------------------------------

    fn cexpr(&mut self) -> Result<CExpr, FrontendError> {
        let mut lhs = self.cxor()?;
        while self.eat(&TokenKind::Pipe) {
            let rhs = self.cxor()?;
            lhs = CExpr::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn cxor(&mut self) -> Result<CExpr, FrontendError> {
        let mut lhs = self.cand()?;
        while self.eat(&TokenKind::Caret) {
            let rhs = self.cand()?;
            lhs = CExpr::Xor(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn cand(&mut self) -> Result<CExpr, FrontendError> {
        let mut lhs = self.cunary()?;
        while self.eat(&TokenKind::Amp) {
            let rhs = self.cunary()?;
            lhs = CExpr::And(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn cunary(&mut self) -> Result<CExpr, FrontendError> {
        if self.eat(&TokenKind::Tilde) {
            Ok(CExpr::Not(Box::new(self.cunary()?)))
        } else {
            self.cpostfix()
        }
    }

    fn cpostfix(&mut self) -> Result<CExpr, FrontendError> {
        let mut expr = self.catom()?;
        loop {
            if self.eat(&TokenKind::LBracket) {
                let idx = self.dim_expr()?;
                self.expect(TokenKind::RBracket)?;
                expr = CExpr::Index(Box::new(expr), idx);
            } else if self.eat(&TokenKind::Dot) {
                let method = self.ident()?;
                self.expect(TokenKind::LParen)?;
                expr = match method.as_str() {
                    "xor_reduce" => {
                        self.expect(TokenKind::RParen)?;
                        CExpr::XorReduce(Box::new(expr))
                    }
                    "and_reduce" => {
                        self.expect(TokenKind::RParen)?;
                        CExpr::AndReduce(Box::new(expr))
                    }
                    "repeat" => {
                        let n = self.dim_expr()?;
                        self.expect(TokenKind::RParen)?;
                        CExpr::Repeat(Box::new(expr), n)
                    }
                    other => {
                        return self.error(format!("unknown classical method .{other}"));
                    }
                };
            } else {
                return Ok(expr);
            }
        }
    }

    fn catom(&mut self) -> Result<CExpr, FrontendError> {
        match self.peek().clone() {
            TokenKind::Ident(name) => {
                self.bump();
                Ok(CExpr::Var(name))
            }
            TokenKind::LParen => {
                self.bump();
                let e = self.cexpr()?;
                self.expect(TokenKind::RParen)?;
                Ok(e)
            }
            other => {
                self.error(format!("expected a classical expression, found {}", other.describe()))
            }
        }
    }

    // ------------------------------------------------------------------
    // dimension and angle expressions
    // ------------------------------------------------------------------

    fn dim_expr(&mut self) -> Result<DimExpr, FrontendError> {
        let mut lhs = self.dim_term()?;
        loop {
            if self.eat(&TokenKind::Plus) {
                lhs = DimExpr::Add(Box::new(lhs), Box::new(self.dim_term()?));
            } else if self.eat(&TokenKind::Minus) {
                lhs = DimExpr::Sub(Box::new(lhs), Box::new(self.dim_term()?));
            } else {
                return Ok(lhs);
            }
        }
    }

    fn dim_term(&mut self) -> Result<DimExpr, FrontendError> {
        let mut lhs = self.dim_atom_expr()?;
        while self.eat(&TokenKind::Star) {
            lhs = DimExpr::Mul(Box::new(lhs), Box::new(self.dim_atom_expr()?));
        }
        Ok(lhs)
    }

    fn dim_atom_expr(&mut self) -> Result<DimExpr, FrontendError> {
        match self.peek().clone() {
            TokenKind::Int(v) => {
                self.bump();
                Ok(DimExpr::Const(v))
            }
            TokenKind::Ident(name) => {
                self.bump();
                Ok(DimExpr::Var(name))
            }
            TokenKind::LParen => {
                self.bump();
                let e = self.dim_expr()?;
                self.expect(TokenKind::RParen)?;
                Ok(e)
            }
            other => {
                self.error(format!("expected a dimension expression, found {}", other.describe()))
            }
        }
    }

    /// An angle after `@`: either a bare number/identifier or a
    /// parenthesized arithmetic expression.
    fn angle_atom(&mut self) -> Result<AngleExpr, FrontendError> {
        match self.peek().clone() {
            TokenKind::Int(v) => {
                self.bump();
                Ok(AngleExpr::Degrees(v as f64))
            }
            TokenKind::Float(v) => {
                self.bump();
                Ok(AngleExpr::Degrees(v))
            }
            TokenKind::Minus => {
                self.bump();
                Ok(AngleExpr::Neg(Box::new(self.angle_atom()?)))
            }
            TokenKind::Ident(name) => {
                self.bump();
                Ok(AngleExpr::Dim(DimExpr::Var(name)))
            }
            TokenKind::LParen => {
                self.bump();
                let e = self.angle_expr()?;
                self.expect(TokenKind::RParen)?;
                Ok(e)
            }
            other => self.error(format!("expected an angle, found {}", other.describe())),
        }
    }

    fn angle_expr(&mut self) -> Result<AngleExpr, FrontendError> {
        let mut lhs = self.angle_term()?;
        loop {
            if self.eat(&TokenKind::Plus) {
                lhs = AngleExpr::Add(Box::new(lhs), Box::new(self.angle_term()?));
            } else if self.eat(&TokenKind::Minus) {
                lhs = AngleExpr::Sub(Box::new(lhs), Box::new(self.angle_term()?));
            } else {
                return Ok(lhs);
            }
        }
    }

    fn angle_term(&mut self) -> Result<AngleExpr, FrontendError> {
        let mut lhs = self.angle_atom()?;
        loop {
            if self.eat(&TokenKind::Star) {
                lhs = AngleExpr::Mul(Box::new(lhs), Box::new(self.angle_atom()?));
            } else if self.eat(&TokenKind::Slash) {
                lhs = AngleExpr::Div(Box::new(lhs), Box::new(self.angle_atom()?));
            } else {
                return Ok(lhs);
            }
        }
    }
}

fn builtin_basis_keyword(name: &str) -> Option<PrimitiveBasis> {
    match name {
        "std" => Some(PrimitiveBasis::Std),
        "pm" => Some(PrimitiveBasis::Pm),
        "ij" => Some(PrimitiveBasis::Ij),
        "fourier" => Some(PrimitiveBasis::Fourier),
        _ => None,
    }
}

fn parse_qlit_chars(body: &str) -> Result<Vec<QubitChar>, String> {
    body.chars()
        .map(|c| {
            PrimitiveBasis::from_char(c).ok_or_else(|| format!("invalid qubit character {c:?}"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_fig1_program() {
        let src = r"
            classical f[N](secret: bit[N], x: bit[N]) -> bit {
                (secret & x).xor_reduce()
            }

            qpu kernel[N](f: cfunc[N, 1]) -> bit[N] {
                'p'[N] | f.sign | pm[N] >> std[N] | std[N].measure
            }
        ";
        let program = parse_program(src).unwrap();
        assert_eq!(program.items.len(), 2);
        let kernel = program.qpu("kernel").unwrap();
        assert_eq!(kernel.dim_vars, vec!["N".to_string()]);
        assert_eq!(kernel.params.len(), 1);
        let Stmt::Expr(body) = &kernel.body[0] else { panic!() };
        // Pipe is left-associative: ((prep | sign) | trans) | measure.
        let ExprKind::Pipe(lhs, rhs) = &body.kind else { panic!("got {body:?}") };
        assert!(matches!(rhs.kind, ExprKind::Measure(_)));
        let ExprKind::Pipe(lhs2, rhs2) = &lhs.kind else { panic!() };
        assert!(matches!(rhs2.kind, ExprKind::Translation(_, _)));
        let ExprKind::Pipe(prep, sign) = &lhs2.kind else { panic!() };
        assert!(matches!(prep.kind, ExprKind::Pow(_, _)));
        assert!(matches!(sign.kind, ExprKind::Sign(_)));
    }

    #[test]
    fn precedence_pred_binds_tighter_than_pipe() {
        let e = parse_expr("'p0' | '1' & std.flip").unwrap();
        let ExprKind::Pipe(_, rhs) = e.kind else { panic!() };
        assert!(matches!(rhs.kind, ExprKind::Pred(_, _)));
    }

    #[test]
    fn precedence_tensor_inside_pred() {
        // {'111'} + b & f parses as ({'111'} + b) & f.
        let e = parse_expr("{'111'} + std & id").unwrap();
        let ExprKind::Pred(lhs, _) = e.kind else { panic!() };
        assert!(matches!(lhs.kind, ExprKind::Tensor(_, _)));
    }

    #[test]
    fn parses_teleport_shapes() {
        let src = r"
            qpu teleport(secret: qubit) -> qubit {
                let alice, bob = 'p0' | '1' & std.flip;
                let m_pm, m_std = secret + alice | '1' & std.flip | (pm + std).measure;
                bob | (pm.flip if m_std else id) | (std.flip if m_pm else id)
            }
        ";
        let program = parse_program(src).unwrap();
        let teleport = program.qpu("teleport").unwrap();
        assert_eq!(teleport.body.len(), 3);
        assert!(matches!(
            teleport.body[0],
            Stmt::Let { ref names, .. } if names == &["alice", "bob"]
        ));
    }

    #[test]
    fn parses_repeat_and_adjoint() {
        let e = parse_expr("(f.sign | {'p'[3]} >> {-'p'[3]}) ** 12").unwrap();
        assert!(matches!(e.kind, ExprKind::Repeat(_, DimExpr::Const(12))));
        let e = parse_expr("~f").unwrap();
        assert!(matches!(e.kind, ExprKind::Adjoint(_)));
        let e = parse_expr("~~f").unwrap();
        let ExprKind::Adjoint(inner) = e.kind else { panic!() };
        assert!(matches!(inner.kind, ExprKind::Adjoint(_)));
    }

    #[test]
    fn parses_vector_phases() {
        let e = parse_expr("{'1'@45} >> {'1'@(180/N)}").unwrap();
        let ExprKind::Translation(lhs, rhs) = e.kind else { panic!() };
        let ExprKind::BasisLit(vl) = lhs.kind else { panic!() };
        assert_eq!(vl[0].phase, Some(AngleExpr::Degrees(45.0)));
        let ExprKind::BasisLit(vr) = rhs.kind else { panic!() };
        assert!(matches!(vr[0].phase, Some(AngleExpr::Div(_, _))));
    }

    #[test]
    fn parses_negated_vectors_and_literals() {
        let e = parse_expr("{-'11', '10'}").unwrap();
        let ExprKind::BasisLit(vs) = e.kind else { panic!() };
        assert!(vs[0].negated);
        assert!(!vs[1].negated);
        // Negated state prep.
        let e = parse_expr("-'p'").unwrap();
        assert!(matches!(e.kind, ExprKind::QLit { phase: Some(_), .. }));
    }

    #[test]
    fn parses_classical_body() {
        let src = r"
            classical g[N](s: bit[N], x: bit[N]) -> bit[N] {
                x ^ (x[0].repeat(N) & s) | ~x & s
            }
        ";
        let program = parse_program(src).unwrap();
        let g = program.classical("g").unwrap();
        assert!(matches!(g.body, CExpr::Or(_, _)));
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse_program("qpu {").is_err());
        assert!(parse_expr("'p' |").is_err());
        assert!(parse_expr("{'0q'}").is_err());
        assert!(parse_expr("f if g").is_err());
        assert!(parse_expr("x.unknown").is_err());
    }

    #[test]
    fn expressions_carry_source_spans() {
        let src = "'p0' | std[2].measure";
        let e = parse_expr(src).unwrap();
        // The whole pipe covers the whole input.
        assert_eq!((e.span.start, e.span.end), (0, src.len()));
        let ExprKind::Pipe(lhs, rhs) = &e.kind else { panic!() };
        assert_eq!(&src[lhs.span.start..lhs.span.end], "'p0'");
        assert_eq!(&src[rhs.span.start..rhs.span.end], "std[2].measure");
        let ExprKind::Measure(basis) = &rhs.kind else { panic!() };
        assert_eq!(&src[basis.span.start..basis.span.end], "std[2]");
    }

    #[test]
    fn parse_errors_carry_token_spans() {
        let src = "qpu k() -> bit {\n    '0' | %\n}";
        // `%` is a lex error on line 2.
        let err = parse_program(src).unwrap_err();
        let span = err.span().expect("lex/parse errors always have spans");
        assert_eq!(&src[span.start..span.end], "%");
    }

    #[test]
    fn fourier_dim() {
        let e = parse_expr("fourier[2*N+1]").unwrap();
        let ExprKind::BuiltinBasis(PrimitiveBasis::Fourier, d) = e.kind else { panic!() };
        let mut vars = Vec::new();
        d.vars(&mut vars);
        assert_eq!(vars, vec!["N".to_string()]);
    }
}
