//! The untyped Qwerty AST, as produced by the parser.
//!
//! This corresponds to the "typed Qwerty AST" *shape* of the paper before
//! expansion: dimensions are still symbolic expressions and types are
//! syntactic. `expand` resolves dimensions, and `typecheck` produces the
//! typed AST in [`crate::tast`].

use crate::diag::Span;
use crate::dims::{AngleExpr, DimExpr};
use asdf_basis::{Eigenstate, PrimitiveBasis};

/// A whole source file: a list of `qpu` and `classical` items.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// Top-level items in source order.
    pub items: Vec<Item>,
}

impl Program {
    /// Finds a `qpu` item by name.
    pub fn qpu(&self, name: &str) -> Option<&QpuFunc> {
        self.items.iter().find_map(|item| match item {
            Item::Qpu(f) if f.name == name => Some(f),
            _ => None,
        })
    }

    /// Finds a `classical` item by name.
    pub(crate) fn classical(&self, name: &str) -> Option<&ClassicalFunc> {
        self.items.iter().find_map(|item| match item {
            Item::Classical(f) if f.name == name => Some(f),
            _ => None,
        })
    }
}

/// A top-level item.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// A `qpu` kernel (the paper's `@qpu` function).
    Qpu(QpuFunc),
    /// A `classical` function (the paper's `@classical` function).
    Classical(ClassicalFunc),
}

/// A syntactic type annotation.
#[derive(Debug, Clone, PartialEq)]
pub enum TypeExpr {
    /// `qubit[N]` (or `qubit`, meaning `qubit[1]`).
    Qubit(DimExpr),
    /// `bit[N]` (or `bit`).
    Bit(DimExpr),
    /// `cfunc[N, M]`: a classical function from `bit[N]` to `bit[M]`.
    CFunc(DimExpr, DimExpr),
}

/// A function parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Parameter name.
    pub name: String,
    /// Declared type.
    pub ty: TypeExpr,
}

/// A `qpu` kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct QpuFunc {
    /// Kernel name.
    pub name: String,
    /// Dimension variables (`kernel[N, M]`).
    pub dim_vars: Vec<String>,
    /// Parameters. Parameters of `cfunc`/`bit` type are *captures* bound at
    /// instantiation; `qubit` parameters are runtime arguments.
    pub params: Vec<Param>,
    /// Declared result type.
    pub ret: TypeExpr,
    /// Body: `let` bindings followed by a final expression.
    pub body: Vec<Stmt>,
}

/// A `classical` function.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassicalFunc {
    /// Function name.
    pub name: String,
    /// Dimension variables.
    pub dim_vars: Vec<String>,
    /// Parameters; leading parameters may be captures bound at
    /// instantiation (like `secret_str` in Fig. 1).
    pub params: Vec<Param>,
    /// Declared result type (must be a `bit[...]`).
    pub ret: TypeExpr,
    /// The body expression.
    pub body: CExpr,
}

/// A statement in a `qpu` body.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `let a, b = expr;` — destructures measurement results or qubit
    /// tuples positionally by declared widths.
    Let {
        /// Bound names, in order.
        names: Vec<String>,
        /// Right-hand side.
        value: Expr,
    },
    /// The final expression of the body (the kernel result).
    Expr(Expr),
}

/// One position of a qubit literal: a primitive basis and an eigenstate.
pub type QubitChar = (PrimitiveBasis, Eigenstate);

/// A basis-literal vector as written: characters, a negation flag, and an
/// optional angle.
#[derive(Debug, Clone, PartialEq)]
pub struct VectorSyntax {
    /// The character sequence (e.g. `10` or `pm`).
    pub chars: Vec<QubitChar>,
    /// Tensor power applied to the characters (`'p'[N]`).
    pub power: Option<DimExpr>,
    /// Leading `-`.
    pub negated: bool,
    /// Trailing `@theta` (degrees).
    pub phase: Option<AngleExpr>,
}

/// A `qpu` expression: a kind plus the source span it was parsed from.
///
/// Consumers that build ASTs programmatically (tests, the difftest
/// generator) construct kinds and convert with `From`, leaving the span
/// unknown: `let e: Expr = ExprKind::Var("f".into()).into();`
#[derive(Debug, Clone)]
pub struct Expr {
    /// The expression node.
    pub kind: ExprKind,
    /// Source range this expression was parsed from (empty when the AST
    /// was built programmatically).
    pub span: Span,
}

/// Structural equality: spans are locations, not meaning, so two
/// expressions compare equal whenever their kinds do (round-tripping
/// through [`crate::pretty`] preserves equality even though offsets
/// move).
impl PartialEq for Expr {
    fn eq(&self, other: &Expr) -> bool {
        self.kind == other.kind
    }
}

impl Expr {
    /// An expression with a known source span.
    pub(crate) fn new(kind: ExprKind, span: Span) -> Expr {
        Expr { kind, span }
    }
}

impl From<ExprKind> for Expr {
    fn from(kind: ExprKind) -> Expr {
        Expr { kind, span: Span::default() }
    }
}

/// A `qpu` expression kind.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    /// A qubit literal used as state preparation, e.g. `'p0'` (possibly
    /// mixed-basis per position).
    QLit {
        /// Characters of the literal.
        chars: Vec<QubitChar>,
        /// Leading `-` or `@theta` (a global phase on the prepared state,
        /// dropped with a warning during lowering).
        phase: Option<AngleExpr>,
    },
    /// A basis literal `{v1, v2, ...}`.
    BasisLit(Vec<VectorSyntax>),
    /// A built-in basis, e.g. `pm[4]` or `fourier[N]`.
    BuiltinBasis(PrimitiveBasis, DimExpr),
    /// A variable reference (parameter, `let` binding, or another kernel).
    Var(String),
    /// `value | func` — application.
    Pipe(Box<Expr>, Box<Expr>),
    /// `a + b` — tensor product.
    Tensor(Box<Expr>, Box<Expr>),
    /// `e[N]` — tensor power.
    Pow(Box<Expr>, DimExpr),
    /// `f ** N` — N-fold composition (stands in for the Python loop
    /// unrolling the paper's expansion performs).
    Repeat(Box<Expr>, DimExpr),
    /// `b1 >> b2` — basis translation.
    Translation(Box<Expr>, Box<Expr>),
    /// `~f` — adjoint.
    Adjoint(Box<Expr>),
    /// `b & f` — predication.
    Pred(Box<Expr>, Box<Expr>),
    /// `b.measure`.
    Measure(Box<Expr>),
    /// `b.flip` — sugar for `b >>` the reversed two-vector literal.
    Flip(Box<Expr>),
    /// `f.sign` — the phase oracle form of a classical function.
    Sign(Box<Expr>),
    /// `f.xor` — the Bennett (XOR) embedding of a classical function.
    Xor(Box<Expr>),
    /// `id[N]` — the identity function on N qubits.
    Id(DimExpr),
    /// `b.discard` — discards qubits (measurement-free reset).
    Discard(Box<Expr>),
    /// `t if c else e` — classical conditional selecting between function
    /// values (Fig. C13).
    Cond {
        /// Value when true.
        then_expr: Box<Expr>,
        /// An `i1`-producing expression (a measured bit).
        cond: Box<Expr>,
        /// Value when false.
        else_expr: Box<Expr>,
    },
}

/// A `classical` expression over bit vectors.
#[derive(Debug, Clone, PartialEq)]
pub enum CExpr {
    /// A parameter reference.
    Var(String),
    /// Bitwise AND.
    And(Box<CExpr>, Box<CExpr>),
    /// Bitwise OR.
    Or(Box<CExpr>, Box<CExpr>),
    /// Bitwise XOR.
    Xor(Box<CExpr>, Box<CExpr>),
    /// Bitwise NOT.
    Not(Box<CExpr>),
    /// `x[i]` — a single bit.
    Index(Box<CExpr>, DimExpr),
    /// `x.repeat(N)` — broadcast a 1-bit value to N bits.
    Repeat(Box<CExpr>, DimExpr),
    /// `x.xor_reduce()` — parity of all bits.
    XorReduce(Box<CExpr>),
    /// `x.and_reduce()` — conjunction of all bits.
    AndReduce(Box<CExpr>),
}
