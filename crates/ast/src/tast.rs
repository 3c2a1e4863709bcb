//! The typed Qwerty AST produced by type checking.
//!
//! All dimensions are resolved to constants, all basis expressions to
//! [`asdf_basis::Basis`] values (with phases constant-folded per §4.2), and
//! every node carries its [`Type`]. This is the representation that AST
//! canonicalization (§4.2) rewrites and that `asdf-core` lowers to Qwerty
//! IR (§5.1).

use crate::ast::QubitChar;
use crate::diag::Span;
use crate::types::{Type, ValueKind};
use asdf_basis::Basis;
use std::collections::HashMap;

/// A fully typed, monomorphic kernel instance.
#[derive(Debug, Clone, PartialEq)]
pub struct TKernel {
    /// Kernel name (instance names append dimension bindings).
    pub name: String,
    /// Runtime parameters (qubit registers).
    pub params: Vec<(String, ValueKind)>,
    /// Result kind.
    pub ret: ValueKind,
    /// Body statements; the last is the result expression.
    pub body: Vec<TStmt>,
    /// Classical function instances referenced by `Sign` / `XorEmbed`
    /// nodes, indexed by position.
    pub classical: Vec<TClassical>,
}

/// A typed statement.
#[derive(Debug, Clone, PartialEq)]
pub enum TStmt {
    /// `let` destructuring.
    Let {
        /// Bound names with their kinds.
        names: Vec<(String, ValueKind)>,
        /// Right-hand side.
        value: TExpr,
    },
    /// The final (result) expression.
    Expr(TExpr),
}

/// A typed expression.
#[derive(Debug, Clone)]
pub struct TExpr {
    /// Node kind.
    pub kind: TExprKind,
    /// Node type.
    pub ty: Type,
    /// Source range of the untyped expression this node was checked from
    /// (the default span when synthesized by canonicalization). Lowering
    /// stamps it onto the IR ops it emits, so lints can point back here.
    pub span: Span,
}

/// Structural equality: spans are locations, not meaning, so typed
/// expressions compare equal whenever kind and type do (matching the
/// untyped [`Expr`](crate::ast::Expr) convention).
impl PartialEq for TExpr {
    fn eq(&self, other: &TExpr) -> bool {
        self.kind == other.kind && self.ty == other.ty
    }
}

impl TExpr {
    /// A typed expression with an unknown span.
    pub(crate) fn new(kind: TExprKind, ty: Type) -> TExpr {
        TExpr { kind, ty, span: Span::default() }
    }

    /// The same expression with a source span attached.
    #[must_use]
    pub(crate) fn with_span(mut self, span: Span) -> TExpr {
        self.span = span;
        self
    }
}

/// Typed expression kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum TExprKind {
    /// Qubit-literal state preparation (per-position primitive basis and
    /// eigenstate). Any written global phase has been dropped.
    QLit {
        /// Characters of the literal.
        chars: Vec<QubitChar>,
    },
    /// A basis translation `b_in >> b_out` as a function value.
    Translation {
        /// Input basis (phases folded to constants).
        b_in: Basis,
        /// Output basis.
        b_out: Basis,
    },
    /// A measurement `b.measure` as a function value.
    Measure {
        /// Measurement basis.
        basis: Basis,
    },
    /// `b.discard` as a function value (reset + release).
    Discard {
        /// Number of qubits discarded.
        dim: usize,
    },
    /// The identity function on `dim` qubits.
    Id {
        /// Width.
        dim: usize,
    },
    /// A variable reference (parameter or `let` binding).
    Var {
        /// The name.
        name: String,
    },
    /// A reference to another kernel as a function value.
    KernelRef {
        /// Mangled instance name of the referenced kernel.
        name: String,
    },
    /// `~f`.
    Adjoint(Box<TExpr>),
    /// `b & f`.
    Pred {
        /// Predicate basis.
        basis: Basis,
        /// Predicated function.
        func: Box<TExpr>,
    },
    /// Tensor product of values or of functions.
    Tensor(Vec<TExpr>),
    /// `value | func`.
    Pipe {
        /// The piped value.
        value: Box<TExpr>,
        /// The applied function.
        func: Box<TExpr>,
    },
    /// Left-to-right composition (from `f ** N` unrolling).
    Compose(Vec<TExpr>),
    /// `f.sign`: the phase-oracle embedding of classical instance
    /// `classical`.
    Sign {
        /// Index into [`TKernel::classical`].
        classical: usize,
    },
    /// `f.xor`: the Bennett embedding of classical instance `classical`.
    XorEmbed {
        /// Index into [`TKernel::classical`].
        classical: usize,
    },
    /// `t if c else e` over function values.
    Cond {
        /// The measured bit driving the choice.
        cond: Box<TExpr>,
        /// Function when true.
        then_f: Box<TExpr>,
        /// Function when false.
        else_f: Box<TExpr>,
    },
}

/// A monomorphic instance of a `classical` function with captures bound.
#[derive(Debug, Clone, PartialEq)]
pub struct TClassical {
    /// Unique instance name.
    pub name: String,
    /// All parameters with resolved widths, captures first.
    pub params: Vec<(String, usize)>,
    /// Constant bit values for the leading (capture) parameters.
    pub capture_bits: Vec<Vec<bool>>,
    /// Total width of the non-capture inputs.
    pub n_in: usize,
    /// Output width.
    pub n_out: usize,
    /// The body, still symbolic over `dims`.
    pub body: crate::ast::CExpr,
    /// Dimension bindings for evaluating the body.
    pub dims: HashMap<String, i64>,
}

impl TClassical {
    /// Evaluates the classical function on concrete input bits (captures
    /// already bound). Used by tests and by oracle verification.
    ///
    /// # Errors
    ///
    /// Returns a message if widths mismatch or the body is ill-formed.
    pub fn eval(&self, input: &[bool]) -> Result<Vec<bool>, String> {
        if input.len() != self.n_in {
            return Err(format!("expected {} input bits, got {}", self.n_in, input.len()));
        }
        let mut env: HashMap<&str, Vec<bool>> = HashMap::new();
        let mut offset = 0usize;
        for (i, (name, width)) in self.params.iter().enumerate() {
            if i < self.capture_bits.len() {
                env.insert(name, self.capture_bits[i].clone());
            } else {
                env.insert(name, input[offset..offset + width].to_vec());
                offset += width;
            }
        }
        let out = eval_cexpr(&self.body, &env, &self.dims)?;
        if out.len() != self.n_out {
            return Err(format!("body produced {} bits, expected {}", out.len(), self.n_out));
        }
        Ok(out)
    }
}

fn eval_cexpr(
    e: &crate::ast::CExpr,
    env: &HashMap<&str, Vec<bool>>,
    dims: &HashMap<String, i64>,
) -> Result<Vec<bool>, String> {
    use crate::ast::CExpr;
    Ok(match e {
        CExpr::Var(name) => env
            .get(name.as_str())
            .cloned()
            .ok_or_else(|| format!("unbound classical variable {name}"))?,
        CExpr::And(a, b) => {
            zip_bits(eval_cexpr(a, env, dims)?, eval_cexpr(b, env, dims)?, |x, y| x & y)?
        }
        CExpr::Or(a, b) => {
            zip_bits(eval_cexpr(a, env, dims)?, eval_cexpr(b, env, dims)?, |x, y| x | y)?
        }
        CExpr::Xor(a, b) => {
            zip_bits(eval_cexpr(a, env, dims)?, eval_cexpr(b, env, dims)?, |x, y| x ^ y)?
        }
        CExpr::Not(a) => eval_cexpr(a, env, dims)?.into_iter().map(|b| !b).collect(),
        CExpr::Index(a, idx) => {
            let bits = eval_cexpr(a, env, dims)?;
            let i = idx.eval_usize(dims).map_err(|e| e.to_string())?;
            vec![*bits.get(i).ok_or_else(|| format!("bit index {i} out of range"))?]
        }
        CExpr::Repeat(a, n) => {
            let bits = eval_cexpr(a, env, dims)?;
            if bits.len() != 1 {
                return Err("repeat() applies to single bits".to_string());
            }
            let n = n.eval_usize(dims).map_err(|e| e.to_string())?;
            vec![bits[0]; n]
        }
        CExpr::XorReduce(a) => {
            vec![eval_cexpr(a, env, dims)?.into_iter().fold(false, |x, y| x ^ y)]
        }
        CExpr::AndReduce(a) => {
            vec![eval_cexpr(a, env, dims)?.into_iter().all(|b| b)]
        }
    })
}

fn zip_bits(
    a: Vec<bool>,
    b: Vec<bool>,
    f: impl Fn(bool, bool) -> bool,
) -> Result<Vec<bool>, String> {
    if a.len() != b.len() {
        return Err(format!("width mismatch: {} vs {}", a.len(), b.len()));
    }
    Ok(a.into_iter().zip(b).map(|(x, y)| f(x, y)).collect())
}
