//! Rendering the untyped AST back to parseable Qwerty source.
//!
//! This is the inverse of [`crate::parse`]: `parse_program(render_program(p))`
//! reproduces `p` for every AST the parser itself can produce. Consumers that
//! build programs *bottom-up* (most importantly the differential-testing
//! generator in `asdf-difftest`) construct [`crate::ast`] values and render
//! them, so the emitted source is well-formed by construction and every
//! surface feature stays exercised through the real lexer and parser.
//!
//! Precedence mirrors the parser exactly (loosest to tightest): `|`,
//! `if`/`else`, `>>`, `&`, `+`, `** N`, unary `~`/`-`, postfix, atoms.
//! Children are parenthesized whenever their level is looser than their
//! context requires, so the printed text re-parses to the same tree.

use crate::ast::{
    CExpr, ClassicalFunc, Expr, ExprKind, Item, Program, QpuFunc, Stmt, TypeExpr, VectorSyntax,
};
use crate::dims::{AngleExpr, DimExpr};
use std::fmt::Write;

/// Renders a whole program as parseable source.
pub fn render_program(program: &Program) -> String {
    let mut out = String::new();
    for item in &program.items {
        match item {
            Item::Qpu(f) => render_qpu(&mut out, f),
            Item::Classical(f) => render_classical(&mut out, f),
        }
        out.push('\n');
    }
    out
}

/// Renders a single `qpu` expression (matching [`crate::parse::parse_expr`]).
#[cfg(test)]
pub(crate) fn render_expr(e: &Expr) -> String {
    let mut out = String::new();
    expr(&mut out, e, Level::Pipe);
    out
}

fn render_qpu(out: &mut String, f: &QpuFunc) {
    out.push_str("qpu ");
    out.push_str(&f.name);
    render_dim_vars(out, &f.dim_vars);
    render_params(out, &f.params);
    out.push_str(" -> ");
    render_type(out, &f.ret);
    out.push_str(" {\n");
    for stmt in &f.body {
        out.push_str("    ");
        match stmt {
            Stmt::Let { names, value } => {
                out.push_str("let ");
                out.push_str(&names.join(", "));
                out.push_str(" = ");
                expr(out, value, Level::Pipe);
                out.push(';');
            }
            Stmt::Expr(e) => expr(out, e, Level::Pipe),
        }
        out.push('\n');
    }
    out.push_str("}\n");
}

fn render_classical(out: &mut String, f: &ClassicalFunc) {
    out.push_str("classical ");
    out.push_str(&f.name);
    render_dim_vars(out, &f.dim_vars);
    render_params(out, &f.params);
    out.push_str(" -> ");
    render_type(out, &f.ret);
    out.push_str(" {\n    ");
    cexpr(out, &f.body, 0);
    out.push_str("\n}\n");
}

fn render_dim_vars(out: &mut String, vars: &[String]) {
    if !vars.is_empty() {
        out.push('[');
        out.push_str(&vars.join(", "));
        out.push(']');
    }
}

fn render_params(out: &mut String, params: &[crate::ast::Param]) {
    out.push('(');
    for (i, p) in params.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&p.name);
        out.push_str(": ");
        render_type(out, &p.ty);
    }
    out.push(')');
}

fn render_type(out: &mut String, ty: &TypeExpr) {
    match ty {
        TypeExpr::Qubit(d) => {
            out.push_str("qubit[");
            dim(out, d, 0);
            out.push(']');
        }
        TypeExpr::Bit(d) => {
            out.push_str("bit[");
            dim(out, d, 0);
            out.push(']');
        }
        TypeExpr::CFunc(n, m) => {
            out.push_str("cfunc[");
            dim(out, n, 0);
            out.push_str(", ");
            dim(out, m, 0);
            out.push(']');
        }
    }
}

/// Expression context levels, loosest first (mirrors the parser's
/// descent). An expression prints bare when its own level is at least as
/// tight as the context's; otherwise it is parenthesized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Level {
    Pipe,
    Cond,
    Trans,
    Pred,
    Tensor,
    Repeat,
    Unary,
    Postfix,
}

fn expr(out: &mut String, e: &Expr, ctx: Level) {
    let level = expr_level(e);
    if level < ctx {
        out.push('(');
        expr_bare(out, e);
        out.push(')');
    } else {
        expr_bare(out, e);
    }
}

fn expr_level(e: &Expr) -> Level {
    match &e.kind {
        ExprKind::Pipe(_, _) => Level::Pipe,
        ExprKind::Cond { .. } => Level::Cond,
        ExprKind::Translation(_, _) => Level::Trans,
        ExprKind::Pred(_, _) => Level::Pred,
        ExprKind::Tensor(_, _) => Level::Tensor,
        ExprKind::Repeat(_, _) => Level::Repeat,
        ExprKind::Adjoint(_) => Level::Unary,
        ExprKind::Pow(_, _)
        | ExprKind::Measure(_)
        | ExprKind::Flip(_)
        | ExprKind::Sign(_)
        | ExprKind::Xor(_)
        | ExprKind::Discard(_) => Level::Postfix,
        // Atoms (including `id[N]`, whose bracket is part of the atom) and
        // qubit literals (whose `@phase` binds at postfix level) never need
        // parentheses of their own.
        ExprKind::QLit { .. }
        | ExprKind::BasisLit(_)
        | ExprKind::BuiltinBasis(_, _)
        | ExprKind::Var(_)
        | ExprKind::Id(_) => Level::Postfix,
    }
}

fn expr_bare(out: &mut String, e: &Expr) {
    match &e.kind {
        ExprKind::Pipe(a, b) => {
            expr(out, a, Level::Pipe);
            out.push_str(" | ");
            expr(out, b, Level::Cond);
        }
        ExprKind::Cond { then_expr, cond, else_expr } => {
            expr(out, then_expr, Level::Trans);
            out.push_str(" if ");
            expr(out, cond, Level::Trans);
            out.push_str(" else ");
            expr(out, else_expr, Level::Cond);
        }
        ExprKind::Translation(a, b) => {
            expr(out, a, Level::Pred);
            out.push_str(" >> ");
            expr(out, b, Level::Pred);
        }
        ExprKind::Pred(a, b) => {
            expr(out, a, Level::Tensor);
            out.push_str(" & ");
            expr(out, b, Level::Pred);
        }
        ExprKind::Tensor(a, b) => {
            expr(out, a, Level::Tensor);
            out.push_str(" + ");
            expr(out, b, Level::Repeat);
        }
        ExprKind::Repeat(f, d) => {
            expr(out, f, Level::Unary);
            out.push_str(" ** ");
            dim(out, d, 2);
        }
        ExprKind::Adjoint(f) => {
            out.push('~');
            expr(out, f, Level::Unary);
        }
        ExprKind::Pow(inner, d) => {
            expr(out, inner, Level::Postfix);
            out.push('[');
            dim(out, d, 0);
            out.push(']');
        }
        ExprKind::Measure(b) => postfix_method(out, b, "measure"),
        ExprKind::Flip(b) => postfix_method(out, b, "flip"),
        ExprKind::Sign(f) => postfix_method(out, f, "sign"),
        ExprKind::Xor(f) => postfix_method(out, f, "xor"),
        ExprKind::Discard(b) => postfix_method(out, b, "discard"),
        ExprKind::QLit { chars, phase } => {
            qlit_chars(out, chars);
            if let Some(a) = phase {
                out.push('@');
                angle_atom(out, a);
            }
        }
        ExprKind::BasisLit(vectors) => {
            out.push('{');
            for (i, v) in vectors.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                vector(out, v);
            }
            out.push('}');
        }
        ExprKind::BuiltinBasis(prim, d) => {
            out.push_str(prim.keyword());
            if *d != DimExpr::Const(1) {
                out.push('[');
                dim(out, d, 0);
                out.push(']');
            }
        }
        ExprKind::Var(name) => out.push_str(name),
        ExprKind::Id(d) => {
            out.push_str("id");
            if *d != DimExpr::Const(1) {
                out.push('[');
                dim(out, d, 0);
                out.push(']');
            }
        }
    }
}

fn postfix_method(out: &mut String, receiver: &Expr, method: &str) {
    expr(out, receiver, Level::Postfix);
    out.push('.');
    out.push_str(method);
}

fn qlit_chars(out: &mut String, chars: &[crate::ast::QubitChar]) {
    out.push('\'');
    for &(prim, eig) in chars {
        let (plus, minus) = prim.chars().expect("literal characters exist for separable bases");
        out.push(if eig.eigenbit() { minus } else { plus });
    }
    out.push('\'');
}

fn vector(out: &mut String, v: &VectorSyntax) {
    if v.negated {
        out.push('-');
    }
    qlit_chars(out, &v.chars);
    if let Some(d) = &v.power {
        out.push('[');
        dim(out, d, 0);
        out.push(']');
    }
    if let Some(a) = &v.phase {
        out.push('@');
        angle_atom(out, a);
    }
}

/// Dimension expressions. `ctx` 0 accepts sums, 1 products, 2 atoms only.
fn dim(out: &mut String, d: &DimExpr, ctx: u8) {
    let level = match d {
        DimExpr::Add(_, _) | DimExpr::Sub(_, _) => 0,
        DimExpr::Mul(_, _) => 1,
        DimExpr::Const(_) | DimExpr::Var(_) => 2,
    };
    if level < ctx {
        out.push('(');
        dim_bare(out, d);
        out.push(')');
    } else {
        dim_bare(out, d);
    }
}

fn dim_bare(out: &mut String, d: &DimExpr) {
    match d {
        DimExpr::Const(v) => {
            let _ = write!(out, "{v}");
        }
        DimExpr::Var(name) => out.push_str(name),
        DimExpr::Add(a, b) => {
            dim(out, a, 0);
            out.push_str(" + ");
            dim(out, b, 1);
        }
        DimExpr::Sub(a, b) => {
            dim(out, a, 0);
            out.push_str(" - ");
            dim(out, b, 1);
        }
        DimExpr::Mul(a, b) => {
            dim(out, a, 1);
            out.push_str(" * ");
            dim(out, b, 2);
        }
    }
}

/// An angle in the restricted position after `@`: a bare number, a bare
/// variable, a leading `-`, or a parenthesized arithmetic expression.
fn angle_atom(out: &mut String, a: &AngleExpr) {
    match a {
        AngleExpr::Degrees(v) => {
            if v.fract() == 0.0 && *v >= 0.0 && *v <= i64::MAX as f64 {
                let _ = write!(out, "{}", *v as i64);
            } else {
                let _ = write!(out, "{v}");
            }
        }
        AngleExpr::Dim(DimExpr::Var(name)) => out.push_str(name),
        AngleExpr::Neg(inner) => {
            out.push('-');
            angle_atom(out, inner);
        }
        other => {
            out.push('(');
            angle_expr(out, other);
            out.push(')');
        }
    }
}

fn angle_expr(out: &mut String, a: &AngleExpr) {
    match a {
        AngleExpr::Add(x, y) => {
            angle_expr(out, x);
            out.push_str(" + ");
            angle_term(out, y);
        }
        AngleExpr::Sub(x, y) => {
            angle_expr(out, x);
            out.push_str(" - ");
            angle_term(out, y);
        }
        other => angle_term(out, other),
    }
}

fn angle_term(out: &mut String, a: &AngleExpr) {
    match a {
        AngleExpr::Mul(x, y) => {
            angle_term(out, x);
            out.push_str(" * ");
            angle_atom(out, y);
        }
        AngleExpr::Div(x, y) => {
            angle_term(out, x);
            out.push_str(" / ");
            angle_atom(out, y);
        }
        other => angle_atom(out, other),
    }
}

/// Classical expressions. `ctx` 0 accepts `|`, 1 `^`, 2 `&`, 3 unary.
fn cexpr(out: &mut String, e: &CExpr, ctx: u8) {
    let level = match e {
        CExpr::Or(_, _) => 0,
        CExpr::Xor(_, _) => 1,
        CExpr::And(_, _) => 2,
        CExpr::Not(_) => 3,
        CExpr::Var(_)
        | CExpr::Index(_, _)
        | CExpr::Repeat(_, _)
        | CExpr::XorReduce(_)
        | CExpr::AndReduce(_) => 4,
    };
    if level < ctx {
        out.push('(');
        cexpr_bare(out, e);
        out.push(')');
    } else {
        cexpr_bare(out, e);
    }
}

fn cexpr_bare(out: &mut String, e: &CExpr) {
    match e {
        CExpr::Var(name) => out.push_str(name),
        CExpr::Or(a, b) => {
            cexpr(out, a, 0);
            out.push_str(" | ");
            cexpr(out, b, 1);
        }
        CExpr::Xor(a, b) => {
            cexpr(out, a, 1);
            out.push_str(" ^ ");
            cexpr(out, b, 2);
        }
        CExpr::And(a, b) => {
            cexpr(out, a, 2);
            out.push_str(" & ");
            cexpr(out, b, 3);
        }
        CExpr::Not(a) => {
            out.push('~');
            cexpr(out, a, 3);
        }
        CExpr::Index(a, d) => {
            cexpr(out, a, 4);
            out.push('[');
            dim(out, d, 0);
            out.push(']');
        }
        CExpr::Repeat(a, d) => {
            cexpr(out, a, 4);
            out.push_str(".repeat(");
            dim(out, d, 0);
            out.push(')');
        }
        CExpr::XorReduce(a) => {
            cexpr(out, a, 4);
            out.push_str(".xor_reduce()");
        }
        CExpr::AndReduce(a) => {
            cexpr(out, a, 4);
            out.push_str(".and_reduce()");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::{parse_expr, parse_program};

    fn round_trip_expr(src: &str) {
        let ast = parse_expr(src).unwrap();
        let printed = render_expr(&ast);
        let reparsed = parse_expr(&printed)
            .unwrap_or_else(|e| panic!("printed {printed:?} does not parse: {e}"));
        assert_eq!(ast, reparsed, "{src} printed as {printed}");
    }

    #[test]
    fn expressions_round_trip() {
        for src in [
            "'p'[3] | f.sign | pm[3] >> std[3] | std[3].measure",
            "qs | {'11'} & (std >> pm) | ~({'11'} & (std >> pm)) | std[3].measure",
            "{'p'} + fourier[3] + {'1'@45} + pm >> {-'p'} + std[2] + ij + {-'11','10'}",
            "(f.sign | {'p'[3]} >> {-'p'[3]}) ** 12",
            "bob | (pm.flip if m_pm else id) | (std.flip if m_std else id)",
            "'p0' | '1' & std.flip",
            "{'111'} + std & id",
            "-'p'",
            "{'1'@45} >> {'1'@(180/N)}",
            "~~f",
            "'p' + '0'[2] | ('1' & std.flip) + id",
            "std + fourier[3] >> fourier[3] + std",
            "x | (a & b & idf) | fourier[2*N+1].measure",
            "'0' | std >> pm | {'0'} >> {-'0'} | pm >> std | std.measure",
            "q | std >> ij | ij >> std | std.measure",
            "'pm'@(45 - 180 * N) | id[2]",
        ] {
            round_trip_expr(src);
        }
    }

    #[test]
    fn programs_round_trip() {
        let src = r"
            classical f[N](secret: bit[N], x: bit[N]) -> bit {
                (secret & x).xor_reduce()
            }
            classical g[N](s: bit[N], x: bit[N]) -> bit[N] {
                x ^ (x[0].repeat(N) & s) | ~x & s
            }
            qpu kernel[N](f: cfunc[N, 1]) -> bit[N] {
                'p'[N] | f.sign | pm[N] >> std[N] | std[N].measure
            }
            qpu teleport(secret: qubit[1]) -> qubit[1] {
                let alice, bob = 'p0' | '1' & std.flip;
                let m_pm, m_std = secret + alice | '1' & std.flip | (pm + std).measure;
                bob | (pm.flip if m_pm else id) | (std.flip if m_std else id)
            }
        ";
        let program = parse_program(src).unwrap();
        let printed = render_program(&program);
        let reparsed = parse_program(&printed)
            .unwrap_or_else(|e| panic!("printed program does not parse: {e}\n{printed}"));
        assert_eq!(program, reparsed, "{printed}");
    }

    #[test]
    fn negated_prep_round_trips_through_phase_sugar() {
        // `-'p'` parses to an explicit 0+180 phase; printing and reparsing
        // preserves that tree even though the surface spelling changes.
        let ast = parse_expr("-'p'").unwrap();
        let printed = render_expr(&ast);
        assert_eq!(ast, parse_expr(&printed).unwrap(), "{printed}");
    }
}
