//! Textual IR printing, for tests and debugging.
//!
//! The format loosely follows MLIR's generic syntax with dialect
//! mnemonics, e.g.:
//!
//! ```text
//! func @kernel() -> (bitbundle[4]) {
//!   %0 = qwerty.qbprep pm<PLUS>[4]
//!   %1 = qwerty.qbtrans %0 by pm[4] >> std[4]
//!   %2 = qwerty.qbmeas %1 in std[4]
//!   return %2
//! }
//! ```

use crate::block::Block;
use crate::func::{Func, Visibility};
use crate::module::Module;
use crate::op::{Op, OpKind};
use asdf_basis::Eigenstate;
use std::fmt;
use std::fmt::Write as _;

impl fmt::Display for Module {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for func in self.funcs() {
            writeln!(f, "{func}")?;
        }
        Ok(())
    }
}

impl fmt::Display for Func {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let vis = match self.visibility {
            Visibility::Public => "",
            Visibility::Private => "private ",
        };
        write!(f, "{vis}func @{}(", self.name)?;
        for (i, arg) in self.body.args.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{arg}: {}", self.value_type(*arg))?;
        }
        write!(f, ")")?;
        f.write_str(if self.ty.reversible { " -rev-> (" } else { " -> (" })?;
        for (i, t) in self.ty.results.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{t}")?;
        }
        writeln!(f, ") {{")?;
        write_block(f, &self.body, 1)?;
        writeln!(f, "}}")
    }
}

fn indent(f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
    for _ in 0..depth {
        f.write_str("  ")?;
    }
    Ok(())
}

fn write_block(f: &mut fmt::Formatter<'_>, block: &Block, depth: usize) -> fmt::Result {
    for op in &block.ops {
        indent(f, depth)?;
        writeln!(f, "{}", op_line(op))?;
        for (i, region) in op.regions.iter().enumerate() {
            indent(f, depth)?;
            let label = match (op.kind.clone(), i) {
                (OpKind::ScfIf, 0) => "then".to_string(),
                (OpKind::ScfIf, 1) => "else".to_string(),
                _ => format!("region {i}"),
            };
            let mut header = String::new();
            if !region.args.is_empty() {
                header.push('(');
                for (j, a) in region.args.iter().enumerate() {
                    if j > 0 {
                        header.push_str(", ");
                    }
                    let _ = write!(header, "{a}");
                }
                header.push(')');
            }
            writeln!(f, "{label}{header} {{")?;
            write_block(f, region, depth + 1)?;
            indent(f, depth)?;
            writeln!(f, "}}")?;
        }
    }
    Ok(())
}

/// Renders one op as a single line (without nested regions).
pub fn op_line(op: &Op) -> String {
    let mut s = String::new();
    if !op.results.is_empty() {
        for (i, r) in op.results.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "{r}");
        }
        s.push_str(" = ");
    }
    let _ = write!(s, "{}", kind_text(&op.kind));
    if !op.operands.is_empty() {
        s.push(' ');
        for (i, o) in op.operands.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "{o}");
        }
    }
    if let Some(suffix) = kind_suffix(&op.kind) {
        let _ = write!(s, " {suffix}");
    }
    s
}

fn kind_text(kind: &OpKind) -> String {
    match kind {
        OpKind::QbPrep { prim, eigenstate, dim } => {
            let eig = match eigenstate {
                Eigenstate::Plus => "PLUS",
                Eigenstate::Minus => "MINUS",
            };
            format!("qwerty.qbprep {prim}<{eig}>[{dim}]")
        }
        OpKind::ConstF64 { value } => format!("arith.constant {value:.6} : f64"),
        OpKind::ConstI1 { value } => format!("arith.constant {value} : i1"),
        OpKind::FuncConst { symbol } => format!("qwerty.func_const @{symbol}"),
        OpKind::Call { callee, adj, pred } => {
            let mut s = "qwerty.call".to_string();
            if *adj {
                s.push_str(" adj");
            }
            if let Some(b) = pred {
                let _ = write!(s, " pred({b})");
            }
            let _ = write!(s, " @{callee}");
            s
        }
        OpKind::Gate { gate, num_controls } => {
            if *num_controls > 0 {
                format!("qcirc.gate {gate} ctrl[{num_controls}]")
            } else {
                format!("qcirc.gate {gate}")
            }
        }
        OpKind::CallableCreate { symbol } => format!("qcirc.callable_create @{symbol}"),
        OpKind::CallableControl { extra } => format!("qcirc.callable_control[{extra}]"),
        OpKind::Lambda { func_ty } => format!("qwerty.lambda : {func_ty}"),
        other => other.mnemonic().to_string(),
    }
}

fn kind_suffix(kind: &OpKind) -> Option<String> {
    match kind {
        OpKind::QbTrans { basis_in, basis_out } => Some(format!("by {basis_in} >> {basis_out}")),
        OpKind::QbMeas { basis } => Some(format!("in {basis}")),
        OpKind::FuncPred { pred } => Some(format!("pred({pred})")),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::FuncBuilder;
    use crate::types::{FuncType, Type};
    use asdf_basis::{Basis, PrimitiveBasis};

    #[test]
    fn prints_a_kernel() {
        let mut b = FuncBuilder::new(
            "kernel",
            FuncType::new(vec![], vec![Type::BitBundle(2)], false),
            Visibility::Public,
        );
        let mut bb = b.block();
        let prep = bb.push(
            OpKind::QbPrep { prim: PrimitiveBasis::Pm, eigenstate: Eigenstate::Plus, dim: 2 },
            vec![],
            vec![Type::QBundle(2)],
        );
        let trans = bb.push(
            OpKind::QbTrans {
                basis_in: Basis::built_in(PrimitiveBasis::Pm, 2),
                basis_out: Basis::built_in(PrimitiveBasis::Std, 2),
            },
            vec![prep[0]],
            vec![Type::QBundle(2)],
        );
        let meas = bb.push(
            OpKind::QbMeas { basis: Basis::built_in(PrimitiveBasis::Std, 2) },
            vec![trans[0]],
            vec![Type::BitBundle(2)],
        );
        bb.push(OpKind::Return, vec![meas[0]], vec![]);
        let func = b.finish();
        let text = func.to_string();
        assert!(text.contains("func @kernel"));
        assert!(text.contains("qwerty.qbprep pm<PLUS>[2]"));
        assert!(text.contains("by pm[2] >> std[2]"));
        assert!(text.contains("qwerty.qbmeas"));
        assert!(text.contains("return"));
    }
}
