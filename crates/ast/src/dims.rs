//! Dimension-variable and angle expressions.
//!
//! Qwerty supports *dimension variables*: functions polymorphic over an
//! integer dimension (§4, "AST expansion"). Dimension expressions appear in
//! types (`bit[N]`), tensor powers (`'p'[N]`), repetition (`f ** N`), and
//! angle arithmetic (`'1'@(180/N)`); expansion substitutes bindings and
//! folds everything to constants.

use crate::error::FrontendError;
use std::collections::HashMap;
use std::fmt;

/// An integer dimension expression.
#[derive(Debug, Clone, PartialEq)]
pub enum DimExpr {
    /// A constant.
    Const(i64),
    /// A dimension variable (e.g. `N`).
    Var(String),
    /// Sum.
    Add(Box<DimExpr>, Box<DimExpr>),
    /// Difference.
    Sub(Box<DimExpr>, Box<DimExpr>),
    /// Product.
    Mul(Box<DimExpr>, Box<DimExpr>),
}

impl DimExpr {
    /// Evaluates under `bindings`.
    ///
    /// # Errors
    ///
    /// Returns [`FrontendError::Dimension`] on unbound variables.
    pub(crate) fn eval(&self, bindings: &HashMap<String, i64>) -> Result<i64, FrontendError> {
        Ok(match self {
            DimExpr::Const(v) => *v,
            DimExpr::Var(name) => *bindings.get(name).ok_or_else(|| {
                FrontendError::dim_err(format!("unbound dimension variable {name}"))
            })?,
            DimExpr::Add(a, b) => a.eval(bindings)? + b.eval(bindings)?,
            DimExpr::Sub(a, b) => a.eval(bindings)? - b.eval(bindings)?,
            DimExpr::Mul(a, b) => a.eval(bindings)? * b.eval(bindings)?,
        })
    }

    /// Evaluates to a nonnegative qubit/bit count.
    ///
    /// # Errors
    ///
    /// Returns [`FrontendError::Dimension`] on unbound variables or
    /// negative results.
    pub fn eval_usize(&self, bindings: &HashMap<String, i64>) -> Result<usize, FrontendError> {
        let v = self.eval(bindings)?;
        usize::try_from(v).map_err(|_| {
            FrontendError::dim_err(format!("dimension {self} evaluated to negative {v}"))
        })
    }

    /// The set of variables mentioned.
    #[cfg(test)]
    pub(crate) fn vars(&self, out: &mut Vec<String>) {
        match self {
            DimExpr::Const(_) => {}
            DimExpr::Var(name) => {
                if !out.contains(name) {
                    out.push(name.clone());
                }
            }
            DimExpr::Add(a, b) | DimExpr::Sub(a, b) | DimExpr::Mul(a, b) => {
                a.vars(out);
                b.vars(out);
            }
        }
    }
}

impl fmt::Display for DimExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DimExpr::Const(v) => write!(f, "{v}"),
            DimExpr::Var(name) => f.write_str(name),
            DimExpr::Add(a, b) => write!(f, "({a} + {b})"),
            DimExpr::Sub(a, b) => write!(f, "({a} - {b})"),
            DimExpr::Mul(a, b) => write!(f, "({a} * {b})"),
        }
    }
}

/// An angle expression in degrees (Qwerty writes `bv@theta` with `theta` in
/// degrees, evoking `bv⟲theta`).
#[derive(Debug, Clone, PartialEq)]
pub enum AngleExpr {
    /// A literal number of degrees.
    Degrees(f64),
    /// A dimension variable used as a number.
    Dim(DimExpr),
    /// Sum.
    Add(Box<AngleExpr>, Box<AngleExpr>),
    /// Difference.
    Sub(Box<AngleExpr>, Box<AngleExpr>),
    /// Product.
    Mul(Box<AngleExpr>, Box<AngleExpr>),
    /// Quotient.
    Div(Box<AngleExpr>, Box<AngleExpr>),
    /// Negation.
    Neg(Box<AngleExpr>),
}

impl AngleExpr {
    /// Folds to radians under dimension bindings (the float constant
    /// folding of §4.2 happens here, during expansion).
    ///
    /// # Errors
    ///
    /// Returns [`FrontendError::Dimension`] on unbound variables or
    /// division by zero.
    pub(crate) fn eval_radians(
        &self,
        bindings: &HashMap<String, i64>,
    ) -> Result<f64, FrontendError> {
        Ok(self.eval_degrees(bindings)?.to_radians())
    }

    fn eval_degrees(&self, bindings: &HashMap<String, i64>) -> Result<f64, FrontendError> {
        Ok(match self {
            AngleExpr::Degrees(v) => *v,
            AngleExpr::Dim(d) => d.eval(bindings)? as f64,
            AngleExpr::Add(a, b) => a.eval_degrees(bindings)? + b.eval_degrees(bindings)?,
            AngleExpr::Sub(a, b) => a.eval_degrees(bindings)? - b.eval_degrees(bindings)?,
            AngleExpr::Mul(a, b) => a.eval_degrees(bindings)? * b.eval_degrees(bindings)?,
            AngleExpr::Div(a, b) => {
                let denom = b.eval_degrees(bindings)?;
                if denom == 0.0 {
                    return Err(FrontendError::dim_err(
                        "division by zero in angle expression".to_string(),
                    ));
                }
                a.eval_degrees(bindings)? / denom
            }
            AngleExpr::Neg(a) => -a.eval_degrees(bindings)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bind(pairs: &[(&str, i64)]) -> HashMap<String, i64> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn dim_arithmetic() {
        let e = DimExpr::Add(
            Box::new(DimExpr::Mul(Box::new(DimExpr::Const(2)), Box::new(DimExpr::Var("N".into())))),
            Box::new(DimExpr::Const(1)),
        );
        assert_eq!(e.eval(&bind(&[("N", 4)])).unwrap(), 9);
        assert!(e.eval(&bind(&[])).is_err());
        let mut vars = Vec::new();
        e.vars(&mut vars);
        assert_eq!(vars, vec!["N".to_string()]);
    }

    #[test]
    fn negative_dimension_rejected() {
        let e = DimExpr::Sub(Box::new(DimExpr::Const(1)), Box::new(DimExpr::Const(3)));
        assert!(e.eval_usize(&bind(&[])).is_err());
    }

    #[test]
    fn angle_folding() {
        let e = AngleExpr::Div(
            Box::new(AngleExpr::Degrees(180.0)),
            Box::new(AngleExpr::Dim(DimExpr::Var("N".into()))),
        );
        let r = e.eval_radians(&bind(&[("N", 2)])).unwrap();
        assert!((r - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
        let zero_div =
            AngleExpr::Div(Box::new(AngleExpr::Degrees(1.0)), Box::new(AngleExpr::Degrees(0.0)));
        assert!(zero_div.eval_radians(&bind(&[])).is_err());
    }
}
