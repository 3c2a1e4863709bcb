//! Phase/Clifford gate classification.
//!
//! Partitions the gate set into Cliffords, T-like gates (odd multiples of
//! a π/4 phase), and genuine rotations. The split drives the fault-tolerant
//! cost intuition (Cliffords are cheap, T gates dominate, rotations need
//! synthesis) and the pedantic W0004 lint, which flags parameterized
//! rotations whose angle is a π/4 multiple — those are exactly
//! representable with discrete Clifford+T gates.

use asdf_ir::{Func, GateKind, Module, OpKind};
use std::f64::consts::FRAC_PI_4;

/// Fault-tolerant cost class of a gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum GateClass {
    /// In the Clifford group (phase angle a multiple of π/2).
    Clifford,
    /// Clifford+T but not Clifford (odd multiple of π/4).
    TLike,
    /// A continuous rotation needing synthesis.
    Rotation,
}

/// Classifies an angle in radians by its relation to π/4.
fn angle_class(theta: f64) -> GateClass {
    let quarters = theta / FRAC_PI_4;
    let nearest = quarters.round();
    if (quarters - nearest).abs() > 1e-9 {
        GateClass::Rotation
    } else if (nearest as i64).rem_euclid(2) == 0 {
        GateClass::Clifford
    } else {
        GateClass::TLike
    }
}

/// Classifies a gate.
///
/// Parameterized gates are classified by angle, so `p(pi)` is recognized
/// as the Clifford Z and `rz(pi/4)` as T-like.
pub(crate) fn classify(gate: GateKind) -> GateClass {
    match gate {
        GateKind::X
        | GateKind::Y
        | GateKind::Z
        | GateKind::H
        | GateKind::S
        | GateKind::Sdg
        | GateKind::Sx
        | GateKind::Sxdg
        | GateKind::Swap => GateClass::Clifford,
        GateKind::T | GateKind::Tdg => GateClass::TLike,
        GateKind::P(theta) | GateKind::Rx(theta) | GateKind::Ry(theta) | GateKind::Rz(theta) => {
            angle_class(theta)
        }
    }
}

/// Gate-census of a function or module by cost class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CliffordSummary {
    /// Clifford gate applications.
    pub clifford: usize,
    /// T-like gate applications.
    pub t_like: usize,
    /// Continuous-rotation applications.
    pub rotations: usize,
    /// Gate applications carrying at least one control (controls can push
    /// a Clifford base gate out of the Clifford group).
    pub controlled: usize,
}

impl CliffordSummary {
    /// Total gate applications counted.
    #[cfg(test)]
    pub(crate) fn total(&self) -> usize {
        self.clifford + self.t_like + self.rotations
    }

    /// Whether every counted gate is Clifford and uncontrolled.
    #[cfg(test)]
    pub(crate) fn is_clifford_only(&self) -> bool {
        self.t_like == 0 && self.rotations == 0 && self.controlled == 0
    }

    fn count(&mut self, gate: GateKind, num_controls: usize) {
        match classify(gate) {
            GateClass::Clifford => self.clifford += 1,
            GateClass::TLike => self.t_like += 1,
            GateClass::Rotation => self.rotations += 1,
        }
        if num_controls > 0 {
            self.controlled += 1;
        }
    }
}

/// Summarizes every gate application in `func`, including ops nested in
/// `scf.if` and `lambda` regions.
pub(crate) fn summarize_func(func: &Func) -> CliffordSummary {
    let mut summary = CliffordSummary::default();
    for path in func.block_paths() {
        for op in &func.block_at(&path).ops {
            if let OpKind::Gate { gate, num_controls } = &op.kind {
                summary.count(*gate, *num_controls);
            }
        }
    }
    summary
}

/// Summarizes every gate application in `module`.
pub fn summarize_module(module: &Module) -> CliffordSummary {
    let mut summary = CliffordSummary::default();
    for func in module.funcs() {
        let s = summarize_func(func);
        summary.clifford += s.clifford;
        summary.t_like += s.t_like;
        summary.rotations += s.rotations;
        summary.controlled += s.controlled;
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, FRAC_PI_4, PI};

    #[test]
    fn named_gates_classify() {
        assert_eq!(classify(GateKind::H), GateClass::Clifford);
        assert_eq!(classify(GateKind::Sx), GateClass::Clifford);
        assert_eq!(classify(GateKind::T), GateClass::TLike);
        assert_eq!(classify(GateKind::Tdg), GateClass::TLike);
    }

    #[test]
    fn angles_classify_by_pi_over_four() {
        assert_eq!(classify(GateKind::P(PI)), GateClass::Clifford);
        assert_eq!(classify(GateKind::Rz(-FRAC_PI_2)), GateClass::Clifford);
        assert_eq!(classify(GateKind::P(FRAC_PI_4)), GateClass::TLike);
        assert_eq!(classify(GateKind::P(3.0 * FRAC_PI_4)), GateClass::TLike);
        assert_eq!(classify(GateKind::Rz(0.3)), GateClass::Rotation);
    }

    #[test]
    fn summary_counts_nested_gates() {
        use asdf_ir::{FuncBuilder, FuncType, OpKind, Type, Visibility};
        let mut b = FuncBuilder::new(
            "g",
            FuncType::new(vec![Type::Qubit], vec![], false),
            Visibility::Private,
        );
        let arg = b.args()[0];
        let mut bb = b.block();
        let h = bb.push(
            OpKind::Gate { gate: GateKind::H, num_controls: 0 },
            vec![arg],
            vec![Type::Qubit],
        );
        let t = bb.push(
            OpKind::Gate { gate: GateKind::T, num_controls: 0 },
            vec![h[0]],
            vec![Type::Qubit],
        );
        bb.push(OpKind::QFree, vec![t[0]], vec![]);
        bb.push(OpKind::Return, vec![], vec![]);
        let func = b.finish();
        let summary = summarize_func(&func);
        assert_eq!(summary.clifford, 1);
        assert_eq!(summary.t_like, 1);
        assert_eq!(summary.total(), 2);
        assert!(!summary.is_clifford_only());
    }
}
