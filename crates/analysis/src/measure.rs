//! Measurement-discipline analysis.
//!
//! Tracks, forward, whether a qubit wire has already passed through a
//! `qcirc.measure`: applying another gate to the post-measurement qubit is
//! almost always a bug (the classical outcome has already been extracted,
//! so the gate cannot influence it). The W0001 lint flags gates whose
//! operand is *provably* post-measurement; merged maybe-measured wires are
//! left alone so the lint cannot produce false positives.

use crate::framework::{Analysis, Fact, FactMap};
use asdf_ir::{Func, Op, OpKind};

/// Measurement status of a qubit wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeasFact {
    /// No information (classical values stay here).
    Bottom,
    /// The wire has not been measured on any path.
    Live,
    /// The wire is the post-measurement qubit of a `qcirc.measure` on
    /// every path.
    Measured,
    /// Measured on some paths but not others.
    MaybeMeasured,
}

impl Fact for MeasFact {
    fn bottom() -> Self {
        MeasFact::Bottom
    }

    fn join(&mut self, other: &Self) -> bool {
        let joined = match (*self, *other) {
            (a, MeasFact::Bottom) => a,
            (MeasFact::Bottom, b) => b,
            (a, b) if a == b => a,
            _ => MeasFact::MaybeMeasured,
        };
        let changed = joined != *self;
        *self = joined;
        changed
    }
}

/// Forward measurement-discipline analysis over QCircuit-level wires.
#[derive(Debug, Default)]
pub struct MeasureAnalysis;

impl Analysis for MeasureAnalysis {
    type Fact = MeasFact;

    fn arg_fact(&mut self, func: &Func, arg: asdf_ir::Value) -> MeasFact {
        if func.value_type(arg).is_linear() {
            MeasFact::Live
        } else {
            MeasFact::Bottom
        }
    }

    fn transfer(&mut self, func: &Func, op: &Op, facts: &mut FactMap<MeasFact>) {
        match &op.kind {
            // The post-measurement qubit; the i1 outcome stays at bottom.
            OpKind::Measure => facts.set(op.results[0], MeasFact::Measured),
            // Structural moves preserve measured-ness.
            OpKind::QbPack | OpKind::ArrPack => {
                let mut joined = MeasFact::Bottom;
                for &v in &op.operands {
                    let _ = joined.join(facts.get(v));
                }
                facts.set(op.results[0], joined);
            }
            OpKind::QbUnpack | OpKind::ArrUnpack => {
                let fact = *facts.get(op.operands[0]);
                for &r in &op.results {
                    if func.value_type(r).is_linear() {
                        facts.set(r, fact);
                    }
                }
            }
            // scf.if merges are handled by the engine; the op itself
            // produces nothing.
            OpKind::ScfIf | OpKind::Yield | OpKind::Return => {}
            // Every other producer of qubit wires (allocation, preparation,
            // gates, translations, calls) yields a live quantum state.
            _ => {
                for &r in &op.results {
                    if func.value_type(r).is_linear() {
                        facts.set(r, MeasFact::Live);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::analyze;
    use asdf_ir::{FuncBuilder, FuncType, GateKind, Type, Visibility};

    #[test]
    fn measure_marks_the_post_measurement_wire() {
        let mut b = FuncBuilder::new(
            "m",
            FuncType::new(vec![Type::Qubit], vec![Type::I1], false),
            Visibility::Private,
        );
        let arg = b.args()[0];
        let mut bb = b.block();
        let m = bb.push(OpKind::Measure, vec![arg], vec![Type::Qubit, Type::I1]);
        let g = bb.push(
            OpKind::Gate { gate: GateKind::X, num_controls: 0 },
            vec![m[0]],
            vec![Type::Qubit],
        );
        bb.push(OpKind::QFree, vec![g[0]], vec![]);
        bb.push(OpKind::Return, vec![m[1]], vec![]);
        let func = b.finish();
        let facts = analyze(&func, &mut MeasureAnalysis);
        assert_eq!(*facts.get(arg), MeasFact::Live);
        assert_eq!(*facts.get(m[0]), MeasFact::Measured);
        // After the gate the wire carries quantum state again.
        assert_eq!(*facts.get(g[0]), MeasFact::Live);
    }
}
