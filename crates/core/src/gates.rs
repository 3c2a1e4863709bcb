//! Shared gate-emission context: tracks the current SSA value at each
//! qubit position while pushing QCircuit `gate` ops.

use asdf_ir::func::BlockBuilder;
use asdf_ir::value::ValueList;
use asdf_ir::{GateKind, OpKind, Type, Value};

/// Emits gates over a positional register of SSA qubit values.
pub(crate) struct GateCtx<'a, 'b> {
    /// The builder receiving ops.
    pub bb: &'a mut BlockBuilder<'b>,
    /// Current SSA value per qubit position.
    pub values: Vec<Value>,
}

impl GateCtx<'_, '_> {
    /// Emits one gate, threading the per-position values. A gate on at
    /// most three qubits allocates nothing beyond its place in the block.
    pub(crate) fn gate(&mut self, gate: GateKind, controls: &[usize], targets: &[usize]) {
        let positions = || controls.iter().chain(targets);
        let operands: ValueList = positions().map(|&p| self.values[p]).collect();
        let result_tys = std::iter::repeat_n(Type::Qubit, operands.len());
        let results =
            self.bb.push(OpKind::Gate { gate, num_controls: controls.len() }, operands, result_tys);
        for (&p, &result) in positions().zip(&results) {
            self.values[p] = result;
        }
    }

    /// Runs `body` inside an X-conjugation making the `(position, bit)`
    /// pattern a plain positive-control set. A position required to be
    /// both 0 and 1 is unsatisfiable: the body is skipped entirely.
    pub(crate) fn under_controls(
        &mut self,
        mut pattern: Vec<(usize, bool)>,
        body: impl FnOnce(&mut Self, &[usize]),
    ) {
        pattern.sort_unstable();
        pattern.dedup();
        let positions: Vec<usize> = pattern.iter().map(|(p, _)| *p).collect();
        let mut unique = positions.clone();
        unique.dedup();
        if unique.len() != positions.len() {
            return;
        }
        let flips: Vec<usize> = pattern.iter().filter(|(_, bit)| !bit).map(|(p, _)| *p).collect();
        for &p in &flips {
            self.gate(GateKind::X, &[], &[p]);
        }
        body(self, &unique);
        for &p in &flips {
            self.gate(GateKind::X, &[], &[p]);
        }
    }
}
