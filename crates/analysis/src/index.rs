//! Qubit-index tracking (§5.3, Fig. 5).
//!
//! Maps each qubit-carrying SSA value to the physical qubit indices it
//! holds, so the predication transform can recover the permutation a block
//! achieves purely by renaming SSA values (and undo it with swaps outside
//! the predicated subspace). Function arguments and `qalloc` results mint
//! fresh indices; packs concatenate, unpacks distribute, and every other
//! op threads indices through positionally.

use crate::framework::{Analysis, Fact, FactMap};
use asdf_ir::{Func, Op, OpKind, Value};

/// Which qubit indices a value carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum IndexFact {
    /// No information yet (classical values stay here).
    Bottom,
    /// The value carries exactly these indices, in order.
    Indices(Vec<usize>),
    /// Merge of disagreeing index vectors (e.g. an `scf.if` whose branches
    /// route different qubits to the same result).
    Conflict,
}

impl Fact for IndexFact {
    fn bottom() -> Self {
        IndexFact::Bottom
    }

    fn join(&mut self, other: &Self) -> bool {
        match (&*self, other) {
            (_, IndexFact::Bottom) => false,
            (IndexFact::Bottom, _) => {
                *self = other.clone();
                true
            }
            (a, b) if a == b => false,
            (IndexFact::Conflict, _) => false,
            _ => {
                *self = IndexFact::Conflict;
                true
            }
        }
    }
}

/// The §5.3 qubit-index dataflow analysis.
///
/// Indices are minted deterministically each pass (arguments first, then
/// `qalloc`s in program order), so the fixpoint engine's repeated passes
/// reproduce identical numbering.
#[derive(Debug, Default)]
pub(crate) struct QubitIndexAnalysis {
    next: usize,
}

impl QubitIndexAnalysis {
    /// An analysis minting indices from zero.
    pub(crate) fn new() -> Self {
        QubitIndexAnalysis::default()
    }

    fn mint(&mut self, count: usize) -> Vec<usize> {
        let fact = (self.next..self.next + count).collect();
        self.next += count;
        fact
    }
}

impl Analysis for QubitIndexAnalysis {
    type Fact = IndexFact;

    fn prepare(&mut self, _func: &Func) {
        self.next = 0;
    }

    fn arg_fact(&mut self, func: &Func, arg: Value) -> IndexFact {
        let count = func.value_type(arg).qubit_count();
        if count == 0 {
            return IndexFact::Bottom;
        }
        IndexFact::Indices(self.mint(count))
    }

    fn transfer(&mut self, func: &Func, op: &Op, facts: &mut FactMap<IndexFact>) {
        let mut flat = Vec::new();
        let mut conflict = false;
        for &v in &op.operands {
            match facts.get(v) {
                IndexFact::Bottom => {}
                IndexFact::Indices(ix) => flat.extend(ix.iter().copied()),
                IndexFact::Conflict => conflict = true,
            }
        }
        if conflict {
            for &r in &op.results {
                if func.value_type(r).qubit_count() > 0 {
                    facts.join(r, &IndexFact::Conflict);
                }
            }
            return;
        }
        match &op.kind {
            OpKind::QbPack => facts.set(op.results[0], IndexFact::Indices(flat)),
            OpKind::QbUnpack => {
                // Distribute one index per qubit result.
                for (&r, i) in op.results.iter().zip(flat) {
                    facts.set(r, IndexFact::Indices(vec![i]));
                }
            }
            // Fresh ancillas get fresh indices.
            OpKind::QAlloc => {
                let fact = IndexFact::Indices(self.mint(1));
                facts.set(op.results[0], fact);
            }
            // Everything else threads indices positionally.
            _ => {
                let mut remaining = flat;
                for &r in &op.results {
                    let count = func.value_type(r).qubit_count();
                    if count == 0 {
                        continue;
                    }
                    let taken: Vec<usize> = remaining.drain(..count.min(remaining.len())).collect();
                    facts.set(r, IndexFact::Indices(taken));
                }
            }
        }
    }
}

/// Runs the index analysis and returns the permutation carried by the
/// entry block's returned value: `result[i]` is the original index now at
/// position `i`.
///
/// # Errors
///
/// Returns a message when the function has no terminator, the returned
/// value has no index fact (or a conflicting one), the index count does
/// not match `n`, or an ancilla index escapes into the result.
pub fn renaming_permutation(func: &Func, n: usize) -> Result<Vec<usize>, String> {
    let facts = crate::framework::analyze(func, &mut QubitIndexAnalysis::new());
    let terminator = func.body.terminator().ok_or("missing terminator")?;
    let IndexFact::Indices(out) = facts.get(terminator.operands[0]) else {
        return Err("no index fact for the result".to_string());
    };
    if out.len() != n {
        return Err(format!(
            "index analysis produced {} indices for a {n}-qubit result",
            out.len()
        ));
    }
    // Ancilla indices cannot escape a reversible function.
    if out.iter().any(|&i| i >= n) {
        return Err("ancilla qubit escapes the function result".to_string());
    }
    Ok(out.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::analyze;
    use asdf_ir::{FuncBuilder, FuncType, Type, Visibility};

    #[test]
    fn renaming_swap_is_detected() {
        let mut b = FuncBuilder::new("swapper", FuncType::rev_qbundle(2), Visibility::Private);
        let arg = b.args()[0];
        let mut bb = b.block();
        let qs = bb.push(OpKind::QbUnpack, vec![arg], vec![Type::Qubit, Type::Qubit]);
        let packed = bb.push(OpKind::QbPack, vec![qs[1], qs[0]], vec![Type::QBundle(2)]);
        bb.push(OpKind::Return, vec![packed[0]], vec![]);
        let func = b.finish();
        assert_eq!(renaming_permutation(&func, 2).unwrap(), vec![1, 0]);
    }

    #[test]
    fn qalloc_mints_fresh_and_stable_indices() {
        let mut b = FuncBuilder::new("anc", FuncType::rev_qbundle(1), Visibility::Private);
        let arg = b.args()[0];
        let mut bb = b.block();
        let q = bb.push(OpKind::QbUnpack, vec![arg], vec![Type::Qubit]);
        let a = bb.push(OpKind::QAlloc, vec![], vec![Type::Qubit]);
        bb.push(OpKind::QFreeZ, vec![a[0]], vec![]);
        let packed = bb.push(OpKind::QbPack, vec![q[0]], vec![Type::QBundle(1)]);
        bb.push(OpKind::Return, vec![packed[0]], vec![]);
        let func = b.finish();
        let facts = analyze(&func, &mut QubitIndexAnalysis::new());
        // The ancilla's index (1) is distinct from the argument's (0), and
        // the fixpoint's repeated passes did not re-mint it.
        assert_eq!(facts.get(a[0]), &IndexFact::Indices(vec![1]));
        assert_eq!(renaming_permutation(&func, 1).unwrap(), vec![0]);
    }

    #[test]
    fn ancilla_escape_is_an_error() {
        let mut b = FuncBuilder::new("esc", FuncType::rev_qbundle(1), Visibility::Private);
        let arg = b.args()[0];
        let mut bb = b.block();
        let q = bb.push(OpKind::QbUnpack, vec![arg], vec![Type::Qubit]);
        let a = bb.push(OpKind::QAlloc, vec![], vec![Type::Qubit]);
        bb.push(OpKind::QFreeZ, vec![q[0]], vec![]);
        let packed = bb.push(OpKind::QbPack, vec![a[0]], vec![Type::QBundle(1)]);
        bb.push(OpKind::Return, vec![packed[0]], vec![]);
        let func = b.finish();
        let err = renaming_permutation(&func, 1).unwrap_err();
        assert!(err.contains("ancilla"), "{err}");
    }
}
