//! Greedy minimization of failing cases.
//!
//! The shrinker edits the structured [`GenCase`] (never the source text):
//! it drops whole pipeline stages, unwraps composite stages, replaces
//! subtrees with `id`, and simplifies the input/measurement — accepting
//! any edit under which the harness still reports a mismatch, until no
//! accepted edit remains or the evaluation budget runs out. The final case
//! renders to the self-contained reproducer in the report.

use crate::gen::{GenCase, InputMode, Stage, StageKind};
use asdf_basis::{Eigenstate, PrimitiveBasis};

/// Minimizes `case` under `fails` (which must be true for `case` itself),
/// evaluating the predicate at most `budget` times.
pub(crate) fn minimize(case: &GenCase, fails: impl Fn(&GenCase) -> bool, budget: usize) -> GenCase {
    let mut best = case.clone();
    let mut evals = 0usize;
    let try_candidate = |best: &mut GenCase, candidate: GenCase, evals: &mut usize| -> bool {
        if *evals >= budget {
            return false;
        }
        *evals += 1;
        if fails(&candidate) {
            *best = candidate;
            true
        } else {
            false
        }
    };

    loop {
        let mut improved = false;

        // 1. Drop whole pipeline stages (keep at least one).
        if best.stages.len() > 1 {
            for i in 0..best.stages.len() {
                let mut candidate = best.clone();
                candidate.stages.remove(i);
                if try_candidate(&mut best, candidate, &mut evals) {
                    improved = true;
                    break;
                }
            }
        }
        if improved {
            continue;
        }

        // 2. Replace each stage with a structurally smaller same-width one.
        'outer: for i in 0..best.stages.len() {
            for replacement in simplifications(&best.stages[i]) {
                let mut candidate = best.clone();
                candidate.stages[i] = replacement;
                if try_candidate(&mut best, candidate, &mut evals) {
                    improved = true;
                    break 'outer;
                }
            }
        }
        if improved {
            continue;
        }

        // 3. Simplify the observation end: drop the measurement, zero the
        // argument bits, flatten the prepared literal.
        if best.measure.is_some() {
            let mut candidate = best.clone();
            candidate.measure = None;
            if try_candidate(&mut best, candidate, &mut evals) {
                continue;
            }
        }
        match &best.input {
            InputMode::Arg(bits) if bits.iter().any(|&b| b) => {
                let mut candidate = best.clone();
                candidate.input = InputMode::Arg(vec![false; best.width]);
                if try_candidate(&mut best, candidate, &mut evals) {
                    continue;
                }
            }
            InputMode::Prep(chars)
                if chars.iter().any(|&c| c != (PrimitiveBasis::Std, Eigenstate::Plus)) =>
            {
                let mut candidate = best.clone();
                candidate.input =
                    InputMode::Prep(vec![(PrimitiveBasis::Std, Eigenstate::Plus); best.width]);
                if try_candidate(&mut best, candidate, &mut evals) {
                    continue;
                }
            }
            _ => {}
        }

        break;
    }
    best
}

/// Same-width candidate replacements for a stage, roughly smallest first.
fn simplifications(stage: &Stage) -> Vec<Stage> {
    let id = Stage { width: stage.width, kind: StageKind::Id };
    let mut out = Vec::new();
    match &stage.kind {
        StageKind::Id => {}
        StageKind::Adjoint(inner) | StageKind::Repeat { inner, .. } => {
            out.push(id);
            out.push((**inner).clone());
        }
        StageKind::Compose(parts) => {
            out.push(id);
            out.extend(parts.iter().cloned());
        }
        StageKind::Tensor(parts) => {
            out.push(id);
            // Replace one chunk with id at a time.
            for i in 0..parts.len() {
                let mut simpler = parts.clone();
                simpler[i] = Stage { width: parts[i].width, kind: StageKind::Id };
                out.push(Stage { width: stage.width, kind: StageKind::Tensor(simpler) });
            }
        }
        StageKind::Pred { pred_width, inner, .. } => {
            out.push(id);
            // Forget the predicate: id on the predicate qubits, tensored
            // with the bare inner function.
            out.push(Stage {
                width: stage.width,
                kind: StageKind::Tensor(vec![
                    Stage { width: *pred_width, kind: StageKind::Id },
                    (**inner).clone(),
                ]),
            });
        }
        StageKind::LiteralTrans { .. }
        | StageKind::BuiltinTrans { .. }
        | StageKind::Flip { .. }
        | StageKind::Sign { .. }
        | StageKind::Xor { .. } => out.push(id),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{gen_case, GenOptions};

    #[test]
    fn minimize_reaches_a_fixpoint_under_a_trivial_predicate() {
        // A predicate that accepts everything shrinks to one id stage.
        let case = gen_case(3, 5, &GenOptions::default());
        let minimized = minimize(&case, |_| true, 500);
        assert_eq!(minimized.stages.len(), 1);
        assert!(matches!(minimized.stages[0].kind, StageKind::Id));
        assert!(minimized.measure.is_none());
    }

    #[test]
    fn minimize_respects_the_predicate() {
        // Only cases keeping at least one Sign stage "fail": the shrinker
        // must not remove the last one.
        let opts = GenOptions::default();
        let case = (0..200)
            .map(|i| gen_case(11, i, &opts))
            .find(|c| {
                fn has_sign(s: &Stage) -> bool {
                    match &s.kind {
                        StageKind::Sign { .. } => true,
                        StageKind::Tensor(ps) | StageKind::Compose(ps) => ps.iter().any(has_sign),
                        StageKind::Pred { inner, .. }
                        | StageKind::Adjoint(inner)
                        | StageKind::Repeat { inner, .. } => has_sign(inner),
                        _ => false,
                    }
                }
                c.stages.iter().any(has_sign)
            })
            .expect("some generated case embeds a sign oracle");
        fn has_sign_stage(c: &GenCase) -> bool {
            fn walk(s: &Stage) -> bool {
                match &s.kind {
                    StageKind::Sign { .. } => true,
                    StageKind::Tensor(ps) | StageKind::Compose(ps) => ps.iter().any(walk),
                    StageKind::Pred { inner, .. }
                    | StageKind::Adjoint(inner)
                    | StageKind::Repeat { inner, .. } => walk(inner),
                    _ => false,
                }
            }
            c.stages.iter().any(walk)
        }
        let minimized = minimize(&case, has_sign_stage, 500);
        assert!(has_sign_stage(&minimized));
    }
}
