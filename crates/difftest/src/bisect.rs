//! Fuel bisection: naming the first rewrite firing that introduces a
//! divergence.
//!
//! When a case mismatches between a rewriting configuration (Opt and/or
//! peephole) and a non-rewriting reference, the miscompile was introduced
//! by *some* pattern firing. `CompileOptions::rewrite_fuel` caps the
//! pipeline-wide firing budget (the programmatic form of
//! `ASDF_REWRITE_FUEL`), so binary-searching the budget finds the smallest
//! `N` whose first `N` firings already diverge — and diffing per-pattern
//! firing counts between `N` and `N-1` names the culprit pattern, which the
//! reproducer prints.

use crate::gen::GenCase;
use crate::oracle::{compare, extract, Comparison, OracleOptions};
use asdf_core::{CompileOptions, CompileRequest, Compiled, CoreError, Session};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// The result of a successful fuel bisection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BisectFinding {
    /// The rewriting configuration that was bisected.
    pub config: String,
    /// 1-based index of the first divergent firing (0: the configurations
    /// already diverge with every rewrite suppressed, so the firings are
    /// exonerated).
    pub firing: u64,
    /// The pattern that fired at that index.
    pub pattern: String,
}

impl fmt::Display for BisectFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.firing == 0 {
            write!(
                f,
                "fuel bisect ({}): diverges even at ASDF_REWRITE_FUEL=0 — \
                 the divergence is not introduced by a pattern firing",
                self.config
            )
        } else {
            write!(
                f,
                "fuel bisect ({}): firing #{} ({}) introduces the divergence \
                 (reproduce with ASDF_REWRITE_FUEL={} vs {})",
                self.config,
                self.firing,
                self.pattern,
                self.firing,
                self.firing - 1
            )
        }
    }
}

/// The smallest `n` in `1..=total` with `pred(n)`, assuming `!pred(0)`,
/// `pred(total)`, and monotonicity (the standard bisection caveat: a
/// non-monotone predicate still terminates, but may not name the true
/// first firing).
pub(crate) fn first_bad(total: u64, mut pred: impl FnMut(u64) -> bool) -> u64 {
    let (mut lo, mut hi) = (0u64, total);
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

fn rewriting(options: &CompileOptions) -> bool {
    options.inline || options.peephole
}

fn pattern_counts(compiled: &Compiled) -> BTreeMap<String, usize> {
    compiled.stats.pattern_firings().into_iter().collect()
}

/// Binary-searches `CompileOptions::rewrite_fuel` on the rewriting side of
/// a mismatching configuration pair, naming the first divergent firing.
/// Returns `None` when neither side rewrites, when the reference fails to
/// compile, or when the mismatch does not reproduce through a fresh
/// session (e.g. it came from sampling noise or an external sabotage
/// hook).
pub fn fuel_bisect(
    case: &GenCase,
    configs: &[(String, CompileOptions)],
    config_a: &str,
    config_b: &str,
    oracle: &OracleOptions,
) -> Option<BisectFinding> {
    let options_of = |name: &str| configs.iter().find(|(n, _)| n == name).map(|(_, o)| o.clone());
    let (a, b) = (options_of(config_a)?, options_of(config_b)?);
    // Bisect the rewriting side against the other as a fixed reference;
    // when both rewrite, bisect the first and hold the second fixed.
    let (target_name, target, reference) = match (rewriting(&a), rewriting(&b)) {
        (true, _) => (config_a, a, b),
        (false, true) => (config_b, b, a),
        (false, false) => return None,
    };

    let rendered = case.render();
    let session = Session::new(&rendered.source).ok()?;
    let request = CompileRequest::kernel(&rendered.kernel).with_captures(&rendered.captures);
    let compile =
        |options: &CompileOptions, fuel: Option<u64>| -> Result<Arc<Compiled>, CoreError> {
            let mut options = options.clone().with_rewrite_fuel(fuel);
            options.dims.extend(rendered.dims.iter().map(|(k, v)| (k.clone(), *v)));
            session.compile(&request.clone().with_options(options))
        };

    let reference = compile(&reference, None).ok()?;
    let reference_sem = extract(case, &reference, oracle, case.seed);

    let full = compile(&target, None).ok()?;
    let total: u64 = pattern_counts(&full).values().map(|&c| c as u64).sum();
    if total == 0 {
        return None;
    }

    // A budget of `fuel` firings either reproduces the divergence or not;
    // a compile *failure* under a truncated budget also counts as
    // divergence (the cutoff itself changed observable behavior).
    let mut mismatch_at = |fuel: u64| -> bool {
        match compile(&target, Some(fuel)) {
            Err(_) => true,
            Ok(compiled) => {
                let sem = extract(case, &compiled, oracle, case.seed);
                matches!(compare(&sem, &reference_sem, oracle.eps), Comparison::Disagree(_))
            }
        }
    };

    if !mismatch_at(total) {
        return None; // does not reproduce in isolation
    }
    if mismatch_at(0) {
        return Some(BisectFinding {
            config: target_name.to_string(),
            firing: 0,
            pattern: "<none>".to_string(),
        });
    }
    let firing = first_bad(total, &mut mismatch_at);

    // The culprit is whichever pattern's firing count grows from fuel
    // `firing - 1` to `firing`.
    let at = compile(&target, Some(firing)).ok()?;
    let before = compile(&target, Some(firing - 1)).ok()?;
    let (at, before) = (pattern_counts(&at), pattern_counts(&before));
    let culprits: Vec<String> = at
        .iter()
        .filter(|(name, count)| before.get(*name).copied().unwrap_or(0) < **count)
        .map(|(name, _)| name.clone())
        .collect();
    let pattern = match culprits.len() {
        0 => "<unidentified>".to_string(),
        _ => culprits.join("+"),
    };
    Some(BisectFinding { config: target_name.to_string(), firing, pattern })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_bad_finds_the_boundary() {
        for boundary in 1..=17u64 {
            assert_eq!(first_bad(17, |n| n >= boundary), boundary);
        }
    }

    #[test]
    fn first_bad_single_step() {
        assert_eq!(first_bad(1, |n| n >= 1), 1);
    }
}
