//! Self-contained reproducers for differential findings.

use crate::gen::GenCase;
use asdf_ast::expand::CaptureValue;
use std::fmt;

/// One differential finding, with everything needed to reproduce it:
/// source, captures, dimension bindings, the disagreeing configuration
/// pair, the sweep seed, and (when shrinking ran) the minimized program.
#[derive(Debug, Clone)]
pub struct Mismatch {
    /// Case number within the sweep.
    pub case_index: usize,
    /// The derived per-case seed.
    pub seed: u64,
    /// First configuration of the disagreeing pair.
    pub config_a: String,
    /// Second configuration of the disagreeing pair.
    pub config_b: String,
    /// The oracle's description of the disagreement.
    pub reason: String,
    /// The original program source.
    pub source: String,
    /// Rendered capture description.
    pub captures: String,
    /// Explicit dimension bindings, if any.
    pub dims: String,
    /// Stage count of the original case.
    pub original_stages: usize,
    /// The minimized program source, when the shrinker reduced the case.
    pub shrunk_source: Option<String>,
    /// Stage count after shrinking.
    pub shrunk_stages: usize,
    /// The fuel-bisection verdict (`--fuel-bisect`): which pattern firing
    /// first introduces the divergence.
    pub bisect: Option<String>,
}

impl Mismatch {
    /// Builds a report from the failing case and optional minimization.
    pub(crate) fn new(
        case: &GenCase,
        config_a: String,
        config_b: String,
        reason: String,
        shrunk: Option<GenCase>,
        bisect: Option<String>,
    ) -> Self {
        let rendered = case.render();
        Mismatch {
            bisect,
            case_index: case.index,
            seed: case.seed,
            config_a,
            config_b,
            reason,
            source: rendered.source,
            captures: describe_captures(&rendered.captures),
            dims: rendered
                .dims
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(", "),
            original_stages: case.stages.len(),
            shrunk_stages: shrunk.as_ref().map(|c| c.stages.len()).unwrap_or(case.stages.len()),
            shrunk_source: shrunk.map(|c| c.render().source),
        }
    }
}

fn describe_captures(captures: &[CaptureValue]) -> String {
    captures
        .iter()
        .map(|c| match c {
            CaptureValue::Bits(bits) => {
                bits.iter().map(|&b| if b { '1' } else { '0' }).collect::<String>()
            }
            CaptureValue::CFunc { name, captures } => {
                format!("{name}({})", describe_captures(captures))
            }
        })
        .collect::<Vec<_>>()
        .join(", ")
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "=== DIFFERENTIAL MISMATCH (case {}, seed {:#x}) ===",
            self.case_index, self.seed
        )?;
        writeln!(f, "configs : {} vs {}", self.config_a, self.config_b)?;
        writeln!(f, "reason  : {}", self.reason)?;
        if let Some(bisect) = &self.bisect {
            writeln!(f, "bisect  : {bisect}")?;
        }
        if !self.captures.is_empty() {
            writeln!(f, "captures: {}", self.captures)?;
        }
        if !self.dims.is_empty() {
            writeln!(f, "dims    : {}", self.dims)?;
        }
        writeln!(f, "--- program ({} stages) ---", self.original_stages)?;
        write!(f, "{}", self.source)?;
        if let Some(shrunk) = &self.shrunk_source {
            writeln!(f, "--- minimized reproducer ({} stages) ---", self.shrunk_stages)?;
            write!(f, "{shrunk}")?;
        }
        Ok(())
    }
}
