//! The conformance corpus: a fixed set of programs with golden artifact
//! hashes and golden execution traces.
//!
//! The corpus has two halves:
//!
//! - the five `examples/` programs (the same ones the codegen golden
//!   tests snapshot), each compiled under fixed options; and
//! - ten differential-test cases generated from **fixed seeds** through
//!   [`asdf_difftest::gen`], so the corpus exercises the generator's
//!   full surface (phases, predication, adjoints, classical embeds)
//!   without depending on a live RNG.
//!
//! For every entry the suite pins down two facts under
//! `tests/conformance/` at the repository root:
//!
//! 1. the **artifact content hash** — the [`asdf_artifact`] semantic
//!    digest of the compiled module/circuit/routing — so any change to
//!    what the compiler produces shows up as a reviewed golden diff; and
//! 2. a **golden execution trace** ([`asdf_sim::trace`]) — a seeded
//!    step-by-step record of the circuit under the scalar reference
//!    interpreter, replayed against freshly compiled circuits so a
//!    miscompiled step is caught at the first diverging gate, not merely
//!    in the final distribution.
//!
//! Regenerate after an intentional compiler change with:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test -p asdf-conformance
//! ```

#![deny(clippy::print_stdout, clippy::print_stderr)]
#![forbid(dead_code)]

use asdf_ast::expand::CaptureValue;
use asdf_core::{CompileOptions, CompileRequest, Compiled, Session};
use asdf_difftest::gen::{gen_case, GenOptions};
use std::fmt::Write as _;
use std::path::PathBuf;

/// The fixed sweep seed the difftest half of the corpus draws from.
pub(crate) const DIFFTEST_SWEEP_SEED: u64 = 0xA5DF;

/// Number of fixed-seed difftest cases in the corpus.
pub(crate) const DIFFTEST_CASE_COUNT: usize = 10;

/// The RNG seed every golden trace is recorded under.
pub const TRACE_SEED: u64 = 2025;

/// One corpus program: everything needed to compile it reproducibly.
pub struct CorpusEntry {
    /// Stable name, used for golden file paths.
    pub name: String,
    /// Program source.
    pub source: String,
    /// Entry kernel.
    pub kernel: String,
    /// Captures for leading `cfunc` parameters.
    pub captures: Vec<CaptureValue>,
    /// The (fixed) compile options.
    pub options: CompileOptions,
}

impl CorpusEntry {
    /// Compiles the entry through a fresh [`Session`].
    ///
    /// # Panics
    ///
    /// Panics when a corpus program fails to compile — the corpus is
    /// fixed and must always build.
    pub fn compile(&self) -> (Session, std::sync::Arc<Compiled>) {
        let session = Session::new(&self.source)
            .unwrap_or_else(|e| panic!("corpus entry {} failed to parse: {e}", self.name));
        let request = CompileRequest::kernel(&self.kernel)
            .with_captures(&self.captures)
            .with_options(self.options.clone());
        let compiled = session
            .compile(&request)
            .unwrap_or_else(|e| panic!("corpus entry {} failed to compile: {e}", self.name));
        (session, compiled)
    }

    /// The artifact content hash of the compiled entry: the semantic
    /// digest over entry symbol, module, circuit, routing, and lints
    /// (pass timings excluded).
    pub fn content_hash(&self) -> u64 {
        let (_, compiled) = self.compile();
        compiled.content_hash()
    }
}

fn cfunc_capture(name: &str, bits: Option<&str>) -> Vec<CaptureValue> {
    vec![CaptureValue::CFunc {
        name: name.into(),
        captures: bits.map(CaptureValue::bits_from_str).into_iter().collect(),
    }]
}

/// The five example programs, mirroring `examples/` (and the codegen
/// golden tests) with fixed captures and dimensions.
pub fn example_corpus() -> Vec<CorpusEntry> {
    vec![
        CorpusEntry {
            name: "quickstart".into(),
            source: r"
                classical f[N](secret: bit[N], x: bit[N]) -> bit {
                    (secret & x).xor_reduce()
                }

                qpu kernel[N](f: cfunc[N, 1]) -> bit[N] {
                    'p'[N] | f.sign | pm[N] >> std[N] | std[N].measure
                }
            "
            .into(),
            kernel: "kernel".into(),
            captures: cfunc_capture("f", Some("1101")),
            options: CompileOptions::default(),
        },
        CorpusEntry {
            name: "grover".into(),
            source: r"
                classical oracle[N](x: bit[N]) -> bit { x.and_reduce() }

                qpu grover[N, I](f: cfunc[N, 1]) -> bit[N] {
                    'p'[N] | (f.sign | {'p'[N]} >> {-'p'[N]}) ** I | std[N].measure
                }
            "
            .into(),
            kernel: "grover".into(),
            captures: cfunc_capture("oracle", None),
            options: CompileOptions::default().with_dim("N", 3).with_dim("I", 1),
        },
        CorpusEntry {
            name: "simon".into(),
            source: r"
                classical f[N](s: bit[N], x: bit[N]) -> bit[N] {
                    x ^ (x[0].repeat(N) & s)
                }

                qpu simon[N](f: cfunc[N, N]) -> bit[2*N] {
                    'p'[N] + '0'[N] | f.xor | (pm[N] >> std[N]) + id[N] | std[2*N].measure
                }
            "
            .into(),
            kernel: "simon".into(),
            captures: cfunc_capture("f", Some("1100")),
            options: CompileOptions::default(),
        },
        CorpusEntry {
            name: "period_finding".into(),
            source: r"
                classical f[N](mask: bit[N], x: bit[N]) -> bit[N] { x & mask }

                qpu period[N](f: cfunc[N, N]) -> bit[2*N] {
                    'p'[N] + '0'[N] | f.xor | fourier[N].measure + std[N].measure
                }
            "
            .into(),
            kernel: "period".into(),
            captures: cfunc_capture("f", Some("001")),
            options: CompileOptions::default(),
        },
        CorpusEntry {
            // Measurement-dependent corrections prevent a static circuit:
            // this entry pins the artifact hash only (no trace).
            name: "teleport".into(),
            source: r"
                qpu teleport(secret: qubit) -> qubit {
                    let alice, bob = 'p0' | '1' & std.flip;
                    let m_pm, m_std = secret + alice | '1' & std.flip | (pm + std).measure;
                    bob | (pm.flip if m_pm else id) | (std.flip if m_std else id)
                }
            "
            .into(),
            kernel: "teleport".into(),
            captures: Vec::new(),
            options: CompileOptions::default(),
        },
    ]
}

/// The ten fixed-seed difftest cases, rendered to corpus entries. Each
/// case compiles under default options with its generated dimension
/// bindings applied.
pub fn difftest_corpus() -> Vec<CorpusEntry> {
    let gen_options = GenOptions::default();
    (0..DIFFTEST_CASE_COUNT)
        .map(|index| {
            let rendered = gen_case(DIFFTEST_SWEEP_SEED, index, &gen_options).render();
            let mut options = CompileOptions::default();
            options.dims.extend(rendered.dims.iter().map(|(k, v)| (k.clone(), *v)));
            CorpusEntry {
                name: format!("difftest_{index:02}"),
                source: rendered.source,
                kernel: rendered.kernel,
                captures: rendered.captures,
                options,
            }
        })
        .collect()
}

/// The full corpus: examples first, then the fixed difftest cases.
pub fn corpus() -> Vec<CorpusEntry> {
    let mut entries = example_corpus();
    entries.extend(difftest_corpus());
    entries
}

/// The golden directory at the repository root (`tests/conformance/`).
pub fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/conformance")
}

/// Compares `content` against the checked-in golden `name`, or rewrites
/// it when `GOLDEN_REGEN` is set.
///
/// # Panics
///
/// Panics on a mismatch (with the first differing line and the
/// regeneration hint) or on a missing golden file.
pub fn check_golden(name: &str, content: &str) {
    let path = golden_dir().join(name);
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, content).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing conformance golden {name}; run GOLDEN_REGEN=1 cargo test -p asdf-conformance"
        )
    });
    if expected == content {
        return;
    }
    let mut diff = String::new();
    for (line, (want, got)) in expected.lines().zip(content.lines()).enumerate() {
        if want != got {
            let _ = writeln!(diff, "line {}:\n  expected: {want}\n  actual  : {got}", line + 1);
            break;
        }
    }
    if expected.lines().count() != content.lines().count() {
        let _ = writeln!(
            diff,
            "line counts differ: expected {}, actual {}",
            expected.lines().count(),
            content.lines().count()
        );
    }
    panic!(
        "conformance golden mismatch for {name} — compiler output changed.\n{diff}\
         If intentional, regenerate with GOLDEN_REGEN=1 cargo test -p asdf-conformance"
    );
}
