//! The seeded generator of well-typed Qwerty programs.
//!
//! Programs are built *bottom-up over the typed surface*: every generated
//! case is a pipeline of reversible endofunction stages of a known width,
//! so the rendered program typechecks by construction. The generator
//! covers the combinatorial corners the hand-written tests never reach:
//! basis literals and translations (including partial-span literals with
//! phases and negations), tensor products of unequal chunks, nested
//! predication, adjoints, `**` repetition, `(f | g)` composition,
//! dimension-variable instantiation at several `N`, and `classical`
//! functions embedded via `.sign` / `.xor` (whose circuits go through the
//! `crates/logic` XAG synthesis pipeline).
//!
//! A [`GenCase`] is a structured value, not a string: the shrinker edits
//! it directly, and [`GenCase::render`] turns it into source text through
//! `asdf_ast::pretty` — so even the reproduction path exercises the real
//! lexer and parser.

use asdf_ast::ast::{
    CExpr, ClassicalFunc, Expr, ExprKind, Item, Param, Program, QpuFunc, QubitChar, Stmt, TypeExpr,
    VectorSyntax,
};
use asdf_ast::dims::{AngleExpr, DimExpr};
use asdf_ast::expand::CaptureValue;
use asdf_ast::pretty::render_program;
use asdf_basis::{Eigenstate, PrimitiveBasis};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Tunables for the generator.
#[derive(Debug, Clone)]
pub struct GenOptions {
    /// Maximum logical (interface) qubits per program.
    pub max_width: usize,
    /// Maximum nesting depth of composite stages.
    pub max_depth: usize,
    /// Maximum number of top-level pipeline stages.
    pub max_stages: usize,
}

impl Default for GenOptions {
    fn default() -> Self {
        GenOptions { max_width: 4, max_depth: 2, max_stages: 4 }
    }
}

/// How the kernel receives its qubits.
#[derive(Debug, Clone, PartialEq)]
pub enum InputMode {
    /// State preparation from a qubit literal (one character per qubit).
    /// Symbolic cases replicate the first character over `N`.
    Prep(Vec<QubitChar>),
    /// A `qubit[width]` runtime parameter. The recorded basis bits are the
    /// input used when comparing measurement distributions (unitary
    /// comparison sweeps all basis inputs instead).
    Arg(Vec<bool>),
}

/// The optional terminal measurement basis (over the full width).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeasureBasis {
    /// `std[n].measure`.
    Std,
    /// `pm[n].measure`.
    Pm,
}

/// A generated `classical` function.
#[derive(Debug, Clone, PartialEq)]
pub struct GenClassical {
    /// Item name (`f0`, `f1`, ...; also the kernel parameter name).
    pub name: String,
    /// Non-capture input width.
    pub n_in: usize,
    /// Output width.
    pub n_out: usize,
    /// Constant bits for a leading capture parameter `s`, if any.
    pub capture: Option<Vec<bool>>,
    /// Body over `s` (capture) and `x` (input).
    pub body: CExpr,
}

/// One reversible endofunction stage.
#[derive(Debug, Clone, PartialEq)]
pub struct Stage {
    /// Qubits the stage acts on.
    pub width: usize,
    /// The stage's shape.
    pub kind: StageKind,
}

/// Stage shapes. Every variant denotes a reversible `qubit[w] -> qubit[w]`
/// function, so arbitrary nesting stays well-typed.
#[derive(Debug, Clone, PartialEq)]
pub enum StageKind {
    /// `id[w]`.
    Id,
    /// `from[w] >> to[w]` between built-in bases (spans are both full).
    BuiltinTrans {
        /// Input basis.
        from: PrimitiveBasis,
        /// Output basis.
        to: PrimitiveBasis,
    },
    /// A literal translation `{v...} >> {v...}` whose two sides share a
    /// span: either the same vector set reordered/rephased (partial span),
    /// or two full sets over possibly different primitive bases.
    LiteralTrans {
        /// Per-position primitive basis of the input side.
        prim_in: PrimitiveBasis,
        /// Input vectors as eigenbit patterns (width bits each).
        vecs_in: Vec<u64>,
        /// Phase in degrees per input vector (`None` = no `@`).
        phases_in: Vec<Option<f64>>,
        /// Negation flags per input vector.
        neg_in: Vec<bool>,
        /// Per-position primitive basis of the output side.
        prim_out: PrimitiveBasis,
        /// Output vectors (a permutation of `vecs_in` unless both sides
        /// are full).
        vecs_out: Vec<u64>,
        /// Phase in degrees per output vector.
        phases_out: Vec<Option<f64>>,
        /// Negation flags per output vector.
        neg_out: Vec<bool>,
    },
    /// `prim.flip` on one qubit.
    Flip {
        /// The basis flipped (never `Fourier`).
        prim: PrimitiveBasis,
    },
    /// Tensor product of sub-stages (widths sum).
    Tensor(Vec<Stage>),
    /// `pred & inner`: predication on a basis over the leading qubits.
    Pred {
        /// Primitive basis of the predicate literal's positions.
        prim: PrimitiveBasis,
        /// Predicate vectors as eigenbit patterns.
        vecs: Vec<u64>,
        /// Predicate width.
        pred_width: usize,
        /// The predicated function.
        inner: Box<Stage>,
    },
    /// `~inner`.
    Adjoint(Box<Stage>),
    /// `inner ** count`.
    Repeat {
        /// Repeated stage.
        inner: Box<Stage>,
        /// Fold count (>= 2).
        count: usize,
    },
    /// `(a | b | ...)` — left-to-right composition of same-width stages.
    Compose(Vec<Stage>),
    /// `fK.sign`: the phase-oracle embed of classical function `K`
    /// (`n_in == width`, `n_out == 1`).
    Sign {
        /// Index into [`GenCase::classical`].
        classical: usize,
    },
    /// `fK.xor`: the Bennett embed (`n_in + n_out == width`).
    Xor {
        /// Index into [`GenCase::classical`].
        classical: usize,
    },
}

/// A generated differential-test case.
#[derive(Debug, Clone, PartialEq)]
pub struct GenCase {
    /// Case number within the sweep.
    pub index: usize,
    /// The per-case RNG seed (derived from the sweep seed and index).
    pub seed: u64,
    /// Logical width (the kernel's qubit interface).
    pub width: usize,
    /// `Some("N")` when the program is written over a dimension variable
    /// instantiated at `width`.
    pub sym_dim: Option<String>,
    /// Whether symbolic cases rely on capture-based dimvar *inference*
    /// instead of an explicit binding.
    pub infer_dim: bool,
    /// Input mode.
    pub input: InputMode,
    /// Terminal measurement, if any.
    pub measure: Option<MeasureBasis>,
    /// The stage pipeline (each of width [`GenCase::width`]).
    pub stages: Vec<Stage>,
    /// Classical functions referenced by `Sign` / `Xor` stages.
    pub classical: Vec<GenClassical>,
}

/// Generates case `index` of the sweep seeded by `sweep_seed`.
pub fn gen_case(sweep_seed: u64, index: usize, opts: &GenOptions) -> GenCase {
    let seed = sweep_seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add((index as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(1);
    let mut rng = StdRng::seed_from_u64(seed);
    let symbolic = rng.gen_range_usize(8) == 0;
    let mut case =
        if symbolic { gen_symbolic(&mut rng, opts) } else { gen_concrete(&mut rng, opts) };
    case.index = index;
    case.seed = seed;
    case
}

fn gen_concrete(rng: &mut StdRng, opts: &GenOptions) -> GenCase {
    let width = 1 + rng.gen_range_usize(opts.max_width.max(1));
    let mut classical = Vec::new();
    let num_stages = 1 + rng.gen_range_usize(opts.max_stages.max(1));
    let stages: Vec<Stage> =
        (0..num_stages).map(|_| gen_stage(rng, width, opts.max_depth, &mut classical)).collect();
    let input = if rng.gen_bool(0.5) {
        InputMode::Prep((0..width).map(|_| random_char(rng)).collect())
    } else {
        InputMode::Arg((0..width).map(|_| rng.gen_bool(0.5)).collect())
    };
    let measure = match rng.gen_range_usize(4) {
        0 | 1 => None,
        2 => Some(MeasureBasis::Std),
        _ => Some(MeasureBasis::Pm),
    };
    GenCase {
        index: 0,
        seed: 0,
        width,
        sym_dim: None,
        infer_dim: false,
        input,
        measure,
        stages,
        classical,
    }
}

/// Symbolic cases: the whole program is written over a dimension variable
/// `N` and instantiated at `width`. Stages are restricted to full-width
/// shapes that have a symbolic spelling.
fn gen_symbolic(rng: &mut StdRng, opts: &GenOptions) -> GenCase {
    let width = 1 + rng.gen_range_usize(3);
    let mut classical = Vec::new();
    let num_stages = 1 + rng.gen_range_usize(opts.max_stages.max(1));
    let stages: Vec<Stage> =
        (0..num_stages).map(|_| gen_sym_stage(rng, width, 1, &mut classical)).collect();
    let infer_dim = classical.iter().any(|c| c.capture.is_some()) && rng.gen_bool(0.5);
    let input = InputMode::Prep(vec![random_char(rng); width]);
    let measure = if rng.gen_bool(0.5) { Some(MeasureBasis::Std) } else { None };
    GenCase {
        index: 0,
        seed: 0,
        width,
        sym_dim: Some("N".to_string()),
        infer_dim,
        input,
        measure,
        stages,
        classical,
    }
}

fn random_char(rng: &mut StdRng) -> QubitChar {
    let prim =
        [PrimitiveBasis::Std, PrimitiveBasis::Pm, PrimitiveBasis::Ij][rng.gen_range_usize(3)];
    let eig = if rng.gen_bool(0.5) { Eigenstate::Plus } else { Eigenstate::Minus };
    (prim, eig)
}

fn separable_prim(rng: &mut StdRng) -> PrimitiveBasis {
    [PrimitiveBasis::Std, PrimitiveBasis::Pm, PrimitiveBasis::Ij][rng.gen_range_usize(3)]
}

fn any_prim(rng: &mut StdRng) -> PrimitiveBasis {
    [PrimitiveBasis::Std, PrimitiveBasis::Pm, PrimitiveBasis::Ij, PrimitiveBasis::Fourier]
        [rng.gen_range_usize(4)]
}

fn random_phase(rng: &mut StdRng) -> Option<f64> {
    match rng.gen_range_usize(5) {
        0 => Some(45.0),
        1 => Some(90.0),
        2 => Some(180.0),
        _ => None,
    }
}

/// A random reversible stage of exactly `width` qubits.
fn gen_stage(
    rng: &mut StdRng,
    width: usize,
    depth: usize,
    classical: &mut Vec<GenClassical>,
) -> Stage {
    debug_assert!(width >= 1);
    // Leaf-only at depth 0 or width 1 composites that need >= 2 qubits.
    let composite = depth > 0 && rng.gen_bool(0.5);
    if composite {
        match rng.gen_range_usize(5) {
            0 if width >= 2 => {
                // Tensor: split into 2..=3 chunks.
                let parts = split_width(rng, width);
                return Stage {
                    width,
                    kind: StageKind::Tensor(
                        parts
                            .into_iter()
                            .map(|w| gen_stage(rng, w, depth - 1, classical))
                            .collect(),
                    ),
                };
            }
            1 if width >= 2 => {
                // Predication on the leading qubits.
                let pred_width = 1 + rng.gen_range_usize((width - 1).min(2));
                let inner = gen_stage(rng, width - pred_width, depth - 1, classical);
                let prim = separable_prim(rng);
                let vecs = random_subset(rng, pred_width);
                return Stage {
                    width,
                    kind: StageKind::Pred { prim, vecs, pred_width, inner: Box::new(inner) },
                };
            }
            2 => {
                let inner = gen_stage(rng, width, depth - 1, classical);
                return Stage { width, kind: StageKind::Adjoint(Box::new(inner)) };
            }
            3 => {
                let inner = gen_stage(rng, width, depth - 1, classical);
                let count = 2 + rng.gen_range_usize(2);
                return Stage { width, kind: StageKind::Repeat { inner: Box::new(inner), count } };
            }
            _ => {
                let n = 2 + rng.gen_range_usize(2);
                let stages = (0..n).map(|_| gen_stage(rng, width, depth - 1, classical)).collect();
                return Stage { width, kind: StageKind::Compose(stages) };
            }
        }
    }
    gen_leaf(rng, width, classical)
}

fn gen_leaf(rng: &mut StdRng, width: usize, classical: &mut Vec<GenClassical>) -> Stage {
    let kind = match rng.gen_range_usize(6) {
        0 => StageKind::Id,
        1 => {
            let from = any_prim(rng);
            let mut to = any_prim(rng);
            if to == from {
                to = if from == PrimitiveBasis::Std {
                    PrimitiveBasis::Pm
                } else {
                    PrimitiveBasis::Std
                };
            }
            StageKind::BuiltinTrans { from, to }
        }
        2 if width <= 2 => gen_literal_trans(rng, width),
        3 if width == 1 => StageKind::Flip { prim: separable_prim(rng) },
        4 => {
            let idx = gen_classical(rng, width, 1, classical);
            StageKind::Sign { classical: idx }
        }
        5 if width >= 2 => {
            let n_in = 1 + rng.gen_range_usize(width - 1);
            let n_out = width - n_in;
            let idx = gen_classical(rng, n_in, n_out, classical);
            StageKind::Xor { classical: idx }
        }
        _ => StageKind::BuiltinTrans { from: PrimitiveBasis::Std, to: PrimitiveBasis::Pm },
    };
    Stage { width, kind }
}

/// Symbolic full-width stages: shapes with an `N`-parameterized spelling.
fn gen_sym_stage(
    rng: &mut StdRng,
    width: usize,
    depth: usize,
    classical: &mut Vec<GenClassical>,
) -> Stage {
    if depth > 0 && rng.gen_bool(0.4) {
        match rng.gen_range_usize(3) {
            0 => {
                let inner = gen_sym_stage(rng, width, depth - 1, classical);
                return Stage { width, kind: StageKind::Adjoint(Box::new(inner)) };
            }
            1 => {
                let inner = gen_sym_stage(rng, width, depth - 1, classical);
                let count = 2 + rng.gen_range_usize(2);
                return Stage { width, kind: StageKind::Repeat { inner: Box::new(inner), count } };
            }
            _ => {
                let stages =
                    (0..2).map(|_| gen_sym_stage(rng, width, depth - 1, classical)).collect();
                return Stage { width, kind: StageKind::Compose(stages) };
            }
        }
    }
    let kind = match rng.gen_range_usize(3) {
        0 => StageKind::Id,
        1 => {
            let from = any_prim(rng);
            let mut to = any_prim(rng);
            if to == from {
                to = if from == PrimitiveBasis::Std {
                    PrimitiveBasis::Pm
                } else {
                    PrimitiveBasis::Std
                };
            }
            StageKind::BuiltinTrans { from, to }
        }
        _ => {
            let idx = gen_sym_classical(rng, width, classical);
            StageKind::Sign { classical: idx }
        }
    };
    Stage { width, kind }
}

fn split_width(rng: &mut StdRng, width: usize) -> Vec<usize> {
    let mut parts = Vec::new();
    let mut remaining = width;
    while remaining > 0 {
        let take = if parts.len() == 2 || remaining == 1 {
            remaining
        } else {
            1 + rng.gen_range_usize(remaining - 1)
        };
        parts.push(take);
        remaining -= take;
    }
    parts
}

/// A nonempty random subset of the `2^width` eigenbit patterns.
fn random_subset(rng: &mut StdRng, width: usize) -> Vec<u64> {
    let space = 1u64 << width;
    let size = 1 + rng.gen_range_usize(space.min(4) as usize);
    let mut all: Vec<u64> = (0..space).collect();
    // Partial Fisher-Yates for the prefix we keep.
    for i in 0..size {
        let j = i + rng.gen_range_usize(all.len() - i);
        all.swap(i, j);
    }
    all.truncate(size);
    all
}

fn gen_literal_trans(rng: &mut StdRng, width: usize) -> StageKind {
    let full = rng.gen_bool(0.4);
    if full {
        // Full span both sides: primitives and orders may differ freely.
        let space = 1u64 << width;
        let perm = |rng: &mut StdRng| {
            let mut v: Vec<u64> = (0..space).collect();
            for i in 0..v.len() {
                let j = i + rng.gen_range_usize(v.len() - i);
                v.swap(i, j);
            }
            v
        };
        let vecs_in = perm(rng);
        let vecs_out = perm(rng);
        let phases_in = vecs_in.iter().map(|_| random_phase(rng)).collect();
        let phases_out = vecs_out.iter().map(|_| random_phase(rng)).collect();
        let neg_in = vecs_in.iter().map(|_| rng.gen_bool(0.2)).collect();
        let neg_out = vecs_out.iter().map(|_| rng.gen_bool(0.2)).collect();
        StageKind::LiteralTrans {
            prim_in: separable_prim(rng),
            vecs_in,
            phases_in,
            neg_in,
            prim_out: separable_prim(rng),
            vecs_out,
            phases_out,
            neg_out,
        }
    } else {
        // Partial span: the same vector set on both sides (same primitive),
        // reordered, rephased, renegated.
        let prim = separable_prim(rng);
        let vecs_in = random_subset(rng, width);
        let mut vecs_out = vecs_in.clone();
        for i in 0..vecs_out.len() {
            let j = i + rng.gen_range_usize(vecs_out.len() - i);
            vecs_out.swap(i, j);
        }
        let phases_in = vecs_in.iter().map(|_| random_phase(rng)).collect();
        let phases_out = vecs_out.iter().map(|_| random_phase(rng)).collect();
        let neg_in = vecs_in.iter().map(|_| rng.gen_bool(0.2)).collect();
        let neg_out = vecs_out.iter().map(|_| rng.gen_bool(0.2)).collect();
        StageKind::LiteralTrans {
            prim_in: prim,
            vecs_in,
            phases_in,
            neg_in,
            prim_out: prim,
            vecs_out,
            phases_out,
            neg_out,
        }
    }
}

/// Generates (and registers) a classical function with the given widths;
/// returns its index.
fn gen_classical(
    rng: &mut StdRng,
    n_in: usize,
    n_out: usize,
    classical: &mut Vec<GenClassical>,
) -> usize {
    let capture = if rng.gen_bool(0.5) {
        Some((0..n_in).map(|_| rng.gen_bool(0.5)).collect::<Vec<bool>>())
    } else {
        None
    };
    let x = || Box::new(CExpr::Var("x".to_string()));
    let s = || Box::new(CExpr::Var("s".to_string()));
    let idx = |rng: &mut StdRng| DimExpr::Const(rng.gen_range_usize(n_in) as i64);
    let body = if n_out == 1 {
        match (rng.gen_range_usize(5), capture.is_some()) {
            (0, true) => CExpr::XorReduce(Box::new(CExpr::And(x(), s()))),
            (1, true) => CExpr::XorReduce(Box::new(CExpr::Xor(x(), s()))),
            (2, _) => CExpr::AndReduce(x()),
            (3, _) => CExpr::Index(x(), idx(rng)),
            _ => CExpr::XorReduce(x()),
        }
    } else if n_out == n_in {
        match (rng.gen_range_usize(4), capture.is_some()) {
            (0, true) => CExpr::Xor(x(), s()),
            (1, true) => CExpr::Or(Box::new(CExpr::And(x(), s())), Box::new(CExpr::Not(x()))),
            (2, _) => CExpr::Not(x()),
            _ => CExpr::Var("x".to_string()),
        }
    } else {
        CExpr::Repeat(Box::new(CExpr::Index(x(), idx(rng))), DimExpr::Const(n_out as i64))
    };
    let name = format!("f{}", classical.len());
    classical.push(GenClassical { name, n_in, n_out, capture, body });
    classical.len() - 1
}

/// A symbolic classical function over `N` with `n_out == 1`.
fn gen_sym_classical(rng: &mut StdRng, width: usize, classical: &mut Vec<GenClassical>) -> usize {
    let capture = if rng.gen_bool(0.5) {
        Some((0..width).map(|_| rng.gen_bool(0.5)).collect::<Vec<bool>>())
    } else {
        None
    };
    let x = || Box::new(CExpr::Var("x".to_string()));
    let s = || Box::new(CExpr::Var("s".to_string()));
    let body = match (rng.gen_range_usize(3), capture.is_some()) {
        (0, true) => CExpr::XorReduce(Box::new(CExpr::And(x(), s()))),
        (1, _) => CExpr::AndReduce(x()),
        _ => CExpr::XorReduce(x()),
    };
    let name = format!("f{}", classical.len());
    classical.push(GenClassical { name, n_in: width, n_out: 1, capture, body });
    classical.len() - 1
}

// ----------------------------------------------------------------------
// Rendering
// ----------------------------------------------------------------------

/// Everything needed to compile a case.
#[derive(Debug, Clone)]
pub struct RenderedCase {
    /// The program source text.
    pub source: String,
    /// Captures for the kernel's leading `cfunc` parameters.
    pub captures: Vec<CaptureValue>,
    /// Explicit dimension bindings (empty when inferred or concrete).
    pub dims: HashMap<String, i64>,
    /// The kernel name.
    pub kernel: String,
}

impl GenCase {
    /// Classical indices actually referenced by the current stages (the
    /// shrinker may have dropped some).
    pub(crate) fn used_classical(&self) -> Vec<usize> {
        let mut used = Vec::new();
        fn walk(stage: &Stage, used: &mut Vec<usize>) {
            match &stage.kind {
                StageKind::Sign { classical } | StageKind::Xor { classical }
                    if !used.contains(classical) =>
                {
                    used.push(*classical);
                }
                StageKind::Tensor(parts) | StageKind::Compose(parts) => {
                    for p in parts {
                        walk(p, used);
                    }
                }
                StageKind::Pred { inner, .. }
                | StageKind::Adjoint(inner)
                | StageKind::Repeat { inner, .. } => walk(inner, used),
                _ => {}
            }
        }
        for stage in &self.stages {
            walk(stage, &mut used);
        }
        used.sort_unstable();
        used
    }

    /// Renders the case to source + captures + dims.
    pub fn render(&self) -> RenderedCase {
        let sym = self.sym_dim.as_deref();
        let mut items = Vec::new();
        let used = self.used_classical();
        for &ci in &used {
            items.push(Item::Classical(self.render_classical(&self.classical[ci], sym)));
        }

        let dim = |n: usize| match sym {
            Some(v) => DimExpr::Var(v.to_string()),
            None => DimExpr::Const(n as i64),
        };

        let mut params = Vec::new();
        for &ci in &used {
            let c = &self.classical[ci];
            params.push(Param {
                name: c.name.clone(),
                ty: TypeExpr::CFunc(dim_for(c.n_in, sym), dim_for_out(c, sym)),
            });
        }
        let mut body_expr: Expr = match &self.input {
            InputMode::Prep(chars) => match sym {
                Some(_) => ExprKind::Pow(
                    Box::new(ExprKind::QLit { chars: vec![chars[0]], phase: None }.into()),
                    dim(self.width),
                )
                .into(),
                None => ExprKind::QLit { chars: chars.clone(), phase: None }.into(),
            },
            InputMode::Arg(_) => {
                params.push(Param { name: "qs".to_string(), ty: TypeExpr::Qubit(dim(self.width)) });
                ExprKind::Var("qs".to_string()).into()
            }
        };
        for stage in &self.stages {
            body_expr =
                ExprKind::Pipe(Box::new(body_expr), Box::new(self.render_stage(stage, sym))).into();
        }
        let ret = match self.measure {
            Some(basis) => {
                let prim = match basis {
                    MeasureBasis::Std => PrimitiveBasis::Std,
                    MeasureBasis::Pm => PrimitiveBasis::Pm,
                };
                body_expr = ExprKind::Pipe(
                    Box::new(body_expr),
                    Box::new(
                        ExprKind::Measure(Box::new(
                            ExprKind::BuiltinBasis(prim, dim(self.width)).into(),
                        ))
                        .into(),
                    ),
                )
                .into();
                TypeExpr::Bit(dim(self.width))
            }
            None => TypeExpr::Qubit(dim(self.width)),
        };

        let kernel = QpuFunc {
            name: "k".to_string(),
            dim_vars: sym.map(|v| vec![v.to_string()]).unwrap_or_default(),
            params,
            ret,
            body: vec![Stmt::Expr(body_expr)],
        };
        items.push(Item::Qpu(kernel));

        let captures: Vec<CaptureValue> = used
            .iter()
            .map(|&ci| {
                let c = &self.classical[ci];
                CaptureValue::CFunc {
                    name: c.name.clone(),
                    captures: c
                        .capture
                        .as_ref()
                        .map(|bits| vec![CaptureValue::Bits(bits.clone())])
                        .into_iter()
                        .flatten()
                        .collect(),
                }
            })
            .collect();

        let mut dims = HashMap::new();
        if self.sym_dim.is_some() && !self.infer_dim {
            dims.insert("N".to_string(), self.width as i64);
        }

        RenderedCase {
            source: render_program(&Program { items }),
            captures,
            dims,
            kernel: "k".to_string(),
        }
    }

    fn render_classical(&self, c: &GenClassical, sym: Option<&str>) -> ClassicalFunc {
        let mut params = Vec::new();
        if c.capture.is_some() {
            params.push(Param { name: "s".to_string(), ty: TypeExpr::Bit(dim_for(c.n_in, sym)) });
        }
        params.push(Param { name: "x".to_string(), ty: TypeExpr::Bit(dim_for(c.n_in, sym)) });
        ClassicalFunc {
            name: c.name.clone(),
            dim_vars: sym.map(|v| vec![v.to_string()]).unwrap_or_default(),
            params,
            ret: TypeExpr::Bit(dim_for_out(c, sym)),
            body: c.body.clone(),
        }
    }

    fn render_stage(&self, stage: &Stage, sym: Option<&str>) -> Expr {
        let dim = |n: usize| match sym {
            Some(v) if n == self.width => DimExpr::Var(v.to_string()),
            _ => DimExpr::Const(n as i64),
        };
        match &stage.kind {
            StageKind::Id => ExprKind::Id(dim(stage.width)).into(),
            StageKind::BuiltinTrans { from, to } => ExprKind::Translation(
                Box::new(ExprKind::BuiltinBasis(*from, dim(stage.width)).into()),
                Box::new(ExprKind::BuiltinBasis(*to, dim(stage.width)).into()),
            )
            .into(),
            StageKind::LiteralTrans {
                prim_in,
                vecs_in,
                phases_in,
                neg_in,
                prim_out,
                vecs_out,
                phases_out,
                neg_out,
            } => ExprKind::Translation(
                Box::new(literal(stage.width, *prim_in, vecs_in, phases_in, neg_in)),
                Box::new(literal(stage.width, *prim_out, vecs_out, phases_out, neg_out)),
            )
            .into(),
            StageKind::Flip { prim } => {
                ExprKind::Flip(Box::new(ExprKind::BuiltinBasis(*prim, DimExpr::Const(1)).into()))
                    .into()
            }
            StageKind::Tensor(parts) => {
                let mut iter = parts.iter();
                let first = self.render_stage(iter.next().expect("nonempty tensor"), sym);
                iter.fold(first, |acc, p| {
                    ExprKind::Tensor(Box::new(acc), Box::new(self.render_stage(p, sym))).into()
                })
            }
            StageKind::Pred { prim, vecs, pred_width, inner } => {
                let pred: Expr = if vecs.len() == 1 {
                    ExprKind::QLit { chars: chars_of(*pred_width, *prim, vecs[0]), phase: None }
                        .into()
                } else {
                    literal(
                        *pred_width,
                        *prim,
                        vecs,
                        &vec![None; vecs.len()],
                        &vec![false; vecs.len()],
                    )
                };
                ExprKind::Pred(Box::new(pred), Box::new(self.render_stage(inner, sym))).into()
            }
            StageKind::Adjoint(inner) => {
                ExprKind::Adjoint(Box::new(self.render_stage(inner, sym))).into()
            }
            StageKind::Repeat { inner, count } => ExprKind::Repeat(
                Box::new(self.render_stage(inner, sym)),
                DimExpr::Const(*count as i64),
            )
            .into(),
            StageKind::Compose(parts) => {
                let mut iter = parts.iter();
                let first = self.render_stage(iter.next().expect("nonempty compose"), sym);
                iter.fold(first, |acc, p| {
                    ExprKind::Pipe(Box::new(acc), Box::new(self.render_stage(p, sym))).into()
                })
            }
            StageKind::Sign { classical } => ExprKind::Sign(Box::new(
                ExprKind::Var(self.classical[*classical].name.clone()).into(),
            ))
            .into(),
            StageKind::Xor { classical } => ExprKind::Xor(Box::new(
                ExprKind::Var(self.classical[*classical].name.clone()).into(),
            ))
            .into(),
        }
    }
}

fn dim_for(n: usize, sym: Option<&str>) -> DimExpr {
    match sym {
        Some(v) => DimExpr::Var(v.to_string()),
        None => DimExpr::Const(n as i64),
    }
}

fn dim_for_out(c: &GenClassical, sym: Option<&str>) -> DimExpr {
    match sym {
        // Symbolic classicals are always N -> 1.
        Some(_) => DimExpr::Const(1),
        None => DimExpr::Const(c.n_out as i64),
    }
}

fn chars_of(width: usize, prim: PrimitiveBasis, bits: u64) -> Vec<QubitChar> {
    (0..width)
        .map(|pos| {
            let bit = bits >> (width - 1 - pos) & 1 == 1;
            (prim, Eigenstate::from_eigenbit(bit))
        })
        .collect()
}

fn literal(
    width: usize,
    prim: PrimitiveBasis,
    vecs: &[u64],
    phases: &[Option<f64>],
    negs: &[bool],
) -> Expr {
    ExprKind::BasisLit(
        vecs.iter()
            .zip(phases)
            .zip(negs)
            .map(|((&bits, phase), &negated)| VectorSyntax {
                chars: chars_of(width, prim, bits),
                power: None,
                negated,
                phase: phase.map(AngleExpr::Degrees),
            })
            .collect(),
    )
    .into()
}

#[cfg(test)]
mod tests {
    use super::*;
    use asdf_ast::parse::parse_program;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let opts = GenOptions::default();
        for index in 0..32 {
            let a = gen_case(42, index, &opts);
            let b = gen_case(42, index, &opts);
            assert_eq!(a, b);
            assert_eq!(a.render().source, b.render().source);
        }
        assert_ne!(gen_case(1, 0, &opts).render().source, gen_case(2, 0, &opts).render().source);
    }

    #[test]
    fn rendered_cases_parse() {
        let opts = GenOptions::default();
        for index in 0..200 {
            let case = gen_case(7, index, &opts);
            let rendered = case.render();
            parse_program(&rendered.source).unwrap_or_else(|e| {
                panic!("case {index} does not parse: {e}\n{}", rendered.source)
            });
        }
    }
}
