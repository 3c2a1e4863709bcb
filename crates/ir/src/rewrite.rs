//! The rewrite layer: patterns, the [`Rewriter`] handle, and the greedy
//! worklist driver.
//!
//! MLIR's canonicalizer "simplifies IR to better enable optimizations (e.g.,
//! through constant folding and dead code elimination)" (§3), and both MLIR
//! and quilc get their rewriting throughput from drivers that only revisit
//! IR touched by a previous rewrite. This module rebuilds that design:
//!
//! - [`RewritePattern`]: a DAG-to-DAG rewrite. Patterns *read* the op at the
//!   rewriter's root (plus the def- and use-chains around it) and *mutate*
//!   exclusively through the [`Rewriter`] handle, so the driver learns
//!   exactly which ops were created, erased, or had operands change and can
//!   requeue only the affected def-use neighborhood.
//! - [`Rewriter`]: the mutation handle. Edits are queued and applied when
//!   the pattern returns `true`; reads always observe the pre-firing IR.
//!   Def and use lookups are answered by the driver's incrementally
//!   maintained def/use index, the one place those facts come from.
//! - [`GreedyRewriteDriver`]: the worklist driver. Seeds every op, pops in
//!   program order, applies the best-[`benefit`](RewritePattern::benefit)
//!   matching pattern, folds classical dead-code elimination into the same
//!   worklist, and requeues only the reported neighborhood. Supports a
//!   [`Fuel`] cutoff (`ASDF_REWRITE_FUEL`) for bisecting miscompiles and an
//!   optional firing trace (`ASDF_REWRITE_TRACE=1`).

use crate::block::Block;
use crate::func::Func;
use crate::module::Module;
use crate::op::{Op, OpKind};
use crate::types::Type;
use crate::value::Value;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

// ---------------------------------------------------------------------
// Fuel
// ---------------------------------------------------------------------

const FUEL_UNLIMITED: u64 = u64::MAX;

/// A shared budget of pattern firings, for bisecting miscompiles: with
/// `ASDF_REWRITE_FUEL=N` (or [`Fuel::limited`]), the N+1-th firing and all
/// later ones are suppressed across every driver sharing the cell, while
/// dead-code elimination keeps running. Clones share the same budget.
#[derive(Debug, Clone)]
pub struct Fuel(Arc<AtomicU64>);

impl Fuel {
    /// No cutoff: every firing is allowed.
    pub fn unlimited() -> Self {
        Fuel(Arc::new(AtomicU64::new(FUEL_UNLIMITED)))
    }

    /// Allows exactly `n` pattern firings.
    pub fn limited(n: u64) -> Self {
        Fuel(Arc::new(AtomicU64::new(n.min(FUEL_UNLIMITED - 1))))
    }

    /// `limit.map(Fuel::limited).unwrap_or_else(Fuel::unlimited)`.
    pub fn from_limit(limit: Option<u64>) -> Self {
        match limit {
            Some(n) => Fuel::limited(n),
            None => Fuel::unlimited(),
        }
    }

    /// Whether the budget is spent.
    pub fn is_exhausted(&self) -> bool {
        self.0.load(Ordering::Relaxed) == 0
    }

    /// Remaining firings, or `None` when unlimited.
    pub fn remaining(&self) -> Option<u64> {
        match self.0.load(Ordering::Relaxed) {
            FUEL_UNLIMITED => None,
            n => Some(n),
        }
    }

    /// Consumes one firing; returns whether it was allowed.
    pub fn consume(&self) -> bool {
        let mut current = self.0.load(Ordering::Relaxed);
        loop {
            if current == FUEL_UNLIMITED {
                return true;
            }
            if current == 0 {
                return false;
            }
            match self.0.compare_exchange_weak(
                current,
                current - 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(observed) => current = observed,
            }
        }
    }
}

impl Default for Fuel {
    fn default() -> Self {
        Fuel::unlimited()
    }
}

// ---------------------------------------------------------------------
// Configuration and statistics
// ---------------------------------------------------------------------

/// Driver tunables. `Clone` shares the [`Fuel`] cell, so one budget can
/// span several passes of a pipeline.
#[derive(Debug, Clone)]
pub struct RewriteConfig {
    /// The firing budget (see [`Fuel`]).
    pub fuel: Fuel,
    /// Record (and print to stderr) a `pattern @ func:block:op` line per
    /// firing.
    pub trace: bool,
    /// Hard bound on total firings per run; exceeding it panics, which
    /// indicates a non-terminating (cyclic) pattern set.
    pub max_fires: usize,
}

impl Default for RewriteConfig {
    fn default() -> Self {
        RewriteConfig { fuel: Fuel::unlimited(), trace: false, max_fires: 1_000_000 }
    }
}

impl RewriteConfig {
    /// The default configuration with `ASDF_REWRITE_FUEL` (a firing
    /// budget) and `ASDF_REWRITE_TRACE=1` (firing trace) applied from the
    /// environment.
    pub fn from_env() -> Self {
        let mut config = RewriteConfig::default();
        if let Some(limit) = RewriteConfig::env_fuel_limit() {
            config.fuel = Fuel::limited(limit);
        }
        if std::env::var("ASDF_REWRITE_TRACE").is_ok_and(|v| v == "1") {
            config.trace = true;
        }
        config
    }

    /// Parses `ASDF_REWRITE_FUEL`, if set to an integer.
    pub fn env_fuel_limit() -> Option<u64> {
        std::env::var("ASDF_REWRITE_FUEL").ok().and_then(|v| v.parse().ok())
    }

    /// Replaces the fuel cell.
    #[must_use]
    pub fn with_fuel(mut self, fuel: Fuel) -> Self {
        self.fuel = fuel;
        self
    }

    /// Enables or disables the firing trace.
    #[must_use]
    pub fn with_trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Overrides the firing bound.
    #[must_use]
    pub fn with_max_fires(mut self, max_fires: usize) -> Self {
        self.max_fires = max_fires.max(1);
        self
    }
}

/// Statistics from the last driver run.
#[derive(Debug, Clone, Default)]
pub struct RewriteStats {
    /// Firing counts by pattern name.
    pub fired: HashMap<&'static str, usize>,
    /// Total pattern firings.
    pub fires: usize,
    /// Ops removed by the integrated classical dead-code elimination.
    pub dce_erased: usize,
    /// Live ops popped from the worklist: the driver's work, which the
    /// directed requeue keeps within a small constant of ops + firings.
    pub visits: usize,
    /// `pattern @ func:block:op` lines, when tracing is enabled.
    pub trace: Vec<String>,
}

// ---------------------------------------------------------------------
// Patterns
// ---------------------------------------------------------------------

/// A DAG-to-DAG rewrite driven by a [`GreedyRewriteDriver`].
///
/// A pattern inspects the op at the rewriter's root — plus whatever block
/// context it needs via [`Rewriter::block`], [`Rewriter::find_def`],
/// [`Rewriter::single_user`] and [`Rewriter::use_count`] — and, on a
/// match, queues its edits on the
/// handle and returns `true`. Reads must precede mutations: queued edits
/// are applied only after the pattern returns, so every read observes the
/// consistent pre-firing IR.
///
/// # Lookaround contract
///
/// After a firing, the driver requeues only the ops at most three def-use
/// hops from a value whose def or users changed, walking in two
/// directions: forward (the value's users, then their results' users, …)
/// and backward (the value's def, then the defs of that op's operands, …).
/// A pattern rooted at an op may therefore read:
///
/// - ops on a def-chain from the root (the def of an operand, the def of
///   one of that op's operands, …) or on a use-chain from it (a user of a
///   result, a user of one of that op's results, …), at most three hops
///   away;
/// - the use lists ([`Rewriter::use_count`], [`Rewriter::single_user`]) of
///   the values on those chains.
///
/// A pattern that reads anything else, such as another user of an
/// operand's def, may miss an opportunity that a change elsewhere created,
/// and the driver's result is then no longer a fixpoint. Every stock
/// pattern reads only such chains and use lists, and all but
/// `indirect-to-direct-call` (which follows a `func_adj`/`func_pred`
/// wrapper chain to its `func_const`, however long) stay within three
/// hops.
///
/// # Root kinds
///
/// A pattern that can only root at some op kinds says so in
/// [`RewritePattern::matches_root_kind`]; the driver then never offers it
/// another op. The predicate must be implied by the pattern's own first
/// check, so that declaring roots never changes which pattern fires. All
/// nine stock patterns declare theirs.
///
/// # Dead entries
///
/// An erase moves no other op. The erased op stays in the function's entry
/// block as a dead entry, and the driver drops every dead entry at once
/// when the run ends. A nested block is compacted at the end of each
/// firing instead, so an op's regions never hold a dead entry and a
/// pattern may copy a region-bearing op whole. During a run,
/// [`Rewriter::block`] and [`Rewriter::func`] may therefore show dead
/// entries in the entry block. A pattern reaches other ops only through
/// [`Rewriter::op`], [`Rewriter::find_def`] and [`Rewriter::single_user`],
/// which never return one, and never by scanning the block or offsetting a
/// position. Every stock pattern reads this way.
///
/// # Example
///
/// ```
/// use asdf_ir::rewrite::{GreedyRewriteDriver, Rewriter, RewritePattern};
/// use asdf_ir::{FuncBuilder, FuncType, Module, Op, OpKind, Type, Visibility};
///
/// /// Folds `fneg(const c)` into `const -c`.
/// struct FoldFNeg;
///
/// impl RewritePattern for FoldFNeg {
///     fn name(&self) -> &'static str {
///         "fold-fneg"
///     }
///
///     fn matches_root_kind(&self, kind: &OpKind) -> bool {
///         matches!(kind, OpKind::FNeg)
///     }
///
///     fn match_and_rewrite(&self, rw: &mut Rewriter<'_>) -> bool {
///         let op = rw.op();
///         if !matches!(op.kind, OpKind::FNeg) {
///             return false;
///         }
///         let (operand, result) = (op.operands[0], op.results[0]);
///         let Some((def_idx, _)) = rw.find_def(operand) else { return false };
///         let OpKind::ConstF64 { value } = rw.block().ops[def_idx].kind else {
///             return false;
///         };
///         rw.replace_root(Op::new(OpKind::ConstF64 { value: -value }, vec![], vec![result]));
///         true
///     }
/// }
///
/// let mut b = FuncBuilder::new(
///     "f",
///     FuncType::new(vec![], vec![Type::F64], false),
///     Visibility::Public,
/// );
/// let mut bb = b.block();
/// let c = bb.push(OpKind::ConstF64 { value: 2.0 }, vec![], vec![Type::F64]);
/// let n = bb.push(OpKind::FNeg, vec![c[0]], vec![Type::F64]);
/// bb.push(OpKind::Return, vec![n[0]], vec![]);
/// let mut module = Module::new();
/// module.add_func(b.finish());
///
/// let mut driver = GreedyRewriteDriver::new();
/// driver.add_pattern(Box::new(FoldFNeg));
/// assert_eq!(driver.run(&mut module), 1);
/// // The fold fired and DCE swept the now-dead constant.
/// assert_eq!(module.func("f").unwrap().body.ops.len(), 2);
/// ```
pub trait RewritePattern {
    /// A stable name for debugging, statistics, and fuel bisection.
    fn name(&self) -> &'static str;

    /// Relative priority: when several patterns match the same op, the
    /// highest benefit fires (ties break by registration order). A useful
    /// convention is the net number of ops the rewrite removes.
    fn benefit(&self) -> usize {
        1
    }

    /// Whether an op of kind `kind` can be this pattern's root. The driver
    /// offers a popped op only to the patterns that accept its kind, and
    /// asks before it builds a [`Rewriter`], so a pattern rooted at one or
    /// two kinds costs almost nothing on every other op.
    ///
    /// The predicate must be implied by the pattern's own first check:
    /// whenever it returns `false` for an op's kind,
    /// [`match_and_rewrite`](RewritePattern::match_and_rewrite) on that op
    /// must return `false` too. Declaring roots then never changes which
    /// pattern fires. Debug builds check this on every op the predicate
    /// rejects. The default accepts every kind, so a pattern that declares
    /// no roots is tried on every op.
    fn matches_root_kind(&self, kind: &OpKind) -> bool {
        let _ = kind;
        true
    }

    /// Attempts to rewrite the op at the rewriter's root. On a match,
    /// queue the edits on `rw` and return `true`; otherwise return `false`
    /// without queuing anything.
    fn match_and_rewrite(&self, rw: &mut Rewriter<'_>) -> bool;
}

/// An ordered collection of patterns, sorted by descending
/// [`RewritePattern::benefit`] (stable, so registration order breaks
/// ties).
#[derive(Default)]
pub struct PatternSet {
    patterns: Vec<Box<dyn RewritePattern>>,
}

impl PatternSet {
    /// An empty set.
    pub fn new() -> Self {
        PatternSet::default()
    }

    /// Registers a pattern, keeping the set benefit-sorted.
    pub fn add(&mut self, pattern: Box<dyn RewritePattern>) -> &mut Self {
        self.patterns.push(pattern);
        self.patterns.sort_by_key(|p| std::cmp::Reverse(p.benefit()));
        self
    }

    fn iter(&self) -> impl Iterator<Item = &Box<dyn RewritePattern>> {
        self.patterns.iter()
    }
}

// ---------------------------------------------------------------------
// The Rewriter handle
// ---------------------------------------------------------------------

/// One queued IR edit.
#[derive(Debug)]
enum Mutation {
    /// Replace the op at `idx` of the root block.
    Replace { idx: usize, op: Op },
    /// Erase the op at `idx` of the root block.
    Erase { idx: usize },
    /// Rewrite every use of `from` (function-wide) to `to`.
    Rauw { from: Value, to: Value },
}

/// The handle a [`RewritePattern`] reads and mutates through.
///
/// Reads ([`op`](Rewriter::op), [`block`](Rewriter::block),
/// [`find_def`](Rewriter::find_def), [`use_count`](Rewriter::use_count))
/// observe the pre-firing IR; mutations ([`replace_op`](Rewriter::replace_op),
/// [`erase_op`](Rewriter::erase_op),
/// [`replace_all_uses`](Rewriter::replace_all_uses)) are queued and applied
/// after the pattern returns `true`, and the driver uses the queued record
/// to requeue exactly the changed def-use neighborhood. Structural edits
/// address ops by their **pre-firing index in the root block**; later
/// queued edits need not account for shifts caused by earlier ones.
///
/// # Example
///
/// ```
/// use asdf_ir::rewrite::{Rewriter, RewritePattern};
/// use asdf_ir::OpKind;
///
/// /// Erases `fadd(x, x)` when its result is unused — demonstrating the
/// /// read-then-mutate discipline.
/// struct DropDeadSelfAdd;
///
/// impl RewritePattern for DropDeadSelfAdd {
///     fn name(&self) -> &'static str {
///         "drop-dead-self-add"
///     }
///
///     fn matches_root_kind(&self, kind: &OpKind) -> bool {
///         matches!(kind, OpKind::FAdd)
///     }
///
///     fn match_and_rewrite(&self, rw: &mut Rewriter<'_>) -> bool {
///         let op = rw.op();
///         let is_self_add = matches!(op.kind, OpKind::FAdd) && op.operands[0] == op.operands[1];
///         let result = op.results[0];
///         if !is_self_add || rw.use_count(result) != 0 {
///             return false;
///         }
///         rw.erase_root();
///         true
///     }
/// }
/// ```
pub struct Rewriter<'a> {
    func: &'a mut Func,
    index: &'a FuncIndex,
    root: SlotId,
    root_idx: usize,
    log: Vec<Mutation>,
}

impl<'a> Rewriter<'a> {
    /// A handle rooted at the op in `root`.
    fn new(func: &'a mut Func, index: &'a FuncIndex, root: SlotId) -> Self {
        let root_idx = index.slots[root].pos;
        Rewriter { func, index, root, root_idx, log: Vec::new() }
    }

    fn assert_clean(&self) {
        debug_assert!(
            self.log.is_empty(),
            "Rewriter reads must precede mutations: queued edits are only \
             applied after the pattern returns, so a read here would observe \
             stale IR"
        );
    }

    // ----- reads (pre-firing IR) -----

    /// The op under consideration (the worklist root).
    pub fn op(&self) -> &Op {
        self.assert_clean();
        &self.block().ops[self.root_idx]
    }

    /// The block containing the root op. It may hold dead entries; see
    /// [`RewritePattern`].
    pub fn block(&self) -> &Block {
        self.assert_clean();
        self.index.block(self.func, self.index.slots[self.root].block)
    }

    /// The function being rewritten. Its entry block may hold dead
    /// entries; see [`RewritePattern`].
    pub fn func(&self) -> &Func {
        self.assert_clean();
        self.func
    }

    /// The type of an SSA value.
    pub fn value_type(&self, v: Value) -> &Type {
        self.func.value_type(v)
    }

    /// The op defining `v` in the root block, as `(op index, result
    /// position)`, read in O(1) from the driver's def index. `None` when
    /// `v` is a block argument, is defined in another block (an enclosing
    /// block or a nested region), or is defined at or after the root.
    /// Under SSA a def precedes its uses, so the same lookup serves
    /// multi-hop lookbacks (the def of an operand of an earlier op).
    pub fn find_def(&self, v: Value) -> Option<(usize, usize)> {
        self.assert_clean();
        let def = &self.index.slots[self.index.def_slot(v)?];
        let root_block = self.index.slots[self.root].block;
        if !def.live || def.block != root_block || def.pos >= self.root_idx {
            return None;
        }
        let result = self.block().ops[def.pos].results.iter().position(|r| *r == v)?;
        Some((def.pos, result))
    }

    /// Function-wide use count of `v` (operand uses, including nested
    /// regions), O(1) from the driver's index.
    pub fn use_count(&self, v: Value) -> usize {
        self.assert_clean();
        self.index.use_count(v)
    }

    /// The index of the op using `v` in the root block, read in O(1) from
    /// the driver's use lists — the counterpart of
    /// [`Rewriter::find_def`]. `None` unless `v` has exactly one use
    /// function-wide and that use is an operand of a live op of the root
    /// block (a use inside a nested region does not count as one).
    pub fn single_user(&self, v: Value) -> Option<usize> {
        self.assert_clean();
        let mut users = self.index.users(v);
        let (Some(slot), None) = (users.next(), users.next()) else {
            return None;
        };
        let user = &self.index.slots[slot];
        let root_block = self.index.slots[self.root].block;
        (user.live && user.block == root_block).then_some(user.pos)
    }

    // ----- mutations (queued) -----

    /// Allocates a fresh SSA value (immediately; values are arena-indexed
    /// and allocation does not disturb reads).
    pub fn new_value(&mut self, ty: Type) -> Value {
        self.func.new_value(ty)
    }

    /// Queues replacement of the op at pre-firing index `idx` of the root
    /// block.
    pub fn replace_op(&mut self, idx: usize, op: Op) {
        self.log.push(Mutation::Replace { idx, op });
    }

    /// Queues replacement of the root op.
    pub fn replace_root(&mut self, op: Op) {
        self.replace_op(self.root_idx, op);
    }

    /// Queues erasure of the op at pre-firing index `idx` of the root
    /// block. Its results must be dead (or rewired via
    /// [`Rewriter::replace_all_uses`]) once all queued edits apply.
    pub fn erase_op(&mut self, idx: usize) {
        self.log.push(Mutation::Erase { idx });
    }

    /// Queues erasure of the root op.
    pub fn erase_root(&mut self) {
        self.erase_op(self.root_idx);
    }

    /// Queues a function-wide rewrite of every use of `from` to `to`
    /// (applied after all structural edits).
    pub fn replace_all_uses(&mut self, from: Value, to: Value) {
        self.log.push(Mutation::Rauw { from, to });
    }

    fn has_mutations(&self) -> bool {
        !self.log.is_empty()
    }

    fn into_log(self) -> Vec<Mutation> {
        self.log
    }
}

// ---------------------------------------------------------------------
// The incremental function index
// ---------------------------------------------------------------------

type SlotId = usize;
type BlockId = usize;

/// The end of a use list, and "no def" in [`ValueData::def`].
const NIL: u32 = u32::MAX;

/// A slot or use-node number as a `u32` link.
fn link_id(n: usize) -> u32 {
    debug_assert!(n < NIL as usize, "fewer than 2^32 slots and uses");
    n as u32
}

#[derive(Debug)]
struct SlotData {
    live: bool,
    block: BlockId,
    pos: usize,
    /// The use node of operand 0. The op's operands own the contiguous
    /// nodes `first_use..first_use + operands.len()`, so operand `k` is
    /// node `first_use + k`.
    first_use: u32,
    /// Nested blocks of this (region-bearing) op: `((region, block), id)`.
    children: Vec<((usize, usize), BlockId)>,
}

#[derive(Debug)]
struct BlockData {
    /// `(owning op slot, region index, block index)`; `None` for the entry
    /// block.
    parent: Option<(SlotId, usize, usize)>,
    /// Slot ids parallel to the block's ops, dead entries included.
    slots: Vec<SlotId>,
}

/// One use of a value: one operand of an indexed op, like MLIR's
/// `OpOperand`. Linked into its value's use list.
#[derive(Debug, Clone, Copy)]
struct UseNode {
    /// The value used.
    value: Value,
    /// The using op.
    slot: u32,
    /// The neighbours in `value`'s use list, or [`NIL`].
    prev: u32,
    next: u32,
}

/// Per value: its def and its use list.
#[derive(Debug, Clone, Copy)]
struct ValueData {
    /// The defining slot, or [`NIL`] (a block argument or undefined).
    def: u32,
    /// The first and last node of the use list, or [`NIL`].
    head: u32,
    tail: u32,
    /// The list's length: the value's use count.
    count: u32,
}

impl ValueData {
    const UNUSED: ValueData = ValueData { def: NIL, head: NIL, tail: NIL, count: 0 };
}

/// An incrementally maintained def/use/position index over one function,
/// giving the worklist driver stable op identities (slots), O(1) def
/// lookups and use counts, and use lists.
///
/// Uses are MLIR-style: one flat array of use nodes, one node per operand
/// of every indexed op, linked per value into a doubly linked list. A
/// value's list is in program order when the index is built; later, uses
/// join at its tail. So building the index allocates no per-value list,
/// unindexing an op unlinks its nodes in O(operands), and a RAUW moves
/// each use in O(1) by its operand position. All mutations flow through
/// [`apply_mutations`], which keeps the index in sync without rescanning
/// the function. The driver keeps one index and rebuilds it in place for
/// each function it runs on.
#[derive(Debug, Default)]
struct FuncIndex {
    slots: Vec<SlotData>,
    blocks: Vec<BlockData>,
    /// Use nodes. An unindexed op's nodes stay here, unlinked.
    uses: Vec<UseNode>,
    /// Def and use list by value index.
    values: Vec<ValueData>,
    /// RAUW's scratch list of the nodes it moves.
    moved: Vec<u32>,
}

impl FuncIndex {
    #[cfg(test)]
    fn build(func: &Func) -> FuncIndex {
        let mut index = FuncIndex::default();
        index.rebuild(func);
        index
    }

    /// Indexes `func` from scratch, reusing this index's buffers.
    fn rebuild(&mut self, func: &Func) {
        self.slots.clear();
        self.blocks.clear();
        self.uses.clear();
        self.values.clear();
        self.values.resize(func.num_values(), ValueData::UNUSED);
        self.index_block(&func.body, None);
    }

    fn grow(&mut self, func: &Func) {
        if self.values.len() < func.num_values() {
            self.values.resize(func.num_values(), ValueData::UNUSED);
        }
    }

    fn index_block(&mut self, block: &Block, parent: Option<(SlotId, usize, usize)>) -> BlockId {
        let bid = self.blocks.len();
        self.blocks.push(BlockData { parent, slots: Vec::with_capacity(block.ops.len()) });
        for (pos, op) in block.ops.iter().enumerate() {
            let slot = self.index_op(op, bid, pos);
            self.blocks[bid].slots.push(slot);
        }
        bid
    }

    fn index_op(&mut self, op: &Op, block: BlockId, pos: usize) -> SlotId {
        let slot = self.slots.len();
        let first_use = link_id(self.uses.len());
        self.slots.push(SlotData { live: true, block, pos, first_use, children: Vec::new() });
        for &value in &op.operands {
            let node = link_id(self.uses.len());
            self.uses.push(UseNode { value, slot: link_id(slot), prev: NIL, next: NIL });
            self.link(node);
        }
        for &r in &op.results {
            self.values[r.index()].def = link_id(slot);
        }
        for (ri, region) in op.regions.iter().enumerate() {
            for (bi, nested) in region.blocks.iter().enumerate() {
                let child = self.index_block(nested, Some((slot, ri, bi)));
                self.slots[slot].children.push(((ri, bi), child));
            }
        }
        slot
    }

    fn unindex_op(&mut self, op: &Op, slot: SlotId) {
        self.slots[slot].live = false;
        let first_use = self.slots[slot].first_use;
        for node in first_use..first_use + link_id(op.operands.len()) {
            self.unlink(node);
        }
        for &r in &op.results {
            if self.values[r.index()].def == link_id(slot) {
                self.values[r.index()].def = NIL;
            }
        }
        let children = std::mem::take(&mut self.slots[slot].children);
        for ((ri, bi), child) in children {
            self.unindex_block(&op.regions[ri].blocks[bi], child);
        }
    }

    fn unindex_block(&mut self, block: &Block, bid: BlockId) {
        let slots = std::mem::take(&mut self.blocks[bid].slots);
        for (pos, slot) in slots.into_iter().enumerate() {
            self.unindex_op(&block.ops[pos], slot);
        }
    }

    /// Appends `node` to the tail of its value's use list.
    fn link(&mut self, node: u32) {
        let value = &mut self.values[self.uses[node as usize].value.index()];
        let tail = std::mem::replace(&mut value.tail, node);
        if tail == NIL {
            value.head = node;
        } else {
            self.uses[tail as usize].next = node;
        }
        value.count += 1;
        let use_node = &mut self.uses[node as usize];
        use_node.prev = tail;
        use_node.next = NIL;
    }

    /// Removes `node` from its value's use list.
    fn unlink(&mut self, node: u32) {
        let UseNode { value, prev, next, .. } = self.uses[node as usize];
        let value = &mut self.values[value.index()];
        if prev == NIL {
            value.head = next;
        } else {
            self.uses[prev as usize].next = next;
        }
        if next == NIL {
            value.tail = prev;
        } else {
            self.uses[next as usize].prev = prev;
        }
        value.count -= 1;
    }

    /// Drops the dead entries of `block` (indexed as `bid`), keeping the
    /// survivors' order, and renumbers their positions.
    fn compact(&mut self, block: &mut Block, bid: BlockId) {
        let FuncIndex { slots, blocks, .. } = self;
        let ids = &mut blocks[bid].slots;
        let mut live = ids.iter().map(|&s| slots[s].live);
        block.ops.retain(|_| live.next().expect("one slot per op"));
        ids.retain(|&s| slots[s].live);
        for (pos, &s) in ids.iter().enumerate() {
            slots[s].pos = pos;
        }
    }

    /// Where a live slot sits in the function with its dead entries
    /// dropped: `(preorder block number in Func::block_paths, op index)`.
    /// O(func); the firing trace is its only user.
    fn live_location(&self, slot: SlotId) -> (usize, usize) {
        let SlotData { block, pos, .. } = self.slots[slot];
        let block_no =
            self.block_number(0, block, &mut 0).expect("a live slot's block is reachable");
        let idx = self.blocks[block].slots[..pos].iter().filter(|&&s| self.slots[s].live).count();
        (block_no, idx)
    }

    /// Numbers `bid` and the blocks nested under its live ops in preorder,
    /// starting from `*next`; returns the number of `target` once reached.
    fn block_number(&self, bid: BlockId, target: BlockId, next: &mut usize) -> Option<usize> {
        if bid == target {
            return Some(*next);
        }
        *next += 1;
        for &slot in &self.blocks[bid].slots {
            if !self.slots[slot].live {
                continue;
            }
            for &(_, child) in &self.slots[slot].children {
                if let Some(number) = self.block_number(child, target, next) {
                    return Some(number);
                }
            }
        }
        None
    }

    fn use_count(&self, v: Value) -> usize {
        self.values.get(v.index()).map_or(0, |d| d.count as usize)
    }

    fn def_slot(&self, v: Value) -> Option<SlotId> {
        let def = self.values.get(v.index())?.def;
        (def != NIL).then_some(def as usize)
    }

    /// The slots using `v`, one per use (an op using `v` twice appears
    /// twice), in use-list order.
    fn users(&self, v: Value) -> impl Iterator<Item = SlotId> + '_ {
        let mut node = self.values.get(v.index()).map_or(NIL, |d| d.head);
        std::iter::from_fn(move || {
            let UseNode { slot, next, .. } = *self.uses.get(node as usize)?;
            node = next;
            Some(slot as usize)
        })
    }

    /// The block indexed as `bid`, found by walking up its parents (no
    /// path is built).
    fn block<'f>(&self, func: &'f Func, bid: BlockId) -> &'f Block {
        match self.blocks[bid].parent {
            None => &func.body,
            Some((slot, ri, bi)) => {
                let owner = &self.slots[slot];
                &self.block(func, owner.block).ops[owner.pos].regions[ri].blocks[bi]
            }
        }
    }

    /// Mutable access to the block indexed as `bid`.
    fn block_mut<'f>(&self, func: &'f mut Func, bid: BlockId) -> &'f mut Block {
        match self.blocks[bid].parent {
            None => &mut func.body,
            Some((slot, ri, bi)) => {
                let owner = &self.slots[slot];
                &mut self.block_mut(func, owner.block).ops[owner.pos].regions[ri].blocks[bi]
            }
        }
    }

    fn op<'f>(&self, func: &'f Func, slot: SlotId) -> &'f Op {
        &self.block(func, self.slots[slot].block).ops[self.slots[slot].pos]
    }

    /// Index-maintained RAUW: rewrites exactly the operands on `from`'s
    /// use list, each by its operand position, and moves each use node to
    /// the tail of `to`'s list. O(uses): no operand list is scanned.
    ///
    /// The moved uses join `to`'s list in ascending node order, which is
    /// ascending slot order and, within a slot, operand order: a slot's
    /// nodes are contiguous and numbered with it.
    fn replace_all_uses(&mut self, func: &mut Func, from: Value, to: Value) {
        let mut moved = std::mem::take(&mut self.moved);
        moved.clear();
        let mut node = self.values[from.index()].head;
        while node != NIL {
            moved.push(node);
            node = self.uses[node as usize].next;
        }
        moved.sort_unstable();
        let from_data = &mut self.values[from.index()];
        (from_data.head, from_data.tail, from_data.count) = (NIL, NIL, 0);
        for &node in &moved {
            let slot = self.uses[node as usize].slot as usize;
            debug_assert!(self.slots[slot].live, "a use list holds live ops only");
            let operand = (node - self.slots[slot].first_use) as usize;
            let op = self.op_mut(func, slot);
            debug_assert_eq!(op.operands[operand], from, "use node out of sync with its op");
            op.operands[operand] = to;
            self.uses[node as usize].value = to;
            self.link(node);
        }
        self.moved = moved;
    }

    fn op_mut<'f>(&self, func: &'f mut Func, slot: SlotId) -> &'f mut Op {
        &mut self.block_mut(func, self.slots[slot].block).ops[self.slots[slot].pos]
    }
}

#[cfg(test)]
impl FuncIndex {
    /// Checks the maintained index against one freshly built from the
    /// function's live ops: per value, the same multiset of uses (using
    /// op and operand position), the same use count and the same def. Also
    /// checks that every use list is well linked.
    fn assert_consistent(&self, func: &Func) {
        let mut live = func.clone();
        let mut kept = self.blocks[0].slots.iter().map(|&s| self.slots[s].live);
        live.body.ops.retain(|_| kept.next().expect("one slot per op"));
        let fresh = FuncIndex::build(&live);
        let mut to_kept = vec![usize::MAX; fresh.slots.len()];
        self.pair_blocks(&fresh, 0, 0, &mut to_kept);
        assert_eq!(self.values.len(), func.num_values());
        for v in (0..func.num_values()).map(Value::from_index) {
            let uses = |index: &FuncIndex, map: &dyn Fn(usize) -> usize| {
                let (mut node, mut prev, mut uses) =
                    (index.values[v.index()].head, NIL, Vec::new());
                while node != NIL {
                    let n = index.uses[node as usize];
                    assert_eq!((n.value, n.prev), (v, prev), "use list of {v} is mislinked");
                    let slot = n.slot as usize;
                    uses.push((map(slot), (node - index.slots[slot].first_use) as usize));
                    (prev, node) = (node, n.next);
                }
                assert_eq!(index.values[v.index()].tail, prev, "tail of {v}");
                assert_eq!(index.use_count(v), uses.len(), "use count of {v}");
                uses.sort_unstable();
                uses
            };
            assert_eq!(uses(self, &|s| s), uses(&fresh, &|s| to_kept[s]), "uses of {v}");
            assert_eq!(self.def_slot(v), fresh.def_slot(v).map(|s| to_kept[s]), "def of {v}");
        }
    }

    /// Pairs the live slots of block `kept` of this index with the slots of
    /// block `new` of `fresh`, recursively through regions.
    fn pair_blocks(&self, fresh: &FuncIndex, kept: BlockId, new: BlockId, to_kept: &mut [SlotId]) {
        let live = self.blocks[kept].slots.iter().filter(|&&s| self.slots[s].live);
        assert_eq!(live.clone().count(), fresh.blocks[new].slots.len(), "ops in block {kept}");
        for (&k, &f) in live.zip(&fresh.blocks[new].slots) {
            to_kept[f] = k;
            assert_eq!(self.slots[k].children.len(), fresh.slots[f].children.len());
            for (&(at, k_child), &(_, f_child)) in
                self.slots[k].children.iter().zip(&fresh.slots[f].children)
            {
                assert_eq!(self.blocks[k_child].parent, Some((k, at.0, at.1)));
                self.pair_blocks(fresh, k_child, f_child, to_kept);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Applying queued mutations
// ---------------------------------------------------------------------

/// What a firing changed, as reported by the [`Rewriter`] log.
#[derive(Debug, Default)]
struct AppliedChange {
    /// Values whose def or users changed — the seeds of the neighborhood
    /// requeue.
    touched: Vec<Value>,
    /// Slots of created (replacement) ops, including the ops inside
    /// their regions.
    created: Vec<SlotId>,
}

/// Applies a queued mutation log to `func` (root block indexed as `bid`),
/// keeping `index` in sync. Edits address pre-firing indices; application
/// order is replaces, erases (in place, as dead entries), then RAUWs.
fn apply_mutations(
    func: &mut Func,
    bid: BlockId,
    log: Vec<Mutation>,
    index: &mut FuncIndex,
) -> AppliedChange {
    let mut change = AppliedChange::default();
    let mut replaces: Vec<(usize, Op)> = Vec::new();
    let mut erases: Vec<usize> = Vec::new();
    let mut rauws: Vec<(Value, Value)> = Vec::new();
    for mutation in log {
        match mutation {
            Mutation::Replace { idx, op } => replaces.push((idx, op)),
            Mutation::Erase { idx } => erases.push(idx),
            Mutation::Rauw { from, to } => rauws.push((from, to)),
        }
    }
    erases.sort_unstable();
    erases.dedup();
    debug_assert!(
        replaces.iter().all(|(idx, _)| !erases.contains(idx)),
        "an op may be replaced or erased in one firing, not both"
    );

    index.grow(func);

    // 1. Replaces, at unshifted indices.
    for (idx, new_op) in replaces {
        change.touched.extend(new_op.operands.iter().chain(new_op.results.iter()));
        let old = std::mem::replace(&mut index.block_mut(func, bid).ops[idx], new_op);
        change.touched.extend(old.operands.iter().chain(old.results.iter()));
        let old_slot = index.blocks[bid].slots[idx];
        index.unindex_op(&old, old_slot);
        // Everything index_op allocates — the op itself plus every op
        // inside its regions — is newly created and must be requeued.
        let first_new = index.slots.len();
        let new_op = &index.block(func, bid).ops[idx];
        let new_slot = index.index_op(new_op, bid, idx);
        index.blocks[bid].slots[idx] = new_slot;
        change.created.extend(first_new..index.slots.len());
    }

    // 2. Erases: each erased op stays where it is as a dead entry, so no
    //    position moves.
    for &idx in &erases {
        let old = &index.block(func, bid).ops[idx];
        change.touched.extend(old.operands.iter().chain(old.results.iter()));
        index.unindex_op(old, index.blocks[bid].slots[idx]);
    }

    // 3. RAUWs, in queued order.
    for (from, to) in rauws {
        if from == to {
            continue;
        }
        change.touched.push(from);
        change.touched.push(to);
        index.replace_all_uses(func, from, to);
    }

    // A nested block is compacted at once: a pattern may copy a whole
    // region-bearing op (the if-pushdowns clone an `scf.if`), and the copy
    // must not carry dead entries. Only the entry block defers.
    if !erases.is_empty() && index.blocks[bid].parent.is_some() {
        let block = index.block_mut(func, bid);
        index.compact(block, bid);
    }
    change
}

// ---------------------------------------------------------------------
// The worklist driver
// ---------------------------------------------------------------------

/// The worklist-driven greedy pattern engine.
///
/// Seeds every op of every function, pops in program order, applies the
/// best-benefit matching pattern, and requeues only the def-use
/// neighborhood the [`Rewriter`] reported — so optimization cost scales
/// with the number of firings, not firings × function size. A popped op
/// is offered only to the patterns whose
/// [`matches_root_kind`](RewritePattern::matches_root_kind) accepts its
/// kind. Classical dead-code elimination runs on the same worklist: a
/// popped pure op whose results are all unused is erased.
#[derive(Default)]
pub struct GreedyRewriteDriver {
    patterns: PatternSet,
    config: RewriteConfig,
    /// Statistics from the last [`run`](GreedyRewriteDriver::run).
    pub stats: RewriteStats,
    /// Buffers reused by every function the driver runs on.
    scratch: DriverScratch,
}

/// The index, worklist and requeue buffers of [`GreedyRewriteDriver`],
/// kept between functions and runs: a pipeline makes many runs over small
/// functions, and each would otherwise allocate them afresh.
#[derive(Default)]
struct DriverScratch {
    index: FuncIndex,
    worklist: Vec<SlotId>,
    in_list: Vec<bool>,
    neighborhood: NeighborhoodScratch,
}

impl GreedyRewriteDriver {
    /// An empty driver (only DCE) with the default configuration.
    pub fn new() -> Self {
        GreedyRewriteDriver::default()
    }

    /// A driver over `patterns` with the default configuration.
    pub fn from_patterns(patterns: PatternSet) -> Self {
        GreedyRewriteDriver { patterns, ..GreedyRewriteDriver::default() }
    }

    /// A driver over `patterns` with an explicit configuration.
    pub fn with_config(patterns: PatternSet, config: RewriteConfig) -> Self {
        GreedyRewriteDriver { patterns, config, ..GreedyRewriteDriver::default() }
    }

    /// Registers a pattern.
    pub fn add_pattern(&mut self, pattern: Box<dyn RewritePattern>) -> &mut Self {
        self.patterns.add(pattern);
        self
    }

    /// Runs every function of `module` to its rewrite fixpoint; returns
    /// total pattern firings.
    ///
    /// # Panics
    ///
    /// Panics when [`RewriteConfig::max_fires`] is exceeded, which
    /// indicates a non-terminating (cyclic) pattern set.
    pub fn run(&mut self, module: &mut Module) -> usize {
        self.stats = RewriteStats::default();
        let mut total = 0usize;
        // Patterns are intra-function and signatures never change mid-run,
        // so one pass over the functions reaches the module fixpoint; the
        // per-function worklist reaches the function fixpoint.
        for name in module.func_names() {
            let func = module.func_mut(&name).expect("name snapshot is stable");
            total += self.run_func(func, &name);
        }
        total
    }

    fn run_func(&mut self, func: &mut Func, func_name: &str) -> usize {
        let GreedyRewriteDriver { patterns, config, stats, scratch } = self;
        let DriverScratch { index, worklist, in_list, neighborhood } = scratch;
        index.rebuild(func);
        // Seed in reverse so LIFO pops visit ops in program order.
        worklist.clear();
        worklist.extend((0..index.slots.len()).rev());
        in_list.clear();
        in_list.resize(index.slots.len(), true);
        let mut fires = 0usize;

        while let Some(slot) = worklist.pop() {
            in_list[slot] = false;
            if !index.slots[slot].live {
                continue;
            }
            stats.visits += 1;

            // Patterns first, best benefit wins; then integrated DCE.
            let mut fired = false;
            if !config.fuel.is_exhausted() {
                for pattern in patterns.iter() {
                    if !pattern.matches_root_kind(&index.op(func, slot).kind) {
                        debug_assert!(
                            !pattern.match_and_rewrite(&mut Rewriter::new(func, index, slot)),
                            "pattern '{}' matched an op its root predicate rejects",
                            pattern.name()
                        );
                        continue;
                    }
                    let mut rw = Rewriter::new(func, index, slot);
                    if pattern.match_and_rewrite(&mut rw) {
                        debug_assert!(
                            rw.has_mutations(),
                            "pattern '{}' reported a match without queuing edits",
                            pattern.name()
                        );
                        if !config.fuel.consume() {
                            break;
                        }
                        let log = rw.into_log();
                        if config.trace {
                            let (block_no, live_idx) = index.live_location(slot);
                            let line = format!(
                                "{} @ {}:{}:{}",
                                pattern.name(),
                                func_name,
                                block_no,
                                live_idx
                            );
                            eprintln!("[rewrite] {line}");
                            stats.trace.push(line);
                        }
                        let bid = index.slots[slot].block;
                        let change = apply_mutations(func, bid, log, index);
                        #[cfg(test)]
                        index.assert_consistent(func);
                        *stats.fired.entry(pattern.name()).or_default() += 1;
                        stats.fires += 1;
                        fires += 1;
                        assert!(
                            stats.fires <= config.max_fires,
                            "rewrite driver did not reach a fixpoint after {} firings \
                             (cyclic pattern set?)",
                            config.max_fires
                        );
                        if in_list.len() < index.slots.len() {
                            in_list.resize(index.slots.len(), false);
                        }
                        for &s in &change.created {
                            if !in_list[s] {
                                in_list[s] = true;
                                worklist.push(s);
                            }
                        }
                        enqueue_neighborhood(
                            func,
                            index,
                            &change.touched,
                            worklist,
                            in_list,
                            neighborhood,
                        );
                        fired = true;
                        break;
                    }
                    debug_assert!(
                        !rw.has_mutations(),
                        "pattern '{}' queued edits but reported no match",
                        pattern.name()
                    );
                }
            }
            if fired {
                continue;
            }

            // Integrated DCE: a pure classical op whose results are all
            // unused. (Quantum/linear ops are never dead: an unused linear
            // result is a verifier error, not dead code.)
            let op = index.op(func, slot);
            if op.kind.is_pure_classical()
                && !op.results.is_empty()
                && op.results.iter().all(|r| index.use_count(*r) == 0)
            {
                let SlotData { block, pos, .. } = index.slots[slot];
                let change =
                    apply_mutations(func, block, vec![Mutation::Erase { idx: pos }], index);
                #[cfg(test)]
                index.assert_consistent(func);
                stats.dce_erased += 1;
                enqueue_neighborhood(func, index, &change.touched, worklist, in_list, neighborhood);
            }
        }
        // The entry block (block 0) is the one block holding dead entries.
        index.compact(&mut func.body, 0);
        fires
    }
}

/// Reusable dense marker buffers for the neighborhood walk: epoch-stamped
/// vectors instead of per-firing hash sets.
#[derive(Default)]
struct NeighborhoodScratch {
    epoch: u32,
    slot_mark: Vec<u32>,
    value_mark: Vec<u32>,
    frontier: Vec<Value>,
    next: Vec<Value>,
}

/// How many def-use hops around a change are requeued in each direction.
/// Must be at least the deepest lookaround of any registered pattern (see
/// [`RewritePattern`]); the stock patterns look at most 3 hops, e.g. the
/// Fig. 10 relaxed peephole's `qalloc; x; h` prologue.
const NEIGHBORHOOD_RADIUS: usize = 3;

/// Which def-use edges a requeue walk follows.
#[derive(Clone, Copy)]
enum Direction {
    /// From a value to its users, then to their results.
    Forward,
    /// From a value to its def, then to that def's operands.
    Backward,
}

/// Requeues every op within [`NEIGHBORHOOD_RADIUS`] hops of a touched
/// value along a use-chain (forward) or a def-chain (backward): exactly
/// the ops whose pattern lookaround can observe the change.
fn enqueue_neighborhood(
    func: &Func,
    index: &FuncIndex,
    touched: &[Value],
    worklist: &mut Vec<SlotId>,
    in_list: &mut Vec<bool>,
    scratch: &mut NeighborhoodScratch,
) {
    if scratch.slot_mark.len() < index.slots.len() {
        scratch.slot_mark.resize(index.slots.len(), 0);
    }
    if scratch.value_mark.len() < index.values.len() {
        scratch.value_mark.resize(index.values.len(), 0);
    }
    if in_list.len() < index.slots.len() {
        in_list.resize(index.slots.len(), false);
    }
    for direction in [Direction::Forward, Direction::Backward] {
        scratch.walk(func, index, touched, direction, worklist, in_list);
    }
}

impl NeighborhoodScratch {
    /// One breadth-first walk from `touched` in `direction`.
    fn walk(
        &mut self,
        func: &Func,
        index: &FuncIndex,
        touched: &[Value],
        direction: Direction,
        worklist: &mut Vec<SlotId>,
        in_list: &mut [bool],
    ) {
        self.epoch += 1;
        self.frontier.clear();
        for &v in touched {
            if self.mark(v) {
                self.frontier.push(v);
            }
        }
        for depth in 0..NEIGHBORHOOD_RADIUS {
            self.next.clear();
            let onward = depth + 1 < NEIGHBORHOOD_RADIUS;
            for i in 0..self.frontier.len() {
                let v = self.frontier[i];
                match direction {
                    Direction::Forward => {
                        for s in index.users(v) {
                            self.reach(func, index, s, direction, onward, worklist, in_list);
                        }
                    }
                    Direction::Backward => {
                        if let Some(s) = index.def_slot(v) {
                            self.reach(func, index, s, direction, onward, worklist, in_list);
                        }
                    }
                }
            }
            if self.next.is_empty() {
                break;
            }
            std::mem::swap(&mut self.frontier, &mut self.next);
        }
    }

    /// Requeues the op in slot `s` once per walk and, when the walk goes
    /// `onward`, queues its results (forward) or operands (backward) for
    /// the next hop.
    #[allow(clippy::too_many_arguments)]
    fn reach(
        &mut self,
        func: &Func,
        index: &FuncIndex,
        s: SlotId,
        direction: Direction,
        onward: bool,
        worklist: &mut Vec<SlotId>,
        in_list: &mut [bool],
    ) {
        if !index.slots[s].live || self.slot_mark[s] == self.epoch {
            return;
        }
        self.slot_mark[s] = self.epoch;
        if !in_list[s] {
            in_list[s] = true;
            worklist.push(s);
        }
        if onward {
            let op = index.op(func, s);
            let values = match direction {
                Direction::Forward => &op.results,
                Direction::Backward => &op.operands,
            };
            for &w in values {
                if self.mark(w) {
                    self.next.push(w);
                }
            }
        }
    }

    /// Marks `v` as seen by this walk; returns whether it was unseen.
    fn mark(&mut self, v: Value) -> bool {
        match self.value_mark.get_mut(v.index()) {
            Some(mark) if *mark != self.epoch => {
                *mark = self.epoch;
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockPath;
    use crate::func::{FuncBuilder, Visibility};
    use crate::gate::GateKind;
    use crate::types::{FuncType, Type};

    /// A toy pattern: folds `fadd(const a, const b)` into a constant.
    struct FoldFAdd;

    impl RewritePattern for FoldFAdd {
        fn name(&self) -> &'static str {
            "fold-fadd"
        }

        fn match_and_rewrite(&self, rw: &mut Rewriter<'_>) -> bool {
            let op = rw.op();
            if !matches!(op.kind, OpKind::FAdd) {
                return false;
            }
            let (lhs, rhs, result) = (op.operands[0], op.operands[1], op.results[0]);
            let constant = |rw: &Rewriter<'_>, v: Value| -> Option<f64> {
                let (idx, _) = rw.find_def(v)?;
                match rw.block().ops[idx].kind {
                    OpKind::ConstF64 { value } => Some(value),
                    _ => None,
                }
            };
            let (Some(a), Some(b)) = (constant(rw, lhs), constant(rw, rhs)) else {
                return false;
            };
            rw.replace_root(Op::new(OpKind::ConstF64 { value: a + b }, vec![], vec![result]));
            true
        }
    }

    fn fadd_module() -> Module {
        let mut b = FuncBuilder::new(
            "f",
            FuncType::new(vec![], vec![Type::F64], false),
            Visibility::Public,
        );
        let mut bb = b.block();
        let a = bb.push(OpKind::ConstF64 { value: 1.5 }, vec![], vec![Type::F64]);
        let c = bb.push(OpKind::ConstF64 { value: 2.5 }, vec![], vec![Type::F64]);
        let sum = bb.push(OpKind::FAdd, vec![a[0], c[0]], vec![Type::F64]);
        bb.push(OpKind::Return, vec![sum[0]], vec![]);
        let mut module = Module::new();
        module.add_func(b.finish());
        module
    }

    #[test]
    fn worklist_folds_and_dces() {
        let mut module = fadd_module();
        let mut driver = GreedyRewriteDriver::new();
        driver.add_pattern(Box::new(FoldFAdd));
        let fired = driver.run(&mut module);
        assert_eq!(fired, 1);
        assert_eq!(driver.stats.fired.get("fold-fadd"), Some(&1));
        assert_eq!(driver.stats.dce_erased, 2, "both source constants died");

        let func = module.func("f").unwrap();
        assert_eq!(func.body.ops.len(), 2);
        assert!(
            matches!(func.body.ops[0].kind, OpKind::ConstF64 { value } if (value - 4.0).abs() < 1e-12)
        );
        crate::verify::verify_module(&module).unwrap();
    }

    /// Asserts `module` is a normal form of `patterns`: a second driver
    /// run fires nothing, erases nothing, and leaves the printed module
    /// unchanged. An opportunity the first run failed to requeue would
    /// still be there for the second run to find.
    fn assert_fixpoint(module: &mut Module, patterns: PatternSet) {
        let before = module.to_string();
        let mut driver = GreedyRewriteDriver::from_patterns(patterns);
        assert_eq!(driver.run(module), 0, "a second run fired:\n{before}");
        assert_eq!(driver.stats.dce_erased, 0, "a second run erased ops:\n{before}");
        assert_eq!(module.to_string(), before);
    }

    #[test]
    fn worklist_result_is_a_fixpoint() {
        let mut module = fadd_module();
        let mut driver = GreedyRewriteDriver::new();
        driver.add_pattern(Box::new(FoldFAdd));
        assert_eq!(driver.run(&mut module), 1);
        let mut patterns = PatternSet::new();
        patterns.add(Box::new(FoldFAdd));
        assert_fixpoint(&mut module, patterns);
    }

    /// Runs `f` on a rewriter rooted at op `root_idx` of the block at
    /// `path`, indexed the way the driver indexes a function.
    fn with_rewriter<R>(
        func: &mut Func,
        path: &BlockPath,
        root_idx: usize,
        f: impl FnOnce(&Rewriter<'_>) -> R,
    ) -> R {
        let index = FuncIndex::build(func);
        let root = index.blocks[block_id_at(&index, path)].slots[root_idx];
        f(&Rewriter::new(func, &index, root))
    }

    /// The index's id for the block at `path`.
    fn block_id_at(index: &FuncIndex, path: &BlockPath) -> BlockId {
        let mut current: BlockId = 0;
        for &(op_idx, ri, bi) in path {
            let slot = index.blocks[current].slots[op_idx];
            current = index.slots[slot]
                .children
                .iter()
                .find(|((r, b), _)| *r == ri && *b == bi)
                .expect("indexed child block")
                .1;
        }
        current
    }

    #[test]
    fn def_lookup_edge_cases() {
        let mut b = FuncBuilder::new(
            "d",
            FuncType::new(vec![Type::I1, Type::F64, Type::Qubit, Type::Qubit], vec![], false),
            Visibility::Public,
        );
        let (cond, x, q0, q1) = (b.args()[0], b.args()[1], b.args()[2], b.args()[3]);
        let mut bb = b.block();
        let a = bb.push(OpKind::ConstF64 { value: 1.0 }, vec![], vec![Type::F64])[0];
        let s = bb.push(OpKind::FAdd, vec![a, x], vec![Type::F64])[0];
        let cx = bb.push(
            OpKind::Gate { gate: GateKind::X, num_controls: 1 },
            vec![q0, q1],
            vec![Type::Qubit, Type::Qubit],
        );
        let then_block = bb.subblock(vec![], |sb| {
            let t = sb.push(OpKind::FAdd, vec![a, s], vec![Type::F64]);
            sb.push(OpKind::Yield, vec![t[0]], vec![]);
        });
        let else_block = bb.subblock(vec![], |sb| {
            sb.push(OpKind::Yield, vec![s], vec![]);
        });
        let r = bb.push_with_regions(
            OpKind::ScfIf,
            vec![cond],
            vec![Type::F64],
            vec![
                crate::block::Region::single(then_block),
                crate::block::Region::single(else_block),
            ],
        )[0];
        let late = bb.push(OpKind::FAdd, vec![r, s], vec![Type::F64])[0];
        bb.push(OpKind::Return, vec![late, cx[0], cx[1]], vec![]);
        let mut func = b.finish();

        // Rooted at `late` (entry block, op 4).
        with_rewriter(&mut func, &vec![], 4, |rw| {
            assert_eq!(rw.find_def(x), None, "block argument");
            assert_eq!(rw.find_def(cx[1]), Some((2, 1)), "second result of the cx");
            assert_eq!(rw.find_def(late), None, "defined by the root itself");
            // Second hop: the def of an operand of an earlier op.
            let (s_idx, _) = rw.find_def(s).expect("s is defined before the root");
            assert_eq!(s_idx, 1);
            let hop = rw.block().ops[s_idx].operands[0];
            assert_eq!(rw.find_def(hop), Some((0, 0)));
        });
        // Rooted inside the scf.if's then-region: defs in the enclosing
        // block are not in the root's block.
        with_rewriter(&mut func, &vec![(3, 0, 0)], 0, |rw| {
            assert_eq!(rw.find_def(a), None);
            assert_eq!(rw.find_def(s), None);
        });
    }

    #[test]
    fn single_user_edge_cases() {
        let mut b = FuncBuilder::new(
            "u",
            FuncType::new(vec![Type::I1, Type::F64], vec![Type::F64], false),
            Visibility::Public,
        );
        let (cond, x) = (b.args()[0], b.args()[1]);
        let mut bb = b.block();
        let a = bb.push(OpKind::ConstF64 { value: 1.0 }, vec![], vec![Type::F64])[0];
        let twice = bb.push(OpKind::FAdd, vec![a, a], vec![Type::F64])[0];
        let n = bb.push(OpKind::ConstF64 { value: 2.0 }, vec![], vec![Type::F64])[0];
        let s = bb.push(OpKind::FAdd, vec![twice, x], vec![Type::F64])[0];
        let then_block = bb.subblock(vec![], |sb| {
            sb.push(OpKind::Yield, vec![n], vec![]);
        });
        let else_block = bb.subblock(vec![], |sb| {
            sb.push(OpKind::Yield, vec![s], vec![]);
        });
        let r = bb.push_with_regions(
            OpKind::ScfIf,
            vec![cond],
            vec![Type::F64],
            vec![
                crate::block::Region::single(then_block),
                crate::block::Region::single(else_block),
            ],
        )[0];
        let late = bb.push(OpKind::FAdd, vec![r, x], vec![Type::F64])[0];
        bb.push(OpKind::Return, vec![late], vec![]);
        let mut func = b.finish();

        // Rooted at the first op of the entry block.
        with_rewriter(&mut func, &vec![], 0, |rw| {
            assert_eq!(rw.single_user(twice), Some(3));
            assert_eq!(rw.single_user(r), Some(5));
            assert_eq!(rw.single_user(late), Some(6));
            assert_eq!(rw.single_user(a), None, "two uses by one op");
            assert_eq!(rw.single_user(x), None, "two users");
            assert_eq!(rw.single_user(n), None, "the one use is inside a nested region");
            assert_eq!(rw.single_user(s), None, "the one use is inside a nested region");
        });
        // Rooted inside the then-region: `n`'s yield is now in the root's
        // block, and `twice`'s user in the enclosing block is not.
        with_rewriter(&mut func, &vec![(4, 0, 0)], 0, |rw| {
            assert_eq!(rw.single_user(n), Some(0));
            assert_eq!(rw.single_user(twice), None);
        });
    }

    #[test]
    fn worklist_rewrites_inside_nested_regions() {
        let mut b = FuncBuilder::new(
            "g",
            FuncType::new(vec![Type::I1], vec![Type::F64], false),
            Visibility::Public,
        );
        let cond = b.args()[0];
        let mut bb = b.block();
        let then_block = bb.subblock(vec![], |sb| {
            let a = sb.push(OpKind::ConstF64 { value: 1.0 }, vec![], vec![Type::F64]);
            let c = sb.push(OpKind::ConstF64 { value: 2.0 }, vec![], vec![Type::F64]);
            let s = sb.push(OpKind::FAdd, vec![a[0], c[0]], vec![Type::F64]);
            sb.push(OpKind::Yield, vec![s[0]], vec![]);
        });
        let else_block = bb.subblock(vec![], |sb| {
            let a = sb.push(OpKind::ConstF64 { value: 3.0 }, vec![], vec![Type::F64]);
            sb.push(OpKind::Yield, vec![a[0]], vec![]);
        });
        let result = bb.push_with_regions(
            OpKind::ScfIf,
            vec![cond],
            vec![Type::F64],
            vec![
                crate::block::Region::single(then_block),
                crate::block::Region::single(else_block),
            ],
        );
        bb.push(OpKind::Return, vec![result[0]], vec![]);
        let mut module = Module::new();
        module.add_func(b.finish());

        let mut driver = GreedyRewriteDriver::new();
        driver.add_pattern(Box::new(FoldFAdd));
        assert_eq!(driver.run(&mut module), 1, "the nested fadd folds");
        crate::verify::verify_module(&module).unwrap();
        let func = module.func("g").unwrap();
        let then = &func.body.ops[0].regions[0].blocks[0];
        assert_eq!(then.ops.len(), 2, "folded const + yield:\n{func}");
    }

    /// Erases `fneg(fneg(x))` (the inner `fneg` single-use) and rewires
    /// its users to `x`: two erasures per firing.
    struct FoldDoubleFNeg;

    impl RewritePattern for FoldDoubleFNeg {
        fn name(&self) -> &'static str {
            "fold-double-fneg"
        }

        fn match_and_rewrite(&self, rw: &mut Rewriter<'_>) -> bool {
            let op = rw.op();
            if !matches!(op.kind, OpKind::FNeg) {
                return false;
            }
            let (inner, result) = (op.operands[0], op.results[0]);
            let Some((inner_idx, _)) = rw.find_def(inner) else { return false };
            let inner_op = &rw.block().ops[inner_idx];
            if !matches!(inner_op.kind, OpKind::FNeg) || rw.use_count(inner) != 1 {
                return false;
            }
            let original = inner_op.operands[0];
            rw.erase_op(inner_idx);
            rw.erase_root();
            rw.replace_all_uses(result, original);
            true
        }
    }

    /// `chains` rounds of `n = fneg(fneg(acc)); acc = fmul(n, x)` from
    /// `acc = x`; returns the final `acc`.
    fn push_fneg_chains(bb: &mut crate::func::BlockBuilder<'_>, x: Value, chains: usize) -> Value {
        let mut acc = x;
        for _ in 0..chains {
            let n1 = bb.push(OpKind::FNeg, vec![acc], vec![Type::F64])[0];
            let n2 = bb.push(OpKind::FNeg, vec![n1], vec![Type::F64])[0];
            acc = bb.push(OpKind::FMul, vec![n2, x], vec![Type::F64])[0];
        }
        acc
    }

    /// Checks that `ops` are `chains` fmuls threading `acc` from `x`,
    /// followed by `tail` other ops.
    fn assert_fmul_chain(ops: &[Op], x: Value, chains: usize, tail: usize) {
        assert_eq!(ops.len(), chains + tail, "{ops:?}");
        let mut acc = x;
        for op in &ops[..chains] {
            assert_eq!((&op.kind, op.operands.as_slice()), (&OpKind::FMul, [acc, x].as_slice()));
            acc = op.results[0];
        }
    }

    /// Never fires; records how many ops the then-region of the `scf.if`
    /// feeding an `fadd` holds when a pattern reads it.
    struct RegionProbe(std::rc::Rc<std::cell::Cell<Option<usize>>>);

    impl RewritePattern for RegionProbe {
        fn name(&self) -> &'static str {
            "region-probe"
        }

        fn match_and_rewrite(&self, rw: &mut Rewriter<'_>) -> bool {
            let op = rw.op();
            if matches!(op.kind, OpKind::FAdd) {
                if let Some((if_idx, _)) = rw.find_def(op.operands[1]) {
                    let if_op = &rw.block().ops[if_idx];
                    self.0.set(Some(if_op.regions[0].blocks[0].ops.len()));
                }
            }
            false
        }
    }

    #[test]
    fn erasures_at_top_level_and_in_regions_leave_no_dead_entries() {
        let (top, nested) = (40, 30);
        let mut b = FuncBuilder::new(
            "e",
            FuncType::new(vec![Type::I1, Type::F64], vec![Type::F64], false),
            Visibility::Public,
        );
        let (cond, x) = (b.args()[0], b.args()[1]);
        let mut bb = b.block();
        let acc = push_fneg_chains(&mut bb, x, top);
        let then_block = bb.subblock(vec![], |sb| {
            let inner = push_fneg_chains(sb, x, nested);
            sb.push(OpKind::Yield, vec![inner], vec![]);
        });
        let else_block = bb.subblock(vec![], |sb| {
            sb.push(OpKind::Yield, vec![x], vec![]);
        });
        let r = bb.push_with_regions(
            OpKind::ScfIf,
            vec![cond],
            vec![Type::F64],
            vec![
                crate::block::Region::single(then_block),
                crate::block::Region::single(else_block),
            ],
        )[0];
        let sum = bb.push(OpKind::FAdd, vec![acc, r], vec![Type::F64]);
        bb.push(OpKind::Return, sum, vec![]);
        let mut module = Module::new();
        module.add_func(b.finish());

        let config = RewriteConfig::default().with_trace(true);
        let probe = std::rc::Rc::new(std::cell::Cell::new(None));
        let mut set = PatternSet::new();
        set.add(Box::new(FoldDoubleFNeg));
        set.add(Box::new(RegionProbe(probe.clone())));
        let mut driver = GreedyRewriteDriver::with_config(set, config);
        assert_eq!(driver.run(&mut module), top + nested);
        crate::verify::verify_module(&module).unwrap();
        // Mid-run, after its erasures, the region already held only live
        // ops: a pattern copying the `scf.if` would copy no dead entry.
        assert_eq!(probe.get(), Some(nested + 1));

        // Survivors keep their order and no dead entry remains, at the top
        // level and inside the region.
        let func = module.func("e").unwrap();
        assert_fmul_chain(&func.body.ops, x, top, 3);
        assert!(matches!(func.body.ops[top].kind, OpKind::ScfIf));
        assert_fmul_chain(&func.body.ops[top].regions[0].blocks[0].ops, x, nested, 1);

        // Trace positions count live ops only: the k-th firing sits after
        // the k fmuls the earlier firings left.
        let expected: Vec<String> = (0..top)
            .map(|k| format!("fold-double-fneg @ e:0:{}", k + 1))
            .chain((0..nested).map(|k| format!("fold-double-fneg @ e:1:{}", k + 1)))
            .collect();
        assert_eq!(driver.stats.trace, expected);

        let mut patterns = PatternSet::new();
        patterns.add(Box::new(FoldDoubleFNeg));
        assert_fixpoint(&mut module, patterns);
    }

    /// Rewrites that cascade: P-gate-style chained folds where each fold
    /// creates the next opportunity (here: repeated fadd folding over a
    /// left-leaning sum tree).
    #[test]
    fn cascaded_opportunities_converge() {
        let mut b = FuncBuilder::new(
            "h",
            FuncType::new(vec![], vec![Type::F64], false),
            Visibility::Public,
        );
        let mut bb = b.block();
        let mut acc = bb.push(OpKind::ConstF64 { value: 1.0 }, vec![], vec![Type::F64])[0];
        for i in 0..10 {
            let c = bb.push(OpKind::ConstF64 { value: i as f64 }, vec![], vec![Type::F64]);
            acc = bb.push(OpKind::FAdd, vec![acc, c[0]], vec![Type::F64])[0];
        }
        bb.push(OpKind::Return, vec![acc], vec![]);
        let mut module = Module::new();
        module.add_func(b.finish());

        let mut driver = GreedyRewriteDriver::new();
        driver.add_pattern(Box::new(FoldFAdd));
        assert_eq!(driver.run(&mut module), 10, "every fold enables the next");
        let func = module.func("h").unwrap();
        assert_eq!(func.body.ops.len(), 2, "one constant + return:\n{func}");
        assert!(
            matches!(func.body.ops[0].kind, OpKind::ConstF64 { value } if (value - 46.0).abs() < 1e-9)
        );
    }

    /// Two patterns that undo each other: the driver must hit its firing
    /// bound instead of spinning forever.
    struct FlipConst {
        from: f64,
        to: f64,
        label: &'static str,
    }

    impl RewritePattern for FlipConst {
        fn name(&self) -> &'static str {
            self.label
        }

        fn match_and_rewrite(&self, rw: &mut Rewriter<'_>) -> bool {
            let op = rw.op();
            let OpKind::ConstF64 { value } = op.kind else { return false };
            if (value - self.from).abs() > 1e-9 {
                return false;
            }
            let result = op.results[0];
            rw.replace_root(Op::new(OpKind::ConstF64 { value: self.to }, vec![], vec![result]));
            true
        }
    }

    #[test]
    #[should_panic(expected = "did not reach a fixpoint")]
    fn cyclic_pattern_pair_hits_the_firing_bound() {
        let mut module = fadd_module();
        let config = RewriteConfig::default().with_max_fires(64);
        let mut set = PatternSet::new();
        set.add(Box::new(FlipConst { from: 1.5, to: 9.0, label: "flip-up" }));
        set.add(Box::new(FlipConst { from: 9.0, to: 1.5, label: "flip-down" }));
        let mut driver = GreedyRewriteDriver::with_config(set, config);
        driver.run(&mut module);
    }

    #[test]
    fn fuel_cuts_off_firings_deterministically() {
        let run_with_fuel = |limit: u64| -> (usize, String) {
            let mut module = fadd_module();
            let config = RewriteConfig::default().with_fuel(Fuel::limited(limit));
            let mut set = PatternSet::new();
            set.add(Box::new(FoldFAdd));
            let mut driver = GreedyRewriteDriver::with_config(set, config);
            let fired = driver.run(&mut module);
            (fired, module.to_string())
        };
        let (f0, m0) = run_with_fuel(0);
        assert_eq!(f0, 0, "no firings with zero fuel");
        let (f1, m1) = run_with_fuel(1);
        assert_eq!(f1, 1);
        // Determinism: the same fuel gives the same module, twice.
        assert_eq!(m0, run_with_fuel(0).1);
        assert_eq!(m1, run_with_fuel(1).1);
        assert_ne!(m0, m1);
    }

    #[test]
    fn fuel_is_shared_across_clones() {
        let fuel = Fuel::limited(3);
        let clone = fuel.clone();
        assert!(fuel.consume());
        assert!(clone.consume());
        assert!(fuel.consume());
        assert!(!clone.consume(), "budget is shared, not per-clone");
        assert!(fuel.is_exhausted());
        assert_eq!(fuel.remaining(), Some(0));
        assert_eq!(Fuel::unlimited().remaining(), None);
    }

    #[test]
    fn higher_benefit_pattern_fires_first() {
        struct TaggedFold {
            label: &'static str,
            benefit: usize,
        }
        impl RewritePattern for TaggedFold {
            fn name(&self) -> &'static str {
                self.label
            }
            fn benefit(&self) -> usize {
                self.benefit
            }
            fn match_and_rewrite(&self, rw: &mut Rewriter<'_>) -> bool {
                let op = rw.op();
                if !matches!(op.kind, OpKind::FAdd) {
                    return false;
                }
                let (operands, result) = (op.operands.clone(), op.results[0]);
                rw.replace_root(Op::new(OpKind::FMul, operands, vec![result]));
                true
            }
        }
        let mut module = fadd_module();
        let mut driver = GreedyRewriteDriver::new();
        driver.add_pattern(Box::new(TaggedFold { label: "low", benefit: 1 }));
        driver.add_pattern(Box::new(TaggedFold { label: "high", benefit: 5 }));
        driver.run(&mut module);
        assert_eq!(driver.stats.fired.get("high"), Some(&1));
        assert_eq!(driver.stats.fired.get("low"), None);
    }

    #[test]
    fn trace_records_firing_locations() {
        let mut module = fadd_module();
        let config = RewriteConfig::default().with_trace(true);
        let mut set = PatternSet::new();
        set.add(Box::new(FoldFAdd));
        let mut driver = GreedyRewriteDriver::with_config(set, config);
        driver.run(&mut module);
        assert_eq!(driver.stats.trace.len(), 1);
        assert_eq!(driver.stats.trace[0], "fold-fadd @ f:0:2");
    }

    /// Replaces `fsub` with an `scf.if` whose regions contain freshly
    /// created, foldable `fadd(const, const)` ops — the worklist must
    /// requeue ops created *inside the regions* of a replacement op.
    struct WrapInIf;

    impl RewritePattern for WrapInIf {
        fn name(&self) -> &'static str {
            "wrap-in-if"
        }

        fn benefit(&self) -> usize {
            5
        }

        fn match_and_rewrite(&self, rw: &mut Rewriter<'_>) -> bool {
            let op = rw.op();
            if !matches!(op.kind, OpKind::FSub) {
                return false;
            }
            let result = op.results[0];
            let cond = rw.func().body.args[0];
            let mut regions = Vec::new();
            for base in [2.0, 3.0] {
                let (a, b, s) =
                    (rw.new_value(Type::F64), rw.new_value(Type::F64), rw.new_value(Type::F64));
                let block = crate::block::Block {
                    args: vec![],
                    ops: vec![
                        Op::new(OpKind::ConstF64 { value: base }, vec![], vec![a]),
                        Op::new(OpKind::ConstF64 { value: base + 1.0 }, vec![], vec![b]),
                        Op::new(OpKind::FAdd, vec![a, b], vec![s]),
                        Op::new(OpKind::Yield, vec![s], vec![]),
                    ],
                };
                regions.push(crate::block::Region::single(block));
            }
            rw.replace_root(Op::with_regions(OpKind::ScfIf, vec![cond], vec![result], regions));
            true
        }
    }

    #[test]
    fn ops_created_inside_replacement_regions_are_requeued() {
        let build = || {
            let mut b = FuncBuilder::new(
                "w",
                FuncType::new(vec![Type::I1], vec![Type::F64], false),
                Visibility::Public,
            );
            let mut bb = b.block();
            let c = bb.push(OpKind::ConstF64 { value: 1.0 }, vec![], vec![Type::F64]);
            let m = bb.push(OpKind::FSub, vec![c[0], c[0]], vec![Type::F64]);
            bb.push(OpKind::Return, vec![m[0]], vec![]);
            let mut module = Module::new();
            module.add_func(b.finish());
            module
        };
        let drive = |module: &mut Module| -> (usize, String) {
            let mut driver = GreedyRewriteDriver::new();
            driver.add_pattern(Box::new(WrapInIf));
            driver.add_pattern(Box::new(FoldFAdd));
            let fires = driver.run(module);
            (fires, module.to_string())
        };
        let mut module = build();
        let (fires, printed) = drive(&mut module);
        assert_eq!(fires, 3, "one wrap + two nested folds in a single run:\n{printed}");
        crate::verify::verify_module(&module).unwrap();

        // And nothing was left unvisited for a second run to find.
        let mut patterns = PatternSet::new();
        patterns.add(Box::new(WrapInIf));
        patterns.add(Box::new(FoldFAdd));
        assert_fixpoint(&mut module, patterns);
    }

    /// Cancels `g(g(x))` for a single-use, self-inverse, uncontrolled `H`
    /// or `X` — a stand-in for the peephole patterns, which live
    /// downstream.
    struct CancelSelfInverse;

    impl RewritePattern for CancelSelfInverse {
        fn name(&self) -> &'static str {
            "cancel-self-inverse"
        }

        fn match_and_rewrite(&self, rw: &mut Rewriter<'_>) -> bool {
            let op2 = rw.op();
            let OpKind::Gate { gate: GateKind::H | GateKind::X, num_controls: 0 } = op2.kind else {
                return false;
            };
            let Some((idx1, 0)) = rw.find_def(op2.operands[0]) else { return false };
            let op1 = &rw.block().ops[idx1];
            if op1.kind != op2.kind || rw.use_count(op2.operands[0]) != 1 {
                return false;
            }
            let (input, output) = (op1.operands[0], op2.results[0]);
            rw.erase_op(idx1);
            rw.erase_root();
            rw.replace_all_uses(output, input);
            true
        }
    }

    /// The shape wide programs lower to: a `wires`-wide `qbunpack`, an
    /// `H X X H` chain per wire (interleaved round-robin), and a `qbpack`.
    fn bundle_module(wires: usize) -> Module {
        let ty = FuncType::rev_qbundle(wires);
        let mut b = FuncBuilder::new("bundle", ty, Visibility::Public);
        let arg = b.args()[0];
        let mut bb = b.block();
        let mut heads = bb.push(OpKind::QbUnpack, vec![arg], vec![Type::Qubit; wires]);
        for gate in [GateKind::H, GateKind::X, GateKind::X, GateKind::H] {
            for head in &mut heads {
                let kind = OpKind::Gate { gate, num_controls: 0 };
                *head = bb.push(kind, vec![*head], vec![Type::Qubit])[0];
            }
        }
        let packed = bb.push(OpKind::QbPack, heads, vec![Type::QBundle(wires)]);
        bb.push(OpKind::Return, packed, vec![]);
        let mut module = Module::new();
        module.add_func(b.finish());
        module
    }

    #[test]
    fn requeue_work_stays_linear_on_a_wide_bundle() {
        let wires = 256;
        let mut module = bundle_module(wires);
        let ops = 4 * wires + 3;
        let mut driver = GreedyRewriteDriver::new();
        driver.add_pattern(Box::new(CancelSelfInverse));
        assert_eq!(driver.run(&mut module), 2 * wires, "both pairs cancel on every wire");
        crate::verify::verify_module(&module).unwrap();
        assert_eq!(module.func("bundle").unwrap().body.ops.len(), 3, "unpack, pack, return");
        // A walk that hops from one wire through the unpack or the pack to
        // every other wire would requeue O(wires) ops per firing.
        let work = ops + driver.stats.fires;
        assert!(
            driver.stats.visits <= 2 * work,
            "{} visits for {ops} ops and {} firings",
            driver.stats.visits,
            driver.stats.fires
        );
    }

    #[test]
    fn dce_keeps_used_and_quantum_ops() {
        let mut b = FuncBuilder::new(
            "g",
            FuncType::new(vec![], vec![Type::Qubit], false),
            Visibility::Public,
        );
        let mut bb = b.block();
        let _unused = bb.push(OpKind::ConstF64 { value: 0.0 }, vec![], vec![Type::F64]);
        let q = bb.push(OpKind::QAlloc, vec![], vec![Type::Qubit]);
        bb.push(OpKind::Return, vec![q[0]], vec![]);
        let mut module = Module::new();
        module.add_func(b.finish());
        let mut driver = GreedyRewriteDriver::new();
        assert_eq!(driver.run(&mut module), 0);
        assert_eq!(driver.stats.dce_erased, 1);
        assert_eq!(module.func("g").unwrap().body.ops.len(), 2, "qalloc and return survive");
    }

    // ----- the use lists, mutation by mutation -----

    /// Applies `log` with the root block at `path`, then checks the index
    /// against a fresh one.
    fn apply(func: &mut Func, index: &mut FuncIndex, path: &BlockPath, log: Vec<Mutation>) {
        let bid = block_id_at(index, path);
        apply_mutations(func, bid, log, index);
        index.assert_consistent(func);
    }

    /// The users of `v` in use-list order, as (block id, position).
    fn users_at(index: &FuncIndex, v: Value) -> Vec<(BlockId, usize)> {
        index.users(v).map(|s| (index.slots[s].block, index.slots[s].pos)).collect()
    }

    fn f64_func(name: &str, params: usize) -> FuncBuilder {
        let ty = FuncType::new(vec![Type::F64; params], vec![Type::F64], false);
        FuncBuilder::new(name, ty, Visibility::Public)
    }

    #[test]
    fn use_lists_start_in_program_order() {
        let mut b = f64_func("p", 1);
        let x = b.args()[0];
        let mut bb = b.block();
        let s = bb.push(OpKind::FAdd, vec![x, x], vec![Type::F64])[0];
        let t = bb.push(OpKind::FMul, vec![s, x], vec![Type::F64])[0];
        bb.push(OpKind::Return, vec![t], vec![]);
        let func = b.finish();
        let index = FuncIndex::build(&func);
        index.assert_consistent(&func);
        assert_eq!(users_at(&index, x), [(0, 0), (0, 0), (0, 1)]);
        assert_eq!(index.use_count(x), 3);
        assert_eq!(index.def_slot(x), None, "a block argument");
        assert_eq!(index.def_slot(t), Some(1));
    }

    #[test]
    fn rauw_of_a_value_one_op_uses_twice() {
        // a, b = const; s = fadd(a, a); t = fadd(b, s); return t
        let mut b = f64_func("twice", 0);
        let mut bb = b.block();
        let a = bb.push(OpKind::ConstF64 { value: 1.0 }, vec![], vec![Type::F64])[0];
        let c = bb.push(OpKind::ConstF64 { value: 2.0 }, vec![], vec![Type::F64])[0];
        let s = bb.push(OpKind::FAdd, vec![a, a], vec![Type::F64])[0];
        let t = bb.push(OpKind::FAdd, vec![c, s], vec![Type::F64])[0];
        bb.push(OpKind::Return, vec![t], vec![]);
        let mut func = b.finish();
        let mut index = FuncIndex::build(&func);
        apply(&mut func, &mut index, &vec![], vec![Mutation::Rauw { from: a, to: c }]);
        assert_eq!(func.body.ops[2].operands, [c, c]);
        assert_eq!(index.use_count(a), 0);
        // `c` already had a user; both moved uses join after it.
        assert_eq!(users_at(&index, c), [(0, 3), (0, 2), (0, 2)]);
    }

    #[test]
    fn rauw_appends_moved_uses_in_ascending_op_order() {
        // x is used by p (slot 2) and q (slot 3); after RAUW(c -> a) a's
        // list is [q, p, p], out of op order. RAUW(a -> x) must still
        // append p's two uses before q's, as the sorted slot list did.
        let mut b = f64_func("order", 1);
        let x = b.args()[0];
        let mut bb = b.block();
        let a = bb.push(OpKind::ConstF64 { value: 1.0 }, vec![], vec![Type::F64])[0];
        let c = bb.push(OpKind::ConstF64 { value: 2.0 }, vec![], vec![Type::F64])[0];
        let p = bb.push(OpKind::FAdd, vec![c, c], vec![Type::F64])[0];
        let q = bb.push(OpKind::FSub, vec![a, x], vec![Type::F64])[0];
        let r = bb.push(OpKind::FMul, vec![p, q], vec![Type::F64])[0];
        bb.push(OpKind::Return, vec![r], vec![]);
        let mut func = b.finish();
        let mut index = FuncIndex::build(&func);
        apply(&mut func, &mut index, &vec![], vec![Mutation::Rauw { from: c, to: a }]);
        assert_eq!(users_at(&index, a), [(0, 3), (0, 2), (0, 2)]);
        apply(&mut func, &mut index, &vec![], vec![Mutation::Rauw { from: a, to: x }]);
        assert_eq!(users_at(&index, x), [(0, 3), (0, 2), (0, 2), (0, 3)]);
        assert_eq!(func.body.ops[2].operands, [x, x]);
        assert_eq!(func.body.ops[3].operands, [x, x]);
    }

    #[test]
    fn erase_after_its_operand_was_rauwd() {
        // a, c = const; s = fadd(a, a) (unused); return c
        let mut b = f64_func("erase", 0);
        let mut bb = b.block();
        let a = bb.push(OpKind::ConstF64 { value: 1.0 }, vec![], vec![Type::F64])[0];
        let c = bb.push(OpKind::ConstF64 { value: 2.0 }, vec![], vec![Type::F64])[0];
        bb.push(OpKind::FAdd, vec![a, a], vec![Type::F64]);
        bb.push(OpKind::Return, vec![c], vec![]);
        let mut func = b.finish();
        let mut index = FuncIndex::build(&func);
        apply(&mut func, &mut index, &vec![], vec![Mutation::Rauw { from: a, to: c }]);
        assert_eq!(users_at(&index, c), [(0, 3), (0, 2), (0, 2)]);
        apply(&mut func, &mut index, &vec![], vec![Mutation::Erase { idx: 2 }]);
        assert_eq!(users_at(&index, c), [(0, 3)]);
        assert_eq!(index.use_count(a), 0);
    }

    /// `cond, x, y` params; `k = const`; an `scf.if` whose then-region
    /// computes `fadd(x, x)` and whose else-region yields `x`; `return`.
    fn if_func() -> (Func, [Value; 4]) {
        let ty = FuncType::new(vec![Type::I1, Type::F64, Type::F64], vec![Type::F64], false);
        let mut b = FuncBuilder::new("if", ty, Visibility::Public);
        let (cond, x, y) = (b.args()[0], b.args()[1], b.args()[2]);
        let mut bb = b.block();
        let k = bb.push(OpKind::ConstF64 { value: 1.0 }, vec![], vec![Type::F64])[0];
        let then_block = bb.subblock(vec![], |sb| {
            let d = sb.push(OpKind::FAdd, vec![x, x], vec![Type::F64]);
            sb.push(OpKind::Yield, d, vec![]);
        });
        let else_block = bb.subblock(vec![], |sb| {
            sb.push(OpKind::Yield, vec![x], vec![]);
        });
        let r = bb.push_with_regions(
            OpKind::ScfIf,
            vec![cond],
            vec![Type::F64],
            vec![
                crate::block::Region::single(then_block),
                crate::block::Region::single(else_block),
            ],
        )[0];
        let out = bb.push(OpKind::FMul, vec![r, x], vec![Type::F64])[0];
        bb.push(OpKind::Return, vec![out], vec![]);
        (b.finish(), [x, y, k, r])
    }

    #[test]
    fn rauw_inside_an_scf_if_region() {
        let (mut func, [x, y, ..]) = if_func();
        let mut index = FuncIndex::build(&func);
        let (then_bid, else_bid) =
            (block_id_at(&index, &vec![(1, 0, 0)]), block_id_at(&index, &vec![(1, 1, 0)]));
        assert_eq!(users_at(&index, x), [(then_bid, 0), (then_bid, 0), (else_bid, 0), (0, 2)]);
        apply(&mut func, &mut index, &vec![(1, 0, 0)], vec![Mutation::Rauw { from: x, to: y }]);
        let regions = &func.body.ops[1].regions;
        assert_eq!(regions[0].blocks[0].ops[0].operands, [y, y]);
        assert_eq!(regions[1].blocks[0].ops[0].operands, [y]);
        assert_eq!(func.body.ops[2].operands[1], y);
        assert_eq!(users_at(&index, y), [(then_bid, 0), (then_bid, 0), (else_bid, 0), (0, 2)]);
    }

    #[test]
    fn replacing_a_region_bearing_op() {
        let (mut func, [x, y, k, r]) = if_func();
        let mut index = FuncIndex::build(&func);
        let cond = func.body.args[0];
        let (t, e) = (func.new_value(Type::F64), func.new_value(Type::F64));
        let region =
            |ops: Vec<Op>| crate::block::Region::single(crate::block::Block { args: vec![], ops });
        let replacement = Op::with_regions(
            OpKind::ScfIf,
            vec![cond],
            vec![r],
            vec![
                region(vec![
                    Op::new(OpKind::FSub, vec![y, k], vec![t]),
                    Op::new(OpKind::Yield, vec![t], vec![]),
                ]),
                region(vec![
                    Op::new(OpKind::FNeg, vec![k], vec![e]),
                    Op::new(OpKind::Yield, vec![e], vec![]),
                ]),
            ],
        );
        let slots_before = index.slots.len();
        let bid = block_id_at(&index, &vec![]);
        let change = apply_mutations(
            &mut func,
            bid,
            vec![Mutation::Replace { idx: 1, op: replacement }],
            &mut index,
        );
        index.assert_consistent(&func);
        // The new op and the four ops of its regions are created.
        assert_eq!(change.created, (slots_before..slots_before + 5).collect::<Vec<_>>());
        assert_eq!(users_at(&index, x), [(0, 2)], "the old regions' uses are gone");
        assert_eq!(index.use_count(k), 2);
        assert_eq!(index.def_slot(t), Some(slots_before + 1));
        assert_eq!(index.def_slot(r), Some(slots_before));
    }

    #[test]
    fn env_fuel_limit_parses() {
        // Pure parse path (the env var itself is process-global, so the
        // test only checks the unset default).
        if std::env::var("ASDF_REWRITE_FUEL").is_err() {
            assert_eq!(RewriteConfig::env_fuel_limit(), None);
        }
    }
}
