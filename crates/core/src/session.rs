//! The session-based compiler API: a long-lived, **concurrent** compilation
//! context with a shared frontend, sharded content-addressed caches,
//! request coalescing, and registry-based emission.
//!
//! [`Session::new`] parses the program once; every
//! [`Session::compile`] call then serves a [`CompileRequest`] (kernel +
//! captures + dims + options) from two content-addressed, LRU-bounded
//! caches:
//!
//! - the **frontend cache**, keyed by `source hash × kernel × captures ×
//!   dims`, holds the instantiated, typechecked, canonicalized, and
//!   lowered (pre-pipeline) module — the part of compilation every
//!   configuration of the same kernel shares;
//! - the **artifact cache**, keyed by the frontend key `× options`,
//!   holds the fully compiled [`Compiled`] artifact behind an [`Arc`],
//!   so a repeated request is a map lookup.
//!
//! # Cache keys
//!
//! One function writes what identifies a compile as canonical key bytes
//! into a byte sink: the source hash, kernel, captures, and sorted
//! effective dims (the frontend key), then the pipeline options (making
//! the artifact key). Three sinks consume that stream: an FNV-1a hasher
//! (the shard selector and disk file name), a byte vector (the key stored
//! with a cache entry, and the one a disk entry verifies byte-for-byte),
//! and an in-place comparer that matches a request against a stored key.
//!
//! # The compile record
//!
//! A cold compile times each stage into a row of the artifact's
//! [`Compiled::stats`] (see [`PassStatistics::time`]): the frontend's
//! `ast.instantiate`, `ast.typecheck`, `ast.canonicalize` and
//! `core.lower`, the pipeline's pass rows, then `analysis.lint`,
//! `qcircuit.lower_to_circuit`, `qcircuit.decompose` and `target.route`
//! where they ran. The frontend rows are kept with the cached frontend, so
//! every artifact carries the cost of its whole compile from source,
//! whether it was led, coalesced, served from memory or revived from disk.
//!
//! # Concurrency model
//!
//! The session is a multi-tenant server core — quilc runs as a persistent
//! server with addressable compilation state. Three mechanisms keep it
//! scalable under concurrent load:
//!
//! - **Sharded caches.** Each cache is split into power-of-two lock
//!   shards (eight, fewer for tiny capacities) selected by the key's
//!   hash, so compiles touching different keys do not contend on one
//!   mutex. The LRU bound is per-shard (global capacity is divided among
//!   the shards).
//! - **Atomic statistics.** All counters live on atomics;
//!   [`Session::cache_stats`] never takes a cache lock and never blocks a
//!   compile.
//! - **Coalescing entries.** Every cache entry is a once-cell. A lookup
//!   that finds no entry inserts an unfilled cell and leads: it runs the
//!   work and fills the cell. Concurrent identical requests find the
//!   unfilled cell and wait on it instead of re-running the pipeline, so
//!   every waiter receives the same `Arc<Compiled>` (pointer-equal). A
//!   failing leader removes its entry before filling the cell with the
//!   error: the error reaches every waiter but is never cached, so the
//!   next request simply runs the pipeline again. Eviction skips unfilled
//!   cells. Both levels coalesce independently: the fourteen
//!   configurations of [`CompileOptions::matrix`] racing through a cold
//!   session on one kernel run the frontend exactly once.
//!
//! The **warm hit path allocates nothing**: the request is hashed and
//! compared against stored keys in place (no owned key and no sorted-dims
//! vector is built), so a saturated server serves repeat traffic at
//! memory-lookup speed.
//!
//! Compile once, emit by backend name, and hit the cache on a repeat:
//!
//! ```
//! use asdf_core::{CompileRequest, Session};
//!
//! let session = Session::new("qpu bell() -> bit[2] {
//!     'p' + '0' | ('1' & std.flip) | std[2].measure
//! }")?;
//! let artifact = session.compile(&CompileRequest::kernel("bell"))?;
//! let qasm = session.emit(&artifact, "qasm")?;
//! assert!(qasm.contains("OPENQASM 3.0;"));
//!
//! // The same request again is a cache hit — no recompilation.
//! let again = session.compile(&CompileRequest::kernel("bell"))?;
//! assert!(std::sync::Arc::ptr_eq(&artifact, &again));
//! assert_eq!(session.cache_stats().artifact_hits, 1);
//! # Ok::<(), asdf_core::CoreError>(())
//! ```
//!
//! Emission goes through a fixed [`asdf_codegen::BackendRegistry`]:
//! [`Session::emit`] looks the name up among `qasm`, `qir-base`,
//! `qir-unrestricted` and `sim`, the one entry point for QASM, QIR and
//! simulation. Routing is not an emission step: a hardware target is a
//! compile option ([`CompileOptions::target`]), so the artifact already
//! holds the routed circuit.

use crate::compiler::CompileOptions;
use crate::diskcache::{DiskCache, DiskLookup, DEFAULT_DISK_CAPACITY};
use crate::error::CoreError;
use crate::lower::lower_kernel;
use crate::Compiled;
use asdf_artifact::{fnv1a, Fnv};
use asdf_ast::ast::Program;
use asdf_ast::canon::canonicalize as ast_canonicalize;
use asdf_ast::expand::{instantiate, CaptureValue};
use asdf_ast::parse::parse_program;
use asdf_ast::tast::{TExpr, TExprKind, TKernel, TStmt};
use asdf_ast::typecheck::typecheck_kernel;
use asdf_codegen::{BackendRegistry, EmitInput};
use asdf_ir::{Module, PassStatistics};
use asdf_qcircuit::decompose::{decompose, DecomposeStyle};
use asdf_qcircuit::reg2mem::lower_to_circuit;
use asdf_sim::SimBackend;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

// ---------------------------------------------------------------------
// Cache keys
// ---------------------------------------------------------------------

/// The number of effective dimension bindings: `options.dims` overlaid
/// with the request's own bindings (request wins on conflicts).
fn effective_dims_len(options: &HashMap<String, i64>, request: &HashMap<String, i64>) -> usize {
    request.len() + options.keys().filter(|k| !request.contains_key(*k)).count()
}

/// Visits the effective dimension bindings in ascending key order
/// *without allocating*: an O(n²) selection scan over the two maps,
/// trivial for the handful of dimension variables a kernel carries.
fn for_each_effective_dim<'a>(
    options: &'a HashMap<String, i64>,
    request: &'a HashMap<String, i64>,
    mut f: impl FnMut(&'a str, i64),
) {
    let total = effective_dims_len(options, request);
    let mut last: Option<&str> = None;
    for _ in 0..total {
        let mut next: Option<(&'a str, i64)> = None;
        let merged =
            request.iter().chain(options.iter().filter(|(k, _)| !request.contains_key(*k)));
        for (k, v) in merged {
            let k = k.as_str();
            if last.is_some_and(|l| k <= l) {
                continue;
            }
            if next.is_none_or(|(nk, _)| k < nk) {
                next = Some((k, *v));
            }
        }
        let (k, v) = next.expect("selection scan yields one key per step");
        f(k, v);
        last = Some(k);
    }
}

/// The key of one request at one cache level. [`CacheKey::write`] is the
/// only description of what a key covers; hashing, storing, and matching
/// all consume its byte stream.
struct CacheKey<'a> {
    source_hash: u64,
    request: &'a CompileRequest,
    /// Whether the pipeline options follow the frontend part (the
    /// artifact key) or not (the frontend key, a prefix of it).
    options: bool,
}

impl CacheKey<'_> {
    /// Writes the canonical key bytes into `sink`: the source hash, the
    /// kernel, the captures, and the sorted effective dims, then — for
    /// the artifact key — every pipeline option. Strings and sequences
    /// are length-prefixed and integers little-endian, so distinct keys
    /// never write the same bytes.
    fn write(&self, sink: &mut impl FnMut(&[u8])) {
        let CompileRequest { kernel, captures, dims, options } = self.request;
        // Exhaustive destructuring, and the only one of CompileOptions in
        // this module: adding a field is a compile error here, so it can
        // never silently drop out of the key (which would serve stale
        // artifacts or a wrong disk entry).
        let CompileOptions {
            inline,
            peephole,
            decompose,
            verify,
            dims: option_dims,
            rewrite_fuel,
            lints,
            target,
        } = options;
        sink(&self.source_hash.to_le_bytes());
        write_str(sink, kernel);
        write_len(sink, captures.len());
        for capture in captures {
            write_capture(sink, capture);
        }
        write_len(sink, effective_dims_len(option_dims, dims));
        for_each_effective_dim(option_dims, dims, |name, value| {
            write_str(sink, name);
            sink(&value.to_le_bytes());
        });
        if !self.options {
            return;
        }
        let decompose = match decompose {
            None => 0,
            Some(DecomposeStyle::Selinger) => 1,
            Some(DecomposeStyle::VChain) => 2,
        };
        sink(&[
            u8::from(*inline),
            u8::from(*peephole),
            decompose,
            u8::from(*verify),
            u8::from(*lints),
        ]);
        match rewrite_fuel {
            None => sink(&[0]),
            Some(fuel) => {
                sink(&[1]);
                sink(&fuel.to_le_bytes());
            }
        }
        match target {
            None => sink(&[0]),
            Some(name) => {
                sink(&[1]);
                write_str(sink, name);
            }
        }
    }

    /// The FNV-1a hash of the key bytes, computed without building them.
    fn hash(&self) -> u64 {
        let mut h = Fnv::new();
        self.write(&mut |bytes| h.write(bytes));
        h.finish()
    }

    /// The key bytes, as stored with a cache entry and in a disk entry.
    fn to_bytes(&self) -> Vec<u8> {
        let mut key = Vec::new();
        self.write(&mut |bytes| key.extend_from_slice(bytes));
        key
    }

    /// Whether `stored` holds exactly this key's bytes, compared as they
    /// are written (no allocation).
    fn matches(&self, stored: &[u8]) -> bool {
        let mut rest = Some(stored);
        self.write(&mut |bytes| rest = rest.and_then(|rest| rest.strip_prefix(bytes)));
        rest.is_some_and(<[u8]>::is_empty)
    }
}

fn write_len(sink: &mut impl FnMut(&[u8]), len: usize) {
    sink(&(len as u64).to_le_bytes());
}

fn write_str(sink: &mut impl FnMut(&[u8]), s: &str) {
    write_len(sink, s.len());
    sink(s.as_bytes());
}

fn write_capture(sink: &mut impl FnMut(&[u8]), capture: &CaptureValue) {
    match capture {
        CaptureValue::Bits(bits) => {
            sink(&[0]);
            write_len(sink, bits.len());
            for &bit in bits {
                sink(&[u8::from(bit)]);
            }
        }
        CaptureValue::CFunc { name, captures } => {
            sink(&[1]);
            write_str(sink, name);
            write_len(sink, captures.len());
            for nested in captures {
                write_capture(sink, nested);
            }
        }
    }
}

// ---------------------------------------------------------------------
// The coalescing cache
// ---------------------------------------------------------------------

/// A cache entry's value: filled exactly once, by the request that ran
/// the work. While it is unfilled the work is in flight, and concurrent
/// requests for the key wait on it.
type Cell<V> = Arc<OnceLock<Result<V, CoreError>>>;

struct LruEntry<V> {
    key: Box<[u8]>,
    cell: Cell<V>,
    last_used: u64,
}

/// One shard: a hash-bucketed map plus a logical clock. Entries are
/// addressed by their key hash and disambiguated by comparing key bytes,
/// so lookups need no owned key. Eviction scans for the stalest filled
/// entry — O(shard capacity), trivial at session cache sizes.
struct Lru<V> {
    capacity: usize,
    tick: u64,
    len: usize,
    map: HashMap<u64, Vec<LruEntry<V>>>,
}

impl<V> Lru<V> {
    fn new(capacity: usize) -> Lru<V> {
        Lru { capacity: capacity.max(1), tick: 0, len: 0, map: HashMap::new() }
    }

    fn get(&mut self, hash: u64, matches: impl Fn(&[u8]) -> bool) -> Option<&Cell<V>> {
        self.tick += 1;
        let tick = self.tick;
        let entry = self.map.get_mut(&hash)?.iter_mut().find(|e| matches(&e.key))?;
        entry.last_used = tick;
        Some(&entry.cell)
    }

    /// Inserts an entry for an absent key, first evicting the stalest
    /// filled entries while the shard is full; returns the number
    /// evicted. Unfilled entries are never evicted, so a shard full of
    /// in-flight work grows past its capacity until that work is done.
    fn insert(&mut self, hash: u64, key: Box<[u8]>, cell: Cell<V>) -> u64 {
        let mut evictions = 0;
        while self.len >= self.capacity {
            let stalest = self
                .map
                .iter()
                .flat_map(|(&h, bucket)| bucket.iter().map(move |e| (h, e)))
                .filter(|(_, e)| e.cell.get().is_some())
                .min_by_key(|(_, e)| e.last_used)
                .map(|(h, e)| (h, Arc::clone(&e.cell)));
            let Some((h, cell)) = stalest else { break };
            self.remove(h, &cell);
            evictions += 1;
        }
        self.tick += 1;
        self.map.entry(hash).or_default().push(LruEntry { key, cell, last_used: self.tick });
        self.len += 1;
        evictions
    }

    /// Removes the entry holding `cell`, if it is still present.
    fn remove(&mut self, hash: u64, cell: &Cell<V>) {
        let Some(bucket) = self.map.get_mut(&hash) else { return };
        let Some(i) = bucket.iter().position(|e| Arc::ptr_eq(&e.cell, cell)) else { return };
        bucket.swap_remove(i);
        if bucket.is_empty() {
            self.map.remove(&hash);
        }
        self.len -= 1;
    }
}

/// Lock shards per cache.
const DEFAULT_SHARDS: usize = 8;

/// The shard count for `capacity` entries: [`DEFAULT_SHARDS`] rounded
/// down to a power of two no larger than the capacity (so every shard
/// holds at least one entry).
fn shard_count(capacity: usize) -> usize {
    let clamped = DEFAULT_SHARDS.clamp(1, capacity.max(1));
    1 << (usize::BITS - 1 - clamped.leading_zeros())
}

/// How [`CoalescingCache::get_or_run`] served a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Served {
    /// The key's cell was filled: a cached value.
    Hit,
    /// The key's cell was unfilled: this request waited for the request
    /// running the work and shares its result.
    Coalesced,
    /// The key was absent: this request ran the work.
    Led,
}

/// A cache whose entries are once-cells, split into power-of-two lock
/// shards selected by key hash: compiles touching different keys lock
/// different mutexes, and identical cold requests coalesce onto one run.
struct CoalescingCache<V> {
    shards: Box<[Mutex<Lru<V>>]>,
    mask: u64,
    evictions: AtomicU64,
}

impl<V: Clone> CoalescingCache<V> {
    fn new(capacity: usize) -> CoalescingCache<V> {
        let capacity = capacity.max(1);
        let shards = shard_count(capacity);
        let base = capacity / shards;
        let remainder = capacity % shards;
        let shards: Box<[Mutex<Lru<V>>]> =
            (0..shards).map(|i| Mutex::new(Lru::new(base + usize::from(i < remainder)))).collect();
        let mask = shards.len() as u64 - 1;
        CoalescingCache { shards, mask, evictions: AtomicU64::new(0) }
    }

    fn shard(&self, hash: u64) -> MutexGuard<'_, Lru<V>> {
        self.shards[(hash & self.mask) as usize].lock().expect("cache shard mutex")
    }

    /// Serves `key` (whose [`CacheKey::hash`] is `hash`): a filled entry
    /// is a hit, an unfilled one is waited on, and an absent one is
    /// inserted unfilled while this request runs `run` and fills it.
    /// Errors reach every waiter but are never cached.
    fn get_or_run(
        &self,
        hash: u64,
        key: &CacheKey<'_>,
        run: impl FnOnce() -> Result<V, CoreError>,
    ) -> (Result<V, CoreError>, Served) {
        let mut shard = self.shard(hash);
        if let Some(cell) = shard.get(hash, |stored| key.matches(stored)) {
            if let Some(Ok(value)) = cell.get() {
                return (Ok(value.clone()), Served::Hit);
            }
            let cell = Arc::clone(cell);
            drop(shard);
            return (cell.wait().clone(), Served::Coalesced);
        }
        let cell = Cell::default();
        let evicted = shard.insert(hash, key.to_bytes().into_boxed_slice(), Arc::clone(&cell));
        drop(shard);
        self.evictions.fetch_add(evicted, Relaxed);
        let lead = Lead { cache: self, hash, cell };
        let result = run();
        lead.fill(result.clone());
        (result, Served::Led)
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().expect("cache shard mutex").len).sum()
    }
}

/// The running request's duty to fill its cell. Dropped with the cell
/// unfilled — the work panicked — it fills it with an error, so waiters
/// wake instead of blocking forever. Taking the shard lock there cannot
/// panic: the work runs with the lock released and nothing under it
/// panics, so it is never poisoned.
struct Lead<'a, V: Clone> {
    cache: &'a CoalescingCache<V>,
    hash: u64,
    cell: Cell<V>,
}

impl<V: Clone> Lead<'_, V> {
    /// Fills the cell. An error first removes the entry, so waiters
    /// already holding the cell see it but the next request runs afresh.
    fn fill(&self, result: Result<V, CoreError>) {
        if result.is_err() {
            self.cache.shard(self.hash).remove(self.hash, &self.cell);
        }
        let filled = self.cell.set(result);
        debug_assert!(filled.is_ok(), "a cache cell is filled exactly once");
    }
}

impl<V: Clone> Drop for Lead<'_, V> {
    fn drop(&mut self) {
        if self.cell.get().is_none() {
            self.fill(Err(CoreError::Ir(
                "in-flight compilation abandoned (the leading thread panicked)".to_string(),
            )));
        }
    }
}

// ---------------------------------------------------------------------
// Cache statistics
// ---------------------------------------------------------------------

/// Counters for the session's two caches (a point-in-time snapshot of
/// the session's atomics — see [`Session::cache_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Frontend (parse-once instantiate/typecheck/lower) cache hits.
    pub frontend_hits: u64,
    /// Frontend cache misses (full frontend work performed).
    pub frontend_misses: u64,
    /// Frontend requests coalesced onto another thread's in-flight run
    /// (the work ran once; these callers waited and shared the result).
    pub frontend_coalesced: u64,
    /// Whole-artifact cache hits (compilation skipped entirely).
    pub artifact_hits: u64,
    /// Whole-artifact cache misses (this thread ran the pipeline).
    pub artifact_misses: u64,
    /// Artifact requests coalesced onto another thread's in-flight
    /// pipeline run.
    pub artifact_coalesced: u64,
    /// Entries evicted from either cache by the LRU bound.
    pub evictions: u64,
    /// Disk-cache hits: the artifact was revived from a persisted file
    /// instead of running the pipeline. Always 0 without a disk cache.
    pub disk_hits: u64,
    /// Disk-cache probes that found no usable entry (only counted when a
    /// disk cache is configured).
    pub disk_misses: u64,
    /// Artifacts persisted to the disk cache.
    pub disk_writes: u64,
    /// Disk entries that failed to decode and were quarantined.
    pub disk_quarantined: u64,
    /// Disk entries evicted by the on-disk capacity bound.
    pub disk_evictions: u64,
}

impl CacheStats {
    /// The fraction of frontend requests whose work was avoided (hit or
    /// coalesced), in [0, 1]; 0 when nothing was requested.
    pub fn frontend_hit_rate(&self) -> f64 {
        let avoided = self.frontend_hits + self.frontend_coalesced;
        let total = avoided + self.frontend_misses;
        if total == 0 {
            0.0
        } else {
            avoided as f64 / total as f64
        }
    }

    /// Merges another session's counters into this one (the difftest
    /// driver aggregates per-case sessions this way).
    pub fn merge(&mut self, other: &CacheStats) {
        self.frontend_hits += other.frontend_hits;
        self.frontend_misses += other.frontend_misses;
        self.frontend_coalesced += other.frontend_coalesced;
        self.artifact_hits += other.artifact_hits;
        self.artifact_misses += other.artifact_misses;
        self.artifact_coalesced += other.artifact_coalesced;
        self.evictions += other.evictions;
        self.disk_hits += other.disk_hits;
        self.disk_misses += other.disk_misses;
        self.disk_writes += other.disk_writes;
        self.disk_quarantined += other.disk_quarantined;
        self.disk_evictions += other.disk_evictions;
    }
}

/// The live counters, all atomic: bumping them never takes a lock, and
/// [`Session::cache_stats`] snapshots them without contending with
/// in-flight compiles.
#[derive(Default)]
struct SharedStats {
    frontend_hits: AtomicU64,
    frontend_misses: AtomicU64,
    frontend_coalesced: AtomicU64,
    artifact_hits: AtomicU64,
    artifact_misses: AtomicU64,
    artifact_coalesced: AtomicU64,
    disk_hits: AtomicU64,
    disk_misses: AtomicU64,
    disk_writes: AtomicU64,
    disk_quarantined: AtomicU64,
    disk_evictions: AtomicU64,
}

impl SharedStats {
    fn snapshot(&self, evictions: u64) -> CacheStats {
        CacheStats {
            frontend_hits: self.frontend_hits.load(Relaxed),
            frontend_misses: self.frontend_misses.load(Relaxed),
            frontend_coalesced: self.frontend_coalesced.load(Relaxed),
            artifact_hits: self.artifact_hits.load(Relaxed),
            artifact_misses: self.artifact_misses.load(Relaxed),
            artifact_coalesced: self.artifact_coalesced.load(Relaxed),
            evictions,
            disk_hits: self.disk_hits.load(Relaxed),
            disk_misses: self.disk_misses.load(Relaxed),
            disk_writes: self.disk_writes.load(Relaxed),
            disk_quarantined: self.disk_quarantined.load(Relaxed),
            disk_evictions: self.disk_evictions.load(Relaxed),
        }
    }
}

// ---------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------

/// A builder-style description of one compilation: which kernel, with
/// which captures, dimension bindings, and pipeline options.
///
/// ```
/// use asdf_core::{CompileOptions, CompileRequest};
/// use asdf_ast::CaptureValue;
///
/// let request = CompileRequest::kernel("kernel")
///     .with_capture(CaptureValue::CFunc {
///         name: "f".into(),
///         captures: vec![CaptureValue::bits_from_str("101")],
///     })
///     .with_dim("M", 3)
///     .with_options(CompileOptions::no_opt());
/// assert_eq!(request.kernel, "kernel");
/// ```
#[derive(Debug, Clone)]
pub struct CompileRequest {
    /// The entry kernel's name.
    pub kernel: String,
    /// Capture values for the kernel's leading parameters.
    pub captures: Vec<CaptureValue>,
    /// Explicit dimension-variable bindings (merged over
    /// `options.dims`; request bindings win).
    pub dims: HashMap<String, i64>,
    /// Pipeline options.
    pub options: CompileOptions,
}

impl CompileRequest {
    /// A request for `kernel` with no captures, no explicit dims, and
    /// default options.
    pub fn kernel(name: &str) -> CompileRequest {
        CompileRequest {
            kernel: name.to_string(),
            captures: Vec::new(),
            dims: HashMap::new(),
            options: CompileOptions::default(),
        }
    }

    /// Appends one capture value.
    #[must_use]
    pub fn with_capture(mut self, capture: CaptureValue) -> CompileRequest {
        self.captures.push(capture);
        self
    }

    /// Appends capture values in order.
    #[must_use]
    pub fn with_captures(mut self, captures: &[CaptureValue]) -> CompileRequest {
        self.captures.extend_from_slice(captures);
        self
    }

    /// Binds a dimension variable explicitly.
    #[must_use]
    pub fn with_dim(mut self, name: &str, value: i64) -> CompileRequest {
        self.dims.insert(name.to_string(), value);
        self
    }

    /// Sets the pipeline options.
    #[must_use]
    pub fn with_options(mut self, options: CompileOptions) -> CompileRequest {
        self.options = options;
        self
    }

    /// The effective dimension bindings: `options.dims` overlaid with the
    /// request's own bindings. Only built on the cold path — the warm
    /// path compares dims in place.
    fn effective_dims(&self) -> HashMap<String, i64> {
        let mut dims = self.options.dims.clone();
        dims.extend(self.dims.iter().map(|(k, v)| (k.clone(), *v)));
        dims
    }
}

// ---------------------------------------------------------------------
// The session
// ---------------------------------------------------------------------

/// The shared frontend artifact: one kernel instance typechecked and
/// lowered, before any pipeline pass ran, with the frontend's rows of the
/// compile record (see the module docs), which every artifact compiled
/// over it starts with.
struct Frontend {
    module: Module,
    stats: PassStatistics,
}

/// Default artifact-cache capacity (compiled artifacts are a few KB).
const DEFAULT_ARTIFACT_CAPACITY: usize = 64;
/// Default frontend-cache capacity (one entry per kernel × captures).
const DEFAULT_FRONTEND_CAPACITY: usize = 16;

/// Configures and constructs a [`Session`]: cache capacities and the
/// disk cache.
///
/// ```
/// let session = asdf_core::Session::builder(
///     "qpu k() -> bit[1] { '0' | std.measure }",
/// )
/// .artifact_capacity(128)
/// .build()?;
/// assert!(session.backend_names().contains(&"qasm"));
/// # Ok::<(), asdf_core::CoreError>(())
/// ```
pub struct SessionBuilder {
    source: String,
    frontend_capacity: usize,
    artifact_capacity: usize,
    disk_cache: Option<PathBuf>,
}

impl std::fmt::Debug for SessionBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionBuilder")
            .field("frontend_capacity", &self.frontend_capacity)
            .field("artifact_capacity", &self.artifact_capacity)
            .field("disk_cache", &self.disk_cache)
            .finish_non_exhaustive()
    }
}

impl SessionBuilder {
    fn new(source: &str) -> SessionBuilder {
        SessionBuilder {
            source: source.to_string(),
            frontend_capacity: DEFAULT_FRONTEND_CAPACITY,
            artifact_capacity: DEFAULT_ARTIFACT_CAPACITY,
            disk_cache: None,
        }
    }

    /// Frontend-cache capacity in entries.
    #[must_use]
    pub fn frontend_capacity(mut self, entries: usize) -> SessionBuilder {
        self.frontend_capacity = entries;
        self
    }

    /// Artifact-cache capacity in entries.
    #[must_use]
    pub fn artifact_capacity(mut self, entries: usize) -> SessionBuilder {
        self.artifact_capacity = entries;
        self
    }

    /// Layers a persistent on-disk artifact cache (rooted at `dir`)
    /// under the in-memory LRU. Compiled artifacts are written to disk
    /// (atomic write-then-rename) and revived on later misses — including
    /// after a process restart or from another process sharing the
    /// directory. Corrupt entries are quarantined, I/O failures degrade
    /// to cache misses, and the [`CacheStats`] `disk_*` counters report
    /// the traffic. The directory keeps at most [`DEFAULT_DISK_CAPACITY`]
    /// entries; the oldest are evicted beyond it.
    #[must_use]
    pub fn disk_cache(mut self, dir: impl Into<PathBuf>) -> SessionBuilder {
        self.disk_cache = Some(dir.into());
        self
    }

    /// Parses the source and builds the session.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Frontend`] when the source does not lex or
    /// parse.
    pub fn build(self) -> Result<Session, CoreError> {
        let program = parse_program(&self.source)?;
        let source_hash = fnv1a(self.source.as_bytes());
        let disk = match self.disk_cache {
            None => None,
            Some(dir) => Some(DiskCache::open(&dir, DEFAULT_DISK_CAPACITY).map_err(|e| {
                CoreError::Artifact(asdf_artifact::ArtifactError::Io(format!(
                    "cannot open disk cache at {}: {e}",
                    dir.display()
                )))
            })?),
        };
        let mut backends = BackendRegistry::with_codegen_backends();
        backends.register(Box::new(SimBackend));
        Ok(Session {
            source: self.source,
            source_hash,
            program,
            backends,
            frontends: CoalescingCache::new(self.frontend_capacity),
            artifacts: CoalescingCache::new(self.artifact_capacity),
            stats: SharedStats::default(),
            disk,
        })
    }
}

/// A long-lived, concurrent compilation context over one source program.
///
/// See the `session` module documentation for the full API tour and the
/// concurrency model (sharded caches, atomic stats, request coalescing).
/// The session is `Sync` and immutable after construction: wrap it in an
/// `Arc` and compile from as many threads as you like.
pub struct Session {
    source: String,
    source_hash: u64,
    program: Program,
    backends: BackendRegistry,
    frontends: CoalescingCache<Arc<Frontend>>,
    artifacts: CoalescingCache<Arc<Compiled>>,
    stats: SharedStats,
    disk: Option<DiskCache>,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("source_hash", &self.source_hash)
            .field("backends", &self.backends.names())
            .finish_non_exhaustive()
    }
}

impl Session {
    /// Parses `source` and prepares an empty cache with default capacity
    /// and the session's four backends (`qasm`, `qir-base`,
    /// `qir-unrestricted`, `sim`).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Frontend`] when `source` does not lex or
    /// parse.
    pub fn new(source: &str) -> Result<Session, CoreError> {
        Session::builder(source).build()
    }

    /// A [`SessionBuilder`] over `source`: cache capacities and the disk
    /// cache are fixed here, before first use.
    pub fn builder(source: &str) -> SessionBuilder {
        SessionBuilder::new(source)
    }

    /// The source text this session compiles.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// The FNV-1a content hash of the source (the leading component of
    /// every cache key).
    pub fn source_hash(&self) -> u64 {
        self.source_hash
    }

    /// A snapshot of the cache counters. Reads atomics only — never
    /// contends with in-flight compiles.
    pub fn cache_stats(&self) -> CacheStats {
        let evictions =
            self.frontends.evictions.load(Relaxed) + self.artifacts.evictions.load(Relaxed);
        self.stats.snapshot(evictions)
    }

    /// Current (frontend, artifact) cache entry counts.
    pub fn cache_len(&self) -> (usize, usize) {
        (self.frontends.len(), self.artifacts.len())
    }

    /// The backend names [`Session::emit`] accepts: `qasm`, `qir-base`,
    /// `qir-unrestricted` and `sim`.
    pub fn backend_names(&self) -> Vec<&'static str> {
        self.backends.names()
    }

    /// Compiles one request, serving as much as possible from the caches.
    ///
    /// The returned artifact is shared: repeated identical requests give
    /// `Arc`s to the *same* allocation (cheap clones, pointer-comparable
    /// in tests) — including requests that were coalesced onto another
    /// thread's in-flight pipeline run. A warm hit performs no heap
    /// allocation.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] for any frontend, transformation, or
    /// synthesis failure. A cold-compile error is delivered to every
    /// coalesced waiter; the failure is not cached, so a later identical
    /// request retries from scratch.
    pub fn compile(&self, request: &CompileRequest) -> Result<Arc<Compiled>, CoreError> {
        let key = CacheKey { source_hash: self.source_hash, request, options: true };
        let hash = key.hash();
        let mut ran_pipeline = false;
        let (result, served) = self.artifacts.get_or_run(hash, &key, || {
            // The disk sits between the in-memory cache and the pipeline,
            // on the leader's path: concurrent identical requests coalesce
            // onto one disk read exactly as they do onto one pipeline run.
            let key_bytes = key.to_bytes();
            if let Some(revived) = self.load_from_disk(hash, &key_bytes) {
                return Ok(revived);
            }
            ran_pipeline = true;
            self.stats.artifact_misses.fetch_add(1, Relaxed);
            Ok(Arc::new(self.compile_cold(request, key_bytes)?))
        });
        match served {
            Served::Hit => self.stats.artifact_hits.fetch_add(1, Relaxed),
            Served::Coalesced => self.stats.artifact_coalesced.fetch_add(1, Relaxed),
            Served::Led => 0,
        };
        let artifact = result?;
        if ran_pipeline {
            // Persist after the cell is filled, so waiters never wait on
            // the write and a write failure costs nothing but persistence.
            self.store_to_disk(hash, &artifact);
        }
        Ok(artifact)
    }

    /// Emits a compiled artifact through the backend named `backend` —
    /// the one emission entry point for QASM, QIR, and simulation. The
    /// name is looked up, not parsed: a routed artifact comes from a
    /// compile with [`CompileOptions::target`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Backend`] for unknown backend names or
    /// emission failures (e.g. QASM of an artifact with no straight-line
    /// circuit).
    pub fn emit(&self, artifact: &Compiled, backend: &str) -> Result<String, CoreError> {
        let input = EmitInput {
            module: &artifact.module,
            entry: &artifact.entry,
            circuit: artifact.circuit.as_ref(),
        };
        self.backends.emit(backend, &input).map_err(CoreError::from)
    }

    /// Renders any error from this session against its source, with
    /// error code, line:column, and a labeled snippet for frontend
    /// errors.
    pub fn render_error(&self, error: &CoreError) -> String {
        error.to_diagnostic().render(&self.source)
    }

    /// Renders an artifact's lint diagnostics against this session's
    /// source, one string per warning (empty unless the artifact was
    /// compiled with [`CompileOptions::lints`]).
    pub fn render_lints(&self, artifact: &Compiled) -> Vec<String> {
        artifact.lints.iter().map(|d| d.render(&self.source)).collect()
    }

    /// Revives a disk-cached artifact, when a disk cache is configured
    /// and holds one for this key. A revived artifact runs neither the
    /// frontend nor the pipeline, and carries the `stats` rows of the
    /// compile that stored it.
    fn load_from_disk(&self, hash: u64, key: &[u8]) -> Option<Arc<Compiled>> {
        let disk = self.disk.as_ref()?;
        match disk.load(hash, key) {
            DiskLookup::Hit(stored) => {
                self.stats.disk_hits.fetch_add(1, Relaxed);
                Some(Arc::new(*stored))
            }
            DiskLookup::Quarantined => {
                self.stats.disk_quarantined.fetch_add(1, Relaxed);
                self.stats.disk_misses.fetch_add(1, Relaxed);
                None
            }
            DiskLookup::Miss => {
                self.stats.disk_misses.fetch_add(1, Relaxed);
                None
            }
        }
    }

    /// Persists a freshly compiled artifact under its key, when a disk
    /// cache is configured.
    fn store_to_disk(&self, hash: u64, artifact: &Compiled) {
        let Some(disk) = &self.disk else { return };
        if let Some(evicted) = disk.store(hash, artifact) {
            self.stats.disk_writes.fetch_add(1, Relaxed);
            self.stats.disk_evictions.fetch_add(evicted, Relaxed);
        }
    }

    /// The cold half of a compile, over a (possibly coalesced) shared
    /// frontend: the pipeline, lints, reg2mem, decompose and routing, each
    /// added to the frontend's compile record (see the module docs). `key`
    /// is the request's canonical cache-key bytes, which the artifact
    /// carries to the disk cache.
    fn compile_cold(&self, request: &CompileRequest, key: Vec<u8>) -> Result<Compiled, CoreError> {
        let options = &request.options;
        // A bad target name fails uniformly, circuit or not, and before
        // any work is done.
        let target = options.target.as_deref().map(asdf_target::Target::parse).transpose()?;
        let frontend = self.frontend_for(request)?;
        let mut module = frontend.module.clone();
        let mut stats = frontend.stats.clone();
        stats.passes.extend(options.pipeline().run(&mut module)?.passes);
        // Lints run over the post-pipeline module: spans survive lowering
        // and conversion, so diagnostics still point at the source, while
        // the analyses see the IR the backends will actually consume.
        let lints = if options.lints {
            stats.time("analysis.lint", || asdf_analysis::lint_module(&module))
        } else {
            Vec::new()
        };
        let entry = module.expect_func(&request.kernel).map_err(CoreError::from)?;
        let circuit = stats.time("qcircuit.lower_to_circuit", || lower_to_circuit(entry)).ok();
        let circuit = match (circuit, options.decompose) {
            (Some(raw), Some(style)) => {
                Some(stats.time("qcircuit.decompose", || decompose(&raw, style)))
            }
            (circuit, _) => circuit,
        };
        // Hardware routing of whatever straight-line circuit exists.
        let (circuit, routing) = match (target, circuit) {
            (Some(target), Some(circuit)) => {
                let routed = stats.time("target.route", || target.route(&circuit))?;
                (Some(routed.circuit), Some(routed.info))
            }
            (_, circuit) => (circuit, None),
        };
        Ok(Compiled { entry: request.kernel.clone(), module, circuit, routing, stats, lints, key })
    }

    /// The shared frontend for a request: cache hit, coalesced wait, or a
    /// leading frontend run.
    fn frontend_for(&self, request: &CompileRequest) -> Result<Arc<Frontend>, CoreError> {
        let key = CacheKey { source_hash: self.source_hash, request, options: false };
        let (result, served) = self.frontends.get_or_run(key.hash(), &key, || {
            self.stats.frontend_misses.fetch_add(1, Relaxed);
            let dims = request.effective_dims();
            Ok(Arc::new(self.run_frontend(&request.kernel, &request.captures, &dims)?))
        });
        match served {
            Served::Hit => self.stats.frontend_hits.fetch_add(1, Relaxed),
            Served::Coalesced => self.stats.frontend_coalesced.fetch_add(1, Relaxed),
            Served::Led => 0,
        };
        result
    }

    /// §4 + §5.1: instantiation, typechecking, canonicalization, and
    /// lowering of the entry kernel plus everything it references — the
    /// options-independent front half of the compiler.
    fn run_frontend(
        &self,
        kernel_name: &str,
        captures: &[CaptureValue],
        dims: &HashMap<String, i64>,
    ) -> Result<Frontend, CoreError> {
        let mut stats = PassStatistics::new();
        let kernel = self.typed_kernel(&mut stats, kernel_name, captures, dims)?;
        let mut module = Module::new();
        for referenced in referenced_kernels(&kernel) {
            if module.contains(&referenced) {
                continue;
            }
            let sub = self.typed_kernel(&mut stats, &referenced, &[], dims)?;
            stats.time("core.lower", || lower_kernel(&sub, &mut module))?;
        }
        stats.time("core.lower", || lower_kernel(&kernel, &mut module))?;
        Ok(Frontend { module, stats })
    }

    /// Instantiates, typechecks and canonicalizes one kernel, adding each
    /// phase's time to its `ast.*` row of `stats`.
    fn typed_kernel(
        &self,
        stats: &mut PassStatistics,
        name: &str,
        captures: &[CaptureValue],
        dims: &HashMap<String, i64>,
    ) -> Result<TKernel, CoreError> {
        let instance =
            stats.time("ast.instantiate", || instantiate(&self.program, name, captures, dims))?;
        let mut kernel =
            stats.time("ast.typecheck", || typecheck_kernel(&self.program, name, &instance))?;
        stats.time("ast.canonicalize", || ast_canonicalize(&mut kernel));
        Ok(kernel)
    }
}

/// Kernels referenced as function values from the body.
fn referenced_kernels(kernel: &TKernel) -> Vec<String> {
    let mut out = Vec::new();
    fn walk(e: &TExpr, out: &mut Vec<String>) {
        match &e.kind {
            TExprKind::KernelRef { name } if !out.contains(name) => out.push(name.clone()),
            TExprKind::Adjoint(f) => walk(f, out),
            TExprKind::Pred { func, .. } => walk(func, out),
            TExprKind::Tensor(parts) | TExprKind::Compose(parts) => {
                for p in parts {
                    walk(p, out);
                }
            }
            TExprKind::Pipe { value, func } => {
                walk(value, out);
                walk(func, out);
            }
            TExprKind::Cond { cond, then_f, else_f } => {
                walk(cond, out);
                walk(then_f, out);
                walk(else_f, out);
            }
            _ => {}
        }
    }
    for stmt in &kernel.body {
        match stmt {
            TStmt::Let { value, .. } => walk(value, &mut out),
            TStmt::Expr(e) => walk(e, &mut out),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const _: () = {
        const fn assert_sync<T: Sync + Send>() {}
        assert_sync::<Session>()
    };

    fn filled(value: u32) -> Cell<u32> {
        Arc::new(OnceLock::from(Ok(value)))
    }

    fn cached(lru: &mut Lru<u32>, hash: u64, key: &[u8]) -> Option<u32> {
        lru.get(hash, |stored| stored == key)?.get()?.clone().ok()
    }

    #[test]
    fn lru_bounds_and_evicts_stalest() {
        let mut lru: Lru<u32> = Lru::new(2);
        lru.insert(1, b"1".as_slice().into(), filled(10));
        lru.insert(2, b"2".as_slice().into(), filled(20));
        assert_eq!(cached(&mut lru, 1, b"1"), Some(10)); // 1 is now fresher than 2
        assert_eq!(lru.insert(3, b"3".as_slice().into(), filled(30)), 1);
        assert_eq!(lru.len, 2);
        assert_eq!(cached(&mut lru, 2, b"2"), None, "stalest entry evicted");
        assert_eq!(cached(&mut lru, 1, b"1"), Some(10));
        assert_eq!(cached(&mut lru, 3, b"3"), Some(30));
    }

    #[test]
    fn shard_counts_are_powers_of_two_within_capacity() {
        assert_eq!(shard_count(64), 8);
        assert_eq!(shard_count(8), 8);
        assert_eq!(shard_count(5), 4);
        assert_eq!(shard_count(3), 2);
        assert_eq!(shard_count(2), 2);
        assert_eq!(shard_count(1), 1);
        assert_eq!(shard_count(0), 1);
    }

    /// The artifact key of `request` (the cache tests pass hashes
    /// explicitly, so collisions can be forced).
    fn key(request: &CompileRequest) -> CacheKey<'_> {
        CacheKey { source_hash: 0, request, options: true }
    }

    /// Spins until `holders` references to the cell under `hash` exist
    /// (the cache's, the running request's, and the waiters'), i.e. until
    /// the waiters hold the unfilled cell and must coalesce onto it.
    fn await_holders(cache: &CoalescingCache<u32>, hash: u64, holders: usize) {
        while cache.shard(hash).map.get(&hash).map_or(0, |b| Arc::strong_count(&b[0].cell))
            < holders
        {
            std::thread::yield_now();
        }
    }

    #[test]
    fn sharded_cache_capacity_is_global() {
        let cache: CoalescingCache<u32> = CoalescingCache::new(6);
        for i in 0..32u32 {
            let request = CompileRequest::kernel(&format!("k{i}"));
            let key = key(&request);
            let (value, served) = cache.get_or_run(key.hash(), &key, || Ok(i));
            assert_eq!((value, served), (Ok(i), Served::Led));
        }
        assert!(cache.len() <= 6, "global bound holds, got {}", cache.len());
        assert_eq!(cache.evictions.load(Relaxed) + cache.len() as u64, 32);
    }

    #[test]
    fn cache_coalesces_then_serves_hits() {
        let cache: CoalescingCache<u32> = CoalescingCache::new(4);
        let a = CompileRequest::kernel("a");
        std::thread::scope(|scope| {
            let mut waiter = None;
            let (value, served) = cache.get_or_run(1, &key(&a), || {
                waiter = Some(scope.spawn(|| cache.get_or_run(1, &key(&a), || panic!("one lead"))));
                await_holders(&cache, 1, 3);
                Ok(7)
            });
            assert_eq!((value, served), (Ok(7), Served::Led));
            let waited = waiter.expect("spawned").join().expect("waiter finished");
            assert_eq!(waited, (Ok(7), Served::Coalesced), "the waiter shares the result");
        });
        // The filled entry stays cached: the next request is a hit.
        assert_eq!(cache.get_or_run(1, &key(&a), || Ok(0)), (Ok(7), Served::Hit));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn cache_errors_reach_waiters_without_poisoning() {
        let cache: CoalescingCache<u32> = CoalescingCache::new(4);
        let a = CompileRequest::kernel("a");
        std::thread::scope(|scope| {
            let mut waiter = None;
            let (value, served) = cache.get_or_run(9, &key(&a), || {
                waiter = Some(scope.spawn(|| cache.get_or_run(9, &key(&a), || Ok(0))));
                await_holders(&cache, 9, 3);
                Err(CoreError::Ir("boom".into()))
            });
            assert_eq!((value, served), (Err(CoreError::Ir("boom".into())), Served::Led));
            let waited = waiter.expect("spawned").join().expect("waiter finished");
            assert_eq!(waited, (Err(CoreError::Ir("boom".into())), Served::Coalesced));
        });
        // The error was not cached: the next request leads afresh.
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.get_or_run(9, &key(&a), || Ok(3)), (Ok(3), Served::Led));
    }

    #[test]
    fn cache_leader_panic_wakes_waiters() {
        let cache: CoalescingCache<u32> = CoalescingCache::new(4);
        let a = CompileRequest::kernel("a");
        let waited = std::thread::scope(|scope| {
            let mut waiter = None;
            let leader = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                cache.get_or_run(3, &key(&a), || {
                    waiter = Some(scope.spawn(|| cache.get_or_run(3, &key(&a), || Ok(0))));
                    await_holders(&cache, 3, 3);
                    panic!("the leading thread dies before filling its cell")
                })
            }));
            assert!(leader.is_err(), "the leader's panic propagates to its caller");
            waiter.expect("spawned").join().expect("waiter finished")
        });
        let (value, served) = waited;
        assert_eq!(served, Served::Coalesced);
        let err = value.expect_err("an abandoned cell delivers an error");
        assert!(err.to_string().contains("abandoned"), "{err}");
        assert_eq!(cache.len(), 0, "the abandoned entry was removed");
        assert_eq!(cache.get_or_run(3, &key(&a), || Ok(5)), (Ok(5), Served::Led));
    }

    #[test]
    fn distinct_keys_under_one_hash_never_coalesce() {
        let cache: CoalescingCache<u32> = CoalescingCache::new(4);
        let (a, b) = (CompileRequest::kernel("a"), CompileRequest::kernel("b"));
        // While `a` is in flight, `b` under the same hash leads its own run.
        let (value, served) = cache.get_or_run(1, &key(&a), || {
            assert_eq!(cache.get_or_run(1, &key(&b), || Ok(8)), (Ok(8), Served::Led));
            Ok(7)
        });
        assert_eq!((value, served), (Ok(7), Served::Led));
        assert_eq!(cache.get_or_run(1, &key(&a), || Ok(0)), (Ok(7), Served::Hit));
        assert_eq!(cache.get_or_run(1, &key(&b), || Ok(0)), (Ok(8), Served::Hit));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn unfilled_entries_are_never_evicted() {
        let cache: CoalescingCache<u32> = CoalescingCache::new(1);
        let (a, b, c) =
            (CompileRequest::kernel("a"), CompileRequest::kernel("b"), CompileRequest::kernel("c"));
        cache
            .get_or_run(1, &key(&a), || {
                // The one slot holds `a`, still unfilled: `b` cannot evict it
                // and the shard grows past its capacity instead.
                assert_eq!(cache.get_or_run(2, &key(&b), || Ok(2)), (Ok(2), Served::Led));
                assert_eq!(cache.len(), 2);
                assert_eq!(cache.evictions.load(Relaxed), 0);
                Ok(1)
            })
            .0
            .expect("leader succeeded");
        // Once both are filled, the next insert shrinks the shard back to
        // its bound.
        assert_eq!(cache.get_or_run(3, &key(&c), || Ok(3)), (Ok(3), Served::Led));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.evictions.load(Relaxed), 2);
    }

    #[test]
    fn cache_keys_cover_every_component_and_nothing_else() {
        let base = CompileRequest::kernel("k")
            .with_capture(CaptureValue::CFunc {
                name: "f".into(),
                captures: vec![CaptureValue::bits_from_str("101")],
            })
            .with_dim("N", 3)
            .with_options(CompileOptions::default().with_rewrite_fuel(None).with_dim("M", 2));
        let artifact = |request: &CompileRequest| {
            let key = CacheKey { source_hash: 1, request, options: true };
            (key.to_bytes(), key.hash())
        };
        let (bytes, hash) = artifact(&base);
        assert_eq!(hash, fnv1a(&bytes), "the hash is FNV-1a of the key bytes");
        assert!(key(&base).matches(&key(&base).to_bytes()));
        assert!(!key(&base).matches(&bytes), "the source hash is part of the key");

        let options = |f: fn(&mut CompileOptions)| {
            let mut request = base.clone();
            f(&mut request.options);
            request
        };
        let changed = [
            ("kernel", CompileRequest { kernel: "j".into(), ..base.clone() }),
            (
                "capture",
                CompileRequest {
                    captures: vec![CaptureValue::CFunc {
                        name: "f".into(),
                        captures: vec![CaptureValue::bits_from_str("100")],
                    }],
                    ..base.clone()
                },
            ),
            (
                "capture shape",
                CompileRequest {
                    captures: vec![CaptureValue::bits_from_str("101")],
                    ..base.clone()
                },
            ),
            ("request dim", base.clone().with_dim("N", 4)),
            ("request dim over an options dim", base.clone().with_dim("M", 9)),
            (
                "options dim",
                options(|o| {
                    o.dims.insert("M".into(), 5);
                }),
            ),
            ("inline", options(|o| o.inline = !o.inline)),
            ("peephole", options(|o| o.peephole = !o.peephole)),
            ("decompose", options(|o| o.decompose = Some(DecomposeStyle::VChain))),
            ("verify", options(|o| o.verify = !o.verify)),
            ("rewrite_fuel", options(|o| o.rewrite_fuel = Some(5))),
            ("lints", options(|o| o.lints = !o.lints)),
            ("target", options(|o| o.target = Some("linear-16".into()))),
        ];
        for (what, request) in &changed {
            let (changed_bytes, changed_hash) = artifact(request);
            assert_ne!(changed_bytes, bytes, "{what} changes the key bytes");
            assert_ne!(changed_hash, hash, "{what} changes the hash");
            let key = CacheKey { source_hash: 1, request, options: true };
            assert!(!key.matches(&bytes), "{what} does not match the stored key");
        }

        // The frontend key is the artifact key without the options.
        let frontend = CacheKey { source_hash: 1, request: &base, options: false }.to_bytes();
        assert!(bytes.starts_with(&frontend) && bytes.len() > frontend.len());
        let no_inline = options(|o| o.inline = false);
        let frontend_key = CacheKey { source_hash: 1, request: &no_inline, options: false };
        assert!(frontend_key.matches(&frontend), "options are not part of the frontend key");

        // Where a binding lives and the order it was inserted in do not
        // matter; a request dim overrides an options dim of the same name.
        let mut moved = CompileRequest::kernel("k")
            .with_captures(&base.captures)
            .with_dim("M", 2)
            .with_options(CompileOptions::default().with_rewrite_fuel(None).with_dim("N", 3));
        assert_eq!(artifact(&moved), (bytes.clone(), hash), "moving a binding");
        moved.options.dims.insert("M".into(), 9);
        assert_eq!(artifact(&moved), (bytes.clone(), hash), "request dims win");
        let names = ["A", "B", "C", "D", "E", "F", "G", "H"];
        let (mut forward, mut backward) = (moved.clone(), moved);
        forward.dims = HashMap::new();
        backward.dims = HashMap::new();
        for (value, name) in names.iter().enumerate() {
            forward.dims.insert((*name).to_string(), value as i64);
        }
        for (value, name) in names.iter().enumerate().rev() {
            backward.dims.insert((*name).to_string(), value as i64);
        }
        assert_eq!(artifact(&forward), artifact(&backward), "insertion order");
    }

    #[test]
    fn effective_dim_iteration_is_sorted_and_request_wins() {
        let options: HashMap<String, i64> =
            [("N".to_string(), 2), ("A".to_string(), 7)].into_iter().collect();
        let request: HashMap<String, i64> =
            [("N".to_string(), 5), ("Z".to_string(), 1)].into_iter().collect();
        assert_eq!(effective_dims_len(&options, &request), 3);
        let mut seen = Vec::new();
        for_each_effective_dim(&options, &request, |k, v| seen.push((k.to_string(), v)));
        assert_eq!(seen, vec![("A".to_string(), 7), ("N".to_string(), 5), ("Z".to_string(), 1)]);
    }

    #[test]
    fn lint_requests_get_their_own_artifacts_and_clean_code_lints_clean() {
        let session = Session::new(
            "qpu bell() -> bit[2] {
                'p' + '0' | ('1' & std.flip) | std[2].measure
            }",
        )
        .expect("parse");
        let plain = session.compile(&CompileRequest::kernel("bell")).expect("compile");
        assert!(plain.lints.is_empty(), "lints stay empty unless requested");
        let linted = session
            .compile(
                &CompileRequest::kernel("bell")
                    .with_options(CompileOptions::default().with_lints(true)),
            )
            .expect("compile with lints");
        assert!(!Arc::ptr_eq(&plain, &linted), "the lints flag is part of the artifact cache key");
        assert_eq!(session.cache_stats().artifact_misses, 2);
        assert_eq!(
            session.render_lints(&linted),
            Vec::<String>::new(),
            "a correct kernel produces zero default-severity lints"
        );
    }

    #[test]
    fn disk_cache_survives_session_restart() {
        let dir = std::env::temp_dir().join(format!("asdf-session-disk-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let source = "qpu bell() -> bit[2] {
            'p' + '0' | ('1' & std.flip) | std[2].measure
        }";
        let request = CompileRequest::kernel("bell");

        let first = Session::builder(source).disk_cache(&dir).build().expect("build");
        let cold = first.compile(&request).expect("cold compile");
        let stats = first.cache_stats();
        assert_eq!(stats.disk_misses, 1, "first compile probes and misses the disk");
        assert_eq!(stats.disk_writes, 1, "the artifact is persisted");
        assert_eq!(stats.artifact_misses, 1);
        // A repeat within the session is a warm in-memory hit: no second
        // disk probe.
        let warm = first.compile(&request).expect("warm compile");
        assert!(Arc::ptr_eq(&cold, &warm));
        assert_eq!(first.cache_stats().disk_misses, 1);
        drop(first);

        // A fresh session over the same directory revives the artifact
        // from disk: neither the frontend nor the pipeline runs.
        let second = Session::builder(source).disk_cache(&dir).build().expect("rebuild");
        let revived = second.compile(&request).expect("revived compile");
        let stats = second.cache_stats();
        assert_eq!(stats.disk_hits, 1, "restart serves from disk");
        assert_eq!(stats.artifact_misses, 0, "no pipeline run after restart");
        assert_eq!(stats.frontend_misses, 0, "no frontend run after restart");
        assert_eq!(revived.entry, cold.entry);
        assert_eq!(revived.circuit, cold.circuit);
        assert_eq!(revived.module.funcs(), cold.module.funcs());
        // The revived artifact is the one the first session compiled and
        // persisted: same content, same cache key.
        assert_eq!(revived.content_hash(), cold.content_hash());
        assert!(!cold.key.is_empty(), "a cold compile fills the cache key");
        assert_eq!(revived.key, cold.key);
        assert_eq!(revived.stats, cold.stats, "it carries the rows of the compile that stored it");
        assert_eq!(second.cache_stats().disk_writes, 0, "a disk hit is not re-persisted");

        // Different options miss on disk (the stored key differs) and
        // trigger a fresh pipeline run.
        let no_opt = CompileRequest::kernel("bell").with_options(CompileOptions::no_opt());
        second.compile(&no_opt).expect("different-options compile");
        let stats = second.cache_stats();
        assert_eq!(stats.disk_misses, 1);
        assert_eq!(stats.artifact_misses, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_cache_quarantines_corruption_and_recovers() {
        let dir =
            std::env::temp_dir().join(format!("asdf-session-quarantine-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let source = "qpu k() -> bit[1] { '0' | std.measure }";
        let request = CompileRequest::kernel("k");

        let first = Session::builder(source).disk_cache(&dir).build().expect("build");
        first.compile(&request).expect("compile");
        drop(first);

        // Corrupt every stored entry in place.
        for entry in std::fs::read_dir(&dir).expect("read dir").flatten() {
            let path = entry.path();
            let mut bytes = std::fs::read(&path).expect("read entry");
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0xff;
            std::fs::write(&path, &bytes).expect("rewrite entry");
        }

        let second = Session::builder(source).disk_cache(&dir).build().expect("rebuild");
        let artifact = second.compile(&request).expect("compile still succeeds");
        let stats = second.cache_stats();
        assert_eq!(stats.disk_quarantined, 1, "the corrupt entry was quarantined");
        assert_eq!(stats.disk_hits, 0);
        assert_eq!(stats.artifact_misses, 1, "the pipeline re-ran");
        assert_eq!(stats.disk_writes, 1, "the rebuilt artifact was re-persisted");
        assert!(artifact.circuit.is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
