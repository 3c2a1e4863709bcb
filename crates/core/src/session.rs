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
//! # Concurrency model
//!
//! The session is a multi-tenant server core — quilc runs as a persistent
//! server with addressable compilation state, and OpenQL separates a
//! shared compilation platform from pluggable backend emitters. Three
//! mechanisms keep it scalable under concurrent load:
//!
//! - **Sharded caches.** Each cache is split into power-of-two lock
//!   shards selected by the key's content hash, so compiles touching
//!   different keys do not contend on one mutex. The LRU bound is
//!   per-shard (global capacity is divided among the shards).
//! - **Atomic statistics.** All counters live on atomics;
//!   [`Session::cache_stats`] never takes a cache lock and never blocks a
//!   compile.
//! - **Request coalescing.** A cold miss registers an *in-flight cell*
//!   keyed by the same content hash. Concurrent identical requests find
//!   the cell and block on it instead of re-running the pipeline; when
//!   the leading thread finishes, every waiter receives the same
//!   `Arc<Compiled>` (pointer-equal). Errors propagate to all waiters
//!   and the cell is retired either way, so a failed compile never
//!   poisons the key — the next request simply runs the pipeline again.
//!   Both levels coalesce independently: twelve configurations of one
//!   kernel racing through a cold session run the frontend exactly once.
//!
//! The **warm hit path allocates nothing**: requests are hashed and
//! compared structurally against stored keys (no owned key, no encoded
//! strings, no sorted-dims vector is built), so a saturated server serves
//! repeat traffic at memory-lookup speed.
//!
//! Backends are fixed at construction time via [`SessionBuilder`] —
//! a shared `Arc<Session>` is immutable, so register extra backends
//! *before* sharing:
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
//! Emission goes through the [`asdf_codegen::BackendRegistry`]:
//! [`Session::emit`] is the one entry point for QASM, QIR, and the
//! simulator backend.

use crate::compiler::{CompileOptions, Compiled};
use crate::diskcache::{DiskCache, DiskLookup, DEFAULT_DISK_CAPACITY};
use crate::error::CoreError;
use crate::lower::lower_kernel;
use asdf_artifact::{fnv1a, Artifact, Fnv};
use asdf_ast::ast::Program;
use asdf_ast::canon::canonicalize as ast_canonicalize;
use asdf_ast::expand::{instantiate, CaptureValue};
use asdf_ast::parse::parse_program;
use asdf_ast::tast::{TExpr, TExprKind, TKernel, TStmt};
use asdf_ast::typecheck::typecheck_kernel;
use asdf_codegen::{BackendRegistry, EmitInput};
use asdf_ir::Module;
use asdf_qcircuit::decompose::{decompose, DecomposeStyle};
use asdf_qcircuit::reg2mem::lower_to_circuit;
use asdf_sim::SimBackend;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Content hashing
// ---------------------------------------------------------------------

// Cache keys are streaming FNV-1a hashes (`asdf_artifact::Fnv`):
// deterministic, cheap on short inputs, and — crucially for the warm
// path — computed over a `CompileRequest` *in place*, without building an
// owned key first.

/// Hashes a capture value structurally (no text encoding is built).
fn hash_capture(capture: &CaptureValue, h: &mut Fnv) {
    match capture {
        CaptureValue::Bits(bits) => {
            h.write_u8(1);
            h.write_usize(bits.len());
            for &b in bits {
                h.write_u8(u8::from(b));
            }
        }
        CaptureValue::CFunc { name, captures } => {
            h.write_u8(2);
            h.write_usize(name.len());
            h.write(name.as_bytes());
            h.write_usize(captures.len());
            for c in captures {
                hash_capture(c, h);
            }
        }
    }
}

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

// ---------------------------------------------------------------------
// Cache keys
// ---------------------------------------------------------------------

/// The frontend cache key: everything instantiation + typechecking +
/// lowering depend on. Stored on insert; a *request* is matched against
/// it structurally (see [`frontend_key_matches`]) so the warm path never
/// builds one.
#[derive(Debug, Clone, PartialEq)]
struct FrontendKey {
    source_hash: u64,
    kernel: String,
    captures: Vec<CaptureValue>,
    /// Sorted, so map iteration order cannot leak into the key.
    dims: Vec<(String, i64)>,
}

/// The artifact cache key: the frontend key plus the pipeline options.
#[derive(Debug, Clone, PartialEq)]
struct ArtifactKey {
    frontend: FrontendKey,
    inline: bool,
    peephole: bool,
    /// 0 = none, 1 = Selinger, 2 = V-chain.
    decompose: u8,
    verify: bool,
    /// The rewrite-firing budget: fuel changes the produced IR, so two
    /// fuel settings must never share an artifact.
    rewrite_fuel: Option<u64>,
    /// Whether lint diagnostics were computed: an artifact compiled
    /// without lints must not satisfy a request that asks for them.
    lints: bool,
    /// The hardware target the circuit was routed for (None = all-to-all):
    /// routing rewrites the circuit, so targets never share an artifact.
    target: Option<String>,
}

fn decompose_tag(style: Option<DecomposeStyle>) -> u8 {
    match style {
        None => 0,
        Some(DecomposeStyle::Selinger) => 1,
        Some(DecomposeStyle::VChain) => 2,
    }
}

/// Whether a stored sorted-dims key equals the request's effective dims,
/// compared without materializing the effective map.
fn dims_match(
    stored: &[(String, i64)],
    options: &HashMap<String, i64>,
    request: &HashMap<String, i64>,
) -> bool {
    stored.len() == effective_dims_len(options, request)
        && stored.iter().all(|(k, v)| request.get(k).or_else(|| options.get(k)) == Some(v))
}

fn frontend_key_matches(key: &FrontendKey, source_hash: u64, request: &CompileRequest) -> bool {
    key.source_hash == source_hash
        && key.kernel == request.kernel
        && key.captures == request.captures
        && dims_match(&key.dims, &request.options.dims, &request.dims)
}

fn artifact_key_matches(key: &ArtifactKey, source_hash: u64, request: &CompileRequest) -> bool {
    // Exhaustive destructuring: adding a field to CompileOptions is a
    // compile error here, so it can never silently drop out of the cache
    // key (which would serve stale artifacts).
    let CompileOptions {
        inline,
        peephole,
        decompose,
        verify,
        dims: _,
        rewrite_fuel,
        lints,
        target,
    } = &request.options;
    key.inline == *inline
        && key.peephole == *peephole
        && key.decompose == decompose_tag(*decompose)
        && key.verify == *verify
        && key.rewrite_fuel == *rewrite_fuel
        && key.lints == *lints
        && key.target == *target
        && frontend_key_matches(&key.frontend, source_hash, request)
}

// ---------------------------------------------------------------------
// A sharded LRU cache
// ---------------------------------------------------------------------

struct LruEntry<K, V> {
    key: K,
    value: V,
    last_used: u64,
}

/// One shard: a hash-bucketed map plus a logical clock. Entries are
/// addressed by their content hash and disambiguated by structural key
/// comparison, so lookups need no owned key. Eviction scans for the
/// stalest entry — O(shard capacity), trivial at session cache sizes.
struct Lru<K, V> {
    capacity: usize,
    tick: u64,
    len: usize,
    map: HashMap<u64, Vec<LruEntry<K, V>>>,
}

impl<K: PartialEq, V> Lru<K, V> {
    fn new(capacity: usize) -> Lru<K, V> {
        Lru { capacity: capacity.max(1), tick: 0, len: 0, map: HashMap::new() }
    }

    fn get(&mut self, hash: u64, matches: impl Fn(&K) -> bool) -> Option<&V> {
        self.tick += 1;
        let tick = self.tick;
        let entry = self.map.get_mut(&hash)?.iter_mut().find(|e| matches(&e.key))?;
        entry.last_used = tick;
        Some(&entry.value)
    }

    /// Inserts (or replaces) an entry; returns the number of evictions
    /// performed (0 or 1).
    fn insert(&mut self, hash: u64, key: K, value: V) -> u64 {
        self.tick += 1;
        let tick = self.tick;
        if let Some(entry) =
            self.map.get_mut(&hash).and_then(|bucket| bucket.iter_mut().find(|e| e.key == key))
        {
            entry.value = value;
            entry.last_used = tick;
            return 0;
        }
        let mut evictions = 0;
        if self.len >= self.capacity {
            let mut stalest: Option<(u64, usize, u64)> = None;
            for (&h, bucket) in &self.map {
                for (i, e) in bucket.iter().enumerate() {
                    if stalest.is_none_or(|(_, _, lu)| e.last_used < lu) {
                        stalest = Some((h, i, e.last_used));
                    }
                }
            }
            if let Some((h, i, _)) = stalest {
                let bucket = self.map.get_mut(&h).expect("stalest bucket exists");
                bucket.swap_remove(i);
                if bucket.is_empty() {
                    self.map.remove(&h);
                }
                self.len -= 1;
                evictions = 1;
            }
        }
        self.map.entry(hash).or_default().push(LruEntry { key, value, last_used: tick });
        self.len += 1;
        evictions
    }

    fn len(&self) -> usize {
        self.len
    }
}

/// Rounds the requested shard count down to a power of two no larger
/// than the capacity (so every shard holds at least one entry).
fn shard_count(requested: usize, capacity: usize) -> usize {
    let clamped = requested.clamp(1, capacity.max(1));
    1 << (usize::BITS - 1 - clamped.leading_zeros())
}

/// A cache split into power-of-two lock shards selected by content hash:
/// compiles touching different keys lock different mutexes.
struct ShardedCache<K, V> {
    shards: Box<[Mutex<Lru<K, V>>]>,
    mask: u64,
}

impl<K: PartialEq, V: Clone> ShardedCache<K, V> {
    fn new(capacity: usize, shards: usize) -> ShardedCache<K, V> {
        let capacity = capacity.max(1);
        let shards = shard_count(shards, capacity);
        let base = capacity / shards;
        let remainder = capacity % shards;
        let shards: Box<[Mutex<Lru<K, V>>]> =
            (0..shards).map(|i| Mutex::new(Lru::new(base + usize::from(i < remainder)))).collect();
        let mask = shards.len() as u64 - 1;
        ShardedCache { shards, mask }
    }

    fn shard(&self, hash: u64) -> &Mutex<Lru<K, V>> {
        &self.shards[(hash & self.mask) as usize]
    }

    fn get(&self, hash: u64, matches: impl Fn(&K) -> bool) -> Option<V> {
        self.shard(hash).lock().expect("cache shard mutex").get(hash, matches).cloned()
    }

    /// Inserts an entry; returns the number of evictions performed.
    fn insert(&self, hash: u64, key: K, value: V) -> u64 {
        self.shard(hash).lock().expect("cache shard mutex").insert(hash, key, value)
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().expect("cache shard mutex").len()).sum()
    }
}

// ---------------------------------------------------------------------
// Request coalescing
// ---------------------------------------------------------------------

/// A cell shared by every thread waiting on one in-flight compilation.
/// The leader fills it exactly once; waiters block on the condvar and
/// clone the result out.
struct InflightCell<V> {
    result: Mutex<Option<Result<V, CoreError>>>,
    ready: Condvar,
}

impl<V: Clone> InflightCell<V> {
    fn new() -> InflightCell<V> {
        InflightCell { result: Mutex::new(None), ready: Condvar::new() }
    }

    fn wait(&self) -> Result<V, CoreError> {
        let mut result = self.result.lock().expect("in-flight cell mutex");
        while result.is_none() {
            result = self.ready.wait(result).expect("in-flight cell mutex");
        }
        result.as_ref().expect("cell filled").clone()
    }

    fn fill(&self, value: Result<V, CoreError>) {
        let mut result = self.result.lock().expect("in-flight cell mutex");
        debug_assert!(result.is_none(), "an in-flight cell is filled exactly once");
        *result = Some(value);
        self.ready.notify_all();
    }
}

/// The outcome of claiming a key that missed the cache.
enum Claim<'a, K: PartialEq + Clone, V: Clone> {
    /// The leading thread finished between the cache probe and the claim;
    /// the value was re-read from the cache.
    Cached(V),
    /// Another thread is already compiling this key: wait on its cell.
    Coalesced(Arc<InflightCell<V>>),
    /// This thread leads: run the work, then [`LeaderGuard::finish`].
    Leader(LeaderGuard<'a, K, V>),
}

/// One hash bucket of in-flight cells; structural key comparison on
/// probe (hash collisions must not coalesce distinct requests).
type InflightBucket<K, V> = Vec<(K, Arc<InflightCell<V>>)>;

/// The in-flight table for one cache level: content hash → cells.
struct Inflight<K, V> {
    cells: Mutex<HashMap<u64, InflightBucket<K, V>>>,
}

impl<K: PartialEq + Clone, V: Clone> Inflight<K, V> {
    fn new() -> Inflight<K, V> {
        Inflight { cells: Mutex::new(HashMap::new()) }
    }

    /// Claims `key`: coalesce onto an existing cell, or re-probe the
    /// cache (`recheck`, called under the table lock — completion inserts
    /// into the cache *before* retiring its cell, so a vanished cell
    /// guarantees a cache hit here), or become the leader.
    fn claim(&self, hash: u64, key: &K, recheck: impl FnOnce() -> Option<V>) -> Claim<'_, K, V> {
        let mut cells = self.cells.lock().expect("in-flight table mutex");
        if let Some(bucket) = cells.get(&hash) {
            if let Some((_, cell)) = bucket.iter().find(|(k, _)| k == key) {
                return Claim::Coalesced(Arc::clone(cell));
            }
        }
        if let Some(value) = recheck() {
            return Claim::Cached(value);
        }
        let cell = Arc::new(InflightCell::new());
        cells.entry(hash).or_default().push((key.clone(), Arc::clone(&cell)));
        Claim::Leader(LeaderGuard { inflight: self, hash, key: key.clone(), cell, done: false })
    }

    fn remove(&self, hash: u64, key: &K) {
        let mut cells = self.cells.lock().expect("in-flight table mutex");
        if let Some(bucket) = cells.get_mut(&hash) {
            bucket.retain(|(k, _)| k != key);
            if bucket.is_empty() {
                cells.remove(&hash);
            }
        }
    }

    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.cells.lock().expect("in-flight table mutex").is_empty()
    }
}

/// The leader's obligation to publish a result. If the leader panics
/// before [`LeaderGuard::finish`], the drop guard retires the cell with
/// an error so waiters wake instead of blocking forever — and the next
/// request for the key starts a fresh compile (no poisoning).
struct LeaderGuard<'a, K: PartialEq + Clone, V: Clone> {
    inflight: &'a Inflight<K, V>,
    hash: u64,
    key: K,
    cell: Arc<InflightCell<V>>,
    done: bool,
}

impl<K: PartialEq + Clone, V: Clone> LeaderGuard<'_, K, V> {
    /// Retires the cell and wakes every waiter with `result`. On success
    /// the value must already be in the cache: requesters who miss the
    /// cell afterwards re-probe the cache and must find it.
    fn finish(mut self, result: Result<V, CoreError>) {
        self.inflight.remove(self.hash, &self.key);
        self.cell.fill(result);
        self.done = true;
    }
}

impl<K: PartialEq + Clone, V: Clone> Drop for LeaderGuard<'_, K, V> {
    fn drop(&mut self) {
        if !self.done {
            self.inflight.remove(self.hash, &self.key);
            self.cell.fill(Err(CoreError::Ir(
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
    /// Wall-clock spent doing frontend work on misses.
    pub frontend_spent: Duration,
    /// Wall-clock of frontend work *avoided* by hits and coalesced waits
    /// (the recorded cost of each entry) — the measured sweep speedup.
    pub frontend_saved: Duration,
    /// Wall-clock of whole compilations avoided by artifact hits and
    /// coalesced waits.
    pub artifact_saved: Duration,
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

    /// Total requests coalesced onto in-flight work at either level.
    pub fn coalesced(&self) -> u64 {
        self.frontend_coalesced + self.artifact_coalesced
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
        self.frontend_spent += other.frontend_spent;
        self.frontend_saved += other.frontend_saved;
        self.artifact_saved += other.artifact_saved;
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
    evictions: AtomicU64,
    frontend_spent_ns: AtomicU64,
    frontend_saved_ns: AtomicU64,
    artifact_saved_ns: AtomicU64,
    disk_hits: AtomicU64,
    disk_misses: AtomicU64,
    disk_writes: AtomicU64,
    disk_quarantined: AtomicU64,
    disk_evictions: AtomicU64,
}

impl SharedStats {
    fn snapshot(&self) -> CacheStats {
        CacheStats {
            frontend_hits: self.frontend_hits.load(Relaxed),
            frontend_misses: self.frontend_misses.load(Relaxed),
            frontend_coalesced: self.frontend_coalesced.load(Relaxed),
            artifact_hits: self.artifact_hits.load(Relaxed),
            artifact_misses: self.artifact_misses.load(Relaxed),
            artifact_coalesced: self.artifact_coalesced.load(Relaxed),
            evictions: self.evictions.load(Relaxed),
            frontend_spent: Duration::from_nanos(self.frontend_spent_ns.load(Relaxed)),
            frontend_saved: Duration::from_nanos(self.frontend_saved_ns.load(Relaxed)),
            artifact_saved: Duration::from_nanos(self.artifact_saved_ns.load(Relaxed)),
            disk_hits: self.disk_hits.load(Relaxed),
            disk_misses: self.disk_misses.load(Relaxed),
            disk_writes: self.disk_writes.load(Relaxed),
            disk_quarantined: self.disk_quarantined.load(Relaxed),
            disk_evictions: self.disk_evictions.load(Relaxed),
        }
    }

    fn add_duration(counter: &AtomicU64, d: Duration) {
        counter.fetch_add(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX), Relaxed);
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
/// lowered, before any pipeline pass ran.
struct Frontend {
    kernel: TKernel,
    module: Module,
    cost: Duration,
}

/// A cached artifact with the wall-clock its pipeline run cost (the
/// "time saved" accounting for hits and coalesced waits).
type CachedArtifact = (Arc<Compiled>, Duration);

/// Default artifact-cache capacity (compiled artifacts are a few KB).
const DEFAULT_ARTIFACT_CAPACITY: usize = 64;
/// Default frontend-cache capacity (one entry per kernel × captures).
const DEFAULT_FRONTEND_CAPACITY: usize = 16;
/// Default lock-shard count for both caches.
const DEFAULT_SHARDS: usize = 8;

/// Configures and constructs a [`Session`]: cache capacities, lock-shard
/// counts, and extra output backends.
///
/// Backends must be registered **before** the session is shared — a
/// session behind an `Arc` is immutable, which is what makes it safely
/// `Sync`. There is deliberately no `&mut self` registration method on
/// [`Session`].
///
/// ```
/// let session = asdf_core::Session::builder(
///     "qpu k() -> bit[1] { '0' | std.measure }",
/// )
/// .artifact_capacity(128)
/// .shards(4)
/// .build()?;
/// assert!(session.backend_names().contains(&"qasm"));
/// # Ok::<(), asdf_core::CoreError>(())
/// ```
pub struct SessionBuilder {
    source: String,
    frontend_capacity: usize,
    artifact_capacity: usize,
    shards: usize,
    backends: BackendRegistry,
    disk_cache: Option<PathBuf>,
    disk_capacity: usize,
}

impl std::fmt::Debug for SessionBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionBuilder")
            .field("frontend_capacity", &self.frontend_capacity)
            .field("artifact_capacity", &self.artifact_capacity)
            .field("shards", &self.shards)
            .field("backends", &self.backends.names())
            .field("disk_cache", &self.disk_cache)
            .finish_non_exhaustive()
    }
}

impl SessionBuilder {
    fn new(source: &str) -> SessionBuilder {
        let mut backends = BackendRegistry::with_codegen_backends();
        backends.register(Box::new(SimBackend::default()));
        SessionBuilder {
            source: source.to_string(),
            frontend_capacity: DEFAULT_FRONTEND_CAPACITY,
            artifact_capacity: DEFAULT_ARTIFACT_CAPACITY,
            shards: DEFAULT_SHARDS,
            backends,
            disk_cache: None,
            disk_capacity: DEFAULT_DISK_CAPACITY,
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

    /// Lock-shard count for both caches (rounded down to a power of two,
    /// clamped so every shard holds at least one entry). `1` gives a
    /// single global LRU — exact eviction order, no concurrency.
    #[must_use]
    pub fn shards(mut self, shards: usize) -> SessionBuilder {
        self.shards = shards.max(1);
        self
    }

    /// Registers an extra output backend (replacing any with the same
    /// name) — new targets plug in without touching the compiler core.
    #[must_use]
    pub fn backend(mut self, backend: Box<dyn asdf_codegen::Backend>) -> SessionBuilder {
        self.backends.register(backend);
        self
    }

    /// Layers a persistent on-disk artifact cache (rooted at `dir`)
    /// under the in-memory LRU. Compiled artifacts are written to disk
    /// (atomic write-then-rename) and revived on later misses — including
    /// after a process restart or from another process sharing the
    /// directory. Corrupt entries are quarantined, I/O failures degrade
    /// to cache misses, and the [`CacheStats`] `disk_*` counters report
    /// the traffic.
    #[must_use]
    pub fn disk_cache(mut self, dir: impl Into<PathBuf>) -> SessionBuilder {
        self.disk_cache = Some(dir.into());
        self
    }

    /// Bound on live entries in the disk cache directory (default
    /// [`DEFAULT_DISK_CAPACITY`]); the oldest entries are evicted beyond
    /// it.
    #[must_use]
    pub fn disk_cache_capacity(mut self, entries: usize) -> SessionBuilder {
        self.disk_capacity = entries;
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
            Some(dir) => Some(DiskCache::open(&dir, self.disk_capacity).map_err(|e| {
                CoreError::Artifact(asdf_artifact::ArtifactError::Io(format!(
                    "cannot open disk cache at {}: {e}",
                    dir.display()
                )))
            })?),
        };
        Ok(Session {
            source: self.source,
            source_hash,
            program,
            backends: self.backends,
            frontends: ShardedCache::new(self.frontend_capacity, self.shards),
            artifacts: ShardedCache::new(self.artifact_capacity, self.shards),
            frontend_inflight: Inflight::new(),
            artifact_inflight: Inflight::new(),
            stats: SharedStats::default(),
            disk,
        })
    }
}

/// A long-lived, concurrent compilation context over one source program.
///
/// See the [module documentation](self) for the full API tour and the
/// concurrency model (sharded caches, atomic stats, request coalescing).
/// The session is `Sync` and immutable after construction: wrap it in an
/// `Arc` and compile from as many threads as you like. Extra backends
/// must be registered up front through [`Session::builder`].
pub struct Session {
    source: String,
    source_hash: u64,
    program: Program,
    backends: BackendRegistry,
    frontends: ShardedCache<FrontendKey, Arc<Frontend>>,
    artifacts: ShardedCache<ArtifactKey, CachedArtifact>,
    frontend_inflight: Inflight<FrontendKey, Arc<Frontend>>,
    artifact_inflight: Inflight<ArtifactKey, CachedArtifact>,
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
    /// and the default backend registry (`qasm`, `qir-base`,
    /// `qir-unrestricted`, `sim`).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Frontend`] when `source` does not lex or
    /// parse.
    pub fn new(source: &str) -> Result<Session, CoreError> {
        Session::builder(source).build()
    }

    /// A [`SessionBuilder`] over `source`: cache capacities, shard
    /// counts, and extra backends are fixed here, before first use.
    pub fn builder(source: &str) -> SessionBuilder {
        SessionBuilder::new(source)
    }

    /// [`Session::new`] with explicit cache bounds (entries, not bytes).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Frontend`] when `source` does not lex or
    /// parse.
    pub fn with_capacity(
        source: &str,
        frontend_capacity: usize,
        artifact_capacity: usize,
    ) -> Result<Session, CoreError> {
        Session::builder(source)
            .frontend_capacity(frontend_capacity)
            .artifact_capacity(artifact_capacity)
            .build()
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

    /// The parsed program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// A snapshot of the cache counters. Reads atomics only — never
    /// contends with in-flight compiles.
    pub fn cache_stats(&self) -> CacheStats {
        self.stats.snapshot()
    }

    /// Current (frontend, artifact) cache entry counts.
    pub fn cache_len(&self) -> (usize, usize) {
        (self.frontends.len(), self.artifacts.len())
    }

    /// Registered backend names, in registration order.
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
        let frontend_hash = self.request_frontend_hash(request);
        let artifact_hash = artifact_hash(frontend_hash, &request.options);

        // Warm path: pure probe, no allocation.
        let probe = |key: &ArtifactKey| artifact_key_matches(key, self.source_hash, request);
        if let Some((artifact, cost)) = self.artifacts.get(artifact_hash, probe) {
            self.stats.artifact_hits.fetch_add(1, Relaxed);
            SharedStats::add_duration(&self.stats.artifact_saved_ns, cost);
            return Ok(artifact);
        }

        // Cold path: build the owned key, then lead or coalesce.
        let key = self.build_artifact_key(request);
        let claim = self
            .artifact_inflight
            .claim(artifact_hash, &key, || self.artifacts.get(artifact_hash, probe));
        match claim {
            Claim::Cached((artifact, cost)) => {
                self.stats.artifact_hits.fetch_add(1, Relaxed);
                SharedStats::add_duration(&self.stats.artifact_saved_ns, cost);
                Ok(artifact)
            }
            Claim::Coalesced(cell) => {
                self.stats.artifact_coalesced.fetch_add(1, Relaxed);
                let (artifact, cost) = cell.wait()?;
                SharedStats::add_duration(&self.stats.artifact_saved_ns, cost);
                Ok(artifact)
            }
            Claim::Leader(guard) => {
                // Disk layer between the in-memory LRU and the pipeline.
                // Only the leader probes the file, so concurrent identical
                // requests coalesce onto one disk read exactly as they
                // coalesce onto one pipeline run.
                let key_bytes = self.disk.as_ref().map(|_| encode_artifact_key(&key));
                if let (Some(disk), Some(key_bytes)) = (&self.disk, &key_bytes) {
                    let started = Instant::now();
                    match disk.load(artifact_hash, key_bytes) {
                        DiskLookup::Hit(stored) => {
                            self.stats.disk_hits.fetch_add(1, Relaxed);
                            return match self.revive(request, frontend_hash, *stored) {
                                Ok(artifact) => {
                                    let cost = started.elapsed();
                                    let evicted = self.artifacts.insert(
                                        artifact_hash,
                                        key,
                                        (Arc::clone(&artifact), cost),
                                    );
                                    self.stats.evictions.fetch_add(evicted, Relaxed);
                                    guard.finish(Ok((Arc::clone(&artifact), cost)));
                                    Ok(artifact)
                                }
                                Err(e) => {
                                    guard.finish(Err(e.clone()));
                                    Err(e)
                                }
                            };
                        }
                        DiskLookup::Quarantined(_) => {
                            self.stats.disk_quarantined.fetch_add(1, Relaxed);
                            self.stats.disk_misses.fetch_add(1, Relaxed);
                        }
                        DiskLookup::Miss => {
                            self.stats.disk_misses.fetch_add(1, Relaxed);
                        }
                    }
                }
                self.stats.artifact_misses.fetch_add(1, Relaxed);
                let started = Instant::now();
                match self.compile_cold(request, frontend_hash) {
                    Ok(artifact) => {
                        let cost = started.elapsed();
                        // Cache first, then retire the cell: a requester
                        // that misses the cell must find the cache entry.
                        let evicted = self.artifacts.insert(
                            artifact_hash,
                            key,
                            (Arc::clone(&artifact), cost),
                        );
                        self.stats.evictions.fetch_add(evicted, Relaxed);
                        guard.finish(Ok((Arc::clone(&artifact), cost)));
                        // Persist after publishing: a write failure costs
                        // nothing but the persistence.
                        if let (Some(disk), Some(key_bytes)) = (&self.disk, key_bytes) {
                            let stored = compiled_to_artifact(&artifact, key_bytes);
                            if let Some(evicted) = disk.store(artifact_hash, &stored) {
                                self.stats.disk_writes.fetch_add(1, Relaxed);
                                self.stats.disk_evictions.fetch_add(evicted, Relaxed);
                            }
                        }
                        Ok(artifact)
                    }
                    Err(e) => {
                        guard.finish(Err(e.clone()));
                        Err(e)
                    }
                }
            }
        }
    }

    /// Emits a compiled artifact through a registered backend — the one
    /// emission entry point for QASM, QIR, and simulation.
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

    /// The pipeline + reg2mem half of a cold compile, over a (possibly
    /// coalesced) shared frontend.
    fn compile_cold(
        &self,
        request: &CompileRequest,
        frontend_hash: u64,
    ) -> Result<Arc<Compiled>, CoreError> {
        let frontend = self.frontend_for(request, frontend_hash)?;
        let mut module = frontend.module.clone();
        let stats = request.options.pipeline().run(&mut module)?;
        // Lints run over the post-pipeline module: spans survive lowering
        // and conversion, so diagnostics still point at the source, while
        // the analyses see the IR the backends will actually consume.
        let lints = if request.options.lints {
            asdf_analysis::lint_module(&module, &asdf_analysis::LintOptions::default())
        } else {
            Vec::new()
        };
        let entry = module.expect_func(&request.kernel).map_err(CoreError::from)?;
        let circuit = match lower_to_circuit(entry) {
            Ok(raw) => match request.options.decompose {
                Some(style) => Some(decompose(&raw, style)),
                None => Some(raw),
            },
            Err(_) => None,
        };
        // Hardware routing: parse the target unconditionally (a bad name
        // must fail uniformly, circuit or not), then route whatever
        // straight-line circuit exists onto it.
        let (circuit, routing) = match &request.options.target {
            Some(name) => {
                let target = asdf_target::Target::parse(name)?;
                match circuit {
                    Some(c) => {
                        let routed = target.route(&c)?;
                        (Some(routed.circuit), Some(routed.info))
                    }
                    None => (None, None),
                }
            }
            None => (circuit, None),
        };
        Ok(Arc::new(Compiled {
            module,
            entry: request.kernel.clone(),
            circuit,
            routing,
            kernel: frontend.kernel.clone(),
            stats,
            lints,
        }))
    }

    /// Revives a disk-cached artifact into a [`Compiled`]: everything but
    /// the typed kernel comes from the file; the kernel is re-derived
    /// through the (cached, coalesced) frontend. Frontend work is *not*
    /// pipeline work — a revived artifact still counts as "no pipeline
    /// run".
    fn revive(
        &self,
        request: &CompileRequest,
        frontend_hash: u64,
        stored: Artifact,
    ) -> Result<Arc<Compiled>, CoreError> {
        let frontend = self.frontend_for(request, frontend_hash)?;
        Ok(Arc::new(Compiled {
            module: stored.module,
            entry: stored.entry,
            circuit: stored.circuit,
            routing: stored.routing,
            kernel: frontend.kernel.clone(),
            stats: stored.stats,
            lints: stored.lints,
        }))
    }

    /// The persistent disk cache, when one was configured.
    pub fn disk_cache(&self) -> Option<&DiskCache> {
        self.disk.as_ref()
    }

    /// The shared frontend for a request: cache hit, coalesced wait, or a
    /// leading frontend run.
    fn frontend_for(
        &self,
        request: &CompileRequest,
        frontend_hash: u64,
    ) -> Result<Arc<Frontend>, CoreError> {
        let probe = |key: &FrontendKey| frontend_key_matches(key, self.source_hash, request);
        if let Some(frontend) = self.frontends.get(frontend_hash, probe) {
            self.stats.frontend_hits.fetch_add(1, Relaxed);
            SharedStats::add_duration(&self.stats.frontend_saved_ns, frontend.cost);
            return Ok(frontend);
        }
        let key = self.build_frontend_key(request);
        let claim = self
            .frontend_inflight
            .claim(frontend_hash, &key, || self.frontends.get(frontend_hash, probe));
        match claim {
            Claim::Cached(frontend) => {
                self.stats.frontend_hits.fetch_add(1, Relaxed);
                SharedStats::add_duration(&self.stats.frontend_saved_ns, frontend.cost);
                Ok(frontend)
            }
            Claim::Coalesced(cell) => {
                self.stats.frontend_coalesced.fetch_add(1, Relaxed);
                let frontend = cell.wait()?;
                SharedStats::add_duration(&self.stats.frontend_saved_ns, frontend.cost);
                Ok(frontend)
            }
            Claim::Leader(guard) => {
                self.stats.frontend_misses.fetch_add(1, Relaxed);
                let dims = request.effective_dims();
                match self.run_frontend(&request.kernel, &request.captures, &dims) {
                    Ok(frontend) => {
                        let frontend = Arc::new(frontend);
                        SharedStats::add_duration(&self.stats.frontend_spent_ns, frontend.cost);
                        let evicted =
                            self.frontends.insert(frontend_hash, key, Arc::clone(&frontend));
                        self.stats.evictions.fetch_add(evicted, Relaxed);
                        guard.finish(Ok(Arc::clone(&frontend)));
                        Ok(frontend)
                    }
                    Err(e) => {
                        guard.finish(Err(e.clone()));
                        Err(e)
                    }
                }
            }
        }
    }

    /// Hashes the frontend-relevant parts of a request in place (no
    /// owned key, no allocation).
    fn request_frontend_hash(&self, request: &CompileRequest) -> u64 {
        let mut h = Fnv::new();
        h.write_u64(self.source_hash);
        h.write_usize(request.kernel.len());
        h.write(request.kernel.as_bytes());
        h.write_usize(request.captures.len());
        for c in &request.captures {
            hash_capture(c, &mut h);
        }
        h.write_usize(effective_dims_len(&request.options.dims, &request.dims));
        for_each_effective_dim(&request.options.dims, &request.dims, |k, v| {
            h.write_usize(k.len());
            h.write(k.as_bytes());
            h.write_i64(v);
        });
        h.finish()
    }

    /// Builds the owned frontend key (cold path only).
    fn build_frontend_key(&self, request: &CompileRequest) -> FrontendKey {
        let mut dims = Vec::with_capacity(effective_dims_len(&request.options.dims, &request.dims));
        for_each_effective_dim(&request.options.dims, &request.dims, |k, v| {
            dims.push((k.to_string(), v));
        });
        FrontendKey {
            source_hash: self.source_hash,
            kernel: request.kernel.clone(),
            captures: request.captures.clone(),
            dims,
        }
    }

    /// Builds the owned artifact key (cold path only).
    fn build_artifact_key(&self, request: &CompileRequest) -> ArtifactKey {
        let CompileOptions {
            inline,
            peephole,
            decompose,
            verify,
            dims: _,
            rewrite_fuel,
            lints,
            target,
        } = &request.options;
        ArtifactKey {
            frontend: self.build_frontend_key(request),
            inline: *inline,
            peephole: *peephole,
            decompose: decompose_tag(*decompose),
            verify: *verify,
            rewrite_fuel: *rewrite_fuel,
            lints: *lints,
            target: target.clone(),
        }
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
        let started = Instant::now();
        let instance = instantiate(&self.program, kernel_name, captures, dims)?;
        let mut kernel = typecheck_kernel(&self.program, kernel_name, &instance)?;
        ast_canonicalize(&mut kernel);

        let mut module = Module::new();
        for referenced in referenced_kernels(&kernel) {
            if module.contains(&referenced) {
                continue;
            }
            let sub_instance = instantiate(&self.program, &referenced, &[], dims)?;
            let mut sub = typecheck_kernel(&self.program, &referenced, &sub_instance)?;
            ast_canonicalize(&mut sub);
            lower_kernel(&sub, &mut module)?;
        }
        lower_kernel(&kernel, &mut module)?;

        Ok(Frontend { kernel, module, cost: started.elapsed() })
    }
}

/// The hash of an artifact key: the frontend content hash extended with
/// every pipeline option that changes the produced IR.
fn artifact_hash(frontend_hash: u64, options: &CompileOptions) -> u64 {
    let CompileOptions {
        inline,
        peephole,
        decompose,
        verify,
        dims: _,
        rewrite_fuel,
        lints,
        target,
    } = options;
    let mut h = Fnv::new();
    h.write_u64(frontend_hash);
    h.write_u8(u8::from(*inline));
    h.write_u8(u8::from(*peephole));
    h.write_u8(decompose_tag(*decompose));
    h.write_u8(u8::from(*verify));
    h.write_u8(u8::from(*lints));
    match rewrite_fuel {
        None => h.write_u8(0),
        Some(fuel) => {
            h.write_u8(1);
            h.write_u64(*fuel);
        }
    }
    match target {
        None => h.write_u8(0),
        Some(name) => {
            h.write_u8(1);
            h.write_usize(name.len());
            h.write(name.as_bytes());
        }
    }
    h.finish()
}

/// Converts a compiled result into its serializable artifact form. The
/// typed kernel is deliberately not serialized: it is re-derived through
/// the frontend on revival, which keeps the format free of AST
/// internals. `key` holds the canonical cache-key bytes the disk cache
/// verifies on load; pass an empty vec when only the content hash
/// matters.
pub fn compiled_to_artifact(compiled: &Compiled, key: Vec<u8>) -> Artifact {
    Artifact {
        entry: compiled.entry.clone(),
        module: compiled.module.clone(),
        circuit: compiled.circuit.clone(),
        routing: compiled.routing.clone(),
        stats: compiled.stats.clone(),
        lints: compiled.lints.clone(),
        key,
    }
}

/// Canonical byte encoding of an [`ArtifactKey`]: two structurally equal
/// keys encode identically, and any difference (kernel, captures, sorted
/// dims, or any pipeline option) changes the bytes. Stored inside each
/// disk entry so a lookup verifies the full key rather than trusting the
/// 64-bit filename hash.
fn encode_artifact_key(key: &ArtifactKey) -> Vec<u8> {
    let mut e = asdf_artifact::Encoder::new();
    e.u64(key.frontend.source_hash);
    e.str(&key.frontend.kernel);
    e.usize(key.frontend.captures.len());
    for capture in &key.frontend.captures {
        encode_capture(&mut e, capture);
    }
    e.usize(key.frontend.dims.len());
    for (name, value) in &key.frontend.dims {
        e.str(name);
        e.i64(*value);
    }
    e.bool(key.inline);
    e.bool(key.peephole);
    e.u8(key.decompose);
    e.bool(key.verify);
    e.bool(key.lints);
    match key.rewrite_fuel {
        None => e.u8(0),
        Some(fuel) => {
            e.u8(1);
            e.u64(fuel);
        }
    }
    match &key.target {
        None => e.u8(0),
        Some(name) => {
            e.u8(1);
            e.str(name);
        }
    }
    e.into_bytes()
}

fn encode_capture(e: &mut asdf_artifact::Encoder, capture: &CaptureValue) {
    match capture {
        CaptureValue::Bits(bits) => {
            e.u8(0);
            e.usize(bits.len());
            for bit in bits {
                e.bool(*bit);
            }
        }
        CaptureValue::CFunc { name, captures } => {
            e.u8(1);
            e.str(name);
            e.usize(captures.len());
            for nested in captures {
                encode_capture(e, nested);
            }
        }
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
    use std::sync::mpsc;

    const _: () = {
        const fn assert_sync<T: Sync + Send>() {}
        assert_sync::<Session>()
    };

    #[test]
    fn lru_bounds_and_evicts_stalest() {
        let mut lru: Lru<u32, u32> = Lru::new(2);
        lru.insert(1, 1, 10);
        lru.insert(2, 2, 20);
        assert_eq!(lru.get(1, |k| *k == 1), Some(&10)); // 1 is now fresher than 2
        assert_eq!(lru.insert(3, 3, 30), 1);
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.get(2, |k| *k == 2), None, "stalest entry evicted");
        assert_eq!(lru.get(1, |k| *k == 1), Some(&10));
        assert_eq!(lru.get(3, |k| *k == 3), Some(&30));
    }

    #[test]
    fn lru_disambiguates_hash_collisions_structurally() {
        let mut lru: Lru<&str, u32> = Lru::new(4);
        // Two distinct keys sharing one content hash must coexist.
        lru.insert(7, "a", 1);
        lru.insert(7, "b", 2);
        assert_eq!(lru.get(7, |k| *k == "a"), Some(&1));
        assert_eq!(lru.get(7, |k| *k == "b"), Some(&2));
        assert_eq!(lru.get(7, |k| *k == "c"), None);
        // Replacing an existing key does not grow the cache.
        lru.insert(7, "a", 9);
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.get(7, |k| *k == "a"), Some(&9));
    }

    #[test]
    fn shard_counts_are_powers_of_two_within_capacity() {
        assert_eq!(shard_count(8, 64), 8);
        assert_eq!(shard_count(8, 2), 2);
        assert_eq!(shard_count(8, 3), 2);
        assert_eq!(shard_count(5, 64), 4);
        assert_eq!(shard_count(1, 64), 1);
        assert_eq!(shard_count(8, 0), 1);
    }

    #[test]
    fn sharded_cache_capacity_is_global() {
        let cache: ShardedCache<u64, u64> = ShardedCache::new(6, 4);
        let mut evictions = 0;
        for i in 0..32u64 {
            evictions += cache.insert(i, i, i);
        }
        assert!(cache.len() <= 6, "global bound holds, got {}", cache.len());
        assert_eq!(evictions + cache.len() as u64, 32);
    }

    #[test]
    fn capture_hashing_distinguishes_shapes() {
        let bits = CaptureValue::bits_from_str("101");
        let cfunc = CaptureValue::CFunc { name: "f".into(), captures: vec![bits.clone()] };
        let hash = |c: &CaptureValue| {
            let mut h = Fnv::new();
            hash_capture(c, &mut h);
            h.finish()
        };
        assert_ne!(hash(&bits), hash(&cfunc));
        assert_eq!(hash(&bits), hash(&CaptureValue::bits_from_str("101")));
        assert_ne!(hash(&bits), hash(&CaptureValue::bits_from_str("1010")));
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
        let stored = seen;
        assert!(dims_match(&stored, &options, &request));
        assert!(!dims_match(&stored, &options, &HashMap::new()));
    }

    #[test]
    fn inflight_coalesces_then_retires_deterministically() {
        let inflight: Inflight<u32, u32> = Inflight::new();
        let leader = match inflight.claim(1, &42, || None) {
            Claim::Leader(guard) => guard,
            _ => panic!("first claim leads"),
        };
        // A second claim for the same key coalesces onto the cell.
        let cell = match inflight.claim(1, &42, || None) {
            Claim::Coalesced(cell) => cell,
            _ => panic!("second claim coalesces"),
        };
        // A different key under the same hash is its own leader.
        let other = match inflight.claim(1, &43, || None) {
            Claim::Leader(guard) => guard,
            _ => panic!("distinct keys never coalesce, even on hash collision"),
        };
        let (tx, rx) = mpsc::channel();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                tx.send(cell.wait()).expect("send waiter result");
            });
            leader.finish(Ok(7));
        });
        assert_eq!(rx.recv().expect("waiter finished"), Ok(7));
        other.finish(Ok(8));
        assert!(inflight.is_empty(), "all cells retired");
        // The key is claimable again — nothing was poisoned.
        assert!(matches!(inflight.claim(1, &42, || None), Claim::Leader(_)));
    }

    #[test]
    fn inflight_errors_reach_waiters_without_poisoning() {
        let inflight: Inflight<u32, u32> = Inflight::new();
        let leader = match inflight.claim(9, &1, || None) {
            Claim::Leader(guard) => guard,
            _ => panic!("leads"),
        };
        let cell = match inflight.claim(9, &1, || None) {
            Claim::Coalesced(cell) => cell,
            _ => panic!("coalesces"),
        };
        leader.finish(Err(CoreError::Ir("boom".into())));
        assert_eq!(cell.wait(), Err(CoreError::Ir("boom".into())));
        // Retry is clean: the next claim leads again.
        assert!(matches!(inflight.claim(9, &1, || None), Claim::Leader(_)));
    }

    #[test]
    fn inflight_leader_panic_wakes_waiters() {
        let inflight: Inflight<u32, u32> = Inflight::new();
        let leader = match inflight.claim(3, &5, || None) {
            Claim::Leader(guard) => guard,
            _ => panic!("leads"),
        };
        let cell = match inflight.claim(3, &5, || None) {
            Claim::Coalesced(cell) => cell,
            _ => panic!("coalesces"),
        };
        // Simulate the leading thread dying before finish().
        drop(leader);
        let err = cell.wait().expect_err("abandoned cell delivers an error");
        assert!(err.to_string().contains("abandoned"), "{err}");
        assert!(inflight.is_empty());
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
        // from disk: frontend work runs, the pipeline does not.
        let second = Session::builder(source).disk_cache(&dir).build().expect("rebuild");
        let revived = second.compile(&request).expect("revived compile");
        let stats = second.cache_stats();
        assert_eq!(stats.disk_hits, 1, "restart serves from disk");
        assert_eq!(stats.artifact_misses, 0, "no pipeline run after restart");
        assert_eq!(revived.entry, cold.entry);
        assert_eq!(revived.circuit, cold.circuit);
        assert_eq!(revived.module.funcs(), cold.module.funcs());
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

    #[test]
    fn inflight_recheck_runs_under_the_table_lock() {
        let inflight: Inflight<u32, u32> = Inflight::new();
        // No cell and a recheck hit: the claim reports Cached.
        match inflight.claim(2, &2, || Some(11)) {
            Claim::Cached(v) => assert_eq!(v, 11),
            _ => panic!("recheck hit short-circuits leadership"),
        }
        assert!(inflight.is_empty(), "a cached claim registers nothing");
    }
}
