//! The compile-server front door.
//!
//! [`CompileServer`] multiplexes any number of clients onto shared
//! [`Session`]s — one session per distinct source text, each internally
//! concurrent (sharded caches + request coalescing), so identical
//! requests from different connections share one pipeline run. The wire
//! protocol is line-delimited JSON (see [`proto`]), served either over
//! TCP (thread per connection) or stdio; the `compile-server` binary
//! wires up both.
//!
//! ```text
//! → {"op":"compile","source":"qpu k() -> bit[1] { '0' | std.measure }","kernel":"k"}
//! ← {"ok":true,"entry":"k","circuit":{"qubits":1,"bits":1,"ops":2}}
//! ```

#![deny(clippy::print_stdout, clippy::print_stderr)]
#![forbid(dead_code)]

pub mod json;
pub mod proto;

use asdf_core::{CacheStats, CoreError, DiskCache, Session};
use json::Value;
use proto::{CompileCall, Request};
use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Default bound on concurrently live sessions (distinct source texts).
pub const DEFAULT_SESSION_CAPACITY: usize = 8;

/// The per-target counter key for untargeted (all-to-all) compiles.
pub(crate) const ALL_TO_ALL: &str = "all-to-all";

/// A multi-tenant compile server: a bounded registry of shared sessions
/// keyed by source text, plus the line-protocol dispatcher.
pub struct CompileServer {
    registry: Mutex<Registry>,
    /// Successful compiles per hardware target (ALL_TO_ALL when none),
    /// surviving session eviction — stats report the server's lifetime.
    target_counts: Mutex<BTreeMap<String, u64>>,
    /// The persistent artifact store every session is layered over, when
    /// the server was started with a cache directory.
    disk: Option<DiskCache>,
}

/// LRU over live sessions: the session itself is the unit of eviction
/// (its internal caches are bounded separately).
struct Registry {
    sessions: HashMap<String, (Arc<Session>, u64)>,
    tick: u64,
    capacity: usize,
    /// The counters of evicted sessions, as they stood at eviction.
    retired: CacheStats,
}

impl Default for CompileServer {
    fn default() -> Self {
        CompileServer::new()
    }
}

impl CompileServer {
    /// A server holding up to [`DEFAULT_SESSION_CAPACITY`] sessions.
    pub fn new() -> CompileServer {
        CompileServer::with_session_capacity(DEFAULT_SESSION_CAPACITY)
    }

    /// A server holding up to `capacity` distinct-source sessions; the
    /// least-recently-used session is dropped beyond that.
    pub fn with_session_capacity(capacity: usize) -> CompileServer {
        CompileServer {
            registry: Mutex::new(Registry {
                sessions: HashMap::new(),
                tick: 0,
                capacity: capacity.max(1),
                retired: CacheStats::default(),
            }),
            target_counts: Mutex::new(BTreeMap::new()),
            disk: None,
        }
    }

    /// Layers every session over a persistent artifact cache rooted at
    /// `dir`, so compiled artifacts survive server restarts: a restarted
    /// server pointed at the same directory serves previously compiled
    /// requests from disk without re-running the pipeline.
    ///
    /// # Errors
    ///
    /// Fails (as an artifact-storage [`CoreError`]) when the directory
    /// cannot be created.
    pub fn with_cache_dir(mut self, dir: impl Into<PathBuf>) -> Result<CompileServer, CoreError> {
        let dir = dir.into();
        let cache =
            DiskCache::open(&dir, asdf_core::diskcache::DEFAULT_DISK_CAPACITY).map_err(|e| {
                CoreError::Artifact(asdf_artifact::ArtifactError::Io(format!(
                    "cannot open disk cache at {}: {e}",
                    dir.display()
                )))
            })?;
        self.disk = Some(cache);
        Ok(self)
    }

    /// The configured cache directory, if any.
    pub fn cache_dir(&self) -> Option<&Path> {
        self.disk.as_ref().map(DiskCache::dir)
    }

    /// The shared session for `source`, created (and cached) on first use.
    ///
    /// The registry lock covers session construction, so concurrent
    /// first requests for one source build it once; construction is a
    /// parse only (compilation happens lazily per request), so the
    /// critical section stays short.
    pub(crate) fn session(&self, source: &str) -> Result<Arc<Session>, CoreError> {
        let mut registry = self.registry.lock().expect("registry lock");
        registry.tick += 1;
        let tick = registry.tick;
        if let Some((session, stamp)) = registry.sessions.get_mut(source) {
            *stamp = tick;
            return Ok(Arc::clone(session));
        }
        let mut builder = Session::builder(source);
        if let Some(disk) = &self.disk {
            builder = builder.disk_cache(disk.dir());
        }
        let session = Arc::new(builder.build()?);
        if registry.sessions.len() >= registry.capacity {
            if let Some(stalest) = registry
                .sessions
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(key, _)| key.clone())
            {
                if let Some((evicted, _)) = registry.sessions.remove(&stalest) {
                    registry.retired.merge(&evicted.cache_stats());
                }
            }
        }
        registry.sessions.insert(source.to_string(), (Arc::clone(&session), tick));
        Ok(session)
    }

    /// The number of live sessions.
    pub fn session_count(&self) -> usize {
        self.registry.lock().expect("registry lock").sessions.len()
    }

    /// The number of live sessions, and cache counters over the server's
    /// lifetime: every live session's plus those of evicted sessions as
    /// they stood at eviction.
    pub fn stats(&self) -> (usize, CacheStats) {
        let registry = self.registry.lock().expect("registry lock");
        let mut merged = registry.retired;
        for (session, _) in registry.sessions.values() {
            merged.merge(&session.cache_stats());
        }
        (registry.sessions.len(), merged)
    }

    /// Handles one request line and returns one response line (no
    /// trailing newline). Never panics on malformed input: every failure
    /// becomes an `{"ok":false,…}` response.
    pub fn handle_line(&self, line: &str) -> String {
        let response = match proto::parse_request(line) {
            Err(error) => protocol_error(&error),
            Ok(Request::Stats) => self.handle_stats(),
            Ok(Request::Compile(call)) => self.handle_compile(&call),
            Ok(Request::Emit(call, backend)) => self.handle_emit(&call, &backend),
            Ok(Request::Lint(call)) => self.handle_lint(&call),
        };
        response.to_string()
    }

    fn handle_compile(&self, call: &CompileCall) -> Value {
        match self.compile(call) {
            Err(response) => response,
            Ok((_, artifact)) => {
                let circuit = match &artifact.circuit {
                    None => Value::Null,
                    Some(circuit) => Value::Object(vec![
                        ("qubits".into(), Value::int(circuit.num_qubits as i64)),
                        ("bits".into(), Value::int(circuit.num_bits() as i64)),
                        ("ops".into(), Value::int(circuit.ops().len() as i64)),
                    ]),
                };
                let routing = match &artifact.routing {
                    None => Value::Null,
                    Some(info) => Value::Object(vec![
                        ("target".into(), Value::str(&info.target)),
                        ("swaps".into(), Value::int(info.swap_count as i64)),
                        ("unrouted_depth".into(), Value::int(info.unrouted_depth as i64)),
                        ("routed_depth".into(), Value::int(info.routed_depth as i64)),
                    ]),
                };
                Value::Object(vec![
                    ("ok".into(), Value::Bool(true)),
                    ("entry".into(), Value::str(&artifact.entry)),
                    ("circuit".into(), circuit),
                    ("routing".into(), routing),
                ])
            }
        }
    }

    fn handle_emit(&self, call: &CompileCall, backend: &str) -> Value {
        match self.compile(call) {
            Err(response) => response,
            Ok((session, artifact)) => match session.emit(&artifact, backend) {
                Ok(text) => Value::Object(vec![
                    ("ok".into(), Value::Bool(true)),
                    ("backend".into(), Value::str(backend)),
                    ("text".into(), Value::String(text)),
                ]),
                Err(error) => compiler_error(&error),
            },
        }
    }

    fn handle_lint(&self, call: &CompileCall) -> Value {
        match self.compile(call) {
            Err(response) => response,
            Ok((session, artifact)) => {
                let warnings = artifact
                    .lints
                    .iter()
                    .map(|d| {
                        Value::Object(vec![
                            ("code".into(), Value::str(d.code)),
                            ("message".into(), Value::str(&d.message)),
                            ("rendered".into(), Value::String(d.render(session.source()))),
                        ])
                    })
                    .collect();
                Value::Object(vec![
                    ("ok".into(), Value::Bool(true)),
                    ("entry".into(), Value::str(&artifact.entry)),
                    ("warnings".into(), Value::Array(warnings)),
                ])
            }
        }
    }

    fn handle_stats(&self) -> Value {
        let (sessions, stats) = self.stats();
        let targets = self
            .target_counts
            .lock()
            .expect("target counter lock")
            .iter()
            .map(|(name, count)| (name.clone(), Value::int(*count as i64)))
            .collect();
        Value::Object(vec![
            ("ok".into(), Value::Bool(true)),
            ("sessions".into(), Value::int(sessions as i64)),
            ("targets".into(), Value::Object(targets)),
            ("frontend_hits".into(), Value::int(stats.frontend_hits as i64)),
            ("frontend_misses".into(), Value::int(stats.frontend_misses as i64)),
            ("frontend_coalesced".into(), Value::int(stats.frontend_coalesced as i64)),
            ("artifact_hits".into(), Value::int(stats.artifact_hits as i64)),
            ("artifact_misses".into(), Value::int(stats.artifact_misses as i64)),
            ("artifact_coalesced".into(), Value::int(stats.artifact_coalesced as i64)),
            ("evictions".into(), Value::int(stats.evictions as i64)),
            ("disk_hits".into(), Value::int(stats.disk_hits as i64)),
            ("disk_misses".into(), Value::int(stats.disk_misses as i64)),
            ("disk_writes".into(), Value::int(stats.disk_writes as i64)),
            ("disk_quarantined".into(), Value::int(stats.disk_quarantined as i64)),
            ("disk_evictions".into(), Value::int(stats.disk_evictions as i64)),
            (
                "cache_dir".into(),
                match &self.disk {
                    None => Value::Null,
                    Some(disk) => {
                        let (entries, bytes) = disk.usage();
                        Value::Object(vec![
                            ("path".into(), Value::String(disk.dir().display().to_string())),
                            ("entries".into(), Value::int(entries as i64)),
                            ("bytes".into(), Value::int(bytes as i64)),
                        ])
                    }
                },
            ),
        ])
    }

    /// Shared compile path for `compile` and `emit`: resolves the
    /// session, runs the (cached, coalesced) compile, and converts any
    /// failure into its wire form.
    fn compile(
        &self,
        call: &CompileCall,
    ) -> Result<(Arc<Session>, Arc<asdf_core::Compiled>), Value> {
        let session = self.session(&call.source).map_err(|e| compiler_error(&e))?;
        let artifact = session.compile(&call.request).map_err(|e| compiler_error(&e))?;
        let key = call.request.options.target.as_deref().unwrap_or(ALL_TO_ALL);
        *self
            .target_counts
            .lock()
            .expect("target counter lock")
            .entry(key.to_string())
            .or_default() += 1;
        Ok((session, artifact))
    }

    /// Serves line-delimited requests from `input` to `output` until EOF.
    pub fn serve<R: BufRead, W: Write>(&self, input: R, mut output: W) -> std::io::Result<()> {
        for line in input.lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            output.write_all(self.handle_line(&line).as_bytes())?;
            output.write_all(b"\n")?;
            output.flush()?;
        }
        Ok(())
    }

    /// Accept loop: one thread per connection, all sharing `self` (and
    /// therefore one session registry, one set of caches).
    pub fn serve_listener(self: &Arc<Self>, listener: TcpListener) -> std::io::Result<()> {
        loop {
            let (stream, _peer) = listener.accept()?;
            let server = Arc::clone(self);
            std::thread::spawn(move || {
                let _ = server.serve_connection(stream);
            });
        }
    }

    /// Serves one TCP connection.
    pub(crate) fn serve_connection(&self, stream: TcpStream) -> std::io::Result<()> {
        let reader = BufReader::new(stream.try_clone()?);
        self.serve(reader, stream)
    }
}

fn protocol_error(error: &str) -> Value {
    Value::Object(vec![("ok".into(), Value::Bool(false)), ("error".into(), Value::str(error))])
}

fn compiler_error(error: &CoreError) -> Value {
    Value::Object(vec![
        ("ok".into(), Value::Bool(false)),
        ("error".into(), Value::String(error.to_string())),
        ("code".into(), Value::str(error.code())),
    ])
}
