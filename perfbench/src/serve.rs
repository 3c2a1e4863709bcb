//! `serve_mix` and `serve_tcp`: the compile server under two closed-loop
//! clients (callers such as build tools wait for each reply).
//!
//! `serve_mix` calls `CompileServer::handle_line` in process. A seeded
//! schedule sends mostly hot repeats of a working set that fits the
//! caches, a cold tail of new captures, dims, options and sources that
//! overflows the 8-session registry and the per-shard LRUs, emits through
//! every backend (with a small named share of `sim` emits of
//! reset-bearing programs), `lint`, `stats`, and invalid requests with
//! known E-codes. It is the only workload where the session caches,
//! coalescing, the disk cache, the artifact codec and the JSON layer serve
//! reads and writes together.
//!
//! `serve_tcp` puts the same server behind `serve_listener` on
//! `127.0.0.1:0` and sends only cheap hot requests over two persistent
//! connections plus a share of one-shot connections, which isolates the
//! transport.

use crate::json::{self, Json};
use crate::programs::{check_emitted, parse_sim_text, request_line, Program};
use crate::report::{Metric, Quality, Rng};
use crate::trace::{TraceSummary, Tracer, OP};
use crate::{Phase, Workload};
use asdf_baselines::Benchmark;
use asdf_core::{CompileOptions, DecomposeStyle, Session};
use asdf_server::CompileServer;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Closed-loop clients (the box has 2 cores).
const CLIENTS: usize = 2;

/// Request classes, each with its own span name in the traced run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Hot,
    Cold,
    Emit,
    Sim,
    Lint,
    Stats,
    Invalid,
}

impl Class {
    fn span(self) -> &'static str {
        match self {
            Class::Hot => "server.class.hot",
            Class::Cold => "server.class.cold",
            Class::Emit => "server.class.emit",
            Class::Sim => "server.class.sim",
            Class::Lint => "server.class.lint",
            Class::Stats => "server.class.stats",
            Class::Invalid => "server.class.invalid",
        }
    }
}

/// The response a request must get.
#[derive(Debug, Clone)]
enum Expect {
    /// `ok`, with a circuit measuring this many bits.
    Compile(usize),
    /// `ok`, with text from `backend` that declares the program's bits,
    /// or for `sim` encodes the program's known answer.
    Emit(Box<Program>, &'static str),
    /// `ok`, with no warnings: every program here is clean.
    Lint,
    /// `ok`, with cache counters.
    Stats,
    /// `ok:false` with exactly this E-code.
    Error(&'static str),
    /// `ok:false` with some E-code. Used for the N=40 `sim` emit, which
    /// panics today.
    AnyError,
}

#[derive(Debug, Clone)]
struct Req {
    line: String,
    expect: Expect,
}

/// Checks one response line against its expectation.
fn check(response: &str, expect: &Expect) -> Result<(), String> {
    let value = json::parse(response).map_err(|e| format!("unparseable response: {e}"))?;
    let ok = value.get("ok").and_then(Json::as_bool);
    let code = value.get("code").and_then(Json::as_str);
    let fail = |why: &str| Err(format!("{why}: {}", truncate(response)));
    match expect {
        Expect::Error(want) => {
            if ok != Some(false) || code != Some(want) {
                return fail(&format!("expected error {want}"));
            }
        }
        Expect::AnyError => {
            if ok != Some(false) || !code.is_some_and(|c| c.starts_with('E')) {
                return fail("expected an error with an E-code");
            }
        }
        _ if ok != Some(true) => return fail("expected ok"),
        Expect::Compile(bits) => {
            let got = value.get("circuit").and_then(|c| c.get("bits")).and_then(Json::as_u64);
            if got != Some(*bits as u64) {
                return fail(&format!("expected a circuit measuring {bits} bits"));
            }
        }
        Expect::Emit(program, backend) => {
            let text = value.get("text").and_then(Json::as_str).ok_or("emit without text")?;
            if *backend == "sim" {
                program.check_answer(&parse_sim_text(text)?)?;
            } else {
                check_emitted(backend, text, program.expected_bits())?;
            }
        }
        Expect::Lint => {
            if value.get("warnings") != Some(&Json::Arr(Vec::new())) {
                return fail("expected no lint warnings");
            }
        }
        Expect::Stats => {
            if value.get("artifact_hits").and_then(Json::as_u64).is_none() {
                return fail("expected cache counters");
            }
        }
    }
    Ok(())
}

fn truncate(s: &str) -> &str {
    &s[..s.len().min(160)]
}

/// A hot key: a program and the options it is compiled with.
struct HotKey {
    program: Program,
    options: CompileOptions,
}

fn options(decompose: Option<DecomposeStyle>, target: Option<&str>) -> CompileOptions {
    CompileOptions { decompose, target: target.map(str::to_string), ..CompileOptions::default() }
}

/// The working set: small enough for the 8-session registry (five
/// sources) and the per-session caches.
fn hot_keys(seed: u64) -> Vec<HotKey> {
    let mut rng = Rng::new(seed, 4);
    let sel = Some(DecomposeStyle::Selinger);
    let mut keys = Vec::new();
    let mut add =
        |program: Program, options: CompileOptions| keys.push(HotKey { program, options });
    for n in [8, 12, 16, 24, 8, 12, 16, 24] {
        add(Program::seeded("bv", n, &mut rng), options(sel, None));
    }
    // Routed keys use programs without seeded parameters, so SWAP totals
    // are the same for every seed.
    add(Program::seeded("dj", 12, &mut rng), options(sel, Some("grid-4x4")));
    add(Program::grover(4, 2), options(sel, Some("linear-16")));
    for n in [8, 16, 32] {
        add(Program::seeded("dj", n, &mut rng), options(sel, None));
    }
    add(Program::seeded("dj", 8, &mut rng), options(Some(DecomposeStyle::VChain), None));
    for (n, iters) in [(4, 1), (4, 2), (6, 1)] {
        add(Program::grover(n, iters), options(sel, None));
    }
    add(Program::seeded("simon", 4, &mut rng), options(sel, None));
    add(Program::seeded("simon", 8, &mut rng), options(sel, None));
    add(Program::seeded("simon", 6, &mut rng), options(sel, None));
    for n in [8, 64, 256] {
        add(Program::seeded("p", n, &mut rng), options(sel, None));
    }
    keys
}

/// The `sim` share: BV at N=4 with four seeded secrets. Every one is a
/// reset-bearing circuit of the same size whose emit samples 4096 shots
/// (~15 ms on a 2-core x86-64 VM), so the share is one latency class and
/// p99, which falls inside it, does not flip between programs.
fn sim_keys(seed: u64) -> Vec<HotKey> {
    // Four distinct secrets, so the share always holds four circuits.
    let mut secrets: Vec<u64> = (0..16).collect();
    Rng::new(seed, 5).shuffle(&mut secrets);
    secrets[..4]
        .iter()
        .map(|&secret| HotKey {
            program: Program::paper(Benchmark::Bv {
                secret: (0..4).map(|i| (secret >> i) & 1 == 1).collect(),
            }),
            options: CompileOptions::default(),
        })
        .collect()
}

fn compile_req(key: &HotKey) -> Req {
    Req {
        line: request_line(&key.program, &key.program.source, "compile", None, &key.options),
        expect: Expect::Compile(key.program.expected_bits()),
    }
}

fn emit_req(key: &HotKey, backend: &'static str) -> Req {
    Req {
        line: request_line(&key.program, &key.program.source, "emit", Some(backend), &key.options),
        expect: Expect::Emit(Box::new(key.program.clone()), backend),
    }
}

/// Invalid requests with known E-codes, and the N=40 `sim` emit.
fn invalid_reqs() -> Vec<Req> {
    let bv = Program::paper(Benchmark::Bv { secret: vec![true, false, true] });
    // A kernel whose body measures one bit but whose signature returns two.
    let mistyped = Program {
        source: "qpu bad() -> bit[2] { 'p' | std.measure }".to_string(),
        kernel: "bad",
        ..Program::plus(2)
    };
    let plus40 = Program::plus(40);
    let defaults = CompileOptions::default();
    let bad_target = options(Some(DecomposeStyle::Selinger), Some("torus-9"));
    let req = |program: &Program, source: &str, op: &str, backend, options, expect| Req {
        line: request_line(program, source, op, backend, options),
        expect,
    };
    vec![
        req(&mistyped, &mistyped.source, "compile", None, &defaults, Expect::Error("E0004")),
        req(&bv, "qpu broken( -> bit[1] {", "compile", None, &defaults, Expect::Error("E0002")),
        req(&bv, &bv.source, "compile", None, &bad_target, Expect::Error("E0105")),
        req(&bv, &bv.source, "emit", Some("qasm4"), &defaults, Expect::Error("E0104")),
        req(&plus40, &plus40.source, "emit", Some("sim"), &defaults, Expect::AnyError),
    ]
}

/// Cold key `key` (below `COLD_KEYS`): captures, dims, options or a source
/// the hot set never uses. A quarter of the bv/simon keys, and every dj/p
/// key, come on a source text of their own, so the session registry
/// churns.
fn cold_req(seed: u64, key: u64) -> Req {
    let mut rng = Rng::new(seed ^ key.wrapping_mul(0xd6e8_feb8_6659_fd93), 6);
    let family = ["bv", "bv", "simon", "dj", "p"][rng.below(5)];
    let n = match family {
        "bv" => 24 + rng.below(8),
        "simon" => 24 + rng.below(4),
        "dj" => 8 + rng.below(17),
        _ => 16 + rng.below(49),
    };
    let mut program = Program::seeded(family, n, &mut rng);
    if matches!(family, "bv" | "simon") {
        // Bits 1..=23 of the secret spell the key number, so no two keys
        // collide; bit 0 is 1, as the Simon oracle family requires.
        let secret: Vec<bool> = (0..n)
            .map(|i| match i {
                0 => true,
                1..=23 => (key >> (i - 1)) & 1 == 1,
                _ => rng.below(2) == 1,
            })
            .collect();
        program = Program::paper(match family {
            "bv" => Benchmark::Bv { secret },
            _ => Benchmark::Simon { secret },
        });
    }
    let decompose =
        [None, Some(DecomposeStyle::Selinger), Some(DecomposeStyle::VChain)][rng.below(3)];
    let mut opts = options(decompose, None);
    opts.peephole = rng.below(4) != 0;
    let new_source = matches!(family, "dj" | "p") || rng.below(4) == 0;
    let source = if new_source {
        format!("# cold request {seed} {key}\n{}", program.source)
    } else {
        program.source.clone()
    };
    Req {
        line: request_line(&program, &source, "compile", None, &opts),
        expect: Expect::Compile(program.expected_bits()),
    }
}

/// Schedule slots per pass and each class's count in a pass. Classes are
/// sized so that p50 falls among hot hits, p90 inside the cold tail and
/// p99 three quarters into the `sim` share, clear of the cold tail's top.
/// `COLD_TWINS` of the cold slots are followed by a second request for
/// the same key, which the other client sends while the first is still
/// in flight, so the pair coalesces.
const PASS: usize = 1000;
const COLD_TWINS: usize = 10;
/// Distinct cold keys per run. Slot `i` asks for key `i % COLD_KEYS`: the
/// first passes compile each key and write it to the disk cache; later
/// requests find it evicted from the memory caches and revive it from
/// disk. Together with the hot set the keys stay under the disk cache's
/// 1024 entries, so a run writes each key once and never evicts, which
/// keeps file-system churn, and with it run-to-run drift, bounded.
const COLD_KEYS: usize = 768;
const MIX: &[(Class, usize)] = &[
    (Class::Hot, 465),
    (Class::Lint, 80),
    (Class::Stats, 10),
    (Class::Emit, 235),
    (Class::Invalid, 30),
    (Class::Cold, 140 - COLD_TWINS),
    (Class::Sim, 40),
];

/// One slot of a pass: a class and, for hot classes, which request. A
/// twin repeats the cold key of the slot before it.
#[derive(Clone, Copy)]
struct Slot {
    class: Class,
    pick: usize,
    twin: bool,
}

fn fresh_cache_dir() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = PathBuf::from("perfbench/out").join(format!(
        "serve-cache-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn new_server(dir: &PathBuf) -> Arc<CompileServer> {
    Arc::new(
        CompileServer::new().with_cache_dir(dir).expect("the benchmark's cache directory opens"),
    )
}

/// Prints the first panic only: the N=40 `sim` emit panics on every send.
fn quiet_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let printed = AtomicU64::new(0);
        std::panic::set_hook(Box::new(move |info| {
            if printed.fetch_add(1, Ordering::Relaxed) == 0 {
                eprintln!(
                    "perfbench: caught panic (counted as a failed op; later ones silent): {info}"
                );
            }
        }));
    });
}

/// Records one op's outcome: a response that fails its check is a wrong
/// output. `failed` marks the one allowed failure, a caught panic on the
/// request that expects an error: a failed op, but not a wrong one.
fn record(phase: &Mutex<Phase>, latency: Duration, verdict: Result<(), String>, failed: bool) {
    let mut phase = phase.lock().expect("phase lock");
    phase.latencies.push(latency);
    match verdict {
        Ok(()) if failed => phase.errors += 1,
        Ok(()) => phase.passed += 1,
        Err(e) => {
            phase.wrong += 1;
            phase.note(e);
        }
    }
}

/// Hands out schedule slots to the clients. The first client to reach a
/// pass boundary after the deadline closes the schedule there, so a run
/// covers whole passes.
struct Dispenser {
    next: AtomicUsize,
    limit: AtomicUsize,
    deadline: Instant,
}

impl Dispenser {
    fn new(seconds: f64) -> Dispenser {
        Dispenser {
            next: AtomicUsize::new(0),
            limit: AtomicUsize::new(usize::MAX),
            deadline: Instant::now() + Duration::from_secs_f64(seconds),
        }
    }

    fn take(&self, pass: usize) -> Option<usize> {
        let index = self.next.fetch_add(1, Ordering::SeqCst);
        if index.is_multiple_of(pass) && Instant::now() >= self.deadline {
            self.limit.fetch_min(index, Ordering::SeqCst);
        }
        (index < self.limit.load(Ordering::SeqCst)).then_some(index)
    }
}

/// Runs the closed-loop clients over a fresh dispenser; `op` serves one
/// slot for one client and returns (latency, verdict, failed).
fn closed_loop(
    seconds: f64,
    pass: usize,
    op: impl Fn(usize, usize) -> (Duration, Result<(), String>, bool) + Sync,
) -> Phase {
    let dispenser = Dispenser::new(seconds);
    let phase = Mutex::new(Phase::default());
    let started = Instant::now();
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let (op, dispenser, phase) = (&op, &dispenser, &phase);
            scope.spawn(move || {
                while let Some(index) = dispenser.take(pass) {
                    let (latency, verdict, failed) = op(client, index);
                    record(phase, latency, verdict, failed);
                }
            });
        }
    });
    let mut phase = phase.into_inner().expect("phase lock");
    phase.elapsed = started.elapsed();
    phase
}

/// Quality totals over the hot keys' circuits. Every hot key compiles to
/// a circuit; one that does not fails the run instead of leaving the sums.
fn hot_quality(keys: &[&HotKey], phase: &mut Phase) -> Quality {
    let mut quality = Quality::default();
    for key in keys {
        let compiled = Session::new(&key.program.source)
            .and_then(|s| s.compile(&key.program.request(key.options.clone())));
        match compiled.as_ref().map(|c| (c.circuit.as_ref(), c.routing.as_ref())) {
            Ok((Some(circuit), routing)) => {
                quality.add(circuit, routing.map_or(0, |r| r.swap_count));
            }
            Ok((None, _)) => {
                phase.check_failures += 1;
                phase.note(format!("{}: no circuit", key.program.label()));
            }
            Err(e) => {
                phase.check_failures += 1;
                phase.note(format!("{}: {e}", key.program.label()));
            }
        }
    }
    quality
}

fn server_stat_metrics(server: &CompileServer, panics: u64, unexpected: u64) -> Vec<Metric> {
    let (_, stats) = server.stats();
    let lookups = stats.artifact_hits + stats.artifact_misses + stats.artifact_coalesced;
    vec![
        Metric::new(
            "core.artifact_hit_ratio",
            stats.artifact_hits as f64 / lookups.max(1) as f64,
            "ratio",
        )
        .noted("(live sessions)"),
        Metric::new(
            "core.coalesced",
            (stats.artifact_coalesced + stats.frontend_coalesced) as f64,
            "count",
        ),
        Metric::new("core.evictions", stats.evictions as f64, "count"),
        Metric::new("core.disk_hits", stats.disk_hits as f64, "count"),
        Metric::new("core.disk_writes", stats.disk_writes as f64, "count"),
        Metric::new("server.panics", panics as f64, "count"),
        Metric::new("server.unexpected", unexpected as f64, "count"),
    ]
}

// ---------------------------------------------------------------------
// serve_mix
// ---------------------------------------------------------------------

pub struct ServeMix {
    seed: u64,
    dir: PathBuf,
    server: Arc<CompileServer>,
    keys: Vec<HotKey>,
    sims: Vec<HotKey>,
    /// Pre-rendered hot requests by class.
    hot: Vec<Req>,
    lint: Vec<Req>,
    emit: Vec<Req>,
    sim: Vec<Req>,
    invalid: Vec<Req>,
    schedule: Vec<Slot>,
    panics: u64,
    unexpected: u64,
}

impl Drop for ServeMix {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl ServeMix {
    fn request(&self, index: usize) -> (Class, std::borrow::Cow<'_, Req>) {
        use std::borrow::Cow;
        let slot = self.schedule[index % PASS];
        let pick = |reqs: &[Req]| slot.pick % reqs.len();
        let req = match slot.class {
            Class::Hot => Cow::Borrowed(&self.hot[pick(&self.hot)]),
            Class::Lint => Cow::Borrowed(&self.lint[pick(&self.lint)]),
            Class::Emit => Cow::Borrowed(&self.emit[pick(&self.emit)]),
            Class::Sim => Cow::Borrowed(&self.sim[pick(&self.sim)]),
            Class::Invalid => Cow::Borrowed(&self.invalid[pick(&self.invalid)]),
            Class::Stats => {
                Cow::Owned(Req { line: "{\"op\":\"stats\"}".to_string(), expect: Expect::Stats })
            }
            Class::Cold => {
                let key_slot = if slot.twin { index - 1 } else { index };
                Cow::Owned(cold_req(self.seed, (key_slot % COLD_KEYS) as u64))
            }
        };
        (slot.class, req)
    }
}

impl Workload for ServeMix {
    fn setup(seed: u64) -> ServeMix {
        quiet_panics();
        let dir = fresh_cache_dir();
        let server = new_server(&dir);
        let keys = hot_keys(seed);
        let sims = sim_keys(seed);
        let hot: Vec<Req> = keys.iter().map(compile_req).collect();
        let lint: Vec<Req> = keys
            .iter()
            .map(|k| Req {
                line: request_line(&k.program, &k.program.source, "lint", None, &k.options),
                expect: Expect::Lint,
            })
            .collect();
        let emit: Vec<Req> = keys
            .iter()
            .flat_map(|k| ["qasm", "qir-base", "qir-unrestricted"].map(|b| emit_req(k, b)))
            .collect();
        let sim: Vec<Req> = sims.iter().map(|k| emit_req(k, "sim")).collect();
        // Warm the hot set: every hot request once, so the timed phase
        // starts from filled caches.
        for req in hot.iter().chain(&lint).chain(&sim) {
            let response = server.handle_line(&req.line);
            check(&response, &req.expect).expect("warm-up request succeeds");
        }
        let mut rng = Rng::new(seed, 9);
        // Shuffle units of one slot, or two for a cold key and its twin.
        // Each class walks its request list from a seeded offset, so every
        // pass sends each hot request equally often.
        let mut units: Vec<Vec<Slot>> = Vec::with_capacity(PASS);
        for &(class, count) in MIX {
            let offset = rng.below(1 << 16);
            units.extend((0..count).map(|i| vec![Slot { class, pick: offset + i, twin: false }]));
        }
        let mut twins = 0;
        for unit in &mut units {
            if unit[0].class == Class::Cold && twins < COLD_TWINS {
                unit.push(Slot { twin: true, ..unit[0] });
                twins += 1;
            }
        }
        rng.shuffle(&mut units);
        let schedule: Vec<Slot> = units.into_iter().flatten().collect();
        assert_eq!(schedule.len(), PASS, "the mix fills one pass");
        ServeMix {
            seed,
            dir,
            server,
            keys,
            sims,
            hot,
            lint,
            emit,
            sim,
            invalid: invalid_reqs(),
            schedule,
            panics: 0,
            unexpected: 0,
        }
    }

    fn run(&mut self, seconds: f64, tracer: Option<&Tracer>) -> Phase {
        let this = &*self;
        let panics = AtomicU64::new(0);
        let phase = closed_loop(seconds, PASS, |_, index| {
            let (class, req) = this.request(index);
            let op_started = Instant::now();
            let result = match tracer {
                None => catch_unwind(AssertUnwindSafe(|| this.server.handle_line(&req.line))),
                Some(tr) => tr.span(OP, None, index as u64, |root| {
                    tr.span("server.parse", Some(root), index as u64, |_| {
                        let _ = asdf_server::proto::parse_request(&req.line);
                    });
                    tr.span(class.span(), Some(root), index as u64, |_| {
                        catch_unwind(AssertUnwindSafe(|| this.server.handle_line(&req.line)))
                    })
                }),
            };
            let latency = op_started.elapsed();
            match result {
                Ok(response) => (latency, check(&response, &req.expect), false),
                Err(_) => {
                    panics.fetch_add(1, Ordering::Relaxed);
                    // Only the request that expects an error may fail
                    // without output; a panic on any other is wrong.
                    match req.expect {
                        Expect::AnyError => (latency, Ok(()), true),
                        _ => (latency, Err(format!("panic on {}", truncate(&req.line))), false),
                    }
                }
            }
        });
        self.panics = panics.into_inner();
        self.unexpected = phase.wrong;
        phase
    }

    fn finish(&mut self, phase: &mut Phase) -> Quality {
        if phase.errors > 0 {
            phase.note(format!(
                "serve_mix: {} caught panics of the N=40 sim emit, counted as failed ops",
                phase.errors
            ));
        }
        hot_quality(&self.keys.iter().chain(&self.sims).collect::<Vec<_>>(), phase)
    }

    fn layers(&mut self, summary: &TraceSummary) -> Vec<Metric> {
        let mut out = vec![Metric::new("server.parse_ms", summary.self_ms("server.parse"), "ms")];
        for class in [
            Class::Hot,
            Class::Cold,
            Class::Emit,
            Class::Sim,
            Class::Lint,
            Class::Stats,
            Class::Invalid,
        ] {
            let span = class.span();
            out.push(Metric::new(&format!("{span}_ms"), summary.self_ms(span), "ms"));
        }
        out.extend(server_stat_metrics(&self.server, self.panics, self.unexpected));
        out
    }
}

// ---------------------------------------------------------------------
// serve_tcp
// ---------------------------------------------------------------------

/// Slots per pass; one slot in `ONE_SHOT_EVERY` opens its own connection.
const TCP_PASS: usize = 100;
const ONE_SHOT_EVERY: usize = 10;

pub struct ServeTcp {
    dir: PathBuf,
    server: Arc<CompileServer>,
    keys: Vec<HotKey>,
    addr: SocketAddr,
    /// A handle on the listening socket, used to stop the accept loop.
    listener: TcpListener,
    accept: Option<JoinHandle<std::io::Result<()>>>,
    conns: Vec<Mutex<TcpStream>>,
    reqs: Vec<Req>,
    schedule: Vec<(usize, bool)>,
    /// The request index of every traced op, replayed through `handle_line`.
    sent: Mutex<Vec<usize>>,
}

impl Drop for ServeTcp {
    fn drop(&mut self) {
        // Close the clients' connections, then wake the accept loop on a
        // non-blocking listener so `serve_listener` returns.
        self.conns.clear();
        if self.listener.set_nonblocking(true).is_ok() {
            let _ = TcpStream::connect(self.addr);
            if let Some(accept) = self.accept.take() {
                let _ = accept.join();
            }
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// One request over `stream`: (first-byte time, newline time, response).
fn exchange(stream: &mut TcpStream, line: &str) -> std::io::Result<(Duration, Duration, String)> {
    let started = Instant::now();
    let mut request = String::with_capacity(line.len() + 1);
    request.push_str(line);
    request.push('\n');
    stream.write_all(request.as_bytes())?;
    let mut response = Vec::new();
    let mut buf = [0u8; 16 * 1024];
    let mut first_byte = None;
    loop {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed",
            ));
        }
        first_byte.get_or_insert_with(|| started.elapsed());
        response.extend_from_slice(&buf[..n]);
        if response.last() == Some(&b'\n') {
            break;
        }
    }
    let done = started.elapsed();
    response.pop();
    let text = String::from_utf8(response).map_err(std::io::Error::other)?;
    Ok((first_byte.unwrap_or(done), done, text))
}

impl Workload for ServeTcp {
    fn setup(seed: u64) -> ServeTcp {
        let dir = fresh_cache_dir();
        let server = new_server(&dir);
        // Every other hot key, which keeps both routed keys.
        let keys: Vec<HotKey> = hot_keys(seed).into_iter().skip(1).step_by(2).collect();
        let mut reqs: Vec<Req> = keys.iter().map(compile_req).collect();
        reqs.extend(keys.iter().take(6).map(|k| emit_req(k, "qasm")));
        reqs.push(Req { line: "{\"op\":\"stats\"}".into(), expect: Expect::Stats });
        for req in &reqs {
            let response = server.handle_line(&req.line);
            check(&response, &req.expect).expect("warm-up request succeeds");
        }
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
        let addr = listener.local_addr().expect("listener address");
        let handle = listener.try_clone().expect("clone the listener handle");
        let accept = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || server.serve_listener(listener))
        };
        // Warm the transport: one exchange on each persistent connection.
        let conns = (0..CLIENTS)
            .map(|client| {
                let mut stream = TcpStream::connect(addr).expect("connect to the server");
                let req = &reqs[client];
                let (_, _, response) = exchange(&mut stream, &req.line).expect("warm-up exchange");
                check(&response, &req.expect).expect("warm-up request succeeds");
                Mutex::new(stream)
            })
            .collect();
        let mut rng = Rng::new(seed, 10);
        let mut schedule: Vec<(usize, bool)> =
            (0..TCP_PASS).map(|slot| (rng.below(reqs.len()), slot % ONE_SHOT_EVERY == 0)).collect();
        rng.shuffle(&mut schedule);
        ServeTcp {
            dir,
            server,
            keys,
            addr,
            listener: handle,
            accept: Some(accept),
            conns,
            reqs,
            schedule,
            sent: Mutex::new(Vec::new()),
        }
    }

    fn run(&mut self, seconds: f64, tracer: Option<&Tracer>) -> Phase {
        let this = &*self;
        closed_loop(seconds, TCP_PASS, |client, index| {
            let (req_index, one_shot) = this.schedule[index % TCP_PASS];
            let req = &this.reqs[req_index];
            let op = index as u64;
            let op_started = Instant::now();
            let result = match tracer {
                None => {
                    if one_shot {
                        TcpStream::connect(this.addr).and_then(|mut s| exchange(&mut s, &req.line))
                    } else {
                        exchange(
                            &mut this.conns[client].lock().expect("connection lock"),
                            &req.line,
                        )
                    }
                }
                Some(tr) => tr.span(OP, None, op, |root| {
                    this.sent.lock().expect("sent lock").push(req_index);
                    let mut fresh = None;
                    if one_shot {
                        let connect = |_| TcpStream::connect(this.addr);
                        fresh = Some(tr.span("tcp.connect", Some(root), op, connect)?);
                    }
                    let mut guard;
                    let stream = match &mut fresh {
                        Some(s) => s,
                        None => {
                            guard = this.conns[client].lock().expect("connection lock");
                            &mut *guard
                        }
                    };
                    let at = tr.now();
                    let result = exchange(stream, &req.line);
                    if let Ok((first, done, _)) = &result {
                        tr.record(root, op, "tcp.first_byte", at, *first);
                        tr.record(root, op, "tcp.line_tail", at + *first, *done - *first);
                    }
                    result
                }),
            };
            let latency = op_started.elapsed();
            match result {
                Ok((_, _, response)) => (latency, check(&response, &req.expect), false),
                Err(e) => (latency, Err(format!("transport error: {e}")), false),
            }
        })
    }

    fn finish(&mut self, phase: &mut Phase) -> Quality {
        hot_quality(&self.keys.iter().collect::<Vec<_>>(), phase)
    }

    fn layers(&mut self, summary: &TraceSummary) -> Vec<Metric> {
        // The same lines through `handle_line`, in process.
        let sent = std::mem::take(&mut *self.sent.lock().expect("sent lock"));
        let started = Instant::now();
        for &index in &sent {
            std::hint::black_box(self.server.handle_line(&self.reqs[index].line));
        }
        let handle_ms = started.elapsed().as_secs_f64() * 1e3;
        vec![
            Metric::new("tcp.connect_ms", summary.self_ms("tcp.connect"), "ms"),
            Metric::new("tcp.first_byte_ms", summary.self_ms("tcp.first_byte"), "ms"),
            Metric::new("tcp.line_tail_ms", summary.self_ms("tcp.line_tail"), "ms"),
            Metric::new("server.handle_ms", handle_ms, "ms")
                .noted(format!("({} lines replayed in process)", sent.len())),
        ]
    }
}
