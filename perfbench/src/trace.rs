//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around each public call
//! into a layer: name, start, end, parent span and op id. They stay in
//! memory until the run ends; then self times are computed (a span's
//! duration minus the part of it its children cover) and the raw spans
//! are written out as TSV.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The span name every op's root span carries.
pub const OP: &str = "op";

#[derive(Debug, Clone)]
struct Span {
    name: String,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
    op: u64,
}

/// A thread-safe span store. Ids are indices into the store.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { epoch: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    /// Time since the tracer was created.
    pub fn now(&self) -> Duration {
        self.epoch.elapsed()
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id so
    /// it can open children.
    pub fn span<R>(
        &self,
        name: &str,
        parent: Option<usize>,
        op: u64,
        f: impl FnOnce(usize) -> R,
    ) -> R {
        let start = self.now();
        let id = {
            let mut spans = self.spans.lock().expect("span store lock");
            spans.push(Span { name: name.to_string(), start, end: start, parent, op });
            spans.len() - 1
        };
        let result = f(id);
        let end = self.now();
        self.spans.lock().expect("span store lock")[id].end = end;
        result
    }

    /// Records child spans of `parent` laid end to end from its start,
    /// for stages timed by the program itself (the pass manager's
    /// per-pass durations).
    pub fn record_children(&self, parent: usize, op: u64, children: &[(String, Duration)]) {
        let mut spans = self.spans.lock().expect("span store lock");
        let mut at = spans[parent].start;
        for (name, duration) in children {
            spans.push(Span {
                name: name.clone(),
                start: at,
                end: at + *duration,
                parent: Some(parent),
                op,
            });
            at += *duration;
        }
    }

    /// Records a finished child span of `parent` timed by the caller.
    pub fn record(&self, parent: usize, op: u64, name: &str, start: Duration, duration: Duration) {
        let span =
            Span { name: name.to_string(), start, end: start + duration, parent: Some(parent), op };
        self.spans.lock().expect("span store lock").push(span);
    }

    /// Aggregates the recorded spans.
    pub fn summary(&self) -> TraceSummary {
        let spans = self.spans.lock().expect("span store lock");
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
        for (id, span) in spans.iter().enumerate() {
            if let Some(parent) = span.parent {
                children[parent].push(id);
            }
        }
        let mut self_ms: BTreeMap<String, f64> = BTreeMap::new();
        let mut total_ms: BTreeMap<String, f64> = BTreeMap::new();
        for (id, span) in spans.iter().enumerate() {
            let duration = span.end.saturating_sub(span.start);
            let covered = covered(&spans, &children[id], span.start, span.end);
            let own = duration.saturating_sub(covered).as_secs_f64() * 1e3;
            *self_ms.entry(span.name.clone()).or_default() += own;
            *total_ms.entry(span.name.clone()).or_default() += duration.as_secs_f64() * 1e3;
        }
        TraceSummary { self_ms, total_ms }
    }

    /// Writes every span as one TSV line: id, parent, op, name, start and
    /// end in microseconds since the tracer was created.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.spans.lock().expect("span store lock");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\top\tname\tstart_us\tend_us")?;
        for (id, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}",
                s.op,
                s.name,
                s.start.as_micros(),
                s.end.as_micros()
            )?;
        }
        out.flush()
    }
}

/// The length of the union of the children's intervals, clipped to
/// `[start, end]`.
fn covered(spans: &[Span], children: &[usize], start: Duration, end: Duration) -> Duration {
    let mut intervals: Vec<(Duration, Duration)> = children
        .iter()
        .map(|&c| (spans[c].start.max(start), spans[c].end.min(end)))
        .filter(|(s, e)| e > s)
        .collect();
    intervals.sort();
    let mut total = Duration::ZERO;
    let mut current: Option<(Duration, Duration)> = None;
    for (s, e) in intervals {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = current {
        total += ce - cs;
    }
    total
}

/// Self and total time per span name, in milliseconds.
pub struct TraceSummary {
    self_ms: BTreeMap<String, f64>,
    total_ms: BTreeMap<String, f64>,
}

impl TraceSummary {
    /// Summed self time of every span called `name`.
    pub fn self_ms(&self, name: &str) -> f64 {
        self.self_ms.get(name).copied().unwrap_or(0.0)
    }

    /// Summed duration of every span called `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.total_ms.get(name).copied().unwrap_or(0.0)
    }

    /// The share of op time spent inside layer spans.
    pub fn coverage(&self) -> f64 {
        let total = self.total_ms(OP);
        if total == 0.0 {
            return 0.0;
        }
        1.0 - self.self_ms(OP) / total
    }

    /// The layer whose spans hold the most self time.
    pub fn dominant_layer(&self) -> (String, f64) {
        let total: f64 = self.self_ms.values().sum();
        self.self_ms
            .iter()
            .filter(|(k, _)| k.as_str() != OP)
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(k, v)| (k.clone(), if total > 0.0 { v / total } else { 0.0 }))
            .unwrap_or_default()
    }
}
