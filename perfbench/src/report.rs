//! Metrics, percentiles, circuit quality sums and the result line.

use asdf_qcircuit::Circuit;
use asdf_resource::{estimate, SurfaceCodeParams};
use std::collections::BTreeSet;
use std::time::Duration;

/// A small seeded generator (SplitMix64): the benchmark derives every
/// input from `--seed` through it.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn bits(&mut self, n: usize) -> Vec<bool> {
        (0..n).map(|_| self.next_u64() & 1 == 1).collect()
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count and any caveat, for the human-readable lines.
    pub note: String,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric { name: name.to_string(), value, unit, note: String::new() }
    }

    pub fn noted(mut self, note: impl Into<String>) -> Metric {
        self.note = note.into();
        self
    }
}

/// What one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// False when any produced output failed its check.
    pub correct: bool,
    pub metrics: Vec<Metric>,
    /// Check verdicts and other lines for the human-readable report.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Prints one line per metric, the notes, and the JSON result line.
    pub fn print(&self, workload: &str, seed: u64, traced: bool) {
        println!("workload {workload} seed {seed} traced {traced}");
        for m in &self.metrics {
            println!("  {:<44} {:>16.6} {:<6} {}", m.name, m.value, m.unit, m.note);
        }
        for note in &self.notes {
            println!("  {note}");
        }
        println!(
            "  checks: {} (attempted {}, failed {})",
            if self.correct { "all outputs correct" } else { "WRONG OUTPUTS" },
            self.attempted,
            self.failed
        );
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!("\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}", m.name, m.unit)
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// Latencies of one timed phase, in milliseconds.
#[derive(Debug, Default, Clone)]
pub struct Latencies(pub Vec<f64>);

impl Latencies {
    pub fn push(&mut self, d: Duration) {
        self.0.push(d.as_secs_f64() * 1e3);
    }

    /// The nearest-rank percentile and the number of samples above it.
    pub fn percentile(&self, p: f64) -> (f64, usize) {
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        if sorted.is_empty() {
            return (0.0, 0);
        }
        let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
        (sorted[rank - 1], sorted.len() - rank)
    }
}

/// The percentile metrics, each noted with its sample count; a
/// percentile with fewer than ten samples beyond it is flagged.
pub fn latency_metrics(lat: &Latencies) -> Vec<Metric> {
    [(50.0, "latency_p50_ms"), (90.0, "latency_p90_ms"), (99.0, "latency_p99_ms")]
        .iter()
        .map(|&(p, name)| {
            let (value, beyond) = lat.percentile(p);
            let note = if beyond >= 10 {
                format!("(n={}, {beyond} beyond)", lat.0.len())
            } else {
                format!("(n={}, only {beyond} beyond: not a supported percentile)", lat.0.len())
            };
            Metric::new(name, value, "ms").noted(note)
        })
        .collect()
}

/// Peak resident set of this process in MB (Linux `VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Output-quality totals over distinct circuits, keyed by a content
/// fingerprint so a circuit produced twice counts once.
#[derive(Debug, Default)]
pub struct Quality {
    seen: BTreeSet<u64>,
    gates: u64,
    t_count: u64,
    depth: u64,
    swaps: u64,
    runtime_us: f64,
    physical_qubits: u64,
}

impl Quality {
    /// Adds `circuit` (with the SWAPs routing inserted for it) unless an
    /// identical circuit was already counted.
    pub fn add(&mut self, circuit: &Circuit, swaps: usize) {
        if !self.seen.insert(fingerprint(circuit)) {
            return;
        }
        let est = estimate(circuit, &SurfaceCodeParams::default());
        self.gates += circuit.gate_count() as u64;
        self.t_count += circuit.t_count() as u64;
        self.depth += circuit.depth() as u64;
        self.swaps += swaps as u64;
        self.runtime_us += est.runtime_us;
        self.physical_qubits += est.physical_qubits as u64;
    }

    pub fn distinct(&self) -> usize {
        self.seen.len()
    }

    pub fn metrics(&self) -> Vec<Metric> {
        let note = format!("({} distinct circuits)", self.distinct());
        vec![
            Metric::new("gate_count", self.gates as f64, "count").noted(note.clone()),
            Metric::new("t_count", self.t_count as f64, "count").noted(note.clone()),
            Metric::new("depth", self.depth as f64, "count").noted(note.clone()),
            Metric::new("swap_count", self.swaps as f64, "count").noted(note.clone()),
            Metric::new("est_runtime_us", self.runtime_us, "us").noted(note.clone()),
            Metric::new("est_physical_qubits", self.physical_qubits as f64, "count").noted(note),
        ]
    }
}

/// A content fingerprint of a circuit: FNV-1a over its canonical
/// artifact encoding.
pub fn fingerprint(circuit: &Circuit) -> u64 {
    let mut e = asdf_artifact::Encoder::new();
    asdf_artifact::payload::encode_circuit(&mut e, circuit);
    asdf_artifact::fnv1a(e.bytes())
}

/// The end-to-end metrics every workload reports, in a fixed order.
pub struct EndToEnd {
    pub setup_s: f64,
    pub elapsed: Duration,
    pub passed: u64,
    pub latencies: Latencies,
    pub quality: Quality,
}

impl EndToEnd {
    pub fn metrics(&self) -> Vec<Metric> {
        let attempted = self.latencies.0.len();
        let mut out = vec![
            Metric::new("setup_s", self.setup_s, "s").noted("(fastest of the run's set-ups)"),
            Metric::new("throughput_ops_s", self.passed as f64 / self.elapsed.as_secs_f64(), "1/s")
                .noted(format!(
                    "({} passing ops in {:.2} s)",
                    self.passed,
                    self.elapsed.as_secs_f64()
                )),
        ];
        out.extend(latency_metrics(&self.latencies));
        out.push(
            Metric::new("success_ratio", self.passed as f64 / attempted.max(1) as f64, "ratio")
                .noted(format!("({} of {attempted})", self.passed)),
        );
        out.push(Metric::new("peak_rss_mb", peak_rss_mb(), "MB"));
        out.extend(self.quality.metrics());
        out
    }
}
