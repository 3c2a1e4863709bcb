//! Multi-worker stress bench for the concurrent session core: N workers
//! hammer **one shared [`Session`]** with a mixed hot/cold request
//! stream and we measure end-to-end request throughput, p50/p99
//! latency, and the 1→8 worker scaling ratio.
//!
//! Every worker replays the same schedule (a ~90% hot mix over eight
//! keys plus a unique cold key every tenth request), so the concurrency
//! win comes from the server-core machinery this bench guards: warm
//! requests are lock-narrow sharded-cache hits, and simultaneous cold
//! requests for one key *coalesce* onto a single pipeline run instead
//! of duplicating it. The bench asserts that identity — pipeline runs
//! (artifact misses) must equal unique keys, never requests — and, in
//! full mode, that 8-worker throughput is at least 4x 1-worker
//! throughput.
//!
//! Each full run appends a trajectory point to `BENCH_compile.json` at
//! the repo root. `--smoke` shrinks the workload, skips the scaling
//! assertion and prints the point instead of appending it.

use asdf_bench::{bv_request, record_trajectory_point, smoke_mode, BV_SRC};
use asdf_core::{CompileRequest, Session};
use criterion::black_box;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// The request stream every worker replays: eight hot keys cycled
/// round-robin, with every tenth slot replaced by a unique cold key.
fn build_schedule(len: usize) -> (Vec<CompileRequest>, usize) {
    let mut schedule = Vec::with_capacity(len);
    let mut unique = std::collections::HashSet::new();
    for i in 0..len {
        let secret = if i % 10 == 9 {
            // Unique 10-bit cold key.
            format!("{:b}", 0b10_0000_0000 | i)
        } else {
            // One of eight hot 5-bit keys.
            format!("{:b}", 0b1_0000 | (i % 8))
        };
        unique.insert(secret.clone());
        schedule.push(bv_request(&secret));
    }
    (schedule, unique.len())
}

struct TrialResult {
    wall: Duration,
    latencies: Vec<Duration>,
    requests: u64,
    pipeline_runs: u64,
    coalesced: u64,
    hits: u64,
}

/// One trial: `workers` threads replay `schedule` against a fresh
/// shared session, barrier-released together.
fn run_trial(workers: usize, schedule: &[CompileRequest], unique_keys: usize) -> TrialResult {
    // Capacities far above the key count: no evictions, so the
    // pipeline-runs == unique-keys identity is exact.
    let session = Arc::new(
        Session::builder(BV_SRC)
            .frontend_capacity(4096)
            .artifact_capacity(4096)
            .build()
            .expect("parses"),
    );
    let barrier = Arc::new(Barrier::new(workers + 1));
    let started;
    let mut latencies: Vec<Duration>;
    {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let session = Arc::clone(&session);
                let barrier = Arc::clone(&barrier);
                let schedule = schedule.to_vec();
                std::thread::spawn(move || {
                    let mut latencies = Vec::with_capacity(schedule.len());
                    barrier.wait();
                    for request in &schedule {
                        let start = Instant::now();
                        black_box(session.compile(request).expect("compiles"));
                        latencies.push(start.elapsed());
                    }
                    latencies
                })
            })
            .collect();
        barrier.wait();
        started = Instant::now();
        latencies = handles.into_iter().flat_map(|h| h.join().expect("worker finished")).collect();
    }
    let wall = started.elapsed();

    let stats = session.cache_stats();
    let requests = (workers * schedule.len()) as u64;
    assert_eq!(
        stats.artifact_misses, unique_keys as u64,
        "coalescing invariant: pipeline runs must equal unique cold keys, not requests \
         ({workers} workers, {stats:?})"
    );
    assert_eq!(
        stats.artifact_hits + stats.artifact_coalesced + stats.artifact_misses,
        requests,
        "every request is a hit, a coalesced wait, or the one miss per key"
    );
    latencies.sort_unstable();
    TrialResult {
        wall,
        latencies,
        requests,
        pipeline_runs: stats.artifact_misses,
        coalesced: stats.artifact_coalesced,
        hits: stats.artifact_hits,
    }
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    let index = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[index]
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn main() {
    let smoke = smoke_mode();
    let (len, trials) = if smoke { (60, 2) } else { (240, 5) };
    let (schedule, unique_keys) = build_schedule(len);
    println!(
        "compile_stress: {len} requests/worker, {unique_keys} unique keys, one shared session{}",
        if smoke { " (smoke)" } else { "" }
    );

    let worker_counts = [1usize, 2, 4, 8];
    let mut throughput = Vec::new();
    let mut final_trial: Option<TrialResult> = None;
    for &workers in &worker_counts {
        // Keep the median-throughput trial (thread spawn noise dominates
        // the tails on small workloads).
        let mut results: Vec<TrialResult> =
            (0..trials).map(|_| run_trial(workers, &schedule, unique_keys)).collect();
        results.sort_by_key(|r| r.wall);
        let median = results.remove(results.len() / 2);
        let reqs_per_s = median.requests as f64 / median.wall.as_secs_f64();
        println!(
            "{workers} worker(s): {:>9.0} req/s  wall {:>9.3?}  p50 {:>9.3?}  p99 {:>9.3?}  \
             [{} runs, {} hits, {} coalesced]",
            reqs_per_s,
            median.wall,
            percentile(&median.latencies, 0.50),
            percentile(&median.latencies, 0.99),
            median.pipeline_runs,
            median.hits,
            median.coalesced,
        );
        throughput.push(reqs_per_s);
        if workers == *worker_counts.last().unwrap() {
            final_trial = Some(median);
        }
    }

    let scaling = throughput[throughput.len() - 1] / throughput[0];
    let peak = final_trial.expect("the 8-worker trial ran");
    println!(
        "scaling 1 -> {} workers: {scaling:.2}x  (pipeline ran {}x for {} requests; \
         coalescing and caching absorbed the rest)",
        worker_counts.last().unwrap(),
        peak.pipeline_runs,
        peak.requests,
    );
    if !smoke {
        assert!(
            scaling >= 4.0,
            "acceptance: 8-worker throughput must be >= 4x 1-worker, got {scaling:.2}x"
        );
    }

    let point = format!(
        "{{\"bench\": \"compile_stress\", \"mode\": \"{}\", \"program\": \"bv\", \
         \"requests_per_worker\": {len}, \"unique_keys\": {unique_keys}, \
         \"throughput_1\": {:.0}, \"throughput_2\": {:.0}, \"throughput_4\": {:.0}, \
         \"throughput_8\": {:.0}, \"scaling_1_to_8\": {:.2}, \
         \"p50_us_8\": {:.3}, \"p99_us_8\": {:.1}, \
         \"pipeline_runs_8\": {}, \"coalesced_8\": {}, \"requests_8\": {}}}",
        if smoke { "smoke" } else { "full" },
        throughput[0],
        throughput[1],
        throughput[2],
        throughput[3],
        scaling,
        us(percentile(&peak.latencies, 0.50)),
        us(percentile(&peak.latencies, 0.99)),
        peak.pipeline_runs,
        peak.coalesced,
        peak.requests,
    );
    record_trajectory_point("BENCH_compile.json", &point, smoke);
}
