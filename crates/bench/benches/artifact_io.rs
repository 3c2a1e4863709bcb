//! Artifact I/O bench: serialization throughput and the cold-start win
//! of the persistent disk cache.
//!
//! Four measurements on the Fig. 1 Bernstein–Vazirani program:
//!
//! - **encode** — [`Artifact::encode`] of the compiled artifact;
//! - **decode** — [`Artifact::decode`] (full validation: checksum,
//!   section bounds, content hash) of the encoded bytes;
//! - **pipeline cold start** — a fresh [`Session`] compiling from
//!   scratch (parse + frontend + full pass pipeline);
//! - **disk-hit cold start** — a fresh [`Session`] over a warm cache
//!   directory: parse + frontend + disk decode, zero pipeline runs.
//!
//! Each full run appends a trajectory point to `BENCH_compile.json` at
//! the repo root. `--smoke` shrinks the workload for CI and prints the
//! point instead of appending it.

use asdf_artifact::Artifact;
use asdf_bench::{bv_request, median_time, record_trajectory_point, smoke_mode, BV_SRC};
use asdf_core::Session;
use criterion::black_box;
use std::time::Duration;

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn main() {
    let smoke = smoke_mode();
    let (secret, samples, codec_batch) = if smoke { ("1101", 10, 50) } else { ("110100", 30, 500) };
    let request = bv_request(secret);
    println!(
        "artifact_io: BV secret {secret}, {samples} samples{}",
        if smoke { " (smoke)" } else { "" }
    );

    // Compile once; all codec measurements work over this artifact.
    let session = Session::new(BV_SRC).unwrap();
    let artifact = session.compile(&request).unwrap();
    let bytes = artifact.encode();
    let size = bytes.len();

    let encode_total = median_time(samples, || {
        for _ in 0..codec_batch {
            black_box(artifact.encode());
        }
    });
    let encode = encode_total / codec_batch as u32;
    let decode_total = median_time(samples, || {
        for _ in 0..codec_batch {
            black_box(Artifact::decode(&bytes).unwrap());
        }
    });
    let decode = decode_total / codec_batch as u32;
    let mib = size as f64 / (1024.0 * 1024.0);
    println!(
        "encode              median {:>10.3?}  ({:>8.1} MiB/s, {size} bytes)",
        encode,
        mib / encode.as_secs_f64()
    );
    println!(
        "decode              median {:>10.3?}  ({:>8.1} MiB/s)",
        decode,
        mib / decode.as_secs_f64()
    );

    // Cold start, both ways: full pipeline vs disk hit.
    let dir = std::env::temp_dir().join(format!("asdf-bench-artifact-io-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let pipeline_cold = median_time(samples, || {
        let session = Session::new(BV_SRC).unwrap();
        session.compile(&request).unwrap()
    });
    // Warm the cache directory once, then measure fresh sessions over it.
    Session::builder(BV_SRC).disk_cache(&dir).build().unwrap().compile(&request).unwrap();
    let disk_cold = median_time(samples, || {
        let session = Session::builder(BV_SRC).disk_cache(&dir).build().unwrap();
        let compiled = session.compile(&request).unwrap();
        assert_eq!(session.cache_stats().artifact_misses, 0, "must be a disk hit");
        compiled
    });
    let cold_start_speedup = pipeline_cold.as_secs_f64() / disk_cold.as_secs_f64();
    println!(
        "cold start          pipeline {pipeline_cold:>10.3?} vs disk hit {disk_cold:>10.3?}   speedup {cold_start_speedup:.2}x"
    );
    assert!(
        cold_start_speedup >= 1.0,
        "acceptance: a disk hit must not be slower than the full pipeline, got {cold_start_speedup:.2}x"
    );
    let _ = std::fs::remove_dir_all(&dir);

    let point = format!(
        "{{\"bench\": \"artifact_io\", \"mode\": \"{}\", \"program\": \"bv\", \
         \"artifact_bytes\": {size}, \"encode_us\": {:.3}, \"decode_us\": {:.3}, \
         \"pipeline_cold_us\": {:.1}, \"disk_cold_us\": {:.1}, \"cold_start_speedup\": {:.2}}}",
        if smoke { "smoke" } else { "full" },
        us(encode),
        us(decode),
        us(pipeline_cold),
        us(disk_cold),
        cold_start_speedup,
    );
    record_trajectory_point("BENCH_compile.json", &point, smoke);
}
