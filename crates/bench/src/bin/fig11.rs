//! Regenerates Fig. 11: estimated fault-tolerant runtime of each benchmark
//! for each compiler across oracle input sizes (lower is better).
//!
//! Usage: `cargo run --release -p asdf-bench --bin fig11 [-- sizes...]`
//! (default sizes: 16 32 64 128).

use asdf_bench::{run_figure, Figure};
use std::process::ExitCode;

fn main() -> ExitCode {
    run_figure(&Figure {
        bin: "fig11",
        title: "Fig. 11: estimated runtime (microseconds) on a [[338,1,13]] surface code",
        column: "runtime_us",
        value: |e| (e.runtime_us, format!("{:.3}", e.runtime_us)),
        csv: "data/fig11_runtime.csv",
    })
}
