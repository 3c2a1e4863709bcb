//! Regenerates Fig. 12: physical qubits used by each benchmark for each
//! compiler across oracle input sizes (lower is better).
//!
//! Usage: `cargo run --release -p asdf-bench --bin fig12 [-- sizes...]`
//! (default sizes: 16 32 64 128).

use asdf_bench::{run_figure, Figure};
use std::process::ExitCode;

fn main() -> ExitCode {
    run_figure(&Figure {
        bin: "fig12",
        title: "Fig. 12: physical qubits on a [[338,1,13]] surface code (kiloqubits)",
        column: "physical_qubits",
        value: |e| (e.physical_qubits as f64 / 1000.0, e.physical_qubits.to_string()),
        csv: "data/fig12_physical_qubits.csv",
    })
}
