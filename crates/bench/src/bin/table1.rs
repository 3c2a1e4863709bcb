//! Regenerates Table 1: QIR callable intrinsics generated by different
//! compiler configurations.
//!
//! Usage: `cargo run -p asdf-bench --bin table1 [-- <n>]` (default n = 4).

use std::process::ExitCode;

const USAGE: &str = "table1 [<n>]";

fn main() -> ExitCode {
    let n = match asdf_bench::size_args(USAGE).as_deref() {
        Ok([]) => 4,
        Ok(&[n]) => n,
        Ok(_) => return asdf_bench::usage_error("table1 takes one size", USAGE),
        Err(code) => return *code,
    };
    println!("Table 1: QIR callable intrinsics (create / inv.) at oracle size n = {n}");
    println!();
    println!(
        "{:<10} {:>9} {:>9}   {:>9} {:>9}   {:>9} {:>9}",
        "", "Q#", "", "Asdf(NoOpt)", "", "Asdf(Opt)", ""
    );
    println!(
        "{:<10} {:>9} {:>9}   {:>9} {:>9}   {:>9} {:>9}",
        "bench", "create", "inv.", "create", "inv.", "create", "inv."
    );
    println!("{}", "-".repeat(72));
    let mut csv = String::from(
        "bench,qsharp_create,qsharp_invoke,noopt_create,noopt_invoke,opt_create,opt_invoke\n",
    );
    for row in asdf_bench::table1_rows(n) {
        println!(
            "{:<10} {:>9} {:>9}   {:>9} {:>9}   {:>9} {:>9}",
            row.benchmark,
            row.qsharp.0,
            row.qsharp.1,
            row.asdf_no_opt.0,
            row.asdf_no_opt.1,
            row.asdf_opt.0,
            row.asdf_opt.1
        );
        csv.push_str(&format!(
            "{},{},{},{},{},{},{}\n",
            row.benchmark,
            row.qsharp.0,
            row.qsharp.1,
            row.asdf_no_opt.0,
            row.asdf_no_opt.1,
            row.asdf_opt.0,
            row.asdf_opt.1
        ));
    }
    let _ = std::fs::create_dir_all("data");
    let _ = std::fs::write("data/table1.csv", csv);
    println!("\nwrote data/table1.csv");
    ExitCode::SUCCESS
}
