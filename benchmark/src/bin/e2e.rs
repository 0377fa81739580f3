//! `e2e`: the `BENCHMARK.json` command. Measures one workload and ends with
//! the contract's result line; any failure (bad arguments, a failed
//! correctness check, a program error) prints no result line and exits
//! non-zero.

#![forbid(unsafe_code)]

use std::process::ExitCode;

use edgeslice_benchmark::app::{run, Options};
use edgeslice_benchmark::error::Error;

// Counts allocations for `alloc.*` while a traced run switches it on;
// otherwise one relaxed load per allocation.
#[global_allocator]
static ALLOCATOR: alloc_counter::CountingAlloc = alloc_counter::CountingAlloc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match Options::parse(&args).and_then(|opts| run(&opts)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("e2e: {err}");
            ExitCode::from(if matches!(err, Error::Usage(_)) { 2 } else { 1 })
        }
    }
}
