//! `aa`: the A/A self-check (see `edgeslice_benchmark::aa`). Run it from the
//! repository root; it exits non-zero when a run fails or a rule T8
//! condition does not hold.

#![forbid(unsafe_code)]

use std::process::ExitCode;

use edgeslice_benchmark::aa::{print_table, run, AaOptions};
use edgeslice_benchmark::error::Error;
use edgeslice_benchmark::report::write_json;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let report = AaOptions::parse(&args).and_then(|opts| {
        let report = run(&opts)?;
        write_json(&opts.out_dir.join("aa.json"), &report)?;
        Ok(report)
    });
    match report {
        Ok(report) => {
            print_table(&report);
            if report.judgements.iter().all(|j| j.ok) {
                ExitCode::SUCCESS
            } else {
                eprintln!("aa: rule T8 does not hold (see the FAIL rows)");
                ExitCode::from(1)
            }
        }
        Err(err) => {
            eprintln!("aa: {err}");
            ExitCode::from(if matches!(err, Error::Usage(_)) { 2 } else { 1 })
        }
    }
}
