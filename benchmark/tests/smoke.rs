//! End-to-end smoke: every workload, untraced and traced, on the `--quick`
//! table. No timing is asserted — only that each run completes with every
//! correctness check passing (a failed check is an `Err`), covers its metric
//! table, and leaves its files and nothing else behind.

use std::path::PathBuf;

use edgeslice_benchmark::app::{info_path, run, Options};
use edgeslice_benchmark::sizes::Workload;

fn out_dir(tag: &str) -> PathBuf {
    // Inside the package's build directory; short, because the scratch
    // below it holds Unix sockets (`sun_path` is 108 bytes).
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("smoke-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn smoke(workload: Workload, trace: bool) {
    let tag = format!("{}-{}", workload.name(), u8::from(trace));
    let out = out_dir(&tag);
    let opts = Options {
        workload,
        seed: 5,
        seconds: 1.0,
        trace,
        quick: true,
        out_dir: out.clone(),
    };
    run(&opts).unwrap_or_else(|e| panic!("{tag}: {e}"));

    let suffix = if trace { "-traced" } else { "" };
    let info = std::fs::read_to_string(info_path(&out, workload.name(), suffix)).unwrap();
    assert!(
        info.contains("\"comparable\": false"),
        "quick runs are marked"
    );
    if trace {
        let spans = out.join(format!("trace-{}.json", workload.name()));
        assert!(std::fs::metadata(spans).unwrap().len() > 0);
    }
    // Scratch directories, sockets and checkpoints are gone.
    let left: Vec<String> = std::fs::read_dir(&out)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| !name.ends_with(".json"))
        .collect();
    assert!(left.is_empty(), "left behind: {left:?}");
    std::fs::remove_dir_all(&out).unwrap();
}

#[test]
fn train_paper_untraced() {
    smoke(Workload::TrainPaper, false);
}

#[test]
fn train_paper_traced() {
    smoke(Workload::TrainPaper, true);
}

#[test]
fn run_long_untraced() {
    smoke(Workload::RunLong, false);
}

#[test]
fn run_long_traced() {
    smoke(Workload::RunLong, true);
}

#[test]
fn run_durable_untraced() {
    smoke(Workload::RunDurable, false);
}

#[test]
fn run_durable_traced() {
    smoke(Workload::RunDurable, true);
}

#[test]
fn run_net_untraced() {
    smoke(Workload::RunNet, false);
}

#[test]
fn run_net_traced() {
    smoke(Workload::RunNet, true);
}
