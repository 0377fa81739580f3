//! Runtime scaling: sequential vs threaded execution of training and
//! coordination rounds on the 5-slice / 10-RA simulation config, verifying
//! on the way that both schedulers produce bit-identical reports.
//!
//! Run: `cargo run --release -p edgeslice-bench --bin scale -- [--workers N]
//! [--rounds N] [--smoke] [--out PATH]`
//!
//! `--smoke` shrinks the schedule to a 1-round CI-sized check. Results are
//! written as JSON (default `results/BENCH_runtime.json`) with the host's
//! available parallelism recorded alongside, since speedups are bounded by
//! the machine the bench ran on.

#![cfg_attr(not(test), deny(clippy::float_cmp))]

use std::time::{Duration, Instant};

use edgeslice::{
    AgentConfig, EdgeSliceSystem, OrchestratorKind, RunReport, Scheduler, SystemConfig,
};
use edgeslice_bench::Knobs;
use edgeslice_rl::Technique;

const N_SLICES: usize = 5;
const N_RAS: usize = 10;

struct Args {
    workers: usize,
    rounds: usize,
    train_steps: usize,
    out: String,
    smoke: bool,
}

fn parse_args() -> Args {
    let host = std::thread::available_parallelism().map_or(1, usize::from);
    let mut args = Args {
        workers: host.clamp(2, 4),
        rounds: 5,
        train_steps: Knobs::from_env().train_steps.min(2_000),
        out: "results/BENCH_runtime.json".to_string(),
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workers" => {
                args.workers = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--workers takes a positive integer");
            }
            "--rounds" => {
                args.rounds = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--rounds takes a positive integer");
            }
            "--out" => {
                args.out = it.next().expect("--out takes a path");
            }
            "--smoke" => {
                args.smoke = true;
                args.rounds = 1;
                args.train_steps = 200;
            }
            other => panic!("unknown flag {other:?} (see the module docs)"),
        }
    }
    args
}

/// Builds the system, trains it, and runs it — all under `scheduler` —
/// returning the phase wall-clock times and the report.
fn measure(args: &Args, scheduler: Scheduler) -> (Duration, Duration, RunReport) {
    let knobs = Knobs::from_env();
    let mut rng = knobs.rng(0);
    let config = SystemConfig::simulation(N_SLICES, N_RAS, &mut rng);
    let mut sys = EdgeSliceSystem::new(
        config,
        OrchestratorKind::Learned(Technique::Ddpg),
        &AgentConfig::default(),
        &mut rng,
    );
    sys.set_scheduler(scheduler);
    let t0 = Instant::now();
    sys.train(args.train_steps, &mut rng);
    let train = t0.elapsed();
    let t1 = Instant::now();
    let report = sys.run(args.rounds, &mut rng);
    let run = t1.elapsed();
    (train, run, report)
}

fn main() {
    let args = parse_args();
    let host = std::thread::available_parallelism().map_or(1, usize::from);
    println!("=== Runtime scaling ({N_SLICES} slices, {N_RAS} RAs) ===");
    println!(
        "train {} steps/agent, {} round(s); host parallelism {host}, threaded workers {}\n",
        args.train_steps, args.rounds, args.workers
    );

    let (seq_train, seq_run, seq_report) = measure(&args, Scheduler::Sequential);
    let threaded = Scheduler::Threaded(args.workers);
    let (thr_train, thr_run, thr_report) = measure(&args, threaded);

    let seq_json = seq_report.to_json().expect("report serializes");
    let thr_json = thr_report.to_json().expect("report serializes");
    assert_eq!(
        seq_json, thr_json,
        "schedulers diverged — determinism contract broken"
    );

    let rounds = seq_report.rounds.len().max(1) as f64;
    let train_speedup = seq_train.as_secs_f64() / thr_train.as_secs_f64().max(1e-9);
    let run_speedup = seq_run.as_secs_f64() / thr_run.as_secs_f64().max(1e-9);
    println!(
        "{:>12}  {:>12}  {:>14}  {:>14}",
        "scheduler", "train (s)", "run (rounds/s)", "report"
    );
    println!(
        "{:>12}  {:>12.3}  {:>14.3}  {:>14}",
        "sequential",
        seq_train.as_secs_f64(),
        rounds / seq_run.as_secs_f64().max(1e-9),
        "baseline"
    );
    println!(
        "{:>12}  {:>12.3}  {:>14.3}  {:>14}",
        format!("{threaded}"),
        thr_train.as_secs_f64(),
        rounds / thr_run.as_secs_f64().max(1e-9),
        "bit-identical"
    );
    println!("\ntrain speedup x{train_speedup:.2}, run speedup x{run_speedup:.2}");
    if host == 1 {
        println!("(single-core host: threading cannot beat sequential here)");
    }

    // Hand-rolled JSON: the schema is flat and the vendored serde_json
    // stand-in has no `json!` macro.
    let json = format!(
        "{{\n  \"bench\": \"runtime_scaling\",\n  \"config\": {{\"n_slices\": {N_SLICES}, \"n_ras\": {N_RAS}, \"train_steps\": {}, \"rounds\": {}}},\n  \"host_parallelism\": {host},\n  \"threaded_workers\": {},\n  \"smoke\": {},\n  \"sequential\": {{\"train_s\": {:.6}, \"run_s\": {:.6}, \"run_rounds_per_s\": {:.6}}},\n  \"threaded\": {{\"train_s\": {:.6}, \"run_s\": {:.6}, \"run_rounds_per_s\": {:.6}}},\n  \"train_speedup\": {:.6},\n  \"run_speedup\": {:.6},\n  \"reports_bit_identical\": true\n}}\n",
        args.train_steps,
        args.rounds,
        args.workers,
        args.smoke,
        seq_train.as_secs_f64(),
        seq_run.as_secs_f64(),
        rounds / seq_run.as_secs_f64().max(1e-9),
        thr_train.as_secs_f64(),
        thr_run.as_secs_f64(),
        rounds / thr_run.as_secs_f64().max(1e-9),
        train_speedup,
        run_speedup,
    );
    if let Some(dir) = std::path::Path::new(&args.out).parent() {
        std::fs::create_dir_all(dir).expect("create results dir");
    }
    std::fs::write(&args.out, json).expect("write bench JSON");
    println!("wrote {}", args.out);
}
