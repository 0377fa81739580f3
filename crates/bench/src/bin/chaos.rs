//! Chaos harness: crash-consistency under a *real* process kill.
//!
//! Modes:
//!
//! * `--smoke` — in-process resume equivalence: a run interrupted after
//!   5 of 8 rounds and resumed from its snapshots must reproduce the
//!   uninterrupted run byte for byte.
//! * `--child <dir> <seed> <rounds>` — the victim: runs with per-round
//!   checkpointing and wall-clock stragglers (so a kill lands mid-run),
//!   writing `<dir>/report.json` if it survives to the end.
//! * `--kill-resume` — spawns itself as `--child`, kills it mid-run
//!   (SIGKILL, no cleanup), resumes from whatever snapshots hit the disk,
//!   and compares against an inline uninterrupted reference.
//!
//! With no arguments, runs `--smoke` then `--kill-resume`.
//!
//! Run: `cargo run --release -p edgeslice-bench --bin chaos`

#![cfg_attr(not(test), deny(clippy::float_cmp))]

use std::path::{Path, PathBuf};
use std::time::Duration;

use edgeslice::{
    AgentConfig, EdgeSliceSystem, FaultEvent, FaultInjector, FaultPlan, OrchestratorKind, RaId,
    SupervisorConfig, SystemConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const ROUNDS: usize = 12;
const N_RAS: usize = 2;

fn system(seed: u64) -> (EdgeSliceSystem, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sys = EdgeSliceSystem::new(
        SystemConfig::prototype(),
        OrchestratorKind::Taro,
        &AgentConfig::default(),
        &mut rng,
    );
    sys.set_supervision(SupervisorConfig {
        max_restarts: 3,
        backoff_base: Duration::ZERO,
        backoff_max: Duration::ZERO,
    });
    (sys, rng)
}

/// The shared fault script: a panic, an outage spanning snapshot
/// boundaries, and stragglers on every round (the stragglers are what the
/// child turns into wall-clock delay so the kill lands mid-run).
fn plan(rounds: usize) -> FaultPlan {
    let mut events = vec![
        FaultEvent::WorkerPanic {
            ra: RaId(1),
            round: 1,
        },
        FaultEvent::RaOutage {
            ra: RaId(0),
            start_round: 3,
            rounds: 3,
        },
    ];
    for round in 0..rounds {
        events.push(FaultEvent::Straggler {
            ra: RaId(round % N_RAS),
            round,
        });
    }
    FaultPlan::scripted(N_RAS, rounds, events).expect("static plan is valid")
}

fn reference_json(seed: u64, rounds: usize) -> String {
    let injector = FaultInjector::new(plan(rounds));
    let (mut sys, mut rng) = system(seed);
    let report = sys.run_with_faults(rounds, &mut rng, &injector);
    report.to_json().expect("report serializes")
}

fn resume_json(dir: &Path, seed: u64, rounds: usize) -> String {
    let injector = FaultInjector::new(plan(rounds));
    let (mut sys, mut rng) = system(seed);
    let report = sys
        .resume(dir, rounds, &mut rng, &injector)
        .expect("resume succeeds");
    report.to_json().expect("report serializes")
}

fn check(label: &str, got: &str, want: &str) {
    if got == want {
        println!("  [ok] {label}: byte-identical ({} bytes)", want.len());
    } else {
        eprintln!("  [FAIL] {label}: resumed report diverges from reference");
        std::process::exit(1);
    }
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("edgeslice-chaos-bin-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn smoke() {
    println!("== smoke: in-process interrupt + resume ==");
    let (seed, rounds) = (97, 8);
    let dir = fresh_dir("smoke");
    let want = reference_json(seed, rounds);

    let injector = FaultInjector::new(plan(rounds));
    let (mut victim, mut rng) = system(seed);
    victim.set_checkpointing(&dir, 2).expect("dir is writable");
    let _ = victim.run_with_faults(5, &mut rng, &injector);
    drop(victim);

    check("smoke", &resume_json(&dir, seed, rounds), &want);
    let _ = std::fs::remove_dir_all(&dir);
}

fn child(dir: &Path, seed: u64, rounds: usize) {
    let injector = FaultInjector::new(plan(rounds));
    let (mut sys, mut rng) = system(seed);
    sys.set_checkpointing(dir, 1).expect("dir is writable");
    // Stragglers sleep for real so the parent's kill lands mid-run; the
    // engine deadline stays far above the sleep so nothing times out.
    sys.set_straggle_sleep(Duration::from_millis(60));
    let report = sys.run_with_faults(rounds, &mut rng, &injector);
    std::fs::write(
        dir.join("report.json"),
        report.to_json().expect("report serializes"),
    )
    .expect("report.json is writable");
}

fn kill_resume() {
    println!("== kill-resume: SIGKILL a checkpointing child, resume here ==");
    let seed = 101;
    let dir = fresh_dir("kill");
    std::fs::create_dir_all(&dir).expect("tmp dir is creatable");
    let exe = std::env::current_exe().expect("own path");
    let mut victim = std::process::Command::new(exe)
        .arg("--child")
        .arg(&dir)
        .arg(seed.to_string())
        .arg(ROUNDS.to_string())
        .spawn()
        .expect("child spawns");
    // The child's straggler sleeps stretch the run well past this point;
    // the kill lands mid-round with snapshots already on disk.
    std::thread::sleep(Duration::from_millis(350));
    let _ = victim.kill();
    let _ = victim.wait();

    let snapshots = std::fs::read_dir(&dir)
        .map(|it| {
            it.flatten()
                .filter(|e| e.path().extension().is_some_and(|x| x == "ckpt"))
                .count()
        })
        .unwrap_or(0);
    let finished = dir.join("report.json").exists();
    println!("  killed child: {snapshots} snapshot(s) on disk, finished={finished}");

    let want = reference_json(seed, ROUNDS);
    if finished {
        // Kill raced past the end of the run: the child's own report must
        // already match the reference.
        let got = std::fs::read_to_string(dir.join("report.json")).expect("report readable");
        check("kill-resume (child finished)", &got, &want);
    } else {
        check("kill-resume", &resume_json(&dir, seed, ROUNDS), &want);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--smoke") => smoke(),
        Some("--child") => {
            let dir = PathBuf::from(args.get(1).expect("--child <dir> <seed> <rounds>"));
            let seed: u64 = args.get(2).expect("seed").parse().expect("seed is u64");
            let rounds: usize = args.get(3).expect("rounds").parse().expect("rounds");
            child(&dir, seed, rounds);
        }
        Some("--kill-resume") => kill_resume(),
        None => {
            smoke();
            kill_resume();
        }
        Some(other) => {
            eprintln!("unknown mode {other}; use --smoke | --kill-resume | --child");
            std::process::exit(2);
        }
    }
    println!("chaos harness: all checks passed");
}
