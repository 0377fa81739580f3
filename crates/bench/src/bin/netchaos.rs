//! Multi-process chaos harness: lease-based failure detection under a
//! *real* `kill -9` of a worker process.
//!
//! Where `chaos` proves crash-consistent resume inside one process, this
//! harness runs the networked runtime across real OS processes joined by
//! a Unix-domain socket, then SIGKILLs a worker mid-run and checks the
//! coordinator's failure story:
//!
//! * the death is detected by the worker's *lapsed lease* — the
//!   registration plane — never by the broken socket
//!   (`supervision.disconnects` stays 0);
//! * the run completes every round through the degraded-ADMM path;
//! * (`--kill-rejoin`) a freshly spawned replacement process re-syncs
//!   from the latest checkpoint snapshot, re-registers as a rejoin, and
//!   serves the remaining rounds.
//!
//! Modes:
//!
//! * `--smoke` — spawn two worker processes, SIGKILL one mid-run, finish
//!   degraded.
//! * `--kill-rejoin` — as above, plus a replacement worker process that
//!   re-syncs from the shared checkpoint store.
//! * `--worker <ra> <sock> <seed> <rounds> [store_dir]` — a worker child
//!   (spawned by the harness, not by hand).
//!
//! With no arguments, runs `--smoke` then `--kill-rejoin`.
//!
//! Run: `cargo run --release -p edgeslice-bench --bin netchaos`

#![cfg_attr(not(test), deny(clippy::float_cmp))]

use std::path::{Path, PathBuf};
use std::time::Duration;

use edgeslice::{
    connect_uds, AgentConfig, Clock, EdgeSliceSystem, FaultEvent, FaultInjector, FaultPlan, Lease,
    ListenerAcceptor, NetConfig, NetCoordinator, NetListener, OrchestratorKind, RaId, RetryPolicy,
    RunReport, SystemConfig, WorkerNetOptions,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const N_RAS: usize = 2;
const VICTIM: usize = 1;

fn system(seed: u64) -> (EdgeSliceSystem, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let sys = EdgeSliceSystem::new(
        SystemConfig::prototype(),
        OrchestratorKind::Taro,
        &AgentConfig::default(),
        &mut rng,
    );
    (sys, rng)
}

/// Every round drags a straggler on the surviving RA so wall-clock time
/// per round stays ≥ the straggle sleep — that's what guarantees the
/// parent's SIGKILL lands *mid-run*, with rounds still to serve.
fn plan(rounds: usize) -> FaultPlan {
    let events = (0..rounds)
        .map(|round| FaultEvent::Straggler { ra: RaId(0), round })
        .collect();
    FaultPlan::scripted(N_RAS, rounds, events).expect("static plan is valid")
}

/// Coordinator-side knobs: a generous gather deadline (healthy rounds are
/// bounded by the straggler sleep, dead links are skipped immediately).
fn net_config() -> NetConfig {
    NetConfig {
        round_deadline: Duration::from_secs(10),
        registration_timeout: Duration::from_secs(20),
        ..NetConfig::default()
    }
}

/// Worker-side knobs: a one-round lease so a killed process is declared
/// down two rounds after its last report.
fn worker_opts() -> WorkerNetOptions {
    WorkerNetOptions {
        lease: Lease {
            deadline_rounds: 1,
            wall_backstop: None,
        },
        ..WorkerNetOptions::default()
    }
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("edgeslice-netchaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmp dir is creatable");
    dir
}

fn check(label: &str, ok: bool, detail: &str) {
    if ok {
        println!("  [ok] {label}");
    } else {
        eprintln!("  [FAIL] {label}: {detail}");
        std::process::exit(1);
    }
}

/// The worker child: builds the same system from the same seed, connects
/// to the coordinator socket, and serves its RA until shutdown. With a
/// store dir it re-syncs from the latest snapshot first (the replacement
/// process in `--kill-rejoin`), recording the outcome for the parent in
/// `<store_dir>/outcome-ra<ra>.txt`.
fn worker(ra: usize, sock: &Path, seed: u64, rounds: usize, store: Option<&Path>) {
    let (mut sys, mut rng) = system(seed);
    if let Some(dir) = store {
        sys.set_checkpointing(dir, 1)
            .expect("store dir is writable");
    }
    sys.set_straggle_sleep(Duration::from_millis(60));
    let injector = FaultInjector::new(plan(rounds));
    let t = connect_uds(sock, RetryPolicy::default(), Duration::from_secs(10))
        .expect("coordinator socket comes up");
    let outcome = sys
        .serve_ra(RaId(ra), &mut rng, &injector, t, &worker_opts())
        .expect("worker serves cleanly");
    println!(
        "worker ra={ra}: served {} round(s), resynced_from={:?}, caught_panics={}",
        outcome.rounds_served, outcome.resynced_from, outcome.caught_panics
    );
    if let Some(dir) = store {
        let line = format!(
            "rounds_served={} resynced_from={:?}",
            outcome.rounds_served, outcome.resynced_from
        );
        std::fs::write(dir.join(format!("outcome-ra{ra}.txt")), line)
            .expect("outcome file is writable");
    }
}

fn spawn_worker(
    sock: &Path,
    ra: usize,
    seed: u64,
    rounds: usize,
    store: Option<&Path>,
) -> std::process::Child {
    let exe = std::env::current_exe().expect("own path");
    let mut cmd = std::process::Command::new(exe);
    cmd.arg("--worker")
        .arg(ra.to_string())
        .arg(sock)
        .arg(seed.to_string())
        .arg(rounds.to_string());
    if let Some(dir) = store {
        cmd.arg(dir);
    }
    cmd.spawn().expect("worker spawns")
}

/// Runs the coordinator over the bound socket while a helper thread
/// drives the fault script: kill the victim mid-run and, if asked,
/// spawn a replacement that re-syncs from `store`.
fn coordinate(dir: &Path, seed: u64, rounds: usize, store: bool, respawn: bool) -> RunReport {
    let sock = dir.join("coord.sock");
    let listener = NetListener::bind_uds(&sock).expect("socket binds");
    let mut net = NetCoordinator::new(N_RAS, net_config(), Clock::wall());
    net.set_acceptor(Box::new(ListenerAcceptor::new(
        listener,
        RetryPolicy::default(),
    )));

    let store_dir = store.then(|| dir.to_path_buf());
    let mut survivor = spawn_worker(&sock, 0, seed, rounds, None);
    let mut victim = spawn_worker(&sock, VICTIM, seed, rounds, None);

    let script = {
        let sock = sock.clone();
        let store_dir = store_dir.clone();
        std::thread::spawn(move || {
            // The straggler sleep stretches every round past 60 ms; by now
            // a few rounds are done and plenty remain.
            std::thread::sleep(Duration::from_millis(400));
            let _ = victim.kill();
            let _ = victim.wait();
            println!("  sent SIGKILL to worker ra={VICTIM}");
            if !respawn {
                return None;
            }
            // Give the lease time to lapse before the replacement knocks.
            std::thread::sleep(Duration::from_millis(400));
            println!("  spawning replacement worker ra={VICTIM}");
            Some(spawn_worker(
                &sock,
                VICTIM,
                seed,
                rounds,
                store_dir.as_deref(),
            ))
        })
    };

    let (mut sys, mut rng) = system(seed);
    if let Some(sdir) = &store_dir {
        sys.set_checkpointing(sdir, 1)
            .expect("store dir is writable");
    }
    let injector = FaultInjector::new(plan(rounds));
    let report = sys
        .run_networked(rounds, &mut rng, &injector, &mut net)
        .expect("coordinator completes");

    if let Some(mut replacement) = script.join().expect("script thread joins") {
        let _ = replacement.wait();
    }
    let _ = survivor.wait();
    report
}

fn check_lease_detection(report: &RunReport, rounds: usize) {
    let sup = &report.supervision;
    check(
        "run completes every round degraded",
        report.rounds.len() == rounds,
        &format!("{} of {rounds} rounds", report.rounds.len()),
    );
    check(
        "death detected by lease expiry, not by the socket",
        sup.disconnects == 0
            && sup.leases_expired >= 1
            && sup
                .worker_downs
                .iter()
                .any(|d| d.ra == RaId(VICTIM) && d.cause.contains("lease expired")),
        &format!("{sup:?}"),
    );
    check(
        "only the killed RA goes down",
        sup.worker_downs.iter().all(|d| d.ra == RaId(VICTIM)),
        &format!("{:?}", sup.worker_downs),
    );
}

fn smoke() {
    println!("== smoke: SIGKILL one of two worker processes over UDS ==");
    let dir = fresh_dir("smoke");
    let report = coordinate(&dir, 131, 12, false, false);
    check_lease_detection(&report, 12);
    let _ = std::fs::remove_dir_all(&dir);
}

fn kill_rejoin() {
    println!("== kill-rejoin: SIGKILL + respawned worker re-syncs from checkpoint ==");
    let dir = fresh_dir("rejoin");
    let rounds = 16;
    let report = coordinate(&dir, 137, rounds, true, true);
    check_lease_detection(&report, rounds);
    check(
        "replacement counted as a rejoin",
        report.supervision.rejoins >= 1,
        &format!("{:?}", report.supervision),
    );
    let outcome =
        std::fs::read_to_string(dir.join(format!("outcome-ra{VICTIM}.txt"))).unwrap_or_default();
    check(
        "replacement re-synced from a checkpoint snapshot",
        outcome.contains("resynced_from=Some"),
        &format!("outcome: {outcome:?}"),
    );
    let _ = std::fs::remove_dir_all(&dir);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--smoke") => smoke(),
        Some("--kill-rejoin") => kill_rejoin(),
        Some("--worker") => {
            let ra: usize = args.get(1).expect("ra").parse().expect("ra is usize");
            let sock = PathBuf::from(args.get(2).expect("--worker <ra> <sock> <seed> <rounds>"));
            let seed: u64 = args.get(3).expect("seed").parse().expect("seed is u64");
            let rounds: usize = args.get(4).expect("rounds").parse().expect("rounds");
            let store = args.get(5).map(PathBuf::from);
            worker(ra, &sock, seed, rounds, store.as_deref());
            return;
        }
        None => {
            smoke();
            kill_rejoin();
        }
        Some(other) => {
            eprintln!("unknown mode {other}; use --smoke | --kill-rejoin | --worker");
            std::process::exit(2);
        }
    }
    println!("netchaos harness: all checks passed");
}
