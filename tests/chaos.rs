//! Chaos acceptance: supervised execution under real worker panics,
//! crash-consistent checkpointing, and resume-equivalence.
//!
//! The contract under test, end to end:
//!
//! * injected worker panics are *real* unwinds crossing `catch_unwind`,
//!   isolated per RA, respawned under a bounded restart budget, and every
//!   downed RA is reported explicitly — never silently truncated into a
//!   missing report;
//! * a run resumed from the newest durable snapshot produces a report
//!   byte-identical to the run that was never interrupted (same seed,
//!   same fault plan) — including across the train-then-run pipeline;
//! * corrupt or truncated snapshot files are rejected with typed errors
//!   and resume falls back to the newest snapshot that validates.

use std::time::Duration;

use edgeslice::{
    AgentConfig, CheckpointStore, EdgeSliceError, EdgeSliceSystem, FaultConfig, FaultEvent,
    FaultInjector, FaultPlan, OrchestratorKind, RaId, ResourceKind, Scheduler, SupervisorConfig,
    SystemConfig,
};
use edgeslice_rl::{DdpgConfig, Technique};
use rand::rngs::StdRng;
use rand::SeedableRng;

const ROUNDS: usize = 8;
const N_RAS: usize = 2;

fn taro_system(rng: &mut StdRng) -> EdgeSliceSystem {
    let mut sys = EdgeSliceSystem::new(
        SystemConfig::prototype(),
        OrchestratorKind::Taro,
        &AgentConfig::default(),
        rng,
    );
    // Keep the suite fast: panics respawn without backoff sleeps.
    sys.set_supervision(SupervisorConfig {
        max_restarts: 3,
        backoff_base: Duration::ZERO,
        backoff_max: Duration::ZERO,
    });
    sys
}

fn quick_agent_config() -> AgentConfig {
    AgentConfig {
        ddpg: DdpgConfig {
            hidden: 16,
            batch_size: 32,
            warmup: 50,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("edgeslice-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A scripted plan composing three worker panics with an outage, a
/// broadcast drop, and a capacity degradation — the chaos mix.
fn chaos_plan() -> FaultPlan {
    FaultPlan::scripted(
        N_RAS,
        ROUNDS,
        vec![
            FaultEvent::WorkerPanic {
                ra: RaId(1),
                round: 1,
            },
            FaultEvent::WorkerPanic {
                ra: RaId(1),
                round: 3,
            },
            FaultEvent::WorkerPanic {
                ra: RaId(0),
                round: 5,
            },
            FaultEvent::RaOutage {
                ra: RaId(0),
                start_round: 2,
                rounds: 2,
            },
            FaultEvent::BroadcastDrop {
                ra: RaId(1),
                round: 5,
            },
            FaultEvent::CapacityDegradation {
                ra: RaId(1),
                domain: ResourceKind::Radio,
                start_round: 6,
                rounds: 2,
                factor: 0.5,
            },
        ],
    )
    .unwrap()
}

/// Tentpole: three real injected panics (plus scripted outage / drop /
/// degradation) are survived; every panicked (RA, round) is explicitly
/// reported both per round and in the supervision log; the SLA target is
/// prorated for the dark intervals; every numeric invariant stays finite;
/// and the sequential and threaded topologies agree byte for byte.
#[test]
fn chaos_mix_is_survived_reported_and_deterministic() {
    let injector = FaultInjector::new(chaos_plan());
    let mut reports = Vec::new();
    for scheduler in [Scheduler::Sequential, Scheduler::Threaded(2)] {
        let mut rng = StdRng::seed_from_u64(11);
        let mut sys = taro_system(&mut rng);
        sys.set_scheduler(scheduler);
        let report = sys.run_with_faults(ROUNDS, &mut rng, &injector);
        assert_eq!(report.rounds.len(), ROUNDS, "panics must not abort the run");
        reports.push(report);
    }
    let report = &reports[0];
    assert_eq!(
        reports[0].to_json().unwrap(),
        reports[1].to_json().unwrap(),
        "sequential and threaded chaos runs must be bit-identical"
    );

    // Every scripted panic shows up as an explicit per-round down report
    // AND a supervision event — no silent missing-report truncation.
    for (ra, round) in [(RaId(1), 1_usize), (RaId(1), 3), (RaId(0), 5)] {
        assert!(
            report.rounds[round].downed.contains(&ra),
            "round {round}: panicked {ra:?} missing from downed"
        );
        assert!(
            report
                .supervision
                .worker_downs
                .iter()
                .any(|d| d.ra == ra && d.round == round && d.cause.contains("panic")),
            "round {round}: no supervision event for {ra:?}"
        );
        // The panicked RA served nothing: the SLA target is prorated.
        assert!(
            report.rounds[round].served_fraction < 1.0,
            "round {round}: panic must shrink served_fraction"
        );
    }
    assert!(report.supervision.worker_downs.len() >= 3);
    assert_eq!(report.supervision.discarded_reports, 0);
    assert_eq!(report.supervision.deadline_timeouts, 0);

    // Rounds without scripted faults are fully served.
    assert_eq!(report.rounds[0].served_fraction, 1.0);
    assert!(report.rounds[0].downed.is_empty());
    // Round 3 overlaps RA 0's outage with RA 1's panic: nothing serves.
    assert_eq!(report.rounds[3].served_fraction, 0.0);

    // Capacity/consistency invariants hold every round.
    for r in &report.rounds {
        assert!(r.system_performance.is_finite());
        assert!((0.0..=1.0).contains(&r.served_fraction));
        assert_eq!(r.sla_met.len(), 2);
        for usage in &r.usage {
            for &u in usage {
                assert!((0.0..=1.0 + 1e-9).contains(&u), "usage {u} out of range");
            }
        }
        for &l in &r.load {
            assert!(l.is_finite() && l >= 0.0);
        }
    }
}

/// A panic beyond the restart budget kills the worker for good: every
/// remaining round reports the RA down with the exhaustion cause.
#[test]
fn restart_budget_exhaustion_is_reported_every_round() {
    let plan = FaultPlan::scripted(
        N_RAS,
        ROUNDS,
        (0..4)
            .map(|k| FaultEvent::WorkerPanic {
                ra: RaId(1),
                round: k,
            })
            .collect(),
    )
    .unwrap();
    let injector = FaultInjector::new(plan);
    let mut rng = StdRng::seed_from_u64(13);
    let mut sys = taro_system(&mut rng);
    let report = sys.run_with_faults(ROUNDS, &mut rng, &injector);
    assert_eq!(report.rounds.len(), ROUNDS);
    // Rounds 0..3: caught panics (within max_restarts = 3). Round 3's
    // panic exceeds the budget; rounds 4.. re-report the dead worker.
    for r in &report.rounds {
        assert_eq!(r.downed, vec![RaId(1)], "round {}", r.round);
    }
    let exhausted: Vec<_> = report
        .supervision
        .worker_downs
        .iter()
        .filter(|d| d.cause.contains("restart budget exhausted"))
        .collect();
    assert_eq!(
        exhausted.len(),
        ROUNDS - 4,
        "rounds 4.. re-report the death"
    );
    // RA 0 is untouched throughout.
    assert!(report
        .supervision
        .worker_downs
        .iter()
        .all(|d| d.ra == RaId(1)));
}

/// Satellite: a worker panicking mid-round under `Scheduler::Threaded`
/// leaves the run complete, the panicked RA reported down, and the
/// surviving RA's rounds bit-identical to the sequential topology.
#[test]
fn threaded_mid_round_panic_is_isolated() {
    let plan = FaultPlan::scripted(
        N_RAS,
        4,
        vec![FaultEvent::WorkerPanic {
            ra: RaId(0),
            round: 1,
        }],
    )
    .unwrap();
    let injector = FaultInjector::new(plan);
    let mut jsons = Vec::new();
    for scheduler in [Scheduler::Threaded(2), Scheduler::Sequential] {
        let mut rng = StdRng::seed_from_u64(17);
        let mut sys = taro_system(&mut rng);
        sys.set_scheduler(scheduler);
        let report = sys.run_with_faults(4, &mut rng, &injector);
        assert_eq!(report.rounds.len(), 4);
        assert_eq!(report.rounds[1].downed, vec![RaId(0)]);
        assert!(report.rounds[1].outages.is_empty());
        assert_eq!(report.supervision.worker_downs.len(), 1);
        assert!(report.supervision.worker_downs[0].cause.contains("panic"));
        jsons.push(report.to_json().unwrap());
    }
    assert_eq!(jsons[0], jsons[1]);
}

/// Tentpole: kill-and-resume equivalence. A run interrupted after its
/// last snapshot and resumed in a fresh process (fresh system, same
/// construction seed) produces a report byte-identical to the run that
/// was never interrupted — with an outage spanning the resume boundary
/// and a panic before it, so checkpointed duals, restart budgets, and
/// mid-outage rejoin state all cross the boundary.
#[test]
fn resumed_run_is_byte_identical_to_uninterrupted_run() {
    let dir = tmp_dir("resume");
    let plan = FaultPlan::scripted(
        N_RAS,
        ROUNDS,
        vec![
            FaultEvent::WorkerPanic {
                ra: RaId(1),
                round: 1,
            },
            // Outage rounds 3..6: starts before the round-4 snapshot
            // boundary, ends after it — the rejoin happens post-resume.
            FaultEvent::RaOutage {
                ra: RaId(0),
                start_round: 3,
                rounds: 3,
            },
        ],
    )
    .unwrap();
    let injector = FaultInjector::new(plan);

    // Reference: the run nobody interrupted.
    let mut rng = StdRng::seed_from_u64(23);
    let mut reference = taro_system(&mut rng);
    let expected = reference.run_with_faults(ROUNDS, &mut rng, &injector);

    // Victim: same seeds, checkpointing every 2 rounds, "killed" after
    // round 5 (we simply stop the process loop there — the snapshot on
    // disk is the round-4 one either way).
    let mut rng = StdRng::seed_from_u64(23);
    let mut victim = taro_system(&mut rng);
    victim.set_checkpointing(&dir, 2).unwrap();
    let partial = victim.run_with_faults(5, &mut rng, &injector);
    assert_eq!(partial.rounds.len(), 5);
    drop(victim);

    // Resume: a fresh process re-creates the system from the same seed
    // and resumes from the newest snapshot.
    let mut rng = StdRng::seed_from_u64(23);
    let mut resumed = taro_system(&mut rng);
    let report = resumed.resume(&dir, ROUNDS, &mut rng, &injector).unwrap();
    assert_eq!(
        report.to_json().unwrap(),
        expected.to_json().unwrap(),
        "resumed report must be byte-identical to the uninterrupted run"
    );

    // Resuming a finished run replays nothing: the newest snapshot (the
    // end-of-run one the resumed process wrote) already covers the
    // requested horizon, so the stored report comes back verbatim.
    let mut rng = StdRng::seed_from_u64(23);
    let mut again = taro_system(&mut rng);
    let replay = again.resume(&dir, 4, &mut rng, &injector).unwrap();
    assert_eq!(replay.to_json().unwrap(), expected.to_json().unwrap());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Tentpole (learned pipeline): `train` checkpoints each RA's trained
/// policy, a re-run skips retraining via those snapshots, and the resumed
/// run is byte-identical to the uninterrupted train-then-run program.
#[test]
fn learned_train_then_run_resumes_byte_identically() {
    let dir = tmp_dir("learned");
    let steps = 300;
    let make = |rng: &mut StdRng| {
        EdgeSliceSystem::new(
            SystemConfig::prototype(),
            OrchestratorKind::Learned(Technique::Ddpg),
            &quick_agent_config(),
            rng,
        )
    };
    let plan = FaultPlan::scripted(
        N_RAS,
        ROUNDS,
        vec![FaultEvent::WorkerPanic {
            ra: RaId(0),
            round: 2,
        }],
    )
    .unwrap();
    let injector = FaultInjector::new(plan);

    // Reference: train + run, never interrupted, no checkpointing.
    let mut rng = StdRng::seed_from_u64(29);
    let mut reference = make(&mut rng);
    reference.set_supervision(SupervisorConfig {
        backoff_base: Duration::ZERO,
        backoff_max: Duration::ZERO,
        ..SupervisorConfig::default()
    });
    reference.train(steps, &mut rng);
    let expected = reference.run_with_faults(ROUNDS, &mut rng, &injector);

    // Victim: same program with checkpointing, killed after round 3
    // (snapshots at rounds 2; k = 2 writes at 2 and 4 — round 3 stop
    // leaves the round-2 snapshot newest).
    let mut rng = StdRng::seed_from_u64(29);
    let mut victim = make(&mut rng);
    victim.set_checkpointing(&dir, 2).unwrap();
    victim.train(steps, &mut rng);
    assert_eq!(victim.restored_policy_count(), 0, "first train trains live");
    let _ = victim.run_with_faults(3, &mut rng, &injector);
    drop(victim);

    // Resumed process: training is skipped via the train snapshots, the
    // run picks up from the newest run snapshot.
    let mut rng = StdRng::seed_from_u64(29);
    let mut resumed = make(&mut rng);
    resumed.set_checkpointing(&dir, 2).unwrap();
    resumed.train(steps, &mut rng);
    assert_eq!(
        resumed.restored_policy_count(),
        N_RAS,
        "second train must skip to the stored policies"
    );
    let report = resumed.resume(&dir, ROUNDS, &mut rng, &injector).unwrap();
    assert_eq!(
        report.to_json().unwrap(),
        expected.to_json().unwrap(),
        "resumed learned run must be byte-identical to the uninterrupted one"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Tentpole: corrupt snapshots are rejected with typed errors and resume
/// falls back to the newest snapshot that validates, still reproducing
/// the uninterrupted run exactly. With *every* snapshot destroyed, resume
/// degrades to a clean fresh run — same report.
#[test]
fn corrupt_snapshots_fall_back_to_previous_valid_state() {
    let dir = tmp_dir("corrupt");
    let injector = FaultInjector::none(N_RAS, ROUNDS);

    let mut rng = StdRng::seed_from_u64(31);
    let mut reference = taro_system(&mut rng);
    let expected = reference.run_with_faults(ROUNDS, &mut rng, &injector);

    let mut rng = StdRng::seed_from_u64(31);
    let mut victim = taro_system(&mut rng);
    victim.set_checkpointing(&dir, 1).unwrap();
    let _ = victim.run_with_faults(6, &mut rng, &injector);
    drop(victim);

    // Truncate the newest snapshot mid-payload; bit-flip the second;
    // stamp a foreign format version on the third.
    let snap = |n: usize| dir.join(format!("run_{n:06}.ckpt"));
    let bytes = std::fs::read(snap(6)).unwrap();
    std::fs::write(snap(6), &bytes[..bytes.len() / 2]).unwrap();
    let mut bytes = std::fs::read(snap(5)).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(snap(5), &bytes).unwrap();
    let mut bytes = std::fs::read(snap(4)).unwrap();
    bytes[4] = 0x2A;
    std::fs::write(snap(4), &bytes).unwrap();

    // The typed rejections, file by file.
    let store = CheckpointStore::open(&dir).unwrap();
    assert!(matches!(
        store.load_run(&snap(6)),
        Err(EdgeSliceError::CorruptSnapshot { .. })
    ));
    assert!(matches!(
        store.load_run(&snap(5)),
        Err(EdgeSliceError::CorruptSnapshot { .. })
    ));
    assert!(matches!(
        store.load_run(&snap(4)),
        Err(EdgeSliceError::UnsupportedSnapshotVersion { found: 0x2A, .. })
    ));
    let latest = store.latest_run().unwrap();
    assert_eq!(latest.rejected.len(), 3, "three newest snapshots rejected");
    assert_eq!(
        latest.snapshot.as_ref().map(|s| s.next_round),
        Some(3),
        "fallback lands on the newest valid snapshot"
    );

    // Resume from the surviving round-3 snapshot: still exact.
    let mut rng = StdRng::seed_from_u64(31);
    let mut resumed = taro_system(&mut rng);
    let report = resumed.resume(&dir, ROUNDS, &mut rng, &injector).unwrap();
    assert_eq!(report.to_json().unwrap(), expected.to_json().unwrap());

    // Destroy everything: resume degrades to a fresh (identical) run.
    for n in 1..=3 {
        let bytes = std::fs::read(snap(n)).unwrap();
        std::fs::write(snap(n), &bytes[..10]).unwrap();
    }
    let mut rng = StdRng::seed_from_u64(31);
    let mut resumed = taro_system(&mut rng);
    let report = resumed.resume(&dir, ROUNDS, &mut rng, &injector).unwrap();
    assert_eq!(report.to_json().unwrap(), expected.to_json().unwrap());
    let _ = std::fs::remove_dir_all(&dir);
}

/// The generated `chaos` preset composes scripted panics with the stress
/// mix; the run completes with every downed RA accounted for.
#[test]
fn generated_chaos_preset_runs_to_completion() {
    let plan = FaultPlan::generate(&FaultConfig::chaos(N_RAS, ROUNDS, 41)).unwrap();
    let n_panics = plan
        .events()
        .iter()
        .filter(|e| matches!(e, FaultEvent::WorkerPanic { .. }))
        .count();
    let injector = FaultInjector::new(plan);
    let mut rng = StdRng::seed_from_u64(43);
    let mut sys = taro_system(&mut rng);
    let report = sys.run_with_faults(ROUNDS, &mut rng, &injector);
    assert_eq!(report.rounds.len(), ROUNDS);
    // Every *effective* panic (not suppressed by an overlapping outage,
    // not beyond a dead worker) is reported; the report never invents
    // events the plan didn't contain.
    assert!(report.supervision.worker_downs.len() >= n_panics.min(1));
    for r in &report.rounds {
        assert!(r.system_performance.is_finite());
        assert!((0.0..=1.0).contains(&r.served_fraction));
    }
}
