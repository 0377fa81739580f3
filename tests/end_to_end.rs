//! Cross-crate integration tests: the full Alg. 1 loop over envs, agents,
//! coordinator and monitor.

use edgeslice::{
    AgentConfig, EdgeSliceSystem, FaultEvent, FaultInjector, FaultPlan, OrchestratorKind, RaId,
    RunReport, SliceId, SystemConfig,
};
use edgeslice_rl::{DdpgConfig, Technique};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn quick_agents() -> AgentConfig {
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

#[test]
fn taro_run_is_reproducible_given_seed() {
    let run = |seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sys = EdgeSliceSystem::new(
            SystemConfig::prototype(),
            OrchestratorKind::Taro,
            &AgentConfig::default(),
            &mut rng,
        );
        sys.run(3, &mut rng)
    };
    let a = run(42);
    let b = run(42);
    let c = run(43);
    assert_eq!(a, b, "identical seeds must reproduce identical runs");
    assert_ne!(a, c, "different seeds must differ");
}

#[test]
fn monitor_agrees_with_run_report() {
    let mut rng = StdRng::seed_from_u64(0);
    let config = SystemConfig::prototype();
    let mut sys = EdgeSliceSystem::new(
        config,
        OrchestratorKind::Taro,
        &AgentConfig::default(),
        &mut rng,
    );
    let report = sys.run(4, &mut rng);
    let period = sys.config().reward.period;
    for r in &report.rounds {
        // `Σ U` over the round's rows, per slice (an outage row adds 0).
        let per_slice: Vec<f64> = (0..r.slice_performance.len())
            .map(|i| {
                let series = sys.monitor().slice_interval_series(SliceId(i), period);
                series[r.round * period..(r.round + 1) * period]
                    .iter()
                    .sum()
            })
            .collect();
        let monitored: f64 = per_slice.iter().sum();
        assert!(
            (monitored - r.system_performance).abs() < 1e-6,
            "round {}: monitor {monitored} vs report {}",
            r.round,
            r.system_performance
        );
        // Per-slice totals agree too.
        for (s, expected) in per_slice.iter().zip(&r.slice_performance) {
            assert!(
                (s - expected).abs() < 1e-6,
                "round {}: {s} vs {expected}",
                r.round
            );
        }
    }
    // Every (round, interval, ra, slice) tuple recorded exactly once.
    assert_eq!(
        sys.monitor().records().len(),
        report.rounds.len() * 10 * 2 * 2
    );
}

/// Every round's `usage` and `served_fraction` in `report` are, bit for
/// bit, what the monitor answers for that round after the fact.
fn assert_report_matches_monitor(sys: &EdgeSliceSystem, report: &RunReport) {
    let n_ras = sys.config().n_ras;
    let period = sys.config().reward.period;
    for r in &report.rounds {
        assert_eq!(
            r.served_fraction.to_bits(),
            sys.monitor()
                .round_served_fraction(r.round, n_ras, period)
                .to_bits(),
            "round {}: served fraction",
            r.round
        );
        for (i, usage) in r.usage.iter().enumerate() {
            assert_eq!(
                usage.map(f64::to_bits),
                sys.monitor()
                    .round_usage(r.round, SliceId(i))
                    .map(f64::to_bits),
                "round {}, slice {i}: usage",
                r.round
            );
        }
    }
}

/// The monitor's per-round aggregates are keyed by round, not by where a
/// round's rows sit in the history: a same-process kill + `resume`
/// re-appends the replayed round's rows (mid-outage here) behind later
/// rounds, and the report still equals the post-hoc queries exactly.
#[test]
fn round_records_equal_post_hoc_monitor_queries_across_outage_and_resume() {
    const ROUNDS: usize = 8;
    let dir = std::env::temp_dir().join(format!("edgeslice-e2e-monitor-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let plan = FaultPlan::scripted(
        2,
        ROUNDS,
        vec![FaultEvent::RaOutage {
            ra: RaId(0),
            start_round: 3,
            rounds: 3,
        }],
    )
    .unwrap();
    let injector = FaultInjector::new(plan);
    let mut rng = StdRng::seed_from_u64(23);
    let mut sys = EdgeSliceSystem::new(
        SystemConfig::prototype(),
        OrchestratorKind::Taro,
        &AgentConfig::default(),
        &mut rng,
    );
    sys.set_checkpointing(&dir, 2).unwrap();

    // "Killed" after round 5: the newest snapshot on disk is the round-4
    // one, so the resume below replays round 4 — the middle of the outage.
    let partial = sys.run_with_faults(5, &mut rng, &injector);
    assert_eq!(partial.rounds.len(), 5);
    assert!(partial.rounds[4].served_fraction < 1.0);
    assert_report_matches_monitor(&sys, &partial);
    let rows_per_round = sys.monitor().records().len() / 5;

    let report = sys.resume(&dir, ROUNDS, &mut rng, &injector).unwrap();
    assert_eq!(report.rounds.len(), ROUNDS);
    assert_eq!(sys.monitor().rounds(), ROUNDS);
    assert_eq!(
        sys.monitor().records().len(),
        (5 + ROUNDS - 4) * rows_per_round,
        "rounds 4.. were re-run on top of the five already recorded"
    );
    assert_report_matches_monitor(&sys, &report);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trained_ddpg_beats_taro_on_prototype() {
    // A scaled-down version of the Fig. 6a headline claim. Uses modest
    // training so the test stays under a minute in release mode.
    let mut rng = StdRng::seed_from_u64(7);
    let mut es = EdgeSliceSystem::new(
        SystemConfig::prototype(),
        OrchestratorKind::Learned(Technique::Ddpg),
        &AgentConfig::default(),
        &mut rng,
    );
    es.train(6_000, &mut rng);
    let es_perf = es.run(6, &mut rng).tail_system_performance(3);

    let mut rng_b = StdRng::seed_from_u64(7);
    let mut taro = EdgeSliceSystem::new(
        SystemConfig::prototype(),
        OrchestratorKind::Taro,
        &AgentConfig::default(),
        &mut rng_b,
    );
    let taro_perf = taro.run(6, &mut rng_b).tail_system_performance(3);

    assert!(
        es_perf > taro_perf,
        "EdgeSlice ({es_perf:.1}) must beat TARO ({taro_perf:.1})"
    );
    // The paper reports 3.69x; accept anything clearly better than 1.5x.
    assert!(
        taro_perf / es_perf > 1.5,
        "improvement factor too small: {:.2}",
        taro_perf / es_perf
    );
}

#[test]
fn coordination_round_count_respects_cap_and_convergence() {
    let mut rng = StdRng::seed_from_u64(3);
    let mut sys = EdgeSliceSystem::new(
        SystemConfig::prototype(),
        OrchestratorKind::Taro,
        &AgentConfig::default(),
        &mut rng,
    );
    let report = sys.run(5, &mut rng);
    assert!(report.rounds.len() <= 5);
    assert_eq!(sys.coordinator().rounds(), report.rounds.len());
}

#[test]
fn learned_system_records_usage_within_capacity() {
    let mut rng = StdRng::seed_from_u64(9);
    let mut sys = EdgeSliceSystem::new(
        SystemConfig::prototype(),
        OrchestratorKind::Learned(Technique::Ddpg),
        &quick_agents(),
        &mut rng,
    );
    sys.train(300, &mut rng);
    let report = sys.run(2, &mut rng);
    for r in &report.rounds {
        for k in 0..3 {
            let total: f64 = r.usage.iter().map(|u| u[k]).sum();
            assert!(
                total <= 1.0 + 1e-6,
                "round {}: resource {k} over-allocated ({total})",
                r.round
            );
        }
    }
}

#[test]
fn monitor_interval_series_shapes() {
    let mut rng = StdRng::seed_from_u64(1);
    let config = SystemConfig::prototype();
    let period = config.reward.period;
    let n_ras = config.n_ras;
    let mut sys = EdgeSliceSystem::new(
        config,
        OrchestratorKind::Taro,
        &AgentConfig::default(),
        &mut rng,
    );
    let report = sys.run(3, &mut rng);
    let sys_series = sys.monitor().interval_system_series(period);
    assert_eq!(sys_series.len(), report.rounds.len() * period);
    let s0 = sys.monitor().slice_interval_series(SliceId(0), period);
    let s1 = sys.monitor().slice_interval_series(SliceId(1), period);
    for ((a, b), total) in s0.iter().zip(&s1).zip(&sys_series) {
        assert!(
            (a + b - total).abs() < 1e-9,
            "slice series must sum to system series"
        );
    }
    let usage = sys.monitor().usage_interval_series(
        SliceId(0),
        edgeslice::ResourceKind::Radio,
        period,
        n_ras,
    );
    assert!(usage.iter().all(|&u| (0.0..=1.0 + 1e-9).contains(&u)));
}

#[test]
fn agents_are_assigned_to_their_ras() {
    let mut rng = StdRng::seed_from_u64(2);
    let config = SystemConfig::prototype();
    let env_cfg = edgeslice::RaEnvConfig::experiment(config.slices.clone());
    let env = edgeslice::RaSliceEnv::with_dataset(
        env_cfg,
        vec![
            Box::new(edgeslice_netsim::PoissonTraffic::paper()),
            Box::new(edgeslice_netsim::PoissonTraffic::paper()),
        ],
    );
    let agent = edgeslice::OrchestrationAgent::new(
        RaId(1),
        Technique::Ddpg,
        &env,
        &quick_agents(),
        &mut rng,
    );
    assert_eq!(agent.ra(), RaId(1));
    let replica = agent.clone_for_ra(RaId(3));
    assert_eq!(replica.ra(), RaId(3));
    // Replicated parameters produce identical decisions.
    let state = vec![0.3; 4];
    assert_eq!(agent.decide(&state), replica.decide(&state));
}
