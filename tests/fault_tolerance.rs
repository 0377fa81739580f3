//! Fault-tolerance acceptance: orchestration under injected failures.
//!
//! Exercises the degradation policy end to end: (a) an RA outage is
//! survived without panic, excluded from SLA accounting and bounded in its
//! performance impact; (b) the same fault seed reproduces bit-identical
//! runs; (c) a rejected VR update leaves the previously committed
//! allocation serving traffic.

use edgeslice::{
    AgentConfig, EdgeSliceSystem, FaultConfig, FaultEvent, FaultInjector, FaultPlan,
    OrchestratorKind, RaId, ResourceKind, ResourceManagers, SliceAllocation, SliceId, SystemConfig,
};
use edgeslice_netsim::DomainShares;
use edgeslice_rl::{DdpgConfig, Technique};
use rand::rngs::StdRng;
use rand::SeedableRng;

const ROUNDS: usize = 8;

fn taro_system(rng: &mut StdRng) -> EdgeSliceSystem {
    EdgeSliceSystem::new(
        SystemConfig::prototype(),
        OrchestratorKind::Taro,
        &AgentConfig::default(),
        rng,
    )
}

/// A 1-RA outage of `k` rounds: the run completes, SLA accounting excludes
/// the dark intervals, and degradation stays bounded relative to the
/// fault-free run on the same seeds.
#[test]
fn one_ra_outage_is_survived_and_excluded_from_sla_accounting() {
    let k = 3;
    let plan = FaultPlan::scripted(
        2,
        ROUNDS,
        vec![FaultEvent::RaOutage {
            ra: RaId(1),
            start_round: 2,
            rounds: k,
        }],
    )
    .unwrap();
    let injector = FaultInjector::new(plan);

    let mut rng = StdRng::seed_from_u64(7);
    let mut faulty = taro_system(&mut rng);
    let report = faulty.run_with_faults(ROUNDS, &mut rng, &injector);
    assert_eq!(
        report.rounds.len(),
        ROUNDS,
        "the outage must not abort the run"
    );

    let period = faulty.config().reward.period;
    // The served fraction of `round` over RA 0 alone, and over both RAs.
    let served =
        |round: usize, n_ras: usize| faulty.monitor().round_served_fraction(round, n_ras, period);
    for r in &report.rounds {
        let local = r.round;
        if (2..2 + k).contains(&local) {
            assert_eq!(
                r.outages,
                vec![RaId(1)],
                "round {local} should be dark on RA 1"
            );
            // One of two RAs is dark: exactly half the (RA, interval)
            // pairs served, and the monitor counts the lost pairs.
            assert!(
                (r.served_fraction - 0.5).abs() < 1e-12,
                "{}",
                r.served_fraction
            );
            // RA 0 lost no interval, so RA 1 lost every one.
            assert_eq!(served(local, 1), 1.0);
            assert_eq!(served(local, 2), 0.5);
        } else {
            assert!(r.outages.is_empty());
            assert!((r.served_fraction - 1.0).abs() < 1e-12);
        }
        assert!(r.system_performance.is_finite());
        assert!(r.residuals.primal.is_finite() && r.residuals.dual.is_finite());
    }

    // Bounded degradation: the faulty run's tail performance stays within
    // a small factor of the fault-free run on identical seeds (performance
    // is a negative queue penalty; more negative is worse).
    let mut rng = StdRng::seed_from_u64(7);
    let mut clean = taro_system(&mut rng);
    let baseline = clean.run(ROUNDS, &mut rng);
    let faulty_tail = report.tail_system_performance(3);
    let clean_tail = baseline.tail_system_performance(3);
    assert!(
        faulty_tail >= -(3.0 * clean_tail.abs().max(1.0)) + clean_tail.min(0.0),
        "degradation unbounded: faulty {faulty_tail} vs fault-free {clean_tail}"
    );
}

/// The learned pipeline survives an outage too: the dark RA rejoins on the
/// policy it was deployed with, and the run completes.
#[test]
fn learned_system_survives_outage_on_its_deployed_policy() {
    let mut rng = StdRng::seed_from_u64(11);
    let agent_cfg = AgentConfig {
        ddpg: DdpgConfig {
            hidden: 16,
            batch_size: 32,
            warmup: 50,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut sys = EdgeSliceSystem::new(
        SystemConfig::prototype(),
        OrchestratorKind::Learned(Technique::Ddpg),
        &agent_cfg,
        &mut rng,
    );
    sys.train(200, &mut rng);
    let plan = FaultPlan::scripted(
        2,
        4,
        vec![FaultEvent::RaOutage {
            ra: RaId(0),
            start_round: 1,
            rounds: 1,
        }],
    )
    .unwrap();
    let report = sys.run_with_faults(4, &mut rng, &FaultInjector::new(plan));
    assert_eq!(report.rounds.len(), 4);
    assert_eq!(report.rounds[1].outages, vec![RaId(0)]);
    assert!(report
        .rounds
        .iter()
        .all(|r| r.system_performance.is_finite()));
}

/// Same fault seed ⇒ identical runs: two systems built and driven from the
/// same seeds under the same generated fault plan produce byte-identical
/// reports.
#[test]
fn same_fault_seed_reproduces_identical_reports() {
    let cfg = FaultConfig::stress(2, ROUNDS, 42);
    let run = || {
        let injector = FaultInjector::new(FaultPlan::generate(&cfg).unwrap());
        let mut rng = StdRng::seed_from_u64(3);
        let mut sys = taro_system(&mut rng);
        sys.run_with_faults(ROUNDS, &mut rng, &injector)
    };
    let (a, b) = (run(), run());
    assert_eq!(a, b, "identical seeds must reproduce the run");
    assert_eq!(
        a.to_json().unwrap(),
        b.to_json().unwrap(),
        "serialized reports must match byte for byte"
    );
    // A different fault seed genuinely changes the run (the plan above is
    // hostile enough to perturb at least one round).
    let other = FaultConfig::stress(2, ROUNDS, 43);
    let injector = FaultInjector::new(FaultPlan::generate(&other).unwrap());
    let mut rng = StdRng::seed_from_u64(3);
    let mut sys = taro_system(&mut rng);
    let c = sys.run_with_faults(ROUNDS, &mut rng, &injector);
    assert_ne!(a, c, "a different fault seed should alter the run");
}

/// A rejected VR update is a no-op: the previously committed allocation
/// keeps serving traffic at unchanged rates, and an explicit rollback
/// reproduces them.
#[test]
fn rejected_vr_update_keeps_previous_allocation_serving() {
    let mut m = ResourceManagers::prototype(RaId(0), 2);
    let rates = m
        .apply(&[
            SliceAllocation {
                slice: SliceId(0),
                shares: DomainShares::new(0.7, 0.6, 0.3),
            },
            SliceAllocation {
                slice: SliceId(1),
                shares: DomainShares::new(0.3, 0.4, 0.7),
            },
        ])
        .unwrap();
    let radio0 = m.rate_of(SliceId(0), ResourceKind::Radio).unwrap();
    assert!(radio0 > 0.0);

    // An update with a non-finite share is rejected in phase 1.
    let mut bad = DomainShares::new(0.5, 0.5, 0.5);
    bad.compute = f64::INFINITY;
    assert!(m
        .apply(&[SliceAllocation {
            slice: SliceId(0),
            shares: bad
        }])
        .is_err());

    // The committed allocation still serves at the same rates.
    assert_eq!(m.last_rates(), &rates[..]);
    assert_eq!(m.rate_of(SliceId(0), ResourceKind::Radio), Some(radio0));
    assert_eq!(m.committed_shares().len(), 2);

    // Rollback re-installs the committed configuration bit-for-bit.
    let rolled = m.rollback().unwrap().to_vec();
    assert_eq!(rolled, rates);
}
