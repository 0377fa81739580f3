//! Deterministic fault injection for the orchestration loop.
//!
//! Real wireless-edge deployments lose resource autonomies (node reboots,
//! backhaul cuts), drop or delay the coordinator's `z − y` broadcasts, and
//! see substrate capacity sag under interference or co-tenancy. This module
//! injects all of those against [`crate::EdgeSliceSystem`] so the
//! degradation policy can be exercised and measured:
//!
//! * a [`FaultConfig`] describes *stochastic* fault processes; a seeded
//!   [`FaultPlan::generate`] expands it into a concrete, reproducible
//!   schedule (same seed ⇒ byte-identical plan ⇒ byte-identical run);
//! * [`FaultPlan::scripted`] builds a hand-written schedule for targeted
//!   tests (e.g. "RA 1 is dark for rounds 3..6");
//! * a [`FaultInjector`] answers the orchestrator's per-(RA, round)
//!   query, a [`RaFaultView`], straight from the plan's events.
//!
//! The injector is pure bookkeeping: all *reactions* (stale-report reuse,
//! frozen duals, checkpoint re-sync, slice redistribution) live in the
//! coordinator and orchestrator.

use crate::error::EdgeSliceError;
use crate::ids::{RaId, ResourceKind};
use edgeslice_runtime::Stream;
use rand::Rng;

/// Parameters of the stochastic fault processes, expanded by
/// [`FaultPlan::generate`].
///
/// Rates are per-RA, per-round Bernoulli probabilities; durations are
/// inclusive `(min, max)` ranges in coordination rounds.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Seed for the fault stream (independent of the traffic seed).
    pub seed: u64,
    /// Number of resource autonomies in the system.
    pub n_ras: usize,
    /// Rounds the plan covers.
    pub horizon_rounds: usize,
    /// Probability an up RA starts an outage this round.
    pub outage_rate: f64,
    /// Outage duration range, rounds (inclusive).
    pub outage_rounds: (usize, usize),
    /// Probability an up RA's `z − y` broadcast is lost this round (the RA
    /// orchestrates on the previous round's coordination).
    pub broadcast_drop_rate: f64,
    /// Probability an up RA's `Σ_t U` report misses the round deadline
    /// (it serves traffic but the coordinator sees it one round late).
    pub straggler_rate: f64,
    /// Probability a capacity-degradation window starts on an up RA.
    pub degradation_rate: f64,
    /// Capacity multiplier during a degradation window, in `(0, 1]` (e.g.
    /// `0.5` halves the affected domain's `R^{tot}`).
    pub degradation_factor: f64,
    /// Degradation duration range, rounds (inclusive).
    pub degradation_rounds: (usize, usize),
    /// Probability an up RA's worker *panics* at the top of a round — a
    /// real crash for the runtime supervisor to catch, not a simulated
    /// flag. Defaults to `0.0` in every pre-existing preset so older fault
    /// schedules are reproduced byte-for-byte.
    pub panic_rate: f64,
}

impl FaultConfig {
    /// A moderately hostile environment: occasional short outages, lossy
    /// coordination, stragglers and capacity sags.
    pub fn stress(n_ras: usize, horizon_rounds: usize, seed: u64) -> Self {
        Self {
            seed,
            n_ras,
            horizon_rounds,
            outage_rate: 0.05,
            outage_rounds: (1, 3),
            broadcast_drop_rate: 0.10,
            straggler_rate: 0.10,
            degradation_rate: 0.05,
            degradation_factor: 0.5,
            degradation_rounds: (1, 4),
            panic_rate: 0.0,
        }
    }

    /// The [`FaultConfig::stress`] environment plus real worker crashes:
    /// every fault channel active at once, for chaos testing the
    /// supervised runtime.
    pub fn chaos(n_ras: usize, horizon_rounds: usize, seed: u64) -> Self {
        Self {
            panic_rate: 0.08,
            ..Self::stress(n_ras, horizon_rounds, seed)
        }
    }
}

/// One injected fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultEvent {
    /// The RA is unreachable for `rounds` rounds starting at `start_round`:
    /// no reports, no broadcasts received, no traffic served.
    RaOutage {
        /// The affected RA.
        ra: RaId,
        /// First dark round.
        start_round: usize,
        /// Outage length, rounds.
        rounds: usize,
    },
    /// The coordinator's `z − y` broadcast to `ra` is lost in `round`; the
    /// RA orchestrates on its previous coordination info.
    BroadcastDrop {
        /// The affected RA.
        ra: RaId,
        /// The lossy round.
        round: usize,
    },
    /// `ra`'s `Σ_t U` report misses `round`'s deadline and reaches the
    /// coordinator one round late.
    Straggler {
        /// The affected RA.
        ra: RaId,
        /// The round whose deadline is missed.
        round: usize,
    },
    /// One substrate domain's total capacity is scaled by `factor` for
    /// `rounds` rounds (the paper's `R^{tot}_{j,k}` temporarily shrinks).
    CapacityDegradation {
        /// The affected RA.
        ra: RaId,
        /// The degraded domain.
        domain: ResourceKind,
        /// First degraded round.
        start_round: usize,
        /// Window length, rounds.
        rounds: usize,
        /// Capacity multiplier in `(0, 1]`.
        factor: f64,
    },
    /// `ra`'s worker panics at the top of `round`: the runtime supervisor
    /// catches the unwind, restarts the worker under its backoff budget,
    /// and reports the RA down for that round. This is a *real* panic
    /// crossing `catch_unwind`, not a simulated missing report.
    WorkerPanic {
        /// The affected RA.
        ra: RaId,
        /// The round whose `run_round` panics.
        round: usize,
    },
    /// `ra`'s worker process freezes for `rounds` rounds starting at
    /// `start_round`: it stays connected but sends neither reports nor
    /// lease refreshes — the networked runtime detects it via *lease
    /// expiry*, never via a channel disconnect. In-process schedulers
    /// ignore this fault (there is no lease to lapse); it exists to
    /// script deterministic failure-detection tests for the multi-process
    /// transport. Scripted-only: [`FaultPlan::generate`] never emits it,
    /// so stochastic plans are byte-stable.
    WorkerSilence {
        /// The affected RA.
        ra: RaId,
        /// First silent round.
        start_round: usize,
        /// Silence length, rounds.
        rounds: usize,
    },
}

impl FaultEvent {
    fn ra(&self) -> RaId {
        match *self {
            FaultEvent::RaOutage { ra, .. }
            | FaultEvent::BroadcastDrop { ra, .. }
            | FaultEvent::Straggler { ra, .. }
            | FaultEvent::CapacityDegradation { ra, .. }
            | FaultEvent::WorkerPanic { ra, .. }
            | FaultEvent::WorkerSilence { ra, .. } => ra,
        }
    }
}

/// A concrete, reproducible schedule of [`FaultEvent`]s over a horizon.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    n_ras: usize,
    horizon_rounds: usize,
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The empty plan (fault-free baseline).
    pub fn none(n_ras: usize, horizon_rounds: usize) -> Self {
        Self {
            n_ras,
            horizon_rounds,
            events: Vec::new(),
        }
    }

    /// Expands `config` into a concrete schedule with a dedicated
    /// `StdRng` seeded from `config.seed`: the same configuration always
    /// yields the same plan, independent of the traffic/training streams.
    ///
    /// # Errors
    ///
    /// The drawn events go through [`FaultPlan::scripted`]'s checks, so a
    /// configuration that draws an invalid event (a degradation factor
    /// outside `(0, 1]`, a zero-length window) returns
    /// [`EdgeSliceError::InvalidFaultPlan`].
    pub fn generate(config: &FaultConfig) -> Result<Self, EdgeSliceError> {
        let mut rng = crate::stream_rng(config.seed, Stream::Fault, 0);
        let mut events = Vec::new();
        for j in 0..config.n_ras {
            let ra = RaId(j);
            // Outage process: while down, no other fault can start.
            let mut down_until = 0usize;
            let mut degraded_until = 0usize;
            for round in 0..config.horizon_rounds {
                if round < down_until {
                    continue;
                }
                if config.outage_rate > 0.0 && rng.gen_bool(config.outage_rate) {
                    let (lo, hi) = config.outage_rounds;
                    let len = if hi > lo { rng.gen_range(lo..=hi) } else { lo };
                    events.push(FaultEvent::RaOutage {
                        ra,
                        start_round: round,
                        rounds: len,
                    });
                    down_until = round + len;
                    continue;
                }
                if config.broadcast_drop_rate > 0.0 && rng.gen_bool(config.broadcast_drop_rate) {
                    events.push(FaultEvent::BroadcastDrop { ra, round });
                }
                if config.straggler_rate > 0.0 && rng.gen_bool(config.straggler_rate) {
                    events.push(FaultEvent::Straggler { ra, round });
                }
                // Guarded draw: a zero panic_rate consumes no randomness,
                // so pre-existing configs reproduce their plans exactly.
                if config.panic_rate > 0.0 && rng.gen_bool(config.panic_rate) {
                    events.push(FaultEvent::WorkerPanic { ra, round });
                }
                if round >= degraded_until
                    && config.degradation_rate > 0.0
                    && rng.gen_bool(config.degradation_rate)
                {
                    let (lo, hi) = config.degradation_rounds;
                    let len = if hi > lo { rng.gen_range(lo..=hi) } else { lo };
                    let domain = ResourceKind::ALL[rng.gen_range(0..ResourceKind::COUNT)];
                    events.push(FaultEvent::CapacityDegradation {
                        ra,
                        domain,
                        start_round: round,
                        rounds: len,
                        factor: config.degradation_factor,
                    });
                    degraded_until = round + len;
                }
            }
        }
        Self::scripted(config.n_ras, config.horizon_rounds, events)
    }

    /// Builds a hand-written schedule, validating every event against the
    /// system size and horizon.
    ///
    /// # Errors
    ///
    /// Returns [`EdgeSliceError::InvalidFaultPlan`] when an event references
    /// an RA `≥ n_ras`, starts at/after the horizon, has a zero duration,
    /// or a degradation factor outside `(0, 1]`, or when overlapping
    /// degradation windows scale a domain's capacity to `0`.
    pub fn scripted(
        n_ras: usize,
        horizon_rounds: usize,
        events: Vec<FaultEvent>,
    ) -> Result<Self, EdgeSliceError> {
        let bad = |msg: String| Err(EdgeSliceError::InvalidFaultPlan(msg));
        for ev in &events {
            if ev.ra().0 >= n_ras {
                return bad(format!("{:?} references RA ≥ {n_ras}", ev));
            }
            match *ev {
                FaultEvent::RaOutage {
                    start_round,
                    rounds,
                    ..
                }
                | FaultEvent::CapacityDegradation {
                    start_round,
                    rounds,
                    ..
                }
                | FaultEvent::WorkerSilence {
                    start_round,
                    rounds,
                    ..
                } if start_round >= horizon_rounds || rounds == 0 => {
                    return bad(format!(
                        "{ev:?} outside horizon {horizon_rounds} or zero-length"
                    ));
                }
                FaultEvent::BroadcastDrop { round, .. }
                | FaultEvent::Straggler { round, .. }
                | FaultEvent::WorkerPanic { round, .. }
                    if round >= horizon_rounds =>
                {
                    return bad(format!("{ev:?} outside horizon {horizon_rounds}"));
                }
                FaultEvent::CapacityDegradation { factor, .. }
                    if !(factor > 0.0 && factor <= 1.0) =>
                {
                    return bad(format!("{ev:?} factor must be in (0, 1]"));
                }
                _ => {}
            }
        }
        let plan = Self {
            n_ras,
            horizon_rounds,
            events,
        };
        // Factors in (0, 1] only shrink a product, in floating point too,
        // so a domain's scale is smallest at the first round of one of its
        // windows: checking those rounds checks every round.
        for ev in &plan.events {
            if let FaultEvent::CapacityDegradation {
                ra,
                domain,
                start_round,
                ..
            } = *ev
            {
                if plan.capacity_scale(ra, start_round)[domain.index()] <= 0.0 {
                    return bad(format!(
                        "{ev:?} overlaps windows whose factors scale {domain:?} to 0"
                    ));
                }
            }
        }
        Ok(plan)
    }

    /// The scheduled events.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Rounds the plan covers.
    pub fn horizon_rounds(&self) -> usize {
        self.horizon_rounds
    }

    /// `ra`'s per-domain capacity multipliers in `round`: the factors of
    /// the degradation windows covering it, multiplied in event order.
    fn capacity_scale(&self, ra: RaId, round: usize) -> [f64; 3] {
        let mut scale = [1.0f64; 3];
        for ev in &self.events {
            if let FaultEvent::CapacityDegradation {
                ra: r,
                domain,
                start_round,
                rounds,
                factor,
            } = *ev
            {
                if r == ra && covers(start_round, rounds, round) {
                    scale[domain.index()] *= factor;
                }
            }
        }
        scale
    }
}

/// Whether the window of `len` rounds from `start` covers `round`. Its end
/// `start + len` is never formed, so no length overflows.
fn covers(start: usize, len: usize, round: usize) -> bool {
    start <= round && round - start < len
}

/// What one RA experiences in one round, as queried by the orchestrator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RaFaultView {
    /// The RA is dark this round: serves nothing, reports nothing.
    pub down: bool,
    /// First up round after an outage: the orchestrator re-syncs the RA
    /// from its [`crate::PolicyCheckpoint`] and flushes its queues.
    pub rejoining: bool,
    /// The `z − y` broadcast was lost: the RA keeps last round's
    /// coordination info.
    pub broadcast_dropped: bool,
    /// The report misses the deadline: the coordinator treats the RA as
    /// missing this round even though traffic was served.
    pub straggler: bool,
    /// The worker genuinely panics at the top of this round; the runtime
    /// supervisor catches it and reports the RA down.
    pub panic: bool,
    /// The worker process is frozen this round: connected but sending
    /// neither reports nor lease refreshes. Only the networked runtime
    /// reacts (lease expiry); in-process schedulers ignore it.
    pub silent: bool,
    /// Per-domain capacity multipliers `[radio, transport, compute]`,
    /// `1.0` when healthy.
    pub capacity_scale: [f64; 3],
}

impl RaFaultView {
    /// The healthy view.
    pub(crate) fn healthy() -> Self {
        Self {
            down: false,
            rejoining: false,
            broadcast_dropped: false,
            straggler: false,
            panic: false,
            silent: false,
            capacity_scale: [1.0; 3],
        }
    }
}

/// A [`FaultPlan`] answering per-(RA, round) queries from its events.
///
/// It holds the plan and nothing else: each [`RaFaultView`] is derived on
/// demand from the plan's events, so its cost follows the plan, not the
/// round cap. A plan is only ever built by [`FaultPlan::none`],
/// [`FaultPlan::generate`] or [`FaultPlan::scripted`] (it has no decoder
/// that could skip `scripted`'s checks), and a window whose end would
/// pass `usize::MAX` runs to the horizon.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
}

impl FaultInjector {
    /// The injector for `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        Self { plan }
    }

    /// The fault-free injector.
    pub fn none(n_ras: usize, horizon_rounds: usize) -> Self {
        Self::new(FaultPlan::none(n_ras, horizon_rounds))
    }

    /// The plan the injector answers from.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// What `ra` experiences in `round`. Rounds beyond the horizon and
    /// RAs beyond the plan's size are healthy (the plan simply ran out).
    pub(crate) fn view(&self, ra: RaId, round: usize) -> RaFaultView {
        if round >= self.plan.horizon_rounds || ra.0 >= self.plan.n_ras {
            return RaFaultView::healthy();
        }
        let (mut down, mut was_down, mut dropped) = (false, false, false);
        let (mut straggle, mut panics, mut silence) = (false, false, false);
        for ev in self.plan.events.iter().filter(|ev| ev.ra() == ra) {
            match *ev {
                FaultEvent::RaOutage {
                    start_round,
                    rounds,
                    ..
                } => {
                    down |= covers(start_round, rounds, round);
                    was_down |= round > 0 && covers(start_round, rounds, round - 1);
                }
                FaultEvent::BroadcastDrop { round: r, .. } => dropped |= r == round,
                FaultEvent::Straggler { round: r, .. } => straggle |= r == round,
                FaultEvent::WorkerPanic { round: r, .. } => panics |= r == round,
                FaultEvent::WorkerSilence {
                    start_round,
                    rounds,
                    ..
                } => silence |= covers(start_round, rounds, round),
                FaultEvent::CapacityDegradation { .. } => {}
            }
        }
        RaFaultView {
            down,
            rejoining: !down && was_down,
            broadcast_dropped: dropped && !down,
            straggler: straggle && !down,
            // A frozen process can't crash: silence masks the panic draw.
            panic: panics && !down && !silence,
            silent: silence && !down,
            capacity_scale: if down {
                [1.0; 3]
            } else {
                self.plan.capacity_scale(ra, round)
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The test oracle `FaultInjector::view` is held to: the plan compiled
    /// into `[round][ra]` tables, as the injector once stored it. Valid
    /// plans only (`FaultPlan::generate` / `FaultPlan::scripted`): an
    /// event out of range would index past a table.
    struct TableOracle {
        down: Vec<Vec<bool>>,
        dropped: Vec<Vec<bool>>,
        straggle: Vec<Vec<bool>>,
        panics: Vec<Vec<bool>>,
        silence: Vec<Vec<bool>>,
        scale: Vec<Vec<[f64; 3]>>,
    }

    impl TableOracle {
        fn new(plan: &FaultPlan) -> Self {
            let (rounds, n_ras) = (plan.horizon_rounds, plan.n_ras);
            let mut down = vec![vec![false; n_ras]; rounds];
            let mut dropped = vec![vec![false; n_ras]; rounds];
            let mut straggle = vec![vec![false; n_ras]; rounds];
            let mut panics = vec![vec![false; n_ras]; rounds];
            let mut silence = vec![vec![false; n_ras]; rounds];
            let mut scale = vec![vec![[1.0f64; 3]; n_ras]; rounds];
            for ev in &plan.events {
                match *ev {
                    FaultEvent::RaOutage {
                        ra,
                        start_round,
                        rounds: len,
                    } => {
                        let end = (start_round + len).min(rounds);
                        for row in &mut down[start_round..end] {
                            row[ra.0] = true;
                        }
                    }
                    FaultEvent::BroadcastDrop { ra, round } => dropped[round][ra.0] = true,
                    FaultEvent::Straggler { ra, round } => straggle[round][ra.0] = true,
                    FaultEvent::WorkerPanic { ra, round } => panics[round][ra.0] = true,
                    FaultEvent::CapacityDegradation {
                        ra,
                        domain,
                        start_round,
                        rounds: len,
                        factor,
                    } => {
                        let end = (start_round + len).min(rounds);
                        for row in &mut scale[start_round..end] {
                            row[ra.0][domain.index()] *= factor;
                        }
                    }
                    FaultEvent::WorkerSilence {
                        ra,
                        start_round,
                        rounds: len,
                    } => {
                        let end = (start_round + len).min(rounds);
                        for row in &mut silence[start_round..end] {
                            row[ra.0] = true;
                        }
                    }
                }
            }
            Self {
                down,
                dropped,
                straggle,
                panics,
                silence,
                scale,
            }
        }

        fn view(&self, ra: RaId, round: usize) -> RaFaultView {
            if round >= self.down.len() || ra.0 >= self.down[round].len() {
                return RaFaultView::healthy();
            }
            let down = self.down[round][ra.0];
            let was_down = round > 0 && self.down[round - 1][ra.0];
            RaFaultView {
                down,
                rejoining: !down && was_down,
                broadcast_dropped: self.dropped[round][ra.0] && !down,
                straggler: self.straggle[round][ra.0] && !down,
                panic: self.panics[round][ra.0] && !down && !self.silence[round][ra.0],
                silent: self.silence[round][ra.0] && !down,
                capacity_scale: if down {
                    [1.0; 3]
                } else {
                    self.scale[round][ra.0]
                },
            }
        }
    }

    /// Every (RA, round) of `plan`, two RAs and three rounds past its
    /// ends included, read through the injector and through the oracle:
    /// equal flags, and capacity scales equal by `to_bits`.
    fn assert_view_matches_oracle(plan: &FaultPlan) {
        let oracle = TableOracle::new(plan);
        let inj = FaultInjector::new(plan.clone());
        for round in 0..plan.horizon_rounds + 3 {
            for j in 0..plan.n_ras + 2 {
                let (got, want) = (inj.view(RaId(j), round), oracle.view(RaId(j), round));
                let bits = |v: RaFaultView| v.capacity_scale.map(f64::to_bits);
                assert_eq!(bits(got), bits(want), "ra {j} round {round}");
                assert_eq!(got, want, "ra {j} round {round}");
            }
        }
    }

    #[test]
    fn generate_is_deterministic_in_the_seed() {
        let cfg = FaultConfig::stress(4, 50, 1234);
        let a = FaultPlan::generate(&cfg).unwrap();
        let b = FaultPlan::generate(&cfg).unwrap();
        assert_eq!(a, b);
        let c = FaultPlan::generate(&FaultConfig { seed: 1235, ..cfg }).unwrap();
        assert_ne!(a, c, "different seeds should differ for a hostile config");
    }

    #[test]
    fn quiet_config_generates_nothing() {
        let quiet = FaultConfig {
            outage_rate: 0.0,
            broadcast_drop_rate: 0.0,
            straggler_rate: 0.0,
            degradation_rate: 0.0,
            panic_rate: 0.0,
            ..FaultConfig::chaos(3, 100, 0)
        };
        let plan = FaultPlan::generate(&quiet).unwrap();
        assert!(plan.events().is_empty());
    }

    #[test]
    fn generated_plans_pass_the_scripted_checks() {
        // A factor outside `(0, 1]` would down the degraded RA every round.
        for factor in [0.0, 1.5, f64::NAN] {
            let cfg = FaultConfig {
                degradation_rate: 0.5,
                degradation_factor: factor,
                ..FaultConfig::stress(2, 6, 3)
            };
            assert!(
                matches!(
                    FaultPlan::generate(&cfg),
                    Err(EdgeSliceError::InvalidFaultPlan(_))
                ),
                "factor {factor}"
            );
        }
        // The presets still draw the events they drew unchecked.
        let events = |config| format!("{:?}", FaultPlan::generate(&config).unwrap().events());
        assert_eq!(
            events(FaultConfig::stress(2, 10, 6)),
            "[CapacityDegradation { ra: RaId(0), domain: Computing, start_round: 4, rounds: 1, \
             factor: 0.5 }, BroadcastDrop { ra: RaId(0), round: 6 }, \
             RaOutage { ra: RaId(0), start_round: 7, rounds: 1 }, Straggler { ra: RaId(0), round: 9 }]"
        );
        assert_eq!(
            events(FaultConfig::chaos(2, 10, 6)),
            "[CapacityDegradation { ra: RaId(0), domain: Computing, start_round: 3, rounds: 1, \
             factor: 0.5 }, WorkerPanic { ra: RaId(0), round: 5 }, \
             CapacityDegradation { ra: RaId(0), domain: Transport, start_round: 5, rounds: 2, \
             factor: 0.5 }, RaOutage { ra: RaId(0), start_round: 7, rounds: 1 }, \
             Straggler { ra: RaId(1), round: 6 }, WorkerPanic { ra: RaId(1), round: 9 }]"
        );
    }

    #[test]
    fn scripted_validates_events() {
        let ok = FaultPlan::scripted(
            2,
            10,
            vec![FaultEvent::RaOutage {
                ra: RaId(1),
                start_round: 3,
                rounds: 2,
            }],
        );
        assert!(ok.is_ok());
        let bad_ra = FaultPlan::scripted(
            2,
            10,
            vec![FaultEvent::BroadcastDrop {
                ra: RaId(2),
                round: 0,
            }],
        );
        assert!(matches!(bad_ra, Err(EdgeSliceError::InvalidFaultPlan(_))));
        let bad_factor = FaultPlan::scripted(
            2,
            10,
            vec![FaultEvent::CapacityDegradation {
                ra: RaId(0),
                domain: ResourceKind::Radio,
                start_round: 0,
                rounds: 2,
                factor: 0.0,
            }],
        );
        assert!(matches!(
            bad_factor,
            Err(EdgeSliceError::InvalidFaultPlan(_))
        ));
    }

    #[test]
    fn injector_reads_outage_windows_and_rejoin() {
        let plan = FaultPlan::scripted(
            2,
            10,
            vec![FaultEvent::RaOutage {
                ra: RaId(1),
                start_round: 2,
                rounds: 3,
            }],
        )
        .unwrap();
        let inj = FaultInjector::new(plan);
        assert!(!inj.view(RaId(1), 1).down);
        for r in 2..5 {
            assert!(inj.view(RaId(1), r).down);
            assert!(!inj.view(RaId(0), r).down);
        }
        assert!(!inj.view(RaId(1), 5).down);
        assert!(inj.view(RaId(1), 5).rejoining);
        assert!(!inj.view(RaId(1), 6).rejoining);
        assert!(!inj.view(RaId(0), 3).down && inj.view(RaId(1), 3).down);
    }

    #[test]
    fn degradation_scales_one_domain() {
        let plan = FaultPlan::scripted(
            1,
            6,
            vec![FaultEvent::CapacityDegradation {
                ra: RaId(0),
                domain: ResourceKind::Transport,
                start_round: 1,
                rounds: 2,
                factor: 0.5,
            }],
        )
        .unwrap();
        let inj = FaultInjector::new(plan);
        assert_eq!(inj.view(RaId(0), 0).capacity_scale, [1.0; 3]);
        assert_eq!(inj.view(RaId(0), 1).capacity_scale, [1.0, 0.5, 1.0]);
        assert_eq!(inj.view(RaId(0), 2).capacity_scale, [1.0, 0.5, 1.0]);
        assert_eq!(inj.view(RaId(0), 3).capacity_scale, [1.0; 3]);
    }

    #[test]
    fn worker_panics_are_read_and_suppressed_while_down() {
        let plan = FaultPlan::scripted(
            2,
            10,
            vec![
                FaultEvent::RaOutage {
                    ra: RaId(0),
                    start_round: 2,
                    rounds: 2,
                },
                FaultEvent::WorkerPanic {
                    ra: RaId(0),
                    round: 2,
                },
                FaultEvent::WorkerPanic {
                    ra: RaId(0),
                    round: 5,
                },
            ],
        )
        .unwrap();
        let inj = FaultInjector::new(plan);
        // A dark RA has no worker to crash: down wins over panic.
        assert!(!inj.view(RaId(0), 2).panic);
        assert!(inj.view(RaId(0), 5).panic);
        assert!(!inj.view(RaId(1), 5).panic);
        let out_of_range = FaultPlan::scripted(
            2,
            10,
            vec![FaultEvent::WorkerPanic {
                ra: RaId(0),
                round: 10,
            }],
        );
        assert!(matches!(
            out_of_range,
            Err(EdgeSliceError::InvalidFaultPlan(_))
        ));
    }

    #[test]
    fn zero_panic_rate_consumes_no_randomness() {
        // The panic draw is guarded by `panic_rate > 0.0`, so disabling
        // panics in a chaos config reproduces the stress plan exactly —
        // pre-existing fault schedules are byte-for-byte stable.
        let stress = FaultPlan::generate(&FaultConfig::stress(3, 60, 7)).unwrap();
        let defanged = FaultPlan::generate(&FaultConfig {
            panic_rate: 0.0,
            ..FaultConfig::chaos(3, 60, 7)
        })
        .unwrap();
        assert_eq!(stress, defanged);
        let chaos = FaultPlan::generate(&FaultConfig::chaos(3, 60, 7)).unwrap();
        assert!(
            chaos
                .events()
                .iter()
                .any(|e| matches!(e, FaultEvent::WorkerPanic { .. })),
            "chaos preset should schedule at least one panic over 180 RA-rounds"
        );
    }

    #[test]
    fn worker_silence_is_read_and_masks_panics() {
        let plan = FaultPlan::scripted(
            2,
            10,
            vec![
                FaultEvent::WorkerSilence {
                    ra: RaId(1),
                    start_round: 2,
                    rounds: 3,
                },
                FaultEvent::WorkerPanic {
                    ra: RaId(1),
                    round: 3,
                },
            ],
        )
        .unwrap();
        let inj = FaultInjector::new(plan);
        assert!(!inj.view(RaId(1), 1).silent);
        for r in 2..5 {
            assert!(inj.view(RaId(1), r).silent);
            assert!(!inj.view(RaId(0), r).silent);
        }
        assert!(!inj.view(RaId(1), 5).silent);
        // A frozen process can't crash: the round-3 panic is masked.
        assert!(!inj.view(RaId(1), 3).panic);
        let zero_len = FaultPlan::scripted(
            2,
            10,
            vec![FaultEvent::WorkerSilence {
                ra: RaId(0),
                start_round: 0,
                rounds: 0,
            }],
        );
        assert!(matches!(zero_len, Err(EdgeSliceError::InvalidFaultPlan(_))));
    }

    #[test]
    fn out_of_horizon_queries_are_healthy() {
        let inj = FaultInjector::none(2, 4);
        assert_eq!(inj.view(RaId(0), 99), RaFaultView::healthy());
        assert_eq!(inj.view(RaId(9), 0), RaFaultView::healthy());
        // The injector holds the plan, not a table per round: an unbounded
        // horizon costs nothing up front.
        let unbounded = FaultInjector::none(2, usize::MAX);
        for round in [0, 1_000_000, usize::MAX - 1, usize::MAX] {
            assert_eq!(unbounded.view(RaId(1), round), RaFaultView::healthy());
        }
    }

    #[test]
    fn an_overlong_window_reads_as_one_cut_at_the_horizon() {
        // A valid 2-RA, 4-round plan plus an outage of RA 1 whose end would
        // pass `usize::MAX`: it reads like the same outage cut at the horizon.
        let outage = |ra, start_round, rounds| FaultEvent::RaOutage {
            ra: RaId(ra),
            start_round,
            rounds,
        };
        let plan = |rounds| {
            let degradation = FaultEvent::CapacityDegradation {
                ra: RaId(1),
                domain: ResourceKind::Computing,
                start_round: 0,
                rounds: 2,
                factor: 0.5,
            };
            let drop = FaultEvent::BroadcastDrop {
                ra: RaId(1),
                round: 3,
            };
            let events = vec![outage(0, 1, 2), drop, degradation, outage(1, 2, rounds)];
            FaultInjector::new(FaultPlan::scripted(2, 4, events).unwrap())
        };
        let (overlong, twin) = (plan(usize::MAX), plan(2));
        for round in 0..4 {
            for j in 0..2 {
                let (got, want) = (overlong.view(RaId(j), round), twin.view(RaId(j), round));
                assert_eq!(got, want, "ra {j} round {round}");
            }
        }
    }

    #[test]
    fn overlapping_windows_that_scale_a_domain_to_zero_are_rejected() {
        // Each factor is valid on its own; where the two windows overlap
        // their product underflows to 0, which no substrate can run on.
        let window = |domain, start_round| FaultEvent::CapacityDegradation {
            ra: RaId(1),
            domain,
            start_round,
            rounds: 3,
            factor: 1e-200,
        };
        let plan =
            |second| FaultPlan::scripted(2, 10, vec![window(ResourceKind::Radio, 2), second]);
        assert!(matches!(
            plan(window(ResourceKind::Radio, 4)),
            Err(EdgeSliceError::InvalidFaultPlan(_))
        ));
        // Apart in time, or on another domain, they never multiply.
        for apart in [
            window(ResourceKind::Radio, 5),
            window(ResourceKind::Transport, 4),
        ] {
            let inj = FaultInjector::new(plan(apart).unwrap());
            for round in 0..10 {
                assert!(inj
                    .view(RaId(1), round)
                    .capacity_scale
                    .iter()
                    .all(|&s| s > 0.0));
            }
        }
    }

    proptest::proptest! {
        /// The injector reads every (RA, round) exactly as the compiled
        /// tables did: generated stress and chaos plans, and scripted
        /// windows degrading one domain of one RA, overlapping at will.
        #[test]
        fn view_equals_the_table_oracle(
            seed in 0u64..u64::MAX,
            n_ras in 1usize..6,
            horizon in 1usize..40,
            chaos in 0u8..2,
            windows in proptest::collection::vec((0usize..40, 1usize..12, 0usize..5), 0..6),
        ) {
            let config = if chaos == 1 { FaultConfig::chaos } else { FaultConfig::stress };
            assert_view_matches_oracle(&FaultPlan::generate(&config(n_ras, horizon, seed)).unwrap());
            let factors = [1.0, 0.9, 0.7, 0.5, 0.3];
            let overlapping = windows
                .iter()
                .map(|&(start, rounds, f)| FaultEvent::CapacityDegradation {
                    ra: RaId(n_ras - 1),
                    domain: ResourceKind::Transport,
                    start_round: start % horizon,
                    rounds,
                    factor: factors[f],
                })
                .collect();
            assert_view_matches_oracle(&FaultPlan::scripted(n_ras, horizon, overlapping).unwrap());
        }

        /// Same seed ⇒ bit-for-bit identical plan *and* identical
        /// per-(RA, round) views, for arbitrary seeds and system sizes.
        #[test]
        fn same_seed_reproduces_the_fault_stream(
            seed in 0u64..u64::MAX,
            n_ras in 1usize..6,
            horizon in 1usize..40,
        ) {
            let cfg = FaultConfig::stress(n_ras, horizon, seed);
            let a = FaultPlan::generate(&cfg).unwrap();
            let b = FaultPlan::generate(&cfg).unwrap();
            proptest::prop_assert_eq!(&a, &b);
            let ia = FaultInjector::new(a);
            let ib = FaultInjector::new(b);
            for round in 0..horizon {
                for j in 0..n_ras {
                    proptest::prop_assert_eq!(
                        ia.view(RaId(j), round),
                        ib.view(RaId(j), round)
                    );
                }
            }
        }
    }
}
