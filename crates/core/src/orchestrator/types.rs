//! What goes into an [`EdgeSliceSystem`](super::EdgeSliceSystem) and what
//! comes out of a run: the system configuration and the report types.

use std::sync::Arc;

use edgeslice_optim::{AdmmConfig, AdmmResiduals};
use edgeslice_rl::Technique;
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

use edgeslice_netsim::{
    AppProfile, ComputationModel, DiurnalTrace, FrameResolution, PoissonTraffic, TrafficSource,
};

use crate::{
    EdgeSliceError, PerformanceFunction, QueuePenalty, RaEnvConfig, RaId, RaSliceEnv, RewardParams,
    Sla, SliceId, SliceSpec, StateSpec,
};

/// Traffic model shared by every (slice, RA) pair.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TrafficKind {
    /// Stationary Poisson arrivals (prototype experiments, rate 10).
    Poisson(f64),
    /// Synthetic diurnal traces (trace-driven simulations), randomized per
    /// (slice, RA) around the given base rate.
    Diurnal {
        /// Peak arrivals per interval.
        base: f64,
    },
}

/// Full system configuration.
#[derive(Clone)]
pub struct SystemConfig {
    /// Slice specifications (apps + SLAs).
    pub slices: Vec<SliceSpec>,
    /// Number of resource autonomies.
    pub n_ras: usize,
    /// Reward weights and the period length `T`.
    pub reward: RewardParams,
    /// Agent observability (EdgeSlice vs EdgeSlice-NT).
    pub state_spec: StateSpec,
    /// ADMM convergence parameters.
    pub admm: AdmmConfig,
    /// Traffic model.
    pub traffic: TrafficKind,
    /// The hidden slice performance function.
    pub perf: Arc<dyn PerformanceFunction>,
    /// Range for randomized coordination during offline training.
    pub coord_sample_range: (f64, f64),
    /// Project evaluated actions onto per-resource capacity (what the
    /// physical managers enforce anyway). Training is never projected.
    pub project_actions: bool,
}

impl std::fmt::Debug for SystemConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SystemConfig")
            .field("slices", &self.slices.len())
            .field("n_ras", &self.n_ras)
            .field("period", &self.reward.period)
            .field("state_spec", &self.state_spec)
            .field("traffic", &self.traffic)
            .finish_non_exhaustive()
    }
}

impl SystemConfig {
    /// The prototype experiments (Sec. VII-C): 2 slices (traffic-heavy +
    /// compute-heavy), 2 RAs, Poisson(10) traffic, `t = 1 s`, `T = 10`,
    /// `Umin = −50`, `ρ = 1`, `β = 20`.
    pub fn prototype() -> Self {
        Self {
            slices: vec![
                SliceSpec::experiment_slice1(),
                SliceSpec::experiment_slice2(),
            ],
            n_ras: 2,
            reward: RewardParams::paper(),
            state_spec: StateSpec::Full,
            admm: AdmmConfig::default(),
            traffic: TrafficKind::Poisson(10.0),
            perf: Arc::new(QueuePenalty::paper()),
            coord_sample_range: (-100.0, 25.0),
            project_actions: true,
        }
    }

    /// The trace-driven simulations (Sec. VII-D): `n_slices` slices with
    /// randomly selected frame resolutions and computation models,
    /// `n_ras` RAs, diurnal traffic, `T = 24` intervals (one per hour).
    pub fn simulation(n_slices: usize, n_ras: usize, rng: &mut StdRng) -> Self {
        // The experiments' Umin = −50 is calibrated to 2 RAs × T=10; keep
        // the same per-(RA, interval) stringency as the network grows so
        // the SLA stays meaningful (and the ADMM duals stay interior).
        let umin = -50.0 * (n_ras as f64 / 2.0) * (24.0 / 10.0);
        let slices = (0..n_slices)
            .map(|i| {
                let res = FrameResolution::ALL[rng.gen_range(0..3)];
                let model = ComputationModel::ALL[rng.gen_range(0..3)];
                SliceSpec::new(SliceId(i), AppProfile::new(res, model), Sla::new(umin))
            })
            .collect();
        Self {
            slices,
            n_ras,
            reward: RewardParams {
                period: 24,
                ..RewardParams::paper()
            },
            state_spec: StateSpec::Full,
            admm: AdmmConfig::default(),
            traffic: TrafficKind::Diurnal { base: 12.0 },
            perf: Arc::new(QueuePenalty::paper()),
            coord_sample_range: (-100.0, 25.0),
            project_actions: true,
        }
    }

    /// The EdgeSlice-NT ablation of this configuration.
    pub fn without_traffic_state(mut self) -> Self {
        self.state_spec = StateSpec::CoordinationOnly;
        self
    }

    pub(super) fn make_traffic(&self, rng: &mut StdRng) -> Vec<Box<dyn TrafficSource + Send>> {
        self.slices
            .iter()
            .map(|_| -> Box<dyn TrafficSource + Send> {
                match self.traffic {
                    TrafficKind::Poisson(rate) => Box::new(PoissonTraffic::new(rate)),
                    TrafficKind::Diurnal { base } => Box::new(DiurnalTrace::random_area(base, rng)),
                }
            })
            .collect()
    }

    pub(super) fn make_env(&self, rng: &mut StdRng) -> RaSliceEnv {
        let env_config = RaEnvConfig {
            slices: self.slices.clone(),
            perf: Arc::clone(&self.perf),
            reward: self.reward,
            state_spec: self.state_spec,
            interval_s: 1.0,
            queue_norm: 25.0,
            coord_norm: 50.0,
            coord_sample_range: self.coord_sample_range,
            randomize_coord: true,
            queue_capacity: 200.0,
            squash_training_reward: true,
            project_shares: true,
        };
        RaSliceEnv::with_dataset(env_config, self.make_traffic(rng))
    }
}

/// Which orchestration policy drives the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrchestratorKind {
    /// A learned per-RA agent (EdgeSlice / EdgeSlice-NT, by state spec).
    Learned(Technique),
    /// The TARO proportional baseline.
    Taro,
}

/// One coordination round's outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundRecord {
    /// Round index.
    pub round: usize,
    /// `Σ_{i,j,t} U` of the round.
    pub system_performance: f64,
    /// `Σ_{j,t} U` per slice.
    pub slice_performance: Vec<f64>,
    /// Mean `[radio, transport, compute]` usage per slice.
    pub usage: Vec<[f64; 3]>,
    /// ADMM residuals after the coordinator update.
    pub residuals: AdmmResiduals,
    /// Whether each slice's SLA held this round. Under outages the target
    /// is prorated by `served_fraction` — dark intervals are excluded from
    /// SLA accounting rather than counted as zero-performance service.
    pub sla_met: Vec<bool>,
    /// RAs that were dark this round.
    pub outages: Vec<RaId>,
    /// RAs whose supervised worker went down this round (caught panic,
    /// exhausted restart budget, or dead channel) — reported explicitly,
    /// never silently truncated into a missing report.
    pub downed: Vec<RaId>,
    /// Malformed reports (wrong round, unknown RA, duplicate slot) the
    /// gather loop dropped with a trace this round.
    pub discarded_reports: usize,
    /// Fraction of this round's (RA, interval) pairs that served traffic
    /// (`1.0` in a fault-free round).
    pub served_fraction: f64,
    /// End-of-round queue backlog per RA (summed over slices; `0.0` for an
    /// RA whose report never arrived).
    pub load: Vec<f64>,
}

/// One supervision event: a worker that could not report this round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DownEvent {
    /// The downed RA.
    pub ra: RaId,
    /// Global round index of the event.
    pub round: usize,
    /// Human-readable cause (`"panic: …"`, `"restart budget exhausted"`,
    /// `"worker channel disconnected"`).
    pub cause: String,
}

/// Aggregate supervision telemetry for a run: what went down, when, and
/// what the engine's gather loop had to discard or time out on.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SupervisionStats {
    /// Every worker-down event, in round order (RA-sorted within a round).
    pub worker_downs: Vec<DownEvent>,
    /// Rounds whose wall-clock report deadline expired.
    pub deadline_timeouts: usize,
    /// Rounds that ended with a dead worker channel.
    pub disconnects: usize,
    /// Malformed reports dropped at the gather loop across the run.
    pub discarded_reports: usize,
    /// Networked mode: frame sends retried after a transient failure and
    /// ultimately delivered — "the network flaked but recovered". Always
    /// zero in-process.
    pub send_retries: usize,
    /// Networked mode: frame sends abandoned after the bounded retry
    /// budget (the link broke; the lease decides whether the worker is
    /// down). Always zero in-process.
    pub sends_abandoned: usize,
    /// Networked mode: leases that lapsed into a
    /// [`edgeslice_runtime::DownCause::LeaseExpired`] down event — "the
    /// worker died". Always zero in-process.
    pub leases_expired: usize,
    /// Networked mode: workers re-admitted after a lease expiry (a sign
    /// of life or a fresh registration from a respawned process). Always
    /// zero in-process.
    pub rejoins: usize,
}

/// The full run's outcome.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct RunReport {
    /// Per-round records, in order.
    pub rounds: Vec<RoundRecord>,
    /// Supervision telemetry accumulated over the run.
    pub supervision: SupervisionStats,
    /// Per-slot lifecycle outcomes (admit round, depart round, reject
    /// reason, resize count) for dynamic-workload runs; empty for static
    /// runs.
    pub slice_lifetimes: Vec<crate::SliceLifetime>,
}

impl RunReport {
    /// System performance of the final round.
    pub fn final_system_performance(&self) -> f64 {
        self.rounds.last().map_or(0.0, |r| r.system_performance)
    }

    /// Serializes the report to JSON (for offline analysis/plotting).
    ///
    /// # Errors
    ///
    /// Returns [`EdgeSliceError::Serialization`] on failure (practically
    /// impossible for this structure).
    pub fn to_json(&self) -> Result<String, EdgeSliceError> {
        serde_json::to_string_pretty(self).map_err(EdgeSliceError::from)
    }

    /// Mean system performance over the last `n` rounds (a stabler
    /// convergence figure than the single final round).
    pub fn tail_system_performance(&self, n: usize) -> f64 {
        if self.rounds.is_empty() {
            return 0.0;
        }
        let tail = &self.rounds[self.rounds.len().saturating_sub(n)..];
        tail.iter().map(|r| r.system_performance).sum::<f64>() / tail.len() as f64
    }
}
