//! # edgeslice
//!
//! A full reproduction of **EdgeSlice** (Liu, Han, Moges — ICDCS 2020):
//! decentralized deep-reinforcement-learning resource orchestration for
//! dynamic end-to-end network slicing in wireless edge computing networks.
//!
//! The system is composed of (Fig. 2):
//!
//! * a central [`PerformanceCoordinator`] running the ADMM `z`/`y` updates
//!   that enforce every slice's SLA across resource autonomies (Sec. IV-A);
//! * per-RA [`OrchestrationAgent`]s — DDPG learners (or the SAC/PPO/TRPO/
//!   VPG comparators) mapping the Eq. 13 state to the Eq. 14 resource
//!   orchestration under the Eq. 15 reward (Sec. IV-B);
//! * [`ResourceManagers`] applying decisions to the radio, transport and
//!   computing substrates (Sec. V);
//! * a [`SystemMonitor`] collecting state/performance and the user↔slice
//!   association database (Sec. V-D);
//! * the [`EdgeSliceSystem`] orchestration loop (Alg. 1);
//! * the [`RaSliceEnv`] simulated network environment used for offline
//!   agent training (Fig. 5, Sec. VI-B);
//! * the [`Taro`] baseline and the EdgeSlice-NT ablation
//!   ([`StateSpec::CoordinationOnly`]) from Sec. VII-B;
//! * a dynamic-workload subsystem ([`WorkloadPlan`] / [`SliceLifecycle`])
//!   driving online slice admission, make-before-break resize, and
//!   teardown through the [`AdmissionController`] mid-run (DESIGN.md §13).
//!
//! # Quickstart
//!
//! ```no_run
//! use edgeslice::{AgentConfig, EdgeSliceSystem, OrchestratorKind, SystemConfig};
//! use edgeslice_rl::Technique;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let config = SystemConfig::prototype();
//! let mut system = EdgeSliceSystem::new(
//!     config,
//!     OrchestratorKind::Learned(Technique::Ddpg),
//!     &AgentConfig::default(),
//!     &mut rng,
//! );
//! system.train(20_000, &mut rng);
//! let report = system.run(10, &mut rng);
//! println!("system performance: {}", report.final_system_performance());
//! ```

#![cfg_attr(
    not(test),
    deny(
        clippy::float_cmp,
        clippy::unwrap_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented
    )
)]

mod admission;
mod agent;
mod baseline;
mod checkpoint;
mod coordinator;
mod env;
mod error;
mod exec;
mod faults;
mod fleet;
mod ids;
mod managers;
mod monitor;
mod orchestrator;
mod overhead;
mod perf;
mod reward;
mod sla;
mod store;
mod workload;

use edgeslice_runtime::Stream;
use rand::rngs::StdRng;
use rand::SeedableRng;

pub use admission::{AdmissionController, DemandEstimate, RejectReason, SliceRequest};
pub use agent::{AgentBackend, AgentConfig, OrchestrationAgent};
pub use baseline::Taro;
pub use checkpoint::{CheckpointError, FrozenPolicy, PolicyCheckpoint};
pub use coordinator::{CoordinationInfo, CoordinatorState, PerformanceCoordinator};
pub use env::{RaEnvConfig, RaSliceEnv, ServiceModel, StateSpec};
pub use error::EdgeSliceError;
pub use faults::{FaultConfig, FaultEvent, FaultInjector, FaultPlan, RaFaultView};
pub use fleet::{Parallelism, PolicyFleet};
pub use ids::{RaId, ResourceKind, SliceId};
pub use managers::{ManagerError, ResourceManagers, SliceAllocation};
pub use monitor::{IntervalStatus, MonitorRecord, Records, SystemMonitor};
pub use orchestrator::{
    project_action_per_resource, DownEvent, EdgeSliceSystem, OrchestratorKind, RoundRecord,
    RunReport, ServeOutcome, SupervisionStats, SystemConfig, TrafficKind, WorkerNetOptions,
};
pub use overhead::{OverheadModel, RoundTraffic};
pub use store::{CheckpointStore, LatestRun, RunSnapshot, TrainSnapshot, WorkerSnapshot};
// The execution engine's scheduler, supervision policy, and networked-mode
// surface are part of the system API (see `EdgeSliceSystem::set_scheduler`
// / `set_supervision` / `run_networked` / `serve_ra`); re-export them so
// downstream users don't need a direct `edgeslice-runtime` dependency.
pub use edgeslice_runtime::{
    channel_acceptor, connect_tcp, connect_uds, loopback_pair, Acceptor, ChannelAcceptor, Clock,
    FramedTransport, Lease, ListenerAcceptor, LoopbackTransport, NetConfig, NetCoordinator,
    NetListener, NetStats, RetryPolicy, Scheduler, SupervisorConfig, Transport, TransportError,
};
// The batch-1 decide's scratch is part of the system API
// (`PolicyCheckpoint::decide_into`); re-export it so downstream users
// don't need a direct `edgeslice-nn` dependency.
pub use edgeslice_nn::RowScratch;
pub use perf::{NegServiceTime, PerformanceFunction, QueuePenalty};
pub use reward::{reward, RewardParams};
pub use sla::{Sla, SliceSpec};
pub use workload::{
    ArrivalModel, LifecycleAction, LifecycleSnapshot, LifecycleState, ScheduledEvent, SliceEvent,
    SliceLifecycle, SliceLifetime, SlotStatus, WorkloadConfig, WorkloadPlan,
};

/// The generator of stream `index` of `stream` under `master` (see
/// [`Stream::seed`]): the one place product code seeds a `StdRng`, so
/// every generator names its stream.
pub(crate) fn stream_rng(master: u64, stream: Stream, index: u64) -> StdRng {
    #[expect(
        clippy::disallowed_methods,
        reason = "the one product constructor: its seed comes from a named `Stream`"
    )]
    StdRng::seed_from_u64(stream.seed(master, index))
}

/// A fixed-seed generator for unit tests, which draw from no product
/// stream.
#[cfg(test)]
pub(crate) fn test_rng(seed: u64) -> StdRng {
    #[expect(
        clippy::disallowed_methods,
        reason = "a unit test's own fixed seed, not a product stream"
    )]
    StdRng::seed_from_u64(seed)
}
