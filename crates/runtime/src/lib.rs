//! # edgeslice-runtime
//!
//! The decentralized execution engine underneath
//! `edgeslice::EdgeSliceSystem`: each resource autonomy's orchestration
//! agent runs on its own worker thread and exchanges typed messages with a
//! coordinator task over `mpsc` channels, exactly mirroring the paper's
//! deployment story (one agent per RA, a lightweight central performance
//! coordinator, `z − y` broadcasts downstream and `Σ_t U` reports
//! upstream).
//!
//! The engine is deliberately generic: it knows nothing about ADMM, DDPG
//! or network slicing. It owns three concerns and nothing else:
//!
//! 1. **Topology** — a [`Scheduler`] picks between workers inline on the
//!    caller's thread ([`Scheduler::Sequential`]) and `n` worker threads
//!    ([`Scheduler::Threaded`]) multiplexing the RA workers. Either is
//!    only a [`RoundGather`] — one way of delivering a round to every RA
//!    and settling what comes back — under the *same* [`round_loop`], so
//!    a parallel run is bit-identical to a sequential one whenever workers
//!    draw randomness from their own [`derive_stream_seed`]-derived
//!    streams.
//! 2. **The round protocol** — per round the coordinator broadcasts one
//!    [`CoordInfo`] per RA, every worker runs its round and answers with a
//!    [`RaReport`], and the coordinator folds the reports into its next
//!    update. [`round_loop`] is the one place that sequence is written;
//!    one slot-settle ledger decides, for every gather, which arrival
//!    fills a slot and which is dropped and counted. [`Control`] messages
//!    handle checkpointing, rejoin re-sync and shutdown.
//! 3. **Deadlines** — the coordinator waits at most
//!    [`Engine::with_deadline`] per round for the report channel. A report
//!    that misses the wall-clock deadline (a hung or genuinely slow
//!    worker) is dropped as stale when it finally arrives, and the RA is
//!    handed to the caller as *missing* — the degraded-coordination path
//!    is a real missed message, not a simulated flag. Injected stragglers
//!    additionally mark their reports [`RaReport::deadline_missed`] so
//!    fault schedules stay deterministic across schedulers.
//! 4. **Supervision** — every `run_round` call is guarded by a
//!    [`Supervisor`]: a panicking worker is caught, restarted under a
//!    bounded exponential-backoff budget, and surfaced to the coordinator
//!    as a typed [`WorkerDown`] event in the per-round [`RoundTelemetry`]
//!    (alongside counts of discarded stale/malformed reports and the
//!    deadline-vs-disconnect distinction). A crash is data, not absence.
//!
//! Determinism contract: with per-worker RNG streams, no wall-clock
//! deadline expiry, and deterministic workers, `Sequential` and
//! `Threaded(n)` produce identical report sequences for every `n` — a
//! contract that extends to deterministic (injected) panics, because both
//! schedulers run the same supervisor policy per worker slot.
//!
//! **Networked mode.** The same round loop also runs across process
//! boundaries: a [`Transport`] carries length-prefixed [`WireMsg`] frames
//! (deterministic in-memory [`LoopbackTransport`], or [`FramedTransport`]
//! over UDS/TCP with a versioned handshake and bounded send retries), a
//! [`RegistrationPlane`] tracks ε-ORC-style worker registrations with
//! round-based leases, and [`NetCoordinator`] — the third [`RoundGather`]
//! — gathers rounds over those links from [`WorkerSession`] peers. A
//! vanished process is detected by its *lapsed lease* — surfaced as
//! [`DownCause::LeaseExpired`] through the same [`WorkerDown`] telemetry
//! as an in-process panic — never by a mere socket disconnect, so the
//! degraded-coordination path is identical in and out of process.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod clock;
mod engine;
pub mod frame;
mod gather;
mod msg;
mod net;
mod registration;
mod seed;
mod supervisor;
mod transport;

pub use clock::{Clock, MockClock, RoundDeadline, TimePoint};
pub use engine::{par_map, Engine, EngineReport, RoundCoordinator, RoundTelemetry, RoundWorker};
pub use frame::{FrameError, WireMsg, PROTOCOL_VERSION};
pub use gather::{round_loop, RoundGather};
pub use msg::{Control, CoordInfo, RaReport};
pub use net::{
    channel_acceptor, Acceptor, ChannelAcceptor, ListenerAcceptor, NetConfig, NetCoordinator,
    NetStats, WorkerAck, WorkerCommand, WorkerSession,
};
pub use registration::{
    caps, Lease, NodeInfo, RegStats, Registration, RegistrationError, RegistrationPlane,
};
pub use seed::{derive_stream_seed, DOMAIN_FAULTS, DOMAIN_ORCH, DOMAIN_ROUND, DOMAIN_TRAIN};
pub use supervisor::{DownCause, Supervisor, SupervisorConfig, WorkerDown};
pub use transport::{
    client_handshake, connect_tcp, connect_uds, loopback_pair, server_handshake, ByteStream,
    FramedTransport, LinkStats, LoopbackTransport, NetListener, NetStream, RetryPolicy, Transport,
    TransportError,
};

/// How the engine maps RA workers onto OS threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheduler {
    /// Run every worker inline on the caller's thread, in RA order. The
    /// reference topology: zero concurrency, zero channels.
    Sequential,
    /// Run workers on `n` dedicated threads (capped at the worker count),
    /// each owning a contiguous shard of RAs, with `mpsc` channels to the
    /// coordinator task. `Threaded(1)` is the protocol with all its
    /// messaging but no parallelism — useful for isolating channel bugs.
    Threaded(usize),
}

impl Scheduler {
    /// The number of worker threads this scheduler would spawn for
    /// `n_workers` RAs (0 for `Sequential`).
    pub fn threads(&self, n_workers: usize) -> usize {
        match *self {
            Scheduler::Sequential => 0,
            Scheduler::Threaded(n) => n.max(1).min(n_workers),
        }
    }
}

impl std::fmt::Display for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Scheduler::Sequential => write!(f, "sequential"),
            Scheduler::Threaded(n) => write!(f, "threaded({n})"),
        }
    }
}
