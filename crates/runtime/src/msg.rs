//! The typed messages exchanged between the coordinator task and the RA
//! workers. Three message kinds cover the whole protocol, matching the
//! paper's low-overhead coordination story (Sec. IV): one downstream
//! broadcast, one upstream report, and the end of service.

/// Downstream, coordinator → worker: the coordinating information for one
/// RA in one round — the per-slice `z_{i,j} − y_{i,j}` signal that is the
/// *only* payload EdgeSlice's coordinator ever sends an agent, plus an
/// opaque slice-lifecycle payload for dynamic-workload runs.
#[derive(Debug, Clone, PartialEq)]
pub struct CoordInfo {
    /// Engine-local round index (0-based within this run).
    pub round: usize,
    /// The RA this message addresses.
    pub ra: usize,
    /// `z − y`, one entry per slice.
    pub zy: Vec<f64>,
    /// Encoded slice-lifecycle state for this round (see
    /// [`crate::RoundCoordinator::lifecycle_delta`]). Empty for static
    /// workloads; the engine never interprets the bytes.
    pub lifecycle: Vec<u8>,
}

impl CoordInfo {
    /// RA `ra`'s message for `round`, cut from the coordinator's per-RA
    /// `z − y` rows and the lifecycle payload every RA shares. A broadcast
    /// with no row for `ra` addresses it an empty `z − y`.
    pub(crate) fn addressed(round: usize, ra: usize, zys: &[Vec<f64>], lifecycle: &[u8]) -> Self {
        Self {
            round,
            ra,
            zy: zys.get(ra).cloned().unwrap_or_default(),
            lifecycle: lifecycle.to_vec(),
        }
    }
}

/// Upstream, worker → coordinator: one RA's round outcome.
///
/// The payload `B` is opaque to the engine (the orchestration layer puts
/// its achieved `Σ_t U`, end-of-round load and monitor rows there);
/// `body: None` means the RA was dark the whole round and served nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct RaReport<B> {
    /// The reporting RA.
    pub ra: usize,
    /// Engine-local round index the report belongs to. Reports whose round
    /// is behind the coordinator's current round are dropped as stale.
    pub round: usize,
    /// The report exists but missed the round deadline (an injected
    /// straggler): the coordinator must treat the RA as missing this round
    /// even though its traffic was served.
    pub deadline_missed: bool,
    /// The round outcome, or `None` for a dark RA.
    pub body: Option<B>,
}

/// Control messages, coordinator → a networked worker peer.
///
/// A worker checkpoints its policy and re-syncs at rejoin on its own, from
/// its fault view; no coordinator asks for either.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// Tear the worker down; no further messages follow.
    Shutdown,
}
