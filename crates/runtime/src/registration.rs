//! The registration plane: ε-ORC-style node registration with
//! lease-based failure detection.
//!
//! Workers register `{ra_id, capabilities, capacity}` with the
//! coordinator and *declare their own failure deadline*: a lease measured
//! in coordination rounds. Any round-tagged sign of life (a report, or an
//! explicit refresh carrying the last round the worker served) renews the
//! lease; a node whose lease lapses is raised through the existing
//! [`WorkerDown`]/[`DownCause`] machinery as
//! [`DownCause::LeaseExpired`] — so the supervisor and degraded-ADMM
//! layers absorb a vanished *process* exactly as they absorb an
//! in-process panic. A node that registers again (or simply starts
//! answering again) after expiry is a *rejoin*, counted and re-admitted.
//!
//! Determinism: lease accounting is **round-based**, a pure function of
//! which round-tagged messages arrived — so for a scripted fault plan the
//! expiry round is identical across loopback and socket transports, and
//! byte-identical `RunReport`s fall out. A wall-clock *backstop*
//! ([`Lease::wall_backstop`]) exists for deployments where rounds
//! themselves can stall; it reads time only through the [`Clock`]
//! abstraction, so tests drive it with a mock and never sleep.

use std::time::Duration;

use crate::clock::TimePoint;
use crate::supervisor::{DownCause, WorkerDown};

/// Capability bits a node advertises in its registration.
pub mod caps {
    /// Serves a learned (DDPG) orchestration policy.
    pub const LEARNED: u32 = 1 << 0;
    /// Serves the TARO baseline policy.
    pub const TARO: u32 = 1 << 1;
    /// Can re-sync its state from a shared checkpoint store on rejoin.
    pub const RESYNC: u32 = 1 << 2;
}

/// What a node announces about itself at registration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeInfo {
    /// The RA index this node serves.
    pub ra: usize,
    /// Capability bitmask (see [`caps`]).
    pub capabilities: u32,
    /// Advertised capacity (slices servable).
    pub capacity: f64,
}

/// A node's self-declared failure deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lease {
    /// Rounds the node may stay silent past its last round-tagged sign of
    /// life before it is declared down. `1` means: missing two
    /// consecutive rounds is fatal, missing one is tolerated.
    pub deadline_rounds: usize,
    /// Optional wall-clock backstop: silence longer than this is fatal
    /// even if rounds are not advancing. `None` disables the backstop
    /// (deterministic test configurations).
    pub wall_backstop: Option<Duration>,
}

impl Default for Lease {
    fn default() -> Self {
        Self {
            deadline_rounds: 2,
            wall_backstop: None,
        }
    }
}

/// A typed registration-plane error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistrationError {
    /// The RA index is outside the plane's configured range.
    UnknownRa {
        /// The offending RA.
        ra: usize,
        /// The configured worker count.
        n_ras: usize,
    },
    /// A liveness note arrived for a node that never registered.
    NotRegistered {
        /// The offending RA.
        ra: usize,
    },
}

impl std::fmt::Display for RegistrationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistrationError::UnknownRa { ra, n_ras } => {
                write!(f, "ra {ra} outside the registered range (n_ras {n_ras})")
            }
            RegistrationError::NotRegistered { ra } => {
                write!(f, "ra {ra} sent liveness before registering")
            }
        }
    }
}

impl std::error::Error for RegistrationError {}

/// How a registration landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Registration {
    /// First registration for this slot.
    Fresh,
    /// The slot was registered before (live or expired); the node is
    /// re-joining — after a kill, a restart, or a lease lapse.
    Rejoin,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeState {
    Unregistered,
    Live,
    Expired,
}

#[derive(Debug, Clone)]
struct Slot {
    state: NodeState,
    info: Option<NodeInfo>,
    lease: Lease,
    /// Highest round covered by a round-tagged sign of life (report or
    /// refresh). Registration at round `r` counts as covering `r`.
    last_ok_round: usize,
    /// Wall time of the last *any* sign of life (backstop input only).
    last_alive: TimePoint,
    /// Rounds missed at the moment the lease expired (for the down event).
    missed_at_expiry: usize,
}

/// Cumulative registration-plane counters, folded into the run's
/// supervision stats.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegStats {
    /// Leases that lapsed into [`DownCause::LeaseExpired`].
    pub leases_expired: usize,
    /// Expired or previously-registered nodes that came back.
    pub rejoins: usize,
}

/// The coordinator-side registration ledger: one slot per RA, no
/// wall-clock reads of its own — callers pass [`TimePoint`]s from a
/// [`crate::clock::Clock`].
#[derive(Debug)]
pub struct RegistrationPlane {
    slots: Vec<Slot>,
    stats: RegStats,
}

impl RegistrationPlane {
    /// A plane expecting `n_ras` workers.
    pub fn new(n_ras: usize) -> Self {
        Self {
            slots: (0..n_ras)
                .map(|_| Slot {
                    state: NodeState::Unregistered,
                    info: None,
                    lease: Lease::default(),
                    last_ok_round: 0,
                    last_alive: TimePoint::from_millis(0),
                    missed_at_expiry: 0,
                })
                .collect(),
            stats: RegStats::default(),
        }
    }

    /// Records a registration arriving during `round` at wall time `now`.
    pub(crate) fn register(
        &mut self,
        info: NodeInfo,
        lease: Lease,
        round: usize,
        now: TimePoint,
    ) -> Result<Registration, RegistrationError> {
        let n_ras = self.slots.len();
        let slot = self
            .slots
            .get_mut(info.ra)
            .ok_or(RegistrationError::UnknownRa { ra: info.ra, n_ras })?;
        let kind = match slot.state {
            NodeState::Unregistered => Registration::Fresh,
            NodeState::Live | NodeState::Expired => {
                self.stats.rejoins += 1;
                Registration::Rejoin
            }
        };
        slot.state = NodeState::Live;
        slot.info = Some(info);
        slot.lease = lease;
        slot.last_ok_round = round;
        slot.last_alive = now;
        Ok(kind)
    }

    /// Records a round-tagged sign of life from `ra`: a report for
    /// `round`, or a refresh carrying the last round the worker served.
    /// A sign of life from an expired node re-admits it (a rejoin).
    pub(crate) fn note_alive(
        &mut self,
        ra: usize,
        round: usize,
        now: TimePoint,
    ) -> Result<(), RegistrationError> {
        let n_ras = self.slots.len();
        let slot = self
            .slots
            .get_mut(ra)
            .ok_or(RegistrationError::UnknownRa { ra, n_ras })?;
        if slot.state == NodeState::Unregistered {
            return Err(RegistrationError::NotRegistered { ra });
        }
        if slot.state == NodeState::Expired {
            slot.state = NodeState::Live;
            self.stats.rejoins += 1;
        }
        slot.last_ok_round = slot.last_ok_round.max(round);
        slot.last_alive = now;
        Ok(())
    }

    /// Closes round `round`: checks every registered node's lease and
    /// returns the typed down events for this round — newly expired
    /// leases *and* still-expired nodes (failure is re-reported every
    /// round it persists, mirroring [`DownCause::RestartsExhausted`]).
    /// Events are sorted by RA.
    pub(crate) fn end_round(&mut self, round: usize, now: TimePoint) -> Vec<WorkerDown> {
        let mut downs = Vec::new();
        for (ra, slot) in self.slots.iter_mut().enumerate() {
            match slot.state {
                NodeState::Unregistered => {}
                NodeState::Live => {
                    let missed = round.saturating_sub(slot.last_ok_round);
                    let wall_lapsed = slot.lease.wall_backstop.is_some_and(|limit| {
                        let ms = u64::try_from(limit.as_millis()).unwrap_or(u64::MAX);
                        now.millis_since(slot.last_alive) > ms
                    });
                    if missed > slot.lease.deadline_rounds || wall_lapsed {
                        slot.state = NodeState::Expired;
                        slot.missed_at_expiry = missed;
                        self.stats.leases_expired += 1;
                        downs.push(WorkerDown {
                            ra,
                            round,
                            cause: DownCause::LeaseExpired {
                                missed_rounds: missed,
                                budget_rounds: slot.lease.deadline_rounds,
                            },
                        });
                    }
                }
                NodeState::Expired => downs.push(WorkerDown {
                    ra,
                    round,
                    cause: DownCause::LeaseExpired {
                        missed_rounds: round.saturating_sub(slot.last_ok_round),
                        budget_rounds: slot.lease.deadline_rounds,
                    },
                }),
            }
        }
        downs
    }

    /// Whether `ra` has ever registered (live or expired).
    pub(crate) fn is_registered(&self, ra: usize) -> bool {
        self.slots
            .get(ra)
            .is_some_and(|s| s.state != NodeState::Unregistered)
    }

    /// Whether every slot has registered.
    pub(crate) fn all_registered(&self) -> bool {
        self.slots
            .iter()
            .all(|s| s.state != NodeState::Unregistered)
    }

    /// RAs that have never registered.
    pub fn missing(&self) -> Vec<usize> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.state == NodeState::Unregistered)
            .map(|(ra, _)| ra)
            .collect()
    }

    /// The registered node info for `ra`, if any.
    pub fn info(&self, ra: usize) -> Option<NodeInfo> {
        self.slots.get(ra).and_then(|s| s.info)
    }

    /// Cumulative plane counters.
    pub fn stats(&self) -> RegStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::Clock;

    fn node(ra: usize) -> NodeInfo {
        NodeInfo {
            ra,
            capabilities: caps::TARO | caps::RESYNC,
            capacity: 2.0,
        }
    }

    fn lease(rounds: usize) -> Lease {
        Lease {
            deadline_rounds: rounds,
            wall_backstop: None,
        }
    }

    #[test]
    fn silent_node_expires_exactly_at_its_declared_deadline() {
        let (clock, _mock) = Clock::mock();
        let mut plane = RegistrationPlane::new(2);
        let now = clock.now();
        plane.register(node(0), lease(1), 0, now).unwrap();
        plane.register(node(1), lease(1), 0, now).unwrap();
        // RA 0 reports every round; RA 1 goes silent after round 1.
        for round in 0..5 {
            plane.note_alive(0, round, now).unwrap();
            if round <= 1 {
                plane.note_alive(1, round, now).unwrap();
            }
            let downs = plane.end_round(round, now);
            match round {
                0..=2 => assert!(downs.is_empty(), "round {round}: {downs:?}"),
                // last_ok 1, deadline 1 → missed 2 > 1 first at round 3.
                _ => {
                    assert_eq!(downs.len(), 1, "round {round}");
                    assert_eq!(downs[0].ra, 1);
                    assert_eq!(downs[0].round, round);
                    assert!(matches!(
                        downs[0].cause,
                        DownCause::LeaseExpired {
                            budget_rounds: 1,
                            ..
                        }
                    ));
                }
            }
        }
        assert_eq!(plane.stats().leases_expired, 1, "expiry counted once");
        assert_ne!(plane.slots[1].state, NodeState::Live);
        assert_eq!(plane.slots[0].state, NodeState::Live);
    }

    #[test]
    fn sign_of_life_after_expiry_is_a_rejoin() {
        let (clock, _mock) = Clock::mock();
        let now = clock.now();
        let mut plane = RegistrationPlane::new(1);
        plane.register(node(0), lease(0), 0, now).unwrap();
        // Deadline 0: any missed round is fatal.
        assert_eq!(plane.end_round(1, now).len(), 1);
        assert_ne!(plane.slots[0].state, NodeState::Live);
        // The node answers again in round 3: re-admitted, counted.
        plane.note_alive(0, 3, now).unwrap();
        assert_eq!(plane.slots[0].state, NodeState::Live);
        assert_eq!(plane.stats().rejoins, 1);
        assert!(plane.end_round(3, now).is_empty());
    }

    #[test]
    fn re_registration_is_a_rejoin_with_a_fresh_lease() {
        let (clock, _mock) = Clock::mock();
        let now = clock.now();
        let mut plane = RegistrationPlane::new(1);
        plane.register(node(0), lease(0), 0, now).unwrap();
        assert_eq!(plane.end_round(2, now).len(), 1);
        // A respawned process registers anew at round 4.
        let kind = plane.register(node(0), lease(2), 4, now).unwrap();
        assert_eq!(kind, Registration::Rejoin);
        assert_eq!(plane.stats().rejoins, 1);
        assert!(plane.end_round(4, now).is_empty());
        assert!(plane.end_round(5, now).is_empty(), "fresh lease holds");
    }

    #[test]
    fn wall_backstop_fires_on_mock_time_without_sleeping() {
        let (clock, mock) = Clock::mock();
        let mut plane = RegistrationPlane::new(1);
        let lease = Lease {
            deadline_rounds: usize::MAX, // rounds never expire it
            wall_backstop: Some(Duration::from_millis(500)),
        };
        plane.register(node(0), lease, 0, clock.now()).unwrap();
        // 400 ms of silence: still within the backstop.
        mock.advance(Duration::from_millis(400));
        assert!(plane.end_round(1, clock.now()).is_empty());
        // 200 more: the backstop fires — no real sleeping involved.
        mock.advance(Duration::from_millis(200));
        let downs = plane.end_round(2, clock.now());
        assert_eq!(downs.len(), 1);
        assert!(matches!(downs[0].cause, DownCause::LeaseExpired { .. }));
        // A refresh resets the backstop.
        plane.note_alive(0, 3, clock.now()).unwrap();
        mock.advance(Duration::from_millis(400));
        assert!(plane.end_round(4, clock.now()).is_empty());
    }

    #[test]
    fn stale_round_tags_do_not_extend_the_lease() {
        let (clock, _mock) = Clock::mock();
        let now = clock.now();
        let mut plane = RegistrationPlane::new(1);
        plane.register(node(0), lease(1), 0, now).unwrap();
        plane.note_alive(0, 3, now).unwrap();
        // An in-flight refresh tagged with an *older* round must not
        // move liveness backwards or forwards.
        plane.note_alive(0, 1, now).unwrap();
        assert!(plane.end_round(4, now).is_empty());
        assert_eq!(plane.end_round(5, now).len(), 1, "missed 2 > deadline 1");
    }

    #[test]
    fn unknown_and_unregistered_ras_are_typed_errors() {
        let (clock, _mock) = Clock::mock();
        let now = clock.now();
        let mut plane = RegistrationPlane::new(2);
        assert_eq!(
            plane.register(node(7), lease(1), 0, now),
            Err(RegistrationError::UnknownRa { ra: 7, n_ras: 2 })
        );
        assert_eq!(
            plane.note_alive(0, 0, now),
            Err(RegistrationError::NotRegistered { ra: 0 })
        );
        assert!(!plane.all_registered());
        assert_eq!(plane.missing(), vec![0, 1]);
        plane.register(node(0), lease(1), 0, now).unwrap();
        plane.register(node(1), lease(1), 0, now).unwrap();
        assert!(plane.all_registered());
        assert_eq!(plane.info(1).map(|i| i.ra), Some(1));
    }
}
