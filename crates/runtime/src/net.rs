//! The networked round driver: a [`NetCoordinator`] gathering reports
//! over per-RA [`Transport`] links, with ε-ORC registration and
//! lease-based failure detection, and the [`WorkerSession`] its peers
//! run.
//!
//! [`NetCoordinator`] is the multi-process [`RoundGather`], driven by the
//! same [`crate::round_loop`] as [`crate::Engine`]'s inline and threaded
//! gathers and settling its slots through the same ledger — broadcast
//! [`CoordInfo`], gather [`RaReport`]s under a deadline, hand the
//! orchestration layer a [`RoundTelemetry`] — but peers are *processes*:
//! they register, hold a lease, and can vanish without unwinding anything
//! on the coordinator.
//!
//! Failure taxonomy (the acceptance contract of the lease design):
//!
//! - A **broken link** (EOF, send failure) is *not* a worker-down event.
//!   It stops the coordinator from waiting on that peer, is counted in
//!   [`NetStats::links_broken`], and leaves the lease running — exactly
//!   like ε-ORC, where a dead TCP connection proves nothing until the
//!   refresh deadline passes.
//! - A **lapsed lease** is the detection: [`RegistrationPlane::end_round`]
//!   raises [`crate::DownCause::LeaseExpired`] through the same
//!   [`WorkerDown`] machinery the in-process supervisor uses, so the
//!   degraded-ADMM layer absorbs a killed process exactly as it absorbs a
//!   panic.
//! - A **rejoin** (sign of life or re-registration after expiry) is
//!   counted and re-admitted; the worker re-syncs its state from the
//!   latest checkpoint before reconnecting.
//!
//! Determinism: gather waits for every *connected* peer (lease state
//! notwithstanding) until the round deadline, and lease accounting is
//! round-based — so a scripted fault plan produces the same telemetry
//! sequence over loopback and UDS. Wall-clock reads go through
//! [`Clock`]/[`RoundDeadline`]; this module performs none of its own.

use std::time::Duration;

use crate::clock::{Clock, RoundDeadline};
use crate::frame::WireMsg;
use crate::gather::{RoundGather, SettleLedger};
use crate::msg::{Control, CoordInfo, RaReport};
use crate::registration::{Lease, NodeInfo, RegStats, RegistrationPlane};
use crate::supervisor::{DownCause, WorkerDown};
use crate::transport::{server_handshake, LinkStats, Transport, TransportError};
use crate::RoundTelemetry;

/// Knobs for the networked coordinator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetConfig {
    /// Gather budget per round (the in-process engine's is a fixed 30 s).
    pub round_deadline: Duration,
    /// How long to wait for all workers to register before a run starts.
    pub registration_timeout: Duration,
    /// Budget for one peer's `Hello` during attach.
    pub handshake_timeout: Duration,
    /// Per-link receive slice while polling the gather set.
    pub poll_interval: Duration,
    /// Wall-clock lease backstop applied to every node (`None` for
    /// deterministic, rounds-only leases).
    pub wall_backstop: Option<Duration>,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            round_deadline: Duration::from_secs(30),
            registration_timeout: Duration::from_secs(10),
            handshake_timeout: Duration::from_secs(2),
            poll_interval: Duration::from_millis(1),
            wall_backstop: None,
        }
    }
}

/// Cumulative network-plane counters for one run, folded into the
/// orchestration layer's supervision stats: the "network flaked but
/// recovered" / "worker died" distinction in numbers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Frame sends retried after a transient failure (flaked, recovered).
    pub send_retries: usize,
    /// Frame sends abandoned after the retry budget (flaked, gave up).
    pub sends_abandoned: usize,
    /// Links that broke (EOF / terminal I/O) — *not* down events.
    pub links_broken: usize,
    /// Connections dropped during handshake (bad version, garbage).
    pub handshake_failures: usize,
    /// Leases that lapsed into [`DownCause::LeaseExpired`].
    pub leases_expired: usize,
    /// Nodes re-admitted after expiry or re-registration.
    pub rejoins: usize,
}

/// A source of freshly connected (not yet handshaken) peer transports —
/// the listener side of rejoin: a respawned worker process connects
/// mid-run and is absorbed at the next gather poll.
pub trait Acceptor<T: Transport>: Send {
    /// One pending peer, or `None` if nobody is knocking. Must not block.
    fn poll_accept(&mut self) -> Result<Option<T>, TransportError>;
}

/// An [`Acceptor`] fed by an `mpsc` channel — the loopback counterpart of
/// a listening socket, used by tests to inject rejoining peers.
#[derive(Debug)]
pub struct ChannelAcceptor<T> {
    rx: std::sync::mpsc::Receiver<T>,
}

/// A channel acceptor plus its feeding half.
pub fn channel_acceptor<T: Transport>() -> (std::sync::mpsc::Sender<T>, ChannelAcceptor<T>) {
    let (tx, rx) = std::sync::mpsc::channel();
    (tx, ChannelAcceptor { rx })
}

impl<T: Transport> Acceptor<T> for ChannelAcceptor<T> {
    fn poll_accept(&mut self) -> Result<Option<T>, TransportError> {
        match self.rx.try_recv() {
            Ok(t) => Ok(Some(t)),
            Err(_) => Ok(None),
        }
    }
}

/// An [`Acceptor`] over a listening socket ([`crate::NetListener`]): the
/// initial-attach *and* rejoin path for real multi-process deployments —
/// a respawned worker process reconnects to the same socket and is
/// adopted at the next gather poll.
pub struct ListenerAcceptor {
    listener: crate::transport::NetListener,
    retry: crate::transport::RetryPolicy,
}

impl ListenerAcceptor {
    /// Wraps a bound listener; accepted streams get `retry` as their
    /// framed send policy.
    pub fn new(
        listener: crate::transport::NetListener,
        retry: crate::transport::RetryPolicy,
    ) -> Self {
        Self { listener, retry }
    }
}

impl Acceptor<crate::transport::FramedTransport> for ListenerAcceptor {
    fn poll_accept(&mut self) -> Result<Option<crate::transport::FramedTransport>, TransportError> {
        self.listener.poll_accept(self.retry)
    }
}

struct Link<T> {
    t: T,
    broken: bool,
}

/// The coordinator side of the networked round protocol: one link per RA
/// and a [`RegistrationPlane`], gathered through [`RoundGather`] like the
/// in-process engine's workers.
pub struct NetCoordinator<T: Transport> {
    links: Vec<Option<Link<T>>>,
    plane: RegistrationPlane,
    clock: Clock,
    config: NetConfig,
    acceptor: Option<Box<dyn Acceptor<T>>>,
    stats: NetStats,
}

impl<T: Transport> NetCoordinator<T> {
    /// A coordinator expecting `n_ras` workers.
    pub fn new(n_ras: usize, config: NetConfig, clock: Clock) -> Self {
        Self {
            links: (0..n_ras).map(|_| None).collect(),
            plane: RegistrationPlane::new(n_ras),
            clock,
            config,
            acceptor: None,
            stats: NetStats::default(),
        }
    }

    /// Installs the source of mid-run peer connections (rejoins).
    pub fn set_acceptor(&mut self, acceptor: Box<dyn Acceptor<T>>) {
        self.acceptor = Some(acceptor);
    }

    /// Adopts a freshly connected peer: serves its handshake
    /// ([`crate::transport::server_handshake`], bounded by
    /// [`NetConfig::handshake_timeout`], which rejects a wrong version or
    /// an RA out of range) and installs the link — replacing any previous
    /// (dead) link for the same RA. Registration itself arrives as the
    /// peer's next frame and is absorbed during the normal message pump.
    pub(crate) fn adopt(&mut self, mut t: T) -> Result<usize, TransportError> {
        let ra = server_handshake(&mut t, self.links.len(), self.config.handshake_timeout)?;
        if let Some(slot) = self.links.get_mut(ra) {
            *slot = Some(Link { t, broken: false });
        }
        Ok(ra)
    }

    /// Drains the acceptor, adopting every pending peer. Handshake
    /// failures are counted, never fatal: a garbage connection cannot
    /// stall the round loop.
    fn pump_joins(&mut self) {
        let Some(mut acceptor) = self.acceptor.take() else {
            return;
        };
        loop {
            match acceptor.poll_accept() {
                Ok(Some(t)) => {
                    if self.adopt(t).is_err() {
                        self.stats.handshake_failures += 1;
                    }
                }
                Ok(None) => break,
                Err(_) => {
                    self.stats.handshake_failures += 1;
                    break;
                }
            }
        }
        self.acceptor = Some(acceptor);
    }

    /// Waits (bounded) until every RA has registered. `first_round` is
    /// echoed in the `RegisterAck` so workers know where the run starts.
    pub fn wait_registered(&mut self, first_round: usize) -> Result<(), TransportError> {
        let deadline = RoundDeadline::after(self.config.registration_timeout);
        // No round is open yet: a ledger without slots settles nothing and
        // is dropped with whatever it counted.
        let mut nothing = SettleLedger::new(first_round, 0);
        loop {
            self.pump_joins();
            for ra in 0..self.links.len() {
                if self.plane.is_registered(ra) {
                    continue;
                }
                self.poll_link(ra, first_round, &mut nothing);
            }
            if self.plane.all_registered() {
                return Ok(());
            }
            if deadline.remaining().is_zero() {
                return Err(TransportError::HandshakeProtocol(
                    "registration deadline expired with workers missing",
                ));
            }
        }
    }

    /// RAs that have not registered (diagnostic for registration
    /// timeouts).
    pub fn missing(&self) -> Vec<usize> {
        self.plane.missing()
    }

    /// Broadcasts round `round` to every connected link. Send failures
    /// break the link (and count), but the lease — not the broken pipe —
    /// decides when the worker is down.
    fn send_round(&mut self, round: usize, zys: &[Vec<f64>], lifecycle: &[u8]) {
        for (ra, link) in self.links.iter_mut().enumerate() {
            let Some(link) = link.as_mut().filter(|l| !l.broken) else {
                continue;
            };
            let msg = WireMsg::Round(CoordInfo::addressed(round, ra, zys, lifecycle));
            if link.t.send(&msg).is_err() {
                link.broken = true;
                self.stats.links_broken += 1;
            }
        }
    }

    /// Polls link `ra` once and absorbs whatever arrives: round outcomes
    /// settle into `ledger`, registrations are acked with `next_round`.
    fn poll_link(&mut self, ra: usize, next_round: usize, ledger: &mut SettleLedger<Vec<u8>>) {
        let poll = self.config.poll_interval;
        let Some(link) = self.connected(ra) else {
            return;
        };
        match link.t.recv_timeout(poll) {
            Ok(msg) => self.absorb(ra, msg, next_round, ledger),
            Err(TransportError::Timeout) => {}
            Err(_) => {
                // EOF, reset, or garbage bytes: the peer is gone or
                // babbling. Break the link; the lease keeps running.
                link.broken = true;
                self.stats.links_broken += 1;
            }
        }
    }

    /// RA `ra`'s link, if it has one that has not broken.
    fn connected(&mut self, ra: usize) -> Option<&mut Link<T>> {
        self.links
            .get_mut(ra)
            .and_then(Option::as_mut)
            .filter(|l| !l.broken)
    }

    /// Absorbs one frame from link `ra`.
    fn absorb(
        &mut self,
        ra: usize,
        msg: WireMsg,
        next_round: usize,
        ledger: &mut SettleLedger<Vec<u8>>,
    ) {
        let now = self.clock.now();
        // A round outcome counts only on its sender's own link: the round
        // it is for, if the frame names that link's RA.
        let own = |frame_ra: u64, frame_round: u64| match (
            usize::try_from(frame_ra),
            usize::try_from(frame_round),
        ) {
            (Ok(frame_ra), Ok(round)) if frame_ra == ra => Some(round),
            _ => None,
        };
        match msg {
            WireMsg::Register {
                ra: mra,
                capabilities,
                capacity,
                lease_rounds,
            } => {
                if usize::try_from(mra) != Ok(ra) {
                    ledger.discard();
                    return;
                }
                let info = NodeInfo {
                    ra,
                    capabilities,
                    capacity,
                };
                let lease = Lease {
                    deadline_rounds: usize::try_from(lease_rounds).unwrap_or(usize::MAX),
                    wall_backstop: self.config.wall_backstop,
                };
                let rejoin = matches!(
                    self.plane.register(info, lease, ledger.round(), now),
                    Ok(crate::registration::Registration::Rejoin)
                );
                let ack = WireMsg::RegisterAck {
                    next_round: next_round as u64,
                    rejoin,
                };
                if let Some(link) = self.connected(ra) {
                    if link.t.send(&ack).is_err() {
                        link.broken = true;
                        self.stats.links_broken += 1;
                    }
                }
            }
            WireMsg::Refresh { ra: mra, round: r } => {
                if usize::try_from(mra) == Ok(ra) {
                    let tagged = usize::try_from(r).unwrap_or(0);
                    let _ = self.plane.note_alive(ra, tagged, now);
                }
            }
            WireMsg::Report {
                ra: mra,
                round: r,
                deadline_missed,
                body,
            } => {
                let Some(round) = own(mra, r) else {
                    ledger.discard();
                    return;
                };
                let _ = self.plane.note_alive(ra, round, now);
                ledger.settle(Ok(RaReport {
                    ra,
                    round,
                    deadline_missed,
                    body,
                }));
            }
            WireMsg::Down {
                ra: mra,
                round: r,
                cause,
            } => {
                let Some(round) = own(mra, r) else {
                    ledger.discard();
                    return;
                };
                // The process is alive (it caught its own panic): the
                // lease stays fresh, the round is a typed down — exactly
                // the in-process supervisor's semantics across the wire.
                let _ = self.plane.note_alive(ra, round, now);
                ledger.settle(Err(WorkerDown {
                    ra,
                    round,
                    cause: DownCause::from_wire(cause),
                }));
            }
            // Anything else on an established link is protocol noise.
            WireMsg::Hello { .. }
            | WireMsg::HelloAck { .. }
            | WireMsg::Reject { .. }
            | WireMsg::RegisterAck { .. }
            | WireMsg::Round(_)
            | WireMsg::Ctl(_) => ledger.discard(),
        }
    }

    /// Sends `Shutdown` to every connected peer (best-effort).
    pub fn shutdown(&mut self) {
        for link in self.links.iter_mut().flatten() {
            if !link.broken {
                let _ = link.t.send(&WireMsg::Ctl(Control::Shutdown));
            }
        }
        self.harvest_link_stats();
    }

    fn harvest_link_stats(&mut self) {
        let mut agg = LinkStats::default();
        for link in self.links.iter_mut().flatten() {
            agg.absorb(link.t.take_stats());
        }
        self.stats.send_retries += agg.retries;
        self.stats.sends_abandoned += agg.abandoned;
    }

    /// Cumulative network + registration counters.
    pub fn stats(&self) -> NetStats {
        let RegStats {
            leases_expired,
            rejoins,
        } = self.plane.stats();
        NetStats {
            leases_expired,
            rejoins,
            ..self.stats
        }
    }
}

/// The networked gather: broadcast over every connected link, settle what
/// comes back under the round deadline, close the lease ledger.
impl<T: Transport> RoundGather for NetCoordinator<T> {
    type Body = Vec<u8>;

    fn gather(
        &mut self,
        round: usize,
        zys: &[Vec<f64>],
        lifecycle: &[u8],
    ) -> (Vec<Option<RaReport<Vec<u8>>>>, RoundTelemetry) {
        let n = self.links.len();
        self.pump_joins();
        self.send_round(round, zys, lifecycle);
        let mut ledger = SettleLedger::new(round, n);
        let deadline = RoundDeadline::after(self.config.round_deadline);
        loop {
            // Waits on every *connected* peer, lease state notwithstanding:
            // silence costs the deadline (observable, deterministic),
            // never a silent skip.
            let open: Vec<usize> = (0..n)
                .filter(|&ra| ledger.is_open(ra) && self.connected(ra).is_some())
                .collect();
            if open.is_empty() {
                break;
            }
            if deadline.remaining().is_zero() {
                ledger.expire();
                break;
            }
            self.pump_joins();
            for ra in open {
                self.poll_link(ra, round + 1, &mut ledger);
            }
        }
        ledger.lapse(self.plane.end_round(round, self.clock.now()));
        self.harvest_link_stats();
        ledger.finish()
    }

    fn shutdown(&mut self) {
        NetCoordinator::shutdown(self);
    }
}

/// What a worker's serve loop receives from the coordinator.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkerCommand {
    /// Serve one round.
    Round(CoordInfo),
    /// The run is over: end the service.
    Shutdown,
}

/// The coordinator's answer to a registration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerAck {
    /// The next round the coordinator will broadcast.
    pub next_round: usize,
    /// Whether the coordinator sees this registration as a rejoin.
    pub rejoin: bool,
}

/// The worker side of the networked protocol: handshake + registration
/// at construction, then a command pump with automatic lease refreshes
/// while idle.
pub struct WorkerSession<T: Transport> {
    t: T,
    ra: usize,
    refresh_interval: Duration,
    auto_refresh: bool,
    /// The last round this worker processed — the round tag on refreshes,
    /// so liveness accounting never runs ahead of actual service.
    last_round: usize,
}

impl<T: Transport> WorkerSession<T> {
    /// Performs the client handshake and registration over `t`.
    pub fn establish(
        mut t: T,
        info: NodeInfo,
        lease: Lease,
        timeout: Duration,
        refresh_interval: Duration,
    ) -> Result<(Self, WorkerAck), TransportError> {
        crate::transport::client_handshake(&mut t, info.ra, timeout)?;
        t.send(&WireMsg::Register {
            ra: info.ra as u64,
            capabilities: info.capabilities,
            capacity: info.capacity,
            lease_rounds: lease.deadline_rounds as u64,
        })?;
        let deadline = RoundDeadline::after(timeout);
        loop {
            let remaining = deadline.remaining();
            if remaining.is_zero() {
                return Err(TransportError::Timeout);
            }
            match t.recv_timeout(remaining)? {
                WireMsg::RegisterAck { next_round, rejoin } => {
                    let next_round = usize::try_from(next_round).unwrap_or(0);
                    return Ok((
                        Self {
                            t,
                            ra: info.ra,
                            refresh_interval,
                            auto_refresh: true,
                            last_round: next_round.saturating_sub(1),
                        },
                        WorkerAck { next_round, rejoin },
                    ));
                }
                WireMsg::Reject { code } => return Err(TransportError::Rejected { code }),
                // Unrelated frame before the ack: keep waiting.
                WireMsg::Hello { .. }
                | WireMsg::HelloAck { .. }
                | WireMsg::Register { .. }
                | WireMsg::Refresh { .. }
                | WireMsg::Round(_)
                | WireMsg::Report { .. }
                | WireMsg::Ctl(_)
                | WireMsg::Down { .. } => {}
            }
        }
    }

    /// Enables/disables idle lease refreshes. A scripted-silent worker
    /// turns this off to *become* a lease expiry.
    pub fn set_auto_refresh(&mut self, on: bool) {
        self.auto_refresh = on;
    }

    /// Waits (bounded by `idle_budget`) for the next command, refreshing
    /// the lease every [`refresh_interval`](WorkerSession::establish)
    /// while idle.
    pub fn next_command(&mut self, idle_budget: Duration) -> Result<WorkerCommand, TransportError> {
        let deadline = RoundDeadline::after(idle_budget);
        loop {
            let remaining = deadline.remaining();
            if remaining.is_zero() {
                return Err(TransportError::Timeout);
            }
            let slice = self.refresh_interval.min(remaining);
            match self.t.recv_timeout(slice) {
                Ok(WireMsg::Round(info)) => {
                    self.last_round = info.round;
                    return Ok(WorkerCommand::Round(info));
                }
                Ok(WireMsg::Ctl(Control::Shutdown)) => return Ok(WorkerCommand::Shutdown),
                // Duplicate ack / noise: ignore.
                Ok(WireMsg::Hello { .. })
                | Ok(WireMsg::HelloAck { .. })
                | Ok(WireMsg::Reject { .. })
                | Ok(WireMsg::Register { .. })
                | Ok(WireMsg::RegisterAck { .. })
                | Ok(WireMsg::Refresh { .. })
                | Ok(WireMsg::Report { .. })
                | Ok(WireMsg::Down { .. }) => {}
                Err(TransportError::Timeout) => {
                    if self.auto_refresh {
                        self.refresh()?;
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Sends an explicit lease refresh tagged with the last served round.
    pub fn refresh(&mut self) -> Result<(), TransportError> {
        self.t.send(&WireMsg::Refresh {
            ra: self.ra as u64,
            round: self.last_round as u64,
        })
    }

    /// Reports one round's outcome (`body` already encoded by the
    /// orchestration layer; `None` for a dark round).
    pub fn report(
        &mut self,
        round: usize,
        deadline_missed: bool,
        body: Option<Vec<u8>>,
    ) -> Result<(), TransportError> {
        self.t.send(&WireMsg::Report {
            ra: self.ra as u64,
            round: round as u64,
            deadline_missed,
            body,
        })
    }

    /// Reports that this worker's supervisor downed it for `round` — the
    /// wire form of the supervisor's down event. `cause` travels as its
    /// `Display` text; the coordinator reads it back typed.
    pub fn down(&mut self, round: usize, cause: &DownCause) -> Result<(), TransportError> {
        self.t.send(&WireMsg::Down {
            ra: self.ra as u64,
            round: round as u64,
            cause: cause.to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::REJECT_UNKNOWN_RA;
    use crate::registration::caps;
    use crate::transport::{loopback_pair, LoopbackTransport};

    fn test_config() -> NetConfig {
        NetConfig {
            round_deadline: Duration::from_millis(200),
            registration_timeout: Duration::from_secs(5),
            handshake_timeout: Duration::from_secs(2),
            poll_interval: Duration::from_millis(1),
            wall_backstop: None,
        }
    }

    fn node(ra: usize) -> NodeInfo {
        NodeInfo {
            ra,
            capabilities: caps::TARO | caps::RESYNC,
            capacity: 2.0,
        }
    }

    /// A scripted worker thread: serves rounds, optionally going silent
    /// over a round window, until shutdown or disconnect.
    fn spawn_worker(
        t: LoopbackTransport,
        ra: usize,
        lease_rounds: usize,
        silent: std::ops::Range<usize>,
    ) -> std::thread::JoinHandle<usize> {
        std::thread::spawn(move || {
            let lease = Lease {
                deadline_rounds: lease_rounds,
                wall_backstop: None,
            };
            let (mut sess, _ack) = WorkerSession::establish(
                t,
                node(ra),
                lease,
                Duration::from_secs(5),
                Duration::from_millis(20),
            )
            .expect("establish");
            let mut served = 0usize;
            loop {
                match sess.next_command(Duration::from_secs(10)) {
                    Ok(WorkerCommand::Round(info)) => {
                        if silent.contains(&info.round) {
                            sess.set_auto_refresh(false);
                            continue;
                        }
                        sess.set_auto_refresh(true);
                        served += 1;
                        sess.report(info.round, false, Some(vec![ra as u8, info.round as u8]))
                            .expect("report");
                    }
                    Ok(WorkerCommand::Shutdown) => return served,
                    Err(TransportError::Disconnected) => return served,
                    Err(e) => panic!("worker {ra}: {e}"),
                }
            }
        })
    }

    #[test]
    fn healthy_round_trip_over_loopback() {
        let mut net = NetCoordinator::new(2, test_config(), Clock::wall());
        let mut handles = Vec::new();
        for ra in 0..2 {
            let (coord_side, worker_side) = loopback_pair();
            handles.push(spawn_worker(worker_side, ra, 1, 0..0));
            net.adopt(coord_side).expect("adopt");
        }
        net.wait_registered(0).expect("registered");
        for round in 0..4 {
            let zys: Vec<Vec<f64>> = (0..2).map(|j| vec![round as f64, j as f64]).collect();
            let (slots, telemetry) = net.gather(round, &zys, &[]);
            assert!(telemetry.downs.is_empty(), "round {round}: {telemetry:?}");
            assert!(!telemetry.deadline_expired);
            for (ra, slot) in slots.iter().enumerate() {
                let rep = slot.as_ref().expect("report present");
                assert_eq!(rep.ra, ra);
                assert_eq!(rep.round, round);
                assert_eq!(rep.body.as_deref(), Some(&[ra as u8, round as u8][..]));
            }
        }
        net.shutdown();
        for (ra, h) in handles.into_iter().enumerate() {
            assert_eq!(h.join().expect("join"), 4, "worker {ra} served all rounds");
        }
        let stats = net.stats();
        assert_eq!(stats.leases_expired, 0);
        assert_eq!(stats.links_broken, 0);
    }

    #[test]
    fn scripted_silence_expires_the_lease_then_rejoins() {
        let mut net = NetCoordinator::new(2, test_config(), Clock::wall());
        let mut handles = Vec::new();
        for ra in 0..2 {
            let (coord_side, worker_side) = loopback_pair();
            // RA 1 ignores rounds 1..3 with a 0-round lease: expiry at
            // the end of round 1, rejoin when it answers round 3.
            let silent = if ra == 1 { 1..3 } else { 0..0 };
            handles.push(spawn_worker(worker_side, ra, 0, silent));
            net.adopt(coord_side).expect("adopt");
        }
        net.wait_registered(0).expect("registered");
        let mut lease_downs = Vec::new();
        for round in 0..5 {
            let zys: Vec<Vec<f64>> = (0..2).map(|_| vec![0.0]).collect();
            let (slots, telemetry) = net.gather(round, &zys, &[]);
            for d in &telemetry.downs {
                if matches!(d.cause, DownCause::LeaseExpired { .. }) {
                    lease_downs.push((d.ra, d.round));
                }
            }
            let ra1_present = slots.get(1).is_some_and(Option::is_some);
            match round {
                0 | 3 | 4 => assert!(ra1_present, "round {round}: RA 1 should report"),
                _ => assert!(!ra1_present, "round {round}: RA 1 is silent"),
            }
        }
        net.shutdown();
        for h in handles {
            h.join().expect("join");
        }
        // Lease (deadline 0) lapses at round 1 and re-reports at round 2;
        // the round-3 report is the rejoin.
        assert_eq!(lease_downs, vec![(1, 1), (1, 2)]);
        let stats = net.stats();
        assert_eq!(stats.leases_expired, 1);
        assert_eq!(stats.rejoins, 1);
    }

    #[test]
    fn dead_peer_is_detected_by_lease_not_disconnect() {
        let mut net = NetCoordinator::new(2, test_config(), Clock::wall());
        let (coord0, worker0) = loopback_pair();
        let h0 = spawn_worker(worker0, 0, 1, 0..0);
        net.adopt(coord0).expect("adopt 0");
        // Worker 1 registers, serves round 0, then its process "dies"
        // (the transport drops).
        let (coord1, worker1) = loopback_pair();
        let h1 = std::thread::spawn(move || {
            let (mut sess, _ack) = WorkerSession::establish(
                worker1,
                node(1),
                Lease {
                    deadline_rounds: 1,
                    wall_backstop: None,
                },
                Duration::from_secs(5),
                Duration::from_millis(20),
            )
            .expect("establish");
            match sess.next_command(Duration::from_secs(10)) {
                Ok(WorkerCommand::Round(info)) => {
                    sess.report(info.round, false, Some(vec![9]))
                        .expect("report");
                }
                other => panic!("unexpected: {other:?}"),
            }
            // drop(sess): SIGKILL stand-in — no goodbye, no shutdown.
        });
        net.adopt(coord1).expect("adopt 1");
        net.wait_registered(0).expect("registered");
        let mut downs = Vec::new();
        for round in 0..4 {
            let zys: Vec<Vec<f64>> = (0..2).map(|_| vec![0.0]).collect();
            let (_slots, telemetry) = net.gather(round, &zys, &[]);
            downs.extend(telemetry.downs);
        }
        net.shutdown();
        h0.join().expect("join 0");
        h1.join().expect("join 1");
        // The death shows up as a broken link immediately, but the *down*
        // event is the lease: last_ok 0, deadline 1 → expired at round 2.
        let stats = net.stats();
        assert!(stats.links_broken >= 1, "broken link must be counted");
        assert_eq!(stats.leases_expired, 1);
        assert!(downs
            .iter()
            .all(|d| matches!(d.cause, DownCause::LeaseExpired { .. })));
        assert_eq!(
            downs.iter().map(|d| (d.ra, d.round)).collect::<Vec<_>>(),
            vec![(1, 2), (1, 3)],
            "expiry at round 2, re-reported at 3 — never a Disconnected down"
        );
    }

    #[test]
    fn respawned_peer_rejoins_through_the_acceptor() {
        let mut net = NetCoordinator::new(1, test_config(), Clock::wall());
        let (join_tx, acceptor) = channel_acceptor::<LoopbackTransport>();
        net.set_acceptor(Box::new(acceptor));
        let (coord0, worker0) = loopback_pair();
        let h0 = std::thread::spawn(move || {
            let (mut sess, ack) = WorkerSession::establish(
                worker0,
                node(0),
                Lease {
                    deadline_rounds: 0,
                    wall_backstop: None,
                },
                Duration::from_secs(5),
                Duration::from_millis(20),
            )
            .expect("establish");
            assert!(!ack.rejoin);
            // Serve exactly one round, then die without a word.
            match sess.next_command(Duration::from_secs(10)) {
                Ok(WorkerCommand::Round(info)) => {
                    sess.report(info.round, false, None).expect("report")
                }
                other => panic!("unexpected: {other:?}"),
            }
        });
        net.adopt(coord0).expect("adopt");
        net.wait_registered(0).expect("registered");
        let zys = vec![vec![0.0]];
        let (_s, t0) = net.gather(0, &zys, &[]);
        assert!(t0.downs.is_empty());
        h0.join().expect("join 0");
        // Round 1: the peer is gone; its lease (deadline 0) expires.
        let (_s, t1) = net.gather(1, &zys, &[]);
        assert!(t1
            .downs
            .iter()
            .any(|d| matches!(d.cause, DownCause::LeaseExpired { .. })));
        // Respawn: a new process connects through the acceptor and
        // re-registers — the ack tells it this is a rejoin.
        let (coord_new, worker_new) = loopback_pair();
        let h1 = std::thread::spawn(move || {
            let (mut sess, ack) = WorkerSession::establish(
                worker_new,
                node(0),
                Lease::default(),
                Duration::from_secs(5),
                Duration::from_millis(20),
            )
            .expect("re-establish");
            assert!(ack.rejoin, "coordinator must flag the rejoin");
            let mut served = 0;
            loop {
                match sess.next_command(Duration::from_secs(10)) {
                    Ok(WorkerCommand::Round(info)) => {
                        served += 1;
                        sess.report(info.round, false, Some(vec![7]))
                            .expect("report");
                    }
                    Ok(WorkerCommand::Shutdown) => return served,
                    Err(TransportError::Disconnected) => return served,
                    Err(e) => panic!("rejoined worker: {e}"),
                }
            }
        });
        join_tx.send(coord_new).expect("inject rejoiner");
        let (slots, _t2) = net.gather(2, &zys, &[]);
        // The rejoiner registered during round 2's gather; it serves
        // from round 3 on.
        let (slots3, t3) = net.gather(3, &zys, &[]);
        assert!(t3.downs.is_empty(), "rejoined: no more lease downs: {t3:?}");
        assert!(slots3.first().is_some_and(Option::is_some));
        drop(slots);
        net.shutdown();
        assert!(h1.join().expect("join rejoiner") >= 1);
        let stats = net.stats();
        assert_eq!(stats.leases_expired, 1);
        assert!(stats.rejoins >= 1);
    }

    #[test]
    fn out_of_range_ra_is_rejected_before_any_ack_and_counted() {
        let mut net = NetCoordinator::new(2, test_config(), Clock::wall());
        let (join_tx, acceptor) = channel_acceptor::<LoopbackTransport>();
        net.set_acceptor(Box::new(acceptor));
        let (coord_side, mut worker_side) = loopback_pair();
        let peer = std::thread::spawn(move || {
            crate::transport::client_handshake(&mut worker_side, 2, Duration::from_secs(5))
        });
        join_tx.send(coord_side).expect("inject peer");
        net.pump_joins();
        assert_eq!(
            peer.join().expect("join peer"),
            Err(TransportError::Rejected {
                code: REJECT_UNKNOWN_RA
            })
        );
        assert_eq!(net.stats().handshake_failures, 1);
        assert!(net.links.iter().all(Option::is_none), "nothing was adopted");
    }
}
