//! The one round loop and the seam under it.
//!
//! Alg. 1's round — broadcast `z − y`, every RA answers, fold — does not
//! change with *where* the RA workers run; only the delivery does. That
//! delivery is [`RoundGather`], implemented three times (workers inline
//! under one supervisor and worker shard threads over `mpsc`, both in
//! [`crate::Engine`]; peer processes over [`crate::Transport`] links,
//! [`crate::NetCoordinator`]), and [`round_loop`] is the only code that
//! sequences a round. All three settle their report slots through the one
//! [`SettleLedger`].

use crate::engine::{EngineReport, RoundCoordinator, RoundTelemetry};
use crate::msg::RaReport;
use crate::supervisor::{DownCause, WorkerDown};

/// One way of reaching every RA's worker for a round: in this thread, on
/// shard threads, or across process boundaries.
pub trait RoundGather {
    /// The round-outcome payload carried back in [`RaReport::body`].
    type Body;

    /// Delivers round `round`'s per-RA `z − y` (`zys`, indexed by RA) and
    /// shared lifecycle payload to every RA and returns the settled
    /// report slots, indexed by RA, with the round's telemetry. A `None`
    /// slot is an RA that produced no report; why is in the telemetry.
    fn gather(
        &mut self,
        round: usize,
        zys: &[Vec<f64>],
        lifecycle: &[u8],
    ) -> (Vec<Option<RaReport<Self::Body>>>, RoundTelemetry);

    /// Tells every reachable worker the run is over (best-effort).
    fn shutdown(&mut self);
}

/// Runs coordination rounds `first_round..end_round` of `coord` over
/// `gather`, stopping early when [`RoundCoordinator::collect`] says so,
/// then shuts the workers down.
pub fn round_loop<G, C>(
    gather: &mut G,
    coord: &mut C,
    first_round: usize,
    end_round: usize,
) -> EngineReport
where
    G: RoundGather,
    C: RoundCoordinator<Body = G::Body>,
{
    let mut rounds = 0;
    for round in first_round..end_round {
        let zys = coord.broadcast(round);
        let lifecycle = coord.lifecycle_delta(round);
        let (reports, telemetry) = gather.gather(round, &zys, &lifecycle);
        rounds += 1;
        if coord.collect(round, reports, &telemetry) {
            break;
        }
    }
    gather.shutdown();
    EngineReport { rounds }
}

/// One round's settle ledger, shared by every gather. A slot settles
/// exactly once, on its report *or* its down event; an arrival for
/// another round, an out-of-range RA or an already-settled slot is
/// dropped but counted — never a silent discard. What is still open when
/// the deadline passes stays `None` (a timeout); at a dead channel it
/// becomes a [`DownCause::Disconnected`] down.
pub(crate) struct SettleLedger<B> {
    round: usize,
    slots: Vec<Option<RaReport<B>>>,
    open: usize,
    telemetry: RoundTelemetry,
}

impl<B> SettleLedger<B> {
    /// A ledger for `round` with `n` open slots.
    pub(crate) fn new(round: usize, n: usize) -> Self {
        Self {
            round,
            slots: (0..n).map(|_| None).collect(),
            open: n,
            telemetry: RoundTelemetry::default(),
        }
    }

    /// The round being gathered.
    pub(crate) fn round(&self) -> usize {
        self.round
    }

    /// Whether slot `ra` exists and holds neither a report nor a down.
    pub(crate) fn is_open(&self, ra: usize) -> bool {
        self.slots.get(ra).is_some_and(Option::is_none)
            && !self.telemetry.downs.iter().any(|d| d.ra == ra)
    }

    /// Whether every slot has settled.
    pub(crate) fn all_settled(&self) -> bool {
        self.open == 0
    }

    /// One arrival — a worker's report, or the down event its supervisor
    /// raised instead: settles its slot, or is dropped and counted.
    pub(crate) fn settle(&mut self, outcome: Result<RaReport<B>, WorkerDown>) {
        let (ra, round) = match &outcome {
            Ok(report) => (report.ra, report.round),
            Err(down) => (down.ra, down.round),
        };
        if round != self.round || !self.is_open(ra) {
            self.discard();
            return;
        }
        self.open -= 1;
        match outcome {
            Ok(report) => self.slots[ra] = Some(report),
            Err(down) => self.telemetry.downs.push(down),
        }
    }

    /// Counts an arrival that can settle nothing (mis-addressed, or not a
    /// round outcome at all).
    pub(crate) fn discard(&mut self) {
        self.telemetry.discarded_reports += 1;
    }

    /// The round deadline passed with slots still open: they stay `None`.
    pub(crate) fn expire(&mut self) {
        self.telemetry.deadline_expired = true;
    }

    /// The report channel died: whoever has not settled is not late but
    /// *gone* — each open slot is reported down instead of being conflated
    /// with a deadline miss.
    pub(crate) fn disconnect(&mut self) {
        self.telemetry.channel_disconnected = true;
        for ra in 0..self.slots.len() {
            if self.is_open(ra) {
                self.telemetry.downs.push(WorkerDown {
                    ra,
                    round: self.round,
                    cause: DownCause::Disconnected,
                });
            }
        }
        self.open = 0;
    }

    /// Adds down events decided at round close rather than by an arrival
    /// (the registration plane's lapsed leases). They settle nothing: a
    /// lapsed lease is a verdict on the node, whatever its slot holds.
    pub(crate) fn lapse(&mut self, mut downs: Vec<WorkerDown>) {
        self.telemetry.downs.append(&mut downs);
    }

    /// Closes the round. Downs arrive in whatever order shards or links
    /// produced them; sorted by RA the telemetry is the same sequence
    /// under every gather.
    pub(crate) fn finish(mut self) -> (Vec<Option<RaReport<B>>>, RoundTelemetry) {
        self.telemetry.downs.sort_by_key(|d| d.ra);
        (self.slots, self.telemetry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SplitMix64: a seeded stream, no dev-dependency needed.
    fn next(state: &mut u64) -> usize {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) as usize
    }

    #[derive(Clone, Copy, PartialEq, Debug)]
    enum Arrival {
        Report { ra: usize, round: usize },
        Down { ra: usize, round: usize },
    }

    const ROUND: usize = 5;
    const N: usize = 6;

    /// A shuffled mix for one case: on-time and stale reports, downs,
    /// duplicates of both, out-of-range RAs — so a slot may see its down
    /// before or after its report.
    fn arrivals(seed: u64) -> Vec<Arrival> {
        let mut s = seed;
        let mut out = Vec::new();
        for _ in 0..(4 + next(&mut s) % 20) {
            let ra = next(&mut s) % (N + 2);
            let round = if next(&mut s).is_multiple_of(4) {
                ROUND - 1 - next(&mut s) % 3
            } else {
                ROUND
            };
            out.push(if next(&mut s).is_multiple_of(3) {
                Arrival::Down { ra, round }
            } else {
                Arrival::Report { ra, round }
            });
            if next(&mut s).is_multiple_of(3) {
                out.push(out[next(&mut s) % out.len()]);
            }
        }
        for i in (1..out.len()).rev() {
            out.swap(i, next(&mut s) % (i + 1));
        }
        out
    }

    #[test]
    fn every_slot_settles_at_most_once_and_every_arrival_is_accounted_for() {
        for seed in 0..500 {
            let arrivals = arrivals(seed);
            let mut ledger = SettleLedger::new(ROUND, N);
            // The oracle: the first on-time, in-range arrival per RA wins.
            let mut first: Vec<Option<Arrival>> = vec![None; N];
            for (k, &arrival) in arrivals.iter().enumerate() {
                let (ra, round) = match arrival {
                    Arrival::Report { ra, round } | Arrival::Down { ra, round } => (ra, round),
                };
                if round == ROUND && ra < N && first[ra].is_none() {
                    first[ra] = Some(arrival);
                }
                ledger.settle(match arrival {
                    Arrival::Report { ra, round } => Ok(RaReport {
                        ra,
                        round,
                        deadline_missed: false,
                        body: Some(k),
                    }),
                    Arrival::Down { ra, round } => Err(WorkerDown {
                        ra,
                        round,
                        cause: DownCause::Panic(k.to_string()),
                    }),
                });
                let settled = first.iter().flatten().count();
                assert_eq!(ledger.all_settled(), settled == N, "seed {seed}");
            }
            let (slots, telemetry) = ledger.finish();
            let settled = first.iter().flatten().count();
            assert_eq!(
                settled + telemetry.discarded_reports,
                arrivals.len(),
                "seed {seed}: settled + discarded == arrivals"
            );
            assert_eq!(
                slots.iter().flatten().count() + telemetry.downs.len(),
                settled,
                "seed {seed}: a slot settles at most once"
            );
            for (ra, slot) in slots.iter().enumerate() {
                let downed = telemetry.downs.iter().filter(|d| d.ra == ra).count();
                match first[ra] {
                    Some(Arrival::Report { .. }) => {
                        let report = slot.as_ref().expect("the first arrival was a report");
                        assert_eq!((report.ra, report.round, downed), (ra, ROUND, 0));
                    }
                    Some(Arrival::Down { .. }) => {
                        assert!(slot.is_none(), "seed {seed}: a downed slot holds a report");
                        assert_eq!(downed, 1);
                    }
                    None => assert!(slot.is_none() && downed == 0),
                }
            }
            assert!(
                telemetry.downs.windows(2).all(|w| w[0].ra < w[1].ra),
                "seed {seed}: downs must come out RA-sorted: {:?}",
                telemetry.downs
            );
            assert!(!telemetry.deadline_expired && !telemetry.channel_disconnected);
        }
    }

    #[test]
    fn a_dead_channel_downs_exactly_the_open_slots_and_a_deadline_none() {
        let report = |ra| RaReport {
            ra,
            round: ROUND,
            deadline_missed: false,
            body: Some(()),
        };
        let mut ledger = SettleLedger::new(ROUND, 4);
        ledger.settle(Ok(report(2)));
        ledger.settle(Err(WorkerDown {
            ra: 0,
            round: ROUND,
            cause: DownCause::RestartsExhausted,
        }));
        ledger.disconnect();
        assert!(ledger.all_settled());
        // A straggler after the verdict is a duplicate, not a second settle.
        ledger.settle(Ok(report(3)));
        let (slots, telemetry) = ledger.finish();
        assert_eq!(slots.iter().flatten().count(), 1);
        assert_eq!(
            telemetry
                .downs
                .iter()
                .map(|d| (d.ra, d.cause.clone()))
                .collect::<Vec<_>>(),
            vec![
                (0, DownCause::RestartsExhausted),
                (1, DownCause::Disconnected),
                (3, DownCause::Disconnected),
            ]
        );
        assert!(telemetry.channel_disconnected && !telemetry.deadline_expired);
        assert_eq!(telemetry.discarded_reports, 1);

        let mut ledger = SettleLedger::new(ROUND, 2);
        ledger.settle(Ok(report(1)));
        ledger.expire();
        let (slots, telemetry) = ledger.finish();
        assert!(slots[0].is_none() && slots[1].is_some());
        assert!(telemetry.downs.is_empty() && telemetry.deadline_expired);
    }
}
