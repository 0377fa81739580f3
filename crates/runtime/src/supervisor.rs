//! Panic isolation and bounded-restart supervision for RA workers.
//!
//! Before this layer existed a panicking worker either aborted the whole
//! run (sequential) or silently vanished from its thread, turning every
//! subsequent round into an indistinguishable "missed deadline". The
//! [`Supervisor`] wraps every `run_round` call in
//! [`std::panic::catch_unwind`] and converts the panic into a typed
//! [`WorkerDown`] event that flows to the coordinator alongside the
//! healthy reports, so a crash is *data*, not absence.
//!
//! Restart policy: each worker has a bounded restart budget
//! ([`SupervisorConfig::max_restarts`]). After a caught panic the
//! supervisor backs off exponentially (`backoff_base * 2^n`, capped at
//! [`SupervisorConfig::backoff_max`]) and asks the worker to
//! [`RoundWorker::recover`]; a worker that declines to recover, or whose
//! budget is exhausted, is marked dead and reported
//! [`DownCause::RestartsExhausted`] every remaining round — failure is
//! explicit for the rest of the run, never a silent truncation.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use crate::engine::RoundWorker;
use crate::msg::CoordInfo;
use crate::msg::RaReport;

/// Why a worker failed to produce a report for a round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DownCause {
    /// The worker panicked inside `run_round`; the payload is the panic
    /// message (or a placeholder when the payload was not a string).
    Panic(String),
    /// The worker's restart budget is exhausted (or it declined to
    /// recover); the supervisor refuses to drive it again this run.
    RestartsExhausted,
    /// The worker's thread is gone: its report channel disconnected
    /// before the round settled.
    Disconnected,
    /// The worker's registration lease lapsed: it went `missed_rounds`
    /// rounds without a round-tagged sign of life, past the
    /// `budget_rounds` failure deadline it declared at registration.
    /// Raised by the networked registration plane
    /// ([`crate::registration::RegistrationPlane`]) — the multi-process
    /// analogue of a caught panic, absorbed by the same degraded paths.
    LeaseExpired {
        /// Rounds without a sign of life when the lease lapsed.
        missed_rounds: usize,
        /// The failure deadline the node declared (in rounds).
        budget_rounds: usize,
    },
}

/// How [`DownCause::Panic`] and [`DownCause::RestartsExhausted`] render —
/// and, because a networked worker ships its cause as that rendering in a
/// `Down` frame, what [`DownCause::from_wire`] recognises on the way back.
const PANIC_PREFIX: &str = "panic: ";
const RESTARTS_EXHAUSTED: &str = "restart budget exhausted";

impl std::fmt::Display for DownCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DownCause::Panic(msg) => write!(f, "{PANIC_PREFIX}{msg}"),
            DownCause::RestartsExhausted => write!(f, "{RESTARTS_EXHAUSTED}"),
            DownCause::Disconnected => write!(f, "worker channel disconnected"),
            DownCause::LeaseExpired {
                missed_rounds,
                budget_rounds,
            } => write!(
                f,
                "lease expired: {missed_rounds} rounds without refresh (budget {budget_rounds})"
            ),
        }
    }
}

impl DownCause {
    /// The inverse of `Display` for the two causes a worker's own
    /// supervisor can raise, applied to the text of a `Down` frame. Total:
    /// anything else — a foreign peer's free text, or a cause only the
    /// coordinator side may decide (`Disconnected`, `LeaseExpired`) — is
    /// kept verbatim as a panic message, never an error.
    pub(crate) fn from_wire(text: String) -> Self {
        if text == RESTARTS_EXHAUSTED {
            DownCause::RestartsExhausted
        } else if let Some(msg) = text.strip_prefix(PANIC_PREFIX) {
            DownCause::Panic(msg.to_string())
        } else {
            DownCause::Panic(text)
        }
    }
}

/// A typed worker-failure event: which RA went down, in which round, and
/// why. Downed RAs are reported to the coordinator every round they miss —
/// the explicit replacement for the silent missing-report truncation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerDown {
    /// The RA whose worker failed.
    pub ra: usize,
    /// The engine-local round the failure was observed in.
    pub round: usize,
    /// Why the worker failed.
    pub cause: DownCause,
}

impl std::fmt::Display for WorkerDown {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ra {} down in round {}: {}",
            self.ra, self.round, self.cause
        )
    }
}

/// Supervision policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// How many caught panics per worker before it is marked dead.
    pub max_restarts: usize,
    /// Backoff slept before the first restart of a worker; doubles on
    /// every subsequent restart of the same worker.
    pub backoff_base: Duration,
    /// Upper bound on any single backoff sleep.
    pub backoff_max: Duration,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        Self {
            max_restarts: 3,
            backoff_base: Duration::from_millis(5),
            backoff_max: Duration::from_millis(500),
        }
    }
}

impl SupervisorConfig {
    /// The backoff slept before restart number `n` (0-based):
    /// `backoff_base * 2^n`, saturating at `backoff_max`.
    #[must_use]
    pub(crate) fn backoff(&self, n: usize) -> Duration {
        exponential_backoff(self.backoff_base, self.backoff_max, n)
    }
}

/// `base · 2^min(n, 16)`, saturating at `max`: the bounded exponential
/// backoff of supervisor restarts and transport retries.
pub(crate) fn exponential_backoff(base: Duration, max: Duration, n: usize) -> Duration {
    let factor = 1u32 << n.min(16) as u32;
    base.checked_mul(factor).map_or(max, |d| d.min(max))
}

/// Per-shard supervision state: one restart counter and one dead flag per
/// worker slot. Both schedulers route every `run_round` call through
/// [`Supervisor::guard`], so panic semantics are identical whether a
/// worker runs inline or on its own thread.
#[derive(Debug)]
pub struct Supervisor {
    config: SupervisorConfig,
    restarts: Vec<usize>,
    dead: Vec<bool>,
}

impl Supervisor {
    /// A supervisor over `n_slots` worker slots.
    pub fn new(config: SupervisorConfig, n_slots: usize) -> Self {
        Self {
            config,
            restarts: vec![0; n_slots],
            dead: vec![false; n_slots],
        }
    }

    /// A supervisor whose per-slot state is reconstructed from the number
    /// of panics each slot has already suffered in an earlier (interrupted)
    /// run — the resume counterpart of [`Supervisor::new`]. For a worker
    /// whose `recover` accepts every restart, `counts[slot]` caught panics
    /// leave exactly `min(counts, max_restarts)` restarts consumed and the
    /// slot dead iff the count exceeded the budget, so a resumed supervisor
    /// is indistinguishable from one that lived through the panics.
    pub fn with_panic_counts(config: SupervisorConfig, counts: &[usize]) -> Self {
        Self {
            config,
            restarts: counts.iter().map(|&c| c.min(config.max_restarts)).collect(),
            dead: counts.iter().map(|&c| c > config.max_restarts).collect(),
        }
    }

    /// How many restarts slot `slot` has consumed.
    pub fn restarts(&self, slot: usize) -> usize {
        self.restarts[slot]
    }

    /// Whether slot `slot` is permanently dead.
    pub fn is_dead(&self, slot: usize) -> bool {
        self.dead[slot]
    }

    /// Drives one guarded round on `worker` (slot `slot`): catches any
    /// panic, applies the restart policy, and converts failures into
    /// typed [`WorkerDown`] events.
    pub fn guard<W: RoundWorker>(
        &mut self,
        slot: usize,
        worker: &mut W,
        info: &CoordInfo,
    ) -> Result<RaReport<W::Body>, WorkerDown> {
        let ra = worker.ra();
        if self.dead[slot] {
            return Err(WorkerDown {
                ra,
                round: info.round,
                cause: DownCause::RestartsExhausted,
            });
        }
        match catch_unwind(AssertUnwindSafe(|| worker.run_round(info))) {
            Ok(report) => Ok(report),
            Err(payload) => {
                let message = panic_message(payload.as_ref());
                if self.restarts[slot] < self.config.max_restarts {
                    let backoff = self.config.backoff(self.restarts[slot]);
                    self.restarts[slot] += 1;
                    if !backoff.is_zero() {
                        std::thread::sleep(backoff);
                    }
                    // The recovery hook itself runs guarded: a worker so
                    // broken that recovery panics is simply dead.
                    let recovered =
                        catch_unwind(AssertUnwindSafe(|| worker.recover())).unwrap_or(false);
                    if !recovered {
                        self.dead[slot] = true;
                    }
                } else {
                    self.dead[slot] = true;
                }
                Err(WorkerDown {
                    ra,
                    round: info.round,
                    cause: DownCause::Panic(message),
                })
            }
        }
    }
}

/// Extracts a human-readable message from a caught panic payload.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct FlakyWorker {
        ra: usize,
        /// Rounds that panic.
        bad: Vec<usize>,
        /// Whether `recover` accepts the restart.
        recoverable: bool,
        recoveries: usize,
    }

    impl RoundWorker for FlakyWorker {
        type Body = usize;

        fn ra(&self) -> usize {
            self.ra
        }

        fn run_round(&mut self, info: &CoordInfo) -> RaReport<usize> {
            assert!(!self.bad.contains(&info.round), "injected panic");
            RaReport {
                ra: self.ra,
                round: info.round,
                deadline_missed: false,
                body: Some(info.round),
            }
        }

        fn recover(&mut self) -> bool {
            self.recoveries += 1;
            self.recoverable
        }
    }

    fn info(round: usize) -> CoordInfo {
        CoordInfo {
            round,
            ra: 0,
            zy: vec![],
            lifecycle: vec![],
        }
    }

    fn fast() -> SupervisorConfig {
        SupervisorConfig {
            backoff_base: Duration::ZERO,
            ..Default::default()
        }
    }

    #[test]
    fn panic_is_caught_and_typed() {
        let mut sup = Supervisor::new(fast(), 1);
        let mut w = FlakyWorker {
            ra: 0,
            bad: vec![1],
            recoverable: true,
            recoveries: 0,
        };
        assert!(sup.guard(0, &mut w, &info(0)).is_ok());
        let down = sup.guard(0, &mut w, &info(1)).unwrap_err();
        assert_eq!(down.ra, 0);
        assert_eq!(down.round, 1);
        assert!(matches!(down.cause, DownCause::Panic(ref m) if m.contains("injected panic")));
        assert_eq!(w.recoveries, 1);
        // Recovered: the next round serves normally.
        assert!(sup.guard(0, &mut w, &info(2)).is_ok());
        assert!(!sup.is_dead(0));
    }

    #[test]
    fn unrecoverable_worker_is_dead_with_explicit_cause_every_round() {
        let mut sup = Supervisor::new(fast(), 1);
        let mut w = FlakyWorker {
            ra: 0,
            bad: vec![0],
            recoverable: false,
            recoveries: 0,
        };
        let first = sup.guard(0, &mut w, &info(0)).unwrap_err();
        assert!(matches!(first.cause, DownCause::Panic(_)));
        assert!(sup.is_dead(0));
        for round in 1..4 {
            let down = sup.guard(0, &mut w, &info(round)).unwrap_err();
            assert_eq!(down.cause, DownCause::RestartsExhausted);
            assert_eq!(down.round, round);
        }
        // The dead worker is never driven again (recoveries stay at 1).
        assert_eq!(w.recoveries, 1);
    }

    #[test]
    fn restart_budget_is_enforced() {
        let config = SupervisorConfig {
            max_restarts: 2,
            backoff_base: Duration::ZERO,
            ..Default::default()
        };
        let mut sup = Supervisor::new(config, 1);
        let mut w = FlakyWorker {
            ra: 0,
            bad: (0..10).collect(),
            recoverable: true,
            recoveries: 0,
        };
        for round in 0..3 {
            let down = sup.guard(0, &mut w, &info(round)).unwrap_err();
            assert!(matches!(down.cause, DownCause::Panic(_)), "round {round}");
        }
        assert!(sup.is_dead(0));
        assert_eq!(sup.restarts(0), 2);
        let down = sup.guard(0, &mut w, &info(3)).unwrap_err();
        assert_eq!(down.cause, DownCause::RestartsExhausted);
    }

    #[test]
    fn panic_counts_reconstruct_live_supervisor_state() {
        let config = fast();
        // Live supervisor: drive a recoverable worker through 2 panics.
        let mut live = Supervisor::new(config, 1);
        let mut w = FlakyWorker {
            ra: 0,
            bad: vec![0, 1],
            recoverable: true,
            recoveries: 0,
        };
        for round in 0..2 {
            let _ = live.guard(0, &mut w, &info(round));
        }
        let resumed = Supervisor::with_panic_counts(config, &[2]);
        assert_eq!(resumed.restarts(0), live.restarts(0));
        assert_eq!(resumed.is_dead(0), live.is_dead(0));
        // Past the budget (max_restarts = 3): the slot resumes dead.
        let dead = Supervisor::with_panic_counts(config, &[4]);
        assert!(dead.is_dead(0));
        assert_eq!(dead.restarts(0), config.max_restarts);
    }

    #[test]
    fn wire_causes_round_trip_typed_and_foreign_text_is_a_panic() {
        for cause in [
            DownCause::Panic("injected worker panic: ra 1 round 2".into()),
            DownCause::Panic(String::new()),
            DownCause::RestartsExhausted,
        ] {
            assert_eq!(DownCause::from_wire(cause.to_string()), cause);
        }
        // Verdicts only the coordinator side reaches, and free text: a
        // peer cannot claim them, and nothing is an error.
        let lease = DownCause::LeaseExpired {
            missed_rounds: 2,
            budget_rounds: 1,
        };
        for text in [
            DownCause::Disconnected.to_string(),
            lease.to_string(),
            "gremlins".to_string(),
        ] {
            assert_eq!(DownCause::from_wire(text.clone()), DownCause::Panic(text));
        }
    }

    #[test]
    fn backoff_doubles_and_saturates() {
        let config = SupervisorConfig {
            max_restarts: 10,
            backoff_base: Duration::from_millis(10),
            backoff_max: Duration::from_millis(35),
        };
        assert_eq!(config.backoff(0), Duration::from_millis(10));
        assert_eq!(config.backoff(1), Duration::from_millis(20));
        assert_eq!(config.backoff(2), Duration::from_millis(35));
        assert_eq!(config.backoff(60), Duration::from_millis(35));
    }
}
