//! The runtime's **only** wall-clock access point.
//!
//! The determinism contract (crate docs) makes every worker a pure
//! function of `(master_seed, ra, round)` — which is exactly why
//! `Instant::now()` is banned by `edgeslice-lint`'s `determinism` rule
//! everywhere in `runtime`/`core`/`netsim` *except* this module and the
//! socket transport (`transport.rs`, whose read/retry deadlines are
//! wall-clock by nature — see the lint's `WALL_CLOCK_QUARANTINE`). The
//! things that legitimately need real time are the per-round report
//! deadline and the lease backstop: a hung worker must eventually lose
//! its round, and only the wall clock can say "eventually". Quarantining
//! those reads keeps the exemption auditable: any new wall-clock
//! dependency has to either land in a quarantined module (and be
//! justified in review) or trip the lint.
//!
//! Deadline expiry is *observable* nondeterminism by design — it is
//! reported as [`crate::RoundTelemetry::deadline_expired`], never silently
//! folded into the round result, and the default budget is generous
//! enough (30 s) that healthy runs never hit it.
//!
//! For lease/heartbeat logic the module additionally provides a *mockable*
//! clock: [`Clock`] yields monotonic [`TimePoint`]s either from the real
//! wall ([`Clock::wall`]) or from a hand-advanced counter
//! ([`Clock::Mock`]), so registration-plane deadline tests never sleep.
//! Consumers take `TimePoint` parameters instead of reading time
//! themselves, which keeps them out of the quarantine entirely.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A wall-clock deadline for one coordination round: constructed when the
/// round's gather phase starts, then polled for the remaining budget on
/// every channel receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundDeadline {
    at: Instant,
}

impl RoundDeadline {
    /// A deadline `budget` from now.
    pub(crate) fn after(budget: Duration) -> Self {
        Self {
            at: Instant::now() + budget,
        }
    }

    /// Time left until the deadline ([`Duration::ZERO`] once passed) —
    /// the timeout to hand to the next blocking channel receive.
    pub(crate) fn remaining(&self) -> Duration {
        self.at.saturating_duration_since(Instant::now())
    }
}

/// A monotonic instant in milliseconds since the owning [`Clock`]'s
/// epoch. Plain data: consumers compare and subtract `TimePoint`s, they
/// never read the clock themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct TimePoint {
    millis: u64,
}

impl TimePoint {
    /// A time point `millis` ms after the clock epoch.
    pub fn from_millis(millis: u64) -> Self {
        Self { millis }
    }

    /// Milliseconds elapsed since `earlier` (0 if `earlier` is later —
    /// monotonic clocks never require negative elapsed time).
    pub(crate) fn millis_since(self, earlier: TimePoint) -> u64 {
        self.millis.saturating_sub(earlier.millis)
    }
}

/// A time source for lease/heartbeat deadlines: either the real monotonic
/// wall clock or a hand-advanced mock, so deadline logic is testable
/// without sleeping. Cloning a mock clock shares its state — a test holds
/// the handle that advances it and every consumer clone observes the move.
#[derive(Debug, Clone)]
pub enum Clock {
    /// Real time: [`Instant`] reads relative to a fixed epoch.
    Wall {
        /// The instant `TimePoint::from_millis(0)` refers to.
        epoch: Instant,
    },
    /// Mock time: reads the shared counter, advanced only by the test.
    Mock(Arc<AtomicU64>),
}

impl Clock {
    /// A real wall clock with its epoch at construction time.
    pub fn wall() -> Self {
        Clock::Wall {
            epoch: Instant::now(),
        }
    }

    /// A mock clock starting at 0 ms, plus the handle that advances it.
    #[cfg(test)]
    pub(crate) fn mock() -> (Self, MockClock) {
        let state = Arc::new(AtomicU64::new(0));
        (Clock::Mock(Arc::clone(&state)), MockClock(state))
    }

    /// The current time point.
    pub fn now(&self) -> TimePoint {
        match self {
            Clock::Wall { epoch } => {
                let elapsed = epoch.elapsed().as_millis();
                TimePoint::from_millis(u64::try_from(elapsed).unwrap_or(u64::MAX))
            }
            Clock::Mock(state) => TimePoint::from_millis(state.load(Ordering::SeqCst)),
        }
    }
}

/// The test-side handle to a [`Clock::Mock`]: the only way mock time moves.
#[cfg(test)]
#[derive(Debug, Clone)]
pub(crate) struct MockClock(Arc<AtomicU64>);

#[cfg(test)]
impl MockClock {
    /// Advances mock time by `d` (saturating on overflow).
    pub(crate) fn advance(&self, d: Duration) {
        let ms = u64::try_from(d.as_millis()).unwrap_or(u64::MAX);
        let prev = self.0.load(Ordering::SeqCst);
        self.0.store(prev.saturating_add(ms), Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remaining_counts_down_and_saturates() {
        let d = RoundDeadline::after(Duration::from_secs(60));
        let r = d.remaining();
        assert!(r <= Duration::from_secs(60));
        assert!(
            r > Duration::from_secs(59),
            "60s budget cannot drain instantly"
        );
        let expired = RoundDeadline::after(Duration::ZERO);
        assert_eq!(expired.remaining(), Duration::ZERO);
    }

    #[test]
    fn mock_clock_only_moves_when_advanced() {
        let (clock, handle) = Clock::mock();
        let observer = clock.clone();
        assert_eq!(clock.now(), TimePoint::from_millis(0));
        handle.advance(Duration::from_millis(250));
        assert_eq!(clock.now(), TimePoint::from_millis(250));
        // Clones share the counter — no clone-local time.
        assert_eq!(observer.now(), TimePoint::from_millis(250));
    }

    #[test]
    fn time_point_arithmetic_saturates() {
        let a = TimePoint::from_millis(100);
        let b = TimePoint::from_millis(350);
        assert_eq!(b.millis_since(a), 250);
        assert_eq!(a.millis_since(b), 0, "elapsed time never negative");
    }

    #[test]
    fn wall_clock_is_monotonic_nondecreasing() {
        let clock = Clock::wall();
        let t0 = clock.now();
        let t1 = clock.now();
        assert!(t1 >= t0);
    }
}
