//! Taking time: one [`Sample`] per block or set-up repeat, normalised to
//! reference-host seconds before any statistic is taken (timing rule T3).

use serde::Serialize;

use crate::host::{CalTime, HostClock};
use crate::sizes::CAL_REF_S;
use crate::stats::median;

/// Raw times of one block or one set-up repeat, with the calibration
/// kernel's time immediately before and after it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Sample {
    /// Wall time of the measured call(s), seconds.
    pub wall_s: f64,
    /// Process CPU time (user + system, all threads) over the same span, seconds.
    pub cpu_s: f64,
    /// `cal` immediately before.
    pub cal_before: CalTime,
    /// `cal` immediately after.
    pub cal_after: CalTime,
}

impl Sample {
    /// The host factor `h`: how much slower than the sizing host's quiet
    /// spell this vCPU ran around the sample (1.0 = as fast).
    pub fn host_factor(&self) -> f64 {
        (self.cal_before.total_s + self.cal_after.total_s) / 2.0 / CAL_REF_S
    }

    /// `(wall, cpu)` in reference-host seconds: divided by `h^alpha`.
    pub fn normalised(&self, alpha: f64) -> (f64, f64) {
        let scale = self.host_factor().powf(alpha);
        (self.wall_s / scale, self.cpu_s / scale)
    }
}

/// Runs `f` between two calibrations and two clock reads.
pub fn timed<H: HostClock + ?Sized, T>(host: &mut H, f: impl FnOnce() -> T) -> (T, Sample) {
    let cal_before = host.cal();
    let (wall0, cpu0) = (host.wall_s(), host.cpu_s());
    let out = f();
    let (wall1, cpu1) = (host.wall_s(), host.cpu_s());
    let cal_after = host.cal();
    let sample = Sample {
        wall_s: wall1 - wall0,
        cpu_s: cpu1 - cpu0,
        cal_before,
        cal_after,
    };
    (out, sample)
}

/// The three time-derived end-to-end metrics of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeMetrics {
    /// Median normalised set-up time, reference-host seconds.
    pub setup_s: f64,
    /// Agent-steps per block ÷ median normalised block wall time.
    pub agent_steps_per_s: f64,
    /// Median normalised block CPU time ÷ agent-steps per block, µs.
    pub cpu_us_per_step: f64,
}

/// Folds set-up and block samples into the time metrics, each sample first
/// divided by `h` to its phase's exponent.
///
/// # Panics
///
/// Panics if either sample set is empty or `steps_per_block` is zero.
pub fn time_metrics(
    setups: &[Sample],
    setup_alpha: f64,
    blocks: &[Sample],
    block_alpha: f64,
    steps_per_block: usize,
) -> TimeMetrics {
    assert!(steps_per_block > 0, "a block holds at least one agent-step");
    let steps = steps_per_block as f64;
    let norm = |s: &[Sample], alpha: f64| -> (Vec<f64>, Vec<f64>) {
        s.iter().map(|s| s.normalised(alpha)).unzip()
    };
    let (setup_wall, _) = norm(setups, setup_alpha);
    let (block_wall, block_cpu) = norm(blocks, block_alpha);
    TimeMetrics {
        setup_s: median(&setup_wall),
        agent_steps_per_s: steps / median(&block_wall),
        cpu_us_per_step: median(&block_cpu) / steps * 1e6,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cal(total_s: f64) -> CalTime {
        CalTime {
            total_s,
            parts_s: [total_s / 3.0; 3],
        }
    }

    /// Measures fixed work on a fake host whose every clock — wall, CPU and
    /// the calibration kernel — runs `slowdown` times slower than the
    /// reference.
    fn run_on(slowdown: f64) -> TimeMetrics {
        // `timed` borrows the host for its clocks, so the work inside `f`
        // advances a shared cell.
        use std::cell::Cell;
        struct Shared<'a>(&'a Cell<f64>, f64, f64);
        impl HostClock for Shared<'_> {
            fn wall_s(&mut self) -> f64 {
                self.0.get()
            }
            fn cpu_s(&mut self) -> f64 {
                self.0.get()
            }
            fn cal(&mut self) -> CalTime {
                self.0.set(self.0.get() + self.2 * self.1);
                cal(self.2 * self.1)
            }
        }
        let now = Cell::new(0.0);
        let mut host = Shared(&now, slowdown, CAL_REF_S);
        let work = |units: f64| now.set(now.get() + units * slowdown);
        let setups: Vec<Sample> = [2.0, 2.1, 1.9]
            .iter()
            .map(|&u| timed(&mut host, || work(u)).1)
            .collect();
        let blocks: Vec<Sample> = [1.0, 1.02, 0.98, 1.01, 1.5, 0.99, 1.0, 1.0]
            .iter()
            .map(|&u| timed(&mut host, || work(u)).1)
            .collect();
        time_metrics(&setups, 1.0, &blocks, 1.0, 1000)
    }

    #[test]
    fn unit_host_factor_leaves_times_untouched() {
        let s = Sample {
            wall_s: 1.25,
            cpu_s: 1.0,
            cal_before: cal(CAL_REF_S),
            cal_after: cal(CAL_REF_S),
        };
        assert_eq!(s.host_factor(), 1.0);
        assert_eq!(s.normalised(1.0), (1.25, 1.0));
        assert_eq!(s.normalised(0.5), (1.25, 1.0));
    }

    #[test]
    fn host_factor_is_the_mean_of_the_adjacent_calibrations() {
        let s = Sample {
            wall_s: 3.0,
            cpu_s: 1.5,
            cal_before: cal(CAL_REF_S),
            cal_after: cal(2.0 * CAL_REF_S),
        };
        assert!((s.host_factor() - 1.5).abs() < 1e-12);
        let (wall, cpu) = s.normalised(1.0);
        assert!((wall - 2.0).abs() < 1e-12 && (cpu - 1.0).abs() < 1e-12);
        let (wall_half, _) = s.normalised(0.5);
        assert!((wall_half - 3.0 / 1.5f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn a_uniformly_slower_clock_yields_identical_metrics() {
        let quiet = run_on(1.0);
        let slow = run_on(1.5);
        for (a, b) in [
            (quiet.setup_s, slow.setup_s),
            (quiet.agent_steps_per_s, slow.agent_steps_per_s),
            (quiet.cpu_us_per_step, slow.cpu_us_per_step),
        ] {
            assert!((a - b).abs() / a < 1e-9, "{a} vs {b}");
        }
        // And on the quiet host the metrics are the raw medians.
        assert!((quiet.setup_s - 2.0).abs() < 1e-9);
        assert!((quiet.agent_steps_per_s - 1000.0).abs() < 1e-6);
        assert!((quiet.cpu_us_per_step - 1000.0).abs() < 1e-6);
    }
}
