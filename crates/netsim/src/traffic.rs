//! Traffic generation.
//!
//! The prototype experiments use Poisson task arrivals with mean rate 10
//! per interval (Sec. VII-C); the simulations are driven by the Telecom
//! Italia "Big Data Challenge" trace over the Province of Trento — 24-hour
//! calling-activity profiles per geographic area (Sec. VII-D). The real
//! trace is proprietary, so [`DiurnalTrace`] synthesizes per-area 24-hour
//! profiles with the published shape (overnight trough, business-hours
//! plateau, evening peak) and per-area amplitude/phase diversity;
//! [`CsvTrace`] loads a real trace if one is available.

use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A source of per-interval task arrivals for one slice in one RA.
pub trait TrafficSource {
    /// Mean arrivals for `interval` (used by baselines that look ahead).
    fn mean_rate(&self, interval: usize) -> f64;

    /// Samples the arrivals for `interval`.
    fn arrivals(&self, interval: usize, rng: &mut StdRng) -> f64;
}

/// Samples a Poisson random variate with the given mean (Knuth for small
/// means, normal approximation above 30 for speed).
pub fn sample_poisson(mean: f64, rng: &mut StdRng) -> u64 {
    if mean <= 0.0 {
        return 0;
    }
    if mean > 30.0 {
        // Normal approximation with continuity correction.
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let n = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        return (mean + mean.sqrt() * n + 0.5).max(0.0) as u64;
    }
    let l = (-mean).exp();
    let mut k = 0u64;
    let mut p = 1.0;
    loop {
        p *= rng.gen_range(0.0..1.0);
        if p <= l {
            return k;
        }
        k += 1;
    }
}

/// Stationary Poisson arrivals (the prototype experiments' traffic).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PoissonTraffic {
    rate: f64,
}

impl PoissonTraffic {
    /// Creates a source with the given mean arrivals per interval.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is negative or non-finite.
    pub fn new(rate: f64) -> Self {
        assert!(
            rate.is_finite() && rate >= 0.0,
            "invalid Poisson rate {rate}"
        );
        Self { rate }
    }

    /// The paper's experimental rate: 10 tasks per interval (Sec. VII-C).
    pub fn paper() -> Self {
        Self::new(10.0)
    }
}

impl TrafficSource for PoissonTraffic {
    fn mean_rate(&self, _interval: usize) -> f64 {
        self.rate
    }

    fn arrivals(&self, _interval: usize, rng: &mut StdRng) -> f64 {
        sample_poisson(self.rate, rng) as f64
    }
}

/// A synthetic 24-hour calling-activity profile for one geographic area,
/// standing in for the Telecom Italia Trento trace.
///
/// The profile follows the trace's published shape: a deep overnight trough
/// (02:00–05:00), a steep morning ramp, a daytime plateau and an evening
/// peak, scaled and phase-shifted per area. Hours wrap, so an experiment may
/// run any number of 24-interval periods.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiurnalTrace {
    /// Mean arrivals for each of the 24 hours.
    hourly: Vec<f64>,
    /// Multiplicative sampling jitter (0 = deterministic).
    jitter: f64,
}

impl DiurnalTrace {
    /// Synthesizes an area profile. `peak_rate` scales the evening peak;
    /// `phase_hours` shifts the profile (areas differ in activity timing);
    /// `jitter` adds relative sampling noise.
    ///
    /// # Panics
    ///
    /// Panics if `peak_rate` is not positive.
    pub(crate) fn synthesize(peak_rate: f64, phase_hours: f64, jitter: f64) -> Self {
        assert!(peak_rate > 0.0, "peak rate must be positive");
        let hourly = (0..24)
            .map(|h| {
                let t = (h as f64 - phase_hours).rem_euclid(24.0);
                peak_rate * Self::shape(t)
            })
            .collect();
        Self {
            hourly,
            jitter: jitter.max(0.0),
        }
    }

    /// Synthesizes a randomized area profile, the per-area diversity used in
    /// the scalability simulations.
    pub fn random_area(base_rate: f64, rng: &mut StdRng) -> Self {
        let peak = base_rate * rng.gen_range(0.7..1.3);
        let phase = rng.gen_range(-2.0..2.0);
        Self::synthesize(peak, phase, 0.15)
    }

    /// Normalized 24-hour shape in `[~0.12, 1.0]`: trough at 03:00–05:00,
    /// morning ramp, daytime plateau, evening peak around 20:00.
    fn shape(t: f64) -> f64 {
        // Sum of two Gaussian bumps (midday plateau, evening peak) over a
        // small overnight floor.
        let bump = |center: f64, width: f64| {
            let mut d = (t - center).abs();
            d = d.min(24.0 - d); // circular distance
            (-d * d / (2.0 * width * width)).exp()
        };
        let floor = 0.12;
        let midday = 0.55 * bump(13.0, 3.5);
        let evening = 0.75 * bump(20.0, 2.0);
        (floor + midday + evening).min(1.0)
    }
}

impl TrafficSource for DiurnalTrace {
    fn mean_rate(&self, interval: usize) -> f64 {
        self.hourly[interval % 24]
    }

    fn arrivals(&self, interval: usize, rng: &mut StdRng) -> f64 {
        let mean = self.mean_rate(interval);
        // Exact: 0.0 is the "jitter disabled" sentinel, assigned literally from config.
        if self.jitter == 0.0 {
            return mean;
        }
        let noise = 1.0 + self.jitter * (rng.gen_range(0.0..1.0) - 0.5) * 2.0;
        (mean * noise).max(0.0)
    }
}

/// Poisson arrivals whose rate is re-drawn per block of intervals — used to
/// evaluate orchestration policies "under randomly generated slice traffic
/// loads" (paper Fig. 8a): each episode (block) sees a different load, yet
/// the source stays deterministic given its seed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BlockRandomPoisson {
    lo: f64,
    hi: f64,
    block: usize,
    seed: u64,
}

impl BlockRandomPoisson {
    /// Creates a source whose per-block rate is uniform over `[lo, hi]`,
    /// constant within each `block` consecutive intervals.
    ///
    /// # Panics
    ///
    /// Panics if the range is invalid or `block == 0`.
    pub fn new(lo: f64, hi: f64, block: usize, seed: u64) -> Self {
        assert!(lo >= 0.0 && hi >= lo, "invalid rate range [{lo}, {hi}]");
        assert!(block > 0, "block must be positive");
        Self {
            lo,
            hi,
            block,
            seed,
        }
    }

    /// The rate in effect for `interval`.
    pub(crate) fn rate_at(&self, interval: usize) -> f64 {
        let b = (interval / self.block) as u64;
        // SplitMix64 over (seed, block) → uniform in [0, 1).
        let mut x = self.seed ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        let u = (x >> 11) as f64 / (1u64 << 53) as f64;
        self.lo + (self.hi - self.lo) * u
    }
}

impl TrafficSource for BlockRandomPoisson {
    fn mean_rate(&self, interval: usize) -> f64 {
        self.rate_at(interval)
    }

    fn arrivals(&self, interval: usize, rng: &mut StdRng) -> f64 {
        sample_poisson(self.rate_at(interval), rng) as f64
    }
}

/// A trace loaded from CSV rows of `interval,arrivals` (e.g. an aggregated
/// export of the real Telecom Italia dataset).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CsvTrace {
    values: Vec<f64>,
}

impl CsvTrace {
    /// Parses `interval,arrivals` lines. Lines starting with `#` and blank
    /// lines are skipped; rows may appear in any order.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut rows: Vec<(usize, f64)> = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split(',');
            let idx: usize = parts
                .next()
                .and_then(|s| s.trim().parse().ok())
                .ok_or_else(|| format!("line {}: bad interval", lineno + 1))?;
            let val: f64 = parts
                .next()
                .and_then(|s| s.trim().parse().ok())
                .ok_or_else(|| format!("line {}: bad arrival count", lineno + 1))?;
            if !val.is_finite() || val < 0.0 {
                return Err(format!(
                    "line {}: negative or non-finite arrivals",
                    lineno + 1
                ));
            }
            rows.push((idx, val));
        }
        if rows.is_empty() {
            return Err("trace contains no data rows".to_string());
        }
        rows.sort_by_key(|&(i, _)| i);
        Ok(Self {
            values: rows.into_iter().map(|(_, v)| v).collect(),
        })
    }

    /// Loads a trace from a CSV file (see [`CsvTrace::parse`] for the
    /// format).
    ///
    /// # Errors
    ///
    /// Returns a description of the I/O or parse failure.
    pub fn from_file(path: impl AsRef<std::path::Path>) -> Result<Self, String> {
        let text = std::fs::read_to_string(path.as_ref())
            .map_err(|e| format!("reading {}: {e}", path.as_ref().display()))?;
        Self::parse(&text)
    }

    /// Number of intervals in the trace.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if the trace is empty (never the case for a parsed trace).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

impl TrafficSource for CsvTrace {
    fn mean_rate(&self, interval: usize) -> f64 {
        self.values[interval % self.values.len()]
    }

    fn arrivals(&self, interval: usize, _rng: &mut StdRng) -> f64 {
        self.mean_rate(interval)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_mean_is_respected() {
        let mut rng = crate::test_rng(0);
        for &mean in &[0.5, 3.0, 10.0, 50.0] {
            let n = 20_000;
            let total: f64 = (0..n).map(|_| sample_poisson(mean, &mut rng) as f64).sum();
            let emp = total / n as f64;
            assert!(
                (emp - mean).abs() < mean.max(1.0) * 0.05,
                "mean {mean}: got {emp}"
            );
        }
    }

    #[test]
    fn poisson_zero_rate_is_silent() {
        let mut rng = crate::test_rng(1);
        assert_eq!(sample_poisson(0.0, &mut rng), 0);
        let t = PoissonTraffic::new(0.0);
        assert_eq!(t.arrivals(0, &mut rng), 0.0);
    }

    #[test]
    fn diurnal_shape_has_trough_and_evening_peak() {
        let t = DiurnalTrace::synthesize(10.0, 0.0, 0.0);
        let means = &t.hourly;
        let night = means[3];
        let midday = means[13];
        let evening = means[20];
        assert!(
            night < midday && midday < evening,
            "night {night} midday {midday} evening {evening}"
        );
        let max = means.iter().cloned().fold(f64::MIN, f64::max);
        assert!(
            (max - evening).abs() < 1e-9,
            "evening should be the daily peak"
        );
    }

    #[test]
    fn diurnal_phase_shifts_the_peak() {
        let base = DiurnalTrace::synthesize(10.0, 0.0, 0.0);
        let shifted = DiurnalTrace::synthesize(10.0, 3.0, 0.0);
        let argmax = |t: &DiurnalTrace| {
            t.hourly
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap()
                .0
        };
        assert_eq!((argmax(&base) + 3) % 24, argmax(&shifted));
    }

    #[test]
    fn diurnal_wraps_across_periods() {
        let mut rng = crate::test_rng(2);
        let t = DiurnalTrace::synthesize(10.0, 0.0, 0.0);
        assert_eq!(t.arrivals(5, &mut rng), t.arrivals(29, &mut rng));
    }

    #[test]
    fn random_areas_differ() {
        let mut rng = crate::test_rng(3);
        let a = DiurnalTrace::random_area(10.0, &mut rng);
        let b = DiurnalTrace::random_area(10.0, &mut rng);
        assert_ne!(a.hourly, b.hourly);
    }

    #[test]
    fn block_random_poisson_is_constant_within_block() {
        let t = BlockRandomPoisson::new(5.0, 20.0, 10, 42);
        assert_eq!(t.rate_at(0), t.rate_at(9));
        assert_ne!(t.rate_at(0), t.rate_at(10));
        for i in 0..100 {
            let r = t.rate_at(i);
            assert!((5.0..=20.0).contains(&r));
        }
    }

    #[test]
    fn block_random_poisson_is_seed_deterministic() {
        let a = BlockRandomPoisson::new(0.0, 10.0, 5, 7);
        let b = BlockRandomPoisson::new(0.0, 10.0, 5, 7);
        let c = BlockRandomPoisson::new(0.0, 10.0, 5, 8);
        assert_eq!(a.rate_at(12), b.rate_at(12));
        assert_ne!(a.rate_at(12), c.rate_at(12));
    }

    #[test]
    fn csv_trace_parses_and_wraps() {
        let t = CsvTrace::parse("# hour,calls\n0, 5.0\n2,7\n1, 6.5\n").unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(t.mean_rate(1), 6.5);
        assert_eq!(t.mean_rate(4), 6.5); // wraps
    }

    #[test]
    fn csv_trace_loads_from_file() {
        let path = std::env::temp_dir().join("edgeslice_trace_test.csv");
        std::fs::write(
            &path,
            "0,3.5
1,4.5
",
        )
        .unwrap();
        let t = CsvTrace::from_file(&path).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.mean_rate(1), 4.5);
        std::fs::remove_file(&path).ok();
        assert!(CsvTrace::from_file("/definitely/not/a/file.csv").is_err());
    }

    #[test]
    fn csv_trace_rejects_garbage() {
        assert!(CsvTrace::parse("abc,def").is_err());
        assert!(CsvTrace::parse("0,-3").is_err());
        assert!(CsvTrace::parse("# only comments\n").is_err());
    }
}
