//! Exploration noise.

use rand::rngs::StdRng;
use rand_distr_shim::StandardNormal;
use serde::{Deserialize, Serialize};

/// Decaying Gaussian action noise.
///
/// The paper adds `N(0, 1)` noise to actions during training, decaying the
/// standard deviation by a factor of `0.9999` per update step (Sec. VI-A);
/// [`DecayingGaussian::paper`] is exactly that schedule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DecayingGaussian {
    sigma: f64,
    decay: f64,
    min_sigma: f64,
}

impl DecayingGaussian {
    /// Creates a noise process starting at `sigma`, multiplying by `decay`
    /// each step, floored at `min_sigma`.
    pub fn new(sigma: f64, decay: f64, min_sigma: f64) -> Self {
        Self {
            sigma,
            decay,
            min_sigma,
        }
    }

    /// The paper's schedule: start `σ = 1`, decay `0.9999` per update.
    pub fn paper() -> Self {
        Self::new(1.0, 0.9999, 0.01)
    }

    /// Current standard deviation.
    pub(crate) fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Perturbs `action` in place with `N(0, σ²)` noise and clamps each
    /// component to `[0, 1]`, then advances the decay schedule.
    pub fn perturb(&mut self, action: &mut [f64], rng: &mut StdRng) {
        for a in action.iter_mut() {
            let n: f64 = StandardNormal.sample(rng);
            *a = (*a + self.sigma * n).clamp(0.0, 1.0);
        }
        self.sigma = (self.sigma * self.decay).max(self.min_sigma);
    }
}

/// Samples a standard normal via Box–Muller; isolated so the rest of the
/// crate does not care that the `rand` crate in use ships no `Normal`
/// distribution by default.
pub(crate) mod rand_distr_shim {
    use rand::rngs::StdRng;
    use rand::Rng;

    /// Zero-mean unit-variance normal distribution.
    #[derive(Debug, Clone, Copy)]
    pub struct StandardNormal;

    impl StandardNormal {
        /// Draws one sample.
        pub fn sample(&self, rng: &mut StdRng) -> f64 {
            // Box–Muller transform; u1 is kept away from 0.
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
        }
    }
}

/// Draws one standard-normal sample.
pub(crate) fn sample_standard_normal(rng: &mut StdRng) -> f64 {
    rand_distr_shim::StandardNormal.sample(rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn sigma_decays_toward_floor() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut noise = DecayingGaussian::new(1.0, 0.5, 0.05);
        let mut a = vec![0.5];
        for _ in 0..20 {
            noise.perturb(&mut a, &mut rng);
        }
        assert!(
            (noise.sigma() - 0.05).abs() < 1e-12,
            "floor not reached: {}",
            noise.sigma()
        );
    }

    #[test]
    fn perturbed_actions_stay_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut noise = DecayingGaussian::paper();
        for _ in 0..200 {
            let mut a = vec![0.1, 0.9, 0.5];
            noise.perturb(&mut a, &mut rng);
            assert!(a.iter().all(|&x| (0.0..=1.0).contains(&x)), "{a:?}");
        }
    }

    #[test]
    fn standard_normal_moments_are_sane() {
        let mut rng = StdRng::seed_from_u64(2);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| sample_standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn paper_schedule_parameters() {
        let n = DecayingGaussian::paper();
        assert!((n.sigma() - 1.0).abs() < 1e-12);
    }
}
