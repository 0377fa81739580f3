//! ADMM bookkeeping for the coordinator/agent decomposition.
//!
//! The paper decomposes `P1` by ADMM (Sec. IV-A): agents maximize the
//! augmented Lagrangian over `x` (Eq. 8), the coordinator updates the
//! auxiliary variables `z` (Eq. 9) and the scaled duals
//! `y ← y + (Σ_t U − z)` (Eq. 10). This module provides the residual
//! tracking and convergence test used by the orchestration loop (Alg. 1
//! line 12), plus the augmented-Lagrangian penalty term shared by the reward
//! function.

use serde::{Deserialize, Serialize};

/// Convergence thresholds for the ADMM iteration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdmmConfig {
    /// The augmented-Lagrangian penalty weight ρ (paper: `ρ = 1.0`).
    pub rho: f64,
    /// Primal-residual tolerance `‖Σ_t U − z‖`.
    pub primal_tol: f64,
    /// Dual-residual tolerance `ρ ‖z_k − z_{k-1}‖`.
    pub dual_tol: f64,
    /// Hard cap on coordination rounds.
    pub max_rounds: usize,
}

impl Default for AdmmConfig {
    fn default() -> Self {
        Self {
            rho: 1.0,
            primal_tol: 1e-3,
            dual_tol: 1e-3,
            max_rounds: 200,
        }
    }
}

/// Residuals of one ADMM round.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdmmResiduals {
    /// `‖u − z‖₂` where `u = Σ_t U` is the achieved per-(slice, RA)
    /// performance and `z` the coordinator's auxiliary variables.
    pub primal: f64,
    /// `ρ ‖z − z_prev‖₂`.
    pub dual: f64,
}

impl AdmmResiduals {
    /// Computes both residuals for a round.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn compute(achieved: &[f64], z: &[f64], z_prev: &[f64], rho: f64) -> Self {
        assert_eq!(achieved.len(), z.len(), "residual length mismatch");
        assert_eq!(z.len(), z_prev.len(), "residual length mismatch");
        let primal = achieved
            .iter()
            .zip(z)
            .map(|(u, zi)| (u - zi).powi(2))
            .sum::<f64>()
            .sqrt();
        let dual = rho
            * z.iter()
                .zip(z_prev)
                .map(|(a, b)| (a - b).powi(2))
                .sum::<f64>()
                .sqrt();
        Self { primal, dual }
    }

    /// True when both residuals are under their tolerances.
    pub fn converged(&self, config: &AdmmConfig) -> bool {
        self.primal <= config.primal_tol && self.dual <= config.dual_tol
    }
}

/// Scaled dual update (Eq. 10): `y ← y + (u − z)` element-wise.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn dual_update(y: &mut [f64], achieved: &[f64], z: &[f64]) {
    assert_eq!(y.len(), achieved.len(), "dual update length mismatch");
    assert_eq!(y.len(), z.len(), "dual update length mismatch");
    for ((yi, &u), &zi) in y.iter_mut().zip(achieved).zip(z) {
        *yi += u - zi;
    }
}

/// Tracks the coordinator/agent interaction's convergence (Alg. 1, "if
/// convergence"): the rounds run so far and the last round's residuals —
/// all `should_stop` reads. Serializable, so a crash-consistent snapshot
/// carries it and a resumed run stops where the uninterrupted one would.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ConvergenceTracker {
    rounds: usize,
    last: Option<AdmmResiduals>,
}

impl ConvergenceTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a round's residuals.
    pub fn record(&mut self, residuals: AdmmResiduals) {
        self.rounds += 1;
        self.last = Some(residuals);
    }

    /// Number of recorded rounds.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// True once the most recent round satisfies the tolerances or the
    /// round cap has been reached.
    pub fn should_stop(&self, config: &AdmmConfig) -> bool {
        if self.rounds >= config.max_rounds {
            return true;
        }
        self.last.is_some_and(|r| r.converged(config))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn residuals_zero_at_fixed_point() {
        let u = [1.0, 2.0];
        let r = AdmmResiduals::compute(&u, &u, &u, 1.0);
        assert_eq!(r.primal, 0.0);
        assert_eq!(r.dual, 0.0);
        assert!(r.converged(&AdmmConfig::default()));
    }

    #[test]
    fn dual_update_accumulates_constraint_violation() {
        let mut y = vec![0.0, 0.0];
        dual_update(&mut y, &[3.0, 1.0], &[1.0, 1.0]);
        assert_eq!(y, vec![2.0, 0.0]);
        dual_update(&mut y, &[3.0, 1.0], &[1.0, 1.0]);
        assert_eq!(y, vec![4.0, 0.0]);
    }

    #[test]
    fn tracker_stops_on_convergence_or_cap() {
        let config = AdmmConfig {
            max_rounds: 3,
            ..Default::default()
        };
        let mut t = ConvergenceTracker::new();
        t.record(AdmmResiduals {
            primal: 1.0,
            dual: 1.0,
        });
        assert!(!t.should_stop(&config));
        t.record(AdmmResiduals {
            primal: 1e-9,
            dual: 1e-9,
        });
        assert!(t.should_stop(&config));

        let mut t2 = ConvergenceTracker::new();
        for _ in 0..3 {
            t2.record(AdmmResiduals {
                primal: 1.0,
                dual: 1.0,
            });
        }
        assert!(t2.should_stop(&config), "round cap must stop the loop");
        assert_eq!(t2.rounds(), 3);
    }

    #[test]
    fn admm_drives_consensus_on_a_toy_problem() {
        // Toy instance of the paper's decomposition with an "agent" that
        // produces u = argmax {-(ρ/2)(u - (z-y))² + u} = (z - y) + 1/ρ,
        // capped at 2.5 per RA (real slice performance is bounded too).
        let config = AdmmConfig {
            rho: 1.0,
            ..Default::default()
        };
        let umin = 4.0;
        let cap = 2.5;
        let mut z = vec![0.0, 0.0];
        let mut y = vec![0.0, 0.0];
        let mut tracker = ConvergenceTracker::new();
        for _ in 0..config.max_rounds {
            let u: Vec<f64> = z
                .iter()
                .zip(&y)
                .map(|(&zi, &yi)| ((zi - yi) + 1.0 / config.rho).min(cap))
                .collect();
            let c: Vec<f64> = u.iter().zip(&y).map(|(&ui, &yi)| ui + yi).collect();
            let z_prev = z.clone();
            z = crate::project_sum_halfspace(&c, umin);
            dual_update(&mut y, &u, &z);
            tracker.record(AdmmResiduals::compute(&u, &z, &z_prev, config.rho));
            if tracker.should_stop(&config) {
                break;
            }
        }
        let last_u: f64 = z.iter().sum();
        assert!(
            last_u >= umin - 1e-6,
            "consensus must satisfy the SLA, got {last_u}"
        );
        assert!(
            tracker.rounds() < config.max_rounds,
            "should converge before the cap"
        );
    }
}
