//! Quadratic programs for the performance coordinator.
//!
//! Problem `P2` in the paper (Eq. 11) is, for each slice `i`,
//!
//! ```text
//! min_z Σ_j ‖c_j − z_j‖²   s.t.  Σ_j z_j ≥ Umin
//! ```
//!
//! with `c_j = Σ_t U_{i,j}^{(t)} + y_{i,j}`. This is the Euclidean
//! projection of `c` onto a half-space, which has a closed form; the paper
//! solved it with CVXPY. The closed form ships; a projected-gradient
//! solver that cross-validates it lives in the tests.

/// Projects `c` onto the half-space `{ z : Σ z_j ≥ bound }`.
///
/// If the constraint is already satisfied the projection is `c` itself;
/// otherwise every coordinate is lifted by the same amount
/// `(bound − Σc)/n`, which is the unique minimizer of `‖c − z‖²`.
///
/// # Panics
///
/// Panics if `c` is empty.
pub fn project_sum_halfspace(c: &[f64], bound: f64) -> Vec<f64> {
    assert!(!c.is_empty(), "cannot project an empty vector");
    let sum: f64 = c.iter().sum();
    if sum >= bound {
        return c.to_vec();
    }
    let lift = (bound - sum) / c.len() as f64;
    c.iter().map(|&x| x + lift).collect()
}

/// Projects the strided column `x[offset], x[offset + stride], …` — one
/// resource's column of a flat slice-major action — onto the scaled
/// simplex `{ x ≥ 0, Σ x ≤ cap }`, in place.
///
/// Used when normalizing resource orchestration actions that overshoot an
/// RA's capacity. Negative entries are clipped to zero; if the column's
/// sum then exceeds `cap` it is rescaled proportionally (the
/// multiplicative projection used for resource shares, not the Euclidean
/// one, so zero allocations stay zero).
///
/// # Panics
///
/// Panics if `stride` is zero.
pub fn project_capacity_strided(x: &mut [f64], offset: usize, stride: usize, cap: f64) {
    for v in x.iter_mut().skip(offset).step_by(stride) {
        if *v < 0.0 {
            *v = 0.0;
        }
    }
    let sum: f64 = x.iter().skip(offset).step_by(stride).sum();
    if sum > cap && sum > 0.0 {
        let scale = cap / sum;
        for v in x.iter_mut().skip(offset).step_by(stride) {
            *v *= scale;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Configuration for the iterative projected-gradient QP solver.
    #[derive(Debug, Clone, Copy)]
    struct QpConfig {
        step: f64,
        max_iters: usize,
        tol: f64,
    }

    impl Default for QpConfig {
        fn default() -> Self {
            Self {
                step: 0.25,
                max_iters: 10_000,
                tol: 1e-10,
            }
        }
    }

    /// Result of a [`solve_projection_qp`] run.
    struct QpSolution {
        z: Vec<f64>,
        converged: bool,
    }

    /// Solves `min_z ‖c − z‖²  s.t. Σ z ≥ bound` by projected gradient
    /// descent: the iterative cross-check of [`project_sum_halfspace`].
    fn solve_projection_qp(c: &[f64], bound: f64, config: QpConfig) -> QpSolution {
        let mut z = project_sum_halfspace(c, bound);
        let mut converged = false;
        for _ in 0..config.max_iters {
            // ∇ = 2 (z − c); step then re-project onto the feasible set.
            let mut next: Vec<f64> = z
                .iter()
                .zip(c)
                .map(|(&zi, &ci)| zi - config.step * 2.0 * (zi - ci))
                .collect();
            next = project_sum_halfspace(&next, bound);
            let delta: f64 = next.iter().zip(&z).map(|(a, b)| (a - b).powi(2)).sum();
            z = next;
            if delta.sqrt() < config.tol {
                converged = true;
                break;
            }
        }
        QpSolution { z, converged }
    }

    /// The unstrided capacity projection: the reference the strided one
    /// is compared with, one gathered column at a time.
    fn project_capacity(x: &mut [f64], cap: f64) {
        project_capacity_strided(x, 0, 1, cap);
    }

    #[test]
    fn projection_identity_when_feasible() {
        let c = [3.0, 4.0, 5.0];
        assert_eq!(project_sum_halfspace(&c, 10.0), c.to_vec());
    }

    #[test]
    fn projection_lifts_uniformly_when_infeasible() {
        let c = [0.0, 0.0];
        let z = project_sum_halfspace(&c, 4.0);
        assert_eq!(z, vec![2.0, 2.0]);
    }

    #[test]
    fn projection_satisfies_constraint_tightly() {
        let c = [-10.0, 2.0, 1.0];
        let z = project_sum_halfspace(&c, 0.0);
        let sum: f64 = z.iter().sum();
        assert!(
            (sum - 0.0).abs() < 1e-12,
            "projection should be tight, got {sum}"
        );
    }

    #[test]
    fn projection_is_optimal_vs_perturbations() {
        // Any feasible perturbation must not be closer to c.
        let c = [1.0, -3.0, 0.5];
        let bound = 2.0;
        let z = project_sum_halfspace(&c, bound);
        let dist = |p: &[f64]| p.iter().zip(&c).map(|(a, b)| (a - b).powi(2)).sum::<f64>();
        let base = dist(&z);
        for k in 0..3 {
            for &eps in &[0.01, -0.01] {
                let mut p = z.clone();
                p[k] += eps;
                // Keep feasible by compensating elsewhere upward only.
                if p.iter().sum::<f64>() >= bound {
                    assert!(dist(&p) >= base - 1e-12);
                }
            }
        }
    }

    /// Agreement only, not an independent oracle: [`solve_projection_qp`]
    /// starts at `project_sum_halfspace(c, bound)` and re-projects every
    /// step through it, so an error in the projection can show up in both
    /// answers. The closed form is pinned by its KKT conditions instead
    /// (`halfspace_projection_is_feasible_and_idempotent` in
    /// `tests/substrate_properties.rs`).
    #[test]
    fn iterative_qp_matches_closed_form() {
        let c = [-5.0, 1.0, 2.0, -0.5];
        let bound = 3.0;
        let exact = project_sum_halfspace(&c, bound);
        let sol = solve_projection_qp(&c, bound, QpConfig::default());
        assert!(sol.converged);
        for (a, b) in sol.z.iter().zip(&exact) {
            assert!((a - b).abs() < 1e-6, "iterative {a} vs exact {b}");
        }
    }

    #[test]
    fn capacity_projection_preserves_ratios() {
        let mut x = vec![2.0, 6.0];
        project_capacity(&mut x, 4.0);
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn capacity_projection_clips_negatives() {
        let mut x = vec![-1.0, 0.5];
        project_capacity(&mut x, 10.0);
        assert_eq!(x, vec![0.0, 0.5]);
    }

    #[test]
    fn strided_projection_equals_gathered_columns_bit_for_bit() {
        // A slice-major 4 × 3 action with negatives, −0.0 and one
        // over-subscribed column; every other entry belongs to a
        // neighbouring column and must come back untouched.
        let flat = [
            0.7, -0.2, 0.1, 0.9, 0.3, -0.0, 0.4, 0.25, 0.0, 0.35, 0.45, 0.2,
        ];
        let mut strided = flat;
        for kind in 0..3 {
            project_capacity_strided(&mut strided, kind, 3, 1.0);
            let mut column: Vec<f64> = flat.iter().skip(kind).step_by(3).copied().collect();
            project_capacity(&mut column, 1.0);
            for (i, want) in column.iter().enumerate() {
                assert_eq!(strided[i * 3 + kind].to_bits(), want.to_bits());
            }
        }
    }
}
