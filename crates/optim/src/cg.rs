//! Conjugate gradient for implicit linear systems.
//!
//! TRPO (one of the paper's comparator training techniques, Fig. 10b) needs
//! to solve `F x = g` where `F` is the Fisher information matrix, available
//! only through Fisher-vector products. CG with a matvec closure is the
//! standard tool.

/// Solves `A x = b` by conjugate gradient, given only the matvec
/// `matvec(v) = A v`. `A` must be symmetric positive (semi-)definite.
/// The matvec may keep state between calls (TRPO's Fisher-vector product
/// reuses one training scratch), and is called once per iteration.
///
/// Returns the approximate solution after at most `max_iters` iterations or
/// once the residual norm falls under `tol`.
pub fn conjugate_gradient(
    mut matvec: impl FnMut(&[f64]) -> Vec<f64>,
    b: &[f64],
    max_iters: usize,
    tol: f64,
) -> Vec<f64> {
    let n = b.len();
    let mut x = vec![0.0; n];
    let mut r = b.to_vec();
    let mut p = r.clone();
    let mut rs_old: f64 = r.iter().map(|v| v * v).sum();
    if rs_old.sqrt() < tol {
        return x;
    }
    for _ in 0..max_iters {
        let ap = matvec(&p);
        let p_ap: f64 = p.iter().zip(&ap).map(|(a, b)| a * b).sum();
        if p_ap.abs() < 1e-18 {
            break; // direction annihilated; A is (numerically) singular here
        }
        let alpha = rs_old / p_ap;
        for i in 0..n {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
        }
        let rs_new: f64 = r.iter().map(|v| v * v).sum();
        if rs_new.sqrt() < tol {
            break;
        }
        let beta = rs_new / rs_old;
        for i in 0..n {
            p[i] = r[i] + beta * p[i];
        }
        rs_old = rs_new;
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_diagonal_system() {
        let d = [2.0, 4.0, 8.0];
        let x = conjugate_gradient(
            |v| v.iter().zip(&d).map(|(vi, di)| vi * di).collect(),
            &[2.0, 4.0, 8.0],
            10,
            1e-12,
        );
        for xi in x {
            assert!((xi - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    fn solves_dense_spd_system() {
        // A = [[4,1],[1,3]], b = [1,2] → x = [1/11, 7/11]
        let a = [4.0, 1.0, 1.0, 3.0];
        let matvec = |v: &[f64]| vec![a[0] * v[0] + a[1] * v[1], a[2] * v[0] + a[3] * v[1]];
        let x = conjugate_gradient(matvec, &[1.0, 2.0], 10, 1e-12);
        assert!((x[0] - 1.0 / 11.0).abs() < 1e-9);
        assert!((x[1] - 7.0 / 11.0).abs() < 1e-9);
    }

    #[test]
    fn matches_direct_solver() {
        let a = [5.0, 1.0, 0.5, 1.0, 4.0, 1.0, 0.5, 1.0, 3.0];
        let b = [1.0, -2.0, 0.5];
        let matvec = |v: &[f64]| {
            (0..3)
                .map(|i| (0..3).map(|j| a[i * 3 + j] * v[j]).sum())
                .collect::<Vec<f64>>()
        };
        let x_cg = conjugate_gradient(matvec, &b, 20, 1e-12);
        let x_direct = crate::solve_spd(&a, &b).unwrap();
        for (u, v) in x_cg.iter().zip(&x_direct) {
            assert!((u - v).abs() < 1e-9);
        }
    }

    #[test]
    fn zero_rhs_gives_zero_solution() {
        let x = conjugate_gradient(|v| v.to_vec(), &[0.0, 0.0], 5, 1e-12);
        assert_eq!(x, vec![0.0, 0.0]);
    }
}
