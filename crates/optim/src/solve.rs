//! Dense direct solvers for small symmetric systems.

use crate::OptimError;

/// Solves `A x = b` for a symmetric positive-definite `A` (row-major,
/// `n × n`) via Cholesky factorization, without touching the heap: the
/// factor `L` overwrites `a`'s lower triangle (the strict upper triangle is
/// never read or written) and the solution overwrites `b`. Every element is
/// computed by the same operations in the same order as an out-of-place
/// solve — each `L` entry is read only after it is final, and both
/// triangular solves consume `b` in the direction they produce it — so the
/// two agree bit for bit.
///
/// # Errors
///
/// Returns [`OptimError::NotPositiveDefinite`] if a non-positive pivot is
/// encountered (both buffers are then left partially overwritten), and
/// [`OptimError::DimensionMismatch`] if shapes disagree.
pub(crate) fn solve_spd_in_place(a: &mut [f64], b: &mut [f64]) -> Result<(), OptimError> {
    let n = b.len();
    if a.len() != n * n {
        return Err(OptimError::DimensionMismatch {
            expected: n * n,
            found: a.len(),
        });
    }
    // Cholesky: A = L Lᵀ with L lower-triangular.
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a[i * n + j];
            for k in 0..j {
                sum -= a[i * n + k] * a[j * n + k];
            }
            if i == j {
                if sum <= 0.0 {
                    return Err(OptimError::NotPositiveDefinite {
                        pivot: i,
                        value: sum,
                    });
                }
                a[i * n + j] = sum.sqrt();
            } else {
                a[i * n + j] = sum / a[j * n + j];
            }
        }
    }
    // Forward solve L y = b.
    for i in 0..n {
        let mut sum = b[i];
        for k in 0..i {
            sum -= a[i * n + k] * b[k];
        }
        b[i] = sum / a[i * n + i];
    }
    // Backward solve Lᵀ x = y.
    for i in (0..n).rev() {
        let mut sum = b[i];
        for k in i + 1..n {
            sum -= a[k * n + i] * b[k];
        }
        b[i] = sum / a[i * n + i];
    }
    Ok(())
}

/// [`solve_spd_in_place`] on copies of `a` and `b`, returning `x`.
#[cfg(test)]
pub(crate) fn solve_spd(a: &[f64], b: &[f64]) -> Result<Vec<f64>, OptimError> {
    let mut l = a.to_vec();
    let mut x = b.to_vec();
    solve_spd_in_place(&mut l, &mut x)?;
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The out-of-place Cholesky solve as it stood before
    /// [`solve_spd_in_place`] (separate `l`, `y`, `x` vectors), kept
    /// verbatim as the differential oracle.
    fn solve_spd_reference(a: &[f64], b: &[f64]) -> Result<Vec<f64>, OptimError> {
        let n = b.len();
        let mut l = vec![0.0f64; n * n];
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a[i * n + j];
                for k in 0..j {
                    sum -= l[i * n + k] * l[j * n + k];
                }
                if i == j {
                    if sum <= 0.0 {
                        return Err(OptimError::NotPositiveDefinite {
                            pivot: i,
                            value: sum,
                        });
                    }
                    l[i * n + j] = sum.sqrt();
                } else {
                    l[i * n + j] = sum / l[j * n + j];
                }
            }
        }
        let mut y = vec![0.0f64; n];
        for i in 0..n {
            let mut sum = b[i];
            for k in 0..i {
                sum -= l[i * n + k] * y[k];
            }
            y[i] = sum / l[i * n + i];
        }
        let mut x = vec![0.0f64; n];
        for i in (0..n).rev() {
            let mut sum = y[i];
            for k in i + 1..n {
                sum -= l[k * n + i] * x[k];
            }
            x[i] = sum / l[i * n + i];
        }
        Ok(x)
    }

    proptest! {
        /// In-place and out-of-place solves agree bit for bit — on the
        /// solution for SPD systems (`MᵀM + I/8`), and on the failing pivot
        /// and its value for symmetric indefinite ones (`M + Mᵀ`).
        #[test]
        fn in_place_solve_is_bit_identical_to_the_reference(
            n in 1usize..7,
            m in collection::vec(-2.0f64..2.0, 36usize),
            b in collection::vec(-5.0f64..5.0, 6usize),
            spd in 0u32..4,
        ) {
            let mut a = vec![0.0; n * n];
            for i in 0..n {
                for j in 0..n {
                    a[i * n + j] = if spd > 0 {
                        (0..n).map(|t| m[t * n + i] * m[t * n + j]).sum::<f64>()
                            + if i == j { 0.125 } else { 0.0 }
                    } else {
                        m[i * n + j] + m[j * n + i]
                    };
                }
            }
            let b = &b[..n];
            match (solve_spd(&a, b), solve_spd_reference(&a, b)) {
                (Ok(x), Ok(want)) => {
                    for (u, v) in x.iter().zip(&want) {
                        prop_assert_eq!(u.to_bits(), v.to_bits());
                    }
                }
                (
                    Err(OptimError::NotPositiveDefinite { pivot, value }),
                    Err(OptimError::NotPositiveDefinite { pivot: p, value: v }),
                ) => {
                    prop_assert_eq!(pivot, p);
                    prop_assert_eq!(value.to_bits(), v.to_bits());
                }
                (got, want) => panic!("solvers disagree: {got:?} vs {want:?}"),
            }
        }
    }

    #[test]
    fn spd_solve_matches_known_solution() {
        // A = [[4,1],[1,3]], b = [1,2] → x = [1/11, 7/11]
        let a = [4.0, 1.0, 1.0, 3.0];
        let b = [1.0, 2.0];
        let x = solve_spd(&a, &b).unwrap();
        assert!((x[0] - 1.0 / 11.0).abs() < 1e-12);
        assert!((x[1] - 7.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn spd_rejects_indefinite() {
        let a = [1.0, 2.0, 2.0, 1.0]; // eigenvalues 3, -1
        assert!(matches!(
            solve_spd(&a, &[1.0, 1.0]),
            Err(OptimError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        assert!(matches!(
            solve_spd(&[1.0, 2.0, 3.0], &[1.0, 2.0]),
            Err(OptimError::DimensionMismatch { .. })
        ));
    }
}
