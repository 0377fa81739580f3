//! Ordinary least squares.
//!
//! The simulated network environment (paper Sec. VI-B) fits a **local linear
//! regression** over the grid-search dataset's neighbouring orchestration
//! actions to predict service time for off-grid actions; this module is that
//! regression (the paper used scikit-learn).

use serde::{Deserialize, Serialize};

use crate::solve::solve_spd_in_place;
use crate::OptimError;

/// A fitted linear model `y = w · x + b`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinearModel {
    weights: Vec<f64>,
    intercept: f64,
}

/// `w · x + b`: the one evaluation order behind [`LinearModel::predict`]
/// and [`LinearModel::predict_coef`].
fn affine(weights: &[f64], intercept: f64, x: &[f64]) -> f64 {
    assert_eq!(x.len(), weights.len(), "prediction dimensionality mismatch");
    weights.iter().zip(x).map(|(w, v)| w * v).sum::<f64>() + intercept
}

impl LinearModel {
    /// Fits ordinary least squares with an intercept on rows `xs` and
    /// targets `ys`, adding ridge damping `lambda ≥ 0` on the weights (not
    /// the intercept) for numerical robustness when neighbours are
    /// collinear.
    ///
    /// # Errors
    ///
    /// Returns [`OptimError::DimensionMismatch`] when `xs`/`ys` lengths
    /// disagree or `xs` is empty, and propagates solver failures for
    /// degenerate designs.
    pub fn fit(xs: &[Vec<f64>], ys: &[f64], lambda: f64) -> Result<Self, OptimError> {
        let n = xs.first().map_or(0, Vec::len) + 1;
        let mut ata = vec![0.0f64; n * n];
        let mut weights = vec![0.0f64; n];
        Self::fit_into(xs, ys, lambda, &mut ata, &mut weights)?;
        let intercept = weights[n - 1];
        weights.truncate(n - 1);
        Ok(Self { weights, intercept })
    }

    /// The fit behind [`LinearModel::fit`], on caller-owned storage and
    /// over any row type (`Vec<f64>` rows, or the `[f64; 3]` corners of a
    /// grid cell): builds the normal equations of the augmented design
    /// `[x, 1]` in `ata` (`(d + 1)²`, scratch) and `coef` (`d + 1`), then
    /// solves them in place. On success `coef` holds `[w.., b]`, ready for
    /// [`LinearModel::predict_coef`]. Never touches the heap.
    ///
    /// # Errors
    ///
    /// As [`LinearModel::fit`]; also [`OptimError::DimensionMismatch`] when
    /// `coef` or `ata` is not sized for the rows' dimensionality.
    pub fn fit_into<R: AsRef<[f64]>>(
        xs: &[R],
        ys: &[f64],
        lambda: f64,
        ata: &mut [f64],
        coef: &mut [f64],
    ) -> Result<(), OptimError> {
        let Some(first) = xs.first().filter(|_| xs.len() == ys.len()) else {
            return Err(OptimError::DimensionMismatch {
                expected: ys.len(),
                found: xs.len(),
            });
        };
        let d = first.as_ref().len();
        let n = d + 1; // + intercept column
        for (expected, found) in [(n, coef.len()), (n * n, ata.len())] {
            if found != expected {
                return Err(OptimError::DimensionMismatch { expected, found });
            }
        }
        // Normal equations: (XᵀX + λI') w = Xᵀy with augmented X = [x, 1].
        ata.fill(0.0);
        coef.fill(0.0);
        for (x, &y) in xs.iter().zip(ys) {
            let x = x.as_ref();
            if x.len() != d {
                return Err(OptimError::DimensionMismatch {
                    expected: d,
                    found: x.len(),
                });
            }
            for i in 0..n {
                let xi = if i < d { x[i] } else { 1.0 };
                coef[i] += xi * y;
                for j in 0..n {
                    let xj = if j < d { x[j] } else { 1.0 };
                    ata[i * n + j] += xi * xj;
                }
            }
        }
        for i in 0..d {
            // Ridge on weights only; a tiny floor keeps the system SPD.
            ata[i * n + i] += lambda.max(1e-9);
        }
        ata[d * n + d] += 1e-9;
        solve_spd_in_place(ata, coef)
    }

    /// Evaluates `w · x + b` for coefficients laid out `[w.., b]`, as
    /// [`LinearModel::fit_into`] leaves them — the same arithmetic, in the
    /// same order, as [`LinearModel::predict`] on the fitted model.
    ///
    /// # Panics
    ///
    /// Panics if `coef` is empty or `x.len() + 1 != coef.len()`.
    pub fn predict_coef(coef: &[f64], x: &[f64]) -> f64 {
        let (intercept, weights) = coef
            .split_last()
            .expect("coefficients hold at least the intercept");
        affine(weights, *intercept, x)
    }

    /// The fitted weight vector.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Predicts `w · x + b`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the training dimensionality.
    pub fn predict(&self, x: &[f64]) -> f64 {
        affine(&self.weights, self.intercept, x)
    }

    /// Mean squared error over a dataset.
    pub fn mse(&self, xs: &[Vec<f64>], ys: &[f64]) -> f64 {
        if xs.is_empty() {
            return 0.0;
        }
        xs.iter()
            .zip(ys)
            .map(|(x, &y)| (self.predict(x) - y).powi(2))
            .sum::<f64>()
            / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `LinearModel::fit` as it stood before [`LinearModel::fit_into`]
    /// (its own `vec!` normal equations, the allocating solve), kept
    /// verbatim as the differential oracle.
    fn fit_reference(xs: &[Vec<f64>], ys: &[f64], lambda: f64) -> Result<LinearModel, OptimError> {
        if xs.is_empty() || xs.len() != ys.len() {
            return Err(OptimError::DimensionMismatch {
                expected: ys.len(),
                found: xs.len(),
            });
        }
        let d = xs[0].len();
        let n = d + 1;
        let mut ata = vec![0.0f64; n * n];
        let mut atb = vec![0.0f64; n];
        for (x, &y) in xs.iter().zip(ys) {
            if x.len() != d {
                return Err(OptimError::DimensionMismatch {
                    expected: d,
                    found: x.len(),
                });
            }
            for i in 0..n {
                let xi = if i < d { x[i] } else { 1.0 };
                atb[i] += xi * y;
                for j in 0..n {
                    let xj = if j < d { x[j] } else { 1.0 };
                    ata[i * n + j] += xi * xj;
                }
            }
        }
        for i in 0..d {
            ata[i * n + i] += lambda.max(1e-9);
        }
        ata[d * n + d] += 1e-9;
        let sol = crate::solve::solve_spd(&ata, &atb)?;
        Ok(LinearModel {
            weights: sol[..d].to_vec(),
            intercept: sol[d],
        })
    }

    proptest! {
        /// `fit` (now a wrapper over `fit_into`) reproduces the old fit's
        /// weights and intercept bit for bit; array rows fit like `Vec`
        /// rows; `predict_coef` on the raw coefficients is `predict` on the
        /// model. Duplicate rows exercise the ridge floor.
        #[test]
        fn fit_into_is_bit_identical_to_the_reference_fit(
            rows in collection::vec(collection::vec(-1.0f64..2.0, 3usize), 1..10),
            ys in collection::vec(-50.0f64..1.0e4, 10usize),
            lambda in 0.0f64..1e-3,
            at in collection::vec(-1.0f64..2.0, 3usize),
        ) {
            let mut rows = rows;
            if rows.len() > 3 {
                rows[1] = rows[0].clone();
            }
            let ys = &ys[..rows.len()];
            let want = fit_reference(&rows, ys, lambda).unwrap();
            let got = LinearModel::fit(&rows, ys, lambda).unwrap();
            let arrays: Vec<[f64; 3]> = rows.iter().map(|r| [r[0], r[1], r[2]]).collect();
            let (mut ata, mut coef) = ([0.0; 16], [0.0; 4]);
            LinearModel::fit_into(&arrays, ys, lambda, &mut ata, &mut coef).unwrap();
            for (i, w) in want.weights().iter().enumerate() {
                prop_assert_eq!(got.weights()[i].to_bits(), w.to_bits());
                prop_assert_eq!(coef[i].to_bits(), w.to_bits());
            }
            prop_assert_eq!(got.intercept.to_bits(), want.intercept.to_bits());
            prop_assert_eq!(coef[3].to_bits(), want.intercept.to_bits());
            prop_assert_eq!(
                LinearModel::predict_coef(&coef, &at).to_bits(),
                want.predict(&at).to_bits()
            );
        }
    }

    #[test]
    fn fit_into_rejects_missized_storage() {
        let rows = [[0.0, 1.0, 2.0]];
        let (mut ata, mut coef) = ([0.0; 16], [0.0; 3]);
        assert!(matches!(
            LinearModel::fit_into(&rows, &[1.0], 0.0, &mut ata, &mut coef),
            Err(OptimError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn recovers_exact_linear_relation() {
        let xs: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![i as f64, (i * i % 7) as f64])
            .collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x[0] - 2.0 * x[1] + 5.0).collect();
        let m = LinearModel::fit(&xs, &ys, 0.0).unwrap();
        assert!((m.weights()[0] - 3.0).abs() < 1e-6);
        assert!((m.weights()[1] + 2.0).abs() < 1e-6);
        assert!((m.intercept - 5.0).abs() < 1e-5);
        assert!(m.mse(&xs, &ys) < 1e-10);
    }

    #[test]
    fn ridge_handles_duplicate_rows() {
        // All identical rows: unregularized normal equations are singular.
        let xs = vec![vec![1.0, 2.0]; 5];
        let ys = vec![4.0; 5];
        let m = LinearModel::fit(&xs, &ys, 1e-3).unwrap();
        assert!((m.predict(&[1.0, 2.0]) - 4.0).abs() < 0.1);
    }

    #[test]
    fn empty_input_is_an_error() {
        assert!(LinearModel::fit(&[], &[], 0.0).is_err());
    }

    #[test]
    fn mismatched_lengths_is_an_error() {
        assert!(LinearModel::fit(&[vec![1.0]], &[1.0, 2.0], 0.0).is_err());
    }

    #[test]
    fn interpolates_between_grid_neighbours() {
        // Mimic the paper's use: predict service time between two adjacent
        // 10%-granularity grid actions.
        let xs = vec![
            vec![0.1, 0.3, 0.2],
            vec![0.1, 0.4, 0.2],
            vec![0.2, 0.3, 0.2],
        ];
        let ys = vec![10.0, 8.0, 9.0];
        let m = LinearModel::fit(&xs, &ys, 1e-6).unwrap();
        let mid = m.predict(&[0.12, 0.38, 0.2]);
        assert!(mid < 10.0 && mid > 7.5, "interpolation out of range: {mid}");
    }
}
