//! Activation functions.
//!
//! The paper's networks use **Leaky ReLU** hidden layers and a **sigmoid**
//! output layer (Sec. VI-A); the other variants are used by the comparator
//! training techniques (tanh-squashed Gaussian policies in SAC, softplus for
//! positive std heads).

use serde::{Deserialize, Serialize};

use crate::Matrix;

/// An element-wise activation function.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Activation {
    /// `f(x) = x`.
    Identity,
    /// `f(x) = max(0, x)`.
    Relu,
    /// `f(x) = x` for `x > 0`, `alpha * x` otherwise. The paper uses
    /// `alpha = 0.01` ("Leaky Rectifier").
    LeakyRelu(f64),
    /// Logistic sigmoid `f(x) = 1 / (1 + e^{-x})`.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// `f(x) = ln(1 + e^x)`, numerically stabilized.
    Softplus,
}

impl Activation {
    /// The paper's hidden-layer activation: Leaky ReLU with slope 0.01.
    pub const fn leaky_default() -> Self {
        Activation::LeakyRelu(0.01)
    }

    /// Applies the activation to a scalar. Leaky ReLU's slope is narrowed
    /// to `f32` first.
    #[inline]
    pub fn eval(self, x: f32) -> f32 {
        match self {
            Activation::Identity => x,
            Activation::Relu => x.max(0.0),
            Activation::LeakyRelu(a) => {
                if x > 0.0 {
                    x
                } else {
                    a as f32 * x
                }
            }
            Activation::Sigmoid => sigmoid(x),
            Activation::Tanh => x.tanh(),
            Activation::Softplus => softplus(x),
        }
    }

    /// Derivative of the activation expressed in terms of the
    /// **pre-activation** input `x`.
    #[inline]
    pub fn derivative(self, x: f32) -> f32 {
        match self {
            Activation::Identity => 1.0,
            Activation::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::LeakyRelu(a) => {
                if x > 0.0 {
                    1.0
                } else {
                    a as f32
                }
            }
            Activation::Sigmoid => {
                let s = sigmoid(x);
                s * (1.0 - s)
            }
            Activation::Tanh => {
                let t = x.tanh();
                1.0 - t * t
            }
            Activation::Softplus => sigmoid(x),
        }
    }

    /// Applies the activation element-wise, writing [`Activation::eval`] of
    /// each element of `z` into `out` (resized as needed); allocation-free.
    pub fn forward_into(self, z: &Matrix, out: &mut Matrix) {
        out.resize_for(z.rows(), z.cols());
        self.eval_into(z.as_slice().iter().copied(), out.as_mut_slice());
    }

    /// Writes [`Activation::eval`] of each value `z` yields into `out`, in
    /// order. The variant is matched once per call, not per element: each
    /// arm runs its own monomorphised loop over `eval` of a constant
    /// variant, so the loop body is branch-free wherever the activation is
    /// (Leaky ReLU's select, say) and every element's value is unchanged.
    pub(crate) fn eval_into(self, z: impl Iterator<Item = f32>, out: &mut [f32]) {
        fn run(out: &mut [f32], z: impl Iterator<Item = f32>, f: impl Fn(f32) -> f32) {
            for (o, x) in out.iter_mut().zip(z) {
                *o = f(x);
            }
        }
        match self {
            Activation::Identity => run(out, z, |x| Activation::Identity.eval(x)),
            Activation::Relu => run(out, z, |x| Activation::Relu.eval(x)),
            Activation::LeakyRelu(a) => run(out, z, |x| Activation::LeakyRelu(a).eval(x)),
            Activation::Sigmoid => run(out, z, |x| Activation::Sigmoid.eval(x)),
            Activation::Tanh => run(out, z, |x| Activation::Tanh.eval(x)),
            Activation::Softplus => run(out, z, |x| Activation::Softplus.eval(x)),
        }
    }

    /// Writes `d_out ⊙ act'(z)` into `dz` (resized as needed): each element
    /// is `d * act.derivative(x)`, upstream gradient first. One loop per
    /// variant, as in [`Activation::forward_into`].
    ///
    /// `y` is the forward pass's activated output, `act(z)` as
    /// [`Activation::forward_into`] wrote it. Sigmoid and tanh read their
    /// derivative from it (`s·(1 − s)`, `1 − t·t`) instead of recomputing
    /// `exp` / `tanh` of `z`: `y` holds exactly the `s` / `t` that
    /// [`Activation::derivative`] would recompute, so every element keeps
    /// its bits. The other variants never read `y`, which may then be any
    /// matrix — an empty one included.
    ///
    /// # Panics
    ///
    /// Panics if the shapes of `z` and `d_out` differ, or, for sigmoid and
    /// tanh, if `y`'s does.
    pub fn backward_weighted_into(self, z: &Matrix, y: &Matrix, d_out: &Matrix, dz: &mut Matrix) {
        fn run(dz: &mut [f32], d_out: &[f32], v: &[f32], df: impl Fn(f32) -> f32) {
            for ((o, &d), &x) in dz.iter_mut().zip(d_out).zip(v) {
                *o = d * df(x);
            }
        }
        assert_eq!(z.shape(), d_out.shape(), "backward_weighted shape mismatch");
        let output = || {
            assert_eq!(y.shape(), d_out.shape(), "backward_weighted shape mismatch");
            y.as_slice()
        };
        dz.resize_for(z.rows(), z.cols());
        let (dz, d_out, z) = (dz.as_mut_slice(), d_out.as_slice(), z.as_slice());
        match self {
            Activation::Identity => run(dz, d_out, z, |x| Activation::Identity.derivative(x)),
            Activation::Relu => run(dz, d_out, z, |x| Activation::Relu.derivative(x)),
            Activation::LeakyRelu(a) => {
                run(dz, d_out, z, |x| Activation::LeakyRelu(a).derivative(x))
            }
            Activation::Sigmoid => run(dz, d_out, output(), |s| s * (1.0 - s)),
            Activation::Tanh => run(dz, d_out, output(), |t| 1.0 - t * t),
            Activation::Softplus => run(dz, d_out, z, |x| Activation::Softplus.derivative(x)),
        }
    }
}

/// Numerically stable logistic sigmoid.
///
/// Both halves share one exponential, `e = exp(-|x|)`, and the sign only
/// selects the quotient — no branch around a libm call. This is
/// bit-identical to evaluating `exp(-x)` for `x ≥ 0` and `exp(x)` for
/// `x < 0` at every non-NaN `x`: `-|x| == -x` for `x ≥ 0` (`-0.0` included)
/// and `-|x| == x` exactly for `x < 0`. Only a NaN input's sign bit can come
/// out differently.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    let e = (-x.abs()).exp();
    if x >= 0.0 {
        1.0 / (1.0 + e)
    } else {
        e / (1.0 + e)
    }
}

/// Numerically stable softplus `ln(1 + e^x)`.
#[inline]
pub(crate) fn softplus(x: f32) -> f32 {
    if x > 30.0 {
        x
    } else if x < -30.0 {
        x.exp()
    } else {
        x.exp().ln_1p()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ACTS: [Activation; 6] = [
        Activation::Identity,
        Activation::Relu,
        Activation::LeakyRelu(0.01),
        Activation::Sigmoid,
        Activation::Tanh,
        Activation::Softplus,
    ];

    #[test]
    fn derivative_matches_finite_difference() {
        // Single precision: a step of 1e-3 keeps the rounding error of
        // the difference (≈ 6e-8 / 1e-3) and its truncation error small.
        let eps = 1e-3;
        for act in ACTS {
            for &x in &[-2.0, -0.5, 0.3, 1.7, 5.0] {
                let fd = (act.eval(x + eps) - act.eval(x - eps)) / (2.0 * eps);
                let an = act.derivative(x);
                assert!(
                    (fd - an).abs() < 1e-3,
                    "{act:?} derivative mismatch at {x}: fd={fd} an={an}"
                );
            }
        }
    }

    #[test]
    fn sigmoid_is_bounded_and_symmetric() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!(sigmoid(100.0) <= 1.0 && sigmoid(100.0) > 0.999);
        assert!(sigmoid(-100.0) >= 0.0 && sigmoid(-100.0) < 1e-3);
        for &x in &[-3.0, -1.0, 0.5, 2.0] {
            assert!((sigmoid(x) + sigmoid(-x) - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn softplus_stable_at_extremes() {
        assert!((softplus(100.0) - 100.0).abs() < 1e-9);
        assert!(softplus(-100.0) >= 0.0);
        assert!(softplus(-100.0) < 1e-9);
        assert!((softplus(0.0) - (2.0f32).ln()).abs() < 1e-6);
    }

    #[test]
    fn leaky_relu_negative_slope() {
        let a = Activation::LeakyRelu(0.1);
        assert!((a.eval(-10.0) + 1.0).abs() < 1e-6);
        assert_eq!(a.eval(10.0), 10.0);
    }

    /// Both matrix passes against the scalar functions, bit for bit — the
    /// backward given the forward's own output, as a training pass gives it
    /// (sigmoid and tanh read their derivative from it). The grid spans
    /// both saturated tails, zero and signed zero, where `s·(1 − s)` and
    /// `1 − t·t` underflow or round to their limits.
    #[test]
    fn matrix_passes_apply_the_scalar_functions() {
        let xs = [
            -800.0, -40.0, -19.5, -2.0, -1.0, -1e-9, -0.0, 0.0, 1e-9, 0.3, 2.0, 19.5, 40.0, 800.0,
        ];
        let z = Matrix::from_fn(
            2,
            xs.len(),
            |i, j| if i == 0 { xs[j] } else { -xs[j] / 3.0 },
        );
        let d_out = Matrix::from_fn(2, xs.len(), |i, j| (j as f64 - 6.5) * (1.0 + i as f64));
        let (mut out, mut dz) = (Matrix::zeros(2, 2), Matrix::zeros(2, 2));
        for act in ACTS {
            act.forward_into(&z, &mut out);
            act.backward_weighted_into(&z, &out, &d_out, &mut dz);
            assert_eq!(out.shape(), z.shape());
            assert_eq!(dz.shape(), z.shape());
            for i in 0..z.rows() {
                for j in 0..z.cols() {
                    let x = z[(i, j)];
                    assert_eq!(out[(i, j)].to_bits(), act.eval(x).to_bits());
                    assert_eq!(
                        dz[(i, j)].to_bits(),
                        (d_out[(i, j)] * act.derivative(x)).to_bits(),
                        "{act:?} at {x}"
                    );
                }
            }
        }
    }
}
