//! A single fully-connected layer.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::{Activation, GemmOp, Init, Matrix};

/// A dense layer computing `act(x Wᵀ + b)` over a batch of row-vector inputs.
///
/// Weights are stored `out × in` so a batch forward pass is a single
/// [`GemmOp::ABt`] product. (The batch-1 forward runs against a padded
/// output-major copy that the owning [`crate::Mlp`] memoises.)
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dense {
    weights: Matrix,
    bias: Vec<f32>,
    activation: Activation,
}

/// Gradients of a [`Dense`] layer's parameters for one backward pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DenseGrad {
    /// Gradient with respect to the weights, `out × in`.
    pub weights: Matrix,
    /// Gradient with respect to the bias, length `out`.
    pub bias: Vec<f32>,
}

impl DenseGrad {
    /// Reshapes this gradient to match `layer`, reusing allocations.
    /// Values are unspecified afterwards; callers overwrite them.
    pub fn resize_like(&mut self, layer: &Dense) {
        self.weights.resize_for(layer.out_dim(), layer.in_dim());
        self.bias.resize(layer.out_dim(), 0.0);
    }

    /// The weight-gradient step of a backward pass: the gradients of a layer
    /// whose delta over a batch is `dz = ∂L/∂(pre-activation)` (`batch × out`)
    /// and whose recorded input is `x` (`batch × in`) — `dW = dzᵀ·x` and
    /// `db` the column sums of `dz`, both **sums** over the batch — written
    /// over this gradient (resized as needed). It reads no weights, so it
    /// can run on any thread that holds `dz` and `x`.
    pub fn compute(&mut self, dz: &Matrix, x: &Matrix) {
        Matrix::gemm_into(GemmOp::AtB, dz, x, &mut self.weights);
        dz.sum_rows_into(&mut self.bias);
    }

    /// Multiplies the gradient by `alpha` in place.
    pub(crate) fn scale(&mut self, alpha: f32) {
        self.weights.scale(alpha);
        for b in &mut self.bias {
            *b *= alpha;
        }
    }

    /// Squared L2 norm of the gradient, accumulated in `f64`.
    pub(crate) fn norm_sq(&self) -> f64 {
        self.weights.dot(&self.weights) + crate::matrix::dot_f64(&self.bias, &self.bias)
    }
}

impl Dense {
    /// Creates a layer with `init`-sampled weights and zero bias.
    pub fn new(
        in_dim: usize,
        out_dim: usize,
        activation: Activation,
        init: Init,
        rng: &mut impl Rng,
    ) -> Self {
        Self {
            weights: init.sample(out_dim, in_dim, rng),
            bias: vec![0.0; out_dim],
            activation,
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.weights.cols()
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.weights.rows()
    }

    /// This layer's activation function.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Borrow the weight matrix (`out × in`).
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// Mutably borrow the weight matrix.
    pub fn weights_mut(&mut self) -> &mut Matrix {
        &mut self.weights
    }

    /// Borrow the bias vector.
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// Mutably borrow the bias vector.
    pub fn bias_mut(&mut self) -> &mut [f32] {
        &mut self.bias
    }

    /// Number of scalar parameters (`out*in + out`).
    pub fn param_count(&self) -> usize {
        self.weights.rows() * self.weights.cols() + self.bias.len()
    }

    /// Forward pass for a batch (`batch × in`): the pre-activation
    /// `z = x Wᵀ + b` into `z` and the activated output `act(z)` into `out`
    /// (both resized as needed).
    pub fn forward_into(&self, x: &Matrix, z: &mut Matrix, out: &mut Matrix) {
        Matrix::gemm_into(GemmOp::ABt, x, &self.weights, z);
        z.add_row_broadcast(&self.bias);
        self.activation.forward_into(z, out);
    }

    /// `self ← (1 - tau) * self + tau * source` (Polyak/soft target update),
    /// with `tau` narrowed to `f32` first.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn soft_update_from(&mut self, source: &Dense, tau: f64) {
        let tau = tau as f32;
        assert_eq!(
            self.weights.shape(),
            source.weights.shape(),
            "soft update shape mismatch"
        );
        self.weights.scale(1.0 - tau);
        self.weights.axpy(tau, &source.weights);
        for (b, s) in self.bias.iter_mut().zip(&source.bias) {
            *b = (1.0 - tau) * *b + tau * s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn layer() -> Dense {
        let mut rng = StdRng::seed_from_u64(7);
        Dense::new(3, 2, Activation::Tanh, Init::XavierUniform, &mut rng)
    }

    /// `(pre-activation, activated output)` of one forward pass.
    fn forward(l: &Dense, x: &Matrix) -> (Matrix, Matrix) {
        let (mut z, mut out) = (Matrix::default(), Matrix::default());
        l.forward_into(x, &mut z, &mut out);
        (z, out)
    }

    #[test]
    fn forward_shape() {
        let l = layer();
        let (z, out) = forward(&l, &Matrix::zeros(5, 3));
        assert_eq!(z.shape(), (5, 2));
        assert_eq!(out.shape(), (5, 2));
    }

    /// One layer's backward pass from its pieces — the activation's delta,
    /// [`DenseGrad::compute`] and the input gradient `dz·W` — against central
    /// differences of the forward pass. Tanh and sigmoid, the two
    /// activations whose backward reads the recorded output.
    #[test]
    fn backward_gradients_match_finite_difference() {
        for act in [Activation::Tanh, Activation::Sigmoid] {
            let mut rng = StdRng::seed_from_u64(7);
            let l = Dense::new(3, 2, act, Init::XavierUniform, &mut rng);
            check_backward_against_finite_difference(l);
        }
    }

    fn check_backward_against_finite_difference(mut l: Dense) {
        let x = Matrix::from_rows(&[&[0.5, -0.2, 0.8], &[1.0, 0.3, -0.7]]);
        // Loss = sum of outputs, so d_out = ones.
        let loss = |l: &Dense, x: &Matrix| forward(l, x).1.sum();
        let (z, y) = forward(&l, &x);
        let d_out = Matrix::filled(2, 2, 1.0);
        let (mut grad, mut dz) = (DenseGrad::default(), Matrix::default());
        l.activation()
            .backward_weighted_into(&z, &y, &d_out, &mut dz);
        grad.compute(&dz, &x);
        let dx = Matrix::gemm(GemmOp::AB, &dz, l.weights());

        // Central differences in single precision: a step of 1e-2, divided
        // by the distance the perturbed parameter actually moved.
        let eps = 1e-2f32;
        let tol = 1e-3;
        for i in 0..2 {
            for j in 0..3 {
                let orig = l.weights()[(i, j)];
                let (hi, lo) = (orig + eps, orig - eps);
                l.weights_mut()[(i, j)] = hi;
                let up = loss(&l, &x);
                l.weights_mut()[(i, j)] = lo;
                let dn = loss(&l, &x);
                l.weights_mut()[(i, j)] = orig;
                let fd = (up - dn) / (f64::from(hi) - f64::from(lo));
                let an = f64::from(grad.weights[(i, j)]);
                assert!((fd - an).abs() < tol, "dW[{i},{j}] fd={fd} an={an}");
            }
            let orig = l.bias()[i];
            let (hi, lo) = (orig + eps, orig - eps);
            l.bias_mut()[i] = hi;
            let up = loss(&l, &x);
            l.bias_mut()[i] = lo;
            let dn = loss(&l, &x);
            l.bias_mut()[i] = orig;
            let fd = (up - dn) / (f64::from(hi) - f64::from(lo));
            assert!((fd - f64::from(grad.bias[i])).abs() < tol, "db[{i}]");
        }

        // dX finite difference.
        let mut x2 = x.clone();
        for r in 0..2 {
            for c in 0..3 {
                let orig = x2[(r, c)];
                let (hi, lo) = (orig + eps, orig - eps);
                x2[(r, c)] = hi;
                let up = loss(&l, &x2);
                x2[(r, c)] = lo;
                let dn = loss(&l, &x2);
                x2[(r, c)] = orig;
                let fd = (up - dn) / (f64::from(hi) - f64::from(lo));
                assert!((fd - f64::from(dx[(r, c)])).abs() < tol, "dX[{r},{c}]");
            }
        }
    }

    #[test]
    fn soft_update_converges_to_source() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut a = Dense::new(2, 2, Activation::Identity, Init::XavierUniform, &mut rng);
        let b = Dense::new(2, 2, Activation::Identity, Init::XavierUniform, &mut rng);
        for _ in 0..2000 {
            a.soft_update_from(&b, 0.01);
        }
        // In f32 each step rounds by ≈ one ulp while closing only 1 % of the
        // gap, so the iteration settles ≈ 100 ulp (≈ 1e-5) from the source.
        let diff = (a.weights() - b.weights()).norm();
        assert!(diff < 1e-4, "diff {diff}");
    }

    #[test]
    fn soft_update_tau_one_copies() {
        let mut rng = StdRng::seed_from_u64(10);
        let mut a = Dense::new(2, 3, Activation::Relu, Init::HeUniform, &mut rng);
        let b = Dense::new(2, 3, Activation::Relu, Init::HeUniform, &mut rng);
        a.soft_update_from(&b, 1.0);
        assert_eq!(a.weights(), b.weights());
        assert_eq!(a.bias(), b.bias());
    }

    #[test]
    fn grad_helpers() {
        let l = layer();
        let mut g = DenseGrad {
            weights: Matrix::zeros(l.out_dim(), l.in_dim()),
            bias: vec![0.0; l.out_dim()],
        };
        assert_eq!(g.norm_sq(), 0.0);
        g.weights[(0, 0)] = 3.0;
        g.bias[1] = 4.0;
        assert_eq!(g.norm_sq(), 25.0);
        g.scale(0.5);
        assert_eq!(g.norm_sq(), 6.25);
    }
}
