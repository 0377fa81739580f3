//! Gradient-descent optimizers.

use serde::{Deserialize, Serialize};

use crate::{Gradients, Matrix, Mlp};

/// Adam optimizer (Kingma & Ba) with per-parameter first/second moments.
///
/// The paper trains both actor and critic with learning rate `0.001`
/// (Sec. VI-A); [`Adam::paper`] uses exactly that. The hyper-parameters are
/// `f64`; a step narrows them, and its bias corrections, to `f32` once, and
/// the moments and the element-wise update are `f32`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    t: u64,
    m: Vec<f32>,
    v: Vec<f32>,
}

impl Adam {
    /// Creates an Adam optimizer sized for `net`.
    pub fn new(net: &Mlp, lr: f64) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: vec![0.0; net.param_count()],
            v: vec![0.0; net.param_count()],
        }
    }

    /// Adam with the paper's learning rate (`0.001`).
    pub fn paper(net: &Mlp) -> Self {
        Self::new(net, 1e-3)
    }

    /// Applies one descent step: `θ ← θ - lr * m̂ / (sqrt(v̂) + ε)`.
    ///
    /// `grads` must come from a backward pass over `net` (gradient of the
    /// loss being *minimized*).
    ///
    /// The update walks each layer's parameter slices in place, zipped with
    /// the matching offsets into the flat moment vectors — no flattened
    /// parameter or gradient copies. Moment slot `i` belongs to parameter
    /// `i` of [`Mlp::flat_params`], so the step is the textbook update over
    /// that flat vector, bit for bit (the test-side DDPG oracle runs exactly
    /// that and compares).
    ///
    /// # Panics
    ///
    /// Panics if the optimizer was sized for a different architecture.
    pub fn step(&mut self, net: &mut Mlp, grads: &Gradients) {
        assert_eq!(
            net.param_count(),
            self.m.len(),
            "optimizer/network size mismatch"
        );
        self.t += 1;
        // β^t underflows to 0 long before `t` leaves `i32`, so saturating
        // the exponent changes no float; wrapping it would flip its sign.
        let t = i32::try_from(self.t).unwrap_or(i32::MAX);
        let b1t = (1.0 - self.beta1.powi(t)) as f32;
        let b2t = (1.0 - self.beta2.powi(t)) as f32;
        let mut off = 0;
        for (layer, g) in net.layers_mut().iter_mut().zip(&grads.layers) {
            off = self.apply_slice(
                layer.weights_mut().as_mut_slice(),
                g.weights.as_slice(),
                b1t,
                b2t,
                off,
            );
            off = self.apply_slice(layer.bias_mut(), &g.bias, b1t, b2t, off);
        }
    }

    /// Adam-updates one contiguous parameter slice against the moment
    /// vectors at `off`, returning the offset past the slice.
    fn apply_slice(
        &mut self,
        params: &mut [f32],
        g: &[f32],
        b1t: f32,
        b2t: f32,
        off: usize,
    ) -> usize {
        assert_eq!(params.len(), g.len(), "gradient/parameter shape mismatch");
        let (b1, b2) = (self.beta1 as f32, self.beta2 as f32);
        let (c1, c2) = ((1.0 - self.beta1) as f32, (1.0 - self.beta2) as f32);
        let (lr, eps) = (self.lr as f32, self.eps as f32);
        let m = &mut self.m[off..off + params.len()];
        let v = &mut self.v[off..off + params.len()];
        for i in 0..params.len() {
            m[i] = b1 * m[i] + c1 * g[i];
            v[i] = b2 * v[i] + c2 * g[i] * g[i];
            let m_hat = m[i] / b1t;
            let v_hat = v[i] / b2t;
            params[i] -= lr * m_hat / (v_hat.sqrt() + eps);
        }
        off + params.len()
    }
}

/// Mean-squared-error loss over a batch and its gradient with respect to
/// the predictions.
///
/// Returns `loss = mean((pred - target)^2)` (squares summed in `f64`, in
/// row-major order) and writes `d_pred = 2 (pred - target) / n` into
/// `d_pred` (resized as needed, in `f32`); allocation-free.
///
/// # Panics
///
/// Panics if shapes differ.
pub fn mse_loss_into(pred: &Matrix, target: &Matrix, d_pred: &mut Matrix) -> f64 {
    assert_eq!(pred.shape(), target.shape(), "mse shape mismatch");
    let n = (pred.rows() * pred.cols()).max(1);
    d_pred.resize_for(pred.rows(), pred.cols());
    let mut loss = 0.0;
    for ((o, &p), &t) in d_pred
        .as_mut_slice()
        .iter_mut()
        .zip(pred.as_slice())
        .zip(target.as_slice())
    {
        let d = p - t;
        loss += f64::from(d) * f64::from(d);
        *o = 2.0 * d / n as f32;
    }
    loss / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Activation, TrainScratch};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Fits a quadratic target with a tiny net through the scratch-arena
    /// training pass; loss must drop sharply.
    #[test]
    fn adam_reduces_regression_loss() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut net = Mlp::new(
            &[1, 16, 1],
            Activation::Tanh,
            Activation::Identity,
            &mut rng,
        );
        let mut adam = Adam::new(&net, 1e-2);
        let xs = Matrix::from_fn(32, 1, |i, _| i as f64 / 16.0 - 1.0);
        let ys = Matrix::from_fn(32, 1, |i, _| {
            let x = f64::from(xs[(i, 0)]);
            0.5 * x * x - 0.2 * x
        });
        let (mut s, mut d) = (TrainScratch::new(), Matrix::default());
        let first = mse_loss_into(&net.forward(&xs), &ys, &mut d);
        let mut last = first;
        for _ in 0..500 {
            net.forward_scratch(&xs, &mut s);
            last = mse_loss_into(s.output(), &ys, &mut d);
            net.backward_scratch(&mut s, &d);
            adam.step(&mut net, s.grads());
        }
        assert!(last < first * 0.05, "Adam failed to fit: {first} -> {last}");
    }

    #[test]
    fn mse_loss_zero_for_identical() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let mut g = Matrix::filled(3, 3, 7.0);
        assert_eq!(mse_loss_into(&a, &a, &mut g), 0.0);
        assert_eq!(g, Matrix::zeros(1, 2));
    }

    #[test]
    fn mse_gradient_direction() {
        let pred = Matrix::from_rows(&[&[2.0]]);
        let target = Matrix::from_rows(&[&[0.0]]);
        let mut g = Matrix::default();
        let l = mse_loss_into(&pred, &target, &mut g);
        assert!((l - 4.0).abs() < 1e-12);
        assert!(g[(0, 0)] > 0.0); // pushing pred down reduces loss
    }

    /// A step count past `i32::MAX` must still move the parameters: a
    /// wrapped exponent made the bias corrections `−∞` and every later
    /// step a silent no-op.
    #[test]
    fn adam_steps_past_i32_max_still_move_parameters() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut net = Mlp::new(&[1, 4, 1], Activation::Tanh, Activation::Identity, &mut rng);
        let mut adam = Adam::new(&net, 1e-2);
        adam.t = i32::MAX as u64;
        let (xs, ys) = (Matrix::from_rows(&[&[0.5]]), Matrix::from_rows(&[&[2.0]]));
        let (mut s, mut d) = (TrainScratch::new(), Matrix::default());
        for _ in 0..2 {
            let before = net.flat_params();
            net.forward_scratch(&xs, &mut s);
            mse_loss_into(s.output(), &ys, &mut d);
            net.backward_scratch(&mut s, &d);
            adam.step(&mut net, s.grads());
            let after = net.flat_params();
            assert!(after.iter().all(|p| p.is_finite()), "step {}", adam.t);
            assert_ne!(before, after, "step {} left the parameters", adam.t);
        }
    }
}
