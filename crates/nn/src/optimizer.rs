//! Gradient-descent optimizers.

use serde::{Deserialize, Serialize};

use crate::{Gradients, Matrix, Mlp};

/// Adam optimizer (Kingma & Ba) with per-parameter first/second moments.
///
/// The paper trains both actor and critic with learning rate `0.001`
/// (Sec. VI-A); [`Adam::paper`] uses exactly that.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    t: u64,
    m: Vec<f64>,
    v: Vec<f64>,
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

    /// Current learning rate.
    pub fn learning_rate(&self) -> f64 {
        self.lr
    }

    /// Sets the learning rate (e.g. for schedules).
    pub fn set_learning_rate(&mut self, lr: f64) {
        self.lr = lr;
    }

    /// Applies one descent step: `θ ← θ - lr * m̂ / (sqrt(v̂) + ε)`.
    ///
    /// `grads` must come from a backward pass over `net` (gradient of the
    /// loss being *minimized*).
    ///
    /// The update walks each layer's parameter slices in place, zipped with
    /// the matching offsets into the flat moment vectors — no flattened
    /// parameter or gradient copies. The per-parameter arithmetic (and the
    /// parameter ↦ moment-slot mapping) is unchanged from
    /// [`Adam::step_reference`], so results are bit-identical.
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
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
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

    /// The pre-fusion Adam step (flatten → update → scatter), kept as the
    /// reference the equivalence tests hold [`Adam::step`] to. Numerically
    /// identical to it.
    ///
    /// # Panics
    ///
    /// Panics if the optimizer was sized for a different architecture.
    pub fn step_reference(&mut self, net: &mut Mlp, grads: &Gradients) {
        let g = net.flat_grads(grads);
        assert_eq!(g.len(), self.m.len(), "optimizer/network size mismatch");
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        let mut params = net.flat_params();
        for i in 0..g.len() {
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g[i];
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g[i] * g[i];
            let m_hat = self.m[i] / b1t;
            let v_hat = self.v[i] / b2t;
            params[i] -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
        }
        net.set_flat_params(&params);
    }

    /// Adam-updates one contiguous parameter slice against the moment
    /// vectors at `off`, returning the offset past the slice.
    fn apply_slice(
        &mut self,
        params: &mut [f64],
        g: &[f64],
        b1t: f64,
        b2t: f64,
        off: usize,
    ) -> usize {
        assert_eq!(params.len(), g.len(), "gradient/parameter shape mismatch");
        let m = &mut self.m[off..off + params.len()];
        let v = &mut self.v[off..off + params.len()];
        for i in 0..params.len() {
            m[i] = self.beta1 * m[i] + (1.0 - self.beta1) * g[i];
            v[i] = self.beta2 * v[i] + (1.0 - self.beta2) * g[i] * g[i];
            let m_hat = m[i] / b1t;
            let v_hat = v[i] / b2t;
            params[i] -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
        }
        off + params.len()
    }
}

/// Mean-squared-error loss over a batch and its gradient with respect to
/// the predictions.
///
/// Returns `(loss, d_pred)` where `loss = mean((pred - target)^2)` and
/// `d_pred = 2 (pred - target) / n`.
///
/// # Panics
///
/// Panics if shapes differ.
pub fn mse_loss(pred: &Matrix, target: &Matrix) -> (f64, Matrix) {
    assert_eq!(pred.shape(), target.shape(), "mse shape mismatch");
    let n = (pred.rows() * pred.cols()).max(1) as f64;
    let diff = pred - target;
    let loss = diff.as_slice().iter().map(|d| d * d).sum::<f64>() / n;
    let grad = diff.map(|d| 2.0 * d / n);
    (loss, grad)
}

/// [`mse_loss`] writing the gradient into `d_pred` (resized as needed)
/// instead of allocating. Same accumulation order, bit-identical results.
///
/// # Panics
///
/// Panics if shapes differ.
pub fn mse_loss_into(pred: &Matrix, target: &Matrix, d_pred: &mut Matrix) -> f64 {
    assert_eq!(pred.shape(), target.shape(), "mse shape mismatch");
    let n = (pred.rows() * pred.cols()).max(1) as f64;
    d_pred.resize_for(pred.rows(), pred.cols());
    let mut loss = 0.0;
    for ((o, &p), &t) in d_pred
        .as_mut_slice()
        .iter_mut()
        .zip(pred.as_slice())
        .zip(target.as_slice())
    {
        let d = p - t;
        loss += d * d;
        *o = 2.0 * d / n;
    }
    loss / n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Activation;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Fits a quadratic target with a tiny net; loss must drop sharply.
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
        let ys = xs.map(|x| 0.5 * x * x - 0.2 * x);
        let (first, _) = mse_loss(&net.forward(&xs), &ys);
        let mut last = first;
        for _ in 0..500 {
            let cache = net.forward_cached(&xs);
            let (loss, d) = mse_loss(cache.output(), &ys);
            last = loss;
            let (grads, _) = net.backward(&cache, &d);
            adam.step(&mut net, &grads);
        }
        assert!(last < first * 0.05, "Adam failed to fit: {first} -> {last}");
    }

    #[test]
    fn mse_loss_zero_for_identical() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let (l, g) = mse_loss(&a, &a);
        assert_eq!(l, 0.0);
        assert_eq!(g, Matrix::zeros(1, 2));
    }

    #[test]
    fn mse_gradient_direction() {
        let pred = Matrix::from_rows(&[&[2.0]]);
        let target = Matrix::from_rows(&[&[0.0]]);
        let (l, g) = mse_loss(&pred, &target);
        assert!((l - 4.0).abs() < 1e-12);
        assert!(g[(0, 0)] > 0.0); // pushing pred down reduces loss
    }

    #[test]
    fn adam_learning_rate_accessors() {
        let mut rng = StdRng::seed_from_u64(1);
        let net = Mlp::new(&[1, 2, 1], Activation::Relu, Activation::Identity, &mut rng);
        let mut adam = Adam::paper(&net);
        assert_eq!(adam.learning_rate(), 1e-3);
        adam.set_learning_rate(5e-4);
        assert_eq!(adam.learning_rate(), 5e-4);
    }
}
