//! State-value function fitting shared by the on-policy algorithms.

use edgeslice_nn::{mse_loss_into, Activation, Adam, Matrix, Mlp, TrainScratch};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;

/// A state-value network `V(s)` trained by minibatch regression.
#[derive(Debug, Clone)]
pub struct ValueNet {
    net: Mlp,
    opt: Adam,
    /// The regression's forward/backward pass.
    scratch: TrainScratch,
    /// `∂loss/∂V` of the current minibatch.
    d_pred: Matrix,
}

impl ValueNet {
    /// Creates a value network with the given hidden width.
    pub fn new(state_dim: usize, hidden: usize, lr: f64, rng: &mut StdRng) -> Self {
        let net = Mlp::new(
            &[state_dim, hidden, hidden, 1],
            Activation::leaky_default(),
            Activation::Identity,
            rng,
        );
        let opt = Adam::new(&net, lr);
        Self {
            net,
            opt,
            scratch: TrainScratch::new(),
            d_pred: Matrix::default(),
        }
    }

    /// Predicted values for a batch of states, one per row.
    pub fn predict(&self, states: &Matrix) -> Vec<f64> {
        self.net.forward(states).into_vec()
    }

    /// Predicted value of a single state.
    pub fn predict_one(&self, state: &[f64]) -> f64 {
        self.net.forward_one(state)[0]
    }

    /// Regresses the network toward `targets` for `epochs` passes of
    /// shuffled minibatches; returns the final epoch's mean loss.
    pub fn fit(
        &mut self,
        states: &Matrix,
        targets: &[f64],
        epochs: usize,
        batch_size: usize,
        rng: &mut StdRng,
    ) -> f64 {
        assert_eq!(states.rows(), targets.len(), "value fit length mismatch");
        let n = states.rows();
        let mut indices: Vec<usize> = (0..n).collect();
        let mut last = 0.0;
        for _ in 0..epochs {
            indices.shuffle(rng);
            let mut epoch_loss = 0.0;
            let mut batches = 0;
            for chunk in indices.chunks(batch_size.max(1)) {
                let xs = states.select_rows(chunk);
                let ys =
                    Matrix::from_vec(chunk.len(), 1, chunk.iter().map(|&i| targets[i]).collect());
                self.net.forward_scratch(&xs, &mut self.scratch);
                let loss = mse_loss_into(self.scratch.output(), &ys, &mut self.d_pred);
                self.net.backward_scratch(&mut self.scratch, &self.d_pred);
                self.opt.step(&mut self.net, self.scratch.grads());
                epoch_loss += loss;
                batches += 1;
            }
            last = epoch_loss / batches.max(1) as f64;
        }
        last
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn fits_a_simple_value_surface() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut v = ValueNet::new(2, 16, 1e-2, &mut rng);
        let states = Matrix::from_fn(64, 2, |i, j| ((i * 2 + j) % 8) as f64 / 8.0);
        let targets: Vec<f64> = (0..64)
            .map(|i| states[(i, 0)] + 2.0 * states[(i, 1)])
            .collect();
        let first = v.fit(&states, &targets, 1, 16, &mut rng);
        let last = v.fit(&states, &targets, 60, 16, &mut rng);
        assert!(last < first * 0.2, "value fit stalled: {first} -> {last}");
        assert!((v.predict_one(&[0.5, 0.5]) - 1.5).abs() < 0.3);
    }

    #[test]
    fn predict_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let v = ValueNet::new(3, 8, 1e-3, &mut rng);
        assert_eq!(v.predict(&Matrix::zeros(5, 3)).len(), 5);
    }
}
