//! Multi-layer perceptrons with manual backpropagation.

use std::fmt;
use std::ops::Range;
use std::sync::OnceLock;

use rand::Rng;
use serde::{DeError, Deserialize, Serialize, Value};

use crate::matrix::{lone_row_into, lone_row_width};
use crate::{Activation, Dense, DenseGrad, GemmOp, Init, Matrix};

/// A feed-forward network of [`Dense`] layers.
///
/// The paper's actor and critic are both `Mlp`s with two 128-unit
/// Leaky-ReLU hidden layers; the actor ends in a sigmoid so the action lands
/// in `[0, 1]^d` before being scaled to the RA's resource capacities
/// (Sec. VI-A); `edgeslice_rl::DdpgConfig::paper()` holds those shapes.
pub struct Mlp {
    layers: Vec<Dense>,
    /// Each layer's `Wᵀ` (`in × out`), rows zero-padded to
    /// [`lone_row_width`], for the batch-1 forward: filled on its
    /// first call and dropped by every `&mut self` method, so it never
    /// outlives the weights it copies. Not part of the network's value:
    /// equality, `Debug`, cloning and serialization see `layers` only.
    weights_t: OnceLock<Vec<Matrix>>,
}

impl Clone for Mlp {
    /// A copy of the layers; the copy fills its own batch-1 memo if it is
    /// ever asked for a row.
    fn clone(&self) -> Self {
        Self {
            layers: self.layers.clone(),
            weights_t: OnceLock::new(),
        }
    }
}

impl PartialEq for Mlp {
    fn eq(&self, other: &Self) -> bool {
        self.layers == other.layers
    }
}

impl fmt::Debug for Mlp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Mlp").field("layers", &self.layers).finish()
    }
}

impl Serialize for Mlp {
    fn to_value(&self) -> Value {
        Value::Object(vec![("layers".to_string(), self.layers.to_value())])
    }
}

impl Deserialize for Mlp {
    /// Decodes a network only if each layer reads what the one before it
    /// writes ([`Dense`] has checked each layer's own shape).
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let layers = v
            .get_field("layers")
            .ok_or_else(|| DeError::missing_field("Mlp", "layers"))?;
        let layers: Vec<Dense> = Vec::from_value(layers)?;
        if let Some(l) = (1..layers.len()).find(|&l| layers[l - 1].out_dim() != layers[l].in_dim())
        {
            return Err(DeError::msg(format!(
                "layer {l} reads {} inputs, layer {} writes {}",
                layers[l].in_dim(),
                l - 1,
                layers[l - 1].out_dim()
            )));
        }
        Ok(Self {
            layers,
            weights_t: OnceLock::new(),
        })
    }
}

/// A reusable scratch arena for one network's training pass.
///
/// Holds the forward caches (per-layer inputs and pre-activations), the
/// backward buffers (each layer's delta and the input gradient the chain
/// carries down) and the parameter [`Gradients`] for one [`Mlp`]. All
/// buffers are grown on first use and reshaped in place afterwards, so a
/// steady-state `forward_scratch` + `backward_scratch` pair performs zero
/// heap allocations.
///
/// Ownership rules: one scratch belongs to exactly one (network, role)
/// pair — e.g. the DDPG critic's TD update and the critic re-forward for
/// the actor objective use *different* scratches, because `backward_scratch`
/// consumes the caches its own `forward_scratch` produced. Scratches never
/// alias network parameters; they only ever hold activations and gradients.
#[derive(Debug, Clone, Default)]
pub struct TrainScratch {
    /// Input to each layer (`inputs[0]` is a copy of the network input);
    /// `inputs[i + 1]` is layer `i`'s activated output, which its backward
    /// reads for sigmoid and tanh.
    inputs: Vec<Matrix>,
    /// Pre-activation of each layer.
    pre: Vec<Matrix>,
    /// Final activated output.
    output: Matrix,
    /// Each layer's delta `∂L/∂(pre-activation)` from the last
    /// [`Mlp::backward_deltas`].
    dz: Vec<Matrix>,
    /// The input gradient the delta chain carries down, `dz[l + 1]·W[l + 1]`
    /// while it runs; after [`Mlp::backward_input_scratch`],
    /// `∂L/∂(network input)`.
    dx: Matrix,
    /// Parameter gradients of the last backward pass.
    grads: Gradients,
}

impl TrainScratch {
    /// A fresh, empty scratch. Buffers are sized lazily by the first
    /// [`Mlp::forward_scratch`] / [`Mlp::backward_scratch`] pair.
    pub fn new() -> Self {
        Self::default()
    }

    /// The network output of the last [`Mlp::forward_scratch`].
    pub fn output(&self) -> &Matrix {
        &self.output
    }

    /// `∂L/∂(network input)` from the last [`Mlp::backward_input_scratch`]
    /// ([`Mlp::backward_scratch`] does not compute it).
    pub fn d_input(&self) -> &Matrix {
        &self.dx
    }

    /// Layer `l`'s recorded input, its delta from [`Mlp::backward_deltas`]
    /// and its gradient slot: the operands and the output of its
    /// weight-gradient step ([`DenseGrad::compute`]), for running that step
    /// elsewhere. Whatever is moved out must be moved back before the
    /// scratch's next backward pass reads it.
    ///
    /// # Panics
    ///
    /// Panics if `l` is not a layer of the last [`Mlp::forward_scratch`].
    pub fn layer_mut(&mut self, l: usize) -> (&mut Matrix, &mut Matrix, &mut DenseGrad) {
        (
            &mut self.inputs[l],
            &mut self.dz[l],
            &mut self.grads.layers[l],
        )
    }

    /// The weight-gradient step of `layers`: each one's gradients from its
    /// recorded input and its delta ([`DenseGrad::compute`]) into
    /// [`TrainScratch::grads`].
    pub fn weight_grads(&mut self, layers: Range<usize>) {
        for l in layers {
            self.grads.layers[l].compute(&self.dz[l], &self.inputs[l]);
        }
    }

    /// Parameter gradients from the last [`Mlp::backward_scratch`].
    pub fn grads(&self) -> &Gradients {
        &self.grads
    }

    /// Mutable access to the gradients (e.g. for clipping before the
    /// optimizer step).
    pub fn grads_mut(&mut self) -> &mut Gradients {
        &mut self.grads
    }
}

/// The reusable scratch of the batch-1 forward ([`Mlp::forward_row`]):
/// the input row narrowed to `f32`, and two rows the layer outputs
/// ping-pong between. Every buffer is resized in place, so a steady-state
/// forward performs zero heap allocations.
#[derive(Debug, Clone, Default)]
pub struct RowScratch {
    /// The narrowed input row.
    x: Vec<f32>,
    /// The last layer's output: after a forward, the network output.
    cur: Vec<f32>,
    /// The layer output being written.
    next: Vec<f32>,
}

impl RowScratch {
    /// A fresh, empty scratch. Buffers are sized lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Per-layer parameter gradients for a whole network.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Gradients {
    /// One gradient per layer, in forward order.
    pub layers: Vec<DenseGrad>,
}

impl Gradients {
    /// Reshapes to match `net`, reusing allocations; values are
    /// unspecified afterwards.
    pub fn resize_like(&mut self, net: &Mlp) {
        self.layers
            .resize_with(net.layers.len(), DenseGrad::default);
        for (g, l) in self.layers.iter_mut().zip(&net.layers) {
            g.resize_like(l);
        }
    }

    /// Multiplies all gradients by `alpha` in place.
    pub(crate) fn scale(&mut self, alpha: f32) {
        for g in &mut self.layers {
            g.scale(alpha);
        }
    }

    /// Global (whole-network) L2 norm, accumulated in `f64`.
    pub(crate) fn global_norm(&self) -> f64 {
        self.layers
            .iter()
            .map(DenseGrad::norm_sq)
            .sum::<f64>()
            .sqrt()
    }

    /// Rescales so the global norm does not exceed `max_norm`; the factor
    /// is computed in `f64` and narrowed once.
    pub fn clip_global_norm(&mut self, max_norm: f64) {
        let norm = self.global_norm();
        if norm > max_norm && norm > 0.0 {
            self.scale((max_norm / norm) as f32);
        }
    }
}

impl Mlp {
    /// Builds a network from `(in, out, activation)` layer sizes.
    ///
    /// `dims` is the sequence of widths, e.g. `[4, 128, 128, 6]`;
    /// `hidden` is used for every layer except the last, which uses
    /// `output`.
    ///
    /// # Panics
    ///
    /// Panics if `dims.len() < 2`.
    ///
    /// # Examples
    ///
    /// The paper's actor shape on a 4-wide state and a 6-wide action:
    ///
    /// ```
    /// use edgeslice_nn::{Activation, Matrix, Mlp};
    /// use rand::SeedableRng;
    ///
    /// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    /// let net = Mlp::new(
    ///     &[4, 128, 128, 6],
    ///     Activation::leaky_default(),
    ///     Activation::Sigmoid,
    ///     &mut rng,
    /// );
    /// let out = net.forward(&Matrix::zeros(1, 4));
    /// assert_eq!(out.shape(), (1, 6));
    /// assert!(out.as_slice().iter().all(|&a| (0.0..=1.0).contains(&a)));
    /// ```
    pub fn new(dims: &[usize], hidden: Activation, output: Activation, rng: &mut impl Rng) -> Self {
        assert!(
            dims.len() >= 2,
            "an Mlp needs at least an input and output width"
        );
        let mut layers = Vec::with_capacity(dims.len() - 1);
        for w in dims.windows(2) {
            let last = layers.len() == dims.len() - 2;
            let act = if last { output } else { hidden };
            // He init matches (leaky-)ReLU hidden layers; the small-uniform
            // final layer keeps initial outputs near the activation midpoint,
            // the standard DDPG initialization.
            let init = if last {
                Init::Uniform(3e-3)
            } else {
                Init::HeUniform
            };
            layers.push(Dense::new(w[0], w[1], act, init, rng));
        }
        Self {
            layers,
            weights_t: OnceLock::new(),
        }
    }

    /// The layers of this network, in forward order.
    pub fn layers(&self) -> &[Dense] {
        &self.layers
    }

    /// Mutable access to the layers.
    pub fn layers_mut(&mut self) -> &mut [Dense] {
        self.weights_t.take();
        &mut self.layers
    }

    /// The padded output-major weights of every layer, transposed from the
    /// live weights on first use after construction or a mutation. One fill
    /// per weight state: the steady-state forward reads it allocation-free.
    fn weights_t(&self) -> &[Matrix] {
        self.weights_t.get_or_init(|| {
            self.layers
                .iter()
                .map(|l| l.weights().transpose_padded(lone_row_width(l.out_dim())))
                .collect()
        })
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.layers
            .last()
            .expect("Mlp has at least one layer")
            .out_dim()
    }

    /// Total number of scalar parameters.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(Dense::param_count).sum()
    }

    /// Convenience forward pass for a batch (`batch × in_dim`): one
    /// [`Mlp::forward_scratch`] on a throw-away scratch, so the batch forward
    /// has one implementation. Callers that train keep a [`TrainScratch`]
    /// and call that directly.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut s = TrainScratch::new();
        self.forward_scratch(x, &mut s);
        s.output
    }

    /// Convenience forward pass for a single input vector: one
    /// [`Mlp::forward_row`] on a throw-away scratch, widened back to `f64`.
    /// Callers that decide every step keep a [`RowScratch`] and call that
    /// directly.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != in_dim`.
    pub fn forward_one(&self, x: &[f64]) -> Vec<f64> {
        let mut s = RowScratch::new();
        let out = self.forward_row(x, &mut s);
        out.iter().map(|&y| f64::from(y)).collect()
    }

    /// The batch-1 forward: `x` narrowed to `f32`, then every layer one
    /// fused lone-row kernel against the network's padded `Wᵀ` memo.
    /// **Bit-identical** to row 0 of [`Mlp::forward`] on the narrowed row:
    /// each output is the same `k`-ascending sum, `+ b` and activation.
    /// Returns the output row, which lives in `s`. Allocation-free at
    /// steady state (the first call after construction or a weight mutation
    /// fills the memo).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != in_dim`.
    pub fn forward_row<'s>(&self, x: &[f64], s: &'s mut RowScratch) -> &'s [f32] {
        assert_eq!(x.len(), self.in_dim(), "input length mismatch");
        let RowScratch { x: row, cur, next } = s;
        row.clear();
        row.extend(x.iter().map(|&v| v as f32));
        let mut input: &[f32] = row;
        for (layer, wt) in self.layers.iter().zip(self.weights_t()) {
            next.resize(layer.out_dim(), 0.0);
            lone_row_into(input, wt, layer.bias(), layer.activation(), next);
            std::mem::swap(cur, next);
            input = cur;
        }
        cur
    }

    /// Forward pass through a [`TrainScratch`], recording each layer's input
    /// and pre-activation for [`Mlp::backward_scratch`] /
    /// [`Mlp::backward_input_scratch`]. Allocation-free once the scratch has
    /// warmed up. The output stays readable via [`TrainScratch::output`].
    pub fn forward_scratch(&self, x: &Matrix, s: &mut TrainScratch) {
        let n = self.layers.len();
        s.inputs.resize_with(n, Matrix::default);
        s.pre.resize_with(n, Matrix::default);
        s.dz.resize_with(n, Matrix::default);
        s.grads.layers.resize_with(n, DenseGrad::default);
        s.inputs[0].copy_from(x);
        for (idx, layer) in self.layers.iter().enumerate() {
            if idx + 1 < n {
                let (lo, hi) = s.inputs.split_at_mut(idx + 1);
                layer.forward_into(&lo[idx], &mut s.pre[idx], &mut hi[0]);
            } else {
                layer.forward_into(&s.inputs[idx], &mut s.pre[idx], &mut s.output);
            }
        }
    }

    /// Backpropagates `d_output = ∂L/∂output` through the pass recorded by
    /// [`Mlp::forward_scratch`], leaving the parameter gradients (sums over
    /// the batch) in [`TrainScratch::grads`]: the delta chain
    /// ([`Mlp::backward_deltas`]) over every layer, then every layer's
    /// weight-gradient step ([`TrainScratch::weight_grads`]). The first
    /// layer's input gradient (`∂L/∂input`) is not computed: a parameter
    /// update never reads it, and [`TrainScratch::d_input`] comes from
    /// [`Mlp::backward_input_scratch`] only. The recorded pass is left
    /// intact, so one forward can be backpropagated many times (TRPO's
    /// Fisher-vector products do).
    pub fn backward_scratch(&self, s: &mut TrainScratch, d_output: &Matrix) {
        let n = self.layers.len();
        self.backward_deltas(s, d_output, 0..n);
        s.weight_grads(0..n);
    }

    /// The delta chain of a backward pass, over `layers` from the top down:
    /// each layer's delta `dz = ∂L/∂(activated output) ⊙ act'(pre)`, kept
    /// per layer for its weight-gradient step, where the last layer's
    /// upstream gradient is `d_output` and every other layer's is the input
    /// gradient `dz·W` of the layer above it.
    ///
    /// The chain may be run in pieces, top piece first: a range that ends
    /// below the last layer resumes from the delta of the layer at its end,
    /// and only the piece holding the last layer reads `d_output`. Once
    /// layer `l`'s delta is out, its pieces ([`TrainScratch::layer_mut`])
    /// have few readers left: its gradient slot only its own weight-gradient
    /// step; its delta that step and layer `l − 1`'s upstream `dz·W`; its
    /// recorded input that step and — under a sigmoid or tanh only, which
    /// read their output ([`Activation::backward_weighted_into`]) — layer
    /// `l − 1`'s delta. Allocation-free once the scratch has warmed up.
    pub fn backward_deltas(&self, s: &mut TrainScratch, d_output: &Matrix, layers: Range<usize>) {
        let n = self.layers.len();
        for l in layers.rev() {
            let upstream = if l + 1 == n {
                d_output
            } else {
                let above = self.layers[l + 1].weights();
                Matrix::gemm_into(GemmOp::AB, &s.dz[l + 1], above, &mut s.dx);
                &s.dx
            };
            let y = s.inputs.get(l + 1).unwrap_or(&s.output);
            self.layers[l].activation().backward_weighted_into(
                &s.pre[l],
                y,
                upstream,
                &mut s.dz[l],
            );
        }
    }

    /// Like [`Mlp::backward_scratch`] but computes only the input-gradient
    /// chain, skipping every layer's parameter gradients: the delta chain
    /// and then the first layer's `dz·W`. Used when the network is
    /// differentiated purely for `∂L/∂input` (DDPG's and SAC's
    /// `∇_a Q(s, μ(s))`), leaving it in [`TrainScratch::d_input`]. Each
    /// layer's input gradient depends only on its delta and weights, so the
    /// chain is the one a full backward pass would compute.
    pub fn backward_input_scratch(&self, s: &mut TrainScratch, d_output: &Matrix) {
        self.backward_deltas(s, d_output, 0..self.layers.len());
        Matrix::gemm_into(GemmOp::AB, &s.dz[0], self.layers[0].weights(), &mut s.dx);
    }

    /// Flattens all parameters into a single vector (weights row-major, then
    /// bias, per layer, in forward order).
    pub fn flat_params(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.param_count());
        for l in &self.layers {
            out.extend_from_slice(l.weights().as_slice());
            out.extend_from_slice(l.bias());
        }
        out
    }

    /// Restores parameters from a flat vector produced by
    /// [`Mlp::flat_params`].
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != param_count()`.
    pub fn set_flat_params(&mut self, params: &[f32]) {
        assert_eq!(
            params.len(),
            self.param_count(),
            "flat parameter length mismatch"
        );
        let mut off = 0;
        for l in self.layers_mut() {
            let wlen = l.weights().rows() * l.weights().cols();
            l.weights_mut()
                .as_mut_slice()
                .copy_from_slice(&params[off..off + wlen]);
            off += wlen;
            let blen = l.bias().len();
            l.bias_mut().copy_from_slice(&params[off..off + blen]);
            off += blen;
        }
    }

    /// Flattens a [`Gradients`] into a vector aligned with
    /// [`Mlp::flat_params`].
    pub fn flat_grads(&self, grads: &Gradients) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.param_count());
        for g in &grads.layers {
            out.extend_from_slice(g.weights.as_slice());
            out.extend_from_slice(&g.bias);
        }
        out
    }

    /// Polyak-averages all parameters toward `source`:
    /// `θ ← (1-τ) θ + τ θ_source`.
    ///
    /// # Panics
    ///
    /// Panics if architectures differ.
    pub fn soft_update_from(&mut self, source: &Mlp, tau: f64) {
        assert_eq!(
            self.layers.len(),
            source.layers.len(),
            "layer count mismatch"
        );
        for (a, b) in self.layers_mut().iter_mut().zip(&source.layers) {
            a.soft_update_from(b, tau);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn net() -> Mlp {
        let mut rng = StdRng::seed_from_u64(11);
        Mlp::new(
            &[3, 8, 8, 2],
            Activation::leaky_default(),
            Activation::Tanh,
            &mut rng,
        )
    }

    #[test]
    fn shapes_and_param_count() {
        let n = net();
        assert_eq!(n.in_dim(), 3);
        assert_eq!(n.out_dim(), 2);
        assert_eq!(n.param_count(), 3 * 8 + 8 + 8 * 8 + 8 + 8 * 2 + 2);
        assert_eq!(n.forward(&Matrix::zeros(4, 3)).shape(), (4, 2));
    }

    /// The shipped training pass against central differences:
    /// `backward_scratch`'s parameter gradients and
    /// `backward_input_scratch`'s `d_input`, through every layer — with a
    /// tanh and a sigmoid output layer, whose backward reads the recorded
    /// output instead of the pre-activation.
    #[test]
    fn backward_matches_finite_difference_on_all_params() {
        for output in [Activation::Tanh, Activation::Sigmoid] {
            let mut rng = StdRng::seed_from_u64(11);
            let n = Mlp::new(&[3, 8, 8, 2], Activation::leaky_default(), output, &mut rng);
            check_backward_against_finite_difference(n);
        }
    }

    fn check_backward_against_finite_difference(mut n: Mlp) {
        let x = Matrix::from_rows(&[&[0.4, -0.1, 0.9], &[-0.3, 0.7, 0.2]]);
        // Scalar loss: sum of all outputs.
        let d_out = Matrix::filled(2, 2, 1.0);
        let mut s = TrainScratch::new();
        n.forward_scratch(&x, &mut s);
        n.backward_scratch(&mut s, &d_out);
        let flat_grad = n.flat_grads(s.grads());
        n.backward_input_scratch(&mut s, &d_out);
        let d_in = s.d_input().clone();

        // Central differences in single precision: a step of 1e-2, divided
        // by the distance the perturbed value actually moved.
        let eps = 1e-2f32;
        let tol = 2e-3;
        let mut params = n.flat_params();
        for p in 0..params.len() {
            let orig = params[p];
            let (hi, lo) = (orig + eps, orig - eps);
            params[p] = hi;
            n.set_flat_params(&params);
            let up = n.forward(&x).sum();
            params[p] = lo;
            n.set_flat_params(&params);
            let dn = n.forward(&x).sum();
            params[p] = orig;
            let fd = (up - dn) / (f64::from(hi) - f64::from(lo));
            let an = f64::from(flat_grad[p]);
            assert!((fd - an).abs() < tol, "param {p}: fd={fd} an={an}");
        }
        n.set_flat_params(&params);

        // d_in finite difference.
        let mut x2 = x.clone();
        for r in 0..2 {
            for c in 0..3 {
                let orig = x2[(r, c)];
                let (hi, lo) = (orig + eps, orig - eps);
                x2[(r, c)] = hi;
                let up = n.forward(&x2).sum();
                x2[(r, c)] = lo;
                let dn = n.forward(&x2).sum();
                x2[(r, c)] = orig;
                let fd = (up - dn) / (f64::from(hi) - f64::from(lo));
                let an = f64::from(d_in[(r, c)]);
                assert!((fd - an).abs() < tol, "d_in[{r},{c}]");
            }
        }
    }

    #[test]
    fn flat_params_round_trip() {
        let mut a = net();
        let b = {
            let mut rng = StdRng::seed_from_u64(99);
            Mlp::new(
                &[3, 8, 8, 2],
                Activation::leaky_default(),
                Activation::Tanh,
                &mut rng,
            )
        };
        a.set_flat_params(&b.flat_params());
        assert_eq!(a, b);
    }

    #[test]
    fn gradient_clipping_caps_global_norm() {
        let n = net();
        let mut s = TrainScratch::new();
        n.forward_scratch(&Matrix::filled(1, 3, 1.0), &mut s);
        n.backward_scratch(&mut s, &Matrix::filled(1, 2, 100.0));
        let g = s.grads_mut();
        let before = g.global_norm();
        assert!(before > 1.0);
        g.clip_global_norm(1.0);
        assert!((g.global_norm() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn soft_update_moves_toward_source() {
        let mut rng = StdRng::seed_from_u64(21);
        let mut a = Mlp::new(&[2, 4, 1], Activation::Relu, Activation::Identity, &mut rng);
        let b = Mlp::new(&[2, 4, 1], Activation::Relu, Activation::Identity, &mut rng);
        let d0: f32 = a
            .flat_params()
            .iter()
            .zip(b.flat_params())
            .map(|(x, y)| (x - y).powi(2))
            .sum();
        a.soft_update_from(&b, 0.5);
        let d1: f32 = a
            .flat_params()
            .iter()
            .zip(b.flat_params())
            .map(|(x, y)| (x - y).powi(2))
            .sum();
        assert!(d1 < d0);
    }
}
