//! Multi-layer perceptrons with manual backpropagation.

use std::fmt;
use std::sync::OnceLock;

use rand::Rng;
use serde::{DeError, Deserialize, Serialize, Value};

use crate::{Activation, Dense, DenseGrad, Init, Matrix};

/// A feed-forward network of [`Dense`] layers.
///
/// The paper's actor and critic are both `Mlp`s with two 128-unit
/// Leaky-ReLU hidden layers; the actor ends in a sigmoid so the action lands
/// in `[0, 1]^d` before being scaled to the RA's resource capacities
/// (Sec. VI-A); `edgeslice_rl::DdpgConfig::paper()` holds those shapes.
#[derive(Clone)]
pub struct Mlp {
    layers: Vec<Dense>,
    /// Each layer's weights laid out output-major (`in × out`, i.e. `Wᵀ`)
    /// for the batch-1 / fleet forward, filled on its first call and
    /// dropped by every `&mut self` method, so it never outlives the
    /// weights it copies. Not part of the network's value: equality,
    /// `Debug` and serialization see `layers` only.
    weights_t: OnceLock<Vec<Matrix>>,
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
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let layers = v
            .get_field("layers")
            .ok_or_else(|| DeError::missing_field("Mlp", "layers"))?;
        Ok(Self {
            layers: Vec::from_value(layers)?,
            weights_t: OnceLock::new(),
        })
    }
}

/// A reusable scratch arena for one network's training pass.
///
/// Holds the forward caches (per-layer inputs and pre-activations), the
/// backward buffers (activation deltas and per-layer input gradients) and
/// the parameter [`Gradients`] for one [`Mlp`]. All buffers are grown on
/// first use and reshaped in place afterwards, so a steady-state
/// `forward_scratch` + `backward_scratch` pair performs zero heap
/// allocations.
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
    /// Activation-weighted delta buffer, reused across layers.
    dz: Matrix,
    /// `∂L/∂(layer input)` per layer; `dx[0]` is `∂L/∂(network input)`,
    /// written by [`Mlp::backward_input_scratch`] only.
    dx: Vec<Matrix>,
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
        &self.dx[0]
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

/// A reusable scratch arena for batched multi-network inference
/// ([`Mlp::forward_fleet_scratch`]).
///
/// Callers stage one input row per (agent, batch) pair — [`FleetScratch::begin`]
/// shapes the stacked `(n_ra·batch) × in_dim` input, [`FleetScratch::set_input_row`]
/// fills it — and the forward pass ping-pongs between two activation
/// buffers. All buffers reshape in place, so steady-state fleet inference
/// performs zero heap allocations.
#[derive(Debug, Clone, Default)]
pub struct FleetScratch {
    /// Stacked input batch, one row per (agent, batch) pair.
    x: Matrix,
    /// Pre-activation buffer, reused across layers.
    z: Matrix,
    /// Activation ping buffer; holds the final output after a pass.
    cur: Matrix,
    /// Activation pong buffer.
    next: Matrix,
}

impl FleetScratch {
    /// A fresh, empty scratch. Buffers are sized lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reshapes the staged input batch to `rows × in_dim` in place. Row
    /// contents are unspecified until [`FleetScratch::set_input_row`]
    /// overwrites them.
    pub fn begin(&mut self, rows: usize, in_dim: usize) {
        self.x.resize_for(rows, in_dim);
    }

    /// Copies one input row into slot `i` of the staged batch.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds or `row.len() != in_dim`.
    pub fn set_input_row(&mut self, i: usize, row: &[f64]) {
        self.x.row_mut(i).copy_from_slice(row);
    }

    /// The staged input batch.
    pub fn input(&self) -> &Matrix {
        &self.x
    }

    /// The stacked network output of the last
    /// [`Mlp::forward_fleet_scratch`], row `i` corresponding to input row
    /// `i`.
    pub fn output(&self) -> &Matrix {
        &self.cur
    }
}

/// Per-layer parameter gradients for a whole network.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Gradients {
    /// One gradient per layer, in forward order.
    pub layers: Vec<DenseGrad>,
}

impl Gradients {
    /// A zero gradient shaped like `net`.
    pub fn zeros_like(net: &Mlp) -> Self {
        Self {
            layers: net.layers.iter().map(DenseGrad::zeros_like).collect(),
        }
    }

    /// Reshapes to match `net`, reusing allocations; values are
    /// unspecified afterwards.
    pub fn resize_like(&mut self, net: &Mlp) {
        self.layers
            .resize_with(net.layers.len(), DenseGrad::default);
        for (g, l) in self.layers.iter_mut().zip(&net.layers) {
            g.resize_like(l);
        }
    }

    /// `self += alpha * other`.
    pub fn axpy(&mut self, alpha: f64, other: &Gradients) {
        for (a, b) in self.layers.iter_mut().zip(&other.layers) {
            a.axpy(alpha, b);
        }
    }

    /// Multiplies all gradients by `alpha` in place.
    pub fn scale(&mut self, alpha: f64) {
        for g in &mut self.layers {
            g.scale(alpha);
        }
    }

    /// Global (whole-network) L2 norm.
    pub fn global_norm(&self) -> f64 {
        self.layers
            .iter()
            .map(DenseGrad::norm_sq)
            .sum::<f64>()
            .sqrt()
    }

    /// Rescales so the global norm does not exceed `max_norm`.
    pub fn clip_global_norm(&mut self, max_norm: f64) {
        let norm = self.global_norm();
        if norm > max_norm && norm > 0.0 {
            self.scale(max_norm / norm);
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

    /// The output-major weights of every layer, transposed from the live
    /// weights on first use after construction or a mutation. One fill per
    /// weight state: the steady-state forward reads it allocation-free.
    fn weights_t(&self) -> &[Matrix] {
        self.weights_t.get_or_init(|| {
            self.layers
                .iter()
                .map(|l| l.weights().transpose())
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

    /// Convenience forward pass for a single input vector: one row through
    /// [`Mlp::forward_fleet_scratch`] on a throw-away scratch, so the
    /// batch-1 forward has one implementation. Callers that decide every
    /// step keep a [`FleetScratch`] and call that directly.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != in_dim`.
    pub fn forward_one(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.in_dim(), "input length mismatch");
        let mut s = FleetScratch::new();
        s.begin(1, x.len());
        s.set_input_row(0, x);
        self.forward_fleet_scratch(&mut s);
        s.cur.into_vec()
    }

    /// Batched multi-network forward: one fused GEMM chain over the input
    /// batch staged in `s` (one row per (agent, batch) pair), replacing N
    /// per-agent [`Mlp::forward`] calls against shared-shape weights.
    ///
    /// Each layer runs as `x·Wᵀ` = `A·B` against the network's memoised
    /// output-major weights, so a one-row product vectorises across
    /// outputs. Output row `i` is **bit-identical** to `forward` on input
    /// row `i` alone: every GEMM output element is one accumulator over `k`
    /// ascending, a pure function of that input row and the weights —
    /// neither operand layout nor stacking rows changes an element's
    /// arithmetic. Returns the stacked output, also readable via
    /// [`FleetScratch::output`]. Allocation-free at steady state (the first
    /// call after construction or a weight mutation fills the memo).
    ///
    /// # Panics
    ///
    /// Panics if the staged input width differs from `in_dim`.
    pub fn forward_fleet_scratch<'s>(&self, s: &'s mut FleetScratch) -> &'s Matrix {
        assert_eq!(
            s.x.cols(),
            self.in_dim(),
            "fleet input width mismatch: staged {} vs network {}",
            s.x.cols(),
            self.in_dim()
        );
        let weights_t = self.weights_t();
        self.layers[0].forward_output_major_into(&s.x, &weights_t[0], &mut s.z, &mut s.cur);
        for (layer, wt) in self.layers[1..].iter().zip(&weights_t[1..]) {
            layer.forward_output_major_into(&s.cur, wt, &mut s.z, &mut s.next);
            std::mem::swap(&mut s.cur, &mut s.next);
        }
        &s.cur
    }

    /// Forward pass through a [`TrainScratch`], recording each layer's input
    /// and pre-activation for [`Mlp::backward_scratch`] /
    /// [`Mlp::backward_input_scratch`]. Allocation-free once the scratch has
    /// warmed up. The output stays readable via [`TrainScratch::output`].
    pub fn forward_scratch(&self, x: &Matrix, s: &mut TrainScratch) {
        let n = self.layers.len();
        s.inputs.resize_with(n, Matrix::default);
        s.pre.resize_with(n, Matrix::default);
        s.dx.resize_with(n, Matrix::default);
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
    /// the batch) in [`TrainScratch::grads`]. The first layer's input
    /// gradient (`∂L/∂input`) is not computed: a parameter update never
    /// reads it, and [`TrainScratch::d_input`] comes from
    /// [`Mlp::backward_input_scratch`] only. The recorded pass is left
    /// intact, so one forward can be backpropagated many times (TRPO's
    /// Fisher-vector products do).
    pub fn backward_scratch(&self, s: &mut TrainScratch, d_output: &Matrix) {
        s.grads.resize_like(self);
        let n = self.layers.len();
        for (idx, layer) in self.layers.iter().enumerate().rev() {
            let (lo, hi) = s.dx.split_at_mut(idx + 1);
            let upstream: &Matrix = if idx + 1 == n { d_output } else { &hi[0] };
            layer.backward_into(
                &s.inputs[idx],
                &s.pre[idx],
                s.inputs.get(idx + 1).unwrap_or(&s.output),
                upstream,
                &mut s.grads.layers[idx],
                &mut s.dz,
                (idx > 0).then_some(&mut lo[idx]),
            );
        }
    }

    /// Like [`Mlp::backward_scratch`] but computes only the input-gradient
    /// chain, skipping every layer's parameter gradients. Used when the
    /// network is differentiated purely for `∂L/∂input` (DDPG's and SAC's
    /// `∇_a Q(s, μ(s))`), leaving it in [`TrainScratch::d_input`]. Each
    /// layer's input gradient depends only on its delta and weights, so the
    /// chain is the one a full backward pass would compute.
    pub fn backward_input_scratch(&self, s: &mut TrainScratch, d_output: &Matrix) {
        let n = self.layers.len();
        for (idx, layer) in self.layers.iter().enumerate().rev() {
            let (lo, hi) = s.dx.split_at_mut(idx + 1);
            let upstream: &Matrix = if idx + 1 == n { d_output } else { &hi[0] };
            let output = s.inputs.get(idx + 1).unwrap_or(&s.output);
            layer.backward_input_into(&s.pre[idx], output, upstream, &mut s.dz, &mut lo[idx]);
        }
    }

    /// Flattens all parameters into a single vector (weights row-major, then
    /// bias, per layer, in forward order).
    pub fn flat_params(&self) -> Vec<f64> {
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
    pub fn set_flat_params(&mut self, params: &[f64]) {
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
    pub fn flat_grads(&self, grads: &Gradients) -> Vec<f64> {
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

        let eps = 1e-6;
        let mut params = n.flat_params();
        for p in 0..params.len() {
            let orig = params[p];
            params[p] = orig + eps;
            n.set_flat_params(&params);
            let up = n.forward(&x).sum();
            params[p] = orig - eps;
            n.set_flat_params(&params);
            let dn = n.forward(&x).sum();
            params[p] = orig;
            let fd = (up - dn) / (2.0 * eps);
            assert!(
                (fd - flat_grad[p]).abs() < 1e-5,
                "param {p}: fd={fd} an={}",
                flat_grad[p]
            );
        }
        n.set_flat_params(&params);

        // d_in finite difference.
        let mut x2 = x.clone();
        for r in 0..2 {
            for c in 0..3 {
                let orig = x2[(r, c)];
                x2[(r, c)] = orig + eps;
                let up = n.forward(&x2).sum();
                x2[(r, c)] = orig - eps;
                let dn = n.forward(&x2).sum();
                x2[(r, c)] = orig;
                let fd = (up - dn) / (2.0 * eps);
                assert!((fd - d_in[(r, c)]).abs() < 1e-5, "d_in[{r},{c}]");
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
        assert!((g.global_norm() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn soft_update_moves_toward_source() {
        let mut rng = StdRng::seed_from_u64(21);
        let mut a = Mlp::new(&[2, 4, 1], Activation::Relu, Activation::Identity, &mut rng);
        let b = Mlp::new(&[2, 4, 1], Activation::Relu, Activation::Identity, &mut rng);
        let d0: f64 = a
            .flat_params()
            .iter()
            .zip(b.flat_params())
            .map(|(x, y)| (x - y).powi(2))
            .sum();
        a.soft_update_from(&b, 0.5);
        let d1: f64 = a
            .flat_params()
            .iter()
            .zip(b.flat_params())
            .map(|(x, y)| (x - y).powi(2))
            .sum();
        assert!(d1 < d0);
    }
}
