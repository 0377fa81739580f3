//! # edgeslice-nn
//!
//! A small, dependency-light neural-network library backing the EdgeSlice
//! reproduction. It provides exactly what the paper's learning stack needs
//! (Sec. VI-A): dense [`Mlp`]s with Leaky-ReLU hidden layers and sigmoid
//! outputs, manual backpropagation, [`Adam`] optimization, Polyak (soft)
//! target updates, and flat-parameter views used by TRPO's conjugate-
//! gradient machinery.
//!
//! It intentionally does **not** try to be a general tensor framework:
//! everything is 2-D `f32` (the paper's GPU working precision), batch-major,
//! and CPU-only, which is plenty for the paper's 2×128 networks. Callers
//! stay in `f64`: states, actions and hyper-parameters narrow on the way in
//! and actions and reductions widen on the way out.
//!
//! # Examples
//!
//! Train a tiny regression:
//!
//! ```
//! use edgeslice_nn::{mse_loss_into, Activation, Adam, Matrix, Mlp, TrainScratch};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let mut net = Mlp::new(&[1, 16, 1], Activation::Tanh, Activation::Identity, &mut rng);
//! let mut opt = Adam::new(&net, 1e-2);
//! let xs = Matrix::from_fn(16, 1, |i, _| i as f64 / 8.0 - 1.0);
//! let ys = Matrix::from_fn(16, 1, |i, _| f64::from(xs[(i, 0)]).powi(2));
//! // One scratch per (network, role): it keeps the forward's per-layer
//! // inputs for the backward, and all of its buffers are reused.
//! let (mut scratch, mut d_pred) = (TrainScratch::new(), Matrix::default());
//! for _ in 0..200 {
//!     net.forward_scratch(&xs, &mut scratch);
//!     mse_loss_into(scratch.output(), &ys, &mut d_pred);
//!     net.backward_scratch(&mut scratch, &d_pred);
//!     opt.step(&mut net, scratch.grads());
//! }
//! let loss = mse_loss_into(&net.forward(&xs), &ys, &mut d_pred);
//! assert!(loss < 0.05);
//! ```

#![cfg_attr(not(test), deny(clippy::float_cmp))]

mod activation;
mod init;
mod layer;
mod matrix;
mod network;
mod optimizer;

pub use activation::{sigmoid, Activation};
pub use init::Init;
pub use layer::{Dense, DenseGrad};
pub use matrix::{GemmOp, Matrix, BLOCKED_MIN_ROWS, TILE_K, TILE_N};
pub use network::{Gradients, Mlp, RowScratch, TrainScratch};
pub use optimizer::{mse_loss_into, Adam};
