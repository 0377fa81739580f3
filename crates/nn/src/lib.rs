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
//! everything is 2-D `f64`, batch-major, and CPU-only, which is plenty for
//! the paper's 2×128 networks.
//!
//! # Examples
//!
//! Train a tiny regression:
//!
//! ```
//! use edgeslice_nn::{Activation, Adam, Matrix, Mlp, mse_loss};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let mut net = Mlp::new(&[1, 16, 1], Activation::Tanh, Activation::Identity, &mut rng);
//! let mut opt = Adam::new(&net, 1e-2);
//! let xs = Matrix::from_fn(16, 1, |i, _| i as f64 / 8.0 - 1.0);
//! let ys = xs.map(|x| x * x);
//! for _ in 0..200 {
//!     let cache = net.forward_cached(&xs);
//!     let (_, d) = mse_loss(cache.output(), &ys);
//!     let (grads, _) = net.backward(&cache, &d);
//!     opt.step(&mut net, &grads);
//! }
//! let (loss, _) = mse_loss(&net.forward(&xs), &ys);
//! assert!(loss < 0.05);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod activation;
mod init;
mod layer;
mod matrix;
mod network;
mod optimizer;
mod par;

pub use activation::{sigmoid, softplus, Activation};
pub use init::Init;
pub use layer::{Dense, DenseGrad};
pub use matrix::{GemmOp, Matrix, BLOCKED_MIN_ROWS, TILE_K, TILE_N};
pub use network::{FleetScratch, ForwardCache, Gradients, Mlp, TrainScratch};
pub use optimizer::{mse_loss, mse_loss_into, Adam};
pub use par::Parallelism;
