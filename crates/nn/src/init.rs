//! Weight initialization schemes.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::Matrix;

/// How to initialize the weights of a dense layer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Init {
    /// Glorot/Xavier uniform: `U(-b, b)` with `b = sqrt(6 / (fan_in + fan_out))`.
    /// Suited to sigmoid/tanh layers.
    XavierUniform,
    /// He/Kaiming uniform: `U(-b, b)` with `b = sqrt(6 / fan_in)`. Suited to
    /// (leaky) ReLU layers.
    HeUniform,
    /// Uniform on a fixed interval `U(-a, a)`. DDPG conventionally
    /// initializes final layers with a small interval (e.g. 3e-3) so the
    /// initial policy output is near the sigmoid midpoint.
    Uniform(f64),
    /// All zeros (used in tests).
    Zeros,
}

impl Init {
    /// Samples a `fan_out × fan_in` weight matrix: each weight is drawn in
    /// `f64` and narrowed to `f32`.
    pub fn sample(self, fan_out: usize, fan_in: usize, rng: &mut impl Rng) -> Matrix {
        let bound = match self {
            Init::XavierUniform => (6.0 / (fan_in + fan_out) as f64).sqrt(),
            Init::HeUniform => (6.0 / fan_in.max(1) as f64).sqrt(),
            Init::Uniform(a) => a,
            Init::Zeros => return Matrix::zeros(fan_out, fan_in),
        };
        Matrix::from_fn(fan_out, fan_in, |_, _| rng.gen_range(-bound..bound))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn xavier_bound_is_respected() {
        let mut rng = StdRng::seed_from_u64(1);
        let w = Init::XavierUniform.sample(64, 64, &mut rng);
        let b = (6.0 / 128.0f64).sqrt() as f32;
        assert!(w.as_slice().iter().all(|x| x.abs() <= b));
        // Not all zero.
        assert!(w.norm() > 0.0);
    }

    #[test]
    fn he_bound_is_respected() {
        let mut rng = StdRng::seed_from_u64(2);
        let w = Init::HeUniform.sample(16, 8, &mut rng);
        let b = (6.0 / 8.0f64).sqrt() as f32;
        assert!(w.as_slice().iter().all(|x| x.abs() <= b));
    }

    #[test]
    fn uniform_and_zeros() {
        let mut rng = StdRng::seed_from_u64(3);
        let w = Init::Uniform(3e-3).sample(4, 4, &mut rng);
        assert!(w.as_slice().iter().all(|x| x.abs() <= 3e-3));
        let z = Init::Zeros.sample(4, 4, &mut rng);
        assert_eq!(z, Matrix::zeros(4, 4));
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        assert_eq!(
            Init::XavierUniform.sample(8, 8, &mut a),
            Init::XavierUniform.sample(8, 8, &mut b)
        );
    }
}
