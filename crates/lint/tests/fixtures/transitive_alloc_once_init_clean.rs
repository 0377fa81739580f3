//! Fixture: a hot-path `*_scratch` fn reading a memo that is filled
//! through `OnceLock::get_or_init` (analyzed as crate `nn`). The
//! initializer allocates once per memo, not once per call, so the hot fn
//! stays clean. Lexed, never compiled.

use std::sync::OnceLock;

pub struct Net {
    weights: Vec<f64>,
    reversed: OnceLock<Vec<f64>>,
}

impl Net {
    fn reversed(&self) -> &[f64] {
        self.reversed
            .get_or_init(|| self.weights.iter().rev().copied().collect())
    }

    pub fn forward_scratch(&self, out: &mut [f64]) {
        out.copy_from_slice(self.reversed());
    }
}
