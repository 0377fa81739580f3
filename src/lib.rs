//! # edgeslice-repro
//!
//! Umbrella crate for the EdgeSlice (ICDCS 2020) reproduction: re-exports
//! the workspace crates and hosts the runnable examples under `examples/`
//! and the cross-crate integration tests under `tests/`.
//!
//! Start from [`edgeslice`] (the system) or run
//! `cargo run --release --example quickstart`.

#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub use edgeslice;
pub use edgeslice_netsim as netsim;
pub use edgeslice_nn as nn;
pub use edgeslice_optim as optim;
pub use edgeslice_rl as rl;

#[cfg(test)]
mod tests {
    #[test]
    fn reexports_resolve() {
        let _ = crate::edgeslice::SystemConfig::prototype();
    }
}
