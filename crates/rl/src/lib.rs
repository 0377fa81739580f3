//! # edgeslice-rl
//!
//! Deep reinforcement learning for the EdgeSlice reproduction.
//!
//! The paper's orchestration agents are trained with **DDPG** (Sec. IV-B2,
//! Fig. 3); Fig. 10b additionally compares **SAC**, **PPO**, **TRPO** and
//! **VPG**. All five are implemented here over a common [`Environment`]
//! abstraction with actions normalized to `[0, 1]` per dimension — exactly
//! the range of the paper's sigmoid actor output — so any learner can drive
//! any slicing environment.
//!
//! # Examples
//!
//! ```no_run
//! use edgeslice_rl::{Ddpg, DdpgConfig, Environment};
//! use rand::SeedableRng;
//!
//! fn train<E: Environment>(env: &mut E) {
//!     let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//!     let mut agent = Ddpg::new(env.state_dim(), env.action_dim(), DdpgConfig::default(), &mut rng);
//!     agent.train(env, 10_000, &mut rng);
//!     let action = agent.policy(&vec![0.0; env.state_dim()]);
//!     assert_eq!(action.len(), env.action_dim());
//! }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

// The DDPG oracle is shared with the root package's integration tests,
// where this crate is `edgeslice_rl`; the alias lets it name it the same
// way from the unit tests.
#[cfg(test)]
extern crate self as edgeslice_rl;
#[cfg(test)]
#[path = "../tests/support/ddpg_oracle.rs"]
mod ddpg_oracle;

mod common;
mod ddpg;
mod env;
mod noise;
mod ppo;
mod replay;
mod sac;
mod trpo;
mod value;
mod vpg;

pub use common::{
    collect_rollout, discounted_returns, gae, normalize_advantages, GaussianPolicy, Rollout,
};
pub use ddpg::{Ddpg, DdpgConfig, DdpgUpdate};
pub use env::{evaluate, Environment, Step, Transition};
pub use noise::{sample_standard_normal, DecayingGaussian};
pub use ppo::{Ppo, PpoConfig, PpoUpdate};
pub use replay::{Batch, ReplayBuffer, SampleError};
pub use sac::{Sac, SacConfig, SacUpdate};
pub use trpo::{Trpo, TrpoConfig, TrpoUpdate};
pub use value::ValueNet;
pub use vpg::{Vpg, VpgConfig, VpgUpdate};

/// The training technique used by an orchestration agent, enumerating
/// Fig. 10b's comparison axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Technique {
    /// Deep deterministic policy gradient (the paper's choice).
    Ddpg,
    /// Soft actor-critic.
    Sac,
    /// Proximal policy optimization.
    Ppo,
    /// Trust region policy optimization.
    Trpo,
    /// Vanilla policy gradient.
    Vpg,
}

impl Technique {
    /// All techniques in the order Fig. 10b plots them.
    pub const ALL: [Technique; 5] = [
        Technique::Ddpg,
        Technique::Sac,
        Technique::Ppo,
        Technique::Trpo,
        Technique::Vpg,
    ];

    /// Display label matching the paper's x-axis.
    pub fn label(self) -> &'static str {
        match self {
            Technique::Ddpg => "DDPG",
            Technique::Sac => "SAC",
            Technique::Ppo => "PPO",
            Technique::Trpo => "TRPO",
            Technique::Vpg => "VPG",
        }
    }
}

impl std::fmt::Display for Technique {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn technique_labels() {
        assert_eq!(Technique::Ddpg.label(), "DDPG");
        assert_eq!(Technique::ALL.len(), 5);
        assert_eq!(Technique::Sac.to_string(), "SAC");
    }
}
