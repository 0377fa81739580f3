//! Policy checkpointing: persist a trained orchestration agent's policy
//! network and restore it as a frozen, deployable policy.
//!
//! A checkpoint captures only what's needed to *act* (the actor / policy
//! mean network and its decoding rule), not optimizer or replay state —
//! the unit an operator ships from the training cluster to the RAs.

use edgeslice_nn::{FleetScratch, Mlp};
use serde::{Deserialize, Serialize};

use crate::{AgentBackend, OrchestrationAgent, RaId};

/// How actions are decoded from the stored network's output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum Decode {
    /// The network output *is* the action (sigmoid head): DDPG, and the
    /// Gaussian mean networks of PPO/TRPO/VPG (clamped).
    Direct,
    /// The network emits `[μ | log σ]`; the action is `sigmoid(μ)`: SAC.
    SigmoidMeanHead,
}

/// A frozen, serializable policy.
///
/// # Examples
///
/// ```no_run
/// # use edgeslice::{PolicyCheckpoint, OrchestrationAgent};
/// # fn demo(agent: &OrchestrationAgent) {
/// let ckpt = PolicyCheckpoint::from_agent(agent);
/// let json = ckpt.to_json().unwrap();
/// let restored = PolicyCheckpoint::from_json(&json).unwrap();
/// let action = restored.decide(&[0.1, 0.2, 0.3, 0.4]);
/// # let _ = action;
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyCheckpoint {
    /// Serialization format version; [`PolicyCheckpoint::from_json`]
    /// rejects values other than [`POLICY_CHECKPOINT_VERSION`] (and, via
    /// the missing-field decode error, pre-versioned JSON without it).
    version: u32,
    technique: String,
    state_dim: usize,
    action_dim: usize,
    decode: Decode,
    network: Mlp,
}

/// The checkpoint format version this build reads and writes.
pub const POLICY_CHECKPOINT_VERSION: u32 = 1;

/// Errors from checkpoint (de)serialization.
#[derive(Debug)]
pub enum CheckpointError {
    /// The JSON was syntactically or structurally invalid.
    Malformed(String),
    /// The JSON parsed but declares a format version this build does not
    /// understand — failing loudly instead of deserializing garbage.
    UnsupportedVersion {
        /// Version declared by the file.
        found: u32,
        /// Version this build supports.
        supported: u32,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Malformed(msg) => write!(f, "checkpoint error: {msg}"),
            CheckpointError::UnsupportedVersion { found, supported } => write!(
                f,
                "checkpoint error: unsupported format version {found} (this build reads {supported})"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl PolicyCheckpoint {
    /// Extracts the policy from a trained agent.
    pub fn from_agent(agent: &OrchestrationAgent) -> Self {
        let (network, decode, action_dim) = match agent.backend() {
            AgentBackend::Ddpg(a) => (a.actor().clone(), Decode::Direct, a.actor().out_dim()),
            AgentBackend::Sac(a) => {
                let net = a.actor().clone();
                let ad = net.out_dim() / 2;
                (net, Decode::SigmoidMeanHead, ad)
            }
            AgentBackend::Ppo(a) => {
                let net = a.gaussian_policy().mean_net().clone();
                let ad = net.out_dim();
                (net, Decode::Direct, ad)
            }
            AgentBackend::Trpo(a) => {
                let net = a.gaussian_policy().mean_net().clone();
                let ad = net.out_dim();
                (net, Decode::Direct, ad)
            }
            AgentBackend::Vpg(a) => {
                let net = a.gaussian_policy().mean_net().clone();
                let ad = net.out_dim();
                (net, Decode::Direct, ad)
            }
        };
        Self {
            version: POLICY_CHECKPOINT_VERSION,
            technique: agent.technique().label().to_string(),
            state_dim: network.in_dim(),
            action_dim,
            decode,
            network,
        }
    }

    /// The format version this checkpoint was written with.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// The training technique the policy came from.
    pub fn technique(&self) -> &str {
        &self.technique
    }

    /// Expected state dimensionality.
    pub fn state_dim(&self) -> usize {
        self.state_dim
    }

    /// Produced action dimensionality.
    pub fn action_dim(&self) -> usize {
        self.action_dim
    }

    /// The greedy action for a state, identical to the source agent's
    /// [`OrchestrationAgent::decide`].
    ///
    /// # Panics
    ///
    /// Panics if `state.len() != state_dim()`.
    pub fn decide(&self, state: &[f64]) -> Vec<f64> {
        let mut action = Vec::with_capacity(self.action_dim);
        self.decide_into(state, &mut FleetScratch::new(), &mut action);
        action
    }

    /// [`PolicyCheckpoint::decide`] on caller-owned storage: the state is
    /// one row through the policy network's batched forward in `scratch`,
    /// decoded into `action` (cleared and refilled). Bit-identical to
    /// `decide`, and allocation-free once both buffers have warmed up —
    /// what a per-RA worker calls every interval.
    ///
    /// # Panics
    ///
    /// Panics if `state.len() != state_dim()`.
    pub fn decide_into(&self, state: &[f64], scratch: &mut FleetScratch, action: &mut Vec<f64>) {
        scratch.begin(1, state.len());
        scratch.set_input_row(0, state);
        let out = self.network.forward_fleet_scratch(scratch);
        self.decode_row(out.row(0), action);
    }

    /// True when `other` holds the same decode rule, dimensions, and
    /// bit-identical network parameters — i.e. the two policies produce
    /// identical actions on every state, so a [`crate::PolicyFleet`] may
    /// serve both from one fused batched forward.
    pub fn policy_bit_identical(&self, other: &PolicyCheckpoint) -> bool {
        self.decode == other.decode
            && self.state_dim == other.state_dim
            && self.action_dim == other.action_dim
            && self.network == other.network
    }

    /// The stored policy network (fleet inference runs the batched forward
    /// directly against it).
    pub(crate) fn network(&self) -> &Mlp {
        &self.network
    }

    /// Decodes one raw network-output row into `action` (cleared and
    /// refilled in place; allocation-free once capacity has warmed up).
    /// Element-for-element the same arithmetic as [`PolicyCheckpoint::decide`].
    pub(crate) fn decode_row(&self, row: &[f64], action: &mut Vec<f64>) {
        action.clear();
        match self.decode {
            Decode::Direct => action.extend(row.iter().map(|v| v.clamp(0.0, 1.0))),
            Decode::SigmoidMeanHead => action.extend(
                row[..self.action_dim]
                    .iter()
                    .map(|&v| edgeslice_nn::sigmoid(v)),
            ),
        }
    }

    /// Serializes to JSON.
    ///
    /// # Errors
    ///
    /// Returns an error if serialization fails (practically impossible for
    /// this structure).
    pub fn to_json(&self) -> Result<String, CheckpointError> {
        serde_json::to_string(self).map_err(|e| CheckpointError::Malformed(e.to_string()))
    }

    /// Restores from JSON.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Malformed`] on invalid input (including
    /// pre-versioned JSON with no `version` field) and
    /// [`CheckpointError::UnsupportedVersion`] when the `version` field
    /// names a format this build does not read.
    pub fn from_json(json: &str) -> Result<Self, CheckpointError> {
        let ckpt: Self =
            serde_json::from_str(json).map_err(|e| CheckpointError::Malformed(e.to_string()))?;
        if ckpt.version != POLICY_CHECKPOINT_VERSION {
            return Err(CheckpointError::UnsupportedVersion {
                found: ckpt.version,
                supported: POLICY_CHECKPOINT_VERSION,
            });
        }
        Ok(ckpt)
    }

    /// Rehydrates the checkpoint as a deployable frozen agent for `ra`.
    pub fn into_frozen_policy(self, ra: RaId) -> FrozenPolicy {
        FrozenPolicy {
            ra,
            checkpoint: self,
        }
    }
}

/// A deployed frozen policy bound to an RA.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrozenPolicy {
    ra: RaId,
    checkpoint: PolicyCheckpoint,
}

impl FrozenPolicy {
    /// The RA this policy serves.
    pub fn ra(&self) -> RaId {
        self.ra
    }

    /// The greedy action for a state.
    pub fn decide(&self, state: &[f64]) -> Vec<f64> {
        self.checkpoint.decide(state)
    }

    /// The underlying checkpoint (e.g. to re-checkpoint an RA that is
    /// already running a restored policy).
    pub fn checkpoint(&self) -> &PolicyCheckpoint {
        &self.checkpoint
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AgentConfig, RaEnvConfig, RaSliceEnv, SliceSpec};
    use edgeslice_netsim::PoissonTraffic;
    use edgeslice_rl::{Environment, Technique};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn env() -> RaSliceEnv {
        RaSliceEnv::with_dataset(
            RaEnvConfig::experiment(vec![
                SliceSpec::experiment_slice1(),
                SliceSpec::experiment_slice2(),
            ]),
            vec![
                Box::new(PoissonTraffic::paper()),
                Box::new(PoissonTraffic::paper()),
            ],
        )
    }

    #[test]
    fn round_trip_preserves_decisions_for_every_technique() {
        let mut rng = StdRng::seed_from_u64(0);
        let e = env();
        let cfg = AgentConfig::default();
        for t in Technique::ALL {
            let agent = OrchestrationAgent::new(RaId(0), t, &e, &cfg, &mut rng);
            let ckpt = PolicyCheckpoint::from_agent(&agent);
            let json = ckpt.to_json().unwrap();
            let restored = PolicyCheckpoint::from_json(&json).unwrap();
            let state = vec![0.4; e.state_dim()];
            for (a, b) in agent.decide(&state).iter().zip(restored.decide(&state)) {
                assert!(
                    (a - b).abs() <= 1e-12,
                    "{t}: checkpoint must reproduce the policy ({a} vs {b})"
                );
            }
            assert_eq!(restored.technique(), t.label());
            assert_eq!(restored.state_dim(), e.state_dim());
            assert_eq!(restored.action_dim(), e.action_dim());
        }
    }

    #[test]
    fn deciding_leaves_the_checkpoint_json_and_value_unchanged() {
        // The first decide fills the policy network's output-major weight
        // memo; it must not show in the checkpoint's JSON or equality.
        let mut rng = StdRng::seed_from_u64(3);
        let e = env();
        let agent = OrchestrationAgent::new(
            RaId(0),
            Technique::Ddpg,
            &e,
            &AgentConfig::default(),
            &mut rng,
        );
        let ckpt = PolicyCheckpoint::from_agent(&agent);
        let (cold, json) = (ckpt.clone(), ckpt.to_json().unwrap());
        let action = ckpt.decide(&vec![0.3; e.state_dim()]);
        assert_eq!(ckpt.to_json().unwrap(), json);
        assert_eq!(ckpt, cold);
        assert!(ckpt.policy_bit_identical(&cold));
        assert_eq!(cold.decide(&vec![0.3; e.state_dim()]), action);
    }

    #[test]
    fn frozen_policy_binds_an_ra() {
        let mut rng = StdRng::seed_from_u64(1);
        let e = env();
        let agent = OrchestrationAgent::new(
            RaId(0),
            Technique::Ddpg,
            &e,
            &AgentConfig::default(),
            &mut rng,
        );
        let frozen = PolicyCheckpoint::from_agent(&agent).into_frozen_policy(RaId(7));
        assert_eq!(frozen.ra(), RaId(7));
        let a = frozen.decide(&vec![0.1; e.state_dim()]);
        assert!(a.iter().all(|v| (0.0..=1.0).contains(v)));
    }

    #[test]
    fn malformed_json_is_an_error() {
        assert!(matches!(
            PolicyCheckpoint::from_json("{not json"),
            Err(CheckpointError::Malformed(_))
        ));
    }

    #[test]
    fn unknown_format_versions_fail_loudly() {
        let mut rng = StdRng::seed_from_u64(2);
        let e = env();
        let agent = OrchestrationAgent::new(
            RaId(0),
            Technique::Ddpg,
            &e,
            &AgentConfig::default(),
            &mut rng,
        );
        let json = PolicyCheckpoint::from_agent(&agent).to_json().unwrap();
        let current = format!("\"version\":{POLICY_CHECKPOINT_VERSION}");
        assert!(json.contains(&current), "version field must be serialized");

        // A future version must be rejected, not half-deserialized.
        let future = format!("\"version\":{}", POLICY_CHECKPOINT_VERSION + 1);
        let err = PolicyCheckpoint::from_json(&json.replacen(&current, &future, 1)).unwrap_err();
        assert!(matches!(
            err,
            CheckpointError::UnsupportedVersion { found, supported }
                if found == POLICY_CHECKPOINT_VERSION + 1
                    && supported == POLICY_CHECKPOINT_VERSION
        ));

        // Pre-versioned JSON (no `version` field) is rejected too.
        let legacy = json.replacen(&format!("{current},"), "", 1);
        assert!(!legacy.contains("version"));
        let err = PolicyCheckpoint::from_json(&legacy).unwrap_err();
        assert!(matches!(err, CheckpointError::Malformed(_)));
    }
}
