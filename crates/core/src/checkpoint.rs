//! Policy checkpointing: persist a trained orchestration agent's policy
//! network and restore it as a frozen, deployable policy.
//!
//! A checkpoint captures only what's needed to *act* (the actor / policy
//! mean network and its decoding rule), not optimizer or replay state —
//! the unit an operator ships from the training cluster to the RAs.

use edgeslice_nn::{Mlp, RowScratch};
use edgeslice_rl::Technique;
use serde::{DeError, Deserialize, Serialize, Value};

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
    technique: TechniqueLabel,
    state_dim: usize,
    action_dim: usize,
    decode: Decode,
    network: Mlp,
}

/// The technique a policy was trained with, written as its label
/// (`"DDPG"`, …): a checkpoint taken in process holds no text of its own,
/// and a label that names no technique does not decode.
#[derive(Debug, Clone, Copy, PartialEq)]
struct TechniqueLabel(Technique);

impl Serialize for TechniqueLabel {
    fn to_value(&self) -> Value {
        self.0.label().to_value()
    }
}

impl Deserialize for TechniqueLabel {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let label = String::from_value(v)?;
        let technique = Technique::ALL.into_iter().find(|t| t.label() == label);
        technique
            .map(TechniqueLabel)
            .ok_or_else(|| DeError::unknown_variant("Technique", &label))
    }
}

/// The checkpoint format version this build reads and writes.
///
/// Version history:
/// * 1 — `f64` network weights.
/// * 2 — `f32` network weights. A version-1 file is rejected rather than
///   narrowed into a network: its policy was trained in another precision.
pub(crate) const POLICY_CHECKPOINT_VERSION: u32 = 2;

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
            AgentBackend::OnPolicy(a) => {
                let net = a.gaussian_policy().mean_net().clone();
                let ad = net.out_dim();
                (net, Decode::Direct, ad)
            }
        };
        Self {
            version: POLICY_CHECKPOINT_VERSION,
            technique: TechniqueLabel(agent.technique()),
            state_dim: network.in_dim(),
            action_dim,
            decode,
            network,
        }
    }

    /// Expected state dimensionality.
    pub fn state_dim(&self) -> usize {
        self.state_dim
    }

    /// Produced action dimensionality.
    pub fn action_dim(&self) -> usize {
        self.action_dim
    }

    /// Whether this policy decides on `state_dim` inputs for `action_dim`
    /// shares: its declared dimensions are those, and its network — which
    /// a hand-edited file may have left without layers — reads and writes
    /// them.
    pub(crate) fn fits(&self, state_dim: usize, action_dim: usize) -> bool {
        let outputs = match self.decode {
            Decode::Direct => action_dim,
            Decode::SigmoidMeanHead => 2 * action_dim,
        };
        let layers = self.network.layers();
        let ends = layers.first().zip(layers.last());
        (self.state_dim, self.action_dim) == (state_dim, action_dim)
            && ends.map(|(a, z)| (a.in_dim(), z.out_dim())) == Some((state_dim, outputs))
    }

    /// The greedy action for a state, identical to the source agent's
    /// [`OrchestrationAgent::decide`].
    ///
    /// # Panics
    ///
    /// Panics if `state.len() != state_dim()`.
    pub fn decide(&self, state: &[f64]) -> Vec<f64> {
        let mut action = Vec::with_capacity(self.action_dim);
        self.decide_into(state, &mut RowScratch::new(), &mut action);
        action
    }

    /// [`PolicyCheckpoint::decide`] on caller-owned storage: the state is
    /// one row through the policy network's batch-1 forward in `scratch`,
    /// decoded into `action` (cleared and refilled), each share widened to
    /// `f64`: the seam where an action leaves the network. Bit-identical to
    /// `decide`, and allocation-free once both buffers have warmed up —
    /// what a per-RA worker calls every interval.
    ///
    /// # Panics
    ///
    /// Panics if `state.len() != state_dim()`.
    pub fn decide_into(&self, state: &[f64], scratch: &mut RowScratch, action: &mut Vec<f64>) {
        let row = self.network.forward_row(state, scratch);
        action.clear();
        let decoded = row[..self.action_dim].iter().map(|&v| match self.decode {
            Decode::Direct => v.clamp(0.0, 1.0),
            Decode::SigmoidMeanHead => edgeslice_nn::sigmoid(v),
        });
        action.extend(decoded.map(f64::from));
    }

    /// The stored policy network.
    #[cfg(test)]
    pub(crate) fn network(&self) -> &Mlp {
        &self.network
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
        let mut rng = crate::test_rng(0);
        let e = env();
        let cfg = AgentConfig::default();
        for t in Technique::ALL {
            let agent = OrchestrationAgent::new(RaId(0), t, &e, &cfg, &mut rng);
            let ckpt = PolicyCheckpoint::from_agent(&agent);
            let json = ckpt.to_json().unwrap();
            let restored = PolicyCheckpoint::from_json(&json).unwrap();
            let state = vec![0.4; e.state_dim()];
            assert_eq!(
                bits(&agent.decide(&state)),
                bits(&restored.decide(&state)),
                "{t}: checkpoint must reproduce the policy"
            );
            // The f32 weights survive the JSON round trip bit for bit.
            let weights = |c: &PolicyCheckpoint| -> Vec<u32> {
                let params = c.network().flat_params();
                params.iter().map(|w| w.to_bits()).collect()
            };
            assert_eq!(weights(&restored), weights(&ckpt), "{t}");
            assert_eq!(restored.technique, TechniqueLabel(t));
            let unknown = json.replace(&format!("\"{}\"", t.label()), "\"A2C\"");
            assert_ne!(unknown, json);
            assert!(matches!(
                PolicyCheckpoint::from_json(&unknown),
                Err(CheckpointError::Malformed(_))
            ));
            assert_eq!(restored.state_dim(), e.state_dim());
            assert_eq!(restored.action_dim(), e.action_dim());
        }
    }

    #[test]
    fn deciding_leaves_the_checkpoint_json_and_value_unchanged() {
        // The first decide fills the policy network's output-major weight
        // memo; it must not show in the checkpoint's JSON or equality.
        let mut rng = crate::test_rng(3);
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
        assert_eq!(cold.decide(&vec![0.3; e.state_dim()]), action);
    }

    #[test]
    fn frozen_policy_binds_an_ra() {
        let mut rng = crate::test_rng(1);
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

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// The three decide paths — the agent's own, a checkpoint's
    /// `decide_into`, and a fleet's — narrow the same states into the same
    /// f32 network and widen the same actions: bit for bit, on random
    /// states, over every technique's policy at once. The fleet holds each
    /// technique's distinct checkpoint and a clone of it, and one scratch
    /// serves every checkpoint's `decide_into`, its networks' widths
    /// differing (SAC's head is twice the action wide).
    #[test]
    fn decide_paths_agree_bit_for_bit_on_random_states() {
        use rand::Rng;
        let mut rng = crate::test_rng(4);
        let e = env();
        let cfg = AgentConfig::default();
        let agents: Vec<OrchestrationAgent> = Technique::ALL
            .iter()
            .map(|&t| OrchestrationAgent::new(RaId(0), t, &e, &cfg, &mut rng))
            .collect();
        let ckpts: Vec<PolicyCheckpoint> =
            agents.iter().map(PolicyCheckpoint::from_agent).collect();
        let policies = ckpts.iter().flat_map(|c| [c.clone(), c.clone()]).collect();
        let mut fleet = crate::PolicyFleet::new(policies, crate::Parallelism::Sequential);
        let (mut scratch, mut action, mut actions) = (RowScratch::new(), Vec::new(), Vec::new());
        for _ in 0..20 {
            let states: Vec<Vec<f64>> = (0..2 * agents.len())
                .map(|_| {
                    (0..e.state_dim())
                        .map(|_| rng.gen_range(-4.0..4.0))
                        .collect()
                })
                .collect();
            fleet.decide_into(&states, &mut actions);
            for (i, (state, fleet_action)) in states.iter().zip(&actions).enumerate() {
                let t = agents[i / 2].technique();
                let want = bits(&agents[i / 2].decide(state));
                ckpts[i / 2].decide_into(state, &mut scratch, &mut action);
                assert_eq!(bits(&action), want, "{t}: checkpoint decide_into");
                assert_eq!(bits(fleet_action), want, "{t}: fleet decide_into");
            }
        }
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
        let mut rng = crate::test_rng(2);
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

        // A version-1 (f64-weight) checkpoint is rejected, never narrowed
        // into a network.
        let v1 = json.replacen(&current, "\"version\":1", 1);
        assert!(matches!(
            PolicyCheckpoint::from_json(&v1),
            Err(CheckpointError::UnsupportedVersion {
                found: 1,
                supported: 2
            })
        ));

        // Pre-versioned JSON (no `version` field) is rejected too.
        let legacy = json.replacen(&format!("{current},"), "", 1);
        assert!(!legacy.contains("version"));
        let err = PolicyCheckpoint::from_json(&legacy).unwrap_err();
        assert!(matches!(err, CheckpointError::Malformed(_)));
    }
}
