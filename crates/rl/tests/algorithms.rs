//! Cross-algorithm integration tests: every technique must be able to
//! learn the same continuous-control task through the common
//! [`Environment`] interface — the property Fig. 10b relies on.

use edgeslice_nn::Matrix;
use edgeslice_rl::{
    evaluate, Ddpg, DdpgConfig, Environment, GaussianPolicy, Ppo, PpoConfig, Sac, SacConfig, Step,
    Trpo, TrpoConfig, ValueNet, Vpg, VpgConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A 2-D bandit-with-state: reward peaks when the action mirrors the state.
#[derive(Debug, Clone)]
struct MirrorEnv {
    state: [f64; 2],
    steps: usize,
    horizon: usize,
}

impl MirrorEnv {
    fn new(horizon: usize) -> Self {
        Self {
            state: [0.5, 0.5],
            steps: 0,
            horizon,
        }
    }
}

impl Environment for MirrorEnv {
    fn state_dim(&self) -> usize {
        2
    }

    fn action_dim(&self) -> usize {
        2
    }

    fn reset(&mut self, rng: &mut StdRng) -> Vec<f64> {
        self.state = [rng.gen_range(0.1..0.9), rng.gen_range(0.1..0.9)];
        self.steps = 0;
        self.state.to_vec()
    }

    fn step(&mut self, action: &[f64], rng: &mut StdRng) -> Step {
        let err: f64 = action
            .iter()
            .zip(&self.state)
            .map(|(a, s)| (a - s) * (a - s))
            .sum();
        self.state = [rng.gen_range(0.1..0.9), rng.gen_range(0.1..0.9)];
        self.steps += 1;
        Step {
            next_state: self.state.to_vec(),
            reward: 1.0 - err,
            done: self.steps >= self.horizon,
        }
    }
}

/// Perfect play earns `horizon`; uniform-random play roughly
/// `horizon * (1 - 2/12 - ...) ≈ 0.83 horizon`.
const HORIZON: usize = 16;
const TARGET: f64 = 15.0;

fn score(policy: impl FnMut(&[f64]) -> Vec<f64>, rng: &mut StdRng) -> f64 {
    let mut env = MirrorEnv::new(HORIZON);
    evaluate(&mut env, policy, 10, HORIZON, rng)
}

#[test]
fn ddpg_learns_mirror() {
    let mut rng = StdRng::seed_from_u64(1);
    let mut env = MirrorEnv::new(HORIZON);
    // The mirror task is a contextual bandit (next state independent of
    // the action, horizon not observable): a small γ keeps the critic's
    // bootstrap from chasing the hidden time-to-go.
    let cfg = DdpgConfig {
        hidden: 16,
        batch_size: 32,
        warmup: 200,
        noise_sigma: 0.4,
        gamma: 0.3,
        ..Default::default()
    };
    let mut agent = Ddpg::new(2, 2, cfg, &mut rng);
    agent.train(&mut env, 4_000, &mut rng);
    let s = score(|st| agent.policy(st), &mut rng);
    assert!(s > TARGET, "DDPG score {s:.2}");
}

#[test]
fn sac_learns_mirror() {
    let mut rng = StdRng::seed_from_u64(2);
    let mut env = MirrorEnv::new(HORIZON);
    let cfg = SacConfig {
        hidden: 16,
        batch_size: 32,
        warmup: 100,
        ..Default::default()
    };
    let mut agent = Sac::new(2, 2, cfg, &mut rng);
    agent.train(&mut env, 2_500, &mut rng);
    let s = score(|st| agent.policy(st), &mut rng);
    assert!(s > TARGET - 0.7, "SAC score {s:.2}");
}

#[test]
fn ppo_learns_mirror() {
    let mut rng = StdRng::seed_from_u64(3);
    let mut env = MirrorEnv::new(HORIZON);
    let cfg = PpoConfig {
        hidden: 16,
        rollout_len: 256,
        policy_lr: 1e-3,
        ..Default::default()
    };
    let mut agent = Ppo::new(2, 2, cfg, &mut rng);
    agent.train(&mut env, 25, &mut rng);
    let s = score(|st| agent.policy(st), &mut rng);
    assert!(s > TARGET - 0.7, "PPO score {s:.2}");
}

#[test]
fn trpo_learns_mirror() {
    let mut rng = StdRng::seed_from_u64(4);
    let mut env = MirrorEnv::new(HORIZON);
    let cfg = TrpoConfig {
        hidden: 16,
        rollout_len: 256,
        ..Default::default()
    };
    let mut agent = Trpo::new(2, 2, cfg, &mut rng);
    agent.train(&mut env, 25, &mut rng);
    let s = score(|st| agent.policy(st), &mut rng);
    assert!(s > TARGET - 1.0, "TRPO score {s:.2}");
}

#[test]
fn vpg_learns_mirror() {
    let mut rng = StdRng::seed_from_u64(5);
    let mut env = MirrorEnv::new(HORIZON);
    let cfg = VpgConfig {
        hidden: 16,
        rollout_len: 256,
        ..Default::default()
    };
    let mut agent = Vpg::new(2, 2, cfg, &mut rng);
    agent.train(&mut env, 35, &mut rng);
    let s = score(|st| agent.policy(st), &mut rng);
    assert!(s > TARGET - 1.5, "VPG score {s:.2}");
}

#[test]
fn all_policies_emit_unit_box_actions() {
    let mut rng = StdRng::seed_from_u64(6);
    let env = MirrorEnv::new(HORIZON);
    let _ = &env;
    let state = [0.25, 0.75];
    let ddpg = Ddpg::new(2, 2, DdpgConfig::default(), &mut rng);
    let sac = Sac::new(2, 2, SacConfig::default(), &mut rng);
    let ppo = Ppo::new(2, 2, PpoConfig::default(), &mut rng);
    let trpo = Trpo::new(2, 2, TrpoConfig::default(), &mut rng);
    let vpg = Vpg::new(2, 2, VpgConfig::default(), &mut rng);
    for action in [
        ddpg.policy(&state),
        sac.policy(&state),
        ppo.policy(&state),
        trpo.policy(&state),
        vpg.policy(&state),
    ] {
        assert_eq!(action.len(), 2);
        assert!(action.iter().all(|a| (0.0..=1.0).contains(a)), "{action:?}");
    }
}

/// FNV-1a over the IEEE bit patterns of `values`: one flipped bit anywhere
/// changes the digest.
fn bits_digest<'a>(values: impl IntoIterator<Item = &'a f64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn policy_digest(policy: &GaussianPolicy) -> u64 {
    let mut values = policy.mean_net().flat_params();
    values.extend_from_slice(policy.log_std());
    bits_digest(&values)
}

/// Pins every float of the Fig. 10b comparators' training: SAC, PPO, TRPO
/// and VPG each train a few fixed-seed updates on the mirror task, and a
/// standalone `ValueNet` fits a fixed regression. The digests were recorded
/// before the comparators moved onto the scratch-arena training pass; any
/// reordered add, skipped term or changed RNG draw in their updates shows
/// here as a different digest, in about a second instead of a full `fig10`
/// run.
#[test]
fn comparator_training_is_bit_pinned() {
    let mut rng = StdRng::seed_from_u64(31);
    let mut env = MirrorEnv::new(HORIZON);
    let mut sac = Sac::new(
        2,
        2,
        SacConfig {
            hidden: 12,
            batch_size: 16,
            warmup: 40,
            ..Default::default()
        },
        &mut rng,
    );
    sac.train(&mut env, 160, &mut rng);
    let sac_digest = bits_digest(&sac.actor().flat_params());

    let mut ppo = Ppo::new(
        2,
        2,
        PpoConfig {
            hidden: 12,
            rollout_len: 96,
            epochs: 3,
            minibatch: 32,
            ..Default::default()
        },
        &mut rng,
    );
    ppo.train(&mut env, 3, &mut rng);
    let ppo_digest = policy_digest(ppo.gaussian_policy());

    let mut trpo = Trpo::new(
        2,
        2,
        TrpoConfig {
            hidden: 12,
            rollout_len: 96,
            value_epochs: 3,
            ..Default::default()
        },
        &mut rng,
    );
    // At least one accepted trust-region step, so the digest covers the
    // Fisher-vector products and not only the initial weights.
    let accepted = (0..3)
        .filter(|_| trpo.update(&mut env, &mut rng).accepted)
        .count();
    assert!(accepted > 0, "no TRPO step was accepted");
    let trpo_digest = policy_digest(trpo.gaussian_policy());

    let mut vpg = Vpg::new(
        2,
        2,
        VpgConfig {
            hidden: 12,
            rollout_len: 96,
            value_epochs: 3,
            ..Default::default()
        },
        &mut rng,
    );
    vpg.train(&mut env, 3, &mut rng);
    let vpg_digest = policy_digest(vpg.gaussian_policy());

    let mut value = ValueNet::new(2, 12, 1e-2, &mut rng);
    let states = Matrix::from_fn(40, 2, |i, j| ((3 * i + j) as f64 * 0.37).sin());
    let targets: Vec<f64> = (0..40)
        .map(|i| states[(i, 0)] - 0.5 * states[(i, 1)])
        .collect();
    value.fit(&states, &targets, 4, 16, &mut rng);
    let probe = Matrix::from_fn(5, 2, |i, j| (i as f64 - 2.0) * 0.3 + j as f64 * 0.1);
    let value_digest = bits_digest(&value.predict(&probe));

    let got = [
        sac_digest,
        ppo_digest,
        trpo_digest,
        vpg_digest,
        value_digest,
    ];
    let want = [
        0x3ed4_13a0_4526_6022,
        0x48ab_ad58_9601_0d0f,
        0xb3d9_8dc8_bd97_1ba4,
        0x86e0_a6a7_89ed_78e1,
        0xe2c1_c4b6_4130_74a2,
    ];
    assert_eq!(
        got.map(|d| format!("{d:016x}")),
        want.map(|d: u64| format!("{d:016x}")),
        "[SAC, PPO, TRPO, VPG, ValueNet] parameter digests moved"
    );
}
