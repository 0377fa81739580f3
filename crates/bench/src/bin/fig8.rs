//! Figure 8 — the orchestration agent evaluated **without** central
//! coordination, to expose its learned policy.
//!
//! (a) CDF of slice performance under randomly generated traffic loads for
//! EdgeSlice / EdgeSlice-NT / TARO;
//! (b)–(d) average resource-usage ratio `η1/η2` vs the two slices' traffic
//! loads, one panel per algorithm. `η_i = Σ_k x_{i,j,k} / rtot_{j,k}`.

#![cfg_attr(not(test), deny(clippy::float_cmp))]

use edgeslice::{
    AgentConfig, OrchestrationAgent, RaEnvConfig, RaId, RaSliceEnv, SliceSpec, StateSpec, Taro,
};
use edgeslice_bench::{cdf, fraction_at_least, Knobs};
use edgeslice_netsim::{BlockRandomPoisson, PoissonTraffic, TrafficSource};
use edgeslice_rl::{Environment, Technique};
use rand::rngs::StdRng;

const COORD: [f64; 2] = [-25.0, -25.0];
const EPISODES: usize = 150;

fn make_env(spec: StateSpec, traffic: Vec<Box<dyn TrafficSource + Send>>) -> RaSliceEnv {
    let mut config = RaEnvConfig::experiment(vec![
        SliceSpec::experiment_slice1(),
        SliceSpec::experiment_slice2(),
    ]);
    config.state_spec = spec;
    RaSliceEnv::with_dataset(config, traffic)
}

fn random_traffic(seed: u64) -> Vec<Box<dyn TrafficSource + Send>> {
    vec![
        Box::new(BlockRandomPoisson::new(5.0, 20.0, 10, seed)),
        Box::new(BlockRandomPoisson::new(5.0, 20.0, 10, seed ^ 0xABCD)),
    ]
}

/// Policy under test: learned agent or TARO.
enum Policy<'a> {
    Agent(&'a OrchestrationAgent),
    Taro(Taro),
}

impl Policy<'_> {
    fn act(&self, env: &RaSliceEnv) -> Vec<f64> {
        match self {
            Policy::Agent(a) => {
                let mut action = a.decide(&env.observe());
                edgeslice::project_action_per_resource(&mut action, env.n_slices());
                action
            }
            Policy::Taro(t) => t.action(&env.queue_lengths()),
        }
    }
}

/// Runs `episodes` 10-interval episodes; returns per-interval per-slice
/// performance samples and mean per-slice usage `η`.
fn evaluate(
    env: &mut RaSliceEnv,
    policy: &Policy,
    episodes: usize,
    rng: &mut StdRng,
) -> (Vec<f64>, [f64; 2]) {
    env.set_randomize_coord(false);
    env.set_coordination(&COORD);
    let mut perf_samples = Vec::new();
    let mut eta = [0.0f64; 2];
    let mut n = 0usize;
    for _ in 0..episodes {
        env.reset(rng);
        env.clear_queues();
        for _ in 0..10 {
            let action = policy.act(env);
            let (_, perf) = env.advance(&action, rng);
            perf_samples.extend_from_slice(&perf);
            for (i, sh) in env.last_shares().iter().enumerate() {
                let a = sh.as_array();
                eta[i] += a.iter().sum::<f64>();
            }
            n += 1;
        }
    }
    for e in &mut eta {
        *e /= n.max(1) as f64;
    }
    (perf_samples, eta)
}

fn main() {
    let knobs = Knobs::from_env();

    // Train both learned agents under randomized traffic so the policy sees
    // the whole load range.
    eprintln!("training EdgeSlice agent ...");
    let mut rng = knobs.rng(0);
    let mut env_full = make_env(StateSpec::Full, random_traffic(11));
    let mut agent_full = OrchestrationAgent::new(
        RaId(0),
        Technique::Ddpg,
        &env_full,
        &AgentConfig::default(),
        &mut rng,
    );
    agent_full.train(&mut env_full, knobs.train_steps, &mut rng);

    eprintln!("training EdgeSlice-NT agent ...");
    let mut rng_nt = knobs.rng(1);
    let mut env_nt = make_env(StateSpec::CoordinationOnly, random_traffic(13));
    let mut agent_nt = OrchestrationAgent::new(
        RaId(0),
        Technique::Ddpg,
        &env_nt,
        &AgentConfig::default(),
        &mut rng_nt,
    );
    agent_nt.train(&mut env_nt, knobs.train_steps, &mut rng_nt);

    println!("=== Fig. 8 (a): CDF of slice performance under random traffic ===");
    let arms: Vec<(&str, StateSpec, Policy)> = vec![
        ("EdgeSlice", StateSpec::Full, Policy::Agent(&agent_full)),
        (
            "EdgeSlice-NT",
            StateSpec::CoordinationOnly,
            Policy::Agent(&agent_nt),
        ),
        ("TARO", StateSpec::Full, Policy::Taro(Taro::new())),
    ];
    for (label, spec, policy) in &arms {
        let mut rng = knobs.rng(100);
        let mut env = make_env(*spec, random_traffic(99));
        let (samples, _) = evaluate(&mut env, policy, EPISODES, &mut rng);
        let curve = cdf(&samples);
        // Print deciles of the CDF.
        print!("{label:>14}: ");
        for q in 1..=9 {
            let idx = (curve.len() * q / 10).min(curve.len() - 1);
            print!("p{}0={:.1} ", q, curve[idx].0);
        }
        println!();
        println!(
            "{:>14}  fraction of slice performance >= -30: {:.0}%  (paper: ES 80%, NT 55%, TARO 11%)",
            "", 100.0 * fraction_at_least(&samples, -30.0)
        );
    }

    println!("\n=== Fig. 8 (b)-(d): usage ratio η1/η2 vs slice traffic ===");
    let loads = [5.0, 10.0, 15.0, 20.0];
    for (label, spec, policy) in &arms {
        println!("\n{label}: rows = slice-1 load, cols = slice-2 load");
        print!("{:>8}", "λ1\\λ2");
        for l2 in loads {
            print!("  {l2:>7.0}");
        }
        println!();
        for l1 in loads {
            print!("{l1:>8.0}");
            for l2 in loads {
                let mut rng = knobs.rng(200 + (l1 * 31.0 + l2) as u64);
                let mut env = make_env(
                    *spec,
                    vec![
                        Box::new(PoissonTraffic::new(l1)) as Box<dyn TrafficSource + Send>,
                        Box::new(PoissonTraffic::new(l2)),
                    ],
                );
                let (_, eta) = evaluate(&mut env, policy, 20, &mut rng);
                let ratio = if eta[1] > 1e-9 {
                    eta[0] / eta[1]
                } else {
                    f64::INFINITY
                };
                print!("  {ratio:>7.2}");
            }
            println!();
        }
    }
    println!("\n(paper: EdgeSlice's ratio tracks both loads; EdgeSlice-NT is constant; TARO follows queue ratio only)");
}
