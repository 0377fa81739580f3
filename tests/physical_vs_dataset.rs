//! Consistency between the two service models: the Fig. 5 grid-dataset
//! environment (used for training) and the physical RA substrates (the
//! prototype path).

use edgeslice::{RaEnvConfig, RaSliceEnv, ServiceModel, SliceSpec};
use edgeslice_netsim::{PoissonTraffic, ResourceAutonomy, TrafficSource};
use edgeslice_rl::Environment;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn traffic() -> Vec<Box<dyn TrafficSource + Send>> {
    vec![
        Box::new(PoissonTraffic::paper()),
        Box::new(PoissonTraffic::paper()),
    ]
}

fn config() -> RaEnvConfig {
    RaEnvConfig::experiment(vec![
        SliceSpec::experiment_slice1(),
        SliceSpec::experiment_slice2(),
    ])
}

#[test]
fn service_times_agree_on_grid_actions() {
    let mut phys = RaSliceEnv::new(
        config(),
        traffic(),
        ServiceModel::Physical(Box::new(ResourceAutonomy::prototype(0, 2))),
    );
    let mut data = RaSliceEnv::with_dataset(config(), traffic());
    let mut rng_a = StdRng::seed_from_u64(5);
    let mut rng_b = StdRng::seed_from_u64(5);
    phys.reset(&mut rng_a);
    data.reset(&mut rng_b);

    // Actions whose radio share lands on whole PRBs (multiples of 1/25
    // that are also grid multiples of 0.1 for the dataset: 0.2, 0.4, 0.6).
    // The last one runs on a degraded transport and compute domain; radio
    // stays whole, since a halved radio share lands off whole PRBs.
    for (scale, action) in [
        ([1.0; 3], [0.6, 0.5, 0.4, 0.4, 0.5, 0.6]),
        ([1.0; 3], [0.2, 0.3, 0.1, 0.8, 0.7, 0.9]),
        ([1.0; 3], [0.4, 0.4, 0.4, 0.6, 0.6, 0.6]),
        ([1.0, 0.5, 0.5], [0.6, 0.4, 0.6, 0.4, 0.6, 0.4]),
    ] {
        phys.set_capacity_scale(scale);
        data.set_capacity_scale(scale);
        phys.advance(&action, &mut rng_a);
        data.advance(&action, &mut rng_b);
        for (i, (a, b)) in phys
            .last_service_times()
            .iter()
            .zip(data.last_service_times())
            .enumerate()
        {
            let rel = (a - b).abs() / b.max(1e-9);
            assert!(
                rel < 0.05,
                "slice {i}: physical {a} vs dataset {b} (action {action:?}, scale {scale:?})"
            );
        }
    }
}

#[test]
fn both_models_starve_zero_allocated_slices() {
    let mut phys = RaSliceEnv::new(
        config(),
        traffic(),
        ServiceModel::Physical(Box::new(ResourceAutonomy::prototype(0, 2))),
    );
    let mut data = RaSliceEnv::with_dataset(config(), traffic());
    let mut rng = StdRng::seed_from_u64(6);
    let mut rng_b = StdRng::seed_from_u64(6);
    phys.reset(&mut rng);
    data.reset(&mut rng_b);
    let action = [1.0, 1.0, 1.0, 0.0, 0.0, 0.0];
    phys.advance(&action, &mut rng);
    data.advance(&action, &mut rng_b);
    assert!(phys.last_service_times()[1].is_infinite() || phys.last_service_times()[1] > 1e3);
    assert!(data.last_service_times()[1] > 1e3);
}

#[test]
fn dataset_env_is_much_faster_than_physical() {
    // Not a benchmark, just the structural reason training uses the
    // dataset: stepping it must not be slower than the physical path by
    // more than an order of magnitude (it is in fact faster; this guards
    // against accidental regressions that would make training impractical).
    use std::time::Instant;
    let mut data = RaSliceEnv::with_dataset(config(), traffic());
    let mut rng = StdRng::seed_from_u64(7);
    data.reset(&mut rng);
    let action = [0.5; 6];
    let start = Instant::now();
    for _ in 0..200 {
        data.advance(&action, &mut rng);
    }
    let dataset_time = start.elapsed();
    assert!(
        dataset_time.as_millis() < 1_000,
        "dataset env step too slow: {dataset_time:?} for 200 steps"
    );
}
