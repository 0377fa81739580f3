//! Property-based tests over the substrate invariants the paper's resource
//! managers guarantee.

use edgeslice::{project_action_per_resource, reward, RewardParams};
use edgeslice_netsim::compute::{split_kernel, Kernel};
use edgeslice_netsim::radio::{EnodeB, Imsi, LteBand, UserEquipment};
use edgeslice_netsim::transport::{FlowMatch, IpAddr, ReconfigMode, SdnController};
use edgeslice_netsim::{AppProfile, GridDataset, RaCapacities, ServiceQueue};
use edgeslice_optim::project_sum_halfspace;
use proptest::prelude::*;

proptest! {
    #[test]
    fn scheduler_never_overflows_the_grid(
        shares in proptest::collection::vec(0.0f64..1.5, 1..6),
    ) {
        let mut enb = EnodeB::prototype(LteBand::Band7);
        for (s, _) in shares.iter().enumerate() {
            let ue = UserEquipment { imsi: Imsi(s as u64), band: LteBand::Band7 };
            enb.attach(ue);
            enb.associate(Imsi(s as u64), s);
        }
        let out = enb.schedule(&shares);
        prop_assert!(out.prbs_used() <= enb.total_prbs());
        prop_assert!(out.check_invariants());
    }

    #[test]
    fn kernel_split_preserves_work_and_bounds_occupancy(
        threads in 1u32..100_000,
        gflops in 0.0f64..1000.0,
        budget in 0u32..60_000,
    ) {
        let parts = split_kernel(Kernel::new(threads, gflops), budget);
        if budget == 0 {
            prop_assert!(parts.is_empty());
        } else {
            prop_assert_eq!(parts.iter().map(|k| k.threads).sum::<u32>(), threads);
            let total: f64 = parts.iter().map(|k| k.gflops).sum();
            prop_assert!((total - gflops).abs() < 1e-6);
            prop_assert!(parts.iter().all(|k| k.threads <= budget));
        }
    }

    #[test]
    fn make_before_break_never_drops_the_flow(
        rates in proptest::collection::vec(0.1f64..100.0, 1..20),
    ) {
        let mut ctl = SdnController::prototype();
        let flow = FlowMatch { src: IpAddr([10, 0, 0, 1]), dst: IpAddr([192, 168, 0, 1]) };
        for &r in &rates {
            ctl.set_bandwidth(flow, r, ReconfigMode::MakeBeforeBreak);
            prop_assert!(ctl.path_rate_mbps(flow) > 0.0, "flow went dark");
        }
        prop_assert_eq!(ctl.outage_seconds(), 0.0);
    }

    #[test]
    fn queue_conserves_flow(
        ops in proptest::collection::vec((0.0f64..20.0, 0.0f64..20.0), 1..200),
    ) {
        let mut q = ServiceQueue::new();
        let (mut accepted, mut served) = (0.0, 0.0);
        for (arrive, serve) in ops {
            accepted += q.arrive(arrive);
            served += q.serve(serve);
            prop_assert!(q.backlog() >= 0.0);
        }
        prop_assert!((accepted - served - q.backlog()).abs() < 1e-6);
    }

    #[test]
    fn halfspace_projection_is_feasible_and_idempotent(
        c in proptest::collection::vec(-100.0f64..100.0, 1..10),
        bound in -200.0f64..200.0,
    ) {
        let z = project_sum_halfspace(&c, bound);
        prop_assert!(z.iter().sum::<f64>() >= bound - 1e-9);
        let z2 = project_sum_halfspace(&z, bound);
        for (a, b) in z.iter().zip(&z2) {
            prop_assert!((a - b).abs() < 1e-9, "projection must be idempotent");
        }
        // KKT conditions of P2, `min ‖c − z‖² s.t. Σz ≥ bound`: every
        // `z − c` is one common `λ ≥ 0` (stationarity, dual feasibility),
        // and `λ > 0` only on a tight constraint (complementary slackness).
        let lambda = z[0] - c[0];
        prop_assert!(lambda >= 0.0, "negative multiplier {lambda}");
        for (zj, cj) in z.iter().zip(&c) {
            prop_assert!(((zj - cj) - lambda).abs() < 1e-9, "z − c is not one common λ");
        }
        if lambda > 0.0 {
            let slack = z.iter().sum::<f64>() - bound;
            prop_assert!(slack.abs() < 1e-9, "λ = {lambda} > 0 with slack {slack}");
        }
        if c.iter().sum::<f64>() >= bound {
            let unchanged = z.iter().zip(&c).all(|(a, b)| a.to_bits() == b.to_bits());
            prop_assert!(unchanged, "a feasible c must come back bit for bit");
        }
    }

    #[test]
    fn action_projection_feasible_and_ratio_preserving(
        action in proptest::collection::vec(0.0f64..1.0, 6),
    ) {
        let mut a = action.clone();
        project_action_per_resource(&mut a, 2);
        for k in 0..3 {
            let total = a[k] + a[3 + k];
            prop_assert!(total <= 1.0 + 1e-9, "resource {k} over capacity: {total}");
            // Ratio preservation when the original ratio is defined.
            if action[3 + k] > 1e-9 && a[3 + k] > 1e-9 {
                let before = action[k] / action[3 + k];
                let after = a[k] / a[3 + k];
                prop_assert!((before - after).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn reward_decreases_with_worse_performance(
        u in -100.0f64..0.0,
        delta in 0.1f64..50.0,
        zy in -50.0f64..0.0,
    ) {
        // For U at or below the consensus target, lowering U further must
        // lower the reward (monotonicity on the congested side).
        let params = RewardParams::paper();
        let target = zy / params.period as f64;
        let hi = u.min(target);
        let lo = hi - delta;
        let r_hi = reward(&params, &[hi], &[zy], &[0.5, 0.5, 0.5], &[1.0; 3]);
        let r_lo = reward(&params, &[lo], &[zy], &[0.5, 0.5, 0.5], &[1.0; 3]);
        prop_assert!(r_hi > r_lo, "reward not monotone: {r_hi} vs {r_lo}");
    }

    #[test]
    fn dataset_prediction_is_finite_and_nonnegative(
        r in 0.0f64..1.0,
        t in 0.0f64..1.0,
        c in 0.0f64..1.0,
    ) {
        let d = GridDataset::generate(AppProfile::compute_heavy(), RaCapacities::prototype());
        let pred = d.predict([r, t, c]);
        prop_assert!(pred.is_finite());
        prop_assert!(pred >= 0.0);
    }
}
