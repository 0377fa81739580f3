//! Baseline orchestration algorithms (paper Sec. VII-B).

use edgeslice_netsim::DomainShares;
use serde::{Deserialize, Serialize};

/// Traffic-aware resource orchestration (TARO): every resource is shared
/// proportionally to the slices' current queue lengths,
/// `x_{i,j}^{(t)} = Rtot_j · l_i / Σ_i l_i` — traffic-aware but blind to
/// the per-domain resource needs of each application.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Taro;

impl Taro {
    /// Creates the baseline.
    pub fn new() -> Self {
        Self
    }

    /// Allocates all three resources proportionally to `queue_lengths`.
    /// With an empty system (all queues zero) the capacity is split evenly.
    pub fn allocate(&self, queue_lengths: &[f64]) -> Vec<DomainShares> {
        proportional_shares(queue_lengths).collect()
    }

    /// The flat action-vector form of [`Taro::allocate`] (slice-major
    /// `[radio, transport, compute]` layout), for use wherever a learned
    /// policy's action is expected.
    pub fn action(&self, queue_lengths: &[f64]) -> Vec<f64> {
        let mut action = Vec::with_capacity(queue_lengths.len() * 3);
        self.action_into(queue_lengths, &mut action);
        action
    }

    /// [`Taro::action`] into a caller-owned buffer (cleared and refilled;
    /// allocation-free once its capacity has warmed up).
    pub fn action_into(&self, queue_lengths: &[f64], action: &mut Vec<f64>) {
        action.clear();
        action.extend(proportional_shares(queue_lengths).flat_map(|s| s.as_array()));
    }
}

/// Each slice's share triple, proportional to its (non-negative) queue
/// length; an even split when every queue is empty.
fn proportional_shares(queue_lengths: &[f64]) -> impl Iterator<Item = DomainShares> + '_ {
    let total: f64 = queue_lengths.iter().map(|l| l.max(0.0)).sum();
    let n = queue_lengths.len().max(1);
    queue_lengths.iter().map(move |&l| {
        let share = if total > 0.0 {
            l.max(0.0) / total
        } else {
            1.0 / n as f64
        };
        DomainShares::new(share, share, share)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_is_proportional_to_queues() {
        let taro = Taro::new();
        let shares = taro.allocate(&[30.0, 10.0]);
        assert!((shares[0].radio - 0.75).abs() < 1e-12);
        assert!((shares[1].radio - 0.25).abs() < 1e-12);
        // Same ratio in every domain — TARO's defining blindness.
        assert_eq!(shares[0].radio, shares[0].transport);
        assert_eq!(shares[0].radio, shares[0].compute);
    }

    #[test]
    fn allocation_saturates_capacity() {
        let taro = Taro::new();
        for lens in [&[5.0, 5.0][..], &[100.0, 1.0], &[0.0, 7.0]] {
            let shares = taro.allocate(lens);
            let sum: f64 = shares.iter().map(|s| s.radio).sum();
            assert!(
                (sum - 1.0).abs() < 1e-9,
                "TARO always uses the full capacity"
            );
        }
    }

    #[test]
    fn empty_system_splits_evenly() {
        let taro = Taro::new();
        let shares = taro.allocate(&[0.0, 0.0, 0.0]);
        for s in shares {
            assert!((s.radio - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn action_vector_layout() {
        let taro = Taro::new();
        let a = taro.action(&[1.0, 3.0]);
        assert_eq!(a.len(), 6);
        assert!((a[0] - 0.25).abs() < 1e-12);
        assert!((a[3] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn negative_queues_are_treated_as_empty() {
        let taro = Taro::new();
        let shares = taro.allocate(&[-5.0, 10.0]);
        assert_eq!(shares[0].radio, 0.0);
        assert!((shares[1].radio - 1.0).abs() < 1e-12);
    }
}
