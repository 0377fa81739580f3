//! Coordination-overhead accounting.
//!
//! A core argument for EdgeSlice's decentralization (Sec. II) is that a
//! centralized learning agent "needs to obtain network performance data
//! from all the network nodes, which introduces excessive communication
//! overhead and delay", while the coordinator "only exchanges slight
//! coordinating information with orchestration agents". This module
//! models that claim: it counts the paper's exchange — one scalar per
//! slice per RA each way per coordination round — and compares it with
//! what an equivalent centralized design would ship. It is a model of the
//! paper's protocol, not a meter of this runtime's: a runtime report frame
//! carries the RA's whole row grid and its round-boundary state besides
//! (`runtime.frame.report_bytes` in the benchmark measures it).

use serde::{Deserialize, Serialize};

/// Size of one scalar on the wire (f64).
const SCALAR: usize = 8;

/// The control-plane traffic of one coordination round, in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoundTraffic {
    /// Coordinator → agents: the coordinating information `z − y`.
    pub downlink: usize,
    /// Agents → coordinator: the achieved per-period performance.
    pub uplink: usize,
}

impl RoundTraffic {
    /// Total bytes per round.
    pub fn total(&self) -> usize {
        self.downlink + self.uplink
    }
}

/// Communication model of a slicing control plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OverheadModel {
    /// Number of slices `|I|`.
    pub n_slices: usize,
    /// Number of RAs `|J|`.
    pub n_ras: usize,
    /// Number of resources `|K|`.
    pub n_resources: usize,
    /// Time intervals per period `T`.
    pub period: usize,
}

impl OverheadModel {
    /// EdgeSlice (decentralized): per round, each agent receives one scalar
    /// per slice (`z−y`) and sends one scalar per slice (`Σ_t U`); states,
    /// actions and rewards never leave the RA.
    pub fn edgeslice_round(&self) -> RoundTraffic {
        let per_ra = self.n_slices * SCALAR;
        RoundTraffic {
            downlink: per_ra * self.n_ras,
            uplink: per_ra * self.n_ras,
        }
    }

    /// A centralized learner: every interval, each RA ships its full local
    /// state (queue lengths per slice) and performance (per slice) to the
    /// center and receives its resource orchestration (one scalar per
    /// slice×resource) — `T` exchanges per period instead of one.
    pub fn centralized_round(&self) -> RoundTraffic {
        let uplink_per_interval = self.n_ras * (2 * self.n_slices) * SCALAR;
        let downlink_per_interval = self.n_ras * self.n_slices * self.n_resources * SCALAR;
        RoundTraffic {
            downlink: downlink_per_interval * self.period,
            uplink: uplink_per_interval * self.period,
        }
    }

    /// Overhead reduction factor of EdgeSlice vs the centralized design.
    pub fn reduction_factor(&self) -> f64 {
        self.centralized_round().total() as f64 / self.edgeslice_round().total().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> OverheadModel {
        OverheadModel {
            n_slices: 5,
            n_ras: 10,
            n_resources: 3,
            period: 24,
        }
    }

    #[test]
    fn edgeslice_round_is_two_scalars_per_slice_ra() {
        let t = model().edgeslice_round();
        assert_eq!(t.downlink, 5 * 10 * 8);
        assert_eq!(t.uplink, 5 * 10 * 8);
        assert_eq!(t.total(), 800);
    }

    #[test]
    fn centralized_ships_every_interval() {
        let t = model().centralized_round();
        // Uplink: 10 RAs × (queues + perf = 10 scalars) × 24 intervals.
        assert_eq!(t.uplink, 10 * 10 * 8 * 24);
        // Downlink: 10 RAs × 15 action scalars × 24 intervals.
        assert_eq!(t.downlink, 10 * 15 * 8 * 24);
    }

    #[test]
    fn decentralization_wins_by_more_than_an_order_of_magnitude() {
        let f = model().reduction_factor();
        assert!(f > 10.0, "reduction factor {f}");
    }

    #[test]
    fn reduction_grows_with_period_length() {
        let short = OverheadModel {
            period: 10,
            ..model()
        }
        .reduction_factor();
        let long = OverheadModel {
            period: 100,
            ..model()
        }
        .reduction_factor();
        assert!(long > short);
    }
}
