//! Radio access network simulator — the OpenAirInterface substitute.
//!
//! Reproduces the mechanics the paper's **radio manager** controls
//! (Sec. V-A): an eNodeB exposes a grid of physical resource blocks (PRBs)
//! in PUSCH/PDSCH; a slice-aware MAC scheduler maps each slice's virtual
//! radio resources to **consecutive** PRBs and skips users whose slice holds
//! no radio resources; the user↔slice association is learned from the IMSI
//! carried in the S1AP initial UE message, with no modification on the UE
//! side.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// International mobile subscriber identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Imsi(pub u64);

impl fmt::Display for Imsi {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "imsi-{:015}", self.0)
    }
}

/// LTE frequency band. The prototype's eNodeBs operate on bands 7 and 38 to
/// avoid co-channel interference (Sec. VI-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LteBand {
    /// FDD band 7 (2600 MHz).
    Band7,
    /// TDD band 38 (2600 MHz).
    Band38,
}

/// A mobile user with band-selection capability (the prototype pins each
/// phone to one band so it attaches to exactly one eNodeB).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct UserEquipment {
    /// The user's IMSI.
    pub imsi: Imsi,
    /// The only band this UE searches.
    pub band: LteBand,
}

/// An S1AP message from the eNodeB toward the MME. Only the initial UE
/// message matters here: it is where the radio manager transparently
/// extracts the IMSI (Sec. V-A).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum S1apMessage {
    /// UE attach: carries the IMSI in the NAS payload.
    InitialUeMessage {
        /// eNodeB-local UE identifier.
        enb_ue_id: u32,
        /// The attaching user's IMSI.
        imsi: Imsi,
    },
    /// Any other S1AP procedure (ignored by the extractor).
    Other,
}

/// Extracts the IMSI from an S1AP message if it is an attach.
pub fn extract_imsi(msg: &S1apMessage) -> Option<Imsi> {
    match msg {
        S1apMessage::InitialUeMessage { imsi, .. } => Some(*imsi),
        S1apMessage::Other => None,
    }
}

/// One user's PRB assignment within a scheduling interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PrbAssignment {
    /// First PRB index.
    pub start: u32,
    /// Number of PRBs.
    pub count: u32,
}

/// An eNodeB with a slice-aware PRB scheduler.
///
/// The prototype uses 5 MHz cells: 25 PRBs (Sec. VI-A, Table II).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnodeB {
    band: LteBand,
    total_prbs: u32,
    /// Peak cell throughput at full PRB allocation, Mb/s.
    cell_rate_mbps: f64,
    /// IMSI → slice index, learned from S1AP.
    associations: BTreeMap<Imsi, usize>,
    attached: Vec<UserEquipment>,
}

impl EnodeB {
    /// Creates an eNodeB. `total_prbs` must be positive.
    ///
    /// # Panics
    ///
    /// Panics on a zero PRB grid or non-positive rate.
    pub fn new(band: LteBand, total_prbs: u32, cell_rate_mbps: f64) -> Self {
        assert!(total_prbs > 0, "an eNodeB needs at least one PRB");
        assert!(cell_rate_mbps > 0.0, "cell rate must be positive");
        Self {
            band,
            total_prbs,
            cell_rate_mbps,
            associations: BTreeMap::new(),
            attached: Vec::new(),
        }
    }

    /// The prototype's configuration: 5 MHz → 25 PRBs, ~18 Mb/s peak.
    pub fn prototype(band: LteBand) -> Self {
        Self::new(band, 25, 18.0)
    }

    /// The operating band.
    pub(crate) fn band(&self) -> LteBand {
        self.band
    }

    /// PRBs in the grid.
    pub fn total_prbs(&self) -> u32 {
        self.total_prbs
    }

    /// Peak cell rate in Mb/s.
    pub fn cell_rate_mbps(&self) -> f64 {
        self.cell_rate_mbps
    }

    /// Attempts to attach a UE; rejects UEs searching a different band
    /// (band selection, Sec. VI-A). On success the S1AP initial UE message
    /// is returned so a radio manager can learn the association.
    pub fn attach(&mut self, ue: UserEquipment) -> Option<S1apMessage> {
        if ue.band != self.band {
            return None;
        }
        if !self.attached.contains(&ue) {
            self.attached.push(ue);
        }
        Some(S1apMessage::InitialUeMessage {
            enb_ue_id: self.attached.len() as u32 - 1,
            imsi: ue.imsi,
        })
    }

    /// Records an IMSI → slice association (the radio manager calls this
    /// after extracting the IMSI from S1AP).
    pub fn associate(&mut self, imsi: Imsi, slice: usize) {
        self.associations.insert(imsi, slice);
    }

    /// Schedules one interval.
    ///
    /// `slice_shares[s]` is slice `s`'s virtual radio resource as a fraction
    /// of the cell (`Σ ≤ 1` after capacity projection; shares beyond the
    /// grid are truncated). Users are scheduled **consecutively** in attach
    /// order; a user whose slice holds zero PRBs is not scheduled at all
    /// (vanilla OAI cannot do this — it is the new MAC behaviour of
    /// Sec. V-A). Each slice's PRBs are divided evenly among its attached
    /// users.
    pub fn schedule(&self, slice_shares: &[f64]) -> ScheduleOutcome {
        // Convert shares to PRB counts, truncating to the grid.
        let mut slice_prbs: Vec<u32> = slice_shares
            .iter()
            .map(|&f| (f.max(0.0) * self.total_prbs as f64).floor() as u32)
            .collect();
        let mut total: u32 = slice_prbs.iter().sum();
        // Trim overshoot (defensive: callers should have projected already).
        while total > self.total_prbs {
            if let Some(m) = slice_prbs.iter_mut().max() {
                *m -= 1;
                total -= 1;
            }
        }

        // Count users per slice.
        let mut users_per_slice = vec![0u32; slice_shares.len()];
        for ue in &self.attached {
            if let Some(&s) = self.associations.get(&ue.imsi) {
                if s < users_per_slice.len() {
                    users_per_slice[s] += 1;
                }
            }
        }

        let mut assignments = BTreeMap::new();
        let mut next_prb = 0u32;
        // Per-slice index of the next user to schedule (earliest users in a
        // slice absorb the division remainder).
        let mut slice_user_idx = vec![0u32; slice_shares.len()];
        for ue in &self.attached {
            let Some(&s) = self.associations.get(&ue.imsi) else {
                continue;
            };
            if s >= slice_prbs.len() || slice_prbs[s] == 0 || users_per_slice[s] == 0 {
                continue; // zero-resource users are not scheduled
            }
            let base = slice_prbs[s] / users_per_slice[s];
            let remainder = slice_prbs[s] % users_per_slice[s];
            let share = base + u32::from(slice_user_idx[s] < remainder);
            slice_user_idx[s] += 1;
            if share == 0 {
                continue;
            }
            assignments.insert(
                ue.imsi,
                PrbAssignment {
                    start: next_prb,
                    count: share,
                },
            );
            next_prb += share;
        }
        ScheduleOutcome {
            assignments,
            total_prbs: self.total_prbs,
            cell_rate_mbps: self.cell_rate_mbps,
        }
    }
}

/// The result of one scheduling interval.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduleOutcome {
    assignments: BTreeMap<Imsi, PrbAssignment>,
    total_prbs: u32,
    cell_rate_mbps: f64,
}

impl ScheduleOutcome {
    /// Number of PRBs granted in total.
    pub fn prbs_used(&self) -> u32 {
        self.assignments.values().map(|a| a.count).sum()
    }

    /// The data rate `imsi` obtains this interval, Mb/s: its PRB share of
    /// the cell.
    pub(crate) fn user_rate_mbps(&self, imsi: Imsi) -> f64 {
        match self.assignments.get(&imsi) {
            Some(a) => self.cell_rate_mbps * a.count as f64 / self.total_prbs as f64,
            None => 0.0,
        }
    }

    /// Verifies the scheduler invariants: no grid overflow, assignments
    /// consecutive and non-overlapping.
    pub fn check_invariants(&self) -> bool {
        if self.prbs_used() > self.total_prbs {
            return false;
        }
        let mut spans: Vec<(u32, u32)> = self
            .assignments
            .values()
            .map(|a| (a.start, a.start + a.count))
            .collect();
        spans.sort_unstable();
        spans.windows(2).all(|w| w[0].1 <= w[1].0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enb_with_users(n_slices: usize, users_per_slice: usize) -> EnodeB {
        let mut enb = EnodeB::prototype(LteBand::Band7);
        let mut next = 1000;
        for s in 0..n_slices {
            for _ in 0..users_per_slice {
                let ue = UserEquipment {
                    imsi: Imsi(next),
                    band: LteBand::Band7,
                };
                let msg = enb.attach(ue).expect("band matches");
                let imsi = extract_imsi(&msg).expect("attach carries IMSI");
                enb.associate(imsi, s);
                next += 1;
            }
        }
        enb
    }

    #[test]
    fn attach_rejects_wrong_band() {
        let mut enb = EnodeB::prototype(LteBand::Band7);
        let ue = UserEquipment {
            imsi: Imsi(1),
            band: LteBand::Band38,
        };
        assert!(enb.attach(ue).is_none());
        assert!(enb.attached.is_empty());
    }

    #[test]
    fn imsi_extraction_from_s1ap() {
        assert_eq!(
            extract_imsi(&S1apMessage::InitialUeMessage {
                enb_ue_id: 0,
                imsi: Imsi(42)
            }),
            Some(Imsi(42))
        );
        assert_eq!(extract_imsi(&S1apMessage::Other), None);
    }

    #[test]
    fn schedule_respects_slice_shares() {
        let enb = enb_with_users(2, 1);
        let out = enb.schedule(&[0.6, 0.4]);
        assert!(out.check_invariants());
        // 0.6 * 25 = 15 PRBs, 0.4 * 25 = 10 PRBs.
        assert_eq!(out.assignments[&Imsi(1000)].count, 15);
        assert_eq!(out.assignments[&Imsi(1001)].count, 10);
    }

    #[test]
    fn zero_share_user_is_not_scheduled() {
        let enb = enb_with_users(2, 1);
        let out = enb.schedule(&[1.0, 0.0]);
        assert!(out.assignments.contains_key(&Imsi(1000)));
        assert!(!out.assignments.contains_key(&Imsi(1001)));
        assert_eq!(out.user_rate_mbps(Imsi(1001)), 0.0);
    }

    #[test]
    fn assignments_are_consecutive() {
        let enb = enb_with_users(2, 2);
        let out = enb.schedule(&[0.5, 0.5]);
        assert!(out.check_invariants());
        let mut spans: Vec<(u32, u32)> = out
            .assignments
            .values()
            .map(|a| (a.start, a.count))
            .collect();
        spans.sort_unstable();
        // Users are packed back-to-back from PRB 0.
        let mut expected_start = 0;
        for (start, count) in spans {
            assert_eq!(start, expected_start);
            expected_start = start + count;
        }
    }

    #[test]
    fn shares_within_slice_are_balanced() {
        let enb = enb_with_users(1, 3);
        let out = enb.schedule(&[1.0]);
        let counts: Vec<u32> = out.assignments.values().map(|a| a.count).collect();
        assert_eq!(counts.iter().sum::<u32>(), 25);
        let max = counts.iter().max().unwrap();
        let min = counts.iter().min().unwrap();
        assert!(max - min <= 1, "uneven split {counts:?}");
    }

    #[test]
    fn overshooting_shares_are_trimmed_to_grid() {
        let enb = enb_with_users(2, 1);
        let out = enb.schedule(&[0.9, 0.9]);
        assert!(out.prbs_used() <= 25);
        assert!(out.check_invariants());
    }

    #[test]
    fn user_rate_scales_with_prbs() {
        let enb = enb_with_users(1, 1);
        let full = enb.schedule(&[1.0]).user_rate_mbps(Imsi(1000));
        let half = enb.schedule(&[0.48]).user_rate_mbps(Imsi(1000));
        assert!((full - 18.0).abs() < 1e-9);
        assert!((half - 18.0 * 12.0 / 25.0).abs() < 1e-9);
    }

    #[test]
    fn unassociated_user_is_ignored() {
        let mut enb = EnodeB::prototype(LteBand::Band7);
        enb.attach(UserEquipment {
            imsi: Imsi(5),
            band: LteBand::Band7,
        });
        let out = enb.schedule(&[1.0]);
        assert!(!out.assignments.contains_key(&Imsi(5)));
    }
}
