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

/// A channel quality indicator (3GPP 36.213: 1–15).
///
/// The prototype's smartphones report CQI per subframe; the scheduler maps
/// it to a modulation-and-coding scheme whose spectral efficiency scales
/// the rate each PRB delivers. The simulator defaults every UE to CQI 15
/// (the paper's bench-distance radio conditions) and lets experiments
/// degrade individual users.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Cqi(u8);

impl Cqi {
    /// The best reportable channel quality.
    pub const MAX: Cqi = Cqi(15);

    /// Creates a CQI.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ value ≤ 15`.
    pub fn new(value: u8) -> Self {
        assert!((1..=15).contains(&value), "CQI must be 1..=15, got {value}");
        Self(value)
    }

    /// The raw index.
    pub fn value(self) -> u8 {
        self.0
    }

    /// Spectral efficiency in bits/s/Hz from the 3GPP 36.213 CQI table
    /// (QPSK 0.1523 … 64-QAM 5.5547).
    pub fn spectral_efficiency(self) -> f64 {
        const TABLE: [f64; 15] = [
            0.1523, 0.2344, 0.3770, 0.6016, 0.8770, 1.1758, 1.4766, 1.9141, 2.4063, 2.7305, 3.3223,
            3.9023, 4.5234, 5.1152, 5.5547,
        ];
        TABLE[(self.0 - 1) as usize]
    }

    /// Rate scaling relative to the peak MCS (CQI 15 → 1.0).
    pub fn rate_factor(self) -> f64 {
        self.spectral_efficiency() / Cqi::MAX.spectral_efficiency()
    }
}

impl Default for Cqi {
    fn default() -> Self {
        Cqi::MAX
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
    /// IMSI → last reported channel quality (absent ⇒ CQI 15).
    cqi: BTreeMap<Imsi, Cqi>,
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
            cqi: BTreeMap::new(),
        }
    }

    /// The prototype's configuration: 5 MHz → 25 PRBs, ~18 Mb/s peak.
    pub fn prototype(band: LteBand) -> Self {
        Self::new(band, 25, 18.0)
    }

    /// The operating band.
    pub fn band(&self) -> LteBand {
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

    /// Attached UEs, in attach order.
    pub fn attached_users(&self) -> &[UserEquipment] {
        &self.attached
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

    /// Records a UE's reported channel quality (default CQI 15).
    pub fn report_cqi(&mut self, imsi: Imsi, cqi: Cqi) {
        self.cqi.insert(imsi, cqi);
    }

    /// The channel quality currently assumed for `imsi`.
    pub fn cqi_of(&self, imsi: Imsi) -> Cqi {
        self.cqi.get(&imsi).copied().unwrap_or_default()
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
        let rate_factors = assignments
            .keys()
            .map(|imsi| (*imsi, self.cqi_of(*imsi).rate_factor()))
            .collect();
        ScheduleOutcome {
            assignments,
            rate_factors,
            total_prbs: self.total_prbs,
            cell_rate_mbps: self.cell_rate_mbps,
        }
    }
}

/// The result of one scheduling interval.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduleOutcome {
    assignments: BTreeMap<Imsi, PrbAssignment>,
    /// Per-user MCS rate factor at schedule time (CQI-derived).
    rate_factors: BTreeMap<Imsi, f64>,
    total_prbs: u32,
    cell_rate_mbps: f64,
}

impl ScheduleOutcome {
    /// The PRB assignment for `imsi`, if the user was scheduled.
    pub fn assignment(&self, imsi: Imsi) -> Option<PrbAssignment> {
        self.assignments.get(&imsi).copied()
    }

    /// All scheduled users.
    pub fn scheduled_users(&self) -> impl Iterator<Item = (&Imsi, &PrbAssignment)> {
        self.assignments.iter()
    }

    /// Number of PRBs granted in total.
    pub fn prbs_used(&self) -> u32 {
        self.assignments.values().map(|a| a.count).sum()
    }

    /// The data rate `imsi` obtains this interval, Mb/s: its PRB share of
    /// the cell, scaled by the MCS its reported CQI supports.
    pub fn user_rate_mbps(&self, imsi: Imsi) -> f64 {
        match self.assignments.get(&imsi) {
            Some(a) => {
                let factor = self.rate_factors.get(&imsi).copied().unwrap_or(1.0);
                self.cell_rate_mbps * factor * a.count as f64 / self.total_prbs as f64
            }
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
        assert!(enb.attached_users().is_empty());
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
        assert_eq!(out.assignment(Imsi(1000)).unwrap().count, 15);
        assert_eq!(out.assignment(Imsi(1001)).unwrap().count, 10);
    }

    #[test]
    fn zero_share_user_is_not_scheduled() {
        let enb = enb_with_users(2, 1);
        let out = enb.schedule(&[1.0, 0.0]);
        assert!(out.assignment(Imsi(1000)).is_some());
        assert!(out.assignment(Imsi(1001)).is_none());
        assert_eq!(out.user_rate_mbps(Imsi(1001)), 0.0);
    }

    #[test]
    fn assignments_are_consecutive() {
        let enb = enb_with_users(2, 2);
        let out = enb.schedule(&[0.5, 0.5]);
        assert!(out.check_invariants());
        let mut spans: Vec<(u32, u32)> = out
            .scheduled_users()
            .map(|(_, a)| (a.start, a.count))
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
        let counts: Vec<u32> = out.scheduled_users().map(|(_, a)| a.count).collect();
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
    fn cqi_scales_user_rate() {
        let mut enb = enb_with_users(1, 1);
        let full = enb.schedule(&[1.0]).user_rate_mbps(Imsi(1000));
        enb.report_cqi(Imsi(1000), Cqi::new(7));
        let degraded = enb.schedule(&[1.0]).user_rate_mbps(Imsi(1000));
        let expected = full * Cqi::new(7).rate_factor();
        assert!((degraded - expected).abs() < 1e-9);
        assert!(
            degraded < full * 0.3,
            "CQI 7 is roughly a quarter of peak MCS"
        );
    }

    #[test]
    fn cqi_table_is_monotone() {
        for v in 1..15u8 {
            assert!(
                Cqi::new(v).spectral_efficiency() < Cqi::new(v + 1).spectral_efficiency(),
                "CQI {v}"
            );
        }
        assert_eq!(Cqi::default(), Cqi::MAX);
        assert!((Cqi::MAX.rate_factor() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "CQI must be 1..=15")]
    fn cqi_zero_rejected() {
        Cqi::new(0);
    }

    #[test]
    fn unassociated_user_is_ignored() {
        let mut enb = EnodeB::prototype(LteBand::Band7);
        enb.attach(UserEquipment {
            imsi: Imsi(5),
            band: LteBand::Band7,
        });
        let out = enb.schedule(&[1.0]);
        assert!(out.assignment(Imsi(5)).is_none());
    }
}
