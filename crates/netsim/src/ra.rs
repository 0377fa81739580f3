//! A resource autonomy (RA): one eNodeB + one transport path + one edge
//! GPU, the unit an orchestration agent manages (paper Sec. II, VI-A).

use serde::{Deserialize, Serialize};

use crate::app::{service_time_seconds, AppProfile};
use crate::compute::{Gpu, Kernel, TenantId};
use crate::radio::{extract_imsi, EnodeB, Imsi, LteBand, UserEquipment};
use crate::transport::{FlowMatch, IpAddr, ReconfigMode, SdnController};

/// A slice's end-to-end allocation inside one RA, as fractions of the RA's
/// radio / transport / computing capacity (the three resources `k ∈ K`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DomainShares {
    /// Radio share ∈ [0, 1].
    pub radio: f64,
    /// Transport share ∈ [0, 1].
    pub transport: f64,
    /// Computing share ∈ [0, 1].
    pub compute: f64,
}

impl DomainShares {
    /// Creates a share triple, clamping each component into `[0, 1]`.
    pub fn new(radio: f64, transport: f64, compute: f64) -> Self {
        Self {
            radio: radio.clamp(0.0, 1.0),
            transport: transport.clamp(0.0, 1.0),
            compute: compute.clamp(0.0, 1.0),
        }
    }

    /// The shares as a `[radio, transport, compute]` array.
    pub fn as_array(&self) -> [f64; 3] {
        [self.radio, self.transport, self.compute]
    }
}

/// Per-slice effective service rates produced by one RA configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SliceRates {
    /// Scheduled radio rate, Mb/s.
    pub radio_mbps: f64,
    /// Metered transport rate, Mb/s.
    pub transport_mbps: f64,
    /// Granted GPU throughput, GFLOPs/s.
    pub compute_gflops_s: f64,
}

/// One resource autonomy, wiring the three domain simulators together.
///
/// The prototype hosts 1 user per slice per RA (Sec. VI-A); this model does
/// the same — each slice's allocation inside the RA serves a single
/// representative user whose IMSI and IP identify the slice in the radio
/// and transport domains respectively.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResourceAutonomy {
    enodeb: EnodeB,
    transport: SdnController,
    gpu: Gpu,
    /// Total RAN↔edge link bandwidth, Mb/s (prototype: 80).
    link_mbps: f64,
    /// Per-slice representative users.
    users: Vec<RaUser>,
    reconfig_mode: ReconfigMode,
}

/// A slice's representative user within an RA.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct RaUser {
    imsi: Imsi,
    flow: FlowMatch,
    tenant: TenantId,
}

impl ResourceAutonomy {
    /// Builds an RA with prototype-equivalent hardware (Table II): a 25-PRB
    /// eNodeB, a 6-switch 80 Mb/s transport path, and a 51200-thread GPU —
    /// then attaches one user per slice.
    pub fn prototype(ra_index: usize, n_slices: usize) -> Self {
        let band = if ra_index.is_multiple_of(2) {
            LteBand::Band7
        } else {
            LteBand::Band38
        };
        Self::new(
            EnodeB::prototype(band),
            SdnController::prototype(),
            Gpu::prototype(),
            80.0,
            ra_index,
            n_slices,
        )
    }

    /// Builds an RA from explicit substrates. One user per slice is
    /// attached and associated across all three domains.
    pub fn new(
        mut enodeb: EnodeB,
        transport: SdnController,
        gpu: Gpu,
        link_mbps: f64,
        ra_index: usize,
        n_slices: usize,
    ) -> Self {
        assert!(link_mbps > 0.0, "link bandwidth must be positive");
        let mut users = Vec::with_capacity(n_slices);
        for s in 0..n_slices {
            let imsi = Imsi(310_170_000_000_000 + (ra_index as u64) * 1_000 + s as u64);
            let ue = UserEquipment {
                imsi,
                band: enodeb.band(),
            };
            let msg = enodeb.attach(ue).expect("band matches by construction");
            let learned = extract_imsi(&msg).expect("attach carries IMSI");
            enodeb.associate(learned, s);
            let flow = FlowMatch {
                src: IpAddr([10, ra_index as u8, 0, s as u8 + 1]),
                dst: IpAddr([192, 168, ra_index as u8, 10]),
            };
            users.push(RaUser {
                imsi,
                flow,
                tenant: TenantId(s as u32),
            });
        }
        Self {
            enodeb,
            transport,
            gpu,
            link_mbps,
            users,
            reconfig_mode: ReconfigMode::MakeBeforeBreak,
        }
    }

    /// Number of slices served in this RA.
    pub fn n_slices(&self) -> usize {
        self.users.len()
    }

    /// The eNodeB.
    pub fn enodeb(&self) -> &EnodeB {
        &self.enodeb
    }

    /// The SDN controller over the transport path.
    pub fn transport(&self) -> &SdnController {
        &self.transport
    }

    /// Sets the transport reconfiguration strategy (default
    /// make-before-break, the paper's mechanism).
    pub fn set_reconfig_mode(&mut self, mode: ReconfigMode) {
        self.reconfig_mode = mode;
    }

    /// Applies an orchestration action: per-slice domain shares. Configures
    /// the PRB scheduler, rewrites the transport meters, resizes the GPU
    /// budgets, and returns the resulting per-slice rates.
    ///
    /// Shares may overshoot (the DRL agent explores); each domain clamps to
    /// its own capacity exactly as the real managers would, and the reward
    /// function separately penalizes the violation (Eq. 15).
    ///
    /// # Panics
    ///
    /// Panics if `shares.len() != n_slices()`.
    pub fn apply(&mut self, shares: &[DomainShares]) -> Vec<SliceRates> {
        assert_eq!(shares.len(), self.users.len(), "one share triple per slice");
        // Radio: pass fractions to the slice-aware scheduler.
        let radio_shares: Vec<f64> = shares.iter().map(|s| s.radio).collect();
        let schedule = self.enodeb.schedule(&radio_shares);
        // Transport: one meter per slice flow.
        for (user, share) in self.users.iter().zip(shares) {
            self.transport.set_bandwidth(
                user.flow,
                share.transport * self.link_mbps,
                self.reconfig_mode,
            );
        }
        // Compute: budgets in threads.
        let total_threads = self.gpu.total_threads();
        for (user, share) in self.users.iter().zip(shares) {
            let threads = (share.compute * total_threads as f64) as u32;
            self.gpu.set_budget(user.tenant, threads);
        }
        self.users
            .iter()
            .map(|u| SliceRates {
                radio_mbps: schedule.user_rate_mbps(u.imsi),
                transport_mbps: self.transport.path_rate_mbps(u.flow),
                compute_gflops_s: self.gpu.tenant_gflops_s(u.tenant),
            })
            .collect()
    }

    /// Computes per-slice task service times (seconds) for an action and
    /// the slices' application profiles, by applying the action to the
    /// substrates and composing the domain times.
    ///
    /// # Panics
    ///
    /// Panics if lengths disagree.
    pub fn service_times(&mut self, shares: &[DomainShares], apps: &[AppProfile]) -> Vec<f64> {
        assert_eq!(shares.len(), apps.len(), "one app profile per slice");
        let rates = self.apply(shares);
        rates
            .iter()
            .zip(apps)
            .map(|(r, app)| {
                service_time_seconds(app, r.radio_mbps, r.transport_mbps, r.compute_gflops_s)
            })
            .collect()
    }

    /// Submits one slice task's inference kernel to the GPU (exercises the
    /// kernel-split path; the budget must already be applied).
    pub fn submit_task(&mut self, slice: usize, app: &AppProfile) {
        let user = self.users[slice];
        // A YOLO inference launches one big kernel; the manager splits it.
        self.gpu.submit(
            user.tenant,
            Kernel::new(self.gpu.total_threads(), app.compute_gflops()),
        );
    }

    /// Advances the GPU timeline (see [`Gpu::advance`]).
    pub fn advance_gpu(&mut self, dt: f64) {
        self.gpu.advance(dt);
    }

    /// True while every tenant's observed GPU occupancy respected its
    /// budget.
    pub fn gpu_isolated(&self) -> bool {
        self.gpu.occupancy_within_budgets()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prototype_matches_table_ii() {
        let ra = ResourceAutonomy::prototype(0, 2);
        assert_eq!(ra.enodeb().total_prbs(), 25);
        assert_eq!(ra.gpu.total_threads(), 51_200);
        assert_eq!(ra.link_mbps, 80.0);
        assert_eq!(ra.transport().switches().len(), 6);
        assert_eq!(ra.n_slices(), 2);
    }

    #[test]
    fn alternating_ras_use_different_bands() {
        let a = ResourceAutonomy::prototype(0, 1);
        let b = ResourceAutonomy::prototype(1, 1);
        assert_ne!(a.enodeb().band(), b.enodeb().band());
        assert_eq!(a.enodeb().band(), LteBand::Band7);
        assert_eq!(b.enodeb().band(), LteBand::Band38);
    }

    #[test]
    fn apply_produces_proportional_rates() {
        let mut ra = ResourceAutonomy::prototype(0, 2);
        let rates = ra.apply(&[
            DomainShares::new(0.6, 0.5, 0.25),
            DomainShares::new(0.4, 0.5, 0.75),
        ]);
        // Radio: 15/25 and 10/25 PRBs of an 18 Mb/s cell.
        assert!((rates[0].radio_mbps - 18.0 * 15.0 / 25.0).abs() < 1e-9);
        assert!((rates[1].radio_mbps - 18.0 * 10.0 / 25.0).abs() < 1e-9);
        // Transport: shares of 80 Mb/s.
        assert!((rates[0].transport_mbps - 40.0).abs() < 1e-9);
        // Compute: shares of 8000 GFLOPs/s.
        assert!((rates[0].compute_gflops_s - 2_000.0).abs() < 0.5);
        assert!((rates[1].compute_gflops_s - 6_000.0).abs() < 0.5);
    }

    #[test]
    fn service_times_reflect_app_asymmetry() {
        let mut ra = ResourceAutonomy::prototype(0, 2);
        let apps = [AppProfile::traffic_heavy(), AppProfile::compute_heavy()];
        let even = [
            DomainShares::new(0.5, 0.5, 0.5),
            DomainShares::new(0.5, 0.5, 0.5),
        ];
        let t_even = ra.service_times(&even, &apps);
        // Give slice 1 the network and slice 2 the GPU: both should speed up.
        let matched = [
            DomainShares::new(0.8, 0.8, 0.2),
            DomainShares::new(0.2, 0.2, 0.8),
        ];
        let t_matched = ra.service_times(&matched, &apps);
        assert!(
            t_matched[0] < t_even[0],
            "traffic-heavy slice should gain from network"
        );
        assert!(
            t_matched[1] < t_even[1],
            "compute-heavy slice should gain from GPU"
        );
    }

    #[test]
    fn zero_share_means_unserved() {
        let mut ra = ResourceAutonomy::prototype(0, 2);
        let apps = [AppProfile::traffic_heavy(), AppProfile::compute_heavy()];
        let t = ra.service_times(
            &[
                DomainShares::new(1.0, 1.0, 1.0),
                DomainShares::new(0.0, 0.0, 0.0),
            ],
            &apps,
        );
        assert!(t[0].is_finite());
        assert!(t[1].is_infinite());
    }

    #[test]
    fn kernel_split_isolation_holds_under_load() {
        let mut ra = ResourceAutonomy::prototype(0, 2);
        ra.apply(&[
            DomainShares::new(0.5, 0.5, 0.3),
            DomainShares::new(0.5, 0.5, 0.7),
        ]);
        let apps = [AppProfile::traffic_heavy(), AppProfile::compute_heavy()];
        for _ in 0..5 {
            ra.submit_task(0, &apps[0]);
            ra.submit_task(1, &apps[1]);
            ra.advance_gpu(0.5);
        }
        assert!(ra.gpu_isolated());
    }
}
