//! Slice admission control over the SR interface (paper Sec. V-D).
//!
//! The paper's SR (slice request) interface lets tenants request slices and
//! negotiate SLAs; the network operator must decide whether a new slice
//! fits. This module implements the natural admission policy for the
//! EdgeSlice model: estimate each slice's per-domain resource demand from
//! its application profile and expected traffic, and admit a request only
//! if the residual capacity in every domain of every RA can absorb it with
//! a safety margin. (Admission control is the operator-side complement the
//! paper leaves to the SR interface; STORNS [41] is its related work.)

use edgeslice_netsim::{AppProfile, RaCapacities};
use serde::{Deserialize, Serialize};

use crate::{Sla, SliceId, SliceSpec};

/// A tenant's slice request: the SR-interface message.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SliceRequest {
    /// The application the slice will carry.
    pub app: AppProfile,
    /// Expected mean task arrivals per interval, per RA.
    pub expected_rate: f64,
    /// Requested SLA.
    pub sla: Sla,
}

/// Why a request was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum RejectReason {
    /// The radio domain cannot absorb the demand.
    RadioExhausted {
        /// Fraction of the cell the request needs.
        needed: f64,
        /// Fraction still unallocated.
        available: f64,
    },
    /// The transport domain cannot absorb the demand.
    TransportExhausted {
        /// Fraction of the link the request needs.
        needed: f64,
        /// Fraction still unallocated.
        available: f64,
    },
    /// The computing domain cannot absorb the demand.
    ComputingExhausted {
        /// Fraction of the GPU the request needs.
        needed: f64,
        /// Fraction still unallocated.
        available: f64,
    },
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (domain, needed, available) = match self {
            RejectReason::RadioExhausted { needed, available } => ("radio", needed, available),
            RejectReason::TransportExhausted { needed, available } => {
                ("transport", needed, available)
            }
            RejectReason::ComputingExhausted { needed, available } => {
                ("computing", needed, available)
            }
        };
        write!(
            f,
            "{domain} exhausted: request needs {needed:.2} of capacity, {available:.2} available"
        )
    }
}

/// Per-domain fractional demand of one slice at a target utilization.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DemandEstimate {
    /// Fraction of the RA's radio capacity.
    pub radio: f64,
    /// Fraction of the RA's transport capacity.
    pub transport: f64,
    /// Fraction of the RA's computing capacity.
    pub compute: f64,
}

impl DemandEstimate {
    /// Estimates the share of each domain a slice needs so that its service
    /// rate is `rate / utilization` (i.e. the queue's utilization factor is
    /// `utilization < 1`).
    ///
    /// The estimate assumes each domain is provisioned independently: the
    /// share of domain `d` must satisfy `rate · t_d / share ≤ utilization`
    /// where `t_d` is the domain's per-task time at full allocation.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < utilization < 1` and `rate ≥ 0`.
    pub(crate) fn for_app(
        app: &AppProfile,
        rate: f64,
        capacities: &RaCapacities,
        utilization: f64,
    ) -> Self {
        assert!(
            (0.0..1.0).contains(&utilization) && utilization > 0.0,
            "bad utilization"
        );
        assert!(rate >= 0.0 && rate.is_finite(), "bad rate");
        let radio_t = app.radio_bits() / (capacities.radio_mbps * 1e6);
        let transport_t = app.transport_bits() / (capacities.transport_mbps * 1e6);
        let compute_t = app.compute_gflops() / capacities.compute_gflops_s;
        // Deliberately unclamped: a share above 1.0 means the demand exceeds
        // the whole domain and must fail admission rather than masquerade as
        // "exactly full capacity".
        Self {
            radio: rate * radio_t / utilization,
            transport: rate * transport_t / utilization,
            compute: rate * compute_t / utilization,
        }
    }

    /// The demand as a `[radio, transport, compute]` array.
    pub fn as_array(&self) -> [f64; 3] {
        [self.radio, self.transport, self.compute]
    }
}

/// The operator-side admission controller.
///
/// Serializable so dynamic-workload runs can embed the committed-demand
/// ledger in durable snapshots and resume admission decisions exactly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdmissionController {
    capacities: RaCapacities,
    /// Target per-domain utilization for admitted slices (headroom for
    /// traffic variance and the DRL agent's transient exploration).
    utilization: f64,
    /// Committed per-domain fractions, `[radio, transport, compute]`.
    committed: [f64; 3],
    admitted: Vec<SliceSpec>,
}

impl AdmissionController {
    /// Creates a controller over the given RA capacities. `utilization` is
    /// the per-domain load target (e.g. 0.7).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < utilization < 1`.
    pub fn new(capacities: RaCapacities, utilization: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&utilization) && utilization > 0.0,
            "bad utilization"
        );
        Self {
            capacities,
            utilization,
            committed: [0.0; 3],
            admitted: Vec::new(),
        }
    }

    /// The prototype controller: Table II capacities, 70% load target.
    pub fn prototype() -> Self {
        Self::new(RaCapacities::prototype(), 0.7)
    }

    /// Residual per-domain fraction available to future slices.
    pub fn residual(&self) -> [f64; 3] {
        let [radio, transport, computing] = self.committed;
        [1.0 - radio, 1.0 - transport, 1.0 - computing]
    }

    /// Decides a request: on admission the demand is committed and the new
    /// slice's spec (with the next free [`SliceId`]) is returned.
    ///
    /// # Errors
    ///
    /// Returns the binding [`RejectReason`] if any domain lacks capacity.
    pub fn decide(&mut self, request: &SliceRequest) -> Result<SliceSpec, RejectReason> {
        self.decide_as(SliceId(self.admitted.len()), request)
    }

    /// Decides a request for a *caller-chosen* [`SliceId`] — the dynamic
    /// workload generator pre-assigns slot ids at plan time, so re-admission
    /// after an unrelated release must not recycle a departed slice's id.
    ///
    /// # Errors
    ///
    /// Returns the binding [`RejectReason`] if any domain lacks capacity.
    ///
    /// # Panics
    ///
    /// Panics if `id` is already admitted.
    pub(crate) fn decide_as(
        &mut self,
        id: SliceId,
        request: &SliceRequest,
    ) -> Result<SliceSpec, RejectReason> {
        assert!(
            self.admitted.iter().all(|s| s.id != id),
            "slice id {} is already admitted",
            id.0
        );
        let demand = DemandEstimate::for_app(
            &request.app,
            request.expected_rate,
            &self.capacities,
            self.utilization,
        );
        if let Some(reason) = self.binding_reject(&demand) {
            return Err(reason);
        }
        for (c, v) in self.committed.iter_mut().zip(demand.as_array()) {
            *c += v;
        }
        let spec = SliceSpec::new(id, request.app, request.sla);
        self.admitted.push(spec);
        Ok(spec)
    }

    /// The domain (if any) whose residual capacity cannot absorb `demand`.
    fn binding_reject(&self, demand: &DemandEstimate) -> Option<RejectReason> {
        let [radio_free, transport_free, computing_free] = self.residual();
        let [radio_need, transport_need, computing_need] = demand.as_array();
        if radio_need > radio_free + 1e-12 {
            return Some(RejectReason::RadioExhausted {
                needed: radio_need,
                available: radio_free,
            });
        }
        if transport_need > transport_free + 1e-12 {
            return Some(RejectReason::TransportExhausted {
                needed: transport_need,
                available: transport_free,
            });
        }
        if computing_need > computing_free + 1e-12 {
            return Some(RejectReason::ComputingExhausted {
                needed: computing_need,
                available: computing_free,
            });
        }
        None
    }

    /// Resizes an admitted slice in place — make-before-break: the old
    /// commitment is released, the new demand is tried against the
    /// residual, and on rejection the old commitment is re-applied so the
    /// slice keeps serving under its previous SLA untouched.
    ///
    /// On success the stored spec is replaced (same id, new SLA) and
    /// returned.
    ///
    /// # Errors
    ///
    /// * [`crate::EdgeSliceError::SliceNotAdmitted`] if `slice` is unknown;
    /// * [`crate::EdgeSliceError::AdmissionRejected`] if the new demand does
    ///   not fit — the previous commitment is restored exactly.
    pub fn resize(
        &mut self,
        slice: SliceId,
        old_rate: f64,
        new_rate: f64,
        new_sla: crate::Sla,
    ) -> Result<SliceSpec, crate::EdgeSliceError> {
        let pos = self
            .admitted
            .iter()
            .position(|s| s.id == slice)
            .ok_or(crate::EdgeSliceError::SliceNotAdmitted { slice })?;
        let app = self.admitted[pos].app;
        let old = DemandEstimate::for_app(&app, old_rate, &self.capacities, self.utilization);
        let new = DemandEstimate::for_app(&app, new_rate, &self.capacities, self.utilization);
        let before = self.committed;
        for (c, v) in self.committed.iter_mut().zip(old.as_array()) {
            *c = (*c - v).max(0.0);
        }
        if let Some(reason) = self.binding_reject(&new) {
            self.committed = before;
            return Err(crate::EdgeSliceError::AdmissionRejected { slice, reason });
        }
        for (c, v) in self.committed.iter_mut().zip(new.as_array()) {
            *c += v;
        }
        self.admitted[pos] = SliceSpec::new(slice, app, new_sla);
        Ok(self.admitted[pos])
    }

    /// Releases a slice's committed demand (tenant teardown over SR).
    ///
    /// # Errors
    ///
    /// Returns [`crate::EdgeSliceError::SliceNotAdmitted`] if the slice is
    /// unknown, leaving the controller unchanged.
    pub(crate) fn release(
        &mut self,
        slice: SliceId,
        expected_rate: f64,
    ) -> Result<(), crate::EdgeSliceError> {
        let pos = self
            .admitted
            .iter()
            .position(|s| s.id == slice)
            .ok_or(crate::EdgeSliceError::SliceNotAdmitted { slice })?;
        let spec = self.admitted.remove(pos);
        let demand =
            DemandEstimate::for_app(&spec.app, expected_rate, &self.capacities, self.utilization);
        for (c, v) in self.committed.iter_mut().zip(demand.as_array()) {
            *c = (*c - v).max(0.0);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(app: AppProfile, rate: f64) -> SliceRequest {
        SliceRequest {
            app,
            expected_rate: rate,
            sla: Sla::paper(),
        }
    }

    #[test]
    fn demand_estimate_scales_with_rate() {
        let caps = RaCapacities::prototype();
        let lo = DemandEstimate::for_app(&AppProfile::traffic_heavy(), 5.0, &caps, 0.7);
        let hi = DemandEstimate::for_app(&AppProfile::traffic_heavy(), 10.0, &caps, 0.7);
        assert!((hi.radio - 2.0 * lo.radio).abs() < 1e-12);
        assert!(
            hi.radio > hi.compute,
            "traffic-heavy app is radio-dominated"
        );
    }

    #[test]
    fn compute_heavy_app_demands_gpu() {
        let caps = RaCapacities::prototype();
        let d = DemandEstimate::for_app(&AppProfile::compute_heavy(), 10.0, &caps, 0.7);
        assert!(d.compute > d.radio);
        assert!(d.compute > d.transport);
    }

    #[test]
    fn admits_the_experimental_pair() {
        let mut ctl = AdmissionController::prototype();
        assert!(ctl
            .decide(&request(AppProfile::traffic_heavy(), 10.0))
            .is_ok());
        assert!(ctl
            .decide(&request(AppProfile::compute_heavy(), 10.0))
            .is_ok());
        assert_eq!(ctl.admitted.len(), 2);
        assert_eq!(ctl.admitted[1].id, SliceId(1));
    }

    #[test]
    fn rejects_when_radio_is_exhausted() {
        let mut ctl = AdmissionController::prototype();
        // Traffic-heavy slices until the cell runs out.
        let mut admitted = 0;
        loop {
            match ctl.decide(&request(AppProfile::traffic_heavy(), 10.0)) {
                Ok(_) => admitted += 1,
                Err(reason) => {
                    assert!(
                        matches!(reason, RejectReason::RadioExhausted { .. }),
                        "{reason}"
                    );
                    break;
                }
            }
            assert!(admitted < 100, "should eventually reject");
        }
        assert!(admitted >= 1);
        // Residual radio is below one more slice's demand.
        let d = DemandEstimate::for_app(
            &AppProfile::traffic_heavy(),
            10.0,
            &RaCapacities::prototype(),
            0.7,
        );
        assert!(ctl.residual()[0] < d.radio);
    }

    #[test]
    fn release_restores_capacity() {
        let mut ctl = AdmissionController::prototype();
        let spec = ctl
            .decide(&request(AppProfile::traffic_heavy(), 10.0))
            .unwrap();
        let before = ctl.residual();
        ctl.release(spec.id, 10.0).unwrap();
        let after = ctl.residual();
        assert!(after[0] > before[0]);
        assert!((after[0] - 1.0).abs() < 1e-9);
        assert!(ctl.admitted.is_empty());
    }

    #[test]
    fn release_of_unknown_slice_is_an_error() {
        let mut ctl = AdmissionController::prototype();
        let err = ctl.release(SliceId(9), 10.0).unwrap_err();
        assert!(matches!(
            err,
            crate::EdgeSliceError::SliceNotAdmitted { slice: SliceId(9) }
        ));
        assert!(err.to_string().contains("slice"));
    }

    #[test]
    fn double_release_is_rejected_and_leaves_ledger_unchanged() {
        let mut ctl = AdmissionController::prototype();
        let spec = ctl
            .decide(&request(AppProfile::traffic_heavy(), 10.0))
            .unwrap();
        ctl.release(spec.id, 10.0).unwrap();
        let residual = ctl.residual();
        let err = ctl.release(spec.id, 10.0).unwrap_err();
        assert!(matches!(
            err,
            crate::EdgeSliceError::SliceNotAdmitted { slice } if slice == spec.id
        ));
        assert_eq!(ctl.residual(), residual, "failed release must not mutate");
    }

    #[test]
    fn readmission_after_release_does_not_recycle_ids() {
        let mut ctl = AdmissionController::prototype();
        let a = ctl
            .decide_as(SliceId(0), &request(AppProfile::traffic_heavy(), 10.0))
            .unwrap();
        ctl.release(a.id, 10.0).unwrap();
        // The workload generator pre-assigns the *next* slot id; the
        // departed id 0 must stay retired.
        let b = ctl
            .decide_as(SliceId(1), &request(AppProfile::compute_heavy(), 10.0))
            .unwrap();
        assert_eq!(b.id, SliceId(1));
        assert_eq!(ctl.admitted.len(), 1);
        assert_eq!(ctl.admitted[0].id, SliceId(1));
    }

    #[test]
    fn repeated_admit_release_cycles_do_not_drift_residual_capacity() {
        let mut ctl = AdmissionController::prototype();
        let start = ctl.residual();
        for i in 0..1000 {
            let spec = ctl
                .decide_as(SliceId(i), &request(AppProfile::traffic_heavy(), 7.3))
                .unwrap();
            ctl.release(spec.id, 7.3).unwrap();
        }
        let end = ctl.residual();
        for (s, e) in start.iter().zip(end) {
            assert!(
                (s - e).abs() < 1e-9,
                "residual drifted over admit/release cycles: {start:?} -> {end:?}"
            );
        }
        assert!(ctl.admitted.is_empty());
    }

    #[test]
    fn resize_grows_and_shrinks_committed_demand() {
        let mut ctl = AdmissionController::prototype();
        let spec = ctl
            .decide(&request(AppProfile::traffic_heavy(), 10.0))
            .unwrap();
        let at_10 = ctl.residual();
        let new_sla = Sla::new(0.9 * Sla::paper().umin);
        let grown = ctl.resize(spec.id, 10.0, 20.0, new_sla).unwrap();
        assert_eq!(grown.id, spec.id);
        assert_eq!(grown.sla, new_sla);
        assert!(ctl.residual()[0] < at_10[0], "growth commits more radio");
        ctl.resize(spec.id, 20.0, 10.0, Sla::paper()).unwrap();
        for (a, b) in at_10.iter().zip(ctl.residual()) {
            assert!((a - b).abs() < 1e-9, "shrink back must restore residual");
        }
    }

    #[test]
    fn rejected_resize_is_make_before_break() {
        let mut ctl = AdmissionController::prototype();
        let spec = ctl
            .decide(&request(AppProfile::traffic_heavy(), 10.0))
            .unwrap();
        let before = ctl.residual();
        // A rate the radio domain cannot absorb even with slice 0 released.
        let err = ctl.resize(spec.id, 10.0, 1e6, Sla::paper()).unwrap_err();
        assert!(matches!(
            err,
            crate::EdgeSliceError::AdmissionRejected {
                slice,
                reason: RejectReason::RadioExhausted { .. },
            } if slice == spec.id
        ));
        assert_eq!(
            ctl.residual(),
            before,
            "rejected resize must leave the old commitment serving"
        );
        assert_eq!(ctl.admitted[0].sla, Sla::paper());
    }

    #[test]
    fn resize_of_unknown_slice_is_an_error() {
        let mut ctl = AdmissionController::prototype();
        let err = ctl.resize(SliceId(4), 1.0, 2.0, Sla::paper()).unwrap_err();
        assert!(matches!(
            err,
            crate::EdgeSliceError::SliceNotAdmitted { slice: SliceId(4) }
        ));
    }

    #[test]
    fn controller_round_trips_through_serde() {
        let mut ctl = AdmissionController::prototype();
        ctl.decide(&request(AppProfile::traffic_heavy(), 10.0))
            .unwrap();
        let json = serde_json::to_string(&ctl).unwrap();
        let back: AdmissionController = serde_json::from_str(&json).unwrap();
        assert_eq!(back.residual(), ctl.residual());
        assert_eq!(back.admitted, ctl.admitted);
    }

    #[test]
    fn reject_reason_displays() {
        let r = RejectReason::ComputingExhausted {
            needed: 0.8,
            available: 0.1,
        };
        let s = r.to_string();
        assert!(s.contains("computing") && s.contains("0.80"));
    }
}
