//! Transport network simulator — the OpenDayLight/OpenFlow substitute.
//!
//! Reproduces the mechanics the paper's **transport manager** controls
//! (Sec. V-B): SDN switches with flow tables and rate-limiting meters slice
//! the RAN↔edge link bandwidth; user↔slice association uses source and
//! destination IP addresses. OpenFlow can only change a user's bandwidth by
//! deleting and re-creating the meter and its attached flows, which breaks
//! the network during the deletion–creation interval — the transport
//! manager hides it by staging a **parallel configuration** and atomically
//! transitioning once the new one is installed (make-before-break). Both
//! reconfiguration modes are modeled so the outage can be measured.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// An IPv4 address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct IpAddr(pub [u8; 4]);

impl fmt::Display for IpAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}.{}.{}", self.0[0], self.0[1], self.0[2], self.0[3])
    }
}

/// A flow match on (src, dst) IP — how the transport network identifies a
/// user's slice (Sec. V-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct FlowMatch {
    /// Source IP (the UE's address).
    pub src: IpAddr,
    /// Destination IP (the edge server's address).
    pub dst: IpAddr,
}

/// A meter identifier (OpenFlow meter table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MeterId(pub u32);

/// An OpenFlow-style rate-limiting meter with a drop band.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Meter {
    /// Identifier in the meter table.
    pub id: MeterId,
    /// Committed rate in Mb/s; traffic beyond it is dropped.
    pub rate_mbps: f64,
}

/// A flow-table entry pointing at a meter.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlowEntry {
    /// Match fields.
    pub matcher: FlowMatch,
    /// Meter applied to matched traffic.
    pub meter: MeterId,
}

/// One OpenFlow switch: a flow table plus a meter table.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Switch {
    flows: BTreeMap<FlowMatch, MeterId>,
    meters: BTreeMap<MeterId, Meter>,
}

impl Switch {
    /// Creates an empty switch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs (or replaces) a meter.
    pub(crate) fn install_meter(&mut self, meter: Meter) {
        self.meters.insert(meter.id, meter);
    }

    /// Removes a meter and every flow attached to it (the OpenFlow
    /// delete-meter cascade that causes the outage).
    pub(crate) fn remove_meter(&mut self, id: MeterId) {
        self.meters.remove(&id);
        self.flows.retain(|_, m| *m != id);
    }

    /// Installs a flow entry.
    ///
    /// # Errors
    ///
    /// Returns an error string if the referenced meter does not exist.
    pub(crate) fn install_flow(&mut self, entry: FlowEntry) -> Result<(), String> {
        if !self.meters.contains_key(&entry.meter) {
            return Err(format!("meter {:?} not installed", entry.meter));
        }
        self.flows.insert(entry.matcher, entry.meter);
        Ok(())
    }

    /// The forwarding rate for traffic matching `m`, Mb/s; `0` (drop) when
    /// no flow matches — this is the outage state.
    pub(crate) fn rate_for(&self, m: FlowMatch) -> f64 {
        self.flows
            .get(&m)
            .and_then(|id| self.meters.get(id))
            .map_or(0.0, |meter| meter.rate_mbps)
    }
}

/// Bandwidth-reconfiguration strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReconfigMode {
    /// Vanilla OpenFlow: delete the meter (+flows), then re-create — the
    /// network is broken during the deletion–creation interval.
    BreakBeforeMake,
    /// The paper's transport manager: install a parallel configuration,
    /// transition, then release the old one — no outage.
    MakeBeforeBreak,
}

/// A path of switches between an eNodeB and an edge server, managed by an
/// SDN controller through its northbound API.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SdnController {
    switches: Vec<Switch>,
    /// Seconds of outage a delete–create cycle costs per switch.
    deletion_creation_interval_s: f64,
    /// Next unallocated meter id.
    next_meter: u32,
    /// Per-flow currently active meter ids (one per switch).
    active: BTreeMap<FlowMatch, Vec<MeterId>>,
    /// Accumulated outage seconds (only grows under break-before-make).
    outage_seconds: f64,
}

impl SdnController {
    /// Creates a controller over a path of `n_switches` switches.
    /// `deletion_creation_interval_s` is the measured gap between a meter's
    /// deletion and its re-creation (per switch).
    ///
    /// # Panics
    ///
    /// Panics if `n_switches == 0` or the interval is negative.
    pub fn new(n_switches: usize, deletion_creation_interval_s: f64) -> Self {
        assert!(n_switches > 0, "a transport path needs at least one switch");
        assert!(deletion_creation_interval_s >= 0.0, "negative interval");
        Self {
            switches: vec![Switch::new(); n_switches],
            deletion_creation_interval_s,
            next_meter: 1,
            active: BTreeMap::new(),
            outage_seconds: 0.0,
        }
    }

    /// The prototype: 6 OpenFlow 1.3 switches (Table II); a 50 ms
    /// delete–create gap per switch.
    pub fn prototype() -> Self {
        Self::new(6, 0.05)
    }

    /// The switches on the path.
    pub fn switches(&self) -> &[Switch] {
        &self.switches
    }

    /// Total outage accumulated by break-before-make reconfigurations,
    /// seconds.
    pub fn outage_seconds(&self) -> f64 {
        self.outage_seconds
    }

    /// Reconfigures the modeled per-switch delete–create interval (e.g. to
    /// study slower control planes).
    ///
    /// # Panics
    ///
    /// Panics if `seconds` is negative or non-finite.
    pub(crate) fn set_deletion_creation_interval_s(&mut self, seconds: f64) {
        assert!(
            seconds.is_finite() && seconds >= 0.0,
            "invalid interval {seconds}"
        );
        self.deletion_creation_interval_s = seconds;
    }

    /// Sets `flow`'s bandwidth to `rate_mbps` along the whole path.
    ///
    /// With [`ReconfigMode::BreakBeforeMake`] the old meters are removed
    /// before the new ones exist, accruing outage time; with
    /// [`ReconfigMode::MakeBeforeBreak`] new meters are installed in
    /// parallel and the flows repointed before the old meters are released,
    /// so the flow never loses service.
    ///
    /// # Panics
    ///
    /// Panics if `rate_mbps` is negative or non-finite.
    pub fn set_bandwidth(&mut self, flow: FlowMatch, rate_mbps: f64, mode: ReconfigMode) {
        assert!(
            rate_mbps.is_finite() && rate_mbps >= 0.0,
            "invalid rate {rate_mbps}"
        );
        let old = self.active.remove(&flow);
        match mode {
            ReconfigMode::BreakBeforeMake => {
                // Delete first: the flow is dark until re-created.
                if let Some(old_ids) = &old {
                    for (sw, id) in self.switches.iter_mut().zip(old_ids) {
                        sw.remove_meter(*id);
                    }
                    self.outage_seconds +=
                        self.deletion_creation_interval_s * self.switches.len() as f64;
                }
                let ids = self.install_path(flow, rate_mbps);
                self.active.insert(flow, ids);
            }
            ReconfigMode::MakeBeforeBreak => {
                // Parallel configuration: install new meters, repoint flows,
                // then release the old meters. rate_for(flow) never hits 0.
                let ids = self.install_path(flow, rate_mbps);
                if let Some(old_ids) = &old {
                    for (sw, id) in self.switches.iter_mut().zip(old_ids) {
                        sw.remove_meter(*id);
                    }
                }
                self.active.insert(flow, ids);
            }
        }
    }

    /// Installs a fresh meter + flow entry for `flow` on every switch and
    /// returns the allocated meter ids.
    fn install_path(&mut self, flow: FlowMatch, rate_mbps: f64) -> Vec<MeterId> {
        let mut ids = Vec::with_capacity(self.switches.len());
        for sw in &mut self.switches {
            let id = MeterId(self.next_meter);
            self.next_meter += 1;
            sw.install_meter(Meter { id, rate_mbps });
            sw.install_flow(FlowEntry {
                matcher: flow,
                meter: id,
            })
            .expect("meter installed just above");
            ids.push(id);
        }
        ids
    }

    /// End-to-end rate for `flow`: the minimum meter rate along the path
    /// (0 during an outage).
    pub fn path_rate_mbps(&self, flow: FlowMatch) -> f64 {
        let bottleneck = self
            .switches
            .iter()
            .map(|sw| sw.rate_for(flow))
            .fold(f64::INFINITY, f64::min);
        if bottleneck.is_finite() {
            bottleneck
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow() -> FlowMatch {
        FlowMatch {
            src: IpAddr([10, 0, 0, 1]),
            dst: IpAddr([192, 168, 1, 10]),
        }
    }

    #[test]
    fn switch_meters_flows_and_rates() {
        let mut sw = Switch::new();
        sw.install_meter(Meter {
            id: MeterId(1),
            rate_mbps: 40.0,
        });
        sw.install_flow(FlowEntry {
            matcher: flow(),
            meter: MeterId(1),
        })
        .unwrap();
        assert_eq!(sw.rate_for(flow()), 40.0);
        let other = FlowMatch {
            src: IpAddr([10, 0, 0, 2]),
            dst: IpAddr([192, 168, 1, 10]),
        };
        assert_eq!(sw.rate_for(other), 0.0);
    }

    #[test]
    fn flow_install_requires_meter() {
        let mut sw = Switch::new();
        assert!(sw
            .install_flow(FlowEntry {
                matcher: flow(),
                meter: MeterId(9)
            })
            .is_err());
    }

    #[test]
    fn meter_delete_cascades_to_flows() {
        let mut sw = Switch::new();
        sw.install_meter(Meter {
            id: MeterId(1),
            rate_mbps: 40.0,
        });
        sw.install_flow(FlowEntry {
            matcher: flow(),
            meter: MeterId(1),
        })
        .unwrap();
        sw.remove_meter(MeterId(1));
        assert_eq!(sw.flows.len(), 0);
        assert_eq!(sw.rate_for(flow()), 0.0);
    }

    #[test]
    fn make_before_break_has_no_outage() {
        let mut ctl = SdnController::prototype();
        ctl.set_bandwidth(flow(), 40.0, ReconfigMode::MakeBeforeBreak);
        assert_eq!(ctl.path_rate_mbps(flow()), 40.0);
        for rate in [20.0, 60.0, 10.0] {
            ctl.set_bandwidth(flow(), rate, ReconfigMode::MakeBeforeBreak);
            assert_eq!(ctl.path_rate_mbps(flow()), rate);
        }
        assert_eq!(ctl.outage_seconds(), 0.0);
    }

    #[test]
    fn break_before_make_accrues_outage() {
        let mut ctl = SdnController::prototype();
        ctl.set_bandwidth(flow(), 40.0, ReconfigMode::BreakBeforeMake);
        assert_eq!(
            ctl.outage_seconds(),
            0.0,
            "first install has nothing to delete"
        );
        ctl.set_bandwidth(flow(), 20.0, ReconfigMode::BreakBeforeMake);
        // 6 switches × 50 ms.
        assert!((ctl.outage_seconds() - 0.3).abs() < 1e-12);
        ctl.set_bandwidth(flow(), 30.0, ReconfigMode::BreakBeforeMake);
        assert!((ctl.outage_seconds() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn old_meters_are_released_after_transition() {
        let mut ctl = SdnController::new(2, 0.01);
        ctl.set_bandwidth(flow(), 40.0, ReconfigMode::MakeBeforeBreak);
        ctl.set_bandwidth(flow(), 20.0, ReconfigMode::MakeBeforeBreak);
        // Exactly one meter per switch remains.
        for sw in ctl.switches() {
            assert_eq!(sw.meters.len(), 1);
            assert_eq!(sw.flows.len(), 1);
        }
    }

    #[test]
    fn path_rate_is_bottleneck_rate() {
        let mut ctl = SdnController::new(3, 0.0);
        ctl.set_bandwidth(flow(), 50.0, ReconfigMode::MakeBeforeBreak);
        // Manually throttle the middle switch.
        let f = flow();
        let mid = &mut ctl.switches[1];
        let id = MeterId(999);
        mid.install_meter(Meter { id, rate_mbps: 5.0 });
        mid.install_flow(FlowEntry {
            matcher: f,
            meter: id,
        })
        .unwrap();
        assert_eq!(ctl.path_rate_mbps(f), 5.0);
    }

    #[test]
    fn two_slices_get_independent_rates() {
        let mut ctl = SdnController::prototype();
        let f1 = flow();
        let f2 = FlowMatch {
            src: IpAddr([10, 0, 0, 2]),
            dst: IpAddr([192, 168, 1, 10]),
        };
        ctl.set_bandwidth(f1, 60.0, ReconfigMode::MakeBeforeBreak);
        ctl.set_bandwidth(f2, 20.0, ReconfigMode::MakeBeforeBreak);
        assert_eq!(ctl.path_rate_mbps(f1), 60.0);
        assert_eq!(ctl.path_rate_mbps(f2), 20.0);
    }
}
