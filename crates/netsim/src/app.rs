//! The mobile application model (paper Sec. VII-A).
//!
//! The prototype's workload is a video-analytics offloading app: a user
//! uploads a camera frame, the edge server runs YOLO object detection and
//! returns the result. Two knobs shape its multi-domain resource footprint:
//!
//! * **frame resolution** (100×100 … 500×500) — drives the radio and
//!   transport traffic per task;
//! * **computation model** (YOLO 320/416/608) — drives the GPU workload per
//!   task.
//!
//! Slice 1 in the experiments uses 500×500 frames + YOLO-320 (traffic-heavy,
//! moderate compute); slice 2 uses 100×100 + YOLO-608 (light traffic,
//! compute-intensive).

use serde::{Deserialize, Serialize};

/// Uploaded frame resolution (square frames, pixels per side).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FrameResolution {
    /// 100×100 pixels.
    R100,
    /// 300×300 pixels.
    R300,
    /// 500×500 pixels.
    R500,
}

impl FrameResolution {
    /// All resolutions offered by the prototype app.
    pub const ALL: [FrameResolution; 3] = [
        FrameResolution::R100,
        FrameResolution::R300,
        FrameResolution::R500,
    ];

    /// Pixels per side.
    pub(crate) fn side(self) -> u32 {
        match self {
            FrameResolution::R100 => 100,
            FrameResolution::R300 => 300,
            FrameResolution::R500 => 500,
        }
    }

    /// Bits transmitted per frame (uplink). 24-bit color at ~10:1 JPEG
    /// compression.
    pub(crate) fn bits_per_frame(self) -> f64 {
        let px = (self.side() as f64).powi(2);
        px * 24.0 / 10.0
    }
}

/// The YOLO variant executed at the edge (network input size).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ComputationModel {
    /// YOLO with 320×320 network input.
    Yolo320,
    /// YOLO with 416×416 network input.
    Yolo416,
    /// YOLO with 608×608 network input.
    Yolo608,
}

impl ComputationModel {
    /// All computation models offered by the prototype app.
    pub const ALL: [ComputationModel; 3] = [
        ComputationModel::Yolo320,
        ComputationModel::Yolo416,
        ComputationModel::Yolo608,
    ];

    /// Network input side in pixels.
    pub(crate) fn input_side(self) -> u32 {
        match self {
            ComputationModel::Yolo320 => 320,
            ComputationModel::Yolo416 => 416,
            ComputationModel::Yolo608 => 608,
        }
    }

    /// Per-frame inference workload in GFLOPs. YOLOv2/v3 FLOPs scale with
    /// the square of the input side; anchored so YOLO-608 ≈ 140 GFLOP
    /// (the published YOLOv3-608 figure).
    pub(crate) fn gflops_per_frame(self) -> f64 {
        let s = self.input_side() as f64;
        140.0 * (s * s) / (608.0 * 608.0)
    }
}

/// A slice's application profile: its per-task multi-domain demand.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AppProfile {
    /// Uploaded frame resolution.
    pub resolution: FrameResolution,
    /// Edge-side computation model.
    pub model: ComputationModel,
}

impl AppProfile {
    /// Creates a profile.
    pub fn new(resolution: FrameResolution, model: ComputationModel) -> Self {
        Self { resolution, model }
    }

    /// Slice 1 of the experiments: heavy traffic, moderate compute
    /// (500×500 frames, YOLO-320).
    pub fn traffic_heavy() -> Self {
        Self::new(FrameResolution::R500, ComputationModel::Yolo320)
    }

    /// Slice 2 of the experiments: light traffic, intensive compute
    /// (100×100 frames, YOLO-608).
    pub fn compute_heavy() -> Self {
        Self::new(FrameResolution::R100, ComputationModel::Yolo608)
    }

    /// Radio bits per task (frame upload; the returned detection result is
    /// negligible by comparison).
    pub fn radio_bits(&self) -> f64 {
        self.resolution.bits_per_frame()
    }

    /// Transport bits per task (the frame traverses the RAN→edge link).
    pub fn transport_bits(&self) -> f64 {
        self.resolution.bits_per_frame()
    }

    /// GPU workload per task in GFLOPs.
    pub fn compute_gflops(&self) -> f64 {
        self.model.gflops_per_frame()
    }
}

/// End-to-end service time of one task under the given domain rates
/// (paper Sec. VII-A procedure: upload → inference → result).
///
/// * `radio_mbps` — scheduled radio rate for the slice user,
/// * `transport_mbps` — metered transport bandwidth,
/// * `compute_gflops_s` — GPU throughput granted by the computing manager.
///
/// Returns `f64::INFINITY` when any stage has zero rate (the user is not
/// scheduled / has no meter / no threads), matching the radio manager's
/// rule that zero-resource users are simply not served.
pub fn service_time_seconds(
    app: &AppProfile,
    radio_mbps: f64,
    transport_mbps: f64,
    compute_gflops_s: f64,
) -> f64 {
    if radio_mbps <= 0.0 || transport_mbps <= 0.0 || compute_gflops_s <= 0.0 {
        return f64::INFINITY;
    }
    let radio = app.radio_bits() / (radio_mbps * 1e6);
    let transport = app.transport_bits() / (transport_mbps * 1e6);
    let compute = app.compute_gflops() / compute_gflops_s;
    radio + transport + compute
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolution_traffic_ordering() {
        assert!(FrameResolution::R100.bits_per_frame() < FrameResolution::R300.bits_per_frame());
        assert!(FrameResolution::R300.bits_per_frame() < FrameResolution::R500.bits_per_frame());
        // 500×500 is 25× the pixels of 100×100.
        let ratio = FrameResolution::R500.bits_per_frame() / FrameResolution::R100.bits_per_frame();
        assert!((ratio - 25.0).abs() < 1e-9);
    }

    #[test]
    fn model_workload_ordering() {
        assert!(
            ComputationModel::Yolo320.gflops_per_frame()
                < ComputationModel::Yolo416.gflops_per_frame()
        );
        assert!(
            ComputationModel::Yolo416.gflops_per_frame()
                < ComputationModel::Yolo608.gflops_per_frame()
        );
        assert!((ComputationModel::Yolo608.gflops_per_frame() - 140.0).abs() < 1e-9);
    }

    #[test]
    fn archetypes_have_opposite_footprints() {
        let s1 = AppProfile::traffic_heavy();
        let s2 = AppProfile::compute_heavy();
        assert!(s1.radio_bits() > s2.radio_bits() * 10.0);
        assert!(s2.compute_gflops() > s1.compute_gflops() * 2.0);
    }

    #[test]
    fn service_time_decomposes_across_domains() {
        let app = AppProfile::traffic_heavy();
        let t = service_time_seconds(&app, 10.0, 40.0, 100.0);
        let radio = app.radio_bits() / 10e6;
        let transport = app.transport_bits() / 40e6;
        let compute = app.compute_gflops() / 100.0;
        assert!((t - (radio + transport + compute)).abs() < 1e-12);
    }

    #[test]
    fn zero_rate_means_unserved() {
        let app = AppProfile::compute_heavy();
        assert!(service_time_seconds(&app, 0.0, 40.0, 100.0).is_infinite());
        assert!(service_time_seconds(&app, 10.0, 0.0, 100.0).is_infinite());
        assert!(service_time_seconds(&app, 10.0, 40.0, 0.0).is_infinite());
    }

    #[test]
    fn more_resources_never_slow_service() {
        let app = AppProfile::traffic_heavy();
        let slow = service_time_seconds(&app, 5.0, 20.0, 50.0);
        let fast = service_time_seconds(&app, 10.0, 40.0, 100.0);
        assert!(fast < slow);
    }
}
