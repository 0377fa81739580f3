//! # edgeslice-netsim
//!
//! Simulated wireless edge computing network for the EdgeSlice
//! reproduction — the software stand-in for the paper's hardware prototype
//! (Table II: OAI eNodeBs + USRPs, OpenDayLight + 6 OpenFlow switches,
//! CUDA GTX 1080 Ti edge servers).
//!
//! Each technical domain is modeled at the level the paper's resource
//! managers manipulate it:
//!
//! * [`radio`] — eNodeBs with PRB grids, slice-aware consecutive user
//!   scheduling, IMSI extraction from S1AP (Sec. V-A);
//! * [`transport`] — OpenFlow switches with flow tables and rate meters, an
//!   SDN controller with make-before-break reconfiguration (Sec. V-B);
//! * [`compute`] — MPS-shared GPUs with the kernel-split occupancy bound
//!   (Sec. V-C);
//! * [`app`] — the YOLO video-analytics offloading workload (Sec. VII-A);
//! * [`traffic`] — Poisson arrivals and synthetic diurnal traces standing
//!   in for the Telecom Italia Trento dataset (Sec. VI-B, VII-D);
//! * [`queue`] — per-slice FIFO service queues (Fig. 5);
//! * [`ra`] — a resource autonomy composing one eNodeB, transport path and
//!   GPU (Sec. II);
//! * [`dataset`] — the 10%-granularity grid-search dataset and local linear
//!   regression of the simulated environment (Sec. VI-B).
//!
//! # Examples
//!
//! ```
//! use edgeslice_netsim::app::AppProfile;
//! use edgeslice_netsim::ra::{DomainShares, ResourceAutonomy};
//!
//! let mut ra = ResourceAutonomy::prototype(0, 2);
//! let times = ra.service_times(
//!     &[DomainShares::new(0.7, 0.7, 0.3), DomainShares::new(0.3, 0.3, 0.7)],
//!     &[AppProfile::traffic_heavy(), AppProfile::compute_heavy()],
//! );
//! assert!(times.iter().all(|t| t.is_finite()));
//! ```

#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub mod app;
pub mod compute;
pub mod dataset;
pub mod queue;
pub mod ra;
pub mod radio;
pub mod traffic;
pub mod transport;

pub use app::{service_time_seconds, AppProfile, ComputationModel, FrameResolution};
pub use dataset::{GridDataset, RaCapacities};
pub use queue::ServiceQueue;
pub use ra::{DomainShares, ResourceAutonomy, SliceRates};
pub use traffic::{
    sample_poisson, BlockRandomPoisson, CsvTrace, DiurnalTrace, PoissonTraffic, TrafficSource,
};
pub use transport::ReconfigMode;

/// A fixed-seed generator for unit tests, which draw from no product
/// stream.
#[cfg(test)]
pub(crate) fn test_rng(seed: u64) -> rand::rngs::StdRng {
    #[expect(
        clippy::disallowed_methods,
        reason = "a unit test's own fixed seed, not a product stream"
    )]
    <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed)
}
