//! # edgeslice-optim
//!
//! Convex-optimization building blocks for the EdgeSlice reproduction:
//!
//! * [`project_sum_halfspace`] — the coordinator's `P2` quadratic program
//!   (paper Eq. 11) in closed form.
//! * [`project_capacity_strided`] — one resource's column of an action
//!   projected onto the RA's capacity.
//! * [`dual_update`], [`AdmmResiduals`], [`ConvergenceTracker`] — the ADMM
//!   machinery of Sec. IV-A / Alg. 1.
//! * [`LinearModel`] — the local linear regression that the simulated
//!   environment fits over grid-search neighbours (Sec. VI-B; the paper used
//!   scikit-learn).
//! * [`solve_spd`] / [`solve_spd_in_place`] — small dense SPD solvers.
//! * [`conjugate_gradient`] — implicit-system solver used by TRPO.
//!
//! # Examples
//!
//! Solve the coordinator's per-slice projection:
//!
//! ```
//! use edgeslice_optim::project_sum_halfspace;
//!
//! // Achieved performance + duals per RA; SLA requires the sum ≥ -50.
//! let c = [-40.0, -30.0];
//! let z = project_sum_halfspace(&c, -50.0);
//! assert_eq!(z, vec![-30.0, -20.0]);
//! assert!(z.iter().sum::<f64>() >= -50.0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod admm;
mod cg;
mod error;
mod linreg;
mod qp;
mod solve;

pub use admm::{dual_update, AdmmConfig, AdmmResiduals, ConvergenceTracker};
pub use cg::conjugate_gradient;
pub use error::OptimError;
pub use linreg::LinearModel;
pub use qp::{project_capacity_strided, project_sum_halfspace};
pub use solve::{solve_spd, solve_spd_in_place};
