//! Grid-search dataset + local linear model (paper Sec. VI-B, Fig. 5).
//!
//! The paper generates its training dataset by traversing all orchestration
//! actions at 10% resource granularity, recording the resulting service
//! time, and fits a scikit-learn linear regression over **adjacent** grid
//! actions to predict service time for off-grid actions. This module is
//! that pipeline: [`GridDataset::generate`] runs the grid search against
//! the physical RA model, and [`GridDataset::predict`] interpolates with a
//! locally-fitted [`LinearModel`].

use edgeslice_optim::LinearModel;
use serde::{Deserialize, Serialize};

use crate::app::{service_time_seconds, AppProfile};

/// Service times are capped here so unserved grid points (zero allocation →
/// infinite service time) stay finite for regression.
pub const SERVICE_TIME_CAP_S: f64 = 1.0e4;

/// Physical capacities of an RA used for the grid search, mirroring
/// Table II.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RaCapacities {
    /// Peak radio rate at full allocation, Mb/s.
    pub radio_mbps: f64,
    /// Link bandwidth, Mb/s.
    pub transport_mbps: f64,
    /// GPU throughput at full allocation, GFLOPs/s.
    pub compute_gflops_s: f64,
}

impl RaCapacities {
    /// The prototype: 18 Mb/s cell, 80 Mb/s link, 8000 GFLOPs/s GPU.
    pub fn prototype() -> Self {
        Self {
            radio_mbps: 18.0,
            transport_mbps: 80.0,
            compute_gflops_s: 8_000.0,
        }
    }

    /// Service time of one `app` task under fractional shares
    /// `[radio, transport, compute]`, capped at [`SERVICE_TIME_CAP_S`].
    pub fn service_time(&self, app: &AppProfile, shares: [f64; 3]) -> f64 {
        service_time_seconds(
            app,
            shares[0].clamp(0.0, 1.0) * self.radio_mbps,
            shares[1].clamp(0.0, 1.0) * self.transport_mbps,
            shares[2].clamp(0.0, 1.0) * self.compute_gflops_s,
        )
        .min(SERVICE_TIME_CAP_S)
    }
}

/// The grid-search dataset for one application profile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridDataset {
    app: AppProfile,
    capacities: RaCapacities,
    /// Grid step (paper: 0.1).
    granularity: f64,
    /// Points per axis (`1/granularity + 1`).
    axis: usize,
    /// Service time per grid point, indexed `r * axis² + t * axis + c`.
    times: Vec<f64>,
}

impl GridDataset {
    /// Runs the grid search at the paper's 10% granularity.
    pub fn generate(app: AppProfile, capacities: RaCapacities) -> Self {
        Self::generate_with_granularity(app, capacities, 0.1)
    }

    /// Runs the grid search at a custom granularity (must divide 1 evenly).
    ///
    /// # Panics
    ///
    /// Panics if `granularity` is not in `(0, 1]`.
    pub fn generate_with_granularity(
        app: AppProfile,
        capacities: RaCapacities,
        granularity: f64,
    ) -> Self {
        assert!(
            granularity > 0.0 && granularity <= 1.0,
            "bad granularity {granularity}"
        );
        let axis = (1.0 / granularity).round() as usize + 1;
        let mut times = Vec::with_capacity(axis * axis * axis);
        for r in 0..axis {
            for t in 0..axis {
                for c in 0..axis {
                    let shares = [
                        r as f64 * granularity,
                        t as f64 * granularity,
                        c as f64 * granularity,
                    ];
                    times.push(capacities.service_time(&app, shares));
                }
            }
        }
        Self {
            app,
            capacities,
            granularity,
            axis,
            times,
        }
    }

    /// Number of grid points.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// True if the dataset is empty (never after generation).
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// The application profile this dataset models.
    pub fn app(&self) -> &AppProfile {
        &self.app
    }

    /// Exact lookup for an on-grid action, if `shares` lies on the grid.
    pub fn lookup(&self, shares: [f64; 3]) -> Option<f64> {
        let mut idx = [0usize; 3];
        for (d, &s) in shares.iter().enumerate() {
            let g = s / self.granularity;
            if (g - g.round()).abs() > 1e-9 {
                return None;
            }
            let i = g.round() as isize;
            if i < 0 || i as usize >= self.axis {
                return None;
            }
            idx[d] = i as usize;
        }
        Some(self.times[idx[0] * self.axis * self.axis + idx[1] * self.axis + idx[2]])
    }

    /// Predicts the service time of an arbitrary action the paper's way:
    /// fit a linear model over the 8 adjacent grid actions (the cell
    /// corners) and evaluate it (Sec. VI-B's example: `[12, 38, 22]%` is
    /// fitted from `[10, 30, 20]%`, `[10, 40, 20]%`, …).
    ///
    /// On-grid actions return their recorded value exactly. Off-grid, the
    /// corner set, the 4 × 4 normal equations and their solve all live in
    /// fixed stack arrays: this never touches the heap.
    pub fn predict(&self, shares: [f64; 3]) -> f64 {
        let clamped = [
            shares[0].clamp(0.0, 1.0),
            shares[1].clamp(0.0, 1.0),
            shares[2].clamp(0.0, 1.0),
        ];
        match self.lookup(clamped) {
            Some(exact) => exact,
            None => self.fit_cell(clamped),
        }
    }

    /// The off-grid half of [`GridDataset::predict`], kept out of line so
    /// the exact-lookup path does not carry its stack frame: fits the
    /// cell around `clamped` (shares already in `[0, 1]`) and evaluates
    /// the fit there.
    #[inline(never)]
    fn fit_cell(&self, clamped: [f64; 3]) -> f64 {
        // Collect the surrounding cell's distinct corners: at most 8 × 3,
        // so the whole fit lives in fixed stack arrays. An axis whose share
        // sits on a grid plane (`lo == hi`) contributes that plane once —
        // the same corners, in the same order, as visiting all eight
        // `(lo | hi)³` combinations and dropping the repeats.
        let mut planes = [([0usize; 2], 0usize); 3];
        for (p, &s) in planes.iter_mut().zip(&clamped) {
            let g = s / self.granularity;
            let lo = (g.floor() as usize).min(self.axis - 1);
            let hi = (g.ceil() as usize).min(self.axis - 1);
            *p = ([lo, hi], if lo == hi { 1 } else { 2 });
        }
        let [(rs, nr), (ts, nt), (cs, nc)] = planes;
        let mut corners = [[0.0f64; 3]; 8];
        let mut ys = [0.0f64; 8];
        let mut n = 0;
        for &r in &rs[..nr] {
            for &t in &ts[..nt] {
                for &c in &cs[..nc] {
                    corners[n] = [
                        r as f64 * self.granularity,
                        t as f64 * self.granularity,
                        c as f64 * self.granularity,
                    ];
                    ys[n] = self.times[r * self.axis * self.axis + t * self.axis + c];
                    n += 1;
                }
            }
        }
        let (corners, ys) = (&corners[..n], &ys[..n]);
        let (mut ata, mut coef) = ([0.0f64; 16], [0.0f64; 4]);
        match LinearModel::fit_into(corners, ys, 1e-8, &mut ata, &mut coef) {
            Ok(()) => LinearModel::predict_coef(&coef, &clamped).clamp(0.0, SERVICE_TIME_CAP_S),
            // Degenerate corner set (e.g. all identical): average.
            Err(_) => ys.iter().sum::<f64>() / ys.len().max(1) as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl GridDataset {
        /// `predict` as it stood before the stack-array rewrite (`Vec` of
        /// `vec!` corner rows, a `collect()`ed bounds list, the allocating
        /// `LinearModel::fit`), kept verbatim as the differential oracle.
        fn predict_reference(&self, shares: [f64; 3]) -> f64 {
            let clamped = [
                shares[0].clamp(0.0, 1.0),
                shares[1].clamp(0.0, 1.0),
                shares[2].clamp(0.0, 1.0),
            ];
            if let Some(exact) = self.lookup(clamped) {
                return exact;
            }
            // Collect the surrounding cell's corners.
            let mut corners: Vec<Vec<f64>> = Vec::with_capacity(8);
            let mut ys: Vec<f64> = Vec::with_capacity(8);
            let lo_hi: Vec<(usize, usize)> = clamped
                .iter()
                .map(|&s| {
                    let g = s / self.granularity;
                    let lo = (g.floor() as usize).min(self.axis - 1);
                    let hi = (g.ceil() as usize).min(self.axis - 1);
                    (lo, hi)
                })
                .collect();
            for &r in &[lo_hi[0].0, lo_hi[0].1] {
                for &t in &[lo_hi[1].0, lo_hi[1].1] {
                    for &c in &[lo_hi[2].0, lo_hi[2].1] {
                        let x = vec![
                            r as f64 * self.granularity,
                            t as f64 * self.granularity,
                            c as f64 * self.granularity,
                        ];
                        if corners.contains(&x) {
                            continue;
                        }
                        ys.push(self.times[r * self.axis * self.axis + t * self.axis + c]);
                        corners.push(x);
                    }
                }
            }
            match LinearModel::fit(&corners, &ys, 1e-8) {
                Ok(model) => model.predict(&clamped).clamp(0.0, SERVICE_TIME_CAP_S),
                // Degenerate corner set (e.g. all identical): average.
                Err(_) => ys.iter().sum::<f64>() / ys.len().max(1) as f64,
            }
        }
    }

    fn dataset() -> GridDataset {
        GridDataset::generate(AppProfile::traffic_heavy(), RaCapacities::prototype())
    }

    fn coarse_dataset() -> GridDataset {
        GridDataset::generate_with_granularity(
            AppProfile::compute_heavy(),
            RaCapacities::prototype(),
            0.25,
        )
    }

    /// One share coordinate, drawn so every branch of the corner
    /// collection is hit: the open interior, outside `[0, 1]` on both
    /// sides (clamped onto the boundary planes), exactly on a grid plane
    /// (a cell face: `lo == hi` on that axis, so fewer than 8 distinct
    /// corners), a hair off a plane — outside and inside `lookup`'s 1e-9
    /// tolerance — and inside the first and last cells (the `axis − 1`
    /// edge).
    fn coordinate(granularity: f64) -> impl Strategy<Value = f64> {
        (0u32..7, 0.0f64..1.0, 0usize..12).prop_map(move |(kind, u, plane)| {
            let on_plane = (plane as f64 * granularity).min(1.0);
            match kind {
                0 => u,
                1 => -0.5 + 2.0 * u,
                2 => on_plane,
                3 => on_plane + (u - 0.5) * 1e-7,
                4 => on_plane + (u - 0.5) * 1e-11,
                5 => 1.0 - u * granularity,
                _ => u * granularity,
            }
        })
    }

    // A least-squares plane through 8 corners does not interpolate them
    // (8 equations, 4 unknowns, plus the ridge term): the fitted value at a
    // corner differs from the recorded one, and two neighbouring cells fit
    // two different planes. Continuity across cell faces is therefore NOT a
    // property of the paper's method and is not asserted here; what is
    // pinned is that the rewrite reproduces the old arithmetic exactly and
    // that grid points take the exact-lookup path.
    proptest! {
        #[test]
        fn predict_is_bit_identical_to_the_reference_at_paper_granularity(
            r in coordinate(0.1), t in coordinate(0.1), c in coordinate(0.1),
        ) {
            assert_matches_reference(&dataset(), [r, t, c]);
        }

        #[test]
        fn predict_is_bit_identical_to_the_reference_on_a_coarse_grid(
            r in coordinate(0.25), t in coordinate(0.25), c in coordinate(0.25),
        ) {
            assert_matches_reference(&coarse_dataset(), [r, t, c]);
        }
    }

    fn assert_matches_reference(d: &GridDataset, shares: [f64; 3]) {
        assert_eq!(
            d.predict(shares).to_bits(),
            d.predict_reference(shares).to_bits(),
            "shares {shares:?}"
        );
    }

    #[test]
    fn predict_equals_lookup_at_every_grid_point() {
        let d = coarse_dataset();
        for r in 0..d.axis {
            for t in 0..d.axis {
                for c in 0..d.axis {
                    let shares = [r, t, c].map(|i| i as f64 * d.granularity);
                    let exact = d.lookup(shares).expect("a grid point");
                    assert_eq!(d.predict(shares).to_bits(), exact.to_bits(), "{shares:?}");
                }
            }
        }
    }

    #[test]
    fn cell_faces_and_the_last_cell_match_the_reference() {
        // The deterministic corner cases the strategy above only samples:
        // one and two coordinates on a grid plane (4 and 2 distinct
        // corners), points clamped from outside, and the last cell.
        let d = dataset();
        for shares in [
            [0.3, 0.55, 0.72],
            [0.3, 0.6, 0.72],
            [0.3, 0.6, 0.7 + 1e-7],
            [1.0, 0.999, 0.001],
            [1.7, -0.4, 0.95],
            [0.95, 0.95, 0.95],
            [0.0, 0.05, 1.0],
        ] {
            assert_matches_reference(&d, shares);
        }
    }

    #[test]
    fn grid_has_expected_size() {
        let d = dataset();
        assert_eq!(d.len(), 11 * 11 * 11);
    }

    #[test]
    fn lookup_matches_direct_computation() {
        let d = dataset();
        let shares = [0.5, 0.3, 0.2];
        let direct = RaCapacities::prototype().service_time(&AppProfile::traffic_heavy(), shares);
        // The grid stores `i * granularity`, which differs from the literal
        // share by at most one ulp.
        let stored = d.lookup(shares).unwrap();
        assert!(
            (stored - direct).abs() < 1e-12,
            "stored {stored} direct {direct}"
        );
    }

    #[test]
    fn lookup_rejects_off_grid() {
        let d = dataset();
        assert!(d.lookup([0.55, 0.3, 0.2]).is_none());
        assert!(d.lookup([1.2, 0.0, 0.0]).is_none());
    }

    #[test]
    fn predict_on_grid_is_exact() {
        let d = dataset();
        let shares = [0.4, 0.7, 0.1];
        assert_eq!(d.predict(shares), d.lookup(shares).unwrap());
    }

    #[test]
    fn predict_interpolates_between_corners() {
        let d = dataset();
        // The paper's example: predict [12, 38, 22]% between grid corners.
        let mid = d.predict([0.12, 0.38, 0.22]);
        let lo = d.lookup([0.1, 0.3, 0.2]).unwrap();
        let hi = d.lookup([0.2, 0.4, 0.3]).unwrap();
        assert!(
            mid <= lo.max(hi) + 1e-6 && mid >= hi.min(lo) - lo * 0.5,
            "prediction {mid} implausible vs corners [{hi}, {lo}]"
        );
        // More resources at the corners ⇒ the high corner is faster.
        assert!(hi < lo);
    }

    #[test]
    fn predict_decreases_with_more_resources_on_average() {
        let d = dataset();
        let slow = d.predict([0.15, 0.15, 0.15]);
        let fast = d.predict([0.85, 0.85, 0.85]);
        assert!(fast < slow);
    }

    #[test]
    fn zero_allocation_is_capped_not_infinite() {
        let d = dataset();
        let t = d.lookup([0.0, 0.5, 0.5]).unwrap();
        assert_eq!(t, SERVICE_TIME_CAP_S);
    }

    #[test]
    fn coarse_grid_still_predicts() {
        let d = coarse_dataset();
        assert_eq!(d.len(), 5 * 5 * 5);
        assert!(d.predict([0.3, 0.6, 0.9]).is_finite());
    }
}
