//! Grid-search dataset + local linear model (paper Sec. VI-B, Fig. 5).
//!
//! The paper generates its training dataset by traversing all orchestration
//! actions at 10% resource granularity, recording the resulting service
//! time, and fits a scikit-learn linear regression over **adjacent** grid
//! actions to predict service time for off-grid actions. This module is
//! that pipeline: [`GridDataset::generate`] runs the grid search against
//! the physical RA model, and [`GridDataset::predict`] interpolates with a
//! locally-fitted [`LinearModel`]. The fit is a function of the cell alone,
//! so each interior cell is fitted once, on first use, and remembered.

use std::sync::OnceLock;

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

/// What fitting one cell's corners yields: everything an off-grid
/// prediction in that cell needs besides the point itself.
#[derive(Debug, Clone, Copy)]
enum CellFit {
    /// The least-squares plane, `[w_radio, w_transport, w_compute, intercept]`.
    Plane([f64; 4]),
    /// Degenerate corner set (e.g. all identical): the corners' mean.
    Mean(f64),
}

/// The lower and upper grid index bracketing a share on each axis
/// (`lo == hi` when the share sits on a grid plane).
type CellPlanes = [[usize; 2]; 3];

/// The grid-search dataset for one application profile.
///
/// Not serialisable, and equality compares the generating inputs only: the
/// per-cell memo is derived state a warmed dataset has and a fresh one does
/// not.
#[derive(Debug, Clone)]
pub struct GridDataset {
    app: AppProfile,
    capacities: RaCapacities,
    /// Grid step (paper: 0.1).
    granularity: f64,
    /// Points per axis (`1/granularity + 1`).
    axis: usize,
    /// Service time per grid point, indexed `r * axis² + t * axis + c`.
    times: Vec<f64>,
    /// The fit of each interior cell (8 distinct corners), indexed by its
    /// low corner over `axis − 1` cells per axis and filled on first use:
    /// a run's off-grid predictions revisit a few hundred cells, so fitting
    /// all `(axis − 1)³` up front would mostly be wasted set-up.
    fits: Vec<OnceLock<CellFit>>,
}

impl PartialEq for GridDataset {
    fn eq(&self, other: &Self) -> bool {
        self.app == other.app
            && self.capacities == other.capacities
            && self.granularity == other.granularity
    }
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
            fits: std::iter::repeat_with(OnceLock::new)
                .take((axis - 1).pow(3))
                .collect(),
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
    /// fixed stack arrays, and an interior cell is fitted once: this never
    /// touches the heap.
    pub fn predict(&self, shares: [f64; 3]) -> f64 {
        let clamped = [
            shares[0].clamp(0.0, 1.0),
            shares[1].clamp(0.0, 1.0),
            shares[2].clamp(0.0, 1.0),
        ];
        match self.lookup(clamped) {
            Some(exact) => exact,
            None => self.predict_in_cell(clamped),
        }
    }

    /// The off-grid half of [`GridDataset::predict`], kept out of line so
    /// the exact-lookup path does not carry its stack frame: locates the
    /// cell around `clamped` (shares already in `[0, 1]`) and evaluates
    /// that cell's fit there.
    #[inline(never)]
    fn predict_in_cell(&self, clamped: [f64; 3]) -> f64 {
        let mut planes: CellPlanes = [[0; 2]; 3];
        for (p, &s) in planes.iter_mut().zip(&clamped) {
            let g = s / self.granularity;
            let lo = (g.floor() as usize).min(self.axis - 1);
            let hi = (g.ceil() as usize).min(self.axis - 1);
            *p = [lo, hi];
        }
        let [[r, r_hi], [t, t_hi], [c, c_hi]] = planes;
        // A point on a cell face (`lo == hi` on some axis) has fewer than 8
        // corners and a fit of its own; only whole cells are remembered.
        let fit = if r < r_hi && t < t_hi && c < c_hi {
            let cells = self.axis - 1;
            *self.fits[(r * cells + t) * cells + c].get_or_init(|| self.cell_fit(&planes))
        } else {
            self.cell_fit(&planes)
        };
        match fit {
            CellFit::Plane(coef) => {
                LinearModel::predict_coef(&coef, &clamped).clamp(0.0, SERVICE_TIME_CAP_S)
            }
            CellFit::Mean(mean) => mean,
        }
    }

    /// Fits the linear model over the distinct corners `planes` spans: at
    /// most 8 × 3, so the whole fit lives in fixed stack arrays. An axis
    /// whose share sits on a grid plane (`lo == hi`) contributes that plane
    /// once — the same corners, in the same order, as visiting all eight
    /// `(lo | hi)³` combinations and dropping the repeats.
    fn cell_fit(&self, planes: &CellPlanes) -> CellFit {
        let distinct = |p: &[usize; 2]| if p[0] == p[1] { 1 } else { 2 };
        let [rs, ts, cs] = planes;
        let mut corners = [[0.0f64; 3]; 8];
        let mut ys = [0.0f64; 8];
        let mut n = 0;
        for &r in &rs[..distinct(rs)] {
            for &t in &ts[..distinct(ts)] {
                for &c in &cs[..distinct(cs)] {
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
            Ok(()) => CellFit::Plane(coef),
            Err(_) => CellFit::Mean(ys.iter().sum::<f64>() / ys.len().max(1) as f64),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    impl GridDataset {
        /// How many interior cells have been fitted so far.
        fn remembered_cells(&self) -> usize {
            self.fits.iter().filter(|f| f.get().is_some()).count()
        }

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

    // The proptests above build a fresh dataset per case, so every off-grid
    // query there is a first touch. Here one dataset answers everything —
    // each query twice in a row (fit, then remembered fit), then the whole
    // set again in a shuffled order — and every answer is held to the
    // reference, which knows no memo.
    #[test]
    fn one_dataset_answers_first_touches_and_revisits_like_the_reference() {
        for d in [dataset(), coarse_dataset()] {
            let g = d.granularity;
            // By hand: cell faces (one and two coordinates on a grid plane:
            // 4 and 2 corners), a hair off a plane, points clamped from
            // outside onto the boundary planes, the first and the last cell.
            let faces = [
                [g, 2.5 * g, 0.2 * g],
                [g, 2.0 * g, 0.2 * g],
                [1.7, -0.4, 1.0 - 0.5 * g],
                [1.3, 0.5 * g, 0.5 * g],
            ];
            for q in faces {
                assert_matches_reference(&d, q);
                assert_matches_reference(&d, q);
            }
            assert_eq!(d.remembered_cells(), 0, "a face has a fit of its own");
            let mut queries = vec![
                [2.0 * g + 1e-7, 1.5 * g, 0.5 * g],
                [0.5 * g, 0.5 * g, 0.5 * g],
                [1.0 - 0.5 * g, 1.0 - 0.5 * g, 1.0 - 0.5 * g],
            ];
            queries.extend(faces);
            let mut rng = StdRng::seed_from_u64(0xCE11);
            queries.extend((0..1_000).map(|_| [(); 3].map(|()| rng.gen_range(-0.2..1.2))));
            for &q in &queries {
                assert_matches_reference(&d, q);
                assert_matches_reference(&d, q);
            }
            let remembered = d.remembered_cells();
            let cells = (d.axis - 1).pow(3);
            assert!(
                remembered > cells / 4 && remembered <= cells,
                "{remembered} of {cells} cells remembered"
            );
            queries.shuffle(&mut rng);
            for &q in &queries {
                assert_matches_reference(&d, q);
            }
            assert_eq!(d.remembered_cells(), remembered, "a revisit fitted again");
        }
    }

    #[test]
    fn a_remembered_degenerate_cell_answers_with_its_mean() {
        // No generated grid reaches `CellFit::Mean` — the ridge keeps every
        // corner set's normal equations positive definite — so plant one in
        // the cell around the query and leave its neighbour to be fitted.
        let d = coarse_dataset();
        let cells = d.axis - 1;
        d.fits[(cells + 2) * cells + 3]
            .set(CellFit::Mean(7.25))
            .expect("a fresh dataset has fitted nothing");
        assert_eq!(d.predict([0.3, 0.6, 0.9]).to_bits(), 7.25f64.to_bits());
        assert_matches_reference(&d, [0.3, 0.6, 0.7]);
    }

    #[test]
    fn a_warmed_dataset_equals_a_cold_one_and_its_clone() {
        let (warm, cold) = (dataset(), dataset());
        let q = [0.12, 0.38, 0.22];
        let first = warm.predict(q);
        assert_eq!(warm.remembered_cells(), 1);
        assert_eq!(warm, cold);
        let clone = warm.clone();
        assert_eq!(clone, warm);
        assert_eq!(clone, cold);
        assert_eq!(clone.predict(q).to_bits(), first.to_bits());
        assert_eq!(cold.predict(q).to_bits(), first.to_bits());
        assert_ne!(warm, coarse_dataset());
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
