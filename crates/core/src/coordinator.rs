//! The central performance coordinator (paper Sec. IV-A).
//!
//! Solves the `z`-update `P2` (Eq. 11) — a per-slice Euclidean projection of
//! `c_{i,·} = Σ_t U_{i,·} + y_{i,·}` onto the SLA half-space
//! `Σ_j z_{i,j} ≥ Umin_i` — and the scaled dual update
//! `y ← y + (Σ_t U − z)` (Eq. 10). The only message it exchanges with the
//! orchestration agents is the coordinating information `z − y` per
//! (slice, RA), which is what keeps EdgeSlice's communication overhead low.
//!
//! # Degraded coordination
//!
//! Deployed RAs miss rounds: outages, stragglers, lost reports. The
//! coordinator degrades gracefully instead of stalling the round
//! ([`PerformanceCoordinator::update_partial`]):
//!
//! * a missing RA's `Σ_t U` is substituted with its **last-known report**
//!   for up to a **staleness budget** of 3 consecutive rounds;
//! * the missing RA's dual column is **frozen** (no `y` ascent on stale
//!   data — stale residuals would corrupt the consensus);
//! * past the budget the RA is **declared dead**: its columns leave the
//!   projection, so the SLA half-space `Σ_j z_{i,j} ≥ Umin_i` spreads each
//!   slice's requirement across the survivors;
//! * a report from a dead RA **revives** it with a zeroed dual column (the
//!   rejoining RA restarts from checkpointed policy, not stale duals).

use edgeslice_optim::{
    dual_update, project_sum_halfspace, AdmmConfig, AdmmResiduals, ConvergenceTracker,
};
use serde::{Deserialize, Serialize};

use crate::{RaId, Sla, SliceId};

/// The per-(slice, RA) coordinating information sent to an orchestration
/// agent: `z_{i,j} − y_{i,j}`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoordinationInfo {
    /// `z − y` indexed `[slice][ra]`.
    pub zy: Vec<Vec<f64>>,
}

impl CoordinationInfo {
    /// The message for one RA: `z_{i,j} − y_{i,j}` for all slices `i`.
    pub fn for_ra(&self, ra: RaId) -> Vec<f64> {
        self.zy.iter().map(|row| row[ra.0]).collect()
    }
}

/// The complete mutable state of a [`PerformanceCoordinator`], as captured
/// by a durable run snapshot: the ADMM iterates (`z`, `y`), the
/// degraded-coordination bookkeeping (last-known reports, staleness
/// counters, dead flags), the residual history driving convergence checks,
/// and the tunable knobs. The static shape (SLAs, RA count, ADMM config)
/// is *not* stored — it is rebuilt from the system configuration and
/// validated against the snapshot on restore.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoordinatorState {
    /// Auxiliary variables `z`, `[slice][ra]`.
    pub z: Vec<Vec<f64>>,
    /// Scaled duals `y`, `[slice][ra]`.
    pub y: Vec<Vec<f64>>,
    /// Last report received per RA, `[slice][ra]`.
    pub last_known: Vec<Vec<f64>>,
    /// Consecutive silent rounds per RA.
    pub staleness: Vec<usize>,
    /// Dead flags per RA.
    pub dead: Vec<bool>,
    /// Residuals of every completed round, in order.
    pub residual_history: Vec<AdmmResiduals>,
    /// The dual safeguard bound in effect.
    pub dual_clamp: f64,
    /// The staleness budget in effect, rounds.
    pub staleness_budget: usize,
    /// Active flags per slice row (dynamic workloads; empty means every
    /// row active, the static default).
    pub active: Vec<bool>,
    /// Live per-slice `Umin` (renegotiated SLAs; empty means the
    /// construction-time SLAs are in force).
    pub umins: Vec<f64>,
}

/// The performance coordinator.
#[derive(Debug, Clone)]
pub struct PerformanceCoordinator {
    slas: Vec<Sla>,
    n_ras: usize,
    /// Auxiliary variables `z`, `[slice][ra]`.
    z: Vec<Vec<f64>>,
    /// Scaled dual variables `y`, `[slice][ra]`.
    y: Vec<Vec<f64>>,
    config: AdmmConfig,
    tracker: ConvergenceTracker,
    /// Safeguard bound on |y|: scaled duals are clamped into
    /// `[-dual_clamp, dual_clamp]`. With a feasible SLA the duals stay far
    /// inside the bound and the clamp is inert; with a (transiently)
    /// infeasible SLA it prevents dual divergence from driving the
    /// coordination signal outside the agents' trained input range — the
    /// standard safeguarded-ADMM device.
    dual_clamp: f64,
    /// Last report received per RA, `[slice][ra]` (bounded-staleness reuse).
    last_known: Vec<Vec<f64>>,
    /// Consecutive rounds each RA has gone without reporting.
    staleness: Vec<usize>,
    /// Missed rounds tolerated before an RA is declared dead.
    staleness_budget: usize,
    /// RAs currently declared dead (past the staleness budget).
    dead: Vec<bool>,
    /// Active flags per slice row: an inactive slice (slot pending
    /// arrival, rejected, or departed) leaves the projection entirely —
    /// its `z`/`y` row is zeroed and neither update touches it.
    active: Vec<bool>,
}

impl PerformanceCoordinator {
    /// Creates a coordinator for `slas.len()` slices over `n_ras` RAs.
    ///
    /// `z` is initialized to an even split of each slice's SLA across RAs
    /// (a feasible starting point); `y` to zero (Alg. 1 line 1).
    ///
    /// # Panics
    ///
    /// Panics if there are no slices or no RAs.
    pub fn new(slas: &[Sla], n_ras: usize, config: AdmmConfig) -> Self {
        assert!(!slas.is_empty(), "need at least one slice");
        assert!(n_ras > 0, "need at least one RA");
        let z = slas
            .iter()
            .map(|sla| vec![sla.umin / n_ras as f64; n_ras])
            .collect();
        let y = vec![vec![0.0; n_ras]; slas.len()];
        let last_known = vec![vec![0.0; n_ras]; slas.len()];
        Self {
            slas: slas.to_vec(),
            n_ras,
            z,
            y,
            config,
            tracker: ConvergenceTracker::new(),
            dual_clamp: 50.0,
            last_known,
            staleness: vec![0; n_ras],
            staleness_budget: 3,
            dead: vec![false; n_ras],
            active: vec![true; slas.len()],
        }
    }

    /// Activates slice row `slice` with SLA `sla` (a dynamic admission or
    /// an in-place resize): the row re-enters the projection with `z`
    /// re-split evenly across the alive RAs and a fresh (zero) dual
    /// column — the ADMM re-anchors on the new requirement instead of
    /// ascending on duals accumulated under the old one.
    ///
    /// # Panics
    ///
    /// Panics if `slice` is beyond the coordinator's slice capacity.
    pub(crate) fn admit_slice(&mut self, slice: SliceId, sla: Sla) {
        let i = slice.0;
        assert!(i < self.slas.len(), "slice {i} beyond capacity");
        self.slas[i] = sla;
        self.active[i] = true;
        let alive = self.dead.iter().filter(|d| !**d).count();
        let share = if alive == 0 {
            0.0
        } else {
            sla.umin / alive as f64
        };
        for j in 0..self.n_ras {
            self.z[i][j] = if self.dead[j] { 0.0 } else { share };
            self.y[i][j] = 0.0;
            self.last_known[i][j] = 0.0;
        }
    }

    /// Deactivates slice row `slice` (teardown): its `z`/`y`/last-known
    /// row is zeroed and the row leaves the projection — the departed
    /// slice's share of every RA is redistributed to the survivors by the
    /// next `z`-update, the row analogue of dead-RA column redistribution.
    ///
    /// # Panics
    ///
    /// Panics if `slice` is beyond the coordinator's slice capacity.
    pub(crate) fn depart_slice(&mut self, slice: SliceId) {
        let i = slice.0;
        assert!(i < self.slas.len(), "slice {i} beyond capacity");
        self.active[i] = false;
        for j in 0..self.n_ras {
            self.z[i][j] = 0.0;
            self.y[i][j] = 0.0;
            self.last_known[i][j] = 0.0;
        }
    }

    /// Renegotiates an active slice's SLA in place. Equivalent to
    /// re-admitting the row under the new requirement.
    ///
    /// # Panics
    ///
    /// Panics if `slice` is beyond the coordinator's slice capacity.
    pub(crate) fn resize_slice(&mut self, slice: SliceId, sla: Sla) {
        self.admit_slice(slice, sla);
    }

    /// Whether slice row `slice` is currently in the projection.
    pub fn slice_active(&self, slice: SliceId) -> bool {
        self.active[slice.0]
    }

    /// Slice `slice`'s live `Umin` (tracks renegotiated SLAs).
    pub fn slice_umin(&self, slice: SliceId) -> f64 {
        self.slas[slice.0].umin
    }

    /// Number of slices.
    pub fn n_slices(&self) -> usize {
        self.slas.len()
    }

    /// Number of RAs.
    pub fn n_ras(&self) -> usize {
        self.n_ras
    }

    /// The current auxiliary variables `z`.
    pub fn z(&self) -> &[Vec<f64>] {
        &self.z
    }

    /// The current scaled duals `y`.
    pub fn y(&self) -> &[Vec<f64>] {
        &self.y
    }

    /// The ADMM configuration in effect.
    pub fn config(&self) -> &AdmmConfig {
        &self.config
    }

    /// The coordinating information `z − y` for all agents.
    pub fn coordination_info(&self) -> CoordinationInfo {
        let zy = self
            .z
            .iter()
            .zip(&self.y)
            .map(|(zr, yr)| zr.iter().zip(yr).map(|(z, y)| z - y).collect())
            .collect();
        CoordinationInfo { zy }
    }

    /// One coordination round (Alg. 1 lines 7–10): given the achieved
    /// per-period performance `Σ_t U_{i,j}` (indexed `[slice][ra]`),
    /// update `z` by solving `P2` and `y` by the scaled dual ascent.
    /// Returns this round's residuals.
    ///
    /// # Panics
    ///
    /// Panics if `achieved` is not `n_slices × n_ras`.
    pub fn update(&mut self, achieved: &[Vec<f64>]) -> AdmmResiduals {
        let present = vec![true; self.n_ras];
        self.update_partial(achieved, &present)
    }

    /// One coordination round with a possibly incomplete set of RA reports.
    ///
    /// `present[j]` says whether RA `j`'s report made this round's
    /// deadline; for missing RAs, `achieved[·][j]` is ignored. The
    /// degradation policy (module docs) substitutes last-known reports
    /// within the staleness budget, freezes missing RAs' dual columns,
    /// drops dead RAs from the projection and revives rejoining ones with
    /// zeroed duals.
    ///
    /// # Panics
    ///
    /// Panics if `achieved` is not `n_slices × n_ras` or
    /// `present.len() != n_ras`.
    pub fn update_partial(&mut self, achieved: &[Vec<f64>], present: &[bool]) -> AdmmResiduals {
        assert_eq!(achieved.len(), self.slas.len(), "slice count mismatch");
        assert_eq!(present.len(), self.n_ras, "presence flag count mismatch");

        // Liveness bookkeeping first: arrival of a report always revives.
        for j in 0..self.n_ras {
            if present[j] {
                if self.dead[j] {
                    // Rejoin after death: the RA restarts from checkpointed
                    // policy; stale duals would mis-steer it.
                    for yr in &mut self.y {
                        yr[j] = 0.0;
                    }
                }
                self.dead[j] = false;
                self.staleness[j] = 0;
            } else {
                self.staleness[j] += 1;
                if self.staleness[j] > self.staleness_budget {
                    self.dead[j] = true;
                    for row in self.z.iter_mut().chain(self.y.iter_mut()) {
                        row[j] = 0.0;
                    }
                }
            }
        }

        // Effective reports: fresh where present, last-known otherwise.
        for (i, row) in achieved.iter().enumerate() {
            assert_eq!(row.len(), self.n_ras, "RA count mismatch for slice {i}");
            for (j, &u) in row.iter().enumerate() {
                if present[j] {
                    self.last_known[i][j] = u;
                }
            }
        }
        let alive: Vec<usize> = (0..self.n_ras).filter(|&j| !self.dead[j]).collect();

        let z_prev: Vec<f64> = self.z.iter().flatten().copied().collect();
        for i in 0..self.slas.len() {
            if alive.is_empty() {
                break; // Total blackout: hold z and y until someone rejoins.
            }
            if !self.active[i] {
                continue; // Departed/pending row: stays zeroed, no updates.
            }
            // c = Σ_t U + y over the alive columns only; project onto
            // { Σ_{j alive} z ≥ Umin_i } — a dead RA's share of the SLA is
            // redistributed across the survivors, not silently zeroed.
            let c: Vec<f64> = alive
                .iter()
                .map(|&j| self.last_known[i][j] + self.y[i][j])
                .collect();
            let projected = project_sum_halfspace(&c, self.slas[i].umin);
            for (slot, &j) in alive.iter().enumerate() {
                self.z[i][j] = projected[slot];
            }
            // y ← y + (Σ_t U − z) (Eq. 10) for *reporting* RAs only: a
            // stale report must not drive dual ascent.
            let mut u_alive = vec![0.0; alive.len()];
            let mut z_alive = vec![0.0; alive.len()];
            let mut y_alive = vec![0.0; alive.len()];
            for (slot, &j) in alive.iter().enumerate() {
                u_alive[slot] = self.last_known[i][j];
                z_alive[slot] = self.z[i][j];
                y_alive[slot] = self.y[i][j];
            }
            dual_update(&mut y_alive, &u_alive, &z_alive);
            for (slot, &j) in alive.iter().enumerate() {
                if present[j] {
                    self.y[i][j] = y_alive[slot].clamp(-self.dual_clamp, self.dual_clamp);
                }
            }
        }
        let z_now: Vec<f64> = self.z.iter().flatten().copied().collect();
        let effective_flat: Vec<f64> = self.last_known.iter().flatten().copied().collect();
        let residuals = AdmmResiduals::compute(&effective_flat, &z_now, &z_prev, self.config.rho);
        self.tracker.record(residuals);
        residuals
    }

    /// Whether `ra` is currently declared dead.
    pub fn is_dead(&self, ra: RaId) -> bool {
        self.dead[ra.0]
    }

    /// True once the coordination loop should stop (converged or at the
    /// round cap — Alg. 1 line 12).
    pub fn converged(&self) -> bool {
        self.tracker.should_stop(&self.config)
    }

    /// Coordination rounds run so far.
    pub fn rounds(&self) -> usize {
        self.tracker.rounds()
    }

    /// Captures the complete mutable state for a durable snapshot.
    pub fn snapshot(&self) -> CoordinatorState {
        CoordinatorState {
            z: self.z.clone(),
            y: self.y.clone(),
            last_known: self.last_known.clone(),
            staleness: self.staleness.clone(),
            dead: self.dead.clone(),
            residual_history: self.tracker.history().to_vec(),
            dual_clamp: self.dual_clamp,
            staleness_budget: self.staleness_budget,
            active: self.active.clone(),
            umins: self.slas.iter().map(|s| s.umin).collect(),
        }
    }

    /// Restores the mutable state captured by [`PerformanceCoordinator::snapshot`].
    ///
    /// # Errors
    ///
    /// Returns [`crate::EdgeSliceError::SnapshotMismatch`] when the state's
    /// dimensions disagree with this coordinator's slice/RA counts.
    pub fn restore(&mut self, state: &CoordinatorState) -> Result<(), crate::EdgeSliceError> {
        let n_slices = self.slas.len();
        let shape_ok = state.z.len() == n_slices
            && state.y.len() == n_slices
            && state.last_known.len() == n_slices
            && state
                .z
                .iter()
                .chain(&state.y)
                .chain(&state.last_known)
                .all(|row| row.len() == self.n_ras)
            && state.staleness.len() == self.n_ras
            && state.dead.len() == self.n_ras
            // Lifecycle fields: empty means "static defaults" (a pre-churn
            // snapshot), otherwise one entry per slice row.
            && (state.active.is_empty() || state.active.len() == n_slices)
            && (state.umins.is_empty() || state.umins.len() == n_slices);
        if !shape_ok {
            return Err(crate::EdgeSliceError::SnapshotMismatch {
                reason: format!(
                    "coordinator state shaped for {}x{} does not fit {}x{} (slices x RAs)",
                    state.z.len(),
                    state.z.first().map_or(0, Vec::len),
                    n_slices,
                    self.n_ras
                ),
            });
        }
        self.z = state.z.clone();
        self.y = state.y.clone();
        self.last_known = state.last_known.clone();
        self.staleness = state.staleness.clone();
        self.dead = state.dead.clone();
        self.tracker = ConvergenceTracker::from_history(state.residual_history.clone());
        self.dual_clamp = state.dual_clamp;
        self.staleness_budget = state.staleness_budget;
        if !state.active.is_empty() {
            self.active = state.active.clone();
        }
        if !state.umins.is_empty() {
            for (sla, &umin) in self.slas.iter_mut().zip(&state.umins) {
                *sla = Sla::new(umin);
            }
        }
        Ok(())
    }

    /// Whether slice `i`'s SLA is met by the achieved performance.
    pub fn sla_met(&self, slice: SliceId, achieved: &[Vec<f64>]) -> bool {
        let total: f64 = achieved[slice.0].iter().sum();
        total >= self.slas[slice.0].umin - 1e-9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coordinator() -> PerformanceCoordinator {
        PerformanceCoordinator::new(
            &[Sla::new(-50.0), Sla::new(-50.0)],
            2,
            AdmmConfig::default(),
        )
    }

    #[test]
    fn initialization_is_feasible() {
        let c = coordinator();
        for (i, zr) in c.z().iter().enumerate() {
            let sum: f64 = zr.iter().sum();
            assert!(sum >= c.slas[i].umin - 1e-9);
            assert_eq!(zr.len(), 2);
        }
        assert!(c.y().iter().flatten().all(|&y| y == 0.0));
    }

    #[test]
    fn z_update_keeps_sla_feasible() {
        let mut c = coordinator();
        // Achieved performance far below SLA.
        let achieved = vec![vec![-100.0, -80.0], vec![-10.0, -5.0]];
        c.update(&achieved);
        for (i, zr) in c.z().iter().enumerate() {
            let sum: f64 = zr.iter().sum();
            assert!(sum >= c.slas[i].umin - 1e-9, "slice {i} z-sum {sum}");
        }
    }

    #[test]
    fn z_equals_c_when_sla_already_met() {
        let mut c = coordinator();
        let achieved = vec![vec![-10.0, -10.0], vec![-5.0, -5.0]];
        c.update(&achieved);
        // y was zero, c = achieved, Σc = -20 ≥ -50 ⇒ z = achieved, y stays 0.
        assert_eq!(c.z()[0], vec![-10.0, -10.0]);
        assert!(c.y()[0].iter().all(|&y| y.abs() < 1e-12));
    }

    #[test]
    fn duals_accumulate_infeasibility() {
        let mut c = coordinator();
        let achieved = vec![vec![-100.0, -100.0], vec![0.0, 0.0]];
        c.update(&achieved);
        // Slice 0 misses its SLA: z is lifted above achieved ⇒ y < 0.
        assert!(c.y()[0].iter().all(|&y| y < 0.0));
        // Slice 1 is fine ⇒ duals untouched.
        assert!(c.y()[1].iter().all(|&y| y.abs() < 1e-12));
    }

    #[test]
    fn coordination_info_is_z_minus_y() {
        let mut c = coordinator();
        c.update(&[vec![-100.0, -100.0], vec![0.0, 0.0]]);
        let info = c.coordination_info();
        for i in 0..2 {
            for j in 0..2 {
                assert!((info.zy[i][j] - (c.z()[i][j] - c.y()[i][j])).abs() < 1e-12);
            }
        }
        assert_eq!(info.for_ra(RaId(1)), vec![info.zy[0][1], info.zy[1][1]]);
    }

    #[test]
    fn convergence_when_agents_deliver_targets() {
        let mut c = coordinator();
        // An oracle agent that always delivers exactly z − y (consensus).
        for _ in 0..50 {
            let info = c.coordination_info();
            let achieved: Vec<Vec<f64>> = info.zy.clone();
            c.update(&achieved);
            if c.converged() {
                break;
            }
        }
        assert!(c.converged(), "oracle consensus should converge");
        assert!(c.rounds() < 50);
    }

    #[test]
    fn sla_check() {
        let c = coordinator();
        assert!(c.sla_met(SliceId(0), &[vec![-20.0, -20.0], vec![0.0, 0.0]]));
        assert!(!c.sla_met(SliceId(0), &[vec![-40.0, -20.0], vec![0.0, 0.0]]));
    }

    #[test]
    fn full_update_equals_update_partial_with_all_present() {
        let mut a = coordinator();
        let mut b = coordinator();
        let achieved = vec![vec![-100.0, -80.0], vec![-10.0, -5.0]];
        a.update(&achieved);
        b.update_partial(&achieved, &[true, true]);
        assert_eq!(a.z(), b.z());
        assert_eq!(a.y(), b.y());
    }

    #[test]
    fn missing_ra_freezes_its_dual_column() {
        let mut c = coordinator();
        c.update(&[vec![-100.0, -100.0], vec![-100.0, -100.0]]);
        let y_before: Vec<f64> = c.y().iter().map(|row| row[1]).collect();
        // RA 1 misses the next round: its duals must not move.
        c.update_partial(&[vec![-120.0, -90.0], vec![-80.0, -70.0]], &[true, false]);
        let y_after: Vec<f64> = c.y().iter().map(|row| row[1]).collect();
        assert_eq!(y_before, y_after, "missing RA's duals moved");
        assert_eq!(c.staleness[1], 1);
        assert!(!c.is_dead(RaId(1)));
    }

    #[test]
    fn exceeding_the_staleness_budget_declares_death_and_redistributes() {
        let mut c = coordinator();
        c.staleness_budget = 1;
        let achieved = vec![vec![-100.0, -100.0], vec![-100.0, -100.0]];
        c.update(&achieved);
        c.update_partial(&achieved, &[true, false]); // within budget
        assert!(!c.is_dead(RaId(1)));
        c.update_partial(&achieved, &[true, false]); // budget exceeded
        assert!(c.is_dead(RaId(1)));
        assert_eq!(c.dead, [false, true]);
        for (i, zr) in c.z().iter().enumerate() {
            assert_eq!(zr[1], 0.0, "dead column must leave the projection");
            assert!(
                zr[0] >= c.slas[i].umin - 1e-9,
                "slice {i}: survivor must absorb the whole SLA, z = {}",
                zr[0]
            );
        }
    }

    #[test]
    fn rejoin_revives_with_zeroed_duals() {
        let mut c = coordinator();
        c.staleness_budget = 0;
        let achieved = vec![vec![-100.0, -100.0], vec![-100.0, -100.0]];
        c.update(&achieved);
        c.update_partial(&achieved, &[true, false]);
        assert!(c.is_dead(RaId(1)));
        c.update_partial(&achieved, &[true, true]);
        assert!(!c.is_dead(RaId(1)));
        assert_eq!(c.staleness[1], 0);
        // The revived column's duals restarted from zero before this
        // round's ascent; after one ascent they are small relative to the
        // survivor's accumulated duals.
        assert!(c.y()[0][1].abs() <= c.y()[0][0].abs() + 1e-9);
    }

    #[test]
    fn snapshot_restore_round_trips_and_validates_shape() {
        let mut c = coordinator();
        c.staleness_budget = 2;
        let achieved = vec![vec![-100.0, -80.0], vec![-10.0, -5.0]];
        c.update(&achieved);
        c.update_partial(&achieved, &[true, false]);
        let state = c.snapshot();

        let mut fresh = coordinator();
        fresh.restore(&state).unwrap();
        assert_eq!(fresh.z(), c.z());
        assert_eq!(fresh.y(), c.y());
        assert_eq!(fresh.rounds(), c.rounds());
        assert_eq!(fresh.staleness[1], c.staleness[1]);
        assert_eq!(fresh.staleness_budget, 2);
        assert_eq!(fresh.snapshot(), state);

        // The restored coordinator continues exactly as the original.
        let next = vec![vec![-90.0, -70.0], vec![-8.0, -4.0]];
        let ra = c.update_partial(&next, &[true, true]);
        let rb = fresh.update_partial(&next, &[true, true]);
        assert_eq!(ra, rb);
        assert_eq!(fresh.z(), c.z());
        assert_eq!(fresh.y(), c.y());

        // A state shaped for a different system is rejected, not applied.
        let mut small = PerformanceCoordinator::new(&[Sla::new(-50.0)], 1, AdmmConfig::default());
        assert!(matches!(
            small.restore(&state),
            Err(crate::EdgeSliceError::SnapshotMismatch { .. })
        ));
    }

    #[test]
    fn departed_row_leaves_the_projection_and_survivors_absorb_it() {
        let mut c = coordinator();
        let achieved = vec![vec![-100.0, -100.0], vec![-100.0, -100.0]];
        c.update(&achieved);
        c.depart_slice(SliceId(0));
        assert!(!c.slice_active(SliceId(0)));
        assert!(c.z()[0].iter().all(|&z| z == 0.0));
        assert!(c.y()[0].iter().all(|&y| y == 0.0));
        // Updates no longer move the departed row, and the live row still
        // gets its full SLA.
        c.update(&achieved);
        assert!(c.z()[0].iter().all(|&z| z == 0.0));
        assert!(c.y()[0].iter().all(|&y| y == 0.0));
        let live_sum: f64 = c.z()[1].iter().sum();
        assert!(live_sum >= c.slas[1].umin - 1e-9);
    }

    #[test]
    fn admitted_row_reenters_with_even_split_and_fresh_duals() {
        let mut c = coordinator();
        let achieved = vec![vec![-100.0, -100.0], vec![-100.0, -100.0]];
        c.update(&achieved);
        c.depart_slice(SliceId(0));
        c.update(&achieved);
        c.admit_slice(SliceId(0), Sla::new(-30.0));
        assert!(c.slice_active(SliceId(0)));
        assert_eq!(c.slice_umin(SliceId(0)), -30.0);
        assert_eq!(c.z()[0], vec![-15.0, -15.0]);
        assert!(c.y()[0].iter().all(|&y| y == 0.0));
        // The new SLA governs the projection from the next update on.
        c.update(&achieved);
        let sum: f64 = c.z()[0].iter().sum();
        assert!(
            sum >= -30.0 - 1e-9,
            "row must satisfy the *new* Umin: {sum}"
        );
    }

    #[test]
    fn admit_skips_dead_columns() {
        let mut c = coordinator();
        c.staleness_budget = 0;
        let achieved = vec![vec![-100.0, -100.0], vec![-100.0, -100.0]];
        c.update(&achieved);
        c.update_partial(&achieved, &[true, false]);
        assert!(c.is_dead(RaId(1)));
        c.admit_slice(SliceId(0), Sla::new(-40.0));
        assert_eq!(c.z()[0], vec![-40.0, 0.0], "dead column stays zeroed");
    }

    #[test]
    fn lifecycle_state_round_trips_through_snapshot() {
        let mut c = coordinator();
        let achieved = vec![vec![-100.0, -100.0], vec![-100.0, -100.0]];
        c.update(&achieved);
        c.depart_slice(SliceId(1));
        c.resize_slice(SliceId(0), Sla::new(-35.0));
        let state = c.snapshot();
        assert_eq!(state.active, vec![true, false]);
        assert_eq!(state.umins, vec![-35.0, -50.0]);
        let mut fresh = coordinator();
        fresh.restore(&state).unwrap();
        assert!(!fresh.slice_active(SliceId(1)));
        assert_eq!(fresh.slice_umin(SliceId(0)), -35.0);
        assert_eq!(fresh.snapshot(), state);
    }

    #[test]
    fn restore_accepts_pre_churn_snapshots_with_empty_lifecycle_fields() {
        let mut c = coordinator();
        c.update(&[vec![-100.0, -80.0], vec![-10.0, -5.0]]);
        let mut state = c.snapshot();
        state.active.clear();
        state.umins.clear();
        let mut fresh = coordinator();
        fresh.restore(&state).unwrap();
        assert!(fresh.slice_active(SliceId(0)) && fresh.slice_active(SliceId(1)));
        assert_eq!(fresh.slice_umin(SliceId(0)), -50.0);
    }

    #[test]
    fn total_blackout_holds_state() {
        let mut c = coordinator();
        c.staleness_budget = 0;
        let achieved = vec![vec![-100.0, -100.0], vec![-100.0, -100.0]];
        c.update(&achieved);
        let (z, y) = (c.z().to_vec(), c.y().to_vec());
        c.update_partial(&achieved, &[false, false]);
        c.update_partial(&achieved, &[false, false]);
        assert_eq!(c.dead, [true, true]);
        // z/y zeroed for dead columns is the only change; a later rejoin
        // rebuilds them. No NaNs, no panics.
        assert!(c.z().iter().flatten().all(|v| v.is_finite()));
        assert!(c.y().iter().flatten().all(|v| v.is_finite()));
        let _ = (z, y);
    }
}
