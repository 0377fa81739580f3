//! Dynamic slice lifecycle: a seeded workload generator driving online
//! admit/resize/teardown through the ADMM coordinator.
//!
//! The paper's experiments fix the slice population at system start; real
//! tenants arrive, renegotiate and tear down over the SR interface
//! (Sec. V-D) while the network keeps serving. This module supplies the
//! two halves of that story:
//!
//! * [`WorkloadPlan`] — a *deterministic, seeded* schedule of
//!   [`SliceEvent`]s (arrivals, resizes, departures) indexed by
//!   orchestration round. Plans come from the classic slicing arrival
//!   models ([`ArrivalModel::Poisson`], [`ArrivalModel::Incremental`],
//!   [`ArrivalModel::IncrAndKeep`]), from trace-driven demand curves
//!   (CSV/JSON), or from an explicit validated script.
//! * [`SliceLifecycle`] — the online state machine the orchestrator runs
//!   the plan through: each event flows through the
//!   [`AdmissionController`], the resulting slot transitions are applied
//!   to the ADMM coordinator (grow/shrink `z`/`y` rows) and broadcast to
//!   workers as an idempotent absolute [`LifecycleState`], and per-slice
//!   [`SliceLifetime`] rows record the outcome for the run report.
//!
//! # Slot model
//!
//! Policy networks bake their dimensions at construction, so a run's
//! *capacity* — initial slices plus every planned arrival — is fixed up
//! front by [`WorkloadPlan::slot_specs`]; admission, resize and teardown
//! then activate, re-negotiate and deactivate those pre-assigned slots.
//! A rejected arrival permanently retires its slot (ids are never
//! recycled), and later events referencing it are no-ops.
//!
//! Determinism contract: plan generation draws from dedicated RNG
//! streams (`seed ^ WORKLOAD_STREAM_TAG` for the arrival process,
//! `seed ^ RESIZE_STREAM_TAG` for resize decisions) with guarded draws
//! — a zero rate consumes no randomness — so the same seed yields the
//! same arrival schedule regardless of which optional features are
//! enabled: toggling `resize_rate` never shifts the arrival stream.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use edgeslice_netsim::sample_poisson;

use crate::admission::{AdmissionController, RejectReason, SliceRequest};
use crate::{EdgeSliceError, Sla, SliceId, SliceSpec};

/// Domain-separation tag for the workload RNG stream (disjoint from the
/// fault-plan stream by construction).
const WORKLOAD_STREAM_TAG: u64 = 0x51C3_0000_0000_0007;

/// Domain-separation tag for the resize-decision RNG stream: resize
/// gates and magnitudes draw here so enabling/disabling resizes never
/// shifts the arrival schedule.
const RESIZE_STREAM_TAG: u64 = 0x51C3_0000_0000_0008;

/// One slice-lifecycle event over the SR interface.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SliceEvent {
    /// A tenant requests a new slice for the pre-assigned slot `slice`.
    Arrive {
        /// The slot the arrival will occupy if admitted.
        slice: SliceId,
        /// The tenant's request.
        request: SliceRequest,
    },
    /// A tenant renegotiates an admitted slice's traffic and SLA.
    Resize {
        /// The slice being renegotiated.
        slice: SliceId,
        /// New expected mean arrivals per interval, per RA.
        new_rate: f64,
        /// New SLA.
        new_sla: Sla,
    },
    /// A tenant tears an admitted slice down.
    Depart {
        /// The departing slice.
        slice: SliceId,
    },
}

impl SliceEvent {
    /// The slice the event concerns.
    pub fn slice(&self) -> SliceId {
        match self {
            SliceEvent::Arrive { slice, .. }
            | SliceEvent::Resize { slice, .. }
            | SliceEvent::Depart { slice } => *slice,
        }
    }
}

/// A [`SliceEvent`] pinned to the orchestration round it fires in.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduledEvent {
    /// Round index (0-based within the run) the event fires at.
    pub round: usize,
    /// The event.
    pub event: SliceEvent,
}

/// The arrival process a generated plan follows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ArrivalModel {
    /// Memoryless arrivals: `Poisson(rate)` new requests per round, each
    /// holding for a sampled lifetime (see
    /// [`WorkloadConfig::hold_rounds`]).
    Poisson {
        /// Expected arrivals per round (≥ 0, finite).
        rate: f64,
    },
    /// One arrival every `every_rounds`, departing `hold_rounds` later —
    /// the classic "incr" slicing benchmark.
    Incremental {
        /// Rounds between consecutive arrivals (≥ 1).
        every_rounds: usize,
        /// Rounds each arrival stays before teardown (≥ 1).
        hold_rounds: usize,
    },
    /// One arrival every `every_rounds` that never departs — the
    /// "incr-and-keep" benchmark.
    IncrAndKeep {
        /// Rounds between consecutive arrivals (≥ 1).
        every_rounds: usize,
    },
    /// Trace-driven: `demand[r]` is the target number of concurrently
    /// active slices at round `r`; the generator emits arrivals and
    /// (LIFO) departures to track the curve. Consumes no randomness.
    Trace {
        /// Target concurrent slice count per round (finite, ≥ 0).
        demand: Vec<f64>,
    },
}

/// Configuration for [`WorkloadPlan::generate`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadConfig {
    /// Seed for the dedicated workload RNG stream.
    pub seed: u64,
    /// Number of orchestration rounds the plan covers.
    pub horizon_rounds: usize,
    /// The arrival process.
    pub model: ArrivalModel,
    /// Template request for generated arrivals (app and SLA; the expected
    /// rate is resampled per arrival from `rate_range`).
    pub template: SliceRequest,
    /// Inclusive range the per-arrival expected rate is drawn from.
    pub rate_range: (f64, f64),
    /// Inclusive lifetime range, in rounds, for [`ArrivalModel::Poisson`]
    /// arrivals; `(0, 0)` means arrivals never depart.
    pub hold_rounds: (usize, usize),
    /// Per-arrival probability of one mid-lifetime resize (0 disables the
    /// draw entirely).
    pub resize_rate: f64,
}

impl WorkloadConfig {
    /// A small Poisson churn preset matched to the prototype system: one
    /// expected arrival every other round, short holds, occasional
    /// resizes.
    pub fn prototype(seed: u64, horizon_rounds: usize) -> Self {
        Self {
            seed,
            horizon_rounds,
            model: ArrivalModel::Poisson { rate: 0.5 },
            template: SliceRequest {
                app: edgeslice_netsim::AppProfile::traffic_heavy(),
                expected_rate: 10.0,
                sla: Sla::paper(),
            },
            rate_range: (5.0, 15.0),
            hold_rounds: (2, 5),
            resize_rate: 0.25,
        }
    }
}

/// A deterministic, validated schedule of slice-lifecycle events.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadPlan {
    initial: Vec<SliceRequest>,
    horizon_rounds: usize,
    /// Sorted (stably) by round; arrival slot ids ascend in event order.
    events: Vec<ScheduledEvent>,
}

impl WorkloadPlan {
    /// A plan with only the initial slices and no lifecycle events — the
    /// static workload expressed in dynamic terms.
    ///
    /// # Errors
    ///
    /// Returns [`EdgeSliceError::InvalidWorkloadPlan`] if an initial
    /// request is malformed or `horizon_rounds` is zero.
    pub fn static_only(
        initial: Vec<SliceRequest>,
        horizon_rounds: usize,
    ) -> Result<Self, EdgeSliceError> {
        Self::scripted(initial, horizon_rounds, Vec::new())
    }

    /// Builds a plan from an explicit event script. Events may arrive in
    /// any order; they are sorted stably by round.
    ///
    /// # Errors
    ///
    /// Returns [`EdgeSliceError::InvalidWorkloadPlan`] if any event is
    /// malformed: an arrival slot id out of sequence, an event at or past
    /// the horizon, a resize/departure before its slice arrives (or
    /// after it departs), or a non-finite rate.
    pub fn scripted(
        initial: Vec<SliceRequest>,
        horizon_rounds: usize,
        mut events: Vec<ScheduledEvent>,
    ) -> Result<Self, EdgeSliceError> {
        events.sort_by_key(|e| e.round);
        let plan = Self {
            initial,
            horizon_rounds,
            events,
        };
        plan.validate()?;
        Ok(plan)
    }

    /// Generates a seeded plan from an arrival model. Same seed, same
    /// config → same plan, on every platform.
    ///
    /// # Errors
    ///
    /// Returns [`EdgeSliceError::InvalidWorkloadPlan`] if the config is
    /// malformed (non-finite rates, zero horizon, empty range, …).
    pub fn generate(
        initial: Vec<SliceRequest>,
        config: &WorkloadConfig,
    ) -> Result<Self, EdgeSliceError> {
        let invalid = |msg: String| EdgeSliceError::InvalidWorkloadPlan(msg);
        if config.horizon_rounds == 0 {
            return Err(invalid("horizon_rounds must be at least 1".into()));
        }
        let (rate_lo, rate_hi) = config.rate_range;
        if !(rate_lo.is_finite() && rate_hi.is_finite()) || rate_lo < 0.0 || rate_hi < rate_lo {
            return Err(invalid(format!(
                "bad rate_range ({rate_lo}, {rate_hi}): need 0 <= lo <= hi, finite"
            )));
        }
        if !(0.0..=1.0).contains(&config.resize_rate) {
            return Err(invalid(format!(
                "resize_rate {} outside [0, 1]",
                config.resize_rate
            )));
        }
        let mut rng = StdRng::seed_from_u64(config.seed ^ WORKLOAD_STREAM_TAG);
        // Resize gates and magnitudes live on their own derived stream:
        // the arrival schedule is a pure function of the arrival stream,
        // so toggling resize_rate never shifts when slices arrive.
        let mut resize_rng = StdRng::seed_from_u64(config.seed ^ RESIZE_STREAM_TAG);
        let mut events: Vec<ScheduledEvent> = Vec::new();
        let mut next_id = initial.len();
        // Guarded draws: every optional feature checks its gate before
        // touching its RNG, so disabling one never shifts another's
        // stream.
        let draw_rate = |rng: &mut StdRng| {
            if rate_hi > rate_lo {
                rng.gen_range(rate_lo..=rate_hi)
            } else {
                rate_lo
            }
        };
        let mut spawn = |rng: &mut StdRng,
                         resize_rng: &mut StdRng,
                         events: &mut Vec<ScheduledEvent>,
                         round: usize,
                         hold: Option<usize>,
                         resize_rate: f64| {
            let slice = SliceId(next_id);
            next_id += 1;
            let request = SliceRequest {
                expected_rate: draw_rate(rng),
                ..config.template
            };
            events.push(ScheduledEvent {
                round,
                event: SliceEvent::Arrive { slice, request },
            });
            let depart_round = hold.map(|h| round + h);
            if resize_rate > 0.0 && resize_rng.gen_bool(resize_rate) {
                let mid = round + hold.map_or(2, |h| (h / 2).max(1));
                let before_departure = depart_round.is_none_or(|d| mid < d);
                if mid < config.horizon_rounds && before_departure {
                    let factor = resize_rng.gen_range(0.8..=1.2);
                    events.push(ScheduledEvent {
                        round: mid,
                        event: SliceEvent::Resize {
                            slice,
                            new_rate: draw_rate(resize_rng),
                            new_sla: Sla::new(config.template.sla.umin * factor),
                        },
                    });
                }
            }
            if let Some(d) = depart_round {
                if d < config.horizon_rounds {
                    events.push(ScheduledEvent {
                        round: d,
                        event: SliceEvent::Depart { slice },
                    });
                }
            }
        };
        match &config.model {
            ArrivalModel::Poisson { rate } => {
                if !rate.is_finite() || *rate < 0.0 {
                    return Err(invalid(format!("bad Poisson rate {rate}")));
                }
                let (hold_lo, hold_hi) = config.hold_rounds;
                if hold_hi < hold_lo {
                    return Err(invalid(format!(
                        "bad hold_rounds ({hold_lo}, {hold_hi}): need lo <= hi"
                    )));
                }
                for round in 0..config.horizon_rounds {
                    let n = if *rate > 0.0 {
                        sample_poisson(*rate, &mut rng)
                    } else {
                        0
                    };
                    for _ in 0..n {
                        let hold = if hold_hi == 0 {
                            None
                        } else if hold_hi > hold_lo {
                            Some(rng.gen_range(hold_lo.max(1)..=hold_hi))
                        } else {
                            Some(hold_lo)
                        };
                        spawn(
                            &mut rng,
                            &mut resize_rng,
                            &mut events,
                            round,
                            hold,
                            config.resize_rate,
                        );
                    }
                }
            }
            ArrivalModel::Incremental {
                every_rounds,
                hold_rounds,
            } => {
                if *every_rounds == 0 || *hold_rounds == 0 {
                    return Err(invalid(
                        "Incremental needs every_rounds >= 1 and hold_rounds >= 1".into(),
                    ));
                }
                let mut round = *every_rounds;
                while round < config.horizon_rounds {
                    spawn(
                        &mut rng,
                        &mut resize_rng,
                        &mut events,
                        round,
                        Some(*hold_rounds),
                        config.resize_rate,
                    );
                    round += every_rounds;
                }
            }
            ArrivalModel::IncrAndKeep { every_rounds } => {
                if *every_rounds == 0 {
                    return Err(invalid("IncrAndKeep needs every_rounds >= 1".into()));
                }
                let mut round = *every_rounds;
                while round < config.horizon_rounds {
                    spawn(
                        &mut rng,
                        &mut resize_rng,
                        &mut events,
                        round,
                        None,
                        config.resize_rate,
                    );
                    round += every_rounds;
                }
            }
            ArrivalModel::Trace { demand } => {
                if demand.is_empty() {
                    return Err(invalid("trace demand curve is empty".into()));
                }
                if let Some(bad) = demand.iter().find(|v| !v.is_finite() || **v < 0.0) {
                    return Err(invalid(format!("bad trace demand value {bad}")));
                }
                // LIFO stack of currently active slots the trace controls.
                let mut stack: Vec<SliceId> = (0..initial.len()).map(SliceId).collect();
                for round in 0..config.horizon_rounds {
                    let target = demand[round.min(demand.len() - 1)].round() as usize;
                    while stack.len() < target {
                        let slice = SliceId(next_id);
                        next_id += 1;
                        events.push(ScheduledEvent {
                            round,
                            event: SliceEvent::Arrive {
                                slice,
                                request: config.template,
                            },
                        });
                        stack.push(slice);
                    }
                    while stack.len() > target {
                        let slice = stack
                            .pop()
                            .expect("invariant: stack longer than target is non-empty");
                        events.push(ScheduledEvent {
                            round,
                            event: SliceEvent::Depart { slice },
                        });
                    }
                }
            }
        }
        Self::scripted(initial, config.horizon_rounds, events)
    }

    /// Builds a trace-driven plan from CSV text: `round,target_slices`
    /// rows (the [`edgeslice_netsim::CsvTrace`] format), one row per
    /// round; the plan horizon is the trace length.
    ///
    /// # Errors
    ///
    /// Returns [`EdgeSliceError::InvalidWorkloadPlan`] on malformed rows
    /// or an inconsistent resulting plan.
    pub fn from_trace_csv(
        initial: Vec<SliceRequest>,
        text: &str,
        template: &SliceRequest,
    ) -> Result<Self, EdgeSliceError> {
        let trace =
            edgeslice_netsim::CsvTrace::parse(text).map_err(EdgeSliceError::InvalidWorkloadPlan)?;
        let demand: Vec<f64> = (0..trace.len())
            .map(|i| edgeslice_netsim::TrafficSource::mean_rate(&trace, i))
            .collect();
        Self::from_demand(initial, demand, template)
    }

    /// Builds a trace-driven plan from a JSON array of per-round target
    /// slice counts (e.g. `[2, 3, 3, 1]`).
    ///
    /// # Errors
    ///
    /// Returns [`EdgeSliceError::InvalidWorkloadPlan`] on malformed JSON
    /// or an inconsistent resulting plan.
    pub fn from_trace_json(
        initial: Vec<SliceRequest>,
        text: &str,
        template: &SliceRequest,
    ) -> Result<Self, EdgeSliceError> {
        let demand: Vec<f64> = serde_json::from_str(text)
            .map_err(|e| EdgeSliceError::InvalidWorkloadPlan(format!("bad JSON trace: {e}")))?;
        Self::from_demand(initial, demand, template)
    }

    /// Shared trace-curve constructor behind the CSV/JSON fronts.
    fn from_demand(
        initial: Vec<SliceRequest>,
        demand: Vec<f64>,
        template: &SliceRequest,
    ) -> Result<Self, EdgeSliceError> {
        let horizon = demand.len();
        Self::generate(
            initial,
            &WorkloadConfig {
                seed: 0, // the Trace model consumes no randomness
                horizon_rounds: horizon,
                model: ArrivalModel::Trace { demand },
                template: *template,
                rate_range: (template.expected_rate, template.expected_rate),
                hold_rounds: (0, 0),
                resize_rate: 0.0,
            },
        )
    }

    /// Structural validation; every constructor funnels through this.
    fn validate(&self) -> Result<(), EdgeSliceError> {
        let invalid = |msg: String| EdgeSliceError::InvalidWorkloadPlan(msg);
        if self.horizon_rounds == 0 {
            return Err(invalid("horizon_rounds must be at least 1".into()));
        }
        let check_request = |who: &str, r: &SliceRequest| {
            if !r.expected_rate.is_finite() || r.expected_rate < 0.0 {
                return Err(invalid(format!(
                    "{who}: bad expected_rate {}",
                    r.expected_rate
                )));
            }
            if !r.sla.umin.is_finite() {
                return Err(invalid(format!("{who}: non-finite Umin {}", r.sla.umin)));
            }
            Ok(())
        };
        for (i, r) in self.initial.iter().enumerate() {
            check_request(&format!("initial slice {i}"), r)?;
        }
        let capacity = self.capacity();
        let mut next_arrival = self.initial.len();
        let mut arrived = vec![true; self.initial.len()];
        arrived.resize(capacity, false);
        let mut departed = vec![false; capacity];
        for (pos, ev) in self.events.iter().enumerate() {
            if ev.round >= self.horizon_rounds {
                return Err(invalid(format!(
                    "event {pos} at round {} is past the horizon ({})",
                    ev.round, self.horizon_rounds
                )));
            }
            let slice = ev.event.slice();
            match &ev.event {
                SliceEvent::Arrive { request, .. } => {
                    if slice.0 != next_arrival {
                        return Err(invalid(format!(
                            "arrival {pos} has slot id {} but the next free slot is {next_arrival}",
                            slice.0
                        )));
                    }
                    check_request(&format!("arrival for slice {}", slice.0), request)?;
                    arrived[slice.0] = true;
                    next_arrival += 1;
                }
                SliceEvent::Resize {
                    new_rate, new_sla, ..
                } => {
                    if slice.0 >= capacity || !arrived[slice.0] {
                        return Err(invalid(format!(
                            "resize {pos} targets slice {} before it arrives",
                            slice.0
                        )));
                    }
                    if departed[slice.0] {
                        return Err(invalid(format!(
                            "resize {pos} targets slice {} after it departs",
                            slice.0
                        )));
                    }
                    if !new_rate.is_finite() || *new_rate < 0.0 {
                        return Err(invalid(format!("resize {pos}: bad rate {new_rate}")));
                    }
                    if !new_sla.umin.is_finite() {
                        return Err(invalid(format!("resize {pos}: non-finite Umin")));
                    }
                }
                SliceEvent::Depart { .. } => {
                    if slice.0 >= capacity || !arrived[slice.0] {
                        return Err(invalid(format!(
                            "departure {pos} targets slice {} before it arrives",
                            slice.0
                        )));
                    }
                    if departed[slice.0] {
                        return Err(invalid(format!(
                            "departure {pos} targets slice {} twice",
                            slice.0
                        )));
                    }
                    departed[slice.0] = true;
                }
            }
        }
        Ok(())
    }

    /// The initial (round-0, pre-run) slice requests.
    pub fn initial(&self) -> &[SliceRequest] {
        &self.initial
    }

    /// The scheduled lifecycle events, sorted by round.
    pub fn events(&self) -> &[ScheduledEvent] {
        &self.events
    }

    /// Rounds the plan covers.
    pub fn horizon_rounds(&self) -> usize {
        self.horizon_rounds
    }

    /// Total slot count: initial slices plus every planned arrival. This
    /// is the slice dimension the system must be constructed with.
    pub fn capacity(&self) -> usize {
        self.initial.len()
            + self
                .events
                .iter()
                .filter(|e| matches!(e.event, SliceEvent::Arrive { .. }))
                .count()
    }

    /// The complete slot list — one [`SliceSpec`] per slot, initial
    /// slices first, then arrivals in event order. Pass this as
    /// [`crate::SystemConfig::slices`] so the policy networks are sized
    /// for the whole run.
    pub fn slot_specs(&self) -> Vec<SliceSpec> {
        let mut specs: Vec<SliceSpec> = self
            .initial
            .iter()
            .enumerate()
            .map(|(i, r)| SliceSpec::new(SliceId(i), r.app, r.sla))
            .collect();
        for ev in &self.events {
            if let SliceEvent::Arrive { slice, request } = &ev.event {
                specs.push(SliceSpec::new(*slice, request.app, request.sla));
            }
        }
        specs
    }
}

/// Where a slot is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SlotStatus {
    /// The arrival has not fired yet.
    Pending,
    /// Admitted and serving.
    Active,
    /// The arrival was rejected; the slot is permanently retired.
    Rejected,
    /// Admitted, then torn down; the slot is permanently retired.
    Departed,
}

/// One slot's lifecycle outcome, reported in
/// [`crate::RunReport::slice_lifetimes`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SliceLifetime {
    /// The slot.
    pub slice: SliceId,
    /// Round the slice was admitted at (`Some(0)` for initial slices;
    /// `None` if rejected or never arrived).
    pub admit_round: Option<usize>,
    /// Round the slice departed at (`None` if it outlived the run).
    pub depart_round: Option<usize>,
    /// Why admission rejected the arrival, if it did.
    pub reject: Option<RejectReason>,
    /// Successful in-place resizes.
    pub resizes: usize,
}

/// What one round's lifecycle events did — the orchestrator maps these
/// onto coordinator mutations and monitor rows.
#[derive(Debug, Clone, PartialEq)]
pub enum LifecycleAction {
    /// An arrival was admitted.
    Admitted {
        /// The new slice.
        slice: SliceId,
        /// Its negotiated SLA.
        sla: Sla,
    },
    /// An arrival was rejected.
    Rejected {
        /// The retired slot.
        slice: SliceId,
        /// The binding capacity domain.
        reason: RejectReason,
    },
    /// An admitted slice was resized in place.
    Resized {
        /// The resized slice.
        slice: SliceId,
        /// Its new SLA.
        sla: Sla,
    },
    /// A resize did not fit; the slice keeps its previous allocation
    /// (make-before-break).
    ResizeRejected {
        /// The unchanged slice.
        slice: SliceId,
        /// The binding capacity domain.
        reason: RejectReason,
    },
    /// An admitted slice was torn down.
    Departed {
        /// The retired slot.
        slice: SliceId,
    },
}

/// The absolute per-slot lifecycle state broadcast to workers each round.
///
/// Absolute (not a diff) so the payload is idempotent and self-healing: a
/// worker that missed rounds — dark through an outage, or respawned —
/// converges on the next broadcast it sees.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LifecycleState {
    /// Whether each slot is currently serving.
    pub active: Vec<bool>,
    /// Each slot's negotiated rate *override*: `Some(r)` for dynamic
    /// arrivals and resized slices (workers install `Poisson(r)`), `None`
    /// for slots still on their construction-time traffic source.
    /// Overrides survive departure so substrate RNG streams stay aligned.
    pub rates: Vec<Option<f64>>,
}

impl LifecycleState {
    /// Encodes the state for the wire (the opaque
    /// [`edgeslice_runtime::CoordInfo::lifecycle`] payload).
    pub fn encode(&self) -> Vec<u8> {
        serde_json::to_string(self)
            .expect("invariant: plain-data struct always serializes")
            .into_bytes()
    }

    /// Decodes a wire payload.
    ///
    /// # Errors
    ///
    /// Returns [`EdgeSliceError::Serialization`] on undecodable bytes.
    pub fn decode(bytes: &[u8]) -> Result<Self, EdgeSliceError> {
        serde_json::from_str(&String::from_utf8_lossy(bytes)).map_err(Into::into)
    }
}

/// Durable snapshot of a [`SliceLifecycle`] mid-run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LifecycleSnapshot {
    /// The admission controller's committed-demand ledger.
    pub admission: AdmissionController,
    /// Per-slot status.
    pub status: Vec<SlotStatus>,
    /// Per-slot negotiated rates.
    pub rates: Vec<Option<f64>>,
    /// Per-slot broadcast rate overrides (see [`LifecycleState::rates`]).
    pub overrides: Vec<Option<f64>>,
    /// Per-slot live SLAs.
    pub slas: Vec<Sla>,
    /// Per-slot lifetime rows.
    pub lifetimes: Vec<SliceLifetime>,
    /// Events consumed so far.
    pub cursor: usize,
}

/// The online lifecycle state machine: a [`WorkloadPlan`] replayed round
/// by round through an [`AdmissionController`].
#[derive(Debug, Clone)]
pub struct SliceLifecycle {
    plan: WorkloadPlan,
    admission: AdmissionController,
    status: Vec<SlotStatus>,
    /// Negotiated rate per slot (always `Some` once admitted) — what
    /// release/resize settle demand against.
    rates: Vec<Option<f64>>,
    /// Broadcast overrides: `None` for initial slots never resized (they
    /// keep their configured traffic source on the workers).
    overrides: Vec<Option<f64>>,
    slas: Vec<Sla>,
    lifetimes: Vec<SliceLifetime>,
    cursor: usize,
}

impl SliceLifecycle {
    /// Builds the state machine and admits the plan's initial slices
    /// (recorded as round-0 admissions; an initial slice the controller
    /// cannot fit is a round-0 rejection, not an error).
    pub fn new(plan: WorkloadPlan, mut admission: AdmissionController) -> Self {
        let capacity = plan.capacity();
        let slot_specs = plan.slot_specs();
        let mut status = vec![SlotStatus::Pending; capacity];
        let mut rates: Vec<Option<f64>> = vec![None; capacity];
        let overrides: Vec<Option<f64>> = vec![None; capacity];
        let slas: Vec<Sla> = slot_specs.iter().map(|s| s.sla).collect();
        let mut lifetimes: Vec<SliceLifetime> = (0..capacity)
            .map(|i| SliceLifetime {
                slice: SliceId(i),
                admit_round: None,
                depart_round: None,
                reject: None,
                resizes: 0,
            })
            .collect();
        for (i, request) in plan.initial().iter().enumerate() {
            match admission.decide_as(SliceId(i), request) {
                Ok(_) => {
                    status[i] = SlotStatus::Active;
                    rates[i] = Some(request.expected_rate);
                    lifetimes[i].admit_round = Some(0);
                }
                Err(reason) => {
                    status[i] = SlotStatus::Rejected;
                    lifetimes[i].reject = Some(reason);
                }
            }
        }
        Self {
            plan,
            admission,
            status,
            rates,
            overrides,
            slas,
            lifetimes,
            cursor: 0,
        }
    }

    /// Applies every event scheduled at or before `round` that has not
    /// fired yet, returning the resulting transitions in event order.
    /// Events targeting retired slots (rejected arrivals, departed
    /// slices) are no-ops.
    pub fn apply_round(&mut self, round: usize) -> Vec<LifecycleAction> {
        let mut actions = Vec::new();
        while self.cursor < self.plan.events.len() && self.plan.events[self.cursor].round <= round {
            let ev = self.plan.events[self.cursor].clone();
            self.cursor += 1;
            let i = ev.event.slice().0;
            match ev.event {
                SliceEvent::Arrive { slice, request } => {
                    if self.status[i] != SlotStatus::Pending {
                        continue;
                    }
                    match self.admission.decide_as(slice, &request) {
                        Ok(spec) => {
                            self.status[i] = SlotStatus::Active;
                            self.rates[i] = Some(request.expected_rate);
                            self.overrides[i] = Some(request.expected_rate);
                            self.slas[i] = spec.sla;
                            self.lifetimes[i].admit_round = Some(round);
                            actions.push(LifecycleAction::Admitted {
                                slice,
                                sla: spec.sla,
                            });
                        }
                        Err(reason) => {
                            self.status[i] = SlotStatus::Rejected;
                            self.lifetimes[i].reject = Some(reason);
                            actions.push(LifecycleAction::Rejected { slice, reason });
                        }
                    }
                }
                SliceEvent::Resize {
                    slice,
                    new_rate,
                    new_sla,
                } => {
                    if self.status[i] != SlotStatus::Active {
                        continue;
                    }
                    let old_rate = self.rates[i]
                        .expect("invariant: an Active slot always has a negotiated rate");
                    match self.admission.resize(slice, old_rate, new_rate, new_sla) {
                        Ok(spec) => {
                            self.rates[i] = Some(new_rate);
                            self.overrides[i] = Some(new_rate);
                            self.slas[i] = spec.sla;
                            self.lifetimes[i].resizes += 1;
                            actions.push(LifecycleAction::Resized {
                                slice,
                                sla: spec.sla,
                            });
                        }
                        Err(EdgeSliceError::AdmissionRejected { reason, .. }) => {
                            actions.push(LifecycleAction::ResizeRejected { slice, reason });
                        }
                        Err(_) => {
                            // Unreachable while the Active invariant holds;
                            // treat as a no-op rather than poison the round.
                        }
                    }
                }
                SliceEvent::Depart { slice } => {
                    if self.status[i] != SlotStatus::Active {
                        continue;
                    }
                    let rate = self.rates[i]
                        .expect("invariant: an Active slot always has a negotiated rate");
                    if self.admission.release(slice, rate).is_ok() {
                        self.status[i] = SlotStatus::Departed;
                        self.lifetimes[i].depart_round = Some(round);
                        actions.push(LifecycleAction::Departed { slice });
                    }
                }
            }
        }
        actions
    }

    /// The absolute per-slot state to broadcast this round.
    pub fn state(&self) -> LifecycleState {
        LifecycleState {
            active: self
                .status
                .iter()
                .map(|s| *s == SlotStatus::Active)
                .collect(),
            rates: self.overrides.clone(),
        }
    }

    /// The plan being replayed.
    pub fn plan(&self) -> &WorkloadPlan {
        &self.plan
    }

    /// Per-slot lifetime rows (admit round, depart round, reject reason,
    /// resize count).
    pub fn lifetimes(&self) -> &[SliceLifetime] {
        &self.lifetimes
    }

    /// Each slot's live SLA (initial spec until admission/resize changes
    /// it).
    pub fn slas(&self) -> &[Sla] {
        &self.slas
    }

    /// Slots ever admitted.
    pub fn admitted_count(&self) -> usize {
        self.lifetimes
            .iter()
            .filter(|l| l.admit_round.is_some())
            .count()
    }

    /// Slots whose arrival was rejected.
    pub fn rejected_count(&self) -> usize {
        self.lifetimes.iter().filter(|l| l.reject.is_some()).count()
    }

    /// Slots currently serving.
    pub fn active_count(&self) -> usize {
        self.status
            .iter()
            .filter(|s| **s == SlotStatus::Active)
            .count()
    }

    /// Captures the machine's durable state.
    pub fn snapshot(&self) -> LifecycleSnapshot {
        LifecycleSnapshot {
            admission: self.admission.clone(),
            status: self.status.clone(),
            rates: self.rates.clone(),
            overrides: self.overrides.clone(),
            slas: self.slas.clone(),
            lifetimes: self.lifetimes.clone(),
            cursor: self.cursor,
        }
    }

    /// Restores a snapshot taken from the *same plan*.
    ///
    /// # Errors
    ///
    /// Returns [`EdgeSliceError::SnapshotMismatch`] if the snapshot's
    /// shape does not match the plan's capacity.
    pub fn restore(&mut self, snap: LifecycleSnapshot) -> Result<(), EdgeSliceError> {
        let capacity = self.plan.capacity();
        if snap.status.len() != capacity
            || snap.rates.len() != capacity
            || snap.overrides.len() != capacity
            || snap.slas.len() != capacity
            || snap.lifetimes.len() != capacity
            || snap.cursor > self.plan.events.len()
        {
            return Err(EdgeSliceError::SnapshotMismatch {
                reason: format!(
                    "lifecycle snapshot covers {} slots / cursor {}, plan has {} slots / {} events",
                    snap.status.len(),
                    snap.cursor,
                    capacity,
                    self.plan.events.len()
                ),
            });
        }
        self.admission = snap.admission;
        self.status = snap.status;
        self.rates = snap.rates;
        self.overrides = snap.overrides;
        self.slas = snap.slas;
        self.lifetimes = snap.lifetimes;
        self.cursor = snap.cursor;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgeslice_netsim::AppProfile;

    fn req(rate: f64) -> SliceRequest {
        SliceRequest {
            app: AppProfile::traffic_heavy(),
            expected_rate: rate,
            sla: Sla::paper(),
        }
    }

    fn compute_req(rate: f64) -> SliceRequest {
        SliceRequest {
            app: AppProfile::compute_heavy(),
            expected_rate: rate,
            sla: Sla::paper(),
        }
    }

    #[test]
    fn same_seed_same_plan() {
        let cfg = WorkloadConfig::prototype(42, 12);
        let a = WorkloadPlan::generate(vec![req(10.0), compute_req(10.0)], &cfg).unwrap();
        let b = WorkloadPlan::generate(vec![req(10.0), compute_req(10.0)], &cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let base = WorkloadConfig::prototype(1, 32);
        let other = WorkloadConfig {
            seed: 2,
            ..base.clone()
        };
        let a = WorkloadPlan::generate(vec![req(10.0)], &base).unwrap();
        let b = WorkloadPlan::generate(vec![req(10.0)], &other).unwrap();
        assert_ne!(a, b, "32 rounds of Poisson churn should not collide");
    }

    #[test]
    fn disabling_resizes_does_not_shift_arrival_stream() {
        let with = WorkloadConfig::prototype(7, 16);
        let without = WorkloadConfig {
            resize_rate: 0.0,
            ..with.clone()
        };
        let a = WorkloadPlan::generate(vec![req(10.0)], &with).unwrap();
        let b = WorkloadPlan::generate(vec![req(10.0)], &without).unwrap();
        let arrivals = |p: &WorkloadPlan| -> Vec<(usize, SliceId)> {
            p.events()
                .iter()
                .filter(|e| matches!(e.event, SliceEvent::Arrive { .. }))
                .map(|e| (e.round, e.event.slice()))
                .collect()
        };
        assert_eq!(
            arrivals(&a),
            arrivals(&b),
            "guarded draws: the resize gate must not consume arrival randomness"
        );
    }

    #[test]
    fn incremental_holds_then_departs() {
        let cfg = WorkloadConfig {
            model: ArrivalModel::Incremental {
                every_rounds: 2,
                hold_rounds: 3,
            },
            resize_rate: 0.0,
            ..WorkloadConfig::prototype(3, 10)
        };
        let plan = WorkloadPlan::generate(vec![req(10.0)], &cfg).unwrap();
        let arrives: Vec<usize> = plan
            .events()
            .iter()
            .filter(|e| matches!(e.event, SliceEvent::Arrive { .. }))
            .map(|e| e.round)
            .collect();
        assert_eq!(arrives, vec![2, 4, 6, 8]);
        let departs: Vec<usize> = plan
            .events()
            .iter()
            .filter(|e| matches!(e.event, SliceEvent::Depart { .. }))
            .map(|e| e.round)
            .collect();
        assert_eq!(departs, vec![5, 7, 9], "round-8 arrival outlives the run");
        assert_eq!(plan.capacity(), 5);
    }

    #[test]
    fn incr_and_keep_never_departs() {
        let cfg = WorkloadConfig {
            model: ArrivalModel::IncrAndKeep { every_rounds: 3 },
            resize_rate: 0.0,
            ..WorkloadConfig::prototype(3, 10)
        };
        let plan = WorkloadPlan::generate(vec![req(10.0)], &cfg).unwrap();
        assert!(plan
            .events()
            .iter()
            .all(|e| !matches!(e.event, SliceEvent::Depart { .. })));
        assert_eq!(plan.capacity(), 4);
    }

    #[test]
    fn trace_curve_tracks_target_counts() {
        let plan = WorkloadPlan::from_trace_json(
            vec![req(10.0), compute_req(10.0)],
            "[2, 4, 4, 1, 3]",
            &req(8.0),
        )
        .unwrap();
        // Round 1: +2 arrivals; round 3: -3 departures (LIFO: slots 3, 2,
        // then initial slot 1); round 4: +2 arrivals into fresh slots.
        assert_eq!(plan.capacity(), 6);
        let by_round: Vec<(usize, bool)> = plan
            .events()
            .iter()
            .map(|e| (e.round, matches!(e.event, SliceEvent::Arrive { .. })))
            .collect();
        assert_eq!(
            by_round,
            vec![
                (1, true),
                (1, true),
                (3, false),
                (3, false),
                (3, false),
                (4, true),
                (4, true)
            ]
        );
        assert_eq!(plan.events()[2].event.slice(), SliceId(3));
        assert_eq!(plan.events()[4].event.slice(), SliceId(1));
    }

    #[test]
    fn csv_trace_parses_like_json() {
        let initial = vec![req(10.0)];
        let csv = WorkloadPlan::from_trace_csv(
            initial.clone(),
            "# round,target\n0,1\n1,2\n2,1\n",
            &req(8.0),
        )
        .unwrap();
        let json = WorkloadPlan::from_trace_json(initial, "[1, 2, 1]", &req(8.0)).unwrap();
        assert_eq!(csv, json);
    }

    #[test]
    fn scripted_rejects_out_of_sequence_slots() {
        let err = WorkloadPlan::scripted(
            vec![req(10.0)],
            4,
            vec![ScheduledEvent {
                round: 1,
                event: SliceEvent::Arrive {
                    slice: SliceId(5),
                    request: req(8.0),
                },
            }],
        )
        .unwrap_err();
        assert!(
            matches!(err, EdgeSliceError::InvalidWorkloadPlan(_)),
            "{err}"
        );
    }

    #[test]
    fn scripted_rejects_resize_before_arrival_and_past_horizon() {
        let err = WorkloadPlan::scripted(
            vec![req(10.0)],
            4,
            vec![ScheduledEvent {
                round: 0,
                event: SliceEvent::Resize {
                    slice: SliceId(1),
                    new_rate: 5.0,
                    new_sla: Sla::paper(),
                },
            }],
        )
        .unwrap_err();
        assert!(err.to_string().contains("before it arrives"));

        let err = WorkloadPlan::scripted(
            vec![req(10.0)],
            4,
            vec![ScheduledEvent {
                round: 9,
                event: SliceEvent::Depart { slice: SliceId(0) },
            }],
        )
        .unwrap_err();
        assert!(err.to_string().contains("past the horizon"));
    }

    #[test]
    fn scripted_rejects_double_departure() {
        let depart = |round| ScheduledEvent {
            round,
            event: SliceEvent::Depart { slice: SliceId(0) },
        };
        let err =
            WorkloadPlan::scripted(vec![req(10.0)], 4, vec![depart(1), depart(2)]).unwrap_err();
        assert!(err.to_string().contains("twice"));
    }

    #[test]
    fn lifecycle_admits_initial_slices_at_round_zero() {
        let plan = WorkloadPlan::static_only(vec![req(10.0), compute_req(10.0)], 4).unwrap();
        let lc = SliceLifecycle::new(plan, AdmissionController::prototype());
        assert_eq!(lc.admitted_count(), 2);
        assert_eq!(lc.active_count(), 2);
        let state = lc.state();
        assert_eq!(state.active, vec![true, true]);
        // Initial slices keep their configured traffic source: no
        // override, so a static plan stays byte-identical to a static run.
        assert_eq!(state.rates, vec![None, None]);
    }

    #[test]
    fn lifecycle_walks_admit_resize_depart() {
        let plan = WorkloadPlan::scripted(
            vec![req(10.0)],
            6,
            vec![
                ScheduledEvent {
                    round: 1,
                    event: SliceEvent::Arrive {
                        slice: SliceId(1),
                        request: compute_req(10.0),
                    },
                },
                ScheduledEvent {
                    round: 2,
                    event: SliceEvent::Resize {
                        slice: SliceId(1),
                        new_rate: 12.0,
                        new_sla: Sla::new(-40.0),
                    },
                },
                ScheduledEvent {
                    round: 4,
                    event: SliceEvent::Depart { slice: SliceId(1) },
                },
            ],
        )
        .unwrap();
        let mut lc = SliceLifecycle::new(plan, AdmissionController::prototype());
        assert!(lc.apply_round(0).is_empty());
        let acts = lc.apply_round(1);
        assert!(matches!(
            acts.as_slice(),
            [LifecycleAction::Admitted {
                slice: SliceId(1),
                ..
            }]
        ));
        let acts = lc.apply_round(2);
        assert!(
            matches!(&acts[..], [LifecycleAction::Resized { slice: SliceId(1), sla }] if sla.umin == -40.0)
        );
        assert_eq!(lc.state().rates[1], Some(12.0));
        assert!(lc.apply_round(3).is_empty());
        let acts = lc.apply_round(4);
        assert!(matches!(
            acts.as_slice(),
            [LifecycleAction::Departed { slice: SliceId(1) }]
        ));
        assert_eq!(lc.state().active, vec![true, false]);
        // Rates survive departure so worker RNG streams stay aligned.
        assert_eq!(lc.state().rates[1], Some(12.0));
        let row = lc.lifetimes()[1];
        assert_eq!(row.admit_round, Some(1));
        assert_eq!(row.depart_round, Some(4));
        assert_eq!(row.resizes, 1);
    }

    #[test]
    fn rejected_arrival_retires_the_slot_and_orphans_later_events() {
        // Fill the radio domain, then try one more traffic-heavy slice.
        let initial: Vec<SliceRequest> = (0..8).map(|_| req(10.0)).collect();
        let n = initial.len();
        let plan = WorkloadPlan::scripted(
            initial,
            6,
            vec![
                ScheduledEvent {
                    round: 1,
                    event: SliceEvent::Arrive {
                        slice: SliceId(n),
                        request: req(10.0),
                    },
                },
                ScheduledEvent {
                    round: 3,
                    event: SliceEvent::Depart { slice: SliceId(n) },
                },
            ],
        )
        .unwrap();
        let mut lc = SliceLifecycle::new(plan, AdmissionController::prototype());
        assert!(
            lc.rejected_count() + lc.admitted_count() == n,
            "every initial slot decided"
        );
        let rejected_before = lc.rejected_count();
        let acts = lc.apply_round(1);
        assert!(matches!(
            acts.as_slice(),
            [LifecycleAction::Rejected {
                reason: RejectReason::RadioExhausted { .. },
                ..
            }]
        ));
        assert_eq!(lc.rejected_count(), rejected_before + 1);
        // The departure now targets a retired slot: a no-op.
        assert!(lc.apply_round(3).is_empty());
    }

    #[test]
    fn lifecycle_state_round_trips_the_wire() {
        let state = LifecycleState {
            active: vec![true, false, true],
            rates: vec![Some(10.0), None, Some(7.5)],
        };
        let bytes = state.encode();
        assert_eq!(LifecycleState::decode(&bytes).unwrap(), state);
        assert!(LifecycleState::decode(b"not json").is_err());
    }

    #[test]
    fn snapshot_restores_mid_plan_state() {
        let cfg = WorkloadConfig::prototype(11, 10);
        let plan = WorkloadPlan::generate(vec![req(10.0), compute_req(10.0)], &cfg).unwrap();
        let mut a = SliceLifecycle::new(plan.clone(), AdmissionController::prototype());
        for round in 0..5 {
            a.apply_round(round);
        }
        let snap = a.snapshot();
        let mut b = SliceLifecycle::new(plan, AdmissionController::prototype());
        b.restore(snap).unwrap();
        for round in 5..10 {
            assert_eq!(a.apply_round(round), b.apply_round(round));
        }
        assert_eq!(a.state(), b.state());
        assert_eq!(a.lifetimes(), b.lifetimes());
    }

    #[test]
    fn restore_rejects_mismatched_shapes() {
        let plan = WorkloadPlan::static_only(vec![req(10.0)], 4).unwrap();
        let mut lc = SliceLifecycle::new(plan.clone(), AdmissionController::prototype());
        let mut snap = lc.snapshot();
        snap.status.push(SlotStatus::Pending);
        assert!(matches!(
            lc.restore(snap),
            Err(EdgeSliceError::SnapshotMismatch { .. })
        ));
        let mut snap = SliceLifecycle::new(plan, AdmissionController::prototype()).snapshot();
        snap.cursor = 99;
        assert!(lc.restore(snap).is_err());
    }

    #[test]
    fn slot_specs_cover_initial_plus_arrivals_in_order() {
        let cfg = WorkloadConfig::prototype(5, 12);
        let plan = WorkloadPlan::generate(vec![req(10.0), compute_req(10.0)], &cfg).unwrap();
        let specs = plan.slot_specs();
        assert_eq!(specs.len(), plan.capacity());
        for (i, spec) in specs.iter().enumerate() {
            assert_eq!(spec.id, SliceId(i));
        }
    }
}
