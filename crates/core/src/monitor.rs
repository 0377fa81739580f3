//! The system monitor (paper Sec. V-D): collects network state and slice
//! performance across the system, keeps the user↔slice association
//! database, and serves aggregates to the performance coordinator over the
//! RC-M interface.

use std::collections::{BTreeMap, BTreeSet};

use edgeslice_netsim::radio::Imsi;
use edgeslice_netsim::transport::IpAddr;
use serde::{Deserialize, Serialize};

use crate::{RaId, SliceId};

/// Whether a monitored (RA, interval) actually served traffic.
///
/// Outages are recorded as explicit rows rather than absent ones so that
/// downstream accounting can distinguish "the RA was dark" from "the RA
/// served and achieved zero" — absent rows silently bias SLA statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum IntervalStatus {
    /// The RA served traffic and reported over the VR interface.
    Served,
    /// The RA was dark: no traffic served, nothing reported. The row's
    /// `performance`/`queue`/`shares` are zero placeholders and are
    /// excluded from performance and SLA aggregation.
    Outage,
}

/// One monitored interval for one (slice, RA).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MonitorRecord {
    /// Coordination round.
    pub round: usize,
    /// Interval index within the round (`t ∈ T`).
    pub interval: usize,
    /// The RA.
    pub ra: RaId,
    /// The slice.
    pub slice: SliceId,
    /// Queue length at interval end.
    pub queue: f64,
    /// Reported performance `U`.
    pub performance: f64,
    /// Applied shares `[radio, transport, compute]`.
    pub shares: [f64; 3],
    /// Whether the interval was served or lost to an outage.
    pub status: IntervalStatus,
}

impl MonitorRecord {
    /// An explicit outage placeholder for one (slice, RA, interval).
    pub fn outage(round: usize, interval: usize, ra: RaId, slice: SliceId) -> Self {
        Self {
            round,
            interval,
            ra,
            slice,
            queue: 0.0,
            performance: 0.0,
            shares: [0.0; 3],
            status: IntervalStatus::Outage,
        }
    }
}

/// What happened to a slice at a lifecycle transition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LifecycleChange {
    /// The slice was admitted and its ADMM row activated.
    Admitted,
    /// Admission control rejected the arrival; the slot is retired.
    Rejected {
        /// The binding resource domain.
        reason: crate::RejectReason,
    },
    /// A make-before-break resize committed a new SLA.
    Resized,
    /// A resize was rejected; the slice keeps its previous contract.
    ResizeRejected {
        /// The binding resource domain.
        reason: crate::RejectReason,
    },
    /// The slice departed and its resources were released.
    Departed,
}

/// One slice lifecycle transition, recorded by the monitor when the
/// coordinator applies a workload event (admit / resize / teardown).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LifecycleRecord {
    /// Global coordination round the transition took effect in.
    pub round: usize,
    /// The slice (slot id — stable across the whole run).
    pub slice: SliceId,
    /// The transition.
    pub change: LifecycleChange,
}

/// One round's RC-M aggregates, folded by [`SystemMonitor::record`] in
/// arrival order so every sum sees the addends a scan of the history
/// would, in the same order (duplicated rows included). Tables are
/// indexed by slice / RA id and grown on demand.
#[derive(Debug, Clone)]
struct RoundAggregate {
    /// `Σ_t U` over served rows, `[slice][ra]`.
    performance: Vec<Vec<f64>>,
    /// `Σ U` over every served row of the round.
    system_performance: f64,
    /// Per slice: served `shares` sums and the served row count.
    usage: Vec<([f64; 3], usize)>,
    /// `(ra, interval)` pairs lost to outages (one entry however many
    /// slices reported the pair, however often), ordered by RA.
    outages: BTreeSet<(RaId, usize)>,
}

impl Default for RoundAggregate {
    fn default() -> Self {
        Self {
            performance: Vec::new(),
            system_performance: empty_sum(),
            usage: Vec::new(),
            outages: BTreeSet::new(),
        }
    }
}

impl RoundAggregate {
    fn fold(&mut self, r: &MonitorRecord) {
        match r.status {
            IntervalStatus::Served => {
                *cell(cell(&mut self.performance, r.slice.0), r.ra.0) += r.performance;
                self.system_performance += r.performance;
                let (sums, n) = cell(&mut self.usage, r.slice.0);
                for (s, v) in sums.iter_mut().zip(r.shares) {
                    *s += v;
                }
                *n += 1;
            }
            IntervalStatus::Outage => {
                self.outages.insert((r.ra, r.interval));
            }
        }
    }
}

/// `table[i]`, growing the table with defaults (zeros, empty rounds) to
/// reach it.
fn cell<T: Clone + Default>(table: &mut Vec<T>, i: usize) -> &mut T {
    if table.len() <= i {
        table.resize(i + 1, T::default());
    }
    &mut table[i]
}

/// What `Iterator::sum` yields for no `f64` at all (`-0.0` on current
/// toolchains): the seed of a folded sum that must stay bit-identical to
/// `.sum()` over the same rows, down to an empty or all-`-0.0` round.
fn empty_sum() -> f64 {
    std::iter::empty::<f64>().sum()
}

/// The monitor database: the row history plus one [`RoundAggregate`] per
/// round, which is what every per-round query reads. Not serialisable —
/// the aggregates are derived state that only `record` keeps in step.
#[derive(Debug, Clone, Default)]
pub struct SystemMonitor {
    records: Vec<MonitorRecord>,
    /// Indexed by round; its length is "max recorded round + 1". Rounds
    /// arrive in any order (a same-process resume re-appends replayed
    /// rounds), so rows fold into their round's slot wherever they arrive.
    aggregates: Vec<RoundAggregate>,
    /// Slice lifecycle transitions, in application order.
    lifecycle: Vec<LifecycleRecord>,
    /// IMSI → slice (learned from S1AP via the radio manager).
    imsi_assoc: BTreeMap<Imsi, SliceId>,
    /// IP → slice (used by transport and computing managers).
    ip_assoc: BTreeMap<IpAddr, SliceId>,
}

impl SystemMonitor {
    /// Creates an empty monitor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a user↔slice association by IMSI.
    pub fn associate_imsi(&mut self, imsi: Imsi, slice: SliceId) {
        self.imsi_assoc.insert(imsi, slice);
    }

    /// Registers a user↔slice association by IP.
    pub fn associate_ip(&mut self, ip: IpAddr, slice: SliceId) {
        self.ip_assoc.insert(ip, slice);
    }

    /// Looks up a slice by IMSI.
    pub fn slice_by_imsi(&self, imsi: Imsi) -> Option<SliceId> {
        self.imsi_assoc.get(&imsi).copied()
    }

    /// Looks up a slice by IP.
    pub fn slice_by_ip(&self, ip: IpAddr) -> Option<SliceId> {
        self.ip_assoc.get(&ip).copied()
    }

    /// Appends an interval record (the VR-interface report) and folds it
    /// into its round's aggregate.
    pub fn record(&mut self, record: MonitorRecord) {
        cell(&mut self.aggregates, record.round).fold(&record);
        self.records.push(record);
    }

    /// All records, in arrival order.
    pub fn records(&self) -> &[MonitorRecord] {
        &self.records
    }

    /// Appends a slice lifecycle transition.
    pub fn record_lifecycle(&mut self, record: LifecycleRecord) {
        self.lifecycle.push(record);
    }

    /// All lifecycle transitions, in application order.
    pub fn lifecycle(&self) -> &[LifecycleRecord] {
        &self.lifecycle
    }

    /// RC-M query: `Σ_t U_{i,j}` for one round, indexed `[slice][ra]` —
    /// exactly what the coordinator's update consumes.
    pub fn round_performance(&self, round: usize, n_slices: usize, n_ras: usize) -> Vec<Vec<f64>> {
        let mut out = vec![vec![0.0; n_ras]; n_slices];
        if let Some(agg) = self.aggregates.get(round) {
            for (row, sums) in out.iter_mut().zip(&agg.performance) {
                for (o, &sum) in row.iter_mut().zip(sums) {
                    *o = sum;
                }
            }
        }
        out
    }

    /// Total system performance of a round: `Σ_{i,j,t} U` over served
    /// intervals (outage placeholders are excluded).
    pub fn round_system_performance(&self, round: usize) -> f64 {
        self.aggregates
            .get(round)
            .map_or_else(empty_sum, |agg| agg.system_performance)
    }

    /// Intervals RA `ra` lost to outages in `round` (counted once per
    /// interval, not per slice).
    pub fn round_outage_intervals(&self, round: usize, ra: RaId) -> usize {
        self.aggregates.get(round).map_or(0, |agg| {
            agg.outages.range((ra, 0)..=(ra, usize::MAX)).count()
        })
    }

    /// Fraction of this round's (RA, interval) pairs that actually served
    /// traffic — the factor SLA targets are prorated by under outages.
    pub fn round_served_fraction(&self, round: usize, n_ras: usize, period: usize) -> f64 {
        if n_ras * period == 0 {
            return 1.0;
        }
        let total = (n_ras * period) as f64;
        // The set is ordered by RA: everything below `(n_ras, 0)` is a
        // lost interval of one of the first `n_ras` RAs.
        let lost = self
            .aggregates
            .get(round)
            .map_or(0, |agg| agg.outages.range(..(RaId(n_ras), 0)).count());
        ((total - lost as f64) / total).clamp(0.0, 1.0)
    }

    /// Mean per-resource usage of a slice in a round, `[radio, transport,
    /// compute]`, averaged over served intervals and RAs.
    pub fn round_usage(&self, round: usize, slice: SliceId) -> [f64; 3] {
        let Some(&(mut sums, n)) = self
            .aggregates
            .get(round)
            .and_then(|agg| agg.usage.get(slice.0))
        else {
            return [0.0; 3];
        };
        if n > 0 {
            for s in &mut sums {
                *s /= n as f64;
            }
        }
        sums
    }

    /// System-wide performance per global time interval (`Σ_{i,j} U` at
    /// `round·T + t`), the series Fig. 6a plots.
    pub fn interval_system_series(&self, period: usize) -> Vec<f64> {
        let n = self.rounds() * period;
        let mut out = vec![0.0; n];
        for r in &self.records {
            let idx = r.round * period + r.interval;
            if idx < n {
                out[idx] += r.performance;
            }
        }
        out
    }

    /// One slice's network-wide performance per global interval (`Σ_j U`),
    /// the series Fig. 6b plots.
    pub fn slice_interval_series(&self, slice: SliceId, period: usize) -> Vec<f64> {
        let n = self.rounds() * period;
        let mut out = vec![0.0; n];
        for r in self.records.iter().filter(|r| r.slice == slice) {
            let idx = r.round * period + r.interval;
            if idx < n {
                out[idx] += r.performance;
            }
        }
        out
    }

    /// One slice's mean usage of one resource per global interval (averaged
    /// over RAs), the series Fig. 7 plots.
    pub fn usage_interval_series(
        &self,
        slice: SliceId,
        resource: crate::ResourceKind,
        period: usize,
        n_ras: usize,
    ) -> Vec<f64> {
        let n = self.rounds() * period;
        let mut out = vec![0.0; n];
        for r in self.records.iter().filter(|r| r.slice == slice) {
            let idx = r.round * period + r.interval;
            if idx < n {
                out[idx] += r.shares[resource.index()] / n_ras.max(1) as f64;
            }
        }
        out
    }

    /// Number of completed rounds present in the database (the highest
    /// recorded round + 1; 0 when empty).
    pub fn rounds(&self) -> usize {
        self.aggregates.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(round: usize, ra: usize, slice: usize, perf: f64) -> MonitorRecord {
        MonitorRecord {
            round,
            interval: 0,
            ra: RaId(ra),
            slice: SliceId(slice),
            queue: 1.0,
            performance: perf,
            shares: [0.5, 0.3, 0.2],
            status: IntervalStatus::Served,
        }
    }

    #[test]
    fn associations_by_imsi_and_ip() {
        let mut m = SystemMonitor::new();
        m.associate_imsi(Imsi(7), SliceId(1));
        m.associate_ip(IpAddr([10, 0, 0, 1]), SliceId(0));
        assert_eq!(m.slice_by_imsi(Imsi(7)), Some(SliceId(1)));
        assert_eq!(m.slice_by_ip(IpAddr([10, 0, 0, 1])), Some(SliceId(0)));
        assert_eq!(m.slice_by_imsi(Imsi(8)), None);
    }

    #[test]
    fn round_performance_aggregates_per_slice_ra() {
        let mut m = SystemMonitor::new();
        m.record(rec(0, 0, 0, -2.0));
        m.record(rec(0, 0, 0, -3.0));
        m.record(rec(0, 1, 0, -1.0));
        m.record(rec(0, 0, 1, -4.0));
        m.record(rec(1, 0, 0, -99.0)); // other round
        let agg = m.round_performance(0, 2, 2);
        assert_eq!(agg[0][0], -5.0);
        assert_eq!(agg[0][1], -1.0);
        assert_eq!(agg[1][0], -4.0);
        assert_eq!(m.round_system_performance(0), -10.0);
    }

    #[test]
    fn usage_is_averaged() {
        let mut m = SystemMonitor::new();
        m.record(rec(0, 0, 0, 0.0));
        let mut r2 = rec(0, 1, 0, 0.0);
        r2.shares = [0.1, 0.1, 0.4];
        m.record(r2);
        let u = m.round_usage(0, SliceId(0));
        assert!((u[0] - 0.3).abs() < 1e-12);
        assert!((u[2] - 0.3).abs() < 1e-12);
    }

    #[test]
    fn interval_series_flatten_rounds() {
        let mut m = SystemMonitor::new();
        let mut r1 = rec(0, 0, 0, -1.0);
        r1.interval = 0;
        m.record(r1);
        let mut r2 = rec(0, 0, 0, -2.0);
        r2.interval = 1;
        m.record(r2);
        let mut r3 = rec(1, 0, 0, -3.0);
        r3.interval = 0;
        m.record(r3);
        let series = m.interval_system_series(2);
        assert_eq!(series, vec![-1.0, -2.0, -3.0, 0.0]);
        let s0 = m.slice_interval_series(SliceId(0), 2);
        assert_eq!(s0, series);
        let usage = m.usage_interval_series(SliceId(0), crate::ResourceKind::Radio, 2, 1);
        assert_eq!(usage[0], 0.5);
    }

    #[test]
    fn rounds_counts_max() {
        let mut m = SystemMonitor::new();
        assert_eq!(m.rounds(), 0);
        m.record(rec(2, 0, 0, 0.0));
        assert_eq!(m.rounds(), 3);
    }

    #[test]
    fn outage_rows_are_explicit_but_excluded_from_aggregates() {
        let mut m = SystemMonitor::new();
        m.record(rec(0, 0, 0, -2.0));
        m.record(MonitorRecord::outage(0, 0, RaId(1), SliceId(0)));
        m.record(MonitorRecord::outage(0, 1, RaId(1), SliceId(0)));
        // The rows exist...
        assert_eq!(m.records().len(), 3);
        // ...but carry no performance weight and don't dilute usage.
        assert_eq!(m.round_system_performance(0), -2.0);
        assert_eq!(m.round_performance(0, 1, 2)[0][1], 0.0);
        let u = m.round_usage(0, SliceId(0));
        assert!(
            (u[0] - 0.5).abs() < 1e-12,
            "outage rows must not dilute usage means"
        );
        assert_eq!(m.round_outage_intervals(0, RaId(1)), 2);
        assert_eq!(m.round_outage_intervals(0, RaId(0)), 0);
        // 2 RAs × 2 intervals, 2 lost ⇒ half served.
        assert!((m.round_served_fraction(0, 2, 2) - 0.5).abs() < 1e-12);
    }

    /// The full-history scans the folded aggregates replaced, verbatim:
    /// the oracle of the differential property below.
    mod scan {
        use super::*;

        fn served_in_round(
            records: &[MonitorRecord],
            round: usize,
        ) -> impl Iterator<Item = &MonitorRecord> {
            records
                .iter()
                .filter(move |r| r.round == round && r.status == IntervalStatus::Served)
        }

        pub fn round_performance(
            records: &[MonitorRecord],
            round: usize,
            n_slices: usize,
            n_ras: usize,
        ) -> Vec<Vec<f64>> {
            let mut out = vec![vec![0.0; n_ras]; n_slices];
            for r in served_in_round(records, round) {
                if r.slice.0 < n_slices && r.ra.0 < n_ras {
                    out[r.slice.0][r.ra.0] += r.performance;
                }
            }
            out
        }

        pub fn round_system_performance(records: &[MonitorRecord], round: usize) -> f64 {
            served_in_round(records, round).map(|r| r.performance).sum()
        }

        pub fn round_outage_intervals(records: &[MonitorRecord], round: usize, ra: RaId) -> usize {
            let mut intervals: Vec<usize> = records
                .iter()
                .filter(|r| r.round == round && r.ra == ra && r.status == IntervalStatus::Outage)
                .map(|r| r.interval)
                .collect();
            intervals.sort_unstable();
            intervals.dedup();
            intervals.len()
        }

        pub fn round_served_fraction(
            records: &[MonitorRecord],
            round: usize,
            n_ras: usize,
            period: usize,
        ) -> f64 {
            if n_ras * period == 0 {
                return 1.0;
            }
            let total = (n_ras * period) as f64;
            let lost: usize = (0..n_ras)
                .map(|j| round_outage_intervals(records, round, RaId(j)))
                .sum();
            ((total - lost as f64) / total).clamp(0.0, 1.0)
        }

        pub fn round_usage(records: &[MonitorRecord], round: usize, slice: SliceId) -> [f64; 3] {
            let mut sums = [0.0; 3];
            let mut n = 0usize;
            for r in served_in_round(records, round).filter(|r| r.slice == slice) {
                for (s, v) in sums.iter_mut().zip(r.shares) {
                    *s += v;
                }
                n += 1;
            }
            if n > 0 {
                for s in &mut sums {
                    *s /= n as f64;
                }
            }
            sums
        }

        pub fn rounds(records: &[MonitorRecord]) -> usize {
            records.iter().map(|r| r.round + 1).max().unwrap_or(0)
        }
    }

    /// Ids run past the queried `n_slices` / `n_ras` (≤ 4 below).
    const MAX_ID: usize = 6;
    const MAX_ROUND: usize = 5;
    const MAX_INTERVAL: usize = 4;

    /// Magnitudes that make a sum depend on the order of its addends,
    /// plus both zeros (an all-`-0.0` round sums to `-0.0`).
    const VALUES: [f64; 8] = [0.0, -0.0, 0.1, -0.3, 1e16, -1e16, 1.0, -7.25];

    /// One generated event: a served row, or an outage of one
    /// (RA, interval) reported once per slice like `collect` does.
    fn rows(
        ((round, interval), (ra, slice), (value, kind)): (
            (usize, usize),
            (usize, usize),
            (usize, usize),
        ),
    ) -> Vec<MonitorRecord> {
        if kind == 0 {
            return (0..=slice)
                .map(|i| MonitorRecord::outage(round, interval, RaId(ra), SliceId(i)))
                .collect();
        }
        let v = VALUES[value];
        vec![MonitorRecord {
            round,
            interval,
            ra: RaId(ra),
            slice: SliceId(slice),
            queue: 0.0,
            performance: v,
            shares: [v, VALUES[(value + kind) % VALUES.len()], 0.5],
            status: IntervalStatus::Served,
        }]
    }

    fn bits(table: &[Vec<f64>]) -> Vec<Vec<u64>> {
        table
            .iter()
            .map(|row| row.iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    proptest::proptest! {
        /// Differential: on any row stream — rounds out of order, a round
        /// re-appended whole (the same-process resume case), outage rows
        /// repeated across slices, ids past the queried shape — every
        /// folded query equals the full-history scan it replaced, floats
        /// compared bit for bit.
        #[test]
        fn folded_queries_equal_full_history_scans(
            events in proptest::collection::vec(
                (
                    (0..MAX_ROUND, 0..MAX_INTERVAL),
                    (0..MAX_ID, 0..MAX_ID),
                    (0..VALUES.len(), 0usize..4),
                ),
                0..60,
            ),
            replayed in 0..MAX_ROUND,
            n_slices in 0usize..5,
            n_ras in 0usize..5,
            period in 0usize..6,
        ) {
            let mut stream: Vec<MonitorRecord> = events.into_iter().flat_map(rows).collect();
            let replay: Vec<MonitorRecord> =
                stream.iter().filter(|r| r.round == replayed).copied().collect();
            stream.extend(replay);
            let mut m = SystemMonitor::new();
            for r in &stream {
                m.record(*r);
            }
            proptest::prop_assert_eq!(m.records(), &stream[..]);
            proptest::prop_assert_eq!(m.rounds(), scan::rounds(&stream));
            // One round past the last recorded one: the empty aggregate.
            for round in 0..=MAX_ROUND {
                proptest::prop_assert_eq!(
                    bits(&m.round_performance(round, n_slices, n_ras)),
                    bits(&scan::round_performance(&stream, round, n_slices, n_ras))
                );
                proptest::prop_assert_eq!(
                    m.round_system_performance(round).to_bits(),
                    scan::round_system_performance(&stream, round).to_bits()
                );
                // The drawn shape, then the two `n_ras * period == 0` edges.
                for (n, t) in [(n_ras, period), (0, period), (n_ras, 0)] {
                    proptest::prop_assert_eq!(
                        m.round_served_fraction(round, n, t).to_bits(),
                        scan::round_served_fraction(&stream, round, n, t).to_bits()
                    );
                }
                for id in 0..=MAX_ID {
                    proptest::prop_assert_eq!(
                        m.round_outage_intervals(round, RaId(id)),
                        scan::round_outage_intervals(&stream, round, RaId(id))
                    );
                    proptest::prop_assert_eq!(
                        m.round_usage(round, SliceId(id)).map(f64::to_bits),
                        scan::round_usage(&stream, round, SliceId(id)).map(f64::to_bits)
                    );
                }
            }
        }
    }
}
