//! The system monitor (paper Sec. V-D): collects network state and slice
//! performance across the system and serves aggregates — to the
//! performance coordinator over the RC-M interface, and as the
//! per-interval series Figs. 6–7 plot. Each row is folded into its
//! round's sums as it arrives; no row is kept.

use std::collections::BTreeSet;

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
    /// `performance`/`queue`/`shares` are zero placeholders: they add
    /// nothing to the interval sums and stay out of the usage means.
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

/// One round's aggregates, folded by [`SystemMonitor::record`] in arrival
/// order so every sum sees the addends a scan of the round's rows would,
/// in the same order (duplicated rows included). The tables are indexed by
/// slice id and interval and grown on demand.
#[derive(Debug, Clone, Default)]
struct RoundAggregate {
    /// Per interval: `Σ performance` over every row (Fig. 6a).
    system: Vec<f64>,
    /// Indexed by slice id.
    slices: Vec<SliceAggregate>,
    /// `(ra, interval)` pairs lost to outages (one entry however many
    /// slices reported the pair, however often), ordered by RA.
    outages: BTreeSet<(RaId, usize)>,
}

/// One slice's share of a [`RoundAggregate`].
#[derive(Debug, Clone, Default)]
struct SliceAggregate {
    /// Served `shares` sums and the served row count (RC-M usage).
    usage: ([f64; 3], usize),
    /// Per interval: `Σ performance` and `Σ shares` over every row
    /// (Figs. 6b and 7).
    intervals: Vec<(f64, [f64; 3])>,
}

impl RoundAggregate {
    fn fold(&mut self, r: &MonitorRecord) {
        *cell(&mut self.system, r.interval) += r.performance;
        let slice = cell(&mut self.slices, r.slice.0);
        let (performance, shares) = cell(&mut slice.intervals, r.interval);
        *performance += r.performance;
        add(shares, r.shares);
        match r.status {
            IntervalStatus::Served => {
                let (sums, n) = &mut slice.usage;
                add(sums, r.shares);
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

/// `sums += shares`, element by element.
fn add(sums: &mut [f64; 3], shares: [f64; 3]) {
    for (s, v) in sums.iter_mut().zip(shares) {
        *s += v;
    }
}

/// How many rows the monitor has recorded.
#[derive(Debug, Clone, Copy)]
pub struct Records(usize);

impl Records {
    /// Number of rows recorded.
    pub fn len(&self) -> usize {
        self.0
    }

    /// Whether no row was recorded.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }
}

/// The monitor database: one aggregate per round, which is what every
/// query reads — the RC-M per-round usage and lost intervals, and the
/// per-interval sums Figs. 6–7 plot. Rows are folded in as they arrive
/// and not kept. Not serialisable — the aggregates are derived state that
/// only `record` keeps in step.
#[derive(Debug, Clone, Default)]
pub struct SystemMonitor {
    /// Indexed by round; its length is "max recorded round + 1". Rounds
    /// arrive in any order (a same-process resume re-appends replayed
    /// rounds), so rows fold into their round's slot wherever they arrive.
    aggregates: Vec<RoundAggregate>,
    /// Rows recorded.
    rows: usize,
}

impl SystemMonitor {
    /// Creates an empty monitor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds an interval record (the VR-interface report) into its
    /// round's aggregate.
    pub fn record(&mut self, record: MonitorRecord) {
        cell(&mut self.aggregates, record.round).fold(&record);
        self.rows += 1;
    }

    /// How many rows were recorded (replayed rows count again).
    pub fn records(&self) -> Records {
        Records(self.rows)
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
            .and_then(|agg| agg.slices.get(slice.0))
            .map(|s| &s.usage)
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

    /// `interval(round, t)` at `round·period + t` for every recorded round
    /// and `t < period`, `0.0` where it has nothing. Rows are stamped with
    /// an interval below their round's `period`, so every row lands.
    fn interval_series(
        &self,
        period: usize,
        interval: impl Fn(&RoundAggregate, usize) -> Option<f64>,
    ) -> Vec<f64> {
        let interval = &interval;
        self.aggregates
            .iter()
            .flat_map(|agg| (0..period).map(move |t| interval(agg, t).unwrap_or(0.0)))
            .collect()
    }

    /// System-wide performance per global time interval (`Σ_{i,j} U` at
    /// `round·T + t`), the series Fig. 6a plots.
    pub fn interval_system_series(&self, period: usize) -> Vec<f64> {
        self.interval_series(period, |agg, t| agg.system.get(t).copied())
    }

    /// One slice's network-wide performance per global interval (`Σ_j U`),
    /// the series Fig. 6b plots.
    pub fn slice_interval_series(&self, slice: SliceId, period: usize) -> Vec<f64> {
        self.interval_series(period, |agg, t| {
            Some(agg.slices.get(slice.0)?.intervals.get(t)?.0)
        })
    }

    /// One slice's mean usage of one resource per global interval (averaged
    /// over RAs), the series Fig. 7 plots. The folded sum is divided by
    /// `n_ras` here, which equals summing each row's `share / n_ras` bit
    /// for bit when `n_ras` is a power of two.
    pub fn usage_interval_series(
        &self,
        slice: SliceId,
        resource: crate::ResourceKind,
        period: usize,
        n_ras: usize,
    ) -> Vec<f64> {
        let n = n_ras.max(1) as f64;
        self.interval_series(period, |agg, t| {
            Some(agg.slices.get(slice.0)?.intervals.get(t)?.1[resource.index()] / n)
        })
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
    use crate::ResourceKind;

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
        let usage = m.usage_interval_series(SliceId(0), ResourceKind::Radio, 2, 1);
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
    fn outage_rows_are_explicit_but_excluded_from_usage() {
        let mut m = SystemMonitor::new();
        m.record(rec(0, 0, 0, -2.0));
        m.record(MonitorRecord::outage(0, 0, RaId(1), SliceId(0)));
        m.record(MonitorRecord::outage(0, 1, RaId(1), SliceId(0)));
        // The rows exist...
        assert_eq!(m.records().len(), 3);
        // ...but don't dilute usage.
        let u = m.round_usage(0, SliceId(0));
        assert!(
            (u[0] - 0.5).abs() < 1e-12,
            "outage rows must not dilute usage means"
        );
        // 2 RAs × 2 intervals, 2 lost ⇒ half served.
        assert!((m.round_served_fraction(0, 2, 2) - 0.5).abs() < 1e-12);
    }

    /// The full-history scans the folded aggregates replaced: the oracle
    /// of the differential property below.
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

        pub(super) fn round_served_fraction(
            records: &[MonitorRecord],
            round: usize,
            n_ras: usize,
            period: usize,
        ) -> f64 {
            if n_ras * period == 0 {
                return 1.0;
            }
            let total = (n_ras * period) as f64;
            let mut lost: Vec<(RaId, usize)> = records
                .iter()
                .filter(|r| {
                    r.round == round && r.ra.0 < n_ras && r.status == IntervalStatus::Outage
                })
                .map(|r| (r.ra, r.interval))
                .collect();
            lost.sort_unstable();
            lost.dedup();
            ((total - lost.len() as f64) / total).clamp(0.0, 1.0)
        }

        pub(super) fn round_usage(
            records: &[MonitorRecord],
            round: usize,
            slice: SliceId,
        ) -> [f64; 3] {
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

        pub(super) fn rounds(records: &[MonitorRecord]) -> usize {
            records.iter().map(|r| r.round + 1).max().unwrap_or(0)
        }

        /// `Σ value(row)` at `round·period + interval` over the rows of
        /// `slice` (of every slice for `None`), in arrival order: the scan
        /// under all three interval series.
        pub(super) fn interval_series(
            records: &[MonitorRecord],
            period: usize,
            slice: Option<SliceId>,
            value: impl Fn(&MonitorRecord) -> f64,
        ) -> Vec<f64> {
            let n = rounds(records) * period;
            let mut out = vec![0.0; n];
            for r in records
                .iter()
                .filter(|r| slice.is_none_or(|s| r.slice == s))
            {
                let idx = r.round * period + r.interval;
                if idx < n {
                    out[idx] += value(r);
                }
            }
            out
        }
    }

    fn bits(series: &[f64]) -> Vec<u64> {
        series.iter().map(|x| x.to_bits()).collect()
    }

    /// Ids run past the queried `n_ras` (≤ 4 below).
    const MAX_ID: usize = 6;
    const MAX_ROUND: usize = 5;
    const MAX_INTERVAL: usize = 4;

    /// Magnitudes that make a sum depend on the order of its addends,
    /// plus both zeros.
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

    proptest::proptest! {
        /// Differential: on any row stream — rounds out of order, a round
        /// re-appended whole (the same-process resume case), outage rows
        /// repeated across slices, ids past the queried shape — every
        /// folded query equals the full-history scan it replaced, floats
        /// compared bit for bit (the usage series to rounding where `n_ras`
        /// is no power of two).
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
            proptest::prop_assert_eq!(m.records().len(), stream.len());
            proptest::prop_assert_eq!(m.rounds(), scan::rounds(&stream));
            // One round past the last recorded one: the empty aggregate.
            for round in 0..=MAX_ROUND {
                // The drawn shape, then the two `n_ras * period == 0` edges.
                for (n, t) in [(n_ras, period), (0, period), (n_ras, 0)] {
                    proptest::prop_assert_eq!(
                        m.round_served_fraction(round, n, t).to_bits(),
                        scan::round_served_fraction(&stream, round, n, t).to_bits()
                    );
                }
                for id in 0..=MAX_ID {
                    proptest::prop_assert_eq!(
                        m.round_usage(round, SliceId(id)).map(f64::to_bits),
                        scan::round_usage(&stream, round, SliceId(id)).map(f64::to_bits)
                    );
                }
            }
            // The shares' magnitudes: what a usage sum's rounding scales with.
            let magnitudes: Vec<MonitorRecord> = stream
                .iter()
                .map(|r| MonitorRecord { shares: r.shares.map(f64::abs), ..*r })
                .collect();
            // No interval; every drawn interval inside its round (as every
            // stamped row is); one spare interval per round.
            for t in [0, MAX_INTERVAL, MAX_INTERVAL + 1] {
                let performance = |r: &MonitorRecord| r.performance;
                proptest::prop_assert_eq!(
                    bits(&m.interval_system_series(t)),
                    bits(&scan::interval_series(&stream, t, None, performance))
                );
                for slice in (0..=MAX_ID).map(SliceId) {
                    proptest::prop_assert_eq!(
                        bits(&m.slice_interval_series(slice, t)),
                        bits(&scan::interval_series(&stream, t, Some(slice), performance))
                    );
                    for resource in ResourceKind::ALL {
                        for n in 0..=5 {
                            let usage = |r: &MonitorRecord| r.shares[resource.index()] / n.max(1) as f64;
                            let got = m.usage_interval_series(slice, resource, t, n);
                            let want = scan::interval_series(&stream, t, Some(slice), usage);
                            if n.max(1).is_power_of_two() {
                                proptest::prop_assert_eq!(bits(&got), bits(&want));
                                continue;
                            }
                            // `(Σ x) / n` against `Σ (x / n)`: rounding
                            // apart, a few ulps of `Σ |x| / n` at most.
                            let scale = scan::interval_series(&magnitudes, t, Some(slice), usage);
                            proptest::prop_assert_eq!(got.len(), want.len());
                            for ((g, w), s) in got.iter().zip(&want).zip(&scale) {
                                proptest::prop_assert!((g - w).abs() <= 1e-12 * s, "{} vs {}", g, w);
                            }
                        }
                    }
                }
            }
        }
    }
}
