//! The system monitor (paper Sec. V-D): collects network state and slice
//! performance across the system and serves aggregates to the performance
//! coordinator over the RC-M interface.

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

/// One round's RC-M aggregates, folded by [`SystemMonitor::record`] in
/// arrival order so every sum sees the addends a scan of the history
/// would, in the same order (duplicated rows included). The usage table
/// is indexed by slice id and grown on demand.
#[derive(Debug, Clone, Default)]
struct RoundAggregate {
    /// Per slice: served `shares` sums and the served row count.
    usage: Vec<([f64; 3], usize)>,
    /// `(ra, interval)` pairs lost to outages (one entry however many
    /// slices reported the pair, however often), ordered by RA.
    outages: BTreeSet<(RaId, usize)>,
}

impl RoundAggregate {
    fn fold(&mut self, r: &MonitorRecord) {
        match r.status {
            IntervalStatus::Served => {
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

/// Bytes per history chunk: 80 KiB, under glibc's 128 KiB mmap threshold,
/// so chunks come from the heap and go back to it.
const CHUNK_BYTES: usize = 80 * 1024;

/// An append-only sequence kept in fixed-size chunks of [`CHUNK_BYTES`]:
/// a chunk is never filled past its capacity, so nothing stored moves and
/// no allocation grows with the sequence but the chunk table (one pointer
/// per chunk). A clone's chunks are exactly full; pushes onto it open new
/// ones.
#[derive(Debug, Clone)]
struct Chunked<T> {
    chunks: Vec<Vec<T>>,
}

impl<T> Chunked<T> {
    fn push(&mut self, value: T) {
        match self.chunks.last_mut() {
            Some(chunk) if chunk.len() < chunk.capacity() => chunk.push(value),
            _ => {
                let mut chunk = Vec::with_capacity(CHUNK_BYTES / std::mem::size_of::<T>());
                chunk.push(value);
                self.chunks.push(chunk);
            }
        }
    }

    fn last_mut(&mut self) -> Option<&mut T> {
        self.chunks.last_mut()?.last_mut()
    }

    fn len(&self) -> usize {
        self.chunks.iter().map(Vec::len).sum()
    }

    fn iter(&self) -> impl Iterator<Item = &T> {
        self.chunks.iter().flatten()
    }
}

impl<T> Default for Chunked<T> {
    fn default() -> Self {
        Self { chunks: Vec::new() }
    }
}

/// What a row carries besides its run's header: `queue`, `performance`
/// and `shares`, 40 bytes.
type Payload = [f64; 5];

/// The header of one run of the history: a maximal sequence of rows with
/// one `(round, ra, status)` whose `(interval, slice)` step through the
/// interval-major grid in order. A worker's report and an outage's rows
/// are one grid each, so one header stands for a whole report.
#[derive(Debug, Clone, Copy)]
struct Run {
    round: usize,
    ra: RaId,
    status: IntervalStatus,
    /// `(interval, slice)` of the run's first row.
    first: (usize, usize),
    /// Slices per interval: open (`None`) until the run first wraps to
    /// slice 0 of the next interval, which fixes it.
    width: Option<usize>,
    len: usize,
}

impl Run {
    fn open(r: &MonitorRecord) -> Self {
        Self {
            round: r.round,
            ra: r.ra,
            status: r.status,
            first: (r.interval, r.slice.0),
            width: None,
            len: 1,
        }
    }

    /// Takes `r` into the run if it is the grid cell after `last`, the
    /// run's last row (a first wrap fixes the width); `false` otherwise.
    fn try_extend(&mut self, r: &MonitorRecord, (interval, slice): (usize, usize)) -> bool {
        if (r.round, r.ra, r.status) != (self.round, self.ra, self.status) {
            return false;
        }
        let Some(next) = slice.checked_add(1) else {
            return false;
        };
        let wraps = r.slice.0 == 0 && interval.checked_add(1) == Some(r.interval);
        let steps = r.interval == interval && r.slice.0 == next;
        let extends = match self.width {
            Some(width) if next == width => wraps,
            Some(_) => steps,
            None if wraps => {
                self.width = Some(next);
                true
            }
            None => steps,
        };
        self.len += usize::from(extends);
        extends
    }

    /// `(interval, slice)` of each of the run's rows, in order.
    fn cells(self) -> impl Iterator<Item = (usize, usize)> {
        std::iter::successors(Some(self.first), move |&(interval, slice)| {
            let next = slice.checked_add(1)?;
            if Some(next) == self.width {
                Some((interval.checked_add(1)?, 0))
            } else {
                Some((interval, next))
            }
        })
        .take(self.len)
    }
}

/// The row history: run headers, and every row's [`Payload`] in arrival
/// order (a run's payload starts where the previous run's ends).
#[derive(Debug, Clone, Default)]
struct History {
    runs: Chunked<Run>,
    payloads: Chunked<Payload>,
    /// `(interval, slice)` of the last row recorded.
    last: (usize, usize),
}

impl History {
    fn push(&mut self, r: &MonitorRecord) {
        let last = self.last;
        if !self
            .runs
            .last_mut()
            .is_some_and(|run| run.try_extend(r, last))
        {
            self.runs.push(Run::open(r));
        }
        self.last = (r.interval, r.slice.0);
        let [radio, transport, compute] = r.shares;
        self.payloads
            .push([r.queue, r.performance, radio, transport, compute]);
    }
}

/// A view of the monitor's row history, in arrival order.
#[derive(Clone, Copy)]
pub struct Records<'a>(&'a History);

impl<'a> Records<'a> {
    /// Number of rows recorded.
    pub fn len(&self) -> usize {
        self.0.payloads.len()
    }

    /// Whether no row was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every row, in arrival order.
    pub fn iter(&self) -> impl Iterator<Item = MonitorRecord> + 'a {
        let History { runs, payloads, .. } = self.0;
        let cells = runs
            .iter()
            .flat_map(|run| run.cells().map(move |cell| (run, cell)));
        cells
            .zip(payloads.iter())
            .map(|((run, (interval, slice)), payload)| {
                let &[queue, performance, radio, transport, compute] = payload;
                MonitorRecord {
                    round: run.round,
                    interval,
                    ra: run.ra,
                    slice: SliceId(slice),
                    queue,
                    performance,
                    shares: [radio, transport, compute],
                    status: run.status,
                }
            })
    }
}

impl std::fmt::Debug for Records<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl PartialEq<&[MonitorRecord]> for Records<'_> {
    fn eq(&self, other: &&[MonitorRecord]) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter().copied())
    }
}

/// The monitor database: the row history plus one aggregate per round
/// (served shares and lost intervals), which is what every per-round
/// query reads. Not serialisable —
/// the aggregates are derived state that only `record` keeps in step.
#[derive(Debug, Clone, Default)]
pub struct SystemMonitor {
    history: History,
    /// Indexed by round; its length is "max recorded round + 1". Rounds
    /// arrive in any order (a same-process resume re-appends replayed
    /// rounds), so rows fold into their round's slot wherever they arrive.
    aggregates: Vec<RoundAggregate>,
}

impl SystemMonitor {
    /// Creates an empty monitor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an interval record (the VR-interface report) and folds it
    /// into its round's aggregate.
    pub fn record(&mut self, record: MonitorRecord) {
        cell(&mut self.aggregates, record.round).fold(&record);
        self.history.push(&record);
    }

    /// All records, in arrival order.
    pub fn records(&self) -> Records<'_> {
        Records(&self.history)
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
        for r in self.records().iter() {
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
        for r in self.records().iter().filter(|r| r.slice == slice) {
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
        for r in self.records().iter().filter(|r| r.slice == slice) {
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

    /// One worker report's grid: `period × n_slices` rows, interval-major.
    fn grid(round: usize, ra: usize, period: usize, n_slices: usize) -> Vec<MonitorRecord> {
        (0..period * n_slices)
            .map(|k| MonitorRecord {
                interval: k / n_slices,
                slice: SliceId(k % n_slices),
                performance: -(k as f64),
                ..rec(round, ra, 0, 0.0)
            })
            .collect()
    }

    #[test]
    fn each_report_grid_is_one_run() {
        let mut stream = Vec::new();
        for round in 0..3 {
            for ra in 0..4 {
                stream.extend(grid(round, ra, 6, 5));
            }
        }
        stream.extend((0..6 * 5).map(|k| MonitorRecord::outage(3, k / 5, RaId(1), SliceId(k % 5))));
        // A replayed round, then a grid whose first interval is partial.
        stream.extend(grid(1, 2, 6, 5));
        stream.extend(grid(4, 0, 3, 4).split_off(2));
        let mut m = SystemMonitor::new();
        for r in &stream {
            m.record(*r);
        }
        assert_eq!(m.records(), &stream[..]);
        assert_eq!(m.history.runs.len(), 3 * 4 + 1 + 1 + 1);
        let widths: Vec<Option<usize>> = m.history.runs.iter().map(|run| run.width).collect();
        assert_eq!(widths, [vec![Some(5); 14], vec![Some(4)]].concat());
    }

    #[test]
    fn a_row_off_the_grid_starts_a_new_run() {
        let mut stream = grid(0, 0, 4, 3);
        // A skipped cell, a repeated cell, another RA's row, an outage row:
        // each breaks the run it lands in, and nothing is lost.
        stream.remove(4);
        stream.insert(7, stream[6]);
        stream[9].ra = RaId(1);
        stream[10].status = IntervalStatus::Outage;
        let mut m = SystemMonitor::new();
        for r in &stream {
            m.record(*r);
        }
        assert_eq!(m.records(), &stream[..]);
        assert_eq!(m.history.runs.len(), 6);
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
        }

        /// Lossless on streams of grid pieces — runs that wrap, open
        /// widths, pieces that continue or break the run before them, a
        /// cell nudged off its grid: `records()` is the stream, in order.
        #[test]
        fn history_is_lossless_on_grid_streams(
            pieces in proptest::collection::vec(
                (
                    (0usize..3, 0usize..3, 0usize..2),
                    (0usize..3, 0usize..5, 1usize..5),
                    (0usize..14, 0usize..20),
                ),
                0..12,
            ),
        ) {
            let mut stream = Vec::new();
            for ((round, ra, outage), (interval, slice, width), (len, nudge)) in pieces {
                let first = interval * width + slice;
                let start = stream.len();
                stream.extend((first..first + len).map(|p| MonitorRecord {
                    interval: p / width,
                    slice: SliceId(p % width),
                    status: if outage == 1 { IntervalStatus::Outage } else { IntervalStatus::Served },
                    performance: p as f64,
                    ..rec(round, ra, 0, 0.0)
                }));
                if let Some(r) = stream[start..].get_mut(nudge) {
                    r.slice.0 += 1;
                }
            }
            let mut m = SystemMonitor::new();
            for r in &stream {
                m.record(*r);
            }
            proptest::prop_assert_eq!(m.records(), &stream[..]);
            proptest::prop_assert!(m.history.runs.len() <= stream.len());
        }
    }
}
