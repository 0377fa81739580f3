//! The benchmark's in-memory span recorder.
//!
//! Spans are recorded from the benchmark's own files, around its calls into
//! each layer — the program itself is not instrumented. A span holds a
//! name, start, end, the span that caused it and the round it belongs to;
//! they stay in memory until the run ends and are written out once.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::error::{Error, Result};
use crate::netprobe::LinkLog;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// `<crate>.<module>.<function>` of the call the span wraps.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the span that caused this one, if any.
    pub parent: Option<u32>,
    /// The coordination round (or training step) the span belongs to.
    pub round: u32,
}

impl Span {
    /// The span's duration, nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An open span, to be handed back to [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
#[must_use = "an entered span must be exited"]
pub struct Open(Option<u32>);

/// Records spans on one thread. A tracer that is off costs one branch per
/// call, so the same hand-driven loop runs traced and untraced.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    on: bool,
    spans: Vec<Span>,
    stack: Vec<u32>,
    /// Logs of other threads' link wrappers (`run-net`), by label.
    links: Vec<(String, LinkLog)>,
    /// Counts taken at the same boundaries as the spans.
    counts: Vec<Count>,
}

/// A count taken at a layer boundary (bytes written, rows held, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Count {
    /// What was counted.
    pub name: &'static str,
    /// The round it was counted in.
    pub round: u32,
    /// The count.
    pub value: u64,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self {
            origin: Instant::now(),
            on: false,
            spans: Vec::new(),
            stack: Vec::new(),
            links: Vec::new(),
            counts: Vec::new(),
        }
    }

    /// A recording tracer with room for `capacity` spans (so recording does
    /// not allocate inside the measured loop) whose clock starts at `origin`.
    pub fn on(origin: Instant, capacity: usize) -> Self {
        Self {
            origin,
            on: true,
            spans: Vec::with_capacity(capacity),
            stack: Vec::with_capacity(16),
            links: Vec::new(),
            counts: Vec::with_capacity(1024),
        }
    }

    /// Whether this tracer records.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// The instant span times are measured from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Takes over what a link wrapper on another thread recorded.
    pub fn adopt_link(&mut self, label: String, log: LinkLog) {
        self.links.push((label, log));
    }

    /// Records a count (nothing when the tracer is off).
    #[inline]
    pub fn count(&mut self, name: &'static str, round: usize, value: u64) {
        if self.on {
            self.counts.push(Count {
                name,
                round: round as u32,
                value,
            });
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    #[inline]
    pub fn enter(&mut self, name: &'static str, round: usize) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            round: round as u32,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes a span opened by [`Tracer::enter`].
    #[inline]
    pub fn exit(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let end_ns = self.now_ns();
        self.spans[id as usize].end_ns = end_ns;
        while let Some(top) = self.stack.pop() {
            if top == id {
                break;
            }
        }
    }

    /// The spans recorded so far, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Everything recorded: spans, counts and adopted link logs.
    pub fn into_parts(self) -> (Vec<Span>, Vec<Count>, Vec<(String, LinkLog)>) {
        (self.spans, self.counts, self.links)
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotal {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations, nanoseconds.
    pub total_ns: u64,
    /// Sum of their self times, nanoseconds.
    pub self_ns: u64,
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (children are clipped to the parent and
/// overlapping children are counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[p as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let from = start.max(reach);
                if end > from {
                    covered += end - from;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Count, total and self time per span name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotal> {
    let self_ns = self_times_ns(spans);
    let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_ns) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += own;
    }
    out
}

/// Writes spans as one JSON document: `{"thread": …, "spans": [[name,
/// start_ns, end_ns, parent, round], …]}` per thread.
pub fn write_spans(path: &Path, threads: &[(&str, &[Span])]) -> Result<()> {
    let io = |e| Error::io(format!("writing {}", path.display()), e);
    let file = std::fs::File::create(path).map_err(io)?;
    let mut w = std::io::BufWriter::new(file);
    let mut body = || -> std::io::Result<()> {
        writeln!(
            w,
            "{{\"columns\": [\"name\", \"start_ns\", \"end_ns\", \"parent\", \"round\"], \"threads\": ["
        )?;
        for (ti, (thread, spans)) in threads.iter().enumerate() {
            writeln!(w, "{{\"thread\": \"{thread}\", \"spans\": [")?;
            for (i, s) in spans.iter().enumerate() {
                let parent = s
                    .parent
                    .map_or_else(|| "null".to_string(), |p| p.to_string());
                let comma = if i + 1 == spans.len() { "" } else { "," };
                writeln!(
                    w,
                    "[\"{}\", {}, {}, {}, {}]{comma}",
                    s.name, s.start_ns, s.end_ns, parent, s.round
                )?;
            }
            let comma = if ti + 1 == threads.len() { "" } else { "," };
            writeln!(w, "]}}{comma}")?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    };
    body().map_err(io)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            round: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once_per_level() {
        // round [0,100] ⊃ step [10,60] ⊃ decide [20,30]; round ⊃ collect [70,90].
        let spans = [
            span("round", 0, 100, None),
            span("step", 10, 60, Some(0)),
            span("decide", 20, 30, Some(1)),
            span("collect", 70, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 40, 10, 20]);
        let totals = totals_by_name(&spans);
        assert_eq!(totals["round"].self_ns, 30);
        assert_eq!(totals["round"].total_ns, 100);
        // Self times of a tree add up to the root's duration.
        assert_eq!(totals.values().map(|t| t.self_ns).sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once_and_clipped() {
        // Children [10,50] and [30,70] overlap on [30,50]; [90,130] overhangs.
        let spans = [
            span("parent", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 30, 70, Some(0)),
            span("c", 90, 130, Some(0)),
            span("contained", 35, 45, Some(0)),
        ];
        // Covered: [10,70] = 60 and [90,100] = 10.
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn tracer_links_parents_and_an_off_tracer_records_nothing() {
        let mut t = Tracer::on(Instant::now(), 8);
        let round = t.enter("round", 3);
        let step = t.enter("step", 3);
        t.exit(step);
        let step2 = t.enter("step", 3);
        t.exit(step2);
        t.exit(round);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.round == 3 && s.end_ns >= s.start_ns));
        assert!(spans[0].end_ns >= spans[2].end_ns);

        let mut off = Tracer::off();
        let o = off.enter("round", 0);
        off.exit(o);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn span_file_is_valid_json() {
        let dir =
            std::env::temp_dir().join(format!("edgeslice-bench-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        let spans = [span("round", 0, 100, None), span("step", 10, 60, Some(0))];
        write_spans(&path, &[("main", &spans), ("peer0", &[])]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let value = serde_json::parse_value(&text).unwrap();
        assert!(value.get_field("threads").is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
