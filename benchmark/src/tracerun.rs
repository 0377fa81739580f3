//! The traced run (`--trace 1`): where the per-layer metrics come from.
//!
//! After one set-up and a warm-up block the run alternates three kinds of
//! block — the real one, its hand-driven twin with the tracer off, and the
//! twin with the tracer on — so that drift hits all three alike. The twins
//! must reproduce the real block's digest (`hand-loop-equals-run`); within
//! each triple the twin's time over the real block's, and the traced twin's
//! over the twin's, are taken, and the medians of these are
//! `trace.reconstruction_ratio` and `trace.overhead_ratio`. A run whose
//! ratios leave [`VALID_RATIO`] says so in a warning: its layer times
//! describe the twin, not the program. Layer times are the traced twins'
//! span totals; the stand-alone probes fill in the rest.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::app::Options;
use crate::deploy::Ops;
use crate::error::Result;
use crate::handloop::{count, span};
use crate::host::HostClock;
use crate::measure::{timed, Sample};
use crate::netprobe::{span as net_span, FrameKind, LinkLog};
use crate::probes;
use crate::report::{Values, PER_LAYER};
use crate::runner::{run_setups, Folded, Measured};
use crate::scenario::{Ctx, Scenario};
use crate::sizes::{Workload, PERIOD};
use crate::stats::{median, quantile, slope};
use crate::trace::{totals_by_name, write_spans, Count, NameTotal, Span, Tracer};
use crate::workloads::run_net::SESSION;

/// What a traced run yields.
pub struct Traced {
    /// The per-layer metric values.
    pub values: Values,
    /// Set-up and real-block samples, checks and digests.
    pub measured: Measured,
    /// What makes this run's per-layer times untrustworthy (none, usually).
    pub warnings: Vec<String>,
}

/// Triples (real, twin, traced twin) every traced run completes, however
/// short `--seconds` is: the two trace ratios are medians over them.
const MIN_TRIPLES: usize = 5;

/// Where `trace.reconstruction_ratio` and `trace.overhead_ratio` must lie
/// for the twin to stand for the program. A ratio below 1 is noise, not a
/// faster twin.
pub const VALID_RATIO: (f64, f64) = (0.9, 1.1);

/// One traced twin's recordings.
struct Recording {
    spans: Vec<Span>,
    counts: Vec<Count>,
    links: Vec<(String, LinkLog)>,
}

/// Median over the triples of `num[i] / den[i]`, both in reference-host
/// seconds: neighbours share their spell, so drift slower than a triple
/// cancels.
fn paired_ratio(num: &[Sample], den: &[Sample], alpha: f64) -> f64 {
    let ratios: Vec<f64> = num
        .iter()
        .zip(den)
        .map(|(n, d)| n.normalised(alpha).0 / d.normalised(alpha).0)
        .collect();
    median(&ratios)
}

/// Runs the traced run.
pub fn trace_run<S: Scenario, H: HostClock + ?Sized>(
    scenario: &S,
    ctx: &Ctx<'_>,
    host: &mut H,
    opts: &Options,
) -> Result<Traced> {
    let mut folded = Folded::default();
    let (state, setup_digest, setups) = run_setups(scenario, ctx, host, 1, &mut folded.checks)?;

    let warm = scenario.block(ctx, &state)?;
    folded.absorb(scenario.verify(ctx, &state, warm)?, "repeats-deterministic");
    folded.ops = Ops::default();

    // One real block with the allocation counter on, kept out of the timing.
    let before = alloc_counter::totals();
    alloc_counter::set_enabled(true);
    let counted = scenario.block(ctx, &state);
    alloc_counter::set_enabled(false);
    let after = alloc_counter::totals();
    folded.absorb(
        scenario.verify(ctx, &state, counted?)?,
        "repeats-deterministic",
    );

    let span_capacity = 8 * ctx.sizes.steps_per_block(PERIOD) + 4096;
    let (mut real, mut twin, mut traced) = (Vec::new(), Vec::new(), Vec::new());
    let mut baseline = Vec::new();
    let mut recordings: Vec<Recording> = Vec::new();
    let phase_start = host.wall_s();
    loop {
        let (out, sample) = timed(host, || scenario.block(ctx, &state));
        folded.absorb(scenario.verify(ctx, &state, out?)?, "repeats-deterministic");
        real.push(sample);

        let mut off = Tracer::off();
        let (out, sample) = timed(host, || scenario.hand_block(ctx, &state, &mut off));
        folded.absorb(scenario.verify(ctx, &state, out?)?, "hand-loop-equals-run");
        twin.push(sample);

        let mut on = Tracer::on(Instant::now(), span_capacity);
        let (out, sample) = timed(host, || scenario.hand_block(ctx, &state, &mut on));
        folded.absorb(scenario.verify(ctx, &state, out?)?, "hand-loop-equals-run");
        traced.push(sample);
        let (spans, counts, links) = on.into_parts();
        recordings.push(Recording {
            spans,
            counts,
            links,
        });

        let (out, sample) = timed(host, || scenario.baseline_block(ctx, &state));
        if let Some(result) = out {
            result?;
            baseline.push(sample);
        }

        let elapsed = host.wall_s() - phase_start;
        let per_triple = elapsed / real.len() as f64;
        if real.len() >= MIN_TRIPLES && elapsed + per_triple > opts.seconds {
            break;
        }
    }

    let alpha = ctx.sizes.alpha;
    let steps = ctx.sizes.steps_per_block(PERIOD) as f64;
    let mut values = Values::default();
    for def in &PER_LAYER {
        // A layer that does not run on this workload reads 0.
        values.set(def.name, 0.0);
    }
    probes::run_all(&mut values, ctx.scratch)?;
    for (name, value) in ctx.notes.all() {
        values.set(name, value);
    }
    match opts.workload {
        Workload::TrainPaper => training_layers(&mut values, &recordings, steps),
        Workload::RunLong | Workload::RunDurable => {
            round_layers(&mut values, &recordings, ctx.sizes.rounds as f64, steps)
        }
        Workload::RunNet => net_layers(&mut values, &recordings, ctx.sizes.rounds),
    }
    if !baseline.is_empty() {
        values.set(
            "runtime.net.overhead_ratio",
            paired_ratio(&real, &baseline, alpha),
        );
    }
    values.set("alloc.count_per_step", (after.0 - before.0) as f64 / steps);
    values.set("alloc.bytes_per_step", (after.1 - before.1) as f64 / steps);
    let h: Vec<f64> = real
        .iter()
        .chain(&twin)
        .chain(&traced)
        .map(|s| s.host_factor())
        .collect();
    values.set("host.speed", median(&h));
    let mut warnings = Vec::new();
    for (name, ratio) in [
        ("trace.overhead_ratio", paired_ratio(&traced, &twin, alpha)),
        (
            "trace.reconstruction_ratio",
            paired_ratio(&twin, &real, alpha),
        ),
    ] {
        values.set(name, ratio);
        if !(VALID_RATIO.0..=VALID_RATIO.1).contains(&ratio) {
            warnings.push(format!(
                "{name} {ratio:.3} is outside {}-{} over {} triples: this run's per-layer times \
                 describe the hand-driven twin in a noisy spell, not the program",
                VALID_RATIO.0,
                VALID_RATIO.1,
                real.len()
            ));
        }
    }

    print_shares(&recordings);

    // The last traced twin's spans go to the span file.
    let last = recordings.last().expect("at least one triple ran");
    let mut threads: Vec<(&str, &[Span])> = vec![("main", &last.spans)];
    for (label, log) in &last.links {
        threads.push((label, &log.spans));
    }
    let path = opts
        .out_dir
        .join(format!("trace-{}.json", opts.workload.name()));
    write_spans(&path, &threads)?;
    let written = std::fs::metadata(&path).is_ok_and(|m| m.len() > 0);
    folded.checks.note("span-file-written", written);

    Ok(Traced {
        values,
        measured: Measured {
            setups,
            blocks: real,
            folded,
            setup_digest,
        },
        warnings,
    })
}

/// Span totals by name, summed over every traced twin.
fn pooled(recordings: &[Recording]) -> BTreeMap<&'static str, NameTotal> {
    let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for r in recordings {
        for (name, t) in totals_by_name(&r.spans) {
            let slot = out.entry(name).or_default();
            slot.count += t.count;
            slot.total_ns += t.total_ns;
            slot.self_ns += t.self_ns;
        }
    }
    out
}

fn total_ns(totals: &BTreeMap<&'static str, NameTotal>, name: &str) -> f64 {
    totals.get(name).map_or(0.0, |t| t.total_ns as f64)
}

fn per_call_ns(totals: &BTreeMap<&'static str, NameTotal>, name: &str) -> f64 {
    totals
        .get(name)
        .map_or(0.0, |t| t.total_ns as f64 / t.count.max(1) as f64)
}

fn counts_named<'a>(
    recordings: &'a [Recording],
    name: &'static str,
) -> impl Iterator<Item = &'a Count> {
    recordings
        .iter()
        .flat_map(|r| &r.counts)
        .filter(move |c| c.name == name)
}

/// Prints each layer's share of the traced twins' time (self time by span
/// name over the root spans' total) — the README's layer table.
fn print_shares(recordings: &[Recording]) {
    let totals = pooled(recordings);
    let root_ns: u64 = recordings
        .iter()
        .flat_map(|r| &r.spans)
        .filter(|s| s.parent.is_none())
        .map(Span::duration_ns)
        .sum();
    if root_ns == 0 {
        return;
    }
    println!("layer shares of the traced twin (self time / traced time):");
    for (name, t) in &totals {
        println!(
            "  {name:<44} {:>7.2} %  ({} spans)",
            100.0 * t.self_ns as f64 / root_ns as f64,
            t.count
        );
    }
    // `run-net`: the coordinator thread's time inside the link wrappers,
    // as shares of the same sessions.
    let mut links: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (_, log) in recordings
        .iter()
        .flat_map(|r| &r.links)
        .filter(|(label, _)| label.starts_with("coordinator"))
    {
        for s in &log.spans {
            let slot = links.entry(s.name).or_default();
            slot.0 += s.duration_ns();
            slot.1 += 1;
        }
    }
    for (name, (ns, count)) in links {
        println!(
            "  {:<44} {:>7.2} %  ({count} spans, coordinator links)",
            name,
            100.0 * ns as f64 / root_ns as f64
        );
    }
}

/// `train-paper`: the training loop's spans.
fn training_layers(values: &mut Values, recordings: &[Recording], steps: f64) {
    let totals = pooled(recordings);
    let blocks = recordings.len() as f64;
    let per_step = |name: &str| total_ns(&totals, name) / (steps * blocks);
    values.set(
        "core.agent.train.us_per_step",
        per_step(span::TRAIN_STEP) / 1e3,
    );
    values.set(
        "rl.ddpg.update.us_per_call",
        per_call_ns(&totals, span::DDPG_UPDATE) / 1e3,
    );
    values.set(
        "rl.ddpg.explore.ns_per_step",
        per_call_ns(&totals, span::EXPLORE),
    );
    values.set("rl.replay.push.ns_per_step", per_step(span::REPLAY_PUSH));
    // In training the environment is stepped through `Environment::step`
    // (advance + observe) and `reset` at episode ends.
    values.set("core.env.advance.ns_per_step", per_step(span::ENV_STEP));
}

/// `run-long`, `run-durable`: the round loop's spans and counts.
fn round_layers(values: &mut Values, recordings: &[Recording], rounds: f64, steps: f64) {
    let totals = pooled(recordings);
    let blocks = recordings.len() as f64;
    let per_round_us = |name: &str| total_ns(&totals, name) / (rounds * blocks) / 1e3;
    let per_step_ns = |name: &str| total_ns(&totals, name) / (steps * blocks);

    let round_ns: Vec<f64> = recordings
        .iter()
        .flat_map(|r| &r.spans)
        .filter(|s| s.name == span::ROUND)
        .map(|s| s.duration_ns() as f64)
        .collect();
    if !round_ns.is_empty() {
        values.set("core.orchestrator.round.us", median(&round_ns) / 1e3);
        values.set(
            "core.orchestrator.round.p99_us",
            quantile(&round_ns, 0.99) / 1e3,
        );
    }
    if let Some(t) = totals.get(span::ROUND) {
        values.set(
            "core.orchestrator.round.unattributed_share",
            t.self_ns as f64 / t.total_ns.max(1) as f64,
        );
    }
    values.set(
        "core.coordinator.coordination_info.us_per_round",
        per_round_us(span::COORDINATION_INFO),
    );
    values.set(
        "core.coordinator.update_partial.us_per_round",
        per_round_us(span::UPDATE_PARTIAL),
    );
    values.set("core.env.observe.ns_per_step", per_step_ns(span::OBSERVE));
    values.set("core.agent.decide.ns_per_step", per_step_ns(span::DECIDE));
    values.set(
        "core.orchestrator.project_action.ns_per_step",
        per_step_ns(span::PROJECT),
    );
    values.set("core.env.advance.ns_per_step", per_step_ns(span::ADVANCE));
    values.set(
        "core.monitor.record.us_per_round",
        per_round_us(span::MONITOR_RECORD),
    );
    values.set(
        "core.monitor.round_queries.us_per_round",
        per_round_us(span::MONITOR_QUERIES),
    );
    let (xs, ys): (Vec<f64>, Vec<f64>) = recordings
        .iter()
        .flat_map(|r| &r.spans)
        .filter(|s| s.name == span::MONITOR_QUERIES)
        .map(|s| (f64::from(s.round), s.duration_ns() as f64))
        .unzip();
    values.set(
        "core.monitor.round_queries.growth_ns_per_round",
        slope(&xs, &ys),
    );
    let records = counts_named(recordings, count::MONITOR_RECORDS)
        .map(|c| c.value)
        .max()
        .unwrap_or(0);
    values.set("core.monitor.records", records as f64);

    let calls: f64 = counts_named(recordings, count::PREDICT_CALLS)
        .map(|c| c.value as f64)
        .sum();
    let offgrid: f64 = counts_named(recordings, count::PREDICT_OFFGRID)
        .map(|c| c.value as f64)
        .sum();
    if calls > 0.0 {
        values.set("netsim.dataset.offgrid_share", offgrid / calls);
    }

    // `core.store`: only where a sink was attached.
    values.set(
        "core.store.save_run.us_per_call",
        per_call_ns(&totals, span::SAVE_RUN) / 1e3,
    );
    values.set(
        "core.store.latest_run.us_per_call",
        per_call_ns(&totals, span::LATEST_RUN) / 1e3,
    );
    let (rounds_at, bytes): (Vec<f64>, Vec<f64>) = counts_named(recordings, count::SAVE_RUN_BYTES)
        .map(|c| (f64::from(c.round), c.value as f64))
        .unzip();
    if !bytes.is_empty() {
        values.set(
            "core.store.save_run.bytes_per_call",
            bytes.iter().sum::<f64>() / bytes.len() as f64,
        );
        values.set(
            "core.store.save_run.bytes_growth_per_round",
            slope(&rounds_at, &bytes),
        );
    }
    let blocked: f64 = counts_named(recordings, count::SAVE_RUN_BLOCKED_NS)
        .map(|c| c.value as f64)
        .sum();
    let traced_ns: f64 = recordings
        .iter()
        .flat_map(|r| &r.spans)
        .filter(|s| s.parent.is_none())
        .map(|s| s.duration_ns() as f64)
        .sum();
    if blocked > 0.0 && traced_ns > 0.0 {
        values.set("core.store.fsync_wait_share", blocked / traced_ns);
    }
}

/// `run-net`: what the link wrappers saw.
fn net_layers(values: &mut Values, recordings: &[Recording], rounds: usize) {
    let mut round_us = Vec::new();
    let mut loop_us = Vec::new();
    let mut loop_outside_ns = 0.0;
    let mut loop_total_ns = 0.0;
    let mut wait_ns = 0.0;
    let mut session_ns = 0.0;
    let mut report_bytes = Vec::new();
    let mut round_bytes = 0.0;
    for r in recordings {
        session_ns += r
            .spans
            .iter()
            .filter(|s| s.name == SESSION)
            .map(|s| s.duration_ns() as f64)
            .sum::<f64>();
        let coordinator: Vec<&LinkLog> = r
            .links
            .iter()
            .filter(|(label, _)| label.starts_with("coordinator"))
            .map(|(_, log)| log)
            .collect();
        // Per round: first `Round` send starts it, last `Report` receive
        // ends the gather.
        let mut started = vec![u64::MAX; rounds];
        let mut gathered = vec![0u64; rounds];
        let mut inside = vec![0u64; rounds];
        for log in &coordinator {
            for s in &log.spans {
                if matches!(s.name, net_span::RECV | net_span::RECV_IDLE) {
                    wait_ns += s.duration_ns() as f64;
                }
            }
            for f in &log.frames {
                let s = &log.spans[f.span as usize];
                let k = f.round as usize;
                match f.kind {
                    FrameKind::Round if k < rounds => started[k] = started[k].min(s.start_ns),
                    FrameKind::Report if k < rounds => gathered[k] = gathered[k].max(s.end_ns),
                    _ => {}
                }
            }
        }
        // Each frame is sized once, by the end that sent it.
        for f in r.links.iter().flat_map(|(_, log)| &log.frames) {
            if !f.sent || f.round as usize >= rounds {
                continue;
            }
            match f.kind {
                FrameKind::Round => round_bytes += f64::from(f.bytes),
                FrameKind::Report => {
                    round_bytes += f64::from(f.bytes);
                    report_bytes.push(f64::from(f.bytes));
                }
                FrameKind::Other => {}
            }
        }
        // Time the coordinator spent inside the wrappers, by the round
        // whose loop iteration it fell in.
        for log in &coordinator {
            for s in &log.spans {
                let k = started.partition_point(|&t| t <= s.start_ns);
                if k > 0 {
                    inside[k - 1] += s.duration_ns();
                }
            }
        }
        for k in 0..rounds {
            if started[k] != u64::MAX && gathered[k] > started[k] {
                round_us.push((gathered[k] - started[k]) as f64 / 1e3);
            }
            if k + 1 < rounds && started[k + 1] != u64::MAX && started[k] != u64::MAX {
                let whole = (started[k + 1] - started[k]) as f64;
                loop_us.push(whole / 1e3);
                loop_total_ns += whole;
                loop_outside_ns += (whole - inside[k] as f64).max(0.0);
            }
        }
    }
    let sessions = recordings.len() as f64;
    if !round_us.is_empty() {
        values.set("runtime.net.run_round.us", median(&round_us));
        values.set("runtime.net.run_round.p99_us", quantile(&round_us, 0.99));
    }
    if !loop_us.is_empty() {
        // One iteration of `run_networked`'s loop: broadcast, gather, fold.
        values.set("core.orchestrator.round.us", median(&loop_us));
        values.set("core.orchestrator.round.p99_us", quantile(&loop_us, 0.99));
        // What the wrappers cannot see: `run_networked` decoding the report
        // bodies and folding them.
        values.set(
            "core.orchestrator.round.unattributed_share",
            loop_outside_ns / loop_total_ns,
        );
    }
    if session_ns > 0.0 {
        values.set("runtime.transport.recv_wait_share", wait_ns / session_ns);
    }
    if !report_bytes.is_empty() {
        values.set(
            "runtime.frame.report_bytes",
            report_bytes.iter().sum::<f64>() / report_bytes.len() as f64,
        );
        values.set(
            "runtime.frame.bytes_per_round",
            round_bytes / (sessions * rounds as f64),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::CalTime;
    use crate::sizes::CAL_REF_S;

    fn sample(wall_s: f64) -> Sample {
        let cal = CalTime {
            total_s: CAL_REF_S,
            parts_s: [CAL_REF_S / 3.0; 3],
        };
        Sample {
            wall_s,
            cpu_s: wall_s,
            cal_before: cal,
            cal_after: cal,
        }
    }

    #[test]
    fn paired_ratio_cancels_drift_slower_than_a_triple() {
        // The twin takes 1.05 times its real neighbour while the host, unseen
        // by the calibration, slows from 1 to 3 over the run and the last
        // twin catches a stall.
        let drift = [1.0, 1.5, 2.0, 2.5, 3.0];
        let real: Vec<Sample> = drift.iter().map(|d| sample(*d)).collect();
        let mut twin: Vec<Sample> = drift.iter().map(|d| sample(d * 1.05)).collect();
        twin[4].wall_s *= 2.0;
        assert!((paired_ratio(&twin, &real, 0.75) - 1.05).abs() < 1e-12);
    }
}
