//! The traced run: drains the program's `dcs-obs` phase spans, attributes them
//! to the benchmark operation whose interval contains them, and computes
//! per-phase totals and self times.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use dcs_obs::trace::{self, Phase, TraceEvent};
use serde_json::{json, Value};

use crate::report::Metrics;
use crate::stats;

/// A span interval in microseconds on the tracer's clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    pub start_us: u64,
    pub end_us: u64,
}

impl Interval {
    pub fn of(event: &TraceEvent) -> Interval {
        Interval {
            start_us: event.start_us,
            end_us: event.start_us + event.duration_us,
        }
    }

    fn contains(&self, other: &Interval) -> bool {
        self.start_us <= other.start_us && other.end_us <= self.end_us
    }

    fn len(&self) -> u64 {
        self.end_us - self.start_us
    }
}

/// Turns tracing on and maps benchmark-side instants onto the tracer's
/// clock (microseconds since the tracer's private epoch).
pub struct Tracer {
    epoch: Instant,
    dropped: u64,
}

/// Units value of the calibration probe, never produced by a program span.
const PROBE_UNITS: u64 = u64::MAX - 0xDC5;

impl Tracer {
    /// Enables tracing and calibrates the clock with one probe event.  Call
    /// while nothing else is recording spans.
    pub fn enable() -> Tracer {
        trace::set_enabled(true);
        let probe = Instant::now();
        trace::record(Phase::QueueWait, probe, Duration::ZERO, PROBE_UNITS);
        let (events, dropped) = trace::take_timeline_with_drops();
        let start_us = events
            .iter()
            .rev()
            .find(|event| event.units == PROBE_UNITS)
            .map(|event| event.start_us)
            .expect("the calibration probe is recorded while tracing is enabled");
        Tracer {
            epoch: probe - Duration::from_micros(start_us),
            dropped,
        }
    }

    /// The tracer-clock position of `at`.
    pub fn micros(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_micros()).unwrap_or(u64::MAX)
    }

    /// The tracer-clock interval between two instants.
    pub fn interval(&self, start: Instant, end: Instant) -> Interval {
        Interval {
            start_us: self.micros(start),
            end_us: self.micros(end),
        }
    }

    /// Drains every thread's ring, accumulating the drop count.
    pub fn drain(&mut self) -> Vec<TraceEvent> {
        let (events, dropped) = trace::take_timeline_with_drops();
        self.dropped += dropped;
        events
    }

    /// Events lost to full rings so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl Drop for Tracer {
    fn drop(&mut self) {
        trace::set_enabled(false);
        trace::clear();
    }
}

/// The events whose start lies inside `op` (the spans an operation caused,
/// with one operation in flight at a time).
pub fn attribute(op: Interval, events: &[TraceEvent]) -> Vec<TraceEvent> {
    events
        .iter()
        .filter(|event| op.start_us <= event.start_us && event.start_us <= op.end_us)
        .copied()
        .collect()
}

/// Microseconds of `parent` covered by no other span nested inside it.
///
/// A child is any other span whose interval lies within the parent's,
/// whatever thread recorded it (parallel sweep workers record their own
/// spans).  Two spans with the same interval nest by position: the later one
/// is the child.  Coverage is the union of the children's intervals, so
/// overlapping children are not subtracted twice.
pub fn self_time_us(parent_index: usize, events: &[TraceEvent]) -> u64 {
    let parent = Interval::of(&events[parent_index]);
    let mut children: Vec<Interval> = events
        .iter()
        .enumerate()
        .filter(|&(index, _)| index != parent_index)
        .map(|(index, event)| (index, Interval::of(event)))
        .filter(|&(index, child)| {
            parent.contains(&child) && (child != parent || index > parent_index)
        })
        .map(|(_, child)| child)
        .collect();
    children.sort_by_key(|child| child.start_us);
    let mut covered = 0;
    let mut reach = parent.start_us;
    for child in children {
        let start = child.start_us.max(reach);
        if child.end_us > start {
            covered += child.end_us - start;
            reach = child.end_us;
        }
    }
    parent.len() - covered
}

/// Per-phase sums of one operation, keyed by phase name.
pub type PhaseSums = BTreeMap<&'static str, PhaseSum>;

/// Per-phase sums over one operation's spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseSum {
    pub count: u64,
    pub total_us: u64,
    pub self_us: u64,
    pub units: u64,
}

/// Sums each phase's spans of one operation.  Spans nested inside a span of
/// the same phase (per-thread spans of one parallel phase) count toward
/// `count` and `units` but not again toward the times.
pub fn phase_sums(events: &[TraceEvent]) -> PhaseSums {
    let mut sums = PhaseSums::new();
    for (index, event) in events.iter().enumerate() {
        let sum = sums.entry(event.phase.as_str()).or_default();
        sum.count += 1;
        sum.units += event.units;
        let interval = Interval::of(event);
        let nested_in_same_phase = events.iter().enumerate().any(|(other, outer)| {
            other != index
                && outer.phase == event.phase
                && Interval::of(outer).contains(&interval)
                && (Interval::of(outer) != interval || other < index)
        });
        if !nested_in_same_phase {
            sum.total_us += event.duration_us;
            sum.self_us += self_time_us(index, events);
        }
    }
    sums
}

/// Median over operations of a per-operation phase figure.
pub fn phase_median(traces: &[PhaseSums], figure: impl Fn(&PhaseSums) -> f64) -> f64 {
    let values: Vec<f64> = traces.iter().map(figure).collect();
    stats::median(&values).unwrap_or(0.0)
}

/// Sets the peel and DCSGA per-layer metrics from traced average-degree and
/// affinity mines.
pub fn set_solver_layers(metrics: &mut Metrics, ad: &[PhaseSums], ga: &[PhaseSums]) {
    let get = |sums: &PhaseSums, phase: &str| sums.get(phase).copied().unwrap_or_default();
    metrics.set(
        "densest.peel_ms",
        phase_median(ad, |s| get(s, "peel").total_us as f64 / 1e3),
    );
    metrics.set(
        "densest.peel_vertices",
        phase_median(ad, |s| get(s, "peel").units as f64),
    );
    metrics.set(
        "dcsga.mu_sweep_self_ms",
        phase_median(ga, |s| get(s, "mu_sweep").self_us as f64 / 1e3),
    );
    metrics.set(
        "dcsga.mu_inits",
        phase_median(ga, |s| get(s, "mu_sweep").units as f64),
    );
    metrics.set(
        "dcsga.cd_shrink_ms",
        phase_median(ga, |s| get(s, "cd_shrink").total_us as f64 / 1e3),
    );
    metrics.set(
        "dcsga.cd_iterations",
        phase_median(ga, |s| get(s, "cd_shrink").units as f64),
    );
    metrics.set(
        "dcsga.cd_expand_ms",
        phase_median(ga, |s| get(s, "cd_expand").total_us as f64 / 1e3),
    );
    metrics.set(
        "dcsga.refine_ms",
        phase_median(ga, |s| get(s, "refine").total_us as f64 / 1e3),
    );
}

/// Per-phase medians (over operations) of count, total, self time and units.
pub fn phase_table(traces: &[PhaseSums]) -> Value {
    let mut phases: Vec<&'static str> = traces.iter().flat_map(|t| t.keys().copied()).collect();
    phases.sort_unstable();
    phases.dedup();
    let table: BTreeMap<&str, Value> = phases
        .into_iter()
        .map(|phase| {
            let get = |t: &PhaseSums| t.get(phase).copied().unwrap_or_default();
            (
                phase,
                json!({
                    "count": phase_median(traces, |t| get(t).count as f64),
                    "total_ms": phase_median(traces, |t| get(t).total_us as f64 / 1e3),
                    "self_ms": phase_median(traces, |t| get(t).self_us as f64 / 1e3),
                    "units": phase_median(traces, |t| get(t).units as f64),
                }),
            )
        })
        .collect();
    json!(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(phase: Phase, start_us: u64, duration_us: u64) -> TraceEvent {
        TraceEvent {
            phase,
            start_us,
            duration_us,
            units: 1,
            thread: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let events = [
            event(Phase::MuSweep, 100, 100), // [100, 200]
            event(Phase::CdShrink, 110, 30), // [110, 140]
            event(Phase::CdExpand, 130, 20), // [130, 150] overlaps the shrink
            event(Phase::Refine, 180, 10),   // [180, 190]
            event(Phase::Peel, 190, 40),     // [190, 230] not nested
        ];
        // Covered: [110, 150] + [180, 190] = 50 of 100.
        assert_eq!(self_time_us(0, &events), 50);
        assert_eq!(self_time_us(1, &events), 30);
        assert_eq!(self_time_us(4, &events), 40);
    }

    #[test]
    fn grandchildren_are_covered_by_their_parent() {
        let events = [
            event(Phase::MuSweep, 0, 100),
            event(Phase::CdShrink, 10, 50),
            event(Phase::Refine, 20, 10),
        ];
        assert_eq!(self_time_us(0, &events), 50);
        assert_eq!(self_time_us(1, &events), 40);
        assert_eq!(self_time_us(2, &events), 10);
    }

    #[test]
    fn identical_intervals_nest_by_position() {
        let events = [event(Phase::MuSweep, 5, 10), event(Phase::Refine, 5, 10)];
        assert_eq!(self_time_us(0, &events), 0);
        assert_eq!(self_time_us(1, &events), 10);
    }

    #[test]
    fn phase_sums_do_not_double_count_same_phase_nesting() {
        let events = [
            event(Phase::Peel, 0, 100),
            event(Phase::Peel, 10, 40),
            event(Phase::CdShrink, 200, 5),
        ];
        let sums = phase_sums(&events);
        let peel = sums["peel"];
        assert_eq!((peel.count, peel.total_us, peel.units), (2, 100, 2));
        assert_eq!(peel.self_us, 60);
        assert_eq!(sums["cd_shrink"].total_us, 5);
    }

    #[test]
    fn attribution_uses_span_start() {
        let events = [
            event(Phase::QueueWait, 9, 5),
            event(Phase::Peel, 10, 5),
            event(Phase::Peel, 30, 5),
        ];
        let op = Interval {
            start_us: 10,
            end_us: 20,
        };
        let mine = attribute(op, &events);
        assert_eq!(mine.len(), 1);
        assert_eq!(mine[0].start_us, 10);
    }
}
