//! Wall-clock phase profiler: where hot-path time goes.
//!
//! Phases are the fixed pipeline regions worth attributing wall-clock
//! to — the driver's per-window and per-bucket passes and barrier
//! duties, and the burst pipeline's three passes inside the engine. Each phase
//! owns a log2 [`Histogram`] of nanoseconds; shards record into their
//! own profiler (no synchronization) and profiles merge in shard
//! order at render time, exactly like snapshots.
//!
//! Timing has a budget. The barrier phases run once per step and the
//! engine's burst entry points three laps per burst: those are timed
//! every time and their histograms are exact. The driver's window
//! phases would cost several clock reads per millisecond bucket, so a
//! shard times one window in sixteen and records each of its laps with
//! weight sixteen: `cgn_phase_nanos_count` and `_sum` of `generate`,
//! `translate`, `commit`, `inbound` (and of the `burst_*` phases on
//! the driver path) are **weighted estimates** of the whole run, not
//! tallies, and their percentiles describe the timed windows. See
//! [`ShardTracer::window_clock`](crate::ShardTracer::window_clock) for
//! the estimator and [`ShardTracer::lap`](crate::ShardTracer::lap) for
//! what a lap is net of.
//!
//! Wall-clock durations are inherently nondeterministic, so a
//! [`PhaseProfiler`] must never feed anything a run digest covers:
//! callers render it into *published* expositions (`/metrics`, perf
//! artifacts) only. The deterministic windowed metrics path does not
//! see it.

use cgn_metrics::{Histogram, Snapshot, Value};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// One attributed pipeline region.
///
/// On the driver path the unit of work is a *window* of consecutive
/// millisecond buckets (`cgn_traffic`'s `advance_shard`): generate and
/// the two outbound staging passes run once per window, translate /
/// commit / inbound once per bucket of it. The engine laps its three
/// `Burst*` phases on the driver's own clock, and the driver records
/// `Translate` and `Inbound` as the spans those laps add up to — so
/// the `Burst*` phases are a breakdown of those two, not additional
/// time, and a span costs no clock read of its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Phase {
    /// Driver pass 1: drain a window's buckets from the event wheel,
    /// draw its flow events, build its packets. One lap per window.
    Generate,
    /// Driver pass 2: outbound packets through the engine. One span
    /// per bucket, equal to that bucket's `BurstTranslate` lap — plus,
    /// for a window's first bucket, the `BurstResolve` and
    /// `BurstPrefetch` laps of the stage call made for the whole
    /// window. The phase's sum is all outbound engine time, as it was
    /// when a lap wrapped one `process_burst` call.
    Translate,
    /// Driver pass 3: apply a bucket's verdicts in event order,
    /// schedule follow-ups, queue replies. One lap per bucket.
    Commit,
    /// Driver reply leg: a bucket's inbound replies through the
    /// engine. One span per bucket that drew a reply, equal to that
    /// call pair's three `Burst*` laps.
    Inbound,
    /// Sweep barrier: expiry wheel advance + mapping teardown.
    Sweep,
    /// Sample barrier: demand sampling + snapshot merge.
    Sample,
    /// Burst stage 1: key packing + index-cell prefetch. One lap per
    /// stage call: per window outbound, per replied bucket inbound.
    BurstResolve,
    /// Burst stage 2: tag-only index probes + slot-row prefetch. Laps
    /// as `BurstResolve`.
    BurstPrefetch,
    /// Burst stage 3: in-order translate. One lap per translate call:
    /// per bucket on the driver path, per burst under
    /// `Nat::process_burst` / `process_inbound_burst`.
    BurstTranslate,
}

impl Phase {
    /// Every phase, in render order.
    pub const ALL: [Phase; 9] = [
        Phase::Generate,
        Phase::Translate,
        Phase::Commit,
        Phase::Inbound,
        Phase::Sweep,
        Phase::Sample,
        Phase::BurstResolve,
        Phase::BurstPrefetch,
        Phase::BurstTranslate,
    ];

    /// The `phase=` label value.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Generate => "generate",
            Phase::Translate => "translate",
            Phase::Commit => "commit",
            Phase::Inbound => "inbound",
            Phase::Sweep => "sweep",
            Phase::Sample => "sample",
            Phase::BurstResolve => "burst_resolve",
            Phase::BurstPrefetch => "burst_prefetch",
            Phase::BurstTranslate => "burst_translate",
        }
    }

    fn index(self) -> usize {
        match self {
            Phase::Generate => 0,
            Phase::Translate => 1,
            Phase::Commit => 2,
            Phase::Inbound => 3,
            Phase::Sweep => 4,
            Phase::Sample => 5,
            Phase::BurstResolve => 6,
            Phase::BurstPrefetch => 7,
            Phase::BurstTranslate => 8,
        }
    }
}

/// The metric family phase histograms render under.
pub const PHASE_FAMILY: &str = "cgn_phase_nanos";

/// A running wall-clock phase clock, started and lapped through a
/// [`ShardTracer`](crate::ShardTracer): the instant its last lap
/// ended, the weight its laps are recorded with (1, or N for a clock
/// that runs one time in N), and what its laps have recorded so far —
/// so a *span*, a caller's phase that is exactly a run of laps, is the
/// difference between two copies of the clock and costs no clock read.
#[derive(Debug, Clone, Copy)]
pub struct PhaseClock {
    pub(crate) at: Instant,
    pub(crate) weight: u64,
    pub(crate) lapped: u64,
}

impl PhaseClock {
    pub(crate) fn start(weight: u64) -> PhaseClock {
        PhaseClock {
            at: Instant::now(),
            weight,
            lapped: 0,
        }
    }
}

/// Per-shard wall-clock nanosecond histograms, one per [`Phase`].
#[derive(Debug, Default, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseProfiler {
    histograms: Vec<Histogram>,
}

impl PhaseProfiler {
    pub fn new() -> Self {
        PhaseProfiler {
            histograms: vec![Histogram::default(); Phase::ALL.len()],
        }
    }

    /// Record one timed region standing for `weight` like it
    /// ([`Histogram::record_n`]): 1 for a region timed every time it
    /// runs, N for one timed once in N runs.
    #[inline]
    pub fn record(&mut self, phase: Phase, nanos: u64, weight: u64) {
        self.histograms[phase.index()].record_n(nanos, weight);
    }

    /// The histogram for one phase (empty profilers index safely).
    pub fn histogram(&self, phase: Phase) -> &Histogram {
        static EMPTY: Histogram = Histogram {
            count: 0,
            sum: 0,
            buckets: Vec::new(),
        };
        self.histograms.get(phase.index()).unwrap_or(&EMPTY)
    }

    /// Fold another profiler in (shard-order merge at render time).
    pub fn merge(&mut self, other: &PhaseProfiler) {
        if self.histograms.len() < other.histograms.len() {
            self.histograms
                .resize(other.histograms.len(), Histogram::default());
        }
        for (mine, theirs) in self.histograms.iter_mut().zip(&other.histograms) {
            mine.merge(theirs);
        }
    }

    pub fn is_empty(&self) -> bool {
        self.histograms.iter().all(Histogram::is_empty)
    }

    /// Push `cgn_phase_nanos{phase="…"}` histogram samples for every
    /// non-empty phase. Only for *published* snapshots — never the
    /// deterministic windowed series.
    pub fn render_into(&self, out: &mut Snapshot) {
        for phase in Phase::ALL {
            let h = self.histogram(phase);
            if h.is_empty() {
                continue;
            }
            out.push(
                format!("{PHASE_FAMILY}{{phase=\"{}\"}}", phase.name()),
                Value::Histogram(h.clone()),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_have_unique_names_and_indices() {
        let mut names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Phase::ALL.len());
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
    }

    #[test]
    fn profiler_records_merges_and_renders() {
        let mut a = PhaseProfiler::new();
        a.record(Phase::Generate, 1000, 1);
        a.record(Phase::Generate, 2000, 1);
        a.record(Phase::Sweep, 50, 1);
        let mut b = PhaseProfiler::new();
        b.record(Phase::Generate, 4000, 1);
        a.merge(&b);
        assert_eq!(a.histogram(Phase::Generate).count, 3);
        assert_eq!(a.histogram(Phase::Generate).sum, 7000);
        let mut snap = Snapshot::default();
        a.render_into(&mut snap);
        snap.normalize();
        assert_eq!(snap.samples.len(), 2, "only non-empty phases render");
        let text = cgn_metrics::expo::render(&snap);
        assert!(text.contains("cgn_phase_nanos_count{phase=\"generate\"} 3"));
        assert!(text.contains("cgn_phase_nanos_count{phase=\"sweep\"} 1"));
        assert!(
            !text.contains("phase=\"inbound\""),
            "empty phases are omitted:\n{text}"
        );
        let (p50, p95, p99) = a.histogram(Phase::Generate).percentiles();
        assert!(p50 <= p95 && p95 <= p99);
    }

    #[test]
    fn empty_profiler_is_empty() {
        let p = PhaseProfiler::new();
        assert!(p.is_empty());
        let mut snap = Snapshot::default();
        p.render_into(&mut snap);
        assert!(snap.samples.is_empty());
        assert_eq!(p.histogram(Phase::Sweep).percentiles(), (0.0, 0.0, 0.0));
    }
}
