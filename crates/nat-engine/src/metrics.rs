//! Engine-side runtime metrics: the hot-path instrument registry.
//!
//! Mirrors the [`crate::telemetry::EventSink`] discipline exactly: a
//! [`Nat`](crate::Nat) holds an `Option<Box<EngineMetrics>>` — absent
//! by default, so every fire site costs one untaken branch — and
//! `benchmark/`'s metrics-free workloads, read as parent-vs-change
//! pairs, hold that disabled cost. Unlike the event
//! sink (which streams per-event records out of the engine), the
//! registry is pure accumulation: plain counters and histograms owned
//! by the shard's thread, rendered into a [`Snapshot`] only at sample
//! barriers via [`crate::Nat::metrics_snapshot`].

use crate::nat::DropReason;
use cgn_metrics::{Counter, Histogram, Snapshot, Value};

/// The engine's instrument registry: mapping-lifecycle rates, flow
/// rejections by reason, block churn, and sweep cost. Gauges (live
/// mappings, slab occupancy, allocator fill, parked timers) are not
/// stored here — they are levels the engine already tracks, read
/// fresh at snapshot time.
#[derive(Debug, Default)]
pub struct EngineMetrics {
    pub mappings_created: Counter,
    pub mappings_expired: Counter,
    pub rejects_port_exhausted: Counter,
    pub rejects_session_limit: Counter,
    pub block_grants: Counter,
    pub block_releases: Counter,
    pub sweeps: Counter,
    pub sweep_scans: Counter,
    /// Distribution of due-mapping batch sizes per scanning sweep —
    /// the "how bursty is expiry work" observable.
    pub sweep_batch: Histogram,
    /// Calls to [`Nat::stage_burst`](crate::Nat::stage_burst), the
    /// first half of every outbound burst.
    pub bursts: Counter,
    /// Distribution of burst fill (packets per stage call) — how full
    /// the driver's windows keep the batched hot path.
    pub burst_fill: Histogram,
    /// Candidate rows the burst pipeline handed to the prefetcher:
    /// one per packet whose tag-only index probe named a slot. The
    /// probe is unverified, so this is not a hit count — a
    /// fingerprint collision counts a row no packet will use.
    pub prefetches: Counter,
    /// Calls to [`Nat::stage_inbound_burst`](crate::Nat::stage_inbound_burst),
    /// the first half of every inbound burst.
    pub bursts_in: Counter,
    /// Distribution of inbound burst fill (packets per stage call).
    /// Small on the driver path by design: the reply leg answers one
    /// millisecond bucket at a time.
    pub burst_in_fill: Histogram,
    /// The same for the inbound burst pipeline's tag-only ext-key
    /// probes.
    pub prefetches_in: Counter,
}

impl EngineMetrics {
    /// Sweep fire site: every sweep, plus the batch distribution when
    /// the wheel actually had due buckets to scan.
    ///
    /// The `on_*` bodies are outlined (`#[cold]`, `#[inline(never)]`)
    /// so the engine's hot functions keep their registry-disabled code
    /// size: the inlined cost of a fire site is the `Option` null
    /// check and an untaken call, never the accumulation code itself.
    #[cold]
    #[inline(never)]
    pub fn on_sweep(&mut self, scanned: bool, batch: u64) {
        self.sweeps.inc();
        if scanned {
            self.sweep_scans.inc();
            self.sweep_batch.record(batch);
        }
    }

    /// Mapping-expiry fire site (with whether the expiry returned a
    /// port block to the allocator).
    #[cold]
    #[inline(never)]
    pub fn on_expired(&mut self, block_released: bool) {
        self.mappings_expired.inc();
        if block_released {
            self.block_releases.inc();
        }
    }

    /// New-flow rejection fire site, labeled by reason.
    #[cold]
    #[inline(never)]
    pub fn on_rejected(&mut self, reason: DropReason) {
        match reason {
            DropReason::PortExhausted => self.rejects_port_exhausted.inc(),
            DropReason::SessionLimit => self.rejects_session_limit.inc(),
            _ => {}
        }
    }

    /// Mapping-creation fire site.
    #[cold]
    #[inline(never)]
    pub fn on_created(&mut self) {
        self.mappings_created.inc();
    }

    /// Port-block grant fire site.
    #[cold]
    #[inline(never)]
    pub fn on_block_grant(&mut self) {
        self.block_grants.inc();
    }

    /// Burst fire site: once per [`Nat::stage_burst`](crate::Nat::stage_burst)
    /// call, recording the burst fill and how many candidate rows the
    /// prefetch stage's tag-only probes named.
    #[cold]
    #[inline(never)]
    pub fn on_burst(&mut self, fill: u64, prefetched: u64) {
        self.bursts.inc();
        self.burst_fill.record(fill);
        self.prefetches.add(prefetched);
    }

    /// Inbound-burst fire site: once per
    /// [`Nat::stage_inbound_burst`](crate::Nat::stage_inbound_burst)
    /// call, recording the burst fill and how many candidate rows the
    /// prefetch stage's tag-only probes named. Fired only on the burst
    /// path — the scalar inbound API touches no instrument.
    #[cold]
    #[inline(never)]
    pub fn on_burst_inbound(&mut self, fill: u64, prefetched: u64) {
        self.bursts_in.inc();
        self.burst_in_fill.record(fill);
        self.prefetches_in.add(prefetched);
    }

    /// Render the accumulated counters as snapshot samples.
    pub fn render_into(&self, out: &mut Snapshot) {
        out.push(
            "cgn_mappings_created_total",
            Value::Counter(self.mappings_created.get()),
        );
        out.push(
            "cgn_mappings_expired_total",
            Value::Counter(self.mappings_expired.get()),
        );
        out.push(
            "cgn_flows_rejected_total{reason=\"port-exhausted\"}",
            Value::Counter(self.rejects_port_exhausted.get()),
        );
        out.push(
            "cgn_flows_rejected_total{reason=\"session-limit\"}",
            Value::Counter(self.rejects_session_limit.get()),
        );
        out.push(
            "cgn_block_grants_total",
            Value::Counter(self.block_grants.get()),
        );
        out.push(
            "cgn_block_releases_total",
            Value::Counter(self.block_releases.get()),
        );
        out.push("cgn_sweeps_total", Value::Counter(self.sweeps.get()));
        out.push(
            "cgn_sweep_scans_total",
            Value::Counter(self.sweep_scans.get()),
        );
        out.push(
            "cgn_sweep_batch_size",
            Value::Histogram(self.sweep_batch.clone()),
        );
        out.push("cgn_bursts_total", Value::Counter(self.bursts.get()));
        out.push("cgn_burst_fill", Value::Histogram(self.burst_fill.clone()));
        out.push(
            "cgn_prefetch_issued_total",
            Value::Counter(self.prefetches.get()),
        );
        out.push(
            "cgn_inbound_bursts_total",
            Value::Counter(self.bursts_in.get()),
        );
        out.push(
            "cgn_inbound_burst_fill",
            Value::Histogram(self.burst_in_fill.clone()),
        );
        out.push(
            "cgn_inbound_prefetch_issued_total",
            Value::Counter(self.prefetches_in.get()),
        );
    }
}

/// The engine-side registry slot: `None` is the disabled (zero-cost)
/// state. Wrapped so `Nat` keeps its derived `Debug` readable.
pub(crate) struct MetricsSlot(pub(crate) Option<Box<EngineMetrics>>);

impl std::fmt::Debug for MetricsSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            Some(_) => f.write_str("EngineMetrics(installed)"),
            None => f.write_str("EngineMetrics(none)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_covers_every_instrument() {
        let mut m = EngineMetrics::default();
        m.mappings_created.add(3);
        m.rejects_session_limit.inc();
        m.sweep_batch.record(17);
        let mut snap = Snapshot::default();
        m.render_into(&mut snap);
        snap.normalize();
        assert_eq!(snap.scalar("cgn_mappings_created_total"), 3);
        assert_eq!(
            snap.scalar("cgn_flows_rejected_total{reason=\"session-limit\"}"),
            1
        );
        assert_eq!(
            snap.scalar("cgn_flows_rejected_total{reason=\"port-exhausted\"}"),
            0
        );
        assert_eq!(snap.scalar("cgn_sweep_batch_size"), 1, "histogram count");
        m.on_burst(32, 7);
        m.on_burst_inbound(16, 5);
        let mut snap = Snapshot::default();
        m.render_into(&mut snap);
        snap.normalize();
        assert_eq!(snap.scalar("cgn_bursts_total"), 1);
        assert_eq!(snap.scalar("cgn_prefetch_issued_total"), 7);
        assert_eq!(snap.scalar("cgn_inbound_bursts_total"), 1);
        assert_eq!(snap.scalar("cgn_inbound_prefetch_issued_total"), 5);
        assert_eq!(snap.samples.len(), 15, "every instrument renders");
    }
}
