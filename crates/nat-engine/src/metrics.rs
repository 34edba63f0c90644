//! Engine-side runtime metrics: the hot-path instrument registry.
//!
//! A [`Nat`](crate::Nat) holds its registry in its one probe slot,
//! next to the event sink and the tracer: absent by default, so every
//! fire site costs one untaken branch, and
//! `benchmark/`'s metrics-free workloads, read as parent-vs-change
//! pairs, hold that disabled cost. Unlike the event sink (which
//! streams per-event records out of the engine), the registry is pure
//! accumulation: plain counters and histograms owned by the shard's
//! thread, rendered into a [`Snapshot`] only at sample barriers via
//! [`crate::Nat::metrics_snapshot`], which adds the lifecycle counters
//! [`NatStats`](crate::NatStats) already keeps (mappings created and
//! expired, rejections by reason, sweeps) rather than counting them a
//! second time here.

use cgn_metrics::{Counter, Histogram, Snapshot, Value};

/// The engine's instrument registry: what [`NatStats`](crate::NatStats)
/// does not count — block churn, the bursty-ness of expiry work and the
/// burst pipeline's fill and prefetches. Gauges (live mappings, slab
/// occupancy, allocator fill, parked timers) are not stored here
/// either — they are levels the engine already tracks, read fresh at
/// snapshot time.
#[derive(Debug, Default)]
pub struct EngineMetrics {
    pub block_grants: Counter,
    pub block_releases: Counter,
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
    /// Burst fire site: once per [`Nat::stage_burst`](crate::Nat::stage_burst)
    /// call, recording the burst fill and how many candidate rows the
    /// prefetch stage's tag-only probes named.
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
    pub fn on_burst_inbound(&mut self, fill: u64, prefetched: u64) {
        self.bursts_in.inc();
        self.burst_in_fill.record(fill);
        self.prefetches_in.add(prefetched);
    }

    /// Render the accumulated instruments as snapshot samples.
    pub fn render_into(&self, out: &mut Snapshot) {
        let counters = [
            ("cgn_block_grants_total", &self.block_grants),
            ("cgn_block_releases_total", &self.block_releases),
            ("cgn_bursts_total", &self.bursts),
            ("cgn_prefetch_issued_total", &self.prefetches),
            ("cgn_inbound_bursts_total", &self.bursts_in),
            ("cgn_inbound_prefetch_issued_total", &self.prefetches_in),
        ];
        for (name, c) in counters {
            out.push(name, Value::Counter(c.get()));
        }
        let histograms = [
            ("cgn_sweep_batch_size", &self.sweep_batch),
            ("cgn_burst_fill", &self.burst_fill),
            ("cgn_inbound_burst_fill", &self.burst_in_fill),
        ];
        for (name, h) in histograms {
            out.push(name, Value::Histogram(h.clone()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_covers_every_instrument() {
        let mut m = EngineMetrics::default();
        m.block_grants.add(3);
        m.sweep_batch.record(17);
        let mut snap = Snapshot::default();
        m.render_into(&mut snap);
        snap.normalize();
        assert_eq!(snap.scalar("cgn_block_grants_total"), 3);
        assert_eq!(snap.scalar("cgn_block_releases_total"), 0);
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
        assert_eq!(snap.samples.len(), 9, "every instrument renders");
    }
}
