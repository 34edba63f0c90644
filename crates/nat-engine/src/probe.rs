//! What observes a [`Nat`](crate::Nat): its event sink
//! ([`crate::telemetry`]), metrics registry ([`crate::metrics`]) and
//! flow/phase tracer ([`cgn_trace`]), behind one `Option`.
//!
//! A `Nat` holds an `Option<Box<Probe>>`. `None` is the default, and
//! it costs one untaken branch per fire site however many parts an
//! installed probe would hold. Installing any part creates the probe;
//! taking the last part out drops it again. The engine has seven fire
//! sites, and each makes one call here, which fans out to whatever
//! parts are installed in a fixed order:
//!
//! | site | calls, in order |
//! |------|-----------------|
//! | admit | sink `block_allocated` (when the mapping opened a port block), sink `mapping_created`, registry block grant, tracer admit |
//! | expire | tracer expire, sink `mapping_expired`, sink `block_released` (when the mapping closed a block), registry block release |
//! | translate, translate in | tracer (per packet, inlined) |
//! | burst, burst in | registry burst fill and prefetches |
//! | sweep | registry batch size (scanning sweeps only) |
//!
//! Every site but the two per-packet ones is outlined (`#[cold]`,
//! `#[inline(never)]`), so the engine's hot functions keep their
//! unobserved code size: what a fire site inlines is the null check
//! and an untaken call.

use crate::metrics::EngineMetrics;
use crate::ports::BlockGrant;
use crate::telemetry::{BlockEvent, EventSink, MappingEvent};
use cgn_trace::ShardTracer;
use netcore::SimTime;
use std::fmt;

/// The installed observers of one [`Nat`](crate::Nat); any of them may
/// be absent, but not all three.
#[derive(Default)]
pub(crate) struct Probe {
    pub(crate) sink: Option<Box<dyn EventSink>>,
    pub(crate) metrics: Option<Box<EngineMetrics>>,
    pub(crate) tracer: Option<Box<ShardTracer>>,
}

/// Says which parts are installed, never their contents: flight
/// recorders and logs stay out of `Nat`'s `Debug`.
impl fmt::Debug for Probe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let installed = |on: bool| if on { "installed" } else { "none" };
        f.debug_struct("Probe")
            .field("sink", &installed(self.sink.is_some()))
            .field("metrics", &installed(self.metrics.is_some()))
            .field("tracer", &installed(self.tracer.is_some()))
            .finish()
    }
}

/// The block event of `grant`, on the pool address and at the time of
/// the mapping that opened or closed it.
fn block_event(mapping: &MappingEvent, grant: BlockGrant) -> BlockEvent {
    BlockEvent {
        at: mapping.at,
        proto: mapping.proto,
        subscriber: grant.host,
        ext_ip: mapping.external.ip,
        block_start: grant.start,
        block_len: grant.len,
    }
}

impl Probe {
    pub(crate) fn is_empty(&self) -> bool {
        self.sink.is_none() && self.metrics.is_none() && self.tracer.is_none()
    }

    /// A mapping was admitted into `slot` (and is in the store);
    /// `grant` is the port block its admission opened, if any.
    #[cold]
    #[inline(never)]
    pub(crate) fn admit(&mut self, slot: u32, mapping: &MappingEvent, grant: Option<BlockGrant>) {
        if let Some(sink) = &mut self.sink {
            if let Some(g) = grant {
                sink.block_allocated(&block_event(mapping, g));
            }
            sink.mapping_created(mapping);
        }
        if let (Some(m), Some(_)) = (&mut self.metrics, grant) {
            m.block_grants.inc();
        }
        if let Some(t) = &mut self.tracer {
            if t.sampling_flows() {
                let at_ms = mapping.at.as_millis();
                t.on_admit(slot, mapping.flow_key(), at_ms, grant.is_some());
            }
        }
    }

    /// The mapping in `slot` was removed; `grant` is the port block its
    /// removal closed, if any.
    #[cold]
    #[inline(never)]
    pub(crate) fn expire(&mut self, slot: u32, mapping: &MappingEvent, grant: Option<BlockGrant>) {
        if let Some(t) = &mut self.tracer {
            if t.sampling_flows() {
                t.on_expire(slot, mapping.at.as_millis());
            }
        }
        if let Some(sink) = &mut self.sink {
            sink.mapping_expired(mapping);
            if let Some(g) = grant {
                sink.block_released(&block_event(mapping, g));
            }
        }
        if let (Some(m), Some(_)) = (&mut self.metrics, grant) {
            m.block_releases.inc();
        }
    }

    /// An outbound packet was translated through `slot`; `refreshed`
    /// says whether it pushed an existing mapping's expiry out (the
    /// creating packet's span is the admit).
    #[inline]
    pub(crate) fn translate(&mut self, slot: u32, now: SimTime, refreshed: bool) {
        if let Some(t) = &mut self.tracer {
            if t.sampling_flows() {
                t.on_translate(slot, now.as_millis(), refreshed);
            }
        }
    }

    /// An inbound packet was accepted through `slot`.
    #[inline]
    pub(crate) fn translate_in(&mut self, slot: u32, now: SimTime) {
        if let Some(t) = &mut self.tracer {
            if t.sampling_flows() {
                t.on_translate_in(slot, now.as_millis());
            }
        }
    }

    /// An outbound burst of `fill` headers was staged, and its tag-only
    /// probes named `prefetched` candidate rows.
    #[cold]
    #[inline(never)]
    pub(crate) fn burst(&mut self, fill: u64, prefetched: u64) {
        if let Some(m) = &mut self.metrics {
            m.on_burst(fill, prefetched);
        }
    }

    /// The inbound twin of [`Probe::burst`].
    #[cold]
    #[inline(never)]
    pub(crate) fn burst_in(&mut self, fill: u64, prefetched: u64) {
        if let Some(m) = &mut self.metrics {
            m.on_burst_inbound(fill, prefetched);
        }
    }

    /// A sweep scanned the wheel and found `due` mappings to remove.
    #[cold]
    #[inline(never)]
    pub(crate) fn sweep(&mut self, due: u64) {
        if let Some(m) = &mut self.metrics {
            m.sweep_batch.record(due);
        }
    }
}
