//! The engine-facing log encoder: NAT events in, binary log bytes out.
//!
//! [`BinaryLogSink`] is the one place that decides whether an event is
//! logged (by [`TelemetryMode`]) and the one encode body. It keeps the
//! log in memory as an [`EventLog`] — the right shape for analysis and
//! differential tests. [`RotatingWriteSink`](crate::RotatingWriteSink)
//! wraps the same sink and drains each encoded record to a writer, so
//! both outputs produce the same bytes for the same events.

use crate::codec::EventLog;
use nat_engine::telemetry::{BlockEvent, EventSink, MappingEvent, TelemetryMode};
use std::any::Any;

/// An [`EventSink`] that encodes the events its [`TelemetryMode`]
/// selects into an append-only [`EventLog`]:
///
/// * [`TelemetryMode::PerConnection`] — mapping create/expire pairs
///   (block events ignored): the volume-heavy policy;
/// * [`TelemetryMode::Sampled`] — the create/expire pairs of one
///   mapping in `one_in`, picked by the tracer's flow-key hash
///   ([`MappingEvent::flow_key`]), so a sampled mapping's two records
///   always travel together and scaling the volume by `one_in`
///   estimates the per-connection burden (`one_in = 0` logs nothing);
/// * [`TelemetryMode::PerBlock`] — block allocate/release pairs
///   (mapping events ignored): bulk port-block logging;
/// * [`TelemetryMode::Off`] — records nothing (normally no sink is
///   installed at all in this mode; accepting it keeps callers total).
///
/// One sink per engine shard; the shard's worker thread owns it, so no
/// synchronization is involved and per-shard logs are deterministic
/// for any worker-thread count.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct BinaryLogSink {
    mode: TelemetryMode,
    pub(crate) log: EventLog,
}

impl BinaryLogSink {
    pub fn new(mode: TelemetryMode) -> BinaryLogSink {
        BinaryLogSink {
            mode,
            log: EventLog::new(),
        }
    }

    pub fn mode(&self) -> TelemetryMode {
        self.mode
    }

    pub fn log(&self) -> &EventLog {
        &self.log
    }

    /// Consume the sink, keeping its log.
    pub fn into_log(self) -> EventLog {
        self.log
    }

    /// Recover a `BinaryLogSink` from the boxed trait object the
    /// engine hands back (`Nat::take_sink`).
    pub fn from_sink(sink: Box<dyn EventSink>) -> Option<BinaryLogSink> {
        sink.into_any().downcast::<BinaryLogSink>().ok().map(|b| *b)
    }

    /// Whether the mode logs an event: a mapping event (`Some`) or a
    /// block event (`None`). A sampled mapping's decision depends on
    /// its flow key alone, so its create and expire agree.
    #[inline]
    fn logs(&self, mapping: Option<&MappingEvent>) -> bool {
        match (self.mode, mapping) {
            (TelemetryMode::PerConnection, Some(_)) | (TelemetryMode::PerBlock, None) => true,
            (TelemetryMode::Sampled { one_in }, Some(e)) => e.flow_key().sampled(one_in),
            _ => false,
        }
    }
}

impl EventSink for BinaryLogSink {
    fn mapping_created(&mut self, e: &MappingEvent) {
        if self.logs(Some(e)) {
            self.log
                .map_create(e.at, e.internal.ip, e.proto, e.external);
        }
    }

    fn mapping_expired(&mut self, e: &MappingEvent) {
        if self.logs(Some(e)) {
            self.log.map_expire(e.at, e.proto, e.external);
        }
    }

    fn block_allocated(&mut self, e: &BlockEvent) {
        if self.logs(None) {
            let (start, len) = (e.block_start, e.block_len);
            self.log
                .block_alloc(e.at, e.subscriber, e.proto, e.ext_ip, start, len);
        }
    }

    fn block_released(&mut self, e: &BlockEvent) {
        if self.logs(None) {
            self.log
                .block_release(e.at, e.proto, e.ext_ip, e.block_start);
        }
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }

    fn volume(&self) -> Option<(u64, u64)> {
        Some((self.log.records(), self.log.len_bytes()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rotate::{GenerationFactory, RotatingWriteSink};
    use netcore::{ip, Endpoint, Protocol, SimTime};
    use std::io::{BufWriter, Write};
    use std::sync::{Arc, Mutex};

    fn mapping_event(port: u16) -> MappingEvent {
        MappingEvent {
            at: SimTime::from_secs(1),
            proto: Protocol::Udp,
            internal: Endpoint::new(ip(100, 64, 0, 1), 40_000),
            external: Endpoint::new(ip(198, 51, 100, 1), port),
        }
    }

    fn block_event() -> BlockEvent {
        BlockEvent {
            at: SimTime::from_secs(1),
            proto: Protocol::Udp,
            subscriber: ip(100, 64, 0, 1),
            ext_ip: ip(198, 51, 100, 1),
            block_start: 2048,
            block_len: 512,
        }
    }

    /// An in-memory writer whose bytes and write calls stay readable
    /// after the sink that owns it is gone. Clones share one buffer,
    /// so a factory handing out clones concatenates its generations.
    #[derive(Clone, Default)]
    struct Shared(Arc<Mutex<(Vec<u8>, u64)>>);

    impl Shared {
        fn bytes(&self) -> Vec<u8> {
            self.0.lock().unwrap().0.clone()
        }

        fn writes(&self) -> u64 {
            self.0.lock().unwrap().1
        }
    }

    impl Write for Shared {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let mut inner = self.0.lock().unwrap();
            inner.0.extend_from_slice(buf);
            inner.1 += 1;
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A single uncapped generation: the streaming sink as one plain
    /// `io::Write` stream.
    fn stream<W: Write + Send + Sync>(
        mode: TelemetryMode,
        out: W,
    ) -> RotatingWriteSink<impl GenerationFactory<Writer = W>> {
        let mut out = Some(out);
        RotatingWriteSink::new(mode, u64::MAX, move |_| {
            Ok(out.take().expect("an uncapped sink opens one generation"))
        })
    }

    /// Sticky-failing writer: errors after `limit` bytes.
    struct FailAfter {
        taken: usize,
        limit: usize,
    }

    impl Write for FailAfter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.taken + buf.len() > self.limit {
                return Err(std::io::Error::other("disk full"));
            }
            self.taken += buf.len();
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn mode_selects_what_gets_encoded() {
        let mut per_conn = BinaryLogSink::new(TelemetryMode::PerConnection);
        per_conn.mapping_created(&mapping_event(1024));
        per_conn.block_allocated(&block_event());
        assert_eq!(per_conn.log().records(), 1, "block event filtered out");

        let mut per_block = BinaryLogSink::new(TelemetryMode::PerBlock);
        per_block.mapping_created(&mapping_event(1024));
        per_block.block_allocated(&block_event());
        assert_eq!(per_block.log().records(), 1, "mapping event filtered out");

        let mut every = BinaryLogSink::new(TelemetryMode::Sampled { one_in: 1 });
        every.mapping_created(&mapping_event(1024));
        every.block_allocated(&block_event());
        assert_eq!(every.log().records(), 1, "1-in-1 keeps every mapping only");

        for mode in [TelemetryMode::Off, TelemetryMode::Sampled { one_in: 0 }] {
            let mut none = BinaryLogSink::new(mode);
            none.mapping_created(&mapping_event(1024));
            none.block_allocated(&block_event());
            assert!(none.log().is_empty(), "{mode:?}");
        }
    }

    /// A streaming sink writes from the encoder's buffer and empties
    /// it: the first record sizes the buffer, and no later record of
    /// the same shape allocates — with or without a `BufWriter`.
    #[test]
    fn streaming_sinks_reuse_the_encode_buffer() {
        let mode = TelemetryMode::PerConnection;
        let (plain_out, buffered_out) = (Shared::default(), Shared::default());
        let mut plain = stream(mode, plain_out.clone());
        let mut buffered = stream(mode, BufWriter::with_capacity(256, buffered_out.clone()));
        plain.mapping_created(&mapping_event(1024));
        buffered.mapping_created(&mapping_event(1024));
        let capacities = |a: &RotatingWriteSink<_>, b: &RotatingWriteSink<_>| {
            (a.enc.log.buffer_capacity(), b.enc.log.buffer_capacity())
        };
        let sized = capacities(&plain, &buffered);
        assert!(sized.0 > 0 && sized.1 > 0, "the first record sized it");
        for port in 1025..3000 {
            plain.mapping_created(&mapping_event(port));
            plain.mapping_expired(&mapping_event(port));
            buffered.mapping_created(&mapping_event(port));
            buffered.mapping_expired(&mapping_event(port));
            assert_eq!(capacities(&plain, &buffered), sized, "after port {port}");
            assert!(plain.enc.log.is_empty() && buffered.enc.log.is_empty());
        }
        assert_eq!(plain.records_written(), buffered.records_written());
        plain.finish().expect("no I/O error");
        buffered.finish().expect("no I/O error");
        assert_eq!(plain_out.bytes(), buffered_out.bytes());
    }

    /// The streamed bytes are byte-identical to the in-memory EventLog
    /// a BinaryLogSink accumulates from the same event sequence, and
    /// decode to the same records.
    #[test]
    fn write_sink_stream_matches_event_log() {
        let mut mem = BinaryLogSink::new(TelemetryMode::PerConnection);
        let out = Shared::default();
        let mut streamed = stream(TelemetryMode::PerConnection, out.clone());
        for (k, port) in [1024u16, 2048, 4096, 1024].into_iter().enumerate() {
            let mut e = mapping_event(port);
            e.at = SimTime::from_secs(2 * k as u64 + 1);
            mem.mapping_created(&e);
            streamed.mapping_created(&e);
            e.at = SimTime::from_secs(2 * k as u64 + 2);
            mem.mapping_expired(&e);
            streamed.mapping_expired(&e);
        }
        assert_eq!(streamed.records_written(), 8);
        assert_eq!(streamed.records_dropped(), 0);
        assert_eq!(streamed.bytes_written(), mem.log().len_bytes());
        let generations = streamed.finish().expect("no I/O error");
        assert_eq!(generations.len(), 1, "an uncapped sink never rotates");
        let bytes = out.bytes();
        assert_eq!(bytes, mem.log().bytes(), "streams byte-identical");
        let records = crate::codec::decode_bytes(&bytes).expect("stream decodes");
        assert_eq!(records, mem.log().decode().expect("log decodes"));
    }

    /// Drive `sink` behind a Nat — 40 UDP flows from eight hosts, then
    /// a sweep past their timeout — and hand it back.
    fn behind_a_nat<S: EventSink + 'static>(sink: S) -> S {
        use nat_engine::{Nat, NatConfig};
        use netcore::Packet;

        let mut nat = Nat::new(NatConfig::cgn_default(), vec![ip(198, 51, 100, 1)], 7);
        nat.set_sink(Box::new(sink));
        for k in 0..40u16 {
            let src = Endpoint::new(ip(100, 64, 0, (k % 8) as u8 + 1), 40_000 + k);
            let dst = Endpoint::new(ip(203, 0, 113, 10), 8000);
            let _ =
                nat.process_outbound(Packet::udp(src, dst, vec![]), SimTime::from_secs(k as u64));
        }
        nat.sweep(SimTime::from_secs(400));
        let sink = nat.take_sink().expect("installed").into_any();
        *sink.downcast::<S>().expect("the sink installed above")
    }

    /// Same equivalence driven through a real engine: the plain and the
    /// `BufWriter` stream both match a BinaryLogSink run.
    #[test]
    fn write_sink_matches_binary_sink_behind_a_nat() {
        let mode = TelemetryMode::PerConnection;
        let mem = behind_a_nat(BinaryLogSink::new(mode));
        let (plain_out, buffered_out) = (Shared::default(), Shared::default());
        let plain = behind_a_nat(stream(mode, plain_out.clone()));
        let buffered = behind_a_nat(stream(
            mode,
            BufWriter::with_capacity(256, buffered_out.clone()),
        ));
        assert!(mem.log().records() > 0, "the run must log something");
        assert_eq!(plain_out.writes(), plain.records_written());
        let records = buffered.records_written();
        plain.finish().expect("no I/O error");
        buffered.finish().expect("no I/O error");
        assert!(
            buffered_out.writes() < records,
            "buffering must batch writes"
        );
        let bytes = plain_out.bytes();
        assert_eq!(bytes, mem.log().bytes());
        assert_eq!(
            buffered_out.bytes(),
            bytes,
            "buffered stream byte-identical"
        );
        assert_eq!(
            crate::codec::decode_bytes(&bytes).expect("decodes"),
            mem.log().decode().expect("decodes")
        );
    }

    /// A `BufWriter` generation's whole point: the same byte stream
    /// with far fewer inner writes, nothing reaching the destination
    /// until the buffer fills or `finish` flushes it.
    #[test]
    fn buffered_sink_batches_and_flushes_explicitly() {
        let mut mem = BinaryLogSink::new(TelemetryMode::PerConnection);
        let out = Shared::default();
        let mut buffered = stream(
            TelemetryMode::PerConnection,
            BufWriter::with_capacity(4096, out.clone()),
        );
        for port in 1024u16..1064 {
            let e = mapping_event(port);
            mem.mapping_created(&e);
            buffered.mapping_created(&e);
        }
        assert_eq!(buffered.records_written(), 40);
        assert_eq!(out.writes(), 0, "40 small records fit the buffer");
        buffered.finish().expect("no I/O error");
        assert_eq!(out.writes(), 1, "finish drains the buffer once");
        assert_eq!(out.bytes(), mem.log().bytes(), "byte-identical");
    }

    #[test]
    fn buffered_sink_goes_sticky_on_drain_error() {
        let failing = FailAfter {
            taken: 0,
            limit: 70,
        };
        let mut s = stream(
            TelemetryMode::PerConnection,
            BufWriter::with_capacity(64, failing),
        );
        let mut port = 1024u16;
        while s.io_error().is_none() && port < 2048 {
            s.mapping_created(&mapping_event(port));
            port += 1;
        }
        assert!(s.io_error().is_some(), "second drain must trip the limit");
        let written_at_failure = s.records_written();
        s.mapping_created(&mapping_event(9000));
        assert_eq!(s.records_written(), written_at_failure, "sticky-failed");
        assert!(s.records_dropped() >= 1);
        assert!(s.finish().is_err(), "finish surfaces the error");
    }

    #[test]
    fn write_sink_mode_filters_like_binary_sink() {
        let mut s = stream(TelemetryMode::PerBlock, Vec::<u8>::new());
        s.mapping_created(&mapping_event(1024));
        assert_eq!(s.records_written(), 0, "mapping filtered in PerBlock mode");
        s.block_allocated(&block_event());
        assert_eq!(s.records_written(), 1);
    }

    /// A write error in the middle of a generation makes the sink
    /// sticky-failed: later records are counted as dropped, never
    /// written, and `finish` returns the error.
    #[test]
    fn write_sink_goes_sticky_on_io_error() {
        let failing = FailAfter {
            taken: 0,
            limit: 24,
        };
        let mut s = stream(TelemetryMode::PerConnection, failing);
        let mut port = 1024u16;
        while s.io_error().is_none() && port < 2048 {
            s.mapping_created(&mapping_event(port));
            port += 1;
        }
        assert!(s.io_error().is_some(), "tiny limit must trip");
        let written_at_failure = s.records_written();
        s.mapping_created(&mapping_event(9000));
        assert_eq!(s.records_written(), written_at_failure, "sticky-failed");
        assert!(s.records_dropped() >= 2);
        assert!(s.finish().is_err(), "finish surfaces the error");
    }

    /// `Sampled` works on both outputs: a rotating sink with a tiny cap
    /// writes, across many generations, the very bytes the in-memory
    /// sink holds; and every sampled create has its matching expire —
    /// the decision is a pure function of the flow key, so a mapping is
    /// either fully logged or fully absent, never a dangling half.
    #[test]
    fn sampled_sink_keeps_create_expire_pairs_together() {
        let mode = TelemetryMode::Sampled { one_in: 4 };
        let mut mem = BinaryLogSink::new(mode);
        let out = Shared::default();
        let factory = {
            let out = out.clone();
            move |_| Ok(out.clone())
        };
        let mut rotating = RotatingWriteSink::new(mode, 64, factory);
        for port in 1024u16..1424 {
            mem.mapping_created(&mapping_event(port));
            rotating.mapping_created(&mapping_event(port));
        }
        let creates = mem.log().records();
        assert!(creates > 0 && creates < 400, "1-in-4 must decimate");
        for port in 1024u16..1424 {
            let mut e = mapping_event(port);
            e.at = SimTime::from_secs(2);
            mem.mapping_expired(&e);
            rotating.mapping_expired(&e);
        }
        assert_eq!(
            mem.log().records(),
            creates * 2,
            "exactly the sampled flows expire into the log"
        );
        assert_eq!(rotating.records_written(), creates * 2);
        assert!(rotating.rotations() > 2, "tiny cap must rotate");
        rotating.finish().expect("no I/O error");
        assert_eq!(out.bytes(), mem.log().bytes(), "both outputs agree");
        let records = crate::codec::decode_bytes(&out.bytes()).expect("decodes");
        let ports = |expired: bool| -> Vec<u16> {
            let mut ports: Vec<u16> = records
                .iter()
                .filter_map(|r| match *r {
                    crate::Record::MapCreate { external, .. } if !expired => Some(external.port),
                    crate::Record::MapExpire { external, .. } if expired => Some(external.port),
                    _ => None,
                })
                .collect();
            ports.sort_unstable();
            ports
        };
        assert_eq!(ports(false), ports(true), "every create has its expire");

        let mut every = BinaryLogSink::new(TelemetryMode::Sampled { one_in: 1 });
        for port in 1024u16..1424 {
            every.mapping_created(&mapping_event(port));
        }
        assert_eq!(every.log().records(), 400, "1-in-1 keeps everything");
    }

    #[test]
    fn sampled_sink_volume_tracks_inner_log_and_recovers() {
        let mode = TelemetryMode::Sampled { one_in: 1 };
        let mut sink: Box<dyn EventSink> = Box::new(BinaryLogSink::new(mode));
        sink.mapping_created(&mapping_event(1024));
        sink.mapping_expired(&mapping_event(1024));
        assert_eq!(
            sink.volume().expect("measures volume").0,
            2,
            "records surface through the trait"
        );
        let back = BinaryLogSink::from_sink(sink).expect("downcast");
        assert_eq!(back.mode(), mode);
        assert_eq!(back.into_log().records(), 2);
    }

    #[test]
    fn round_trips_through_the_engine_trait_object() {
        let mut sink: Box<dyn EventSink> =
            Box::new(BinaryLogSink::new(TelemetryMode::PerConnection));
        sink.mapping_created(&mapping_event(1024));
        sink.mapping_expired(&mapping_event(1024));
        let back = BinaryLogSink::from_sink(sink).expect("downcast");
        assert_eq!(back.log().records(), 2);
        assert_eq!(back.mode(), TelemetryMode::PerConnection);
    }
}
