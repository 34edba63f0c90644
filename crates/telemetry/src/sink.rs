//! The engine-facing sinks: NAT events in, binary log bytes out.
//!
//! [`BinaryLogSink`] holds a whole run's log in memory (the right
//! shape for analysis and differential tests); [`WriteSink`] streams
//! the identical byte sequence into any `io::Write` instead, so a
//! long run's log need never be resident — the file-backed sink the
//! log-volume study's 75 GiB/day-per-million-subscribers projection
//! calls for. [`BufferedWriteSink`] is the same stream again behind a
//! preallocated grow-once buffer with explicit flush, collapsing the
//! write-per-record pattern into one write per buffer fill.

use crate::codec::EventLog;
use nat_engine::sharded::mix64;
use nat_engine::telemetry::{BlockEvent, EventSink, MappingEvent, TelemetryMode};
use netcore::Protocol;
use std::any::Any;
use std::io::Write;

/// An [`EventSink`] that encodes the events its [`TelemetryMode`]
/// selects into an append-only [`EventLog`]:
///
/// * [`TelemetryMode::PerConnection`] — mapping create/expire pairs
///   (block events ignored): the volume-heavy policy;
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
    log: EventLog,
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
}

impl EventSink for BinaryLogSink {
    fn mapping_created(&mut self, event: &MappingEvent) {
        if self.mode == TelemetryMode::PerConnection {
            self.log
                .map_create(event.at, event.internal.ip, event.proto, event.external);
        }
    }

    fn mapping_expired(&mut self, event: &MappingEvent) {
        if self.mode == TelemetryMode::PerConnection {
            self.log.map_expire(event.at, event.proto, event.external);
        }
    }

    fn block_allocated(&mut self, event: &BlockEvent) {
        if self.mode == TelemetryMode::PerBlock {
            self.log.block_alloc(
                event.at,
                event.subscriber,
                event.proto,
                event.ext_ip,
                event.block_start,
                event.block_len,
            );
        }
    }

    fn block_released(&mut self, event: &BlockEvent) {
        if self.mode == TelemetryMode::PerBlock {
            self.log
                .block_release(event.at, event.proto, event.ext_ip, event.block_start);
        }
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }

    fn volume(&self) -> Option<(u64, u64)> {
        Some((self.log.records(), self.log.len_bytes()))
    }
}

/// NetFlow-style sampled per-connection logging: a 1-in-N decimating
/// wrapper around a per-connection [`BinaryLogSink`]
/// ([`TelemetryMode::Sampled`]). Sampling is **deterministic by flow
/// key** — a hash of the mapping's internal/external endpoints and
/// protocol decides membership — so the create and expire records of a
/// sampled mapping always travel together, the kept subset is
/// reproducible across runs and thread counts, and scaling a measured
/// volume by `N` estimates the full per-connection burden. Block
/// events pass through unsampled (they are already rare); with the
/// per-connection inner mode they encode to nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampledSink {
    one_in: u32,
    inner: BinaryLogSink,
}

impl SampledSink {
    /// Keep one mapping in `one_in` (`1` keeps everything).
    pub fn new(one_in: u32) -> SampledSink {
        assert!(one_in >= 1, "sampling ratio must be at least 1-in-1");
        SampledSink {
            one_in,
            inner: BinaryLogSink::new(TelemetryMode::PerConnection),
        }
    }

    pub fn one_in(&self) -> u32 {
        self.one_in
    }

    pub fn log(&self) -> &EventLog {
        self.inner.log()
    }

    /// Consume the sink, keeping its (sampled) log.
    pub fn into_log(self) -> EventLog {
        self.inner.into_log()
    }

    /// Recover a `SampledSink` from the boxed trait object the engine
    /// hands back (`Nat::take_sink`).
    pub fn from_sink(sink: Box<dyn EventSink>) -> Option<SampledSink> {
        sink.into_any().downcast::<SampledSink>().ok().map(|b| *b)
    }

    /// The sampling decision: stable for a mapping's whole lifetime
    /// because every field of the key is part of the mapping identity.
    fn keep(&self, e: &MappingEvent) -> bool {
        if self.one_in == 1 {
            return true;
        }
        let ips = (u32::from(e.internal.ip) as u64) << 32 | u32::from(e.external.ip) as u64;
        let rest = (e.internal.port as u64) << 32
            | (e.external.port as u64) << 8
            | matches!(e.proto, Protocol::Udp) as u64;
        mix64(ips ^ mix64(rest)) % self.one_in as u64 == 0
    }
}

impl EventSink for SampledSink {
    fn mapping_created(&mut self, event: &MappingEvent) {
        if self.keep(event) {
            self.inner.mapping_created(event);
        }
    }

    fn mapping_expired(&mut self, event: &MappingEvent) {
        if self.keep(event) {
            self.inner.mapping_expired(event);
        }
    }

    fn block_allocated(&mut self, event: &BlockEvent) {
        self.inner.block_allocated(event);
    }

    fn block_released(&mut self, event: &BlockEvent) {
        self.inner.block_released(event);
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }

    fn volume(&self) -> Option<(u64, u64)> {
        self.inner.volume()
    }
}

/// An [`EventSink`] that encodes into any `io::Write` — the
/// streaming sibling of [`BinaryLogSink`]. The encoder state
/// (interned ids, delta-timestamp base) lives in an [`EventLog`]
/// whose byte buffer is drained to the writer after every record, so
/// resident memory stays bounded by one record regardless of run
/// length, and the written stream is **byte-identical** to what
/// [`BinaryLogSink`] would have accumulated (pinned by this module's
/// round-trip test). Decode the stored stream with
/// [`crate::codec::decode_bytes`].
///
/// I/O errors cannot surface through the engine's fire-and-forget
/// event calls, so the sink goes *sticky-failed* on the first error:
/// further records are dropped (counted in
/// [`WriteSink::records_dropped`]) and the error is reported by
/// [`WriteSink::io_error`] / returned by [`WriteSink::finish`].
#[derive(Debug)]
pub struct WriteSink<W: Write + Send + Sync> {
    mode: TelemetryMode,
    enc: EventLog,
    out: W,
    records_written: u64,
    bytes_written: u64,
    records_dropped: u64,
    io_error: Option<std::io::Error>,
}

impl<W: Write + Send + Sync> WriteSink<W> {
    pub fn new(mode: TelemetryMode, out: W) -> WriteSink<W> {
        WriteSink {
            mode,
            enc: EventLog::new(),
            out,
            records_written: 0,
            bytes_written: 0,
            records_dropped: 0,
            io_error: None,
        }
    }

    pub fn mode(&self) -> TelemetryMode {
        self.mode
    }

    /// Records successfully encoded and handed to the writer.
    pub fn records_written(&self) -> u64 {
        self.records_written
    }

    /// Encoded bytes handed to the writer.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Records dropped after the sink went sticky-failed.
    pub fn records_dropped(&self) -> u64 {
        self.records_dropped
    }

    /// The first I/O error, if any.
    pub fn io_error(&self) -> Option<&std::io::Error> {
        self.io_error.as_ref()
    }

    /// Flush the writer and return it, or the first error the sink
    /// swallowed (write-side or flush-side).
    pub fn finish(mut self) -> std::io::Result<W> {
        if let Some(e) = self.io_error {
            return Err(e);
        }
        self.out.flush()?;
        Ok(self.out)
    }

    /// Run `encode` against the encoder, then stream the freshly
    /// encoded bytes to the writer.
    fn record(&mut self, encode: impl FnOnce(&mut EventLog)) {
        if self.io_error.is_some() {
            self.records_dropped += 1;
            return;
        }
        encode(&mut self.enc);
        let len = self.enc.len_bytes();
        match self.enc.drain_into(&mut self.out) {
            Ok(()) => {
                self.records_written += 1;
                self.bytes_written += len;
            }
            Err(e) => {
                self.io_error = Some(e);
                self.records_dropped += 1;
            }
        }
    }
}

/// A fixed-capacity byte buffer in front of any `io::Write`. The
/// buffer is allocated **once** at construction and never grows:
/// writes accumulate until the next write would overflow, at which
/// point the whole buffer drains to the inner writer in a single
/// `write_all`; a chunk larger than the entire buffer bypasses it and
/// writes straight through. The steady-state path is therefore a
/// memcpy into warm memory with no allocator traffic and one inner
/// write per buffer fill instead of one per record.
#[derive(Debug)]
pub struct BufferedWriter<W: Write> {
    buf: Vec<u8>,
    out: W,
    drains: u64,
}

impl<W: Write> BufferedWriter<W> {
    pub fn with_capacity(capacity: usize, out: W) -> BufferedWriter<W> {
        assert!(capacity > 0, "buffer capacity must be non-zero");
        BufferedWriter {
            buf: Vec::with_capacity(capacity),
            out,
            drains: 0,
        }
    }

    /// Buffer-to-writer drains so far (write-through chunks excluded).
    pub fn drains(&self) -> u64 {
        self.drains
    }

    /// Bytes currently held in the buffer.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    fn drain(&mut self) -> std::io::Result<()> {
        if !self.buf.is_empty() {
            self.out.write_all(&self.buf)?;
            self.buf.clear();
            self.drains += 1;
        }
        Ok(())
    }

    /// Drain any buffered bytes and return the inner writer.
    pub fn into_inner(mut self) -> std::io::Result<W> {
        self.drain()?;
        Ok(self.out)
    }
}

impl<W: Write> Write for BufferedWriter<W> {
    fn write(&mut self, chunk: &[u8]) -> std::io::Result<usize> {
        if self.buf.len() + chunk.len() > self.buf.capacity() {
            self.drain()?;
        }
        if chunk.len() > self.buf.capacity() {
            self.out.write_all(chunk)?; // oversized: write through
        } else {
            self.buf.extend_from_slice(chunk);
        }
        Ok(chunk.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.drain()?;
        self.out.flush()
    }
}

/// The buffered variant of [`WriteSink`]: the same event semantics,
/// counters, sticky-error behaviour, and **byte-identical** output
/// stream, but records land in a preallocated grow-once
/// [`BufferedWriter`] instead of being `write_all`'d to the
/// destination one by one — the shape a file- or socket-backed
/// long-run log wants, where a syscall per mapping event would
/// dominate the encoding cost. Nothing reaches the destination until
/// the buffer fills, [`flush`](BufferedWriteSink::flush) is called
/// explicitly, or [`finish`](BufferedWriteSink::finish) drains it.
#[derive(Debug)]
pub struct BufferedWriteSink<W: Write + Send + Sync> {
    inner: WriteSink<BufferedWriter<W>>,
}

impl<W: Write + Send + Sync> BufferedWriteSink<W> {
    /// A sink buffering up to `capacity` encoded bytes in front of
    /// `out`. The buffer is allocated here and never again.
    pub fn new(mode: TelemetryMode, capacity: usize, out: W) -> BufferedWriteSink<W> {
        BufferedWriteSink {
            inner: WriteSink::new(mode, BufferedWriter::with_capacity(capacity, out)),
        }
    }

    pub fn mode(&self) -> TelemetryMode {
        self.inner.mode()
    }

    /// Records successfully encoded into the buffer.
    pub fn records_written(&self) -> u64 {
        self.inner.records_written()
    }

    /// Encoded bytes handed to the buffer.
    pub fn bytes_written(&self) -> u64 {
        self.inner.bytes_written()
    }

    /// Records dropped after the sink went sticky-failed.
    pub fn records_dropped(&self) -> u64 {
        self.inner.records_dropped()
    }

    /// The first I/O error, if any.
    pub fn io_error(&self) -> Option<&std::io::Error> {
        self.inner.io_error()
    }

    /// Bytes currently buffered but not yet written to the
    /// destination.
    pub fn buffered(&self) -> usize {
        self.inner.out.buffered()
    }

    /// Buffer-to-destination drains so far — the number of inner
    /// writes a run actually paid for, versus one per record unbuffered.
    pub fn drains(&self) -> u64 {
        self.inner.out.drains()
    }

    /// Explicitly drain the buffer (and flush the destination), e.g.
    /// at a checkpoint boundary. An error here goes sticky exactly
    /// like a record-time error.
    pub fn flush(&mut self) {
        if self.inner.io_error.is_some() {
            return;
        }
        if let Err(e) = self.inner.out.flush() {
            self.inner.io_error = Some(e);
        }
    }

    /// Drain the buffer, flush the destination, and return it — or
    /// the first error the sink swallowed.
    pub fn finish(self) -> std::io::Result<W> {
        self.inner.finish()?.into_inner()
    }
}

impl<W: Write + Send + Sync + 'static> EventSink for BufferedWriteSink<W> {
    fn mapping_created(&mut self, event: &MappingEvent) {
        self.inner.mapping_created(event);
    }

    fn mapping_expired(&mut self, event: &MappingEvent) {
        self.inner.mapping_expired(event);
    }

    fn block_allocated(&mut self, event: &BlockEvent) {
        self.inner.block_allocated(event);
    }

    fn block_released(&mut self, event: &BlockEvent) {
        self.inner.block_released(event);
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }

    fn volume(&self) -> Option<(u64, u64)> {
        self.inner.volume()
    }
}

impl<W: Write + Send + Sync + 'static> EventSink for WriteSink<W> {
    fn mapping_created(&mut self, event: &MappingEvent) {
        if self.mode == TelemetryMode::PerConnection {
            let e = *event;
            self.record(|enc| enc.map_create(e.at, e.internal.ip, e.proto, e.external));
        }
    }

    fn mapping_expired(&mut self, event: &MappingEvent) {
        if self.mode == TelemetryMode::PerConnection {
            let e = *event;
            self.record(|enc| enc.map_expire(e.at, e.proto, e.external));
        }
    }

    fn block_allocated(&mut self, event: &BlockEvent) {
        if self.mode == TelemetryMode::PerBlock {
            let e = *event;
            self.record(|enc| {
                enc.block_alloc(
                    e.at,
                    e.subscriber,
                    e.proto,
                    e.ext_ip,
                    e.block_start,
                    e.block_len,
                )
            });
        }
    }

    fn block_released(&mut self, event: &BlockEvent) {
        if self.mode == TelemetryMode::PerBlock {
            let e = *event;
            self.record(|enc| enc.block_release(e.at, e.proto, e.ext_ip, e.block_start));
        }
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }

    fn volume(&self) -> Option<(u64, u64)> {
        Some((self.records_written, self.bytes_written))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcore::{ip, Endpoint, Protocol, SimTime};

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

        let mut off = BinaryLogSink::new(TelemetryMode::Off);
        off.mapping_created(&mapping_event(1024));
        off.block_allocated(&block_event());
        assert!(off.log().is_empty());
    }

    /// A streaming sink writes from the encoder's buffer and empties
    /// it: the first record sizes the buffer, and no later record of
    /// the same shape allocates.
    #[test]
    fn streaming_sinks_reuse_the_encode_buffer() {
        let mode = TelemetryMode::PerConnection;
        let mut plain = WriteSink::new(mode, Vec::<u8>::new());
        let mut buffered = BufferedWriteSink::new(mode, 256, Vec::<u8>::new());
        plain.mapping_created(&mapping_event(1024));
        buffered.mapping_created(&mapping_event(1024));
        let sized = (
            plain.enc.buffer_capacity(),
            buffered.inner.enc.buffer_capacity(),
        );
        assert!(sized.0 > 0 && sized.1 > 0, "the first record sized it");
        for port in 1025..3000 {
            plain.mapping_created(&mapping_event(port));
            plain.mapping_expired(&mapping_event(port));
            buffered.mapping_created(&mapping_event(port));
            buffered.mapping_expired(&mapping_event(port));
            let now = (
                plain.enc.buffer_capacity(),
                buffered.inner.enc.buffer_capacity(),
            );
            assert_eq!(now, sized, "after port {port}");
            assert!(plain.enc.is_empty() && buffered.inner.enc.is_empty());
        }
        assert_eq!(plain.records_written(), buffered.records_written());
        assert_eq!(plain.finish().unwrap(), buffered.finish().unwrap());
    }

    /// Sticky-failing writer: errors after `limit` bytes.
    struct FailAfter {
        taken: usize,
        limit: usize,
    }

    impl std::io::Write for FailAfter {
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

    /// The satellite round-trip: a WriteSink's streamed bytes are
    /// byte-identical to the in-memory EventLog a BinaryLogSink
    /// accumulates from the same event sequence, and decode to the
    /// same records.
    #[test]
    fn write_sink_stream_matches_event_log() {
        let mut mem = BinaryLogSink::new(TelemetryMode::PerConnection);
        let mut streamed = WriteSink::new(TelemetryMode::PerConnection, Vec::<u8>::new());
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
        let bytes = streamed.finish().expect("no I/O error");
        assert_eq!(
            bytes.as_slice(),
            mem.log().bytes(),
            "streams byte-identical"
        );
        let records = crate::codec::decode_bytes(&bytes).expect("stream decodes");
        assert_eq!(records, mem.log().decode().expect("log decodes"));
    }

    /// Same equivalence driven through a real engine: logs from a
    /// Nat carrying a WriteSink match a BinaryLogSink run.
    #[test]
    fn write_sink_matches_binary_sink_behind_a_nat() {
        use nat_engine::{Nat, NatConfig};
        use netcore::Packet;

        let run = |sink: Box<dyn EventSink>| -> Nat {
            let mut nat = Nat::new(NatConfig::cgn_default(), vec![ip(198, 51, 100, 1)], 7);
            nat.set_sink(sink);
            for k in 0..40u16 {
                let src = Endpoint::new(ip(100, 64, 0, (k % 8) as u8 + 1), 40_000 + k);
                let dst = Endpoint::new(ip(203, 0, 113, 10), 8000);
                let _ = nat
                    .process_outbound(Packet::udp(src, dst, vec![]), SimTime::from_secs(k as u64));
            }
            nat.sweep(SimTime::from_secs(400));
            nat
        };
        let mut mem_nat = run(Box::new(BinaryLogSink::new(TelemetryMode::PerConnection)));
        let mem = BinaryLogSink::from_sink(mem_nat.take_sink().expect("installed")).expect("type");
        let mut stream_nat = run(Box::new(WriteSink::new(
            TelemetryMode::PerConnection,
            Vec::<u8>::new(),
        )));
        let streamed = stream_nat
            .take_sink()
            .expect("installed")
            .into_any()
            .downcast::<WriteSink<Vec<u8>>>()
            .expect("type");
        let mut buf_nat = run(Box::new(BufferedWriteSink::new(
            TelemetryMode::PerConnection,
            256,
            Vec::<u8>::new(),
        )));
        let buffered = buf_nat
            .take_sink()
            .expect("installed")
            .into_any()
            .downcast::<BufferedWriteSink<Vec<u8>>>()
            .expect("type");
        assert!(mem.log().records() > 0, "the run must log something");
        assert!(
            buffered.drains() < buffered.records_written(),
            "buffering must batch writes"
        );
        let bytes = streamed.finish().expect("no I/O error");
        let buf_bytes = buffered.finish().expect("no I/O error");
        assert_eq!(bytes.as_slice(), mem.log().bytes());
        assert_eq!(buf_bytes, bytes, "buffered stream byte-identical");
        assert_eq!(
            crate::codec::decode_bytes(&bytes).expect("decodes"),
            mem.log().decode().expect("decodes")
        );
    }

    /// The buffered sink's whole point: the same byte stream with far
    /// fewer inner writes, nothing reaching the destination until a
    /// fill or an explicit flush.
    #[test]
    fn buffered_sink_batches_and_flushes_explicitly() {
        let mut mem = BinaryLogSink::new(TelemetryMode::PerConnection);
        let mut buffered = BufferedWriteSink::new(TelemetryMode::PerConnection, 4096, Vec::new());
        for port in 1024u16..1064 {
            let e = mapping_event(port);
            mem.mapping_created(&e);
            buffered.mapping_created(&e);
        }
        assert_eq!(buffered.records_written(), 40);
        assert_eq!(buffered.drains(), 0, "40 small records fit the buffer");
        assert!(buffered.buffered() > 0);
        buffered.flush();
        assert_eq!(buffered.drains(), 1, "explicit flush drains once");
        assert_eq!(buffered.buffered(), 0);
        let bytes = buffered.finish().expect("no I/O error");
        assert_eq!(bytes.as_slice(), mem.log().bytes(), "byte-identical");
    }

    /// A chunk larger than the whole buffer writes straight through —
    /// the buffer never grows past its construction-time capacity.
    #[test]
    fn buffered_writer_writes_through_oversized_chunks() {
        let mut w = BufferedWriter::with_capacity(8, Vec::<u8>::new());
        w.write_all(&[1, 2, 3]).unwrap();
        w.write_all(&[0u8; 20]).unwrap(); // > capacity: drains then bypasses
        assert_eq!(w.buffered(), 0);
        w.write_all(&[4, 5]).unwrap();
        let out = w.into_inner().unwrap();
        let mut expect = vec![1, 2, 3];
        expect.extend_from_slice(&[0u8; 20]);
        expect.extend_from_slice(&[4, 5]);
        assert_eq!(out, expect, "order preserved across the bypass");
    }

    #[test]
    fn buffered_sink_goes_sticky_on_drain_error() {
        let mut s = BufferedWriteSink::new(
            TelemetryMode::PerConnection,
            64,
            FailAfter {
                taken: 0,
                limit: 70,
            },
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
        let mut s = WriteSink::new(TelemetryMode::PerBlock, Vec::<u8>::new());
        s.mapping_created(&mapping_event(1024));
        assert_eq!(s.records_written(), 0, "mapping filtered in PerBlock mode");
        s.block_allocated(&block_event());
        assert_eq!(s.records_written(), 1);
    }

    #[test]
    fn write_sink_goes_sticky_on_io_error() {
        let mut s = WriteSink::new(
            TelemetryMode::PerConnection,
            FailAfter {
                taken: 0,
                limit: 24,
            },
        );
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

    /// Every sampled create has its matching expire: the decision is a
    /// pure function of the flow key, so a mapping is either fully
    /// logged or fully absent — never a dangling half.
    #[test]
    fn sampled_sink_keeps_create_expire_pairs_together() {
        let mut s = SampledSink::new(4);
        for port in 1024u16..1424 {
            s.mapping_created(&mapping_event(port));
        }
        let creates = s.log().records();
        assert!(creates > 0 && creates < 400, "1-in-4 must decimate");
        for port in 1024u16..1424 {
            s.mapping_expired(&mapping_event(port));
        }
        assert_eq!(
            s.log().records(),
            creates * 2,
            "exactly the sampled flows expire into the log"
        );
        let one_in_1 = {
            let mut s = SampledSink::new(1);
            for port in 1024u16..1424 {
                s.mapping_created(&mapping_event(port));
            }
            s.log().records()
        };
        assert_eq!(one_in_1, 400, "1-in-1 keeps everything");
    }

    #[test]
    fn sampled_sink_volume_tracks_inner_log_and_recovers() {
        let mut sink: Box<dyn EventSink> = Box::new(SampledSink::new(1));
        sink.mapping_created(&mapping_event(1024));
        sink.mapping_expired(&mapping_event(1024));
        assert_eq!(
            sink.volume().expect("measures volume").0,
            2,
            "records surface through the trait"
        );
        let back = SampledSink::from_sink(sink).expect("downcast");
        assert_eq!(back.one_in(), 1);
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
