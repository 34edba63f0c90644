//! Size-rotated log output: the `logrotate` shape for campaign-scale
//! CGN event logs.
//!
//! The §6.2 log-volume study projects ~75 GiB/day per million
//! subscribers under per-connection logging — no operator keeps that
//! in one file. [`RotatingWriteSink`] is the [`crate::WriteSink`]
//! family member that cuts the stream into bounded **generations**:
//! when the next record would push the current generation past
//! `max_generation_bytes`, the sink closes it and asks its factory for
//! the next writer (`log.0`, `log.1`, … for file-backed factories).
//!
//! Two properties matter and are pinned by tests:
//!
//! * **Byte identity** — one [`codec::EventLog`](crate::codec)
//!   encoder spans every generation (interned ids and delta
//!   timestamps are *not* reset at a boundary), so the concatenation
//!   of all generations is byte-identical to what a single
//!   [`WriteSink`](crate::WriteSink) would have produced. A
//!   generation is therefore a byte range of one logical stream, like
//!   a rotated syslog fragment — decode the concatenation, not a lone
//!   fragment.
//! * **Record-boundary rotation** — a generation always ends exactly
//!   between two records, never inside one, so re-assembly needs no
//!   byte surgery.
//!
//! Compression is *modeled*, not performed (the offline build has no
//! compressor): closed generations report
//! `bytes × `[`MODELED_COMPRESSION_RATIO`] as their archived size.
//! The constant is a measured property of this codec: the varint +
//! delta-timestamp + interned-id encoding already removes most field
//! redundancy, and what remains (port numbers, timestamp deltas)
//! squeezes to roughly 40% under a generic LZ pass — in line with the
//! compressed-NetFlow ratios operators plan archives around.

use crate::codec::EventLog;
use nat_engine::telemetry::{BlockEvent, EventSink, MappingEvent, TelemetryMode};
use std::any::Any;
use std::fs::File;
use std::io::Write;
use std::path::PathBuf;

/// Modeled archived-size fraction of a closed generation after a
/// generic LZ compression pass over this crate's binary codec (see
/// the module docs for why this is a constant, not a measurement).
pub const MODELED_COMPRESSION_RATIO: f64 = 0.40;

/// Accounting for one closed log generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenerationStats {
    /// Generation index (0-based, in rotation order).
    pub index: u64,
    /// Encoded bytes written into this generation.
    pub bytes: u64,
    /// Records written into this generation.
    pub records: u64,
}

impl GenerationStats {
    /// The modeled archived size of this generation
    /// (`bytes × MODELED_COMPRESSION_RATIO`, rounded up).
    pub fn compressed_bytes_modeled(&self) -> u64 {
        (self.bytes as f64 * MODELED_COMPRESSION_RATIO).ceil() as u64
    }
}

/// Produces the writer of each log generation. Implemented for any
/// `FnMut(u64) -> io::Result<W>` closure; [`FileGenerations`] is the
/// nameable file-backed factory (a concrete type matters when a
/// boxed sink must be recovered from the engine by downcast —
/// closure types cannot be named).
pub trait GenerationFactory: Send + Sync {
    type Writer: Write + Send + Sync;

    /// Open the writer for generation `generation` (0-based).
    fn open(&mut self, generation: u64) -> std::io::Result<Self::Writer>;
}

impl<W, F> GenerationFactory for F
where
    W: Write + Send + Sync,
    F: FnMut(u64) -> std::io::Result<W> + Send + Sync,
{
    type Writer = W;

    fn open(&mut self, generation: u64) -> std::io::Result<W> {
        self(generation)
    }
}

/// File-backed generations: generation `i` lives at `<stem>.<i>`
/// (the classic `access.log.0`, `access.log.1`, … layout), each
/// behind a [`std::io::BufWriter`].
#[derive(Debug, Clone)]
pub struct FileGenerations {
    /// Path stem the generation index is appended to.
    pub stem: PathBuf,
}

impl GenerationFactory for FileGenerations {
    type Writer = std::io::BufWriter<File>;

    fn open(&mut self, generation: u64) -> std::io::Result<Self::Writer> {
        let mut path = self.stem.clone().into_os_string();
        path.push(format!(".{generation}"));
        Ok(std::io::BufWriter::new(File::create(path)?))
    }
}

/// The file-backed rotating sink — nameable, so it can be installed
/// into the engine as a `Box<dyn EventSink>` and recovered by
/// downcast when the run ends.
pub type RotatingFileSink = RotatingWriteSink<FileGenerations>;

impl RotatingFileSink {
    /// A rotating sink writing generations `<stem>.0`, `<stem>.1`, …
    pub fn create(
        mode: TelemetryMode,
        max_generation_bytes: u64,
        stem: impl Into<PathBuf>,
    ) -> RotatingFileSink {
        RotatingWriteSink::new(
            mode,
            max_generation_bytes,
            FileGenerations { stem: stem.into() },
        )
    }
}

/// A size-rotating [`EventSink`] over the [`WriteSink`](crate::WriteSink)
/// family: same event semantics, counters and sticky-error behaviour,
/// but output is cut into bounded generations produced by a
/// [`GenerationFactory`]. See the module docs for the identity and
/// boundary guarantees.
///
/// The factory is called with the generation index (`0` eagerly at
/// construction, then `1, 2, …` at each rotation); a factory error
/// makes the sink sticky-failed exactly like a write error.
pub struct RotatingWriteSink<F: GenerationFactory> {
    mode: TelemetryMode,
    enc: EventLog,
    make: F,
    out: Option<F::Writer>,
    max_generation_bytes: u64,
    generation: u64,
    generation_bytes: u64,
    generation_records: u64,
    closed: Vec<GenerationStats>,
    records_written: u64,
    bytes_written: u64,
    records_dropped: u64,
    io_error: Option<std::io::Error>,
}

impl<F: GenerationFactory> RotatingWriteSink<F> {
    /// A rotating sink whose generations hold at most
    /// `max_generation_bytes` encoded bytes each (a single record
    /// larger than the cap gets a generation of its own — records are
    /// never split). Opens generation 0 eagerly so a sink that logs
    /// nothing still leaves an (empty) artifact behind, like a
    /// freshly provisioned logger.
    pub fn new(mode: TelemetryMode, max_generation_bytes: u64, mut make: F) -> Self {
        assert!(max_generation_bytes > 0, "generation cap must be non-zero");
        let (out, io_error) = match make.open(0) {
            Ok(w) => (Some(w), None),
            Err(e) => (None, Some(e)),
        };
        RotatingWriteSink {
            mode,
            enc: EventLog::new(),
            make,
            out,
            max_generation_bytes,
            generation: 0,
            generation_bytes: 0,
            generation_records: 0,
            closed: Vec::new(),
            records_written: 0,
            bytes_written: 0,
            records_dropped: 0,
            io_error,
        }
    }

    pub fn mode(&self) -> TelemetryMode {
        self.mode
    }

    /// Completed rotations so far (`cgn_log_rotations_total`).
    pub fn rotations(&self) -> u64 {
        self.closed.len() as u64
    }

    /// Accounting for every closed generation, in rotation order.
    pub fn closed_generations(&self) -> &[GenerationStats] {
        &self.closed
    }

    /// Index of the generation currently being written.
    pub fn current_generation(&self) -> u64 {
        self.generation
    }

    /// Bytes written into the current generation so far.
    pub fn current_generation_bytes(&self) -> u64 {
        self.generation_bytes
    }

    /// Records successfully encoded and handed to a writer, across
    /// all generations.
    pub fn records_written(&self) -> u64 {
        self.records_written
    }

    /// Encoded bytes across all generations.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Records dropped after the sink went sticky-failed.
    pub fn records_dropped(&self) -> u64 {
        self.records_dropped
    }

    /// The first I/O error, if any (write, flush, or factory).
    pub fn io_error(&self) -> Option<&std::io::Error> {
        self.io_error.as_ref()
    }

    /// Close the final generation: flush the current writer and return
    /// the stats of **every** generation (the last one included), or
    /// the first error the sink swallowed.
    pub fn finish(mut self) -> std::io::Result<Vec<GenerationStats>> {
        if let Some(e) = self.io_error {
            return Err(e);
        }
        if let Some(out) = self.out.as_mut() {
            out.flush()?;
        }
        let mut all = self.closed;
        all.push(GenerationStats {
            index: self.generation,
            bytes: self.generation_bytes,
            records: self.generation_records,
        });
        Ok(all)
    }

    /// Encode one record and write it to the current generation,
    /// rotating first if it would overflow the cap.
    fn record(&mut self, encode: impl FnOnce(&mut EventLog)) {
        if self.io_error.is_some() {
            self.records_dropped += 1;
            return;
        }
        encode(&mut self.enc);
        let len = self.enc.len_bytes();

        // Rotate between records only: a non-empty generation that
        // cannot take the whole chunk is closed first. An oversized
        // chunk into an empty generation writes anyway — records are
        // never split across generations.
        if self.generation_bytes > 0 && self.generation_bytes + len > self.max_generation_bytes {
            if let Err(e) = self.rotate() {
                self.io_error = Some(e);
                self.records_dropped += 1;
                return;
            }
        }

        let out = self.out.as_mut().expect("writer present unless failed");
        match self.enc.drain_into(out) {
            Ok(()) => {
                self.records_written += 1;
                self.bytes_written += len;
                self.generation_bytes += len;
                self.generation_records += 1;
            }
            Err(e) => {
                self.io_error = Some(e);
                self.records_dropped += 1;
            }
        }
    }

    fn rotate(&mut self) -> std::io::Result<()> {
        if let Some(out) = self.out.as_mut() {
            out.flush()?;
        }
        self.closed.push(GenerationStats {
            index: self.generation,
            bytes: self.generation_bytes,
            records: self.generation_records,
        });
        self.generation += 1;
        self.generation_bytes = 0;
        self.generation_records = 0;
        self.out = Some(self.make.open(self.generation)?);
        Ok(())
    }
}

impl<F: GenerationFactory> std::fmt::Debug for RotatingWriteSink<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RotatingWriteSink")
            .field("mode", &self.mode)
            .field("generation", &self.generation)
            .field("rotations", &self.rotations())
            .field("records_written", &self.records_written)
            .field("bytes_written", &self.bytes_written)
            .finish()
    }
}

impl<F: GenerationFactory + 'static> EventSink for RotatingWriteSink<F>
where
    F::Writer: 'static,
{
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
    use crate::sink::{BinaryLogSink, WriteSink};
    use netcore::{ip, Endpoint, Protocol, SimTime};
    use std::sync::{Arc, Mutex};

    /// A shared vec-of-generations factory: generation `i` writes into
    /// `pages[i]`.
    fn page_factory(
        pages: &Arc<Mutex<Vec<Vec<u8>>>>,
    ) -> impl FnMut(u64) -> std::io::Result<PageWriter> + Send + Sync {
        let pages = Arc::clone(pages);
        move |gen| {
            let mut p = pages.lock().unwrap();
            assert_eq!(gen as usize, p.len(), "generations open in order");
            p.push(Vec::new());
            Ok(PageWriter {
                pages: Arc::clone(&pages),
                index: gen as usize,
            })
        }
    }

    struct PageWriter {
        pages: Arc<Mutex<Vec<Vec<u8>>>>,
        index: usize,
    }

    impl Write for PageWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.pages.lock().unwrap()[self.index].extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn mapping_event(port: u16, at_ms: u64) -> MappingEvent {
        MappingEvent {
            at: SimTime::from_millis(at_ms),
            internal: Endpoint::new(ip(100, 64, 0, 7), port),
            proto: Protocol::Udp,
            external: Endpoint::new(ip(198, 18, 0, 1), port),
        }
    }

    /// Rotations included, the encode buffer the first record sized
    /// serves every later one.
    #[test]
    fn rotating_sink_reuses_the_encode_buffer() {
        let pages = Arc::new(Mutex::new(Vec::new()));
        let mut sink =
            RotatingWriteSink::new(TelemetryMode::PerConnection, 64, page_factory(&pages));
        sink.mapping_created(&mapping_event(10_000, 1_000));
        let sized = sink.enc.buffer_capacity();
        assert!(sized > 0);
        for k in 1..500u16 {
            sink.mapping_created(&mapping_event(10_000 + k, 1_000 + k as u64 * 50));
            assert_eq!(sink.enc.buffer_capacity(), sized, "after record {k}");
            assert!(sink.enc.is_empty());
        }
        assert!(sink.finish().unwrap().len() > 10, "it did rotate");
    }

    /// The headline property: the concatenated generations are
    /// byte-identical to a single-file [`WriteSink`] stream (and to
    /// the in-memory [`BinaryLogSink`]), every rotation happens on a
    /// record boundary, and the per-generation accounting sums to the
    /// whole.
    #[test]
    fn concatenated_generations_are_byte_identical_to_single_stream() {
        let pages = Arc::new(Mutex::new(Vec::new()));
        let mut rotating = RotatingWriteSink::new(
            TelemetryMode::PerConnection,
            64, // tiny cap: force many rotations
            page_factory(&pages),
        );
        let mut single = WriteSink::new(TelemetryMode::PerConnection, Vec::<u8>::new());
        let mut reference = BinaryLogSink::new(TelemetryMode::PerConnection);

        for k in 0..200u16 {
            let at = 1_000 + k as u64 * 50;
            let e = mapping_event(10_000 + k, at);
            rotating.mapping_created(&e);
            single.mapping_created(&e);
            reference.mapping_created(&e);
            if k % 3 == 0 {
                let x = mapping_event(10_000 + k, at + 17);
                rotating.mapping_expired(&x);
                single.mapping_expired(&x);
                reference.mapping_expired(&x);
            }
        }

        assert!(rotating.rotations() > 2, "tiny cap must rotate");
        assert_eq!(rotating.records_written(), single.records_written());
        assert_eq!(rotating.bytes_written(), single.bytes_written());
        let total_records = rotating.records_written();
        let total_bytes = rotating.bytes_written();

        let generations = rotating.finish().expect("no I/O errors");
        let single_bytes = single.finish().expect("no I/O errors");
        let pages = pages.lock().unwrap();
        assert_eq!(pages.len(), generations.len());

        let mut concat = Vec::new();
        for (page, stats) in pages.iter().zip(&generations) {
            assert_eq!(page.len() as u64, stats.bytes);
            assert!(
                stats.bytes <= 64 || stats.records == 1,
                "a generation only exceeds the cap for a single oversized record"
            );
            assert!(
                stats.compressed_bytes_modeled() <= stats.bytes,
                "modeled archive never exceeds the raw bytes"
            );
            concat.extend_from_slice(page);
        }
        assert_eq!(concat, single_bytes, "concatenation == single stream");
        assert_eq!(
            concat,
            reference.log().bytes().to_vec(),
            "…and == the in-memory log"
        );
        assert_eq!(
            generations.iter().map(|g| g.records).sum::<u64>(),
            total_records,
            "per-generation records sum to the whole"
        );
        assert_eq!(
            generations.iter().map(|g| g.bytes).sum::<u64>(),
            total_bytes,
            "per-generation bytes sum to the whole"
        );

        // Record-boundary rotation: every generation prefix decodes —
        // the concatenated stream cut at each boundary is a valid
        // stream prefix.
        let mut prefix = Vec::new();
        for page in pages.iter() {
            prefix.extend_from_slice(page);
            crate::codec::decode_bytes(&prefix)
                .expect("every generation boundary is a record boundary");
        }
    }

    /// A factory error behaves exactly like a write error: the sink
    /// goes sticky-failed, later records are dropped and counted, and
    /// `finish` surfaces the error.
    #[test]
    fn factory_failure_is_sticky() {
        let mut calls = 0u64;
        let mut sink = RotatingWriteSink::new(TelemetryMode::PerConnection, 16, move |_gen| {
            calls += 1;
            if calls > 1 {
                Err(std::io::Error::other("disk full"))
            } else {
                Ok(Vec::<u8>::new())
            }
        });
        for k in 0..50u16 {
            sink.mapping_created(&mapping_event(20_000 + k, 5_000 + k as u64 * 29));
        }
        assert!(sink.io_error().is_some(), "second generation failed");
        assert!(sink.records_dropped() > 0);
        assert!(sink.finish().is_err());
    }
}
