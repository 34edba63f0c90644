//! Slab-backed mapping storage with interned keys and timer-wheel expiry.
//!
//! The engine's original storage was four `std::collections::HashMap`s:
//! mappings by `u64` id, an outbound index keyed by `(Protocol,
//! Endpoint, …)` tuples, an external index keyed by `(Protocol,
//! Endpoint)`, and a reverse `id → key` map for cleanup. At the
//! millions-of-mappings populations a CGN is dimensioned for (§6.2),
//! that layout loses to cache pressure: every packet chases pointers
//! through separately-allocated hash nodes and SipHashes ~24-byte
//! composite keys. [`MappingStore`] replaces all of it with dense
//! storage:
//!
//! * **Slab arena** — mappings live inline in chunked arenas (the
//!   crate-private `arena` module): 2 MiB chunks, each one anonymous
//!   mapping that costs only the pages its rows reach, so growth
//!   appends a chunk instead of reallocating and copying the slab (no
//!   copy storms at CGN populations). Only the first chunk, while it
//!   holds less than a chunkful, is a small allocation that doubles —
//!   a home CPE NAT with ten mappings reserves kilobytes, not two
//!   chunks. Rows are only ever reached by slot id through the
//!   store's own borrows, never by a pointer held across an insert,
//!   so that early movement is invisible. A freed slot goes into an
//!   address-ordered free-set — a hierarchical bitmap, one bit per
//!   slot under summary words — and the next insert reuses the
//!   *lowest* free id, packing live slots toward the front of the
//!   arena for locality. Slot ids are `u32` (half the old `u64` ids)
//!   and index the arena directly — no second hash lookup to reach the
//!   mapping.
//!
//! * **Interned keys** — internal hosts intern to dense `u32` ids
//!   ([`MappingStore::intern_host`]); `(external IP, protocol)` pairs
//!   intern to dense pool ids below 2^16 ([`MappingStore::intern_pool`]).
//!   Per-host state (address, session count, paired-pooling assignment)
//!   lives in a plain `Vec` indexed by host id. The outbound key packs
//!   into one `u128` (layout below), the external key into one `u64`,
//!   and both indices hash those integers with a SplitMix64-based hasher
//!   ([`mix64`]) instead of SipHash over tuples.
//!
//! * **Hot/cold slot split** — the fields every sweep and every
//!   expiry check touch (the expiry, which is its only copy, the timer
//!   ticket, and how far the expiry has run past the parked timer
//!   entry) live in a dense parallel array of 16-byte `HotSlot` rows;
//!   the cold remainder is one 32-byte row, two to a cache line, that
//!   stores each fact of the mapping once: the interned host and pool
//!   ids, the internal and external ports, the contacted endpoints (the
//!   first two inline, the first of them the destination the mapping
//!   was created for) and a flags byte (TCP state, mapping-behaviour
//!   kind, free). The packed keys are not stored: an index verify
//!   re-packs them from the row, the internal address is read from the
//!   host table (one entry per subscriber) and the external address
//!   and protocol from the pool table (one entry per pool address and
//!   protocol). A lookup misses on one line of each row. A sweep walks
//!   only the hot array — a third of the cache traffic of dragging
//!   whole slots through the LLC. Nothing in a hot
//!   row says whether the slot is live: a timer entry is current
//!   exactly when its ticket matches (a free moves the ticket on after
//!   the slot's last filing, and a free slot files nothing), and the
//!   owning host is read from the cold row on the two paths that need
//!   it.
//!
//! * **Open-addressed indices** — the out-key and ext-key maps are
//!   flat linear-probe tables with 8-byte cells (a 32-bit hash tag +
//!   the slot id); full keys are verified against the slab on tag
//!   hits. A probe starts at the cell the tag's low bits name, so a
//!   removal shifts its run back instead of leaving a tombstone, and a
//!   table doubles only when its live entries pass ¾. A table holds no
//!   cells until its first insert, so a NAT that never mapped anything
//!   has allocated nothing for either. Compared to the
//!   previous `HashMap` (16/32-byte entries plus per-group control
//!   metadata), probes touch half the index bytes. A burst overlaps
//!   its misses in two steps: prefetch the line each key's probe
//!   starts on and the line after it, then read the cached cells
//!   with a tag-only probe and [`MappingStore::prefetch_slot`] the
//!   candidate's rows, before any packet is translated. The one cell
//!   no stage can know in advance — the ext-index cell of a port not
//!   yet chosen — is prefetched when the port is, and written a few
//!   creates later ([`MappingStore::insert`]).
//!
//! * **Hierarchical timer wheel** — instead of scanning the whole
//!   table on [`sweep`](MappingStore::sweep_due) (or short-circuiting
//!   on an earliest-expiry watermark, which still paid a full scan
//!   whenever it was passed), every mapping schedules a timer entry in
//!   a 4-level × 64-bucket wheel. A sweep walks only the buckets that
//!   became due, so its cost tracks the number of expiring mappings,
//!   not the table size — and, since it jumps from one occupied bucket
//!   to the next instead of turning tick by tick, not the time since
//!   the last sweep either. A level's bucket table is allocated when
//!   its first entry arrives: an idle NAT's wheel is four empty `Vec`s.
//!   A bucket holds its entries in 4 KiB segments, so a drained CGN
//!   bucket hands back pages rather than one large doubled buffer.
//!
//! # Out-key layout (`u128`)
//!
//! ```text
//! bits   0..16   internal port
//! bits  16..48   interned internal host id (u32)
//! bits  48..64   destination port   (AddressAndPortDependent only)
//! bits  64..96   destination IPv4   (AddressDependent + APD)
//! bits  96..98   mapping-behaviour kind (0 = EIM, 1 = ADM, 2 = APDM)
//! bit   98       protocol (0 = UDP, 1 = TCP)
//! ```
//!
//! # Ext-key layout (`u64`)
//!
//! ```text
//! bits   0..16   external port
//! bits  16..32   interned (external IP, protocol) pool id (< 2^16)
//! ```
//!
//! # Timer-wheel resolution
//!
//! Level `l` covers 64 buckets of `2^shift[l]` milliseconds with
//! `shift = [10, 16, 22, 28]`: ~1 s buckets spanning ~65 s at level 0,
//! then ~65 s / ~70 min / ~3 days buckets above, cascading downward as
//! the wheel turns. Entries are **lazy**: a refresh that *extends* a
//! mapping leaves its entry in place (the entry re-schedules itself to
//! the real expiry when it fires), while a refresh that *shortens* the
//! expiry (a TCP FIN/RST moving a mapping onto the transitory clock)
//! schedules a new, earlier entry and lets the old one die as stale.
//! Stale entries are recognised by a per-slot ticket, bumped on every
//! free and on every filing, so at most one entry per slot is
//! authoritative; a stale one costs one comparison when its bucket is
//! drained or cascaded, and a cascade drops it there. The slot
//! remembers its parked entry's deadline as a lag behind the expiry —
//! zero after every filing, raised only by a lazy extension — so an
//! entry is 8 bytes, a slot id and a ticket: a cascade re-parks a
//! current entry at the deadline the hot row gives back.

use crate::arena::{Arena, ARENA_CHUNK_BYTES};
use crate::config::MappingBehavior;
use crate::wheel::WheelGeometry;
use netcore::{Endpoint, Protocol, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::net::Ipv4Addr;

pub use netcore::hash::{mix64, Mix64Hasher, MixMap};

/// Lifecycle of a tracked TCP connection (simplified RFC 5382 view).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TcpConnState {
    /// SYN seen, handshake incomplete — transitory timeout applies.
    Transitory,
    /// Handshake completed — long established timeout applies.
    Established,
    /// FIN or RST seen — transitory timeout applies again.
    Closing,
}

/// One translation table entry as a caller sees it: who it translates.
/// A by-value view, built on demand from the slot's cold row and the
/// host and pool tables ([`MappingStore::get`],
/// [`MappingStore::iter_live`], [`MappingStore::remove`]); the row
/// itself stores none of these endpoints whole. The filter and TCP
/// state are read through the store's row methods
/// ([`MappingStore::contact`], [`MappingStore::has_contacted`]), and
/// the expiry lives in the slot's hot row ([`MappingStore::expired_at`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mapping {
    pub proto: Protocol,
    /// The subscriber-side endpoint (`IPint:portint`).
    pub internal: Endpoint,
    /// The public-side endpoint (`IPext:portext`).
    pub external: Endpoint,
}

// ---------------------------------------------------------------------------
// Timer wheel
// ---------------------------------------------------------------------------

const WHEEL_LEVELS: usize = 4;
const WHEEL_BUCKETS: usize = 64;
/// Millisecond shift per level: ~1 s, ~65 s, ~70 min, ~3 day buckets.
const WHEEL_SHIFTS: [u32; WHEEL_LEVELS] = [10, 16, 22, 28];
/// The shared placement/cascade arithmetic (see [`crate::wheel`]) at
/// this wheel's shape.
const WHEEL_GEOM: WheelGeometry = WheelGeometry {
    shifts: &WHEEL_SHIFTS,
    buckets: &[WHEEL_BUCKETS as u64; WHEEL_LEVELS],
};

/// One parked expiry: 8 bytes, eight to a cache line.
///
/// The entry is authoritative exactly when `ticket == hot.ticket` for
/// its slot's [`HotSlot`]. The slot's ticket moves on every free and
/// on every filing, and a free slot files nothing, so an entry for a
/// freed or reused slot and an entry superseded by a later filing (a
/// shortening, or a lazy extension re-parked by the sweep) both fail
/// the check; at most one entry can ever expire or reschedule a slot —
/// duplicates (e.g. a shorten followed by an extension back to the old
/// deadline) die stale on it.
///
/// The entry carries no deadline. The bucket it sits in is where that
/// deadline placed it; whoever files it passes the deadline to
/// [`TimerWheel::schedule`], and a cascade reads the current entry's
/// deadline back from the hot row ([`HotSlot::parked_deadline`]) and
/// drops a stale entry on the spot.
#[derive(Debug, Clone, Copy)]
struct TimerEntry {
    slot: u32,
    /// The slot's [`HotSlot::ticket`] when this entry was filed.
    ticket: u32,
}

/// Entries in one bucket segment: 512 of 8 bytes, 4 KiB.
const SEGMENT: usize = 512;

/// One wheel bucket: its entries in filing order, in segments of at
/// most [`SEGMENT`]. The first segment grows by doubling like a plain
/// `Vec`, so a bucket of a few entries costs that `Vec` and one
/// 24-byte segment header; every later one is allocated at exactly
/// [`SEGMENT`] entries, so entry `i` is `segs[i / SEGMENT][i %
/// SEGMENT]`. A CGN bucket of ten thousand entries is twenty 4 KiB
/// segments, not a 128 KiB buffer that doubled on the way there and,
/// drained, leaves glibc's heap fragmented.
#[derive(Debug, Default)]
struct Bucket {
    segs: Vec<Vec<TimerEntry>>,
}

impl Bucket {
    #[inline]
    fn push(&mut self, e: TimerEntry) {
        match self.segs.last_mut() {
            Some(seg) if seg.len() < SEGMENT => seg.push(e),
            Some(_) => {
                let mut seg = Vec::with_capacity(SEGMENT);
                seg.push(e);
                self.segs.push(seg);
            }
            None => {
                self.segs.reserve_exact(1);
                self.segs.push(Vec::new());
                self.segs[0].push(e);
            }
        }
    }

    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.segs.is_empty()
    }

    #[inline]
    fn get(&self, i: usize) -> Option<&TimerEntry> {
        self.segs.get(i / SEGMENT)?.get(i % SEGMENT)
    }

    fn iter(&self) -> impl Iterator<Item = &TimerEntry> {
        self.segs.iter().flatten()
    }

    #[cfg(test)]
    fn reserved_bytes(&self) -> usize {
        self.segs.capacity() * std::mem::size_of::<Vec<TimerEntry>>()
            + self.segs.iter().map(Vec::capacity).sum::<usize>() * std::mem::size_of::<TimerEntry>()
    }
}

/// The expiry wheel: [`WHEEL_LEVELS`] levels of [`WHEEL_BUCKETS`]
/// buckets, costing what it holds.
///
/// * **Per-level tables.** A level's 64 bucket headers are allocated
///   when the first entry lands on that level, so a NAT whose timeouts
///   all fit one or two levels never pays for the others, and one that
///   never mapped anything pays for none.
/// * **Occupancy words.** One `u64` per level, bit `b` set exactly
///   while bucket `b` of that level holds an entry.
/// * **The jump rule.** Turning the wheel does two things with a tick:
///   on a level boundary it cascades the higher-level bucket that
///   boundary names ([`WheelGeometry::cascades`]), and it drains the
///   tick's level-0 bucket. A tick whose level-0 bucket is empty and
///   which cascades no occupied bucket does neither, so
///   [`TimerWheel::next_occupied_tick`] reads the occupancy words for
///   the first tick after the current one that does either, and
///   [`MappingStore::sweep_due`] goes straight there.
/// * **Why skipped ticks change nothing.** All a skipped tick would
///   have done is move the horizon, and the horizon is read in two
///   places only: a cascade re-files entries relative to it, and a
///   drain happens at it. Both happen at visited ticks, which set the
///   horizon themselves first. Nothing is filed while the wheel turns
///   (a sweep defers its re-schedules until it has stopped), so the
///   occupancy the next jump reads is the occupancy the skipped ticks
///   would have found. The hot rows a cascade reads change while the
///   wheel turns only at drains, which happen at visited ticks too.
#[derive(Debug)]
struct TimerWheel {
    /// Virtual time the wheel has been advanced to.
    horizon_ms: u64,
    /// Each level's buckets: empty until an entry lands on the level,
    /// [`WHEEL_BUCKETS`] headers from then on.
    levels: [Vec<Bucket>; WHEEL_LEVELS],
    /// Bit `b` of word `l`: bucket `b` of level `l` is not empty.
    occupied: [u64; WHEEL_LEVELS],
    /// Entries currently parked in buckets (live + stale).
    entries: usize,
    /// Current entries re-distributed downward by cascades since
    /// creation — the wheel's background re-filing work, a pure
    /// function of the deadline stream (one add per moved entry, cheap
    /// enough to count unconditionally). Stale entries a cascade drops
    /// are not counted.
    cascaded: u64,
}

impl TimerWheel {
    fn new() -> Self {
        TimerWheel {
            horizon_ms: 0,
            levels: Default::default(),
            occupied: [0; WHEEL_LEVELS],
            entries: 0,
            cascaded: 0,
        }
    }

    /// Park `e` where `deadline_ms` belongs relative to the current
    /// horizon — the shared [`WheelGeometry::place`] arithmetic
    /// (already-due deadlines park in the horizon's own level-0
    /// bucket; beyond-span deadlines park farthest and re-cascade).
    #[inline]
    fn park(&mut self, e: TimerEntry, deadline_ms: u64) {
        let (level, bucket) = WHEEL_GEOM.place(self.horizon_ms, deadline_ms);
        if self.levels[level].is_empty() {
            self.open_level(level);
        }
        self.levels[level][bucket].push(e);
        self.occupied[level] |= 1 << bucket;
    }

    /// Allocate a level's bucket headers: at most once per level.
    #[cold]
    fn open_level(&mut self, level: usize) {
        self.levels[level].resize_with(WHEEL_BUCKETS, Bucket::default);
    }

    /// Empty one bucket and hand its entries over.
    fn take(&mut self, level: usize, bucket: usize) -> Bucket {
        if self.occupied[level] >> bucket & 1 == 0 {
            return Bucket::default();
        }
        self.occupied[level] &= !(1 << bucket);
        std::mem::take(&mut self.levels[level][bucket])
    }

    /// File a new entry, due at `deadline_ms`.
    #[inline]
    fn schedule(&mut self, e: TimerEntry, deadline_ms: u64) {
        self.park(e, deadline_ms);
        self.entries += 1;
    }

    /// Re-distribute one higher-level bucket downward (called when the
    /// level below wraps around). A current entry is re-parked at the
    /// deadline its hot row keeps for it
    /// ([`HotSlot::parked_deadline`]); a stale one is dropped here
    /// instead of being carried down to a level-0 drain, and is not
    /// counted in `cascaded`. Entries name rows in no order, so the row
    /// [`SWEEP_LOOKAHEAD`] entries on is fetched while this one is
    /// placed, and each segment is freed once it has been read.
    fn cascade(&mut self, level: usize, bucket: usize, hot: &Arena<HotSlot>) {
        let mut segs = self.take(level, bucket).segs.into_iter().peekable();
        while let Some(seg) = segs.next() {
            for (i, e) in seg.iter().enumerate() {
                let ahead = match seg.get(i + SWEEP_LOOKAHEAD) {
                    Some(a) => Some(a),
                    None => segs
                        .peek()
                        .and_then(|next| next.get(i + SWEEP_LOOKAHEAD - seg.len())),
                };
                if let Some(row) = ahead.and_then(|a| hot.get(a.slot as usize)) {
                    prefetch_line(row);
                }
                let row = &hot[e.slot as usize];
                if row.ticket == e.ticket {
                    self.cascaded += 1;
                    self.park(*e, row.parked_deadline());
                } else {
                    self.entries -= 1;
                }
            }
        }
    }

    /// The first level-0 tick after `tick` at which turning the wheel
    /// does anything (see the type docs): level `l`'s bucket `b` is
    /// reached — drained on level 0, cascaded above it — at the ticks
    /// that are a multiple of the level's period with `b` in the next
    /// six bits, so per level this is one rotate of the occupancy word
    /// to the turn after `tick`'s and one `trailing_zeros`.
    fn next_occupied_tick(&self, tick: u64) -> Option<u64> {
        let reached = |level: usize| {
            let period = WHEEL_SHIFTS[level] - WHEEL_SHIFTS[0];
            let turn = (tick >> period) + 1;
            let ahead = self.occupied[level].rotate_right((turn % WHEEL_BUCKETS as u64) as u32);
            (ahead != 0).then(|| (turn + ahead.trailing_zeros() as u64) << period)
        };
        (0..WHEEL_LEVELS).filter_map(reached).min()
    }

    /// Bytes of heap storage currently allocated: bucket headers and
    /// the segments behind them.
    #[cfg(test)]
    fn reserved_bytes(&self) -> usize {
        let headers = self.levels.iter().map(Vec::capacity).sum::<usize>();
        let segments = self
            .levels
            .iter()
            .flatten()
            .map(Bucket::reserved_bytes)
            .sum::<usize>();
        headers * std::mem::size_of::<Bucket>() + segments
    }
}

/// Ask the cache for the line holding `p`. A no-op off x86_64 and
/// under Miri, which has no model of the intrinsic.
#[inline(always)]
fn prefetch_line<T>(p: *const T) {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    // SAFETY: PREFETCHT0 is a hint: it reads and writes no memory the
    // program can observe and cannot fault, whatever address it names.
    unsafe {
        std::arch::x86_64::_mm_prefetch(p as *const i8, std::arch::x86_64::_MM_HINT_T0);
    }
    #[cfg(not(all(target_arch = "x86_64", not(miri))))]
    let _ = p;
}

// ---------------------------------------------------------------------------
// Open-addressed key index
// ---------------------------------------------------------------------------

/// An empty cell: tag 0, slot 0.
const CELL_EMPTY: u64 = 0;

/// Open-addressed `key → slot` index over the store's packed integer
/// keys: one `u64` cell per entry (tag in the high 32 bits, slot id in
/// the low 32), linear probing without tombstones. The tag is the
/// hash's high half, and `0` — empty — is its only reserved value. A
/// probe starts at `tag & mask`, so a cell's home is read from the
/// cell alone: a removal shifts the rest of its run back (Knuth's
/// Algorithm R), and growth re-places cells without the slab.
/// Same-home keys differ in the tag's other `32 − log2(cap)` bits
/// (`grow` asserts `cap <= 1 << 32`); on a tag hit the caller verifies
/// the full key against the slab, so the index stores no keys. One
/// word per cell means a probe hit reads one cache line, not parallel
/// tag and slot arrays. Callers supply the hash — the keys are packed
/// integers, so one [`mix64`] avalanche is the whole hash function.
/// A new table holds no cells: the first insert allocates
/// [`INDEX_FIRST_CELLS`], and every read of an empty table returns at
/// once.
#[derive(Debug)]
struct OpenIndex {
    /// `CELL_EMPTY` or `tag << 32 | slot`; empty, or a power of two
    /// cells long.
    cells: Vec<u64>,
    live: usize,
}

/// Cells a table allocates at its first insert.
const INDEX_FIRST_CELLS: usize = 16;

impl OpenIndex {
    fn new() -> OpenIndex {
        OpenIndex {
            cells: Vec::new(),
            live: 0,
        }
    }

    #[inline]
    fn tag(hash: u64) -> u64 {
        (hash >> 32).max(1)
    }

    /// The cell a probe for `tag` starts at.
    #[inline]
    fn home(&self, tag: u64) -> usize {
        tag as usize & self.mask()
    }

    #[inline]
    fn mask(&self) -> usize {
        self.cells.len() - 1
    }

    /// Bytes of heap storage currently allocated.
    #[cfg(test)]
    fn reserved_bytes(&self) -> usize {
        self.cells.capacity() * std::mem::size_of::<u64>()
    }

    /// Insert a `(hash, slot)` cell. Keys are unique among live
    /// entries by construction — the engine only inserts after a miss
    /// or a removal — so no duplicate scan is needed and the first
    /// empty cell wins. The table doubles when live entries pass ¾.
    fn insert(&mut self, hash: u64, slot: u32) {
        if (self.live + 1) * 4 > self.cells.len() * 3 {
            self.grow();
        }
        self.place(Self::tag(hash) << 32 | slot as u64);
        self.live += 1;
    }

    /// Write `cell` into the first empty cell from its home on.
    #[inline]
    fn place(&mut self, cell: u64) {
        let mask = self.mask();
        let mut i = self.home(cell >> 32);
        while self.cells[i] != CELL_EMPTY {
            i = (i + 1) & mask;
        }
        self.cells[i] = cell;
    }

    /// Find the slot stored under `hash` whose full key matches
    /// (`verify` checks the slab). Probes stop at the first empty cell.
    #[inline]
    fn get(&self, hash: u64, verify: impl Fn(u32) -> bool) -> Option<u32> {
        if self.cells.is_empty() {
            return None;
        }
        let tag = Self::tag(hash);
        let mask = self.mask();
        let mut i = self.home(tag);
        loop {
            let cell = self.cells[i];
            if cell == CELL_EMPTY {
                return None;
            }
            if cell >> 32 == tag && verify(cell as u32) {
                return Some(cell as u32);
            }
            i = (i + 1) & mask;
        }
    }

    /// Prefetch the line a probe for `hash` starts on and the line
    /// after it: a run that starts late in one line, or a removal's
    /// back-shift, goes on into the next.
    #[inline]
    fn prefetch(&self, hash: u64) {
        if self.cells.is_empty() {
            return;
        }
        let i = self.home(Self::tag(hash));
        prefetch_line(&self.cells[i]);
        prefetch_line(&self.cells[(i + 8) & self.mask()]);
    }

    /// Tag-only probe: the slot of the first cell on `hash`'s probe
    /// path that carries its tag, with no key verify — so it reads
    /// index cells only. Returns a slot whenever [`get`] would (the
    /// verified cell is on the same path), but under a tag collision
    /// it may name another key's slot, or one for a key that is not
    /// indexed at all. Good for prefetching, nothing else.
    ///
    /// [`get`]: OpenIndex::get
    #[inline]
    fn hint(&self, hash: u64) -> Option<u32> {
        self.get(hash, |_| true)
    }

    /// Remove the cell holding exactly `slot` under `hash` (slot ids
    /// are unique in the index, so identity is the full-key check),
    /// then shift into the hole each later cell of the run whose home
    /// is not between the hole and itself: no probe path holds a gap.
    fn remove(&mut self, hash: u64, slot: u32) -> bool {
        if self.cells.is_empty() {
            return false;
        }
        let target = Self::tag(hash) << 32 | slot as u64;
        let mask = self.mask();
        let mut hole = self.home(target >> 32);
        while self.cells[hole] != target {
            if self.cells[hole] == CELL_EMPTY {
                return false;
            }
            hole = (hole + 1) & mask;
        }
        let mut i = hole;
        loop {
            i = (i + 1) & mask;
            let cell = self.cells[i];
            if cell == CELL_EMPTY {
                break;
            }
            // Copied even if it stays (no branch): the hole is rewritten.
            self.cells[hole] = cell;
            let home = (cell >> 32) as usize & mask;
            if i.wrapping_sub(home) & mask >= i.wrapping_sub(hole) & mask {
                hole = i;
            }
        }
        self.cells[hole] = CELL_EMPTY;
        self.live -= 1;
        true
    }

    /// Double the table (or allocate its first cells), re-placing
    /// every cell from its tag alone.
    fn grow(&mut self) {
        let cap = (self.cells.len() * 2).max(INDEX_FIRST_CELLS);
        assert!(cap <= 1 << 32, "a cell's home must fit in its 32-bit tag");
        let old = std::mem::replace(&mut self.cells, vec![CELL_EMPTY; cap]);
        for cell in old.into_iter().filter(|&c| c != CELL_EMPTY) {
            self.place(cell);
        }
    }
}

// ---------------------------------------------------------------------------
// Free-set
// ---------------------------------------------------------------------------

/// The free slot ids as a hierarchical bitmap: `levels[0]` holds one
/// bit per slot id, bit `i` of `levels[l + 1]` says word `i` of
/// `levels[l]` is non-zero, and the last level is a single word (four
/// levels cover 16 M slots). [`FreeSet::pop`] hands out the lowest
/// free id — slot ids reach the trace index and telemetry, so that
/// order is part of the engine's observable behaviour — in one
/// `trailing_zeros` per level, where a binary heap would sift through
/// `log2(len)` data-dependent comparisons. One bit per slot rather
/// than four bytes per free id, and nothing is allocated until the
/// first id is pushed.
#[derive(Debug, Default)]
struct FreeSet {
    levels: Vec<Vec<u64>>,
    len: usize,
}

impl FreeSet {
    /// Add `id`, which must not be in the set.
    fn push(&mut self, id: u32) {
        let mut i = id as usize;
        if self.levels.first().map_or(0, Vec::len) * 64 <= i {
            self.grow(i);
        }
        debug_assert_eq!(
            self.levels[0][i / 64] >> (i % 64) & 1,
            0,
            "slot {id} freed twice"
        );
        for words in &mut self.levels {
            let word = &mut words[i / 64];
            let summarised = *word != 0;
            *word |= 1 << (i % 64);
            if summarised {
                break;
            }
            i /= 64;
        }
        self.len += 1;
    }

    /// Remove and return the lowest id.
    fn pop(&mut self) -> Option<u32> {
        if self.len == 0 {
            return None;
        }
        // Descend from the single top word to the lowest id.
        let mut i = 0;
        for words in self.levels.iter().rev() {
            i = i * 64 + words[i].trailing_zeros() as usize;
        }
        let id = i as u32;
        for words in &mut self.levels {
            let word = &mut words[i / 64];
            *word &= !(1 << (i % 64));
            if *word != 0 {
                break;
            }
            i /= 64;
        }
        self.len -= 1;
        Some(id)
    }

    /// Make room for `id`: lengthen every level to cover the one below
    /// and add levels until the top one is a single word again. Bits
    /// keep their positions, so the summaries that exist stay right; a
    /// new level has only the old single top word to summarise.
    fn grow(&mut self, id: usize) {
        let mut words = id / 64 + 1;
        for level in 0.. {
            if level == self.levels.len() {
                let below = level.checked_sub(1).map_or(0, |l| self.levels[l][0]);
                self.levels.push(vec![(below != 0) as u64]);
            }
            self.levels[level].resize(words, 0);
            if words == 1 {
                break;
            }
            words = words.div_ceil(64);
        }
    }
}

// ---------------------------------------------------------------------------
// Interners + slab
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct HostEntry {
    ip: Ipv4Addr,
    /// Mappings currently allocated to this host (live or
    /// stale-but-unswept) — the per-subscriber session counter.
    sessions: u32,
    /// Sticky external-IP assignment for paired pooling.
    paired: Option<Ipv4Addr>,
}

/// The per-slot fields every sweep and expiry check reads, split into
/// a dense parallel array (16 bytes per row, four to a cache line) so
/// those paths never pull the 32-byte cold row through the cache.
#[derive(Debug, Clone, Copy)]
struct HotSlot {
    /// The mapping's expiry in ms — its only copy, written by
    /// [`MappingStore::insert`] and [`MappingStore::set_expiry`]; 0
    /// while the slot is free.
    expiry_ms: u64,
    /// Bumped on every free and every time a timer entry is filed for
    /// this slot. A [`TimerEntry`] is authoritative exactly when it
    /// carries the current ticket: a free stales every parked entry,
    /// and nothing files on a free slot; a filing stales every earlier
    /// entry. An entry parked across 2^32 bumps of its slot would pass
    /// for current: billions of packets to one slot inside one mapping
    /// timeout.
    ticket: u32,
    /// How far `expiry_ms` lies past the deadline of the slot's
    /// authoritative timer entry, which is how
    /// [`MappingStore::set_expiry`] tells a shortening from a lazy
    /// extension, and where a cascade re-parks that entry. Every filing
    /// parks at the current expiry, so only a lazy extension raises it
    /// above 0. Saturates at `u32::MAX` (49 days): an understated lag
    /// overstates the parked deadline, which can only make a later
    /// shortening file an entry it did not need, never skip one it did,
    /// and can only make a cascaded entry fire later than it was filed
    /// for — never earlier, and never past the expiry itself.
    lag: u32,
}

/// Cold remainder of a slot: the mapping's facts, each stored once.
/// One 32-byte, 32-byte-aligned row, two to a cache line: a lookup's
/// verify, refresh and filter check touch a single line of it.
///
/// Everything else about the mapping is derived: the internal address
/// is `hosts[host]`, the external address and the protocol are
/// `pools[pool]`, the packed out-key is re-packed from the kind, the
/// protocol, the host, the internal port and — under ADM and APDM —
/// `contacts[0]` ([`MappingStore::out_key_of`]), and the ext-key is
/// `pool << 16 | external_port`. A free slot has [`FLAG_FREE`] set, no
/// contacts and no spill.
#[derive(Debug)]
#[repr(align(32))]
struct Slot {
    /// Contacts past the two inline ones. Boxed on purpose: one word
    /// in the row where a `Vec` takes three.
    #[allow(clippy::box_collection)]
    spill: Option<Box<Vec<Endpoint>>>,
    /// The first `contacts_len` contacted destinations. `contacts[0]`
    /// is the one the mapping was created for, written by
    /// [`MappingStore::insert`], so the out-key can be re-packed from
    /// the moment the slot is indexed.
    contacts: [Endpoint; CONTACTS_INLINE],
    /// Interned internal-host id.
    host: u32,
    /// Interned `(external IP, protocol)` pool id.
    pool: u16,
    internal_port: u16,
    external_port: u16,
    /// Inline contacts in use: 1 or 2 while live, 0 while free.
    contacts_len: u8,
    /// TCP state ([`FLAG_TCP`]), mapping-behaviour kind
    /// ([`FLAG_KIND_SHIFT`]) and [`FLAG_FREE`].
    flags: u8,
}

const CONTACTS_INLINE: usize = 2;

/// [`Slot::flags`] bits 0..2: `None`, or the [`TcpConnState`] in
/// declaration order from 1.
const FLAG_TCP: u8 = 0b11;
/// [`Slot::flags`] bits 2..4: the out-key's mapping-behaviour kind
/// ([`KIND_EIM`], [`KIND_ADM`] or [`KIND_APDM`]).
const FLAG_KIND_SHIFT: u32 = 2;
/// [`Slot::flags`] bit 4: the slot is free.
const FLAG_FREE: u8 = 1 << 4;

impl Slot {
    #[inline]
    fn is_free(&self) -> bool {
        self.flags & FLAG_FREE != 0
    }

    /// The ext-key the row is indexed under while live.
    #[inline]
    fn ext_key(&self) -> u64 {
        MappingStore::pack_ext(self.pool as u32, self.external_port)
    }

    #[inline]
    fn kind(&self) -> u128 {
        (self.flags >> FLAG_KIND_SHIFT & 0b11) as u128
    }

    #[inline]
    fn tcp(&self) -> Option<TcpConnState> {
        match self.flags & FLAG_TCP {
            0 => None,
            1 => Some(TcpConnState::Transitory),
            2 => Some(TcpConnState::Established),
            _ => Some(TcpConnState::Closing),
        }
    }

    #[inline]
    fn set_tcp(&mut self, state: Option<TcpConnState>) {
        let bits = match state {
            None => 0,
            Some(TcpConnState::Transitory) => 1,
            Some(TcpConnState::Established) => 2,
            Some(TcpConnState::Closing) => 3,
        };
        self.flags = self.flags & !FLAG_TCP | bits;
    }

    fn spilled(&self) -> &[Endpoint] {
        self.spill.as_deref().map_or(&[], Vec::as_slice)
    }

    /// The contacted destinations, inline ones first. A set: the short
    /// sequential scan beats a hash set's random probe at realistic
    /// fan-outs (tens of destinations), and keepalive traffic hits its
    /// own destination in the first cell.
    fn contacts(&self) -> impl Iterator<Item = &Endpoint> {
        self.contacts[..self.contacts_len as usize]
            .iter()
            .chain(self.spilled())
    }

    #[inline]
    fn has_contacted(&self, e: &Endpoint) -> bool {
        self.contacts[..self.contacts_len as usize].contains(e) || self.spilled().contains(e)
    }

    /// Add `e` to the contacts; `true` if it is new.
    #[inline]
    fn contact(&mut self, e: Endpoint) -> bool {
        if self.has_contacted(&e) {
            return false;
        }
        if (self.contacts_len as usize) < CONTACTS_INLINE {
            self.contacts[self.contacts_len as usize] = e;
            self.contacts_len += 1;
        } else {
            self.spill.get_or_insert_with(Box::default).push(e);
        }
        true
    }

    /// Drop the row's contacts — the spill with them — and mark it free.
    fn free(&mut self) {
        self.spill = None;
        self.contacts_len = 0;
        self.flags = FLAG_FREE;
    }
}

// A full chunk of either row is exactly one 2 MiB mapping, with no
// tail a row could not fill.
const _: () = assert!(Arena::<Slot>::CAP * std::mem::size_of::<Slot>() == ARENA_CHUNK_BYTES);
const _: () = assert!(Arena::<HotSlot>::CAP * std::mem::size_of::<HotSlot>() == ARENA_CHUNK_BYTES);
// Two cold rows, eight timer entries and four hot rows to a cache line.
const _: () = assert!(std::mem::size_of::<Slot>() == 32);
const _: () = assert!(std::mem::align_of::<Slot>() == 32);
const _: () = assert!(std::mem::size_of::<TimerEntry>() == 8);
const _: () = assert!(std::mem::size_of::<HotSlot>() == 16);

impl HotSlot {
    /// Move the ticket on and file an entry at the current expiry: the
    /// entry returned is now `slot`'s only authoritative one, ready to
    /// park at `expiry_ms`, and the lag is 0.
    #[inline]
    fn file(&mut self, slot: u32) -> TimerEntry {
        self.ticket = self.ticket.wrapping_add(1);
        self.lag = 0;
        TimerEntry {
            slot,
            ticket: self.ticket,
        }
    }

    /// Deadline of the slot's authoritative timer entry, or later (see
    /// [`HotSlot::lag`]): what a cascade re-parks that entry at.
    #[inline]
    fn parked_deadline(&self) -> u64 {
        self.expiry_ms - self.lag as u64
    }
}

/// Occupancy snapshot of one store — the "how big did the arena get"
/// observable the dimensioning report surfaces next to the port-demand
/// stats. All counters add under [`StoreOccupancy::merge`], so a
/// sharded engine reports the fleet-wide sum.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreOccupancy {
    /// Arena length (high-water mark of concurrent slots).
    pub slots: u64,
    /// Slots holding a live mapping.
    pub live: u64,
    /// Slots on the free-list awaiting reuse.
    pub free: u64,
    /// Internal hosts interned.
    pub hosts_interned: u64,
    /// `(external IP, protocol)` pairs interned.
    pub pools_interned: u64,
    /// Timer-wheel entries parked (live + stale).
    pub timers: u64,
}

impl StoreOccupancy {
    /// Fold another store's occupancy into this one (per-shard sums).
    pub fn merge(&mut self, other: &StoreOccupancy) {
        self.slots += other.slots;
        self.live += other.live;
        self.free += other.free;
        self.hosts_interned += other.hosts_interned;
        self.pools_interned += other.pools_interned;
        self.timers += other.timers;
    }
}

/// How many entries ahead the expiry path prefetches: over a drained
/// wheel bucket in [`MappingStore::sweep_due`], and (twice: rows, then
/// index cells) over the due list in
/// [`MappingStore::prefetch_removals`]. A removal costs a few hundred
/// nanoseconds, a memory miss about one hundred.
const SWEEP_LOOKAHEAD: usize = 8;

/// How many creates an ext-index insert is written behind its prefetch
/// (see [`MappingStore::insert`]): the same arithmetic, a create
/// against a miss, with room for the creates that are refused early.
const EXT_WRITE_BEHIND: usize = 8;

const KIND_EIM: u128 = 0;
const KIND_ADM: u128 = 1;
const KIND_APDM: u128 = 2;

/// The slab-backed mapping store: arena + free-list, interned packed
/// indices, and the expiry timer wheel. See the module docs for the
/// layout.
#[derive(Debug)]
pub struct MappingStore {
    /// Cold rows (each mapping's facts, stored once), parallel to `hot`.
    slots: Arena<Slot>,
    /// Hot rows (expiry, timer ticket, lag behind the parked entry).
    hot: Arena<HotSlot>,
    /// Address-ordered free-list of reusable slot ids: `pop` returns
    /// the lowest free id, so reuse packs live slots toward the front
    /// of the arena and a churning shard's working set stays dense.
    free: FreeSet,
    live: usize,
    wheel: TimerWheel,
    /// Packed out-key (`u128`) → slot id (open-addressed; full keys
    /// verified against the slab).
    out_index: OpenIndex,
    /// Packed ext-key (`u64`) → slot id (open-addressed).
    ext_index: OpenIndex,
    /// Ext-index inserts written behind: `(hash, slot)` of the newest
    /// mappings, oldest first, whose cells have been prefetched but
    /// not yet written (see [`MappingStore::insert`]).
    ext_behind: VecDeque<(u64, u32)>,
    hosts: Vec<HostEntry>,
    host_ids: MixMap<Ipv4Addr, u32>,
    pools: Vec<(Ipv4Addr, Protocol)>,
    pool_ids: MixMap<(Ipv4Addr, Protocol), u32>,
}

impl Default for MappingStore {
    fn default() -> Self {
        Self::new()
    }
}

impl MappingStore {
    pub fn new() -> Self {
        MappingStore {
            slots: Arena::new(),
            hot: Arena::new(),
            free: FreeSet::default(),
            live: 0,
            wheel: TimerWheel::new(),
            out_index: OpenIndex::new(),
            ext_index: OpenIndex::new(),
            ext_behind: VecDeque::new(),
            hosts: Vec::new(),
            host_ids: MixMap::default(),
            pools: Vec::new(),
            pool_ids: MixMap::default(),
        }
    }

    /// Live mappings.
    pub fn len(&self) -> usize {
        self.live
    }

    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    // -- interners ---------------------------------------------------------

    /// Intern an internal host address to its dense id.
    pub fn intern_host(&mut self, ip: Ipv4Addr) -> u32 {
        if let Some(&id) = self.host_ids.get(&ip) {
            return id;
        }
        let id = u32::try_from(self.hosts.len()).expect("more than 2^32 internal hosts");
        self.hosts.push(HostEntry {
            ip,
            sessions: 0,
            paired: None,
        });
        self.host_ids.insert(ip, id);
        id
    }

    /// The interned address of a host id.
    pub fn host_ip(&self, host: u32) -> Ipv4Addr {
        self.hosts[host as usize].ip
    }

    /// Current session count (live + stale-unswept mappings) of a host.
    pub fn host_sessions(&self, host: u32) -> u32 {
        self.hosts[host as usize].sessions
    }

    /// Sticky paired-pooling external IP of a host, if assigned.
    pub fn paired_ext(&self, host: u32) -> Option<Ipv4Addr> {
        self.hosts[host as usize].paired
    }

    pub fn set_paired_ext(&mut self, host: u32, ext: Ipv4Addr) {
        self.hosts[host as usize].paired = Some(ext);
    }

    /// Intern an `(external IP, protocol)` pair to its dense pool id.
    pub fn intern_pool(&mut self, ip: Ipv4Addr, proto: Protocol) -> u32 {
        if let Some(&id) = self.pool_ids.get(&(ip, proto)) {
            return id;
        }
        let id = self.pools.len() as u32;
        assert!(id < (1 << 16), "pool id must fit a cold row's 16 bits");
        self.pools.push((ip, proto));
        self.pool_ids.insert((ip, proto), id);
        id
    }

    /// The `(external IP, protocol)` pair behind a pool id.
    pub fn pool_entry(&self, pool: u32) -> (Ipv4Addr, Protocol) {
        self.pools[pool as usize]
    }

    /// Number of interned `(external IP, protocol)` pairs.
    pub fn pool_count(&self) -> usize {
        self.pools.len()
    }

    // -- key packing -------------------------------------------------------

    /// Pack the outbound-reuse key for a flow, shaped by the mapping
    /// behaviour. Interns the internal host.
    pub fn out_key(
        &mut self,
        behavior: MappingBehavior,
        proto: Protocol,
        internal: Endpoint,
        dst: Endpoint,
    ) -> u128 {
        let host = self.intern_host(internal.ip);
        let kind = match behavior {
            MappingBehavior::EndpointIndependent => KIND_EIM,
            MappingBehavior::AddressDependent => KIND_ADM,
            MappingBehavior::AddressAndPortDependent => KIND_APDM,
        };
        Self::pack_out(kind, proto, host, internal.port, dst)
    }

    /// The out-key layout (module docs): `dst` counts for its address
    /// under ADM and for its whole endpoint under APDM.
    #[inline]
    fn pack_out(kind: u128, proto: Protocol, host: u32, port: u16, dst: Endpoint) -> u128 {
        let proto_bit = match proto {
            Protocol::Udp => 0u128,
            Protocol::Tcp => 1u128,
        };
        let dst_ip = (u32::from(dst.ip) as u128) << 64;
        let dst = match kind {
            KIND_EIM => 0,
            KIND_ADM => dst_ip,
            _ => dst_ip | (dst.port as u128) << 48,
        };
        proto_bit << 98 | kind << 96 | dst | (host as u128) << 16 | port as u128
    }

    /// The out-key a live row is indexed under, re-packed from the row.
    #[inline]
    fn out_key_of(&self, row: &Slot) -> u128 {
        let proto = self.pools[row.pool as usize].1;
        Self::pack_out(
            row.kind(),
            proto,
            row.host,
            row.internal_port,
            row.contacts[0],
        )
    }

    /// The interned internal-host id packed inside an out-key.
    pub fn host_of_key(key: u128) -> u32 {
        ((key >> 16) & 0xFFFF_FFFF) as u32
    }

    fn pack_ext(pool: u32, port: u16) -> u64 {
        (pool as u64) << 16 | port as u64
    }

    /// Index hash of a packed out-key: fold both halves through one
    /// [`mix64`] avalanche each.
    #[inline]
    fn hash_out(key: u128) -> u64 {
        mix64(key as u64 ^ mix64((key >> 64) as u64))
    }

    /// Index hash of a packed ext-key.
    #[inline]
    fn hash_ext(key: u64) -> u64 {
        mix64(key)
    }

    // -- lookups -----------------------------------------------------------

    /// Slot currently indexed under a packed out-key.
    pub fn lookup_out(&self, key: u128) -> Option<u32> {
        self.out_index.get(Self::hash_out(key), |s| {
            self.out_key_of(&self.slots[s as usize]) == key
        })
    }

    /// Slot owning an external endpoint for a protocol. Never interns:
    /// a stray inbound endpoint that was never allocated stays out of
    /// the pool interner.
    pub fn lookup_ext(&self, proto: Protocol, external: Endpoint) -> Option<u32> {
        self.ext_key_of(proto, external)
            .and_then(|key| self.lookup_ext_key(key))
    }

    /// Pack an external endpoint into its ext-key, if its `(IP,
    /// protocol)` pool was ever interned. Never interns — a stray
    /// endpoint stays out of the pool interner and returns `None` —
    /// and performs no index probe, so the inbound burst pipeline can
    /// derive a whole burst's keys in one branch-free pass before
    /// probing any of them.
    #[inline]
    pub fn ext_key_of(&self, proto: Protocol, external: Endpoint) -> Option<u64> {
        let pool = *self.pool_ids.get(&(external.ip, proto))?;
        Some(Self::pack_ext(pool, external.port))
    }

    /// Slot currently indexed under an already-packed ext-key (from
    /// [`MappingStore::ext_key_of`]) — or about to be: an insert still
    /// written behind counts, so a lookup is right whenever it is
    /// made. The inbound path only ever finds that queue empty.
    #[inline]
    pub fn lookup_ext_key(&self, key: u64) -> Option<u32> {
        let hash = Self::hash_ext(key);
        let holds_key = |s: u32| self.slots[s as usize].ext_key() == key;
        self.ext_index.get(hash, holds_key).or_else(|| {
            let mut behind = self.ext_behind.iter();
            behind.find_map(|&(h, s)| (h == hash && holds_key(s)).then_some(s))
        })
    }

    /// Hot-array expiry check for a live slot — the burst pipeline's
    /// reuse test, touching one 16-byte row instead of the cold
    /// mapping.
    #[inline]
    pub fn expired_at(&self, slot: u32, now: SimTime) -> bool {
        self.hot[slot as usize].expiry_ms <= now.as_millis()
    }

    /// Burst stage 1, outbound: prefetch the out-index cell the probe
    /// for `key` starts at.
    #[inline]
    pub fn prefetch_out_cell(&self, key: u128) {
        self.out_index.prefetch(Self::hash_out(key));
    }

    /// Burst stage 1, inbound: prefetch the ext-index cell the probe
    /// for `key` starts at.
    #[inline]
    pub fn prefetch_ext_cell(&self, key: u64) {
        self.ext_index.prefetch(Self::hash_ext(key));
    }

    /// Burst stage 2, outbound: the slot a tag-only probe of the
    /// out-index finds for `key`. Reads index cells only, never the
    /// slab, so it does not wait on a cold row — and is therefore
    /// unverified: it names a slot whenever
    /// [`MappingStore::lookup_out`] does, but under a fingerprint
    /// collision possibly a different one. Feed it to
    /// [`MappingStore::prefetch_slot`] and nothing else.
    #[inline]
    pub fn hint_out(&self, key: u128) -> Option<u32> {
        self.out_index.hint(Self::hash_out(key))
    }

    /// Burst stage 2, inbound: the ext-index twin of
    /// [`MappingStore::hint_out`]. Reads the index alone, so it is
    /// for use between engine calls, when nothing is written behind.
    #[inline]
    pub fn hint_ext(&self, key: u64) -> Option<u32> {
        debug_assert!(self.ext_behind.is_empty(), "hint taken inside a create run");
        self.ext_index.hint(Self::hash_ext(key))
    }

    /// Prefetch the whole of a slot's rows: one line each. The 16-byte
    /// hot rows pack four to a line and the 32-byte cold rows two, in
    /// a full (page-aligned) chunk and in a still-small chunk 0 alike
    /// (its allocation is aligned to the row), so neither row straddles
    /// two lines. A hint only: any slot id is accepted, out-of-range
    /// ones are ignored.
    #[inline]
    pub fn prefetch_slot(&self, slot: u32) {
        if let (Some(hot), Some(cold)) =
            (self.hot.get(slot as usize), self.slots.get(slot as usize))
        {
            prefetch_line(hot);
            prefetch_line(cold);
        }
    }

    /// Look-ahead for a caller that removes the slots of `due` in
    /// order and is about to remove `due[i]`: prefetch the rows of the
    /// slot `2 * SWEEP_LOOKAHEAD` places on, and — from the keys in
    /// the cold row fetched that way `SWEEP_LOOKAHEAD` removals ago —
    /// the two index cells [`MappingStore::remove`] will clear for the
    /// slot `SWEEP_LOOKAHEAD` places on, each with the line after it,
    /// where the clear shifts the rest of the cell's run back.
    #[inline]
    pub fn prefetch_removals(&self, due: &[u32], i: usize) {
        if let Some(&slot) = due.get(i + 2 * SWEEP_LOOKAHEAD) {
            self.prefetch_slot(slot);
        }
        if let Some(&slot) = due.get(i + SWEEP_LOOKAHEAD) {
            let cold = &self.slots[slot as usize];
            self.out_index
                .prefetch(Self::hash_out(self.out_key_of(cold)));
            self.ext_index.prefetch(Self::hash_ext(cold.ext_key()));
        }
    }

    /// A live slot's cold row. Panics on a freed slot id.
    #[inline]
    fn live(&self, slot: u32) -> &Slot {
        let row = &self.slots[slot as usize];
        assert!(!row.is_free(), "slot is free");
        row
    }

    /// [`MappingStore::live`], mutably.
    #[inline]
    fn live_mut(&mut self, slot: u32) -> &mut Slot {
        let row = &mut self.slots[slot as usize];
        assert!(!row.is_free(), "slot is free");
        row
    }

    /// The view of a live row.
    fn view(&self, row: &Slot) -> Mapping {
        let (ext_ip, proto) = self.pools[row.pool as usize];
        Mapping {
            proto,
            internal: Endpoint::new(self.hosts[row.host as usize].ip, row.internal_port),
            external: Endpoint::new(ext_ip, row.external_port),
        }
    }

    /// A live mapping, by value. Panics on a freed slot id.
    pub fn get(&self, slot: u32) -> Mapping {
        self.view(self.live(slot))
    }

    /// A live mapping's subscriber-side endpoint.
    #[inline]
    pub fn internal(&self, slot: u32) -> Endpoint {
        let row = self.live(slot);
        Endpoint::new(self.hosts[row.host as usize].ip, row.internal_port)
    }

    /// A live mapping's public-side endpoint.
    #[inline]
    pub fn external(&self, slot: u32) -> Endpoint {
        let row = self.live(slot);
        Endpoint::new(self.pools[row.pool as usize].0, row.external_port)
    }

    /// A live mapping's TCP state (`None` until a segment is tracked).
    #[inline]
    pub(crate) fn tcp(&self, slot: u32) -> Option<TcpConnState> {
        self.live(slot).tcp()
    }

    #[inline]
    pub(crate) fn set_tcp(&mut self, slot: u32, state: Option<TcpConnState>) {
        self.live_mut(slot).set_tcp(state);
    }

    /// Whether a live mapping has contacted exactly `e` — the filter
    /// check of address-and-port-dependent filtering.
    #[inline]
    pub fn has_contacted(&self, slot: u32, e: &Endpoint) -> bool {
        self.live(slot).has_contacted(e)
    }

    /// Whether a live mapping has contacted any endpoint at `ip` — the
    /// filter check of address-dependent filtering.
    #[inline]
    pub fn has_contacted_ip(&self, slot: u32, ip: Ipv4Addr) -> bool {
        self.live(slot).contacts().any(|e| e.ip == ip)
    }

    /// Add `e` to a live mapping's contacted destinations (a set);
    /// `true` if it is new.
    #[inline]
    pub fn contact(&mut self, slot: u32, e: Endpoint) -> bool {
        self.live_mut(slot).contact(e)
    }

    /// Iterate `(slot id, mapping)` over live slots in arena order.
    pub fn iter_live(&self) -> impl Iterator<Item = (u32, Mapping)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, row)| !row.is_free())
            .map(|(i, row)| (i as u32, self.view(row)))
    }

    // -- mutation ----------------------------------------------------------

    /// Insert a mapping under its packed out-key (from
    /// [`MappingStore::out_key`], which interned its host), for a flow
    /// to `dst`, on `external_port` of the pool `pool` — the interned id
    /// of its `(IP, protocol)` ([`MappingStore::intern_pool`]) — and
    /// schedule `expiry` on the timer wheel; the slot's hot row keeps
    /// the expiry. `dst` becomes the mapping's first contact, which is
    /// what lets the row re-pack `out_key` (debug-asserted). Returns
    /// the slot id. Increments the owning host's session counter.
    ///
    /// The ext-index half is **written behind**: the external port is
    /// news to this call, so nothing could prefetch its index cell any
    /// earlier, and writing it now would stall on that miss. Instead
    /// the cell is prefetched and `(hash, slot)` queued, and the write
    /// happens `EXT_WRITE_BEHIND` inserts later or at
    /// [`MappingStore::flush_ext_index`], whichever comes first — a
    /// run of creates overlaps its ext-cell misses the way a burst's
    /// out-cell misses already overlap. Who may read the ext index
    /// when: [`MappingStore::lookup_ext_key`] also searches the queue;
    /// [`MappingStore::remove`] flushes it first, which keeps the
    /// index going through exactly the inserts and removes, in
    /// exactly the order, it would without the queue; growth happens
    /// inside the deferred insert itself; [`MappingStore::hint_ext`]
    /// reads the index alone and asserts the queue empty. The engine
    /// flushes before each of its entry points returns.
    pub fn insert(
        &mut self,
        out_key: u128,
        pool: u32,
        external_port: u16,
        dst: Endpoint,
        expiry: SimTime,
    ) -> u32 {
        let host = Self::host_of_key(out_key);
        let ext_key = Self::pack_ext(pool, external_port);
        let ext_hash = Self::hash_ext(ext_key);
        self.ext_index.prefetch(ext_hash);
        let row = Slot {
            spill: None,
            contacts: [dst; CONTACTS_INLINE],
            host,
            pool: pool as u16,
            internal_port: out_key as u16,
            external_port,
            contacts_len: 1,
            flags: ((out_key >> 96) as u8 & 0b11) << FLAG_KIND_SHIFT,
        };
        debug_assert_eq!(self.out_key_of(&row), out_key, "dst is not the key's");
        let expiry_ms = expiry.as_millis();
        let slot = match self.free.pop() {
            Some(s) => {
                self.hot[s as usize].expiry_ms = expiry_ms;
                self.slots[s as usize] = row;
                s
            }
            None => {
                let s = u32::try_from(self.slots.len()).expect("more than 2^32 mapping slots");
                self.hot.push(HotSlot {
                    expiry_ms,
                    ticket: 0,
                    lag: 0,
                });
                self.slots.push(row);
                s
            }
        };
        let e = self.hot[slot as usize].file(slot);
        self.wheel.schedule(e, expiry_ms);
        self.out_index.insert(Self::hash_out(out_key), slot);
        self.ext_behind.push_back((ext_hash, slot));
        self.write_ext_behind(EXT_WRITE_BEHIND);
        self.hosts[host as usize].sessions += 1;
        self.live += 1;
        slot
    }

    /// Perform the oldest ext-index inserts written behind until at
    /// most `keep` are left.
    #[inline]
    fn write_ext_behind(&mut self, keep: usize) {
        while self.ext_behind.len() > keep {
            let (hash, slot) = self.ext_behind.pop_front().expect("longer than `keep`");
            self.ext_index.insert(hash, slot);
        }
    }

    /// Perform every ext-index insert still written behind (see
    /// [`MappingStore::insert`]), oldest first.
    #[inline]
    pub fn flush_ext_index(&mut self) {
        self.write_ext_behind(0);
    }

    /// Remove a mapping: drop it from both indices, decrement its
    /// host's session counter, free the slot (dropping its contacts,
    /// and bumping the ticket so parked timer entries die stale), and
    /// return the mapping plus the pool id its external port came from
    /// (for the caller's port release). `None` if the slot is free.
    pub fn remove(&mut self, slot: u32) -> Option<(Mapping, u32)> {
        self.flush_ext_index();
        let cold = &self.slots[slot as usize];
        if cold.is_free() {
            return None;
        }
        let mapping = self.view(cold);
        let (out_key, ext_key) = (self.out_key_of(cold), cold.ext_key());
        let (host, pool) = (cold.host, cold.pool as u32);
        self.slots[slot as usize].free();
        let hot = &mut self.hot[slot as usize];
        hot.ticket = hot.ticket.wrapping_add(1);
        hot.expiry_ms = 0;
        self.out_index.remove(Self::hash_out(out_key), slot);
        self.ext_index.remove(Self::hash_ext(ext_key), slot);
        let sessions = &mut self.hosts[host as usize].sessions;
        *sessions = sessions.saturating_sub(1);
        self.free.push(slot);
        self.live -= 1;
        Some((mapping, pool))
    }

    /// Set a mapping's expiry, keeping the timer wheel honest: an
    /// extension is lazy (the parked entry re-schedules itself when it
    /// fires), a shortening files a new earlier entry and invalidates
    /// the parked one.
    pub fn set_expiry(&mut self, slot: u32, expiry: SimTime) {
        let ms = expiry.as_millis();
        assert!(!self.slots[slot as usize].is_free(), "slot is free");
        let hot = &mut self.hot[slot as usize];
        let parked = hot.parked_deadline();
        hot.expiry_ms = ms;
        if ms < parked {
            let e = hot.file(slot);
            self.wheel.schedule(e, ms);
        } else {
            hot.lag = u32::try_from(ms - parked).unwrap_or(u32::MAX);
        }
    }

    /// Advance the timer wheel to `now` and collect the slots whose
    /// mappings are due. Returns `(entries inspected, due slots)`; the
    /// caller must [`remove`](MappingStore::remove) every due slot.
    /// Sweeps that inspect zero entries did no per-mapping work — the
    /// fast path the `sweep_scans` counter measures. The wheel is not
    /// turned tick by tick: from each tick it jumps to the next one
    /// with anything to drain or cascade (the rule, and why the ticks
    /// skipped change nothing, is on the private `TimerWheel`), so an
    /// idle hour costs an idle table a few word reads.
    pub fn sweep_due(&mut self, now: SimTime) -> (usize, Vec<u32>) {
        self.sweep_stepping(now, TimerWheel::next_occupied_tick)
    }

    /// The tick-by-tick wheel [`MappingStore::sweep_due`] must be
    /// indistinguishable from: every tick is visited, occupied or not.
    #[cfg(test)]
    fn sweep_due_by_ticks(&mut self, now: SimTime) -> (usize, Vec<u32>) {
        self.sweep_stepping(now, |_, tick| Some(tick + 1))
    }

    /// [`MappingStore::sweep_due`], visiting the ticks `next` names:
    /// given the wheel and the tick just drained, the tick to turn to.
    #[inline]
    fn sweep_stepping(
        &mut self,
        now: SimTime,
        next: impl Fn(&TimerWheel, u64) -> Option<u64>,
    ) -> (usize, Vec<u32>) {
        let now_ms = now.as_millis();
        let mut due = Vec::new();
        if self.wheel.entries == 0 {
            // Nothing scheduled: jump the horizon without turning.
            self.wheel.horizon_ms = self.wheel.horizon_ms.max(now_ms);
            return (0, due);
        }
        if now_ms < self.wheel.horizon_ms {
            return (0, due);
        }
        let mut inspected = 0usize;
        // Re-filings deferred until the wheel stops: each entry with
        // the expiry it is to park at.
        let mut resched: Vec<(TimerEntry, u64)> = Vec::new();
        let mut tick = self.wheel.horizon_ms >> WHEEL_SHIFTS[0];
        let end = now_ms >> WHEEL_SHIFTS[0];
        loop {
            let drained = self.wheel.take(0, tick as usize % WHEEL_BUCKETS);
            for (i, e) in drained.iter().enumerate() {
                self.wheel.entries -= 1;
                inspected += 1;
                // Pure hot-array pass: stale check, expiry check, and
                // lazy rescheduling all read the 16-byte row — the
                // cold slot is never touched during a sweep. Entries
                // name rows in no order, so the row a few entries on
                // is fetched while this one is judged.
                let ahead = drained.get(i + SWEEP_LOOKAHEAD);
                if let Some(hot) = ahead.and_then(|e| self.hot.get(e.slot as usize)) {
                    prefetch_line(hot);
                }
                let hot = &mut self.hot[e.slot as usize];
                if hot.ticket != e.ticket {
                    continue; // stale: freed, reused, or superseded entry
                }
                if hot.expiry_ms <= now_ms {
                    due.push(e.slot);
                } else {
                    // Lazily-extended mapping: park at the real expiry.
                    // The ticket moves on immediately so any other
                    // parked entry for this slot is already stale; the
                    // wheel insert is deferred until the ticks have
                    // finished turning.
                    resched.push((hot.file(e.slot), hot.expiry_ms));
                }
            }
            match next(&self.wheel, tick) {
                Some(t) if t <= end => tick = t,
                _ => break,
            }
            self.wheel.horizon_ms = tick << WHEEL_SHIFTS[0];
            // Crossing into a new bucket: cascade every level that
            // wrapped, highest first so entries settle downward
            // (the shared schedule of [`WheelGeometry::cascades`]).
            for (level, bucket) in WHEEL_GEOM.cascades(tick) {
                self.wheel.cascade(level, bucket, &self.hot);
            }
        }
        self.wheel.horizon_ms = now_ms;
        for (e, deadline_ms) in resched {
            self.wheel.schedule(e, deadline_ms);
        }
        (inspected, due)
    }

    // -- read paths --------------------------------------------------------

    /// Unexpired-mapping counts per internal host at `now`, in host
    /// interning order, hosts with zero live mappings omitted — the
    /// allocation-free demand-sampling path of the traffic driver
    /// (the values of `Nat::ports_by_host` without the address map).
    pub fn active_ports_per_host(&self, now: SimTime) -> Vec<u32> {
        let now_ms = now.as_millis();
        let mut counts = vec![0u32; self.hosts.len()];
        // A free slot's expiry is 0, so the hot-array expiry check
        // alone picks out the live, unexpired slots; only those read
        // their host from the cold row.
        for (hot, cold) in self.hot.iter().zip(self.slots.iter()) {
            if hot.expiry_ms > now_ms {
                counts[cold.host as usize] += 1;
            }
        }
        counts.retain(|&c| c > 0);
        counts
    }

    /// Timer-wheel entries re-distributed by cascades so far — the
    /// wheel's cumulative background re-filing work (the
    /// `cgn_timer_cascades_total` metric).
    pub fn timer_cascades(&self) -> u64 {
        self.wheel.cascaded
    }

    /// Arena chunks allocated across the hot and cold slot arenas —
    /// the `cgn_arena_chunks` gauge (a chunk counts as one at any
    /// size). Monotone and stable after warm-up: a steady-state shard
    /// performs zero storage reallocation copies, which the perf
    /// harness asserts by reading this before and after the measured
    /// window.
    pub fn arena_chunks(&self) -> u64 {
        (self.slots.chunks() + self.hot.chunks()) as u64
    }

    /// Slot ids parked on the address-ordered free-list — the
    /// `cgn_arena_slots_free` gauge.
    pub fn arena_slots_free(&self) -> u64 {
        self.free.len as u64
    }

    /// Bytes of heap storage currently allocated for the structures
    /// that grow with the mappings: both arenas, the wheel's tables and
    /// entries, and both indices.
    #[cfg(test)]
    pub(crate) fn reserved_bytes(&self) -> usize {
        self.slots.reserved_bytes()
            + self.hot.reserved_bytes()
            + self.wheel.reserved_bytes()
            + self.out_index.reserved_bytes()
            + self.ext_index.reserved_bytes()
    }

    /// Current occupancy counters (arena, free-list, interners, wheel).
    pub fn occupancy(&self) -> StoreOccupancy {
        StoreOccupancy {
            slots: self.slots.len() as u64,
            live: self.live as u64,
            free: self.free.len as u64,
            hosts_interned: self.hosts.len() as u64,
            pools_interned: self.pools.len() as u64,
            timers: self.wheel.entries as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcore::ip;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    /// A UDP mapping and the expiry it is to be inserted with.
    fn mapping(internal: Endpoint, external: Endpoint, expiry: SimTime) -> (Mapping, SimTime) {
        let proto = Protocol::Udp;
        (
            Mapping {
                proto,
                internal,
                external,
            },
            expiry,
        )
    }

    /// The destination an out-key names: its address under ADM, its
    /// endpoint under APDM, and `0.0.0.0:0` — as good as any — under
    /// EIM.
    fn dst_of(key: u128) -> Endpoint {
        Endpoint::new(Ipv4Addr::from((key >> 64) as u32), (key >> 48) as u16)
    }

    /// `MappingStore::insert` with the pool interned on the way, as
    /// the engine's create path does, for a flow to the destination
    /// the key names.
    fn insert(s: &mut MappingStore, key: u128, (m, expiry): (Mapping, SimTime)) -> u32 {
        let pool = s.intern_pool(m.external.ip, m.proto);
        s.insert(key, pool, m.external.port, dst_of(key), expiry)
    }

    fn store_with(n: u16, expiry_secs: u64) -> (MappingStore, Vec<u32>) {
        let mut s = MappingStore::new();
        let mut slots = Vec::new();
        for k in 0..n {
            let internal = Endpoint::new(ip(100, 64, 0, (k % 250) as u8 + 1), 40_000 + k);
            let external = Endpoint::new(ip(198, 51, 100, 1), 10_000 + k);
            let key = s.out_key(
                MappingBehavior::EndpointIndependent,
                Protocol::Udp,
                internal,
                Endpoint::new(ip(203, 0, 113, 1), 80),
            );
            slots.push(insert(
                &mut s,
                key,
                mapping(internal, external, t(expiry_secs)),
            ));
        }
        (s, slots)
    }

    #[test]
    fn interners_are_stable_and_dense() {
        let mut s = MappingStore::new();
        let a = s.intern_host(ip(100, 64, 0, 1));
        let b = s.intern_host(ip(100, 64, 0, 2));
        assert_eq!((a, b), (0, 1));
        assert_eq!(s.intern_host(ip(100, 64, 0, 1)), 0, "re-intern is stable");
        assert_eq!(s.host_ip(1), ip(100, 64, 0, 2));
        let p = s.intern_pool(ip(198, 51, 100, 1), Protocol::Udp);
        let q = s.intern_pool(ip(198, 51, 100, 1), Protocol::Tcp);
        assert_eq!((p, q), (0, 1), "protocol distinguishes pools");
        assert_eq!(s.pool_entry(1), (ip(198, 51, 100, 1), Protocol::Tcp));
    }

    #[test]
    fn out_keys_distinguish_kind_proto_and_dst() {
        let mut s = MappingStore::new();
        let internal = Endpoint::new(ip(100, 64, 0, 1), 40_000);
        let d1 = Endpoint::new(ip(203, 0, 113, 1), 80);
        let d2 = Endpoint::new(ip(203, 0, 113, 1), 443);
        let d3 = Endpoint::new(ip(203, 0, 113, 2), 80);
        use MappingBehavior::*;
        let eim = s.out_key(EndpointIndependent, Protocol::Udp, internal, d1);
        assert_eq!(
            eim,
            s.out_key(EndpointIndependent, Protocol::Udp, internal, d3),
            "EIM ignores the destination"
        );
        assert_ne!(
            eim,
            s.out_key(EndpointIndependent, Protocol::Tcp, internal, d1)
        );
        let adm = s.out_key(AddressDependent, Protocol::Udp, internal, d1);
        assert_eq!(
            adm,
            s.out_key(AddressDependent, Protocol::Udp, internal, d2)
        );
        assert_ne!(
            adm,
            s.out_key(AddressDependent, Protocol::Udp, internal, d3)
        );
        assert_ne!(adm, eim, "kind bits keep behaviours apart");
        let apdm = s.out_key(AddressAndPortDependent, Protocol::Udp, internal, d1);
        assert_ne!(
            apdm,
            s.out_key(AddressAndPortDependent, Protocol::Udp, internal, d2)
        );
        assert_eq!(MappingStore::host_of_key(apdm), 0);
    }

    #[test]
    fn free_list_reuses_lowest_slot_first_with_fresh_generation() {
        let (mut s, slots) = store_with(3, 60);
        assert_eq!(s.len(), 3);
        assert_eq!(slots, vec![0, 1, 2]);
        let (m, _pool) = s.remove(2).expect("live");
        assert_eq!(m.external.port, 10_002);
        s.remove(1).expect("live");
        assert!(s.remove(1).is_none(), "double remove is a no-op");
        assert_eq!(s.len(), 1);
        assert_eq!(s.occupancy().free, 2);
        assert_eq!(s.arena_slots_free(), 2);
        // Address-ordered reuse: slot 1 (lowest free id) is reused
        // first even though slot 2 was freed first — live slots pack
        // toward the front of the arena.
        let internal = Endpoint::new(ip(100, 64, 0, 9), 50_000);
        let key = s.out_key(
            MappingBehavior::EndpointIndependent,
            Protocol::Udp,
            internal,
            Endpoint::new(ip(203, 0, 113, 1), 80),
        );
        let reused = insert(
            &mut s,
            key,
            mapping(internal, Endpoint::new(ip(198, 51, 100, 1), 11_000), t(60)),
        );
        assert_eq!(reused, 1);
        assert_eq!(s.occupancy().slots, 3, "arena did not grow");
        assert_eq!(s.arena_slots_free(), 1);
        assert_eq!(s.get(1).internal, internal);
    }

    #[test]
    fn stale_wheel_entries_from_reused_slots_are_ignored() {
        let (mut s, _slots) = store_with(1, 60);
        s.remove(0).expect("live");
        // Reuse slot 0 with a later expiry; the parked entry for the
        // old mapping (deadline 60 s) must not expire the new one.
        let internal = Endpoint::new(ip(100, 64, 0, 7), 50_000);
        let key = s.out_key(
            MappingBehavior::EndpointIndependent,
            Protocol::Udp,
            internal,
            Endpoint::new(ip(203, 0, 113, 1), 80),
        );
        let slot = insert(
            &mut s,
            key,
            mapping(internal, Endpoint::new(ip(198, 51, 100, 1), 11_000), t(120)),
        );
        assert_eq!(slot, 0);
        let (inspected, due) = s.sweep_due(t(61));
        assert!(inspected >= 1, "the stale entry was drained and checked");
        assert!(due.is_empty(), "ticket mismatch keeps the new mapping");
        let (_, due) = s.sweep_due(t(120));
        assert_eq!(due, vec![0]);
    }

    #[test]
    fn sweep_skips_buckets_before_the_deadline() {
        let (mut s, _) = store_with(1, 60);
        for secs in [10, 30, 59] {
            let (inspected, due) = s.sweep_due(t(secs));
            assert_eq!((inspected, due.len()), (0, 0), "at {secs}s");
        }
        let (inspected, due) = s.sweep_due(t(60));
        assert_eq!(inspected, 1);
        assert_eq!(due, vec![0]);
        s.remove(0).expect("due slots are removed by the caller");
        let (inspected, due) = s.sweep_due(t(1000));
        assert_eq!((inspected, due.len()), (0, 0), "empty wheel fast path");
    }

    #[test]
    fn lazy_extension_reschedules_on_inspection() {
        let (mut s, _) = store_with(1, 60);
        s.set_expiry(0, t(110)); // extension: entry stays parked at 60 s
        let (inspected, due) = s.sweep_due(t(70));
        assert_eq!(inspected, 1, "parked entry fired and rescheduled");
        assert!(due.is_empty());
        let (inspected, _) = s.sweep_due(t(109));
        assert_eq!(inspected, 0, "rescheduled to the real expiry");
        let (_, due) = s.sweep_due(t(110));
        assert_eq!(due, vec![0]);
    }

    #[test]
    fn shortened_expiry_files_an_earlier_entry() {
        // Mapping far out on the established clock, then a FIN-style
        // shortening: the new entry must fire early, the old one dies
        // stale when its bucket eventually drains.
        let (mut s, _) = store_with(1, 7440);
        s.set_expiry(0, t(540));
        let (inspected, due) = s.sweep_due(t(600));
        assert!(inspected >= 1);
        assert_eq!(due, vec![0]);
        s.remove(0).expect("live");
        let (_, due) = s.sweep_due(t(8000));
        assert!(due.is_empty(), "superseded entry is stale");
    }

    #[test]
    fn shorten_then_extend_back_never_duplicates_expiry() {
        // Regression: with deadline-equality authority, shortening
        // (new entry at 50 s) and then lazily extending back to the
        // *original* entry's deadline (100 s) left two entries that
        // both matched the slot's recorded deadline after the first
        // rescheduled — `sweep_due` then returned the slot twice and
        // `mappings_expired` double-counted. The per-slot sequence
        // number keeps exactly one entry authoritative.
        let (mut s, _) = store_with(1, 100);
        s.set_expiry(0, t(50)); // shorten: files a second entry
        s.set_expiry(0, t(100)); // lazy extension back to the old deadline
        let (_, due) = s.sweep_due(t(60));
        assert!(due.is_empty(), "expiry is 100 s, nothing due at 60 s");
        let (_, due) = s.sweep_due(t(100));
        assert_eq!(due, vec![0], "due exactly once, not per parked entry");
        s.remove(0).expect("live");
        let (_, due) = s.sweep_due(t(200));
        assert!(due.is_empty());
    }

    #[test]
    fn ticket_outlives_free_reuse_and_shorten() {
        // Every filing and every free moves the slot's one ticket on,
        // so of the four entries parked for slot 0 below (100 s from
        // its first tenant, 300 s, 200 s and 150 s from its second)
        // only the last is authoritative; the sweep re-parks it at the
        // extended expiry. The slot is due once, at 250 s, and never
        // again — even left in place, as nothing re-files it.
        let (mut s, _) = store_with(1, 100);
        s.remove(0).expect("live");
        let internal = Endpoint::new(ip(100, 64, 0, 7), 50_000);
        let key = s.out_key(
            MappingBehavior::EndpointIndependent,
            Protocol::Udp,
            internal,
            Endpoint::new(ip(203, 0, 113, 1), 80),
        );
        let external = Endpoint::new(ip(198, 51, 100, 1), 11_000);
        assert_eq!(insert(&mut s, key, mapping(internal, external, t(300))), 0);
        s.set_expiry(0, t(200)); // shorten: files a second entry
        s.set_expiry(0, t(150)); // shorten again: a third
        s.set_expiry(0, t(250)); // extend: lazy, nothing filed
        assert_eq!(s.occupancy().timers, 4);
        let fired: Vec<(u64, Vec<u32>)> = (1..=400)
            .map(|secs| (secs, s.sweep_due(t(secs)).1))
            .filter(|(_, due)| !due.is_empty())
            .collect();
        assert_eq!(fired, vec![(250, vec![0])]);
        assert_eq!(s.occupancy().timers, 0, "every entry drained");
        assert_eq!(s.get(0).internal, internal, "still the second tenant");
    }

    #[test]
    fn cascade_at_level_boundaries_preserves_expiry() {
        // Deadlines straddling the level-0 span (~65.5 s) and the
        // level-1 span (~70 min) must survive cascading intact.
        let mut s = MappingStore::new();
        let mut slots = Vec::new();
        for (k, secs) in [64u64, 66, 4194, 4196, 300_000].iter().enumerate() {
            let internal = Endpoint::new(ip(100, 64, 1, k as u8 + 1), 40_000);
            let key = s.out_key(
                MappingBehavior::EndpointIndependent,
                Protocol::Udp,
                internal,
                Endpoint::new(ip(203, 0, 113, 1), 80),
            );
            slots.push(insert(
                &mut s,
                key,
                mapping(
                    internal,
                    Endpoint::new(ip(198, 51, 100, 1), 10_000 + k as u16),
                    t(*secs),
                ),
            ));
        }
        // Step across the 64-tick (2^16 ms) boundary: only the 64 s
        // mapping is due; 66 s survives the same cascade.
        let (_, due) = s.sweep_due(t(65));
        assert_eq!(due, vec![slots[0]]);
        s.remove(slots[0]);
        let (_, due) = s.sweep_due(t(66));
        assert_eq!(due, vec![slots[1]]);
        s.remove(slots[1]);
        // Step across the 2^22 ms (~4194 s) boundary.
        let (_, due) = s.sweep_due(t(4195));
        assert_eq!(due, vec![slots[2]]);
        s.remove(slots[2]);
        let (_, due) = s.sweep_due(t(4200));
        assert_eq!(due, vec![slots[3]]);
        s.remove(slots[3]);
        // The far-future mapping is still alive and still tracked.
        assert_eq!(s.len(), 1);
        let (_, due) = s.sweep_due(t(300_000));
        assert_eq!(due, vec![slots[4]]);
    }

    #[test]
    fn cascade_refiles_current_entries_and_sheds_stale_ones() {
        // Seven entries share level-1 bucket 2 ([131 072, 196 608) ms),
        // which cascades when the wheel reaches 131 072 ms. Four are
        // current: a plain one (slot 0), a lazily extended one (slot 1,
        // lag 30 s), one whose lag saturated (slot 2) and the second
        // tenant of a reused slot (slot 4). Three are stale: a freed
        // slot's (3), the first tenant's of the reused slot (4), and
        // one a shortening superseded (5).
        let mut s = MappingStore::new();
        let ms = SimTime::from_millis;
        let add = |s: &mut MappingStore, k: u16, expiry_ms: u64| {
            let internal = Endpoint::new(ip(100, 64, 2, 1), 40_000 + k);
            let external = Endpoint::new(ip(198, 51, 100, 1), 10_000 + k);
            let key = s.out_key(
                MappingBehavior::EndpointIndependent,
                Protocol::Udp,
                internal,
                Endpoint::new(ip(203, 0, 113, 1), 80),
            );
            insert(s, key, mapping(internal, external, ms(expiry_ms)))
        };
        for (k, expiry_ms) in [150_000, 140_000, 160_000, 145_000, 155_000, 190_000]
            .into_iter()
            .enumerate()
        {
            assert_eq!(add(&mut s, k as u16, expiry_ms), k as u32);
        }
        s.set_expiry(1, ms(170_000)); // lazy: parked at 140 s
        let far = 160_000 + (1 << 32) + 5_000;
        s.set_expiry(2, ms(far)); // lazy, and the lag saturates
        assert_eq!(s.hot[2].lag, u32::MAX);
        // Parked 1 ms later than filed: far - u32::MAX.
        assert_eq!(s.hot[2].parked_deadline(), 165_001);
        s.remove(4).expect("live");
        assert_eq!(add(&mut s, 6, 180_000), 4, "the freed slot is reused");
        s.remove(3).expect("live");
        s.set_expiry(5, ms(40_000)); // files at level 0, tick 39
        assert_eq!((s.occupancy().timers, s.timer_cascades()), (8, 0));

        // (at, entries inspected, due, entries parked after, entries
        // cascaded so far). No stale entry is ever inspected.
        let sweeps: [(u64, usize, &[u32], u64, u64); 12] = [
            (40_000, 1, &[5], 7, 0),
            (131_071, 0, &[], 7, 0),
            // The cascade: four re-filed, three dropped.
            (131_072, 0, &[], 4, 4),
            // Slot 1 fires at its parked 140 s and re-files at 170 s.
            (140_000, 1, &[], 4, 4),
            (150_000, 1, &[0], 3, 4),
            // Slot 2 parked at 165 001 ms, in tick 161 (from 164 864
            // ms), not at the 160 s of tick 156 it was filed for: later,
            // never earlier, and re-filed at its expiry.
            (164_863, 0, &[], 3, 4),
            (164_864, 1, &[], 3, 4),
            (170_000, 1, &[1], 2, 4),
            (180_000, 1, &[4], 1, 4),
            // Down from level 3 to level 1 at 16 << 28 ms, then to
            // level 0: two more cascades. Inspected in its tick a
            // millisecond before its expiry, the entry re-files, and
            // the slot is due exactly at expiry.
            ((far & !1023) - 1, 0, &[], 1, 6),
            (far - 1, 1, &[], 1, 6),
            (far, 1, &[2], 0, 6),
        ];
        for (at, inspected, want, timers, cascades) in sweeps {
            assert_eq!(
                s.sweep_due(ms(at)),
                (inspected, want.to_vec()),
                "at {at} ms"
            );
            for &slot in want {
                s.remove(slot).expect("due slots are live");
            }
            assert_eq!(s.occupancy().timers, timers, "parked after {at} ms");
            assert_eq!(s.timer_cascades(), cascades, "cascaded by {at} ms");
        }
    }

    #[test]
    fn wheel_tables_appear_with_the_first_entry_of_their_level() {
        const TABLE: usize = WHEEL_BUCKETS * std::mem::size_of::<Bucket>();
        let tables = |s: &MappingStore| s.wheel.levels.iter().map(Vec::capacity).sum::<usize>();
        let (mut s, _) = store_with(0, 0);
        assert_eq!((s.wheel.reserved_bytes(), s.wheel.occupied), (0, [0; 4]));
        s.sweep_due(t(86_400));
        assert_eq!(tables(&s), 0, "an idle day allocates nothing");
        // 30 s out: level 0 only.
        let internal = Endpoint::new(ip(100, 64, 0, 1), 40_000);
        let key = s.out_key(
            MappingBehavior::EndpointIndependent,
            Protocol::Udp,
            internal,
            Endpoint::new(ip(203, 0, 113, 1), 80),
        );
        let external = Endpoint::new(ip(198, 51, 100, 1), 10_000);
        let slot = insert(&mut s, key, mapping(internal, external, t(86_430)));
        assert_eq!(tables(&s), WHEEL_BUCKETS);
        assert!(s.wheel.reserved_bytes() <= TABLE + 8 * std::mem::size_of::<TimerEntry>());
        assert_eq!(s.wheel.occupied[0].count_ones(), 1);
        assert_eq!(s.wheel.occupied[1..], [0; 3]);
        // Extended to two hours: the parked entry fires and is re-filed
        // two levels up, which is when that level's table appears.
        s.set_expiry(slot, t(86_400 + 7200));
        assert_eq!(s.sweep_due(t(86_431)), (1, vec![]));
        assert_eq!(tables(&s), 2 * WHEEL_BUCKETS);
        assert_eq!(s.wheel.occupied[0], 0, "a drained bucket clears its bit");
        assert_eq!(s.wheel.occupied[2].count_ones(), 1);
        assert_eq!(s.sweep_due(t(86_400 + 7200)), (1, vec![slot]));
        assert_eq!(s.wheel.occupied, [0; 4]);
    }

    /// Everything about two wheels that a caller or a later sweep could
    /// tell apart, and each occupancy bit against its bucket.
    fn assert_same_wheels(jump: &MappingStore, ticks: &MappingStore) {
        assert_eq!(jump.wheel.horizon_ms, ticks.wheel.horizon_ms);
        assert_eq!(jump.timer_cascades(), ticks.timer_cascades());
        assert_eq!(jump.occupancy(), ticks.occupancy());
        assert_eq!(jump.wheel.occupied, ticks.wheel.occupied);
        for (level, table) in jump.wheel.levels.iter().enumerate() {
            for (b, bucket) in table.iter().enumerate() {
                let bit = jump.wheel.occupied[level] >> b & 1 == 1;
                assert_eq!(bit, !bucket.is_empty(), "level {level} bucket {b}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The wheel that jumps is the wheel that turns tick by tick:
        /// random interleavings of insert, `set_expiry` (shorten and
        /// extend), remove and sweep — deadlines from already due to
        /// beyond the top level's span, gaps between sweeps from a
        /// millisecond to forty days, starting next to a level-1, -2 or
        /// -3 boundary — give equal `(inspected, due)` from every
        /// sweep, and equal cascade counts, occupancy and horizon after
        /// every step.
        #[test]
        fn prop_sweep_jump_is_the_tick_by_tick_wheel(
            origin in (0usize..5, 0u64..40_000),
            ops in proptest::collection::vec((0u8..16, any::<u32>(), any::<u32>()), 1..120),
        ) {
            /// Time scales in ms, each drawn at 0 to 2 times its size:
            /// a millisecond, a tick, the spans of levels 0, 1 and 2,
            /// nine days, and past the top level's span (64 << 28).
            const SCALES: [u64; 7] = [1, 1 << 10, 1 << 16, 1 << 22, 1 << 28, 3 << 28, 80 << 28];
            let (mut jump, mut ticks) = (MappingStore::new(), MappingStore::new());
            // An empty wheel fast-forwards for free: start shortly
            // before a boundary of the chosen level.
            let boundary = [1u64 << 16, 1 << 22, 1 << 28, 5 << 28, 64 << 28][origin.0];
            let mut now = boundary - 20_000 + origin.1;
            jump.sweep_due(SimTime::from_millis(now));
            ticks.sweep_due_by_ticks(SimTime::from_millis(now));
            let mut live: Vec<u32> = Vec::new();
            let mut flows = 0u16;
            for (op, a, b) in ops {
                let pick = |n: u64| SCALES[a as usize % n as usize] * (b as u64 % 1024) / 512;
                match op {
                    0..=5 => {
                        let internal = Endpoint::new(ip(100, 64, 0, 1), flows);
                        let external = Endpoint::new(ip(198, 51, 100, 1), flows);
                        flows += 1;
                        let expiry = SimTime::from_millis(now + pick(7));
                        let mut slots = [0; 2];
                        for (s, slot) in [&mut jump, &mut ticks].into_iter().zip(&mut slots) {
                            let key = s.out_key(
                                MappingBehavior::AddressAndPortDependent,
                                Protocol::Udp,
                                internal,
                                external,
                            );
                            *slot = insert(s, key, mapping(internal, external, expiry));
                        }
                        prop_assert_eq!(slots[0], slots[1]);
                        live.push(slots[0]);
                    }
                    6..=8 if !live.is_empty() => {
                        let slot = live[b as usize % live.len()];
                        let expiry = SimTime::from_millis(now + pick(7));
                        jump.set_expiry(slot, expiry);
                        ticks.set_expiry(slot, expiry);
                    }
                    9 if !live.is_empty() => {
                        let slot = live.swap_remove(b as usize % live.len());
                        prop_assert!(jump.remove(slot).is_some() && ticks.remove(slot).is_some());
                    }
                    _ => {
                        // Mostly within level 1's span; one sweep in six
                        // up to 18 days on, a quarter of those up to 40.
                        now += match op {
                            15 if a % 4 == 0 => 3_456_000_000 * (b as u64 % 1024) / 1024,
                            15 => pick(6),
                            _ => pick(4),
                        };
                        let at = SimTime::from_millis(now);
                        let (inspected, due) = jump.sweep_due(at);
                        prop_assert_eq!((inspected, due.clone()), ticks.sweep_due_by_ticks(at));
                        for slot in due {
                            live.retain(|&s| s != slot);
                            prop_assert!(jump.remove(slot).is_some() && ticks.remove(slot).is_some());
                        }
                    }
                }
                assert_same_wheels(&jump, &ticks);
            }
        }
    }

    #[test]
    fn wheel_buckets_span_segments_in_filing_order() {
        // Group A parks in one level-0 bucket (tick 30) from the start;
        // group B in one level-2 bucket, which cascades through level 1
        // into level-0 tick 7032. Interleaved shortenings file second
        // entries at the end of the same bucket, and frees hand slot ids
        // back to later inserts of either group, so both buckets hold
        // stale entries between current ones, across segment edges.
        // Group A's stay parked until its bucket drains; group B's are
        // dropped by its first cascade, so only current entries reach
        // level 0.
        const A: u64 = 30 << 10;
        const B: u64 = 7032 << 10;
        let (mut jump, mut ticks) = (MappingStore::new(), MappingStore::new());
        // Every filing, in order: (slot, group base).
        let mut filed: Vec<(u32, u64)> = Vec::new();
        // Live slots: (slot, group base, expiry in ms).
        let mut live: Vec<(u32, u64, u64)> = Vec::new();
        for k in 0..2400u32 {
            let base = if k % 3 == 2 { B } else { A };
            let internal = Endpoint::new(ip(100, 64, 0, 1), 1024 + k as u16);
            let external = Endpoint::new(ip(198, 51, 100, 1), 1024 + k as u16);
            let expiry_ms = base + 512 + (k % 500) as u64;
            let expiry = SimTime::from_millis(expiry_ms);
            let mut slots = [0; 2];
            for (s, slot) in [&mut jump, &mut ticks].into_iter().zip(&mut slots) {
                let key = s.out_key(
                    MappingBehavior::EndpointIndependent,
                    Protocol::Udp,
                    internal,
                    Endpoint::new(ip(203, 0, 113, 1), 80),
                );
                *slot = insert(s, key, mapping(internal, external, expiry));
            }
            assert_eq!(slots[0], slots[1]);
            filed.push((slots[0], base));
            live.push((slots[0], base, expiry_ms));
            let pick = k.wrapping_mul(2_654_435_761) as usize % live.len();
            if k % 9 == 4 && live[pick].2 > live[pick].1 {
                // Shorter, and still in the group's tick.
                let (slot, base, expiry_ms) = &mut live[pick];
                *expiry_ms = (*expiry_ms - 1 - (k % 100) as u64).max(*base);
                let shorter = SimTime::from_millis(*expiry_ms);
                jump.set_expiry(*slot, shorter);
                ticks.set_expiry(*slot, shorter);
                filed.push((*slot, *base));
            } else if k % 13 == 6 {
                let (slot, ..) = live.swap_remove(pick);
                assert!(jump.remove(slot).is_some() && ticks.remove(slot).is_some());
            }
        }
        let level0 = &jump.wheel.levels[0][30].segs;
        let level2 = &jump.wheel.levels[2][1].segs;
        assert!(
            level0.len() > 3 && level2.len() > 1,
            "buckets span segments"
        );
        for seg in level0
            .iter()
            .rev()
            .skip(1)
            .chain(level2.iter().rev().skip(1))
        {
            assert_eq!((seg.len(), seg.capacity()), (SEGMENT, SEGMENT));
        }
        // A bucket's due slots: its current entries, in filing order.
        let expect = |group: u64| -> Vec<u32> {
            let current = |i: usize, slot: u32| {
                live.iter().any(|&(s, ..)| s == slot)
                    && filed.iter().rposition(|&(s, _)| s == slot) == Some(i)
            };
            let filings = filed.iter().enumerate();
            filings
                .filter(|&(i, &(slot, base))| base == group && current(i, slot))
                .map(|(_, &(slot, _))| slot)
                .collect()
        };
        let filed_b = filed.iter().filter(|&&(_, base)| base == B).count() as u64;
        let current_b = expect(B).len() as u64;
        assert!(current_b < filed_b, "group B holds stale entries");
        assert_eq!(
            jump.occupancy().timers,
            filed.len() as u64,
            "every filing parked"
        );
        // (at, due, entries parked after, entries cascaded so far).
        let sweeps = [
            (10_000, vec![], filed.len() as u64, 0),
            (A + 1024, expect(A), filed_b, 0),
            (1_000_000, vec![], filed_b, 0),
            // Group B cascades to level 1, shedding its stale entries ...
            ((1 << 22) + 5, vec![], current_b, current_b),
            // ... and to level 0, where only current entries remain.
            ((6976 << 10) + 3, vec![], current_b, 2 * current_b),
            (B - 1, vec![], current_b, 2 * current_b),
            (B + 1024, expect(B), 0, 2 * current_b),
        ];
        for (ms, want, timers, cascades) in sweeps {
            let at = SimTime::from_millis(ms);
            let (inspected, due) = jump.sweep_due(at);
            assert_eq!((inspected, due.clone()), ticks.sweep_due_by_ticks(at));
            assert_eq!(due, want, "due at {ms} ms");
            if ms == B + 1024 {
                assert_eq!(inspected as u64, current_b, "no stale entry drained");
            }
            for &slot in &due {
                assert!(jump.remove(slot).is_some() && ticks.remove(slot).is_some());
            }
            assert_same_wheels(&jump, &ticks);
            assert_eq!(jump.occupancy().timers, timers, "parked after {ms} ms");
            assert_eq!(jump.timer_cascades(), cascades, "cascaded by {ms} ms");
        }
    }

    #[test]
    fn lag_saturates_without_expiring_early_or_skipping_a_filing() {
        const P: u64 = 60_000;
        let parked = |s: &MappingStore| s.occupancy().timers;
        let due_at = |s: &mut MappingStore, ms: u64| s.sweep_due(SimTime::from_millis(ms)).1;

        // Extend more than 2^32 ms past the parked deadline: the lag
        // saturates, overstating that deadline by 10 000 001 ms. A
        // shortening to halfway between stays clear of the overstatement,
        // so it is lazy — a wrapped lag would overstate it by 2^32 and
        // file. Either way the mapping lives until exactly its expiry.
        let (mut s, _) = store_with(1, P / 1000);
        let e = P + (1 << 32) + 10_000_000;
        s.set_expiry(0, SimTime::from_millis(e));
        assert_eq!(s.hot[0].lag, u32::MAX);
        let shorter = P + (1 << 31);
        s.set_expiry(0, SimTime::from_millis(shorter));
        assert_eq!(
            parked(&s),
            1,
            "a shortening above the parked deadline is lazy"
        );
        for ms in [P, P + 10_000_001, shorter - 1] {
            assert_eq!(due_at(&mut s, ms), Vec::<u32>::new(), "early at {ms} ms");
        }
        assert_eq!(due_at(&mut s, shorter), vec![0]);
        s.remove(0).expect("live");

        // A lazy extension (saturating or not) then a shortening below
        // the parked deadline files exactly one entry, which fires at
        // the new expiry.
        for extension in [1_000, 1 << 33] {
            let (mut s, _) = store_with(1, P / 1000);
            s.set_expiry(0, SimTime::from_millis(P + extension));
            assert_eq!(parked(&s), 1, "an extension is lazy");
            s.set_expiry(0, SimTime::from_millis(P - 30_000));
            assert_eq!(parked(&s), 2, "one filing for the shortening");
            assert_eq!(due_at(&mut s, P - 30_001), Vec::<u32>::new());
            assert_eq!(due_at(&mut s, P - 30_000), vec![0]);
        }
    }

    #[test]
    fn ten_mappings_reserve_kilobytes_not_hugepages() {
        let (s, _) = store_with(10, 60);
        assert_eq!(s.arena_chunks(), 2, "one hot + one cold chunk");
        let reserved = s.slots.reserved_bytes() + s.hot.reserved_bytes();
        assert!(reserved <= 16 * 1024, "{reserved} bytes for 10 mappings");
    }

    /// The ids where a summary word of the free-set ends: 64 ids to a
    /// leaf word, 64 leaf words to a level-1 word, and so on up.
    const FREE_SET_EDGES: [u32; 5] = [64, 4096, 262_144, 524_288, 2_097_152];

    /// The `n` lowest ids of `set` (all of them, if fewer), in pop
    /// order, read by popping them and pushing them back.
    fn lowest(set: &mut FreeSet, n: usize) -> Vec<u32> {
        let ids: Vec<u32> = std::iter::from_fn(|| set.pop()).take(n).collect();
        for &id in &ids {
            set.push(id);
        }
        ids
    }

    #[test]
    fn free_set_grows_from_empty_and_pops_lowest_first() {
        let mut set = FreeSet::default();
        assert_eq!((set.pop(), set.len), (None, 0));
        assert!(set.levels.is_empty(), "nothing allocated before a push");
        // Both sides of every edge, lowest first, so every other push
        // grows the set by a word or a level under the ids it holds.
        let mut ids = vec![0];
        ids.extend(FREE_SET_EDGES.iter().flat_map(|&e| [e - 1, e]));
        for (pushed, &id) in ids.iter().enumerate() {
            set.push(id);
            assert_eq!(set.len, pushed + 1);
            assert_eq!(
                lowest(&mut set, usize::MAX),
                ids[..=pushed],
                "after pushing {id}"
            );
            assert_eq!(set.len, pushed + 1, "read back in full");
        }
        assert_eq!(
            set.levels.len(),
            4,
            "2 M ids: leaf words and three summaries"
        );
        assert_eq!(set.levels.last().map(Vec::len), Some(1), "one top word");
        let popped: Vec<u32> = std::iter::from_fn(|| set.pop()).collect();
        assert_eq!(popped, ids);
        assert!(
            set.levels.iter().flatten().all(|&w| w == 0),
            "every summary cleared"
        );
        // An emptied set starts over without growing.
        set.push(70);
        assert_eq!((set.pop(), set.pop()), (Some(70), None));
    }

    proptest! {
        /// The free-set is a min-heap: random pushes (clustered on both
        /// sides of every summary-word edge, up to three million), pops
        /// and in-order reads of the lowest ids (popped and pushed
        /// back) agree with a `BTreeSet` on every id, every length and
        /// every order.
        #[test]
        fn prop_free_set_is_a_readable_min_heap(
            ops in proptest::collection::vec((0u8..10, 0usize..6, 0u32..3_000_000), 1..400),
        ) {
            let mut set = FreeSet::default();
            let mut model = BTreeSet::new();
            for (op, edge, any) in ops {
                match op {
                    0..=5 => {
                        let id = match edge.checked_sub(1) {
                            Some(e) => FREE_SET_EDGES[e] - 3 + any % 6,
                            None => any,
                        };
                        if model.insert(id) {
                            set.push(id);
                        }
                    }
                    6..=7 => prop_assert_eq!(set.pop(), model.pop_first()),
                    _ => {
                        let n = any as usize % 70;
                        let want: Vec<u32> = model.iter().take(n).copied().collect();
                        prop_assert_eq!(lowest(&mut set, n), want);
                    }
                }
                prop_assert_eq!(set.len, model.len());
            }
            while let Some(id) = model.pop_first() {
                prop_assert_eq!(set.pop(), Some(id));
            }
            prop_assert_eq!(set.pop(), None);
        }
    }

    /// Everything a caller can ask about a row's contacts agrees with
    /// the model set, for every endpoint of the alphabet.
    fn assert_contacts_agree(
        s: &MappingStore,
        slot: u32,
        model: &BTreeSet<Endpoint>,
        alphabet: &[Endpoint],
    ) {
        for e in alphabet {
            assert_eq!(s.has_contacted(slot, e), model.contains(e), "{e}");
            let ip_seen = model.iter().any(|m| m.ip == e.ip);
            assert_eq!(s.has_contacted_ip(slot, e.ip), ip_seen, "{e}");
        }
        let row = &s.slots[slot as usize];
        assert_eq!(row.contacts().count(), model.len(), "contacts repeat none");
        assert_eq!(&row.contacts().copied().collect::<BTreeSet<_>>(), model);
    }

    proptest! {
        /// A row's contacts are a set: a mapping created for one of
        /// nine endpoints (three addresses × three ports), then up to
        /// 40 contacts over the same nine (so most repeat one, and
        /// every run that reaches three distinct ones spills), agree
        /// with a `BTreeSet` on `contact`'s answer, and on
        /// `has_contacted`, `has_contacted_ip` and the contacts read as
        /// a set, from the create on and after every contact.
        #[test]
        fn prop_contact_set_is_a_set(
            first in (0u8..3, 0u16..3),
            picks in proptest::collection::vec((0u8..3, 0u16..3), 0..=40),
        ) {
            let alphabet: Vec<Endpoint> = (0..3u8)
                .flat_map(|a| (0..3u16).map(move |p| Endpoint::new(ip(203, 0, 113, a), 80 + p)))
                .collect();
            let pick = |(a, p): (u8, u16)| alphabet[a as usize * 3 + p as usize];
            let mut s = MappingStore::new();
            let internal = Endpoint::new(ip(100, 64, 0, 1), 40_000);
            let apdm = MappingBehavior::AddressAndPortDependent;
            let key = s.out_key(apdm, Protocol::Udp, internal, pick(first));
            let slot = insert(&mut s, key, mapping(internal, internal, t(60)));
            let mut model = BTreeSet::from([pick(first)]);
            assert_contacts_agree(&s, slot, &model, &alphabet);
            for e in picks.into_iter().map(pick) {
                prop_assert_eq!(s.contact(slot, e), model.insert(e));
                assert_contacts_agree(&s, slot, &model, &alphabet);
            }
        }
    }

    #[test]
    fn free_set_and_write_behind_cost_a_small_nat_nothing() {
        // The companion of `ten_mappings_reserve_kilobytes_not_hugepages`:
        // the free-set allocates at the first free, not before, and
        // the write-behind queue stays a few dozen bytes.
        let (mut s, _) = store_with(10, 60);
        assert!(s.free.levels.is_empty() && s.free.levels.capacity() == 0);
        assert!(s.ext_behind.capacity() <= 2 * EXT_WRITE_BEHIND);
        s.remove(4).expect("live");
        let words: usize = s.free.levels.iter().map(Vec::capacity).sum();
        assert!(words <= 8, "{words} words to remember one free slot");
    }

    /// `(out-key, external endpoint)` of the `k`-th mapping of the
    /// write-behind tests, all on one external address.
    fn behind_flow(s: &mut MappingStore, k: u16) -> (u128, (Mapping, SimTime)) {
        let internal = Endpoint::new(ip(100, 64, 2, (k % 200) as u8 + 1), 30_000 + k);
        let external = Endpoint::new(ip(198, 51, 100, 7), 20_000 + k);
        let key = s.out_key(
            MappingBehavior::AddressAndPortDependent,
            Protocol::Udp,
            internal,
            Endpoint::new(ip(203, 0, 113, 1), 443),
        );
        (key, mapping(internal, external, t(60)))
    }

    #[test]
    fn ext_write_behind_is_bounded_and_never_hides_a_mapping() {
        // Forty inserts take the ext index (16 cells at first) through
        // two growths with the queue non-empty throughout.
        let mut s = MappingStore::new();
        let mut placed = Vec::new();
        for k in 0..40 {
            let (key, m) = behind_flow(&mut s, k);
            let ext = m.0.external;
            placed.push((ext, insert(&mut s, key, m)));
            assert_eq!(s.ext_behind.len(), placed.len().min(EXT_WRITE_BEHIND));
            assert_eq!(s.ext_index.live + s.ext_behind.len(), placed.len());
            for &(ext, slot) in &placed {
                assert_eq!(
                    s.lookup_ext(Protocol::Udp, ext),
                    Some(slot),
                    "after insert {k}"
                );
            }
        }
        assert!(s.ext_index.cells.len() >= 64, "the index grew on the way");
        s.flush_ext_index();
        assert_eq!((s.ext_behind.len(), s.ext_index.live), (0, 40));
        for &(ext, slot) in &placed {
            assert_eq!(s.lookup_ext(Protocol::Udp, ext), Some(slot));
            let key = s.ext_key_of(Protocol::Udp, ext).expect("pool interned");
            assert_eq!(
                s.hint_ext(key),
                Some(slot),
                "no tag collisions among 40 keys"
            );
        }
        s.flush_ext_index(); // nothing left: a no-op
        assert_eq!(s.ext_index.live, 40);
    }

    #[test]
    fn ext_write_behind_is_settled_before_a_remove() {
        // Removing a mapping whose ext cell is still to be written must
        // not leave that write behind to index a freed slot.
        let mut s = MappingStore::new();
        let mut placed = Vec::new();
        for k in 0..5 {
            let (key, m) = behind_flow(&mut s, k);
            placed.push((m.0.external, insert(&mut s, key, m)));
        }
        assert_eq!(s.ext_behind.len(), 5);
        let (gone, slot) = placed[3];
        s.remove(slot).expect("live");
        assert_eq!((s.ext_behind.len(), s.ext_index.live), (0, 4));
        assert_eq!(s.lookup_ext(Protocol::Udp, gone), None);
        // The slot and the endpoint are both free for the next flow.
        let (key, mut m) = behind_flow(&mut s, 9);
        m.0.external = gone;
        assert_eq!(insert(&mut s, key, m), slot);
        assert_eq!(s.lookup_ext(Protocol::Udp, gone), Some(slot));
        for &(ext, slot) in &placed {
            assert_eq!(s.lookup_ext(Protocol::Udp, ext), Some(slot));
        }
    }

    /// What the store should hold, by slot id.
    struct ModelRow {
        key: u128,
        ext: Endpoint,
        expiry_secs: u64,
    }

    #[test]
    fn lookups_and_timers_survive_every_arena_promotion() {
        // Grow the live population across every size chunk 0 of either
        // arena passes through (FIRST, 2·FIRST, … CAP) and one row
        // into chunk 1, with removes and lowest-id slot reuse mixed
        // in. Past each boundary every key must still resolve to its
        // slot, every removed key to nothing, and the wheel must hand
        // back exactly the mappings whose expiry has passed.
        fn doublings(first: usize, cap: usize) -> impl Iterator<Item = usize> {
            std::iter::successors(Some(first), |b| Some(b * 2)).take_while(move |&b| b <= cap)
        }
        let mut boundaries: Vec<usize> = doublings(Arena::<Slot>::FIRST, Arena::<Slot>::CAP)
            .chain(doublings(Arena::<HotSlot>::FIRST, Arena::<HotSlot>::CAP))
            .collect();
        boundaries.sort_unstable();
        boundaries.dedup();

        let mut s = MappingStore::new();
        let mut model: Vec<Option<ModelRow>> = Vec::new();
        let mut free = std::collections::BTreeSet::new();
        let mut removed: Vec<ModelRow> = Vec::new();
        let mut now_secs = 0u64;
        let mut k = 0u32; // one fresh key per insert, never reused
        for b in boundaries {
            while s.len() <= b {
                let internal = Endpoint::new(
                    Ipv4Addr::from(0x6440_0000 + k / 60_000),
                    1024 + (k % 60_000) as u16,
                );
                let ext = Endpoint::new(
                    Ipv4Addr::from(0xC633_6401 + k / 60_000),
                    1024 + (k % 60_000) as u16,
                );
                // One mapping in seven is short-lived, so every sweep
                // below has work; the rest outlive the test.
                let expiry_secs = if k % 7 == 0 {
                    now_secs + 1 + (k % 5) as u64
                } else {
                    1_000_000
                };
                let key = s.out_key(
                    MappingBehavior::EndpointIndependent,
                    Protocol::Udp,
                    internal,
                    Endpoint::new(ip(203, 0, 113, 1), 80),
                );
                let slot = insert(&mut s, key, mapping(internal, ext, t(expiry_secs)));
                let expect = free.pop_first().unwrap_or(model.len() as u32);
                assert_eq!(slot, expect, "lowest free id first, else append");
                let row = Some(ModelRow {
                    key,
                    ext,
                    expiry_secs,
                });
                if slot as usize == model.len() {
                    model.push(row);
                } else {
                    model[slot as usize] = row;
                }
                if k % 4 == 3 {
                    // Remove some older live mapping.
                    let start = k.wrapping_mul(2_654_435_761) as usize % model.len();
                    let victim = (start..model.len())
                        .chain(0..start)
                        .find(|&i| model[i].is_some())
                        .expect("something is live");
                    s.remove(victim as u32).expect("model says live");
                    free.insert(victim as u32);
                    removed.push(model[victim].take().expect("live"));
                }
                k += 1;
            }
            assert!(s.occupancy().slots > b as u64, "arena crossed {b}");

            now_secs += 3;
            let (_, mut due) = s.sweep_due(t(now_secs));
            due.sort_unstable();
            let expect_due: Vec<u32> = (0..model.len() as u32)
                .filter(|&i| matches!(&model[i as usize], Some(r) if r.expiry_secs <= now_secs))
                .collect();
            assert_eq!(due, expect_due, "due set past boundary {b}");
            for slot in due {
                s.remove(slot).expect("due slots are live");
                free.insert(slot);
                removed.push(model[slot as usize].take().expect("live"));
            }

            assert_eq!(s.len(), model.iter().flatten().count());
            for (slot, row) in model.iter().enumerate() {
                let Some(row) = row else { continue };
                assert_eq!(s.lookup_out(row.key), Some(slot as u32), "past {b}");
                assert_eq!(s.lookup_ext(Protocol::Udp, row.ext), Some(slot as u32));
                assert_eq!(s.get(slot as u32).external, row.ext);
            }
            for row in &removed {
                assert_eq!(s.lookup_out(row.key), None, "past {b}");
                assert_eq!(s.lookup_ext(Protocol::Udp, row.ext), None);
            }
        }
        let slots = s.occupancy().slots as usize;
        assert_eq!(
            s.arena_chunks() as usize,
            slots.div_ceil(Arena::<HotSlot>::CAP) + slots.div_ceil(Arena::<Slot>::CAP),
            "a chunk per chunkful, whatever chunk 0 went through"
        );
    }

    /// A hash whose tag is `high << 16 | start`: while the table has
    /// fewer than 2^16 cells, `start` is the probe's home and `high`
    /// the tag bits that tell same-home keys apart. `salt` lands in the
    /// low half, which no probe reads, so it makes distinct "keys" that
    /// collide on both.
    fn hash_of(high: u16, start: u16, salt: u32) -> u64 {
        ((high as u64) << 16 | start as u64) << 32 | salt as u64
    }

    /// The index invariant back-shift keeps: no empty cell lies between
    /// any live cell and its home, and `live` counts the cells.
    fn assert_runs_unbroken(idx: &OpenIndex) {
        if idx.cells.is_empty() {
            assert_eq!(idx.live, 0, "live cells in an unallocated table");
            return;
        }
        let mask = idx.mask();
        for (i, &cell) in idx.cells.iter().enumerate() {
            let mut j = idx.home(cell >> 32);
            while cell != CELL_EMPTY && j != i {
                assert_ne!(
                    idx.cells[j], CELL_EMPTY,
                    "hole between cell {i} and its home"
                );
                j = (j + 1) & mask;
            }
        }
        let filled = idx.cells.iter().filter(|&&c| c != CELL_EMPTY).count();
        assert_eq!(filled, idx.live);
    }

    #[test]
    fn open_index_hint_names_a_slot_whenever_get_does() {
        // `get` verifies by slot identity here: the model knows which
        // slot each hash was inserted under.
        let mut idx = OpenIndex::new();
        let hashes: Vec<u64> = (0..500u64).map(mix64).collect();
        for (slot, &h) in hashes.iter().enumerate() {
            idx.insert(h, slot as u32);
        }
        for slot in (0..500u32).step_by(3) {
            assert!(idx.remove(hashes[slot as usize], slot));
        }
        assert_runs_unbroken(&idx);
        for (slot, &h) in hashes.iter().enumerate() {
            let slot = slot as u32;
            idx.prefetch(h);
            let got = idx.get(h, |s| s == slot);
            if slot % 3 == 0 {
                assert_eq!(got, None, "removed");
            } else {
                assert_eq!(got, Some(slot));
                assert!(idx.hint(h).is_some(), "hint misses what get finds");
            }
        }
    }

    #[test]
    fn open_index_hint_is_unverified_under_a_tag_collision() {
        let mut idx = OpenIndex::new();
        let (a, b, never) = (
            hash_of(0xABCD, 3, 0),
            hash_of(0xABCD, 3, 1),
            hash_of(0xABCD, 3, 2),
        );
        idx.insert(a, 10);
        idx.insert(b, 20);
        // Same start cell, same tag: `get` tells them apart by asking
        // the slab, the hint takes the first cell on the path.
        assert_eq!(idx.get(a, |s| s == 10), Some(10));
        assert_eq!(idx.get(b, |s| s == 20), Some(20));
        assert_eq!(idx.hint(a), Some(10));
        assert_eq!(idx.hint(b), Some(10), "a different slot than get's");
        // A key that was never indexed still gets a candidate ...
        assert_eq!(idx.get(never, |_| false), None);
        assert_eq!(idx.hint(never), Some(10));
        // ... while another tag on the same path gets none.
        assert_eq!(idx.hint(hash_of(0xABCE, 3, 0)), None);
        // b is shifted back into a's cell.
        assert!(idx.remove(a, 10));
        assert_eq!((idx.cells[3] as u32, idx.cells[4]), (20, CELL_EMPTY));
        assert_eq!(idx.hint(a), Some(20), "stale: a is gone, b's cell answers");
        assert_eq!(idx.hint(b), Some(20));
        assert!(idx.remove(b, 20));
        assert_eq!(idx.hint(b), None);
    }

    #[test]
    fn open_index_backshift_wraps_past_the_last_cell() {
        // In a 16-cell table: four keys homed at `start`, two homed at
        // cell 0 and one at cell 1, so the run wraps from the last cell
        // to cell 0 and holds cells homed on both sides of the wrap.
        // Remove the first key of each home's run: every later cell
        // shifts back across the wrap, and none passes its home.
        for start in 13..16u16 {
            let mut idx = OpenIndex::new();
            let homes = [start, start, start, start, 0, 0, 1];
            let hashes: Vec<u64> = homes
                .iter()
                .enumerate()
                .map(|(k, &home)| hash_of(k as u16 + 1, home, 0))
                .collect();
            for (slot, &h) in hashes.iter().enumerate() {
                idx.insert(h, slot as u32);
            }
            assert_eq!(idx.cells.len(), 16);
            let run = |idx: &OpenIndex| -> Vec<Option<u32>> {
                (0..8)
                    .map(|k| idx.cells[(start as usize + k) & 15])
                    .map(|c| (c != CELL_EMPTY).then_some(c as u32))
                    .collect()
            };
            assert_eq!(
                run(&idx),
                [0, 1, 2, 3, 4, 5, 6]
                    .map(Some)
                    .into_iter()
                    .chain([None])
                    .collect::<Vec<_>>()
            );
            let mut gone = Vec::new();
            for first in [0u32, 4, 6] {
                assert!(idx.remove(hashes[first as usize], first));
                assert!(!idx.remove(hashes[first as usize], first), "removed once");
                gone.push(first);
                assert_runs_unbroken(&idx);
                for (slot, &h) in hashes.iter().enumerate() {
                    let slot = slot as u32;
                    let want = (!gone.contains(&slot)).then_some(slot);
                    assert_eq!(
                        idx.get(h, |s| s == slot),
                        want,
                        "start {start}, slot {slot}"
                    );
                }
            }
            // The run is the survivors in their old order, packed from
            // `start`: a cell never moves past its home.
            let packed = [1, 2, 3, 5].map(Some).into_iter().chain([None; 4]);
            assert_eq!(run(&idx), packed.collect::<Vec<_>>(), "start {start}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// `OpenIndex` is a map from keys to slots, checked against a
        /// `BTreeMap` after every op. Keys hash to at most 8 homes, so
        /// runs are long and overlap, and key `k` shares its whole tag
        /// with key `k + 8` (only `verify` tells them apart). After the
        /// random ops every key is inserted — 120 live cells, past the
        /// 96 a 128-cell table holds, so the index has doubled from 16
        /// cells at least four times — and then every key is removed.
        #[test]
        fn prop_open_index_is_a_map(
            ops in proptest::collection::vec((0u8..4, 0u32..120), 0..400),
            drain_from in 0u32..120,
        ) {
            let hash = |k: u32| hash_of((k / 16) as u16, (k % 8) as u16 * 5, k);
            let slot = |k: u32| k * 7 + 3;
            let mut idx = OpenIndex::new();
            let mut model = BTreeMap::new();
            let mut apply = |idx: &mut OpenIndex, insert: bool, k: u32| {
                if insert && !model.contains_key(&k) {
                    idx.insert(hash(k), slot(k));
                    model.insert(k, slot(k));
                } else if !insert {
                    prop_assert_eq!(idx.remove(hash(k), slot(k)), model.remove(&k).is_some());
                }
                assert_runs_unbroken(idx);
                prop_assert_eq!(idx.live, model.len());
                for k in 0..120 {
                    prop_assert_eq!(idx.get(hash(k), |s| s == slot(k)), model.get(&k).copied());
                }
            };
            for (op, k) in ops {
                apply(&mut idx, op < 3, k);
            }
            for k in 0..120 {
                apply(&mut idx, true, k);
            }
            prop_assert!(idx.cells.len() >= 256, "{} cells", idx.cells.len());
            // 7 is prime to 120, so this stride visits every key once.
            for i in 0..120 {
                apply(&mut idx, false, (drain_from + 7 * i) % 120);
            }
            prop_assert!(idx.cells.iter().all(|&c| c == CELL_EMPTY));
        }
    }

    #[test]
    fn prefetch_slot_covers_the_cold_row_it_assumes() {
        // `prefetch_slot` names one line of each row: a 32-byte-aligned
        // 32-byte cold row and a 16-byte hot row never straddle two.
        assert_eq!(
            (std::mem::size_of::<Slot>(), std::mem::align_of::<Slot>()),
            (32, 32),
            "update prefetch_slot and its rustdoc"
        );
        assert_eq!(std::mem::size_of::<HotSlot>(), 16);
        // Any id is accepted; out-of-range ones are ignored.
        let (s, slots) = store_with(3, 60);
        for slot in slots.into_iter().chain([3, u32::MAX]) {
            s.prefetch_slot(slot);
        }
    }

    #[test]
    fn cold_row_rederives_its_keys() {
        // The row stores no key: every verify re-packs it. Under each
        // mapping behaviour, as a NAT and as a transparent firewall
        // (the external endpoint is the internal one, on a pool of the
        // internal address), a seeded run of inserts and removes over
        // a small alphabet of hosts, ports, destinations and protocols
        // frees slots and hands them to new tenants. After every op,
        // every key ever inserted resolves through `lookup_out` and
        // `lookup_ext` exactly as a `BTreeMap` model says, and every
        // live slot's view is the mapping it was given.
        use MappingBehavior::*;
        for behavior in [
            EndpointIndependent,
            AddressDependent,
            AddressAndPortDependent,
        ] {
            for transparent in [false, true] {
                let mut s = MappingStore::new();
                let mut outs: BTreeMap<u128, u32> = BTreeMap::new();
                let mut exts: BTreeMap<(Protocol, Endpoint), u32> = BTreeMap::new();
                let mut live: BTreeMap<u32, (u128, Mapping)> = BTreeMap::new();
                let mut seen_out = BTreeSet::new();
                let mut seen_ext = BTreeSet::new();
                let (mut next_port, mut reused) = (5_000u16, 0);
                for op in 0..160u64 {
                    let r = mix64(op ^ (behavior as u64) << 8 ^ (transparent as u64) << 12);
                    if r % 3 == 0 && !live.is_empty() {
                        let nth = (r >> 8) as usize % live.len();
                        let slot = *live.keys().nth(nth).expect("in range");
                        let (key, m) = live.remove(&slot).expect("live");
                        let pool = s.pool_ids[&(m.external.ip, m.proto)];
                        assert_eq!(s.remove(slot), Some((m, pool)));
                        outs.remove(&key);
                        exts.remove(&(m.proto, m.external));
                    } else {
                        let internal = Endpoint::new(
                            ip(100, 64, 0, (r >> 8) as u8 % 3 + 1),
                            40_000 + (r >> 16) as u16 % 3,
                        );
                        let dst = Endpoint::new(
                            ip(203, 0, 113, (r >> 24) as u8 % 3),
                            80 + (r >> 32) as u16 % 2,
                        );
                        let proto = if r >> 40 & 1 == 0 {
                            Protocol::Udp
                        } else {
                            Protocol::Tcp
                        };
                        let key = s.out_key(behavior, proto, internal, dst);
                        let external = if transparent {
                            internal
                        } else {
                            next_port += 1;
                            Endpoint::new(ip(198, 51, 100, 1 + (r >> 48) as u8 % 2), next_port)
                        };
                        // The engine inserts only after a miss, and a
                        // firewall's second mapping of one internal
                        // endpoint would share its external one.
                        if outs.contains_key(&key) || exts.contains_key(&(proto, external)) {
                            continue;
                        }
                        let pool = s.intern_pool(external.ip, proto);
                        let slot = s.insert(key, pool, external.port, dst, t(60));
                        reused += (s.occupancy().slots > slot as u64 + 1) as usize;
                        let m = Mapping {
                            proto,
                            internal,
                            external,
                        };
                        outs.insert(key, slot);
                        exts.insert((proto, external), slot);
                        live.insert(slot, (key, m));
                        seen_out.insert(key);
                        seen_ext.insert((proto, external));
                    }
                    for key in &seen_out {
                        assert_eq!(s.lookup_out(*key), outs.get(key).copied(), "op {op}");
                    }
                    for &(proto, ext) in &seen_ext {
                        let want = exts.get(&(proto, ext)).copied();
                        assert_eq!(s.lookup_ext(proto, ext), want, "op {op}");
                    }
                    for (&slot, &(_, m)) in &live {
                        assert_eq!(s.get(slot), m);
                        assert_eq!(
                            (s.internal(slot), s.external(slot)),
                            (m.internal, m.external)
                        );
                    }
                    assert_eq!(s.len(), live.len());
                }
                assert!(reused > 0, "{behavior:?}: no slot was reused");
            }
        }
    }

    #[test]
    fn cold_row_spill_is_freed_with_the_slot() {
        // A mapping that contacts five destinations — two inline, three
        // spilled — admits exactly those under either restricted
        // filter; removal drops the spill with the slot, and the next
        // tenant of the slot starts from its own destination alone.
        let alphabet: Vec<Endpoint> = (1..=4u8)
            .flat_map(|a| [53, 80, 443].map(|p| Endpoint::new(ip(203, 0, 113, a), p)))
            .collect();
        let contacted = [
            alphabet[0],
            alphabet[4],
            alphabet[5],
            alphabet[9],
            alphabet[1],
        ];
        let internal = Endpoint::new(ip(100, 64, 0, 1), 40_000);
        let external = Endpoint::new(ip(198, 51, 100, 1), 10_000);
        let (mut s, _) = store_with(2, 60);
        s.remove(0).expect("live");
        let key = s.out_key(
            MappingBehavior::EndpointIndependent,
            Protocol::Udp,
            internal,
            contacted[0],
        );
        let pool = s.intern_pool(external.ip, Protocol::Udp);
        let slot = s.insert(key, pool, external.port, contacted[0], t(60));
        assert_eq!(slot, 0);
        for &e in &contacted[1..] {
            assert!(s.contact(slot, e));
            assert!(!s.contact(slot, e), "a set");
        }
        assert_eq!(s.slots[0].spilled().len(), 3);
        for e in &alphabet {
            assert_eq!(s.has_contacted(slot, e), contacted.contains(e), "APDF {e}");
            let ip_seen = contacted.iter().any(|c| c.ip == e.ip);
            assert_eq!(s.has_contacted_ip(slot, e.ip), ip_seen, "ADF {e}");
        }
        assert_eq!(
            s.get(slot),
            Mapping {
                proto: Protocol::Udp,
                internal,
                external
            }
        );

        s.remove(slot).expect("live");
        assert!(s.slots[0].spill.is_none(), "the spill went with the slot");
        assert_eq!(s.slots[0].contacts().count(), 0);
        let next = Endpoint::new(ip(203, 0, 113, 9), 8080);
        let key = s.out_key(
            MappingBehavior::EndpointIndependent,
            Protocol::Udp,
            internal,
            next,
        );
        assert_eq!(s.insert(key, pool, external.port, next, t(90)), slot);
        assert_eq!(s.slots[0].contacts().copied().collect::<Vec<_>>(), [next]);
        for e in &alphabet {
            assert!(
                !s.has_contacted(slot, e) && !s.has_contacted_ip(slot, e.ip),
                "{e}"
            );
        }
    }

    #[test]
    fn store_hints_follow_lookups_and_survive_removal() {
        let (mut s, slots) = store_with(40, 60);
        s.flush_ext_index(); // `hint_ext` reads the index alone
        let key_of = |s: &MappingStore, slot: u32| s.out_key_of(&s.slots[slot as usize]);
        for &slot in &slots {
            let key = key_of(&s, slot);
            s.prefetch_out_cell(key);
            assert_eq!(s.lookup_out(key), Some(slot));
            assert_eq!(s.hint_out(key), Some(slot), "no collisions among 40 keys");
            let ext = s.slots[slot as usize].ext_key();
            s.prefetch_ext_cell(ext);
            assert_eq!(s.hint_ext(ext), s.lookup_ext_key(ext));
        }
        let gone = key_of(&s, 7);
        s.remove(7).expect("live");
        assert_eq!((s.lookup_out(gone), s.hint_out(gone)), (None, None));
    }

    #[test]
    fn ext_lookup_never_interns_strays() {
        let (s, _) = store_with(2, 60);
        let pools_before = s.pool_count();
        assert!(s
            .lookup_ext(Protocol::Udp, Endpoint::new(ip(9, 9, 9, 9), 1))
            .is_none());
        assert_eq!(s.pool_count(), pools_before);
        assert!(s
            .lookup_ext(Protocol::Udp, Endpoint::new(ip(198, 51, 100, 1), 10_001))
            .is_some());
        assert!(
            s.lookup_ext(Protocol::Tcp, Endpoint::new(ip(198, 51, 100, 1), 10_001))
                .is_none(),
            "protocol is part of the pool identity"
        );
    }

    #[test]
    fn active_ports_per_host_counts_only_unexpired() {
        let mut s = MappingStore::new();
        for (host_last, port, expiry) in [(1u8, 1000u16, 60u64), (1, 1001, 60), (2, 1002, 30)] {
            let internal = Endpoint::new(ip(100, 64, 0, host_last), 40_000 + port);
            let key = s.out_key(
                MappingBehavior::AddressAndPortDependent,
                Protocol::Udp,
                internal,
                Endpoint::new(ip(203, 0, 113, 1), port),
            );
            insert(
                &mut s,
                key,
                mapping(
                    internal,
                    Endpoint::new(ip(198, 51, 100, 1), port),
                    t(expiry),
                ),
            );
        }
        assert_eq!(s.active_ports_per_host(t(0)), vec![2, 1]);
        assert_eq!(
            s.active_ports_per_host(t(30)),
            vec![2],
            "expired host dropped"
        );
        assert_eq!(s.active_ports_per_host(t(60)), Vec::<u32>::new());
        // A freed slot counts for nobody, whatever `now` is.
        s.remove(2).expect("live");
        assert_eq!(s.active_ports_per_host(t(0)), vec![2]);
    }

    #[test]
    fn occupancy_tracks_every_counter() {
        let (mut s, _) = store_with(4, 60);
        s.remove(3);
        let o = s.occupancy();
        assert_eq!(o.slots, 4);
        assert_eq!(o.live, 3);
        assert_eq!(o.free, 1);
        assert!(o.hosts_interned >= 1);
        assert_eq!(o.pools_interned, 1);
        assert_eq!(o.timers, 4, "freed slot's entry is parked until drained");
        let mut merged = StoreOccupancy::default();
        merged.merge(&o);
        merged.merge(&o);
        assert_eq!(merged.live, 6);
        assert_eq!(merged.slots, 8);
    }

    #[test]
    fn mix_hasher_is_deterministic() {
        use std::hash::Hasher;
        let mut a = Mix64Hasher::default();
        let mut b = Mix64Hasher::default();
        a.write_u128(0xDEAD_BEEF_0123_4567_89AB_CDEF_0011_2233);
        b.write_u128(0xDEAD_BEEF_0123_4567_89AB_CDEF_0011_2233);
        assert_eq!(a.finish(), b.finish());
        let mut c = Mix64Hasher::default();
        c.write_u128(0xDEAD_BEEF_0123_4567_89AB_CDEF_0011_2234);
        assert_ne!(a.finish(), c.finish());
    }
}
