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
//!   crate-private `arena` module): 2 MiB-aligned chunks, so growth
//!   appends a chunk instead of reallocating and copying the slab (no
//!   copy storms at CGN populations). Only the first chunk, while it
//!   holds less than a chunkful, is a small allocation that doubles —
//!   a home CPE NAT with ten mappings reserves kilobytes, not two
//!   hugepages. Rows are only ever reached by slot id through the
//!   store's own borrows, never by a pointer held across an insert,
//!   so that early movement is invisible. A freed slot goes into an
//!   address-ordered free-set — a hierarchical bitmap, one bit per
//!   slot under summary words — and the next insert reuses the
//!   *lowest* free id, packing live slots toward the front of the
//!   arena for locality. Because the set can be read in order without
//!   being taken apart, the rows the next few inserts will fill are
//!   known in advance. Slot ids are `u32` (half the old `u64` ids) and
//!   index the arena directly — no second hash lookup to reach the
//!   mapping.
//!
//! * **Interned keys** — internal hosts intern to dense `u32` ids
//!   ([`MappingStore::intern_host`]); `(external IP, protocol)` pairs
//!   intern to dense `u32` pool ids ([`MappingStore::intern_pool`]).
//!   Per-host state (session counts, paired-pooling assignment) lives
//!   in a plain `Vec` indexed by host id. The outbound key packs into
//!   one `u128` (layout below), the external key into one `u64`, and
//!   both indices hash those integers with a SplitMix64-based hasher
//!   ([`mix64`]) instead of SipHash over tuples.
//!
//! * **Hot/cold slot split** — the fields every sweep and every
//!   expiry check touch (timer ticket, wheel bookkeeping, the expiry —
//!   its only copy — and the owning host id) live in a dense parallel
//!   array of 32-byte `HotSlot` rows; the cold remainder (packed keys,
//!   the full [`Mapping`] with its filter state) is one 64-byte,
//!   line-aligned row in the slab, so a lookup misses on one line of
//!   each. A sweep or a demand sample walks only the hot array — a
//!   third of the cache traffic of dragging whole slots through the
//!   LLC.
//!
//! * **Open-addressed indices** — the out-key and ext-key maps are
//!   flat linear-probe tables with 8-byte cells (a 32-bit fingerprint
//!   tag + the slot id); full keys are verified against the slab on
//!   fingerprint hits. Compared to the previous `HashMap` (16/32-byte
//!   entries plus per-group control metadata), probes touch half the
//!   index bytes. A burst overlaps its misses in two steps: prefetch
//!   the cell each key's probe starts at, then read the cached cells
//!   with a tag-only probe and [`MappingStore::prefetch_slot`] the
//!   candidate's rows, before any packet is translated. A key the
//!   probe finds nothing for is a create about to happen: for those
//!   the burst prefetches as many of the lowest free rows
//!   ([`MappingStore::prefetch_free_slots`]). The one cell no stage
//!   can know in advance — the ext-index cell of a port not yet
//!   chosen — is prefetched when the port is, and written a few
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
//! bits  16..48   interned (external IP, protocol) pool id (u32)
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
//! drained.

use crate::arena::{Arena, ARENA_CHUNK_BYTES};
use crate::config::MappingBehavior;
use crate::wheel::WheelGeometry;
use netcore::{Endpoint, Protocol, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::net::Ipv4Addr;

pub use netcore::hash::{mix64, Mix64Hasher, MixMap};

/// The destination endpoints a mapping has contacted — the filter
/// state for restricted NATs. Semantically a set; physically the
/// first two endpoints live inline (no heap allocation for the
/// dominant 1-contact case) and further ones spill to a boxed vector
/// scanned linearly — one pointer in the row, so the whole set is
/// 24 bytes. At realistic fan-outs (tens of destinations) a short
/// sequential scan beats a `HashSet`'s hash + random probe, and
/// keepalive traffic hits its own destination in the first slot.
#[derive(Debug, Clone)]
pub struct ContactSet {
    inline: [Endpoint; CONTACTS_INLINE],
    inline_len: u8,
    /// Boxed on purpose: one word in the row where a `Vec` takes three.
    #[allow(clippy::box_collection)]
    spill: Option<Box<Vec<Endpoint>>>,
}

impl Default for ContactSet {
    fn default() -> Self {
        Self::new()
    }
}

const CONTACTS_INLINE: usize = 2;

impl ContactSet {
    pub fn new() -> Self {
        ContactSet {
            inline: [Endpoint::new(Ipv4Addr::UNSPECIFIED, 0); CONTACTS_INLINE],
            inline_len: 0,
            spill: None,
        }
    }

    fn spilled(&self) -> &[Endpoint] {
        self.spill.as_deref().map_or(&[], Vec::as_slice)
    }

    pub fn len(&self) -> usize {
        self.inline_len as usize + self.spilled().len()
    }

    pub fn is_empty(&self) -> bool {
        self.inline_len == 0
    }

    pub fn contains(&self, e: &Endpoint) -> bool {
        self.inline[..self.inline_len as usize].contains(e) || self.spilled().contains(e)
    }

    /// Insert with set semantics; returns `true` if newly added.
    pub fn insert(&mut self, e: Endpoint) -> bool {
        if self.contains(&e) {
            return false;
        }
        if (self.inline_len as usize) < CONTACTS_INLINE {
            self.inline[self.inline_len as usize] = e;
            self.inline_len += 1;
        } else {
            self.spill.get_or_insert_with(Box::default).push(e);
        }
        true
    }

    pub fn iter(&self) -> impl Iterator<Item = &Endpoint> {
        self.inline[..self.inline_len as usize]
            .iter()
            .chain(self.spilled())
    }
}

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

/// One translation table entry: who it translates and its filter and
/// TCP state. Its expiry is not here — the store keeps the one copy in
/// the slot's hot row ([`MappingStore::insert`],
/// [`MappingStore::set_expiry`], [`MappingStore::expired_at`]). 40
/// bytes as `Option<Mapping>`, so a cold row is one cache line.
#[derive(Debug, Clone)]
pub struct Mapping {
    pub proto: Protocol,
    /// The subscriber-side endpoint (`IPint:portint`).
    pub internal: Endpoint,
    /// The public-side endpoint (`IPext:portext`).
    pub external: Endpoint,
    /// Destination endpoints contacted through this mapping — the filter
    /// state for restricted NATs.
    pub contacted: ContactSet,
    pub(crate) tcp: Option<TcpConnState>,
}

impl Mapping {
    /// A fresh mapping with empty filter state and no TCP tracking.
    pub fn new(proto: Protocol, internal: Endpoint, external: Endpoint) -> Self {
        Mapping {
            proto,
            internal,
            external,
            contacted: ContactSet::new(),
            tcp: None,
        }
    }
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

/// One parked expiry: 16 bytes, four to a cache line.
///
/// The entry is authoritative exactly when `ticket == hot.ticket &&
/// hot.live` for its slot's [`HotSlot`]. The slot's ticket moves on
/// every free and on every filing, so an entry for a freed or reused
/// slot and an entry superseded by a later filing (a shortening, or a
/// lazy extension re-parked by the sweep) both fail the check; at most
/// one entry can ever expire or reschedule a slot — duplicates (e.g. a
/// shorten followed by an extension back to the old deadline) die
/// stale on it.
#[derive(Debug, Clone, Copy)]
struct TimerEntry {
    slot: u32,
    /// The slot's [`HotSlot::ticket`] when this entry was filed.
    ticket: u32,
    deadline_ms: u64,
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
///   would have found.
#[derive(Debug)]
struct TimerWheel {
    /// Virtual time the wheel has been advanced to.
    horizon_ms: u64,
    /// Each level's buckets: empty until an entry lands on the level,
    /// [`WHEEL_BUCKETS`] headers from then on.
    levels: [Vec<Vec<TimerEntry>>; WHEEL_LEVELS],
    /// Bit `b` of word `l`: bucket `b` of level `l` is not empty.
    occupied: [u64; WHEEL_LEVELS],
    /// Entries currently parked in buckets (live + stale).
    entries: usize,
    /// Entries re-distributed downward by cascades since creation —
    /// the wheel's background re-filing work, a pure function of the
    /// deadline stream (one add per moved entry, cheap enough to
    /// count unconditionally).
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

    /// Park `e` where its deadline belongs relative to the current
    /// horizon — the shared [`WheelGeometry::place`] arithmetic
    /// (already-due deadlines park in the horizon's own level-0
    /// bucket; beyond-span deadlines park farthest and re-cascade).
    #[inline]
    fn park(&mut self, e: TimerEntry) {
        let (level, bucket) = WHEEL_GEOM.place(self.horizon_ms, e.deadline_ms);
        if self.levels[level].is_empty() {
            self.open_level(level);
        }
        self.levels[level][bucket].push(e);
        self.occupied[level] |= 1 << bucket;
    }

    /// Allocate a level's bucket headers: at most once per level.
    #[cold]
    fn open_level(&mut self, level: usize) {
        self.levels[level].resize_with(WHEEL_BUCKETS, Vec::new);
    }

    /// Empty one bucket and hand its entries over.
    fn take(&mut self, level: usize, bucket: usize) -> Vec<TimerEntry> {
        if self.occupied[level] >> bucket & 1 == 0 {
            return Vec::new();
        }
        self.occupied[level] &= !(1 << bucket);
        std::mem::take(&mut self.levels[level][bucket])
    }

    #[inline]
    fn schedule(&mut self, e: TimerEntry) {
        self.park(e);
        self.entries += 1;
    }

    /// Re-distribute one higher-level bucket downward (called when the
    /// level below wraps around).
    fn cascade(&mut self, level: usize, bucket: usize) {
        let drained = self.take(level, bucket);
        self.cascaded += drained.len() as u64;
        for e in drained {
            self.park(e);
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
    /// the entries behind them.
    #[cfg(test)]
    fn reserved_bytes(&self) -> usize {
        let headers = self.levels.iter().map(Vec::capacity).sum::<usize>();
        let entries = self
            .levels
            .iter()
            .flatten()
            .map(Vec::capacity)
            .sum::<usize>();
        headers * std::mem::size_of::<Vec<TimerEntry>>()
            + entries * std::mem::size_of::<TimerEntry>()
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
/// A tombstone cell: tag 1, slot 0.
const CELL_TOMB: u64 = 1 << 32;

/// Open-addressed `key → slot` index over the store's packed integer
/// keys: one `u64` cell per entry (key-fingerprint tag in the high 32
/// bits, slot id in the low 32) with linear probing and tombstone
/// deletion. Tag `0` = empty, `1` = tombstone, fingerprints are ≥ 2.
/// Packing tag and slot into a single word matters on the hot path: a
/// probe hit reads one cache line instead of touching parallel tag and
/// slot arrays (two lines), and a table rebuild streams one array.
/// On a fingerprint hit the caller verifies the full key against the
/// slab, so the index never stores keys at all. Callers supply the
/// hash — the store keys are already packed integers, so one [`mix64`]
/// avalanche is the whole hash function.
#[derive(Debug)]
struct OpenIndex {
    /// `CELL_EMPTY`, `CELL_TOMB`, or `fingerprint << 32 | slot`.
    cells: Vec<u64>,
    live: usize,
    tombstones: usize,
}

impl OpenIndex {
    fn new() -> OpenIndex {
        OpenIndex {
            cells: vec![CELL_EMPTY; 16],
            live: 0,
            tombstones: 0,
        }
    }

    #[inline]
    fn fingerprint(hash: u64) -> u32 {
        // High bits (the probe start uses the low bits) nudged off the
        // two reserved tag values.
        ((hash >> 32) as u32).max(2)
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
    /// reusable cell wins. `rehash` recomputes a stored slot's key
    /// hash when the table grows.
    fn insert(&mut self, hash: u64, slot: u32, rehash: impl Fn(u32) -> u64) {
        if (self.live + self.tombstones + 1) * 4 > self.cells.len() * 3 {
            self.grow(rehash);
        }
        let mask = self.mask();
        let mut i = hash as usize & mask;
        loop {
            let cell = self.cells[i];
            if cell <= CELL_TOMB {
                if cell == CELL_TOMB {
                    self.tombstones -= 1;
                }
                self.cells[i] = (Self::fingerprint(hash) as u64) << 32 | slot as u64;
                self.live += 1;
                return;
            }
            i = (i + 1) & mask;
        }
    }

    /// Find the slot stored under `hash` whose full key matches
    /// (`verify` checks the slab). Probes stop at the first empty cell.
    #[inline]
    fn get(&self, hash: u64, verify: impl Fn(u32) -> bool) -> Option<u32> {
        let fp = Self::fingerprint(hash);
        let mask = self.mask();
        let mut i = hash as usize & mask;
        loop {
            let cell = self.cells[i];
            if cell == CELL_EMPTY {
                return None;
            }
            if (cell >> 32) as u32 == fp && verify(cell as u32) {
                return Some(cell as u32);
            }
            i = (i + 1) & mask;
        }
    }

    /// Prefetch the cell a probe for `hash` starts at.
    #[inline]
    fn prefetch(&self, hash: u64) {
        prefetch_line(&self.cells[hash as usize & self.mask()]);
    }

    /// Tag-only probe: the slot of the first cell on `hash`'s probe
    /// path that carries its fingerprint, with no key verify — so it
    /// reads index cells only. Returns a slot whenever [`get`] would
    /// (the verified cell is on the same path), but under a tag
    /// collision it may name another key's slot, or one for a key
    /// that is not indexed at all. Good for prefetching, nothing else.
    ///
    /// [`get`]: OpenIndex::get
    #[inline]
    fn hint(&self, hash: u64) -> Option<u32> {
        self.get(hash, |_| true)
    }

    /// Remove the cell holding exactly `slot` under `hash` (slot ids
    /// are unique in the index, so identity is the full-key check).
    fn remove(&mut self, hash: u64, slot: u32) -> bool {
        let target = (Self::fingerprint(hash) as u64) << 32 | slot as u64;
        let mask = self.mask();
        let mut i = hash as usize & mask;
        loop {
            let cell = self.cells[i];
            if cell == CELL_EMPTY {
                return false;
            }
            if cell == target {
                self.cells[i] = CELL_TOMB;
                self.live -= 1;
                self.tombstones += 1;
                return true;
            }
            i = (i + 1) & mask;
        }
    }

    /// Rebuild at double capacity when genuinely full, or in place
    /// when tombstones are what crossed the load threshold.
    fn grow(&mut self, rehash: impl Fn(u32) -> u64) {
        let cap = if (self.live + 1) * 2 > self.cells.len() {
            self.cells.len() * 2
        } else {
            self.cells.len()
        };
        let old = std::mem::replace(&mut self.cells, vec![CELL_EMPTY; cap]);
        self.live = 0;
        self.tombstones = 0;
        let mask = cap - 1;
        for cell in old {
            if cell <= CELL_TOMB {
                continue;
            }
            let slot = cell as u32;
            let mut i = rehash(slot) as usize & mask;
            while self.cells[i] != CELL_EMPTY {
                i = (i + 1) & mask;
            }
            self.cells[i] = cell;
            self.live += 1;
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
/// `log2(len)` data-dependent comparisons. And unlike a heap the set
/// can be *read* in order ([`FreeSet::for_lowest`]), which is what
/// lets a burst prefetch the rows its creates are about to fill. One
/// bit per slot rather than four bytes per free id, and nothing is
/// allocated until the first id is pushed.
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
        let mut i = self.lowest_under(self.levels.len(), 0);
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

    /// Call `f` with the `n` lowest ids (all of them, if fewer), in
    /// the order `n` pops would return them; the set is unchanged.
    fn for_lowest(&self, n: usize, mut f: impl FnMut(u32)) {
        let mut from = 0;
        for _ in 0..n.min(self.len) {
            let id = self.lowest_from(from).expect("len counts the ids");
            f(id as u32);
            from = id + 1;
        }
    }

    /// The lowest id that is at least `from`.
    fn lowest_from(&self, from: usize) -> Option<usize> {
        // Climb until some level has a bit at or after the position:
        // first inside the word holding it, then from the next word on,
        // which is the next bit of the level above.
        let (mut level, mut i) = (0, from);
        loop {
            let word = self.levels.get(level)?.get(i / 64)? & !0 << (i % 64);
            if word != 0 {
                i = i / 64 * 64 + word.trailing_zeros() as usize;
                break;
            }
            (level, i) = (level + 1, i / 64 + 1);
        }
        Some(self.lowest_under(level, i))
    }

    /// Descend from bit `i` of `levels[level]`, which is set, to the
    /// lowest id it summarises. One level past the top, `i = 0` stands
    /// for the single top word of a non-empty set.
    fn lowest_under(&self, level: usize, mut i: usize) -> usize {
        for words in self.levels[..level].iter().rev() {
            i = i * 64 + words[i].trailing_zeros() as usize;
        }
        i
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
/// a dense parallel array (32 bytes per row) so those paths never pull
/// the 64-byte cold row through the cache.
#[derive(Debug, Clone, Copy)]
struct HotSlot {
    /// Bumped on every free and every time a timer entry is filed for
    /// this slot. A [`TimerEntry`] is authoritative exactly when it
    /// carries the current ticket and the slot is live: a free stales
    /// every parked entry, a filing every earlier one. An entry parked
    /// across 2^32 bumps of its slot would pass for current: billions
    /// of packets to one slot inside one mapping timeout.
    ticket: u32,
    /// Deadline of this slot's authoritative timer entry (used to
    /// decide whether a new expiry shortens or lazily extends it).
    wheel_deadline: u64,
    /// The mapping's expiry in ms — its only copy, written by
    /// [`MappingStore::insert`] and [`MappingStore::set_expiry`].
    expiry_ms: u64,
    /// Interned internal-host id of the occupant.
    host: u32,
    /// Whether the slot holds a live mapping (mirrors
    /// `Slot::mapping.is_some()` without touching the cold row).
    live: bool,
}

/// Cold remainder of a slot: the packed keys (read on index verify and
/// removal) and the full mapping (read on translation refresh). One
/// 64-byte, line-aligned row: a lookup's verify, refresh and filter
/// check touch a single cache line of it.
#[derive(Debug)]
#[repr(align(64))]
struct Slot {
    out_key: u128,
    ext_key: u64,
    mapping: Option<Mapping>,
}

// A full chunk of either row is exactly one 2 MiB extent, so the
// hugepage advice on a chunk covers its own rows and nothing else.
const _: () = assert!(Arena::<Slot>::CAP * std::mem::size_of::<Slot>() == ARENA_CHUNK_BYTES);
const _: () = assert!(Arena::<HotSlot>::CAP * std::mem::size_of::<HotSlot>() == ARENA_CHUNK_BYTES);
// Four timer entries to a cache line, and the hot row's ticket leaves
// it at 32 bytes.
const _: () = assert!(std::mem::size_of::<TimerEntry>() == 16);
const _: () = assert!(std::mem::size_of::<HotSlot>() == 32);

impl HotSlot {
    /// Move the ticket on and point the wheel deadline at
    /// `deadline_ms`: the entry returned is now `slot`'s only
    /// authoritative one, ready to park.
    #[inline]
    fn file(&mut self, slot: u32, deadline_ms: u64) -> TimerEntry {
        self.ticket = self.ticket.wrapping_add(1);
        self.wheel_deadline = deadline_ms;
        TimerEntry {
            slot,
            ticket: self.ticket,
            deadline_ms,
        }
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
    /// Cold rows (keys + full mappings), parallel to `hot`.
    slots: Arena<Slot>,
    /// Hot rows (timer ticket, wheel bookkeeping, cached expiry, host).
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
        let id = u32::try_from(self.pools.len()).expect("more than 2^32 (ip, proto) pools");
        assert!(id < (1 << 31), "pool id must pack into 48-bit ext keys");
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
        let base = (host as u128) << 16 | internal.port as u128;
        let proto_bit = match proto {
            Protocol::Udp => 0u128,
            Protocol::Tcp => 1u128,
        } << 98;
        match behavior {
            MappingBehavior::EndpointIndependent => base | (KIND_EIM << 96) | proto_bit,
            MappingBehavior::AddressDependent => {
                base | (u32::from(dst.ip) as u128) << 64 | (KIND_ADM << 96) | proto_bit
            }
            MappingBehavior::AddressAndPortDependent => {
                base | (dst.port as u128) << 48
                    | (u32::from(dst.ip) as u128) << 64
                    | (KIND_APDM << 96)
                    | proto_bit
            }
        }
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
            self.slots[s as usize].out_key == key
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
        let holds_key = |s: u32| self.slots[s as usize].ext_key == key;
        self.ext_index.get(hash, holds_key).or_else(|| {
            let mut behind = self.ext_behind.iter();
            behind.find_map(|&(h, s)| (h == hash && holds_key(s)).then_some(s))
        })
    }

    /// Hot-array expiry check for a live slot — the burst pipeline's
    /// reuse test, touching one 32-byte row instead of the cold
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

    /// Prefetch the whole of a slot's rows: one line each. The 32-byte
    /// hot rows pack two to a line in a full (2 MiB-aligned) chunk, and
    /// a cold row is one line-aligned 64-byte line of its own. A hint
    /// only: any slot id is accepted, out-of-range ones are ignored.
    #[inline]
    pub fn prefetch_slot(&self, slot: u32) {
        if let (Some(hot), Some(cold)) =
            (self.hot.get(slot as usize), self.slots.get(slot as usize))
        {
            prefetch_line(hot);
            prefetch_line(cold);
        }
    }

    /// Burst stage 2, outbound, for the packets [`MappingStore::hint_out`]
    /// found nothing for: each of those is about to create a mapping,
    /// and the next `creates` inserts fill the `creates` lowest free
    /// slots in order, so prefetch those rows. Inserts beyond the
    /// free-list append to the arena, where there is no row to fetch
    /// yet. A hint like any other: a create that does not happen, or
    /// a lower slot freed in between, makes some of it useless.
    #[inline]
    pub fn prefetch_free_slots(&self, creates: usize) {
        self.free
            .for_lowest(creates, |slot| self.prefetch_slot(slot));
    }

    /// Look-ahead for a caller that removes the slots of `due` in
    /// order and is about to remove `due[i]`: prefetch the rows of the
    /// slot `2 * SWEEP_LOOKAHEAD` places on, and — from the keys in
    /// the cold row fetched that way `SWEEP_LOOKAHEAD` removals ago —
    /// the two index cells [`MappingStore::remove`] will tombstone for
    /// the slot `SWEEP_LOOKAHEAD` places on.
    #[inline]
    pub fn prefetch_removals(&self, due: &[u32], i: usize) {
        if let Some(&slot) = due.get(i + 2 * SWEEP_LOOKAHEAD) {
            self.prefetch_slot(slot);
        }
        if let Some(&slot) = due.get(i + SWEEP_LOOKAHEAD) {
            let cold = &self.slots[slot as usize];
            self.out_index.prefetch(Self::hash_out(cold.out_key));
            self.ext_index.prefetch(Self::hash_ext(cold.ext_key));
        }
    }

    /// Borrow a live mapping. Panics on a freed slot id.
    pub fn get(&self, slot: u32) -> &Mapping {
        self.slots[slot as usize]
            .mapping
            .as_ref()
            .expect("slot is free")
    }

    /// Mutably borrow a live mapping. Panics on a freed slot id.
    pub fn get_mut(&mut self, slot: u32) -> &mut Mapping {
        self.slots[slot as usize]
            .mapping
            .as_mut()
            .expect("slot is free")
    }

    /// Iterate `(slot id, mapping)` over live slots in arena order.
    pub fn iter_live(&self) -> impl Iterator<Item = (u32, &Mapping)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.mapping.as_ref().map(|m| (i as u32, m)))
    }

    // -- mutation ----------------------------------------------------------

    /// Insert a mapping under its packed out-key, indexing the external
    /// endpoint — `pool` is the interned id of its `(IP, protocol)`
    /// ([`MappingStore::intern_pool`]) — and scheduling `expiry` on
    /// the timer wheel; the slot's hot row keeps the expiry, the
    /// mapping carries none. Returns the slot id. Increments the owning
    /// host's session counter.
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
    pub fn insert(&mut self, out_key: u128, pool: u32, mapping: Mapping, expiry: SimTime) -> u32 {
        debug_assert_eq!(
            self.pools[pool as usize],
            (mapping.external.ip, mapping.proto)
        );
        let host = Self::host_of_key(out_key);
        let ext_key = Self::pack_ext(pool, mapping.external.port);
        let ext_hash = Self::hash_ext(ext_key);
        self.ext_index.prefetch(ext_hash);
        let deadline = expiry.as_millis();
        let slot = match self.free.pop() {
            Some(s) => {
                let hot = &mut self.hot[s as usize];
                hot.expiry_ms = deadline;
                hot.host = host;
                hot.live = true;
                let cold = &mut self.slots[s as usize];
                cold.out_key = out_key;
                cold.ext_key = ext_key;
                cold.mapping = Some(mapping);
                s
            }
            None => {
                let s = u32::try_from(self.slots.len()).expect("more than 2^32 mapping slots");
                self.hot.push(HotSlot {
                    ticket: 0,
                    wheel_deadline: deadline,
                    expiry_ms: deadline,
                    host,
                    live: true,
                });
                self.slots.push(Slot {
                    out_key,
                    ext_key,
                    mapping: Some(mapping),
                });
                s
            }
        };
        let e = self.hot[slot as usize].file(slot, deadline);
        self.wheel.schedule(e);
        let slots = &self.slots;
        self.out_index.insert(Self::hash_out(out_key), slot, |s| {
            Self::hash_out(slots[s as usize].out_key)
        });
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
            let slots = &self.slots;
            self.ext_index
                .insert(hash, slot, |s| Self::hash_ext(slots[s as usize].ext_key));
        }
    }

    /// Perform every ext-index insert still written behind (see
    /// [`MappingStore::insert`]), oldest first.
    #[inline]
    pub fn flush_ext_index(&mut self) {
        self.write_ext_behind(0);
    }

    /// Remove a mapping: drop it from both indices, decrement its
    /// host's session counter, free the slot (bumping the ticket so
    /// parked timer entries die stale), and return the mapping plus the
    /// pool id its external port came from (for the caller's port
    /// release).
    pub fn remove(&mut self, slot: u32) -> Option<(Mapping, u32)> {
        self.flush_ext_index();
        let cold = &mut self.slots[slot as usize];
        let mapping = cold.mapping.take()?;
        let out_key = cold.out_key;
        let ext_key = cold.ext_key;
        let hot = &mut self.hot[slot as usize];
        hot.ticket = hot.ticket.wrapping_add(1);
        hot.live = false;
        let host = hot.host;
        self.out_index.remove(Self::hash_out(out_key), slot);
        self.ext_index.remove(Self::hash_ext(ext_key), slot);
        let sessions = &mut self.hosts[host as usize].sessions;
        *sessions = sessions.saturating_sub(1);
        self.free.push(slot);
        self.live -= 1;
        Some((mapping, (ext_key >> 16) as u32))
    }

    /// Set a mapping's expiry, keeping the timer wheel honest: an
    /// extension is lazy (the parked entry re-schedules itself when it
    /// fires), a shortening files a new earlier entry and invalidates
    /// the parked one.
    pub fn set_expiry(&mut self, slot: u32, expiry: SimTime) {
        let ms = expiry.as_millis();
        let hot = &mut self.hot[slot as usize];
        assert!(hot.live, "slot is free");
        hot.expiry_ms = ms;
        if ms < hot.wheel_deadline {
            let e = hot.file(slot, ms);
            self.wheel.schedule(e);
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
        let mut resched: Vec<TimerEntry> = Vec::new();
        let mut tick = self.wheel.horizon_ms >> WHEEL_SHIFTS[0];
        let end = now_ms >> WHEEL_SHIFTS[0];
        loop {
            let drained = self.wheel.take(0, tick as usize % WHEEL_BUCKETS);
            for (i, e) in drained.iter().enumerate() {
                self.wheel.entries -= 1;
                inspected += 1;
                // Pure hot-array pass: stale check, expiry check, and
                // lazy rescheduling all read the 32-byte row — the
                // cold slot is never touched during a sweep. Entries
                // name rows in no order, so the row a few entries on
                // is fetched while this one is judged.
                let ahead = drained.get(i + SWEEP_LOOKAHEAD);
                if let Some(hot) = ahead.and_then(|e| self.hot.get(e.slot as usize)) {
                    prefetch_line(hot);
                }
                let hot = &mut self.hot[e.slot as usize];
                if hot.ticket != e.ticket || !hot.live {
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
                    resched.push(hot.file(e.slot, hot.expiry_ms));
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
                self.wheel.cascade(level, bucket);
            }
        }
        self.wheel.horizon_ms = now_ms;
        for e in resched {
            self.wheel.schedule(e);
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
        // Hot-array scan: live flag, cached expiry, and host id are
        // all in the 32-byte row.
        for hot in self.hot.iter() {
            if hot.live && hot.expiry_ms > now_ms {
                counts[hot.host as usize] += 1;
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
    use std::collections::BTreeSet;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    /// A UDP mapping and the expiry it is to be inserted with.
    fn mapping(internal: Endpoint, external: Endpoint, expiry: SimTime) -> (Mapping, SimTime) {
        (Mapping::new(Protocol::Udp, internal, external), expiry)
    }

    /// `MappingStore::insert` with the pool interned on the way, as
    /// the engine's create path does.
    fn insert(s: &mut MappingStore, key: u128, (m, expiry): (Mapping, SimTime)) -> u32 {
        let pool = s.intern_pool(m.external.ip, m.proto);
        s.insert(key, pool, m, expiry)
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
    fn wheel_tables_appear_with_the_first_entry_of_their_level() {
        const TABLE: usize = WHEEL_BUCKETS * std::mem::size_of::<Vec<TimerEntry>>();
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
    fn ten_mappings_reserve_kilobytes_not_hugepages() {
        let (s, _) = store_with(10, 60);
        assert_eq!(s.arena_chunks(), 2, "one hot + one cold chunk");
        let reserved = s.slots.reserved_bytes() + s.hot.reserved_bytes();
        assert!(reserved <= 16 * 1024, "{reserved} bytes for 10 mappings");
    }

    /// The ids where a summary word of the free-set ends: 64 ids to a
    /// leaf word, 64 leaf words to a level-1 word, and so on up.
    const FREE_SET_EDGES: [u32; 5] = [64, 4096, 262_144, 524_288, 2_097_152];

    #[test]
    fn free_set_grows_from_empty_and_pops_lowest_first() {
        let mut set = FreeSet::default();
        assert_eq!((set.pop(), set.len), (None, 0));
        set.for_lowest(3, |id| panic!("empty set named {id}"));
        assert!(set.levels.is_empty(), "nothing allocated before a push");
        // Both sides of every edge, lowest first, so every other push
        // grows the set by a word or a level under the ids it holds.
        let mut ids = vec![0];
        ids.extend(FREE_SET_EDGES.iter().flat_map(|&e| [e - 1, e]));
        for (pushed, &id) in ids.iter().enumerate() {
            set.push(id);
            assert_eq!(set.len, pushed + 1);
            let mut read = Vec::new();
            set.for_lowest(usize::MAX, |id| read.push(id));
            assert_eq!(read, ids[..=pushed], "after pushing {id}");
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
        /// The free-set is a min-heap that can be read: random pushes
        /// (clustered on both sides of every summary-word edge, up to
        /// three million), pops and in-order reads agree with a
        /// `BTreeSet` on every id, every length and every order.
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
                        let mut lowest = Vec::new();
                        set.for_lowest(n, |id| lowest.push(id));
                        let want: Vec<u32> = model.iter().take(n).copied().collect();
                        prop_assert_eq!(lowest, want);
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

    /// Everything a caller can ask a `ContactSet` agrees with the model
    /// set, for every endpoint of the alphabet.
    fn assert_contacts_agree(set: &ContactSet, model: &BTreeSet<Endpoint>, alphabet: &[Endpoint]) {
        for e in alphabet {
            assert_eq!(set.contains(e), model.contains(e), "{e}");
        }
        assert_eq!((set.len(), set.is_empty()), (model.len(), model.is_empty()));
        assert_eq!(set.iter().count(), set.len(), "iter repeats no endpoint");
        assert_eq!(&set.iter().copied().collect::<BTreeSet<_>>(), model);
    }

    proptest! {
        /// `ContactSet` is a set: up to 40 inserts over nine endpoints
        /// (three addresses × three ports, so most inserts repeat one
        /// and every run that reaches three distinct ones spills) agree
        /// with a `BTreeSet` on `insert`'s answer, and on `contains`,
        /// `len`, `is_empty` and `iter` read as a set, before the first
        /// insert and after every one.
        #[test]
        fn prop_contact_set_is_a_set(
            picks in proptest::collection::vec((0u8..3, 0u16..3), 0..=40),
        ) {
            let alphabet: Vec<Endpoint> = (0..3u8)
                .flat_map(|a| (0..3u16).map(move |p| Endpoint::new(ip(203, 0, 113, a), 80 + p)))
                .collect();
            let (mut set, mut model) = (ContactSet::new(), BTreeSet::new());
            assert_contacts_agree(&set, &model, &alphabet);
            for (a, p) in picks {
                let e = alphabet[a as usize * 3 + p as usize];
                prop_assert_eq!(set.insert(e), model.insert(e));
                assert_contacts_agree(&set, &model, &alphabet);
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

    /// A hash with a chosen fingerprint (high 32 bits) and probe start
    /// (low bits); `salt` lands in bits neither reads while the table
    /// has fewer than 2^16 cells, so it makes distinct "keys" that
    /// collide on both.
    fn hash_of(fingerprint: u32, start: u16, salt: u16) -> u64 {
        (fingerprint as u64) << 32 | (salt as u64) << 16 | start as u64
    }

    #[test]
    fn open_index_hint_names_a_slot_whenever_get_does() {
        // `get` verifies by slot identity here: the model knows which
        // slot each hash was inserted under.
        let mut idx = OpenIndex::new();
        let hashes: Vec<u64> = (0..500u64).map(mix64).collect();
        for (slot, &h) in hashes.iter().enumerate() {
            idx.insert(h, slot as u32, |s| hashes[s as usize]);
        }
        for slot in (0..500u32).step_by(3) {
            assert!(idx.remove(hashes[slot as usize], slot));
        }
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
        let rehash = |s: u32| if s == 10 { a } else { b };
        idx.insert(a, 10, rehash);
        idx.insert(b, 20, rehash);
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
        // Tombstones are skipped like any other foreign cell.
        assert!(idx.remove(a, 10));
        assert_eq!(idx.hint(a), Some(20), "stale: a is gone, b's cell answers");
        assert_eq!(idx.hint(b), Some(20));
        assert!(idx.remove(b, 20));
        assert_eq!(idx.hint(b), None);
    }

    #[test]
    fn prefetch_slot_covers_the_cold_row_it_assumes() {
        // `prefetch_slot` names one line of each row: a line-aligned
        // 64-byte cold row is exactly one line, and 32-byte hot rows in
        // a full chunk never straddle two.
        assert_eq!(
            (std::mem::size_of::<Slot>(), std::mem::align_of::<Slot>()),
            (64, 64),
            "update prefetch_slot and its rustdoc"
        );
        assert_eq!(std::mem::size_of::<HotSlot>(), 32);
        // Any id is accepted; out-of-range ones are ignored.
        let (s, slots) = store_with(3, 60);
        for slot in slots.into_iter().chain([3, u32::MAX]) {
            s.prefetch_slot(slot);
        }
    }

    #[test]
    fn store_hints_follow_lookups_and_survive_removal() {
        let (mut s, slots) = store_with(40, 60);
        s.flush_ext_index(); // `hint_ext` reads the index alone
        let key_of = |s: &MappingStore, slot: u32| s.slots[slot as usize].out_key;
        for &slot in &slots {
            let key = key_of(&s, slot);
            s.prefetch_out_cell(key);
            assert_eq!(s.lookup_out(key), Some(slot));
            assert_eq!(s.hint_out(key), Some(slot), "no collisions among 40 keys");
            let ext = s.slots[slot as usize].ext_key;
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
