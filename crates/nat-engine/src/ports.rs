//! External port allocation.
//!
//! A [`PortAllocator`] manages the free external port space of **one
//! external IP address** for **one transport protocol**. The NAT engine owns
//! one allocator per (external IP, protocol) pair.
//!
//! The allocator implements the four strategies of §6.2 —
//! preservation, sequential, random, and random-within-chunk — plus
//! the two traceability-driven policies the deployment survey turns
//! on: contiguous **port-block** allocation
//! ([`PortAllocation::PortBlock`], one telemetry record per block
//! instead of one per connection) and **deterministic NAT**
//! ([`PortAllocation::Deterministic`], RFC 7422: the block is computed
//! from the internal address by [`deterministic_block`], so no record
//! is needed at all).

use crate::config::PortAllocation;
use crate::store::MixMap;
use netcore::Protocol;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::HashSet;
use std::net::Ipv4Addr;

/// Population at which a [`PortSet`] turns from a sorted list into the
/// bitmap: the insert that would make it hold more than this promotes it.
const PORT_SET_DENSE_AT: usize = 32;

/// Membership set over the full `u16` port space that costs what it
/// holds. It starts as a sorted list of ports — a home CPE NAT with a
/// handful of flows per (external IP, protocol) pays a few bytes, not a
/// bitmap — and is promoted **once**, by the insert that finds
/// [`PORT_SET_DENSE_AT`] ports already present, to a fixed 8 KiB bitmap
/// plus a count: the word-scan form a CGN-scale allocator (tens of
/// thousands of ports per external IP) runs from its first few dozen
/// ports on, with no hashing and no growth.
///
/// Both forms give the same `insert` / `remove` / `first_free_in`
/// answers, so allocation order does not depend on the form. The set
/// **never demotes**: a population hovering around the promotion point
/// would rebuild the set on every other call, the dense `remove` would
/// carry a population check for the sake of NATs that are no longer
/// busy, and 8 KiB kept by a NAT that has shown it mixes 33 flows at
/// once is the cost the bitmap was always accepted at.
#[derive(Debug, Clone)]
enum PortSet {
    /// At most [`PORT_SET_DENSE_AT`] ports, ascending.
    Small(Vec<u16>),
    Dense {
        words: Box<[u64; 1024]>,
        len: usize,
    },
}

impl PortSet {
    fn new() -> Self {
        PortSet::Small(Vec::new())
    }

    /// The bitmap form of a set of distinct ports: built at most once
    /// per set.
    #[cold]
    fn dense_from(ports: impl IntoIterator<Item = u16>) -> Self {
        let mut words = Box::new([0u64; 1024]);
        let mut len = 0;
        for p in ports {
            words[p as usize >> 6] |= 1u64 << (p & 63);
            len += 1;
        }
        PortSet::Dense { words, len }
    }

    /// Insert `p`; returns `true` if it was not already present
    /// (`HashSet::insert` semantics).
    #[inline]
    fn insert(&mut self, p: u16) -> bool {
        let (words, len) = match self {
            PortSet::Dense { words, len } => (words, len),
            PortSet::Small(ports) => {
                if let Some(fresh) = small::insert(ports, p) {
                    return fresh;
                }
                *self = Self::dense_from(ports.iter().copied().chain([p]));
                return true;
            }
        };
        let (w, bit) = (p as usize >> 6, 1u64 << (p & 63));
        if words[w] & bit != 0 {
            return false;
        }
        words[w] |= bit;
        *len += 1;
        true
    }

    #[inline]
    fn remove(&mut self, p: u16) -> bool {
        let (words, len) = match self {
            PortSet::Dense { words, len } => (words, len),
            PortSet::Small(ports) => return small::remove(ports, p),
        };
        let (w, bit) = (p as usize >> 6, 1u64 << (p & 63));
        if words[w] & bit == 0 {
            return false;
        }
        words[w] &= !bit;
        *len -= 1;
        true
    }

    fn contains(&self, p: u16) -> bool {
        match self {
            PortSet::Dense { words, .. } => words[p as usize >> 6] & (1u64 << (p & 63)) != 0,
            PortSet::Small(ports) => ports.binary_search(&p).is_ok(),
        }
    }

    fn len(&self) -> usize {
        match self {
            PortSet::Dense { len, .. } => *len,
            PortSet::Small(ports) => ports.len(),
        }
    }

    /// Bytes of heap storage currently allocated.
    #[cfg(test)]
    fn reserved_bytes(&self) -> usize {
        match self {
            PortSet::Dense { words, .. } => std::mem::size_of_val(&**words),
            PortSet::Small(ports) => ports.capacity() * std::mem::size_of::<u16>(),
        }
    }

    /// First absent port in `[from, to]` (inclusive), scanning upward.
    ///
    /// Dense, a u64 word scan: each iteration negates one bitmap word,
    /// masks the range edges, and jumps straight to the first free bit
    /// with `trailing_zeros` — so a densely-filled range advances 64
    /// ports per word instead of probing bit by bit. Small, a walk from
    /// the first listed port at or above `from` for as long as the list
    /// is consecutive. Callers compose their strategy's exact candidate
    /// order (wrap-around scans are two calls), and the debug build
    /// asserts the scan returns precisely what the per-bit probe
    /// returns.
    #[inline]
    fn first_free_in(&self, from: u16, to: u16) -> Option<u16> {
        let found = (|| {
            if from > to {
                return None;
            }
            let words = match self {
                PortSet::Dense { words, .. } => words,
                PortSet::Small(ports) => return small::first_free_in(ports, from, to),
            };
            let (first_w, last_w) = (from as usize >> 6, to as usize >> 6);
            for w in first_w..=last_w {
                let mut free = !words[w];
                if w == first_w {
                    free &= !0u64 << (from & 63);
                }
                if w == last_w {
                    free &= !0u64 >> (63 - (to & 63));
                }
                if free != 0 {
                    return Some(((w as u32) << 6 | free.trailing_zeros()) as u16);
                }
            }
            None
        })();
        debug_assert_eq!(
            found,
            self.first_free_in_ref(from, to),
            "scan must preserve per-bit allocation order in [{from}, {to}]"
        );
        found
    }

    /// The per-bit reference probe both scans answer to — kept as the
    /// debug-build oracle for allocation-order equivalence (the
    /// `debug_assert_eq!` above compiles out of release builds).
    fn first_free_in_ref(&self, from: u16, to: u16) -> Option<u16> {
        (from..=to).find(|&p| !self.contains(p))
    }
}

/// The sorted-list half of [`PortSet`]. Out of line, so that the dense
/// halves stay small enough to inline into the allocator: with these
/// bodies inside them `insert` and `first_free_in` became calls, which
/// `replay-churn`, where every set is dense, read as 3 %.
mod small {
    use super::PORT_SET_DENSE_AT;

    /// `Some(newly added)`, or `None` if `p` is absent and the list is
    /// full: the caller promotes, `p` included.
    #[inline(never)]
    pub(super) fn insert(ports: &mut Vec<u16>, p: u16) -> Option<bool> {
        let Err(at) = ports.binary_search(&p) else {
            return Some(false);
        };
        if ports.len() == PORT_SET_DENSE_AT {
            return None;
        }
        ports.insert(at, p);
        Some(true)
    }

    #[inline(never)]
    pub(super) fn remove(ports: &mut Vec<u16>, p: u16) -> bool {
        ports.binary_search(&p).map(|at| ports.remove(at)).is_ok()
    }

    /// First port absent from `from..=to` (`from <= to`): walk from the
    /// first listed port at or above `from` while the list is
    /// consecutive.
    #[inline(never)]
    pub(super) fn first_free_in(ports: &[u16], from: u16, to: u16) -> Option<u16> {
        let mut free = from as u32;
        for &p in &ports[ports.partition_point(|&p| p < from)..] {
            if p as u32 != free {
                break;
            }
            free += 1;
        }
        (free <= to as u32).then_some(free as u16)
    }
}

/// Why a port could not be allocated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortError {
    /// The whole configured range is in use.
    Exhausted,
    /// The subscriber's chunk is full (chunk allocation only).
    ChunkFull,
    /// No free chunk is left for a new subscriber.
    NoFreeChunk,
}

/// Whether a [`BlockGrant`] records a block being handed out or
/// returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockGrantKind {
    Allocated,
    Released,
}

/// A pending port-block grant or return recorded by the allocator
/// under the [`PortAllocation::PortBlock`] strategy. The engine drains
/// it after every allocate/release call
/// ([`PortAllocator::take_block_grant`]) and forwards it — stamped
/// with the external IP and virtual time — to its telemetry sink:
/// this is the "one log record per block" that makes bulk allocation
/// hundreds of times cheaper to log than per-connection policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockGrant {
    pub kind: BlockGrantKind,
    /// Internal host the block belongs(ed) to.
    pub host: Ipv4Addr,
    /// First port of the block.
    pub start: u16,
    /// Ports in the block.
    pub len: u16,
}

/// A host's deterministic-NAT **ordinal**: its offset within the
/// enclosing /10 (the RFC 6598 shared space CGN subscribers live in).
/// The single definition both the forward arithmetic
/// ([`deterministic_block`]) and the attribution inverse
/// (`cgn_telemetry::DeterministicMap`) build on — they must never
/// drift apart.
pub fn det_ordinal(host: Ipv4Addr) -> u64 {
    (u32::from(host) & 0x003F_FFFF) as u64
}

/// The algorithmic placement of deterministic NAT (RFC 7422): which
/// external-pool index and port block an internal host owns, as a pure
/// function of its address. Ordinals ([`det_ordinal`]) round-robin
/// across the pool first, then across each address's
/// `capacity / ports_per_host` blocks — so a pool of `N` IPs with `B`
/// blocks each holds `N × B` collision-free subscriber slots, and
/// attribution is a computation instead of a log lookup. Returns
/// `(pool index, block start, block len)`.
pub fn deterministic_block(
    host: Ipv4Addr,
    pool_len: usize,
    range: (u16, u16),
    ports_per_host: u16,
) -> (usize, u16, u16) {
    let ordinal = det_ordinal(host);
    let capacity = (range.1 - range.0) as u64 + 1;
    let pph = ports_per_host.max(1) as u64;
    let blocks_per_ip = (capacity / pph).max(1);
    let n = pool_len.max(1) as u64;
    let ip_index = (ordinal % n) as usize;
    let block_within = (ordinal / n) % blocks_per_ip;
    let start = range.0 as u64 + block_within * pph;
    let len = pph.min(range.1 as u64 + 1 - start);
    (ip_index, start as u16, len as u16)
}

/// State of one contiguous block under [`PortAllocation::PortBlock`].
#[derive(Debug, Clone, Copy, Default)]
struct BlockState {
    owner: Option<Ipv4Addr>,
    in_use: u16,
    /// The block its owner was granted after this one, if any.
    next: Option<u16>,
}

/// Free-port bookkeeping for one (external IP, protocol).
#[derive(Debug)]
pub struct PortAllocator {
    strategy: PortAllocation,
    range: (u16, u16),
    in_use: PortSet,
    /// Next candidate for sequential allocation.
    next_seq: u16,
    /// Chunk assignment per internal host (chunk strategies only).
    chunks: MixMap<Ipv4Addr, u16>, // host -> chunk index
    chunks_taken: HashSet<u16>,
    /// Per-block owner/fill state (`PortBlock` strategy only; lazily
    /// sized to `capacity / block_size` on first use).
    blocks: Vec<BlockState>,
    /// Every block below this index is owned: where the search for a
    /// block to grant starts. Lowered when a block is returned.
    first_unowned: usize,
    /// Head of each host's list of granted blocks, which runs in grant
    /// order through [`BlockState::next`]: walking it reads only rows
    /// the allocation reads anyway, and allocates nothing.
    host_blocks: MixMap<Ipv4Addr, u16>,
    /// Block grant/return recorded by the last allocate/release call,
    /// awaiting [`PortAllocator::take_block_grant`].
    pending_block: Option<BlockGrant>,
}

impl PortAllocator {
    pub fn new(strategy: PortAllocation, range: (u16, u16)) -> Self {
        assert!(range.0 < range.1, "invalid port range {range:?}");
        PortAllocator {
            strategy,
            range,
            in_use: PortSet::new(),
            next_seq: range.0,
            chunks: MixMap::default(),
            chunks_taken: HashSet::new(),
            blocks: Vec::new(),
            first_unowned: 0,
            host_blocks: MixMap::default(),
            pending_block: None,
        }
    }

    /// Number of ports currently allocated.
    pub fn allocated(&self) -> usize {
        self.in_use.len()
    }

    /// Bytes of heap storage currently allocated: the port set and the
    /// block table (the per-host maps are empty until a chunk or block
    /// strategy assigns one).
    #[cfg(test)]
    pub(crate) fn reserved_bytes(&self) -> usize {
        self.in_use.reserved_bytes() + self.blocks.capacity() * std::mem::size_of::<BlockState>()
    }

    /// Total ports in the managed range.
    pub fn capacity(&self) -> usize {
        (self.range.1 - self.range.0) as usize + 1
    }

    /// The chunk (index, size) assigned to `host`, if any.
    pub fn chunk_of(&self, host: Ipv4Addr) -> Option<(u16, u16)> {
        match self.strategy {
            PortAllocation::RandomChunk { chunk_size } => {
                self.chunks.get(&host).map(|idx| (*idx, chunk_size))
            }
            _ => None,
        }
    }

    /// Allocate an external port for a flow from `internal_host` whose
    /// internal source port is `internal_port`.
    ///
    /// Panics under [`PortAllocation::Deterministic`]: that placement
    /// is a pure function of the internal address and the *pool*, so
    /// a per-IP allocator cannot compute it — the owning engine
    /// derives the block with [`deterministic_block`] and calls
    /// [`PortAllocator::allocate_deterministic`] instead.
    pub fn allocate(
        &mut self,
        internal_host: Ipv4Addr,
        internal_port: u16,
        _proto: Protocol,
        rng: &mut StdRng,
    ) -> Result<u16, PortError> {
        match self.strategy {
            PortAllocation::Preserve => self.alloc_preserve(internal_port),
            PortAllocation::Sequential => self.alloc_sequential(),
            PortAllocation::Random => self.alloc_random(rng),
            PortAllocation::RandomChunk { chunk_size } => {
                self.alloc_chunk(internal_host, chunk_size, rng)
            }
            PortAllocation::PortBlock { block_size } => self.alloc_block(internal_host, block_size),
            PortAllocation::Deterministic { .. } => panic!(
                "deterministic placement is computed by the engine \
                 (ports::deterministic_block) and allocated via \
                 PortAllocator::allocate_deterministic"
            ),
        }
    }

    /// Allocate the first free port of a host's computed deterministic
    /// block (`[start, start + len)`) — the engine derives the block
    /// with [`deterministic_block`]. No state beyond the port bitmap,
    /// no RNG, no grant records.
    pub fn allocate_deterministic(&mut self, start: u16, len: u16) -> Result<u16, PortError> {
        let hi = (start as u32 + len as u32).min(self.range.1 as u32 + 1);
        let free = (hi > start as u32)
            .then(|| self.in_use.first_free_in(start, (hi - 1) as u16))
            .flatten();
        self.claim(free, PortError::Exhausted)
    }

    /// Release a previously allocated port (mapping expiry). Under the
    /// `PortBlock` strategy, draining a block's last port returns the
    /// block (recorded as a pending [`BlockGrant`]).
    pub fn release(&mut self, port: u16) {
        if !self.in_use.remove(port) {
            return;
        }
        if let PortAllocation::PortBlock { block_size } = self.strategy {
            if port < self.range.0 {
                return;
            }
            let b = ((port - self.range.0) / block_size) as usize;
            let Some(state) = self.blocks.get_mut(b) else {
                return;
            };
            state.in_use = state.in_use.saturating_sub(1);
            if state.in_use == 0 {
                if let Some(owner) = state.owner.take() {
                    // Re-point the link that named `b`: a predecessor's, else the head.
                    let (b, next) = (b as u16, state.next.take());
                    let links_to_b = |&p: &u16| self.blocks[p as usize].next == Some(b);
                    let prev = self.owned_blocks(owner).find(links_to_b);
                    match (prev, next) {
                        (Some(prev), _) => self.blocks[prev as usize].next = next,
                        (None, Some(next)) => drop(self.host_blocks.insert(owner, next)),
                        (None, None) => drop(self.host_blocks.remove(&owner)),
                    }
                    self.first_unowned = self.first_unowned.min(b as usize);
                    let (start, len) = self.block_bounds(b, block_size);
                    self.pending_block = Some(BlockGrant {
                        kind: BlockGrantKind::Released,
                        host: owner,
                        start,
                        len,
                    });
                }
            }
        }
    }

    /// Drain the block grant/return recorded by the last
    /// allocate/release call, if any. The engine calls this after
    /// every allocator operation so at most one grant is ever pending.
    pub fn take_block_grant(&mut self) -> Option<BlockGrant> {
        self.pending_block.take()
    }

    /// The blocks currently granted to `host` under the `PortBlock`
    /// strategy, as `(start, len)` ranges in grant order.
    pub fn blocks_of(&self, host: Ipv4Addr) -> Vec<(u16, u16)> {
        let PortAllocation::PortBlock { block_size } = self.strategy else {
            return Vec::new();
        };
        self.owned_blocks(host)
            .map(|b| self.block_bounds(b, block_size))
            .collect()
    }

    /// `host`'s blocks in grant order: the list threaded through
    /// [`BlockState::next`] from its head in `host_blocks`.
    fn owned_blocks(&self, host: Ipv4Addr) -> impl Iterator<Item = u16> + '_ {
        let head = self.host_blocks.get(&host).copied();
        std::iter::successors(head, |&b| self.blocks[b as usize].next)
    }

    fn in_range(&self, p: u16) -> bool {
        p >= self.range.0 && p <= self.range.1
    }

    fn alloc_preserve(&mut self, wanted: u16) -> Result<u16, PortError> {
        if self.in_range(wanted) && self.in_use.insert(wanted) {
            return Ok(wanted);
        }
        // Collision (or out of range): sequential scan upward from the
        // wanted port, wrapping once — "an alternate port must be chosen".
        let start = if self.in_range(wanted) {
            wanted
        } else {
            self.range.0
        };
        self.claim(self.wrap_scan_after(start), PortError::Exhausted)
    }

    /// Mark the port a scan found as used; `full` if it found none.
    fn claim(&mut self, found: Option<u16>, full: PortError) -> Result<u16, PortError> {
        let p = found.ok_or(full)?;
        self.in_use.insert(p);
        Ok(p)
    }

    /// First free port in the wrap-around order `start+1..=hi, lo..=start`
    /// — the candidate order every "scan upward, wrapping once" strategy
    /// shares, expressed as two ascending word scans.
    fn wrap_scan_after(&self, start: u16) -> Option<u16> {
        let upper = if start < self.range.1 {
            self.in_use.first_free_in(start + 1, self.range.1)
        } else {
            None
        };
        upper.or_else(|| self.in_use.first_free_in(self.range.0, start))
    }

    /// Like [`wrap_scan_after`](Self::wrap_scan_after) but with `start`
    /// itself as the first candidate: `start..=hi, lo..start`.
    fn wrap_scan_from(&self, start: u16) -> Option<u16> {
        self.in_use.first_free_in(start, self.range.1).or_else(|| {
            if start > self.range.0 {
                self.in_use.first_free_in(self.range.0, start - 1)
            } else {
                None
            }
        })
    }

    fn alloc_sequential(&mut self) -> Result<u16, PortError> {
        let p = self.claim(self.wrap_scan_from(self.next_seq), PortError::Exhausted)?;
        self.next_seq = if p == self.range.1 {
            self.range.0
        } else {
            p + 1
        };
        Ok(p)
    }

    fn alloc_random(&mut self, rng: &mut StdRng) -> Result<u16, PortError> {
        if self.in_use.len() >= self.capacity() {
            return Err(PortError::Exhausted);
        }
        // Rejection sampling with a deterministic linear-scan fallback so
        // allocation terminates even when the range is nearly full.
        for _ in 0..64 {
            let p = rng.gen_range(self.range.0..=self.range.1);
            if self.in_use.insert(p) {
                return Ok(p);
            }
        }
        let start = rng.gen_range(self.range.0..=self.range.1);
        self.claim(self.wrap_scan_from(start), PortError::Exhausted)
    }

    fn alloc_chunk(
        &mut self,
        host: Ipv4Addr,
        chunk_size: u16,
        rng: &mut StdRng,
    ) -> Result<u16, PortError> {
        assert!(chunk_size > 0);
        let n_chunks = (self.capacity() / chunk_size as usize).max(1) as u16;
        let chunk = match self.chunks.get(&host) {
            Some(c) => *c,
            None => {
                // Pick a random free chunk for this subscriber.
                let free: Vec<u16> = (0..n_chunks)
                    .filter(|c| !self.chunks_taken.contains(c))
                    .collect();
                if free.is_empty() {
                    return Err(PortError::NoFreeChunk);
                }
                let c = free[rng.gen_range(0..free.len())];
                self.chunks.insert(host, c);
                self.chunks_taken.insert(c);
                c
            }
        };
        let lo = self.range.0 + chunk * chunk_size;
        let hi_exclusive = (lo as u32 + chunk_size as u32).min(self.range.1 as u32 + 1);
        if (hi_exclusive - lo as u32) == 0 {
            return Err(PortError::ChunkFull);
        }
        for _ in 0..64 {
            let p = rng.gen_range(lo as u32..hi_exclusive) as u16;
            if self.in_use.insert(p) {
                return Ok(p);
            }
        }
        let free = self.in_use.first_free_in(lo, (hi_exclusive - 1) as u16);
        self.claim(free, PortError::ChunkFull)
    }

    /// `(start, len)` of block `b` under a `block_size`-port layout.
    fn block_bounds(&self, b: u16, block_size: u16) -> (u16, u16) {
        let lo = self.range.0 as u32 + b as u32 * block_size as u32;
        let hi_exclusive = (lo + block_size as u32).min(self.range.1 as u32 + 1);
        (lo as u16, (hi_exclusive - lo) as u16)
    }

    /// First free port within block `b`, marking it used.
    fn alloc_in_block(&mut self, b: u16, block_size: u16) -> Option<u16> {
        let (lo, len) = self.block_bounds(b, block_size);
        if self.blocks[b as usize].in_use >= len {
            return None; // full block: skip the scan entirely
        }
        let hi = (lo as u32 + len as u32 - 1) as u16;
        let p = self.in_use.first_free_in(lo, hi)?;
        self.in_use.insert(p);
        self.blocks[b as usize].in_use += 1;
        Some(p)
    }

    /// Contiguous-block allocation: sequential fill of the host's
    /// granted blocks; a fresh block (lowest free index —
    /// deterministic, no RNG) is granted when they run out and
    /// recorded as a pending [`BlockGrant`].
    fn alloc_block(&mut self, host: Ipv4Addr, block_size: u16) -> Result<u16, PortError> {
        assert!(block_size > 0);
        if self.blocks.is_empty() {
            let n_blocks = (self.capacity() / block_size as usize).max(1);
            self.blocks = vec![BlockState::default(); n_blocks];
        }
        // Fill the host's existing blocks in grant order.
        let (mut last, mut link) = (None, self.host_blocks.get(&host).copied());
        while let Some(b) = link {
            if let Some(p) = self.alloc_in_block(b, block_size) {
                return Ok(p);
            }
            (last, link) = (link, self.blocks[b as usize].next);
        }
        // Grant the lowest-index free block.
        let is_owned = |s: &BlockState| s.owner.is_some();
        while self.blocks.get(self.first_unowned).is_some_and(is_owned) {
            self.first_unowned += 1;
        }
        let Some(state) = self.blocks.get_mut(self.first_unowned) else {
            return Err(PortError::NoFreeChunk);
        };
        state.owner = Some(host);
        let b = self.first_unowned as u16;
        match last {
            Some(last) => self.blocks[last as usize].next = Some(b),
            None => drop(self.host_blocks.insert(host, b)),
        }
        let (start, len) = self.block_bounds(b, block_size);
        self.pending_block = Some(BlockGrant {
            kind: BlockGrantKind::Allocated,
            host,
            start,
            len,
        });
        self.alloc_in_block(b, block_size)
            .ok_or(PortError::ChunkFull)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcore::ip;
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    fn host() -> Ipv4Addr {
        ip(100, 64, 0, 10)
    }

    #[test]
    fn word_scan_matches_per_bit_probe() {
        // Dense edge patterns the word scan must get right: range edges
        // inside a word, full words, boundaries at multiples of 64.
        let mut set = PortSet::new();
        assert_eq!(set.first_free_in(1024, 1024), Some(1024));
        for p in 1024..=1100u16 {
            set.insert(p);
        }
        assert_eq!(set.first_free_in(1024, 1100), None);
        assert_eq!(set.first_free_in(1024, 1101), Some(1101));
        assert_eq!(set.first_free_in(1000, 1050), Some(1000));
        set.remove(1063); // last bit of a word
        assert_eq!(set.first_free_in(1024, 1100), Some(1063));
        set.remove(1064); // first bit of the next word
        assert_eq!(set.first_free_in(1064, 1100), Some(1064));
        assert_eq!(set.first_free_in(65535, 65535), Some(65535));
        set.insert(65535);
        assert_eq!(set.first_free_in(65535, 65535), None);
    }

    proptest! {
        /// The u64 word scan returns exactly what the per-bit probe it
        /// replaced would have: allocation order is unchanged.
        #[test]
        fn prop_word_scan_preserves_allocation_order(
            occupied in proptest::collection::vec(0u16..=65535, 0..200),
            from in 0u16..=65535,
            width in 0u16..512,
        ) {
            let mut set = PortSet::new();
            for p in &occupied {
                set.insert(*p);
            }
            let to = from.saturating_add(width);
            let naive = (from..=to).find(|&p| !set.contains(p));
            prop_assert_eq!(set.first_free_in(from, to), naive);
        }
    }

    #[test]
    fn port_set_promotes_once_at_the_fixed_population_and_never_demotes() {
        let mut set = PortSet::new();
        assert_eq!(set.reserved_bytes(), 0, "an untouched set owns nothing");
        for p in 0..PORT_SET_DENSE_AT as u16 {
            assert!(set.insert(2000 + 3 * p));
        }
        assert!(matches!(set, PortSet::Small(_)));
        assert!(set.reserved_bytes() <= 2 * PORT_SET_DENSE_AT * 2);
        assert!(
            !set.insert(2000),
            "a duplicate at the brim promotes nothing"
        );
        assert!(matches!(set, PortSet::Small(_)));
        assert!(set.insert(1999));
        assert!(matches!(set, PortSet::Dense { .. }));
        assert_eq!(set.len(), PORT_SET_DENSE_AT + 1);
        assert_eq!(set.reserved_bytes(), 8192);
        assert_eq!(set.first_free_in(1999, 2003), Some(2001));
        for p in 0..PORT_SET_DENSE_AT as u16 {
            assert!(set.remove(2000 + 3 * p));
        }
        assert!(set.remove(1999) && !set.remove(1999));
        assert_eq!(set.len(), 0);
        assert!(matches!(set, PortSet::Dense { .. }), "emptied, still dense");
    }

    proptest! {
        /// The sorted-list form, the bitmap form and the promotion
        /// between them are one set: random `insert` / `remove` /
        /// `first_free_in` over a band of ports narrow enough that
        /// ranges fill up and the population crosses the promotion
        /// point both ways read the same from a set that starts small,
        /// from one that is dense from the start, and from the per-bit
        /// reference probe — including both halves of a wrap-around
        /// scan, empty (`from > to`) and full ranges, and a band that
        /// ends at port 65535.
        #[test]
        fn prop_small_and_dense_port_sets_agree(
            base in (0usize..3).prop_map(|i| [0u16, 1024, 65535 - 79][i]),
            ops in proptest::collection::vec((0u8..10, 0u16..80, 0u16..80), 1..400),
        ) {
            let (lo, hi) = (base, base + 79);
            let mut set = PortSet::new();
            let mut dense = PortSet::dense_from([]);
            let mut model = std::collections::BTreeSet::new();
            let mut peak = 0;
            for (op, a, b) in ops {
                let (p, q) = (lo + a, lo + b);
                match op {
                    0..=3 => {
                        let fresh = model.insert(p);
                        prop_assert_eq!(set.insert(p), fresh);
                        prop_assert_eq!(dense.insert(p), fresh);
                    }
                    4..=5 => {
                        let held = model.remove(&p);
                        prop_assert_eq!(set.remove(p), held);
                        prop_assert_eq!(dense.remove(p), held);
                    }
                    6 => {
                        // A run of consecutive ports: full ranges, and
                        // the quickest way across the promotion point.
                        for r in p.min(q)..=p.max(q) {
                            let fresh = model.insert(r);
                            prop_assert_eq!(set.insert(r), fresh);
                            prop_assert_eq!(dense.insert(r), fresh);
                        }
                    }
                    7 => {
                        // `from > to` half the time: an empty range.
                        let want = (p..=q).find(|r| !model.contains(r));
                        prop_assert_eq!(set.first_free_in(p, q), want);
                        prop_assert_eq!(dense.first_free_in(p, q), want);
                        prop_assert_eq!(set.first_free_in_ref(p, q), want);
                    }
                    _ => {
                        // `wrap_scan_from(p)` over the band: p..=hi, then lo..p.
                        let want = (p..=hi).chain(lo..p).find(|r| !model.contains(r));
                        let scan = |s: &PortSet| {
                            let below = || p.checked_sub(1).filter(|_| p > lo);
                            s.first_free_in(p, hi)
                                .or_else(|| below().and_then(|top| s.first_free_in(lo, top)))
                        };
                        prop_assert_eq!(scan(&set), want);
                        prop_assert_eq!(scan(&dense), want);
                    }
                }
                prop_assert_eq!(set.len(), model.len());
                prop_assert_eq!(dense.len(), model.len());
                peak = peak.max(model.len());
                prop_assert_eq!(
                    matches!(set, PortSet::Dense { .. }),
                    peak > PORT_SET_DENSE_AT,
                    "dense exactly once the population has exceeded the promotion point"
                );
            }
            for r in lo..=hi {
                prop_assert_eq!(set.contains(r), model.contains(&r));
            }
        }
    }

    #[test]
    fn preserve_keeps_port_when_free() {
        let mut a = PortAllocator::new(PortAllocation::Preserve, (1024, 65535));
        let p = a
            .allocate(host(), 50000, Protocol::Tcp, &mut rng())
            .unwrap();
        assert_eq!(p, 50000);
    }

    #[test]
    fn preserve_falls_back_on_collision() {
        let mut a = PortAllocator::new(PortAllocation::Preserve, (1024, 65535));
        let mut r = rng();
        assert_eq!(
            a.allocate(host(), 50000, Protocol::Tcp, &mut r).unwrap(),
            50000
        );
        let p2 = a
            .allocate(ip(100, 64, 0, 11), 50000, Protocol::Tcp, &mut r)
            .unwrap();
        assert_ne!(p2, 50000);
        // Fallback is the next sequential port.
        assert_eq!(p2, 50001);
    }

    #[test]
    fn preserve_out_of_range_request() {
        let mut a = PortAllocator::new(PortAllocation::Preserve, (2000, 3000));
        let p = a.allocate(host(), 80, Protocol::Tcp, &mut rng()).unwrap();
        assert!((2000..=3000).contains(&p));
    }

    #[test]
    fn sequential_is_monotone_with_small_gaps() {
        let mut a = PortAllocator::new(PortAllocation::Sequential, (1024, 65535));
        let mut r = rng();
        let ports: Vec<u16> = (0..10)
            .map(|_| a.allocate(host(), 9999, Protocol::Tcp, &mut r).unwrap())
            .collect();
        assert_eq!(ports, (1024..1034).collect::<Vec<u16>>());
    }

    #[test]
    fn sequential_wraps_after_release() {
        let mut a = PortAllocator::new(PortAllocation::Sequential, (10, 12));
        let mut r = rng();
        assert_eq!(a.allocate(host(), 0, Protocol::Udp, &mut r).unwrap(), 10);
        assert_eq!(a.allocate(host(), 0, Protocol::Udp, &mut r).unwrap(), 11);
        assert_eq!(a.allocate(host(), 0, Protocol::Udp, &mut r).unwrap(), 12);
        assert_eq!(
            a.allocate(host(), 0, Protocol::Udp, &mut r),
            Err(PortError::Exhausted)
        );
        a.release(11);
        assert_eq!(a.allocate(host(), 0, Protocol::Udp, &mut r).unwrap(), 11);
    }

    #[test]
    fn random_spans_whole_space() {
        // Fig. 8a: CGNs with port translation utilize the entire port space,
        // unlike OS ephemeral ranges.
        let mut a = PortAllocator::new(PortAllocation::Random, (1024, 65535));
        let mut r = rng();
        let ports: Vec<u16> = (0..2000)
            .map(|_| a.allocate(host(), 0, Protocol::Udp, &mut r).unwrap())
            .collect();
        let min = *ports.iter().min().unwrap();
        let max = *ports.iter().max().unwrap();
        assert!(
            min < 4000,
            "random allocation should reach low ports, min={min}"
        );
        assert!(
            max > 62000,
            "random allocation should reach high ports, max={max}"
        );
    }

    #[test]
    fn random_exhaustion() {
        let mut a = PortAllocator::new(PortAllocation::Random, (1, 4));
        let mut r = rng();
        for _ in 0..4 {
            a.allocate(host(), 0, Protocol::Udp, &mut r).unwrap();
        }
        assert_eq!(
            a.allocate(host(), 0, Protocol::Udp, &mut r),
            Err(PortError::Exhausted)
        );
    }

    #[test]
    fn chunk_allocation_confines_subscriber() {
        let chunk_size = 4096u16;
        let mut a = PortAllocator::new(PortAllocation::RandomChunk { chunk_size }, (1024, 65535));
        let mut r = rng();
        let mut ports = Vec::new();
        for _ in 0..100 {
            ports.push(a.allocate(host(), 0, Protocol::Tcp, &mut r).unwrap());
        }
        let (idx, size) = a.chunk_of(host()).unwrap();
        assert_eq!(size, chunk_size);
        let lo = 1024 + idx * chunk_size;
        for p in &ports {
            assert!(
                *p >= lo && (*p as u32) < lo as u32 + chunk_size as u32,
                "port {p} outside chunk"
            );
        }
        // All observed ports of one subscriber fall within a range smaller
        // than the chunk size — the paper's chunk-detection signal.
        let spread = *ports.iter().max().unwrap() - *ports.iter().min().unwrap();
        assert!(spread < chunk_size);
    }

    #[test]
    fn chunks_differ_between_subscribers() {
        let mut a = PortAllocator::new(
            PortAllocation::RandomChunk { chunk_size: 1024 },
            (1024, 65535),
        );
        let mut r = rng();
        a.allocate(ip(10, 0, 0, 1), 0, Protocol::Udp, &mut r)
            .unwrap();
        a.allocate(ip(10, 0, 0, 2), 0, Protocol::Udp, &mut r)
            .unwrap();
        let c1 = a.chunk_of(ip(10, 0, 0, 1)).unwrap().0;
        let c2 = a.chunk_of(ip(10, 0, 0, 2)).unwrap().0;
        assert_ne!(c1, c2);
    }

    #[test]
    fn chunk_capacity_limits_subscribers() {
        // 64 subscribers per IP with 1K chunks (§6.2: "we find 64 subscribers
        // per IP address in the case of a 1K port chunk").
        let mut a =
            PortAllocator::new(PortAllocation::RandomChunk { chunk_size: 1024 }, (0, 65535));
        let mut r = rng();
        let mut ok = 0;
        for i in 0..70u32 {
            let h = Ipv4Addr::from(0x0a000000u32 + i);
            if a.allocate(h, 0, Protocol::Udp, &mut r).is_ok() {
                ok += 1;
            }
        }
        assert_eq!(ok, 64);
    }

    #[test]
    fn port_block_fills_sequentially_and_grows_by_blocks() {
        let mut a = PortAllocator::new(PortAllocation::PortBlock { block_size: 4 }, (1000, 1015));
        let mut r = rng();
        // First allocation grants the lowest free block and records it.
        let p = a.allocate(host(), 0, Protocol::Udp, &mut r).unwrap();
        assert_eq!(p, 1000);
        let g = a.take_block_grant().expect("fresh block recorded");
        assert_eq!(
            (g.kind, g.host, g.start, g.len),
            (BlockGrantKind::Allocated, host(), 1000, 4)
        );
        assert!(a.take_block_grant().is_none(), "grant drains once");
        // Sequential fill within the block, no further grants.
        for want in [1001, 1002, 1003] {
            assert_eq!(a.allocate(host(), 0, Protocol::Udp, &mut r).unwrap(), want);
            assert!(a.take_block_grant().is_none());
        }
        // Block full: a second block is granted.
        let p = a.allocate(host(), 0, Protocol::Udp, &mut r).unwrap();
        assert_eq!(p, 1004);
        let g = a.take_block_grant().expect("growth records a block");
        assert_eq!((g.start, g.len), (1004, 4));
        assert_eq!(a.blocks_of(host()), vec![(1000, 4), (1004, 4)]);
    }

    #[test]
    fn port_block_release_returns_drained_blocks() {
        let mut a = PortAllocator::new(PortAllocation::PortBlock { block_size: 4 }, (1000, 1015));
        let mut r = rng();
        let ports: Vec<u16> = (0..4)
            .map(|_| a.allocate(host(), 0, Protocol::Udp, &mut r).unwrap())
            .collect();
        a.take_block_grant();
        // Partial drain keeps the block.
        for &p in &ports[..3] {
            a.release(p);
            assert!(a.take_block_grant().is_none(), "block still has a port");
        }
        // Last port out: the block is returned to the free pool.
        a.release(ports[3]);
        let g = a.take_block_grant().expect("drained block returned");
        assert_eq!(
            (g.kind, g.host, g.start, g.len),
            (BlockGrantKind::Released, host(), 1000, 4)
        );
        assert!(a.blocks_of(host()).is_empty());
        // The block is reusable — by anyone.
        let other = ip(100, 64, 0, 99);
        assert_eq!(a.allocate(other, 0, Protocol::Udp, &mut r).unwrap(), 1000);
        assert_eq!(a.take_block_grant().unwrap().host, other);
    }

    #[test]
    fn port_block_exhaustion_when_no_free_block() {
        let mut a = PortAllocator::new(PortAllocation::PortBlock { block_size: 8 }, (1000, 1015));
        let mut r = rng();
        // Two hosts take the two 8-port blocks.
        a.allocate(ip(10, 0, 0, 1), 0, Protocol::Udp, &mut r)
            .unwrap();
        a.allocate(ip(10, 0, 0, 2), 0, Protocol::Udp, &mut r)
            .unwrap();
        // A third host finds no free block.
        assert_eq!(
            a.allocate(ip(10, 0, 0, 3), 0, Protocol::Udp, &mut r),
            Err(PortError::NoFreeChunk)
        );
    }

    #[test]
    fn deterministic_block_is_algorithmic_and_collision_free() {
        let range = (1024, 65535);
        let pph = 64;
        let pool_len = 4;
        let blocks_per_ip = 64512 / 64; // 1008
        let mut seen = std::collections::HashSet::new();
        for k in 0..1000u32 {
            let h = Ipv4Addr::from(u32::from(ip(100, 64, 0, 0)) + k);
            let (ip_idx, start, len) = deterministic_block(h, pool_len, range, pph);
            // Pure function: recomputation agrees.
            assert_eq!(
                deterministic_block(h, pool_len, range, pph),
                (ip_idx, start, len)
            );
            assert!(ip_idx < pool_len);
            assert_eq!(len, pph);
            assert!(start >= range.0 && start as u32 + len as u32 - 1 <= range.1 as u32);
            assert_eq!((start - range.0) % pph, 0, "block-aligned start");
            // Ordinals below pool_len * blocks_per_ip are collision-free.
            assert!(
                seen.insert((ip_idx, start)),
                "host {k} collided at ({ip_idx}, {start})"
            );
        }
        let _ = blocks_per_ip;
    }

    #[test]
    fn deterministic_allocation_fills_only_the_computed_block() {
        let mut a = PortAllocator::new(
            PortAllocation::Deterministic { ports_per_host: 4 },
            (1000, 1015),
        );
        for want in [1004, 1005, 1006, 1007] {
            assert_eq!(a.allocate_deterministic(1004, 4), Ok(want));
        }
        // The host's block is full — the deterministic cap bites.
        assert_eq!(a.allocate_deterministic(1004, 4), Err(PortError::Exhausted));
        // Neighbouring blocks were never touched.
        assert_eq!(a.allocated(), 4);
        a.release(1005);
        assert_eq!(a.allocate_deterministic(1004, 4), Ok(1005));
        assert!(
            a.take_block_grant().is_none(),
            "deterministic NAT records nothing"
        );
    }

    #[test]
    fn release_frees_capacity() {
        let mut a = PortAllocator::new(PortAllocation::Random, (1, 2));
        let mut r = rng();
        let p1 = a.allocate(host(), 0, Protocol::Udp, &mut r).unwrap();
        let _p2 = a.allocate(host(), 0, Protocol::Udp, &mut r).unwrap();
        assert_eq!(a.allocated(), 2);
        a.release(p1);
        assert_eq!(a.allocated(), 1);
        assert_eq!(a.allocate(host(), 0, Protocol::Udp, &mut r).unwrap(), p1);
    }

    #[test]
    #[should_panic(expected = "invalid port range")]
    fn invalid_range_panics() {
        let _ = PortAllocator::new(PortAllocation::Random, (5, 5));
    }

    proptest! {
        /// No strategy ever returns an out-of-range or duplicate port.
        #[test]
        fn prop_no_duplicates_in_range(
            strat in 0usize..5,
            lo in 1024u16..2000,
            span in 100u16..1000,
            n in 1usize..80,
            seed in any::<u64>(),
        ) {
            let strategy = match strat {
                0 => PortAllocation::Preserve,
                1 => PortAllocation::Sequential,
                2 => PortAllocation::Random,
                3 => PortAllocation::PortBlock { block_size: 64 },
                _ => PortAllocation::RandomChunk { chunk_size: 64 },
            };
            let range = (lo, lo + span);
            let mut a = PortAllocator::new(strategy, range);
            let mut r = StdRng::seed_from_u64(seed);
            let mut seen = std::collections::HashSet::new();
            for i in 0..n {
                match a.allocate(host(), 40000 + i as u16, Protocol::Udp, &mut r) {
                    Ok(p) => {
                        prop_assert!(p >= range.0 && p <= range.1, "port {} out of range", p);
                        prop_assert!(seen.insert(p), "duplicate port {}", p);
                    }
                    Err(_) => break,
                }
            }
        }

        /// Allocate-then-release returns the allocator to its prior size.
        #[test]
        fn prop_release_inverse(seed in any::<u64>(), n in 1usize..50) {
            let mut a = PortAllocator::new(PortAllocation::Random, (1024, 65535));
            let mut r = StdRng::seed_from_u64(seed);
            let mut ports = Vec::new();
            for _ in 0..n {
                ports.push(a.allocate(host(), 0, Protocol::Udp, &mut r).unwrap());
            }
            for p in ports {
                a.release(p);
            }
            prop_assert_eq!(a.allocated(), 0);
        }

        /// Interleaved allocate/release never double-allocates: a port
        /// handed out is never handed out again until it was released,
        /// under every strategy.
        #[test]
        fn prop_no_double_allocation_with_churn(
            strat in 0usize..5,
            seed in any::<u64>(),
            ops in proptest::collection::vec((any::<u8>(), 0u16..200), 1..120),
        ) {
            let strategy = match strat {
                0 => PortAllocation::Preserve,
                1 => PortAllocation::Sequential,
                2 => PortAllocation::Random,
                3 => PortAllocation::PortBlock { block_size: 32 },
                _ => PortAllocation::RandomChunk { chunk_size: 32 },
            };
            let mut a = PortAllocator::new(strategy, (2000, 2400));
            let mut r = StdRng::seed_from_u64(seed);
            let mut live = std::collections::HashSet::new();
            for (op, arg) in ops {
                if op % 3 != 0 || live.is_empty() {
                    if let Ok(p) = a.allocate(host(), 30000 + arg, Protocol::Udp, &mut r) {
                        prop_assert!(
                            live.insert(p),
                            "port {} double-allocated while still live", p
                        );
                    }
                } else {
                    // Release an arbitrary live port (deterministic pick).
                    let p = *live.iter().min().expect("nonempty");
                    live.remove(&p);
                    a.release(p);
                }
                prop_assert_eq!(a.allocated(), live.len());
            }
        }

        /// Chunk allocation confines every subscriber to one fixed
        /// `chunk_size`-aligned block for the allocator's lifetime.
        #[test]
        fn prop_chunk_bound_containment(
            chunk_exp in 4u32..9, // chunk sizes 16..256
            hosts in 1u32..8,
            per_host in 1usize..24,
            seed in any::<u64>(),
        ) {
            let chunk_size = 2u16.pow(chunk_exp);
            let mut a = PortAllocator::new(
                PortAllocation::RandomChunk { chunk_size },
                (1024, 65535),
            );
            let mut r = StdRng::seed_from_u64(seed);
            for h in 0..hosts {
                let host_ip = Ipv4Addr::from(0x0a00_0000u32 + h);
                let mut observed = Vec::new();
                for _ in 0..per_host {
                    match a.allocate(host_ip, 0, Protocol::Udp, &mut r) {
                        Ok(p) => observed.push(p),
                        Err(PortError::ChunkFull) => break,
                        Err(e) => prop_assert!(false, "unexpected error {:?}", e),
                    }
                }
                let (idx, size) = a.chunk_of(host_ip).expect("chunk assigned");
                prop_assert_eq!(size, chunk_size);
                let lo = 1024 + idx as u32 * chunk_size as u32;
                for p in observed {
                    prop_assert!(
                        (p as u32) >= lo && (p as u32) < lo + chunk_size as u32,
                        "port {} escaped chunk [{}, {})", p, lo, lo + chunk_size as u32
                    );
                }
            }
        }

        /// A released port becomes allocatable again (the sweep path:
        /// mapping expiry must return capacity), for every strategy.
        #[test]
        fn prop_port_reuse_after_release(
            strat in 0usize..5,
            seed in any::<u64>(),
        ) {
            let strategy = match strat {
                0 => PortAllocation::Preserve,
                1 => PortAllocation::Sequential,
                2 => PortAllocation::Random,
                3 => PortAllocation::PortBlock { block_size: 8 },
                _ => PortAllocation::RandomChunk { chunk_size: 8 },
            };
            // A range exactly one 8-port chunk wide: full exhaustion is
            // reachable under every strategy.
            let mut a = PortAllocator::new(strategy, (5000, 5007));
            let mut r = StdRng::seed_from_u64(seed);
            let mut ports = Vec::new();
            while let Ok(p) = a.allocate(host(), 5000, Protocol::Udp, &mut r) {
                ports.push(p);
            }
            prop_assert_eq!(ports.len(), 8, "whole range must be allocatable");
            // Exhausted now; releasing any port makes exactly it available.
            for &p in &ports {
                a.release(p);
                let again = a.allocate(host(), 5000, Protocol::Udp, &mut r);
                prop_assert_eq!(again, Ok(p), "released port must be reusable");
            }
            prop_assert!(a.allocate(host(), 5000, Protocol::Udp, &mut r).is_err());
        }
    }

    /// The per-host bookkeeping this allocator had before its block
    /// lists were threaded through `blocks`, kept as the oracle: a
    /// SipHash map of `Vec`s copied out per allocation, and a scan from
    /// block 0 per grant. `random` is the chunk strategy: one randomly
    /// chosen block per host for good, ports drawn inside it.
    struct OldAllocator {
        range: (u16, u16),
        size: u16,
        random: bool,
        used: HashSet<u16>,
        owner: Vec<Option<Ipv4Addr>>,
        host_blocks: std::collections::HashMap<Ipv4Addr, Vec<u16>>,
    }

    impl OldAllocator {
        fn bounds(&self, b: u16) -> (u16, u16) {
            let lo = self.range.0 as u32 + b as u32 * self.size as u32;
            let hi = (lo + self.size as u32).min(self.range.1 as u32 + 1);
            (lo as u16, (hi - lo) as u16)
        }

        fn take_in(&mut self, b: u16, rng: &mut StdRng) -> Option<u16> {
            let (lo, len) = self.bounds(b);
            let (from, to) = (lo as u32, lo as u32 + len as u32);
            let tries = if self.random { 64 } else { 0 };
            let p = (0..tries)
                .map(|_| rng.gen_range(from..to) as u16)
                .find(|p| !self.used.contains(p))
                .or_else(|| (lo..=lo + (len - 1)).find(|p| !self.used.contains(p)))?;
            self.used.insert(p);
            Some(p)
        }

        /// The port or error, and the block granted on the way, if any.
        fn allocate(
            &mut self,
            host: Ipv4Addr,
            rng: &mut StdRng,
        ) -> (Result<u16, PortError>, Option<(u16, u16)>) {
            let owned = self.host_blocks.get(&host).cloned().unwrap_or_default();
            if let Some(p) = owned.iter().find_map(|&b| self.take_in(b, rng)) {
                return (Ok(p), None);
            }
            if self.random && !owned.is_empty() {
                return (Err(PortError::ChunkFull), None);
            }
            let free: Vec<usize> = (0..self.owner.len())
                .filter(|&b| self.owner[b].is_none())
                .collect();
            let b = match (self.random, self.owner.iter().position(|o| o.is_none())) {
                (_, None) => return (Err(PortError::NoFreeChunk), None),
                (true, _) => free[rng.gen_range(0..free.len())],
                (false, Some(b)) => b,
            };
            self.owner[b] = Some(host);
            self.host_blocks.entry(host).or_default().push(b as u16);
            let grant = (!self.random).then(|| self.bounds(b as u16));
            (
                self.take_in(b as u16, rng).ok_or(PortError::ChunkFull),
                grant,
            )
        }

        /// The owner and block returned by releasing `port`, if that drained one.
        fn release(&mut self, port: u16) -> Option<(Ipv4Addr, (u16, u16))> {
            let b = (port - self.range.0) / self.size;
            let (lo, len) = self.bounds(b);
            let drained =
                self.used.remove(&port) && !(lo..=lo + (len - 1)).any(|p| self.used.contains(&p));
            if self.random || !drained {
                return None;
            }
            let owner = self.owner[b as usize].take()?;
            let list = self.host_blocks.get_mut(&owner)?;
            list.retain(|x| *x != b);
            if list.is_empty() {
                self.host_blocks.remove(&owner);
            }
            Some((owner, (lo, len)))
        }
    }

    proptest! {
        /// Random interleavings of allocate (several hosts), release,
        /// `take_block_grant` and `blocks_of` read the same from this
        /// allocator as from the old bookkeeping: ports, errors, grants
        /// (a later one overwriting an undrained earlier one) and block
        /// lists. Seven hosts share at most five blocks, so most cases run
        /// through exhaustion, block return and re-grant.
        #[test]
        fn prop_allocator_is_the_old_allocator(
            size in (0usize..4).prop_map(|i| [1u16, 4, 64, 512][i]),
            random in any::<bool>(),
            whole in 2u16..6,
            ragged in 0u16..512,
            seed in any::<u64>(),
            ops in proptest::collection::vec((0u8..10, 0u8..7, any::<u16>()), 1..300),
        ) {
            let range = (1000, 1000 + whole * size + ragged % size - 1);
            let strategy = if random {
                PortAllocation::RandomChunk { chunk_size: size }
            } else {
                PortAllocation::PortBlock { block_size: size }
            };
            let mut new = PortAllocator::new(strategy, range);
            let mut old = OldAllocator {
                range,
                size,
                random,
                used: HashSet::new(),
                owner: vec![None; whole as usize],
                host_blocks: Default::default(),
            };
            let (mut new_rng, mut old_rng) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            let mut live: Vec<u16> = Vec::new();
            let mut pending = None;
            for (op, h, arg) in ops {
                let host = ip(100, 64, 0, h);
                match op {
                    0..=4 => {
                        let got = new.allocate(host, arg, Protocol::Udp, &mut new_rng);
                        let (want, grant) = old.allocate(host, &mut old_rng);
                        prop_assert_eq!(got, want);
                        live.extend(got.ok());
                        if let Some((start, len)) = grant {
                            let kind = BlockGrantKind::Allocated;
                            pending = Some(BlockGrant { kind, host, start, len });
                        }
                    }
                    5..=7 if !live.is_empty() => {
                        let port = live.swap_remove(arg as usize % live.len());
                        new.release(port);
                        if let Some((host, (start, len))) = old.release(port) {
                            let kind = BlockGrantKind::Released;
                            pending = Some(BlockGrant { kind, host, start, len });
                        }
                    }
                    8 => prop_assert_eq!(new.take_block_grant(), pending.take()),
                    _ => {
                        let want: Vec<(u16, u16)> = match old.host_blocks.get(&host) {
                            Some(list) if !random => list.iter().map(|&b| old.bounds(b)).collect(),
                            _ => Vec::new(),
                        };
                        prop_assert_eq!(new.blocks_of(host), want);
                        prop_assert_eq!(new.chunk_of(host).map(|(c, _)| c), match old.host_blocks.get(&host) {
                            Some(list) if random => Some(list[0]),
                            _ => None,
                        });
                    }
                }
                prop_assert_eq!(new.allocated(), old.used.len());
            }
            prop_assert_eq!(new.take_block_grant(), pending);
        }
    }
}
