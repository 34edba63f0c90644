//! Chunked arena storage that pays for itself in proportion to its
//! population.
//!
//! [`MappingStore`](crate::store::MappingStore) originally kept its
//! hot and cold slot rows in plain `Vec`s. A `Vec` doubles by
//! reallocating: at the millions-of-mappings populations a CGN is
//! dimensioned for (§6.2), every growth step memcpys the entire slab
//! through the cache — a copy storm that evicts exactly the working
//! set the burst pipeline just prefetched.
//!
//! [`Arena`] bounds that cost. Storage is a list of chunks of
//! [`Arena::CAP`] elements — as many as fit in 2 MiB — each allocated
//! at 2 MiB alignment (the x86-64 hugepage size, so a chunk maps onto
//! a single TLB entry under transparent hugepages). Growth appends a
//! chunk: elements in a full-size chunk never move, and growth is
//! O(1). Indexing stays as cheap as a `Vec`: the per-chunk capacity is
//! a power of two, so `index -> (chunk, offset)` is one shift and one
//! mask.
//!
//! The exception is **chunk 0 while it is young**. A zeroed 2 MiB
//! hugepage is the wrong price for a home CPE NAT holding a handful of
//! mappings — the paper's own pipeline (§4–§6) builds hundreds of
//! those — so chunk 0 starts as a plain allocation of **eight rows**
//! — rows, not a page: a page is 64 of the store's cold rows, and a
//! home NAT holds six — and doubles (allocate, copy, free) until it
//! holds `CAP` elements.
//! That last step lands it in the same aligned, hugepage-advised 2 MiB
//! chunk every later chunk is, and from then on nothing moves again.
//! The copies total less than one chunk (under 2 MiB) over an arena's
//! whole life and all happen inside its first `CAP` pushes, which a
//! dimensioning-scale shard leaves behind in its first few thousand
//! flows. What callers may rely on:
//!
//! * elements in chunks ≥ 1 never move, and chunk 0's never move once
//!   it holds `CAP` elements; before that a `push` may move them, so
//!   no raw element pointer may be held across a `push` (the store
//!   only ever reaches rows through `&self` / `&mut self` borrows);
//! * chunks ≥ 1, and chunk 0 from `CAP` elements on, are 2 MiB-aligned;
//! * [`Arena::chunks`] is `len.div_ceil(CAP)` whatever chunk 0's
//!   current size.
//!
//! Elements are append-only (`push`); the store layers slot reuse on
//! top with its own free-list. The arena only drops elements when it
//! is itself dropped.
//!
//! **A full-size chunk is an anonymous mapping of its own**, not a
//! heap block. Through `std::alloc` a 2 MiB-aligned request is a glibc
//! `memalign`, and glibc serves it from the `brk` heap as soon as its
//! dynamic mmap threshold has risen past 2 MiB — which it does each
//! time a large block is freed (an index rebuild, a drained wheel
//! bucket). Measured on a 2-core x86-64 Linux host with the
//! benchmark's `replay-churn` (forty steps), that put 289–305 MB of the
//! process in the heap, 137–141 MB of it hugepage-backed arena chunks;
//! on both replays the heap held 35–45 MB more than the live
//! structures, and `replay-hit` peak RSS swung between 158 and 205 MiB
//! across seeds at fixed work. So on Linux x86-64 a full-size chunk
//! maps twice 2 MiB, unmaps the misaligned head and the tail, advises
//! the aligned 2 MiB that is left, and is unmapped on drop: it costs
//! exactly its own pages wherever the heap stands. Young chunk 0 stays
//! a plain allocation, so a home NAT still pays kilobytes. Elsewhere,
//! and under Miri, full-size chunks take the `std::alloc` path.

use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
use std::marker::PhantomData;
use std::ops::{Index, IndexMut};
use std::ptr::NonNull;

/// Best-effort `madvise(MADV_HUGEPAGE)` on a fresh full-size chunk.
/// The chunks are already 2 MiB-aligned, but on hosts with transparent
/// hugepages in `madvise` mode (the common server default) an aligned
/// mapping alone is *not* backed by a hugepage — without the advice
/// every random slot access at dimensioning scale pays a 4 KiB-page
/// TLB walk (tens of thousands of pages for a 16× working set vs. ~one
/// TLB entry per chunk). Advisory only: the return value is ignored.
/// The kernel backs an extent with a hugepage only if the advice
/// covers all 2 MiB of it, so [`map_chunk`] passes its whole mapping.
///
/// # Safety
///
/// `ptr..ptr + len` lies in a live mapping. The call reads and writes
/// no memory; it only sets a paging hint on the range.
#[cfg(all(target_os = "linux", target_arch = "x86_64", not(miri)))]
unsafe fn advise_hugepage(ptr: *mut u8, len: usize) {
    const SYS_MADVISE: u64 = 28;
    const MADV_HUGEPAGE: u64 = 14;
    let _ret: i64;
    std::arch::asm!(
        "syscall",
        inlateout("rax") SYS_MADVISE => _ret,
        in("rdi") ptr,
        in("rsi") len,
        in("rdx") MADV_HUGEPAGE,
        lateout("rcx") _,
        lateout("r11") _,
        options(nostack),
    );
}

/// A full-size chunk as an anonymous mapping of its own: map twice
/// [`ARENA_CHUNK_BYTES`], unmap the misaligned head and the tail, and
/// advise the aligned 2 MiB that is left. Null if the kernel refuses
/// the mapping. Release it with [`unmap_chunk`], never `dealloc`.
///
/// # Safety
///
/// `layout` is a full-size chunk's (2 MiB, 2 MiB-aligned). The call
/// maps fresh memory and unmaps only parts of that same mapping.
#[cfg(all(target_os = "linux", target_arch = "x86_64", not(miri)))]
unsafe fn map_chunk(_layout: Layout) -> *mut u8 {
    const SYS_MMAP: u64 = 9;
    const PROT_READ_WRITE: u64 = 0x1 | 0x2;
    const MAP_PRIVATE_ANONYMOUS: u64 = 0x02 | 0x20;
    let span = 2 * ARENA_CHUNK_BYTES;
    let ret: i64;
    std::arch::asm!(
        "syscall",
        inlateout("rax") SYS_MMAP => ret,
        in("rdi") 0u64,
        in("rsi") span,
        in("rdx") PROT_READ_WRITE,
        in("r10") MAP_PRIVATE_ANONYMOUS,
        in("r8") -1i64,
        in("r9") 0u64,
        lateout("rcx") _,
        lateout("r11") _,
        options(nostack),
    );
    if ret < 0 {
        return std::ptr::null_mut();
    }
    let base = ret as usize;
    let start = base.next_multiple_of(ARENA_CHUNK_BYTES);
    let end = start + ARENA_CHUNK_BYTES;
    // The head is empty when the kernel handed out an aligned base
    // (munmap refuses a zero length); the tail never is, since `base`
    // is page-aligned and so `start - base < ARENA_CHUNK_BYTES`.
    // SAFETY (both unmaps): page-aligned ranges of the mapping made
    // above, outside the chunk, never handed to anyone.
    if start > base {
        unmap(base, start - base);
    }
    unmap(end, base + span - end);
    // SAFETY: `start` begins a live mapping of exactly 2 MiB, so the
    // advice names this chunk and nothing else.
    advise_hugepage(start as *mut u8, ARENA_CHUNK_BYTES);
    start as *mut u8
}

/// Release a chunk made by [`map_chunk`].
///
/// # Safety
///
/// `ptr` comes from [`map_chunk`] and no element in it will be read
/// again: the range is gone afterwards.
#[cfg(all(target_os = "linux", target_arch = "x86_64", not(miri)))]
unsafe fn unmap_chunk(ptr: *mut u8, _layout: Layout) {
    unmap(ptr as usize, ARENA_CHUNK_BYTES);
}

/// `munmap(addr, len)`, return value ignored: it fails only on a
/// misaligned or empty range, which the two callers above never pass.
///
/// # Safety
///
/// `addr..addr + len` is page-aligned, lies inside a mapping
/// [`map_chunk`] made, and holds nothing anyone will read again.
#[cfg(all(target_os = "linux", target_arch = "x86_64", not(miri)))]
unsafe fn unmap(addr: usize, len: usize) {
    const SYS_MUNMAP: u64 = 11;
    let _ret: i64;
    std::arch::asm!(
        "syscall",
        inlateout("rax") SYS_MUNMAP => _ret,
        in("rdi") addr,
        in("rsi") len,
        lateout("rcx") _,
        lateout("r11") _,
        options(nostack),
    );
}

/// Off Linux x86-64, and under Miri (no inline assembly), a full-size
/// chunk is the 2 MiB-aligned `std::alloc` allocation every chunk
/// once was, so Miri keeps checking the arena's pointer arithmetic.
#[cfg(not(all(target_os = "linux", target_arch = "x86_64", not(miri))))]
unsafe fn map_chunk(layout: Layout) -> *mut u8 {
    alloc(layout)
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64", not(miri))))]
unsafe fn unmap_chunk(ptr: *mut u8, layout: Layout) {
    dealloc(ptr, layout);
}

/// Bytes per full-size arena chunk: 2 MiB, the x86-64 hugepage size.
/// `cgn_arena_chunks` × this bounds the slab's footprint from above
/// (chunk 0 of a small arena is smaller).
pub const ARENA_CHUNK_BYTES: usize = 2 * 1024 * 1024;

/// Elements in chunk 0's first allocation (fewer only if a whole
/// chunk holds fewer).
const FIRST_CHUNK_ROWS: usize = 8;

/// Largest power of two not above `n` (`n > 0`).
const fn floor_pow2(n: usize) -> usize {
    1 << (usize::BITS - 1 - n.leading_zeros())
}

/// A chunked vector: `Vec`-shaped reads (`Index`, `get`, `iter`),
/// append-only writes, O(1) growth once chunk 0 is full-size, and
/// storage proportional to the population before that. See the module
/// docs for the exact movement and alignment contract.
pub(crate) struct Arena<T> {
    /// Chunks of [`Arena::CAP`] elements each, 2 MiB-aligned; all but
    /// the last are full. While `cap < CAP` there is at most one, and
    /// it is a plain allocation of `cap` elements.
    chunks: Vec<NonNull<T>>,
    /// Initialised elements, contiguous from index 0.
    len: usize,
    /// Element slots allocated: chunk 0's current capacity while it is
    /// still doubling, `chunks.len() * CAP` from then on.
    cap: usize,
    _marker: PhantomData<T>,
}

impl<T> Arena<T> {
    /// Elements per chunk: the largest power of two that fits in
    /// [`ARENA_CHUNK_BYTES`] — a power of two so indexing is
    /// shift + mask instead of division.
    pub(crate) const CAP: usize = {
        let per = ARENA_CHUNK_BYTES / std::mem::size_of::<T>();
        assert!(per > 0, "arena element larger than a chunk");
        floor_pow2(per)
    };
    const SHIFT: u32 = Self::CAP.trailing_zeros();
    const MASK: usize = Self::CAP - 1;
    /// Elements in chunk 0's first allocation: [`FIRST_CHUNK_ROWS`],
    /// or `CAP` where that is smaller. A power of two either way, so
    /// doubling lands exactly on `CAP`.
    pub(crate) const FIRST: usize = if Self::CAP < FIRST_CHUNK_ROWS {
        Self::CAP
    } else {
        FIRST_CHUNK_ROWS
    };

    pub fn new() -> Self {
        Arena {
            chunks: Vec::new(),
            len: 0,
            cap: 0,
            _marker: PhantomData,
        }
    }

    /// Layout of a chunk holding `cap` elements: the 2 MiB-aligned
    /// hugepage shape at `CAP`, a plain array below it.
    fn chunk_layout(cap: usize) -> Layout {
        let align = if cap == Self::CAP {
            // Dominates any element alignment.
            ARENA_CHUNK_BYTES
        } else {
            std::mem::align_of::<T>()
        };
        // cap <= CAP, so the size is at most ARENA_CHUNK_BYTES — far
        // below the Layout overflow bound.
        Layout::from_size_align(cap * std::mem::size_of::<T>(), align).expect("arena chunk layout")
    }

    /// Allocate an uninitialised chunk of `cap` (1..=`CAP`) elements:
    /// a hugepage-advised mapping of its own when it is full-size, a
    /// plain allocation below that.
    fn alloc_chunk(cap: usize) -> NonNull<T> {
        let layout = Self::chunk_layout(cap);
        let ptr = if cap == Self::CAP {
            // SAFETY: a full-size chunk's layout, which is all
            // `map_chunk` asks for; it is released by `free_chunk`
            // through `unmap_chunk`, the same `cap` choosing the path.
            unsafe { map_chunk(layout) }
        } else {
            // SAFETY: the layout has non-zero size (cap >= 1, and T is
            // not a ZST by the CAP assertion's division).
            unsafe { alloc(layout) }
        };
        NonNull::new(ptr.cast::<T>()).unwrap_or_else(|| handle_alloc_error(layout))
    }

    /// Release a chunk `alloc_chunk(cap)` returned, by the path that
    /// made it.
    ///
    /// # Safety
    ///
    /// `chunk` came from `alloc_chunk(cap)`, is not used afterwards,
    /// and its elements have been moved out or dropped.
    unsafe fn free_chunk(chunk: NonNull<T>, cap: usize) {
        let (ptr, layout) = (chunk.as_ptr().cast::<u8>(), Self::chunk_layout(cap));
        if cap == Self::CAP {
            unmap_chunk(ptr, layout);
        } else {
            dealloc(ptr, layout);
        }
    }

    /// Raw element pointer. Caller guarantees `i < cap` (and
    /// initialised for reads).
    #[inline]
    fn slot_ptr(&self, i: usize) -> *mut T {
        // SAFETY: `i >> SHIFT` is a live chunk (checked by the Vec
        // index) and `i & MASK` stays inside its allocation: a
        // full-size chunk holds CAP elements, and a still-small chunk
        // 0 holds `cap > i` of them.
        unsafe { self.chunks[i >> Self::SHIFT].as_ptr().add(i & Self::MASK) }
    }

    /// Initialised elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Chunks allocated so far, `len.div_ceil(CAP)` — the
    /// `cgn_arena_chunks` gauge. Chunk 0 counts as one chunk at every
    /// size. Stable after warm-up: growth only ever appends, so a
    /// steady-state shard performs zero storage reallocations.
    pub fn chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Bytes of element storage currently allocated.
    #[cfg(test)]
    pub(crate) fn reserved_bytes(&self) -> usize {
        self.cap * std::mem::size_of::<T>()
    }

    /// Bounds-checked borrow, `Vec::get`-shaped (the prefetch path's
    /// speculative probe).
    #[inline]
    pub fn get(&self, i: usize) -> Option<&T> {
        if i < self.len {
            // SAFETY: `i < len` is initialised.
            Some(unsafe { &*self.slot_ptr(i) })
        } else {
            None
        }
    }

    /// Append an element, growing when every allocated slot is taken.
    /// Elements already in a full-size chunk never move (see the
    /// module docs for young chunk 0).
    pub fn push(&mut self, value: T) {
        let i = self.len;
        if i == self.cap {
            self.grow();
        }
        // SAFETY: the slot is allocated (`i < cap` after grow) and
        // uninitialised (`i == len`); write takes ownership without
        // dropping it.
        unsafe { std::ptr::write(self.slot_ptr(i), value) };
        self.len = i + 1;
    }

    /// Make room for one more element (`len == cap` on entry): append
    /// a full-size chunk, or — while chunk 0 is still small — replace
    /// it with one twice the size.
    #[cold]
    fn grow(&mut self) {
        if self.cap >= Self::CAP {
            self.chunks.push(Self::alloc_chunk(Self::CAP));
            self.cap += Self::CAP;
            return;
        }
        let new_cap = if self.cap == 0 {
            Self::FIRST
        } else {
            self.cap * 2
        };
        let new = Self::alloc_chunk(new_cap);
        if let Some(old) = self.chunks.pop() {
            // SAFETY: `old` is chunk 0, a live `alloc_chunk(cap)` of
            // `cap` elements, all of them initialised (`len == cap`);
            // `new` is a distinct allocation of `2 * cap`. The copy
            // moves the elements bitwise, so the old storage is freed
            // without dropping them, and `&mut self` means no borrow of
            // them is live.
            unsafe {
                std::ptr::copy_nonoverlapping(old.as_ptr(), new.as_ptr(), self.len);
                Self::free_chunk(old, self.cap);
            }
        }
        self.chunks.push(new);
        self.cap = new_cap;
    }

    /// Iterate initialised elements in index order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        // SAFETY: every index below `len` is initialised.
        (0..self.len).map(move |i| unsafe { &*self.slot_ptr(i) })
    }
}

impl<T> Index<usize> for Arena<T> {
    type Output = T;

    #[inline]
    fn index(&self, i: usize) -> &T {
        assert!(i < self.len, "arena index out of bounds");
        // SAFETY: `i < len` is initialised.
        unsafe { &*self.slot_ptr(i) }
    }
}

impl<T> IndexMut<usize> for Arena<T> {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut T {
        assert!(i < self.len, "arena index out of bounds");
        // SAFETY: `i < len` is initialised; `&mut self` gives
        // exclusive access.
        unsafe { &mut *self.slot_ptr(i) }
    }
}

impl<T> Default for Arena<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Drop for Arena<T> {
    fn drop(&mut self) {
        // Every chunk is full-size except a lone, still-small chunk 0
        // (then `cap < CAP` is its size).
        let cap = self.cap.min(Self::CAP);
        for (c, &chunk) in self.chunks.iter().enumerate() {
            let filled = self.len.saturating_sub(c << Self::SHIFT).min(Self::CAP);
            // SAFETY: the first `filled` elements of each chunk are
            // initialised and dropped exactly once; the chunk came from
            // `alloc_chunk(cap)` and is never touched again.
            unsafe {
                for i in 0..filled {
                    std::ptr::drop_in_place(chunk.as_ptr().add(i));
                }
                Self::free_chunk(chunk, cap);
            }
        }
    }
}

// SAFETY: Arena<T> owns its elements like Vec<T>; the raw chunk
// pointers carry no extra sharing (`len` and `cap` are plain
// integers), so the auto-trait story is exactly Vec's. Needed because
// NonNull suppresses the auto impls.
unsafe impl<T: Send> Send for Arena<T> {}
unsafe impl<T: Sync> Sync for Arena<T> {}

impl<T> std::fmt::Debug for Arena<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Arena")
            .field("len", &self.len)
            .field("cap", &self.cap)
            .field("chunks", &self.chunks.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;

    /// A 1 KiB row: `CAP` is 2048 and `FIRST` 8, so a test can walk
    /// every promotion step and cross into chunk 1 in ~2k pushes.
    type Row = [u64; 128];
    const ROW_CAP: usize = Arena::<Row>::CAP;

    fn row(i: usize) -> Row {
        [i as u64; 128]
    }

    #[test]
    fn pushes_and_reads_across_chunk_boundaries() {
        // 32-byte rows -> 65536 per chunk; cross into a third chunk.
        let mut a: Arena<[u64; 4]> = Arena::new();
        let n = 2 * Arena::<[u64; 4]>::CAP + 17;
        for i in 0..n {
            a.push([i as u64; 4]);
        }
        assert_eq!(a.len(), n);
        assert_eq!(a.chunks(), 3);
        assert_eq!(a[0], [0; 4]);
        assert_eq!(a[n - 1], [(n - 1) as u64; 4]);
        assert_eq!(a.get(n), None);
        assert_eq!(a.iter().count(), n);
        let sum: u64 = a.iter().map(|r| r[0]).sum();
        assert_eq!(sum, (n as u64 - 1) * n as u64 / 2);
    }

    #[test]
    fn addresses_are_stable_across_growth() {
        // The contract: rows never move once chunk 0 holds CAP rows,
        // and rows in chunks >= 1 never move at all.
        let mut a: Arena<Row> = Arena::new();
        for i in 0..ROW_CAP {
            a.push(row(i));
        }
        let first = &a[0] as *const Row;
        let last = &a[ROW_CAP - 1] as *const Row;
        a.push(row(ROW_CAP));
        let next = &a[ROW_CAP] as *const Row;
        for i in ROW_CAP + 1..3 * ROW_CAP {
            a.push(row(i));
        }
        assert_eq!(first, &a[0] as *const Row, "full chunk 0 must not move");
        assert_eq!(last, &a[ROW_CAP - 1] as *const Row);
        assert_eq!(next, &a[ROW_CAP] as *const Row, "chunk 1 must not move");
        assert_eq!(a[0], row(0));
        assert_eq!(a[ROW_CAP], row(ROW_CAP));
    }

    #[test]
    fn chunks_are_two_mib_aligned() {
        // Aligned once chunk 0 holds CAP rows; chunks >= 1 always.
        let mut a: Arena<Row> = Arena::new();
        for i in 0..2 * ROW_CAP + 1 {
            a.push(row(i));
        }
        for c in 0..3 {
            let addr = &a[c * ROW_CAP] as *const Row as usize;
            assert_eq!(addr % ARENA_CHUNK_BYTES, 0, "chunk {c}");
        }
    }

    /// Full-size chunks are anonymous mappings of their own: aligned,
    /// outside glibc's `[heap]`, and returned to the kernel on drop.
    #[cfg(all(target_os = "linux", target_arch = "x86_64", not(miri)))]
    #[test]
    fn full_chunks_are_their_own_mappings() {
        use std::os::unix::fs::FileExt;

        /// The `/proc/self/maps` line whose range covers `[lo, hi)`.
        fn covering(lo: usize, hi: usize) -> Option<String> {
            let maps = std::fs::read_to_string("/proc/self/maps").expect("/proc/self/maps");
            maps.lines()
                .find(|line| {
                    let range = line.split(' ').next().unwrap_or("");
                    let (start, end) = range.split_once('-').expect("maps range");
                    let start = usize::from_str_radix(start, 16).expect("hex");
                    let end = usize::from_str_radix(end, 16).expect("hex");
                    start <= lo && hi <= end
                })
                .map(str::to_owned)
        }

        const TAG: u64 = 0x5eed << 48;
        let mut a: Arena<Row> = Arena::new();
        for i in 0..2 * ROW_CAP + 1 {
            a.push([TAG | i as u64; 128]);
        }
        let starts: Vec<usize> = (0..3)
            .map(|c| &a[c * ROW_CAP] as *const Row as usize)
            .collect();
        for (c, &start) in starts.iter().enumerate() {
            assert_eq!(start % ARENA_CHUNK_BYTES, 0, "chunk {c}");
            let line = covering(start, start + ARENA_CHUNK_BYTES).expect("chunk is mapped");
            // Anonymous: no path and no pseudo-path such as `[heap]`.
            // Adjacent chunks may share one line, since the kernel
            // merges like mappings.
            assert_eq!(line.split_whitespace().nth(5), None, "chunk {c}: {line}");
        }
        drop(a);
        // Gone: no line covers the chunk any more. Tests run in
        // parallel, so another may have mapped the freed range since;
        // then it must at least no longer hold this arena's first row
        // (an unmapped address reads back as an error).
        let mem = std::fs::File::open("/proc/self/mem").expect("/proc/self/mem");
        for (c, &start) in starts.iter().enumerate() {
            if let Some(line) = covering(start, start + ARENA_CHUNK_BYTES) {
                let mut word = [0u8; 8];
                let read = mem.read_exact_at(&mut word, start as u64);
                let row = TAG | (c * ROW_CAP) as u64;
                assert!(
                    read.is_err() || u64::from_ne_bytes(word) != row,
                    "chunk {c} still mapped after drop: {line}"
                );
            }
        }
    }

    #[test]
    fn chunk_count_is_len_over_cap_rounded_up() {
        let mut a: Arena<Row> = Arena::new();
        assert_eq!(a.chunks(), 0);
        for i in 0..2 * ROW_CAP + 2 {
            a.push(row(i));
            assert_eq!(a.chunks(), a.len().div_ceil(ROW_CAP), "len {}", a.len());
        }
    }

    #[test]
    fn storage_tracks_population_until_chunk_zero_is_full() {
        let mut a: Arena<Row> = Arena::new();
        assert_eq!(a.reserved_bytes(), 0);
        a.push(row(0));
        let first = FIRST_CHUNK_ROWS * std::mem::size_of::<Row>();
        assert_eq!(a.reserved_bytes(), first);
        for i in 1..ROW_CAP {
            a.push(row(i));
            let held = a.len() * std::mem::size_of::<Row>();
            assert!(a.reserved_bytes() < 2 * held.max(first));
        }
        assert_eq!(a.reserved_bytes(), ARENA_CHUNK_BYTES);
        a.push(row(ROW_CAP));
        assert_eq!(a.reserved_bytes(), 2 * ARENA_CHUNK_BYTES);
    }

    #[test]
    fn first_chunk_is_eight_rows_at_every_row_size() {
        // Rows, not bytes: a 32-byte row and an 8 KiB row both
        // start at eight, and only a row so large that a whole chunk
        // holds fewer starts at CAP.
        assert_eq!(Arena::<[u64; 4]>::FIRST, 8);
        assert_eq!(Arena::<Row>::FIRST, 8);
        assert_eq!(Arena::<[u64; 1024]>::FIRST, 8);
        type Huge = [u64; 100_000];
        assert_eq!((Arena::<Huge>::CAP, Arena::<Huge>::FIRST), (2, 2));
        let mut a: Arena<[u64; 4]> = Arena::new();
        a.push([0; 4]);
        assert_eq!(a.reserved_bytes(), 8 * 32);
    }

    #[test]
    fn eight_row_first_chunk_doubles_exactly_onto_cap() {
        // 8 KiB rows: FIRST is 8, CAP 256 — five doublings, each moving
        // every row, and the last lands exactly on CAP.
        type Big = [u64; 1024];
        let mut a: Arena<Big> = Arena::new();
        let n = Arena::<Big>::CAP + 1;
        let mut sizes = Vec::new();
        for i in 0..n {
            a.push([i as u64; 1024]);
            if sizes.last() != Some(&a.reserved_bytes()) {
                sizes.push(a.reserved_bytes());
            }
        }
        let rows: Vec<usize> = sizes.iter().map(|b| b / 8192).collect();
        assert_eq!(rows, [8, 16, 32, 64, 128, 256, 512]);
        assert_eq!(a.chunks(), 2);
        assert!(a.iter().enumerate().all(|(i, r)| r[1023] == i as u64));
    }

    #[test]
    fn index_mut_writes_through() {
        let mut a: Arena<u64> = Arena::new();
        a.push(1);
        a.push(2);
        a[1] = 99;
        assert_eq!(a[1], 99);
    }

    struct Witness {
        id: usize,
        drops: Rc<Cell<usize>>,
        _pad: [u64; 125],
    }

    impl Drop for Witness {
        fn drop(&mut self) {
            self.drops.set(self.drops.get() + 1);
        }
    }

    #[test]
    fn drop_runs_element_destructors_once() {
        // Through every doubling of chunk 0 and three rows into chunk
        // 1: no step may drop, duplicate or scramble an element.
        let drops = Rc::new(Cell::new(0));
        let n = Arena::<Witness>::CAP + 3;
        {
            let mut a: Arena<Witness> = Arena::new();
            let mut mirror = Vec::new();
            for id in 0..n {
                a.push(Witness {
                    id,
                    drops: Rc::clone(&drops),
                    _pad: [0; 125],
                });
                mirror.push(id);
                assert!(a.iter().map(|w| w.id).eq(mirror.iter().copied()));
                assert_eq!(drops.get(), 0, "growth must move, not drop");
            }
            assert_eq!(a.chunks(), 2);
        }
        assert_eq!(drops.get(), n);
    }

    #[test]
    fn drop_of_a_still_small_arena_frees_its_elements() {
        let drops = Rc::new(Cell::new(0));
        for n in [0, 1, Arena::<Witness>::FIRST, Arena::<Witness>::FIRST + 1] {
            drops.set(0);
            let mut a: Arena<Witness> = Arena::new();
            for id in 0..n {
                a.push(Witness {
                    id,
                    drops: Rc::clone(&drops),
                    _pad: [0; 125],
                });
            }
            drop(a);
            assert_eq!(drops.get(), n);
        }
    }

    #[test]
    #[should_panic(expected = "arena index out of bounds")]
    fn out_of_bounds_index_panics() {
        let a: Arena<u64> = Arena::new();
        let _ = a[0];
    }
}
