//! Millisecond-exact hierarchical event wheel for the flow driver.
//!
//! The epoch engine schedules every future event (next arrival,
//! keepalive, teardown) at a known millisecond; between barriers it
//! consumes them in `(time, sequence)` order. The original engine used
//! a `BinaryHeap`, whose `O(log n)` sift touches ~17 scattered cache
//! lines per operation once a shard holds 10⁵–10⁶ outstanding events —
//! one of the costs that made 16× subscriber scale disproportionately
//! slow. This wheel replaces it with amortised `O(1)` bucket inserts.
//!
//! Layout: level 0 holds 256 one-millisecond buckets (each pending
//! bucket maps to exactly one distinct millisecond); levels 1–3 hold
//! 64 buckets of 2⁸, 2¹⁴ and 2²⁰ ms respectively (~0.25 s, ~16 s,
//! ~17.5 min — spanning ~18.6 h, beyond every driver horizon; anything
//! farther parks in the farthest level-3 bucket and re-cascades).
//! Buckets cascade downward as the horizon advances. The
//! bucket-placement and cascade arithmetic is the shared
//! [`nat_engine::wheel::WheelGeometry`] core, instantiated at this
//! wheel's shape — the store's expiry wheel uses the same core at a
//! coarser (~1 s level-0) shape.
//!
//! **Ordering guarantee:** [`EventWheel::next_bucket`] yields batches
//! in strictly ascending millisecond order, each batch sorted by
//! sequence number — exactly the `(at_ms, seq)` lexicographic order
//! the heap produced, so run results are independent of the queue
//! implementation. The already-drained prefix is immutable: a push
//! behind the horizon panics. The driver drains a window of buckets
//! before it commits any of them, and bounds the window so that no
//! commit can schedule into it (see `driver::advance_shard`).

use nat_engine::wheel::WheelGeometry;

/// One scheduled event: `(at_ms, seq, payload)`.
type Entry<T> = (u64, u64, T);

const L0_BUCKETS: usize = 256;
const UPPER_BUCKETS: usize = 64;
/// The shared placement/cascade arithmetic (see [`nat_engine::wheel`])
/// at this wheel's shape: 1 ms exact at level 0, then 2⁸/2¹⁴/2²⁰ ms.
const WHEEL_GEOM: WheelGeometry = WheelGeometry {
    shifts: &[0, 8, 14, 20],
    buckets: &[L0_BUCKETS as u64, 64, 64, 64],
};

#[derive(Debug)]
pub(crate) struct EventWheel<T> {
    /// Next undrained millisecond: every event at `< horizon_ms` has
    /// been delivered.
    horizon_ms: u64,
    len: usize,
    l0: Vec<Vec<Entry<T>>>,
    upper: Vec<Vec<Entry<T>>>,
}

impl<T> EventWheel<T> {
    pub fn new() -> Self {
        EventWheel {
            horizon_ms: 0,
            len: 0,
            l0: (0..L0_BUCKETS).map(|_| Vec::new()).collect(),
            upper: (0..3 * UPPER_BUCKETS).map(|_| Vec::new()).collect(),
        }
    }

    /// Outstanding (undelivered) events — the driver's backlog gauge
    /// at metrics sample barriers.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Schedule `item` at `at_ms`.
    ///
    /// Panics if `at_ms` is behind the wheel's horizon: that
    /// millisecond has been handed out, and delivering the event late
    /// would silently re-time it.
    pub fn push(&mut self, at_ms: u64, seq: u64, item: T) {
        assert!(
            at_ms >= self.horizon_ms,
            "event at {at_ms} behind horizon {}",
            self.horizon_ms
        );
        self.len += 1;
        // Shared placement: level 0 is the exact-millisecond ring, the
        // upper levels (and the beyond-span farthest-bucket fallback)
        // coarsen toward ~17.5 min buckets.
        let (level, bucket) = WHEEL_GEOM.place(self.horizon_ms, at_ms);
        if level == 0 {
            self.l0[bucket].push((at_ms, seq, item));
        } else {
            self.upper[(level - 1) * UPPER_BUCKETS + bucket].push((at_ms, seq, item));
        }
    }

    fn cascade(&mut self, level: usize, bucket: usize) {
        let drained = std::mem::take(&mut self.upper[(level - 1) * UPPER_BUCKETS + bucket]);
        for e in drained {
            self.len -= 1;
            self.push(e.0, e.1, e.2);
        }
    }

    /// Hand out the next pending batch at or before `boundary_ms` —
    /// all events of one millisecond, sorted by sequence number — by
    /// swapping it into `batch`, whose old contents are dropped and
    /// whose storage becomes the bucket's, so a drain loop that keeps
    /// passing the same `Vec` recycles capacity instead of allocating
    /// per bucket. Returns `false`, leaving `batch` empty, once every
    /// event up to the boundary (inclusive) has been delivered; the
    /// horizon then rests just past the boundary. Events pushed
    /// between calls land at or past the horizon and are picked up by
    /// later calls of the same drain.
    pub fn next_bucket(&mut self, boundary_ms: u64, batch: &mut Vec<Entry<T>>) -> bool {
        batch.clear();
        if self.len == 0 {
            self.horizon_ms = self.horizon_ms.max(boundary_ms + 1);
            return false;
        }
        while self.horizon_ms <= boundary_ms {
            let tick = self.horizon_ms;
            // Entering a new level window: pull the levels that
            // wrapped, highest first, so entries settle downward (the
            // shared schedule of [`WheelGeometry::cascades`]).
            for (level, bucket) in WHEEL_GEOM.cascades(tick) {
                self.cascade(level, bucket);
            }
            let bucket = (tick & 255) as usize;
            self.horizon_ms = tick + 1;
            if !self.l0[bucket].is_empty() {
                std::mem::swap(batch, &mut self.l0[bucket]);
                self.len -= batch.len();
                debug_assert!(batch.iter().all(|e| e.0 == tick));
                batch.sort_by_key(|e| e.1);
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drain to `boundary` the way the driver does: one caller-owned
    /// `Vec` handed back to the wheel on every call.
    fn drain_all(wheel: &mut EventWheel<u32>, boundary: u64) -> Vec<(u64, u64, u32)> {
        let mut out = Vec::new();
        let mut batch = Vec::new();
        while wheel.next_bucket(boundary, &mut batch) {
            out.extend(batch.iter().copied());
        }
        assert!(batch.is_empty(), "a finished drain leaves the batch empty");
        out
    }

    #[test]
    fn delivers_in_time_then_seq_order() {
        let mut w = EventWheel::new();
        // Deliberately scrambled insert order, duplicate milliseconds,
        // and deadlines spanning all wheel levels.
        let mut events = vec![
            (5u64, 3u64, 0u32),
            (5, 1, 1),
            (300, 4, 2),       // level 1 at insert time
            (20_000, 2, 3),    // level 2
            (2_000_000, 5, 4), // level 3
            (5, 6, 5),
            (255, 7, 6),
            (256, 8, 7),
            (65_536, 9, 8),
        ];
        for &(at, seq, id) in &events {
            w.push(at, seq, id);
        }
        assert_eq!(w.len(), events.len());
        let drained = drain_all(&mut w, 3_000_000);
        events.sort_by_key(|e| (e.0, e.1));
        assert_eq!(drained, events);
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn boundary_is_inclusive_and_state_persists_across_drains() {
        let mut w = EventWheel::new();
        w.push(10, 1, 0);
        w.push(30, 2, 1);
        w.push(30_000, 3, 2);
        let first = drain_all(&mut w, 30);
        assert_eq!(first, vec![(10, 1, 0), (30, 2, 1)]);
        assert!(drain_all(&mut w, 29_999).is_empty(), "not yet due");
        let second = drain_all(&mut w, 30_000);
        assert_eq!(second, vec![(30_000, 3, 2)]);
    }

    #[test]
    fn pushes_during_a_drain_are_delivered_in_the_same_pass() {
        let mut w = EventWheel::new();
        w.push(5, 1, 0);
        let mut seen = Vec::new();
        let mut injected = false;
        let mut batch = Vec::new();
        while w.next_bucket(1_000, &mut batch) {
            for &(at, seq, id) in &batch {
                seen.push((at, seq, id));
                if !injected {
                    injected = true;
                    // The driver pattern: processing an event schedules
                    // a strictly-future follow-up inside the window.
                    w.push(at + 500, seq + 1, 99);
                }
            }
        }
        assert_eq!(seen, vec![(5, 1, 0), (505, 2, 99)]);
    }

    #[test]
    fn empty_wheel_fast_forwards_horizon() {
        let mut w: EventWheel<u32> = EventWheel::new();
        assert!(drain_all(&mut w, 10_000_000).is_empty());
        // A push after the jump must still be delivered at its time.
        w.push(10_000_500, 1, 7);
        assert!(drain_all(&mut w, 10_000_499).is_empty());
        assert_eq!(drain_all(&mut w, 10_000_500), vec![(10_000_500, 1, 7)]);
    }

    /// A millisecond that has been handed out is closed: the driver's
    /// window rule is what keeps commits from scheduling into it, and
    /// a violation must stop the run rather than re-time the event.
    #[test]
    #[should_panic(expected = "behind horizon")]
    fn push_behind_the_horizon_panics() {
        let mut w = EventWheel::new();
        w.push(5, 1, 0u32);
        w.push(9, 2, 1);
        assert_eq!(drain_all(&mut w, 7), vec![(5, 1, 0)]);
        w.push(7, 3, 2);
    }

    /// The swap hand-out: the caller's `Vec` becomes the drained
    /// bucket's storage, so a bucket that was filled once is pushed
    /// into again without reallocating, and each batch comes out in
    /// `(ms, seq)` order whatever the push order was.
    #[test]
    fn handed_out_buckets_recycle_their_capacity() {
        let mut w = EventWheel::new();
        let mut batch = Vec::new();
        for round in 0..3u64 {
            // Milliseconds 10 and 11 of each 256 ms lap share two
            // level-0 buckets; sequence numbers pushed descending.
            let base = round * 256;
            for i in 0..40u64 {
                w.push(base + 10 + i % 2, 1_000 - i, i as u32);
            }
            for ms in [base + 10, base + 11] {
                assert!(w.next_bucket(base + 255, &mut batch));
                assert_eq!(batch.len(), 20);
                assert!(batch.iter().all(|e| e.0 == ms));
                assert!(batch.windows(2).all(|p| p[0].1 < p[1].1), "seq order");
                if round > 0 {
                    assert!(
                        batch.capacity() >= 20 && w.l0[(ms & 255) as usize].capacity() >= 20,
                        "round {round}: both the batch and the bucket it was swapped \
                         into kept storage from earlier rounds"
                    );
                }
            }
            assert!(!w.next_bucket(base + 255, &mut batch));
            assert!(batch.is_empty() && batch.capacity() >= 20);
        }
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn randomised_equivalence_with_sorted_reference() {
        // xorshift-driven mixed workload across every level span.
        let mut w = EventWheel::new();
        let mut expected = Vec::new();
        let mut x = 0x9E37_79B9u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for seq in 0..5_000u64 {
            let at = next() % 4_000_000;
            w.push(at, seq, seq as u32);
            expected.push((at, seq, seq as u32));
        }
        expected.sort_by_key(|e| (e.0, e.1));
        // Drain in several windows to exercise horizon persistence.
        let mut drained = Vec::new();
        for boundary in [100, 10_000, 262_144, 1_048_576, 4_000_000] {
            drained.extend(drain_all(&mut w, boundary));
        }
        assert_eq!(drained, expected);
    }
}
