//! Kademlia k-bucket routing tables.
//!
//! Each node keeps up to `k = 8` contacts per distance bucket. `find_node`
//! answers with the 8 contacts closest (XOR metric) to the target — which is
//! how internal endpoints, once validated into a table, propagate to the
//! paper's crawler.

use crate::krpc::CompactNode;
use crate::node_id::NodeId160;
use netcore::Endpoint;

/// Contacts per bucket (BEP-05's K).
pub const K: usize = 8;

/// A routing table keyed by XOR distance from `own_id`.
#[derive(Debug, Clone)]
pub struct RoutingTable160 {
    own_id: NodeId160,
    buckets: Vec<Vec<CompactNode>>,
    /// Bit `i` (of 160, low word first): bucket `i` holds a contact.
    /// Half of all ids fall in one bucket, a quarter in the next, and so
    /// on, so a table fills ten or so buckets and leaves the rest empty:
    /// [`RoutingTable160::closest`] reads these three words instead of
    /// 160 bucket headers.
    occupied: [u64; 3],
    /// Contacts stored, over all buckets.
    len: usize,
}

impl RoutingTable160 {
    pub fn new(own_id: NodeId160) -> Self {
        RoutingTable160 {
            own_id,
            buckets: vec![Vec::new(); 160],
            occupied: [0; 3],
            len: 0,
        }
    }

    pub fn own_id(&self) -> NodeId160 {
        self.own_id
    }

    /// Total number of stored contacts.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert or update a contact.
    ///
    /// * Our own ID is never stored.
    /// * A contact with a known ID has its endpoint updated in place (the
    ///   most recently validated endpoint wins — this is how an internal
    ///   endpoint learned via LPD or hairpin replaces the external one).
    /// * A new contact joins its bucket unless the bucket is full, in which
    ///   case it is discarded (the BEP-05 simplification without eviction
    ///   pings).
    ///
    /// Returns true if the table changed.
    pub fn upsert(&mut self, node: CompactNode) -> bool {
        if node.id == self.own_id {
            return false;
        }
        let d = self.own_id.distance(&node.id);
        let idx = d.bucket_index().expect("distance nonzero");
        let bucket = &mut self.buckets[idx];
        if let Some(existing) = bucket.iter_mut().find(|c| c.id == node.id) {
            if existing.endpoint == node.endpoint {
                return false;
            }
            existing.endpoint = node.endpoint;
            return true;
        }
        if bucket.len() >= K {
            return false;
        }
        bucket.push(node);
        self.occupied[idx / 64] |= 1 << (idx % 64);
        self.len += 1;
        true
    }

    /// Remove a contact (e.g. it stopped responding).
    pub fn remove(&mut self, id: NodeId160) -> bool {
        if id == self.own_id {
            return false;
        }
        let d = self.own_id.distance(&id);
        let idx = match d.bucket_index() {
            Some(i) => i,
            None => return false,
        };
        let bucket = &mut self.buckets[idx];
        let before = bucket.len();
        bucket.retain(|c| c.id != id);
        if bucket.is_empty() {
            self.occupied[idx / 64] &= !(1 << (idx % 64));
        }
        self.len -= before - bucket.len();
        bucket.len() != before
    }

    /// Whether any contact is stored at `endpoint` (any node ID).
    pub fn knows_endpoint(&self, endpoint: Endpoint) -> bool {
        self.iter().any(|c| c.endpoint == endpoint)
    }

    /// The endpoint stored for `id`, if any.
    pub fn endpoint_of(&self, id: NodeId160) -> Option<Endpoint> {
        let d = self.own_id.distance(&id);
        let idx = d.bucket_index()?;
        self.buckets[idx]
            .iter()
            .find(|c| c.id == id)
            .map(|c| c.endpoint)
    }

    /// The `n` contacts closest to `target`, nearest first — the content
    /// of a `find_node` response.
    ///
    /// This is a selection, not a sort: one pass over the occupied
    /// buckets, one distance per contact (three big-endian words, compared as the
    /// 160-bit integers they spell), and the best `n` seen so far kept
    /// sorted in the buffer that is returned, which a contact enters
    /// only by beating its last entry. The result is what sorting the
    /// whole table by distance and truncating gives, bit for bit:
    /// `x ↦ x ⊕ target` is a bijection, so contacts with distinct ids —
    /// all a table holds — have distinct distances, there are no ties,
    /// and the order of the `n` nearest is unique.
    pub fn closest(&self, target: NodeId160, n: usize) -> Vec<CompactNode> {
        let n = n.min(self.len);
        let mut best: Vec<CompactNode> = Vec::with_capacity(n);
        if n == 0 {
            return best;
        }
        let t = target.words();
        let distance = |c: &CompactNode| {
            let w = c.id.words();
            [w[0] ^ t[0], w[1] ^ t[1], w[2] ^ t[2]]
        };
        // Distance of `best`'s last entry once it holds `n`.
        let mut worst = [u64::MAX; 3];
        for (w, &word) in self.occupied.iter().enumerate() {
            let mut left = word;
            while left != 0 {
                let bucket = &self.buckets[w * 64 + left.trailing_zeros() as usize];
                left &= left - 1;
                for c in bucket {
                    let d = distance(c);
                    if best.len() == n {
                        if d >= worst {
                            continue;
                        }
                        best.pop();
                    }
                    let at = best.partition_point(|b| distance(b) < d);
                    best.insert(at, *c);
                    if best.len() == n {
                        worst = distance(&best[n - 1]);
                    }
                }
            }
        }
        best
    }

    /// The `index`-th contact in [`RoutingTable160::iter`] order.
    pub fn nth(&self, mut index: usize) -> Option<&CompactNode> {
        for bucket in &self.buckets {
            match bucket.get(index) {
                Some(c) => return Some(c),
                None => index -= bucket.len(),
            }
        }
        None
    }

    /// Iterate all contacts (bucket order — deterministic).
    pub fn iter(&self) -> impl Iterator<Item = &CompactNode> {
        self.buckets.iter().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcore::ip;
    use proptest::prelude::*;

    fn node(n: u64) -> CompactNode {
        CompactNode::new(
            NodeId160::from_u64(n),
            Endpoint::new(ip(10, 0, (n >> 8) as u8, n as u8), 6881),
        )
    }

    fn table() -> RoutingTable160 {
        RoutingTable160::new(NodeId160::from_u64(0))
    }

    #[test]
    fn upsert_and_lookup() {
        let mut t = table();
        assert!(t.upsert(node(5)));
        assert_eq!(t.len(), 1);
        assert_eq!(
            t.endpoint_of(NodeId160::from_u64(5)),
            Some(node(5).endpoint)
        );
        assert_eq!(t.endpoint_of(NodeId160::from_u64(6)), None);
    }

    #[test]
    fn own_id_never_stored() {
        let mut t = table();
        assert!(!t.upsert(CompactNode::new(NodeId160::from_u64(0), node(1).endpoint)));
        assert!(t.is_empty());
    }

    #[test]
    fn endpoint_update_in_place() {
        let mut t = table();
        t.upsert(node(5));
        // The same node is later validated at an internal endpoint.
        let internal = CompactNode::new(
            NodeId160::from_u64(5),
            Endpoint::new(ip(100, 64, 0, 9), 6881),
        );
        assert!(t.upsert(internal));
        assert_eq!(t.len(), 1, "update must not duplicate");
        assert_eq!(
            t.endpoint_of(NodeId160::from_u64(5)),
            Some(internal.endpoint)
        );
        // Idempotent.
        assert!(!t.upsert(internal));
    }

    #[test]
    fn bucket_capacity_enforced() {
        let mut t = table();
        // Node IDs 8..16 share bucket 3 (distance 8..15 from 0).
        for n in 8..16 {
            assert!(t.upsert(node(n)));
        }
        assert_eq!(t.len(), 8);
        // Bucket 3 is full: one more in the same range is refused...
        // (ids 8..16 fill it; no more ids exist in that bucket range, so
        // use bucket 4: 16..32 has 16 candidates for 8 slots.)
        for n in 16..24 {
            assert!(t.upsert(node(n)));
        }
        for n in 24..32 {
            assert!(!t.upsert(node(n)), "bucket overflow must be refused");
        }
        assert_eq!(t.len(), 16);
    }

    #[test]
    fn closest_orders_by_xor_distance() {
        let mut t = table();
        for n in [1u64, 2, 4, 8, 16, 32, 64, 128, 256] {
            t.upsert(node(n));
        }
        let target = NodeId160::from_u64(5);
        let res = t.closest(target, 3);
        // d(4,5)=1, d(1,5)=4, d(2,5)=7 → closest three are 4, 1, 2... check:
        // d(8,5)=13, d(16,5)=21 — so [4,1,2].
        let ids: Vec<u64> = res
            .iter()
            .map(|c| {
                let b = c.id.as_bytes();
                u64::from_be_bytes(b[12..20].try_into().unwrap())
            })
            .collect();
        assert_eq!(ids, vec![4, 1, 2]);
    }

    #[test]
    fn closest_truncates_to_available() {
        let mut t = table();
        t.upsert(node(1));
        assert_eq!(t.closest(NodeId160::from_u64(9), 8).len(), 1);
        assert!(table().closest(NodeId160::from_u64(9), 8).is_empty());
    }

    #[test]
    fn remove_contact() {
        let mut t = table();
        t.upsert(node(5));
        assert!(t.remove(NodeId160::from_u64(5)));
        assert!(!t.remove(NodeId160::from_u64(5)));
        assert!(t.is_empty());
        assert!(!t.remove(t.own_id()));
    }

    proptest! {
        /// closest() returns contacts sorted by distance, without
        /// duplicates, and no more than requested.
        #[test]
        fn prop_closest_sorted(ids in proptest::collection::hash_set(1u64..10_000, 1..64), target in 1u64..10_000) {
            let mut t = table();
            for id in &ids {
                t.upsert(node(*id));
            }
            let target = NodeId160::from_u64(target);
            let res = t.closest(target, K);
            prop_assert!(res.len() <= K);
            for w in res.windows(2) {
                prop_assert!(w[0].id.distance(&target) <= w[1].id.distance(&target));
            }
            let mut seen = std::collections::HashSet::new();
            for c in &res {
                prop_assert!(seen.insert(c.id));
            }
        }

        /// `closest` is the prefix of the table sorted by distance — the
        /// form it replaced: copy every contact, sort, truncate — on
        /// tables whose ids share long prefixes with the owner's (so low
        /// buckets fill to `K` and refuse), for every `n` around the
        /// table's size; `nth` and `len` agree with `iter`.
        #[test]
        fn prop_closest_is_the_sorted_prefix(seed in any::<u64>(), contacts in 0usize..300) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let own = NodeId160::random(&mut rng);
            let mut t = RoutingTable160::new(own);
            let mut refused = 0;
            for i in 0..contacts {
                // Keep a random-length prefix of the owner's id.
                let mut id = NodeId160::random(&mut rng);
                let keep = rng.gen_range(if i % 2 == 0 { 0..160usize } else { 140..156 });
                for bit in 0..keep {
                    let mask = 0x80u8 >> (bit % 8);
                    id.0[bit / 8] = (id.0[bit / 8] & !mask) | (own.0[bit / 8] & mask);
                }
                let endpoint = Endpoint::new(ip(10, 0, (i >> 8) as u8, i as u8), 6881);
                refused += !t.upsert(CompactNode::new(id, endpoint)) as usize;
                if i % 7 == 0 {
                    t.remove(id);
                }
            }
            let all: Vec<CompactNode> = t.iter().copied().collect();
            prop_assert!(contacts < 250 || refused > 0, "some bucket filled");
            prop_assert_eq!(t.len(), all.len());
            prop_assert_eq!(t.is_empty(), all.is_empty());
            for (i, c) in all.iter().enumerate() {
                prop_assert_eq!(t.nth(i), Some(c));
            }
            prop_assert_eq!(t.nth(all.len()), None);
            for target in [own, NodeId160::random(&mut rng), all.first().map_or(own, |c| c.id)] {
                for n in [0, 1, K, 20, all.len(), all.len() + 3] {
                    let mut sorted = all.clone();
                    sorted.sort_by_key(|c| c.id.distance(&target));
                    sorted.truncate(n);
                    prop_assert_eq!(t.closest(target, n), sorted);
                }
            }
        }

        /// Table size never exceeds 160 * K and upsert is idempotent.
        #[test]
        fn prop_upsert_idempotent(ids in proptest::collection::vec(1u64..500, 0..128)) {
            let mut t = table();
            for id in &ids {
                t.upsert(node(*id));
            }
            let size = t.len();
            for id in &ids {
                t.upsert(node(*id));
            }
            prop_assert_eq!(t.len(), size);
            prop_assert!(t.len() <= 160 * K);
        }
    }
}
