//! 160-bit DHT node identifiers and the Kademlia XOR metric.

use rand::Rng;
use std::fmt;

/// A 160-bit node identifier (BEP-05). Nodes choose these at random; the
/// probability of collision is negligible, which is why the paper can use
/// `(IP:port, nodeid)` as the peer identity.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId160(pub [u8; 20]);

impl NodeId160 {
    pub const ZERO: NodeId160 = NodeId160([0; 20]);

    /// Generate a uniformly random identifier.
    pub fn random<R: Rng>(rng: &mut R) -> NodeId160 {
        let mut id = [0u8; 20];
        rng.fill(&mut id);
        NodeId160(id)
    }

    /// Deterministic identifier from a counter — handy in tests.
    pub fn from_u64(n: u64) -> NodeId160 {
        let mut id = [0u8; 20];
        id[12..20].copy_from_slice(&n.to_be_bytes());
        NodeId160(id)
    }

    /// The XOR distance to `other`, itself a 160-bit value.
    pub fn distance(&self, other: &NodeId160) -> NodeId160 {
        let mut d = [0u8; 20];
        for (i, b) in d.iter_mut().enumerate() {
            *b = self.0[i] ^ other.0[i];
        }
        NodeId160(d)
    }

    /// The identifier as three big-endian words (64, 64 and 32 bits).
    /// Arrays compare lexicographically, so these compare as the 160-bit
    /// integers they spell — and so do the XORs of two of them: the
    /// order of [`NodeId160::distance`]'s byte arrays, at three XORs per
    /// distance, not twenty.
    pub fn words(&self) -> [u64; 3] {
        let word = |at: usize| u64::from_be_bytes(self.0[at..at + 8].try_into().expect("8 bytes"));
        // The last word overlaps the second; its low half is what is left.
        [word(0), word(8), word(12) & 0xFFFF_FFFF]
    }

    /// Index of the k-bucket for a node at this distance: the position of
    /// the highest set bit (0..=159), or `None` for distance zero (self).
    pub fn bucket_index(&self) -> Option<usize> {
        for (byte_idx, byte) in self.0.iter().enumerate() {
            if *byte != 0 {
                let bit = 7 - byte.leading_zeros() as usize;
                return Some((19 - byte_idx) * 8 + bit);
            }
        }
        None
    }

    pub fn as_bytes(&self) -> &[u8; 20] {
        &self.0
    }

    pub fn from_bytes(b: &[u8]) -> Option<NodeId160> {
        if b.len() != 20 {
            return None;
        }
        let mut id = [0u8; 20];
        id.copy_from_slice(b);
        Some(NodeId160(id))
    }
}

fn fmt_short_hex(id: &NodeId160, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    for b in &id.0[..4] {
        write!(f, "{b:02x}")?;
    }
    write!(f, "…")?;
    for b in &id.0[18..] {
        write!(f, "{b:02x}")?;
    }
    Ok(())
}

impl fmt::Debug for NodeId160 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_short_hex(self, f)
    }
}

impl fmt::Display for NodeId160 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_short_hex(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn distance_properties() {
        let a = NodeId160::from_u64(0b1010);
        let b = NodeId160::from_u64(0b0110);
        assert_eq!(a.distance(&a), NodeId160::ZERO);
        assert_eq!(a.distance(&b), b.distance(&a));
        assert_eq!(a.distance(&b), NodeId160::from_u64(0b1100));
    }

    #[test]
    fn bucket_index_values() {
        assert_eq!(NodeId160::ZERO.bucket_index(), None);
        assert_eq!(NodeId160::from_u64(1).bucket_index(), Some(0));
        assert_eq!(NodeId160::from_u64(2).bucket_index(), Some(1));
        assert_eq!(NodeId160::from_u64(255).bucket_index(), Some(7));
        assert_eq!(NodeId160::from_u64(256).bucket_index(), Some(8));
        let mut top = [0u8; 20];
        top[0] = 0x80;
        assert_eq!(NodeId160(top).bucket_index(), Some(159));
    }

    #[test]
    fn random_ids_differ() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = NodeId160::random(&mut rng);
        let b = NodeId160::random(&mut rng);
        assert_ne!(a, b);
    }

    #[test]
    fn from_bytes_validation() {
        assert!(NodeId160::from_bytes(&[0u8; 19]).is_none());
        assert!(NodeId160::from_bytes(&[0u8; 21]).is_none());
        let id = NodeId160::from_u64(77);
        assert_eq!(NodeId160::from_bytes(id.as_bytes()), Some(id));
    }

    #[test]
    fn ordering_matches_distance_comparison() {
        // Distances compare as big-endian 160-bit integers, which the
        // derived Ord on [u8; 20] provides.
        let target = NodeId160::from_u64(100);
        let near = NodeId160::from_u64(101); // distance 1
        let far = NodeId160::from_u64(228); // distance 128
        assert!(target.distance(&near) < target.distance(&far));
    }

    proptest! {
        /// XOR metric axioms: identity, symmetry, and the triangle
        /// inequality (which XOR satisfies in the strong form
        /// d(a,c) <= d(a,b) ^ ... — we check the standard form).
        #[test]
        fn prop_metric(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
            let (a, b, c) = (NodeId160::from_u64(a), NodeId160::from_u64(b), NodeId160::from_u64(c));
            prop_assert_eq!(a.distance(&b), b.distance(&a));
            prop_assert_eq!(a.distance(&a), NodeId160::ZERO);
            // Unidirectional: for any point there is exactly one at each
            // distance: d(a,b) == d(a,c) implies b == c.
            if a.distance(&b) == a.distance(&c) {
                prop_assert_eq!(b, c);
            }
        }

        /// XORs of the word forms order as the byte-form distances do.
        #[test]
        fn prop_words_order_as_bytes(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let [t, a, mut b] = [(); 3].map(|()| NodeId160::random(&mut rng));
            // Often equal up to a late byte, so that the low words decide.
            let shared = seed as usize % 21;
            b.0[..shared].copy_from_slice(&a.0[..shared]);
            let xor = |x: [u64; 3], y: [u64; 3]| [x[0] ^ y[0], x[1] ^ y[1], x[2] ^ y[2]];
            prop_assert_eq!(
                xor(t.words(), a.words()).cmp(&xor(t.words(), b.words())),
                t.distance(&a).cmp(&t.distance(&b))
            );
            prop_assert_eq!(xor(t.words(), a.words()), t.distance(&a).words());
        }

        /// bucket_index is the floor of log2 of the distance.
        #[test]
        fn prop_bucket_index_log2(n in 1u64..) {
            let id = NodeId160::from_u64(n);
            let expected = 63 - n.leading_zeros() as usize;
            prop_assert_eq!(id.bucket_index(), Some(expected));
        }
    }
}
