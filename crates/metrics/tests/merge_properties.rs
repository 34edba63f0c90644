//! Merge-algebra properties of the metrics exchange types.
//!
//! The driver folds per-shard snapshots in shard order at every sample
//! barrier, and different shard counts / window widths regroup the
//! same observations differently — so merge must be associative and
//! order-independent or the "bit-identical across thread counts"
//! guarantee would silently depend on grouping.

use cgn_metrics::{Histogram, Snapshot, Value};
use proptest::collection;
use proptest::prelude::*;

fn histogram_of(values: &[u64]) -> Histogram {
    let mut h = Histogram::default();
    for &v in values {
        h.record(v);
    }
    h
}

/// A snapshot over a small fixed name pool; per-name kind is fixed
/// (counter/gauge/max/histogram) so merges are always well-typed.
fn snapshot_of(seeds: &[(u8, u64)]) -> Snapshot {
    let mut s = Snapshot::default();
    for &(which, v) in seeds {
        match which % 4 {
            0 => s.push("flows_total", Value::Counter(v)),
            1 => s.push("live", Value::Gauge(v)),
            2 => s.push("worst", Value::Max(v)),
            _ => s.push("lat", Value::Histogram(histogram_of(&[v % 100_000]))),
        }
    }
    s.normalize();
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn histogram_merge_is_associative(
        a in collection::vec(0u64..1_000_000, 0..40),
        b in collection::vec(0u64..1_000_000, 0..40),
        c in collection::vec(0u64..1_000_000, 0..40),
    ) {
        let (ha, hb, hc) = (histogram_of(&a), histogram_of(&b), histogram_of(&c));
        // (a + b) + c
        let mut left = ha.clone();
        left.merge(&hb);
        left.merge(&hc);
        // a + (b + c)
        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut right = ha.clone();
        right.merge(&bc);
        prop_assert_eq!(&left, &right);
        // Equivalent to recording the concatenation directly.
        let mut all = a.clone();
        all.extend(&b);
        all.extend(&c);
        prop_assert_eq!(&left, &histogram_of(&all));
    }

    #[test]
    fn histogram_merge_is_order_independent(
        a in collection::vec(0u64..1_000_000, 0..40),
        b in collection::vec(0u64..1_000_000, 0..40),
    ) {
        let (ha, hb) = (histogram_of(&a), histogram_of(&b));
        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        prop_assert_eq!(ab, ba);
    }

    /// `record_n(v, n)` is `n` calls of `record(v)` — alone, merged
    /// into another histogram, and as the delta since an earlier one —
    /// so a weighted histogram moves through the exchange types exactly
    /// like the unweighted one it stands for.
    #[test]
    fn weighted_record_is_repeated_record(
        before in collection::vec(0u64..1_000_000, 0..20),
        weighted in collection::vec((0u64..u32::MAX as u64, 0u64..40), 0..20),
    ) {
        let earlier = histogram_of(&before);
        let mut onto_earlier = earlier.clone();
        let mut by_weight = Histogram::default();
        let mut repeated = Vec::new();
        for &(v, n) in &weighted {
            onto_earlier.record_n(v, n);
            by_weight.record_n(v, n);
            repeated.extend((0..n).map(|_| v));
        }
        let by_repeat = histogram_of(&repeated);
        prop_assert_eq!(&by_weight, &by_repeat);
        prop_assert_eq!(onto_earlier.delta_since(&earlier), by_repeat);
        let mut merged = earlier;
        merged.merge(&by_weight);
        prop_assert_eq!(merged, onto_earlier);
    }

    #[test]
    fn snapshot_merge_is_associative_and_order_independent(
        a in collection::vec((0u8..8, 0u64..1_000_000), 0..12),
        b in collection::vec((0u8..8, 0u64..1_000_000), 0..12),
        c in collection::vec((0u8..8, 0u64..1_000_000), 0..12),
    ) {
        let (sa, sb, sc) = (snapshot_of(&a), snapshot_of(&b), snapshot_of(&c));
        let mut left = sa.clone();
        left.merge(&sb);
        left.merge(&sc);
        let mut bc = sb.clone();
        bc.merge(&sc);
        let mut right = sa.clone();
        right.merge(&bc);
        prop_assert_eq!(&left, &right);
        let mut cba = sc.clone();
        cba.merge(&sb);
        cba.merge(&sa);
        prop_assert_eq!(&left, &cba);
        prop_assert_eq!(left.digest(), cba.digest());
    }
}
