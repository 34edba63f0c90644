//! End-to-end integration: the full pipeline on a tiny world.

use cgn_study::{pipeline, results, run_study, StudyConfig};

#[test]
fn full_study_assembles_and_is_consistent() {
    let report = run_study(StudyConfig::tiny(11));

    // Every detection set is consistent with the coverage universes.
    for a in &report.nz_cellular_positive {
        assert!(
            report.table5.rows[3].routed.0 > 0,
            "cellular positives imply cellular coverage ({a})"
        );
    }
    // Table 5 percentages are percentages.
    for row in &report.table5.rows {
        for (cov, covp, pos, posp) in [row.routed, row.pbl, row.apnic] {
            assert!((0.0..=100.0).contains(&covp));
            assert!((0.0..=100.0).contains(&posp));
            assert!(
                pos <= cov,
                "{}: positives {pos} exceed covered {cov}",
                row.method
            );
        }
    }
    // Table 7 quadrants sum to the session count.
    let t7 = &report.table7;
    assert_eq!(
        t7.mismatch_detected + t7.mismatch_not_detected + t7.match_detected + t7.match_not_detected,
        t7.sessions
    );
    // Table 4 breakdowns are complete.
    let t4 = &report.table4;
    for b in [&t4.cellular_dev, &t4.noncellular_dev, &t4.noncellular_cpe] {
        let sum =
            b.r192 + b.r172 + b.r10 + b.r100 + b.unrouted + b.routed_match + b.routed_mismatch;
        assert_eq!(sum, b.n);
    }
    // The rendered report mentions every experiment.
    let text = report.render();
    for needle in [
        "Fig 1",
        "Table 1",
        "Table 2",
        "Table 3",
        "Fig 3",
        "Fig 4",
        "Table 4",
        "Fig 5",
        "Table 5",
        "Fig 6",
        "Fig 7",
        "Fig 8a",
        "Fig 8b",
        "Fig 8c",
        "Fig 9",
        "Table 7",
        "Fig 11",
        "Fig 12",
        "Fig 13",
        "calibration",
    ] {
        assert!(text.contains(needle), "report must cover {needle}");
    }
}

#[test]
fn study_is_deterministic_and_seed_sensitive() {
    let a = run_study(StudyConfig::tiny(21)).render();
    let b = run_study(StudyConfig::tiny(21)).render();
    let c = run_study(StudyConfig::tiny(22)).render();
    assert_eq!(a, b, "same seed ⇒ identical report");
    assert_ne!(a, c, "different seed ⇒ different world");
}

#[test]
fn artifacts_expose_consistent_ground_truth() {
    let art = pipeline::measure(StudyConfig::tiny(31));
    // Every subscriber is reachable from its deployment record.
    for d in &art.world.deployments {
        for id in &d.subscriber_ids {
            assert_eq!(art.world.subscribers[*id].as_id, d.info.id);
        }
    }
    // Leak attribution agrees with routing.
    for l in &art.leaks {
        assert_eq!(l.leaker_as, art.world.routing.origin_of(l.leaker_ip));
        assert_eq!(netcore::classify_reserved(l.internal_ip), Some(l.range));
    }
    // Sessions attribute to instrumented ASes.
    for s in &art.sessions {
        let a = s.as_id.expect("sessions carry AS attribution");
        assert!(
            art.world.deployment(a).is_some(),
            "session attributed to uninstrumented {a}"
        );
    }
}

/// FNV-1a over the rendered report: the digest the benchmark prints
/// for `study-pipeline`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ *b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// The study's output and packet counts per seed, recorded from the
/// tree before the DHT codec, `closest`, `pump` and the hashers were
/// rewritten (PR 19): those rewrites promise the same packets, bytes,
/// order and RNG draws, and this is the tier-1 check that they kept it.
#[test]
fn study_output_is_pinned() {
    // (seed, report digest, packets sent, NAT drops, crawler queries)
    for (seed, digest, sent, dropped_nat, queries) in [
        (7u64, 0xbf42_9935_fdcf_d31e_u64, 52_542u64, 846u64, 1_080u64),
        (78, 0xe770_af1d_afab_77da, 57_545, 729, 1_190),
        (2016, 0xd7cc_4313_58b8_7b30, 49_916, 462, 1_205),
    ] {
        let art = pipeline::measure(StudyConfig::tiny(seed));
        let net = art.world.net.stats();
        let text = results::assemble(&art).render();
        assert_eq!(fnv1a(text.as_bytes()), digest, "seed {seed}: report");
        assert_eq!(net.sent, sent, "seed {seed}: packets sent");
        assert_eq!(net.dropped_nat, dropped_nat, "seed {seed}: NAT drops");
        assert_eq!(art.crawl.queries_sent, queries, "seed {seed}: queries");
    }
}
