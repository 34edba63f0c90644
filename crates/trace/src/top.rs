//! Rendering helpers for the `repro -- top` live dashboard.
//!
//! The dashboard is a pure function of two successive `/metrics`
//! scrapes (parsed to `name → value` scalar maps by
//! `cgn_opsd::parse_scalars`) plus the scrape interval — no terminal
//! library, no state. The binary wraps it in an ANSI
//! clear-and-redraw loop; tests feed it synthetic maps and assert on
//! the text. Plain ANSI only: [`CLEAR`] is the whole "TUI toolkit".

use std::collections::BTreeMap;
use std::fmt::Write;

/// ANSI clear-screen + cursor-home: prefix for each redraw.
pub const CLEAR: &str = "\x1b[2J\x1b[H";

type Scalars = BTreeMap<String, u64>;

/// Unicode block-element sparkline of `values` scaled to their max
/// (empty input renders empty; an all-zero row renders spaces).
pub fn sparkline(values: &[u64]) -> String {
    const BLOCKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().copied().max().unwrap_or(0);
    values
        .iter()
        .map(|&v| {
            if v == 0 {
                ' '
            } else {
                // Map (0, max] onto the 8 block heights.
                let level = (v as u128 * 8).div_ceil(max as u128).clamp(1, 8) as usize;
                BLOCKS[level - 1]
            }
        })
        .collect()
}

/// All samples of one labelled family: `family{label="<v>"} → (v, value)`,
/// in label order.
pub fn labelled_series(scalars: &Scalars, family: &str, label: &str) -> Vec<(String, u64)> {
    let prefix = format!("{family}{{{label}=\"");
    scalars
        .iter()
        .filter_map(|(name, &v)| {
            let rest = name.strip_prefix(&prefix)?;
            let value = rest.strip_suffix("\"}")?;
            Some((value.to_string(), v))
        })
        .collect()
}

/// Per-bucket (non-cumulative) histogram counts for one labelled
/// histogram family, ordered by ascending bucket edge. Input is the
/// exposition's cumulative `_bucket{…,le="…"}` series.
pub fn bucket_counts(scalars: &Scalars, family: &str, label: &str, label_value: &str) -> Vec<u64> {
    let prefix = format!("{family}_bucket{{{label}=\"{label_value}\",le=\"");
    let mut edges: Vec<(u64, u64)> = scalars
        .iter()
        .filter_map(|(name, &v)| {
            let rest = name.strip_prefix(&prefix)?;
            let le = rest.strip_suffix("\"}")?;
            // "+Inf" sorts after every finite edge.
            let edge = le.parse::<u64>().unwrap_or(u64::MAX);
            Some((edge, v))
        })
        .collect();
    edges.sort_unstable_by_key(|&(edge, _)| edge);
    let mut prev = 0u64;
    edges
        .into_iter()
        .map(|(_, cumulative)| {
            let n = cumulative.saturating_sub(prev);
            prev = cumulative;
            n
        })
        .collect()
}

fn delta(prev: &Scalars, cur: &Scalars, name: &str) -> u64 {
    cur.get(name)
        .copied()
        .unwrap_or(0)
        .saturating_sub(prev.get(name).copied().unwrap_or(0))
}

fn rate(prev: &Scalars, cur: &Scalars, name: &str, secs: f64) -> f64 {
    if secs <= 0.0 {
        return 0.0;
    }
    delta(prev, cur, name) as f64 / secs
}

/// Mean of a histogram family (`_sum` / `_count`) over the interval,
/// or over the process's lifetime when the interval recorded nothing
/// (two scrapes between publishes see the same snapshot).
fn mean(prev: &Scalars, cur: &Scalars, family: &str) -> f64 {
    let (sum, count) = (format!("{family}_sum"), format!("{family}_count"));
    let lifetime = |name: &str| cur.get(name).copied().unwrap_or(0);
    let (sum, count) = match delta(prev, cur, &count) {
        0 => (lifetime(&sum), lifetime(&count)),
        n => (delta(prev, cur, &sum), n),
    };
    sum as f64 / count.max(1) as f64
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.1}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.1}µs", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

/// Render the dashboard body from two successive scrapes `interval`
/// seconds apart. `header` is the caller-supplied first line (address,
/// uptime, health summary).
pub fn render_top(header: &str, prev: &Scalars, cur: &Scalars, interval_secs: f64) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{header}");

    // Headline gauges.
    let live = cur.get("cgn_mappings_live").copied().unwrap_or(0);
    let wheel = cur.get("cgn_event_wheel_depth").copied().unwrap_or(0);
    let arena = cur.get("cgn_arena_chunks").copied().unwrap_or(0);
    let timers = cur.get("cgn_timers_pending").copied().unwrap_or(0);
    let fill = cur
        .get("cgn_allocator_fill_permille_worst")
        .copied()
        .unwrap_or(0);
    let created = rate(prev, cur, "cgn_mappings_created_total", interval_secs);
    let expired = rate(prev, cur, "cgn_mappings_expired_total", interval_secs);
    let _ = writeln!(
        out,
        "live {live}  admit/s {created:.0}  expire/s {expired:.0}  \
         fill {fill}‰  wheel {wheel}  timers {timers}  arena {arena} chunks"
    );

    // Per-shard flow rates.
    let shard_cur = labelled_series(cur, "cgn_shard_flows_total", "shard");
    if !shard_cur.is_empty() {
        let _ = writeln!(out, "\n shard     flows/s     total");
        for (shard, total) in &shard_cur {
            let name = format!("cgn_shard_flows_total{{shard=\"{shard}\"}}");
            let fps = rate(prev, cur, &name, interval_secs);
            let _ = writeln!(out, " {shard:>5}  {fps:>10.0}  {total:>8}");
        }
    }

    // Burst fill: whether the engine's burst pipeline is handed bursts
    // (outbound should sit near the driver's burst size; the reply leg
    // answers millisecond by millisecond, so inbound is small).
    if cur.contains_key("cgn_bursts_total") {
        let _ = writeln!(out, "\n burst      calls/s  packets/call");
        for (dir, calls, fill) in [
            ("outbound", "cgn_bursts_total", "cgn_burst_fill"),
            (
                "inbound",
                "cgn_inbound_bursts_total",
                "cgn_inbound_burst_fill",
            ),
        ] {
            let cps = rate(prev, cur, calls, interval_secs);
            let _ = writeln!(out, " {dir:<8} {cps:>9.0}  {:>12.1}", mean(prev, cur, fill));
        }
    }

    // Phase latency table + per-window activity sparklines.
    let phases: Vec<String> = labelled_series(cur, "cgn_phase_nanos_count", "phase")
        .into_iter()
        .map(|(phase, _)| phase)
        .collect();
    if !phases.is_empty() {
        let _ = writeln!(
            out,
            "\n phase             p50      p95      p99     ops/s  distribution"
        );
        for phase in phases {
            let scalar = |suffix: &str| format!("cgn_phase_nanos_{suffix}{{phase=\"{phase}\"}}");
            let p50 = cur.get(&scalar("p50")).copied().unwrap_or(0) as f64;
            let p95 = cur.get(&scalar("p95")).copied().unwrap_or(0) as f64;
            let p99 = cur.get(&scalar("p99")).copied().unwrap_or(0) as f64;
            let ops = rate(prev, cur, &scalar("count"), interval_secs);
            let buckets = bucket_counts(cur, "cgn_phase_nanos", "phase", &phase);
            let _ = writeln!(
                out,
                " {phase:<14} {:>8} {:>8} {:>8}  {ops:>8.0}  {}",
                fmt_ns(p50),
                fmt_ns(p95),
                fmt_ns(p99),
                sparkline(&buckets)
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scalars(pairs: &[(&str, u64)]) -> Scalars {
        pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect()
    }

    #[test]
    fn sparkline_scales_to_max() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[0, 0]), "  ");
        let s = sparkline(&[1, 4, 8]);
        assert_eq!(s.chars().count(), 3);
        assert_eq!(s.chars().last(), Some('█'), "max value renders full block");
        assert_eq!(s.chars().next(), Some('▁'), "small nonzero still visible");
    }

    #[test]
    fn bucket_counts_undo_cumulation_in_edge_order() {
        let s = scalars(&[
            ("cgn_phase_nanos_bucket{phase=\"sweep\",le=\"1\"}", 2),
            ("cgn_phase_nanos_bucket{phase=\"sweep\",le=\"+Inf\"}", 10),
            ("cgn_phase_nanos_bucket{phase=\"sweep\",le=\"3\"}", 7),
            ("cgn_phase_nanos_bucket{phase=\"other\",le=\"1\"}", 99),
        ]);
        assert_eq!(
            bucket_counts(&s, "cgn_phase_nanos", "phase", "sweep"),
            vec![2, 5, 3]
        );
    }

    #[test]
    fn dashboard_renders_rates_shards_and_phases() {
        let prev = scalars(&[
            ("cgn_mappings_created_total", 1000),
            ("cgn_shard_flows_total{shard=\"0\"}", 500),
            ("cgn_shard_flows_total{shard=\"1\"}", 400),
            ("cgn_phase_nanos_count{phase=\"generate\"}", 50),
            ("cgn_bursts_total", 100),
            ("cgn_burst_fill_sum", 3_000),
            ("cgn_burst_fill_count", 100),
        ]);
        let cur = scalars(&[
            ("cgn_bursts_total", 300),
            ("cgn_burst_fill_sum", 9_500),
            ("cgn_burst_fill_count", 300),
            ("cgn_inbound_bursts_total", 40),
            ("cgn_inbound_burst_fill_sum", 60),
            ("cgn_inbound_burst_fill_count", 40),
            ("cgn_mappings_created_total", 2000),
            ("cgn_mappings_live", 777),
            ("cgn_event_wheel_depth", 42),
            ("cgn_arena_chunks", 20),
            ("cgn_shard_flows_total{shard=\"0\"}", 1500),
            ("cgn_shard_flows_total{shard=\"1\"}", 900),
            ("cgn_phase_nanos_count{phase=\"generate\"}", 150),
            ("cgn_phase_nanos_p50{phase=\"generate\"}", 1500),
            ("cgn_phase_nanos_p95{phase=\"generate\"}", 3000),
            ("cgn_phase_nanos_p99{phase=\"generate\"}", 8000),
            (
                "cgn_phase_nanos_bucket{phase=\"generate\",le=\"1023\"}",
                100,
            ),
            (
                "cgn_phase_nanos_bucket{phase=\"generate\",le=\"+Inf\"}",
                150,
            ),
        ]);
        let text = render_top("cgn top — 127.0.0.1:9", &prev, &cur, 2.0);
        assert!(text.starts_with("cgn top — 127.0.0.1:9"));
        assert!(text.contains("live 777"), "{text}");
        assert!(
            text.contains("admit/s 500"),
            "1000 created over 2 s: {text}"
        );
        assert!(text.contains("wheel 42"));
        assert!(text.contains("arena 20 chunks"));
        // Shard rows: (1500-500)/2 and (900-400)/2.
        assert!(text.contains("500"), "{text}");
        assert!(text.contains("250"), "{text}");
        // Burst rows: (300-100)/2 calls/s at (9500-3000)/200 packets
        // per call; inbound has no previous scrape to difference.
        let row = |dir: &str| {
            let line = text.lines().find(|l| l.trim_start().starts_with(dir));
            line.unwrap_or_else(|| panic!("{dir} row: {text}"))
                .split_whitespace()
                .map(str::to_string)
                .collect::<Vec<_>>()
        };
        assert_eq!(row("outbound"), ["outbound", "100", "32.5"]);
        assert_eq!(row("inbound"), ["inbound", "20", "1.5"]);
        assert!(text.contains("generate"), "{text}");
        assert!(text.contains("1.5µs"), "p50 renders in µs: {text}");
        assert!(
            text.lines()
                .any(|l| l.contains("generate") && l.contains('█')),
            "phase row carries a sparkline: {text}"
        );
    }

    #[test]
    fn dashboard_tolerates_missing_series() {
        let empty = Scalars::new();
        let text = render_top("hdr", &empty, &empty, 1.0);
        assert!(text.contains("live 0"));
        assert!(!text.contains("phase "), "no phase table without data");
        assert!(!text.contains("burst "), "no burst rows without data");
    }
}
