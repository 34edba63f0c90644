//! End-to-end smoke test for `repro -- top`: bind a real
//! [`cgn_opsd::OpsServer`], publish a snapshot carrying headline
//! gauges, per-shard counters and phase-latency series, then spawn
//! the actual `repro` binary in `top` mode against it and assert the
//! rendered frames. This is the one place the whole client path —
//! scrape → `parse_scalars` → `render_top` → ANSI redraw — runs as a
//! subprocess, exactly as an operator would.

use cgn_metrics::{Snapshot, Value};
use cgn_opsd::OpsServer;
use cgn_traffic::SessionHealth;
use nat_engine::StoreOccupancy;
use std::process::Command;

fn published_state() -> (Snapshot, SessionHealth) {
    let mut snap = Snapshot::default();
    snap.push("cgn_mappings_live", Value::Gauge(777));
    snap.push("cgn_event_wheel_depth", Value::Gauge(42));
    snap.push("cgn_arena_chunks", Value::Gauge(20));
    snap.push("cgn_timers_pending", Value::Gauge(9));
    snap.push("cgn_allocator_fill_permille_worst", Value::Gauge(310));
    snap.push("cgn_mappings_created_total", Value::Counter(2000));
    snap.push("cgn_mappings_expired_total", Value::Counter(1223));
    snap.push("cgn_shard_flows_total{shard=\"0\"}", Value::Counter(1500));
    snap.push("cgn_shard_flows_total{shard=\"1\"}", Value::Counter(900));
    snap.push("cgn_bursts_total", Value::Counter(2));
    let mut fill = cgn_metrics::Histogram::default();
    fill.record(30);
    fill.record(35);
    snap.push("cgn_burst_fill", Value::Histogram(fill));
    snap.push(
        "cgn_phase_nanos_count{phase=\"translate\"}",
        Value::Counter(150),
    );
    snap.push(
        "cgn_phase_nanos_p50{phase=\"translate\"}",
        Value::Gauge(1500),
    );
    snap.push(
        "cgn_phase_nanos_p95{phase=\"translate\"}",
        Value::Gauge(3000),
    );
    snap.push(
        "cgn_phase_nanos_p99{phase=\"translate\"}",
        Value::Gauge(8000),
    );
    snap.push(
        "cgn_phase_nanos_bucket{phase=\"translate\",le=\"1023\"}",
        Value::Counter(100),
    );
    snap.push(
        "cgn_phase_nanos_bucket{phase=\"translate\",le=\"+Inf\"}",
        Value::Counter(150),
    );
    snap.normalize();
    let health = SessionHealth {
        now_secs: 120,
        horizon_secs: 600,
        flows_started: 2000,
        flows_blocked: 0,
        flows_completed: 1223,
        packets_sent: 5000,
        event_wheel_depth: 42,
        store: StoreOccupancy::default(),
        windows_retained: 2,
        windows_evicted: 0,
    };
    (snap, health)
}

#[test]
fn top_mode_renders_live_dashboard_frames() {
    let server = OpsServer::bind("127.0.0.1:0").expect("bind scrape endpoint");
    let (snap, health) = published_state();
    server.publish(&snap, &health);
    let addr = server.local_addr().to_string();

    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["top", &addr, "--iterations=2", "--interval=0.2"])
        .output()
        .expect("spawn repro top");
    assert!(out.status.success(), "top exits cleanly: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf8 frames");

    // Two redraws, each prefixed by the ANSI clear sequence.
    assert_eq!(stdout.matches("\x1b[2J\x1b[H").count(), 2, "{stdout:?}");
    // Header line comes from /healthz.
    assert!(stdout.contains(&format!("cgn top — {addr}")), "{stdout}");
    assert!(stdout.contains("sim 120s/600s"), "{stdout}");
    // Headline gauges from /metrics.
    assert!(stdout.contains("live 777"), "{stdout}");
    assert!(stdout.contains("fill 310‰"), "{stdout}");
    assert!(stdout.contains("wheel 42"), "{stdout}");
    // Burst-fill rows, from the histogram's `_sum` / `_count`.
    assert!(
        stdout
            .lines()
            .any(|l| l.contains("outbound") && l.contains("32.5")),
        "{stdout}"
    );
    // Per-shard table and phase-latency row with its sparkline.
    assert!(stdout.contains("shard     flows/s"), "{stdout}");
    assert!(stdout.contains("translate"), "{stdout}");
    assert!(stdout.contains("1.5µs"), "{stdout}");
    assert!(
        stdout
            .lines()
            .any(|l| l.contains("translate") && l.contains('█')),
        "phase row carries a sparkline: {stdout}"
    );

    // The dashboard is a pure scrape client: both frames hit /metrics
    // and /healthz, so the server saw four requests.
    assert_eq!(server.shutdown(), 4);
}

#[test]
fn top_mode_fails_fast_when_nothing_listens() {
    // Bind-then-drop to get an address that refuses connections.
    let addr = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        l.local_addr().expect("addr").to_string()
    };
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["top", &addr, "--iterations=1"])
        .output()
        .expect("spawn repro top");
    assert!(!out.status.success(), "dead endpoint is an error: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("/metrics failed"), "{stderr}");
}
