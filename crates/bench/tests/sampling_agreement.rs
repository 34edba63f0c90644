//! One sampling decision: behind one `Nat`, a flow tracer at
//! `sample_one_in = N` and an event log at
//! `TelemetryMode::Sampled { one_in: N }` pick exactly the same
//! mappings, because both hash `MappingEvent::flow_key` with
//! `FlowKey::sampled`.

use cgn_telemetry::{BinaryLogSink, Record};
use cgn_trace::{ShardTracer, SpanKind, TraceConfig};
use nat_engine::telemetry::TelemetryMode;
use nat_engine::{Nat, NatConfig};
use netcore::{Endpoint, Packet, SimTime};
use std::net::Ipv4Addr;

/// A mapping lifecycle event as both sides can state it: create or
/// expire, its millisecond, the subscriber (creates only) and the
/// external endpoint.
type Lifecycle = (bool, u64, Option<Ipv4Addr>, Endpoint);

#[test]
fn tracer_and_sampled_log_pick_the_same_mappings() {
    for one_in in [1u32, 4, 16] {
        let pool = vec![Ipv4Addr::new(198, 51, 100, 1)];
        let mut nat = Nat::new(NatConfig::cgn_default(), pool, 7);
        let mode = TelemetryMode::Sampled { one_in };
        nat.set_sink(Box::new(BinaryLogSink::new(mode)));
        let trace = TraceConfig {
            sample_one_in: one_in,
            ring_capacity: 1 << 16,
            profile_phases: false,
        };
        nat.set_tracer(Box::new(ShardTracer::new(0, &trace)));
        let dst = Endpoint::new(Ipv4Addr::new(203, 0, 113, 10), 8000);
        for k in 0..2000u32 {
            let host = Ipv4Addr::new(100, 64, (k / 200) as u8, (k % 200) as u8 + 1);
            let src = Endpoint::new(host, 40_000 + (k % 7) as u16);
            let at = SimTime::from_millis(k as u64 * 10);
            let _ = nat.process_outbound(Packet::udp(src, dst, vec![]), at);
        }
        nat.sweep(SimTime::from_secs(400));

        let tracer = nat.tracer().expect("tracer installed");
        assert_eq!(tracer.evicted(), 0, "the ring holds the whole run");
        let sampled_flows = tracer.sampled_flows();
        let traced: Vec<Lifecycle> = tracer
            .events()
            .filter_map(|e| {
                let external = Endpoint::new(e.key.external_ip, e.key.external_port);
                match e.kind {
                    SpanKind::Admit => Some((true, e.at_ms, Some(e.key.internal_ip), external)),
                    SpanKind::Expire => Some((false, e.at_ms, None, external)),
                    _ => None,
                }
            })
            .collect();
        let sink = nat.take_sink().expect("sink installed");
        let log = BinaryLogSink::from_sink(sink).expect("a BinaryLogSink");
        let logged: Vec<Lifecycle> = log
            .log()
            .decode()
            .expect("log decodes")
            .into_iter()
            .map(|r| match r {
                Record::MapCreate {
                    at_ms,
                    subscriber,
                    external,
                    ..
                } => (true, at_ms, Some(subscriber), external),
                Record::MapExpire {
                    at_ms, external, ..
                } => (false, at_ms, None, external),
                other => panic!("block record in a sampled log: {other:?}"),
            })
            .collect();

        let creates = logged.iter().filter(|l| l.0).count() as u64;
        assert_eq!(creates, sampled_flows, "1-in-{one_in}");
        assert!(creates > 0, "1-in-{one_in} must keep some of 2000 flows");
        if one_in > 1 {
            assert!(creates < 2000, "1-in-{one_in} must decimate");
        }
        assert_eq!(traced, logged, "1-in-{one_in}: same mappings, same order");
    }
}
