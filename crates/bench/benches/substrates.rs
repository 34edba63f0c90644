//! Substrate micro-benchmarks: the building blocks every experiment
//! exercises — NAT translation, wire codecs, routing lookups, forwarding.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use nat_engine::{Nat, NatConfig, NatVerdict};
use netcore::{ip, AsId, Endpoint, Packet, Prefix, RoutingTable, SimTime};

fn bench_nat_translation(c: &mut Criterion) {
    let mut g = c.benchmark_group("nat");
    g.throughput(Throughput::Elements(1));

    g.bench_function("outbound_new_mapping", |b| {
        let mut n = Nat::new(NatConfig::cgn_default(), vec![ip(198, 51, 100, 1)], 1);
        let mut port = 1000u16;
        let dst = Endpoint::new(ip(203, 0, 113, 10), 80);
        b.iter(|| {
            port = port.wrapping_add(1).max(1000);
            let src = Endpoint::new(ip(100, 64, 0, 1), port);
            black_box(n.process_outbound(Packet::udp(src, dst, vec![]), SimTime::ZERO))
        });
    });

    g.bench_function("outbound_reuse_mapping", |b| {
        let mut n = Nat::new(NatConfig::cgn_default(), vec![ip(198, 51, 100, 1)], 1);
        let src = Endpoint::new(ip(100, 64, 0, 1), 40_000);
        let dst = Endpoint::new(ip(203, 0, 113, 10), 80);
        let _ = n.process_outbound(Packet::udp(src, dst, vec![]), SimTime::ZERO);
        b.iter(|| black_box(n.process_outbound(Packet::udp(src, dst, vec![]), SimTime::ZERO)));
    });

    g.bench_function("inbound_established", |b| {
        let mut n = Nat::new(NatConfig::cgn_default(), vec![ip(198, 51, 100, 1)], 1);
        let src = Endpoint::new(ip(100, 64, 0, 1), 40_000);
        let dst = Endpoint::new(ip(203, 0, 113, 10), 80);
        let out = match n.process_outbound(Packet::udp(src, dst, vec![]), SimTime::ZERO) {
            NatVerdict::Forward(p) => p,
            _ => unreachable!(),
        };
        let back = Packet::udp(dst, out.src, vec![]);
        b.iter(|| black_box(n.process_inbound(back.clone(), SimTime::ZERO)));
    });
    g.finish();
}

fn bench_codecs(c: &mut Criterion) {
    let mut g = c.benchmark_group("codecs");

    let msg = {
        use bt_dht::{CompactNode, KrpcMessage, NodeId160};
        let nodes: Vec<CompactNode> = (0..8)
            .map(|i| {
                CompactNode::new(
                    NodeId160::from_u64(i),
                    Endpoint::new(ip(10, 0, 0, i as u8), 6881),
                )
            })
            .collect();
        KrpcMessage::nodes_response(b"tt", NodeId160::from_u64(9), nodes)
    };
    let wire = msg.encode();
    g.throughput(Throughput::Bytes(wire.len() as u64));
    g.bench_function("krpc_encode_nodes_response", |b| {
        b.iter(|| black_box(msg.encode()))
    });
    g.bench_function("krpc_decode_nodes_response", |b| {
        b.iter(|| black_box(bt_dht::KrpcMessage::decode(&wire).expect("valid")))
    });
    // The crawl's other two shapes: the query it sends five times per
    // peer, and the pong of a validation ping (no allocation but the
    // payload on either side).
    {
        use bt_dht::{KrpcMessage, NodeId160};
        let find = KrpcMessage::find_node(b"tt", NodeId160::from_u64(9), NodeId160::from_u64(77));
        let find_wire = find.encode();
        g.bench_function("krpc_encode_find_node", |b| {
            b.iter(|| black_box(find.encode()))
        });
        g.bench_function("krpc_decode_find_node", |b| {
            b.iter(|| black_box(KrpcMessage::decode(&find_wire).expect("valid")))
        });
        let pong_wire = KrpcMessage::pong(b"tt", NodeId160::from_u64(9)).encode();
        g.bench_function("krpc_decode_pong", |b| {
            b.iter(|| black_box(KrpcMessage::decode(&pong_wire).expect("valid")))
        });
    }

    let stun = netalyzr::StunMessage::response(
        [7; 12],
        Endpoint::new(ip(198, 51, 100, 7), 54_321),
        Endpoint::new(ip(203, 0, 113, 51), 3479),
    );
    let stun_wire = stun.encode();
    g.bench_function("stun_encode_response", |b| {
        b.iter(|| black_box(stun.encode()))
    });
    g.bench_function("stun_decode_response", |b| {
        b.iter(|| black_box(netalyzr::StunMessage::decode(&stun_wire).expect("valid")))
    });
    g.finish();
}

fn bench_routing(c: &mut Criterion) {
    let mut g = c.benchmark_group("routing");
    let mut t = RoutingTable::new();
    for i in 0..5000u32 {
        let base = ip(20 + (i / 256) as u8, (i % 256) as u8, 0, 0);
        t.announce(Prefix::new(base, 16), AsId(i));
    }
    g.throughput(Throughput::Elements(1));
    g.bench_function("lpm_lookup_hit", |b| {
        b.iter(|| black_box(t.lookup(ip(20, 100, 7, 9))));
    });
    g.bench_function("lpm_lookup_miss", |b| {
        b.iter(|| black_box(t.lookup(ip(203, 0, 113, 1))));
    });

    // A `find_node` answer: the 8 nearest of a 64-contact DHT table.
    let dht_table = {
        use bt_dht::{CompactNode, NodeId160, RoutingTable160};
        let id = |n: u64| {
            let mut id = [0u8; 20];
            for (k, word) in id.chunks_mut(8).enumerate() {
                let bytes = netcore::mix64(n * 3 + k as u64).to_be_bytes();
                word.copy_from_slice(&bytes[..word.len()]);
            }
            NodeId160(id)
        };
        let mut t = RoutingTable160::new(id(0));
        for n in 1.. {
            t.upsert(CompactNode::new(
                id(n),
                Endpoint::new(ip(10, 0, 0, 1), 6881),
            ));
            if t.len() == 64 {
                break;
            }
        }
        t
    };
    let target = bt_dht::NodeId160::from_u64(0x5EED);
    g.bench_function("routing_closest_8_of_64", |b| {
        b.iter(|| black_box(dht_table.closest(black_box(target), 8)));
    });
    g.finish();
}

fn bench_forwarding(c: &mut Criterion) {
    use nat_engine::FilteringBehavior;
    use simnet::{Network, RealmId};

    let mut g = c.benchmark_group("simnet");
    let mut net = Network::new();
    let server = net.add_host(
        RealmId::PUBLIC,
        ip(203, 0, 113, 10),
        vec![ip(203, 0, 113, 1), ip(198, 19, 0, 1)],
    );
    let mut cfg = NatConfig::cgn_default();
    cfg.filtering = FilteringBehavior::EndpointIndependent;
    let (_, realm) = net.add_nat(
        cfg,
        vec![ip(198, 51, 100, 1)],
        RealmId::PUBLIC,
        vec![ip(198, 19, 2, 1)],
        ip(100, 64, 0, 1),
        false,
        1,
    );
    let dev = net.add_host(realm, ip(100, 64, 0, 20), vec![ip(198, 18, 0, 1)]);
    let src = Endpoint::new(ip(100, 64, 0, 20), 40_000);
    let dst = Endpoint::new(ip(203, 0, 113, 10), 8000);
    let _ = server;
    g.throughput(Throughput::Elements(1));
    g.bench_function("walk_through_cgn_6_hops", |b| {
        b.iter(|| black_box(net.send(dev, Packet::udp(src, dst, vec![0u8; 64]))));
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_nat_translation,
    bench_codecs,
    bench_routing,
    bench_forwarding
);
criterion_main!(benches);
