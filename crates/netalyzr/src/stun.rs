//! STUN (Session Traversal Utilities for NAT) — RFC 5389 wire format with
//! the classic RFC 3489 NAT-type classification used in §6.5 / Fig. 13.
//!
//! The server side ([`StunService`]) owns two public hosts (two IP
//! addresses) with two ports each; `CHANGE-REQUEST` asks it to answer from
//! the other address and/or port. The client side ([`classify`]) runs the
//! canonical test sequence:
//!
//! 1. **Test I** — plain binding request; no answer ⇒ UDP blocked.
//! 2. mapped == local ⇒ no NAT: **Test II** (change IP+port) distinguishes
//!    open Internet from a symmetric UDP firewall.
//! 3. **Test II** behind a NAT: answer from the alternate address/port
//!    arrives ⇒ *full cone*.
//! 4. **Test I'** to the alternate address: different mapping ⇒
//!    *symmetric* NAT.
//! 5. **Test III** (change port only): answer ⇒ *address restricted*,
//!    silence ⇒ *port-address restricted*.

use nat_engine::StunNatType;
use netcore::{Endpoint, Packet, PacketBody};
use simnet::{pump, Network, NodeId};
use std::net::Ipv4Addr;

/// The STUN magic cookie (RFC 5389 §6).
pub const MAGIC_COOKIE: u32 = 0x2112_A442;

/// Message types we implement.
pub const BINDING_REQUEST: u16 = 0x0001;
pub const BINDING_RESPONSE: u16 = 0x0101;

/// Attribute types.
pub const ATTR_XOR_MAPPED_ADDRESS: u16 = 0x0020;
pub const ATTR_CHANGE_REQUEST: u16 = 0x0003;
pub const ATTR_OTHER_ADDRESS: u16 = 0x802C;

/// A parsed STUN message (the subset the study needs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StunMessage {
    pub msg_type: u16,
    pub transaction: [u8; 12],
    pub xor_mapped: Option<Endpoint>,
    pub change_ip: bool,
    pub change_port: bool,
    pub other_address: Option<Endpoint>,
}

impl StunMessage {
    pub fn request(transaction: [u8; 12], change_ip: bool, change_port: bool) -> StunMessage {
        StunMessage {
            msg_type: BINDING_REQUEST,
            transaction,
            xor_mapped: None,
            change_ip,
            change_port,
            other_address: None,
        }
    }

    pub fn response(transaction: [u8; 12], mapped: Endpoint, other: Endpoint) -> StunMessage {
        StunMessage {
            msg_type: BINDING_RESPONSE,
            transaction,
            xor_mapped: Some(mapped),
            change_ip: false,
            change_port: false,
            other_address: Some(other),
        }
    }

    fn push_attr(out: &mut Vec<u8>, attr_type: u16, value: &[u8]) {
        out.extend_from_slice(&attr_type.to_be_bytes());
        out.extend_from_slice(&(value.len() as u16).to_be_bytes());
        out.extend_from_slice(value);
        // Pad to 32-bit boundary.
        while out.len() % 4 != 0 {
            out.push(0);
        }
    }

    fn xor_endpoint_bytes(ep: Endpoint) -> [u8; 8] {
        let mut v = [0u8; 8];
        v[0] = 0;
        v[1] = 0x01; // IPv4 family
        let xport = ep.port ^ (MAGIC_COOKIE >> 16) as u16;
        v[2..4].copy_from_slice(&xport.to_be_bytes());
        let xaddr = u32::from(ep.ip) ^ MAGIC_COOKIE;
        v[4..8].copy_from_slice(&xaddr.to_be_bytes());
        v
    }

    fn plain_endpoint_bytes(ep: Endpoint) -> [u8; 8] {
        let mut v = [0u8; 8];
        v[1] = 0x01;
        v[2..4].copy_from_slice(&ep.port.to_be_bytes());
        v[4..8].copy_from_slice(&u32::from(ep.ip).to_be_bytes());
        v
    }

    /// Serialize (RFC 5389 header + attributes).
    pub fn encode(&self) -> Vec<u8> {
        let mut attrs = Vec::new();
        if self.change_ip || self.change_port {
            let flags: u32 = (u32::from(self.change_ip) << 2) | (u32::from(self.change_port) << 1);
            Self::push_attr(&mut attrs, ATTR_CHANGE_REQUEST, &flags.to_be_bytes());
        }
        if let Some(ep) = self.xor_mapped {
            Self::push_attr(
                &mut attrs,
                ATTR_XOR_MAPPED_ADDRESS,
                &Self::xor_endpoint_bytes(ep),
            );
        }
        if let Some(ep) = self.other_address {
            Self::push_attr(
                &mut attrs,
                ATTR_OTHER_ADDRESS,
                &Self::plain_endpoint_bytes(ep),
            );
        }
        let mut out = Vec::with_capacity(20 + attrs.len());
        out.extend_from_slice(&self.msg_type.to_be_bytes());
        out.extend_from_slice(&(attrs.len() as u16).to_be_bytes());
        out.extend_from_slice(&MAGIC_COOKIE.to_be_bytes());
        out.extend_from_slice(&self.transaction);
        out.extend_from_slice(&attrs);
        out
    }

    /// Parse from wire bytes; `None` for anything that is not valid STUN.
    pub fn decode(data: &[u8]) -> Option<StunMessage> {
        if data.len() < 20 {
            return None;
        }
        let msg_type = u16::from_be_bytes([data[0], data[1]]);
        let length = u16::from_be_bytes([data[2], data[3]]) as usize;
        let cookie = u32::from_be_bytes([data[4], data[5], data[6], data[7]]);
        if cookie != MAGIC_COOKIE || data.len() != 20 + length {
            return None;
        }
        let mut transaction = [0u8; 12];
        transaction.copy_from_slice(&data[8..20]);
        let mut msg = StunMessage {
            msg_type,
            transaction,
            xor_mapped: None,
            change_ip: false,
            change_port: false,
            other_address: None,
        };
        let mut pos = 20;
        while pos + 4 <= data.len() {
            let attr_type = u16::from_be_bytes([data[pos], data[pos + 1]]);
            let attr_len = u16::from_be_bytes([data[pos + 2], data[pos + 3]]) as usize;
            let val_start = pos + 4;
            if val_start + attr_len > data.len() {
                return None;
            }
            let val = &data[val_start..val_start + attr_len];
            match attr_type {
                ATTR_CHANGE_REQUEST if attr_len == 4 => {
                    let flags = u32::from_be_bytes([val[0], val[1], val[2], val[3]]);
                    msg.change_ip = flags & 0x4 != 0;
                    msg.change_port = flags & 0x2 != 0;
                }
                ATTR_XOR_MAPPED_ADDRESS if attr_len == 8 && val[1] == 0x01 => {
                    let xport = u16::from_be_bytes([val[2], val[3]]);
                    let port = xport ^ (MAGIC_COOKIE >> 16) as u16;
                    let xaddr = u32::from_be_bytes([val[4], val[5], val[6], val[7]]);
                    let ip = Ipv4Addr::from(xaddr ^ MAGIC_COOKIE);
                    msg.xor_mapped = Some(Endpoint::new(ip, port));
                }
                ATTR_OTHER_ADDRESS if attr_len == 8 && val[1] == 0x01 => {
                    let port = u16::from_be_bytes([val[2], val[3]]);
                    let ip = Ipv4Addr::from(u32::from_be_bytes([val[4], val[5], val[6], val[7]]));
                    msg.other_address = Some(Endpoint::new(ip, port));
                }
                _ => {}
            }
            pos = val_start + attr_len;
            while pos % 4 != 0 {
                pos += 1;
            }
        }
        Some(msg)
    }
}

/// The STUN service: two hosts (primary/alternate IP), two ports each.
#[derive(Debug, Clone)]
pub struct StunService {
    pub primary_node: NodeId,
    pub alternate_node: NodeId,
    pub primary_ip: Ipv4Addr,
    pub alternate_ip: Ipv4Addr,
    pub port_a: u16,
    pub port_b: u16,
}

impl StunService {
    pub const DEFAULT_PORT_A: u16 = 3478;
    pub const DEFAULT_PORT_B: u16 = 3479;

    pub fn new(
        primary_node: NodeId,
        primary_ip: Ipv4Addr,
        alternate_node: NodeId,
        alternate_ip: Ipv4Addr,
    ) -> StunService {
        StunService {
            primary_node,
            alternate_node,
            primary_ip,
            alternate_ip,
            port_a: Self::DEFAULT_PORT_A,
            port_b: Self::DEFAULT_PORT_B,
        }
    }

    /// The endpoint clients contact first.
    pub fn primary_endpoint(&self) -> Endpoint {
        Endpoint::new(self.primary_ip, self.port_a)
    }

    pub fn alternate_endpoint(&self) -> Endpoint {
        Endpoint::new(self.alternate_ip, self.port_a)
    }

    fn is_service_endpoint(&self, node: NodeId, dst: Endpoint) -> bool {
        let ip_ok = (node == self.primary_node && dst.ip == self.primary_ip)
            || (node == self.alternate_node && dst.ip == self.alternate_ip);
        ip_ok && (dst.port == self.port_a || dst.port == self.port_b)
    }

    /// Handle a packet delivered to either service host. Returns the
    /// response as an `(origin node, packet)` emission — it may originate
    /// from the *other* host when CHANGE-REQUEST asks for it.
    pub fn handle_packet(&self, node: NodeId, pkt: &Packet) -> Option<(NodeId, Packet)> {
        let PacketBody::Udp { payload } = &pkt.body else {
            return None;
        };
        if !self.is_service_endpoint(node, pkt.dst) {
            return None;
        }
        let req = StunMessage::decode(payload)?;
        if req.msg_type != BINDING_REQUEST {
            return None;
        }
        // Pick the response origin per CHANGE-REQUEST.
        let (resp_node, resp_ip) = if req.change_ip {
            if node == self.primary_node {
                (self.alternate_node, self.alternate_ip)
            } else {
                (self.primary_node, self.primary_ip)
            }
        } else {
            (node, pkt.dst.ip)
        };
        let resp_port = if req.change_port {
            if pkt.dst.port == self.port_a {
                self.port_b
            } else {
                self.port_a
            }
        } else {
            pkt.dst.port
        };
        let other = if node == self.primary_node {
            Endpoint::new(self.alternate_ip, self.port_b)
        } else {
            Endpoint::new(self.primary_ip, self.port_b)
        };
        let resp = StunMessage::response(req.transaction, pkt.src, other);
        Some((
            resp_node,
            Packet::udp(Endpoint::new(resp_ip, resp_port), pkt.src, resp.encode()),
        ))
    }
}

/// Outcome of the classic STUN classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StunClass {
    /// No answer to Test I at all.
    UdpBlocked,
    /// No translation and unsolicited-origin answers arrive.
    OpenInternet,
    /// No translation but a stateful firewall filters.
    SymmetricFirewall,
    /// Behind NAT of the given type.
    Nat(StunNatType),
}

impl StunClass {
    /// The NAT type, if the result indicates address translation.
    pub fn nat_type(self) -> Option<StunNatType> {
        match self {
            StunClass::Nat(t) => Some(t),
            _ => None,
        }
    }
}

/// Result of one classification run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StunOutcome {
    pub class: StunClass,
    /// The mapping observed in Test I (the client's public endpoint).
    pub mapped: Option<Endpoint>,
}

/// One STUN transaction: send `req` from the client and await the response.
fn transact(
    net: &mut Network,
    service: &StunService,
    client_node: NodeId,
    client_ep: Endpoint,
    dst: Endpoint,
    req: StunMessage,
) -> Option<StunMessage> {
    let mut response = None;
    let txn = req.transaction;
    pump(
        net,
        &mut vec![(client_node, Packet::udp(client_ep, dst, req.encode()))],
        |node, pkt, out| {
            if node == client_node {
                if let PacketBody::Udp { payload } = &pkt.body {
                    if let Some(m) = StunMessage::decode(payload) {
                        if m.msg_type == BINDING_RESPONSE && m.transaction == txn {
                            response = Some(m);
                        }
                    }
                }
            } else {
                out.extend(service.handle_packet(node, pkt));
            }
        },
        10_000,
    );
    response
}

fn txn_from(seed: &mut u32) -> [u8; 12] {
    *seed = seed.wrapping_mul(0x9E37_79B9).wrapping_add(1);
    let mut t = [0u8; 12];
    t[..4].copy_from_slice(&seed.to_be_bytes());
    t[4..8].copy_from_slice(&seed.rotate_left(13).to_be_bytes());
    t
}

/// Run the RFC 3489 classification for a client socket.
pub fn classify(
    net: &mut Network,
    service: &StunService,
    client_node: NodeId,
    client_ep: Endpoint,
) -> StunOutcome {
    let mut seed = u32::from(client_ep.ip) ^ (client_ep.port as u32) | 1;

    // Test I: plain binding request to the primary endpoint.
    let t1 = transact(
        net,
        service,
        client_node,
        client_ep,
        service.primary_endpoint(),
        StunMessage::request(txn_from(&mut seed), false, false),
    );
    let Some(t1) = t1 else {
        return StunOutcome {
            class: StunClass::UdpBlocked,
            mapped: None,
        };
    };
    let mapped = t1
        .xor_mapped
        .expect("server always includes XOR-MAPPED-ADDRESS");

    // Test II: ask for an answer from the other IP *and* port.
    let t2 = transact(
        net,
        service,
        client_node,
        client_ep,
        service.primary_endpoint(),
        StunMessage::request(txn_from(&mut seed), true, true),
    );

    if mapped == client_ep {
        // No translation on the path.
        let class = if t2.is_some() {
            StunClass::OpenInternet
        } else {
            StunClass::SymmetricFirewall
        };
        return StunOutcome {
            class,
            mapped: Some(mapped),
        };
    }

    if t2.is_some() {
        return StunOutcome {
            class: StunClass::Nat(StunNatType::FullCone),
            mapped: Some(mapped),
        };
    }

    // Test I': binding request to the alternate address; a different
    // mapping means destination-dependent mapping — symmetric.
    let t1b = transact(
        net,
        service,
        client_node,
        client_ep,
        service.alternate_endpoint(),
        StunMessage::request(txn_from(&mut seed), false, false),
    );
    if let Some(t1b) = t1b {
        if t1b.xor_mapped != Some(mapped) {
            return StunOutcome {
                class: StunClass::Nat(StunNatType::Symmetric),
                mapped: Some(mapped),
            };
        }
    }

    // Test III: change port only (same IP): admitted ⇒ address-restricted.
    let t3 = transact(
        net,
        service,
        client_node,
        client_ep,
        service.primary_endpoint(),
        StunMessage::request(txn_from(&mut seed), false, true),
    );
    let class = if t3.is_some() {
        StunClass::Nat(StunNatType::AddressRestricted)
    } else {
        StunClass::Nat(StunNatType::PortAddressRestricted)
    };
    StunOutcome {
        class,
        mapped: Some(mapped),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nat_engine::{FilteringBehavior, MappingBehavior, NatConfig};
    use netcore::ip;
    use simnet::RealmId;

    fn lab(net: &mut Network) -> StunService {
        let p = net.add_host(RealmId::PUBLIC, ip(203, 0, 113, 50), vec![]);
        let a = net.add_host(RealmId::PUBLIC, ip(203, 0, 113, 51), vec![]);
        StunService::new(p, ip(203, 0, 113, 50), a, ip(203, 0, 113, 51))
    }

    #[test]
    fn wire_roundtrip_request() {
        let req = StunMessage::request([7; 12], true, false);
        let enc = req.encode();
        assert_eq!(StunMessage::decode(&enc), Some(req));
    }

    #[test]
    fn wire_roundtrip_response() {
        let resp = StunMessage::response(
            [9; 12],
            Endpoint::new(ip(198, 51, 100, 7), 54321),
            Endpoint::new(ip(203, 0, 113, 51), 3479),
        );
        let enc = resp.encode();
        let dec = StunMessage::decode(&enc).unwrap();
        assert_eq!(
            dec.xor_mapped,
            Some(Endpoint::new(ip(198, 51, 100, 7), 54321))
        );
        assert_eq!(
            dec.other_address,
            Some(Endpoint::new(ip(203, 0, 113, 51), 3479))
        );
    }

    #[test]
    fn decode_rejects_non_stun() {
        assert_eq!(StunMessage::decode(b"hello"), None);
        assert_eq!(StunMessage::decode(&[0u8; 19]), None);
        // Wrong cookie.
        let mut msg = StunMessage::request([1; 12], false, false).encode();
        msg[4] = 0;
        assert_eq!(StunMessage::decode(&msg), None);
        // Truncated length.
        let msg = StunMessage::request([1; 12], true, false).encode();
        assert_eq!(StunMessage::decode(&msg[..msg.len() - 1]), None);
    }

    /// `decode` on `buf` returns without panicking, and accepts only a
    /// buffer whose header length field counts its attribute bytes.
    fn decodes_totally(buf: &[u8]) {
        if StunMessage::decode(buf).is_some() {
            let length = u16::from_be_bytes([buf[2], buf[3]]) as usize;
            assert_eq!(buf.len(), 20 + length, "{buf:02x?}");
        }
    }

    /// Byte offsets of every length field in an encoded message: the
    /// header's, then each attribute's.
    fn length_fields(enc: &[u8]) -> Vec<usize> {
        let mut fields = vec![2];
        let mut pos = 20;
        while pos + 4 <= enc.len() {
            fields.push(pos + 2);
            let len = u16::from_be_bytes([enc[pos + 2], enc[pos + 3]]) as usize;
            pos += 4 + len.next_multiple_of(4);
        }
        fields
    }

    #[test]
    fn decode_is_total() {
        // Every binding request and response shape the encoder can
        // emit, with its attribute count: each type with and without
        // CHANGE-REQUEST (under each flag pair), XOR-MAPPED-ADDRESS and
        // OTHER-ADDRESS. Each round-trips unmutated; every prefix of
        // it, every byte of it XORed with each non-zero mask, and every
        // length field rewritten decode without panicking.
        let mapped = Endpoint::new(ip(198, 51, 100, 7), 54321);
        let other = Endpoint::new(ip(203, 0, 113, 51), 3479);
        let mut messages = Vec::new();
        for msg_type in [BINDING_REQUEST, BINDING_RESPONSE] {
            for change in 0..4u8 {
                for (xor_mapped, other_address) in [
                    (None, None),
                    (Some(mapped), None),
                    (None, Some(other)),
                    (Some(mapped), Some(other)),
                ] {
                    let msg = StunMessage {
                        msg_type,
                        transaction: [change ^ 0x5A; 12],
                        xor_mapped,
                        change_ip: change & 2 != 0,
                        change_port: change & 1 != 0,
                        other_address,
                    };
                    let attrs = usize::from(change != 0)
                        + usize::from(xor_mapped.is_some())
                        + usize::from(other_address.is_some());
                    messages.push((msg, attrs));
                }
            }
        }
        assert_eq!(messages.len(), 32);
        for (msg, attrs) in &messages {
            let enc = msg.encode();
            assert_eq!(StunMessage::decode(&enc).as_ref(), Some(msg));
            for cut in 0..enc.len() {
                decodes_totally(&enc[..cut]);
            }
            for i in 0..enc.len() {
                for mask in 1..=255u8 {
                    let mut flipped = enc.clone();
                    flipped[i] ^= mask;
                    decodes_totally(&flipped);
                }
            }
            let fields = length_fields(&enc);
            assert_eq!(fields.len(), 1 + attrs, "header + attributes");
            for at in fields {
                let was = u16::from_be_bytes([enc[at], enc[at + 1]]);
                for len in [0, 1, 0xFFFF, was.wrapping_add(1), was.wrapping_sub(1)] {
                    let mut rewritten = enc.clone();
                    rewritten[at..at + 2].copy_from_slice(&len.to_be_bytes());
                    decodes_totally(&rewritten);
                }
            }
        }
        // SplitMix64 noise, 0–96 bytes. Every eighth buffer carries a
        // valid magic cookie so the attribute walk is reached too.
        let mut state = 0u64;
        let mut next = || {
            let z = netcore::mix64(state);
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            z
        };
        for i in 0..4096 {
            let len = (next() % 97) as usize;
            let mut buf: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            if i % 8 == 0 && len >= 20 {
                buf[2..4].copy_from_slice(&((len - 20) as u16).to_be_bytes());
                buf[4..8].copy_from_slice(&MAGIC_COOKIE.to_be_bytes());
            }
            decodes_totally(&buf);
        }
    }

    #[test]
    fn xor_encoding_actually_xors() {
        let mapped = Endpoint::new(ip(192, 0, 2, 1), 8000);
        let other = Endpoint::new(ip(203, 0, 113, 51), 3479);
        let resp = StunMessage::response([0; 12], mapped, other).encode();
        // The raw bytes must NOT contain the plain mapped address (that is
        // the point of XOR-MAPPED-ADDRESS: NATs can't rewrite what they
        // can't find). OTHER-ADDRESS is deliberately plain.
        let raw = u32::from(mapped.ip).to_be_bytes();
        assert!(!resp.windows(4).any(|w| w == raw));
        let other_raw = u32::from(other.ip).to_be_bytes();
        assert!(resp.windows(4).any(|w| w == other_raw));
    }

    #[test]
    fn public_client_is_open_internet() {
        let mut net = Network::new();
        let service = lab(&mut net);
        let c = net.add_host(RealmId::PUBLIC, ip(198, 51, 100, 9), vec![]);
        let out = classify(
            &mut net,
            &service,
            c,
            Endpoint::new(ip(198, 51, 100, 9), 5000),
        );
        assert_eq!(out.class, StunClass::OpenInternet);
        assert_eq!(out.mapped, Some(Endpoint::new(ip(198, 51, 100, 9), 5000)));
    }

    fn natted_client(
        net: &mut Network,
        mapping: MappingBehavior,
        filtering: FilteringBehavior,
    ) -> (NodeId, Endpoint) {
        let mut cfg = NatConfig::cgn_default();
        cfg.mapping = mapping;
        cfg.filtering = filtering;
        let (_, realm) = net.add_nat(
            cfg,
            vec![ip(198, 51, 100, 1), ip(198, 51, 100, 2)],
            RealmId::PUBLIC,
            vec![],
            ip(100, 64, 0, 1),
            false,
            3,
        );
        let c = net.add_host(realm, ip(100, 64, 0, 10), vec![]);
        (c, Endpoint::new(ip(100, 64, 0, 10), 5000))
    }

    #[test]
    fn classify_full_cone() {
        let mut net = Network::new();
        let service = lab(&mut net);
        let (c, ep) = natted_client(
            &mut net,
            MappingBehavior::EndpointIndependent,
            FilteringBehavior::EndpointIndependent,
        );
        let out = classify(&mut net, &service, c, ep);
        assert_eq!(out.class, StunClass::Nat(StunNatType::FullCone));
        assert_ne!(out.mapped, Some(ep), "must observe a translated mapping");
    }

    #[test]
    fn classify_address_restricted() {
        let mut net = Network::new();
        let service = lab(&mut net);
        let (c, ep) = natted_client(
            &mut net,
            MappingBehavior::EndpointIndependent,
            FilteringBehavior::AddressDependent,
        );
        let out = classify(&mut net, &service, c, ep);
        assert_eq!(out.class, StunClass::Nat(StunNatType::AddressRestricted));
    }

    #[test]
    fn classify_port_restricted() {
        let mut net = Network::new();
        let service = lab(&mut net);
        let (c, ep) = natted_client(
            &mut net,
            MappingBehavior::EndpointIndependent,
            FilteringBehavior::AddressAndPortDependent,
        );
        let out = classify(&mut net, &service, c, ep);
        assert_eq!(
            out.class,
            StunClass::Nat(StunNatType::PortAddressRestricted)
        );
    }

    #[test]
    fn classify_symmetric() {
        let mut net = Network::new();
        let service = lab(&mut net);
        let (c, ep) = natted_client(
            &mut net,
            MappingBehavior::AddressAndPortDependent,
            FilteringBehavior::AddressAndPortDependent,
        );
        let out = classify(&mut net, &service, c, ep);
        assert_eq!(out.class, StunClass::Nat(StunNatType::Symmetric));
    }

    #[test]
    fn classification_agrees_with_ground_truth_for_canonical_types() {
        use nat_engine::{FilteringBehavior as F, MappingBehavior as M};
        // The four canonical RFC 3489 combinations (mapping and filtering
        // correlated as deployed NATs do).
        let cases = [
            (M::EndpointIndependent, F::EndpointIndependent),
            (M::EndpointIndependent, F::AddressDependent),
            (M::EndpointIndependent, F::AddressAndPortDependent),
            (M::AddressDependent, F::AddressAndPortDependent),
            (M::AddressAndPortDependent, F::AddressAndPortDependent),
        ];
        for (m, f) in cases {
            let mut net = Network::new();
            let service = lab(&mut net);
            let (c, ep) = natted_client(&mut net, m, f);
            let truth = {
                let mut cfg = NatConfig::cgn_default();
                cfg.mapping = m;
                cfg.filtering = f;
                cfg.stun_type()
            };
            let out = classify(&mut net, &service, c, ep);
            assert_eq!(
                out.class,
                StunClass::Nat(truth),
                "mapping {m:?} filtering {f:?} must classify as {truth:?}"
            );
        }
    }

    #[test]
    fn classic_stun_limitation_symmetric_mapping_with_open_filtering() {
        // A NAT with destination-dependent mapping but endpoint-independent
        // filtering is misclassified as full cone by the classic RFC 3489
        // sequence (Test II succeeds before the symmetric check runs).
        // Such devices are not among the canonical deployed types; we keep
        // the classifier faithful to the algorithm the paper used and
        // document the limitation here.
        use nat_engine::{FilteringBehavior as F, MappingBehavior as M};
        let mut net = Network::new();
        let service = lab(&mut net);
        let (c, ep) = natted_client(&mut net, M::AddressAndPortDependent, F::EndpointIndependent);
        let out = classify(&mut net, &service, c, ep);
        assert_eq!(out.class, StunClass::Nat(StunNatType::FullCone));
    }

    #[test]
    fn cascaded_nats_report_most_restrictive() {
        // NAT444: permissive home CPE behind a symmetric CGN — STUN sees
        // symmetric (§6.5: the most restrictive on-path behaviour wins).
        let mut net = Network::new();
        let service = lab(&mut net);
        let mut cgn = NatConfig::cgn_default();
        cgn.mapping = MappingBehavior::AddressAndPortDependent;
        let (_, cgn_realm) = net.add_nat(
            cgn,
            vec![ip(198, 51, 100, 1)],
            RealmId::PUBLIC,
            vec![],
            ip(100, 64, 0, 1),
            false,
            4,
        );
        let mut cpe = NatConfig::home_cpe();
        cpe.filtering = FilteringBehavior::EndpointIndependent; // permissive CPE
        let (_, home) = net.add_nat(
            cpe,
            vec![ip(100, 64, 0, 30)],
            cgn_realm,
            vec![],
            ip(192, 168, 1, 1),
            true,
            5,
        );
        let c = net.add_host(home, ip(192, 168, 1, 50), vec![]);
        let out = classify(
            &mut net,
            &service,
            c,
            Endpoint::new(ip(192, 168, 1, 50), 5000),
        );
        assert_eq!(out.class, StunClass::Nat(StunNatType::Symmetric));
    }
}
