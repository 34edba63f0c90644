//! KRPC (BEP-05): the RPC protocol of the mainline DHT.
//!
//! Queries and responses are bencoded dictionaries carried in single UDP
//! datagrams. We implement the two message kinds the paper's crawler uses —
//! `ping` (the paper's `bt_ping`) and `find_node` — plus the generic error
//! message. Contact information travels as *compact node info*: 26 bytes
//! per node (20-byte node ID, 4-byte IPv4 address, 2-byte big-endian port).

use crate::bencode::{write_bytes, write_int, write_len, DecodeError, Reader};
use crate::node_id::NodeId160;
use netcore::Endpoint;
use std::fmt;
use std::net::Ipv4Addr;

/// A node's contact information as carried in `find_node` responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CompactNode {
    pub id: NodeId160,
    pub endpoint: Endpoint,
}

impl CompactNode {
    pub const WIRE_LEN: usize = 26;

    pub fn new(id: NodeId160, endpoint: Endpoint) -> Self {
        CompactNode { id, endpoint }
    }

    /// Serialize to the 26-byte compact format.
    pub fn to_wire(&self) -> [u8; 26] {
        let mut out = [0u8; 26];
        out[..20].copy_from_slice(self.id.as_bytes());
        out[20..24].copy_from_slice(&self.endpoint.ip.octets());
        out[24..26].copy_from_slice(&self.endpoint.port.to_be_bytes());
        out
    }

    pub fn from_wire(b: &[u8]) -> Option<CompactNode> {
        if b.len() != Self::WIRE_LEN {
            return None;
        }
        let id = NodeId160::from_bytes(&b[..20])?;
        let ip = Ipv4Addr::new(b[20], b[21], b[22], b[23]);
        let port = u16::from_be_bytes([b[24], b[25]]);
        Some(CompactNode {
            id,
            endpoint: Endpoint::new(ip, port),
        })
    }

    /// Parse a concatenated "nodes" blob (`None` if a record is cut short).
    pub fn parse_list(blob: &[u8]) -> Option<Vec<CompactNode>> {
        blob.chunks(Self::WIRE_LEN)
            .map(CompactNode::from_wire)
            .collect()
    }

    /// Append a list as a "nodes" blob.
    pub fn encode_list(nodes: &[CompactNode], out: &mut Vec<u8>) {
        for n in nodes {
            out.extend_from_slice(&n.to_wire());
        }
    }
}

/// Query kinds the simulation speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryKind {
    Ping,
    FindNode,
}

/// A KRPC message. The transaction id is a span of whatever the message
/// was built from or decoded out of, so handling a query and answering
/// it copies the id once: into the reply's payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KrpcMessage<'a> {
    Query {
        transaction: &'a [u8],
        kind: QueryKind,
        sender: NodeId160,
        /// `find_node` target (absent for `ping`).
        target: Option<NodeId160>,
    },
    Response {
        transaction: &'a [u8],
        sender: NodeId160,
        /// Compact nodes, present in `find_node` responses.
        nodes: Vec<CompactNode>,
    },
    Error {
        transaction: &'a [u8],
        code: i64,
        message: String,
    },
}

/// Message parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KrpcError(pub &'static str);

impl fmt::Display for KrpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "krpc: {}", self.0)
    }
}

impl std::error::Error for KrpcError {}

/// The spans of a datagram that some message kind reads, collected in
/// the one pass over it. A field is `Some` only if its key was present
/// with a value of the type the message wants (`a_*` / `r_*`: inside a
/// dictionary under `a` / `r`); which fields the message needs is only
/// known once `y` has gone by, which sorts last.
#[derive(Default)]
struct Fields<'a> {
    t: Option<&'a [u8]>,
    y: Option<&'a [u8]>,
    q: Option<&'a [u8]>,
    a_id: Option<&'a [u8]>,
    a_target: Option<&'a [u8]>,
    r_id: Option<&'a [u8]>,
    r_nodes: Option<&'a [u8]>,
    /// `e` is a list whose first element is this integer.
    e_code: Option<i64>,
    e_message: Option<&'a [u8]>,
}

impl<'a> Fields<'a> {
    /// Walk the datagram once. Keys and values no message reads are
    /// left to the reader, which validates them as it skips them (a
    /// datagram that is no dictionary is left whole: trailing bytes).
    fn read(data: &'a [u8]) -> Result<Fields<'a>, DecodeError> {
        let mut f = Fields::default();
        let mut r = Reader::new(data);
        r.dict(|key, r| {
            match key {
                b"t" => f.t = r.bytes()?,
                b"y" => f.y = r.bytes()?,
                b"q" => f.q = r.bytes()?,
                b"a" | b"r" => {
                    let (mut id, mut target, mut nodes) = (None, None, None);
                    r.dict(|key, r| {
                        match key {
                            b"id" => id = r.bytes()?,
                            b"target" => target = r.bytes()?,
                            b"nodes" => nodes = r.bytes()?,
                            _ => {}
                        }
                        Ok(())
                    })?;
                    match key {
                        b"a" => (f.a_id, f.a_target) = (id, target),
                        _ => (f.r_id, f.r_nodes) = (id, nodes),
                    }
                }
                b"e" => drop(r.list(|index, r| {
                    match index {
                        0 => f.e_code = r.int()?,
                        1 => f.e_message = r.bytes()?,
                        _ => {}
                    }
                    Ok(())
                })?),
                _ => {}
            }
            Ok(())
        })?;
        r.finish()?;
        Ok(f)
    }
}

impl<'a> KrpcMessage<'a> {
    pub fn ping(transaction: &'a [u8], sender: NodeId160) -> Self {
        KrpcMessage::Query {
            transaction,
            kind: QueryKind::Ping,
            sender,
            target: None,
        }
    }

    pub fn find_node(transaction: &'a [u8], sender: NodeId160, target: NodeId160) -> Self {
        KrpcMessage::Query {
            transaction,
            kind: QueryKind::FindNode,
            sender,
            target: Some(target),
        }
    }

    pub fn pong(transaction: &'a [u8], sender: NodeId160) -> Self {
        Self::nodes_response(transaction, sender, Vec::new())
    }

    pub fn nodes_response(
        transaction: &'a [u8],
        sender: NodeId160,
        nodes: Vec<CompactNode>,
    ) -> Self {
        KrpcMessage::Response {
            transaction,
            sender,
            nodes,
        }
    }

    /// Encode to the bencoded wire form: the message's fixed skeleton of
    /// already-sorted keys with the fields appended in between, written
    /// straight into a payload sized up front (the skeleton and length
    /// prefixes of any form stay under 64 bytes).
    pub fn encode(&self) -> Vec<u8> {
        let fields = match self {
            KrpcMessage::Query { .. } => 40,
            KrpcMessage::Response { nodes, .. } => 20 + nodes.len() * CompactNode::WIRE_LEN,
            KrpcMessage::Error { message, .. } => message.len(),
        };
        let mut out = Vec::with_capacity(64 + fields + self.transaction().len());
        let y = match self {
            KrpcMessage::Query {
                kind,
                sender,
                target,
                ..
            } => {
                out.extend_from_slice(b"d1:ad2:id20:");
                out.extend_from_slice(sender.as_bytes());
                if let Some(t) = target {
                    out.extend_from_slice(b"6:target20:");
                    out.extend_from_slice(t.as_bytes());
                }
                out.extend_from_slice(match kind {
                    QueryKind::Ping => b"e1:q4:ping",
                    QueryKind::FindNode => b"e1:q9:find_node",
                });
                b'q'
            }
            KrpcMessage::Response { sender, nodes, .. } => {
                out.extend_from_slice(b"d1:rd2:id20:");
                out.extend_from_slice(sender.as_bytes());
                if !nodes.is_empty() {
                    out.extend_from_slice(b"5:nodes");
                    write_len(&mut out, nodes.len() * CompactNode::WIRE_LEN);
                    CompactNode::encode_list(nodes, &mut out);
                }
                out.push(b'e');
                b'r'
            }
            KrpcMessage::Error { code, message, .. } => {
                out.extend_from_slice(b"d1:el");
                write_int(&mut out, *code);
                write_bytes(&mut out, message.as_bytes());
                out.push(b'e');
                b'e'
            }
        };
        out.extend_from_slice(b"1:t");
        write_bytes(&mut out, self.transaction());
        out.extend_from_slice(&[b'1', b':', b'y', b'1', b':', y, b'e']);
        out
    }

    /// Parse from wire bytes, in one pass and without copying: the
    /// transaction id borrows from `data`.
    pub fn decode(data: &'a [u8]) -> Result<Self, KrpcError> {
        let f = Fields::read(data).map_err(|_| KrpcError("not bencode"))?;
        let transaction = f.t.ok_or(KrpcError("missing transaction"))?;
        let id =
            |span: Option<&[u8]>, what| span.and_then(NodeId160::from_bytes).ok_or(KrpcError(what));
        Ok(match f.y {
            Some(b"q") => {
                let (kind, target) = match f.q.ok_or(KrpcError("missing q"))? {
                    b"ping" => (QueryKind::Ping, None),
                    b"find_node" => (QueryKind::FindNode, Some(id(f.a_target, "bad target")?)),
                    _ => return Err(KrpcError("unknown query")),
                };
                KrpcMessage::Query {
                    transaction,
                    kind,
                    sender: id(f.a_id, "bad sender id")?,
                    target,
                }
            }
            Some(b"r") => KrpcMessage::Response {
                transaction,
                sender: id(f.r_id, "bad responder id")?,
                nodes: CompactNode::parse_list(f.r_nodes.unwrap_or_default())
                    .ok_or(KrpcError("bad nodes blob"))?,
            },
            Some(b"e") => KrpcMessage::Error {
                transaction,
                code: f.e_code.ok_or(KrpcError("bad error"))?,
                message: String::from_utf8_lossy(f.e_message.unwrap_or_default()).into_owned(),
            },
            _ => return Err(KrpcError("missing/unknown message type")),
        })
    }

    pub fn transaction(&self) -> &'a [u8] {
        match self {
            KrpcMessage::Query { transaction, .. }
            | KrpcMessage::Response { transaction, .. }
            | KrpcMessage::Error { transaction, .. } => transaction,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{bencode_shaped, dict, Message, Value, OVERFLOWING};
    use netcore::ip;
    use proptest::prelude::*;

    fn nid(n: u64) -> NodeId160 {
        NodeId160::from_u64(n)
    }

    fn nodes(n: usize) -> Vec<CompactNode> {
        (0..n)
            .map(|i| {
                CompactNode::new(
                    nid(i as u64 * 0x0101_0101_0101),
                    Endpoint::new(ip(10, 0, 0, i as u8), 6881 + i as u16),
                )
            })
            .collect()
    }

    #[test]
    fn compact_node_roundtrip() {
        let n = CompactNode::new(nid(42), Endpoint::new(ip(100, 64, 3, 7), 6881));
        let wire = n.to_wire();
        assert_eq!(wire.len(), 26);
        assert_eq!(CompactNode::from_wire(&wire), Some(n));
    }

    #[test]
    fn compact_node_wire_layout() {
        let n = CompactNode::new(nid(1), Endpoint::new(ip(1, 2, 3, 4), 0x1234));
        let w = n.to_wire();
        assert_eq!(&w[20..24], &[1, 2, 3, 4]);
        assert_eq!(&w[24..26], &[0x12, 0x34], "port must be big-endian");
    }

    #[test]
    fn compact_list_roundtrip() {
        let nodes: Vec<CompactNode> = (0..8)
            .map(|i| {
                CompactNode::new(
                    nid(i),
                    Endpoint::new(ip(10, 0, 0, i as u8), 6881 + i as u16),
                )
            })
            .collect();
        let mut blob = Vec::new();
        CompactNode::encode_list(&nodes, &mut blob);
        assert_eq!(blob.len(), 8 * 26);
        assert_eq!(CompactNode::parse_list(&blob), Some(nodes));
    }

    #[test]
    fn compact_list_rejects_partial() {
        assert_eq!(CompactNode::parse_list(&[0u8; 25]), None);
        assert_eq!(CompactNode::parse_list(&[0u8; 27]), None);
        assert_eq!(CompactNode::parse_list(&[]), Some(vec![]));
    }

    #[test]
    fn ping_roundtrip() {
        let msg = KrpcMessage::ping(b"aa", nid(7));
        let wire = msg.encode();
        assert_eq!(KrpcMessage::decode(&wire).unwrap(), msg);
    }

    #[test]
    fn find_node_roundtrip() {
        let msg = KrpcMessage::find_node(b"xy", nid(7), nid(999));
        let wire = msg.encode();
        assert_eq!(KrpcMessage::decode(&wire).unwrap(), msg);
    }

    #[test]
    fn nodes_response_roundtrip() {
        let nodes = vec![
            CompactNode::new(nid(1), Endpoint::new(ip(192, 168, 1, 2), 6881)),
            CompactNode::new(nid(2), Endpoint::new(ip(100, 64, 0, 9), 51413)),
        ];
        let msg = KrpcMessage::nodes_response(b"tt", nid(3), nodes);
        let wire = msg.encode();
        assert_eq!(KrpcMessage::decode(&wire).unwrap(), msg);
    }

    #[test]
    fn pong_roundtrip() {
        let msg = KrpcMessage::pong(b"01", nid(5));
        assert_eq!(KrpcMessage::decode(&msg.encode()).unwrap(), msg);
    }

    #[test]
    fn error_roundtrip() {
        let msg = KrpcMessage::Error {
            transaction: b"zz",
            code: 201,
            message: "Generic Error".into(),
        };
        assert_eq!(KrpcMessage::decode(&msg.encode()).unwrap(), msg);
    }

    #[test]
    fn wire_format_matches_bep05_example_shape() {
        // d1:ad2:id20:...e1:q4:ping1:t2:aa1:y1:qe
        let wire = KrpcMessage::ping(b"aa", nid(0)).encode();
        assert!(
            wire.starts_with(b"d1:ad2:id20:"),
            "{:?}",
            String::from_utf8_lossy(&wire)
        );
        assert!(wire.ends_with(b"1:q4:ping1:t2:aa1:y1:qe"));
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(KrpcMessage::decode(b"").is_err());
        assert!(KrpcMessage::decode(b"i42e").is_err());
        assert!(KrpcMessage::decode(b"d1:y1:qe").is_err()); // missing t/q/a
                                                            // Bad sender id length.
        let bad = dict(vec![
            (b"a", dict(vec![(&b"id"[..], Value::str("short"))])),
            (b"q", Value::str("ping")),
            (b"t", Value::str("aa")),
            (b"y", Value::str("q")),
        ])
        .encode();
        assert!(KrpcMessage::decode(&bad).is_err());
    }

    /// Every message kind the tests below build on: transaction ids of
    /// 1–8 bytes (some ≥ 0x80), responses with 0–16 nodes.
    fn every_kind(t: &[u8]) -> Vec<KrpcMessage<'_>> {
        let mut all = vec![
            KrpcMessage::ping(t, nid(7)),
            KrpcMessage::find_node(t, nid(7), nid(u64::MAX)),
            KrpcMessage::pong(t, nid(5)),
            KrpcMessage::Error {
                transaction: t,
                code: -203,
                message: "Protocol Error, such as a malformed packet".into(),
            },
            KrpcMessage::Error {
                transaction: t,
                code: i64::MIN,
                message: String::new(),
            },
        ];
        all.extend((0..=16).map(|n| KrpcMessage::nodes_response(t, nid(3), nodes(n))));
        all
    }

    const TRANSACTIONS: [&[u8]; 5] = [
        b"a",
        b"aa",
        &[0x80, 0xFF, 0x00],
        &[0, 0, 0, 0, 0, 0, 0x12, 0x34],
        &[0xFF; 8],
    ];

    /// The model's verdict on `data` is the codec's verdict.
    fn assert_decodes_like_the_model(data: &[u8]) {
        let new = KrpcMessage::decode(data);
        assert_eq!(
            new.as_ref().ok().map(Message::from),
            Message::decode(data).ok(),
            "on {:?}",
            String::from_utf8_lossy(data)
        );
    }

    #[test]
    fn encode_is_the_tree_codecs_bytes() {
        for t in TRANSACTIONS {
            for msg in every_kind(t) {
                let wire = msg.encode();
                assert_eq!(wire, Message::from(&msg).encode(), "{msg:?}");
                assert!(wire.len() <= wire.capacity());
                assert_eq!(KrpcMessage::decode(&wire).unwrap(), msg);
                assert_decodes_like_the_model(&wire);
            }
        }
    }

    #[test]
    fn decode_agrees_with_the_tree_codec_on_near_misses() {
        let id = "20:abcdefghij0123456789";
        let deep = |n: usize| format!("{}{}", "l".repeat(n), "e".repeat(n));
        let cases: Vec<String> = vec![
            // The well-formed forms, then one thing wrong at a time.
            format!("d1:ad2:id{id}e1:q4:ping1:t2:aa1:y1:qe"),
            format!("d1:ad2:id{id}6:target{id}e1:q9:find_node1:t2:aa1:y1:qe"),
            format!("d1:rd2:id{id}e1:t2:aa1:y1:re"),
            "d1:eli201e3:abce1:t2:aa1:y1:ee".into(),
            // Unsorted and duplicate keys, at both levels.
            format!("d1:q4:ping1:ad2:id{id}e1:t2:aa1:y1:qe"),
            format!("d1:ad2:id{id}e1:q4:ping1:t2:aa1:t2:aa1:y1:qe"),
            format!("d1:ad6:target{id}2:id{id}e1:q9:find_node1:t2:aa1:y1:qe"),
            format!("d1:ad2:id{id}2:id{id}e1:q4:ping1:t2:aa1:y1:qe"),
            // Leading zeros, negative zero, integer edges.
            format!("d1:ad2:id0{id}e1:q4:ping1:t2:aa1:y1:qe"),
            format!("d1:ad2:id{id}e1:q04:ping1:t2:aa1:y1:qe"),
            "d1:eli0201e3:abce1:t2:aa1:y1:ee".into(),
            "d1:eli-0e3:abce1:t2:aa1:y1:ee".into(),
            "d1:eli-1e3:abce1:t2:aa1:y1:ee".into(),
            "d1:eli9223372036854775807ee1:t2:aa1:y1:ee".into(),
            "d1:eli9223372036854775808ee1:t2:aa1:y1:ee".into(),
            "d1:eli-9223372036854775808ee1:t2:aa1:y1:ee".into(),
            // Error bodies of other shapes.
            "d1:ele1:t2:aa1:y1:ee".into(),
            "d1:el3:abci201ee1:t2:aa1:y1:ee".into(),
            "d1:eli201ei7ee1:t2:aa1:y1:ee".into(),
            "d1:eli201e3:abcl1:xeee1:t2:aa1:y1:ee".into(),
            "d1:ei201e1:t2:aa1:y1:ee".into(),
            "d1:t2:aa1:y1:ee".into(),
            // Nesting at the limit and past it, in a key nobody reads.
            format!("d1:ad2:id{id}e1:q4:ping1:t2:aa1:x{}1:y1:qe", deep(16)),
            format!("d1:ad2:id{id}e1:q4:ping1:t2:aa1:x{}1:y1:qe", deep(17)),
            format!("d1:ad2:id{id}1:x{}e1:q4:ping1:t2:aa1:y1:qe", deep(15)),
            format!("d1:ad2:id{id}1:x{}e1:q4:ping1:t2:aa1:y1:qe", deep(16)),
            // Trailing bytes; truncation.
            format!("d1:ad2:id{id}e1:q4:ping1:t2:aa1:y1:qee"),
            format!("d1:ad2:id{id}e1:q4:ping1:t2:aa1:y1:qe0:"),
            format!("d1:ad2:id{id}e1:q4:ping1:t2:aa1:y1:q"),
            // Unknown keys and nested unknown values, valid and not.
            format!("d1:ad2:id{id}1:zd1:ai1e1:bl1:xeee1:q4:ping1:t2:aa1:v4:UT001:y1:qe"),
            format!("d1:ad2:id{id}1:zd1:bi1e1:ai2eee1:q4:ping1:t2:aa1:y1:qe"),
            format!("d1:ad2:id{id}e1:q4:ping1:t2:aa1:v4:UT01:y1:qe"),
            format!("d2:ipi5e1:rd2:id{id}e1:t2:aa1:y1:re"),
            // Known keys holding the wrong type.
            format!("d1:ad2:id{id}6:targeti5ee1:q4:ping1:t2:aa1:y1:qe"),
            format!("d1:ad2:id{id}6:targeti5ee1:q9:find_node1:t2:aa1:y1:qe"),
            format!("d1:ad2:idi5ee1:q4:ping1:t2:aa1:y1:qe"),
            format!("d1:a2:hi1:q4:ping1:t2:aa1:y1:qe"),
            format!("d1:ale1:q4:ping1:t2:aa1:y1:qe"),
            format!("d1:ad2:id{id}e1:qi4e1:t2:aa1:y1:qe"),
            format!("d1:ad2:id{id}e1:q4:ping1:ti7e1:y1:qe"),
            format!("d1:ad2:id{id}e1:q4:ping1:t2:aa1:yi7ee"),
            format!("d1:ad2:id{id}e1:q4:pong1:t2:aa1:y1:qe"),
            format!("d1:ad2:id{id}e1:q4:ping1:t2:aa1:y1:xe"),
            format!("d1:rd2:id{id}5:nodesi5ee1:t2:aa1:y1:re"),
            format!("d1:rd2:id{id}5:nodesdee1:t2:aa1:y1:re"),
            format!("d1:r2:hi1:t2:aa1:y1:re"),
            // Both bodies present: `y` picks.
            format!("d1:ad2:id{id}e1:q4:ping1:rd2:idi0ee1:t2:aa1:y1:qe"),
            format!("d1:ad2:idi0ee1:q4:ping1:rd2:id{id}e1:t2:aa1:y1:re"),
            // `nodes` blobs one byte short and one byte long.
            format!("d1:rd2:id{id}5:nodes25:{}e1:t2:aa1:y1:re", "n".repeat(25)),
            format!("d1:rd2:id{id}5:nodes26:{}e1:t2:aa1:y1:re", "n".repeat(26)),
            format!("d1:rd2:id{id}5:nodes27:{}e1:t2:aa1:y1:re", "n".repeat(27)),
            format!("d1:rd2:id{id}5:nodes0:e1:t2:aa1:y1:re"),
            // Not a dictionary at all; an empty one; an empty id.
            "l1:t2:aae".into(),
            "2:aa".into(),
            "de".into(),
            "d1:t0:1:y1:ee".into(),
            format!("d1:ad2:id{id}e1:q4:ping1:t0:1:y1:qe"),
        ];
        let mut accepted = 0;
        for case in &cases {
            assert_decodes_like_the_model(case.as_bytes());
            accepted += KrpcMessage::decode(case.as_bytes()).is_ok() as usize;
        }
        assert!(
            (12..cases.len() - 12).contains(&accepted),
            "the list must sit on both sides of the line, accepted {accepted}"
        );
    }

    /// Lengths and integers past what the types hold are errors; the
    /// first of these made the parent's reader slice out of bounds.
    #[test]
    fn overflowing_lengths_are_errors_not_panics() {
        for data in OVERFLOWING {
            assert!(KrpcMessage::decode(data).is_err(), "{data:?}");
        }
    }

    /// `data` with one byte changed, inserted or cut.
    fn mutate(mut data: Vec<u8>, at: usize, how: u8, byte: u8) -> Vec<u8> {
        let at = at % data.len();
        match how % 3 {
            0 => data[at] = byte,
            1 => data.insert(at, byte),
            _ => drop(data.remove(at)),
        }
        data
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Any message round-trips through the wire format.
        #[test]
        fn prop_roundtrip(
            t in proptest::collection::vec(any::<u8>(), 1..4),
            sender in any::<u64>(),
            target in any::<u64>(),
            n_nodes in 0usize..8,
            which in 0usize..4,
        ) {
            let msg = match which {
                0 => KrpcMessage::ping(&t, nid(sender)),
                1 => KrpcMessage::find_node(&t, nid(sender), nid(target)),
                2 => {
                    let nodes: Vec<CompactNode> = (0..n_nodes)
                        .map(|i| CompactNode::new(nid(i as u64), Endpoint::new(ip(10, 0, 0, i as u8), 6881)))
                        .collect();
                    KrpcMessage::nodes_response(&t, nid(sender), nodes)
                }
                _ => KrpcMessage::Error { transaction: &t, code: 203, message: "x".into() },
            };
            prop_assert_eq!(KrpcMessage::decode(&msg.encode()).unwrap(), msg);
        }

        /// The decoder is total — on random bytes, on bytes drawn from
        /// bencode's own alphabet, and on valid messages one byte off —
        /// and on all of them it says what the tree codec said.
        #[test]
        fn prop_decode_total(
            random in proptest::collection::vec(any::<u8>(), 0..128),
            shaped in bencode_shaped(),
            which in 0usize..22,
            t in 0usize..TRANSACTIONS.len(),
            at in any::<usize>(),
            how in any::<u8>(),
            byte in any::<u8>(),
        ) {
            assert_decodes_like_the_model(&random);
            assert_decodes_like_the_model(&shaped);
            let valid = every_kind(TRANSACTIONS[t])[which].encode();
            assert_decodes_like_the_model(&mutate(valid.clone(), at, how, byte));
            // The alphabet's own bytes are the mutations that keep a
            // message nearly valid.
            let structural = b"0123456789:dlie-"[byte as usize % 16];
            assert_decodes_like_the_model(&mutate(valid, at, how, structural));
        }
    }
}
