//! Test-only reference model: the codec this crate shipped before the
//! borrowed reader and the direct writer — an owned [`Value`] tree with
//! a `BTreeMap` per dictionary, and KRPC messages built from and picked
//! out of that tree. It is slow and obviously right, which is what the
//! differential tests in [`crate::bencode`] and [`crate::krpc`] need it
//! for: the new codec must produce the same bytes and accept exactly
//! the same inputs with the same result.
//!
//! It is the old code verbatim except for one line: the string bound
//! check is written `len > data.len() - pos` instead of
//! `pos + len > data.len()`, which wrapped for lengths near
//! `usize::MAX` and then sliced out of bounds (a panic). The model must
//! be total to be a model.

use crate::bencode::{write_bytes, write_int, DecodeError, Reader};
use crate::krpc::{CompactNode, KrpcError, KrpcMessage, QueryKind};
use crate::node_id::NodeId160;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A bencoded value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    Int(i64),
    Bytes(Vec<u8>),
    List(Vec<Value>),
    /// Keys are raw byte strings; `BTreeMap` keeps them sorted, which is
    /// exactly the canonical encoding order.
    Dict(BTreeMap<Vec<u8>, Value>),
}

impl Value {
    pub fn bytes(b: &[u8]) -> Value {
        Value::Bytes(b.to_vec())
    }

    pub fn str(s: &str) -> Value {
        Value::Bytes(s.as_bytes().to_vec())
    }

    pub fn get(&self, key: &[u8]) -> Option<&Value> {
        match self {
            Value::Dict(d) => d.get(key),
            _ => None,
        }
    }

    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            Value::Bytes(b) => Some(b),
            _ => None,
        }
    }

    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(l) => Some(l),
            _ => None,
        }
    }

    /// Encode to bytes, the old way.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Value::Int(i) => {
                out.push(b'i');
                out.extend_from_slice(i.to_string().as_bytes());
                out.push(b'e');
            }
            Value::Bytes(b) => {
                out.extend_from_slice(b.len().to_string().as_bytes());
                out.push(b':');
                out.extend_from_slice(b);
            }
            Value::List(items) => {
                out.push(b'l');
                for v in items {
                    v.encode_into(out);
                }
                out.push(b'e');
            }
            Value::Dict(map) => {
                out.push(b'd');
                for (k, v) in map {
                    out.extend_from_slice(k.len().to_string().as_bytes());
                    out.push(b':');
                    out.extend_from_slice(k);
                    v.encode_into(out);
                }
                out.push(b'e');
            }
        }
    }

    /// Decode a single value, the old way; trailing bytes are an error.
    pub fn decode(data: &[u8]) -> Result<Value, DecodeError> {
        let mut d = Decoder { data, pos: 0 };
        let v = d.value(0)?;
        if d.pos != data.len() {
            return Err(DecodeError {
                offset: d.pos,
                message: "trailing bytes",
            });
        }
        Ok(v)
    }

    /// Encode through the crate's writer.
    pub fn write(&self) -> Vec<u8> {
        fn go(v: &Value, out: &mut Vec<u8>) {
            match v {
                Value::Int(i) => write_int(out, *i),
                Value::Bytes(b) => write_bytes(out, b),
                Value::List(items) => {
                    out.push(b'l');
                    items.iter().for_each(|v| go(v, out));
                    out.push(b'e');
                }
                Value::Dict(map) => {
                    out.push(b'd');
                    for (k, v) in map {
                        write_bytes(out, k);
                        go(v, out);
                    }
                    out.push(b'e');
                }
            }
        }
        let mut out = Vec::new();
        go(self, &mut out);
        out
    }

    /// Decode a single value through the crate's reader, reading every
    /// element explicitly (nothing is left to the reader's own skip).
    pub fn read(data: &[u8]) -> Result<Value, DecodeError> {
        fn go(r: &mut Reader<'_>) -> Result<Value, DecodeError> {
            if let Some(i) = r.int()? {
                return Ok(Value::Int(i));
            }
            if let Some(b) = r.bytes()? {
                return Ok(Value::bytes(b));
            }
            let mut items = Vec::new();
            let push = |_, r: &mut Reader<'_>| go(r).map(|v| items.push(v));
            if r.list(push)? {
                return Ok(Value::List(items));
            }
            let mut map = BTreeMap::new();
            let insert =
                |k: &[u8], r: &mut Reader<'_>| go(r).map(|v| drop(map.insert(k.to_vec(), v)));
            if r.dict(insert)? {
                return Ok(Value::Dict(map));
            }
            // Neither of the four: let the reader name the error.
            r.skip()
                .map(|()| unreachable!("skip read what no typed read would"))
        }
        let mut r = Reader::new(data);
        let v = go(&mut r)?;
        r.finish()?;
        Ok(v)
    }
}

/// Build a dictionary from (key, value) pairs.
pub fn dict(pairs: Vec<(&[u8], Value)>) -> Value {
    Value::Dict(pairs.into_iter().map(|(k, v)| (k.to_vec(), v)).collect())
}

struct Decoder<'a> {
    data: &'a [u8],
    pos: usize,
}

const MAX_DEPTH: usize = 16;

impl Decoder<'_> {
    fn err(&self, message: &'static str) -> DecodeError {
        DecodeError {
            offset: self.pos,
            message,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.data.get(self.pos).copied()
    }

    fn take(&mut self) -> Result<u8, DecodeError> {
        let b = self.peek().ok_or_else(|| self.err("unexpected end"))?;
        self.pos += 1;
        Ok(b)
    }

    fn value(&mut self, depth: usize) -> Result<Value, DecodeError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek().ok_or_else(|| self.err("unexpected end"))? {
            b'i' => self.int(),
            b'l' => self.list(depth),
            b'd' => self.dictionary(depth),
            b'0'..=b'9' => Ok(Value::Bytes(self.byte_string()?)),
            _ => Err(self.err("invalid type prefix")),
        }
    }

    fn int(&mut self) -> Result<Value, DecodeError> {
        self.take()?; // 'i'
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.take()?;
        }
        let digits_start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(self.err("integer with no digits"));
        }
        // Canonical form: no leading zeros (except "0" itself), no "-0".
        let digits = &self.data[digits_start..self.pos];
        if digits.len() > 1 && digits[0] == b'0' {
            return Err(DecodeError {
                offset: digits_start,
                message: "leading zero",
            });
        }
        if negative && digits == b"0" {
            return Err(DecodeError {
                offset: start,
                message: "negative zero",
            });
        }
        let text = std::str::from_utf8(&self.data[start..self.pos]).expect("digits are ASCII");
        let n: i64 = text.parse().map_err(|_| self.err("integer overflow"))?;
        if self.take()? != b'e' {
            return Err(self.err("expected 'e' after integer"));
        }
        Ok(Value::Int(n))
    }

    fn byte_string(&mut self) -> Result<Vec<u8>, DecodeError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected string length"));
        }
        let len_digits = &self.data[start..self.pos];
        if len_digits.len() > 1 && len_digits[0] == b'0' {
            return Err(DecodeError {
                offset: start,
                message: "leading zero in length",
            });
        }
        let len: usize = std::str::from_utf8(len_digits)
            .expect("digits are ASCII")
            .parse()
            .map_err(|_| self.err("length overflow"))?;
        if self.take()? != b':' {
            return Err(self.err("expected ':'"));
        }
        // The one corrected line (see the module header).
        if len > self.data.len() - self.pos {
            return Err(self.err("string exceeds input"));
        }
        let s = self.data[self.pos..self.pos + len].to_vec();
        self.pos += len;
        Ok(s)
    }

    fn list(&mut self, depth: usize) -> Result<Value, DecodeError> {
        self.take()?; // 'l'
        let mut items = Vec::new();
        loop {
            match self.peek().ok_or_else(|| self.err("unterminated list"))? {
                b'e' => {
                    self.pos += 1;
                    return Ok(Value::List(items));
                }
                _ => items.push(self.value(depth + 1)?),
            }
        }
    }

    fn dictionary(&mut self, depth: usize) -> Result<Value, DecodeError> {
        self.take()?; // 'd'
        let mut map = BTreeMap::new();
        let mut last_key: Option<Vec<u8>> = None;
        loop {
            match self.peek().ok_or_else(|| self.err("unterminated dict"))? {
                b'e' => {
                    self.pos += 1;
                    return Ok(Value::Dict(map));
                }
                b'0'..=b'9' => {
                    let key = self.byte_string()?;
                    if let Some(prev) = &last_key {
                        if *prev >= key {
                            return Err(self.err("dict keys not strictly sorted"));
                        }
                    }
                    let val = self.value(depth + 1)?;
                    last_key = Some(key.clone());
                    map.insert(key, val);
                }
                _ => return Err(self.err("dict key must be a string")),
            }
        }
    }
}

/// The old owned `KrpcMessage`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    Query {
        transaction: Vec<u8>,
        kind: QueryKind,
        sender: NodeId160,
        target: Option<NodeId160>,
    },
    Response {
        transaction: Vec<u8>,
        sender: NodeId160,
        nodes: Vec<CompactNode>,
    },
    Error {
        transaction: Vec<u8>,
        code: i64,
        message: String,
    },
}

impl From<&KrpcMessage<'_>> for Message {
    fn from(msg: &KrpcMessage<'_>) -> Message {
        match msg.clone() {
            KrpcMessage::Query {
                transaction,
                kind,
                sender,
                target,
            } => Message::Query {
                transaction: transaction.to_vec(),
                kind,
                sender,
                target,
            },
            KrpcMessage::Response {
                transaction,
                sender,
                nodes,
            } => Message::Response {
                transaction: transaction.to_vec(),
                sender,
                nodes,
            },
            KrpcMessage::Error {
                transaction,
                code,
                message,
            } => Message::Error {
                transaction: transaction.to_vec(),
                code,
                message,
            },
        }
    }
}

impl Message {
    /// Build the tree, encode the tree.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Message::Query {
                transaction,
                kind,
                sender,
                target,
            } => {
                let mut args = vec![(&b"id"[..], Value::bytes(sender.as_bytes()))];
                if let Some(t) = target {
                    args.push((&b"target"[..], Value::bytes(t.as_bytes())));
                }
                let name: &[u8] = match kind {
                    QueryKind::Ping => b"ping",
                    QueryKind::FindNode => b"find_node",
                };
                dict(vec![
                    (b"a", dict(args)),
                    (b"q", Value::bytes(name)),
                    (b"t", Value::Bytes(transaction.clone())),
                    (b"y", Value::str("q")),
                ])
                .encode()
            }
            Message::Response {
                transaction,
                sender,
                nodes,
            } => {
                let mut ret = vec![(&b"id"[..], Value::bytes(sender.as_bytes()))];
                if !nodes.is_empty() {
                    let mut blob = Vec::new();
                    CompactNode::encode_list(nodes, &mut blob);
                    ret.push((&b"nodes"[..], Value::Bytes(blob)));
                }
                dict(vec![
                    (b"r", dict(ret)),
                    (b"t", Value::Bytes(transaction.clone())),
                    (b"y", Value::str("r")),
                ])
                .encode()
            }
            Message::Error {
                transaction,
                code,
                message,
            } => dict(vec![
                (
                    b"e",
                    Value::List(vec![Value::Int(*code), Value::str(message)]),
                ),
                (b"t", Value::Bytes(transaction.clone())),
                (b"y", Value::str("e")),
            ])
            .encode(),
        }
    }

    /// Decode the tree, pick the fields out of it.
    pub fn decode(data: &[u8]) -> Result<Message, KrpcError> {
        let v = Value::decode(data).map_err(|_| KrpcError("not bencode"))?;
        let t = v
            .get(b"t")
            .and_then(|t| t.as_bytes())
            .ok_or(KrpcError("missing transaction"))?
            .to_vec();
        match v.get(b"y").and_then(|y| y.as_bytes()) {
            Some(b"q") => {
                let q = v
                    .get(b"q")
                    .and_then(|q| q.as_bytes())
                    .ok_or(KrpcError("missing q"))?;
                let kind = match q {
                    b"ping" => QueryKind::Ping,
                    b"find_node" => QueryKind::FindNode,
                    _ => return Err(KrpcError("unknown query")),
                };
                let args = v.get(b"a").ok_or(KrpcError("missing args"))?;
                let sender = args
                    .get(b"id")
                    .and_then(|i| i.as_bytes())
                    .and_then(NodeId160::from_bytes)
                    .ok_or(KrpcError("bad sender id"))?;
                let target = match kind {
                    QueryKind::FindNode => Some(
                        args.get(b"target")
                            .and_then(|t| t.as_bytes())
                            .and_then(NodeId160::from_bytes)
                            .ok_or(KrpcError("bad target"))?,
                    ),
                    QueryKind::Ping => None,
                };
                Ok(Message::Query {
                    transaction: t,
                    kind,
                    sender,
                    target,
                })
            }
            Some(b"r") => {
                let ret = v.get(b"r").ok_or(KrpcError("missing return"))?;
                let sender = ret
                    .get(b"id")
                    .and_then(|i| i.as_bytes())
                    .and_then(NodeId160::from_bytes)
                    .ok_or(KrpcError("bad responder id"))?;
                let nodes = match ret.get(b"nodes").and_then(|n| n.as_bytes()) {
                    Some(blob) => {
                        CompactNode::parse_list(blob).ok_or(KrpcError("bad nodes blob"))?
                    }
                    None => Vec::new(),
                };
                Ok(Message::Response {
                    transaction: t,
                    sender,
                    nodes,
                })
            }
            Some(b"e") => {
                let e = v
                    .get(b"e")
                    .and_then(|e| e.as_list())
                    .ok_or(KrpcError("bad error"))?;
                let code = e
                    .first()
                    .and_then(|c| c.as_int())
                    .ok_or(KrpcError("bad error code"))?;
                let message = e
                    .get(1)
                    .and_then(|m| m.as_bytes())
                    .map(|m| String::from_utf8_lossy(m).into_owned())
                    .unwrap_or_default();
                Ok(Message::Error {
                    transaction: t,
                    code,
                    message,
                })
            }
            _ => Err(KrpcError("missing/unknown message type")),
        }
    }
}

/// Datagrams whose lengths or integers overflow. The first is a whole
/// dictionary: it made the old reader's `pos + len` wrap past its bound
/// check and slice `25..24` — a one-packet kill of any peer, the
/// bootstrap server or the crawler.
pub const OVERFLOWING: [&[u8]; 3] = [
    b"d1:t18446744073709551615:e",
    b"99999999999999999999:",
    b"i9223372036854775808e",
];

/// Bytes that look like bencode: structure characters and digits
/// (structure twice as often), the 20-digit runs that overflow a length
/// or an integer, and a few whole values, so that a random draw gets
/// past the first byte of the reader.
pub fn bencode_shaped() -> impl Strategy<Value = Vec<u8>> {
    const ALPHABET: &[u8] = b"0123456789:dlie-";
    const RUNS: [&[u8]; 8] = [
        b"18446744073709551615",
        b"18446744073709551616",
        b"99999999999999999999",
        b"9223372036854775808",
        b"1:a",
        b"i1e",
        b"de",
        b"le",
    ];
    let token = prop_oneof![
        (0..ALPHABET.len()).prop_map(|i| vec![ALPHABET[i]]),
        (10..ALPHABET.len()).prop_map(|i| vec![ALPHABET[i]]),
        (0..RUNS.len()).prop_map(|i| RUNS[i].to_vec()),
    ];
    proptest::collection::vec(token, 0..24).prop_map(|tokens| tokens.concat())
}
