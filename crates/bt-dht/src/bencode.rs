//! Bencoding (BEP-03): the wire format of all BitTorrent DHT traffic.
//!
//! Four types: integers `i42e`, byte strings `4:spam`, lists `l...e` and
//! dictionaries `d...e` with lexicographically sorted raw-byte-string keys.
//!
//! **Reading** is one forward pass over a borrowed datagram: a [`Reader`]
//! is a cursor, nothing is copied and no tree is built. A byte string
//! comes back as a *span* — a sub-slice of the input, with its lifetime —
//! and a list or dictionary is walked by a closure that is shown each
//! index or key with the cursor before the value. A typed read returns
//! `None`, consuming nothing, when the next value has another type, and
//! what the closure leaves unread the walk reads for it: a parser names
//! the keys it knows, and every other key and value, however nested, is
//! still validated before it is skipped.
//!
//! The reader is strict (canonical form only), so it doubles as a message
//! validator. [`Reader::int`]: a digit, no leading zero, no `-0`, fits
//! `i64`; [`Reader::bytes`]: a canonical length that fits `usize` and the
//! input; [`Reader::dict`]: byte-string keys, strictly ascending (so
//! unique), each with a value; every value: at most [`MAX_DEPTH`] deep;
//! [`Reader::finish`]: no trailing bytes. Length and offset arithmetic
//! is checked throughout: no input panics the reader.
//!
//! **Writing** is direct: [`write_int`], [`write_bytes`] and
//! [`write_len`] append to a `Vec<u8>`; a container's `l`/`d`/`e` framing
//! is the caller's, who thereby owes dictionary keys in ascending order.

use std::fmt;

/// Decoding error with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    pub offset: usize,
    pub message: &'static str,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bencode error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for DecodeError {}

/// Deepest nesting accepted: the top-level value is at depth 0.
pub const MAX_DEPTH: usize = 16;

/// A forward-only cursor over one bencoded datagram.
#[derive(Debug)]
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
    /// Containers currently open.
    depth: usize,
}

impl<'a> Reader<'a> {
    pub fn new(data: &'a [u8]) -> Self {
        Reader {
            data,
            pos: 0,
            depth: 0,
        }
    }

    fn err<T>(&self, message: &'static str) -> Result<T, DecodeError> {
        Err(DecodeError {
            offset: self.pos,
            message,
        })
    }

    fn peek(&self) -> Option<u8> {
        self.data.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8, message: &'static str) -> Result<(), DecodeError> {
        if self.peek() != Some(byte) {
            return self.err(message);
        }
        self.pos += 1;
        Ok(())
    }

    /// Whether a value `opens` accepts comes next (nested too deep: error).
    fn at(&self, opens: impl Fn(u8) -> bool) -> Result<bool, DecodeError> {
        match self.peek() {
            Some(b) if opens(b) && self.depth > MAX_DEPTH => self.err("nesting too deep"),
            b => Ok(b.is_some_and(opens)),
        }
    }

    /// A run of decimal digits in canonical form (no leading zero),
    /// accumulated with checked arithmetic.
    fn decimal(&mut self, overflow: &'static str) -> Result<u64, DecodeError> {
        let start = self.pos;
        let mut n: u64 = 0;
        while let Some(d @ b'0'..=b'9') = self.peek() {
            let digit = u64::from(d - b'0');
            let Some(next) = n.checked_mul(10).and_then(|n| n.checked_add(digit)) else {
                return self.err(overflow);
            };
            n = next;
            self.pos += 1;
        }
        match self.pos - start {
            0 => self.err("expected digits"),
            len if len > 1 && self.data[start] == b'0' => self.err("leading zero"),
            _ => Ok(n),
        }
    }

    /// Read an integer, if that is what comes next.
    pub fn int(&mut self) -> Result<Option<i64>, DecodeError> {
        if !self.at(|b| b == b'i')? {
            return Ok(None);
        }
        self.pos += 1;
        let negative = self.peek() == Some(b'-');
        self.pos += negative as usize;
        let magnitude = self.decimal("integer overflow")?;
        let n = match (negative, magnitude) {
            (true, 0) => return self.err("negative zero"),
            (true, m) => 0i64.checked_sub_unsigned(m),
            (false, m) => i64::try_from(m).ok(),
        };
        let Some(n) = n else {
            return self.err("integer overflow");
        };
        self.expect(b'e', "expected 'e' after integer")?;
        Ok(Some(n))
    }

    /// Read a byte string, if that is what comes next: a span of the input.
    pub fn bytes(&mut self) -> Result<Option<&'a [u8]>, DecodeError> {
        match self.at(|b| b.is_ascii_digit())? {
            true => self.span().map(Some),
            false => Ok(None),
        }
    }

    /// `<length>:<bytes>`, from its first digit.
    fn span(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.decimal("length overflow")?;
        self.expect(b':', "expected ':'")?;
        // A checked slice of what is left: no `pos + len` to overflow.
        let len = usize::try_from(len).ok();
        let Some(span) = len.and_then(|len| self.data[self.pos..].get(..len)) else {
            return self.err("string exceeds input");
        };
        self.pos += span.len();
        Ok(span)
    }

    /// Walk a list, if that is what comes next (`false` if not): `visit`
    /// sees each element's index with the cursor before the element,
    /// and reads that one value or leaves it to be skipped.
    pub fn list(
        &mut self,
        mut visit: impl FnMut(usize, &mut Self) -> Result<(), DecodeError>,
    ) -> Result<bool, DecodeError> {
        self.walk(b'l', "unterminated list", |r, index| {
            let start = r.pos;
            visit(index, r).map(|()| start)
        })
    }

    /// Walk a dictionary, if that is what comes next (`false` if not):
    /// `visit` sees each key — once, in strictly ascending order — with
    /// the cursor before its value, and reads that one value or leaves
    /// it to be skipped.
    pub fn dict(
        &mut self,
        mut visit: impl FnMut(&'a [u8], &mut Self) -> Result<(), DecodeError>,
    ) -> Result<bool, DecodeError> {
        let mut last: Option<&[u8]> = None;
        self.walk(b'd', "unterminated dict", |r, _| {
            if !r.peek().is_some_and(|b| b.is_ascii_digit()) {
                return r.err("dict key must be a string");
            }
            let key = r.span()?;
            if last.replace(key).is_some_and(|last| last >= key) {
                return r.err("dict keys not strictly sorted");
            }
            let start = r.pos;
            visit(key, r).map(|()| start)
        })
    }

    /// The framing of both containers: `open`, then `entry` until `e`.
    /// An entry returns where its value starts; still there, it is skipped.
    fn walk(
        &mut self,
        open: u8,
        unterminated: &'static str,
        mut entry: impl FnMut(&mut Self, usize) -> Result<usize, DecodeError>,
    ) -> Result<bool, DecodeError> {
        if !self.at(|b| b == open)? {
            return Ok(false);
        }
        self.pos += 1;
        self.depth += 1;
        for index in 0.. {
            match self.peek() {
                None => return self.err(unterminated),
                Some(b'e') => break,
                Some(_) => {}
            }
            if entry(self, index)? == self.pos {
                self.skip()?;
            }
        }
        self.pos += 1;
        self.depth -= 1;
        Ok(true)
    }

    /// Read one value of any type, checking all of it, and drop it.
    pub fn skip(&mut self) -> Result<(), DecodeError> {
        let read = self.int()?.is_some()
            || self.bytes()?.is_some()
            || self.list(|_, _| Ok(()))?
            || self.dict(|_, _| Ok(()))?;
        match read {
            true => Ok(()),
            false => self.err("expected a value"),
        }
    }

    /// The top-level value has been read: nothing may follow it.
    pub fn finish(self) -> Result<(), DecodeError> {
        if self.pos != self.data.len() {
            return self.err("trailing bytes");
        }
        Ok(())
    }
}

/// Append `n` in decimal.
fn write_decimal(out: &mut Vec<u8>, mut n: u64) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&buf[at..]);
}

/// Append the integer `i` (`i<decimal>e`).
pub fn write_int(out: &mut Vec<u8>, i: i64) {
    out.push(b'i');
    if i < 0 {
        out.push(b'-');
    }
    write_decimal(out, i.unsigned_abs());
    out.push(b'e');
}

/// Append the `<length>:` of a byte string the caller appends itself.
pub fn write_len(out: &mut Vec<u8>, len: usize) {
    write_decimal(out, len as u64);
    out.push(b':');
}

/// Append the byte string `b` (`<length>:<bytes>`).
pub fn write_bytes(out: &mut Vec<u8>, b: &[u8]) {
    write_len(out, b.len());
    out.extend_from_slice(b);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{bencode_shaped, dict, Value};
    use proptest::prelude::*;

    /// The whole input as one value, through the reader.
    fn read(data: &[u8]) -> Result<Value, DecodeError> {
        Value::read(data)
    }

    #[test]
    fn encode_primitives() {
        let enc = |f: &dyn Fn(&mut Vec<u8>)| {
            let mut out = Vec::new();
            f(&mut out);
            out
        };
        assert_eq!(enc(&|o| write_int(o, 42)), b"i42e");
        assert_eq!(enc(&|o| write_int(o, -7)), b"i-7e");
        assert_eq!(enc(&|o| write_int(o, 0)), b"i0e");
        assert_eq!(
            enc(&|o| write_int(o, i64::MIN)),
            Value::Int(i64::MIN).encode()
        );
        assert_eq!(enc(&|o| write_bytes(o, b"spam")), b"4:spam");
        assert_eq!(enc(&|o| write_bytes(o, b"")), b"0:");
    }

    #[test]
    fn encode_compound() {
        let v = Value::List(vec![Value::str("a"), Value::Int(1)]);
        assert_eq!(v.write(), b"l1:ai1ee");
        // The writer emits keys in the order it is given them; the
        // model sorts, and the reader refuses the other order.
        let d = dict(vec![(b"b", Value::Int(2)), (b"a", Value::Int(1))]);
        assert_eq!(d.write(), b"d1:ai1e1:bi2ee");
        assert!(read(b"d1:bi2e1:ai1ee").is_err());
    }

    #[test]
    fn decode_primitives() {
        assert_eq!(Reader::new(b"i42e").int(), Ok(Some(42)));
        assert_eq!(Reader::new(b"i-7e").int(), Ok(Some(-7)));
        assert_eq!(Reader::new(b"4:spam").bytes(), Ok(Some(&b"spam"[..])));
        assert_eq!(Reader::new(b"0:").bytes(), Ok(Some(&b""[..])));
        assert_eq!(
            Reader::new(b"i-9223372036854775808e").int(),
            Ok(Some(i64::MIN))
        );
    }

    #[test]
    fn decode_nested() {
        let mut r = Reader::new(b"d1:ad2:id2:XYe1:q4:ping1:t2:aa1:y1:qe");
        let (mut id, mut q, mut keys) = (None, None, Vec::new());
        let walked = r.dict(|key, r| {
            keys.push(key);
            match key {
                b"a" => {
                    r.dict(|key, r| {
                        if key == b"id" {
                            id = r.bytes()?;
                        }
                        Ok(())
                    })?;
                }
                b"q" => q = r.bytes()?,
                _ => {} // left unread: skipped by the walk
            }
            Ok(())
        });
        assert_eq!(walked, Ok(true));
        r.finish().unwrap();
        assert_eq!(keys, [b"a", b"q", b"t", b"y"]);
        assert_eq!(id, Some(&b"XY"[..]));
        assert_eq!(q, Some(&b"ping"[..]));
    }

    #[test]
    fn reject_malformed() {
        for bad in [
            &b"i42"[..],       // unterminated int
            b"ie",             // empty int
            b"i-0e",           // negative zero
            b"i042e",          // leading zero
            b"4:spa",          // short string
            b"04:spam",        // leading zero in length
            b"l1:a",           // unterminated list
            b"d1:ae",          // key without value
            b"di1e1:ae",       // non-string key
            b"d1:bi1e1:ai2ee", // unsorted keys
            b"d1:ai1e1:ai2ee", // duplicate keys
            b"x",              // invalid prefix
            b"",               // empty
            b"i1ei2e",         // trailing bytes
        ] {
            assert!(read(bad).is_err(), "should reject {:?}", bad);
        }
    }

    #[test]
    fn binary_strings_preserved() {
        // Node IDs and compact node info are raw binary — must round-trip.
        let raw: Vec<u8> = (0u8..=255).collect();
        let mut enc = Vec::new();
        write_bytes(&mut enc, &raw);
        assert_eq!(Reader::new(&enc).bytes(), Ok(Some(&raw[..])));
    }

    #[test]
    fn depth_limit_enforced() {
        let nested = |n: usize| {
            let mut v = vec![b'l'; n];
            v.extend(std::iter::repeat_n(b'e', n));
            v
        };
        assert!(read(&nested(100)).is_err());
        // The innermost of 17 lists sits at depth 16: the last allowed.
        assert!(read(&nested(17)).is_ok());
        assert!(read(&nested(18)).is_err());
        // Skipping an unread value holds it to the same limit.
        let deep = [&b"d1:k"[..], &nested(17), b"e"].concat();
        assert!(Reader::new(&deep).skip().is_err());
        assert!(Reader::new(&[&b"d1:k"[..], &nested(16), b"e"].concat())
            .skip()
            .is_ok());
    }

    #[test]
    fn int_overflow_rejected() {
        assert!(read(b"i99999999999999999999999e").is_err());
        assert!(read(b"i9223372036854775808e").is_err());
        assert!(read(b"i-9223372036854775809e").is_err());
        assert_eq!(read(b"i9223372036854775807e"), Ok(Value::Int(i64::MAX)));
    }

    /// Lengths that overflow `usize`, or `pos + len`, are errors — the
    /// parent's reader wrapped on the second and sliced out of bounds.
    #[test]
    fn length_overflow_rejected() {
        for bad in [
            &b"18446744073709551615:"[..],
            b"18446744073709551616:",
            b"99999999999999999999:",
            b"d1:t18446744073709551615:e",
            b"9223372036854775807:x",
        ] {
            assert!(read(bad).is_err(), "should reject {:?}", bad);
        }
    }

    #[test]
    fn accessors() {
        let mut r = Reader::new(b"d1:lli1ei2eee");
        // A typed read of another type is `None` and consumes nothing.
        assert_eq!(r.int(), Ok(None));
        assert_eq!(r.bytes(), Ok(None));
        assert_eq!(r.list(|_, _| unreachable!()), Ok(false));
        let mut items = Vec::new();
        let walked = r.dict(|key, r| {
            assert_eq!(key, b"l");
            assert_eq!(r.dict(|_, _| unreachable!()), Ok(false));
            let walked = r.list(|index, r| {
                items.push((index, r.int()?));
                Ok(())
            });
            assert_eq!(walked, Ok(true));
            Ok(())
        });
        assert_eq!(walked, Ok(true));
        r.finish().unwrap();
        assert_eq!(items, [(0, Some(1)), (1, Some(2))]);
        // Nothing reads a stray terminator, or nothing at all.
        assert!(Reader::new(b"e").skip().is_err());
        assert!(Reader::new(b"").skip().is_err());
    }

    fn arb_value() -> impl Strategy<Value = Value> {
        let leaf = prop_oneof![
            any::<i64>().prop_map(Value::Int),
            proptest::collection::vec(any::<u8>(), 0..32).prop_map(Value::Bytes),
        ];
        leaf.prop_recursive(3, 32, 4, |inner| {
            prop_oneof![
                proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::List),
                proptest::collection::btree_map(
                    proptest::collection::vec(any::<u8>(), 0..8),
                    inner,
                    0..4
                )
                .prop_map(Value::Dict),
            ]
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The reader returns what the model encoded, for all values.
        #[test]
        fn prop_roundtrip(v in arb_value()) {
            let enc = v.encode();
            prop_assert_eq!(read(&enc), Ok(v));
        }

        /// The reader never panics, and accepts exactly what the
        /// model's tree decoder accepts, with the same value.
        #[test]
        fn prop_decoder_total(
            random in proptest::collection::vec(any::<u8>(), 0..256),
            shaped in bencode_shaped(),
        ) {
            for data in [random, shaped] {
                prop_assert_eq!(read(&data).ok(), Value::decode(&data).ok());
            }
        }

        /// Canonical encoding: what the reader returns, the writer
        /// turns back into the same bytes.
        #[test]
        fn prop_canonical(v in arb_value()) {
            let enc = v.encode();
            prop_assert_eq!(read(&enc).unwrap().write(), enc);
        }
    }
}
