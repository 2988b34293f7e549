//! The one binary codec every CrowdDB format is written in.
//!
//! Row storage, WAL records and frames, snapshots, paged metadata and
//! CDBP messages are all little-endian integers, `u32`-length-prefixed
//! UTF-8 strings and tagged [`Value`]s. This module holds the shared
//! pieces — [`put_u32`] and friends onto a `Vec<u8>`, a borrowing
//! [`Reader`] over `&[u8]`, the `[u32 len][u32 crc32][payload]`
//! [`frame`]/[`unframe`] pair the WAL and CDBP share, [`crc32`], and the
//! self-describing `Value`/`Row` encoding. Each format keeps its own
//! magic, bounds and error category and maps [`DecodeError`] /
//! [`FrameError`] into it.

use std::cmp::Ordering;
use std::fmt;

use crate::{CrowdError, Row, Value};

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

const CRC_TABLE: [u32; 256] = crc_table();

/// CRC-32 checksum of `data` (IEEE polynomial, reflected, init/final-xor
/// `!0`); the table is built at compile time.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in data {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Why a buffer did not decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended inside the named field.
    Truncated(&'static str),
    /// A field held an impossible value (bad tag, bad UTF-8, bad count).
    Malformed(String),
    /// The message decoded but left this many bytes unconsumed.
    Trailing(usize),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated(what) => write!(f, "truncated {what}"),
            DecodeError::Malformed(m) => write!(f, "{m}"),
            DecodeError::Trailing(n) => write!(f, "{n} trailing byte(s)"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Row and metadata decoders report a bad buffer as `internal`.
impl From<DecodeError> for CrowdError {
    fn from(e: DecodeError) -> CrowdError {
        CrowdError::Internal(format!("codec: {e}"))
    }
}

/// Result of a decode step.
pub type Decoded<T> = Result<T, DecodeError>;

/// A cursor over a borrowed buffer. Every read checks bounds and returns
/// [`DecodeError::Truncated`] instead of panicking.
#[derive(Debug)]
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Start reading at the front of `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { rest: buf }
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.rest.is_empty()
    }

    /// The next `n` bytes, borrowed from the input.
    pub fn take(&mut self, n: usize, what: &'static str) -> Decoded<&'a [u8]> {
        if self.rest.len() < n {
            return Err(DecodeError::Truncated(what));
        }
        let (head, rest) = self.rest.split_at(n);
        self.rest = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self, what: &'static str) -> Decoded<[u8; N]> {
        Ok(self.take(N, what)?.try_into().expect("take(N) is N bytes"))
    }

    pub fn u8(&mut self) -> Decoded<u8> {
        Ok(self.array::<1>("u8")?[0])
    }

    pub fn u32(&mut self) -> Decoded<u32> {
        Ok(u32::from_le_bytes(self.array("u32")?))
    }

    pub fn u64(&mut self) -> Decoded<u64> {
        Ok(u64::from_le_bytes(self.array("u64")?))
    }

    pub fn i64(&mut self) -> Decoded<i64> {
        Ok(i64::from_le_bytes(self.array("i64")?))
    }

    pub fn f64(&mut self) -> Decoded<f64> {
        Ok(f64::from_le_bytes(self.array("f64")?))
    }

    /// One byte that must be 0 or 1.
    pub fn bool(&mut self) -> Decoded<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(DecodeError::Malformed(format!("bad bool byte {other}"))),
        }
    }

    /// A `u32`-length-prefixed UTF-8 string, borrowed from the input.
    pub fn str(&mut self) -> Decoded<&'a str> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.take(len, "string body")?)
            .map_err(|e| DecodeError::Malformed(format!("invalid utf8: {e}")))
    }

    /// A `u32` element count. A count whose elements, at
    /// `min_item_bytes` each, cannot fit in what remains is rejected
    /// here — before the caller sizes an allocation by it.
    pub fn count(&mut self, min_item_bytes: usize) -> Decoded<usize> {
        let n = self.u32()?;
        self.fits(n as u64, min_item_bytes)
    }

    /// [`Reader::count`] for formats that write their count as `u64`.
    pub fn count_u64(&mut self, min_item_bytes: usize) -> Decoded<usize> {
        let n = self.u64()?;
        self.fits(n, min_item_bytes)
    }

    fn fits(&self, n: u64, min_item_bytes: usize) -> Decoded<usize> {
        match n.checked_mul(min_item_bytes as u64) {
            Some(need) if need <= self.rest.len() as u64 => Ok(n as usize),
            _ => Err(DecodeError::Malformed(format!(
                "count {n} cannot fit in the {} byte(s) that remain",
                self.rest.len()
            ))),
        }
    }

    /// Strict end-of-message check: leftover bytes are corruption.
    pub fn finish(&self) -> Decoded<()> {
        match self.rest.len() {
            0 => Ok(()),
            n => Err(DecodeError::Trailing(n)),
        }
    }
}

pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(u8::from(v));
}

/// `u32` byte length, then the UTF-8 bytes.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Size of a frame header: `u32` payload length + `u32` CRC.
pub const FRAME_HEADER: usize = 8;

/// Why a byte image is not an intact frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The image ended inside the named part of the frame.
    Truncated(&'static str),
    /// The header declares a payload outside `1..=max_payload`.
    Length(u32),
    /// The payload does not match the header's CRC.
    Crc,
}

/// `[u32 len][u32 crc32(payload)][payload]`.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
    put_u32(&mut out, payload.len() as u32);
    put_u32(&mut out, crc32(payload));
    out.extend_from_slice(payload);
    out
}

/// Split a frame header into `(payload length, payload CRC)`, bounding
/// the length so it is never taken as an allocation hint.
pub fn frame_header(
    header: &[u8; FRAME_HEADER],
    max_payload: u32,
) -> Result<(usize, u32), FrameError> {
    let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes"));
    let crc = u32::from_le_bytes(header[4..].try_into().expect("4 bytes"));
    if len == 0 || len > max_payload {
        return Err(FrameError::Length(len));
    }
    Ok((len as usize, crc))
}

/// Validate the frame at the front of `image`; returns its payload and
/// the bytes the whole frame occupies.
pub fn unframe(image: &[u8], max_payload: u32) -> Result<(&[u8], usize), FrameError> {
    let header = image
        .get(..FRAME_HEADER)
        .ok_or(FrameError::Truncated("frame header"))?;
    let (len, crc) = frame_header(header.try_into().expect("8 bytes"), max_payload)?;
    let payload = image
        .get(FRAME_HEADER..FRAME_HEADER + len)
        .ok_or(FrameError::Truncated("frame payload"))?;
    if crc32(payload) != crc {
        return Err(FrameError::Crc);
    }
    Ok((payload, FRAME_HEADER + len))
}

const TAG_NULL: u8 = 0;
const TAG_CNULL: u8 = 1;
const TAG_BOOL_FALSE: u8 = 2;
const TAG_BOOL_TRUE: u8 = 3;
const TAG_INT: u8 = 4;
const TAG_FLOAT: u8 = 5;
const TAG_STR: u8 = 6;

/// Append one value: a type tag byte, then the payload. Self-describing,
/// so rows decode without schema information.
pub fn encode_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::CNull => out.push(TAG_CNULL),
        Value::Bool(false) => out.push(TAG_BOOL_FALSE),
        Value::Bool(true) => out.push(TAG_BOOL_TRUE),
        Value::Int(i) => {
            out.push(TAG_INT);
            put_i64(out, *i);
        }
        Value::Float(f) => {
            out.push(TAG_FLOAT);
            put_f64(out, *f);
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            put_str(out, s);
        }
    }
}

/// A decoded value whose string body still borrows the input.
enum Scalar<'a> {
    Val(Value),
    Str(&'a str),
}

fn decode_scalar<'a>(r: &mut Reader<'a>) -> Decoded<Scalar<'a>> {
    let v = match r.take(1, "value tag")?[0] {
        TAG_NULL => Value::Null,
        TAG_CNULL => Value::CNull,
        TAG_BOOL_FALSE => Value::Bool(false),
        TAG_BOOL_TRUE => Value::Bool(true),
        TAG_INT => Value::Int(r.i64()?),
        TAG_FLOAT => Value::Float(r.f64()?),
        TAG_STR => return Ok(Scalar::Str(r.str()?)),
        other => return Err(DecodeError::Malformed(format!("unknown value tag {other}"))),
    };
    Ok(Scalar::Val(v))
}

/// Decode one value, advancing the reader.
pub fn decode_value(r: &mut Reader<'_>) -> Decoded<Value> {
    Ok(match decode_scalar(r)? {
        Scalar::Val(v) => v,
        Scalar::Str(s) => Value::Str(s.to_string()),
    })
}

/// Compare the next encoded value of `a` and of `b` in
/// [`Value::sort_cmp`] order without allocating (strings rank above
/// every other type there and compare bytewise).
pub fn cmp_encoded_values(a: &mut Reader<'_>, b: &mut Reader<'_>) -> Decoded<Ordering> {
    Ok(match (decode_scalar(a)?, decode_scalar(b)?) {
        (Scalar::Str(x), Scalar::Str(y)) => x.cmp(y),
        (Scalar::Str(_), Scalar::Val(_)) => Ordering::Greater,
        (Scalar::Val(_), Scalar::Str(_)) => Ordering::Less,
        (Scalar::Val(x), Scalar::Val(y)) => x.sort_cmp(&y),
    })
}

/// Encode a row: `u32` arity followed by each value.
pub fn encode_row(out: &mut Vec<u8>, row: &Row) {
    put_u32(out, row.arity() as u32);
    for v in row.values() {
        encode_value(out, v);
    }
}

/// Decode a row written by [`encode_row`].
pub fn decode_row(r: &mut Reader<'_>) -> Decoded<Row> {
    decode_row_reading(r, |_| true)
}

/// [`decode_row`] for a caller that will look at the columns `read`
/// names only: a string in any other column is walked and checked —
/// length, UTF-8 — exactly as `decode_row` checks it, then left out (the
/// column holds `''`), so the row costs no allocation it does not need
/// and errs whenever the full decode would have.
pub fn decode_row_masked(r: &mut Reader<'_>, read: &[bool]) -> Decoded<Row> {
    decode_row_reading(r, |column| read.get(column).copied().unwrap_or(false))
}

fn decode_row_reading(r: &mut Reader<'_>, read: impl Fn(usize) -> bool) -> Decoded<Row> {
    let arity = r.count(1)?;
    let mut values = Vec::with_capacity(arity);
    for column in 0..arity {
        values.push(match decode_scalar(r)? {
            Scalar::Val(v) => v,
            Scalar::Str(s) if read(column) => Value::Str(s.to_string()),
            Scalar::Str(_) => Value::Str(String::new()),
        });
    }
    Ok(Row::new(values))
}

/// Encode many rows into a standalone buffer: `u64` count, then rows.
pub fn encode_rows(rows: &[Row]) -> Vec<u8> {
    let mut out = Vec::new();
    put_u64(&mut out, rows.len() as u64);
    for r in rows {
        encode_row(&mut out, r);
    }
    out
}

/// Decode a buffer written by [`encode_rows`].
pub fn decode_rows(buf: &[u8]) -> Decoded<Vec<Row>> {
    let mut r = Reader::new(buf);
    let n = r.count_u64(4)?;
    let mut rows = Vec::with_capacity(n);
    for _ in 0..n {
        rows.push(decode_row(&mut r)?);
    }
    Ok(rows)
}

/// Test support: every damaged variant of `image` a decoder must reject
/// — each byte flipped three ways (low bit, high bit, all bits), every
/// proper prefix, and a one-byte extension — labelled for assertions.
pub fn corruptions(image: &[u8]) -> impl Iterator<Item = (String, Vec<u8>)> + '_ {
    let flips = (0..image.len()).flat_map(move |i| {
        [0x01u8, 0x80, 0xff].into_iter().map(move |mask| {
            let mut bad = image.to_vec();
            bad[i] ^= mask;
            (format!("byte {i} ^ {mask:#04x}"), bad)
        })
    });
    let cuts = (0..image.len()).map(move |cut| (format!("cut at {cut}"), image[..cut].to_vec()));
    let mut longer = image.to_vec();
    longer.push(0);
    flips
        .chain(cuts)
        .chain(std::iter::once(("one byte longer".to_string(), longer)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;

    #[test]
    fn crc32_known_vectors() {
        // Standard CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn crc32_sensitive_to_single_bit_flips() {
        let data = b"crowddb wal frame payload".to_vec();
        let base = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "flip at {byte}:{bit} undetected");
            }
        }
    }

    fn encoded(v: &Value) -> Vec<u8> {
        let mut out = Vec::new();
        encode_value(&mut out, v);
        out
    }

    fn round_trip(v: Value) {
        let bytes = encoded(&v);
        let mut r = Reader::new(&bytes);
        assert_eq!(decode_value(&mut r).unwrap(), v);
        r.finish().unwrap();
    }

    #[test]
    fn value_round_trips() {
        round_trip(Value::Null);
        round_trip(Value::CNull);
        round_trip(Value::Bool(true));
        round_trip(Value::Bool(false));
        round_trip(Value::Int(i64::MIN));
        round_trip(Value::Int(i64::MAX));
        round_trip(Value::Float(-0.0));
        round_trip(Value::Float(1.5e300));
        round_trip(Value::str(""));
        round_trip(Value::str("héllo wörld 🦀"));
    }

    #[test]
    fn row_round_trips() {
        let r = row![1i64, "abc", Value::CNull, true, 2.5f64, Value::Null];
        let bytes = encode_rows(std::slice::from_ref(&r));
        assert_eq!(decode_rows(&bytes).unwrap(), vec![r]);
    }

    #[test]
    fn many_rows_round_trip() {
        let rows: Vec<Row> = (0..100)
            .map(|i| row![i as i64, format!("row-{i}"), i % 2 == 0])
            .collect();
        assert_eq!(decode_rows(&encode_rows(&rows)).unwrap(), rows);
        assert_eq!(decode_rows(&encode_rows(&[])).unwrap(), Vec::<Row>::new());
    }

    #[test]
    fn truncated_buffers_error_not_panic() {
        let r = row![123i64, "some string value", 2.5f64];
        let mut full = Vec::new();
        encode_row(&mut full, &r);
        for (what, bad) in corruptions(&full) {
            // A flip may decode to a different row; a short buffer must
            // fail cleanly; nothing may panic.
            let mut reader = Reader::new(&bad);
            let got = decode_row(&mut reader).and_then(|row| reader.finish().map(|_| row));
            if bad.len() != full.len() {
                assert!(got.is_err(), "{what} decoded");
            }
        }
    }

    /// A row the residual drops is still a row whose bytes were checked:
    /// leaving a string out changes what the decode returns, never
    /// whether it succeeds.
    #[test]
    fn masked_decode_blanks_unread_strings_and_validates_like_the_full_decode() {
        use crate::rng::Rng;
        let mut rng = Rng::seed_from_u64(0x5EED_0021);
        let alphabet: Vec<char> = "abcXYZ 019'\u{e9}\u{4e2d}\u{1f980}\0".chars().collect();
        for case in 0..60 {
            let arity = rng.gen_range(0..7usize);
            let values: Vec<Value> = (0..arity)
                .map(|_| match rng.gen_range(0..7u32) {
                    0 => Value::Null,
                    1 => Value::CNull,
                    2 => Value::Bool(rng.gen_bool(0.5)),
                    3 => Value::Int(rng.next_u64() as i64),
                    4 => Value::Float(rng.gen_range(-1000.0..1000.0)),
                    _ => Value::Str(
                        (0..rng.gen_range(0..12usize))
                            .map(|_| alphabet[rng.gen_range(0..alphabet.len())])
                            .collect(),
                    ),
                })
                .collect();
            // Masks shorter and longer than the row are legal.
            let mask: Vec<bool> = (0..rng.gen_range(0..9usize))
                .map(|_| rng.gen_bool(0.5))
                .collect();
            let row = Row::new(values);
            let mut image = Vec::new();
            encode_row(&mut image, &row);

            let blanked: Vec<Value> = row
                .values()
                .iter()
                .enumerate()
                .map(|(i, v)| match v {
                    Value::Str(_) if !mask.get(i).copied().unwrap_or(false) => Value::str(""),
                    other => other.clone(),
                })
                .collect();
            let got = decode_row_masked(&mut Reader::new(&image), &mask).unwrap();
            // NaN-free values, so `==` is bytewise here.
            assert_eq!(got, Row::new(blanked), "case {case}: {row} under {mask:?}");

            for (what, bad) in corruptions(&image) {
                let full = decode_row(&mut Reader::new(&bad));
                let masked = decode_row_masked(&mut Reader::new(&bad), &mask);
                assert_eq!(
                    full.as_ref().err(),
                    masked.as_ref().err(),
                    "case {case}, {what}: {row} under {mask:?}"
                );
            }
        }
    }

    #[test]
    fn bad_string_and_tag_are_errors() {
        // Invalid UTF-8, a declared length beyond the buffer, unknown tag.
        for bytes in [
            vec![TAG_STR, 2, 0, 0, 0, 0xff, 0xfe],
            vec![TAG_STR, 0xe8, 3, 0, 0],
            vec![99u8],
            vec![],
        ] {
            assert!(decode_value(&mut Reader::new(&bytes)).is_err());
        }
    }

    #[test]
    fn oversized_counts_are_rejected_before_allocation() {
        let mut image = Vec::new();
        put_u64(&mut image, 1 << 61);
        image.extend_from_slice(&[0; 64]);
        let err = Reader::new(&image).count_u64(8).unwrap_err();
        assert!(matches!(err, DecodeError::Malformed(_)), "{err}");
        assert!(decode_rows(&image).is_err());
        // The largest count that fits is accepted.
        let mut r = Reader::new(&[8, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(r.count(1).unwrap(), 8);
        assert!(Reader::new(&[9, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8])
            .count(1)
            .is_err());
    }

    #[test]
    fn frame_round_trips_and_every_corruption_is_rejected() {
        let image = frame(b"payload bytes");
        assert_eq!(
            unframe(&image, 64),
            Ok((&b"payload bytes"[..], image.len()))
        );
        assert_eq!(unframe(&image, 4), Err(FrameError::Length(13)));
        assert_eq!(unframe(&frame(b""), 64), Err(FrameError::Length(0)));
        for (what, bad) in corruptions(&image) {
            // The extension leaves the first frame intact (and unread).
            match unframe(&bad, 64) {
                Ok((_, used)) => assert!(used < bad.len(), "{what} accepted"),
                Err(_) => assert!(bad.len() <= image.len(), "{what}"),
            }
        }
    }

    #[test]
    fn encoded_compare_agrees_with_sort_cmp() {
        let vals = [
            Value::Null,
            Value::CNull,
            Value::Bool(false),
            Value::Bool(true),
            Value::Int(-3),
            Value::Float(2.5),
            Value::Int(7),
            Value::str(""),
            Value::str("abc"),
            Value::str("abd"),
        ];
        for x in &vals {
            for y in &vals {
                let (xb, yb) = (encoded(x), encoded(y));
                let got = cmp_encoded_values(&mut Reader::new(&xb), &mut Reader::new(&yb));
                assert_eq!(got.unwrap(), x.sort_cmp(y), "{x:?} vs {y:?}");
            }
        }
    }
}
