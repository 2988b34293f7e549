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

/// The slicing-by-8 tables: `CRC_TABLES[k][b]` is the CRC register after
/// byte `b` followed by `k` zero bytes, so eight table lookups advance
/// the register over eight input bytes. Row 0 is [`CRC_TABLE`]; the
/// others are derived from it at compile time.
const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [CRC_TABLE; 8];
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ CRC_TABLE[(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

const CRC_TABLES: [[u32; 256]; 8] = crc_tables();

/// CRC-32 checksum of `data` (IEEE polynomial, reflected, init/final-xor
/// `!0`); the tables are built at compile time.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0, data)
}

/// Extend `crc`, the CRC-32 of some bytes (`0` for none), over `data`:
/// `crc32_update(crc32(a), b) == crc32(a ++ b)`. Eight bytes per step
/// (slicing-by-8), then the tail one at a time.
pub fn crc32_update(crc: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !crc;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][c[4] as usize]
            ^ t[2][c[5] as usize]
            ^ t[1][c[6] as usize]
            ^ t[0][c[7] as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
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
    let mut row = Row::default();
    decode_row_reading(r, |_| true, &mut row)?;
    Ok(row)
}

/// [`decode_row`] for a caller that will look at the columns `read`
/// names only: a string in any other column is walked and checked —
/// length, UTF-8 — exactly as `decode_row` checks it, then left out (the
/// column holds `''`), so the row costs no allocation it does not need
/// and errs whenever the full decode would have.
pub fn decode_row_masked(r: &mut Reader<'_>, read: &[bool]) -> Decoded<Row> {
    let mut row = Row::default();
    decode_row_into(r, read, &mut row)?;
    Ok(row)
}

/// [`decode_row_masked`] into a row the caller keeps across calls: a
/// slot that already holds a string keeps its allocation, so a buffer
/// that has seen a few rows of a table decodes the next one without
/// allocating. On an error `row` holds no particular row.
pub fn decode_row_into(r: &mut Reader<'_>, read: &[bool], row: &mut Row) -> Decoded<()> {
    decode_row_reading(r, masked(read), row)
}

fn masked(read: &[bool]) -> impl Fn(usize) -> bool + '_ {
    |column| read.get(column).copied().unwrap_or(false)
}

/// The fast path, and the checked one where it gives up.
fn decode_row_reading(
    r: &mut Reader<'_>,
    read: impl Fn(usize) -> bool,
    row: &mut Row,
) -> Decoded<()> {
    match fast_row(r.rest, &read, row.values_mut()) {
        Some(used) => r.rest = &r.rest[used..],
        None => *row = checked_row(r, read)?,
    }
    Ok(())
}

/// The fast path of every row decode: the row at the front of `image`
/// into `values`, each value's bounds checked once, and the bytes it
/// took. A string outside `read` is validated (`is_ascii`, else
/// `from_utf8`) and left `''`; a slot of `values` that holds a string
/// keeps its allocation. `None` on anything a well-formed row does not
/// hold — the caller then runs [`checked_row`], which returns the
/// identical row or names the error.
fn fast_row(image: &[u8], read: &impl Fn(usize) -> bool, values: &mut Vec<Value>) -> Option<usize> {
    fn bytes<const N: usize>(image: &[u8], at: usize) -> Option<[u8; N]> {
        image.get(at..at.checked_add(N)?)?.try_into().ok()
    }
    let arity = u32::from_le_bytes(bytes(image, 0)?) as usize;
    let mut at = 4;
    if arity > image.len() - at {
        return None;
    }
    values.truncate(arity);
    values.reserve(arity - values.len());
    for column in 0..arity {
        let tag = *image.get(at)?;
        at += 1;
        let v = match tag {
            TAG_NULL => Value::Null,
            TAG_CNULL => Value::CNull,
            TAG_BOOL_FALSE => Value::Bool(false),
            TAG_BOOL_TRUE => Value::Bool(true),
            TAG_INT | TAG_FLOAT => {
                let le = bytes(image, at)?;
                at += 8;
                match tag {
                    TAG_INT => Value::Int(i64::from_le_bytes(le)),
                    _ => Value::Float(f64::from_le_bytes(le)),
                }
            }
            TAG_STR => {
                let len = u32::from_le_bytes(bytes(image, at)?) as usize;
                let body = image.get(at + 4..(at + 4).checked_add(len)?)?;
                at += 4 + len;
                let s = match read(column) {
                    true => std::str::from_utf8(body).ok()?,
                    false if body.is_ascii() || std::str::from_utf8(body).is_ok() => "",
                    false => return None,
                };
                match values.get_mut(column) {
                    Some(Value::Str(old)) => {
                        old.clear();
                        old.push_str(s);
                        continue;
                    }
                    _ => Value::Str(s.to_owned()),
                }
            }
            _ => return None,
        };
        match values.get_mut(column) {
            Some(slot) => *slot = v,
            None => values.push(v),
        }
    }
    Some(at)
}

/// The checked decode: every read through [`Reader`], every anomaly a
/// [`DecodeError`]. The fallback of [`fast_row`], and its oracle.
fn checked_row(r: &mut Reader<'_>, read: impl Fn(usize) -> bool) -> Decoded<Row> {
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
    use crate::rng::Rng;
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

    /// The one-byte-at-a-time loop `crc32` ran before slicing-by-8.
    fn bytewise_crc32(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn sliced_crc32_equals_the_bytewise_loop() {
        let mut rng = Rng::seed_from_u64(0xC0DE_C32C);
        let bytes: Vec<u8> = (0..4096 + 8).map(|_| rng.next_u64() as u8).collect();
        for len in 0..=4096 {
            for start in 0..8 {
                let data = &bytes[start..start + len];
                let want = bytewise_crc32(data);
                assert_eq!(crc32(data), want, "len {len} at offset {start}");
                let cut = (len * 5 + start) % (len + 1);
                assert_eq!(
                    crc32_update(crc32(&data[..cut]), &data[cut..]),
                    want,
                    "len {len} at offset {start}, split at {cut}"
                );
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
        let back = decode_value(&mut r).unwrap();
        r.finish().unwrap();
        // Byte for byte: `Value`'s `==` holds `3 == 3.0` and `0.0 == -0.0`.
        assert_eq!(encoded(&back), bytes, "{v:?} decoded as {back:?}");
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

    /// A row of up to `max_arity` values of every tag, strings empty,
    /// ASCII or not, and a mask for it — masks shorter and longer than
    /// the row are legal.
    fn random_row(rng: &mut Rng, max_arity: usize) -> (Row, Vec<bool>) {
        let alphabet: Vec<char> = "abcXYZ 019'\u{e9}\u{4e2d}\u{1f980}\0".chars().collect();
        let values = (0..rng.gen_range(0..max_arity + 1))
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
        let mask = (0..rng.gen_range(0..max_arity + 3))
            .map(|_| rng.gen_bool(0.5))
            .collect();
        (Row::new(values), mask)
    }

    fn image(row: &Row) -> Vec<u8> {
        let mut out = Vec::new();
        encode_row(&mut out, row);
        out
    }

    /// A row the residual drops is still a row whose bytes were checked:
    /// leaving a string out changes what the decode returns, never
    /// whether it succeeds.
    #[test]
    fn masked_decode_blanks_unread_strings_and_validates_like_the_full_decode() {
        let mut rng = Rng::seed_from_u64(0x5EED_0021);
        for case in 0..60 {
            let (row, mask) = random_row(&mut rng, 6);
            let image = image(&row);

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

    /// What a decode returned — a row as its encoding, so that a flipped
    /// bit that makes a NaN still compares — and how much it left unread.
    fn outcome(
        bytes: &[u8],
        decode: impl FnOnce(&mut Reader<'_>) -> Decoded<Row>,
    ) -> Decoded<(Vec<u8>, usize)> {
        let mut r = Reader::new(bytes);
        let row = decode(&mut r)?;
        Ok((image(&row), r.rest.len()))
    }

    /// The fast path and the checked path must not be told apart: on
    /// every image, intact or damaged, each public decode returns what
    /// the checked path returns — the same row and bytes consumed, or the
    /// same error — and the fast path declines exactly the images the
    /// checked path rejects, so a well-formed row never pays for both.
    /// The buffer-reusing decode runs through one buffer for the whole
    /// test, across rows of every arity and type.
    #[test]
    fn fast_and_checked_decodes_agree() {
        let mut rng = Rng::seed_from_u64(0x5EED_0025);
        let mut buffer = Row::default();
        for case in 0..150 {
            let (row, mask) = random_row(&mut rng, 8);
            let intact = image(&row);
            let intact_too = std::iter::once(("intact".to_string(), intact.clone()));
            for (what, bytes) in intact_too.chain(corruptions(&intact)) {
                let at = || format!("case {case}, {what}: {row} under {mask:?}");
                let full = outcome(&bytes, |r| checked_row(r, |_| true));
                let part = outcome(&bytes, |r| checked_row(r, masked(&mask)));
                let fast = fast_row(&bytes, &masked(&mask), &mut Vec::new());
                assert_eq!(fast.is_some(), part.is_ok(), "{}", at());
                assert_eq!(outcome(&bytes, decode_row), full, "{}", at());
                let got = outcome(&bytes, |r| decode_row_masked(r, &mask));
                assert_eq!(got, part, "{}", at());
                let into = |r: &mut Reader<'_>| {
                    decode_row_into(r, &mask, &mut buffer)?;
                    Ok(buffer.clone())
                };
                assert_eq!(outcome(&bytes, into), part, "{}", at());
            }
        }

        // One slot holding a long string, then an int, then a short
        // string; and a string slot refilled keeps its allocation.
        let long = "a string longer than the next one".to_string();
        let read = [true, false];
        for row in [
            crate::row![long.as_str(), "unread"],
            crate::row![7i64],
            crate::row!["short", "unread", 2.5f64],
            crate::row!["tiny"],
        ] {
            decode_row_into(&mut Reader::new(&image(&row)), &read, &mut buffer).unwrap();
            let want = decode_row_masked(&mut Reader::new(&image(&row)), &read).unwrap();
            assert_eq!(buffer, want);
        }
        let Value::Str(before) = &buffer[0] else {
            unreachable!()
        };
        let before = before.as_ptr();
        decode_row_into(
            &mut Reader::new(&image(&crate::row!["x"])),
            &read,
            &mut buffer,
        )
        .unwrap();
        assert!(matches!(&buffer[0], Value::Str(s) if s == "x" && s.as_ptr() == before));
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
