//! CDBP — the CrowdDB wire protocol.
//!
//! A connection starts with an 8-byte magic (`CDBP0001`: protocol name +
//! format version), after which both directions exchange CRC-checked,
//! length-framed messages — [`crowddb_common::codec::frame`], the shape
//! the write-ahead log uses too:
//!
//! ```text
//! +-----------------------------+
//! | u32 payload_len             |  little-endian, 1 ..= MAX_FRAME
//! | u32 crc32(payload)          |  same CRC as the write-ahead log
//! | payload                     |  [u8 opcode][body]
//! +-----------------------------+
//! ```
//!
//! Every field of every body is length- or tag-delimited, and a decoder
//! must consume the payload *exactly* — trailing bytes are corruption,
//! not padding. Combined with the CRC, this makes the framing fully
//! corruption-evident: any single-byte corruption of a frame is either a
//! CRC mismatch, a length mismatch, or a strict-decode failure, never a
//! silently different message (the corruption suite in this module
//! asserts that byte by byte, mirroring the WAL's torn-tail sweep).
//!
//! Requests: `Hello` (tenant authentication + the session's platform
//! seed), `Query`, `Cancel` (out-of-band, keyed like the Postgres cancel
//! protocol), `Metrics`, `Close`, and the continuous-query trio
//! `Subscribe` / `Poll` / `Unsubscribe`. Responses: `HelloOk`, `RowSet`
//! (full per-statement crowd accounting included), `Error` (typed by
//! the engine's error category), `MetricsText`, `CancelOk`, `CloseOk`,
//! `SubscribeOk`, `DeltaBatches`, `UnsubscribeOk`.
//!
//! Delta delivery is poll-based: the client asks for up to `max`
//! batches and the server drains that many from the subscription's
//! bounded queue. A consumer that fell behind gets one typed
//! `subscription-lagged` error; its next poll carries a resync
//! snapshot. Polling keeps the protocol strictly request/response —
//! no server-push frame can interleave with a row set, so the stream
//! stays corruption-evident and trivially resumable.

use std::fmt;
use std::io::{Read, Write};

use crowddb_common::codec::{
    self, put_bool, put_f64, put_str, put_u32, put_u64, DecodeError, FrameError, Reader,
};
use crowddb_common::Row;
use crowddb_core::{CrowdSummary, DeltaBatch, QueryResult};

/// Connection magic: protocol name + format version.
pub const MAGIC: &[u8; 8] = b"CDBP0001";

/// Hard upper bound on one frame payload. A length above it is treated
/// as garbage framing, never as an allocation hint.
pub const MAX_FRAME: u32 = 1 << 24;

const REQ_HELLO: u8 = 0x01;
const REQ_QUERY: u8 = 0x02;
const REQ_CANCEL: u8 = 0x03;
const REQ_CLOSE: u8 = 0x04;
const REQ_METRICS: u8 = 0x05;
const REQ_SUBSCRIBE: u8 = 0x06;
const REQ_POLL: u8 = 0x07;
const REQ_UNSUBSCRIBE: u8 = 0x08;

const RESP_HELLO_OK: u8 = 0x81;
const RESP_ROWSET: u8 = 0x82;
const RESP_ERROR: u8 = 0x83;
const RESP_METRICS: u8 = 0x84;
const RESP_CANCEL_OK: u8 = 0x85;
const RESP_CLOSE_OK: u8 = 0x86;
const RESP_SUBSCRIBE_OK: u8 = 0x87;
const RESP_DELTA_BATCHES: u8 = 0x88;
const RESP_UNSUBSCRIBE_OK: u8 = 0x89;

/// Typed protocol failure. Framing-level variants (`BadMagic`,
/// `FrameTooLarge`, `CrcMismatch`, short reads) mean the byte stream can
/// no longer be trusted and the connection should end after an error
/// response; payload-level variants are scoped to one frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The connection did not open with [`MAGIC`].
    BadMagic,
    /// A frame header declared a payload outside `1..=MAX_FRAME`.
    FrameTooLarge(u32),
    /// An outgoing payload was outside `1..=MAX_FRAME` and was never
    /// written, so the stream is still framed — the caller can report a
    /// typed error to the peer instead of hanging up.
    OversizedPayload(usize),
    /// The stream or buffer ended inside a frame or field.
    Truncated(&'static str),
    /// The payload did not match its header CRC.
    CrcMismatch,
    /// The payload's first byte is not a known opcode.
    UnknownOpcode(u8),
    /// The payload decoded but left unconsumed bytes.
    TrailingBytes(usize),
    /// A field failed to decode (bad tag, bad UTF-8, bad count).
    Malformed(String),
    /// The underlying transport failed.
    Io(String),
    /// The peer closed the connection cleanly (EOF on a frame boundary).
    Closed,
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::BadMagic => write!(f, "bad connection magic (not CDBP0001)"),
            ProtocolError::FrameTooLarge(n) => write!(f, "frame length {n} outside bounds"),
            ProtocolError::OversizedPayload(n) => {
                write!(f, "payload of {n} bytes cannot be framed (max {MAX_FRAME})")
            }
            ProtocolError::Truncated(what) => write!(f, "truncated {what}"),
            ProtocolError::CrcMismatch => write!(f, "frame payload failed its CRC check"),
            ProtocolError::UnknownOpcode(op) => write!(f, "unknown opcode 0x{op:02x}"),
            ProtocolError::TrailingBytes(n) => write!(f, "{n} trailing byte(s) after message"),
            ProtocolError::Malformed(m) => write!(f, "malformed message: {m}"),
            ProtocolError::Io(m) => write!(f, "transport error: {m}"),
            ProtocolError::Closed => write!(f, "connection closed by peer"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// Field-level decode failures keep their kind.
impl From<DecodeError> for ProtocolError {
    fn from(e: DecodeError) -> ProtocolError {
        match e {
            DecodeError::Truncated(what) => ProtocolError::Truncated(what),
            DecodeError::Malformed(m) => ProtocolError::Malformed(m),
            DecodeError::Trailing(n) => ProtocolError::TrailingBytes(n),
        }
    }
}

impl From<FrameError> for ProtocolError {
    fn from(e: FrameError) -> ProtocolError {
        match e {
            FrameError::Truncated(what) => ProtocolError::Truncated(what),
            FrameError::Length(n) => ProtocolError::FrameTooLarge(n),
            FrameError::Crc => ProtocolError::CrcMismatch,
        }
    }
}

impl ProtocolError {
    /// Whether the byte stream is desynchronized (framing can no longer
    /// be trusted) as opposed to a one-frame payload problem.
    pub fn poisons_stream(&self) -> bool {
        matches!(
            self,
            ProtocolError::BadMagic
                | ProtocolError::FrameTooLarge(_)
                | ProtocolError::Truncated(_)
                | ProtocolError::CrcMismatch
                | ProtocolError::Io(_)
                | ProtocolError::Closed
        )
    }
}

/// Client → server messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Authenticate to a tenant and open a session. `seed` seeds the
    /// session's simulated crowd platform, so a statement stream over
    /// the wire reproduces the same bytes as the same stream in-process.
    Hello {
        /// Tenant name.
        tenant: String,
        /// Tenant token (empty for open tenants).
        token: String,
        /// Session platform seed.
        seed: u64,
    },
    /// Execute one CrowdSQL statement.
    Query {
        /// The statement text.
        sql: String,
    },
    /// Cancel the in-flight statement of session `session`. Sent on a
    /// *separate* connection (the owning connection is busy executing);
    /// `key` is the secret from that session's `HelloOk`.
    Cancel {
        /// Target session id.
        session: u64,
        /// Cancel key proving the caller saw the session's `HelloOk`.
        key: u64,
    },
    /// Close the session cleanly.
    Close,
    /// Fetch the server's metrics registry as Prometheus text.
    Metrics,
    /// Register a standing query (`SUBSCRIBE SELECT ...` or a bare
    /// `SELECT ...`).
    Subscribe {
        /// The standing query text.
        sql: String,
    },
    /// Drain up to `max` queued delta batches from subscription `id`.
    Poll {
        /// Subscription id from `SubscribeOk`.
        id: u64,
        /// Maximum batches to return (0 is treated as 1).
        max: u32,
    },
    /// Drop the standing query with id `id`.
    Unsubscribe {
        /// Subscription id from `SubscribeOk`.
        id: u64,
    },
}

/// Server → client messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Session opened.
    HelloOk {
        /// Server-unique session id.
        session: u64,
        /// Secret for out-of-band [`Request::Cancel`].
        cancel_key: u64,
        /// Server software identification.
        server: String,
    },
    /// A statement's result, with its full crowd-accounting summary, so
    /// remote clients reconcile cost exactly like embedded ones.
    RowSet(QueryResult),
    /// A statement or protocol failure, typed by the engine's error
    /// category (`parse`, `overloaded`, `cancelled`, `budget`,
    /// `protocol`, ...).
    Error {
        /// Machine-readable category.
        category: String,
        /// Human-readable message.
        message: String,
    },
    /// Metrics registry in Prometheus text format.
    MetricsText {
        /// The exposition text.
        text: String,
    },
    /// The cancel request was delivered (the target observes it at its
    /// next governor checkpoint).
    CancelOk,
    /// The session is closed; the server will drop the connection.
    CloseOk,
    /// A standing query was registered.
    SubscribeOk {
        /// Engine-unique subscription id.
        id: u64,
        /// Output column names of the standing query.
        columns: Vec<String>,
    },
    /// Queued delta batches drained by a `Poll` (possibly empty).
    DeltaBatches {
        /// Subscription id the batches belong to.
        id: u64,
        /// Drained batches, oldest first.
        batches: Vec<DeltaBatch>,
    },
    /// The standing query was dropped.
    UnsubscribeOk,
}

// ---------------------------------------------------------------- frame

/// Frame `payload` with length + CRC and write it.
///
/// A payload outside `1..=MAX_FRAME` (e.g. a row set past the frame
/// limit) fails *before* any byte hits the wire, with the non-poisoning
/// [`ProtocolError::OversizedPayload`] — the peer would reject such a
/// frame as `FrameTooLarge` and abandon the stream, so it must never be
/// sent.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), ProtocolError> {
    if payload.is_empty() || payload.len() > MAX_FRAME as usize {
        return Err(ProtocolError::OversizedPayload(payload.len()));
    }
    w.write_all(&codec::frame(payload))
        .and_then(|_| w.flush())
        .map_err(|e| ProtocolError::Io(e.to_string()))
}

/// Read one frame, validating length bounds and CRC. EOF on the frame
/// boundary is [`ProtocolError::Closed`]; EOF inside a frame is
/// [`ProtocolError::Truncated`].
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, ProtocolError> {
    let mut header = [0u8; codec::FRAME_HEADER];
    let mut got = 0;
    while got < header.len() {
        match r.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Err(ProtocolError::Closed),
            Ok(0) => return Err(ProtocolError::Truncated("frame header")),
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ProtocolError::Io(e.to_string())),
        }
    }
    let (len, crc) = codec::frame_header(&header, MAX_FRAME)?;
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload).map_err(|e| match e.kind() {
        std::io::ErrorKind::UnexpectedEof => ProtocolError::Truncated("frame payload"),
        _ => ProtocolError::Io(e.to_string()),
    })?;
    if codec::crc32(&payload) != crc {
        return Err(ProtocolError::CrcMismatch);
    }
    Ok(payload)
}

// --------------------------------------------------------------- fields

fn put_strs(buf: &mut Vec<u8>, items: &[String]) {
    put_u32(buf, items.len() as u32);
    for s in items {
        put_str(buf, s);
    }
}

fn get_str(r: &mut Reader<'_>) -> Result<String, ProtocolError> {
    Ok(r.str()?.to_string())
}

/// A count the engine holds as `usize`, sent as a `u64`.
fn get_usize(r: &mut Reader<'_>) -> Result<usize, ProtocolError> {
    let n = r.u64()?;
    usize::try_from(n).map_err(|_| ProtocolError::Malformed(format!("count {n} overflows usize")))
}

fn get_strs(r: &mut Reader<'_>) -> Result<Vec<String>, ProtocolError> {
    let n = r.count(4)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(get_str(r)?);
    }
    Ok(out)
}

fn put_rows(buf: &mut Vec<u8>, rows: &[Row]) {
    put_u32(buf, rows.len() as u32);
    for row in rows {
        codec::encode_row(buf, row);
    }
}

fn get_rows(r: &mut Reader<'_>) -> Result<Vec<Row>, ProtocolError> {
    let n = r.count(4)?;
    let mut rows = Vec::with_capacity(n);
    for _ in 0..n {
        // Whatever is wrong inside a row, the frame around it was intact.
        rows.push(codec::decode_row(r).map_err(|e| ProtocolError::Malformed(e.to_string()))?);
    }
    Ok(rows)
}

// ------------------------------------------------------------- requests

/// Encode a request payload (opcode + body, unframed).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut buf = Vec::new();
    match req {
        Request::Hello {
            tenant,
            token,
            seed,
        } => {
            buf.push(REQ_HELLO);
            put_str(&mut buf, tenant);
            put_str(&mut buf, token);
            put_u64(&mut buf, *seed);
        }
        Request::Query { sql } => {
            buf.push(REQ_QUERY);
            put_str(&mut buf, sql);
        }
        Request::Cancel { session, key } => {
            buf.push(REQ_CANCEL);
            put_u64(&mut buf, *session);
            put_u64(&mut buf, *key);
        }
        Request::Close => buf.push(REQ_CLOSE),
        Request::Metrics => buf.push(REQ_METRICS),
        Request::Subscribe { sql } => {
            buf.push(REQ_SUBSCRIBE);
            put_str(&mut buf, sql);
        }
        Request::Poll { id, max } => {
            buf.push(REQ_POLL);
            put_u64(&mut buf, *id);
            put_u32(&mut buf, *max);
        }
        Request::Unsubscribe { id } => {
            buf.push(REQ_UNSUBSCRIBE);
            put_u64(&mut buf, *id);
        }
    }
    buf
}

/// Strictly decode a request payload: the whole buffer must be consumed.
pub fn decode_request(payload: &[u8]) -> Result<Request, ProtocolError> {
    let r = &mut Reader::new(payload);
    let req = match r.u8()? {
        REQ_HELLO => Request::Hello {
            tenant: get_str(r)?,
            token: get_str(r)?,
            seed: r.u64()?,
        },
        REQ_QUERY => Request::Query { sql: get_str(r)? },
        REQ_CANCEL => Request::Cancel {
            session: r.u64()?,
            key: r.u64()?,
        },
        REQ_CLOSE => Request::Close,
        REQ_METRICS => Request::Metrics,
        REQ_SUBSCRIBE => Request::Subscribe { sql: get_str(r)? },
        REQ_POLL => Request::Poll {
            id: r.u64()?,
            max: r.u32()?,
        },
        REQ_UNSUBSCRIBE => Request::Unsubscribe { id: r.u64()? },
        other => return Err(ProtocolError::UnknownOpcode(other)),
    };
    r.finish()?;
    Ok(req)
}

// ------------------------------------------------------------ responses

/// Encode a response payload (opcode + body, unframed).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut buf = Vec::new();
    match resp {
        Response::HelloOk {
            session,
            cancel_key,
            server,
        } => {
            buf.push(RESP_HELLO_OK);
            put_u64(&mut buf, *session);
            put_u64(&mut buf, *cancel_key);
            put_str(&mut buf, server);
        }
        Response::RowSet(r) => {
            buf.push(RESP_ROWSET);
            put_strs(&mut buf, &r.columns);
            put_rows(&mut buf, &r.rows);
            put_u64(&mut buf, r.affected as u64);
            put_bool(&mut buf, r.complete);
            put_strs(&mut buf, &r.warnings);
            let c = &r.crowd;
            put_u64(&mut buf, c.rounds as u64);
            put_u64(&mut buf, c.tasks_posted);
            put_u64(&mut buf, c.answers_collected);
            put_u64(&mut buf, c.cents_spent);
            put_f64(&mut buf, c.virtual_secs);
            put_u64(&mut buf, c.retries);
            put_u64(&mut buf, c.reposts);
            put_u64(&mut buf, c.duplicates_dropped);
            put_u64(&mut buf, c.post_failures);
            put_u64(&mut buf, c.extend_failures);
            put_u64(&mut buf, c.gave_up);
            put_bool(&mut buf, c.degraded);
        }
        Response::Error { category, message } => {
            buf.push(RESP_ERROR);
            put_str(&mut buf, category);
            put_str(&mut buf, message);
        }
        Response::MetricsText { text } => {
            buf.push(RESP_METRICS);
            put_str(&mut buf, text);
        }
        Response::CancelOk => buf.push(RESP_CANCEL_OK),
        Response::CloseOk => buf.push(RESP_CLOSE_OK),
        Response::SubscribeOk { id, columns } => {
            buf.push(RESP_SUBSCRIBE_OK);
            put_u64(&mut buf, *id);
            put_strs(&mut buf, columns);
        }
        Response::DeltaBatches { id, batches } => {
            buf.push(RESP_DELTA_BATCHES);
            put_u64(&mut buf, *id);
            put_u32(&mut buf, batches.len() as u32);
            for b in batches {
                put_u64(&mut buf, b.revision);
                put_bool(&mut buf, b.snapshot);
                put_rows(&mut buf, &b.added);
                put_rows(&mut buf, &b.removed);
            }
        }
        Response::UnsubscribeOk => buf.push(RESP_UNSUBSCRIBE_OK),
    }
    buf
}

/// Strictly decode a response payload.
pub fn decode_response(payload: &[u8]) -> Result<Response, ProtocolError> {
    let r = &mut Reader::new(payload);
    let resp = match r.u8()? {
        RESP_HELLO_OK => Response::HelloOk {
            session: r.u64()?,
            cancel_key: r.u64()?,
            server: get_str(r)?,
        },
        // Fields are read in the order they are written.
        RESP_ROWSET => Response::RowSet(QueryResult {
            columns: get_strs(r)?,
            rows: get_rows(r)?,
            affected: get_usize(r)?,
            complete: r.bool()?,
            warnings: get_strs(r)?,
            crowd: CrowdSummary {
                rounds: get_usize(r)?,
                tasks_posted: r.u64()?,
                answers_collected: r.u64()?,
                cents_spent: r.u64()?,
                virtual_secs: r.f64()?,
                retries: r.u64()?,
                reposts: r.u64()?,
                duplicates_dropped: r.u64()?,
                post_failures: r.u64()?,
                extend_failures: r.u64()?,
                gave_up: r.u64()?,
                degraded: r.bool()?,
            },
        }),
        RESP_ERROR => Response::Error {
            category: get_str(r)?,
            message: get_str(r)?,
        },
        RESP_METRICS => Response::MetricsText { text: get_str(r)? },
        RESP_CANCEL_OK => Response::CancelOk,
        RESP_CLOSE_OK => Response::CloseOk,
        RESP_SUBSCRIBE_OK => Response::SubscribeOk {
            id: r.u64()?,
            columns: get_strs(r)?,
        },
        RESP_DELTA_BATCHES => {
            let id = r.u64()?;
            // A batch is a revision, a flag and two row counts at least.
            let n = r.count(8 + 1 + 4 + 4)?;
            let mut batches = Vec::with_capacity(n);
            for _ in 0..n {
                batches.push(DeltaBatch {
                    revision: r.u64()?,
                    snapshot: r.bool()?,
                    added: get_rows(r)?,
                    removed: get_rows(r)?,
                });
            }
            Response::DeltaBatches { id, batches }
        }
        RESP_UNSUBSCRIBE_OK => Response::UnsubscribeOk,
        other => return Err(ProtocolError::UnknownOpcode(other)),
    };
    r.finish()?;
    Ok(resp)
}

/// Frame a request for the wire.
pub fn frame_request(req: &Request) -> Vec<u8> {
    codec::frame(&encode_request(req))
}

/// Frame a response for the wire.
pub fn frame_response(resp: &Response) -> Vec<u8> {
    codec::frame(&encode_response(resp))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowddb_common::row;

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Hello {
                tenant: "acme".into(),
                token: "s3cret".into(),
                seed: 42,
            },
            Request::Query {
                sql: "SELECT abstract FROM talk WHERE title = 'CrowdDB'".into(),
            },
            Request::Cancel {
                session: 7,
                key: 0xdead_beef_cafe,
            },
            Request::Close,
            Request::Metrics,
            Request::Subscribe {
                sql: "SUBSCRIBE SELECT title FROM talk WHERE nb_attendees > 100".into(),
            },
            Request::Poll { id: 5, max: 16 },
            Request::Unsubscribe { id: 5 },
        ]
    }

    fn sample_responses() -> Vec<Response> {
        vec![
            Response::HelloOk {
                session: 3,
                cancel_key: 99,
                server: "crowddb 0.1".into(),
            },
            Response::RowSet(QueryResult {
                columns: vec!["title".into(), "n".into()],
                rows: vec![
                    row!["CrowdDB", 120i64],
                    row!["Qurk", crowddb_common::Value::CNull],
                ],
                affected: 0,
                complete: true,
                warnings: vec!["partial-ish".into()],
                crowd: CrowdSummary {
                    rounds: 2,
                    tasks_posted: 3,
                    answers_collected: 3,
                    cents_spent: 3,
                    virtual_secs: 1234.5,
                    retries: 1,
                    reposts: 0,
                    duplicates_dropped: 2,
                    post_failures: 1,
                    extend_failures: 0,
                    gave_up: 0,
                    degraded: false,
                },
            }),
            Response::Error {
                category: "overloaded".into(),
                message: "at capacity".into(),
            },
            Response::MetricsText {
                text: "# TYPE x counter\nx 1\n".into(),
            },
            Response::CancelOk,
            Response::CloseOk,
            Response::SubscribeOk {
                id: 5,
                columns: vec!["title".into(), "n".into()],
            },
            Response::DeltaBatches {
                id: 5,
                batches: vec![
                    DeltaBatch {
                        revision: 1,
                        snapshot: true,
                        added: vec![row!["CrowdDB", 120i64]],
                        removed: vec![],
                    },
                    DeltaBatch {
                        revision: 2,
                        snapshot: false,
                        added: vec![row!["Qurk", 3i64]],
                        removed: vec![row!["CrowdDB", 120i64]],
                    },
                ],
            },
            Response::UnsubscribeOk,
        ]
    }

    #[test]
    fn request_round_trip() {
        for req in sample_requests() {
            let payload = encode_request(&req);
            assert_eq!(decode_request(&payload).unwrap(), req);
        }
    }

    #[test]
    fn response_round_trip() {
        for resp in sample_responses() {
            let payload = encode_response(&resp);
            assert_eq!(decode_response(&payload).unwrap(), resp);
        }
    }

    #[test]
    fn framed_round_trip_via_reader() {
        let req = Request::Query {
            sql: "SELECT 1".into(),
        };
        let image = frame_request(&req);
        let mut cursor = std::io::Cursor::new(image);
        let payload = read_frame(&mut cursor).unwrap();
        assert_eq!(decode_request(&payload).unwrap(), req);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(ProtocolError::Closed)
        ));
    }

    /// The decode path over a byte slice: `image` must be exactly one
    /// intact frame.
    fn open(image: &[u8]) -> Result<&[u8], ProtocolError> {
        let (payload, used) = codec::unframe(image, MAX_FRAME)?;
        match image.len() - used {
            0 => Ok(payload),
            extra => Err(ProtocolError::TrailingBytes(extra)),
        }
    }

    /// The WAL-style corruption sweep: every single-byte corruption of a
    /// framed request is rejected with a typed error — by the frame
    /// validator (length/CRC) or by the strict decoder — and never
    /// panics or yields a different valid message.
    #[test]
    fn every_single_byte_corruption_is_rejected() {
        for req in sample_requests() {
            for (what, bad) in codec::corruptions(&frame_request(&req)) {
                let outcome = open(&bad).and_then(decode_request);
                assert!(
                    outcome.is_err(),
                    "{what} of {req:?} was not rejected: {outcome:?}"
                );
            }
        }
    }

    /// Same sweep for responses (a hostile server must not confuse the
    /// client either).
    #[test]
    fn response_corruption_is_rejected() {
        for resp in sample_responses() {
            for (what, bad) in codec::corruptions(&frame_response(&resp)) {
                let outcome = open(&bad).and_then(decode_response);
                assert!(outcome.is_err(), "{what} of {resp:?} was not rejected");
            }
        }
    }

    /// Truncation at every offset is detected as such, mirroring the WAL
    /// torn-tail sweep.
    #[test]
    fn truncation_at_every_offset_is_rejected() {
        let image = frame_request(&Request::Hello {
            tenant: "t".into(),
            token: "k".into(),
            seed: 9,
        });
        for (what, bad) in codec::corruptions(&image) {
            if bad.len() < image.len() {
                assert!(
                    matches!(open(&bad), Err(ProtocolError::Truncated(_))),
                    "{what}"
                );
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut payload = encode_request(&Request::Close);
        payload.push(0);
        assert_eq!(
            decode_request(&payload),
            Err(ProtocolError::TrailingBytes(1))
        );
    }

    #[test]
    fn unknown_opcode_is_typed() {
        assert_eq!(
            decode_request(&[0x7f]),
            Err(ProtocolError::UnknownOpcode(0x7f))
        );
    }

    #[test]
    fn poisoning_classification() {
        assert!(ProtocolError::CrcMismatch.poisons_stream());
        assert!(ProtocolError::Truncated("x").poisons_stream());
        assert!(!ProtocolError::UnknownOpcode(0).poisons_stream());
        assert!(!ProtocolError::TrailingBytes(1).poisons_stream());
        assert!(!ProtocolError::OversizedPayload(0).poisons_stream());
    }

    /// An oversized payload must fail typed *before* framing: nothing is
    /// written (the stream stays framed) and the error does not poison
    /// it, so a server can answer with a regular `Error` response
    /// instead of silently killing the connection.
    #[test]
    fn oversized_payload_is_rejected_before_any_byte_is_written() {
        let mut out = Vec::new();
        let big = vec![0u8; MAX_FRAME as usize + 1];
        assert_eq!(
            write_frame(&mut out, &big),
            Err(ProtocolError::OversizedPayload(MAX_FRAME as usize + 1))
        );
        assert_eq!(
            write_frame(&mut out, &[]),
            Err(ProtocolError::OversizedPayload(0))
        );
        assert!(out.is_empty(), "no partial frame may reach the wire");
        // The stream is still usable for a normal-sized frame.
        write_frame(&mut out, &encode_request(&Request::Close)).unwrap();
        let mut cursor = std::io::Cursor::new(out);
        let payload = read_frame(&mut cursor).unwrap();
        assert_eq!(decode_request(&payload).unwrap(), Request::Close);
    }
}
