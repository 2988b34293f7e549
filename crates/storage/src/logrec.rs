//! Write-ahead-log records.
//!
//! A [`LogRecord`] describes one committed, replayable effect. The
//! durability subsystem (`crowddb-wal`) frames encoded records with a
//! length + CRC header and appends them to the log; recovery decodes the
//! surviving prefix and replays it — storage-level records through
//! [`Database::apply`](crate::Database::apply), engine-level records
//! (logical DML, comparison-cache verdicts) through the `CrowdDB` facade.
//!
//! The encoding is built entirely on [`crowddb_common::codec`]: a tag
//! byte, then every field as a tagged [`Value`] or a [`Row`], so the log
//! inherits the codec's self-description and its truncation safety.

use std::fmt::Display;

use crowddb_common::codec::{self, Reader};
use crowddb_common::{CrowdError, Result, Row, TupleId, Value};

const TAG_DDL: u8 = 1;
const TAG_DML: u8 = 2;
const TAG_WRITE_BACK_VALUE: u8 = 3;
const TAG_WRITE_BACK_TUPLE: u8 = 4;
const TAG_PUT_EQUAL: u8 = 5;
const TAG_PUT_ORDER: u8 = 6;

/// One replayable effect, in commit order.
#[derive(Debug, Clone, PartialEq)]
pub enum LogRecord {
    /// A committed DDL statement in canonical form (`CREATE TABLE ...`,
    /// `CREATE INDEX ...`, `DROP TABLE ...`). Applied by storage.
    Ddl {
        /// Canonical SQL text of the statement.
        sql: String,
    },
    /// A committed DML statement in canonical form. Replayed logically by
    /// the engine: given the same prior state and comparison caches
    /// (guaranteed by log order), re-execution is deterministic and
    /// reproduces the identical mutation — including tuple ids.
    Dml {
        /// Canonical SQL text of the statement.
        sql: String,
    },
    /// A crowd answer written back into a `CNULL` cell — the value the
    /// crowd was paid for. Logged by the task manager as soon as the vote
    /// decides, so a crash never re-buys a decided answer.
    WriteBackValue {
        /// Table holding the tuple.
        table: String,
        /// Tuple id (stable across snapshots — see
        /// [`HeapTable::insert_rows`](crate::HeapTable::insert_rows)).
        tid: TupleId,
        /// Column ordinal.
        col: usize,
        /// The accepted value.
        value: Value,
    },
    /// A crowdsourced tuple inserted into a CROWD table.
    WriteBackTuple {
        /// Target CROWD table.
        table: String,
        /// The contributed row (preset + answered + CNULL fills).
        row: Row,
    },
    /// A `CROWDEQUAL` verdict for the session comparison cache.
    PutEqual {
        /// Left operand.
        left: String,
        /// Right operand.
        right: String,
        /// The instruction shown to workers (part of the cache key).
        instruction: String,
        /// Whether the crowd judged the operands equal.
        verdict: bool,
    },
    /// A `CROWDORDER` verdict for the session comparison cache.
    PutOrder {
        /// Left operand.
        left: String,
        /// Right operand.
        right: String,
        /// The instruction shown to workers (part of the cache key).
        instruction: String,
        /// Whether the crowd preferred the left operand.
        left_preferred: bool,
    },
}

impl LogRecord {
    /// Short name for diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            LogRecord::Ddl { .. } => "ddl",
            LogRecord::Dml { .. } => "dml",
            LogRecord::WriteBackValue { .. } => "write-back-value",
            LogRecord::WriteBackTuple { .. } => "write-back-tuple",
            LogRecord::PutEqual { .. } => "put-equal",
            LogRecord::PutOrder { .. } => "put-order",
        }
    }

    /// Encode this record into a standalone buffer (no framing — the log
    /// layer adds length + CRC).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            LogRecord::Ddl { sql } => {
                buf.push(TAG_DDL);
                put_str(&mut buf, sql);
            }
            LogRecord::Dml { sql } => {
                buf.push(TAG_DML);
                put_str(&mut buf, sql);
            }
            LogRecord::WriteBackValue {
                table,
                tid,
                col,
                value,
            } => {
                buf.push(TAG_WRITE_BACK_VALUE);
                put_str(&mut buf, table);
                codec::encode_value(&mut buf, &Value::Int(tid.0 as i64));
                codec::encode_value(&mut buf, &Value::Int(*col as i64));
                codec::encode_value(&mut buf, value);
            }
            LogRecord::WriteBackTuple { table, row } => {
                buf.push(TAG_WRITE_BACK_TUPLE);
                put_str(&mut buf, table);
                codec::encode_row(&mut buf, row);
            }
            LogRecord::PutEqual {
                left,
                right,
                instruction,
                verdict,
            } => {
                buf.push(TAG_PUT_EQUAL);
                put_str(&mut buf, left);
                put_str(&mut buf, right);
                put_str(&mut buf, instruction);
                codec::encode_value(&mut buf, &Value::Bool(*verdict));
            }
            LogRecord::PutOrder {
                left,
                right,
                instruction,
                left_preferred,
            } => {
                buf.push(TAG_PUT_ORDER);
                put_str(&mut buf, left);
                put_str(&mut buf, right);
                put_str(&mut buf, instruction);
                codec::encode_value(&mut buf, &Value::Bool(*left_preferred));
            }
        }
        buf
    }

    /// Decode a record written by [`LogRecord::encode`]. The whole buffer
    /// must be consumed; trailing bytes are corruption.
    pub fn decode(buf: &[u8]) -> Result<LogRecord> {
        let r = &mut Reader::new(buf);
        let rec = match r.u8().map_err(|_| bad("empty payload"))? {
            TAG_DDL => LogRecord::Ddl { sql: get_str(r)? },
            TAG_DML => LogRecord::Dml { sql: get_str(r)? },
            TAG_WRITE_BACK_VALUE => LogRecord::WriteBackValue {
                table: get_str(r)?,
                tid: TupleId(get_int(r)? as u64),
                col: get_int(r)? as usize,
                value: codec::decode_value(r).map_err(bad)?,
            },
            TAG_WRITE_BACK_TUPLE => LogRecord::WriteBackTuple {
                table: get_str(r)?,
                row: codec::decode_row(r).map_err(bad)?,
            },
            TAG_PUT_EQUAL => LogRecord::PutEqual {
                left: get_str(r)?,
                right: get_str(r)?,
                instruction: get_str(r)?,
                verdict: get_bool(r)?,
            },
            TAG_PUT_ORDER => LogRecord::PutOrder {
                left: get_str(r)?,
                right: get_str(r)?,
                instruction: get_str(r)?,
                left_preferred: get_bool(r)?,
            },
            other => return Err(bad(format!("unknown tag {other}"))),
        };
        r.finish()
            .map_err(|e| bad(format!("{e} after {} record", rec.kind())))?;
        Ok(rec)
    }
}

/// Every way a log record fails to decode is a durability (`io`) error.
fn bad(why: impl Display) -> CrowdError {
    CrowdError::Io(format!("log record: {why}"))
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    codec::encode_value(buf, &Value::Str(s.to_string()));
}

fn get_str(r: &mut Reader<'_>) -> Result<String> {
    match codec::decode_value(r).map_err(bad)? {
        Value::Str(s) => Ok(s),
        other => Err(bad(format!("expected string, got {other:?}"))),
    }
}

fn get_int(r: &mut Reader<'_>) -> Result<i64> {
    match codec::decode_value(r).map_err(bad)? {
        Value::Int(i) => Ok(i),
        other => Err(bad(format!("expected integer, got {other:?}"))),
    }
}

fn get_bool(r: &mut Reader<'_>) -> Result<bool> {
    match codec::decode_value(r).map_err(bad)? {
        Value::Bool(b) => Ok(b),
        other => Err(bad(format!("expected boolean, got {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowddb_common::row;

    fn all_records() -> Vec<LogRecord> {
        vec![
            LogRecord::Ddl {
                sql: "CREATE TABLE t (a INTEGER)".into(),
            },
            LogRecord::Dml {
                sql: "INSERT INTO t VALUES (1)".into(),
            },
            LogRecord::WriteBackValue {
                table: "talk".into(),
                tid: TupleId(7),
                col: 2,
                value: Value::str("an abstract"),
            },
            LogRecord::WriteBackTuple {
                table: "notableattendee".into(),
                row: row!["Mike Franklin", Value::CNull, 3i64, true, 2.5f64],
            },
            LogRecord::PutEqual {
                left: "I.B.M.".into(),
                right: "IBM".into(),
                instruction: "same entity?".into(),
                verdict: true,
            },
            LogRecord::PutOrder {
                left: "sunset".into(),
                right: "fog".into(),
                instruction: "better picture?".into(),
                left_preferred: false,
            },
        ]
    }

    #[test]
    fn every_variant_round_trips() {
        for rec in all_records() {
            assert_eq!(LogRecord::decode(&rec.encode()).unwrap(), rec);
        }
    }

    /// Every proper prefix and a one-byte extension are typed `io`
    /// errors; a flipped byte is an error or a different record, never a
    /// panic.
    #[test]
    fn truncated_records_error_not_panic() {
        for rec in all_records() {
            let bytes = rec.encode();
            for (what, bad) in codec::corruptions(&bytes) {
                match LogRecord::decode(&bad) {
                    Err(e) => assert_eq!(e.category(), "io", "{}: {what}", rec.kind()),
                    Ok(got) => {
                        assert_eq!(bad.len(), bytes.len(), "{}: {what} decoded", rec.kind());
                        assert_ne!(got, rec, "{}: {what} went unnoticed", rec.kind());
                    }
                }
            }
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = all_records()[0].encode();
        bytes.push(0);
        assert!(LogRecord::decode(&bytes).is_err());
    }

    #[test]
    fn unknown_tag_rejected() {
        assert!(LogRecord::decode(&[99]).is_err());
        assert!(LogRecord::decode(&[]).is_err());
    }
}
