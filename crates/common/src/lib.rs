//! # crowddb-common
//!
//! Shared foundational types for the CrowdDB workspace.
//!
//! This crate defines the value model (including the `CNULL` marker that
//! CrowdSQL adds to every SQL type), the schema model (including `CROWD`
//! columns and `CROWD` tables), rows, identifiers, the common error type
//! used across all CrowdDB crates, [`codec`] — the one binary codec
//! (reader, writers, frames, CRC-32, `Value`/`Row` encoding) every
//! on-disk and on-wire format is written in — and the two things the
//! workspace would otherwise take from a registry: [`rng`], the one seeded
//! generator, and [`sync`], the locks.
//!
//! The design follows the VLDB 2011 demo paper "CrowdDB: Query Processing
//! with the VLDB Crowd": `CNULL` indicates that a value *should be
//! crowdsourced when it is first used*, which is distinct from SQL `NULL`
//! ("known to be missing / inapplicable").

#![forbid(unsafe_code)]

pub mod codec;
pub mod error;
pub mod ids;
pub mod rng;
pub mod row;
pub mod schema;
pub mod sync;
pub mod truth;
pub mod types;
pub mod value;

pub use error::{CancelReason, CrowdError, Result};
pub use ids::{ColumnId, TableId, TupleId};
pub use row::Row;
pub use schema::{ColumnDef, ForeignKey, TableSchema};
pub use truth::Truth;
pub use types::DataType;
pub use value::Value;
