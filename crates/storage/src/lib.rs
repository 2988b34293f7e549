//! # crowddb-storage
//!
//! The CrowdDB storage engine: a paged row store with a catalog, a
//! buffer pool, and B-tree primary and secondary access paths. Rows are
//! stored in the shared binary codec ([`crowddb_common::codec`]).
//!
//! The paper's prototype reused the H2 storage engine; this crate is the
//! equivalent substrate built from scratch. Layers, bottom up:
//!
//! - [`page`] — fixed-size page layout and the page-file header.
//! - [`pool`] — the buffer pool: pinned-while-dirty frames, LRU eviction
//!   of clean frames, hit/miss/eviction counters.
//! - [`pager`] — page allocation, the in-memory and file backends, and
//!   the dirty-page checkpoint journal (crash-safe flushes).
//! - [`btree`] — a paged B-tree with overflow chains; both the primary
//!   store (rows keyed by tuple id) and every secondary index are
//!   instances of it.
//! - [`table`] / [`index`] / [`cursor`] — heap tables with constraint
//!   enforcement (primary keys, NOT NULL, types), index maintenance on
//!   every mutation, and streaming cursors.
//! - [`db`] — the [`Database`] facade: catalog + tables behind one lock,
//!   snapshots, and checkpoint orchestration.
//!
//! Everything sourced from the crowd is written back through
//! [`Database`], which is how CrowdDB "memorizes the results sourced from
//! the crowd" (paper §3).

#![forbid(unsafe_code)]

pub mod btree;
pub mod catalog;
pub mod cursor;
pub mod db;
pub mod index;
pub mod logrec;
pub mod page;
pub mod pager;
pub mod pool;
pub mod table;

pub use catalog::Catalog;
pub use cursor::TableCursor;
pub use db::Database;
pub use index::{decode_index_entry, encode_index_entry, Index, IndexKey};
pub use logrec::LogRecord;
pub use pager::{CheckpointPrep, Pager, PagerConfig};
pub use pool::PagerStats;
pub use table::{HeapTable, TableStats};
