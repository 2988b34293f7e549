//! Cursors: streaming row access over a table's primary B-tree.
//!
//! A cursor borrows the table (and through it the pager), so it lives
//! inside a `Database::with_table` closure; callers that need rows past
//! the closure materialize exactly the prefix they consume. Each row is
//! decoded straight from the leaf page the B-tree cursor keeps pinned —
//! the decoded [`Row`] is the only copy made of a stored value.
//!
//! The executor's `ScanOp` still takes a whole table at once through
//! [`HeapTable::scan_rows`](crate::table::HeapTable::scan_rows), which
//! is [`TableCursor::collect_rows`] run under the database lock; index
//! backfill is the caller that streams.

use crowddb_common::codec::{self, Reader};
use crowddb_common::{CrowdError, Result, Row, TupleId};

use crate::btree::BTreeCursor;
use crate::pager::Pager;

/// Forward scan over a table's live rows in tuple-id (insertion) order.
#[derive(Debug)]
pub struct TableCursor<'a> {
    pager: &'a Pager,
    inner: BTreeCursor,
}

impl<'a> TableCursor<'a> {
    pub(crate) fn new(pager: &'a Pager, inner: BTreeCursor) -> TableCursor<'a> {
        TableCursor { pager, inner }
    }

    /// The next live row, or `None` at the end of the table. Not an
    /// `Iterator`: page reads can fail, and `Result<Option<_>>` keeps
    /// that explicit at every call site.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<(TupleId, Row)>> {
        match self.inner.next(self.pager)? {
            None => Ok(None),
            Some((key, val)) => {
                let tid = decode_tid_key(key)?;
                let row = codec::decode_row(&mut Reader::new(&val))?;
                Ok(Some((tid, row)))
            }
        }
    }

    /// Drain the cursor into a vector (the compatibility path for
    /// callers that still want full materialization).
    pub fn collect_rows(mut self) -> Result<Vec<(TupleId, Row)>> {
        let mut out = Vec::new();
        while let Some(pair) = self.next()? {
            out.push(pair);
        }
        Ok(out)
    }
}

/// Encode a tuple id as a primary-tree key (big-endian: byte order is
/// numeric order, so `KeyCmp::Bytes` scans in insertion order).
pub(crate) fn encode_tid_key(tid: TupleId) -> [u8; 8] {
    tid.0.to_be_bytes()
}

pub(crate) fn decode_tid_key(key: &[u8]) -> Result<TupleId> {
    let bytes: [u8; 8] = key
        .try_into()
        .map_err(|_| CrowdError::Internal("table: primary key is not 8 bytes".into()))?;
    Ok(TupleId(u64::from_be_bytes(bytes)))
}
