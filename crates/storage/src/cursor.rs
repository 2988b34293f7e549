//! Cursors: streaming row access over a table's primary B-tree.
//!
//! A cursor borrows the table (and through it the pager), so it lives
//! inside a `Database::with_table` closure — under the database read
//! lock, which whatever consumes the rows must not take again (see
//! `crowddb-exec`'s `ops` module, invariant (ii)). Two ways to read a
//! row: [`TableCursor::next_stored`] lends the encoded bytes straight
//! from the leaf page the B-tree cursor keeps pinned, for a caller that
//! may decide on a partial decode to drop the row; [`TableCursor::next`]
//! decodes them, the decoded [`Row`] being the only copy made of a
//! stored value.
//!
//! The executor's `ScanOp` streams through `next_stored` and stops
//! pulling as soon as its consumer has enough; index backfill streams
//! through `next`. [`HeapTable::scan_rows`](crate::table::HeapTable::scan_rows)
//! — [`TableCursor::collect_rows`] — is what is left of "take the whole
//! table at once": snapshots and tests.

use std::borrow::Cow;

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

    /// The next live row as stored — its tuple id and its
    /// `codec::encode_row` bytes, lent from the pinned leaf until the
    /// next call (owned only when the row lives in an overflow chain) —
    /// or `None` at the end of the table. Not an `Iterator`: page reads
    /// can fail, and `Result<Option<_>>` keeps that explicit at every
    /// call site.
    pub fn next_stored(&mut self) -> Result<Option<(TupleId, Cow<'_, [u8]>)>> {
        match self.inner.next(self.pager)? {
            None => Ok(None),
            Some((key, val)) => Ok(Some((decode_tid_key(key)?, val))),
        }
    }

    /// The next live row, decoded.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<(TupleId, Row)>> {
        match self.next_stored()? {
            None => Ok(None),
            Some((tid, stored)) => {
                let row = codec::decode_row(&mut Reader::new(&stored))?;
                Ok(Some((tid, row)))
            }
        }
    }

    /// Drain the cursor into a vector.
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
