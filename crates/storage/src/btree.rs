//! A paged B-tree mapping byte-string keys to byte-string values.
//!
//! One tree backs each table's primary storage (key = `TupleId` as
//! big-endian bytes, value = the codec-encoded row) and each secondary
//! index entry set (key = encoded index values ‖ tid, empty value).
//! Values larger than `page_size / 8` spill to overflow-page chains; keys
//! are capped at `page_size / 4` (a typed [`CrowdError::Constraint`]
//! otherwise) so a node always holds at least two entries and splits
//! terminate.
//!
//! **Reads run on the page, and an image is parsed once.** A visit reads
//! the page through a `NodeView`: the pinned [`Page`] the pager handed
//! out, whose layout — where each key starts, every length
//! bounds-checked in one pass — the image keeps from its first parse on,
//! at 4 bytes per key of a resident node page. A write wraps a fresh
//! image, so a layout never needs invalidating. `get`, `cursor_seek`, the
//! cursor's climb and the descent of a write binary-search keys where
//! they lie. The cursor lends: its `next` hands out slices of the pinned
//! leaf, and only a value that lives in an overflow chain is assembled
//! into an owned buffer.
//!
//! **Writes come in runs.** [`BTree::insert_sorted`] is the one way in: a
//! [`Run`] of entries in key order, a single row being a run of one. A
//! node is visited once per run, however many of its entries land in it:
//! a leaf is merged with its whole part of the run into one image — the
//! bytes between two run entries copied as they lie — and an ancestor
//! absorbs all its children's splits the same way; `remove` splices its
//! one entry out. Every page the run touches is written once, with
//! exactly the image a whole-node encoder gives its contents (a page
//! image stays a function of the node's contents; the byte-identity
//! suites lean on that, and the test module holds every write to
//! `encode_node`).
//!
//! **A split cuts by bytes.** An image that outgrew its page is cut at
//! the entry boundary nearest its byte midpoint, so either half is at
//! most half a page plus one entry whatever the entries' sizes, and the
//! halves are cut again until each fits. The one exception is what a
//! run appends at the tree's right edge: once the entries before it fit
//! a page, a page keeps as many entries as fit and the rest move on.
//! Whoever fills a tree in key order — every primary tree, tuple ids only
//! ascend — will not come back to the left page, so it stays full
//! instead of half empty, and a key-ordered load leaves the same entries
//! in each node whether its rows came one at a time or in runs.
//!
//! The tree is split-only: `remove` deletes from the leaf without
//! rebalancing, which keeps the structure a deterministic function of the
//! operation sequence (no merge heuristics) at the cost of slack after
//! heavy deletion — acceptable for CrowdDB's insert-mostly crowd tables.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::ops::Range;
use std::sync::Arc;

use crowddb_common::codec::{self, Reader};
use crowddb_common::{CrowdError, Result};

use crate::page::{kind, Page, PageId};
use crate::pager::Pager;

/// How encoded keys of a tree compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyCmp {
    /// Plain memcmp. Primary trees use this: `TupleId` encoded big-endian
    /// makes byte order coincide with numeric order.
    Bytes,
    /// Index-entry order: the key is codec-encoded `Value`s followed by
    /// an 8-byte big-endian tid — every compared key must carry the tid
    /// suffix (seek targets use tid 0). Values compare by
    /// `Value::sort_cmp` component-wise (missing values first), shorter
    /// value lists first, ties broken by tid.
    IndexEntry,
}

impl KeyCmp {
    pub fn cmp(&self, a: &[u8], b: &[u8]) -> Ordering {
        match self {
            KeyCmp::Bytes => a.cmp(b),
            KeyCmp::IndexEntry => cmp_index_entries(a, b),
        }
    }
}

/// Compare two index-entry keys (encoded values ‖ 8-byte tid).
fn cmp_index_entries(a: &[u8], b: &[u8]) -> Ordering {
    let (av, atid) = split_index_entry(a);
    let (bv, btid) = split_index_entry(b);
    cmp_encoded_value_lists(av, bv)
        .unwrap_or_else(|| a.cmp(b))
        .then_with(|| atid.cmp(btid))
}

/// Whether two index-entry keys hold equal values under the entry order,
/// their tids aside: the entries a unique index may not hold both of.
pub(crate) fn same_index_values(a: &[u8], b: &[u8]) -> bool {
    let ((av, _), (bv, _)) = (split_index_entry(a), split_index_entry(b));
    cmp_encoded_value_lists(av, bv) == Some(Ordering::Equal)
}

/// Two lists of encoded values, component-wise by `Value::sort_cmp`,
/// shorter lists first; `None` on bytes that are not encoded values.
fn cmp_encoded_value_lists(a: &[u8], b: &[u8]) -> Option<Ordering> {
    let (mut ar, mut br) = (Reader::new(a), Reader::new(b));
    loop {
        match (ar.is_empty(), br.is_empty()) {
            (true, true) => return Some(Ordering::Equal),
            (true, false) => return Some(Ordering::Less),
            (false, true) => return Some(Ordering::Greater),
            (false, false) => {}
        }
        // Values compare straight from the page bytes, no allocation.
        match codec::cmp_encoded_values(&mut ar, &mut br) {
            Ok(Ordering::Equal) => continue,
            Ok(other) => return Some(other),
            // Unreachable for keys this module encoded; the caller falls
            // back to a total order rather than panic on foreign bytes.
            Err(_) => return None,
        }
    }
}

/// Split an index-entry key into (encoded values, tid bytes).
fn split_index_entry(k: &[u8]) -> (&[u8], &[u8]) {
    if k.len() < 8 {
        (k, &[])
    } else {
        k.split_at(k.len() - 8)
    }
}

/// Largest key accepted by [`BTree::insert_sorted`].
pub fn max_key_len(page_size: usize) -> usize {
    page_size / 4
}

/// A typed [`CrowdError::Constraint`] for a key longer than
/// [`max_key_len`]: checked for a whole run before it writes anything,
/// and by a table for every key of a statement before any tree is.
pub(crate) fn check_key_len(len: usize, page_size: usize) -> Result<()> {
    if len > max_key_len(page_size) {
        return Err(CrowdError::Constraint(format!(
            "index key of {len} bytes exceeds the {}-byte limit for page size {page_size}",
            max_key_len(page_size)
        )));
    }
    Ok(())
}

/// Largest value stored inline in a leaf; longer values spill to
/// overflow chains.
fn max_inline_val(page_size: usize) -> usize {
    page_size / 8
}

/// A leaf value as the page stores it: the bytes themselves, lent by the
/// page (owned, `B = Vec<u8>`, only in the test module's decoded nodes),
/// or the head of an overflow chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Val<B> {
    Inline(B),
    Overflow { first: PageId, total_len: u64 },
}

const OVERFLOW_FLAG: u32 = 1 << 31;

// Page layout, little-endian, zero-padded to the page size:
//   leaf:     [kind][u16 n] n × ([u16 klen][u32 vword][key][value])
//             value = vword bytes inline, or — OVERFLOW_FLAG set in vword —
//             [u64 first overflow page][u64 total_len]
//   internal: [kind][u16 n][u64 child 0] n × ([u16 klen][key][u64 child])
// `node_page` and `NodeView::splice` write it; `NodeView::parse` is the one
// place that reads it.

/// A node's page: its kind, its entry count, `body` — everything after
/// the count — and zeros to the page end.
fn node_page(kind: u8, n: usize, body: &[u8], page_size: usize) -> Result<Vec<u8>> {
    if 3 + body.len() > page_size {
        return Err(CrowdError::Internal(format!(
            "btree: a node of {} bytes does not fit the {page_size}-byte page",
            3 + body.len()
        )));
    }
    let mut page = Vec::with_capacity(page_size);
    page.push(kind);
    page.extend_from_slice(&(n as u16).to_le_bytes());
    page.extend_from_slice(body);
    page.resize(page_size, 0);
    Ok(page)
}

/// The `N` bytes at `off`, which [`NodeView::parse`] has bounds-checked.
fn bytes_at<const N: usize>(data: &[u8], off: usize) -> [u8; N] {
    data[off..off + N]
        .try_into()
        .expect("a slice of N bytes is an [u8; N]")
}

/// A node read in place: the page as the pager pinned it, and the
/// layout the image keeps — where each key starts in it. The first
/// [`NodeView::parse`] of an image walks it once and checks every length
/// against its end, so the accessors index without failing and a read
/// copies nothing; a write takes its one copy of the image through
/// [`NodeView::splice`].
#[derive(Debug)]
struct NodeView {
    page: Arc<Page>,
    leaf: bool,
}

impl NodeView {
    /// The node `page` holds: its layout as the image keeps it, or as
    /// [`key_ranges`] finds it now — and the image keeps from then on.
    fn parse(page: Arc<Page>) -> Result<NodeView> {
        page.layout_or(key_ranges)?;
        let leaf = page[0] == kind::LEAF;
        Ok(NodeView { page, leaf })
    }

    /// Where each leaf entry's, or each internal separator's, key starts,
    /// in key order. What belongs to a key sits around it: its length in
    /// the entry's first two bytes, a leaf entry's `vword` in the four
    /// bytes before the key and its value right after; a separator's
    /// right-hand child right after.
    fn keys(&self) -> &[u32] {
        self.page.layout().expect("a parsed image keeps its layout")
    }

    /// `start..end` of key `i`.
    fn key_range(&self, i: usize) -> (usize, usize) {
        key_span(&self.page, self.leaf, self.keys()[i])
    }

    /// Entries of a leaf; separator keys of an internal node (which has
    /// one more child than that).
    fn len(&self) -> usize {
        self.keys().len()
    }

    fn key(&self, i: usize) -> &[u8] {
        let (start, end) = self.key_range(i);
        &self.page[start..end]
    }

    /// The `vword` of leaf entry `i`: its value's length, or
    /// [`OVERFLOW_FLAG`] and the length of a chain reference.
    fn vword(&self, i: usize) -> u32 {
        debug_assert!(self.leaf);
        u32::from_le_bytes(bytes_at(&self.page, self.keys()[i] as usize - 4))
    }

    /// The value of leaf entry `i`.
    fn val(&self, i: usize) -> Val<&[u8]> {
        let (_, val) = self.key_range(i);
        let vword = self.vword(i);
        if vword & OVERFLOW_FLAG != 0 {
            Val::Overflow {
                first: u64::from_le_bytes(bytes_at(&self.page, val)),
                total_len: u64::from_le_bytes(bytes_at(&self.page, val + 8)),
            }
        } else {
            Val::Inline(&self.page[val..val + vword as usize])
        }
    }

    /// Child `i` of an internal node, `0..=len()`.
    fn child(&self, i: usize) -> PageId {
        debug_assert!(!self.leaf);
        let off = match i.checked_sub(1) {
            None => 3,
            Some(separator) => self.key_range(separator).1,
        };
        u64::from_le_bytes(bytes_at(&self.page, off))
    }

    /// How many keys, from the front, `before` holds for.
    fn partition(&self, before: impl Fn(&[u8]) -> bool) -> usize {
        let page: &[u8] = &self.page;
        self.keys().partition_point(|&start| {
            let (start, end) = key_span(page, self.leaf, start);
            before(&page[start..end])
        })
    }

    /// Index of the first leaf entry whose key is not below `key`.
    fn lower_bound(&self, cmp: KeyCmp, key: &[u8]) -> usize {
        self.partition(|k| cmp.cmp(k, key) == Ordering::Less)
    }

    /// Index of the leaf entry holding exactly `key`.
    fn find(&self, cmp: KeyCmp, key: &[u8]) -> Option<usize> {
        let pos = self.lower_bound(cmp, key);
        (pos < self.len() && cmp.cmp(self.key(pos), key) == Ordering::Equal).then_some(pos)
    }

    /// Index of the child whose subtree covers `key`.
    fn child_for(&self, cmp: KeyCmp, key: &[u8]) -> usize {
        self.partition(|k| cmp.cmp(k, key) != Ordering::Greater)
    }

    /// The bytes of entry `i`: a leaf's `[klen][vword][key][value]`, an
    /// internal node's `[klen][key][child]`.
    fn entry(&self, i: usize) -> Range<usize> {
        let (key, key_end) = self.key_range(i);
        if self.leaf {
            // After the key: the value, or a chain's page and length.
            let stored = match self.vword(i) {
                chain if chain & OVERFLOW_FLAG != 0 => 16,
                inline => inline as usize,
            };
            key - 6..key_end + stored
        } else {
            key - 2..key_end + 8
        }
    }

    /// Where entry `i` starts — for `i == len()`, where one appended
    /// would: the end of the node's used bytes, zeros from there on.
    fn entry_start(&self, i: usize) -> usize {
        match i.checked_sub(1) {
            Some(before) => self.entry(before).end,
            // Kind and count, and an internal node's leftmost child.
            None if self.leaf => 3,
            None => 11,
        }
    }

    /// The node's image with the bytes `at` replaced by `entry` and the
    /// count set to `n`, up to its last used byte: one copy, the gap
    /// opened or closed on the way, no padding — and longer than a page
    /// when the edit does not fit one.
    fn splice(&self, at: Range<usize>, entry: [&[u8]; 3], n: usize) -> Vec<u8> {
        let used = self.entry_start(self.len());
        let grown = used - at.len() + entry.iter().map(|part| part.len()).sum::<usize>();
        let mut image = Vec::with_capacity(grown.max(self.page.len()));
        image.extend_from_slice(&self.page[..at.start]);
        for part in entry {
            image.extend_from_slice(part);
        }
        image.extend_from_slice(&self.page[at.end..used]);
        image[1..3].copy_from_slice(&(n as u16).to_le_bytes());
        image
    }

    /// The page a node of entries `range` takes: kind, count, an internal
    /// node's leftmost child — the one after the entry before the range,
    /// or the node's own — and the entries.
    fn piece_len(&self, range: Range<usize>) -> usize {
        let child = if self.leaf { 0 } else { 8 };
        3 + child + self.entry_start(range.end) - self.entry_start(range.start)
    }

    /// Cut entries `lo..hi` of an image longer than a page into pieces
    /// that each fit one, pushed to `pieces` in key order. An internal
    /// node's cut entry moves up, so it lies between two pieces, in
    /// neither. Entries from `appended` on sort after everything else in
    /// the tree.
    ///
    /// Once what is left of the not-appended entries fits a page, the
    /// piece keeps as many entries as fit and the rest move on: whoever
    /// fills a tree in key order never comes back to the left page, so
    /// it stays full instead of half empty (an internal node keeps one
    /// fewer, the one that moves up). Anything else is cut at the entry
    /// lying across the byte midpoint of the entries not appended, so
    /// neither half exceeds half of them plus that one entry whatever
    /// the entries' sizes — a cut by entry count could leave a few long
    /// entries no page holds.
    fn cut(
        &self,
        mut lo: usize,
        hi: usize,
        appended: usize,
        page_size: usize,
        pieces: &mut Vec<Range<usize>>,
    ) {
        let moves_up = usize::from(!self.leaf);
        loop {
            if self.piece_len(lo..hi) <= page_size {
                pieces.push(lo..hi);
                return;
            }
            let tail = appended.clamp(lo, hi);
            let cut = if self.piece_len(lo..tail) <= page_size {
                let cut = (self.fitting(lo, hi, page_size) - moves_up).max(lo + 1);
                pieces.push(lo..cut);
                cut
            } else {
                let cut = self.midpoint(lo, tail);
                self.cut(lo, cut, cut, page_size, pieces);
                cut
            };
            lo = cut + moves_up;
        }
    }

    /// The largest `end` below `hi` for which entries `lo..end` fit a
    /// page, found by bisection over where the entries start.
    fn fitting(&self, lo: usize, hi: usize, page_size: usize) -> usize {
        let head = if self.leaf { 6 } else { 2 };
        let (start, room) = (self.entry_start(lo), page_size - self.piece_len(lo..lo));
        let fit =
            self.keys()[lo + 1..hi].partition_point(|&key| key as usize - head - start <= room);
        lo + fit.max(1)
    }

    /// Where entries `lo..hi` are cut by bytes: at the entry lying across
    /// their byte midpoint — of a leaf its nearer edge, of an internal
    /// node the entry itself, which moves up.
    fn midpoint(&self, lo: usize, hi: usize) -> usize {
        let head = if self.leaf { 6 } else { 2 };
        let half = (self.entry_start(lo) + self.entry_start(hi)) / 2;
        let mid = lo + self.keys()[lo..hi].partition_point(|&key| key as usize - head <= half) - 1;
        let entry = self.entry(mid);
        let after = self.leaf && entry.end - half < half - entry.start;
        (mid + usize::from(after)).min(hi - 1).max(lo + 1)
    }
}

/// Copy entries `range` of `view` to the end of `image`, and where their
/// keys now start to `keys`.
fn copy_entries(view: &NodeView, range: Range<usize>, image: &mut Vec<u8>, keys: &mut Vec<u32>) {
    if range.is_empty() {
        return;
    }
    let (from, to) = (view.entry_start(range.start), image.len());
    image.extend_from_slice(&view.page[from..view.entry_start(range.end)]);
    keys.extend(
        view.keys()[range]
            .iter()
            .map(|&key| (key as usize - from + to) as u32),
    );
}

/// Append separators and the right siblings they lead to an internal
/// node's `image`, and where their keys start to `keys`.
fn push_separators(image: &mut Vec<u8>, keys: &mut Vec<u32>, split: &[(Vec<u8>, PageId)]) {
    for (separator, child) in split {
        image.extend_from_slice(&(separator.len() as u16).to_le_bytes());
        keys.push(image.len() as u32);
        image.extend_from_slice(separator);
        image.extend_from_slice(&child.to_le_bytes());
    }
}

/// Write a node's rebuilt `image` — `keys` says where each key starts,
/// `appended` is the first entry of a tail that sorts after everything
/// else in the tree (`keys.len()`: no such tail) — to `page_id`, cut
/// into as many pages as it needs ([`NodeView::cut`]); the first stays
/// at `page_id`. Returns the separators and the new right siblings.
fn write_node(
    pager: &Pager,
    page_id: PageId,
    mut image: Vec<u8>,
    keys: Vec<u32>,
    leaf: bool,
    appended: usize,
) -> Result<Vec<(Vec<u8>, PageId)>> {
    let page_size = pager.page_size();
    if image.len() <= page_size {
        image[1..3].copy_from_slice(&(keys.len() as u16).to_le_bytes());
        image.resize(page_size, 0);
        // The pool keeps the image: a page's bytes and no more.
        image.shrink_to_fit();
        pager.write(page_id, image)?;
        return Ok(Vec::new());
    }
    let node = NodeView {
        page: Arc::new(Page::with_layout(image, keys)),
        leaf,
    };
    let mut pieces = Vec::new();
    node.cut(0, node.len(), appended, page_size, &mut pieces);
    let mut grown = Vec::with_capacity(pieces.len() - 1);
    for (n, piece) in pieces.into_iter().enumerate() {
        let id = match n {
            0 => page_id,
            _ => pager.allocate(),
        };
        let from = node.entry_start(piece.start) - if leaf { 0 } else { 8 };
        let body = &node.page[from..node.entry_start(piece.end)];
        pager.write(id, node_page(node.page[0], piece.len(), body, page_size)?)?;
        if n > 0 {
            // A leaf's first key, or the internal entry that moved up.
            let separator = piece.start - usize::from(!leaf);
            grown.push((node.key(separator).to_vec(), id));
        }
    }
    Ok(grown)
}

/// `start..end` of the key of a node image that starts at `start`: its
/// length leads the entry, six bytes before a leaf's key and two before
/// a separator.
fn key_span(page: &[u8], leaf: bool, start: u32) -> (usize, usize) {
    let start = start as usize;
    let len = u16::from_le_bytes(bytes_at(page, start - if leaf { 6 } else { 2 }));
    (start, start + len as usize)
}

/// The single pass over a node image: where every key starts, each
/// length checked against the image end. [`NodeView::parse`] is its one
/// caller, and the image keeps what it returns.
fn key_ranges(data: &[u8]) -> Result<Vec<u32>> {
    let corrupt = |what: &str| CrowdError::Internal(format!("btree: corrupt node ({what})"));
    let tag = *data.first().ok_or_else(|| corrupt("empty page"))?;
    // Offsets are kept as `u32`, which reaches any page
    // (`page::check_page_size`); only a spliced image can be longer.
    if u32::try_from(data.len()).is_err() {
        return Err(corrupt("image beyond u32 offsets"));
    }
    let mut off = 3usize;
    let take = |off: &mut usize, n: usize| -> Result<&[u8]> {
        let s = data
            .get(*off..)
            .and_then(|rest| rest.get(..n))
            .ok_or_else(|| corrupt("truncated"))?;
        *off += n;
        Ok(s)
    };
    let take_key = |off: &mut usize, header: usize| -> Result<u32> {
        let header = take(off, header)?;
        let klen = u16::from_le_bytes([header[0], header[1]]) as usize;
        take(off, klen)?;
        Ok((*off - klen) as u32)
    };
    let n = data.get(1..3).ok_or_else(|| corrupt("short"))?;
    let n = u16::from_le_bytes([n[0], n[1]]) as usize;
    // `n` is read from the page: reserve no more than the page can hold
    // (a leaf entry is at least its six header bytes).
    let mut keys = Vec::with_capacity(n.min(data.len() / 6));
    match tag {
        kind::LEAF => {
            for _ in 0..n {
                let key = take_key(&mut off, 6)?;
                let vword = u32::from_le_bytes(bytes_at(data, key as usize - 4));
                if vword & OVERFLOW_FLAG != 0 {
                    take(&mut off, 16)?;
                } else {
                    take(&mut off, vword as usize)?;
                }
                keys.push(key);
            }
        }
        kind::INTERNAL => {
            take(&mut off, 8)?;
            for _ in 0..n {
                keys.push(take_key(&mut off, 2)?);
                take(&mut off, 8)?;
            }
        }
        other => return Err(corrupt(&format!("unexpected page kind {other}"))),
    }
    Ok(keys)
}

/// Write `data` as an overflow chain, returning the first page id.
fn write_overflow(pager: &Pager, data: &[u8]) -> Result<PageId> {
    let cap = pager.page_size() - 13; // kind + next(8) + len(4)
    let chunks: Vec<&[u8]> = if data.is_empty() {
        vec![&[]]
    } else {
        data.chunks(cap).collect()
    };
    let ids: Vec<PageId> = chunks.iter().map(|_| pager.allocate()).collect();
    for (i, chunk) in chunks.iter().enumerate() {
        let next = ids.get(i + 1).copied().unwrap_or(0);
        let mut page = Vec::with_capacity(pager.page_size());
        page.push(kind::OVERFLOW);
        page.extend_from_slice(&next.to_le_bytes());
        page.extend_from_slice(&(chunk.len() as u32).to_le_bytes());
        page.extend_from_slice(chunk);
        page.resize(pager.page_size(), 0);
        pager.write(ids[i], page)?;
    }
    Ok(ids[0])
}

/// A chain of more pages than the pager ever allocated revisits one: a
/// corrupt `next` pointer closed a cycle.
fn chain_cycles(limit: u64) -> CrowdError {
    CrowdError::Internal(format!(
        "btree: overflow chain runs past the {limit} pages allocated"
    ))
}

fn read_overflow(pager: &Pager, first: PageId, total_len: u64) -> Result<Vec<u8>> {
    let limit = pager.page_count();
    // `total_len` is read from the page: reserve no more than the file holds.
    let mut out = Vec::with_capacity(total_len.min(limit * pager.page_size() as u64) as usize);
    let mut next = first;
    let mut pages = 0u64;
    while next != 0 {
        pages += 1;
        if pages > limit {
            return Err(chain_cycles(limit));
        }
        let page = pager.read(next)?;
        if page.first() != Some(&kind::OVERFLOW) || page.len() < 13 {
            return Err(CrowdError::Internal(format!(
                "btree: page {next} is not an overflow page"
            )));
        }
        next = u64::from_le_bytes(page[1..9].try_into().unwrap());
        let len = u32::from_le_bytes(page[9..13].try_into().unwrap()) as usize;
        out.extend_from_slice(page.get(13..13 + len).ok_or_else(|| {
            CrowdError::Internal("btree: overflow chunk length out of range".into())
        })?);
        if out.len() as u64 > total_len {
            break;
        }
    }
    if out.len() as u64 != total_len {
        return Err(CrowdError::Internal(format!(
            "btree: overflow chain length {} != recorded {total_len}",
            out.len()
        )));
    }
    Ok(out)
}

fn free_overflow(pager: &Pager, first: PageId) -> Result<()> {
    let limit = pager.page_count();
    let mut next = first;
    let mut pages = 0u64;
    while next != 0 {
        pages += 1;
        if pages > limit {
            return Err(chain_cycles(limit));
        }
        let page = pager.read(next)?;
        let id = next;
        next = u64::from_le_bytes(
            page.get(1..9)
                .ok_or_else(|| CrowdError::Internal("btree: short overflow page".into()))?
                .try_into()
                .unwrap(),
        );
        pager.free_page(id);
    }
    Ok(())
}

/// A value's bytes: lent by the page, or assembled from its overflow
/// chain — the one case a read copies.
fn resolve<'a>(pager: &Pager, val: Val<&'a [u8]>) -> Result<Cow<'a, [u8]>> {
    match val {
        Val::Inline(bytes) => Ok(Cow::Borrowed(bytes)),
        Val::Overflow { first, total_len } => {
            read_overflow(pager, first, total_len).map(Cow::Owned)
        }
    }
}

/// Walk down from `page_id` to a leaf, taking at each internal node the
/// child `pick` names and handing the node and that child's index to
/// `visit` (cursors keep that path). Returns the leaf and its page id.
fn descend(
    pager: &Pager,
    mut page_id: PageId,
    pick: impl Fn(&NodeView) -> usize,
    mut visit: impl FnMut(NodeView, usize),
) -> Result<(PageId, NodeView)> {
    loop {
        let view = NodeView::parse(pager.read(page_id)?)?;
        if view.leaf {
            return Ok((page_id, view));
        }
        let idx = pick(&view);
        page_id = view.child(idx);
        visit(view, idx);
    }
}

/// Entries for [`BTree::insert_sorted`], packed into one buffer: each
/// key followed by its value, and per entry three offsets into it. An
/// entry costs its bytes and twelve more, never an allocation of its
/// own, so a run of a whole table's index entries is one buffer and one
/// array, and sorting it moves only the offsets.
#[derive(Debug, Default)]
pub struct Run {
    bytes: Vec<u8>,
    /// Per entry: where its key starts, where its value starts (the
    /// key's end), where the value ends.
    spans: Vec<[u32; 3]>,
}

impl Run {
    /// An empty run with room for `entries` entries' offsets.
    pub fn with_capacity(entries: usize) -> Run {
        Run {
            bytes: Vec::new(),
            spans: Vec::with_capacity(entries),
        }
    }

    /// Append an entry: `key` writes its key into the buffer, then
    /// `value` its value.
    pub fn push(&mut self, key: impl FnOnce(&mut Vec<u8>), value: impl FnOnce(&mut Vec<u8>)) {
        let at = |bytes: &Vec<u8>| u32::try_from(bytes.len()).expect("a run holds under 4 GiB");
        let start = at(&self.bytes);
        key(&mut self.bytes);
        let mid = at(&self.bytes);
        value(&mut self.bytes);
        self.spans.push([start, mid, at(&self.bytes)]);
    }

    /// Entries in the run.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the run holds no entry.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The key of entry `i`.
    pub fn key(&self, i: usize) -> &[u8] {
        let [start, mid, _] = self.spans[i];
        &self.bytes[start as usize..mid as usize]
    }

    /// The value of entry `i`.
    pub fn value(&self, i: usize) -> &[u8] {
        let [_, mid, end] = self.spans[i];
        &self.bytes[mid as usize..end as usize]
    }

    /// Put the entries in key order under `cmp`: the bytes stay where
    /// they are, only the offsets move.
    pub fn sort(&mut self, cmp: KeyCmp) {
        let bytes = &self.bytes;
        let key = |&[start, mid, _]: &[u32; 3]| &bytes[start as usize..mid as usize];
        self.spans.sort_unstable_by(|a, b| cmp.cmp(key(a), key(b)));
    }

    /// The first entry of `range` whose key `before` does not hold for,
    /// `before` holding for a prefix of the range.
    fn partition(&self, range: Range<usize>, before: impl Fn(&[u8]) -> bool) -> usize {
        let start = range.start;
        let bytes = &self.bytes;
        start
            + self.spans[range]
                .partition_point(|&[from, mid, _]| before(&bytes[from as usize..mid as usize]))
    }
}

/// A B-tree rooted at a page. The struct is cheap metadata (root id +
/// comparator); all node state lives in the pager.
#[derive(Debug, Clone)]
pub struct BTree {
    root: PageId,
    cmp: KeyCmp,
}

impl BTree {
    /// Allocate an empty tree (a single empty leaf).
    pub fn create(pager: &Pager, cmp: KeyCmp) -> Result<BTree> {
        let root = pager.allocate();
        pager.write(root, node_page(kind::LEAF, 0, &[], pager.page_size())?)?;
        Ok(BTree { root, cmp })
    }

    /// Re-attach to an existing tree by root page id.
    pub fn open(root: PageId, cmp: KeyCmp) -> BTree {
        BTree { root, cmp }
    }

    /// The current root page id (persist this in table metadata).
    pub fn root(&self) -> PageId {
        self.root
    }

    /// Insert a run: every entry of `run`, whose keys must ascend under
    /// the tree's comparator, none twice. A key the tree holds keeps its
    /// stored bytes and takes the run's value (an upsert). Each node the
    /// run reaches is rebuilt once — a leaf merged with its whole part of
    /// the run, an ancestor with all of its children's splits — and each
    /// page is written once. Nothing is written unless every key is
    /// within [`max_key_len`] and the run ascends.
    pub fn insert_sorted(&mut self, pager: &Pager, run: &Run) -> Result<()> {
        let page_size = pager.page_size();
        for i in 0..run.len() {
            check_key_len(run.key(i).len(), page_size)?;
            if i > 0 && self.cmp.cmp(run.key(i - 1), run.key(i)) != Ordering::Less {
                return Err(CrowdError::Internal(
                    "btree: a run's keys must ascend, none twice".into(),
                ));
            }
        }
        if run.is_empty() {
            return Ok(());
        }
        let mut grown = self.insert_run(pager, self.root, run, 0..run.len(), true)?;
        // The root split: a new root above it and its new siblings, each
        // separator appended at the right edge — and split in turn until
        // one node holds them.
        while !grown.is_empty() {
            let mut image = Vec::with_capacity(page_size);
            image.extend_from_slice(&[kind::INTERNAL, 0, 0]);
            image.extend_from_slice(&self.root.to_le_bytes());
            let mut keys = Vec::with_capacity(grown.len());
            push_separators(&mut image, &mut keys, &grown);
            let root = pager.allocate();
            grown = write_node(pager, root, image, keys, false, 0)?;
            self.root = root;
        }
        Ok(())
    }

    /// Insert `run[range]` below `page_id`, which lies on the tree's
    /// right edge — no key of the tree sorts after its subtree — iff
    /// `right_edge`. Returns the separators and new right siblings the
    /// node was cut into, in key order: none if it still fits its page.
    fn insert_run(
        &self,
        pager: &Pager,
        page_id: PageId,
        run: &Run,
        range: Range<usize>,
        right_edge: bool,
    ) -> Result<Vec<(Vec<u8>, PageId)>> {
        let view = NodeView::parse(pager.read(page_id)?)?;
        if view.leaf {
            return self.merge_leaf(pager, page_id, &view, run, range, right_edge);
        }
        // Each child takes the part of the run its subtree covers: the
        // keys below the separator on its right.
        let mut grown = Vec::new();
        let mut at = range.start;
        while at < range.end {
            let idx = view.child_for(self.cmp, run.key(at));
            let end = match idx < view.len() {
                true => run.partition(at..range.end, |k| {
                    self.cmp.cmp(k, view.key(idx)) == Ordering::Less
                }),
                false => range.end,
            };
            // The last child of a node on the right edge is on it too.
            let below = right_edge && idx == view.len();
            let split = self.insert_run(pager, view.child(idx), run, at..end, below)?;
            if !split.is_empty() {
                grown.push((idx, split));
            }
            at = end;
        }
        let Some((last, last_split)) = grown.last() else {
            return Ok(Vec::new());
        };
        // A child's separators go in right after the child's own; the
        // last child's follow every other, appended at the right edge.
        let added: usize = grown.iter().map(|(_, split)| split.len()).sum();
        let appended = match right_edge && *last == view.len() {
            true => view.len() + added - last_split.len(),
            false => view.len() + added,
        };
        let mut image = Vec::with_capacity(pager.page_size());
        image.extend_from_slice(&view.page[..view.entry_start(0)]);
        let mut keys = Vec::with_capacity(view.len() + added);
        let mut copied = 0;
        for (idx, split) in &grown {
            copy_entries(&view, copied..*idx, &mut image, &mut keys);
            push_separators(&mut image, &mut keys, split);
            copied = *idx;
        }
        copy_entries(&view, copied..view.len(), &mut image, &mut keys);
        write_node(pager, page_id, image, keys, false, appended)
    }

    /// The leaf `view` merged with `run[range]`, all of which its key
    /// range covers, into one image: the bytes between two run entries
    /// copied as they lie, each run entry's value stored as a leaf stores
    /// it — inline, or as the head of an overflow chain written now.
    ///
    /// A tail appended at the tree's right edge streams out a page at a
    /// time once what comes before it fits one page: [`NodeView::cut`]
    /// would keep as many entries per page as fit anyway, so a page is
    /// written as soon as the next entry would not fit, and a run as long
    /// as a whole index is never held twice.
    fn merge_leaf(
        &self,
        pager: &Pager,
        page_id: PageId,
        view: &NodeView,
        run: &Run,
        range: Range<usize>,
        right_edge: bool,
    ) -> Result<Vec<(Vec<u8>, PageId)>> {
        let page_size = pager.page_size();
        let fresh = || {
            let mut image = Vec::with_capacity(page_size);
            image.extend_from_slice(&view.page[..3]);
            image
        };
        let mut image = fresh();
        let mut keys = Vec::with_capacity(view.len() + range.len().min(page_size / 8));
        let (mut copied, mut appended) = (0, None);
        // The pages the streamed tail filled: the separator and page of
        // each after the first, and the page the image goes to now.
        let (mut grown, mut target, mut streams) = (Vec::new(), page_id, false);
        for i in range {
            let key = run.key(i);
            let pos = match copied == view.len() {
                true => copied,
                false => view.lower_bound(self.cmp, key),
            };
            copy_entries(view, copied..pos, &mut image, &mut keys);
            let value = run.value(i);
            let mut chain = [0u8; 16];
            let (vword, stored) = if value.len() > max_inline_val(page_size) {
                chain[..8].copy_from_slice(&write_overflow(pager, value)?.to_le_bytes());
                chain[8..].copy_from_slice(&(value.len() as u64).to_le_bytes());
                (16 | OVERFLOW_FLAG, &chain[..])
            } else {
                (value.len() as u32, value)
            };
            let held = pos < view.len() && self.cmp.cmp(view.key(pos), key) == Ordering::Equal;
            let key = if held {
                if let Val::Overflow { first, .. } = view.val(pos) {
                    free_overflow(pager, first)?;
                }
                // An upsert keeps the stored key (equal under the
                // comparator, not necessarily the same bytes).
                view.key(pos)
            } else {
                if right_edge && pos == view.len() {
                    if appended.is_none() {
                        appended = Some(keys.len());
                        streams = image.len() <= page_size;
                    }
                    if streams && image.len() + 6 + key.len() + stored.len() > page_size {
                        let full = std::mem::replace(&mut image, fresh());
                        write_node(pager, target, full, std::mem::take(&mut keys), true, 0)?;
                        target = pager.allocate();
                        grown.push((key.to_vec(), target));
                        appended = Some(0);
                    }
                }
                key
            };
            image.extend_from_slice(&(key.len() as u16).to_le_bytes());
            image.extend_from_slice(&vword.to_le_bytes());
            keys.push(image.len() as u32);
            image.extend_from_slice(key);
            image.extend_from_slice(stored);
            copied = pos + usize::from(held);
        }
        copy_entries(view, copied..view.len(), &mut image, &mut keys);
        let appended = appended.unwrap_or(keys.len());
        grown.extend(write_node(pager, target, image, keys, true, appended)?);
        Ok(grown)
    }

    /// The leaf whose key range covers `key`, and its page id; `visit`
    /// as for [`descend`].
    fn leaf_for(
        &self,
        pager: &Pager,
        key: &[u8],
        visit: impl FnMut(NodeView, usize),
    ) -> Result<(PageId, NodeView)> {
        descend(
            pager,
            self.root,
            |node| node.child_for(self.cmp, key),
            visit,
        )
    }

    /// Exact-key lookup. `read` sees the value where it is stored — a
    /// slice of the pinned leaf page, or the assembled overflow chain —
    /// and what it returns is all that is copied out.
    pub fn get<R>(
        &self,
        pager: &Pager,
        key: &[u8],
        read: impl FnOnce(&[u8]) -> Result<R>,
    ) -> Result<Option<R>> {
        let (_, leaf) = self.leaf_for(pager, key, |_, _| {})?;
        match leaf.find(self.cmp, key) {
            None => Ok(None),
            Some(pos) => read(&resolve(pager, leaf.val(pos))?).map(Some),
        }
    }

    /// Remove a key. Returns whether it was present. Leaves are never
    /// merged (split-only policy).
    pub fn remove(&mut self, pager: &Pager, key: &[u8]) -> Result<bool> {
        let (page_id, leaf) = self.leaf_for(pager, key, |_, _| {})?;
        let Some(pos) = leaf.find(self.cmp, key) else {
            return Ok(false);
        };
        if let Val::Overflow { first, .. } = leaf.val(pos) {
            free_overflow(pager, first)?;
        }
        let mut image = leaf.splice(leaf.entry(pos), [&[]; 3], leaf.len() - 1);
        // Shorter than it was: it fits, nothing splits.
        image.resize(pager.page_size(), 0);
        pager.write(page_id, image)?;
        Ok(true)
    }

    /// A cursor positioned before the first entry.
    pub fn cursor_first(&self, pager: &Pager) -> Result<BTreeCursor> {
        let mut stack = Vec::new();
        let (_, leaf) = descend(pager, self.root, |_| 0, |node, idx| stack.push((node, idx)))?;
        Ok(BTreeCursor {
            stack,
            leaf,
            pos: 0,
        })
    }

    /// A cursor positioned before the first entry whose key is `>= key`.
    pub fn cursor_seek(&self, pager: &Pager, key: &[u8]) -> Result<BTreeCursor> {
        let mut stack = Vec::new();
        let (_, leaf) = self.leaf_for(pager, key, |node, idx| stack.push((node, idx)))?;
        let pos = leaf.lower_bound(self.cmp, key);
        Ok(BTreeCursor { stack, leaf, pos })
    }

    /// Free every page of the tree, consuming it (index dropped).
    pub fn free(self, pager: &Pager) -> Result<()> {
        free_tree(pager, self.root)
    }
}

fn free_tree(pager: &Pager, page_id: PageId) -> Result<()> {
    let node = NodeView::parse(pager.read(page_id)?)?;
    if node.leaf {
        for i in 0..node.len() {
            if let Val::Overflow { first, .. } = node.val(i) {
                free_overflow(pager, first)?;
            }
        }
    } else {
        for i in 0..=node.len() {
            free_tree(pager, node.child(i))?;
        }
    }
    pager.free_page(page_id);
    Ok(())
}

/// What a [`BTreeCursor`] lends: a key and its value, both slices of the
/// pinned leaf page unless the value had to be assembled from an
/// overflow chain.
pub type Entry<'a> = (&'a [u8], Cow<'a, [u8]>);

/// Forward iterator over a [`BTree`]: lends `(key, value)` in key order,
/// straight from the leaf page it keeps pinned. The tree must not be
/// mutated while a cursor is open (callers materialize under the table
/// lock).
#[derive(Debug)]
pub struct BTreeCursor {
    /// The internal nodes on the path to `leaf`, parsed once when the
    /// cursor came down through them, and the child index taken at each.
    stack: Vec<(NodeView, usize)>,
    leaf: NodeView,
    pos: usize,
}

impl BTreeCursor {
    /// The next entry in key order, or `None` at the end. Key and value
    /// borrow the cursor's leaf until the next call; only a value stored
    /// in an overflow chain is owned.
    pub fn next(&mut self, pager: &Pager) -> Result<Option<Entry<'_>>> {
        // Leaf exhausted: climb until an internal node has a further
        // child, then descend its leftmost path.
        while self.pos == self.leaf.len() {
            let Some((parent, idx)) = self.stack.pop() else {
                return Ok(None);
            };
            if idx < parent.len() {
                let next = parent.child(idx + 1);
                let stack = &mut self.stack;
                stack.push((parent, idx + 1));
                let (_, leaf) = descend(pager, next, |_| 0, |node, idx| stack.push((node, idx)))?;
                self.leaf = leaf;
                self.pos = 0;
            }
        }
        let pos = self.pos;
        self.pos += 1;
        let val = resolve(pager, self.leaf.val(pos))?;
        Ok(Some((self.leaf.key(pos), val)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::PagerConfig;
    use crowddb_common::rng::Rng;
    use std::collections::BTreeMap;

    fn pager() -> Pager {
        Pager::new_mem(PagerConfig {
            page_size: 256,
            pool_pages: 0,
        })
        .unwrap()
    }

    fn key(i: u64) -> Vec<u8> {
        i.to_be_bytes().to_vec()
    }

    impl BTree {
        /// Each node's contents, root first, level by level: a leaf's
        /// keys and values (chains read back), an internal node's
        /// separators — what a tree holds where, page ids aside.
        pub(crate) fn contents(&self, p: &Pager) -> Vec<Vec<(Vec<u8>, Vec<u8>)>> {
            let (pages, _) = node_pages(self, p);
            let node = |page: &Arc<Page>| match decode_node(page).unwrap() {
                Node::Leaf { entries } => entries
                    .into_iter()
                    .map(|(k, v)| {
                        let v = match v {
                            Val::Inline(bytes) => bytes,
                            Val::Overflow { first, total_len } => {
                                read_overflow(p, first, total_len).unwrap()
                            }
                        };
                        (k, v)
                    })
                    .collect(),
                Node::Internal { keys, .. } => keys.into_iter().map(|k| (k, Vec::new())).collect(),
            };
            pages.iter().map(node).collect()
        }

        /// A run of one, as a row-at-a-time caller inserts.
        pub(crate) fn insert(&mut self, pager: &Pager, key: &[u8], value: &[u8]) -> Result<()> {
            self.insert_sorted(pager, &run_of([(key, value)]))
        }
    }

    /// `get`, copying the value out.
    fn get(t: &BTree, p: &Pager, key: &[u8]) -> Option<Vec<u8>> {
        t.get(p, key, |v| Ok(v.to_vec())).unwrap()
    }

    /// Everything `cur` still yields, copied out.
    fn drain(mut cur: BTreeCursor, p: &Pager) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut out = Vec::new();
        while let Some((k, v)) = cur.next(p).unwrap() {
            out.push((k.to_vec(), v.into_owned()));
        }
        out
    }

    #[test]
    fn insert_get_roundtrip_with_splits() {
        let p = pager();
        let mut t = BTree::create(&p, KeyCmp::Bytes).unwrap();
        // Insert in a scrambled but deterministic order.
        for i in 0..500u64 {
            let k = (i * 7919) % 500;
            t.insert(&p, &key(k), format!("val-{k}").as_bytes())
                .unwrap();
        }
        for i in 0..500u64 {
            assert_eq!(
                get(&t, &p, &key(i)).as_deref(),
                Some(format!("val-{i}").as_bytes())
            );
        }
        assert_eq!(get(&t, &p, &key(500)), None);
    }

    #[test]
    fn upsert_replaces_in_place() {
        let p = pager();
        let mut t = BTree::create(&p, KeyCmp::Bytes).unwrap();
        t.insert(&p, &key(1), b"old").unwrap();
        t.insert(&p, &key(1), b"new").unwrap();
        assert_eq!(get(&t, &p, &key(1)).as_deref(), Some(&b"new"[..]));
        let mut cur = t.cursor_first(&p).unwrap();
        let mut n = 0;
        while cur.next(&p).unwrap().is_some() {
            n += 1;
        }
        assert_eq!(n, 1);
    }

    #[test]
    fn cursor_yields_key_order() {
        let p = pager();
        let mut t = BTree::create(&p, KeyCmp::Bytes).unwrap();
        for i in (0..200u64).rev() {
            t.insert(&p, &key(i), b"x").unwrap();
        }
        let mut cur = t.cursor_first(&p).unwrap();
        let mut seen = Vec::new();
        while let Some((k, _)) = cur.next(&p).unwrap() {
            seen.push(u64::from_be_bytes(k.try_into().unwrap()));
        }
        assert_eq!(seen, (0..200u64).collect::<Vec<_>>());
    }

    #[test]
    fn seek_positions_at_lower_bound() {
        let p = pager();
        let mut t = BTree::create(&p, KeyCmp::Bytes).unwrap();
        for i in 0..100u64 {
            t.insert(&p, &key(i * 2), b"x").unwrap();
        }
        let mut cur = t.cursor_seek(&p, &key(31)).unwrap();
        let (k, _) = cur.next(&p).unwrap().unwrap();
        assert_eq!(u64::from_be_bytes(k.try_into().unwrap()), 32);
    }

    #[test]
    fn remove_deletes_and_tolerates_missing() {
        let p = pager();
        let mut t = BTree::create(&p, KeyCmp::Bytes).unwrap();
        for i in 0..100u64 {
            t.insert(&p, &key(i), b"x").unwrap();
        }
        assert!(t.remove(&p, &key(42)).unwrap());
        assert!(!t.remove(&p, &key(42)).unwrap());
        assert_eq!(get(&t, &p, &key(42)), None);
        assert_eq!(get(&t, &p, &key(41)).as_deref(), Some(&b"x"[..]));
        let mut cur = t.cursor_first(&p).unwrap();
        let mut n = 0;
        while cur.next(&p).unwrap().is_some() {
            n += 1;
        }
        assert_eq!(n, 99);
    }

    #[test]
    fn large_values_spill_to_overflow_chains() {
        let p = pager();
        let mut t = BTree::create(&p, KeyCmp::Bytes).unwrap();
        let big: Vec<u8> = (0..5000u32).map(|i| (i % 251) as u8).collect();
        t.insert(&p, &key(7), &big).unwrap();
        assert_eq!(get(&t, &p, &key(7)).as_deref(), Some(&big[..]));
        // Replacing frees the old chain (after writing the new one, so
        // the steady state holds two chains' worth of pages); page count
        // must not grow unboundedly across repeated upserts of the key.
        t.insert(&p, &key(7), &big).unwrap();
        let (_, before) = p.alloc_state();
        for _ in 0..10 {
            t.insert(&p, &key(7), &big).unwrap();
        }
        let (_, after) = p.alloc_state();
        assert_eq!(before, after, "freed overflow pages are reused");
        assert_eq!(get(&t, &p, &key(7)).as_deref(), Some(&big[..]));
    }

    #[test]
    fn oversized_key_is_a_typed_constraint_error() {
        let p = pager();
        let mut t = BTree::create(&p, KeyCmp::Bytes).unwrap();
        let huge_key = vec![0u8; 256];
        let err = t.insert(&p, &huge_key, b"x").unwrap_err();
        assert_eq!(err.category(), "constraint");
    }

    #[test]
    fn free_releases_every_page() {
        let p = pager();
        let mut t = BTree::create(&p, KeyCmp::Bytes).unwrap();
        let big = vec![9u8; 1000];
        for i in 0..200u64 {
            let value = if i % 50 == 0 { &big[..] } else { b"some value" };
            t.insert(&p, &key(i), value).unwrap();
        }
        t.free(&p).unwrap();
        let (free, count) = p.alloc_state();
        assert_eq!(free.len() as u64, count - 1, "all but the header page");
        // A fresh tree reuses freed pages rather than extending the file.
        let mut t = BTree::create(&p, KeyCmp::Bytes).unwrap();
        t.insert(&p, &key(0), b"x").unwrap();
        assert_eq!(p.alloc_state().1, count);
    }

    #[test]
    fn index_entry_order_missing_first_then_value_then_tid() {
        use crowddb_common::Value;
        let entry = |v: &Value, tid: u64| {
            let mut k = Vec::new();
            codec::encode_value(&mut k, v);
            k.extend_from_slice(&tid.to_be_bytes());
            k
        };
        let cmp = KeyCmp::IndexEntry;
        let null = entry(&Value::Null, 5);
        let cnull = entry(&Value::CNull, 5);
        let one = entry(&Value::Int(1), 5);
        let two = entry(&Value::Int(2), 1);
        assert_eq!(cmp.cmp(&null, &one), Ordering::Less, "missing sorts first");
        assert_eq!(cmp.cmp(&cnull, &one), Ordering::Less);
        assert_eq!(cmp.cmp(&one, &two), Ordering::Less);
        let one_t9 = entry(&Value::Int(1), 9);
        assert_eq!(cmp.cmp(&one, &one_t9), Ordering::Less, "tid breaks ties");
        // A seek target is (prefix values, tid 0): it sorts at-or-before
        // every full entry sharing the prefix, including tid 0 itself.
        assert_ne!(cmp.cmp(&entry(&Value::Int(1), 0), &one), Ordering::Greater);
        assert_eq!(
            cmp.cmp(&entry(&Value::Int(1), 0), &entry(&Value::Int(1), 0)),
            Ordering::Equal
        );
    }

    /// The overflow chain of the only entry of a one-leaf tree.
    fn chain_of(t: &BTree, p: &Pager) -> Vec<PageId> {
        let root = NodeView::parse(p.read(t.root()).unwrap()).unwrap();
        let Val::Overflow { first, .. } = root.val(0) else {
            panic!("the value was stored inline");
        };
        let mut ids = vec![first];
        loop {
            let page = p.read(*ids.last().unwrap()).unwrap();
            match u64::from_le_bytes(bytes_at(&page, 1)) {
                0 => return ids,
                next => ids.push(next),
            }
        }
    }

    /// Rewrite overflow page `id` to point at `next`, its chunk cut to
    /// `len` bytes if given.
    fn relink(p: &Pager, id: PageId, next: PageId, len: Option<u32>) {
        let mut page = p.read(id).unwrap().to_vec();
        page[1..9].copy_from_slice(&next.to_le_bytes());
        if let Some(len) = len {
            page[9..13].copy_from_slice(&len.to_le_bytes());
        }
        p.write(id, page).unwrap();
    }

    #[test]
    fn a_cycling_overflow_chain_is_a_typed_error_not_a_hang() {
        type Damage = fn(&Pager, &[PageId]);
        let damages: [(&str, Damage); 3] = [
            ("a chunk points at itself", |p, ids| {
                relink(p, ids[1], ids[1], None)
            }),
            ("a chunk points at its predecessor", |p, ids| {
                relink(p, ids[1], ids[0], None)
            }),
            ("an empty chunk points at itself", |p, ids| {
                relink(p, ids[2], ids[2], Some(0))
            }),
        ];
        for (what, damage) in damages {
            let scene = || {
                let p = pager();
                let mut t = BTree::create(&p, KeyCmp::Bytes).unwrap();
                t.insert(&p, &key(1), &[7u8; 700]).unwrap();
                let ids = chain_of(&t, &p);
                assert_eq!(ids.len(), 3, "700 bytes in 243-byte chunks");
                damage(&p, &ids);
                (p, t)
            };
            let typed = |err: CrowdError| {
                assert_eq!(err.category(), "internal", "{what}");
                assert!(
                    err.message().starts_with("btree: overflow chain"),
                    "{what}: {err}"
                );
            };
            let (p, t) = scene();
            typed(t.get(&p, &key(1), |_| Ok(())).unwrap_err());
            let mut cur = t.cursor_first(&p).unwrap();
            typed(cur.next(&p).map(|_| ()).unwrap_err());
            let (p, mut t) = scene();
            typed(t.remove(&p, &key(1)).unwrap_err());
            let (p, mut t) = scene();
            typed(t.insert(&p, &key(1), b"replacement").unwrap_err());
            let (p, t) = scene();
            typed(t.free(&p).unwrap_err());
        }
    }

    /// A leaf's entries, copied out of their page.
    type Entries = Vec<(Vec<u8>, Val<Vec<u8>>)>;

    /// A node as owned vectors: what writes copied a page out into
    /// before they spliced its image, kept as the oracle's shape.
    #[derive(Debug, Clone, PartialEq, Eq)]
    enum Node {
        Leaf {
            entries: Entries,
        },
        Internal {
            keys: Vec<Vec<u8>>,
            children: Vec<PageId>,
        },
    }

    /// The whole-node encoder every write ran until it became a splice,
    /// kept verbatim: the image a node's contents must give.
    fn encode_node(node: &Node, page_size: usize) -> Option<Vec<u8>> {
        let mut buf = Vec::with_capacity(page_size);
        match node {
            Node::Leaf { entries } => {
                buf.push(kind::LEAF);
                buf.extend_from_slice(&(entries.len() as u16).to_le_bytes());
                for (k, v) in entries {
                    buf.extend_from_slice(&(k.len() as u16).to_le_bytes());
                    match v {
                        Val::Inline(bytes) => {
                            buf.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
                            buf.extend_from_slice(k);
                            buf.extend_from_slice(bytes);
                        }
                        Val::Overflow { first, total_len } => {
                            buf.extend_from_slice(&(16u32 | OVERFLOW_FLAG).to_le_bytes());
                            buf.extend_from_slice(k);
                            buf.extend_from_slice(&first.to_le_bytes());
                            buf.extend_from_slice(&total_len.to_le_bytes());
                        }
                    }
                }
            }
            Node::Internal { keys, children } => {
                debug_assert_eq!(children.len(), keys.len() + 1);
                buf.push(kind::INTERNAL);
                buf.extend_from_slice(&(keys.len() as u16).to_le_bytes());
                buf.extend_from_slice(&children[0].to_le_bytes());
                for (k, child) in keys.iter().zip(&children[1..]) {
                    buf.extend_from_slice(&(k.len() as u16).to_le_bytes());
                    buf.extend_from_slice(k);
                    buf.extend_from_slice(&child.to_le_bytes());
                }
            }
        }
        if buf.len() > page_size {
            return None;
        }
        buf.resize(page_size, 0);
        Some(buf)
    }

    /// A view's contents copied out into a [`Node`].
    fn copied(view: &NodeView) -> Node {
        if view.leaf {
            let entries = (0..view.len()).map(|i| {
                let val = match view.val(i) {
                    Val::Inline(bytes) => Val::Inline(bytes.to_vec()),
                    Val::Overflow { first, total_len } => Val::Overflow { first, total_len },
                };
                (view.key(i).to_vec(), val)
            });
            Node::Leaf {
                entries: entries.collect(),
            }
        } else {
            Node::Internal {
                keys: (0..view.len()).map(|i| view.key(i).to_vec()).collect(),
                children: (0..=view.len()).map(|i| view.child(i)).collect(),
            }
        }
    }

    /// `decode_node` as it stood before reads moved onto [`NodeView`]:
    /// every visited page rebuilt as a vector of vectors. Kept verbatim
    /// as the oracle for which images parse, with which error, to what.
    fn decode_node(data: &[u8]) -> Result<Node> {
        let corrupt = |what: &str| CrowdError::Internal(format!("btree: corrupt node ({what})"));
        let tag = *data.first().ok_or_else(|| corrupt("empty page"))?;
        let mut off = 3usize;
        let take = |off: &mut usize, n: usize| -> Result<&[u8]> {
            let s = data
                .get(*off..*off + n)
                .ok_or_else(|| corrupt("truncated"))?;
            *off += n;
            Ok(s)
        };
        let n = u16::from_le_bytes(
            data.get(1..3)
                .ok_or_else(|| corrupt("short"))?
                .try_into()
                .unwrap(),
        );
        match tag {
            kind::LEAF => {
                let mut entries = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    let klen = u16::from_le_bytes(take(&mut off, 2)?.try_into().unwrap()) as usize;
                    let vword = u32::from_le_bytes(take(&mut off, 4)?.try_into().unwrap());
                    let key = take(&mut off, klen)?.to_vec();
                    let val = if vword & OVERFLOW_FLAG != 0 {
                        let first = u64::from_le_bytes(take(&mut off, 8)?.try_into().unwrap());
                        let total_len = u64::from_le_bytes(take(&mut off, 8)?.try_into().unwrap());
                        Val::Overflow { first, total_len }
                    } else {
                        Val::Inline(take(&mut off, vword as usize)?.to_vec())
                    };
                    entries.push((key, val));
                }
                Ok(Node::Leaf { entries })
            }
            kind::INTERNAL => {
                let mut children = Vec::with_capacity(n as usize + 1);
                children.push(u64::from_le_bytes(take(&mut off, 8)?.try_into().unwrap()));
                let mut keys = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    let klen = u16::from_le_bytes(take(&mut off, 2)?.try_into().unwrap()) as usize;
                    keys.push(take(&mut off, klen)?.to_vec());
                    children.push(u64::from_le_bytes(take(&mut off, 8)?.try_into().unwrap()));
                }
                Ok(Node::Internal { keys, children })
            }
            other => Err(corrupt(&format!("unexpected page kind {other}"))),
        }
    }

    /// The view must take `image` exactly as the oracle does — the same
    /// error text, or the same node entry for entry — and no accessor
    /// may panic on an image it accepted.
    ///
    /// Read a second time, the image gives the same answer: a rejected
    /// one errs again with the same text and never keeps a layout, an
    /// accepted one keeps exactly what a fresh parse finds.
    fn assert_view_matches_oracle(image: &[u8], cmp: KeyCmp, what: &str) {
        let page = Arc::new(Page::new(image.to_vec()));
        let first = NodeView::parse(Arc::clone(&page));
        match (&first, NodeView::parse(Arc::clone(&page))) {
            (Err(first), Err(again)) => {
                assert_eq!(first.message(), again.message(), "{what}: read again");
                assert!(
                    page.layout().is_none(),
                    "{what}: a rejected image kept a layout"
                );
            }
            (Ok(_), Ok(again)) => {
                assert_eq!(again.keys(), &key_ranges(image).unwrap()[..], "{what}");
            }
            (first, again) => panic!("{what}: read once {first:?}, again {again:?}"),
        }
        match (first, decode_node(image)) {
            (Err(got), Err(want)) => assert_eq!(got.message(), want.message(), "{what}"),
            (Ok(view), Ok(node)) => {
                assert_eq!(copied(&view), node, "{what}");
                // Searches over keys a corruption may have unsorted or
                // made foreign to the comparator: any answer, no panic.
                for i in 0..view.len() {
                    let probe = view.key(i).to_vec();
                    assert!(view.lower_bound(cmp, &probe) <= view.len(), "{what}");
                    assert!(view.child_for(cmp, &probe) <= view.len(), "{what}");
                    assert!(view.find(cmp, &probe).is_none_or(|pos| pos < view.len()));
                }
            }
            (view, node) => panic!("{what}: the view says {view:?}, the oracle {node:?}"),
        }
    }

    /// A key `cmp` can order: any bytes, or values ‖ tid.
    fn random_key(rng: &mut Rng, cmp: KeyCmp) -> Vec<u8> {
        use crowddb_common::{TupleId, Value};
        match cmp {
            KeyCmp::Bytes => {
                let len = rng.gen_range(1..=24);
                (0..len).map(|_| rng.gen_range(0..4u8)).collect()
            }
            KeyCmp::IndexEntry => {
                let values: Vec<Value> = (0..rng.gen_range(1..=2))
                    .map(|_| match rng.gen_range(0..8) {
                        0 => Value::Null,
                        1 => Value::CNull,
                        2..=4 => Value::Int(rng.gen_range(-20..20)),
                        _ => Value::Str("k".repeat(rng.gen_range(0..12))),
                    })
                    .collect();
                crate::index::encode_index_entry(&values, TupleId(rng.gen_range(0..6)))
            }
        }
    }

    /// Mostly inline values (≤ 32 bytes at page size 256), one in
    /// six long enough for a chain of up to three overflow pages.
    fn random_value(rng: &mut Rng) -> Vec<u8> {
        let len: usize = match rng.gen_range(0..6) {
            0 => rng.gen_range(33..633),
            _ => rng.gen_range(0..33),
        };
        let fill = rng.next_u64() as u8;
        (0..len).map(|i| fill.wrapping_add(i as u8)).collect()
    }

    /// A key under its tree's comparator, so a `BTreeMap` is the model.
    #[derive(Debug, Clone)]
    struct Keyed(KeyCmp, Vec<u8>);

    impl Ord for Keyed {
        fn cmp(&self, other: &Keyed) -> Ordering {
            self.0.cmp(&self.1, &other.1)
        }
    }
    impl PartialOrd for Keyed {
        fn partial_cmp(&self, other: &Keyed) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl PartialEq for Keyed {
        fn eq(&self, other: &Keyed) -> bool {
            self.cmp(other) == Ordering::Equal
        }
    }
    impl Eq for Keyed {}

    type Model = BTreeMap<Keyed, Vec<u8>>;

    /// Leaves of the shuffled 20 000-entry index load at `0b359b7`, the
    /// last commit that cut a full node by entry count.
    const RANDOM_LOAD_LEAVES_BEFORE: usize = 147;

    fn pairs<'a>(model: impl Iterator<Item = (&'a Keyed, &'a Vec<u8>)>) -> Vec<(Vec<u8>, Vec<u8>)> {
        model.map(|(k, v)| (k.1.clone(), v.clone())).collect()
    }

    /// Tree and model agree on a full scan, and on a `get` of and a
    /// seek to each probe.
    fn assert_same(t: &BTree, p: &Pager, model: &Model, probes: &[&[u8]], what: &str) {
        assert_eq!(
            drain(t.cursor_first(p).unwrap(), p),
            pairs(model.iter()),
            "{what}: full cursor"
        );
        for &probe in probes {
            let from = Keyed(t.cmp, probe.to_vec());
            assert_eq!(
                get(t, p, probe).as_ref(),
                model.get(&from),
                "{what}: get {probe:?}"
            );
            assert_eq!(
                drain(t.cursor_seek(p, probe).unwrap(), p),
                pairs(model.range(from..)),
                "{what}: seek {probe:?}"
            );
        }
    }

    /// Every node page of the tree, root first, and its depth in levels.
    fn node_pages(t: &BTree, p: &Pager) -> (Vec<Arc<Page>>, usize) {
        let (mut pages, mut depth) = (Vec::new(), 0);
        let mut level = vec![t.root()];
        while !level.is_empty() {
            depth += 1;
            let mut below = Vec::new();
            for id in level {
                let page = p.read(id).unwrap();
                if let Node::Internal { children, .. } = decode_node(&page).unwrap() {
                    below.extend(children);
                }
                pages.push(page);
            }
            level = below;
        }
        (pages, depth)
    }

    #[test]
    fn tree_matches_a_btreemap_and_the_view_matches_decode_node() {
        for (seed, cmp) in [(1, KeyCmp::Bytes), (2, KeyCmp::IndexEntry)] {
            let p = pager();
            let mut rng = Rng::seed_from_u64(seed);
            let mut t = BTree::create(&p, cmp).unwrap();
            let mut model = Model::new();
            for step in 0..1500 {
                let fresh = random_key(&mut rng, cmp);
                let held = model.keys().nth(rng.gen_range(0..model.len().max(1)));
                let what = format!("{cmp:?} step {step}");
                // Half the steps insert a new key; the others upsert or
                // remove one the tree holds, or remove one it lacks.
                let (k, insert) = match (rng.gen_range(0..10), held) {
                    (5..=6, Some(held)) => (held.1.clone(), true),
                    (7..=8, Some(held)) => (held.1.clone(), false),
                    (9, _) => (fresh, false),
                    _ => (fresh, true),
                };
                if insert {
                    let v = random_value(&mut rng);
                    t.insert(&p, &k, &v).unwrap();
                    // An upsert keeps the stored key, as the model does.
                    model.insert(Keyed(cmp, k.clone()), v);
                } else {
                    let was = model.remove(&Keyed(cmp, k.clone())).is_some();
                    assert_eq!(t.remove(&p, &k).unwrap(), was, "{what}: remove");
                }
                assert_same(&t, &p, &model, &[&k, &random_key(&mut rng, cmp)], &what);
            }

            let (pages, depth) = node_pages(&t, &p);
            assert!(
                depth >= 3,
                "{cmp:?}: {depth} level(s), {} keys",
                model.len()
            );
            for (n, page) in pages.iter().enumerate() {
                // The last full cursor read every node: each image keeps
                // the layout of its own bytes, however many writes ago a
                // page was last replaced.
                assert_eq!(
                    page.layout(),
                    Some(&key_ranges(page).unwrap()[..]),
                    "{cmp:?} page {n}"
                );
                assert_view_matches_oracle(page, cmp, &format!("{cmp:?} page {n}"));
                // Splices and split halves alike: a page image is a
                // function of the node's contents.
                let encoded = encode_node(&decode_node(page).unwrap(), page.len());
                assert_eq!(encoded.as_deref(), Some(&page[..]), "{cmp:?} page {n}");
                for (label, image) in codec::corruptions(page) {
                    assert_view_matches_oracle(&image, cmp, &format!("{cmp:?} page {n}: {label}"));
                }
            }

            // A seek just past each key: one in every leaf lands behind
            // that leaf's last entry and has to climb to the next leaf.
            let keys: Vec<Keyed> = model.keys().cloned().collect();
            for k in &keys {
                let mut past = k.1.clone();
                match cmp {
                    KeyCmp::Bytes => past.push(0),
                    KeyCmp::IndexEntry => *past.last_mut().unwrap() += 1,
                }
                assert_same(&t, &p, &model, &[&past], "seek past a key");
            }
            // Remove in key order, so whole leaves empty out one after
            // the other under the cursor's path (they are never merged).
            for (i, k) in keys.iter().enumerate() {
                assert!(t.remove(&p, &k.1).unwrap());
                model.remove(k);
                if i % 7 == 0 || model.len() < 8 {
                    assert_same(&t, &p, &model, &[&k.1], "emptying leaves");
                }
            }
            assert!(drain(t.cursor_first(&p).unwrap(), &p).is_empty());
            let (_, emptied) = node_pages(&t, &p);
            assert_eq!(emptied, depth, "removes never shrink the tree");
        }
    }
    #[test]
    fn a_resident_image_is_parsed_once() {
        let p = pager();
        let mut t = BTree::create(&p, KeyCmp::Bytes).unwrap();
        for i in 0..200u64 {
            t.insert(&p, &key(i), b"x").unwrap();
        }
        // The root, an internal node, and a leaf, each read twice.
        let (leaf, _) = t.leaf_for(&p, &key(150), |_, _| {}).unwrap();
        for page_id in [t.root(), leaf] {
            let (once, twice) = (p.read(page_id).unwrap(), p.read(page_id).unwrap());
            assert!(Arc::ptr_eq(&once, &twice), "page {page_id}: one image");
            let (once, twice) = (
                NodeView::parse(once).unwrap(),
                NodeView::parse(twice).unwrap(),
            );
            assert!(
                std::ptr::eq(once.keys(), twice.keys()),
                "page {page_id}: one layout"
            );
        }
    }

    #[test]
    fn a_descent_after_a_write_reads_the_new_image_s_layout() {
        let p = pager();
        let mut t = BTree::create(&p, KeyCmp::Bytes).unwrap();
        // Filled from the right, each leaf is cut at its middle: room
        // for one more entry.
        for i in (0..40u64).rev() {
            t.insert(&p, &key(2 * i), b"x").unwrap();
        }
        let leaf_of = |t: &BTree, k: u64| t.leaf_for(&p, &key(k), |_, _| {}).unwrap();
        let (id, old) = leaf_of(&t, 41);
        let before = old.keys().to_vec();
        assert!(old.find(KeyCmp::Bytes, &key(41)).is_none());
        t.insert(&p, &key(41), b"y").unwrap();
        let (again, new) = leaf_of(&t, 41);
        assert_eq!(again, id, "the insert did not split that leaf");
        assert!(
            !Arc::ptr_eq(&old.page, &new.page),
            "a write wraps a fresh image"
        );
        assert_eq!(new.keys(), &key_ranges(&new.page).unwrap()[..]);
        assert_eq!(new.len(), before.len() + 1);
        assert!(new.find(KeyCmp::Bytes, &key(41)).is_some());
        assert_eq!(get(&t, &p, &key(41)).as_deref(), Some(&b"y"[..]));
        // The old image, still pinned, keeps the layout of its own bytes.
        assert_eq!(old.keys(), &before[..]);
        assert_eq!(old.keys(), &key_ranges(&old.page).unwrap()[..]);
        // So does a remove.
        assert!(t.remove(&p, &key(41)).unwrap());
        let (_, removed) = leaf_of(&t, 41);
        assert_eq!(removed.keys(), &key_ranges(&removed.page).unwrap()[..]);
        assert_eq!(removed.len(), before.len());
        assert_eq!(get(&t, &p, &key(41)), None);
    }

    /// The root's image, which for these one-leaf trees is the leaf.
    fn root_page(t: &BTree, p: &Pager) -> Arc<Page> {
        p.read(t.root()).unwrap()
    }

    /// One write to a one-leaf tree must leave exactly the image the
    /// whole-node encoder gives the leaf's entries with `edit` applied;
    /// `edit` sees the entries after the write, to copy how a value was
    /// stored — inline, or behind which chain — which for the entry
    /// `written` is checked here, and against `get`.
    fn assert_spliced_as_encoded(
        scene: &dyn Fn() -> (Pager, BTree),
        write: &dyn Fn(&mut BTree, &Pager),
        written: Option<(usize, &[u8])>,
        edit: &dyn Fn(&mut Entries, &Entries),
        what: &str,
    ) {
        let (p, mut t) = scene();
        let Node::Leaf { mut entries } = decode_node(&root_page(&t, &p)).unwrap() else {
            panic!("{what}: the scene is more than a leaf");
        };
        write(&mut t, &p);
        let image = root_page(&t, &p);
        let Node::Leaf { entries: after } = decode_node(&image).unwrap() else {
            panic!("{what}: the write split the leaf");
        };
        if let Some((pos, value)) = written {
            let (k, stored) = &after[pos];
            match stored {
                Val::Inline(bytes) => assert_eq!(bytes, value, "{what}"),
                Val::Overflow { total_len, .. } => {
                    assert!(value.len() > max_inline_val(image.len()), "{what}");
                    assert_eq!(*total_len, value.len() as u64, "{what}");
                }
            }
            assert_eq!(get(&t, &p, k).as_deref(), Some(value), "{what}");
        }
        edit(&mut entries, &after);
        let want = encode_node(&Node::Leaf { entries }, image.len()).unwrap();
        assert!(image[..] == want, "{what}: the image is not the encoder's");
    }

    #[test]
    fn a_leaf_write_leaves_the_image_the_encoder_gives_the_edited_leaf() {
        for page_size in [512, 4096] {
            let longest = vec![7u8; max_inline_val(page_size)];
            let spilled = vec![9u8; max_inline_val(page_size) + 1];
            let values: [&[u8]; 4] = [b"", b"short", &longest, &spilled];
            // Even keys 2, 4, …, 12 holding every kind of value: an odd key
            // inserts at any position, front and back included.
            let scene = || {
                let p = Pager::new_mem(PagerConfig {
                    page_size,
                    pool_pages: 0,
                })
                .unwrap();
                let mut t = BTree::create(&p, KeyCmp::Bytes).unwrap();
                for i in 0..6 {
                    t.insert(&p, &key(2 * i + 2), values[i as usize % 4])
                        .unwrap();
                }
                (p, t)
            };
            for pos in 0..=6usize {
                let (odd, even) = (key(2 * pos as u64 + 1), key(2 * pos as u64 + 2));
                for value in values {
                    let what = format!("page {page_size}, position {pos}, {} bytes", value.len());
                    assert_spliced_as_encoded(
                        &scene,
                        &|t, p| t.insert(p, &odd, value).unwrap(),
                        Some((pos, value)),
                        &|entries, after| entries.insert(pos, (odd.clone(), after[pos].1.clone())),
                        &format!("insert: {what}"),
                    );
                    if pos < 6 {
                        assert_spliced_as_encoded(
                            &scene,
                            &|t, p| t.insert(p, &even, value).unwrap(),
                            Some((pos, value)),
                            &|entries, after| entries[pos].1 = after[pos].1.clone(),
                            &format!("replace: {what}"),
                        );
                    }
                }
                if pos < 6 {
                    assert_spliced_as_encoded(
                        &scene,
                        &|t, p| assert!(t.remove(p, &even).unwrap()),
                        None,
                        &|entries, _| drop(entries.remove(pos)),
                        &format!("remove: page {page_size}, position {pos}"),
                    );
                }
            }
        }
    }

    /// Leaves of the tree, and the bytes their entries and headers use.
    fn leaf_fill(t: &BTree, p: &Pager) -> (usize, usize) {
        let (pages, _) = node_pages(t, p);
        let leaves = pages.iter().filter(|page| page[0] == kind::LEAF);
        let used = leaves.clone().map(|page| {
            let leaf = NodeView::parse(Arc::clone(page)).unwrap();
            leaf.entry_start(leaf.len())
        });
        (leaves.count(), used.sum())
    }

    #[test]
    fn an_ascending_load_fills_its_leaves_and_a_random_one_splits_as_before() {
        const KEYS: u64 = 20_000;
        let pager = || {
            Pager::new_mem(PagerConfig {
                page_size: 4096,
                pool_pages: 0,
            })
            .unwrap()
        };
        // A primary tree: tuple ids only ascend, each append at the right
        // edge. Cut in the middle these leaves stayed half empty for good.
        let p = pager();
        let mut t = BTree::create(&p, KeyCmp::Bytes).unwrap();
        for i in 0..KEYS {
            t.insert(&p, &key(i), &[i as u8; 65]).unwrap();
        }
        let (leaves, used) = leaf_fill(&t, &p);
        assert!(
            used * 10 >= leaves * 4096 * 9,
            "{leaves} leaves hold {used} bytes: under 90 % full"
        );
        assert_eq!(
            drain(t.cursor_first(&p).unwrap(), &p).len() as u64,
            KEYS,
            "every key is still there"
        );
        // An index built over shuffled values: entries arrive in no order
        // and a full leaf is cut at its byte midpoint, which for entries
        // of one size is where the cut by count lay.
        let p = pager();
        let mut t = BTree::create(&p, KeyCmp::IndexEntry).unwrap();
        let mut values: Vec<i64> = (0..KEYS as i64).collect();
        Rng::seed_from_u64(1).shuffle(&mut values);
        for (tid, value) in values.into_iter().enumerate() {
            let entry = crate::index::encode_index_entry(
                &[crowddb_common::Value::Int(value)],
                crowddb_common::TupleId(tid as u64),
            );
            t.insert(&p, &entry, &[]).unwrap();
        }
        let (leaves, _) = leaf_fill(&t, &p);
        assert!(
            (RANDOM_LOAD_LEAVES_BEFORE * 95..=RANDOM_LOAD_LEAVES_BEFORE * 105)
                .contains(&(leaves * 100)),
            "{leaves} leaves, {RANDOM_LOAD_LEAVES_BEFORE} before the cut went by bytes"
        );
    }

    /// Short values grown to the longest a leaf keeps inline, at random
    /// within a window of neighbouring keys (an `UPDATE` of a key range
    /// growing short strings to an eighth of a page): a few long entries
    /// end up among many short ones, and half of a leaf's entries can be
    /// more than a page of bytes. The cut by entry count failed 9 of this
    /// search's 60 trials at 4 096-byte pages and 2-byte keys with `btree:
    /// left half does not fit`; a cut by bytes cannot, neither half
    /// exceeding half a page plus one entry.
    #[test]
    fn growing_upserts_split_by_bytes_and_every_half_fits() {
        for page_size in [512, 1024, 4096] {
            for key_len in [2, 8] {
                for seed in 0..60 {
                    let p = Pager::new_mem(PagerConfig {
                        page_size,
                        pool_pages: 0,
                    })
                    .unwrap();
                    let mut rng = Rng::seed_from_u64(seed);
                    let mut t = BTree::create(&p, KeyCmp::Bytes).unwrap();
                    // Plain byte order, so the map's own order is the model.
                    let mut model = BTreeMap::new();
                    let keys: Vec<Vec<u8>> =
                        (0..120).map(|i| key(i)[8 - key_len..].to_vec()).collect();
                    for k in &keys {
                        t.insert(&p, k, b"twelve bytes").unwrap();
                        model.insert(k.clone(), b"twelve bytes".to_vec());
                    }
                    let window = rng.gen_range(8..=keys.len());
                    let from = rng.gen_range(0..=keys.len() - window);
                    for step in 0..48 {
                        let what = format!(
                            "page {page_size}, {key_len}-byte keys, seed {seed}, step {step}"
                        );
                        let k = &keys[rng.gen_range(from..from + window)];
                        let len = max_inline_val(page_size) - rng.gen_range(0..3usize);
                        let grown = vec![step as u8; len];
                        if let Err(e) = t.insert(&p, k, &grown) {
                            panic!("{what}: {e}");
                        }
                        model.insert(k.clone(), grown);
                        let mut cur = t.cursor_first(&p).unwrap();
                        for (k, v) in &model {
                            let (key, val) = cur.next(&p).unwrap().expect(&what);
                            assert!(key == &k[..] && *val == v[..], "{what}: at key {k:?}");
                        }
                        assert!(cur.next(&p).unwrap().is_none(), "{what}");
                    }
                }
            }
        }
    }

    /// A run of `entries`, which ascend under their comparator.
    fn run_of<'a>(entries: impl IntoIterator<Item = (&'a [u8], &'a [u8])>) -> Run {
        let mut run = Run::default();
        for (k, v) in entries {
            run.push(
                |buf| buf.extend_from_slice(k),
                |buf| buf.extend_from_slice(v),
            );
        }
        run
    }

    /// Every page of the tree holds the image the whole-node encoder
    /// gives its contents, and keeps the layout of its own bytes.
    fn assert_pages_encoded(t: &BTree, p: &Pager, what: &str) {
        let (pages, _) = node_pages(t, p);
        for (n, page) in pages.iter().enumerate() {
            let node = decode_node(page).unwrap();
            let encoded = encode_node(&node, page.len());
            assert_eq!(encoded.as_deref(), Some(&page[..]), "{what}: page {n}");
            NodeView::parse(Arc::clone(page)).unwrap();
            assert_eq!(
                page.layout(),
                Some(&key_ranges(page).unwrap()[..]),
                "{what}: page {n}"
            );
        }
    }

    #[test]
    fn runs_into_random_trees_match_a_btreemap() {
        for page_size in [512, 4096] {
            for (seed, cmp) in [(3, KeyCmp::Bytes), (4, KeyCmp::IndexEntry)] {
                let p = Pager::new_mem(PagerConfig {
                    page_size,
                    pool_pages: 0,
                })
                .unwrap();
                let mut rng = Rng::seed_from_u64(seed);
                let mut t = BTree::create(&p, cmp).unwrap();
                let mut model = Model::new();
                for round in 0..50 {
                    let what = format!("page {page_size}, {cmp:?}, round {round}");
                    // The tree as rows one at a time leave it…
                    for _ in 0..rng.gen_range(0..30) {
                        let k = random_key(&mut rng, cmp);
                        if rng.gen_range(0..4) == 0 {
                            let was = model.remove(&Keyed(cmp, k.clone())).is_some();
                            assert_eq!(t.remove(&p, &k).unwrap(), was, "{what}");
                        } else {
                            let v = random_value(&mut rng);
                            t.insert(&p, &k, &v).unwrap();
                            model.insert(Keyed(cmp, k), v);
                        }
                    }
                    // …then one run of fresh keys and keys it holds, each
                    // once: now and then long enough to split a leaf into
                    // many pages and the root more than once.
                    let mut batch = Model::new();
                    let len = match rng.gen_range(0..8) {
                        0 => rng.gen_range(200..1200),
                        _ => rng.gen_range(1..60),
                    };
                    for _ in 0..len {
                        let k = match model.keys().nth(rng.gen_range(0..model.len().max(1))) {
                            Some(held) if rng.gen_range(0..3) == 0 => held.1.clone(),
                            _ => random_key(&mut rng, cmp),
                        };
                        batch.insert(Keyed(cmp, k), random_value(&mut rng));
                    }
                    let run = run_of(batch.iter().map(|(k, v)| (&k.1[..], &v[..])));
                    t.insert_sorted(&p, &run).unwrap();
                    // An upsert keeps the stored key, as the model does.
                    let probe = batch.keys().next().map(|k| k.1.clone()).unwrap_or_default();
                    model.extend(batch);
                    assert_same(&t, &p, &model, &[&probe, &random_key(&mut rng, cmp)], &what);
                    assert_pages_encoded(&t, &p, &what);
                }
                let (_, depth) = node_pages(&t, &p);
                let levels = if page_size == 512 { 3 } else { 2 };
                assert!(
                    depth >= levels,
                    "page {page_size}, {cmp:?}: {depth} level(s)"
                );
            }
        }
    }

    #[test]
    fn a_run_is_checked_whole_before_anything_is_written() {
        let p = pager();
        let mut t = BTree::create(&p, KeyCmp::Bytes).unwrap();
        for i in 0..40u64 {
            t.insert(&p, &key(i * 2), b"x").unwrap();
        }
        let (pages, before) = (node_pages(&t, &p).0, p.stats());
        let long = vec![1u8; max_key_len(256) + 1];
        let (k1, k3, k5) = (key(1), key(3), key(5));
        for (run, category) in [
            (
                run_of([(&k1[..], &b"a"[..]), (&long[..], &b"b"[..])]),
                "constraint",
            ),
            (
                run_of([(&k3[..], &b"a"[..]), (&k1[..], &b"b"[..])]),
                "internal",
            ),
            (
                run_of([(&k5[..], &b"a"[..]), (&k5[..], &b"b"[..])]),
                "internal",
            ),
        ] {
            let err = t.insert_sorted(&p, &run).unwrap_err();
            assert_eq!(err.category(), category, "{err}");
        }
        assert_eq!(
            p.stats().images_written,
            before.images_written,
            "nothing written"
        );
        let after = node_pages(&t, &p).0;
        assert!(pages.iter().zip(&after).all(|(a, b)| Arc::ptr_eq(a, b)));
        assert!(t.insert_sorted(&p, &Run::default()).is_ok());
    }

    #[test]
    fn key_ordered_runs_leave_the_nodes_row_at_a_time_leaves() {
        use crowddb_common::{TupleId, Value};
        for page_size in [512, 4096] {
            for cmp in [KeyCmp::Bytes, KeyCmp::IndexEntry] {
                let what = format!("page {page_size}, {cmp:?}");
                let mut rng = Rng::seed_from_u64(page_size as u64);
                let entries: Vec<(Vec<u8>, Vec<u8>)> = (0..3000u64)
                    .map(|i| {
                        let k = match cmp {
                            KeyCmp::Bytes => key(i),
                            KeyCmp::IndexEntry => crate::index::encode_index_entry(
                                &[Value::Str(format!("v{:05}", i / 3))],
                                TupleId(i),
                            ),
                        };
                        (k, random_value(&mut rng))
                    })
                    .collect();
                let p = Pager::new_mem(PagerConfig {
                    page_size,
                    pool_pages: 0,
                })
                .unwrap();
                let mut one = BTree::create(&p, cmp).unwrap();
                for (k, v) in &entries {
                    one.insert(&p, k, v).unwrap();
                }
                let mut runs = BTree::create(&p, cmp).unwrap();
                let mut rest = &entries[..];
                while !rest.is_empty() {
                    let n = rng.gen_range(1..=400usize).min(rest.len());
                    let run = run_of(rest[..n].iter().map(|(k, v)| (&k[..], &v[..])));
                    runs.insert_sorted(&p, &run).unwrap();
                    rest = &rest[n..];
                }
                assert_eq!(one.contents(&p), runs.contents(&p), "{what}");
                assert_pages_encoded(&runs, &p, &what);
                // And one run of all of them, as `CREATE INDEX` builds.
                let mut whole = BTree::create(&p, cmp).unwrap();
                let run = run_of(entries.iter().map(|(k, v)| (&k[..], &v[..])));
                whole.insert_sorted(&p, &run).unwrap();
                assert_eq!(one.contents(&p), whole.contents(&p), "{what}");
            }
        }
    }
}
