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
//! **Reads run on the page.** Every visit parses the page once into a
//! `NodeView` — the pinned `Arc` the pager handed out plus one vector
//! of key positions, every length bounds-checked in that one pass — and
//! `get`, `cursor_seek`, the cursor's climb and the descent of `insert`
//! and `remove` binary-search keys where they lie. The cursor lends: its
//! `next` hands out slices of the pinned leaf, and only a value that
//! lives in an overflow chain is assembled into an owned buffer.
//!
//! **Writes still materialize the node they change**, and only that one:
//! the leaf an insert or remove lands in, plus each ancestor that has to
//! absorb a child's split, is copied out into a `Node`, edited and
//! re-encoded whole by `encode_node`. One encoder is what keeps a page
//! image a function of the node's contents alone (the byte-identity
//! suites lean on that), and a write pays a page-sized copy into the pool
//! regardless.
//!
//! The tree is split-only: `remove` deletes from the leaf without
//! rebalancing, which keeps the structure a deterministic function of the
//! operation sequence (no merge heuristics) at the cost of slack after
//! heavy deletion — acceptable for CrowdDB's insert-mostly crowd tables.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::sync::Arc;

use crowddb_common::codec::{self, Reader};
use crowddb_common::{CrowdError, Result};

use crate::page::{kind, PageId};
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
    let (mut ar, mut br) = (Reader::new(av), Reader::new(bv));
    loop {
        match (ar.is_empty(), br.is_empty()) {
            (true, true) => return atid.cmp(btid),
            (true, false) => return Ordering::Less,
            (false, true) => return Ordering::Greater,
            (false, false) => {}
        }
        // Values compare straight from the page bytes, no allocation.
        match codec::cmp_encoded_values(&mut ar, &mut br) {
            Ok(Ordering::Equal) => continue,
            Ok(other) => return other,
            // Unreachable for keys this module encoded; fall back to a
            // total order rather than panic on foreign bytes.
            Err(_) => return a.cmp(b),
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

/// Largest key accepted by [`BTree::insert`].
pub fn max_key_len(page_size: usize) -> usize {
    page_size / 4
}

/// Largest value stored inline in a leaf; longer values spill to
/// overflow chains.
fn max_inline_val(page_size: usize) -> usize {
    page_size / 8
}

/// A leaf value as the page stores it: the bytes themselves (`B` owns
/// them in a [`Node`], borrows them from the page in a [`NodeView`]) or
/// the head of an overflow chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Val<B> {
    Inline(B),
    Overflow { first: PageId, total_len: u64 },
}

/// A node copied out of its page to be edited and re-encoded.
#[derive(Debug, PartialEq, Eq)]
enum Node {
    Leaf {
        entries: Vec<(Vec<u8>, Val<Vec<u8>>)>,
    },
    Internal {
        keys: Vec<Vec<u8>>,
        children: Vec<PageId>,
    },
}

const OVERFLOW_FLAG: u32 = 1 << 31;

// Page layout, little-endian, zero-padded to the page size:
//   leaf:     [kind][u16 n] n × ([u16 klen][u32 vword][key][value])
//             value = vword bytes inline, or — OVERFLOW_FLAG set in vword —
//             [u64 first overflow page][u64 total_len]
//   internal: [kind][u16 n][u64 child 0] n × ([u16 klen][key][u64 child])
// `encode_node` writes it; `NodeView::parse` is the one place that reads it.

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

/// The `N` bytes at `off`, which [`NodeView::parse`] has bounds-checked.
fn bytes_at<const N: usize>(data: &[u8], off: usize) -> [u8; N] {
    data[off..off + N]
        .try_into()
        .expect("a slice of N bytes is an [u8; N]")
}

/// A node read in place: the page as the pager pinned it, plus where
/// each key lies in it. [`NodeView::parse`] walks the page once and
/// checks every length against the page end, so the accessors index
/// without failing and nothing is copied until a caller asks for an
/// owned [`Node`] part.
#[derive(Debug)]
struct NodeView {
    page: Arc<Vec<u8>>,
    leaf: bool,
    /// `start..end` of each leaf entry's, or each internal separator's,
    /// key, in key order. What belongs to a key sits around it: a leaf
    /// entry's `vword` in the four bytes before, its value right after;
    /// a separator's right-hand child right after.
    keys: Vec<(usize, usize)>,
}

impl NodeView {
    fn parse(page: Arc<Vec<u8>>) -> Result<NodeView> {
        let (leaf, keys) = key_ranges(&page)?;
        Ok(NodeView { page, leaf, keys })
    }

    /// Entries of a leaf; separator keys of an internal node (which has
    /// one more child than that).
    fn len(&self) -> usize {
        self.keys.len()
    }

    fn key(&self, i: usize) -> &[u8] {
        let (start, end) = self.keys[i];
        &self.page[start..end]
    }

    /// The value of leaf entry `i`.
    fn val(&self, i: usize) -> Val<&[u8]> {
        debug_assert!(self.leaf);
        let (key, val) = self.keys[i];
        let vword = u32::from_le_bytes(bytes_at(&self.page, key - 4));
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
            Some(separator) => self.keys[separator].1,
        };
        u64::from_le_bytes(bytes_at(&self.page, off))
    }

    /// How many keys, from the front, `before` holds for.
    fn partition(&self, before: impl Fn(&[u8]) -> bool) -> usize {
        self.keys
            .partition_point(|&(start, end)| before(&self.page[start..end]))
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

    /// Copy a leaf's entries out, to edit and re-encode.
    fn entries(&self) -> Vec<(Vec<u8>, Val<Vec<u8>>)> {
        (0..self.len())
            .map(|i| {
                let val = match self.val(i) {
                    Val::Inline(bytes) => Val::Inline(bytes.to_vec()),
                    Val::Overflow { first, total_len } => Val::Overflow { first, total_len },
                };
                (self.key(i).to_vec(), val)
            })
            .collect()
    }

    /// Copy an internal node's separator keys and children out.
    fn separators(&self) -> (Vec<Vec<u8>>, Vec<PageId>) {
        (
            (0..self.len()).map(|i| self.key(i).to_vec()).collect(),
            (0..=self.len()).map(|i| self.child(i)).collect(),
        )
    }
}

/// The single pass over a node page: its kind (`true` = leaf) and where
/// every key lies, each length checked against the page end.
fn key_ranges(data: &[u8]) -> Result<(bool, Vec<(usize, usize)>)> {
    let corrupt = |what: &str| CrowdError::Internal(format!("btree: corrupt node ({what})"));
    let tag = *data.first().ok_or_else(|| corrupt("empty page"))?;
    let mut off = 3usize;
    let take = |off: &mut usize, n: usize| -> Result<&[u8]> {
        let s = data
            .get(*off..)
            .and_then(|rest| rest.get(..n))
            .ok_or_else(|| corrupt("truncated"))?;
        *off += n;
        Ok(s)
    };
    let take_key = |off: &mut usize, header: usize| -> Result<(usize, usize)> {
        let header = take(off, header)?;
        let klen = u16::from_le_bytes([header[0], header[1]]) as usize;
        take(off, klen)?;
        Ok((*off - klen, *off))
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
                let vword = u32::from_le_bytes(bytes_at(data, key.0 - 4));
                if vword & OVERFLOW_FLAG != 0 {
                    take(&mut off, 16)?;
                } else {
                    take(&mut off, vword as usize)?;
                }
                keys.push(key);
            }
            Ok((true, keys))
        }
        kind::INTERNAL => {
            take(&mut off, 8)?;
            for _ in 0..n {
                keys.push(take_key(&mut off, 2)?);
                take(&mut off, 8)?;
            }
            Ok((false, keys))
        }
        other => Err(corrupt(&format!("unexpected page kind {other}"))),
    }
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
/// child `pick` names and reporting `(page, child index)` to `visit`
/// (cursors keep that path). Returns the leaf and its page id.
fn descend(
    pager: &Pager,
    mut page_id: PageId,
    pick: impl Fn(&NodeView) -> usize,
    mut visit: impl FnMut(PageId, usize),
) -> Result<(PageId, NodeView)> {
    loop {
        let view = NodeView::parse(pager.read(page_id)?)?;
        if view.leaf {
            return Ok((page_id, view));
        }
        let idx = pick(&view);
        visit(page_id, idx);
        page_id = view.child(idx);
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
        let page = encode_node(&Node::Leaf { entries: vec![] }, pager.page_size())
            .expect("empty leaf always fits");
        pager.write(root, page)?;
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

    /// Insert or replace (`upsert`) a key.
    pub fn insert(&mut self, pager: &Pager, key: &[u8], value: &[u8]) -> Result<()> {
        if key.len() > max_key_len(pager.page_size()) {
            return Err(CrowdError::Constraint(format!(
                "index key of {} bytes exceeds the {}-byte limit for page size {}",
                key.len(),
                max_key_len(pager.page_size()),
                pager.page_size()
            )));
        }
        let val = if value.len() > max_inline_val(pager.page_size()) {
            Val::Overflow {
                first: write_overflow(pager, value)?,
                total_len: value.len() as u64,
            }
        } else {
            Val::Inline(value.to_vec())
        };
        if let Some((promoted, right)) = self.insert_rec(pager, self.root, key, val)? {
            let new_root = pager.allocate();
            let node = Node::Internal {
                keys: vec![promoted],
                children: vec![self.root, right],
            };
            let page = encode_node(&node, pager.page_size())
                .expect("two-child root always fits (key is length-capped)");
            pager.write(new_root, page)?;
            self.root = new_root;
        }
        Ok(())
    }

    fn insert_rec(
        &self,
        pager: &Pager,
        page_id: PageId,
        key: &[u8],
        val: Val<Vec<u8>>,
    ) -> Result<Option<(Vec<u8>, PageId)>> {
        let view = NodeView::parse(pager.read(page_id)?)?;
        let node = if view.leaf {
            let pos = view.lower_bound(self.cmp, key);
            let mut entries = view.entries();
            if entries
                .get(pos)
                .is_some_and(|(k, _)| self.cmp.cmp(k, key) == Ordering::Equal)
            {
                if let Val::Overflow { first, .. } = entries[pos].1 {
                    free_overflow(pager, first)?;
                }
                entries[pos].1 = val;
            } else {
                entries.insert(pos, (key.to_vec(), val));
            }
            Node::Leaf { entries }
        } else {
            let idx = view.child_for(self.cmp, key);
            let Some((promoted, right)) = self.insert_rec(pager, view.child(idx), key, val)? else {
                return Ok(None);
            };
            // A child split to absorb: the one time a write materializes
            // an internal node.
            let (mut keys, mut children) = view.separators();
            keys.insert(idx, promoted);
            children.insert(idx + 1, right);
            Node::Internal { keys, children }
        };
        self.write_split(pager, page_id, node)
    }

    /// Write a node back, splitting it if it no longer fits the page.
    fn write_split(
        &self,
        pager: &Pager,
        page_id: PageId,
        node: Node,
    ) -> Result<Option<(Vec<u8>, PageId)>> {
        if let Some(page) = encode_node(&node, pager.page_size()) {
            pager.write(page_id, page)?;
            return Ok(None);
        }
        let page_size = pager.page_size();
        let (left, promoted, right) = match node {
            Node::Leaf { mut entries } => {
                debug_assert!(entries.len() >= 2, "length caps guarantee 2 entries fit");
                let right = entries.split_off(entries.len() / 2);
                let promoted = right[0].0.clone();
                (
                    Node::Leaf { entries },
                    promoted,
                    Node::Leaf { entries: right },
                )
            }
            Node::Internal {
                mut keys,
                mut children,
            } => {
                let mid = keys.len() / 2;
                let promoted = keys[mid].clone();
                let right_keys = keys.split_off(mid + 1);
                keys.pop(); // the promoted key moves up, not right
                let right_children = children.split_off(mid + 1);
                (
                    Node::Internal { keys, children },
                    promoted,
                    Node::Internal {
                        keys: right_keys,
                        children: right_children,
                    },
                )
            }
        };
        let right_id = pager.allocate();
        let left_page = encode_node(&left, page_size)
            .ok_or_else(|| CrowdError::Internal("btree: left half does not fit".into()))?;
        let right_page = encode_node(&right, page_size)
            .ok_or_else(|| CrowdError::Internal("btree: right half does not fit".into()))?;
        pager.write(page_id, left_page)?;
        pager.write(right_id, right_page)?;
        Ok(Some((promoted, right_id)))
    }

    /// The leaf whose key range covers `key`, and its page id; `visit`
    /// as for [`descend`].
    fn leaf_for(
        &self,
        pager: &Pager,
        key: &[u8],
        visit: impl FnMut(PageId, usize),
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
        let mut entries = leaf.entries();
        let (_, val) = entries.remove(pos);
        if let Val::Overflow { first, .. } = val {
            free_overflow(pager, first)?;
        }
        let page = encode_node(&Node::Leaf { entries }, pager.page_size())
            .expect("a shrunk leaf always fits");
        pager.write(page_id, page)?;
        Ok(true)
    }

    /// A cursor positioned before the first entry.
    pub fn cursor_first(&self, pager: &Pager) -> Result<BTreeCursor> {
        let mut stack = Vec::new();
        let (_, leaf) = descend(pager, self.root, |_| 0, |page, idx| stack.push((page, idx)))?;
        Ok(BTreeCursor {
            stack,
            leaf,
            pos: 0,
        })
    }

    /// A cursor positioned before the first entry whose key is `>= key`.
    pub fn cursor_seek(&self, pager: &Pager, key: &[u8]) -> Result<BTreeCursor> {
        let mut stack = Vec::new();
        let (_, leaf) = self.leaf_for(pager, key, |page, idx| stack.push((page, idx)))?;
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
    /// Path of internal pages and the child index descended at each.
    stack: Vec<(PageId, usize)>,
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
            let Some((page_id, idx)) = self.stack.pop() else {
                return Ok(None);
            };
            let parent = NodeView::parse(pager.read(page_id)?)?;
            if parent.leaf {
                return Err(CrowdError::Internal(
                    "btree: cursor stack entry is not internal".into(),
                ));
            }
            if idx < parent.len() {
                let stack = &mut self.stack;
                stack.push((page_id, idx + 1));
                let (_, leaf) = descend(
                    pager,
                    parent.child(idx + 1),
                    |_| 0,
                    |page, idx| stack.push((page, idx)),
                )?;
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
    fn assert_view_matches_oracle(image: &[u8], cmp: KeyCmp, what: &str) {
        match (
            NodeView::parse(Arc::new(image.to_vec())),
            decode_node(image),
        ) {
            (Err(got), Err(want)) => assert_eq!(got.message(), want.message(), "{what}"),
            (Ok(view), Ok(node)) => {
                let copied = if view.leaf {
                    Node::Leaf {
                        entries: view.entries(),
                    }
                } else {
                    let (keys, children) = view.separators();
                    Node::Internal { keys, children }
                };
                assert_eq!(copied, node, "{what}");
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
    fn node_pages(t: &BTree, p: &Pager) -> (Vec<Arc<Vec<u8>>>, usize) {
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
                assert_view_matches_oracle(page, cmp, &format!("{cmp:?} page {n}"));
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
}
