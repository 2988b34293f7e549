//! A paged B-tree mapping byte-string keys to byte-string values.
//!
//! One tree backs each table's primary storage (key = `TupleId` as
//! big-endian bytes, value = the codec-encoded row) and each secondary
//! index entry set (key = encoded index values ‖ tid, empty value).
//! Nodes are whole-page encoded/decoded; values larger than
//! `page_size / 8` spill to overflow-page chains; keys are capped at
//! `page_size / 4` (a typed [`CrowdError::Constraint`] otherwise) so a
//! node always holds at least two entries and splits terminate.
//!
//! The tree is split-only: `remove` deletes from the leaf without
//! rebalancing, which keeps the structure a deterministic function of the
//! operation sequence (no merge heuristics) at the cost of slack after
//! heavy deletion — acceptable for CrowdDB's insert-mostly crowd tables.

use std::cmp::Ordering;

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

#[derive(Debug, Clone)]
enum Val {
    Inline(Vec<u8>),
    Overflow { first: PageId, total_len: u64 },
}

#[derive(Debug)]
enum Node {
    Leaf {
        entries: Vec<(Vec<u8>, Val)>,
    },
    Internal {
        keys: Vec<Vec<u8>>,
        children: Vec<PageId>,
    },
}

const OVERFLOW_FLAG: u32 = 1 << 31;

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

fn read_overflow(pager: &Pager, first: PageId, total_len: u64) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(total_len as usize);
    let mut next = first;
    while next != 0 {
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
    let mut next = first;
    while next != 0 {
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

fn resolve_val(pager: &Pager, val: &Val) -> Result<Vec<u8>> {
    match val {
        Val::Inline(bytes) => Ok(bytes.clone()),
        Val::Overflow { first, total_len } => read_overflow(pager, *first, *total_len),
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
        val: Val,
    ) -> Result<Option<(Vec<u8>, PageId)>> {
        let node = decode_node(&pager.read(page_id)?)?;
        match node {
            Node::Leaf { mut entries } => {
                let pos = entries.partition_point(|(k, _)| self.cmp.cmp(k, key) == Ordering::Less);
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
                self.write_split(pager, page_id, Node::Leaf { entries })
            }
            Node::Internal {
                mut keys,
                mut children,
            } => {
                let idx = keys.partition_point(|k| self.cmp.cmp(k, key) != Ordering::Greater);
                if let Some((promoted, right)) = self.insert_rec(pager, children[idx], key, val)? {
                    keys.insert(idx, promoted);
                    children.insert(idx + 1, right);
                    self.write_split(pager, page_id, Node::Internal { keys, children })
                } else {
                    Ok(None)
                }
            }
        }
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

    /// Exact-key lookup.
    pub fn get(&self, pager: &Pager, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let mut page_id = self.root;
        loop {
            match decode_node(&pager.read(page_id)?)? {
                Node::Internal { keys, children } => {
                    let idx = keys.partition_point(|k| self.cmp.cmp(k, key) != Ordering::Greater);
                    page_id = children[idx];
                }
                Node::Leaf { entries } => {
                    let pos =
                        entries.partition_point(|(k, _)| self.cmp.cmp(k, key) == Ordering::Less);
                    return match entries.get(pos) {
                        Some((k, v)) if self.cmp.cmp(k, key) == Ordering::Equal => {
                            Ok(Some(resolve_val(pager, v)?))
                        }
                        _ => Ok(None),
                    };
                }
            }
        }
    }

    /// Remove a key. Returns whether it was present. Leaves are never
    /// merged (split-only policy).
    pub fn remove(&mut self, pager: &Pager, key: &[u8]) -> Result<bool> {
        let mut page_id = self.root;
        loop {
            match decode_node(&pager.read(page_id)?)? {
                Node::Internal { keys, children } => {
                    let idx = keys.partition_point(|k| self.cmp.cmp(k, key) != Ordering::Greater);
                    page_id = children[idx];
                }
                Node::Leaf { mut entries } => {
                    let pos =
                        entries.partition_point(|(k, _)| self.cmp.cmp(k, key) == Ordering::Less);
                    if entries
                        .get(pos)
                        .is_none_or(|(k, _)| self.cmp.cmp(k, key) != Ordering::Equal)
                    {
                        return Ok(false);
                    }
                    let (_, val) = entries.remove(pos);
                    if let Val::Overflow { first, .. } = val {
                        free_overflow(pager, first)?;
                    }
                    let page = encode_node(&Node::Leaf { entries }, pager.page_size())
                        .expect("a shrunk leaf always fits");
                    pager.write(page_id, page)?;
                    return Ok(true);
                }
            }
        }
    }

    /// A cursor positioned before the first entry.
    pub fn cursor_first(&self, pager: &Pager) -> Result<BTreeCursor> {
        let mut cur = BTreeCursor::new();
        cur.descend_leftmost(pager, self.root)?;
        Ok(cur)
    }

    /// A cursor positioned before the first entry whose key is `>= key`.
    pub fn cursor_seek(&self, pager: &Pager, key: &[u8]) -> Result<BTreeCursor> {
        let mut cur = BTreeCursor::new();
        let mut page_id = self.root;
        loop {
            match decode_node(&pager.read(page_id)?)? {
                Node::Internal { keys, children } => {
                    let idx = keys.partition_point(|k| self.cmp.cmp(k, key) != Ordering::Greater);
                    cur.stack.push((page_id, idx));
                    page_id = children[idx];
                }
                Node::Leaf { entries } => {
                    cur.pos =
                        entries.partition_point(|(k, _)| self.cmp.cmp(k, key) == Ordering::Less);
                    cur.leaf = entries;
                    return Ok(cur);
                }
            }
        }
    }

    /// Free every page of the tree (nodes and overflow chains) and leave
    /// a fresh empty root in place.
    pub fn clear(&mut self, pager: &Pager) -> Result<()> {
        free_tree(pager, self.root)?;
        let fresh = BTree::create(pager, self.cmp)?;
        self.root = fresh.root;
        Ok(())
    }

    /// Free every page of the tree, consuming it (index dropped).
    pub fn free(self, pager: &Pager) -> Result<()> {
        free_tree(pager, self.root)
    }
}

fn free_tree(pager: &Pager, page_id: PageId) -> Result<()> {
    match decode_node(&pager.read(page_id)?)? {
        Node::Internal { children, .. } => {
            for child in children {
                free_tree(pager, child)?;
            }
        }
        Node::Leaf { entries } => {
            for (_, val) in entries {
                if let Val::Overflow { first, .. } = val {
                    free_overflow(pager, first)?;
                }
            }
        }
    }
    pager.free_page(page_id);
    Ok(())
}

/// Forward iterator over a [`BTree`]: yields `(key, value)` in key order.
/// The tree must not be mutated while a cursor is open (callers
/// materialize under the table lock).
#[derive(Debug)]
pub struct BTreeCursor {
    /// Path of internal pages and the child index descended at each.
    stack: Vec<(PageId, usize)>,
    leaf: Vec<(Vec<u8>, Val)>,
    pos: usize,
}

impl BTreeCursor {
    fn new() -> BTreeCursor {
        BTreeCursor {
            stack: Vec::new(),
            leaf: Vec::new(),
            pos: 0,
        }
    }

    fn descend_leftmost(&mut self, pager: &Pager, mut page_id: PageId) -> Result<()> {
        loop {
            match decode_node(&pager.read(page_id)?)? {
                Node::Internal { children, .. } => {
                    self.stack.push((page_id, 0));
                    page_id = children[0];
                }
                Node::Leaf { entries } => {
                    self.leaf = entries;
                    self.pos = 0;
                    return Ok(());
                }
            }
        }
    }

    /// The next entry in key order, or `None` at the end.
    pub fn next(&mut self, pager: &Pager) -> Result<Option<(Vec<u8>, Vec<u8>)>> {
        loop {
            if self.pos < self.leaf.len() {
                let (key, val) = &self.leaf[self.pos];
                let out = (key.clone(), resolve_val(pager, val)?);
                self.pos += 1;
                return Ok(Some(out));
            }
            // Leaf exhausted: climb until an internal node has a further
            // child, then descend its leftmost path.
            loop {
                let Some((page_id, idx)) = self.stack.pop() else {
                    return Ok(None);
                };
                let Node::Internal { children, .. } = decode_node(&pager.read(page_id)?)? else {
                    return Err(CrowdError::Internal(
                        "btree: cursor stack entry is not internal".into(),
                    ));
                };
                if idx + 1 < children.len() {
                    self.stack.push((page_id, idx + 1));
                    self.descend_leftmost(pager, children[idx + 1])?;
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::PagerConfig;

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
                t.get(&p, &key(i)).unwrap().as_deref(),
                Some(format!("val-{i}").as_bytes())
            );
        }
        assert_eq!(t.get(&p, &key(500)).unwrap(), None);
    }

    #[test]
    fn upsert_replaces_in_place() {
        let p = pager();
        let mut t = BTree::create(&p, KeyCmp::Bytes).unwrap();
        t.insert(&p, &key(1), b"old").unwrap();
        t.insert(&p, &key(1), b"new").unwrap();
        assert_eq!(t.get(&p, &key(1)).unwrap().as_deref(), Some(&b"new"[..]));
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
        assert_eq!(t.get(&p, &key(42)).unwrap(), None);
        assert_eq!(t.get(&p, &key(41)).unwrap().as_deref(), Some(&b"x"[..]));
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
        assert_eq!(t.get(&p, &key(7)).unwrap().as_deref(), Some(&big[..]));
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
        assert_eq!(t.get(&p, &key(7)).unwrap().as_deref(), Some(&big[..]));
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
    fn clear_frees_all_pages() {
        let p = pager();
        let mut t = BTree::create(&p, KeyCmp::Bytes).unwrap();
        for i in 0..200u64 {
            t.insert(&p, &key(i), b"some value").unwrap();
        }
        t.clear(&p).unwrap();
        assert_eq!(t.get(&p, &key(0)).unwrap(), None);
        // A fresh insert reuses freed pages rather than extending.
        let (free_before, count_before) = p.alloc_state();
        assert!(!free_before.is_empty());
        t.insert(&p, &key(0), b"x").unwrap();
        let (_, count_after) = p.alloc_state();
        assert_eq!(count_before, count_after);
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
}
