//! Fixed-size pages: identifiers, kinds, and the on-page byte layout
//! constants shared by the pager and the B-tree.
//!
//! Every page starts with a one-byte kind tag. Page 0 of a page file is
//! reserved for the file header (magic + page size) so a reopened file
//! can be validated before any tree is walked; in-memory page stores keep
//! the same layout so code paths stay uniform.

use std::ops::Deref;
use std::sync::OnceLock;

use crowddb_common::{CrowdError, Result};

/// Identifier of one fixed-size page. Page ids are dense: they double as
/// offsets into the page file (`offset = id * page_size`).
pub type PageId = u64;

/// The reserved header page of a page file.
pub const HEADER_PAGE: PageId = 0;

/// Magic prefix of the header page (page 0) of a page file.
pub const PAGE_FILE_MAGIC: &[u8; 8] = b"CDBPAGE1";

/// Default page size in bytes.
pub const DEFAULT_PAGE_SIZE: usize = 4096;

/// Smallest supported page size. Below this a B-tree node cannot hold
/// enough entries to make progress (splits would not terminate).
pub const MIN_PAGE_SIZE: usize = 256;

/// Page kind tags (byte 0 of every page).
pub mod kind {
    /// Unallocated / zeroed page.
    pub const FREE: u8 = 0;
    /// B-tree leaf node.
    pub const LEAF: u8 = 1;
    /// B-tree internal node.
    pub const INTERNAL: u8 = 2;
    /// Overflow chunk of a large value.
    pub const OVERFLOW: u8 = 3;
    /// The file header page (page 0).
    pub const HEADER: u8 = 4;
}

/// A page image as the pager hands it out: the bytes, never changed while
/// anyone else can see them — a write wraps a fresh image, and a read
/// refills only an image no one else holds — and, for a B-tree node,
/// where its keys start, found by the B-tree's parser on the first read
/// that needs it and kept with the bytes it describes. Being tied to the
/// image, the layout needs no invalidation: whoever still holds the old
/// image after a write holds the old layout with it, and a refill, which
/// needs the image unshared, forgets it.
#[derive(Debug)]
pub struct Page {
    bytes: Vec<u8>,
    layout: OnceLock<Box<[u32]>>,
}

impl Page {
    /// Wrap an image; nothing is parsed yet.
    pub(crate) fn new(bytes: Vec<u8>) -> Page {
        Page {
            bytes,
            layout: OnceLock::new(),
        }
    }

    /// Wrap an image whose layout its builder already knows: a B-tree
    /// node it assembled entry by entry, which no parse need walk again.
    pub(crate) fn with_layout(bytes: Vec<u8>, layout: Vec<u32>) -> Page {
        Page {
            bytes,
            layout: OnceLock::from(layout.into_boxed_slice()),
        }
    }

    /// An all-zero image of `len` bytes.
    pub(crate) fn zeroed(len: usize) -> Page {
        Page::new(vec![0; len])
    }

    /// Overwrite the bytes in place with `fill`, forgetting the layout of
    /// the old ones first. `&mut`: only an image no one else holds (one
    /// out of `Arc::get_mut`) is ever refilled. If `fill` fails, the bytes
    /// are whatever it left.
    pub(crate) fn refill(&mut self, fill: impl FnOnce(&mut [u8]) -> Result<()>) -> Result<()> {
        self.layout = OnceLock::new();
        fill(&mut self.bytes)
    }

    /// The layout a successful parse stored, if any.
    pub(crate) fn layout(&self) -> Option<&[u32]> {
        self.layout.get().map(|layout| &**layout)
    }

    /// The stored layout, or `parse`'s result on these bytes — kept only
    /// if it is one, so an image that fails to parse fails again, the
    /// same way, on every read. Two readers racing to the first parse
    /// both run it and keep the one that lands first: the same offsets.
    pub(crate) fn layout_or(
        &self,
        parse: impl FnOnce(&[u8]) -> Result<Vec<u32>>,
    ) -> Result<&[u32]> {
        if let Some(layout) = self.layout() {
            return Ok(layout);
        }
        let layout = parse(&self.bytes)?;
        Ok(self.layout.get_or_init(|| layout.into_boxed_slice()))
    }
}

impl Deref for Page {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.bytes
    }
}

/// Validate a requested page size.
pub fn check_page_size(page_size: usize) -> Result<()> {
    if page_size < MIN_PAGE_SIZE {
        return Err(CrowdError::Internal(format!(
            "page size {page_size} below minimum {MIN_PAGE_SIZE}"
        )));
    }
    if page_size > u32::MAX as usize {
        return Err(CrowdError::Internal(format!(
            "page size {page_size} exceeds u32 range"
        )));
    }
    Ok(())
}

/// Build the header page contents for a page file of `page_size`.
pub fn header_page(page_size: usize) -> Vec<u8> {
    let mut p = vec![0u8; page_size];
    p[0] = kind::HEADER;
    p[1..9].copy_from_slice(PAGE_FILE_MAGIC);
    p[9..13].copy_from_slice(&(page_size as u32).to_le_bytes());
    p
}

/// Validate a header page read back from disk, returning the recorded
/// page size.
pub fn parse_header_page(data: &[u8]) -> Result<usize> {
    if data.len() < 13 || data[0] != kind::HEADER || &data[1..9] != PAGE_FILE_MAGIC {
        return Err(CrowdError::Internal(
            "page file: bad header page (not a CrowdDB page file)".into(),
        ));
    }
    let ps = u32::from_le_bytes([data[9], data[10], data[11], data[12]]) as usize;
    check_page_size(ps)?;
    Ok(ps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_round_trips() {
        let p = header_page(512);
        assert_eq!(parse_header_page(&p).unwrap(), 512);
    }

    #[test]
    fn bad_header_rejected() {
        assert!(parse_header_page(&[0u8; 64]).is_err());
        let mut p = header_page(512);
        p[3] ^= 0xff;
        assert!(parse_header_page(&p).is_err());
    }

    #[test]
    fn a_layout_is_kept_only_when_the_parse_succeeds() {
        let page = Page::new(vec![1, 2, 3]);
        let fails = |_: &[u8]| Err(CrowdError::Internal("no".into()));
        assert!(page.layout_or(fails).is_err());
        assert!(page.layout().is_none());
        assert_eq!(
            page.layout_or(|bytes| Ok(vec![bytes[2] as u32])).unwrap(),
            [3]
        );
        // Stored: the next parse is not run.
        assert_eq!(page.layout_or(fails).unwrap(), [3]);
        assert_eq!(&*page, [1, 2, 3]);
    }

    #[test]
    fn page_size_bounds() {
        assert!(check_page_size(MIN_PAGE_SIZE).is_ok());
        assert!(check_page_size(MIN_PAGE_SIZE - 1).is_err());
        assert!(check_page_size(DEFAULT_PAGE_SIZE).is_ok());
    }
}
