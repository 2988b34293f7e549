//! The buffer pool: an in-memory cache of fixed-size pages with a
//! deterministic LRU eviction policy.
//!
//! The pool is a *no-steal* cache: dirty pages (written since the last
//! checkpoint flush) are never evicted — they stay resident until a
//! checkpoint writes them to stable storage and marks them clean. Only
//! clean pages are evictable, and evicting a clean page is a pure drop
//! (the backend already holds identical bytes), so pool size can never
//! affect query results — only hit/miss counters. Eviction order is
//! least-recently-used driven by a logical access counter, which makes
//! the cache state itself a deterministic function of the access
//! sequence. Under a budget the clean frames are also queued in that
//! order, so finding the victim — or finding that there is none, which
//! under no-steal is every page write of a bulk load — does not walk the
//! pool. A hit does not touch the queue: a frame waits where it was
//! queued and is moved to where its last use puts it only when it reaches
//! the front, which picks the same victim (see `evict_over_budget`).
//!
//! An evicted image that no one else holds is kept as the *spare* (one at
//! most), which the pager's next miss refills in place instead of
//! allocating a new image; the counters do not see the difference.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use crate::page::{Page, PageId};

/// Cumulative pager/pool counters. Monotonic within a session; snapshot
/// and diff them to attribute work to an operator or a checkpoint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PagerStats {
    /// Pages fetched from the backend (pool misses that did I/O).
    pub pages_read: u64,
    /// Pages flushed to stable storage by checkpoints.
    pub pages_written: u64,
    /// Page images handed to [`Pager::write`](crate::Pager::write): what
    /// the B-tree rewrote, each time it rewrote it.
    pub images_written: u64,
    /// Page requests answered from the pool.
    pub pool_hits: u64,
    /// Page requests that missed the pool.
    pub pool_misses: u64,
    /// Clean pages dropped to respect the pool budget.
    pub evictions: u64,
}

impl PagerStats {
    /// Component-wise difference (`self` must be the later snapshot).
    pub fn diff(&self, earlier: &PagerStats) -> PagerStats {
        PagerStats {
            pages_read: self.pages_read - earlier.pages_read,
            pages_written: self.pages_written - earlier.pages_written,
            images_written: self.images_written - earlier.images_written,
            pool_hits: self.pool_hits - earlier.pool_hits,
            pool_misses: self.pool_misses - earlier.pool_misses,
            evictions: self.evictions - earlier.evictions,
        }
    }
}

#[derive(Debug)]
struct Frame {
    data: Arc<Page>,
    dirty: bool,
    last_use: u64,
    /// The `last_use` a clean frame is queued under in `BufferPool::clean`
    /// (never later than `last_use`).
    queued: u64,
}

/// The page cache. Owned by the pager behind its lock; all methods are
/// plain `&mut self`.
#[derive(Debug)]
pub struct BufferPool {
    frames: HashMap<PageId, Frame>,
    /// The clean frames as `(queued, id)`: the eviction order, up to the
    /// hits since. Empty, and not maintained, without a budget.
    clean: BTreeSet<(u64, PageId)>,
    /// Maximum resident pages; `0` = unbounded. Dirty pages are exempt
    /// (no-steal), so the pool may transiently exceed the budget when
    /// more than `budget` pages are dirty between checkpoints.
    budget: usize,
    tick: u64,
    /// An evicted image whose last reference the pool held: see
    /// [`BufferPool::spare`]. A miss takes it and the eviction that
    /// follows puts one back, so one is enough.
    spare: Option<Arc<Page>>,
    /// Shared counters (the pager also bumps `pages_read`/`pages_written`
    /// here so one snapshot covers the whole storage engine).
    pub stats: PagerStats,
}

impl BufferPool {
    /// A pool holding at most `budget` pages (`0` = unbounded).
    pub fn new(budget: usize) -> BufferPool {
        BufferPool {
            frames: HashMap::new(),
            clean: BTreeSet::new(),
            budget,
            tick: 0,
            spare: None,
            stats: PagerStats::default(),
        }
    }

    /// The configured budget (`0` = unbounded).
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Look up a resident page, counting a hit or miss.
    pub fn get(&mut self, id: PageId) -> Option<Arc<Page>> {
        self.tick += 1;
        match self.frames.get_mut(&id) {
            Some(f) => {
                f.last_use = self.tick;
                self.stats.pool_hits += 1;
                Some(Arc::clone(&f.data))
            }
            None => {
                self.stats.pool_misses += 1;
                None
            }
        }
    }

    /// An image an eviction dropped from the pool, unshared then and
    /// since — no reference to it ever left the pool — for the pager to
    /// refill with the next page it reads.
    pub fn spare(&mut self) -> Option<Arc<Page>> {
        self.spare.take()
    }

    /// Install a page just fetched from the backend (clean), evicting if
    /// over budget.
    pub fn install_clean(&mut self, id: PageId, data: Arc<Page>) {
        self.put(id, data, false);
    }

    /// Install or overwrite a page with fresh contents. `dirty` marks it
    /// pending a checkpoint flush (file-backed pagers); write-through
    /// backends pass `false` because the backend was updated in place.
    pub fn put(&mut self, id: PageId, data: Arc<Page>, dirty: bool) {
        self.tick += 1;
        let frame = Frame {
            data,
            dirty,
            last_use: self.tick,
            queued: self.tick,
        };
        let old = self.frames.insert(id, frame);
        if self.budget != 0 {
            if let Some(old) = old.filter(|old| !old.dirty) {
                self.clean.remove(&(old.queued, id));
            }
            if !dirty {
                self.clean.insert((self.tick, id));
            }
        }
        self.evict_over_budget();
    }

    /// Drop a page from the cache entirely (page freed).
    pub fn remove(&mut self, id: PageId) {
        if let Some(f) = self.frames.remove(&id) {
            self.clean.remove(&(f.queued, id));
        }
    }

    /// All dirty pages, sorted by page id (deterministic flush order).
    pub fn dirty_pages(&self) -> Vec<(PageId, Arc<Page>)> {
        let mut out: Vec<(PageId, Arc<Page>)> = self
            .frames
            .iter()
            .filter(|(_, f)| f.dirty)
            .map(|(id, f)| (*id, Arc::clone(&f.data)))
            .collect();
        out.sort_by_key(|(id, _)| *id);
        out
    }

    /// Number of dirty pages currently resident.
    pub fn dirty_count(&self) -> usize {
        self.frames.values().filter(|f| f.dirty).count()
    }

    /// Number of resident pages (clean + dirty).
    pub fn resident(&self) -> usize {
        self.frames.len()
    }

    /// Mark every dirty page clean (checkpoint flush completed), making
    /// them evictable again — each as recently used as it was — then
    /// shrink back under budget.
    pub fn mark_all_clean(&mut self) {
        for (id, f) in &mut self.frames {
            if f.dirty && self.budget != 0 {
                f.queued = f.last_use;
                self.clean.insert((f.queued, *id));
            }
            f.dirty = false;
        }
        self.evict_over_budget();
    }

    /// Evict least-recently-used *clean* pages while over budget.
    ///
    /// The front of the queue is the victim unless it has been hit since
    /// it was queued; then it is requeued under its last use and the new
    /// front is asked. Every frame is queued no later than its last use,
    /// so a front that *is* up to date is older than every other clean
    /// frame's last use: the `(last_use, id)` minimum, as a walk over the
    /// whole pool would have found.
    fn evict_over_budget(&mut self) {
        if self.budget == 0 {
            return;
        }
        while self.frames.len() > self.budget {
            // Nothing clean: no-steal forbids evicting what is left.
            let Some((queued, id)) = self.clean.pop_first() else {
                break;
            };
            let frame = self
                .frames
                .get_mut(&id)
                .expect("a queued frame is resident");
            if frame.last_use != queued {
                frame.queued = frame.last_use;
                self.clean.insert((frame.queued, id));
                continue;
            }
            let gone = self.frames.remove(&id).expect("a queued frame is resident");
            // The pool held the last reference: keep the image to refill.
            if Arc::strong_count(&gone.data) == 1 {
                self.spare = Some(gone.data);
            }
            self.stats.evictions += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(b: u8) -> Arc<Page> {
        Arc::new(Page::new(vec![b; 16]))
    }

    #[test]
    fn hit_miss_counting() {
        let mut p = BufferPool::new(0);
        assert!(p.get(1).is_none());
        p.install_clean(1, page(1));
        assert!(p.get(1).is_some());
        assert_eq!(p.stats.pool_hits, 1);
        assert_eq!(p.stats.pool_misses, 1);
    }

    #[test]
    fn lru_eviction_of_clean_pages() {
        let mut p = BufferPool::new(2);
        p.install_clean(1, page(1));
        p.install_clean(2, page(2));
        p.get(1); // 2 is now least-recently-used
        p.install_clean(3, page(3));
        assert_eq!(p.resident(), 2);
        assert!(p.get(2).is_none(), "LRU clean page evicted");
        assert!(p.get(1).is_some());
        assert_eq!(p.stats.evictions, 1);
    }

    #[test]
    fn dirty_pages_are_never_evicted() {
        let mut p = BufferPool::new(1);
        p.put(1, page(1), true);
        p.put(2, page(2), true);
        p.install_clean(3, page(3));
        // Clean page 3 is the only candidate; dirty 1 and 2 stay.
        assert_eq!(p.dirty_count(), 2);
        assert!(p.get(1).is_some());
        assert!(p.get(2).is_some());
    }

    #[test]
    fn mark_all_clean_enables_eviction() {
        let mut p = BufferPool::new(1);
        p.put(1, page(1), true);
        p.put(2, page(2), true);
        assert_eq!(p.resident(), 2);
        p.mark_all_clean();
        assert_eq!(p.resident(), 1);
        assert_eq!(p.dirty_count(), 0);
    }

    /// A frame that turns clean re-enters the eviction order where its
    /// last use puts it, not at either end.
    #[test]
    fn frames_marked_clean_are_evicted_in_order_of_last_use() {
        let mut p = BufferPool::new(4);
        p.put(1, page(1), true);
        p.install_clean(2, page(2));
        p.put(3, page(3), true);
        p.install_clean(4, page(4));
        p.get(1); // dirty 1 is now the most recently used of the four
        p.mark_all_clean();
        assert_eq!((p.resident(), p.stats.evictions), (4, 0));
        // Oldest first, whether it was clean all along or has just turned
        // clean: 2, 3, 4, and 1 last.
        for (fresh, gone) in [(5, 2), (6, 3), (7, 4), (8, 1)] {
            p.install_clean(fresh, page(fresh as u8));
            assert_eq!(p.resident(), 4);
            let hits = p.stats.pool_hits;
            assert!(p.get(gone).is_none(), "{gone} evicted for {fresh}");
            assert_eq!(p.stats.pool_hits, hits);
        }
        assert_eq!(p.stats.evictions, 4);
        // Overwriting a clean frame dirty takes it out of the order; a
        // freed page leaves it too.
        p.put(5, page(0), true);
        p.remove(6);
        p.install_clean(9, page(9));
        p.install_clean(10, page(10));
        assert_eq!(p.resident(), 4);
        assert!(p.get(7).is_none(), "7 was the oldest clean frame left");
        assert!(p.get(5).is_some() && p.get(8).is_some());
    }

    #[test]
    fn an_evicted_image_is_kept_as_a_spare_only_if_unshared() {
        let mut p = BufferPool::new(1);
        p.install_clean(1, page(1));
        let held = p.get(1).unwrap();
        p.install_clean(2, page(2)); // evicts 1, which `held` still holds
        assert!(p.spare().is_none());
        p.install_clean(3, page(3)); // evicts 2: the pool held the last reference
        let spare = p.spare().expect("2's image is a spare");
        assert_eq!(spare[0], 2);
        assert!(p.spare().is_none(), "handed out once");
        // One spare at most: a checkpoint that evicts many keeps one.
        let mut p = BufferPool::new(0);
        for id in 0..10 {
            p.put(id, page(id as u8), true);
        }
        p.budget = 1;
        p.mark_all_clean();
        assert_eq!(p.stats.evictions, 9);
        assert_eq!(std::iter::from_fn(|| p.spare()).count(), 1);
        drop(held);
    }

    #[test]
    fn dirty_pages_sorted_by_id() {
        let mut p = BufferPool::new(0);
        p.put(5, page(5), true);
        p.put(1, page(1), true);
        p.put(3, page(3), false);
        let ids: Vec<PageId> = p.dirty_pages().iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![1, 5]);
    }

    #[test]
    fn unbounded_pool_never_evicts() {
        let mut p = BufferPool::new(0);
        for i in 0..100 {
            p.install_clean(i, page(i as u8));
        }
        assert_eq!(p.resident(), 100);
        assert_eq!(p.stats.evictions, 0);
    }
}
