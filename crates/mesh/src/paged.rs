//! A dense `u32`-keyed table stored in lazily allocated pages.
//!
//! Simulator state keyed by small, dense integers — cache-line addresses
//! in the coherence backends, service-point ids in the [`Arbiter`] — is
//! cheapest as a flat array, but the keys come from traces and request
//! logs, so one stray key near `u32::MAX` must not allocate a 4 G-entry
//! array. [`PagedTable`] splits the key space into fixed pages of 4 K
//! entries and allocates a page on its first write. A lookup is one
//! shift, one mask and two loads. The page directory holds one 8-byte
//! pointer per page up to the highest page touched (2 MB for a key of
//! `u32::MAX / 4`, 8 MB for the whole `u32` range), allocated zeroed, so
//! only the parts of it in use become resident.
//!
//! [`Arbiter`]: crate::Arbiter

/// Entries per page (4 K).
const PAGE_LEN: usize = 1 << PAGE_BITS;
const PAGE_BITS: u32 = 12;
/// Pages needed to cover every `u32` key.
const MAX_PAGES: usize = 1 << (32 - PAGE_BITS);

/// A `u32 → T` map over a dense key space; every key reads as
/// `T::default()` until it is first written. See [module docs](self).
#[derive(Clone, Debug, Default)]
pub struct PagedTable<T> {
    pages: Vec<Option<Box<[T; PAGE_LEN]>>>,
}

impl<T: Copy + Default> PagedTable<T> {
    /// An empty table (no pages allocated).
    pub fn new() -> Self {
        PagedTable { pages: Vec::new() }
    }

    /// The entry for `key`, allocating its page (default-filled) on first
    /// touch.
    #[inline]
    pub fn entry(&mut self, key: u32) -> &mut T {
        let page = (key >> PAGE_BITS) as usize;
        if page >= self.pages.len() {
            self.grow_to(page);
        }
        let slots = self.pages[page].get_or_insert_with(|| {
            vec![T::default(); PAGE_LEN]
                .into_boxed_slice()
                .try_into()
                .unwrap_or_else(|_| unreachable!("a PAGE_LEN vec converts to a page"))
        });
        &mut slots[key as usize & (PAGE_LEN - 1)]
    }

    /// Grows the page directory to cover `page`, at least doubling it.
    /// `vec![None; n]` allocates zeroed memory, so directory entries that
    /// are never touched cost address space, not resident memory.
    #[cold]
    fn grow_to(&mut self, page: usize) {
        let len = (page + 1).max(2 * self.pages.len()).min(MAX_PAGES);
        let mut grown = vec![None; len];
        for (slot, old) in grown.iter_mut().zip(self.pages.drain(..)) {
            *slot = old;
        }
        self.pages = grown;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pages_allocated<T>(t: &PagedTable<T>) -> usize {
        t.pages.iter().filter(|p| p.is_some()).count()
    }

    #[test]
    fn untouched_keys_read_as_default() {
        let mut t: PagedTable<u64> = PagedTable::new();
        assert_eq!(*t.entry(7), 0);
        *t.entry(7) = 3;
        assert_eq!(*t.entry(7), 3);
        assert_eq!(*t.entry(8), 0);
        assert_eq!(pages_allocated(&t), 1);
    }

    #[test]
    fn keys_on_page_boundaries_are_distinct() {
        let mut t: PagedTable<u32> = PagedTable::new();
        let keys = [0, PAGE_LEN as u32 - 1, PAGE_LEN as u32, 3 * PAGE_LEN as u32 + 1];
        for (i, &k) in keys.iter().enumerate() {
            *t.entry(k) = i as u32 + 1;
        }
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(*t.entry(k), i as u32 + 1, "key {k}");
        }
        assert_eq!(pages_allocated(&t), 3);
    }

    #[test]
    fn the_largest_key_allocates_one_page() {
        let mut t: PagedTable<u8> = PagedTable::new();
        *t.entry(u32::MAX) = 9;
        assert_eq!(*t.entry(u32::MAX), 9);
        assert_eq!(*t.entry(u32::MAX - 1), 0);
        assert_eq!(pages_allocated(&t), 1);
        assert_eq!(t.pages.len(), (u32::MAX as usize >> PAGE_BITS) + 1);
    }
}
