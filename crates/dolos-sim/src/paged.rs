//! A paged table keyed by line, page or node index.
//!
//! The simulator's per-line stores (the NVM device's lines, the Ma-SU's ECC
//! sidecar, the WHISPER environment's volatile line image) are keyed by
//! line index (address / 64) and touched on every simulated write. They
//! are dense inside a few fixed regions (data from address 0, then one
//! region per kind of metadata) and empty everywhere else. The smaller
//! integer-keyed tables have the same shape: the Ma-SU's pending-counter
//! tallies and the Anubis shadow table's key set (counter pages, and
//! MT nodes with bit 63 set), the integrity trees' nodes (keyed by node
//! index past their level's offset) and pending leaves, and the WHISPER
//! workloads' key mirrors. [`PagedTable`] fits that shape: a page holds 64
//! consecutive slots and a presence mask, allocated on first touch; a
//! chunk holds [`CHUNK_PAGES`] page pointers; and a sorted directory of
//! chunks covers the full `u64` key space. The directory is sparse because
//! metadata regions can sit anywhere up to the end of the address space (a
//! trace may write data at 2^63 − 64, which puts its MAC lines above
//! 2^63), so no vector can be sized by the highest key. A lookup finds the chunk by one compare when every chunk below it
//! is present, as in a data region starting at 0, and by a binary search
//! otherwise, then indexes the chunk and the page. Chunks are small (512
//! bytes of pointers) so that a small system, which touches one or two
//! chunks per region, pays no more than the B-tree nodes this replaced.
//!
//! Iteration walks chunks, pages and mask bits in order, so it is always in
//! ascending key order and a pure function of the contents.
//!
//! # Examples
//!
//! ```
//! use dolos_sim::paged::PagedTable;
//!
//! let mut t: PagedTable<u64> = PagedTable::new();
//! *t.entry(1 << 57) += 5;
//! *t.entry(3) += 1;
//! assert_eq!(t.get(3), Some(&1));
//! assert_eq!(t.get(4), None); // same page, never touched
//! let keys: Vec<u64> = t.iter().map(|(k, _)| k).collect();
//! assert_eq!(keys, vec![3, 1 << 57]); // always sorted
//! ```

use std::fmt;

/// Slots per page.
pub const PAGE_SLOTS: usize = 64;

/// Page pointers per chunk of the directory.
pub const CHUNK_PAGES: usize = 64;

const PAGE_SHIFT: u32 = PAGE_SLOTS.trailing_zeros();
const CHUNK_SHIFT: u32 = PAGE_SHIFT + CHUNK_PAGES.trailing_zeros();

/// [`PAGE_SLOTS`] slots and the mask of the ones holding an entry.
#[derive(Clone)]
struct Page<T> {
    present: u64,
    slots: [T; PAGE_SLOTS],
}

impl<T: Default> Page<T> {
    fn new() -> Self {
        Self {
            present: 0,
            slots: std::array::from_fn(|_| T::default()),
        }
    }
}

impl<T> Page<T> {
    /// The page's entries in slot order, keyed from `base`.
    fn entries(&self, base: u64) -> impl Iterator<Item = (u64, &T)> {
        let mut mask = self.present;
        std::iter::from_fn(move || {
            if mask == 0 {
                return None;
            }
            let slot = mask.trailing_zeros();
            mask &= mask - 1;
            Some((base | u64::from(slot), &self.slots[slot as usize]))
        })
    }
}

type Chunk<T> = [Option<Box<Page<T>>>; CHUNK_PAGES];

fn page_in_chunk(key: u64) -> usize {
    (key >> PAGE_SHIFT) as usize % CHUNK_PAGES
}

fn slot_bit(key: u64) -> (usize, u64) {
    let slot = key as usize % PAGE_SLOTS;
    (slot, 1 << slot)
}

/// A map from `u64` keys to `T`, stored in pages of [`PAGE_SLOTS`]
/// consecutive keys.
#[derive(Clone)]
pub struct PagedTable<T> {
    /// Chunk numbers (`key >> CHUNK_SHIFT`) in use, ascending.
    chunk_keys: Vec<u64>,
    /// `chunks[i]` holds the pages of chunk `chunk_keys[i]`.
    chunks: Vec<Chunk<T>>,
    len: usize,
}

impl<T> Default for PagedTable<T> {
    fn default() -> Self {
        Self {
            chunk_keys: Vec::new(),
            chunks: Vec::new(),
            len: 0,
        }
    }
}

/// Equal when both hold the same keys with equal values: pages emptied by
/// [`PagedTable::remove`] or [`PagedTable::clear`] do not count.
impl<T: PartialEq> PartialEq for PagedTable<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl<T: fmt::Debug> fmt::Debug for PagedTable<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<T> PagedTable<T> {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The directory position of `chunk`, or where to insert it. Chunks
    /// from 0 up are usually all present (data starts at address 0), and
    /// then chunk `c` sits at position `c`: one compare, no search.
    fn find(&self, chunk: u64) -> Result<usize, usize> {
        match usize::try_from(chunk)
            .ok()
            .and_then(|c| self.chunk_keys.get(c))
        {
            Some(&k) if k == chunk => Ok(chunk as usize),
            _ => self.chunk_keys.binary_search(&chunk),
        }
    }

    fn page(&self, key: u64) -> Option<&Page<T>> {
        let i = self.find(key >> CHUNK_SHIFT).ok()?;
        self.chunks.get(i)?[page_in_chunk(key)].as_deref()
    }

    fn page_mut(&mut self, key: u64) -> Option<&mut Page<T>> {
        let i = self.find(key >> CHUNK_SHIFT).ok()?;
        self.chunks.get_mut(i)?[page_in_chunk(key)].as_deref_mut()
    }

    /// The value under `key`, if any.
    pub fn get(&self, key: u64) -> Option<&T> {
        let page = self.page(key)?;
        let (slot, bit) = slot_bit(key);
        (page.present & bit != 0).then(|| &page.slots[slot])
    }

    /// The value under `key` for update in place, if any.
    pub fn get_mut(&mut self, key: u64) -> Option<&mut T> {
        let page = self.page_mut(key)?;
        let (slot, bit) = slot_bit(key);
        (page.present & bit != 0).then(|| &mut page.slots[slot])
    }

    /// True when `key` holds an entry.
    pub fn contains_key(&self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// Iterates entries in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        self.iter_from(0)
    }

    /// Iterates entries whose keys fall in `start..end`, in ascending key
    /// order. Empty when `start >= end`.
    pub fn range(&self, start: u64, end: u64) -> impl Iterator<Item = (u64, &T)> {
        self.iter_from(start).take_while(move |&(k, _)| k < end)
    }

    /// Entries with keys `>= start`, ascending: whole chunks and pages
    /// below `start` are skipped without visiting their slots.
    fn iter_from(&self, start: u64) -> impl Iterator<Item = (u64, &T)> {
        let first = self
            .chunk_keys
            .partition_point(|&c| c < start >> CHUNK_SHIFT);
        let start_page = start >> PAGE_SHIFT;
        self.chunk_keys[first..]
            .iter()
            .zip(&self.chunks[first..])
            .flat_map(move |(&chunk, pages)| {
                pages.iter().enumerate().filter_map(move |(i, page)| {
                    let number = (chunk << CHUNK_SHIFT >> PAGE_SHIFT) | i as u64;
                    let page = page.as_deref().filter(|_| number >= start_page)?;
                    Some(page.entries(number << PAGE_SHIFT))
                })
            })
            .flatten()
            .skip_while(move |&(k, _)| k < start)
    }

    /// Removes every entry. Pages stay allocated, so refilling the same
    /// keys allocates nothing, and the cost follows the pages held, not
    /// the key space. A slot's old value is dropped when it is overwritten
    /// or the table is dropped.
    pub fn clear(&mut self) {
        for page in self.chunks.iter_mut().flatten().flatten() {
            page.present = 0;
        }
        self.len = 0;
    }
}

impl<T: Default> PagedTable<T> {
    /// The value under `key`, inserting `f()` first if it is absent. A
    /// first touch of a page allocates it.
    pub fn get_or_insert_with(&mut self, key: u64, f: impl FnOnce() -> T) -> &mut T {
        let chunk = key >> CHUNK_SHIFT;
        let i = match self.find(chunk) {
            Ok(i) => i,
            Err(i) => {
                self.chunk_keys.insert(i, chunk);
                self.chunks.insert(i, [const { None }; CHUNK_PAGES]);
                i
            }
        };
        let page = self.chunks[i][page_in_chunk(key)]
            // One allocation per 64-line page, on first touch only: a
            // steady-state window over touched lines allocates nothing.
            .get_or_insert_with(|| Box::new(Page::new()));
        let (slot, bit) = slot_bit(key);
        if page.present & bit == 0 {
            page.present |= bit;
            page.slots[slot] = f();
            self.len += 1;
        }
        &mut page.slots[slot]
    }

    /// The value under `key`, inserting `T::default()` first if it is
    /// absent (the `entry().or_default()` pattern).
    pub fn entry(&mut self, key: u64) -> &mut T {
        self.get_or_insert_with(key, T::default)
    }

    /// Removes `key`, returning its value if it was present. The page
    /// stays allocated.
    pub fn remove(&mut self, key: u64) -> Option<T> {
        let page = self.page_mut(key)?;
        let (slot, bit) = slot_bit(key);
        if page.present & bit == 0 {
            return None;
        }
        page.present &= !bit;
        let value = std::mem::take(&mut page.slots[slot]);
        self.len -= 1;
        Some(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `PmEnv` loads a line from memory inside the closure, so it must run
    /// on a miss only. The rest of the map semantics are pinned against
    /// `BTreeMap` in `tests/paged_props.rs`.
    #[test]
    fn get_or_insert_with_runs_only_on_absent_keys() {
        let mut t: PagedTable<u64> = PagedTable::new();
        let mut calls = 0;
        for _ in 0..3 {
            *t.get_or_insert_with(9, || {
                calls += 1;
                100
            }) += 1;
        }
        assert_eq!((calls, t.get(9)), (1, Some(&103)));
        assert_eq!(t.remove(9), Some(103));
        *t.get_or_insert_with(9, || {
            calls += 1;
            0
        }) += 1;
        assert_eq!((calls, t.get(9)), (2, Some(&1)));
    }
}
