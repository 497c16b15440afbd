//! Fixed-size slotted pages for variable-width tuples.
//!
//! Layout (offsets in bytes, little-endian):
//!
//! ```text
//! 0..2    slot_count   number of slot entries (live + dead)
//! 2..4    free_end     offset of the lowest cell byte (cells grow downward)
//! 4..8    next_page    PageId + 1 of the next page in an overflow chain, 0 = none
//! 8..     slot array   4 bytes per slot: cell offset u16, cell length u16
//! ...     free space
//! ...8192 cell area    tuple bytes, allocated from the end of the page
//! ```
//!
//! A dead slot has `offset == 0` (no cell can start inside the header, so 0
//! is never a valid cell offset). Slot ids are stable across deletes and
//! in-page relocation — external row directories point at `(page, slot)` —
//! and dead slots are reused by later inserts. When the contiguous gap
//! between the slot array and the cell area is too small but the page's
//! total free space suffices, the page compacts itself in place.

use crate::error::{Error, Result};

/// Size of every page, on disk and in memory: 8 KiB, PostgreSQL's default.
pub const PAGE_SIZE: usize = 8192;

/// Page number within a pager's address space.
pub type PageId = u32;

const HEADER: usize = 8;
const SLOT: usize = 4;

/// Largest tuple that fits inline in a fresh page (one slot entry).
pub const MAX_INLINE_TUPLE: usize = PAGE_SIZE - HEADER - SLOT;

/// One 8 KiB slotted page.
///
/// `Clone` supports the buffer pool's copy-on-write mutation path: frames
/// hold `Arc<Page>` so immutable leases can be handed to other threads,
/// and a mutable guard clones the image only if a lease still references
/// the old one ([`Arc::make_mut`](std::sync::Arc::make_mut)).
#[derive(Clone)]
pub struct Page {
    data: [u8; PAGE_SIZE],
}

impl Default for Page {
    fn default() -> Self {
        Page::new()
    }
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Page")
            .field("slot_count", &self.slot_count())
            .field("free_space", &self.free_space())
            .field("next_page", &self.next_page())
            .finish()
    }
}

impl Page {
    /// A fresh, empty page.
    pub fn new() -> Self {
        let mut page = Page {
            data: [0; PAGE_SIZE],
        };
        page.set_free_end(PAGE_SIZE as u16);
        page
    }

    /// Reset to the empty state (reused frames and recycled pages).
    pub fn reset(&mut self) {
        self.data = [0; PAGE_SIZE];
        self.set_free_end(PAGE_SIZE as u16);
    }

    /// Raw bytes, for pager I/O.
    pub fn bytes(&self) -> &[u8; PAGE_SIZE] {
        &self.data
    }

    /// Raw bytes, for pager I/O. Callers must keep the layout consistent.
    pub fn bytes_mut(&mut self) -> &mut [u8; PAGE_SIZE] {
        &mut self.data
    }

    fn u16_at(&self, off: usize) -> u16 {
        u16::from_le_bytes([self.data[off], self.data[off + 1]])
    }

    fn set_u16_at(&mut self, off: usize, v: u16) {
        self.data[off..off + 2].copy_from_slice(&v.to_le_bytes());
    }

    /// Number of slot entries, including dead ones.
    pub fn slot_count(&self) -> u16 {
        self.u16_at(0)
    }

    fn set_slot_count(&mut self, v: u16) {
        self.set_u16_at(0, v);
    }

    fn free_end(&self) -> u16 {
        self.u16_at(2)
    }

    fn set_free_end(&mut self, v: u16) {
        self.set_u16_at(2, v);
    }

    /// Next page in an overflow chain, if any.
    pub fn next_page(&self) -> Option<PageId> {
        let raw = u32::from_le_bytes([self.data[4], self.data[5], self.data[6], self.data[7]]);
        raw.checked_sub(1)
    }

    pub fn set_next_page(&mut self, next: Option<PageId>) {
        let raw = next.map_or(0, |p| p + 1);
        self.data[4..8].copy_from_slice(&raw.to_le_bytes());
    }

    fn slot(&self, id: u16) -> Option<(u16, u16)> {
        if id >= self.slot_count() {
            return None;
        }
        let off = HEADER + id as usize * SLOT;
        Some((self.u16_at(off), self.u16_at(off + 2)))
    }

    fn set_slot(&mut self, id: u16, cell_off: u16, len: u16) {
        let off = HEADER + id as usize * SLOT;
        self.set_u16_at(off, cell_off);
        self.set_u16_at(off + 2, len);
    }

    /// The tuple stored in `slot`, if live.
    pub fn get(&self, slot: u16) -> Option<&[u8]> {
        let (off, len) = self.slot(slot)?;
        if off == 0 {
            return None;
        }
        Some(&self.data[off as usize..off as usize + len as usize])
    }

    /// Contiguous gap between the slot array and the cell area.
    fn gap(&self) -> usize {
        self.free_end() as usize - (HEADER + self.slot_count() as usize * SLOT)
    }

    /// Free bytes available to a new tuple after compaction, assuming it
    /// needs a fresh slot entry. (If a dead slot can be reused, `SLOT`
    /// fewer bytes are needed; `insert` accounts for that.)
    pub fn free_space(&self) -> usize {
        (self.gap() + self.dead_cell_bytes()).saturating_sub(SLOT)
    }

    /// Cell bytes below `free_end` not referenced by any live slot
    /// (created by deletes and shrinking updates; reclaimed by compaction).
    fn dead_cell_bytes(&self) -> usize {
        let live: usize = (0..self.slot_count())
            .filter_map(|i| self.slot(i))
            .filter(|(off, _)| *off != 0)
            .map(|(_, len)| len as usize)
            .sum();
        (PAGE_SIZE - self.free_end() as usize) - live
    }

    fn first_dead_slot(&self) -> Option<u16> {
        (0..self.slot_count()).find(|&i| matches!(self.slot(i), Some((0, _))))
    }

    /// Insert a tuple, compacting if fragmented. Returns its slot id, or
    /// `None` if the page cannot hold it. One walk over the slot array
    /// finds a dead slot to reuse; a second, summing the dead cells, runs
    /// only when the contiguous gap is too small.
    pub fn insert(&mut self, bytes: &[u8]) -> Option<u16> {
        if bytes.len() > MAX_INLINE_TUPLE {
            return None;
        }
        let reuse = self.first_dead_slot();
        let need = bytes.len() + if reuse.is_some() { 0 } else { SLOT };
        if self.gap() < need {
            if self.gap() + self.dead_cell_bytes() < need {
                return None;
            }
            self.compact();
        }
        debug_assert!(self.gap() >= need);
        let cell_off = self.free_end() - bytes.len() as u16;
        self.data[cell_off as usize..cell_off as usize + bytes.len()].copy_from_slice(bytes);
        self.set_free_end(cell_off);
        let slot = match reuse {
            Some(s) => s,
            None => {
                let s = self.slot_count();
                self.set_slot_count(s + 1);
                s
            }
        };
        self.set_slot(slot, cell_off, bytes.len() as u16);
        Some(slot)
    }

    /// Tombstone a slot. The cell bytes are reclaimed lazily by compaction.
    pub fn delete(&mut self, slot: u16) -> Result<()> {
        match self.slot(slot) {
            Some((off, _)) if off != 0 => {
                self.set_slot(slot, 0, 0);
                Ok(())
            }
            _ => Err(Error::BadAddress(format!("delete of dead slot {slot}"))),
        }
    }

    /// Replace the tuple in `slot`, keeping the slot id stable. Returns
    /// `false` if the page cannot hold the new tuple (caller relocates).
    pub fn update(&mut self, slot: u16, bytes: &[u8]) -> Result<bool> {
        let (off, len) = match self.slot(slot) {
            Some((off, len)) if off != 0 => (off, len),
            _ => return Err(Error::BadAddress(format!("update of dead slot {slot}"))),
        };
        if bytes.len() <= len as usize {
            // Shrink in place; trailing bytes of the old cell go dead.
            let start = off as usize;
            self.data[start..start + bytes.len()].copy_from_slice(bytes);
            self.set_slot(slot, off, bytes.len() as u16);
            return Ok(true);
        }
        if bytes.len() > MAX_INLINE_TUPLE {
            return Ok(false);
        }
        // Grow: drop the old cell, then place the new one (same slot id).
        self.set_slot(slot, 0, 0);
        if self.gap() + self.dead_cell_bytes() < bytes.len() {
            // Undo: restore the old cell reference and report no-fit.
            self.set_slot(slot, off, len);
            return Ok(false);
        }
        if self.gap() < bytes.len() {
            self.compact();
        }
        let cell_off = self.free_end() - bytes.len() as u16;
        self.data[cell_off as usize..cell_off as usize + bytes.len()].copy_from_slice(bytes);
        self.set_free_end(cell_off);
        self.set_slot(slot, cell_off, bytes.len() as u16);
        Ok(true)
    }

    /// Live `(slot, tuple)` pairs in slot order.
    pub fn live_tuples(&self) -> impl Iterator<Item = (u16, &[u8])> {
        (0..self.slot_count()).filter_map(|i| self.get(i).map(|t| (i, t)))
    }

    /// Number of live tuples.
    pub fn live_count(&self) -> usize {
        (0..self.slot_count())
            .filter(|&i| matches!(self.slot(i), Some((off, _)) if off != 0))
            .count()
    }

    /// Rewrite the cell area so live cells are contiguous at the page end.
    fn compact(&mut self) {
        let live: Vec<(u16, Vec<u8>)> = (0..self.slot_count())
            .filter_map(|i| self.get(i).map(|t| (i, t.to_vec())))
            .collect();
        let mut free_end = PAGE_SIZE as u16;
        for (slot, cell) in live {
            free_end -= cell.len() as u16;
            self.data[free_end as usize..free_end as usize + cell.len()].copy_from_slice(&cell);
            self.set_slot(slot, free_end, cell.len() as u16);
        }
        self.set_free_end(free_end);
    }
}

/// Live cells of a raw page image, in slot order. For consumers that hold
/// an owned copy of a page's bytes rather than a buffer-pool pin — a
/// thread other than the pool's can parse a page snapshot with this. Matches [`Page::live_tuples`] on well-formed pages;
/// out-of-range slot entries are skipped rather than panicking.
pub fn live_cells(data: &[u8; PAGE_SIZE]) -> impl Iterator<Item = &[u8]> + '_ {
    let slot_count = u16::from_le_bytes([data[0], data[1]]) as usize;
    (0..slot_count).filter_map(move |i| {
        let off = HEADER + i * SLOT;
        let entry = data.get(off..off + SLOT)?;
        let cell_off = u16::from_le_bytes([entry[0], entry[1]]) as usize;
        let len = u16::from_le_bytes([entry[2], entry[3]]) as usize;
        if cell_off == 0 {
            return None;
        }
        data.get(cell_off..cell_off + len)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `insert` as it was before the one-walk fast path: ask `fits`
    /// (a dead-slot search and a dead-cell sum), then search for the dead
    /// slot again. The oracle the fast path must match byte for byte.
    fn oracle_insert(p: &mut Page, bytes: &[u8]) -> Option<u16> {
        let fits = |p: &Page, len: usize| {
            let slot_cost = if p.first_dead_slot().is_some() {
                0
            } else {
                SLOT
            };
            len <= MAX_INLINE_TUPLE && p.gap() + p.dead_cell_bytes() >= len + slot_cost
        };
        if !fits(p, bytes.len()) {
            return None;
        }
        let reuse = p.first_dead_slot();
        let slot_cost = if reuse.is_some() { 0 } else { SLOT };
        if p.gap() < bytes.len() + slot_cost {
            p.compact();
        }
        let cell_off = p.free_end() - bytes.len() as u16;
        p.data[cell_off as usize..cell_off as usize + bytes.len()].copy_from_slice(bytes);
        p.set_free_end(cell_off);
        let slot = reuse.unwrap_or_else(|| {
            let s = p.slot_count();
            p.set_slot_count(s + 1);
            s
        });
        p.set_slot(slot, cell_off, bytes.len() as u16);
        Some(slot)
    }

    #[derive(Debug, Clone)]
    enum Op {
        Insert(usize),
        Delete(usize),
        Update(usize, usize),
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0..900usize).prop_map(Op::Insert),
            (0..900usize).prop_map(Op::Insert),
            (6000..8200usize).prop_map(Op::Insert),
            any::<usize>().prop_map(Op::Delete),
            (any::<usize>(), 0..1500usize).prop_map(|(i, len)| Op::Update(i, len)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random inserts, deletes and updates (in-place, growing,
        /// compacting, refused) on two pages: `insert` picks the slot the
        /// oracle picks and leaves the same page bytes.
        #[test]
        fn insert_matches_the_fits_then_insert_oracle(ops in prop::collection::vec(op(), 1..300)) {
            let (mut fast, mut oracle) = (Page::new(), Page::new());
            for (n, op) in ops.iter().enumerate() {
                let live: Vec<u16> = fast.live_tuples().map(|(s, _)| s).collect();
                let bytes = |len: usize| vec![(n % 251) as u8; len];
                match *op {
                    Op::Insert(len) => {
                        let tuple = bytes(len);
                        prop_assert_eq!(fast.insert(&tuple), oracle_insert(&mut oracle, &tuple));
                    }
                    Op::Delete(i) if !live.is_empty() => {
                        let slot = live[i % live.len()];
                        fast.delete(slot).unwrap();
                        oracle.delete(slot).unwrap();
                    }
                    Op::Update(i, len) if !live.is_empty() => {
                        let slot = live[i % live.len()];
                        let tuple = bytes(len);
                        prop_assert_eq!(fast.update(slot, &tuple).unwrap(), oracle.update(slot, &tuple).unwrap());
                    }
                    _ => {}
                }
                prop_assert!(fast.bytes() == oracle.bytes(), "page bytes differ after op {} {:?}", n, op);
            }
        }
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut p = Page::new();
        let a = p.insert(b"hello").unwrap();
        let b = p.insert(b"world!").unwrap();
        assert_eq!(p.get(a).unwrap(), b"hello");
        assert_eq!(p.get(b).unwrap(), b"world!");
        assert_eq!(p.live_count(), 2);
    }

    #[test]
    fn delete_frees_slot_for_reuse() {
        let mut p = Page::new();
        let a = p.insert(b"aaaa").unwrap();
        let _b = p.insert(b"bbbb").unwrap();
        p.delete(a).unwrap();
        assert!(p.get(a).is_none());
        assert!(p.delete(a).is_err());
        let c = p.insert(b"cccc").unwrap();
        assert_eq!(c, a, "dead slot should be reused");
        assert_eq!(p.get(c).unwrap(), b"cccc");
    }

    #[test]
    fn fills_up_and_compacts() {
        let mut p = Page::new();
        let tuple = [7u8; 100];
        let mut slots = Vec::new();
        while let Some(s) = p.insert(&tuple) {
            slots.push(s);
        }
        let n = slots.len();
        assert!(n >= 70, "expected ~78 tuples of 100B+slot, got {n}");
        // Delete every other tuple, then insert larger tuples into the
        // fragmented space: forces compaction.
        for s in slots.iter().step_by(2) {
            p.delete(*s).unwrap();
        }
        let big = [9u8; 150];
        let mut inserted = 0;
        while p.insert(&big).is_some() {
            inserted += 1;
        }
        assert!(inserted > 10, "compaction should reclaim deleted space");
        for s in slots.iter().skip(1).step_by(2) {
            assert_eq!(
                p.get(*s).unwrap(),
                &tuple,
                "survivors intact after compaction"
            );
        }
    }

    #[test]
    fn update_in_place_and_grow() {
        let mut p = Page::new();
        let s = p.insert(&[1u8; 64]).unwrap();
        assert!(p.update(s, &[2u8; 32]).unwrap());
        assert_eq!(p.get(s).unwrap(), &[2u8; 32]);
        assert!(p.update(s, &[3u8; 128]).unwrap());
        assert_eq!(p.get(s).unwrap(), &[3u8; 128]);
    }

    #[test]
    fn update_no_fit_reports_false_and_preserves_tuple() {
        let mut p = Page::new();
        let filler = p.insert(&[0u8; 4000]).unwrap();
        let s = p.insert(&[1u8; 4000]).unwrap();
        // Growing s to 5000 cannot fit next to the 4000-byte filler.
        assert!(!p.update(s, &[2u8; 5000]).unwrap());
        assert_eq!(p.get(s).unwrap(), &[1u8; 4000]);
        assert_eq!(p.get(filler).unwrap(), &[0u8; 4000]);
    }

    #[test]
    fn max_inline_tuple_fits_exactly() {
        let mut p = Page::new();
        let s = p.insert(&vec![5u8; MAX_INLINE_TUPLE]).unwrap();
        assert_eq!(p.get(s).unwrap().len(), MAX_INLINE_TUPLE);
        assert!(p.insert(b"x").is_none());
        let mut q = Page::new();
        assert!(q.insert(&vec![5u8; MAX_INLINE_TUPLE + 1]).is_none());
    }

    #[test]
    fn next_page_link() {
        let mut p = Page::new();
        assert_eq!(p.next_page(), None);
        p.set_next_page(Some(0));
        assert_eq!(p.next_page(), Some(0));
        p.set_next_page(Some(41));
        assert_eq!(p.next_page(), Some(41));
        p.set_next_page(None);
        assert_eq!(p.next_page(), None);
    }

    #[test]
    fn live_cells_matches_live_tuples_on_raw_bytes() {
        let mut p = Page::new();
        let a = p.insert(b"alpha").unwrap();
        let _b = p.insert(b"beta").unwrap();
        let _c = p.insert(b"").unwrap();
        p.delete(a).unwrap();
        p.insert(b"gamma").unwrap(); // reuses slot a
        let from_page: Vec<&[u8]> = p.live_tuples().map(|(_, t)| t).collect();
        let from_raw: Vec<&[u8]> = live_cells(p.bytes()).collect();
        assert_eq!(from_raw, from_page);
    }

    #[test]
    fn live_cells_skips_corrupt_slot_entries() {
        let mut p = Page::new();
        p.insert(b"ok").unwrap();
        let mut raw = *p.bytes();
        // Fabricate a second slot whose cell range runs past the page end.
        raw[0..2].copy_from_slice(&2u16.to_le_bytes());
        raw[HEADER + SLOT..HEADER + SLOT + 2].copy_from_slice(&8000u16.to_le_bytes());
        raw[HEADER + SLOT + 2..HEADER + SLOT + 4].copy_from_slice(&500u16.to_le_bytes());
        let cells: Vec<&[u8]> = live_cells(&raw).collect();
        assert_eq!(cells, vec![b"ok".as_slice()]);
    }

    #[test]
    fn empty_tuples_are_representable() {
        let mut p = Page::new();
        let s = p.insert(b"").unwrap();
        // Empty cell at free_end boundary: offset is non-zero, so it's live.
        assert_eq!(p.get(s).unwrap(), b"");
        p.delete(s).unwrap();
        assert!(p.get(s).is_none());
    }
}
