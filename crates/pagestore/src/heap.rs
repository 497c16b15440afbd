//! Heap files: unordered tuple storage over the buffer pool.
//!
//! A heap file owns an ordered list of data pages (the scan order), each
//! linked to the next through the page header's `next_page` field, so the
//! first page alone finds the heap again ([`HeapFile::open`]). Every tuple
//! has exactly one inline cell on a data page, addressed by
//! [`TupleAddr`]; the first byte of the cell is a tag:
//!
//! * `TAG_INLINE` — the remaining cell bytes are the tuple itself.
//! * `TAG_OVERFLOW` — the cell holds the [`PageId`] of the head of an
//!   overflow chain (TOAST-style): single-slot pages linked through the
//!   page header's `next_page` field, whose chunks concatenate to the
//!   tuple bytes. Sequential scans still visit one small stub per
//!   oversized tuple, so page-count accounting stays honest.
//!
//! Inserts are append-only: a tuple goes on the last data page if it fits,
//! otherwise on a page from [`BufferPool::allocate_pinned`], linked behind the
//! old tail. Pages a heap gives up (freed overflow chains,
//! [`HeapFile::clear`]) go back to the pool's one free list.
//!
//! An [`unlogged`](HeapFile::unlogged) heap takes every page it allocates,
//! data and overflow alike, unlogged: scratch storage a checkpoint skips.

use crate::buffer::{BufferPool, PageRef};
use crate::error::{Error, Result};
use crate::page::{Page, PageId, MAX_INLINE_TUPLE};

const TAG_INLINE: u8 = 0;
const TAG_OVERFLOW: u8 = 1;

/// Payload bytes per overflow-chain page (one slot, no tag).
const OVERFLOW_CHUNK: usize = MAX_INLINE_TUPLE;

/// Largest tuple stored inline; larger tuples overflow.
pub const INLINE_LIMIT: usize = MAX_INLINE_TUPLE - 1;

/// Stable address of a tuple: ordinal of its data page within the heap
/// file's scan order, plus the slot holding its (tagged) inline cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TupleAddr {
    pub page_ord: u32,
    pub slot: u16,
}

/// The live tuples of one data page, each with its address. An inline
/// tuple is copied once, off the page.
type PageTuples = Vec<(TupleAddr, std::sync::Arc<[u8]>)>;

/// An unordered collection of tuples stored on slotted pages.
#[derive(Debug, Default)]
pub struct HeapFile {
    /// Data pages in scan order. `TupleAddr::page_ord` indexes this list.
    pages: Vec<PageId>,
    /// Whether every page this heap allocates is unlogged.
    unlogged: bool,
}

impl HeapFile {
    pub fn new() -> Self {
        HeapFile::default()
    }

    /// An empty heap whose pages are all unlogged (see the module docs):
    /// it must not be reachable from anything durable.
    pub fn unlogged() -> Self {
        HeapFile {
            unlogged: true,
            ..HeapFile::default()
        }
    }

    pub fn is_unlogged(&self) -> bool {
        self.unlogged
    }

    /// Number of data pages (excludes overflow pages).
    pub fn num_pages(&self) -> usize {
        self.pages.len()
    }

    /// Data pages in scan order.
    pub fn page_ids(&self) -> &[PageId] {
        &self.pages
    }

    /// Find a heap again from its first data page: follow the links,
    /// handing every live tuple to `visit` in scan order, one pass over
    /// the chain. Every page of the heap, data and overflow, is added to
    /// `reached`.
    pub fn open<E: From<Error>>(
        pool: &BufferPool,
        root: PageId,
        reached: &mut Vec<PageId>,
        mut visit: impl FnMut(TupleAddr, &[u8]) -> std::result::Result<(), E>,
    ) -> std::result::Result<HeapFile, E> {
        let mut heap = HeapFile::new();
        let mut next = Some(root);
        while let Some(id) = next {
            if heap.pages.len() >= pool.num_pages() as usize {
                return Err(
                    Error::Invariant("heap page chain is longer than the page file").into(),
                );
            }
            heap.pages.push(id);
            reached.push(id);
            let (tuples, link) = heap.read_page(pool, heap.pages.len() - 1, reached)?;
            for (addr, bytes) in &tuples {
                visit(*addr, bytes)?;
            }
            next = link;
        }
        Ok(heap)
    }

    /// Store `bytes` and return the tuple's address.
    pub fn insert(&mut self, pool: &BufferPool, bytes: &[u8]) -> Result<TupleAddr> {
        let cell = self.cell_for(pool, bytes)?;
        self.place_cell(pool, &cell)
    }

    /// Empty `buf` and start an inline cell in it: append the tuple bytes
    /// behind, then hand it to [`insert_cell`](Self::insert_cell). A
    /// writer that encodes straight into a reused cell copies each tuple
    /// once, onto the page.
    pub fn begin_cell(buf: &mut Vec<u8>) {
        buf.clear();
        buf.push(TAG_INLINE);
    }

    /// [`insert`](Self::insert) of a cell built with
    /// [`begin_cell`](Self::begin_cell); a tuple too long to stay inline
    /// still goes to an overflow chain.
    pub fn insert_cell(&mut self, pool: &BufferPool, cell: &[u8]) -> Result<TupleAddr> {
        match cell.split_first() {
            Some((&TAG_INLINE, tuple)) if tuple.len() > INLINE_LIMIT => {
                let stub = self.cell_for(pool, tuple)?;
                self.place_cell(pool, &stub)
            }
            Some((&TAG_INLINE, _)) => self.place_cell(pool, cell),
            _ => Err(Error::Invariant("a cell to insert starts with begin_cell")),
        }
    }

    /// The tagged cell for a tuple: the bytes themselves, or a stub for
    /// the overflow chain they are written to.
    fn cell_for(&mut self, pool: &BufferPool, bytes: &[u8]) -> Result<Vec<u8>> {
        let mut cell = Vec::with_capacity(bytes.len().min(INLINE_LIMIT) + 1);
        if bytes.len() <= INLINE_LIMIT {
            cell.push(TAG_INLINE);
            cell.extend_from_slice(bytes);
        } else {
            cell.push(TAG_OVERFLOW);
            cell.extend_from_slice(&self.write_chain(pool, bytes)?.to_le_bytes());
        }
        Ok(cell)
    }

    /// Put a prepared cell on the last data page, or a new one.
    fn place_cell(&mut self, pool: &BufferPool, cell: &[u8]) -> Result<TupleAddr> {
        if let Some(&last) = self.pages.last() {
            let mut page = pool.fetch_mut(last)?;
            if let Some(slot) = page.insert(cell) {
                return Ok(TupleAddr {
                    page_ord: (self.pages.len() - 1) as u32,
                    slot,
                });
            }
        }
        let (id, mut page) = pool.allocate_pinned(self.unlogged)?;
        let slot = page
            .insert(cell)
            .ok_or(Error::Invariant("fresh page must fit an inline cell"))?;
        drop(page);
        if let Some(&tail) = self.pages.last() {
            pool.fetch_mut(tail)?.set_next_page(Some(id));
        }
        self.pages.push(id);
        Ok(TupleAddr {
            page_ord: (self.pages.len() - 1) as u32,
            slot,
        })
    }

    /// Write an overflow chain holding `bytes`; returns the head page.
    fn write_chain(&mut self, pool: &BufferPool, bytes: &[u8]) -> Result<PageId> {
        let mut head: Option<PageId> = None;
        let mut prev: Option<PageId> = None;
        for chunk in bytes.chunks(OVERFLOW_CHUNK) {
            let (id, mut page) = pool.allocate_pinned(self.unlogged)?;
            page.insert(chunk)
                .ok_or(Error::Invariant("fresh page must fit a chunk"))?;
            drop(page);
            if let Some(prev_id) = prev {
                pool.fetch_mut(prev_id)?.set_next_page(Some(id));
            } else {
                head = Some(id);
            }
            prev = Some(id);
        }
        head.ok_or_else(|| Error::BadAddress("empty overflow chain".into()))
    }

    fn page_id(&self, page_ord: usize) -> Result<PageId> {
        self.pages
            .get(page_ord)
            .copied()
            .ok_or_else(|| Error::BadAddress(format!("page ordinal {page_ord} out of range")))
    }

    /// Pin data page `page_ord` for reading chosen slots in place with
    /// [`slot_tuple`] — one pool access however many slots are read.
    pub fn pin_page<'p>(&self, pool: &'p BufferPool, page_ord: usize) -> Result<PageRef<'p>> {
        pool.fetch(self.page_id(page_ord)?)
    }

    /// The head of the overflow chain of the tuple at `addr`, if it has one.
    fn overflow_head(&self, pool: &BufferPool, addr: TupleAddr) -> Result<Option<PageId>> {
        let page = pool.fetch(self.page_id(addr.page_ord as usize)?)?;
        match slot_tuple(&page, addr.slot)? {
            SlotTuple::Inline(_) => Ok(None),
            SlotTuple::Overflow(head) => Ok(Some(head)),
        }
    }

    /// Read the tuple at `addr`.
    pub fn get(&self, pool: &BufferPool, addr: TupleAddr) -> Result<Vec<u8>> {
        let page_id = self.page_id(addr.page_ord as usize)?;
        let head;
        {
            let page = pool.fetch(page_id)?;
            match slot_tuple(&page, addr.slot)? {
                SlotTuple::Inline(tuple) => return Ok(tuple.to_vec()),
                SlotTuple::Overflow(h) => head = h,
            }
        }
        self.read_chain(pool, head)
    }

    /// The tuple bytes of the overflow chain starting at `head`.
    pub fn read_chain(&self, pool: &BufferPool, head: PageId) -> Result<Vec<u8>> {
        self.read_chain_into(pool, head, &mut Vec::new())
    }

    /// [`read_chain`](Self::read_chain), adding the chain's pages to `pages`.
    fn read_chain_into(
        &self,
        pool: &BufferPool,
        head: PageId,
        pages: &mut Vec<PageId>,
    ) -> Result<Vec<u8>> {
        let mut bytes = Vec::new();
        let mut next = Some(head);
        while let Some(id) = next {
            let page = pool.fetch(id)?;
            pages.push(id);
            let chunk = page
                .get(0)
                .ok_or_else(|| Error::BadAddress(format!("overflow page {id} has no chunk")))?;
            bytes.extend_from_slice(chunk);
            next = page.next_page();
        }
        Ok(bytes)
    }

    /// Replace the tuple at `addr`, preferring in-place update; relocates
    /// if the page cannot hold the new size. Returns the (possibly new)
    /// address.
    pub fn update(
        &mut self,
        pool: &BufferPool,
        addr: TupleAddr,
        bytes: &[u8],
    ) -> Result<TupleAddr> {
        let page_id = self.page_id(addr.page_ord as usize)?;
        // Free an old overflow chain before writing the replacement.
        if let Some(head) = self.overflow_head(pool, addr)? {
            self.free_chain(pool, head)?;
        }
        let cell = self.cell_for(pool, bytes)?;
        {
            let mut page = pool.fetch_mut(page_id)?;
            if page.update(addr.slot, &cell)? {
                return Ok(addr);
            }
            // No fit: tombstone here, relocate to another page.
            page.delete(addr.slot)?;
        }
        self.place_cell(pool, &cell)
    }

    /// Remove the tuple at `addr`, recycling any overflow chain.
    pub fn delete(&mut self, pool: &BufferPool, addr: TupleAddr) -> Result<()> {
        if let Some(head) = self.overflow_head(pool, addr)? {
            self.free_chain(pool, head)?;
        }
        let page_id = self.page_id(addr.page_ord as usize)?;
        pool.fetch_mut(page_id)?.delete(addr.slot)?;
        Ok(())
    }

    /// Give every page of a chain back to the pool.
    fn free_chain(&mut self, pool: &BufferPool, head: PageId) -> Result<()> {
        let mut next = Some(head);
        while let Some(id) = next {
            next = pool.fetch(id)?.next_page();
            pool.free_page(id);
        }
        Ok(())
    }

    /// All live `(addr, tuple)` pairs on data page `page_ord`, resolving
    /// overflow chains. The unit of a sequential scan.
    pub fn tuples_on_page(&self, pool: &BufferPool, page_ord: usize) -> Result<PageTuples> {
        Ok(self.read_page(pool, page_ord, &mut Vec::new())?.0)
    }

    /// [`tuples_on_page`](Self::tuples_on_page), plus the page's link to
    /// the next data page; the overflow pages read go into `overflow`.
    fn read_page(
        &self,
        pool: &BufferPool,
        page_ord: usize,
        overflow: &mut Vec<PageId>,
    ) -> Result<(PageTuples, Option<PageId>)> {
        let page_id = self.page_id(page_ord)?;
        let mut out = Vec::new();
        let mut chains: Vec<(usize, PageId)> = Vec::new();
        let link;
        {
            let page = pool.fetch(page_id)?;
            link = page.next_page();
            for (slot, cell) in page.live_tuples() {
                let addr = TupleAddr {
                    page_ord: page_ord as u32,
                    slot,
                };
                match cell_kind(cell)? {
                    SlotTuple::Inline(tuple) => out.push((addr, tuple.into())),
                    SlotTuple::Overflow(head) => {
                        out.push((addr, Default::default()));
                        chains.push((out.len() - 1, head));
                    }
                }
            }
        }
        for (idx, head) in chains {
            out[idx].1 = self.read_chain_into(pool, head, overflow)?.into();
        }
        Ok((out, link))
    }

    /// Give every page (data and overflow) back to the pool, leaving an
    /// empty heap whose next insert starts a new chain. Used when a table
    /// is dropped or rebuilt in a new physical order.
    pub fn clear(&mut self, pool: &BufferPool) -> Result<()> {
        let pages = std::mem::take(&mut self.pages);
        for id in pages {
            // Overflow chains are reachable only through cells on the data
            // page; collect their heads before recycling it.
            let mut heads = Vec::new();
            {
                let page = pool.fetch(id)?;
                for (_, cell) in page.live_tuples() {
                    if let SlotTuple::Overflow(head) = cell_kind(cell)? {
                        heads.push(head);
                    }
                }
            }
            for head in heads {
                self.free_chain(pool, head)?;
            }
            pool.free_page(id);
        }
        Ok(())
    }

    /// Total live tuples, by scanning every data page.
    pub fn live_count(&self, pool: &BufferPool) -> Result<usize> {
        let mut n = 0;
        for &id in &self.pages {
            n += pool.fetch(id)?.live_count();
        }
        Ok(n)
    }
}

/// What a slot's cell holds (see the module docs).
pub enum SlotTuple<'a> {
    /// The tuple bytes, in place on the page.
    Inline(&'a [u8]),
    /// Head of the overflow chain holding the tuple
    /// ([`HeapFile::read_chain`]).
    Overflow(PageId),
}

/// The tuple in `slot` of a pinned or leased data page.
pub fn slot_tuple(page: &Page, slot: u16) -> Result<SlotTuple<'_>> {
    let cell = page
        .get(slot)
        .ok_or_else(|| Error::BadAddress(format!("slot {slot} is dead")))?;
    cell_kind(cell)
}

fn cell_kind(cell: &[u8]) -> Result<SlotTuple<'_>> {
    match cell.split_first() {
        Some((&TAG_INLINE, tuple)) => Ok(SlotTuple::Inline(tuple)),
        Some((&TAG_OVERFLOW, rest)) => match <[u8; 4]>::try_from(rest) {
            Ok(raw) => Ok(SlotTuple::Overflow(PageId::from_le_bytes(raw))),
            Err(_) => Err(Error::BadAddress("malformed heap cell".into())),
        },
        _ => Err(Error::BadAddress("malformed heap cell".into())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn insert_get_update_delete() {
        let pool = BufferPool::in_memory(4);
        let mut heap = HeapFile::new();
        let a = heap.insert(&pool, b"alpha").unwrap();
        let b = heap.insert(&pool, b"beta").unwrap();
        assert_eq!(heap.get(&pool, a).unwrap(), b"alpha");
        assert_eq!(heap.get(&pool, b).unwrap(), b"beta");
        let a2 = heap.update(&pool, a, b"ALPHA PRIME").unwrap();
        assert_eq!(heap.get(&pool, a2).unwrap(), b"ALPHA PRIME");
        heap.delete(&pool, b).unwrap();
        assert!(heap.get(&pool, b).is_err());
        assert_eq!(heap.live_count(&pool).unwrap(), 1);
    }

    #[test]
    fn spills_across_pages() {
        let pool = BufferPool::in_memory(3);
        let mut heap = HeapFile::new();
        let tuple = [42u8; 1000];
        let addrs: Vec<_> = (0..40)
            .map(|_| heap.insert(&pool, &tuple).unwrap())
            .collect();
        assert!(
            heap.num_pages() >= 5,
            "40 KiB of tuples needs >= 5 pages, got {}",
            heap.num_pages()
        );
        assert!(
            heap.num_pages() > pool.capacity(),
            "test must exceed pool capacity"
        );
        for addr in &addrs {
            assert_eq!(heap.get(&pool, *addr).unwrap(), &tuple);
        }
        let s = pool.stats();
        assert!(s.physical_reads > 0, "reads beyond capacity must miss");
        assert!(s.evictions > 0);
    }

    #[test]
    fn overflow_tuples_roundtrip() {
        let pool = BufferPool::in_memory(4);
        let mut heap = HeapFile::new();
        let big: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
        let small = b"tiny";
        let a = heap.insert(&pool, &big).unwrap();
        let b = heap.insert(&pool, small).unwrap();
        assert_eq!(heap.get(&pool, a).unwrap(), big);
        assert_eq!(heap.get(&pool, b).unwrap(), small);
        // The stub and the small tuple share data pages; the chain doesn't
        // appear in the scan order.
        assert_eq!(heap.num_pages(), 1);
        let rows = heap.tuples_on_page(&pool, 0).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(*rows[0].1, big[..]);
        assert_eq!(*rows[1].1, small[..]);
        // Deleting the big tuple recycles its chain: the next big insert
        // allocates no new pages.
        let before = pool.num_pages();
        heap.delete(&pool, a).unwrap();
        let a2 = heap.insert(&pool, &big).unwrap();
        assert_eq!(pool.num_pages(), before);
        assert_eq!(heap.get(&pool, a2).unwrap(), big);
    }

    /// A slot's cell reads in place; a dead slot is an error, not an
    /// empty tuple.
    #[test]
    fn slot_tuple_refuses_a_dead_slot() {
        let pool = BufferPool::in_memory(4);
        let mut heap = HeapFile::new();
        let a = heap.insert(&pool, b"small").unwrap();
        let c = heap.insert(&pool, b"tiny").unwrap();
        heap.delete(&pool, c).unwrap();
        let page = heap.pin_page(&pool, 0).unwrap();
        assert!(matches!(
            slot_tuple(&page, a.slot),
            Ok(SlotTuple::Inline(b"small"))
        ));
        assert!(slot_tuple(&page, c.slot).is_err());
    }

    #[test]
    fn update_relocates_when_page_full() {
        let pool = BufferPool::in_memory(4);
        let mut heap = HeapFile::new();
        // Two ~4000-byte tuples fill a page; growing one must relocate it.
        let a = heap.insert(&pool, &[1u8; 4000]).unwrap();
        let b = heap.insert(&pool, &[2u8; 4000]).unwrap();
        let a2 = heap.update(&pool, a, &[3u8; 5000]).unwrap();
        assert_ne!(a.page_ord, a2.page_ord);
        assert_eq!(heap.get(&pool, a2).unwrap(), &[3u8; 5000]);
        assert_eq!(heap.get(&pool, b).unwrap(), &[2u8; 4000]);
    }

    #[test]
    fn open_finds_the_heap_again_from_its_first_page() {
        let pool = BufferPool::in_memory(4);
        let mut heap = HeapFile::new();
        let big: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
        let mut addrs = Vec::new();
        for i in 0..30u32 {
            addrs.push(heap.insert(&pool, &i.to_le_bytes().repeat(200)).unwrap());
        }
        heap.insert(&pool, &big).unwrap();
        heap.delete(&pool, addrs[3]).unwrap();
        assert!(heap.num_pages() > 2);
        let scanned: Vec<(TupleAddr, Arc<[u8]>)> = (0..heap.num_pages())
            .flat_map(|ord| heap.tuples_on_page(&pool, ord).unwrap())
            .collect();

        let (mut seen, mut reached) = (Vec::new(), Vec::new());
        let opened = HeapFile::open(&pool, heap.page_ids()[0], &mut reached, |addr, bytes| {
            seen.push((addr, Arc::from(bytes)));
            Ok::<(), Error>(())
        })
        .unwrap();
        assert_eq!(opened.page_ids(), heap.page_ids());
        assert_eq!(seen, scanned);
        // Data and overflow pages: every page the pool holds, each once.
        let chain = big.len().div_ceil(OVERFLOW_CHUNK);
        assert_eq!(reached.len(), opened.num_pages() + chain);
        reached.sort_unstable();
        assert_eq!(reached, (0..pool.num_pages()).collect::<Vec<_>>());

        // A cleared heap starts a new chain; the old first page is free.
        heap.clear(&pool).unwrap();
        assert_eq!(pool.free_pages(), pool.num_pages() as usize);
        heap.insert(&pool, b"again").unwrap();
        let ignore = |_, _: &[u8]| Ok::<(), Error>(());
        let opened = HeapFile::open(&pool, heap.page_ids()[0], &mut Vec::new(), ignore).unwrap();
        assert_eq!(opened.page_ids(), heap.page_ids());
    }

    #[test]
    fn open_reports_corrupt_links_as_errors() {
        let pool = BufferPool::in_memory(4);
        let mut heap = HeapFile::new();
        for i in 0..30u32 {
            heap.insert(&pool, &i.to_le_bytes().repeat(200)).unwrap();
        }
        let (first, last) = (heap.page_ids()[0], *heap.page_ids().last().unwrap());
        let open = |pool: &BufferPool| {
            HeapFile::open(pool, first, &mut Vec::new(), |_, _| Ok::<(), Error>(()))
        };
        pool.fetch_mut(last).unwrap().set_next_page(Some(first));
        assert!(matches!(open(&pool), Err(Error::Invariant(_))));
        pool.fetch_mut(heap.page_ids()[1])
            .unwrap()
            .set_next_page(Some(9_999));
        assert!(matches!(open(&pool), Err(Error::PageOutOfBounds(9_999))));
    }

    #[test]
    fn clear_recycles_pages() {
        let pool = BufferPool::in_memory(4);
        let mut heap = HeapFile::new();
        for i in 0..30u32 {
            heap.insert(&pool, &i.to_le_bytes().repeat(200)).unwrap();
        }
        let allocated = pool.num_pages();
        heap.clear(&pool).unwrap();
        assert_eq!(heap.num_pages(), 0);
        for i in 0..30u32 {
            heap.insert(&pool, &i.to_le_bytes().repeat(200)).unwrap();
        }
        assert_eq!(pool.num_pages(), allocated, "rebuild reuses cleared pages");
    }
}
