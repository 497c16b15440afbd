//! Page-granular storage backends.
//!
//! A [`Pager`] owns an array of [`PAGE_SIZE`] pages addressed by
//! [`PageId`]. The buffer pool is the only component that talks to a
//! pager directly; everything above it sees pinned pages.

use crate::error::{Error, Result};
use crate::page::{Page, PageId, PAGE_SIZE};
use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::Path;

/// A page-granular storage backend.
pub trait Pager {
    /// Pages currently allocated.
    fn num_pages(&self) -> u32;

    /// Extend the address space by one zeroed page and return its id.
    fn allocate(&mut self) -> Result<PageId>;

    /// Read page `id` into `buf`.
    fn read(&mut self, id: PageId, buf: &mut Page) -> Result<()>;

    /// Write `page` at `id`.
    fn write(&mut self, id: PageId, page: &Page) -> Result<()>;

    /// Durably flush previous writes (no-op for memory backends).
    fn sync(&mut self) -> Result<()>;

    /// Grow the address space to at least `n` pages, in one step. The new
    /// pages hold no tuple (a file reads them back as zeroes).
    /// WAL replay needs this: a committed batch may reference pages whose
    /// in-place allocation never reached the data file before the crash.
    fn ensure_pages(&mut self, n: u32) -> Result<()>;
}

/// Heap-allocated page store: the backend for in-memory databases and
/// tests. Evicted pages survive in the pager, so a buffer pool over a
/// `MemPager` still exercises real miss/evict/write-back traffic.
#[derive(Default)]
pub struct MemPager {
    pages: Vec<Box<Page>>,
}

impl MemPager {
    pub fn new() -> Self {
        MemPager::default()
    }
}

impl Pager for MemPager {
    fn num_pages(&self) -> u32 {
        self.pages.len() as u32
    }

    fn allocate(&mut self) -> Result<PageId> {
        let id = self.pages.len() as PageId;
        self.pages.push(Box::new(Page::new()));
        Ok(id)
    }

    fn read(&mut self, id: PageId, buf: &mut Page) -> Result<()> {
        let src = self
            .pages
            .get(id as usize)
            .ok_or(Error::PageOutOfBounds(id))?;
        buf.bytes_mut().copy_from_slice(src.bytes());
        Ok(())
    }

    fn write(&mut self, id: PageId, page: &Page) -> Result<()> {
        let dst = self
            .pages
            .get_mut(id as usize)
            .ok_or(Error::PageOutOfBounds(id))?;
        dst.bytes_mut().copy_from_slice(page.bytes());
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        Ok(())
    }

    fn ensure_pages(&mut self, n: u32) -> Result<()> {
        if self.pages.len() < n as usize {
            self.pages.resize_with(n as usize, || Box::new(Page::new()));
        }
        Ok(())
    }
}

/// File-backed page store: page `i` lives at byte offset `i * PAGE_SIZE`.
/// Reopening the same path recovers every page that was flushed.
pub struct FilePager {
    file: File,
    num_pages: u32,
}

impl FilePager {
    /// Open (or create) the page file at `path`.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let (file, len) = open_rw(path)?;
        if len % PAGE_SIZE as u64 != 0 {
            return Err(Error::CorruptFile { len });
        }
        Ok(FilePager {
            file,
            num_pages: (len / PAGE_SIZE as u64) as u32,
        })
    }

    /// Open the page file for recovery: a trailing *partial* page — the
    /// footprint of an `allocate` or final write interrupted mid-call —
    /// is truncated away rather than rejected. Only the tail can be
    /// partial (all writes are page-aligned), and a truncated tail page
    /// loses nothing durable: if its contents were committed they live in
    /// the WAL and replay re-extends the file.
    pub fn open_recoverable(path: impl AsRef<Path>) -> Result<Self> {
        let (file, len) = open_rw(path)?;
        let whole = len - len % PAGE_SIZE as u64;
        if whole != len {
            file.set_len(whole)?;
        }
        Ok(FilePager {
            file,
            num_pages: (whole / PAGE_SIZE as u64) as u32,
        })
    }

    /// Where page `id` starts in the file.
    fn offset(&self, id: PageId) -> Result<u64> {
        match id < self.num_pages {
            true => Ok(id as u64 * PAGE_SIZE as u64),
            false => Err(Error::PageOutOfBounds(id)),
        }
    }
}

/// Open (or create) `path` for reading and writing, keeping what it
/// holds; returns the file and its length.
pub(crate) fn open_rw(path: impl AsRef<Path>) -> Result<(File, u64)> {
    let file = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(false)
        .open(path)?;
    let len = file.metadata()?.len();
    Ok((file, len))
}

impl Pager for FilePager {
    fn num_pages(&self) -> u32 {
        self.num_pages
    }

    fn allocate(&mut self) -> Result<PageId> {
        let id = self.num_pages;
        self.file
            .write_all_at(Page::new().bytes(), id as u64 * PAGE_SIZE as u64)?;
        self.num_pages += 1;
        Ok(id)
    }

    fn read(&mut self, id: PageId, buf: &mut Page) -> Result<()> {
        Ok(self.file.read_exact_at(buf.bytes_mut(), self.offset(id)?)?)
    }

    fn write(&mut self, id: PageId, page: &Page) -> Result<()> {
        Ok(self.file.write_all_at(page.bytes(), self.offset(id)?)?)
    }

    fn sync(&mut self) -> Result<()> {
        self.file.sync_data()?;
        Ok(())
    }

    /// One `set_len`: the new pages read as zeroes, and none is written.
    fn ensure_pages(&mut self, n: u32) -> Result<()> {
        if self.num_pages < n {
            self.file.set_len(n as u64 * PAGE_SIZE as u64)?;
            self.num_pages = n;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_pager_roundtrip() {
        let mut pager = MemPager::new();
        let id = pager.allocate().unwrap();
        let mut page = Page::new();
        let slot = page.insert(b"persisted").unwrap();
        pager.write(id, &page).unwrap();
        let mut back = Page::new();
        pager.read(id, &mut back).unwrap();
        assert_eq!(back.get(slot).unwrap(), b"persisted");
        assert!(pager.read(7, &mut back).is_err());
    }

    #[test]
    fn file_pager_roundtrip_and_reopen() {
        let path =
            std::env::temp_dir().join(format!("pagestore-pager-test-{}.db", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let slot;
        {
            let mut pager = FilePager::open(&path).unwrap();
            assert_eq!(pager.num_pages(), 0);
            let id = pager.allocate().unwrap();
            assert_eq!(id, 0);
            let mut page = Page::new();
            slot = page.insert(b"durable bytes").unwrap();
            pager.write(id, &page).unwrap();
            pager.sync().unwrap();
        }
        {
            let mut pager = FilePager::open(&path).unwrap();
            assert_eq!(pager.num_pages(), 1);
            let mut page = Page::new();
            pager.read(0, &mut page).unwrap();
            assert_eq!(page.get(slot).unwrap(), b"durable bytes");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_pager_rejects_torn_files() {
        let path =
            std::env::temp_dir().join(format!("pagestore-torn-test-{}.db", std::process::id()));
        std::fs::write(&path, [0u8; 100]).unwrap();
        assert!(matches!(
            FilePager::open(&path),
            Err(Error::CorruptFile { len: 100 })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn recoverable_open_truncates_partial_tail_page() {
        let path = std::env::temp_dir().join(format!(
            "pagestore-recoverable-test-{}.db",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        {
            let mut pager = FilePager::open(&path).unwrap();
            let id = pager.allocate().unwrap();
            let mut page = Page::new();
            page.insert(b"whole page").unwrap();
            pager.write(id, &page).unwrap();
            pager.sync().unwrap();
        }
        // Simulate an allocate interrupted mid-write: a partial tail page.
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[0u8; 1000]).unwrap();
        }
        assert!(FilePager::open(&path).is_err(), "strict open still rejects");
        let mut pager = FilePager::open_recoverable(&path).unwrap();
        assert_eq!(pager.num_pages(), 1);
        let mut back = Page::new();
        pager.read(0, &mut back).unwrap();
        assert_eq!(back.get(0).unwrap(), b"whole page");
        drop(pager);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            PAGE_SIZE as u64,
            "partial tail removed from the file"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn ensure_pages_extends_the_address_space() {
        let mut pager = MemPager::new();
        pager.ensure_pages(3).unwrap();
        assert_eq!(pager.num_pages(), 3);
        pager.ensure_pages(2).unwrap();
        assert_eq!(pager.num_pages(), 3, "never shrinks");
    }

    #[test]
    fn file_ensure_pages_extends_with_zeroed_pages() {
        let path =
            std::env::temp_dir().join(format!("pagestore-ensure-test-{}.db", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let mut pager = FilePager::open(&path).unwrap();
        pager.allocate().unwrap();
        pager.ensure_pages(5).unwrap();
        pager.ensure_pages(2).unwrap();
        assert_eq!(pager.num_pages(), 5, "never shrinks");
        let mut page = Page::new();
        page.insert(b"stale").unwrap();
        pager.read(4, &mut page).unwrap();
        assert!(page.bytes().iter().all(|&b| b == 0));
        assert_eq!(page.live_count(), 0);
        assert_eq!(pager.allocate().unwrap(), 5);
        drop(pager);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            6 * PAGE_SIZE as u64
        );
        std::fs::remove_file(&path).unwrap();
    }
}
