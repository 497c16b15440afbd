//! A buffer pool with clock (second-chance) eviction.
//!
//! The pool owns a fixed number of frames in front of a [`Pager`]. A
//! frame takes its 8 KiB page image when a page first lands in it; until
//! then it shares one process-wide empty image, so capacity is a bound,
//! not an allocation.
//! Callers pin pages through [`BufferPool::fetch`] / [`fetch_mut`] and
//! receive RAII guards; a page stays resident at least as long as any
//! guard to it is alive. Mutable guards mark their frame dirty; dirty
//! frames are written back when evicted or at an explicit
//! [`checkpoint`](BufferPool::checkpoint).
//!
//! Eviction is the classic clock: a hand sweeps the frame array, skipping
//! pinned frames, granting one second chance to frames whose reference bit
//! is set, and evicting the first unreferenced unpinned frame it finds.
//!
//! A one-time pass over more pages than it should keep — opening a store,
//! which reads every page once — runs as a [`bulk_read`](BufferPool::bulk_read):
//! its misses cycle through a ring of at most [`RING_PAGES`] frames, as
//! PostgreSQL's bulk-read strategy does, so the pass leaves at most that
//! many page images behind however large the pool.
//! All traffic is counted in an [`IoStats`] snapshot — the measured
//! counterpart of `relstore`'s estimated cost model.
//!
//! ## Durability
//!
//! A pool may carry a write-ahead log ([`with_wal`](BufferPool::with_wal),
//! [`open_durable`](BufferPool::open_durable)). With a WAL attached,
//! [`checkpoint`](BufferPool::checkpoint) becomes the atomic durability
//! point: page images + a commit record are written to the log in one
//! positioned write and the log is synced — one fsync, and no write to
//! the data file. A frame so logged is clean but **unwritten**: its
//! committed image is in the log and newer than the data file. Unwritten
//! frames reach the data file in a **write-back** — every one of them is
//! written and the data file is synced; only then does the log start a
//! new generation, which empties it in place — which runs when the log
//! passes a fixed bound, and at [`flush_all`](BufferPool::flush_all).
//! [`close`](BufferPool::close), the clean shutdown, writes back and cuts
//! the log file to zero. Eviction also writes an unwritten frame back,
//! with no sync: the log still holds its image.
//!
//! The pool runs **no-steal**: dirty frames are never evicted between
//! checkpoints (an eviction write-back would put uncommitted bytes in the
//! data file where a redo-only log cannot undo them), so a commit that
//! dirties more pages than the pool holds fails with `PoolExhausted`
//! instead of silently losing atomicity.
//!
//! **Unlogged pages** are the one exception. A page allocated with
//! [`allocate_pinned(true)`](BufferPool::allocate_pinned) belongs to a
//! scratch structure no durable structure references: a checkpoint
//! neither logs nor writes it back, and eviction may write it to the
//! data file with no log record. To keep "no durable structure references it" true, a page a
//! *logged* structure frees is held back from unlogged allocations until
//! the next durability point — the last durable state may still reach
//! it; once the batch that unlinked it is in the log, none does. Whoever
//! opens the store frees every unlogged page, since nothing reaches it.
//!
//! The pool is single-threaded (interior mutability via `RefCell`/`Cell`),
//! matching the rest of the engine.

use crate::error::{Error, Result};
use crate::page::{Page, PageId, PAGE_SIZE};
use crate::pager::{FilePager, MemPager, Pager};
use crate::recovery::{self, RecoveryReport};
use crate::stats::IoStats;
use crate::wal::{Wal, LOG_BOUND, RECORD_HEADER};
use obs::Recorder;
use std::cell::{Cell, Ref, RefCell, RefMut};
use std::collections::{HashMap, HashSet, VecDeque};
use std::ops::{Deref, DerefMut};
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Frames a [`bulk_read`](BufferPool::bulk_read) cycles its misses
/// through (256 KiB of images).
pub const RING_PAGES: usize = 32;

struct Frame {
    page_id: Cell<Option<PageId>>,
    /// The page image, shared with outstanding [`PageLease`]s. Until a
    /// page first lands in the frame it is the process-wide
    /// [`empty_image`], so an unused frame costs no 8 KiB. After that the
    /// frame normally holds the only reference, so mutation through
    /// [`Arc::make_mut`] is in-place; while a lease is live a mutable
    /// guard copies-on-write and the lease keeps the frozen image.
    data: RefCell<Arc<Page>>,
    pin: Cell<u32>,
    /// Live [`PageLease`]s on this frame's current page. Atomic because
    /// leases may drop on other threads; treated exactly like a pin by
    /// eviction. Shared with the leases themselves.
    leases: Arc<AtomicU32>,
    referenced: Cell<bool>,
    /// Changed since the last durability point.
    dirty: Cell<bool>,
    /// Logged, not yet written: the committed image is in the log and
    /// newer than the data file's copy. Clean for leases; eviction and
    /// the write-back write it.
    unwritten: Cell<bool>,
}

/// The one empty page image every frame starts with. It is never
/// written: the static's own reference keeps it shared.
fn empty_image() -> &'static Arc<Page> {
    static EMPTY: OnceLock<Arc<Page>> = OnceLock::new();
    EMPTY.get_or_init(|| Arc::new(Page::new()))
}

impl Frame {
    fn empty() -> Self {
        Frame {
            page_id: Cell::new(None),
            data: RefCell::new(Arc::clone(empty_image())),
            pin: Cell::new(0),
            leases: Arc::new(AtomicU32::new(0)),
            referenced: Cell::new(false),
            dirty: Cell::new(false),
            unwritten: Cell::new(false),
        }
    }

    /// Nothing to write: the frame matches the data file, or holds
    /// nothing worth keeping.
    fn clear(&self) {
        self.dirty.set(false);
        self.unwritten.set(false);
    }

    fn lease_count(&self) -> u32 {
        self.leases.load(Ordering::Acquire)
    }
}

/// The frames that may have one bit set — dirty, or unwritten — each
/// listed once. Every frame whose bit is set is listed, so a checkpoint
/// reads the list instead of every frame.
struct FrameList {
    listed: Vec<Cell<bool>>,
    ids: RefCell<Vec<usize>>,
}

impl FrameList {
    fn new(capacity: usize) -> Self {
        FrameList {
            listed: (0..capacity).map(|_| Cell::new(false)).collect(),
            ids: RefCell::new(Vec::new()),
        }
    }

    /// List frame `i`, whose bit was just set.
    fn note(&self, i: usize) {
        if !self.listed[i].replace(true) {
            self.ids.borrow_mut().push(i);
        }
    }

    /// Unlist the frames for which `set` is false, and return the rest,
    /// ascending.
    fn retain(&self, set: impl Fn(usize) -> bool) -> Vec<usize> {
        let mut ids = self.ids.borrow_mut();
        ids.retain(|&i| {
            let keep = set(i);
            self.listed[i].set(keep);
            keep
        });
        ids.sort_unstable();
        ids.clone()
    }
}

/// A shared (read) pin on a buffered page. Unpins on drop.
pub struct PageRef<'a> {
    data: Ref<'a, Arc<Page>>,
    pin: &'a Cell<u32>,
}

impl Deref for PageRef<'_> {
    type Target = Page;
    fn deref(&self) -> &Page {
        &self.data
    }
}

impl Drop for PageRef<'_> {
    fn drop(&mut self) {
        self.pin.set(self.pin.get() - 1);
    }
}

/// An exclusive (write) pin on a buffered page. The frame is marked dirty
/// at fetch time; unpins on drop.
pub struct PageMut<'a> {
    data: RefMut<'a, Arc<Page>>,
    pin: &'a Cell<u32>,
}

impl Deref for PageMut<'_> {
    type Target = Page;
    fn deref(&self) -> &Page {
        &self.data
    }
}

impl DerefMut for PageMut<'_> {
    fn deref_mut(&mut self) -> &mut Page {
        // Copy-on-write belt: if a lease is still held on the old
        // image this clones the page so the lease's view stays frozen;
        // with no leases outstanding the Arc is unique and this is free.
        Arc::make_mut(&mut self.data)
    }
}

impl Drop for PageMut<'_> {
    fn drop(&mut self) {
        self.pin.set(self.pin.get() - 1);
    }
}

/// An immutable, owned lease on one page image, safe to ship to another
/// thread (`Send + Sync`; the pool itself stays single-threaded).
///
/// A lease is handed out by [`BufferPool::lease`] and shares the frame's
/// `Arc<Page>` — **zero bytes are copied**. While any lease on a frame is
/// live the clock sweep refuses to evict it (the lease count acts as a
/// cross-thread pin); dropping the last lease makes the frame evictable
/// again. Dirty pages refuse leases ([`Error::PageDirty`]): an
/// uncheckpointed image is not stable enough to freeze.
pub struct PageLease {
    id: PageId,
    data: Arc<Page>,
    leases: Arc<AtomicU32>,
}

impl PageLease {
    /// The leased page's id.
    pub fn id(&self) -> PageId {
        self.id
    }
}

impl Deref for PageLease {
    type Target = Page;
    fn deref(&self) -> &Page {
        &self.data
    }
}

impl Clone for PageLease {
    fn clone(&self) -> Self {
        self.leases.fetch_add(1, Ordering::AcqRel);
        PageLease {
            id: self.id,
            data: Arc::clone(&self.data),
            leases: Arc::clone(&self.leases),
        }
    }
}

impl Drop for PageLease {
    fn drop(&mut self) {
        self.leases.fetch_sub(1, Ordering::AcqRel);
    }
}

impl std::fmt::Debug for PageLease {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageLease").field("id", &self.id).finish()
    }
}

/// Fixed-capacity page cache over a [`Pager`].
pub struct BufferPool {
    frames: Vec<Frame>,
    map: RefCell<HashMap<PageId, usize>>,
    hand: Cell<usize>,
    pager: RefCell<Box<dyn Pager>>,
    /// Allocated pages nothing owns, handed out again by
    /// [`allocate_pinned`](BufferPool::allocate_pinned) before the pager
    /// grows. Not persisted: a page is free because no structure reaches
    /// it, which whoever opens the store works out again
    /// ([`free_unreached`](BufferPool::free_unreached)).
    free: RefCell<Vec<PageId>>,
    /// Pages a logged structure freed since the last completed checkpoint
    /// of a durable pool: the durable state may still reach them, so only
    /// a logged allocation may reuse one. They join `free` when the next
    /// checkpoint completes.
    held: RefCell<Vec<PageId>>,
    /// Pages of unlogged structures, resident or spilled.
    unlogged: RefCell<HashSet<PageId>>,
    /// The frames a checkpoint logs, and those a write-back writes.
    dirty: FrameList,
    unwritten: FrameList,
    /// Frames holding an image of their own: those a page ever landed in.
    images: Cell<usize>,
    /// Frames a freed page left, image kept: taken before the clock
    /// sweep, so an empty frame gets an image only when none is vacant.
    vacant: RefCell<Vec<usize>>,
    /// The frames bulk reads cycle through, least recently taken first.
    /// Kept between bulk reads, so they all share one ring.
    ring: RefCell<VecDeque<usize>>,
    /// Whether a bulk read is running.
    bulk: Cell<bool>,
    wal: RefCell<Option<Wal>>,
    stats: RefCell<IoStats>,
    recorder: RefCell<Recorder>,
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("capacity", &self.frames.len())
            .field("resident", &self.map.borrow().len())
            .field("stats", &*self.stats.borrow())
            .finish()
    }
}

impl BufferPool {
    /// A pool of `capacity` frames over `pager`.
    pub fn new(pager: Box<dyn Pager>, capacity: usize) -> Self {
        let capacity = capacity.max(1);
        BufferPool {
            frames: (0..capacity).map(|_| Frame::empty()).collect(),
            map: RefCell::new(HashMap::with_capacity(capacity)),
            hand: Cell::new(0),
            pager: RefCell::new(pager),
            free: RefCell::new(Vec::new()),
            held: RefCell::new(Vec::new()),
            unlogged: RefCell::new(HashSet::new()),
            dirty: FrameList::new(capacity),
            unwritten: FrameList::new(capacity),
            images: Cell::new(0),
            vacant: RefCell::new(Vec::new()),
            ring: RefCell::new(VecDeque::with_capacity(RING_PAGES)),
            bulk: Cell::new(false),
            wal: RefCell::new(None),
            stats: RefCell::new(IoStats::new()),
            // Until a `Database` routes them into its own recorder, the
            // pool's spans aggregate here; none carries a trace, so the
            // journal is off and one slot long.
            recorder: RefCell::new(Recorder::with_journal(1, 0)),
        }
    }

    /// A pool over a fresh in-memory pager.
    pub fn in_memory(capacity: usize) -> Self {
        BufferPool::new(Box::new(MemPager::new()), capacity)
    }

    /// A pool whose [`checkpoint`](Self::checkpoint) is a WAL-protected
    /// atomic durability point. The caller is responsible for having run
    /// recovery on `(pager, wal)` first — or use
    /// [`open_durable`](Self::open_durable), which does.
    pub fn with_wal(pager: Box<dyn Pager>, wal: Wal, capacity: usize) -> Self {
        let pool = BufferPool::new(pager, capacity);
        *pool.wal.borrow_mut() = Some(wal);
        pool
    }

    /// Open (or create) a durable store in `dir`: a page file
    /// (`pages.db`) plus a write-ahead log (`wal.log`). Runs crash
    /// recovery before the pool comes up, so committed checkpoints that
    /// never finished writing back are replayed and torn log tails are
    /// repaired.
    pub fn open_durable(dir: impl AsRef<Path>, capacity: usize) -> Result<(Self, RecoveryReport)> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let mut pager = FilePager::open_recoverable(dir.join("pages.db"))?;
        let mut wal = Wal::open_file(dir.join("wal.log"))?;
        let report = recovery::recover(&mut pager, &mut wal)?;
        Ok((BufferPool::with_wal(Box::new(pager), wal, capacity), report))
    }

    /// Whether a write-ahead log is attached (checkpoints are atomic).
    pub fn is_durable(&self) -> bool {
        self.wal.borrow().is_some()
    }

    /// Replay the attached WAL into the pager, as after a crash.
    ///
    /// Requires a quiesced pool: no outstanding pins or leases, and no
    /// unlogged page (nothing could bring its contents back). Every frame
    /// is invalidated first — resident *dirty* pages are discarded,
    /// exactly as a real crash would discard them, and subsequent fetches
    /// reread the recovered images.
    pub fn recover(&self) -> Result<RecoveryReport> {
        let _span = self.span("pagestore.wal.recover");
        let mut wal_ref = self.wal.borrow_mut();
        let wal = wal_ref.as_mut().ok_or(Error::NotDurable)?;
        let busy = self
            .frames
            .iter()
            .find(|f| f.pin.get() > 0 || f.lease_count() > 0)
            .map(|f| f.page_id.get().unwrap_or(0));
        if let Some(id) = busy.or_else(|| self.unlogged.borrow().iter().next().copied()) {
            return Err(Error::PageBusy(id));
        }
        self.map.borrow_mut().clear();
        for f in &self.frames {
            f.page_id.set(None);
            f.clear();
            f.referenced.set(false);
        }
        let own = |&i: &usize| !Arc::ptr_eq(&self.frames[i].data.borrow(), empty_image());
        *self.vacant.borrow_mut() = (0..self.frames.len()).filter(own).collect();
        let mut pager = self.pager.borrow_mut();
        recovery::recover(pager.as_mut(), wal)
    }

    /// Number of frames: a bound, since a frame takes its 8 KiB only
    /// when a page first lands in it.
    pub fn capacity(&self) -> usize {
        self.frames.len()
    }

    /// Frames holding a page image of their own (at most the capacity).
    pub fn images(&self) -> usize {
        self.images.get()
    }

    /// Give a frame still holding the shared empty image an empty page of
    /// its own; whether it had to.
    fn own_image(&self, data: &mut Arc<Page>) -> bool {
        let shared = Arc::ptr_eq(data, empty_image());
        if shared {
            *data = Arc::new(Page::new());
            self.images.set(self.images.get() + 1);
        }
        shared
    }

    /// Pages allocated in the underlying pager.
    pub fn num_pages(&self) -> u32 {
        self.pager.borrow().num_pages()
    }

    /// Pages nothing owns: the free list, plus the pages held back from
    /// unlogged allocations until the next checkpoint.
    pub fn free_pages(&self) -> usize {
        self.free.borrow().len() + self.held.borrow().len()
    }

    /// Pages of unlogged structures, resident or spilled to the pager.
    pub fn unlogged_pages(&self) -> usize {
        self.unlogged.borrow().len()
    }

    /// Give page `id` back: its contents are dead, so a resident frame
    /// loses its dirty and unwritten bits (a checkpoint must not log it,
    /// nor a write-back write it) and, unless a pin or lease still holds
    /// it, its mapping. A logged page of a durable pool is held back from
    /// unlogged allocations until the next durability point.
    pub fn free_page(&self, id: PageId) {
        let resident = self.map.borrow().get(&id).copied();
        if let Some(idx) = resident {
            let frame = &self.frames[idx];
            frame.clear();
            if frame.pin.get() == 0 && frame.lease_count() == 0 {
                frame.page_id.set(None);
                frame.referenced.set(false);
                self.map.borrow_mut().remove(&id);
                self.vacant.borrow_mut().push(idx);
            }
        }
        let unlogged = self.unlogged.borrow_mut().remove(&id);
        if unlogged || !self.is_durable() {
            self.free.borrow_mut().push(id);
        } else {
            self.held.borrow_mut().push(id);
        }
    }

    /// Make the free list every allocated page not in `reached` — the
    /// pages the structures of a just-opened store were found to use.
    /// Lowest ids are handed out first.
    pub fn free_unreached(&self, reached: impl IntoIterator<Item = PageId>) {
        let mut used = vec![false; self.num_pages() as usize];
        for id in reached {
            if let Some(slot) = used.get_mut(id as usize) {
                *slot = true;
            }
        }
        let ids = (0..used.len()).rev().filter(|&i| !used[i]);
        *self.free.borrow_mut() = ids.map(|i| i as PageId).collect();
        self.held.borrow_mut().clear();
    }

    /// Whether `id` currently occupies a frame (no pin, no I/O charge).
    pub fn is_resident(&self, id: PageId) -> bool {
        self.map.borrow().contains_key(&id)
    }

    /// Traffic counters since construction or the last [`reset_stats`](Self::reset_stats).
    pub fn stats(&self) -> IoStats {
        *self.stats.borrow()
    }

    pub fn reset_stats(&self) {
        *self.stats.borrow_mut() = IoStats::new();
    }

    /// Route this pool's spans (checkpoint, miss, evict, recover) into
    /// `recorder` instead of the pool's own. A `Database` sets
    /// its scoped recorder here so parallel tests stay hermetic.
    pub fn set_recorder(&self, recorder: Recorder) {
        *self.recorder.borrow_mut() = recorder;
    }

    /// The recorder this pool's spans land in.
    pub fn recorder(&self) -> Recorder {
        self.recorder.borrow().clone()
    }

    fn span(&self, name: &'static str) -> obs::SpanGuard {
        self.recorder.borrow().enter(name)
    }

    /// Run `f` as a bulk read: while it runs, a miss reuses one of at most
    /// [`RING_PAGES`] frames. Once the ring is full a miss takes its
    /// oldest frame that is not pinned, leased, dirty or unwritten,
    /// evicting the page there; if none is, the miss takes a frame as any
    /// miss does, and that frame joins the ring. A hit reads the resident
    /// page in place. A bulk read inside `f` joins the running one.
    pub fn bulk_read<T>(&self, f: impl FnOnce() -> T) -> T {
        /// Puts back whether a bulk read was running, also on a panic.
        struct Restore<'a>(&'a Cell<bool>, bool);
        impl Drop for Restore<'_> {
            fn drop(&mut self) {
                self.0.set(self.1);
            }
        }
        let _restore = Restore(&self.bulk, self.bulk.replace(true));
        f()
    }

    /// Pin `id` for reading. Fails with [`Error::PageBusy`] (instead of
    /// panicking) if a mutable guard to the page is live.
    pub fn fetch(&self, id: PageId) -> Result<PageRef<'_>> {
        let idx = self.pin_frame(id)?;
        let frame = &self.frames[idx];
        match frame.data.try_borrow() {
            Ok(data) => Ok(PageRef {
                data,
                pin: &frame.pin,
            }),
            Err(_) => {
                frame.pin.set(frame.pin.get() - 1);
                Err(Error::PageBusy(id))
            }
        }
    }

    /// Lease `id`'s current image for reading off-thread. Charges one
    /// logical read (exactly like [`fetch`](Self::fetch)) and shares the
    /// frame's `Arc<Page>` without copying. The returned [`PageLease`]
    /// owns its view: no pin is held, but the frame's lease count keeps
    /// it unevictable until every lease is dropped.
    ///
    /// Fails with [`Error::PageDirty`] on a page changed since the last
    /// durability point (its image is not stable) and [`Error::PageBusy`] while a mutable guard
    /// is live; both release the residency pin taken for the attempt.
    pub fn lease(&self, id: PageId) -> Result<PageLease> {
        let idx = self.pin_frame(id)?;
        let frame = &self.frames[idx];
        let lease = if frame.dirty.get() {
            Err(Error::PageDirty(id))
        } else {
            match frame.data.try_borrow() {
                Ok(data) => {
                    frame.leases.fetch_add(1, Ordering::AcqRel);
                    Ok(PageLease {
                        id,
                        data: Arc::clone(&data),
                        leases: Arc::clone(&frame.leases),
                    })
                }
                Err(_) => Err(Error::PageBusy(id)),
            }
        };
        // The pin only guaranteed residency while the Arc was cloned; the
        // lease count itself keeps the frame unevictable from here on.
        frame.pin.set(frame.pin.get() - 1);
        lease
    }

    /// Whether `id` is resident *and* dirty. A non-resident page is never
    /// dirty (no-steal keeps dirty pages resident), so this charges no
    /// read: it tells whether a [`lease`](Self::lease) would be refused.
    pub fn is_dirty(&self, id: PageId) -> bool {
        self.map
            .borrow()
            .get(&id)
            .is_some_and(|&idx| self.frames[idx].dirty.get())
    }

    /// Count `bytes` of tuple payload written through the page codec.
    pub fn note_tuple_encoded(&self, bytes: u64) {
        self.stats.borrow_mut().tuple_bytes_encoded += bytes;
    }

    /// Count `n` tuples decoded from page bytes back into rows.
    pub fn note_tuples_decoded(&self, n: u64) {
        self.stats.borrow_mut().tuples_decoded += n;
    }

    /// Count the wall-clock time spent decoding on the scan path.
    pub fn note_decode_time(&self, spent: Duration) {
        self.stats.borrow_mut().decode_nanos += spent.as_nanos() as u64;
    }

    /// Pin `id` for writing; the frame is marked dirty once the exclusive
    /// borrow succeeds. A page with any live guard fails with
    /// [`Error::PageBusy`] — and stays clean, so a failed attempt never
    /// causes a spurious write-back.
    pub fn fetch_mut(&self, id: PageId) -> Result<PageMut<'_>> {
        let idx = self.pin_frame(id)?;
        let frame = &self.frames[idx];
        match frame.data.try_borrow_mut() {
            Ok(data) => {
                frame.dirty.set(true);
                self.dirty.note(idx);
                Ok(PageMut {
                    data,
                    pin: &frame.pin,
                })
            }
            Err(_) => {
                frame.pin.set(frame.pin.get() - 1);
                Err(Error::PageBusy(id))
            }
        }
    }

    /// Pin an empty page nothing else owns: one off the free list, or a
    /// fresh one from the pager. Installing it charges no read (there is
    /// nothing to read). An `unlogged` page is never logged or written
    /// back by a checkpoint and may be evicted dirty (see the module
    /// docs); it never reuses a held page. A logged page takes a held
    /// one first — it stays in memory until a checkpoint logs it.
    ///
    /// The victim frame is reserved *before* the pager allocates: on an
    /// exhausted pool the allocation never happens, so no page id leaks
    /// into the backing file unreachable.
    pub fn allocate_pinned(&self, unlogged: bool) -> Result<(PageId, PageMut<'_>)> {
        let held = !unlogged && !self.held.borrow().is_empty();
        let list = if held { &self.held } else { &self.free };
        let recycled = list.borrow_mut().pop();
        let installed = self.install(recycled);
        match (&installed, recycled) {
            (Err(_), Some(id)) => list.borrow_mut().push(id),
            (Ok((id, _)), _) if unlogged => drop(self.unlogged.borrow_mut().insert(*id)),
            _ => {}
        }
        installed
    }

    /// Pin page `recycled` — or, for `None`, the page the pager grows by —
    /// in a frame, empty and dirty, without reading stale contents.
    fn install(&self, recycled: Option<PageId>) -> Result<(PageId, PageMut<'_>)> {
        // A freed page is still resident if a pin or a lease held its frame.
        let resident = recycled.and_then(|id| self.map.borrow().get(&id).copied());
        let idx = match resident {
            Some(idx) => idx,
            None => self.victim_frame()?,
        };
        let id = match recycled {
            Some(id) => id,
            None => self.pager.borrow_mut().allocate()?,
        };
        let frame = &self.frames[idx];
        let Ok(mut data) = frame.data.try_borrow_mut() else {
            return Err(Error::PageBusy(id));
        };
        if !self.own_image(&mut data) {
            Arc::make_mut(&mut data).reset();
        }
        frame.page_id.set(Some(id));
        frame.pin.set(frame.pin.get() + 1);
        frame.referenced.set(true);
        frame.unwritten.set(false);
        frame.dirty.set(true);
        self.dirty.note(idx);
        self.map.borrow_mut().insert(id, idx);
        Ok((
            id,
            PageMut {
                data,
                pin: &frame.pin,
            },
        ))
    }

    /// The durability point. With a WAL attached: append the image of
    /// every dirty logged frame plus a commit record and sync the log —
    /// one fsync, the batch's commit; a crash anywhere before it recovers
    /// to none of the batch, after it to all of it. The frames become
    /// clean and unwritten, and the held pages are free for any
    /// allocation. Past the log bound the write-back follows. Without a
    /// WAL, dirty logged frames are written to the pager, which is synced.
    /// Unlogged pages stay as they are.
    ///
    /// Fails with [`Error::PageBusy`] if a mutable guard is outstanding.
    pub fn checkpoint(&self) -> Result<()> {
        self.checkpoint_then(false)
    }

    /// [`checkpoint`](Self::checkpoint), then the write-back whatever the
    /// log's length: every committed page reaches the data file and the
    /// log is left empty.
    pub fn flush_all(&self) -> Result<()> {
        self.checkpoint_then(true)
    }

    /// Clean shutdown: [`flush_all`](Self::flush_all), then the log file
    /// cut to zero and synced, so a reopen replays nothing. A durability
    /// point after it formats the log file again.
    pub fn close(&self) -> Result<()> {
        self.flush_all()?;
        if let Some(wal) = self.wal.borrow_mut().as_mut() {
            let _span = self.span("pagestore.wal.fsync");
            wal.close()?;
            self.stats.borrow_mut().wal_fsyncs += 1;
        }
        Ok(())
    }

    /// Bytes of records in the log (0 without one): the batches since
    /// the last write-back.
    pub fn log_len(&self) -> u64 {
        self.wal.borrow().as_ref().map_or(0, Wal::len)
    }

    fn checkpoint_then(&self, write_back: bool) -> Result<()> {
        let _span = self.span("pagestore.checkpoint");
        let mut wal_ref = self.wal.borrow_mut();
        let dirty = self.frames_where(&self.dirty, |f| f.dirty.get());
        match wal_ref.as_mut() {
            // A batch that failed is taken back from the file, so that a
            // restart does not replay a durability point that was refused.
            // Best effort: the batch's own error is the one reported.
            Some(wal) => self
                .log_batch(wal, &dirty)
                .inspect_err(|_| drop(wal.take_back()))?,
            None => self.write_frames(&dirty)?,
        }
        self.stats.borrow_mut().checkpoints += 1;
        self.free.borrow_mut().append(&mut self.held.borrow_mut());
        match wal_ref.as_mut() {
            Some(wal) if wal.len() > LOG_BOUND || (write_back && !wal.is_empty()) => {
                self.write_back(wal)
            }
            _ => Ok(()),
        }
    }

    /// Resident logged frames of `list` whose bit `set` reads, as (frame,
    /// page) pairs in frame order.
    fn frames_where(&self, list: &FrameList, set: impl Fn(&Frame) -> bool) -> Vec<(usize, PageId)> {
        let unlogged = self.unlogged.borrow();
        let frames = list.retain(|i| set(&self.frames[i])).into_iter();
        frames
            .filter_map(|i| match self.frames[i].page_id.get() {
                Some(id) if !unlogged.contains(&id) => Some((i, id)),
                _ => None,
            })
            .collect()
    }

    /// Write `dirty`'s images and a commit record to the log, and sync
    /// it. The batch goes to the log's end, over whatever a failed batch
    /// left there.
    fn log_batch(&self, wal: &mut Wal, dirty: &[(usize, PageId)]) -> Result<()> {
        if dirty.is_empty() {
            return Ok(());
        }
        let file_len = wal.file_len();
        {
            let _span = self.span("pagestore.wal.append");
            wal.rewind();
            for &(i, id) in dirty {
                let data = self.frames[i]
                    .data
                    .try_borrow()
                    .map_err(|_| Error::PageBusy(id))?;
                wal.append_page(id, data.bytes())?;
                let mut stats = self.stats.borrow_mut();
                stats.wal_appends += 1;
                stats.wal_bytes += (RECORD_HEADER + PAGE_SIZE) as u64;
            }
            wal.append_commit()?;
            let mut stats = self.stats.borrow_mut();
            stats.wal_appends += 1;
            stats.wal_bytes += RECORD_HEADER as u64;
        }
        // Durability point: the batch commits here.
        let _span = self.span("pagestore.wal.fsync");
        wal.sync()?;
        let mut stats = self.stats.borrow_mut();
        stats.wal_fsyncs += 1;
        stats.wal_file_grows += u64::from(wal.file_len() > file_len);
        for &(i, _) in dirty {
            self.frames[i].dirty.set(false);
            self.frames[i].unwritten.set(true);
            self.unwritten.note(i);
        }
        Ok(())
    }

    /// The write-back: every unwritten frame to the data file, sync it,
    /// then empty the log — start its next generation — and sync that.
    /// The log is emptied only once the data file holds every image it
    /// carries.
    fn write_back(&self, wal: &mut Wal) -> Result<()> {
        self.write_frames(&self.frames_where(&self.unwritten, |f| f.unwritten.get()))?;
        let _span = self.span("pagestore.wal.fsync");
        wal.restart()?;
        let mut stats = self.stats.borrow_mut();
        stats.wal_fsyncs += 1;
        stats.wal_drains += 1;
        Ok(())
    }

    /// Write `frames` to the pager and sync it.
    fn write_frames(&self, frames: &[(usize, PageId)]) -> Result<()> {
        let _span = self.span("pagestore.pool.write_back");
        let mut pager = self.pager.borrow_mut();
        for &(i, id) in frames {
            let frame = &self.frames[i];
            let data = frame.data.try_borrow().map_err(|_| Error::PageBusy(id))?;
            pager.write(id, &data)?;
            frame.clear();
            self.stats.borrow_mut().flushed_writes += 1;
        }
        pager.sync()?;
        self.stats.borrow_mut().pager_syncs += 1;
        Ok(())
    }

    /// Find the frame holding `id`, loading (and possibly evicting) on a
    /// miss, and take one pin on it.
    fn pin_frame(&self, id: PageId) -> Result<usize> {
        self.stats.borrow_mut().logical_reads += 1;
        if let Some(&idx) = self.map.borrow().get(&id) {
            let frame = &self.frames[idx];
            frame.pin.set(frame.pin.get() + 1);
            frame.referenced.set(true);
            return Ok(idx);
        }
        self.stats.borrow_mut().physical_reads += 1;
        let _span = self.span("pagestore.pool.miss");
        let idx = if self.bulk.get() {
            self.ring_frame()?
        } else {
            self.victim_frame()?
        };
        let frame = &self.frames[idx];
        // A victim frame has no leases, so its Arc is unique and
        // `make_mut` reads into the existing buffer without copying — once
        // the frame's first load has replaced the shared empty image.
        let mut data = frame.data.borrow_mut();
        self.own_image(&mut data);
        self.pager.borrow_mut().read(id, Arc::make_mut(&mut data))?;
        frame.page_id.set(Some(id));
        frame.pin.set(1);
        frame.referenced.set(true);
        frame.clear();
        self.map.borrow_mut().insert(id, idx);
        Ok(idx)
    }

    /// The frame a miss in a bulk read takes: once the ring is full, its
    /// oldest frame nothing holds and nothing unsaved is in, emptied;
    /// otherwise a victim frame, which joins the ring.
    fn ring_frame(&self) -> Result<usize> {
        let mut ring = self.ring.borrow_mut();
        let idle = |&i: &usize| {
            let f = &self.frames[i];
            f.pin.get() == 0 && f.lease_count() == 0 && !f.dirty.get() && !f.unwritten.get()
        };
        let full = ring.len() >= RING_PAGES;
        let oldest_idle = ring.iter().position(idle).filter(|_| full);
        let idx = match oldest_idle.and_then(|at| ring.remove(at)) {
            Some(idx) => {
                self.evict(idx)?;
                idx
            }
            None => {
                let idx = self.victim_frame()?;
                ring.retain(|&i| i != idx);
                idx
            }
        };
        ring.push_back(idx);
        Ok(idx)
    }

    /// A frame a freed page left, if there is one — it holds an image
    /// already, and taking it evicts nothing. Otherwise the clock sweep:
    /// return an unpinned, unleased frame, evicting its
    /// current page (written back if dirty or unwritten, with no sync). Two full sweeps guarantee
    /// an eviction if any frame is evictable.
    ///
    /// A frame with live [`PageLease`]s is never evicted — the lease
    /// count is checked exactly like the pin count, so a leased view
    /// cannot be silently invalidated; with every frame pinned or leased
    /// the sweep fails with the typed [`Error::PoolExhausted`].
    ///
    /// Under a WAL the pool is no-steal: dirty logged frames are skipped
    /// like pinned ones, because writing uncommitted pages to the data
    /// file would break checkpoint atomicity (a redo-only log cannot undo
    /// them). They become evictable at the next [`checkpoint`](Self::checkpoint).
    /// A dirty unlogged frame is evicted like any other, and so is an
    /// unwritten one: the log keeps its image until a write-back has
    /// synced the data file.
    fn victim_frame(&self) -> Result<usize> {
        while let Some(idx) = self.vacant.borrow_mut().pop() {
            if self.frames[idx].page_id.get().is_none() {
                return Ok(idx);
            }
        }
        let no_steal = self.wal.borrow().is_some();
        let logged = |id| !self.unlogged.borrow().contains(&id);
        let n = self.frames.len();
        for _ in 0..2 * n {
            let idx = self.hand.get();
            self.hand.set((idx + 1) % n);
            let frame = &self.frames[idx];
            if frame.pin.get() > 0 || frame.lease_count() > 0 {
                continue;
            }
            if no_steal && frame.dirty.get() && frame.page_id.get().is_some_and(logged) {
                continue;
            }
            if frame.referenced.get() {
                frame.referenced.set(false);
                continue;
            }
            self.evict(idx)?;
            return Ok(idx);
        }
        Err(Error::PoolExhausted { capacity: n })
    }

    /// Empty frame `idx`, which nothing holds: its page, if any, leaves
    /// the pool, written back first if dirty or unwritten (no sync).
    fn evict(&self, idx: usize) -> Result<()> {
        let frame = &self.frames[idx];
        if let Some(old) = frame.page_id.get() {
            let _span = self.span("pagestore.pool.evict");
            let mut stats = self.stats.borrow_mut();
            if frame.dirty.get() || frame.unwritten.get() {
                self.pager.borrow_mut().write(old, &frame.data.borrow())?;
                stats.write_backs += 1;
            }
            stats.evictions += 1;
            self.map.borrow_mut().remove(&old);
        }
        frame.page_id.set(None);
        frame.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool_with_pages(capacity: usize, pages: u32) -> BufferPool {
        let pool = BufferPool::in_memory(capacity);
        for i in 0..pages {
            let (id, mut page) = pool.allocate_pinned(false).unwrap();
            assert_eq!(id, i);
            page.insert(format!("page-{i}").as_bytes()).unwrap();
        }
        pool
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let pool = pool_with_pages(2, 1);
        pool.reset_stats();
        {
            let p = pool.fetch(0).unwrap();
            assert_eq!(p.get(0).unwrap(), b"page-0");
        }
        pool.fetch(0).unwrap();
        let s = pool.stats();
        assert_eq!(s.logical_reads, 2);
        // Page 0 was still resident from allocate_pinned: both reads hit.
        assert_eq!(s.physical_reads, 0);
        assert_eq!(s.hits(), 2);
    }

    /// Regression: each page's decode window was truncated to whole
    /// microseconds before it was added, so pages decoded in under 1 µs
    /// counted nothing at all.
    #[test]
    fn sub_microsecond_decode_windows_add_up() {
        let pool = BufferPool::in_memory(1);
        for _ in 0..1_000 {
            pool.note_decode_time(Duration::from_nanos(400));
        }
        assert_eq!(pool.stats().decode_nanos, 400_000);
        let registry = obs::Registry::new();
        pool.stats().publish(&registry);
        assert_eq!(registry.gauge("pagestore.page.decode_us"), Some(400.0));
    }

    #[test]
    fn eviction_and_write_back() {
        let pool = pool_with_pages(2, 4); // 4 pages through 2 frames
        let s = pool.stats();
        assert!(s.evictions >= 2, "filling 4 pages through 2 frames evicts");
        // All 4 pages were dirty when evicted or still dirty now.
        pool.flush_all().unwrap();
        let s = pool.stats();
        assert_eq!(s.write_backs + s.flushed_writes, 4);
        // Every page readable with correct content after the churn.
        for i in 0..4u32 {
            let p = pool.fetch(i).unwrap();
            assert_eq!(p.get(0).unwrap(), format!("page-{i}").as_bytes());
        }
    }

    #[test]
    fn pinned_pages_are_never_evicted() {
        let pool = pool_with_pages(2, 2);
        let guard = pool.fetch(0).unwrap();
        // Cycle many other pages through the single remaining frame.
        for _ in 0..3 {
            let (id, _) = pool.allocate_pinned(false).unwrap();
            drop(pool.fetch(id).unwrap());
        }
        assert!(pool.is_resident(0), "pinned page must stay resident");
        assert_eq!(guard.get(0).unwrap(), b"page-0");
        drop(guard);
    }

    #[test]
    fn pool_exhausted_when_all_pinned() {
        let pool = pool_with_pages(2, 2);
        let _a = pool.fetch(0).unwrap();
        let _b = pool.fetch(1).unwrap();
        let err = pool.allocate_pinned(false).err().unwrap();
        assert!(matches!(err, Error::PoolExhausted { capacity: 2 }));
    }

    #[test]
    fn second_chance_prefers_cold_pages() {
        let pool = pool_with_pages(3, 3);
        // Bringing in a fourth page clears every reference bit on the
        // first sweep and evicts page 0 (hand order).
        drop(pool.allocate_pinned(false).unwrap());
        assert!(!pool.is_resident(0));
        // Touch page 1: its reference bit grants a second chance.
        drop(pool.fetch(1).unwrap());
        // The next eviction skips re-referenced page 1, takes cold page 2.
        drop(pool.allocate_pinned(false).unwrap());
        assert!(pool.is_resident(1));
        assert!(!pool.is_resident(2));
    }

    /// Regression: `allocate_pinned` used to allocate in the pager
    /// *before* reserving a frame — on an exhausted pool the fresh page
    /// id leaked (the backing file grew; the page was never reachable).
    #[test]
    fn exhausted_pool_does_not_leak_allocated_pages() {
        let pool = pool_with_pages(2, 2);
        let pages_before = pool.num_pages();
        let _a = pool.fetch(0).unwrap();
        let _b = pool.fetch(1).unwrap();
        assert!(matches!(
            pool.allocate_pinned(false),
            Err(Error::PoolExhausted { .. })
        ));
        assert_eq!(
            pool.num_pages(),
            pages_before,
            "failed allocation must not grow the pager"
        );
    }

    /// Regression: a dropped table's pages stayed allocated and dirty, so
    /// the next checkpoint logged them and the file never stopped growing.
    #[test]
    fn freed_pages_are_not_flushed_and_are_reused_before_the_pager_grows() {
        let pool = pool_with_pages(4, 3); // three dirty resident pages
        pool.free_page(1);
        assert!(!pool.is_resident(1), "a freed frame is unmapped");
        assert_eq!(pool.free_pages(), 1);
        pool.flush_all().unwrap();
        assert_eq!(pool.stats().flushed_writes, 2, "the freed page is dead");
        let (id, page) = pool.allocate_pinned(false).unwrap();
        assert_eq!((id, page.live_count()), (1, 0), "reused, and empty");
        drop(page);
        assert_eq!((pool.num_pages(), pool.free_pages()), (3, 0));
        assert_eq!(
            pool.allocate_pinned(false).unwrap().0,
            3,
            "then the pager grows"
        );
    }

    #[test]
    fn a_freed_page_still_pinned_cannot_be_handed_out() {
        let pool = pool_with_pages(2, 1);
        let guard = pool.fetch(0).unwrap();
        pool.free_page(0);
        assert!(matches!(
            pool.allocate_pinned(false),
            Err(Error::PageBusy(0))
        ));
        assert_eq!(pool.free_pages(), 1, "and stays on the free list");
        drop(guard);
        assert_eq!(pool.allocate_pinned(false).unwrap().0, 0);
    }

    #[test]
    fn freeing_a_leased_page_keeps_the_lease_image() {
        let pool = pool_with_pages(2, 1);
        pool.flush_all().unwrap();
        let lease = pool.lease(0).unwrap();
        pool.free_page(0);
        assert!(pool.is_resident(0), "a leased frame stays mapped");
        let (id, mut page) = pool.allocate_pinned(false).unwrap();
        assert_eq!(id, 0);
        page.insert(b"next owner").unwrap();
        assert_eq!(lease.get(0).unwrap(), b"page-0");
    }

    #[test]
    fn free_unreached_frees_exactly_the_unreached_pages() {
        let pool = pool_with_pages(2, 5);
        pool.free_unreached([0, 3, 99]);
        assert_eq!(pool.free_pages(), 3);
        let ids: Vec<PageId> = (0..3)
            .map(|_| pool.allocate_pinned(false).unwrap().0)
            .collect();
        assert_eq!(ids, [1, 2, 4]);
    }

    /// Regression: re-pinning a page while a mutable guard is live hit a
    /// `RefCell` borrow panic; it must be a typed `PageBusy` error, and
    /// the pin taken for the failed attempt must be released.
    #[test]
    fn conflicting_pins_return_page_busy_instead_of_panicking() {
        let pool = pool_with_pages(2, 1);
        let guard = pool.fetch_mut(0).unwrap();
        assert!(matches!(pool.fetch(0), Err(Error::PageBusy(0))));
        assert!(matches!(pool.fetch_mut(0), Err(Error::PageBusy(0))));
        drop(guard);
        // The failed attempts released their pins: the page is evictable
        // again and a plain fetch works.
        assert_eq!(pool.fetch(0).unwrap().get(0).unwrap(), b"page-0");
        let shared = pool.fetch(0).unwrap();
        assert!(matches!(pool.fetch_mut(0), Err(Error::PageBusy(0))));
        drop(shared);
        pool.fetch_mut(0).unwrap();
    }

    /// Regression: `fetch_mut` marked the frame dirty *before* taking the
    /// exclusive borrow, so a failed attempt left a clean page flagged
    /// dirty and caused a spurious write-back at the next eviction.
    #[test]
    fn failed_fetch_mut_does_not_dirty_a_clean_page() {
        let pool = pool_with_pages(2, 4);
        pool.flush_all().unwrap(); // everything clean
        pool.reset_stats();
        {
            let shared = pool.fetch(0).unwrap();
            assert!(matches!(pool.fetch_mut(0), Err(Error::PageBusy(0))));
            drop(shared);
        }
        // Churn page 0 out with clean reads only.
        for id in [2, 3, 1] {
            drop(pool.fetch(id).unwrap());
        }
        assert!(!pool.is_resident(0));
        assert_eq!(
            pool.stats().write_backs,
            0,
            "clean page must not be written back after a failed fetch_mut"
        );
    }

    #[test]
    fn lease_keeps_frame_alive_under_eviction_pressure() {
        let pool = pool_with_pages(2, 2);
        pool.flush_all().unwrap(); // leases need clean pages
        let lease = pool.lease(0).unwrap();
        assert_eq!(lease.id(), 0);
        assert_eq!(lease.get(0).unwrap(), b"page-0");
        // Cycle many pages through the single remaining frame: the leased
        // frame must be skipped exactly like a pinned one.
        for _ in 0..4 {
            let (id, _) = pool.allocate_pinned(false).unwrap();
            drop(pool.fetch(id).unwrap());
        }
        assert!(pool.is_resident(0), "leased page must stay resident");
        assert_eq!(lease.get(0).unwrap(), b"page-0");
        drop(lease);
        // With the lease gone the frame is evictable again.
        for _ in 0..3 {
            drop(pool.allocate_pinned(false).unwrap());
        }
        assert!(!pool.is_resident(0), "dropped lease releases the frame");
    }

    #[test]
    fn dirty_pages_refuse_leases() {
        let pool = pool_with_pages(2, 1); // page 0 dirty from its insert
        assert!(matches!(pool.lease(0), Err(Error::PageDirty(0))));
        assert!(pool.is_dirty(0));
        pool.flush_all().unwrap();
        assert!(!pool.is_dirty(0));
        let lease = pool.lease(0).unwrap();
        assert_eq!(lease.get(0).unwrap(), b"page-0");
    }

    #[test]
    fn lease_charges_one_logical_read_like_fetch() {
        let pool = pool_with_pages(2, 1);
        pool.flush_all().unwrap();
        pool.reset_stats();
        let _lease = pool.lease(0).unwrap();
        let s = pool.stats();
        assert_eq!(s.logical_reads, 1);
        assert_eq!(s.physical_reads, 0, "page was resident");
    }

    #[test]
    fn all_frames_leased_is_typed_pool_exhausted() {
        let pool = pool_with_pages(2, 2);
        pool.flush_all().unwrap();
        let _a = pool.lease(0).unwrap();
        let _b = pool.lease(1).unwrap();
        assert!(matches!(
            pool.allocate_pinned(false),
            Err(Error::PoolExhausted { capacity: 2 })
        ));
    }

    #[test]
    fn cloned_leases_count_individually() {
        let pool = pool_with_pages(2, 2);
        pool.flush_all().unwrap();
        let a = pool.lease(0).unwrap();
        let b = a.clone();
        drop(a);
        // One clone still live: the frame is protected.
        for _ in 0..3 {
            drop(pool.allocate_pinned(false).unwrap());
        }
        assert!(pool.is_resident(0));
        assert_eq!(b.get(0).unwrap(), b"page-0");
        drop(b);
        for _ in 0..3 {
            drop(pool.allocate_pinned(false).unwrap());
        }
        assert!(!pool.is_resident(0));
    }

    #[test]
    fn mutation_under_a_lease_copies_on_write() {
        let pool = pool_with_pages(2, 1);
        pool.flush_all().unwrap();
        let lease = pool.lease(0).unwrap();
        {
            let mut page = pool.fetch_mut(0).unwrap();
            let slot = page.insert(b"after-lease").unwrap();
            assert_eq!(page.get(slot).unwrap(), b"after-lease");
        }
        // The lease's image is frozen at lease time...
        assert_eq!(lease.live_count(), 1, "lease must not see the mutation");
        // ...while the pool serves the new image.
        assert_eq!(pool.fetch(0).unwrap().live_count(), 2);
    }

    #[test]
    fn lease_on_mutably_borrowed_page_is_page_busy_and_releases_pin() {
        let pool = pool_with_pages(2, 1);
        pool.flush_all().unwrap();
        let guard = pool.fetch(0).unwrap();
        // A shared guard doesn't block a lease...
        drop(pool.lease(0).unwrap());
        drop(guard);
        // ...but an exclusive one does. (fetch_mut also dirties the page,
        // so re-cleaning is needed before the borrow check is reachable —
        // use a raw mutable borrow of the frame to isolate the case.)
        let mut_guard = pool.fetch_mut(0).unwrap();
        assert!(matches!(
            pool.lease(0),
            Err(Error::PageDirty(0) | Error::PageBusy(0))
        ));
        drop(mut_guard);
        pool.flush_all().unwrap();
        // The failed attempts released their pins: page evictable again.
        for _ in 0..3 {
            drop(pool.allocate_pinned(false).unwrap());
        }
        assert!(!pool.is_resident(0));
    }

    #[test]
    fn recover_refuses_outstanding_leases() {
        use crate::wal::MemWalStore;
        let wal = Wal::new(Box::new(MemWalStore::new()));
        let pool = BufferPool::with_wal(Box::new(MemPager::new()), wal, 2);
        let (id, mut page) = pool.allocate_pinned(false).unwrap();
        page.insert(b"leased").unwrap();
        drop(page);
        pool.flush_all().unwrap();
        let lease = pool.lease(id).unwrap();
        assert!(matches!(pool.recover(), Err(Error::PageBusy(p)) if p == id));
        drop(lease);
        pool.recover().unwrap();
    }

    #[test]
    fn wal_checkpoint_logs_before_data_and_truncates_after() {
        use crate::wal::MemWalStore;
        let wal = Wal::new(Box::new(MemWalStore::new()));
        let pool = BufferPool::with_wal(Box::new(MemPager::new()), wal, 4);
        let (id, mut page) = pool.allocate_pinned(false).unwrap();
        page.insert(b"walled").unwrap();
        drop(page);
        pool.flush_all().unwrap();
        let s = pool.stats();
        // One dirty page: one image record + one commit record.
        assert_eq!(s.wal_appends, 2);
        assert_eq!(s.wal_bytes, (2 * RECORD_HEADER + PAGE_SIZE) as u64);
        assert_eq!(s.flushed_writes, 1);
        assert_eq!(s.checkpoints, 1);
        assert!(
            pool.wal.borrow().as_ref().unwrap().is_empty(),
            "log truncates after a completed checkpoint"
        );
        // An idle checkpoint appends nothing.
        pool.flush_all().unwrap();
        let s = pool.stats();
        assert_eq!(s.wal_appends, 2);
        assert_eq!(s.checkpoints, 2);
        assert_eq!(pool.fetch(id).unwrap().get(0).unwrap(), b"walled");
    }

    #[test]
    fn no_steal_under_wal_skips_dirty_frames() {
        use crate::wal::MemWalStore;
        let wal = Wal::new(Box::new(MemWalStore::new()));
        let pool = BufferPool::with_wal(Box::new(MemPager::new()), wal, 2);
        // Two dirty pages fill the pool; without a checkpoint they are
        // unevictable, so a third allocation must fail rather than write
        // uncommitted bytes to the data file.
        let (a, mut pa) = pool.allocate_pinned(false).unwrap();
        pa.insert(b"dirty-a").unwrap();
        drop(pa);
        let (b, mut pb) = pool.allocate_pinned(false).unwrap();
        pb.insert(b"dirty-b").unwrap();
        drop(pb);
        assert!(matches!(
            pool.allocate_pinned(false),
            Err(Error::PoolExhausted { .. })
        ));
        // After the checkpoint both frames are clean and evictable.
        pool.flush_all().unwrap();
        let (_, pc) = pool.allocate_pinned(false).unwrap();
        drop(pc);
        assert_eq!(pool.fetch(a).unwrap().get(0).unwrap(), b"dirty-a");
        assert_eq!(pool.fetch(b).unwrap().get(0).unwrap(), b"dirty-b");
    }

    fn durable_pool(capacity: usize) -> BufferPool {
        use crate::wal::MemWalStore;
        let wal = Wal::new(Box::new(MemWalStore::new()));
        BufferPool::with_wal(Box::new(MemPager::new()), wal, capacity)
    }

    #[test]
    fn unlogged_pages_skip_checkpoints_and_spill_under_no_steal() {
        let pool = durable_pool(2);
        let (a, mut page) = pool.allocate_pinned(false).unwrap();
        page.insert(b"logged").unwrap();
        drop(page);
        let (s, mut page) = pool.allocate_pinned(true).unwrap();
        page.insert(b"scratch").unwrap();
        drop(page);
        assert_eq!(pool.unlogged_pages(), 1);
        pool.flush_all().unwrap();
        let st = pool.stats();
        assert_eq!(st.wal_bytes, (2 * RECORD_HEADER + PAGE_SIZE) as u64);
        assert_eq!(st.flushed_writes, 1, "the logged page alone");
        assert!(pool.is_dirty(s) && !pool.is_dirty(a));
        // A dirty logged page pins its frame; the dirty unlogged one is
        // written to the pager to make room.
        pool.fetch_mut(a).unwrap().insert(b"again").unwrap();
        drop(pool.allocate_pinned(true).unwrap());
        assert_eq!(pool.stats().write_backs, 1);
        assert!(!pool.is_resident(s) && pool.is_resident(a));
        assert_eq!(pool.fetch(s).unwrap().get(0).unwrap(), b"scratch");
    }

    #[test]
    fn logged_pages_freed_since_the_checkpoint_are_held_from_unlogged_allocations() {
        let pool = durable_pool(4);
        let a = pool.allocate_pinned(false).unwrap().0;
        pool.flush_all().unwrap();
        pool.free_page(a);
        assert_eq!(pool.free_pages(), 1);
        let s = pool.allocate_pinned(true).unwrap().0;
        assert_ne!(s, a, "the last durable state still reaches {a}");
        assert_eq!(
            pool.allocate_pinned(false).unwrap().0,
            a,
            "a logged page may"
        );
        pool.free_page(a);
        pool.free_page(s);
        assert_eq!((pool.unlogged_pages(), pool.free_pages()), (0, 2));
        assert_eq!(
            pool.allocate_pinned(true).unwrap().0,
            s,
            "unlogged: free at once"
        );
        pool.checkpoint().unwrap();
        assert_eq!(
            pool.allocate_pinned(true).unwrap().0,
            a,
            "released by the durability point"
        );
    }

    #[test]
    fn a_durability_point_syncs_the_log_once_and_writes_no_page() {
        let pool = durable_pool(4);
        let (id, mut page) = pool.allocate_pinned(false).unwrap();
        page.insert(b"logged").unwrap();
        drop(page);
        pool.checkpoint().unwrap();
        let s = pool.stats();
        assert_eq!((s.wal_fsyncs, s.pager_syncs, s.flushed_writes), (1, 0, 0));
        assert_eq!((s.checkpoints, s.wal_drains), (1, 0));
        assert!(!pool.wal.borrow().as_ref().unwrap().is_empty());
        // Logged, not yet written: clean for a lease.
        assert!(!pool.is_dirty(id));
        assert_eq!(pool.lease(id).unwrap().get(0).unwrap(), b"logged");
        // The clean shutdown writes it back and empties the log.
        pool.flush_all().unwrap();
        let s = pool.stats();
        assert_eq!((s.wal_fsyncs, s.pager_syncs, s.flushed_writes), (2, 1, 1));
        assert_eq!((s.checkpoints, s.wal_drains), (2, 1));
        assert!(pool.wal.borrow().as_ref().unwrap().is_empty());
        // Nothing is left to write: a second one syncs nothing.
        pool.flush_all().unwrap();
        assert_eq!(pool.stats().pager_syncs, 1);
    }

    #[test]
    fn eviction_writes_an_unwritten_page_back() {
        let pool = durable_pool(2);
        let (a, mut page) = pool.allocate_pinned(false).unwrap();
        page.insert(b"committed").unwrap();
        drop(page);
        pool.checkpoint().unwrap();
        // The first scratch page takes the empty frame, the second a's.
        for _ in 0..2 {
            drop(pool.allocate_pinned(true).unwrap());
        }
        assert!(!pool.is_resident(a));
        assert_eq!(pool.stats().write_backs, 1, "a went to the pager");
        assert_eq!(pool.fetch(a).unwrap().get(0).unwrap(), b"committed");
    }

    #[test]
    fn the_log_bound_runs_the_write_back() {
        let pool = durable_pool(8);
        let ids: Vec<PageId> = (0..4)
            .map(|_| pool.allocate_pinned(false).unwrap().0)
            .collect();
        let batch = (4 * (RECORD_HEADER + PAGE_SIZE) + RECORD_HEADER) as u64;
        let mut longest = 0;
        for round in 0u32.. {
            for &id in &ids {
                pool.fetch_mut(id)
                    .unwrap()
                    .insert(&round.to_le_bytes())
                    .unwrap();
            }
            pool.checkpoint().unwrap();
            let len = pool.wal.borrow().as_ref().unwrap().len();
            longest = longest.max(len);
            if pool.stats().wal_drains == 1 {
                assert_eq!(len, 0, "the write-back empties the log");
                break;
            }
        }
        assert!(longest > LOG_BOUND - batch && longest <= LOG_BOUND);
        let s = pool.stats();
        assert_eq!((s.flushed_writes, s.pager_syncs), (4, 1), "each page once");
    }

    #[test]
    fn recover_replays_every_batch_since_the_write_back() {
        let pool = durable_pool(4);
        let (id, page) = pool.allocate_pinned(false).unwrap();
        drop(page);
        for round in 0..3u8 {
            pool.fetch_mut(id).unwrap().insert(&[round]).unwrap();
            pool.checkpoint().unwrap();
        }
        pool.fetch_mut(id).unwrap().insert(b"lost").unwrap();
        let report = pool.recover().unwrap();
        assert_eq!((report.batches_applied, report.pages_replayed), (3, 3));
        let page = pool.fetch(id).unwrap();
        assert_eq!(page.live_count(), 3);
        assert_eq!(page.get(2).unwrap(), [2]);
    }

    #[test]
    fn recover_refuses_while_unlogged_pages_live() {
        let pool = durable_pool(2);
        let s = pool.allocate_pinned(true).unwrap().0;
        assert!(matches!(pool.recover(), Err(Error::PageBusy(p)) if p == s));
        pool.free_page(s);
        pool.recover().unwrap();
    }

    #[test]
    fn open_durable_roundtrips_checkpointed_state() {
        let dir =
            std::env::temp_dir().join(format!("pagestore-durable-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let (pool, report) = BufferPool::open_durable(&dir, 4).unwrap();
            assert!(!report.did_work());
            let (id, mut page) = pool.allocate_pinned(false).unwrap();
            assert_eq!(id, 0);
            page.insert(b"checkpointed").unwrap();
            drop(page);
            pool.flush_all().unwrap();
            // Dirty again, but never checkpointed: must not survive.
            let mut page = pool.fetch_mut(id).unwrap();
            page.insert(b"volatile").unwrap();
        }
        {
            let (pool, _) = BufferPool::open_durable(&dir, 4).unwrap();
            assert!(pool.is_durable());
            let page = pool.fetch(0).unwrap();
            assert_eq!(page.get(0).unwrap(), b"checkpointed");
            assert_eq!(page.live_count(), 1, "uncommitted insert is gone");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recover_requires_wal_and_quiesced_pool() {
        let pool = BufferPool::in_memory(2);
        assert!(matches!(pool.recover(), Err(Error::NotDurable)));
        use crate::wal::MemWalStore;
        let wal = Wal::new(Box::new(MemWalStore::new()));
        let pool = BufferPool::with_wal(Box::new(MemPager::new()), wal, 2);
        let (id, guard) = pool.allocate_pinned(false).unwrap();
        assert!(matches!(pool.recover(), Err(Error::PageBusy(p)) if p == id));
        drop(guard);
        let report = pool.recover().unwrap();
        assert!(!report.did_work());
    }

    #[test]
    fn checkpoint_counts_fsyncs_and_records_spans() {
        use crate::wal::MemWalStore;
        let wal = Wal::new(Box::new(MemWalStore::new()));
        let pool = BufferPool::with_wal(Box::new(MemPager::new()), wal, 4);
        let rec = Recorder::new();
        pool.set_recorder(rec.clone());
        let (_, mut page) = pool.allocate_pinned(false).unwrap();
        page.insert(b"fsynced").unwrap();
        drop(page);
        pool.flush_all().unwrap();
        // One batch-durability fsync plus one post-truncation fsync.
        assert_eq!(pool.stats().wal_fsyncs, 2);
        let report = rec.report();
        let cp = report.find("pagestore.checkpoint").unwrap();
        assert_eq!(cp.count, 1);
        // The WAL work nests under the checkpoint span.
        assert_eq!(report.find("pagestore.wal.fsync").unwrap().count, 2);
        assert_eq!(report.find("pagestore.wal.append").unwrap().count, 1);
        assert_eq!(report.find("pagestore.pool.write_back").unwrap().count, 1);
        assert!(cp.children.iter().any(|c| c.name == "pagestore.wal.fsync"));
    }

    #[test]
    fn non_durable_pool_counts_no_fsyncs() {
        let pool = pool_with_pages(2, 1);
        pool.flush_all().unwrap();
        assert_eq!(pool.stats().wal_fsyncs, 0);
        assert!(!pool.stats().has_wal_traffic());
    }

    #[test]
    fn miss_and_evict_paths_record_spans() {
        let pool = pool_with_pages(2, 4); // 4 pages through 2 frames: evictions
        let rec = Recorder::new();
        pool.set_recorder(rec.clone());
        for i in 0..4u32 {
            drop(pool.fetch(i).unwrap());
        }
        let report = rec.report();
        let miss = report.find("pagestore.pool.miss").unwrap();
        assert!(miss.count >= 2, "cycling 4 pages through 2 frames misses");
        // Evictions happen inside the miss path, so they nest under it.
        assert!(miss
            .children
            .iter()
            .any(|c| c.name == "pagestore.pool.evict"));
    }

    #[test]
    fn frames_that_never_held_a_page_share_one_image() {
        let pool = pool_with_pages(4, 1);
        let image = |i: usize| Arc::clone(&pool.frames[i].data.borrow());
        assert!(
            !Arc::ptr_eq(&image(0), empty_image()),
            "page 0 landed in frame 0"
        );
        assert!(Arc::ptr_eq(&image(1), &image(2)));
        assert!(Arc::ptr_eq(&image(1), &image(3)));
        assert!(Arc::ptr_eq(&image(1), empty_image()));
        // Loading frames never writes the shared image.
        for _ in 0..6 {
            drop(pool.allocate_pinned(false).unwrap());
        }
        assert_eq!(empty_image().bytes(), Page::new().bytes());
    }

    #[test]
    fn images_counts_the_frames_a_page_landed_in() {
        let mut pager = MemPager::new();
        for _ in 0..10 {
            pager.allocate().unwrap();
        }
        let pool = BufferPool::new(Box::new(pager), 65_536);
        assert_eq!(pool.images(), 0);
        for id in 0..7 {
            drop(pool.fetch(id).unwrap());
            drop(pool.fetch(id).unwrap());
        }
        assert_eq!(pool.images(), 7, "one image per distinct page read");

        let pool = pool_with_pages(4, 20);
        for round in 0..5u32 {
            for id in (0..20).map(|i| (i * 7 + round) % 20) {
                drop(pool.fetch_mut(id).unwrap());
                assert!(pool.images() <= pool.capacity());
            }
        }
        assert_eq!(pool.images(), 4);
    }

    /// A pager of `pages` pages, page `i` holding `page-i`.
    fn stored_pages(pages: u32) -> Box<MemPager> {
        let mut pager = MemPager::new();
        for i in 0..pages {
            let mut page = Page::new();
            page.insert(format!("page-{i}").as_bytes()).unwrap();
            let id = pager.allocate().unwrap();
            pager.write(id, &page).unwrap();
        }
        Box::new(pager)
    }

    #[test]
    fn a_bulk_read_cycles_its_misses_through_the_ring() {
        let pool = BufferPool::new(stored_pages(100), 1024);
        drop(pool.fetch(99).unwrap());
        let held = pool.bulk_read(|| {
            let held = pool.fetch(0).unwrap();
            for id in 1..99 {
                drop(pool.fetch(id).unwrap());
            }
            // A nested bulk read joins the ring, and a hit stays put.
            pool.bulk_read(|| (0..100).for_each(|id| drop(pool.fetch(id).unwrap())));
            held
        });
        assert_eq!(pool.images(), RING_PAGES + 1, "the ring, and page 99");
        assert!(pool.is_resident(99), "read outside, kept");
        assert_eq!(
            held.get(0).unwrap(),
            b"page-0",
            "a pinned ring frame is skipped"
        );
        drop(held);
        let s = pool.stats();
        assert_eq!(s.evictions, s.physical_reads - RING_PAGES as u64 - 1);
        // Outside a bulk read a miss takes a frame of its own again, and
        // the next bulk read reuses the same ring.
        drop(pool.fetch(50).unwrap());
        assert_eq!(pool.images(), RING_PAGES + 2);
        pool.bulk_read(|| (0..100).for_each(|id| drop(pool.fetch(id).unwrap())));
        assert_eq!(pool.images(), RING_PAGES + 2);
        for id in 0..100 {
            assert_eq!(
                pool.fetch(id).unwrap().get(0).unwrap(),
                format!("page-{id}").as_bytes()
            );
        }
    }

    #[test]
    fn a_bulk_read_recycles_no_frame_with_unsaved_bytes() {
        use crate::wal::MemWalStore;
        let wal = Wal::new(Box::new(MemWalStore::new()));
        let pool = BufferPool::with_wal(stored_pages(80), wal, 256);
        pool.bulk_read(|| {
            pool.fetch_mut(0).unwrap().insert(b"unwritten").unwrap();
            pool.checkpoint().unwrap();
            pool.fetch_mut(1).unwrap().insert(b"dirty").unwrap();
            for id in 2..80 {
                drop(pool.fetch(id).unwrap());
            }
        });
        assert!(pool.is_resident(0) && pool.is_resident(1));
        assert!(pool.is_dirty(1), "no-steal: still in its frame");
        let s = pool.stats();
        assert_eq!(s.write_backs, 0, "nothing unsaved was evicted");
        assert_eq!(s.evictions, 80 - RING_PAGES as u64);
        assert_eq!(pool.images(), RING_PAGES);
    }

    #[test]
    fn a_freed_page_leaves_its_frame_to_the_next_page() {
        let pool = pool_with_pages(64, 3);
        for _ in 0..100 {
            pool.free_page(1);
            let (id, page) = pool.allocate_pinned(false).unwrap();
            assert_eq!((id, page.live_count()), (1, 0));
        }
        assert_eq!(pool.images(), 3, "no empty frame took an image");
    }

    #[test]
    fn mutations_survive_eviction() {
        let pool = BufferPool::in_memory(1);
        let (a, mut page) = pool.allocate_pinned(false).unwrap();
        let slot = page.insert(b"v1").unwrap();
        drop(page);
        {
            let mut page = pool.fetch_mut(a).unwrap();
            page.update(slot, b"v2").unwrap();
        }
        // Force a out through the single frame.
        let (b, _) = pool.allocate_pinned(false).unwrap();
        assert!(!pool.is_resident(a));
        assert!(pool.is_resident(b));
        let back = pool.fetch(a).unwrap();
        assert_eq!(back.get(slot).unwrap(), b"v2");
    }
}
