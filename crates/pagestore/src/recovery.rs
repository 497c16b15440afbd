//! Crash recovery: replay committed WAL batches, discard the rest.
//!
//! The scan reads the file header for the current generation, then
//! walks the records from the first offset on. A record is read only as
//! the continuation of the chain: it must carry the current generation
//! and the LSN one past the previous record's, and pass its checksum.
//! Page images accumulate in a pending batch; a commit record makes the
//! batch real and its images are written through to the pager. The first
//! record that does not continue the chain ends the log. Behind it lie
//! zeros or stale records — an older generation's, or a failed batch's
//! leftovers — and none of them is ever replayed. If what ends the log
//! is the next record itself, incomplete or failing its checksum, the
//! log was **torn** by an interrupted write, and the report counts its
//! bytes. A pending batch with no commit record is discarded the same
//! way: the checkpoint that wrote it never reached its durability point,
//! so the store must not observe any of it (all-or-nothing).
//!
//! The log holds every batch since the last write-back, and they replay
//! in order, so each page ends at its latest committed image. Replay is
//! idempotent: records are full page images, so recovering twice — or
//! recovering a generation whose write-back *did* finish writing pages
//! but crashed before the next generation's header was synced —
//! converges to the same state. Recovery ends by pre-writing the file and
//! starting a generation newer than any in it, so nothing it leaves
//! behind can continue a later chain.
//!
//! A non-empty log without a valid header — one from an older build, or
//! not a log — is refused with [`Error::UnreadableLog`], never read as
//! an empty one.

use crate::error::{Error, Result};
use crate::page::{Page, PageId, PAGE_SIZE};
use crate::pager::Pager;
use crate::wal::{next_generation, Entry, Wal, WalRecord, FILE_HEADER, RECORD_HEADER};
use std::fmt;

/// What a [`recover`] pass found and did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Complete, checksum-valid records scanned.
    pub records_scanned: u64,
    /// Committed batches replayed into the pager.
    pub batches_applied: u64,
    /// Page images written through during replay.
    pub pages_replayed: u64,
    /// Bytes of the torn record that ended the log, discarded (the next
    /// generation overwrites them). 0 for a log that ends cleanly, even
    /// with stale records behind its end.
    pub torn_bytes_truncated: u64,
    /// Page images discarded because their batch never committed.
    pub uncommitted_discarded: u64,
}

impl RecoveryReport {
    /// Whether the pass changed anything (replayed or repaired).
    pub fn did_work(&self) -> bool {
        self.pages_replayed > 0 || self.torn_bytes_truncated > 0 || self.uncommitted_discarded > 0
    }
}

impl fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "scanned {} record(s), replayed {} page(s) in {} batch(es), \
             discarded {} uncommitted image(s), truncated {} torn byte(s)",
            self.records_scanned,
            self.pages_replayed,
            self.batches_applied,
            self.uncommitted_discarded,
            self.torn_bytes_truncated,
        )
    }
}

/// What the scan of a whole log found: its header's generation (`None`
/// for a log with no header), and the committed batches' page images in
/// log order.
struct Scan {
    generation: Option<u32>,
    pages: Vec<(PageId, Vec<u8>)>,
    report: RecoveryReport,
}

/// Read the committed batches out of a log, through `read_at(offset,
/// len)`, which returns up to `len` bytes from `offset`. One read per
/// record, so the scan holds one record at a time, not the pre-written
/// file. `None` if the log has no header this build wrote.
fn scan(mut read_at: impl FnMut(u64, usize) -> Result<Vec<u8>>) -> Result<Option<Scan>> {
    // One byte past the header tells a log no longer than it.
    let Some(generation) = Wal::header_generation(&read_at(0, FILE_HEADER + 1)?) else {
        return Ok(None);
    };
    let mut scan = Scan {
        generation,
        pages: Vec::new(),
        report: RecoveryReport::default(),
    };
    let Some(generation) = generation else {
        return Ok(Some(scan));
    };
    let report = &mut scan.report;
    let (mut offset, mut prev) = (FILE_HEADER as u64, None);
    // Page images of the batch currently being scanned (not yet committed).
    let mut pending = Vec::new();
    loop {
        let record = read_at(offset, RECORD_HEADER + PAGE_SIZE)?;
        match Wal::entry_at(&record, generation, prev) {
            Entry::Record(WalRecord { lsn, page }, len) => {
                report.records_scanned += 1;
                (prev, offset) = (Some(lsn), offset + len as u64);
                match page {
                    Some(image) => pending.push(image),
                    None => {
                        scan.pages.append(&mut pending);
                        report.batches_applied += 1;
                    }
                }
            }
            Entry::End => break,
            Entry::Torn(bytes) => {
                report.torn_bytes_truncated = bytes;
                break;
            }
        }
    }
    report.uncommitted_discarded = pending.len() as u64;
    report.pages_replayed = scan.pages.len() as u64;
    Ok(Some(scan))
}

/// Replay `wal` into `pager`, then start the log over: pre-written, in a
/// generation newer than any record in it.
///
/// Must run before any page of the store is read — the buffer pool calls
/// it at open time ([`BufferPool::open_durable`]) or through
/// [`BufferPool::recover`], which quiesces the frame cache first.
///
/// [`BufferPool::open_durable`]: crate::BufferPool::open_durable
/// [`BufferPool::recover`]: crate::BufferPool::recover
pub fn recover(pager: &mut dyn Pager, wal: &mut Wal) -> Result<RecoveryReport> {
    let scan = scan(|offset, len| wal.store.read_at(offset, len))?;
    let scan = scan.ok_or_else(|| wal.unreadable())?;
    for (page_id, image) in &scan.pages {
        let end = page_id.checked_add(1);
        pager.ensure_pages(end.ok_or(Error::PageOutOfBounds(*page_id))?)?;
        let mut page = Page::new();
        page.bytes_mut().copy_from_slice(image);
        pager.write(*page_id, &page)?;
    }
    if scan.report.batches_applied > 0 {
        pager.sync()?;
    }
    // Two past the header's: when the newest slot was unreadable, the
    // header read is one generation behind the newest records.
    let generation = scan
        .generation
        .map_or(1, |g| next_generation(next_generation(g)));
    wal.begin_generation(generation)?;
    Ok(scan.report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::MemPager;
    use crate::wal::{MemWalStore, WalStore};

    fn page_with(content: &[u8]) -> Page {
        let mut p = Page::new();
        p.insert(content).unwrap();
        p
    }

    fn mem_wal() -> Wal {
        Wal::new(Box::new(MemWalStore::new()))
    }

    /// A log holding `bytes`, as a crash left them.
    fn wal_of(bytes: &[u8]) -> Wal {
        let mut store = MemWalStore::new();
        store.write_at(0, bytes).unwrap();
        Wal::new(Box::new(store))
    }

    /// Log one committed batch of `pages`, synced.
    fn commit(wal: &mut Wal, pages: &[(PageId, &Page)]) {
        for (id, page) in pages {
            wal.append_page(*id, page.bytes()).unwrap();
        }
        wal.append_commit().unwrap();
        wal.sync().unwrap();
    }

    #[test]
    fn committed_batch_is_replayed() {
        let mut pager = MemPager::new();
        let mut wal = mem_wal();
        commit(&mut wal, &[(2, &page_with(b"replayed"))]);
        let report = recover(&mut pager, &mut wal).unwrap();
        assert_eq!(report.batches_applied, 1);
        assert_eq!(report.pages_replayed, 1);
        assert_eq!(report.torn_bytes_truncated, 0);
        // Pages 0..=2 were allocated on demand; page 2 carries the image.
        assert_eq!(pager.num_pages(), 3);
        let mut back = Page::new();
        pager.read(2, &mut back).unwrap();
        assert_eq!(back.get(0).unwrap(), b"replayed");
        assert!(wal.is_empty(), "log resets after recovery");
    }

    #[test]
    fn uncommitted_batch_is_discarded() {
        let mut pager = MemPager::new();
        let mut wal = mem_wal();
        wal.append_page(0, page_with(b"half a commit").bytes())
            .unwrap();
        // No commit record: the checkpoint died before its durability point.
        wal.sync().unwrap();
        let report = recover(&mut pager, &mut wal).unwrap();
        assert_eq!(report.batches_applied, 0);
        assert_eq!(report.pages_replayed, 0);
        assert_eq!(report.uncommitted_discarded, 1);
        assert_eq!(pager.num_pages(), 0, "nothing may reach the data file");
        assert!(wal.is_empty());
    }

    #[test]
    fn torn_record_ends_the_log_but_earlier_commits_survive() {
        let mut pager = MemPager::new();
        let mut wal = mem_wal();
        commit(&mut wal, &[(0, &page_with(b"good batch"))]);
        let good_end = FILE_HEADER + wal.len() as usize;
        // A second batch whose page record is torn mid-payload.
        commit(&mut wal, &[(1, &page_with(b"torn batch"))]);
        let mut bytes = wal.store.read_at(0, usize::MAX).unwrap();
        bytes[good_end + 100..good_end + RECORD_HEADER + PAGE_SIZE].fill(0);
        let mut wal = wal_of(&bytes);
        let report = recover(&mut pager, &mut wal).unwrap();
        assert_eq!(report.batches_applied, 1);
        assert_eq!(report.pages_replayed, 1);
        assert_eq!(
            report.torn_bytes_truncated,
            (RECORD_HEADER + PAGE_SIZE) as u64
        );
        let mut back = Page::new();
        pager.read(0, &mut back).unwrap();
        assert_eq!(back.get(0).unwrap(), b"good batch");
        assert_eq!(pager.num_pages(), 1, "torn batch must not allocate");
    }

    #[test]
    fn recovery_is_idempotent_over_a_stale_log() {
        // Checkpoint finished writing pages but crashed before starting
        // the next generation: replaying on top of already-written pages
        // is a no-op state-wise.
        let mut pager = MemPager::new();
        let id = pager.allocate().unwrap();
        let p = page_with(b"already durable");
        pager.write(id, &p).unwrap();
        let mut wal = mem_wal();
        commit(&mut wal, &[(id, &p)]);
        let report = recover(&mut pager, &mut wal).unwrap();
        assert_eq!(report.pages_replayed, 1);
        let mut back = Page::new();
        pager.read(id, &mut back).unwrap();
        assert_eq!(back.get(0).unwrap(), b"already durable");
        // Second pass over the (now empty) log does nothing.
        let report = recover(&mut pager, &mut wal).unwrap();
        assert!(!report.did_work());
    }

    /// Regression: a record for page 200 000 made recovery of an empty
    /// store write 200 001 zero pages, one at a time. The file now grows
    /// in one step: three I/Os in all.
    #[test]
    fn a_far_page_id_extends_the_file_in_one_step() {
        use crate::fault::{FaultPager, FaultPlan};
        use crate::pager::FilePager;
        let path =
            std::env::temp_dir().join(format!("pagestore-far-page-{}.db", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let plan = FaultPlan::unarmed();
        let mut pager = FaultPager::new(Box::new(FilePager::open(&path).unwrap()), plan.clone());
        let mut wal = mem_wal();
        commit(&mut wal, &[(200_000, &page_with(b"far"))]);
        let report = recover(&mut pager, &mut wal).unwrap();
        assert_eq!(report.pages_replayed, 1);
        assert_eq!(plan.ops(), 3, "extend, write, sync");
        assert_eq!(pager.num_pages(), 200_001);
        let mut back = Page::new();
        pager.read(200_000, &mut back).unwrap();
        assert_eq!(back.get(0).unwrap(), b"far");
        drop(pager);
        std::fs::remove_file(&path).unwrap();
    }

    /// Regression: a record for page `u32::MAX` overflowed `page_id + 1`
    /// (a panic under debug assertions). It is a typed error now.
    #[test]
    fn the_last_page_id_is_out_of_bounds_not_an_overflow() {
        let mut pager = MemPager::new();
        let mut wal = mem_wal();
        commit(&mut wal, &[(u32::MAX, &page_with(b"nowhere"))]);
        assert!(matches!(
            recover(&mut pager, &mut wal),
            Err(Error::PageOutOfBounds(u32::MAX))
        ));
        assert_eq!(pager.num_pages(), 0);
    }

    /// A recycled log: generation 1 committed `old` to page 0, then
    /// `stale` to page 1, then an empty batch; the write-back started
    /// generation 2, which committed `new` to page 0. Generation 2's
    /// batch has the shape and the LSNs of generation 1's first, so
    /// generation 1's second batch sits right behind it with the next
    /// LSNs. Returns the log's bytes and how far records reach.
    fn recycled_log() -> (Vec<u8>, usize) {
        let mut wal = mem_wal();
        commit(&mut wal, &[(0, &page_with(b"old"))]);
        commit(&mut wal, &[(1, &page_with(b"stale"))]);
        commit(&mut wal, &[]);
        let written = FILE_HEADER + wal.len() as usize;
        wal.restart().unwrap();
        commit(&mut wal, &[(0, &page_with(b"new"))]);
        (wal.store.read_at(0, usize::MAX).unwrap(), written)
    }

    /// The batches a recovery of `bytes` replays, as each page's first
    /// tuple; `None` if it refuses the log.
    fn replayed(bytes: &[u8]) -> Option<Vec<(PageId, Vec<u8>)>> {
        let read_at = |offset: u64, len: usize| {
            let rest = bytes.get(offset as usize..).unwrap_or_default();
            Ok(rest[..len.min(rest.len())].to_vec())
        };
        let scan = scan(read_at).unwrap()?;
        let first = |image: &[u8]| {
            let mut page = Page::new();
            page.bytes_mut().copy_from_slice(image);
            page.get(0).map(<[u8]>::to_vec).unwrap_or_default()
        };
        Some(
            scan.pages
                .iter()
                .map(|(id, img)| (*id, first(img)))
                .collect(),
        )
    }

    #[test]
    fn a_clean_end_with_stale_records_behind_it_is_not_torn() {
        let (bytes, _) = recycled_log();
        let mut wal = wal_of(&bytes);
        let mut pager = MemPager::new();
        let report = recover(&mut pager, &mut wal).unwrap();
        assert_eq!(
            (report.batches_applied, report.pages_replayed),
            (1, 1),
            "{report}"
        );
        assert_eq!(report.torn_bytes_truncated, 0, "{report}");
        assert_eq!(report.uncommitted_discarded, 0, "{report}");
        let mut back = Page::new();
        pager.read(0, &mut back).unwrap();
        assert_eq!(back.get(0).unwrap(), b"new");
        assert_eq!(pager.num_pages(), 1, "generation 1's page 1 is stale");
    }

    /// Every prefix, and every single-bit flip, of a recycled log with
    /// stale records behind its end: recovery replays a prefix of the
    /// committed batches — nothing, or `new` — or refuses the log with a
    /// typed error. It never panics and never replays a stale record.
    /// Inside the two page images one bit of every byte is flipped (a
    /// checksum catches every single-bit error there alike); everywhere
    /// else, all eight.
    #[test]
    fn hostile_recycled_logs_replay_a_committed_prefix_or_are_refused() {
        let (mut bytes, written) = recycled_log();
        let committed = vec![(0, b"new".to_vec())];
        let check = |bytes: &[u8], what: &str| match replayed(bytes) {
            Some(pages) => assert!(committed.starts_with(&pages), "{what}: {pages:?}"),
            None => {
                let mut wal = wal_of(bytes);
                let refused = recover(&mut MemPager::new(), &mut wal);
                assert!(
                    matches!(refused, Err(Error::UnreadableLog(_))),
                    "{what}: {refused:?}"
                );
            }
        };
        let reach = written + 64;
        for cut in 0..=reach {
            check(&bytes[..cut], &format!("prefix {cut}"));
        }
        let batch = 2 * RECORD_HEADER + PAGE_SIZE;
        let in_image = |at: usize| {
            let image = |i: usize| FILE_HEADER + i * batch + RECORD_HEADER;
            (0..2).any(|i| (image(i)..image(i) + PAGE_SIZE).contains(&at))
        };
        for at in 0..reach {
            let bits = if in_image(at) {
                at % 8..at % 8 + 1
            } else {
                0..8
            };
            for bit in bits {
                bytes[at] ^= 1 << bit;
                check(&bytes, &format!("bit {bit} of byte {at}"));
                bytes[at] ^= 1 << bit;
            }
        }
        assert_eq!(replayed(&bytes), Some(committed));
    }

    /// The parent log from a build before generations: 21-byte headers
    /// with a 64-bit LSN, no file header. Refused, naming the file, and
    /// left as it was.
    #[test]
    fn a_log_from_an_older_build_is_refused_naming_the_file() {
        let dir = std::env::temp_dir().join(format!("pagestore-old-log-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let record = |lsn: u64, kind: u8, payload: &[u8]| {
            let mut rec = lsn.to_le_bytes().to_vec();
            rec.push(kind);
            rec.extend_from_slice(&[7, 0, 0, 0]);
            rec.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            let crc = crate::wal::crc32_update(crate::wal::crc32(&rec), payload);
            rec.extend_from_slice(&crc.to_le_bytes());
            rec.extend_from_slice(payload);
            rec
        };
        let mut old = record(1, 1, page_with(b"committed before").bytes());
        old.extend(record(2, 2, &[]));
        let path = dir.join("wal.log");
        // Nor is a few bytes of garbage, too short to hold a record.
        for bytes in [old, b"garbage bytes".to_vec()] {
            std::fs::write(&path, &bytes).unwrap();
            let mut wal = Wal::open_file(&path).unwrap();
            let err = recover(&mut MemPager::new(), &mut wal).unwrap_err();
            let Error::UnreadableLog(file) = &err else {
                panic!("expected UnreadableLog, got {err:?}");
            };
            assert_eq!(file, &path);
            assert!(err.to_string().contains(&*path.to_string_lossy()));
            assert_eq!(std::fs::read(&path).unwrap(), bytes, "the log is untouched");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A missing or zero-length log is a new one, as is one whose first
    /// header write tore (half of slot 1 written): recovery pre-writes it
    /// and starts generation 1.
    #[test]
    fn a_missing_or_empty_log_is_initialised() {
        let dir = std::env::temp_dir().join(format!("pagestore-new-log-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let torn_header = [&[0; 16][..], b"orpheus\x02"].concat();
        for existing in [None, Some(&[][..]), Some(&torn_header[..])] {
            if let Some(bytes) = existing {
                std::fs::write(&path, bytes).unwrap();
            }
            let mut wal = Wal::open_file(&path).unwrap();
            let report = recover(&mut MemPager::new(), &mut wal).unwrap();
            assert!(!report.did_work());
            let bytes = std::fs::read(&path).unwrap();
            assert_eq!(bytes.len() as u64, 2 * crate::wal::LOG_BOUND);
            assert_eq!(Wal::header_generation(&bytes), Some(Some(1)));
            assert!(bytes[FILE_HEADER..].iter().all(|&b| b == 0));
            std::fs::remove_file(&path).unwrap();
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
