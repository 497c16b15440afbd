//! Crash recovery: replay committed WAL batches, discard the rest.
//!
//! The scan walks the log from the start, CRC-checking every record.
//! Page images accumulate in a pending batch; a commit record makes the
//! batch real and its images are written through to the pager. The first
//! incomplete or checksum-failing record ends the scan — everything from
//! there on is a torn tail from an interrupted append and is truncated.
//! A pending batch with no commit record is discarded the same way: the
//! checkpoint that wrote it never reached its durability point, so the
//! store must not observe any of it (all-or-nothing).
//!
//! The log holds every batch since the last write-back, and they replay
//! in order, so each page ends at its latest committed image. Replay is
//! idempotent: records are full page images, so recovering twice — or
//! recovering a log whose write-back *did* finish writing pages but
//! crashed before truncating the log — converges to the same state.

use crate::error::{Error, Result};
use crate::pager::Pager;
use crate::wal::{Wal, WalRecord};
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
    /// Bytes of torn tail (incomplete/corrupt records) truncated.
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

/// Replay `wal` into `pager` and reset the log.
///
/// Must run before any page of the store is read — the buffer pool calls
/// it at open time ([`BufferPool::open_durable`]) or through
/// [`BufferPool::recover`], which quiesces the frame cache first.
///
/// [`BufferPool::open_durable`]: crate::BufferPool::open_durable
/// [`BufferPool::recover`]: crate::BufferPool::recover
pub fn recover(pager: &mut dyn Pager, wal: &mut Wal) -> Result<RecoveryReport> {
    let bytes = wal.read_all()?;
    let mut report = RecoveryReport::default();
    let mut offset = 0usize;
    // Page images of the batch currently being scanned (not yet committed).
    let mut pending: Vec<(u32, Vec<u8>)> = Vec::new();
    while offset < bytes.len() {
        match Wal::decode_at(&bytes, offset) {
            Some((record, next)) => {
                report.records_scanned += 1;
                match record {
                    WalRecord::PageImage { page_id, image, .. } => {
                        pending.push((page_id, image));
                    }
                    WalRecord::Commit { .. } => {
                        for (page_id, image) in pending.drain(..) {
                            let end = page_id.checked_add(1);
                            pager.ensure_pages(end.ok_or(Error::PageOutOfBounds(page_id))?)?;
                            let mut page = crate::page::Page::new();
                            page.bytes_mut().copy_from_slice(&image);
                            pager.write(page_id, &page)?;
                            report.pages_replayed += 1;
                        }
                        report.batches_applied += 1;
                    }
                }
                offset = next;
            }
            None => {
                // Torn tail: stop scanning, truncate the log here.
                report.torn_bytes_truncated = (bytes.len() - offset) as u64;
                break;
            }
        }
    }
    report.uncommitted_discarded = pending.len() as u64;
    if report.batches_applied > 0 {
        pager.sync()?;
    }
    // The log's useful content is now in the data file; start fresh.
    wal.reset()?;
    wal.sync()?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::Page;
    use crate::pager::MemPager;
    use crate::wal::MemWalStore;

    fn page_with(content: &[u8]) -> Page {
        let mut p = Page::new();
        p.insert(content).unwrap();
        p
    }

    #[test]
    fn committed_batch_is_replayed() {
        let mut pager = MemPager::new();
        let mut wal = Wal::new(Box::new(MemWalStore::new()));
        let p = page_with(b"replayed");
        wal.append_page(2, p.bytes()).unwrap();
        wal.append_commit().unwrap();
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
        let mut wal = Wal::new(Box::new(MemWalStore::new()));
        wal.append_page(0, page_with(b"half a commit").bytes())
            .unwrap();
        // No commit record: the checkpoint died before its durability point.
        let report = recover(&mut pager, &mut wal).unwrap();
        assert_eq!(report.batches_applied, 0);
        assert_eq!(report.pages_replayed, 0);
        assert_eq!(report.uncommitted_discarded, 1);
        assert_eq!(pager.num_pages(), 0, "nothing may reach the data file");
        assert!(wal.is_empty());
    }

    #[test]
    fn torn_tail_is_truncated_but_earlier_commits_survive() {
        let mut pager = MemPager::new();
        let mut wal = Wal::new(Box::new(MemWalStore::new()));
        wal.append_page(0, page_with(b"good batch").bytes())
            .unwrap();
        wal.append_commit().unwrap();
        let good_len = wal.len();
        // A second batch whose page record is torn mid-payload.
        wal.append_page(1, page_with(b"torn batch").bytes())
            .unwrap();
        wal.truncate_to(good_len + 100).unwrap();
        let report = recover(&mut pager, &mut wal).unwrap();
        assert_eq!(report.batches_applied, 1);
        assert_eq!(report.pages_replayed, 1);
        assert_eq!(report.torn_bytes_truncated, 100);
        let mut back = Page::new();
        pager.read(0, &mut back).unwrap();
        assert_eq!(back.get(0).unwrap(), b"good batch");
        assert_eq!(pager.num_pages(), 1, "torn batch must not allocate");
    }

    #[test]
    fn recovery_is_idempotent_over_a_stale_log() {
        // Checkpoint finished writing pages but crashed before resetting
        // the log: replaying on top of already-written pages is a no-op
        // state-wise.
        let mut pager = MemPager::new();
        let id = pager.allocate().unwrap();
        let p = page_with(b"already durable");
        pager.write(id, &p).unwrap();
        let mut wal = Wal::new(Box::new(MemWalStore::new()));
        wal.append_page(id, p.bytes()).unwrap();
        wal.append_commit().unwrap();
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
        let mut wal = Wal::new(Box::new(MemWalStore::new()));
        wal.append_page(200_000, page_with(b"far").bytes()).unwrap();
        wal.append_commit().unwrap();
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
        let mut wal = Wal::new(Box::new(MemWalStore::new()));
        wal.append_page(u32::MAX, page_with(b"nowhere").bytes())
            .unwrap();
        wal.append_commit().unwrap();
        assert!(matches!(
            recover(&mut pager, &mut wal),
            Err(Error::PageOutOfBounds(u32::MAX))
        ));
        assert_eq!(pager.num_pages(), 0);
    }
}
