//! Redo-only write-ahead log of full page images.
//!
//! OrpheusDB inherits durability from PostgreSQL's WAL; this embedded
//! engine supplies its own. The log is deliberately simple — it exists to
//! make one promise: **a checkpoint is atomic**.
//! [`BufferPool::checkpoint`] appends the image of every dirty page, then
//! a commit record, then syncs the log: that one fsync is the batch's
//! durability point, and nothing reaches the data file then. A crash at
//! any point either replays the whole batch (the commit record made it to
//! disk) or none of it (recovery discards an unterminated batch and
//! truncates torn tails detected by checksum).
//!
//! ## Record format (little-endian)
//!
//! ```text
//! 0..8    lsn          u64, monotonically increasing within a log
//! 8..9    kind         1 = page image, 2 = commit (batch terminator)
//! 9..13   page_id      u32 (0 for commit records)
//! 13..17  payload_len  u32 (PAGE_SIZE for page images, 0 for commit)
//! 17..21  crc32        IEEE CRC-32 over bytes 0..17 ++ payload
//! 21..    payload      the page image
//! ```
//!
//! The log grows by one batch per durability point. It is truncated to
//! empty only by a write-back, once every page it holds is in the data
//! file and that file is synced: when the log passes a fixed bound, and
//! on a clean shutdown ([`BufferPool::flush_all`]). So it holds the
//! batches since the last write-back, in order.
//!
//! [`BufferPool::checkpoint`]: crate::BufferPool::checkpoint
//! [`BufferPool::flush_all`]: crate::BufferPool::flush_all

use crate::error::{Error, Result};
use crate::page::{PageId, PAGE_SIZE};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Log sequence number: position of a record in the append order.
pub type Lsn = u64;

/// Byte size of a record header (everything before the payload).
pub const RECORD_HEADER: usize = 21;

const KIND_PAGE_IMAGE: u8 = 1;
const KIND_COMMIT: u8 = 2;

/// Slicing-by-8 tables for the reflected IEEE polynomial: `CRC_TABLES[0]`
/// is the classic byte table, and `CRC_TABLES[k][b]` is byte `b` followed
/// by `k` zero bytes, so eight table lookups fold eight input bytes.
const CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = (c >> 1) ^ (0xEDB8_8320 & (c & 1).wrapping_neg());
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    // Row k extends row k - 1 by one zero byte.
    let mut i = 256;
    while i < 8 * 256 {
        let prev = t[i / 256 - 1][i % 256];
        t[i / 256][i % 256] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
        i += 1;
    }
    t
}

/// IEEE CRC-32 (the polynomial used by zip/PNG) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0, bytes)
}

/// Extend `crc`, the CRC-32 of some bytes `a`, to the CRC-32 of `a ++
/// bytes` — so a record's checksum runs over its header and then its
/// payload where each lies, with no copy into one buffer.
pub fn crc32_update(crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = !crc;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let mut word = [0u8; 8];
        word.copy_from_slice(w);
        let x = u64::from_le_bytes(word) ^ c as u64;
        c = (0..8).fold(0, |acc, k| acc ^ t[7 - k][(x >> (8 * k)) as usize & 0xFF]);
    }
    for &b in words.remainder() {
        c = (c >> 8) ^ t[0][((c ^ b as u32) & 0xFF) as usize];
    }
    !c
}

/// Byte-level backend for the log: an append-only blob that can be
/// synced, read back in full, and reset to empty. Implemented by
/// [`FileWalStore`], [`MemWalStore`], and the fault-injecting
/// [`FaultWal`](crate::FaultWal).
pub trait WalStore {
    /// Current length in bytes.
    fn len(&self) -> u64;

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The entire log contents (recovery scans from the start).
    fn read_all(&mut self) -> Result<Vec<u8>>;

    /// Append `bytes` at the end.
    fn append(&mut self, bytes: &[u8]) -> Result<()>;

    /// Durably flush all previous appends.
    fn sync(&mut self) -> Result<()>;

    /// Discard everything after byte `len` (torn-tail repair); `0` resets
    /// the log to empty.
    fn truncate(&mut self, len: u64) -> Result<()>;
}

/// File-backed log storage.
pub struct FileWalStore {
    file: File,
    len: u64,
}

impl FileWalStore {
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let len = file.metadata()?.len();
        Ok(FileWalStore { file, len })
    }
}

impl WalStore for FileWalStore {
    fn len(&self) -> u64 {
        self.len
    }

    fn read_all(&mut self) -> Result<Vec<u8>> {
        self.file.seek(SeekFrom::Start(0))?;
        let mut buf = Vec::with_capacity(self.len as usize);
        self.file.read_to_end(&mut buf)?;
        Ok(buf)
    }

    fn append(&mut self, bytes: &[u8]) -> Result<()> {
        self.file.seek(SeekFrom::Start(self.len))?;
        self.file.write_all(bytes)?;
        self.len += bytes.len() as u64;
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        self.file.sync_data()?;
        Ok(())
    }

    fn truncate(&mut self, len: u64) -> Result<()> {
        self.file.set_len(len)?;
        self.len = len;
        Ok(())
    }
}

/// In-memory log storage, for tests and volatile pools.
#[derive(Default)]
pub struct MemWalStore {
    bytes: Vec<u8>,
}

impl MemWalStore {
    pub fn new() -> Self {
        MemWalStore::default()
    }
}

impl WalStore for MemWalStore {
    fn len(&self) -> u64 {
        self.bytes.len() as u64
    }

    fn read_all(&mut self) -> Result<Vec<u8>> {
        Ok(self.bytes.clone())
    }

    fn append(&mut self, bytes: &[u8]) -> Result<()> {
        self.bytes.extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        Ok(())
    }

    fn truncate(&mut self, len: u64) -> Result<()> {
        self.bytes.truncate(len as usize);
        Ok(())
    }
}

/// A record parsed back out of the log by recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// Full image of `page_id` as of the append.
    PageImage {
        lsn: Lsn,
        page_id: PageId,
        image: Vec<u8>,
    },
    /// Terminates a batch: everything since the previous commit record
    /// belongs to one atomic checkpoint.
    Commit { lsn: Lsn },
}

/// The write-ahead log: checksummed page-image records over a
/// [`WalStore`].
pub struct Wal {
    store: Box<dyn WalStore>,
    next_lsn: Lsn,
    /// Length at the last [`sync`](Self::sync) — the end of the last
    /// durable commit record. Bytes past it belong to a batch whose
    /// append or sync failed; [`rewind`](Self::rewind) drops them.
    synced_len: u64,
}

impl Wal {
    /// A log over an arbitrary backend (fault wrappers, memory stores).
    pub fn new(store: Box<dyn WalStore>) -> Self {
        let synced_len = store.len();
        Wal {
            store,
            next_lsn: 1,
            synced_len,
        }
    }

    /// A log backed by the file at `path`.
    pub fn open_file(path: impl AsRef<Path>) -> Result<Self> {
        Ok(Wal::new(Box::new(FileWalStore::open(path)?)))
    }

    /// Current log length in bytes.
    pub fn len(&self) -> u64 {
        self.store.len()
    }

    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    fn encode(lsn: Lsn, kind: u8, page_id: PageId, payload: &[u8]) -> Vec<u8> {
        let mut rec = Vec::with_capacity(RECORD_HEADER + payload.len());
        rec.extend_from_slice(&lsn.to_le_bytes());
        rec.push(kind);
        rec.extend_from_slice(&page_id.to_le_bytes());
        rec.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        let crc = crc32_update(crc32(&rec), payload);
        rec.extend_from_slice(&crc.to_le_bytes());
        rec.extend_from_slice(payload);
        rec
    }

    /// Append the full image of `page_id`. Not durable until [`sync`](Self::sync).
    pub fn append_page(&mut self, page_id: PageId, image: &[u8; PAGE_SIZE]) -> Result<Lsn> {
        let lsn = self.next_lsn;
        let rec = Self::encode(lsn, KIND_PAGE_IMAGE, page_id, image);
        self.store.append(&rec)?;
        self.next_lsn += 1;
        Ok(lsn)
    }

    /// Append a batch-terminating commit record.
    pub fn append_commit(&mut self) -> Result<Lsn> {
        let lsn = self.next_lsn;
        let rec = Self::encode(lsn, KIND_COMMIT, 0, &[]);
        self.store.append(&rec)?;
        self.next_lsn += 1;
        Ok(lsn)
    }

    /// Durably flush all appended records.
    pub fn sync(&mut self) -> Result<()> {
        self.store.sync()?;
        self.synced_len = self.store.len();
        Ok(())
    }

    /// Drop whatever follows the last synced commit record: the remains
    /// of a batch whose append or sync failed. Run before a batch's first
    /// append, so a torn record of a failed batch cannot sit in front of
    /// a later, acknowledged one (recovery stops at the first torn
    /// record). No I/O when the log ends where it was last synced.
    pub fn rewind(&mut self) -> Result<()> {
        if self.store.len() != self.synced_len {
            self.store.truncate(self.synced_len)?;
        }
        Ok(())
    }

    /// Reset the log to empty (after a completed write-back or recovery).
    pub fn reset(&mut self) -> Result<()> {
        self.truncate_to(0)
    }

    /// Truncate a torn tail, keeping the first `len` bytes.
    pub fn truncate_to(&mut self, len: u64) -> Result<()> {
        self.store.truncate(len)?;
        self.synced_len = self.synced_len.min(len);
        Ok(())
    }

    /// Raw log bytes for a recovery scan.
    pub fn read_all(&mut self) -> Result<Vec<u8>> {
        self.store.read_all()
    }

    /// Decode the record starting at `bytes[offset..]`. Returns the record
    /// and the offset one past it, or `None` if the record is incomplete
    /// or fails its checksum (a torn tail — scanning must stop there).
    pub fn decode_at(bytes: &[u8], offset: usize) -> Option<(WalRecord, usize)> {
        let rest = bytes.get(offset..)?;
        if rest.len() < RECORD_HEADER {
            return None;
        }
        let lsn = Lsn::from_le_bytes(le_array(rest, 0)?);
        let kind = rest[8];
        let page_id = PageId::from_le_bytes(le_array(rest, 9)?);
        let payload_len = u32::from_le_bytes(le_array(rest, 13)?) as usize;
        let stored_crc = u32::from_le_bytes(le_array(rest, 17)?);
        let expected_len = match kind {
            KIND_PAGE_IMAGE => PAGE_SIZE,
            KIND_COMMIT => 0,
            _ => return None, // unknown kind: treat as torn
        };
        if payload_len != expected_len || rest.len() < RECORD_HEADER + payload_len {
            return None;
        }
        let payload = &rest[RECORD_HEADER..RECORD_HEADER + payload_len];
        if crc32_update(crc32(&rest[0..17]), payload) != stored_crc {
            return None;
        }
        let record = match kind {
            KIND_PAGE_IMAGE => WalRecord::PageImage {
                lsn,
                page_id,
                image: payload.to_vec(),
            },
            _ => WalRecord::Commit { lsn },
        };
        Some((record, offset + RECORD_HEADER + payload_len))
    }

    /// Map an I/O failure into this crate's error type (used by wrappers).
    pub fn io_error(what: &str) -> Error {
        Error::Io(std::io::Error::other(what.to_owned()))
    }
}

/// Fixed-width little-endian field at `bytes[at..at + N]`, or `None` if
/// the buffer is too short (a torn tail — scanning must stop there).
fn le_array<const N: usize>(bytes: &[u8], at: usize) -> Option<[u8; N]> {
    bytes.get(at..at + N)?.try_into().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::Page;
    use proptest::prelude::*;

    /// The bitwise CRC the table replaced: the oracle it must agree with.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc: u32 = !0;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn table_crc_equals_the_bitwise_oracle_over_any_split(
            bytes in prop::collection::vec(any::<u8>(), 0..20_000),
            cuts in prop::collection::vec(any::<usize>(), 0..6),
        ) {
            let whole = crc32(&bytes);
            prop_assert_eq!(whole, crc32_bitwise(&bytes));
            let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (bytes.len() + 1)).collect();
            cuts.sort_unstable();
            let (mut crc, mut from) = (0, 0);
            for cut in cuts.into_iter().chain([bytes.len()]) {
                crc = crc32_update(crc, &bytes[from..cut]);
                from = cut;
            }
            prop_assert_eq!(crc, whole);
        }
    }

    /// The bytes of one image record and one commit record as the log
    /// wrote them before the table CRC: a log a crash left behind under
    /// that build still decodes under this one. The image's header pins
    /// its payload too, through the checksum.
    #[test]
    fn records_keep_their_bytes() {
        let hex = |b: &[u8]| b.iter().map(|x| format!("{x:02x}")).collect::<String>();
        let mut wal = Wal::new(Box::new(MemWalStore::new()));
        let mut page = Page::new();
        page.insert(b"pinned image").unwrap();
        wal.append_page(7, page.bytes()).unwrap();
        wal.append_commit().unwrap();
        let bytes = wal.read_all().unwrap();
        assert_eq!(bytes.len(), 2 * RECORD_HEADER + PAGE_SIZE);
        assert_eq!(
            hex(&bytes[..RECORD_HEADER]),
            "01000000000000000107000000002000005d75104b"
        );
        assert_eq!(
            &bytes[RECORD_HEADER..RECORD_HEADER + PAGE_SIZE],
            page.bytes()
        );
        assert_eq!(
            hex(&bytes[RECORD_HEADER + PAGE_SIZE..]),
            "0200000000000000020000000000000000fc492533"
        );
        assert!(Wal::decode_at(&bytes, 0).is_some());
    }

    #[test]
    fn rewind_drops_a_failed_batch_and_nothing_else() {
        let mut wal = Wal::new(Box::new(MemWalStore::new()));
        wal.append_commit().unwrap();
        wal.sync().unwrap();
        wal.rewind().unwrap();
        assert_eq!(
            wal.len(),
            RECORD_HEADER as u64,
            "a synced log keeps its batch"
        );
        wal.append_page(3, Page::new().bytes()).unwrap();
        wal.rewind().unwrap();
        assert_eq!(
            wal.len(),
            RECORD_HEADER as u64,
            "the unsynced image is gone"
        );
        wal.reset().unwrap();
        wal.append_commit().unwrap();
        wal.rewind().unwrap();
        assert!(wal.is_empty(), "a reset log rewinds to empty");
    }

    #[test]
    fn records_roundtrip_through_a_store() {
        let mut wal = Wal::new(Box::new(MemWalStore::new()));
        let mut page = Page::new();
        page.insert(b"logged").unwrap();
        let l1 = wal.append_page(7, page.bytes()).unwrap();
        let l2 = wal.append_commit().unwrap();
        assert!(l2 > l1);
        let bytes = wal.read_all().unwrap();
        let (rec, next) = Wal::decode_at(&bytes, 0).unwrap();
        match rec {
            WalRecord::PageImage {
                lsn,
                page_id,
                image,
            } => {
                assert_eq!(lsn, l1);
                assert_eq!(page_id, 7);
                assert_eq!(image.as_slice(), &page.bytes()[..]);
            }
            other => panic!("expected page image, got {other:?}"),
        }
        let (rec, end) = Wal::decode_at(&bytes, next).unwrap();
        assert_eq!(rec, WalRecord::Commit { lsn: l2 });
        assert_eq!(end, bytes.len());
    }

    #[test]
    fn torn_and_corrupt_records_fail_to_decode() {
        let mut wal = Wal::new(Box::new(MemWalStore::new()));
        wal.append_page(1, Page::new().bytes()).unwrap();
        let mut bytes = wal.read_all().unwrap();
        // Truncated mid-payload: incomplete.
        assert!(Wal::decode_at(&bytes[..bytes.len() - 1], 0).is_none());
        // Bit flip in the payload: checksum mismatch.
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        assert!(Wal::decode_at(&bytes, 0).is_none());
    }

    #[test]
    fn decode_at_torn_tails_are_none_not_panics() {
        let mut wal = Wal::new(Box::new(MemWalStore::new()));
        wal.append_commit().unwrap();
        let bytes = wal.read_all().unwrap();
        // Offset past the end of the buffer: no record, no slice panic.
        assert!(Wal::decode_at(&bytes, bytes.len() + 100).is_none());
        // Torn mid-header (inside the fixed-width lsn/page-id/len fields):
        // every prefix shorter than a full header must decode to None.
        for cut in 0..RECORD_HEADER {
            assert!(Wal::decode_at(&bytes[..cut], 0).is_none());
        }
    }

    #[test]
    fn file_store_survives_reopen_and_truncates() {
        let path =
            std::env::temp_dir().join(format!("pagestore-wal-test-{}.log", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let mut wal = Wal::open_file(&path).unwrap();
            wal.append_commit().unwrap();
            wal.sync().unwrap();
        }
        {
            let mut wal = Wal::open_file(&path).unwrap();
            assert_eq!(wal.len(), RECORD_HEADER as u64);
            let bytes = wal.read_all().unwrap();
            assert!(matches!(
                Wal::decode_at(&bytes, 0),
                Some((WalRecord::Commit { .. }, _))
            ));
            wal.reset().unwrap();
            assert!(wal.is_empty());
        }
        std::fs::remove_file(&path).unwrap();
    }
}
