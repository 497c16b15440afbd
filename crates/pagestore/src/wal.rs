//! Redo-only write-ahead log of full page images, in a pre-written,
//! recycled file.
//!
//! OrpheusDB inherits durability from PostgreSQL's WAL; this embedded
//! engine supplies its own. The log exists to make one promise: **a
//! checkpoint is atomic**. [`BufferPool::checkpoint`] encodes the image
//! of every dirty page and a commit record into one buffer, writes it at
//! the log's end with one positioned write, and syncs the log: that one
//! fsync is the batch's durability point, and nothing reaches the data
//! file then. A crash at any point either replays the whole batch (its
//! commit record is on disk) or none of it.
//!
//! ## The file
//!
//! Like PostgreSQL's WAL segments, `wal.log` is written once and then
//! recycled, so that a commit's fsync never changes the file's size and
//! has no file metadata to commit. Recovery zero-fills it to twice the
//! log bound with real writes — not `fallocate`, whose unwritten extents
//! would bring the metadata commit back on the first overwrite of each
//! block. Batches are then written in place. The write-back that runs
//! when the log passes its bound empties the log by starting a new
//! **generation**: once every page the log holds is in the synced data
//! file, it names the new generation in the file header, syncs that, and
//! the next batch goes to the first record offset, over the old
//! generation's records. Only a clean close ([`BufferPool::close`])
//! truncates the file to zero.
//!
//! ```text
//! 0..16   header slot 0   magic "orpheus\x02", generation u32, CRC-32 of both
//! 16..32  header slot 1   the same; generation g is written to slot g % 2
//! 32..    records
//! ```
//!
//! The current generation is the highest one in a valid slot. Two slots,
//! so that a torn header write leaves the previous generation readable:
//! its records are then all still there, and already in the data file.
//! The new generation's header is synced before any batch overwrites the
//! old generation's records; otherwise a crash that kept some of those
//! writes but lost the header could replay a prefix of the old
//! generation over pages the write-back had already made newer.
//!
//! ## Record format (little-endian)
//!
//! ```text
//! 0..4    lsn          u32, above the previous record's (a generation starts at 1)
//! 4..8    generation   u32, the generation the record was written in
//! 8..9    kind         1 = page image, 2 = commit (batch terminator)
//! 9..13   page_id      u32 (0 for commit records)
//! 13..17  payload_len  u32 (PAGE_SIZE for page images, 0 for commit)
//! 17..21  crc32        IEEE CRC-32 over bytes 0..17 ++ payload
//! 21..    payload      the page image
//! ```
//!
//! ## Where the log ends
//!
//! Behind the last record lie zeros or stale records: an older
//! generation's, and whatever a failed batch wrote past the end of the
//! batch that replaced it. A record continues the log only if it carries
//! the current generation and an LSN above the previous record's, and its
//! checksum matches; the first record that does not ends the log. LSNs
//! start again at 1 in every generation, so an older generation's record
//! can sit exactly where the next LSN is expected: the generation, which
//! the checksum covers, is what refuses it. Within a generation LSNs are
//! never handed out twice — a failed batch uses up its own — so a failed
//! batch's leftovers carry lower LSNs than the batch written over them.
//! The log is **torn** only where a record that would continue it —
//! right generation, higher LSN — is incomplete or fails its checksum: a
//! write the crash interrupted.
//!
//! [`BufferPool::checkpoint`]: crate::BufferPool::checkpoint
//! [`BufferPool::close`]: crate::BufferPool::close

use crate::error::{Error, Result};
use crate::page::{PageId, PAGE_SIZE};
use crate::pager::open_rw;
use std::fs::File;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

/// Log sequence number: a record's place in its generation, from 1.
pub type Lsn = u32;

/// Byte size of a record header (everything before the payload).
pub const RECORD_HEADER: usize = 21;

/// Bytes before the first record: the two header slots.
pub const FILE_HEADER: usize = 2 * SLOT;

const SLOT: usize = 16;
const MAGIC: [u8; 8] = *b"orpheus\x02";

/// Log length past which a durability point also runs the write-back and
/// starts a new generation. It bounds the pages a reopen replays and the
/// part of the file a generation overwrites; between write-backs every
/// commit costs one fsync.
pub(crate) const LOG_BOUND: u64 = 1 << 20;

/// What recovery pre-writes the file to: the bound, plus room for the
/// batch that crosses it.
const PREWRITTEN: u64 = 2 * LOG_BOUND;

/// The zero-fill's write size.
const ZERO_CHUNK: usize = 64 << 10;

/// Encoded bytes a batch buffers before it writes them out: a commit's
/// batch is far smaller and goes out in one write, and a bulk load's
/// thousands of pages never sit in the buffer at once.
const WRITE_CHUNK: usize = 256 << 10;

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

/// Byte-level backend for the log: a file that is read back in full,
/// written in place, synced, and cut to zero at a clean close.
/// Implemented by [`FileWalStore`], [`MemWalStore`], and the
/// fault-injecting [`FaultWal`](crate::FaultWal).
pub trait WalStore {
    /// Current length in bytes, pre-written zeros included.
    fn len(&self) -> u64;

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Up to `len` bytes from `offset` (fewer where the store ends).
    fn read_at(&mut self, offset: u64, len: usize) -> Result<Vec<u8>>;

    /// Write `bytes` at `offset`, over what is there; the store grows if
    /// they end past its end.
    fn write_at(&mut self, offset: u64, bytes: &[u8]) -> Result<()>;

    /// Durably flush all previous writes.
    fn sync(&mut self) -> Result<()>;

    /// Discard everything after byte `len`.
    fn truncate(&mut self, len: u64) -> Result<()>;
}

/// File-backed log storage.
pub struct FileWalStore {
    file: File,
    len: u64,
}

impl FileWalStore {
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let (file, len) = open_rw(path)?;
        Ok(FileWalStore { file, len })
    }
}

impl WalStore for FileWalStore {
    fn len(&self) -> u64 {
        self.len
    }

    fn read_at(&mut self, offset: u64, len: usize) -> Result<Vec<u8>> {
        let n = self.len.saturating_sub(offset).min(len as u64) as usize;
        let mut buf = vec![0; n];
        self.file.read_exact_at(&mut buf, offset)?;
        Ok(buf)
    }

    fn write_at(&mut self, offset: u64, bytes: &[u8]) -> Result<()> {
        self.file.write_all_at(bytes, offset)?;
        self.len = self.len.max(offset + bytes.len() as u64);
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

    fn read_at(&mut self, offset: u64, len: usize) -> Result<Vec<u8>> {
        let from = (offset as usize).min(self.bytes.len());
        let to = from.saturating_add(len).min(self.bytes.len());
        Ok(self.bytes[from..to].to_vec())
    }

    fn write_at(&mut self, offset: u64, bytes: &[u8]) -> Result<()> {
        let (from, to) = (offset as usize, offset as usize + bytes.len());
        if self.bytes.len() < to {
            self.bytes.resize(to, 0);
        }
        self.bytes[from..to].copy_from_slice(bytes);
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
pub struct WalRecord {
    pub lsn: Lsn,
    /// A page image: the page and its full image as of the append.
    /// `None` for a commit record, which terminates a batch: everything
    /// since the previous commit record belongs to one atomic checkpoint.
    pub page: Option<(PageId, Vec<u8>)>,
}

/// What the log holds at an offset, read as the continuation of a chain
/// of records.
#[derive(Debug, PartialEq, Eq)]
pub enum Entry {
    /// A record that continues the chain, and its length.
    Record(WalRecord, usize),
    /// The log ends here: zeros, or bytes that are not the next record —
    /// another generation's, an out-of-sequence LSN, no valid kind.
    End,
    /// The next record, by its generation and LSN, is incomplete or
    /// fails its checksum: a torn write of this many bytes.
    Torn(u64),
}

/// The write-ahead log: checksummed page-image records over a
/// [`WalStore`].
pub struct Wal {
    /// The log file; recovery reads it directly.
    pub(crate) store: Box<dyn WalStore>,
    /// The file behind the store, if [`open_file`](Self::open_file)
    /// opened it (empty otherwise): errors about its contents name it.
    path: PathBuf,
    /// The generation new records carry, named by the file header.
    generation: u32,
    /// One past the last record of the last synced batch: where the next
    /// batch goes. 0 while the file has no header — new, or cut to zero
    /// by [`close`](Self::close); the next record formats it first.
    end: u64,
    /// Where the batch being written has reached.
    cursor: u64,
    next_lsn: Lsn,
    /// The batch's encoded records not yet written, reused across batches.
    buf: Vec<u8>,
}

impl Wal {
    /// A log over an arbitrary backend (fault wrappers, memory stores).
    /// Run [`recover`](crate::recover) before writing to a store that
    /// holds a log.
    pub fn new(store: Box<dyn WalStore>) -> Self {
        Wal {
            store,
            path: PathBuf::new(),
            generation: 0,
            end: 0,
            cursor: 0,
            next_lsn: 1,
            buf: Vec::new(),
        }
    }

    /// A log backed by the file at `path`.
    pub fn open_file(path: impl AsRef<Path>) -> Result<Self> {
        let mut wal = Wal::new(Box::new(FileWalStore::open(&path)?));
        wal.path = path.as_ref().to_path_buf();
        Ok(wal)
    }

    /// Bytes of records in the log: those of the current generation's
    /// synced batches.
    pub fn len(&self) -> u64 {
        self.end.saturating_sub(FILE_HEADER as u64)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Length of the file behind the log, pre-written bytes included.
    pub fn file_len(&self) -> u64 {
        self.store.len()
    }

    /// Make `generation` current: write its header slot, zero-fill the
    /// file to its pre-written length, and sync. Records start over at
    /// the first offset, with LSN 1.
    pub(crate) fn begin_generation(&mut self, generation: u32) -> Result<()> {
        let mut slot = [0u8; SLOT];
        slot[..8].copy_from_slice(&MAGIC);
        slot[8..12].copy_from_slice(&generation.to_le_bytes());
        let crc = crc32(&slot[..12]);
        slot[12..SLOT].copy_from_slice(&crc.to_le_bytes());
        let at = SLOT * (generation as usize % 2);
        self.store.write_at(at as u64, &slot)?;
        let zeros = vec![0u8; ZERO_CHUNK];
        let mut at = self.store.len();
        while at < PREWRITTEN {
            let n = (PREWRITTEN - at).min(ZERO_CHUNK as u64);
            self.store.write_at(at, &zeros[..n as usize])?;
            at += n;
        }
        self.store.sync()?;
        self.generation = generation;
        self.end = FILE_HEADER as u64;
        self.next_lsn = 1;
        self.rewind();
        Ok(())
    }

    /// Empty the log: start the next generation, whose records overwrite
    /// this one's. Run once the data file holds every page the log does.
    pub fn restart(&mut self) -> Result<()> {
        self.begin_generation(next_generation(self.generation))
    }

    /// Clean close: cut the file to zero and sync. A record written
    /// after this formats the file again.
    pub fn close(&mut self) -> Result<()> {
        self.end = 0;
        self.rewind();
        self.store.truncate(0)?;
        self.store.sync()
    }

    /// Start a batch at the log's end, dropping whatever a failed batch
    /// left unwritten. Its written bytes stay behind the end, where the
    /// next batch overwrites them. No I/O.
    pub fn rewind(&mut self) {
        self.buf.clear();
        self.cursor = self.end;
    }

    fn encode_record(&mut self, kind: u8, page_id: PageId, payload: &[u8]) -> Result<Lsn> {
        if self.end == 0 {
            // Past any generation the file already names, so that none of
            // its records can continue this one's chain.
            let header = self.store.read_at(0, FILE_HEADER)?;
            let on_file = Wal::header_generation(&header).flatten().unwrap_or(0);
            self.begin_generation(next_generation(self.generation.max(on_file)))?;
        }
        let lsn = self.next_lsn;
        self.next_lsn += 1;
        let at = self.buf.len();
        self.buf.extend_from_slice(&lsn.to_le_bytes());
        self.buf.extend_from_slice(&self.generation.to_le_bytes());
        self.buf.push(kind);
        self.buf.extend_from_slice(&page_id.to_le_bytes());
        self.buf
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        let crc = crc32_update(crc32(&self.buf[at..]), payload);
        self.buf.extend_from_slice(&crc.to_le_bytes());
        self.buf.extend_from_slice(payload);
        if self.buf.len() >= WRITE_CHUNK {
            self.write_out()?;
        }
        Ok(lsn)
    }

    /// Write the buffered records at the batch's cursor.
    fn write_out(&mut self) -> Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        self.store.write_at(self.cursor, &self.buf)?;
        self.cursor += self.buf.len() as u64;
        self.buf.clear();
        Ok(())
    }

    /// Add the full image of `page_id` to the batch. Not durable until
    /// [`sync`](Self::sync).
    pub fn append_page(&mut self, page_id: PageId, image: &[u8; PAGE_SIZE]) -> Result<Lsn> {
        self.encode_record(KIND_PAGE_IMAGE, page_id, image)
    }

    /// Add the batch-terminating commit record, and write the batch.
    pub fn append_commit(&mut self) -> Result<Lsn> {
        let lsn = self.encode_record(KIND_COMMIT, 0, &[])?;
        self.write_out()?;
        Ok(lsn)
    }

    /// Durably flush the batch: the log's end moves past it. After a
    /// failure, [`rewind`](Self::rewind) before the next batch.
    pub fn sync(&mut self) -> Result<()> {
        self.write_out()?;
        self.store.sync()?;
        self.end = self.cursor;
        Ok(())
    }

    /// The error for a non-empty log without a valid header: one from
    /// an older build, or not a log at all.
    pub(crate) fn unreadable(&self) -> Error {
        Error::UnreadableLog(self.path.clone())
    }

    /// The current generation named by the header of `bytes`, a whole
    /// log: `Some(None)` for one that has no header yet (empty, or its
    /// first header write torn), `None` for one this build cannot read.
    pub fn header_generation(bytes: &[u8]) -> Option<Option<u32>> {
        let slot = |i: usize| {
            let s = bytes.get(i * SLOT..(i + 1) * SLOT)?;
            let valid = s[..8] == MAGIC && le_array(s, 12) == Some(crc32(&s[..12]).to_le_bytes());
            le_array(s, 8).map(u32::from_le_bytes).filter(|_| valid)
        };
        match (slot(0), slot(1)) {
            // No valid slot: a new file, or one whose first header write
            // tore, with only zeros or a cut of the magic in either slot.
            (None, None) => {
                let unwritten = |s: &[u8]| s.iter().zip(MAGIC).all(|(&b, m)| b == 0 || b == m);
                (bytes.len() <= FILE_HEADER && bytes.chunks(SLOT).all(unwritten)).then_some(None)
            }
            (a, b) => Some(a.max(b)),
        }
    }

    /// Read `bytes` as the record after one with LSN `prev` (`None`: the
    /// generation's first record) in `generation`.
    pub fn entry_at(bytes: &[u8], generation: u32, prev: Option<Lsn>) -> Entry {
        let Some(head) = bytes.get(..RECORD_HEADER) else {
            // Less than a header left: the end, unless a write tore it.
            return match bytes.iter().all(|&b| b == 0) {
                true => Entry::End,
                false => Entry::Torn(bytes.len() as u64),
            };
        };
        let field = |at: usize| le_array(head, at).map_or(0, u32::from_le_bytes);
        let (lsn, kind, page_id) = (field(0), head[8], field(9));
        let payload_len = match kind {
            KIND_PAGE_IMAGE => PAGE_SIZE,
            KIND_COMMIT => 0,
            _ => return Entry::End,
        };
        let stale = field(4) != generation || prev.is_some_and(|p| lsn <= p);
        if stale || field(13) as usize != payload_len {
            return Entry::End;
        }
        let len = RECORD_HEADER + payload_len;
        let Some(payload) = bytes.get(RECORD_HEADER..len) else {
            return Entry::Torn(bytes.len() as u64);
        };
        if crc32_update(crc32(&head[..17]), payload) != field(17) {
            return Entry::Torn(len as u64);
        }
        let page = (kind == KIND_PAGE_IMAGE).then(|| (page_id, payload.to_vec()));
        Entry::Record(WalRecord { lsn, page }, len)
    }

    /// Map an I/O failure into this crate's error type (used by wrappers).
    pub fn io_error(what: &str) -> Error {
        Error::Io(std::io::Error::other(what.to_owned()))
    }
}

/// The generation after `g`; 0 is never one, so that a zeroed header
/// slot or record never matches.
pub(crate) fn next_generation(g: u32) -> u32 {
    g.wrapping_add(1).max(1)
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

    /// A log with one image and one commit record, synced.
    fn one_batch(page: &Page) -> Wal {
        let mut wal = Wal::new(Box::new(MemWalStore::new()));
        wal.append_page(7, page.bytes()).unwrap();
        wal.append_commit().unwrap();
        wal.sync().unwrap();
        wal
    }

    /// The bytes of the header and of one image record and one commit
    /// record: the format a crash leaves behind for the next build to
    /// read. The image's header pins its payload too, through the
    /// checksum.
    #[test]
    fn records_keep_their_bytes() {
        let hex = |b: &[u8]| b.iter().map(|x| format!("{x:02x}")).collect::<String>();
        let mut page = Page::new();
        page.insert(b"pinned image").unwrap();
        let mut wal = one_batch(&page);
        let bytes = wal.store.read_at(0, usize::MAX).unwrap();
        assert_eq!(bytes.len() as u64, PREWRITTEN);
        assert_eq!(wal.len(), (2 * RECORD_HEADER + PAGE_SIZE) as u64);
        assert_eq!(Wal::header_generation(&bytes), Some(Some(1)));
        assert_eq!(
            hex(&bytes[..FILE_HEADER]),
            "000000000000000000000000000000006f727068657573020100000039623eff"
        );
        let image = FILE_HEADER + RECORD_HEADER;
        assert_eq!(
            hex(&bytes[FILE_HEADER..image]),
            "0100000001000000010700000000200000ad68dbfe"
        );
        assert_eq!(&bytes[image..image + PAGE_SIZE], page.bytes());
        let commit = image + PAGE_SIZE;
        assert_eq!(
            hex(&bytes[commit..commit + RECORD_HEADER]),
            "02000000010000000200000000000000007990b3ee"
        );
        assert!(bytes[commit + RECORD_HEADER..].iter().all(|&b| b == 0));
    }

    #[test]
    fn records_roundtrip_through_a_store() {
        let mut page = Page::new();
        page.insert(b"logged").unwrap();
        let mut wal = one_batch(&page);
        let bytes = wal.store.read_at(0, usize::MAX).unwrap();
        let Entry::Record(rec, len) = Wal::entry_at(&bytes[FILE_HEADER..], 1, None) else {
            panic!("expected the image record");
        };
        let next = FILE_HEADER + len;
        let image = (7, page.bytes().to_vec());
        assert_eq!(
            rec,
            WalRecord {
                lsn: 1,
                page: Some(image)
            }
        );
        let Entry::Record(rec, len) = Wal::entry_at(&bytes[next..], 1, Some(1)) else {
            panic!("expected the commit record");
        };
        assert_eq!(rec, WalRecord { lsn: 2, page: None });
        let end = next + len;
        assert_eq!(end as u64, FILE_HEADER as u64 + wal.len());
        assert_eq!(Wal::entry_at(&bytes[end..], 1, Some(2)), Entry::End);
        // Not the next record: another generation, or an LSN not above.
        assert_eq!(Wal::entry_at(&bytes[next..], 2, Some(1)), Entry::End);
        assert_eq!(Wal::entry_at(&bytes[next..], 1, Some(2)), Entry::End);
    }

    #[test]
    fn torn_and_corrupt_records_are_torn() {
        let mut wal = one_batch(&Page::new());
        let mut bytes = wal.store.read_at(0, usize::MAX).unwrap();
        let record = RECORD_HEADER + PAGE_SIZE;
        let end = FILE_HEADER + record;
        // Truncated mid-payload: incomplete.
        let torn = Wal::entry_at(&bytes[FILE_HEADER..end - 1], 1, None);
        assert_eq!(torn, Entry::Torn(record as u64 - 1));
        // Bit flip in the payload: checksum mismatch.
        bytes[end - 1] ^= 0x10;
        let torn = Wal::entry_at(&bytes[FILE_HEADER..], 1, None);
        assert_eq!(torn, Entry::Torn(record as u64));
    }

    #[test]
    fn entries_past_the_end_and_in_a_cut_header_do_not_panic() {
        let mut wal = Wal::new(Box::new(MemWalStore::new()));
        wal.append_commit().unwrap();
        wal.sync().unwrap();
        let bytes = wal.store.read_at(0, usize::MAX).unwrap();
        // Nothing left: the end.
        assert_eq!(Wal::entry_at(&[], 1, None), Entry::End);
        // Torn mid-header: every cut shorter than a full header.
        for cut in 1..RECORD_HEADER {
            let entry = Wal::entry_at(&bytes[FILE_HEADER..FILE_HEADER + cut], 1, None);
            assert_eq!(entry, Entry::Torn(cut as u64), "cut at {cut}");
        }
    }

    /// A failed batch leaves the log's end where it was; the next batch
    /// is written over it, with LSNs the failed one never used.
    #[test]
    fn a_failed_batch_moves_nothing_and_the_next_overwrites_it() {
        use crate::fault::{FaultKind, FaultPlan, FaultWal};
        let plan = FaultPlan::unarmed();
        let store = FaultWal::new(Box::new(MemWalStore::new()), plan.clone());
        let mut wal = Wal::new(Box::new(store));
        wal.append_commit().unwrap();
        wal.sync().unwrap();
        let end = wal.len();
        plan.arm(2, FaultKind::Error);
        wal.append_page(3, Page::new().bytes()).unwrap();
        wal.append_commit().unwrap();
        wal.sync().expect_err("the sync fails");
        assert_eq!(wal.len(), end, "an unsynced batch is not in the log");
        wal.rewind();
        let ops = plan.ops();
        assert_eq!(
            wal.append_commit().unwrap(),
            4,
            "LSNs 2 and 3 went to the failed batch"
        );
        wal.sync().unwrap();
        assert_eq!(plan.ops() - ops, 2, "one write, one sync");
        let bytes = wal.store.read_at(0, usize::MAX).unwrap();
        let at = FILE_HEADER + end as usize;
        assert_eq!(Wal::entry_at(&bytes[at..], 1, Some(4)), Entry::End);
        let Entry::Record(rec, len) = Wal::entry_at(&bytes[at..], 1, Some(1)) else {
            panic!("the retried batch sits where the failed one was");
        };
        assert_eq!(rec, WalRecord { lsn: 4, page: None });
        // Behind it, the rest of the failed batch's image: not a record.
        assert_eq!(Wal::entry_at(&bytes[at + len..], 1, Some(4)), Entry::End);
    }

    /// A batch is one write and one sync; a restart is one header write
    /// and one sync; neither changes the file's length.
    #[test]
    fn batches_and_restarts_overwrite_a_pre_written_file() {
        use crate::fault::{FaultPlan, FaultWal};
        let plan = FaultPlan::unarmed();
        let store = FaultWal::new(Box::new(MemWalStore::new()), plan.clone());
        let mut wal = Wal::new(Box::new(store));
        wal.append_commit().unwrap();
        wal.sync().unwrap();
        assert_eq!(wal.file_len(), PREWRITTEN);
        for round in 0..3 {
            let ops = plan.ops();
            for id in 0..4 {
                wal.append_page(id, Page::new().bytes()).unwrap();
            }
            wal.append_commit().unwrap();
            wal.sync().unwrap();
            assert_eq!(plan.ops() - ops, 2, "round {round}: one write, one sync");
            let ops = plan.ops();
            wal.restart().unwrap();
            assert_eq!(plan.ops() - ops, 2, "round {round}: header, sync");
            assert!(wal.is_empty());
            assert_eq!(wal.file_len(), PREWRITTEN);
        }
        let bytes = wal.store.read_at(0, usize::MAX).unwrap();
        assert_eq!(Wal::header_generation(&bytes), Some(Some(4)));
    }

    #[test]
    fn file_store_survives_reopen_and_a_close_cuts_it_to_zero() {
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
            assert_eq!(wal.file_len(), PREWRITTEN);
            let bytes = wal.store.read_at(0, usize::MAX).unwrap();
            assert_eq!(Wal::header_generation(&bytes), Some(Some(1)));
            assert!(matches!(
                Wal::entry_at(&bytes[FILE_HEADER..], 1, None),
                Entry::Record(WalRecord { lsn: 1, page: None }, _)
            ));
            wal.close().unwrap();
            assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        }
        std::fs::remove_file(&path).unwrap();
    }
}
