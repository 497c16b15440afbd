//! On-page tuple encoding, behind a pluggable page-format trait.
//!
//! Tables store rows as byte tuples in `pagestore` heap files. A tuple is
//! self-describing so that a physical page scan can reconstruct rows
//! without consulting the table's in-memory directory. Two formats exist:
//!
//! **Flat** (the original format, byte-identical to the seed encoding):
//!
//! ```text
//! row_id   u64 LE     heap row id (stable until re-clustering)
//! count    u16 LE     number of values
//! values   count ×    tag u8, then tag-specific payload
//! ```
//!
//! Value payloads (all little-endian):
//!
//! | tag | type     | payload                      |
//! |-----|----------|------------------------------|
//! | 0   | Null     | none                         |
//! | 1   | Int64    | 8 bytes                      |
//! | 2   | Float64  | 8 bytes (IEEE-754 bits)      |
//! | 3   | Text     | u32 length + UTF-8 bytes     |
//! | 4   | Bool     | 1 byte (0/1)                 |
//! | 5   | IntArray | u32 count + count × 8 bytes  |
//!
//! **Delta** (compressed; see DESIGN.md "Page formats"):
//!
//! ```text
//! row_id   uvarint    heap row id
//! count    uvarint    number of values
//! values   count ×    tag u8, then tag-specific payload
//! ```
//!
//! | tag | type      | payload                                          |
//! |-----|-----------|--------------------------------------------------|
//! | 0   | Null      | none                                             |
//! | 1   | Int64     | zigzag uvarint                                   |
//! | 2   | Float64   | 8 bytes LE (IEEE-754 bits)                       |
//! | 3   | Text      | uvarint length + UTF-8 bytes (inline)            |
//! | 4   | Bool      | 1 byte (0/1)                                     |
//! | 5   | IntArray  | uvarint n; if n > 0: zigzag-uvarint base, width  |
//! |     |           | u8 `w`, then ceil((n-1)·w/8) bytes of LSB-first  |
//! |     |           | bitpacked zigzagged successive deltas            |
//! | 6   | TextDict  | uvarint dictionary code                          |
//!
//! The `IntArray` layout is the paper's `rlist`/`vlist` win: record-id
//! lists are sorted runs, so successive deltas are tiny and bitpack to a
//! byte or two per element instead of eight. Repeated strings (user
//! names, branch labels) are promoted to a dictionary on their second
//! occurrence; dictionary entries are persisted to a side heap of
//! dictionary pages so code assignment survives inspection and rebuilds.
//!
//! Truncation anywhere inside a tuple of either format must surface as a
//! typed [`Error::Storage`], never a panic — the property tests walk a
//! cut through every prefix.
//!
//! Each format has one parser, a walker that materialises either every
//! value (`decode_row`) or one column's ([`RowDecoder::probe`], what a
//! pushed-down predicate reads) and checks the others without copying
//! them, so a probe fails exactly when `decode_row` would. A Flat *word
//! tuple* — exactly `10 + 9·count` bytes, every tag `Int64` or `Float64`
//! — is admitted by one strided pass over its tags and then read by
//! offset (value `c` at byte `10 + 9·c`): such a tuple always decodes,
//! so it needs no walk. Every other Flat tuple goes to `walk_flat`, the
//! one parser of those tuples and the only source of decode errors.

use std::cell::{RefCell, RefMut};
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

use pagestore::{BufferPool, HeapFile, PageId};

use crate::error::{Error, Result};
use crate::expr::ColumnTest;
use crate::table::{Row, RowId};
use crate::value::Value;

const TAG_NULL: u8 = 0;
const TAG_INT64: u8 = 1;
const TAG_FLOAT64: u8 = 2;
const TAG_TEXT: u8 = 3;
const TAG_BOOL: u8 = 4;
const TAG_INT_ARRAY: u8 = 5;
const TAG_TEXT_DICT: u8 = 6;

/// Serialize a row for heap storage in the Flat format.
pub fn encode_row(id: RowId, row: &Row) -> Vec<u8> {
    let mut out = Vec::new();
    encode_flat(id, row, &mut out);
    out
}

/// Append the Flat encoding of a row to `out`.
fn encode_flat(id: RowId, row: &Row, out: &mut Vec<u8>) {
    out.reserve(10 + row.len() * 9);
    out.extend_from_slice(&id.to_le_bytes());
    out.extend_from_slice(&(row.len() as u16).to_le_bytes());
    encode_values(row, out);
}

/// Append the Flat encoding of `values` to `out`: for each value a tag
/// (0–5), then its little-endian payload, text and arrays behind a `u32`
/// length. Equal values encode to equal bytes, so the encoding of a row,
/// or of its key columns, also serves as a hash key.
pub fn encode_values<'a>(values: impl IntoIterator<Item = &'a Value>, out: &mut Vec<u8>) {
    for v in values {
        match v {
            Value::Null => out.push(TAG_NULL),
            Value::Int64(x) => push_tagged_word(out, TAG_INT64, x.to_le_bytes()),
            Value::Float64(x) => push_tagged_word(out, TAG_FLOAT64, x.to_le_bytes()),
            Value::Text(s) => {
                out.push(TAG_TEXT);
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
            Value::Bool(b) => {
                out.push(TAG_BOOL);
                out.push(*b as u8);
            }
            Value::IntArray(a) => {
                out.push(TAG_INT_ARRAY);
                out.extend_from_slice(&(a.len() as u32).to_le_bytes());
                for x in a {
                    out.extend_from_slice(&x.to_le_bytes());
                }
            }
        }
    }
}

/// A tag and an 8-byte value, appended in one copy.
fn push_tagged_word(out: &mut Vec<u8>, tag: u8, word: [u8; 8]) {
    let mut value = [tag; 9];
    value[1..].copy_from_slice(&word);
    out.extend_from_slice(&value);
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self.pos + n;
        if end > self.bytes.len() {
            return Err(Error::Storage("truncated tuple".into()));
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Fixed-width field as an array; `take` already guarantees the
    /// width, so a mismatch can only mean a corrupt tuple.
    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        self.take(N)?
            .try_into()
            .map_err(|_| Error::Storage("truncated tuple field".into()))
    }

    /// LEB128 unsigned varint; rejects encodings longer than 10 bytes
    /// (a u64 never needs more) so corrupt input cannot loop or shift
    /// past the word.
    fn uvarint(&mut self) -> Result<u64> {
        let mut out: u64 = 0;
        for shift in (0..64).step_by(7) {
            let b = self.u8()?;
            out |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                if shift == 63 && b > 1 {
                    return Err(Error::Storage("uvarint overflows u64".into()));
                }
                return Ok(out);
            }
        }
        Err(Error::Storage("uvarint too long".into()))
    }

    /// `len` bytes of UTF-8 text — checked either way, copied only if
    /// `keep` (a skipped value reads as NULL).
    fn text(&mut self, len: usize, keep: bool) -> Result<Value> {
        let s = std::str::from_utf8(self.take(len)?)
            .map_err(|_| Error::Storage("tuple text is not UTF-8".into()))?;
        Ok(if keep {
            Value::Text(s.to_owned())
        } else {
            Value::Null
        })
    }
}

/// What one walk over a tuple materialises, and where. Either way every
/// value is checked — tag, length, UTF-8, dictionary code, bitpack width
/// and payload, trailing bytes — so a walk fails exactly when decoding
/// the whole row would.
trait Walk {
    /// Called once with the number of values the tuple claims.
    fn start(&mut self, _count: usize) {}
    /// Whether the walk materialises value `i`; one it does not is
    /// checked but not copied.
    fn wants(&self, i: usize) -> bool;
    /// Value `i`. The Flat walker puts only the values wanted; the Delta
    /// walker puts a placeholder for the others.
    fn put(&mut self, i: usize, v: Value);
}

/// Every value, onto the row: `decode_row`.
impl Walk for Row {
    fn start(&mut self, count: usize) {
        self.reserve(count);
    }

    fn wants(&self, _: usize) -> bool {
        true
    }

    fn put(&mut self, _: usize, v: Value) {
        self.push(v);
    }
}

/// The value of one column alone: the probe a pushed-down predicate
/// reads.
struct Probe {
    column: usize,
    value: Option<Value>,
}

impl Walk for Probe {
    fn wants(&self, i: usize) -> bool {
        i == self.column
    }

    fn put(&mut self, i: usize, v: Value) {
        if i == self.column {
            self.value = Some(v);
        }
    }
}

fn push_uvarint(out: &mut Vec<u8>, mut x: u64) {
    loop {
        let b = (x & 0x7f) as u8;
        x >>= 7;
        if x == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

fn zigzag(x: i64) -> u64 {
    ((x << 1) ^ (x >> 63)) as u64
}

fn unzigzag(x: u64) -> i64 {
    ((x >> 1) as i64) ^ -((x & 1) as i64)
}

/// Largest int-array length a Delta tuple may claim; bounds the decode
/// allocation against a torn/corrupt length byte (a width-0 pack could
/// otherwise demand an arbitrarily large materialization).
const MAX_INT_ARRAY: usize = 1 << 28;

/// Append `values[1..]` as successive zigzagged deltas, bitpacked
/// LSB-first at a fixed width. Call only with `values.len() >= 2`; a
/// single-element array is fully described by its base.
fn push_bitpacked_deltas(out: &mut Vec<u8>, values: &[i64]) {
    let mut width = 0u32;
    for w in values.windows(2) {
        let d = zigzag(w[1].wrapping_sub(w[0]));
        width = width.max(64 - d.leading_zeros());
    }
    out.push(width as u8);
    if width == 0 {
        return;
    }
    // The accumulator holds at most 7 queued bits plus one 64-bit delta,
    // so u128 never overflows.
    let mut acc: u128 = 0;
    let mut bits = 0u32;
    for w in values.windows(2) {
        let d = zigzag(w[1].wrapping_sub(w[0]));
        acc |= u128::from(d) << bits;
        bits += width;
        while bits >= 8 {
            out.push(acc as u8);
            acc >>= 8;
            bits -= 8;
        }
    }
    if bits > 0 {
        out.push(acc as u8);
    }
}

/// The `n`-element array whose first element is `base`; its packed deltas
/// are checked and consumed either way, unpacked only if `keep` (a
/// skipped array reads as empty).
fn read_bitpacked_deltas(r: &mut Reader<'_>, base: i64, n: usize, keep: bool) -> Result<Vec<i64>> {
    if n > MAX_INT_ARRAY {
        return Err(Error::Storage(format!("int array length {n} too large")));
    }
    // A single element is fully described by its base: no width byte.
    let width = if n == 1 { 0 } else { u32::from(r.u8()?) };
    if width > 64 {
        return Err(Error::Storage(format!("bad bitpack width {width}")));
    }
    let payload = (n - 1)
        .checked_mul(width as usize)
        .map(|b| b.div_ceil(8))
        .ok_or_else(|| Error::Storage("int array too large".into()))?;
    let bytes = r.take(payload)?;
    if !keep {
        return Ok(Vec::new());
    }
    if width == 0 {
        return Ok(vec![base; n]);
    }
    let mut out = Vec::with_capacity(n);
    out.push(base);
    let mut acc: u128 = 0;
    let mut bits = 0u32;
    let mut next = 0usize;
    let mask = if width == 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    };
    let mut prev = base;
    for _ in 1..n {
        while bits < width {
            acc |= u128::from(bytes[next]) << bits;
            next += 1;
            bits += 8;
        }
        let d = unzigzag((acc as u64) & mask);
        acc >>= width;
        bits -= width;
        prev = prev.wrapping_add(d);
        out.push(prev);
    }
    Ok(out)
}

/// Deserialize a Flat heap tuple back into `(row_id, row)`.
pub fn decode_row(bytes: &[u8]) -> Result<(RowId, Row)> {
    match flat_words(bytes) {
        Some((id, cells)) => Ok((id, cells.iter().map(word_value).collect())),
        None => walk_flat(bytes, Row::new()),
    }
}

/// The row id and 9-byte value cells of a Flat word tuple, `None` for any
/// other tuple: its length is exactly `10 + 9·count`, and one strided pass
/// finds every tag `Int64` or `Float64`. Such a tuple always decodes.
fn flat_words(bytes: &[u8]) -> Option<(RowId, &[[u8; 9]])> {
    let (&head, rest) = bytes.split_first_chunk::<10>()?;
    let [id @ .., c0, c1] = head;
    let (cells, tail) = rest.as_chunks::<9>();
    let count = usize::from(u16::from_le_bytes([c0, c1]));
    // Less 1, tag 1 or 2 is 0 or 1 and any other tag sets a higher bit:
    // one branch-free pass ORs them over the cells.
    let tags = |or: u8, &[tag, ..]: &[u8; 9]| or | tag.wrapping_sub(TAG_INT64);
    let words = tail.is_empty() && cells.len() == count && cells.iter().fold(0, tags) & !1 == 0;
    words.then_some((u64::from_le_bytes(id), cells))
}

/// The value in one cell of a word tuple.
fn word_value(&[tag, word @ ..]: &[u8; 9]) -> Value {
    match tag {
        TAG_INT64 => Value::Int64(i64::from_le_bytes(word)),
        _ => Value::Float64(f64::from_le_bytes(word)),
    }
}

/// The one Flat tuple parser: the row id, and `walk` holding what it wants.
/// Each value costs one tag dispatch and one bounds check on its payload;
/// only the values `walk` wants are materialised, and every value is
/// checked either way.
fn walk_flat<W: Walk>(bytes: &[u8], mut walk: W) -> Result<(RowId, W)> {
    let truncated = || Error::Storage("truncated tuple".into());
    let (&head, mut rest) = bytes.split_first_chunk::<10>().ok_or_else(truncated)?;
    let [id @ .., c0, c1] = head;
    let count = usize::from(u16::from_le_bytes([c0, c1]));
    walk.start(count.min(bytes.len()));
    for i in 0..count {
        let (&tag, payload) = rest.split_first().ok_or_else(truncated)?;
        let want = walk.wants(i);
        rest = match tag {
            TAG_NULL => {
                if want {
                    walk.put(i, Value::Null);
                }
                payload
            }
            TAG_INT64 => {
                let (&word, after) = payload.split_first_chunk::<8>().ok_or_else(truncated)?;
                if want {
                    walk.put(i, Value::Int64(i64::from_le_bytes(word)));
                }
                after
            }
            TAG_FLOAT64 => {
                let (&word, after) = payload.split_first_chunk::<8>().ok_or_else(truncated)?;
                if want {
                    walk.put(i, Value::Float64(f64::from_le_bytes(word)));
                }
                after
            }
            TAG_BOOL => {
                let (&b, after) = payload.split_first().ok_or_else(truncated)?;
                if want {
                    walk.put(i, Value::Bool(b != 0));
                }
                after
            }
            TAG_TEXT | TAG_INT_ARRAY => {
                let (&n, after) = payload.split_first_chunk::<4>().ok_or_else(truncated)?;
                let n = u32::from_le_bytes(n) as usize;
                // The whole extent must be there before any of it is read,
                // so a damaged length cannot size an allocation.
                let len = if tag == TAG_TEXT { n } else { 8 * n };
                let (body, after) = after.split_at_checked(len).ok_or_else(truncated)?;
                if tag == TAG_TEXT {
                    let s = std::str::from_utf8(body)
                        .map_err(|_| Error::Storage("tuple text is not UTF-8".into()))?;
                    if want {
                        walk.put(i, Value::Text(s.to_owned()));
                    }
                } else if want {
                    let elems = body.chunks_exact(8).map(|w| {
                        let mut word = [0; 8];
                        word.copy_from_slice(w);
                        i64::from_le_bytes(word)
                    });
                    walk.put(i, Value::IntArray(elems.collect()));
                }
                after
            }
            tag => return Err(Error::Storage(format!("unknown value tag {tag}"))),
        };
    }
    if !rest.is_empty() {
        return Err(Error::Storage("trailing bytes after tuple".into()));
    }
    Ok((u64::from_le_bytes(id), walk))
}

// ---------------------------------------------------------------------------
// Page-format trait
// ---------------------------------------------------------------------------

/// Which tuple codec a table uses on its heap pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageFormatKind {
    /// Full-image fixed-width encoding (the seed format).
    Flat,
    /// Varint/zigzag + bitpacked int arrays + string dictionary.
    Delta,
}

impl PageFormatKind {
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "flat" => Some(Self::Flat),
            "delta" => Some(Self::Delta),
            _ => None,
        }
    }

    pub fn as_str(self) -> &'static str {
        match self {
            Self::Flat => "flat",
            Self::Delta => "delta",
        }
    }
}

/// A tuple codec. Implementations must be deterministic: encoding the
/// same logical history in the same order yields identical bytes (the
/// crash-recovery byte-identity gates depend on it).
pub trait PageFormat: std::fmt::Debug {
    fn kind(&self) -> PageFormatKind;

    /// Serialize one row, appending it to `out` and leaving the bytes
    /// already there alone, so a writer can reuse one buffer for every
    /// row. Fallible because stateful formats may persist side data
    /// (dictionary pages) while encoding.
    fn encode_into(&self, id: RowId, row: &Row, out: &mut Vec<u8>) -> Result<()>;

    /// [`encode_into`](Self::encode_into) a fresh buffer.
    fn encode_row(&self, id: RowId, row: &Row) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        self.encode_into(id, row, &mut out)?;
        Ok(out)
    }

    /// Deserialize one tuple.
    fn decode_row(&self, bytes: &[u8]) -> Result<(RowId, Row)>;

    /// A `Send + Sync` decoder snapshot for morsel workers. The snapshot
    /// sees the dictionary as of this call; tuples already on pages only
    /// reference codes assigned before they were written, so a snapshot
    /// taken after the writes is always sufficient.
    fn decoder(&self) -> RowDecoder;

    /// The heap of the format's side storage (the Delta dictionary's
    /// pages), whose owner is the table: it counts the pages, records the
    /// first one in the table directory, and gives them back on drop.
    fn side_heap(&self) -> Option<RefMut<'_, HeapFile>> {
        None
    }
}

/// Construct the codec for `kind`; Delta formats get a fresh dictionary
/// (optionally backed by dictionary pages via [`DeltaFormat::with_dict_pages`]).
pub fn format_for(kind: PageFormatKind) -> Box<dyn PageFormat> {
    match kind {
        PageFormatKind::Flat => Box::new(FlatFormat),
        PageFormatKind::Delta => Box::new(DeltaFormat::new()),
    }
}

/// Cheap thread-safe decoder snapshot handed to morsel workers.
#[derive(Debug, Clone)]
pub enum RowDecoder {
    Flat,
    Delta { dict: Arc<Vec<String>> },
}

impl RowDecoder {
    pub fn decode_row(&self, bytes: &[u8]) -> Result<(RowId, Row)> {
        match self {
            RowDecoder::Flat => decode_row(bytes),
            RowDecoder::Delta { dict } => walk_delta(bytes, dict, Row::new()),
        }
    }

    /// The value of `column` in a tuple (`None` past its last value),
    /// read by offset in a Flat word tuple and otherwise by the walker
    /// [`decode_row`](Self::decode_row) uses: it fails exactly when
    /// `decode_row` does.
    pub fn probe(&self, bytes: &[u8], column: usize) -> Result<Option<Value>> {
        if let Some(cells) = self.words(bytes) {
            return Ok(cells.get(column).map(word_value));
        }
        let probe = Probe {
            column,
            value: None,
        };
        Ok(self.walk(bytes, probe)?.1.value)
    }

    /// The row of a tuple that passes `test` (every tuple passes none);
    /// a tuple that fails is checked in full but never materialised. A
    /// Flat word tuple's shape is checked once, for the test and the row.
    pub(crate) fn decode_if(&self, bytes: &[u8], test: Option<&ColumnTest>) -> Result<Option<Row>> {
        let words = self.words(bytes);
        if let Some(test) = test {
            let value = match words {
                Some(cells) => cells.get(test.column).map(word_value),
                None => self.probe(bytes, test.column)?,
            };
            let value = value.ok_or_else(|| {
                Error::TypeError(format!("column index {} out of bounds", test.column))
            })?;
            if !test.holds(&value) {
                return Ok(None);
            }
        }
        Ok(Some(match words {
            Some(cells) => cells.iter().map(word_value).collect(),
            None => self.walk(bytes, Row::new())?.1,
        }))
    }

    /// The cells of a Flat word tuple; `None` for any other tuple.
    fn words<'a>(&self, bytes: &'a [u8]) -> Option<&'a [[u8; 9]]> {
        match self {
            RowDecoder::Flat => flat_words(bytes).map(|(_, cells)| cells),
            RowDecoder::Delta { .. } => None,
        }
    }

    fn walk<W: Walk>(&self, bytes: &[u8], walk: W) -> Result<(RowId, W)> {
        match self {
            RowDecoder::Flat => walk_flat(bytes, walk),
            RowDecoder::Delta { dict } => walk_delta(bytes, dict, walk),
        }
    }
}

/// The seed full-image format.
#[derive(Debug, Default)]
pub struct FlatFormat;

impl PageFormat for FlatFormat {
    fn kind(&self) -> PageFormatKind {
        PageFormatKind::Flat
    }

    fn encode_into(&self, id: RowId, row: &Row, out: &mut Vec<u8>) -> Result<()> {
        encode_flat(id, row, out);
        Ok(())
    }

    fn decode_row(&self, bytes: &[u8]) -> Result<(RowId, Row)> {
        decode_row(bytes)
    }

    fn decoder(&self) -> RowDecoder {
        RowDecoder::Flat
    }
}

// ---------------------------------------------------------------------------
// Delta format
// ---------------------------------------------------------------------------

/// Cap on dictionary size; beyond it new strings stay inline.
const DICT_CAP: usize = 65_536;
/// Cap on the seen-once tracking map (bounds memory on high-cardinality
/// text columns that never repeat).
const SEEN_CAP: usize = 4 * DICT_CAP;

#[derive(Debug, Clone, Copy)]
enum DictSlot {
    /// Seen exactly once; still stored inline.
    SeenOnce,
    /// Promoted to the dictionary under this code.
    Code(u32),
}

/// String dictionary with optional page-backed persistence.
///
/// Promotion policy: a string's first occurrence is stored inline and
/// remembered; its second occurrence promotes it (appending an entry to
/// the dictionary heap when one is attached) and every occurrence from
/// then on encodes as a `TextDict` code. Decoders receive an
/// `Arc<Vec<String>>` snapshot — codes are append-only, so a snapshot
/// taken after the tuples were written always covers them.
#[derive(Debug, Default)]
struct Dict {
    map: HashMap<String, DictSlot>,
    strings: Arc<Vec<String>>,
    pages: Option<DictPages>,
}

struct DictPages {
    pool: Rc<BufferPool>,
    heap: HeapFile,
}

impl std::fmt::Debug for DictPages {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DictPages")
            .field("pages", &self.heap.page_ids().len())
            .finish()
    }
}

impl Dict {
    /// Returns the code for `s` if it is (or just became) dictionary
    /// resident; `None` keeps it inline.
    fn intern(&mut self, s: &str) -> Result<Option<u32>> {
        if let Some(slot) = self.map.get(s) {
            match *slot {
                DictSlot::Code(c) => return Ok(Some(c)),
                DictSlot::SeenOnce => {
                    let strings = Arc::make_mut(&mut self.strings);
                    if strings.len() >= DICT_CAP {
                        return Ok(None);
                    }
                    let code = strings.len() as u32;
                    strings.push(s.to_owned());
                    if let Some(pages) = &mut self.pages {
                        let mut entry = Vec::with_capacity(s.len() + 10);
                        push_uvarint(&mut entry, u64::from(code));
                        push_uvarint(&mut entry, s.len() as u64);
                        entry.extend_from_slice(s.as_bytes());
                        pages.heap.insert(&pages.pool, &entry)?;
                    }
                    self.map.insert(s.to_owned(), DictSlot::Code(code));
                    return Ok(Some(code));
                }
            }
        }
        if self.map.len() < SEEN_CAP {
            self.map.insert(s.to_owned(), DictSlot::SeenOnce);
        }
        Ok(None)
    }
}

/// The compressed format: varint header, zigzag ints, delta-bitpacked
/// int arrays, dictionary-coded repeated strings.
#[derive(Debug, Default)]
pub struct DeltaFormat {
    dict: RefCell<Dict>,
}

impl DeltaFormat {
    pub fn new() -> Self {
        Self::default()
    }

    /// Attach the empty dictionary page heap `heap`; promoted entries are
    /// appended to it as `uvarint code + uvarint len + bytes` tuples.
    pub fn with_dict_pages(pool: Rc<BufferPool>, heap: HeapFile) -> Self {
        Self {
            dict: RefCell::new(Dict {
                pages: Some(DictPages { pool, heap }),
                ..Dict::default()
            }),
        }
    }

    /// Number of dictionary-resident strings (tests/diagnostics).
    pub fn dict_len(&self) -> usize {
        self.dict.borrow().strings.len()
    }

    /// The format of a reopened table: the dictionary is read back from
    /// the side heap starting at `root` (`None`: nothing was promoted
    /// yet), whose pages are added to `reached`. Strings seen once before
    /// the close are not remembered as seen; they stay decodable, and are
    /// promoted one occurrence later than they would have been.
    pub fn open(
        pool: Rc<BufferPool>,
        root: Option<PageId>,
        reached: &mut Vec<PageId>,
    ) -> Result<Self> {
        let mut entries: Vec<(u32, String)> = Vec::new();
        let mut heap = HeapFile::new();
        if let Some(root) = root {
            heap = HeapFile::open(&pool, root, reached, |_, bytes| {
                let mut r = Reader { bytes, pos: 0 };
                let code = u32::try_from(r.uvarint()?)
                    .map_err(|_| Error::Storage("dict code overflows u32".into()))?;
                let len = r.uvarint()? as usize;
                let s = std::str::from_utf8(r.take(len)?)
                    .map_err(|_| Error::Storage("dict entry is not UTF-8".into()))?;
                entries.push((code, s.to_owned()));
                Ok::<(), Error>(())
            })?;
        }
        entries.sort_by_key(|(c, _)| *c);
        let mut strings = Vec::with_capacity(entries.len());
        let mut map = HashMap::new();
        for (code, s) in entries {
            if code as usize != strings.len() {
                return Err(Error::Storage(format!(
                    "dict page gap: expected code {}, found {code}",
                    strings.len()
                )));
            }
            map.insert(s.clone(), DictSlot::Code(code));
            strings.push(s);
        }
        Ok(Self {
            dict: RefCell::new(Dict {
                map,
                strings: Arc::new(strings),
                pages: Some(DictPages { pool, heap }),
            }),
        })
    }
}

impl PageFormat for DeltaFormat {
    fn kind(&self) -> PageFormatKind {
        PageFormatKind::Delta
    }

    fn encode_into(&self, id: RowId, row: &Row, out: &mut Vec<u8>) -> Result<()> {
        let mut dict = self.dict.borrow_mut();
        out.reserve(4 + row.len() * 3);
        push_uvarint(out, id);
        push_uvarint(out, row.len() as u64);
        for v in row {
            match v {
                Value::Null => out.push(TAG_NULL),
                Value::Int64(x) => {
                    out.push(TAG_INT64);
                    push_uvarint(out, zigzag(*x));
                }
                Value::Float64(x) => {
                    out.push(TAG_FLOAT64);
                    out.extend_from_slice(&x.to_le_bytes());
                }
                Value::Text(s) => match dict.intern(s)? {
                    Some(code) => {
                        out.push(TAG_TEXT_DICT);
                        push_uvarint(out, u64::from(code));
                    }
                    None => {
                        out.push(TAG_TEXT);
                        push_uvarint(out, s.len() as u64);
                        out.extend_from_slice(s.as_bytes());
                    }
                },
                Value::Bool(b) => {
                    out.push(TAG_BOOL);
                    out.push(*b as u8);
                }
                Value::IntArray(a) => {
                    out.push(TAG_INT_ARRAY);
                    push_uvarint(out, a.len() as u64);
                    if !a.is_empty() {
                        push_uvarint(out, zigzag(a[0]));
                        if a.len() >= 2 {
                            push_bitpacked_deltas(out, a);
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn decode_row(&self, bytes: &[u8]) -> Result<(RowId, Row)> {
        walk_delta(bytes, &self.dict.borrow().strings, Row::new())
    }

    fn decoder(&self) -> RowDecoder {
        RowDecoder::Delta {
            dict: Arc::clone(&self.dict.borrow().strings),
        }
    }

    fn side_heap(&self) -> Option<RefMut<'_, HeapFile>> {
        RefMut::filter_map(self.dict.borrow_mut(), |d| {
            d.pages.as_mut().map(|p| &mut p.heap)
        })
        .ok()
    }
}

/// The one Delta tuple parser: the row id, and `walk` holding what it wants.
fn walk_delta<W: Walk>(bytes: &[u8], dict: &[String], mut walk: W) -> Result<(RowId, W)> {
    let mut r = Reader { bytes, pos: 0 };
    let id = r.uvarint()?;
    let count = r.uvarint()? as usize;
    walk.start(count.min(bytes.len()));
    for i in 0..count {
        let v = match r.u8()? {
            TAG_NULL => Value::Null,
            TAG_INT64 => Value::Int64(unzigzag(r.uvarint()?)),
            TAG_FLOAT64 => Value::Float64(f64::from_le_bytes(r.array()?)),
            TAG_TEXT => {
                let len = r.uvarint()? as usize;
                r.text(len, walk.wants(i))?
            }
            TAG_TEXT_DICT => {
                let code = r.uvarint()? as usize;
                let s = dict.get(code).ok_or_else(|| {
                    Error::Storage(format!(
                        "dict code {code} out of range (dict has {})",
                        dict.len()
                    ))
                })?;
                if walk.wants(i) {
                    Value::Text(s.clone())
                } else {
                    Value::Null
                }
            }
            TAG_BOOL => Value::Bool(r.u8()? != 0),
            TAG_INT_ARRAY => {
                let n = r.uvarint()? as usize;
                if n == 0 {
                    Value::IntArray(Vec::new())
                } else {
                    let base = unzigzag(r.uvarint()?);
                    Value::IntArray(read_bitpacked_deltas(&mut r, base, n, walk.wants(i))?)
                }
            }
            tag => return Err(Error::Storage(format!("unknown value tag {tag}"))),
        };
        walk.put(i, v);
    }
    if r.pos != bytes.len() {
        return Err(Error::Storage("trailing bytes after tuple".into()));
    }
    Ok((id, walk))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_row() -> Row {
        vec![
            Value::Int64(-7),
            Value::Float64(2.5),
            Value::Text("héllo, wörld".into()),
            Value::Bool(true),
            Value::IntArray(vec![1, -2, i64::MAX]),
            Value::Null,
            Value::Text(String::new()),
            Value::IntArray(vec![]),
        ]
    }

    #[test]
    fn roundtrip_every_type() {
        let row = sample_row();
        let bytes = encode_row(42, &row);
        let (id, back) = decode_row(&bytes).unwrap();
        assert_eq!(id, 42);
        assert_eq!(back, row);
    }

    #[test]
    fn truncation_and_bad_tags_are_errors() {
        let bytes = encode_row(1, &vec![Value::Int64(5)]);
        assert!(decode_row(&bytes[..bytes.len() - 1]).is_err());
        let mut bad = bytes.clone();
        bad[10] = 99; // first value tag
        assert!(decode_row(&bad).is_err());
        let mut trailing = bytes;
        trailing.push(0);
        assert!(decode_row(&trailing).is_err());
    }

    #[test]
    fn truncation_inside_fixed_width_fields_is_a_typed_error() {
        // Cutting the buffer in the middle of an 8-byte value must surface
        // as Error::Storage, never as a slice/try_into panic.
        let bytes = encode_row(3, &vec![Value::Int64(0x0102_0304), Value::Float64(9.25)]);
        for cut in 1..bytes.len() {
            match decode_row(&bytes[..cut]) {
                Err(Error::Storage(_)) => {}
                other => panic!("cut at {cut}: expected Storage error, got {other:?}"),
            }
        }
    }

    #[test]
    fn float_bits_roundtrip_exactly() {
        for f in [0.0, -0.0, f64::MIN_POSITIVE, f64::NAN, 1.0 / 3.0] {
            let bytes = encode_row(0, &vec![Value::Float64(f)]);
            let (_, row) = decode_row(&bytes).unwrap();
            match row[0] {
                Value::Float64(g) => assert_eq!(f.to_bits(), g.to_bits()),
                _ => panic!("wrong type"),
            }
        }
    }

    #[test]
    fn delta_roundtrip_every_type() {
        let fmt = DeltaFormat::new();
        let row = sample_row();
        let bytes = fmt.encode_row(42, &row).unwrap();
        let (id, back) = fmt.decode_row(&bytes).unwrap();
        assert_eq!(id, 42);
        assert_eq!(back, row);
        // The worker-facing decoder snapshot agrees.
        let (id2, back2) = fmt.decoder().decode_row(&bytes).unwrap();
        assert_eq!((id2, back2), (42, row));
    }

    #[test]
    fn delta_int_array_extremes_roundtrip() {
        let fmt = DeltaFormat::new();
        for a in [
            vec![i64::MIN, i64::MAX, 0, -1, 1],
            vec![0; 100],
            (0..257).collect::<Vec<i64>>(),
            vec![42],
            (0..64).map(|i| 1i64 << i).collect(),
        ] {
            let row = vec![Value::IntArray(a.clone())];
            let bytes = fmt.encode_row(7, &row).unwrap();
            let (_, back) = fmt.decode_row(&bytes).unwrap();
            assert_eq!(back, row, "array {a:?}");
        }
    }

    #[test]
    fn delta_sorted_rlist_is_much_smaller_than_flat() {
        let rlist: Vec<i64> = (0..1000).collect();
        let row = vec![Value::IntArray(rlist)];
        let flat = encode_row(0, &row).len();
        let fmt = DeltaFormat::new();
        let delta = fmt.encode_row(0, &row).unwrap().len();
        // 1000 sorted ids: flat spends 8 B each; delta bitpacks the gaps
        // to ~2 bits each.
        assert!(
            delta * 10 < flat,
            "delta {delta} B should be <10% of flat {flat} B"
        );
    }

    #[test]
    fn delta_truncation_every_cut_is_a_typed_error() {
        let fmt = DeltaFormat::new();
        // Promote "dup" so the tuple exercises TAG_TEXT_DICT too.
        fmt.encode_row(0, &vec![Value::Text("dup".into())]).unwrap();
        let row = vec![
            Value::Int64(-123_456),
            Value::Text("dup".into()),
            Value::Text("once".into()),
            Value::IntArray(vec![5, 9, 12, 400]),
            Value::Float64(1.5),
            Value::Bool(false),
        ];
        let bytes = fmt.encode_row(9, &row).unwrap();
        for cut in 0..bytes.len() {
            match fmt.decode_row(&bytes[..cut]) {
                Err(Error::Storage(_)) => {}
                other => panic!("cut at {cut}: expected Storage error, got {other:?}"),
            }
        }
        let mut trailing = bytes;
        trailing.push(0);
        assert!(fmt.decode_row(&trailing).is_err());
    }

    #[test]
    fn delta_bad_dict_code_and_width_are_errors() {
        let fmt = DeltaFormat::new();
        // Hand-build a tuple with a dict code nothing interned.
        let mut bytes = Vec::new();
        push_uvarint(&mut bytes, 1); // row id
        push_uvarint(&mut bytes, 1); // count
        bytes.push(TAG_TEXT_DICT);
        push_uvarint(&mut bytes, 7);
        assert!(matches!(
            fmt.decode_row(&bytes),
            Err(Error::Storage(ref m)) if m.contains("dict code")
        ));
        // And an int array claiming a 65-bit pack width.
        let mut bytes = Vec::new();
        push_uvarint(&mut bytes, 1);
        push_uvarint(&mut bytes, 1);
        bytes.push(TAG_INT_ARRAY);
        push_uvarint(&mut bytes, 2); // n = 2
        push_uvarint(&mut bytes, zigzag(3)); // base
        bytes.push(65); // width
        assert!(fmt.decode_row(&bytes).is_err());
    }

    #[test]
    fn dict_promotes_on_second_occurrence() {
        let fmt = DeltaFormat::new();
        let row = vec![Value::Text("alice".into())];
        let first = fmt.encode_row(0, &row).unwrap();
        assert_eq!(fmt.dict_len(), 0, "first occurrence stays inline");
        let second = fmt.encode_row(1, &row).unwrap();
        assert_eq!(fmt.dict_len(), 1);
        assert!(
            second.len() < first.len(),
            "dict code {} B should beat inline {} B",
            second.len(),
            first.len()
        );
        // Old inline tuples and new coded tuples both still decode.
        assert_eq!(fmt.decode_row(&first).unwrap().1, row);
        assert_eq!(fmt.decode_row(&second).unwrap().1, row);
    }

    #[test]
    fn dict_pages_rebuild_the_dictionary() {
        let pool = Rc::new(BufferPool::in_memory(16));
        let fmt = DeltaFormat::with_dict_pages(Rc::clone(&pool), HeapFile::new());
        let names = ["alice", "bob", "carol"];
        let mut coded = Vec::new();
        for pass in 0..2 {
            for (i, n) in names.iter().enumerate() {
                let bytes = fmt
                    .encode_row((pass * 8 + i) as u64, &vec![Value::Text((*n).into())])
                    .unwrap();
                if pass == 1 {
                    coded.push(bytes);
                }
            }
        }
        assert_eq!(fmt.dict_len(), 3);
        assert!(fmt.side_heap().unwrap().num_pages() > 0);
        // A second instance built from the pages alone.
        let mut reached = Vec::new();
        let root = fmt.side_heap().unwrap().page_ids()[0];
        let fmt = DeltaFormat::open(Rc::clone(&pool), Some(root), &mut reached).unwrap();
        assert_eq!(reached.len(), fmt.side_heap().unwrap().num_pages());
        assert_eq!(fmt.dict_len(), 3);
        for (bytes, n) in coded.iter().zip(names) {
            assert_eq!(
                fmt.decode_row(bytes).unwrap().1,
                vec![Value::Text(n.into())]
            );
        }
        // Codes keep advancing past the reopen without collisions.
        let row = vec![Value::Text("dave".into())];
        fmt.encode_row(20, &row).unwrap();
        let b = fmt.encode_row(21, &row).unwrap();
        assert_eq!(fmt.dict_len(), 4);
        assert_eq!(fmt.decode_row(&b).unwrap().1, row);
    }

    #[test]
    fn format_kind_parse_and_env_check() {
        assert_eq!(PageFormatKind::parse("flat"), Some(PageFormatKind::Flat));
        assert_eq!(PageFormatKind::parse("DELTA"), Some(PageFormatKind::Delta));
        assert_eq!(PageFormatKind::parse("zip"), None);
        assert_eq!(
            format_for(PageFormatKind::Flat).kind(),
            PageFormatKind::Flat
        );
        assert_eq!(
            format_for(PageFormatKind::Delta).kind(),
            PageFormatKind::Delta
        );
    }

    #[test]
    fn uvarint_roundtrip_and_overflow() {
        for x in [0u64, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX] {
            let mut b = Vec::new();
            push_uvarint(&mut b, x);
            let mut r = Reader { bytes: &b, pos: 0 };
            assert_eq!(r.uvarint().unwrap(), x);
            assert_eq!(r.pos, b.len());
        }
        // 11-byte encoding must be rejected, not looped over.
        let b = [0x80u8; 10];
        let mut r = Reader { bytes: &b, pos: 0 };
        assert!(r.uvarint().is_err());
        // A 10th byte carrying more than the top bit overflows u64.
        let mut b = vec![0xffu8; 9];
        b.push(0x02);
        let mut r = Reader { bytes: &b, pos: 0 };
        assert!(r.uvarint().is_err());
    }
}
