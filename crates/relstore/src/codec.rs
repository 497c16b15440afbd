//! On-page tuple encoding.
//!
//! Tables store rows as byte tuples in `pagestore` heap files. A tuple is
//! self-describing so that a physical page scan can reconstruct rows
//! without consulting the table's in-memory directory. Every table uses
//! one format, Flat:
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
//! The `u16` count bounds a row at [`MAX_COLUMNS`] values; a table wider
//! than that is refused when it is created or widened
//! ([`crate::Error::TooManyColumns`]), so the count never wraps.
//!
//! Truncation anywhere inside a tuple must surface as a typed
//! [`Error::Storage`], never a panic — the property tests walk a cut
//! through every prefix.
//!
//! A Flat *word tuple* — exactly `10 + 9·count` bytes, every tag `Int64`
//! or `Float64` — is admitted by one strided pass over its tags and then
//! read by offset (value `c` at byte `10 + 9·c`): such a tuple always
//! decodes, so it needs no walk. Every other tuple goes to `walk_flat`,
//! the one parser of those tuples and the only source of decode errors.
//! It materialises either every value ([`decode_row`]) or one column's
//! ([`probe`], what a pushed-down predicate reads) and checks the others
//! without copying them, so a probe fails exactly when `decode_row` would.
//! A table takes a row's encoded values as they are
//! ([`Table::insert_encoded`](crate::Table::insert_encoded)) once
//! `admit_values` has checked them against its schema: a row of words by
//! one pass over its tags, any other by decoding it.

use crate::error::{Error, Result};
use crate::expr::ColumnTest;
use crate::schema::{Column, Schema};
use crate::table::{Row, RowId};
use crate::value::{DataType, Value};

const TAG_NULL: u8 = 0;
const TAG_INT64: u8 = 1;
const TAG_FLOAT64: u8 = 2;
const TAG_TEXT: u8 = 3;
const TAG_BOOL: u8 = 4;
const TAG_INT_ARRAY: u8 = 5;

/// The most values a tuple holds: its count is a `u16`.
pub const MAX_COLUMNS: usize = u16::MAX as usize;

/// Fail unless a row of `columns` values fits a tuple.
pub fn check_width(columns: usize) -> Result<()> {
    if columns > MAX_COLUMNS {
        return Err(Error::TooManyColumns {
            columns,
            limit: MAX_COLUMNS,
        });
    }
    Ok(())
}

/// Serialize a row for heap storage in the Flat format.
pub fn encode_row(id: RowId, row: &Row) -> Vec<u8> {
    let mut out = Vec::new();
    encode_into(id, row, &mut out);
    out
}

/// Append the Flat encoding of a row to `out`, leaving the bytes already
/// there alone, so a writer can reuse one buffer for every row.
pub fn encode_into(id: RowId, row: &[Value], out: &mut Vec<u8>) {
    encode_header(id, row.len(), out);
    encode_values(row, out);
}

/// Append a tuple's header — row id, then the count of the `count`
/// values that must follow — to `out`.
pub fn encode_header(id: RowId, count: usize, out: &mut Vec<u8>) {
    debug_assert!(count <= MAX_COLUMNS, "a table refuses a wider schema");
    out.reserve(10 + count * 9);
    out.extend_from_slice(&id.to_le_bytes());
    out.extend_from_slice(&(count as u16).to_le_bytes());
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

/// What one walk over a tuple materialises, and where. Either way every
/// value is checked — tag, length, UTF-8, trailing bytes — so a walk
/// fails exactly when decoding the whole row would.
trait Walk {
    /// Called once with the number of values the tuple claims.
    fn start(&mut self, _count: usize) {}
    /// Whether the walk materialises value `i`; one it does not is
    /// checked but not copied.
    fn wants(&self, i: usize) -> bool;
    /// Value `i`, one the walk wants.
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
    let (id, count, values) = split_tuple(bytes)?;
    walk.start(count.min(bytes.len()));
    Ok((id, walk_values(values, count, walk)?))
}

fn truncated() -> Error {
    Error::Storage("truncated tuple".into())
}

/// A tuple's row id, the count of values its header claims, and the
/// bytes after the header.
fn split_tuple(bytes: &[u8]) -> Result<(RowId, usize, &[u8])> {
    let (&head, values) = bytes.split_first_chunk::<10>().ok_or_else(truncated)?;
    let [id @ .., c0, c1] = head;
    Ok((
        RowId::from_le_bytes(id),
        usize::from(u16::from_le_bytes([c0, c1])),
        values,
    ))
}

/// The values part of [`walk_flat`]: exactly `count` of them, filling
/// `values` to its end.
fn walk_values<W: Walk>(values: &[u8], count: usize, walk: W) -> Result<W> {
    let (walk, rest) = walk_prefix(values, count, walk)?;
    if !rest.is_empty() {
        return Err(Error::Storage("trailing bytes after tuple".into()));
    }
    Ok(walk)
}

/// The first `count` values of `values`, and the bytes after them.
fn walk_prefix<W: Walk>(values: &[u8], count: usize, mut walk: W) -> Result<(W, &[u8])> {
    let mut rest = values;
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
    Ok((walk, rest))
}

/// Check `values`, a row's encoded values ([`encode_values`]), against
/// `schema`: it fails exactly when the decoded row would not decode or
/// would fail [`Schema::check_row`]. Unless `decode` asks for the row, a
/// row of 8-byte words of the schema's types is checked by one pass over
/// its tags and not decoded; any other row is decoded and returned.
/// Either way, the row's [`Value::byte_size`] total comes with it.
pub(crate) fn admit_values(
    values: &[u8],
    schema: &Schema,
    decode: bool,
) -> Result<(usize, Option<Row>)> {
    let columns = schema.columns();
    let (words, tail) = values.as_chunks::<9>();
    let word = |(&[tag, ..], c): (&[u8; 9], &Column)| {
        (tag, c.dtype) == (TAG_INT64, DataType::Int64)
            || (tag, c.dtype) == (TAG_FLOAT64, DataType::Float64)
    };
    if !decode
        && tail.is_empty()
        && words.len() == columns.len()
        && words.iter().zip(columns).all(word)
    {
        return Ok((8 * words.len(), None));
    }
    let row = walk_values(values, columns.len(), Row::with_capacity(columns.len()))?;
    schema.check_row(&row)?;
    Ok((row.iter().map(Value::byte_size).sum(), Some(row)))
}

/// The value of `column` in a tuple (`None` past its last value), read by
/// offset in a word tuple and otherwise by the walker [`decode_row`] uses:
/// it fails exactly when `decode_row` does.
pub fn probe(bytes: &[u8], column: usize) -> Result<Option<Value>> {
    if let Some((_, cells)) = flat_words(bytes) {
        return Ok(cells.get(column).map(word_value));
    }
    let probe = Probe {
        column,
        value: None,
    };
    Ok(walk_flat(bytes, probe)?.1.value)
}

/// [`probe`] that reads and checks only the values up to `column`: for
/// tuples checked when they were made, such as a CVD's records, it reads
/// one value at the cost of the ones before it — by offset when those are
/// all 8-byte words ([`word_cell`]).
pub fn probe_prefix(bytes: &[u8], column: usize) -> Result<Option<Value>> {
    let (_, count, values) = split_tuple(bytes)?;
    if column >= count {
        return Ok(None);
    }
    if let Some(cell) = word_cell(bytes, column) {
        return Ok(Some(word_value(cell)));
    }
    let probe = Probe {
        column,
        value: None,
    };
    Ok(walk_prefix(values, column + 1, probe)?.0.value)
}

/// Value `column`'s cell — its tag and 8 bytes, what [`encode_values`]
/// writes for it — when it and every value before it are 8-byte words:
/// read by offset, checking only those tags. `None` otherwise.
pub fn word_cell(bytes: &[u8], column: usize) -> Option<&[u8; 9]> {
    let (_, count, values) = split_tuple(bytes).ok()?;
    let words = values.as_chunks::<9>().0.get(..=column)?;
    let all_words = words
        .iter()
        .all(|&[tag, ..]| tag.wrapping_sub(TAG_INT64) < 2);
    (column < count && all_words).then(|| &words[column])
}

/// `decode_if`, a page fetch's step, for tuples checked when they were
/// made, such as a CVD's
/// records: the test reads only the values up to its column
/// ([`probe_prefix`]), and a tuple that passes is decoded, and checked, in
/// full.
pub fn decode_prefix_if(bytes: &[u8], test: Option<&ColumnTest>) -> Result<Option<Row>> {
    if let Some(test) = test {
        let value = probe_prefix(bytes, test.column)?.ok_or_else(|| {
            Error::TypeError(format!("column index {} out of bounds", test.column))
        })?;
        if !test.holds(&value) {
            return Ok(None);
        }
    }
    Ok(Some(decode_row(bytes)?.1))
}

/// The row of a tuple that passes `test` (every tuple passes none); a
/// tuple that fails is checked in full but never materialised. A word
/// tuple's shape is checked once, for the test and the row.
pub(crate) fn decode_if(bytes: &[u8], test: Option<&ColumnTest>) -> Result<Option<Row>> {
    let words = flat_words(bytes).map(|(_, cells)| cells);
    if let Some(test) = test {
        let value = match words {
            Some(cells) => cells.get(test.column).map(word_value),
            None => probe(bytes, test.column)?,
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
        None => walk_flat(bytes, Row::new())?.1,
    }))
}

/// The codec as a value, for `benchmarks/loadgen/src/layers.rs`'s storage
/// rung, its one caller: `format_for(db.default_format())`, then
/// `encode_row` and `decode_row`. It forwards to the functions above and
/// selects nothing; delete it with that caller.
#[derive(Debug)]
pub struct Flat;

impl Flat {
    /// [`encode_row`](fn@encode_row).
    pub fn encode_row(&self, id: RowId, row: &Row) -> Result<Vec<u8>> {
        Ok(encode_row(id, row))
    }

    /// [`decode_row`](fn@decode_row).
    pub fn decode_row(&self, bytes: &[u8]) -> Result<(RowId, Row)> {
        decode_row(bytes)
    }
}

/// `codec` itself; kept for the caller [`Flat`] names.
pub fn format_for(codec: Flat) -> Flat {
    codec
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
}
