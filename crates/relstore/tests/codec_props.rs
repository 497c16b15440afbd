//! Property round-trip suite for the tuple codec — the CI codec gate.
//!
//! Flat tuples must survive arbitrary rows, page-overflow chains, and
//! torn-tail truncations: every decode of a complete tuple reproduces the
//! row exactly, and every decode of a torn prefix returns a typed error.

use std::rc::Rc;

use proptest::prelude::*;
use relstore::codec;
use relstore::{BufferPool, Column, DataType, Schema, Table, Value, PAGE_SIZE};

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int64),
        any::<u64>().prop_map(|b| Value::Float64(f64::from_bits(b))),
        "[a-z]{0,12}".prop_map(Value::Text),
        any::<bool>().prop_map(Value::Bool),
        prop::collection::vec(any::<i64>(), 0..20).prop_map(Value::IntArray),
        // Sorted rlists, the common case.
        prop::collection::vec(0..1_000_000i64, 0..50).prop_map(|mut v| {
            v.sort_unstable();
            Value::IntArray(v)
        }),
    ]
}

fn rows_strategy() -> impl Strategy<Value = Vec<Vec<Value>>> {
    prop::collection::vec(prop::collection::vec(value_strategy(), 0..8), 1..20)
}

/// Value equality with NaN-safe floats (compare bits, not IEEE equality).
fn values_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float64(x), Value::Float64(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

fn rows_eq(a: &[Value], b: &[Value]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| values_eq(x, y))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn flat_roundtrips_arbitrary_rows(rows in rows_strategy()) {
        for (i, row) in rows.iter().enumerate() {
            let bytes = codec::encode_row(i as u64, row);
            let (id, back) = codec::decode_row(&bytes).unwrap();
            prop_assert_eq!(id, i as u64);
            prop_assert!(rows_eq(row, &back), "row {} mismatch", i);
        }
    }

    /// Torn tails: every proper prefix of an encoded tuple is a typed
    /// decode error — never a panic, never a silent partial row.
    #[test]
    fn truncation_yields_typed_errors(rows in rows_strategy()) {
        for (i, row) in rows.iter().enumerate() {
            let flat = codec::encode_row(i as u64, row);
            for cut in 0..flat.len() {
                prop_assert!(codec::decode_row(&flat[..cut]).is_err(), "cut {}", cut);
            }
        }
    }

    /// The column probe a pushed-down predicate reads is `decode_row`'s
    /// walker, not a second parser: on every tuple, every prefix cut, every
    /// single-byte flip and a one-byte extension of it, the probe of
    /// column `c` fails exactly when `decode_row` fails, and otherwise
    /// equals the decoded row's `c`-th value (`None` past its end). The
    /// word rows put tuples on either side of the word path's accept
    /// boundary.
    #[test]
    fn column_probe_fails_exactly_when_decode_row_does(
        rows in prop::collection::vec(prop::collection::vec(probe_value(), 1..6), 1..8),
        words in word_row(),
        swap in (non_word_value(), any::<usize>()),
        mask in flip_mask(),
    ) {
        let rows = rows.into_iter().chain(with_word_rows(words, swap));
        for (i, row) in rows.enumerate() {
            let bytes = codec::encode_row(i as u64, &row);
            for mutant in mutants(&bytes, mask) {
                let decoded = codec::decode_row(&mutant);
                for c in PROBED_COLUMNS {
                    match (codec::probe(&mutant, c), &decoded) {
                        (Ok(probed), Ok((_, row))) => prop_assert!(
                            match (&probed, row.get(c)) {
                                (Some(p), Some(v)) => values_eq(p, v),
                                (p, v) => p.is_none() && v.is_none(),
                            },
                            "column {} of {:?}: probe {:?}, row {:?}", c, mutant, probed, row
                        ),
                        (Err(_), Err(_)) => {}
                        (probed, decoded) => prop_assert!(
                            false,
                            "column {} of {:?}: probe {:?}, decode {:?}", c, mutant, probed, decoded
                        ),
                    }
                }
            }
        }
    }

    /// `encode_into` appends: into one buffer that already holds bytes and
    /// is never cleared, each row adds exactly the bytes an empty buffer
    /// receives, and what was there stays.
    #[test]
    fn encode_into_a_reused_buffer_appends_what_an_empty_one_gets(
        rows in prop::collection::vec(prop::collection::vec(probe_value(), 1..6), 1..8),
        prefix in prop::collection::vec(any::<u8>(), 1..40),
    ) {
        let mut reused = prefix.clone();
        for (i, row) in rows.iter().enumerate() {
            let before = reused.len();
            codec::encode_into(i as u64, row, &mut reused);
            let fresh = codec::encode_row(i as u64, row);
            prop_assert_eq!(&reused[before..], &fresh[..], "row {}", i);
            let (id, back) = codec::decode_row(&fresh).unwrap();
            prop_assert!(id == i as u64 && rows_eq(row, &back), "row {}", i);
        }
        prop_assert_eq!(&reused[..prefix.len()], &prefix[..]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The Flat decoder, word path and walker alike, against the walker
    /// it replaced, kept below as [`reference`]: on every tuple, every
    /// prefix cut, every single-byte flip and a one-byte extension,
    /// `decode_row` and the probe of each column give the reference's
    /// values, and fail exactly when it fails, with its error text.
    #[test]
    fn flat_walker_agrees_with_the_reference_walker(
        rows in prop::collection::vec(
            prop::collection::vec(prop_oneof![value_strategy(), probe_value()], 0..6),
            1..8,
        ),
        words in word_row(),
        swap in (non_word_value(), any::<usize>()),
        mask in flip_mask(),
    ) {
        let text = |e: relstore::Error| e.to_string();
        let rows = rows.into_iter().chain(with_word_rows(words, swap));
        for (i, row) in rows.enumerate() {
            let bytes = codec::encode_row(i as u64, &row);
            for mutant in mutants(&bytes, mask) {
                let got = codec::decode_row(&mutant).map_err(text);
                let want = reference::decode_row(&mutant).map_err(text);
                let same = match (&got, &want) {
                    (Ok((a, x)), Ok((b, y))) => a == b && rows_eq(x, y),
                    (got, want) => got == want,
                };
                prop_assert!(same, "{:?}: decode {:?}, reference {:?}", mutant, got, want);
                for c in PROBED_COLUMNS {
                    let got = codec::probe(&mutant, c).map_err(text);
                    let want = reference::probe(&mutant, c).map_err(text);
                    let same = match (&got, &want) {
                        (Ok(Some(x)), Ok(Some(y))) => values_eq(x, y),
                        (got, want) => got == want,
                    };
                    prop_assert!(same, "column {} of {:?}: probe {:?}, reference {:?}", c, mutant, got, want);
                }
            }
        }
    }
}

/// The columns both probe legs read: the first few, and the last of the
/// longest word rows and past them.
const PROBED_COLUMNS: [usize; 10] = [0, 1, 2, 3, 4, 5, 6, 23, 24, 25];

/// A tuple, each of its proper prefixes, each single-byte XOR with `mask`,
/// and the tuple with `mask` appended.
fn mutants(bytes: &[u8], mask: u8) -> impl Iterator<Item = Vec<u8>> + '_ {
    let flips = (0..bytes.len()).map(move |at| {
        let mut flipped = bytes.to_vec();
        flipped[at] ^= mask;
        flipped
    });
    let cuts = (0..bytes.len()).map(|cut| bytes[..cut].to_vec());
    let longer = [bytes, &[mask]].concat();
    [bytes.to_vec(), longer]
        .into_iter()
        .chain(cuts)
        .chain(flips)
}

/// Half the time a mask below 8, which turns an `Int64` or `Float64` tag
/// into 0 or 3–7, the tags next to the word path's two.
fn flip_mask() -> impl Strategy<Value = u8> {
    prop_oneof![1u8..=7, 1u8..=255]
}

/// 0–24 values of 8 bytes, every bit pattern (NaN and −0.0 drawn on
/// purpose): the shape the Flat word path reads by offset.
fn word_row() -> impl Strategy<Value = Vec<Value>> {
    let word = prop_oneof![
        any::<i64>().prop_map(Value::Int64),
        any::<u64>().prop_map(|b| Value::Float64(f64::from_bits(b))),
        prop_oneof![Just(f64::NAN), Just(-0.0)].prop_map(Value::Float64),
    ];
    prop::collection::vec(word, 0..25)
}

/// A value that keeps a tuple off the word path: NULL, Bool, or Text
/// (whose 4-byte strings take exactly a word's 9 bytes).
fn non_word_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        "[aé]{0,3}".prop_map(Value::Text),
    ]
}

/// The word row, and a copy with `swap`'s value in at its position.
fn with_word_rows(words: Vec<Value>, (value, at): (Value, usize)) -> [Vec<Value>; 2] {
    let mut swapped = words.clone();
    match swapped.len() {
        0 => swapped.push(value),
        n => swapped[at % n] = value,
    }
    [words, swapped]
}

/// The Flat walker as it was before it was rewritten to cost one tag
/// dispatch and one bounds check per value: a test-only oracle.
mod reference {
    use relstore::{Error, Result, Value};

    const TAG_NULL: u8 = 0;
    const TAG_INT64: u8 = 1;
    const TAG_FLOAT64: u8 = 2;
    const TAG_TEXT: u8 = 3;
    const TAG_BOOL: u8 = 4;
    const TAG_INT_ARRAY: u8 = 5;

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

        fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
            self.take(N)?
                .try_into()
                .map_err(|_| Error::Storage("truncated tuple field".into()))
        }

        fn u16(&mut self) -> Result<u16> {
            Ok(u16::from_le_bytes(self.array()?))
        }

        fn u32(&mut self) -> Result<u32> {
            Ok(u32::from_le_bytes(self.array()?))
        }

        fn u64(&mut self) -> Result<u64> {
            Ok(u64::from_le_bytes(self.array()?))
        }

        fn i64(&mut self) -> Result<i64> {
            Ok(i64::from_le_bytes(self.array()?))
        }

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

    trait Walk {
        fn start(&mut self, _count: usize) {}
        fn wants(&self, i: usize) -> bool;
        fn put(&mut self, i: usize, v: Value);
    }

    impl Walk for Vec<Value> {
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

    pub fn decode_row(bytes: &[u8]) -> Result<(u64, Vec<Value>)> {
        walk_flat(bytes, Vec::new())
    }

    pub fn probe(bytes: &[u8], column: usize) -> Result<Option<Value>> {
        let probe = Probe {
            column,
            value: None,
        };
        Ok(walk_flat(bytes, probe)?.1.value)
    }

    fn walk_flat<W: Walk>(bytes: &[u8], mut walk: W) -> Result<(u64, W)> {
        let mut r = Reader { bytes, pos: 0 };
        let id = r.u64()?;
        let count = r.u16()? as usize;
        walk.start(count.min(bytes.len()));
        for i in 0..count {
            let v = match r.u8()? {
                TAG_NULL => Value::Null,
                TAG_INT64 => Value::Int64(r.i64()?),
                TAG_FLOAT64 => Value::Float64(f64::from_le_bytes(r.array()?)),
                TAG_TEXT => {
                    let len = r.u32()? as usize;
                    r.text(len, walk.wants(i))?
                }
                TAG_BOOL => Value::Bool(r.u8()? != 0),
                TAG_INT_ARRAY => {
                    let n = r.u32()? as usize;
                    let mut elems = Reader {
                        bytes: r.take(8 * n)?,
                        pos: 0,
                    };
                    if walk.wants(i) {
                        Value::IntArray((0..n).map(|_| elems.i64()).collect::<Result<_>>()?)
                    } else {
                        Value::Null
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
}

/// Text from a small alphabet (so a flipped byte can break UTF-8), short
/// int arrays, ints and NULLs.
fn probe_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        (-1_000..1_000i64).prop_map(Value::Int64),
        "[aé]{0,3}".prop_map(Value::Text),
        prop::collection::vec(-300..300i64, 0..6).prop_map(Value::IntArray),
        any::<bool>().prop_map(Value::Bool),
    ]
}

/// Tuples far larger than a page travel through overflow chains and are
/// reassembled bit-exactly, a repeated one too.
#[test]
fn overflow_chain_tuples_roundtrip() {
    let pool = Rc::new(BufferPool::in_memory(64));
    let schema = Schema::new(vec![
        Column::new("k", DataType::Int64),
        Column::new("payload", DataType::Text),
    ]);
    let mut table = Table::with_pool("big", schema, pool);
    let mut payloads: Vec<String> = (0..5)
        .map(|i| {
            let unit = format!("chunk-{i}-");
            unit.repeat(3 * PAGE_SIZE / unit.len() + 1)
        })
        .collect();
    payloads.push(payloads[0].clone());
    payloads.push(payloads[0].clone());
    for (i, p) in payloads.iter().enumerate() {
        table
            .insert(vec![Value::Int64(i as i64), Value::Text(p.clone())])
            .unwrap();
    }
    for (i, p) in payloads.iter().enumerate() {
        let row = table.get(i as u64).unwrap();
        assert_eq!(row[0], Value::Int64(i as i64), "row {i}");
        assert_eq!(row[1], Value::Text(p.clone()), "row {i}");
    }
    assert_eq!(table.rows().unwrap().len(), payloads.len());
}
