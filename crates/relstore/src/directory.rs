//! The table directory of a durable database: what makes its tables
//! findable again after a reopen.
//!
//! Page 0 of the page file heads an ordinary heap. Its first tuple is a
//! magic marker; every other tuple describes one table (scratch tables
//! are never described: nothing of them outlives the process) — name, schema,
//! page format (always `flat`), clustering, index definitions, and the
//! first page of the table's heap
//! ([`Table::descriptor`]) — encoded as a Flat row, so a damaged
//! descriptor fails to decode with the codec's typed errors.
//! [`Directory::sync`] brings the tuples level with the live tables right
//! before a checkpoint flushes, so a descriptor rides in the same WAL
//! batch as the pages it describes.
//!
//! Free space is not recorded: [`Directory::load`] walks every table, and
//! a page no walk reached belongs to nothing.

use crate::codec;
use crate::error::{Error, Result};
use crate::table::Table;
use obs::Recorder;
use pagestore::{BufferPool, HeapFile, TupleAddr};
use std::collections::BTreeMap;
use std::rc::Rc;

/// First tuple of page 0: tells a directory from any other first page.
const MAGIC: &[u8] = b"ORPHEUS table directory 1";

/// The directory heap and what it holds.
#[derive(Debug)]
pub(crate) struct Directory {
    heap: HeapFile,
    /// Descriptor tuples as last written: table name → (address, bytes).
    synced: BTreeMap<String, (TupleAddr, Vec<u8>)>,
}

impl Directory {
    /// Tables the directory describes.
    pub(crate) fn len(&self) -> usize {
        self.synced.len()
    }

    /// Read the directory of the store behind `pool` (starting one in an
    /// empty store) and open every table it describes, each with one pass
    /// over its pages. Pages nothing reached become the pool's free list.
    pub(crate) fn load(
        pool: &Rc<BufferPool>,
        recorder: &Recorder,
    ) -> Result<(Directory, BTreeMap<String, Table>)> {
        let mut tuples: Vec<(TupleAddr, Vec<u8>)> = Vec::new();
        let mut reached = Vec::new();
        let mut heap = HeapFile::new();
        if pool.num_pages() > 0 {
            let _span = recorder.enter("relstore.directory.load");
            heap = HeapFile::open(pool, 0, &mut reached, |addr, bytes| {
                tuples.push((addr, bytes.to_vec()));
                Ok::<(), Error>(())
            })?;
        }
        // An empty page 0 is a store that never reached its first
        // checkpoint: nothing durable is in it.
        if tuples.is_empty() {
            heap.insert(pool, MAGIC)?;
        } else if tuples.remove(0).1 != MAGIC {
            return Err(Error::Storage(
                "the page file does not start with a table directory".into(),
            ));
        }
        // Page 0 — also when this store was only just started.
        reached.push(0);
        let mut directory = Directory {
            heap,
            synced: BTreeMap::new(),
        };
        let mut tables = BTreeMap::new();
        for (addr, bytes) in tuples {
            let _span = recorder.enter("relstore.table.open");
            let desc = codec::decode_row(&bytes)?.1;
            let table = Table::open(&desc, Rc::clone(pool), &mut reached)?;
            directory
                .synced
                .insert(table.name().to_owned(), (addr, bytes));
            tables.insert(table.name().to_owned(), table);
        }
        pool.free_unreached(reached);
        Ok((directory, tables))
    }

    /// Bring the descriptor tuples level with `tables`: one per table
    /// created since the last call, a rewrite for one whose descriptor
    /// changed (schema, indexes, clustering, a new first page), none for
    /// one dropped. A table created and dropped in between never shows,
    /// and a scratch table never does.
    pub(crate) fn sync(
        &mut self,
        tables: &BTreeMap<String, Table>,
        pool: &BufferPool,
    ) -> Result<()> {
        let logged = |name: &String| tables.get(name).is_some_and(|t| !t.is_scratch());
        let dropped: Vec<String> = self.synced.keys().filter(|n| !logged(n)).cloned().collect();
        for name in dropped {
            if let Some((addr, _)) = self.synced.remove(&name) {
                self.heap.delete(pool, addr)?;
            }
        }
        for (name, table) in tables.iter().filter(|(_, t)| !t.is_scratch()) {
            let bytes = codec::encode_row(0, &table.descriptor());
            match self.synced.get_mut(name) {
                Some((_, old)) if *old == bytes => {}
                Some((addr, old)) => {
                    *addr = self.heap.update(pool, *addr, &bytes)?;
                    *old = bytes;
                }
                None => {
                    let addr = self.heap.insert(pool, &bytes)?;
                    self.synced.insert(name.clone(), (addr, bytes));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexKind;
    use crate::schema::{Column, Schema};
    use crate::value::{DataType, Value};

    /// A clustered table with two indexes.
    fn described(pool: &Rc<BufferPool>) -> Table {
        let schema = Schema::new(vec![
            Column::new("rid", DataType::Int64),
            Column::nullable("note", DataType::Text),
        ]);
        let mut t = Table::with_pool("t__sbr_data", schema, Rc::clone(pool));
        for i in 0..6 {
            t.insert(vec![Value::Int64(i), Value::from("twice")])
                .unwrap();
        }
        t.cluster_on("rid").unwrap();
        t.create_index("rid_pk", "rid", true, IndexKind::BTree)
            .unwrap();
        t.create_index("note_ix", "rid", false, IndexKind::Hash)
            .unwrap();
        t
    }

    #[test]
    fn descriptors_roundtrip() {
        let pool = Rc::new(BufferPool::in_memory(16));
        let t = described(&pool);
        let desc = t.descriptor();
        // The layout of every store written so far, a Flat table's from
        // when a Delta format existed included (its fourth value, the
        // dictionary's first page, NULL): those stores open alike.
        let text = |s: &str| Value::from(s);
        let (yes, no) = (Value::Bool(true), Value::Bool(false));
        #[rustfmt::skip]
        let layout = [
            text("t__sbr_data"), text("flat"), desc[2].clone(), Value::Null,
            Value::Int64(0), Value::Int64(2),
            text("rid"), text("integer"), no.clone(),
            text("note"), text("string"), yes.clone(),
            text("note_ix"), Value::Int64(0), no.clone(), no,
            text("rid_pk"), Value::Int64(0), yes.clone(), yes,
        ];
        assert_eq!(desc, layout);
        assert!(!desc[2].is_null(), "the heap has pages");
        let mut reached = Vec::new();
        let opened = Table::open(&desc, Rc::clone(&pool), &mut reached).unwrap();
        assert_eq!(opened.descriptor(), desc);
        assert_eq!(opened.rows().unwrap(), t.rows().unwrap());
        assert_eq!(reached.len(), pool.num_pages() as usize - pool.free_pages());
    }

    /// A descriptor cut anywhere, or with any one bit flipped, opens as
    /// some table or fails with a typed error — it never panics.
    #[test]
    fn damaged_descriptors_are_typed_errors() {
        let pool = Rc::new(BufferPool::in_memory(16));
        let bytes = codec::encode_row(0, &described(&pool).descriptor());
        let open = |bytes: &[u8]| {
            let desc = codec::decode_row(bytes)?.1;
            Table::open(&desc, Rc::clone(&pool), &mut Vec::new())
        };
        for cut in 0..bytes.len() {
            assert!(
                matches!(open(&bytes[..cut]), Err(Error::Storage(_))),
                "cut at {cut}"
            );
        }
        let mut rejected = 0;
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            match open(&flipped) {
                Err(Error::Storage(_) | Error::DuplicateKey(_) | Error::SchemaMismatch(_)) => {
                    rejected += 1
                }
                Err(e) => panic!("bit {bit}: untyped error {e:?}"),
                Ok(_) => {}
            }
        }
        assert!(rejected > bytes.len(), "most flips break the structure");
    }

    /// A directory tuple naming another page format — `delta`, as stores
    /// written when there was one could — is refused at open with an
    /// error naming the table and the format, before any of the table's
    /// pages is read.
    #[test]
    fn a_descriptor_naming_another_format_is_refused() {
        let pool = Rc::new(BufferPool::in_memory(16));
        let recorder = Recorder::new();
        let (mut directory, _) = Directory::load(&pool, &recorder).unwrap();
        let t = described(&pool);
        let mut desc = t.descriptor();
        desc[1] = Value::from("delta");
        // Where the dictionary heap's first page went.
        desc[3] = Value::Int64(i64::from(pool.num_pages()));
        let bytes = codec::encode_row(0, &desc);
        directory.heap.insert(&pool, &bytes).unwrap();
        let before = pool.stats().logical_reads;
        let Err(Error::Storage(message)) = Directory::load(&pool, &recorder) else {
            panic!("a delta descriptor opened");
        };
        assert!(message.contains("t__sbr_data"), "{message}");
        assert!(message.contains("delta"), "{message}");
        // Page 0, the directory, is all the load read.
        assert_eq!(pool.stats().logical_reads - before, 1);
    }
}
