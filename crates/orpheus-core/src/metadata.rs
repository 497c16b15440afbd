//! A CVD's tables: the one module that knows how a CVD is stored.
//!
//! OrpheusDB is "bolt-on" because everything it knows about a CVD sits in
//! ordinary tables of the same database as the data. The engine keeps one
//! layout, split-by-rlist (§4.3, Fig. 3.2(c.ii)):
//!
//! * `{cvd}__sbr_data` `[rid, attrs…]` — the records; a record's rid is
//!   its row id, so the table's row directory is its rid index and the
//!   table has no `rid_pk` (a store written with one still opens; the
//!   index is rebuilt at open and never read). Every attribute is
//!   nullable, so the table can grow with the CVD's schema;
//! * `{cvd}__sbr_vtab` `[vid, rlist]` — one row per version, naming its
//!   records, behind a `vid_pk` index;
//!
//! and beside them the catalog:
//!
//! * `{cvd}__meta` — the metadata table of Fig. 4.2a, one row per version;
//! * `{cvd}__attr` — the attribute table of §4.3, one row per
//!   (name, type) pair;
//! * `__orpheus_sys` `[kind, name, clock, pk, nullable]` — one row per
//!   user, one for the instance clock, and one per CVD with its clock,
//!   primary-key columns and nullable columns.
//!
//! [`create`] makes a CVD's data and versioning tables, [`append`] writes
//! a version — its new records and rlist row ([`append_rlist`]), then its
//! catalog rows — so one checkpoint makes all of it durable together, and
//! [`load`] rebuilds every [`Cvd`] by reading. An in-memory instance keeps
//! the same tables; nothing ever reads them back. The Chapter 4 models
//! crate writes its split-by-rlist model through [`create`] and
//! [`append_rlist`] too, so the layout is written in one place.

use crate::cvd::{Attribute, Cvd, VersionMeta};
use crate::error::{Error, Result};
use partition::{Rid, Vid};
use relstore::{
    Column, CostModel, CostTracker, DataType, Database, IndexKind, Row, RowId, Schema, Table, Value,
};
use std::sync::Arc;

pub(crate) const SYS: &str = "__orpheus_sys";

const USER: &str = "user";
const CLOCK: &str = "clock";
const CVD: &str = "cvd";

fn meta_name(cvd: &str) -> String {
    format!("{cvd}__meta")
}

fn attr_name(cvd: &str) -> String {
    format!("{cvd}__attr")
}

/// `{cvd}__sbr_data`: the CVD's records.
pub fn data_name(cvd: &str) -> String {
    format!("{cvd}__sbr_data")
}

/// `{cvd}__sbr_vtab`: each version's record list.
pub fn vtab_name(cvd: &str) -> String {
    format!("{cvd}__sbr_vtab")
}

/// The tables that make up CVD `cvd`; every other table but [`SYS`] is
/// staging or derived state.
pub(crate) fn tables_of(cvd: &str) -> [String; 4] {
    [
        data_name(cvd),
        vtab_name(cvd),
        meta_name(cvd),
        attr_name(cvd),
    ]
}

/// The `[rid, data attributes…]` star schema of a CVD's data table.
pub fn data_schema(cvd: &Cvd) -> Schema {
    let mut cols = vec![Column::new("rid", DataType::Int64)];
    for c in cvd.schema().columns() {
        cols.push(Column::nullable(c.name.clone(), c.dtype));
    }
    Schema::new(cols)
}

/// The `[rid, attrs…]` row of a record, decoded from its tuple.
pub fn data_row(cvd: &Cvd, rid: Rid) -> Result<Row> {
    Ok(relstore::codec::decode_row(cvd.tuple(rid))?.1)
}

/// Grow `table` — `extra_leading` bookkeeping columns (e.g. rid), then
/// the data attributes — to `schema`, a CVD's evolved one: new attributes
/// are added with a NULL backfill, evolved types widened (§4.3
/// single-pool).
pub fn sync_table_schema(table: &mut Table, schema: &Schema, extra_leading: usize) -> Result<()> {
    let want = schema.columns();
    while table.schema().len() - extra_leading < want.len() {
        let next = &want[table.schema().len() - extra_leading];
        table.add_column(Column::nullable(next.name.clone(), next.dtype), Value::Null)?;
    }
    for (i, col) in want.iter().enumerate() {
        let idx = i + extra_leading;
        let have = (table.schema().column(idx))
            .ok_or_else(|| Error::Internal(format!("evolved schema column #{idx} missing")))?
            .dtype;
        if have != col.dtype {
            table.widen_column(&col.name, col.dtype)?;
        }
    }
    Ok(())
}

/// Create `cvd`'s data table and its versioning table with its `vid_pk`
/// index, both empty.
pub fn create(db: &mut Database, cvd: &Cvd) -> Result<()> {
    db.create_table(data_name(cvd.name()), data_schema(cvd))?;
    let vtab = schema(&[("vid", DataType::Int64), ("rlist", DataType::IntArray)]);
    let vtab = db.create_table(vtab_name(cvd.name()), vtab)?;
    vtab.create_index("vid_pk", "vid", true, IndexKind::BTree)?;
    Ok(())
}

/// The layout's half of appending version `vid` (already in `cvd`): the
/// records it introduced, `new_rids`, join the data table, grown to the
/// CVD's schema first, as the bytes the CVD holds, and one `[vid, rlist]`
/// row joins the versioning table. The writes are charged to `tracker`:
/// a sequential write of the new records and one page for the versioning
/// tuple. Each record must land on the row id equal to its rid; a data
/// table that numbers them otherwise is an error, never a wrong answer
/// later.
pub fn append_rlist(
    db: &mut Database,
    cvd: &Cvd,
    vid: Vid,
    new_rids: &[Rid],
    tracker: &mut CostTracker,
) -> Result<()> {
    let data = db.table_mut(&data_name(cvd.name()))?;
    sync_table_schema(data, cvd.schema(), 1)?;
    tracker.seq_scan(new_rids.len() as u64, &CostModel::default());
    let ids = data.insert_encoded(new_rids.iter().map(|&rid| cvd.star_values(rid)))?;
    if !new_rids.iter().map(|r| r.0).eq(ids.clone()) {
        let first = new_rids.first().map_or(0, |r| r.0);
        return Err(Error::Internal(format!(
            "{}: records from rid {first} stored as row ids {ids:?}",
            data.name()
        )));
    }
    let rlist = ints(cvd.version_records(vid)?, |r| r.0 as i64);
    tracker.random_pages += 1;
    tracker.tuples += 1;
    let vtab = db.table_mut(&vtab_name(cvd.name()))?;
    vtab.insert(vec![Value::Int64(i64::from(vid.0)), rlist])?;
    Ok(())
}

/// Append version `vid` of `cvd`, whose last `new_records` records it
/// introduced: [`append_rlist`], then the catalog rows ([`sync`]).
pub(crate) fn append(
    db: &mut Database,
    cvd: &Cvd,
    vid: Vid,
    new_records: usize,
    tracker: &mut CostTracker,
    clock: u64,
) -> Result<()> {
    let total = cvd.num_records() as u64;
    let new_rids: Vec<Rid> = (total - new_records as u64..total).map(Rid).collect();
    append_rlist(db, cvd, vid, &new_rids, tracker)?;
    sync(db, cvd, clock)
}

fn ints<T>(items: impl IntoIterator<Item = T>, f: impl Fn(T) -> i64) -> Value {
    Value::IntArray(items.into_iter().map(f).collect())
}

/// A catalog table's schema: no column of one is ever NULL.
fn schema(columns: &[(&str, DataType)]) -> Schema {
    let column = |&(name, dtype): &(&str, DataType)| Column::new(name, dtype);
    Schema::new(columns.iter().map(column).collect())
}

/// The system table, created on first use.
fn sys(db: &mut Database) -> Result<&mut Table> {
    use DataType::{Int64, IntArray, Text};
    if !db.has_table(SYS) {
        let columns = [
            ("kind", Text),
            ("name", Text),
            ("clock", Int64),
            ("pk", IntArray),
            ("nullable", IntArray),
        ];
        db.create_table(SYS, schema(&columns))?;
    }
    Ok(db.table_mut(SYS)?)
}

/// Write (insert or replace) the system row `(kind, name)`.
fn put_sys(db: &mut Database, kind: &str, name: &str, rest: [Value; 3]) -> Result<()> {
    let table = sys(db)?;
    let mut row = vec![Value::from(kind), Value::from(name)];
    row.extend(rest);
    match sys_row(table, kind, name)? {
        Some(id) => table.update(id, row)?,
        None => drop(table.insert(row)?),
    }
    Ok(())
}

fn sys_row(table: &Table, kind: &str, name: &str) -> Result<Option<RowId>> {
    let is = |v: Option<&Value>, s| v.and_then(Value::as_str) == Some(s);
    let found = |row: &Row| is(row.first(), kind) && is(row.get(1), name);
    let mut rows = table.rows()?.into_iter();
    Ok(rows.find(|(_, row)| found(row)).map(|(id, _)| id))
}

/// What a system row that is not a CVD's carries: a clock, no columns.
fn plain(clock: u64) -> [Value; 3] {
    let none = || Value::IntArray(Vec::new());
    [Value::Int64(clock as i64), none(), none()]
}

pub(crate) fn put_user(db: &mut Database, name: &str) -> Result<()> {
    put_sys(db, USER, name, plain(0))
}

/// Create the metadata and attribute tables of a new CVD.
fn create_catalog(db: &mut Database, cvd: &str) -> Result<()> {
    use DataType::{Int64, IntArray, Text};
    let meta = [
        ("vid", Int64),
        ("parents", IntArray),
        ("checkout_t", Int64),
        ("commit_t", Int64),
        ("message", Text),
        ("author", Text),
        ("attributes", IntArray),
    ];
    db.create_table(meta_name(cvd), schema(&meta))?;
    let attr = [("id", Int64), ("name", Text), ("dtype", Text)];
    db.create_table(attr_name(cvd), schema(&attr))?;
    Ok(())
}

/// Bring `cvd`'s catalog rows level with it after `init` or a commit:
/// versions and attributes only ever grow, so the rows past what each
/// table holds are appended; the CVD's system row and the instance
/// `clock` are rewritten. The metadata and attribute tables are created
/// on first use.
fn sync(db: &mut Database, cvd: &Cvd, clock: u64) -> Result<()> {
    if !db.has_table(&meta_name(cvd.name())) {
        create_catalog(db, cvd.name())?;
    }
    let metas = db.table_mut(&meta_name(cvd.name()))?;
    for m in cvd.metas().iter().skip(metas.live_row_count()) {
        metas.insert(vec![
            Value::Int64(i64::from(m.vid.0)),
            ints(&m.parents, |p| i64::from(p.0)),
            Value::Int64(m.checkout_t as i64),
            Value::Int64(m.commit_t as i64),
            Value::Text(m.message.clone()),
            Value::Text(m.author.clone()),
            ints(&m.attributes, |&a| i64::from(a)),
        ])?;
    }
    let attrs = db.table_mut(&attr_name(cvd.name()))?;
    for a in cvd.attributes().iter().skip(attrs.live_row_count()) {
        attrs.insert(vec![
            Value::Int64(i64::from(a.id)),
            Value::Text(a.name.clone()),
            Value::from(a.dtype.name()),
        ])?;
    }
    let columns = cvd.schema().columns().iter().enumerate();
    let nullable = columns.filter(|(_, c)| c.nullable).map(|(i, _)| i);
    let row = [
        Value::Int64(cvd.clock() as i64),
        ints(cvd.pk_cols()?, |c| c as i64),
        ints(nullable, |c| c as i64),
    ];
    put_sys(db, CVD, cvd.name(), row)?;
    put_sys(db, CLOCK, "", plain(clock))
}

/// Remove everything `cvd` owns: its four tables and its system row.
pub(crate) fn drop_cvd(db: &mut Database, cvd: &str) -> Result<()> {
    for table in tables_of(cvd) {
        db.drop_table(&table)?;
    }
    let table = sys(db)?;
    match sys_row(table, CVD, cvd)? {
        Some(id) => Ok(table.delete(id)?),
        None => Ok(()),
    }
}

/// What [`load`] found: users, the instance clock, every CVD.
pub(crate) type Catalog = (Vec<String>, u64, Vec<Cvd>);

/// Rebuild the catalog from the tables of a just-opened database.
pub(crate) fn load(db: &Database) -> Result<Catalog> {
    let (mut users, mut clock, mut cvds) = (Vec::new(), 0, Vec::new());
    if !db.has_table(SYS) {
        return Ok((users, clock, cvds));
    }
    for (_, row) in db.table(SYS)?.rows()? {
        use Value::{Int64, IntArray, Text};
        match row.as_slice() {
            [Text(kind), Text(name), ..] if kind == USER => users.push(name.clone()),
            [Text(kind), _, Int64(t), ..] if kind == CLOCK => clock = nat(*t)?,
            [Text(kind), Text(name), Int64(t), IntArray(pk), IntArray(nullable)] if kind == CVD => {
                cvds.push(read_cvd(db, name, nat(*t)?, &nats(pk)?, &nats(nullable)?)?)
            }
            _ => return Err(corrupt("system row")),
        }
    }
    Ok((users, clock, cvds))
}

/// A stored value of the wrong shape is a corrupt catalog, not a panic.
fn corrupt(what: &str) -> Error {
    Error::Internal(format!("catalog tables: malformed {what}"))
}

fn nat<T: TryFrom<i64>>(x: i64) -> Result<T> {
    T::try_from(x).map_err(|_| corrupt("number"))
}

fn nats<T: TryFrom<i64>>(items: &[i64]) -> Result<Vec<T>> {
    items.iter().map(|&x| nat(x)).collect()
}

/// `table`'s rows in the order of their first column, which must number
/// them `0..n`.
fn numbered(table: &Table, what: &str) -> Result<Vec<Row>> {
    let mut rows: Vec<Row> = table.rows()?.into_iter().map(|(_, row)| row).collect();
    let number = |row: &Row| row.first().and_then(Value::as_i64);
    rows.sort_by_key(number);
    let mut numbers = rows.iter().map(number);
    if numbers.by_ref().eq((0..rows.len() as i64).map(Some)) {
        Ok(rows)
    } else {
        Err(corrupt(what))
    }
}

/// The records of CVD `cvd`, by rid, from its data table `data`, each
/// tuple's bytes copied as they are stored, page by page. Every tuple must
/// decode, and the rows must be numbered by rid — each tuple's rid its row
/// id, the directory `0..n` with no gap — or a rid fetch by row id would
/// answer wrongly.
fn records(data: &Table, cvd: &str) -> Result<Vec<Arc<[u8]>>> {
    let mut records = Vec::with_capacity(data.heap_size());
    for page in 0..data.num_heap_pages() {
        records.extend(data.read_page_tuples(page)?);
    }
    // A tuple starts with its row id.
    let row_id = |tuple: &[u8]| tuple.first_chunk().copied().map(RowId::from_le_bytes);
    records.sort_unstable_by_key(|tuple| row_id(tuple));
    let mut by_rid = data.heap_size() == records.len();
    for (i, tuple) in records.iter().enumerate() {
        // The whole tuple is checked as decoding it would check it.
        let rid = relstore::codec::probe(tuple, 0)?;
        by_rid &= row_id(tuple) == Some(i as RowId) && rid == Some(Value::Int64(i as i64));
    }
    if !by_rid {
        return Err(Error::Internal(format!(
            "cvd {cvd}: {} holds {} records under {} row ids, not numbered by rid",
            data.name(),
            records.len(),
            data.heap_size()
        )));
    }
    Ok(records)
}

fn read_cvd(
    db: &Database,
    name: &str,
    clock: u64,
    pk: &[usize],
    nullable: &[usize],
) -> Result<Cvd> {
    use Value::{Int64, IntArray, Text};
    let [data, vtab, meta, attr] = tables_of(name);
    let data = db.table(&data)?;
    let columns = data.schema().columns().iter().skip(1).enumerate();
    let columns: Vec<Column> = columns
        .map(|(i, c)| Column {
            nullable: nullable.contains(&i),
            ..c.clone()
        })
        .collect();
    let pk_names = pk
        .iter()
        .map(|&c| columns.get(c).map(|col| col.name.clone()))
        .collect::<Option<Vec<String>>>()
        .ok_or_else(|| corrupt("primary key"))?;
    let records = records(data, name)?;
    let mut version_records = Vec::new();
    for row in numbered(db.table(&vtab)?, "rlist")? {
        let [_, IntArray(rlist)] = row.as_slice() else {
            return Err(corrupt("rlist"));
        };
        version_records.push(nats::<u64>(rlist)?.into_iter().map(Rid).collect());
    }
    let mut metas = Vec::new();
    for row in numbered(db.table(&meta)?, "version")? {
        let [Int64(vid), IntArray(parents), Int64(checkout_t), Int64(commit_t), Text(message), Text(author), IntArray(attributes)] =
            row.as_slice()
        else {
            return Err(corrupt("version"));
        };
        metas.push(VersionMeta {
            vid: Vid(nat(*vid)?),
            parents: nats::<u32>(parents)?.into_iter().map(Vid).collect(),
            checkout_t: nat(*checkout_t)?,
            commit_t: nat(*commit_t)?,
            message: message.clone(),
            author: author.clone(),
            attributes: nats(attributes)?,
        });
    }
    let mut attributes = Vec::new();
    for row in numbered(db.table(&attr)?, "attribute")? {
        let [Int64(id), Text(name), Text(dtype)] = row.as_slice() else {
            return Err(corrupt("attribute"));
        };
        attributes.push(Attribute {
            id: nat(*id)?,
            name: name.clone(),
            dtype: DataType::from_name(dtype).ok_or_else(|| corrupt("attribute type"))?,
        });
    }
    Cvd::from_parts(
        name.to_owned(),
        Schema::new(columns),
        pk_names,
        records,
        version_records,
        metas,
        attributes,
        clock,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::OrpheusDb;
    use crate::plan::tests::{load_corpus, QUERY_CORPUS};
    use crate::query::QueryResult;
    use pagestore::{FaultKind, FaultPager, FaultPlan, FaultWal, FilePager, FileWalStore, Wal};
    use proptest::prelude::*;
    use relstore::BufferPool;
    use std::path::{Path, PathBuf};

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("orpheus-meta-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn open(dir: &Path, pool_pages: usize) -> OrpheusDb {
        let mut odb = OrpheusDb::open_durable(dir, pool_pages).unwrap().0;
        odb.login("alice").ok();
        odb
    }

    fn copy_dir(from: &Path, to: &Path) {
        let _ = std::fs::remove_dir_all(to);
        std::fs::create_dir_all(to).unwrap();
        for entry in std::fs::read_dir(from).unwrap() {
            let entry = entry.unwrap();
            std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
        }
    }

    fn pages_len(dir: &Path) -> u64 {
        std::fs::metadata(dir.join("pages.db")).unwrap().len()
    }

    /// Everything a client can see of an instance: the users and, per
    /// CVD, its log, schema, keys, attribute and metadata tables, clock,
    /// and every version's rows — from the CVD and through the tables.
    fn visible(odb: &OrpheusDb) -> Vec<String> {
        let mut seen = vec![format!("{:?}", odb.users())];
        for name in odb.list_cvds() {
            let cvd = odb.cvd(&name).unwrap();
            seen.push(odb.log(&name).unwrap());
            seen.push(format!(
                "{:?} {:?} {:?} {:?} {}",
                cvd.schema().columns(),
                cvd.pk_names(),
                cvd.attributes(),
                cvd.metas(),
                cvd.clock()
            ));
            for v in cvd.graph().versions() {
                seen.push(format!("{v} {:?}", cvd.checkout_rows(&[v]).unwrap()));
                seen.push(format!("{:?}", odb.read_version(&name, v).unwrap().0));
            }
        }
        seen
    }

    /// Whether every CVD's data table numbers its rows by rid: the row
    /// directory holds exactly the records, each under its own rid.
    fn rids_are_row_ids(odb: &mut OrpheusDb) -> bool {
        odb.list_cvds().iter().all(|name| {
            let records = odb.cvd(name).unwrap().num_records();
            let data = odb.database().table(&data_name(name)).unwrap();
            let rows = data.rows().unwrap();
            let numbered = |(id, row): &(RowId, Row)| row[0] == Value::Int64(*id as i64);
            data.heap_size() == records && rows.len() == records && rows.iter().all(numbered)
        })
    }

    /// One action of a generated history on CVD `h` (and its sibling `side`).
    #[derive(Debug, Clone)]
    enum Step {
        /// Check `parent` out, delete / update / insert rows, commit.
        Edit {
            parent: usize,
            delete: usize,
            update: usize,
            inserts: usize,
        },
        /// Check two versions out together — the first wins a shared
        /// primary key — and commit the merge.
        Merge(usize, usize),
        /// Commit `parent` through CSV under a changed schema: `x` widened
        /// to decimal, or a new column.
        Evolve { parent: usize, widen: bool },
        /// Drop `side`, or `init` it again.
        ToggleSide,
    }

    fn step() -> impl Strategy<Value = Step> {
        let n = || any::<usize>();
        prop_oneof![
            (n(), n(), n(), 0..4usize).prop_map(|(parent, delete, update, inserts)| Step::Edit {
                parent,
                delete,
                update,
                inserts
            }),
            (n(), n(), n(), 0..4usize).prop_map(|(parent, delete, update, inserts)| Step::Edit {
                parent,
                delete,
                update,
                inserts
            }),
            (n(), n()).prop_map(|(a, b)| Step::Merge(a, b)),
            (n(), any::<bool>()).prop_map(|(parent, widen)| Step::Evolve { parent, widen }),
            Just(Step::ToggleSide),
        ]
    }

    fn base_schema() -> Schema {
        Schema::new(vec![
            Column::new("k", DataType::Int64),
            Column::nullable("x", DataType::Int64),
            Column::nullable("note", DataType::Text),
        ])
    }

    fn base_rows(n: i64) -> Vec<Row> {
        (0..n)
            .map(|k| vec![Value::Int64(k), Value::Int64(k * 3), Value::from("seed")])
            .collect()
    }

    /// A value of `column`'s type derived from `n`.
    fn value_for(column: &Column, n: i64) -> Value {
        match column.dtype {
            DataType::Int64 => Value::Int64(n),
            DataType::Float64 => Value::Float64(n as f64 + 0.5),
            DataType::Text => Value::Text(format!("note {}", n % 5)),
            _ => Value::Null,
        }
    }

    /// Apply `step`; `serial` numbers the steps of one history so keys,
    /// table and column names never repeat.
    fn apply(odb: &mut OrpheusDb, step: &Step, serial: usize) {
        let versions = odb.cvd("h").unwrap().num_versions();
        let pick = |i: usize| Vid((i % versions) as u32);
        match *step {
            Step::Edit {
                parent,
                delete,
                update,
                inserts,
            } => {
                odb.checkout("h", &[pick(parent)], "w").unwrap();
                let t = odb.staging_table_mut("w").unwrap();
                let columns = t.schema().columns().to_vec();
                let rows = t.rows().unwrap();
                if let Some((id, _)) = rows.get(delete % rows.len().max(1)) {
                    t.delete(*id).unwrap();
                }
                if let Some((id, row)) = rows.get(update % rows.len().max(1)) {
                    let mut row = row.clone();
                    row[1] = value_for(&columns[1], serial as i64);
                    // The row deleted above may be the one picked here.
                    t.update(*id, row).ok();
                }
                for i in 0..inserts {
                    let key = 1_000 + (serial * 10 + i) as i64;
                    let mut row: Row = columns.iter().map(|c| value_for(c, key)).collect();
                    row[0] = Value::Int64(key);
                    t.insert(row).unwrap();
                }
                odb.commit("w", &format!("edit {serial}")).unwrap();
            }
            Step::Merge(a, b) => {
                // A version is listed once: `a == b` checks it out alone.
                let mut parents = vec![pick(a), pick(b)];
                parents.dedup();
                odb.checkout("h", &parents, "m").unwrap();
                odb.commit("m", &format!("merge {serial}")).unwrap();
            }
            Step::Evolve { parent, widen } => {
                let file = format!("e{serial}.csv");
                let csv = odb.checkout_csv("h", &[pick(parent)], &file).unwrap();
                let mut columns = odb.cvd("h").unwrap().schema().columns().to_vec();
                let mut lines: Vec<String> = csv.lines().map(str::to_owned).collect();
                if widen {
                    columns[1].dtype = DataType::Float64;
                } else {
                    columns.push(Column::nullable(format!("c{serial}"), DataType::Int64));
                    lines[0].push_str(&format!(",c{serial}"));
                    for (i, line) in lines.iter_mut().enumerate().skip(1) {
                        line.push_str(&format!(",{}", serial * 100 + i));
                    }
                }
                let spec: Vec<String> = columns
                    .iter()
                    .map(|c| match c.dtype {
                        DataType::Int64 => format!("{}:int", c.name),
                        DataType::Float64 => format!("{}:float", c.name),
                        _ => format!("{}:text", c.name),
                    })
                    .collect();
                let csv = lines.join("\n") + "\n";
                odb.commit_csv(&file, &csv, &spec.join(","), "evolve")
                    .unwrap();
            }
            Step::ToggleSide => {
                if odb.cvd("side").is_ok() {
                    odb.drop_cvd("side").unwrap();
                } else {
                    odb.init_cvd("side", base_schema(), vec![], base_rows(4))
                        .unwrap();
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Was `snapshot_roundtrips_bit_for_bit`: whatever history ran, a
        /// reopened instance shows what the live one shows, goes on from
        /// there exactly as the live one does, and opening wrote nothing.
        #[test]
        fn a_reopened_instance_is_the_instance_that_was_closed(
            steps in prop::collection::vec(step(), 1..9),
            next in step(),
        ) {
            let dir = scratch("history");
            let mut live = open(&dir, 1024);
            live.create_user("alice").unwrap();
            live.login("alice").unwrap();
            live.init_cvd("h", base_schema(), vec!["k".into()], base_rows(12)).unwrap();
            live.init_cvd("side", base_schema(), vec![], base_rows(4)).unwrap();
            for (serial, step) in steps.iter().enumerate() {
                apply(&mut live, step, serial);
                prop_assert!(rids_are_row_ids(&mut live), "after {:?}", step);
            }
            // A copy of a live instance's files is what a crash leaves.
            let copy = scratch("history-copy");
            copy_dir(&dir, &copy);
            let len = pages_len(&copy);
            let mut reopened = open(&copy, 1024);
            prop_assert!(rids_are_row_ids(&mut reopened));
            prop_assert_eq!(visible(&reopened), visible(&live));
            prop_assert_eq!(reopened.database().io_stats().pages_written(), 0);
            reopened.checkpoint().unwrap();
            prop_assert_eq!(reopened.database().io_stats().wal_appends, 0);
            apply(&mut live, &next, steps.len());
            apply(&mut reopened, &next, steps.len());
            prop_assert!(rids_are_row_ids(&mut reopened));
            prop_assert_eq!(visible(&reopened), visible(&live));
            // Open, close, open: the page file keeps its length.
            drop(reopened);
            copy_dir(&dir, &copy);
            prop_assert!(pages_len(&copy) >= len);
            let len = pages_len(&copy);
            drop(open(&copy, 1024));
            drop(open(&copy, 1024));
            prop_assert_eq!(pages_len(&copy), len);
            drop(live);
            std::fs::remove_dir_all(&dir).unwrap();
            std::fs::remove_dir_all(&copy).unwrap();
        }
    }

    fn corpus_answers(odb: &OrpheusDb) -> Vec<QueryResult> {
        QUERY_CORPUS.iter().map(|q| odb.run(q).unwrap()).collect()
    }

    /// One write to a checkout of the corpus CVD `T` (`k`, `name`,
    /// `score`, then any columns added since); rows are picked by their
    /// position in the staging table's physical order.
    #[derive(Debug, Clone)]
    enum Write {
        /// Set a row's score; with `back`, restore the row afterwards.
        Score {
            at: usize,
            score: i64,
            back: bool,
        },
        /// Update a row to the content it has.
        Same(usize),
        /// Grow the names of two rows until the second tuple relocates.
        Grow(usize),
        Delete(usize),
        /// Delete a row, then insert it again verbatim.
        Reinsert(usize),
        /// Delete row `from` and give row `to` its key; with `swap`, insert
        /// `from`'s content again under `to`'s old key.
        TakeKey {
            from: usize,
            to: usize,
            swap: bool,
        },
        /// Insert a row under a new key, or under an existing row's.
        Insert {
            key: i64,
            dup: Option<usize>,
        },
        Cluster,
        AddColumn,
    }

    /// Writes a commit by rid must get right, weighted over the ones that
    /// make it fail (a duplicate key) or fall back (`Cluster`, `AddColumn`).
    fn write() -> impl Strategy<Value = Write> {
        let n = || any::<usize>();
        let score = || {
            (n(), 0..20i64, any::<bool>()).prop_map(|(at, score, back)| Write::Score {
                at,
                score,
                back,
            })
        };
        let take_key = || {
            (n(), n(), any::<bool>()).prop_map(|(from, to, swap)| Write::TakeKey { from, to, swap })
        };
        let insert = || (0..50i64).prop_map(|key| Write::Insert { key, dup: None });
        prop_oneof![
            score(),
            score(),
            score(),
            n().prop_map(Write::Same),
            n().prop_map(Write::Grow),
            n().prop_map(Write::Grow),
            n().prop_map(Write::Delete),
            n().prop_map(Write::Delete),
            n().prop_map(Write::Reinsert),
            take_key(),
            take_key(),
            insert(),
            insert(),
            insert(),
            n().prop_map(|at| Write::Insert {
                key: 0,
                dup: Some(at)
            }),
            Just(Write::Cluster),
            Just(Write::AddColumn),
        ]
    }

    /// Apply `w` to the staging table `t`; `serial` keeps new keys and
    /// column names apart across commits.
    fn apply_write(t: &mut relstore::Table, w: &Write, serial: i64) -> relstore::Result<()> {
        let rows = t.rows()?;
        let pick = |i: usize| rows.get(i % rows.len().max(1)).cloned();
        match *w {
            Write::Score { at, score, back } => {
                if let Some((id, row)) = pick(at) {
                    let mut scored = row.clone();
                    scored[2] = Value::Int64(score);
                    t.update(id, scored)?;
                    if back {
                        t.update(id, row)?;
                    }
                }
            }
            Write::Same(at) => {
                if let Some((id, row)) = pick(at) {
                    t.update(id, row)?;
                }
            }
            Write::Grow(at) => {
                // The later row grows in place, the earlier one moves past
                // it: new records follow the heap's order, not the ids'.
                for (id, mut row) in [pick(at + 1), pick(at)].into_iter().flatten() {
                    row[1] = Value::Text(format!("{serial}{}", "g".repeat(4_500)));
                    t.update(id, row)?;
                }
            }
            Write::Delete(at) => {
                if let Some((id, _)) = pick(at) {
                    t.delete(id)?;
                }
            }
            Write::Reinsert(at) => {
                if let Some((id, row)) = pick(at) {
                    t.delete(id)?;
                    t.insert(row)?;
                }
            }
            Write::TakeKey { from, to, swap } => {
                if let (Some((a, row_a)), Some((b, mut row_b))) = (pick(from), pick(to)) {
                    if a != b {
                        t.delete(a)?;
                        let key_b = std::mem::replace(&mut row_b[0], row_a[0].clone());
                        t.update(b, row_b)?;
                        if swap {
                            let mut moved = row_a;
                            moved[0] = key_b;
                            t.insert(moved)?;
                        }
                    }
                }
            }
            Write::Insert { key, dup } => {
                let mut row = vec![Value::Null; t.schema().len()];
                row[0] = match dup.and_then(pick) {
                    Some((_, taken)) => taken[0].clone(),
                    None => Value::Int64(100_000 + serial * 100 + key),
                };
                row[1] = Value::from("new");
                row[2] = Value::Int64(key);
                t.insert(row)?;
            }
            Write::Cluster => t.cluster_on("score")?,
            Write::AddColumn => {
                let column = Column::nullable(format!("c{serial}"), DataType::Int64);
                t.add_column(column, Value::Null)?;
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        /// The differential oracle for commit by rid: twin stores take the
        /// same checkouts and writes, one commits them by rid, the other in
        /// the all-changed form. Every write, commit result and error, the
        /// visible state (rlists and records, rids included) and the corpus
        /// answers agree, live and after a reopen.
        #[test]
        fn a_commit_by_rid_is_the_all_changed_commit(
            commits in prop::collection::vec(
                (any::<usize>(), prop::collection::vec(write(), 0..5)),
                1..7,
            ),
        ) {
            let dirs = [scratch("by-rid"), scratch("all-changed")];
            let mut twins = dirs.clone().map(|dir| {
                let mut odb = open(&dir, 2048);
                odb.set_auto_checkpoint(false);
                load_corpus(&mut odb);
                odb
            });
            for (serial, (parent, writes)) in commits.iter().enumerate() {
                let table = format!("w{serial}");
                let mut outcomes = Vec::new();
                for (twin, odb) in twins.iter_mut().enumerate() {
                    let versions = odb.cvd("T").unwrap().num_versions();
                    let parent = Vid((parent % versions) as u32);
                    odb.checkout("T", &[parent], &table).unwrap();
                    let t = odb.staging_table_mut(&table).unwrap();
                    let mut outcome: Vec<String> = writes
                        .iter()
                        .map(|w| format!("{:?}", apply_write(t, w, serial as i64)))
                        .collect();
                    let committed = if twin == 0 {
                        odb.commit(&table, "by rid")
                    } else {
                        odb.commit_all_changed(&table, "by rid")
                    };
                    outcome.push(format!("{:?}", committed.map_err(|e| e.to_string())));
                    outcomes.push(outcome);
                }
                prop_assert_eq!(&outcomes[0], &outcomes[1], "commit {}", serial);
            }
            let live: Vec<_> = twins
                .iter()
                .map(|odb| (visible(odb), corpus_answers(odb)))
                .collect();
            prop_assert_eq!(&live[0], &live[1]);
            for odb in &twins {
                odb.checkpoint().unwrap();
            }
            drop(twins);
            for dir in &dirs {
                let reopened = open(dir, 2048);
                prop_assert_eq!(&(visible(&reopened), corpus_answers(&reopened)), &live[0]);
                drop(reopened);
                std::fs::remove_dir_all(dir).unwrap();
            }
        }
    }

    #[test]
    fn query_corpus_answers_survive_a_reopen() {
        let dir = scratch("corpus");
        let mut odb = open(&dir, 2048);
        odb.set_auto_checkpoint(false);
        load_corpus(&mut odb);
        odb.checkpoint().unwrap();
        let before = corpus_answers(&odb);
        drop(odb);
        let odb = open(&dir, 2048);
        assert_eq!(corpus_answers(&odb), before);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A store written when the data table carried a `rid_pk` index opens
    /// and answers the corpus as one that never had it: the index is
    /// rebuilt at open and maintained, but no read goes through it.
    #[test]
    fn a_store_with_the_old_rid_pk_index_opens_and_answers_alike() {
        let dirs = [scratch("no-rid-pk"), scratch("rid-pk")];
        for (with_index, dir) in dirs.iter().enumerate() {
            let mut odb = open(dir, 2048);
            odb.set_auto_checkpoint(false);
            load_corpus(&mut odb);
            if with_index == 1 {
                for cvd in odb.list_cvds() {
                    let data = odb.database().table_mut(&data_name(&cvd)).unwrap();
                    data.create_index("rid_pk", "rid", true, IndexKind::BTree)
                        .unwrap();
                }
            }
            odb.close().unwrap();
        }
        let [mut plain, mut legacy] = dirs.clone().map(|dir| open(&dir, 2048));
        assert!(legacy
            .database()
            .table("T__sbr_data")
            .unwrap()
            .has_index("rid_pk"));
        assert!(!plain
            .database()
            .table("T__sbr_data")
            .unwrap()
            .has_index("rid_pk"));
        assert_eq!(corpus_answers(&legacy), corpus_answers(&plain));
        // It goes on committing, the leftover index kept in step.
        for odb in [&mut plain, &mut legacy] {
            apply_corpus_edit(odb);
        }
        assert_eq!(visible(&legacy), visible(&plain));
        assert_eq!(corpus_answers(&legacy), corpus_answers(&plain));
        drop((plain, legacy));
        for dir in &dirs {
            std::fs::remove_dir_all(dir).unwrap();
        }
    }

    /// Every tuple of `cvd`'s data table as stored, by row id.
    fn stored_tuples(odb: &mut OrpheusDb, cvd: &str) -> Vec<Arc<[u8]>> {
        let data = odb.database().table(&data_name(cvd)).unwrap();
        let pages = 0..data.num_heap_pages();
        let mut tuples: Vec<Arc<[u8]>> = pages
            .flat_map(|page| data.read_page_tuples(page).unwrap())
            .collect();
        tuples.sort_by_key(|tuple| RowId::from_le_bytes(tuple[..8].try_into().unwrap()));
        tuples
    }

    /// Whether each CVD's records are its data table's tuples, byte for
    /// byte, each at the row id of its rid.
    fn records_are_the_data_table(odb: &mut OrpheusDb) -> bool {
        odb.list_cvds().iter().all(|name| {
            let stored = stored_tuples(odb, name);
            let cvd = odb.cvd(name).unwrap();
            let held = (0..cvd.num_records() as u64).map(|r| cvd.tuple(Rid(r)));
            held.eq(stored.iter().map(|tuple| &tuple[..]))
        })
    }

    /// The RAM copy is the data table: after keyed commits, an unkeyed
    /// one, a merge and a schema-evolving commit (a new column, and `x`
    /// widened from Int64 to Float64), and again after a reopen, every
    /// record is the stored tuple at its row id.
    #[test]
    fn the_records_in_ram_are_the_data_table_byte_for_byte() {
        let dir = scratch("ram-is-data");
        let mut odb = open(&dir, 1024);
        odb.create_user("alice").unwrap();
        odb.login("alice").unwrap();
        odb.init_cvd("h", base_schema(), vec!["k".into()], base_rows(12))
            .unwrap();
        odb.init_cvd("u", base_schema(), vec![], base_rows(4))
            .unwrap();
        let v1 = apply_edit(&mut odb, "h");
        odb.checkout("h", &[Vid(0)], "w").unwrap();
        let t = odb.staging_table_mut("w").unwrap();
        let (id, mut row) = t.rows().unwrap().remove(3);
        row[2] = Value::Null;
        t.update(id, row).unwrap();
        let v2 = odb.commit("w", "a NULL note").unwrap().vid;
        odb.execute("checkout u -v 0 -t w").unwrap();
        odb.execute("insert w 0,0,seed").unwrap();
        odb.execute("commit -t w -m repeated").unwrap();
        odb.checkout("h", &[v2, v1], "m").unwrap();
        odb.commit("m", "merge").unwrap();
        assert!(records_are_the_data_table(&mut odb));
        odb.execute("checkout h -v 3 -t w").unwrap();
        odb.execute("commit -t w -s k:int,x:float,note:text,extra:int -m evolve")
            .unwrap();
        odb.execute("checkout h -v 4 -t w").unwrap();
        odb.execute("insert w 77,1.5,,7").unwrap();
        odb.execute("commit -t w -m after").unwrap();
        let x = odb.cvd("h").unwrap().schema().column(1).unwrap().dtype;
        assert_eq!(
            (x, odb.cvd("h").unwrap().schema().len()),
            (DataType::Float64, 4)
        );
        assert!(records_are_the_data_table(&mut odb));
        odb.close().unwrap();
        let mut reopened = open(&dir, 1024);
        assert!(records_are_the_data_table(&mut reopened));
        drop(reopened);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Check the corpus CVD `S`'s latest version out, add a row, commit.
    fn apply_corpus_edit(odb: &mut OrpheusDb) {
        let latest = odb.cvd("S").unwrap().latest_version();
        odb.checkout("S", &[latest], "w").unwrap();
        odb.execute("insert w 99999,after").unwrap();
        odb.commit("w", "after").unwrap();
    }

    /// A data table that no longer numbers the CVD's records by rid — a
    /// row missing at its end or in its middle — is refused at open with a
    /// typed error that names the CVD, never read as a shorter CVD.
    #[test]
    fn a_data_table_short_of_the_catalog_is_refused_at_open() {
        for missing in ["last", "middle"] {
            let dir = scratch("short-data");
            let mut odb = open(&dir, 256);
            odb.create_user("alice").unwrap();
            odb.login("alice").unwrap();
            odb.init_cvd("hostile", base_schema(), vec!["k".into()], base_rows(6))
                .unwrap();
            apply_edit(&mut odb, "hostile");
            let data = odb.database().table_mut("hostile__sbr_data").unwrap();
            let records = data.heap_size() as RowId;
            data.delete(if missing == "last" { records - 1 } else { 2 })
                .unwrap();
            odb.close().unwrap();
            match OrpheusDb::open_durable(&dir, 256) {
                Err(Error::Internal(m)) => {
                    assert!(m.contains("hostile"), "{missing}: {m}")
                }
                other => panic!("{missing}: {:?}", other.map(|_| ())),
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// `optimize` is a plan: after it, a durable instance's table names,
    /// checkpointed page file, next commit and corpus answers are those of
    /// a twin that never ran it. (At the parent it built `__part*` tables
    /// and maintained them on every later commit.)
    #[test]
    fn optimize_leaves_the_store_as_it_found_it() {
        let run = |tag: &str, optimize: bool| {
            let dir = scratch(tag);
            let mut odb = open(&dir, 2048);
            odb.set_auto_checkpoint(false);
            load_corpus(&mut odb);
            if optimize {
                for cvd in ["T", "E", "S"] {
                    odb.execute(&format!("optimize {cvd} -g 2.0")).unwrap();
                }
            }
            odb.checkout("S", &[Vid(40)], "w").unwrap();
            odb.execute("insert w 99999,after").unwrap();
            odb.commit("w", "after optimize").unwrap();
            odb.checkpoint().unwrap();
            let mut names: Vec<String> = odb
                .database()
                .table_names()
                .into_iter()
                .map(str::to_owned)
                .collect();
            names.sort();
            let seen = (names, pages_len(&dir), odb.log("S").unwrap());
            let answers = corpus_answers(&odb);
            drop(odb);
            std::fs::remove_dir_all(&dir).unwrap();
            (seen, answers)
        };
        assert_eq!(run("optimized", true), run("untouched", false));
    }

    /// Was `corrupt_snapshots_fail_with_typed_errors`: flip every third
    /// bit (each open costs a log fsync) of one stored tuple of each
    /// catalog table in the page file. Opening answers with an instance
    /// or a typed error — it never panics — and most flips are caught.
    #[test]
    fn bit_flipped_catalog_tuples_are_typed_errors() {
        let dir = scratch("flips");
        let mut odb = open(&dir, 256);
        odb.create_user("alice").unwrap();
        odb.login("alice").unwrap();
        odb.init_cvd("d", base_schema(), vec!["k".into()], base_rows(6))
            .unwrap();
        apply_edit(&mut odb, "d");
        let mut targets = Vec::new();
        for table in [SYS, "d__meta", "d__attr", "d__sbr_vtab", "d__sbr_data"] {
            let (id, row) = odb
                .database()
                .table(table)
                .unwrap()
                .rows()
                .unwrap()
                .pop()
                .unwrap();
            targets.push(relstore::codec::encode_row(id, &row));
        }
        // Closed, not dropped: a durability point leaves pages in the log,
        // and the flips are made in the page file.
        odb.close().unwrap();
        let file = std::fs::read(dir.join("pages.db")).unwrap();
        let damaged = scratch("flips-damaged");
        copy_dir(&dir, &damaged);
        let (mut caught, mut flips) = (0, 0);
        for tuple in &targets {
            let at = file
                .windows(tuple.len())
                .position(|w| w == tuple.as_slice())
                .expect("the stored tuple is in the page file");
            for bit in (0..tuple.len() * 8).step_by(3) {
                let mut bytes = file.clone();
                bytes[at + bit / 8] ^= 1 << (bit % 8);
                std::fs::write(damaged.join("pages.db"), &bytes).unwrap();
                flips += 1;
                match OrpheusDb::open_durable(&damaged, 16) {
                    Ok((odb, _)) => drop(visible(&odb)),
                    Err(Error::Internal(_) | Error::Storage(_)) => caught += 1,
                    Err(other) => panic!("untyped failure: {other:?}"),
                }
            }
        }
        assert!(caught * 4 > flips, "{caught} of {flips} flips caught");
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&damaged).unwrap();
    }

    /// Check the latest version of `cvd` out, add two rows, commit.
    fn apply_edit(odb: &mut OrpheusDb, cvd: &str) -> Vid {
        let latest = odb.cvd(cvd).unwrap().latest_version();
        let serial = latest.0 as i64 + 1;
        odb.checkout(cvd, &[latest], "w").unwrap();
        let t = odb.staging_table_mut("w").unwrap();
        for i in 0..2 {
            let key = 10_000 + serial * 10 + i;
            t.insert(vec![Value::Int64(key), Value::Int64(i), Value::from("new")])
                .unwrap();
        }
        odb.commit("w", "edit").unwrap().vid
    }

    /// A record of CVD `big`: some 420 bytes, so 19 fill a page.
    fn wide(k: i64) -> Row {
        vec![
            Value::Int64(k),
            Value::Int64(k % 97),
            Value::Text(format!("{k}-{}", "p".repeat(400))),
        ]
    }

    /// CVD `big`: 40 records, then 40 versions forked from them that add
    /// 160 each; 300 and more data pages, made durable.
    fn fill_big(odb: &mut OrpheusDb) {
        odb.set_auto_checkpoint(false);
        odb.init_cvd(
            "big",
            base_schema(),
            vec!["k".into()],
            (0..40).map(wide).collect(),
        )
        .unwrap();
        for child in 1..=40i64 {
            odb.checkout("big", &[Vid(0)], "w").unwrap();
            let t = odb.staging_table_mut("w").unwrap();
            for k in child * 1_000..child * 1_000 + 160 {
                t.insert(wide(k)).unwrap();
            }
            odb.commit("w", "fork").unwrap();
        }
        odb.checkpoint().unwrap();
        let pages = odb
            .database()
            .table("big__sbr_data")
            .unwrap()
            .num_heap_pages();
        assert!(pages >= 300, "data table has {pages} pages");
    }

    /// The roadmap's reopen leg: at the parent this failed with "all 64
    /// buffer frames are pinned", because opening re-inserted every record
    /// into dirty pages a WAL-attached pool may not evict.
    #[test]
    fn a_cvd_larger_than_the_pool_reopens_and_answers() {
        let dir = scratch("small-pool");
        {
            let mut odb = open(&dir, 4096);
            odb.create_user("alice").unwrap();
            odb.login("alice").unwrap();
            fill_big(&mut odb);
        }
        let mut odb = open(&dir, 64);
        let select = odb
            .run("SELECT * FROM VERSION 17 OF CVD big WHERE x > 90")
            .unwrap();
        let expected: Vec<Row> = (0..40)
            .chain(17_000..17_160)
            .filter(|k| k % 97 > 90)
            .map(wide)
            .collect();
        // Every answer row is its record id, then the record.
        let answered: Vec<&[Value]> = select.rows.iter().map(|r| &r[1..]).collect();
        assert_eq!(answered.len(), expected.len());
        assert!(expected
            .iter()
            .all(|row| answered.contains(&row.as_slice())));
        odb.checkout("big", &[Vid(40)], "w").unwrap();
        assert_eq!(odb.staging_table("w").unwrap().live_row_count(), 200);
        let t = odb.staging_table_mut("w").unwrap();
        t.insert(wide(99_999)).unwrap();
        assert_eq!(odb.commit("w", "after").unwrap().vid, Vid(41));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Opening reads the store as a bulk read: reopened under a pool that
    /// would hold all of it, a store with a CVD of 300 and more pages
    /// keeps at most a ring of page images, and answers as the instance
    /// that was closed — also after a commit and another reopen.
    #[test]
    fn an_opened_store_keeps_a_ring_of_its_pages() {
        let dir = scratch("open-ring");
        let mut odb = open(&dir, 8192);
        odb.set_auto_checkpoint(false);
        load_corpus(&mut odb);
        fill_big(&mut odb);
        let before = corpus_answers(&odb);
        odb.close().unwrap();
        let mut odb = open(&dir, 8192);
        let images = odb.database().pool().images();
        assert!(
            images <= pagestore::RING_PAGES,
            "{images} page images after open"
        );
        assert!(records_are_the_data_table(&mut odb));
        assert_eq!(corpus_answers(&odb), before);
        apply_corpus_edit(&mut odb);
        let after = corpus_answers(&odb);
        assert_ne!(after, before);
        drop(odb);
        let mut odb = open(&dir, 8192);
        assert!(records_are_the_data_table(&mut odb));
        assert_eq!(corpus_answers(&odb), after);
        drop(odb);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Regression: a dropped staging table's pages stayed allocated and
    /// dirty — every cycle grew the page file by a staging table and
    /// logged it once more.
    #[test]
    fn write_cycles_reuse_their_staging_pages() {
        let dir = scratch("cycles");
        let mut odb = open(&dir, 2048);
        // A staging table of 600-byte rows is some 75 pages, and a
        // commit's own growth, its rlist, about one: 200 commits grow the
        // file by a few staging tables' worth, so a leaked staging table
        // per cycle stands out.
        odb.create_user("alice").unwrap();
        odb.login("alice").unwrap();
        let rows = (0..1_000)
            .map(|k| {
                vec![
                    Value::Int64(k),
                    Value::Null,
                    Value::Text(format!("{k:0600}")),
                ]
            })
            .collect();
        odb.init_cvd("c", base_schema(), vec!["k".into()], rows)
            .unwrap();
        let staging_pages = {
            odb.checkout("c", &[Vid(0)], "probe").unwrap();
            let pages = odb.staging_table("probe").unwrap().num_heap_pages();
            odb.commit("probe", "probe").unwrap();
            pages as u32
        };
        assert!(staging_pages >= 60, "{staging_pages}");
        let cycle = |odb: &mut OrpheusDb, table: &str, serial: i64| {
            odb.checkout("c", &[Vid(0)], table).unwrap();
            let t = odb.staging_table_mut(table).unwrap();
            for i in 0..10 {
                t.insert(vec![
                    Value::Int64(100_000 + serial * 10 + i),
                    Value::Null,
                    Value::Null,
                ])
                .unwrap();
            }
        };
        cycle(&mut odb, "w", 0);
        odb.commit("w", "first").unwrap();
        let after_first = odb.database().pool().num_pages();
        for serial in 1..200 {
            cycle(&mut odb, "w", serial);
            odb.commit("w", "again").unwrap();
        }
        let grown = odb.database().pool().num_pages() - after_first;
        assert!(grown < 12 * staging_pages, "{grown} pages in 199 cycles");

        // A server batch: two sessions' cycles, one checkpoint.
        odb.set_auto_checkpoint(false);
        cycle(&mut odb, "a", 200);
        cycle(&mut odb, "b", 201);
        let before = odb.database().io_stats();
        odb.commit("a", "batch").unwrap();
        odb.commit("b", "batch").unwrap();
        odb.checkpoint().unwrap();
        let logged = odb.database().io_stats().since(&before).wal_appends;
        assert!(
            logged < 2 * 12,
            "{logged} records logged by a 2-commit batch"
        );

        // The live free list is exactly what reachability finds at open.
        let pool = odb.database().pool();
        let (pages, free) = (pool.num_pages(), pool.free_pages());
        drop(odb);
        let mut odb = open(&dir, 2048);
        let pool = odb.database().pool();
        assert_eq!((pool.num_pages(), pool.free_pages()), (pages, free));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A store whose pager and log fail on the schedule of `plan`.
    fn open_faulty(dir: &Path, plan: &FaultPlan) -> OrpheusDb {
        open_faulty_with(dir, plan, 256)
    }

    /// [`open_faulty`] over a pool of `frames` frames.
    fn open_faulty_with(dir: &Path, plan: &FaultPlan, frames: usize) -> OrpheusDb {
        std::fs::create_dir_all(dir).unwrap();
        let pager = FilePager::open_recoverable(dir.join("pages.db")).unwrap();
        let log = FileWalStore::open(dir.join("wal.log")).unwrap();
        let pool = BufferPool::with_wal(
            Box::new(FaultPager::new(Box::new(pager), plan.clone())),
            Wal::new(Box::new(FaultWal::new(Box::new(log), plan.clone()))),
            frames,
        );
        OrpheusDb::open_pool(pool).unwrap()
    }

    /// Durable history every fault must leave alone: `d` at v0 and v1.
    fn committed_prefix(odb: &mut OrpheusDb) {
        odb.create_user("alice").unwrap();
        odb.login("alice").unwrap();
        odb.init_cvd("d", base_schema(), vec!["k".into()], base_rows(300))
            .unwrap();
        apply_edit(odb, "d");
    }

    /// Was `write_and_read_are_atomic_per_directory`: a fault at every
    /// I/O of a commit (its checkout and inserts included). After the
    /// crash the commit is there whole — log entry, rlist, records — or
    /// not at all, and what was committed before is untouched.
    #[test]
    fn a_commit_is_atomic_under_a_fault_at_every_io() {
        let probe = scratch("commit-probe");
        let plan = FaultPlan::unarmed();
        let mut odb = open_faulty(&probe, &plan);
        committed_prefix(&mut odb);
        let before = visible(&odb);
        let start = plan.ops();
        apply_edit(&mut odb, "d");
        let ops = plan.ops() - start;
        let after = visible(&odb);
        drop(odb);
        // One log write carrying its page images and commit record, and
        // the one log fsync: nothing reaches the page file.
        assert_eq!(ops, 2, "a commit is one write and one fsync");
        let (mut kept, mut lost) = (0, 0);
        for kind in [FaultKind::CrashStop, FaultKind::ShortWrite] {
            for nth in 1..=ops {
                let dir = scratch("commit-fault");
                let plan = FaultPlan::unarmed();
                let mut odb = open_faulty(&dir, &plan);
                committed_prefix(&mut odb);
                plan.arm(nth, kind);
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    apply_edit(&mut odb, "d")
                }));
                assert!(plan.fired(), "{kind:?} {nth}: never reached");
                drop(odb);
                let seen = visible(&open(&dir, 256));
                if seen == after {
                    kept += 1;
                } else {
                    assert_eq!(seen, before, "{kind:?} at I/O {nth}: half a commit");
                    assert!(
                        outcome.is_err(),
                        "{kind:?} at I/O {nth}: acknowledged, then lost"
                    );
                    lost += 1;
                }
                std::fs::remove_dir_all(&dir).unwrap();
            }
        }
        assert!(kept > 0 && lost > 0, "{kept} kept, {lost} lost");
        std::fs::remove_dir_all(&probe).unwrap();
    }

    /// A transient error at either I/O of a commit on the shell's path —
    /// the commit's own durability point — fails the commit and poisons
    /// the instance: a command, a pin, a checkpoint and the close each get
    /// the typed error naming the failure, and the store reopens as it was
    /// before the commit. (The next checkpoint used to make the refused
    /// commit durable.)
    #[test]
    fn a_failed_durability_point_poisons_the_instance() {
        for nth in 1..=2 {
            let dir = scratch("poison");
            let plan = FaultPlan::unarmed();
            let mut odb = open_faulty(&dir, &plan);
            committed_prefix(&mut odb);
            let before = visible(&odb);
            odb.execute("checkout d -v 1 -t w").unwrap();
            odb.execute("insert w 9000,1,late").unwrap();
            plan.arm(nth, FaultKind::Error);
            assert!(odb.execute("commit -t w -m refused").is_err(), "I/O {nth}");
            assert!(plan.fired(), "I/O {nth}: never reached");
            let poisoned = |e: Error| matches!(e, Error::Poisoned(m) if m.contains("injected"));
            let run = "run SELECT * FROM VERSION 0 OF CVD d";
            assert!(odb.execute(run).is_err_and(poisoned), "I/O {nth}");
            assert!(odb.execute("log d").is_err_and(poisoned), "I/O {nth}");
            assert!(odb.snapshot("d").is_err_and(poisoned), "I/O {nth}");
            assert!(odb.checkpoint().is_err_and(poisoned), "I/O {nth}");
            assert!(odb.close().is_err_and(poisoned), "I/O {nth}");
            assert_eq!(visible(&open(&dir, 256)), before, "I/O {nth}");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// Regression: a checkout that failed part-way left its scratch table
    /// behind, the name taken and no checkout holding it. A version larger
    /// than the pool makes the copy at its first read spill; a crash-stop
    /// at any I/O up to and including the first spill write fails the
    /// copy, which takes the checkout, its table and every one of its
    /// pages along.
    #[test]
    fn a_checkout_that_fails_part_way_leaves_nothing_behind() {
        let src = scratch("spill-src");
        {
            let mut odb = open(&src, 4096);
            odb.create_user("alice").unwrap();
            odb.login("alice").unwrap();
            let wide = |k: i64| {
                vec![
                    Value::Int64(k),
                    Value::Int64(k),
                    Value::Text("p".repeat(400)),
                ]
            };
            let rows = (0..1_200).map(wide).collect();
            odb.init_cvd("big", base_schema(), vec!["k".into()], rows)
                .unwrap();
            // Written back: the faulty open below replays no log.
            odb.close().unwrap();
        }
        let dir = scratch("spill");
        for nth in 1.. {
            copy_dir(&src, &dir);
            let plan = FaultPlan::unarmed();
            let mut odb = open_faulty_with(&dir, &plan, 32);
            odb.login("alice").unwrap();
            // A checkout copies nothing until its first read.
            odb.checkout("big", &[Vid(0)], "w").unwrap();
            plan.arm(nth, FaultKind::CrashStop);
            let err = odb.staging_table_mut("w").unwrap_err();
            assert!(plan.fired(), "I/O {nth}: the copy failed before it");
            assert!(!odb.database().has_table("w"), "I/O {nth}: {err}");
            assert_eq!(odb.database().pool().unlogged_pages(), 0, "I/O {nth}");
            assert!(matches!(
                odb.staging_table("w"),
                Err(Error::NotCheckedOut(_))
            ));
            if err.to_string().contains("pager write") {
                break;
            }
            assert!(nth < 200, "no spill write in {nth} I/Os: {err}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&src).unwrap();
    }
}
