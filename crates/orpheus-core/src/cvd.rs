//! The collaborative versioned dataset (CVD): record manager, version
//! manager, and schema evolution (Chapters 3–4).
//!
//! A CVD corresponds to one relation and implicitly contains many versions
//! of it. Records are immutable: any modification yields a new record with
//! a fresh `rid`. Versions form a DAG (the version graph); each version is
//! a set of `rid`s plus metadata (Fig. 4.2). The `Cvd` struct here is the
//! *logical* source of truth: the engine appends each version it makes to
//! the CVD's tables ([`crate::metadata`]), and reopening rebuilds it from
//! them.

use crate::error::{Error, Result};
use partition::{Bipartite, Rid, VersionGraph, VersionTree, Vid};
use relstore::codec::encode_values;
use relstore::{DataType, Row, Schema, Value};
use std::collections::{HashMap, HashSet};

/// Identifier of an entry in the attribute table (§4.3).
pub type AttrId = u32;

/// One row of the attribute table: a (name, type) pair. Any property change
/// of an attribute creates a new entry (Fig. 4.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    pub id: AttrId,
    pub name: String,
    pub dtype: DataType,
}

/// One row of the metadata table (Fig. 4.2a).
#[derive(Debug, Clone, PartialEq)]
pub struct VersionMeta {
    pub vid: Vid,
    pub parents: Vec<Vid>,
    /// Logical checkout timestamp (when the parent was materialized).
    pub checkout_t: u64,
    /// Logical commit timestamp.
    pub commit_t: u64,
    pub message: String,
    pub author: String,
    /// Attribute-table ids present in this version.
    pub attributes: Vec<AttrId>,
}

/// Result of a commit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitResult {
    pub vid: Vid,
    /// Records added to the CVD by this commit (new or modified rows).
    pub new_records: usize,
    /// Records reused from the parent version(s).
    pub reused_records: usize,
}

/// What a commit compares with its parent versions. The committed table
/// is `kept` plus `rows`: each row that equals a `candidates` record reuses
/// its rid, every other row becomes a new record (§3.3.1).
#[derive(Debug)]
pub(crate) struct Changes {
    /// Parent records the table holds untouched: reused, never compared.
    pub(crate) kept: Vec<Rid>,
    /// Parent records a row may reuse, later ones winning on equal
    /// content; `None` for every record of every parent.
    pub(crate) candidates: Option<Vec<Rid>>,
    /// The rows compared, in the order new records are numbered.
    pub(crate) rows: Vec<Row>,
}

impl Changes {
    /// The all-changed form: no row is known to be untouched.
    pub(crate) fn all(rows: Vec<Row>) -> Changes {
        Changes {
            kept: Vec::new(),
            candidates: None,
            rows,
        }
    }
}

/// Canonical byte encoding of a row, used to detect identical records
/// during commit (the no-cross-version-diff rule compares the committed
/// table against its parent versions only, §3.3.1).
fn encode_row(row: &[Value]) -> Vec<u8> {
    let mut out = Vec::with_capacity(row.len() * 9);
    encode_values(row, &mut out);
    out
}

/// The encoding of `row`'s primary-key columns `cols`, written over `out`.
fn encode_key<'o>(row: &[Value], cols: &[usize], out: &'o mut Vec<u8>) -> &'o [u8] {
    out.clear();
    encode_values(
        cols.iter().map(|&c| row.get(c).unwrap_or(&Value::Null)),
        out,
    );
    out
}

/// A collaborative versioned dataset.
#[derive(Debug, Clone)]
pub struct Cvd {
    name: String,
    /// The union ("single-pool", §4.3) schema over all versions.
    schema: Schema,
    /// Primary-key column names (stable across schema evolution).
    pk_names: Vec<String>,
    /// Record payloads by rid, padded to the current union schema width.
    records: Vec<Row>,
    version_records: Vec<Vec<Rid>>,
    graph: VersionGraph,
    metas: Vec<VersionMeta>,
    attributes: Vec<Attribute>,
    clock: u64,
}

impl Cvd {
    /// Initialize a CVD from an initial table of records (the `init`
    /// command): version `v0`, committed with no parents.
    pub fn init(
        name: impl Into<String>,
        schema: Schema,
        pk_names: Vec<String>,
        rows: Vec<Row>,
        author: &str,
    ) -> Result<(Cvd, Vid)> {
        for pk in &pk_names {
            schema.index_of(pk)?;
        }
        let attributes: Vec<Attribute> = schema
            .columns()
            .iter()
            .enumerate()
            .map(|(i, c)| Attribute {
                id: i as AttrId,
                name: c.name.clone(),
                dtype: c.dtype,
            })
            .collect();
        let mut cvd = Cvd {
            name: name.into(),
            schema: schema.clone(),
            pk_names,
            records: Vec::new(),
            version_records: Vec::new(),
            graph: VersionGraph::new(),
            metas: Vec::new(),
            attributes,
            clock: 0,
        };
        let changes = Changes::all(rows);
        let vid = (cvd.commit_changes(&[], &schema, changes, "init", author)?).vid;
        Ok((cvd, vid))
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    fn push_record(&mut self, row: Row) -> Rid {
        let rid = Rid(self.records.len() as u64);
        self.records.push(row);
        rid
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// The union schema across all versions (without the `rid` column).
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn pk_names(&self) -> &[String] {
        &self.pk_names
    }

    pub fn pk_cols(&self) -> Result<Vec<usize>> {
        self.pk_names
            .iter()
            .map(|n| self.schema.index_of(n).map_err(Error::Storage))
            .collect()
    }

    pub fn num_versions(&self) -> usize {
        self.graph.num_versions()
    }

    pub fn num_records(&self) -> usize {
        self.records.len()
    }

    pub fn latest_version(&self) -> Vid {
        Vid(self.graph.num_versions() as u32 - 1)
    }

    pub fn graph(&self) -> &VersionGraph {
        &self.graph
    }

    pub fn meta(&self, v: Vid) -> Result<&VersionMeta> {
        self.metas.get(v.idx()).ok_or(Error::VersionNotFound(v.0))
    }

    pub fn metas(&self) -> &[VersionMeta] {
        &self.metas
    }

    pub fn attributes(&self) -> &[Attribute] {
        &self.attributes
    }

    pub fn record(&self, r: Rid) -> &Row {
        &self.records[r.idx()]
    }

    pub fn version_records(&self, v: Vid) -> Result<&[Rid]> {
        self.version_records
            .get(v.idx())
            .map(|r| r.as_slice())
            .ok_or(Error::VersionNotFound(v.0))
    }

    /// All per-version rid lists in vid order, each ascending — what query
    /// plans resolve rid sets from.
    pub(crate) fn version_records_raw(&self) -> &[Vec<Rid>] {
        &self.version_records
    }

    /// The CVD's logical clock (the last commit timestamp handed out).
    pub(crate) fn clock(&self) -> u64 {
        self.clock
    }

    /// Rebuild a CVD from what its tables hold ([`crate::metadata`]). The
    /// version graph is derived state: it is regrown here exactly as
    /// `init`/`commit` grew it, version by version in vid order, with
    /// parent-edge weights recomputed from the rid intersections.
    // lint: the eight parts are the CVD's tables and system row 1:1; a
    // builder would hide which of them a CVD is made of.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        name: String,
        schema: Schema,
        pk_names: Vec<String>,
        records: Vec<Row>,
        version_records: Vec<Vec<Rid>>,
        metas: Vec<VersionMeta>,
        attributes: Vec<Attribute>,
        clock: u64,
    ) -> Result<Cvd> {
        if metas.len() != version_records.len() {
            return Err(Error::Internal(format!(
                "catalog tables of {name}: {} version metas for {} rid lists",
                metas.len(),
                version_records.len()
            )));
        }
        let mut graph = VersionGraph::new();
        for (idx, meta) in metas.iter().enumerate() {
            let rids = &version_records[idx];
            if meta.vid.idx() != idx {
                return Err(Error::Internal(format!(
                    "catalog tables of {name}: meta #{idx} carries vid {}",
                    meta.vid
                )));
            }
            // What every reader indexes by without looking: ascending rids
            // of records that exist, attribute ids of attributes that do.
            let ascending = rids.windows(2).all(|w| w[0] < w[1]);
            let rids_exist = rids.last().is_none_or(|r| r.idx() < records.len());
            let attrs_exist = meta
                .attributes
                .iter()
                .all(|&a| (a as usize) < attributes.len());
            if !(ascending && rids_exist && attrs_exist) {
                return Err(Error::Internal(format!(
                    "catalog tables of {name}: version {} lists a record or attribute that does not exist",
                    meta.vid
                )));
            }
            let edges: Vec<(Vid, u64)> = meta
                .parents
                .iter()
                .map(|&p| {
                    version_records
                        .get(p.idx())
                        .filter(|_| p.idx() < idx)
                        .map(|prs| (p, partition::graph::intersect_count(prs, rids)))
                        .ok_or_else(|| {
                            Error::Internal(format!(
                                "catalog tables of {name}: version {} lists missing parent {p}",
                                meta.vid
                            ))
                        })
                })
                .collect::<Result<_>>()?;
            graph.add_version(rids.len() as u64, &edges);
        }
        Ok(Cvd {
            name,
            schema,
            pk_names,
            records,
            version_records,
            graph,
            metas,
            attributes,
            clock,
        })
    }

    fn check_version(&self, v: Vid) -> Result<()> {
        if v.idx() < self.num_versions() {
            Ok(())
        } else {
            Err(Error::VersionNotFound(v.0))
        }
    }

    /// Enforce the per-version primary-key constraint (§3.1) on a version
    /// made of the `kept` records and `rows`: no two rows share pk values,
    /// and no row has a kept record's. The kept records are one version's,
    /// so their keys are distinct already. Across versions duplicates are
    /// fine.
    fn check_pk(&self, kept: &[Rid], rows: &[Row]) -> Result<()> {
        if self.pk_names.is_empty() {
            return Ok(());
        }
        let cols: Vec<usize> = self
            .pk_names
            .iter()
            .filter_map(|n| self.schema.index_of(n).ok())
            .collect();
        let mut buf = Vec::new();
        let mut seen = HashSet::with_capacity(rows.len());
        let repeated = rows
            .iter()
            .any(|row| !seen.insert(encode_key(row, &cols, &mut buf).to_vec()));
        let taken = !seen.is_empty()
            && kept
                .iter()
                .any(|r| seen.contains(encode_key(&self.records[r.idx()], &cols, &mut buf)));
        if repeated || taken {
            return Err(Error::PrimaryKeyViolation(format!(
                "duplicate key in committed version of {}",
                self.name
            )));
        }
        Ok(())
    }

    /// Materialize the records of one or more versions, applying the
    /// precedence-based merge of §3.3.1: records are added in the order the
    /// versions are listed; a record whose primary key was already added is
    /// omitted. The rows are borrowed: a checkout copies each one once,
    /// into its staging table.
    pub fn checkout_rows(&self, versions: &[Vid]) -> Result<Vec<(Rid, &Row)>> {
        for &v in versions {
            self.check_version(v)?;
        }
        let pk_cols = self.pk_cols()?;
        let mut out: Vec<(Rid, &Row)> = Vec::new();
        let mut seen_pk = HashSet::new();
        let mut buf = Vec::new();
        for &v in versions {
            for &rid in &self.version_records[v.idx()] {
                let row = &self.records[rid.idx()];
                // One version's keys are distinct; only a merge repeats one.
                if versions.len() == 1
                    || pk_cols.is_empty()
                    || seen_pk.insert(encode_key(row, &pk_cols, &mut buf).to_vec())
                {
                    out.push((rid, row));
                }
            }
        }
        Ok(out)
    }

    /// Commit a modified table as a new version derived from `parents`.
    ///
    /// `rows` are full-width rows in the CVD's current union schema. Per
    /// the no-cross-version-diff rule, each row is compared against the
    /// parent versions only: identical rows reuse the parent's rid, all
    /// others get fresh rids (even if equal to some distant ancestor's
    /// record). This is the all-changed form: every row is compared.
    pub fn commit(
        &mut self,
        parents: &[Vid],
        rows: Vec<Row>,
        message: &str,
        author: &str,
    ) -> Result<CommitResult> {
        let schema = self.schema.clone();
        self.commit_changes(parents, &schema, Changes::all(rows), message, author)
    }

    /// Commit a table of `schema`, given as [`Changes`], as a new version
    /// derived from `parents` — every commit, `init`'s included, is made
    /// here. Only `changes.rows` are checked against the schema and
    /// compared with the parents, so the work grows with the rows touched.
    ///
    /// A `schema` that differs from the CVD's evolves it first: new
    /// attributes are appended to the single-pool schema (older records
    /// padded with NULL), type changes are widened (integer → decimal →
    /// string, §4.3), and attributes missing from `schema` are simply
    /// absent from the new version's attribute list. A commit that fails
    /// changes nothing.
    pub(crate) fn commit_changes(
        &mut self,
        parents: &[Vid],
        schema: &Schema,
        changes: Changes,
        message: &str,
        author: &str,
    ) -> Result<CommitResult> {
        if *schema == self.schema {
            self.check_commit(parents, schema, &changes)?;
            return Ok(self.apply_changes(parents, changes, message, author));
        }
        // The evolved star row — the rid, then every attribute — must fit
        // a tuple.
        let added = (schema.columns().iter()).filter(|c| !self.schema.contains(&c.name));
        relstore::codec::check_width(1 + self.schema.len() + added.count())?;
        // Evolve copies of the union schema and the attribute table, and
        // map each committed column to its union index and type: a commit
        // that fails changes nothing.
        let mut union = self.schema.clone();
        let mut attributes = self.attributes.clone();
        let mut mapping = Vec::with_capacity(schema.len());
        let mut widened = Vec::new();
        let mut version_attrs: Vec<AttrId> = Vec::with_capacity(schema.len());
        for col in schema.columns() {
            let target = match union.index_of(&col.name) {
                Ok(idx) => {
                    let existing = union
                        .column(idx)
                        .ok_or_else(|| Error::Internal(format!("schema column #{idx} missing")))?
                        .dtype;
                    let general = existing.generalize(col.dtype).ok_or_else(|| {
                        Error::SchemaEvolution(format!(
                            "attribute {}: cannot reconcile {} with {}",
                            col.name, existing, col.dtype
                        ))
                    })?;
                    if general != existing {
                        union
                            .widen_column(&col.name, general)
                            .map_err(Error::Storage)?;
                        widened.push((idx, general));
                    }
                    idx
                }
                // Brand-new attribute: old records will read NULL.
                Err(_) => union
                    .add_column(relstore::Column::nullable(col.name.clone(), col.dtype))
                    .map_err(Error::Storage)?,
            };
            // Attribute-table entry for (name, current dtype).
            let dtype = union
                .column(target)
                .ok_or_else(|| Error::Internal(format!("schema column #{target} missing")))?
                .dtype;
            let attr_id = match attributes
                .iter()
                .find(|a| a.name == col.name && a.dtype == dtype)
            {
                Some(a) => a.id,
                None => {
                    let id = attributes.len() as AttrId;
                    attributes.push(Attribute {
                        id,
                        name: col.name.clone(),
                        dtype,
                    });
                    id
                }
            };
            version_attrs.push(attr_id);
            mapping.push((target, dtype));
        }

        // Re-project rows into the union layout, widening values as needed.
        let projected: Vec<Row> = (changes.rows.into_iter())
            .map(|row| {
                let mut out = vec![Value::Null; union.len()];
                for (src, &(dst, dtype)) in mapping.iter().enumerate() {
                    out[dst] = row[src].widen(dtype).unwrap_or(Value::Null);
                }
                out
            })
            .collect();
        let changes = Changes {
            rows: projected,
            ..changes
        };
        self.check_commit(parents, &union, &changes)?;

        // Nothing can fail from here: widen and pad the stored records.
        for row in &mut self.records {
            for &(idx, dtype) in &widened {
                if let Some(w) = row[idx].widen(dtype) {
                    row[idx] = w;
                }
            }
            row.resize(union.len(), Value::Null);
        }
        (self.schema, self.attributes) = (union, attributes);
        let result = self.apply_changes(parents, changes, message, author);
        // The version's attribute list is the committed schema's.
        self.metas[result.vid.idx()].attributes = version_attrs;
        Ok(result)
    }

    /// Everything that can fail a commit, checked before anything changes:
    /// the parents exist, keys are unique, every row fits `schema`.
    fn check_commit(&self, parents: &[Vid], schema: &Schema, changes: &Changes) -> Result<()> {
        for &p in parents {
            self.check_version(p)?;
        }
        self.check_pk(&changes.kept, &changes.rows)?;
        for row in &changes.rows {
            schema.check_row(row)?;
        }
        Ok(())
    }

    /// The new version of a [`check_commit`](Self::check_commit)ed commit.
    fn apply_changes(
        &mut self,
        parents: &[Vid],
        changes: Changes,
        message: &str,
        author: &str,
    ) -> CommitResult {
        // Parent lookup: encoded row -> rid.
        let lists: Vec<&[Rid]> = match &changes.candidates {
            Some(rids) => vec![rids],
            None => parents
                .iter()
                .map(|p| &self.version_records[p.idx()][..])
                .collect(),
        };
        let mut parent_index: HashMap<Vec<u8>, Rid> = HashMap::new();
        for &rid in lists.into_iter().flatten() {
            parent_index.insert(encode_row(&self.records[rid.idx()]), rid);
        }
        // The version keeps this list: no spare capacity.
        let mut rids = changes.kept;
        rids.reserve_exact(changes.rows.len());
        let mut new_records = 0usize;
        for row in changes.rows {
            // With nothing to reuse (`init`, an insert-only commit by rid)
            // no row is encoded.
            let known = (!parent_index.is_empty()).then(|| parent_index.get(&encode_row(&row)));
            match known.flatten() {
                Some(&rid) => rids.push(rid),
                None => {
                    rids.push(self.push_record(row));
                    new_records += 1;
                }
            }
        }
        let reused = rids.len() - new_records;
        rids.sort_unstable();
        rids.dedup();

        let edges: Vec<(Vid, u64)> = parents
            .iter()
            .map(|&p| {
                let w = partition::graph::intersect_count(&self.version_records[p.idx()], &rids);
                (p, w)
            })
            .collect();
        let vid = self.graph.add_version(rids.len() as u64, &edges);
        self.version_records.push(rids);
        let t = self.tick();
        let attrs = self.attributes.iter().map(|a| a.id).collect();
        // A root (`init`'s v0) was never checked out.
        let checkout_t = if parents.is_empty() { t } else { t - 1 };
        self.metas.push(VersionMeta {
            vid,
            parents: parents.to_vec(),
            checkout_t,
            commit_t: t,
            message: message.into(),
            author: author.into(),
            attributes: attrs,
        });
        CommitResult {
            vid,
            new_records,
            reused_records: reused,
        }
    }

    /// The bipartite version–record graph of this CVD.
    pub fn bipartite(&self) -> Bipartite {
        let mut b = Bipartite::new(self.records.len() as u64);
        for records in &self.version_records {
            b.push_version(records.clone());
        }
        b
    }

    /// The version tree (with the DAG→tree transform of §5.3.1 if needed).
    pub fn tree(&self) -> VersionTree {
        let b = self.bipartite();
        self.graph.to_tree(Some(&b))
    }
}

/// The elements of `a` that `b` lacks; both ascending.
pub(crate) fn only_in(a: &[Rid], b: &[Rid]) -> Vec<Rid> {
    a.iter()
        .copied()
        .filter(|r| b.binary_search(r).is_err())
        .collect()
}

/// The elements every list holds (none for no lists); all ascending.
pub(crate) fn common<'a>(lists: impl IntoIterator<Item = &'a [Rid]>) -> Vec<Rid> {
    let mut lists = lists.into_iter();
    let mut acc = lists.next().map(<[Rid]>::to_vec).unwrap_or_default();
    for list in lists {
        acc.retain(|r| list.binary_search(r).is_ok());
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::RidSet;
    use relstore::Column;

    fn protein_schema() -> Schema {
        Schema::new(vec![
            Column::new("protein1", DataType::Text),
            Column::new("protein2", DataType::Text),
            Column::new("neighborhood", DataType::Int64),
            Column::new("cooccurrence", DataType::Int64),
            Column::new("coexpression", DataType::Int64),
        ])
    }

    fn row(p1: &str, p2: &str, n: i64, co: i64, ce: i64) -> Row {
        vec![
            Value::from(p1),
            Value::from(p2),
            Value::Int64(n),
            Value::Int64(co),
            Value::Int64(ce),
        ]
    }

    fn init_cvd() -> (Cvd, Vid) {
        Cvd::init(
            "Interaction",
            protein_schema(),
            vec!["protein1".into(), "protein2".into()],
            vec![
                row("ENSP273047", "ENSP261890", 0, 53, 0),
                row("ENSP273047", "ENSP235932", 0, 87, 0),
                row("ENSP300413", "ENSP274242", 426, 0, 164),
            ],
            "alice",
        )
        .unwrap()
    }

    #[test]
    fn init_creates_v0() {
        let (cvd, v0) = init_cvd();
        assert_eq!(v0, Vid(0));
        assert_eq!(cvd.num_versions(), 1);
        assert_eq!(cvd.num_records(), 3);
        assert_eq!(cvd.version_records(v0).unwrap().len(), 3);
    }

    /// `init` commits v0 through the commit path: every row a record in
    /// row order (an unkeyed repeat too), every attribute listed, the
    /// schema's nullability kept, checked out when committed, and a
    /// repeated key refused with the commit's error.
    #[test]
    fn init_commits_v0_as_a_root() {
        let schema = Schema::new(vec![
            Column::new("k", DataType::Int64),
            Column::nullable("x", DataType::Text),
        ]);
        let rows = vec![
            vec![Value::Int64(2), Value::Null],
            vec![Value::Int64(1), Value::from("a")],
            vec![Value::Int64(2), Value::Null],
        ];
        let (cvd, v0) = Cvd::init("u", schema.clone(), vec![], rows.clone(), "a").unwrap();
        let rids: Vec<Rid> = (0..3).map(Rid).collect();
        assert_eq!(cvd.version_records(v0).unwrap(), rids);
        assert!(rids.iter().zip(&rows).all(|(&r, row)| cvd.record(r) == row));
        assert_eq!(cvd.schema(), &schema);
        let meta = cvd.meta(v0).unwrap();
        assert_eq!(
            (meta.attributes.as_slice(), meta.parents.len()),
            (&[0, 1][..], 0)
        );
        assert_eq!((meta.checkout_t, meta.commit_t, cvd.clock()), (1, 1, 1));
        assert_eq!(meta.message, "init");
        assert_eq!(cvd.graph().parents(v0), &[]);
        let keyed = Cvd::init("k", schema, vec!["k".into()], rows, "a");
        assert!(matches!(keyed, Err(Error::PrimaryKeyViolation(m)) if m.ends_with("of k")));
    }

    #[test]
    fn commit_reuses_unchanged_records() {
        let (mut cvd, v0) = init_cvd();
        let mut rows: Vec<Row> = cvd
            .checkout_rows(&[v0])
            .unwrap()
            .into_iter()
            .map(|(_, r)| r.clone())
            .collect();
        // Modify one record's coexpression (an update), keep the rest.
        rows[0][4] = Value::Int64(83);
        let res = cvd
            .commit(&[v0], rows, "updated coexpression", "bob")
            .unwrap();
        assert_eq!(res.new_records, 1);
        assert_eq!(res.reused_records, 2);
        assert_eq!(cvd.num_records(), 4); // immutable records: one new rid
        let w = cvd.graph().weight(v0, res.vid);
        assert_eq!(w, 2);
    }

    #[test]
    fn commit_identical_table_shares_everything() {
        let (mut cvd, v0) = init_cvd();
        let rows: Vec<Row> = cvd
            .checkout_rows(&[v0])
            .unwrap()
            .into_iter()
            .map(|(_, r)| r.clone())
            .collect();
        let res = cvd.commit(&[v0], rows, "no-op", "bob").unwrap();
        assert_eq!(res.new_records, 0);
        assert_eq!(
            cvd.version_records(res.vid).unwrap(),
            cvd.version_records(v0).unwrap()
        );
    }

    #[test]
    fn no_cross_version_diff_rule() {
        // Delete a record, commit, re-add it identically: it gets a NEW rid
        // because commits only compare against parents (§3.3.1).
        let (mut cvd, v0) = init_cvd();
        let rows: Vec<Row> = cvd
            .checkout_rows(&[v0])
            .unwrap()
            .into_iter()
            .map(|(_, r)| r.clone())
            .collect();
        let deleted = rows[2].clone();
        let v1 = cvd
            .commit(&[v0], rows[..2].to_vec(), "delete", "bob")
            .unwrap()
            .vid;
        let mut back = rows[..2].to_vec();
        back.push(deleted);
        let res = cvd.commit(&[v1], back, "re-add", "bob").unwrap();
        assert_eq!(res.new_records, 1, "re-added record must get a fresh rid");
    }

    #[test]
    fn pk_enforced_within_version_not_across() {
        let (mut cvd, v0) = init_cvd();
        // Same pk twice in one commit → error.
        let dup = vec![row("A", "B", 1, 1, 1), row("A", "B", 2, 2, 2)];
        assert!(matches!(
            cvd.commit(&[v0], dup, "dup", "bob"),
            Err(Error::PrimaryKeyViolation(_))
        ));
        // Same pk as v0 with different attrs in a *different* version → ok.
        let other = vec![row("ENSP273047", "ENSP261890", 9, 9, 9)];
        assert!(cvd.commit(&[v0], other, "changed", "bob").is_ok());
    }

    #[test]
    fn multi_version_checkout_precedence() {
        let (mut cvd, v0) = init_cvd();
        let rows: Vec<Row> = cvd
            .checkout_rows(&[v0])
            .unwrap()
            .into_iter()
            .map(|(_, r)| r.clone())
            .collect();
        let mut changed = rows.clone();
        changed[0][4] = Value::Int64(999);
        let v1 = cvd.commit(&[v0], changed, "change", "bob").unwrap().vid;
        // Checkout [v1, v0]: v1's record wins for the shared pk.
        let merged = cvd.checkout_rows(&[v1, v0]).unwrap();
        assert_eq!(merged.len(), 3);
        let first = merged
            .iter()
            .find(|(_, r)| r[0] == Value::from("ENSP273047") && r[1] == Value::from("ENSP261890"))
            .unwrap();
        assert_eq!(first.1[4], Value::Int64(999));
        // Reversed precedence: v0's record wins.
        let merged = cvd.checkout_rows(&[v0, v1]).unwrap();
        let first = merged
            .iter()
            .find(|(_, r)| r[0] == Value::from("ENSP273047") && r[1] == Value::from("ENSP261890"))
            .unwrap();
        assert_eq!(first.1[4], Value::Int64(0));
    }

    #[test]
    fn merge_commit_records_both_parents() {
        let (mut cvd, v0) = init_cvd();
        let rows: Vec<Row> = cvd
            .checkout_rows(&[v0])
            .unwrap()
            .into_iter()
            .map(|(_, r)| r.clone())
            .collect();
        let mut a = rows.clone();
        a[0][2] = Value::Int64(1);
        let v1 = cvd.commit(&[v0], a, "branch a", "alice").unwrap().vid;
        let mut b = rows.clone();
        b[1][2] = Value::Int64(2);
        let v2 = cvd.commit(&[v0], b, "branch b", "bob").unwrap().vid;
        let merged_rows: Vec<Row> = cvd
            .checkout_rows(&[v1, v2])
            .unwrap()
            .into_iter()
            .map(|(_, r)| r.clone())
            .collect();
        let v3 = cvd
            .commit(&[v1, v2], merged_rows, "merge", "carol")
            .unwrap()
            .vid;
        assert_eq!(cvd.meta(v3).unwrap().parents, vec![v1, v2]);
        assert!(cvd.graph().has_merges());
        // Merge introduces no new records.
        assert_eq!(cvd.num_records(), 3 + 1 + 1);
    }

    #[test]
    fn diff_and_intersect() {
        let (mut cvd, v0) = init_cvd();
        let rows: Vec<Row> = cvd
            .checkout_rows(&[v0])
            .unwrap()
            .into_iter()
            .map(|(_, r)| r.clone())
            .collect();
        let mut changed = rows.clone();
        changed[0][4] = Value::Int64(83);
        let v1 = cvd.commit(&[v0], changed, "x", "bob").unwrap().vid;
        let resolve = |set: RidSet| set.resolve(cvd.version_records_raw()).unwrap();
        assert_eq!(resolve(RidSet::Diff(v0, v1)), [Rid(0)]);
        assert_eq!(resolve(RidSet::Diff(v1, v0)), [Rid(3)]);
        assert_eq!(resolve(RidSet::Intersect(vec![v0, v1])), [Rid(1), Rid(2)]);
    }

    #[test]
    fn schema_evolution_adds_and_widens() {
        let (mut cvd, v0) = init_cvd();
        // Commit with cooccurrence as decimal and a new "source" column,
        // mirroring Fig. 4.3.
        let new_schema = Schema::new(vec![
            Column::new("protein1", DataType::Text),
            Column::new("protein2", DataType::Text),
            Column::new("neighborhood", DataType::Int64),
            Column::new("cooccurrence", DataType::Float64),
            Column::new("coexpression", DataType::Int64),
            Column::new("source", DataType::Text),
        ]);
        let rows = vec![vec![
            Value::from("P1"),
            Value::from("P2"),
            Value::Int64(1),
            Value::Float64(0.5),
            Value::Int64(7),
            Value::from("lab"),
        ]];
        let res = cvd
            .commit_changes(&[v0], &new_schema, Changes::all(rows), "evolve", "bob")
            .unwrap();
        // The union schema widened cooccurrence and gained `source`.
        let idx = cvd.schema().index_of("cooccurrence").unwrap();
        assert_eq!(cvd.schema().column(idx).unwrap().dtype, DataType::Float64);
        assert!(cvd.schema().contains("source"));
        // Old records were widened and padded.
        let old = cvd.record(Rid(0));
        assert_eq!(old[3], Value::Float64(53.0));
        assert_eq!(old[5], Value::Null);
        // Attribute table gained two entries: decimal cooccurrence + source.
        assert_eq!(cvd.attributes().len(), 7);
        let new = cvd.version_records(res.vid).unwrap();
        assert_eq!(cvd.record(new[0])[5], Value::from("lab"));
    }

    #[test]
    fn version_not_found_errors() {
        let (cvd, _) = init_cvd();
        assert!(matches!(
            cvd.version_records(Vid(9)),
            Err(Error::VersionNotFound(9))
        ));
        assert!(cvd.checkout_rows(&[Vid(9)]).is_err());
    }

    #[test]
    fn bipartite_and_tree_roundtrip() {
        let (mut cvd, v0) = init_cvd();
        let rows: Vec<Row> = cvd
            .checkout_rows(&[v0])
            .unwrap()
            .into_iter()
            .map(|(_, r)| r.clone())
            .collect();
        let mut c = rows.clone();
        c[0][4] = Value::Int64(83);
        cvd.commit(&[v0], c, "x", "b").unwrap();
        let b = cvd.bipartite();
        assert_eq!(b.num_versions(), 2);
        assert_eq!(b.num_records(), 4);
        let t = cvd.tree();
        assert_eq!(t.num_records(), 4);
    }
}
