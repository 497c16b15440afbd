//! Generated inputs: the seeded version history every workload starts
//! from, and the oracle that knows each version's contents.

use crate::script::{Op, Rng};
use crate::target::{expect_ok, Target};
use benchgen::{generate, DatasetSpec};
use orpheus_core::OrpheusDb;
use partition::Vid;
use relstore::{Column, DataType, Row, RowId, Schema, Value};
use std::collections::{HashMap, HashSet};
use std::path::Path;

/// The one CVD every workload uses.
pub const CVD: &str = "t";
/// Integer attributes per record, primary key first (benchgen's default).
pub const ATTRS: usize = 20;
/// Attribute values are uniform in `0..ATTR_RANGE` (benchgen's `make_record`).
pub const ATTR_RANGE: i64 = 10_000;

/// Where a workload's starting history comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// benchgen CUR DAG: `(versions, branches, mods_per_commit)`.
    Cur(usize, usize, usize),
    /// Built by the harness and loaded through commands: `base_rows` in
    /// `init`, then `versions` commits of `inserts` new rows each. Four in
    /// five fork from the root, the fifth from a random earlier version,
    /// so versions stay small while the data table outgrows the pool.
    Wire {
        base_rows: usize,
        versions: usize,
        inserts: usize,
    },
}

/// Every version's contents, as the harness generated them. Versions
/// hold indices into `records`, so a derived version costs four bytes
/// per row.
#[derive(Debug, Clone, Default)]
pub struct Oracle {
    pub records: Vec<Vec<i64>>,
    pub versions: Vec<Vec<u32>>,
    pub parents: Vec<Vec<u32>>,
}

impl Oracle {
    pub fn num_versions(&self) -> usize {
        self.versions.len()
    }

    pub fn rows(&self, v: u32) -> impl Iterator<Item = &[i64]> + '_ {
        self.versions[v as usize]
            .iter()
            .map(|&r| self.records[r as usize].as_slice())
    }

    /// `SELECT * FROM VERSION v … WHERE a1 > min_a1`, sorted.
    pub fn select(&self, v: u32, min_a1: i64) -> Vec<&[i64]> {
        let mut out: Vec<&[i64]> = self.rows(v).filter(|r| r[1] > min_a1).collect();
        out.sort_unstable();
        out
    }

    /// `V_DIFF(a, b)`: records of `a` that `b` does not hold, sorted.
    pub fn diff(&self, a: u32, b: u32) -> Vec<&[i64]> {
        let other: HashSet<u32> = self.versions[b as usize].iter().copied().collect();
        let mut out: Vec<&[i64]> = self.versions[a as usize]
            .iter()
            .filter(|r| !other.contains(r))
            .map(|&r| self.records[r as usize].as_slice())
            .collect();
        out.sort_unstable();
        out
    }

    /// Record a version the harness committed: `base`'s rows plus `extra`.
    pub fn push_derived(&mut self, base: u32, extra: &[Vec<i64>]) -> u32 {
        let mut rows = self.versions[base as usize].clone();
        for row in extra {
            rows.push(self.records.len() as u32);
            self.records.push(row.clone());
        }
        self.versions.push(rows);
        self.parents.push(vec![base]);
        (self.versions.len() - 1) as u32
    }

    pub fn mean_version_rows(&self) -> f64 {
        let total: usize = self.versions.iter().map(Vec::len).sum();
        total as f64 / self.versions.len().max(1) as f64
    }
}

/// `k, a1, … a19`.
fn column_names() -> Vec<String> {
    let mut names = vec!["k".to_owned()];
    names.extend((1..ATTRS).map(|i| format!("a{i}")));
    names
}

pub fn schema() -> Schema {
    let int = |name| Column::new(name, DataType::Int64);
    Schema::new(column_names().into_iter().map(int).collect())
}

pub fn to_row(record: &[i64]) -> Row {
    record.iter().map(|&x| Value::Int64(x)).collect()
}

fn from_row(row: &Row) -> Vec<i64> {
    row.iter()
        .map(|v| match v {
            Value::Int64(x) => *x,
            _ => i64::MIN,
        })
        .collect()
}

/// The oracle of a benchgen history generated from `seed`.
pub fn generate_oracle(source: Source, seed: u64) -> Oracle {
    let spec = match source {
        Source::Cur(v, b, i) => DatasetSpec::cur(CVD, v, b, i),
        Source::Wire { .. } => return Oracle::default(),
    };
    let d = generate(&spec.with_attrs(ATTRS).with_seed(seed));
    let versions = d
        .versions()
        .map(|v| d.version_records(v).iter().map(|r| r.0 as u32).collect())
        .collect();
    let parents = d
        .versions()
        .map(|v| d.graph.parents(v).iter().map(|p| p.0).collect())
        .collect();
    Oracle {
        records: d.records,
        versions,
        parents,
    }
}

/// Replay `oracle` into a fresh durable store at `dir`, one commit per
/// version with its generated parents, checkpointing every 25 commits.
/// Each checkout is edited into the generated version's exact contents,
/// so the store assigns the same version ids the generator did.
pub fn seed_durable(dir: &Path, oracle: &Oracle, pool_pages: usize) -> Result<(), String> {
    let e = |e: orpheus_core::Error| format!("seeding {}: {e}", dir.display());
    let (mut db, _report) = OrpheusDb::open_durable(dir, pool_pages).map_err(e)?;
    db.create_user("gen").map_err(e)?;
    db.login("gen").map_err(e)?;
    db.set_auto_checkpoint(false);
    let root: Vec<Row> = oracle.rows(0).map(to_row).collect();
    db.init_cvd(CVD, schema(), vec!["k".into()], root)
        .map_err(e)?;
    for v in 1..oracle.num_versions() as u32 {
        let parents: Vec<Vid> = oracle.parents[v as usize].iter().map(|&p| Vid(p)).collect();
        db.checkout(CVD, &parents, "seed").map_err(e)?;
        let staged = db.staging_table_mut("seed").map_err(e)?;
        let mut surplus: HashMap<Vec<i64>, RowId> = staged
            .iter()
            .map(|(id, row)| (from_row(&row), id))
            .collect();
        let missing: Vec<&[i64]> = oracle
            .rows(v)
            .filter(|r| surplus.remove(*r).is_none())
            .collect();
        for id in surplus.into_values() {
            staged
                .delete(id)
                .map_err(|e| format!("seeding v{v}: {e}"))?;
        }
        for record in missing {
            staged
                .insert(to_row(record))
                .map_err(|e| format!("seeding v{v}: {e}"))?;
        }
        let committed = db.commit("seed", "seed").map_err(e)?;
        if committed.vid != Vid(v) {
            return Err(format!("seeding v{v}: store assigned {}", committed.vid));
        }
        if v % 25 == 0 {
            db.checkpoint().map_err(e)?;
        }
    }
    db.checkpoint().map_err(e)?;
    Ok(())
}

/// Build a [`Source::Wire`] history from `seed`, load it through `target`
/// (whatever layer that is) and return its oracle. `csv` is where the
/// `init` file is written; the server reads it from there.
pub fn seed_through(
    target: &mut dyn Target,
    source: Source,
    seed: u64,
    csv: &Path,
) -> Result<Oracle, String> {
    let Source::Wire {
        base_rows,
        versions,
        inserts,
    } = source
    else {
        return Err("seed_through needs a Wire source".into());
    };
    let mut rng = Rng::new(seed ^ 0x5EED);
    let mut oracle = Oracle::default();
    let names = column_names();
    let mut text = names.join(",") + "\n";
    for k in 0..base_rows {
        let record = rng.record(k as i64);
        let fields: Vec<String> = record.iter().map(i64::to_string).collect();
        text.push_str(&fields.join(","));
        text.push('\n');
        oracle.records.push(record);
    }
    oracle.versions.push((0..base_rows as u32).collect());
    oracle.parents.push(Vec::new());
    std::fs::write(csv, text).map_err(|e| format!("writing {}: {e}", csv.display()))?;
    expect_ok(
        target,
        &format!(
            "init {CVD} -f {} -s {}:int -k k",
            csv.display(),
            names.join(":int,")
        ),
    )?;
    let mut next_key = base_rows as i64;
    for v in 1..=versions as u32 {
        let base = if v % 5 == 0 {
            rng.below(v as u64) as u32
        } else {
            0
        };
        let table = format!("seed{v}");
        expect_ok(
            target,
            &Op::Checkout {
                vid: base,
                table: table.clone(),
            }
            .line(),
        )?;
        let mut extra = Vec::with_capacity(inserts);
        for _ in 0..inserts {
            let row = rng.record(next_key);
            next_key += 1;
            expect_ok(
                target,
                &Op::Insert {
                    table: table.clone(),
                    row: row.clone(),
                }
                .line(),
            )?;
            extra.push(row);
        }
        let tag = expect_ok(
            target,
            &Op::Commit {
                table,
                message: "seed".into(),
            }
            .line(),
        )?;
        let got = oracle.push_derived(base, &extra);
        if tag != format!("COMMIT v{got}") {
            return Err(format!("seeding v{got}: server answered `{tag}`"));
        }
    }
    Ok(oracle)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_select_and_diff() {
        let mut o = Oracle {
            records: vec![vec![1, 10], vec![2, 9_500], vec![3, 9_999]],
            versions: vec![vec![0, 1]],
            parents: vec![vec![]],
        };
        let v1 = o.push_derived(0, &[vec![4, 9_800]]);
        assert_eq!(v1, 1);
        assert_eq!(o.select(1, 9_000), vec![&[2, 9_500][..], &[4, 9_800][..]]);
        assert_eq!(o.diff(1, 0), vec![&[4, 9_800][..]]);
        assert!(o.diff(0, 1).is_empty());
        assert_eq!(o.parents[1], vec![0]);
    }

    #[test]
    fn generated_history_follows_the_seed() {
        let a = generate_oracle(Source::Cur(30, 5, 10), 1);
        let b = generate_oracle(Source::Cur(30, 5, 10), 1);
        let c = generate_oracle(Source::Cur(30, 5, 10), 2);
        assert_eq!(a.versions, b.versions);
        assert_eq!(a.num_versions(), 30);
        assert_ne!(a.versions, c.versions);
    }
}
