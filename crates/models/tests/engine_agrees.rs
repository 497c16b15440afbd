//! The engine against the models: histories built through `OrpheusDb`
//! — keyed and unkeyed checkouts, merges, inserts before and after the
//! first read of a staging table, updates, deletes and one schema-evolving
//! CSV commit — read back three ways for every version:
//! `read_version`, `run SELECT * FROM VERSION v OF CVD …`, and
//! each of the five Chapter 4 models — loaded from the engine's `Cvd` once
//! the history is over, and applied commit by commit as the engine made
//! it. All must return the version's records and nothing else.

use models::{load_cvd, ModelKind, VersioningModel};
use orpheus_core::metadata::data_row;
use orpheus_core::{CommitResult, Cvd, OrpheusDb, Vid};
use partition::Rid;
use proptest::prelude::*;
use relstore::{Column, DataType, Database, ExecContext, Row, Schema, Value};

/// One checkout of CVD `h` (keyed) or `u` (unkeyed), edited and committed.
#[derive(Debug, Clone)]
struct Cycle {
    keyed: bool,
    /// Parents, modulo the version count; two distinct ones merge.
    parents: (usize, usize, bool),
    /// Rows `insert`ed before the first read of the staging table.
    before: usize,
    /// Read the staging table, insert `after` rows into it, update one row
    /// and delete another.
    read: bool,
    after: usize,
}

fn cycle() -> impl Strategy<Value = Cycle> {
    (
        (any::<bool>(), any::<usize>(), any::<usize>(), any::<bool>()),
        (0..4usize, any::<bool>(), 0..4usize),
    )
        .prop_map(|((keyed, p, q, merge), (before, read, after))| Cycle {
            keyed,
            parents: (p, q, merge),
            before,
            read,
            after,
        })
}

fn instance() -> OrpheusDb {
    let mut odb = OrpheusDb::new();
    odb.create_user("alice").unwrap();
    odb.login("alice").unwrap();
    let schema = Schema::new(vec![
        Column::new("k", DataType::Int64),
        Column::nullable("x", DataType::Int64),
        Column::nullable("s", DataType::Text),
    ]);
    let rows = |n: i64| -> Vec<Row> {
        let row = |k: i64| vec![Value::Int64(k), Value::Int64(k * 3), Value::from("seed")];
        (0..n).map(row).collect()
    };
    odb.init_cvd("h", schema.clone(), vec!["k".into()], rows(12))
        .unwrap();
    odb.init_cvd("u", schema, vec![], rows(8)).unwrap();
    odb
}

/// A row of `schema` for key `k`.
fn row(schema: &Schema, k: i64) -> Row {
    let value = |c: &Column| match c.dtype {
        DataType::Int64 => Value::Int64(k % 5),
        DataType::Float64 => Value::Float64(k as f64 + 0.5),
        _ => Value::Text(format!("n{}", k % 3)),
    };
    let mut row: Row = schema.columns().iter().map(value).collect();
    row[0] = Value::Int64(k);
    row
}

fn spec(schema: &Schema) -> String {
    let column = |c: &Column| {
        let dtype = match c.dtype {
            DataType::Int64 => "int",
            DataType::Float64 => "float",
            _ => "text",
        };
        format!("{}:{dtype}", c.name)
    };
    schema
        .columns()
        .iter()
        .map(column)
        .collect::<Vec<_>>()
        .join(",")
}

/// Each model, with the database it keeps its tables in.
type Stores = Vec<(ModelKind, Database, Box<dyn VersioningModel>)>;

fn load_models(cvd: &Cvd) -> Stores {
    let load = |kind: ModelKind| {
        let mut db = Database::new();
        let mut model = kind.build(cvd.name());
        load_cvd(model.as_mut(), &mut db, cvd).unwrap();
        (kind, db, model)
    };
    ModelKind::all().into_iter().map(load).collect()
}

/// Apply the engine's commit `res` of `cvd` to every model.
fn follow(stores: &mut Stores, cvd: &Cvd, res: &CommitResult) {
    let total = cvd.num_records() as u64;
    let new_rids: Vec<Rid> = (total - res.new_records as u64..total).map(Rid).collect();
    for (_, db, model) in stores {
        let mut tracker = relstore::CostTracker::new();
        model
            .apply_commit(db, cvd, res.vid, &new_rids, &mut tracker)
            .unwrap();
    }
}

fn run_cycle(odb: &mut OrpheusDb, c: &Cycle, serial: usize) -> CommitResult {
    let cvd = if c.keyed { "h" } else { "u" };
    let versions = odb.cvd(cvd).unwrap().num_versions();
    let (p, q, merge) = c.parents;
    let mut parents = vec![Vid((p % versions) as u32)];
    if merge && !parents.contains(&Vid((q % versions) as u32)) {
        parents.push(Vid((q % versions) as u32));
    }
    odb.checkout(cvd, &parents, "w").unwrap();
    let schema = odb.cvd(cvd).unwrap().schema().clone();
    let key = |i: usize| 1_000 + (serial * 10 + i) as i64;
    for i in 0..c.before {
        let values: Vec<String> = row(&schema, key(i)).iter().map(Value::to_string).collect();
        odb.execute(&format!("insert w {}", values.join(",")))
            .unwrap();
    }
    if c.read {
        let t = odb.staging_table_mut("w").unwrap();
        for i in c.before..c.before + c.after {
            t.insert(row(&schema, key(i))).unwrap();
        }
        let rows = t.rows().unwrap();
        let (id, mut edited) = rows[serial % rows.len()].clone();
        edited[1] = row(&schema, -(serial as i64))[1].clone();
        t.update(id, edited).unwrap();
        t.delete(rows[(serial * 7 + 3) % rows.len()].0).unwrap();
    }
    odb.commit("w", &format!("cycle {serial}")).unwrap()
}

/// Commit `cvd`'s latest version through CSV with `x` widened to decimal
/// and a new column `c`.
fn evolve(odb: &mut OrpheusDb, cvd: &str) -> CommitResult {
    let latest = odb.cvd(cvd).unwrap().latest_version();
    let csv = odb.checkout_csv(cvd, &[latest], "e.csv").unwrap();
    let mut columns = odb.cvd(cvd).unwrap().schema().columns().to_vec();
    columns[1].dtype = DataType::Float64;
    columns.push(Column::nullable("c", DataType::Int64));
    let mut lines = csv.lines();
    let mut evolved = format!("{},c\n", lines.next().unwrap());
    for (i, line) in lines.enumerate() {
        evolved.push_str(&format!("{line},{i}\n"));
    }
    let spec = spec(&Schema::new(columns));
    odb.commit_csv("e.csv", &evolved, &spec, "evolve").unwrap()
}

/// Every version of `cvd`, read through the engine twice and through each
/// model of `followed` and of a fresh load, is that version's records.
fn assert_sources_agree(
    odb: &OrpheusDb,
    name: &str,
    followed: &Stores,
) -> Result<(), TestCaseError> {
    let cvd = odb.cvd(name).unwrap();
    let loaded = load_models(cvd);
    for v in cvd.graph().versions() {
        let records: Vec<Row> = (cvd.version_records(v).unwrap().iter())
            .map(|&rid| data_row(cvd, rid).unwrap())
            .collect();
        let (read, _) = odb.read_version(name, v).unwrap();
        prop_assert_eq!(&read, &records, "read_version {} of {}", v, name);
        let select = format!("SELECT * FROM VERSION {} OF CVD {name}", v.0);
        prop_assert_eq!(&odb.run(&select).unwrap().rows, &records, "{}", select);
        for (kind, db, model) in followed.iter().chain(&loaded) {
            let mut rows = model.checkout(db, cvd, v, &mut ExecContext::new()).unwrap();
            rows.sort_by_key(|r| r[0].as_i64());
            prop_assert_eq!(&rows, &records, "{} {} of {}", kind.name(), v, name);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn every_source_reads_every_version_alike(
        cycles in prop::collection::vec(cycle(), 1..7),
        evolve_at in any::<usize>(),
        evolve_keyed in any::<bool>(),
    ) {
        let mut odb = instance();
        // Indexed by `keyed`: the unkeyed CVD, then the keyed one.
        let names = ["u", "h"];
        let mut followed = names.map(|name| load_models(odb.cvd(name).unwrap()));
        for (serial, c) in cycles.iter().enumerate() {
            if serial == evolve_at % cycles.len() {
                let (keyed, name) = (evolve_keyed as usize, names[evolve_keyed as usize]);
                let res = evolve(&mut odb, name);
                follow(&mut followed[keyed], odb.cvd(name).unwrap(), &res);
            }
            let res = run_cycle(&mut odb, c, serial);
            let keyed = c.keyed as usize;
            follow(&mut followed[keyed], odb.cvd(names[keyed]).unwrap(), &res);
        }
        for (name, stores) in names.into_iter().zip(&followed) {
            assert_sources_agree(&odb, name, stores)?;
        }
    }
}
