//! A full collaborative session driven through the command-line surface of
//! §3.3.1 — the MIT Brain-Institution scenario from Chapter 1: several
//! scientists sharing one dataset, CSV round-trips for Python/R users,
//! access control, schema evolution, and the partition optimizer's plan.
//!
//! Run with: `cargo run --example team_workflow`

use orpheusdb::orpheus::{CommandOutput, OrpheusDb};
use orpheusdb::relstore::{Column, DataType, Schema, Value};

fn show(out: &CommandOutput) {
    match out {
        CommandOutput::Message(m) => println!("  → {m}"),
        CommandOutput::Version(v) => println!("  → committed {v}"),
        CommandOutput::Listing(l) => println!("  → {l:?}"),
        CommandOutput::Table(t) => {
            println!("  → {} row(s)", t.rows.len());
            for r in t.rows.iter().take(3) {
                let cells: Vec<String> = r.iter().map(|v| v.to_string()).collect();
                println!("      {}", cells.join(" | "));
            }
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut db = OrpheusDb::new();
    for cmd in [
        "create_user sofia",
        "create_user raj",
        "config sofia",
        "whoami",
    ] {
        println!("$ {cmd}");
        show(&db.execute(cmd)?);
    }

    // Sofia registers the gene annotation dataset.
    let schema = Schema::new(vec![
        Column::new("gene", DataType::Text),
        Column::new("chromosome", DataType::Int64),
        Column::new("expression", DataType::Int64),
    ]);
    let rows: Vec<Vec<Value>> = (0..200)
        .map(|i| {
            vec![
                Value::from(format!("GENE{i:04}")),
                Value::Int64(1 + i % 22),
                Value::Int64((i * 37) % 1000),
            ]
        })
        .collect();
    db.init_cvd("Annotations", schema, vec!["gene".into()], rows)?;
    println!("$ init Annotations (200 genes)");

    // Checkout → modify → commit, three rounds on different branches.
    for round in 0..3u32 {
        let cmd = format!("checkout Annotations -v {round} -t work{round}");
        println!("$ {cmd}");
        show(&db.execute(&cmd)?);
        {
            let t = db.staging_table_mut(&format!("work{round}"))?;
            // Each round normalizes a slice of expressions.
            let rows: Vec<_> = t
                .rows()?
                .into_iter()
                .filter(|(_, r)| r[2].as_i64().unwrap() % 10 == round as i64)
                .collect();
            for (id, mut row) in rows {
                row[2] = Value::Int64(row[2].as_i64().unwrap() / 10);
                t.update(id, row)?;
            }
        }
        let cmd = format!("commit -t work{round} -m normalize round {round}");
        println!("$ {cmd}");
        show(&db.execute(&cmd)?);
    }

    // Raj works through CSV for his Python pipeline (the -f flag).
    db.execute("config raj")?;
    println!("$ checkout Annotations -v 3 -f raj.csv");
    let csv = db.checkout_csv("Annotations", &[orpheusdb::orpheus::Vid(3)], "raj.csv")?;
    // "Python" adds a confidence column: schema evolution on commit (§4.3).
    let edited: String = {
        let mut lines = csv.lines();
        let mut out = format!("{},confidence\n", lines.next().unwrap());
        for (i, line) in lines.enumerate() {
            out.push_str(&format!("{line},{}\n", (i * 7) % 100));
        }
        out
    };
    println!("$ commit -f raj.csv -s gene:text,chromosome:int,expression:int,confidence:int");
    let res = db.commit_csv(
        "raj.csv",
        &edited,
        "gene:text,chromosome:int,expression:int,confidence:int",
        "add model confidence from python pipeline",
    )?;
    println!("  → committed {} with a new column", res.vid);
    println!(
        "  → CVD schema is now: {:?}",
        db.cvd("Annotations")?
            .schema()
            .columns()
            .iter()
            .map(|c| c.name.as_str())
            .collect::<Vec<_>>()
    );

    // Access control: raj cannot touch sofia's staging table.
    db.execute("config sofia")?;
    db.execute("checkout Annotations -v 4 -t sofia_private")?;
    db.execute("config raj")?;
    let denied = db.execute("commit -t sofia_private -m steal");
    println!(
        "$ commit -t sofia_private (as raj)\n  → {}",
        denied.unwrap_err()
    );

    // Queries across the whole history.
    db.execute("config sofia")?;
    for q in [
        "run SELECT vid, count(*) FROM CVD Annotations GROUP BY vid",
        "run SELECT vid, avg(expression) FROM CVD Annotations GROUP BY vid",
        "run SELECT * FROM VERSION 4 OF CVD Annotations WHERE confidence > 90 LIMIT 3",
    ] {
        println!("$ {q}");
        show(&db.execute(q)?);
    }

    // Ask LyreSplit how it would partition the history, then keep committing.
    println!("$ optimize Annotations -g 2.0");
    show(&db.execute("optimize Annotations -g 2.0")?);
    db.execute("checkout Annotations -v 4 -t post")?;
    show(&db.execute("commit -t post -m after optimize")?);
    let (rows, ctx) = db.read_version("Annotations", res.vid)?;
    println!(
        "checkout of v{}: {} rows at {:.2} simulated ms",
        res.vid.0,
        rows.len(),
        ctx.tracker.simulated_millis(&ctx.model)
    );

    println!("$ drop Annotations");
    show(&db.execute("drop Annotations")?);
    Ok(())
}
