//! Quickstart: the end-to-end OrpheusDB workflow from Chapter 3 —
//! init a CVD, check out, modify, commit, branch, merge, query versions.
//!
//! Run with: `cargo run --example quickstart`

use orpheusdb::orpheus::{CommandOutput, OrpheusDb, Vid};
use orpheusdb::relstore::{Column, DataType, Schema, Value};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut db = OrpheusDb::new();

    // Users and login (create_user / config / whoami).
    db.create_user("alice")?;
    db.create_user("bob")?;
    db.login("alice")?;
    println!("logged in as {}", db.whoami()?);

    // `init`: register the protein-interaction dataset of Fig. 3.2 as a CVD.
    let schema = Schema::new(vec![
        Column::new("protein1", DataType::Text),
        Column::new("protein2", DataType::Text),
        Column::new("neighborhood", DataType::Int64),
        Column::new("cooccurrence", DataType::Int64),
        Column::new("coexpression", DataType::Int64),
    ]);
    let row = |p1: &str, p2: &str, n: i64, co: i64, ce: i64| {
        vec![
            Value::from(p1),
            Value::from(p2),
            Value::Int64(n),
            Value::Int64(co),
            Value::Int64(ce),
        ]
    };
    let v0 = db.init_cvd(
        "Interaction",
        schema,
        vec!["protein1".into(), "protein2".into()],
        vec![
            row("ENSP273047", "ENSP261890", 0, 53, 0),
            row("ENSP273047", "ENSP235932", 0, 87, 0),
            row("ENSP300413", "ENSP274242", 426, 0, 164),
        ],
    )?;
    println!("initialized Interaction at {v0}");

    // `checkout … -t`: materialize v0 into a private staging table.
    db.checkout("Interaction", &[v0], "alice_work")?;
    {
        // Modify the staging table: fix a coexpression score (an update)
        // and add a newly observed interaction (an insert).
        let t = db.staging_table_mut("alice_work")?;
        let (target, mut fixed) = t
            .rows()?
            .into_iter()
            .find(|(_, r)| r[0] == Value::from("ENSP273047") && r[1] == Value::from("ENSP261890"))
            .expect("row exists");
        fixed[4] = Value::Int64(83);
        t.update(target, fixed)?;
        t.insert(row("ENSP309334", "ENSP346022", 0, 227, 975))?;
    }

    // `commit -t … -m …`.
    let res = db.commit("alice_work", "fix coexpression; add ENSP309334 pair")?;
    println!(
        "alice committed {} ({} new records, {} reused)",
        res.vid, res.new_records, res.reused_records
    );

    // Bob branches from v0 in parallel.
    db.login("bob")?;
    db.checkout("Interaction", &[v0], "bob_work")?;
    {
        let t = db.staging_table_mut("bob_work")?;
        t.insert(row("ENSP332973", "ENSP300134", 0, 0, 83))?;
    }
    let bob = db.commit("bob_work", "bob adds ENSP332973 pair")?;
    println!("bob committed {}", bob.vid);

    // Merge: multi-version checkout with precedence, then commit with two
    // parents (Fig. 4.2's v4).
    db.checkout("Interaction", &[res.vid, bob.vid], "merge_work")?;
    let merged = db.commit("merge_work", "merge alice + bob")?;
    println!(
        "merged into {} — parents {:?}",
        merged.vid,
        db.cvd("Interaction")?.meta(merged.vid)?.parents
    );

    // Versioned SQL (§3.3.2) without materializing anything.
    let result =
        db.run("SELECT * FROM VERSION 1, 2 OF CVD Interaction WHERE coexpression > 80 LIMIT 50")?;
    println!("\nhigh-coexpression rows in v1 ∪ v2:");
    for r in &result.rows {
        println!("  {} - {} (coexpression {})", r[1], r[2], r[5]);
    }

    let counts = db.run("SELECT vid, count(*) FROM CVD Interaction GROUP BY vid")?;
    println!("\nrecords per version:");
    for r in &counts.rows {
        println!("  v{}: {}", r[0], r[1]);
    }

    // diff between the branch tips.
    let (only_alice, only_bob) = db.diff("Interaction", res.vid, bob.vid)?;
    println!(
        "\ndiff v{} vs v{}: {} records only in alice's, {} only in bob's",
        res.vid.0,
        bob.vid.0,
        only_alice.rows.len(),
        only_bob.rows.len()
    );

    // `optimize`: the LyreSplit plan under γ = 2|R| (a report; the
    // storage layout stays as it is), then a one-version read.
    let plan = db.optimize("Interaction", 2.0)?;
    println!(
        "\noptimize: {} partition(s), est. storage {} records",
        plan.partitioning.num_partitions(),
        plan.est_storage
    );
    let (rows, ctx) = db.read_version("Interaction", merged.vid)?;
    println!(
        "checkout of {}: {} rows, {:.2} simulated ms",
        merged.vid,
        rows.len(),
        ctx.tracker.simulated_millis(&ctx.model)
    );

    // The command-line surface does the same things from strings.
    match db.execute("ls")? {
        CommandOutput::Listing(cvds) => println!("\ncvds: {cvds:?}"),
        other => println!("{other:?}"),
    }
    let _ = Vid(0);
    Ok(())
}
