//! The widest CVD: a tuple counts its values in a `u16`, and so does a
//! wire row, so a CVD's star row — the rid and every attribute — holds at
//! most 65 535 values. The widest CVD that fits commits and reads back
//! whole through the shell and through the server; one attribute more is
//! refused before anything is written, by `init`, by `commit -s` and by a
//! schema-evolving commit, and the CVD stays absent or unchanged.

#![expect(
    clippy::disallowed_methods,
    reason = "the tests drive clients from threads of their own"
)]

use orpheusdb::orpheus::commands::parse_schema_spec;
use orpheusdb::orpheus::{Error, OrpheusDb, Vid};
use orpheusdb::relstore;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Stdio};

/// The most attributes a CVD may have: its star row adds the rid.
const WIDEST: usize = 65_534;

fn orpheusdb() -> Command {
    Command::new(env!("CARGO_BIN_EXE_orpheusdb"))
}

/// Columns `c0…c{n-1}`: the CSV header, the schema spec, and one row.
fn columns(n: usize) -> (String, String, Vec<String>) {
    let names: Vec<String> = (0..n).map(|i| format!("c{i}")).collect();
    let spec: Vec<String> = names.iter().map(|c| format!("{c}:int")).collect();
    let row = (0..n).map(|i| (i % 100).to_string()).collect();
    (names.join(","), spec.join(","), row)
}

/// A one-row CSV of `n` columns in the temp directory, and its spec.
fn wide_csv(n: usize, tag: &str) -> (std::path::PathBuf, String) {
    let (header, spec, row) = columns(n);
    let name = format!("orpheus-wide-{tag}-{n}-{}.csv", std::process::id());
    let path = std::env::temp_dir().join(name);
    std::fs::write(&path, format!("{header}\n{}\n", row.join(","))).unwrap();
    (path, spec)
}

/// The script both front ends run: the widest CVD, read back; one
/// column more, refused; the CVDs there are.
fn script(tag: &str) -> (String, Vec<std::path::PathBuf>) {
    let (widest, spec) = wide_csv(WIDEST, tag);
    let (wider, wider_spec) = wide_csv(WIDEST + 1, tag);
    let script = format!(
        "create_user u\nconfig u\ninit w -f {} -s {spec}\n\
         run SELECT * FROM VERSION 0 OF CVD w\n\
         init x -f {} -s {wider_spec}\nls\nquit\n",
        widest.display(),
        wider.display()
    );
    (script, vec![widest, wider])
}

/// What the script must print: the star row's header and its one row,
/// the refusal naming the width and the limit, and `w` alone listed.
fn check(out: &str) {
    let (header, _, row) = columns(WIDEST);
    let header = format!("rid | {}", header.replace(',', " | "));
    let row = format!("0 | {}", row.join(" | "));
    // The shell prompts before the header; the client prints it bare.
    let lines: Vec<&str> = out
        .lines()
        .map(|l| l.trim_start_matches("orpheus> "))
        .collect();
    assert!(lines.contains(&header.as_str()), "no star-row header");
    assert!(lines.contains(&row.as_str()), "no star row");
    assert!(
        out.contains("too many columns: 65536 (a row holds at most 65535)"),
        "the wider CVD was not refused"
    );
    assert!(
        lines.contains(&"w") && !lines.contains(&"x"),
        "x was created"
    );
}

/// Pipe `script` into `command` and return its stdout and stderr. The
/// script is written from a thread of its own: the star row comes back
/// while the wider CVD's megabyte of schema is still going in.
fn transcript(mut command: Command, script: String) -> String {
    let mut child = command
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn orpheusdb");
    let mut stdin = child.stdin.take().unwrap();
    let writer = std::thread::spawn(move || stdin.write_all(script.as_bytes()));
    let out = child.wait_with_output().unwrap();
    writer.join().unwrap().unwrap();
    assert_eq!(out.status.code(), Some(0), "{command:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    format!("{stdout}{}", String::from_utf8_lossy(&out.stderr))
}

#[test]
fn the_widest_cvd_reads_back_through_the_shell() {
    let (script, files) = script("shell");
    check(&transcript(orpheusdb(), script));
    files.iter().for_each(|f| drop(std::fs::remove_file(f)));
}

/// A `serve` process, killed when dropped.
struct Served(Child);

impl Drop for Served {
    fn drop(&mut self) {
        self.0.kill().ok();
        self.0.wait().ok();
    }
}

#[test]
fn the_widest_cvd_reads_back_through_the_server() {
    let (script, files) = script("server");
    let mut served = Served(
        orpheusdb()
            .args(["serve", "--port", "0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn orpheusdb serve"),
    );
    let mut lines = BufReader::new(served.0.stdout.take().unwrap()).lines();
    let port = lines
        .find_map(|l| {
            let l = l.unwrap();
            l.strip_prefix("listening on 127.0.0.1:").map(String::from)
        })
        .expect("serve reports its port");
    let mut client = orpheusdb();
    client.args(["client", "--port", &port, "--user", "u"]);
    check(&transcript(client, script));
    files.iter().for_each(|f| drop(std::fs::remove_file(f)));
}

/// The library's side: `init` one column wider than the widest CVD is
/// refused before any of its tables exists, so the name stays free;
/// `commit -s` of one column more — a schema that evolves the CVD past
/// the limit — is refused, and the CVD keeps its versions and schema;
/// the same commit at the widest schema lands.
#[test]
fn a_cvd_past_the_widest_schema_is_refused() {
    let too_wide = Error::Storage(relstore::Error::TooManyColumns {
        columns: 65_536,
        limit: 65_535,
    });
    let rows = |row: &[String]| {
        let values = row
            .iter()
            .map(|v| relstore::Value::Int64(v.parse().unwrap()));
        vec![values.collect()]
    };
    let mut odb = OrpheusDb::new();
    odb.create_user("u").unwrap();
    odb.login("u").unwrap();
    let (_, spec, row) = columns(WIDEST + 1);
    let schema = parse_schema_spec(&spec).unwrap();
    let refused = odb.init_cvd("x", schema, vec![], rows(&row));
    assert_eq!(refused.unwrap_err(), too_wide);
    let narrow = parse_schema_spec("k:int").unwrap();
    odb.init_cvd("x", narrow, vec![], vec![]).unwrap();

    let (header, spec, row) = columns(WIDEST);
    let schema = parse_schema_spec(&spec).unwrap();
    odb.init_cvd("w", schema, vec![], rows(&row)).unwrap();
    let csv = odb.checkout_csv("w", &[Vid(0)], "w.csv").unwrap();
    let evolved = format!("{header},extra\n{},1\n", row.join(","));
    let refused = odb.commit_csv("w.csv", &evolved, &format!("{spec},extra:int"), "wider");
    assert_eq!(refused.unwrap_err(), too_wide);
    let cvd = odb.cvd("w").unwrap();
    assert_eq!((cvd.num_versions(), cvd.schema().len()), (1, WIDEST));
    odb.commit_csv("w.csv", &csv, &spec, "same width").unwrap();
    assert_eq!(odb.cvd("w").unwrap().num_versions(), 2);
}
