//! The command surface of §3.3.1 as one grammar: every line the shell, a
//! server session or the engine is given is parsed once, here, into a
//! typed [`Command`] — the shape of an executor tree that keeps DDL, DML
//! and `Use` beside its queries.
//!
//! [`Command::parse`] is the only code that matches verbs and flags.
//! Everything a command can check without state is checked here — version
//! ids, schema specs, factors, the versioned query of `run` — so what is
//! left to fail when it runs is the state it meets. `run`, `explain
//! analyze` and `insert` take the rest of the line as it was typed.

use crate::commands::parse_schema_spec;
use crate::error::{Error, Result};
use crate::query::{parse_query, VQuery};
use deltastore::budget;
use partition::Vid;
use relstore::Schema;

/// What an introspection command shows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum View {
    /// The text report.
    Text,
    /// `--json`: the machine-readable report.
    Json,
    /// `reset`: zero what the command reports instead.
    Reset,
}

/// One parsed command line. Each variant's fields are its arguments in
/// the order the usage line names them.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `create_user <name>`
    CreateUser(String),
    /// `config <name>`: log in.
    Config(String),
    /// `whoami`
    Whoami,
    /// `ls`
    Ls,
    /// `log <cvd>`
    Log(String),
    /// `drop <cvd>`
    Drop(String),
    /// `checkout <cvd> -v <vid…> -t <table>`, each vid once
    Checkout(String, Vec<Vid>, String),
    /// `insert <table> <csv values>`: append one row to a checked-out
    /// table — how a network session, which cannot reach
    /// `staging_table_mut`, modifies a checkout before committing it.
    /// Unlike that call, it never copies the checked-out rows in.
    Insert(String, String),
    /// `init <cvd> -f <csv path> -s <schema> [-k pk,…]`: bulk load from a
    /// CSV file the engine's process reads.
    Init(String, String, Schema, Vec<String>),
    /// `commit -t <table> -m <message…>`
    Commit(String, String),
    /// `diff <cvd> -v <a> <b>`
    Diff(String, Vid, Vid),
    /// `optimize <cvd> [-g <γ>]`, γ 2.0 by default.
    Optimize(String, f64),
    /// `plan_storage <cvd> [-b <factor>]`, the factor 2.0 by default.
    PlanStorage(String, f64),
    /// `run <query>`
    Run(VQuery),
    /// `explain analyze [--json] <query>`: the query, and whether `--json`.
    Explain(VQuery, bool),
    /// `metrics [--json|reset]`
    Metrics(View),
    /// `spans [--json|reset]`
    Spans(View),
    /// `trace dump [--json]` | `trace reset`
    Trace(View),
    /// `stats [reset]`
    Stats(View),
    /// `threads [n]`
    Threads(Option<usize>),
    /// `checkpoint`
    Checkpoint,
    /// `recover`
    Recover,
}

impl Command {
    /// Parse one command line. Any whitespace separates words; an empty
    /// line, an unknown verb and a malformed argument are
    /// [`Error::Parse`].
    pub fn parse(line: &str) -> Result<Command> {
        let (verb, rest) = split_word(line).ok_or_else(|| parse_error("empty command"))?;
        let args = Args(rest.split_whitespace().collect());
        Ok(match verb {
            "create_user" => Self::CreateUser(args.at(0)?.to_owned()),
            "config" => Self::Config(args.at(0)?.to_owned()),
            "whoami" => Self::Whoami,
            "ls" => Self::Ls,
            "log" => Self::Log(args.at(0)?.to_owned()),
            "drop" => Self::Drop(args.at(0)?.to_owned()),
            "checkout" => {
                let cvd = args.at(0)?.to_owned();
                let versions = args
                    .values("-v", &["-v", "-t"])?
                    .iter()
                    .map(|s| s.parse::<u32>().map(Vid))
                    .collect::<std::result::Result<Vec<_>, _>>()
                    .map_err(|e| parse_error(format!("bad version id: {e}")))?;
                check_versions(&versions)?;
                Self::Checkout(cvd, versions, args.required("-t")?.to_owned())
            }
            "insert" => {
                let (table, values) = split_word(rest).ok_or_else(missing_argument)?;
                if values.trim().is_empty() {
                    return Err(parse_error("usage: insert <table> <csv values>"));
                }
                Self::Insert(table.to_owned(), values.trim().to_owned())
            }
            "init" => {
                let cvd = args.at(0)?.to_owned();
                let path = args.required("-f")?.to_owned();
                let spec = args.required("-s")?;
                let pk = args.flag("-k")?.into_iter().flat_map(|s| s.split(','));
                Self::Init(
                    cvd,
                    path,
                    parse_schema_spec(spec)?,
                    pk.map(str::to_owned).collect(),
                )
            }
            "commit" => {
                let table = args.required("-t")?.to_owned();
                Self::Commit(table, args.values("-m", &["-t", "-m"])?.join(" "))
            }
            "diff" => {
                let cvd = args.at(0)?.to_owned();
                let [a, b] = args.values("-v", &["-v"])?[..] else {
                    return Err(parse_error("diff needs exactly two versions"));
                };
                let vid = |s: &str| s.parse().map(Vid).map_err(|_| parse_error("bad vid"));
                Self::Diff(cvd, vid(a)?, vid(b)?)
            }
            "optimize" => {
                let cvd = args.at(0)?.to_owned();
                let gamma = args.flag("-g")?.map(|s| parsed(s, "bad gamma"));
                Self::Optimize(cvd, gamma.transpose()?.unwrap_or(2.0))
            }
            "plan_storage" => {
                let cvd = args.at(0)?.to_owned();
                let factor = args.flag("-b")?.map(|s| {
                    budget::parse_mat_budget(s)
                        .map_err(|m| parse_error(format!("bad budget factor: {m}")))
                });
                Self::PlanStorage(cvd, factor.transpose()?.unwrap_or(budget::DEFAULT_FACTOR))
            }
            "run" => Self::Run(parse_query(rest.trim())?),
            "explain" => {
                let usage = || parse_error("usage: explain analyze [--json] <query>");
                let rest = rest.trim_start().strip_prefix("analyze");
                let rest = rest.ok_or_else(usage)?.trim_start();
                let (json, sql) = match rest.strip_prefix("--json") {
                    Some(r) => (true, r.trim_start()),
                    None => (false, rest),
                };
                if sql.is_empty() {
                    return Err(usage());
                }
                Self::Explain(parse_query(sql)?, json)
            }
            "metrics" => Self::Metrics(args.view("metrics")?),
            "spans" => Self::Spans(args.view("spans")?),
            "trace" => Self::Trace(match (args.get(0), args.get(1)) {
                (Some("dump"), Some("--json")) => View::Json,
                (Some("dump"), None) => View::Text,
                (Some("reset"), None) => View::Reset,
                _ => return Err(parse_error("usage: trace dump [--json] | trace reset")),
            }),
            "stats" if args.get(0) == Some("reset") => Self::Stats(View::Reset),
            "stats" => Self::Stats(View::Text),
            "threads" => {
                let n = args.get(0).map(|n| parsed(n, "invalid thread count"));
                Self::Threads(n.transpose()?)
            }
            "checkpoint" => Self::Checkpoint,
            "recover" => Self::Recover,
            other => return Err(parse_error(format!("unknown command: {other}"))),
        })
    }

    /// Whether the command changes the catalog tables and so ends in a
    /// durability point: what the server acknowledges only after its
    /// group-commit batch's checkpoint.
    pub fn is_durable(&self) -> bool {
        matches!(
            self,
            Self::Commit(..) | Self::Init(..) | Self::Drop(_) | Self::CreateUser(_)
        )
    }

    /// Whether the command reads or sets the observability state, and so
    /// runs untraced: tracing it would perturb the very tree, journal and
    /// counters it renders.
    pub(crate) fn is_introspection(&self) -> bool {
        use Command::{Metrics, Spans, Stats, Threads, Trace};
        matches!(
            self,
            Spans(_) | Metrics(_) | Stats(_) | Trace(_) | Threads(_)
        )
    }
}

/// A checkout lists at least one version, and each once: no version
/// would commit a second root, and a repeat a repeated parent edge (and
/// check an unkeyed version's rows out twice).
pub(crate) fn check_versions(versions: &[Vid]) -> Result<()> {
    if versions.is_empty() {
        return Err(parse_error("no version listed"));
    }
    match (1..versions.len()).find(|&i| versions[..i].contains(&versions[i])) {
        Some(i) => Err(parse_error(format!("version {} listed twice", versions[i]))),
        None => Ok(()),
    }
}

fn parse_error(message: impl Into<String>) -> Error {
    Error::Parse(message.into())
}

/// `s` as a `T`, or the parse error `<what>: <s>`.
fn parsed<T: std::str::FromStr>(s: &str, what: &str) -> Result<T> {
    s.parse().map_err(|_| parse_error(format!("{what}: {s}")))
}

fn missing_argument() -> Error {
    parse_error("missing argument")
}

fn missing_value(flag: &str) -> Error {
    parse_error(format!("missing {flag} <value>"))
}

/// The first word of `text` and the text after it, as typed.
fn split_word(text: &str) -> Option<(&str, &str)> {
    let text = text.trim_start();
    let end = text.find(char::is_whitespace).unwrap_or(text.len());
    (end > 0).then(|| text.split_at(end))
}

/// The words after the verb.
struct Args<'a>(Vec<&'a str>);

impl<'a> Args<'a> {
    fn get(&self, i: usize) -> Option<&'a str> {
        self.0.get(i).copied()
    }

    fn at(&self, i: usize) -> Result<&'a str> {
        self.get(i).ok_or_else(missing_argument)
    }

    /// The word after `flag`; `None` when the flag is absent. A flag with
    /// nothing after it is an error, never a silent default.
    fn flag(&self, flag: &str) -> Result<Option<&'a str>> {
        match self.0.iter().position(|&a| a == flag) {
            Some(i) => self.get(i + 1).map(Some).ok_or_else(|| missing_value(flag)),
            None => Ok(None),
        }
    }

    fn required(&self, flag: &str) -> Result<&'a str> {
        self.flag(flag)?.ok_or_else(|| missing_value(flag))
    }

    /// The words after `flag`, up to the next of the command's own
    /// `flags`: a value may itself start with `-` (`commit -m revert -x`).
    fn values(&self, flag: &str, flags: &[&str]) -> Result<Vec<&'a str>> {
        let start = self.0.iter().position(|&a| a == flag);
        let start = start.ok_or_else(|| parse_error(format!("missing {flag}")))?;
        let vals: Vec<&str> = self.0[start + 1..]
            .iter()
            .take_while(|a| !flags.contains(a))
            .copied()
            .collect();
        if vals.is_empty() {
            return Err(parse_error(format!("missing values for {flag}")));
        }
        Ok(vals)
    }

    /// The one optional word of `metrics` and `spans`.
    fn view(&self, verb: &str) -> Result<View> {
        match self.get(0) {
            None => Ok(View::Text),
            Some("--json") => Ok(View::Json),
            Some("reset") => Ok(View::Reset),
            Some(other) => Err(parse_error(format!("unknown {verb} option: {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::CommandOutput;
    use crate::plan::tests::{corpus_db, QUERY_CORPUS};
    use crate::OrpheusDb;
    use proptest::prelude::*;
    use relstore::{Column, DataType, Value};

    /// The shell script `scripts/ci.sh` pins to a golden transcript, less
    /// its shell-only `quit`.
    fn probe_lines() -> Vec<&'static str> {
        let ci = include_str!("../../../scripts/ci.sh");
        let (_, script) = ci.split_once("cat <<'EOF'\n").unwrap();
        let (script, _) = script.split_once("\nEOF\n").unwrap();
        script.lines().filter(|l| *l != "quit").collect()
    }

    /// A small instance with `t` (keyed on `k`) and the probe's staging
    /// tables checked out.
    fn instance() -> OrpheusDb {
        let mut odb = OrpheusDb::new();
        odb.create_user("ci").unwrap();
        odb.login("ci").unwrap();
        let schema = Schema::new(vec![
            Column::new("k", DataType::Int64),
            Column::new("a1", DataType::Int64),
            Column::new("a2", DataType::Int64),
            Column::new("s", DataType::Text),
        ]);
        let rows = (0..20)
            .map(|i| {
                let s = Value::from(format!("x{}", i % 9));
                vec![Value::Int64(i), Value::Int64(i % 7), Value::Int64(i * 3), s]
            })
            .collect();
        odb.init_cvd("t", schema, vec!["k".into()], rows).unwrap();
        for table in ["w", "d", "r"] {
            odb.checkout("t", &[Vid(0)], table).unwrap();
        }
        odb
    }

    /// Every prefix of `line` on a char boundary, the whole line included.
    fn prefixes(line: &str) -> impl Iterator<Item = &str> {
        line.char_indices().map(|(i, _)| &line[..i]).chain([line])
    }

    type Is = fn(&Command) -> bool;

    #[test]
    fn every_probe_line_parses_to_the_variant_of_its_verb() {
        let variants: [(&str, Is); 9] = [
            ("create_user", |c| matches!(c, Command::CreateUser(_))),
            ("config", |c| matches!(c, Command::Config(_))),
            ("init", |c| matches!(c, Command::Init(..))),
            ("checkout", |c| matches!(c, Command::Checkout(..))),
            ("insert", |c| matches!(c, Command::Insert(..))),
            ("commit", |c| matches!(c, Command::Commit(..))),
            ("run", |c| matches!(c, Command::Run(_))),
            ("diff", |c| matches!(c, Command::Diff(..))),
            ("log", |c| matches!(c, Command::Log(_))),
        ];
        let lines = probe_lines();
        assert!(lines.len() > 20, "{lines:?}");
        for line in lines {
            let verb = line.split_whitespace().next().unwrap();
            let (_, is) = variants
                .iter()
                .find(|(v, _)| *v == verb)
                .unwrap_or_else(|| panic!("no variant named for `{line}`"));
            let command = Command::parse(line).unwrap_or_else(|e| panic!("`{line}`: {e}"));
            assert!(is(&command), "`{line}` parsed to {command:?}");
        }
        let parsed = |line| Command::parse(line).unwrap();
        assert_eq!(
            parsed("checkout t -v 0 1 -t w"),
            Command::Checkout("t".into(), vec![Vid(0), Vid(1)], "w".into())
        );
        assert_eq!(
            parsed("commit -t d -m duplicate   key"),
            Command::Commit("d".into(), "duplicate key".into())
        );
        assert_eq!(
            parsed("insert w 500,3,7,x3"),
            Command::Insert("w".into(), "500,3,7,x3".into())
        );
        assert_eq!(
            parsed("diff t -v 0 1"),
            Command::Diff("t".into(), Vid(0), Vid(1))
        );
        // `-b` is the budget's one spelling; without it, the default.
        assert_eq!(
            parsed("plan_storage t"),
            Command::PlanStorage("t".into(), budget::DEFAULT_FACTOR)
        );
        assert_eq!(
            parsed("plan_storage t -b 1.5"),
            Command::PlanStorage("t".into(), 1.5)
        );
    }

    /// Regression: `checkout t -v 0 0` parsed, and its commit recorded
    /// `v0` as a parent twice.
    #[test]
    fn a_checkout_listing_a_version_twice_does_not_parse() {
        for line in ["checkout t -v 0 0 -t w", "checkout t -v 1 0 1 -t w"] {
            match Command::parse(line) {
                Err(Error::Parse(m)) => assert!(m.contains("listed twice"), "{line}: {m}"),
                other => panic!("{line}: expected a parse error, got {other:?}"),
            }
        }
    }

    /// Which verbs end in a durability point and which run untraced: the
    /// two questions the server and the tracer ask of a command.
    #[test]
    fn durability_and_introspection_are_properties_of_the_command() {
        let durable = [
            "commit -t w -m m",
            "init d -f x -s k:int",
            "drop t",
            "create_user u",
        ];
        let introspection = [
            "spans",
            "metrics --json",
            "stats reset",
            "trace dump",
            "threads 2",
        ];
        let other = [
            "whoami",
            "ls",
            "log t",
            "checkout t -v 0 -t w",
            "checkpoint",
            "recover",
        ];
        for line in durable.iter().chain(&introspection).chain(&other) {
            let c = Command::parse(line).unwrap();
            assert_eq!(c.is_durable(), durable.contains(line), "{line}");
            assert_eq!(c.is_introspection(), introspection.contains(line), "{line}");
        }
    }

    /// `run`, `explain analyze` and `insert` keep the rest of the line as
    /// typed: a value and a quoted literal keep their spaces.
    #[test]
    fn remainders_are_taken_verbatim() {
        let mut odb = instance();
        odb.execute("insert w 900,1,2,a  b").unwrap();
        odb.execute("commit -t w -m spaced").unwrap();
        let sql = "SELECT * FROM VERSION 1 OF CVD t WHERE s = 'a  b'";
        match odb.execute(&format!("run\u{3000}{sql}\u{a0}")) {
            Ok(CommandOutput::Table(t)) => assert_eq!(t.rows.len(), 1),
            other => panic!("{other:?}"),
        }
        let Command::Explain(query, json) =
            Command::parse(&format!("explain analyze --json {sql}")).unwrap()
        else {
            panic!("not an explain");
        };
        assert!(json);
        assert_eq!(query, parse_query(sql).unwrap());
    }

    /// Each input gives `Ok` or a typed error, never a panic — parsed
    /// alone, and run by the library.
    fn survives(odb: &mut OrpheusDb, line: &str) {
        let parsed = Command::parse(line);
        let ran = odb.execute(line);
        if let Err(e) = &parsed {
            assert_eq!(ran.as_ref().err(), Some(e), "{line:?}");
        }
    }

    #[test]
    fn every_prefix_of_the_probe_and_the_corpus_parses_or_errs() {
        for line in probe_lines() {
            let mut odb = instance();
            for prefix in prefixes(line) {
                survives(&mut odb, prefix);
            }
        }
        let mut odb = corpus_db();
        for sql in QUERY_CORPUS {
            for prefix in prefixes(&format!("run {sql}")) {
                survives(&mut odb, prefix);
            }
        }
    }

    #[test]
    fn oversized_integers_and_broken_quotes_are_parse_errors() {
        let mut odb = instance();
        for line in [
            "checkout t -v 4294967296 -t w",
            "diff t -v 0 4294967296",
            "threads 99999999999999999999",
            "run SELECT * FROM VERSION 0 OF CVD t LIMIT 18446744073709551616",
            "run SELECT * FROM VERSION 4294967297 OF CVD t",
            "run SELECT * FROM VERSION 0 OF CVD t WHERE s = 'x1",
            "explain analyze SELECT * FROM VERSION 0 OF CVD t WHERE s = 'x1",
            "optimize t -g 1e999999",
        ] {
            match odb.execute(line) {
                Err(Error::Parse(_)) => {}
                other => panic!("{line}: expected a parse error, got {other:?}"),
            }
        }
    }

    /// The grammar's words, values that stress it, and whitespace of every
    /// kind, to be strung together at random.
    const WORDS: &[&str] = &[
        "create_user",
        "config",
        "whoami",
        "ls",
        "log",
        "drop",
        "checkout",
        "insert",
        "init",
        "commit",
        "diff",
        "optimize",
        "plan_storage",
        "run",
        "explain",
        "analyze",
        "metrics",
        "spans",
        "trace",
        "dump",
        "stats",
        "threads",
        "checkpoint",
        "recover",
        "reset",
        "--json",
        "pin",
        "unpin",
        "sleep",
        "quit",
        "-v",
        "-t",
        "-m",
        "-f",
        "-s",
        "-k",
        "-g",
        "-b",
        "t",
        "w",
        "nope",
        "0",
        "1",
        "2",
        "-1",
        "1.5",
        "NaN",
        "4294967296",
        "99999999999999999999",
        "18446744073709551616",
        "k:int",
        "k:int,a1:int,a2:int,s:text",
        "k",
        "'a  b'",
        "'open",
        "\"",
        "SELECT",
        "*",
        "FROM",
        "VERSION",
        "OF",
        "CVD",
        "WHERE",
        "LIMIT",
        "GROUP",
        "BY",
        "vid",
        "count(*)",
        "V_DIFF(1,",
        "0)",
        "JOIN",
        "ON",
        "=",
        "<>",
        "3,4,5,x",
        "é",
        "一",
    ];
    const SPACES: &[&str] = &[
        " ", "  ", "\t", "\u{a0}", "\u{3000}", "\u{2003}", "\u{85}", "",
    ];

    fn soup() -> impl Strategy<Value = String> {
        (
            prop::collection::vec(0..WORDS.len(), 0..9),
            prop::collection::vec(0..SPACES.len(), 10..11),
        )
            .prop_map(|(words, spaces)| {
                let mut line = SPACES[spaces[9]].to_owned();
                for (i, w) in words.into_iter().enumerate() {
                    line.push_str(WORDS[w]);
                    line.push_str(SPACES[spaces[i]]);
                }
                line
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn a_soup_of_the_grammar_parses_or_errs(line in soup()) {
            // `threads` with a 10-digit count would size the next query's
            // worker pool by it: each soup gets an instance of its own.
            survives(&mut instance(), &line);
        }
    }
}
