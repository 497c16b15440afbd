//! The OrpheusDB command-line interface (§3.3): an interactive shell over
//! the middleware, in the spirit of the SIGMOD'17 demo — plus the network
//! front end (`serve`) and its line client (`client`).
//!
//! ```text
//! cargo run --release
//! orpheus> create_user alice
//! orpheus> config alice
//! orpheus> init mydata -f data.csv -s id:int,name:text,score:int -k id
//! orpheus> checkout mydata -v 0 -t work
//! orpheus> commit -t work -m first pass
//! orpheus> run SELECT vid, count(*) FROM CVD mydata GROUP BY vid
//! orpheus> optimize mydata -g 2.0
//! ```
//!
//! Multi-session mode:
//!
//! ```text
//! orpheusdb serve --port 7077 --data-dir ./data     # one shared engine
//! orpheusdb client --port 7077 --user alice         # N of these
//! ```

mod settings;

use orpheusdb::orpheus::{CommandOutput, OrpheusDb};
use orpheusdb::orpheus_server::{self, EngineConfig, ServerConfig};
use settings::{Flags, Settings};
use std::io::{BufRead, Write};

fn print_table(t: &orpheusdb::orpheus::query::QueryResult) {
    let names: Vec<&str> = t.schema.columns().iter().map(|c| c.name.as_str()).collect();
    println!("{}", names.join(" | "));
    println!("{}", "-".repeat(names.join(" | ").len().max(8)));
    for row in t.rows.iter().take(50) {
        let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
        println!("{}", cells.join(" | "));
    }
    if t.rows.len() > 50 {
        println!("… ({} rows total)", t.rows.len());
    }
}

fn show(out: CommandOutput) {
    match out {
        CommandOutput::Message(m) => println!("{m}"),
        CommandOutput::Version(v) => println!("committed {v}"),
        CommandOutput::Listing(l) => {
            for item in l {
                println!("{item}");
            }
        }
        CommandOutput::Table(t) => print_table(&t),
    }
}

fn help() {
    println!(
        "commands:\n  \
         create_user <name> | config <name> | whoami\n  \
         init <cvd> -f <csv> -s <name:type,…> [-k pk,…]\n  \
         checkout <cvd> -v <vid…> -t <table>   (each vid once; rows are copied in on first read)\n  \
         insert <table> <csv values>   (append a row to a checkout without copying it)\n  \
         commit -t <table> [-s <name:type,…>] -m <message…>   (-s widens or adds columns first)\n  \
         diff <cvd> -v <a> <b>\n  \
         run <SELECT … FROM VERSION i OF CVD c | SELECT vid, agg(col) FROM CVD c GROUP BY vid>\n  \
         optimize <cvd> [-g <gamma>]   (LyreSplit plan under γ·|R|, γ ≥ 1.0; stores nothing)\n  \
         plan_storage <cvd> [-b <factor>]   (materialization plan under a storage budget)\n  \
         explain analyze [--json] <query>   (instrumented plan: estimated vs actual)\n  \
         stats [reset]   (buffer-pool I/O counters)\n  \
         metrics [--json|reset]   (counters, gauges, latency histograms)\n  \
         spans [--json|reset]     (aggregated trace-span tree)\n  \
         trace dump [--json]      (per-request event journal; --json = Chrome trace JSONL)\n  \
         trace reset              (clear the event journal)\n  \
         checkpoint      (durability point: log dirty pages, one fsync; with --data-dir)\n  \
         recover         (replay the write-ahead log, as after a crash)\n  \
         log <cvd> | ls | drop <cvd> | help | quit\n\
         modes:\n  \
         orpheusdb [--data-dir <d>]     interactive single-session shell\n  \
         orpheusdb serve --port <p> [--data-dir <d>] [--workers <n>] [--admission <n>]\n  \
         orpheusdb client --port <p> [--user <name>]   (extra: pin/unpin <cvd> for snapshot reads)\n  \
         each mode takes only the flags shown, each with its value; any other exits 2\n\
         settings (every mode; a bad value exits 2):\n  \
         variable               default\n  \
         ORPHEUS_SLOW_MS        100     slow-query log threshold in ms (0 logs every command)\n  \
         ORPHEUS_TRACE_SAMPLE   1       journal 1-in-n requests (0 disables the journal)"
    );
}

/// Print a usage error and exit non-zero. Bad flags must never fall
/// through to a half-configured process.
fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// The flags each mode reads; any other argument exits 2.
const SHELL_FLAGS: &[&str] = &["--data-dir"];
const SERVE_FLAGS: &[&str] = &["--port", "--data-dir", "--workers", "--admission"];
const CLIENT_FLAGS: &[&str] = &["--port", "--user"];

/// `args` parsed against the flags `known` to a mode; an unknown flag or
/// a flag without its value exits 2.
fn flags<'a>(args: &'a [String], known: &[&str]) -> Flags<'a> {
    Flags::parse(args, known).unwrap_or_else(|msg| fail(&msg))
}

/// Parse `flag`'s value, if given; one that does not parse or that `ok`
/// refuses exits 2.
fn parsed_flag<T: std::str::FromStr>(
    args: &Flags,
    flag: &str,
    ok: fn(&T) -> bool,
    expected: &str,
) -> Option<T> {
    let raw = args.get(flag)?;
    match raw.parse().ok().filter(ok) {
        Some(value) => Some(value),
        None => fail(&settings::invalid(flag, raw, expected)),
    }
}

/// A count of at least 1 (`--workers`, `--admission`).
fn count_flag(args: &Flags, flag: &str) -> Option<usize> {
    parsed_flag(args, flag, |&n| n >= 1, "an integer ≥ 1")
}

/// `--data-dir <dir>`: open a durable instance (page file + write-ahead
/// log in `dir`) instead of the default in-memory one, with `settings`
/// applied.
fn open_db(args: &Flags, settings: &Settings) -> OrpheusDb {
    let mut db = match args.get("--data-dir") {
        Some(dir) => match OrpheusDb::open_durable(dir, 512) {
            Ok((db, report)) => {
                if report.did_work() {
                    println!("crash recovery: {report}");
                }
                println!("durable store at {dir} (write-ahead logged)");
                db
            }
            Err(e) => {
                eprintln!("cannot open data dir {dir}: {e}");
                std::process::exit(1);
            }
        },
        None => OrpheusDb::new(),
    };
    db.set_slow_ms(settings.slow_ms);
    db
}

/// `serve --port <p> [--data-dir <d>] [--workers <n>] [--admission <n>]`:
/// the multi-session front end, with `settings` applied to its engine.
/// Prints the bound address, then serves until killed.
fn serve(args: &Flags, settings: &Settings) {
    // Port 0 picks a free port and prints it.
    let Some(port) = parsed_flag(args, "--port", |_| true, "an integer in 0..=65535") else {
        fail("serve needs --port <p> (0 picks a free port)");
    };
    let engine = EngineConfig {
        data_dir: args.get("--data-dir").map(Into::into),
        admission_capacity: count_flag(args, "--admission").unwrap_or(64),
        slow_ms: settings.slow_ms,
        ..EngineConfig::default()
    };
    let workers = count_flag(args, "--workers").unwrap_or(8);
    let server = match orpheus_server::Server::start(ServerConfig {
        port,
        workers,
        engine,
    }) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot start server: {e}");
            std::process::exit(1);
        }
    };
    if let Some(report) = server.recovery_report() {
        eprintln!("recovery: {report}");
    }
    println!("listening on {}", server.local_addr());
    std::io::stdout().flush().ok();
    // Serve until the process is killed; the WAL makes a hard kill safe.
    loop {
        std::thread::park();
    }
}

/// The non-blank lines of stdin, trimmed, each read after showing
/// `prompt`. Ends at end of input or on a read error.
fn input(prompt: &'static str) -> impl Iterator<Item = String> {
    let stdin = std::io::stdin();
    std::iter::from_fn(move || loop {
        print!("{prompt}");
        std::io::stdout().flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => return None,
            Ok(_) if line.trim().is_empty() => {}
            Ok(_) => return Some(line.trim().to_owned()),
            Err(e) => {
                eprintln!("input error: {e}");
                return None;
            }
        }
    })
}

/// `client --port <p> [--user <name>]`: a line-oriented client. Reads
/// query lines from stdin, prints each reply's canonical rendering.
fn client(args: &Flags) {
    let Some(port) = parsed_flag(args, "--port", |&p: &u16| p != 0, "an integer in 1..=65535")
    else {
        fail("client needs --port <p>");
    };
    let user = args.get("--user").unwrap_or("cli");
    let mut c = match orpheus_server::Client::connect(("127.0.0.1", port), user) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot connect: {e}");
            std::process::exit(1);
        }
    };
    for line in input("") {
        if line == "quit" || line == "exit" {
            break;
        }
        match c.query(&line) {
            Ok(reply) => print!("{}", reply.render()),
            Err(e) => {
                eprintln!("connection lost: {e}");
                std::process::exit(1);
            }
        }
        std::io::stdout().flush().ok();
    }
    if let Err(e) = c.terminate() {
        eprintln!("error closing session: {e}");
        std::process::exit(1);
    }
}

fn shell(args: &Flags, settings: &Settings) {
    let mut db = open_db(args, settings);
    println!("OrpheusDB shell — type 'help' for commands, 'quit' to exit.");
    for line in input("orpheus> ") {
        match line.split_whitespace().next() {
            Some("quit") | Some("exit") => break,
            Some("help") => help(),
            _ => match db.execute(&line) {
                Ok(out) => show(out),
                Err(e) => eprintln!("error: {e}"),
            },
        }
    }
    // `quit` and end of input alike: write the log back to the page file.
    if let Err(e) = db.close() {
        eprintln!("error: {e}");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    // Every setting, parsed once and validated in every mode before a
    // database or a socket opens.
    let settings = Settings::resolve(&settings::environment()).unwrap_or_else(|msg| fail(&msg));
    match args.get(1).map(String::as_str) {
        Some("serve") => serve(&flags(&args[2..], SERVE_FLAGS), &settings),
        Some("client") => client(&flags(&args[2..], CLIENT_FLAGS)),
        Some("help") | Some("--help") => help(),
        Some(mode) if !mode.starts_with("--") => {
            fail(&format!("unknown mode: {mode} (expected serve | client)"))
        }
        _ => shell(&flags(&args[1..], SHELL_FLAGS), &settings),
    }
}
