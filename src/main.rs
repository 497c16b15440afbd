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

use orpheusdb::orpheus::{CommandOutput, OrpheusDb};
use orpheusdb::orpheus_server::{self, EngineConfig, ServerConfig};
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
         checkout <cvd> -v <vid…> -t <table>\n  \
         commit -t <table> -m <message…>\n  \
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
         threads [n]     (show or set morsel workers; 1 = sequential plans)\n  \
         log <cvd> | ls | drop <cvd> | help | quit\n\
         modes:\n  \
         orpheusdb                      interactive single-session shell\n  \
         orpheusdb serve --port <p> [--data-dir <d>] [--threads <n>] [--workers <n>] [--admission <n>]\n  \
         orpheusdb client --port <p> [--user <name>]   (extra: pin/unpin <cvd> for snapshot reads)\n\
         storage flags (any mode):\n  \
         --page-format <flat|delta>  tuple codec for new tables (delta: varint + bitpacked arrays + dict)\n  \
         --mat-budget <factor>       materialization budget as a multiple of minimum storage (≥ 1.0)\n\
         env:\n  \
         ORPHEUS_TRACE_SAMPLE=<n>   journal 1-in-n requests (default 1; 0 disables the journal)\n  \
         ORPHEUS_SLOW_MS=<n>        slow-query log threshold in ms (default 100; 0 logs every command)\n  \
         ORPHEUS_PAGE_FORMAT=<f>    flat | delta — same as --page-format\n  \
         ORPHEUS_MAT_BUDGET=<f>     same as --mat-budget (default 2.0)"
    );
}

/// Print a usage error and exit non-zero. Bad flags must never fall
/// through to a half-configured process.
fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// The value of `flag`, if present. A flag with a missing value (end of
/// argv, or another `--flag` where the value should be) is a hard error —
/// `--threads --data-dir x` must not silently ignore `--threads`.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    let i = args.iter().position(|a| a == flag)?;
    match args.get(i + 1) {
        Some(v) if !v.starts_with("--") => Some(v),
        _ => fail(&format!("{flag} needs a value")),
    }
}

/// Parse `flag` as a count with a minimum (e.g. `--threads`, min 1).
fn count_flag(args: &[String], flag: &str, min: usize) -> Option<usize> {
    let raw = flag_value(args, flag)?;
    match raw.parse::<usize>() {
        Ok(n) if n >= min => Some(n),
        _ => fail(&format!(
            "invalid {flag} value: {raw} (expected an integer ≥ {min})"
        )),
    }
}

/// Parse `--port`. `allow_zero` is for `serve`, where 0 means "pick a
/// free port and print it".
fn port_flag(args: &[String], allow_zero: bool) -> Option<u16> {
    let raw = flag_value(args, "--port")?;
    match raw.parse::<u16>() {
        Ok(0) if !allow_zero => fail("invalid --port value: 0 (expected 1..=65535)"),
        Ok(p) => Some(p),
        Err(_) => fail(&format!(
            "invalid --port value: {raw} (expected an integer in 0..=65535)"
        )),
    }
}

/// `--data-dir <dir>`: open a durable instance (page file + write-ahead
/// log in `dir`) instead of the default in-memory one.
/// `--threads <n>`: morsel workers for checkout and version queries.
/// Defaults to the machine's available cores; `--threads 1` reproduces the
/// sequential engine's plans bit-for-bit.
fn open_db(args: &[String]) -> OrpheusDb {
    let mut db = match flag_value(args, "--data-dir") {
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
    match count_flag(args, "--threads", 1) {
        Some(n) => db.set_threads(n),
        // No flag and no ORPHEUS_THREADS override: use every core.
        None if std::env::var_os("ORPHEUS_THREADS").is_none() => {
            db.set_threads(
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1),
            );
        }
        None => {}
    }
    db
}

/// `serve --port <p> [--data-dir <d>] [--threads <n>] [--workers <n>]
/// [--admission <n>]`: the multi-session front end. Prints the bound
/// address, then serves until killed.
fn serve(args: &[String]) {
    let Some(port) = port_flag(args, true) else {
        fail("serve needs --port <p> (0 picks a free port)");
    };
    let engine = EngineConfig {
        data_dir: flag_value(args, "--data-dir").map(Into::into),
        threads: count_flag(args, "--threads", 1).unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }),
        admission_capacity: count_flag(args, "--admission", 1).unwrap_or(64),
        ..EngineConfig::default()
    };
    let workers = count_flag(args, "--workers", 1).unwrap_or(8);
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

/// `client --port <p> [--user <name>]`: a line-oriented client. Reads
/// query lines from stdin, prints each reply's canonical rendering.
fn client(args: &[String]) {
    let Some(port) = port_flag(args, false) else {
        fail("client needs --port <p>");
    };
    let user = flag_value(args, "--user").unwrap_or("cli");
    let mut c = match orpheus_server::Client::connect(("127.0.0.1", port), user) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot connect: {e}");
            std::process::exit(1);
        }
    };
    let stdin = std::io::stdin();
    loop {
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => {
                eprintln!("input error: {e}");
                break;
            }
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if line == "quit" || line == "exit" {
            break;
        }
        match c.query(line) {
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

fn shell(args: &[String]) {
    let mut db = open_db(args);
    println!("OrpheusDB shell — type 'help' for commands, 'quit' to exit.");
    let stdin = std::io::stdin();
    loop {
        print!("orpheus> ");
        std::io::stdout().flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => {
                eprintln!("input error: {e}");
                break;
            }
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match line.split_whitespace().next() {
            Some("quit") | Some("exit") => break,
            Some("help") => help(),
            _ => match db.execute(line) {
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
    // Validate the env knobs up front, in every mode: a typo'd
    // ORPHEUS_TRACE_SAMPLE, ORPHEUS_SLOW_MS, ORPHEUS_PAGE_FORMAT, or
    // ORPHEUS_MAT_BUDGET must fail loudly (exit 2, like a bad --flag)
    // instead of silently falling back to defaults.
    if let Err(msg) = obs::journal::check_env() {
        fail(&msg);
    }
    if let Err(msg) = relstore::codec::check_env() {
        fail(&msg);
    }
    if let Err(msg) = deltastore::budget::check_env() {
        fail(&msg);
    }
    let args: Vec<String> = std::env::args().collect();
    // The flags are spellings of the env knobs (validated the same way);
    // they must take effect before any database is constructed, so export
    // them for the engine to pick up wherever it opens.
    if let Some(fmt) = flag_value(&args, "--page-format") {
        match relstore::codec::PageFormatKind::parse(fmt) {
            Some(_) => std::env::set_var(relstore::codec::PAGE_FORMAT_ENV, fmt),
            None => fail(&format!(
                "invalid --page-format value: {fmt} (expected flat | delta)"
            )),
        }
    }
    if let Some(b) = flag_value(&args, "--mat-budget") {
        match deltastore::budget::parse_mat_budget(b) {
            Ok(_) => std::env::set_var(deltastore::budget::ENV, b),
            Err(m) => fail(&format!("invalid --mat-budget value: {m}")),
        }
    }
    match args.get(1).map(String::as_str) {
        Some("serve") => serve(&args[1..]),
        Some("client") => client(&args[1..]),
        Some("help") | Some("--help") => help(),
        Some(mode) if !mode.starts_with("--") => {
            fail(&format!("unknown mode: {mode} (expected serve | client)"))
        }
        _ => shell(&args),
    }
}
