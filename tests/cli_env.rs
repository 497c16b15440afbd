//! The CLI's settings table and flags end to end: an invalid
//! `ORPHEUS_SLOW_MS` or `ORPHEUS_TRACE_SAMPLE` must exit 2 with a clear
//! message naming the variable, in every mode — before any database or
//! socket is opened — and so must a flag the mode does not read, or a
//! flag without its value. A valid value (boundaries like `0` included)
//! must be seen to take effect, in the shell and over `serve`.

use std::io::{BufRead, BufReader, Read, Write};
use std::process::{Child, Command, Stdio};

fn orpheusdb() -> Command {
    Command::new(env!("CARGO_BIN_EXE_orpheusdb"))
}

/// Run the binary with one env override and empty stdin; return
/// (exit code, stderr).
fn run_with(var: &str, value: &str, args: &[&str]) -> (i32, String) {
    let out = orpheusdb()
        .args(args)
        .env(var, value)
        .stdin(Stdio::null())
        .output()
        .expect("spawn orpheusdb");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Pipe `script` through the shell under `args` and `vars`; its stdout.
fn shell(args: &[&str], vars: &[(&str, &str)], script: &str) -> String {
    let mut child = orpheusdb()
        .args(args)
        .envs(vars.iter().copied())
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn orpheusdb");
    let mut stdin = child.stdin.take().unwrap();
    stdin.write_all(script.as_bytes()).unwrap();
    drop(stdin);
    let out = child.wait_with_output().unwrap();
    assert_eq!(out.status.code(), Some(0), "{args:?} {vars:?}: {out:?}");
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// A CSV of `rows` rows in the system temp directory.
fn csv(tag: &str, rows: usize) -> std::path::PathBuf {
    let name = format!("orpheus-cli-env-{tag}-{}.csv", std::process::id());
    let path = std::env::temp_dir().join(name);
    let mut text = String::from("k,a,s\n");
    for i in 0..rows {
        text.push_str(&format!("{i},{},x{}\n", i % 7, i % 9));
    }
    std::fs::write(&path, text).unwrap();
    path
}

#[test]
fn invalid_trace_sample_exits_2_with_a_clear_message() {
    for bad in ["nope", "-1", "1.5", ""] {
        let (code, stderr) = run_with("ORPHEUS_TRACE_SAMPLE", bad, &[]);
        assert_eq!(code, 2, "value {bad:?} must exit 2; stderr: {stderr}");
        assert!(
            stderr.contains("ORPHEUS_TRACE_SAMPLE"),
            "stderr must name the variable for {bad:?}: {stderr}"
        );
        assert!(stderr.starts_with("error: "), "{stderr}");
    }
}

#[test]
fn invalid_slow_ms_exits_2_with_a_clear_message() {
    for bad in ["fast", "-5", "10ms"] {
        let (code, stderr) = run_with("ORPHEUS_SLOW_MS", bad, &[]);
        assert_eq!(code, 2, "value {bad:?} must exit 2; stderr: {stderr}");
        assert!(
            stderr.contains("ORPHEUS_SLOW_MS"),
            "stderr must name the variable for {bad:?}: {stderr}"
        );
    }
}

/// Run the binary with `args` and empty stdin; return (exit code,
/// stderr).
fn run(args: &[&str]) -> (i32, String) {
    let out = orpheusdb()
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("spawn orpheusdb");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// A flag with a missing or refused value exits 2 naming the flag.
#[test]
fn invalid_storage_flags_exit_2() {
    for (args, flag) in [
        (&["--data-dir"][..], "--data-dir"),
        (&["serve", "--port", "0", "--data-dir"], "--data-dir"),
        (&["serve", "--port", "abc"], "--port"),
        (&["serve", "--port", "0", "--workers", "0"], "--workers"),
    ] {
        let (code, stderr) = run(args);
        assert_eq!(code, 2, "{args:?}: {stderr}");
        assert!(
            stderr.starts_with("error: ") && stderr.contains(flag),
            "{stderr}"
        );
    }
}

/// Each mode accepts only the flags it reads. A misspelt `--data-dir`
/// used to start an in-memory shell and exit 0, creating nothing; a
/// misspelt `serve` flag and the retired `--threads` were ignored alike.
#[test]
fn unknown_flags_exit_2_naming_the_flag() {
    let dir = std::env::temp_dir().join(format!("orpheus-cli-env-typo-{}", std::process::id()));
    let typo = dir.to_str().unwrap();
    for (args, flag) in [
        (&["--data-dri", typo][..], "--data-dri"),
        (&["serve", "--port", "0", "--prot", "1"], "--prot"),
        (&["--threads", "4"], "--threads"),
        (&["client", "--port", "1", "--threads", "4"], "--threads"),
    ] {
        let (code, stderr) = run(args);
        assert_eq!(code, 2, "{args:?}: {stderr}");
        assert_eq!(stderr, format!("error: unknown flag {flag}\n"), "{args:?}");
    }
    assert!(!dir.exists(), "{typo} was created");
}

/// The storage knob, `--data-dir`, is seen taking effect: the same
/// `init` is logged to a write-ahead log there (a `wal` line in `stats`,
/// one page more for the table directory) and not without it.
#[test]
fn valid_storage_knobs_reach_the_shell() {
    let data = csv("pages", 2000);
    let dir = std::env::temp_dir().join(format!("orpheus-cli-env-store-{}", std::process::id()));
    let script = format!(
        "create_user u\nconfig u\ninit t -f {} -s k:int,a:int,s:text -k k\nstats\n",
        data.display()
    );
    let stats = |args: &[&str]| {
        let out = shell(args, &[], &script);
        let line = |tag: &str| out.lines().find(|l| l.starts_with(tag)).map(str::to_owned);
        (line("free pages"), line("wal"))
    };
    let (memory, no_log) = stats(&[]);
    let (durable, log) = stats(&["--data-dir", dir.to_str().unwrap()]);
    assert!(no_log.is_none() && log.is_some(), "{log:?}");
    assert_ne!(memory, durable);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_file(&data).ok();
}

/// The budget has one spelling, `plan_storage -b`: the variable that used
/// to set it is ignored, whatever it holds.
#[test]
fn plan_storage_ignores_the_old_budget_variable() {
    let data = csv("budget", 50);
    let script = format!(
        "create_user u\nconfig u\ninit t -f {} -s k:int,a:int,s:text -k k\nplan_storage t\n",
        data.display()
    );
    for value in ["1.0", "nope"] {
        let out = shell(&[], &[("ORPHEUS_MAT_BUDGET", value)], &script);
        assert!(out.contains("(2 × min storage"), "{value}: {out}");
    }
    std::fs::remove_file(&data).ok();
}

/// A `serve` process, killed when dropped.
struct Served(Child);

impl Drop for Served {
    fn drop(&mut self) {
        self.0.kill().ok();
        self.0.wait().ok();
    }
}

/// `ORPHEUS_SLOW_MS` reaches the server's slow-query log through
/// `EngineConfig`. `ORPHEUS_THREADS`, which once sized the engine's
/// worker pool, is ignored whatever it holds, and `threads` is no longer
/// a command.
#[test]
fn slow_ms_from_the_environment_reaches_serve() {
    let vars = [("ORPHEUS_THREADS", "abc"), ("ORPHEUS_SLOW_MS", "0")];
    let out = shell(&[], &vars, "whoami\n");
    assert!(out.contains("OrpheusDB shell"), "{out}");

    let mut served = Served(
        orpheusdb()
            .args(["serve", "--port", "0"])
            .envs(vars)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
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
    let mut client = orpheusdb()
        .args(["client", "--port", &port, "--user", "t"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn orpheusdb client");
    let mut stdin = client.stdin.take().unwrap();
    stdin.write_all(b"threads\nwhoami\n").unwrap();
    drop(stdin);
    let out = client.wait_with_output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("unknown command: threads"), "{stdout}");
    assert!(!stdout.contains("morsel workers"), "{stdout}");

    served.0.kill().unwrap();
    let mut stderr = String::new();
    let mut pipe = served.0.stderr.take().unwrap();
    pipe.read_to_string(&mut stderr).unwrap();
    assert!(stderr.contains("slow-query "), "{stderr}");
}

#[test]
fn invalid_knobs_fail_before_serve_mode_opens_a_socket() {
    let (code, stderr) = run_with("ORPHEUS_TRACE_SAMPLE", "many", &["serve", "--port", "0"]);
    assert_eq!(code, 2, "stderr: {stderr}");
    assert!(stderr.contains("ORPHEUS_TRACE_SAMPLE"), "{stderr}");
}

#[test]
fn valid_knobs_reach_the_shell() {
    // `0` is valid for both knobs (journal off; log every command).
    let mut child = orpheusdb()
        .env("ORPHEUS_TRACE_SAMPLE", "0")
        .env("ORPHEUS_SLOW_MS", "0")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn orpheusdb");
    let mut stdin = child.stdin.take().unwrap();
    stdin.write_all(b"create_user u\ntrace dump\n").unwrap();
    drop(stdin);
    let out = child.wait_with_output().unwrap();
    assert_eq!(out.status.code(), Some(0), "{:?}", out);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("OrpheusDB shell"), "{stdout}");
    assert!(stdout.contains("no sampled traces"), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("slow-query "), "{stderr}");
}

#[test]
fn help_documents_the_tracing_surface() {
    let out = orpheusdb()
        .arg("help")
        .stdin(Stdio::null())
        .output()
        .expect("spawn orpheusdb");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "trace dump [--json]",
        "ORPHEUS_TRACE_SAMPLE",
        "ORPHEUS_SLOW_MS",
        "plan_storage",
        "--data-dir",
    ] {
        assert!(
            stdout.contains(needle),
            "help is missing {needle:?}:\n{stdout}"
        );
    }
    for gone in ["MAT_BUDGET", "--mat-budget", "--threads", "ORPHEUS_THREADS"] {
        assert!(!stdout.contains(gone), "{gone}: {stdout}");
    }
}
