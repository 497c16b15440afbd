//! The CLI's settings table end to end: an invalid `ORPHEUS_THREADS`,
//! `ORPHEUS_SLOW_MS` or `ORPHEUS_TRACE_SAMPLE` (or flag) must exit 2 with a clear message naming the spelling, in every
//! mode — before any database or socket is opened. A valid value
//! (boundaries like `0` included) must be seen to take effect, in the
//! shell and over `serve`.

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

/// `ORPHEUS_THREADS=abc` and `=0` used to start the shell on one worker
/// without a word, while `--threads abc` exited 2.
#[test]
fn invalid_threads_exit_2_naming_the_variable() {
    for (bad, mode) in [
        ("abc", &[][..]),
        ("0", &[]),
        ("0", &["serve", "--port", "0"]),
    ] {
        let (code, stderr) = run_with("ORPHEUS_THREADS", bad, mode);
        assert_eq!(code, 2, "value {bad:?} must exit 2; stderr: {stderr}");
        assert!(
            stderr.starts_with("error: invalid ORPHEUS_THREADS value: "),
            "{stderr}"
        );
    }
}

#[test]
fn invalid_storage_flags_exit_2() {
    for (flag, bad) in [("--threads", "abc"), ("--threads", "0")] {
        let out = orpheusdb()
            .args([flag, bad])
            .stdin(Stdio::null())
            .output()
            .expect("spawn orpheusdb");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} {bad}: {stderr}");
        assert!(stderr.contains(flag), "{stderr}");
    }
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

/// `ORPHEUS_THREADS` reaches the shell and, through `EngineConfig`, the
/// server (which used to run on the core count instead); `ORPHEUS_SLOW_MS`
/// reaches the server's slow-query log.
#[test]
fn threads_from_the_environment_reach_the_shell_and_serve() {
    let vars = [("ORPHEUS_THREADS", "3"), ("ORPHEUS_SLOW_MS", "0")];
    let out = shell(&[], &vars, "threads\n");
    assert!(out.contains("morsel workers: 3"), "{out}");

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
    assert!(stdout.contains("morsel workers: 3"), "{stdout}");

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
        "--threads",
        "ORPHEUS_THREADS",
    ] {
        assert!(
            stdout.contains(needle),
            "help is missing {needle:?}:\n{stdout}"
        );
    }
    assert!(!stdout.contains("MAT_BUDGET"), "{stdout}");
    assert!(!stdout.contains("--mat-budget"), "{stdout}");
}
