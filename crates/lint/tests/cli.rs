//! Exit-code contract of the `orpheus-lint` binary: 0 clean, 1 findings,
//! 2 usage errors — `scripts/ci.sh` depends on this.

use std::path::Path;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_orpheus-lint"))
}

fn fixture(name: &str) -> String {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
        .to_string_lossy()
        .into_owned()
}

#[test]
fn clean_workspace_exits_zero() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .unwrap();
    let out = bin().arg(root).output().unwrap();
    assert!(
        out.status.success(),
        "stdout:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn a_firing_fixture_exits_one_with_its_rule_on_stdout() {
    let out = bin()
        .args(["--file", &fixture("l010_fire.rs")])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(1),
        "l010_fire.rs must fail the gate"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("L010"), "stdout:\n{stdout}");
}

#[test]
fn a_clean_fixture_exits_zero() {
    let out = bin()
        .args(["--file", &fixture("l010_clean.rs")])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "l010_clean.rs must pass the gate"
    );
}

/// The self-lint runtime budget from the lint's design —
/// whole-workspace analysis must stay interactive (< 250 ms). Debug
/// builds are several times slower, so the gate runs only when the
/// binary under test is compiled with optimizations.
#[cfg(not(debug_assertions))]
#[test]
fn release_self_lint_stays_under_250ms() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .unwrap();
    let started = std::time::Instant::now();
    let out = bin().arg(root).output().unwrap();
    let elapsed = started.elapsed();
    assert!(out.status.success(), "self-lint must be clean");
    assert!(
        elapsed < std::time::Duration::from_millis(250),
        "release self-lint (including process spawn) took {elapsed:?}"
    );
}

#[test]
fn usage_errors_exit_two() {
    let out = bin().arg("--file").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = bin().args(["--file", "no/such/file.rs"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}
