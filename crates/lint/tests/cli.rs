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
fn each_firing_fixture_exits_one_with_its_rule_on_stdout() {
    for (name, rule) in [
        ("l001_fire.rs", "L001"),
        ("l002_fire.rs", "L002"),
        ("l003_fire.rs", "L003"),
        ("l004_fire.rs", "L004"),
        ("l005_fire.rs", "L005"),
        ("l006_fire.rs", "L006"),
        ("l007_fire.rs", "L007"),
        ("l009_fire.rs", "L009"),
        ("l010_fire.rs", "L010"),
        ("l011_fire.rs", "L011"),
        ("l012_fire.rs", "L012"),
        ("l013_fire.rs", "L013"),
        ("suppress_bad.rs", "L006"),
    ] {
        let out = bin().args(["--file", &fixture(name)]).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{name} must fail the gate");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains(rule), "{name} stdout:\n{stdout}");
    }
}

#[test]
fn clean_fixtures_exit_zero() {
    for name in [
        "l001_clean.rs",
        "l002_clean.rs",
        "l003_clean.rs",
        "l004_clean.rs",
        "l005_clean.rs",
        "l006_clean.rs",
        "l007_clean.rs",
        "l009_clean.rs",
        "l010_clean.rs",
        "l011_clean.rs",
        "l012_clean.rs",
        "l013_clean.rs",
        "suppress_ok.rs",
    ] {
        let out = bin().args(["--file", &fixture(name)]).output().unwrap();
        assert_eq!(out.status.code(), Some(0), "{name} must pass the gate");
    }
}

/// Pins the `--json` schema (`orpheus-lint/1`): the document and each
/// finding object must keep their keys, parsed back with `obs::json` —
/// the same parser the engine's tooling uses on this output.
#[test]
fn json_output_matches_schema() {
    let out = bin()
        .args(["--json", "--file", &fixture("l001_fire.rs")])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8(out.stdout).unwrap();
    let missing = obs::json::missing_keys(&text, &["schema", "files_scanned", "findings"])
        .expect("--json must emit parseable JSON");
    assert!(missing.is_empty(), "missing keys: {missing:?}");
    let doc = obs::json::parse(&text).unwrap();
    assert_eq!(
        doc.get("schema").and_then(|s| s.as_str()),
        Some("orpheus-lint/1")
    );
    let findings = match doc.get("findings") {
        Some(obs::json::Json::Arr(items)) => items,
        other => panic!("findings must be an array, got {other:?}"),
    };
    assert!(!findings.is_empty(), "l001_fire must produce findings");
    for f in findings {
        for key in ["path", "line", "rule", "msg"] {
            assert!(f.get(key).is_some(), "finding missing `{key}`:\n{text}");
        }
        assert_eq!(f.get("rule").and_then(|r| r.as_str()), Some("L001"));
    }

    // A clean run still emits the full skeleton, with an empty array.
    let out = bin()
        .args(["--json", "--file", &fixture("l001_clean.rs")])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let doc = obs::json::parse(&String::from_utf8(out.stdout).unwrap()).unwrap();
    assert!(
        matches!(doc.get("findings"), Some(obs::json::Json::Arr(v)) if v.is_empty()),
        "clean runs keep the schema skeleton"
    );
}

/// `--json` output is byte-stable across runs: findings are sorted by
/// (path, line, rule) with no timestamps or map-iteration order inside.
#[test]
fn json_output_is_stable_across_runs() {
    let run = || {
        bin()
            .args([
                "--json",
                "--file",
                &fixture("l001_fire.rs"),
                &fixture("l002_fire.rs"),
            ])
            .output()
            .unwrap()
            .stdout
    };
    assert_eq!(run(), run());
}

/// Satellite: the self-lint runtime budget from the lint's design —
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
