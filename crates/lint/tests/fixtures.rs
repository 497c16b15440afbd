//! Rule fixture tests: L010 has firing and non-firing snippets under
//! `tests/fixtures/`, plus a self-lint pass over the whole workspace.

use lint::{lint_files, lint_workspace, FileFinding, Rule};
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn render(findings: &[FileFinding]) -> String {
    findings
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join("\n")
}

/// Lint fixtures jointly and return the findings.
fn lint(names: &[&str]) -> Vec<FileFinding> {
    let paths: Vec<PathBuf> = names.iter().map(|n| fixture(n)).collect();
    let paths: Vec<&Path> = paths.iter().map(PathBuf::as_path).collect();
    lint_files(&paths).unwrap()
}

#[test]
fn l010_fires_on_guard_held_across_blocking() {
    let findings = lint(&["l010_fire.rs"]);
    let rules: Vec<Rule> = findings.iter().map(|f| f.finding.rule).collect();
    assert_eq!(
        rules,
        vec![Rule::L010, Rule::L010],
        "direct sync_all + helper resolving to sync_data"
    );
    let rendered = findings[0].to_string();
    assert!(
        rendered.starts_with("crates/pagestore/src/flushdemo.rs:"),
        "the pseudo-path drives the rendered location: {rendered}"
    );
    assert!(rendered.contains(": L010 "), "{rendered}");
}

#[test]
fn l010_spares_scoped_and_dropped_guards() {
    let findings = lint(&["l010_clean.rs"]);
    assert!(findings.is_empty(), "{}", render(&findings));
}

#[test]
fn l010_never_resolves_a_library_call_to_a_test_helper() {
    // A library's `seen.load(…)` under a guard, and a `tests/` helper
    // `fn load` that syncs: linted together, they stay clean.
    let joint = lint(&["l010_x_library.rs", "l010_x_tests_helper.rs"]);
    assert!(
        joint.is_empty(),
        "a test helper became a call target:\n{}",
        render(&joint)
    );
    // The same helper as library code is a call target, and the guard
    // is then held across its sync: the fixture pair does exercise it.
    let src = |name: &str| std::fs::read_to_string(fixture(name)).unwrap();
    let as_library = lint::lint_sources(&[
        (
            "crates/pagestore/src/sampler.rs".into(),
            src("l010_x_library.rs"),
        ),
        (
            "crates/pagestore/src/helpers.rs".into(),
            src("l010_x_tests_helper.rs"),
        ),
    ]);
    let rules: Vec<Rule> = as_library.iter().map(|f| f.finding.rule).collect();
    assert!(rules.contains(&Rule::L010), "{rules:?}");
}

#[test]
fn workspace_self_lint_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .unwrap();
    let (findings, scanned) = lint_workspace(root).unwrap();
    assert!(scanned > 50, "expected a real workspace, scanned {scanned}");
    assert!(
        findings.is_empty(),
        "workspace must lint clean; findings:\n{}",
        render(&findings)
    );
}
