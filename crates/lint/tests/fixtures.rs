//! Rule-catalog fixture tests: every rule has a firing and a non-firing
//! snippet under `tests/fixtures/`, plus the suppression contract and a
//! self-lint pass over the whole workspace.

use lint::{lint_file, lint_workspace, Rule};
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Lint a fixture and return its rule ids, one per finding, in order.
fn rules_of(name: &str) -> Vec<Rule> {
    let findings = lint_file(&fixture(name)).unwrap();
    findings.iter().map(|f| f.finding.rule).collect()
}

fn assert_clean(name: &str) {
    let findings = lint_file(&fixture(name)).unwrap();
    assert!(
        findings.is_empty(),
        "{name} should be clean, got:\n{}",
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn l001_fires_on_panicking_library_code() {
    let rules = rules_of("l001_fire.rs");
    assert_eq!(
        rules.len(),
        5,
        "unwrap, expect, todo!, unreachable!, panic!"
    );
    assert!(rules.iter().all(|r| *r == Rule::L001));
}

#[test]
fn l001_spares_tests_docs_and_typed_errors() {
    assert_clean("l001_clean.rs");
}

#[test]
fn l002_fires_on_discarded_guards() {
    let rules = rules_of("l002_fire.rs");
    assert_eq!(
        rules.len(),
        3,
        "`let _ = span`, bare span statement, generic `let _ =`"
    );
    assert!(rules.iter().all(|r| *r == Rule::L002));
}

#[test]
fn l002_spares_named_guards_and_explicit_drops() {
    assert_clean("l002_clean.rs");
}

#[test]
fn l003_fires_on_wall_clock_in_cost_code() {
    let rules = rules_of("l003_fire.rs");
    assert!(rules.len() >= 2, "Instant::now and SystemTime::now");
    assert!(rules.iter().all(|r| *r == Rule::L003));
}

#[test]
fn l003_spares_counter_arithmetic_and_test_timing() {
    assert_clean("l003_clean.rs");
}

#[test]
fn l003_covers_orpheus_core_plan_estimates() {
    assert_eq!(rules_of("l003_plan_fire.rs"), vec![Rule::L003]);
    assert!(lint::classify("crates/orpheus-core/src/plan.rs").deterministic);
    assert!(!lint::classify("crates/orpheus-core/src/commands.rs").deterministic);
}

#[test]
fn l004_fires_on_unjustified_unsafe() {
    assert_eq!(rules_of("l004_fire.rs"), vec![Rule::L004]);
}

#[test]
fn l004_spares_safety_commented_unsafe() {
    assert_clean("l004_clean.rs");
}

#[test]
fn l005_fires_on_ignored_tests() {
    assert_eq!(rules_of("l005_fire.rs"), vec![Rule::L005, Rule::L005]);
}

#[test]
fn l005_spares_idents_strings_and_docs() {
    assert_clean("l005_clean.rs");
}

#[test]
fn l006_fires_on_reasonless_allow() {
    assert_eq!(rules_of("l006_fire.rs"), vec![Rule::L006, Rule::L006]);
}

#[test]
fn l006_spares_reasoned_allow() {
    assert_clean("l006_clean.rs");
}

#[test]
fn l007_fires_on_raw_thread_creation_outside_the_pool() {
    let rules = rules_of("l007_fire.rs");
    assert_eq!(
        rules,
        vec![Rule::L007, Rule::L007, Rule::L007],
        "thread::spawn, thread::scope, thread::Builder"
    );
}

#[test]
fn l007_spares_pool_usage_and_test_threads() {
    assert_clean("l007_clean.rs");
}

#[test]
fn l007_spares_service_threads_in_server_code() {
    // `exec_pool::ServiceThread` is the sanctioned escape hatch for
    // named long-lived threads — and the fixture's pseudo-path is an
    // engine crate, so this also proves the service-thread idiom is
    // L001/L002-clean.
    assert_clean("l007_service_clean.rs");
}

#[test]
fn l007_spares_integration_test_directories() {
    // Integration tests carry `#[test]` without a `#[cfg(test)]` wrapper,
    // so the exemption is path-scoped: anything under a `tests/` dir.
    use lint::classify;
    assert!(classify("crates/orpheus-server/tests/concurrent_sessions.rs").test_code);
    assert!(classify("tests/smoke.rs").test_code);
    assert!(!classify("crates/orpheus-server/src/lib.rs").test_code);
    assert!(!classify("crates/bench/src/bin/server_smoke.rs").test_code);
    assert_clean("l007_tests_dir_clean.rs");
}

#[test]
fn l007_spares_the_exec_pool_crate_itself() {
    use lint::classify;
    assert!(classify("crates/exec-pool/src/lib.rs").pool_code);
    assert!(!classify("crates/relstore/src/par.rs").pool_code);
    // The pool's own `thread::scope` must not fire.
    let src = "pub fn go() { std::thread::scope(|_s| {}); }";
    assert!(lint::lint_source("crates/exec-pool/src/lib.rs", src).is_empty());
    assert!(!lint::lint_source("crates/relstore/src/par.rs", src).is_empty());
}

#[test]
fn l009_fires_on_opposite_lock_orders_in_one_file() {
    let rules = rules_of("l009_fire.rs");
    assert!(!rules.is_empty(), "opposite lock orders must close a cycle");
    assert!(rules.iter().all(|r| *r == Rule::L009), "{rules:?}");
}

#[test]
fn l009_spares_a_consistent_global_order() {
    assert_clean("l009_clean.rs");
}

#[test]
fn l009_catches_cross_file_cycles_via_the_call_graph() {
    // The cycle spans two files: metrics holds its registry lock while
    // calling into the journal; the journal holds its ring lock while
    // calling back into metrics. Only the joint call graph sees it.
    let a = fixture("l009_x_registry.rs");
    let b = fixture("l009_x_journal.rs");
    let joint = lint::lint_files(&[a.as_path(), b.as_path()]).unwrap();
    assert!(
        joint.iter().any(|f| f.finding.rule == Rule::L009),
        "joint lint must find the cross-file cycle; got:\n{}",
        joint
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        joint
            .iter()
            .any(|f| f.finding.msg.contains("metrics-registry")
                && f.finding.msg.contains("journal-ring")),
        "the finding names both lock classes in the cycle"
    );
    // Each half alone is clean: the cycle is interprocedural, not a
    // same-function token pattern.
    assert_clean("l009_x_registry.rs");
    assert_clean("l009_x_journal.rs");
}

#[test]
fn l010_fires_on_guard_held_across_blocking() {
    let rules = rules_of("l010_fire.rs");
    assert_eq!(
        rules,
        vec![Rule::L010, Rule::L010],
        "direct sync_all + helper resolving to sync_data"
    );
}

#[test]
fn l010_spares_scoped_and_dropped_guards() {
    assert_clean("l010_clean.rs");
}

#[test]
fn l010_never_resolves_a_library_call_to_a_test_helper() {
    // A library's `seen.load(…)` under a guard, and a `tests/` helper
    // `fn load` that syncs: linted together, they stay clean.
    let library = fixture("l010_x_library.rs");
    let helper = fixture("l010_x_tests_helper.rs");
    let joint = lint::lint_files(&[library.as_path(), helper.as_path()]).unwrap();
    assert!(
        joint.is_empty(),
        "a test helper became a call target:\n{}",
        joint
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    // The same helper as library code is a call target, and the guard
    // is then held across its sync: the fixture pair does exercise it.
    let src = |path: &Path| std::fs::read_to_string(path).unwrap();
    let as_library = lint::lint_sources(&[
        ("crates/pagestore/src/sampler.rs".into(), src(&library)),
        ("crates/pagestore/src/helpers.rs".into(), src(&helper)),
    ]);
    let rules: Vec<Rule> = as_library.iter().map(|f| f.finding.rule).collect();
    assert!(rules.contains(&Rule::L010), "{rules:?}");
}

#[test]
fn l011_fires_on_silently_discarded_results() {
    let rules = rules_of("l011_fire.rs");
    assert_eq!(
        rules.iter().filter(|r| **r == Rule::L011).count(),
        2,
        "statement-level `.ok();` + `let _ =` on a Result call: {rules:?}"
    );
    // The `let _ =` shape also draws L002's generic-discard finding;
    // L011 adds the callee-aware *why*.
    assert!(rules.iter().all(|r| *r == Rule::L011 || *r == Rule::L002));
}

#[test]
fn l011_spares_propagated_and_consumed_results() {
    assert_clean("l011_clean.rs");
}

#[test]
fn l012_fires_on_untraced_command_entry_points() {
    assert_eq!(rules_of("l012_fire.rs"), vec![Rule::L012]);
}

#[test]
fn l012_spares_direct_and_transitive_spans() {
    assert_clean("l012_clean.rs");
}

#[test]
fn l013_fires_on_environment_access_in_library_code() {
    assert_eq!(
        rules_of("l013_fire.rs"),
        vec![Rule::L013; 5],
        "var, var_os, vars, set_var, remove_var"
    );
}

#[test]
fn l013_spares_parameters_scratch_paths_tests_and_reasoned_reads() {
    assert_clean("l013_clean.rs");
    use lint::classify;
    assert!(classify("crates/deltastore/src/budget.rs").env_free);
    assert!(classify("crates/obs/src/journal.rs").env_free);
    assert!(!classify("crates/bench/src/lib.rs").env_free);
    assert!(!classify("src/main.rs").env_free);
    assert!(!classify("crates/orpheus-core/tests/props.rs").env_free);
}

#[test]
fn reasoned_suppressions_silence_the_rule() {
    assert_clean("suppress_ok.rs");
}

#[test]
fn reasonless_suppressions_suppress_nothing_and_fire_l006() {
    let rules = rules_of("suppress_bad.rs");
    // Both unwraps still fire; both bad suppressions are L006 findings.
    assert_eq!(rules.iter().filter(|r| **r == Rule::L001).count(), 2);
    assert_eq!(rules.iter().filter(|r| **r == Rule::L006).count(), 2);
    assert_eq!(rules.len(), 4);
}

#[test]
fn findings_render_with_pseudo_path_and_line() {
    let findings = lint_file(&fixture("l004_fire.rs")).unwrap();
    let rendered = findings[0].to_string();
    assert!(
        rendered.starts_with("crates/vquel/src/demo.rs:"),
        "pseudo-path drives the rendered location: {rendered}"
    );
    assert!(rendered.contains(": L004 "), "{rendered}");
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
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
