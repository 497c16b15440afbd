//! The kept rule catches a seeded mutation of real engine code: the
//! workspace's own sources, with one edit made in memory, must draw
//! exactly the finding the edit deserves.

use lint::{lint_sources, workspace_sources, Rule};
use std::path::Path;

const SERVER: &str = "crates/orpheus-server/src/server.rs";
const SUPPRESSION: &str = "// lint:allow(L010):";

/// `text` with its L010 suppression line replaced by `with`, and the
/// 1-based line of the `recv_timeout` call it covered.
fn replace_suppression(text: &str, with: Option<&str>) -> (String, u32) {
    let mut lines = Vec::new();
    let mut recv_line = None;
    for line in text.lines() {
        if line.trim_start().starts_with(SUPPRESSION) {
            lines.extend(with.map(|w| format!("{}{w}", &line[..line.find("//").unwrap()])));
            continue;
        }
        if line.contains("rx.recv_timeout(") {
            recv_line = Some(lines.len() as u32 + 1);
        }
        lines.push(line.to_owned());
    }
    (
        lines.join("\n"),
        recv_line.expect("server.rs waits on recv_timeout"),
    )
}

/// Lint the workspace with server.rs's suppression line replaced by
/// `with`: the findings, and the line of the `recv_timeout` call.
fn findings_without_suppression(with: Option<&str>) -> (Vec<(String, u32, Rule)>, u32) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .unwrap();
    let mut sources = workspace_sources(root).unwrap();
    let (_, text) = sources.iter_mut().find(|(rel, _)| rel == SERVER).unwrap();
    let (edited, recv_line) = replace_suppression(text, with);
    *text = edited;
    let findings = lint_sources(&sources)
        .into_iter()
        .map(|f| (f.path, f.finding.line, f.finding.rule))
        .collect();
    (findings, recv_line)
}

#[test]
fn the_session_worker_without_a_valid_suppression_draws_one_l010() {
    // The worker holds the shared receiver's guard across a 100 ms
    // `recv_timeout`, deliberately; without its reasoned suppression
    // that is the one guard held across blocking in the workspace. A
    // suppression with no reason, or naming a retired id, is none.
    for with in [
        None,
        Some("// lint:allow(L010)"),
        Some("// lint:allow(L009): the retired lock-order rule"),
    ] {
        let (findings, recv_line) = findings_without_suppression(with);
        let expected = vec![(SERVER.to_owned(), recv_line, Rule::L010)];
        assert_eq!(findings, expected, "suppression line {with:?}");
    }
}
